//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root is this file printed by the `manifest` subcommand; change a name
//! here and regenerate it.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve-warm",
        why: "plan-cache hits over the socket: wire decode, structure hash, clone and hand-offs cost about as much as execute; LightInspector does nothing",
    },
    Workload {
        name: "serve-cold",
        why: "every job a never-seen structure: LightInspector prepare dominates the job and the 64-entry plan cache evicts on every check-in",
    },
    Workload {
        name: "serve-source",
        why: "SubmitSource of 8 two-group DSL programs: compile cache, bind, flat-plan emission and prepare on every job; compile itself is <1%",
    },
    Workload {
        name: "engine-moldyn",
        why: "library call on 131072 molecules and 786432 pairs: flat kernels and the native ring do all the work, prepare shows only in setup_s",
    },
    Workload {
        name: "engine-pic",
        why: "particle-in-cell with 10% churn per step: incremental LightInspector updates plus two-array kernels on skewed, moving targets",
    },
    Workload {
        name: "sim-moldyn-p32",
        why: "the paper's 10K moldyn dataset on 32 simulated nodes: earth::sim and memsim do all the work, no native threads",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The bounds are three times the run-to-run spread this class of host
/// shows on identical code (see `REPEATABILITY.md`): a shared 2-vCPU
/// microVM drifts by 5-10 % over minutes, whatever a run measures.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "job_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_job",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.20,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Named `<module>.<metric>`. A layer the workload does not run reports
/// 0: no calls, no time.
pub const PER_LAYER: &[PerLayer] = &[
    // The load generator's own view, and the host it ran on.
    layer("client.jobs_attempted", "count", "higher"),
    layer("client.jobs_ok", "count", "higher"),
    layer("client.busy_retries", "count", "lower"),
    layer("client.job_ms_mean", "ms", "lower"),
    layer("client.job_ms_p90", "ms", "lower"),
    layer("client.job_ms_p99", "ms", "lower"),
    layer("client.encode_ms_p50", "ms", "lower"),
    layer("client.think_us_p50", "us", "lower"),
    layer("host.steal_share", "ratio", "lower"),
    // reductiond: wire, admission, plan cache, executor, session.
    layer("server.protocol.decode_ms_p50", "ms", "lower"),
    layer("server.protocol.encode_ms_p50", "ms", "lower"),
    layer("server.protocol.request_bytes", "B", "lower"),
    layer("server.protocol.reply_bytes", "B", "lower"),
    layer("server.admission.roundtrip_us_p50", "us", "lower"),
    layer("server.admission.degraded_share", "ratio", "lower"),
    layer("server.cache.plan_hit_share", "ratio", "higher"),
    layer("server.cache.evicted", "count", "lower"),
    layer("server.cache.checkout_checkin_us_p50", "us", "lower"),
    layer("server.executor.run_job_ms_p50", "ms", "lower"),
    layer("server.executor.run_source_ms_p50", "ms", "lower"),
    layer("server.session.unaccounted_ms", "ms", "lower"),
    layer("server.session.unaccounted_share", "ratio", "lower"),
    // threadedc: the compiler front door.
    layer("threadedc.compile_ms_p50", "ms", "lower"),
    layer("threadedc.cache_hit_us_p50", "us", "lower"),
    layer("threadedc.compile_hit_share", "ratio", "higher"),
    layer("threadedc.execute_flat_ms_p50", "ms", "lower"),
    // LightInspector and the phased engine.
    layer("lightinspector.inspect_ms_p50", "ms", "lower"),
    layer("lightinspector.inspect_miters_per_s", "Miter/s", "higher"),
    layer("lightinspector.updates_per_step", "count", "lower"),
    layer("irred.structure_hash_ms_p50", "ms", "lower"),
    layer("irred.prepare_ms_p50", "ms", "lower"),
    layer("irred.apply_updates_ms_p50", "ms", "lower"),
    layer("irred.execute_ms_p50", "ms", "lower"),
    layer("irred.execute_1t_ms_p50", "ms", "lower"),
    layer("irred.parallel_efficiency", "ratio", "higher"),
    layer("irred.seq_ms_p50", "ms", "lower"),
    layer("irred.speedup_vs_seq", "ratio", "higher"),
    layer("irred.bytes_per_iter_computed", "B", "lower"),
    layer("irred.gbytes_per_s_computed", "GB/s", "higher"),
    // The EARTH backends.
    layer("earth.native.fibers_fired", "count", "lower"),
    layer("earth.native.syncs", "count", "lower"),
    layer("earth.native.messages", "count", "lower"),
    layer("earth.native.bytes", "B", "lower"),
    layer("earth.native.ctx_switches_per_job", "count", "lower"),
    layer("earth.native.compute_share", "ratio", "higher"),
    layer("earth.native.copy_share", "ratio", "lower"),
    layer("earth.native.blocked_share", "ratio", "lower"),
    layer("earth.sim.mcycles", "Mcycles", "lower"),
    layer("earth.sim.mcycles_per_host_s", "Mcycles/s", "higher"),
    layer("earth.sim.mean_utilization", "ratio", "higher"),
    layer("earth.sim.messages", "count", "lower"),
    layer("earth.sim.bytes", "B", "lower"),
    layer("earth.sim.speedup_vs_seq_cycles", "ratio", "higher"),
    layer("earth.sim.pdes2_wall_ms_p50", "ms", "lower"),
    layer("memsim.miss_share", "ratio", "lower"),
    // The engine's own trace layer, switched on for one execute.
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.events_per_job", "count", "lower"),
    layer("trace.dropped_events", "count", "lower"),
];

/// Seconds one driver run measures; also the shortest window the
/// harness will print numbers for.
pub const RUN_SECONDS: u64 = 10;

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let mut s = String::from("{\n");
    s += &format!("  \"command\": [{}],\n", command.map(json_str).join(", "));
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    s += &WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    s += &END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    s += &PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    s += "\n  ]\n}\n";
    s
}

/// The result object a run ends its standard output with.
pub fn result_json(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // `{:?}` prints every digit an f64 holds; JSON has no NaN
            // or infinity, and a metric never legitimately is one.
            assert!(value.is_finite(), "metric {name} is not finite");
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_str(name),
                value,
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted,
        failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "a name breaks the rules");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(manifest_json().len() < 64 << 10);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(10, 0, &[("job_ms_p50", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"job_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
