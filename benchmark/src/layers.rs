//! The traced pass: the per-layer numbers of one workload.
//!
//! Layers are timed from outside, through their public functions, on the
//! workload's exact inputs. The pass first runs the workload's closed
//! loop again (the generator's view and the daemon's counters), for
//! `serve-*` then a one-connection loop whose median the layer medians
//! are reconciled against, and finally calls each layer directly, every
//! call wrapped in a span. The spans go to
//! `benchmark/out/<workload>.spans.json` when the pass ends.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use earth_model::native::NativeConfig;
use earth_model::sim::SimConfig;
use irred::{
    distribute, EdgeKernel, ExecutionConfig, PhasedEngine, PhasedSpec, RecoveryPolicy,
    ReductionEngine, RunOutcome, SeqEngine, SimdMode, StrategyConfig, Tuning, Workspace,
};
use lightinspector::{inspect, InspectorInput, PhaseGeometry};
use memsim::MemStats;
use server::admission::{Admission, AdmissionConfig, Job, JobWork};
use server::cache::{Checkout, PlanCache};
use server::executor::{Executor, JobKernel, ShedLevel};
use server::protocol::{self, Frame, SubmitJob};
use server::session::Reply;
use server::ServerConfig;
use threadedc::{compile, emit_flat_plans, CompileCache};
use trace::timeline::SpanKind;

use crate::engine::{self, EngineMolDyn, EnginePic, SimMolDyn, SingleCaller};
use crate::host;
use crate::serve::{self, JobStream, Kind, Stop};
use crate::spans::Recorder;
use crate::stats;
use crate::timed::{self, Layers, Timed};

/// Share of the pass spent re-running the workload's closed loop.
const LOOP_SHARE: f64 = 0.35;
/// Share spent in the one-connection loop (`serve-*` only).
const RECONCILE_SHARE: f64 = 0.15;
/// A layer is called at least and at most this often, whatever its
/// share of the time budget.
const MIN_CALLS: usize = 3;
const MAX_CALLS: usize = 400;

pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub layers: Layers,
}

struct Pass {
    rec: Recorder,
    layers: Layers,
    failed: u64,
}

impl Pass {
    /// A pass that starts from the closed loop's jobs, as client spans.
    fn new(loop_pass: &Timed) -> Pass {
        let mut pass = Pass {
            rec: Recorder::new(Instant::now()),
            layers: Layers::new(),
            failed: 0,
        };
        pass.client_spans(loop_pass);
        pass
    }

    /// Call `f` until `budget_s` is spent.
    fn repeat(&mut self, budget_s: f64, mut f: impl FnMut(&mut Pass)) {
        let t = Instant::now();
        let mut calls = 0;
        while calls < MIN_CALLS || (calls < MAX_CALLS && t.elapsed().as_secs_f64() < budget_s) {
            f(self);
            calls += 1;
        }
    }

    fn p50(&self, span: &str) -> f64 {
        stats::median(&self.rec.ms(span))
    }

    /// Publish the median of the spans called `span` as layer metric
    /// `layer`, scaled (1 for ms, 1000 for µs).
    fn publish(&mut self, layer: &'static str, span: &str, scale: f64) -> f64 {
        let v = self.p50(span) * scale;
        self.layers.insert(layer, v);
        v
    }

    /// The closed loop's jobs as client spans.
    fn client_spans(&mut self, t: &Timed) {
        for (c, jobs) in t.callers.iter().enumerate() {
            for (n, j) in jobs.iter().enumerate() {
                let id = ((c as u64) << 32) | n as u64;
                let job = self
                    .rec
                    .add("client.job", j.span.start_s, j.span.end_s, None, id);
                if j.encoded_s > j.span.start_s {
                    self.rec
                        .add("client.encode", j.span.start_s, j.encoded_s, Some(job), id);
                    self.rec
                        .add("client.roundtrip", j.encoded_s, j.span.end_s, Some(job), id);
                }
            }
        }
    }

    fn finish(mut self, name: &str, loop_pass: Timed) -> Traced {
        for (k, v) in loop_pass.layers {
            self.layers.entry(k).or_insert(v);
        }
        let path = PathBuf::from("benchmark/out").join(format!("{name}.spans.json"));
        match self.rec.write_json(&path) {
            Ok(()) => println!("{name}: spans written to {}", path.display()),
            Err(e) => eprintln!("{name}: cannot write {}: {e}", path.display()),
        }
        println!("{name}: self time per span name (span minus its children)");
        for (span, (n, total, own)) in self.rec.self_times() {
            println!("  {span:<36} n={n:<6} total {total:>10.3} ms  self {own:>10.3} ms");
        }
        Traced {
            attempted: loop_pass.attempted,
            failed: loop_pass.failed + self.failed,
            layers: self.layers,
        }
    }
}

/// The engine configuration `reductiond` executes jobs under
/// (`Executor::run_native` at `ShedLevel::Native`).
fn server_engine_config() -> ExecutionConfig {
    let native = NativeConfig {
        watchdog: ServerConfig::default().watchdog,
        ..NativeConfig::default()
    };
    ExecutionConfig::native(native)
        .with_recovery(RecoveryPolicy::default())
        .with_tuning(Tuning::new().simd(SimdMode::preferred()))
}

/// Bytes one iteration moves, computed from the kernel's shape: its
/// indirection entries and edge data, a read-modify-write of every
/// reduction component it touches, and the read-array words it loads.
fn bytes_per_iter<K: EdgeKernel>(k: &K) -> f64 {
    let m = k.num_refs();
    (4 * m
        + 8 * k.edge_reads_per_iter()
        + 16 * m * k.num_arrays()
        + 8 * m * k.node_reads_per_elem()) as f64
}

/// LightInspector alone: one `inspect` per processor over its local
/// slice of the indirection arrays, under one enclosing span.
fn inspect_layers<K: EdgeKernel>(
    pass: &mut Pass,
    spec: &PhasedSpec<K>,
    strat: &StrategyConfig,
    budget_s: f64,
) {
    let geometry = PhaseGeometry::try_new(strat.procs, strat.k, spec.num_elements)
        .expect("benchmark geometry");
    let owned = distribute(spec.num_iterations(), strat.procs, strat.distribution);
    let locals: Vec<Vec<Vec<u32>>> = owned
        .iter()
        .map(|iters| {
            spec.indirection
                .iter()
                .map(|arr| iters.iter().map(|&i| arr[i as usize]).collect())
                .collect()
        })
        .collect();
    pass.repeat(budget_s, |p| {
        let all = p.rec.open("lightinspector.inspect");
        for (proc, local) in locals.iter().enumerate() {
            let refs: Vec<&[u32]> = local.iter().map(Vec::as_slice).collect();
            p.rec.time("lightinspector.inspect.proc", || {
                inspect(InspectorInput {
                    geometry,
                    proc_id: proc,
                    indirection: &refs,
                })
                .expect("inspect")
            });
        }
        p.rec.close(all);
    });
    let ms = pass.publish(
        "lightinspector.inspect_ms_p50",
        "lightinspector.inspect",
        1.0,
    );
    pass.layers.insert(
        "lightinspector.inspect_miters_per_s",
        spec.num_iterations() as f64 / (ms * 1e3),
    );
}

/// `prepare`, LightInspector and the sequential run of one spec: the
/// layers every engine-backed workload has.
fn plan_layers<K: EdgeKernel>(
    pass: &mut Pass,
    spec: &PhasedSpec<K>,
    strat: &StrategyConfig,
    cfg: ExecutionConfig,
    slice_s: f64,
) {
    let engine = PhasedEngine::new(cfg);
    pass.repeat(slice_s, |p| {
        p.rec.time("irred.prepare", || {
            engine.prepare(spec, strat).expect("prepare")
        });
    });
    pass.publish("irred.prepare_ms_p50", "irred.prepare", 1.0);
    inspect_layers(pass, spec, strat, slice_s);

    // The plain single-threaded run of the same problem. Its first
    // execute meters the cache model, so it is not a sample.
    let seq = SeqEngine::new(SimConfig::default());
    let mut prepared = seq.prepare(spec, strat).expect("seq prepare");
    let mut ws = Workspace::new();
    seq.execute(&mut prepared, &mut ws).expect("seq warm-up");
    pass.repeat(slice_s, |p| {
        p.rec.time("irred.seq", || {
            seq.execute(&mut prepared, &mut ws).expect("seq execute")
        });
    });
    pass.publish("irred.seq_ms_p50", "irred.seq", 1.0);
    pass.layers.insert(
        "irred.bytes_per_iter_computed",
        bytes_per_iter(&*spec.kernel),
    );
}

/// The native engine on one spec: execute at the default and at one
/// host thread, the run's exact operation counts, and one traced
/// execute for the `Timeline` shares and the trace layer's overhead.
fn native_layers<K: EdgeKernel>(
    pass: &mut Pass,
    spec: &PhasedSpec<K>,
    strat: &StrategyConfig,
    cfg: ExecutionConfig,
    slice_s: f64,
) {
    plan_layers(pass, spec, strat, cfg, slice_s);
    let engine = PhasedEngine::new(cfg);
    let mut prepared = engine.prepare(spec, strat).expect("prepare");
    let mut ws = Workspace::new();
    let warm = engine.execute(&mut prepared, &mut ws).expect("warm-up");
    let ops = warm.stats.ops;
    pass.layers
        .insert("earth.native.fibers_fired", ops.fibers_fired as f64);
    pass.layers.insert("earth.native.syncs", ops.syncs as f64);
    pass.layers
        .insert("earth.native.messages", ops.messages as f64);
    pass.layers.insert("earth.native.bytes", ops.bytes as f64);

    let one = PhasedEngine::new(cfg.with_tuning(cfg.tuning.host_threads(1)));
    let traced = PhasedEngine::new(cfg.traced());
    let mut last_traced: Option<RunOutcome> = None;
    // The three variants alternate, so a slow stretch of the host
    // falls on all of them alike.
    pass.repeat(3.0 * slice_s, |p| {
        p.rec.time("irred.execute", || {
            engine.execute(&mut prepared, &mut ws).expect("execute")
        });
        p.rec.time("irred.execute_1t", || {
            one.execute(&mut prepared, &mut ws)
                .expect("execute on 1 thread")
        });
        last_traced = Some(p.rec.time("irred.execute_traced", || {
            traced
                .execute(&mut prepared, &mut ws)
                .expect("traced execute")
        }));
    });
    let exec_ms = pass.publish("irred.execute_ms_p50", "irred.execute", 1.0);
    let one_ms = pass.publish("irred.execute_1t_ms_p50", "irred.execute_1t", 1.0);
    let threads = host::nproc().min(strat.procs) as f64;
    pass.layers
        .insert("irred.parallel_efficiency", one_ms / (exec_ms * threads));
    let seq_ms = pass.p50("irred.seq");
    pass.layers.insert("irred.speedup_vs_seq", seq_ms / exec_ms);
    let moved = bytes_per_iter(&*spec.kernel) * (spec.num_iterations() * strat.sweeps) as f64;
    pass.layers
        .insert("irred.gbytes_per_s_computed", moved / (exec_ms * 1e6));
    let traced_ms = pass.p50("irred.execute_traced");
    pass.layers
        .insert("trace.overhead_share", traced_ms / exec_ms - 1.0);
    let traced = last_traced.expect("at least one traced execute");
    trace_layers(pass, &traced);
    let tl = traced.timeline();
    let total: u64 = [SpanKind::Compute, SpanKind::CopyLoop, SpanKind::Blocked]
        .iter()
        .map(|&k| tl.total(k))
        .sum();
    for (layer, kind) in [
        ("earth.native.compute_share", SpanKind::Compute),
        ("earth.native.copy_share", SpanKind::CopyLoop),
        ("earth.native.blocked_share", SpanKind::Blocked),
    ] {
        pass.layers
            .insert(layer, tl.total(kind) as f64 / total.max(1) as f64);
    }
}

/// Event counts of one traced outcome.
fn trace_layers(pass: &mut Pass, out: &RunOutcome) {
    pass.layers
        .insert("trace.events_per_job", out.trace.len() as f64);
    pass.layers.insert(
        "trace.dropped_events",
        out.metrics.counter("trace_dropped_events").unwrap_or(0) as f64,
    );
}

/// `serve-*`: the loop at the workload's load, a one-connection loop to
/// reconcile against, then every serving layer called directly.
fn serve_layers(name: &str, kind: Kind, seed: u64, seconds: f64) -> Traced {
    let (loop_pass, mut served) = timed::serve(kind, seed, LOOP_SHARE * seconds);
    let mut pass = Pass::new(&loop_pass);

    // One tenant alone: what a client sees when nothing queues, which
    // is what the direct calls below can add up to.
    let epoch = Instant::now();
    let stop = Stop::At(epoch + Duration::from_secs_f64(RECONCILE_SHARE * seconds));
    let (client, stream) = &mut served.conns[0];
    let alone = serve::drive(client, stream, stop, epoch, false);
    pass.failed += alone.failed;
    let alone_ms: Vec<f64> = alone.jobs.iter().map(|j| j.span.ms()).collect();
    let alone_encode: Vec<f64> = alone
        .jobs
        .iter()
        .map(|j| (j.encoded_s - j.span.start_s) * 1e3)
        .collect();
    drop(served);

    let probes = if kind == Kind::Source { 6.0 } else { 10.0 };
    let slice_s = (1.0 - LOOP_SHARE - RECONCILE_SHARE) * seconds / probes;
    let exec = Executor::new(RecoveryPolicy::default(), ServerConfig::default().watchdog);
    let mut stream = JobStream::new(kind, seed, 0);
    let run = |exec: &Executor, frame: &Frame| match frame {
        Frame::SubmitJob(j) => exec.run_job(j, ShedLevel::Native, None),
        Frame::SubmitSource(s) => exec.run_source("tenant-0", s, ShedLevel::Native, None),
        _ => unreachable!("job streams hold submit frames only"),
    };
    // Bring the executor's caches to the state the daemon's are in
    // after set-up.
    for _ in 0..kind.warmup_jobs() {
        let (_, frame) = stream.next_frame();
        run(&exec, frame);
    }
    let run_span = if kind == Kind::Source {
        "server.executor.run_source"
    } else {
        "server.executor.run_job"
    };
    let mut reply_bytes = 0;
    pass.repeat(3.0 * slice_s, |p| {
        let (_, frame) = stream.next_frame();
        let bytes = protocol::encode(frame);
        let job = p.rec.open("probe.job");
        let decoded = p.rec.time("server.protocol.decode", || {
            protocol::decode(&bytes[4..]).expect("own frame decodes")
        });
        let reply = p.rec.time(run_span, || run(&exec, &decoded));
        if !matches!(reply, Frame::JobOk(_)) {
            p.failed += 1;
        }
        reply_bytes = p
            .rec
            .time("server.protocol.encode", || protocol::encode(&reply))
            .len();
        p.rec.close(job);
    });
    let decode_ms = pass.publish(
        "server.protocol.decode_ms_p50",
        "server.protocol.decode",
        1.0,
    );
    let encode_ms = pass.publish(
        "server.protocol.encode_ms_p50",
        "server.protocol.encode",
        1.0,
    );
    let run_ms = pass.publish(
        if kind == Kind::Source {
            "server.executor.run_source_ms_p50"
        } else {
            "server.executor.run_job_ms_p50"
        },
        run_span,
        1.0,
    );
    pass.layers
        .insert("server.protocol.reply_bytes", reply_bytes as f64);
    // What the one-connection client saw beyond the layers it can be
    // split into from outside: socket transfer, the client's decode of
    // the reply, admission, the session hand-off and the job's clone.
    let alone_p50 = stats::median(&alone_ms);
    let accounted = stats::median(&alone_encode) + decode_ms + run_ms + encode_ms;
    pass.layers
        .insert("server.session.unaccounted_ms", alone_p50 - accounted);
    pass.layers.insert(
        "server.session.unaccounted_share",
        (alone_p50 - accounted) / alone_p50,
    );
    admission_layers(&mut pass, slice_s);

    let (_, frame) = stream.next_frame();
    match frame {
        Frame::SubmitJob(job) => job_layers(&mut pass, job, slice_s),
        Frame::SubmitSource(src) => source_layers(&mut pass, src, slice_s),
        _ => unreachable!("job streams hold submit frames only"),
    }
    pass.finish(name, loop_pass)
}

/// Admission with nothing queued: `submit` → `next` → `done`.
fn admission_layers(pass: &mut Pass, slice_s: f64) {
    let admission = Admission::new(AdmissionConfig::default());
    let tiny = SubmitJob {
        job_id: 0,
        deadline_ms: 0,
        flags: 0,
        num_elements: 4,
        iterations: 2,
        num_refs: 2,
        num_arrays: 1,
        procs: 1,
        k: 1,
        dist: 0,
        sweeps: 1,
        fault: None,
        weights: vec![1.0, 2.0],
        indirection: vec![vec![0, 1], vec![2, 3]],
    };
    pass.repeat(slice_s / 4.0, |p| {
        let job = Job {
            tenant: "tenant-0".into(),
            work: JobWork::Job(tiny.clone()),
            reply: Reply::sink(),
            deadline: None,
        };
        p.rec.time("server.admission.roundtrip", || {
            admission.submit(job);
            let (job, _) = admission.next().expect("the job just submitted");
            admission.done(&job.tenant);
        });
    });
    pass.publish(
        "server.admission.roundtrip_us_p50",
        "server.admission.roundtrip",
        1e3,
    );
}

/// The layers under `Executor::run_job`, on one job of the stream.
fn job_layers(pass: &mut Pass, job: &SubmitJob, slice_s: f64) {
    let spec = serve::job_spec(job);
    let strat = serve::job_strategy(job);
    pass.repeat(slice_s, |p| {
        p.rec
            .time("irred.structure_hash", || spec.structure_hash(&strat));
    });
    pass.publish("irred.structure_hash_ms_p50", "irred.structure_hash", 1.0);

    let cfg = server_engine_config();
    let engine = PhasedEngine::new(cfg);
    let key = spec.structure_hash(&strat) ^ cfg.tuning.plan_fingerprint();
    let mut cache = PlanCache::new();
    let prepared: irred::PreparedPhased<JobKernel> =
        engine.prepare(&spec, &strat).expect("prepare");
    cache.checkin(key, Box::new(prepared), Workspace::new(), true, 0);
    pass.repeat(slice_s / 4.0, |p| {
        p.rec.time("server.cache.checkout_checkin", || {
            let Checkout::Hit {
                prepared,
                ws,
                failures,
            } = cache.checkout(key)
            else {
                unreachable!("the plan was just checked in");
            };
            cache.checkin(key, prepared, ws, true, failures);
        });
    });
    pass.publish(
        "server.cache.checkout_checkin_us_p50",
        "server.cache.checkout_checkin",
        1e3,
    );
    native_layers(pass, &spec, &strat, cfg, slice_s);
}

/// The layers under `Executor::run_source`, on one job of the stream.
fn source_layers(pass: &mut Pass, src: &server::protocol::SubmitSource, slice_s: f64) {
    pass.repeat(slice_s / 4.0, |p| {
        p.rec.time("threadedc.compile", || {
            compile(&src.source).expect("compiles")
        });
    });
    pass.publish("threadedc.compile_ms_p50", "threadedc.compile", 1.0);
    let mut cache = CompileCache::new(32);
    let compiled = cache.get_or_compile(&src.source).expect("compiles");
    pass.repeat(slice_s / 4.0, |p| {
        p.rec.time("threadedc.cache_hit", || {
            cache.get_or_compile(&src.source).expect("cached")
        });
    });
    pass.publish("threadedc.cache_hit_us_p50", "threadedc.cache_hit", 1e3);

    let strat = StrategyConfig::new(
        usize::from(src.procs),
        usize::from(src.k),
        irred::Distribution::Cyclic,
        usize::from(src.sweeps),
    );
    let engine = PhasedEngine::new(server_engine_config());
    let bindings = serve::source_bindings(src);
    pass.repeat(slice_s, |p| {
        let mut b = bindings.clone();
        p.rec.time("threadedc.execute_flat", || {
            compiled
                .execute_flat(&mut b, &strat, &engine)
                .expect("execute_flat")
        });
    });
    pass.publish(
        "threadedc.execute_flat_ms_p50",
        "threadedc.execute_flat",
        1.0,
    );

    // The program fissions into one single-reference loop per group;
    // the compiler-side LightInspector and the engine's adoption of its
    // plans are timed on loops of that shape.
    let loops: Vec<PhasedSpec<JobKernel>> = src
        .ints
        .iter()
        .map(|(_, ind)| PhasedSpec {
            kernel: Arc::new(JobKernel {
                num_refs: 1,
                num_arrays: 1,
                weights: Arc::new(src.f64s[0].1.clone()),
            }),
            num_elements: serve::ELEMENTS as usize,
            indirection: Arc::new(vec![ind.clone()]),
        })
        .collect();
    pass.repeat(slice_s, |p| {
        let job = p.rec.open("probe.plan");
        for spec in &loops {
            let flats = p.rec.time("lightinspector.inspect", || {
                emit_flat_plans(spec, &strat).expect("emit_flat_plans")
            });
            p.rec.time("irred.prepare", || {
                engine
                    .prepare_from_flat(spec, &strat, flats)
                    .expect("prepare_from_flat")
            });
        }
        p.rec.close(job);
    });
    // Two loops per job: a job's share is twice the per-loop median.
    let inspect_ms = 2.0 * pass.p50("lightinspector.inspect");
    pass.layers
        .insert("lightinspector.inspect_ms_p50", inspect_ms);
    pass.layers.insert(
        "lightinspector.inspect_miters_per_s",
        2.0 * f64::from(serve::ITERATIONS) / (inspect_ms * 1e3),
    );
    let prepare_ms = 2.0 * pass.p50("irred.prepare");
    pass.layers.insert("irred.prepare_ms_p50", prepare_ms);
}

fn engine_layers<W: SingleCaller>(
    name: &str,
    seed: u64,
    seconds: f64,
    set_up: impl Fn(u64) -> W,
    probe: impl FnOnce(&mut Pass, &mut W, u64, f64),
) -> Traced {
    let (loop_pass, mut w) = timed::single(seed, LOOP_SHARE * seconds, set_up);
    let mut pass = Pass::new(&loop_pass);
    probe(
        &mut pass,
        &mut w,
        loop_pass.attempted,
        (1.0 - LOOP_SHARE) * seconds,
    );
    pass.finish(name, loop_pass)
}

fn moldyn_probe(pass: &mut Pass, w: &mut EngineMolDyn, _next: u64, budget_s: f64) {
    let (spec, strat) = (w.0.spec.clone(), w.0.strat);
    native_layers(pass, &spec, &strat, engine::native_config(), budget_s / 6.0);
}

fn pic_probe(pass: &mut Pass, w: &mut EnginePic, next: u64, budget_s: f64) {
    let slice_s = budget_s / 8.0;
    // The job's two halves, continuing the deck where the loop left it.
    let mut n = next;
    pass.repeat(2.0 * slice_s, |p| {
        w.stage(n);
        n += 1;
        let job = p.rec.open("probe.job");
        p.rec.time("irred.apply_updates", || {
            w.apply_staged().expect("apply_updates")
        });
        p.rec
            .time("probe.execute", || w.execute().expect("execute"));
        p.rec.close(job);
    });
    pass.publish("irred.apply_updates_ms_p50", "irred.apply_updates", 1.0);
    pass.layers
        .insert("lightinspector.updates_per_step", w.staged_len() as f64);
    let (spec, strat) = (w.run.spec.clone(), w.run.strat);
    native_layers(pass, &spec, &strat, engine::native_config(), slice_s);
}

fn sim_probe(pass: &mut Pass, w: &mut SimMolDyn, _next: u64, budget_s: f64) {
    let slice_s = budget_s / 6.0;
    let cfg = SimMolDyn::config();
    plan_layers(pass, &w.spec, &w.strat, cfg, slice_s);

    // Serial core, two-shard core and traced serial core, alternating.
    let pdes = ExecutionConfig::sim(SimConfig::default().with_host_threads(2));
    let mut last: Option<RunOutcome> = None;
    let mut last_traced: Option<RunOutcome> = None;
    pass.repeat(3.0 * slice_s, |p| {
        let out = p.rec.time("earth.sim.run", || w.run(cfg).expect("sim run"));
        let sharded = p
            .rec
            .time("earth.sim.run_pdes2", || w.run(pdes).expect("pdes run"));
        if sharded.time_cycles != out.time_cycles {
            p.failed += 1;
        }
        last = Some(out);
        last_traced = Some(p.rec.time("earth.sim.run_traced", || {
            w.run(cfg.traced()).expect("traced sim run")
        }));
    });
    let out = last.expect("at least one sim run");
    let run_ms = pass.p50("earth.sim.run");
    pass.publish("earth.sim.pdes2_wall_ms_p50", "earth.sim.run_pdes2", 1.0);
    let mcycles = out.time_cycles as f64 / 1e6;
    pass.layers.insert("earth.sim.mcycles", mcycles);
    pass.layers
        .insert("earth.sim.mcycles_per_host_s", mcycles / (run_ms / 1e3));
    pass.layers
        .insert("earth.sim.mean_utilization", out.mean_utilization());
    pass.layers
        .insert("earth.sim.messages", out.messages() as f64);
    pass.layers.insert("earth.sim.bytes", out.bytes() as f64);
    let mut mem = MemStats::default();
    for node in &out.stats.per_node {
        mem.merge(&node.mem);
    }
    pass.layers.insert("memsim.miss_share", mem.miss_ratio());
    // The paper's figure metric: sequential cycles over phased cycles.
    let seq = SeqEngine::new(SimConfig::default())
        .run(&w.spec, &w.strat)
        .expect("sequential reference");
    pass.layers.insert(
        "earth.sim.speedup_vs_seq_cycles",
        seq.time_cycles as f64 / out.time_cycles as f64,
    );
    let traced_ms = pass.p50("earth.sim.run_traced");
    pass.layers
        .insert("trace.overhead_share", traced_ms / run_ms - 1.0);
    trace_layers(pass, &last_traced.expect("at least one traced run"));
}

/// Run workload `name`'s traced pass within about `seconds`.
pub fn run(name: &str, seed: u64, seconds: f64) -> Traced {
    match name {
        "serve-warm" => serve_layers(name, Kind::Warm, seed, seconds),
        "serve-cold" => serve_layers(name, Kind::Cold, seed, seconds),
        "serve-source" => serve_layers(name, Kind::Source, seed, seconds),
        "engine-moldyn" => engine_layers(name, seed, seconds, EngineMolDyn::setup, moldyn_probe),
        "engine-pic" => engine_layers(name, seed, seconds, EnginePic::setup, pic_probe),
        "sim-moldyn-p32" => engine_layers(name, seed, seconds, SimMolDyn::setup, sim_probe),
        other => panic!("no workload named {other}"),
    }
}
