//! Recovery-ladder and validation tests for the phased executor.
//!
//! The contract (ISSUE: robustness): callers of the phased executor
//! always get a bit-correct answer or a typed error — never a hang,
//! never silent corruption. [`RecoveryPolicy`] adds the ladder: retry
//! the parallel run (fresh program, reseeded fault plan, exponential
//! backoff), then fall back to the sequential executor with a warning.
//!
//! Failing property cases print a `PROP_SEED` replay line; DESIGN.md §8.

use std::sync::Arc;
use std::time::Duration;

use earth_model::native::{NativeConfig, RunError, StallReason};
use earth_model::sim::SimConfig;
use earth_model::FaultConfig;
use harness::prop::{check, Config, Gen};
use harness::{prop_assert, prop_assert_eq};
use irred::baseline::IeEngine;
use irred::kernel::WeightedPairKernel;
use irred::{
    approx_eq, seq_reduction, Distribution, EdgeKernel, EngineError, PhasedEngine, PhasedSpec,
    RecoveryPolicy, ReductionEngine, StrategyConfig, Workspace,
};
use lightinspector::InspectError;

fn spec_from(g: &mut Gen) -> PhasedSpec<WeightedPairKernel> {
    let n = g.usize_incl(4, 48);
    let iters = g.usize_incl(1, 200);
    let ia1 = (0..iters).map(|_| g.u32_in(0..n as u32)).collect();
    let ia2 = (0..iters).map(|_| g.u32_in(0..n as u32)).collect();
    // Integer-valued weights: contributions sum exactly in any order, so
    // bit-identical comparisons below are meaningful.
    let weights: Vec<f64> = (0..iters).map(|_| g.u32_in(0..1000) as f64).collect();
    PhasedSpec {
        kernel: Arc::new(WeightedPairKernel {
            weights: Arc::new(weights),
        }),
        num_elements: n,
        indirection: Arc::new(vec![ia1, ia2]),
    }
}

fn strat_from(g: &mut Gen) -> StrategyConfig {
    let procs = g.usize_incl(1, 4);
    let k = g.usize_incl(1, 3);
    let dist = *g.pick(&[Distribution::Block, Distribution::Cyclic]);
    let sweeps = g.usize_incl(1, 3);
    StrategyConfig::new(procs, k, dist, sweeps)
}

fn fixed_spec(seed: u64) -> PhasedSpec<WeightedPairKernel> {
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let n = 24usize;
    let iters = 150usize;
    let ia1 = (0..iters).map(|_| (next() % n as u64) as u32).collect();
    let ia2 = (0..iters).map(|_| (next() % n as u64) as u32).collect();
    let weights: Vec<f64> = (0..iters).map(|_| (next() % 1000) as f64).collect();
    PhasedSpec {
        kernel: Arc::new(WeightedPairKernel {
            weights: Arc::new(weights),
        }),
        num_elements: n,
        indirection: Arc::new(vec![ia1, ia2]),
    }
}

fn fixed_strat() -> StrategyConfig {
    StrategyConfig::new(2, 2, Distribution::Cyclic, 2)
}

/// Fault plan that drops every message: the phased program starves
/// deterministically (it is all message-driven past the first fibers).
fn drop_everything(seed: u64) -> FaultConfig {
    FaultConfig {
        drop_prob: 1.0,
        ..FaultConfig::none(seed)
    }
}

fn strict(faults: Option<FaultConfig>) -> NativeConfig {
    NativeConfig {
        watchdog: Duration::from_secs(5),
        faults,
        starved_is_error: true,
        host_threads: None,
        deadline: None,
    }
}

/// Prepare once on the native backend, then run the per-attempt
/// recovery ladder — the engine-API successor of the old
/// `run_recovering_with` entry point.
fn run_recovering_with<K: EdgeKernel>(
    spec: &PhasedSpec<K>,
    strat: &StrategyConfig,
    policy: RecoveryPolicy,
    cfg_for_attempt: impl Fn(u32) -> NativeConfig,
) -> Result<irred::RunOutcome, irred::EngineError> {
    let engine = PhasedEngine::native(NativeConfig::default());
    let mut prepared = engine.prepare(spec, strat)?;
    let mut ws = Workspace::new();
    prepared.execute_recovering_with(&mut ws, policy, cfg_for_attempt)
}

// --- fault transparency on the real executor ----------------------------

#[test]
fn lossless_faults_native_matches_fault_free() {
    check(
        "lossless_faults_native_matches_fault_free",
        Config::cases(64),
        |g| (spec_from(g), strat_from(g), g.u64_any()),
        |(spec, strat, seed)| {
            let clean = PhasedEngine::native(NativeConfig::default())
                .run(spec, strat)
                .unwrap();
            let faulty = PhasedEngine::native(strict(Some(FaultConfig::lossless(*seed))))
                .run(spec, strat)
                .unwrap();
            // The phased program is a pure dataflow graph and the
            // weights are integers: delayed / reordered / duplicated
            // messages must leave the answer bit-identical.
            prop_assert_eq!(&faulty.values, &clean.values);
            let seq = seq_reduction(spec, strat.sweeps, SimConfig::default());
            prop_assert!(approx_eq(&faulty.values[0], &seq.x[0], 1e-9));
            Ok(())
        },
    );
}

#[test]
fn chaos_recovery_always_returns_correct_answer() {
    check(
        "chaos_recovery_always_returns_correct_answer",
        Config::cases(64),
        |g| {
            let spec = spec_from(g);
            let strat = strat_from(g);
            let faults = FaultConfig {
                drop_prob: g.f64_in(0.0..0.4),
                panic_prob: g.f64_in(0.0..0.1),
                ..FaultConfig::lossless(g.u64_any())
            };
            (spec, strat, faults)
        },
        |(spec, strat, faults)| {
            let seq = seq_reduction(spec, strat.sweeps, SimConfig::default());
            let res = PhasedEngine::recovering(strict(Some(*faults)), RecoveryPolicy::default())
                .run(spec, strat)
                .unwrap();
            // With fallback enabled the ladder cannot fail — and whatever
            // rung answered, the values must be right.
            prop_assert!(approx_eq(&res.values[0], &seq.x[0], 1e-9));
            prop_assert!(res.recovery.attempts >= 1);
            if res.recovery.fell_back_to_seq {
                prop_assert!(res.recovery.warning.is_some());
                prop_assert_eq!(res.recovery.errors.len(), res.recovery.attempts as usize);
            }
            Ok(())
        },
    );
}

// --- the ladder, rung by rung -------------------------------------------

#[test]
fn recovery_retries_then_succeeds() {
    let spec = fixed_spec(11);
    let strat = fixed_strat();
    let seq = seq_reduction(&spec, strat.sweeps, SimConfig::default());
    // Attempt 0 is doomed (every message dropped); attempt 1 runs clean.
    let res = run_recovering_with(&spec, &strat, RecoveryPolicy::default(), |attempt| {
        if attempt == 0 {
            strict(Some(drop_everything(3)))
        } else {
            strict(None)
        }
    })
    .unwrap();
    assert_eq!(res.recovery.attempts, 2);
    assert_eq!(res.recovery.errors.len(), 1);
    assert!(
        res.recovery.errors[0].contains("stalled"),
        "{:?}",
        res.recovery.errors
    );
    assert!(!res.recovery.fell_back_to_seq);
    assert!(res
        .recovery
        .warning
        .as_deref()
        .unwrap()
        .contains("attempt 2"));
    assert!(approx_eq(&res.values[0], &seq.x[0], 1e-9));
}

#[test]
fn recovery_exhausts_retries_and_falls_back_to_seq() {
    let spec = fixed_spec(12);
    let strat = fixed_strat();
    let seq = seq_reduction(&spec, strat.sweeps, SimConfig::default());
    let policy = RecoveryPolicy {
        max_attempts: 3,
        ..RecoveryPolicy::default()
    };
    let res = run_recovering_with(&spec, &strat, policy, |a| {
        strict(Some(drop_everything(a as u64 + 1)))
    })
    .unwrap();
    assert_eq!(res.recovery.attempts, 3);
    assert_eq!(res.recovery.errors.len(), 3);
    assert!(res.recovery.fell_back_to_seq);
    let warning = res.recovery.warning.as_deref().unwrap();
    assert!(warning.contains("sequential"), "{warning}");
    // The fallback answer is the sequential executor's own — exact.
    assert_eq!(res.values[0], seq.x[0]);
    assert_eq!(res.read, seq.read);
}

#[test]
fn recovery_without_fallback_returns_last_error() {
    let spec = fixed_spec(13);
    let strat = fixed_strat();
    let policy = RecoveryPolicy {
        max_attempts: 2,
        fall_back_to_seq: false,
        ..RecoveryPolicy::default()
    };
    match run_recovering_with(&spec, &strat, policy, |a| {
        strict(Some(drop_everything(a as u64 + 40)))
    }) {
        Err(EngineError::Run(RunError::Stalled { .. })) => {}
        other => panic!("expected Run(Stalled), got {other:?}"),
    }
}

#[test]
fn deadline_stall_is_returned_at_once_not_retried() {
    let spec = fixed_spec(16);
    let strat = fixed_strat();
    // Fallback stays allowed: a spent deadline must skip it too.
    let policy = RecoveryPolicy {
        max_attempts: 3,
        ..RecoveryPolicy::default()
    };
    // The ladder asks for each attempt's config (and its fault seed) by
    // attempt number, so the highest number asked for counts attempts.
    let attempts = std::cell::Cell::new(0u32);
    let res = run_recovering_with(&spec, &strat, policy, |a| {
        attempts.set(attempts.get().max(a + 1));
        NativeConfig {
            deadline: Some(Duration::ZERO),
            ..strict(Some(FaultConfig::lossless(5)))
        }
    });
    match res {
        Err(EngineError::Run(RunError::Stalled {
            reason: StallReason::DeadlineExceeded,
            ..
        })) => {}
        other => panic!("expected Run(Stalled(DeadlineExceeded)), got {other:?}"),
    }
    assert_eq!(attempts.get(), 1, "one attempt, so one fault seed");
}

#[test]
fn reseeded_fault_plans_differ_between_attempts() {
    // run_recovering itself must not replay the identical fault schedule
    // on retry: the reseed changes the per-site decisions.
    let base = FaultConfig::lossless(77);
    assert_ne!(base.seed, base.reseeded(1).seed);
    assert_ne!(base.reseeded(1).seed, base.reseeded(2).seed);
}

// --- caller bugs: typed, immediate, never retried -----------------------

#[test]
fn out_of_range_indirection_is_invalid_not_retried() {
    let mut spec = fixed_spec(14);
    {
        let ind = Arc::get_mut(&mut spec.indirection).unwrap();
        ind[1][7] = spec.num_elements as u32 + 3; // outside the array
    }
    match PhasedEngine::native(NativeConfig::default()).run(&spec, &fixed_strat()) {
        Err(EngineError::Invalid(InspectError::OutOfRange { elem, .. })) => {
            assert_eq!(elem, spec.num_elements as u32 + 3);
        }
        other => panic!("expected Invalid(OutOfRange), got {other:?}"),
    }
    // And the recovery ladder refuses to retry it.
    match PhasedEngine::recovering(NativeConfig::default(), RecoveryPolicy::default())
        .run(&spec, &fixed_strat())
    {
        Err(EngineError::Invalid(_)) => {}
        other => panic!("expected immediate Invalid, got {other:?}"),
    }
}

#[test]
fn ragged_indirection_is_a_shape_error() {
    let mut spec = fixed_spec(15);
    {
        let ind = Arc::get_mut(&mut spec.indirection).unwrap();
        ind[1].pop(); // now shorter than array 0
    }
    match PhasedEngine::native(NativeConfig::default()).run(&spec, &fixed_strat()) {
        Err(EngineError::Shape { expected, got, .. }) => {
            assert_eq!(expected, spec.indirection[0].len());
            assert_eq!(got, spec.indirection[0].len() - 1);
        }
        other => panic!("expected Shape, got {other:?}"),
    }
}

#[test]
fn wrong_indirection_count_is_a_shape_error() {
    let mut spec = fixed_spec(16);
    {
        let len = spec.indirection[0].len();
        let ind = Arc::get_mut(&mut spec.indirection).unwrap();
        ind.push(vec![0; len]);
    }
    match PhasedEngine::native(NativeConfig::default()).run(&spec, &fixed_strat()) {
        Err(EngineError::Shape {
            expected: 2,
            got: 3,
            ..
        }) => {}
        other => panic!("expected Shape{{2,3}}, got {other:?}"),
    }
}

// --- starved simulator runs: the native backend's typed stall -----------

/// A simulator whose fault plan drops every message.
fn starving_sim() -> SimConfig {
    SimConfig {
        faults: Some(drop_everything(7)),
        ..SimConfig::default()
    }
}

fn assert_starved(res: Result<irred::RunOutcome, EngineError>) {
    match res {
        Err(EngineError::Run(RunError::Stalled {
            reason: StallReason::Starved,
            outstanding,
            ..
        })) => assert!(outstanding > 0, "unfired fibers are outstanding"),
        other => panic!("expected Run(Stalled(Starved)), got {other:?}"),
    }
}

#[test]
fn phased_starved_sim_is_a_typed_stall() {
    assert_starved(PhasedEngine::sim(starving_sim()).run(&fixed_spec(14), &fixed_strat()));
}

#[test]
fn ie_starved_sim_is_a_typed_stall() {
    assert_starved(IeEngine::sim(starving_sim()).run(&fixed_spec(15), &fixed_strat()));
}

#[test]
fn phased_error_display_names_the_cause() {
    let e = EngineError::Invalid(InspectError::NoReferences);
    assert!(e.to_string().contains("invalid phased spec"));
    let e = EngineError::Shape {
        what: "indirection array length",
        expected: 10,
        got: 9,
    };
    let s = e.to_string();
    assert!(s.contains("expected 10"), "{s}");
    assert!(s.contains("got 9"), "{s}");
}

// --- gather executor: same validation contract --------------------------

mod gather {
    use super::*;
    use irred::{GatherEngine, GatherSpec};
    use workloads::SparseMatrix;

    #[test]
    fn wrong_x_length_is_a_shape_error() {
        let matrix = Arc::new(SparseMatrix::random(32, 32, 200, 5));
        let spec = GatherSpec {
            x: Arc::new(vec![1.0; matrix.ncols + 4]),
            matrix,
        };
        match GatherEngine::native(NativeConfig::default()).run(&spec, &fixed_strat()) {
            Err(EngineError::Shape {
                expected: 32,
                got: 36,
                ..
            }) => {}
            other => panic!("expected Shape{{32,36}}, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_column_is_invalid() {
        let mut m = SparseMatrix::random(32, 32, 200, 6);
        m.col_idx[3] = 99; // ncols is 32
        let spec = GatherSpec {
            x: Arc::new(vec![1.0; 32]),
            matrix: Arc::new(m),
        };
        match GatherEngine::native(NativeConfig::default()).run(&spec, &fixed_strat()) {
            Err(EngineError::Invalid(InspectError::OutOfRange { elem: 99, .. })) => {}
            other => panic!("expected Invalid(OutOfRange), got {other:?}"),
        }
    }

    #[test]
    fn gather_lossless_faults_are_bit_transparent() {
        let matrix = Arc::new(SparseMatrix::random(48, 48, 600, 7));
        let spec = GatherSpec {
            x: Arc::new((0..48).map(|i| (i % 7) as f64).collect()),
            matrix,
        };
        let strat = fixed_strat();
        let clean = GatherEngine::native(NativeConfig::default())
            .run(&spec, &strat)
            .unwrap();
        let faulty = GatherEngine::native(strict(Some(FaultConfig::lossless(8))))
            .run(&spec, &strat)
            .unwrap();
        assert_eq!(faulty.values, clean.values);
    }

    #[test]
    fn gather_dropped_messages_become_typed_stalls() {
        let matrix = Arc::new(SparseMatrix::random(48, 48, 600, 9));
        let spec = GatherSpec {
            x: Arc::new(vec![1.0; 48]),
            matrix,
        };
        match GatherEngine::native(strict(Some(drop_everything(2)))).run(&spec, &fixed_strat()) {
            Err(EngineError::Run(RunError::Stalled { .. })) => {}
            other => panic!("expected Run(Stalled), got {other:?}"),
        }
    }

    #[test]
    fn gather_starved_sim_is_a_typed_stall() {
        let spec = GatherSpec {
            x: Arc::new(vec![1.0; 48]),
            matrix: Arc::new(SparseMatrix::random(48, 48, 600, 10)),
        };
        assert_starved(GatherEngine::sim(starving_sim()).run(&spec, &fixed_strat()));
    }

    /// Both recovery entry points walk the ladder down to the plain
    /// sequential SpMV and return it bit for bit.
    #[test]
    fn gather_recovery_falls_back_to_spmv() {
        let matrix = Arc::new(SparseMatrix::random(48, 48, 600, 11));
        let spec = GatherSpec {
            x: Arc::new((0..48).map(|i| (i % 5) as f64 + 0.25).collect()),
            matrix,
        };
        let mut y = vec![0.0; 48];
        spec.matrix.spmv(&spec.x, &mut y);
        let policy = RecoveryPolicy {
            max_attempts: 2,
            initial_backoff: Duration::ZERO,
            ..RecoveryPolicy::default()
        };
        let check = |res: irred::RunOutcome| {
            assert_eq!(res.recovery.attempts, 2);
            assert_eq!(res.recovery.errors.len(), 2);
            assert!(res.recovery.fell_back_to_seq);
            assert_eq!(res.values.len(), 1);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&res.values[0]), bits(&y));
        };
        let engine = GatherEngine::recovering(strict(Some(drop_everything(3))), policy);
        check(engine.run(&spec, &fixed_strat()).unwrap());
        let mut prepared = GatherEngine::native(NativeConfig::default())
            .prepare(&spec, &fixed_strat())
            .unwrap();
        let res = prepared
            .execute_recovering_with(&mut Workspace::new(), policy, |a| {
                strict(Some(drop_everything(u64::from(a) + 20)))
            })
            .unwrap();
        assert_eq!(res.recovery.fault_seeds, vec![Some(20), Some(21)]);
        check(res);
    }
}
