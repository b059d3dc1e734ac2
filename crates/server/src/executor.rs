//! Job execution: one [`SubmitJob`] in, one [`JobOk`]/[`JobErr`] frame
//! out, with the plan cache, the recovery ladder, the watchdog, and the
//! per-job deadline wired together.
//!
//! Fault isolation is layered: a panicking node is caught by the native
//! supervisor (typed [`RunError`]), a wedged node by the watchdog, a
//! healthy-but-slow run by the per-job deadline, and whatever survives
//! the retry ladder either falls back to the sequential executor (bit-
//! identical results, `degraded = 2`) or surfaces as a typed [`JobErr`]
//! carrying the engine error `Display` text — including the `StallDump`
//! summary — plus the per-attempt fault seeds for replay.
//!
//! Native jobs go through the [`PlanCache`], which admits a plan on its
//! structure's second sighting: the first job of a structure prepares,
//! runs, and drops its plan (off the cache mutex), leaving only the key
//! behind; the next job of that structure prepares again and its plan is
//! kept, so a third job hits. One-off structures never pin memory.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use earth_model::native::{NativeConfig, RunError, StallReason};
use earth_model::FaultConfig;
use irred::{
    EdgeKernel, EngineError, ExecutionConfig, PhasedEngine, PhasedSpec, RecoveryPolicy,
    ReductionEngine, RunOutcome, SeqEngine, StrategyConfig, Workspace,
};
use threadedc::ast::ElemType;
use threadedc::CompileCache;
use workloads::Distribution;

use crate::cache::{Checkout, PlanCache};
use crate::protocol::{
    ErrCode, Frame, JobErr, JobOk, SubmitJob, SubmitSource, FLAG_NO_FALLBACK, MAX_ELEMENTS,
};

/// Compiled programs cached per tenant (FIFO, keyed by source hash).
const COMPILE_CACHE_CAP: usize = 32;

/// Coefficient tables up to this many slots are built on the stack —
/// every wire shape (at most 4 refs × 3 arrays) fits.
const STACK_COEFFS: usize = 16;

/// The server's job kernel: per-iteration weighted contributions,
/// `out[r * num_arrays + a] = (r + 1) · (a + 1) · w[iter]`. Simple
/// enough to transport as one weight array, rich enough to exercise
/// multi-ref/multi-array plans; deterministic, so server results are
/// bit-comparable against a direct engine run of the same kernel.
///
/// `contrib_batch` builds the `(r + 1) · (a + 1)` table once per batch
/// of the chunked kernel and runs [`irred::scaled_batch`] over it;
/// `contrib` computes the same product per slot, so the two agree bit
/// for bit.
#[derive(Debug, Clone)]
pub struct JobKernel {
    pub num_refs: usize,
    pub num_arrays: usize,
    pub weights: Arc<Vec<f64>>,
}

impl EdgeKernel for JobKernel {
    fn num_refs(&self) -> usize {
        self.num_refs
    }

    fn num_arrays(&self) -> usize {
        self.num_arrays
    }

    fn contrib(&self, _read: &[f64], iter: usize, _elems: &[u32], out: &mut [f64]) {
        let w = self.weights[iter];
        for r in 0..self.num_refs {
            for a in 0..self.num_arrays {
                out[r * self.num_arrays + a] = (r + 1) as f64 * (a + 1) as f64 * w;
            }
        }
    }

    fn contrib_batch(&self, _read: &[f64], giters: &[u32], _elems: &[u32], out: &mut [f64]) {
        let w = self.num_refs * self.num_arrays;
        let mut stack = [0.0; STACK_COEFFS];
        let mut heap = Vec::new();
        let coeffs = if w <= STACK_COEFFS {
            &mut stack[..w]
        } else {
            heap.resize(w, 0.0);
            &mut heap[..]
        };
        for r in 0..self.num_refs {
            for a in 0..self.num_arrays {
                coeffs[r * self.num_arrays + a] = (r + 1) as f64 * (a + 1) as f64;
            }
        }
        irred::scaled_batch(&self.weights, coeffs, giters, out);
    }

    fn flops_per_iter(&self) -> u64 {
        (self.num_refs * self.num_arrays) as u64
    }
}

/// How hard the server is shedding load when a job is dequeued — a
/// two-rung ladder. Both rungs compute the same reduction: the `Seq`
/// rung adds in original iteration order and the native rung in the
/// phased schedule's order, so on non-integer weights the two can
/// differ in the last bits. Shedding trades latency, not answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedLevel {
    /// Normal service: native parallel execution (`degraded = 0`).
    Native,
    /// Queue at three-quarters capacity: run sequentially
    /// (`degraded = 2`).
    Seq,
}

/// The `degraded` byte of a job that ran sequentially — shed to the
/// `Seq` rung, or fallen back there by the recovery ladder.
const DEGRADED_SEQ: u8 = 2;

/// Everything needed to run jobs; shared by all worker threads.
pub struct Executor {
    pub cache: Mutex<PlanCache>,
    /// Per-tenant source-hash compile caches for `SubmitSource` jobs —
    /// tenant-keyed so one tenant's churn cannot evict another's
    /// programs.
    pub compile_caches: Mutex<HashMap<String, CompileCache>>,
    pub recovery: RecoveryPolicy,
    pub watchdog: Duration,
}

impl Executor {
    pub fn new(recovery: RecoveryPolicy, watchdog: Duration) -> Self {
        Executor {
            cache: Mutex::new(PlanCache::new()),
            compile_caches: Mutex::new(HashMap::new()),
            recovery,
            watchdog,
        }
    }

    /// `(entries, hits, misses)` summed over every tenant's compile
    /// cache — for the metrics report.
    pub fn compile_cache_stats(&self) -> (usize, u64, u64) {
        let caches = self.compile_caches.lock().unwrap();
        caches.values().fold((0, 0, 0), |(n, h, m), c| {
            (n + c.len(), h + c.hits(), m + c.misses())
        })
    }

    /// Run one job to a reply frame. Never panics the worker: every
    /// failure mode becomes a typed [`JobErr`].
    pub fn run_job(&self, job: &SubmitJob, shed: ShedLevel, deadline: Option<Instant>) -> Frame {
        let fault = job_fault(job);
        let strat = match admit(job.job_id, deadline, job.procs, job.k, job.dist, job.sweeps) {
            Ok(s) => s,
            Err(frame) => return frame,
        };
        let kernel = Arc::new(JobKernel {
            num_refs: usize::from(job.num_refs),
            num_arrays: usize::from(job.num_arrays),
            weights: Arc::new(job.weights.clone()),
        });
        match shed {
            ShedLevel::Seq => run_seq(job, &job_spec(job, kernel), &strat),
            ShedLevel::Native => self.run_native(job, kernel, &strat, fault, deadline),
        }
    }

    /// Run one source-submitted job: compile (through the tenant's
    /// compile cache), bind the named inputs, execute on the native
    /// phased engine (or sequentially when shedding), each phased loop
    /// prepared through the engine's `prepare` like a `SubmitJob`, and
    /// reply with every non-temporary declared f64 array in declaration
    /// order.
    /// Compile failures come back as [`ErrCode::Compile`] carrying the
    /// spanned diagnostic verbatim; the worker never drops the
    /// connection over bad source.
    pub fn run_source(
        &self,
        tenant: &str,
        job: &SubmitSource,
        shed: ShedLevel,
        deadline: Option<Instant>,
    ) -> Frame {
        let strat = match admit(job.job_id, deadline, job.procs, job.k, job.dist, job.sweeps) {
            Ok(s) => s,
            Err(frame) => return frame,
        };

        let compiled = {
            let mut caches = self.compile_caches.lock().unwrap();
            let cache = caches
                .entry(tenant.to_string())
                .or_insert_with(|| CompileCache::new(COMPILE_CACHE_CAP));
            match cache.get_or_compile(&job.source) {
                Ok(c) => c,
                Err(d) => {
                    return err_frame(job.job_id, ErrCode::Compile, 0, Vec::new(), d.to_string())
                }
            }
        };

        let mut b = threadedc::Bindings::default();
        for (name, v) in &job.sizes {
            if *v == 0 || *v > MAX_ELEMENTS {
                return err_frame(
                    job.job_id,
                    ErrCode::InvalidSpec,
                    0,
                    Vec::new(),
                    format!("size binding `{name}` = {v} is out of range"),
                );
            }
            b.sizes.insert(name.clone(), *v as usize);
        }
        for d in &compiled.program.decls {
            if let Ok(n) = d.size.parse::<usize>() {
                if n > MAX_ELEMENTS as usize {
                    return err_frame(
                        job.job_id,
                        ErrCode::InvalidSpec,
                        0,
                        Vec::new(),
                        format!("array `{}` declares {n} elements (over the cap)", d.name),
                    );
                }
            }
        }
        for (name, arr) in &job.f64s {
            b.f64s.insert(name.clone(), arr.clone());
        }
        for (name, arr) in &job.ints {
            b.ints.insert(name.clone(), arr.clone());
        }

        // A malicious binding (an indirection value past an array read
        // inside a loop body) indexes out of range in the lowered
        // regular loops, which run inline on this worker thread with
        // checked indexing. Catch the panic: the job fails typed, the
        // worker survives.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match shed {
            ShedLevel::Seq => {
                compiled.execute_with(&mut b, &SeqEngine::new(ExecutionConfig::default()), &strat)
            }
            ShedLevel::Native => {
                let mut native = NativeConfig {
                    watchdog: self.watchdog,
                    ..NativeConfig::default()
                };
                native.deadline = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                let mut policy = self.recovery;
                if deadline.is_some() {
                    policy.fall_back_to_seq = false;
                }
                let engine =
                    PhasedEngine::new(ExecutionConfig::native(native).with_recovery(policy));
                compiled.execute_with(&mut b, &engine, &strat)
            }
        }));
        let result = match caught {
            Ok(r) => r,
            Err(_) => {
                return err_frame(
                    job.job_id,
                    ErrCode::Panicked,
                    0,
                    Vec::new(),
                    "source job panicked during execution (index out of range?)".into(),
                )
            }
        };

        match result {
            Ok(report) => {
                let degraded = if shed == ShedLevel::Seq || report.fell_back_to_seq {
                    DEGRADED_SEQ
                } else {
                    0
                };
                let values: Vec<Vec<f64>> = compiled
                    .program
                    .decls
                    .iter()
                    .filter(|d| d.ty == ElemType::Double && !d.name.starts_with("__tmp_"))
                    .filter_map(|d| b.f64s.remove(&d.name))
                    .collect();
                Frame::JobOk(JobOk {
                    job_id: job.job_id,
                    degraded,
                    attempts: 0,
                    fault_seeds: Vec::new(),
                    values,
                })
            }
            // Post-compile failures carry the spanned diagnostic text:
            // an engine failure under the code `run_job` would give it,
            // a binding error (unbound/ill-shaped array) as InvalidSpec.
            Err(e) => {
                let code = e
                    .cause
                    .as_ref()
                    .map_or(ErrCode::InvalidSpec, engine_err_code);
                err_frame(job.job_id, code, 0, Vec::new(), e.to_string())
            }
        }
    }

    /// The warm path reads the job's indirection twice — once to hash
    /// it, once to check a hit against the cached plan's — and copies
    /// it only on a miss, into the [`PhasedSpec`] a fresh prepare needs.
    fn run_native(
        &self,
        job: &SubmitJob,
        kernel: Arc<JobKernel>,
        strat: &StrategyConfig,
        fault: Option<FaultConfig>,
        deadline: Option<Instant>,
    ) -> Frame {
        let mut native = NativeConfig {
            watchdog: self.watchdog,
            ..NativeConfig::default()
        };
        native.deadline = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let mut policy = self.recovery;
        if job.flags & FLAG_NO_FALLBACK != 0 || deadline.is_some() {
            // A hard deadline must not be quietly absorbed by an
            // unbounded sequential fallback.
            policy.fall_back_to_seq = false;
        }
        let mut cfg = ExecutionConfig::native(native).with_recovery(policy);
        if let Some(f) = fault {
            cfg = cfg.with_faults(f);
        }
        let engine = PhasedEngine::new(cfg);
        let key = plan_key(job, &kernel, strat);

        // Check the plan cache out exclusively. A hit is exact, not
        // probabilistic: the cached plan must be for this very structure
        // (a 64-bit key collision fails the comparison) and accept this
        // kernel's shape, and only then are our kernel values swapped in.
        // Anything else is a miss, and the stale plan is dropped unlocked.
        // A miss on a structure's first sighting still runs; only its
        // check-in is refused.
        let checkout = self.cache.lock().unwrap().checkout(key);
        let hit = match checkout {
            Checkout::Hit {
                mut prepared,
                ws,
                failures,
            } => {
                let exact = prepared.num_elements() == job.num_elements as usize
                    && prepared.strategy() == strat
                    && prepared.indirection() == job.indirection.as_slice()
                    && prepared.set_kernel(Arc::clone(&kernel)).is_ok();
                if !exact {
                    self.cache.lock().unwrap().collision(key);
                }
                exact.then_some((prepared, ws, failures))
            }
            Checkout::Miss => None,
        };
        let (mut prepared, mut ws, prior_failures) = match hit {
            Some(hit) => hit,
            None => match engine.prepare(&job_spec(job, kernel), strat) {
                Ok(p) => (Box::new(p), Workspace::new(), 0),
                Err(e) => return engine_err_frame(job.job_id, &e, 0, Vec::new()),
            },
        };

        let result = engine.execute(&mut prepared, &mut ws);
        let ok = result.is_ok();
        let released = self
            .cache
            .lock()
            .unwrap()
            .checkin(key, prepared, ws, ok, prior_failures);
        // A refused, evicted or quarantined plan is freed here, with the
        // cache mutex already released.
        drop(released);

        match result {
            Ok(out) => {
                let degraded = if out.recovery.fell_back_to_seq {
                    DEGRADED_SEQ
                } else {
                    0
                };
                ok_frame(job.job_id, degraded, out)
            }
            Err(e) => {
                // The ladder's report is lost on the error path; the
                // seeds are reconstructible because retries reseed
                // deterministically (attempt n uses `reseeded(n)`).
                let attempts = match &e {
                    EngineError::Run(_) => policy.max_attempts,
                    _ => 1,
                };
                let seeds = (0..attempts)
                    .map(|n| attempt_seed(fault, n))
                    .collect::<Vec<_>>();
                engine_err_frame(job.job_id, &e, attempts, seeds)
            }
        }
    }
}

/// Load-shed path: sequential execution, no plan cache, no faults (the
/// fault plan models machine-level faults; there is no machine here).
/// The native rung's reduction, summed in original iteration order
/// (see [`ShedLevel`]).
fn run_seq(job: &SubmitJob, spec: &PhasedSpec<JobKernel>, strat: &StrategyConfig) -> Frame {
    match SeqEngine::new(ExecutionConfig::default()).run(spec, strat) {
        Ok(out) => ok_frame(job.job_id, DEGRADED_SEQ, out),
        Err(e) => engine_err_frame(job.job_id, &e, 0, Vec::new()),
    }
}

/// The job as an engine spec. This copies the indirection, so the
/// native path builds it only to prepare a plan the cache lacks.
fn job_spec(job: &SubmitJob, kernel: Arc<JobKernel>) -> PhasedSpec<JobKernel> {
    PhasedSpec {
        kernel,
        num_elements: job.num_elements as usize,
        indirection: Arc::new(job.indirection.clone()),
    }
}

/// The plan-cache key of a job: its structure hash, hashed straight from
/// the decoded frame's arrays.
fn plan_key(job: &SubmitJob, kernel: &JobKernel, strat: &StrategyConfig) -> u64 {
    irred::structure_hash(job.num_elements as usize, kernel, &job.indirection, strat)
}

/// The checks every job passes before any work is done on it: the
/// deadline has not already expired in the queue, and the requested
/// strategy is well-formed.
fn admit(
    job_id: u64,
    deadline: Option<Instant>,
    procs: u16,
    k: u16,
    dist: u8,
    sweeps: u16,
) -> Result<StrategyConfig, Frame> {
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(err_frame(
            job_id,
            ErrCode::Deadline,
            0,
            Vec::new(),
            "deadline expired before execution started".into(),
        ));
    }
    let dist = if dist == 0 {
        Distribution::Block
    } else {
        Distribution::Cyclic
    };
    StrategyConfig::try_new(
        usize::from(procs),
        usize::from(k),
        dist,
        usize::from(sweeps),
    )
    .map_err(|e| {
        err_frame(
            job_id,
            ErrCode::Strategy,
            0,
            Vec::new(),
            EngineError::Strategy(e).to_string(),
        )
    })
}

/// The seed the fault plan had at retry rung `attempt` — the same rule
/// the recovery ladder applies, so error frames are replayable.
fn attempt_seed(fault: Option<FaultConfig>, attempt: u32) -> Option<u64> {
    fault.map(|f| {
        if attempt > 0 {
            f.reseeded(u64::from(attempt)).seed
        } else {
            f.seed
        }
    })
}

fn job_fault(job: &SubmitJob) -> Option<FaultConfig> {
    job.fault.map(|f| match f.kind {
        1 => FaultConfig::lossless(f.seed),
        2 => FaultConfig::lossy(f.seed),
        _ => FaultConfig::chaos(f.seed),
    })
}

fn ok_frame(job_id: u64, degraded: u8, out: RunOutcome) -> Frame {
    Frame::JobOk(JobOk {
        job_id,
        degraded,
        attempts: out.recovery.attempts,
        fault_seeds: out.recovery.fault_seeds,
        values: out.values,
    })
}

fn err_frame(
    job_id: u64,
    code: ErrCode,
    attempts: u32,
    fault_seeds: Vec<Option<u64>>,
    message: String,
) -> Frame {
    Frame::JobErr(JobErr {
        job_id,
        code,
        attempts,
        fault_seeds,
        message,
    })
}

/// Map an [`EngineError`] to a typed wire code, forwarding the stable
/// `Display` text verbatim (the satellite error-audit guarantees every
/// leaf implements `Error` with stable `Display`).
fn engine_err_frame(
    job_id: u64,
    e: &EngineError,
    attempts: u32,
    fault_seeds: Vec<Option<u64>>,
) -> Frame {
    err_frame(
        job_id,
        engine_err_code(e),
        attempts,
        fault_seeds,
        e.to_string(),
    )
}

/// The wire code of each [`EngineError`] kind — one table for job and
/// source replies.
fn engine_err_code(e: &EngineError) -> ErrCode {
    match e {
        EngineError::Invalid(_) | EngineError::Plan(_) => ErrCode::InvalidSpec,
        EngineError::Shape { .. } => ErrCode::Shape,
        EngineError::Strategy(_) => ErrCode::Strategy,
        EngineError::Unsupported(_) => ErrCode::Unsupported,
        EngineError::Run(RunError::Stalled {
            reason: StallReason::DeadlineExceeded,
            ..
        }) => ErrCode::Deadline,
        EngineError::Run(RunError::Stalled { .. }) => ErrCode::Stalled,
        EngineError::Run(_) => ErrCode::Panicked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FaultSpec;
    use earth_model::sim::SimConfig;

    fn job(id: u64) -> SubmitJob {
        SubmitJob {
            job_id: id,
            deadline_ms: 0,
            flags: 0,
            num_elements: 16,
            iterations: 40,
            num_refs: 2,
            num_arrays: 1,
            procs: 2,
            k: 2,
            dist: 0,
            sweeps: 2,
            fault: None,
            weights: (0..40).map(|i| i as f64 * 0.25).collect(),
            indirection: vec![
                (0..40).map(|i| (i * 7 % 16) as u32).collect(),
                (0..40).map(|i| (i * 3 % 16) as u32).collect(),
            ],
        }
    }

    fn exec() -> Executor {
        Executor::new(RecoveryPolicy::default(), Duration::from_secs(2))
    }

    #[test]
    fn healthy_job_matches_direct_engine_run() {
        let e = exec();
        let j = job(1);
        let frame = e.run_job(&j, ShedLevel::Native, None);
        let Frame::JobOk(ok) = frame else {
            panic!("expected JobOk, got {frame:?}");
        };
        assert_eq!(ok.degraded, 0);

        let spec = PhasedSpec {
            kernel: Arc::new(JobKernel {
                num_refs: 2,
                num_arrays: 1,
                weights: Arc::new(j.weights.clone()),
            }),
            num_elements: 16,
            indirection: Arc::new(j.indirection.clone()),
        };
        let strat = StrategyConfig::try_new(2, 2, Distribution::Block, 2).unwrap();
        let direct = PhasedEngine::native(NativeConfig::default())
            .run(&spec, &strat)
            .unwrap();
        assert_eq!(
            ok.values, direct.values,
            "server result must be bit-identical"
        );
    }

    #[test]
    fn shed_seq_is_bit_identical_too() {
        let e = exec();
        let j = job(2);
        let native = e.run_job(&j, ShedLevel::Native, None);
        let seq = e.run_job(&j, ShedLevel::Seq, None);
        let (Frame::JobOk(a), Frame::JobOk(b)) = (native, seq) else {
            panic!("both paths must succeed");
        };
        assert_eq!(a.degraded, 0);
        assert_eq!(b.degraded, 2);
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn widest_wire_job_matches_metered_sim_seq_engine_and_formula() {
        // 4 refs × 3 arrays (12 slots, the widest wire shape) with
        // arbitrary-float weights, so a changed product or sum order
        // shows in the bits. The native rung (`contrib_batch`) must equal
        // the simulator's metered sweeps (`contrib`, the float-order
        // reference) bit for bit; the Seq rung must equal `SeqEngine` and
        // the kernel's formula summed in iteration order. The rings and
        // `SeqEngine` sum an element in different orders, so they agree
        // bit for bit only on exactly summable weights (the other tests'
        // quarter multiples); here they agree to rounding.
        let mut rng = harness::rng::Rng64::seed_from_u64(0x4A0B);
        let j = SubmitJob {
            num_refs: 4,
            num_arrays: 3,
            weights: (0..40).map(|_| rng.gen_f64() * 2e3 - 1e3).collect(),
            indirection: (1..=4)
                .map(|r| (0..40).map(|i| (i * (2 * r + 1) % 16) as u32).collect())
                .collect(),
            ..job(9)
        };
        let e = exec();
        let (Frame::JobOk(native), Frame::JobOk(shed)) = (
            e.run_job(&j, ShedLevel::Native, None),
            e.run_job(&j, ShedLevel::Seq, None),
        ) else {
            panic!("both rungs must succeed");
        };
        assert_eq!((native.degraded, shed.degraded), (0, DEGRADED_SEQ));
        let kernel = Arc::new(JobKernel {
            num_refs: 4,
            num_arrays: 3,
            weights: Arc::new(j.weights.clone()),
        });
        let spec = job_spec(&j, kernel);
        let strat = StrategyConfig::try_new(2, 2, Distribution::Block, 2).unwrap();
        let metered = PhasedEngine::sim(SimConfig::default())
            .run(&spec, &strat)
            .unwrap();
        let seq = SeqEngine::new(ExecutionConfig::default())
            .run(&spec, &strat)
            .unwrap();
        let bits = |v: &[Vec<f64>]| -> Vec<Vec<u64>> {
            v.iter()
                .map(|a| a.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        // `SeqEngine`'s order: iterations, then refs, then arrays.
        let mut oracle = vec![vec![0.0f64; 16]; 3];
        for (i, &w) in j.weights.iter().enumerate() {
            for (r, ind) in j.indirection.iter().enumerate() {
                for (a, x) in oracle.iter_mut().enumerate() {
                    x[ind[i] as usize] += (r + 1) as f64 * (a + 1) as f64 * w;
                }
            }
        }
        assert_eq!(bits(&seq.values), bits(&oracle));
        assert_eq!(bits(&shed.values), bits(&seq.values));
        assert_eq!(bits(&native.values), bits(&metered.values));
        for (a, b) in native
            .values
            .iter()
            .flatten()
            .zip(shed.values.iter().flatten())
        {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0));
        }
    }

    #[test]
    fn plan_cache_hits_on_same_structure() {
        let e = exec();
        let mut j = job(3);
        // First sighting: the job runs, its plan is refused.
        let _ = e.run_job(&j, ShedLevel::Native, None);
        {
            let c = e.cache.lock().unwrap();
            assert_eq!((c.refused, c.len()), (1, 0));
        }
        // Same structure, different values: the second sighting admits...
        j.weights.iter_mut().for_each(|w| *w += 1.0);
        let _ = e.run_job(&j, ShedLevel::Native, None);
        assert_eq!(e.cache.lock().unwrap().len(), 1);
        // ...and the third must hit.
        j.weights.iter_mut().for_each(|w| *w += 1.0);
        let before = e.cache.lock().unwrap().hits;
        let frame = e.run_job(&j, ShedLevel::Native, None);
        assert!(matches!(frame, Frame::JobOk(_)));
        assert_eq!(e.cache.lock().unwrap().hits, before + 1);
        // Different structure: miss.
        j.indirection[0][0] = (j.indirection[0][0] + 1) % 16;
        let misses = e.cache.lock().unwrap().misses;
        let _ = e.run_job(&j, ShedLevel::Native, None);
        assert_eq!(e.cache.lock().unwrap().misses, misses + 1);
    }

    #[test]
    fn one_off_structures_never_displace_a_hot_plan() {
        let e = exec();
        let strat = StrategyConfig::try_new(2, 2, Distribution::Block, 2).unwrap();
        let bits = |v: &[Vec<f64>]| -> Vec<Vec<u64>> {
            v.iter()
                .map(|a| a.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        // Runs `j` natively and checks the reply against `SeqEngine`: the
        // quarter-multiple weights sum exactly in any order.
        let run_checked = |j: &SubmitJob| {
            let Frame::JobOk(ok) = e.run_job(j, ShedLevel::Native, None) else {
                panic!("job {} must succeed", j.job_id);
            };
            let kernel = Arc::new(JobKernel {
                num_refs: 2,
                num_arrays: 1,
                weights: Arc::new(j.weights.clone()),
            });
            let seq = SeqEngine::new(ExecutionConfig::default())
                .run(&job_spec(j, kernel), &strat)
                .unwrap();
            assert_eq!(bits(&ok.values), bits(&seq.values), "job {}", j.job_id);
        };
        // The hot structure's second sighting admits its plan.
        let hot = job(12);
        run_checked(&hot);
        run_checked(&hot);
        assert_eq!(e.cache.lock().unwrap().len(), 1);
        for s in 0..200u32 {
            // The hot job's first ref starts [0, 7, 14]; a third entry of
            // 15 sets every one-off apart from it, the first two entries
            // from each other.
            let mut one_off = job(100 + u64::from(s));
            one_off.indirection[0][..3].copy_from_slice(&[s % 16, s / 16, 15]);
            run_checked(&one_off);
            assert!(e.cache.lock().unwrap().len() <= 1);
            let hits = e.cache.lock().unwrap().hits;
            run_checked(&hot);
            let c = e.cache.lock().unwrap();
            assert_eq!(c.hits, hits + 1, "the hot plan must hit after one-off {s}");
            assert!(c.len() <= 1);
        }
        // The hot structure's first sighting and every one-off.
        assert_eq!(e.cache.lock().unwrap().refused, 201);
    }

    #[test]
    fn colliding_plan_key_is_a_miss_not_another_structures_plan() {
        let e = exec();
        let a = job(10);
        let mut b = job(11);
        b.indirection[0].reverse();
        let strat = StrategyConfig::try_new(2, 2, Distribution::Block, 2).unwrap();
        let kernel = |j: &SubmitJob| {
            Arc::new(JobKernel {
                num_refs: 2,
                num_arrays: 1,
                weights: Arc::new(j.weights.clone()),
            })
        };
        // Job A's plan checked in under job B's key: a forced collision.
        let plan_a = PhasedEngine::native(NativeConfig::default())
            .prepare(&job_spec(&a, kernel(&a)), &strat)
            .unwrap();
        let key_b = plan_key(&b, &kernel(&b), &strat);
        let released =
            e.cache
                .lock()
                .unwrap()
                .checkin(key_b, Box::new(plan_a), Workspace::new(), true, 0);
        assert!(released.is_none());

        let Frame::JobOk(ok) = e.run_job(&b, ShedLevel::Native, None) else {
            panic!("job B must succeed");
        };
        {
            let c = e.cache.lock().unwrap();
            assert_eq!((c.hits, c.misses, c.collisions), (0, 1, 1));
        }
        let seq = SeqEngine::new(ExecutionConfig::default())
            .run(&job_spec(&b, kernel(&b)), &strat)
            .unwrap();
        let bits = |v: &[Vec<f64>]| -> Vec<Vec<u64>> {
            v.iter()
                .map(|a| a.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&ok.values), bits(&seq.values));
        // B's own plan replaced A's under the key: the next B hits.
        assert!(matches!(
            e.run_job(&b, ShedLevel::Native, None),
            Frame::JobOk(_)
        ));
        assert_eq!(e.cache.lock().unwrap().hits, 1);
    }

    #[test]
    fn poisoned_job_returns_typed_error_and_daemon_state_survives() {
        let e = exec();
        let mut j = job(4);
        j.fault = Some(FaultSpec { kind: 3, seed: 99 });
        j.flags = FLAG_NO_FALLBACK;
        let frame = e.run_job(&j, ShedLevel::Native, None);
        let Frame::JobErr(err) = frame else {
            panic!("chaos + no-fallback must fail, got {frame:?}");
        };
        assert!(matches!(
            err.code,
            ErrCode::Panicked | ErrCode::Stalled | ErrCode::Deadline
        ));
        assert_eq!(err.attempts, RecoveryPolicy::default().max_attempts);
        assert_eq!(err.fault_seeds.len(), err.attempts as usize);
        assert_eq!(err.fault_seeds[0], Some(99));
        assert!(!err.message.is_empty());
        // The executor still serves healthy jobs afterwards.
        let frame = e.run_job(&job(5), ShedLevel::Native, None);
        assert!(matches!(frame, Frame::JobOk(_)));
    }

    #[test]
    fn poisoned_job_with_fallback_degrades_gracefully() {
        let e = exec();
        let mut j = job(6);
        j.fault = Some(FaultSpec { kind: 3, seed: 7 });
        let frame = e.run_job(&j, ShedLevel::Native, None);
        let Frame::JobOk(ok) = frame else {
            panic!("fallback must produce a result, got {frame:?}");
        };
        // Either a lucky native attempt or the sequential fallback; both
        // are bit-correct. Seeds are recorded per attempt either way.
        assert_eq!(ok.fault_seeds.len(), ok.attempts as usize);
        let direct = e.run_job(&job(6), ShedLevel::Seq, None);
        let Frame::JobOk(d) = direct else {
            unreachable!()
        };
        assert_eq!(ok.values, d.values);
    }

    #[test]
    fn expired_deadline_is_refused_before_execution() {
        let e = exec();
        let frame = e.run_job(
            &job(7),
            ShedLevel::Native,
            Some(Instant::now() - Duration::from_millis(1)),
        );
        let Frame::JobErr(err) = frame else {
            panic!("expired deadline must fail");
        };
        assert_eq!(err.code, ErrCode::Deadline);
    }

    #[test]
    fn malformed_strategy_is_a_typed_error() {
        let e = exec();
        let mut j = job(8);
        j.procs = 0;
        let Frame::JobErr(err) = e.run_job(&j, ShedLevel::Native, None) else {
            panic!("zero procs must fail");
        };
        assert_eq!(err.code, ErrCode::Strategy);
        assert!(err.message.contains("invalid strategy"));
    }
}
