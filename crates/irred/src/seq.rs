//! Sequential reference executors.
//!
//! These serve two purposes: *validation* (every parallel executor's
//! output is checked against them) and the *speedup denominator* — the
//! paper times sequential versions on one i860XP, so we meter the
//! sequential loops through the same cache/cost model the simulator
//! uses, making `T_seq / T_par` meaningful.

use std::sync::Arc;

use earth_model::sim::SimConfig;
use earth_model::Meter;
use memsim::{AddressMap, MemModel, Region};
use workloads::SparseMatrix;

use crate::config::ExecutionConfig;
use crate::engine::{validate_phased_spec, EngineError, Provenance, ReductionEngine, RunOutcome};
use crate::kernel::EdgeKernel;
use crate::phased::PhasedSpec;
use crate::prepared::Workspace;
use crate::strategy::StrategyConfig;
use lightinspector::InspectError;

/// A [`Meter`] that charges a real [`MemModel`] — the sequential
/// equivalent of the simulator's metering sweep.
pub struct MemMeter {
    pub mem: MemModel,
    pub cycles: u64,
    flop_cycles: u64,
}

impl MemMeter {
    pub fn new(cfg: SimConfig) -> Self {
        MemMeter {
            mem: MemModel::new(cfg.mem),
            cycles: 0,
            flop_cycles: cfg.flop_cycles,
        }
    }
}

impl Meter for MemMeter {
    #[inline]
    fn load(&mut self, addr: u64) {
        self.cycles += self.mem.read(addr);
    }
    #[inline]
    fn store(&mut self, addr: u64) {
        self.cycles += self.mem.write(addr);
    }
    #[inline]
    fn flops(&mut self, n: u64) {
        self.cycles += n * self.flop_cycles;
    }
}

/// Result of a sequential run.
#[derive(Debug)]
pub struct SeqResult {
    pub x: Vec<Vec<f64>>,
    pub read: Vec<Vec<f64>>,
    /// Modeled cycles on one node of the simulated machine.
    pub cycles: u64,
    pub seconds: f64,
}

/// Execute the irregular reduction sequentially for `sweeps` time steps,
/// metering the first sweep and scaling (the access pattern repeats).
pub fn seq_reduction<K: EdgeKernel>(
    spec: &PhasedSpec<K>,
    sweeps: usize,
    cfg: SimConfig,
) -> SeqResult {
    seq_reduction_inner(spec, sweeps, cfg, None)
}

/// The shared loop behind [`seq_reduction`] and [`SeqEngine`]: when
/// `known_sweep0` carries a previously measured sweep cost, metering is
/// skipped entirely — the values are bit-identical either way because
/// the meter only accumulates cycles.
fn seq_reduction_inner<K: EdgeKernel>(
    spec: &PhasedSpec<K>,
    sweeps: usize,
    cfg: SimConfig,
    known_sweep0: Option<u64>,
) -> SeqResult {
    let n = spec.num_elements;
    let m = spec.kernel.num_refs();
    let r_arrays = spec.kernel.num_arrays();
    let n_read = spec.kernel.num_read_arrays();
    let e = spec.num_iterations();

    // Element-major interleaved storage (one struct of `r_arrays` /
    // `n_read` doubles per element) — the layout the cache model below
    // has always charged for, now also the layout the loop runs on.
    let mut x = vec![0.0f64; n * r_arrays];
    let mut read = spec.kernel.init_read();
    debug_assert_eq!(read.len(), n * n_read);

    let mut am = AddressMap::new(64);
    let x_reg: Region = am.alloc_f64(n * r_arrays);
    let read_reg: Region = am.alloc_f64(n * n_read.max(1));
    let ind_regs: Vec<Region> = (0..m).map(|_| am.alloc_u32(e.max(1))).collect();
    let edge_reg = am.alloc_f64(e.max(1));

    let mut meter = MemMeter::new(cfg);
    let mut out = vec![0.0f64; m * r_arrays];
    let mut elems = vec![0u32; m];
    let edge_reads = spec.kernel.edge_reads_per_iter();
    let node_reads = spec.kernel.node_reads_per_elem();
    let flops = spec.kernel.flops_per_iter();
    let mut sweep0_cost = 0u64;

    for sweep in 0..sweeps {
        let metered = sweep == 0 && known_sweep0.is_none();
        let before = meter.cycles;
        // Zero the reduction arrays.
        x.fill(0.0);
        if metered {
            for i in (0..n * r_arrays).step_by(4) {
                meter.store(x_reg.addr(i)); // one touch per few words ≈ stream
            }
        }
        // The reduction loop, in original iteration order.
        for i in 0..e {
            for (r, er) in elems.iter_mut().enumerate() {
                *er = spec.indirection[r][i];
            }
            if metered {
                for reg in ind_regs.iter() {
                    meter.load(reg.addr(i));
                }
                for _ in 0..edge_reads {
                    meter.load(edge_reg.addr(i));
                }
                if n_read > 0 {
                    for &el in &elems {
                        let row = el as usize * n_read;
                        for w in (0..n_read).cycle().take(node_reads) {
                            meter.load(read_reg.addr(row + w));
                        }
                    }
                }
                meter.flops(flops);
            }
            out.fill(0.0);
            spec.kernel.contrib(&read, i, &elems, &mut out);
            for (r, &el) in elems.iter().enumerate() {
                let base = el as usize * r_arrays;
                for a in 0..r_arrays {
                    x[base + a] += out[r * r_arrays + a];
                    if metered {
                        meter.load(x_reg.addr(base + a));
                        meter.store(x_reg.addr(base + a));
                        meter.flops(1);
                    }
                }
            }
        }
        // Node-level update on final values.
        spec.kernel.post_sweep(&mut read, 0..n, &x);
        if metered {
            meter.flops(n as u64 * spec.kernel.post_flops_per_elem());
            sweep0_cost = meter.cycles - before;
        }
    }

    let sweep0_cost = known_sweep0.unwrap_or(sweep0_cost);
    let cycles = sweep0_cost * sweeps as u64;
    // De-interleave into the per-array shape the public result keeps.
    let mut x_out = vec![vec![0.0f64; n]; r_arrays];
    for (i, chunk) in x.chunks_exact(r_arrays.max(1)).enumerate().take(n) {
        for (a, &v) in chunk.iter().enumerate() {
            x_out[a][i] = v;
        }
    }
    let mut read_out = vec![vec![0.0f64; n]; n_read];
    for (i, chunk) in read.chunks_exact(n_read.max(1)).enumerate().take(n) {
        for (a, &v) in chunk.iter().enumerate() {
            read_out[a][i] = v;
        }
    }
    SeqResult {
        x: x_out,
        read: read_out,
        cycles,
        seconds: cfg.seconds(cycles),
    }
}

/// A prepared sequential run: validated spec plus the measured
/// first-sweep cost, so repeated executes skip metering (the access
/// pattern is a pure function of the plan).
pub struct PreparedSeq<K> {
    spec: PhasedSpec<K>,
    sweeps: usize,
    cfg: SimConfig,
    sweep0_cost: Option<u64>,
    executions: u64,
}

impl<K> std::fmt::Debug for PreparedSeq<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedSeq")
            .field("sweeps", &self.sweeps)
            .field("sweep0_cost", &self.sweep0_cost)
            .field("executions", &self.executions)
            .finish_non_exhaustive()
    }
}

impl<K: EdgeKernel> PreparedSeq<K> {
    pub fn executions(&self) -> u64 {
        self.executions
    }
}

/// The sequential reference executor as a [`ReductionEngine`] — the
/// validation oracle and the speedup denominator, behind the same
/// prepare/execute interface as the parallel engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqEngine {
    cfg: ExecutionConfig,
}

impl SeqEngine {
    /// The sequential engine always runs the simulator's cycle model;
    /// only `cfg.sim` matters, but it accepts a full [`ExecutionConfig`]
    /// (or a bare [`SimConfig`] via `Into`) like every other engine.
    pub fn new(cfg: impl Into<ExecutionConfig>) -> Self {
        SeqEngine { cfg: cfg.into() }
    }

    pub fn config(&self) -> &ExecutionConfig {
        &self.cfg
    }
}

impl<K: EdgeKernel> ReductionEngine<PhasedSpec<K>> for SeqEngine {
    type Prepared = PreparedSeq<K>;

    fn name(&self) -> &'static str {
        "seq"
    }

    fn prepare(
        &self,
        spec: &PhasedSpec<K>,
        strat: &StrategyConfig,
    ) -> Result<Self::Prepared, EngineError> {
        validate_phased_spec(spec)?;
        // The parallel engines range-check elements through the
        // inspector; the sequential loop indexes directly, so check here.
        for (r, arr) in spec.indirection.iter().enumerate() {
            for (i, &e) in arr.iter().enumerate() {
                if e as usize >= spec.num_elements {
                    return Err(EngineError::Invalid(InspectError::OutOfRange {
                        r,
                        iter: i,
                        elem: e,
                        num_elements: spec.num_elements,
                    }));
                }
            }
        }
        Ok(PreparedSeq {
            spec: spec.clone(),
            sweeps: strat.sweeps,
            cfg: self.cfg.sim,
            sweep0_cost: None,
            executions: 0,
        })
    }

    fn execute(
        &self,
        prepared: &mut Self::Prepared,
        _ws: &mut Workspace,
    ) -> Result<RunOutcome, EngineError> {
        let reused = prepared.executions > 0;
        prepared.executions += 1;
        let res = seq_reduction_inner(
            &prepared.spec,
            prepared.sweeps,
            prepared.cfg,
            prepared.sweep0_cost,
        );
        if prepared.sweep0_cost.is_none() && prepared.sweeps > 0 {
            prepared.sweep0_cost = Some(res.cycles / prepared.sweeps as u64);
        }
        let mut out = RunOutcome {
            values: res.x,
            read: res.read,
            time_cycles: res.cycles,
            seconds: res.seconds,
            provenance: Provenance {
                engine: "seq",
                backend: "sim",
                reused_plan: reused,
                executions: prepared.executions,
            },
            ..RunOutcome::default()
        };
        out.fill_metrics();
        Ok(out)
    }
}

/// Sequential sparse matrix–vector product, metered: returns `y` after
/// `sweeps` products plus the modeled cycles.
pub fn seq_gather_cycles(
    matrix: &Arc<SparseMatrix>,
    x: &[f64],
    sweeps: usize,
    cfg: SimConfig,
) -> (Vec<f64>, u64) {
    let mut am = AddressMap::new(64);
    let y_reg = am.alloc_f64(matrix.nrows);
    let x_reg = am.alloc_f64(matrix.ncols);
    let col_reg = am.alloc_u32(matrix.nnz());
    let val_reg = am.alloc_f64(matrix.nnz());
    let rp_reg = am.alloc(matrix.nrows + 1, 8);

    let mut meter = MemMeter::new(cfg);
    let mut y = vec![0.0f64; matrix.nrows];
    let mut sweep0 = 0u64;
    for sweep in 0..sweeps {
        let metered = sweep == 0;
        let before = meter.cycles;
        for (r, yr) in y.iter_mut().enumerate().take(matrix.nrows) {
            if metered {
                meter.load(rp_reg.addr(r));
            }
            let mut acc = 0.0;
            for nz in matrix.row_ptr[r] as usize..matrix.row_ptr[r + 1] as usize {
                let c = matrix.col_idx[nz] as usize;
                acc += matrix.values[nz] * x[c];
                if metered {
                    meter.load(col_reg.addr(nz));
                    meter.load(val_reg.addr(nz));
                    meter.load(x_reg.addr(c));
                    meter.flops(2);
                }
            }
            *yr = acc;
            if metered {
                meter.store(y_reg.addr(r));
            }
        }
        if metered {
            sweep0 = meter.cycles - before;
        }
    }
    (y, sweep0 * sweeps as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::WeightedPairKernel;

    fn spec() -> PhasedSpec<WeightedPairKernel> {
        PhasedSpec {
            kernel: Arc::new(WeightedPairKernel {
                weights: Arc::new(vec![1.0, 2.0, 3.0]),
            }),
            num_elements: 4,
            indirection: Arc::new(vec![vec![0, 1, 2], vec![3, 3, 0]]),
        }
    }

    #[test]
    fn seq_values_by_hand() {
        let r = seq_reduction(&spec(), 1, SimConfig::default());
        // X[e1] += w, X[e2] += 2w per iteration:
        // i0: X[0]+=1, X[3]+=2; i1: X[1]+=2, X[3]+=4; i2: X[2]+=3, X[0]+=6.
        assert_eq!(r.x[0], vec![7.0, 2.0, 3.0, 6.0]);
    }

    #[test]
    fn sweeps_scale_cycles_not_values() {
        let r1 = seq_reduction(&spec(), 1, SimConfig::default());
        let r3 = seq_reduction(&spec(), 3, SimConfig::default());
        // Values are re-zeroed each sweep: identical.
        assert_eq!(r1.x, r3.x);
        assert_eq!(r3.cycles, 3 * r1.cycles);
    }

    #[test]
    fn seq_engine_matches_function_and_reuses_cost() {
        let s = spec();
        let engine = SeqEngine::new(SimConfig::default());
        let strat = StrategyConfig::new(1, 1, workloads::Distribution::Block, 3);
        let mut prepared = engine.prepare(&s, &strat).unwrap();
        let mut ws = Workspace::new();
        let a = engine.execute(&mut prepared, &mut ws).unwrap();
        let b = engine.execute(&mut prepared, &mut ws).unwrap();
        let direct = seq_reduction(&s, 3, SimConfig::default());
        assert_eq!(a.values, direct.x);
        assert_eq!(b.values, direct.x, "cached-cost execute is bit-identical");
        assert_eq!(b.time_cycles, direct.cycles);
        assert!(b.provenance.reused_plan);
    }

    #[test]
    fn seq_engine_rejects_out_of_range() {
        let s = PhasedSpec {
            kernel: Arc::new(WeightedPairKernel {
                weights: Arc::new(vec![1.0]),
            }),
            num_elements: 2,
            indirection: Arc::new(vec![vec![0], vec![7]]),
        };
        let engine = SeqEngine::new(SimConfig::default());
        let strat = StrategyConfig::new(1, 1, workloads::Distribution::Block, 1);
        let err = ReductionEngine::<PhasedSpec<WeightedPairKernel>>::prepare(&engine, &s, &strat)
            .unwrap_err();
        assert!(matches!(err, EngineError::Invalid(_)));
    }

    #[test]
    fn gather_matches_spmv() {
        let m = Arc::new(SparseMatrix::random(40, 40, 300, 5));
        let x: Vec<f64> = (0..40).map(|i| i as f64 * 0.25).collect();
        let (y, cycles) = seq_gather_cycles(&m, &x, 2, SimConfig::default());
        let mut want = vec![0.0; 40];
        m.spmv(&x, &mut want);
        assert_eq!(y, want);
        assert!(cycles > 0);
    }

    #[test]
    fn scattered_kernel_costs_more_than_dense() {
        // Same size, scattered vs clustered indirection: cycles differ.
        let mk = |stride: usize| {
            let n = 20_000usize;
            let e = 30_000usize;
            let ia1: Vec<u32> = (0..e).map(|i| ((i * stride) % n) as u32).collect();
            let ia2: Vec<u32> = (0..e).map(|i| ((i * stride + 1) % n) as u32).collect();
            PhasedSpec {
                kernel: Arc::new(WeightedPairKernel {
                    weights: Arc::new(vec![1.0; e]),
                }),
                num_elements: n,
                indirection: Arc::new(vec![ia1, ia2]),
            }
        };
        let dense = seq_reduction(&mk(1), 1, SimConfig::default()).cycles;
        let scattered = seq_reduction(&mk(7919), 1, SimConfig::default()).cycles;
        assert!(scattered > dense, "{scattered} vs {dense}");
    }
}
