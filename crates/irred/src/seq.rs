//! Sequential reference executors.
//!
//! These serve two purposes: *validation* (every parallel executor's
//! output is checked against them) and the *speedup denominator* — the
//! paper times sequential versions on one i860XP, so we meter the
//! sequential loops through the same cache/cost model the simulator
//! uses, making `T_seq / T_par` meaningful. As in the simulator's
//! measuring sweep, what is computed and what it costs are separate: a
//! sequential sweep sums through the same value loop as every phased
//! sweep (`crate::vector`), and the first sweep's cost comes from an
//! address walk that does no float work.

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
use crate::vector::{self, BATCH};
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
///
/// # Panics
/// With [`InspectError::OutOfRange`]'s message if an indirection entry
/// names an element at or above `spec.num_elements`.
pub fn seq_reduction<K: EdgeKernel>(
    spec: &PhasedSpec<K>,
    sweeps: usize,
    cfg: SimConfig,
) -> SeqResult {
    if let Err(e) = check_elements(spec) {
        panic!("{e}");
    }
    seq_reduction_inner(spec, sweeps, cfg, None)
}

/// Every indirection entry names an element below `num_elements`. The
/// parallel engines range-check through the inspector; the sequential
/// loop scatters through the indirection directly, so [`seq_reduction`]
/// and [`SeqEngine`]'s `prepare` check here before any value loop runs.
fn check_elements<K>(spec: &PhasedSpec<K>) -> Result<(), InspectError> {
    for (r, arr) in spec.indirection.iter().enumerate() {
        for (iter, &elem) in arr.iter().enumerate() {
            if elem as usize >= spec.num_elements {
                return Err(InspectError::OutOfRange {
                    r,
                    iter,
                    elem,
                    num_elements: spec.num_elements,
                });
            }
        }
    }
    Ok(())
}

/// The shared loop behind [`seq_reduction`] and [`SeqEngine`]. Values
/// come from the one value loop, [`vector::run_phase`], as one phase
/// per block of iterations in original order: the whole element-major
/// `x` is the resident region, there is no buffer and no copy loop,
/// each reference scatters straight to its element, and the kernel's
/// stream is already in the block's order — each block reads its
/// contiguous sub-slice. Cycles come from
/// [`meter_sweep`], unless `known_sweep0` carries a previously measured
/// sweep cost.
///
/// The caller has checked every indirection entry with
/// [`check_elements`].
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
    let e = u32::try_from(spec.num_iterations()).expect("a loop's iterations are u32-indexed");

    // Element-major interleaved storage (one struct of `r_arrays` /
    // `n_read` doubles per element) — the layout the cache model
    // charges for, and the layout the loop runs on.
    let mut x = vec![0.0f64; n * r_arrays];
    let mut read = spec.kernel.init_read();
    debug_assert_eq!(read.len(), n * n_read);
    let stream = spec.kernel.edge();

    let mut outs = Vec::new();
    let mut giters = Vec::with_capacity(BATCH);
    let mut elems = Vec::with_capacity(BATCH * m);
    for _ in 0..sweeps {
        x.fill(0.0);
        for lo in (0..e).step_by(BATCH) {
            giters.clear();
            giters.extend(lo..lo + (e - lo).min(BATCH as u32));
            elems.clear();
            for &i in &giters {
                elems.extend(spec.indirection[..m].iter().map(|ind| ind[i as usize]));
            }
            let rows = lo as usize..lo as usize + giters.len();
            let edge = stream.map_or(&[][..], |s| &s[rows]);
            // SAFETY: `x` is a local buffer of exactly `split` doubles,
            // borrowed exclusively for the call. Every scatter ref is an
            // indirection entry, and `check_elements` found every entry
            // below `n` before this function ran (`seq_reduction` calls
            // it; `SeqEngine::prepare` does before building the
            // `PreparedSeq`, whose private spec never changes), so its
            // `r_arrays` components lie below `split`: all land in the
            // region, and the empty buffer and copy list are untouched.
            unsafe {
                vector::run_phase(
                    &*spec.kernel,
                    &read,
                    x.as_mut_ptr(),
                    x.len(),
                    &mut [],
                    &mut outs,
                    r_arrays,
                    &giters,
                    &elems,
                    edge,
                    &elems,
                    &[],
                );
            }
        }
        // Node-level update on final values.
        spec.kernel.post_sweep(&mut read, 0..n, &x);
    }

    let cycles = match (sweeps, known_sweep0) {
        (0, _) => 0,
        (_, Some(c)) => c * sweeps as u64,
        (_, None) => meter_sweep(spec, cfg) * sweeps as u64,
    };
    // De-interleave into the per-array shape the public result keeps.
    let columns = |flat: &[f64], width: usize| -> Vec<Vec<f64>> {
        (0..width)
            .map(|a| (0..n).map(|i| flat[i * width + a]).collect())
            .collect()
    };
    SeqResult {
        x: columns(&x, r_arrays),
        read: columns(&read, n_read),
        cycles,
        seconds: cfg.seconds(cycles),
    }
}

/// The metered sweep's address walk: every load, store and flop one
/// sequential sweep performs, in the loop's order, at the addresses an
/// element-major layout assigns — and no float arithmetic. Returns the
/// sweep's cycles on one node of the simulated machine.
fn meter_sweep<K: EdgeKernel>(spec: &PhasedSpec<K>, cfg: SimConfig) -> u64 {
    let n = spec.num_elements;
    let m = spec.kernel.num_refs();
    let r_arrays = spec.kernel.num_arrays();
    let n_read = spec.kernel.num_read_arrays();
    let e = spec.num_iterations();
    let refs = &spec.indirection[..m];

    let mut am = AddressMap::new(64);
    let x_reg: Region = am.alloc_f64(n * r_arrays);
    let read_reg: Region = am.alloc_f64(n * n_read.max(1));
    let ind_regs: Vec<Region> = (0..m).map(|_| am.alloc_u32(e.max(1))).collect();
    let edge_reg = am.alloc_f64(e.max(1));

    let mut meter = MemMeter::new(cfg);
    let edge_reads = spec.kernel.edge_reads_per_iter();
    let node_reads = spec.kernel.node_reads_per_elem();
    let flops = spec.kernel.flops_per_iter();

    // Zero the reduction arrays.
    for i in (0..n * r_arrays).step_by(4) {
        meter.store(x_reg.addr(i)); // one touch per few words ≈ stream
    }
    // The reduction loop, in original iteration order.
    for i in 0..e {
        for reg in ind_regs.iter() {
            meter.load(reg.addr(i));
        }
        for _ in 0..edge_reads {
            meter.load(edge_reg.addr(i));
        }
        if n_read > 0 {
            for ind in refs {
                let row = ind[i] as usize * n_read;
                for w in (0..n_read).cycle().take(node_reads) {
                    meter.load(read_reg.addr(row + w));
                }
            }
        }
        meter.flops(flops);
        for ind in refs {
            let base = ind[i] as usize * r_arrays;
            for a in 0..r_arrays {
                meter.load(x_reg.addr(base + a));
                meter.store(x_reg.addr(base + a));
                meter.flops(1);
            }
        }
    }
    // Node-level update on final values.
    meter.flops(n as u64 * spec.kernel.post_flops_per_elem());
    meter.cycles
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
        check_elements(spec).map_err(EngineError::Invalid)?;
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
    use harness::prop::{check, Config, Gen};
    use harness::prop_assert_eq;
    use std::ops::Range;

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
    #[should_panic(expected = "indirection[1][0] = 7 is outside the reduction array (n = 2)")]
    fn seq_reduction_rejects_out_of_range() {
        let s = PhasedSpec {
            kernel: Arc::new(WeightedPairKernel {
                weights: Arc::new(vec![1.0]),
            }),
            num_elements: 2,
            indirection: Arc::new(vec![vec![0], vec![7]]),
        };
        seq_reduction(&s, 1, SimConfig::default());
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

    /// Slot `s` of iteration `i` is a table entry plus, with a read
    /// array, the read value of the slot's reference's element, plus,
    /// with a stream, the iteration's streamed value, *added* into the
    /// slot — so a slot that does not arrive zeroed shows, and so does a
    /// value from another iteration. With a read array, `post_sweep`
    /// adds each element's first component into its read value, so
    /// later sweeps read earlier sweeps' sums.
    #[derive(Debug)]
    struct TableKernel {
        m: usize,
        r: usize,
        n_read: usize,
        table: Vec<f64>,
        read0: Vec<f64>,
        stream: Option<Vec<f64>>,
    }

    impl EdgeKernel for TableKernel {
        fn num_refs(&self) -> usize {
            self.m
        }

        fn num_arrays(&self) -> usize {
            self.r
        }

        fn num_read_arrays(&self) -> usize {
            self.n_read
        }

        fn init_read(&self) -> Vec<f64> {
            self.read0.clone()
        }

        fn updates_read_state(&self) -> bool {
            self.n_read > 0
        }

        fn edge(&self) -> Option<&[f64]> {
            self.stream.as_deref()
        }

        fn contrib_batch(
            &self,
            read: &[f64],
            giters: &[u32],
            elems: &[u32],
            edge: &[f64],
            out: &mut [f64],
        ) {
            let w = self.m * self.r;
            for (j, &gi) in giters.iter().enumerate() {
                for s in 0..w {
                    let mut v = self.table[(gi as usize * w + s) % self.table.len()];
                    if self.n_read > 0 {
                        v += read[elems[j * self.m + s / self.r] as usize];
                    }
                    if self.stream.is_some() {
                        v += edge[j];
                    }
                    out[j * w + s] += v;
                }
            }
        }

        fn post_sweep(&self, read: &mut [f64], range: Range<usize>, x: &[f64]) -> bool {
            if self.n_read == 0 {
                return false;
            }
            for (i, v) in range.enumerate() {
                read[v] += x[i * self.r];
            }
            true
        }
    }

    /// Mostly small exact values, a quarter arbitrary bit patterns
    /// (NaNs, infinities, subnormals, signed zeros among them).
    fn any_f64(g: &mut Gen) -> f64 {
        if g.prob(0.25) {
            f64::from_bits(g.u64_any())
        } else {
            g.i64_in(-1024..=1024) as f64 / 8.0
        }
    }

    fn case(g: &mut Gen) -> (PhasedSpec<TableKernel>, usize) {
        // r = 5 takes the value loop's all-run-time arm; m = 3 the
        // run-time-m arm.
        let m = *g.pick(&[1usize, 2, 3]);
        let r = *g.pick(&[1usize, 2, 3, 4, 5]);
        let n_read = g.usize_incl(0, 1);
        let e = *g.pick(&[0, 1, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 5]);
        let n = g.usize_incl(1, 24);
        let sweeps = *g.pick(&[1usize, 3]);
        let table = g.vec(1, 64, any_f64);
        let read0 = g.vec(n * n_read, n * n_read, any_f64);
        let stream = g.prob(0.5).then(|| g.vec(e, e, any_f64));
        let indirection = (0..m)
            .map(|_| g.vec(e, e, |g| g.u32_in(0..n as u32)))
            .collect();
        let spec = PhasedSpec {
            kernel: Arc::new(TableKernel {
                m,
                r,
                n_read,
                table,
                read0,
                stream,
            }),
            num_elements: n,
            indirection: Arc::new(indirection),
        };
        (spec, sweeps)
    }

    /// The plain per-iteration loop: per sweep, zero `x`, then for each
    /// iteration in order one-wide `contrib` into a zeroed group,
    /// scattered reference by reference, component by component; then
    /// `post_sweep`. Returns `x` and `read`, element-major.
    fn reference(spec: &PhasedSpec<TableKernel>, sweeps: usize) -> (Vec<f64>, Vec<f64>) {
        let k = &spec.kernel;
        let (m, r) = (k.m, k.r);
        let mut x = vec![0.0; spec.num_elements * r];
        let mut read = k.init_read();
        let mut out = vec![0.0; m * r];
        for _ in 0..sweeps {
            x.fill(0.0);
            for i in 0..spec.num_iterations() {
                let elems: Vec<u32> = spec.indirection.iter().map(|ind| ind[i]).collect();
                out.fill(0.0);
                k.contrib(&read, i, &elems, &mut out);
                for (rr, &el) in elems.iter().enumerate() {
                    for a in 0..r {
                        x[el as usize * r + a] += out[rr * r + a];
                    }
                }
            }
            k.post_sweep(&mut read, 0..spec.num_elements, &x);
        }
        (x, read)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `seq_reduction` ≡ the per-iteration reference, bit for bit: m 1–3
    /// and r 1–5 (every arm of the value loop), 0 or 1 read arrays, with
    /// and without a stream,
    /// 0, 1, `BATCH ± 1`, `BATCH` and `3·BATCH + 5` iterations, and 1 or
    /// 3 sweeps through a read-updating `post_sweep`.
    #[test]
    fn seq_equals_reference() {
        check(
            "seq_equals_reference",
            Config::cases(256),
            case,
            |(spec, sweeps)| {
                let (x, read) = reference(spec, *sweeps);
                let got = seq_reduction(spec, *sweeps, SimConfig::default());
                let n = spec.num_elements;
                let interleave = |cols: &[Vec<f64>]| -> Vec<f64> {
                    (0..n)
                        .flat_map(|el| cols.iter().map(move |c| c[el]))
                        .collect()
                };
                prop_assert_eq!(bits(&interleave(&got.x)), bits(&x), "x");
                prop_assert_eq!(bits(&interleave(&got.read)), bits(&read), "read");
                Ok(())
            },
        );
    }
}
