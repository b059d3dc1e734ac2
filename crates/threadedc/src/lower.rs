//! Lowering: from a fissioned loop to the machine's input — slot-resolved
//! loop bodies (one evaluator, a block of iterations per tree node, for
//! regular loops and phased kernels) and the [`PhasedSpec`] each
//! irregular loop hands the engine.
//!
//! This is the "generate code for the execution strategy presented in
//! Section 2" step of §4, taken all the way down. `lower_body` runs
//! once per loop inside [`crate::compile`]: every array and local name
//! becomes a slot index, so nothing at job time hashes a string per
//! access. A regular loop (user-written or a fission prelude) then runs
//! through `LoweredBody::run`; an irregular loop is bound to a job's
//! arrays by `lower_kernel` into a [`PhasedSpec`], which the engine
//! prepares itself — the LightInspector is a runtime pass, as in the
//! paper. [`emit_flat_plans`] (one [`lightinspector::inspect`] pass per
//! processor, under the same iteration distribution the engine uses)
//! runs on no execute path: the CLI's plan preview summarises its
//! output, and `benchmark/src/layers.rs` times it with
//! [`irred::PhasedEngine::prepare_from_flat`].

use std::collections::HashMap;
use std::sync::Arc;

use irred::{EdgeKernel, PhasedSpec, StrategyConfig};
use lightinspector::{inspect, FlatInspection, InspectError, InspectorInput, PhaseGeometry};

use crate::ast::*;
use crate::interp::Bindings;
use crate::{Diagnostic, Span};

/// Loop-local scalars one loop body may declare: the evaluator keeps
/// them in a fixed stack frame. [`lower_body`] rejects a longer body, so
/// the limit is a compile error, never a job-time panic.
pub(crate) const MAX_LOCALS: usize = 16;

/// Iterations one block evaluates per tree node. A `contrib_batch`
/// call from the chunked kernel (one batch of its iterations) runs as
/// consecutive blocks of this length.
pub(crate) const B: usize = 16;

/// A compiled (resolved-reference) expression, evaluable without name
/// lookups.
#[derive(Debug, Clone)]
enum CExpr {
    Number(f64),
    LoopVar,
    Local(usize),
    /// Direct read: f64 array slot, indexed by the iteration.
    Direct(usize),
    /// Indirect read: f64 array slot through int array slot.
    Indirect(usize, usize),
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    Neg(Box<CExpr>),
}

impl CExpr {
    /// Evaluate for the block of iterations `iters` (at most `N`: [`B`],
    /// or 1 for a row at a time) into `dst[..iters.len()]`, against slot
    /// tables — shared `Arc` snapshots under a phased kernel, the arrays
    /// themselves under a regular loop. Each tree node is dispatched once
    /// per block; `locals[s]` is local `s`'s column. Indexing is checked:
    /// an out-of-range binding panics, which every caller that takes
    /// outside input catches.
    fn eval_block<const N: usize, F: AsRef<[f64]>, I: AsRef<[u32]>>(
        &self,
        iters: &[u32],
        locals: &[[f64; N]],
        f64s: &[F],
        ints: &[I],
        dst: &mut [f64; N],
    ) {
        let n = iters.len();
        match self {
            CExpr::Number(v) => dst[..n].fill(*v),
            CExpr::LoopVar => {
                for (d, &i) in dst.iter_mut().zip(iters) {
                    *d = f64::from(i);
                }
            }
            CExpr::Local(s) => dst[..n].copy_from_slice(&locals[*s][..n]),
            CExpr::Direct(a) => {
                let x = f64s[*a].as_ref();
                for (d, &i) in dst.iter_mut().zip(iters) {
                    *d = x[i as usize];
                }
            }
            CExpr::Indirect(a, v) => {
                let (x, via) = (f64s[*a].as_ref(), ints[*v].as_ref());
                for (d, &i) in dst.iter_mut().zip(iters) {
                    *d = x[via[i as usize] as usize];
                }
            }
            CExpr::Bin(op, x, y) => {
                let mut rhs = [0.0f64; N];
                x.eval_block(iters, locals, f64s, ints, dst);
                y.eval_block(iters, locals, f64s, ints, &mut rhs);
                let pairs = dst[..n].iter_mut().zip(&rhs);
                match op {
                    BinOp::Add => pairs.for_each(|(d, r)| *d += r),
                    BinOp::Sub => pairs.for_each(|(d, r)| *d -= r),
                    BinOp::Mul => pairs.for_each(|(d, r)| *d *= r),
                    BinOp::Div => pairs.for_each(|(d, r)| *d /= r),
                }
            }
            CExpr::Neg(x) => {
                x.eval_block(iters, locals, f64s, ints, dst);
                dst[..n].iter_mut().for_each(|d| *d = -*d);
            }
        }
    }

    /// Whether this expression reads f64 slot `array` through an
    /// indirection — the one read a block can order differently from
    /// the row loop.
    fn reads_indirect(&self, array: usize) -> bool {
        match self {
            CExpr::Indirect(a, _) => *a == array,
            CExpr::Bin(_, x, y) => x.reads_indirect(array) || y.reads_indirect(array),
            CExpr::Neg(x) => x.reads_indirect(array),
            CExpr::Number(_) | CExpr::LoopVar | CExpr::Local(_) | CExpr::Direct(_) => false,
        }
    }
}

/// Where a regular loop's `Y[i] = v` / `Y[i] += v` lands.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirectStore {
    /// f64 slot of `Y`.
    array: usize,
    accumulate: bool,
}

/// Where a phased loop's `X[IA[i]] += v` / `-= v` lands in the kernel's
/// contribution frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Contribution {
    /// `ref index * num_arrays + array index`.
    out: usize,
    negate: bool,
}

/// One statement of a lowered body, in source order.
#[derive(Debug)]
enum LStmt<W> {
    /// `double name = init;` — defines the local in the given slot.
    Local(usize, CExpr),
    /// A store of the value to `W`.
    Write(W, CExpr),
}

/// A loop body with every array and local name resolved to a slot.
/// `W` is the kind of store the loop may make: [`DirectStore`] for a
/// regular loop, [`Contribution`] for a phased one.
#[derive(Debug)]
pub(crate) struct LoweredBody<W> {
    /// f64 / int array names, in slot order.
    f64_names: Vec<String>,
    int_names: Vec<String>,
    stmts: Vec<LStmt<W>>,
    /// Iterations per block: [`B`], or 1 when a statement reads through
    /// an indirection an array the loop stores (see [`lower_regular`]).
    block: usize,
    flops: u64,
    edge_reads: usize,
    node_reads: usize,
}

/// Name → slot resolution state while one body is lowered.
#[derive(Default)]
struct Slots {
    f64s: Vec<String>,
    ints: Vec<String>,
    locals: HashMap<String, usize>,
    edge_reads: usize,
    node_reads: usize,
}

fn slot_of(names: &mut Vec<String>, name: &str) -> usize {
    names.iter().position(|n| n == name).unwrap_or_else(|| {
        names.push(name.to_string());
        names.len() - 1
    })
}

impl Slots {
    fn lower(&mut self, e: &Expr) -> CExpr {
        match e {
            Expr::Number(v) => CExpr::Number(*v),
            Expr::Var(v) => match self.locals.get(v) {
                Some(s) => CExpr::Local(*s),
                None => CExpr::LoopVar,
            },
            Expr::Direct { array, .. } => {
                self.edge_reads += 1;
                CExpr::Direct(slot_of(&mut self.f64s, array))
            }
            Expr::Indirect { array, via, .. } => {
                self.node_reads += 1;
                CExpr::Indirect(slot_of(&mut self.f64s, array), slot_of(&mut self.ints, via))
            }
            Expr::Bin(op, a, c) => {
                CExpr::Bin(*op, Box::new(self.lower(a)), Box::new(self.lower(c)))
            }
            Expr::Neg(a) => CExpr::Neg(Box::new(self.lower(a))),
        }
    }
}

/// Lower one loop body. `write` resolves each store statement to the
/// loop kind's target (or rejects a statement the loop kind cannot
/// hold); locals are shared. More than [`MAX_LOCALS`] locals is a
/// spanned diagnostic.
fn lower_body<W>(
    l: &Forall,
    mut write: impl FnMut(&Stmt, &mut Slots) -> Result<W, Diagnostic>,
) -> Result<LoweredBody<W>, Diagnostic> {
    let mut slots = Slots::default();
    let mut stmts = Vec::with_capacity(l.body.len());
    let mut flops = 0u64;
    for s in &l.body {
        match s {
            Stmt::Local { name, init, span } => {
                let slot = slots.locals.len();
                if slot == MAX_LOCALS {
                    return Err(Diagnostic::at(
                        *span,
                        format!(
                            "local `{name}` is the loop's {}th scalar; at most {MAX_LOCALS} \
                             locals per loop are supported",
                            MAX_LOCALS + 1
                        ),
                    ));
                }
                let init_c = slots.lower(init);
                flops += init.flops();
                slots.locals.insert(name.clone(), slot);
                stmts.push(LStmt::Local(slot, init_c));
            }
            Stmt::ReduceIndirect { value, .. }
            | Stmt::AssignIndirect { value, .. }
            | Stmt::AssignDirect { value, .. } => {
                let w = write(s, &mut slots)?;
                flops += value.flops() + 1;
                stmts.push(LStmt::Write(w, slots.lower(value)));
            }
        }
    }
    Ok(LoweredBody {
        f64_names: slots.f64s,
        int_names: slots.ints,
        stmts,
        block: B,
        flops,
        edge_reads: slots.edge_reads,
        node_reads: slots.node_reads,
    })
}

/// Lower a regular loop (no inspector needed): locals and direct stores
/// by the loop index, in source order.
///
/// The body runs a block of iterations per statement, which gives the
/// row loop's bits unless a statement reads `X[IA[i]]` of an array `X`
/// the loop stores: a direct read `Y[i]` sees only its own iteration's
/// stores, which keep statement order, and a local is read only after
/// its own iteration defined it. Such a body gets block length 1.
pub(crate) fn lower_regular(l: &Forall) -> Result<LoweredBody<DirectStore>, Diagnostic> {
    let mut body = lower_body(l, |s, slots| match s {
        Stmt::AssignDirect {
            array, accumulate, ..
        } => Ok(DirectStore {
            array: slot_of(&mut slots.f64s, array),
            accumulate: *accumulate,
        }),
        // Analysis classifies a loop with any indirect store as
        // irregular (or rejects it); reaching one here is a compiler bug.
        _ => Err(Diagnostic::at(
            s.span(),
            "indirect store inside a regular loop (analysis should have classified it)",
        )),
    })?;
    let reads_stored_indirectly = body.stored_slots().any(|a| {
        body.stmts.iter().any(|s| match s {
            LStmt::Local(_, e) | LStmt::Write(_, e) => e.reads_indirect(a),
        })
    });
    if reads_stored_indirectly {
        body.block = 1;
    }
    Ok(body)
}

/// Lower one fissioned irregular loop: locals and the reduction updates
/// of its single reference group (`vias` × `arrays`).
pub(crate) fn lower_phased(
    l: &Forall,
    vias: &[String],
    arrays: &[String],
) -> Result<LoweredBody<Contribution>, Diagnostic> {
    lower_body(l, |s, _| match s {
        Stmt::ReduceIndirect {
            array, via, negate, ..
        } => {
            let r = vias.iter().position(|v| v == via).expect("analysis");
            let a = arrays.iter().position(|x| x == array).expect("analysis");
            Ok(Contribution {
                out: r * arrays.len() + a,
                negate: *negate,
            })
        }
        // Analysis rejects residual indirect stores and fission hoists
        // direct writes into the prelude; reaching either here is a
        // compiler bug.
        _ => Err(Diagnostic::at(
            s.span(),
            "non-reduction write inside a phased loop (fission should have removed it)",
        )),
    })
}

impl LoweredBody<DirectStore> {
    fn stored_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.stmts.iter().filter_map(|s| match s {
            LStmt::Write(w, _) => Some(w.array),
            LStmt::Local(..) => None,
        })
    }

    /// The f64 arrays this loop stores into.
    pub(crate) fn stored(&self) -> impl Iterator<Item = &str> {
        self.stored_slots().map(|a| self.f64_names[a].as_str())
    }

    /// Run the loop sequentially over `0..count`, a block of iterations
    /// at a time and, within a block, statement by statement — the
    /// semantics of [`crate::interp::interpret_loop`], bit for bit (see
    /// [`lower_regular`] for why). `b` must be materialized. The loop's
    /// f64 arrays leave `b` for a slot table once, up front (a store may
    /// alias a read), and return when the loop is done.
    pub(crate) fn run(&self, count: usize, b: &mut Bindings) {
        let ints: Vec<&[u32]> = self
            .int_names
            .iter()
            .map(|n| b.ints[n].as_slice())
            .collect();
        let mut f64s: Vec<Vec<f64>> = self
            .f64_names
            .iter()
            .map(|n| std::mem::take(b.f64s.get_mut(n).expect("materialized")))
            .collect();

        let count = u32::try_from(count).expect("a loop's iterations are u32-indexed");
        match self.block {
            1 => self.run_blocks::<1>(count, &mut f64s, &ints),
            _ => self.run_blocks::<B>(count, &mut f64s, &ints),
        }

        for (n, data) in self.f64_names.iter().zip(f64s) {
            *b.f64s.get_mut(n).expect("materialized") = data;
        }
    }

    /// `0..count` in blocks of `N` iterations; a store lands on the
    /// block's `[start..start + n]`.
    fn run_blocks<const N: usize>(&self, count: u32, f64s: &mut [Vec<f64>], ints: &[&[u32]]) {
        let mut locals = [[0.0f64; N]; MAX_LOCALS];
        let mut v = [0.0f64; N];
        let mut iters = [0u32; N];
        let mut start = 0u32;
        while start < count {
            let n = (count - start).min(N as u32) as usize;
            for (j, it) in iters[..n].iter_mut().enumerate() {
                *it = start + j as u32;
            }
            let (iters, lo) = (&iters[..n], start as usize);
            for s in &self.stmts {
                match s {
                    LStmt::Local(slot, init) => {
                        init.eval_block(iters, &locals, f64s, ints, &mut v);
                        locals[*slot] = v;
                    }
                    LStmt::Write(w, value) => {
                        value.eval_block(iters, &locals, f64s, ints, &mut v);
                        let y = &mut f64s[w.array][lo..lo + n];
                        if w.accumulate {
                            y.iter_mut().zip(&v).for_each(|(y, v)| *y += v);
                        } else {
                            y.copy_from_slice(&v[..n]);
                        }
                    }
                }
            }
            start += n as u32;
        }
    }
}

/// The interpreted kernel generated for one irregular loop: implements
/// [`irred::EdgeKernel`] by evaluating the lowered loop body against
/// one job's array snapshots.
pub struct InterpKernel {
    body: Arc<LoweredBody<Contribution>>,
    f64s: Vec<Arc<[f64]>>,
    ints: Vec<Arc<[u32]>>,
    num_refs: usize,
    num_arrays: usize,
}

impl InterpKernel {
    /// `giters` in blocks of `N` iterations, statements in source order:
    /// locals become columns, and each write adds its column onto its
    /// slots, which arrive zeroed (`+=`, so a `-0.0` contribution lands
    /// as `+0.0`).
    fn run_blocks<const N: usize>(&self, giters: &[u32], out: &mut [f64]) {
        let w = self.num_refs * self.num_arrays;
        let mut locals = [[0.0f64; N]; MAX_LOCALS];
        let mut v = [0.0f64; N];
        for (iters, out) in giters.chunks(N).zip(out.chunks_mut(N * w)) {
            for s in &self.body.stmts {
                match s {
                    LStmt::Local(slot, init) => {
                        init.eval_block(iters, &locals, &self.f64s, &self.ints, &mut v);
                        locals[*slot] = v;
                    }
                    LStmt::Write(c, value) => {
                        value.eval_block(iters, &locals, &self.f64s, &self.ints, &mut v);
                        for (slot, v) in out.chunks_exact_mut(w).zip(&v[..iters.len()]) {
                            slot[c.out] += if c.negate { -v } else { *v };
                        }
                    }
                }
            }
        }
    }
}

impl EdgeKernel for InterpKernel {
    fn num_refs(&self) -> usize {
        self.num_refs
    }

    fn num_arrays(&self) -> usize {
        self.num_arrays
    }

    /// One iteration is a one-iteration block.
    fn contrib(&self, _read: &[f64], iter: usize, _elems: &[u32], out: &mut [f64]) {
        let iter = u32::try_from(iter).expect("a loop's iterations are u32-indexed");
        self.run_blocks::<1>(&[iter], out);
    }

    fn contrib_batch(&self, _read: &[f64], giters: &[u32], _elems: &[u32], out: &mut [f64]) {
        self.run_blocks::<B>(giters, out);
    }

    fn flops_per_iter(&self) -> u64 {
        self.body.flops
    }

    fn edge_reads_per_iter(&self) -> usize {
        self.body.edge_reads
    }

    fn node_reads_per_elem(&self) -> usize {
        self.body.node_reads
    }
}

/// One job's shared snapshots of the arrays its phased kernels read. A
/// kernel outlives the borrow of the job's [`Bindings`] (the engine
/// shares it with its node threads), so it reads `Arc` copies; each
/// array is copied at most once per job, however many fissioned loops
/// read it, and again only after something stored into it.
#[derive(Default)]
pub(crate) struct Snapshots {
    f64s: HashMap<String, Arc<[f64]>>,
    ints: HashMap<String, Arc<[u32]>>,
}

impl Snapshots {
    /// Forget `name`: a regular loop or a reduction just wrote it. (Int
    /// arrays are never stored into — sema requires stored arrays to be
    /// `double`.)
    pub(crate) fn invalidate(&mut self, name: &str) {
        self.f64s.remove(name);
    }
}

fn snapshot<T: Copy>(
    cache: &mut HashMap<String, Arc<[T]>>,
    bound: &HashMap<String, Vec<T>>,
    name: &str,
    span: Span,
) -> Result<Arc<[T]>, Diagnostic> {
    if let Some(a) = cache.get(name) {
        return Ok(Arc::clone(a));
    }
    let data = bound
        .get(name)
        .ok_or_else(|| Diagnostic::at(span, format!("array `{name}` not bound")))?;
    let a: Arc<[T]> = Arc::from(data.as_slice());
    cache.insert(name.to_string(), Arc::clone(&a));
    Ok(a)
}

/// Bind one compiled loop's lowered body to concrete bindings: the
/// [`InterpKernel`] and [`PhasedSpec`] the engine runs.
pub(crate) fn lower_kernel(
    l: &Forall,
    cl: &crate::codegen::CompiledLoop,
    b: &Bindings,
    snaps: &mut Snapshots,
) -> Result<PhasedSpec<InterpKernel>, Diagnostic> {
    let body = &cl.body;
    let f64s = body
        .f64_names
        .iter()
        .map(|n| snapshot(&mut snaps.f64s, &b.f64s, n, l.span))
        .collect::<Result<Vec<_>, _>>()?;
    let ints = body
        .int_names
        .iter()
        .map(|n| snapshot(&mut snaps.ints, &b.ints, n, l.span))
        .collect::<Result<Vec<_>, _>>()?;

    // The indirection arrays of the group, in via order.
    let e = b.size_of(&cl.count)?;
    let mut indirection = Vec::with_capacity(cl.vias.len());
    for via in &cl.vias {
        let data = b.ints.get(via).cloned().ok_or_else(|| {
            Diagnostic::at(l.span, format!("indirection array `{via}` not bound"))
        })?;
        if data.len() != e {
            return Err(Diagnostic::at(
                l.span,
                format!("indirection array `{via}` has wrong length"),
            ));
        }
        indirection.push(data);
    }

    let kernel = InterpKernel {
        body: Arc::clone(body),
        f64s,
        ints,
        num_refs: cl.vias.len(),
        num_arrays: cl.reduction_arrays.len(),
    };
    Ok(PhasedSpec {
        kernel: Arc::new(kernel),
        num_elements: b.size_of(&cl.elem_size)?,
        indirection: Arc::new(indirection),
    })
}

/// Emit the per-processor CSR flat plans for a spec under a strategy —
/// the compiler-side LightInspector. Iterations are split exactly the
/// way the engine splits them (the strategy's [`irred::Distribution`]),
/// one processor's slice at a time, and each local slice goes through
/// the LightInspector. The result feeds
/// [`irred::PhasedEngine::prepare_from_flat`]. No execute path calls
/// this: it stays for [`crate::CompiledProgram::flat_summaries`] (the
/// CLI's plan preview) and for `benchmark/src/layers.rs`.
pub fn emit_flat_plans<K: EdgeKernel>(
    spec: &PhasedSpec<K>,
    strat: &StrategyConfig,
) -> Result<Vec<FlatInspection>, InspectError> {
    let geometry = PhaseGeometry::try_new(strat.procs, strat.k, spec.num_elements)?;
    let total = spec.num_iterations();
    let mut flats = Vec::with_capacity(strat.procs);
    for proc in 0..strat.procs {
        let local: Vec<Vec<u32>> = spec
            .indirection
            .iter()
            .map(|arr| {
                strat
                    .distribution
                    .owned_by(total, strat.procs, proc)
                    .map(|i| arr[i])
                    .collect()
            })
            .collect();
        let refs: Vec<&[u32]> = local.iter().map(|v| v.as_slice()).collect();
        flats.push(inspect(InspectorInput {
            geometry,
            proc_id: proc,
            indirection: &refs,
        })?);
    }
    Ok(flats)
}

/// A human-readable digest of one loop's emitted flat plans — what the
/// `threadedc` CLI prints per phased loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatSummary {
    pub procs: usize,
    pub k: usize,
    /// Phases per processor (`k · procs`).
    pub num_phases: usize,
    /// Local iterations summed over processors (= the loop's trip count).
    pub total_iters: usize,
    /// Reference-array entries summed over processors.
    pub total_refs: usize,
    /// Buffered contributions (copy ops) summed over processors.
    pub total_copies: usize,
    /// Buffer slots summed over processors.
    pub buffer_slots: usize,
}

impl FlatSummary {
    pub fn from_flats(flats: &[FlatInspection], strat: &StrategyConfig) -> FlatSummary {
        FlatSummary {
            procs: strat.procs,
            k: strat.k,
            num_phases: flats.first().map_or(0, |f| f.flat.num_phases()),
            total_iters: flats.iter().map(|f| f.iters.len()).sum(),
            total_refs: flats.iter().map(|f| f.flat.refs.len()).sum(),
            total_copies: flats.iter().map(|f| f.flat.copies.len()).sum(),
            buffer_slots: flats.iter().map(|f| f.buffer_len).sum(),
        }
    }
}

impl std::fmt::Display for FlatSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "P={} k={} phases={} iters={} refs={} copies={} buffer_slots={}",
            self.procs,
            self.k,
            self.num_phases,
            self.total_iters,
            self.total_refs,
            self.total_copies,
            self.buffer_slots
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irred::Distribution;

    #[test]
    fn emitted_plans_cover_all_iterations() {
        let n = 20usize;
        let e = 100usize;
        let ia: Vec<u32> = (0..e).map(|j| ((j * 7 + 3) % n) as u32).collect();
        let ib: Vec<u32> = (0..e).map(|j| ((j * 13 + 1) % n) as u32).collect();
        let body = LoweredBody {
            f64_names: vec![],
            int_names: vec![],
            stmts: vec![LStmt::Write(
                Contribution {
                    out: 0,
                    negate: false,
                },
                CExpr::Number(1.0),
            )],
            block: B,
            flops: 1,
            edge_reads: 0,
            node_reads: 0,
        };
        let spec = PhasedSpec {
            kernel: Arc::new(InterpKernel {
                body: Arc::new(body),
                f64s: vec![],
                ints: vec![],
                num_refs: 2,
                num_arrays: 1,
            }),
            num_elements: n,
            indirection: Arc::new(vec![ia, ib]),
        };
        let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 1);
        let flats = emit_flat_plans(&spec, &strat).unwrap();
        assert_eq!(flats.len(), 4);
        let s = FlatSummary::from_flats(&flats, &strat);
        assert_eq!(s.total_iters, e);
        assert_eq!(s.total_refs, e * 2);
        assert_eq!(s.num_phases, 8);
        assert!(s.to_string().contains("P=4 k=2"));
    }

    /// The fission prelude of the benchmark's two-group program takes
    /// the block path, and a regular loop that reads a stored array
    /// through an indirection runs a row at a time.
    #[test]
    fn block_length_follows_indirect_reads_of_stored_arrays() {
        let src = "double P[n]; double Q[n]; double W[e]; int A[e]; int B[e];
            forall (i = 0; i < e; i++) {
                double f = W[i] * 2.0;
                P[A[i]] = P[A[i]] + f;
                Q[B[i]] = Q[B[i]] - f;
            }";
        let c = crate::compile(src).unwrap();
        let preludes: Vec<&Forall> = c
            .plan
            .iter()
            .filter_map(|p| match p {
                crate::LoopPlan::Regular(rl) => Some(&c.program.loops[rl.loop_index]),
                crate::LoopPlan::Phased(_) => None,
            })
            .collect();
        assert_eq!(preludes.len(), 1);
        let prelude = lower_regular(preludes[0]).unwrap();
        assert_eq!(prelude.stored().collect::<Vec<_>>(), ["__tmp_f"]);
        assert_eq!(prelude.block, B);

        let chain = crate::parse(
            "double Y[e]; int A[e];
            forall (i = 0; i < e; i++) { Y[i] = Y[A[i]] + 1.0; }",
        )
        .unwrap();
        assert_eq!(lower_regular(&chain.loops[0]).unwrap().block, 1);
    }
}
