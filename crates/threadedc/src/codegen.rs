//! Code generation: analyze, fission, and plan the execution of a
//! program onto the phased strategy.
//!
//! "After loop fission, each loop can be easily processed to generate
//! code for the execution strategy presented in Section 2. The
//! indirection array sections are used to form the parameters to the
//! LIGHTINSPECTOR. The reduction array sections are used to establish
//! the communication." (§4)
//!
//! [`compile`] runs the whole front half: parse → reduction
//! recognition → sema → reference-group analysis (with the dependence
//! test) → loop fission — and *verifies* each fission against the
//! sequential interpreter on synthetic bindings before accepting it.
//! Every loop body is lowered to slot-resolved form once, here
//! ([`crate::lower`]). Each irregular loop becomes a [`CompiledLoop`];
//! execution binds it to the job's arrays as an [`InterpKernel`] plus
//! per-processor CSR flat plans emitted directly by the compiler
//! ([`crate::lower::emit_flat_plans`]) and adopted by the engine
//! ([`irred::PhasedEngine::prepare_from_flat`]: gather, verify,
//! freeze — no inspector run) — that is
//! [`CompiledProgram::execute_flat`], the compiled fast path, with
//! [`CompiledProgram::execute_sim`] as the simulator default.
//! [`CompiledProgram::execute_with`] remains engine-agnostic (any
//! [`irred::ReductionEngine`] over the emitted specs). Regular loops
//! (a [`RegularLoop`]: user-written ones and fission preludes) run
//! sequentially between phased loops through the same lowered
//! evaluator; the AST interpreter ([`crate::interp`]) stays out of job
//! execution and serves as the reference both are tested against.

use std::sync::Arc;

use earth_model::sim::SimConfig;
use irred::{
    EngineError, PhasedEngine, PhasedSpec, ReductionEngine, RunOutcome, StrategyConfig, Workspace,
};

use crate::analysis::{analyze_program, normalize_program, LoopClass};
use crate::ast::*;
use crate::fission::{fission_loop, FissionResult};
use crate::interp::{interpret, Bindings};
use crate::lower::{
    emit_flat_plans, lower_kernel, lower_phased, lower_regular, Contribution, DirectStore,
    LoweredBody, Snapshots,
};
use crate::parser::parse;
use crate::sema::check;
use crate::Diagnostic;

pub use crate::lower::InterpKernel;

/// One irregular loop lowered to the phased strategy.
#[derive(Debug)]
pub struct CompiledLoop {
    /// Index into [`CompiledProgram::program`]'s loop list.
    pub loop_index: usize,
    /// The reduction arrays of the (single) reference group.
    pub reduction_arrays: Vec<String>,
    /// The LightInspector parameters: the indirection arrays, sorted.
    pub vias: Vec<String>,
    /// Size symbol of the reduction arrays.
    pub elem_size: String,
    /// Iteration-count symbol.
    pub count: String,
    /// The loop body with names resolved to slots; each job's kernel
    /// shares it.
    pub(crate) body: Arc<LoweredBody<Contribution>>,
}

/// One regular loop (user-written or a fission prelude), lowered.
#[derive(Debug)]
pub struct RegularLoop {
    /// Index into [`CompiledProgram::program`]'s loop list.
    pub loop_index: usize,
    body: LoweredBody<DirectStore>,
}

/// What to do with each loop, in program order.
#[derive(Debug)]
pub enum LoopPlan {
    /// Run sequentially on the control processor (regular loops and
    /// fission preludes).
    Regular(RegularLoop),
    /// Run under the phased strategy.
    Phased(CompiledLoop),
}

/// The compiler's output: the transformed program plus an execution plan.
#[derive(Debug)]
pub struct CompiledProgram {
    /// Post-fission program (declarations include introduced temps).
    pub program: Program,
    pub plan: Vec<LoopPlan>,
    /// Human-readable compilation log (sections, groups, fission).
    pub log: Vec<String>,
}

/// Compile source text end to end: parse → reduction recognition →
/// sema → analysis (reference groups + dependence test) → verified
/// fission → plan.
pub fn compile(src: &str) -> Result<CompiledProgram, Diagnostic> {
    let mut prog = parse(src)?;
    normalize_program(&mut prog);
    check(&prog)?;
    let infos = analyze_program(&prog)?;

    let mut out = Program {
        decls: prog.decls.clone(),
        loops: Vec::new(),
    };
    let mut plan = Vec::new();
    let mut log = Vec::new();

    for (l, info) in prog.loops.iter().zip(&infos) {
        let line = l.span.line;
        for sec in &info.indirection_sections {
            log.push(format!("loop@{line}: indirection section {sec}"));
        }
        for (sec, via) in &info.reduction_sections {
            log.push(format!("loop@{line}: reduction section {sec} via {via}"));
        }
        match &info.class {
            LoopClass::Regular => {
                log.push(format!("loop@{line}: regular (no inspector needed)"));
                plan.push(regular(out.loops.len(), l)?);
                out.loops.push(l.clone());
            }
            LoopClass::IrregularReduction { groups } => {
                log.push(format!(
                    "loop@{line}: irregular reduction, {} reference group(s)",
                    groups.len()
                ));
                let f = fission_loop(l, groups);
                if f.loops.len() > 1 {
                    log.push(format!(
                        "loop@{line}: fissioned into {} loops, {} temp array(s)",
                        f.loops.len(),
                        f.temps.len()
                    ));
                }
                verify_fission(&prog, l, &f)?;
                log.push(format!(
                    "loop@{line}: fission verified against the interpreter"
                ));
                out.decls.extend(f.temps.clone());
                let n_groups = groups.len();
                let n_loops = f.loops.len();
                for (j, fl) in f.loops.into_iter().enumerate() {
                    let idx = out.loops.len();
                    let is_prelude = n_loops > n_groups && j == 0;
                    if is_prelude {
                        plan.push(regular(idx, &fl)?);
                        out.loops.push(fl);
                        continue;
                    }
                    let g = &groups[j - (n_loops - n_groups)];
                    let elem_size = out
                        .decls
                        .iter()
                        .find(|d| d.name == g.arrays[0])
                        .expect("sema checked")
                        .size
                        .clone();
                    log.push(format!(
                        "loop@{line}: LIGHTINSPECTOR({}) over {}; rotating group {{{}}}",
                        g.vias.join(", "),
                        l.count,
                        g.arrays.join(", ")
                    ));
                    plan.push(LoopPlan::Phased(CompiledLoop {
                        loop_index: idx,
                        body: Arc::new(lower_phased(&fl, &g.vias, &g.arrays)?),
                        reduction_arrays: g.arrays.clone(),
                        vias: g.vias.clone(),
                        elem_size,
                        count: l.count.clone(),
                    }));
                    out.loops.push(fl);
                }
            }
        }
    }
    Ok(CompiledProgram {
        program: out,
        plan,
        log,
    })
}

fn regular(loop_index: usize, l: &Forall) -> Result<LoopPlan, Diagnostic> {
    Ok(LoopPlan::Regular(RegularLoop {
        loop_index,
        body: lower_regular(l)?,
    }))
}

/// Deterministic synthetic bindings for a program: every symbolic size
/// resolves to the same small bound (clamped by any literal sizes so no
/// access can run off an array), int arrays hold in-range pseudo-random
/// indices, f64 arrays pseudo-random values. Used by the compile-time
/// fission verification and the CLI's plan preview, which must run
/// without user data.
pub fn synthetic_bindings(prog: &Program, default_size: usize) -> Bindings {
    // Literal sizes cap the symbolic bound: loop counts are symbols, so
    // `count <= every array length` holds and no access goes out of
    // bounds.
    let literal_min = prog
        .decls
        .iter()
        .filter_map(|d| d.size.parse::<usize>().ok())
        .min();
    let s = literal_min.map_or(default_size, |m| m.min(default_size));

    let mut b = Bindings::default();
    for d in &prog.decls {
        if d.size.parse::<usize>().is_err() {
            b.sizes.insert(d.size.clone(), s);
        }
    }
    for l in &prog.loops {
        if l.count.parse::<usize>().is_err() {
            b.sizes.entry(l.count.clone()).or_insert(s);
        }
    }
    let min_f64_len = prog
        .decls
        .iter()
        .filter(|d| d.ty == ElemType::Double)
        .map(|d| d.size.parse::<usize>().unwrap_or(s))
        .min()
        .unwrap_or(s);
    for (r, d) in prog.decls.iter().enumerate() {
        let n = d.size.parse::<usize>().unwrap_or(s);
        match d.ty {
            ElemType::Int => {
                let v: Vec<u32> = (0..n)
                    .map(|j| ((j * j * 31 + j * 7 + r * 13) % min_f64_len.max(1)) as u32)
                    .collect();
                b.ints.insert(d.name.clone(), v);
            }
            ElemType::Double => {
                let v: Vec<f64> = (0..n)
                    .map(|j| ((j * 13 + 5 + r * 3) % 97) as f64 / 7.0)
                    .collect();
                b.f64s.insert(d.name.clone(), v);
            }
        }
    }
    b
}

/// Verify one loop's fission against the sequential interpreter: run
/// the original (normalized) loop and the fissioned sequence on
/// identical synthetic bindings and require every declared f64 array to
/// come out **bit-identical**. Sound because fission only reorders
/// whole statements across loops, never the per-array `+=` sequences —
/// so any divergence is a compiler bug, reported as a diagnostic
/// instead of miscompiled silently.
fn verify_fission(prog: &Program, l: &Forall, f: &FissionResult) -> Result<(), Diagnostic> {
    let mut decls = prog.decls.clone();
    decls.extend(f.temps.clone());
    let seed = synthetic_bindings(
        &Program {
            decls: decls.clone(),
            loops: Vec::new(),
        },
        24,
    );

    let original = Program {
        decls: decls.clone(),
        loops: vec![l.clone()],
    };
    let fissioned = Program {
        decls,
        loops: f.loops.clone(),
    };
    let mut b1 = seed.clone();
    let mut b2 = seed;
    interpret(&original, &mut b1)?;
    interpret(&fissioned, &mut b2)?;
    for d in &prog.decls {
        if d.ty != ElemType::Double {
            continue;
        }
        let (x, y) = (&b1.f64s[&d.name], &b2.f64s[&d.name]);
        if x.len() != y.len() || x.iter().zip(y).any(|(a, b)| a.to_bits() != b.to_bits()) {
            return Err(Diagnostic::at(
                l.span,
                format!(
                    "internal error: loop fission changed the value of `{}` (compiler bug)",
                    d.name
                ),
            ));
        }
    }
    Ok(())
}

/// Result of executing a compiled program on the simulated machine.
#[derive(Debug)]
pub struct ExecReport {
    /// Total simulated cycles across the phased loops.
    pub time_cycles: u64,
    /// Phased loops executed.
    pub phased_loops: usize,
    /// Regular loops executed (sequentially).
    pub regular_loops: usize,
}

/// Why executing a compiled program failed: the spanned diagnostic, and
/// — when an engine (or the compiler-side inspector) rejected or
/// aborted a phased loop — the engine's own typed error, so callers map
/// failures by kind instead of by message text.
#[derive(Debug)]
pub struct ExecError {
    pub diagnostic: Diagnostic,
    /// `None` for binding errors (unbound or ill-shaped arrays).
    pub cause: Option<EngineError>,
}

impl From<Diagnostic> for ExecError {
    fn from(diagnostic: Diagnostic) -> Self {
        ExecError {
            diagnostic,
            cause: None,
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.diagnostic.fmt(f)
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.cause.as_ref().map(|e| e as _)
    }
}

impl CompiledProgram {
    /// Execute the compiled program through an arbitrary
    /// [`ReductionEngine`]: regular loops run sequentially on the control
    /// processor, irregular loops are lowered to [`PhasedSpec`]s and
    /// handed to `engine`. One [`Workspace`] is shared across the
    /// program's loops, so an engine that pools buffers reuses them
    /// between loops. Mutates the bindings like the interpreter would;
    /// returns the engine-reported time of the irregular portions.
    pub fn execute_with<E>(
        &self,
        b: &mut Bindings,
        engine: &E,
        strat: &StrategyConfig,
    ) -> Result<ExecReport, ExecError>
    where
        E: ReductionEngine<PhasedSpec<InterpKernel>>,
    {
        self.execute_loops(b, engine.name(), |spec, ws| {
            let mut prepared = engine.prepare(spec, strat)?;
            engine.execute(&mut prepared, ws)
        })
    }

    /// Execute on the compiled fast path: the compiler emits each
    /// loop's per-processor CSR flat plans directly
    /// ([`crate::lower::emit_flat_plans`]) and the phased engine adopts
    /// them ([`PhasedEngine::prepare_from_flat`]) — no inspector run.
    /// Results are bit-identical to [`Self::execute_with`] on the same
    /// engine configuration.
    pub fn execute_flat(
        &self,
        b: &mut Bindings,
        strat: &StrategyConfig,
        engine: &PhasedEngine,
    ) -> Result<ExecReport, ExecError> {
        self.execute_loops(b, "phased", |spec, ws| {
            let flats = emit_flat_plans(spec, strat).map_err(EngineError::Invalid)?;
            let mut prepared = engine.prepare_from_flat(spec, strat, flats)?;
            engine.execute(&mut prepared, ws)
        })
    }

    /// The one walk over the plan behind every execute entry point:
    /// regular loops through their lowered bodies, phased loops bound
    /// to the job's arrays and handed to `run_phased`, reductions
    /// accumulated back into the bindings.
    fn execute_loops(
        &self,
        b: &mut Bindings,
        engine_name: &str,
        mut run_phased: impl FnMut(
            &PhasedSpec<InterpKernel>,
            &mut Workspace,
        ) -> Result<RunOutcome, EngineError>,
    ) -> Result<ExecReport, ExecError> {
        b.materialize(&self.program)?;
        let mut ws = Workspace::new();
        let mut snaps = Snapshots::default();
        let mut rep = ExecReport {
            time_cycles: 0,
            phased_loops: 0,
            regular_loops: 0,
        };
        for p in &self.plan {
            match p {
                LoopPlan::Regular(rl) => {
                    let l = &self.program.loops[rl.loop_index];
                    rl.body.run(b.size_of(&l.count)?, b);
                    rl.body.stored().for_each(|name| snaps.invalidate(name));
                    rep.regular_loops += 1;
                }
                LoopPlan::Phased(cl) => {
                    let l = &self.program.loops[cl.loop_index];
                    let spec = lower_kernel(l, cl, b, &mut snaps)?;
                    let out = run_phased(&spec, &mut ws).map_err(|e| ExecError {
                        diagnostic: Diagnostic::at(
                            l.span,
                            format!("engine `{engine_name}` failed: {e}"),
                        ),
                        cause: Some(e),
                    })?;
                    self.accumulate(cl, b, &out);
                    for name in &cl.reduction_arrays {
                        snaps.invalidate(name);
                    }
                    rep.time_cycles += out.time_cycles;
                    rep.phased_loops += 1;
                }
            }
        }
        Ok(rep)
    }

    /// Execute on the paper's target: the phased engine over the
    /// simulated EARTH machine, via the compiled flat fast path.
    pub fn execute_sim(
        &self,
        b: &mut Bindings,
        strat: &StrategyConfig,
        cfg: SimConfig,
    ) -> Result<ExecReport, ExecError> {
        self.execute_flat(b, strat, &PhasedEngine::sim(cfg))
    }

    /// Summarize the flat plans the compiler would emit for each phased
    /// loop under `strat`, without executing anything. Returns
    /// `(source line, summary)` pairs in plan order — what the
    /// `threadedc` CLI prints as its plan preview.
    pub fn flat_summaries(
        &self,
        b: &mut Bindings,
        strat: &StrategyConfig,
    ) -> Result<Vec<(usize, crate::lower::FlatSummary)>, Diagnostic> {
        b.materialize(&self.program)?;
        let mut snaps = Snapshots::default();
        let mut out = Vec::new();
        for p in &self.plan {
            if let LoopPlan::Phased(cl) = p {
                let l = &self.program.loops[cl.loop_index];
                let spec = lower_kernel(l, cl, b, &mut snaps)?;
                let flats = emit_flat_plans(&spec, strat).map_err(|e| {
                    Diagnostic::at(l.span, format!("inspector rejected the loop: {e}"))
                })?;
                out.push((
                    l.span.line,
                    crate::lower::FlatSummary::from_flats(&flats, strat),
                ));
            }
        }
        Ok(out)
    }

    /// DSL semantics: X accumulates onto its prior contents; the engine
    /// computes the pure sum.
    fn accumulate(&self, cl: &CompiledLoop, b: &mut Bindings, out: &RunOutcome) {
        for (a, name) in cl.reduction_arrays.iter().enumerate() {
            let x = b.f64s.get_mut(name).expect("materialized");
            for (xi, ri) in x.iter_mut().zip(&out.values[a]) {
                *xi += ri;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    const FIG1: &str = "
        double X[n]; double Y[e]; int IA1[e]; int IA2[e];
        forall (i = 0; i < e; i++) {
            double f = Y[i] * 0.5;
            X[IA1[i]] += f;
            X[IA2[i]] -= f;
        }";

    fn fig1_bindings(n: usize, e: usize, seed: u64) -> Bindings {
        let mut next = rng(seed);
        let mut b = Bindings::default();
        b.sizes.insert("n".into(), n);
        b.sizes.insert("e".into(), e);
        b.f64s.insert(
            "Y".into(),
            (0..e).map(|_| (next() % 100) as f64 / 7.0).collect(),
        );
        b.ints.insert(
            "IA1".into(),
            (0..e).map(|_| (next() % n as u64) as u32).collect(),
        );
        b.ints.insert(
            "IA2".into(),
            (0..e).map(|_| (next() % n as u64) as u32).collect(),
        );
        b
    }

    #[test]
    fn compile_produces_plan_and_log() {
        let c = compile(FIG1).unwrap();
        assert_eq!(c.plan.len(), 1);
        assert!(matches!(&c.plan[0], LoopPlan::Phased(cl)
            if cl.vias == ["IA1", "IA2"] && cl.reduction_arrays == ["X"]));
        assert!(
            c.log.iter().any(|l| l.contains("LIGHTINSPECTOR(IA1, IA2)")),
            "{:?}",
            c.log
        );
        assert!(
            c.log.iter().any(|l| l.contains("fission verified")),
            "{:?}",
            c.log
        );
    }

    #[test]
    fn compiled_execution_matches_interpreter() {
        let c = compile(FIG1).unwrap();
        let mut phased = fig1_bindings(40, 300, 5);
        let strat = StrategyConfig::new(4, 2, irred::Distribution::Cyclic, 1);
        let rep = c
            .execute_sim(&mut phased, &strat, SimConfig::default())
            .unwrap();
        assert_eq!(rep.phased_loops, 1);
        assert!(rep.time_cycles > 0);

        let prog = parse(FIG1).unwrap();
        let mut direct = fig1_bindings(40, 300, 5);
        interpret(&prog, &mut direct).unwrap();
        for (a, b) in phased.f64s["X"].iter().zip(&direct.f64s["X"]) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn flat_path_is_bit_identical_to_engine_prepare() {
        // The compiled fast path (compiler-emitted flat plans, adopted
        // by the engine) must agree bit-for-bit with the engine running
        // its own inspector on the same spec.
        let c = compile(FIG1).unwrap();
        let strat = StrategyConfig::new(3, 2, irred::Distribution::Block, 1);
        let engine = PhasedEngine::sim(SimConfig::default());

        let mut via_flat = fig1_bindings(32, 250, 7);
        let rep_flat = c.execute_flat(&mut via_flat, &strat, &engine).unwrap();

        let mut via_prepare = fig1_bindings(32, 250, 7);
        let rep_prep = c.execute_with(&mut via_prepare, &engine, &strat).unwrap();

        assert_eq!(rep_flat.time_cycles, rep_prep.time_cycles);
        for (a, b) in via_flat.f64s["X"].iter().zip(&via_prepare.f64s["X"]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn codegen_is_engine_agnostic() {
        // The same compiled program runs through any ReductionEngine;
        // the sequential engine must agree with the phased one up to
        // summation order.
        let c = compile(FIG1).unwrap();
        let strat = StrategyConfig::new(4, 2, irred::Distribution::Cyclic, 1);

        let mut via_phased = fig1_bindings(40, 300, 5);
        c.execute_with(
            &mut via_phased,
            &irred::PhasedEngine::sim(SimConfig::default()),
            &strat,
        )
        .unwrap();

        let mut via_seq = fig1_bindings(40, 300, 5);
        c.execute_with(
            &mut via_seq,
            &irred::SeqEngine::new(SimConfig::default()),
            &strat,
        )
        .unwrap();

        for (a, b) in via_phased.f64s["X"].iter().zip(&via_seq.f64s["X"]) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn multi_group_program_fissions_and_matches() {
        let src = "
            double P[n]; double Q[n]; double W[e]; int A[e]; int B[e];
            forall (i = 0; i < e; i++) {
                double f = W[i] * 2.0;
                P[A[i]] += f;
                Q[B[i]] -= f;
            }";
        let c = compile(src).unwrap();
        // prelude (regular) + two phased loops
        assert_eq!(c.plan.len(), 3);
        assert!(matches!(c.plan[0], LoopPlan::Regular(_)));

        let mut next = rng(9);
        let (n, e) = (30usize, 200usize);
        let mk = |next: &mut dyn FnMut() -> u64| {
            let mut b = Bindings::default();
            b.sizes.insert("n".into(), n);
            b.sizes.insert("e".into(), e);
            b.f64s
                .insert("W".into(), (0..e).map(|_| (next() % 50) as f64).collect());
            b.ints.insert(
                "A".into(),
                (0..e).map(|_| (next() % n as u64) as u32).collect(),
            );
            b.ints.insert(
                "B".into(),
                (0..e).map(|_| (next() % n as u64) as u32).collect(),
            );
            b
        };
        let mut phased = mk(&mut next);
        let mut next2 = rng(9);
        let mut direct = mk(&mut next2);

        let strat = StrategyConfig::new(2, 2, irred::Distribution::Block, 1);
        let rep = c
            .execute_sim(&mut phased, &strat, SimConfig::default())
            .unwrap();
        assert_eq!(rep.phased_loops, 2);
        assert_eq!(rep.regular_loops, 1);

        interpret(&parse(src).unwrap(), &mut direct).unwrap();
        for arr in ["P", "Q"] {
            for (a, b) in phased.f64s[arr].iter().zip(&direct.f64s[arr]) {
                assert!((a - b).abs() < 1e-9, "{arr}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn unannotated_multi_group_compiles_via_recognition_and_fission() {
        // Neither reduction is annotated (+=): recognition normalizes
        // both, analysis splits them into two groups, fission splits the
        // loop. End-to-end result must match the raw interpreter.
        let src = "
            double P[n]; double Q[n]; double W[e]; int A[e]; int B[e];
            forall (i = 0; i < e; i++) {
                double f = W[i] * 2.0;
                P[A[i]] = P[A[i]] + f;
                Q[B[i]] = Q[B[i]] - f;
            }";
        let c = compile(src).unwrap();
        assert_eq!(c.plan.len(), 3, "prelude + one phased loop per group");

        let mut next = rng(21);
        let (n, e) = (24usize, 150usize);
        let mut b = Bindings::default();
        b.sizes.insert("n".into(), n);
        b.sizes.insert("e".into(), e);
        b.f64s
            .insert("W".into(), (0..e).map(|_| (next() % 50) as f64).collect());
        b.ints.insert(
            "A".into(),
            (0..e).map(|_| (next() % n as u64) as u32).collect(),
        );
        b.ints.insert(
            "B".into(),
            (0..e).map(|_| (next() % n as u64) as u32).collect(),
        );
        let mut direct = b.clone();
        let strat = StrategyConfig::new(2, 2, irred::Distribution::Cyclic, 1);
        c.execute_sim(&mut b, &strat, SimConfig::default()).unwrap();
        interpret(&parse(src).unwrap(), &mut direct).unwrap();
        for arr in ["P", "Q"] {
            for (x, y) in b.f64s[arr].iter().zip(&direct.f64s[arr]) {
                assert!((x - y).abs() < 1e-9, "{arr}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn non_reduction_dependence_rejected_with_span() {
        let err =
            compile("double X[n]; int A[e];\nforall (i = 0; i < e; i++) {\n  X[A[i]] = 1.0;\n}")
                .unwrap_err();
        assert_eq!(err.span.line, 3);
        assert!(err.span.col > 0);
        assert!(err.message.contains("not a recognized reduction"), "{err}");
    }

    #[test]
    fn multi_array_group_uses_single_inspector() {
        let src = "
            double FX[n]; double FY[n]; int A[e]; int B[e];
            forall (i = 0; i < e; i++) {
                FX[A[i]] += 1.0; FX[B[i]] -= 1.0;
                FY[A[i]] += 0.5; FY[B[i]] -= 0.5;
            }";
        let c = compile(src).unwrap();
        assert_eq!(c.plan.len(), 1);
        let LoopPlan::Phased(cl) = &c.plan[0] else {
            panic!()
        };
        assert_eq!(cl.reduction_arrays, vec!["FX", "FY"]);
    }

    #[test]
    fn regular_loops_stay_sequential() {
        let c = compile("double Y[e]; forall (i = 0; i < e; i++) { Y[i] = i + 1.0; }").unwrap();
        assert!(matches!(c.plan[0], LoopPlan::Regular(_)));
        let mut b = Bindings::default();
        b.sizes.insert("e".into(), 4);
        let strat = StrategyConfig::new(2, 2, irred::Distribution::Block, 1);
        c.execute_sim(&mut b, &strat, SimConfig::default()).unwrap();
        assert_eq!(b.f64s["Y"], vec![1.0, 2.0, 3.0, 4.0]);
    }

    /// Every f64 array of `a` and `b`, bit for bit.
    fn assert_same_bits(a: &Bindings, b: &Bindings) {
        assert_eq!(a.f64s.len(), b.f64s.len());
        for (name, x) in &a.f64s {
            let y = &b.f64s[name];
            assert_eq!(x.len(), y.len(), "{name}");
            for (i, (p, q)) in x.iter().zip(y).enumerate() {
                assert_eq!(p.to_bits(), q.to_bits(), "{name}[{i}]: {p} vs {q}");
            }
        }
    }

    #[test]
    fn kernels_see_stores_made_between_phased_loops() {
        // One job, four loops: the second kernel reads `W` after a
        // regular loop rewrote it and `P` after a reduction updated it —
        // the per-job array snapshots must not serve either stale.
        let src = "
            double P[n]; double Q[n]; double W[e]; int A[e]; int C[n];
            forall (i = 0; i < e; i++) { P[A[i]] += W[i]; }
            forall (i = 0; i < e; i++) { W[i] = W[i] * 2.0 + i; }
            forall (i = 0; i < e; i++) { P[A[i]] += W[i]; }
            forall (j = 0; j < n; j++) { Q[C[j]] += P[j]; }";
        let c = compile(src).unwrap();
        let (n, e) = (20usize, 120usize);
        let mut next = rng(5);
        let mut b = Bindings::default();
        b.sizes.insert("n".into(), n);
        b.sizes.insert("e".into(), e);
        b.f64s
            .insert("W".into(), (0..e).map(|_| (next() % 40) as f64).collect());
        b.ints.insert(
            "A".into(),
            (0..e).map(|_| (next() % n as u64) as u32).collect(),
        );
        b.ints.insert(
            "C".into(),
            (0..n).map(|_| (next() % n as u64) as u32).collect(),
        );
        let mut direct = b.clone();
        let strat = StrategyConfig::new(3, 2, irred::Distribution::Cyclic, 1);
        let rep = c.execute_sim(&mut b, &strat, SimConfig::default()).unwrap();
        assert_eq!((rep.regular_loops, rep.phased_loops), (1, 3));
        interpret(&parse(src).unwrap(), &mut direct).unwrap();
        // Whole-number inputs: every partial sum is exact.
        assert_same_bits(&b, &direct);
    }

    #[test]
    fn seventeenth_local_is_a_spanned_compile_error() {
        let program = |locals: usize| {
            let mut src = String::from("double X[n]; double W[e]; int A[e];\n");
            src.push_str("forall (i = 0; i < e; i++) {\n");
            for j in 0..locals {
                src.push_str(&format!("  double t{j} = W[i] + {j}.0;\n"));
            }
            src.push_str(&format!("  X[A[i]] += t{};\n}}\n", locals - 1));
            src
        };
        assert!(compile(&program(16)).is_ok());
        let err = compile(&program(17)).unwrap_err();
        // Line 1 declarations, line 2 `forall`, locals from line 3.
        assert_eq!(err.span.line, 19, "{err}");
        assert!(err.message.contains("at most 16 locals"), "{err}");
        // The same limit guards regular loops.
        let regular = program(17).replace("X[A[i]] +=", "W[i] =");
        let err = compile(&regular).unwrap_err();
        assert!(err.message.contains("at most 16 locals"), "{err}");
    }

    #[test]
    fn engine_failures_carry_a_typed_cause() {
        // An out-of-range reduction target is the inspector's typed
        // rejection, not a message to be pattern-matched.
        let c = compile(FIG1).unwrap();
        let mut b = fig1_bindings(8, 30, 3);
        b.ints.get_mut("IA2").unwrap()[7] = 8;
        let strat = StrategyConfig::new(2, 2, irred::Distribution::Block, 1);
        let engine = PhasedEngine::sim(SimConfig::default());
        let err = c.execute_flat(&mut b.clone(), &strat, &engine).unwrap_err();
        assert!(matches!(err.cause, Some(EngineError::Invalid(_))), "{err}");
        assert_eq!(err.diagnostic.span.line, 3);
        let err = c.execute_with(&mut b, &engine, &strat).unwrap_err();
        assert!(matches!(err.cause, Some(EngineError::Invalid(_))), "{err}");
        // A binding error has no engine cause.
        let mut b = fig1_bindings(8, 30, 3);
        b.ints.get_mut("IA1").unwrap().pop();
        let err = c.execute_flat(&mut b, &strat, &engine).unwrap_err();
        assert!(err.cause.is_none(), "{err}");
    }

    #[test]
    fn synthetic_bindings_respect_literal_sizes() {
        let prog = parse(
            "double X[5]; double Y[e]; int A[e];
             forall (i = 0; i < e; i++) { X[A[i]] += Y[i]; }",
        )
        .unwrap();
        let b = synthetic_bindings(&prog, 24);
        // Symbolic sizes clamp to the smallest literal so every access
        // stays in bounds.
        assert_eq!(b.sizes["e"], 5);
        assert_eq!(b.f64s["X"].len(), 5);
        assert!(b.ints["A"].iter().all(|&v| (v as usize) < 5));
    }
}
