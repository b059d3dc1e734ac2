//! Property-based validation of the compiler: for randomly generated DSL
//! programs, phased compiled execution must match the direct interpreter.
//! On the in-tree [`harness::prop`] harness.
//!
//! The former `.proptest-regressions` seed is preserved as the named
//! unit test [`regression_single_sub_stmt_six_procs`].

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use earth_model::native::NativeConfig;
use earth_model::sim::SimConfig;
use earth_model::FaultConfig;
use harness::prop::{check, Config, Gen};
use harness::prop_assert;
use threadedc::lower::InterpKernel;
use threadedc::{compile, interpret, parse, Bindings};

use irred::{
    Distribution, EdgeKernel, EngineError, ExecutionConfig, GatherEngine, GatherSpec, PhasedEngine,
    PhasedSpec, ReductionEngine, RunOutcome, SeqEngine, StrategyConfig, Workspace,
};
use workloads::SparseMatrix;

/// Generate a random DSL program over a fixed set of declared arrays,
/// together with sizes. Programs always sema-check by construction.
fn program(g: &mut Gen) -> (String, usize, usize) {
    let stmts = g.usize_incl(1, 4);
    let use_local = g.prob(0.5);
    let groups = g.usize_incl(1, 2);
    let n = g.usize_incl(16, 64);
    let e = g.usize_incl(50, 400);
    let salt = g.usize_in(0..1000);
    let mut src = String::from(
        "double X[n]; double Z[n]; double W[e]; double V[e]; int A[e]; int B[e]; int C[e];\n",
    );
    src.push_str("forall (i = 0; i < e; i++) {\n");
    if use_local {
        src.push_str("  double f = W[i] * 0.5 + V[i];\n");
    }
    let vias = ["A", "B", "C"];
    for s in 0..stmts {
        let arr = if groups == 2 && s % 2 == 1 { "Z" } else { "X" };
        let via = vias[(s + salt) % if groups == 2 { 2 } else { 3 }];
        let op = if (s + salt).is_multiple_of(3) {
            "-="
        } else {
            "+="
        };
        let val = if use_local { "f * 2.0" } else { "W[i] + 1.0" };
        src.push_str(&format!("  {arr}[{via}[i]] {op} {val};\n"));
    }
    src.push_str("}\n");
    (src, n, e)
}

fn bindings(n: usize, e: usize, seed: u64) -> Bindings {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut b = Bindings::default();
    b.sizes.insert("n".into(), n);
    b.sizes.insert("e".into(), e);
    for name in ["W", "V"] {
        b.f64s.insert(
            name.into(),
            (0..e).map(|_| (next() % 100) as f64 / 11.0).collect(),
        );
    }
    for name in ["A", "B", "C"] {
        b.ints.insert(
            name.into(),
            (0..e).map(|_| (next() % n as u64) as u32).collect(),
        );
    }
    b
}

/// Core check, shared by the property and the pinned regression case.
fn compiled_matches(
    src: &str,
    n: usize,
    e: usize,
    procs: usize,
    k: usize,
    seed: u64,
) -> Result<(), String> {
    let compiled = compile(src).expect("generated programs compile");
    let strat = StrategyConfig::new(procs, k, Distribution::Cyclic, 1);

    let mut phased = bindings(n, e, seed);
    compiled
        .execute_sim(&mut phased, &strat, SimConfig::default())
        .unwrap();

    let mut direct = bindings(n, e, seed);
    interpret(&parse(src).unwrap(), &mut direct).unwrap();

    for arr in ["X", "Z"] {
        for (i, (a, b)) in phased.f64s[arr].iter().zip(&direct.f64s[arr]).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
                "{arr}[{i}]: {a} vs {b}\nprogram:\n{src}"
            );
        }
    }
    Ok(())
}

#[test]
fn compiled_matches_interpreted() {
    check(
        "compiled_matches_interpreted",
        Config::cases(64),
        |g| {
            let (src, n, e) = program(g);
            let procs = g.usize_incl(1, 6);
            let k = g.usize_incl(1, 3);
            let seed = g.u64_in(0..10_000);
            (src, n, e, procs, k, seed)
        },
        |(src, n, e, procs, k, seed)| compiled_matches(src, *n, *e, *procs, *k, *seed),
    );
}

/// Former `.proptest-regressions` seed for `compiled_matches_interpreted`:
/// a single `-=` statement through `A` with `procs = 6, k = 3, seed = 0`.
#[test]
fn regression_single_sub_stmt_six_procs() {
    let src = "double X[n]; double Z[n]; double W[e]; double V[e]; int A[e]; int B[e]; int C[e];\n\
               forall (i = 0; i < e; i++) {\n  X[A[i]] -= W[i] + 1.0;\n}\n";
    compiled_matches(src, 16, 50, 6, 3, 0).unwrap();
}

#[test]
fn fission_temp_arrays_do_not_leak_into_results() {
    let src = "
        double P[n]; double Q[n]; double W[e]; int A[e]; int B[e];
        forall (i = 0; i < e; i++) {
            double f = W[i] * 3.0;
            P[A[i]] += f;
            Q[B[i]] -= f;
        }";
    let compiled = compile(src).unwrap();
    let mut b = bindings_small();
    compiled
        .execute_sim(
            &mut b,
            &StrategyConfig::new(2, 2, Distribution::Block, 1),
            SimConfig::default(),
        )
        .unwrap();
    // The temp array exists in the bindings (materialized) but is an
    // implementation detail with predictable contents.
    assert!(b.f64s.contains_key("__tmp_f"));
    for (i, v) in b.f64s["__tmp_f"].iter().enumerate() {
        assert_eq!(*v, b.f64s["W"][i] * 3.0);
    }
}

/// Bindings whose weight values are whole numbers: every partial sum is
/// exact in f64 (all magnitudes stay far below 2^53), so any summation
/// order — phased, sequential, gather, native — produces bit-identical
/// results. The bit-identity properties below all use these.
fn int_bindings(n: usize, e: usize, seed: u64) -> Bindings {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut b = Bindings::default();
    b.sizes.insert("n".into(), n);
    b.sizes.insert("e".into(), e);
    for name in ["W", "V"] {
        b.f64s
            .insert(name.into(), (0..e).map(|_| (next() % 64) as f64).collect());
    }
    for name in ["A", "B", "C"] {
        b.ints.insert(
            name.into(),
            (0..e).map(|_| (next() % n as u64) as u32).collect(),
        );
    }
    b
}

fn assert_bits_eq(label: &str, src: &str, got: &Bindings, want: &Bindings) -> Result<(), String> {
    for arr in ["X", "Z"] {
        for (i, (a, b)) in got.f64s[arr].iter().zip(&want.f64s[arr]).enumerate() {
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "{label}: {arr}[{i}] = {a} vs interpreter {b}\nprogram:\n{src}"
            );
        }
    }
    Ok(())
}

/// Compiled execution is *bit-identical* to the interpreter across every
/// engine: the phased engine on the simulator and on native threads, and
/// the sequential engine. The generator includes un-annotated
/// multi-group programs, so automatic fission is exercised on every
/// engine.
#[test]
fn engines_bit_identical_to_interpreter() {
    check(
        "engines_bit_identical_to_interpreter",
        Config::cases(48),
        |g| {
            let (src, n, e) = program(g);
            let procs = g.usize_incl(1, 5);
            let k = g.usize_incl(1, 3);
            let seed = g.u64_in(0..10_000);
            (src, n, e, procs, k, seed)
        },
        |(src, n, e, procs, k, seed)| {
            let compiled = compile(src).expect("generated programs compile");
            let strat = StrategyConfig::new(*procs, *k, Distribution::Cyclic, 1);

            let mut want = int_bindings(*n, *e, *seed);
            interpret(&parse(src).unwrap(), &mut want).unwrap();

            let mut sim = int_bindings(*n, *e, *seed);
            compiled
                .execute_sim(&mut sim, &strat, SimConfig::default())
                .unwrap();
            assert_bits_eq("phased/sim", src, &sim, &want)?;

            let mut native = int_bindings(*n, *e, *seed);
            compiled
                .execute_with(
                    &mut native,
                    &PhasedEngine::native(NativeConfig::default()),
                    &strat,
                )
                .unwrap();
            assert_bits_eq("phased/native", src, &native, &want)?;

            // Sequential engine (the shed path the server falls back to).
            let mut seq = int_bindings(*n, *e, *seed);
            compiled
                .execute_with(
                    &mut seq,
                    &SeqEngine::new(ExecutionConfig::default()),
                    &strat,
                )
                .unwrap();
            assert_bits_eq("seq", src, &seq, &want)
        },
    );
}

/// The native thread-pool backend under a *lossless* fault plan
/// (delayed / duplicated / reordered messages, no drops) is still
/// bit-identical to the interpreter: reductions are pure dataflow and
/// the weights are whole numbers.
#[test]
fn native_with_lossless_faults_bit_identical_to_interpreter() {
    check(
        "native_with_lossless_faults_bit_identical_to_interpreter",
        Config::cases(16),
        |g| {
            let (src, n, e) = program(g);
            let procs = g.usize_incl(1, 3);
            let k = g.usize_incl(1, 2);
            let seed = g.u64_in(0..10_000);
            (src, n, e, procs, k, seed)
        },
        |(src, n, e, procs, k, seed)| {
            let compiled = compile(src).expect("generated programs compile");
            let strat = StrategyConfig::new(*procs, *k, Distribution::Cyclic, 1);

            let mut want = int_bindings(*n, *e, *seed);
            interpret(&parse(src).unwrap(), &mut want).unwrap();

            let native = NativeConfig {
                faults: Some(FaultConfig::lossless(*seed)),
                ..NativeConfig::default()
            };
            let mut got = int_bindings(*n, *e, *seed);
            compiled
                .execute_flat(&mut got, &strat, &PhasedEngine::native(native))
                .unwrap();
            assert_bits_eq("native+lossless", src, &got, &want)
        },
    );
}

/// A hand-written [`EdgeKernel`] mirroring the paper's Fig. 1 loop: the
/// compiled DSL program and the hand-built [`PhasedSpec`] must agree
/// bit-for-bit — the compiler's lowering adds nothing and loses nothing
/// relative to writing the kernel by hand.
struct Fig1Kernel {
    w: Vec<f64>,
}

impl EdgeKernel for Fig1Kernel {
    fn contrib(&self, _read: &[f64], iter: usize, _elems: &[u32], out: &mut [f64]) {
        let f = self.w[iter] * 0.5;
        out[0] = f; // X[IA1[i]] += f
        out[1] = -f; // X[IA2[i]] -= f
    }
}

#[test]
fn compiled_matches_hand_built_kernel_spec() {
    let src = "
        double X[n]; double W[e]; int A[e]; int B[e];
        forall (i = 0; i < e; i++) {
            double f = W[i] * 0.5;
            X[A[i]] += f;
            X[B[i]] -= f;
        }";
    let (n, e, seed) = (32usize, 200usize, 9u64);
    let strat = StrategyConfig::new(3, 2, Distribution::Cyclic, 1);

    let mut b = int_bindings(n, e, seed);
    compile(src)
        .unwrap()
        .execute_sim(&mut b, &strat, SimConfig::default())
        .unwrap();

    let spec = PhasedSpec {
        kernel: Arc::new(Fig1Kernel {
            w: b.f64s["W"].clone(),
        }),
        num_elements: n,
        indirection: Arc::new(vec![b.ints["A"].clone(), b.ints["B"].clone()]),
    };
    let out = PhasedEngine::sim(SimConfig::default())
        .run(&spec, &strat)
        .unwrap();

    // The DSL accumulates onto X's prior contents (zeros here), so the
    // engine's pure sum is directly comparable.
    for (i, (got, want)) in b.f64s["X"].iter().zip(&out.values[0]).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "X[{i}]: compiled {got} vs hand-built kernel {want}"
        );
    }
}

/// Cross-executor check: a single-group `X[A[i]] += W[i]` reduction is
/// an SpMV in disguise. Build the equivalent CSR matrix by hand (row
/// `r` holds one entry of value `W[i]` per iteration `i` with
/// `A[i] == r`), run it through the gather-rotation executor on both
/// the simulator and the native backend, and demand bit-identity with
/// the compiled phased result.
#[test]
fn single_group_reduction_matches_hand_built_gather_spmv() {
    let src = "
        double X[n]; double W[e]; int A[e];
        forall (i = 0; i < e; i++) {
            X[A[i]] += W[i];
        }";
    let (n, e, seed) = (24usize, 180usize, 17u64);
    let strat = StrategyConfig::new(2, 2, Distribution::Block, 1);

    let mut b = int_bindings(n, e, seed);
    compile(src)
        .unwrap()
        .execute_sim(&mut b, &strat, SimConfig::default())
        .unwrap();

    // Rows = reduction elements, columns = iterations, entries in
    // ascending iteration order within each row — the same order the
    // phased executor's owner-local accumulation visits them.
    let a = &b.ints["A"];
    let mut row_ptr = vec![0u64; n + 1];
    let mut col_idx = Vec::with_capacity(e);
    let mut values = Vec::with_capacity(e);
    for r in 0..n {
        for (i, &ai) in a.iter().enumerate() {
            if ai as usize == r {
                col_idx.push(i as u32);
                values.push(b.f64s["W"][i]);
            }
        }
        row_ptr[r + 1] = col_idx.len() as u64;
    }
    let spec = GatherSpec {
        matrix: Arc::new(SparseMatrix {
            nrows: n,
            ncols: e,
            row_ptr,
            col_idx,
            values,
        }),
        x: Arc::new(vec![1.0; e]),
    };

    for (label, out) in [
        (
            "gather/sim",
            GatherEngine::sim(SimConfig::default())
                .run(&spec, &strat)
                .unwrap(),
        ),
        (
            "gather/native",
            GatherEngine::native(NativeConfig::default())
                .run(&spec, &strat)
                .unwrap(),
        ),
    ] {
        for (i, (got, want)) in out.values[0].iter().zip(&b.f64s["X"]).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{label}: y[{i}] = {got} vs compiled X {want}"
            );
        }
    }
}

/// An un-annotated two-group loop with a shared scalar must fission into
/// two phased loops plus a temp prelude, and each fissioned loop must
/// run on the flat fast path — checked through the public report, not
/// crate internals.
#[test]
fn multi_group_fission_reaches_flat_path_on_every_engine() {
    let src = "
        double X[n]; double Z[n]; double W[e]; int A[e]; int B[e];
        forall (i = 0; i < e; i++) {
            double f = W[i] * 2.0;
            X[A[i]] += f;
            Z[B[i]] -= f;
        }";
    let compiled = compile(src).unwrap();
    assert!(
        compiled.log.iter().any(|l| l.contains("fission")),
        "compile log must record the fission decision: {:?}",
        compiled.log
    );

    let strat = StrategyConfig::new(2, 2, Distribution::Cyclic, 1);
    let (n, e, seed) = (20usize, 120usize, 5u64);

    let mut want = int_bindings(n, e, seed);
    interpret(&parse(src).unwrap(), &mut want).unwrap();

    let mut b = int_bindings(n, e, seed);
    let rep = compiled
        .execute_sim(&mut b, &strat, SimConfig::default())
        .unwrap();
    assert_eq!(rep.phased_loops, 2, "one phased loop per reference group");
    assert_eq!(rep.regular_loops, 1, "temp-array prelude runs sequentially");
    assert_bits_eq("fissioned flat/sim", src, &b, &want).unwrap();

    let mut nat = int_bindings(n, e, seed);
    compiled
        .execute_flat(
            &mut nat,
            &strat,
            &PhasedEngine::native(NativeConfig::default()),
        )
        .unwrap();
    assert_bits_eq("fissioned flat/native", src, &nat, &want).unwrap();
}

/// A random expression over the loop variable, the locals defined so
/// far, and direct / indirect reads of every f64 array (stored ones
/// included, so statement and iteration order are observable). Division
/// is by a nonzero literal only.
fn regular_expr(g: &mut Gen, locals: usize, depth: usize) -> String {
    let arrays = ["Y", "Z", "U", "W", "V"];
    if depth == 0 || g.prob(0.3) {
        return match g.usize_in(0..5) {
            0 => format!("{}.5", g.usize_in(0..9)),
            1 => "i".into(),
            2 if locals > 0 => format!("t{}", g.usize_in(0..locals)),
            3 => format!("{}[{}[i]]", g.pick(&arrays), g.pick(&["A", "B"])),
            _ => format!("{}[i]", g.pick(&arrays)),
        };
    }
    let lhs = regular_expr(g, locals, depth - 1);
    match g.usize_in(0..5) {
        0 => format!("-({lhs})"),
        1 => format!("({lhs}) / {}.25", g.usize_incl(1, 7)),
        op => format!(
            "({lhs}) {} ({})",
            ["+", "-", "*"][op - 2],
            regular_expr(g, locals, depth - 1)
        ),
    }
}

/// One to three consecutive regular loops over shared arrays: later
/// loops read what earlier ones stored.
fn regular_program(g: &mut Gen) -> String {
    let mut src = String::from(
        "double Y[e]; double Z[e]; double U[e]; double W[e]; double V[e]; int A[e]; int B[e];\n",
    );
    for _ in 0..g.usize_incl(1, 3) {
        src.push_str("forall (i = 0; i < e; i++) {\n");
        let mut locals = 0;
        for _ in 0..g.usize_incl(1, 5) {
            let value = regular_expr(g, locals, 3);
            if g.prob(0.4) {
                src.push_str(&format!("  double t{locals} = {value};\n"));
                locals += 1;
            } else {
                let op = if g.prob(0.5) { "=" } else { "+=" };
                src.push_str(&format!(
                    "  {}[i] {op} {value};\n",
                    g.pick(&["Y", "Z", "U"])
                ));
            }
        }
        src.push_str("}\n");
    }
    src
}

/// The lowered regular loops a compiled program runs are bit-identical
/// to the interpreter (`interpret_loop`, the reference semantics) on
/// arbitrary floats.
#[test]
fn lowered_regular_loops_bit_identical_to_interpreter() {
    check(
        "lowered_regular_loops_bit_identical_to_interpreter",
        Config::cases(96),
        |g| {
            (
                regular_program(g),
                g.usize_incl(1, 300),
                g.u64_in(0..10_000),
            )
        },
        |(src, e, seed)| {
            let compiled = compile(src).map_err(|d| format!("{d}\nprogram:\n{src}"))?;
            let mut want = bindings(*e, *e, *seed);
            interpret(&parse(src).unwrap(), &mut want).unwrap();

            let strat = StrategyConfig::new(2, 2, Distribution::Cyclic, 1);
            let mut got = bindings(*e, *e, *seed);
            let rep = compiled
                .execute_sim(&mut got, &strat, SimConfig::default())
                .unwrap();
            prop_assert!(rep.phased_loops == 0 && rep.regular_loops >= 1);
            for arr in ["Y", "Z", "U", "W", "V"] {
                for (i, (a, b)) in got.f64s[arr].iter().zip(&want.f64s[arr]).enumerate() {
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "{arr}[{i}] = {a} vs interpreter {b}\nprogram:\n{src}"
                    );
                }
            }
            Ok(())
        },
    );
}

/// The checked-in multigroup fixture (prelude + two phased loops): the
/// compiled program and the interpreter agree bit for bit, and under the
/// CLI's defaults the simulated cost is the number the fixture has
/// always produced — lowering the prelude and preparing through the
/// engine instead of adopting emitted plans change host time only,
/// never the modeled machine.
#[test]
fn multigroup_fixture_paths_agree_and_sim_cycles_are_pinned() {
    let src = include_str!("../crates/threadedc/testdata/multigroup.tc");
    let compiled = compile(src).unwrap();
    let strat = StrategyConfig::new(4, 2, Distribution::Cyclic, 1);
    let sim = PhasedEngine::sim(SimConfig::default());

    let mut cli = threadedc::synthetic_bindings(&compiled.program, 64);
    let rep = compiled
        .execute_sim(&mut cli, &strat, SimConfig::default())
        .unwrap();
    assert_eq!(rep.time_cycles, 10_792);

    let mut want = int_bindings(48, 333, 4);
    interpret(&parse(src).unwrap(), &mut want).unwrap();
    let mut got = int_bindings(48, 333, 4);
    let rep = compiled.execute_with(&mut got, &sim, &strat).unwrap();
    assert_eq!(rep.phased_loops, 2);
    for arr in ["P", "Q", "W"] {
        for (i, w) in want.f64s[arr].iter().enumerate() {
            assert_eq!(got.f64s[arr][i].to_bits(), w.to_bits(), "{arr}[{i}]");
        }
    }
}

fn bindings_small() -> Bindings {
    let mut b = Bindings::default();
    b.sizes.insert("n".into(), 16);
    b.sizes.insert("e".into(), 40);
    b.f64s
        .insert("W".into(), (0..40).map(|i| i as f64).collect());
    b.ints
        .insert("A".into(), (0..40).map(|i| (i * 7 % 16) as u32).collect());
    b.ints
        .insert("B".into(), (0..40).map(|i| (i * 11 % 16) as u32).collect());
    b
}

/// A random expression for a phased loop body: the loop variable,
/// locals defined so far, direct reads of `W`/`V` and indirect reads of
/// the read-only `Z`. Division is by a nonzero literal only.
fn phased_expr(g: &mut Gen, locals: usize, depth: usize) -> String {
    if depth == 0 || g.prob(0.3) {
        return match g.usize_in(0..5) {
            0 => format!("{}.5", g.usize_in(0..9)),
            1 => "i".into(),
            2 if locals > 0 => format!("t{}", g.usize_in(0..locals)),
            3 => format!("Z[{}[i]]", g.pick(&["A", "B", "C"])),
            _ => format!("{}[i]", g.pick(&["W", "V"])),
        };
    }
    let lhs = phased_expr(g, locals, depth - 1);
    match g.usize_in(0..5) {
        0 => format!("-({lhs})"),
        1 => format!("({lhs}) / {}.25", g.usize_incl(1, 7)),
        op => format!(
            "({lhs}) {} ({})",
            ["+", "-", "*"][op - 2],
            phased_expr(g, locals, depth - 1)
        ),
    }
}

/// Any f64, with the special classes drawn often: ±0, subnormals, ±inf,
/// NaN (payload included), and arbitrary bit patterns.
fn any_f64(g: &mut Gen) -> f64 {
    let sign = if g.prob(0.5) { 1u64 << 63 } else { 0 };
    let bits = match g.usize_in(0..6) {
        0 => 0,
        1 => g.u64_in(1..1 << 52),
        2 => 0x7ff0_0000_0000_0000,
        3 => 0x7ff0_0000_0000_0000 | g.u64_in(1..1 << 52),
        4 => (g.u64_in(1..10) as f64).to_bits(),
        _ => g.u64_any(),
    };
    f64::from_bits(bits | sign)
}

/// One case of the batch property: a single-group phased program (so
/// its locals stay in the phased body), its bindings, and the `giters`
/// lists each kernel is probed with.
#[derive(Debug)]
struct BatchCase {
    src: String,
    n: usize,
    f64s: Vec<(&'static str, Vec<f64>)>,
    ints: Vec<(&'static str, Vec<u32>)>,
    giters: Vec<Vec<u32>>,
}

fn batch_case(g: &mut Gen) -> BatchCase {
    let (n, e) = (g.usize_incl(1, 16), g.usize_incl(1, 60));
    let mut src = String::from(
        "double X[n]; double Z[n]; double W[e]; double V[e]; int A[e]; int B[e]; int C[e];\n\
         forall (i = 0; i < e; i++) {\n",
    );
    let (mut locals, mut writes) = (0, 0);
    for _ in 0..g.usize_incl(1, 6) {
        let value = phased_expr(g, locals, 3);
        if g.prob(0.4) {
            src.push_str(&format!("  double t{locals} = {value};\n"));
            locals += 1;
        } else {
            let op = g.pick(&["+=", "-="]);
            src.push_str(&format!("  X[{}[i]] {op} {value};\n", g.pick(&["A", "B"])));
            writes += 1;
        }
    }
    if writes == 0 {
        src.push_str(&format!("  X[A[i]] -= {};\n", phased_expr(g, locals, 3)));
    }
    src.push_str("}\n");
    let f64s = vec![
        ("W", g.vec(e, e, any_f64)),
        ("V", g.vec(e, e, any_f64)),
        ("Z", g.vec(n, n, any_f64)),
    ];
    let ints = ["A", "B", "C"]
        .map(|name| (name, g.vec(e, e, |g| g.u32_in(0..n as u32))))
        .to_vec();
    let giters = (0..3)
        .map(|_| g.vec(0, 40, |g| g.u32_in(0..e as u32)))
        .collect();
    BatchCase {
        src,
        n,
        f64s,
        ints,
        giters,
    }
}

/// A test engine that probes every kernel it is handed — batch against
/// per-iteration `contrib` over its `giters` lists — then runs the spec
/// on the sequential engine so the program carries on.
struct BatchProbe<'a> {
    giters: &'a [Vec<u32>],
    seq: SeqEngine,
    probed: Cell<usize>,
    mismatch: RefCell<Option<String>>,
}

impl ReductionEngine<PhasedSpec<InterpKernel>> for BatchProbe<'_> {
    type Prepared = <SeqEngine as ReductionEngine<PhasedSpec<InterpKernel>>>::Prepared;

    fn name(&self) -> &'static str {
        "batch-probe"
    }

    fn prepare(
        &self,
        spec: &PhasedSpec<InterpKernel>,
        strat: &StrategyConfig,
    ) -> Result<Self::Prepared, EngineError> {
        self.probed.set(self.probed.get() + 1);
        let k = &spec.kernel;
        let m = k.num_refs();
        let w = m * k.num_arrays();
        for giters in self.giters {
            let elems: Vec<u32> = giters
                .iter()
                .flat_map(|&i| spec.indirection.iter().map(move |a| a[i as usize]))
                .collect();
            let mut batch = vec![0.0; giters.len() * w];
            k.contrib_batch(&[], giters, &elems, &mut batch);
            for (j, &gi) in giters.iter().enumerate() {
                let mut one = vec![0.0; w];
                k.contrib(&[], gi as usize, &elems[j * m..(j + 1) * m], &mut one);
                for (s, (b, o)) in batch[j * w..(j + 1) * w].iter().zip(&one).enumerate() {
                    if b.to_bits() != o.to_bits() && self.mismatch.borrow().is_none() {
                        *self.mismatch.borrow_mut() = Some(format!(
                            "giters {giters:?}: batch[{j}][{s}] = {b:e} ({:#x}) vs contrib \
                             {o:e} ({:#x})",
                            b.to_bits(),
                            o.to_bits()
                        ));
                    }
                }
            }
        }
        self.seq.prepare(spec, strat)
    }

    fn execute(
        &self,
        prepared: &mut Self::Prepared,
        ws: &mut Workspace,
    ) -> Result<RunOutcome, EngineError> {
        self.seq.execute(prepared, ws)
    }
}

/// `InterpKernel::contrib_batch` — a block of iterations per statement —
/// equals per-iteration `contrib` bit for bit: on arbitrary f64 bit
/// patterns, batch lengths 0..=40 (partial blocks), repeated and
/// out-of-order iterations, negated writes and locals.
#[test]
fn interp_kernel_batch_equals_contrib() {
    check(
        "interp_kernel_batch_equals_contrib",
        Config::cases(96),
        batch_case,
        |c| {
            let compiled = compile(&c.src).map_err(|d| format!("{d}\nprogram:\n{}", c.src))?;
            let mut b = Bindings::default();
            b.sizes.insert("n".into(), c.n);
            b.sizes.insert("e".into(), c.ints[0].1.len());
            for (name, v) in &c.f64s {
                b.f64s.insert((*name).into(), v.clone());
            }
            for (name, v) in &c.ints {
                b.ints.insert((*name).into(), v.clone());
            }
            let probe = BatchProbe {
                giters: &c.giters,
                seq: SeqEngine::new(ExecutionConfig::default()),
                probed: Cell::new(0),
                mismatch: RefCell::new(None),
            };
            let strat = StrategyConfig::new(2, 1, Distribution::Cyclic, 1);
            compiled
                .execute_with(&mut b, &probe, &strat)
                .map_err(|e| format!("{e}\nprogram:\n{}", c.src))?;
            prop_assert!(probe.probed.get() == 1, "one phased loop\n{}", c.src);
            match probe.mismatch.into_inner() {
                Some(m) => Err(format!("{m}\nprogram:\n{}", c.src)),
                None => Ok(()),
            }
        },
    );
}

/// `Y[i] = Y[A[i]] + 1.0` with `A[i] = i - 1` carries each iteration's
/// store into the next one's read, across block boundaries: a body that
/// reads a stored array through an indirection must run a row at a time
/// and match the interpreter.
#[test]
fn regular_loop_reading_its_own_store_indirectly_matches_interpreter() {
    let src = "double Y[e]; int A[e];\n\
               forall (i = 0; i < e; i++) {\n  Y[i] = Y[A[i]] + 1.0;\n}\n";
    let e = 40usize;
    let fresh = || {
        let mut b = Bindings::default();
        b.sizes.insert("e".into(), e);
        b.f64s
            .insert("Y".into(), (0..e).map(|i| i as f64 * 10.0).collect());
        b.ints.insert(
            "A".into(),
            (0..e).map(|i| i.saturating_sub(1) as u32).collect(),
        );
        b
    };
    let mut want = fresh();
    interpret(&parse(src).unwrap(), &mut want).unwrap();
    let compiled = compile(src).unwrap();
    let strat = StrategyConfig::new(2, 2, Distribution::Cyclic, 1);
    let mut got = fresh();
    compiled
        .execute_sim(&mut got, &strat, SimConfig::default())
        .unwrap();
    for (i, (a, w)) in got.f64s["Y"].iter().zip(&want.f64s["Y"]).enumerate() {
        assert_eq!(a.to_bits(), w.to_bits(), "Y[{i}] = {a} vs {w}");
    }
}
