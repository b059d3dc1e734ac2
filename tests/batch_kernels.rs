//! Property suite for the coefficient-table batch body,
//! `irred::scaled_batch`, and the two kernels that run it.
//!
//! 1. **The body equals a scalar reference, bit for bit.** Slot `s` of
//!    iteration `giters[j]` is `coeffs[s] * weights[giters[j]]`, one
//!    multiplication per slot. Every case runs every width 0..=20, so each
//!    const arm (1, 2, 4) and the run-time-width arm run,
//!    on arbitrary f64 bit patterns (±0, subnormals, ±inf, quiet and
//!    signalling NaNs with payloads) and on repeated, out-of-order
//!    `giters`.
//! 2. **`JobKernel`'s batch equals its per-iteration `contrib`** on all
//!    12 wire shapes (1..=4 refs × 1..=3 arrays) and a directly built
//!    5 × 4 shape, and both equal `(r + 1) · (a + 1) · w` evaluated left
//!    to right.
//! 3. **`FamilyKernel`'s batch equals its per-iteration `contrib`** on
//!    power-law, hot-key and particle-in-cell decks, with the generated
//!    weights replaced by arbitrary bit patterns.
//!
//! The phased runs' agreement with the per-iteration callers of
//! `contrib` — `SeqEngine` and the IE baseline — rests on 2 and 3: every
//! phased sweep calls `contrib_batch`.

use std::sync::Arc;

use harness::prop::{check, Config, Gen};
use irred::{scaled_batch, EdgeKernel};
use kernels::FamilyProblem;
use server::executor::JobKernel;
use workloads::{FamilySpec, HotKeyScatter, PicDeck, PowerLawGraph};

/// Bit patterns the float classes hide in: signed zeros, the extreme
/// subnormals, infinities, quiet and signalling NaNs of both signs with
/// payloads, and the finite extremes.
const SPECIAL: [u64; 14] = [
    0x0000_0000_0000_0000, // +0
    0x8000_0000_0000_0000, // -0
    0x0000_0000_0000_0001, // smallest subnormal
    0x800F_FFFF_FFFF_FFFF, // largest negative subnormal
    0x7FF0_0000_0000_0000, // +inf
    0xFFF0_0000_0000_0000, // -inf
    0x7FF8_0000_0000_0000, // quiet NaN
    0xFFF8_0000_0000_1234, // negative quiet NaN with payload
    0x7FF0_0000_0000_0001, // signalling NaN
    0xFFF4_0000_0000_0000, // negative signalling NaN
    0x7FEF_FFFF_FFFF_FFFF, // f64::MAX
    0x0010_0000_0000_0000, // f64::MIN_POSITIVE
    0x3FF0_0000_0000_0000, // 1.0
    0xBFF0_0000_0000_0000, // -1.0
];

/// An arbitrary f64: a special pattern, any bit pattern, or an ordinary
/// value. Shrinks toward +0.
fn any_f64(g: &mut Gen) -> f64 {
    match g.usize_in(0..3) {
        0 => f64::from_bits(*g.pick(&SPECIAL)),
        1 => f64::from_bits(g.u64_any()),
        _ => g.f64_in(-1e3..1e3),
    }
}

/// A `giters` stream over `n` weights: uniform draws, so a stream longer
/// than `n` repeats indices and every stream is out of order.
fn any_giters(g: &mut Gen, n: usize) -> Vec<u32> {
    g.vec(0, 40, |g| g.u32_in(0..n as u32))
}

/// `a` and `b` are the same result of `c * x`: the same bits, except
/// that when both operands are NaN, IEEE 754 lets either payload
/// propagate (the compiler may commute the operands), so both must be
/// some NaN.
fn same_product(c: f64, x: f64, a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (c.is_nan() && x.is_nan() && a.is_nan() && b.is_nan())
}

#[derive(Debug, Clone)]
struct BodyCase {
    weights: Vec<f64>,
    coeffs: Vec<f64>,
    giters: Vec<u32>,
}

#[test]
fn scaled_batch_equals_scalar_reference() {
    check(
        "scaled_batch_equals_scalar_reference",
        Config::cases(64),
        |g: &mut Gen| {
            let weights = g.vec(1, 12, any_f64);
            let giters = any_giters(g, weights.len());
            BodyCase {
                coeffs: (0..20).map(|_| any_f64(g)).collect(),
                weights,
                giters,
            }
        },
        |c| {
            for w in 0..=20 {
                let coeffs = &c.coeffs[..w];
                // A sentinel, not zeros: every slot must be assigned.
                let mut out = vec![f64::from_bits(0x7FF0_DEAD_BEEF_0001); c.giters.len() * w];
                scaled_batch(&c.weights, coeffs, &c.giters, &mut out);
                for (j, &gi) in c.giters.iter().enumerate() {
                    let x = c.weights[gi as usize];
                    for (s, &k) in coeffs.iter().enumerate() {
                        let got = out[j * w + s];
                        if !same_product(k, x, got, k * x) {
                            return Err(format!(
                                "w = {w}, iteration {j} (giter {gi}), slot {s}: \
                                 {k:e} * {x:e} gave {:#018x}, reference {:#018x}",
                                got.to_bits(),
                                (k * x).to_bits()
                            ));
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// `kernel.contrib_batch` over `giters` equals one pre-zeroed `contrib`
/// per iteration, bit for bit. Returns the batch output.
fn batch_equals_contrib<K: EdgeKernel>(kernel: &K, giters: &[u32]) -> Result<Vec<f64>, String> {
    let m = kernel.num_refs();
    let w = m * kernel.num_arrays();
    let elems = vec![0u32; giters.len() * m];
    let mut batch = vec![0.0; giters.len() * w];
    kernel.contrib_batch(&[], giters, &elems, &mut batch);
    let mut one = vec![0.0; w];
    for (j, &gi) in giters.iter().enumerate() {
        one.fill(0.0);
        kernel.contrib(&[], gi as usize, &elems[j * m..(j + 1) * m], &mut one);
        for (s, (&a, &b)) in batch[j * w..(j + 1) * w].iter().zip(&one).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "{m} refs × {} arrays, iteration {j} (giter {gi}), slot {s}: \
                     batch {:#018x}, contrib {:#018x}",
                    kernel.num_arrays(),
                    a.to_bits(),
                    b.to_bits()
                ));
            }
        }
    }
    Ok(batch)
}

#[derive(Debug, Clone)]
struct WeightCase {
    weights: Vec<f64>,
    giters: Vec<u32>,
}

fn gen_weight_case(g: &mut Gen) -> WeightCase {
    let weights = g.vec(1, 24, any_f64);
    let giters = any_giters(g, weights.len());
    WeightCase { weights, giters }
}

#[test]
fn job_kernel_batch_equals_contrib_on_every_wire_shape() {
    check(
        "job_kernel_batch_equals_contrib_on_every_wire_shape",
        Config::cases(64),
        gen_weight_case,
        |c| {
            let wire = (1..=4).flat_map(|r| (1..=3).map(move |a| (r, a)));
            for (num_refs, num_arrays) in wire.chain([(5, 4)]) {
                let kernel = JobKernel {
                    num_refs,
                    num_arrays,
                    weights: Arc::new(c.weights.clone()),
                };
                let batch = batch_equals_contrib(&kernel, &c.giters)?;
                let w = num_refs * num_arrays;
                for (j, &gi) in c.giters.iter().enumerate() {
                    let x = c.weights[gi as usize];
                    for r in 0..num_refs {
                        for a in 0..num_arrays {
                            let want = (r + 1) as f64 * (a + 1) as f64 * x;
                            let got = batch[j * w + r * num_arrays + a];
                            if got.to_bits() != want.to_bits() {
                                return Err(format!(
                                    "{num_refs} × {num_arrays}, iteration {j}, ref {r}, \
                                     array {a}: {:#018x}, formula {:#018x}",
                                    got.to_bits(),
                                    want.to_bits()
                                ));
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

#[derive(Debug, Clone)]
struct FamilyCase {
    family: usize,
    components: usize,
    seed: u64,
    weights: Vec<f64>,
    giters: Vec<u32>,
}

fn family_deck(c: &FamilyCase) -> Result<FamilySpec, String> {
    let deck = match c.family {
        0 => PowerLawGraph::generate(24, 60, 1.5, c.seed).map(|g| g.to_family(c.seed)),
        1 => HotKeyScatter::generate(24, 60, 2, 0.9, c.components, c.seed)
            .map(|d| d.to_family(c.seed)),
        _ => PicDeck::generate(16, 60, 1, 0.4, c.seed).map(|d| d.initial()),
    };
    deck.map_err(|e| format!("generate: {e}"))
}

#[test]
fn family_kernel_batch_equals_contrib_on_every_generator() {
    check(
        "family_kernel_batch_equals_contrib_on_every_generator",
        Config::cases(64),
        |g: &mut Gen| FamilyCase {
            family: g.usize_in(0..3),
            components: g.usize_incl(1, 8),
            seed: g.u64_any(),
            // Every deck above has 60 iterations.
            weights: (0..60).map(|_| any_f64(g)).collect(),
            giters: any_giters(g, 60),
        },
        |c| {
            let mut deck = family_deck(c)?;
            assert_eq!(deck.num_iterations(), c.weights.len());
            deck.weights = c.weights.clone();
            let p = FamilyProblem::from_family(deck);
            batch_equals_contrib(p.spec.kernel.as_ref(), &c.giters).map(|_| ())
        },
    );
}
