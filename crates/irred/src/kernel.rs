//! The kernel abstraction: what an irregular reduction loop computes.
//!
//! A kernel corresponds to the *body* of the paper's Figure-1 loop: per
//! iteration it produces contributions to one or more reduction arrays
//! through each of its `m` indirection references, possibly reading
//! per-iteration ("edge") data it owns and node-level read arrays
//! (replicated across processors, refreshed after each sweep when the
//! kernel's post-sweep step writes them — e.g. `moldyn`'s position
//! update from accumulated forces).
//!
//! The cost-profile methods (`flops_per_iter`, `edge_reads_per_iter`,
//! `node_reads_per_elem`, `post_flops_per_elem`) tell the simulator's
//! measuring sweep what to charge besides the executor's own array
//! traffic.

use std::ops::Range;

/// An irregular-reduction loop body.
///
/// Implementations must be deterministic functions of their inputs: the
/// phased executor may evaluate iterations in any order, and validation
/// relies on comparing against a sequential evaluation.
pub trait EdgeKernel: Send + Sync + 'static {
    /// Number of distinct indirection references per iteration (`m` in
    /// the paper; 2 for edge/interaction loops).
    fn num_refs(&self) -> usize {
        2
    }

    /// Number of reduction arrays updated together (the *reference
    /// group* width — e.g. 3 for a force field's x/y/z components).
    fn num_arrays(&self) -> usize {
        1
    }

    /// Number of replicated node-level read arrays (e.g. positions).
    fn num_read_arrays(&self) -> usize {
        0
    }

    /// Initial contents of the read arrays in *element-major interleaved*
    /// layout: `num_elements * num_read_arrays()` doubles, where
    /// `read[el * num_read_arrays() + a]` is read array `a` at element
    /// `el`. One struct of `num_read_arrays()` doubles per element — a
    /// kernel iteration touches one cache line per referenced element,
    /// not one per component. Called once per prepare.
    fn init_read(&self) -> Vec<f64> {
        Vec::new()
    }

    /// Whether `post_sweep` mutates the read arrays (requiring the
    /// executor to broadcast refreshed segments between sweeps). Must be
    /// constant for the lifetime of the kernel — it determines the sync
    /// graph built before execution.
    fn updates_read_state(&self) -> bool {
        false
    }

    /// Compute the contributions of (global) iteration `iter`.
    ///
    /// * `read` — the node's replicated read arrays, element-major
    ///   interleaved: `read[el * num_read_arrays() + a]` (see
    ///   [`Self::init_read`]); empty when `num_read_arrays() == 0`;
    /// * `elems` — the `m` global reduction elements this iteration
    ///   updates (original indirection values);
    /// * `out` — `num_refs() * num_arrays()` slots, laid out
    ///   `out[r * num_arrays() + a]` = contribution to array `a` through
    ///   reference `r`. All slots are pre-zeroed.
    fn contrib(&self, read: &[f64], iter: usize, elems: &[u32], out: &mut [f64]);

    /// Compute the contributions of a *chunk* of iterations into a
    /// caller-provided buffer: iteration `giters[j]` (with elements
    /// `elems[j*m..(j+1)*m]`) writes the
    /// `num_refs() * num_arrays()`-wide slot group
    /// `out[j*w..(j+1)*w]`. This is the hook of the chunked kernel that
    /// runs every native phase and every replayed simulator sweep.
    ///
    /// The default costs one [`Self::contrib`] call per iteration, with
    /// `m` and `w` read at run time, so nothing unrolls or vectorizes
    /// across iterations. Kernels on a hot path override it with a
    /// branchless batch body the compiler can auto-vectorize. A kernel
    /// whose slot `s` is `coeffs[s] · weight[i]` overrides this with the
    /// shared [`scaled_batch`].
    ///
    /// **Contract:** an override must produce, slot for slot, the
    /// bit-identical values of `num_refs()*num_arrays()` pre-zeroed
    /// per-iteration `contrib` calls — the phased runs' agreement with
    /// the per-iteration callers, `SeqEngine` and the IE baseline, rests
    /// on it (unit-tested beside each override, property-tested in
    /// `tests/batch_kernels.rs`). `out`
    /// arrives zeroed; overrides that assign every slot may rely on
    /// nothing else.
    fn contrib_batch(&self, read: &[f64], giters: &[u32], elems: &[u32], out: &mut [f64]) {
        let m = self.num_refs();
        let w = m * self.num_arrays();
        for (j, &gi) in giters.iter().enumerate() {
            self.contrib(
                read,
                gi as usize,
                &elems[j * m..(j + 1) * m],
                &mut out[j * w..(j + 1) * w],
            );
        }
    }

    /// Arithmetic cost of one `contrib` call, in floating-point ops.
    fn flops_per_iter(&self) -> u64 {
        10
    }

    /// Per-iteration data words the kernel reads (charged at the
    /// iteration's slot in the edge-data region).
    fn edge_reads_per_iter(&self) -> usize {
        1
    }

    /// Read-array words loaded per referenced element.
    fn node_reads_per_elem(&self) -> usize {
        0
    }

    /// Node-level update executed once per sweep on each portion when
    /// its reduction values are final (e.g. position integration from
    /// forces). `read` is the full interleaved read buffer (index
    /// `v * num_read_arrays() + a` for global element `v`); `x` holds
    /// the portion's final reduction values, interleaved:
    /// `x[i * num_arrays() + a]` is array `a` at element
    /// `range.start + i`. Returns whether `read` was modified.
    fn post_sweep(&self, read: &mut [f64], range: Range<usize>, x: &[f64]) -> bool {
        let _ = (read, range, x);
        false
    }

    /// Arithmetic cost of `post_sweep` per element.
    fn post_flops_per_elem(&self) -> u64 {
        0
    }
}

/// The shared batch body of coefficient-table kernels: slot `s` of
/// iteration `giters[j]` is `coeffs[s] · weights[giters[j]]`, written to
/// `out[j * w + s]` where `w = coeffs.len()`.
///
/// A kernel whose contribution is a fixed coefficient per slot times a
/// per-iteration weight calls this from `contrib_batch`; its `contrib`
/// keeps the plain `coeffs[s] * weight` loop, which is the same
/// multiplication, so the two agree bit for bit. The body is
/// monomorphised on `w` for the widths the benchmarked traffic has
/// (1, 2 and 4); every other width takes one run-time-width arm with
/// the same arithmetic. Each slot is one multiplication,
/// `coeffs[s] * weight`, in that operand order on every arm.
///
/// # Panics
/// If `out.len() != giters.len() * coeffs.len()`, or a `giters` entry
/// is out of `weights`' bounds.
pub fn scaled_batch(weights: &[f64], coeffs: &[f64], giters: &[u32], out: &mut [f64]) {
    let w = coeffs.len();
    assert_eq!(
        out.len(),
        giters.len() * w,
        "one {w}-slot group per iteration"
    );
    macro_rules! arm {
        ($w:literal) => {
            scaled::<$w>(
                weights,
                coeffs.try_into().expect("arm matched on the width"),
                giters,
                out,
            )
        };
    }
    match w {
        0 => {}
        1 => arm!(1),
        2 => arm!(2),
        4 => arm!(4),
        _ => {
            for (o, &gi) in out.chunks_exact_mut(w).zip(giters) {
                let x = weights[gi as usize];
                for (o, &c) in o.iter_mut().zip(coeffs) {
                    *o = c * x;
                }
            }
        }
    }
}

/// [`scaled_batch`] at const width `W`: the coefficient row lives in
/// registers and each slot group is a fixed-length array, so the
/// per-iteration loop unrolls with no bounds checks but the gather.
fn scaled<const W: usize>(weights: &[f64], coeffs: &[f64; W], giters: &[u32], out: &mut [f64]) {
    let c = *coeffs;
    let (groups, _) = out.as_chunks_mut::<W>();
    for (o, &gi) in groups.iter_mut().zip(giters) {
        let x = weights[gi as usize];
        for s in 0..W {
            o[s] = c[s] * x;
        }
    }
}

/// A minimal test kernel: `X[e1] += w·y[i]`, `X[e2] += 2w·y[i]` with a
/// per-iteration weight array. Used across the crate's tests.
#[derive(Debug, Clone)]
pub struct WeightedPairKernel {
    pub weights: std::sync::Arc<Vec<f64>>,
}

impl EdgeKernel for WeightedPairKernel {
    fn contrib(&self, _read: &[f64], iter: usize, _elems: &[u32], out: &mut [f64]) {
        let w = self.weights[iter];
        out[0] = w;
        out[1] = 2.0 * w;
    }

    // Branchless batch body (same arithmetic per slot as `contrib`, so
    // bit-identical): the gather + two stores per iteration
    // auto-vectorize once the bounds checks hoist. Not `scaled_batch`
    // with coefficients `[1, 2]`: slot 0 is `w` itself, and `1.0 * w`
    // is not `w` when `w` is a signalling NaN.
    fn contrib_batch(&self, _read: &[f64], giters: &[u32], _elems: &[u32], out: &mut [f64]) {
        let weights = &self.weights[..];
        for (j, &gi) in giters.iter().enumerate() {
            let w = weights[gi as usize];
            out[j * 2] = w;
            out[j * 2 + 1] = 2.0 * w;
        }
    }

    fn flops_per_iter(&self) -> u64 {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn defaults_are_consistent() {
        let k = WeightedPairKernel {
            weights: Arc::new(vec![1.0, 2.0]),
        };
        assert_eq!(k.num_refs(), 2);
        assert_eq!(k.num_arrays(), 1);
        assert_eq!(k.num_read_arrays(), 0);
        assert!(!k.updates_read_state());
        assert!(k.init_read().is_empty());
    }

    #[test]
    fn contrib_layout() {
        let k = WeightedPairKernel {
            weights: Arc::new(vec![3.0]),
        };
        let mut out = [0.0; 2];
        k.contrib(&[], 0, &[5, 9], &mut out);
        assert_eq!(out, [3.0, 6.0]);
    }

    #[test]
    fn contrib_batch_override_is_bit_identical_to_contrib() {
        let k = WeightedPairKernel {
            weights: Arc::new((0..16).map(|i| 0.1 * i as f64).collect()),
        };
        let giters: Vec<u32> = vec![3, 0, 15, 7, 7, 2];
        let elems: Vec<u32> = (0..giters.len() as u32 * 2).collect();
        let mut batch = vec![0.0; giters.len() * 2];
        k.contrib_batch(&[], &giters, &elems, &mut batch);
        for (j, &gi) in giters.iter().enumerate() {
            let mut one = [0.0; 2];
            k.contrib(&[], gi as usize, &elems[j * 2..(j + 1) * 2], &mut one);
            assert_eq!(one[0].to_bits(), batch[j * 2].to_bits());
            assert_eq!(one[1].to_bits(), batch[j * 2 + 1].to_bits());
        }
    }

    #[test]
    fn default_post_sweep_is_inert() {
        let k = WeightedPairKernel {
            weights: Arc::new(vec![]),
        };
        let mut read: Vec<f64> = vec![];
        assert!(!k.post_sweep(&mut read, 0..0, &[]));
    }
}
