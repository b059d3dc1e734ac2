//! The kernel abstraction: what an irregular reduction loop computes.
//!
//! A kernel corresponds to the *body* of the paper's Figure-1 loop: per
//! iteration it produces contributions to one or more reduction arrays
//! through each of its `m` indirection references, possibly reading
//! per-iteration ("edge") data it owns — declared as its stream
//! ([`EdgeKernel::edge`]) when plans should hold it in schedule
//! order — and node-level read arrays
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

    /// The kernel's per-iteration value stream, if it has one: one value
    /// per iteration of the loop (`num_iterations` values), fixed for
    /// the life of every plan prepared with this kernel.
    ///
    /// A phased plan gathers the stream once into each node's schedule
    /// order — one `f64` column beside the rows it streams — and hands
    /// every [`Self::contrib_batch`] the batch's values as a contiguous
    /// slice, so the kernel reads its per-iteration data at unit stride
    /// instead of through `giters` into a global array. The column is
    /// gathered again by `set_kernel` and reordered by `apply_updates`.
    ///
    /// **When to declare one:** when the plan outlives one execute, so
    /// the gather is paid once and the stream read many times — the
    /// family kernels (`engine-pic` runs one plan for the whole
    /// session), the euler kernels and [`WeightedPairKernel`]. A kernel
    /// built for a single execute gains nothing: the gather reads
    /// exactly what one sweep would, and adds a column. The server's
    /// job kernel measured so (`serve-cold` `job_ms_p50` worse in 3 of
    /// 3 pairs, RSS +12 %; `serve-warm` RSS +14–19 %; EXPERIMENTS.md
    /// "Edge data in schedule order") and declares none, nor does the
    /// compiler's interpreted kernel, whose per-iteration arrays are
    /// bound per job.
    fn edge(&self) -> Option<&[f64]> {
        None
    }

    /// Compute the contributions of a batch of (global) iterations — the
    /// one value method a kernel writes. Iteration `giters[j]` writes
    /// the `w = num_refs() * num_arrays()`-wide slot group
    /// `out[j*w..(j+1)*w]`:
    ///
    /// * `read` — the node's replicated read arrays, element-major
    ///   interleaved: `read[el * num_read_arrays() + a]` (see
    ///   [`Self::init_read`]); empty when `num_read_arrays() == 0`;
    /// * `elems[j*m..(j+1)*m]` — the `m` global reduction elements
    ///   iteration `giters[j]` updates (original indirection values);
    /// * `edge[j]` — the iteration's value of the kernel's stream,
    ///   `edge[j] == self.edge()[giters[j]]` (see [`Self::edge`]), or an
    ///   empty slice when the kernel declares no stream;
    /// * `out[j*w + r * num_arrays() + a]` — its contribution to array
    ///   `a` through reference `r`. `out` arrives zeroed.
    ///
    /// Every sweep calls it from the chunked value loop (see
    /// `crate::vector`): native phases, replayed and measuring simulator
    /// sweeps, and `SeqEngine`'s sequential sweeps. A kernel whose slot
    /// `s` is `coeffs[s] · value` writes it as the shared
    /// [`scaled_batch`] over its `edge` values.
    ///
    /// **Contract:** an iteration's slots depend only on that iteration
    /// — its `giters`, `elems` and `edge` entries — not on the batch it
    /// arrives in: a batch equals the same iterations as one-wide
    /// batches, each with its one `edge` value, bit for bit. Sequential
    /// and phased sweeps cut the same iterations into different
    /// batches, and their agreement rests on it (property-tested for
    /// the server, family and compiled kernels, unit-tested for
    /// `WeightedPairKernel` and `MolDynKernel`).
    fn contrib_batch(
        &self,
        read: &[f64],
        giters: &[u32],
        elems: &[u32],
        edge: &[f64],
        out: &mut [f64],
    );

    /// One iteration as a one-wide [`Self::contrib_batch`], for callers
    /// that walk iterations one at a time (the inspector/executor and
    /// shared-memory baselines), with its one-element slice of the
    /// stream. `out` must arrive zeroed.
    fn contrib(&self, read: &[f64], iter: usize, elems: &[u32], out: &mut [f64]) {
        let edge = self.edge().map_or(&[][..], |s| &s[iter..=iter]);
        let iter = u32::try_from(iter).expect("a loop's iterations are u32-indexed");
        self.contrib_batch(read, &[iter], elems, edge, out);
    }

    /// Arithmetic cost of one iteration, in floating-point ops.
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
/// batch row `j` is `coeffs[s] · values[j]`, written to `out[j * w + s]`
/// where `w = coeffs.len()` — a streaming multiply over the values the
/// caller hands it, one per row.
///
/// A kernel whose contribution is a fixed coefficient per slot times a
/// per-iteration value writes this as its `contrib_batch`, over the
/// `edge` slice when it declares a stream (see [`EdgeKernel::edge`]),
/// or over values it gathers itself. The body is monomorphised on `w`
/// for the widths the benchmarked traffic has (1, 2 and 4); every other
/// width takes one run-time-width arm with the same arithmetic. Each
/// slot is one multiplication, `coeffs[s] * value`, in that operand
/// order on every arm.
///
/// # Panics
/// If `out.len() != values.len() * coeffs.len()`.
pub fn scaled_batch(values: &[f64], coeffs: &[f64], out: &mut [f64]) {
    let w = coeffs.len();
    assert_eq!(out.len(), values.len() * w, "one {w}-slot group per value");
    macro_rules! arm {
        ($w:literal) => {
            scaled::<$w>(
                values,
                coeffs.try_into().expect("arm matched on the width"),
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
            for (o, &x) in out.chunks_exact_mut(w).zip(values) {
                for (o, &c) in o.iter_mut().zip(coeffs) {
                    *o = c * x;
                }
            }
        }
    }
}

/// [`scaled_batch`] at const width `W`: the coefficient row lives in
/// registers and each slot group is a fixed-length array, so the
/// per-row loop unrolls with no bounds checks.
fn scaled<const W: usize>(values: &[f64], coeffs: &[f64; W], out: &mut [f64]) {
    let c = *coeffs;
    let (groups, _) = out.as_chunks_mut::<W>();
    for (o, &x) in groups.iter_mut().zip(values) {
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
    fn edge(&self) -> Option<&[f64]> {
        Some(&self.weights)
    }

    // Branchless: two stores per streamed weight auto-vectorize. Not
    // `scaled_batch` with coefficients `[1, 2]`: slot 0 is `w` itself,
    // and `1.0 * w` is not `w` when `w` is a signalling NaN.
    fn contrib_batch(
        &self,
        _read: &[f64],
        _giters: &[u32],
        _elems: &[u32],
        edge: &[f64],
        out: &mut [f64],
    ) {
        for (o, &w) in out.chunks_exact_mut(2).zip(edge) {
            o[0] = w;
            o[1] = 2.0 * w;
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

    /// The provided `contrib` is one iteration's slot group.
    #[test]
    fn contrib_layout() {
        let k = WeightedPairKernel {
            weights: Arc::new(vec![3.0]),
        };
        let mut out = [0.0; 2];
        k.contrib(&[], 0, &[5, 9], &mut out);
        assert_eq!(out, [3.0, 6.0]);
    }

    /// A batch equals the same iterations as one-wide batches.
    #[test]
    fn contrib_batch_equals_one_wide_batches() {
        let k = WeightedPairKernel {
            weights: Arc::new((0..16).map(|i| 0.1 * i as f64).collect()),
        };
        let giters: Vec<u32> = vec![3, 0, 15, 7, 7, 2];
        let elems: Vec<u32> = (0..giters.len() as u32 * 2).collect();
        let edge: Vec<f64> = giters.iter().map(|&gi| k.weights[gi as usize]).collect();
        let mut batch = vec![0.0; giters.len() * 2];
        k.contrib_batch(&[], &giters, &elems, &edge, &mut batch);
        for (j, &gi) in giters.iter().enumerate() {
            let mut one = [0.0; 2];
            let e = &elems[j * 2..(j + 1) * 2];
            k.contrib_batch(&[], &[gi], e, &edge[j..=j], &mut one);
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
