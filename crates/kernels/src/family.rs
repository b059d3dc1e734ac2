//! Lowering of the skewed workload families ([`workloads::FamilySpec`])
//! onto the engine interfaces.
//!
//! One [`EdgeKernel`] serves all three families: the contribution of
//! iteration `i` through reference `r` to array `a` is
//! `coeffs[r][a] · w[i]` — a pure function of the iteration index, with
//! integer-exact values, so every engine (and layout, and backend) must
//! match the straight-line oracle bit for bit. The family distinction
//! lives entirely in the indirection structure the generators produce.
//!
//! [`FamilyProblem::gather_formulation`] additionally re-expresses one
//! reduction array as a sparse matrix–vector product
//! (`A[e, i] = coeffs[r][a]` for each reference, `x = weights`), so the
//! [`irred::GatherEngine`] can run the same reduction and be held to the
//! same oracle.

use std::sync::Arc;

use irred::{scaled_batch, EdgeKernel, GatherSpec, PhasedSpec};
use workloads::{FamilySpec, SparseMatrix};

/// The shared loop body of the skewed families: [`scaled_batch`] of
/// `coeffs` over the weights, which the kernel declares as its stream
/// ([`EdgeKernel::edge`]) — a phased plan holds them in each node's row
/// order and the batch reads them at unit stride.
#[derive(Debug)]
pub struct FamilyKernel {
    weights: Arc<Vec<f64>>,
    /// `coeffs[r * num_arrays + a]`, flattened.
    coeffs: Vec<f64>,
    m: usize,
    arrays: usize,
}

impl EdgeKernel for FamilyKernel {
    fn num_refs(&self) -> usize {
        self.m
    }

    fn num_arrays(&self) -> usize {
        self.arrays
    }

    fn edge(&self) -> Option<&[f64]> {
        Some(&self.weights)
    }

    fn contrib_batch(
        &self,
        _read: &[f64],
        _giters: &[u32],
        _elems: &[u32],
        edge: &[f64],
        out: &mut [f64],
    ) {
        scaled_batch(edge, &self.coeffs, out);
    }

    fn flops_per_iter(&self) -> u64 {
        (self.m * self.arrays) as u64
    }

    fn edge_reads_per_iter(&self) -> usize {
        1 // the weight stream
    }
}

/// A family lowered to the phased interfaces, keeping the generator
/// output alongside for the oracle and the statistics surface.
pub struct FamilyProblem {
    pub family: FamilySpec,
    pub spec: PhasedSpec<FamilyKernel>,
}

impl FamilyProblem {
    pub fn from_family(family: FamilySpec) -> Self {
        let arrays = family.num_arrays();
        let kernel = FamilyKernel {
            weights: Arc::new(family.weights.clone()),
            coeffs: family
                .coeffs
                .iter()
                .flat_map(|row| row.iter().copied())
                .collect(),
            m: family.num_refs(),
            arrays,
        };
        let spec = PhasedSpec {
            kernel: Arc::new(kernel),
            num_elements: family.num_elements,
            indirection: Arc::new(family.indirection.clone()),
        };
        FamilyProblem { family, spec }
    }

    /// Express reduction array `a` as `y = A·w`: one nonzero
    /// `A[ind[r][i], i] = coeffs[r][a]` per reference, the weight vector
    /// as `x`. Rows whose element is never referenced are legitimately
    /// empty (their reduction value is 0).
    pub fn gather_formulation(&self, a: usize) -> GatherSpec {
        let f = &self.family;
        assert!(a < f.num_arrays(), "array index out of range");
        let iters = f.num_iterations();
        // Bucket nonzeros by row (counting sort — the indirection is
        // unsorted by element).
        let mut row_counts = vec![0u64; f.num_elements + 1];
        for ind_r in &f.indirection {
            for &e in ind_r {
                row_counts[e as usize + 1] += 1;
            }
        }
        let mut row_ptr = row_counts;
        for r in 0..f.num_elements {
            row_ptr[r + 1] += row_ptr[r];
        }
        let nnz = row_ptr[f.num_elements] as usize;
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut cursor = row_ptr.clone();
        for (r, ind_r) in f.indirection.iter().enumerate() {
            let c = f.coeffs[r][a];
            for (i, &e) in ind_r.iter().enumerate() {
                let slot = cursor[e as usize] as usize;
                cursor[e as usize] += 1;
                col_idx[slot] = i as u32;
                values[slot] = c;
            }
        }
        GatherSpec {
            matrix: Arc::new(SparseMatrix {
                nrows: f.num_elements,
                ncols: iters,
                row_ptr,
                col_idx,
                values,
            }),
            x: Arc::new(f.weights.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_model::sim::SimConfig;
    use irred::{seq_reduction, Distribution, GatherEngine, ReductionEngine, StrategyConfig};
    use workloads::{oracle_reduce, HotKeyScatter, PicDeck, PowerLawGraph};

    fn families() -> Vec<FamilySpec> {
        vec![
            PowerLawGraph::generate(60, 400, 1.5, 3)
                .unwrap()
                .to_family(3),
            HotKeyScatter::generate(40, 600, 3, 0.9, 2, 5)
                .unwrap()
                .to_family(5),
            PicDeck::generate(32, 300, 1, 0.4, 7).unwrap().initial(),
        ]
    }

    #[test]
    fn sequential_engine_matches_oracle_bitwise() {
        for f in families() {
            let want = oracle_reduce(&f);
            let p = FamilyProblem::from_family(f);
            let seq = seq_reduction(&p.spec, 1, SimConfig::default());
            assert_eq!(seq.x, want, "{}", p.family.name);
        }
    }

    #[test]
    fn gather_formulation_matches_oracle_bitwise() {
        let strat = StrategyConfig::new(3, 2, Distribution::Block, 1);
        for f in families() {
            let want = oracle_reduce(&f);
            let p = FamilyProblem::from_family(f);
            for (a, want_a) in want.iter().enumerate().take(p.family.num_arrays()) {
                let g = p.gather_formulation(a);
                let out = GatherEngine::sim(SimConfig::default())
                    .run(&g, &strat)
                    .expect("valid gather formulation");
                assert_eq!(&out.values[0], want_a, "{} array {a}", p.family.name);
            }
        }
    }
}
