//! The `euler` kernel: an unstructured-mesh CFD edge loop.
//!
//! Derived from the shape of the paper's Figure 1 (its reference \[5\]):
//! the loop sweeps the mesh edges; each edge computes a flux from the
//! state of its two nodes and a per-edge coefficient, and accumulates it
//! into both nodes with opposite signs (conservation). After the sweep,
//! a node loop advances the state from the accumulated fluxes — the
//! "time-step loop" timed in §5.4 (100 iterations).
//!
//! Reduction group: two arrays (mass-like and energy-like flux
//! accumulators) accessed through the same two indirection sections —
//! one *reference group* in the compiler's sense (Definition 1), so a
//! single LightInspector serves the loop.

use std::ops::Range;
use std::sync::Arc;

use irred::{EdgeKernel, PhasedSpec};
use workloads::{Mesh, MeshPreset};

/// Time-step size of the explicit update.
const DT: f64 = 1e-3;

/// The edge-loop body.
#[derive(Debug)]
pub struct EulerKernel {
    /// Per-edge coefficients (face areas / metric terms).
    pub coeff: Arc<Vec<f64>>,
    /// Initial node state.
    pub q0: Arc<Vec<f64>>,
}

impl EdgeKernel for EulerKernel {
    fn num_refs(&self) -> usize {
        2
    }

    fn num_arrays(&self) -> usize {
        4 // mass, two momentum components, energy — one reference group
    }

    fn num_read_arrays(&self) -> usize {
        1 // the node state q
    }

    fn init_read(&self) -> Vec<f64> {
        // A single read array: the interleaved layout is the array itself.
        self.q0.as_ref().clone()
    }

    fn updates_read_state(&self) -> bool {
        true
    }

    fn contrib(&self, read: &[f64], iter: usize, elems: &[u32], out: &mut [f64]) {
        let (n1, n2) = (elems[0] as usize, elems[1] as usize);
        let w = self.coeff[iter];
        let (q1, q2) = (read[n1], read[n2]);
        let d = q1 - q2;
        let avg = 0.5 * (q1 + q2);
        let f_mass = w * d;
        let f_mx = w * d * avg;
        let f_my = 0.5 * w * (q1 * q1 - q2 * q2);
        let f_energy = f_mass * avg * avg;
        // Conservative: node 1 loses what node 2 gains.
        out[0] = -f_mass;
        out[1] = -f_mx;
        out[2] = -f_my;
        out[3] = -f_energy;
        out[4] = f_mass;
        out[5] = f_mx;
        out[6] = f_my;
        out[7] = f_energy;
    }

    fn flops_per_iter(&self) -> u64 {
        20
    }

    fn edge_reads_per_iter(&self) -> usize {
        1 // coeff
    }

    fn node_reads_per_elem(&self) -> usize {
        1 // q
    }

    fn post_sweep(&self, read: &mut [f64], range: Range<usize>, x: &[f64]) -> bool {
        for (i, v) in range.enumerate() {
            let f = &x[i * 4..i * 4 + 4];
            read[v] += DT * (f[0] + 0.5 * (f[1] + f[2]) + 0.25 * f[3]);
        }
        true
    }

    fn post_flops_per_elem(&self) -> u64 {
        6
    }
}

/// The euler edge body with the node state frozen at `q0`: no read
/// arrays, no time-step feedback. The classic inspector/executor
/// baseline cannot refresh replicated read state, so §5.4.3's
/// comparison runs both schemes on this kernel.
#[derive(Debug)]
pub struct FrozenEulerKernel(pub EulerKernel);

impl EdgeKernel for FrozenEulerKernel {
    fn num_refs(&self) -> usize {
        2
    }

    fn num_arrays(&self) -> usize {
        4
    }

    fn num_read_arrays(&self) -> usize {
        0
    }

    fn contrib(&self, _read: &[f64], iter: usize, elems: &[u32], out: &mut [f64]) {
        // Euler has one read array, so `q0` already is the interleaved layout.
        self.0.contrib(&self.0.q0, iter, elems, out)
    }

    fn flops_per_iter(&self) -> u64 {
        self.0.flops_per_iter()
    }

    fn edge_reads_per_iter(&self) -> usize {
        1
    }

    fn node_reads_per_elem(&self) -> usize {
        1
    }
}

/// A complete euler problem: mesh + kernel + spec.
pub struct EulerProblem {
    pub mesh: Mesh,
    pub spec: PhasedSpec<EulerKernel>,
}

impl EulerProblem {
    /// Build one of the paper's datasets (3-D mesh in generator order;
    /// apply [`Mesh::shuffled`] before [`EulerProblem::from_mesh`] for
    /// the worst-case-numbering ablation).
    pub fn preset(p: MeshPreset, seed: u64) -> Self {
        Self::from_mesh(Mesh::preset(p, seed), seed)
    }

    pub fn from_mesh(mesh: Mesh, seed: u64) -> Self {
        let e = mesh.num_edges();
        let n = mesh.num_nodes;
        // Deterministic pseudo-random coefficients and initial state.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let coeff: Vec<f64> = (0..e).map(|_| 0.5 + next()).collect();
        let q0: Vec<f64> = (0..n).map(|_| 1.0 + 0.1 * next()).collect();
        let kernel = EulerKernel {
            coeff: Arc::new(coeff),
            q0: Arc::new(q0),
        };
        let spec = PhasedSpec {
            kernel: Arc::new(kernel),
            num_elements: n,
            indirection: Arc::new(vec![mesh.ia1.clone(), mesh.ia2.clone()]),
        };
        EulerProblem { mesh, spec }
    }

    /// The same loop on [`FrozenEulerKernel`], sharing coefficients,
    /// state and indirection with [`Self::spec`].
    pub fn frozen_spec(&self) -> PhasedSpec<FrozenEulerKernel> {
        PhasedSpec {
            kernel: Arc::new(FrozenEulerKernel(EulerKernel {
                coeff: Arc::clone(&self.spec.kernel.coeff),
                q0: Arc::clone(&self.spec.kernel.q0),
            })),
            num_elements: self.spec.num_elements,
            indirection: Arc::clone(&self.spec.indirection),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_model::native::NativeConfig;
    use earth_model::sim::SimConfig;
    use irred::{
        approx_eq, seq_reduction, PhasedEngine, ReductionEngine, RunOutcome, StrategyConfig,
    };

    fn run_phased(p: &EulerProblem, strat: &StrategyConfig) -> RunOutcome {
        PhasedEngine::sim(SimConfig::default())
            .run(&p.spec, strat)
            .expect("valid euler spec")
    }
    use workloads::Distribution;

    fn small_problem() -> EulerProblem {
        EulerProblem::from_mesh(Mesh::generate(200, 900, 42), 42)
    }

    #[test]
    fn conservation_total_flux_is_zero() {
        // Sum of each reduction array over all nodes is zero after one
        // sweep (every edge adds ±f).
        let p = small_problem();
        let seq = seq_reduction(&p.spec, 1, SimConfig::default());
        for a in 0..4 {
            let total: f64 = seq.x[a].iter().sum();
            assert!(total.abs() < 1e-9, "array {a} drifted: {total}");
        }
    }

    #[test]
    fn state_evolves_over_sweeps() {
        let p = small_problem();
        let r1 = seq_reduction(&p.spec, 1, SimConfig::default());
        let r5 = seq_reduction(&p.spec, 5, SimConfig::default());
        assert_ne!(r1.read[0], r5.read[0], "q must advance in time");
        // but remain finite / stable for small dt
        assert!(r5.read[0].iter().all(|v| v.is_finite()));
    }

    #[test]
    fn phased_matches_sequential_2p() {
        let p = small_problem();
        let strat = StrategyConfig::new(2, 2, Distribution::Cyclic, 4);
        let seq = seq_reduction(&p.spec, 4, SimConfig::default());
        let res = run_phased(&p, &strat);
        for a in 0..4 {
            assert!(approx_eq(&res.values[a], &seq.x[a], 1e-8), "array {a}");
        }
        assert!(approx_eq(&res.read[0], &seq.read[0], 1e-8));
    }

    #[test]
    fn phased_matches_sequential_4p_block() {
        let p = small_problem();
        let strat = StrategyConfig::new(4, 2, Distribution::Block, 3);
        let seq = seq_reduction(&p.spec, 3, SimConfig::default());
        let res = run_phased(&p, &strat);
        assert!(approx_eq(&res.read[0], &seq.read[0], 1e-8));
    }

    #[test]
    fn phased_matches_sequential_k1() {
        let p = small_problem();
        let strat = StrategyConfig::new(3, 1, Distribution::Cyclic, 3);
        let seq = seq_reduction(&p.spec, 3, SimConfig::default());
        let res = run_phased(&p, &strat);
        assert!(approx_eq(&res.read[0], &seq.read[0], 1e-8));
    }

    #[test]
    fn native_matches_sequential() {
        let p = small_problem();
        let strat = StrategyConfig::new(2, 2, Distribution::Block, 3);
        let seq = seq_reduction(&p.spec, 3, SimConfig::default());
        let res = PhasedEngine::native(NativeConfig::default())
            .run(&p.spec, &strat)
            .unwrap();
        assert!(approx_eq(&res.read[0], &seq.read[0], 1e-8));
    }

    #[test]
    fn preset_sizes() {
        let p = EulerProblem::preset(MeshPreset::Euler2K, 1);
        assert_eq!(p.spec.num_elements, 2_800);
        assert_eq!(p.spec.num_iterations(), 17_377);
    }
}
