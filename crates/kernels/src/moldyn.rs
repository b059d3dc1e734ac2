//! The `moldyn` kernel: a molecular-dynamics force loop.
//!
//! From the classic benchmark (the paper's reference \[14\], the
//! Tseng/Han code): the interaction list pairs molecules within the
//! cutoff; each pair computes a truncated Lennard-Jones-style force from
//! the two positions and accumulates ±f into the two molecules' force
//! vectors (three components — one reference group of three reduction
//! arrays). The per-time-step node loop integrates positions from the
//! forces, which feed the next sweep's force computation.
//!
//! This is the paper's read-state-heaviest kernel: positions are
//! replicated, refreshed after every sweep, and there is no per-edge
//! data at all.

use std::ops::Range;
use std::sync::Arc;

use irred::{EdgeKernel, PhasedSpec};
use workloads::{MolDyn, MolDynPreset};

const DT2: f64 = 1e-6; // dt² of the position update
const EPS: f64 = 1e-6; // softening against exact overlaps
/// σ² chosen so the LJ minimum (`r = 2^{1/6}·σ`) sits at the FCC
/// nearest-neighbour distance `a/√2 ≈ 0.707`: molecules oscillate gently
/// instead of blowing up, keeping 100-sweep runs finite.
const SIGMA2: f64 = 0.397;
/// Force-magnitude clamp — the standard truncation guard of benchmark
/// moldyn codes.
const FMAX: f64 = 1e3;

/// The force-loop body.
#[derive(Debug)]
pub struct MolDynKernel {
    pub pos0: Arc<Vec<[f64; 3]>>,
    pub box_side: f64,
}

impl MolDynKernel {
    #[inline]
    fn min_image(&self, mut d: f64) -> f64 {
        let l = self.box_side;
        if d > l / 2.0 {
            d -= l;
        } else if d < -l / 2.0 {
            d += l;
        }
        d
    }
}

impl EdgeKernel for MolDynKernel {
    fn num_refs(&self) -> usize {
        2
    }

    fn num_arrays(&self) -> usize {
        3 // fx, fy, fz
    }

    fn num_read_arrays(&self) -> usize {
        3 // x, y, z
    }

    fn init_read(&self) -> Vec<f64> {
        // Element-major interleaved (x,y,z per molecule) — exactly the
        // layout `pos0` already has.
        self.pos0.iter().flat_map(|p| p.iter().copied()).collect()
    }

    fn updates_read_state(&self) -> bool {
        true
    }

    fn contrib(&self, read: &[f64], _iter: usize, elems: &[u32], out: &mut [f64]) {
        // One 3-double struct per molecule: the two position loads touch
        // two cache lines, not six.
        let (i, j) = (elems[0] as usize * 3, elems[1] as usize * 3);
        let (pi, pj) = (&read[i..i + 3], &read[j..j + 3]);
        let d = [
            self.min_image(pj[0] - pi[0]),
            self.min_image(pj[1] - pi[1]),
            self.min_image(pj[2] - pi[2]),
        ];
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + EPS;
        let u2 = SIGMA2 / r2;
        let u6 = u2 * u2 * u2;
        // Truncated LJ magnitude (repulsive minus attractive), clamped.
        let f = (24.0 * u6 * (2.0 * u6 - 1.0) / r2).clamp(-FMAX, FMAX);
        for a in 0..3 {
            out[a] = f * d[a]; // ref 0 (molecule i) pulled toward j
            out[3 + a] = -f * d[a]; // ref 1 (molecule j), opposite
        }
    }

    // Branchless batch body for the chunked flat loops: per iteration
    // the same float expressions in the same order as `contrib` (the
    // `min_image` branches depend only on data, not loop position), so
    // each slot group is bit-identical to a per-iteration call — the
    // contract `EdgeKernel::contrib_batch` demands. Writing straight
    // into the caller's chunk buffer lets the compiler keep the whole
    // pair computation in registers and vectorize across iterations.
    fn contrib_batch(&self, read: &[f64], giters: &[u32], elems: &[u32], out: &mut [f64]) {
        for j in 0..giters.len() {
            let (i, k) = (elems[j * 2] as usize * 3, elems[j * 2 + 1] as usize * 3);
            let (pi, pj) = (&read[i..i + 3], &read[k..k + 3]);
            let d = [
                self.min_image(pj[0] - pi[0]),
                self.min_image(pj[1] - pi[1]),
                self.min_image(pj[2] - pi[2]),
            ];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + EPS;
            let u2 = SIGMA2 / r2;
            let u6 = u2 * u2 * u2;
            let f = (24.0 * u6 * (2.0 * u6 - 1.0) / r2).clamp(-FMAX, FMAX);
            let o = &mut out[j * 6..(j + 1) * 6];
            for a in 0..3 {
                o[a] = f * d[a];
                o[3 + a] = -f * d[a];
            }
        }
    }

    fn flops_per_iter(&self) -> u64 {
        40
    }

    fn edge_reads_per_iter(&self) -> usize {
        0
    }

    fn node_reads_per_elem(&self) -> usize {
        3
    }

    fn post_sweep(&self, read: &mut [f64], range: Range<usize>, x: &[f64]) -> bool {
        let l = self.box_side;
        for (i, v) in range.enumerate() {
            for a in 0..3 {
                read[v * 3 + a] = (read[v * 3 + a] + DT2 * x[i * 3 + a]).rem_euclid(l);
            }
        }
        true
    }

    fn post_flops_per_elem(&self) -> u64 {
        9
    }
}

/// A complete moldyn problem: configuration + kernel + spec.
pub struct MolDynProblem {
    pub config: MolDyn,
    pub spec: PhasedSpec<MolDynKernel>,
}

impl MolDynProblem {
    /// Build one of the paper's datasets. The 2K dataset keeps
    /// lattice-order numbering; the 10K dataset is randomly renumbered —
    /// the paper's 10K results (2-processor *slowdowns* of 0.56–0.82,
    /// "the level of performance degradation is dataset dependent",
    /// §5.4.2) are consistent with that dataset carrying much worse
    /// index locality than the 2K one.
    pub fn preset(p: MolDynPreset) -> Self {
        let config = match p {
            MolDynPreset::MolDyn2K => MolDyn::preset(p),
            MolDynPreset::MolDyn10K => MolDyn::preset(p).shuffled(42),
        };
        Self::from_config(config)
    }

    pub fn from_config(config: MolDyn) -> Self {
        let kernel = MolDynKernel {
            pos0: Arc::new(config.pos.clone()),
            box_side: config.box_side,
        };
        let spec = PhasedSpec {
            kernel: Arc::new(kernel),
            num_elements: config.num_molecules,
            indirection: Arc::new(vec![config.ia1.clone(), config.ia2.clone()]),
        };
        MolDynProblem { config, spec }
    }

    /// Rebuild the spec after the configuration's positions / interaction
    /// list changed (the adaptive scenario).
    pub fn refresh(&mut self) {
        let config = self.config.clone();
        *self = Self::from_config(config);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earth_model::sim::SimConfig;
    use irred::{
        approx_eq, seq_reduction, PhasedEngine, ReductionEngine, RunOutcome, StrategyConfig,
    };

    fn run_phased(p: &MolDynProblem, strat: &StrategyConfig) -> RunOutcome {
        PhasedEngine::sim(SimConfig::default())
            .run(&p.spec, strat)
            .expect("valid moldyn spec")
    }
    use workloads::Distribution;

    fn small_problem() -> MolDynProblem {
        MolDynProblem::from_config(MolDyn::fcc(3, 0.75))
    }

    #[test]
    fn newtons_third_law_net_force_zero() {
        let p = small_problem();
        let seq = seq_reduction(&p.spec, 1, SimConfig::default());
        for a in 0..3 {
            let total: f64 = seq.x[a].iter().sum();
            assert!(total.abs() < 1e-9, "net force {a}: {total}");
        }
    }

    #[test]
    fn perfect_lattice_has_symmetric_forces() {
        // On an unperturbed FCC lattice with PBC, every molecule's force
        // must vanish by symmetry.
        let p = small_problem();
        let seq = seq_reduction(&p.spec, 1, SimConfig::default());
        for a in 0..3 {
            for (m, &f) in seq.x[a].iter().enumerate() {
                assert!(f.abs() < 1e-9, "molecule {m} axis {a}: {f}");
            }
        }
    }

    #[test]
    fn perturbed_lattice_develops_forces() {
        let mut config = MolDyn::fcc(3, 0.75);
        config.perturb(0.05, 7);
        config.rebuild_interactions();
        let p = MolDynProblem::from_config(config);
        let seq = seq_reduction(&p.spec, 1, SimConfig::default());
        let mag: f64 = seq.x.iter().flatten().map(|f| f.abs()).sum();
        assert!(mag > 1e-6, "perturbation should produce forces");
    }

    #[test]
    fn phased_matches_sequential() {
        let mut config = MolDyn::fcc(3, 0.75);
        config.perturb(0.03, 9);
        config.rebuild_interactions();
        let p = MolDynProblem::from_config(config);
        let strat = StrategyConfig::new(2, 2, Distribution::Cyclic, 3);
        let seq = seq_reduction(&p.spec, 3, SimConfig::default());
        let res = run_phased(&p, &strat);
        for a in 0..3 {
            assert!(approx_eq(&res.values[a], &seq.x[a], 1e-8), "force axis {a}");
            assert!(approx_eq(&res.read[a], &seq.read[a], 1e-8), "pos axis {a}");
        }
    }

    #[test]
    fn phased_matches_sequential_4p_k4() {
        let mut config = MolDyn::fcc(3, 0.75);
        config.perturb(0.02, 11);
        config.rebuild_interactions();
        let p = MolDynProblem::from_config(config);
        let strat = StrategyConfig::new(4, 4, Distribution::Block, 2);
        let seq = seq_reduction(&p.spec, 2, SimConfig::default());
        let res = run_phased(&p, &strat);
        for a in 0..3 {
            assert!(approx_eq(&res.read[a], &seq.read[a], 1e-8));
        }
    }

    #[test]
    fn contrib_batch_override_is_bit_identical_to_contrib() {
        let mut config = MolDyn::fcc(3, 0.75);
        config.perturb(0.04, 13);
        config.rebuild_interactions();
        let p = MolDynProblem::from_config(config);
        let kernel = &p.spec.kernel;
        let read = kernel.init_read();
        let n = p.spec.num_iterations().min(64);
        let giters: Vec<u32> = (0..n as u32).collect();
        let elems: Vec<u32> = (0..n)
            .flat_map(|i| [p.spec.indirection[0][i], p.spec.indirection[1][i]])
            .collect();
        let mut batch = vec![0.0f64; n * 6];
        kernel.contrib_batch(&read, &giters, &elems, &mut batch);
        for j in 0..n {
            let mut one = [0.0f64; 6];
            kernel.contrib(&read, j, &elems[j * 2..(j + 1) * 2], &mut one);
            for s in 0..6 {
                assert_eq!(
                    one[s].to_bits(),
                    batch[j * 6 + s].to_bits(),
                    "iter {j} slot {s}"
                );
            }
        }
    }

    #[test]
    fn preset_sizes() {
        let p = MolDynProblem::preset(MolDynPreset::MolDyn2K);
        assert_eq!(p.spec.num_elements, 2_916);
        assert_eq!(p.spec.num_iterations(), 26_244);
    }
}
