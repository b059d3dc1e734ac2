//! Particle-in-cell deposition family: two-array reductions with
//! per-sweep churn.
//!
//! Particles live on a periodic 1-D ring of cells. Each particle
//! deposits into **two** cells (its own and its right neighbour — the
//! linear-weighting stencil collapsed to integer shares) and into two
//! reduction arrays (charge and current). Between sweeps a fraction of
//! the particles advances by its velocity, re-targeting its deposit
//! cells — the churn stream that feeds
//! `PreparedPhased::apply_updates`, which re-inspects only the nodes it
//! touches instead of forcing a full re-prepare.
//!
//! The generator precomputes the whole trajectory deterministically:
//! [`PicDeck::initial`] is the sweep-0 family, [`PicDeck::step_updates`]
//! yields each step's `(iteration, new_refs)` list, and
//! [`PicDeck::family_at`] materializes the full family after any number
//! of steps (the re-prepare reference the update path must match).

use harness::Rng64;

use crate::family::{FamilyError, FamilySpec};

/// A particle-in-cell deck: initial state plus a precomputed churn
/// schedule.
#[derive(Debug, Clone)]
pub struct PicDeck {
    pub num_cells: usize,
    /// Cell of each particle at step 0.
    pub cell0: Vec<u32>,
    /// Signed per-step displacement of each particle (0 for the cold
    /// majority; churners move ±1..=3 cells per step).
    pub velocity: Vec<i32>,
    /// Integer charge per particle, in `0..1000`.
    pub charge: Vec<f64>,
    /// Number of precomputed steps.
    pub steps: usize,
    /// Fraction of particles with nonzero velocity.
    pub churn_frac: f64,
}

impl PicDeck {
    /// Generate `particles` particles over `num_cells` cells with a
    /// `churn_frac` fraction of movers, and precompute `steps` steps.
    pub fn generate(
        num_cells: usize,
        particles: usize,
        steps: usize,
        churn_frac: f64,
        seed: u64,
    ) -> Result<PicDeck, FamilyError> {
        if num_cells < 2 {
            return Err(FamilyError::ZeroElements);
        }
        if particles == 0 {
            return Err(FamilyError::ZeroIterations);
        }
        if !(0.0..=1.0).contains(&churn_frac) {
            return Err(FamilyError::BadKnob("churn_frac must be in [0, 1]"));
        }
        let mut rng = Rng64::seed_from_u64(seed ^ 0x0D1C_0DEC);
        let cell0: Vec<u32> = (0..particles)
            .map(|_| rng.gen_range(0..num_cells as u32))
            .collect();
        let velocity: Vec<i32> = (0..particles)
            .map(|_| {
                if rng.gen_bool(churn_frac) {
                    let mag = rng.gen_range(1..=3i32);
                    if rng.gen_bool(0.5) {
                        mag
                    } else {
                        -mag
                    }
                } else {
                    0
                }
            })
            .collect();
        let charge: Vec<f64> = (0..particles)
            .map(|_| rng.gen_range(0..1000u32) as f64)
            .collect();
        Ok(PicDeck {
            num_cells,
            cell0,
            velocity,
            charge,
            steps,
            churn_frac,
        })
    }

    /// Cell of particle `p` after `step` steps (periodic wrap).
    fn cell_at(&self, p: usize, step: usize) -> u32 {
        let n = self.num_cells as i64;
        let c = self.cell0[p] as i64 + self.velocity[p] as i64 * step as i64;
        c.rem_euclid(n) as u32
    }

    /// The two deposit targets of particle `p` at `step`: its cell and
    /// the right neighbour.
    fn refs_at(&self, p: usize, step: usize) -> [u32; 2] {
        let c = self.cell_at(p, step);
        [c, (c + 1) % self.num_cells as u32]
    }

    /// The full family after `step` steps — what a fresh prepare would
    /// see. `family_at(0)` is the initial deck.
    pub fn family_at(&self, step: usize) -> FamilySpec {
        let mut ia1 = Vec::with_capacity(self.cell0.len());
        let mut ia2 = Vec::with_capacity(self.cell0.len());
        for p in 0..self.cell0.len() {
            let [a, b] = self.refs_at(p, step);
            ia1.push(a);
            ia2.push(b);
        }
        FamilySpec {
            name: format!("pic-c{:.2}-s{step}", self.churn_frac),
            num_elements: self.num_cells,
            indirection: vec![ia1, ia2],
            weights: self.charge.clone(),
            // Charge deposit splits 2:1 between the cell and its right
            // neighbour; the current array counts signed flow.
            coeffs: vec![vec![2.0, 1.0], vec![1.0, -1.0]],
        }
    }

    /// Initial family (step 0).
    pub fn initial(&self) -> FamilySpec {
        self.family_at(0)
    }

    /// The churn going from `step` to `step + 1`, in
    /// `PreparedPhased::apply_updates` form: one `(iteration, new_refs)`
    /// entry per particle whose deposit targets change.
    pub fn step_updates(&self, step: usize) -> Vec<(usize, Vec<u32>)> {
        (0..self.cell0.len())
            .filter(|&p| self.velocity[p] != 0)
            .map(|p| {
                let [a, b] = self.refs_at(p, step + 1);
                (p, vec![a, b])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = PicDeck::generate(64, 1_000, 4, 0.3, 5).unwrap();
        let b = PicDeck::generate(64, 1_000, 4, 0.3, 5).unwrap();
        assert_eq!(a.cell0, b.cell0);
        assert_eq!(a.velocity, b.velocity);
        assert_eq!(a.charge, b.charge);
    }

    #[test]
    fn updates_replay_to_the_next_family() {
        let d = PicDeck::generate(32, 400, 3, 0.4, 9).unwrap();
        for step in 0..d.steps {
            let mut fam = d.family_at(step);
            for (iter, refs) in d.step_updates(step) {
                fam.indirection[0][iter] = refs[0];
                fam.indirection[1][iter] = refs[1];
            }
            let next = d.family_at(step + 1);
            assert_eq!(fam.indirection, next.indirection, "step {step}");
        }
    }

    #[test]
    fn churn_volume_tracks_the_knob() {
        let calm = PicDeck::generate(64, 2_000, 1, 0.05, 2).unwrap();
        let wild = PicDeck::generate(64, 2_000, 1, 0.8, 2).unwrap();
        assert!(calm.step_updates(0).len() < 250);
        assert!(wild.step_updates(0).len() > 1_200);
    }

    #[test]
    fn family_is_well_formed_at_every_step() {
        let d = PicDeck::generate(48, 600, 3, 0.5, 7).unwrap();
        for step in 0..=d.steps {
            let f = d.family_at(step);
            assert_eq!(f.validate(), Ok(()), "step {step}");
            assert_eq!(f.num_refs(), 2);
            assert_eq!(f.num_arrays(), 2);
        }
    }

    #[test]
    fn rejects_bad_knobs() {
        assert!(PicDeck::generate(1, 10, 1, 0.5, 1).is_err());
        assert!(PicDeck::generate(10, 0, 1, 0.5, 1).is_err());
        assert!(PicDeck::generate(10, 10, 1, 1.5, 1).is_err());
    }
}
