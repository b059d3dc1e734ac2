//! Molecular-dynamics configurations for the `moldyn` kernel.
//!
//! The paper's `moldyn` datasets (2 916 molecules / 26 244 interactions
//! and 10 976 molecules / 65 856 interactions, from Tseng & Han) are the
//! classic face-centred-cubic benchmark configurations. We regenerate
//! them from first principles: molecules on a periodic FCC lattice with
//! a cutoff-radius interaction list.
//!
//! * `4·9³ = 2 916` molecules with the cutoff between the first and
//!   *second* neighbour shells gives `2 916 · 18/2 = 26 244` pairs;
//! * `4·14³ = 10 976` molecules with the cutoff inside the first shell
//!   gives `10 976 · 12/2 = 65 856` pairs —
//!
//! exactly the paper's counts, confirming these are the same datasets.
//!
//! For the adaptive experiments (the paper's future work, our extension)
//! [`MolDyn::perturb`] jitters positions and
//! [`MolDyn::rebuild_interactions`] recomputes the neighbour list with a
//! cell-list search, reporting how many entries changed.

use harness::Rng64;

/// The two moldyn datasets of §5.4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MolDynPreset {
    /// "2K dataset": 2 916 molecules, 26 244 interactions.
    MolDyn2K,
    /// "10K dataset": 10 976 molecules, 65 856 interactions.
    MolDyn10K,
}

impl MolDynPreset {
    /// FCC cells per axis.
    pub fn cells(&self) -> usize {
        match self {
            MolDynPreset::MolDyn2K => 9,
            MolDynPreset::MolDyn10K => 14,
        }
    }

    pub fn molecules(&self) -> usize {
        4 * self.cells().pow(3)
    }

    pub fn interactions(&self) -> usize {
        match self {
            // first + second shell: 18 neighbours each
            MolDynPreset::MolDyn2K => self.molecules() * 18 / 2,
            // first shell only: 12 neighbours each
            MolDynPreset::MolDyn10K => self.molecules() * 12 / 2,
        }
    }

    /// Cutoff radius in units of the FCC lattice constant.
    fn cutoff(&self) -> f64 {
        match self {
            MolDynPreset::MolDyn2K => 1.05,  // between a (2nd shell) and √1.5·a
            MolDynPreset::MolDyn10K => 0.75, // between a/√2 (1st shell) and a
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            MolDynPreset::MolDyn2K => "moldyn-2.9K/26.2K",
            MolDynPreset::MolDyn10K => "moldyn-11.0K/65.9K",
        }
    }
}

/// A molecular configuration: positions in a periodic box plus the
/// cutoff interaction list (the indirection arrays of the force loop).
#[derive(Debug, Clone)]
pub struct MolDyn {
    pub num_molecules: usize,
    /// Periodic box side (lattice units).
    pub box_side: f64,
    pub cutoff: f64,
    /// Positions, `[x, y, z]` per molecule.
    pub pos: Vec<[f64; 3]>,
    /// Interaction endpoint arrays: pair `i` couples molecules
    /// `ia1[i]` and `ia2[i]`.
    pub ia1: Vec<u32>,
    pub ia2: Vec<u32>,
}

impl MolDyn {
    /// Build one of the paper's datasets. Panics if the generated
    /// interaction count ever deviates from the paper's (it cannot, for
    /// an unperturbed lattice).
    pub fn preset(p: MolDynPreset) -> MolDyn {
        let md = MolDyn::fcc(p.cells(), p.cutoff());
        assert_eq!(md.num_molecules, p.molecules());
        assert_eq!(md.num_interactions(), p.interactions());
        md
    }

    /// Molecules on `cells³` FCC unit cells (lattice constant 1) in a
    /// periodic box, with interactions = pairs within `cutoff`.
    pub fn fcc(cells: usize, cutoff: f64) -> MolDyn {
        assert!(cells >= 2, "need at least 2 cells for periodicity");
        let offsets = [
            [0.0, 0.0, 0.0],
            [0.5, 0.5, 0.0],
            [0.5, 0.0, 0.5],
            [0.0, 0.5, 0.5],
        ];
        let mut pos = Vec::with_capacity(4 * cells.pow(3));
        for x in 0..cells {
            for y in 0..cells {
                for z in 0..cells {
                    for o in &offsets {
                        pos.push([x as f64 + o[0], y as f64 + o[1], z as f64 + o[2]]);
                    }
                }
            }
        }
        let mut md = MolDyn {
            num_molecules: pos.len(),
            box_side: cells as f64,
            cutoff,
            pos,
            ia1: Vec::new(),
            ia2: Vec::new(),
        };
        md.rebuild_interactions();
        md
    }

    pub fn num_interactions(&self) -> usize {
        self.ia1.len()
    }

    /// Minimum-image displacement between molecules `i` and `j`.
    fn disp(&self, i: usize, j: usize) -> [f64; 3] {
        let mut d = [0.0; 3];
        for (a, da) in d.iter_mut().enumerate() {
            let mut x = self.pos[j][a] - self.pos[i][a];
            let l = self.box_side;
            if x > l / 2.0 {
                x -= l;
            } else if x < -l / 2.0 {
                x += l;
            }
            *da = x;
        }
        d
    }

    fn dist2(&self, i: usize, j: usize) -> f64 {
        let d = self.disp(i, j);
        d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    }

    /// Jitter every position by up to `amplitude` (lattice units) per
    /// axis — the adaptive step that invalidates parts of the neighbour
    /// list. Deterministic in `seed`.
    pub fn perturb(&mut self, amplitude: f64, seed: u64) {
        let mut rng = Rng64::seed_from_u64(seed);
        let l = self.box_side;
        for p in &mut self.pos {
            for pa in p.iter_mut() {
                *pa = (*pa + rng.gen_range(-amplitude..=amplitude)).rem_euclid(l);
            }
        }
    }

    /// Renumber the molecules with a random permutation (deterministic
    /// in `seed`). Benchmark moldyn datasets carry the arbitrary
    /// numbering of their construction pipeline; the paper presets use
    /// this (see `Mesh::shuffled` for the rationale).
    pub fn shuffled(mut self, seed: u64) -> MolDyn {
        let mut rng = Rng64::seed_from_u64(seed ^ 0xBEEF);
        let n = self.num_molecules;
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let mut pos = vec![[0.0; 3]; n];
        for (old, &new) in perm.iter().enumerate() {
            pos[new as usize] = self.pos[old];
        }
        self.pos = pos;
        for (a, b) in self.ia1.iter_mut().zip(self.ia2.iter_mut()) {
            let (x, y) = (perm[*a as usize], perm[*b as usize]);
            *a = x.min(y);
            *b = x.max(y);
        }
        self
    }

    /// Recompute the interaction list with a periodic cell-list search.
    /// Returns the number of pairs added plus removed relative to the
    /// previous list (the "churn" an adaptive plan update must absorb).
    pub fn rebuild_interactions(&mut self) -> usize {
        let old: std::collections::HashSet<(u32, u32)> = self
            .ia1
            .iter()
            .zip(&self.ia2)
            .map(|(&a, &b)| (a, b))
            .collect();

        let l = self.box_side;
        let ncell = (l / self.cutoff).floor().max(1.0) as usize;
        let cell_of = |p: &[f64; 3]| -> usize {
            let cx = ((p[0] / l * ncell as f64) as usize).min(ncell - 1);
            let cy = ((p[1] / l * ncell as f64) as usize).min(ncell - 1);
            let cz = ((p[2] / l * ncell as f64) as usize).min(ncell - 1);
            (cx * ncell + cy) * ncell + cz
        };
        let mut cells: Vec<Vec<u32>> = vec![Vec::new(); ncell * ncell * ncell];
        for (i, p) in self.pos.iter().enumerate() {
            cells[cell_of(p)].push(i as u32);
        }

        let c2 = self.cutoff * self.cutoff;
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(old.len() + 64);
        let n = ncell as isize;
        for cx in 0..n {
            for cy in 0..n {
                for cz in 0..n {
                    let home = ((cx * n + cy) * n + cz) as usize;
                    for dx in -1..=1isize {
                        for dy in -1..=1isize {
                            for dz in -1..=1isize {
                                let ox = (cx + dx).rem_euclid(n);
                                let oy = (cy + dy).rem_euclid(n);
                                let oz = (cz + dz).rem_euclid(n);
                                let other = ((ox * n + oy) * n + oz) as usize;
                                if other < home {
                                    continue;
                                }
                                for (ai, &a) in cells[home].iter().enumerate() {
                                    let bs: &[u32] = &cells[other];
                                    let start = if other == home { ai + 1 } else { 0 };
                                    for &b in &bs[start..] {
                                        if self.dist2(a as usize, b as usize) < c2 {
                                            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                                            pairs.push((lo, hi));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // Neighbouring cell pairs can be visited twice when ncell < 3
        // (periodic wrap makes two offsets reach the same cell).
        pairs.sort_unstable();
        pairs.dedup();

        let new: std::collections::HashSet<(u32, u32)> = pairs.iter().copied().collect();
        let churn = old.symmetric_difference(&new).count();
        self.ia1 = pairs.iter().map(|p| p.0).collect();
        self.ia2 = pairs.iter().map(|p| p.1).collect();
        churn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_2k_has_exact_paper_counts() {
        let md = MolDyn::preset(MolDynPreset::MolDyn2K);
        assert_eq!(md.num_molecules, 2_916);
        assert_eq!(md.num_interactions(), 26_244);
    }

    #[test]
    fn preset_10k_has_exact_paper_counts() {
        let md = MolDyn::preset(MolDynPreset::MolDyn10K);
        assert_eq!(md.num_molecules, 10_976);
        assert_eq!(md.num_interactions(), 65_856);
    }

    #[test]
    fn interactions_are_distinct_ordered_pairs() {
        let md = MolDyn::fcc(4, 0.75);
        let mut seen = std::collections::HashSet::new();
        for (&a, &b) in md.ia1.iter().zip(&md.ia2) {
            assert!(a < b, "pairs stored lo<hi");
            assert!(seen.insert((a, b)), "duplicate pair");
            assert!((b as usize) < md.num_molecules);
        }
    }

    #[test]
    fn cutoff_is_respected() {
        let md = MolDyn::fcc(4, 0.75);
        for (&a, &b) in md.ia1.iter().zip(&md.ia2) {
            assert!(md.dist2(a as usize, b as usize) < 0.75 * 0.75 + 1e-12);
        }
    }

    #[test]
    fn small_perturbation_causes_small_churn() {
        let mut md = MolDyn::fcc(5, 0.75);
        let before = md.num_interactions();
        md.perturb(0.02, 123);
        let churn = md.rebuild_interactions();
        let after = md.num_interactions();
        // A 2% jitter flips only pairs near the cutoff shell.
        assert!(churn < before / 5, "churn {churn} of {before}");
        assert!((after as i64 - before as i64).unsigned_abs() as usize <= churn);
    }

    #[test]
    fn rebuild_without_motion_is_stable() {
        let mut md = MolDyn::fcc(4, 1.05);
        let churn = md.rebuild_interactions();
        assert_eq!(churn, 0, "rebuild of unchanged positions must be a no-op");
    }

    #[test]
    fn perturb_is_deterministic() {
        let mut a = MolDyn::fcc(3, 0.75);
        let mut b = MolDyn::fcc(3, 0.75);
        a.perturb(0.1, 9);
        b.perturb(0.1, 9);
        assert_eq!(a.pos, b.pos);
    }

    #[test]
    fn positions_stay_in_box_after_perturb() {
        let mut md = MolDyn::fcc(3, 0.75);
        md.perturb(0.5, 77);
        for p in &md.pos {
            for &pa in p.iter() {
                assert!(pa >= 0.0 && pa < md.box_side + 1e-12);
            }
        }
    }
}
