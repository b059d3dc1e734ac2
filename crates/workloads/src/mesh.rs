//! Unstructured mesh generation for the `euler` kernel.
//!
//! The paper's `euler` meshes (from the CFD code of its reference \[5\])
//! are not available; we generate meshes with the same node and edge
//! counts and the locality structure typical of mesh-generator output:
//! nodes numbered along a space-filling (row-major, jittered) order, and
//! edges connecting index-nearby nodes plus a small fraction of longer
//! edges. Phase-assignment statistics and cache behaviour — the two
//! things the evaluation depends on — are functions of exactly these
//! properties.

use harness::Rng64;

/// The two euler datasets of §5.4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshPreset {
    /// "2K mesh": 2 800 nodes, 17 377 edges.
    Euler2K,
    /// "10K mesh": 9 428 nodes, 59 863 edges.
    Euler10K,
}

impl MeshPreset {
    pub fn nodes(&self) -> usize {
        match self {
            MeshPreset::Euler2K => 2_800,
            MeshPreset::Euler10K => 9_428,
        }
    }

    pub fn edges(&self) -> usize {
        match self {
            MeshPreset::Euler2K => 17_377,
            MeshPreset::Euler10K => 59_863,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            MeshPreset::Euler2K => "euler-2.8K/17.4K",
            MeshPreset::Euler10K => "euler-9.4K/59.9K",
        }
    }
}

/// An unstructured mesh: nodes with 2-D coordinates and undirected edges
/// listed as `(node1, node2)` pairs — the indirection array `IA` of the
/// paper's Figure 1.
#[derive(Debug, Clone)]
pub struct Mesh {
    pub num_nodes: usize,
    /// Edge endpoint arrays (structure-of-arrays): `ia1[i]`, `ia2[i]` are
    /// the two nodes of edge `i`.
    pub ia1: Vec<u32>,
    pub ia2: Vec<u32>,
    /// Node coordinates (used by the RCB baseline partitioner).
    pub coords: Vec<[f64; 3]>,
}

impl Mesh {
    pub fn num_edges(&self) -> usize {
        self.ia1.len()
    }

    /// Generate one of the paper's euler datasets: a 3-D mesh (the CFD
    /// code of the paper's reference \[5\] works on 3-D unstructured
    /// meshes), whose row-major numbering yields index spans of order
    /// `n^(2/3)` — local enough that consecutive edges reference nearby
    /// nodes (the source of block-distribution load imbalance, §5.4.2),
    /// yet wide enough that most references cross portion boundaries on
    /// larger machines.
    pub fn preset(p: MeshPreset, seed: u64) -> Mesh {
        Mesh::generate3d(p.nodes(), p.edges(), seed)
    }

    /// Generate a mesh with exactly `num_nodes` nodes and `num_edges`
    /// distinct edges (no self-loops). Deterministic in `seed`.
    ///
    /// Construction: nodes sit on a jittered `√n × √n` grid, numbered
    /// row-major. A connectivity skeleton of grid edges is laid first,
    /// then short-range extra edges (geometric index offsets) fill up to
    /// the target, giving the ~12 average degree of the paper's meshes
    /// while keeping endpoints index-local.
    pub fn generate(num_nodes: usize, num_edges: usize, seed: u64) -> Mesh {
        assert!(num_nodes >= 2, "need at least two nodes");
        let max_edges = num_nodes * (num_nodes - 1) / 2;
        assert!(num_edges <= max_edges, "more edges than node pairs");
        let mut rng = Rng64::seed_from_u64(seed);
        let side = (num_nodes as f64).sqrt().ceil() as usize;

        let mut coords = Vec::with_capacity(num_nodes);
        for i in 0..num_nodes {
            let (r, c) = (i / side, i % side);
            coords.push([
                c as f64 + rng.gen_range(-0.3..0.3),
                r as f64 + rng.gen_range(-0.3..0.3),
                0.0,
            ]);
        }

        let mut seen = std::collections::HashSet::with_capacity(num_edges * 2);
        let mut ia1 = Vec::with_capacity(num_edges);
        let mut ia2 = Vec::with_capacity(num_edges);
        let push = |a: usize,
                    b: usize,
                    seen: &mut std::collections::HashSet<u64>,
                    ia1: &mut Vec<u32>,
                    ia2: &mut Vec<u32>|
         -> bool {
            if a == b || a >= num_nodes || b >= num_nodes {
                return false;
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if !seen.insert((lo as u64) << 32 | hi as u64) {
                return false;
            }
            ia1.push(lo as u32);
            ia2.push(hi as u32);
            true
        };

        // Skeleton: right + down grid neighbors (keeps the mesh connected
        // in the index-locality sense).
        'skeleton: for i in 0..num_nodes {
            for off in [1usize, side] {
                if ia1.len() == num_edges {
                    break 'skeleton;
                }
                if let Some(j) = i.checked_add(off) {
                    push(i, j, &mut seen, &mut ia1, &mut ia2);
                }
            }
        }

        // Fill: random short-range edges; offset magnitude is geometric so
        // most edges stay index-local (mesh-generator-like numbering).
        while ia1.len() < num_edges {
            let a = rng.gen_range(0..num_nodes);
            // Geometric-ish offset: 1 + side * 2^u with random sign.
            let mag = 1 + rng.gen_range(0..4usize) * rng.gen_range(1..=side / 2 + 1);
            let b = if rng.gen_bool(0.5) {
                a.saturating_add(mag)
            } else {
                a.saturating_sub(mag)
            };
            push(a, b.min(num_nodes - 1), &mut seen, &mut ia1, &mut ia2);
        }

        Mesh {
            num_nodes,
            ia1,
            ia2,
            coords,
        }
    }

    /// Generate a 3-D mesh with exactly `num_nodes` nodes and
    /// `num_edges` distinct edges. Nodes sit on a jittered cube grid
    /// numbered x-fastest; edges connect 3-D-adjacent nodes (skeleton)
    /// plus random short-range-in-space neighbours, so index spans
    /// cluster at `{1, side, side²}`.
    pub fn generate3d(num_nodes: usize, num_edges: usize, seed: u64) -> Mesh {
        assert!(num_nodes >= 8, "need at least 8 nodes");
        let max_edges = num_nodes * (num_nodes - 1) / 2;
        assert!(num_edges <= max_edges, "more edges than node pairs");
        let mut rng = Rng64::seed_from_u64(seed ^ 0x3D);
        let side = (num_nodes as f64).cbrt().ceil() as usize;

        let mut coords = Vec::with_capacity(num_nodes);
        for i in 0..num_nodes {
            let (z, rem) = (i / (side * side), i % (side * side));
            let (y, x) = (rem / side, rem % side);
            coords.push([
                x as f64 + rng.gen_range(-0.3..0.3),
                y as f64 + rng.gen_range(-0.3..0.3),
                z as f64 + rng.gen_range(-0.3..0.3),
            ]);
        }

        let mut seen = std::collections::HashSet::with_capacity(num_edges * 2);
        let mut ia1 = Vec::with_capacity(num_edges);
        let mut ia2 = Vec::with_capacity(num_edges);
        let push = |a: usize,
                    b: usize,
                    seen: &mut std::collections::HashSet<u64>,
                    ia1: &mut Vec<u32>,
                    ia2: &mut Vec<u32>|
         -> bool {
            if a == b || a >= num_nodes || b >= num_nodes {
                return false;
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if !seen.insert((lo as u64) << 32 | hi as u64) {
                return false;
            }
            ia1.push(lo as u32);
            ia2.push(hi as u32);
            true
        };

        // Skeleton: the three axis neighbours.
        'skeleton: for i in 0..num_nodes {
            for off in [1usize, side, side * side] {
                if ia1.len() == num_edges {
                    break 'skeleton;
                }
                if let Some(j) = i.checked_add(off) {
                    push(i, j, &mut seen, &mut ia1, &mut ia2);
                }
            }
        }

        // Fill: spatially short, index-wide edges (diagonals, distance-2
        // neighbours) — tetrahedralization-like connectivity.
        while ia1.len() < num_edges {
            let a = rng.gen_range(0..num_nodes);
            let dx = rng.gen_range(-2i64..=2);
            let dy = rng.gen_range(-2i64..=2);
            let dz = rng.gen_range(-2i64..=2);
            let b = a as i64 + dx + dy * side as i64 + dz * (side * side) as i64;
            if b < 0 {
                continue;
            }
            push(
                a,
                (b as usize).min(num_nodes - 1),
                &mut seen,
                &mut ia1,
                &mut ia2,
            );
        }

        Mesh {
            num_nodes,
            ia1,
            ia2,
            coords,
        }
    }

    /// Renumber the nodes with a random permutation (deterministic in
    /// `seed`), preserving the mesh structure.
    ///
    /// Unstructured meshes straight out of a generator or refinement
    /// pipeline — like the paper's CFD meshes — carry essentially random
    /// node numbering unless explicitly reordered (RCM etc.), which the
    /// paper's strategy pointedly does *not* do. The paper presets use
    /// this; the ordered variant exists for the locality ablation
    /// (`figs ablation`).
    pub fn shuffled(mut self, seed: u64) -> Mesh {
        let mut rng = Rng64::seed_from_u64(seed ^ 0xC0FFEE);
        let n = self.num_nodes;
        let mut perm: Vec<u32> = (0..n as u32).collect();
        // Fisher–Yates.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let mut coords = vec![[0.0; 3]; n];
        for (old, &new) in perm.iter().enumerate() {
            coords[new as usize] = self.coords[old];
        }
        self.coords = coords;
        for e in self.ia1.iter_mut().chain(self.ia2.iter_mut()) {
            *e = perm[*e as usize];
        }
        self
    }

    /// Mean index distance `|ia1 - ia2|` — the locality signature.
    pub fn mean_index_span(&self) -> f64 {
        if self.ia1.is_empty() {
            return 0.0;
        }
        let s: u64 = self
            .ia1
            .iter()
            .zip(&self.ia2)
            .map(|(&a, &b)| u64::from(a.abs_diff(b)))
            .sum();
        s as f64 / self.ia1.len() as f64
    }

    /// Degree of each node.
    pub fn degrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.num_nodes];
        for (&a, &b) in self.ia1.iter().zip(&self.ia2) {
            d[a as usize] += 1;
            d[b as usize] += 1;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_preset_sizes() {
        let m = Mesh::preset(MeshPreset::Euler2K, 7);
        assert_eq!(m.num_nodes, 2_800);
        assert_eq!(m.num_edges(), 17_377);
        let m = Mesh::preset(MeshPreset::Euler10K, 7);
        assert_eq!(m.num_nodes, 9_428);
        assert_eq!(m.num_edges(), 59_863);
    }

    #[test]
    fn edges_are_distinct_and_loop_free() {
        let m = Mesh::generate(500, 3_000, 11);
        let mut seen = std::collections::HashSet::new();
        for (&a, &b) in m.ia1.iter().zip(&m.ia2) {
            assert_ne!(a, b, "self-loop");
            assert!(a < 500 && b < 500, "endpoint out of range");
            assert!(seen.insert((a.min(b), a.max(b))), "duplicate edge {a}-{b}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Mesh::generate(300, 1_000, 5);
        let b = Mesh::generate(300, 1_000, 5);
        assert_eq!(a.ia1, b.ia1);
        assert_eq!(a.ia2, b.ia2);
        let c = Mesh::generate(300, 1_000, 6);
        assert_ne!(a.ia1, c.ia1);
    }

    #[test]
    fn edges_are_index_local_on_average() {
        let m = Mesh::preset(MeshPreset::Euler2K, 1);
        // Mean endpoint index distance far below random (which would be
        // ~n/3 ≈ 933).
        assert!(
            m.mean_index_span() < 300.0,
            "span {} too large",
            m.mean_index_span()
        );
    }

    #[test]
    fn every_node_is_touched() {
        let m = Mesh::preset(MeshPreset::Euler2K, 3);
        let d = m.degrees();
        let untouched = d.iter().filter(|&&x| x == 0).count();
        assert_eq!(untouched, 0);
        let mean = d.iter().map(|&x| x as f64).sum::<f64>() / d.len() as f64;
        assert!((mean - 2.0 * 17_377.0 / 2_800.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "more edges than node pairs")]
    fn rejects_impossible_edge_count() {
        Mesh::generate(4, 10, 0);
    }
}
