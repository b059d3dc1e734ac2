//! Iteration distributions and the partitioning-based baseline's
//! partitioner.
//!
//! The paper's phased strategy needs only a *trivial* distribution of
//! iterations to processors — block or cyclic (strategies `2b` / `2c`…).
//! The partitioning-based comparator (classic inspector/executor)
//! instead pays for a geometric partitioner; we provide recursive
//! coordinate bisection (RCB), the standard light-geometry choice.

/// Why a partition request is rejected. The high-skew workload families
/// routinely produce degenerate shapes (more processors than iterations,
/// part counts that RCB cannot halve); callers that reach those corners
/// get a typed error to match on instead of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// Zero processors describe no machine.
    ZeroProcs,
    /// RCB halves the point set recursively; `parts` must be a power of
    /// two.
    NotPowerOfTwo { parts: usize },
    /// A part received no items — the degenerate case where fewer
    /// iterations (or points) exist than parts.
    EmptyPart { part: usize, parts: usize },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::ZeroProcs => write!(f, "partition needs at least 1 processor"),
            PartitionError::NotPowerOfTwo { parts } => {
                write!(f, "RCB needs a power-of-two part count, got {parts}")
            }
            PartitionError::EmptyPart { part, parts } => {
                write!(f, "part {part} of {parts} received no items")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// How loop iterations (and their per-iteration arrays) are divided
/// among processors before the LightInspector runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// `num_iters/P` consecutive iterations per processor.
    Block,
    /// Round-robin assignment, iteration `i` to processor `i mod P`.
    Cyclic,
}

impl Distribution {
    /// Short label used in figures: `b` / `c` as in the paper's `2b`/`2c`.
    pub fn label(&self) -> &'static str {
        match self {
            Distribution::Block => "b",
            Distribution::Cyclic => "c",
        }
    }

    /// The iterations processor `proc` owns out of `num_iters` over
    /// `procs` processors, ascending — `try_distribute(..)[proc]` without
    /// building the other processors' lists. `procs` must be nonzero.
    pub fn owned_by(
        self,
        num_iters: usize,
        procs: usize,
        proc: usize,
    ) -> std::iter::StepBy<std::ops::Range<usize>> {
        match self {
            Distribution::Block => {
                let (base, extra) = (num_iters / procs, num_iters % procs);
                let start = proc * base + proc.min(extra);
                (start..start + base + usize::from(proc < extra)).step_by(1)
            }
            Distribution::Cyclic => (proc.min(num_iters)..num_iters).step_by(procs),
        }
    }

    /// Where iteration `iter` of `num_iters` over `procs` processors
    /// lives: `(proc, local)` such that `owned_by(num_iters, procs,
    /// proc)` yields `iter` at position `local`. Closed-form, so callers
    /// need no per-iteration table. Requires `iter < num_iters` and
    /// nonzero `procs`.
    pub fn locate(self, iter: usize, num_iters: usize, procs: usize) -> (usize, usize) {
        debug_assert!(iter < num_iters && procs > 0);
        match self {
            Distribution::Block => {
                // The first `extra` blocks hold `base + 1` iterations.
                let (base, extra) = (num_iters / procs, num_iters % procs);
                let long = extra * (base + 1);
                if iter < long {
                    (iter / (base + 1), iter % (base + 1))
                } else {
                    let j = iter - long;
                    (extra + j / base, j % base)
                }
            }
            Distribution::Cyclic => (iter % procs, iter / procs),
        }
    }
}

/// Assign `num_iters` iterations to `procs` processors. Returns the
/// global iteration ids owned by each processor, in increasing order.
/// Processors beyond `num_iters` legally receive empty portions (the
/// phased executor degrades them to bare synchronization); use
/// [`try_distribute_nonempty`] when every part must carry work.
pub fn try_distribute(
    num_iters: usize,
    procs: usize,
    d: Distribution,
) -> Result<Vec<Vec<u32>>, PartitionError> {
    if procs < 1 {
        return Err(PartitionError::ZeroProcs);
    }
    let mut out = vec![Vec::with_capacity(num_iters / procs + 1); procs];
    match d {
        Distribution::Block => {
            // Balanced block sizes: first (num_iters % procs) blocks get
            // one extra.
            let base = num_iters / procs;
            let extra = num_iters % procs;
            let mut start = 0usize;
            for (p, v) in out.iter_mut().enumerate() {
                let len = base + usize::from(p < extra);
                v.extend((start..start + len).map(|i| i as u32));
                start += len;
            }
        }
        Distribution::Cyclic => {
            for i in 0..num_iters {
                out[i % procs].push(i as u32);
            }
        }
    }
    Ok(out)
}

/// [`try_distribute`], additionally rejecting distributions where any
/// processor ends up with no iterations at all.
pub fn try_distribute_nonempty(
    num_iters: usize,
    procs: usize,
    d: Distribution,
) -> Result<Vec<Vec<u32>>, PartitionError> {
    let out = try_distribute(num_iters, procs, d)?;
    if let Some(part) = out.iter().position(|v| v.is_empty()) {
        return Err(PartitionError::EmptyPart { part, parts: procs });
    }
    Ok(out)
}

/// Panicking wrapper around [`try_distribute`] for static call sites.
pub fn distribute(num_iters: usize, procs: usize, d: Distribution) -> Vec<Vec<u32>> {
    try_distribute(num_iters, procs, d).unwrap_or_else(|e| panic!("invalid distribution: {e}"))
}

/// Distribute interaction pairs to processors by a stable hash of the
/// pair's identity. Balanced like a cyclic distribution, but invariant
/// under reordering of the list — after an adaptive neighbour-list
/// rebuild, surviving pairs land on the *same* processor, so only real
/// churn reaches the incremental inspector.
pub fn try_hash_distribute_pairs(
    ia1: &[u32],
    ia2: &[u32],
    procs: usize,
) -> Result<Vec<Vec<(u32, u32)>>, PartitionError> {
    if procs < 1 {
        return Err(PartitionError::ZeroProcs);
    }
    let mut out = vec![Vec::with_capacity(ia1.len() / procs + 1); procs];
    for (&a, &b) in ia1.iter().zip(ia2) {
        let h = (u64::from(a)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(u64::from(b)))
        .wrapping_mul(0xC2B2AE3D27D4EB4F);
        out[(h >> 33) as usize % procs].push((a, b));
    }
    Ok(out)
}

/// Panicking wrapper around [`try_hash_distribute_pairs`].
pub fn hash_distribute_pairs(ia1: &[u32], ia2: &[u32], procs: usize) -> Vec<Vec<(u32, u32)>> {
    try_hash_distribute_pairs(ia1, ia2, procs)
        .unwrap_or_else(|e| panic!("invalid distribution: {e}"))
}

/// Recursive coordinate bisection over 3-D points: split the longest
/// axis at the median until `parts` parts exist. Returns a part id per
/// point. Rejects non-power-of-two part counts, and part counts
/// exceeding the point count (those would leave parts empty — the
/// degenerate shape extreme-skew decks produce).
pub fn try_rcb_partition(points: &[[f64; 3]], parts: usize) -> Result<Vec<u32>, PartitionError> {
    if parts == 0 || !parts.is_power_of_two() {
        return Err(PartitionError::NotPowerOfTwo { parts });
    }
    if points.len() < parts {
        return Err(PartitionError::EmptyPart {
            part: points.len(),
            parts,
        });
    }
    let mut ids: Vec<u32> = (0..points.len() as u32).collect();
    let mut owner = vec![0u32; points.len()];
    rcb_rec(points, &mut ids, 0, parts as u32, &mut owner);
    Ok(owner)
}

/// Panicking wrapper around [`try_rcb_partition`], kept for static call
/// sites whose part counts are compile-time powers of two.
pub fn rcb_partition(points: &[[f64; 3]], parts: usize) -> Vec<u32> {
    try_rcb_partition(points, parts)
        .unwrap_or_else(|e| panic!("RCB needs a power-of-two part count: {e}"))
}

fn rcb_rec(points: &[[f64; 3]], ids: &mut [u32], first: u32, parts: u32, owner: &mut [u32]) {
    if parts == 1 || ids.len() <= 1 {
        for &i in ids.iter() {
            owner[i as usize] = first;
        }
        return;
    }
    // Longest axis of the bounding box.
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for &i in ids.iter() {
        for d in 0..3 {
            lo[d] = lo[d].min(points[i as usize][d]);
            hi[d] = hi[d].max(points[i as usize][d]);
        }
    }
    let axis = (0..3)
        .max_by(|&a, &b| (hi[a] - lo[a]).partial_cmp(&(hi[b] - lo[b])).unwrap())
        .unwrap();
    let mid = ids.len() / 2;
    ids.select_nth_unstable_by(mid, |&a, &b| {
        points[a as usize][axis]
            .partial_cmp(&points[b as usize][axis])
            .unwrap()
    });
    let (left, right) = ids.split_at_mut(mid);
    rcb_rec(points, left, first, parts / 2, owner);
    rcb_rec(points, right, first + parts / 2, parts / 2, owner);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_covers_all_in_order() {
        let d = distribute(10, 3, Distribution::Block);
        assert_eq!(d[0], vec![0, 1, 2, 3]);
        assert_eq!(d[1], vec![4, 5, 6]);
        assert_eq!(d[2], vec![7, 8, 9]);
    }

    #[test]
    fn cyclic_round_robins() {
        let d = distribute(7, 3, Distribution::Cyclic);
        assert_eq!(d[0], vec![0, 3, 6]);
        assert_eq!(d[1], vec![1, 4]);
        assert_eq!(d[2], vec![2, 5]);
    }

    #[test]
    fn owned_by_is_one_row_of_distribute() {
        for &n in &[0usize, 1, 5, 100, 101] {
            for &p in &[1usize, 2, 7, 32] {
                for d in [Distribution::Block, Distribution::Cyclic] {
                    let parts = distribute(n, p, d);
                    for (proc, want) in parts.iter().enumerate() {
                        let got: Vec<u32> = d.owned_by(n, p, proc).map(|i| i as u32).collect();
                        assert_eq!(&got, want, "n={n} p={p} proc={proc} {d:?}");
                    }
                }
            }
        }
    }

    /// Exhaustive over small shapes, including `num_iters < procs` and
    /// every uneven block remainder.
    #[test]
    fn locate_inverts_owned_by() {
        for n in 0..=40usize {
            for p in 1..=9usize {
                for d in [Distribution::Block, Distribution::Cyclic] {
                    for proc in 0..p {
                        for (local, iter) in d.owned_by(n, p, proc).enumerate() {
                            assert_eq!(d.locate(iter, n, p), (proc, local), "n={n} p={p} {d:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn distributions_are_balanced() {
        for &n in &[100usize, 101, 999] {
            for &p in &[1usize, 2, 7, 32] {
                for d in [Distribution::Block, Distribution::Cyclic] {
                    let parts = distribute(n, p, d);
                    let total: usize = parts.iter().map(|v| v.len()).sum();
                    assert_eq!(total, n);
                    let min = parts.iter().map(|v| v.len()).min().unwrap();
                    let max = parts.iter().map(|v| v.len()).max().unwrap();
                    assert!(max - min <= 1, "imbalance for n={n} p={p} {d:?}");
                }
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Distribution::Block.label(), "b");
        assert_eq!(Distribution::Cyclic.label(), "c");
    }

    #[test]
    fn rcb_splits_evenly() {
        // 8×8 grid of points, 4 parts.
        let mut pts = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                pts.push([i as f64, j as f64, 0.0]);
            }
        }
        let owner = rcb_partition(&pts, 4);
        let mut counts = [0usize; 4];
        for &o in &owner {
            counts[o as usize] += 1;
        }
        assert_eq!(counts, [16, 16, 16, 16]);
    }

    #[test]
    fn rcb_parts_are_spatially_coherent() {
        // Points on a line: each quarter must be contiguous.
        let pts: Vec<[f64; 3]> = (0..16).map(|i| [i as f64, 0.0, 0.0]).collect();
        let owner = rcb_partition(&pts, 4);
        for w in 0..4 {
            let idxs: Vec<usize> = (0..16).filter(|&i| owner[i] == w).collect();
            assert_eq!(idxs.len(), 4);
            assert_eq!(idxs[3] - idxs[0], 3, "part {w} not contiguous: {idxs:?}");
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rcb_rejects_odd_parts() {
        rcb_partition(&[[0.0; 3]; 4], 3);
    }

    #[test]
    fn try_distribute_rejects_zero_procs() {
        assert_eq!(
            try_distribute(10, 0, Distribution::Block),
            Err(PartitionError::ZeroProcs)
        );
        assert_eq!(
            try_hash_distribute_pairs(&[0], &[1], 0),
            Err(PartitionError::ZeroProcs)
        );
    }

    #[test]
    fn try_distribute_allows_empty_trailing_portions() {
        // 2 iterations on 5 processors: legal, trailing portions empty.
        let parts = try_distribute(2, 5, Distribution::Cyclic).unwrap();
        assert_eq!(parts.iter().filter(|v| v.is_empty()).count(), 3);
    }

    #[test]
    fn try_distribute_nonempty_rejects_starved_parts() {
        assert_eq!(
            try_distribute_nonempty(2, 5, Distribution::Block),
            Err(PartitionError::EmptyPart { part: 2, parts: 5 })
        );
        assert!(try_distribute_nonempty(5, 5, Distribution::Block).is_ok());
    }

    #[test]
    fn try_rcb_rejects_degenerate_shapes() {
        assert_eq!(
            try_rcb_partition(&[[0.0; 3]; 4], 3),
            Err(PartitionError::NotPowerOfTwo { parts: 3 })
        );
        assert_eq!(
            try_rcb_partition(&[[0.0; 3]; 4], 0),
            Err(PartitionError::NotPowerOfTwo { parts: 0 })
        );
        // More parts than points: some part must end up empty.
        assert_eq!(
            try_rcb_partition(&[[0.0; 3]; 2], 4),
            Err(PartitionError::EmptyPart { part: 2, parts: 4 })
        );
    }

    #[test]
    fn partition_errors_display() {
        assert!(format!("{}", PartitionError::ZeroProcs).contains("at least 1"));
        assert!(format!("{}", PartitionError::NotPowerOfTwo { parts: 3 }).contains("power-of-two"));
        assert!(format!("{}", PartitionError::EmptyPart { part: 2, parts: 4 }).contains("part 2"));
    }
}
