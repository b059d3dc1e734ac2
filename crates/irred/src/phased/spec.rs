//! The phased program's problem description and its structure hash —
//! the plan-cache key of everything inspection depends on.

use std::sync::Arc;

use workloads::Distribution;

use crate::kernel::EdgeKernel;
use crate::strategy::StrategyConfig;

/// Problem description, independent of strategy.
pub struct PhasedSpec<K> {
    /// The loop body.
    pub kernel: Arc<K>,
    /// Length of the reduction array(s).
    pub num_elements: usize,
    /// `m` global indirection arrays, each of length `num_iterations`.
    pub indirection: Arc<Vec<Vec<u32>>>,
}

impl<K: EdgeKernel> PhasedSpec<K> {
    pub fn num_iterations(&self) -> usize {
        self.indirection[0].len()
    }

    /// Structure hash of this spec under `strat`: a 64-bit digest of
    /// everything inspection depends on — element count, kernel *shape*
    /// (ref/array counts and whether it updates read state), the full
    /// indirection contents, and every strategy field. Two (spec,
    /// strategy) pairs with the same hash prepare to interchangeable
    /// plans; kernel *values* (weights, read state) deliberately do not
    /// participate, so a cached [`PreparedPhased`](crate::PreparedPhased)
    /// can serve specs that differ only in values via
    /// [`set_kernel`](crate::PreparedPhased::set_kernel).
    pub fn structure_hash(&self, strat: &StrategyConfig) -> u64 {
        structure_hash(self.num_elements, &*self.kernel, &self.indirection, strat)
    }
}

/// The structure hash of a (spec, strategy) pair given as borrowed
/// parts — see [`PhasedSpec::structure_hash`]. Callers that hold the
/// indirection outside a [`PhasedSpec`] (the server, keying its plan
/// cache on a decoded frame) hash it without copying it into one.
///
/// Each indirection array is read as 64-bit words of two entries
/// (zero-padded to a whole 8-entry chunk; the length is folded first,
/// so padding is unambiguous) and word `w` is folded into lane `w % 4`
/// of four independent splitmix64 chains, which are then folded into
/// the running hash in lane order. The four chains have no data
/// dependency on each other, so the pass runs at memory speed instead
/// of one multiply chain per entry.
pub fn structure_hash<K: EdgeKernel>(
    num_elements: usize,
    kernel: &K,
    indirection: &[Vec<u32>],
    strat: &StrategyConfig,
) -> u64 {
    // "IRED" tag | hash-format version: bump if the fold order or field
    // set changes. Keys are only compared within one process.
    let mut h: u64 = 0x4952_4544_0000_0003;
    fold64(&mut h, num_elements as u64);
    fold64(&mut h, kernel.num_refs() as u64);
    fold64(&mut h, kernel.num_arrays() as u64);
    fold64(&mut h, kernel.num_read_arrays() as u64);
    fold64(&mut h, u64::from(kernel.updates_read_state()));
    fold64(&mut h, indirection.len() as u64);
    for arr in indirection {
        fold64(&mut h, arr.len() as u64);
        let mut lanes: [u64; 4] = std::array::from_fn(|l| h ^ l as u64);
        let mut fold_chunk = |c: &[u32; 8]| {
            for (l, lane) in lanes.iter_mut().enumerate() {
                fold64(lane, u64::from(c[2 * l]) | u64::from(c[2 * l + 1]) << 32);
            }
        };
        let (chunks, rest) = arr.as_chunks::<8>();
        chunks.iter().for_each(&mut fold_chunk);
        if !rest.is_empty() {
            let mut padded = [0u32; 8];
            padded[..rest.len()].copy_from_slice(rest);
            fold_chunk(&padded);
        }
        for lane in lanes {
            fold64(&mut h, lane);
        }
    }
    fold64(&mut h, strat.procs as u64);
    fold64(&mut h, strat.k as u64);
    fold64(
        &mut h,
        match strat.distribution {
            Distribution::Block => 0,
            Distribution::Cyclic => 1,
        },
    );
    fold64(&mut h, strat.sweeps as u64);
    h
}

/// Fold one word into a running structure hash. The state is replaced
/// by the splitmix64 *output*, so single-bit input differences
/// avalanche across the whole word before the next fold.
pub(super) fn fold64(h: &mut u64, word: u64) {
    *h ^= word;
    *h = harness::rng::splitmix64(h);
}

impl<K> Clone for PhasedSpec<K> {
    fn clone(&self) -> Self {
        PhasedSpec {
            kernel: Arc::clone(&self.kernel),
            num_elements: self.num_elements,
            indirection: Arc::clone(&self.indirection),
        }
    }
}

impl<K> std::fmt::Debug for PhasedSpec<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhasedSpec")
            .field("num_elements", &self.num_elements)
            .field("indirection", &self.indirection)
            .finish_non_exhaustive()
    }
}
