//! The prepared-run support layer: buffer pooling and cross-execute
//! cost caching, so steady-state `execute` calls neither allocate nor
//! re-meter.
//!
//! A [`Workspace`] is deliberately separate from the prepared runs that
//! use it: prepared plans are immutable structure, the workspace is
//! scratch. One workspace can serve many prepared runs (buffers are
//! pooled and handed out best-fit by capacity; costs are keyed by plan
//! identity).

use std::collections::HashMap;

/// Identity of one prepared plan, including its mutation version.
/// Incremental updates bump the version, which invalidates any phase
/// costs cached for the old plan — the access pattern changed, so the
/// measured cycles no longer apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanToken {
    id: u64,
    version: u64,
}

impl PlanToken {
    /// A fresh, process-unique token at version 0.
    pub(crate) fn fresh() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(1);
        PlanToken {
            id: NEXT.fetch_add(1, Ordering::Relaxed),
            version: 0,
        }
    }

    /// Invalidate cached costs after a plan mutation.
    pub(crate) fn bump(&mut self) {
        self.version += 1;
    }

    pub fn version(&self) -> u64 {
        self.version
    }
}

/// Per-node, per-phase measured loop costs, as harvested from node
/// states after a simulated execute (`None` = not yet measured).
pub(crate) type PhaseCosts = Vec<Vec<Option<u64>>>;

/// Pools per-node buffers and caches measured phase costs across
/// executes. Checked-out buffers are always zeroed; returned buffers
/// keep their capacity, so a steady-state loop of identically shaped
/// executes performs no heap allocation for node arrays.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f64>>,
    /// Plan id → (version, costs). A stale version is overwritten on
    /// store and ignored on lookup.
    costs: HashMap<u64, (u64, PhaseCosts)>,
}

/// Cap on pooled buffers: enough for every node array of a large run,
/// small enough that a workspace never hoards unbounded memory.
const MAX_POOLED: usize = 256;

impl Workspace {
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Check out a zeroed buffer of length `len`: the pooled buffer of
    /// least capacity that holds `len`, else the largest pooled buffer,
    /// grown, else a new one; an empty request takes nothing. Best fit,
    /// not the last one returned: an execute takes buffers of very
    /// different lengths (the shared region, the read parities, each
    /// node's buffer extension), and each gets back an allocation that
    /// already holds it instead of growing a smaller one into fresh
    /// pages. Every take that finds the pool non-empty removes one
    /// buffer, so a steady state of takes and returns keeps the pool's
    /// size.
    pub(crate) fn take_buffer(&mut self, len: usize) -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        let fit = (0..self.pool.len())
            .filter(|&i| self.pool[i].capacity() >= len)
            .min_by_key(|&i| self.pool[i].capacity())
            .or_else(|| (0..self.pool.len()).max_by_key(|&i| self.pool[i].capacity()));
        match fit {
            Some(i) => {
                let mut b = self.pool.swap_remove(i);
                b.clear();
                b.resize(len, 0.0);
                b
            }
            None => vec![0.0; len],
        }
    }

    /// Return a buffer to the pool.
    pub(crate) fn put_buffer(&mut self, b: Vec<f64>) {
        if self.pool.len() < MAX_POOLED && b.capacity() > 0 {
            self.pool.push(b);
        }
    }

    /// Measured costs for `token`, if an execute of the same plan
    /// version stored them.
    pub(crate) fn costs_for(&self, token: PlanToken) -> Option<&PhaseCosts> {
        match self.costs.get(&token.id) {
            Some((v, c)) if *v == token.version => Some(c),
            _ => None,
        }
    }

    /// Store measured costs for `token`, superseding any older version.
    pub(crate) fn store_costs(&mut self, token: PlanToken, costs: PhaseCosts) {
        self.costs.insert(token.id, (token.version, costs));
    }

    /// Number of buffers currently pooled (introspection for tests).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.len()
    }

    /// Whether any phase costs are cached (introspection for tests).
    pub fn has_cached_costs(&self) -> bool {
        !self.costs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_capacity() {
        let mut ws = Workspace::new();
        let mut b = ws.take_buffer(100);
        b[3] = 42.0;
        let cap = b.capacity();
        ws.put_buffer(b);
        assert_eq!(ws.pooled_buffers(), 1);
        let b2 = ws.take_buffer(80);
        assert_eq!(ws.pooled_buffers(), 0);
        assert!(b2.capacity() >= cap.min(80));
        assert!(b2.iter().all(|&v| v == 0.0), "checked-out buffer is zeroed");
    }

    /// Each length gets back the smallest pooled buffer that holds it,
    /// whatever order the buffers were returned in.
    #[test]
    fn buffers_are_taken_best_fit() {
        let mut ws = Workspace::new();
        let (big, small) = (ws.take_buffer(1 << 16), ws.take_buffer(64));
        let (big_ptr, small_ptr) = (big.as_ptr(), small.as_ptr());
        ws.put_buffer(big);
        ws.put_buffer(small);
        let b = ws.take_buffer(1 << 16);
        assert_eq!(
            b.as_ptr(),
            big_ptr,
            "the large buffer, not the last returned"
        );
        let s = ws.take_buffer(32);
        assert_eq!(s.as_ptr(), small_ptr);
        assert_eq!(ws.pooled_buffers(), 0);
        ws.put_buffer(s);
        assert!(
            ws.take_buffer(0).capacity() == 0,
            "an empty take takes nothing"
        );
        let grown = ws.take_buffer(1 << 10);
        assert_eq!(grown.len(), 1 << 10, "with none large enough, one grows");
        assert_eq!(ws.pooled_buffers(), 0);
    }

    #[test]
    fn costs_keyed_by_version() {
        let mut ws = Workspace::new();
        let mut tok = PlanToken::fresh();
        ws.store_costs(tok, vec![vec![Some(7)]]);
        assert!(ws.costs_for(tok).is_some());
        tok.bump();
        assert!(
            ws.costs_for(tok).is_none(),
            "bumped version invalidates cache"
        );
        ws.store_costs(tok, vec![vec![Some(9)]]);
        assert_eq!(ws.costs_for(tok).unwrap()[0][0], Some(9));
    }

    #[test]
    fn tokens_are_unique() {
        assert_ne!(PlanToken::fresh(), PlanToken::fresh());
    }
}
