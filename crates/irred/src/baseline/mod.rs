//! Comparator strategies.
//!
//! * [`inspector_executor`] — the classic communicating
//!   inspector/executor (owner-computes with ghost buffers, à la Saltz),
//!   run on the same simulator; the paper's §5.4.3 compares its relative
//!   speedups against this family of schemes (the Agrawal–Saltz Paragon
//!   results).
//! * [`shared`] — shared-memory reduction strategies on the *native*
//!   backend (atomic updates; per-thread replication with merge), the
//!   modern OpenMP-style comparison points used by `figs ablation`.

pub mod inspector_executor;
pub mod shared;

pub use inspector_executor::{block_owners, IeEngine, InspectorExecutor, PreparedIe};
pub use shared::{atomic_reduction, replicated_reduction, serial_reduction};
