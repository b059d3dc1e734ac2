//! # lightinspector — communication-free runtime preprocessing for irregular reductions
//!
//! This crate implements the **LightInspector** of the paper's §3: the
//! runtime routine that prepares an irregular reduction loop
//!
//! ```text
//! for i in 0..num_edges {
//!     X[IA[i][0]] += f(...);
//!     X[IA[i][1]] += g(...);
//! }
//! ```
//!
//! for phased execution on `P` processors with parameter `k`:
//!
//! 1. **Phase assignment** — each local iteration is assigned to the
//!    earliest phase in which one of the reduction elements it updates is
//!    owned by this processor ([`PhaseGeometry`] provides the ownership
//!    arithmetic: the reduction array is cut into `k·P` portions and
//!    processor `q` owns portion `(k·q + p) mod (k·P)` during phase `p`).
//! 2. **Buffer management** — references owned in a *later* phase are
//!    redirected into a buffer extension appended to the reduction array
//!    ("the length of the array X is extended to create a remote buffer
//!    location").
//! 3. **Second-loop construction** — for each phase, a list of
//!    `X[dest] += X[buffer]` copy operations that folds contributions
//!    buffered by earlier phases into the portion once it becomes
//!    resident.
//!
//! Unlike the classic inspector/executor inspector, the LightInspector
//! runs **independently on every processor with no communication** — its
//! cost is two linear passes over the local indirection arrays, and its
//! output is the CSR schedule ([`FlatInspection`]) the executors stream.
//!
//! The [`incremental`] module implements the incremental variant the
//! paper names as future work: when an adaptive application rewrites a
//! few indirection entries, only the affected iterations are re-planned.

pub mod geometry;
pub mod incremental;
pub mod inspector;
pub mod plan;
pub mod stats;

pub use geometry::{PhaseGeometry, PortionId};
pub use incremental::{diff_pairs, IncrementalInspector};
pub use inspector::{
    inspect, inspect_observed, inspect_single, InspectError, InspectorInput, STAGE_CLASSIFY,
    STAGE_PLACE, STAGE_VALIDATE,
};
pub use plan::{
    verify_flat, verify_plan, CopyOp, FlatInspection, FlatPlan, InspectorPlan, PhasePlan,
    PlanError, SingleRefPlan,
};
pub use stats::{portion_stats, PlanStats};
