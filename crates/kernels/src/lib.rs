//! # kernels — the paper's three scientific kernels
//!
//! * [`mvm`] — sparse matrix–vector multiply extracted from NAS CG
//!   (§5.3): the reduction array `y` is *not* indirectly accessed; the
//!   gathered vector rotates ([`irred::GatherEngine`]).
//! * [`euler`] — a CFD unstructured-mesh edge loop (§5.4): two LHS
//!   indirection references into flux accumulators, a per-node state
//!   array updated each time step from the accumulated fluxes.
//! * [`moldyn`] — a molecular-dynamics force loop (§5.4): two LHS
//!   references into the 3-component force field; positions integrate
//!   from forces each time step and feed back into the next force
//!   computation.
//!
//! Each module provides a problem builder over the [`workloads`]
//! generators, the [`irred::EdgeKernel`] implementation, and a
//! sequential reference used by the tests and the benchmark harness.

pub mod euler;
pub mod family;
pub mod moldyn;
pub mod mvm;

pub use euler::{EulerKernel, EulerProblem, FrozenEulerKernel};
pub use family::{FamilyKernel, FamilyProblem};
pub use moldyn::{MolDynKernel, MolDynProblem};
pub use mvm::MvmProblem;
