//! # earth-irred — umbrella crate
//!
//! Reproduction of *"Compiler and Runtime Support for Irregular
//! Reductions on a Multithreaded Architecture"* (IPPS 2002) in Rust.
//! This crate ties the workspace together for the runnable examples and
//! the cross-crate integration tests; the substance lives in the member
//! crates:
//!
//! * [`earth_model`] — the EARTH execution model (fibers, sync slots,
//!   split-phase operations) with native-thread and discrete-event
//!   simulator backends;
//! * [`memsim`] — the cache / memory cost model behind the simulator;
//! * [`lightinspector`] — the LightInspector runtime: one
//!   communication-free inspection pass, one flat plan form and its
//!   checker;
//! * [`threadedc`] — the mini EARTH-C compiler (sections, reference
//!   groups, loop fission, phased code generation);
//! * [`irred`] — the rotating-portion phased execution strategy (the
//!   paper's core contribution) and baselines;
//! * [`workloads`] — dataset generators at the paper's sizes;
//! * [`kernels`] — `mvm`, `euler`, and `moldyn`.
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the
//! paper-vs-measured record.

pub use earth_model;
pub use irred;
pub use kernels;
pub use lightinspector;
pub use memsim;
pub use threadedc;
pub use workloads;
