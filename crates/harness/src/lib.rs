//! # harness — in-tree, zero-dependency test infrastructure
//!
//! This workspace builds **hermetically**: no external crates, ever
//! (`DESIGN.md`, "Hermetic build policy"). The pieces of `rand` and
//! `proptest` the repository actually needs live here instead:
//!
//! * [`rng`] — SplitMix64-seeded xoshiro256++ with the distribution
//!   helpers the workload generators use ([`Rng64::gen_range`],
//!   [`Rng64::gen_bool`], [`Rng64::shuffle`]);
//! * [`prop`] — a property-testing harness with choice-stream
//!   shrinking and explicit-seed replay ([`prop::check`],
//!   [`prop_assert!`]).
//!
//! Everything is deterministic given a seed; nothing reads OS entropy.

pub mod prop;
pub mod rng;

pub use rng::Rng64;
