//! # memsim — cache and memory-cost simulation
//!
//! The paper evaluates its execution strategy on a cycle-accurate simulator
//! of the MANNA multiprocessor (i860XP processors). Locality effects are
//! central to its results: the phased execution strategy loses spatial
//! locality relative to the sequential code (visible as low absolute
//! speedups on 2 processors, §5.4.3), and block distributions enjoy
//! slightly better locality than cyclic ones on small configurations.
//!
//! This crate provides the memory-system half of our discrete-event
//! substitute for that simulator:
//!
//! * [`Cache`] — a set-associative, write-allocate cache with LRU
//!   replacement, simulated per access.
//! * [`MemModel`] — a single-level cache + flat memory cost model that maps
//!   an address trace to cycles, with hit/miss counters.
//! * [`AddressMap`] — a bump allocator assigning disjoint address ranges to
//!   arrays so kernels can generate realistic address traces.
//! * [`analytic`] — a cheap closed-form alternative for very large runs
//!   where per-access simulation is too slow (used for the class-B `mvm`
//!   sweeps).
//! * [`tile`] — tile-size prediction for the phased executor's
//!   phase-local iteration tiling (validated against a per-access sweep
//!   in `tests/tile_prediction.rs`).
//!
//! The default parameters ([`MemConfig::i860xp`]) approximate the i860XP's
//! 16 KiB 4-way data cache with 32-byte lines; the miss penalty is the
//! knob we calibrate against the paper's sequential running times (see
//! `EXPERIMENTS.md`).

pub mod address;
pub mod analytic;
pub mod cache;
pub mod model;
#[cfg(test)]
mod stamp_lru;
pub mod tile;

pub use address::{AddressMap, Region};
pub use analytic::StreamModel;
pub use cache::{AccessKind, Cache, CacheConfig};
pub use model::{MemConfig, MemModel, MemStats};
pub use tile::{predict_tile_elems, MIN_TILE_ELEMS};
