//! # workloads — dataset generators and partitioners for the reproduction
//!
//! The paper evaluates on three kernels whose inputs we do not have
//! (NAS CG matrices, CFD meshes from \[5\], and the Tseng/Han `moldyn`
//! datasets). This crate generates synthetic equivalents **at exactly the
//! paper's sizes** (see `DESIGN.md` §3 for the substitution argument):
//!
//! * [`nascg`] — sparse matrices shaped like NAS CG classes W/A/B
//!   (7 000 / 14 000 / 75 000 rows; ≈508 402 / 1 853 104 / 13 708 072
//!   nonzeros);
//! * [`mesh`] — unstructured meshes with the `euler` node/edge counts
//!   (2 800 / 17 377 and 9 428 / 59 863) and tunable index locality;
//! * [`moldyn`] — periodic FCC molecular configurations whose cutoff
//!   neighbor lists give *exactly* the paper's interaction counts
//!   (2 916 / 26 244 and 10 976 / 65 856), plus position perturbation and
//!   neighbor-list rebuild for adaptive experiments;
//! * [`partition`] — block and cyclic iteration distributions (the `2b`
//!   vs `2c` strategies of §5.4) and a recursive-coordinate-bisection
//!   partitioner for the classic partitioning-based baseline.
//!
//! Beyond the paper's kernels, three **skewed families** stress the
//! portion-imbalance regime the original inputs never reach (ROADMAP
//! item 4), all lowering to one common [`family::FamilySpec`] shape with
//! integer-exact weights:
//!
//! * [`powerlaw`] — degree-skewed graph analytics (PageRank / label
//!   propagation) with a Zipf exponent knob;
//! * [`hotkey`] — ML-shaped histogram / embedding-gradient scatter-add
//!   (long row streams, few hot keys);
//! * [`pic`] — particle-in-cell two-array deposition with a precomputed
//!   per-sweep churn schedule for `apply_updates`;
//! * [`oracle`] — the straight-line sequential golden oracle every
//!   engine must match bit for bit.
//!
//! All generators are deterministic given a seed.

pub mod family;
pub mod hotkey;
pub mod mesh;
pub mod moldyn;
pub mod nascg;
pub mod oracle;
pub mod partition;
pub mod pic;
pub mod powerlaw;

pub use family::{FamilyError, FamilySpec};
pub use hotkey::HotKeyScatter;
pub use mesh::{Mesh, MeshPreset};
pub use moldyn::{MolDyn, MolDynPreset};
pub use nascg::{CgClass, SparseMatrix};
pub use oracle::{oracle_reduce, oracle_reduce_raw};
pub use partition::{
    diff_pairs, distribute, hash_distribute_pairs, rcb_partition, try_distribute,
    try_distribute_nonempty, try_hash_distribute_pairs, try_rcb_partition, Distribution,
    PartitionError,
};
pub use pic::PicDeck;
pub use powerlaw::PowerLawGraph;
