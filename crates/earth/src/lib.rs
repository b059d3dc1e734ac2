//! # earth-model — the EARTH multithreaded execution model in Rust
//!
//! EARTH (Efficient Architecture for Running THreads) executes programs
//! as a two-level hierarchy: *threaded procedures* composed of
//! *fibers*. Fibers are non-preemptive and become eligible to run when a
//! dataflow-style **sync slot** counts down to zero. Fibers themselves
//! initiate split-phase "EARTH operations" (remote data transfer +
//! synchronization), which are handled off the critical path by a
//! per-node **Synchronization Unit (SU)** while the **Execution Unit
//! (EU)** keeps running other ready fibers — this is what lets the
//! architecture overlap communication and computation.
//!
//! This crate implements that model with two interchangeable backends:
//!
//! * [`native`] — fibers run on real OS threads (one per node, or several
//!   nodes multiplexed per thread on a smaller host), with atomics for
//!   sync slots. This mirrors the paper's remark
//!   that EARTH "can be emulated on off-the-shelf processors", and is
//!   used for wall-clock benchmarking on the host machine.
//! * [`sim`] — a deterministic discrete-event simulator that charges a
//!   calibrated cycle cost for computation (via [`memsim`]), fiber
//!   switches, SU operations, and network transfers. This stands in for
//!   the cycle-accurate MANNA simulator used in the paper (§5.2) and
//!   scales to any number of simulated nodes.
//!
//! Programs are built once as a [`MachineProgram`] — per-node state plus
//! a set of [`FiberSpec`]s — and can then be executed by either backend;
//! fiber bodies are generic over [`FiberCtx`], the handle through which
//! they issue EARTH operations.
//!
//! ## Model simplifications
//!
//! * A program is a static fiber graph: every fiber is registered before
//!   the run starts (no `INVOKE`, no run-time spawn) and fires exactly
//!   once, when its sync count reaches zero. Fibers are enabled only by
//!   `SYNC` and `DATA_SYNC`/`BLKMOV`; there is no `GET_SYNC`.
//! * Sync slots are one-per-fiber: `sync(node, fiber)` decrements that
//!   fiber's counter. (Real EARTH allows several slots per frame; nothing
//!   in the reproduced programs needs that generality.)
//! * Each node runs one implicit threaded procedure: the node's state
//!   type `S` is its frame, and the fibers registered on the node are
//!   its fibers.
//!
//! ## Example
//!
//! ```
//! use earth_model::{MachineProgram, FiberSpec, FiberCtx, Value};
//! use earth_model::native::{run_native, NativeCtx};
//!
//! // Two nodes; node 0 sends a value to node 1, which doubles it.
//! let mut prog: MachineProgram<f64, NativeCtx<f64>> = MachineProgram::new();
//! let n0 = prog.add_node(1.5);
//! let n1 = prog.add_node(0.0);
//! prog.node_mut(n0).add_fiber(FiberSpec::ready("send", move |s, cx: &mut NativeCtx<f64>| {
//!     let v = *s;
//!     cx.data_sync(n1, 7, Value::Scalar(v), 0);
//! }));
//! prog.node_mut(n1).add_fiber(FiberSpec::new("recv", 1, move |s, cx: &mut NativeCtx<f64>| {
//!     if let Some(Value::Scalar(v)) = cx.recv(7) {
//!         *s = 2.0 * v;
//!     }
//! }));
//! let report = run_native(prog).unwrap();
//! assert_eq!(report.states[1], 3.0);
//! ```

pub mod faults;
pub mod native;
pub mod pdes;
pub mod program;
pub mod sim;
pub mod spsc;
pub mod stats;
pub mod value;

pub use faults::{FaultConfig, FaultCounts, FaultPlan, FiberFault, MessageFault};
pub use native::{
    run_native, run_native_traced, run_native_with, NativeConfig, NativeReport, RunError,
    StallDump, StallReason,
};
pub use program::{
    FiberCtx, FiberSpec, FiberTemplate, MachineProgram, Meter, NodeBuilder, NodeTemplate,
    NullMeter, ProgramTemplate, SharedFiberBody, SlotId,
};
pub use sim::{
    render_gantt, run_sim, run_sim_checked, run_sim_traced, SimConfig, SimError, SimReport,
};
pub use stats::{NodeStats, OpCounts, RunStats};
pub use trace::{
    CsvSink, FaultKind, MetricsRegistry, NullSink, RingSink, Timeline, TraceEvent, TraceKind,
    TraceSink,
};
pub use value::{mailbox_key, Value};
