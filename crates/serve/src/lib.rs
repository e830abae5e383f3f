//! Persistent optimization serving for the NCGWS engine.
//!
//! The core crate solves one sizing problem per call. This crate keeps a
//! process-resident [`Server`] running: clients submit [`JobSpec`]s into a
//! priority queue, worker threads drain it through the two-stage
//! `prepare → order → size` flow, and every attempt runs under a
//! checkpointing [`RunControl`](ncgws_core::RunControl) so an interrupted
//! job (per-attempt iteration budget, wall-clock timeout, or cooperative
//! cancel) is requeued and **resumes from its latest
//! [`Snapshot`](ncgws_core::Snapshot)** instead of restarting cold.
//!
//! What lives where:
//!
//! * [`job`] — [`JobSpec`]/[`JobId`]/[`JobState`]/[`JobOutcome`]: the
//!   serializable job descriptions and results;
//! * [`server`] — the [`Server`] itself: worker pool, strict-priority FIFO
//!   queue, per-tenant admission control, graceful [`drain`](Server::drain);
//! * [`stats`] — pollable [`ServerStats`] (cumulative counters, queue
//!   gauges, snapshot/queue memory accounting);
//! * [`events`] — the optional JSON-lines event stream;
//! * [`store`] — the durability layer: [`DiskSnapshotStore`] (atomic,
//!   checksummed snapshot files with a memory-budget spill policy) and the
//!   append-only [`Journal`] that [`Server::recover`] replays after a
//!   crash;
//! * [`fault`] — the seeded, deterministic [`FaultPlan`] injection layer
//!   (worker panics, I/O errors, torn writes).
//!
//! Job specs, outcomes and the server config are read back from the journal
//! by their derived `Deserialize` decoders (the workspace's serde
//! stand-in), followed by [`JobSpec::validate`] for the checks decoding
//! alone cannot make.
//!
//! # Example
//!
//! ```
//! use ncgws_core::OptimizerConfig;
//! use ncgws_netlist::CircuitSpec;
//! use ncgws_serve::{JobInput, JobSpec, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default());
//! let config = OptimizerConfig {
//!     max_iterations: 30,
//!     ..OptimizerConfig::default()
//! };
//! let spec = JobSpec::new(
//!     JobInput::Synthetic(CircuitSpec::new("demo", 20, 45).with_seed(7)),
//!     config,
//! )
//! .with_priority(1)
//! .with_tenant("docs");
//! let id = server.submit(spec).unwrap();
//! let outcome = server.wait(id).unwrap();
//! assert!(!outcome.stop_reason.is_interrupted());
//! let stats = server.drain();
//! assert_eq!(stats.completed, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// The serving layer reports every failure as a value: outside tests (which
// `clippy.toml` exempts) it makes no panicking call and indexes nothing
// unchecked. Each exception names, in an `#[expect]`, why it cannot fire.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod events;
pub mod fault;
pub mod job;
pub mod server;
pub mod stats;
pub mod store;
mod sync;

pub use events::SharedBuffer;
pub use fault::{FaultPlan, WriteFault};
pub use job::{JobId, JobInput, JobOutcome, JobSpec, JobState, RetryPolicy};
pub use server::{DurableOptions, RecoveryReport, Server, ServerConfig, SubmitError};
pub use stats::ServerStats;
pub use store::{DiskSink, DiskSnapshotStore, Journal, StoreConfig, StoreError, StoreStats};
