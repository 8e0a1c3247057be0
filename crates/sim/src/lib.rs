//! Deterministic discrete-event simulator of asynchronous, crash-prone
//! message-passing systems with fair-lossy channels.
//!
//! This crate generates the [`Run`](ktudc_model::Run)s that the rest of the
//! workspace analyses. It plays the role of the *context* of Halpern &
//! Ricciardi §2.1: a bound on failures, a channel-reliability regime, and a
//! failure-detector wiring, within which a joint protocol generates a system
//! of runs.
//!
//! Two generation modes are provided:
//!
//! * [`runner::run_protocol`] — a seeded Monte-Carlo executor. Given a
//!   [`SimConfig`], a protocol factory, a failure-detector oracle and a
//!   workload, it produces one run per seed, deterministically. Sampling
//!   many seeds approximates the system generated by the protocol in the
//!   context.
//! * [`explorer::explore`] — an exhaustive enumerator for *small* systems
//!   (2–3 processes, short horizons). It branches over every scheduling
//!   choice (stutter, crash, message delivery, protocol step) and returns
//!   the complete [`System`](ktudc_model::System), over which the epistemic
//!   model checker of `ktudc-epistemic` is *exact*.
//!
//! # Scheduling discipline
//!
//! Both modes enforce R2 structurally: at each tick, each live process
//! appends **at most one** event — a crash (if the fault plan says so), a
//! failure-detector report (periodically, if the oracle emits), the receipt
//! of one deliverable message, or one protocol action (send / do). All
//! nondeterminism is resolved by a seeded RNG (runner) or by branching
//! (explorer), so identical inputs give identical runs.
//!
//! # Channel semantics
//!
//! [`ChannelKind::Reliable`] delivers every copy (after an arbitrary, RNG-
//! chosen delay); [`ChannelKind::FairLossy`] drops each copy independently
//! with probability `drop_prob` but never corrupts or duplicates, so a
//! message sent unboundedly often is received unboundedly often — exactly
//! the paper's R5 fairness, realized at finite horizons with high
//! probability. Tests that rely on fairness always assert protocol
//! *quiescence*, not mere horizon exhaustion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod ckpt_codec;
pub mod config;
pub mod detector;
pub mod explorer;
pub mod faults;
pub mod network;
pub mod oracle;
pub mod protocol;
pub mod runner;
pub mod wire;

pub use checkpoint::{
    explore_spec_checkpointed, explore_spec_checkpointed_budgeted, resume_checkpoint,
    CheckpointOutcome, CheckpointStats,
};
pub use config::{ChannelKind, CrashPlan, SimConfig, Workload};
pub use detector::{
    run_detected, run_detected_batch, DetectedOutcome, Detector, DETECTOR_STREAM_SALT,
};
pub use explorer::{
    canonical_run_digests, explore, explore_budgeted, explore_reference, explore_with_stats,
    ExploreConfig, ExploreStatus, Reduction, ReductionStats, FRONTIER_WIDTH,
};
pub use faults::{ActiveFaults, FaultPlan, FaultStats, SendDecision};
pub use oracle::{FaultTruth, FdOracle, NullOracle};
pub use protocol::{Outbox, ProtoAction, Protocol};
pub use runner::{run_protocol, run_protocol_batch, SimOutcome};
pub use wire::{
    explore_spec, explore_spec_budgeted, run_explore_spec, run_explore_spec_budgeted,
    system_digest, ExploreOutcome, ExploreSpec, ExploreStatusOutcome, FdRule, WireProtocol,
};
