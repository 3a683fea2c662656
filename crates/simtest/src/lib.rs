//! Deterministic crowd-simulation subsystem (FoundationDB-style).
//!
//! Everything in a simulated session is a pure function of one `u64`
//! seed: the synthetic world (a planted-MSP assignment DAG), the crowd
//! (a pure oracle answering from planted truth), the fault [`Schedule`]
//! (drops, bounded delays, contradictions, member churn, absences) and
//! the engine's RNG. A [`LogicalClock`] replaces wall-clock time, so
//! the engine's [`CrowdPolicy`](crowd::CrowdPolicy) timeout/retry/backoff
//! machinery interacts with fault windows reproducibly.
//!
//! * [`schedule`] — the fault model and its one-line replayable grammar.
//! * [`faulty`] — [`FaultyCrowd`], the schedule-driven crowd wrapper,
//!   and the [`SimTrace`] determinism digest.
//! * [`harness`] — [`run_seed`]: differential oracles across all four
//!   engines, graceful-degradation and budget checks, and
//!   bit-identical-replay verification.
//! * [`recovery`] — the kill-at-tick crash-recovery harness: the
//!   crowd-mining server process model killed mid-run at scheduled
//!   ticks, restarted over the surviving WAL prefix, and verified to
//!   replay pre-crash `SemanticOutcome` digests bit-identically.
//! * [`shrink`] — ddmin-style minimization of failing schedules to a
//!   1-minimal, replayable counterexample.
//! * [`permute`] — op-log permutation checking: deterministic shuffles
//!   and the digest folds behind the golden-digest permutation oracle
//!   (`tests/oplog_permutation.rs`).

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

pub mod clock;
pub mod faulty;
pub mod harness;
pub mod permute;
pub mod recovery;
pub mod schedule;
pub mod shrink;

pub use clock::LogicalClock;
pub use faulty::{FaultyCrowd, SimTrace, TraceEntry};
pub use harness::{
    record_seed_trace, run_corpus, run_seed, run_with_schedule, shrink_failure, SimConfig,
    SimReport,
};
pub use permute::{permutation_count, shuffled};
pub use recovery::{
    run_recovery_corpus, run_recovery_seed, run_recovery_with_schedule, shrink_recovery_failure,
    RecoveryConfig, RecoveryReport,
};
pub use schedule::{FaultEvent, FaultKind, Schedule};
pub use shrink::shrink as shrink_schedule;
