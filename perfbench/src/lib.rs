//! # perfbench — end-to-end and per-layer benchmark of OASSIS
//!
//! Three closed-loop workloads over the paper-scale travel domain
//! (Section 6.3, E1), each built from fixed-shape cycles whose crowd
//! seeds rotate over four values derived from the workload seed:
//!
//! * [`mine`] — one caller running `Oassis::run` (the paper's headline
//!   experiment; engine-bound, no I/O).
//! * [`serve`] — two TCP connections driving session lifecycles against
//!   an in-process `Server` (WAL append, compaction, frame codec, the
//!   `server.sessions` mutex).
//! * [`recover`] — one caller restarting sessions from a read-only WAL
//!   corpus (WAL decode, DAG rebuild, op-log replay).
//!
//! Every workload reports steady end-to-end medians plus exact work
//! counts, checks every op's outcome digest, and has a traced mode that
//! attributes its time to the repository's layers by timing calls into
//! their public functions from outside. See `README.md` next to this
//! crate for the metric definitions and the layer map.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]

pub mod common;
pub mod mine;
pub mod procfs;
pub mod recover;
pub mod report;
pub mod serve;
pub mod stats;
