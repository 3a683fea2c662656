//! # oassis-server — the crowd-mining serving layer
//!
//! ROADMAP item 1: the paper's OASSIS architecture assumes long-lived
//! crowd members whose "virtual personal databases" outlive any single
//! query, so the engine needs a process that outlives the query too.
//! This crate is that process: a std-only, long-lived service over
//! [`oassis_core::Oassis::run`] speaking line-delimited JSON over TCP,
//! with a session manager owning the shared ontology and answer cache,
//! and a WAL-backed embedded store so per-member answer databases and
//! partial classifications survive restarts.
//!
//! * [`proto`] — the wire contract: versioned hello handshake,
//!   request/response/error frames over the hand-rolled
//!   [`ontology::json`], decoding tolerant of unknown fields.
//! * [`wal`] — the embedded store: per-member append-only `AnswerOp`
//!   logs (wire form, crc-guarded, torn-tail tolerant), building
//!   directly on `core::oplog`'s record format.
//! * [`session`] — the session manager and the [`SessionHandle`]
//!   façade: sessions page in by WAL replay and page out by dropping
//!   resident state (everything is already durable).
//! * [`service`] — the TCP serve loop: thread-per-connection over a
//!   shared session manager.
//!
//! ## Recovery is replay
//!
//! On restart the server rebuilds each session by replaying the union
//! of its member logs against a freshly built DAG (the *stale-DAG*
//! shape of `core::cluster`: ops address nodes by assignment, the
//! recovering replica interns them at recovery time). The replayed
//! [`oassis_core::SemanticOutcome`] digest must equal the pre-crash
//! digest bit-identically — the kill-at-tick oracle in `crates/simtest`
//! checks exactly that, seeded and ddmin-shrinkable.
#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

pub mod proto;
pub mod provider;
pub mod service;
pub mod session;
pub mod wal;

pub use proto::{negotiate, Request, Response, PROTO_MIN, PROTO_VERSION};
pub use provider::Figure1Provider;
pub use service::{Client, Server, ServerConfig};
pub use session::{
    CrowdProvider, FnProvider, OpenReply, QueryReply, RecoveredQuery, ServerError, SessionHandle,
    SessionManager, SessionSpec, MAX_MEMBERS,
};
pub use wal::{DoneMeta, KillSwitch, QueryMeta, QuerySpec, Recovered, SessionWal, WalTap};

/// Renders a `SemanticOutcome` digest the way the WAL and the wire
/// protocol carry it: 16 lowercase hex digits. `u64` does not survive a
/// JSON `Num` round trip above 2^53, a hex string does.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}
