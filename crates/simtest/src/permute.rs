//! Op-log permutation checking: the machinery behind the golden-digest
//! permutation oracle (`tests/oplog_permutation.rs`).
//!
//! A mining run's [`OpLog`] is order-free under the canonical
//! `(tick, member, seq)` merge order: replaying ANY permutation of the
//! ops must converge to the same digest-bearing outcome. This module
//! supplies the pieces the harness composes:
//!
//! * [`shuffled`] — a deterministic Fisher–Yates permutation of a log;
//! * [`permutation_count`] — the shuffle budget, `OPLOG_PERMS` from the
//!   environment (nightly widens it) with a push-CI default of 12.
//!
//! Both sides of the oracle digest with `oassis_core::digest`, the same
//! folds `bench_speed` gates the committed `BENCH_speed.json` goldens
//! with.

use oassis_core::{AnswerOp, OpLog};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A deterministic random permutation of `ops`' op sequence (the footer
/// is carried unchanged).
pub fn shuffled(ops: &OpLog, seed: u64) -> OpLog {
    let mut perm: Vec<AnswerOp> = ops.ops().to_vec();
    perm.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15));
    ops.with_ops(perm)
}

/// How many random permutations each workload replays: `OPLOG_PERMS`
/// from the environment, defaulting to 12 (sized for the push-CI
/// budget; the nightly matrix raises it).
pub fn permutation_count() -> u64 {
    // audit: allow(D2, harness-depth knob - the count only widens the shuffle sweep; every shuffle is seeded, so no outcome can depend on it)
    std::env::var("OPLOG_PERMS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
}
