//! Crash-recovery smoke corpus (CI on every push; the nightly job
//! widens it via `RECOVERY_SEEDS`).
//!
//! A fixed range of seeds drives the kill-at-tick harness: server-kill
//! schedules cut the process model mid-run, restarts replay the
//! surviving WAL prefix, and every recovered `SemanticOutcome` digest
//! must reproduce bit-identically. Failures are shrunk to a one-line
//! replayable schedule before being reported.

use simtest::{
    run_recovery_corpus, run_recovery_seed, run_recovery_with_schedule, RecoveryConfig, Schedule,
};

/// Seed range: `0..RECOVERY_SEEDS` (default 6 — each seed is a full
/// kill/restart matrix over real file IO, so the push corpus is small).
fn corpus_size() -> u64 {
    std::env::var("RECOVERY_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(6)
}

#[test]
fn seed_corpus_recovers_every_kill_schedule() {
    let failures = run_recovery_corpus(0..corpus_size());
    assert!(
        failures.is_empty(),
        "failing seeds (schedules already shrunk):\n{}",
        failures
            .iter()
            .map(|r| format!(
                "  seed {} schedule `{}`: {}",
                r.seed,
                r.schedule.to_line(),
                r.failures.join("; ")
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn same_seed_reproduces_bit_identical_recovery_digests() {
    for seed in [1u64, 4] {
        let a = run_recovery_seed(seed);
        let b = run_recovery_seed(seed);
        assert_eq!(a.digest, b.digest, "seed {seed} digest drifted");
        assert_eq!(a.schedule, b.schedule, "seed {seed} schedule drifted");
    }
}

#[test]
fn replayed_kill_line_reproduces_the_exact_report() {
    // a hand-written worst case: three kills in one session, early and
    // mid-run
    let cfg = RecoveryConfig::from_seed(17);
    let schedule = Schedule::parse("s0@1,s0@5,s0@9").unwrap();
    let a = run_recovery_with_schedule(&cfg, &schedule);
    assert!(
        a.passed(),
        "kill schedule `{}` violated: {}",
        schedule.to_line(),
        a.failures.join("; ")
    );
    let replayed = Schedule::parse(&schedule.to_line()).unwrap();
    let b = run_recovery_with_schedule(&cfg, &replayed);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.failures, b.failures);
}

#[test]
fn fault_free_recovery_schedule_passes_trivially() {
    let cfg = RecoveryConfig::from_seed(8);
    let report = run_recovery_with_schedule(&cfg, &Schedule::fault_free());
    assert!(report.passed(), "{:?}", report.failures);
}
