//! Kill-at-tick crash recovery: the server process model under
//! [`FaultKind::ServerKill`](crate::schedule::FaultKind::ServerKill).
//!
//! One seed derives a session spec (crowd size) and a [`Schedule`] of
//! server-kill ticks. The harness drives an
//! `oassis_server::SessionManager` through one process lifetime per
//! kill: a query runs, the `KillSwitch` silently drops every durable
//! append from the kill tick on (a faithful process death — the
//! in-memory run continues, the WAL keeps only a prefix), the process
//! is dropped, and a fresh manager recovers over the same WAL root.
//! The oracle, per restart:
//!
//! 1. **Durability:** every query whose done-record survived replays to
//!    its recorded `SemanticOutcome` digest bit-identically;
//! 2. **Prefix safety:** the cut query replays without panicking —
//!    whatever op prefix survived is a valid partial classification;
//! 3. **Resumption:** after the final restart, re-running the query
//!    lands on the fault-free digest, and the paged-in answer cache
//!    serves every repeat (zero fresh crowd questions);
//! 4. **Determinism:** the digest folded over every replay is a pure
//!    function of `(seed, schedule)`.
//!
//! Failing schedules shrink via [`crate::shrink::shrink`] to a
//! 1-minimal, one-line replayable counterexample, exactly like the
//! engine harness ([`crate::harness`]).

use crate::schedule::Schedule;
use crate::shrink::shrink;
use oassis_core::digest::{fnv64, Fnv};
use oassis_server::{Figure1Provider, KillSwitch, QuerySpec, SessionManager, SessionSpec};
use ontology::domains::figure1;
use ontology::Ontology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Everything one crash-recovery session needs, derived from one seed.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// The master seed (crowd seeds, schedule, query rng).
    pub seed: u64,
    /// Simulated crowd size for the session.
    pub members: u32,
    /// The server-kill schedule driven through the process model.
    pub schedule: Schedule,
}

impl RecoveryConfig {
    /// Derives a full configuration from `seed` alone — the only input
    /// a failure report needs to quote.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E_C0DE_D15C_0B01);
        let members = rng.gen_range(1..=3);
        let schedule = Schedule::generate_recovery(seed, 14, 3);
        RecoveryConfig {
            seed,
            members,
            schedule,
        }
    }
}

/// The verdict for one seed.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The seed that derives everything.
    pub seed: u64,
    /// The schedule that was driven (replayable via its
    /// [`Schedule::to_line`]).
    pub schedule: Schedule,
    /// Property violations, empty on success.
    pub failures: Vec<String>,
    /// Digest folded over every recovered and resumed outcome — a pure
    /// function of `(seed, schedule)`.
    pub digest: u64,
}

impl RecoveryReport {
    /// Whether every property held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A WAL root unique to this `(seed, schedule)` run, cleared of any
/// previous run's leftovers (the shrinker replays many schedules for
/// one seed, so the schedule line is part of the name).
fn wal_root(seed: u64, schedule: &Schedule) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "oassis-simtest-recovery-{}-{seed}-{:016x}",
        std::process::id(),
        fnv64(schedule.to_line().as_bytes())
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn query_spec(seed: u64) -> QuerySpec {
    QuerySpec {
        src: figure1::SIMPLE_QUERY.to_string(),
        threshold: None,
        batch_width: 1,
        max_questions: None,
        seed,
    }
}

fn manager(ont: &Arc<Ontology>, root: &Path, kill: Option<KillSwitch>) -> SessionManager {
    let mgr = SessionManager::new(
        ont.clone(),
        Box::new(Figure1Provider::new(ont.clone())),
        root.to_path_buf(),
    );
    match kill {
        Some(k) => mgr.with_kill(k),
        None => mgr,
    }
}

/// Fault-free reference for `cfg`: the digest a cold, uninterrupted run
/// of the session's query produces, and how many fresh crowd questions
/// it costs.
fn reference(ont: &Arc<Ontology>, cfg: &RecoveryConfig) -> Result<(String, usize), String> {
    let root = wal_root(cfg.seed, &Schedule::fault_free()).join("ref");
    let mut mgr = manager(ont, &root, None);
    let spec = SessionSpec {
        name: "r".into(),
        seed: cfg.seed,
        members: cfg.members,
    };
    let out = (|| {
        mgr.open(&spec).map_err(|e| format!("ref open: {e}"))?;
        let reply = mgr
            .query("r", &query_spec(cfg.seed))
            .map_err(|e| format!("ref query: {e}"))?;
        Ok((reply.digest, reply.fresh))
    })();
    let _ = std::fs::remove_dir_all(root.parent().unwrap_or(&root));
    out
}

fn check_cycle(cfg: &RecoveryConfig, schedule: &Schedule) -> (Vec<String>, u64) {
    let ont = Arc::new(figure1::ontology());
    let mut failures: Vec<String> = Vec::new();
    let mut digest = Fnv::new();
    let (want_digest, cold_fresh) = match reference(&ont, cfg) {
        Ok(r) => r,
        Err(e) => return (vec![e], digest.finish()),
    };
    let root = wal_root(cfg.seed, schedule);
    let spec = SessionSpec {
        name: "s".into(),
        seed: cfg.seed,
        members: cfg.members,
    };
    let qs = query_spec(cfg.seed);
    let kills = schedule.server_kills();

    // Lifetime 0: one query completes and lands durably — the anchor
    // every later restart must verify against.
    {
        let mut mgr = manager(&ont, &root, None);
        if let Err(e) = mgr.open(&spec).and_then(|_| mgr.query("s", &qs)) {
            failures.push(format!("anchor lifetime: {e}"));
        }
    }

    let mut expected = 1usize;
    for (i, &tick) in kills.iter().enumerate() {
        // One killed lifetime: the process dies (durably) at `tick`
        // while the query keeps running in memory.
        let kill = KillSwitch::new();
        {
            let mut mgr = manager(&ont, &root, Some(kill.clone()));
            match mgr.open(&spec) {
                Ok(opened) if !opened.resumed => {
                    failures.push(format!("kill {i}: durable session did not resume"))
                }
                Ok(_) => {}
                Err(e) => failures.push(format!("kill {i} open: {e}")),
            }
            kill.arm(u32::try_from(tick).unwrap_or(u32::MAX));
            if let Err(e) = mgr.query("s", &qs) {
                failures.push(format!("kill {i} in-memory query: {e}"));
            }
        }
        expected += 1;

        // Restart over the surviving WAL prefix and verify.
        let mut mgr = manager(&ont, &root, None);
        match mgr.open(&spec) {
            Ok(opened) if !opened.resumed => {
                failures.push(format!("restart {i}: durable session did not resume"))
            }
            Ok(_) => {}
            Err(e) => failures.push(format!("restart {i} open: {e}")),
        }
        match mgr.recover("s") {
            Ok(recovered) => {
                if recovered.len() != expected {
                    failures.push(format!(
                        "restart {i}: recovered {} queries, expected {expected}",
                        recovered.len()
                    ));
                }
                for r in &recovered {
                    // oracle 1: a surviving done-record must verify
                    if r.recorded_digest.is_some() && r.verified != Some(true) {
                        failures.push(format!(
                            "restart {i} qid {}: replayed {} but recorded {:?}",
                            r.qid, r.digest, r.recorded_digest
                        ));
                    }
                    digest.bytes(r.digest.as_bytes());
                    digest.bytes(&[u8::from(r.complete)]);
                }
            }
            // oracle 2: prefix replay must never error out
            Err(e) => failures.push(format!("restart {i} recover: {e}")),
        }
    }

    // Final restart: resumption lands on the fault-free digest, and the
    // anchor query's durable answers serve every repeat from cache.
    let mut mgr = manager(&ont, &root, None);
    match mgr.open(&spec).and_then(|_| mgr.query("s", &qs)) {
        Ok(reply) => {
            if reply.digest != want_digest {
                failures.push(format!(
                    "resumption digest {} != fault-free {want_digest}",
                    reply.digest
                ));
            }
            if reply.fresh != 0 {
                failures.push(format!(
                    "resumption asked {} fresh questions (cold run: {cold_fresh}) — \
                     the recovered answer cache did nothing",
                    reply.fresh
                ));
            }
            digest.bytes(reply.digest.as_bytes());
        }
        Err(e) => failures.push(format!("resumption: {e}")),
    }
    let _ = std::fs::remove_dir_all(&root);
    (failures, digest.finish())
}

/// Runs the kill/restart/verify cycle for `schedule` (overriding the
/// one in `cfg`) and checks all recovery properties. This is the replay
/// entry point the shrinker drives.
pub fn run_recovery_with_schedule(cfg: &RecoveryConfig, schedule: &Schedule) -> RecoveryReport {
    let (failures, digest) = match catch_unwind(AssertUnwindSafe(|| check_cycle(cfg, schedule))) {
        Ok(r) => r,
        Err(e) => {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "panic (non-string payload)".into());
            (
                vec![format!("panicked under {}: {msg}", schedule.to_line())],
                0,
            )
        }
    };
    RecoveryReport {
        seed: cfg.seed,
        schedule: schedule.clone(),
        failures,
        digest,
    }
}

/// Derives the configuration for `seed` and runs the full recovery
/// property check.
pub fn run_recovery_seed(seed: u64) -> RecoveryReport {
    let cfg = RecoveryConfig::from_seed(seed);
    let schedule = cfg.schedule.clone();
    run_recovery_with_schedule(&cfg, &schedule)
}

/// Runs a corpus of consecutive seeds, returning only the failing
/// reports (each already shrunk to a minimal schedule).
pub fn run_recovery_corpus(seeds: std::ops::Range<u64>) -> Vec<RecoveryReport> {
    seeds
        .filter_map(|seed| {
            let report = run_recovery_seed(seed);
            if report.passed() {
                None
            } else {
                Some(shrink_recovery_failure(seed).unwrap_or(report))
            }
        })
        .collect()
}

/// If `seed` fails, shrinks its schedule to a 1-minimal failing one and
/// returns the (still failing) report for it; `None` if the seed
/// passes.
pub fn shrink_recovery_failure(seed: u64) -> Option<RecoveryReport> {
    let cfg = RecoveryConfig::from_seed(seed);
    let schedule = cfg.schedule.clone();
    if run_recovery_with_schedule(&cfg, &schedule).passed() {
        return None;
    }
    let minimal = shrink(&schedule, |s| !run_recovery_with_schedule(&cfg, s).passed());
    Some(run_recovery_with_schedule(&cfg, &minimal))
}
