//! Crash-recovery suite: the kill-at-tick fault class against the
//! session manager's WAL, without the TCP layer in between.
//!
//! The oracle (mirroring the cluster simulation's shard-equivalence
//! oracle, with the crash cut playing the role of the partition):
//!
//! 1. a query that *finished* before the kill must recover to its
//!    recorded `SemanticOutcome` digest bit-identically;
//! 2. a query cut down mid-run must recover without panicking to a
//!    replayable prefix state;
//! 3. re-running the cut query on the recovered session (resumption
//!    over the paged-in answer cache) must land on the fault-free
//!    digest — and ask strictly fewer fresh questions than a cold run;
//! 4. snapshot compaction must be invisible: kill-at-tick with and
//!    without snapshots recovers identical digests.
//!
//! It also pins the single-decode restart: the decode a page-in keeps
//! for `recover` is dropped by a later query, a second `recover` reads
//! the disk and agrees with the first, and the compaction cadence
//! resumes from the recovered record counts.

mod common;

use common::{manager, spec, temp_root};
use crowd::MemberId;
use oassis_core::{WireOp, WireVerdict};
use oassis_server::{KillSwitch, QuerySpec, SessionWal};
use ontology::domains::figure1;
use proptest::prelude::*;
use std::sync::Arc;

fn qspec() -> QuerySpec {
    QuerySpec {
        src: figure1::SIMPLE_QUERY.to_string(),
        threshold: None,
        batch_width: 1,
        max_questions: None,
        seed: 3,
    }
}

/// Fault-free reference: digest and question count of a cold run.
fn fault_free(seed: u64) -> (String, usize) {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root(&format!("ref-{seed}"));
    let mut mgr = manager(&ont, &root);
    let mut sp = spec("ref");
    sp.seed = seed;
    mgr.open(&sp).unwrap();
    let mut qs = qspec();
    qs.seed = seed;
    let reply = mgr.query("ref", &qs).unwrap();
    let _ = std::fs::remove_dir_all(&root);
    (reply.digest, reply.fresh)
}

/// One kill/restart/verify cycle; returns the recovered digests (qid
/// order) and the resumed re-run's reply digest + fresh count.
fn kill_cycle(seed: u64, kill_tick: u32, snapshot_every: u32) -> (Vec<String>, String, usize) {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root(&format!("kill-{seed}-{kill_tick}-{snapshot_every}"));
    let mut sp = spec("s");
    sp.seed = seed;
    let mut qs = qspec();
    qs.seed = seed;

    // --- pre-crash process: one finished query, then arm and cut
    let kill = KillSwitch::new();
    {
        let mut mgr = manager(&ont, &root)
            .with_snapshot_every(snapshot_every)
            .with_kill(kill.clone());
        mgr.open(&sp).unwrap();
        mgr.query("s", &qs).unwrap(); // qid 1 finishes durably
        kill.arm(kill_tick);
        let _ = mgr.query("s", &qs); // qid 2's durable suffix is cut
        assert!(
            kill.killed() || kill_tick > 1_000,
            "the kill tick never fired — pick one inside the run"
        );
    }

    // --- restart: fresh manager over the same WAL root
    let mut mgr = manager(&ont, &root).with_snapshot_every(snapshot_every);
    let opened = mgr.open(&sp).unwrap();
    assert!(opened.resumed, "durable state must page back in");
    let recovered = mgr.recover("s").unwrap();
    assert_eq!(recovered.len(), 2, "both registered queries recover");
    // oracle 1: the finished query's replay matches its recorded digest
    assert_eq!(
        recovered[0].verified,
        Some(true),
        "pre-crash digest must reproduce bit-identically: recorded {:?}, replayed {}",
        recovered[0].recorded_digest,
        recovered[0].digest
    );
    // oracle 2: the cut query replays (no done record, no panic)
    assert_eq!(recovered[1].recorded_digest, None);
    let digests: Vec<String> = recovered.iter().map(|r| r.digest.clone()).collect();

    // oracle 3: resumption over the paged-in cache
    let reply = mgr.query("s", &qs).unwrap();
    let _ = std::fs::remove_dir_all(&root);
    (digests, reply.digest, reply.fresh)
}

#[test]
fn kill_at_tick_matrix_recovers_bit_identically() {
    // the push matrix of the ISSUE: 3 seeds × snapshot-vs-no-snapshot
    for seed in [3u64, 11, 29] {
        let (want_digest, cold_fresh) = fault_free(seed);
        assert!(cold_fresh > 4, "reference run must actually mine");
        for kill_tick in [2u32, 5, 9] {
            let (snap_dig, snap_reply, snap_fresh) = kill_cycle(seed, kill_tick, 2);
            let (flat_dig, flat_reply, flat_fresh) = kill_cycle(seed, kill_tick, 0);
            // oracle 4: compaction is invisible to recovery
            assert_eq!(
                snap_dig, flat_dig,
                "seed {seed} kill@{kill_tick}: snapshotted and flat WALs diverged"
            );
            // oracle 3: both resumptions land on the fault-free digest
            assert_eq!(snap_reply, want_digest, "seed {seed} kill@{kill_tick}");
            assert_eq!(flat_reply, want_digest, "seed {seed} kill@{kill_tick}");
            assert_eq!(snap_fresh, flat_fresh);
            // the paged-in cache must save crowd work: everything asked
            // before the kill tick is a hit on the re-run
            assert!(
                snap_fresh < cold_fresh,
                "seed {seed} kill@{kill_tick}: resumption asked {snap_fresh} fresh \
                 questions, cold run asked {cold_fresh} — the recovered cache did nothing"
            );
        }
    }
}

#[test]
fn clean_restart_verifies_and_asks_nothing() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("clean");
    let sp = spec("s");
    let first = {
        let mut mgr = manager(&ont, &root);
        mgr.open(&sp).unwrap();
        mgr.query("s", &qspec()).unwrap()
    };
    let mut mgr = manager(&ont, &root);
    mgr.open(&sp).unwrap();
    let recovered = mgr.recover("s").unwrap();
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered[0].verified, Some(true));
    assert_eq!(recovered[0].digest, first.digest);
    assert!(recovered[0].complete);
    // the whole answer database is cached: a repeat is all hits
    let again = mgr.query("s", &qspec()).unwrap();
    assert_eq!(again.digest, first.digest);
    assert_eq!(again.fresh, 0, "clean restart must not re-ask the crowd");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_tail_on_a_killed_wal_still_recovers() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("torn");
    let sp = spec("s");
    {
        let mut mgr = manager(&ont, &root);
        mgr.open(&sp).unwrap();
        mgr.query("s", &qspec()).unwrap();
    }
    // tear every member WAL mid-record (a crash inside write(2))
    let dir = root.join("s");
    let mut tore = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if name.starts_with("member-") && name.ends_with(".wal") {
            let bytes = std::fs::read(&path).unwrap();
            if bytes.len() > 10 {
                std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
                tore += 1;
            }
        }
    }
    assert!(tore > 0, "expected member WALs to tear");
    let mut mgr = manager(&ont, &root);
    mgr.open(&sp).unwrap();
    // recovery must not panic; the lost suffix means the digest check
    // can fail (verified == Some(false)) but the replay itself holds
    let recovered = mgr.recover("s").unwrap();
    assert_eq!(recovered.len(), 1);
    assert!(recovered[0].verified.is_some());
    // and resumption still converges to the true answer
    let reply = mgr.query("s", &qspec()).unwrap();
    let (want, _) = {
        let r = temp_root("torn-ref");
        let mut m = manager(&ont, &r);
        m.open(&sp).unwrap();
        let reply = m.query("s", &qspec()).unwrap();
        let _ = std::fs::remove_dir_all(&r);
        (reply.digest, reply.fresh)
    };
    assert_eq!(reply.digest, want);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn page_in_decode_is_dropped_by_a_later_query() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("page-in-query");
    let sp = spec("s");
    {
        let mut mgr = manager(&ont, &root);
        mgr.open(&sp).unwrap();
        mgr.query("s", &qspec()).unwrap();
    }
    // page in (the decode is kept), append a query, then recover: the
    // kept decode predates qid 2, so recovery must read the WAL again
    let mut mgr = manager(&ont, &root);
    mgr.open(&sp).unwrap();
    let second = mgr.query("s", &qspec()).unwrap();
    assert_eq!(second.qid, 2);
    let recovered = mgr.recover("s").unwrap();
    let qids: Vec<u32> = recovered.iter().map(|r| r.qid).collect();
    assert_eq!(qids, vec![1, 2]);
    assert_eq!(recovered[1].verified, Some(true));
    assert_eq!(recovered[1].digest, second.digest);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn second_recover_reads_the_disk_and_agrees() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("recover-twice");
    let sp = spec("s");
    {
        let mut mgr = manager(&ont, &root);
        mgr.open(&sp).unwrap();
        mgr.query("s", &qspec()).unwrap();
        let mut other = qspec();
        other.seed = 11;
        mgr.query("s", &other).unwrap();
    }
    let mut mgr = manager(&ont, &root);
    mgr.open(&sp).unwrap();
    let from_page_in = mgr.recover("s").unwrap();
    let from_disk = mgr.recover("s").unwrap();
    assert_eq!(from_page_in.len(), 2);
    assert!(from_page_in.iter().all(|r| r.verified == Some(true)));
    assert_eq!(from_page_in, from_disk);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn compaction_cadence_survives_a_restart() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("cadence");
    let sp = spec("s");
    let dir = root.join("s");
    manager(&ont, &root)
        .with_snapshot_every(4)
        .open(&sp)
        .unwrap();
    // three member-0 records (ops of a qid no query registers, which
    // recovery ignores), one short of the snapshot cadence
    {
        let mut wal = SessionWal::open(&dir, 4).unwrap();
        for tick in 1..=3 {
            let op = WireOp {
                tick,
                seq: 0,
                member: MemberId(0),
                node: None,
                verdict: WireVerdict::NoAnswer,
            };
            assert!(wal.append_op(99, &op).unwrap());
        }
    }
    assert!(!dir.join("member-0.snap").exists());
    // page in, then append exactly one more member-0 record: armed at
    // tick 2, the query's only durable member record is member 0's
    // answer to its first question
    let kill = KillSwitch::new();
    let mut mgr = manager(&ont, &root)
        .with_snapshot_every(4)
        .with_kill(kill.clone());
    assert!(mgr.open(&sp).unwrap().resumed);
    kill.arm(2);
    let _ = mgr.query("s", &qspec());
    assert!(kill.killed());
    assert!(
        dir.join("member-0.snap").exists(),
        "the fourth record since the last compaction must compact"
    );
    assert_eq!(
        std::fs::metadata(dir.join("member-0.wal")).unwrap().len(),
        0
    );
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any kill tick recovers: the finished query verifies, the cut
    /// query replays, resumption lands on the fault-free digest.
    #[test]
    fn any_kill_tick_recovers(seed in 1u64..40, kill_tick in 1u32..14) {
        let (want, _) = fault_free(seed);
        let (digests, resumed, _) = kill_cycle(seed, kill_tick, 2);
        prop_assert_eq!(digests.len(), 2);
        prop_assert_eq!(resumed, want);
    }
}
