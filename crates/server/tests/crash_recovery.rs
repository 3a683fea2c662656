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
//!    digest — and ask strictly fewer fresh questions than a cold run.
//!
//! It also pins the single-decode restart (the decode a page-in keeps
//! for `recover` is dropped by a later query, and a second `recover`
//! reads the disk and agrees with the first), the shared replay of a
//! cold run's repeats on a restart, and the append-handle
//! lifetime: a session between queries holds no open WAL file, and a
//! crowd wider than the held-handle bound still recovers verified. A
//! directory holding a snapshot file of a compacting build is refused.

mod common;

use common::{manager, temp_root};
use oassis_server::wal::MAX_HELD_HANDLES;
use oassis_server::{KillSwitch, QueryReply, QuerySpec, SessionManager, SessionSpec};
use ontology::domains::figure1;
use ontology::Ontology;
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;
use telemetry::{Telemetry, TelemetrySink};

/// The session spec every test session uses.
fn spec(name: &str) -> SessionSpec {
    SessionSpec {
        name: name.to_string(),
        seed: 7,
        members: 2,
    }
}

fn qspec() -> QuerySpec {
    QuerySpec {
        src: figure1::SIMPLE_QUERY.to_string(),
        threshold: None,
        batch_width: 1,
        max_questions: None,
        seed: 3,
    }
}

/// One process lifetime: a fresh manager over `root` opens `sp` and
/// runs `queries`, then is dropped as at process exit.
fn lifetime(
    ont: &Arc<Ontology>,
    root: &Path,
    sp: &SessionSpec,
    queries: &[QuerySpec],
) -> Vec<QueryReply> {
    let mut mgr = manager(ont, &root.to_path_buf());
    mgr.open(sp).unwrap();
    queries
        .iter()
        .map(|q| mgr.query(&sp.name, q).unwrap())
        .collect()
}

/// A restarted process: a fresh manager over `root` with `sp` paged in.
fn restart(ont: &Arc<Ontology>, root: &Path, sp: &SessionSpec) -> SessionManager {
    let mut mgr = manager(ont, &root.to_path_buf());
    mgr.open(sp).unwrap();
    mgr
}

/// Fault-free reference: digest and question count of a cold run.
fn fault_free(seed: u64) -> (String, usize) {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root(&format!("ref-{seed}"));
    let mut sp = spec("ref");
    sp.seed = seed;
    let mut qs = qspec();
    qs.seed = seed;
    let reply = lifetime(&ont, &root, &sp, &[qs]).remove(0);
    let _ = std::fs::remove_dir_all(&root);
    (reply.digest, reply.fresh)
}

/// One kill/restart/verify cycle; returns the recovered digests (qid
/// order) and the resumed re-run's reply digest + fresh count.
fn kill_cycle(seed: u64, kill_tick: u32) -> (Vec<String>, String, usize) {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root(&format!("kill-{seed}-{kill_tick}"));
    let mut sp = spec("s");
    sp.seed = seed;
    let mut qs = qspec();
    qs.seed = seed;

    // --- pre-crash process: one finished query, then arm and cut
    let kill = KillSwitch::new();
    {
        let mut mgr = manager(&ont, &root).with_kill(kill.clone());
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
    let mut mgr = manager(&ont, &root);
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
    // 3 seeds × 3 kill ticks
    for seed in [3u64, 11, 29] {
        let (want_digest, cold_fresh) = fault_free(seed);
        assert!(cold_fresh > 4, "reference run must actually mine");
        for kill_tick in [2u32, 5, 9] {
            let (_, reply, fresh) = kill_cycle(seed, kill_tick);
            // oracle 3: the resumption lands on the fault-free digest
            assert_eq!(reply, want_digest, "seed {seed} kill@{kill_tick}");
            // the paged-in cache must save crowd work: everything asked
            // before the kill tick is a hit on the re-run
            assert!(
                fresh < cold_fresh,
                "seed {seed} kill@{kill_tick}: resumption asked {fresh} fresh \
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
    let first = lifetime(&ont, &root, &sp, &[qspec()]).remove(0);
    let mut mgr = restart(&ont, &root, &sp);
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
    lifetime(&ont, &root, &sp, &[qspec()]);
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
    let mut mgr = restart(&ont, &root, &sp);
    // recovery must not panic; the lost suffix means the digest check
    // can fail (verified == Some(false)) but the replay itself holds
    let recovered = mgr.recover("s").unwrap();
    assert_eq!(recovered.len(), 1);
    assert!(recovered[0].verified.is_some());
    // and resumption still converges to the true answer
    let reply = mgr.query("s", &qspec()).unwrap();
    let r = temp_root("torn-ref");
    let want = lifetime(&ont, &r, &sp, &[qspec()]).remove(0).digest;
    let _ = std::fs::remove_dir_all(&r);
    assert_eq!(reply.digest, want);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn page_in_decode_is_dropped_by_a_later_query() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("page-in-query");
    let sp = spec("s");
    lifetime(&ont, &root, &sp, &[qspec()]);
    // page in (the decode is kept), append a query, then recover: the
    // kept decode predates qid 2, so recovery must read the WAL again
    let mut mgr = restart(&ont, &root, &sp);
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
    // two texts in rotation: the one-entry prepare memo misses on each,
    // and `recover` prepares each text once per call
    let mut other = qspec();
    other.seed = 11;
    other.src.push(' ');
    lifetime(&ont, &root, &sp, &[qspec(), other, qspec()]);
    let mut mgr = restart(&ont, &root, &sp);
    let from_page_in = mgr.recover("s").unwrap();
    let from_disk = mgr.recover("s").unwrap();
    assert_eq!(from_page_in.len(), 3);
    assert!(from_page_in.iter().all(|r| r.verified == Some(true)));
    assert_eq!(from_page_in, from_disk);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_restart_replays_a_cold_run_once_for_its_eight_repeats() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("shared-replays");
    let sp = spec("s");
    let replies = lifetime(&ont, &root, &sp, &vec![qspec(); 9]);
    let sink = Arc::new(TelemetrySink::new());
    let mut mgr = manager(&ont, &root).with_telemetry(Telemetry::recording(&sink));
    mgr.open(&sp).unwrap();
    let recovered = mgr.recover("s").unwrap();
    assert_eq!(recovered.len(), 9);
    for (q, reply) in recovered.iter().zip(&replies) {
        assert_eq!(q.verified, Some(true), "qid {}", q.qid);
        assert_eq!(q.digest, reply.digest);
        assert_eq!(q.ops, recovered[0].ops, "a repeat logs the cold run's ops");
    }
    assert_eq!(sink.counter("session.s.replays"), 1);
    assert_eq!(sink.counter("session.s.replays_shared"), 8);
    // a second call decodes the disk and shares the same way
    assert_eq!(mgr.recover("s").unwrap(), recovered);
    assert_eq!(sink.counter("session.s.replays"), 2);
    assert_eq!(sink.counter("session.s.replays_shared"), 16);
    let _ = std::fs::remove_dir_all(&root);
}

/// The WAL files of `dir` this process holds open, read from
/// `/proc/self/fd`.
#[cfg(target_os = "linux")]
fn open_files_under(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| target.starts_with(dir))
        .collect()
}

#[cfg(target_os = "linux")]
#[test]
fn a_session_between_queries_holds_no_wal_file_open() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("handles");
    // the fd table names the canonical path
    std::fs::create_dir_all(&root).unwrap();
    let dir = root.canonicalize().unwrap().join("s");
    let mut mgr = manager(&ont, &root);
    mgr.open(&spec("s")).unwrap();
    assert_eq!(open_files_under(&dir), Vec::<std::path::PathBuf>::new());
    mgr.query("s", &qspec()).unwrap();
    assert_eq!(open_files_under(&dir), Vec::<std::path::PathBuf>::new());
    // a query the engine rejects after its `query` record ends without
    // a footer; its handle is dropped all the same
    let mut bad = qspec();
    bad.threshold = Some(1.5);
    assert!(mgr.query("s", &bad).is_err());
    assert_eq!(open_files_under(&dir), Vec::<std::path::PathBuf>::new());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_crowd_larger_than_the_handle_bound_recovers_verified() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("wide-crowd");
    let mut sp = spec("s");
    sp.members = 2 * MAX_HELD_HANDLES as u32;
    // a low threshold asks enough questions to reach that many members
    let mut qs = qspec();
    qs.threshold = Some(0.05);
    let digest = lifetime(&ont, &root, &sp, &[qs]).remove(0).digest;
    let wal_files = std::fs::read_dir(root.join("s")).unwrap().count();
    assert!(wal_files > MAX_HELD_HANDLES + 1, "{wal_files} files");
    let recovered = restart(&ont, &root, &sp).recover("s").unwrap();
    assert_eq!(recovered[0].verified, Some(true));
    assert_eq!(recovered[0].digest, digest);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_session_with_a_snapshot_file_does_not_page_in() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("snap-file");
    lifetime(&ont, &root, &spec("s"), &[qspec()]);
    // a compacting build kept member 0's older records in this file
    std::fs::write(root.join("s").join("member-0.snap"), "").unwrap();
    let mut mgr = manager(&ont, &root);
    assert!(mgr.open(&spec("s")).is_err());
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any kill tick recovers: the finished query verifies, the cut
    /// query replays, resumption lands on the fault-free digest.
    #[test]
    fn any_kill_tick_recovers(seed in 1u64..40, kill_tick in 1u32..14) {
        let (want, _) = fault_free(seed);
        let (digests, resumed, _) = kill_cycle(seed, kill_tick);
        prop_assert_eq!(digests.len(), 2);
        prop_assert_eq!(resumed, want);
    }
}
