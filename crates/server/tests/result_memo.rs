//! The session result memo: a repeated query is served from the last run
//! the answer cache alone reproduces, without mining again. A served
//! repeat writes its `query` record and a `done` footer whose `of` names
//! the memoized run, and no op record.
//!
//! The oracle is a twin session that `close`s and re-`open`s before each
//! repeat, so the repeat pages in with an empty memo and re-mines over the
//! paged-in cache. Both sessions must give the same replies, answer cache
//! and `SessionWal::recover` output, field by field except `of`, and a
//! restart must recover both alike. A kill switch armed during the
//! repeats never fires on a hit, which has no tick. The memo must miss
//! whenever the spec differs, when a member did not answer, and after an
//! engine error or a failed append (a failure mid-query is
//! `session.rs`'s unit test, which can reach the held append handle). Recovery resolves `of` only to an
//! earlier registered run for a query with no op record of its own, and
//! still reads directories whose repeats logged their ops.

mod common;

use common::{manager, temp_root};
use crowd::{Answer, CrowdSource, MemberId, Question};
use oassis_core::{CrowdCache, WireOp};
use oassis_server::{
    CrowdProvider, DoneMeta, Figure1Provider, KillSwitch, QueryReply, QuerySpec, RecoveredQuery,
    ServerError, SessionManager, SessionSpec, SessionWal,
};
use ontology::domains::figure1;
use ontology::Ontology;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use telemetry::{Telemetry, TelemetrySink};

const REPEATS: usize = 3;

fn session() -> SessionSpec {
    SessionSpec {
        name: "s".into(),
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

/// A manager over `root` recording into `sink`, with `kill` installed.
fn recording(
    ont: &Arc<Ontology>,
    root: &PathBuf,
    sink: &Arc<TelemetrySink>,
    kill: &KillSwitch,
) -> SessionManager {
    manager(ont, root)
        .with_kill(kill.clone())
        .with_telemetry(Telemetry::recording(sink))
}

fn memo_hits(sink: &TelemetrySink) -> u64 {
    sink.counter("session.s.memo_hits")
}

/// Every file of a session directory, by name.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// What a session directory recovers to: the fields of
/// `SessionWal::recover` and a restarted manager's `recover`.
#[derive(Debug, PartialEq)]
struct Durable {
    header: (Option<String>, u32, u64, u32),
    queries: Vec<(u32, QuerySpec, Option<DoneMeta>)>,
    ops: BTreeMap<u32, Vec<WireOp>>,
    cache: CrowdCache,
    truncated: bool,
    restart: Vec<RecoveredQuery>,
}

impl Durable {
    fn of(ont: &Arc<Ontology>, root: &PathBuf) -> Durable {
        let rec = SessionWal::open(root.join("s"), 0)
            .unwrap()
            .recover(ont.vocab())
            .unwrap();
        let mut mgr = manager(ont, root);
        mgr.open(&session()).unwrap();
        Durable {
            header: (rec.session, rec.proto, rec.seed, rec.members),
            queries: rec
                .queries
                .into_iter()
                .map(|q| (q.qid, q.spec, q.done))
                .collect(),
            ops: rec.ops,
            cache: rec.cache,
            truncated: rec.truncated,
            restart: mgr.recover("s").unwrap(),
        }
    }

    /// The footers' `of` fields, in qid order; cleared from `self`.
    fn take_of(&mut self) -> Vec<Option<u32>> {
        self.queries
            .iter_mut()
            .map(|(_, _, done)| done.as_mut().and_then(|d| d.of.take()))
            .collect()
    }
}

/// Cold query, then [`REPEATS`] repeats, arming `kill` at `arm` (if any)
/// after the first repeat. With `reopen`, each repeat runs after a
/// `close` and re-`open`, so it re-mines. Returns the replies, what the
/// directory recovers to, the memo hits and whether the kill fired.
fn run(tag: &str, reopen: bool, arm: Option<u32>) -> (Vec<QueryReply>, Durable, u64, bool) {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root(tag);
    let sink = TelemetrySink::shared();
    let kill = KillSwitch::new();
    let mut mgr = recording(&ont, &root, &sink, &kill);
    mgr.open(&session()).unwrap();
    let mut replies = vec![mgr.query("s", &qspec()).unwrap()];
    for i in 0..REPEATS {
        if i == 1 {
            if let Some(t) = arm {
                kill.arm(t);
            }
        }
        if reopen {
            mgr.close("s").unwrap();
            mgr.open(&session()).unwrap();
        }
        replies.push(mgr.query("s", &qspec()).unwrap());
    }
    let durable = Durable::of(&ont, &root);
    let _ = std::fs::remove_dir_all(&root);
    (replies, durable, memo_hits(&sink), kill.killed())
}

#[test]
fn memo_hits_recover_as_re_mined_repeats() {
    let (memo, mut memo_dur, hits, _) = run("memo", false, None);
    let (twin, mut twin_dur, twin_hits, _) = run("twin", true, None);
    assert_eq!((hits, twin_hits), (REPEATS as u64, 0));
    let mut want_of = vec![None];
    want_of.extend([Some(1); REPEATS]);
    assert_eq!(memo_dur.take_of(), want_of, "each repeat names qid 1");
    assert_eq!(twin_dur.take_of(), vec![None; REPEATS + 1]);
    assert_eq!(memo_dur, twin_dur, "recovers as the re-mined twin does");
    assert!(memo_dur.restart.iter().all(|q| q.verified == Some(true)));
    assert_eq!(memo, twin, "replies are the re-run's");
    assert!(memo[0].fresh > 0, "the cold query reached the crowd");
    for r in &memo[1..] {
        assert_eq!(r.fresh, 0);
        assert_eq!(
            (&r.digest, &r.answers, r.questions, r.complete),
            (
                &memo[0].digest,
                &memo[0].answers,
                memo[0].questions,
                memo[0].complete
            ),
            "a repeat answers what the cold run answered, counting its questions"
        );
    }
}

#[test]
fn a_kill_armed_at_any_tick_leaves_every_memo_repeat_whole() {
    let (replies, want, _, _) = run("probe", false, None);
    for t in 1..=replies[0].questions as u32 + 1 {
        let (memo, durable, hits, killed) = run(&format!("kill-memo-{t}"), false, Some(t));
        assert_eq!(hits, REPEATS as u64, "tick {t}: every repeat hits");
        assert!(!killed, "tick {t}: a hit has no tick to trip the switch");
        assert_eq!(memo, replies, "tick {t}");
        assert_eq!(durable, want, "tick {t}");
        for q in &durable.restart {
            assert_eq!(q.verified, Some(true), "tick {t} qid {}", q.qid);
            assert_eq!(q.digest, replies[0].digest, "tick {t} qid {}", q.qid);
        }
    }
}

#[test]
fn a_memo_hit_appends_two_lines_to_the_one_log_file() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("two-lines");
    let mut mgr = manager(&ont, &root);
    mgr.open(&session()).unwrap();
    mgr.query("s", &qspec()).unwrap();
    let dir = root.join("s");
    let before = dir_bytes(&dir);
    mgr.query("s", &qspec()).unwrap();
    let after = dir_bytes(&dir);
    let names: Vec<&String> = after.keys().collect();
    assert_eq!(names, ["session.wal"], "one file per session");
    let (log, old_log) = (&after["session.wal"], &before["session.wal"]);
    assert!(log.starts_with(old_log));
    let added = std::str::from_utf8(&log[old_log.len()..]).unwrap();
    let lines: Vec<&str> = added.lines().collect();
    assert_eq!(lines.len(), 2, "{added}");
    assert!(
        lines[0].contains(r#""kind":"query","qid":2"#),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains(r#""kind":"done","qid":2"#),
        "{}",
        lines[1]
    );
    assert!(lines[1].contains(r#""of":1"#), "{}", lines[1]);
    let old = std::str::from_utf8(old_log).unwrap();
    assert!(old.contains(r#""kind":"op""#), "the cold run logged ops");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_repeat_cut_before_its_footer_recovers_with_no_ops_and_no_claim() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("cut-footer");
    let mut mgr = manager(&ont, &root);
    mgr.open(&session()).unwrap();
    let cold = mgr.query("s", &qspec()).unwrap();
    for _ in 0..2 {
        mgr.query("s", &qspec()).unwrap();
    }
    drop(mgr);
    // drop qid 3's footer, the last line of the log
    let meta = root.join("s").join("session.wal");
    let text = std::fs::read_to_string(&meta).unwrap();
    let keep = text.trim_end_matches('\n').rfind('\n').unwrap() + 1;
    std::fs::write(&meta, &text[..keep]).unwrap();
    let mut mgr = manager(&ont, &root);
    mgr.open(&session()).unwrap();
    let recovered = mgr.recover("s").unwrap();
    let got: Vec<(u32, Option<bool>)> = recovered.iter().map(|q| (q.qid, q.verified)).collect();
    assert_eq!(got, [(1, Some(true)), (2, Some(true)), (3, None)]);
    assert_eq!(recovered[2].ops, 0);
    assert_eq!(recovered[1].digest, cold.digest);
    let _ = std::fs::remove_dir_all(&root);
}

/// A session whose qid 1 was mined through the manager, with the WAL's
/// decode of it; returns the root, the decode and the manager's reply.
fn one_cold_run(ont: &Arc<Ontology>, tag: &str) -> (PathBuf, Vec<WireOp>, DoneMeta) {
    let root = temp_root(tag);
    let mut mgr = manager(ont, &root);
    mgr.open(&session()).unwrap();
    mgr.query("s", &qspec()).unwrap();
    drop(mgr);
    let rec = SessionWal::open(root.join("s"), 0)
        .unwrap()
        .recover(ont.vocab())
        .unwrap();
    let done = rec.queries[0].done.clone().unwrap();
    (root, rec.ops[&1].clone(), done)
}

#[test]
fn an_of_naming_no_earlier_run_or_beside_own_ops_does_not_verify() {
    let ont = Arc::new(figure1::ontology());
    let (root, cold_ops, cold) = one_cold_run(&ont, "bad-of");
    assert!(cold_ops.len() > 1);
    let mut wal = SessionWal::open(root.join("s"), 0).unwrap();
    // qid 2 names 99, whose ops are on disk without a query record; 3
    // names 7, a later query that logged the cold run's ops; 4 is a
    // well-formed repeat; 5 logged an op of its own; 6 names itself
    for op in &cold_ops {
        assert!(wal.append_op(99, op).unwrap());
    }
    for (qid, of) in [
        (2, Some(99)),
        (3, Some(7)),
        (4, Some(1)),
        (5, Some(1)),
        (6, Some(6)),
        (7, None),
    ] {
        wal.record_query(qid, &qspec()).unwrap();
        let own = match qid {
            5 => &cold_ops[..1],
            7 => &cold_ops[..],
            _ => &[],
        };
        for op in own {
            assert!(wal.append_op(qid, op).unwrap());
        }
        wal.record_done(qid, &DoneMeta { of, ..cold.clone() })
            .unwrap();
    }
    drop(wal);
    let rec = SessionWal::open(root.join("s"), 0)
        .unwrap()
        .recover(ont.vocab())
        .unwrap();
    let lens: Vec<(u32, usize)> = rec.ops.iter().map(|(q, ops)| (*q, ops.len())).collect();
    let n = cold_ops.len();
    assert_eq!(lens, [(1, n), (4, n), (5, 1), (7, n), (99, n)]);
    let mut mgr = manager(&ont, &root);
    mgr.open(&session()).unwrap();
    let got: Vec<(u32, Option<bool>)> = mgr
        .recover("s")
        .unwrap()
        .iter()
        .map(|q| (q.qid, q.verified))
        .collect();
    assert_eq!(
        got,
        [
            (1, Some(true)),
            (2, Some(false)),
            (3, Some(false)),
            (4, Some(true)),
            (5, Some(false)),
            (6, Some(false)),
            (7, Some(true)),
        ]
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn repeats_that_logged_their_ops_recover_with_shared_replays() {
    let ont = Arc::new(figure1::ontology());
    let (root, cold_ops, cold) = one_cold_run(&ont, "old-format");
    // the format before `of`: each repeat re-appends the cold run's ops
    // and writes a footer without `of`
    let mut wal = SessionWal::open(root.join("s"), 0).unwrap();
    for qid in 2..=9 {
        wal.record_query(qid, &qspec()).unwrap();
        for op in &cold_ops {
            assert!(wal.append_op(qid, op).unwrap());
        }
        wal.record_done(qid, &cold).unwrap();
    }
    drop(wal);
    let sink = TelemetrySink::shared();
    let mut mgr = recording(&ont, &root, &sink, &KillSwitch::new());
    mgr.open(&session()).unwrap();
    let recovered = mgr.recover("s").unwrap();
    assert_eq!(recovered.len(), 9);
    for q in &recovered {
        assert_eq!(q.verified, Some(true), "qid {}", q.qid);
        assert_eq!(q.ops, cold_ops.len(), "qid {}", q.qid);
    }
    assert_eq!(sink.counter("session.s.replays"), 1);
    assert_eq!(sink.counter("session.s.replays_shared"), 8);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn changing_any_spec_field_misses_the_memo() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("fields");
    let sink = TelemetrySink::shared();
    let mut mgr = recording(&ont, &root, &sink, &KillSwitch::new());
    mgr.open(&session()).unwrap();
    let base = qspec();
    let variants = [
        QuerySpec {
            src: format!("{} ", base.src),
            ..base.clone()
        },
        QuerySpec {
            threshold: Some(0.3),
            ..base.clone()
        },
        QuerySpec {
            batch_width: 2,
            ..base.clone()
        },
        QuerySpec {
            max_questions: Some(1000),
            ..base.clone()
        },
        QuerySpec {
            seed: 4,
            ..base.clone()
        },
    ];
    mgr.query("s", &base).unwrap();
    for v in &variants {
        mgr.query("s", &base).unwrap();
        let hits = memo_hits(&sink);
        mgr.query("s", v).unwrap();
        assert_eq!(memo_hits(&sink), hits, "{v:?} hit the memo of {base:?}");
    }
    // and an equal spec still hits
    mgr.query("s", &base).unwrap();
    let hits = memo_hits(&sink);
    mgr.query("s", &base).unwrap();
    assert_eq!(memo_hits(&sink), hits + 1);
    let _ = std::fs::remove_dir_all(&root);
}

/// Figure-1 crowds whose member 1 never answers in time.
struct SilentMemberProvider(Figure1Provider);

struct SilentMember<'a>(Box<dyn CrowdSource + Send + 'a>);

impl CrowdSource for SilentMember<'_> {
    fn members(&self) -> Vec<MemberId> {
        self.0.members()
    }

    fn ask(&mut self, member: MemberId, question: &Question) -> Answer {
        if member == MemberId(1) {
            return Answer::NoResponse;
        }
        self.0.ask(member, question)
    }

    fn questions_asked(&self) -> usize {
        self.0.questions_asked()
    }
}

impl CrowdProvider for SilentMemberProvider {
    fn provide<'a>(&'a self, spec: &SessionSpec) -> Box<dyn CrowdSource + Send + 'a> {
        Box::new(SilentMember(self.0.provide(spec)))
    }
}

#[test]
fn a_run_with_an_unanswered_question_is_never_memoized() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("silent");
    let sink = TelemetrySink::shared();
    let provider = Box::new(SilentMemberProvider(Figure1Provider::new(ont.clone())));
    let mut mgr =
        SessionManager::new(ont, provider, &root).with_telemetry(Telemetry::recording(&sink));
    mgr.open(&session()).unwrap();
    let cold = mgr.query("s", &qspec()).unwrap();
    for _ in 0..REPEATS {
        let r = mgr.query("s", &qspec()).unwrap();
        assert!(r.fresh > 0, "each repeat re-asks the silent member");
        assert_eq!(r.digest, cold.digest);
    }
    assert_eq!(memo_hits(&sink), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn an_engine_error_empties_the_memo() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("engine-error");
    let sink = TelemetrySink::shared();
    let mut mgr = recording(&ont, &root, &sink, &KillSwitch::new());
    mgr.open(&session()).unwrap();
    mgr.query("s", &qspec()).unwrap();
    // a zero budget passes registration and is refused by the engine
    let refused = QuerySpec {
        max_questions: Some(0),
        ..qspec()
    };
    assert!(matches!(
        mgr.query("s", &refused),
        Err(ServerError::Engine(_))
    ));
    let again = mgr.query("s", &qspec()).unwrap();
    assert_eq!(memo_hits(&sink), 0, "the repeat after the error re-mines");
    assert_eq!(again.fresh, 0, "over the cache");
    mgr.query("s", &qspec()).unwrap();
    assert_eq!(memo_hits(&sink), 1, "and fills the memo again");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_hit_whose_append_fails_empties_the_memo() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("squat");
    let sink = TelemetrySink::shared();
    let mut mgr = recording(&ont, &root, &sink, &KillSwitch::new());
    mgr.open(&session()).unwrap();
    let log = root.join("s").join("session.wal");
    let footers = || {
        std::fs::read_to_string(&log)
            .unwrap()
            .lines()
            .filter(|l| l.contains("\"kind\":\"done\""))
            .count()
    };
    mgr.query("s", &qspec()).unwrap();
    // a hit writes a `query` record and a footer: a directory squatting
    // at the log fails the first, and the memo is emptied
    let aside = log.with_extension("aside");
    std::fs::rename(&log, &aside).unwrap();
    std::fs::create_dir(&log).unwrap();
    let err = mgr.query("s", &qspec()).unwrap_err();
    assert!(matches!(err, ServerError::Wal(_)), "{err}");
    std::fs::remove_dir(&log).unwrap();
    std::fs::rename(&aside, &log).unwrap();
    assert_eq!(footers(), 1);
    mgr.query("s", &qspec()).unwrap();
    assert_eq!(memo_hits(&sink), 0, "the memo was emptied");
    mgr.query("s", &qspec()).unwrap();
    assert_eq!(memo_hits(&sink), 1);
    assert_eq!(footers(), 3);
    let _ = std::fs::remove_dir_all(&root);
}
