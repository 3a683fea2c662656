//! The session result memo: a repeated query is served from the last run
//! the answer cache alone reproduces, without mining again.
//!
//! The oracle is a twin session that `close`s and re-`open`s before each
//! repeat, so the repeat pages in with an empty memo and re-mines over the
//! paged-in cache. Both sessions must leave byte-identical WAL
//! directories, with and without a kill switch cutting a repeat, and the
//! memo must miss whenever the spec differs, when a member did not answer,
//! and after an engine error or a failed append.

mod common;

use common::{manager, temp_root};
use crowd::{Answer, CrowdSource, MemberId, Question};
use oassis_server::{
    CrowdProvider, Figure1Provider, KillSwitch, QueryReply, QuerySpec, ServerError, SessionManager,
    SessionSpec,
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

/// Cold query, then [`REPEATS`] repeats, arming `kill` at `arm` (if any)
/// after the first repeat. With `reopen`, each repeat runs after a
/// `close` and re-`open`, so it re-mines. Checks that every footer
/// verifies on a restart; returns the replies, the directory bytes and
/// the memo hits.
fn run(
    tag: &str,
    reopen: bool,
    arm: Option<u32>,
) -> (Vec<QueryReply>, BTreeMap<String, Vec<u8>>, u64) {
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
    let bytes = dir_bytes(&root.join("s"));
    let hits = memo_hits(&sink);
    let mut fresh = manager(&ont, &root);
    fresh.open(&session()).unwrap();
    for q in fresh.recover("s").unwrap() {
        assert_ne!(
            q.verified,
            Some(false),
            "{tag}: qid {} did not verify",
            q.qid
        );
    }
    let _ = std::fs::remove_dir_all(&root);
    (replies, bytes, hits)
}

#[test]
fn memo_hits_write_the_bytes_of_re_mined_repeats() {
    let (memo, memo_dir, hits) = run("memo", false, None);
    let (twin, twin_dir, twin_hits) = run("twin", true, None);
    assert_eq!((hits, twin_hits), (REPEATS as u64, 0));
    assert_eq!(
        memo_dir.keys().collect::<Vec<_>>(),
        twin_dir.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &memo_dir {
        assert!(
            *bytes == twin_dir[name],
            "{name} differs from the re-mined twin's"
        );
    }
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
fn a_kill_at_any_tick_of_a_repeat_cuts_both_twins_alike() {
    let questions = run("probe", false, None).0[0].questions as u32;
    for t in 1..=questions + 1 {
        let (memo, memo_dir, hits) = run(&format!("kill-memo-{t}"), false, Some(t));
        let (twin, twin_dir, _) = run(&format!("kill-twin-{t}"), true, Some(t));
        assert_eq!(hits, REPEATS as u64, "tick {t}: every repeat hits");
        assert!(memo_dir == twin_dir, "tick {t}: directories differ");
        assert_eq!(memo, twin, "tick {t}");
    }
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
fn a_failed_append_fails_the_query_without_a_footer_and_empties_the_memo() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("squat");
    let sink = TelemetrySink::shared();
    let mut mgr = recording(&ont, &root, &sink, &KillSwitch::new());
    mgr.open(&session()).unwrap();
    let dir = root.join("s");
    let member = dir.join("member-0.wal");
    let aside = dir.join("member-0.aside");
    let squat = |on: bool| {
        if on {
            std::fs::rename(&member, &aside).unwrap();
            std::fs::create_dir(&member).unwrap();
        } else {
            std::fs::remove_dir(&member).unwrap();
            std::fs::rename(&aside, &member).unwrap();
        }
    };
    let footers = || {
        std::fs::read_to_string(dir.join("meta.wal"))
            .unwrap()
            .lines()
            .filter(|l| l.contains("\"kind\":\"done\""))
            .count()
    };

    // a cold query whose member-0 appends fail
    std::fs::create_dir(&member).unwrap();
    let err = mgr.query("s", &qspec()).unwrap_err();
    assert!(matches!(err, ServerError::Wal(_)), "{err}");
    assert_eq!(footers(), 0, "no footer claims the lost records");
    std::fs::remove_dir(&member).unwrap();

    // not memoized: the next query re-mines, the one after hits
    mgr.query("s", &qspec()).unwrap();
    assert_eq!(memo_hits(&sink), 0);
    mgr.query("s", &qspec()).unwrap();
    assert_eq!(memo_hits(&sink), 1);
    assert_eq!(footers(), 2);

    // a hit whose appends fail empties the memo
    squat(true);
    let err = mgr.query("s", &qspec()).unwrap_err();
    assert!(matches!(err, ServerError::Wal(_)), "{err}");
    assert_eq!(footers(), 2);
    squat(false);
    mgr.query("s", &qspec()).unwrap();
    assert_eq!(memo_hits(&sink), 1, "the memo was emptied");
    assert_eq!(footers(), 3);
    let _ = std::fs::remove_dir_all(&root);
}
