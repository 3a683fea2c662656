//! A checked-in `session.wal` pins the log format: the fixture
//! `fixtures/figure1-session.wal` is what the writer emitted for one
//! Figure-1 session of two members (a mined `SIMPLE_QUERY`, its served
//! repeat and a second query with a threshold override and a question
//! budget). A decoder change must still recover it verified, and the
//! writer must still emit it byte for byte.

mod common;

use common::{manager, temp_root};
use oassis_server::{QuerySpec, SessionSpec};
use ontology::domains::figure1;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/figure1-session.wal"
);

fn session() -> SessionSpec {
    SessionSpec {
        name: "golden".into(),
        seed: 7,
        members: 2,
    }
}

/// The fixture session's queries: a mined run, its served repeat, and
/// a run with a threshold override and a question budget.
fn queries() -> [QuerySpec; 3] {
    let simple = QuerySpec {
        src: figure1::SIMPLE_QUERY.to_string(),
        threshold: None,
        batch_width: 1,
        max_questions: None,
        seed: 3,
    };
    let tuned = QuerySpec {
        threshold: Some(0.5),
        max_questions: Some(12),
        seed: 4,
        ..simple.clone()
    };
    [simple.clone(), simple, tuned]
}

/// Runs the fixture session on a fresh root; returns its log's path.
fn write_session(root: &PathBuf) -> PathBuf {
    let ont = Arc::new(figure1::ontology());
    let mut mgr = manager(&ont, root);
    mgr.open(&session()).unwrap();
    for q in queries() {
        mgr.query("golden", &q).unwrap();
    }
    root.join("golden").join("session.wal")
}

fn copy_fixture(root: &Path) -> PathBuf {
    let dir = root.join("golden");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.wal");
    fs::copy(FIXTURE, &path).unwrap();
    path
}

#[test]
fn the_fixture_recovers_every_query_verified() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("fixture-recover");
    let path = copy_fixture(&root);
    let mut mgr = manager(&ont, &root);
    let opened = mgr.open(&session()).unwrap();
    assert!(opened.resumed);
    assert_eq!(opened.known_queries, [1, 2, 3]);
    let recovered = mgr.recover("golden").unwrap();
    let specs: Vec<QuerySpec> = recovered.iter().map(|q| q.spec.clone()).collect();
    assert_eq!(specs, queries());
    for q in &recovered {
        assert_eq!(q.verified, Some(true), "qid {}", q.qid);
    }
    // the repeat recovers its run's ops, and the budget cut its run short
    assert_eq!(recovered[1].ops, recovered[0].ops);
    assert!(!recovered[2].complete);
    assert_eq!(fs::read(&path).unwrap(), fs::read(FIXTURE).unwrap());
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn the_writer_still_emits_the_fixture_bytes() {
    let root = temp_root("fixture-write");
    let path = write_session(&root);
    let (got, want) = (fs::read(&path).unwrap(), fs::read(FIXTURE).unwrap());
    assert!(got == want, "the writer's bytes moved from the fixture");
    fs::remove_dir_all(&root).unwrap();
}
