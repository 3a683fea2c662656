//! End-to-end smoke over loopback TCP: hello negotiation, session
//! open, queries, kill/restart/verify — the same cycle the CI
//! `server-smoke` job drives.

mod common;

use common::{manager, temp_root};
use oassis_server::service::MAX_FRAME_BYTES;
use oassis_server::{
    digest_hex, Client, QuerySpec, Request, Response, Server, ServerConfig, ServerError,
    SessionSpec, SessionWal, MAX_MEMBERS, PROTO_VERSION,
};
use ontology::domains::figure1;
use ontology::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn qspec(seed: u64) -> QuerySpec {
    QuerySpec {
        src: figure1::SIMPLE_QUERY.to_string(),
        threshold: None,
        batch_width: 1,
        max_questions: None,
        seed,
    }
}

fn spawn(ont: &Arc<ontology::Ontology>, root: &std::path::PathBuf) -> Server {
    Server::spawn(manager(ont, root), &ServerConfig::default()).expect("bind loopback")
}

#[test]
fn three_queries_then_kill_restart_verify() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("smoke");
    let session = SessionSpec {
        name: "smoke".into(),
        seed: 7,
        members: 2,
    };

    // --- first server lifetime: open + 3 queries
    let server = spawn(&ont, &root);
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.proto, PROTO_VERSION);

    let opened = client.call(&Request::Open(session.clone())).unwrap();
    let Response::Opened { resumed, .. } = opened else {
        panic!("expected opened, got {opened:?}")
    };
    assert!(!resumed, "fresh root must not resume");

    let mut digests = Vec::new();
    for seed in [3u64, 3, 5] {
        let resp = client
            .call(&Request::Query {
                session: "smoke".into(),
                spec: qspec(seed),
            })
            .unwrap();
        let Response::Result { reply, .. } = resp else {
            panic!("expected result, got {resp:?}")
        };
        assert!(reply.complete);
        assert!(!reply.answers.is_empty(), "the running example has MSPs");
        digests.push(reply.digest);
    }
    // identical spec → identical digest; the repeat is served from cache
    assert_eq!(digests[0], digests[1]);
    client.bye().unwrap();
    // kill the server process model
    server.shutdown();

    // --- second lifetime over the same WAL root: recover and verify
    let server = spawn(&ont, &root);
    let mut client = Client::connect(server.addr()).unwrap();
    let opened = client.call(&Request::Open(session)).unwrap();
    let Response::Opened {
        resumed, queries, ..
    } = opened
    else {
        panic!("expected opened, got {opened:?}")
    };
    assert!(resumed);
    assert_eq!(queries, vec![1, 2, 3]);

    let resp = client
        .call(&Request::Recover {
            session: "smoke".into(),
        })
        .unwrap();
    let Response::Recovered { queries, .. } = resp else {
        panic!("expected recovered, got {resp:?}")
    };
    assert_eq!(queries.len(), 3);
    for q in &queries {
        assert_eq!(
            q.verified,
            Some(true),
            "qid {} replayed {} but recorded {:?}",
            q.qid,
            q.digest,
            q.recorded_digest
        );
    }
    assert_eq!(queries[0].digest, digests[0]);
    assert_eq!(queries[2].digest, digests[2]);

    // close pages the session out; a follow-up query pages it back in
    let resp = client
        .call(&Request::Close {
            session: "smoke".into(),
        })
        .unwrap();
    assert!(matches!(resp, Response::Closed { .. }));
    let resp = client
        .call(&Request::Query {
            session: "smoke".into(),
            spec: qspec(3),
        })
        .unwrap();
    let Response::Result { reply, .. } = resp else {
        panic!("expected result, got {resp:?}")
    };
    assert_eq!(reply.digest, digests[0]);
    assert_eq!(reply.fresh, 0, "paged-in cache serves every repeat");

    client.bye().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn protocol_errors_keep_the_connection_alive() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("errors");
    let server = spawn(&ont, &root);
    let mut client = Client::connect(server.addr()).unwrap();

    // unknown session
    let resp = client
        .call(&Request::Query {
            session: "ghost".into(),
            spec: qspec(1),
        })
        .unwrap();
    let Response::Error { code, .. } = resp else {
        panic!("expected error, got {resp:?}")
    };
    assert_eq!(code, "unknown_session");

    // bad session name
    let resp = client
        .call(&Request::Open(SessionSpec {
            name: "../escape".into(),
            seed: 0,
            members: 1,
        }))
        .unwrap();
    let Response::Error { code, .. } = resp else {
        panic!("expected error, got {resp:?}")
    };
    assert_eq!(code, "protocol");

    // the connection still works afterwards
    let resp = client
        .call(&Request::Open(SessionSpec {
            name: "ok".into(),
            seed: 1,
            members: 1,
        }))
        .unwrap();
    assert!(matches!(resp, Response::Opened { .. }));

    client.bye().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn oversized_frame_is_rejected_and_closed() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("oversized");
    let server = spawn(&ont, &root);

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let hello = Request::Hello {
        proto: PROTO_VERSION,
        client: "oversized".into(),
    };
    writeln!(stream, "{}", hello.to_json()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("hello_ack"), "{line}");

    // one byte past the limit, and no newline
    stream.write_all(&vec![b'x'; MAX_FRAME_BYTES + 1]).unwrap();
    line.clear();
    reader
        .read_line(&mut line)
        .expect("the server answers instead of waiting for a newline");
    let resp = json::parse(line.trim_end())
        .and_then(|j| Response::from_json(&j))
        .unwrap();
    let Response::Error { code, .. } = resp else {
        panic!("expected error, got {resp:?}")
    };
    assert_eq!(code, "bad_frame");
    // ... and closes the connection
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0);

    // everyone else is still served
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client
        .call(&Request::Open(SessionSpec {
            name: "after".into(),
            seed: 1,
            members: 1,
        }))
        .unwrap();
    assert!(matches!(resp, Response::Opened { .. }), "{resp:?}");
    let resp = client
        .call(&Request::Query {
            session: "after".into(),
            spec: qspec(1),
        })
        .unwrap();
    assert!(matches!(resp, Response::Result { .. }), "{resp:?}");

    client.bye().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The `queries` an `opened` reply lists.
fn opened_queries(client: &mut Client, spec: &SessionSpec) -> Vec<u32> {
    let resp = client.call(&Request::Open(spec.clone())).unwrap();
    let Response::Opened { queries, .. } = resp else {
        panic!("expected opened, got {resp:?}")
    };
    queries
}

#[test]
fn a_rejected_query_registers_no_qid() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("rejected");
    let server = spawn(&ont, &root);
    let mut client = Client::connect(server.addr()).unwrap();
    let session = SessionSpec {
        name: "rejected".into(),
        seed: 7,
        members: 2,
    };
    assert!(opened_queries(&mut client, &session).is_empty());

    let resp = client
        .call(&Request::Query {
            session: "rejected".into(),
            spec: QuerySpec {
                src: "SELECT nothing parseable".into(),
                ..qspec(1)
            },
        })
        .unwrap();
    assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
    // budgets the engine rejects are rejected before registration too
    for spec in [
        QuerySpec {
            threshold: Some(1.5),
            ..qspec(1)
        },
        QuerySpec {
            max_questions: Some(0),
            ..qspec(1)
        },
    ] {
        let resp = client
            .call(&Request::Query {
                session: "rejected".into(),
                spec,
            })
            .unwrap();
        assert!(
            matches!(&resp, Response::Error { code, .. } if code == "engine"),
            "{resp:?}"
        );
    }

    // the resident session and the one paged in from its WAL agree
    let resident = opened_queries(&mut client, &session);
    let resp = client
        .call(&Request::Close {
            session: "rejected".into(),
        })
        .unwrap();
    assert!(matches!(resp, Response::Closed { .. }), "{resp:?}");
    let paged_in = opened_queries(&mut client, &session);
    assert_eq!(resident, paged_in);
    assert!(resident.is_empty(), "no query was registered: {resident:?}");

    // the next accepted query takes qid 1
    let resp = client
        .call(&Request::Query {
            session: "rejected".into(),
            spec: qspec(1),
        })
        .unwrap();
    let Response::Result { reply, .. } = resp else {
        panic!("expected result, got {resp:?}")
    };
    assert_eq!(reply.qid, 1);

    client.bye().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn seeds_past_2_pow_53_are_a_protocol_error() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("bigseed");
    let mut mgr = manager(&ont, &root);
    let max = 1u64 << 53;
    let spec = |seed| SessionSpec {
        name: "bigseed".into(),
        seed,
        members: 2,
    };
    let err = mgr.open(&spec(max + 1)).unwrap_err();
    assert!(matches!(err, ServerError::Protocol(_)), "{err:?}");

    // 2^53 itself is stored exactly
    mgr.open(&spec(max)).unwrap();
    let err = mgr.query("bigseed", &qspec(max + 1)).unwrap_err();
    assert!(matches!(err, ServerError::Protocol(_)), "{err:?}");
    assert_eq!(mgr.query("bigseed", &qspec(max)).unwrap().qid, 1);
    mgr.close("bigseed").unwrap();
    let rec = SessionWal::open(root.join("bigseed"), 0)
        .unwrap()
        .recover(ont.vocab())
        .unwrap();
    assert_eq!(rec.seed, max, "the header pages back in unrounded");
    assert_eq!(rec.queries.len(), 1);
    assert_eq!(rec.queries[0].spec.seed, max);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn oversized_crowd_is_rejected_and_others_are_served() {
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("crowd");
    let server = spawn(&ont, &root);

    let mut greedy = Client::connect(server.addr()).unwrap();
    let resp = greedy
        .call(&Request::Open(SessionSpec {
            name: "greedy".into(),
            seed: 1,
            members: 4_000_000_000,
        }))
        .unwrap();
    let Response::Error { code, .. } = resp else {
        panic!("expected error, got {resp:?}")
    };
    assert_eq!(code, "protocol");
    // the limit itself is accepted
    let resp = greedy
        .call(&Request::Open(SessionSpec {
            name: "greedy".into(),
            seed: 1,
            members: MAX_MEMBERS,
        }))
        .unwrap();
    assert!(matches!(resp, Response::Opened { .. }), "{resp:?}");

    // a second client is still served
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client
        .call(&Request::Open(SessionSpec {
            name: "modest".into(),
            seed: 1,
            members: 2,
        }))
        .unwrap();
    assert!(matches!(resp, Response::Opened { .. }), "{resp:?}");
    let resp = client
        .call(&Request::Query {
            session: "modest".into(),
            spec: qspec(1),
        })
        .unwrap();
    assert!(matches!(resp, Response::Result { .. }), "{resp:?}");

    greedy.bye().unwrap();
    client.bye().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn the_widest_batch_width_is_mined_and_the_session_serves_on() {
    // `batch_width` is a u32 the frame chooses; the planner must not
    // reserve room for it up front
    let ont = Arc::new(figure1::ontology());
    let root = temp_root("width");
    let server = spawn(&ont, &root);
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client
        .call(&Request::Open(SessionSpec {
            name: "wide".into(),
            seed: 1,
            members: 2,
        }))
        .unwrap();
    assert!(matches!(resp, Response::Opened { .. }), "{resp:?}");
    let wide = QuerySpec {
        batch_width: u32::MAX,
        ..qspec(1)
    };
    let resp = client
        .call(&Request::Query {
            session: "wide".into(),
            spec: wide,
        })
        .unwrap();
    let Response::Result { reply, .. } = resp else {
        panic!("expected result, got {resp:?}")
    };
    assert!(reply.complete);
    assert!(!reply.answers.is_empty(), "the running example has MSPs");
    let resp = client
        .call(&Request::Query {
            session: "wide".into(),
            spec: qspec(2),
        })
        .unwrap();
    let Response::Result { reply, .. } = resp else {
        panic!("expected result, got {resp:?}")
    };
    assert!(reply.complete);

    client.bye().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn digest_hex_is_sixteen_lowercase_digits() {
    assert_eq!(digest_hex(0), "0000000000000000");
    assert_eq!(digest_hex(u64::MAX), "ffffffffffffffff");
    assert_eq!(digest_hex(0xABCD), "000000000000abcd");
}
