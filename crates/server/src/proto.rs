//! # The wire contract
//!
//! Line-delimited JSON over TCP: every frame is one [`ontology::json`]
//! object on one line, tagged by a `"type"` field. The first exchange
//! is a versioned hello: the client announces the highest protocol
//! version it speaks, the server replies with
//! `min(client proto, PROTO_VERSION)` (or an `error` frame when the
//! client is older than [`PROTO_MIN`]), and that negotiated version
//! governs the connection.
//!
//! Decoding is **unknown-field tolerant** in both directions: lookups
//! go through [`Json::field`], which ignores extra fields, so a newer
//! peer can add fields without breaking an older one — the
//! `proto_version` golden test pins this. Unknown frame *types* are an
//! error (a field can be skipped; a whole frame cannot).
//!
//! A frame is written by an [`ontology::json::Writer`], which builds no
//! tree, and read by [`json::parse`] into a [`Json`] tree first.
//!
//! Both directions are encodable and decodable from here: the server
//! parses [`Request`]s and renders [`Response`]s; test clients (simtest,
//! the CI smoke driver) do the reverse with the same code.

use crate::session::{OpenReply, QueryReply, RecoveredQuery, SessionSpec};
use crate::wal::QuerySpec;
use ontology::json::{self, Json, JsonError, Writer};

/// The highest protocol version this build speaks.
pub const PROTO_VERSION: u32 = 1;

/// The oldest client protocol version this build still accepts.
pub const PROTO_MIN: u32 = 1;

/// A client→server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version negotiation; must be the first frame.
    Hello {
        /// Highest protocol version the client speaks.
        proto: u32,
        /// Client identification (free-form, diagnostics only).
        client: String,
    },
    /// Opens (or resumes) a session.
    Open(SessionSpec),
    /// Runs one pattern query in a session.
    Query {
        /// Target session.
        session: String,
        /// The query spec (source plus mining knobs).
        spec: QuerySpec,
    },
    /// Replays and verifies every query of a session from its WAL.
    Recover {
        /// Target session.
        session: String,
    },
    /// Pages a session out (durable state remains).
    Close {
        /// Target session.
        session: String,
    },
    /// Ends the connection.
    Bye,
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Hello`]: the negotiated version.
    HelloAck {
        /// `min(client proto, PROTO_VERSION)`.
        proto: u32,
        /// Server identification.
        server: String,
    },
    /// Reply to [`Request::Open`].
    Opened {
        /// The session name.
        session: String,
        /// Whether durable state was paged in.
        resumed: bool,
        /// Registered qids found in the WAL.
        queries: Vec<u32>,
        /// Cached answers paged in.
        cached: u32,
    },
    /// Reply to [`Request::Query`].
    Result {
        /// The session name.
        session: String,
        /// The executed query's reply.
        reply: QueryReply,
    },
    /// Reply to [`Request::Recover`].
    Recovered {
        /// The session name.
        session: String,
        /// Per-query replay outcomes, in qid order.
        queries: Vec<RecoveredQuery>,
    },
    /// Reply to [`Request::Close`].
    Closed {
        /// The session name.
        session: String,
    },
    /// Any failure. The connection survives errors (except any before
    /// a successful hello, after which the server hangs up).
    Error {
        /// Stable machine-readable code (`unsupported_proto`,
        /// `bad_frame`, `too_deep`, `engine`, `wal`, `protocol`,
        /// `unknown_session`).
        code: String,
        /// Human-readable detail.
        msg: String,
    },
}

/// Looks up an *optional* field: absent or `null` both mean `None`
/// ([`Json::field`] errors on absence, which is right for required
/// fields and wrong for optional ones).
fn opt_field<'j>(j: &'j Json, name: &str) -> Option<&'j Json> {
    match j.field(name) {
        Ok(Json::Null) | Err(_) => None,
        Ok(v) => Some(v),
    }
}

fn frame_type(j: &Json) -> Result<&str, JsonError> {
    j.field("type")?.as_str()
}

impl Request {
    /// Renders the frame (one line, no trailing newline).
    pub fn to_json(&self) -> String {
        json::write(|w| {
            w.fields(|k| match self {
                Request::Hello { proto, client } => {
                    k.next("type").str("hello");
                    k.next("proto").u32(*proto);
                    k.next("client").str(client);
                }
                Request::Open(spec) => {
                    k.next("type").str("open");
                    k.next("session").str(&spec.name);
                    k.next("seed").exact_u64(spec.seed);
                    k.next("members").u32(spec.members);
                }
                Request::Query { session, spec } => {
                    k.next("type").str("query");
                    k.next("session").str(session);
                    k.next("src").str(&spec.src);
                    k.next("threshold").opt(spec.threshold, Writer::f64);
                    k.next("batch_width").u32(spec.batch_width);
                    k.next("max_questions").opt(spec.max_questions, Writer::u32);
                    k.next("seed").exact_u64(spec.seed);
                }
                Request::Recover { session } => {
                    k.next("type").str("recover");
                    k.next("session").str(session);
                }
                Request::Close { session } => {
                    k.next("type").str("close");
                    k.next("session").str(session);
                }
                Request::Bye => k.next("type").str("bye"),
            })
        })
    }

    /// Parses a frame. Unknown fields are ignored; optional query knobs
    /// default exactly as `MiningConfig::default()` does.
    pub fn from_json(j: &Json) -> Result<Request, JsonError> {
        match frame_type(j)? {
            "hello" => Ok(Request::Hello {
                proto: j.field("proto")?.as_u32()?,
                client: opt_field(j, "client")
                    .map(|c| c.as_str().map(String::from))
                    .transpose()?
                    .unwrap_or_default(),
            }),
            "open" => Ok(Request::Open(SessionSpec {
                name: j.field("session")?.as_str()?.to_string(),
                seed: opt_field(j, "seed")
                    .map(Json::as_exact_u64)
                    .transpose()?
                    .unwrap_or(0),
                members: opt_field(j, "members")
                    .map(Json::as_u32)
                    .transpose()?
                    .unwrap_or(0),
            })),
            "query" => Ok(Request::Query {
                session: j.field("session")?.as_str()?.to_string(),
                spec: QuerySpec {
                    src: j.field("src")?.as_str()?.to_string(),
                    threshold: opt_field(j, "threshold").map(Json::as_f64).transpose()?,
                    batch_width: opt_field(j, "batch_width")
                        .map(Json::as_u32)
                        .transpose()?
                        .unwrap_or(1),
                    max_questions: opt_field(j, "max_questions")
                        .map(Json::as_u32)
                        .transpose()?,
                    seed: opt_field(j, "seed")
                        .map(Json::as_exact_u64)
                        .transpose()?
                        .unwrap_or(0),
                },
            }),
            "recover" => Ok(Request::Recover {
                session: j.field("session")?.as_str()?.to_string(),
            }),
            "close" => Ok(Request::Close {
                session: j.field("session")?.as_str()?.to_string(),
            }),
            "bye" => Ok(Request::Bye),
            other => Err(JsonError::shape(format!("unknown request type {other:?}"))),
        }
    }
}

fn write_recovered(w: &mut Writer, q: &RecoveredQuery) {
    w.fields(|k| {
        k.next("qid").u32(q.qid);
        k.next("answers").vec(&q.answers, |w, a| w.str(a));
        k.next("complete").bool(q.complete);
        k.next("digest").str(&q.digest);
        k.next("recorded_digest")
            .opt(q.recorded_digest.as_deref(), Writer::str);
        k.next("verified").opt(q.verified, Writer::bool);
        k.next("ops").f64(q.ops as f64);
        k.next("src").str(&q.spec.src);
    });
}

fn recovered_from_json(j: &Json) -> Result<RecoveredQuery, JsonError> {
    Ok(RecoveredQuery {
        qid: j.field("qid")?.as_u32()?,
        spec: QuerySpec {
            src: j.field("src")?.as_str()?.to_string(),
            threshold: None,
            batch_width: 1,
            max_questions: None,
            seed: 0,
        },
        answers: j
            .field("answers")?
            .as_arr()?
            .iter()
            .map(|a| a.as_str().map(String::from))
            .collect::<Result<_, _>>()?,
        complete: j.field("complete")?.as_bool()?,
        digest: j.field("digest")?.as_str()?.to_string(),
        recorded_digest: opt_field(j, "recorded_digest")
            .map(|d| d.as_str().map(String::from))
            .transpose()?,
        verified: opt_field(j, "verified").map(Json::as_bool).transpose()?,
        ops: j.field("ops")?.as_u32()? as usize,
    })
}

impl Response {
    /// Renders the frame (one line, no trailing newline).
    pub fn to_json(&self) -> String {
        json::write(|w| {
            w.fields(|k| match self {
                Response::HelloAck { proto, server } => {
                    k.next("type").str("hello_ack");
                    k.next("proto").u32(*proto);
                    k.next("server").str(server);
                }
                Response::Opened {
                    session,
                    resumed,
                    queries,
                    cached,
                } => {
                    k.next("type").str("opened");
                    k.next("session").str(session);
                    k.next("resumed").bool(*resumed);
                    k.next("queries").vec(queries.iter().copied(), Writer::u32);
                    k.next("cached").u32(*cached);
                }
                Response::Result { session, reply } => {
                    k.next("type").str("result");
                    k.next("session").str(session);
                    k.next("qid").u32(reply.qid);
                    k.next("answers").vec(&reply.answers, |w, a| w.str(a));
                    k.next("questions").f64(reply.questions as f64);
                    k.next("fresh").f64(reply.fresh as f64);
                    k.next("complete").bool(reply.complete);
                    k.next("digest").str(&reply.digest);
                    k.next("threshold").f64(reply.threshold);
                }
                Response::Recovered { session, queries } => {
                    k.next("type").str("recovered");
                    k.next("session").str(session);
                    k.next("queries").vec(queries, write_recovered);
                }
                Response::Closed { session } => {
                    k.next("type").str("closed");
                    k.next("session").str(session);
                }
                Response::Error { code, msg } => {
                    k.next("type").str("error");
                    k.next("code").str(code);
                    k.next("msg").str(msg);
                }
            })
        })
    }

    /// Parses a frame (the client side; unknown fields ignored).
    pub fn from_json(j: &Json) -> Result<Response, JsonError> {
        match frame_type(j)? {
            "hello_ack" => Ok(Response::HelloAck {
                proto: j.field("proto")?.as_u32()?,
                server: j.field("server")?.as_str()?.to_string(),
            }),
            "opened" => Ok(Response::Opened {
                session: j.field("session")?.as_str()?.to_string(),
                resumed: j.field("resumed")?.as_bool()?,
                queries: j
                    .field("queries")?
                    .as_arr()?
                    .iter()
                    .map(Json::as_u32)
                    .collect::<Result<_, _>>()?,
                cached: j.field("cached")?.as_u32()?,
            }),
            "result" => Ok(Response::Result {
                session: j.field("session")?.as_str()?.to_string(),
                reply: QueryReply {
                    qid: j.field("qid")?.as_u32()?,
                    answers: j
                        .field("answers")?
                        .as_arr()?
                        .iter()
                        .map(|a| a.as_str().map(String::from))
                        .collect::<Result<_, _>>()?,
                    questions: j.field("questions")?.as_u32()? as usize,
                    fresh: j.field("fresh")?.as_u32()? as usize,
                    complete: j.field("complete")?.as_bool()?,
                    digest: j.field("digest")?.as_str()?.to_string(),
                    threshold: j.field("threshold")?.as_f64()?,
                },
            }),
            "recovered" => Ok(Response::Recovered {
                session: j.field("session")?.as_str()?.to_string(),
                queries: j
                    .field("queries")?
                    .as_arr()?
                    .iter()
                    .map(recovered_from_json)
                    .collect::<Result<_, _>>()?,
            }),
            "closed" => Ok(Response::Closed {
                session: j.field("session")?.as_str()?.to_string(),
            }),
            "error" => Ok(Response::Error {
                code: j.field("code")?.as_str()?.to_string(),
                msg: j.field("msg")?.as_str()?.to_string(),
            }),
            other => Err(JsonError::shape(format!("unknown response type {other:?}"))),
        }
    }

    /// The `opened` frame for an [`OpenReply`].
    pub fn opened(session: &str, reply: &OpenReply) -> Response {
        Response::Opened {
            session: session.to_string(),
            resumed: reply.resumed,
            queries: reply.known_queries.clone(),
            cached: reply.cached_answers as u32,
        }
    }
}

/// Negotiates the connection version for a client hello: `Ok` with the
/// agreed version, or `Err` with the error frame to send before hanging
/// up.
pub fn negotiate(client_proto: u32) -> Result<u32, Response> {
    if client_proto < PROTO_MIN {
        return Err(Response::Error {
            code: "unsupported_proto".into(),
            msg: format!(
                "client speaks protocol {client_proto}, server requires at least {PROTO_MIN}"
            ),
        });
    }
    Ok(client_proto.min(PROTO_VERSION))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rq_roundtrip(r: &Request) {
        let line = r.to_json();
        let back = Request::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(&back, r, "{line}");
    }

    fn rs_roundtrip(r: &Response) {
        let line = r.to_json();
        let back = Response::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(&back, r, "{line}");
    }

    /// Every request variant's exact line, captured from the tree
    /// printer the writer replaced: the bytes a client sends. Each
    /// decodes back to its request.
    #[test]
    fn every_request_is_its_pinned_line_and_roundtrips() {
        let query = |src: &str, threshold, batch_width, max_questions, seed| Request::Query {
            session: "s1".into(),
            spec: QuerySpec {
                src: src.into(),
                threshold,
                batch_width,
                max_questions,
                seed,
            },
        };
        let open = |seed| {
            Request::Open(SessionSpec {
                name: "s1".into(),
                seed,
                members: 4,
            })
        };
        for (req, line) in [
            (
                Request::Hello {
                    proto: 1,
                    client: "test".into(),
                },
                r#"{"type":"hello","proto":1,"client":"test"}"#,
            ),
            (
                open(7),
                r#"{"type":"open","session":"s1","seed":7,"members":4}"#,
            ),
            (
                open(1 << 53),
                r#"{"type":"open","session":"s1","seed":9007199254740992.0,"members":4}"#,
            ),
            (
                query("SELECT \"x\"\n…", Some(0.4), 2, Some(64), 11),
                r#"{"type":"query","session":"s1","src":"SELECT \"x\"\n…","threshold":0.4,"batch_width":2,"max_questions":64,"seed":11}"#,
            ),
            (
                query("SELECT …", None, 1, None, 0),
                r#"{"type":"query","session":"s1","src":"SELECT …","threshold":null,"batch_width":1,"max_questions":null,"seed":0}"#,
            ),
            (
                Request::Recover {
                    session: "s1".into(),
                },
                r#"{"type":"recover","session":"s1"}"#,
            ),
            (
                Request::Close {
                    session: "s1".into(),
                },
                r#"{"type":"close","session":"s1"}"#,
            ),
            (Request::Bye, r#"{"type":"bye"}"#),
        ] {
            assert_eq!(req.to_json(), line);
            rq_roundtrip(&req);
        }
    }

    /// Every response variant's exact line, as for requests: the bytes
    /// the server sends.
    #[test]
    fn every_response_is_its_pinned_line_and_roundtrips() {
        let recovered = |qid, answers: &[&str], complete, digest: &str, recorded, verified, ops| {
            RecoveredQuery {
                qid,
                spec: QuerySpec {
                    src: "SELECT …".into(),
                    threshold: None,
                    batch_width: 1,
                    max_questions: None,
                    seed: 0,
                },
                answers: answers.iter().map(|a| a.to_string()).collect(),
                complete,
                digest: digest.into(),
                recorded_digest: recorded,
                verified,
                ops,
            }
        };
        let opened = |resumed, queries, cached| Response::Opened {
            session: "s1".into(),
            resumed,
            queries,
            cached,
        };
        for (resp, line) in [
            (
                Response::HelloAck {
                    proto: 1,
                    server: "oassis".into(),
                },
                r#"{"type":"hello_ack","proto":1,"server":"oassis"}"#,
            ),
            (
                opened(true, vec![1, 2], 17),
                r#"{"type":"opened","session":"s1","resumed":true,"queries":[1,2],"cached":17}"#,
            ),
            (
                opened(false, vec![], 0),
                r#"{"type":"opened","session":"s1","resumed":false,"queries":[],"cached":0}"#,
            ),
            (
                Response::Result {
                    session: "s1".into(),
                    reply: QueryReply {
                        qid: 1,
                        answers: vec!["a".into(), "Biking doAt \"Central Park\"".into()],
                        questions: 30,
                        fresh: 12,
                        complete: true,
                        digest: "00ff00ff00ff00ff".into(),
                        threshold: 1.0 / 3.0,
                    },
                },
                r#"{"type":"result","session":"s1","qid":1,"answers":["a","Biking doAt \"Central Park\""],"questions":30,"fresh":12,"complete":true,"digest":"00ff00ff00ff00ff","threshold":0.3333333333333333}"#,
            ),
            (
                Response::Recovered {
                    session: "s1".into(),
                    queries: vec![
                        recovered(
                            1,
                            &["a"],
                            true,
                            "00ff00ff00ff00ff",
                            Some("00ff00ff00ff00ff".into()),
                            Some(true),
                            42,
                        ),
                        recovered(2, &[], false, "0000000000000001", None, None, 0),
                    ],
                },
                r#"{"type":"recovered","session":"s1","queries":[{"qid":1,"answers":["a"],"complete":true,"digest":"00ff00ff00ff00ff","recorded_digest":"00ff00ff00ff00ff","verified":true,"ops":42,"src":"SELECT …"},{"qid":2,"answers":[],"complete":false,"digest":"0000000000000001","recorded_digest":null,"verified":null,"ops":0,"src":"SELECT …"}]}"#,
            ),
            (
                Response::Closed {
                    session: "s1".into(),
                },
                r#"{"type":"closed","session":"s1"}"#,
            ),
            (
                Response::Error {
                    code: "bad_frame".into(),
                    msg: "nope: \"x\"\n".into(),
                },
                r#"{"type":"error","code":"bad_frame","msg":"nope: \"x\"\n"}"#,
            ),
        ] {
            assert_eq!(resp.to_json(), line);
            rs_roundtrip(&resp);
        }
    }

    /// A `complete`, `resumed` or `verified` that is not a bool is a
    /// shape error, not `false`; an absent or `null` `verified` is
    /// `None`.
    #[test]
    fn mistyped_booleans_are_shape_errors() {
        let decode = |frame: &str| Response::from_json(&json::parse(frame).unwrap());
        let result = |complete: &str| {
            format!(
                r#"{{"type":"result","session":"s","qid":1,"answers":[],"questions":0,"fresh":0,"complete":{complete},"digest":"d","threshold":0.5}}"#
            )
        };
        let opened = |resumed: &str| {
            format!(
                r#"{{"type":"opened","session":"s","resumed":{resumed},"queries":[],"cached":0}}"#
            )
        };
        let recovered = |complete: &str, verified: &str| {
            format!(
                r#"{{"type":"recovered","session":"s","queries":[{{"qid":1,"answers":[],"complete":{complete},"digest":"d","recorded_digest":null{verified},"ops":0,"src":"Q"}}]}}"#
            )
        };
        for bad in ["1", r#""true""#, "null", "[]"] {
            for frame in [
                result(bad),
                opened(bad),
                recovered(bad, ""),
                recovered("true", &format!(r#","verified":{bad}"#)),
            ] {
                // an explicit `null` is an absent `verified`, not a bad one
                if frame.contains(r#""verified":null"#) {
                    continue;
                }
                let err = decode(&frame).unwrap_err();
                assert!(
                    !err.is_syntax() && err.msg.contains("expected bool"),
                    "{frame}: {err}"
                );
            }
        }
        for verified in ["", r#","verified":null"#] {
            let Ok(Response::Recovered { queries, .. }) = decode(&recovered("true", verified))
            else {
                panic!("{verified}: a recovered frame decodes");
            };
            assert_eq!(queries[0].verified, None, "{verified}");
        }
        let Ok(Response::Recovered { queries, .. }) =
            decode(&recovered("false", r#","verified":false"#))
        else {
            panic!("a recovered frame decodes");
        };
        assert_eq!(
            (queries[0].complete, queries[0].verified),
            (false, Some(false))
        );
    }

    /// Decodes an `open` and a `query` frame carrying `seed` (its JSON
    /// text), returning each decode's result.
    fn decode_seed(seed: &str) -> [Result<Request, JsonError>; 2] {
        [
            format!("{{\"type\":\"open\",\"session\":\"s\",\"seed\":{seed}}}"),
            format!("{{\"type\":\"query\",\"session\":\"s\",\"src\":\"Q\",\"seed\":{seed}}}"),
        ]
        .map(|frame| Request::from_json(&json::parse(&frame).unwrap()))
    }

    #[test]
    fn negative_seeds_are_rejected() {
        for r in decode_seed("-1") {
            assert!(r.is_err(), "{r:?}");
        }
    }

    #[test]
    fn fractional_seeds_are_rejected() {
        for r in decode_seed("1.5") {
            assert!(r.is_err(), "{r:?}");
        }
    }

    #[test]
    fn seeds_past_2_pow_53_are_rejected() {
        // 2^60: an f64 holds it, but not every integer near it
        for r in decode_seed("1152921504606846976") {
            assert!(r.is_err(), "{r:?}");
        }
        let [open, query] = decode_seed("9007199254740992");
        assert!(matches!(open, Ok(Request::Open(SessionSpec { seed, .. })) if seed == 1 << 53));
        assert!(matches!(query, Ok(Request::Query { spec, .. }) if spec.seed == 1 << 53));
    }

    #[test]
    fn negotiation_picks_the_minimum() {
        assert_eq!(negotiate(1), Ok(1));
        assert_eq!(negotiate(99), Ok(PROTO_VERSION));
        assert!(negotiate(0).is_err());
    }

    /// The `proto_version` golden: a frame from a *future* protocol —
    /// extra fields everywhere — still decodes, and the hello still
    /// negotiates down to what this build speaks. Field additions never
    /// break an old peer; only new frame types do.
    #[test]
    fn future_frames_with_unknown_fields_decode() {
        let hello = "{\"type\":\"hello\",\"proto\":7,\"client\":\"v7\",\
                     \"compression\":\"zstd\",\"features\":[\"streaming\"]}";
        let req = Request::from_json(&json::parse(hello).unwrap()).unwrap();
        assert_eq!(
            req,
            Request::Hello {
                proto: 7,
                client: "v7".into()
            }
        );
        let Request::Hello { proto, .. } = req else {
            unreachable!()
        };
        assert_eq!(negotiate(proto), Ok(PROTO_VERSION));

        let query = "{\"type\":\"query\",\"session\":\"s\",\"src\":\"Q\",\
                     \"priority\":\"high\",\"batch_width\":3}";
        let req = Request::from_json(&json::parse(query).unwrap()).unwrap();
        let Request::Query { spec, .. } = req else {
            panic!("expected a query frame")
        };
        assert_eq!(spec.batch_width, 3);
        assert_eq!(spec.threshold, None, "absent optional stays default");

        let ack = "{\"type\":\"hello_ack\",\"proto\":1,\"server\":\"s\",\
                   \"motd\":\"welcome\"}";
        let resp = Response::from_json(&json::parse(ack).unwrap()).unwrap();
        assert_eq!(
            resp,
            Response::HelloAck {
                proto: 1,
                server: "s".into()
            }
        );
    }
}
