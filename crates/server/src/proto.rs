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
//! Both directions are encodable and decodable from here: the server
//! parses [`Request`]s and renders [`Response`]s; test clients (simtest,
//! the CI smoke driver) do the reverse with the same code.

use crate::session::{OpenReply, QueryReply, RecoveredQuery, SessionSpec};
use crate::wal::QuerySpec;
use ontology::json::{Json, JsonError};

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
    /// Any failure. The connection survives errors (except a failed
    /// hello, after which the server hangs up).
    Error {
        /// Stable machine-readable code (`unsupported_proto`,
        /// `bad_frame`, `engine`, `wal`, `protocol`, `unknown_session`).
        code: String,
        /// Human-readable detail.
        msg: String,
    },
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
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
    pub fn to_json(&self) -> Json {
        match self {
            Request::Hello { proto, client } => obj(vec![
                ("type", Json::Str("hello".into())),
                ("proto", Json::Num(*proto as f64)),
                ("client", Json::Str(client.clone())),
            ]),
            Request::Open(spec) => obj(vec![
                ("type", Json::Str("open".into())),
                ("session", Json::Str(spec.name.clone())),
                ("seed", Json::Num(spec.seed as f64)),
                ("members", Json::Num(spec.members as f64)),
            ]),
            Request::Query { session, spec } => obj(vec![
                ("type", Json::Str("query".into())),
                ("session", Json::Str(session.clone())),
                ("src", Json::Str(spec.src.clone())),
                ("threshold", spec.threshold.map_or(Json::Null, Json::Num)),
                ("batch_width", Json::Num(spec.batch_width as f64)),
                (
                    "max_questions",
                    spec.max_questions
                        .map_or(Json::Null, |m| Json::Num(m as f64)),
                ),
                ("seed", Json::Num(spec.seed as f64)),
            ]),
            Request::Recover { session } => obj(vec![
                ("type", Json::Str("recover".into())),
                ("session", Json::Str(session.clone())),
            ]),
            Request::Close { session } => obj(vec![
                ("type", Json::Str("close".into())),
                ("session", Json::Str(session.clone())),
            ]),
            Request::Bye => obj(vec![("type", Json::Str("bye".into()))]),
        }
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

fn recovered_to_json(q: &RecoveredQuery) -> Json {
    obj(vec![
        ("qid", Json::Num(q.qid as f64)),
        (
            "answers",
            Json::Arr(q.answers.iter().map(|a| Json::Str(a.clone())).collect()),
        ),
        ("complete", Json::Bool(q.complete)),
        ("digest", Json::Str(q.digest.clone())),
        (
            "recorded_digest",
            q.recorded_digest
                .as_ref()
                .map_or(Json::Null, |d| Json::Str(d.clone())),
        ),
        ("verified", q.verified.map_or(Json::Null, Json::Bool)),
        ("ops", Json::Num(q.ops as f64)),
        ("src", Json::Str(q.spec.src.clone())),
    ])
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
        complete: matches!(j.field("complete")?, Json::Bool(true)),
        digest: j.field("digest")?.as_str()?.to_string(),
        recorded_digest: opt_field(j, "recorded_digest")
            .map(|d| d.as_str().map(String::from))
            .transpose()?,
        verified: match opt_field(j, "verified") {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        },
        ops: j.field("ops")?.as_u32()? as usize,
    })
}

impl Response {
    /// Renders the frame (one line, no trailing newline).
    pub fn to_json(&self) -> Json {
        match self {
            Response::HelloAck { proto, server } => obj(vec![
                ("type", Json::Str("hello_ack".into())),
                ("proto", Json::Num(*proto as f64)),
                ("server", Json::Str(server.clone())),
            ]),
            Response::Opened {
                session,
                resumed,
                queries,
                cached,
            } => obj(vec![
                ("type", Json::Str("opened".into())),
                ("session", Json::Str(session.clone())),
                ("resumed", Json::Bool(*resumed)),
                (
                    "queries",
                    Json::Arr(queries.iter().map(|&q| Json::Num(q as f64)).collect()),
                ),
                ("cached", Json::Num(*cached as f64)),
            ]),
            Response::Result { session, reply } => obj(vec![
                ("type", Json::Str("result".into())),
                ("session", Json::Str(session.clone())),
                ("qid", Json::Num(reply.qid as f64)),
                (
                    "answers",
                    Json::Arr(reply.answers.iter().map(|a| Json::Str(a.clone())).collect()),
                ),
                ("questions", Json::Num(reply.questions as f64)),
                ("fresh", Json::Num(reply.fresh as f64)),
                ("complete", Json::Bool(reply.complete)),
                ("digest", Json::Str(reply.digest.clone())),
                ("threshold", Json::Num(reply.threshold)),
            ]),
            Response::Recovered { session, queries } => obj(vec![
                ("type", Json::Str("recovered".into())),
                ("session", Json::Str(session.clone())),
                (
                    "queries",
                    Json::Arr(queries.iter().map(recovered_to_json).collect()),
                ),
            ]),
            Response::Closed { session } => obj(vec![
                ("type", Json::Str("closed".into())),
                ("session", Json::Str(session.clone())),
            ]),
            Response::Error { code, msg } => obj(vec![
                ("type", Json::Str("error".into())),
                ("code", Json::Str(code.clone())),
                ("msg", Json::Str(msg.clone())),
            ]),
        }
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
                resumed: matches!(j.field("resumed")?, Json::Bool(true)),
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
                    complete: matches!(j.field("complete")?, Json::Bool(true)),
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
    use ontology::json;

    fn rq_roundtrip(r: &Request) {
        let line = r.to_json().to_string();
        let back = Request::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(&back, r, "{line}");
    }

    fn rs_roundtrip(r: &Response) {
        let line = r.to_json().to_string();
        let back = Response::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(&back, r, "{line}");
    }

    #[test]
    fn every_request_roundtrips() {
        rq_roundtrip(&Request::Hello {
            proto: 1,
            client: "test".into(),
        });
        rq_roundtrip(&Request::Open(SessionSpec {
            name: "s1".into(),
            seed: 7,
            members: 4,
        }));
        rq_roundtrip(&Request::Query {
            session: "s1".into(),
            spec: QuerySpec {
                src: "SELECT …".into(),
                threshold: Some(0.4),
                batch_width: 2,
                max_questions: Some(64),
                seed: 11,
            },
        });
        rq_roundtrip(&Request::Query {
            session: "s1".into(),
            spec: QuerySpec {
                src: "SELECT …".into(),
                threshold: None,
                batch_width: 1,
                max_questions: None,
                seed: 0,
            },
        });
        rq_roundtrip(&Request::Recover {
            session: "s1".into(),
        });
        rq_roundtrip(&Request::Close {
            session: "s1".into(),
        });
        rq_roundtrip(&Request::Bye);
    }

    #[test]
    fn every_response_roundtrips() {
        rs_roundtrip(&Response::HelloAck {
            proto: 1,
            server: "oassis".into(),
        });
        rs_roundtrip(&Response::Opened {
            session: "s1".into(),
            resumed: true,
            queries: vec![1, 2],
            cached: 17,
        });
        rs_roundtrip(&Response::Result {
            session: "s1".into(),
            reply: QueryReply {
                qid: 1,
                answers: vec!["a".into()],
                questions: 30,
                fresh: 12,
                complete: true,
                digest: "00ff00ff00ff00ff".into(),
                threshold: 1.0 / 3.0,
            },
        });
        rs_roundtrip(&Response::Closed {
            session: "s1".into(),
        });
        rs_roundtrip(&Response::Error {
            code: "bad_frame".into(),
            msg: "nope".into(),
        });
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
