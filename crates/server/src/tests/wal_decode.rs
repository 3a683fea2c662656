//! Differential tests of the one-pass WAL decode against a reference
//! built the way the log was read before: `json::parse` of the whole
//! body into a tree, then lookups that hold every object to its
//! writer's key order.
//!
//! * Body level: generated bodies of every record kind — canonical
//!   writer output, then shuffled, unknown and duplicate keys, extra
//!   whitespace, escaped strings, numbers at the u32 and 2^53 edges,
//!   values of the wrong type and broken syntax. Both decoders must give
//!   the same record, or the same class: tear or shape error.
//! * File level: a real three-query `session.wal` holding a repeat
//!   footer (`of`), cut, byte-flipped, or with a line duplicated or two
//!   lines swapped. Recovery must not panic, and must match the
//!   reference on `Ok`/`Err`, `truncated`, the file length afterwards
//!   and the recovered header, queries, ops and answer cache.
//! * Hostile lines: a crc-valid `op` or `answer` line naming an element
//!   or relation id past the vocabulary, or a crc-valid body nested past
//!   [`json::MAX_DEPTH`]. Recovery fails with a shape error, cuts
//!   nothing and does not panic.

use super::{
    checked_body, decode_record, fold, truncate_to, DoneMeta, QuerySpec, Record, Recovered,
    SessionWal, SESSION_WAL,
};
use crate::provider::Figure1Provider;
use crate::session::{SessionManager, SessionSpec};
use crowd::MemberId;
use oassis_core::cache::CachedAnswer;
use oassis_core::digest::fnv64;
use oassis_core::{Assignment, CrowdCache, Dag, Slot, WireOp, WireVerdict};
use oassis_ql::{MatchMode, Value};
use ontology::domains::figure1;
use ontology::json::{self, Json, JsonError};
use ontology::{ElemId, Fact, PatternFact, PatternSet, RelId, Vocabulary};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

// ------------------------------------------------------------ reference

/// What one body decodes to, by class.
#[derive(Debug, PartialEq)]
enum Outcome {
    Value(Record),
    Shape,
    Tear,
}

fn outcome(decoded: Result<Record, JsonError>) -> Outcome {
    match decoded {
        Ok(rec) => Outcome::Value(rec),
        Err(e) if e.is_syntax() => Outcome::Tear,
        Err(_) => Outcome::Shape,
    }
}

/// The reference decode of one body: a tree, then field lookups.
fn reference(body: &str, vocab: &Vocabulary) -> Outcome {
    match json::parse(body) {
        Err(_) => Outcome::Tear,
        Ok(tree) => match reference_record(&tree, vocab) {
            Ok(rec) => Outcome::Value(rec),
            Err(_) => Outcome::Shape,
        },
    }
}

/// The values of object `j`, whose keys must be exactly `keys`, in
/// that order: the order the writer emits them.
fn keyed<'j>(j: &'j Json, keys: &[&str]) -> Result<Vec<&'j Json>, JsonError> {
    let fields = j.as_obj()?;
    let got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if got != keys {
        return Err(JsonError::shape(format!("keys {got:?}, not {keys:?}")));
    }
    Ok(fields.iter().map(|(_, v)| v).collect())
}

/// The tag and body of a single-variant object.
fn variant(j: &Json) -> Result<(&str, &Json), JsonError> {
    match j.as_obj()? {
        [(tag, body)] => Ok((tag, body)),
        _ => Err(JsonError::shape("expected a single-variant object")),
    }
}

const DONE_KEYS: [&str; 6] = ["kind", "qid", "complete", "digest", "threshold", "of"];

fn reference_record(rec: &Json, vocab: &Vocabulary) -> Result<Record, JsonError> {
    let kind = match rec.as_obj()?.first() {
        Some((k, kind)) if k == "kind" => kind.as_str()?,
        _ => return Err(JsonError::shape("the kind is not the first key")),
    };
    Ok(match kind {
        "session" => {
            let f = keyed(rec, &["kind", "name", "proto", "seed", "members"])?;
            Record::Session {
                name: f[1].as_str()?.to_string(),
                proto: f[2].as_u32()?,
                seed: f[3].as_exact_u64()?,
                members: f[4].as_u32()?,
            }
        }
        "query" => {
            let keys = [
                "kind",
                "qid",
                "src",
                "threshold",
                "batch_width",
                "max_questions",
                "seed",
            ];
            let f = keyed(rec, &keys)?;
            Record::Query {
                qid: f[1].as_u32()?,
                spec: QuerySpec {
                    src: f[2].as_str()?.to_string(),
                    threshold: opt(f[3], Json::as_f64)?,
                    batch_width: f[4].as_u32()?,
                    max_questions: opt(f[5], Json::as_u32)?,
                    seed: f[6].as_exact_u64()?,
                },
            }
        }
        "done" => {
            // `of` is the optional last key
            let f = keyed(rec, &DONE_KEYS[..rec.as_obj()?.len().clamp(5, 6)])?;
            Record::Done {
                qid: f[1].as_u32()?,
                done: DoneMeta {
                    complete: f[2].as_bool()?,
                    digest: f[3].as_str()?.to_string(),
                    threshold: f[4].as_f64()?,
                    of: f.get(5).map(|of| of.as_u32()).transpose()?,
                },
            }
        }
        "op" => {
            let f = keyed(rec, &["kind", "qid", "op"])?;
            Record::Op {
                qid: f[1].as_u32()?,
                op: wire_from_json(vocab, f[2])?,
            }
        }
        "answer" => {
            let f = keyed(rec, &["kind", "member", "entry"])?;
            let [p, a] = f[2].as_arr()? else {
                return Err(JsonError::shape("expected a [pattern, answer] entry"));
            };
            Record::Answer {
                member: MemberId(f[1].as_u32()?),
                pattern: pattern_from_json(vocab, p)?,
                answer: answer_from_json(vocab, a)?,
            }
        }
        other => return Err(JsonError::shape(format!("unknown kind {other:?}"))),
    })
}

fn opt<T>(v: &Json, read: impl Fn(&Json) -> Result<T, JsonError>) -> Result<Option<T>, JsonError> {
    match v {
        Json::Null => Ok(None),
        other => read(other).map(Some),
    }
}

/// `id` if it is below `len`, the size of the vocabulary it indexes.
fn in_vocab(id: u32, len: usize) -> Result<u32, JsonError> {
    if (id as usize) < len {
        Ok(id)
    } else {
        Err(JsonError::shape(format!("id {id} past the vocabulary")))
    }
}

fn elem_from_json(vocab: &Vocabulary, j: &Json) -> Result<ElemId, JsonError> {
    Ok(ElemId(in_vocab(j.as_u32()?, vocab.num_elems())?))
}

fn rel_from_json(vocab: &Vocabulary, j: &Json) -> Result<RelId, JsonError> {
    Ok(RelId(in_vocab(j.as_u32()?, vocab.num_rels())?))
}

/// A fact, whose ids must name elements and a relation of `vocab`.
fn fact_from_json(vocab: &Vocabulary, f: &Json) -> Result<Fact, JsonError> {
    let [s, r, o] = f.as_arr()? else {
        return Err(JsonError::shape("expected a [s, r, o] fact"));
    };
    Ok(Fact::new(
        elem_from_json(vocab, s)?,
        rel_from_json(vocab, r)?,
        elem_from_json(vocab, o)?,
    ))
}

fn value_from_json(vocab: &Vocabulary, j: &Json) -> Result<Value, JsonError> {
    let [kind, id] = j.as_arr()? else {
        return Err(JsonError::shape("expected a [kind, id] value"));
    };
    match kind.as_str()? {
        "e" => Ok(Value::Elem(elem_from_json(vocab, id)?)),
        "r" => Ok(Value::Rel(rel_from_json(vocab, id)?)),
        other => Err(JsonError::shape(format!("unknown value kind {other:?}"))),
    }
}

fn assignment_from_json(vocab: &Vocabulary, j: &Json) -> Result<Assignment, JsonError> {
    let f = keyed(j, &["slots", "more"])?;
    let values = f[0]
        .as_arr()?
        .iter()
        .map(|s| {
            s.as_arr()?
                .iter()
                .map(|v| value_from_json(vocab, v))
                .collect()
        })
        .collect::<Result<Vec<Vec<Value>>, _>>()?;
    let more = f[1]
        .as_arr()?
        .iter()
        .map(|f| fact_from_json(vocab, f))
        .collect::<Result<Vec<Fact>, _>>()?;
    Ok(Assignment::new(vocab, values, more))
}

fn wire_from_json(vocab: &Vocabulary, j: &Json) -> Result<WireOp, JsonError> {
    let f = keyed(j, &["tick", "seq", "member", "node", "verdict"])?;
    let node = match f[3] {
        Json::Null => None,
        a => Some(assignment_from_json(vocab, a)?),
    };
    let (tag, body) = variant(f[4])?;
    let verdict = match tag {
        "Support" => WireVerdict::Support {
            support: keyed(body, &["support"])?[0].as_f64()?,
        },
        "NoneOfThese" => WireVerdict::NoneOfThese {
            options: keyed(body, &["options"])?[0]
                .as_arr()?
                .iter()
                .map(|a| assignment_from_json(vocab, a))
                .collect::<Result<Vec<_>, _>>()?,
        },
        "Prune" => WireVerdict::Prune {
            elem: elem_from_json(vocab, keyed(body, &["elem"])?[0])?,
        },
        "NoAnswer" => {
            keyed(body, &[])?;
            WireVerdict::NoAnswer
        }
        "Msp" => WireVerdict::Msp {
            valid: keyed(body, &["valid"])?[0].as_bool()?,
        },
        "Revise" => WireVerdict::Revise {
            support: keyed(body, &["support"])?[0].as_f64()?,
        },
        other => {
            return Err(JsonError::shape(format!(
                "unknown verdict variant {other:?}"
            )))
        }
    };
    Ok(WireOp {
        tick: f[0].as_u32()?,
        seq: f[1].as_u32()?,
        member: MemberId(f[2].as_u32()?),
        node,
        verdict,
    })
}

fn pattern_from_json(vocab: &Vocabulary, v: &Json) -> Result<PatternSet, JsonError> {
    let facts = v
        .as_arr()?
        .iter()
        .map(|f| {
            let [s, r, o] = f.as_arr()? else {
                return Err(JsonError::shape(
                    "expected a [subject, rel, object] pattern",
                ));
            };
            Ok(PatternFact {
                subject: opt(s, |s| elem_from_json(vocab, s))?,
                rel: opt(r, |r| rel_from_json(vocab, r))?,
                object: opt(o, |o| elem_from_json(vocab, o))?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PatternSet::from_iter(facts))
}

fn answer_from_json(vocab: &Vocabulary, v: &Json) -> Result<CachedAnswer, JsonError> {
    let (tag, body) = variant(v)?;
    match tag {
        "Support" => {
            let f = keyed(body, &["support", "more_tip"])?;
            Ok(CachedAnswer::Support {
                more_tip: opt(f[1], |t| fact_from_json(vocab, t))?,
                support: f[0].as_f64()?,
            })
        }
        "Irrelevant" => Ok(CachedAnswer::Irrelevant {
            elem: elem_from_json(vocab, keyed(body, &["elem"])?[0])?,
        }),
        other => Err(JsonError::shape(format!(
            "unknown answer variant {other:?}"
        ))),
    }
}

// ------------------------------------------------------------ spelling

// The tree spelling of every value the decoders above read, written
// apart from the production writers (`write_wire_op`, `write_entry`), so
// `canonical_bodies_are_the_writers_bytes` holds each record kind to two
// independent spellings.

fn num(n: impl Into<f64>) -> Json {
    Json::Num(n.into())
}

fn s(text: &str) -> Json {
    Json::Str(text.into())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A single-variant object, `{"Tag": {…}}`.
fn variant_json(tag: &str, fields: Vec<(&str, Json)>) -> Json {
    obj(vec![(tag, obj(fields))])
}

fn fact_json(f: &Fact) -> Json {
    Json::Arr(vec![num(f.subject.0), num(f.rel.0), num(f.object.0)])
}

fn value_json(v: &Value) -> Json {
    match v {
        Value::Elem(e) => Json::Arr(vec![s("e"), num(e.0)]),
        Value::Rel(r) => Json::Arr(vec![s("r"), num(r.0)]),
    }
}

fn assignment_json(a: &Assignment) -> Json {
    let slots = (0..a.num_slots())
        .map(|si| Json::Arr(a.slot(Slot(si as u16)).iter().map(value_json).collect()))
        .collect();
    obj(vec![
        ("slots", Json::Arr(slots)),
        ("more", Json::Arr(a.more().iter().map(fact_json).collect())),
    ])
}

fn wire_json(op: &WireOp) -> Json {
    let verdict = match &op.verdict {
        WireVerdict::Support { support } => {
            variant_json("Support", vec![("support", num(*support))])
        }
        WireVerdict::NoneOfThese { options } => variant_json(
            "NoneOfThese",
            vec![(
                "options",
                Json::Arr(options.iter().map(assignment_json).collect()),
            )],
        ),
        WireVerdict::Prune { elem } => variant_json("Prune", vec![("elem", num(elem.0))]),
        WireVerdict::NoAnswer => variant_json("NoAnswer", vec![]),
        WireVerdict::Msp { valid } => variant_json("Msp", vec![("valid", Json::Bool(*valid))]),
        WireVerdict::Revise { support } => variant_json("Revise", vec![("support", num(*support))]),
    };
    obj(vec![
        ("tick", num(op.tick)),
        ("seq", num(op.seq)),
        ("member", num(op.member.0)),
        ("node", op.node.as_ref().map_or(Json::Null, assignment_json)),
        ("verdict", verdict),
    ])
}

fn entry_json(pattern: &PatternSet, answer: &CachedAnswer) -> Json {
    let id = |id: Option<u32>| id.map_or(Json::Null, num);
    let pattern = pattern
        .iter()
        .map(|f| {
            Json::Arr(vec![
                id(f.subject.map(|e| e.0)),
                id(f.rel.map(|r| r.0)),
                id(f.object.map(|e| e.0)),
            ])
        })
        .collect();
    let answer = match answer {
        CachedAnswer::Support { support, more_tip } => variant_json(
            "Support",
            vec![
                ("support", num(*support)),
                ("more_tip", more_tip.as_ref().map_or(Json::Null, fact_json)),
            ],
        ),
        CachedAnswer::Irrelevant { elem } => {
            variant_json("Irrelevant", vec![("elem", num(elem.0))])
        }
    };
    Json::Arr(vec![Json::Arr(pattern), answer])
}

/// The reference recovery of a session directory: parse every line's
/// body to a tree, cut the file at the first tear, then decode the kept
/// trees in order and fold them.
fn reference_recover(path: &Path, vocab: &Vocabulary) -> Result<Recovered, JsonError> {
    let bytes = fs::read(path).unwrap_or_default();
    let mut trees = Vec::new();
    let mut offset = 0;
    let mut torn = false;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let tree = line
            .strip_suffix(b"\n")
            .and_then(checked_body)
            .and_then(|body| std::str::from_utf8(body).ok())
            .and_then(|body| json::parse(body).ok());
        let Some(tree) = tree else {
            truncate_to(path, offset).unwrap();
            torn = true;
            break;
        };
        trees.push(tree);
        offset += line.len();
    }
    let records = trees
        .iter()
        .map(|t| reference_record(t, vocab))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = fold(records);
    out.truncated = torn;
    Ok(out)
}

// ------------------------------------------------------------ generation

/// A splitmix64 stream: each proptest case draws one seed, and every
/// choice of the case is made from it.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next() % den < num
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())].clone()
    }

    fn u32(&mut self) -> u32 {
        match self.below(4) {
            0 => self.pick(&[0, 1, u32::MAX - 1, u32::MAX]),
            1 => self.next() as u32,
            _ => self.below(64) as u32,
        }
    }

    fn seed(&mut self) -> u64 {
        match self.below(3) {
            0 => self.pick(&[0, 1, (1 << 53) - 1, 1 << 53]),
            _ => self.next() % (1 << 53),
        }
    }

    fn f64(&mut self) -> f64 {
        self.pick(&[0.0, 0.25, 1.0 / 3.0, 0.4, 1.0, 1e-300, 5.0 / 12.0, 12.5])
    }

    /// An element of the vocabulary: the writer names no other.
    fn elem(&mut self) -> ElemId {
        ElemId(self.u32() % vocab().num_elems() as u32)
    }

    /// A relation of the vocabulary.
    fn rel(&mut self) -> RelId {
        RelId(self.u32() % vocab().num_rels() as u32)
    }

    fn text(&mut self) -> String {
        const CHARS: [char; 14] = [
            'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{7f}', 'é', '≤', '東', '🦀',
        ];
        (0..self.below(12)).map(|_| self.pick(&CHARS)).collect()
    }
}

/// Figure 1's vocabulary, which the ids of generated ops index.
fn vocab() -> &'static Vocabulary {
    static VOCAB: OnceLock<Vocabulary> = OnceLock::new();
    VOCAB.get_or_init(|| figure1::ontology().vocab().clone())
}

/// A pool of canonical figure-1 assignments (the nodes of one
/// materialized DAG) for generated ops.
fn assignments() -> &'static [Assignment] {
    static POOL: OnceLock<Vec<Assignment>> = OnceLock::new();
    POOL.get_or_init(|| {
        let ont = figure1::ontology();
        let q = oassis_ql::parse(figure1::SIMPLE_QUERY).unwrap();
        let b = oassis_ql::bind(&q, &ont).unwrap();
        let base = oassis_ql::evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base).without_multiplicities();
        dag.materialize_all();
        (0..dag.len())
            .map(|i| dag.node(oassis_core::NodeId(i as u32)).assignment.clone())
            .collect()
    })
}

fn gen_fact(g: &mut Gen) -> Fact {
    Fact::new(g.elem(), g.rel(), g.elem())
}

fn gen_op(g: &mut Gen) -> WireOp {
    let pool = assignments();
    let verdict = match g.below(6) {
        0 => WireVerdict::Support { support: g.f64() },
        1 => WireVerdict::NoneOfThese {
            options: (0..g.below(3)).map(|_| g.pick(pool)).collect(),
        },
        // a writer prunes only elements of the vocabulary
        2 => WireVerdict::Prune { elem: g.elem() },
        3 => WireVerdict::NoAnswer,
        4 => WireVerdict::Msp {
            valid: g.chance(1, 2),
        },
        _ => WireVerdict::Revise { support: g.f64() },
    };
    WireOp {
        tick: g.u32(),
        seq: g.u32(),
        member: MemberId(g.u32()),
        node: g.chance(2, 3).then(|| g.pick(pool)),
        verdict,
    }
}

fn gen_record(g: &mut Gen) -> Record {
    match g.below(5) {
        0 => Record::Session {
            name: g.text(),
            proto: g.u32(),
            seed: g.seed(),
            members: g.u32(),
        },
        1 => Record::Query {
            qid: g.u32(),
            spec: QuerySpec {
                src: g.text(),
                threshold: g.chance(1, 2).then(|| g.f64()),
                batch_width: g.u32(),
                max_questions: g.chance(1, 2).then(|| g.u32()),
                seed: g.seed(),
            },
        },
        2 => Record::Op {
            qid: g.u32(),
            op: gen_op(g),
        },
        3 => Record::Answer {
            member: MemberId(g.u32()),
            pattern: PatternSet::from_iter((0..g.below(3)).map(|_| PatternFact {
                subject: g.chance(2, 3).then(|| g.elem()),
                rel: g.chance(2, 3).then(|| g.rel()),
                object: g.chance(2, 3).then(|| g.elem()),
            })),
            answer: if g.chance(2, 3) {
                CachedAnswer::Support {
                    support: g.f64(),
                    more_tip: g.chance(1, 2).then(|| gen_fact(g)),
                }
            } else {
                CachedAnswer::Irrelevant { elem: g.elem() }
            },
        },
        _ => Record::Done {
            qid: g.u32(),
            done: DoneMeta {
                complete: g.chance(1, 2),
                digest: g.text(),
                threshold: g.f64(),
                of: g.chance(1, 2).then(|| g.u32()),
            },
        },
    }
}

/// The body [`SessionWal`]'s writer emits for `rec`.
fn canonical(rec: &Record) -> Json {
    let fields: Vec<(&str, Json)> = match rec {
        Record::Session {
            name,
            proto,
            seed,
            members,
        } => vec![
            ("kind", s("session")),
            ("name", s(name)),
            ("proto", num(*proto)),
            ("seed", Json::Num(*seed as f64)),
            ("members", num(*members)),
        ],
        Record::Query { qid, spec } => vec![
            ("kind", s("query")),
            ("qid", num(*qid)),
            ("src", s(&spec.src)),
            ("threshold", spec.threshold.map_or(Json::Null, num)),
            ("batch_width", num(spec.batch_width)),
            ("max_questions", spec.max_questions.map_or(Json::Null, num)),
            ("seed", Json::Num(spec.seed as f64)),
        ],
        Record::Op { qid, op } => {
            vec![("kind", s("op")), ("qid", num(*qid)), ("op", wire_json(op))]
        }
        Record::Answer {
            member,
            pattern,
            answer,
        } => vec![
            ("kind", s("answer")),
            ("member", num(member.0)),
            ("entry", entry_json(pattern, answer)),
        ],
        Record::Done { qid, done } => {
            let mut fields = vec![
                ("kind", s("done")),
                ("qid", num(*qid)),
                ("complete", Json::Bool(done.complete)),
                ("digest", s(&done.digest)),
                ("threshold", num(done.threshold)),
            ];
            fields.extend(done.of.map(|m| ("of", num(m))));
            fields
        }
    };
    obj(fields)
}

/// A body tree whose numbers and literals keep their text, so a case
/// can spell one value several ways.
#[derive(Clone, Debug)]
enum Node {
    /// A number, `true`, `false` or `null`, as written.
    Token(String),
    Str(String),
    Arr(Vec<Node>),
    Obj(Vec<(String, Node)>),
}

impl Node {
    fn of(j: &Json) -> Node {
        match j {
            Json::Str(t) => Node::Str(t.clone()),
            Json::Arr(items) => Node::Arr(items.iter().map(Node::of).collect()),
            Json::Obj(fields) => Node::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), Node::of(v)))
                    .collect(),
            ),
            other => Node::Token(other.to_string()),
        }
    }

    /// Every node, in preorder.
    fn count(&self) -> usize {
        1 + match self {
            Node::Arr(items) => items.iter().map(Node::count).sum(),
            Node::Obj(fields) => fields.iter().map(|(_, v)| v.count()).sum(),
            _ => 0,
        }
    }

    /// The `at`-th node in preorder.
    fn nth(&mut self, at: usize) -> Option<&mut Node> {
        if at == 0 {
            return Some(self);
        }
        let mut at = at - 1;
        let children: Vec<&mut Node> = match self {
            Node::Arr(items) => items.iter_mut().collect(),
            Node::Obj(fields) => fields.iter_mut().map(|(_, v)| v).collect(),
            _ => return None,
        };
        for child in children {
            let n = child.count();
            if at < n {
                return child.nth(at);
            }
            at -= n;
        }
        None
    }
}

/// A random value of any type.
fn gen_node(g: &mut Gen, depth: usize) -> Node {
    match g.below(if depth == 0 { 4 } else { 6 }) {
        0 => Node::Token(g.pick(&["null", "true", "false"]).to_string()),
        1 => Node::Token(g.pick(&NUMBERS).to_string()),
        2 => Node::Str(g.text()),
        3 => Node::Str(g.pick(&["e", "r", "op", "Support", "NoAnswer"]).to_string()),
        4 => Node::Arr((0..g.below(4)).map(|_| gen_node(g, depth - 1)).collect()),
        _ => Node::Obj(
            (0..g.below(3))
                .map(|_| (g.pick(&KEYS).to_string(), gen_node(g, depth - 1)))
                .collect(),
        ),
    }
}

/// Numbers at the edges of what the decoders accept.
const NUMBERS: [&str; 16] = [
    "0",
    "-0",
    "7",
    "1.5",
    "-1",
    "4294967295",
    "4294967296",
    "4294967295.0",
    "42949672950e-1",
    "9007199254740992",
    "9007199254740993",
    "18446744073709551616",
    "1e300",
    "1E2",
    "0.25",
    "2e-1",
];

/// Keys of every record kind and nested value, and a few no kind has.
const KEYS: [&str; 24] = [
    "kind",
    "name",
    "proto",
    "seed",
    "members",
    "qid",
    "src",
    "threshold",
    "batch_width",
    "max_questions",
    "complete",
    "digest",
    "of",
    "op",
    "member",
    "entry",
    "tick",
    "seq",
    "node",
    "verdict",
    "slots",
    "more",
    "future",
    "support",
];

/// Another spelling of the same number, or a number at an edge.
fn respell(g: &mut Gen, token: &str) -> String {
    let int = token.parse::<u64>().ok().filter(|&n| n < 1 << 53);
    match (g.below(3), int) {
        (0, Some(n)) => g.pick(&[format!("{n}.0"), format!("{n}e0"), format!("{n}0E-1")]),
        (1, _) => g.pick(&NUMBERS).to_string(),
        _ => token.to_string(),
    }
}

/// Rewrites `node` in place with one of the body-level damages.
fn mutate(g: &mut Gen, node: &mut Node) {
    let damage = g.below(8);
    if damage == 7 {
        // a record kind renamed, or made another type
        if let Node::Obj(fields) = node {
            if let Some((_, kind)) = fields.iter_mut().find(|(k, _)| k == "kind") {
                *kind = g.pick(&[
                    Node::Str("future".into()),
                    Node::Str("Op".into()),
                    Node::Token("7".into()),
                    Node::Str("answer".into()),
                ]);
            }
        }
        return;
    }
    let at = g.below(node.count());
    let Some(target) = node.nth(at) else {
        return;
    };
    match damage {
        // shuffle an object's keys
        0 => {
            if let Node::Obj(fields) = target {
                for i in (1..fields.len()).rev() {
                    fields.swap(i, g.below(i + 1));
                }
            }
        }
        // an unknown key, or a known key out of place
        1 => {
            if let Node::Obj(fields) = target {
                let key = g.pick(&KEYS).to_string();
                let at = g.below(fields.len() + 1);
                fields.insert(at, (key, gen_node(g, 2)));
            }
        }
        // a duplicate key, before or after the first
        2 => {
            if let Node::Obj(fields) = target {
                if !fields.is_empty() {
                    let key = fields[g.below(fields.len())].0.clone();
                    let at = g.below(fields.len() + 1);
                    fields.insert(at, (key, gen_node(g, 2)));
                }
            }
        }
        // a key dropped
        3 => {
            if let Node::Obj(fields) = target {
                if !fields.is_empty() {
                    fields.remove(g.below(fields.len()));
                }
            }
        }
        // a value of another type
        4 => *target = gen_node(g, 2),
        // a number spelled another way, or at an edge
        5 => {
            if let Node::Token(t) = target {
                if t.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
                    *t = respell(g, t);
                }
            }
        }
        // an array grown or shrunk by one
        _ => {
            if let Node::Arr(items) = target {
                if items.is_empty() || g.chance(1, 2) {
                    items.push(gen_node(g, 1));
                } else {
                    items.pop();
                }
            }
        }
    }
}

/// Renders `node` with random whitespace and random escapes.
fn render(g: &mut Gen, node: &Node, out: &mut String) {
    let ws = |g: &mut Gen, out: &mut String| {
        if g.chance(1, 6) {
            out.push_str(g.pick(&[" ", "\t", "\n ", "\r\n", "  "]));
        }
    };
    ws(g, out);
    match node {
        Node::Token(t) => out.push_str(t),
        Node::Str(t) => render_str(g, t, out),
        Node::Arr(items) => {
            out.push('[');
            ws(g, out);
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(g, item, out);
            }
            ws(g, out);
            out.push(']');
        }
        Node::Obj(fields) => {
            out.push('{');
            ws(g, out);
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(g, out);
                render_str(g, k, out);
                ws(g, out);
                out.push(':');
                render(g, v, out);
                ws(g, out);
            }
            out.push('}');
        }
    }
    ws(g, out);
}

fn render_str(g: &mut Gen, text: &str, out: &mut String) {
    out.push('"');
    for c in text.chars() {
        let escaped = g.chance(1, 4);
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' if escaped => out.push_str("\\/"),
            '\n' if escaped => out.push_str("\\n"),
            '\t' if escaped => out.push_str("\\t"),
            c if (escaped || c < ' ') && c <= '\u{ffff}' => {
                out.push_str(&format!("\\u{:04x}", c as u32))
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Breaks the syntax of `text` (the result may still parse).
fn tear(g: &mut Gen, text: &str) -> String {
    let mut cut = g.below(text.len() + 1);
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    let (head, tail) = text.split_at(cut);
    match g.below(4) {
        0 => head.to_string(),
        1 => format!(
            "{head}{}{tail}",
            g.pick(&[",", "}", "]", "\"", ":", "x", "\\ud83e"])
        ),
        2 => format!("{head}{}", tail.chars().skip(1).collect::<String>()),
        _ => format!("{text}{}", g.pick(&["}", " 1", ",", "]"])),
    }
}

/// One generated body and the record it was made from.
fn gen_body(g: &mut Gen) -> (Record, String) {
    let rec = gen_record(g);
    let mut node = Node::of(&canonical(&rec));
    let damages = match g.below(4) {
        0 => 0,
        1 => 1,
        _ => 1 + g.below(3),
    };
    for _ in 0..damages {
        mutate(g, &mut node);
    }
    if g.chance(1, 12) {
        node = gen_node(g, 2);
    }
    let mut text = String::new();
    if damages == 0 && g.chance(1, 2) {
        text = canonical(&rec).to_string();
    } else {
        render(g, &node, &mut text);
    }
    if g.chance(1, 8) {
        text = tear(g, &text);
    }
    (rec, text)
}

// ------------------------------------------------------------ files

/// A unique temporary directory, cleared of any earlier run's files.
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oassis-wal-decode-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A real three-query `session.wal`: a mined query, a served repeat of
/// it (footer `"of": 1`) and a second mined query.
fn real_log() -> &'static [u8] {
    static LOG: OnceLock<Vec<u8>> = OnceLock::new();
    LOG.get_or_init(|| {
        let ont = Arc::new(figure1::ontology());
        let root = tmp_dir("real");
        let mut mgr = SessionManager::new(
            ont.clone(),
            Box::new(Figure1Provider::new(ont.clone())),
            &root,
        );
        let session = SessionSpec {
            name: "s".into(),
            seed: 7,
            members: 2,
        };
        mgr.open(&session).unwrap();
        let spec = |seed| QuerySpec {
            src: figure1::SIMPLE_QUERY.to_string(),
            threshold: None,
            batch_width: 1,
            max_questions: None,
            seed,
        };
        for seed in [3, 3, 4] {
            mgr.query("s", &spec(seed)).unwrap();
        }
        let log = fs::read(root.join("s").join(SESSION_WAL)).unwrap();
        fs::remove_dir_all(&root).unwrap();
        log
    })
}

/// Damages a log: a cut, a flipped byte, a duplicated line, two
/// swapped lines, or a crc-valid line around a generated body (which
/// may be misshapen or not JSON).
fn damage(g: &mut Gen, log: &[u8]) -> Vec<u8> {
    let mut lines: Vec<Vec<u8>> = log
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect();
    if log.is_empty() {
        return Vec::new();
    }
    match g.below(5) {
        0 => log[..g.below(log.len() + 1)].to_vec(),
        1 => {
            let mut out = log.to_vec();
            let at = g.below(out.len());
            out[at] ^= 1 << g.below(8);
            out
        }
        2 => {
            let line = lines[g.below(lines.len())].clone();
            lines.insert(g.below(lines.len() + 1), line);
            lines.concat()
        }
        3 => {
            let (a, b) = (g.below(lines.len()), g.below(lines.len()));
            lines.swap(a, b);
            lines.concat()
        }
        _ => {
            let (_, body) = gen_body(g);
            let line = format!(
                "{{\"crc\":\"{:016x}\",\"rec\":{body}}}\n",
                fnv64(body.as_bytes())
            );
            lines.insert(g.below(lines.len() + 1), line.into_bytes());
            lines.concat()
        }
    }
}

/// The member `key` of object `j`.
fn member<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(fields) = j else {
        panic!("{j} is no object");
    };
    &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1
}

/// An id at or past `len`, the size of the vocabulary it indexes.
fn past(g: &mut Gen, len: u32) -> u32 {
    g.pick(&[len, len + 1, 4_000_000_000, u32::MAX])
}

/// A crc-valid line naming an element or relation id past `vocab`: an
/// `op` line or an `answer` line.
fn line_past_the_vocabulary(g: &mut Gen, vocab: &Vocabulary) -> Vec<u8> {
    let body = if g.chance(1, 3) {
        answer_past_the_vocabulary(g, vocab)
    } else {
        op_past_the_vocabulary(g, vocab)
    };
    format!(
        "{{\"crc\":\"{:016x}\",\"rec\":{body}}}\n",
        fnv64(body.as_bytes())
    )
    .into_bytes()
}

/// An `answer` body naming an id past `vocab`: in its pattern, in its
/// answer's MORE tip, or as an `Irrelevant` element.
fn answer_past_the_vocabulary(g: &mut Gen, vocab: &Vocabulary) -> String {
    let (elems, rels) = (vocab.num_elems() as u32, vocab.num_rels() as u32);
    let mut fact = [0, 0, 0];
    let at = g.below(3);
    fact[at] = past(g, if at == 1 { rels } else { elems });
    let [s, r, o] = fact;
    let entry = match g.below(3) {
        0 => format!(r#"[[[{s},{r},{o}]],{{"Support":{{"support":0.5,"more_tip":null}}}}]"#),
        1 => format!(r#"[[],{{"Support":{{"support":0.5,"more_tip":[{s},{r},{o}]}}}}]"#),
        _ => format!(r#"[[],{{"Irrelevant":{{"elem":{}}}}}]"#, past(g, elems)),
    };
    format!(r#"{{"kind":"answer","member":0,"entry":{entry}}}"#)
}

/// An `op` body naming an element or relation id past `vocab`: in a
/// slot value of its node, in a MORE fact, in a `NoneOfThese` option or
/// as a `Prune` element.
fn op_past_the_vocabulary(g: &mut Gen, vocab: &Vocabulary) -> String {
    let (elems, rels) = (vocab.num_elems() as u32, vocab.num_rels() as u32);
    let node = |g: &mut Gen| {
        let op = WireOp {
            tick: 1,
            seq: 0,
            member: MemberId(0),
            node: Some(g.pick(assignments())),
            verdict: WireVerdict::NoAnswer,
        };
        member(&mut wire_json(&op), "node").clone()
    };
    // a node with one id past the vocabulary
    let mut bad = node(g);
    if g.chance(1, 2) {
        let Json::Arr(slots) = member(&mut bad, "slots") else {
            unreachable!("slots are an array");
        };
        let at = g.below(slots.len());
        let Json::Arr(values) = &mut slots[at] else {
            unreachable!("a slot is an array");
        };
        let at = g.below(values.len());
        let Json::Arr(pair) = &mut values[at] else {
            unreachable!("a value is a [kind, id] pair");
        };
        let len = if pair[0] == s("e") { elems } else { rels };
        pair[1] = num(past(g, len));
    } else {
        let mut fact = [0, 0, 0].map(num);
        let at = g.below(3);
        fact[at] = num(past(g, if at == 1 { rels } else { elems }));
        let Json::Arr(more) = member(&mut bad, "more") else {
            unreachable!("more is an array");
        };
        more.push(Json::Arr(fact.into()));
    }
    let mut op = wire_json(&WireOp {
        tick: 1,
        seq: 0,
        member: MemberId(0),
        node: None,
        verdict: WireVerdict::NoAnswer,
    });
    match g.below(3) {
        0 => *member(&mut op, "node") = bad,
        1 => {
            *member(&mut op, "verdict") = Json::Obj(vec![(
                "NoneOfThese".into(),
                Json::Obj(vec![("options".into(), Json::Arr(vec![node(g), bad]))]),
            )])
        }
        _ => {
            *member(&mut op, "verdict") = Json::Obj(vec![(
                "Prune".into(),
                Json::Obj(vec![("elem".into(), num(past(g, elems)))]),
            )])
        }
    }
    Json::Obj(vec![
        ("kind".into(), s("op")),
        ("qid".into(), num(1)),
        ("op".into(), op),
    ])
    .to_string()
}

/// `line` inserted into the real log before its `at`-th line, or
/// after its last.
fn insert_line(at: usize, line: &[u8]) -> Vec<u8> {
    let mut lines: Vec<&[u8]> = real_log().split_inclusive(|&b| b == b'\n').collect();
    lines.insert(at.min(lines.len()), line);
    lines.concat()
}

/// Recovers `log` from a fresh directory; returns the recovery and the
/// file's length afterwards.
fn recover_log(name: &str, log: &[u8]) -> (Result<Recovered, JsonError>, u64) {
    let dir = tmp_dir(name);
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(SESSION_WAL), log).unwrap();
    let got = SessionWal::open(&dir, 0).unwrap().recover(vocab());
    let len = fs::metadata(dir.join(SESSION_WAL)).unwrap().len();
    fs::remove_dir_all(&dir).unwrap();
    (got, len)
}

/// What a recovery is compared on.
type Seen = Result<
    (
        bool,
        (Option<String>, u32, u64, u32),
        Vec<(u32, QuerySpec, Option<DoneMeta>)>,
        std::collections::BTreeMap<u32, Vec<WireOp>>,
        CrowdCache,
    ),
    (),
>;

fn seen(rec: Result<Recovered, JsonError>) -> Seen {
    rec.map(|r| {
        (
            r.truncated,
            (r.session, r.proto, r.seed, r.members),
            r.queries
                .into_iter()
                .map(|q| (q.qid, q.spec, q.done))
                .collect(),
            r.ops,
            r.cache,
        )
    })
    .map_err(drop)
}

// ------------------------------------------------------------ tests

/// The test-side writer spells every record the way `SessionWal` does.
#[test]
fn canonical_bodies_are_the_writers_bytes() {
    let dir = tmp_dir("canonical");
    let vocab = figure1::ontology().vocab().clone();
    let mut g = Gen(7);
    let mut recs = Vec::new();
    let mut wal = SessionWal::open(&dir, 0).unwrap();
    while recs.len() < 200 {
        let rec = gen_record(&mut g);
        match &rec {
            Record::Session {
                name,
                proto,
                seed,
                members,
            } => wal.record_session(name, *proto, *seed, *members).unwrap(),
            Record::Query { qid, spec } => wal.record_query(*qid, spec).unwrap(),
            Record::Op { qid, op } => assert!(wal.append_op(*qid, op).unwrap()),
            Record::Answer {
                member,
                pattern,
                answer,
            } => assert!(wal.append_answer(*member, 0, pattern, answer).unwrap()),
            Record::Done { qid, done } => wal.record_done(*qid, done).unwrap(),
        }
        recs.push(rec);
    }
    let log = fs::read_to_string(dir.join(SESSION_WAL)).unwrap();
    assert_eq!(log.lines().count(), recs.len());
    for (line, rec) in log.lines().zip(recs) {
        let body = std::str::from_utf8(checked_body(line.as_bytes()).unwrap()).unwrap();
        assert_eq!(body, canonical(&rec).to_string());
        assert_eq!(decode_record(body, &vocab).unwrap(), rec, "{body}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// The generated bodies reach every class, and a value of every kind.
#[test]
fn generated_bodies_reach_every_class() {
    let vocab = figure1::ontology().vocab().clone();
    let mut seen = std::collections::BTreeMap::new();
    for seed in 0..4000 {
        let (_, body) = gen_body(&mut Gen(seed));
        let class = match reference(&body, &vocab) {
            Outcome::Value(rec) => format!("{rec:?}")
                .split([' ', '{'])
                .next()
                .unwrap()
                .to_string(),
            other => format!("{other:?}"),
        };
        *seen.entry(class).or_insert(0) += 1;
    }
    for class in ["Session", "Query", "Op", "Answer", "Done", "Shape", "Tear"] {
        assert!(
            seen.get(class).is_some_and(|&n| n >= 40),
            "{class}: {seen:?}"
        );
    }
}

/// A canonical body with two neighbouring keys swapped, an unknown key,
/// a repeated key or an unknown kind is a shape error in both decoders,
/// and the decode's message names the key; in a log, it fails recovery.
#[test]
fn bodies_off_the_writers_key_order_are_shape_errors_naming_the_key() {
    let mut g = Gen(11);
    for _ in 0..500 {
        let Json::Obj(fields) = canonical(&gen_record(&mut g)) else {
            unreachable!("a record is an object");
        };
        let at = g.below(fields.len());
        let key = |at: usize| fields[at].0.as_str();
        let mut cases = vec![
            (fields.clone(), "future"),
            (fields.clone(), key(at)),
            (fields.clone(), "future"),
        ];
        cases[0].0.insert(at + 1, ("future".into(), Json::Null));
        cases[1].0.insert(at + 1, fields[at].clone());
        cases[2].0[0].1 = s("future");
        if at + 1 < fields.len() {
            let mut swapped = fields.clone();
            swapped.swap(at, at + 1);
            cases.push((swapped, key(at + 1)));
        }
        for (members, key) in cases {
            let body = Json::Obj(members).to_string();
            assert_eq!(reference(&body, vocab()), Outcome::Shape, "{body}");
            let err = decode_record(&body, vocab()).unwrap_err();
            let named = err.msg.contains(&format!("{key:?}"));
            assert!(!err.is_syntax() && named, "{body}: {err}");
        }
    }
    let body = r#"{"kind":"future","qid":1}"#;
    let line = format!(
        "{{\"crc\":\"{:016x}\",\"rec\":{body}}}\n",
        fnv64(body.as_bytes())
    );
    let log = insert_line(2, line.as_bytes());
    let (got, len) = recover_log("unknown-kind", &log);
    assert!(got.unwrap_err().to_string().contains(r#""future""#));
    assert_eq!(len, log.len() as u64, "a misshapen body is no tear");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// The one-pass decode agrees with the tree decode on every body.
    #[test]
    fn bodies_decode_as_the_tree_decode_does(seed in any::<u64>()) {
        let vocab = figure1::ontology().vocab().clone();
        let mut g = Gen(seed);
        let (rec, body) = gen_body(&mut g);
        let want = reference(&body, &vocab);
        let got = outcome(decode_record(&body, &vocab));
        prop_assert_eq!(&got, &want, "{}", body);
        if body == canonical(&rec).to_string() {
            prop_assert_eq!(got, Outcome::Value(rec));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// A damaged log recovers as the reference recovers it, and cuts the
    /// file to the same length.
    #[test]
    fn damaged_logs_recover_as_the_tree_decode_does(seed in any::<u64>()) {
        let ont = figure1::ontology();
        let mut g = Gen(seed);
        let mut log = real_log().to_vec();
        for _ in 0..1 + g.below(3) {
            log = damage(&mut g, &log);
        }
        let (ours, theirs) = (tmp_dir(&format!("ours-{seed}")), tmp_dir(&format!("ref-{seed}")));
        for dir in [&ours, &theirs] {
            fs::create_dir_all(dir).unwrap();
            fs::write(dir.join(SESSION_WAL), &log).unwrap();
        }
        let got = seen(SessionWal::open(&ours, 0).unwrap().recover(ont.vocab()));
        let want = seen(reference_recover(&theirs.join(SESSION_WAL), ont.vocab()));
        let len = |dir: &Path| fs::metadata(dir.join(SESSION_WAL)).unwrap().len();
        let lens = (len(&ours), len(&theirs));
        fs::remove_dir_all(&ours).unwrap();
        fs::remove_dir_all(&theirs).unwrap();
        prop_assert_eq!(got, want);
        prop_assert_eq!(lens.0, lens.1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// A crc-valid line naming an id past the vocabulary fails recovery
    /// with a shape error, as the reference does, and cuts nothing: it
    /// is no tear, and it never reaches an index that panics.
    #[test]
    fn ids_past_the_vocabulary_fail_recovery(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let line = line_past_the_vocabulary(&mut g, vocab());
        let lines = real_log().iter().filter(|&&b| b == b'\n').count();
        let log = insert_line(g.below(lines + 1), &line);
        let (got, len) = recover_log(&format!("past-{seed}"), &log);
        let err = got.unwrap_err();
        prop_assert!(!err.is_syntax() && err.msg.contains("past the vocabulary"), "{}", err);
        prop_assert_eq!(len, log.len() as u64);
        let dir = tmp_dir(&format!("past-ref-{seed}"));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(SESSION_WAL), &log).unwrap();
        let want = seen(reference_recover(&dir.join(SESSION_WAL), vocab()));
        fs::remove_dir_all(&dir).unwrap();
        prop_assert_eq!(want, Err(()));
    }
}

/// A crc-valid body nested past the reader's bound fails recovery with
/// a shape error and cuts nothing, wherever the nesting sits.
#[test]
fn a_body_nested_past_the_bound_is_a_shape_error_not_a_tear() {
    let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
    for body in [
        deep(json::MAX_DEPTH + 1),
        "[".repeat(200_000),
        format!(
            r#"{{"kind":"op","qid":1,"future":{}}}"#,
            deep(json::MAX_DEPTH)
        ),
        format!(
            r#"{{"kind":"op","qid":1,"op":{{"tick":1,"seq":0,"member":0,"node":null,"verdict":{{"NoAnswer":{}}}}}}}"#,
            deep(json::MAX_DEPTH)
        ),
    ] {
        let line = format!(
            "{{\"crc\":\"{:016x}\",\"rec\":{body}}}\n",
            fnv64(body.as_bytes())
        );
        for at in [0, 2, usize::MAX] {
            let log = insert_line(at, line.as_bytes());
            let (got, len) = recover_log("deep", &log);
            let err = got.unwrap_err();
            assert!(!err.is_syntax() && err.msg.contains("nested"), "{err}");
            assert_eq!(len, log.len() as u64, "a deep body is no tear");
        }
    }
}

/// The undamaged log holds a served repeat and recovers whole.
#[test]
fn the_real_log_holds_a_repeat_and_recovers_whole() {
    let ont = figure1::ontology();
    let dir = tmp_dir("whole");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(SESSION_WAL), real_log()).unwrap();
    let rec = SessionWal::open(&dir, 0)
        .unwrap()
        .recover(ont.vocab())
        .unwrap();
    assert!(!rec.truncated);
    let of: Vec<Option<u32>> = rec
        .queries
        .iter()
        .map(|q| q.done.as_ref().and_then(|d| d.of))
        .collect();
    assert_eq!(of, [None, Some(1), None]);
    assert_eq!(
        rec.ops[&2], rec.ops[&1],
        "the repeat recovers its run's ops"
    );
    assert!(!rec.ops[&3].is_empty() && !rec.cache.is_empty());
    assert_eq!(fs::read(dir.join(SESSION_WAL)).unwrap(), real_log());
    fs::remove_dir_all(&dir).unwrap();
}
