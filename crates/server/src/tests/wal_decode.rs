//! Differential tests of the one-pass WAL decode against a reference
//! built the way the log was read before: `json::parse` of the whole
//! body into a tree, then `Json::field` lookups.
//!
//! * Body level: generated bodies of every record kind — canonical
//!   writer output, then shuffled, unknown and duplicate keys, extra
//!   whitespace, escaped strings, numbers at the u32 and 2^53 edges,
//!   values of the wrong type and broken syntax. Both decoders must give
//!   the same record, or the same class: tear, shape error or skip.
//! * File level: a real three-query `session.wal` holding a repeat
//!   footer (`of`), cut, byte-flipped, or with a line duplicated or two
//!   lines swapped. Recovery must not panic, and must match the
//!   reference on `Ok`/`Err`, `truncated`, the file length afterwards
//!   and the recovered header, queries, ops and answer cache.

use super::{
    checked_body, decode_record, fold, truncate_to, DoneMeta, QuerySpec, Record, Recovered,
    SessionWal, SESSION_WAL,
};
use crate::provider::Figure1Provider;
use crate::session::{SessionManager, SessionSpec};
use crowd::MemberId;
use oassis_core::cache::{entry_to_json, CachedAnswer};
use oassis_core::digest::fnv64;
use oassis_core::{wire_to_json, Assignment, Dag, WireOp, WireVerdict};
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
    Skip,
    Shape,
    Tear,
}

fn outcome(decoded: Result<Record, JsonError>) -> Outcome {
    match decoded {
        Ok(Record::Skip) => Outcome::Skip,
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
            Ok(Record::Skip) => Outcome::Skip,
            Ok(rec) => Outcome::Value(rec),
            Err(_) => Outcome::Shape,
        },
    }
}

fn reference_record(rec: &Json, vocab: &Vocabulary) -> Result<Record, JsonError> {
    Ok(match rec.field("kind").and_then(Json::as_str) {
        Ok("session") => Record::Session {
            name: rec.field("name")?.as_str()?.to_string(),
            proto: rec.field("proto")?.as_u32()?,
            seed: rec.field("seed")?.as_exact_u64()?,
            members: rec.field("members")?.as_u32()?,
        },
        Ok("query") => {
            let spec = QuerySpec {
                src: rec.field("src")?.as_str()?.to_string(),
                threshold: opt(rec.field("threshold")?, Json::as_f64)?,
                batch_width: rec.field("batch_width")?.as_u32()?,
                max_questions: opt(rec.field("max_questions")?, Json::as_u32)?,
                seed: rec.field("seed")?.as_exact_u64()?,
            };
            Record::Query {
                qid: rec.field("qid")?.as_u32()?,
                spec,
            }
        }
        Ok("done") => {
            let qid = rec.field("qid")?.as_u32()?;
            let done = DoneMeta {
                complete: as_bool(rec.field("complete")?)?,
                digest: rec.field("digest")?.as_str()?.to_string(),
                threshold: rec.field("threshold")?.as_f64()?,
                of: rec.field("of").ok().map(Json::as_u32).transpose()?,
            };
            Record::Done { qid, done }
        }
        Ok("op") => Record::Op {
            qid: rec.field("qid")?.as_u32()?,
            op: wire_from_json(vocab, rec.field("op")?)?,
        },
        Ok("answer") => {
            let member = MemberId(rec.field("member")?.as_u32()?);
            match rec.field("entry") {
                Ok(entry) => {
                    let [p, a] = entry.as_arr()? else {
                        return Err(JsonError::shape("expected a [pattern, answer] entry"));
                    };
                    Record::Answer {
                        member,
                        pattern: pattern_from_json(p)?,
                        answer: answer_from_json(a)?,
                    }
                }
                Err(_) => Record::Skip,
            }
        }
        _ => Record::Skip,
    })
}

fn opt<T>(v: &Json, read: impl Fn(&Json) -> Result<T, JsonError>) -> Result<Option<T>, JsonError> {
    match v {
        Json::Null => Ok(None),
        other => read(other).map(Some),
    }
}

fn as_bool(v: &Json) -> Result<bool, JsonError> {
    match v {
        Json::Bool(b) => Ok(*b),
        other => Err(JsonError::shape(format!("expected bool, got {other}"))),
    }
}

fn fact_from_json(f: &Json) -> Result<Fact, JsonError> {
    let [s, r, o] = f.as_arr()? else {
        return Err(JsonError::shape("expected a [s, r, o] fact"));
    };
    Ok(Fact::new(
        ElemId(s.as_u32()?),
        RelId(r.as_u32()?),
        ElemId(o.as_u32()?),
    ))
}

fn value_from_json(j: &Json) -> Result<Value, JsonError> {
    let [kind, id] = j.as_arr()? else {
        return Err(JsonError::shape("expected a [kind, id] value"));
    };
    match kind.as_str()? {
        "e" => Ok(Value::Elem(ElemId(id.as_u32()?))),
        "r" => Ok(Value::Rel(RelId(id.as_u32()?))),
        other => Err(JsonError::shape(format!("unknown value kind {other:?}"))),
    }
}

fn assignment_from_json(vocab: &Vocabulary, j: &Json) -> Result<Assignment, JsonError> {
    let values = j
        .field("slots")?
        .as_arr()?
        .iter()
        .map(|s| s.as_arr()?.iter().map(value_from_json).collect())
        .collect::<Result<Vec<Vec<Value>>, _>>()?;
    let more = j
        .field("more")?
        .as_arr()?
        .iter()
        .map(fact_from_json)
        .collect::<Result<Vec<Fact>, _>>()?;
    Ok(Assignment::new(vocab, values, more))
}

fn wire_from_json(vocab: &Vocabulary, j: &Json) -> Result<WireOp, JsonError> {
    let node = match j.field("node")? {
        Json::Null => None,
        a => Some(assignment_from_json(vocab, a)?),
    };
    let [(tag, body)] = j.field("verdict")?.as_obj()? else {
        return Err(JsonError::shape("expected a single-variant verdict object"));
    };
    let verdict = match tag.as_str() {
        "Support" => WireVerdict::Support {
            support: body.field("support")?.as_f64()?,
        },
        "NoneOfThese" => WireVerdict::NoneOfThese {
            options: body
                .field("options")?
                .as_arr()?
                .iter()
                .map(|a| assignment_from_json(vocab, a))
                .collect::<Result<Vec<_>, _>>()?,
        },
        "Prune" => WireVerdict::Prune {
            elem: ElemId(body.field("elem")?.as_u32()?),
        },
        "NoAnswer" => WireVerdict::NoAnswer,
        "Msp" => WireVerdict::Msp {
            valid: as_bool(body.field("valid")?)?,
        },
        "Revise" => WireVerdict::Revise {
            support: body.field("support")?.as_f64()?,
        },
        other => {
            return Err(JsonError::shape(format!(
                "unknown verdict variant {other:?}"
            )))
        }
    };
    Ok(WireOp {
        tick: j.field("tick")?.as_u32()?,
        seq: j.field("seq")?.as_u32()?,
        member: MemberId(j.field("member")?.as_u32()?),
        node,
        verdict,
    })
}

fn pattern_from_json(v: &Json) -> Result<PatternSet, JsonError> {
    let id = |v: &Json| opt(v, Json::as_u32);
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
                subject: id(s)?.map(ElemId),
                rel: id(r)?.map(RelId),
                object: id(o)?.map(ElemId),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PatternSet::from_iter(facts))
}

fn answer_from_json(v: &Json) -> Result<CachedAnswer, JsonError> {
    let [(tag, body)] = v.as_obj()? else {
        return Err(JsonError::shape("expected a single-variant answer object"));
    };
    match tag.as_str() {
        "Support" => Ok(CachedAnswer::Support {
            more_tip: opt(body.field("more_tip")?, fact_from_json)?,
            support: body.field("support")?.as_f64()?,
        }),
        "Irrelevant" => Ok(CachedAnswer::Irrelevant {
            elem: ElemId(body.field("elem")?.as_u32()?),
        }),
        other => Err(JsonError::shape(format!(
            "unknown answer variant {other:?}"
        ))),
    }
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

    fn text(&mut self) -> String {
        const CHARS: [char; 14] = [
            'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{7f}', 'é', '≤', '東', '🦀',
        ];
        (0..self.below(12)).map(|_| self.pick(&CHARS)).collect()
    }
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
    Fact::new(ElemId(g.u32()), RelId(g.u32()), ElemId(g.u32()))
}

fn gen_op(g: &mut Gen) -> WireOp {
    let pool = assignments();
    let verdict = match g.below(6) {
        0 => WireVerdict::Support { support: g.f64() },
        1 => WireVerdict::NoneOfThese {
            options: (0..g.below(3)).map(|_| g.pick(pool)).collect(),
        },
        2 => WireVerdict::Prune {
            elem: ElemId(g.u32()),
        },
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
                subject: g.chance(2, 3).then(|| ElemId(g.u32())),
                rel: g.chance(2, 3).then(|| RelId(g.u32())),
                object: g.chance(2, 3).then(|| ElemId(g.u32())),
            })),
            answer: if g.chance(2, 3) {
                CachedAnswer::Support {
                    support: g.f64(),
                    more_tip: g.chance(1, 2).then(|| gen_fact(g)),
                }
            } else {
                CachedAnswer::Irrelevant {
                    elem: ElemId(g.u32()),
                }
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

fn num(n: impl Into<f64>) -> Json {
    Json::Num(n.into())
}

fn s(text: &str) -> Json {
    Json::Str(text.into())
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
        Record::Op { qid, op } => vec![
            ("kind", s("op")),
            ("qid", num(*qid)),
            ("op", wire_to_json(op)),
        ],
        Record::Answer {
            member,
            pattern,
            answer,
        } => vec![
            ("kind", s("answer")),
            ("member", num(member.0)),
            ("entry", entry_to_json(pattern, answer)),
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
        Record::Skip => Vec::new(),
    };
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
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

/// What a recovery is compared on.
type Seen = Result<
    (
        bool,
        (Option<String>, u32, u64, u32),
        Vec<(u32, QuerySpec, Option<DoneMeta>)>,
        std::collections::BTreeMap<u32, Vec<WireOp>>,
        String,
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
            r.cache.to_json(),
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
            Record::Skip => continue,
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
    for class in [
        "Session", "Query", "Op", "Answer", "Done", "Skip", "Shape", "Tear",
    ] {
        assert!(
            seen.get(class).is_some_and(|&n| n >= 40),
            "{class}: {seen:?}"
        );
    }
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
