//! # Wire ops: replica-portable answer operations and their JSON codec
//!
//! An [`AnswerOp`] names its nodes by [`NodeId`], and node ids are
//! replica-local: a DAG materializes lazily, in its own discovery order,
//! so the same assignment gets different ids on different replicas. A
//! [`WireOp`] therefore addresses nodes by [`Assignment`] — content, not
//! index — and the `(tick, member, seq)` stamp travels unchanged.
//!
//! This is what crash recovery needs: the server appends each op of a
//! run to its write-ahead log as a wire op ([`op_to_wire`] +
//! [`wire_to_json`]), and a restarted process reads each op straight
//! off the log's text ([`read_wire_op`], no JSON tree between) and
//! interns every op into a *fresh* replica
//! ([`intern_wire_op`]) whose nodes are materialized at recovery time,
//! long after the ops' ticks — the stale-DAG replay shape
//! [`OpLog::replay`](crate::oplog::OpLog::replay) folds.
//! [`SemanticOutcome`] is the replica-independent value recovery checks
//! against the digest recorded before the crash.

use crate::assignment::Assignment;
use crate::dag::{Dag, NodeId};
use crate::digest::Fnv;
use crate::oplog::{AnswerOp, OpVerdict, ReplayOutcome};
use crate::vertical::MiningOutcome;
use crowd::MemberId;
use oassis_ql::{BoundQuery, Value};
use ontology::json::{Json, JsonError, Reader};
use ontology::{ElemId, Fact, RelId, Vocabulary};

/// [`OpVerdict`] with nodes addressed by assignment — replica-portable.
#[derive(Debug, Clone, PartialEq)]
pub enum WireVerdict {
    /// A support answer for the op's assignment.
    Support {
        /// Reported support in `[0, 1]`.
        support: f64,
    },
    /// Grouped "none of these" over the declined options.
    NoneOfThese {
        /// The declined options, in presentation order.
        options: Vec<Assignment>,
    },
    /// An "irrelevant" pruning click (element ids are vocabulary-global,
    /// so they travel as-is).
    Prune {
        /// The pruned element.
        elem: ElemId,
    },
    /// A counted question with no shared-state delta.
    NoAnswer,
    /// A confirmed MSP discovery.
    Msp {
        /// Whether the MSP is valid w.r.t. the query.
        valid: bool,
    },
    /// A compensating re-answer (state-neutral, kept for provenance).
    Revise {
        /// The revised support (never applied).
        support: f64,
    },
}

/// One op of a run's durable log in wire form: the `(tick, member,
/// seq)` stamp travels unchanged, nodes travel as assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOp {
    /// Question-counter tick of the recording run.
    pub tick: u32,
    /// Intra-tick sequence number.
    pub seq: u32,
    /// The answering member.
    pub member: MemberId,
    /// The op's assignment, `None` for node-less ops (prune/no-answer
    /// and node-less revisions).
    pub node: Option<Assignment>,
    /// The recorded effect.
    pub verdict: WireVerdict,
}

/// Renders one op in wire form, resolving its replica-local [`NodeId`]s
/// against the `dag` it was recorded on. Streaming consumers
/// ([`crate::oplog::OpTap`] implementations) call it per op, before the
/// run's log is finished.
pub fn op_to_wire(op: &AnswerOp, dag: &Dag<'_>) -> WireOp {
    let assignment = |id: NodeId| -> Option<Assignment> {
        (id != NodeId::SENTINEL).then(|| dag.node(id).assignment.clone())
    };
    let verdict = match &op.verdict {
        OpVerdict::Support { support } => WireVerdict::Support { support: *support },
        OpVerdict::NoneOfThese { options } => WireVerdict::NoneOfThese {
            options: options
                .iter()
                .map(|&o| dag.node(o).assignment.clone())
                .collect(),
        },
        OpVerdict::Prune { elem } => WireVerdict::Prune { elem: *elem },
        OpVerdict::NoAnswer => WireVerdict::NoAnswer,
        OpVerdict::Msp { valid } => WireVerdict::Msp { valid: *valid },
        OpVerdict::Revise { support } => WireVerdict::Revise { support: *support },
    };
    WireOp {
        tick: op.tick,
        seq: op.seq,
        member: op.member,
        node: assignment(op.node),
        verdict,
    }
}

fn value_to_json(v: Value) -> Json {
    match v {
        Value::Elem(e) => Json::Arr(vec![Json::Str("e".into()), Json::Num(e.0 as f64)]),
        Value::Rel(r) => Json::Arr(vec![Json::Str("r".into()), Json::Num(r.0 as f64)]),
    }
}

fn read_value(vocab: &Vocabulary, r: &mut Reader<'_>) -> Result<Value, JsonError> {
    let (kind, id) = r.pair("a [kind, id] value", Reader::str, Reader::u32)?;
    match &*kind {
        "e" => elem_id(vocab, id).map(Value::Elem),
        "r" => rel_id(vocab, id).map(Value::Rel),
        other => Err(JsonError::shape(format!("unknown value kind {other:?}"))),
    }
}

/// `id` as an element of `vocab`; an id past the vocabulary is a shape
/// error, not an index that panics deeper in.
fn elem_id(vocab: &Vocabulary, id: u32) -> Result<ElemId, JsonError> {
    vocab_id(id, vocab.num_elems(), "element").map(ElemId)
}

/// `id` as a relation of `vocab`, checked like [`elem_id`].
fn rel_id(vocab: &Vocabulary, id: u32) -> Result<RelId, JsonError> {
    vocab_id(id, vocab.num_rels(), "relation").map(RelId)
}

fn vocab_id(id: u32, len: usize, what: &str) -> Result<u32, JsonError> {
    if (id as usize) < len {
        Ok(id)
    } else {
        Err(JsonError::shape(format!(
            "{what} id {id} is past the vocabulary's {len}"
        )))
    }
}

/// Serializes an assignment for the wire/WAL: per-slot value arrays plus
/// MORE facts, element and relation ids vocabulary-global.
fn assignment_to_json(a: &Assignment) -> Json {
    let slots = (0..a.num_slots())
        .map(|si| {
            Json::Arr(
                a.slot(crate::assignment::Slot(si as u16))
                    .iter()
                    .map(|&v| value_to_json(v))
                    .collect(),
            )
        })
        .collect();
    let more = a
        .more()
        .iter()
        .map(|f| {
            Json::Arr(vec![
                Json::Num(f.subject.0 as f64),
                Json::Num(f.rel.0 as f64),
                Json::Num(f.object.0 as f64),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("slots".into(), Json::Arr(slots)),
        ("more".into(), Json::Arr(more)),
    ])
}

/// Reads an assignment serialized by [`assignment_to_json`],
/// re-canonicalizing against `vocab` (a no-op for well-formed input —
/// wire assignments are canonical by construction). An element or
/// relation id past `vocab` is a shape error.
fn read_assignment(vocab: &Vocabulary, r: &mut Reader<'_>) -> Result<Assignment, JsonError> {
    let (mut slots, mut more) = (None, None);
    // unknown keys are skipped, and the first of two equal keys wins
    r.obj(|r, key| match &*key {
        "slots" if slots.is_none() => {
            slots = Some(r.vec(|r| r.vec(|r| read_value(vocab, r)))?);
            Ok(())
        }
        "more" if more.is_none() => {
            more = Some(r.vec(|r| {
                let [s, rel, o] = r.array("a [s, r, o] fact", Reader::u32)?;
                Ok(Fact::new(
                    elem_id(vocab, s)?,
                    rel_id(vocab, rel)?,
                    elem_id(vocab, o)?,
                ))
            })?);
            Ok(())
        }
        _ => r.skip(),
    })?;
    let slots = slots.ok_or_else(|| JsonError::missing("slots"))?;
    let more = more.ok_or_else(|| JsonError::missing("more"))?;
    Ok(Assignment::new(vocab, slots, more))
}

/// Serializes a wire op for the WAL / wire protocol. The verdict is a
/// single-variant object mirroring [`WireVerdict`]; decoders ignore
/// fields they don't know, so frames can grow.
pub fn wire_to_json(op: &WireOp) -> Json {
    let verdict = match &op.verdict {
        WireVerdict::Support { support } => Json::Obj(vec![(
            "Support".into(),
            Json::Obj(vec![("support".into(), Json::Num(*support))]),
        )]),
        WireVerdict::NoneOfThese { options } => Json::Obj(vec![(
            "NoneOfThese".into(),
            Json::Obj(vec![(
                "options".into(),
                Json::Arr(options.iter().map(assignment_to_json).collect()),
            )]),
        )]),
        WireVerdict::Prune { elem } => Json::Obj(vec![(
            "Prune".into(),
            Json::Obj(vec![("elem".into(), Json::Num(elem.0 as f64))]),
        )]),
        WireVerdict::NoAnswer => Json::Obj(vec![("NoAnswer".into(), Json::Obj(vec![]))]),
        WireVerdict::Msp { valid } => Json::Obj(vec![(
            "Msp".into(),
            Json::Obj(vec![("valid".into(), Json::Bool(*valid))]),
        )]),
        WireVerdict::Revise { support } => Json::Obj(vec![(
            "Revise".into(),
            Json::Obj(vec![("support".into(), Json::Num(*support))]),
        )]),
    };
    Json::Obj(vec![
        ("tick".into(), Json::Num(op.tick as f64)),
        ("seq".into(), Json::Num(op.seq as f64)),
        ("member".into(), Json::Num(op.member.0 as f64)),
        (
            "node".into(),
            op.node.as_ref().map_or(Json::Null, assignment_to_json),
        ),
        ("verdict".into(), verdict),
    ])
}

/// Reads a wire op serialized by [`wire_to_json`] off `r`, building no
/// tree. Unknown keys are skipped (frames can grow), and the first of two
/// equal keys wins. Every element and relation id is checked against
/// `vocab`: one past it is a shape error.
pub fn read_wire_op(vocab: &Vocabulary, r: &mut Reader<'_>) -> Result<WireOp, JsonError> {
    let (mut tick, mut seq, mut member, mut node, mut verdict) = (None, None, None, None, None);
    r.obj(|r, key| {
        match &*key {
            "tick" if tick.is_none() => tick = Some(r.u32()?),
            "seq" if seq.is_none() => seq = Some(r.u32()?),
            "member" if member.is_none() => member = Some(MemberId(r.u32()?)),
            "node" if node.is_none() => node = Some(r.opt(|r| read_assignment(vocab, r))?),
            "verdict" if verdict.is_none() => verdict = Some(read_verdict(vocab, r)?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(WireOp {
        tick: tick.ok_or_else(|| JsonError::missing("tick"))?,
        seq: seq.ok_or_else(|| JsonError::missing("seq"))?,
        member: member.ok_or_else(|| JsonError::missing("member"))?,
        node: node.ok_or_else(|| JsonError::missing("node"))?,
        verdict: verdict.ok_or_else(|| JsonError::missing("verdict"))?,
    })
}

/// Reads the single-variant verdict object [`wire_to_json`] writes.
fn read_verdict(vocab: &Vocabulary, r: &mut Reader<'_>) -> Result<WireVerdict, JsonError> {
    let single = || JsonError::shape("expected a single-variant verdict object");
    let mut verdict = None;
    r.obj(|r, tag| {
        if verdict.is_some() {
            return Err(single());
        }
        verdict = Some(match &*tag {
            "Support" => WireVerdict::Support {
                support: r.field("support", Reader::f64)?,
            },
            "NoneOfThese" => WireVerdict::NoneOfThese {
                options: r.field("options", |r| r.vec(|r| read_assignment(vocab, r)))?,
            },
            "Prune" => WireVerdict::Prune {
                elem: r.field("elem", |r| elem_id(vocab, r.u32()?))?,
            },
            "NoAnswer" => {
                r.skip()?;
                WireVerdict::NoAnswer
            }
            "Msp" => WireVerdict::Msp {
                valid: r.field("valid", Reader::bool)?,
            },
            "Revise" => WireVerdict::Revise {
                support: r.field("support", Reader::f64)?,
            },
            other => {
                return Err(JsonError::shape(format!(
                    "unknown verdict variant {other:?}"
                )))
            }
        });
        Ok(())
    })?;
    verdict.ok_or_else(single)
}

/// Interns one wire op into `dag` (assignment → local [`NodeId`]) — the
/// stale-DAG replay shape of crash recovery: the target replica materializes nodes at intern time, long
/// after the op's tick.
pub fn intern_wire_op(dag: &mut Dag<'_>, w: &WireOp) -> AnswerOp {
    let node = w
        .node
        .as_ref()
        .map(|a| dag.intern(a.clone()))
        .unwrap_or(NodeId::SENTINEL);
    let verdict = match &w.verdict {
        WireVerdict::Support { support } => OpVerdict::Support { support: *support },
        WireVerdict::NoneOfThese { options } => OpVerdict::NoneOfThese {
            options: options.iter().map(|a| dag.intern(a.clone())).collect(),
        },
        WireVerdict::Prune { elem } => OpVerdict::Prune { elem: *elem },
        WireVerdict::NoAnswer => OpVerdict::NoAnswer,
        WireVerdict::Msp { valid } => OpVerdict::Msp { valid: *valid },
        WireVerdict::Revise { support } => OpVerdict::Revise { support: *support },
    };
    AnswerOp {
        tick: w.tick,
        seq: w.seq,
        member: w.member,
        node,
        verdict,
    }
}

/// The replica-independent face of a mining outcome: sorted display
/// strings of the MSP sets plus the classified-valid count. Two runs
/// with equal [`SemanticOutcome`]s found the same answer, whatever order
/// they found it in and however their replicas materialized — this is
/// the value crash recovery digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticOutcome {
    /// All MSP displays, sorted.
    pub msps: Vec<String>,
    /// Valid MSP displays (the query answer), sorted.
    pub valid_msps: Vec<String>,
    /// Valid base assignments classified.
    pub total_valid: usize,
    /// Whether the run (or replayed run) classified everything.
    pub complete: bool,
}

impl SemanticOutcome {
    fn build(
        msps: &[Assignment],
        valid_msps: &[Assignment],
        total_valid: usize,
        complete: bool,
        b: &BoundQuery,
        vocab: &Vocabulary,
    ) -> SemanticOutcome {
        let disp = |a: &Assignment| a.apply(b).to_display(vocab);
        let mut msps: Vec<String> = msps.iter().map(disp).collect();
        msps.sort();
        let mut valid: Vec<String> = valid_msps.iter().map(disp).collect();
        valid.sort();
        SemanticOutcome {
            msps,
            valid_msps: valid,
            total_valid,
            complete,
        }
    }

    /// The semantic face of a replay.
    pub fn from_replay(r: &ReplayOutcome, b: &BoundQuery, vocab: &Vocabulary) -> SemanticOutcome {
        SemanticOutcome::build(&r.msps, &r.valid_msps, r.total_valid, r.complete, b, vocab)
    }

    /// The semantic face of a round-driven engine run.
    pub fn from_mining(m: &MiningOutcome, b: &BoundQuery, vocab: &Vocabulary) -> SemanticOutcome {
        SemanticOutcome::build(&m.msps, &m.valid_msps, m.total_valid, m.complete, b, vocab)
    }

    /// FNV-1a digest of the semantic outcome — what a WAL `done` footer
    /// records and recovery must reproduce.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for m in &self.msps {
            h.bytes(m.as_bytes());
            h.bytes(&[0xFF]);
        }
        h.bytes(&[0xFE]);
        for m in &self.valid_msps {
            h.bytes(m.as_bytes());
            h.bytes(&[0xFF]);
        }
        h.bytes(&[0xFE]);
        h.word(self.total_valid);
        h.bytes(&[u8::from(self.complete)]);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthetic_domain;
    use oassis_ql::{bind, evaluate_where, parse, MatchMode};

    /// One wire op of every verdict kind over two assignments.
    fn every_verdict(a0: &Assignment, a1: &Assignment) -> Vec<WireOp> {
        vec![
            WireOp {
                tick: 1,
                seq: 0,
                member: MemberId(2),
                node: Some(a0.clone()),
                verdict: WireVerdict::Support { support: 1.0 / 3.0 },
            },
            WireOp {
                tick: 1,
                seq: 1,
                member: MemberId(2),
                node: None,
                verdict: WireVerdict::NoneOfThese {
                    options: vec![a0.clone(), a1.clone()],
                },
            },
            WireOp {
                tick: 2,
                seq: 0,
                member: MemberId(0),
                node: None,
                verdict: WireVerdict::Prune { elem: ElemId(3) },
            },
            WireOp {
                tick: 3,
                seq: 0,
                member: MemberId(1),
                node: None,
                verdict: WireVerdict::NoAnswer,
            },
            WireOp {
                tick: 3,
                seq: 1,
                member: MemberId(1),
                node: Some(a0.clone()),
                verdict: WireVerdict::Msp { valid: true },
            },
            WireOp {
                tick: 4,
                seq: 0,
                member: MemberId(3),
                node: None,
                verdict: WireVerdict::Revise { support: 0.125 },
            },
        ]
    }

    /// Every wire-op verdict survives the JSON round trip bit-identically
    /// (assignments re-canonicalize to themselves, floats are exact).
    #[test]
    fn wire_ops_roundtrip_through_json() {
        let d = synthetic_domain(30, 4, 2);
        let q = parse(&d.query).unwrap();
        let b = bind(&q, &d.ontology).unwrap();
        let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
        let mut dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        dag.materialize_all();
        let vocab = d.ontology.vocab();
        let a0 = dag.node(crate::dag::NodeId(0)).assignment.clone();
        let a1 = dag.node(crate::dag::NodeId(1)).assignment.clone();
        let ops = every_verdict(&a0, &a1);
        let read = |text: &str| {
            let mut r = Reader::new(text);
            let op = read_wire_op(vocab, &mut r)?;
            r.end().map(|()| op)
        };
        for op in &ops {
            let text = wire_to_json(op).to_string();
            assert_eq!(&read(&text).unwrap(), op, "{text}");
        }
        // decoding tolerates unknown fields (frame evolution) and keeps
        // the first of two equal keys
        let mut j = wire_to_json(&ops[0]);
        if let Json::Obj(fields) = &mut j {
            fields.push(("future_field".into(), Json::Str("ignored".into())));
            fields.push(("tick".into(), Json::Str("not a tick".into())));
        }
        assert_eq!(read(&j.to_string()).unwrap(), ops[0]);
        // a verdict names exactly one known variant
        let text = wire_to_json(&ops[3]).to_string();
        for (from, to) in [
            ("{\"NoAnswer\":{}}", "{}"),
            (
                "{\"NoAnswer\":{}}",
                "{\"NoAnswer\":{},\"Msp\":{\"valid\":true}}",
            ),
            ("{\"NoAnswer\":{}}", "{\"Maybe\":{}}"),
            ("\"tick\":3", "\"tick\":-3"),
        ] {
            let bad = text.replace(from, to);
            assert_ne!(bad, text);
            let err = read(&bad).unwrap_err();
            assert!(!err.is_syntax(), "{bad}: {err}");
        }
    }

    /// An element or relation id past the vocabulary, in a slot value,
    /// a MORE fact or a `Prune` verdict, is a shape error: it never
    /// reaches `Assignment::new` or an intern, which would index past
    /// the vocabulary and panic.
    #[test]
    fn ids_past_the_vocabulary_are_shape_errors() {
        let d = synthetic_domain(30, 4, 2);
        let vocab = d.ontology.vocab();
        let (elems, rels) = (vocab.num_elems() as u32, vocab.num_rels() as u32);
        let op = |node: &str, verdict: &str| {
            format!(r#"{{"tick":1,"seq":0,"member":0,"node":{node},"verdict":{verdict}}}"#)
        };
        let node = |slots: &str, more: &str| format!(r#"{{"slots":{slots},"more":{more}}}"#);
        let support = r#"{"Support":{"support":0.5}}"#;
        let read = |text: &str| read_wire_op(vocab, &mut Reader::new(text));
        // the last id in range reads
        let last = op(
            &node(
                &format!(r#"[[["e",{}]],[["r",{}]]]"#, elems - 1, rels - 1),
                &format!("[[0,{},{}]]", rels - 1, elems - 1),
            ),
            support,
        );
        read(&last).unwrap();
        let prune = |elem: u32| op("null", &format!(r#"{{"Prune":{{"elem":{elem}}}}}"#));
        read(&prune(elems - 1)).unwrap();
        for bad in [
            op(&node(&format!(r#"[[["e",{elems}]]]"#), "[]"), support),
            op(&node(r#"[[["e",4000000000]]]"#, "[]"), support),
            op(&node(&format!(r#"[[["r",{rels}]]]"#), "[]"), support),
            op(&node("[]", &format!("[[{elems},0,0]]")), support),
            op(&node("[]", &format!("[[0,{rels},0]]")), support),
            op(&node("[]", "[[0,0,4000000000]]"), support),
            op(
                "null",
                &format!(
                    r#"{{"NoneOfThese":{{"options":[{}]}}}}"#,
                    node("[]", &format!("[[{elems},0,0]]"))
                ),
            ),
            prune(elems),
        ] {
            let err = read(&bad).unwrap_err();
            assert!(
                !err.is_syntax() && err.msg.contains("past the vocabulary"),
                "{bad}: {err}"
            );
        }
    }

    /// Interning a wire op into a fresh replica and rendering it back is
    /// the identity: the recovery path (`intern_wire_op` into a cold DAG)
    /// loses no verdict field, whatever replica the op was recorded on.
    #[test]
    fn wire_ops_roundtrip_through_a_fresh_replica() {
        let d = synthetic_domain(30, 4, 2);
        let q = parse(&d.query).unwrap();
        let b = bind(&q, &d.ontology).unwrap();
        let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
        let mut dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        dag.materialize_all();
        let a0 = dag.node(crate::dag::NodeId(0)).assignment.clone();
        let a1 = dag.node(crate::dag::NodeId(1)).assignment.clone();
        let mut fresh = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        for op in every_verdict(&a0, &a1) {
            let local = intern_wire_op(&mut fresh, &op);
            assert_eq!(op_to_wire(&local, &fresh), op);
        }
    }
}
