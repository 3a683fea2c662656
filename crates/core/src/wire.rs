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
//! [`write_wire_op`]), and a restarted process reads each op straight
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
use ontology::json::{JsonError, Reader, Writer};
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

impl WireOp {
    /// Whether every assignment the op names, its node and a
    /// `NoneOfThese` verdict's options, has `slots` slots: what
    /// [`intern_wire_op`] into a DAG of a query with that many SATISFYING
    /// variables needs.
    pub fn has_slots(&self, slots: usize) -> bool {
        let options: &[Assignment] = match &self.verdict {
            WireVerdict::NoneOfThese { options } => options,
            WireVerdict::Support { .. }
            | WireVerdict::Prune { .. }
            | WireVerdict::NoAnswer
            | WireVerdict::Msp { .. }
            | WireVerdict::Revise { .. } => &[],
        };
        self.node
            .iter()
            .chain(options)
            .all(|a| a.num_slots() == slots)
    }
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

fn write_value(w: &mut Writer, v: Value) {
    let (kind, id) = match v {
        Value::Elem(e) => ("e", e.0),
        Value::Rel(r) => ("r", r.0),
    };
    w.items(|i| {
        i.item().str(kind);
        i.item().u32(id);
    });
}

fn read_value(vocab: &Vocabulary, r: &mut Reader<'_>) -> Result<Value, JsonError> {
    let (kind, id) = r.items("a [kind, id] value", |i| {
        Ok((i.item(Reader::str)?, i.item(Reader::u32)?))
    })?;
    match &*kind {
        "e" => elem_id(vocab, id).map(Value::Elem),
        "r" => rel_id(vocab, id).map(Value::Rel),
        other => Err(JsonError::shape(format!("unknown value kind {other:?}"))),
    }
}

/// `id` as an element of `vocab`; an id past the vocabulary is a shape
/// error, not an index that panics deeper in.
pub(crate) fn elem_id(vocab: &Vocabulary, id: u32) -> Result<ElemId, JsonError> {
    vocab_id(id, vocab.num_elems(), "element").map(ElemId)
}

/// `id` as a relation of `vocab`, checked like [`elem_id`].
pub(crate) fn rel_id(vocab: &Vocabulary, id: u32) -> Result<RelId, JsonError> {
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

/// Writes an assignment for the wire/WAL: per-slot value arrays plus
/// MORE facts, element and relation ids vocabulary-global.
fn write_assignment(w: &mut Writer, a: &Assignment) {
    w.fields(|k| {
        k.next("slots").vec(0..a.num_slots(), |w, si| {
            let slot = a.slot(crate::assignment::Slot(si as u16));
            w.vec(slot.iter().copied(), write_value);
        });
        k.next("more").vec(a.more().iter(), write_fact);
    });
}

/// Reads an assignment written by [`write_assignment`],
/// re-canonicalizing against `vocab` (a no-op for well-formed input —
/// wire assignments are canonical by construction). An element or
/// relation id past `vocab` is a shape error.
fn read_assignment(vocab: &Vocabulary, r: &mut Reader<'_>) -> Result<Assignment, JsonError> {
    r.fields(|k| {
        let slots = k.next("slots", |r| r.vec(|r| r.vec(|r| read_value(vocab, r))))?;
        let more = k.next("more", |r| r.vec(|r| read_fact(vocab, r)))?;
        Ok(Assignment::new(vocab, slots, more))
    })
}

/// Writes a fact as `[s, r, o]`.
pub(crate) fn write_fact(w: &mut Writer, f: &Fact) {
    w.items(|i| {
        i.item().u32(f.subject.0);
        i.item().u32(f.rel.0);
        i.item().u32(f.object.0);
    });
}

/// Reads an `[s, r, o]` fact whose ids are checked against `vocab`.
pub(crate) fn read_fact(vocab: &Vocabulary, r: &mut Reader<'_>) -> Result<Fact, JsonError> {
    r.items("a [s, r, o] fact", |i| {
        Ok(Fact::new(
            elem_id(vocab, i.item(Reader::u32)?)?,
            rel_id(vocab, i.item(Reader::u32)?)?,
            elem_id(vocab, i.item(Reader::u32)?)?,
        ))
    })
}

/// Writes a wire op for the WAL. The verdict is a single-variant
/// object mirroring [`WireVerdict`].
pub fn write_wire_op(w: &mut Writer, op: &WireOp) {
    w.fields(|k| {
        k.next("tick").u32(op.tick);
        k.next("seq").u32(op.seq);
        k.next("member").u32(op.member.0);
        k.next("node").opt(op.node.as_ref(), write_assignment);
        let v = k.next("verdict");
        match &op.verdict {
            WireVerdict::Support { support } => {
                v.variant("Support", |k| k.next("support").f64(*support))
            }
            WireVerdict::NoneOfThese { options } => v.variant("NoneOfThese", |k| {
                k.next("options").vec(options, write_assignment)
            }),
            WireVerdict::Prune { elem } => v.variant("Prune", |k| k.next("elem").u32(elem.0)),
            WireVerdict::NoAnswer => v.variant("NoAnswer", |_| {}),
            WireVerdict::Msp { valid } => v.variant("Msp", |k| k.next("valid").bool(*valid)),
            WireVerdict::Revise { support } => {
                v.variant("Revise", |k| k.next("support").f64(*support))
            }
        }
    });
}

/// Reads a wire op written by [`write_wire_op`] off `r`, building no
/// tree. Its keys come in the order the writer emits them; any other
/// key, order or verdict is a shape error. Every element and relation
/// id is checked against `vocab`: one past it is a shape error.
pub fn read_wire_op(vocab: &Vocabulary, r: &mut Reader<'_>) -> Result<WireOp, JsonError> {
    r.fields(|k| {
        Ok(WireOp {
            tick: k.next("tick", Reader::u32)?,
            seq: k.next("seq", Reader::u32)?,
            member: MemberId(k.next("member", Reader::u32)?),
            node: k.next("node", |r| r.opt(|r| read_assignment(vocab, r)))?,
            verdict: k.next("verdict", |r| read_verdict(vocab, r))?,
        })
    })
}

/// Reads the single-variant verdict object [`write_wire_op`] writes.
fn read_verdict(vocab: &Vocabulary, r: &mut Reader<'_>) -> Result<WireVerdict, JsonError> {
    r.variant(|tag, k| {
        Ok(match tag {
            "Support" => WireVerdict::Support {
                support: k.next("support", Reader::f64)?,
            },
            "NoneOfThese" => WireVerdict::NoneOfThese {
                options: k.next("options", |r| r.vec(|r| read_assignment(vocab, r)))?,
            },
            "Prune" => WireVerdict::Prune {
                elem: k.next("elem", |r| elem_id(vocab, r.u32()?))?,
            },
            "NoAnswer" => WireVerdict::NoAnswer,
            "Msp" => WireVerdict::Msp {
                valid: k.next("valid", Reader::bool)?,
            },
            "Revise" => WireVerdict::Revise {
                support: k.next("support", Reader::f64)?,
            },
            other => {
                return Err(JsonError::shape(format!(
                    "unknown verdict variant {other:?}"
                )))
            }
        })
    })
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
        let text = |op: &WireOp| ontology::json::write(|w| write_wire_op(w, op));
        for op in &ops {
            let text = text(op);
            assert_eq!(&read(&text).unwrap(), op, "{text}");
        }
        // an unknown key, a repeated key and keys out of the writer's
        // order are shape errors naming the key
        let first = text(&ops[0]);
        let open = first.strip_suffix('}').unwrap();
        let head = r#"{"tick":1,"seq":0,"#;
        assert!(first.starts_with(head), "{first}");
        for (key, bad) in [
            ("future_field", format!(r#"{open},"future_field":1}}"#)),
            ("tick", format!(r#"{open},"tick":1}}"#)),
            ("seq", first.replacen(head, r#"{"seq":0,"tick":1,"#, 1)),
        ] {
            let err = read(&bad).unwrap_err();
            assert!(
                !err.is_syntax() && err.to_string().contains(key),
                "{bad}: {err}"
            );
        }
        // a verdict names exactly one known variant, with its own keys
        let text = text(&ops[3]);
        for (from, to) in [
            ("{\"NoAnswer\":{}}", "{\"NoAnswer\":{\"x\":1}}"),
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
