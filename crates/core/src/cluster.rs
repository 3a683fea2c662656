//! # Sharded deployment core: member partitions, wire ops, coordinator merge
//!
//! ROADMAP item "shard crowd members across N logical nodes": the crowd
//! is partitioned by a [`ShardMap`], each node runs its own engine loop
//! over a [`ShardCrowd`] view of its partition (ontology and DAG
//! replicated, member ids staying *global*), and the resulting per-node
//! op logs are shipped — as replica-independent [`WireOp`]s — to a
//! [`Coordinator`] that merges them into one global classification with
//! [`OpLog::replay_merged`] semantics.
//!
//! ## Why the merge is deterministic
//!
//! The canonical `(tick, member, seq)` order of [`crate::oplog`] is a
//! *total* order over any union of per-node streams: ticks are per-node
//! question counters (so they collide across nodes), but every op of a
//! tick belongs to the member who answered it and each member lives on
//! exactly one node — `member` breaks every cross-node tie, and `seq`
//! orders within a tick. Any delivery interleaving therefore sorts to
//! the same sequence, which is what the simulated network in
//! `crates/simtest` exploits: reordering, delay, partition and
//! crash/restart faults can change *when* ops arrive but never what the
//! merge computes.
//!
//! ## Why ops travel as assignments
//!
//! [`NodeId`]s are replica-local: each node materializes its DAG lazily
//! in its own discovery order, so the same assignment gets different ids
//! on different replicas. A [`WireOp`] therefore addresses nodes by
//! [`Assignment`] — content, not index — and the coordinator interns
//! each one into its own replica on receipt ([`Coordinator::merge`]).
//! This is also exactly the *stale-DAG* replay shape of crash recovery:
//! a restarted node re-applies its durable log against a fresh replica
//! whose nodes are materialized at recovery time, long after the ops'
//! ticks.
//!
//! ## Watermark protocol
//!
//! The coordinator applies each node's stream strictly in order: a batch
//! is accepted only where it extends the contiguous received prefix
//! ([`Coordinator::ingest`]), duplicates below the watermark are
//! idempotently ignored, and a gapped batch is rejected outright — the
//! sender's periodic retransmission from its last acked watermark closes
//! the gap. Per-node prefixes are what make faulty merges safe: within
//! one log, an `Msp` op's justifying evidence precedes it, so a prefix
//! can starve a *peer's* MSP claim (handled by the entailment filter in
//! [`OpLog::replay_merged`]) but never deliver a claim without its own
//! node's evidence.

use crate::aggregate::Aggregator;
use crate::assignment::Assignment;
use crate::dag::{Dag, NodeId};
use crate::oplog::{AnswerOp, OpLog, OpVerdict, ReplayOutcome, Watermark};
use crate::vertical::MiningOutcome;
use crowd::{Answer, CrowdSource, MemberId, Question};
use oassis_ql::{BoundQuery, Value};
use ontology::json::{Json, JsonError};
use ontology::{ElemId, Fact, RelId, Vocabulary};

/// A deterministic member → shard-node assignment over `shards` nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// `assign[m]` = shard owning member `m`.
    assign: Vec<u32>,
    shards: u32,
}

impl ShardMap {
    /// Round-robin assignment: member `m` lives on shard `m % shards`.
    pub fn round_robin(members: u32, shards: u32) -> ShardMap {
        let shards = shards.max(1);
        ShardMap {
            assign: (0..members).map(|m| m % shards).collect(),
            shards,
        }
    }

    /// An explicit assignment (`assign[m]` = shard of member `m`);
    /// returns `None` if any entry names a shard `>= shards` or
    /// `shards == 0`. Arbitrary maps — including ones that leave some
    /// shards empty — are legal; the equivalence oracle quantifies over
    /// them.
    pub fn from_assignments(assign: Vec<u32>, shards: u32) -> Option<ShardMap> {
        if shards == 0 || assign.iter().any(|&s| s >= shards) {
            return None;
        }
        Some(ShardMap { assign, shards })
    }

    /// Number of shard nodes.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Number of members in the map.
    pub fn members(&self) -> u32 {
        self.assign.len() as u32
    }

    /// The shard owning `member`.
    pub fn shard_of(&self, member: MemberId) -> u32 {
        self.assign[member.0 as usize] // PANIC-OK: assign is sized to the member universe at construction
    }

    /// The (global) member ids living on `shard`, in id order.
    pub fn members_of(&self, shard: u32) -> Vec<MemberId> {
        self.assign
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == shard)
            .map(|(m, _)| MemberId(m as u32))
            .collect()
    }
}

/// A shard node's view of the crowd: only its own member partition is
/// visible, with ids kept **global** so the ops the node records merge
/// canonically (member is the cross-node tie-breaker of the merge
/// order).
pub struct ShardCrowd<C> {
    inner: C,
    own: Vec<MemberId>,
}

impl<C: CrowdSource> ShardCrowd<C> {
    /// Restricts `inner` to the members `own` (global ids).
    pub fn new(inner: C, own: Vec<MemberId>) -> ShardCrowd<C> {
        ShardCrowd { inner, own }
    }
}

impl<C: CrowdSource> CrowdSource for ShardCrowd<C> {
    fn members(&self) -> Vec<MemberId> {
        let inner: Vec<MemberId> = self.inner.members();
        self.own
            .iter()
            .copied()
            .filter(|m| inner.contains(m))
            .collect()
    }

    fn ask(&mut self, member: MemberId, question: &Question) -> Answer {
        debug_assert!(self.own.contains(&member), "ask outside the partition");
        self.inner.ask(member, question)
    }

    fn questions_asked(&self) -> usize {
        self.inner.questions_asked()
    }

    fn member_has_profile(&self, member: MemberId, label: &str) -> bool {
        self.inner.member_has_profile(member, label)
    }

    fn advance_clock(&mut self, ticks: u64) {
        self.inner.advance_clock(ticks);
    }
}

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

/// One op of a node's durable log in wire form: the `(tick, member,
/// seq)` stamp travels unchanged, nodes travel as assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOp {
    /// Node-local question-counter tick.
    pub tick: u32,
    /// Intra-tick sequence number.
    pub seq: u32,
    /// Global member id (the merge order's cross-node tie-breaker).
    pub member: MemberId,
    /// The op's assignment, `None` for node-less ops (prune/no-answer
    /// and node-less revisions).
    pub node: Option<Assignment>,
    /// The recorded effect.
    pub verdict: WireVerdict,
}

impl WireOp {
    /// The `(tick, seq)` watermark position of this op.
    pub fn watermark(&self) -> Watermark {
        Watermark {
            tick: self.tick,
            seq: self.seq,
        }
    }
}

/// Renders one op in wire form, resolving its node-local [`NodeId`]s
/// against the replica `dag` it was recorded on — the per-op unit of
/// [`to_wire`], used by streaming consumers ([`crate::oplog::OpTap`]
/// implementations) that ship ops before the run's log is finished.
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

/// Renders a node's op log in wire form, resolving the node-local
/// [`NodeId`]s against the replica `dag` the log was recorded on.
pub fn to_wire(log: &OpLog, dag: &Dag<'_>) -> Vec<WireOp> {
    log.ops().iter().map(|op| op_to_wire(op, dag)).collect()
}

fn value_to_json(v: Value) -> Json {
    match v {
        Value::Elem(e) => Json::Arr(vec![Json::Str("e".into()), Json::Num(e.0 as f64)]),
        Value::Rel(r) => Json::Arr(vec![Json::Str("r".into()), Json::Num(r.0 as f64)]),
    }
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

/// Serializes an assignment for the wire/WAL: per-slot value arrays plus
/// MORE facts, element and relation ids vocabulary-global.
pub fn assignment_to_json(a: &Assignment) -> Json {
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

/// Restores an assignment serialized by [`assignment_to_json`],
/// re-canonicalizing against `vocab` (a no-op for well-formed input —
/// wire assignments are canonical by construction).
pub fn assignment_from_json(vocab: &Vocabulary, j: &Json) -> Result<Assignment, JsonError> {
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
        .map(|f| {
            let [s, r, o] = f.as_arr()? else {
                return Err(JsonError::shape("expected a [s, r, o] fact"));
            };
            Ok(Fact::new(
                ElemId(s.as_u32()?),
                RelId(r.as_u32()?),
                ElemId(o.as_u32()?),
            ))
        })
        .collect::<Result<Vec<Fact>, _>>()?;
    Ok(Assignment::new(vocab, values, more))
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

/// Restores a wire op serialized by [`wire_to_json`].
pub fn wire_from_json(vocab: &Vocabulary, j: &Json) -> Result<WireOp, JsonError> {
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
            valid: match body.field("valid")? {
                Json::Bool(b) => *b,
                other => {
                    return Err(JsonError::shape(format!(
                        "expected bool valid, got {other}"
                    )))
                }
            },
        },
        "Revise" => WireVerdict::Revise {
            support: body.field("support")?.as_f64()?,
        },
        other => Err(JsonError::shape(format!(
            "unknown verdict variant {other:?}"
        )))?,
    };
    Ok(WireOp {
        tick: j.field("tick")?.as_u32()?,
        seq: j.field("seq")?.as_u32()?,
        member: MemberId(j.field("member")?.as_u32()?),
        node,
        verdict,
    })
}

/// Interns one wire op into `dag` (assignment → local [`NodeId`]) — the
/// stale-DAG replay shape shared by the coordinator merge and crash
/// recovery: the target replica materializes nodes at intern time, long
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

/// The merge side of the cluster: per-node contiguous op streams,
/// watermark acks, and the final [`OpLog::replay_merged`] into a global
/// classification over the coordinator's own DAG replica.
#[derive(Debug, Clone)]
pub struct Coordinator {
    /// Per-node received prefix (always contiguous from op 0).
    streams: Vec<Vec<WireOp>>,
    threshold: f64,
    aggregated: bool,
    /// Ops accepted into streams (duplicates and gaps excluded).
    merge_ops: u64,
}

impl Coordinator {
    /// A coordinator for `nodes` shard nodes; `threshold` and
    /// `aggregated` are the op-log footer facts of the recording runs
    /// (all nodes share them — the engine configuration is replicated).
    pub fn new(nodes: u32, threshold: f64, aggregated: bool) -> Coordinator {
        Coordinator {
            streams: vec![Vec::new(); nodes as usize],
            threshold,
            aggregated,
            merge_ops: 0,
        }
    }

    /// Ingests a batch of `node`'s log starting at log index `start`.
    ///
    /// Accepts only what extends the contiguous received prefix:
    /// duplicates (fully below the watermark) are ignored, overlapping
    /// batches are deduplicated by position, and a batch that would
    /// leave a gap (`start` beyond the prefix) is rejected — the
    /// sender's retransmission from its acked watermark will close the
    /// gap. Returns the new prefix length (the count acked back to the
    /// node).
    pub fn ingest(&mut self, node: u32, start: usize, ops: &[WireOp]) -> usize {
        let stream = &mut self.streams[node as usize]; // PANIC-OK: streams is sized to the node count at construction
        let have = stream.len();
        if start > have {
            return have; // gap — wait for retransmission
        }
        if start + ops.len() > have {
            let fresh = &ops[have - start..]; // PANIC-OK: have >= start is guaranteed by the watermark check above
            self.merge_ops += fresh.len() as u64;
            stream.extend_from_slice(fresh);
        }
        stream.len()
    }

    /// The contiguous received prefix length for `node` — the ack value.
    pub fn received(&self, node: u32) -> usize {
        self.streams[node as usize].len() // PANIC-OK: streams is sized to the node count at construction
    }

    /// The `(tick, seq)` watermark of `node`'s received prefix — what a
    /// restarted node re-requests to resume sending from the right op.
    pub fn watermark_of(&self, node: u32) -> Watermark {
        self.streams[node as usize] // PANIC-OK: streams is sized to the node count at construction
            .last()
            .map(WireOp::watermark)
            .unwrap_or_default()
    }

    /// Total ops accepted across all streams.
    pub fn merge_ops(&self) -> u64 {
        self.merge_ops
    }

    /// Merges everything received into a global classification: every
    /// wire op is interned into the coordinator's replica `dag`
    /// (assignment → local [`NodeId`]), and the union of streams is
    /// replayed under the canonical `(tick, member, seq)` order with the
    /// merged-mode MSP dedup/entailment rules.
    ///
    /// `complete` is the footer fact for the merged log: whether every
    /// (non-empty) node run completed *and* every stream was fully
    /// received — environmental knowledge the coordinator's caller has
    /// and the ops do not encode.
    pub fn merge<A: Aggregator>(
        &self,
        dag: &mut Dag<'_>,
        aggregator: &A,
        tele: &telemetry::Telemetry,
        complete: bool,
    ) -> ReplayOutcome {
        let span = tele.span("cluster.merge");
        let tele = span.tele().clone();
        let mut ops: Vec<AnswerOp> = Vec::with_capacity(self.merge_ops as usize);
        for stream in &self.streams {
            for w in stream {
                ops.push(intern_wire_op(dag, w));
            }
        }
        tele.count("cluster.merge_ops", ops.len() as u64);
        let mut log = OpLog::new(self.threshold, self.aggregated);
        log.set_complete(complete);
        log.with_ops(ops)
            .replay_merged(dag, aggregator, &minipool::Pool::sequential(), &tele)
    }
}

/// The replica-independent face of a mining outcome: sorted display
/// strings of the MSP sets plus the classified-valid count. Two runs
/// with equal [`SemanticOutcome`]s found the same answer, whatever order
/// they found it in and however their replicas materialized — this is
/// the value the shard-equivalence oracle digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticOutcome {
    /// All MSP displays, sorted.
    pub msps: Vec<String>,
    /// Valid MSP displays (the query answer), sorted.
    pub valid_msps: Vec<String>,
    /// Valid base assignments classified.
    pub total_valid: usize,
    /// Whether the run (or merged run) classified everything.
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

    /// The semantic face of a coordinator merge (or any replay).
    pub fn from_replay(r: &ReplayOutcome, b: &BoundQuery, vocab: &Vocabulary) -> SemanticOutcome {
        SemanticOutcome::build(&r.msps, &r.valid_msps, r.total_valid, r.complete, b, vocab)
    }

    /// The semantic face of a round-driven engine run.
    pub fn from_mining(m: &MiningOutcome, b: &BoundQuery, vocab: &Vocabulary) -> SemanticOutcome {
        SemanticOutcome::build(&m.msps, &m.valid_msps, m.total_valid, m.complete, b, vocab)
    }

    /// FNV-1a digest of the semantic outcome — the cluster golden.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for m in &self.msps {
            fold(m.as_bytes());
            fold(&[0xFF]);
        }
        fold(&[0xFE]);
        for m in &self.valid_msps {
            fold(m.as_bytes());
            fold(&[0xFF]);
        }
        fold(&[0xFE]);
        fold(&(self.total_valid as u64).to_le_bytes());
        fold(&[u8::from(self.complete)]);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::FixedSampleAggregator;
    use crate::multi::run_multi;
    use crate::synth::{plant_msps, synthetic_domain, MspDistribution, PlantedOracle};
    use crate::vertical::MiningConfig;
    use oassis_ql::{bind, evaluate_where, parse, MatchMode};

    #[test]
    fn shard_maps_partition_members() {
        let map = ShardMap::round_robin(8, 4);
        assert_eq!(map.shards(), 4);
        assert_eq!(map.members_of(1), vec![MemberId(1), MemberId(5)]);
        for m in 0..8 {
            assert_eq!(map.shard_of(MemberId(m)), m % 4);
        }
        // arbitrary maps may leave shards empty
        let skewed = ShardMap::from_assignments(vec![2, 2, 2, 0], 3).unwrap();
        assert!(skewed.members_of(1).is_empty());
        assert_eq!(skewed.members_of(2).len(), 3);
        assert!(ShardMap::from_assignments(vec![3], 3).is_none());
        assert!(ShardMap::from_assignments(vec![0], 0).is_none());
    }

    #[test]
    fn coordinator_ingest_is_contiguous_and_idempotent() {
        let wire = |tick: u32, seq: u32| WireOp {
            tick,
            seq,
            member: MemberId(0),
            node: None,
            verdict: WireVerdict::NoAnswer,
        };
        let mut c = Coordinator::new(2, 0.5, true);
        let ops: Vec<WireOp> = (1..=4).map(|t| wire(t, 0)).collect();
        // a gapped batch is rejected outright
        assert_eq!(c.ingest(0, 2, &ops[2..]), 0);
        assert_eq!(c.ingest(0, 0, &ops[..2]), 2);
        // duplicate delivery below the watermark is a no-op
        assert_eq!(c.ingest(0, 0, &ops[..2]), 2);
        // overlap extends only with the fresh suffix
        assert_eq!(c.ingest(0, 1, &ops[1..]), 4);
        assert_eq!(c.merge_ops(), 4);
        assert_eq!(c.received(0), 4);
        assert_eq!(c.received(1), 0);
        assert_eq!(c.watermark_of(0), Watermark { tick: 4, seq: 0 });
        assert_eq!(c.watermark_of(1), Watermark::default());
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
        let ops = vec![
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
                    options: vec![a0.clone(), a1],
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
                node: Some(a0),
                verdict: WireVerdict::Msp { valid: true },
            },
            WireOp {
                tick: 4,
                seq: 0,
                member: MemberId(3),
                node: None,
                verdict: WireVerdict::Revise { support: 0.125 },
            },
        ];
        for op in &ops {
            let text = wire_to_json(op).to_string();
            let back = wire_from_json(vocab, &ontology::json::parse(&text).unwrap()).unwrap();
            assert_eq!(&back, op, "{text}");
        }
        // decoding tolerates unknown fields (frame evolution)
        let mut j = wire_to_json(&ops[0]);
        if let Json::Obj(fields) = &mut j {
            fields.push(("future_field".into(), Json::Str("ignored".into())));
        }
        let back = wire_from_json(vocab, &j).unwrap();
        assert_eq!(back, ops[0]);
    }

    /// Two shards mine their member partitions independently; the
    /// coordinator merge over fresh-replica interning must reproduce the
    /// single-node run's semantic outcome exactly.
    #[test]
    fn sharded_merge_matches_the_single_node_run() {
        let d = synthetic_domain(60, 5, 2);
        let q = parse(&d.query).unwrap();
        let b = bind(&q, &d.ontology).unwrap();
        let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
        let mut full = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        full.materialize_all();
        let planted = plant_msps(&mut full, 4, true, MspDistribution::Uniform, 11);
        let patterns: Vec<_> = planted
            .iter()
            .map(|&id| full.node(id).assignment.apply(&b))
            .collect();
        let agg = FixedSampleAggregator { sample_size: 1 };
        let cfg = MiningConfig {
            specialization_ratio: 0.25,
            seed: 9,
            ..Default::default()
        };
        let members = 4u32;

        // single-node reference over the whole crowd
        let mut ref_dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        let mut ref_crowd =
            PlantedOracle::new(d.ontology.vocab(), patterns.clone(), members as usize, 9);
        let reference = run_multi(&mut ref_dag, &mut ref_crowd, &agg, &cfg);
        let want = SemanticOutcome::from_mining(&reference.mining, &b, d.ontology.vocab());

        // two shard nodes, each mining its partition on its own replica
        let map = ShardMap::round_robin(members, 2);
        let mut coord = Coordinator::new(2, reference.mining.ops.threshold(), true);
        let tele = telemetry::Telemetry::off();
        let mut all_complete = true;
        for node in 0..2u32 {
            let mut dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
            let oracle =
                PlantedOracle::new(d.ontology.vocab(), patterns.clone(), members as usize, 9);
            let mut crowd = ShardCrowd::new(oracle, map.members_of(node));
            let out = run_multi(&mut dag, &mut crowd, &agg, &cfg);
            all_complete &= out.mining.complete;
            let wire = to_wire(&out.mining.ops, &dag);
            let n = wire.len();
            assert_eq!(coord.ingest(node, 0, &wire), n);
        }
        let mut coord_dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        let merged = coord.merge(&mut coord_dag, &agg, &tele, all_complete);
        let got = SemanticOutcome::from_replay(&merged, &b, d.ontology.vocab());
        assert_eq!(got, want);
        assert_eq!(got.digest(), want.digest());
        assert!(got.complete);
    }
}
