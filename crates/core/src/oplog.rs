//! # Answer-operation log — the record of a run's classification deltas
//!
//! Every *accepted* crowd interaction of a run is an [`AnswerOp`] in the
//! run's [`OpLog`]. The engines do not write classification state
//! themselves: they hand each answer to the classification fold
//! (`crate::fold`), whose single
//! `apply` appends the op here and applies its delta. Replaying a log is
//! the same fold with no planner, so the mining outcome is reproduced by
//! **applying answer deltas in log order** with no question selection, no
//! crowd and no round structure.
//!
//! ## What is recorded
//!
//! One op per *counted* interaction side-effect, stamped with the value of
//! the engine's question counter at the time (`tick`, 1-based — the same
//! number a [`DiscoveryEvent`] carries) and an intra-tick sequence number
//! (`seq`) assigned by [`OpLog::record`]:
//!
//! * [`OpVerdict::Support`] — a support answer for one node: a concrete
//!   answer, a specialization choice, or (multi-user) the implicit
//!   0-support fan-out of a pruning click and the per-option 0-supports of
//!   "none of these". In aggregated logs the op feeds the black-box
//!   [`Aggregator`]; in single-user logs it marks directly against the
//!   threshold.
//! * [`OpVerdict::NoneOfThese`] — the single-user grouped "none of these":
//!   all options marked insignificant as *one* interaction with at most
//!   one discovery event.
//! * [`OpVerdict::Prune`] — a single-user "irrelevant" click: the element
//!   is pruned from the classifier and the valid tracker.
//! * [`OpVerdict::NoAnswer`] — a counted question whose effects were
//!   entirely member-local (multi-user pruning of a *personal*
//!   classifier): no shared-state delta, but the tick must exist so replay
//!   reproduces the question count.
//! * [`OpVerdict::Msp`] — a derived discovery: the engine confirmed the
//!   node as an MSP at this tick. Discovery *timing* is control-flow
//!   dependent (the vertical climb notices late, the baselines' monitor
//!   notices per answer), so it is carried in the log and re-emitted at
//!   its recorded position; the fold asserts the state still entails it
//!   (debug builds).
//! * [`OpVerdict::Revise`] — a *compensating* op: a late or contradictory
//!   re-answer for a node the member already answered (simtest's
//!   contradiction faults). The engines keep the first accepted answer,
//!   so a revision is state-neutral by definition — replay counts it
//!   (`oplog.compensated`) and drops it, which also makes re-delivery
//!   idempotent.
//!
//! ## Merge order
//!
//! The canonical order is **`(tick, member, seq)`**. Ticks are unique per
//! question and every op of a tick belongs to the member who answered it,
//! so within one coordinator's log the order reduces to `(tick, seq)` —
//! exactly the recording order. Replay always sorts first, so applying
//! **any permutation** of the ops converges to the same outcome: this is
//! the differential oracle checked by `crates/simtest`'s permutation
//! harness and `tests/oplog_equivalence.rs`, and the property that lets
//! the per-node logs of a sharded deployment ([`crate::cluster`]) merge
//! deterministically by `member` within a tick.
//!
//! ## Delta-cone invariants
//!
//! Replay folds each op into a fresh classifier and valid tracker over
//! the *post-run* DAG (never materializing new nodes — `&Dag`, not
//! `&mut`). Each mark touches only the ≤-cone of the changed assignment
//! (posting lists + eager propagation); the visited-cone size is reported
//! per op through the `oplog.cone_size` histogram, with
//! `oplog.applied`/`oplog.compensated` counters and an `oplog.apply` span
//! per op. The engines fold through the same code without this
//! instrumentation.

use crate::aggregate::Aggregator;
use crate::assignment::Assignment;
use crate::dag::{Dag, NodeId};
use crate::fold::{Fold, FoldMode};
use crate::vertical::DiscoveryEvent;
use crowd::MemberId;
use ontology::ElemId;

/// What one accepted crowd interaction did to the shared mining state.
#[derive(Debug, Clone, PartialEq)]
pub enum OpVerdict {
    /// A support answer for the op's node (concrete answer, specialization
    /// choice, or multi-user 0-support fan-out).
    Support {
        /// Reported support in `[0, 1]`.
        support: f64,
    },
    /// Single-user grouped "none of these": every option is marked
    /// insignificant as one interaction (at most one discovery event).
    NoneOfThese {
        /// The specialization options declined, in presentation order.
        options: Vec<NodeId>,
    },
    /// A single-user "irrelevant" pruning click on an ontology element.
    Prune {
        /// The pruned element.
        elem: ElemId,
    },
    /// A counted question with no shared-state delta (multi-user pruning
    /// affects only the member's personal classifier).
    NoAnswer,
    /// Derived discovery: the op's node was confirmed as an MSP.
    Msp {
        /// Whether the MSP is valid w.r.t. the query.
        valid: bool,
    },
    /// A compensating re-answer (late/contradictory delivery). The engines
    /// keep the first accepted answer, so this is state-neutral: replay
    /// counts it and drops it, idempotently under re-delivery.
    Revise {
        /// The revised support (recorded for provenance; never applied).
        support: f64,
    },
}

/// A position in one coordinator's op log: the `(tick, seq)` stamp of
/// the last op a consumer has durably applied. The cluster's merge
/// protocol acks batches by watermark, and a restarted node re-requests
/// its peer's position to resume sending from exactly the right op —
/// nothing is lost, and re-delivery below the watermark is idempotent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Watermark {
    /// Tick of the last applied op (0 = nothing applied).
    pub tick: u32,
    /// Intra-tick sequence of the last applied op.
    pub seq: u32,
}

impl Watermark {
    /// The watermark of an op (the position *after* applying it).
    pub fn of(op: &AnswerOp) -> Watermark {
        Watermark {
            tick: op.tick,
            seq: op.seq,
        }
    }
}

/// One entry of the answer-operation log.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerOp {
    /// Engine question-counter value when the op was recorded (1-based;
    /// the same number the run's [`DiscoveryEvent`]s carry).
    pub tick: u32,
    /// Intra-tick application index, assigned by [`OpLog::record`].
    pub seq: u32,
    /// The crowd member whose interaction produced the op.
    pub member: MemberId,
    /// The DAG node the op applies to ([`NodeId::SENTINEL`] for ops that
    /// carry no node, i.e. [`OpVerdict::Prune`] and [`OpVerdict::NoAnswer`]).
    pub node: NodeId,
    /// The recorded effect.
    pub verdict: OpVerdict,
}

/// A streaming consumer of freshly recorded ops — the serving layer's
/// durability hook. The multi-user engine calls [`OpTap::append`] at
/// round boundaries (and once more at run end) with the ops recorded
/// since the previous call and the DAG that resolves their [`NodeId`]s,
/// so a write-ahead log can persist the run *as it progresses*: a crash
/// loses at most the current round, never a flushed one.
pub trait OpTap {
    /// Consumes `ops` (a contiguous, in-order slice of the run's log) in
    /// the context of `dag`. Called on the engine thread; implementations
    /// should hand off quickly (e.g. buffered WAL appends).
    fn append(&self, dag: &Dag<'_>, ops: &[AnswerOp]);
}

/// A cloneable, debuggable handle around a shared [`OpTap`] — the form
/// [`crate::vertical::MiningConfig`] carries (the config is `Clone` +
/// `Debug`; trait objects are neither).
#[derive(Clone)]
pub struct OpTapHandle(std::sync::Arc<dyn OpTap + Send + Sync>);

impl OpTapHandle {
    /// Wraps a tap implementation.
    pub fn new(tap: impl OpTap + Send + Sync + 'static) -> OpTapHandle {
        OpTapHandle(std::sync::Arc::new(tap))
    }

    /// Forwards to the wrapped tap.
    pub fn append(&self, dag: &Dag<'_>, ops: &[AnswerOp]) {
        self.0.append(dag, ops);
    }
}

impl std::fmt::Debug for OpTapHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OpTapHandle(..)")
    }
}

/// The per-run monotone operation log: every accepted answer as an
/// [`AnswerOp`], plus the footer facts replay cannot derive from the ops
/// themselves (threshold, aggregation mode, completion).
#[derive(Debug, Clone)]
pub struct OpLog {
    ops: Vec<AnswerOp>,
    /// Significance threshold Θ the run used.
    threshold: f64,
    /// `true` when `Support` ops must be routed through the black-box
    /// aggregator (multi-user log); `false` for single-user logs, where a
    /// support answer marks directly against the threshold.
    aggregated: bool,
    /// Whether the recording run classified everything. Completion depends
    /// on crowd availability and question budgets — environmental facts
    /// the ops do not encode — so it is carried, not derived.
    complete: bool,
    /// Recording cursor: the tick of the most recently recorded op.
    last_tick: u32,
    /// Recording cursor: next `seq` within `last_tick`.
    next_seq: u32,
}

impl OpLog {
    /// An empty log for a run with significance threshold `threshold`;
    /// `aggregated` selects how replay applies `Support` ops.
    pub fn new(threshold: f64, aggregated: bool) -> OpLog {
        OpLog {
            ops: Vec::new(),
            threshold,
            aggregated,
            complete: false,
            last_tick: 0,
            next_seq: 0,
        }
    }

    /// Appends an op at `tick` (the engine's question counter), assigning
    /// the next intra-tick sequence number.
    pub fn record(&mut self, tick: usize, member: MemberId, node: NodeId, verdict: OpVerdict) {
        let op = self.stamp(tick, member, node, verdict);
        self.push(op);
    }

    /// Builds the op [`OpLog::record`] would append at `tick`, advancing
    /// the intra-tick sequence cursor.
    pub(crate) fn stamp(
        &mut self,
        tick: usize,
        member: MemberId,
        node: NodeId,
        verdict: OpVerdict,
    ) -> AnswerOp {
        let tick = tick as u32;
        if tick != self.last_tick {
            self.last_tick = tick;
            self.next_seq = 0;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        AnswerOp {
            tick,
            seq,
            member,
            node,
            verdict,
        }
    }

    /// Appends an already stamped op.
    pub(crate) fn push(&mut self, op: AnswerOp) {
        self.ops.push(op);
    }

    /// Sets the footer completion flag (known only when the run ends).
    pub fn set_complete(&mut self, complete: bool) {
        self.complete = complete;
    }

    /// The recorded ops, in recording (= canonical) order.
    pub fn ops(&self) -> &[AnswerOp] {
        &self.ops
    }

    /// The `(tick, seq)` watermark of the last recorded op (the position
    /// an up-to-date consumer has acked), or the default zero watermark
    /// for an empty log.
    pub fn watermark(&self) -> Watermark {
        self.ops.last().map(Watermark::of).unwrap_or_default()
    }

    /// The suffix of the log strictly after `from` — what a peer that
    /// acked `from` still needs. Within one log the recording order is
    /// the canonical `(tick, seq)` order, so the suffix is contiguous.
    pub fn ops_after(&self, from: Watermark) -> &[AnswerOp] {
        let start = self
            .ops
            .partition_point(|o| (o.tick, o.seq) <= (from.tick, from.seq));
        &self.ops[start..] // PANIC-OK: start is a watermark previously returned by this log hence <= ops.len()
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the log holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The run's significance threshold Θ.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Whether `Support` ops are aggregated (multi-user log).
    pub fn aggregated(&self) -> bool {
        self.aggregated
    }

    /// Whether the recording run classified everything.
    pub fn complete(&self) -> bool {
        self.complete
    }

    /// The same footer with a replacement op sequence — the permutation
    /// harness's entry point for shuffles and fault injections.
    pub fn with_ops(&self, ops: Vec<AnswerOp>) -> OpLog {
        OpLog {
            ops,
            ..self.clone()
        }
    }

    /// Sorts ops into the canonical `(tick, member, seq)` merge order.
    ///
    /// Ticks are unique per question and all ops of a tick carry the
    /// answering member, so within one log this is exactly the recording
    /// order; `member` is the tie-breaker that makes logs from different
    /// coordinators merge deterministically.
    pub fn canonical_sort(ops: &mut [AnswerOp]) {
        ops.sort_by_key(|o| (o.tick, o.member.0, o.seq));
    }

    /// Replays the log against the post-run `dag`, applying each op as an
    /// incremental classification delta to a fresh classifier/tracker.
    ///
    /// Ops are canonically sorted first, so any permutation of the log
    /// converges to the same outcome. `aggregator` must be the black box
    /// the recording run used (ignored for single-user logs). The DAG is
    /// taken by shared reference: replay never materializes nodes, so
    /// `nodes_materialized` is derived, not re-grown.
    ///
    /// `_pool` is unused: replay runs on the calling thread. The parameter
    /// stays only so that perfbench's `recover` keeps building; ROADMAP
    /// item 4's benchmark PR removes it.
    pub fn replay<A: Aggregator>(
        &self,
        dag: &Dag<'_>,
        aggregator: &A,
        _pool: &minipool::Pool,
        tele: &telemetry::Telemetry,
    ) -> ReplayOutcome {
        self.replay_impl(dag, aggregator, tele, FoldMode::Replay)
    }

    /// The cluster coordinator's merge entry point: replays a log merged
    /// from several nodes' streams, where the single-log invariants the
    /// strict replay asserts can fail legitimately:
    ///
    /// * the same MSP is discovered independently by every shard, so
    ///   `Msp` ops arrive duplicated — the first in canonical order wins;
    /// * under faults a node's `Msp` op can outlive the evidence that
    ///   justified it (a peer's stream was cut by a partition or a
    ///   permanent crash), so each `Msp` op is *entailment-checked*
    ///   against the merged state and silently discarded (counted in
    ///   [`ReplayOutcome::discarded_msps`]) when the evidence is missing.
    ///
    /// Everything else — canonical `(tick, member, seq)` sort, aggregator
    /// routing, delta application — is identical to [`OpLog::replay`],
    /// which is what makes the merge commutative: ticks are per-node
    /// question counters, members belong to exactly one node, and `seq`
    /// orders within a tick, so the sort is a total order over any union
    /// of per-node streams. `_pool` is unused, as in [`OpLog::replay`].
    pub fn replay_merged<A: Aggregator>(
        &self,
        dag: &Dag<'_>,
        aggregator: &A,
        _pool: &minipool::Pool,
        tele: &telemetry::Telemetry,
    ) -> ReplayOutcome {
        self.replay_impl(dag, aggregator, tele, FoldMode::Merged)
    }

    /// Sort, then fold each op: replay is the engines' fold with no
    /// planner.
    fn replay_impl(
        &self,
        dag: &Dag<'_>,
        aggregator: &dyn Aggregator,
        tele: &telemetry::Telemetry,
        mode: FoldMode,
    ) -> ReplayOutcome {
        let span = tele.span("oplog.replay");
        let mut ops = self.ops.clone();
        Self::canonical_sort(&mut ops);
        let mut fold = Fold::new(
            dag,
            self.threshold,
            self.aggregated.then_some(aggregator),
            span.tele(),
            mode,
        );
        for op in ops {
            fold.apply(dag, op);
        }
        fold.into_replay(dag, self.complete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::FixedSampleAggregator;
    use crate::multi::run_multi;
    use crate::synth::{plant_msps, synthetic_domain, MspDistribution, PlantedOracle};
    use crate::vertical::{run_vertical, MiningConfig, MiningOutcome};
    use crowd::{AnswerModel, MemberBehavior, PersonalDb, SimulatedCrowd, SimulatedMember};
    use oassis_ql::{bind, evaluate_where, parse, MatchMode};
    use ontology::domains::figure1;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn assert_replay_matches(replay: &ReplayOutcome, out: &MiningOutcome) {
        assert_eq!(replay.questions, out.questions);
        assert_eq!(replay.events, out.events);
        assert_eq!(replay.msps, out.msps);
        assert_eq!(replay.valid_msps, out.valid_msps);
        assert_eq!(replay.total_valid, out.total_valid);
        assert_eq!(replay.nodes_materialized, out.nodes_materialized);
        assert_eq!(replay.complete, out.complete);
    }

    #[test]
    fn vertical_log_replays_bit_identically() {
        let d = synthetic_domain(80, 5, 0);
        let q = parse(&d.query).unwrap();
        let b = bind(&q, &d.ontology).unwrap();
        let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
        let mut full = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        full.materialize_all();
        let planted = plant_msps(&mut full, 6, true, MspDistribution::Uniform, 7);
        let patterns: Vec<_> = planted
            .iter()
            .map(|&id| full.node(id).assignment.apply(&b))
            .collect();
        let cfg = MiningConfig {
            specialization_ratio: 0.4,
            ..MiningConfig::default()
        };
        let mut dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        let mut oracle = PlantedOracle::new(d.ontology.vocab(), patterns, 1, 0);
        oracle.pruning_prob = 0.3;
        let out = run_vertical(&mut dag, &mut oracle, MemberId(0), &cfg);
        assert!(!out.ops.is_empty());
        let agg = FixedSampleAggregator { sample_size: 1 };
        let pool = minipool::Pool::sequential();
        let replay = out
            .ops
            .replay(&dag, &agg, &pool, &telemetry::Telemetry::off());
        assert_replay_matches(&replay, &out);
        assert_eq!(replay.compensated, 0);
    }

    #[test]
    fn multi_log_replays_any_permutation() {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let [d1, d2] = figure1::personal_dbs(&ont);
        let mut tx = d1;
        for _ in 0..3 {
            tx.extend(d2.iter().cloned());
        }
        let members = (0..2)
            .map(|i| {
                SimulatedMember::new(
                    PersonalDb::from_transactions(tx.clone()),
                    MemberBehavior::default(),
                    AnswerModel::Exact,
                    i,
                )
            })
            .collect();
        let mut crowd = SimulatedCrowd::new(ont.vocab(), members);
        let agg = FixedSampleAggregator { sample_size: 2 };
        let out = run_multi(&mut dag, &mut crowd, &agg, &MiningConfig::default());
        let pool = minipool::Pool::sequential();
        let tele = telemetry::Telemetry::off();
        let ops = &out.mining.ops;
        let replay = ops.replay(&dag, &agg, &pool, &tele);
        assert_replay_matches(&replay, &out.mining);
        assert_eq!(replay.undecided, out.undecided);
        // any shuffle of the ops must converge to the same outcome
        for seed in 0..4u64 {
            let mut shuffled = ops.ops().to_vec();
            shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
            let permuted = ops.with_ops(shuffled).replay(&dag, &agg, &pool, &tele);
            assert_replay_matches(&permuted, &out.mining);
            assert_eq!(permuted.undecided, out.undecided);
        }
    }

    #[test]
    fn watermarks_slice_the_log_into_contiguous_suffixes() {
        let mut log = OpLog::new(0.5, true);
        log.record(
            1,
            MemberId(0),
            NodeId(0),
            OpVerdict::Support { support: 1.0 },
        );
        log.record(
            1,
            MemberId(0),
            NodeId(1),
            OpVerdict::Support { support: 0.0 },
        );
        log.record(2, MemberId(1), NodeId(2), OpVerdict::NoAnswer);
        // zero watermark = the whole log
        assert_eq!(log.ops_after(Watermark::default()), log.ops());
        // mid-tick watermark = the suffix strictly after (1, 0)
        let wm = Watermark { tick: 1, seq: 0 };
        assert_eq!(log.ops_after(wm).len(), 2);
        assert_eq!(log.ops_after(wm)[0].node, NodeId(1));
        // the log's own watermark = nothing left to send
        assert_eq!(log.watermark(), Watermark { tick: 2, seq: 0 });
        assert!(log.ops_after(log.watermark()).is_empty());
        assert_eq!(OpLog::new(0.5, true).watermark(), Watermark::default());
    }

    #[test]
    fn merged_replay_dedupes_and_entails_msp_ops() {
        // Two "shards" over the same world: duplicate the whole log with
        // shifted member ids, as two nodes that independently mined the
        // same planted truth would produce.
        let d = synthetic_domain(80, 5, 1);
        let q = parse(&d.query).unwrap();
        let b = bind(&q, &d.ontology).unwrap();
        let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
        let mut full = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        full.materialize_all();
        let planted = plant_msps(&mut full, 5, true, MspDistribution::Uniform, 3);
        let patterns: Vec<_> = planted
            .iter()
            .map(|&id| full.node(id).assignment.apply(&b))
            .collect();
        let mut dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        let mut oracle = PlantedOracle::new(d.ontology.vocab(), patterns, 1, 5);
        let agg = FixedSampleAggregator { sample_size: 1 };
        let out = run_multi(&mut dag, &mut oracle, &agg, &MiningConfig::default());
        let pool = minipool::Pool::sequential();
        let tele = telemetry::Telemetry::off();
        let ops = &out.mining.ops;
        let single = ops.replay(&dag, &agg, &pool, &tele);

        let mut doubled = ops.ops().to_vec();
        doubled.extend(ops.ops().iter().map(|o| AnswerOp {
            member: MemberId(o.member.0 + 1),
            ..o.clone()
        }));
        let merged = ops
            .with_ops(doubled)
            .replay_merged(&dag, &agg, &pool, &tele);
        // every duplicated MSP claim collapses to one discovery
        assert_eq!(merged.msps, single.msps);
        assert_eq!(merged.valid_msps, single.valid_msps);
        assert_eq!(merged.total_valid, single.total_valid);
        assert_eq!(merged.discarded_msps, single.msps.len() as u64);

        // an MSP claim whose evidence never arrived is discarded, not
        // trusted: keep only the Msp ops and drop all answers
        let orphans: Vec<AnswerOp> = ops
            .ops()
            .iter()
            .filter(|o| matches!(o.verdict, OpVerdict::Msp { .. }))
            .cloned()
            .collect();
        let n_orphans = orphans.len() as u64;
        assert!(n_orphans > 0);
        let starved = ops
            .with_ops(orphans)
            .replay_merged(&dag, &agg, &pool, &tele);
        assert!(starved.msps.is_empty());
        assert_eq!(starved.discarded_msps, n_orphans);
    }

    #[test]
    fn revise_ops_are_idempotent_compensations() {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let [d1, _] = figure1::personal_dbs(&ont);
        let members = vec![SimulatedMember::new(
            PersonalDb::from_transactions(d1),
            MemberBehavior::default(),
            AnswerModel::Exact,
            0,
        )];
        let mut crowd = SimulatedCrowd::new(ont.vocab(), members);
        let agg = FixedSampleAggregator { sample_size: 1 };
        let out = run_multi(&mut dag, &mut crowd, &agg, &MiningConfig::default());
        let pool = minipool::Pool::sequential();
        let tele = telemetry::Telemetry::off();
        let ops = &out.mining.ops;
        let baseline = ops.replay(&dag, &agg, &pool, &tele);
        // a contradictory re-answer arrives late — and is delivered twice
        let first = ops.ops().first().expect("run recorded ops").clone();
        let mut with_revision = ops.ops().to_vec();
        for _ in 0..2 {
            with_revision.push(AnswerOp {
                tick: first.tick,
                seq: with_revision.len() as u32 + 100,
                member: first.member,
                node: first.node,
                verdict: OpVerdict::Revise { support: 0.0 },
            });
        }
        let revised = ops.with_ops(with_revision).replay(&dag, &agg, &pool, &tele);
        assert_eq!(revised.compensated, 2);
        assert_eq!(revised.applied, baseline.applied);
        assert_eq!(revised.questions, baseline.questions);
        assert_eq!(revised.events, baseline.events);
        assert_eq!(revised.msps, baseline.msps);
        assert_eq!(revised.undecided, baseline.undecided);
        assert_eq!(revised.total_valid, baseline.total_valid);
    }
}

/// The outcome of replaying an [`OpLog`]: the digest-bearing fields of a
/// mining run, re-derived from answer deltas alone.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// All MSPs, in discovery order (from the carried [`OpVerdict::Msp`]
    /// ops).
    pub msps: Vec<Assignment>,
    /// The valid MSPs — the query answer.
    pub valid_msps: Vec<Assignment>,
    /// The MSP node ids, in discovery order.
    // audit: allow(D8, derived 1:1 from msps which the digest already folds)
    pub msp_ids: Vec<NodeId>,
    /// Questions the recording run counted (distinct non-revise ticks).
    pub questions: usize,
    /// Discovery events, bit-identical to the recording run's.
    pub events: Vec<DiscoveryEvent>,
    /// Valid base assignments classified by the end of the run.
    pub total_valid: usize,
    /// Materialized nodes still unclassified under the final knowledge.
    pub undecided: usize,
    /// Nodes the recording run materialized (replay never grows the DAG).
    pub nodes_materialized: usize,
    /// Carried from the log footer (environmental, not derivable).
    pub complete: bool,
    /// Ops applied (everything but revisions).
    // audit: allow(D8, replay-cost instrumentation; not part of the semantic outcome replicas compare)
    pub applied: u64,
    /// Compensating revisions dropped under first-answer-wins.
    // audit: allow(D8, replay-cost instrumentation; not part of the semantic outcome replicas compare)
    pub compensated: u64,
    /// Merged-mode only: `Msp` ops discarded as duplicates (every shard
    /// discovers the same MSP) or as unentailed by the merged evidence
    /// (their justifying stream was cut by a fault). Always 0 for
    /// [`OpLog::replay`].
    // audit: allow(D8, merge bookkeeping that varies with shard count by design; the folded msps/events prove equivalence)
    pub discarded_msps: u64,
}
