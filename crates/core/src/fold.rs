//! # The classification fold — the one writer of shared mining state
//!
//! The inference step of Observation 4.4 and the aggregator vote of
//! Section 4.2 are one state transition: an accepted crowd interaction,
//! as an [`AnswerOp`], is folded into the shared [`Classifier`], the
//! valid-assignment tracker (the Figure-4d curve), the aggregator inbox,
//! the discovery events and the MSP list. [`Fold::apply`] is that
//! transition, and nothing else writes this state.
//!
//! Every engine is a planner around a fold. It picks a question, asks the
//! crowd, makes the DAG changes the answer implies (the *more* button's
//! extended successor, a member's personal descent), then hands the
//! answer to [`Fold::record`], which stamps it as the run's next op and
//! applies it. Replay ([`OpLog::replay`]) is the same fold with no
//! planner: sort the ops canonically, apply each. The one difference is
//! how an MSP claim is taken: an engine asserts it (debug builds), a
//! replay checks it and drops one the replayed evidence does not entail.
//! The permutation and recovery oracles therefore both run the code the
//! engines run.
//!
//! [`Fold::finish`] is the one end-of-run assembly of a
//! [`MiningOutcome`]; [`Fold::into_replay`] is its replay counterpart.

use std::collections::HashMap;

use crate::aggregate::{AggVerdict, Aggregator};
use crate::assignment::Assignment;
use crate::classify::{Class, Classifier};
use crate::dag::{Dag, FxBuildHasher, NodeId};
use crate::manifest::PartialManifest;
use crate::oplog::{AnswerOp, OpLog, OpVerdict, ReplayOutcome};
use crate::vertical::{DiscoveryEvent, DiscoveryKind, MiningOutcome, ValidTracker};
use crowd::MemberId;

/// Who drives a fold, which decides how [`OpVerdict::Msp`] ops are
/// checked and whether replay telemetry is recorded.
#[derive(Clone, Copy)]
pub(crate) enum FoldMode {
    /// A live engine run: MSP claims are debug-asserted against the
    /// folded state; no `oplog.*` telemetry.
    Engine,
    /// Replay of a recorded log (or a crash-cut prefix of one): an MSP
    /// claim survives only if the folded state entails it and no earlier
    /// claim named the node; any other claim is discarded and counted.
    /// Records the `oplog.apply` span, the `oplog.applied` /
    /// `oplog.compensated` / `oplog.msp_discarded` counters and the
    /// `oplog.cone_size` histogram.
    Replay,
}

/// A run's shared classification state and the single transition that
/// changes it.
pub(crate) struct Fold<'a> {
    cls: Classifier,
    tracker: ValidTracker,
    /// The black-box aggregator for multi-user logs; `None` for
    /// single-user logs, where a support answer marks directly against Θ.
    aggregator: Option<&'a dyn Aggregator>,
    /// Aggregator inbox per node (lookup only — never iterated, so the
    /// hash map cannot leak ordering into the outcome).
    inbox: HashMap<NodeId, Vec<(MemberId, f64)>, FxBuildHasher>,
    events: Vec<DiscoveryEvent>,
    msp_ids: Vec<NodeId>,
    log: OpLog,
    mode: FoldMode,
    /// Replay instrumentation; off in [`FoldMode::Engine`].
    replay_tele: telemetry::Telemetry,
    /// Highest tick of any applied op but a revision: the questions the
    /// run has counted.
    questions: usize,
    applied: u64,
    compensated: u64,
    discarded_msps: u64,
}

impl<'a> Fold<'a> {
    /// An empty fold over `dag` with significance threshold `threshold`.
    /// Support ops are routed through `aggregator` when one is given.
    /// `tele` receives the valid tracker's counters (and, outside
    /// [`FoldMode::Engine`], the replay instrumentation).
    pub(crate) fn new(
        dag: &Dag<'_>,
        threshold: f64,
        aggregator: Option<&'a dyn Aggregator>,
        tele: &telemetry::Telemetry,
        mode: FoldMode,
    ) -> Fold<'a> {
        Fold {
            cls: Classifier::new(),
            tracker: ValidTracker::new(dag).with_telemetry(tele.clone()),
            aggregator,
            inbox: HashMap::default(),
            events: Vec::new(),
            msp_ids: Vec::new(),
            log: OpLog::new(threshold, aggregator.is_some()),
            mode,
            replay_tele: match mode {
                FoldMode::Engine => telemetry::Telemetry::off(),
                FoldMode::Replay => tele.clone(),
            },
            questions: 0,
            applied: 0,
            compensated: 0,
            discarded_msps: 0,
        }
    }

    /// The shared classifier, for frozen and cached reads.
    pub(crate) fn classifier(&self) -> &Classifier {
        &self.cls
    }

    /// The shared classifier for lookups that stamp its memo
    /// ([`Classifier::class`]). Knowledge is only ever added by
    /// [`Fold::apply`].
    pub(crate) fn classifier_mut(&mut self) -> &mut Classifier {
        &mut self.cls
    }

    /// A stamping classification lookup.
    pub(crate) fn class(&mut self, dag: &Dag<'_>, id: NodeId) -> Class {
        self.cls.class(dag, id)
    }

    /// Questions counted so far (the tick of the latest question).
    pub(crate) fn questions(&self) -> usize {
        self.questions
    }

    /// The significance threshold Θ.
    pub(crate) fn threshold(&self) -> f64 {
        self.log.threshold()
    }

    /// Confirmed MSPs, in discovery order.
    pub(crate) fn msp_ids(&self) -> &[NodeId] {
        &self.msp_ids
    }

    /// The ops folded so far, in application order.
    pub(crate) fn log(&self) -> &OpLog {
        &self.log
    }

    /// Stamps an answer as the log's next op at `tick` and applies it.
    /// Returns what [`Fold::apply`] returns.
    pub(crate) fn record(
        &mut self,
        dag: &Dag<'_>,
        tick: usize,
        member: MemberId,
        node: NodeId,
        verdict: OpVerdict,
    ) -> bool {
        let op = self.log.stamp(tick, member, node, verdict);
        self.apply(dag, op)
    }

    /// Appends `op` to the log and applies its delta. Returns whether the
    /// op marked its node significant — a decided support vote at or
    /// above Θ — so a planner can fan out the node's children.
    pub(crate) fn apply(&mut self, dag: &Dag<'_>, op: AnswerOp) -> bool {
        let _apply = self.replay_tele.span("oplog.apply");
        let tick = op.tick as usize;
        if !matches!(op.verdict, OpVerdict::Revise { .. }) {
            self.questions = self.questions.max(tick);
        }
        let mut significant = false;
        match &op.verdict {
            OpVerdict::Support { support } => {
                self.count_applied();
                let threshold = self.log.threshold();
                let decided = match self.aggregator {
                    Some(aggregator) => {
                        // Section 4.2: push the vote, consult the black
                        // box, and mark only while the node is Unknown.
                        let entry = self.inbox.entry(op.node).or_default();
                        entry.push((op.member, *support));
                        let verdict = aggregator.verdict(entry, threshold);
                        if verdict == AggVerdict::Undecided
                            || self.cls.class(dag, op.node) != Class::Unknown
                        {
                            None
                        } else {
                            Some(verdict == AggVerdict::Significant)
                        }
                    }
                    // a single user's answer marks directly against Θ
                    None => Some(*support >= threshold),
                };
                if let Some(sig) = decided {
                    significant = sig;
                    if self.witness(dag, op.node, sig) {
                        self.classified_event(tick);
                    }
                }
            }
            OpVerdict::NoneOfThese { options } => {
                self.count_applied();
                let mut changed = false;
                for &o in options {
                    changed |= self.witness(dag, o, false);
                }
                if changed {
                    self.classified_event(tick);
                }
            }
            OpVerdict::Prune { elem } => {
                self.count_applied();
                self.cls.prune_elem(dag, *elem);
                if self.tracker.prune(dag, *elem) {
                    self.classified_event(tick);
                }
            }
            OpVerdict::NoAnswer => self.count_applied(),
            OpVerdict::Msp { valid } => {
                let keep = match self.mode {
                    FoldMode::Engine => {
                        debug_assert!(
                            self.entails_msp(dag, op.node, *valid),
                            "MSP op for {:?} is not entailed by the folded state",
                            op.node
                        );
                        true
                    }
                    // a record on disk is checked, never trusted: a claim
                    // survives only if the folded evidence entails it and
                    // no earlier claim named the node
                    FoldMode::Replay => {
                        self.entails_msp(dag, op.node, *valid) && !self.msp_ids.contains(&op.node)
                    }
                };
                if keep {
                    self.msp_ids.push(op.node);
                    self.events.push(DiscoveryEvent {
                        question: tick,
                        kind: DiscoveryKind::Msp { valid: *valid },
                    });
                } else {
                    self.discarded_msps += 1;
                    self.replay_tele.count("oplog.msp_discarded", 1);
                }
            }
            // First accepted answer wins (the planners never replace one),
            // so a revision compensates to a counted no-op.
            OpVerdict::Revise { .. } => {
                self.compensated += 1;
                self.replay_tele.count("oplog.compensated", 1);
            }
        }
        self.log.push(op);
        significant
    }

    fn count_applied(&mut self) {
        self.applied += 1;
        self.replay_tele.count("oplog.applied", 1);
    }

    /// Marks `node` as a significant or insignificant witness (inferring
    /// its cone) and updates the valid tracker; returns whether more
    /// valid bases became classified.
    fn witness(&mut self, dag: &Dag<'_>, node: NodeId, sig: bool) -> bool {
        let cone = if sig {
            self.cls.mark_significant(dag, node)
        } else {
            self.cls.mark_insignificant(dag, node)
        };
        self.replay_tele.observe("oplog.cone_size", cone as u64);
        self.tracker.witness(dag, node, sig)
    }

    fn classified_event(&mut self, tick: usize) {
        self.events.push(DiscoveryEvent {
            question: tick,
            kind: DiscoveryKind::ValidClassified {
                total: self.tracker.total_classified,
            },
        });
    }

    /// Whether the folded state entails an MSP claim: the node's cone has
    /// an answer (not Unknown), no generated child is significant, and the
    /// claimed validity matches the DAG's.
    fn entails_msp(&self, dag: &Dag<'_>, node: NodeId, valid: bool) -> bool {
        self.cls.class_frozen(dag, node) != Class::Unknown
            && dag.children_if_generated(node).is_none_or(|children| {
                children
                    .iter()
                    .all(|&c| self.cls.class_frozen(dag, c) != Class::Significant)
            })
            && valid == dag.node(node).valid
    }

    /// Materialized nodes still unclassified (a frozen sweep).
    pub(crate) fn undecided(&self, dag: &Dag<'_>) -> usize {
        dag.node_ids()
            .filter(|&id| self.cls.class_frozen(dag, id) == Class::Unknown)
            .count()
    }

    /// All MSPs and the valid ones, in discovery order.
    fn msp_assignments(&self, dag: &Dag<'_>) -> (Vec<Assignment>, Vec<Assignment>) {
        let msps = self
            .msp_ids
            .iter()
            .map(|&id| dag.node(id).assignment.clone())
            .collect();
        let valid_msps = self
            .msp_ids
            .iter()
            .filter(|&&id| dag.node(id).valid)
            .map(|&id| dag.node(id).assignment.clone())
            .collect();
        (msps, valid_msps)
    }

    /// The end-of-run assembly of an engine's outcome. `gave_up` lists the
    /// nodes the retry policy gave up on; those still Unknown go into
    /// `manifest` as unanswered (one a later inference classified is
    /// answered, not missing).
    pub(crate) fn finish(
        self,
        dag: &Dag<'_>,
        complete: bool,
        mut manifest: PartialManifest,
        gave_up: &[NodeId],
        tele: &telemetry::Telemetry,
    ) -> MiningOutcome {
        manifest.unanswered = gave_up
            .iter()
            .copied()
            .filter(|&id| self.cls.class_frozen(dag, id) == Class::Unknown)
            .map(|id| dag.node(id).assignment.clone())
            .collect();
        let (msps, valid_msps) = self.msp_assignments(dag);
        let significant_valid = dag
            .node_ids()
            .filter(|&id| {
                dag.node(id).valid && self.cls.class_frozen(dag, id) == Class::Significant
            })
            .map(|id| dag.node(id).assignment.clone())
            .collect();
        let valid_mult_nodes = dag
            .node_ids()
            .filter(|&id| dag.node(id).valid && !dag.node(id).assignment.is_base())
            .count();
        if tele.is_enabled() {
            let (hits, misses) = self.cls.cache_stats();
            tele.count("classifier.cache_hits", hits);
            tele.count("classifier.cache_misses", misses);
            let gs = dag.stats();
            tele.count("dag.nodes_created", gs.nodes_created as u64);
            tele.count("dag.nodes_expanded", gs.nodes_expanded as u64);
            tele.count("dag.admits_calls", gs.admits_calls as u64);
            tele.count("dag.candidates_admitted", gs.candidates_admitted as u64);
            tele.count("dag.successor_memo_hits", gs.successor_memo_hits as u64);
            tele.count("dag.successor_memo_misses", gs.successor_memo_misses as u64);
            tele.count(
                "validity.bases_classified",
                self.tracker.total_classified as u64,
            );
        }
        let mut ops = self.log;
        ops.set_complete(complete);
        MiningOutcome {
            msps,
            valid_msps,
            significant_valid,
            total_valid: self.tracker.len(),
            valid_mult_nodes,
            questions: self.questions,
            events: self.events,
            gen_stats: dag.stats(),
            nodes_materialized: dag.len(),
            complete,
            manifest,
            ops,
        }
    }

    /// The replay outcome of a fold over the post-run `dag`; `complete`
    /// is the replayed log's footer fact.
    pub(crate) fn into_replay(self, dag: &Dag<'_>, complete: bool) -> ReplayOutcome {
        let undecided = self.undecided(dag);
        let (msps, valid_msps) = self.msp_assignments(dag);
        ReplayOutcome {
            msps,
            valid_msps,
            msp_ids: self.msp_ids,
            questions: self.questions,
            events: self.events,
            total_valid: self.tracker.len(),
            undecided,
            nodes_materialized: dag.len(),
            complete,
            applied: self.applied,
            compensated: self.compensated,
            discarded_msps: self.discarded_msps,
        }
    }
}
