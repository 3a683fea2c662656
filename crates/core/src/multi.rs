//! The multi-user evaluation engine (Section 4.2) — the paper's
//! `QueueManager`.
//!
//! Each crowd member traverses the assignments in the same top-down order
//! as the single-user algorithm, "but inferences are done based on the
//! globally collected knowledge":
//!
//! 1. the per-member loop can terminate at any point (members leave);
//! 2. answers are recorded per assignment;
//! 3. significance is decided by a black-box [`Aggregator`];
//! 4. a member is only asked about successors of φ if φ is significant
//!    *for them* and not overall insignificant;
//! 5. an assignment joins the output when it becomes an overall MSP.
//!
//! Members start their traversal "from the overall most general
//! assignment (even if it is already classified)" and navigate to a
//! minimal unclassified one — when a general assignment is insignificant
//! for a member, its typically many successors are pruned *for that user*.

use crate::aggregate::Aggregator;
use crate::baselines::MspMonitor;
use crate::classify::{insert_elem, Class, Classifier, MemberRecord};
use crate::dag::{Dag, NodeId};
use crate::fold::{Fold, FoldMode};
use crate::manifest::{ask_with_retry, PartialManifest};
use crate::oplog::OpVerdict;
use crate::vertical::{MiningConfig, MiningOutcome};
use crowd::{Answer, CrowdSource, MemberId, Question};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};

/// Question-type bookkeeping (the answer-mix statistics of Section 6.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuestionStats {
    /// Concrete questions answered with a support value.
    pub concrete: usize,
    /// Specialization questions answered with a chosen option.
    pub specialization: usize,
    /// Specialization questions answered "none of these".
    pub none_of_these: usize,
    /// User-guided pruning clicks.
    pub pruning: usize,
}

impl QuestionStats {
    /// Total answered questions.
    pub fn total(&self) -> usize {
        self.concrete + self.specialization + self.none_of_these + self.pruning
    }
}

/// Outcome of a multi-user run.
#[derive(Debug)]
pub struct MultiOutcome {
    /// The shared mining outcome (MSPs, questions, events, …).
    pub mining: MiningOutcome,
    /// Answer-mix statistics.
    pub question_stats: QuestionStats,
    /// Questions answered per *recruited* member (when the query carries
    /// an `ASKING` clause, only profile-matching members are recruited, so
    /// this can be shorter than the crowd).
    pub answers_per_member: Vec<usize>,
    /// Materialized nodes still unclassified when the run stopped
    /// (non-zero when the crowd was exhausted before convergence).
    pub undecided: usize,
    /// Rounds in which at least one question was asked. With a batch
    /// width above one, each member answers up to `batch_width` questions
    /// per round, so fewer rounds should reach the same MSP set.
    pub rounds: usize,
}

/// One member's traversal state.
///
/// The member's hot queue holds the roots and the children of nodes that
/// became *overall* significant, whose answers drive assignments to
/// quorum, plus the member's own revisits and lazy descents. It is
/// `front`, then the shared [`HotFrontier`] from `cursor` merged with
/// `own` by push sequence number, and it is served before `cold`.
///
/// NOTE: both queues may hold duplicates (shared children of several
/// significant parents, re-descents, and the revisit of a specialization
/// question's base). Deduplicating at push time is *not*
/// order-preserving — a re-pushed base could previously be consumed at
/// a mid-queue duplicate's earlier position — so duplicates are kept and
/// filtered on pop instead.
struct MemberState {
    id: MemberId,
    personal: MemberRecord,
    answered: NodeBits,
    /// Significant nodes whose children this member already queued
    /// (guards the lazy descent in `next_target` against re-queueing).
    descended: NodeBits,
    active: bool,
    /// Deferred batch targets, popped from the end before any other hot
    /// entry.
    front: Vec<NodeId>,
    /// The first position of the shared frontier this member has not
    /// popped.
    cursor: u32,
    /// Hot entries only this member queued, with their push sequence
    /// numbers, in push order.
    own: VecDeque<(u64, Pending)>,
    /// Low-priority frontier: this member's personal descent (children of
    /// nodes significant *for them* but not yet overall, and of
    /// significant nodes popped from here) — served only when the hot
    /// queue is empty, so that a single member's idiosyncratic habits
    /// don't starve the crowd's shared progress.
    cold: VecDeque<NodeId>,
}

/// An entry of a member's private hot queue.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// One node: the revisit of a specialization question's base.
    Node(NodeId),
    /// A lazy descent: the child-edge arena positions `start..end` of a
    /// span returned by [`Dag::ensure_children`], popped front to back.
    Edges(u32, u32),
}

/// Where a popped hot entry came from: the position a globally
/// insignificant node is buried at.
#[derive(Debug, Clone, Copy)]
enum Origin {
    /// A position of the shared frontier.
    Shared(u32),
    /// A position of the DAG's child-edge arena.
    Edge(u32),
    /// A deferred target or a revisit.
    Own,
}

/// The hot frontier every member shares: the roots, then the children
/// of each fan-out, appended once (the paper's `QueueManager` frontier).
/// A member's private entries and the shared ones carry one global push
/// sequence, so merging them by sequence number pops in push order.
struct HotFrontier {
    nodes: Vec<NodeId>,
    /// Push sequence number of each position of `nodes`.
    seqs: Vec<u64>,
    /// Buried positions of `nodes`.
    live: NextLive,
    /// Buried positions of the DAG's child-edge arena.
    live_edges: NextLive,
    next_seq: u64,
    /// Entries `next_target` popped, hot and cold.
    pops: u64,
}

impl HotFrontier {
    fn new(roots: &[NodeId]) -> Self {
        HotFrontier {
            nodes: roots.to_vec(),
            seqs: vec![0; roots.len()],
            live: NextLive::default(),
            live_edges: NextLive::default(),
            next_seq: 1,
            pops: 0,
        }
    }

    /// Takes the next push sequence number.
    fn stamp(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Appends one fan-out's children to every member's hot queue.
    fn fan_out(&mut self, children: impl IntoIterator<Item = NodeId>) {
        let seq = self.stamp();
        for c in children {
            self.nodes.push(c);
            self.seqs.push(seq);
        }
    }

    /// Queues `entry` at the back of `m`'s hot queue.
    fn push(&mut self, m: &mut MemberState, entry: Pending) {
        let seq = self.stamp();
        m.own.push_back((seq, entry));
    }

    /// Pops `m`'s next hot node: a deferred target first, then whichever
    /// of the shared and private heads was pushed first. Buried positions
    /// are skipped.
    fn pop(&mut self, dag: &Dag<'_>, m: &mut MemberState) -> Option<(NodeId, Origin)> {
        if let Some(id) = m.front.pop() {
            return Some((id, Origin::Own));
        }
        let at = self.live.find(m.cursor);
        let shared = self.seqs.get(at as usize).copied();
        while let Some((seq, entry)) = m.own.front_mut() {
            if shared.is_some_and(|s| s < *seq) {
                break;
            }
            match entry {
                Pending::Node(id) => {
                    let id = *id;
                    m.own.pop_front();
                    return Some((id, Origin::Own));
                }
                Pending::Edges(start, end) => {
                    let e = self.live_edges.find(*start);
                    if e >= *end {
                        m.own.pop_front();
                        continue;
                    }
                    *start = e + 1;
                    return Some((dag.child_at(e), Origin::Edge(e)));
                }
            }
        }
        let id = *self.nodes.get(at as usize)?;
        m.cursor = at + 1;
        Some((id, Origin::Shared(at)))
    }

    /// Buries the position a globally insignificant node was popped
    /// from. Such a node stays insignificant (the fold never re-marks a
    /// classified node), so popping it again is a no-op for every member.
    fn bury(&mut self, origin: Origin) {
        match origin {
            Origin::Shared(at) => self.live.kill(at),
            Origin::Edge(e) => self.live_edges.kill(e),
            Origin::Own => {}
        }
    }
}

/// Path-compressed "next live position" links over an append-only
/// sequence: a position is live while it links to itself or lies past
/// the tracked prefix; a buried one links forward.
#[derive(Debug, Default)]
struct NextLive(Vec<u32>);

impl NextLive {
    /// The first live position at or after `i`.
    fn find(&mut self, i: u32) -> u32 {
        let mut root = i;
        while let Some(&next) = self.0.get(root as usize) {
            if next == root {
                break;
            }
            root = next;
        }
        let mut j = i;
        while j != root {
            // PANIC-OK: the walk above read every position from `i` to `root`.
            let next = std::mem::replace(&mut self.0[j as usize], root);
            j = next;
        }
        root
    }

    /// Buries position `i`.
    fn kill(&mut self, i: u32) {
        if self.0.len() <= i as usize {
            let tracked = self.0.len() as u32;
            self.0.extend(tracked..=i);
        }
        // PANIC-OK: the extend above tracks position `i`.
        self.0[i as usize] = i + 1;
    }
}

/// A dense set of nodes, grown on demand.
#[derive(Debug, Default)]
struct NodeBits(Vec<u64>);

impl NodeBits {
    /// Adds `id`; returns whether it was absent.
    fn insert(&mut self, id: NodeId) -> bool {
        let (w, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
        if self.0.len() <= w {
            self.0.resize(w + 1, 0);
        }
        // PANIC-OK: the resize above holds word `w`.
        let word = &mut self.0[w];
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }

    fn contains(&self, id: NodeId) -> bool {
        self.0
            .get(id.index() / 64)
            .is_some_and(|w| w & (1u64 << (id.index() % 64)) != 0)
    }
}

/// Degradation bookkeeping for the crowd-access policy: timeout/retry
/// counters plus the nodes some member gave up on after exhausting the
/// retry budget. A give-up only removes *that member's* vote — another
/// member (or a later inference) can still classify the node.
#[derive(Default)]
struct Degradation {
    manifest: PartialManifest,
    gave_up: Vec<NodeId>,
    gave_up_set: HashSet<NodeId>,
    /// Give-ups in the current round; a round that only gave up still
    /// made monotone progress (the member's `answered` set grew), so the
    /// round loop must not treat it as a fixpoint.
    gave_up_this_round: usize,
}

impl Degradation {
    fn record_give_up(&mut self, id: NodeId) {
        self.gave_up_this_round += 1;
        if self.gave_up_set.insert(id) {
            self.gave_up.push(id);
        }
    }
}

/// The run state every member shares: the classification fold plus the
/// planner's answer-mix and degradation bookkeeping.
struct Shared<'a> {
    fold: Fold<'a>,
    stats: QuestionStats,
    deg: Degradation,
    /// Nodes the fold just marked significant, awaiting fan-out to every
    /// member's queue.
    newly_significant: Vec<NodeId>,
}

/// Runs the multi-user algorithm.
pub fn run_multi<C: CrowdSource, A: Aggregator>(
    dag: &mut Dag<'_>,
    crowd: &mut C,
    aggregator: &A,
    cfg: &MiningConfig,
) -> MultiOutcome {
    let threshold = cfg.threshold.unwrap_or(dag.query().threshold);
    let root = cfg.telemetry.span("mine.multi");
    let tele = root.tele().clone();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut run = Shared {
        fold: Fold::new(dag, threshold, Some(aggregator), &tele, FoldMode::Engine),
        stats: QuestionStats::default(),
        deg: Degradation::default(),
        newly_significant: Vec::new(),
    };
    let mut monitor = MspMonitor::new();
    let mut rounds = 0usize;
    // ops already handed to cfg.op_tap (a prefix of the fold's log)
    let mut tap_flushed = 0usize;
    // member of the most recent answered question: MSPs confirmed by the
    // final monitor sweep are logged under it, keeping every tick's ops
    // single-member (the canonical merge order then matches recording
    // order exactly).
    let mut last_member = MemberId(0);
    let mut global_decisions = 0usize;

    let mut hot = HotFrontier::new(dag.roots());
    let asking = dag.query().asking.clone();
    let mut members: Vec<MemberState> = crowd
        .members()
        .into_iter()
        .filter(|&id| match &asking {
            // ASKING "label": only profile-matching members are recruited
            Some(label) => crowd.member_has_profile(id, label),
            None => true,
        })
        .map(|id| MemberState {
            id,
            personal: MemberRecord::new(),
            answered: NodeBits::default(),
            descended: NodeBits::default(),
            active: true,
            front: Vec::new(),
            cursor: 0,
            own: VecDeque::new(),
            cold: VecDeque::new(),
        })
        .collect();
    let mut per_member: Vec<usize> = vec![0; members.len()];

    'outer: loop {
        let _round = tele.span("round");
        let tele = _round.tele();
        let mut asked_this_round = 0usize;
        run.deg.gave_up_this_round = 0;
        for mi in 0..members.len() {
            if cfg.max_questions.is_some_and(|m| run.fold.questions() >= m) {
                break 'outer;
            }
            // PANIC-OK: `mi` ranges over 0..members.len() by construction.
            if !members[mi].active {
                continue;
            }
            let width = cfg.batch_width.max(1);
            let mut planned: Vec<NodeId> = Vec::new();
            // PANIC-OK: `mi` is in bounds, as above.
            let m = &mut members[mi];
            if width == 1 {
                if let Some(t) = next_target(dag, run.fold.classifier_mut(), &mut hot, m) {
                    planned.push(t);
                }
            } else {
                // batch planning: collect up to `width` targets forming an
                // antichain under ≤. Comparable assignments can classify
                // each other (an answer about one may decide the other by
                // inference), so a comparable pop is deferred — pushed back
                // to the *front* of the hot queue, in pop order — rather
                // than asked redundantly in the same batch.
                let mut deferred: Vec<NodeId> = Vec::new();
                while planned.len() < width {
                    let Some(t) = next_target(dag, run.fold.classifier_mut(), &mut hot, m) else {
                        break;
                    };
                    if planned.iter().any(|&p| dag.leq(p, t) || dag.leq(t, p)) {
                        deferred.push(t);
                    } else {
                        planned.push(t);
                    }
                }
                if !deferred.is_empty() {
                    tele.count("planner.deferred", deferred.len() as u64);
                    m.front.extend(deferred.iter().rev());
                }
                if !planned.is_empty() {
                    tele.count("planner.planned", planned.len() as u64);
                }
                if cfg.debug_checks {
                    for (i, &a) in planned.iter().enumerate() {
                        for &b in planned.iter().skip(i + 1) {
                            assert!(
                                !dag.leq(a, b) && !dag.leq(b, a),
                                "batch planner invariant violated: planned targets \
                                 {a:?} and {b:?} are ≤-comparable"
                            );
                        }
                    }
                }
            }
            for target in planned {
                if cfg.max_questions.is_some_and(|m| run.fold.questions() >= m) {
                    break 'outer;
                }
                // batch efficiency: an answer landing after an earlier answer
                // of the same batch already classified its target is redundant
                // (the fold will not mark it again)
                let redundant =
                    width > 1 && run.fold.classifier().class_frozen(dag, target) != Class::Unknown;
                // question-type policy: specialization with configured ratio
                let mut asked = false;
                if cfg.specialization_ratio > 0.0 && rng.gen_bool(cfg.specialization_ratio) {
                    // PANIC-OK: `mi` is in bounds, as above.
                    asked = run.ask_specialization(dag, crowd, cfg, &mut members[mi], target, tele);
                    if asked {
                        // the base itself is still unanswered by this
                        // member - revisit it later
                        // PANIC-OK: `mi` is in bounds, as above.
                        hot.push(&mut members[mi], Pending::Node(target));
                    }
                }
                if !asked {
                    // PANIC-OK: `mi` is in bounds, as above.
                    asked = run.ask_concrete(dag, crowd, cfg, &mut members[mi], target, tele);
                }
                if asked {
                    // PANIC-OK: per_member was sized to members.len().
                    per_member[mi] += 1;
                    asked_this_round += 1;
                    // PANIC-OK: `mi` is in bounds, as above.
                    last_member = members[mi].id;
                    if width > 1 {
                        tele.count(
                            if redundant {
                                "planner.redundant_answers"
                            } else {
                                "planner.useful_answers"
                            },
                            1,
                        );
                    }
                    // fan out the children of any node that just became
                    // globally significant to the shared frontier (the
                    // QueueManager's frontier maintenance)
                    let decisions = run.fold.classifier().decisions();
                    let had_transition = global_decisions != decisions;
                    global_decisions = decisions;
                    for node in std::mem::take(&mut run.newly_significant) {
                        let span = dag.ensure_children(node);
                        // a sticky-Insignificant child would be skipped as a
                        // pure no-op on every member's pop — drop it here
                        let global = run.fold.classifier();
                        hot.fan_out(
                            dag.child_slice(span).iter().copied().filter(|&c| {
                                global.cached_queried(c) != Some(Class::Insignificant)
                            }),
                        );
                    }
                    // MSP entailment can only change when a global
                    // classification changed
                    if had_transition {
                        monitor.update(dag, &mut run.fold, last_member);
                        if cfg.debug_checks {
                            check_msp_completeness(dag, &run.fold);
                        }
                        // TOP k early termination (Section 8 extension)
                        if let Some(k) = dag.query().top_k {
                            if !dag.query().diverse {
                                let msps = run.fold.msp_ids();
                                let valid = msps.iter().filter(|&&m| dag.node(m).valid).count();
                                if valid >= k {
                                    break 'outer;
                                }
                            }
                        }
                    }
                }
                if cfg.debug_checks {
                    let questions = run.fold.questions();
                    if run.stats.total() != questions {
                        panic!(
                        "simulation invariant violated: question stats total {} != questions {questions}",
                        run.stats.total()
                    );
                    }
                    if let Some(mx) = cfg.max_questions {
                        assert!(
                        questions <= mx,
                        "simulation invariant violated: {questions} questions exceed the budget of {mx}"
                    );
                    }
                    let global = run.fold.classifier();
                    if let Err(e) =
                        crate::invariants::check_classification_monotonicity(dag, global)
                    {
                        panic!("simulation invariant violated: {e}");
                    }
                    if let Err(e) =
                        crate::invariants::check_msp_maximality(dag, global, run.fold.msp_ids())
                    {
                        panic!("simulation invariant violated: {e}");
                    }
                }
            }
        }
        if asked_this_round > 0 {
            rounds += 1;
        }
        // round-boundary durability: hand freshly recorded ops to the
        // serving layer's tap — a crash after this point replays the
        // round, a crash before it loses only this round
        if let Some(tap) = &cfg.op_tap {
            let ops = run.fold.log().ops();
            if tap_flushed < ops.len() {
                tap.append(dag, &ops[tap_flushed..]); // PANIC-OK: tap_flushed only ever takes values of ops.len(), which never shrinks.
                tap_flushed = ops.len();
            }
        }
        if asked_this_round == 0 && run.deg.gave_up_this_round == 0 {
            break;
        }
    }

    // The completeness check expands the remaining significant frontier,
    // which may generate children that are classified purely by inference;
    // a final monitor sweep then confirms the last MSPs.
    let complete =
        crate::vertical::find_minimal_unclassified(dag, run.fold.classifier_mut(), &HashSet::new())
            .is_none();
    monitor.update(dag, &mut run.fold, last_member);
    if cfg.debug_checks {
        check_msp_completeness(dag, &run.fold);
    }
    // final tap flush: the completeness sweep may have confirmed MSPs
    // after the last round boundary
    if let Some(tap) = &cfg.op_tap {
        let ops = run.fold.log().ops();
        if tap_flushed < ops.len() {
            tap.append(dag, &ops[tap_flushed..]); // PANIC-OK: tap_flushed only ever takes values of ops.len(), which never shrinks.
        }
    }
    let undecided = run.fold.undecided(dag);
    let mining = run
        .fold
        .finish(dag, complete, run.deg.manifest, &run.deg.gave_up, &tele);
    if tele.is_enabled() {
        for &n in &per_member {
            tele.observe("engine.answers_per_member", n as u64);
        }
        tele.count("planner.pops", hot.pops);
        tele.count("msp_monitor.rechecks", monitor.rechecks());
        tele.count("planner.frontier_appends", hot.nodes.len() as u64);
    }
    MultiOutcome {
        mining,
        question_stats: run.stats,
        answers_per_member: per_member,
        undecided,
        rounds,
    }
}

/// The step invariant armed after every MSP monitor update: no witness
/// the folded state entails as an MSP is left unconfirmed.
fn check_msp_completeness(dag: &Dag<'_>, fold: &Fold<'_>) {
    if let Err(e) =
        crate::invariants::check_msp_completeness(dag, fold.classifier(), fold.msp_ids())
    {
        panic!("simulation invariant violated: {e}");
    }
}

/// Finds the member's next question by draining their pending frontier:
/// nodes enter the hot queue at the start (the roots), when any node
/// becomes *overall* significant (fan-out in the main loop), or when the
/// member pops a significant node from it (lazy descent); they enter the
/// cold queue when one of the member's own answers is significant
/// (personal descent) or when the member pops a significant node from
/// it. Nodes that are globally classified, personally excluded (rule 4 —
/// the member's record inherits insignificance downward), or already
/// answered are skipped on pop.
fn next_target(
    dag: &mut Dag<'_>,
    global: &mut Classifier,
    hot: &mut HotFrontier,
    m: &mut MemberState,
) -> Option<NodeId> {
    while let Some((id, origin)) = hot.pop(dag, m) {
        hot.pops += 1;
        match triage(dag, global, m, id) {
            Triage::Dead => hot.bury(origin),
            Triage::Descend((start, len)) => hot.push(m, Pending::Edges(start, start + len)),
            Triage::Skip => {}
            Triage::Target => return Some(id),
        }
    }
    while let Some(id) = m.cold.pop_front() {
        hot.pops += 1;
        match triage(dag, global, m, id) {
            Triage::Descend(span) => {
                // sticky-Insignificant children are pop-side no-ops
                let children = dag
                    .child_slice(span)
                    .iter()
                    .copied()
                    .filter(|&c| global.cached_queried(c) != Some(Class::Insignificant));
                m.cold.extend(children);
            }
            Triage::Dead | Triage::Skip => {}
            Triage::Target => return Some(id),
        }
    }
    None
}

/// What a popped node asks of the member that popped it.
enum Triage {
    /// Globally insignificant: a no-op on every pop, for every member.
    Dead,
    /// Significant and not yet descended by this member: queue the
    /// children in this `(start, len)` span.
    Descend((u32, u32)),
    /// Nothing to ask this member.
    Skip,
    /// The member's next question.
    Target,
}

fn triage(dag: &mut Dag<'_>, global: &mut Classifier, m: &mut MemberState, id: NodeId) -> Triage {
    // Most pops hit a node the crowd already classified — read the
    // sticky verdict straight from the cache and only fall back to the
    // full (stamping) lookup on unqueried nodes. Identical values either
    // way; the fast path skips per-call overhead on the hot pop filter.
    let cls = match global.cached_queried(id) {
        Some(c) => c,
        None => global.class(dag, id),
    };
    match cls {
        Class::Insignificant => Triage::Dead,
        // descend lazily: a node can become significant *by inference* (a
        // spec-question jump decided a deeper witness first), in which
        // case no fan-out transition ever fired for it — its children
        // must still be explored.
        Class::Significant if m.descended.insert(id) => Triage::Descend(dag.ensure_children(id)),
        Class::Significant => Triage::Skip,
        Class::Unknown
            if m.personal.class(dag, id) == Class::Insignificant || m.answered.contains(id) =>
        {
            Triage::Skip
        }
        Class::Unknown => Triage::Target,
    }
}

impl Shared<'_> {
    /// Folds one member's support vote for `node` at `tick`; a node the
    /// vote decides significant is queued for fan-out.
    fn vote(&mut self, dag: &Dag<'_>, tick: usize, member: MemberId, node: NodeId, support: f64) {
        if self
            .fold
            .record(dag, tick, member, node, OpVerdict::Support { support })
        {
            self.newly_significant.push(node);
        }
    }

    /// Queues the children of `node` (significant for `m`) on the
    /// member's low-priority frontier — personal descent (rule 4), run
    /// after quorum work on the shared frontier.
    fn descend(&self, dag: &mut Dag<'_>, m: &mut MemberState, node: NodeId) {
        let span = dag.ensure_children(node);
        m.cold.extend(
            dag.child_slice(span).iter().copied().filter(|&c| {
                self.fold.classifier().cached_queried(c) != Some(Class::Insignificant)
            }),
        );
    }

    fn ask_concrete<C: CrowdSource>(
        &mut self,
        dag: &mut Dag<'_>,
        crowd: &mut C,
        cfg: &MiningConfig,
        m: &mut MemberState,
        target: NodeId,
        tele: &telemetry::Telemetry,
    ) -> bool {
        let pattern = dag.node(target).assignment.apply(dag.query());
        let question = Question::Concrete { pattern };
        let answer = ask_with_retry(
            crowd,
            m.id,
            &question,
            &cfg.policy,
            &mut self.deg.manifest.timeouts,
            &mut self.deg.manifest.retries,
            tele,
        );
        match answer {
            Answer::Support { support, more_tip } => {
                self.stats.concrete += 1;
                tele.count("engine.questions", 1);
                tele.count("questions.concrete", 1);
                let tick = self.fold.questions() + 1;
                m.answered.insert(target);
                if support >= self.fold.threshold() {
                    m.personal.mark_significant(target);
                    if let Some(tip) = more_tip {
                        dag.attach_more_tip(target, tip);
                    }
                    self.descend(dag, m, target);
                } else {
                    m.personal.mark_insignificant(target);
                }
                self.vote(dag, tick, m.id, target, support);
                true
            }
            Answer::Irrelevant { elem } => {
                self.stats.pruning += 1;
                tele.count("engine.questions", 1);
                tele.count("questions.pruning", 1);
                let tick = self.fold.questions() + 1;
                m.answered.insert(target);
                self.fold
                    .record(dag, tick, m.id, NodeId::SENTINEL, OpVerdict::NoAnswer);
                m.personal.prune_elem(elem);
                // The click answers *every* assignment involving the element
                // (or a specialization) at once for this member — feed those
                // implicit 0-answers to the aggregator for all materialized
                // nodes, so pruned cones reach quorum without further
                // questions (Section 6.2's bulk effect).
                let mut clicked = Vec::new();
                insert_elem(&mut clicked, elem);
                let affected: Vec<NodeId> = dag
                    .node_ids()
                    .filter(|&id| dag.involves_any(id, &clicked))
                    .collect();
                for id in affected {
                    if m.answered.insert(id) {
                        self.vote(dag, tick, m.id, id, 0.0);
                    }
                }
                true
            }
            Answer::Unavailable => {
                m.active = false;
                false
            }
            Answer::NoResponse => {
                // retries exhausted: this member gives up on the target
                // (another member can still answer it); no question counted
                m.answered.insert(target);
                self.deg.record_give_up(target);
                false
            }
            _ => unreachable!("non-concrete answer to a concrete question"),
        }
    }

    /// Asks `m` a specialization question at `base`, offering its
    /// unclassified children that `m` has neither answered nor personally
    /// excluded; asks nothing (returns `false`) when there are none.
    fn ask_specialization<C: CrowdSource>(
        &mut self,
        dag: &mut Dag<'_>,
        crowd: &mut C,
        cfg: &MiningConfig,
        m: &mut MemberState,
        base: NodeId,
        tele: &telemetry::Telemetry,
    ) -> bool {
        let span = dag.ensure_children(base);
        let mut options: Vec<NodeId> = Vec::new();
        for ci in 0..span.1 {
            // PANIC-OK: `ci` ranges over the span's own length.
            let c = dag.child_slice(span)[ci as usize];
            if self.fold.class(dag, c) == Class::Unknown
                && !m.answered.contains(c)
                && m.personal.class(dag, c) != Class::Insignificant
            {
                options.push(c);
                if options.len() >= cfg.max_spec_options {
                    break;
                }
            }
        }
        if options.is_empty() {
            return false;
        }
        let q = Question::Specialization {
            base: dag.node(base).assignment.apply(dag.query()),
            options: options
                .iter()
                .map(|&o| dag.node(o).assignment.apply(dag.query()))
                .collect(),
        };
        let answer = ask_with_retry(
            crowd,
            m.id,
            &q,
            &cfg.policy,
            &mut self.deg.manifest.timeouts,
            &mut self.deg.manifest.retries,
            tele,
        );
        match answer {
            Answer::Specialized { choice, support } => {
                self.stats.specialization += 1;
                tele.count("engine.questions", 1);
                tele.count("questions.specialization", 1);
                let tick = self.fold.questions() + 1;
                // PANIC-OK: callers pass a non-empty options slice and the
                // clamp keeps any crowd-supplied choice in bounds.
                let chosen = options[choice.min(options.len() - 1)];
                m.answered.insert(chosen);
                if support >= self.fold.threshold() {
                    m.personal.mark_significant(chosen);
                    self.descend(dag, m, chosen);
                } else {
                    m.personal.mark_insignificant(chosen);
                }
                self.vote(dag, tick, m.id, chosen, support);
                true
            }
            Answer::NoneOfThese => {
                self.stats.none_of_these += 1;
                tele.count("engine.questions", 1);
                tele.count("questions.none_of_these", 1);
                let tick = self.fold.questions() + 1;
                for &o in &options {
                    m.answered.insert(o);
                    m.personal.mark_insignificant(o);
                    self.vote(dag, tick, m.id, o, 0.0);
                }
                true
            }
            Answer::Irrelevant { elem } => {
                self.stats.pruning += 1;
                tele.count("engine.questions", 1);
                tele.count("questions.pruning", 1);
                let tick = self.fold.questions() + 1;
                self.fold
                    .record(dag, tick, m.id, NodeId::SENTINEL, OpVerdict::NoAnswer);
                m.personal.prune_elem(elem);
                true
            }
            Answer::Unavailable => {
                m.active = false;
                false
            }
            // spec timeout: nothing classified, no give-up — the caller falls
            // back to a concrete probe of the base, whose own give-up path
            // guarantees progress
            Answer::NoResponse => false,
            _ => unreachable!("support answer to a specialization question"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::FixedSampleAggregator;
    use crate::synth::{plant_msps, synthetic_domain, MspDistribution, PlantedOracle};
    use crowd::{AnswerModel, MemberBehavior, PersonalDb, SimulatedCrowd, SimulatedMember};
    use oassis_ql::{bind, evaluate_where, parse, MatchMode};
    use ontology::domains::figure1;

    /// The u_avg member of Example 4.6: D_u1 plus three copies of D_u2
    /// makes every support the exact average of u1 and u2.
    fn u_avg(ont: &ontology::Ontology, seed: u64) -> SimulatedMember {
        let [d1, d2] = figure1::personal_dbs(ont);
        let mut tx = d1;
        for _ in 0..3 {
            tx.extend(d2.iter().cloned());
        }
        SimulatedMember::new(
            PersonalDb::from_transactions(tx),
            MemberBehavior::default(),
            AnswerModel::Exact,
            seed,
        )
    }

    #[test]
    fn two_member_running_example() {
        // Two identical averaged members with a 2-answer quorum: the
        // multi-user engine must converge to the single-user MSPs.
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let members = vec![u_avg(&ont, 1), u_avg(&ont, 2)];
        let mut crowd = SimulatedCrowd::new(ont.vocab(), members);
        let agg = FixedSampleAggregator { sample_size: 2 };
        let out = run_multi(&mut dag, &mut crowd, &agg, &MiningConfig::default());
        assert!(out.mining.complete, "undecided: {}", out.undecided);
        let rendered: Vec<String> = out
            .mining
            .msps
            .iter()
            .map(|m| m.apply(&b).to_display(ont.vocab()))
            .collect();
        assert!(
            rendered.iter().any(|r| r == "Biking doAt Central Park"),
            "{rendered:?}"
        );
        assert!(rendered.iter().any(|r| r == "Ball Game doAt Central Park"));
        assert!(rendered.iter().any(|r| r == "Feed a Monkey doAt Bronx Zoo"));
        assert!(!rendered.iter().any(|r| r.contains("Basketball")));
        // both members contributed
        assert!(out.answers_per_member.iter().all(|&n| n > 0));
        assert_eq!(out.question_stats.total(), out.mining.questions);
    }

    #[test]
    fn rule_4_keeps_personally_insignificant_regions_unexplored() {
        // With the real u1/u2 and a 2-answer quorum, successors of a node
        // that is insignificant for one member can never reach quorum —
        // the run ends incomplete with undecided nodes, and the member
        // was never asked below their personal cut (rule 4 of §4.2).
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let [d1, d2] = figure1::personal_dbs(&ont);
        let members = vec![
            SimulatedMember::new(
                PersonalDb::from_transactions(d1),
                MemberBehavior::default(),
                AnswerModel::Exact,
                1,
            ),
            SimulatedMember::new(
                PersonalDb::from_transactions(d2),
                MemberBehavior::default(),
                AnswerModel::Exact,
                2,
            ),
        ];
        let mut crowd = SimulatedCrowd::new(ont.vocab(), members);
        let agg = FixedSampleAggregator { sample_size: 2 };
        let out = run_multi(&mut dag, &mut crowd, &agg, &MiningConfig::default());
        // (CP, Biking) is personally insignificant for u1 (1/3 < 0.4) but
        // globally significant (5/12): its multiplicity successors get at
        // most one answer and stay undecided.
        assert!(!out.mining.complete);
        assert!(out.undecided > 0);
    }

    #[test]
    fn multi_user_agrees_with_single_oracle_user() {
        let d = synthetic_domain(100, 5, 0);
        let q = parse(&d.query).unwrap();
        let b = bind(&q, &d.ontology).unwrap();
        let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
        let mut full = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        full.materialize_all();
        let planted = plant_msps(&mut full, 6, true, MspDistribution::Uniform, 5);
        let patterns: Vec<_> = planted
            .iter()
            .map(|&id| full.node(id).assignment.apply(&b))
            .collect();

        // 5 identical oracle members, aggregator requires 5 answers
        let mut dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        let mut oracle = PlantedOracle::new(d.ontology.vocab(), patterns.clone(), 5, 0);
        let agg = FixedSampleAggregator { sample_size: 5 };
        let out = run_multi(&mut dag, &mut oracle, &agg, &MiningConfig::default());
        assert!(out.mining.complete);
        let got: HashSet<String> = out
            .mining
            .msps
            .iter()
            .map(|m| m.apply(&b).to_display(d.ontology.vocab()))
            .collect();
        let expected: HashSet<String> = planted
            .iter()
            .map(|&id| {
                full.node(id)
                    .assignment
                    .apply(&b)
                    .to_display(d.ontology.vocab())
            })
            .collect();
        assert_eq!(got, expected);
        // every classified node took 5 answers: questions ≈ 5 × unique
        assert!(out.mining.questions >= 5);
    }

    #[test]
    fn members_leaving_leaves_undecided_nodes() {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let [d1, d2] = figure1::personal_dbs(&ont);
        let members = vec![
            SimulatedMember::new(
                PersonalDb::from_transactions(d1),
                MemberBehavior {
                    session_limit: Some(2),
                    ..Default::default()
                },
                AnswerModel::Exact,
                1,
            ),
            SimulatedMember::new(
                PersonalDb::from_transactions(d2),
                MemberBehavior {
                    session_limit: Some(2),
                    ..Default::default()
                },
                AnswerModel::Exact,
                2,
            ),
        ];
        let mut crowd = SimulatedCrowd::new(ont.vocab(), members);
        let agg = FixedSampleAggregator { sample_size: 2 };
        let out = run_multi(&mut dag, &mut crowd, &agg, &MiningConfig::default());
        assert!(!out.mining.complete);
        assert!(out.undecided > 0);
        assert!(out.mining.questions <= 4);
    }

    #[test]
    fn disagreeing_members_average_out() {
        // u1's personal support for Feed-a-Monkey@BronxZoo is 3/6 = 0.5;
        // u2's is 0.5 too. For Pasta@Pine: u1 = 2/6, u2 = 1/2 →
        // avg ≈ 0.417 ≥ 0.4. For Biking: avg = 5/12 ≥ 0.4 even though u1
        // alone (1/3) is below the threshold — the aggregate decides.
        let ont = figure1::ontology();
        let src = r#"
SELECT FACT-SETS
WHERE
  $y subClassOf* Activity
SATISFYING
  $y doAt "Central Park"
WITH SUPPORT = 0.4
"#;
        let q = parse(src).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let [d1, d2] = figure1::personal_dbs(&ont);
        let members = vec![
            SimulatedMember::new(
                PersonalDb::from_transactions(d1),
                MemberBehavior::default(),
                AnswerModel::Exact,
                1,
            ),
            SimulatedMember::new(
                PersonalDb::from_transactions(d2),
                MemberBehavior::default(),
                AnswerModel::Exact,
                2,
            ),
        ];
        let mut crowd = SimulatedCrowd::new(ont.vocab(), members);
        let agg = FixedSampleAggregator { sample_size: 2 };
        let out = run_multi(&mut dag, &mut crowd, &agg, &MiningConfig::default());
        let rendered: Vec<String> = out
            .mining
            .msps
            .iter()
            .map(|m| m.apply(&b).to_display(ont.vocab()))
            .collect();
        // Biking is an MSP despite u1 alone being under the threshold
        assert!(
            rendered.iter().any(|r| r == "Biking doAt Central Park"),
            "{rendered:?}"
        );
    }
}
