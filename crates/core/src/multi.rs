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
    // audit: allow(D8, reporting breakdown of questions; the run digest folds the authoritative total, and a replay does not rebuild the mix)
    pub question_stats: QuestionStats,
    /// Questions answered per *recruited* member (when the query carries
    /// an `ASKING` clause, only profile-matching members are recruited, so
    /// this can be shorter than the crowd).
    // audit: allow(D8, per-member load, not an outcome a replay rebuilds; the folded events fix what was concluded)
    pub answers_per_member: Vec<usize>,
    /// Materialized nodes still unclassified when the run stopped
    /// (non-zero when the crowd was exhausted before convergence).
    pub undecided: usize,
    /// Rounds in which at least one question was asked. With a batch
    /// width above one, each member answers up to `batch_width` questions
    /// per round, so fewer rounds should reach the same MSP set.
    // audit: allow(D8, deliberately excluded - the round count is what batching is supposed to change)
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
/// filtered on pop instead. Two kinds of duplicate are provably no-ops
/// and cost no triage: a significant node this member already descended
/// is passed over in place (the verdict is sticky and `descended` only
/// grows), and a lazy descent into a fanned-out node waits in `owed`
/// until the member has popped that node's shared block, then is queued
/// only if some child it would re-pop is not yet settled (DESIGN §13.3).
/// Dropping every such descent outright moves the op-log goldens
/// `multi_synthetic_crowd_with_pruning_clicks`,
/// `multi_synthetic_batched_with_deferred_targets` and
/// `multi_synthetic_batched_deferred_order`: the copy still re-reaches a
/// specialization question's base before its revisit, and a child that
/// became significant by inference after the member passed it.
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
    /// Lazy descents into fanned-out nodes whose shared blocks lie past
    /// `cursor`, in block order.
    owed: VecDeque<Owed>,
    /// Low-priority frontier: this member's personal descent (children of
    /// nodes significant *for them* but not yet overall, and of
    /// significant nodes popped from here) — served only when the hot
    /// queue is empty, so that a single member's idiosyncratic habits
    /// don't starve the crowd's shared progress.
    cold: VecDeque<NodeId>,
}

/// A lazy descent into `node`, whose (non-empty) fan-out block, ending
/// at shared position `end`, the member had not reached when it
/// descended. Every child the descent would pop is popped from that
/// block first, so the descent is queued (at its own sequence number)
/// as soon as one of those pops leaves a child unsettled: neither
/// sticky-insignificant nor significant and descended. It is dropped
/// once the member is past the block without such a pop.
#[derive(Debug)]
struct Owed {
    end: u32,
    node: NodeId,
    seq: u64,
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
    /// The member's cold queue.
    Cold,
}

/// The shared-frontier positions `start..end` of one node's fan-out,
/// taken from its child span `span` (`(start, len)`).
#[derive(Debug, Clone, Copy)]
struct Block {
    start: u32,
    end: u32,
    span: (u32, u32),
}

/// Exact, noise-free counts of the planner's work in one run, tallied in
/// locals and emitted once at its end.
#[derive(Debug, Default)]
struct PlannerCounts {
    /// Entries popped and triaged, by [`Origin`]: shared, edge, own, cold.
    pops: [u64; 4],
    /// Popped entries by [`Triage`] outcome: dead, descend, skip, target.
    outcomes: [u64; 4],
    /// Entries passed over without triage: significant nodes the member
    /// had already descended.
    passed_over: u64,
    /// Lazy descents into fanned-out nodes that were never queued.
    descents_dropped: u64,
    /// `Descend` pops of fanned-out nodes made in place, without triage
    /// (counted in `outcomes` too).
    descended_in_place: u64,
}

impl PlannerCounts {
    fn tally(&mut self, origin: Origin, t: &Triage) {
        let o = match origin {
            Origin::Shared(_) => 0,
            Origin::Edge(_) => 1,
            Origin::Own => 2,
            Origin::Cold => 3,
        };
        let k = match t {
            Triage::Dead => 0,
            Triage::Descend(_) => 1,
            Triage::Skip => 2,
            Triage::Target => 3,
        };
        // PANIC-OK: both indices come from four-way matches.
        self.pops[o] += 1;
        // PANIC-OK: as above.
        self.outcomes[k] += 1;
    }

    fn emit(&self, tele: &telemetry::Telemetry) {
        tele.count("planner.pops", self.pops.iter().sum());
        for (name, n) in ["shared", "edge", "own", "cold"].iter().zip(self.pops) {
            tele.count(&format!("planner.pops.{name}"), n);
        }
        for (name, n) in ["dead", "descend", "skip", "target"]
            .iter()
            .zip(self.outcomes)
        {
            tele.count(&format!("planner.triage.{name}"), n);
        }
        tele.count("planner.passed_over", self.passed_over);
        tele.count("planner.descents_dropped", self.descents_dropped);
        tele.count("planner.descended_in_place", self.descended_in_place);
    }
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
    /// Per node id: its first fan-out's block, if it was fanned out.
    blocks: Vec<Option<Block>>,
    next_seq: u64,
    counts: PlannerCounts,
    /// `MiningConfig::debug_checks`: assert that every pop the walk
    /// handles without triage is the no-op or descent its triage was.
    checks: bool,
}

impl HotFrontier {
    fn new(roots: &[NodeId], checks: bool) -> Self {
        HotFrontier {
            nodes: roots.to_vec(),
            seqs: vec![0; roots.len()],
            live: NextLive::default(),
            live_edges: NextLive::default(),
            blocks: Vec::new(),
            next_seq: 1,
            counts: PlannerCounts::default(),
            checks,
        }
    }

    /// Takes the next push sequence number.
    fn stamp(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Appends the fan-out of `node`, whose child span is `span`, to
    /// every member's hot queue.
    fn fan_out(
        &mut self,
        node: NodeId,
        span: (u32, u32),
        children: impl IntoIterator<Item = NodeId>,
    ) {
        let seq = self.stamp();
        let start = self.nodes.len() as u32;
        for c in children {
            self.nodes.push(c);
            self.seqs.push(seq);
        }
        if self.blocks.len() <= node.index() {
            self.blocks.resize(node.index() + 1, None);
        }
        // PANIC-OK: the resize above holds `node`.
        self.blocks[node.index()].get_or_insert(Block {
            start,
            end: self.nodes.len() as u32,
            span,
        });
    }

    /// Queues `entry` at the back of `m`'s hot queue.
    fn push(&mut self, m: &mut MemberState, entry: Pending) {
        let seq = self.stamp();
        m.own.push_back((seq, entry));
    }

    /// Queues `m`'s lazy descent into `node`, whose children are the
    /// child-edge span `(start, len)`. A descent into a node whose shared
    /// block `m` has not reached yet waits in `owed` instead (see
    /// [`Owed`]); one whose span grew since the fan-out (a MORE tip) is
    /// queued at once. A span only moves when it grows, so an unchanged
    /// length is the fan-out's span.
    fn descend(&mut self, m: &mut MemberState, node: NodeId, (start, len): (u32, u32)) {
        let seq = self.stamp();
        match self.blocks.get(node.index()).copied().flatten() {
            // every child left out of the block was sticky-insignificant
            // at the fan-out: each pop of an empty block's descent is a no-op
            Some(b) if b.span.1 == len && m.cursor <= b.start && b.start == b.end => {
                self.counts.descents_dropped += 1;
            }
            Some(b) if b.span.1 == len && m.cursor <= b.start => {
                debug_assert_eq!(b.span.0, start);
                // non-empty blocks are disjoint, so their ends order them;
                // they are mostly descended in block order
                let at = match m.owed.back() {
                    Some(o) if o.end > b.end => m.owed.partition_point(|o| o.end < b.end),
                    _ => m.owed.len(),
                };
                m.owed.insert(
                    at,
                    Owed {
                        end: b.end,
                        node,
                        seq,
                    },
                );
            }
            _ => m.own.push_back((seq, Pending::Edges(start, start + len))),
        }
    }

    /// After `m`'s pop from shared position `at` left its node unsettled
    /// (a `Skip` or a `Target`), queues the owed descent whose block
    /// holds `at`, if any, at its own sequence number: it will pop that
    /// node again. Only the first owed block can hold `at`, since every
    /// block before `at` is settled. Queueing it now rather than once
    /// `m` is past the block changes no pop: until then the shared head
    /// lies in the block, whose sequence number is below the descent's.
    fn keep(&mut self, m: &mut MemberState, at: u32) {
        let block = |o: &Owed| self.blocks.get(o.node.index()).copied().flatten();
        let Some(b) = m.owed.front().and_then(block).filter(|b| b.start <= at) else {
            return;
        };
        let Some(o) = m.owed.pop_front() else { return };
        let i = m.own.partition_point(|&(seq, _)| seq < o.seq);
        m.own
            .insert(i, (o.seq, Pending::Edges(b.span.0, b.span.0 + b.span.1)));
    }

    /// Drops `m`'s owed descents whose blocks end at or before shared
    /// position `at`: every pop from such a block left its child settled.
    fn settle(&mut self, dag: &Dag<'_>, global: &Classifier, m: &mut MemberState, at: u32) {
        while m.owed.front().is_some_and(|o| o.end <= at) {
            let Some(o) = m.owed.pop_front() else { break };
            if self.checks {
                // PANIC-OK: an owed node was fanned out, so it has a block.
                let span = self.blocks[o.node.index()].map_or((0, 0), |b| b.span);
                for &c in dag.child_slice(span) {
                    assert!(
                        m.descended.contains(c)
                            || global.cached_queried(c) == Some(Class::Insignificant),
                        "walk invariant violated: a dropped descent into a fanned-out \
                         node would pop the unsettled child {c:?}"
                    );
                }
            }
            self.counts.descents_dropped += 1;
        }
    }

    /// Pops `m`'s next node to triage: a deferred target first, then
    /// whichever of the shared and private heads was pushed first.
    /// Buried positions are skipped, and two kinds of pop are handled in
    /// place, since their triage is known without a lookup (DESIGN
    /// §13.3): a significant node `m` already descended is passed over
    /// (its triage would be a side-effect-free `Skip`), and `m`'s first
    /// pop of a fanned-out node descends it (its triage would read the
    /// sticky `Significant` verdict the fan-out's vote left and return
    /// `Descend`).
    fn pop(
        &mut self,
        dag: &Dag<'_>,
        global: &Classifier,
        m: &mut MemberState,
    ) -> Option<(NodeId, Origin)> {
        while let Some(id) = m.front.pop() {
            if self.needs_triage(dag, global, m, id, Origin::Own) {
                return Some((id, Origin::Own));
            }
        }
        'walk: loop {
            let at = self.live.find(m.cursor);
            if self.checks {
                self.check_buried(global, m.cursor, at);
            }
            self.settle(dag, global, m, at);
            let shared = self.seqs.get(at as usize).copied();
            while let Some((seq, entry)) = m.own.front_mut() {
                if shared.is_some_and(|s| s < *seq) {
                    break;
                }
                let (id, origin) = match entry {
                    Pending::Node(id) => {
                        let id = *id;
                        m.own.pop_front();
                        (id, Origin::Own)
                    }
                    Pending::Edges(start, end) => {
                        let e = self.live_edges.find(*start);
                        if e >= *end {
                            m.own.pop_front();
                            continue;
                        }
                        *start = e + 1;
                        (dag.child_at(e), Origin::Edge(e))
                    }
                };
                if self.needs_triage(dag, global, m, id, origin) {
                    return Some((id, origin));
                }
                // a descent may have queued ahead of the next shared head
                continue 'walk;
            }
            let id = *self.nodes.get(at as usize)?;
            m.cursor = at + 1;
            if self.needs_triage(dag, global, m, id, Origin::Shared(at)) {
                return Some((id, Origin::Shared(at)));
            }
        }
    }

    /// Whether `m` must triage the node `id` it popped from `origin`.
    /// Not if `m` already descended it (it is passed over), nor if it
    /// was fanned out: a fan-out follows the vote that marked its node
    /// significant, so the triage would read that sticky verdict, set
    /// the `descended` bit and return `Descend` over the node's child
    /// span, generated for the fan-out. The descent is made here.
    fn needs_triage(
        &mut self,
        dag: &Dag<'_>,
        global: &Classifier,
        m: &mut MemberState,
        id: NodeId,
        origin: Origin,
    ) -> bool {
        if m.descended.contains(id) {
            self.pass_over(global, id);
            return false;
        }
        if !self.blocks.get(id.index()).is_some_and(Option::is_some) {
            return true;
        }
        // `fan_out` is only handed the span of a generated node
        let Some(span) = dag.generated_span(id) else {
            return true;
        };
        if self.checks {
            assert_eq!(
                global.cached_queried(id),
                Some(Class::Significant),
                "walk invariant violated: fanned-out node {id:?} is not sticky-significant"
            );
        }
        m.descended.insert(id);
        self.counts.tally(origin, &Triage::Descend(span));
        self.counts.descended_in_place += 1;
        self.descend(m, id, span);
        false
    }

    /// Counts a pop of a node the member already descended; its triage
    /// would be a `Skip` that stamps nothing.
    fn pass_over(&mut self, global: &Classifier, id: NodeId) {
        if self.checks {
            assert_eq!(
                global.cached_queried(id),
                Some(Class::Significant),
                "walk invariant violated: passed over {id:?}, which is not sticky-significant"
            );
        }
        self.counts.passed_over += 1;
    }

    /// Checks that the shared positions `from..to` the walk jumped are
    /// buried: their nodes are sticky-insignificant.
    fn check_buried(&self, global: &Classifier, from: u32, to: u32) {
        for at in from..to.min(self.nodes.len() as u32) {
            // PANIC-OK: `at` is below nodes.len().
            let id = self.nodes[at as usize];
            assert_eq!(
                global.cached_queried(id),
                Some(Class::Insignificant),
                "walk invariant violated: jumped shared position {at} holds a live node"
            );
        }
    }

    /// Buries the position a globally insignificant node was popped
    /// from. Such a node stays insignificant (the fold never re-marks a
    /// classified node), so popping it again is a no-op for every member.
    fn bury(&mut self, origin: Origin) {
        match origin {
            Origin::Shared(at) => self.live.kill(at),
            Origin::Edge(e) => self.live_edges.kill(e),
            Origin::Own | Origin::Cold => {}
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
    /// Nodes the pruning clicks' element index took in (each node once,
    /// at the first click after it was interned), and the votes the
    /// clicks cast.
    click_scanned: u64,
    click_votes: u64,
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
        click_scanned: 0,
        click_votes: 0,
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

    let mut hot = HotFrontier::new(dag.roots(), cfg.debug_checks);
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
            owed: VecDeque::new(),
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
            // PANIC-OK: `mi` is in bounds, as above.
            let m = &mut members[mi];
            // batch planning: collect up to `width` targets forming an
            // antichain under ≤. Comparable assignments can classify each
            // other (an answer about one may decide the other by
            // inference), so a comparable pop is deferred — pushed back to
            // the *front* of the hot queue, in pop order — rather than
            // asked redundantly in the same batch. At width 1 this is one
            // pop and nothing is deferred.
            let mut planned: Vec<NodeId> = Vec::new();
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
            if width > 1 && !planned.is_empty() {
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
                            node,
                            span,
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
        hot.counts.emit(&tele);
        tele.count("planner.click_scanned", run.click_scanned);
        tele.count("planner.click_votes", run.click_votes);
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
    while let Some((id, origin)) = hot.pop(dag, global, m) {
        let t = triage(dag, global, m, id);
        hot.counts.tally(origin, &t);
        if let (Origin::Shared(at), Triage::Skip | Triage::Target) = (origin, &t) {
            // the child stays unsettled: an owed descent over this block
            // may act on it again
            hot.keep(m, at);
        }
        match t {
            Triage::Dead => hot.bury(origin),
            Triage::Descend(span) => hot.descend(m, id, span),
            Triage::Skip => {}
            Triage::Target => return Some(id),
        }
    }
    while let Some(id) = m.cold.pop_front() {
        if m.descended.contains(id) {
            hot.pass_over(global, id);
            continue;
        }
        let t = triage(dag, global, m, id);
        hot.counts.tally(Origin::Cold, &t);
        match t {
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
        // the member's verdict is read (and stamped) only for a node it
        // has not answered: an answered node's is never read again
        Class::Unknown
            if m.answered.contains(id) || m.personal.class(dag, id) == Class::Insignificant =>
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
                // nodes, in id order, so pruned cones reach quorum without
                // further questions (Section 6.2's bulk effect).
                self.click_scanned += dag.index_involvement() as u64;
                let affected = dag.nodes_involving(elem);
                if cfg.debug_checks {
                    let mut clicked = Vec::new();
                    insert_elem(&mut clicked, elem);
                    let scan: Vec<NodeId> = dag
                        .node_ids()
                        .filter(|&id| dag.involves_any(id, &clicked))
                        .collect();
                    assert_eq!(
                        affected, scan,
                        "click invariant violated: the element index disagrees with a full scan"
                    );
                }
                for &id in affected {
                    if m.answered.insert(id) {
                        self.click_votes += 1;
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `NextLive::find` returns what a naive scan over a `Vec<bool>`
        /// of buried positions returns, under random interleavings of
        /// `kill` (repeats included) and `find`.
        #[test]
        fn next_live_matches_a_naive_scan(seed in 0u64..1_000_000, len in 1u32..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut live = NextLive::default();
            let mut buried = vec![false; len as usize + 1];
            for _ in 0..4 * len {
                let i = rng.gen_range(0..len);
                if rng.gen_bool(0.4) {
                    live.kill(i);
                    buried[i as usize] = true;
                } else {
                    let naive = (i..=len).find(|&j| !buried[j as usize]).expect("`len` is never buried");
                    proptest::prop_assert_eq!(live.find(i), naive);
                }
            }
        }
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
