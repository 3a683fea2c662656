//! The vertical algorithm (Algorithm 1): single-user, top-down MSP mining.
//!
//! Repeatedly pick the most general unclassified assignment, ask the crowd
//! member about it, and — if significant — greedily climb to an immediate
//! successor until none is significant; that node is an MSP. Every answer
//! classifies a whole cone by Observation 4.4, so the number of questions
//! stays near the `O((|E|+|R|)·|msp| + |msp⁻|)` bound of Proposition 4.7.
//!
//! Specialization questions (Section 4.1, "Speeding up with specialization
//! questions") are interleaved at a configurable ratio: instead of probing
//! children one by one, the member is shown the unclassified children as
//! auto-completion options and picks a significant one directly (or
//! answers "none of these", classifying all options at once).

use crate::assignment::Assignment;
use crate::classify::{Class, Classifier};
use crate::dag::{Dag, NodeId};
use crate::fold::{Fold, FoldMode};
use crate::manifest::{ask_with_retry, PartialManifest};
use crate::oplog::OpVerdict;
use crowd::{Answer, CrowdPolicy, CrowdSource, MemberId, Question};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Configuration shared by the mining algorithms.
///
/// A run mines on the calling thread. The paper's only concurrency is
/// crowd members answering in parallel (Section 4.2), and the cost it
/// bounds is crowd questions, which no thread count changes.
#[derive(Debug, Clone)]
pub struct MiningConfig {
    /// The support threshold Θ (overrides the query's `WITH SUPPORT` when
    /// set; `None` uses the query value).
    pub threshold: Option<f64>,
    /// Probability of asking a specialization question instead of probing
    /// children with concrete questions (Figure 4f varies this).
    pub specialization_ratio: f64,
    /// Maximum auto-completion options shown in one specialization
    /// question.
    pub max_spec_options: usize,
    /// RNG seed for the question-type policy.
    pub seed: u64,
    /// Question-batch width `k` for the multi-user engine: per round each
    /// member is planned up to `k` mutually non-redundant targets — no
    /// pair ordered by `leq`, so no answer in the batch can classify
    /// another's target by inference — and asked all of them, filling
    /// crowd latency with useful parallelism. The default `1` is the
    /// classic one-question-per-member round, bit-identical to the
    /// pre-batching engine; `0` is treated as `1`. Single-user engines
    /// ignore the field.
    pub batch_width: usize,
    /// Stop after this many answered questions (`None` = run to
    /// completion).
    pub max_questions: Option<usize>,
    /// Crowd-access policy: per-question timeout, retry cap, and backoff
    /// for members that stall ([`Answer::NoResponse`]). The default never
    /// activates on a fault-free crowd, so existing outcomes are
    /// unchanged.
    pub policy: CrowdPolicy,
    /// Re-verify the step-level invariants of [`crate::invariants`] after
    /// every answered question, panicking on the first violation. Used by
    /// the simulation harness; off by default (pure frozen reads, so
    /// enabling it never changes an outcome, only the running time).
    pub debug_checks: bool,
    /// Telemetry handle for the run. The default is
    /// [`telemetry::Telemetry::off`], a no-op that records nothing and
    /// keeps every outcome bit-identical; attach a recording sink with
    /// [`telemetry::Telemetry::recording`] to capture spans, counters and
    /// histograms for the run.
    pub telemetry: telemetry::Telemetry,
    /// Streaming op-log consumer ([`crate::oplog::OpTap`]): the
    /// multi-user engine flushes freshly recorded ops to it at round
    /// boundaries and at run end, giving a serving layer write-ahead
    /// durability mid-run. `None` (the default) records nothing extra and
    /// changes no outcome — the tap only *observes* the log.
    pub op_tap: Option<crate::oplog::OpTapHandle>,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            threshold: None,
            specialization_ratio: 0.0,
            max_spec_options: 8,
            seed: 0,
            batch_width: 1,
            max_questions: None,
            policy: CrowdPolicy::default(),
            debug_checks: false,
            telemetry: telemetry::Telemetry::off(),
            op_tap: None,
        }
    }
}

/// A discovery event, for the pace-of-collection curves (Figures 4d–4e).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscoveryEvent {
    /// Number of questions answered when the event occurred.
    pub question: usize,
    /// What was discovered.
    pub kind: DiscoveryKind,
}

/// Kind of discovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiscoveryKind {
    /// An MSP was identified (valid or not).
    Msp {
        /// Whether the MSP is valid w.r.t. the query.
        valid: bool,
    },
    /// Additional valid assignments became classified; the payload is the
    /// new total.
    ValidClassified {
        /// Total classified valid assignments after this question.
        total: usize,
    },
}

/// Result of a mining run.
#[derive(Debug)]
pub struct MiningOutcome {
    /// All MSPs found (Figure 4a's `#MSPs`).
    pub msps: Vec<Assignment>,
    /// The valid MSPs — the query answer (`M ∩ 𝒜_valid`, Figure 4a's
    /// `#valid`).
    pub valid_msps: Vec<Assignment>,
    /// Every *valid* assignment known significant (materialized), for the
    /// `ALL` keyword: "the other significant assignments can be inferred".
    pub significant_valid: Vec<Assignment>,
    /// Number of valid base assignments (the denominator of the
    /// "classified assign." curve of Figure 4d).
    pub total_valid: usize,
    /// Valid assignments *with multiplicities* (or MORE facts) that the
    /// lazy generator materialized. The exhaustive baseline of Section 6.3
    /// is charged `sample_size × (total_valid + valid_mult_nodes)`
    /// questions ("we fed to the naive algorithm only the assignments with
    /// multiplicities that our algorithm had generated, for fairness").
    pub valid_mult_nodes: usize,
    /// Questions answered by the crowd.
    pub questions: usize,
    /// Discovery events in order.
    pub events: Vec<DiscoveryEvent>,
    /// DAG generation statistics.
    pub gen_stats: crate::dag::GenStats,
    /// Nodes materialized by the end of the run.
    pub nodes_materialized: usize,
    /// Whether the run classified everything (false = question budget or
    /// crowd exhausted first).
    pub complete: bool,
    /// Degradation report: timeouts, retries, and the patterns the run
    /// gave up on that are still unclassified. Empty on fault-free runs.
    pub manifest: PartialManifest,
    /// The run's answer-operation log: every counted interaction as a
    /// replayable delta. Replaying any permutation of it reproduces this
    /// outcome's digest-bearing fields (see [`crate::oplog`]).
    pub ops: crate::oplog::OpLog,
}

/// Tracks how many *valid base* assignments are classified after each
/// answer (the "classified assign." series of Figure 4d).
///
/// Bases are indexed by the global fingerprint bits of their (singleton)
/// slot values, so each witness touches only the bases it can actually
/// classify instead of scanning all of them:
///
/// * a significant witness `w` classifies bases `a ≤ w` — every value
///   bit of `a` lies in `F(w)`, so walking the set bits of `F(w)` over
///   the first-bit buckets enumerates all candidates exactly once;
/// * an insignificant witness classifies bases above it — candidates
///   are the bases holding a descendant of the witness value with the
///   smallest descendant cone;
/// * a pruning click on `e` classifies bases holding a value in `e`'s
///   descendant cone, found the same way.
///
/// The hit conditions are unchanged from the original scan, so the
/// classified set (and the Figure-4d curve) is bit-identical.
pub(crate) struct ValidTracker {
    assignments: std::sync::Arc<Vec<Assignment>>,
    classified: Vec<bool>,
    pub total_classified: usize,
    /// Per-base value bits, one per non-empty slot (bases are singleton
    /// per constrained slot, empty elsewhere).
    base_bits: Vec<Vec<u32>>,
    /// Bases with no values at all (≤ everything; classified by the
    /// first significant witness).
    empty_bases: Vec<u32>,
    /// First value bit → bases whose first bit it is (each base once).
    buckets_first: Vec<Vec<u32>>,
    /// Any value bit → bases holding it (each base once per slot).
    buckets_all: Vec<Vec<u32>>,
    /// Telemetry handle (off by default). Only counters and histograms
    /// are recorded here — never spans — so witness verification can run
    /// from any engine without perturbing the trace tick.
    tele: telemetry::Telemetry,
}

impl ValidTracker {
    pub fn new(dag: &Dag<'_>) -> Self {
        let assignments = dag.validity().valid_base_assignments(dag.vocab());
        let space = dag.fp_space();
        let nbits = space.words_per_node() * 64;
        let mut base_bits = Vec::with_capacity(assignments.len());
        let mut empty_bases = Vec::new();
        let mut buckets_first = vec![Vec::new(); nbits];
        let mut buckets_all = vec![Vec::new(); nbits];
        for (i, a) in assignments.iter().enumerate() {
            let mut bits: Vec<u32> = Vec::new();
            for si in 0..a.num_slots() {
                for &v in a.slot(crate::assignment::Slot(si as u16)) {
                    let bit = space.value_bit(si, v);
                    bits.push(bit as u32);
                    // PANIC-OK: both bucket tables were sized to nbits
                    // and every value bit is below words_per_node * 64.
                    buckets_all[bit].push(i as u32);
                }
            }
            match bits.first() {
                // PANIC-OK: `b` is a value bit below nbits, as above.
                Some(&b) => buckets_first[b as usize].push(i as u32),
                None => empty_bases.push(i as u32),
            }
            base_bits.push(bits);
        }
        let classified = vec![false; assignments.len()];
        ValidTracker {
            assignments,
            classified,
            total_classified: 0,
            base_bits,
            empty_bases,
            buckets_first,
            buckets_all,
            tele: telemetry::Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle for witness/prune counters.
    pub fn with_telemetry(mut self, tele: telemetry::Telemetry) -> Self {
        self.tele = tele;
        self
    }

    #[inline]
    fn mark(&mut self, i: usize) -> bool {
        // PANIC-OK: callers pass base indices drawn from the bucket
        // tables or 0..assignments.len(); classified has that length.
        if self.classified[i] {
            return false;
        }
        // PANIC-OK: in bounds, as above.
        self.classified[i] = true;
        self.total_classified += 1;
        true
    }

    /// Updates after the node `w` became a significant (`sig=true`) or
    /// insignificant witness; returns whether anything newly classified.
    pub fn witness(&mut self, dag: &Dag<'_>, w: NodeId, sig: bool) -> bool {
        self.tele.count("validity.witness_checks", 1);
        let mut changed = false;
        if sig {
            // bases a ≤ w: no MORE facts and singleton slots, so the
            // condition is exactly "every base value bit is set in F(w)"
            let words = dag.fp_words(w);
            for bit in crate::fingerprint::iter_bits(words) {
                // PANIC-OK: iter_bits yields bits below nbits.
                for bi in 0..self.buckets_first[bit].len() {
                    // PANIC-OK: `bit` and `bi` are loop-bounded.
                    let i = self.buckets_first[bit][bi] as usize;
                    // PANIC-OK: bucket entries are base indices.
                    if !self.classified[i]
                        // PANIC-OK: `i` is a base index, as above.
                        && self.base_bits[i]
                            .iter()
                            .all(|&b| word_bit(words, b as usize))
                    {
                        changed |= self.mark(i);
                    }
                }
            }
            for bi in 0..self.empty_bases.len() {
                // PANIC-OK: `bi` is loop-bounded by the length.
                let i = self.empty_bases[bi] as usize;
                changed |= self.mark(i);
            }
        } else {
            // bases a ≥ w: a has no MORE facts, so w must have none; each
            // witness value must generalize the base's value in its slot.
            // Enumerate candidates through the witness value with the
            // smallest descendant cone, then verify exactly.
            let assignment = &dag.node(w).assignment;
            if !assignment.more().is_empty() {
                return false;
            }
            let vocab = dag.vocab();
            let mut pick: Option<(usize, oassis_ql::Value, usize)> = None;
            for si in 0..assignment.num_slots() {
                for &v in assignment.slot(crate::assignment::Slot(si as u16)) {
                    let count = match v {
                        oassis_ql::Value::Elem(e) => vocab.elem_descendant_count(e),
                        oassis_ql::Value::Rel(r) => vocab.rel_descendant_count(r),
                    };
                    if pick.is_none_or(|(_, _, c)| count < c) {
                        pick = Some((si, v, count));
                    }
                }
            }
            let Some((si, u, _)) = pick else {
                // valueless witness without MORE facts is ≤ every base
                for i in 0..self.assignments.len() {
                    changed |= self.mark(i);
                }
                return changed;
            };
            let space = dag.fp_space();
            let mut candidates: Vec<u32> = Vec::new();
            match u {
                oassis_ql::Value::Elem(e) => {
                    for d in vocab.elem_descendants(e) {
                        // PANIC-OK: elem_bit is below nbits by layout.
                        candidates.extend_from_slice(&self.buckets_all[space.elem_bit(si, d)]);
                    }
                }
                oassis_ql::Value::Rel(r) => {
                    for d in vocab.rel_descendants(r) {
                        // PANIC-OK: rel_bit is below nbits by layout.
                        candidates.extend_from_slice(&self.buckets_all[space.rel_bit(si, d)]);
                    }
                }
            }
            for i in candidates {
                let i = i as usize;
                // PANIC-OK: bucket entries are base indices.
                if !self.classified[i] && assignment.leq(vocab, &self.assignments[i]) {
                    changed |= self.mark(i);
                }
            }
        }
        changed
    }

    /// Updates after a pruning click: bases holding a value in the
    /// pruned element's descendant cone (in any slot) are classified.
    pub fn prune(&mut self, dag: &Dag<'_>, elem: ontology::ElemId) -> bool {
        self.tele.count("validity.prune_clicks", 1);
        let space = dag.fp_space();
        let vocab = dag.vocab();
        let mut changed = false;
        for d in vocab.elem_descendants(elem) {
            for si in 0..space.num_slots() {
                let bit = space.elem_bit(si, d);
                // PANIC-OK: elem_bit is below nbits by layout.
                for bi in 0..self.buckets_all[bit].len() {
                    // PANIC-OK: `bit` and `bi` are loop-bounded.
                    let i = self.buckets_all[bit][bi] as usize;
                    changed |= self.mark(i);
                }
            }
        }
        changed
    }

    pub fn len(&self) -> usize {
        self.assignments.len()
    }
}

/// Tests bit `bit` of a word slice.
#[inline]
fn word_bit(words: &[u64], bit: usize) -> bool {
    // PANIC-OK: callers pass fingerprint value bits, which lie below
    // words.len() * 64 by the fingerprint-space layout.
    words[bit / 64] & (1 << (bit % 64)) != 0
}

/// Runs Algorithm 1 with a single crowd member.
pub fn run_vertical<C: CrowdSource>(
    dag: &mut Dag<'_>,
    crowd: &mut C,
    member: MemberId,
    cfg: &MiningConfig,
) -> MiningOutcome {
    let root = cfg.telemetry.span("mine.vertical");
    let mut s = Session::new(dag, cfg, root.tele().clone());
    let mut msp_set: HashSet<NodeId> = HashSet::new();

    'outer: loop {
        if s.exhausted() {
            break;
        }
        let Some(mut phi) = find_minimal_unclassified(dag, s.fold.classifier_mut(), &s.gave_up_set)
        else {
            break;
        };
        if !s.ask_concrete(dag, crowd, member, phi) {
            continue;
        }
        // climb: follow significant successors until none remains
        loop {
            if s.exhausted() {
                break 'outer;
            }
            let children = dag.children(phi);
            // jump to an already-classified significant child first
            if let Some(&c) = children
                .iter()
                .find(|&&c| s.fold.class(dag, c) == Class::Significant)
            {
                phi = c;
                continue;
            }
            let unclassified: Vec<NodeId> = children
                .iter()
                .copied()
                .filter(|&c| s.fold.class(dag, c) == Class::Unknown)
                .collect();
            if unclassified.is_empty() {
                if msp_set.insert(phi) {
                    let tick = s.fold.questions();
                    let valid = dag.node(phi).valid;
                    s.fold
                        .record(dag, tick, member, phi, OpVerdict::Msp { valid });
                    if s.cfg.debug_checks {
                        if let Err(e) = crate::invariants::check_msp_maximality(
                            dag,
                            s.fold.classifier(),
                            s.fold.msp_ids(),
                        ) {
                            panic!("simulation invariant violated: {e}");
                        }
                    }
                    // TOP k (Section 8 extension): stop as soon as k valid
                    // MSPs are identified — unless DIVERSE needs the full
                    // candidate set to choose from.
                    if let Some(k) = dag.query().top_k {
                        if !dag.query().diverse {
                            let msps = s.fold.msp_ids();
                            let valid = msps.iter().filter(|&&m| dag.node(m).valid).count();
                            if valid >= k {
                                break 'outer;
                            }
                        }
                    }
                }
                break;
            }
            // drop children the retry policy already gave up on — they
            // stay Unknown, so the node can never be confirmed an MSP,
            // but probing them again would loop forever
            let askable: Vec<NodeId> = unclassified
                .iter()
                .copied()
                .filter(|c| !s.gave_up_set.contains(c))
                .collect();
            if askable.is_empty() {
                // every remaining child timed out past the retry budget:
                // abandon the climb without declaring an MSP (a stalled
                // child may well be significant)
                break;
            }
            // question-type policy
            if s.cfg.specialization_ratio > 0.0 && s.rng.gen_bool(s.cfg.specialization_ratio) {
                let options: Vec<NodeId> = askable
                    .iter()
                    .copied()
                    .take(s.cfg.max_spec_options)
                    .collect();
                match s.ask_specialization(dag, crowd, member, phi, &options) {
                    SpecOutcome::Jump(c) => {
                        phi = c;
                        continue;
                    }
                    SpecOutcome::NoneLeft | SpecOutcome::NoJump => continue,
                    SpecOutcome::Gone => break 'outer,
                    // fall through to a concrete probe so the give-up
                    // bookkeeping (and thus climb progress) is guaranteed
                    SpecOutcome::TimedOut => {}
                }
            }
            // PANIC-OK: the is_empty check above guarantees an element.
            let c = askable[0];
            if s.ask_concrete(dag, crowd, member, c) {
                phi = c;
            }
            if !s.available {
                break 'outer;
            }
        }
    }

    // no skip set here: a gave-up node still unclassified must force
    // `complete == false` (one resolved by a later inference does not)
    let complete = s.available
        && !s.exhausted_budget()
        && find_minimal_unclassified(dag, s.fold.classifier_mut(), &HashSet::new()).is_none();
    s.finish(dag, complete)
}

/// A single-user run's planner state around its [`Fold`]: question-type
/// policy RNG, crowd availability and the retry policy's give-ups.
pub(crate) struct Session<'c> {
    /// The run's classification state; every answer is folded through it.
    pub fold: Fold<'static>,
    pub rng: StdRng,
    pub available: bool,
    pub cfg: &'c MiningConfig,
    /// Timeout/retry counters accumulated by the crowd-access policy.
    pub manifest: PartialManifest,
    /// Nodes the retry policy gave up on, in first-give-up order.
    pub gave_up: Vec<NodeId>,
    pub gave_up_set: HashSet<NodeId>,
    /// Telemetry handle, parented at the engine's root span.
    pub tele: telemetry::Telemetry,
}

pub(crate) enum SpecOutcome {
    /// The member chose a significant option; climb to it.
    Jump(NodeId),
    /// All options were declared insignificant ("none of these").
    NoneLeft,
    /// The member's choice was below the threshold; no climb.
    NoJump,
    /// The member left.
    Gone,
    /// The member stalled past the retry budget; nothing was classified.
    TimedOut,
}

impl<'c> Session<'c> {
    /// A fresh single-user session over `dag`; `tele` is the engine's
    /// root-span handle.
    pub fn new(dag: &Dag<'_>, cfg: &'c MiningConfig, tele: telemetry::Telemetry) -> Self {
        let threshold = cfg.threshold.unwrap_or(dag.query().threshold);
        Session {
            fold: Fold::new(dag, threshold, None, &tele, FoldMode::Engine),
            rng: StdRng::seed_from_u64(cfg.seed),
            available: true,
            cfg,
            manifest: PartialManifest::default(),
            gave_up: Vec::new(),
            gave_up_set: HashSet::new(),
            tele,
        }
    }

    /// Assembles the run's outcome.
    pub fn finish(self, dag: &Dag<'_>, complete: bool) -> MiningOutcome {
        self.fold
            .finish(dag, complete, self.manifest, &self.gave_up, &self.tele)
    }

    pub fn exhausted_budget(&self) -> bool {
        self.cfg
            .max_questions
            .is_some_and(|m| self.fold.questions() >= m)
    }

    pub fn exhausted(&self) -> bool {
        !self.available || self.exhausted_budget()
    }

    /// Bumps the answered-question counters (`engine.questions` plus one
    /// per-kind counter matching [`crate::multi::QuestionStats`] naming)
    /// and returns the new question's tick.
    fn count_question(&self, kind: &'static str) -> usize {
        self.tele.count("engine.questions", 1);
        self.tele.count(kind, 1);
        self.fold.questions() + 1
    }

    /// Records that the retry policy gave up on `id` (stays `Unknown`).
    fn give_up(&mut self, id: NodeId) {
        if self.gave_up_set.insert(id) {
            self.gave_up.push(id);
        }
    }

    /// Step-level invariant checks, on when `cfg.debug_checks` is set.
    fn check_step(&self, dag: &Dag<'_>) {
        if let Err(e) =
            crate::invariants::check_classification_monotonicity(dag, self.fold.classifier())
        {
            panic!("simulation invariant violated: {e}");
        }
        if let Some(mx) = self.cfg.max_questions {
            assert!(
                self.fold.questions() <= mx,
                "simulation invariant violated: {} questions exceed the budget of {mx}",
                self.fold.questions()
            );
        }
    }

    /// Asks a concrete question about `id`; returns whether it turned out
    /// significant (for this member).
    pub fn ask_concrete<C: CrowdSource>(
        &mut self,
        dag: &mut Dag<'_>,
        crowd: &mut C,
        member: MemberId,
        id: NodeId,
    ) -> bool {
        let pattern = dag.node(id).assignment.apply(dag.query());
        let question = Question::Concrete { pattern };
        let answer = ask_with_retry(
            crowd,
            member,
            &question,
            &self.cfg.policy,
            &mut self.manifest.timeouts,
            &mut self.manifest.retries,
            &self.tele,
        );
        let sig = match answer {
            Answer::Support { support, more_tip } => {
                let tick = self.count_question("questions.concrete");
                if let Some(tip) = more_tip {
                    // the *more* button: materialize the extended successor
                    dag.attach_more_tip(id, tip);
                }
                self.fold
                    .record(dag, tick, member, id, OpVerdict::Support { support })
            }
            Answer::Irrelevant { elem } => {
                let tick = self.count_question("questions.pruning");
                self.fold.record(
                    dag,
                    tick,
                    member,
                    NodeId::SENTINEL,
                    OpVerdict::Prune { elem },
                );
                false
            }
            Answer::Unavailable => {
                self.available = false;
                false
            }
            Answer::NoResponse => {
                // retries exhausted: give up, leave the pattern Unknown
                self.give_up(id);
                false
            }
            Answer::Specialized { .. } | Answer::NoneOfThese => {
                unreachable!("specialization answers to a concrete question")
            }
        };
        if self.cfg.debug_checks {
            self.check_step(dag);
        }
        sig
    }

    /// Asks a specialization question at `base` with the given options.
    pub fn ask_specialization<C: CrowdSource>(
        &mut self,
        dag: &mut Dag<'_>,
        crowd: &mut C,
        member: MemberId,
        base: NodeId,
        options: &[NodeId],
    ) -> SpecOutcome {
        let q = Question::Specialization {
            base: dag.node(base).assignment.apply(dag.query()),
            options: options
                .iter()
                .map(|&o| dag.node(o).assignment.apply(dag.query()))
                .collect(),
        };
        let answer = ask_with_retry(
            crowd,
            member,
            &q,
            &self.cfg.policy,
            &mut self.manifest.timeouts,
            &mut self.manifest.retries,
            &self.tele,
        );
        let outcome = match answer {
            Answer::Specialized { choice, support } => {
                let tick = self.count_question("questions.specialization");
                // PANIC-OK: callers pass a non-empty options slice and
                // the clamp keeps any crowd-supplied choice in bounds.
                let chosen = options[choice.min(options.len() - 1)];
                if self
                    .fold
                    .record(dag, tick, member, chosen, OpVerdict::Support { support })
                {
                    SpecOutcome::Jump(chosen)
                } else {
                    SpecOutcome::NoJump
                }
            }
            Answer::NoneOfThese => {
                let tick = self.count_question("questions.none_of_these");
                let options = options.to_vec();
                self.fold.record(
                    dag,
                    tick,
                    member,
                    NodeId::SENTINEL,
                    OpVerdict::NoneOfThese { options },
                );
                SpecOutcome::NoneLeft
            }
            Answer::Irrelevant { elem } => {
                let tick = self.count_question("questions.pruning");
                self.fold.record(
                    dag,
                    tick,
                    member,
                    NodeId::SENTINEL,
                    OpVerdict::Prune { elem },
                );
                SpecOutcome::NoJump
            }
            Answer::Unavailable => {
                self.available = false;
                SpecOutcome::Gone
            }
            // no give-up here: the caller falls back to a concrete probe
            // of the first option, whose own give-up guarantees progress
            Answer::NoResponse => SpecOutcome::TimedOut,
            Answer::Support { .. } => unreachable!("support answer to a specialization question"),
        };
        if self.cfg.debug_checks {
            self.check_step(dag);
        }
        outcome
    }
}

/// Finds a minimal (most general) unclassified node: DFS from the roots
/// through expanded significant nodes, then pick a ≤-minimal candidate.
/// Children of insignificant nodes are skipped — they are classified by
/// inference and need never be materialized. Nodes in `skip` (ones the
/// retry policy gave up on) are not offered as candidates; completeness
/// checks pass an empty set so a gave-up node still forces
/// `complete == false`.
pub(crate) fn find_minimal_unclassified(
    dag: &mut Dag<'_>,
    cls: &mut Classifier,
    skip: &HashSet<NodeId>,
) -> Option<NodeId> {
    let mut candidates: Vec<NodeId> = Vec::new();
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut stack: Vec<NodeId> = dag.roots().to_vec();
    seen.extend(stack.iter().copied());
    while let Some(id) = stack.pop() {
        match cls.class(dag, id) {
            Class::Unknown => {
                if !skip.contains(&id) {
                    candidates.push(id);
                }
            }
            Class::Significant => {
                for c in dag.children(id) {
                    if seen.insert(c) {
                        stack.push(c);
                    }
                }
            }
            Class::Insignificant => {}
        }
    }
    // minimal element among candidates: the first, in push order, that no
    // other candidate dominates
    candidates
        .iter()
        .copied()
        .find(|&c| !candidates.iter().any(|&d| d != c && dag.leq(d, c)))
        .or_else(|| candidates.first().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{plant_msps, synthetic_domain, MspDistribution, PlantedOracle};
    use crowd::{AnswerModel, MemberBehavior, PersonalDb, SimulatedCrowd, SimulatedMember};
    use oassis_ql::{bind, evaluate_where, parse, MatchMode};
    use ontology::domains::figure1;

    /// Build the u_avg member of Example 4.6: answers are the average of
    /// u1 and u2 — realized exactly by concatenating D_u1 with three
    /// copies of D_u2 (6 + 6 transactions with equal per-user weight).
    fn u_avg(ont: &ontology::Ontology) -> SimulatedMember {
        let [d1, d2] = figure1::personal_dbs(ont);
        let mut tx = d1;
        for _ in 0..3 {
            tx.extend(d2.iter().cloned());
        }
        SimulatedMember::new(
            PersonalDb::from_transactions(tx),
            MemberBehavior::default(),
            AnswerModel::Exact,
            0,
        )
    }

    #[test]
    fn example_4_6_running_example() {
        // Mining the simplified query at Θ = 0.4 with u_avg must find the
        // MSPs of Figure 3 — in particular (Central Park, Ball Game) and
        // (Central Park, Biking) — and classify (CP, Baseball), (CP,
        // Basketball) as insignificant.
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont)]);
        let out = run_vertical(
            &mut dag,
            &mut crowd,
            crowd::MemberId(0),
            &MiningConfig::default(),
        );
        assert!(out.complete);
        let v = ont.vocab();
        let rendered: Vec<String> = out.msps.iter().map(|m| m.apply(&b).to_display(v)).collect();
        // supports at Θ=0.4 (u_avg): Biking@CP = 5/12 ≥ 0.4 ✓;
        // BallGame@CP = avg(2/6, 1/2)=5/12 ✓; Baseball = 1/3 ✗;
        // Basketball = avg(1/6,0)=1/12 ✗; FeedMonkey@BronxZoo = avg(3/6,1/2)=1/2 ✓.
        assert!(
            rendered.iter().any(|r| r == "Biking doAt Central Park"),
            "missing Biking MSP: {rendered:?}"
        );
        assert!(rendered.iter().any(|r| r == "Ball Game doAt Central Park"));
        assert!(rendered.iter().any(|r| r == "Feed a Monkey doAt Bronx Zoo"));
        assert!(!rendered.iter().any(|r| r.contains("Baseball")));
        assert!(!rendered.iter().any(|r| r.contains("Basketball")));
        // all found MSPs are valid here (instances + activity classes)
        assert_eq!(out.msps.len(), out.valid_msps.len());
    }

    #[test]
    fn finds_exactly_the_planted_msps() {
        let d = synthetic_domain(80, 5, 0);
        let q = parse(&d.query).unwrap();
        let b = bind(&q, &d.ontology).unwrap();
        let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
        // ground truth on a fully materialized twin
        let mut full = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        full.materialize_all();
        let planted = plant_msps(&mut full, 10, true, MspDistribution::Uniform, 7);
        let oracle_ref = PlantedOracle::from_nodes(&full, &planted, 1, 0);
        let expected: HashSet<String> = planted
            .iter()
            .map(|&id| {
                full.node(id)
                    .assignment
                    .apply(&b)
                    .to_display(d.ontology.vocab())
            })
            .collect();

        // lazy mining run
        let mut dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        let mut oracle = PlantedOracle::new(
            d.ontology.vocab(),
            planted
                .iter()
                .map(|&id| full.node(id).assignment.apply(&b))
                .collect(),
            1,
            0,
        );
        let out = run_vertical(
            &mut dag,
            &mut oracle,
            crowd::MemberId(0),
            &MiningConfig::default(),
        );
        assert!(out.complete);
        let got: HashSet<String> = out
            .msps
            .iter()
            .map(|m| m.apply(&b).to_display(d.ontology.vocab()))
            .collect();
        assert_eq!(got, expected);
        let _ = oracle_ref;
    }

    #[test]
    fn lazy_run_materializes_fewer_nodes_than_dag() {
        let d = synthetic_domain(150, 6, 0);
        let q = parse(&d.query).unwrap();
        let b = bind(&q, &d.ontology).unwrap();
        let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
        let mut full = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        let total = full.materialize_all();
        let planted = plant_msps(&mut full, 3, true, MspDistribution::Uniform, 1);
        let mut dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        let mut oracle = PlantedOracle::from_nodes(&full, &planted, 1, 0);
        let out = run_vertical(
            &mut dag,
            &mut oracle,
            crowd::MemberId(0),
            &MiningConfig::default(),
        );
        assert!(out.complete);
        assert!(
            out.nodes_materialized < total,
            "{} < {}",
            out.nodes_materialized,
            total
        );
        // and far fewer questions than nodes (inference prunes)
        assert!(
            out.questions < total / 2,
            "{} questions for {} nodes",
            out.questions,
            total
        );
    }

    #[test]
    fn specialization_questions_reduce_question_count() {
        let d = synthetic_domain(200, 6, 0);
        let q = parse(&d.query).unwrap();
        let b = bind(&q, &d.ontology).unwrap();
        let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
        let mut full = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        full.materialize_all();
        let planted = plant_msps(&mut full, 8, true, MspDistribution::Uniform, 3);

        let run = |ratio: f64| {
            let mut dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
            let mut oracle = PlantedOracle::from_nodes(&full, &planted, 1, 0);
            let cfg = MiningConfig {
                specialization_ratio: ratio,
                ..Default::default()
            };
            let out = run_vertical(&mut dag, &mut oracle, crowd::MemberId(0), &cfg);
            assert!(out.complete);
            (out.questions, out.msps.len())
        };
        let (q0, m0) = run(0.0);
        let (q1, m1) = run(1.0);
        assert_eq!(m0, m1); // same MSP count either way
        assert!(
            q1 <= q0,
            "spec questions should not increase count: {q1} vs {q0}"
        );
    }

    #[test]
    fn question_budget_stops_early() {
        let d = synthetic_domain(150, 6, 0);
        let q = parse(&d.query).unwrap();
        let b = bind(&q, &d.ontology).unwrap();
        let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
        let mut full = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        full.materialize_all();
        let planted = plant_msps(&mut full, 6, true, MspDistribution::Uniform, 2);
        let mut dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        let mut oracle = PlantedOracle::from_nodes(&full, &planted, 1, 0);
        let cfg = MiningConfig {
            max_questions: Some(10),
            ..Default::default()
        };
        let out = run_vertical(&mut dag, &mut oracle, crowd::MemberId(0), &cfg);
        assert!(!out.complete);
        assert!(out.questions <= 10);
    }

    #[test]
    fn member_leaving_stops_the_run() {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let [d1, _] = figure1::personal_dbs(&ont);
        let member = SimulatedMember::new(
            PersonalDb::from_transactions(d1),
            MemberBehavior {
                session_limit: Some(3),
                ..Default::default()
            },
            AnswerModel::Exact,
            0,
        );
        let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![member]);
        let out = run_vertical(
            &mut dag,
            &mut crowd,
            crowd::MemberId(0),
            &MiningConfig::default(),
        );
        assert!(!out.complete);
        assert_eq!(out.questions, 3);
    }

    #[test]
    fn events_are_monotone_in_questions() {
        let d = synthetic_domain(100, 5, 0);
        let q = parse(&d.query).unwrap();
        let b = bind(&q, &d.ontology).unwrap();
        let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
        let mut full = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        full.materialize_all();
        let planted = plant_msps(&mut full, 5, true, MspDistribution::Uniform, 4);
        let mut dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        let mut oracle = PlantedOracle::from_nodes(&full, &planted, 1, 0);
        let out = run_vertical(
            &mut dag,
            &mut oracle,
            crowd::MemberId(0),
            &MiningConfig::default(),
        );
        let mut last_q = 0;
        let mut last_total = 0;
        for e in &out.events {
            assert!(e.question >= last_q);
            last_q = e.question;
            if let DiscoveryKind::ValidClassified { total } = e.kind {
                assert!(total >= last_total);
                last_total = total;
            }
        }
        // everything classified at the end
        let n_msp_events = out
            .events
            .iter()
            .filter(|e| matches!(e.kind, DiscoveryKind::Msp { .. }))
            .count();
        assert_eq!(n_msp_events, out.msps.len());
    }

    #[test]
    fn pruning_answers_classify_without_extra_questions() {
        let d = synthetic_domain(150, 6, 0);
        let q = parse(&d.query).unwrap();
        let b = bind(&q, &d.ontology).unwrap();
        let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
        let mut full = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        full.materialize_all();
        let planted = plant_msps(&mut full, 4, true, MspDistribution::Uniform, 6);
        let patterns: Vec<_> = planted
            .iter()
            .map(|&id| full.node(id).assignment.apply(&b))
            .collect();

        let run = |pruning: f64| {
            let mut dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
            let mut oracle = PlantedOracle::new(d.ontology.vocab(), patterns.clone(), 1, 0);
            oracle.pruning_prob = pruning;
            let out = run_vertical(
                &mut dag,
                &mut oracle,
                crowd::MemberId(0),
                &MiningConfig::default(),
            );
            assert!(out.complete, "run with pruning={pruning} incomplete");
            (out.questions, out.msps.len())
        };
        let (q0, m0) = run(0.0);
        let (q1, m1) = run(0.5);
        assert_eq!(m0, m1);
        // pruning can only help or tie (it classifies cones across slots)
        assert!(q1 <= q0 + 2, "pruning hurt: {q1} vs {q0}");
    }
}
