//! The comparison algorithms of Section 6.4.
//!
//! * [`run_horizontal`] — "Inspired by the classic Apriori algorithm, this
//!   algorithm asks about assignment φ only after verifying that all of its
//!   predecessors are significant."
//! * [`run_naive`] — "randomly chooses an assignment among the valid ones."
//! * [`baseline_question_count`] — the exhaustive baseline of Section 6.3:
//!   `sample_size` questions for every valid assignment, no traversal
//!   order, no inference (the `baseline%` denominator of Figures 4a–4c).
//!
//! Both algorithms "use the same inference scheme as our algorithm and
//! avoid questions on classified assignments"; they run over a
//! pre-materialized DAG (the paper fed the naive algorithm the assignments
//! the vertical algorithm had generated, for fairness).

// audit: allow-file(D4, baseline replays index structures sized by the same domain that produced the indices)
use crate::classify::Class;
use crate::dag::{Dag, NodeId};
use crate::fold::Fold;
use crate::oplog::OpVerdict;
use crate::vertical::{MiningConfig, MiningOutcome, Session};
use crowd::{CrowdSource, MemberId};
use rand::seq::SliceRandom;
use std::collections::HashSet;

/// Questions the exhaustive baseline would ask: `sample_size` per valid
/// assignment.
pub fn baseline_question_count(dag: &mut Dag<'_>, sample_size: usize) -> usize {
    let valid = dag.node_ids().filter(|&i| dag.node(i).valid).count();
    valid * sample_size
}

/// Incrementally detects assignments whose MSP status is *entailed* by the
/// fold's current classification: known significant, children generated, and
/// every child known non-significant.
///
/// An update re-checks only what the knowledge added since the previous
/// update can have changed. A child that a check saw `Unknown` carries no
/// `Queried` stamp, so its class is a monotone function of the pruning
/// clicks, the significant witnesses and the insignificant witnesses
/// (derived stamps come only from witnesses). It can leave `Unknown` only
/// when a click arrives, a new significant witness `w` has `c ≤ w`, or a
/// new insignificant witness `w` has `w ≤ c`. A blocked witness whose
/// blocking child none of those reach would look it up, get `Unknown`
/// again and stamp nothing, so it is kept without the lookup.
pub(crate) struct MspMonitor {
    /// High-water marks into the classifier's append-only witness lists
    /// and its click count, as of the previous update.
    sig_seen: usize,
    insig_seen: usize,
    clicks_seen: usize,
    /// Directly-witnessed significant nodes not yet confirmed as MSPs,
    /// kept in witness order so confirmation events fire in the same
    /// order as a full witness-list rescan would emit them.
    pending: Vec<Pending>,
    /// Children classified by the scans, for the `msp_monitor.rechecks`
    /// counter.
    rechecks: u64,
}

struct Pending {
    witness: NodeId,
    /// Resume index into the witness's child list: children before it
    /// were already seen `Insignificant`, which is sticky, so a re-check
    /// picks up where the last one stopped instead of rescanning.
    resume: u32,
    /// The child at `resume` when the last check stopped on it `Unknown`;
    /// `None` when the witness has not been checked with its children
    /// generated, or new knowledge can reach that child.
    blocked_on: Option<NodeId>,
}

impl MspMonitor {
    pub fn new() -> Self {
        MspMonitor {
            sig_seen: 0,
            insig_seen: 0,
            clicks_seen: 0,
            pending: Vec::new(),
            rechecks: 0,
        }
    }

    /// Children the monitor has classified so far.
    pub fn rechecks(&self) -> u64 {
        self.rechecks
    }

    /// Scans for newly entailed MSPs and confirms each through the fold,
    /// as an [`OpVerdict::Msp`] op by `member` at the current tick.
    ///
    /// Only directly-witnessed significant nodes can be MSPs: a node that
    /// is significant purely by inference sits below its witness and thus
    /// has a significant successor. Each witness enters `pending` once (the
    /// witness list is append-only and duplicate-free) and leaves it when
    /// confirmed; a pending witness blocked on a child no new knowledge
    /// reaches is skipped (see the type's docs).
    pub fn update(&mut self, dag: &Dag<'_>, fold: &mut Fold<'_>, member: MemberId) {
        let cls = fold.classifier();
        // PANIC-OK: the cursors only advance to previously observed
        // lengths of append-only lists.
        let new_sig = &cls.sig_witnesses()[self.sig_seen..];
        // PANIC-OK: as above.
        let new_insig = &cls.insig_witnesses()[self.insig_seen..];
        let clicked = cls.pruned_clicks() != self.clicks_seen;
        for p in &mut self.pending {
            if let Some(c) = p.blocked_on {
                if clicked
                    || new_sig.iter().any(|&w| dag.leq(c, w))
                    || new_insig.iter().any(|&w| dag.leq(w, c))
                {
                    p.blocked_on = None;
                }
            }
        }
        self.pending.extend(new_sig.iter().map(|&witness| Pending {
            witness,
            resume: 0,
            blocked_on: None,
        }));
        self.sig_seen = cls.sig_witnesses().len();
        self.insig_seen = cls.insig_witnesses().len();
        self.clicks_seen = cls.pruned_clicks();
        let mut confirmed: Vec<NodeId> = Vec::new();
        let rechecks = &mut self.rechecks;
        self.pending.retain_mut(|p| {
            if p.blocked_on.is_some() {
                return true;
            }
            let Some(children) = dag.children_if_generated(p.witness) else {
                return true;
            };
            let mut i = p.resume as usize;
            while let Some(&c) = children.get(i) {
                *rechecks += 1;
                // `class` (not `class_frozen`): the scan must *stamp* each
                // child it inspects, exactly as the historical rescan did —
                // stickiness makes the stamping order observable. The
                // cached fast path is a no-op for already-stamped children.
                let cl = match fold.classifier().cached_queried(c) {
                    Some(cl) => cl,
                    None => fold.class(dag, c),
                };
                match cl {
                    Class::Insignificant => i += 1,
                    // A queried Significant child is sticky: this witness
                    // can never become maximal — and the historical rescan
                    // would short-circuit here on every later update
                    // without stamping anything new, so dropping it is
                    // observation-identical.
                    Class::Significant => return false,
                    Class::Unknown => {
                        p.resume = i as u32;
                        p.blocked_on = Some(c);
                        return true;
                    }
                }
            }
            confirmed.push(p.witness);
            false
        });
        let tick = fold.questions();
        for id in confirmed {
            let valid = dag.node(id).valid;
            fold.record(dag, tick, member, id, OpVerdict::Msp { valid });
        }
    }
}

/// Runs the horizontal (Apriori-style, levelwise) baseline.
///
/// The DAG should be pre-materialized (e.g. via
/// [`Dag::materialize_all`]); lazily generated parts are expanded as the
/// frontier reaches them.
pub fn run_horizontal<C: CrowdSource>(
    dag: &mut Dag<'_>,
    crowd: &mut C,
    member: MemberId,
    cfg: &MiningConfig,
) -> MiningOutcome {
    let root = cfg.telemetry.span("mine.horizontal");
    let mut s = Session::new(dag, cfg, root.tele().clone());
    let mut monitor = MspMonitor::new();

    // levelwise frontier: a node is asked only when all its materialized
    // parents are significant
    let mut queue: Vec<NodeId> = dag.roots().to_vec();
    let mut queued: HashSet<NodeId> = queue.iter().copied().collect();
    let mut qi = 0;
    // consecutive re-queues without an ask; once every pending node has
    // been re-queued with no progress (a gave-up parent stays Unknown
    // forever) the frontier is stuck and the run degrades gracefully
    let mut stalled = 0usize;
    while qi < queue.len() {
        if s.exhausted() {
            break;
        }
        let id = queue[qi];
        qi += 1;
        let class = match s.fold.class(dag, id) {
            Class::Unknown => {
                let parents_ok = dag
                    .parents(id)
                    .all(|p| s.fold.class(dag, p) == Class::Significant);
                if !parents_ok {
                    // re-queue: a later classification may unlock it
                    if s.fold.class(dag, id) == Class::Unknown {
                        stalled += 1;
                        if stalled > queue.len() - qi {
                            break;
                        }
                        queue.push(id);
                    }
                    continue;
                }
                if s.gave_up_set.contains(&id) {
                    // the retry policy already gave up on this node
                    continue;
                }
                stalled = 0;
                let sig = s.ask_concrete(dag, crowd, member, id);
                monitor.update(dag, &mut s.fold, member);
                if sig {
                    Class::Significant
                } else {
                    Class::Insignificant
                }
            }
            c => {
                stalled = 0;
                c
            }
        };
        if class == Class::Significant {
            for c in dag.children(id) {
                if queued.insert(c) {
                    queue.push(c);
                }
            }
        }
    }
    // final sweep for entailed MSPs
    monitor.update(dag, &mut s.fold, member);
    let complete = s.available
        && !s.exhausted_budget()
        && crate::vertical::find_minimal_unclassified(
            dag,
            s.fold.classifier_mut(),
            &HashSet::new(),
        )
        .is_none();
    s.finish(dag, complete)
}

/// Runs the naive baseline: random order over the **valid** assignments of
/// a pre-materialized DAG, with inference.
pub fn run_naive<C: CrowdSource>(
    dag: &mut Dag<'_>,
    crowd: &mut C,
    member: MemberId,
    cfg: &MiningConfig,
) -> MiningOutcome {
    let root = cfg.telemetry.span("mine.naive");
    let mut s = Session::new(dag, cfg, root.tele().clone());
    let mut monitor = MspMonitor::new();

    let mut order: Vec<NodeId> = dag.node_ids().filter(|&i| dag.node(i).valid).collect();
    order.shuffle(&mut s.rng);
    for id in order {
        if s.exhausted() {
            break;
        }
        if s.fold.class(dag, id) != Class::Unknown {
            continue;
        }
        s.ask_concrete(dag, crowd, member, id);
        monitor.update(dag, &mut s.fold, member);
    }
    // classify leftover non-valid nodes so the MSP sweep can conclude:
    // the naive algorithm only *asks* valid assignments, but entailment
    // over the expanded DAG still applies.
    monitor.update(dag, &mut s.fold, member);
    let all_resolved = s
        .gave_up
        .iter()
        .all(|&id| s.fold.classifier().class_frozen(dag, id) != Class::Unknown);
    let complete = s.available && !s.exhausted_budget() && all_resolved;
    s.finish(dag, complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{plant_msps, synthetic_domain, MspDistribution, PlantedOracle};
    use crate::vertical::run_vertical;
    use oassis_ql::{bind, evaluate_where, parse, MatchMode};

    struct Setup {
        ont: ontology::Ontology,
        query: String,
    }

    fn setup(width: usize, depth: usize) -> Setup {
        let d = synthetic_domain(width, depth, 0);
        Setup {
            ont: d.ontology,
            query: d.query,
        }
    }

    fn msp_names(
        out: &MiningOutcome,
        b: &oassis_ql::BoundQuery,
        ont: &ontology::Ontology,
    ) -> HashSet<String> {
        out.msps
            .iter()
            .map(|m| m.apply(b).to_display(ont.vocab()))
            .collect()
    }

    #[test]
    fn all_three_algorithms_agree_on_msps() {
        let su = setup(100, 5);
        let q = parse(&su.query).unwrap();
        let b = bind(&q, &su.ont).unwrap();
        let base = evaluate_where(&b, &su.ont, MatchMode::Exact);
        let mut full = Dag::new(&b, su.ont.vocab(), &base).without_multiplicities();
        full.materialize_all();
        let planted = plant_msps(&mut full, 8, true, MspDistribution::Uniform, 11);
        let patterns: Vec<_> = planted
            .iter()
            .map(|&id| full.node(id).assignment.apply(&b))
            .collect();
        let cfg = MiningConfig::default();

        let run = |which: &str| {
            let mut dag = Dag::new(&b, su.ont.vocab(), &base).without_multiplicities();
            let mut oracle = PlantedOracle::new(su.ont.vocab(), patterns.clone(), 1, 0);
            let out = match which {
                "vertical" => run_vertical(&mut dag, &mut oracle, MemberId(0), &cfg),
                "horizontal" => {
                    dag.materialize_all();
                    run_horizontal(&mut dag, &mut oracle, MemberId(0), &cfg)
                }
                _ => {
                    dag.materialize_all();
                    run_naive(&mut dag, &mut oracle, MemberId(0), &cfg)
                }
            };
            (msp_names(&out, &b, &su.ont), out.questions)
        };
        let (v_msps, v_q) = run("vertical");
        let (h_msps, _h_q) = run("horizontal");
        let (n_msps, n_q) = run("naive");
        assert_eq!(v_msps, h_msps);
        assert_eq!(v_msps, n_msps);
        assert_eq!(v_msps.len(), 8);
        // vertical beats naive on question count at low MSP density
        assert!(v_q < n_q, "vertical {v_q} vs naive {n_q}");
    }

    #[test]
    fn horizontal_asks_predecessors_first() {
        // With a single planted deep MSP, horizontal asks at least as many
        // questions as vertical (it verifies every level fully).
        let su = setup(120, 6);
        let q = parse(&su.query).unwrap();
        let b = bind(&q, &su.ont).unwrap();
        let base = evaluate_where(&b, &su.ont, MatchMode::Exact);
        let mut full = Dag::new(&b, su.ont.vocab(), &base).without_multiplicities();
        full.materialize_all();
        let planted = plant_msps(&mut full, 2, true, MspDistribution::Uniform, 3);
        let patterns: Vec<_> = planted
            .iter()
            .map(|&id| full.node(id).assignment.apply(&b))
            .collect();
        let cfg = MiningConfig::default();

        let mut dagv = Dag::new(&b, su.ont.vocab(), &base).without_multiplicities();
        let mut ov = PlantedOracle::new(su.ont.vocab(), patterns.clone(), 1, 0);
        let out_v = run_vertical(&mut dagv, &mut ov, MemberId(0), &cfg);

        let mut dagh = Dag::new(&b, su.ont.vocab(), &base).without_multiplicities();
        dagh.materialize_all();
        let mut oh = PlantedOracle::new(su.ont.vocab(), patterns.clone(), 1, 0);
        let out_h = run_horizontal(&mut dagh, &mut oh, MemberId(0), &cfg);

        assert_eq!(
            msp_names(&out_v, &b, &su.ont),
            msp_names(&out_h, &b, &su.ont)
        );
        assert!(
            out_v.questions <= out_h.questions + 2,
            "vertical {} vs horizontal {}",
            out_v.questions,
            out_h.questions
        );
    }

    #[test]
    fn baseline_count_is_five_per_valid() {
        let su = setup(60, 4);
        let q = parse(&su.query).unwrap();
        let b = bind(&q, &su.ont).unwrap();
        let base = evaluate_where(&b, &su.ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, su.ont.vocab(), &base).without_multiplicities();
        let n = dag.materialize_all();
        assert_eq!(baseline_question_count(&mut dag, 5), n * 5); // all valid here
    }

    #[test]
    fn naive_respects_question_budget() {
        let su = setup(100, 5);
        let q = parse(&su.query).unwrap();
        let b = bind(&q, &su.ont).unwrap();
        let base = evaluate_where(&b, &su.ont, MatchMode::Exact);
        let mut full = Dag::new(&b, su.ont.vocab(), &base).without_multiplicities();
        full.materialize_all();
        let planted = plant_msps(&mut full, 4, true, MspDistribution::Uniform, 1);
        let patterns: Vec<_> = planted
            .iter()
            .map(|&id| full.node(id).assignment.apply(&b))
            .collect();
        let mut dag = Dag::new(&b, su.ont.vocab(), &base).without_multiplicities();
        dag.materialize_all();
        let mut oracle = PlantedOracle::new(su.ont.vocab(), patterns, 1, 0);
        let cfg = MiningConfig {
            max_questions: Some(7),
            ..Default::default()
        };
        let out = run_naive(&mut dag, &mut oracle, MemberId(0), &cfg);
        assert!(out.questions <= 7);
        assert!(!out.complete || out.msps.len() <= 4);
    }
}
