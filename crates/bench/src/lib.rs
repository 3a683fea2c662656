//! Shared infrastructure for the experiment harness: aligned-table and CSV
//! output, domain crowd construction, and the per-domain experiment
//! drivers that regenerate the paper's figures (see DESIGN.md §4 and
//! EXPERIMENTS.md for the experiment ↔ figure mapping).

#![forbid(unsafe_code)]
#![deny(unused_must_use)]

use crowd::population::{generate, HabitProfile, PopulationConfig};
use crowd::{AnswerModel, MemberBehavior, SimulatedCrowd, SimulatedMember};
use oassis_core::{
    run_multi, Dag, FixedSampleAggregator, MiningConfig, MultiOutcome, QuestionStats,
};
use oassis_ql::{bind, evaluate_where, BoundQuery, MatchMode};
use ontology::domains::GeneratedDomain;
use ontology::Ontology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Display;
use std::fs;
use std::path::PathBuf;

/// Prints an aligned table to stdout.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n== {title} ==");
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for r in &rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(c.len())))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&headers);
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for r in &rows {
        line(r);
    }
}

/// Writes a CSV under `<workspace>/results/`.
pub fn write_csv<H: Display, C: Display>(name: &str, headers: &[H], rows: &[Vec<C>]) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let _ = fs::create_dir_all(&dir);
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| h.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for r in rows {
        out.push_str(
            &r.iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
    }
    let path = dir.join(format!("{name}.csv"));
    fs::write(&path, out).expect("write results csv");
    println!("  → results/{name}.csv");
}

/// Planted habit strengths for a domain crowd: a mix of strong, medium and
/// weak habits so that the threshold sweep of Figure 4 yields declining
/// MSP counts.
pub fn domain_profiles(domain: &GeneratedDomain, n: usize, seed: u64) -> Vec<HabitProfile> {
    use rand::seq::SliceRandom;
    let v = domain.ontology.vocab();
    let mut rng = StdRng::seed_from_u64(seed);
    let fact = |v: &ontology::Vocabulary, s: &str, r: &str, o: &str| {
        v.fact(s, r, o)
            .unwrap_or_else(|| panic!("domain term {s} {r} {o}"))
    };
    // Distinct anchor coordinates per habit: habits sharing a place (or a
    // drink / remedy) co-occur within transactions and make value *pairs*
    // significant, exploding the multiplicity lattice far beyond the
    // paper's statistics. Distinct anchors keep co-occurrence to the
    // deliberate within-profile extras.
    let mut anchors: Vec<usize> = (1..=30).collect();
    anchors.shuffle(&mut rng);
    let mut drink_anchors: Vec<usize> = (1..=145).collect();
    drink_anchors.shuffle(&mut rng);
    let mut remedy_anchors: Vec<usize> = (1..=41).collect();
    remedy_anchors.shuffle(&mut rng);
    let mut profiles = Vec::with_capacity(n);
    for i in 0..n {
        // Strength tiers. All frequencies stay below ~0.42 so that the
        // *product* of two independent habits stays under the 5-point
        // scale's lowest positive bucket (0.125): cross-habit value pairs
        // then report "never" and the multiplicity lattice stays as thin
        // as the paper observed (≤ 25 multiplicity MSPs). Deliberate
        // multiplicity MSPs come from the within-profile extras below.
        let frequency = match i % 5 {
            0 => rng.gen_range(0.36..0.42),
            1 | 2 => rng.gen_range(0.26..0.34),
            3 => rng.gen_range(0.18..0.26),
            _ => rng.gen_range(0.05..0.12),
        };
        let adoption = rng.gen_range(0.8..0.98);
        let facts = match domain.name {
            "travel" => {
                let a = anchors[i % anchors.len()];
                let k = rng.gen_range(1..=36);
                let r = rng.gen_range(1..=2);
                let s = rng.gen_range(1..=6);
                let mut f = vec![
                    fact(
                        v,
                        &format!("ActivityKind{k}"),
                        "doAt",
                        &format!("Attraction{a}"),
                    ),
                    fact(v, &format!("Snack{s}"), "eatAt", &format!("Restaurant{r}")),
                ];
                if rng.gen_bool(0.15) {
                    // co-occurring extra activity → multiplicity MSPs
                    let k2 = rng.gen_range(1..=36);
                    f.push(fact(
                        v,
                        &format!("ActivityKind{k2}"),
                        "doAt",
                        &format!("Attraction{a}"),
                    ));
                }
                if rng.gen_bool(0.1) {
                    // MORE-style tip fact
                    f.push(fact(v, "Rent Gear", "doAt", &format!("Attraction{a}")));
                }
                f
            }
            "culinary" => {
                let k = drink_anchors[i % drink_anchors.len()];
                let d = rng.gen_range(1..=71);
                let mut f = vec![fact(
                    v,
                    &format!("DishKind{d}"),
                    "servedWith",
                    &format!("DrinkKind{k}"),
                )];
                if rng.gen_bool(0.2) {
                    let d2 = rng.gen_range(1..=71);
                    f.push(fact(
                        v,
                        &format!("DishKind{d2}"),
                        "servedWith",
                        &format!("DrinkKind{k}"),
                    ));
                }
                f
            }
            _ => {
                let r = remedy_anchors[i % remedy_anchors.len()];
                let s = rng.gen_range(1..=54);
                vec![fact(
                    v,
                    &format!("RemedyKind{r}"),
                    "takenFor",
                    &format!("SymptomKind{s}"),
                )]
            }
        };
        profiles.push(HabitProfile {
            facts,
            adoption,
            frequency,
        });
    }
    profiles
}

/// The crowd used for the "real crowd" substitutions (DESIGN.md §5):
/// members matching the paper's observed behaviour (bounded sessions,
/// 5-point answer scale, pruning clicks, volunteered tips).
pub fn domain_crowd<'v>(
    domain: &GeneratedDomain,
    vocab: &'v ontology::Vocabulary,
    members: usize,
    habits: usize,
    seed: u64,
) -> SimulatedCrowd<'v> {
    let profiles = domain_profiles(domain, habits, seed);
    let cfg = PopulationConfig {
        members,
        transactions: (20, 40),
        behavior: MemberBehavior {
            session_limit: Some(30),
            pruning_prob: 0.25,
            more_tip_prob: 0.05,
            spammer: false,
            stall_every: None,
        },
        answer_model: AnswerModel::Bucketed5,
        seed,
        ..Default::default()
    };
    let members: Vec<SimulatedMember> = generate(&profiles, &cfg);
    SimulatedCrowd::new(vocab, members)
}

/// One threshold's worth of Figure-4 statistics.
#[derive(Debug, Clone)]
pub struct DomainRun {
    /// Support threshold Θ.
    // audit: allow(D8, run input not an outcome; the caller keys runs by threshold already)
    pub threshold: f64,
    /// Total MSPs.
    pub msps: usize,
    /// Valid MSPs.
    pub valid_msps: usize,
    /// Answers used by the algorithm at this threshold.
    pub questions: usize,
    /// Exhaustive-baseline answer count (5 per valid assignment).
    // audit: allow(D8, derived 5x from total_valid which the digest already folds)
    pub baseline_questions: usize,
    /// Whether the run converged.
    pub complete: bool,
    /// Unclassified materialized nodes at the end.
    pub undecided: usize,
    /// Answer-type mix.
    // audit: allow(D8, reporting breakdown of questions; the digest folds the authoritative total)
    pub question_stats: QuestionStats,
    /// Full event stream (for pace curves).
    pub outcome_events: Vec<oassis_core::DiscoveryEvent>,
    /// Valid base assignment count.
    pub total_valid: usize,
    /// Nodes materialized by the lazy generator.
    pub nodes_materialized: usize,
    /// Validity-oracle calls (lazy-generation cost measure).
    // audit: allow(D8, cost instrumentation; not part of the semantic outcome)
    pub admits_calls: usize,
    /// Rounds in which at least one question was asked (deliberately
    /// excluded from [`digest_domain_run`]: the round count is what
    /// batching is *supposed* to change).
    // audit: allow(D8, deliberately excluded - the round count is what batching is supposed to change)
    pub rounds: usize,
}

/// Binds a domain's query.
pub fn bind_domain(domain: &GeneratedDomain) -> BoundQuery {
    let q = oassis_ql::parse(&domain.query).expect("domain query parses");
    bind(&q, &domain.ontology).expect("domain query binds")
}

/// The paper's experimental aggregation black box: 5 answers, mean ≥ Θ.
pub fn paper_aggregator() -> FixedSampleAggregator {
    FixedSampleAggregator { sample_size: 5 }
}

/// Runs one domain query at one threshold with the standard crowd,
/// re-using `cache` across thresholds exactly as in Section 6.3.
#[allow(clippy::too_many_arguments)]
pub fn run_domain_at(
    domain: &GeneratedDomain,
    bound: &BoundQuery,
    ont: &Ontology,
    cache: &mut oassis_core::CrowdCache,
    threshold: f64,
    members: usize,
    habits: usize,
    seed: u64,
) -> DomainRun {
    run_domain_at_traced(
        domain,
        bound,
        ont,
        cache,
        threshold,
        members,
        habits,
        seed,
        &telemetry::Telemetry::off(),
    )
}

/// [`run_domain_at`] with a telemetry handle attached to the mining
/// engine, so the perf harness can record per-phase span totals and
/// engine counters for one instrumented (untimed) pass. With
/// `Telemetry::off()` this is exactly [`run_domain_at`].
#[allow(clippy::too_many_arguments)]
pub fn run_domain_at_traced(
    domain: &GeneratedDomain,
    bound: &BoundQuery,
    ont: &Ontology,
    cache: &mut oassis_core::CrowdCache,
    threshold: f64,
    members: usize,
    habits: usize,
    seed: u64,
    tele: &telemetry::Telemetry,
) -> DomainRun {
    run_domain_at_batched(
        domain, bound, ont, cache, threshold, members, habits, seed, 1, tele,
    )
}

/// [`run_domain_at_traced`] with an explicit question-batch width for the
/// planner (`batch_width = 1` is the unbatched algorithm and what every
/// other entry point uses; see `MiningConfig::batch_width`).
#[allow(clippy::too_many_arguments)]
pub fn run_domain_at_batched(
    domain: &GeneratedDomain,
    bound: &BoundQuery,
    ont: &Ontology,
    cache: &mut oassis_core::CrowdCache,
    threshold: f64,
    members: usize,
    habits: usize,
    seed: u64,
    batch_width: usize,
    tele: &telemetry::Telemetry,
) -> DomainRun {
    let base = oassis_ql::evaluate_where(bound, ont, MatchMode::Exact);
    let mut dag = Dag::new(bound, ont.vocab(), &base);
    let crowd = domain_crowd(domain, ont.vocab(), members, habits, seed);
    let mut caching = oassis_core::CachingCrowd::new(crowd, cache);
    let cfg = MiningConfig {
        threshold: Some(threshold),
        specialization_ratio: 0.12, // the ratio observed in the paper's crowd
        seed,
        batch_width,
        telemetry: tele.clone(),
        ..Default::default()
    };
    let out: MultiOutcome = run_multi(&mut dag, &mut caching, &paper_aggregator(), &cfg);
    let baseline_questions = 5 * (out.mining.total_valid + out.mining.valid_mult_nodes);
    DomainRun {
        threshold,
        msps: out.mining.msps.len(),
        valid_msps: out.mining.valid_msps.len(),
        questions: out.mining.questions,
        baseline_questions,
        complete: out.mining.complete,
        undecided: out.undecided,
        question_stats: out.question_stats,
        outcome_events: out.mining.events,
        total_valid: out.mining.total_valid,
        nodes_materialized: out.mining.nodes_materialized,
        admits_calls: out.mining.gen_stats.admits_calls,
        rounds: out.rounds,
    }
}

/// FNV-1a digest of a [`DomainRun`]'s mining outcome — the equivalence
/// currency of the perf harnesses: two runs with equal digests asked the
/// same questions and reached the same conclusions in the same order.
pub fn digest_domain_run(run: &DomainRun) -> u64 {
    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn word(h: &mut u64, v: usize) {
        fnv(h, &(v as u64).to_le_bytes());
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    word(&mut h, run.questions);
    word(&mut h, run.msps);
    word(&mut h, run.valid_msps);
    word(&mut h, run.undecided);
    word(&mut h, run.total_valid);
    word(&mut h, run.nodes_materialized);
    word(&mut h, usize::from(run.complete));
    for e in &run.outcome_events {
        word(&mut h, e.question);
        fnv(&mut h, format!("{:?}", e.kind).as_bytes());
    }
    h
}

/// A *pure* domain crowd for concurrent workloads: same habit profiles as
/// [`domain_crowd`] but with default behaviour (no pruning clicks, no
/// volunteered tips, unbounded sessions) and the rng-free 5-point answer
/// scale. Such members' answers are pure functions of the question, so a
/// shared [`oassis_core::SharedCrowdCache`] can absorb any subset of the
/// questions without altering the remaining answers — the property that
/// makes concurrent multi-query outcomes independent of scheduling.
pub fn pure_domain_crowd<'v>(
    domain: &GeneratedDomain,
    vocab: &'v ontology::Vocabulary,
    members: usize,
    habits: usize,
    seed: u64,
) -> SimulatedCrowd<'v> {
    let profiles = domain_profiles(domain, habits, seed);
    let cfg = PopulationConfig {
        members,
        transactions: (20, 40),
        behavior: MemberBehavior::default(),
        answer_model: AnswerModel::Bucketed5,
        seed,
        ..Default::default()
    };
    let members: Vec<SimulatedMember> = generate(&profiles, &cfg);
    SimulatedCrowd::new(vocab, members)
}

/// Fully materializes a domain DAG without multiplicities (the paper's
/// reported DAG sizes).
pub fn domain_dag_size(domain: &GeneratedDomain, bound: &BoundQuery) -> usize {
    let base = evaluate_where(bound, &domain.ontology, MatchMode::Exact);
    let mut dag = Dag::new(bound, domain.ontology.vocab(), &base).without_multiplicities();
    dag.materialize_all()
}

/// Question counts at the requested percentages of (valid-)MSP discovery,
/// extracted from a run's event stream (`None` when unreached).
pub fn questions_at_percentiles(
    events: &[oassis_core::DiscoveryEvent],
    valid_only: bool,
    percents: &[usize],
) -> Vec<Option<usize>> {
    let msp_questions: Vec<usize> = events
        .iter()
        .filter_map(|e| match e.kind {
            oassis_core::DiscoveryKind::Msp { valid } if valid || !valid_only => Some(e.question),
            _ => None,
        })
        .collect();
    let n = msp_questions.len();
    percents
        .iter()
        .map(|&p| {
            if n == 0 {
                return None;
            }
            let k = (p * n).div_ceil(100).clamp(1, n);
            Some(msp_questions[k - 1])
        })
        .collect()
}

/// Mean over trials of per-percentile question counts, ignoring trials
/// where the percentile was not reached.
pub fn mean_percentiles(per_trial: &[Vec<Option<usize>>]) -> Vec<Option<f64>> {
    if per_trial.is_empty() {
        return Vec::new();
    }
    let cols = per_trial[0].len();
    (0..cols)
        .map(|c| {
            let vals: Vec<f64> = per_trial
                .iter()
                .filter_map(|t| t[c].map(|x| x as f64))
                .collect();
            if vals.is_empty() {
                None
            } else {
                Some(vals.iter().sum::<f64>() / vals.len() as f64)
            }
        })
        .collect()
}

/// Formats an optional float for tables.
pub fn fmt_opt(x: Option<f64>) -> String {
    x.map_or("–".to_owned(), |v| format!("{v:.0}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_core::{DiscoveryEvent, DiscoveryKind};

    #[test]
    fn percentile_extraction() {
        let events: Vec<DiscoveryEvent> = [3usize, 10, 20, 40]
            .iter()
            .map(|&q| DiscoveryEvent {
                question: q,
                kind: DiscoveryKind::Msp { valid: true },
            })
            .collect();
        let got = questions_at_percentiles(&events, true, &[25, 50, 75, 100]);
        assert_eq!(got, vec![Some(3), Some(10), Some(20), Some(40)]);
        assert_eq!(questions_at_percentiles(&[], true, &[50]), vec![None]);
    }

    #[test]
    fn mean_over_trials_skips_unreached() {
        let trials = vec![vec![Some(10), None], vec![Some(20), Some(100)]];
        let m = mean_percentiles(&trials);
        assert_eq!(m, vec![Some(15.0), Some(100.0)]);
    }

    #[test]
    fn domain_profiles_are_deterministic() {
        let d = ontology::domains::travel(ontology::domains::DomainScale::paper());
        let a = domain_profiles(&d, 10, 1);
        let b = domain_profiles(&d, 10, 1);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.facts, y.facts);
        }
    }
}
