//! The simulation harness: seed → world → schedule → differential runs.
//!
//! One seed deterministically derives a synthetic world (a planted-MSP
//! DAG and a pure oracle crowd), a fault [`Schedule`], and a
//! [`CrowdPolicy`]. The harness then runs every engine — `run_naive`,
//! `run_vertical`, `run_horizontal` and `run_multi` — against the *same*
//! schedule and checks:
//!
//! * **Differential oracle (fault-free):** all engines report the same
//!   MSP set, and it equals the planted ground truth.
//! * **Degradation (faulty):** no engine panics (step-level invariant
//!   checkers are armed via `debug_checks`), question budgets are
//!   respected, the answered subset — reported MSPs and significant
//!   patterns — is a subset of the fault-free outcome, and a non-empty
//!   partial-answer manifest implies `complete == false`.
//! * **Determinism:** re-running the same seed reproduces bit-identical
//!   traces and outcomes.
//!
//! On failure, [`shrink_failure`] minimizes the schedule to a one-line
//! replayable counterexample via [`crate::shrink::shrink`].

// audit: allow-file(D4, sim driver; indices derive from loop bounds over structures it just built)
use crate::faulty::FaultyCrowd;
use crate::schedule::Schedule;
use crate::shrink::shrink;
use crowd::{CrowdPolicy, MemberId};
use oassis_core::synth::{plant_msps, synthetic_domain, MspDistribution, PlantedOracle};
use oassis_core::{
    run_horizontal, run_multi, run_naive, run_vertical, Assignment, Dag, FixedSampleAggregator,
    MiningConfig, MiningOutcome, PartialManifest,
};
use oassis_ql::{bind, evaluate_where, parse, BoundQuery, MatchMode};
use ontology::{PatternSet, Vocabulary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Everything one simulated session needs, all derived from one seed.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The master seed (world shape, schedule, engine RNG).
    pub seed: u64,
    /// Target width of the synthetic product DAG.
    pub width: usize,
    /// Depth of the synthetic product DAG.
    pub depth: usize,
    /// Number of planted MSPs.
    pub planted: usize,
    /// Crowd size for the multi-user engine.
    pub members: u32,
    /// The fault schedule driven through every engine.
    pub schedule: Schedule,
    /// Crowd-access policy under test.
    pub policy: CrowdPolicy,
    /// Question budget for faulty runs (`None` = unbounded).
    pub budget: Option<usize>,
}

impl SimConfig {
    /// Derives a full configuration from `seed` alone — the only input a
    /// failure report needs to quote.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD5D5_D5D5_D5D5_D5D5);
        let members = 3;
        let max_events = rng.gen_range(0..=8);
        let schedule = Schedule::generate(seed, members, 40, max_events);
        SimConfig {
            seed,
            width: rng.gen_range(20..=50),
            depth: rng.gen_range(4..=5),
            planted: rng.gen_range(2..=6),
            members,
            schedule,
            policy: CrowdPolicy::default(),
            budget: if rng.gen_bool(0.5) {
                Some(rng.gen_range(300..=600))
            } else {
                None
            },
        }
    }
}

/// The engines under differential test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineKind {
    Naive,
    Vertical,
    Horizontal,
    Multi,
}

const ENGINES: [EngineKind; 4] = [
    EngineKind::Naive,
    EngineKind::Vertical,
    EngineKind::Horizontal,
    EngineKind::Multi,
];

/// One engine's observable outcome, rendered order-independently.
#[derive(Debug, Clone, PartialEq)]
struct EngineRun {
    msps: Vec<String>,
    significant: Vec<String>,
    questions: usize,
    complete: bool,
    manifest: PartialManifest,
    trace_digest: u64,
}

impl EngineRun {
    fn digest_into(&self, h: &mut u64) {
        let fnv = |h: &mut u64, bytes: &[u8]| {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for m in &self.msps {
            fnv(h, m.as_bytes());
        }
        for s in &self.significant {
            fnv(h, s.as_bytes());
        }
        fnv(h, &(self.questions as u64).to_le_bytes());
        fnv(h, &[u8::from(self.complete)]);
        fnv(h, &(self.manifest.timeouts as u64).to_le_bytes());
        fnv(h, &(self.manifest.retries as u64).to_le_bytes());
        fnv(h, &(self.manifest.unanswered.len() as u64).to_le_bytes());
        fnv(h, &self.trace_digest.to_le_bytes());
    }
}

/// The verdict for one seed.
#[derive(Debug)]
pub struct SimReport {
    /// The seed that derives everything.
    pub seed: u64,
    /// The schedule that was driven (replayable via its
    /// [`Schedule::to_line`]).
    pub schedule: Schedule,
    /// Property violations, empty on success.
    pub failures: Vec<String>,
    /// Combined digest over every run's trace and outcome — the value
    /// that must be bit-identical across re-runs of the same seed.
    pub digest: u64,
}

impl SimReport {
    /// Whether every property held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The shared immutable world for one seed: query binding, base facts,
/// planted truth.
struct World {
    dom: oassis_core::SyntheticDomain,
    planted_display: Vec<String>,
}

fn build_world(cfg: &SimConfig) -> (World, Vec<PatternSet>) {
    let dom = synthetic_domain(cfg.width, cfg.depth, cfg.seed);
    let q = parse(&dom.query).expect("synthetic query parses");
    let b = bind(&q, &dom.ontology).expect("synthetic query binds");
    let base = evaluate_where(&b, &dom.ontology, MatchMode::Exact);
    let mut full = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    full.materialize_all();
    let planted = plant_msps(
        &mut full,
        cfg.planted,
        true,
        MspDistribution::Uniform,
        cfg.seed.wrapping_mul(31).wrapping_add(7),
    );
    let patterns: Vec<PatternSet> = planted
        .iter()
        .map(|&id| full.node(id).assignment.apply(&b))
        .collect();
    let mut planted_display: Vec<String> = patterns
        .iter()
        .map(|p| p.to_display(dom.ontology.vocab()))
        .collect();
    planted_display.sort();
    drop(full);
    (
        World {
            dom,
            planted_display,
        },
        patterns,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_engine(
    engine: EngineKind,
    b: &BoundQuery,
    vocab: &Vocabulary,
    base: &[oassis_ql::BaseAssignment],
    patterns: &[PatternSet],
    cfg: &SimConfig,
    schedule: &Schedule,
    budget: Option<usize>,
    tele: &telemetry::Telemetry,
) -> Result<EngineRun, String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut dag = Dag::new(b, vocab, base).without_multiplicities();
        if matches!(engine, EngineKind::Naive | EngineKind::Horizontal) {
            // the baselines walk a pre-materialized DAG (the paper feeds
            // them the full assignment set); vertical and multi generate
            // lazily
            dag.materialize_all();
        }
        let members = match engine {
            EngineKind::Multi => cfg.members as usize,
            _ => 1,
        };
        let oracle = PlantedOracle::new(vocab, patterns.to_vec(), members, cfg.seed);
        let mut crowd = FaultyCrowd::new(oracle, schedule, cfg.policy.timeout_ticks)
            .with_telemetry(tele.clone());
        let mining_cfg = MiningConfig {
            specialization_ratio: 0.25,
            seed: cfg.seed,
            max_questions: budget,
            policy: cfg.policy,
            debug_checks: true,
            telemetry: tele.clone(),
            ..Default::default()
        };
        let out: MiningOutcome = match engine {
            EngineKind::Naive => run_naive(&mut dag, &mut crowd, MemberId(0), &mining_cfg),
            EngineKind::Vertical => run_vertical(&mut dag, &mut crowd, MemberId(0), &mining_cfg),
            EngineKind::Horizontal => {
                run_horizontal(&mut dag, &mut crowd, MemberId(0), &mining_cfg)
            }
            EngineKind::Multi => {
                let agg = FixedSampleAggregator { sample_size: 1 };
                run_multi(&mut dag, &mut crowd, &agg, &mining_cfg).mining
            }
        };
        let disp = |a: &Assignment| a.apply(b).to_display(vocab);
        let mut msps: Vec<String> = out.msps.iter().map(disp).collect();
        msps.sort();
        let mut significant: Vec<String> = out.significant_valid.iter().map(disp).collect();
        significant.sort();
        EngineRun {
            msps,
            significant,
            questions: out.questions,
            complete: out.complete,
            manifest: out.manifest,
            trace_digest: crowd.trace().digest(),
        }
    }));
    result.map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic (non-string payload)".into())
    })
}

fn is_subset(sub: &[String], sup: &[String]) -> bool {
    sub.iter().all(|x| sup.binary_search(x).is_ok())
}

/// Runs every engine against `schedule` (overriding the one in `cfg`) and
/// checks all simulation properties. This is the replay entry point the
/// shrinker drives.
pub fn run_with_schedule(cfg: &SimConfig, schedule: &Schedule) -> SimReport {
    let (world, patterns) = build_world(cfg);
    let vocab = world.dom.ontology.vocab();
    let q = parse(&world.dom.query).expect("synthetic query parses");
    let b = bind(&q, &world.dom.ontology).expect("synthetic query binds");
    let base = evaluate_where(&b, &world.dom.ontology, MatchMode::Exact);

    let mut failures: Vec<String> = Vec::new();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let fault_free = Schedule::fault_free();

    // Phase 1 — differential oracle on the fault-free schedule: every
    // engine agrees with the planted ground truth (and hence with every
    // other engine).
    let off = telemetry::Telemetry::off();
    let mut reference: Option<EngineRun> = None;
    for &engine in &ENGINES {
        match run_engine(
            engine,
            &b,
            vocab,
            &base,
            &patterns,
            cfg,
            &fault_free,
            None,
            &off,
        ) {
            Ok(run) => {
                if run.msps != world.planted_display {
                    failures.push(format!(
                        "{engine:?} fault-free MSPs {:?} != planted {:?}",
                        run.msps, world.planted_display
                    ));
                }
                if !run.complete {
                    failures.push(format!("{engine:?} fault-free run incomplete"));
                }
                if !run.manifest.is_empty() {
                    failures.push(format!(
                        "{engine:?} fault-free manifest non-empty: {:?}",
                        run.manifest
                    ));
                }
                match &reference {
                    None => reference = Some(run),
                    Some(r) => {
                        if run.significant != r.significant {
                            failures.push(format!(
                                "{engine:?} fault-free significant set diverges from Naive's"
                            ));
                        }
                    }
                }
            }
            Err(p) => failures.push(format!("{engine:?} fault-free panicked: {p}")),
        }
    }
    let reference = reference.expect("at least one engine ran");

    // Phase 2 — the faulty schedule: graceful degradation + determinism.
    for &engine in &ENGINES {
        let first = run_engine(
            engine, &b, vocab, &base, &patterns, cfg, schedule, cfg.budget, &off,
        );
        let second = run_engine(
            engine, &b, vocab, &base, &patterns, cfg, schedule, cfg.budget, &off,
        );
        match (first, second) {
            (Ok(run), Ok(rerun)) => {
                if run != rerun {
                    failures.push(format!(
                        "{engine:?} non-deterministic replay: {run:?} vs {rerun:?}"
                    ));
                }
                if let Some(budget) = cfg.budget {
                    if run.questions > budget {
                        failures.push(format!(
                            "{engine:?} exceeded budget: {} > {budget}",
                            run.questions
                        ));
                    }
                }
                if !is_subset(&run.msps, &reference.msps) {
                    failures.push(format!(
                        "{engine:?} faulty MSPs {:?} not a subset of fault-free {:?}",
                        run.msps, reference.msps
                    ));
                }
                if !is_subset(&run.significant, &reference.significant) {
                    failures.push(format!(
                        "{engine:?} faulty significant set escapes the fault-free one"
                    ));
                }
                if !run.manifest.unanswered.is_empty() && run.complete {
                    failures.push(format!(
                        "{engine:?} reported complete with {} unanswered patterns",
                        run.manifest.unanswered.len()
                    ));
                }
                run.digest_into(&mut digest);
            }
            (Err(p), _) | (_, Err(p)) => {
                failures.push(format!(
                    "{engine:?} panicked under {}: {p}",
                    schedule.to_line()
                ));
            }
        }
    }

    SimReport {
        seed: cfg.seed,
        schedule: schedule.clone(),
        failures,
        digest,
    }
}

/// Derives the configuration for `seed` and runs the full property
/// check.
pub fn run_seed(seed: u64) -> SimReport {
    let cfg = SimConfig::from_seed(seed);
    let schedule = cfg.schedule.clone();
    run_with_schedule(&cfg, &schedule)
}

/// Runs a corpus of consecutive seeds, returning only the failing
/// reports (each already shrunk to a minimal schedule).
pub fn run_corpus(seeds: std::ops::Range<u64>) -> Vec<SimReport> {
    seeds
        .filter_map(|seed| {
            let report = run_seed(seed);
            if report.passed() {
                None
            } else {
                Some(shrink_failure(seed).unwrap_or(report))
            }
        })
        .collect()
}

/// Replays `seed`'s derived faulty schedule through the multi-user
/// engine with a recording [`telemetry::TelemetrySink`] attached to both
/// the engine and the [`FaultyCrowd`] wrapper, returning the sink.
///
/// The resulting trace is replayable: spans carry logical ticks synced
/// to the simulation clock, fault injections appear as `sim.*` counters
/// and the engine's retry machinery as `crowd.*` counters. Serialize it
/// with [`telemetry::TelemetrySink::write_jsonl`].
pub fn record_seed_trace(seed: u64) -> std::sync::Arc<telemetry::TelemetrySink> {
    let cfg = SimConfig::from_seed(seed);
    let (world, patterns) = build_world(&cfg);
    let vocab = world.dom.ontology.vocab();
    let q = parse(&world.dom.query).expect("synthetic query parses");
    let b = bind(&q, &world.dom.ontology).expect("synthetic query binds");
    let base = evaluate_where(&b, &world.dom.ontology, MatchMode::Exact);
    let sink = telemetry::TelemetrySink::shared();
    let tele = telemetry::Telemetry::recording(&sink);
    run_engine(
        EngineKind::Multi,
        &b,
        vocab,
        &base,
        &patterns,
        &cfg,
        &cfg.schedule,
        cfg.budget,
        &tele,
    )
    .expect("recorded simulation run does not panic");
    sink
}

/// If `seed` fails, shrinks its schedule to a 1-minimal failing one and
/// returns the (still failing) report for it; `None` if the seed passes.
pub fn shrink_failure(seed: u64) -> Option<SimReport> {
    let cfg = SimConfig::from_seed(seed);
    let schedule = cfg.schedule.clone();
    if run_with_schedule(&cfg, &schedule).passed() {
        return None;
    }
    let minimal = shrink(&schedule, |s| !run_with_schedule(&cfg, s).passed());
    Some(run_with_schedule(&cfg, &minimal))
}
