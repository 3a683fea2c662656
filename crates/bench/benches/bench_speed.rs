//! `bench_speed` — checks this build against the committed
//! `BENCH_speed.json`, a golden file it reads and never writes.
//!
//! The file holds exactly the values a run checks:
//!
//! * `workloads` — the six golden workloads: the three Section-6.3
//!   domain experiments (E1 travel, E2 culinary, E3 self-treatment, at
//!   paper scale with the standard 248-member crowd) and the three
//!   Figure-5 strategies over the planted synthetic workload. Each has
//!   its outcome digest (question counts, MSP sets, event streams), its
//!   question count and its MSP count.
//! * `batched` — questions, rounds and MSPs of the question-batch
//!   planner at widths 1/2/4/8 on E1 and on a 10⁶-assignment stress
//!   ontology.
//! * `incremental` — the E1 op-log replay's digest and op counts.
//! * `wall_base_s` — the bases of the two wall-time gates: E1's median
//!   wall-clock and the incremental replay's median wall-clock, each of
//!   [`REPEATS`] runs from fresh state, may not exceed
//!   [`WALL_LIMIT`] × the base.
//!
//! A run also checks three in-run agreements: width 1 of the planner
//! and the op-log replay each reproduce the E1 digest, every width
//! mines the same MSP set on the noise-free stress ontology, and a
//! recording telemetry sink leaves the E3 digest unchanged.
//!
//! Every value that differs, a missing or malformed file, and a value
//! the file holds but no run measures (or the reverse) is printed by
//! its dotted path, and the run exits 1. A behaviour change that moves
//! a value commits the new file by hand, with its reason.
//!
//! Usage: `cargo bench -p bench --bench bench_speed`.

use bench::{bind_domain, domain_crowd, paper_aggregator, run_domain_at};
use oassis_core::digest::{fig5_fold, Fnv};
use oassis_core::synth::{
    plant_msps, stress_domain, synthetic_domain, MspDistribution, PlantedOracle,
};
use oassis_core::{
    run_horizontal, run_multi, run_naive, run_vertical, Dag, FixedSampleAggregator, MiningConfig,
};
use oassis_ql::{bind, evaluate_where, parse, BoundQuery, MatchMode};
use ontology::domains::{culinary, self_treatment, travel, DomainScale, GeneratedDomain};
use ontology::json::{self, Json};
use std::collections::BTreeSet;
use std::time::Instant;

/// Inner repetitions per timed workload; the reported wall-clock is the
/// median.
const REPEATS: usize = 3;

/// A gated wall-clock may exceed its committed base by this factor.
const WALL_LIMIT: f64 = 1.25;

/// One timed workload: median wall-clock plus its outcome.
struct Timing {
    name: &'static str,
    wall_s: f64,
    questions: usize,
    msps: usize,
    digest: u64,
}

/// Builds a JSON object from `(key, value)` pairs.
fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.map(|(k, v)| (k.to_owned(), v)).into())
}

fn num(n: usize) -> Json {
    Json::Num(n as f64)
}

fn hex(digest: u64) -> Json {
    Json::Str(format!("{digest:016x}"))
}

/// Median of `REPEATS` (wall, digest) samples; a repetition whose
/// digest differs from the first is a failure — a workload must be
/// deterministic from fresh state.
fn median_wall(name: &str, samples: &[(f64, u64)], failures: &mut Vec<String>) -> f64 {
    if samples.iter().any(|&(_, d)| d != samples[0].1) {
        failures.push(format!(
            "{name}: digests differ between repetitions — non-deterministic workload"
        ));
    }
    let mut walls: Vec<f64> = samples.iter().map(|&(w, _)| w).collect();
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

/// One E1/E2/E3 run from fresh state (new cache, new crowd: a warm cache
/// changes which questions reach the members, and thus their rng
/// evolution), at batch width `k`, with `tele` attached.
fn domain_run(
    domain: &GeneratedDomain,
    bound: &BoundQuery,
    habits: usize,
    k: usize,
    tele: &telemetry::Telemetry,
) -> bench::DomainRun {
    let mut cache = oassis_core::CrowdCache::new();
    run_domain_at(
        domain,
        bound,
        &domain.ontology,
        &mut cache,
        0.2,
        248,
        habits,
        7,
        k,
        tele,
    )
}

fn domain_workloads(failures: &mut Vec<String>) -> Vec<Timing> {
    let domains = [
        ("E1_travel", travel(DomainScale::paper()), 12usize),
        ("E2_culinary", culinary(DomainScale::paper()), 10),
        ("E3_self_treatment", self_treatment(DomainScale::paper()), 6),
    ];
    let mut out = Vec::new();
    for (name, domain, habits) in domains {
        let bound = bind_domain(&domain);
        let mut samples: Vec<(f64, u64)> = Vec::with_capacity(REPEATS);
        let mut questions = 0usize;
        let mut msps = 0usize;
        for _ in 0..REPEATS {
            let start = Instant::now();
            let run = domain_run(&domain, &bound, habits, 1, &telemetry::Telemetry::off());
            samples.push((start.elapsed().as_secs_f64(), run.run_digest()));
            questions = run.questions;
            msps = run.msps;
        }
        out.push(Timing {
            name,
            wall_s: median_wall(name, &samples, failures),
            questions,
            msps,
            digest: samples[0].1,
        });
    }
    out
}

fn fig5_workloads(failures: &mut Vec<String>) -> Vec<Timing> {
    let d = synthetic_domain(500, 7, 0);
    let q = parse(&d.query).unwrap();
    let b = bind(&q, &d.ontology).unwrap();
    let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
    let mut full = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
    let total = full.materialize_all();

    let mut out = Vec::new();
    for (name, algo) in [
        ("fig5_vertical", 0usize),
        ("fig5_horizontal", 1),
        ("fig5_naive", 2),
    ] {
        let mut samples: Vec<(f64, u64)> = Vec::with_capacity(REPEATS);
        let mut questions = 0usize;
        let mut msps = 0usize;
        for _rep in 0..REPEATS {
            let mut digest = Fnv::new();
            questions = 0;
            msps = 0;
            let start = Instant::now();
            for trial in 0..3u64 {
                let n_msps = total * 5 / 100;
                let planted = plant_msps(
                    &mut full,
                    n_msps,
                    true,
                    MspDistribution::Uniform,
                    5000 + trial,
                );
                let patterns: Vec<_> = planted
                    .iter()
                    .map(|&id| full.node(id).assignment.apply(&b))
                    .collect();
                let mut dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
                let mut oracle = PlantedOracle::new(d.ontology.vocab(), patterns, 1, trial);
                let cfg = MiningConfig {
                    seed: trial,
                    ..Default::default()
                };
                let run = match algo {
                    0 => run_vertical(&mut dag, &mut oracle, crowd::MemberId(0), &cfg),
                    1 => {
                        dag.materialize_all();
                        run_horizontal(&mut dag, &mut oracle, crowd::MemberId(0), &cfg)
                    }
                    _ => {
                        dag.materialize_all();
                        run_naive(&mut dag, &mut oracle, crowd::MemberId(0), &cfg)
                    }
                };
                questions += run.questions;
                msps += run.msps.len();
                fig5_fold(&mut digest, run.questions, run.msps.len(), &run.events);
            }
            samples.push((start.elapsed().as_secs_f64(), digest.finish()));
        }
        out.push(Timing {
            name,
            wall_s: median_wall(name, &samples, failures),
            questions,
            msps,
            digest: samples[0].1,
        });
    }
    out
}

/// The `batched` section: questions, rounds and MSPs of the question-
/// batch planner at widths 1/2/4/8 on the E1 travel workload and on a
/// 10⁶-assignment stress ontology. The width-1 E1 run must reproduce
/// `e1_digest` bit-for-bit (the planner's fast path *is* the unbatched
/// algorithm); the stress runs use a noise-free planted oracle, so
/// their MSP sets must agree at every width.
fn batched_section(e1_digest: u64, failures: &mut Vec<String>) -> Json {
    let mut entries: Vec<(String, Json)> = Vec::new();

    let domain = travel(DomainScale::paper());
    let bound = bind_domain(&domain);
    for k in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let run = domain_run(&domain, &bound, 12, k, &telemetry::Telemetry::off());
        let wall = start.elapsed().as_secs_f64();
        if k == 1 && run.run_digest() != e1_digest {
            failures.push(format!(
                "batched.E1_travel_k1: digest {:016x} differs from E1's {e1_digest:016x} — \
                 the planner's fast path must be bit-identical to the unbatched engine",
                run.run_digest()
            ));
        }
        println!(
            "batched E1_travel k={k}   {wall:>8.3}s  questions={} rounds={} msps={}",
            run.questions, run.rounds, run.msps
        );
        entries.push((
            format!("E1_travel_k{k}"),
            obj([
                ("questions", num(run.questions)),
                ("rounds", num(run.rounds)),
                ("msps", num(run.msps)),
            ]),
        ));
    }

    // 10⁶-assignment stress ontology: mining stays lazy, so the planted
    // cone — not the full product DAG — bounds the work; what the arena
    // layout and the planner are up against here is breadth (wide child
    // spans, long posting lists), not raw node count.
    let d = stress_domain(1_000_000, 8);
    let assignments = d.layers_x.iter().sum::<usize>() * d.layers_y.iter().sum::<usize>();
    let q = parse(&d.query).unwrap();
    let b = bind(&q, &d.ontology).unwrap();
    let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
    // plant MSP patterns by bounded lazy descent — materializing all 10⁶
    // assignments just to sample a handful would dwarf the measurement
    let mut patterns: Vec<_> = Vec::new();
    {
        let mut scout = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        let root = scout.roots()[0];
        let mut seen: BTreeSet<String> = BTreeSet::new();
        for i in 0..8usize {
            let mut id = root;
            for step in 0..5usize {
                let span = scout.ensure_children(id);
                let children = scout.child_slice(span);
                if children.is_empty() {
                    break;
                }
                id = children[(i * 3 + step) % children.len()];
            }
            let pattern = scout.node(id).assignment.apply(&b);
            if seen.insert(pattern.to_display(d.ontology.vocab())) {
                patterns.push(pattern);
            }
        }
    }
    let mut reference_msps: Option<BTreeSet<String>> = None;
    for k in [1usize, 2, 4, 8] {
        let mut dag = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
        let mut oracle = PlantedOracle::new(d.ontology.vocab(), patterns.clone(), 40, 11);
        let agg = FixedSampleAggregator { sample_size: 3 };
        let cfg = MiningConfig {
            specialization_ratio: 0.12,
            seed: 11,
            batch_width: k,
            ..Default::default()
        };
        let start = Instant::now();
        let out = run_multi(&mut dag, &mut oracle, &agg, &cfg);
        let wall = start.elapsed().as_secs_f64();
        let msps: BTreeSet<String> = out
            .mining
            .msps
            .iter()
            .map(|m| m.apply(&b).to_display(d.ontology.vocab()))
            .collect();
        match &reference_msps {
            None => reference_msps = Some(msps),
            Some(r) if *r != msps => failures.push(format!(
                "batched.stress_1e6_k{k}: batch width {k} changed the MSP set"
            )),
            Some(_) => {}
        }
        println!(
            "batched stress_1e6 k={k}  {wall:>8.3}s  questions={} rounds={} msps={} nodes={}",
            out.mining.questions,
            out.rounds,
            out.mining.msps.len(),
            out.mining.nodes_materialized
        );
        entries.push((
            format!("stress_1e6_k{k}"),
            obj([
                ("questions", num(out.mining.questions)),
                ("rounds", num(out.rounds)),
                ("msps", num(out.mining.msps.len())),
            ]),
        ));
    }
    entries.push(("stress_assignments".into(), num(assignments)));
    Json::Obj(entries)
}

/// The `incremental` section: the op-log replay core on E1 — every
/// accepted answer applied as a classification delta against the
/// post-run DAG, no round loop, no crowd. One round-driven E1 run
/// records the log (untimed), then the replay is timed [`REPEATS`]
/// times. The replay digest must equal `e1_digest` bit-for-bit.
/// Returns the section plus the median replay wall-clock for its gate.
fn incremental_section(e1_digest: u64, failures: &mut Vec<String>) -> (Json, f64) {
    let domain = travel(DomainScale::paper());
    let bound = bind_domain(&domain);
    let tele = telemetry::Telemetry::off();
    let base = evaluate_where(&bound, &domain.ontology, MatchMode::Exact);
    let mut dag = Dag::new(&bound, domain.ontology.vocab(), &base);
    let crowd = domain_crowd(&domain, domain.ontology.vocab(), 248, 12, 7);
    let mut cache = oassis_core::CrowdCache::new();
    let mut caching = oassis_core::CachingCrowd::new(crowd, &mut cache);
    let cfg = MiningConfig {
        threshold: Some(0.2),
        specialization_ratio: 0.12,
        seed: 7,
        ..Default::default()
    };
    let agg = paper_aggregator();
    let out = run_multi(&mut dag, &mut caching, &agg, &cfg);
    let ops = out.mining.ops.len();

    let mut samples: Vec<(f64, u64)> = Vec::with_capacity(REPEATS);
    let mut applied = 0u64;
    let mut compensated = 0u64;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let replay = out.mining.ops.replay(&dag, &agg, &tele);
        samples.push((start.elapsed().as_secs_f64(), replay.run_digest()));
        applied = replay.applied;
        compensated = replay.compensated;
    }
    let digest = samples[0].1;
    if digest != e1_digest {
        failures.push(format!(
            "incremental.digest: replay digest {digest:016x} differs from E1's \
             {e1_digest:016x} — the incremental core must be bit-identical to the \
             round-driven engine"
        ));
    }
    let wall_s = median_wall("incremental_E1", &samples, failures);
    println!(
        "incremental E1_travel  {wall_s:>8.4}s replay (median of {REPEATS})  \
         ops={ops} applied={applied} compensated={compensated} digest={digest:016x}"
    );
    let section = obj([
        ("ops", num(ops)),
        ("applied", Json::Num(applied as f64)),
        ("compensated", Json::Num(compensated as f64)),
        ("digest", hex(digest)),
    ]);
    (section, wall_s)
}

/// One untimed pass of the E3 workload with a recording
/// [`telemetry::TelemetrySink`]; returns its outcome digest, which must
/// equal the untraced run's (recording is outcome-neutral).
fn recorded_e3_digest() -> u64 {
    let sink = telemetry::TelemetrySink::shared();
    let tele = telemetry::Telemetry::recording(&sink);
    let domain = self_treatment(DomainScale::paper());
    domain_run(&domain, &bind_domain(&domain), 6, 1, &tele).run_digest()
}

/// Appends one line per value where the committed `golden` and the
/// `measured` tree differ, named by its dotted path: a changed value, a
/// committed value no run measures, or a measured value the file lacks.
fn diff(path: &str, golden: &Json, measured: &Json, failures: &mut Vec<String>) {
    let join = |k: &str| {
        if path.is_empty() {
            k.to_owned()
        } else {
            format!("{path}.{k}")
        }
    };
    match (golden, measured) {
        (Json::Obj(g), Json::Obj(m)) => {
            for (k, gv) in g {
                match m.iter().find(|(mk, _)| mk == k) {
                    Some((_, mv)) => diff(&join(k), gv, mv, failures),
                    None => failures.push(format!(
                        "{}: the file holds {gv}, but no run measures it",
                        join(k)
                    )),
                }
            }
            for (k, mv) in m {
                if !g.iter().any(|(gk, _)| gk == k) {
                    failures.push(format!(
                        "{}: measured {mv}, but the file holds no such value",
                        join(k)
                    ));
                }
            }
        }
        _ if golden == measured => {}
        _ => failures.push(format!("{path}: measured {measured}, committed {golden}")),
    }
}

/// Checks one wall-clock gate: `measured` may not exceed [`WALL_LIMIT`]
/// times the committed `wall_base_s.<name>` of `golden`.
fn wall_gate(golden: &Json, name: &str, measured: f64, failures: &mut Vec<String>) {
    let base = golden
        .field("wall_base_s")
        .and_then(|w| w.field(name))
        .and_then(Json::as_f64);
    match base {
        Ok(base) => {
            let limit = base * WALL_LIMIT;
            println!(
                "wall gate {name}: {measured:.4}s (median of {REPEATS}) vs committed \
                 {base:.4}s (limit {limit:.4}s)"
            );
            if measured > limit {
                failures.push(format!(
                    "wall_base_s.{name}: median {measured:.4}s exceeds {WALL_LIMIT} × the \
                     committed {base:.4}s"
                ));
            }
        }
        Err(e) => failures.push(format!("wall_base_s.{name}: {e}")),
    }
}

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn main() {
    let path = workspace_root().join("BENCH_speed.json");
    let golden = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| {
            json::parse(&text)
                .and_then(|doc| doc.as_obj().map(<[_]>::to_vec))
                .map_err(|e| e.to_string())
        })
        .unwrap_or_else(|e| {
            eprintln!(
                "{}: {e} — the file is committed and only read; restore it from git",
                path.display()
            );
            std::process::exit(1);
        });
    let mut failures: Vec<String> = Vec::new();

    let mut timings = domain_workloads(&mut failures);
    timings.extend(fig5_workloads(&mut failures));
    for t in &timings {
        println!(
            "{:<20} {:>8.3}s (median of {REPEATS})  questions={} msps={} digest={:016x}",
            t.name, t.wall_s, t.questions, t.msps, t.digest
        );
    }
    let timing = |name: &str| timings.iter().find(|t| t.name == name).unwrap();
    let e1 = timing("E1_travel");

    let traced = recorded_e3_digest();
    let e3 = timing("E3_self_treatment").digest;
    println!("E3_self_treatment with a recording sink: digest {traced:016x}");
    if traced != e3 {
        failures.push(format!(
            "E3_self_treatment: a recording sink changed the digest to {traced:016x} \
             from {e3:016x}"
        ));
    }

    let batched = batched_section(e1.digest, &mut failures);
    let (incremental, replay_wall) = incremental_section(e1.digest, &mut failures);

    let workloads = timings
        .iter()
        .map(|t| {
            let outcome = obj([
                ("questions", num(t.questions)),
                ("msps", num(t.msps)),
                ("digest", hex(t.digest)),
            ]);
            (t.name.to_owned(), outcome)
        })
        .collect();
    let measured = obj([
        ("workloads", Json::Obj(workloads)),
        ("batched", batched),
        ("incremental", incremental),
    ]);
    // the wall bases are gates, not values a run reproduces
    let (walls, outcomes): (Vec<_>, Vec<_>) =
        golden.into_iter().partition(|(k, _)| k == "wall_base_s");
    diff("", &Json::Obj(outcomes), &measured, &mut failures);
    let walls = Json::Obj(walls);
    wall_gate(&walls, "E1_travel", e1.wall_s, &mut failures);
    wall_gate(&walls, "incremental_replay", replay_wall, &mut failures);

    if failures.is_empty() {
        println!("{}: every committed value reproduced", path.display());
    } else {
        eprintln!("{}: {} check(s) failed", path.display(), failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
