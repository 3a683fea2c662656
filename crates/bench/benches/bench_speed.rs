//! `bench_speed` — the repo's perf-trajectory harness.
//!
//! Times the three Section-6.3 domain experiments (E1 travel, E2 culinary,
//! E3 self-treatment, all at paper scale with the standard 248-member
//! crowd) plus the Figure-5 synthetic strategy workloads, and writes
//! `BENCH_speed.json` at the workspace root.
//!
//! The file keeps **two** sets of numbers: `baseline` (recorded the first
//! time the harness runs, and kept verbatim afterwards) and `current`
//! (overwritten on every run), along with the per-workload speedup and an
//! outcome digest. The digest folds every mining outcome the workload
//! produces (question counts, MSP sets, event streams), so a speedup is
//! only trustworthy when the digests also match — optimizations must not
//! change what the miner asks or concludes.
//!
//! Each workload is timed [`REPEATS`] times from fresh state (new cache,
//! new crowd) and the **median** wall-clock is reported — E3 in
//! particular sits near the timer floor, where a single sample is mostly
//! noise. All repetitions must produce the same digest, and the `current`
//! digests must match the `baseline` ones; any mismatch makes the harness
//! **exit non-zero** (the CI smoke invocation relies on this). An
//! append-only `history` array keeps one entry per run, so the perf
//! trajectory across PRs stays visible in-repo.
//!
//! Usage: `cargo bench --bench bench_speed` (add `--release` implicitly);
//! to restart the trajectory, delete `BENCH_speed.json` and rerun.

use bench::{
    bind_domain, digest_domain_run, domain_crowd, paper_aggregator, run_domain_at,
    run_domain_at_batched, run_domain_at_traced,
};
use oassis_core::synth::{
    plant_msps, stress_domain, synthetic_domain, MspDistribution, PlantedOracle,
};
use oassis_core::{
    run_horizontal, run_multi, run_naive, run_vertical, Dag, FixedSampleAggregator, MiningConfig,
};
use oassis_ql::{bind, evaluate_where, parse, MatchMode};
use ontology::domains::{culinary, self_treatment, travel, DomainScale};
use ontology::json::{self, Json};
use std::time::Instant;

/// Inner repetitions per workload; the reported wall-clock is the median.
const REPEATS: usize = 3;

/// One timed workload: median wall-clock plus an outcome digest.
struct Timing {
    name: &'static str,
    wall_s: f64,
    questions: usize,
    msps: usize,
    digest: u64,
}

/// Median of `REPEATS` (wall, digest) samples; panics if the digests
/// disagree — a workload must be deterministic from fresh state.
fn median_wall(name: &str, samples: &[(f64, u64)]) -> f64 {
    let first = samples[0].1;
    assert!(
        samples.iter().all(|&(_, d)| d == first),
        "{name}: digests differ between repetitions — non-deterministic workload"
    );
    let mut walls: Vec<f64> = samples.iter().map(|&(w, _)| w).collect();
    walls.sort_by(|a, b| a.partial_cmp(b).unwrap());
    walls[walls.len() / 2]
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fnv_usize(h: &mut u64, v: usize) {
    fnv(h, &(v as u64).to_le_bytes());
}

fn domain_workloads() -> Vec<Timing> {
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
            // fresh cache AND fresh crowd per repetition: a warm cache
            // changes which questions reach the members (and thus their
            // rng evolution), so repetitions must restart from scratch to
            // digest-match
            let mut cache = oassis_core::CrowdCache::new();
            let start = Instant::now();
            let run = run_domain_at(
                &domain,
                &bound,
                &domain.ontology,
                &mut cache,
                0.2,
                248,
                habits,
                7,
            );
            let wall = start.elapsed().as_secs_f64();
            samples.push((wall, digest_domain_run(&run)));
            questions = run.questions;
            msps = run.msps;
        }
        let digest = samples[0].1;
        let wall_s = median_wall(name, &samples);
        println!(
            "{name:<20} {wall_s:>8.2}s (median of {REPEATS})  questions={questions} msps={msps} digest={digest:016x}"
        );
        out.push(Timing {
            name,
            wall_s,
            questions,
            msps,
            digest,
        });
    }
    out
}

fn fig5_workloads() -> Vec<Timing> {
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
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
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
                fnv_usize(&mut digest, run.questions);
                fnv_usize(&mut digest, run.msps.len());
                for e in &run.events {
                    fnv_usize(&mut digest, e.question);
                    fnv(&mut digest, format!("{:?}", e.kind).as_bytes());
                }
            }
            samples.push((start.elapsed().as_secs_f64(), digest));
        }
        let digest = samples[0].1;
        let wall_s = median_wall(name, &samples);
        println!(
            "{name:<20} {wall_s:>8.2}s (median of {REPEATS})  questions={questions} msps={msps} digest={digest:016x}"
        );
        out.push(Timing {
            name,
            wall_s,
            questions,
            msps,
            digest,
        });
    }
    out
}

fn timings_to_json(timings: &[Timing]) -> Json {
    Json::Obj(
        timings
            .iter()
            .map(|t| {
                (
                    t.name.to_owned(),
                    Json::Obj(vec![
                        ("wall_s".into(), Json::Num((t.wall_s * 1e3).round() / 1e3)),
                        ("questions".into(), Json::Num(t.questions as f64)),
                        ("msps".into(), Json::Num(t.msps as f64)),
                        ("digest".into(), Json::Str(format!("{:016x}", t.digest))),
                    ]),
                )
            })
            .collect(),
    )
}

/// One instrumented (untimed) pass of the E3 workload with a recording
/// [`telemetry::TelemetrySink`]: per-phase span totals and engine
/// counters become the `"telemetry"` section of `BENCH_speed.json`.
/// Kept separate from the timed repetitions so sink overhead never
/// pollutes the wall-clock numbers; the outcome digest is returned so
/// `main` can assert that recording is outcome-neutral.
fn telemetry_section() -> (Json, u64) {
    let domain = self_treatment(DomainScale::paper());
    let bound = bind_domain(&domain);
    let mut cache = oassis_core::CrowdCache::new();
    let sink = telemetry::TelemetrySink::shared();
    let tele = telemetry::Telemetry::recording(&sink);
    let run = run_domain_at_traced(
        &domain,
        &bound,
        &domain.ontology,
        &mut cache,
        0.2,
        248,
        6,
        7,
        &tele,
    );
    let digest = digest_domain_run(&run);
    let snap = sink.snapshot();
    let spans = Json::Obj(
        snap.spans
            .iter()
            .map(|(k, t)| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::Num(t.count as f64)),
                        ("ticks".into(), Json::Num(t.ticks as f64)),
                    ]),
                )
            })
            .collect(),
    );
    let counters = Json::Obj(
        snap.counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
            .collect(),
    );
    let section = Json::Obj(vec![
        ("workload".into(), Json::Str("E3_self_treatment".into())),
        ("digest".into(), Json::Str(format!("{digest:016x}"))),
        ("events".into(), Json::Num(snap.events as f64)),
        ("last_tick".into(), Json::Num(snap.last_tick as f64)),
        ("spans".into(), spans),
        ("counters".into(), counters),
    ]);
    (section, digest)
}

/// `batched` section: questions / rounds / wall-clock of the question-
/// batch planner at widths 1/2/4/8 on the E1 travel workload and on a
/// 10⁶-assignment stress ontology. The width-1 E1 run must reproduce the
/// timed E1 digest bit-for-bit (the planner's fast path *is* the
/// unbatched algorithm); the stress runs use a noise-free planted oracle,
/// so their MSP sets must agree at every width.
fn batched_section(e1_digest: Option<u64>) -> Json {
    let mut entries: Vec<(String, Json)> = Vec::new();

    let domain = travel(DomainScale::paper());
    let bound = bind_domain(&domain);
    for k in [1usize, 2, 4, 8] {
        let mut cache = oassis_core::CrowdCache::new();
        let start = Instant::now();
        let run = run_domain_at_batched(
            &domain,
            &bound,
            &domain.ontology,
            &mut cache,
            0.2,
            248,
            12,
            7,
            k,
            &telemetry::Telemetry::off(),
        );
        let wall = start.elapsed().as_secs_f64();
        if k == 1 {
            let d = digest_domain_run(&run);
            assert_eq!(
                Some(d),
                e1_digest,
                "batch width 1 changed the E1 outcome digest — the planner's \
                 fast path must be bit-identical to the unbatched engine"
            );
        }
        println!(
            "batched E1_travel k={k}   {wall:>8.3}s  questions={} rounds={} msps={}",
            run.questions, run.rounds, run.msps
        );
        entries.push((
            format!("E1_travel_k{k}"),
            Json::Obj(vec![
                ("wall_s".into(), Json::Num((wall * 1e3).round() / 1e3)),
                ("questions".into(), Json::Num(run.questions as f64)),
                ("rounds".into(), Json::Num(run.rounds as f64)),
                ("msps".into(), Json::Num(run.msps as f64)),
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
        let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
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
    let mut reference_msps: Option<std::collections::BTreeSet<String>> = None;
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
        let msps: std::collections::BTreeSet<String> = out
            .mining
            .msps
            .iter()
            .map(|m| m.apply(&b).to_display(d.ontology.vocab()))
            .collect();
        match &reference_msps {
            None => reference_msps = Some(msps),
            Some(r) => assert_eq!(
                &msps, r,
                "stress workload: batch width {k} changed the MSP set"
            ),
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
            Json::Obj(vec![
                ("wall_s".into(), Json::Num((wall * 1e3).round() / 1e3)),
                ("questions".into(), Json::Num(out.mining.questions as f64)),
                ("rounds".into(), Json::Num(out.rounds as f64)),
                ("msps".into(), Json::Num(out.mining.msps.len() as f64)),
            ]),
        ));
    }
    entries.push(("stress_assignments".into(), Json::Num(assignments as f64)));
    Json::Obj(entries)
}

/// Digest of a replayed outcome, field-for-field identical to
/// [`digest_domain_run`] over the round-driven run that recorded the
/// log — equal digests mean the replay reproduced the run bit-for-bit.
fn digest_replay(r: &oassis_core::ReplayOutcome) -> u64 {
    fn word(h: &mut u64, v: usize) {
        fnv(h, &(v as u64).to_le_bytes());
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    word(&mut h, r.questions);
    word(&mut h, r.msps.len());
    word(&mut h, r.valid_msps.len());
    word(&mut h, r.undecided);
    word(&mut h, r.total_valid);
    word(&mut h, r.nodes_materialized);
    word(&mut h, usize::from(r.complete));
    for e in &r.events {
        word(&mut h, e.question);
        fnv(&mut h, format!("{:?}", e.kind).as_bytes());
    }
    h
}

/// `incremental` section: the op-log replay core on E1 — every accepted
/// answer applied as a classification delta against the post-run DAG,
/// no round loop, no crowd. One round-driven E1 run records the log
/// (untimed here; the timed number lives in `current`), then the replay
/// is timed [`REPEATS`] times and the median reported. The replay
/// digest must equal the round-driven digest bit-for-bit, or the
/// harness exits non-zero. Returns the section plus the replay
/// wall-clock for the regression gate.
fn incremental_section(e1_digest: Option<u64>) -> (Json, f64) {
    let domain = travel(DomainScale::paper());
    let bound = bind_domain(&domain);
    let pool = minipool::Pool::sequential();
    let tele = telemetry::Telemetry::off();
    let base = oassis_ql::evaluate_where_pool(&bound, &domain.ontology, MatchMode::Exact, &pool);
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
        let replay = out.mining.ops.replay(&dag, &agg, &pool, &tele);
        let wall = start.elapsed().as_secs_f64();
        samples.push((wall, digest_replay(&replay)));
        applied = replay.applied;
        compensated = replay.compensated;
    }
    let digest = samples[0].1;
    assert_eq!(
        Some(digest),
        e1_digest,
        "op-log replay changed the E1 outcome digest — the incremental \
         core must be bit-identical to the round-driven engine"
    );
    let wall_s = median_wall("incremental_E1", &samples);
    println!(
        "incremental E1_travel  {wall_s:>8.3}s replay (median of {REPEATS})  \
         ops={ops} applied={applied} digest={digest:016x}{}",
        if wall_s <= 0.050 {
            "  — within the 50 ms single-core goal"
        } else {
            ""
        }
    );
    let section = Json::Obj(vec![
        ("workload".into(), Json::Str("E1_travel".into())),
        (
            "replay_wall_s".into(),
            Json::Num((wall_s * 1e4).round() / 1e4),
        ),
        ("ops".into(), Json::Num(ops as f64)),
        ("applied".into(), Json::Num(applied as f64)),
        ("compensated".into(), Json::Num(compensated as f64)),
        ("digest".into(), Json::Str(format!("{digest:016x}"))),
        ("within_50ms_goal".into(), Json::Bool(wall_s <= 0.050)),
    ]);
    (section, wall_s)
}

/// The sharded-cluster merge path (`core::cluster`), digest-gated: the
/// round-driven E1 log is split into per-node wire streams (assignment-
/// addressed, exactly what `simtest::net` delivers), and the coordinator
/// merge — intern into a fresh replica + canonical sort + merged-mode
/// replay — is timed at N ∈ {1, 2, 4, 8}. Every shard count must merge
/// to the same [`SemanticOutcome`] digest as the single-node run, or the
/// harness exits non-zero; the reported number is merge throughput in
/// ops/s (higher is better).
fn cluster_section() -> (Json, bool) {
    use oassis_core::cluster::{to_wire, Coordinator, SemanticOutcome};

    let domain = travel(DomainScale::paper());
    let bound = bind_domain(&domain);
    let tele = telemetry::Telemetry::off();
    let base = oassis_ql::evaluate_where(&bound, &domain.ontology, MatchMode::Exact);
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
    let wire = to_wire(&out.mining.ops, &dag);
    let vocab = domain.ontology.vocab();
    let reference = SemanticOutcome::from_mining(&out.mining, &bound, vocab);
    let ref_digest = reference.digest();

    let mut ok = true;
    let mut entries = Vec::new();
    for shards in [1u32, 2, 4, 8] {
        // the per-member split simtest's shard map induces: member ids
        // are the cross-node tie-breaker, so any member partition merges
        // back to the same canonical order
        let mut streams: Vec<Vec<_>> = vec![Vec::new(); shards as usize];
        for op in &wire {
            streams[(op.member.0 % shards) as usize].push(op.clone());
        }
        let mut samples: Vec<(f64, u64)> = Vec::with_capacity(REPEATS);
        let mut merge_ops = 0u64;
        for _ in 0..REPEATS {
            let start = Instant::now();
            let mut coord = Coordinator::new(shards, out.mining.ops.threshold(), true);
            for (node, stream) in streams.iter().enumerate() {
                coord.ingest(node as u32, 0, stream);
            }
            let mut replica = Dag::new(&bound, vocab, &base);
            let merged = coord.merge(&mut replica, &agg, &tele, out.mining.complete);
            let wall = start.elapsed().as_secs_f64();
            merge_ops = coord.merge_ops();
            samples.push((
                wall,
                SemanticOutcome::from_replay(&merged, &bound, vocab).digest(),
            ));
        }
        let wall_s = median_wall(&format!("cluster_N{shards}"), &samples);
        let digest = samples[0].1;
        let same = digest == ref_digest;
        ok &= same;
        let ops_per_s = merge_ops as f64 / wall_s;
        println!(
            "cluster E1 N={shards}       {wall_s:>8.3}s merge (median of {REPEATS})  \
             ops={merge_ops} throughput={ops_per_s:.0} ops/s  outcomes {}",
            if same {
                "identical"
            } else {
                "DIFFER from the single-node run!"
            }
        );
        entries.push(Json::Obj(vec![
            ("shards".into(), Json::Num(f64::from(shards))),
            ("ops".into(), Json::Num(merge_ops as f64)),
            (
                "merge_wall_s".into(),
                Json::Num((wall_s * 1e4).round() / 1e4),
            ),
            ("ops_per_s".into(), Json::Num(ops_per_s.round())),
            ("digest".into(), Json::Str(format!("{digest:016x}"))),
            ("matches_single_node".into(), Json::Bool(same)),
        ]));
    }
    let section = Json::Obj(vec![
        ("workload".into(), Json::Str("E1_travel".into())),
        (
            "single_node_digest".into(),
            Json::Str(format!("{ref_digest:016x}")),
        ),
        ("merges".into(), Json::Arr(entries)),
    ]);
    (section, ok)
}

/// `server` section, digest-gated: the persistent-session service on
/// the Figure-1 domain. One query mines live over loopback TCP, a
/// burst of repeat requests (all answer-cache hits) measures protocol
/// and session overhead in requests/s, and a cold restart over the
/// same WAL root measures recovery latency — page-in plus op-log
/// replay. The recovered digest must equal the live digest, or the
/// harness exits non-zero (recovery that changes the outcome is not a
/// latency number worth recording).
fn server_section() -> (Json, bool) {
    use oassis_server::{
        Client, Figure1Provider, QuerySpec, Request, Response, Server, ServerConfig,
        SessionManager, SessionSpec,
    };
    use ontology::domains::figure1;
    use std::sync::Arc;

    let ont = Arc::new(figure1::ontology());
    let root = std::env::temp_dir().join(format!("oassis-bench-server-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let session = SessionSpec {
        name: "bench".into(),
        seed: 7,
        members: 2,
    };
    let qspec = QuerySpec {
        src: figure1::SIMPLE_QUERY.to_string(),
        threshold: None,
        batch_width: 1,
        max_questions: None,
        seed: 3,
    };
    let manager = |ont: &Arc<ontology::Ontology>| {
        SessionManager::new(
            ont.clone(),
            Box::new(Figure1Provider::new(ont.clone())),
            &root,
        )
    };

    // live lifetime over loopback TCP: mine once, then a repeat burst
    let server = Server::spawn(manager(&ont), &ServerConfig::default()).expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let call =
        |client: &mut Client, req: &Request| -> Response { client.call(req).expect("server call") };
    call(&mut client, &Request::Open(session.clone()));
    let query = Request::Query {
        session: "bench".into(),
        spec: qspec.clone(),
    };
    let Response::Result { reply, .. } = call(&mut client, &query) else {
        panic!("live query failed")
    };
    let live_digest = reply.digest;
    const REQUESTS: usize = 200;
    let start = Instant::now();
    let mut ok = true;
    for _ in 0..REQUESTS {
        let Response::Result { reply, .. } = call(&mut client, &query) else {
            panic!("repeat query failed")
        };
        ok &= reply.digest == live_digest;
    }
    let burst_wall = start.elapsed().as_secs_f64();
    let requests_per_s = REQUESTS as f64 / burst_wall;
    client.bye().expect("bye");
    server.shutdown();

    // recovery latency: cold restarts over the same WAL root — session
    // page-in plus a full op-log replay of the recorded query
    let mut samples: Vec<(f64, u64)> = Vec::with_capacity(REPEATS);
    let mut recovered_ops = 0usize;
    for _ in 0..REPEATS {
        let mut mgr = manager(&ont);
        let start = Instant::now();
        mgr.open(&session).expect("resume");
        let recovered = mgr.recover("bench").expect("recover");
        let wall = start.elapsed().as_secs_f64();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for r in &recovered {
            ok &= r.verified == Some(true) && r.digest == live_digest;
            recovered_ops = r.ops;
            fnv(&mut digest, r.digest.as_bytes());
        }
        samples.push((wall, digest));
    }
    let recovery_wall_s = median_wall("server_recovery", &samples);
    let _ = std::fs::remove_dir_all(&root);
    println!(
        "server E0_figure1     {requests_per_s:>8.0} req/s over TCP; recovery \
         {recovery_wall_s:.4}s (median of {REPEATS}, {recovered_ops} ops)  outcomes {}",
        if ok {
            "identical"
        } else {
            "DIFFER from the live run!"
        }
    );
    let section = Json::Obj(vec![
        ("workload".into(), Json::Str("figure1_simple".into())),
        ("requests".into(), Json::Num(REQUESTS as f64)),
        ("requests_per_s".into(), Json::Num(requests_per_s.round())),
        (
            "recovery_wall_s".into(),
            Json::Num((recovery_wall_s * 1e4).round() / 1e4),
        ),
        ("recovered_ops".into(), Json::Num(recovered_ops as f64)),
        ("digest".into(), Json::Str(live_digest)),
        ("matches_live".into(), Json::Bool(ok)),
    ]);
    (section, ok)
}

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn main() {
    let mut timings = domain_workloads();
    timings.extend(fig5_workloads());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // instrumented pass: recording telemetry must not perturb outcomes
    let (telemetry_json, traced_digest) = telemetry_section();
    let e3_digest = timings
        .iter()
        .find(|t| t.name == "E3_self_treatment")
        .map(|t| t.digest);
    let recording_neutral = e3_digest == Some(traced_digest);
    println!(
        "telemetry-instrumented E3 digest {traced_digest:016x}: {}",
        if recording_neutral {
            "identical to the timed run"
        } else {
            "DIFFERS from the timed run — recording perturbed the outcome!"
        }
    );

    // the planner sweep (E1 and the 10⁶ stress ontology at widths
    // 1/2/4/8); panics if width 1 is not digest-neutral on E1
    let e1_digest = timings
        .iter()
        .find(|t| t.name == "E1_travel")
        .map(|t| t.digest);
    let batched_json = batched_section(e1_digest);

    // incremental op-log replay: digest-gated against the round-driven
    // E1 run inside the section builder
    let (incremental_json, incremental_wall) = incremental_section(e1_digest);

    // sharded coordinator merge at N ∈ {1, 2, 4, 8}: every shard count
    // must land on the single-node semantic digest
    let (cluster_json, cluster_ok) = cluster_section();

    // persistent-session service: requests/s over loopback TCP plus
    // cold-restart recovery latency, gated on the recovered digest
    let (server_json, server_ok) = server_section();

    let path = workspace_root().join("BENCH_speed.json");
    let previous = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| json::parse(&s).ok());
    // perf ratchet: E1 must stay within 25% of the committed current
    // wall-clock (CI runs this harness against the checked-in file)
    let e1_gate = previous
        .as_ref()
        .and_then(|doc| doc.field("current").ok())
        .and_then(|c| c.field("E1_travel").ok())
        .and_then(|e| e.field("wall_s").ok())
        .and_then(|w| w.as_f64().ok())
        .and_then(|prev_wall| {
            let cur = timings.iter().find(|t| t.name == "E1_travel")?.wall_s;
            println!(
                "E1_travel perf gate: {cur:.3}s vs committed {prev_wall:.3}s \
                 (limit {:.3}s)",
                prev_wall * 1.25
            );
            Some(cur > prev_wall * 1.25)
        })
        .unwrap_or(false);
    // same ratchet for the incremental replay path: within 25% of the
    // committed replay wall-clock
    let incremental_gate = previous
        .as_ref()
        .and_then(|doc| doc.field("incremental").ok())
        .and_then(|i| i.field("replay_wall_s").ok())
        .and_then(|w| w.as_f64().ok())
        .map(|prev_wall| {
            println!(
                "incremental E1 perf gate: {incremental_wall:.4}s vs committed \
                 {prev_wall:.4}s (limit {:.4}s)",
                prev_wall * 1.25
            );
            incremental_wall > prev_wall * 1.25
        })
        .unwrap_or(false);
    let baseline = previous
        .as_ref()
        .and_then(|doc| doc.field("baseline").ok().cloned());
    // append-only trajectory: one entry per harness run
    let mut history: Vec<Json> = previous
        .as_ref()
        .and_then(|doc| doc.field("history").ok())
        .and_then(|h| match h {
            Json::Arr(entries) => Some(entries.clone()),
            _ => None,
        })
        .unwrap_or_default();
    // preserve fields other harnesses own (e.g. bench_throughput's)
    let extra_fields: Vec<(String, Json)> = match &previous {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter(|(k, _)| {
                !matches!(
                    k.as_str(),
                    "schema"
                        | "baseline"
                        | "current"
                        | "speedup_vs_baseline"
                        | "history"
                        | "cores"
                        | "repeats"
                        | "telemetry"
                        | "batched"
                        | "incremental"
                        | "cluster"
                        | "server"
                )
            })
            .cloned()
            .collect(),
        _ => Vec::new(),
    };
    let current = timings_to_json(&timings);
    let baseline = baseline.unwrap_or_else(|| {
        println!("(no existing baseline — recording this run as the baseline)");
        current.clone()
    });

    let mut all_identical = true;
    let mut speedups = Vec::new();
    for t in &timings {
        if let Ok(base) = baseline.field(t.name) {
            let base_wall = base
                .field("wall_s")
                .and_then(|v| v.as_f64())
                .unwrap_or(f64::NAN);
            let base_digest = base
                .field("digest")
                .ok()
                .and_then(|v| v.as_str().ok().map(str::to_owned));
            let speedup = base_wall / t.wall_s;
            let same = base_digest.as_deref() == Some(&format!("{:016x}", t.digest));
            all_identical &= same;
            println!(
                "{:<20} speedup vs baseline: {speedup:.2}x  outcomes {}",
                t.name,
                if same {
                    "identical"
                } else {
                    "DIFFER — speedup not comparable!"
                }
            );
            speedups.push((
                t.name.to_owned(),
                Json::Obj(vec![
                    (
                        "speedup".into(),
                        Json::Num((speedup * 100.0).round() / 100.0),
                    ),
                    ("outcomes_identical".into(), Json::Bool(same)),
                ]),
            ));
        }
    }

    history.push(Json::Obj(vec![
        (
            "run".into(),
            // monotonic even after the cap prunes old entries: one past
            // the last recorded run, not the array length
            Json::Num(
                history
                    .last()
                    .and_then(|e| e.field("run").ok())
                    .and_then(|r| r.as_f64().ok())
                    .unwrap_or(0.0)
                    + 1.0,
            ),
        ),
        ("cores".into(), Json::Num(cores as f64)),
        ("repeats".into(), Json::Num(REPEATS as f64)),
        ("workloads".into(), current.clone()),
    ]));
    // bounded trajectory: the run-1 anchor plus the latest 19 entries
    // (the full curve lives in git history; the file stays reviewable)
    const HISTORY_CAP: usize = 20;
    if history.len() > HISTORY_CAP {
        let tail = history.split_off(history.len() - (HISTORY_CAP - 1));
        history.truncate(1);
        history.extend(tail);
    }

    let mut fields = vec![
        ("schema".into(), Json::Num(1.0)),
        ("cores".into(), Json::Num(cores as f64)),
        ("repeats".into(), Json::Num(REPEATS as f64)),
        ("baseline".into(), baseline),
        ("current".into(), current),
        ("speedup_vs_baseline".into(), Json::Obj(speedups)),
        ("history".into(), Json::Arr(history)),
        ("telemetry".into(), telemetry_json),
        ("batched".into(), batched_json),
        ("incremental".into(), incremental_json),
        ("cluster".into(), cluster_json),
        ("server".into(), server_json),
    ];
    fields.extend(extra_fields);
    let doc = Json::Obj(fields);
    std::fs::write(&path, format!("{doc}\n")).expect("write BENCH_speed.json");
    println!("wrote {}", path.display());

    if !all_identical {
        eprintln!("outcome digests changed vs baseline — failing the smoke run");
        std::process::exit(1);
    }
    if !recording_neutral {
        eprintln!("recording telemetry changed the E3 outcome — failing the smoke run");
        std::process::exit(1);
    }
    if e1_gate {
        eprintln!("E1_travel regressed more than 25% over the committed wall-clock — failing the smoke run");
        std::process::exit(1);
    }
    if incremental_gate {
        eprintln!("incremental E1 replay regressed more than 25% over the committed wall-clock — failing the smoke run");
        std::process::exit(1);
    }
    if !cluster_ok {
        eprintln!("a sharded merge diverged from the single-node digest — failing the smoke run");
        std::process::exit(1);
    }
    if !server_ok {
        eprintln!("server recovery diverged from the live digest — failing the smoke run");
        std::process::exit(1);
    }
}
