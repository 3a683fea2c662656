//! The headline op-log oracle: replaying ANY permutation of a run's
//! answer-operation log reproduces the round-driven engines' six golden
//! digests bit-identically.
//!
//! The six goldens are the committed `workloads` digests of
//! `BENCH_speed.json` — E1_travel, E2_culinary, E3_self_treatment at
//! paper scale through the multi-user engine, and the three Figure-5
//! strategies (vertical, horizontal, naive) over the planted synthetic
//! workload. For each workload the test:
//!
//! 1. runs the round-driven engine exactly as `bench_speed` does and
//!    checks its digest against the committed golden (so the harness
//!    can never silently drift off the benchmark's workload);
//! 2. replays the run's op log in canonical order and checks the replay
//!    digest equals the same golden;
//! 3. replays `OPLOG_PERMS` (default 12; the nightly matrix widens it)
//!    random permutations of the log and checks every one.

use bench::{bind_domain, domain_crowd, paper_aggregator};
use oassis_core::digest::{fig5_fold, Fnv};
use oassis_core::synth::{plant_msps, synthetic_domain, MspDistribution, PlantedOracle};
use oassis_core::{
    run_horizontal, run_multi, run_naive, run_vertical, Dag, FixedSampleAggregator, MiningConfig,
};
use oassis_ql::{bind, evaluate_where, parse, MatchMode};
use ontology::domains::{culinary, self_treatment, travel, DomainScale};
use ontology::json;
use simtest::permute::{permutation_count, shuffled};

/// Reads the committed golden digest of `workload` from the repo's
/// `BENCH_speed.json` (`workloads.<workload>.digest`).
fn golden(workload: &str) -> u64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_speed.json");
    let text = std::fs::read_to_string(path).expect("BENCH_speed.json is committed");
    let doc = json::parse(&text).expect("BENCH_speed.json is JSON");
    let hex = doc
        .field("workloads")
        .and_then(|w| w.field(workload))
        .and_then(|w| w.field("digest"))
        .and_then(|d| d.as_str())
        .unwrap_or_else(|e| panic!("BENCH_speed.json workloads.{workload}.digest: {e}"));
    u64::from_str_radix(hex, 16).unwrap_or_else(|_| panic!("{workload} digest `{hex}` not hex"))
}

#[test]
fn e_domain_permutations_reproduce_the_golden_digests() {
    let domains = [
        ("E1_travel", travel(DomainScale::paper()), 12usize),
        ("E2_culinary", culinary(DomainScale::paper()), 10),
        ("E3_self_treatment", self_treatment(DomainScale::paper()), 6),
    ];
    let tele = telemetry::Telemetry::off();
    let agg = paper_aggregator();
    for (name, domain, habits) in domains {
        let expected = golden(name);
        let bound = bind_domain(&domain);
        let base = evaluate_where(&bound, &domain.ontology, MatchMode::Exact);
        let mut dag = Dag::new(&bound, domain.ontology.vocab(), &base);
        let crowd = domain_crowd(&domain, domain.ontology.vocab(), 248, habits, 7);
        let mut cache = oassis_core::CrowdCache::new();
        let mut caching = oassis_core::CachingCrowd::new(crowd, &mut cache);
        let cfg = MiningConfig {
            threshold: Some(0.2),
            specialization_ratio: 0.12,
            seed: 7,
            ..Default::default()
        };
        let out = run_multi(&mut dag, &mut caching, &agg, &cfg);

        // the round-driven run itself must sit on the golden — otherwise
        // the harness drifted off the benchmark workload
        assert_eq!(
            out.run_digest(),
            expected,
            "{name}: round-driven digest is off the committed golden"
        );

        let canonical = out.mining.ops.replay(&dag, &agg, &tele);
        assert_eq!(canonical.discarded_msps, 0, "{name}: canonical replay");
        assert_eq!(
            canonical.run_digest(),
            expected,
            "{name}: canonical replay digest diverged from the golden"
        );
        for perm in 0..permutation_count() {
            let replay = shuffled(&out.mining.ops, perm).replay(&dag, &agg, &tele);
            assert_eq!(replay.discarded_msps, 0, "{name}: permutation {perm}");
            assert_eq!(
                replay.run_digest(),
                expected,
                "{name}: permutation {perm} diverged from the golden digest"
            );
        }
    }
}

#[test]
fn fig5_strategy_permutations_reproduce_the_golden_digests() {
    let d = synthetic_domain(500, 7, 0);
    let q = parse(&d.query).unwrap();
    let b = bind(&q, &d.ontology).unwrap();
    let base = evaluate_where(&b, &d.ontology, MatchMode::Exact);
    let mut full = Dag::new(&b, d.ontology.vocab(), &base).without_multiplicities();
    let total = full.materialize_all();
    let agg = FixedSampleAggregator { sample_size: 1 };
    let tele = telemetry::Telemetry::off();

    for (name, algo) in [
        ("fig5_vertical", 0usize),
        ("fig5_horizontal", 1),
        ("fig5_naive", 2),
    ] {
        let expected = golden(name);
        // one run per trial, kept with its post-run DAG for replay
        let mut trials = Vec::new();
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
            trials.push((dag, run));
        }

        // canonical replays first, then each permutation across all
        // three trials (the golden folds the trials in order)
        for perm in 0..=permutation_count() {
            let mut h = Fnv::new();
            for (dag, run) in &trials {
                let log = if perm == 0 {
                    run.ops.clone()
                } else {
                    shuffled(&run.ops, perm)
                };
                let replay = log.replay(dag, &agg, &tele);
                assert_eq!(replay.discarded_msps, 0, "{name}: permutation {perm}");
                fig5_fold(&mut h, replay.questions, replay.msps.len(), &replay.events);
            }
            assert_eq!(
                h.finish(),
                expected,
                "{name}: permutation {perm} diverged from the golden digest"
            );
        }
    }
}
