//! Determinism guarantee of the engine's fork-join pool: at **every**
//! pool width, answers are bit-identical to the sequential engine.
//!
//! A query mines on one thread. The pool ([`Oassis::with_pool`]) only
//! fans out a single query's WHERE solving and runs a batch request's
//! queries on parallel workers, each mined alone. Both merge in input
//! order, so the thread count must never leak into what the miner asks
//! or concludes. These tests drive a domain query and a concurrent batch
//! across pool widths and seeds, comparing full outcome digests
//! (questions, MSP sets, event streams, per-member counts) against the
//! sequential run.

use oassis_core::{
    CachingCrowd, CrowdBinding, CrowdCache, FixedSampleAggregator, MiningConfig, MultiOutcome,
    Oassis, QueryRequest, SharedCrowdCache,
};
use oassis_ql::BoundQuery;
use ontology::domains::{travel, DomainScale};

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fnv_usize(h: &mut u64, v: usize) {
    fnv(h, &(v as u64).to_le_bytes());
}

/// Full multi-user outcome digest (mirrors `tests/golden_outcomes.rs`).
fn digest_multi(out: &MultiOutcome, b: &BoundQuery, vocab: &ontology::Vocabulary) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv_usize(&mut h, out.mining.questions);
    fnv_usize(&mut h, out.mining.msps.len());
    fnv_usize(&mut h, out.mining.valid_msps.len());
    fnv_usize(&mut h, out.mining.significant_valid.len());
    fnv_usize(&mut h, out.mining.total_valid);
    fnv_usize(&mut h, out.mining.valid_mult_nodes);
    fnv_usize(&mut h, out.mining.nodes_materialized);
    fnv_usize(&mut h, usize::from(out.mining.complete));
    for m in &out.mining.msps {
        fnv(&mut h, m.apply(b).to_display(vocab).as_bytes());
    }
    for e in &out.mining.events {
        fnv_usize(&mut h, e.question);
        fnv(&mut h, format!("{:?}", e.kind).as_bytes());
    }
    fnv_usize(&mut h, out.undecided);
    fnv_usize(&mut h, out.question_stats.concrete);
    fnv_usize(&mut h, out.question_stats.specialization);
    fnv_usize(&mut h, out.question_stats.none_of_these);
    fnv_usize(&mut h, out.question_stats.pruning);
    for &n in &out.answers_per_member {
        fnv_usize(&mut h, n);
    }
    h
}

#[test]
fn domain_workload_digests_match_at_every_pool_width() {
    // The travel-domain multi-user workload (bucketed answers, pruning
    // clicks, specialization questions, answer caching) through
    // `Oassis::run`, whose pool fans out the query's seven-pattern WHERE
    // clause; a smaller crowd than the paper's 248 keeps the runs
    // test-sized.
    let domain = travel(DomainScale::paper());
    let ont = &domain.ontology;
    let agg = bench::paper_aggregator();
    let run_at = |pool: minipool::Pool, seed: u64| -> (Vec<String>, u64) {
        let engine = Oassis::new(ont).with_pool(pool);
        let bound = engine.prepare(&domain.query).unwrap();
        let mut cache = CrowdCache::new();
        let mut crowd = CachingCrowd::new(
            bench::domain_crowd(&domain, ont.vocab(), 60, 8, seed),
            &mut cache,
        );
        let request = QueryRequest::pattern(&domain.query).with_mining(MiningConfig {
            threshold: Some(0.2),
            specialization_ratio: 0.12,
            seed,
            ..Default::default()
        });
        let answer = engine
            .run(&request, CrowdBinding::single(&mut crowd), &agg)
            .unwrap()
            .into_patterns()
            .unwrap();
        let digest = digest_multi(&answer.outcome, &bound, ont.vocab());
        (answer.answers, digest)
    };
    for seed in [7u64, 8, 9] {
        let reference = run_at(minipool::Pool::sequential(), seed);
        for width in WIDTHS {
            assert_eq!(
                run_at(minipool::Pool::new(width), seed),
                reference,
                "seed {seed}: pool width {width} changed the domain outcome"
            );
        }
    }
}

#[test]
fn concurrent_queries_match_sequential_execution_at_every_pool_width() {
    // N queries (same domain query at N thresholds) over one shared
    // ontology and shared answer cache, run by execute_concurrent at pool
    // widths 1/2/4: answers and outcome digests must not depend on the
    // width, because the crowd members are pure (rng-free answers) and
    // every query owns its own DAG and classifier.
    let domain = travel(DomainScale::paper());
    let ont = &domain.ontology;
    let thresholds = [0.18f64, 0.22, 0.26, 0.3];
    let queries: Vec<String> = thresholds
        .iter()
        .map(|t| {
            domain
                .query
                .replace("WITH SUPPORT = 0.2", &format!("WITH SUPPORT = {t}"))
        })
        .collect();
    let query_refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    let agg = FixedSampleAggregator { sample_size: 5 };
    let cfg = MiningConfig {
        specialization_ratio: 0.12,
        seed: 7,
        ..Default::default()
    };

    let run_at = |width: usize| -> Vec<(Vec<String>, u64)> {
        let engine = Oassis::new(ont).with_pool(minipool::Pool::new(width));
        let cache = SharedCrowdCache::default();
        let request = QueryRequest::batch(&query_refs).with_mining(cfg.clone());
        let make = |_| bench::pure_domain_crowd(&domain, ont.vocab(), 40, 8, 7);
        let answers = engine
            .run(&request, CrowdBinding::per_query(make, &cache), &agg)
            .unwrap()
            .into_batch()
            .unwrap();
        answers
            .into_iter()
            .map(|a| {
                let a = a.expect("query failed");
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                fnv_usize(&mut h, a.outcome.mining.questions);
                fnv_usize(&mut h, a.outcome.mining.msps.len());
                fnv_usize(&mut h, a.outcome.undecided);
                fnv_usize(&mut h, usize::from(a.outcome.mining.complete));
                for e in &a.outcome.mining.events {
                    fnv_usize(&mut h, e.question);
                    fnv(&mut h, format!("{:?}", e.kind).as_bytes());
                }
                (a.answers, h)
            })
            .collect()
    };

    let reference = run_at(1);
    for width in [2usize, 4] {
        assert_eq!(
            run_at(width),
            reference,
            "pool width {width} changed a concurrent query's outcome"
        );
    }
}
