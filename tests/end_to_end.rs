//! End-to-end scenarios across the generated evaluation domains, with
//! failure injection: leaving members, spammers, undecided aggregation,
//! and cache-backed threshold sweeps.

use oassis::crowd::population::{generate, HabitProfile, PopulationConfig};
use oassis::ontology::domains::{culinary, self_treatment, travel, DomainScale};
use oassis::prelude::*;

mod common;
use common::travel_profiles;

#[test]
fn travel_domain_end_to_end() {
    let domain = travel(DomainScale::small());
    let ont = &domain.ontology;
    let members = generate(
        &travel_profiles(ont),
        &PopulationConfig {
            members: 80,
            answer_model: AnswerModel::Bucketed5,
            seed: 1,
            ..Default::default()
        },
    );
    let engine = Oassis::new(ont);
    let cfg = MiningConfig {
        threshold: Some(0.2),
        ..Default::default()
    };
    let ans = engine
        .run(
            &QueryRequest::new(&domain.query).with_mining(cfg.clone()),
            &mut SimulatedCrowd::new(ont.vocab(), members),
            &FixedSampleAggregator { sample_size: 5 },
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    // the strongly planted habit must surface
    assert!(
        ans.answers.iter().any(|a| a.contains("doAt Attraction1")),
        "{:#?}",
        ans.answers
    );
    // instance-level query: invalid MSPs (class-level x/z) may exist, so
    // #MSPs ≥ #valid — and here the counters must be coherent
    let m = &ans.outcome.mining;
    assert!(m.msps.len() >= m.valid_msps.len());
    assert_eq!(ans.answers.len(), m.valid_msps.len());
}

#[test]
fn class_level_domains_have_only_valid_msps() {
    for domain in [
        culinary(DomainScale::small()),
        self_treatment(DomainScale::small()),
    ] {
        let ont = &domain.ontology;
        let v = ont.vocab();
        // simple planted habit per domain: first two universe elements
        let (rel, lhs_root, rhs_root) = match domain.name {
            "culinary" => ("servedWith", "DishKind3", "DrinkKind3"),
            _ => ("takenFor", "RemedyKind3", "SymptomKind3"),
        };
        let profiles = vec![HabitProfile {
            facts: vec![v.fact(lhs_root, rel, rhs_root).unwrap()],
            adoption: 0.9,
            frequency: 0.55,
        }];
        let members = generate(
            &profiles,
            &PopulationConfig {
                members: 60,
                answer_model: AnswerModel::Exact,
                seed: 2,
                ..Default::default()
            },
        );
        let engine = Oassis::new(ont);
        let ans = engine
            .run(
                &QueryRequest::new(&domain.query).with_mining(MiningConfig {
                    threshold: Some(0.25),
                    ..Default::default()
                }),
                &mut SimulatedCrowd::new(v, members),
                &FixedSampleAggregator { sample_size: 5 },
            )
            .unwrap()
            .into_patterns()
            .unwrap();
        let m = &ans.outcome.mining;
        assert_eq!(
            m.msps.len(),
            m.valid_msps.len(),
            "{}: invalid MSPs in a class-level query",
            domain.name
        );
        assert!(!m.msps.is_empty(), "{}: nothing mined", domain.name);
    }
}

#[test]
fn crowd_exhaustion_reports_incomplete() {
    let domain = travel(DomainScale::small());
    let ont = &domain.ontology;
    let members = generate(
        &travel_profiles(ont),
        &PopulationConfig {
            members: 6,
            behavior: MemberBehavior {
                session_limit: Some(3),
                ..Default::default()
            },
            seed: 3,
            ..Default::default()
        },
    );
    let engine = Oassis::new(ont);
    let ans = engine
        .run(
            &QueryRequest::new(&domain.query).with_mining(MiningConfig {
                threshold: Some(0.2),
                ..Default::default()
            }),
            &mut SimulatedCrowd::new(ont.vocab(), members),
            &FixedSampleAggregator { sample_size: 5 },
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    assert!(!ans.outcome.mining.complete);
    assert!(ans.outcome.mining.questions <= 18);
    assert!(ans.outcome.undecided > 0);
}

#[test]
fn spammers_change_results_unless_filtered() {
    let domain = self_treatment(DomainScale::small());
    let ont = &domain.ontology;
    let v = ont.vocab();
    let profiles = vec![HabitProfile {
        facts: vec![v.fact("RemedyKind3", "takenFor", "SymptomKind2").unwrap()],
        adoption: 0.9,
        frequency: 0.5,
    }];
    let mut members = generate(
        &profiles,
        &PopulationConfig {
            members: 40,
            seed: 4,
            answer_model: AnswerModel::Exact,
            ..Default::default()
        },
    );
    for m in members.iter_mut().take(20) {
        m.behavior.spammer = true;
    }
    let engine = Oassis::new(ont);
    let cfg = MiningConfig {
        threshold: Some(0.3),
        ..Default::default()
    };

    // trust-weighted aggregation with perfect spammer knowledge
    let mut trust = std::collections::HashMap::new();
    for i in 0..20u32 {
        trust.insert(MemberId(i), 0.0);
    }
    let weighted = oassis::core::TrustWeightedAggregator {
        sample_size: 5,
        trust,
    };
    let request = QueryRequest::new(&domain.query).with_mining(cfg.clone());
    let filtered = engine
        .run(
            &request,
            &mut SimulatedCrowd::new(v, members.clone()),
            &weighted,
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    // unweighted: spam noise inflates/deflates the answer set
    for m in members.iter_mut() {
        m.reset_session();
    }
    let unfiltered = engine
        .run(
            &request,
            &mut SimulatedCrowd::new(v, members),
            &FixedSampleAggregator { sample_size: 5 },
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    assert!(
        filtered.answers.iter().any(|a| a.contains("RemedyKind3")),
        "{:#?}",
        filtered.answers
    );
    assert_ne!(
        filtered.answers, unfiltered.answers,
        "spam should have changed the unfiltered output"
    );
}

#[test]
fn cache_snapshot_survives_serialization_between_runs() {
    let domain = self_treatment(DomainScale::small());
    let ont = &domain.ontology;
    let v = ont.vocab();
    let profiles = vec![HabitProfile {
        facts: vec![v.fact("RemedyKind2", "takenFor", "SymptomKind4").unwrap()],
        adoption: 0.9,
        frequency: 0.6,
    }];
    let members = generate(
        &profiles,
        &PopulationConfig {
            members: 30,
            seed: 6,
            answer_model: AnswerModel::Exact,
            ..Default::default()
        },
    );
    let engine = Oassis::new(ont);
    let mut cache = CrowdCache::new();
    {
        let crowd = SimulatedCrowd::new(v, members.clone());
        let mut caching = oassis::core::CachingCrowd::new(crowd, &mut cache);
        engine
            .run(
                &QueryRequest::new(&domain.query).with_mining(MiningConfig {
                    threshold: Some(0.2),
                    ..Default::default()
                }),
                &mut caching,
                &FixedSampleAggregator { sample_size: 5 },
            )
            .unwrap();
    }
    let json = cache.to_json();
    let mut restored = CrowdCache::from_json(&json).unwrap();
    assert_eq!(restored.len(), cache.len());
    // run at a new threshold from the restored cache
    let crowd = SimulatedCrowd::new(v, members);
    let mut caching = oassis::core::CachingCrowd::new(crowd, &mut restored);
    let ans = engine
        .run(
            &QueryRequest::new(&domain.query).with_mining(MiningConfig {
                threshold: Some(0.4),
                ..Default::default()
            }),
            &mut caching,
            &FixedSampleAggregator { sample_size: 5 },
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    assert!(caching.fresh_questions() < caching.total_questions());
    assert!(ans.outcome.mining.questions > 0);
}

#[test]
fn semantic_match_mode_widens_the_where_results() {
    // nearBy ≤R inside lets semantic matching find assignments the exact
    // (SPARQL) mode misses.
    let ont = oassis::ontology::domains::figure1::ontology();
    let src = r#"
SELECT FACT-SETS
WHERE
  $p nearBy NYC
SATISFYING
  Biking doAt $p
WITH SUPPORT = 0.2
"#;
    let q = parse(src).unwrap();
    let b = bind(&q, &ont).unwrap();
    let exact = evaluate_where(&b, &ont, MatchMode::Exact);
    let semantic = evaluate_where(&b, &ont, MatchMode::Semantic);
    assert!(exact.is_empty());
    assert_eq!(semantic.len(), 3); // the three inside-NYC attractions
}
