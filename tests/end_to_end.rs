//! End-to-end scenarios across the generated evaluation domains, with
//! failure injection: leaving members, spammers, undecided aggregation,
//! and threshold sweeps over a cache paged back in from the session WAL.

use oassis::core::cache::{AnswerStore, CachedAnswer};
use oassis::crowd::population::{generate, HabitProfile, PopulationConfig};
use oassis::ontology::domains::{culinary, self_treatment, travel, DomainScale};
use oassis::ontology::PatternSet;
use oassis::prelude::*;
use oassis::server::SessionWal;

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

/// The answer store of a served session: every fresh answer is appended
/// to the session's WAL at ask time, then cached.
struct Logged<'a> {
    wal: &'a mut SessionWal,
    cache: &'a mut CrowdCache,
}

impl AnswerStore for Logged<'_> {
    fn get(&self, member: MemberId, pattern: &PatternSet) -> Option<CachedAnswer> {
        CrowdCache::get(self.cache, member, pattern).cloned()
    }

    fn put(&mut self, member: MemberId, pattern: &PatternSet, answer: CachedAnswer, tick: usize) {
        let appended = self
            .wal
            .append_answer(member, tick as u32, pattern, &answer)
            .unwrap();
        assert!(appended, "no kill switch is armed");
        self.cache.put(member, pattern.clone(), answer);
    }
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
    let dir = std::env::temp_dir().join(format!("oassis-e2e-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut wal = SessionWal::open(&dir, 0).unwrap();
    let mut cache = CrowdCache::new();
    {
        let crowd = SimulatedCrowd::new(v, members.clone());
        let store = Logged {
            wal: &mut wal,
            cache: &mut cache,
        };
        let mut caching = oassis::core::CachingCrowd::new(crowd, store);
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
    wal.close_files();
    // a restarted process pages the answers back in from the log
    let mut restored = wal.recover(v).unwrap().cache;
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!cache.is_empty());
    assert_eq!(restored, cache);
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

#[test]
fn semantic_match_mode_widens_star_paths_too() {
    // A `nearBy*` step follows the facts a one-step `nearBy` pattern
    // matches: in Semantic mode that includes the `inside` facts.
    let ont = oassis::ontology::domains::figure1::ontology();
    let src = r#"
SELECT FACT-SETS
WHERE
  $p nearBy* NYC
SATISFYING
  Biking doAt $p
WITH SUPPORT = 0.2
"#;
    let q = parse(src).unwrap();
    let b = bind(&q, &ont).unwrap();
    let names = |mode| -> Vec<String> {
        let mut names: Vec<String> = evaluate_where(&b, &ont, mode)
            .iter()
            .map(|a| {
                ont.vocab()
                    .elem_name(a.0[0].and_then(Value::as_elem).unwrap())
                    .to_owned()
            })
            .collect();
        names.sort();
        names
    };
    // exactly: only the 0-length path, as no `nearBy` fact reaches NYC
    assert_eq!(names(MatchMode::Exact), ["NYC"]);
    // semantically: the three inside-NYC attractions, what is nearBy them,
    // and NYC itself
    assert_eq!(
        names(MatchMode::Semantic),
        [
            "Bronx Zoo",
            "Central Park",
            "Madison Square",
            "Maoz Veg",
            "NYC",
            "Pine"
        ]
    );
}
