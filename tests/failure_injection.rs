//! Failure injection across the stack: flaky members, spam, undecidable
//! aggregation, question budgets, and recovery via cached answers.

use oassis::crowd::population::{generate, PopulationConfig};
use oassis::ontology::domains::figure1;
use oassis::prelude::*;

mod common;
use common::figure1_profiles as profiles;

#[test]
fn everyone_leaving_immediately_yields_empty_but_sane_output() {
    let ont = figure1::ontology();
    let members = generate(
        &profiles(&ont),
        &PopulationConfig {
            members: 10,
            behavior: MemberBehavior {
                session_limit: Some(0),
                ..Default::default()
            },
            seed: 1,
            ..Default::default()
        },
    );
    let engine = Oassis::new(&ont);
    let ans = engine
        .run(
            &QueryRequest::new(figure1::SIMPLE_QUERY).with_mining(MiningConfig {
                threshold: Some(0.2),
                ..Default::default()
            }),
            &mut SimulatedCrowd::new(ont.vocab(), members),
            &FixedSampleAggregator { sample_size: 5 },
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    assert_eq!(ans.outcome.mining.questions, 0);
    assert!(ans.answers.is_empty());
    assert!(!ans.outcome.mining.complete);
}

#[test]
fn quorum_larger_than_crowd_never_decides() {
    let ont = figure1::ontology();
    let members = generate(
        &profiles(&ont),
        &PopulationConfig {
            members: 3,
            seed: 2,
            ..Default::default()
        },
    );
    let engine = Oassis::new(&ont);
    let ans = engine
        .run(
            &QueryRequest::new(figure1::SIMPLE_QUERY).with_mining(MiningConfig {
                threshold: Some(0.2),
                ..Default::default()
            }),
            &mut SimulatedCrowd::new(ont.vocab(), members),
            &FixedSampleAggregator { sample_size: 10 }, // unreachable quorum
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    assert!(!ans.outcome.mining.complete);
    assert!(ans.answers.is_empty());
    assert!(ans.outcome.mining.msps.is_empty());
    assert!(ans.outcome.undecided > 0);
    // members still explore their personally-significant regions (rule 4),
    // but never re-answer a node, so the run terminates within
    // members × materialized nodes
    assert!(ans.outcome.mining.questions <= 3 * ans.outcome.mining.nodes_materialized);
}

#[test]
fn all_spammers_produce_noise_but_never_panic() {
    let ont = figure1::ontology();
    let mut members = generate(
        &profiles(&ont),
        &PopulationConfig {
            members: 20,
            seed: 3,
            ..Default::default()
        },
    );
    for m in &mut members {
        m.behavior.spammer = true;
    }
    let engine = Oassis::new(&ont);
    let ans = engine
        .run(
            &QueryRequest::new(figure1::SIMPLE_QUERY).with_mining(MiningConfig {
                threshold: Some(0.2),
                specialization_ratio: 0.3,
                ..Default::default()
            }),
            &mut SimulatedCrowd::new(ont.vocab(), members),
            &FixedSampleAggregator { sample_size: 5 },
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    // spam produces *some* classification; results are garbage but valid
    assert!(ans.outcome.mining.questions > 0);
    for m in &ans.outcome.mining.msps {
        // every reported MSP is a well-formed assignment
        assert!(m.num_slots() == 2);
    }
}

#[test]
fn tiny_question_budget_is_respected_end_to_end() {
    let ont = figure1::ontology();
    let members = generate(
        &profiles(&ont),
        &PopulationConfig {
            members: 10,
            seed: 4,
            ..Default::default()
        },
    );
    let engine = Oassis::new(&ont);
    for budget in [0usize, 1, 3, 7] {
        let result = engine.run(
            &QueryRequest::new(figure1::SIMPLE_QUERY).with_mining(MiningConfig {
                threshold: Some(0.2),
                max_questions: Some(budget),
                ..Default::default()
            }),
            &mut SimulatedCrowd::new(
                ont.vocab(),
                generate(
                    &profiles(&ont),
                    &PopulationConfig {
                        members: 10,
                        seed: 4,
                        ..Default::default()
                    },
                ),
            ),
            &FixedSampleAggregator { sample_size: 5 },
        );
        if budget == 0 {
            // a zero budget is rejected up front by run's validation
            assert!(result.is_err(), "budget 0 must be rejected");
            continue;
        }
        let ans = result.unwrap().into_patterns().unwrap();
        assert!(ans.outcome.mining.questions <= budget, "budget {budget}");
    }
    let _ = members;
}

#[test]
fn semantic_match_mode_mines_end_to_end() {
    // nearBy ≤R inside widens the valid set under Semantic matching;
    // mining still converges and finds the planted habits.
    let ont = figure1::ontology();
    let members = generate(
        &profiles(&ont),
        &PopulationConfig {
            members: 10,
            seed: 5,
            answer_model: AnswerModel::Exact,
            ..Default::default()
        },
    );
    let engine = Oassis::new(&ont).with_match_mode(MatchMode::Semantic);
    let ans = engine
        .run(
            &QueryRequest::new(figure1::SIMPLE_QUERY).with_mining(MiningConfig {
                threshold: Some(0.2),
                ..Default::default()
            }),
            &mut SimulatedCrowd::new(ont.vocab(), members),
            &FixedSampleAggregator { sample_size: 5 },
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    assert!(ans.outcome.mining.complete);
    assert!(
        ans.answers
            .iter()
            .any(|a| a.contains("Biking doAt Central Park")),
        "{:?}",
        ans.answers
    );
}

#[test]
fn early_decision_aggregator_agrees_with_fixed_sample() {
    let ont = figure1::ontology();
    let mk_members = || {
        generate(
            &profiles(&ont),
            &PopulationConfig {
                members: 12,
                seed: 6,
                answer_model: AnswerModel::Exact,
                ..Default::default()
            },
        )
    };
    let engine = Oassis::new(&ont);
    let cfg = MiningConfig {
        threshold: Some(0.2),
        ..Default::default()
    };
    let request = QueryRequest::new(figure1::SIMPLE_QUERY).with_mining(cfg.clone());
    let fixed = engine
        .run(
            &request,
            &mut SimulatedCrowd::new(ont.vocab(), mk_members()),
            &FixedSampleAggregator { sample_size: 5 },
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    let early = engine
        .run(
            &request,
            &mut SimulatedCrowd::new(ont.vocab(), mk_members()),
            &EarlyDecisionAggregator { sample_size: 5 },
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    // early decision may classify from fewer answers, never more
    assert!(early.outcome.mining.questions <= fixed.outcome.mining.questions);
    // both find the dominant habit
    for ans in [&fixed, &early] {
        assert!(
            ans.answers.iter().any(|a| a.contains("doAt Central Park")),
            "{:?}",
            ans.answers
        );
    }
}
