//! Cross-crate integration test: the paper's worked running example,
//! end-to-end through the public umbrella API (Examples 2.3–4.6).

use oassis::ontology::domains::figure1;
use oassis::prelude::*;

mod common;
use common::figure1_avg_member as u_avg;

#[test]
fn full_figure_2_query_with_restaurants() {
    // The complete query of Figure 2, not just the grey simplification:
    // activities at child-friendly NYC attractions with a nearby
    // restaurant, plus MORE tips, at Θ = 0.4.
    let ont = figure1::ontology();
    let v = ont.vocab();
    let member = {
        let mut m = u_avg(&ont, 0);
        m.behavior.more_tip_prob = 1.0;
        m
    };
    let mut crowd = SimulatedCrowd::new(v, vec![member]);
    let engine = Oassis::new(&ont);
    let answer = engine
        .run(
            &QueryRequest::new(figure1::SAMPLE_QUERY),
            &mut crowd,
            &FixedSampleAggregator { sample_size: 1 },
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    assert!(answer.outcome.mining.complete);

    // The paper's expected answers (Introduction + Section 3):
    // "Go biking in Central Park and eat at Maoz Vegetarian (tip: rent the
    // bikes at the Boathouse)" and "Feed a monkey at the Bronx Zoo and eat
    // at Pine Restaurant".
    let biking_with_tip = answer.answers.iter().any(|a| {
        a.contains("Biking doAt Central Park")
            && a.contains("eatAt Maoz Veg")
            && a.contains("Rent Bikes doAt Boathouse")
    });
    assert!(
        biking_with_tip,
        "missing the Boathouse tip: {:#?}",
        answer.answers
    );
    let monkey = answer
        .answers
        .iter()
        .any(|a| a.contains("Feed a Monkey doAt Bronx Zoo") && a.contains("eatAt Pine"));
    assert!(
        monkey,
        "missing the Bronx Zoo answer: {:#?}",
        answer.answers
    );
    // Baseball (1/3 < 0.4) must not appear.
    assert!(!answer.answers.iter().any(|a| a.contains("Baseball")));
}

#[test]
fn example_3_1_significance_decisions() {
    // φ16 (y→Biking) significant at 0.4 (avg 5/12), φ20 (y→Baseball) not
    // (avg 1/3) — checked through the mining output.
    let ont = figure1::ontology();
    let engine = Oassis::new(&ont);
    let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 0)]);
    let all_query = figure1::SIMPLE_QUERY.replace("SELECT FACT-SETS", "SELECT FACT-SETS ALL");
    let answer = engine
        .run(
            &QueryRequest::new(&all_query),
            &mut crowd,
            &FixedSampleAggregator { sample_size: 1 },
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    assert!(answer
        .answers
        .iter()
        .any(|a| a == "Biking doAt Central Park"));
    assert!(!answer
        .answers
        .iter()
        .any(|a| a == "Baseball doAt Central Park"));
    // generalizations of significant patterns are significant (ALL output)
    assert!(answer
        .answers
        .iter()
        .any(|a| a == "Sport doAt Central Park"));
    assert!(answer
        .answers
        .iter()
        .any(|a| a == "Activity doAt Central Park"));
}

#[test]
fn threshold_sweep_monotonicity_of_significant_sets() {
    // Raising Θ can only shrink the significant region (MSP counts may
    // fluctuate — footnote 8 — but the union of cones shrinks).
    let ont = figure1::ontology();
    let engine = Oassis::new(&ont);
    let v = ont.vocab();
    let run = |theta: f64| {
        let mut crowd = SimulatedCrowd::new(v, vec![u_avg(&ont, 0)]);
        let cfg = MiningConfig {
            threshold: Some(theta),
            ..Default::default()
        };
        let all_query = figure1::SIMPLE_QUERY.replace("SELECT FACT-SETS", "SELECT FACT-SETS ALL");
        engine
            .run(
                &QueryRequest::new(&all_query).with_mining(cfg),
                &mut crowd,
                &FixedSampleAggregator { sample_size: 1 },
            )
            .unwrap()
            .into_patterns()
            .unwrap()
    };
    let mut prev: Option<std::collections::HashSet<String>> = None;
    for theta in [0.2, 0.3, 0.4, 0.5] {
        let ans = run(theta);
        let set: std::collections::HashSet<String> = ans.answers.iter().cloned().collect();
        if let Some(p) = &prev {
            assert!(
                set.is_subset(p),
                "significant set grew when Θ rose to {theta}"
            );
        }
        prev = Some(set);
    }
}

#[test]
fn questions_scale_with_threshold_like_figure_4a() {
    // The per-threshold question counts exist and the run completes for
    // every threshold of Figure 4's sweep.
    let ont = figure1::ontology();
    let engine = Oassis::new(&ont);
    let v = ont.vocab();
    for theta in [0.2, 0.3, 0.4, 0.5] {
        let mut crowd = SimulatedCrowd::new(v, vec![u_avg(&ont, 0)]);
        let cfg = MiningConfig {
            threshold: Some(theta),
            ..Default::default()
        };
        let ans = engine
            .run(
                &QueryRequest::new(figure1::SIMPLE_QUERY).with_mining(cfg),
                &mut crowd,
                &FixedSampleAggregator { sample_size: 1 },
            )
            .unwrap()
            .into_patterns()
            .unwrap();
        assert!(ans.outcome.mining.complete, "Θ={theta} incomplete");
        assert!(ans.outcome.mining.questions > 0);
    }
}

#[test]
fn natural_language_rendering_of_the_paper_question() {
    let ont = figure1::ontology();
    let v = ont.vocab();
    let engine = Oassis::new(&ont).with_templates(QuestionTemplates::travel_defaults(v));
    let q = Question::Concrete {
        pattern: PatternSet::from_facts([
            v.fact("Biking", "doAt", "Central Park").unwrap(),
            v.fact("Falafel", "eatAt", "Maoz Veg").unwrap(),
        ]),
    };
    let rendered = engine.render_question(&q);
    assert!(rendered.starts_with("How often do you"));
    assert!(rendered.contains("biking in Central Park"));
    assert!(rendered.contains("eat falafel at Maoz Veg"));
}
