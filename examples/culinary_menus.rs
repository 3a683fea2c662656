//! Culinary preferences: class-level mining with multiplicities
//! (Section 6.3's second domain).
//!
//! "In one of the culinary queries we found, among others, that crowd
//! members often have a steak with fries and a coke" — a multiplicity-2
//! MSP: two dishes assigned to `$x+` served with the same drink. This
//! example plants exactly that shape and shows the lazy combination
//! machinery (Section 5) discovering it.
//!
//! ```sh
//! cargo run --release --example culinary_menus
//! ```

use oassis::crowd::population::{generate, HabitProfile, PopulationConfig};
use oassis::ontology::domains::{culinary, DomainScale};
use oassis::prelude::*;

fn main() {
    let domain = culinary(DomainScale::small());
    let ont = &domain.ontology;
    let v = ont.vocab();
    println!("domain: {} — {} elements\n", domain.name, v.num_elems());

    // Plant: "steak with fries and a coke" — DishKind4 ≈ steak,
    // DishKind9 ≈ fries, DrinkKind3 ≈ coke; plus a muesli-with-yogurt
    // breakfast habit with apple juice (the paper's surprising find).
    let fact = |s: &str, r: &str, o: &str| v.fact(s, r, o).expect("domain term");
    let profiles = vec![
        HabitProfile {
            facts: vec![
                fact("DishKind4", "servedWith", "DrinkKind3"),
                fact("DishKind9", "servedWith", "DrinkKind3"),
            ],
            adoption: 0.9,
            frequency: 0.6,
        },
        HabitProfile {
            facts: vec![
                fact("DishKind11", "servedWith", "DrinkKind7"),
                fact("DishKind12", "servedWith", "DrinkKind7"),
            ],
            adoption: 0.75,
            frequency: 0.5,
        },
        HabitProfile {
            facts: vec![fact("DishKind2", "servedWith", "DrinkKind5")],
            adoption: 0.5,
            frequency: 0.4,
        },
    ];
    let cfg = PopulationConfig {
        members: 100,
        behavior: MemberBehavior {
            session_limit: Some(60),
            ..Default::default()
        },
        answer_model: AnswerModel::Bucketed5,
        seed: 9,
        ..Default::default()
    };
    let members = generate(&profiles, &cfg);

    let engine = Oassis::new(ont);
    println!("query:\n{}\n", domain.query);
    let request = QueryRequest::pattern(&domain.query).threshold(0.25).seed(3);
    let answer = engine
        .run(
            &request,
            &mut SimulatedCrowd::new(v, members),
            &FixedSampleAggregator { sample_size: 5 },
        )
        .expect("query runs")
        .into_patterns()
        .expect("pattern query");

    println!(
        "{} answers used; mined menus (valid MSPs):",
        answer.outcome.mining.questions
    );
    for a in &answer.answers {
        println!("  • {a}");
    }

    // Class-level query: every MSP is valid (footnote 7 of the paper).
    assert_eq!(
        answer.outcome.mining.msps.len(),
        answer.outcome.mining.valid_msps.len()
    );
    let multi = answer
        .outcome
        .mining
        .msps
        .iter()
        .filter(|m| m.total_values() > 2)
        .count();
    println!(
        "\nall {} MSPs are valid (class-level query); {} involve multiplicities",
        answer.outcome.mining.msps.len(),
        multi
    );
    println!(
        "lazy generation: {} nodes materialized of a {}-node (paper-scale: {}) DAG",
        answer.outcome.mining.nodes_materialized,
        domain.expected_dag_nodes,
        culinary(DomainScale::paper()).expected_dag_nodes
    );
}
