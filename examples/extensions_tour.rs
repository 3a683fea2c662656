//! A tour of the Section-8 language extensions implemented in this
//! reproduction: `TOP k`, `TOP k DIVERSE`, `IMPLYING … AND CONFIDENCE`
//! (association rules) and `ASKING "label"` (crowd selection).
//!
//! ```sh
//! cargo run --example extensions_tour
//! ```

use oassis::core::RuleMiningConfig;
use oassis::ontology::domains::figure1;
use oassis::prelude::*;

fn u_avg(ont: &Ontology, seed: u64) -> SimulatedMember {
    let [d1, d2] = figure1::personal_dbs(ont);
    let mut tx = d1;
    for _ in 0..3 {
        tx.extend(d2.iter().cloned());
    }
    SimulatedMember::new(
        PersonalDb::from_transactions(tx),
        MemberBehavior::default(),
        AnswerModel::Exact,
        seed,
    )
}

fn main() {
    let ont = figure1::ontology();
    let engine = Oassis::new(&ont);
    let agg = FixedSampleAggregator { sample_size: 1 };

    // ---- TOP k: early termination ----------------------------------
    let top_query = figure1::SIMPLE_QUERY.replace("SELECT FACT-SETS", "SELECT FACT-SETS TOP 1");
    let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 1)]);
    let top = engine
        .run(&QueryRequest::pattern(&top_query), &mut crowd, &agg)
        .unwrap()
        .into_patterns()
        .unwrap();
    let mut crowd_full = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 1)]);
    let full = engine
        .run(
            &QueryRequest::pattern(figure1::SIMPLE_QUERY),
            &mut crowd_full,
            &agg,
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    println!(
        "TOP 1 stopped after {} questions (full run: {}):",
        top.outcome.mining.questions, full.outcome.mining.questions
    );
    for a in &top.answers {
        println!("  • {a}");
    }

    // ---- TOP k DIVERSE: spread answers ------------------------------
    let div_query =
        figure1::SIMPLE_QUERY.replace("SELECT FACT-SETS", "SELECT FACT-SETS TOP 2 DIVERSE");
    let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 1)]);
    let div = engine
        .run(&QueryRequest::pattern(&div_query), &mut crowd, &agg)
        .unwrap()
        .into_patterns()
        .unwrap();
    println!("\nTOP 2 DIVERSE picks answers spanning both attractions:");
    for a in &div.answers {
        println!("  • {a}");
    }

    // ---- IMPLYING … AND CONFIDENCE: association rules ---------------
    let rule_src = r#"
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity.
  $z instanceOf Restaurant.
  $z nearBy $x
SATISFYING
  $y doAt $x
IMPLYING
  [] eatAt $z
WITH SUPPORT = 0.3 AND CONFIDENCE = 0.75
"#;
    let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 1)]);
    // `run` dispatches on the IMPLYING clause — no separate entry point
    let rules = engine
        .run(
            &QueryRequest::new(rule_src).with_rules(RuleMiningConfig {
                panel_size: 1,
                ..Default::default()
            }),
            &mut crowd,
            &agg,
        )
        .unwrap()
        .into_rules()
        .unwrap();
    println!(
        "\nassociation rules (activity ⇒ nearby meal), {} questions:",
        rules.outcome.questions
    );
    for a in &rules.answers {
        println!("  • {a}");
    }

    // ---- ASKING: crowd selection ------------------------------------
    let asking_query = figure1::SIMPLE_QUERY.replace("WHERE", "ASKING \"local\"\nWHERE");
    let members = vec![
        u_avg(&ont, 1).with_profile(&["local"]),
        SimulatedMember::new(
            PersonalDb::new(),
            MemberBehavior::default(),
            AnswerModel::Exact,
            2,
        )
        .with_profile(&["tourist"]),
        u_avg(&ont, 3).with_profile(&["local"]),
    ];
    let mut crowd = SimulatedCrowd::new(ont.vocab(), members);
    let agg2 = FixedSampleAggregator { sample_size: 2 };
    let asked = engine
        .run(&QueryRequest::pattern(&asking_query), &mut crowd, &agg2)
        .unwrap()
        .into_patterns()
        .unwrap();
    println!(
        "\nASKING \"local\" recruited {} of 3 members; answers:",
        asked.outcome.answers_per_member.len()
    );
    for a in &asked.answers {
        println!("  • {a}");
    }
}
