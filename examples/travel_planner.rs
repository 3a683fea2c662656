//! Travel planner: the paper's motivating scenario on the generated
//! travel domain (Section 6.3), with a realistic simulated crowd.
//!
//! The query asks for popular combinations of an activity at a
//! child-friendly attraction and a nearby restaurant — plus MORE tips.
//! The crowd is a generated population whose members share planted habits
//! with noise, answer on the 5-point never…very-often scale, sometimes
//! volunteer tips, prune irrelevant values, and leave after a bounded
//! number of questions. The same query is then re-evaluated at a higher
//! threshold from the CrowdCache without new crowd work.
//!
//! ```sh
//! cargo run --release --example travel_planner
//! ```

use oassis::crowd::population::{generate, HabitProfile, PopulationConfig};
use oassis::ontology::domains::{travel, DomainScale};
use oassis::prelude::*;

fn main() {
    let domain = travel(DomainScale::small());
    let ont = &domain.ontology;
    let v = ont.vocab();
    println!(
        "domain: {} — {} elements, {} facts",
        domain.name,
        v.num_elems(),
        ont.num_facts()
    );

    // Ground truth: a handful of habits the population shares.
    let fact = |s: &str, r: &str, o: &str| v.fact(s, r, o).expect("domain term");
    let profiles = vec![
        HabitProfile {
            facts: vec![
                fact("ActivityKind5", "doAt", "Attraction1"),
                fact("Snack1", "eatAt", "Restaurant1"),
            ],
            adoption: 0.97,
            frequency: 0.7,
        },
        HabitProfile {
            facts: vec![
                fact("ActivityKind7", "doAt", "Attraction2"),
                fact("Snack2", "eatAt", "Restaurant2"),
                fact("Rent Gear", "doAt", "Attraction2"), // the MORE tip
            ],
            adoption: 0.8,
            frequency: 0.45,
        },
        HabitProfile {
            facts: vec![
                fact("ActivityKind3", "doAt", "Attraction4"),
                fact("Snack1", "eatAt", "Restaurant1"),
            ],
            adoption: 0.35,
            frequency: 0.3,
        },
    ];
    let cfg = PopulationConfig {
        members: 120,
        behavior: MemberBehavior {
            session_limit: Some(40),
            pruning_prob: 0.25,
            more_tip_prob: 0.3,
            spammer: false,
            stall_every: None,
        },
        answer_model: AnswerModel::Bucketed5,
        seed: 42,
        ..Default::default()
    };
    let members = generate(&profiles, &cfg);
    println!(
        "crowd: {} members, ~{} questions each before leaving\n",
        members.len(),
        40
    );

    let engine = Oassis::new(ont).with_templates(QuestionTemplates::travel_defaults(v));
    println!("query:\n{}\n", domain.query);

    // First evaluation at Θ = 0.2, answers flowing into the CrowdCache.
    let mut cache = CrowdCache::new();
    let mining = MiningConfig {
        threshold: Some(0.2),
        specialization_ratio: 0.1,
        seed: 7,
        ..Default::default()
    };
    let request = QueryRequest::pattern(&domain.query).with_mining(mining.clone());
    let (answers_02, used_02, fresh_02) = {
        let crowd = SimulatedCrowd::new(v, members.clone());
        let mut caching = oassis::core::CachingCrowd::new(crowd, &mut cache);
        let ans = engine
            .run(
                &request,
                &mut caching,
                &FixedSampleAggregator { sample_size: 5 },
            )
            .expect("query runs")
            .into_patterns()
            .expect("pattern query");
        (ans, caching.total_questions(), caching.fresh_questions())
    };
    println!(
        "Θ = 0.2: {} answers used ({} fresh), {} valid MSPs:",
        used_02,
        fresh_02,
        answers_02.answers.len()
    );
    for a in answers_02.answers.iter().take(12) {
        println!("  • {a}");
    }
    let qs = &answers_02.outcome.question_stats;
    println!(
        "answer mix: {} concrete / {} specialization / {} none-of-these / {} pruning clicks\n",
        qs.concrete, qs.specialization, qs.none_of_these, qs.pruning
    );

    // Re-evaluate at Θ = 0.4 — cached answers are reused; the builder
    // override keeps every other mining knob from the first run.
    let request_04 = QueryRequest::pattern(&domain.query)
        .with_mining(mining.clone())
        .threshold(0.4);
    let (answers_04, used_04, fresh_04) = {
        let mut fresh_members = members.clone();
        for m in &mut fresh_members {
            m.reset_session();
        }
        let crowd = SimulatedCrowd::new(v, fresh_members);
        let mut caching = oassis::core::CachingCrowd::new(crowd, &mut cache);
        let ans = engine
            .run(
                &request_04,
                &mut caching,
                &FixedSampleAggregator { sample_size: 5 },
            )
            .expect("query runs")
            .into_patterns()
            .expect("pattern query");
        (ans, caching.total_questions(), caching.fresh_questions())
    };
    println!(
        "Θ = 0.4 (from cache): {} answers used, only {} fresh crowd questions, {} valid MSPs:",
        used_04,
        fresh_04,
        answers_04.answers.len()
    );
    for a in answers_04.answers.iter().take(12) {
        println!("  • {a}");
    }

    // MORE tips surface as extended MSPs.
    let with_more = answers_02
        .outcome
        .mining
        .msps
        .iter()
        .filter(|m| !m.more().is_empty())
        .count();
    println!("\nMSPs carrying a volunteered MORE tip at Θ=0.2: {with_more}");
}
