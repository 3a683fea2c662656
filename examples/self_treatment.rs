//! Self-treatment: mining folk remedies, with spammers in the crowd
//! (Section 6.3's third domain + the quality filter of Section 4.2).
//!
//! A fraction of the crowd answers at random. The consistency check —
//! "the support for more specific assignments cannot be larger" — flags
//! them, and a trust-weighted aggregator discounts their answers.
//!
//! ```sh
//! cargo run --release --example self_treatment
//! ```

use oassis::crowd::population::{generate, HabitProfile, PopulationConfig};
use oassis::crowd::quality::{check_consistency, Observation};
use oassis::ontology::domains::{self_treatment, DomainScale};
use oassis::prelude::*;

fn main() {
    let domain = self_treatment(DomainScale::small());
    let ont = &domain.ontology;
    let v = ont.vocab();
    println!("domain: {} — {} elements\n", domain.name, v.num_elems());

    let fact = |s: &str, r: &str, o: &str| v.fact(s, r, o).expect("domain term");
    let profiles = vec![
        HabitProfile {
            facts: vec![fact("RemedyKind3", "takenFor", "SymptomKind2")],
            adoption: 0.85,
            frequency: 0.55,
        },
        HabitProfile {
            facts: vec![fact("RemedyKind7", "takenFor", "SymptomKind5")],
            adoption: 0.6,
            frequency: 0.45,
        },
    ];
    let cfg = PopulationConfig {
        members: 60,
        answer_model: AnswerModel::Bucketed5,
        seed: 5,
        ..Default::default()
    };
    let mut members = generate(&profiles, &cfg);
    // a third of the crowd are spammers
    let spammers = members.len() / 3;
    for m in members.iter_mut().take(spammers) {
        m.behavior.spammer = true;
    }
    println!(
        "crowd: {} members, {} of them spammers\n",
        members.len(),
        spammers
    );

    // --- Step 1: screen members with the consistency check -------------
    // Ask each member a generalization chain; spammers violate
    // monotonicity (support of a specialization exceeding its
    // generalization) far more often.
    let chain: Vec<PatternSet> = ["Remedy", "RemedyKind1", "RemedyKind4"]
        .iter()
        .map(|r| PatternSet::from_facts([fact(r, "takenFor", "Symptom")]))
        .collect();
    let mut flagged = 0usize;
    let mut flags: Vec<bool> = Vec::with_capacity(members.len());
    for m in members.iter_mut() {
        let mut obs = Vec::new();
        for p in &chain {
            if let Answer::Support { support, .. } =
                m.answer(v, &Question::Concrete { pattern: p.clone() })
            {
                obs.push(Observation {
                    pattern: p.clone(),
                    support,
                });
            }
        }
        let report = check_consistency(v, &obs, 0.01);
        let spam = report.is_spammer(0.0);
        flags.push(spam);
        if spam {
            flagged += 1;
        }
        m.reset_session();
    }
    let caught = flags.iter().take(spammers).filter(|&&f| f).count();
    let false_pos = flags.iter().skip(spammers).filter(|&&f| f).count();
    println!(
        "consistency screen: flagged {flagged} members ({caught}/{spammers} true spammers, {false_pos} honest members misflagged)\n"
    );

    // --- Step 2: mine with a trust-weighted aggregator ------------------
    let mut trust = std::collections::HashMap::new();
    for (i, &f) in flags.iter().enumerate() {
        if f {
            trust.insert(MemberId(i as u32), 0.0);
        }
    }
    let aggregator = oassis::core::TrustWeightedAggregator {
        sample_size: 5,
        trust,
    };
    let engine = Oassis::new(ont);
    let request = QueryRequest::pattern(&domain.query).threshold(0.25).seed(1);
    let answer = engine
        .run(
            &request,
            &mut SimulatedCrowd::new(v, members.clone()),
            &aggregator,
        )
        .expect("query runs")
        .into_patterns()
        .expect("pattern query");
    println!(
        "with trust weighting — {} remedies mined:",
        answer.answers.len()
    );
    for a in &answer.answers {
        println!("  • {a}");
    }

    // --- Comparison: unweighted aggregation over the same crowd ---------
    for m in members.iter_mut() {
        m.reset_session();
    }
    let naive_answer = engine
        .run(
            &request,
            &mut SimulatedCrowd::new(v, members),
            &FixedSampleAggregator { sample_size: 5 },
        )
        .expect("query runs")
        .into_patterns()
        .expect("pattern query");
    println!(
        "\nwithout the filter the spam inflates the answer set: {} vs {} MSPs",
        naive_answer.answers.len(),
        answer.answers.len()
    );
}
