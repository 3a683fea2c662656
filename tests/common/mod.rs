//! Shared population/member builders and golden-outcome digests for the
//! integration tests.
//!
//! Each test binary compiles this module independently, so helpers a
//! given binary does not use are expected dead code.
#![allow(dead_code)]

use oassis::core::digest::Fnv;
use oassis::crowd::population::HabitProfile;
use oassis::ontology::domains::figure1;
use oassis::prelude::*;

/// The Figure-1 habit mix used across the failure-injection scenarios:
/// a biking-in-Central-Park majority habit and a zoo minority habit.
pub fn figure1_profiles(ont: &Ontology) -> Vec<HabitProfile> {
    let v = ont.vocab();
    vec![
        HabitProfile {
            facts: vec![v.fact("Biking", "doAt", "Central Park").unwrap()],
            adoption: 0.9,
            frequency: 0.6,
        },
        HabitProfile {
            facts: vec![v.fact("Feed a Monkey", "doAt", "Bronx Zoo").unwrap()],
            adoption: 0.85,
            frequency: 0.5,
        },
    ]
}

/// The travel-domain habit mix of the end-to-end scenarios: two profile
/// groups with distinct activity/snack pairings.
pub fn travel_profiles(ont: &Ontology) -> Vec<HabitProfile> {
    let v = ont.vocab();
    let fact = |s: &str, r: &str, o: &str| v.fact(s, r, o).expect("domain term");
    vec![
        HabitProfile {
            facts: vec![
                fact("ActivityKind5", "doAt", "Attraction1"),
                fact("Snack1", "eatAt", "Restaurant1"),
            ],
            adoption: 0.95,
            frequency: 0.6,
        },
        HabitProfile {
            facts: vec![
                fact("ActivityKind7", "doAt", "Attraction2"),
                fact("Snack2", "eatAt", "Restaurant2"),
            ],
            adoption: 0.7,
            frequency: 0.45,
        },
    ]
}

/// The paper's "average user" over the Figure-1 personal DBs (three
/// copies of db1 plus db2), answering exactly.
pub fn figure1_avg_member(ont: &Ontology, seed: u64) -> SimulatedMember {
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

/// Folds a mining outcome into a digest: counts, rendered MSPs (in
/// discovery order) and the full event stream.
pub fn digest_outcome(out: &MiningOutcome, b: &BoundQuery, vocab: &Vocabulary) -> u64 {
    fold_outcome(out, b, vocab).finish()
}

/// [`digest_outcome`] of the shared outcome, then the multi-user
/// engine's undecided count, answer mix and per-member answer counts.
pub fn digest_multi(out: &MultiOutcome, b: &BoundQuery, vocab: &Vocabulary) -> u64 {
    let mut h = fold_outcome(&out.mining, b, vocab);
    h.word(out.undecided);
    h.word(out.question_stats.concrete);
    h.word(out.question_stats.specialization);
    h.word(out.question_stats.none_of_these);
    h.word(out.question_stats.pruning);
    for &n in &out.answers_per_member {
        h.word(n);
    }
    h.finish()
}

fn fold_outcome(out: &MiningOutcome, b: &BoundQuery, vocab: &Vocabulary) -> Fnv {
    let mut h = Fnv::new();
    h.word(out.questions);
    h.word(out.msps.len());
    h.word(out.valid_msps.len());
    h.word(out.significant_valid.len());
    h.word(out.total_valid);
    h.word(out.valid_mult_nodes);
    h.word(out.nodes_materialized);
    h.word(usize::from(out.complete));
    for m in &out.msps {
        h.bytes(m.apply(b).to_display(vocab).as_bytes());
    }
    h.events(&out.events);
    h
}
