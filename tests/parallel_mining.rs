//! Cross-crate test: graceful degradation of the single `run` entry
//! point under simulated fault schedules.

use oassis::ontology::domains::figure1;
use oassis::prelude::*;
use simtest::{FaultyCrowd, Schedule};

fn members(ont: &Ontology) -> Vec<SimulatedMember> {
    let [d1, d2] = figure1::personal_dbs(ont);
    let mut tx = d1;
    for _ in 0..3 {
        tx.extend(d2.iter().cloned());
    }
    (0..4)
        .map(|i| {
            SimulatedMember::new(
                PersonalDb::from_transactions(tx.clone()),
                MemberBehavior::default(),
                AnswerModel::Exact,
                i,
            )
        })
        .collect()
}

#[test]
fn execute_degrades_gracefully_under_fault_schedules() {
    // Drops, absences, a timed-out delay and a mid-query departure hit
    // the Figure-1 crowd; the engine must not panic, must keep the
    // answered subset truthful, and must report the degradation in the
    // partial-answer manifest instead of claiming completeness.
    let ont = figure1::ontology();
    let engine = Oassis::new(&ont);
    let agg = FixedSampleAggregator { sample_size: 4 };
    let cfg = MiningConfig {
        policy: CrowdPolicy::default(),
        ..Default::default()
    };

    let request = QueryRequest::new(figure1::SIMPLE_QUERY).with_mining(cfg.clone());
    let fault_free = {
        let mut crowd = SimulatedCrowd::new(ont.vocab(), members(&ont));
        let mut ans = engine
            .run(&request, &mut crowd, &agg)
            .unwrap()
            .into_patterns()
            .unwrap();
        ans.answers.sort();
        ans
    };

    let schedule = Schedule::parse("d0@0,d0@1,d0@2,y1@0(9),a2@1(5),x3@2").unwrap();
    let mut faulty = FaultyCrowd::new(
        SimulatedCrowd::new(ont.vocab(), members(&ont)),
        &schedule,
        4,
    );
    let mut ans = engine
        .run(&request, &mut faulty, &agg)
        .unwrap()
        .into_patterns()
        .unwrap();
    ans.answers.sort();

    for a in &ans.answers {
        assert!(
            fault_free.answers.contains(a),
            "faulty run invented answer {a:?}"
        );
    }
    let out = &ans.outcome.mining;
    assert!(
        out.manifest.timeouts > 0,
        "the schedule's drops must surface as timeouts"
    );
    if !out.manifest.unanswered.is_empty() {
        assert!(!out.complete, "unanswered patterns but complete == true");
    }
}
