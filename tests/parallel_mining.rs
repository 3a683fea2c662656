//! Cross-crate test: graceful degradation of the single `run` entry
//! point under simulated fault schedules, for single and batch requests.

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
    let engine = Oassis::new(&ont).with_policy(oassis::crowd::CrowdPolicy::default());
    let agg = FixedSampleAggregator { sample_size: 4 };
    let cfg = MiningConfig::default();

    let request = QueryRequest::new(figure1::SIMPLE_QUERY).with_mining(cfg.clone());
    let fault_free = {
        let mut crowd = SimulatedCrowd::new(ont.vocab(), members(&ont));
        let mut ans = engine
            .run(&request, CrowdBinding::single(&mut crowd), &agg)
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
        .run(&request, CrowdBinding::single(&mut faulty), &agg)
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

#[test]
fn execute_concurrent_is_width_independent_under_fault_schedules() {
    // Two thresholds of the same query, each crowd wrapped in the same
    // fault schedule: outcomes (answers, questions, manifest counters)
    // must not depend on the pool width, and replaying must be
    // bit-identical.
    let ont = figure1::ontology();
    let agg = FixedSampleAggregator { sample_size: 4 };
    let cfg = MiningConfig::default();
    let queries = [
        figure1::SIMPLE_QUERY.replace("WITH SUPPORT = 0.4", "WITH SUPPORT = 0.3"),
        figure1::SIMPLE_QUERY.to_owned(),
    ];
    let query_refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    let schedule = Schedule::parse("d1@0,a0@2(4),c2@3").unwrap();

    let run_at = |width: usize| -> Vec<(Vec<String>, usize, usize, usize, bool)> {
        let engine = Oassis::new(&ont)
            .with_policy(oassis::crowd::CrowdPolicy::default())
            .with_pool(minipool::Pool::new(width));
        let cache = oassis::core::SharedCrowdCache::default();
        let request = QueryRequest::batch(&query_refs).with_mining(cfg.clone());
        let make = |_| {
            FaultyCrowd::new(
                SimulatedCrowd::new(ont.vocab(), members(&ont)),
                &schedule,
                4,
            )
        };
        engine
            .run(&request, CrowdBinding::per_query(make, &cache), &agg)
            .unwrap()
            .into_batch()
            .unwrap()
            .into_iter()
            .map(|r| {
                let a = r.expect("query failed under faults");
                let mut answers = a.answers;
                answers.sort();
                let m = &a.outcome.mining;
                (
                    answers,
                    m.questions,
                    m.manifest.timeouts,
                    m.manifest.retries,
                    m.complete,
                )
            })
            .collect()
    };

    let reference = run_at(1);
    for width in [2usize, 4] {
        assert_eq!(
            run_at(width),
            reference,
            "pool width {width} changed a faulty concurrent outcome"
        );
    }
}
