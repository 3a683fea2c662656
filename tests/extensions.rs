//! Integration tests for the Section-8 language extensions: `TOP k`,
//! `TOP k DIVERSE`, and `IMPLYING … AND CONFIDENCE` rule queries.

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

#[test]
fn top_k_parses_and_limits_answers() {
    let q = parse(
        "SELECT FACT-SETS TOP 2 WHERE $y subClassOf* Activity SATISFYING $y doAt \"Central Park\" WITH SUPPORT = 0.2",
    )
    .unwrap();
    assert_eq!(q.select.top, Some(2));
    assert!(!q.select.diverse);

    let ont = figure1::ontology();
    let engine = Oassis::new(&ont);
    let agg = FixedSampleAggregator { sample_size: 1 };
    let top_query = figure1::SIMPLE_QUERY.replace("SELECT FACT-SETS", "SELECT FACT-SETS TOP 1");
    let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 1)]);
    let top = engine
        .run(
            &QueryRequest::new(&top_query),
            CrowdBinding::single(&mut crowd),
            &agg,
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    assert_eq!(top.answers.len(), 1);

    // and it saves questions against the full run
    let mut crowd_full = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 1)]);
    let full = engine
        .run(
            &QueryRequest::new(figure1::SIMPLE_QUERY),
            CrowdBinding::single(&mut crowd_full),
            &agg,
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    assert!(
        top.outcome.mining.questions < full.outcome.mining.questions,
        "top-1 {} vs full {}",
        top.outcome.mining.questions,
        full.outcome.mining.questions
    );
    assert!(full.answers.len() >= 3);
}

#[test]
fn top_k_diverse_spreads_answers() {
    let ont = figure1::ontology();
    let engine = Oassis::new(&ont);
    let agg = FixedSampleAggregator { sample_size: 1 };
    // full set has Biking@CP, Ball Game@CP, Feed a Monkey@Bronx Zoo;
    // 2 diverse answers must span both attractions.
    let q = figure1::SIMPLE_QUERY.replace("SELECT FACT-SETS", "SELECT FACT-SETS TOP 2 DIVERSE");
    let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 1)]);
    let ans = engine
        .run(
            &QueryRequest::new(&q),
            CrowdBinding::single(&mut crowd),
            &agg,
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    assert_eq!(ans.answers.len(), 2);
    let joined = ans.answers.join(" | ");
    assert!(joined.contains("Central Park"), "{joined}");
    assert!(joined.contains("Bronx Zoo"), "{joined}");
}

#[test]
fn rule_query_via_engine() {
    let ont = figure1::ontology();
    let engine = Oassis::new(&ont);
    let src = r#"
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
    let cfg = RuleMiningConfig {
        panel_size: 1,
        ..Default::default()
    };
    let agg = FixedSampleAggregator { sample_size: 1 };
    let ans = engine
        .run(
            &QueryRequest::new(src).with_rules(cfg.clone()),
            CrowdBinding::single(&mut crowd),
            &agg,
        )
        .unwrap()
        .into_rules()
        .unwrap();
    assert!(!ans.answers.is_empty());
    assert!(
        ans.answers
            .iter()
            .any(|a| a.contains("Feed a Monkey doAt Bronx Zoo")
                && a.contains("⇒")
                && a.contains("eatAt Pine")),
        "{:#?}",
        ans.answers
    );
    // run() dispatches on the IMPLYING clause — the same source through a
    // plain request still comes back as a rule outcome, never a pattern one
    let mut crowd2 = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 2)]);
    let outcome = engine
        .run(
            &QueryRequest::new(src).with_rules(cfg),
            CrowdBinding::single(&mut crowd2),
            &agg,
        )
        .unwrap();
    assert!(outcome.as_patterns().is_none());
    assert!(outcome.as_rules().is_some());
}

#[test]
fn extension_syntax_validations() {
    // IMPLYING without CONFIDENCE
    let e = parse("SELECT FACT-SETS WHERE SATISFYING $x r $y IMPLYING $x s $y WITH SUPPORT = 0.2");
    assert!(e.is_err());
    // CONFIDENCE without IMPLYING
    let e =
        parse("SELECT FACT-SETS WHERE SATISFYING $x r $y WITH SUPPORT = 0.2 AND CONFIDENCE = 0.5");
    assert!(e.is_err());
    // MORE inside IMPLYING
    let e = parse(
        "SELECT FACT-SETS WHERE SATISFYING $x r $y IMPLYING MORE WITH SUPPORT = 0.2 AND CONFIDENCE = 0.5",
    );
    assert!(e.is_err());
    // TOP needs a positive integer
    assert!(parse("SELECT FACT-SETS TOP 0.5 WHERE SATISFYING $x r $y WITH SUPPORT = 0.2").is_err());
    // valid combined form round-trips
    let src = "SELECT VARIABLES ALL TOP 3 DIVERSE\nWHERE\nSATISFYING\n  $x r $y\nIMPLYING\n  $x s $y\nWITH SUPPORT = 0.25 AND CONFIDENCE = 0.8";
    let q = parse(src).unwrap();
    let q2 = parse(&q.to_string()).unwrap();
    assert_eq!(q, q2);
    assert_eq!(q.select.top, Some(3));
    assert!(q.select.diverse);
    assert_eq!(q.satisfying.confidence_threshold, Some(0.8));
}

#[test]
fn asking_clause_restricts_the_crowd() {
    // Two locals with real knowledge + two tourists who know nothing;
    // ASKING "local" must recruit only the locals.
    let ont = figure1::ontology();
    let v = ont.vocab();
    let [d1, d2] = figure1::personal_dbs(&ont);
    let mut tx = d1;
    for _ in 0..3 {
        tx.extend(d2.iter().cloned());
    }
    let local = |seed| {
        SimulatedMember::new(
            PersonalDb::from_transactions(tx.clone()),
            MemberBehavior::default(),
            AnswerModel::Exact,
            seed,
        )
        .with_profile(&["local"])
    };
    let tourist = |seed| {
        SimulatedMember::new(
            PersonalDb::new(),
            MemberBehavior::default(),
            AnswerModel::Exact,
            seed,
        )
        .with_profile(&["tourist"])
    };
    let members = vec![local(1), tourist(2), local(3), tourist(4)];
    let engine = Oassis::new(&ont);
    let agg = FixedSampleAggregator { sample_size: 2 };
    let asking_query = figure1::SIMPLE_QUERY.replace("WHERE", "ASKING \"local\"\nWHERE");
    let q = parse(&asking_query).unwrap();
    assert_eq!(q.asking.as_deref(), Some("local"));

    let mut crowd = SimulatedCrowd::new(v, members.clone());
    let ans = engine
        .run(
            &QueryRequest::new(&asking_query),
            CrowdBinding::single(&mut crowd),
            &agg,
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    assert!(
        ans.answers.iter().any(|a| a == "Biking doAt Central Park"),
        "{:?}",
        ans.answers
    );
    // only the two locals were recruited
    assert_eq!(
        ans.outcome.answers_per_member.len(),
        2,
        "recruited: {:?}",
        ans.outcome.answers_per_member
    );
    assert!(ans.outcome.answers_per_member.iter().all(|&n| n > 0));

    // every crowd binding must recruit the same two locals: per-query
    // crowds over a shared cache, and a cache-through wrapper
    let shared = SharedCrowdCache::default();
    let per_query = engine
        .run(
            &QueryRequest::new(&asking_query),
            CrowdBinding::per_query(|_| SimulatedCrowd::new(v, members.clone()), &shared),
            &agg,
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    let mut cache = CrowdCache::new();
    let mut caching =
        oassis::core::CachingCrowd::new(SimulatedCrowd::new(v, members.clone()), &mut cache);
    let cached = engine
        .run(
            &QueryRequest::new(&asking_query),
            CrowdBinding::single(&mut caching),
            &agg,
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    let sorted = |answers: &[String]| {
        let mut a = answers.to_vec();
        a.sort();
        a
    };
    for (binding, other) in [("per_query", &per_query), ("CachingCrowd", &cached)] {
        assert_eq!(
            other.outcome.answers_per_member.len(),
            2,
            "{binding} recruited: {:?}",
            other.outcome.answers_per_member
        );
        assert_eq!(
            sorted(&other.answers),
            sorted(&ans.answers),
            "{binding} changed the answers"
        );
    }

    // without ASKING, the empty-history tourists dilute the average below
    // the threshold and the answer set changes
    let mut crowd_all = SimulatedCrowd::new(v, members);
    let agg4 = FixedSampleAggregator { sample_size: 4 };
    let all_ans = engine
        .run(
            &QueryRequest::new(figure1::SIMPLE_QUERY),
            CrowdBinding::single(&mut crowd_all),
            &agg4,
        )
        .unwrap()
        .into_patterns()
        .unwrap();
    assert!(
        !all_ans
            .answers
            .iter()
            .any(|a| a == "Biking doAt Central Park"),
        "{:?}",
        all_ans.answers
    );
}
