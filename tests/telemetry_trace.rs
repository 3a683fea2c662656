//! Telemetry determinism and trace-replay guarantees.
//!
//! Two halves:
//!
//! 1. **NoopSink bit-identity** — the golden workloads of
//!    `tests/golden_outcomes.rs` re-run with an explicit [`NoopSink`]
//!    handle must reproduce the PR-1 golden digests exactly: disabled
//!    telemetry is observationally free. A recording sink must be
//!    outcome-neutral too — same digest, with a non-empty trace on the
//!    side.
//!
//! 2. **Trace replay** — a faulty run recorded through the single-entry
//!    [`Oassis::run`] API (with `with_trace_path`) emits a JSONL trace
//!    whose schema parses with `ontology::json`, whose spans nest
//!    properly with non-decreasing ticks, and whose question accounting
//!    (timeout/retry marks, `engine.questions` and per-kind counters)
//!    matches the run's [`PartialManifest`] and `QuestionStats` exactly.

use crowd::{
    AnswerModel, CrowdPolicy, MemberBehavior, PersonalDb, SimulatedCrowd, SimulatedMember,
};
use oassis_core::synth::{plant_msps, synthetic_domain, MspDistribution, PlantedOracle};
use oassis_core::{
    run_multi, run_vertical, CrowdBinding, Dag, FixedSampleAggregator, MiningConfig, MiningOutcome,
    MultiOutcome, Oassis, QueryRequest,
};
use oassis_ql::{bind, evaluate_where, parse, BoundQuery, MatchMode};
use ontology::domains::figure1;
use ontology::json::{self, Json};
use simtest::{FaultyCrowd, Schedule};
use telemetry::{NoopSink, Telemetry, TelemetrySink, TraceEvent};

// The PR-1 golden constants (see tests/golden_outcomes.rs).
const GOLDEN_VERTICAL_SYNTHETIC: u64 = 0xdeab91c0df65d2d8;
const GOLDEN_MULTI_FIGURE1: u64 = 0x91d1bfe9c869b6ad;
const GOLDEN_MULTI_SYNTHETIC: u64 = 0x4b3695f5ead79508;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fnv_usize(h: &mut u64, v: usize) {
    fnv(h, &(v as u64).to_le_bytes());
}

fn digest_outcome(out: &MiningOutcome, b: &BoundQuery, vocab: &ontology::Vocabulary) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv_usize(&mut h, out.questions);
    fnv_usize(&mut h, out.msps.len());
    fnv_usize(&mut h, out.valid_msps.len());
    fnv_usize(&mut h, out.significant_valid.len());
    fnv_usize(&mut h, out.total_valid);
    fnv_usize(&mut h, out.valid_mult_nodes);
    fnv_usize(&mut h, out.nodes_materialized);
    fnv_usize(&mut h, usize::from(out.complete));
    for m in &out.msps {
        fnv(&mut h, m.apply(b).to_display(vocab).as_bytes());
    }
    for e in &out.events {
        fnv_usize(&mut h, e.question);
        fnv(&mut h, format!("{:?}", e.kind).as_bytes());
    }
    h
}

fn digest_multi(out: &MultiOutcome, b: &BoundQuery, vocab: &ontology::Vocabulary) -> u64 {
    let mut h = digest_outcome(&out.mining, b, vocab);
    fnv_usize(&mut h, out.undecided);
    fnv_usize(&mut h, out.question_stats.concrete);
    fnv_usize(&mut h, out.question_stats.specialization);
    fnv_usize(&mut h, out.question_stats.none_of_these);
    fnv_usize(&mut h, out.question_stats.pruning);
    for &n in &out.answers_per_member {
        fnv_usize(&mut h, n);
    }
    h
}

/// Figure-1 member whose answers average u1 and u2 (Example 4.6).
fn u_avg(ont: &ontology::Ontology, seed: u64) -> SimulatedMember {
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

/// The golden `multi_synthetic_crowd_with_pruning_clicks` recipe with an
/// explicit telemetry handle.
fn multi_synthetic_digest(tele: Telemetry) -> u64 {
    let dom = synthetic_domain(120, 5, 1);
    let q = parse(&dom.query).unwrap();
    let b = bind(&q, &dom.ontology).unwrap();
    let base = evaluate_where(&b, &dom.ontology, MatchMode::Exact);
    let mut full = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    full.materialize_all();
    let planted = plant_msps(&mut full, 6, true, MspDistribution::Uniform, 31);
    let patterns: Vec<_> = planted
        .iter()
        .map(|&id| full.node(id).assignment.apply(&b))
        .collect();

    let mut dag = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    let mut oracle = PlantedOracle::new(dom.ontology.vocab(), patterns, 6, 17);
    oracle.pruning_prob = 0.3;
    let agg = FixedSampleAggregator { sample_size: 3 };
    let cfg = MiningConfig {
        specialization_ratio: 0.25,
        seed: 8,
        telemetry: tele,
        ..Default::default()
    };
    let out = run_multi(&mut dag, &mut oracle, &agg, &cfg);
    digest_multi(&out, &b, dom.ontology.vocab())
}

/// The golden `vertical_synthetic_with_specialization_questions` recipe
/// with an explicit telemetry handle.
fn vertical_synthetic_digest(tele: Telemetry) -> u64 {
    let dom = synthetic_domain(150, 6, 0);
    let q = parse(&dom.query).unwrap();
    let b = bind(&q, &dom.ontology).unwrap();
    let base = evaluate_where(&b, &dom.ontology, MatchMode::Exact);
    let mut full = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    full.materialize_all();
    let planted = plant_msps(&mut full, 8, true, MspDistribution::Uniform, 21);
    let patterns: Vec<_> = planted
        .iter()
        .map(|&id| full.node(id).assignment.apply(&b))
        .collect();

    let mut dag = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    let mut oracle = PlantedOracle::new(dom.ontology.vocab(), patterns, 1, 9);
    oracle.pruning_prob = 0.5;
    let cfg = MiningConfig {
        specialization_ratio: 0.5,
        seed: 4,
        telemetry: tele,
        ..Default::default()
    };
    let out = run_vertical(&mut dag, &mut oracle, crowd::MemberId(0), &cfg);
    digest_outcome(&out, &b, dom.ontology.vocab())
}

/// The golden `multi_figure1_two_members` recipe with an explicit
/// telemetry handle.
fn multi_figure1_digest(tele: Telemetry) -> u64 {
    let ont = figure1::ontology();
    let q = parse(figure1::SIMPLE_QUERY).unwrap();
    let b = bind(&q, &ont).unwrap();
    let base = evaluate_where(&b, &ont, MatchMode::Exact);
    let mut dag = Dag::new(&b, ont.vocab(), &base);
    let members = vec![u_avg(&ont, 1), u_avg(&ont, 2)];
    let mut crowd = SimulatedCrowd::new(ont.vocab(), members);
    let agg = FixedSampleAggregator { sample_size: 2 };
    let cfg = MiningConfig {
        telemetry: tele,
        ..Default::default()
    };
    let out = run_multi(&mut dag, &mut crowd, &agg, &cfg);
    digest_multi(&out, &b, ont.vocab())
}

#[test]
fn noop_sink_reproduces_golden_digests() {
    assert_eq!(
        multi_figure1_digest(NoopSink.handle()),
        GOLDEN_MULTI_FIGURE1,
        "multi_figure1 digest drifted under NoopSink"
    );
    assert_eq!(
        multi_synthetic_digest(NoopSink.handle()),
        GOLDEN_MULTI_SYNTHETIC,
        "multi_synthetic digest drifted under NoopSink"
    );
    assert_eq!(
        vertical_synthetic_digest(NoopSink.handle()),
        GOLDEN_VERTICAL_SYNTHETIC,
        "vertical_synthetic digest drifted under NoopSink"
    );
}

#[test]
fn recording_sink_is_outcome_neutral() {
    // a recording sink must not change what the engine asks or concludes
    let sink = TelemetrySink::shared();
    let d = multi_synthetic_digest(Telemetry::recording(&sink));
    assert_eq!(d, GOLDEN_MULTI_SYNTHETIC, "recording perturbed the outcome");
    assert!(
        !sink.events().is_empty(),
        "recording run captured no events"
    );
    assert!(sink.counter("engine.questions") > 0);
}

/// Validates one parsed JSONL line against the trace schema, returning
/// `(type, tick, name, id, parent)`.
fn check_line(doc: &Json) -> (String, u64, Option<String>, Option<u32>, Option<u32>) {
    let ty = doc.field("type").unwrap().as_str().unwrap().to_owned();
    let tick = doc.field("tick").unwrap().as_f64().unwrap() as u64;
    let parent = doc.field("parent").ok().and_then(|p| p.as_u32().ok());
    match ty.as_str() {
        "span_start" => {
            let id = doc.field("id").unwrap().as_u32().unwrap();
            let name = doc.field("name").unwrap().as_str().unwrap().to_owned();
            doc.field("detail").unwrap().as_str().unwrap();
            (ty, tick, Some(name), Some(id), parent)
        }
        "span_end" => {
            let id = doc.field("id").unwrap().as_u32().unwrap();
            (ty, tick, None, Some(id), None)
        }
        "mark" => {
            let name = doc.field("name").unwrap().as_str().unwrap().to_owned();
            doc.field("detail").unwrap().as_str().unwrap();
            (ty, tick, Some(name), None, parent)
        }
        other => panic!("unknown trace event type {other:?}"),
    }
}

#[test]
fn recorded_jsonl_trace_replays_against_the_manifest() {
    let ont = figure1::ontology();
    let sink = TelemetrySink::shared();
    let policy = CrowdPolicy::default();
    let trace_path = std::env::temp_dir().join("oassis-telemetry-trace-test.jsonl");

    // drops on both members force timeouts; the default policy retries,
    // and the FaultyCrowd's drop semantics guarantee the retry succeeds
    let schedule = Schedule::parse("d0@0,d1@2,d0@5").unwrap();
    let crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 1), u_avg(&ont, 2)]);
    let mut faulty = FaultyCrowd::new(crowd, &schedule, policy.timeout_ticks)
        .with_telemetry(Telemetry::recording(&sink));

    let engine = Oassis::new(&ont).with_policy(policy);
    let cfg = MiningConfig {
        telemetry: Telemetry::recording(&sink),
        ..Default::default()
    };
    let request = QueryRequest::new(figure1::SIMPLE_QUERY)
        .with_mining(cfg)
        .with_trace_path(&trace_path);
    let answer = engine
        .run(
            &request,
            CrowdBinding::single(&mut faulty),
            &FixedSampleAggregator { sample_size: 2 },
        )
        .expect("query runs")
        .into_patterns()
        .expect("pattern query");

    let manifest = &answer.outcome.mining.manifest;
    assert!(manifest.timeouts > 0, "schedule induced no timeouts");
    assert!(manifest.retries > 0, "policy issued no retries");

    // --- the serialized trace parses and matches the in-memory one ----
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    assert_eq!(text, sink.to_jsonl(), "file and sink disagree");
    let _ = std::fs::remove_file(&trace_path);

    let mut open: Vec<u32> = Vec::new(); // open span ids, in open order
    let mut last_tick = 0u64;
    let mut timeout_marks = 0usize;
    let mut retry_marks = 0usize;
    let mut question_spans = 0usize;
    for line in text.lines() {
        let doc = json::parse(line).expect("trace line parses as JSON");
        let (ty, tick, name, id, parent) = check_line(&doc);
        assert!(tick >= last_tick, "ticks must be non-decreasing");
        last_tick = tick;
        match ty.as_str() {
            "span_start" => {
                if let Some(p) = parent {
                    assert!(open.contains(&p), "span parent {p} is not open");
                }
                open.push(id.unwrap());
                if name.as_deref() == Some("question") {
                    question_spans += 1;
                }
            }
            "span_end" => {
                let id = id.unwrap();
                assert!(open.contains(&id), "span {id} ended but was never open");
                open.retain(|&x| x != id);
            }
            _ => {
                if let Some(p) = parent {
                    assert!(open.contains(&p), "mark parent {p} is not open");
                }
                match name.as_deref() {
                    Some("timeout") => timeout_marks += 1,
                    Some("retry") => retry_marks += 1,
                    _ => {}
                }
            }
        }
    }
    assert!(open.is_empty(), "spans left open at end of trace: {open:?}");

    // --- question accounting matches the manifest and the stats -------
    assert_eq!(timeout_marks, manifest.timeouts, "timeout marks ≠ manifest");
    assert_eq!(retry_marks, manifest.retries, "retry marks ≠ manifest");
    assert_eq!(
        sink.counter("engine.questions") as usize,
        answer.outcome.mining.questions,
        "engine.questions counter ≠ outcome question count"
    );
    let stats = &answer.outcome.question_stats;
    assert_eq!(sink.counter("questions.concrete") as usize, stats.concrete);
    assert_eq!(
        sink.counter("questions.specialization") as usize,
        stats.specialization
    );
    assert_eq!(
        sink.counter("questions.none_of_these") as usize,
        stats.none_of_these
    );
    assert_eq!(sink.counter("questions.pruning") as usize, stats.pruning);
    // every answered question went through exactly one "question" span
    assert!(question_spans >= answer.outcome.mining.questions);
    // the simulation wrapper's fault counters landed in the same sink
    assert_eq!(sink.counter("sim.drops"), 3);

    // replaying the identical faulty run reproduces the identical trace
    let resink = TelemetrySink::shared();
    let crowd2 = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, 1), u_avg(&ont, 2)]);
    let mut faulty2 = FaultyCrowd::new(crowd2, &schedule, policy.timeout_ticks)
        .with_telemetry(Telemetry::recording(&resink));
    let cfg2 = MiningConfig {
        telemetry: Telemetry::recording(&resink),
        ..Default::default()
    };
    let request2 = QueryRequest::new(figure1::SIMPLE_QUERY).with_mining(cfg2);
    engine
        .run(
            &request2,
            CrowdBinding::single(&mut faulty2),
            &FixedSampleAggregator { sample_size: 2 },
        )
        .expect("replay runs");
    assert_eq!(text, resink.to_jsonl(), "faulty trace is not replayable");
}

/// The trace events exposed programmatically agree with the JSONL dump.
#[test]
fn in_memory_events_and_jsonl_agree_on_counts() {
    let sink = TelemetrySink::shared();
    multi_synthetic_digest(Telemetry::recording(&sink));
    let events = sink.events();
    let lines = sink.to_jsonl().lines().count();
    assert_eq!(events.len(), lines);
    let starts = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::SpanStart { .. }))
        .count();
    let ends = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::SpanEnd { .. }))
        .count();
    assert_eq!(starts, ends, "every span start must have a matching end");
}
