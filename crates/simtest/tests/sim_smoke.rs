//! Fast simulation smoke corpus (CI on every push, < 60 s).
//!
//! A fixed range of seeds drives the full property harness: fault-free
//! differential oracles across all four engines,
//! graceful degradation under generated fault schedules, budget
//! respect, and bit-identical replay. Any failure is shrunk to a
//! one-line replayable schedule before being reported. The nightly job
//! widens the corpus via the `SIM_SEEDS` environment variable.

use simtest::{record_seed_trace, run_corpus, run_seed, run_with_schedule, Schedule, SimConfig};

/// Seed range: `0..SIM_SEEDS` (default 12 — sized for the push-CI
/// budget).
fn corpus_size() -> u64 {
    std::env::var("SIM_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
}

#[test]
fn seed_corpus_upholds_all_simulation_properties() {
    let failures = run_corpus(0..corpus_size());
    assert!(
        failures.is_empty(),
        "failing seeds (schedules already shrunk):\n{}",
        failures
            .iter()
            .map(|r| format!(
                "  seed {} schedule `{}`: {}",
                r.seed,
                r.schedule.to_line(),
                r.failures.join("; ")
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn same_seed_reproduces_bit_identical_digests() {
    for seed in [1u64, 5, 9] {
        let a = run_seed(seed);
        let b = run_seed(seed);
        assert_eq!(a.digest, b.digest, "seed {seed} digest drifted");
        assert_eq!(a.schedule, b.schedule, "seed {seed} schedule drifted");
    }
}

#[test]
fn heavy_fault_load_degrades_gracefully() {
    // A hand-built worst case: every member hit at tick 0 by every fault
    // class, plus a dense generated schedule on top.
    let mut cfg = SimConfig::from_seed(99);
    cfg.budget = Some(400);
    let mut schedule = Schedule::parse("x2@0,a1@0(6),d0@0,d0@1,y0@2(9),c1@3,d1@4").unwrap();
    schedule
        .events
        .extend(Schedule::generate(123, 3, 30, 8).events);
    schedule.events.sort_by_key(|e| (e.at, e.member));
    let report = run_with_schedule(&cfg, &schedule);
    assert!(
        report.passed(),
        "heavy schedule `{}` violated: {}",
        schedule.to_line(),
        report.failures.join("; ")
    );
}

/// Records one faulty multi-user run with a live telemetry sink, checks
/// the trace is well-formed and replayable, and writes it as a JSONL
/// artifact (CI uploads it; `SIM_TRACE_OUT` overrides the location).
#[test]
fn recorded_fault_trace_is_deterministic_and_lands_on_disk() {
    let sink = record_seed_trace(5);
    let events = sink.events();
    assert!(!events.is_empty(), "recording run produced no trace events");
    // the engine root span is present and ticks never go backwards
    let mut last_tick = 0u64;
    let mut saw_root = false;
    for e in &events {
        assert!(e.tick() >= last_tick, "tick went backwards at {e:?}");
        last_tick = e.tick();
        if let telemetry::TraceEvent::SpanStart { name, .. } = e {
            saw_root |= name == "mine.multi";
        }
    }
    assert!(saw_root, "missing mine.multi root span");
    assert!(sink.counter("sim.asks") > 0, "no simulated asks counted");

    // bit-identical replay of the recorded trace
    let again = record_seed_trace(5);
    assert_eq!(sink.to_jsonl(), again.to_jsonl(), "recorded trace drifted");

    let path = std::env::var("SIM_TRACE_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| {
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim-trace.jsonl")
        });
    sink.write_jsonl(&path).expect("trace artifact written");
}

#[test]
fn replay_line_reproduces_the_exact_report() {
    let cfg = SimConfig::from_seed(3);
    let line = cfg.schedule.to_line();
    let replayed = Schedule::parse(&line).unwrap();
    let a = run_with_schedule(&cfg, &cfg.schedule);
    let b = run_with_schedule(&cfg, &replayed);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.failures, b.failures);
}
