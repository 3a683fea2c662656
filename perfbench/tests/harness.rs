//! Self-tests of the benchmark harness: the order statistics, the
//! run-length independence of every exact count, and the correctness
//! gates. The workload tests run real (short) workloads; use
//! `cargo test --release` for speed.

use oassis_server::{Request, Response};
use perfbench::common::{rotation, timed_setup, Args, Budget, CpuScope, Travel, ROTATION};
use perfbench::report::{Gate, Metric, Report};
use perfbench::serve::{InProcess, Kind, Transport};
use perfbench::stats::{beyond, median, percentile, window_medians, window_rates, Mark};
use perfbench::{mine, recover, serve};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn percentiles_interpolate_between_closest_ranks() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    // Python: statistics.quantiles(range(1, 11), n=4, method="inclusive")
    assert!(close(percentile(&v, 25.0).unwrap(), 3.25));
    assert!(close(percentile(&v, 50.0).unwrap(), 5.5));
    assert!(close(percentile(&v, 75.0).unwrap(), 7.75));
    assert!(close(percentile(&v, 90.0).unwrap(), 9.1));
    assert!(close(percentile(&v, 0.0).unwrap(), 1.0));
    assert!(close(percentile(&v, 100.0).unwrap(), 10.0));
    // order of the input does not matter
    let mut r = v.clone();
    r.reverse();
    assert!(close(median(&r).unwrap(), 5.5));
    assert!(close(median(&[4.0, 1.0, 3.0]).unwrap(), 3.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(beyond(&v, 90.0), 1);
    assert_eq!(beyond(&v, 50.0), 5);
}

#[test]
fn window_medians_use_equal_unit_windows() {
    // four units: 10 ops each, taking 1 s, 1 s, 5 s (a stall), 1 s;
    // CPU 0.5 s per unit
    let marks: Vec<Mark> = [0.0, 1.0, 2.0, 7.0, 8.0]
        .iter()
        .enumerate()
        .map(|(i, &t)| Mark {
            t,
            cpu: 0.5 * i as f64,
            ops: 10 * i as u64,
        })
        .collect();
    let rates = window_rates(&marks, 1);
    assert_eq!(rates.len(), 4);
    assert!(close(rates[2].0, 2.0));
    // the stall moves one window, not the median
    let (thr, cpu) = window_medians(&marks, 1);
    assert!(close(thr, 10.0));
    assert!(close(cpu, 50.0));
    // two-unit windows: [0,2] and [2,8]
    let two = window_rates(&marks, 2);
    assert_eq!(two.len(), 2);
    assert!(close(two[0].0, 10.0));
    assert!(close(two[1].0, 20.0 / 6.0));
    // an incomplete tail is dropped unless it is the only window
    assert_eq!(window_rates(&marks, 3).len(), 1);
    assert_eq!(window_rates(&marks[..2], 3).len(), 1);
    assert!(window_rates(&marks[..1], 1).is_empty());
}

#[test]
fn gate_counts_failures_and_mismatches() {
    let mut gate = Gate::default();
    gate.attempt();
    assert!(gate.expect_equal("op", "00000000000000aa", "00000000000000aa"));
    gate.attempt();
    assert!(!gate.expect_equal("op", "00000000000000ab", "00000000000000aa"));
    assert_eq!((gate.attempted, gate.failed), (2, 1));
    assert!(!gate.correct());
    assert!(close(gate.error_rate(), 0.5));
    assert!(
        !Gate::default().correct(),
        "a run that attempted nothing is not correct"
    );
}

#[test]
fn json_line_carries_every_metric_with_its_unit() {
    let mut report = Report {
        metrics: vec![
            Metric::new("latency_ms", "ms", 1.5),
            Metric::new("setup_s", "s", 0.25),
        ],
        ..Default::default()
    };
    report.gate.attempt();
    let line = report.json_line();
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
         {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
         \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
    );
    let parsed = ontology::json::parse(&line).expect("valid JSON");
    assert!(parsed.field("metrics").is_ok());
}

#[test]
fn args_parse_the_benchmark_command_line() {
    let argv: Vec<String> = [
        "--workload",
        "serve",
        "--seed",
        "42",
        "--seconds",
        "10",
        "--trace",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let a = Args::parse(&argv).expect("parses");
    assert_eq!((a.workload.as_str(), a.seed, a.trace), ("serve", 42, true));
    assert!(close(a.seconds, 10.0));
    let bad = |v: &[&str]| Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    assert!(bad(&["--workload", "nope"]).is_err());
    assert!(bad(&["--workload", "mine", "--seed"]).is_err());
    assert!(bad(&["--workload", "mine", "--bogus", "1"]).is_err());
}

#[test]
fn set_up_cpu_time_is_charged_to_its_scope() {
    use std::hint::black_box;
    let spin = |n: u64| (0..black_box(n)).fold(black_box(1u64), |a, i| a.wrapping_mul(31) ^ i);
    for scope in [CpuScope::Thread, CpuScope::Process] {
        let (time, _) = timed_setup(scope, || black_box(spin(1 << 20)));
        assert!(time.cpu >= 0.0 && time.wall > 0.0, "{scope:?} {time:?}");
    }
    // the calling thread's clock runs while it spins (it advances at
    // scheduler ticks, so the spin lasts many of them)
    let (time, _) = timed_setup(CpuScope::Thread, || black_box(spin(1 << 26)));
    assert!(time.cpu > 0.0 && time.cpu <= time.wall + 0.01, "{time:?}");
    // work on another thread is the process's, not the calling thread's
    let (thread, _) = timed_setup(CpuScope::Thread, || {
        std::thread::spawn(move || black_box(spin(1 << 27))).join()
    });
    let (process, _) = timed_setup(CpuScope::Process, || {
        std::thread::spawn(move || black_box(spin(1 << 27))).join()
    });
    assert!(thread.cpu < 0.5 * process.cpu, "{thread:?} {process:?}");
}

#[test]
fn rotation_is_a_function_of_the_seed() {
    assert_eq!(rotation(5), rotation(5));
    assert_ne!(rotation(5), rotation(6));
    let slots = rotation(5);
    for (i, s) in slots.iter().enumerate() {
        assert_eq!(s.index, i);
        assert!(s.crowd < 1 << 53 && s.mining < 1 << 53);
    }
}

#[test]
fn mine_counts_are_identical_at_two_run_lengths() {
    let mut gate = Gate::default();
    let (inputs, _) = mine::setup(3).expect("set-up");
    let short = mine::run(&inputs, Budget::rotations(1), &mut gate, |_| ());
    let mut between = 0;
    let long = mine::run(&inputs, Budget::rotations(2), &mut gate, |_| between += 1);
    assert!(gate.correct(), "{:?}", gate.errors);
    assert_eq!(between, 2, "once after every rotation");
    assert_eq!(short.ops.len(), ROTATION);
    assert_eq!(long.ops.len(), 2 * ROTATION);
    let q = |t: &mine::Timed| {
        mine::end_to_end(&[], t)
            .into_iter()
            .find(|m| m.name == "questions_per_query")
            .unwrap()
            .value
    };
    assert_eq!(q(&short), q(&long));
    // the op mix: every slot once per rotation, same digests
    for (i, op) in long.ops.iter().enumerate() {
        assert_eq!(op.digest, short.ops[i % ROTATION].digest);
        assert_eq!(op.questions, short.ops[i % ROTATION].questions);
    }
}

#[test]
fn mine_gate_trips_on_a_corrupted_reference_digest() {
    let mut gate = Gate::default();
    let (inputs, warm) = mine::setup(3).expect("set-up");
    // a set-up sample must reproduce the warm-up digest
    let sample = mine::sample_setup(3, &warm, &mut gate).expect("same warm-up");
    assert!(sample.cpu > 0.0 && sample.wall > 0.0, "{sample:?}");
    let mut bad = Gate::default();
    assert!(mine::sample_setup(3, "0123456789abcdef", &mut bad).is_none());
    assert_eq!(bad.failed, 1, "{:?}", bad.errors);
    mine::run(&inputs, Budget::rotations(1), &mut gate, |_| ());
    assert!(gate.correct(), "{:?}", gate.errors);
    let (_, questions) = inputs.reference(1).expect("slot 1 ran");
    inputs.set_reference(1, "0123456789abcdef", questions);
    let mut bad = Gate::default();
    mine::run(&inputs, Budget::rotations(1), &mut bad, |_| ());
    assert_eq!(bad.failed, 1, "{:?}", bad.errors);
    assert!(bad.errors[0].contains("slot 1"));
}

#[test]
fn recover_counts_are_identical_at_two_run_lengths_and_corruption_trips_the_gate() {
    let mut gate = Gate::default();
    let mut inputs = recover::setup(9, 2, "test-recover", &mut gate).expect("set-up");
    let short = recover::run(&inputs, Budget::rotations(1), &mut gate);
    let long = recover::run(&inputs, Budget::rotations(2), &mut gate);
    assert!(gate.correct(), "{:?}", gate.errors);
    assert_eq!((short.ms.len(), long.ms.len()), (ROTATION, 2 * ROTATION));
    assert_eq!(short.queries * 2, long.queries);
    assert_eq!(short.questions * 2, long.questions);
    assert!(short.replayed > 0);
    assert_eq!(short.replayed * 2, long.replayed);

    inputs.digests[2] = "0123456789abcdef".into();
    let mut bad = Gate::default();
    recover::run(&inputs, Budget::rotations(1), &mut bad);
    assert_eq!(bad.failed, 1, "{:?}", bad.errors);
}

/// Replaces the digest of the `nth` query reply (0 = the cold query).
struct Corrupting {
    inner: InProcess,
    nth: usize,
    seen: usize,
}

impl Transport for Corrupting {
    fn call(&mut self, req: &Request) -> Result<(Response, serve::Call), String> {
        let (mut resp, call) = self.inner.call(req)?;
        if let Response::Result { reply, .. } = &mut resp {
            if self.seen == self.nth {
                reply.digest = "0123456789abcdef".into();
            }
            self.seen += 1;
        }
        Ok((resp, call))
    }
}

#[test]
fn serve_counts_are_identical_at_two_run_lengths() {
    let mut gate = Gate::default();
    let (inputs, mut served) = serve::setup(11, 2, 2, "test-serve", &mut gate).expect("set-up");
    let plan = inputs.plan(2);
    let short = serve::tcp_pass(
        &inputs,
        &mut served,
        Budget::rotations(1),
        's',
        &plan,
        &mut gate,
    );
    let long = serve::tcp_pass(
        &inputs,
        &mut served,
        Budget::rotations(2),
        'l',
        &plan,
        &mut gate,
    );
    drop(served);
    assert!(gate.correct(), "{:?}", gate.errors);
    assert_eq!(short.cycles.len() * 2, long.cycles.len());
    for f in [
        (|c: &serve::Cycle| c.questions as f64) as fn(&serve::Cycle) -> f64,
        |c| c.fresh as f64,
        |c| c.wal_bytes as f64,
    ] {
        assert_eq!(short.per_query(f), long.per_query(f));
    }
    // the request mix: open, cold, repeats, close in every cycle
    let mix = |p: &serve::Pass| {
        [Kind::Open, Kind::Cold, Kind::Repeat, Kind::Close]
            .map(|k| p.latencies(Some(k)).len() as f64 / p.cycles.len() as f64)
    };
    assert_eq!(mix(&short), [1.0, 1.0, 2.0, 1.0]);
    assert_eq!(mix(&short), mix(&long));
}

#[test]
fn serve_gate_trips_on_a_corrupted_repeat_digest() {
    let travel = Travel::new();
    let inputs = serve::Inputs::new(11, 2);
    let root = perfbench::common::WorkDir::create("test-corrupt").expect("work dir");
    let mgr = oassis_server::SessionManager::new(
        travel.ontology.clone(),
        Box::new(travel.provider()),
        root.path(),
    );
    let mut t = Corrupting {
        inner: InProcess { mgr, totals: None },
        nth: 2,
        seen: 0,
    };
    let slot = rotation(11)[0];
    let mut gate = Gate::default();
    inputs.cycle(&mut t, root.path(), "x0-000000-0", &slot, false, &mut gate);
    assert_eq!(gate.failed, 1, "{:?}", gate.errors);
    assert!(gate.errors[0].contains("repeat 2"), "{:?}", gate.errors);
}
