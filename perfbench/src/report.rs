//! Run results: named metrics with units, the correctness gate, and the
//! one-line JSON record every run ends with.

use crate::common::SetupTime;
use crate::stats::{median, window_medians, Mark};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (as listed in `BENCHMARK.json`).
    pub name: &'static str,
    /// Unit (`ms`, `s`, `1/s`, `count`, …).
    pub unit: &'static str,
    /// The value as measured, unrounded.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// Failure accounting and output checks for one run. Every op is
/// attempted exactly once; an op fails when the program errors, refuses
/// or returns an outcome whose digest differs from the expected one.
#[derive(Debug, Default, Clone)]
pub struct Gate {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed (error, refusal or mismatch).
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
}

impl Gate {
    /// Counts one attempted op.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Records a failure of the op just attempted.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what.into());
        }
    }

    /// Checks that an output equals its expected value (digests, 16 hex
    /// digits); a mismatch fails the op.
    pub fn expect_equal(&mut self, what: &str, got: &str, want: &str) -> bool {
        if got == want {
            return true;
        }
        self.fail(format!("{what}: digest {got} != expected {want}"));
        false
    }

    /// Folds another gate's counts into this one.
    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Whether every op succeeded and at least one ran.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Everything one run produces.
#[derive(Debug, Default)]
pub struct Report {
    /// The correctness gate.
    pub gate: Gate,
    /// Metrics for the JSON record, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Workload-specific metrics printed by name in the human report
    /// only (they do not exist on every workload).
    pub extra: Vec<Metric>,
    /// Free-form report lines (digests, configuration, notes).
    pub lines: Vec<String>,
}

impl Report {
    /// The human-readable report: configuration lines, then every metric
    /// by name with its unit.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        for m in self.metrics.iter().chain(&self.extra) {
            out.push_str(&format!("  {:<34} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!(
            "  {:<34} {:>16.6} ratio   ({} failed of {} attempted)\n",
            "error_rate",
            self.gate.error_rate(),
            self.gate.failed,
            self.gate.attempted
        ));
        for e in &self.gate.errors {
            out.push_str(&format!("  FAILED: {e}\n"));
        }
        out
    }

    /// The machine-readable last line: `correct`, `attempted`, `failed`
    /// and the JSON metrics with their units.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.gate.correct(),
            self.gate.attempted,
            self.gate.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which JSON cannot carry, become
/// 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// The end-to-end metrics every untraced run reports in its JSON line,
/// with units, in `BENCHMARK.json` order. Wall-clock latency and
/// throughput are measured and printed by every run too, but are not in
/// this list: on a shared VM with steal they moved 20–48 % between runs
/// of the same code, more than any bound a check may use, while CPU
/// time per op moved under 10 %.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("questions_per_query", "count"),
];

/// The metrics every untraced run measures: `setup_s` (median CPU time
/// of the set-ups) and `setup_wall_s` (their median wall time),
/// `latency_p50_ms` over `latencies`, `throughput_per_s` and
/// `cpu_ms_per_op` as medians over windows of `units` mark intervals,
/// `peak_rss_mb`, and the exact `questions_per_query`.
pub fn run_metrics(
    setup: &[SetupTime],
    latencies: &[f64],
    marks: &[Mark],
    units: usize,
    questions_per_query: f64,
) -> Vec<Metric> {
    let (throughput, cpu_per_op) = window_medians(marks, units);
    let cpu: Vec<f64> = setup.iter().map(|s| s.cpu).collect();
    let wall: Vec<f64> = setup.iter().map(|s| s.wall).collect();
    vec![
        Metric::new("setup_s", "s", median(&cpu).unwrap_or(0.0)),
        Metric::new("setup_wall_s", "s", median(&wall).unwrap_or(0.0)),
        Metric::new("latency_p50_ms", "ms", median(latencies).unwrap_or(0.0)),
        Metric::new("throughput_per_s", "1/s", throughput),
        Metric::new("cpu_ms_per_op", "ms", cpu_per_op),
        Metric::new("peak_rss_mb", "MiB", crate::procfs::peak_rss_mb()),
        Metric::new("questions_per_query", "count", questions_per_query),
    ]
}

/// The per-layer metrics every traced run reports, with units, in
/// `BENCHMARK.json` order. A layer a workload never enters reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    // oassis-ql
    ("ql.parse_bind_ms", "ms"),
    ("ql.where_ms", "ms"),
    // core.dag
    ("dag.build_ms", "ms"),
    ("dag.nodes_materialized", "count"),
    ("dag.nodes_created", "count"),
    ("dag.nodes_expanded", "count"),
    // core.multi / vertical / classify / validity
    ("engine.self_ms", "ms"),
    ("engine.questions", "count"),
    ("engine.rounds", "count"),
    ("classify.hit_ratio", "ratio"),
    ("validity.bases_classified", "count"),
    ("validity.witness_checks", "count"),
    // crowd
    ("crowd.ask_ms", "ms"),
    ("crowd.asks", "count"),
    ("crowd.build_ms", "ms"),
    // core.cache
    ("cache.hit_ratio", "ratio"),
    ("cache.fresh_questions_per_query", "count"),
    // server.wal, write side
    ("wal.records_per_query", "count"),
    ("wal.write_calls_per_query", "count"),
    ("wal.bytes_per_query", "bytes"),
    ("wal.append_ms", "ms"),
    ("wal.age_growth", "ratio"),
    // server.wal, read side
    ("wal.read_ms", "ms"),
    // core.oplog and the recovery rebuild
    ("oplog.replay_ms", "ms"),
    ("oplog.ops_replayed", "count"),
    ("recover.rebuild_ms", "ms"),
    // server.session / proto / service
    ("session.query_ms", "ms"),
    ("session.open_ms", "ms"),
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("proto.frame_bytes", "bytes"),
    ("service.tcp_overhead_ms", "ms"),
    ("service.lock_wait_ms", "ms"),
    ("service.cold_p50_ms", "ms"),
    ("service.repeat_p50_ms", "ms"),
    // the trace itself, and the untraced wall-clock latency (too
    // unsteady between runs to gate as an end-to-end metric)
    ("trace.untraced_p50_ms", "ms"),
    ("trace.untraced_p90_ms", "ms"),
    ("trace.latency_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.remainder_ms", "ms"),
];

/// Builds the metric list for `names` from `values` (a missing value is
/// a harness bug and reports as an error).
pub fn collect(
    names: &[(&'static str, &'static str)],
    values: &[(&str, f64)],
) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|&(name, unit)| {
            values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| Metric::new(name, unit, v))
                .ok_or_else(|| format!("metric {name} was not measured"))
        })
        .collect()
}
