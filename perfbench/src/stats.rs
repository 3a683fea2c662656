//! Order statistics and window medians.
//!
//! Percentiles interpolate linearly between closest ranks (the same
//! rule as Python's `statistics.quantiles(..., method="inclusive")` and
//! NumPy's default), so a p50 over an even count is the midpoint of the
//! two middle samples.

/// The `p`-th percentile (`0.0..=100.0`) of `values`, interpolating
/// between closest ranks. `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * (p / 100.0).clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    Some(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Number of samples strictly above the `p`-th percentile: the tail a
/// percentile rests on.
pub fn beyond(values: &[f64], p: f64) -> usize {
    match percentile(values, p) {
        Some(cut) => values.iter().filter(|&&v| v > cut).count(),
        None => 0,
    }
}

/// A latency summary line: the sample count, the median, and the
/// highest of p99/p95/p90/p75 that has at least ten samples beyond it.
pub fn latency_summary(what: &str, ms: &[f64]) -> String {
    let p50 = median(ms).unwrap_or(0.0);
    let tail = [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| beyond(ms, p) >= 10)
        .and_then(|p| Some((p, percentile(ms, p)?)));
    match tail {
        Some((p, v)) => format!(
            "{what}: {} samples, p50 {p50:.3} ms, p{p} {v:.3} ms ({} beyond)",
            ms.len(),
            beyond(ms, p)
        ),
        None => format!("{what}: {} samples, p50 {p50:.3} ms", ms.len()),
    }
}

/// A progress mark: the state of the run at one unit boundary (a
/// rotation of ops, or a session cycle).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mark {
    /// Seconds since the timed phase started.
    pub t: f64,
    /// Process CPU seconds (all threads) at the mark.
    pub cpu: f64,
    /// Ops completed by the mark.
    pub ops: u64,
}

/// Per-window rates between marks: the marks are grouped into windows
/// of `units` consecutive intervals (an incomplete tail window is
/// dropped unless it is the only one), and each window yields
/// `(ops per second, CPU milliseconds per op)`.
pub fn window_rates(marks: &[Mark], units: usize) -> Vec<(f64, f64)> {
    let units = units.max(1);
    let mut out = Vec::new();
    if marks.len() < 2 {
        return out;
    }
    let mut start = 0;
    while start + units < marks.len() {
        out.push(rate(&marks[start], &marks[start + units]));
        start += units;
    }
    if out.is_empty() {
        out.push(rate(&marks[0], &marks[marks.len() - 1]));
    }
    out
}

fn rate(a: &Mark, b: &Mark) -> (f64, f64) {
    let ops = b.ops.saturating_sub(a.ops) as f64;
    let dt = b.t - a.t;
    let throughput = if dt > 0.0 { ops / dt } else { 0.0 };
    let cpu_ms_per_op = if ops > 0.0 {
        (b.cpu - a.cpu) * 1e3 / ops
    } else {
        0.0
    };
    (throughput, cpu_ms_per_op)
}

/// Medians over windows: `(throughput_per_s, cpu_ms_per_op)`.
pub fn window_medians(marks: &[Mark], units: usize) -> (f64, f64) {
    let rates = window_rates(marks, units);
    let thr: Vec<f64> = rates.iter().map(|r| r.0).collect();
    let cpu: Vec<f64> = rates.iter().map(|r| r.1).collect();
    (median(&thr).unwrap_or(0.0), median(&cpu).unwrap_or(0.0))
}

/// SplitMix64: derives well-spread seeds from one workload seed.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
