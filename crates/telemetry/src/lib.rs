//! Deterministic observability for the OASSIS engines: hierarchical
//! spans, counters and fixed-bucket histograms, collected into a
//! [`TelemetrySink`] that serializes to JSONL traces and a metrics
//! snapshot.
//!
//! # Determinism contract
//!
//! Nothing here reads a wall clock — audit rule D2 bans
//! `Instant`/`SystemTime` outside `crates/bench`, and a trace stamped
//! with wall time could never be replayed bit-identically. Instead every
//! *trace event* (span start/end, mark) advances a **logical tick
//! counter** by one; a harness that owns a logical clock (the simtest
//! `LogicalClock`) can fold real event time in via
//! [`Telemetry::sync_tick`], which only ever moves the counter forward.
//! Two runs that record the same events in the same order therefore
//! produce byte-identical traces.
//!
//! The engines uphold that by construction:
//!
//! * span/mark events are recorded only on sequential paths: a query
//!   mines on its caller's thread, so its mining loop records them in
//!   one order;
//! * counters and histograms are commutative aggregates (`BTreeMap`
//!   keyed, addition only) and do **not** advance the tick, so even a
//!   counter bumped from another thread (a server connection's) cannot
//!   perturb the trace.
//!
//! # Zero-cost off switch
//!
//! The handle the engines carry is [`Telemetry`], which is either *off*
//! (the [`NoopSink`] default — a `None` sink, every call an immediate
//! early return with no locking and no allocation) or *recording* into
//! an [`Arc<TelemetrySink>`]. `Telemetry::default()` is off, so adding
//! the handle to a config struct changes no existing behavior and no
//! golden digest.
//!
//! ```
//! use telemetry::{Telemetry, TelemetrySink};
//!
//! let sink = TelemetrySink::shared();
//! let tele = Telemetry::recording(&sink);
//! {
//!     let run = tele.span("mine");
//!     run.tele().count("questions", 3);
//!     run.tele().observe("batch_size", 8);
//! } // span ends here
//! let snap = sink.snapshot();
//! assert_eq!(snap.counters["questions"], 3);
//! assert_eq!(snap.spans["mine"].count, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

pub mod lockorder;

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i` holds
/// values whose bit length is `i` (i.e. `2^(i-1) ..= 2^i - 1`), and the
/// last bucket absorbs everything with 17 or more bits.
pub const HISTOGRAM_BUCKETS: usize = 18;

/// A fixed-bucket power-of-two histogram over `u64` samples.
///
/// Buckets never reallocate and merging is commutative addition, so
/// histograms are safe to aggregate in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample, `u64::MAX` while empty.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = bucket_index(value);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

/// The bucket a sample falls into: 0 for zero, else the bit length
/// capped at the last bucket.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// One record in a trace: spans nest via `parent`, marks are point
/// events. Ticks are logical (see the module docs), strictly assigned
/// in recording order and non-decreasing.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A span opened.
    SpanStart {
        /// Span id, unique within the sink.
        id: u32,
        /// Enclosing span, if any.
        parent: Option<u32>,
        /// Span name (used for aggregation in the snapshot).
        name: String,
        /// Free-form detail, `""` when absent.
        detail: String,
        /// Logical tick at open.
        tick: u64,
    },
    /// A span closed.
    SpanEnd {
        /// The id from the matching [`TraceEvent::SpanStart`].
        id: u32,
        /// Logical tick at close.
        tick: u64,
    },
    /// A point event.
    Mark {
        /// Enclosing span, if any.
        parent: Option<u32>,
        /// Mark name.
        name: String,
        /// Free-form detail, `""` when absent.
        detail: String,
        /// Logical tick.
        tick: u64,
    },
}

impl TraceEvent {
    /// The event's logical tick.
    pub fn tick(&self) -> u64 {
        match self {
            TraceEvent::SpanStart { tick, .. }
            | TraceEvent::SpanEnd { tick, .. }
            | TraceEvent::Mark { tick, .. } => *tick,
        }
    }

    /// One JSONL line (no trailing newline).
    fn to_json_line(&self) -> String {
        fn opt_id(v: Option<u32>) -> String {
            match v {
                Some(id) => id.to_string(),
                None => "null".to_string(),
            }
        }
        match self {
            TraceEvent::SpanStart {
                id,
                parent,
                name,
                detail,
                tick,
            } => format!(
                "{{\"type\":\"span_start\",\"id\":{id},\"parent\":{},\"name\":{},\"detail\":{},\"tick\":{tick}}}",
                opt_id(*parent),
                escape_json(name),
                escape_json(detail),
            ),
            TraceEvent::SpanEnd { id, tick } => {
                format!("{{\"type\":\"span_end\",\"id\":{id},\"tick\":{tick}}}")
            }
            TraceEvent::Mark {
                parent,
                name,
                detail,
                tick,
            } => format!(
                "{{\"type\":\"mark\",\"parent\":{},\"name\":{},\"detail\":{},\"tick\":{tick}}}",
                opt_id(*parent),
                escape_json(name),
                escape_json(detail),
            ),
        }
    }
}

/// JSON string escaping (mirrors `ontology::json`'s writer so traces
/// parse back with that crate).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Everything the sink has collected, behind one mutex.
#[derive(Debug, Default)]
struct SinkState {
    /// Logical tick; advanced by one per trace event, and forced
    /// forward by [`Telemetry::sync_tick`].
    tick: u64,
    next_span: u32,
    events: Vec<TraceEvent>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The recording collector: trace events in order, plus counter and
/// histogram aggregates. Shared across the engine via `Arc`; see the
/// module docs for the determinism contract.
#[derive(Debug)]
pub struct TelemetrySink {
    state: lockorder::TrackedMutex<SinkState>,
}

impl Default for TelemetrySink {
    fn default() -> TelemetrySink {
        TelemetrySink {
            state: lockorder::TrackedMutex::new("telemetry.sink.state", SinkState::default()),
        }
    }
}

/// Aggregate totals for all spans sharing a name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// How many spans with this name closed.
    pub count: u64,
    /// Total logical ticks spent inside them (end − start, summed).
    pub ticks: u64,
}

/// A point-in-time copy of the sink's aggregates.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms, sorted by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-name span totals (closed spans only), sorted by name.
    pub spans: BTreeMap<String, SpanTotals>,
    /// Number of trace events recorded.
    pub events: usize,
    /// The logical tick after the last event.
    pub last_tick: u64,
}

impl TelemetrySink {
    /// A fresh sink.
    pub fn new() -> TelemetrySink {
        TelemetrySink::default()
    }

    /// A fresh sink, already wrapped for sharing.
    pub fn shared() -> Arc<TelemetrySink> {
        Arc::new(TelemetrySink::new())
    }

    /// Runs `f` on the locked state. A poisoned mutex means a panic
    /// mid-record; the data is still sound (every record is a single
    /// atomic mutation), so recover the guard rather than propagate.
    fn with_state<R>(&self, f: impl FnOnce(&mut SinkState) -> R) -> R {
        let mut guard = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard)
    }

    fn record_event(&self, make: impl FnOnce(u64, &mut SinkState) -> TraceEvent) {
        self.with_state(|s| {
            s.tick += 1;
            let tick = s.tick;
            let ev = make(tick, s);
            s.events.push(ev);
        });
    }

    /// Copies out the recorded trace events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.with_state(|s| s.events.clone())
    }

    /// Current value of a counter (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.with_state(|s| s.counters.get(name).copied().unwrap_or(0))
    }

    /// Aggregates counters, histograms and closed-span totals.
    pub fn snapshot(&self) -> Snapshot {
        self.with_state(|s| {
            let mut spans: BTreeMap<String, SpanTotals> = BTreeMap::new();
            let mut open: BTreeMap<u32, (String, u64)> = BTreeMap::new();
            for ev in &s.events {
                match ev {
                    TraceEvent::SpanStart { id, name, tick, .. } => {
                        open.insert(*id, (name.clone(), *tick));
                    }
                    TraceEvent::SpanEnd { id, tick } => {
                        if let Some((name, start)) = open.remove(id) {
                            let t = spans.entry(name).or_default();
                            t.count += 1;
                            t.ticks += tick.saturating_sub(start);
                        }
                    }
                    TraceEvent::Mark { .. } => {}
                }
            }
            Snapshot {
                counters: s.counters.clone(),
                histograms: s.histograms.clone(),
                spans,
                events: s.events.len(),
                last_tick: s.tick,
            }
        })
    }

    /// The whole trace as JSONL (one event object per line, in
    /// recording order).
    pub fn to_jsonl(&self) -> String {
        self.with_state(|s| {
            let mut out = String::new();
            for ev in &s.events {
                out.push_str(&ev.to_json_line());
                out.push('\n');
            }
            out
        })
    }

    /// Writes the JSONL trace to `path` (created or truncated).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())?;
        f.flush()
    }

    /// The metrics snapshot as one JSON object: `counters`,
    /// `histograms` (each `{count, sum, min, max, buckets}`) and
    /// `spans` (each `{count, ticks}`), all name-sorted so output is
    /// deterministic.
    pub fn snapshot_json(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in snap.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", escape_json(k), v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in snap.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let min = if h.count == 0 { 0 } else { h.min };
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                escape_json(k),
                h.count,
                h.sum,
                min,
                h.max,
            ));
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&b.to_string());
            }
            out.push_str("]}");
        }
        out.push_str("},\"spans\":{");
        for (i, (k, t)) in snap.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"ticks\":{}}}",
                escape_json(k),
                t.count,
                t.ticks,
            ));
        }
        out.push_str("}}");
        out
    }
}

/// The documented "telemetry off" sink: it stores nothing and costs
/// nothing. [`Telemetry::default`] is equivalent to routing into a
/// `NoopSink` — calls early-return before any lock or allocation —
/// which is what keeps golden digests and `BENCH_speed.json` baselines
/// bit-identical when observability is not requested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl NoopSink {
    /// The disabled handle this sink stands for.
    pub fn handle(&self) -> Telemetry {
        Telemetry::default()
    }
}

/// The handle instrumented code carries: either off (default) or
/// recording into a shared [`TelemetrySink`]. Cloning is cheap (an
/// `Option<Arc>` and a parent id); a clone records into the same sink
/// under the same parent span.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<TelemetrySink>>,
    parent: Option<u32>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.sink {
            Some(_) => write!(f, "Telemetry(recording, parent={:?})", self.parent),
            None => write!(f, "Telemetry(off)"),
        }
    }
}

impl Telemetry {
    /// The disabled handle (same as `Telemetry::default()`).
    pub fn off() -> Telemetry {
        Telemetry::default()
    }

    /// A root handle recording into `sink`.
    pub fn recording(sink: &Arc<TelemetrySink>) -> Telemetry {
        Telemetry {
            sink: Some(Arc::clone(sink)),
            parent: None,
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The sink behind this handle, if recording.
    pub fn sink(&self) -> Option<&Arc<TelemetrySink>> {
        self.sink.as_ref()
    }

    /// Opens a span; it closes when the returned guard drops. Nested
    /// records go through [`Span::tele`], which carries the new parent
    /// id. Call only from sequential coordinator code (module docs).
    pub fn span(&self, name: &str) -> Span {
        self.span_with(name, "")
    }

    /// [`Telemetry::span`] with a free-form detail string.
    pub fn span_with(&self, name: &str, detail: &str) -> Span {
        let Some(sink) = &self.sink else {
            return Span {
                child: Telemetry::default(),
                open: None,
            };
        };
        let parent = self.parent;
        let mut span_id = 0u32;
        sink.record_event(|tick, s| {
            span_id = s.next_span;
            s.next_span += 1;
            TraceEvent::SpanStart {
                id: span_id,
                parent,
                name: name.to_string(),
                detail: detail.to_string(),
                tick,
            }
        });
        Span {
            child: Telemetry {
                sink: Some(Arc::clone(sink)),
                parent: Some(span_id),
            },
            open: Some((Arc::clone(sink), span_id)),
        }
    }

    /// Records a point event under the current parent span.
    pub fn mark(&self, name: &str, detail: &str) {
        let Some(sink) = &self.sink else { return };
        let parent = self.parent;
        sink.record_event(|tick, _| TraceEvent::Mark {
            parent,
            name: name.to_string(),
            detail: detail.to_string(),
            tick,
        });
    }

    /// Adds `delta` to a named counter. Commutative; never advances
    /// the tick, so it is safe anywhere (including worker threads).
    pub fn count(&self, name: &str, delta: u64) {
        let Some(sink) = &self.sink else { return };
        if delta == 0 {
            return;
        }
        sink.with_state(|s| {
            *s.counters.entry(name.to_string()).or_insert(0) += delta;
        });
    }

    /// Records one sample into a named histogram. Commutative; never
    /// advances the tick.
    pub fn observe(&self, name: &str, value: u64) {
        let Some(sink) = &self.sink else { return };
        sink.with_state(|s| {
            s.histograms
                .entry(name.to_string())
                .or_default()
                .record(value);
        });
    }

    /// Folds an external logical clock in: the tick becomes
    /// `max(tick, t)`. Simtest drives this from its event clock so
    /// trace ticks line up with simulated crowd latency; it never moves
    /// the counter backwards.
    pub fn sync_tick(&self, t: u64) {
        let Some(sink) = &self.sink else { return };
        sink.with_state(|s| s.tick = s.tick.max(t));
    }

    /// A view of this handle that prefixes every recorded name with
    /// `label` (`"<label>.<name>"`). The cluster simulation hands each
    /// shard node a `labeled("node3")` view so one shared sink keeps
    /// per-node spans and counters apart without threading label strings
    /// through every call site. Free when telemetry is off.
    pub fn labeled(&self, label: &str) -> Labeled {
        Labeled {
            inner: self.clone(),
            label: label.to_string(),
        }
    }
}

/// A name-prefixing view of a [`Telemetry`] handle — see
/// [`Telemetry::labeled`]. Forwards every record with the label glued on
/// as `"<label>.<name>"`; when the underlying handle is off, calls
/// early-return before building the prefixed name.
#[derive(Clone, Debug)]
pub struct Labeled {
    inner: Telemetry,
    label: String,
}

impl Labeled {
    /// The prefix applied to every name.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The unprefixed handle underneath (for records that are global,
    /// not per-label).
    pub fn tele(&self) -> &Telemetry {
        &self.inner
    }

    fn prefixed(&self, name: &str) -> String {
        format!("{}.{}", self.label, name)
    }

    /// [`Telemetry::span`] under the prefixed name.
    pub fn span(&self, name: &str) -> Span {
        self.span_with(name, "")
    }

    /// [`Telemetry::span_with`] under the prefixed name.
    pub fn span_with(&self, name: &str, detail: &str) -> Span {
        if !self.inner.is_enabled() {
            return Span {
                child: Telemetry::default(),
                open: None,
            };
        }
        self.inner.span_with(&self.prefixed(name), detail)
    }

    /// [`Telemetry::mark`] under the prefixed name.
    pub fn mark(&self, name: &str, detail: &str) {
        if !self.inner.is_enabled() {
            return;
        }
        self.inner.mark(&self.prefixed(name), detail);
    }

    /// [`Telemetry::count`] under the prefixed name.
    pub fn count(&self, name: &str, delta: u64) {
        if !self.inner.is_enabled() {
            return;
        }
        self.inner.count(&self.prefixed(name), delta);
    }

    /// [`Telemetry::observe`] under the prefixed name.
    pub fn observe(&self, name: &str, value: u64) {
        if !self.inner.is_enabled() {
            return;
        }
        self.inner.observe(&self.prefixed(name), value);
    }

    /// [`Telemetry::sync_tick`] (labels never apply to the clock).
    pub fn sync_tick(&self, t: u64) {
        self.inner.sync_tick(t);
    }
}

/// RAII guard for an open span. Dropping it records the span end;
/// records made through [`Span::tele`] nest under it.
#[derive(Debug)]
pub struct Span {
    child: Telemetry,
    open: Option<(Arc<TelemetrySink>, u32)>,
}

impl Span {
    /// A handle whose records nest under this span.
    pub fn tele(&self) -> &Telemetry {
        &self.child
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((sink, id)) = self.open.take() {
            sink.record_event(|tick, _| TraceEvent::SpanEnd { id, tick });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_records_nothing() {
        let tele = Telemetry::off();
        assert!(!tele.is_enabled());
        let span = tele.span("x");
        span.tele().count("c", 5);
        span.tele().observe("h", 1);
        span.tele().mark("m", "");
        drop(span);
        // nothing to assert against — the absence of a sink IS the test;
        // NoopSink::handle is the same disabled handle
        assert!(!NoopSink.handle().is_enabled());
    }

    #[test]
    fn spans_nest_and_ticks_are_monotonic() {
        let sink = TelemetrySink::shared();
        let tele = Telemetry::recording(&sink);
        {
            let outer = tele.span_with("outer", "d");
            {
                let inner = outer.tele().span("inner");
                inner.tele().mark("point", "here");
            }
        }
        let events = sink.events();
        assert_eq!(events.len(), 5); // 2 starts + 1 mark + 2 ends
        let ticks: Vec<u64> = events.iter().map(|e| e.tick()).collect();
        assert!(ticks.windows(2).all(|w| w[0] < w[1]), "{ticks:?}");
        match &events[1] {
            TraceEvent::SpanStart { parent, name, .. } => {
                assert_eq!(*parent, Some(0));
                assert_eq!(name, "inner");
            }
            other => panic!("expected inner start, got {other:?}"),
        }
        match &events[2] {
            TraceEvent::Mark { parent, .. } => assert_eq!(*parent, Some(1)),
            other => panic!("expected mark, got {other:?}"),
        }
        let snap = sink.snapshot();
        assert_eq!(snap.spans["outer"].count, 1);
        assert_eq!(snap.spans["inner"].count, 1);
        assert!(snap.spans["outer"].ticks >= snap.spans["inner"].ticks);
    }

    #[test]
    fn labeled_views_prefix_every_name() {
        let sink = TelemetrySink::shared();
        let tele = Telemetry::recording(&sink);
        let node = tele.labeled("node3");
        {
            let span = node.span("merge");
            span.tele().count("plain", 1); // nested handle is unprefixed
        }
        node.count("ops_sent", 4);
        node.observe("batch_len", 2);
        node.mark("restart", "");
        let snap = sink.snapshot();
        assert_eq!(snap.spans["node3.merge"].count, 1);
        assert_eq!(snap.counters["plain"], 1);
        assert_eq!(snap.counters["node3.ops_sent"], 4);
        assert_eq!(snap.histograms["node3.batch_len"].count, 1);
        assert_eq!(node.label(), "node3");
        // an off handle stays off through the view
        let off = Telemetry::off().labeled("x");
        off.count("c", 1);
        off.observe("h", 1);
        off.mark("m", "");
        assert!(!off.tele().is_enabled());
        drop(off.span("s"));
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let sink = TelemetrySink::shared();
        let tele = Telemetry::recording(&sink);
        tele.count("q", 2);
        tele.count("q", 3);
        tele.observe("sizes", 0);
        tele.observe("sizes", 1);
        tele.observe("sizes", 7);
        tele.observe("sizes", 1 << 40);
        let snap = sink.snapshot();
        assert_eq!(snap.counters["q"], 5);
        let h = &snap.histograms["sizes"];
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1 << 40);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[3], 1); // 7 (3 bits)
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 1); // overflow bucket
    }

    #[test]
    fn sync_tick_only_moves_forward() {
        let sink = TelemetrySink::shared();
        let tele = Telemetry::recording(&sink);
        tele.sync_tick(100);
        tele.mark("a", "");
        tele.sync_tick(5); // must not rewind
        tele.mark("b", "");
        let events = sink.events();
        assert_eq!(events[0].tick(), 101);
        assert_eq!(events[1].tick(), 102);
    }

    #[test]
    fn jsonl_escapes_and_is_line_per_event() {
        let sink = TelemetrySink::shared();
        let tele = Telemetry::recording(&sink);
        let s = tele.span_with("q", "say \"hi\"\nline2");
        drop(s);
        let text = sink.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\\\"hi\\\""));
        assert!(text.contains("\\n"));
        // snapshot JSON is well-formed too (spot-check shape)
        let snap = sink.snapshot_json();
        assert!(snap.starts_with("{\"counters\":{"));
        assert!(snap.contains("\"spans\":{"));
    }
}
