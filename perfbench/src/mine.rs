//! `mine`: the paper's headline experiment, one caller.
//!
//! Each op is one [`Oassis::run`] of the E1 travel query (Θ = 0.2,
//! 248 simulated members over 12 habits, the paper's 5-answer
//! aggregator, specialization ratio 0.12) with a fresh crowd and a
//! fresh answer cache. Building the crowd is input generation and stays
//! outside the timed call. The op is engine-bound and does no I/O.

use crate::common::{
    rotation, timed, timed_setup, travel_crowd, warm_up_slot, AskTotals, Budget, Clock, CpuScope,
    SetupTime, Slot, TimedCrowd, Travel, HABITS, ROTATION,
};
use crate::report::{run_metrics, Gate, Metric};
use crate::stats::{median, percentile, Mark};
use bench::paper_aggregator;
use crowd::SimulatedCrowd;
use oassis_core::{
    run_multi, CachingCrowd, CrowdBinding, CrowdCache, Dag, MiningConfig, Oassis, QueryRequest,
    SemanticOutcome,
};
use oassis_ql::{bind, evaluate_where_pool, parse, BoundQuery, MatchMode};
use oassis_server::digest_hex;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;
use telemetry::{Telemetry, TelemetrySink};

/// Simulated crowd members (the paper's E1 crowd size).
pub const MEMBERS: usize = 248;

/// The support threshold of E1.
pub const THRESHOLD: f64 = 0.2;

/// The inputs of a `mine` run and the reference outcome of every slot
/// (fixed by the first op that runs it).
pub struct Inputs {
    travel: Travel,
    bound: BoundQuery,
    slots: [Slot; ROTATION],
    refs: RefCell<[Option<(String, usize)>; ROTATION]>,
}

/// One measured op.
#[derive(Debug, Clone)]
pub struct Op {
    /// Wall time of the `Oassis::run` call.
    pub ms: f64,
    /// `SemanticOutcome` digest, 16 hex digits.
    pub digest: String,
    /// Crowd questions the engine posed.
    pub questions: usize,
}

fn config(slot: &Slot) -> MiningConfig {
    MiningConfig {
        threshold: Some(THRESHOLD),
        specialization_ratio: 0.12,
        seed: slot.mining,
        ..Default::default()
    }
}

impl Inputs {
    fn crowd(&self, slot: &Slot) -> SimulatedCrowd<'_> {
        travel_crowd(&self.travel.domain, MEMBERS, slot.crowd, true)
    }

    fn outcome_hex(&self, mining: &oassis_core::MiningOutcome) -> String {
        let vocab = self.travel.domain.ontology.vocab();
        digest_hex(SemanticOutcome::from_mining(mining, &self.bound, vocab).digest())
    }

    /// One untraced op: a fresh crowd and cache (untimed), then the timed
    /// `Oassis::run`.
    pub fn op(&self, slot: &Slot) -> Result<Op, String> {
        let domain = &self.travel.domain;
        let engine = Oassis::new(&domain.ontology);
        let mut cache = CrowdCache::new();
        let mut crowd = CachingCrowd::new(self.crowd(slot), &mut cache);
        let req = QueryRequest::pattern(&domain.query).with_mining(config(slot));
        let (ms, out) =
            timed(|| engine.run(&req, CrowdBinding::single(&mut crowd), &paper_aggregator()));
        let answer = out
            .map_err(|e| format!("Oassis::run failed: {e}"))?
            .into_patterns()
            .ok_or("Oassis::run returned no pattern answer")?;
        Ok(Op {
            ms,
            digest: self.outcome_hex(&answer.outcome.mining),
            questions: answer.outcome.mining.questions,
        })
    }

    /// The reference (digest, questions) of rotation slot `index`.
    pub fn reference(&self, index: usize) -> Option<(String, usize)> {
        self.refs.borrow().get(index).cloned().flatten()
    }

    /// Replaces the reference of rotation slot `index`.
    pub fn set_reference(&self, index: usize, digest: &str, questions: usize) {
        if let Some(r) = self.refs.borrow_mut().get_mut(index) {
            *r = Some((digest.to_string(), questions));
        }
    }

    /// Compares an outcome with its slot's reference, recording the
    /// reference on first sight (the warm-up slot has none).
    fn agree(&self, slot: &Slot, digest: &str, questions: usize) -> Result<(), String> {
        let mut refs = self.refs.borrow_mut();
        let Some(r) = refs.get_mut(slot.index) else {
            return Ok(());
        };
        match r {
            None => *r = Some((digest.to_string(), questions)),
            Some((d, q)) if d == digest && *q == questions => {}
            Some((d, q)) => {
                return Err(format!(
                    "mine slot {}: digest {digest} with {questions} questions, expected {d} \
                     with {q}",
                    slot.index
                ))
            }
        }
        Ok(())
    }

    /// Checks `op` against the reference of `slot`.
    pub fn check(&self, gate: &mut Gate, slot: &Slot, op: &Op) {
        if let Err(e) = self.agree(slot, &op.digest, op.questions) {
            gate.fail(e);
        }
    }
}

/// Set-up: generate the domain, bind the query, run one warm-up op.
pub fn setup(seed: u64) -> Result<(Inputs, String), String> {
    let travel = Travel::new();
    let bound = bench::bind_domain(&travel.domain);
    let inputs = Inputs {
        travel,
        bound,
        slots: rotation(seed),
        refs: RefCell::new(Default::default()),
    };
    let warm = inputs.op(&warm_up_slot())?;
    Ok((inputs, warm.digest))
}

/// [`setup`], timed. Set-up runs on the calling thread alone (`Oassis`
/// mines with a sequential pool), so its CPU time is that thread's.
pub fn timed_setup_once(seed: u64) -> (SetupTime, Result<(Inputs, String), String>) {
    timed_setup(CpuScope::Thread, || setup(seed))
}

/// One more timed set-up, whose inputs are dropped; it must reproduce
/// the warm-up digest `warm`. A set-up lasts ~0.15 s, shorter than the
/// host's slow and fast phases, so an untraced run samples it between
/// its rotations ([`run`]) rather than several times in a row.
pub fn sample_setup(seed: u64, warm: &str, gate: &mut Gate) -> Option<SetupTime> {
    let (time, got) = timed_setup_once(seed);
    gate.attempt();
    match got {
        Ok((_, digest)) => gate
            .expect_equal("mine warm-up", &digest, warm)
            .then_some(time),
        Err(e) => {
            gate.fail(e);
            None
        }
    }
}

/// The timed phase of an untraced run.
#[derive(Debug, Default)]
pub struct Timed {
    /// Every op, in order.
    pub ops: Vec<Op>,
    /// One mark per completed rotation (plus the start).
    pub marks: Vec<Mark>,
}

/// Runs whole rotations until the budget is spent. After each rotation,
/// `between` runs off the clock: its wall and CPU time count neither
/// towards the budget nor in any mark.
pub fn run(
    inputs: &Inputs,
    budget: Budget,
    gate: &mut Gate,
    mut between: impl FnMut(&mut Gate),
) -> Timed {
    let clock = Clock::start();
    // wall and CPU seconds spent in `between` so far
    let mut aside = (0.0, 0.0);
    let mark = |aside: (f64, f64), ops: u64| {
        let m = clock.mark(ops);
        Mark {
            t: m.t - aside.0,
            cpu: m.cpu - aside.1,
            ops,
        }
    };
    let mut out = Timed {
        marks: vec![clock.mark(0)],
        ..Default::default()
    };
    let mut rotations = 0;
    while budget.more(
        rotations,
        Duration::from_secs_f64(mark(aside, 0).t.max(0.0)),
    ) {
        for slot in &inputs.slots {
            gate.attempt();
            match inputs.op(slot) {
                Ok(op) => {
                    inputs.check(gate, slot, &op);
                    out.ops.push(op);
                }
                Err(e) => gate.fail(e),
            }
        }
        rotations += 1;
        out.marks.push(mark(aside, out.ops.len() as u64));
        let before = clock.mark(0);
        between(gate);
        let after = clock.mark(0);
        aside = (
            aside.0 + after.t - before.t,
            aside.1 + after.cpu - before.cpu,
        );
    }
    out
}

/// Metrics of an untraced run (the gated end-to-end ones and the
/// reported-only wall-clock ones).
pub fn end_to_end(setup: &[SetupTime], timed: &Timed) -> Vec<Metric> {
    let lat: Vec<f64> = timed.ops.iter().map(|o| o.ms).collect();
    let questions: usize = timed.ops.iter().map(|o| o.questions).sum();
    run_metrics(
        setup,
        &lat,
        &timed.marks,
        1,
        questions as f64 / timed.ops.len().max(1) as f64,
    )
}

/// Report lines: configuration and the reference digest of every slot.
pub fn describe(inputs: &Inputs) -> Vec<String> {
    let mut lines = vec![format!(
        "mine: E1 travel, theta {THRESHOLD}, {MEMBERS} members, {HABITS} habits, \
         5-answer aggregator; one caller, fresh crowd and cache per op"
    )];
    for slot in &inputs.slots {
        let (digest, questions) = inputs.reference(slot.index).unwrap_or_default();
        lines.push(format!(
            "  slot {} crowd seed {} mining seed {}: digest {digest} questions {questions}",
            slot.index, slot.crowd, slot.mining,
        ));
    }
    lines
}

/// Per-layer times of one decomposed op (milliseconds).
#[derive(Debug, Clone, Default)]
struct LayerTimes {
    parse_bind: f64,
    where_eval: f64,
    dag_build: f64,
    engine_self: f64,
    crowd: f64,
    total: f64,
}

/// Deterministic work counts of one slot.
#[derive(Debug, Clone, Default)]
struct Counts {
    questions: f64,
    rounds: f64,
    asks: f64,
    classify_hits: f64,
    classify_misses: f64,
    bases_classified: f64,
    witness_checks: f64,
    nodes_materialized: f64,
    nodes_created: f64,
    nodes_expanded: f64,
}

impl Inputs {
    /// The pipeline `Oassis::run` executes for a pattern query, rebuilt
    /// from the public functions of each layer: prepare (twice, as the
    /// engine does: once to dispatch, once to run), WHERE, DAG build,
    /// `run_multi` with the members behind a timing wrapper. With a
    /// recording `tele` the run also yields the engine's work counters.
    fn decomposed(&self, slot: &Slot, tele: Telemetry) -> Result<(LayerTimes, Counts), String> {
        let domain = &self.travel.domain;
        let (ont, vocab) = (&domain.ontology, domain.ontology.vocab());
        let totals = Arc::new(AskTotals::default());
        let mut cache = CrowdCache::new();
        let members = TimedCrowd::new(Box::new(self.crowd(slot)), totals.clone());
        let mut crowd = CachingCrowd::new(members, &mut cache);
        let cfg = MiningConfig {
            telemetry: tele.clone(),
            ..config(slot)
        };
        let prepare = || {
            let q = parse(&domain.query).map_err(|e| e.to_string())?;
            bind(&q, ont).map_err(|e| e.to_string())
        };
        let (total, result) = timed(|| -> Result<_, String> {
            let (pb1, _) = timed(prepare);
            let (pb2, bound) = timed(prepare);
            let bound = bound?;
            let pool = minipool::Pool::sequential();
            let (where_eval, base) =
                timed(|| evaluate_where_pool(&bound, ont, MatchMode::Exact, &pool));
            let (dag_build, mut dag) = timed(|| Dag::new(&bound, vocab, &base));
            let (multi, out) = timed(|| run_multi(&mut dag, &mut crowd, &paper_aggregator(), &cfg));
            Ok((
                pb1 + pb2,
                where_eval,
                dag_build,
                multi,
                out,
                dag.len(),
                dag.stats(),
            ))
        });
        let (parse_bind, where_eval, dag_build, multi, out, materialized, gen) = result?;
        let (asks, crowd_ms) = totals.read();
        self.agree(slot, &self.outcome_hex(&out.mining), out.mining.questions)
            .map_err(|e| format!("decomposed pipeline: {e}"))?;
        let counter = |name: &str| tele.sink().map_or(0.0, |s| s.counter(name) as f64);
        let times = LayerTimes {
            parse_bind,
            where_eval,
            dag_build,
            engine_self: multi - crowd_ms,
            crowd: crowd_ms,
            total,
        };
        let counts = Counts {
            questions: out.mining.questions as f64,
            rounds: out.rounds as f64,
            asks: asks as f64,
            classify_hits: counter("classifier.cache_hits"),
            classify_misses: counter("classifier.cache_misses"),
            bases_classified: counter("validity.bases_classified"),
            witness_checks: counter("validity.witness_checks"),
            nodes_materialized: materialized as f64,
            nodes_created: gen.nodes_created as f64,
            nodes_expanded: gen.nodes_expanded as f64,
        };
        Ok((times, counts))
    }
}

/// The traced run: one counting pass per slot (recording telemetry),
/// then rotations of paired ops — untraced `Oassis::run`, then the
/// decomposed pipeline — until the budget is spent.
pub fn traced(
    inputs: &Inputs,
    budget: Budget,
    gate: &mut Gate,
    lines: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let mut counts = Vec::new();
    for slot in &inputs.slots {
        gate.attempt();
        let sink = TelemetrySink::shared();
        match inputs.decomposed(slot, Telemetry::recording(&sink)) {
            Ok((_, c)) => counts.push(c),
            Err(e) => gate.fail(e),
        }
    }
    let clock = Clock::start();
    let (mut untraced, mut layers) = (Vec::new(), Vec::new());
    let mut rotations = 0;
    while budget.more(rotations, clock.elapsed()) {
        for slot in &inputs.slots {
            // alternate which side of a pair runs first, so neither
            // inherits the other's cache or allocator state every time
            for traced_side in [rotations % 2 == 1, rotations % 2 == 0] {
                gate.attempt();
                if traced_side {
                    match inputs.decomposed(slot, Telemetry::off()) {
                        Ok((t, _)) => layers.push(t),
                        Err(e) => gate.fail(e),
                    }
                } else {
                    match inputs.op(slot) {
                        Ok(op) => {
                            inputs.check(gate, slot, &op);
                            untraced.push(op.ms);
                        }
                        Err(e) => gate.fail(e),
                    }
                }
            }
        }
        rotations += 1;
    }
    let med = |f: fn(&LayerTimes) -> f64| {
        median(&layers.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let mean =
        |f: fn(&Counts) -> f64| counts.iter().map(f).sum::<f64>() / counts.len().max(1) as f64;
    let untraced_p50 = median(&untraced).unwrap_or(0.0);
    let traced_p50 = med(|t| t.total);
    let attributed = med(|t| t.parse_bind)
        + med(|t| t.where_eval)
        + med(|t| t.dag_build)
        + med(|t| t.engine_self)
        + med(|t| t.crowd);
    lines.push(format!(
        "mine traced: {} paired ops; untraced p50 {untraced_p50:.3} ms, traced p50 {traced_p50:.3} ms",
        layers.len()
    ));
    let hits = mean(|c| c.classify_hits);
    let lookups = hits + mean(|c| c.classify_misses);
    let questions = mean(|c| c.questions);
    vec![
        ("ql.parse_bind_ms", med(|t| t.parse_bind)),
        ("ql.where_ms", med(|t| t.where_eval)),
        ("dag.build_ms", med(|t| t.dag_build)),
        ("dag.nodes_materialized", mean(|c| c.nodes_materialized)),
        ("dag.nodes_created", mean(|c| c.nodes_created)),
        ("dag.nodes_expanded", mean(|c| c.nodes_expanded)),
        ("engine.self_ms", med(|t| t.engine_self)),
        ("engine.questions", questions),
        ("engine.rounds", mean(|c| c.rounds)),
        (
            "classify.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        ),
        ("validity.bases_classified", mean(|c| c.bases_classified)),
        ("validity.witness_checks", mean(|c| c.witness_checks)),
        ("crowd.ask_ms", med(|t| t.crowd)),
        ("crowd.asks", mean(|c| c.asks)),
        (
            "cache.hit_ratio",
            if questions > 0.0 {
                1.0 - mean(|c| c.asks) / questions
            } else {
                0.0
            },
        ),
        ("trace.untraced_p50_ms", untraced_p50),
        (
            "trace.untraced_p90_ms",
            percentile(&untraced, 90.0).unwrap_or(0.0),
        ),
        ("trace.latency_ms", traced_p50),
        ("trace.overhead_ms", traced_p50 - untraced_p50),
        ("trace.remainder_ms", untraced_p50 - attributed),
    ]
}
