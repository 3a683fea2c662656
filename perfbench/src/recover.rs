//! `recover`: session restarts over a read-only WAL corpus, one caller.
//!
//! Set-up builds one `serve`-shaped session per rotation slot (a cold
//! query plus the repeats, through the same [`SessionManager`] code the
//! server runs). Each op restarts one session: a new manager runs
//! `open` + `recover`, and every recovered query must verify against
//! its `done` footer and reproduce the digest the live query returned.
//! Nothing is written, so every op of a slot does identical work.

use crate::common::{
    rotation, timed, timed_setup, Budget, Clock, CpuScope, SetupTime, Slot, Travel, WorkDir,
    ROTATION, SERVE_MEMBERS,
};
use crate::report::{run_metrics, Gate, Metric};
use crate::stats::{median, percentile, Mark};
use oassis_core::{intern_wire_op, Dag, FixedSampleAggregator, OpLog, SemanticOutcome};
use oassis_ql::{bind, evaluate_where_pool, parse, MatchMode};
use oassis_server::{
    digest_hex, QuerySpec, RecoveredQuery, SessionManager, SessionSpec, SessionWal,
};
use telemetry::Telemetry;

/// Member-WAL records between compactions (the server's default).
const SNAPSHOT_EVERY: u32 = 64;

/// Set-up repetitions per run (each builds a whole corpus); `setup_s` is
/// their median.
const SETUP_REPEATS: usize = 3;

/// One corpus session as set-up built it.
struct Built {
    /// Rotation slot.
    index: usize,
    /// The live digest of the session's query.
    digest: String,
    /// Questions the cold query posed.
    questions: usize,
}

/// The corpus and the reference outcome of every slot.
pub struct Inputs {
    travel: Travel,
    slots: [Slot; ROTATION],
    corpus: WorkDir,
    /// Queries per corpus session.
    pub queries: usize,
    /// The live digest of every slot's query.
    pub digests: [String; ROTATION],
    /// Questions each slot's query posed when the corpus was built.
    pub questions: [usize; ROTATION],
}

fn session(slot: &Slot) -> SessionSpec {
    SessionSpec {
        name: format!("r{}", slot.index),
        seed: slot.crowd,
        members: SERVE_MEMBERS,
    }
}

impl Inputs {
    fn manager(&self) -> SessionManager {
        SessionManager::new(
            self.travel.ontology.clone(),
            Box::new(self.travel.provider()),
            self.corpus.path(),
        )
    }

    /// Runs one corpus session through `mgr`: open, the cold query and
    /// the repeats (which must reproduce its digest), close.
    fn build_session(&self, mgr: &mut SessionManager, slot: &Slot) -> Result<Built, String> {
        let spec = session(slot);
        mgr.open(&spec).map_err(|e| e.to_string())?;
        let query = QuerySpec {
            src: self.travel.domain.query.clone(),
            threshold: None,
            batch_width: 1,
            max_questions: None,
            seed: slot.mining,
        };
        let cold = mgr.query(&spec.name, &query).map_err(|e| e.to_string())?;
        for _ in 1..self.queries {
            let reply = mgr.query(&spec.name, &query).map_err(|e| e.to_string())?;
            if reply.digest != cold.digest {
                return Err(format!(
                    "corpus session {}: repeat digest differs",
                    spec.name
                ));
            }
        }
        mgr.close(&spec.name).map_err(|e| e.to_string())?;
        Ok(Built {
            index: slot.index,
            digest: cold.digest,
            questions: cold.questions,
        })
    }

    /// One untraced op: a fresh manager restarts the slot's session.
    pub fn op(&self, slot: &Slot) -> Result<(f64, Vec<RecoveredQuery>), String> {
        let mut mgr = self.manager();
        let spec = session(slot);
        let (ms, rec) = timed(|| {
            mgr.open(&spec)?;
            mgr.recover(&spec.name)
        });
        Ok((ms, rec.map_err(|e| format!("restart {}: {e}", spec.name))?))
    }

    /// Every recovered query must verify against its footer and carry the
    /// slot's live digest.
    pub fn check(&self, gate: &mut Gate, slot: &Slot, rec: &[RecoveredQuery]) {
        let want = &self.digests[slot.index];
        if rec.len() != self.queries {
            gate.fail(format!(
                "recover slot {}: {} queries, expected {}",
                slot.index,
                rec.len(),
                self.queries
            ));
            return;
        }
        for q in rec {
            if q.verified != Some(true) {
                gate.fail(format!(
                    "recover slot {} qid {}: verified {:?}",
                    slot.index, q.qid, q.verified
                ));
                return;
            }
            if !gate.expect_equal(
                &format!("recover slot {} qid {}", slot.index, q.qid),
                &q.digest,
                want,
            ) {
                return;
            }
        }
    }
}

/// Set-up: generate the domain, build the corpus (one session per slot:
/// a cold query and `repeats` repeats) and restart slot 0 once as the
/// warm-up.
pub fn setup(seed: u64, repeats: usize, tag: &str, gate: &mut Gate) -> Result<Inputs, String> {
    let travel = Travel::new();
    let corpus = WorkDir::create(tag).map_err(|e| format!("work dir: {e}"))?;
    let mut inputs = Inputs {
        travel,
        slots: rotation(seed),
        corpus,
        queries: repeats + 1,
        digests: Default::default(),
        questions: [0; ROTATION],
    };
    // two threads (one per vCPU), each with its own manager over the
    // shared corpus root, take alternate slots
    let built: Vec<Result<Vec<Built>, String>> = std::thread::scope(|scope| {
        let inputs = &inputs;
        let handles: Vec<_> = (0..2)
            .map(|half| {
                scope.spawn(move || {
                    let mut mgr = inputs.manager();
                    let mut out = Vec::new();
                    for slot in inputs.slots.iter().filter(|s| s.index % 2 == half) {
                        out.push(inputs.build_session(&mut mgr, slot)?);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            // PANIC-OK: a corpus thread panic is a harness bug; surface it
            .map(|h| h.join().expect("corpus thread"))
            .collect()
    });
    for b in built
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
    {
        inputs.digests[b.index] = b.digest;
        inputs.questions[b.index] = b.questions;
    }
    let slot = inputs.slots[0];
    gate.attempt();
    match inputs.op(&slot) {
        Ok((_, rec)) => inputs.check(gate, &slot, &rec),
        Err(e) => gate.fail(e),
    }
    Ok(inputs)
}

/// Runs set-up [`SETUP_REPEATS`] times (each with its own corpus); keeps
/// the last and checks every repetition reproduces the previous digests.
/// The corpus is built on two threads, so the CPU time is the whole
/// process's.
pub fn setup_repeated(
    seed: u64,
    repeats: usize,
    gate: &mut Gate,
) -> Result<(Inputs, Vec<SetupTime>), String> {
    let mut times = Vec::new();
    let mut last: Option<Inputs> = None;
    for rep in 0..SETUP_REPEATS {
        let (time, inputs) = timed_setup(CpuScope::Process, || {
            setup(seed, repeats, &format!("recover{rep}"), gate)
        });
        let inputs = inputs?;
        times.push(time);
        if let Some(prev) = last.take() {
            for slot in prev.slots {
                gate.attempt();
                gate.expect_equal(
                    &format!("recover set-up slot {}", slot.index),
                    &inputs.digests[slot.index],
                    &prev.digests[slot.index],
                );
            }
        }
        last = Some(inputs);
    }
    // PANIC-OK: SETUP_REPEATS is a positive constant
    Ok((last.expect("at least one set-up"), times))
}

/// The timed phase of an untraced run.
#[derive(Debug, Default)]
pub struct Timed {
    /// Latency of every op, in order.
    pub ms: Vec<f64>,
    /// Queries recovered, summed over ops.
    pub queries: usize,
    /// Questions the recovered queries posed live, summed over ops (a
    /// property of the corpus, which set-up built: a restart asks
    /// nothing).
    pub questions: usize,
    /// Ops the restarts replayed, summed over ops.
    pub replayed: usize,
    /// One mark per completed rotation (plus the start).
    pub marks: Vec<Mark>,
}

/// Runs whole rotations of restarts until the budget is spent.
pub fn run(inputs: &Inputs, budget: Budget, gate: &mut Gate) -> Timed {
    let clock = Clock::start();
    let mut out = Timed {
        marks: vec![clock.mark(0)],
        ..Default::default()
    };
    let mut rotations = 0;
    while budget.more(rotations, clock.elapsed()) {
        for slot in &inputs.slots {
            gate.attempt();
            match inputs.op(slot) {
                Ok((ms, rec)) => {
                    inputs.check(gate, slot, &rec);
                    out.ms.push(ms);
                    out.queries += rec.len();
                    out.questions += rec.len() * inputs.questions[slot.index];
                    out.replayed += rec.iter().map(|q| q.ops).sum::<usize>();
                }
                Err(e) => gate.fail(e),
            }
        }
        rotations += 1;
        out.marks.push(clock.mark(out.ms.len() as u64));
    }
    out
}

/// Metrics of an untraced run: the gated end-to-end ones, the
/// reported-only wall-clock ones, and the ops replayed per restart, the
/// exact count of recovery work. (`questions_per_query` is the corpus's
/// live question count, constant for a seed whatever a restart does.)
pub fn end_to_end(setup: &[SetupTime], timed: &Timed) -> Vec<Metric> {
    let mut metrics = run_metrics(
        setup,
        &timed.ms,
        &timed.marks,
        1,
        timed.questions as f64 / timed.queries.max(1) as f64,
    );
    metrics.push(Metric::new(
        "ops_replayed_per_restart",
        "count",
        timed.replayed as f64 / timed.ms.len().max(1) as f64,
    ));
    metrics
}

/// Report lines: corpus shape, filesystem and the slot digests.
pub fn describe(inputs: &Inputs) -> Vec<String> {
    let mut lines = vec![format!(
        "recover: one caller restarting {}-query travel sessions ({SERVE_MEMBERS} members) \
         from a read-only WAL corpus on {}",
        inputs.queries,
        crate::procfs::fs_type(inputs.corpus.path())
    )];
    for slot in &inputs.slots {
        lines.push(format!(
            "  slot {} crowd seed {} mining seed {}: digest {} questions {} WAL bytes {}",
            slot.index,
            slot.crowd,
            slot.mining,
            inputs.digests[slot.index],
            inputs.questions[slot.index],
            crate::procfs::dir_bytes(&inputs.corpus.path().join(session(slot).name))
        ));
    }
    lines
}

/// Per-layer times and counts of one decomposed restart.
#[derive(Debug, Clone, Default)]
struct Layers {
    page_in: f64,
    read: f64,
    parse_bind: f64,
    where_eval: f64,
    dag_build: f64,
    rebuild: f64,
    replay: f64,
    total: f64,
    ops: f64,
    nodes_materialized: f64,
    nodes_created: f64,
    nodes_expanded: f64,
}

impl Inputs {
    /// The restart `SessionManager::open` + `recover` performs, rebuilt
    /// from public functions: the WAL is opened and decoded for the
    /// page-in, decoded again by `recover`, and every query is replayed
    /// through parse/bind, WHERE, `Dag::new`, `intern_wire_op` and
    /// `OpLog::replay_merged`, then verified against its footer.
    fn decomposed(&self, slot: &Slot) -> Result<Layers, String> {
        let ont = &self.travel.ontology;
        let vocab = ont.vocab();
        let dir = self.corpus.path().join(session(slot).name);
        let mut l = Layers::default();
        let (total, result) = timed(|| -> Result<(), String> {
            let (page_in, rec) = timed(|| -> Result<_, String> {
                let wal = SessionWal::open(&dir, SNAPSHOT_EVERY).map_err(|e| e.to_string())?;
                let rec = wal.recover(vocab).map_err(|e| e.to_string())?;
                let _cache = oassis_core::SharedCrowdCache::new(rec.cache);
                Ok(wal)
            });
            let wal = rec?;
            let (read, rec) = timed(|| wal.recover(vocab));
            let rec = rec.map_err(|e| e.to_string())?;
            l.page_in = page_in;
            l.read = read;
            let pool = minipool::Pool::sequential();
            let want = &self.digests[slot.index];
            for q in &rec.queries {
                let (pb, bound) = timed(|| -> Result<_, String> {
                    let parsed = parse(&q.spec.src).map_err(|e| e.to_string())?;
                    bind(&parsed, ont).map_err(|e| e.to_string())
                });
                let bound = bound?;
                let (where_eval, base) =
                    timed(|| evaluate_where_pool(&bound, ont, MatchMode::Exact, &pool));
                let (dag_build, mut dag) = timed(|| Dag::new(&bound, vocab, &base));
                let wire = rec.ops.get(&q.qid).cloned().unwrap_or_default();
                let (rebuild, ops) = timed(|| {
                    wire.iter()
                        .map(|w| intern_wire_op(&mut dag, w))
                        .collect::<Vec<_>>()
                });
                let done = q.done.as_ref().ok_or("query without a done footer")?;
                l.ops += ops.len() as f64;
                let mut log = OpLog::new(done.threshold, true).with_ops(ops);
                log.set_complete(done.complete);
                let agg = FixedSampleAggregator { sample_size: 1 };
                let (replay, out) =
                    timed(|| log.replay_merged(&dag, &agg, &pool, &Telemetry::off()));
                let digest = digest_hex(SemanticOutcome::from_replay(&out, &bound, vocab).digest());
                if digest != done.digest || digest != *want {
                    return Err(format!(
                        "decomposed restart of slot {} qid {}: digest {digest}, footer {}, live {want}",
                        slot.index, q.qid, done.digest
                    ));
                }
                let gen = dag.stats();
                l.parse_bind += pb;
                l.where_eval += where_eval;
                l.dag_build += dag_build;
                l.rebuild += rebuild;
                l.replay += replay;
                l.nodes_materialized += dag.len() as f64;
                l.nodes_created += gen.nodes_created as f64;
                l.nodes_expanded += gen.nodes_expanded as f64;
            }
            Ok(())
        });
        result?;
        l.total = total;
        Ok(l)
    }
}

/// The traced run: rotations of paired restarts — untraced (manager
/// `open` + `recover`), then decomposed — until the budget is spent.
pub fn traced(
    inputs: &Inputs,
    budget: Budget,
    gate: &mut Gate,
    lines: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let clock = Clock::start();
    let (mut untraced, mut layers) = (Vec::new(), Vec::new());
    let mut rotations = 0;
    while budget.more(rotations, clock.elapsed()) {
        for slot in &inputs.slots {
            // alternate which side of a pair runs first
            for traced_side in [rotations % 2 == 1, rotations % 2 == 0] {
                gate.attempt();
                if traced_side {
                    match inputs.decomposed(slot) {
                        Ok(l) => layers.push(l),
                        Err(e) => gate.fail(e),
                    }
                } else {
                    match inputs.op(slot) {
                        Ok((ms, rec)) => {
                            inputs.check(gate, slot, &rec);
                            untraced.push(ms);
                        }
                        Err(e) => gate.fail(e),
                    }
                }
            }
        }
        rotations += 1;
    }
    let med =
        |f: fn(&Layers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let mean =
        |f: fn(&Layers) -> f64| layers.iter().map(f).sum::<f64>() / layers.len().max(1) as f64;
    let untraced_p50 = median(&untraced).unwrap_or(0.0);
    let traced_p50 = med(|l| l.total);
    let wal_read = med(|l| l.page_in + l.read);
    let attributed = wal_read
        + med(|l| l.parse_bind)
        + med(|l| l.where_eval)
        + med(|l| l.dag_build)
        + med(|l| l.rebuild)
        + med(|l| l.replay);
    lines.push(format!(
        "recover traced: {} paired restarts; untraced p50 {untraced_p50:.3} ms, traced p50 \
         {traced_p50:.3} ms",
        layers.len()
    ));
    lines.push(format!(
        "  restart {untraced_p50:.1} ms = WAL read {wal_read:.1} (decoded twice: page-in incl. \
         open {:.1}, recover {:.1}) + parse/bind {:.1} + WHERE {:.1} + DAG build {:.1} + op \
         interning {:.1} + replay {:.1} + unattributed {:.1}",
        med(|l| l.page_in),
        med(|l| l.read),
        med(|l| l.parse_bind),
        med(|l| l.where_eval),
        med(|l| l.dag_build),
        med(|l| l.rebuild),
        med(|l| l.replay),
        untraced_p50 - attributed
    ));
    vec![
        ("ql.parse_bind_ms", med(|l| l.parse_bind)),
        ("ql.where_ms", med(|l| l.where_eval)),
        ("dag.build_ms", med(|l| l.dag_build)),
        ("dag.nodes_materialized", mean(|l| l.nodes_materialized)),
        ("dag.nodes_created", mean(|l| l.nodes_created)),
        ("dag.nodes_expanded", mean(|l| l.nodes_expanded)),
        ("wal.read_ms", wal_read),
        ("oplog.replay_ms", med(|l| l.replay)),
        ("oplog.ops_replayed", mean(|l| l.ops)),
        ("recover.rebuild_ms", med(|l| l.rebuild)),
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
