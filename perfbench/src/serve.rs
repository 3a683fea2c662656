//! `serve`: session lifecycles over loopback TCP against an in-process
//! [`Server`].
//!
//! Two client connections (closed loop, one outstanding request each)
//! repeat one cycle: `open` a fresh session, run one cold query (crowd
//! answers and ops go to the WAL), run [`SERVE_REPEATS`](crate::common::SERVE_REPEATS) repeats of it
//! (answer-cache hits that still append ops and trigger compaction),
//! `close` it, measure its WAL directory and remove it. The WAL root
//! lies in the working directory, on whatever filesystem holds the
//! checkout; the report names it.

use crate::common::{
    rotation, timed, timed_setup, warm_up_slot, AskTotals, Budget, Clock, CpuScope, SetupTime,
    Slot, TimedProvider, Travel, WorkDir, ROTATION, SERVE_MEMBERS,
};
use crate::procfs::{dir_bytes, fs_type, write_syscalls};
use crate::report::{run_metrics, Gate, Metric};
use crate::stats::{median, percentile, Mark};
use oassis_core::{
    CrowdBinding, FixedSampleAggregator, MiningConfig, Oassis, QueryRequest, SemanticOutcome,
    SharedCachingCrowd, SharedCrowdCache,
};
use oassis_server::{
    digest_hex, Client, CrowdProvider, QuerySpec, Request, Response, Server, ServerConfig,
    ServerError, SessionManager, SessionSpec, SessionWal,
};
use ontology::json;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The server's WAL flush policy, stated in every report: each record is
/// written and flushed to the OS with no `fsync` (durable across process
/// death, not power loss).
pub const FLUSH_POLICY: &str = "write+flush per record, no fsync";

/// Session cycles per window of the throughput and CPU medians: half a
/// rotation (a quarter of each connection's), so each window holds
/// about the same work.
const WINDOW_CYCLES: usize = ROTATION / 2;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Request types of a session cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `open` of a fresh session.
    Open,
    /// The session's first query (crowd answers reach the WAL).
    Cold,
    /// A repeat of the cold query (answer-cache hits).
    Repeat,
    /// `close`.
    Close,
}

/// One request as a client saw it.
#[derive(Debug, Clone, Default)]
pub struct Call {
    /// Latency in milliseconds (TCP: round trip; in-process: the
    /// session-manager call).
    pub ms: f64,
    /// Frame codec time (in-process transport only): encode and decode
    /// of the request and its response, microseconds.
    pub encode_us: f64,
    /// See `encode_us`.
    pub decode_us: f64,
    /// Request plus response frame bytes (in-process transport only).
    pub frame_bytes: f64,
    /// Write syscalls the call issued (in-process transport only).
    pub write_calls: f64,
    /// Crowd asks and their milliseconds during the call (traced
    /// in-process transport only).
    pub crowd_asks: f64,
    /// See `crowd_asks`.
    pub crowd_ms: f64,
    /// Milliseconds building crowds during the call (traced in-process
    /// transport only).
    pub build_ms: f64,
}

/// What one session cycle did.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// Rotation slot.
    pub slot: usize,
    /// Session name (also its WAL directory).
    pub name: String,
    /// Every request in order.
    pub calls: Vec<(Kind, Call)>,
    /// Questions posed, summed over the session's queries.
    pub questions: usize,
    /// Questions that reached the crowd, summed over the queries.
    pub fresh: usize,
    /// Queries run.
    pub queries: usize,
    /// WAL directory bytes at close.
    pub wal_bytes: u64,
}

/// The exact outcome every cycle of a slot must reproduce.
#[derive(Debug, Clone, PartialEq)]
struct SlotRef {
    digest: String,
    questions: usize,
    fresh: usize,
    wal_bytes: u64,
}

/// A way to send frames: real TCP, or straight into a session manager.
pub trait Transport {
    /// Sends one request and returns the reply with its costs.
    fn call(&mut self, req: &Request) -> Result<(Response, Call), String>;
}

impl Transport for Client {
    fn call(&mut self, req: &Request) -> Result<(Response, Call), String> {
        let (ms, resp) = timed(|| Client::call(self, req));
        let resp = resp.map_err(|e| format!("transport: {e}"))?;
        Ok((
            resp,
            Call {
                ms,
                ..Default::default()
            },
        ))
    }
}

/// The server's request path without the socket: the frame is encoded,
/// decoded, dispatched to the [`SessionManager`] exactly as the serve
/// loop dispatches it, and the reply frame is encoded and decoded.
pub struct InProcess {
    /// The manager requests go to.
    pub mgr: SessionManager,
    /// Ask and build totals of the manager's [`TimedProvider`], when
    /// traced.
    pub totals: Option<(Arc<AskTotals>, Arc<AskTotals>)>,
}

fn error_frame(e: &ServerError) -> Response {
    let code = match e {
        ServerError::Engine(_) => "engine",
        ServerError::Wal(_) => "wal",
        ServerError::Protocol(_) => "protocol",
        ServerError::UnknownSession(_) => "unknown_session",
    };
    Response::Error {
        code: code.into(),
        msg: e.to_string(),
    }
}

impl InProcess {
    /// `(asks, ask ms, build ms)` of the traced provider so far.
    fn crowd_totals(&self) -> (u64, f64, f64) {
        match &self.totals {
            Some((asks, builds)) => {
                let (n, ms) = asks.read();
                (n, ms, builds.read().1)
            }
            None => (0, 0.0, 0.0),
        }
    }

    fn dispatch(&mut self, req: Request) -> Response {
        let result = match req {
            Request::Open(spec) => self
                .mgr
                .open(&spec)
                .map(|reply| Response::opened(&spec.name, &reply)),
            Request::Query { session, spec } => self
                .mgr
                .query(&session, &spec)
                .map(|reply| Response::Result { session, reply }),
            Request::Close { session } => self
                .mgr
                .close(&session)
                .map(|()| Response::Closed { session }),
            other => Err(ServerError::Protocol(format!(
                "not a session request: {other:?}"
            ))),
        };
        result.unwrap_or_else(|e| error_frame(&e))
    }
}

impl Transport for InProcess {
    fn call(&mut self, req: &Request) -> Result<(Response, Call), String> {
        let (enc_req, line) = timed(|| req.to_json().to_string());
        let (dec_req, decoded) = timed(|| json::parse(&line).and_then(|j| Request::from_json(&j)));
        let decoded = decoded.map_err(|e| format!("request frame: {e}"))?;
        let crowd_before = self.crowd_totals();
        let syscw = write_syscalls();
        let (ms, resp) = timed(|| self.dispatch(decoded));
        let write_calls = match (syscw, write_syscalls()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64,
            _ => 0.0,
        };
        let crowd_after = self.crowd_totals();
        let (enc_resp, resp_line) = timed(|| resp.to_json().to_string());
        let (dec_resp, reply) =
            timed(|| json::parse(&resp_line).and_then(|j| Response::from_json(&j)));
        let reply = reply.map_err(|e| format!("response frame: {e}"))?;
        Ok((
            reply,
            Call {
                ms,
                encode_us: (enc_req + enc_resp) * 1e3,
                decode_us: (dec_req + dec_resp) * 1e3,
                frame_bytes: (line.len() + resp_line.len() + 2) as f64,
                write_calls,
                crowd_asks: (crowd_after.0 - crowd_before.0) as f64,
                crowd_ms: crowd_after.1 - crowd_before.1,
                build_ms: crowd_after.2 - crowd_before.2,
            },
        ))
    }
}

/// The inputs of a `serve` run: the domain, the rotation, the cycle
/// shape and the reference outcome of every slot (fixed by the first
/// cycle that runs it).
pub struct Inputs {
    travel: Travel,
    slots: [Slot; ROTATION],
    repeats: usize,
    refs: Mutex<[Option<SlotRef>; ROTATION]>,
}

impl Inputs {
    /// Inputs for workload seed `seed` with `repeats` repeat queries per
    /// session.
    pub fn new(seed: u64, repeats: usize) -> Inputs {
        Inputs {
            travel: Travel::new(),
            slots: rotation(seed),
            repeats,
            refs: Mutex::new(Default::default()),
        }
    }

    /// The workload's plan for `conns` connections: connection `c` owns
    /// the slots `i` with `i % conns == c`.
    pub fn plan(&self, conns: usize) -> Vec<Vec<Slot>> {
        (0..conns)
            .map(|c| {
                self.slots
                    .iter()
                    .filter(|s| s.index % conns == c)
                    .copied()
                    .collect()
            })
            .collect()
    }

    /// A fresh session manager over `root` with `provider`.
    fn manager(&self, provider: Box<dyn CrowdProvider>, root: &Path) -> SessionManager {
        SessionManager::new(self.travel.ontology.clone(), provider, root)
    }

    fn query_spec(&self, slot: &Slot) -> QuerySpec {
        QuerySpec {
            src: self.travel.domain.query.clone(),
            threshold: None,
            batch_width: 1,
            max_questions: None,
            seed: slot.mining,
        }
    }

    fn session_spec(&self, name: &str, slot: &Slot) -> SessionSpec {
        SessionSpec {
            name: name.to_string(),
            seed: slot.crowd,
            members: SERVE_MEMBERS,
        }
    }

    /// Checks a finished cycle against its slot's reference (recording
    /// the reference on first sight; the warm-up slot has none).
    fn check(&self, gate: &mut Gate, cycle: &Cycle, digest: &str) {
        if cycle.slot >= ROTATION {
            return;
        }
        let got = SlotRef {
            digest: digest.to_string(),
            questions: cycle.questions,
            fresh: cycle.fresh,
            wal_bytes: cycle.wal_bytes,
        };
        // PANIC-OK: a poisoned lock means another client thread panicked
        let mut refs = self.refs.lock().expect("reference lock");
        match &refs[cycle.slot] {
            None => refs[cycle.slot] = Some(got),
            Some(want) if *want == got => {}
            Some(want) => gate.fail(format!(
                "serve {} (slot {}): {got:?} != first cycle of the slot {want:?}",
                cycle.name, cycle.slot
            )),
        }
    }

    /// The reference digest of every slot seen so far.
    pub fn references(&self) -> Vec<Option<String>> {
        // PANIC-OK: a poisoned lock means a client thread panicked
        let refs = self.refs.lock().expect("reference lock");
        refs.iter()
            .map(|r| r.as_ref().map(|r| r.digest.clone()))
            .collect()
    }

    /// One session lifecycle on `t`: open, cold query, repeats, close;
    /// then the WAL directory is measured and (unless `keep`) removed.
    /// Every request is an attempted op; errors and digest mismatches
    /// fail it.
    pub fn cycle(
        &self,
        t: &mut impl Transport,
        wal_root: &Path,
        name: &str,
        slot: &Slot,
        keep: bool,
        gate: &mut Gate,
    ) -> Option<Cycle> {
        let mut cycle = Cycle {
            slot: slot.index,
            name: name.to_string(),
            calls: Vec::new(),
            questions: 0,
            fresh: 0,
            queries: 0,
            wal_bytes: 0,
        };
        let mut send = |kind: Kind, req: Request, gate: &mut Gate| {
            gate.attempt();
            match t.call(&req) {
                Ok((resp, call)) => {
                    cycle.calls.push((kind, call));
                    Some(resp)
                }
                Err(e) => {
                    gate.fail(format!("{name} {kind:?}: {e}"));
                    None
                }
            }
        };
        let open = send(
            Kind::Open,
            Request::Open(self.session_spec(name, slot)),
            gate,
        );
        if !matches!(open, Some(Response::Opened { resumed: false, .. })) {
            gate.fail(format!("{name}: open answered {open:?}"));
            return None;
        }
        let query = Request::Query {
            session: name.to_string(),
            spec: self.query_spec(slot),
        };
        let mut cold_digest = None;
        let mut failed = false;
        for i in 0..=self.repeats {
            let kind = if i == 0 { Kind::Cold } else { Kind::Repeat };
            match send(kind, query.clone(), gate) {
                Some(Response::Result { reply, .. }) => {
                    cycle.questions += reply.questions;
                    cycle.fresh += reply.fresh;
                    cycle.queries += 1;
                    match &cold_digest {
                        None => cold_digest = Some(reply.digest),
                        Some(cold) => {
                            if !gate.expect_equal(
                                &format!("{name} repeat {i}"),
                                &reply.digest,
                                cold,
                            ) {
                                failed = true;
                            } else if reply.fresh != 0 {
                                gate.fail(format!(
                                    "{name} repeat {i}: {} fresh questions",
                                    reply.fresh
                                ));
                                failed = true;
                            }
                        }
                    }
                }
                other => {
                    gate.fail(format!("{name} {kind:?}: answered {other:?}"));
                    failed = true;
                }
            }
        }
        let close = send(
            Kind::Close,
            Request::Close {
                session: name.to_string(),
            },
            gate,
        );
        if !matches!(close, Some(Response::Closed { .. })) {
            gate.fail(format!("{name}: close answered {close:?}"));
            failed = true;
        }
        let dir = wal_root.join(name);
        cycle.wal_bytes = dir_bytes(&dir);
        if !keep {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let digest = cold_digest?;
        if !failed {
            self.check(gate, &cycle, &digest);
        }
        Some(cycle)
    }
}

/// A session name of fixed length (the name is part of the WAL, so
/// equal-length names keep WAL bytes comparable across cycles): the
/// pass `tag`, connection, rotation and cycle within the rotation.
fn session_name(tag: char, conn: usize, rotation: usize, cycle: usize) -> String {
    format!("{tag}{conn}-{rotation:06}-{cycle:02}")
}

/// A running server, its WAL root and its client connections.
pub struct Served {
    server: Option<Server>,
    /// One client per connection.
    pub clients: Vec<Client>,
    /// The WAL root (removed on drop).
    pub root: WorkDir,
}

impl Drop for Served {
    /// Says `bye` on every connection, then shuts the server down and
    /// joins its acceptor (the WAL root is removed after).
    fn drop(&mut self) {
        for c in self.clients.drain(..) {
            let _ = c.bye();
        }
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

/// Set-up: generate the inputs, spawn the server over a fresh WAL root,
/// connect `conns` clients, and run one warm-up cycle per connection.
pub fn setup(
    seed: u64,
    repeats: usize,
    conns: usize,
    tag: &str,
    gate: &mut Gate,
) -> Result<(Inputs, Served), String> {
    let inputs = Inputs::new(seed, repeats);
    let root = WorkDir::create(tag).map_err(|e| format!("work dir: {e}"))?;
    let mgr = inputs.manager(Box::new(inputs.travel.provider()), root.path());
    let server = Server::spawn(mgr, &ServerConfig::default()).map_err(|e| format!("spawn: {e}"))?;
    let mut clients = Vec::new();
    for _ in 0..conns {
        clients.push(Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?);
    }
    let mut served = Served {
        server: Some(server),
        clients,
        root,
    };
    let warm = vec![vec![warm_up_slot()]; conns];
    tcp_pass(&inputs, &mut served, Budget::rotations(1), 'w', &warm, gate);
    Ok((inputs, served))
}

/// Runs set-up [`SETUP_REPEATS`] times (each with its own server and
/// WAL root); keeps the last and returns the set-up times. The server
/// works on threads of its own, so the CPU time is the whole process's.
pub fn setup_repeated(
    seed: u64,
    repeats: usize,
    conns: usize,
    gate: &mut Gate,
) -> Result<(Inputs, Served, Vec<SetupTime>), String> {
    let mut times = Vec::new();
    let mut last: Option<(Inputs, Served)> = None;
    for rep in 0..SETUP_REPEATS {
        let (time, got) = timed_setup(CpuScope::Process, || {
            setup(seed, repeats, conns, &format!("serve{rep}"), gate)
        });
        let got = got?;
        times.push(time);
        // the previous repetition's server stops here
        last = Some(got);
    }
    // PANIC-OK: SETUP_REPEATS is a positive constant
    let (inputs, served) = last.expect("at least one set-up");
    Ok((inputs, served, times))
}

/// Cycles and progress marks of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Every completed cycle, per connection in order.
    pub cycles: Vec<Cycle>,
    /// One mark per completed cycle (any connection), plus the start.
    pub marks: Vec<Mark>,
}

/// Drives one client thread per entry of `plan` (at most the served
/// connection count). Connection `c` runs whole rotations of the slots
/// `plan[c]` until the budget is spent; then the connections that
/// completed fewer rotations catch up, so every slot runs equally often
/// and every exact count is independent of the run length.
pub fn tcp_pass(
    inputs: &Inputs,
    served: &mut Served,
    budget: Budget,
    tag: char,
    plan: &[Vec<Slot>],
    gate: &mut Gate,
) -> Pass {
    let clock = Clock::start();
    let progress = Mutex::new((vec![clock.mark(0)], 0u64));
    let finished = AtomicUsize::new(0);
    let conns = plan.len().min(served.clients.len());
    let barrier = std::sync::Barrier::new(conns);
    let root = served.root.path().to_path_buf();
    let results: Vec<(Vec<Cycle>, Gate)> = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .take(conns)
            .enumerate()
            .map(|(c, client)| {
                let (progress, finished, barrier, root) = (&progress, &finished, &barrier, &root);
                let mine = &plan[c];
                scope.spawn(move || {
                    let mut gate = Gate::default();
                    let mut cycles = Vec::new();
                    let mut rotation = |r: usize, cycles: &mut Vec<Cycle>, gate: &mut Gate| {
                        for (k, slot) in mine.iter().enumerate() {
                            let name = session_name(tag, c, r, k);
                            if let Some(cycle) =
                                inputs.cycle(client, root, &name, slot, false, gate)
                            {
                                // PANIC-OK: a poisoned lock means the other client panicked
                                let mut p = progress.lock().expect("progress lock");
                                p.1 += cycle.calls.len() as u64;
                                let mark = clock.mark(p.1);
                                p.0.push(mark);
                                cycles.push(cycle);
                            }
                        }
                    };
                    let mut rotations = 0;
                    while budget.more(rotations, clock.elapsed()) {
                        rotation(rotations, &mut cycles, &mut gate);
                        rotations += 1;
                    }
                    // the barrier orders every store before every load
                    finished.fetch_max(rotations, Ordering::SeqCst);
                    barrier.wait();
                    let target = finished.load(Ordering::SeqCst);
                    while rotations < target {
                        rotation(rotations, &mut cycles, &mut gate);
                        rotations += 1;
                    }
                    (cycles, gate)
                })
            })
            .collect();
        handles
            .into_iter()
            // PANIC-OK: a client thread panic is a harness bug; surface it
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut pass = Pass::default();
    for (cycles, g) in results {
        pass.cycles.extend(cycles);
        gate.merge(g);
    }
    // PANIC-OK: a poisoned lock means a client thread panicked
    pass.marks = progress.into_inner().expect("progress lock").0;
    pass
}

impl Pass {
    /// Latencies of every request of `kind` (all kinds for `None`).
    pub fn latencies(&self, kind: Option<Kind>) -> Vec<f64> {
        self.cycles
            .iter()
            .flat_map(|c| &c.calls)
            .filter(|(k, _)| kind.is_none_or(|want| *k == want))
            .map(|(_, call)| call.ms)
            .collect()
    }

    /// Σ f(cycle) ÷ Σ queries.
    pub fn per_query(&self, f: fn(&Cycle) -> f64) -> f64 {
        let queries: usize = self.cycles.iter().map(|c| c.queries).sum();
        self.cycles.iter().map(f).sum::<f64>() / queries.max(1) as f64
    }

    fn p50_all(&self) -> f64 {
        median(&self.latencies(None)).unwrap_or(0.0)
    }

    fn p50(&self, kind: Kind) -> f64 {
        median(&self.latencies(Some(kind))).unwrap_or(0.0)
    }
}

/// Metrics of an untraced run: the gated end-to-end ones, the
/// reported-only wall-clock ones, and those only `serve` has.
pub fn end_to_end(setup: &[SetupTime], pass: &Pass) -> Vec<Metric> {
    let mut metrics = run_metrics(
        setup,
        &pass.latencies(None),
        &pass.marks,
        WINDOW_CYCLES,
        pass.per_query(|c| c.questions as f64),
    );
    metrics.extend([
        Metric::new("cold_p50_ms", "ms", pass.p50(Kind::Cold)),
        Metric::new("repeat_p50_ms", "ms", pass.p50(Kind::Repeat)),
        Metric::new(
            "fresh_questions_per_query",
            "count",
            pass.per_query(|c| c.fresh as f64),
        ),
        Metric::new(
            "wal_bytes_per_query",
            "bytes",
            pass.per_query(|c| c.wal_bytes as f64),
        ),
    ]);
    metrics
}

/// Report lines: configuration, filesystem, flush policy, digests.
pub fn describe(inputs: &Inputs, served: &Served, conns: usize) -> Vec<String> {
    let mut lines = vec![
        format!(
            "serve: {conns} TCP connections (closed loop) to an in-process server; cycle = open, \
             1 cold + {} repeat queries, close; travel domain, {SERVE_MEMBERS} members",
            inputs.repeats
        ),
        format!(
            "  WAL root on {} ({}); flush policy: {FLUSH_POLICY}",
            fs_type(served.root.path()),
            served.root.path().display()
        ),
    ];
    for (slot, digest) in inputs.slots.iter().zip(inputs.references()) {
        lines.push(format!(
            "  slot {} crowd seed {} mining seed {}: digest {}",
            slot.index,
            slot.crowd,
            slot.mining,
            digest.unwrap_or_else(|| "-".into())
        ));
    }
    lines
}

/// What the outside replays of one closed session measured.
#[derive(Debug, Clone, Copy, Default)]
struct Replayed {
    /// Durable records (session header, query and done records, ops,
    /// answers).
    records: f64,
    /// Milliseconds re-appending those records through [`SessionWal`].
    append_ms: f64,
    /// Milliseconds of one repeat through `Oassis::run` over the
    /// recovered answer cache.
    engine_ms: f64,
}

impl Inputs {
    /// The WAL write side and the engine-over-cache path of a closed
    /// session, timed from outside: its durable records are counted and
    /// re-appended through [`SessionWal`] into a scratch directory, and
    /// one repeat is re-run through `Oassis::run` over the recovered
    /// answer cache (the path a cached repeat takes, minus the WAL).
    fn replay_session(&self, dir: &Path, slot: &Slot, gate: &mut Gate) -> Result<Replayed, String> {
        let vocab = self.travel.ontology.vocab();
        let wal = SessionWal::open(dir, SNAPSHOT_EVERY).map_err(|e| e.to_string())?;
        let rec = wal.recover(vocab).map_err(|e| e.to_string())?;
        let ops: usize = rec.ops.values().map(Vec::len).sum();
        let records = (1 + 2 * rec.queries.len() + ops + rec.cache.len()) as f64;

        let scratch = dir.with_extension("append");
        let (append_ms, appended) = timed(|| -> std::io::Result<()> {
            let mut w = SessionWal::open(&scratch, SNAPSHOT_EVERY)?;
            w.record_session("append", 1, slot.crowd, SERVE_MEMBERS)?;
            for (i, q) in rec.queries.iter().enumerate() {
                w.record_query(q.qid, &q.spec)?;
                if i == 0 {
                    for m in rec.cache.members() {
                        for (p, a) in rec.cache.entries_of(m) {
                            w.append_answer(m, 0, p, a)?;
                        }
                    }
                }
                for op in rec.ops.get(&q.qid).into_iter().flatten() {
                    w.append_op(q.qid, op)?;
                }
                if let Some(done) = &q.done {
                    w.record_done(q.qid, done)?;
                }
            }
            Ok(())
        });
        let _ = std::fs::remove_dir_all(&scratch);
        appended.map_err(|e| format!("re-append: {e}"))?;

        let provider = self.travel.provider();
        let mut members = provider.provide(&self.session_spec("replay", slot));
        let cache = SharedCrowdCache::new(rec.cache.clone());
        let mut crowd = SharedCachingCrowd::new(&mut *members, &cache);
        let engine = Oassis::new(&self.travel.ontology);
        let src = &self.travel.domain.query;
        let req = QueryRequest::pattern(src).with_mining(MiningConfig {
            seed: slot.mining,
            ..Default::default()
        });
        let agg = FixedSampleAggregator { sample_size: 1 };
        let (engine_ms, out) = timed(|| engine.run(&req, CrowdBinding::single(&mut crowd), &agg));
        let answer = out
            .map_err(|e| e.to_string())?
            .into_patterns()
            .ok_or("no pattern answer")?;
        let bound = engine.prepare(src).map_err(|e| e.to_string())?;
        let sem = SemanticOutcome::from_mining(&answer.outcome.mining, &bound, vocab);
        if let Some(Some(want)) = self.references().get(slot.index) {
            gate.attempt();
            gate.expect_equal(
                "serve engine-over-cache replay",
                &digest_hex(sem.digest()),
                want,
            );
        }
        Ok(Replayed {
            records,
            append_ms,
            engine_ms,
        })
    }
}

/// Member-WAL records between compactions (the server's default).
const SNAPSHOT_EVERY: u32 = 64;

/// The traced run, in three passes that take turns two slots at a time
/// until the budget is spent (at least one whole rotation):
///
/// 1. the workload itself (two TCP connections, untraced);
/// 2. the same cycles over one TCP connection (the difference is the
///    wait on the `server.sessions` mutex);
/// 3. in-process cycles, alternating an untraced manager and a traced
///    one (timed crowd provider, frame codec timed on the real frames,
///    write syscalls counted, and the closed session's WAL and engine
///    path replayed from outside).
pub fn traced(
    inputs: &Inputs,
    served: &mut Served,
    seconds: f64,
    gate: &mut Gate,
    lines: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let budget = Budget::seconds(seconds);
    let (mut two, mut one) = (Pass::default(), Pass::default());

    let plain_root = WorkDir::create("serve-plain").map_err(|e| e.to_string())?;
    let traced_root = WorkDir::create("serve-traced").map_err(|e| e.to_string())?;
    let mut plain = InProcess {
        mgr: inputs.manager(Box::new(inputs.travel.provider()), plain_root.path()),
        totals: None,
    };
    let timed_provider = TimedProvider::new(inputs.travel.provider());
    let totals = (timed_provider.totals.clone(), timed_provider.builds.clone());
    let mut traced = InProcess {
        mgr: inputs.manager(Box::new(timed_provider), traced_root.path()),
        totals: Some(totals),
    };
    let (mut untraced_repeat, mut cycles, mut replays) = (Vec::new(), Vec::new(), Vec::new());
    let clock = Clock::start();
    let mut rotations = 0;
    // the passes take turns two slots at a time, so host drift during
    // the run shifts all of them alike and their differences hold
    while budget.more(rotations, clock.elapsed()) {
        for pair in inputs.slots.chunks(2) {
            let split: Vec<Vec<Slot>> = pair.iter().map(|s| vec![*s]).collect();
            let once = Budget::rotations(1);
            two.cycles
                .extend(tcp_pass(inputs, served, once, 'a', &split, gate).cycles);
            for (i, slot) in pair.iter().enumerate() {
                // alternate the order of the one-connection, untraced and
                // traced in-process cycles
                for step in 0..3 {
                    let name = |tag| session_name(tag, 0, rotations, slot.index);
                    match (step + i + rotations) % 3 {
                        0 => {
                            let whole = vec![vec![*slot]];
                            one.cycles
                                .extend(tcp_pass(inputs, served, once, 'b', &whole, gate).cycles);
                        }
                        1 => {
                            let root = plain_root.path();
                            if let Some(c) =
                                inputs.cycle(&mut plain, root, &name('p'), slot, false, gate)
                            {
                                untraced_repeat.extend(
                                    c.calls
                                        .iter()
                                        .filter(|(k, _)| *k == Kind::Repeat)
                                        .map(|(_, call)| call.ms),
                                );
                            }
                        }
                        _ => {
                            let root = traced_root.path();
                            let name = name('t');
                            if let Some(c) =
                                inputs.cycle(&mut traced, root, &name, slot, true, gate)
                            {
                                let dir = root.join(&name);
                                gate.attempt();
                                match inputs.replay_session(&dir, slot, gate) {
                                    Ok(r) => replays.push(r),
                                    Err(e) => gate.fail(format!("{name} replay: {e}")),
                                }
                                let _ = std::fs::remove_dir_all(&dir);
                                cycles.push(c);
                            }
                        }
                    }
                }
            }
        }
        rotations += 1;
    }

    let calls: Vec<&(Kind, Call)> = cycles.iter().flat_map(|c| &c.calls).collect();
    let of = |kind: Kind, f: fn(&Call) -> f64| -> Vec<f64> {
        calls
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, c)| f(c))
            .collect()
    };
    let queries = calls
        .iter()
        .filter(|(k, _)| matches!(k, Kind::Cold | Kind::Repeat))
        .count()
        .max(1) as f64;
    let query_sum = |f: fn(&Call) -> f64| -> f64 {
        calls
            .iter()
            .filter(|(k, _)| matches!(k, Kind::Cold | Kind::Repeat))
            .map(|(_, c)| f(c))
            .sum::<f64>()
            / queries
    };
    let per_request = |f: fn(&Call) -> f64| -> f64 {
        calls.iter().map(|(_, c)| f(c)).sum::<f64>() / calls.len().max(1) as f64
    };
    let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    let session_repeat = med(of(Kind::Repeat, |c| c.ms));
    let traced_repeat = med(of(Kind::Repeat, |c| {
        c.ms + (c.encode_us + c.decode_us) / 1e3
    }));
    let plain_repeat = med(untraced_repeat);
    let repeat_build = med(of(Kind::Repeat, |c| c.build_ms));
    let repeat_crowd = med(of(Kind::Repeat, |c| c.crowd_ms));
    // in-process session time of each repeat, by its age in the session
    let repeats: Vec<Vec<f64>> = cycles
        .iter()
        .map(|c| {
            c.calls
                .iter()
                .filter(|(k, _)| *k == Kind::Repeat)
                .map(|(_, call)| call.ms)
                .collect()
        })
        .collect();
    let age_growth = med(repeats
        .iter()
        .filter_map(|r| Some(r.last()? / r.first()?))
        .collect());
    let by_age: Vec<String> = (0..inputs.repeats)
        .map(|i| {
            let at: Vec<f64> = repeats.iter().filter_map(|r| r.get(i).copied()).collect();
            format!("{:.1}", med(at))
        })
        .collect();
    let replay_per_query = |f: fn(&Replayed) -> f64| -> f64 {
        med(replays
            .iter()
            .map(|r| f(r) / (inputs.repeats + 1) as f64)
            .collect())
    };
    let engine_self = med(replays.iter().map(|r| r.engine_ms).collect());
    let append = replay_per_query(|r| r.append_ms);
    let questions = two.per_query(|c| c.questions as f64);
    let fresh = two.per_query(|c| c.fresh as f64);
    lines.push(format!(
        "serve traced: {} two-connection and {} one-connection cycles over TCP, {} traced \
         in-process cycles; in-process cached repeat p50 {plain_repeat:.3} ms untraced, \
         {traced_repeat:.3} ms traced",
        two.cycles.len(),
        one.cycles.len(),
        cycles.len()
    ));
    lines.push(format!(
        "  in-process repeat ms by age in the session (median per repeat): {}",
        by_age.join(" ")
    ));
    lines.push(format!(
        "  repeat over TCP: two connections {:.3} ms, one connection {:.3} ms; cold: two {:.3} \
         ms, one {:.3} ms",
        two.p50(Kind::Repeat),
        one.p50(Kind::Repeat),
        two.p50(Kind::Cold),
        one.p50(Kind::Cold)
    ));
    let (two_repeat, one_repeat) = (two.p50(Kind::Repeat), one.p50(Kind::Repeat));
    lines.push(format!(
        "  cached repeat over two connections {two_repeat:.1} ms = lock wait {:.1} + TCP and \
         frames {:.1} + session {session_repeat:.1} (crowd build {repeat_build:.1}, crowd \
         {repeat_crowd:.2}, engine over cache {engine_self:.1}, WAL append {append:.1}, \
         unattributed {:.1})",
        two_repeat - one_repeat,
        one_repeat - plain_repeat,
        session_repeat - repeat_build - repeat_crowd - engine_self - append
    ));
    Ok(vec![
        ("engine.self_ms", engine_self),
        ("engine.questions", questions),
        ("crowd.ask_ms", query_sum(|c| c.crowd_ms)),
        ("crowd.asks", query_sum(|c| c.crowd_asks)),
        ("crowd.build_ms", query_sum(|c| c.build_ms)),
        (
            "cache.hit_ratio",
            if questions > 0.0 {
                1.0 - fresh / questions
            } else {
                0.0
            },
        ),
        ("cache.fresh_questions_per_query", fresh),
        ("wal.records_per_query", replay_per_query(|r| r.records)),
        ("wal.write_calls_per_query", query_sum(|c| c.write_calls)),
        ("wal.bytes_per_query", two.per_query(|c| c.wal_bytes as f64)),
        ("wal.append_ms", append),
        ("wal.age_growth", age_growth),
        ("session.query_ms", session_repeat),
        ("session.open_ms", med(of(Kind::Open, |c| c.ms))),
        ("proto.encode_us", per_request(|c| c.encode_us)),
        ("proto.decode_us", per_request(|c| c.decode_us)),
        ("proto.frame_bytes", per_request(|c| c.frame_bytes)),
        (
            "service.tcp_overhead_ms",
            one.p50(Kind::Repeat) - plain_repeat,
        ),
        (
            "service.lock_wait_ms",
            two.p50(Kind::Repeat) - one.p50(Kind::Repeat),
        ),
        ("service.cold_p50_ms", two.p50(Kind::Cold)),
        ("service.repeat_p50_ms", two.p50(Kind::Repeat)),
        ("trace.untraced_p50_ms", two.p50_all()),
        (
            "trace.untraced_p90_ms",
            percentile(&two.latencies(None), 90.0).unwrap_or(0.0),
        ),
        ("trace.latency_ms", traced_repeat),
        ("trace.overhead_ms", traced_repeat - plain_repeat),
        (
            "trace.remainder_ms",
            session_repeat - repeat_build - repeat_crowd - engine_self - append,
        ),
    ])
}
