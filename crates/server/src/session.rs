//! # Sessions: long-lived crowd-mining state over the engine
//!
//! A *session* is the server's unit of persistence: one named scope
//! owning a shared answer cache (the members' "virtual personal
//! databases" of the paper), a [`SessionWal`] directory holding one
//! append-only log, and a query registry. The [`SessionManager`] pages
//! sessions in and out of memory: everything a session knows is already
//! durable by the time any call returns, so paging out is just dropping
//! resident state and paging in is WAL recovery.
//!
//! Queries execute through the single engine entry point
//! [`Oassis::run`] with two durability hooks installed:
//!
//! * a [`WalTap`] on [`MiningConfig::op_tap`] streams every accepted
//!   answer op to the session's log at round boundaries;
//! * a [`CachingCrowd`] over a WAL-backed answer store persists every
//!   fresh cached answer at ask time (and serves repeats from the
//!   session cache without asking the crowd at all).
//!
//! Recovery replays each query's durable ops against a freshly built
//! DAG with [`OpLog::replay`] and compares the replayed
//! [`SemanticOutcome`] digest against the one the `done` meta record
//! stored — bit-identical or it's a finding. A restart decodes the WAL
//! once: the page-in's decode is kept on the resident session for the
//! first `recover`, and any `query` in between drops it. It also replays
//! each distinct run once: a query whose replay inputs (text, resolved
//! threshold, footer completeness and ops) equal those of a query
//! replayed earlier in the same `recover` takes that replay's outcome,
//! and is still verified against its own footer.
//!
//! Parse/bind and WHERE are pure functions of a query's text and the
//! ontology, so the manager keeps the last text it prepared
//! ([`PreparedQuery`]) and lends it to the next `query` or `recover` of
//! the same text; `recover` prepares each other text once per call.
//!
//! Each resident session also keeps a one-entry *result memo*: the spec
//! and reply of its last run that the answer cache alone reproduces. A
//! `query` with an equal spec is a *served repeat*: it writes its `query`
//! record and a `done` footer whose `of` names the memoized run's qid,
//! no op record, and returns that run's reply under the new qid without
//! mining (the `memo_hits` counter of the session's telemetry). Recovery
//! gives the repeat the named run's ops, so it recovers and verifies as
//! a re-run would, and `questions` still counts the questions the run
//! posed, cache hits included. The memo is not durable: a page-in starts
//! without one.

use crate::digest_hex;
use crate::wal::{
    DoneMeta, KillSwitch, QueryMeta, QuerySpec, Recovered, SessionWal, WalTap, SESSION_WAL,
};
use crowd::{CrowdSource, MemberId};
use oassis_core::cache::{AnswerStore, CachedAnswer};
use oassis_core::oplog::OpTapHandle;
use oassis_core::{
    intern_wire_op, CachingCrowd, FixedSampleAggregator, MiningConfig, Oassis, OpLog,
    PreparedQuery, QueryRequest, SemanticOutcome, SharedCrowdCache, WireOp,
};
use oassis_ql::{BoundQuery, MatchMode};
use ontology::json::MAX_EXACT_INT;
use ontology::Ontology;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use telemetry::lockorder::TrackedMutex;
use telemetry::Telemetry;

/// Errors of the serving layer.
#[derive(Debug)]
pub enum ServerError {
    /// The engine rejected or failed the query.
    Engine(String),
    /// The embedded store failed (io or a damaged record).
    Wal(String),
    /// The request is invalid at the session level (bad name, rule
    /// query over the wire, unknown qid, …).
    Protocol(String),
    /// No such session (not resident and no WAL directory).
    UnknownSession(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Engine(m) => write!(f, "engine error: {m}"),
            ServerError::Wal(m) => write!(f, "wal error: {m}"),
            ServerError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServerError::UnknownSession(n) => write!(f, "unknown session {n:?}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// The largest crowd a session may be opened with. A provider builds
/// every member on the session's first query, so the bound caps what one
/// `open` frame can make the server allocate. It leaves room above the
/// paper's 248-member crowd.
pub const MAX_MEMBERS: u32 = 1024;

/// Sessions resident at once: past it, the least recently used one is
/// paged out (dropped; its state is already durable).
const RESIDENT_LIMIT: usize = 8;

/// What a session was opened with (the `open` frame's payload); the
/// crowd provider builds the session's crowd from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Session name — also the WAL directory name, so restricted to
    /// `[A-Za-z0-9_-]`.
    pub name: String,
    /// Crowd seed (deterministic simulated members), at most
    /// [`MAX_EXACT_INT`]: the WAL header stores it as a JSON number.
    pub seed: u64,
    /// Crowd size, at most [`MAX_MEMBERS`].
    pub members: u32,
}

/// Builds the crowd a session asks. The server binary plugs in seeded
/// simulated members; tests plug in oracles.
///
/// The returned crowd may borrow from the provider (simulated crowds
/// borrow the vocabulary), so implementors typically own an
/// `Arc<Ontology>` and hand out crowds scoped to `&self`.
pub trait CrowdProvider: Send + Sync {
    /// A fresh crowd for (each query of) `spec`'s session. Determinism
    /// contract: for the same spec the returned crowd must answer
    /// identically — recovery and resumption lean on it.
    fn provide<'a>(&'a self, spec: &SessionSpec) -> Box<dyn CrowdSource + Send + 'a>;
}

/// The reply to one executed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Session-scoped query id (1-based).
    pub qid: u32,
    /// Rendered answer rows (the valid MSPs).
    pub answers: Vec<String>,
    /// Questions the engine posed (cache hits included).
    pub questions: usize,
    /// Questions that actually reached the crowd (cache misses).
    pub fresh: usize,
    /// Whether the run classified everything.
    pub complete: bool,
    /// The `SemanticOutcome` digest, 16 hex digits.
    pub digest: String,
    /// The resolved support threshold the run mined under.
    pub threshold: f64,
}

impl QueryReply {
    /// The `done` footer recording this reply's outcome.
    fn done_meta(&self) -> DoneMeta {
        DoneMeta {
            complete: self.complete,
            digest: self.digest.clone(),
            threshold: self.threshold,
            of: None,
        }
    }
}

/// A session's memo: a mined query's spec and its reply (which carries
/// the qid a served repeat's footer names).
struct Memo {
    spec: QuerySpec,
    reply: QueryReply,
}

/// One query's recovered state: the WAL replay and its verification
/// against the recorded digest.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredQuery {
    /// Session-scoped query id.
    pub qid: u32,
    /// The spec the query was registered with.
    pub spec: QuerySpec,
    /// Replayed answer rows (valid MSP displays).
    pub answers: Vec<String>,
    /// Completion flag carried from the `done` record (`false` for a
    /// query the crash cut down mid-run).
    pub complete: bool,
    /// The replayed digest.
    pub digest: String,
    /// The digest the `done` record stored, when the query finished
    /// before the crash.
    pub recorded_digest: Option<String>,
    /// `Some(replayed == recorded)` when there is a recorded digest —
    /// the recovery oracle.
    pub verified: Option<bool>,
    /// The number of ops in the query's recovered log (its durable
    /// prefix).
    pub ops: usize,
}

impl RecoveredQuery {
    /// `meta`'s recovery from a replay's answers, completeness and
    /// digest, checked against `meta`'s own `done` footer.
    fn verify(
        meta: &QueryMeta,
        answers: Vec<String>,
        complete: bool,
        digest: String,
        ops: usize,
    ) -> RecoveredQuery {
        let recorded = meta.done.as_ref().map(|d| d.digest.clone());
        let verified = recorded.as_ref().map(|want| *want == digest);
        RecoveredQuery {
            qid: meta.qid,
            spec: meta.spec.clone(),
            answers,
            complete,
            digest,
            recorded_digest: recorded,
            verified,
            ops,
        }
    }
}

/// Every input [`SessionManager::replay_one`] reads from a recovered
/// query. Replay is a deterministic function of them (DESIGN §14), so
/// two queries with equal inputs replay to the same answers,
/// completeness and digest. The ops compare by value, which here is
/// bit identity: the WAL writes −0.0 as `0` and cannot hold a NaN.
#[derive(PartialEq)]
struct ReplayInputs<'r> {
    src: &'r str,
    /// The resolved threshold, by bits.
    threshold: u64,
    complete: bool,
    ops: &'r [WireOp],
}

impl<'r> ReplayInputs<'r> {
    fn of(meta: &'r QueryMeta, ops: &'r [WireOp], bound: &BoundQuery) -> ReplayInputs<'r> {
        ReplayInputs {
            src: &meta.spec.src,
            threshold: replay_threshold(meta, bound).to_bits(),
            complete: meta.done.as_ref().is_some_and(|d| d.complete),
            ops,
        }
    }
}

/// The threshold `meta`'s run mined under: its footer's, or for a run
/// that never finished, resolved exactly as `run_multi` does.
fn replay_threshold(meta: &QueryMeta, bound: &BoundQuery) -> f64 {
    match &meta.done {
        Some(d) => d.threshold,
        None => meta.spec.threshold.unwrap_or(bound.threshold),
    }
}

/// The reply to opening (or re-opening) a session.
#[derive(Debug, Clone)]
pub struct OpenReply {
    /// Whether durable state existed and was paged in.
    pub resumed: bool,
    /// Registered queries (qids) found in the WAL, in qid order.
    pub known_queries: Vec<u32>,
    /// Cached answers paged in from the member databases.
    pub cached_answers: usize,
}

/// Resident state of one paged-in session.
struct Session {
    spec: SessionSpec,
    cache: Arc<SharedCrowdCache>,
    wal: Arc<TrackedMutex<SessionWal>>,
    next_qid: u32,
    /// The page-in's decode of the WAL (its `queries` and `ops`; the
    /// cache has moved into `cache`), kept for the next `recover`. Any
    /// `query` drops it, since it appends to the WAL.
    decoded: Option<Recovered>,
    /// The last query run the cache alone reproduces (see
    /// [`SessionManager::query`]).
    memo: Option<Memo>,
    /// Logical LRU stamp (manager-wide use counter).
    last_used: u64,
}

/// Owns the shared ontology, the crowd provider, and every resident
/// session. One manager per server process; the service layer guards it
/// with the `server.sessions` mutex, so queries serialize per process,
/// and each mines on the calling thread.
pub struct SessionManager {
    ont: Arc<Ontology>,
    provider: Box<dyn CrowdProvider>,
    root: PathBuf,
    kill: KillSwitch,
    tele: Telemetry,
    sessions: BTreeMap<String, Session>,
    /// The last query text prepared, under [`MatchMode::Exact`] (every
    /// server path's mode). One entry is the memo the measured traffic
    /// needs: each benchmark session repeats one text.
    last_prepared: Option<Arc<PreparedQuery>>,
    use_counter: u64,
}

impl SessionManager {
    /// A manager over `ont` and `provider`, persisting under `root`
    /// (one subdirectory per session).
    pub fn new(
        ont: Arc<Ontology>,
        provider: Box<dyn CrowdProvider>,
        root: impl Into<PathBuf>,
    ) -> SessionManager {
        SessionManager {
            ont,
            provider,
            root: root.into(),
            kill: KillSwitch::new(),
            tele: Telemetry::off(),
            sessions: BTreeMap::new(),
            last_prepared: None,
            use_counter: 0,
        }
    }

    /// Installs the process-death model (simtest's kill-at-tick fault):
    /// every session WAL opened from now on shares this switch.
    pub fn with_kill(mut self, kill: KillSwitch) -> SessionManager {
        self.kill = kill;
        self
    }

    /// Installs a telemetry handle; sessions record under
    /// `session.<name>.*` labeled views.
    pub fn with_telemetry(mut self, tele: Telemetry) -> SessionManager {
        self.tele = tele;
        self
    }

    /// The shared ontology.
    pub fn ontology(&self) -> &Arc<Ontology> {
        &self.ont
    }

    /// Names of the currently resident sessions (paging diagnostics).
    pub fn resident(&self) -> Vec<String> {
        self.sessions.keys().cloned().collect()
    }

    fn check_name(name: &str) -> Result<(), ServerError> {
        let ok = !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
        if ok {
            Ok(())
        } else {
            Err(ServerError::Protocol(format!(
                "session name {name:?} must be 1-64 chars of [A-Za-z0-9_-]"
            )))
        }
    }

    /// Rejects a seed the WAL could not store exactly.
    fn check_seed(seed: u64) -> Result<(), ServerError> {
        if seed <= MAX_EXACT_INT {
            Ok(())
        } else {
            Err(ServerError::Protocol(format!(
                "seed {seed} exceeds 2^53, the largest the WAL stores exactly"
            )))
        }
    }

    fn stamp(&mut self) -> u64 {
        self.use_counter += 1;
        self.use_counter
    }

    /// Opens a session: pages durable state in when its WAL directory
    /// exists, otherwise creates it fresh. Idempotent for resident
    /// sessions (a reconnecting client re-sends `open`).
    pub fn open(&mut self, spec: &SessionSpec) -> Result<OpenReply, ServerError> {
        Self::check_name(&spec.name)?;
        Self::check_seed(spec.seed)?;
        if spec.members > MAX_MEMBERS {
            return Err(ServerError::Protocol(format!(
                "{} members exceed the limit of {MAX_MEMBERS}",
                spec.members
            )));
        }
        if let Some(s) = self.sessions.get(&spec.name) {
            let reply = OpenReply {
                resumed: true,
                known_queries: (1..s.next_qid).collect(),
                cached_answers: s.cache.len(),
            };
            let stamp = self.stamp();
            // PANIC-OK: the get above proved the key is present.
            self.sessions.get_mut(&spec.name).unwrap().last_used = stamp;
            return Ok(reply);
        }
        let dir = self.root.join(&spec.name);
        let existed = dir.join(SESSION_WAL).exists();
        let mut wal = SessionWal::open(&dir, 0)
            .map_err(|e| ServerError::Wal(e.to_string()))?
            .with_kill(self.kill.clone());
        let mut spec = spec.clone();
        let (cache, next_qid, known, decoded) = if existed {
            let mut rec = wal
                .recover(self.ont.vocab())
                .map_err(|e| ServerError::Wal(e.to_string()))?;
            let next = rec.queries.iter().map(|q| q.qid).max().unwrap_or(0) + 1;
            let known: Vec<u32> = rec.queries.iter().map(|q| q.qid).collect();
            // the durable header is the source of truth for the crowd
            // spec: the provider must rebuild the exact same crowd the
            // recorded answers came from, whatever a later open claims
            if rec.session.is_some() {
                spec.seed = rec.seed;
                spec.members = rec.members;
            }
            (std::mem::take(&mut rec.cache), next, known, Some(rec))
        } else {
            wal.record_session(
                &spec.name,
                crate::proto::PROTO_VERSION,
                spec.seed,
                spec.members,
            )
            .map_err(|e| ServerError::Wal(e.to_string()))?;
            (Default::default(), 1, Vec::new(), None)
        };
        let cached_answers = cache.len();
        let stamp = self.stamp();
        self.sessions.insert(
            spec.name.clone(),
            Session {
                spec: spec.clone(),
                cache: Arc::new(SharedCrowdCache::new(cache)),
                wal: Arc::new(TrackedMutex::new("server.wal", wal)),
                next_qid,
                decoded,
                memo: None,
                last_used: stamp,
            },
        );
        self.evict_over_limit(&spec.name);
        self.tele
            .labeled(&format!("session.{}", spec.name))
            .mark("open", if existed { "resumed" } else { "fresh" });
        Ok(OpenReply {
            resumed: existed,
            known_queries: known,
            cached_answers,
        })
    }

    /// Pages out least-recently-used sessions past [`RESIDENT_LIMIT`],
    /// never the one named `keep`.
    fn evict_over_limit(&mut self, keep: &str) {
        while self.sessions.len() > RESIDENT_LIMIT {
            let victim = self
                .sessions
                .iter()
                .filter(|(name, _)| name.as_str() != keep)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(name, _)| name.clone());
            match victim {
                Some(name) => {
                    self.tele
                        .labeled(&format!("session.{name}"))
                        .mark("page_out", "lru");
                    self.sessions.remove(&name);
                }
                None => break,
            }
        }
    }

    /// Ensures `name` is resident (paging in from its WAL directory if
    /// needed) and bumps its LRU stamp.
    fn touch(&mut self, name: &str) -> Result<(), ServerError> {
        if !self.sessions.contains_key(name) {
            Self::check_name(name)?;
            if !self.root.join(name).join(SESSION_WAL).exists() {
                return Err(ServerError::UnknownSession(name.to_string()));
            }
            // a bare touch pages in with placeholder crowd fields; open
            // overrides them from the durable session header, which is
            // authoritative for seed and member count
            let rec_spec = SessionSpec {
                name: name.to_string(),
                seed: 0,
                members: 0,
            };
            let _ = self.open(&rec_spec)?;
            return Ok(());
        }
        let stamp = self.stamp();
        // PANIC-OK: the contains_key branch above returned already.
        self.sessions.get_mut(name).unwrap().last_used = stamp;
        Ok(())
    }

    /// Runs one pattern query in `name`'s session through
    /// [`Oassis::run`], streaming ops and fresh answers to the WAL as it
    /// goes, and records the outcome digest in the `done` footer.
    ///
    /// A query whose spec equals the session's memo is not mined again:
    /// the WAL gets its `query` record and a `done` footer whose `of`
    /// names the memoized run, and the reply is the memo's under the new
    /// qid with `fresh: 0`. A run is memoized only if the cache alone
    /// reproduces it: every answer that reached the crowd was stored, no
    /// append failed and the kill switch never tripped. Cache entries
    /// never change and the engine is deterministic in its text, config
    /// and answers, so a re-run would pose the same questions, get the
    /// same answers and log the same ops as the memoized run.
    pub fn query(&mut self, name: &str, spec: &QuerySpec) -> Result<QueryReply, ServerError> {
        Self::check_seed(spec.seed)?;
        self.touch(name)?;
        let tele = self.tele.labeled(&format!("session.{name}"));
        let span = tele.span_with("query", &spec.src);
        // any failure below leaves the memo empty
        // PANIC-OK: touch above paged the session in.
        let memo = self.sessions.get_mut(name).unwrap().memo.take();
        let (reply, memo) = match memo.filter(|m| m.spec == *spec) {
            Some(memo) => {
                let reply = self.replay_memo(name, &memo)?;
                tele.count("memo_hits", 1);
                (reply, Some(memo))
            }
            None => self.mine(name, spec)?,
        };
        // PANIC-OK: touch above paged the session in.
        self.sessions.get_mut(name).unwrap().memo = memo;
        drop(span);
        tele.count("queries", 1);
        Ok(reply)
    }

    /// Registers `spec` as the session's next query in the WAL and takes
    /// its qid.
    fn register(
        &mut self,
        name: &str,
        spec: &QuerySpec,
    ) -> Result<(u32, Arc<TrackedMutex<SessionWal>>), ServerError> {
        // PANIC-OK: every caller paged the session in.
        let s = self.sessions.get_mut(name).unwrap();
        s.wal
            .lock()
            .expect("wal mutex poisoned") // PANIC-OK: poisoning means a holder already panicked; propagate it
            .record_query(s.next_qid, spec)
            .map_err(|e| ServerError::Wal(e.to_string()))?;
        // the qid is taken only once the WAL registers it, and the WAL
        // has now grown past the page-in's decode
        let qid = s.next_qid;
        s.next_qid += 1;
        s.decoded = None;
        Ok((qid, s.wal.clone()))
    }

    /// Serves a memo hit: a `query` record and a footer naming the
    /// memoized run, then the memo's reply under the new qid.
    fn replay_memo(&mut self, name: &str, memo: &Memo) -> Result<QueryReply, ServerError> {
        let (qid, wal) = self.register(name, &memo.spec)?;
        let done = DoneMeta {
            of: Some(memo.reply.qid),
            ..memo.reply.done_meta()
        };
        wal.lock()
            .expect("wal mutex poisoned") // PANIC-OK: poisoning means a holder already panicked; propagate it
            .record_done(qid, &done)
            .map_err(|e| ServerError::Wal(e.to_string()))?;
        Ok(QueryReply {
            qid,
            fresh: 0,
            ..memo.reply.clone()
        })
    }

    /// Mines `spec` over the session's cache and crowd; returns the reply
    /// and, when the cache alone reproduces the run, its memo.
    fn mine(
        &mut self,
        name: &str,
        spec: &QuerySpec,
    ) -> Result<(QueryReply, Option<Memo>), ServerError> {
        let prepared = self.prepared(&spec.src)?;
        let bound = prepared.bound();
        // rule queries would dispatch fine in-process, but their mined
        // rules have no op-log form, so the WAL could not recover them —
        // reject rather than persist something replay can't rebuild
        if !bound.imp_meta.is_empty() {
            return Err(ServerError::Protocol(
                "rule queries (IMPLYING) are not served over sessions; use the library API".into(),
            ));
        }
        let mut cfg = MiningConfig {
            threshold: spec.threshold,
            batch_width: spec.batch_width as usize,
            max_questions: spec.max_questions.map(|m| m as usize),
            seed: spec.seed,
            ..Default::default()
        };
        // a query the engine would reject takes no qid
        cfg.check_budget()
            .map_err(|e| ServerError::Engine(e.to_string()))?;
        let (qid, wal) = self.register(name, spec)?;
        cfg.op_tap = Some(OpTapHandle::new(WalTap::new(wal.clone(), qid)));
        let (cache, sess_spec) = {
            // PANIC-OK: register above found the session resident.
            let s = &self.sessions[name];
            (s.cache.clone(), s.spec.clone())
        };
        let req = QueryRequest::pattern(&spec.src).with_mining(cfg);
        let agg = FixedSampleAggregator { sample_size: 1 };
        let mut inner = self.provider.provide(&sess_spec);
        let store = WalStore {
            cache,
            wal: wal.clone(),
        };
        let mut crowd = CachingCrowd::new(&mut *inner, store);
        let engine = Oassis::new(&self.ont).with_prepared(prepared.clone());
        let outcome = engine.run(&req, &mut crowd, &agg).map_err(|e| {
            // no `done` footer will end this query and drop its handle
            wal.lock().expect("wal mutex poisoned").close_files(); // PANIC-OK: poisoning means a holder already panicked; propagate it
            ServerError::Engine(e.to_string())
        })?;
        let fresh = crowd.fresh_questions();
        let replayable = fresh == crowd.stored_answers();
        // PANIC-OK: a single non-IMPLYING query always yields Patterns.
        let answer = outcome.into_patterns().unwrap();
        let sem = SemanticOutcome::from_mining(&answer.outcome.mining, bound, self.ont.vocab());
        let reply = QueryReply {
            qid,
            answers: answer.answers,
            questions: crowd.total_questions(),
            fresh,
            complete: answer.outcome.mining.complete,
            digest: digest_hex(sem.digest()),
            threshold: answer.outcome.mining.ops.threshold(),
        };
        wal.lock()
            .expect("wal mutex poisoned") // PANIC-OK: poisoning means a holder already panicked; propagate it
            .record_done(qid, &reply.done_meta())
            .map_err(|e| ServerError::Wal(e.to_string()))?;
        let memo = (replayable && !self.kill.killed()).then(|| Memo {
            spec: spec.clone(),
            reply: reply.clone(),
        });
        Ok((reply, memo))
    }

    /// Recovers every registered query of `name`'s session from its WAL:
    /// fresh DAG, interned wire ops, [`OpLog::replay`], and a
    /// digest comparison against the recorded `done` footer.
    ///
    /// The first call after a page-in replays the page-in's decode; any
    /// later call decodes the WAL from disk. Each distinct query text is
    /// parsed, bound and WHERE-evaluated at most once per call, and not
    /// at all when it is the text the manager prepared last.
    ///
    /// A query whose replay inputs (`ReplayInputs`) equal those of a
    /// query replayed earlier in the call takes that replay's answers,
    /// completeness and digest instead of replaying again (the session's
    /// `replays_shared` counter; `replays` counts the replays run). Its
    /// `verified` is still checked against its own `done` footer.
    pub fn recover(&mut self, name: &str) -> Result<Vec<RecoveredQuery>, ServerError> {
        self.touch(name)?;
        // PANIC-OK: touch above paged the session in.
        let s = self.sessions.get_mut(name).unwrap();
        let rec = match s.decoded.take() {
            Some(rec) => rec,
            None => {
                let wal = s.wal.lock().expect("wal mutex poisoned"); // PANIC-OK: poisoning means a holder already panicked; propagate it
                wal.recover(self.ont.vocab())
                    .map_err(|e| ServerError::Wal(e.to_string()))?
            }
        };
        let tele = self.tele.labeled(&format!("session.{name}"));
        let _span = tele.span("recover");
        let mut by_text: HashMap<&str, Arc<PreparedQuery>> = HashMap::new();
        // each replay run in this call: its inputs and its place in `out`
        let mut replayed: Vec<(ReplayInputs<'_>, usize)> = Vec::new();
        let mut out: Vec<RecoveredQuery> = Vec::new();
        for q in &rec.queries {
            let prepared = match by_text.entry(q.spec.src.as_str()) {
                Entry::Occupied(seen) => seen.get().clone(),
                Entry::Vacant(slot) => slot.insert(self.prepared(&q.spec.src)?).clone(),
            };
            let ops = rec.ops.get(&q.qid).map(Vec::as_slice).unwrap_or_default();
            let inputs = ReplayInputs::of(q, ops, prepared.bound());
            let recovered = match replayed.iter().find(|(seen, _)| *seen == inputs) {
                Some(&(_, twin)) => {
                    tele.count("replays_shared", 1);
                    // PANIC-OK: twin is a position `out` had when that replay was pushed, and `out` only grows.
                    let run = &out[twin];
                    let answers = run.answers.clone();
                    RecoveredQuery::verify(q, answers, run.complete, run.digest.clone(), run.ops)
                }
                None => {
                    tele.count("replays", 1);
                    let recovered = self.replay_one(q, ops, &prepared);
                    replayed.push((inputs, out.len()));
                    recovered
                }
            };
            out.push(recovered);
        }
        Ok(out)
    }

    /// The prepared entry for `src`: the last one when it is `src`'s,
    /// else a fresh one, which becomes the last.
    fn prepared(&mut self, src: &str) -> Result<Arc<PreparedQuery>, ServerError> {
        if let Some(last) = self.last_prepared.as_ref().filter(|e| e.src() == src) {
            return Ok(last.clone());
        }
        let entry = PreparedQuery::new(&self.ont, src, MatchMode::Exact)
            .map_err(|e| ServerError::Engine(e.to_string()))
            .map(Arc::new)?;
        self.last_prepared = Some(entry.clone());
        Ok(entry)
    }

    /// Replays one recovered query against a freshly built DAG — the
    /// stale-DAG shape of [`oassis_core::wire`]: wire ops address nodes by
    /// assignment and are interned into the new replica.
    fn replay_one(
        &self,
        meta: &QueryMeta,
        wire: &[WireOp],
        prepared: &PreparedQuery,
    ) -> RecoveredQuery {
        let bound = prepared.bound();
        let mut dag = oassis_core::Dag::new(bound, self.ont.vocab(), prepared.base());
        let ops: Vec<_> = wire.iter().map(|w| intern_wire_op(&mut dag, w)).collect();
        let mut log = OpLog::new(replay_threshold(meta, bound), true).with_ops(ops);
        log.set_complete(meta.done.as_ref().is_some_and(|d| d.complete));
        let replay = log.replay(
            &dag,
            &FixedSampleAggregator { sample_size: 1 },
            &Telemetry::off(),
        );
        let sem = SemanticOutcome::from_replay(&replay, bound, self.ont.vocab());
        let digest = digest_hex(sem.digest());
        RecoveredQuery::verify(meta, sem.valid_msps, sem.complete, digest, wire.len())
    }

    /// Closes a session: pages it out (state stays durable on disk).
    pub fn close(&mut self, name: &str) -> Result<(), ServerError> {
        if self.sessions.remove(name).is_none() {
            return Err(ServerError::UnknownSession(name.to_string()));
        }
        self.tele
            .labeled(&format!("session.{name}"))
            .mark("page_out", "close");
        Ok(())
    }
}

/// The session's answer store: every fresh cacheable answer is appended
/// to the session's WAL *at ask time*, then cached — so a crash loses at
/// most the in-flight question, and a recovered session never re-asks
/// what any earlier query already learned.
struct WalStore {
    cache: Arc<SharedCrowdCache>,
    wal: Arc<TrackedMutex<SessionWal>>,
}

impl AnswerStore for WalStore {
    fn get(&self, member: MemberId, pattern: &ontology::PatternSet) -> Option<CachedAnswer> {
        self.cache.get(member, pattern)
    }

    fn put(
        &mut self,
        member: MemberId,
        pattern: &ontology::PatternSet,
        answer: CachedAnswer,
        tick: usize,
    ) {
        // the ask tick is the engine's question tick, so the kill switch
        // cuts answers and ops at the same logical instant
        {
            let mut wal = self.wal.lock().expect("wal mutex poisoned"); // PANIC-OK: poisoning means a holder already panicked; propagate it
            if let Err(e) = wal.append_answer(member, tick as u32, pattern, &answer) {
                wal.keep_failure(e);
            }
        }
        self.cache.put(member, pattern.clone(), answer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Figure1Provider;
    use ontology::domains::figure1;

    #[test]
    fn memo_hit_mines_what_a_miss_mines() {
        let ont = Arc::new(figure1::ontology());
        let root = std::env::temp_dir().join(format!("oassis-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let provider = Box::new(Figure1Provider::new(ont.clone()));
        let mut mgr = SessionManager::new(ont, provider, &root);
        let spec = QuerySpec {
            src: figure1::SIMPLE_QUERY.to_string(),
            threshold: None,
            batch_width: 1,
            max_questions: None,
            seed: 3,
        };
        // two sessions with equal crowds, so each query starts cold
        let mut runs = Vec::new();
        for name in ["miss", "hit"] {
            let (seed, members) = (7, 2);
            mgr.open(&SessionSpec {
                name: name.into(),
                seed,
                members,
            })
            .unwrap();
            let r = mgr.query(name, &spec).unwrap();
            let entry = mgr.last_prepared.clone().unwrap();
            runs.push((entry, (r.digest, r.answers, r.questions, r.fresh)));
        }
        assert!(Arc::ptr_eq(&runs[0].0, &runs[1].0), "the repeat hit");
        assert_eq!(runs[0].1, runs[1].1, "same digest, answers and questions");
        // a second text (cap + 1) replaces the one entry
        let other = mgr.prepared(&format!("{} ", spec.src)).unwrap();
        assert!(Arc::ptr_eq(mgr.last_prepared.as_ref().unwrap(), &other));
        let _ = std::fs::remove_dir_all(&root);
    }

    fn a_query(threshold: Option<f64>) -> QuerySpec {
        QuerySpec {
            src: figure1::SIMPLE_QUERY.to_string(),
            threshold,
            batch_width: 1,
            max_questions: None,
            seed: 3,
        }
    }

    /// Session `s` under `root`, written in three process lifetimes:
    /// 1. texts A, A, B, A (qids 1-4), A under another threshold (5), and
    ///    A cut down by the kill switch at tick 3 (6);
    /// 2. A cut at tick 5 (7): its text, threshold and completeness equal
    ///    qid 6's, its ops do not;
    /// 3. A with the process gone before its footer (8): its ops equal
    ///    qid 1's, its completeness does not;
    ///
    /// and then qid 9, written by hand: qid 1's ops and footer under
    /// threshold 0.9.
    fn twins_session(ont: &Arc<Ontology>, root: &std::path::Path) {
        let b = QuerySpec {
            src: figure1::SAMPLE_QUERY.to_string(),
            ..a_query(None)
        };
        let session = SessionSpec {
            name: "s".into(),
            seed: 7,
            members: 2,
        };
        for kill_at in [Some(3), Some(5), None] {
            let kill = KillSwitch::new();
            let provider = Box::new(Figure1Provider::new(ont.clone()));
            let mut mgr = SessionManager::new(ont.clone(), provider, root).with_kill(kill.clone());
            mgr.open(&session).unwrap();
            if kill_at == Some(3) {
                let (a, a_other) = (a_query(None), a_query(Some(0.3)));
                for spec in [&a, &a, &b, &a, &a_other] {
                    mgr.query("s", spec).unwrap();
                }
            }
            if let Some(at) = kill_at {
                kill.arm(at);
            }
            mgr.query("s", &a_query(None)).unwrap();
            assert_eq!(kill.killed(), kill_at.is_some());
        }
        // drop qid 8's footer, the last line of the log
        let meta = root.join("s").join(SESSION_WAL);
        let text = std::fs::read_to_string(&meta).unwrap();
        let keep = text.trim_end_matches('\n').rfind('\n').unwrap() + 1;
        std::fs::write(&meta, &text[..keep]).unwrap();
        // qid 9: qid 1's ops and digest under threshold 0.9, an input
        // this log's replay does not depend on but the sharing key holds
        let mut wal = SessionWal::open(root.join("s"), 0).unwrap();
        let rec = wal.recover(ont.vocab()).unwrap();
        let first = &rec.queries[0];
        let spec = QuerySpec {
            threshold: Some(0.9),
            ..first.spec.clone()
        };
        wal.record_query(9, &spec).unwrap();
        for op in &rec.ops[&1] {
            assert!(wal.append_op(9, op).unwrap());
        }
        let done = DoneMeta {
            threshold: 0.9,
            ..first.done.clone().unwrap()
        };
        wal.record_done(9, &done).unwrap();
    }

    /// `recover` on a fresh manager over `root`, against `replay_one` on
    /// each query separately; returns the recovery and the counters.
    fn recover_against_separate_replays(
        ont: &Arc<Ontology>,
        root: &std::path::Path,
    ) -> (Vec<RecoveredQuery>, u64, u64) {
        let sink = Arc::new(telemetry::TelemetrySink::new());
        let provider = Box::new(Figure1Provider::new(ont.clone()));
        let mut mgr = SessionManager::new(ont.clone(), provider, root)
            .with_telemetry(Telemetry::recording(&sink));
        let rec = SessionWal::open(root.join("s"), 0)
            .unwrap()
            .recover(ont.vocab())
            .unwrap();
        let separate: Vec<RecoveredQuery> = rec
            .queries
            .iter()
            .map(|q| {
                let prepared = mgr.prepared(&q.spec.src).unwrap();
                let ops = rec.ops.get(&q.qid).map(Vec::as_slice).unwrap_or_default();
                mgr.replay_one(q, ops, &prepared)
            })
            .collect();
        let recovered = mgr.recover("s").unwrap();
        assert_eq!(recovered, separate, "sharing changed a recovery");
        let replays = sink.counter("session.s.replays");
        let shared = sink.counter("session.s.replays_shared");
        (recovered, replays, shared)
    }

    #[test]
    fn shared_replays_equal_separate_replays() {
        let ont = Arc::new(figure1::ontology());
        let root = std::env::temp_dir().join(format!("oassis-twins-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        twins_session(&ont, &root);
        let (recovered, replays, shared) = recover_against_separate_replays(&ont, &root);
        let qids: Vec<u32> = recovered.iter().map(|q| q.qid).collect();
        assert_eq!(qids, (1..=9).collect::<Vec<_>>());
        // the runs without a footer make no claim; every other verifies
        for q in &recovered {
            let claim = !(6..=8).contains(&q.qid);
            assert_eq!(q.verified, claim.then_some(true), "qid {}", q.qid);
        }
        assert_ne!(recovered[5].ops, recovered[6].ops, "the cuts differ");
        for other in [7, 8] {
            assert_eq!(recovered[other].ops, recovered[0].ops);
        }
        assert_ne!(recovered[7].complete, recovered[0].complete);
        // A's two repeats share A's replay; everything else replays,
        // qid 9 too: its threshold differs from qid 1's
        assert_eq!((replays, shared), (7, 2));
        for twin in [1, 3] {
            let (x, y) = (&recovered[0], &recovered[twin]);
            assert_eq!((&x.digest, &x.answers), (&y.digest, &y.answers));
        }

        // a tampered footer on one twin fails that twin alone
        let mut wal = SessionWal::open(root.join("s"), 0).unwrap();
        let mut done = wal.recover(ont.vocab()).unwrap().queries[1]
            .done
            .clone()
            .unwrap();
        done.digest = "0000000000000000".into();
        // the later of two footers of a qid is the one recovery reads
        wal.record_done(2, &done).unwrap();
        drop(wal);
        let (recovered, replays, shared) = recover_against_separate_replays(&ont, &root);
        for q in &recovered {
            let want = match q.qid {
                2 => Some(false),
                6..=8 => None,
                _ => Some(true),
            };
            assert_eq!(q.verified, want, "qid {}", q.qid);
        }
        assert_eq!((replays, shared), (7, 2));
        let _ = std::fs::remove_dir_all(&root);
    }

    type SharedWal = Arc<TrackedMutex<SessionWal>>;

    /// Figure-1 crowds that take the WAL put in the slot and, on their
    /// first question, make its held handle read-only: every later append
    /// of the running query fails, after its `query` record was written.
    struct ReadOnlyOnAsk(Figure1Provider, Arc<std::sync::Mutex<Option<SharedWal>>>);

    struct ReadOnlyCrowd<'a>(Box<dyn CrowdSource + Send + 'a>, Option<SharedWal>);

    impl CrowdProvider for ReadOnlyOnAsk {
        fn provide<'a>(&'a self, spec: &SessionSpec) -> Box<dyn CrowdSource + Send + 'a> {
            Box::new(ReadOnlyCrowd(
                self.0.provide(spec),
                self.1.lock().unwrap().take(),
            ))
        }
    }

    impl CrowdSource for ReadOnlyCrowd<'_> {
        fn members(&self) -> Vec<MemberId> {
            self.0.members()
        }

        fn ask(&mut self, member: MemberId, question: &crowd::Question) -> crowd::Answer {
            if let Some(wal) = self.1.take() {
                wal.lock().unwrap().make_handle_read_only();
            }
            self.0.ask(member, question)
        }

        fn questions_asked(&self) -> usize {
            self.0.questions_asked()
        }
    }

    #[test]
    fn a_failed_append_fails_the_query_without_a_footer_and_empties_the_memo() {
        let ont = Arc::new(figure1::ontology());
        let root = std::env::temp_dir().join(format!("oassis-failed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let slot = Arc::new(std::sync::Mutex::new(None));
        let provider = ReadOnlyOnAsk(Figure1Provider::new(ont.clone()), slot.clone());
        let sink = Arc::new(telemetry::TelemetrySink::new());
        let mut mgr = SessionManager::new(ont, Box::new(provider), &root)
            .with_telemetry(Telemetry::recording(&sink));
        let spec = SessionSpec {
            name: "s".into(),
            seed: 7,
            members: 2,
        };
        mgr.open(&spec).unwrap();
        // the cold query's `query` record lands; its op and answer
        // appends fail
        *slot.lock().unwrap() = Some(mgr.sessions["s"].wal.clone());
        let err = mgr.query("s", &a_query(None)).unwrap_err();
        assert!(matches!(err, ServerError::Wal(_)), "{err}");
        assert!(slot.lock().unwrap().is_none(), "the crowd was asked");
        let log = std::fs::read_to_string(root.join("s").join(SESSION_WAL)).unwrap();
        assert!(log.contains(r#""kind":"query","qid":1"#), "{log}");
        let footer = log.contains(r#""kind":"done""#);
        assert!(!footer, "no footer claims the lost records");
        // not memoized: the next query re-mines, the one after hits
        let memo_hits = || sink.counter("session.s.memo_hits");
        mgr.query("s", &a_query(None)).unwrap();
        assert_eq!(memo_hits(), 0);
        mgr.query("s", &a_query(None)).unwrap();
        assert_eq!(memo_hits(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn the_least_recently_used_session_pages_out_and_back_in() {
        let ont = Arc::new(figure1::ontology());
        let root = std::env::temp_dir().join(format!("oassis-lru-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let provider = Box::new(Figure1Provider::new(ont.clone()));
        let mut mgr = SessionManager::new(ont, provider, &root);
        let open = |mgr: &mut SessionManager, name: &str| {
            mgr.open(&SessionSpec {
                name: name.into(),
                seed: 7,
                members: 2,
            })
            .unwrap();
        };
        let names: Vec<String> = (0..=RESIDENT_LIMIT).map(|i| format!("s{i}")).collect();
        let mut digests = Vec::new();
        for name in &names[..RESIDENT_LIMIT] {
            open(&mut mgr, name);
            digests.push(mgr.query(name, &a_query(None)).unwrap().digest);
        }
        // s0 is used again, so s1 is now the least recently used
        mgr.query("s0", &a_query(None)).unwrap();
        open(&mut mgr, &names[RESIDENT_LIMIT]);
        let mut want: Vec<String> = names.clone();
        want.remove(1);
        assert_eq!(mgr.resident(), want);
        // recover pages s1 back in, paging out s2, and verifies
        let recovered = mgr.recover("s1").unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].verified, Some(true));
        assert_eq!(recovered[0].digest, digests[1]);
        assert!(!mgr.resident().contains(&"s2".to_string()));
        // and a query pages s2 back in over its durable answers
        let again = mgr.query("s2", &a_query(None)).unwrap();
        assert_eq!((again.qid, again.fresh), (2, 0));
        assert_eq!(again.digest, digests[2]);
        assert_eq!(mgr.recover("s2").unwrap()[1].verified, Some(true));
        let _ = std::fs::remove_dir_all(&root);
    }
}
