//! # The WAL-backed embedded store
//!
//! One directory per session. The paper's prototype kept each member's
//! "virtual personal database" in MySQL; here every member gets an
//! **append-only answer-op log** in wire form (`member-<id>.wal`), and
//! the session's query registry lives in `meta.wal`. No byte of either
//! is ever rewritten (a torn tail is only cut off). Everything is
//! line-delimited JSON over [`ontology::json`], one record per line,
//! each line guarded by an FNV-1a crc of its payload:
//!
//! ```text
//! {"crc":"<16 hex>","rec":{"kind":"op","qid":3,"op":{…wire op…}}}
//! ```
//!
//! The crc is checked over the raw bytes of the `rec` body exactly as
//! they sit in the line, before the body is parsed — the writer emits the
//! canonical serialization, so any other byte sequence (even one that
//! parses to the same value) fails the check.
//!
//! A served repeat writes no op record: its `done` footer names the run
//! it repeats (`"of": m`), and recovery gives it that run's ops.
//!
//! ## Record kinds
//!
//! * `meta.wal` — `session` (name + protocol version, first record),
//!   `query` (qid + the request spec), `done` (qid + completion flag,
//!   resolved threshold, the recorded `SemanticOutcome` digest, and for
//!   a served repeat `of`, the qid of the mined run it repeats).
//! * `member-<id>.wal` — `op` (qid + one [`WireOp`] of that member) and
//!   `answer` (one cached `(pattern, answer)` entry of that member's
//!   personal database).
//!
//! ## Why per-member logs merge safely
//!
//! A member's ops are appended in recording order, so each file always
//! holds a contiguous *prefix* of that member's subsequence of the
//! run's log: a crash cuts a file's tail, never a record from its
//! middle, so no op survives without the ops recorded before it in the
//! same file. Recovery takes the union of member prefixes and replays it
//! under the canonical `(tick, member, seq)` order with
//! `OpLog::replay_merged`, whose entailment filter absorbs MSP claims
//! whose cross-member evidence was cut by a crash.
//!
//! ## Torn tails
//!
//! A crash can cut the last line short (or corrupt it). Recovery stops
//! at the first line that fails to parse or fails its crc, truncates
//! the file back to the last complete record, and carries on — never a
//! panic, never a lost *complete* record.
//!
//! ## Append handles
//!
//! A file's append handle is opened by the first record a query writes
//! to it and dropped by the query's `done` footer, so an idle session
//! holds none. A running query holds at most [`MAX_HELD_HANDLES`]: the
//! crowd size is the client's to choose, and the process's descriptor
//! limit is not. Past the bound, the handle of the highest-numbered held
//! member gives way, so a crowd larger than the bound costs one `open`
//! per record to its overflow members, as every record did before
//! handles were held.

use crowd::MemberId;
use oassis_core::cache::{entry_from_json, entry_to_json, CachedAnswer};
use oassis_core::oplog::{AnswerOp, OpTap};
use oassis_core::{op_to_wire, wire_from_json, wire_to_json, CrowdCache, Dag, WireOp};
use ontology::json::{self, Json, JsonError};
use ontology::{PatternSet, Vocabulary};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use telemetry::lockorder::TrackedMutex;

/// FNV-1a over `bytes` — the same fold `SemanticOutcome::digest` uses,
/// here guarding WAL lines against torn or bit-rotted tails.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The process-death model for the simtest kill-at-tick fault class.
///
/// Armed with a tick `T`, the switch trips on the first durability
/// attempt stamped `tick >= T`; from that moment **every** append is
/// dropped — exactly the durable state of a process killed at tick `T`:
/// whatever was flushed before is on disk, nothing after ever is.
/// The live server runs with a disarmed switch, which never trips.
#[derive(Clone, Debug, Default)]
pub struct KillSwitch {
    /// `(arm tick, killed flag)` — `arm == 0` means disarmed.
    state: Arc<(AtomicU32, AtomicU64)>,
}

impl KillSwitch {
    /// A disarmed switch (the live server's).
    pub fn new() -> KillSwitch {
        KillSwitch::default()
    }

    /// Arms the switch: the first append stamped `tick >= at` (1-based
    /// engine ticks) trips it.
    pub fn arm(&self, at: u32) {
        self.state.0.store(at, Ordering::SeqCst);
    }

    /// Whether the process model has died.
    pub fn killed(&self) -> bool {
        self.state.1.load(Ordering::SeqCst) != 0
    }

    /// Records a durability attempt stamped `tick`; returns `true` if
    /// the process is still alive (the append may proceed).
    pub fn admit(&self, tick: Option<u32>) -> bool {
        if self.killed() {
            return false;
        }
        let arm = self.state.0.load(Ordering::SeqCst);
        if arm != 0 {
            if let Some(t) = tick {
                if t >= arm {
                    self.state.1.store(1, Ordering::SeqCst);
                    return false;
                }
            }
        }
        true
    }
}

/// A parsed request spec as the `query` meta record carries it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The OASSIS-QL source.
    pub src: String,
    /// Threshold override (`None` = the query's `WITH SUPPORT`).
    pub threshold: Option<f64>,
    /// Question-batch width.
    pub batch_width: u32,
    /// Question budget.
    pub max_questions: Option<u32>,
    /// Mining seed, at most 2^53: the `query` record stores it as a
    /// JSON number.
    pub seed: u64,
}

/// The `done` footer of a completed query.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneMeta {
    /// Whether the run classified everything.
    pub complete: bool,
    /// The recorded `SemanticOutcome` digest (16 hex digits).
    pub digest: String,
    /// The resolved support threshold the run mined under.
    pub threshold: f64,
    /// For a served repeat, the qid of the earlier run it repeats: the
    /// repeat writes no op record, and recovery gives it that run's ops.
    pub of: Option<u32>,
}

/// One query of the session registry, recovered from `meta.wal`.
#[derive(Debug, Clone)]
pub struct QueryMeta {
    /// Session-scoped query id (1-based, in issue order).
    pub qid: u32,
    /// The request spec.
    pub spec: QuerySpec,
    /// The completion footer — `None` for a query cut down mid-run.
    pub done: Option<DoneMeta>,
}

/// Everything a session directory reconstructs to.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Session name from the header record, if one was durably written.
    pub session: Option<String>,
    /// Protocol version of the header record.
    pub proto: u32,
    /// Crowd seed from the header record.
    pub seed: u64,
    /// Crowd size from the header record.
    pub members: u32,
    /// The query registry, in qid order.
    pub queries: Vec<QueryMeta>,
    /// Per-query member ops: each member's contiguous durable prefix,
    /// in append order, members in id order. A served repeat's are the
    /// ops of the run its footer names.
    pub ops: BTreeMap<u32, Vec<WireOp>>,
    /// The union of the per-member answer databases.
    pub cache: CrowdCache,
    /// Whether any torn tail was truncated during recovery.
    pub truncated: bool,
}

/// Append handles one [`SessionWal`] holds at most. It covers
/// `meta.wal` plus every member of the largest crowd the benchmark
/// serves (48) and stays far below common descriptor limits (1024).
pub const MAX_HELD_HANDLES: usize = 64;

/// A file of a session directory that takes appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Log {
    Meta,
    Member(u32),
}

impl Log {
    fn file_name(self) -> String {
        match self {
            Log::Meta => "meta.wal".into(),
            Log::Member(member) => format!("member-{member}.wal"),
        }
    }
}

/// The append side of one session's directory.
#[derive(Debug)]
pub struct SessionWal {
    dir: PathBuf,
    /// Append handles held for the running query (see the module doc).
    handles: BTreeMap<Log, File>,
    /// The first append error of the running query's tap or answer
    /// store; it stops the query's footer.
    failed: Option<io::Error>,
    kill: KillSwitch,
}

impl SessionWal {
    /// Opens (creating if needed) the WAL directory of one session.
    /// Reads nothing and opens no file.
    ///
    /// `_snapshot_every` is unused: it is the cadence of a snapshot
    /// compaction that no longer exists, kept so existing callers
    /// compile unchanged.
    pub fn open(dir: impl Into<PathBuf>, _snapshot_every: u32) -> io::Result<SessionWal> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SessionWal {
            dir,
            handles: BTreeMap::new(),
            failed: None,
            kill: KillSwitch::new(),
        })
    }

    /// Installs a kill switch (simtest's process-death model). The
    /// default switch is disarmed and never drops anything.
    pub fn with_kill(mut self, kill: KillSwitch) -> SessionWal {
        self.kill = kill;
        self
    }

    /// The directory this WAL writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The member ids with a WAL file. A `.snap` file is refused: it
    /// holds the compacted prefix of a member log written by an older
    /// build, and recovering without it would silently lose that prefix.
    fn member_ids(&self) -> io::Result<Vec<u32>> {
        let mut ids: Vec<u32> = Vec::new();
        if !self.dir.exists() {
            return Ok(ids);
        }
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".snap") {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{name}: snapshot files of compacting builds are not read"),
                ));
            }
            let id = name
                .strip_prefix("member-")
                .and_then(|rest| rest.strip_suffix(".wal"));
            if let Some(Ok(id)) = id.map(str::parse::<u32>) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Writes the session header (first record of a fresh `meta.wal`).
    /// The crowd spec (seed, member count) is part of the header: paging
    /// a session in must rebuild the *same* deterministic crowd, so the
    /// durable header — not whatever a later `open` frame claims — is
    /// the source of truth. No query is running, so the handle is
    /// dropped again.
    pub fn record_session(
        &mut self,
        name: &str,
        proto: u32,
        seed: u64,
        members: u32,
    ) -> io::Result<()> {
        let rec = Json::Obj(vec![
            ("kind".into(), Json::Str("session".into())),
            ("name".into(), Json::Str(name.into())),
            ("proto".into(), Json::Num(proto as f64)),
            ("seed".into(), Json::Num(seed as f64)),
            ("members".into(), Json::Num(members as f64)),
        ]);
        self.append_last(&rec)
    }

    /// Registers a query before it runs (so a crash mid-run still knows
    /// what was running and how to rebuild its DAG). It starts the
    /// query: the previous query's kept error is gone.
    pub fn record_query(&mut self, qid: u32, spec: &QuerySpec) -> io::Result<()> {
        self.failed = None;
        if !self.kill.admit(None) {
            return Ok(());
        }
        let rec = Json::Obj(vec![
            ("kind".into(), Json::Str("query".into())),
            ("qid".into(), Json::Num(qid as f64)),
            ("src".into(), Json::Str(spec.src.clone())),
            (
                "threshold".into(),
                spec.threshold.map_or(Json::Null, Json::Num),
            ),
            ("batch_width".into(), Json::Num(spec.batch_width as f64)),
            (
                "max_questions".into(),
                spec.max_questions
                    .map_or(Json::Null, |m| Json::Num(m as f64)),
            ),
            ("seed".into(), Json::Num(spec.seed as f64)),
        ]);
        self.append_line(Log::Meta, &rec)
    }

    /// Records a query's completion footer: the resolved threshold and
    /// the `SemanticOutcome` digest recovery must reproduce. The footer
    /// ends the query, so every append handle is dropped.
    ///
    /// A footer claims that the query's whole log is on disk, so when an
    /// append of the query failed (`keep_failure`) nothing is written
    /// and the first such error is returned.
    pub fn record_done(&mut self, qid: u32, done: &DoneMeta) -> io::Result<()> {
        if let Some(e) = self.failed.take() {
            self.close_files();
            return Err(e);
        }
        let mut fields = vec![
            ("kind".into(), Json::Str("done".into())),
            ("qid".into(), Json::Num(qid as f64)),
            ("complete".into(), Json::Bool(done.complete)),
            ("digest".into(), Json::Str(done.digest.clone())),
            ("threshold".into(), Json::Num(done.threshold)),
        ];
        if let Some(m) = done.of {
            fields.push(("of".into(), Json::Num(m as f64)));
        }
        self.append_last(&Json::Obj(fields))
    }

    /// Appends a `meta.wal` record no query record follows (the header,
    /// a footer) and drops every held handle, even when the kill switch
    /// drops the record.
    fn append_last(&mut self, rec: &Json) -> io::Result<()> {
        let appended = self
            .kill
            .admit(None)
            .then(|| self.append_line(Log::Meta, rec));
        self.close_files();
        appended.unwrap_or(Ok(()))
    }

    /// Drops every held append handle. [`record_done`](Self::record_done)
    /// does this; a query that ends without a footer (an engine error)
    /// leaves it to its caller.
    pub fn close_files(&mut self) {
        self.handles.clear();
    }

    /// Keeps the running query's first append error, for writers that
    /// cannot return one to the engine (the op tap, the answer store).
    pub(crate) fn keep_failure(&mut self, e: io::Error) {
        self.failed.get_or_insert(e);
    }

    /// Appends one wire op to its member's log. Returns `false` when the
    /// kill switch dropped it (the process model is dead).
    pub fn append_op(&mut self, qid: u32, op: &WireOp) -> io::Result<bool> {
        if !self.kill.admit(Some(op.tick)) {
            return Ok(false);
        }
        let rec = Json::Obj(vec![
            ("kind".into(), Json::Str("op".into())),
            ("qid".into(), Json::Num(qid as f64)),
            ("op".into(), wire_to_json(op)),
        ]);
        self.append_line(Log::Member(op.member.0), &rec)?;
        Ok(true)
    }

    /// Appends one cached `(pattern, answer)` entry to its member's
    /// answer database. `tick` is the question counter at ask time (the
    /// kill model uses it). Returns `false` when dropped.
    pub fn append_answer(
        &mut self,
        member: MemberId,
        tick: u32,
        pattern: &PatternSet,
        answer: &CachedAnswer,
    ) -> io::Result<bool> {
        if !self.kill.admit(Some(tick)) {
            return Ok(false);
        }
        let rec = Json::Obj(vec![
            ("kind".into(), Json::Str("answer".into())),
            ("entry".into(), entry_to_json(pattern, answer)),
        ]);
        self.append_line(Log::Member(member.0), &rec)?;
        Ok(true)
    }

    /// Reconstructs the session from disk: query registry, per-query
    /// merged member ops, and the union answer cache. Torn tails are
    /// truncated to the last complete record; nothing here panics on a
    /// damaged directory. Call it with no append handle held (the
    /// session manager recovers only between queries).
    pub fn recover(&self, vocab: &Vocabulary) -> Result<Recovered, JsonError> {
        let mut out = Recovered::default();
        // --- meta.wal: session header + query registry
        let (meta, torn) = read_records(&self.dir.join(Log::Meta.file_name())).map_err(io_shape)?;
        out.truncated |= torn;
        // the first query record of each qid, by position in `out.queries`
        let mut by_qid: HashMap<u32, usize> = HashMap::new();
        for rec in &meta {
            match rec.field("kind").and_then(|k| k.as_str().map(String::from)) {
                Ok(kind) if kind == "session" => {
                    out.session = Some(rec.field("name")?.as_str()?.to_string());
                    out.proto = rec.field("proto")?.as_u32()?;
                    out.seed = rec.field("seed")?.as_exact_u64()?;
                    out.members = rec.field("members")?.as_u32()?;
                }
                Ok(kind) if kind == "query" => {
                    let spec = QuerySpec {
                        src: rec.field("src")?.as_str()?.to_string(),
                        threshold: opt_f64(rec.field("threshold")?)?,
                        batch_width: rec.field("batch_width")?.as_u32()?,
                        max_questions: opt_u32(rec.field("max_questions")?)?,
                        seed: rec.field("seed")?.as_exact_u64()?,
                    };
                    let qid = rec.field("qid")?.as_u32()?;
                    by_qid.entry(qid).or_insert(out.queries.len());
                    out.queries.push(QueryMeta {
                        qid,
                        spec,
                        done: None,
                    });
                }
                Ok(kind) if kind == "done" => {
                    let qid = rec.field("qid")?.as_u32()?;
                    let done = DoneMeta {
                        complete: as_bool(rec.field("complete")?)?,
                        digest: rec.field("digest")?.as_str()?.to_string(),
                        threshold: rec.field("threshold")?.as_f64()?,
                        // absent on a mined run's footer
                        of: rec.field("of").ok().map(Json::as_u32).transpose()?,
                    };
                    // a footer without an earlier query record is ignored
                    if let Some(&at) = by_qid.get(&qid) {
                        // PANIC-OK: by_qid holds positions of pushed queries, and none is removed.
                        out.queries[at].done = Some(done);
                    }
                }
                // unknown kinds are future records — skip, don't fail
                _ => {}
            }
        }
        out.queries.sort_by_key(|q| q.qid);
        // --- member files: ops and answers in append order
        for member in self.member_ids().map_err(io_shape)? {
            let path = self.dir.join(Log::Member(member).file_name());
            let (wal, torn) = read_records(&path).map_err(io_shape)?;
            out.truncated |= torn;
            for mut rec in wal {
                match rec.field("kind").and_then(Json::as_str) {
                    Ok("op") => {
                        let qid = rec.field("qid")?.as_u32()?;
                        let op = wire_from_json(vocab, rec.field("op")?)?;
                        out.ops.entry(qid).or_default().push(op);
                    }
                    Ok("answer") => {
                        if let Some(entry) = take_field(&mut rec, "entry") {
                            let (pattern, answer) = entry_from_json(&entry)?;
                            out.cache.put(MemberId(member), pattern, answer);
                        }
                    }
                    // unknown kinds are future records — skip, don't fail
                    _ => {}
                }
            }
        }
        // a served repeat's footer names an earlier registered run; with
        // no op record of its own, the repeat's ops are that run's (qid
        // order resolves a repeat of a repeat). Any other `of` is ignored,
        // so the query recovers from its own records and fails to verify.
        for q in &out.queries {
            let Some(m) = q.done.as_ref().and_then(|d| d.of) else {
                continue;
            };
            if m < q.qid && by_qid.contains_key(&m) && !out.ops.contains_key(&q.qid) {
                if let Some(ops) = out.ops.get(&m).cloned() {
                    out.ops.insert(q.qid, ops);
                }
            }
        }
        Ok(out)
    }
}

/// Maps an io error into the recovery error surface.
fn io_shape(e: io::Error) -> JsonError {
    JsonError::shape(format!("wal io error: {e}"))
}

fn opt_f64(v: &Json) -> Result<Option<f64>, JsonError> {
    match v {
        Json::Null => Ok(None),
        other => other.as_f64().map(Some),
    }
}

fn opt_u32(v: &Json) -> Result<Option<u32>, JsonError> {
    match v {
        Json::Null => Ok(None),
        other => other.as_u32().map(Some),
    }
}

fn as_bool(v: &Json) -> Result<bool, JsonError> {
    match v {
        Json::Bool(b) => Ok(*b),
        other => Err(JsonError::shape(format!("expected bool, got {other}"))),
    }
}

/// Moves field `name` out of an object record, leaving `null` behind.
fn take_field(rec: &mut Json, name: &str) -> Option<Json> {
    let Json::Obj(fields) = rec else {
        return None;
    };
    let (_, value) = fields.iter_mut().find(|(k, _)| k == name)?;
    Some(std::mem::replace(value, Json::Null))
}

impl SessionWal {
    /// Appends one crc-framed record line to `log` through its held
    /// handle, opening the handle on the query's first record there
    /// (dropping the highest held one when [`MAX_HELD_HANDLES`] are
    /// held). The whole line is handed to the OS before the call
    /// returns, so it survives the death of the process; nothing syncs
    /// it to disk.
    fn append_line(&mut self, log: Log, rec: &Json) -> io::Result<()> {
        if self.handles.len() >= MAX_HELD_HANDLES && !self.handles.contains_key(&log) {
            self.handles.pop_last();
        }
        let file = match self.handles.entry(log) {
            Entry::Occupied(held) => held.into_mut(),
            Entry::Vacant(slot) => {
                let path = self.dir.join(log.file_name());
                slot.insert(OpenOptions::new().create(true).append(true).open(path)?)
            }
        };
        file.write_all(frame(rec).as_bytes())
    }
}

/// Frames one record as a crc-guarded line.
fn frame(rec: &Json) -> String {
    let body = rec.to_string();
    format!(
        "{{\"crc\":\"{:016x}\",\"rec\":{}}}\n",
        fnv64(body.as_bytes()),
        body
    )
}

/// Reads every complete, crc-valid record of `path`, truncating the
/// file at the first bad line (torn tail). Returns the records and
/// whether a truncation happened. A missing file is an empty log.
fn read_records(path: &Path) -> io::Result<(Vec<Json>, bool)> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
        Err(e) => return Err(e),
    }
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        // PANIC-OK: offset < bytes.len() is the loop guard.
        let rest = &bytes[offset..];
        // PANIC-OK: the position is in bounds of rest.
        let line = rest.iter().position(|&b| b == b'\n').map(|nl| &rest[..nl]);
        // a line without its newline was cut mid-write
        let record = line.and_then(checked_body).and_then(parse_body);
        match (line, record) {
            (Some(line), Some(rec)) => {
                records.push(rec);
                offset += line.len() + 1;
            }
            _ => {
                // a bad line invalidates it and everything after it —
                // appends are strictly ordered, so nothing beyond the
                // first tear is trustworthy
                truncate_to(path, offset)?;
                return Ok((records, true));
            }
        }
    }
    Ok((records, false))
}

/// The raw `rec` body of one framed line whose crc checks out over
/// those bytes. The frame is exactly what [`frame`] writes:
/// `{"crc":"<16 lowercase hex>","rec":<body>}`.
fn checked_body(line: &[u8]) -> Option<&[u8]> {
    let rest = line.strip_prefix(b"{\"crc\":\"")?;
    let (hex, rest) = rest.split_at_checked(16)?;
    let body = rest.strip_prefix(b"\",\"rec\":")?.strip_suffix(b"}")?;
    (parse_crc(hex)? == fnv64(body)).then_some(body)
}

/// Parses one JSON document from raw bytes.
fn parse_body(body: &[u8]) -> Option<Json> {
    json::parse(std::str::from_utf8(body).ok()?).ok()
}

/// Parses the 16 lowercase hex digits [`frame`] writes for a crc.
fn parse_crc(hex: &[u8]) -> Option<u64> {
    hex.iter().try_fold(0u64, |acc, &b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u64::from(digit))
    })
}

/// Cuts `path` back to `len` bytes (tear repair).
fn truncate_to(path: &Path, len: usize) -> io::Result<()> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len as u64)
}

/// The [`OpTap`] the session manager installs on every query run: each
/// flushed op is rendered to wire form against the run's DAG and
/// appended to its member's log, stamped with the query id. The WAL
/// keeps the first append error, which stops the query's `done` footer.
pub struct WalTap {
    wal: Arc<TrackedMutex<SessionWal>>,
    qid: u32,
}

impl WalTap {
    /// A tap appending `qid`'s ops through `wal`.
    pub fn new(wal: Arc<TrackedMutex<SessionWal>>, qid: u32) -> WalTap {
        WalTap { wal, qid }
    }
}

impl OpTap for WalTap {
    fn append(&self, dag: &Dag<'_>, ops: &[AnswerOp]) {
        let mut wal = self.wal.lock().expect("wal mutex poisoned"); // PANIC-OK: poisoning means a holder already panicked; propagate it
        for op in ops {
            // `Ok(false)` is the kill switch: the process model is dead
            if let Err(e) = wal.append_op(self.qid, &op_to_wire(op, dag)) {
                wal.keep_failure(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd::MemberId;
    use oassis_core::WireVerdict;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("oassis-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn op(tick: u32, member: u32) -> WireOp {
        WireOp {
            tick,
            seq: 0,
            member: MemberId(member),
            node: None,
            verdict: WireVerdict::NoAnswer,
        }
    }

    fn spec() -> QuerySpec {
        QuerySpec {
            src: "SELECT".into(),
            threshold: Some(0.4),
            batch_width: 2,
            max_questions: None,
            seed: 7,
        }
    }

    fn done() -> DoneMeta {
        DoneMeta {
            complete: true,
            digest: "00000000000000ff".into(),
            threshold: 0.4,
            of: None,
        }
    }

    #[test]
    fn records_roundtrip_and_survive_reopen() {
        let dir = tmp_dir("roundtrip");
        let ont = ontology::domains::figure1::ontology();
        let mut wal = SessionWal::open(&dir, 0).unwrap();
        wal.record_session("s1", 1, 7, 2).unwrap();
        wal.record_query(1, &spec()).unwrap();
        assert!(wal.append_op(1, &op(1, 0)).unwrap());
        assert!(wal.append_op(1, &op(2, 1)).unwrap());
        wal.record_done(1, &done()).unwrap();
        drop(wal);
        let wal = SessionWal::open(&dir, 0).unwrap();
        let rec = wal.recover(ont.vocab()).unwrap();
        assert_eq!(rec.session.as_deref(), Some("s1"));
        assert_eq!(rec.proto, 1);
        assert_eq!(rec.queries.len(), 1);
        assert_eq!(rec.queries[0].spec, spec());
        assert_eq!(rec.queries[0].done, Some(done()));
        assert_eq!(rec.ops[&1].len(), 2);
        assert!(!rec.truncated);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates_to_last_complete_record() {
        let dir = tmp_dir("torn");
        let ont = ontology::domains::figure1::ontology();
        let mut wal = SessionWal::open(&dir, 0).unwrap();
        wal.record_session("s1", 1, 7, 2).unwrap();
        assert!(wal.append_op(1, &op(1, 0)).unwrap());
        assert!(wal.append_op(1, &op(2, 0)).unwrap());
        // tear the member WAL mid-record
        let path = dir.join("member-0.wal");
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 7]).unwrap();
        let rec = wal.recover(ont.vocab()).unwrap();
        assert!(rec.truncated);
        assert_eq!(rec.ops[&1].len(), 1, "only the complete record survives");
        // the tear was repaired in place: recovering again is clean
        let rec2 = wal.recover(ont.vocab()).unwrap();
        assert!(!rec2.truncated);
        assert_eq!(rec2.ops[&1].len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_invalidates_the_suffix() {
        let dir = tmp_dir("crc");
        let ont = ontology::domains::figure1::ontology();
        let mut wal = SessionWal::open(&dir, 0).unwrap();
        for t in 1..=3 {
            assert!(wal.append_op(1, &op(t, 0)).unwrap());
        }
        let path = dir.join("member-0.wal");
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        // flip a byte inside the second record's payload
        lines[1] = lines[1].replace("\"tick\":2", "\"tick\":9");
        fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let rec = wal.recover(ont.vocab()).unwrap();
        assert!(rec.truncated);
        assert_eq!(rec.ops[&1].len(), 1, "suffix after the bad line is gone");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Rewrites the second of three member-0 op records with `damage`
    /// and checks recovery rejects it: the file is cut back to the first
    /// record, `truncated` is set, and only that record survives.
    fn assert_second_line_rejected(name: &str, damage: impl Fn(&str) -> String) {
        let dir = tmp_dir(name);
        let ont = ontology::domains::figure1::ontology();
        let mut wal = SessionWal::open(&dir, 0).unwrap();
        for t in 1..=3 {
            assert!(wal.append_op(1, &op(t, 0)).unwrap());
        }
        let path = dir.join("member-0.wal");
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let damaged = damage(&lines[1]);
        assert_ne!(damaged, lines[1], "{name}: the damage must change the line");
        lines[1] = damaged;
        fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let rec = wal.recover(ont.vocab()).unwrap();
        assert!(rec.truncated, "{name}: the damaged line must be rejected");
        assert_eq!(rec.ops[&1].len(), 1, "{name}");
        assert_eq!(
            fs::read(&path).unwrap().len(),
            lines[0].len() + 1,
            "{name}: the file is cut at the damaged line"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_crc_digit_is_rejected() {
        assert_second_line_rejected("crc-digit", |line| {
            // the first crc digit sits right after `{"crc":"`
            let at = "{\"crc\":\"".len();
            let flipped = if &line[at..=at] == "0" { "1" } else { "0" };
            format!("{}{flipped}{}", &line[..at], &line[at + 1..])
        });
    }

    #[test]
    fn missing_closing_brace_is_rejected() {
        assert_second_line_rejected("no-brace", |line| line[..line.len() - 1].to_string());
    }

    #[test]
    fn non_hex_crc_is_rejected() {
        assert_second_line_rejected("non-hex", |line| {
            let at = "{\"crc\":\"".len();
            format!("{}{}{}", &line[..at], "zz".repeat(8), &line[at + 16..])
        });
    }

    #[test]
    fn non_canonical_body_is_rejected() {
        // same value, extra whitespace: the crc still covers the
        // canonical serialization, so the raw bytes no longer match it
        assert_second_line_rejected("whitespace", |line| {
            let doc = json::parse(line).unwrap();
            let body = doc.field("rec").unwrap().to_string();
            let crc = doc.field("crc").unwrap().as_str().unwrap().to_string();
            assert_eq!(format!("{:016x}", fnv64(body.as_bytes())), crc);
            let spaced = body.replace(',', ", ");
            assert_eq!(json::parse(&spaced).unwrap(), *doc.field("rec").unwrap());
            format!("{{\"crc\":\"{crc}\",\"rec\":{spaced}}}")
        });
    }

    /// A crc-valid framed line around `body`, as [`frame`] frames it.
    fn framed(body: &str) -> String {
        format!(
            "{{\"crc\":\"{:016x}\",\"rec\":{body}}}",
            fnv64(body.as_bytes())
        )
    }

    fn support_op(tick: u32) -> WireOp {
        WireOp {
            verdict: WireVerdict::Support { support: 0.25 },
            ..op(tick, 0)
        }
    }

    /// Appends `lines` to member 0's file.
    fn append_lines(dir: &Path, lines: &[String]) {
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join("member-0.wal"))
            .unwrap();
        for line in lines {
            writeln!(f, "{line}").unwrap();
        }
    }

    #[test]
    fn a_qid_past_u32_fails_recovery_as_the_whole_body_parse_does() {
        let dir = tmp_dir("qid-range");
        let ont = ontology::domains::figure1::ontology();
        let mut wal = SessionWal::open(&dir, 0).unwrap();
        assert!(wal.append_op(1, &support_op(1)).unwrap());
        wal.close_files();
        let x = wire_to_json(&support_op(1)).to_string();
        append_lines(
            &dir,
            &[framed(&format!(
                r#"{{"kind":"op","qid":4294967296,"op":{x}}}"#
            ))],
        );
        let err = wal.recover(ont.vocab()).unwrap_err();
        assert!(err.to_string().contains("expected u32"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_op_body_that_does_not_parse_cuts_the_file_at_its_line() {
        assert_second_line_rejected("op-not-json", |_| {
            framed(r#"{"kind":"op","qid":1,"op":{"tick":2,}}"#)
        });
        // a stray brace after a well-formed body
        assert_second_line_rejected("op-stray-brace", |line| {
            let doc = json::parse(line).unwrap();
            framed(&format!("{}}}", doc.field("rec").unwrap()))
        });
    }

    #[test]
    fn footers_attach_by_qid_and_a_footer_without_its_query_is_ignored() {
        let dir = tmp_dir("footers");
        let ont = ontology::domains::figure1::ontology();
        let mut wal = SessionWal::open(&dir, 0).unwrap();
        wal.record_session("s1", 1, 7, 2).unwrap();
        // a footer before its query record and one with no query at all
        wal.record_done(2, &done()).unwrap();
        wal.record_done(9, &done()).unwrap();
        for qid in [2, 1] {
            wal.record_query(qid, &spec()).unwrap();
        }
        let late = DoneMeta {
            complete: false,
            ..done()
        };
        wal.record_done(1, &late).unwrap();
        let rec = wal.recover(ont.vocab()).unwrap();
        let got: Vec<(u32, Option<DoneMeta>)> = rec
            .queries
            .iter()
            .map(|q| (q.qid, q.done.clone()))
            .collect();
        assert_eq!(got, [(1, Some(late)), (2, None)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn member_wal_only_grows_by_appends() {
        let dir = tmp_dir("append-only");
        // 64 was the default cadence of the snapshot compaction that
        // used to rewrite this file; the argument is ignored now
        let mut wal = SessionWal::open(&dir, 64).unwrap();
        let path = dir.join("member-0.wal");
        let mut before = Vec::new();
        for t in 1..=200 {
            assert!(wal.append_op(1, &op(t, 0)).unwrap());
            let now = fs::read(&path).unwrap();
            assert!(
                now.len() > before.len() && now.starts_with(&before),
                "record {t}"
            );
            before = now;
        }
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["member-0.wal"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn held_handles_are_bounded_and_dropped_by_the_footer() {
        let dir = tmp_dir("handles");
        let ont = ontology::domains::figure1::ontology();
        let mut wal = SessionWal::open(&dir, 0).unwrap();
        wal.record_session("s1", 1, 7, 3).unwrap();
        assert!(wal.handles.is_empty(), "no query runs after the header");
        wal.record_query(1, &spec()).unwrap();
        // two round-robin passes over more members than the bound: one
        // handle per file (meta.wal + the members so far), up to the bound
        let members = MAX_HELD_HANDLES as u32 + 16;
        for t in 0..2 * members {
            assert!(wal.append_op(1, &op(t + 1, t % members)).unwrap());
            let want = (t as usize + 2).min(MAX_HELD_HANDLES);
            assert_eq!(wal.handles.len(), want, "record {t}");
        }
        wal.record_done(1, &done()).unwrap();
        assert!(wal.handles.is_empty());
        let ops = &wal.recover(ont.vocab()).unwrap().ops[&1];
        let per_member = |m| ops.iter().filter(|o| o.member.0 == m).count();
        assert!(
            (0..members).all(|m| per_member(m) == 2),
            "no record was lost"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_file_fails_recovery() {
        let dir = tmp_dir("snap");
        let ont = ontology::domains::figure1::ontology();
        let mut wal = SessionWal::open(&dir, 0).unwrap();
        assert!(wal.append_op(1, &op(1, 0)).unwrap());
        wal.close_files();
        assert!(wal.recover(ont.vocab()).is_ok());
        // a compacting build kept member 0's older records here
        fs::write(dir.join("member-0.snap"), "").unwrap();
        let err = wal.recover(ont.vocab()).unwrap_err();
        assert!(err.to_string().contains("member-0.snap"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tripped_kill_switch_drops_the_session_header() {
        let dir = tmp_dir("kill-header");
        let ont = ontology::domains::figure1::ontology();
        let kill = KillSwitch::new();
        let mut wal = SessionWal::open(&dir, 0).unwrap().with_kill(kill.clone());
        kill.arm(1);
        assert!(!wal.append_op(1, &op(1, 0)).unwrap());
        assert!(kill.killed());
        wal.record_session("s1", 1, 7, 2).unwrap();
        let rec = wal.recover(ont.vocab()).unwrap();
        assert_eq!(rec.session, None, "a dead process writes no header");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_switch_drops_everything_after_the_armed_tick() {
        let dir = tmp_dir("kill");
        let ont = ontology::domains::figure1::ontology();
        let kill = KillSwitch::new();
        let mut wal = SessionWal::open(&dir, 0).unwrap().with_kill(kill.clone());
        kill.arm(3);
        assert!(wal.append_op(1, &op(1, 0)).unwrap());
        assert!(wal.append_op(1, &op(2, 1)).unwrap());
        assert!(
            !wal.append_op(1, &op(3, 0)).unwrap(),
            "tick 3 trips the switch"
        );
        assert!(kill.killed());
        // even earlier-stamped appends are dead now: the process is gone
        assert!(!wal.append_op(1, &op(2, 0)).unwrap());
        wal.record_done(1, &done()).unwrap();
        let rec = wal.recover(ont.vocab()).unwrap();
        assert_eq!(rec.ops[&1].len(), 2);
        assert!(rec.queries.is_empty(), "the done record was dropped too");
        fs::remove_dir_all(&dir).unwrap();
    }
}
