//! # The WAL-backed embedded store
//!
//! One directory per session, holding one **append-only** log,
//! `session.wal`: the query registry and every member's answer ops and
//! cached answers (the paper's "virtual personal databases"), in the
//! order they were recorded. No byte of it is ever rewritten (a torn
//! tail is only cut off). Records are line-delimited JSON over
//! [`ontology::json`], one record per line, each line guarded by an
//! FNV-1a crc of its payload:
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
//! Neither side builds a JSON tree. Each record is written by an
//! [`ontology::json::Writer`] straight into its line, and each
//! crc-checked body is checked as UTF-8 and then decoded in one pass by
//! an [`ontology::json::Reader`] straight into a typed record. The
//! [`WireOp`] and cache entry codecs in `oassis-core` write to the same
//! writer and read off the same reader. Every object's keys are read in
//! the one order the writer emits them, a record's `kind` first: a key
//! out of that order, unknown, repeated or missing, and an unknown
//! `kind`, is a shape error naming it. No record is skipped.
//!
//! A served repeat writes no op record: its `done` footer names the run
//! it repeats (`"of": m`), and recovery gives it that run's ops.
//!
//! ## Record kinds
//!
//! * `session` — name, protocol version and crowd spec (first record).
//! * `query` — qid + the request spec, written before the run starts.
//! * `op` — qid + one [`WireOp`], which names its member.
//! * `answer` — member + one cached `(pattern, answer)` entry of that
//!   member's personal database.
//! * `done` — qid + completion flag, resolved threshold, the recorded
//!   `SemanticOutcome` digest, and for a served repeat `of`, the qid of
//!   the mined run it repeats.
//!
//! A running query's append handle on the file is opened by its first
//! record and dropped by its footer, so an idle session holds none.
//!
//! A directory an older build wrote — `meta.wal` beside one
//! `member-<id>.wal` per member, or a `.snap` snapshot of a compacting
//! build — is refused with an error naming the file, never read in part.
//!
//! ## Torn tails
//!
//! A crash can cut the last line short (or corrupt it). Recovery stops
//! at the first line that is cut short, fails its crc, is not UTF-8 or
//! is not JSON, truncates the file back to the last complete record,
//! and carries on — never a panic, never a lost *complete* record. Ops
//! are appended in recording order, so what survives is a prefix of
//! each run's log.
//!
//! A body that is JSON of the wrong shape (a key out of the writer's
//! order, a qid past `u32`, an element id past the vocabulary, or
//! nesting past [`ontology::json::MAX_DEPTH`], say) is no tear: it fails
//! [`SessionWal::recover`] with a shape error.
//! The lines after it are still checked, so a later tear is cut first.

use crowd::MemberId;
use oassis_core::cache::{read_entry, write_entry, CachedAnswer};
use oassis_core::digest::fnv64;
use oassis_core::oplog::{AnswerOp, OpTap};
use oassis_core::{op_to_wire, read_wire_op, write_wire_op, CrowdCache, Dag, WireOp};
use ontology::json::{self, JsonError, Members, Reader, Seq, Writer};
use ontology::{PatternSet, Vocabulary};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use telemetry::lockorder::TrackedMutex;

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

/// One query of the session registry, recovered from `session.wal`.
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
    /// Per-query ops: the run's durable prefix, in recording order. A
    /// served repeat's are the ops of the run its footer names.
    pub ops: BTreeMap<u32, Vec<WireOp>>,
    /// Every member's answer database.
    pub cache: CrowdCache,
    /// Whether any torn tail was truncated during recovery.
    pub truncated: bool,
}

/// The one log file of a session directory.
pub(crate) const SESSION_WAL: &str = "session.wal";

/// The append side of one session's directory.
#[derive(Debug)]
pub struct SessionWal {
    dir: PathBuf,
    /// The running query's append handle (see the module doc).
    file: Option<File>,
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
            file: None,
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

    /// Refuses a directory an older build wrote: its per-member layout
    /// (`meta.wal`, `member-<id>.wal`) or a `.snap` snapshot of a
    /// compacting build. Reading past either would lose its records.
    fn refuse_old_layout(&self) -> io::Result<()> {
        if !self.dir.exists() {
            return Ok(());
        }
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            let member_log = name.starts_with("member-") && name.ends_with(".wal");
            if name == "meta.wal" || member_log || name.ends_with(".snap") {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{name}: written by an older build; only {SESSION_WAL} is read"),
                ));
            }
        }
        Ok(())
    }

    /// Writes the session header (first record of a fresh `session.wal`).
    /// The crowd spec (seed, member count) is part of the header: paging
    /// a session in must rebuild the *same* deterministic crowd, so the
    /// durable header — not whatever a later `open` frame claims — is
    /// the source of truth. No query is running, so the handle is
    /// dropped again. A directory an older build wrote is refused, and
    /// nothing is written to it.
    pub fn record_session(
        &mut self,
        name: &str,
        proto: u32,
        seed: u64,
        members: u32,
    ) -> io::Result<()> {
        self.refuse_old_layout()?;
        self.append_last(&frame(|k| {
            k.next("kind").str("session");
            k.next("name").str(name);
            k.next("proto").u32(proto);
            k.next("seed").exact_u64(seed);
            k.next("members").u32(members);
        }))
    }

    /// Registers a query before it runs (so a crash mid-run still knows
    /// what was running and how to rebuild its DAG). It starts the
    /// query: the previous query's kept error is gone.
    pub fn record_query(&mut self, qid: u32, spec: &QuerySpec) -> io::Result<()> {
        self.failed = None;
        if !self.kill.admit(None) {
            return Ok(());
        }
        self.append_line(&frame(|k| {
            k.next("kind").str("query");
            k.next("qid").u32(qid);
            k.next("src").str(&spec.src);
            k.next("threshold").opt(spec.threshold, Writer::f64);
            k.next("batch_width").u32(spec.batch_width);
            k.next("max_questions").opt(spec.max_questions, Writer::u32);
            k.next("seed").exact_u64(spec.seed);
        }))
    }

    /// Records a query's completion footer: the resolved threshold and
    /// the `SemanticOutcome` digest recovery must reproduce. The footer
    /// ends the query, so its append handle is dropped.
    ///
    /// A footer claims that the query's whole log is on disk, so when an
    /// append of the query failed (`keep_failure`) nothing is written
    /// and the first such error is returned.
    pub fn record_done(&mut self, qid: u32, done: &DoneMeta) -> io::Result<()> {
        if let Some(e) = self.failed.take() {
            self.close_files();
            return Err(e);
        }
        self.append_last(&frame(|k| {
            k.next("kind").str("done");
            k.next("qid").u32(qid);
            k.next("complete").bool(done.complete);
            k.next("digest").str(&done.digest);
            k.next("threshold").f64(done.threshold);
            k.optional("of", done.of, Writer::u32);
        }))
    }

    /// Appends a record no record of the same query follows (the
    /// header, a footer) and drops the append handle, even when the kill
    /// switch drops the record.
    fn append_last(&mut self, line: &str) -> io::Result<()> {
        let appended = self.kill.admit(None).then(|| self.append_line(line));
        self.close_files();
        appended.unwrap_or(Ok(()))
    }

    /// Drops the append handle. [`record_done`](Self::record_done) does
    /// this; a query that ends without a footer (an engine error) leaves
    /// it to its caller.
    pub fn close_files(&mut self) {
        self.file = None;
    }

    /// Keeps the running query's first append error, for writers that
    /// cannot return one to the engine (the op tap, the answer store).
    pub(crate) fn keep_failure(&mut self, e: io::Error) {
        self.failed.get_or_insert(e);
    }

    /// Appends one wire op of query `qid`. Returns `false` when the kill
    /// switch dropped it (the process model is dead).
    pub fn append_op(&mut self, qid: u32, op: &WireOp) -> io::Result<bool> {
        if !self.kill.admit(Some(op.tick)) {
            return Ok(false);
        }
        self.append_line(&frame(|k| {
            k.next("kind").str("op");
            k.next("qid").u32(qid);
            write_wire_op(k.next("op"), op);
        }))?;
        Ok(true)
    }

    /// Appends one cached `(pattern, answer)` entry to `member`'s answer
    /// database. `tick` is the question counter at ask time (the
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
        self.append_line(&frame(|k| {
            k.next("kind").str("answer");
            k.next("member").u32(member.0);
            write_entry(k.next("entry"), pattern, answer);
        }))?;
        Ok(true)
    }

    /// Appends one [`frame`]d record line to `session.wal` through the
    /// held handle, opening it on the query's first record. The whole
    /// line is handed to the OS before the call returns, so it survives
    /// the death of the process; nothing syncs it to disk.
    fn append_line(&mut self, line: &str) -> io::Result<()> {
        let file = match self.file.take() {
            Some(file) => file,
            None => OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join(SESSION_WAL))?,
        };
        self.file.insert(file).write_all(line.as_bytes())
    }

    /// Reconstructs the session from `session.wal`, in one pass in
    /// recording order: query registry, per-query ops, and every
    /// member's answer database. A torn tail is truncated to the last
    /// complete record; nothing here panics on a damaged directory, and a
    /// directory an older build wrote is an error. Call it with no append
    /// handle held (the session manager recovers only between queries).
    pub fn recover(&self, vocab: &Vocabulary) -> Result<Recovered, JsonError> {
        self.refuse_old_layout().map_err(io_shape)?;
        let (records, torn) = read_records(&self.dir.join(SESSION_WAL), vocab).map_err(io_shape)?;
        let mut out = fold(records?);
        out.truncated = torn;
        Ok(out)
    }
}

/// Folds decoded records, in recording order, into what the session
/// directory reconstructs to.
fn fold(records: Vec<Record>) -> Recovered {
    let mut out = Recovered::default();
    // the first query record of each qid, by position in `out.queries`
    let mut by_qid: HashMap<u32, usize> = HashMap::new();
    for rec in records {
        match rec {
            Record::Session {
                name,
                proto,
                seed,
                members,
            } => {
                out.session = Some(name);
                out.proto = proto;
                out.seed = seed;
                out.members = members;
            }
            Record::Query { qid, spec } => {
                by_qid.entry(qid).or_insert(out.queries.len());
                out.queries.push(QueryMeta {
                    qid,
                    spec,
                    done: None,
                });
            }
            Record::Done { qid, done } => {
                // a footer without an earlier query record is ignored
                if let Some(q) = by_qid.get(&qid).and_then(|&at| out.queries.get_mut(at)) {
                    q.done = Some(done);
                }
            }
            Record::Op { qid, op } => out.ops.entry(qid).or_default().push(op),
            Record::Answer {
                member,
                pattern,
                answer,
            } => out.cache.put(member, pattern, answer),
        }
    }
    out.queries.sort_by_key(|q| q.qid);
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
    out
}

/// Maps an io error into the recovery error surface.
fn io_shape(e: io::Error) -> JsonError {
    JsonError::shape(format!("wal io error: {e}"))
}

/// One `session.wal` record, decoded straight from its body.
#[derive(Debug, PartialEq)]
enum Record {
    Session {
        name: String,
        proto: u32,
        seed: u64,
        members: u32,
    },
    Query {
        qid: u32,
        spec: QuerySpec,
    },
    Op {
        qid: u32,
        op: WireOp,
    },
    Answer {
        member: MemberId,
        pattern: PatternSet,
        answer: CachedAnswer,
    },
    Done {
        qid: u32,
        done: DoneMeta,
    },
}

fn owned_str(r: &mut Reader<'_>) -> Result<String, JsonError> {
    r.str().map(Cow::into_owned)
}

/// Decodes one record body in one pass, building no tree. A syntax
/// error (the body is not JSON) is a tear; a shape error means the body
/// is JSON of the wrong shape, or nests too deep to read.
fn decode_record(body: &str, vocab: &Vocabulary) -> Result<Record, JsonError> {
    let mut r = Reader::new(body);
    match r
        .fields(|k| read_record(k, vocab))
        .and_then(|rec| r.end().map(|()| rec))
    {
        Err(e) if !e.is_syntax() => {
            // the decode stopped at the first misshapen value: scan the
            // whole body, so one that is not JSON is still a tear (and
            // one nested too deep to scan fails on its depth)
            let mut scan = Reader::new(body);
            scan.skip().and_then(|()| scan.end())?;
            Err(e)
        }
        decoded => decoded,
    }
}

/// Reads a record's keys in the order [`SessionWal`] writes them: the
/// `kind` first, which names the keys that follow.
fn read_record(k: &mut Seq<'_, '_>, vocab: &Vocabulary) -> Result<Record, JsonError> {
    let kind = k.next("kind", Reader::str)?;
    Ok(match &*kind {
        "session" => Record::Session {
            name: k.next("name", owned_str)?,
            proto: k.next("proto", Reader::u32)?,
            seed: k.next("seed", Reader::exact_u64)?,
            members: k.next("members", Reader::u32)?,
        },
        "query" => Record::Query {
            qid: k.next("qid", Reader::u32)?,
            spec: QuerySpec {
                src: k.next("src", owned_str)?,
                threshold: k.next("threshold", |r| r.opt(Reader::f64))?,
                batch_width: k.next("batch_width", Reader::u32)?,
                max_questions: k.next("max_questions", |r| r.opt(Reader::u32))?,
                seed: k.next("seed", Reader::exact_u64)?,
            },
        },
        "op" => Record::Op {
            qid: k.next("qid", Reader::u32)?,
            op: k.next("op", |r| read_wire_op(vocab, r))?,
        },
        "answer" => {
            let member = MemberId(k.next("member", Reader::u32)?);
            let (pattern, answer) = k.next("entry", |r| read_entry(vocab, r))?;
            Record::Answer {
                member,
                pattern,
                answer,
            }
        }
        "done" => Record::Done {
            qid: k.next("qid", Reader::u32)?,
            done: DoneMeta {
                complete: k.next("complete", Reader::bool)?,
                digest: k.next("digest", owned_str)?,
                threshold: k.next("threshold", Reader::f64)?,
                // a mined run's footer has none
                of: k.optional("of", Reader::u32)?,
            },
        },
        other => return Err(JsonError::shape(format!("unknown record kind {other:?}"))),
    })
}

/// Frames one record, whose keys `write` writes, as a crc-guarded line.
fn frame(write: impl FnOnce(&mut Members<'_>)) -> String {
    let body = json::write(|w| w.fields(write));
    format!(
        "{{\"crc\":\"{:016x}\",\"rec\":{}}}\n",
        fnv64(body.as_bytes()),
        body
    )
}

/// Decodes every complete, crc-valid record of `path`, truncating the
/// file at the first line that is cut short, fails its crc, is not
/// UTF-8 or is not JSON (a torn tail). Returns the records, or the first
/// shape error among the lines kept, and whether a truncation happened.
/// A missing file is an empty log.
fn read_records(
    path: &Path,
    vocab: &Vocabulary,
) -> io::Result<(Result<Vec<Record>, JsonError>, bool)> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Ok(Vec::new()), false)),
        Err(e) => return Err(e),
    }
    let mut records = Ok(Vec::new());
    let mut offset = 0usize;
    while offset < bytes.len() {
        // PANIC-OK: offset < bytes.len() is the loop guard.
        let rest = &bytes[offset..];
        // PANIC-OK: the position is in bounds of rest.
        let line = rest.iter().position(|&b| b == b'\n').map(|nl| &rest[..nl]);
        // a line without its newline was cut mid-write
        let record = line
            .and_then(checked_body)
            .and_then(|body| std::str::from_utf8(body).ok())
            .map(|body| decode_record(body, vocab))
            .filter(|record| !record.as_ref().is_err_and(JsonError::is_syntax));
        match (line, record) {
            (Some(line), Some(record)) => {
                // a shape error fails recovery, but only once the lines
                // after it are checked for a tear
                match (&mut records, record) {
                    (Ok(kept), Ok(record)) => kept.push(record),
                    (Ok(_), Err(e)) => records = Err(e),
                    (Err(_), _) => {}
                }
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
/// appended to the session's log, stamped with the query id. The WAL
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
impl SessionWal {
    /// Swaps the held append handle for a read-only one, so every later
    /// append of the running query fails.
    pub(crate) fn make_handle_read_only(&mut self) {
        assert!(self.file.is_some(), "a query is running");
        self.file = Some(File::open(self.dir.join(SESSION_WAL)).unwrap());
    }
}

#[cfg(test)]
#[path = "tests/wal_decode.rs"]
mod decode_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crowd::MemberId;
    use oassis_core::WireVerdict;
    use ontology::json;

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
        let pattern = PatternSet::default();
        let answer = CachedAnswer::Support {
            support: 0.5,
            more_tip: None,
        };
        assert!(wal
            .append_answer(MemberId(9), 1, &pattern, &answer)
            .unwrap());
        assert!(wal.append_op(1, &op(2, 1)).unwrap());
        wal.record_done(1, &done()).unwrap();
        drop(wal);
        let wal = SessionWal::open(&dir, 0).unwrap();
        let rec = wal.recover(ont.vocab()).unwrap();
        // an answer recovers to the member its record names
        assert_eq!(rec.cache.get(MemberId(9), &pattern), Some(&answer));
        assert_eq!(rec.cache.len(), 1);
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
        // tear the log mid-record
        let path = dir.join(SESSION_WAL);
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
        // flip a byte inside the second record's payload
        assert_second_line_rejected("crc", |line| line.replace("\"tick\":2", "\"tick\":9"));
    }

    /// Rewrites the second of three op records with `damage`
    /// and checks recovery rejects it: the file is cut back to the first
    /// record, `truncated` is set, and only that record survives.
    fn assert_second_line_rejected(name: &str, damage: impl Fn(&str) -> String) {
        let dir = tmp_dir(name);
        let ont = ontology::domains::figure1::ontology();
        let mut wal = SessionWal::open(&dir, 0).unwrap();
        for t in 1..=3 {
            assert!(wal.append_op(1, &op(t, 0)).unwrap());
        }
        let path = dir.join(SESSION_WAL);
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

    /// Appends `lines` to the session's log.
    fn append_lines(dir: &Path, lines: &[String]) {
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(SESSION_WAL))
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
        let x = json::write(|w| write_wire_op(w, &support_op(1)));
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
    fn the_session_log_only_grows_by_appends() {
        let dir = tmp_dir("append-only");
        // 64 was the default cadence of the snapshot compaction that
        // used to rewrite member logs; the argument is ignored now
        let mut wal = SessionWal::open(&dir, 64).unwrap();
        let path = dir.join(SESSION_WAL);
        let mut before = Vec::new();
        for t in 1..=200 {
            // records of several members go to the one file
            assert!(wal.append_op(1, &op(t, t % 3)).unwrap());
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
        assert_eq!(names, [SESSION_WAL]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_file_of_an_older_layout_fails_recovery() {
        let ont = ontology::domains::figure1::ontology();
        // a compacting build kept member 0's older records in a `.snap`
        // file; builds before one file kept one log per member
        for old in [
            &["member-0.snap"][..],
            &["meta.wal", "member-0.wal"],
            &["member-3.wal"],
        ] {
            let dir = tmp_dir(old[0]);
            let mut wal = SessionWal::open(&dir, 0).unwrap();
            for name in old {
                fs::write(dir.join(name), name).unwrap();
            }
            let err = wal.recover(ont.vocab()).unwrap_err().to_string();
            assert!(old.iter().any(|name| err.contains(name)), "{err}");
            // nor is a fresh header written into it
            assert!(wal.record_session("s1", 1, 7, 2).is_err());
            assert_eq!(fs::read_dir(&dir).unwrap().count(), old.len());
            for name in old {
                assert_eq!(fs::read_to_string(dir.join(name)).unwrap(), *name);
            }
            fs::remove_dir_all(&dir).unwrap();
        }
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
