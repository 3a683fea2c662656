//! Fault schedules: seed-generated, replayable, shrinkable.
//!
//! A schedule is a sorted list of [`FaultEvent`]s on the logical clock.
//! Every schedule round-trips through a one-line textual form
//! ([`Schedule::to_line`] / [`Schedule::parse`]) so a shrunk failing
//! schedule can be pasted into a bug report and replayed exactly.
//!
//! Grammar (comma-separated events, `ok` for the empty schedule):
//!
//! ```text
//! d<member>@<tick>          answer dropped before reaching the member
//! y<member>@<tick>(<d>)     answer delayed by d ticks (timeout if d > policy)
//! c<member>@<tick>          contradictory re-answer logged after the accept
//! x<member>@<tick>          member departs permanently (churn)
//! a<member>@<tick>(<d>)     member absent for d ticks (stalls, then recovers)
//! s<srv>@<tick>             crowd-mining server process killed at the tick
//! ```
//!
//! The first five classes target crowd *members* and are interpreted by
//! [`crate::faulty::FaultyCrowd`]; the server-kill class targets the
//! long-lived crowd-mining *server* process model and is interpreted by
//! [`crate::recovery`]'s kill/restart/verify harness. Any other token is
//! a syntax error. All kinds share one schedule line so a shrunk
//! counterexample replays the whole failure, crowd faults and process
//! faults together.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One fault class of the simulation's fault model. Faults only delay or
/// remove answers — they never corrupt an answer the engine accepts, so
/// every accepted answer equals the fault-free answer by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The question (or its answer) is lost; the member never saw it and
    /// a retry can succeed.
    Drop,
    /// The answer arrives `0` ticks late. Within the policy's timeout it
    /// is delivered (late but intact); past it, it is discarded like a
    /// drop.
    Delay(u64),
    /// The member answers normally, then sends a contradictory re-answer
    /// for the same question. The engine keeps the first accepted answer;
    /// the contradiction is only visible in the trace.
    Contradict,
    /// The member leaves permanently (mid-query churn).
    Depart,
    /// The member goes silent for `0` ticks, then recovers — retries with
    /// enough backoff outlast the absence.
    Absent(u64),
    /// Server fault: the crowd-mining server process (the event's index
    /// field names the server instance; the single-server harness uses
    /// `0`) dies at the event tick — every durable WAL append at or
    /// after it is lost mid-run. The crash-recovery harness
    /// ([`crate::recovery`]) then restarts the process model over the
    /// surviving WAL prefix, replays it, and checks the recovered
    /// `SemanticOutcome` digests bit-identically.
    ServerKill,
}

impl FaultKind {
    /// Whether this fault targets a crowd member (interpreted by
    /// [`crate::faulty::FaultyCrowd`]) rather than the server process
    /// model (interpreted by [`crate::recovery`]).
    pub fn is_member_fault(&self) -> bool {
        !matches!(self, FaultKind::ServerKill)
    }

    /// Whether this fault kills the server process model (interpreted
    /// by [`crate::recovery`]'s kill/restart/verify harness).
    pub fn is_server_fault(&self) -> bool {
        matches!(self, FaultKind::ServerKill)
    }
}

/// A fault applied to `member` at the first ask at or after tick `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Logical tick the fault becomes due.
    pub at: u64,
    /// The targeted member index (for server kills: the server instance).
    pub member: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic fault schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    /// Events sorted by `(at, member)`; at most one fires per ask.
    pub events: Vec<FaultEvent>,
}

impl Schedule {
    /// The empty (fault-free) schedule.
    pub fn fault_free() -> Self {
        Schedule::default()
    }

    /// Generates a schedule from `seed`: up to `max_events` events over
    /// `members` members within `horizon` ticks, mixing all five fault
    /// classes. Same seed ⇒ same schedule, forever.
    pub fn generate(seed: u64, members: u32, horizon: u64, max_events: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = if max_events == 0 {
            0
        } else {
            rng.gen_range(0..=max_events)
        };
        let mut events: Vec<FaultEvent> = (0..n)
            .map(|_| {
                let at = rng.gen_range(0..horizon.max(1));
                let member = rng.gen_range(0..members.max(1));
                let kind = match rng.gen_range(0..5u32) {
                    0 => FaultKind::Drop,
                    1 => FaultKind::Delay(rng.gen_range(1..=8)),
                    2 => FaultKind::Contradict,
                    3 => FaultKind::Depart,
                    _ => FaultKind::Absent(rng.gen_range(1..=6)),
                };
                FaultEvent { at, member, kind }
            })
            .collect();
        events.sort_by_key(|e| (e.at, e.member));
        Schedule { events }
    }

    /// Generates a crash-recovery schedule from `seed`: up to
    /// `max_events` server-kill events at distinct ticks within
    /// `horizon` (each kill cuts one process lifetime, so duplicate
    /// ticks would be redundant). Same seed ⇒ same schedule, forever.
    pub fn generate_recovery(seed: u64, horizon: u64, max_events: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E_C0DE_5E4E_C0DE);
        let n = if max_events == 0 {
            0
        } else {
            rng.gen_range(0..=max_events)
        };
        let mut ticks: Vec<u64> = (0..n).map(|_| rng.gen_range(1..horizon.max(2))).collect();
        ticks.sort_unstable();
        ticks.dedup();
        let events = ticks
            .into_iter()
            .map(|at| FaultEvent {
                at,
                member: 0,
                kind: FaultKind::ServerKill,
            })
            .collect();
        Schedule { events }
    }

    /// The ticks at which the server process model is killed (for
    /// [`crate::recovery`]), in schedule order.
    pub fn server_kills(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter(|e| e.kind.is_server_fault())
            .map(|e| e.at)
            .collect()
    }

    /// The replayable one-line form.
    pub fn to_line(&self) -> String {
        if self.events.is_empty() {
            return "ok".into();
        }
        self.events
            .iter()
            .map(|e| match e.kind {
                FaultKind::Drop => format!("d{}@{}", e.member, e.at),
                FaultKind::Delay(d) => format!("y{}@{}({d})", e.member, e.at),
                FaultKind::Contradict => format!("c{}@{}", e.member, e.at),
                FaultKind::Depart => format!("x{}@{}", e.member, e.at),
                FaultKind::Absent(d) => format!("a{}@{}({d})", e.member, e.at),
                FaultKind::ServerKill => format!("s{}@{}", e.member, e.at),
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parses [`Self::to_line`] output. Returns `None` on any syntax
    /// error (no partial parses — a replay must be exact).
    pub fn parse(line: &str) -> Option<Self> {
        let line = line.trim();
        if line == "ok" || line.is_empty() {
            return Some(Schedule::fault_free());
        }
        let mut events = Vec::new();
        for tok in line.split(',') {
            let tok = tok.trim();
            let (kind_ch, rest) = tok.split_at_checked(1)?;
            let (member_tick, arg) = match rest.split_once('(') {
                Some((mt, a)) => (mt, Some(a.strip_suffix(')')?)),
                None => (rest, None),
            };
            let (member, at) = member_tick.split_once('@')?;
            let at: u64 = at.parse().ok()?;
            let member: u32 = member.parse().ok()?;
            let kind = match (kind_ch, arg) {
                ("d", None) => FaultKind::Drop,
                ("y", Some(a)) => FaultKind::Delay(a.parse().ok()?),
                ("c", None) => FaultKind::Contradict,
                ("x", None) => FaultKind::Depart,
                ("a", Some(a)) => FaultKind::Absent(a.parse().ok()?),
                ("s", None) => FaultKind::ServerKill,
                _ => return None,
            };
            events.push(FaultEvent { at, member, kind });
        }
        events.sort_by_key(|e| (e.at, e.member));
        Some(Schedule { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Schedule::generate(42, 3, 50, 8);
        let b = Schedule::generate(42, 3, 50, 8);
        assert_eq!(a, b);
        assert_ne!(a, Schedule::generate(43, 3, 50, 8));
    }

    #[test]
    fn line_round_trips() {
        for seed in 0..50 {
            let s = Schedule::generate(seed, 4, 40, 10);
            let line = s.to_line();
            let back = Schedule::parse(&line).expect(&line);
            assert_eq!(s, back, "{line}");
        }
        assert_eq!(Schedule::parse("ok").unwrap(), Schedule::fault_free());
        assert!(Schedule::parse("z9@9").is_none());
        assert!(Schedule::parse("p0|1@3(2)").is_none()); // unknown class letter
        assert!(Schedule::parse("k0@5").is_none()); // unknown class letter
        assert!(Schedule::parse("y1@2(").is_none());
        assert!(Schedule::parse("d0@1,").is_none()); // empty token
        assert!(Schedule::parse("é0@1").is_none()); // multi-byte class letter
        assert!(Schedule::parse("d0|1@3").is_none()); // member fault with a peer
    }

    #[test]
    fn recovery_schedules_round_trip_as_pure_server_kills() {
        for seed in 0..50 {
            let s = Schedule::generate_recovery(seed, 14, 4);
            assert_eq!(s, Schedule::generate_recovery(seed, 14, 4));
            let line = s.to_line();
            assert_eq!(Schedule::parse(&line).expect(&line), s, "{line}");
            assert!(s.events.iter().all(|e| e.kind.is_server_fault()));
            assert!(s.events.iter().all(|e| !e.kind.is_member_fault()));
            // one kill per distinct tick: every lifetime cut is real
            let ticks = s.server_kills();
            assert!(ticks.windows(2).all(|w| w[0] < w[1]), "{line}");
        }
        // hand-written mixed lines keep the server kills addressable
        let s = Schedule::parse("s0@3,d1@2,s0@7,x1@4").unwrap();
        assert_eq!(s.server_kills(), vec![3, 7]);
        assert_eq!(Schedule::parse(&s.to_line()).unwrap(), s);
        // malformed server-kill tokens must not half-parse
        assert!(Schedule::parse("s0@3(2)").is_none()); // kill with a duration
        assert!(Schedule::parse("s0|1@3").is_none()); // kill with a peer
        assert!(Schedule::parse("s@3").is_none()); // kill without an index
    }

    #[test]
    fn all_fault_classes_appear_across_seeds() {
        let mut seen = [false; 5];
        for seed in 0..200 {
            for e in Schedule::generate(seed, 4, 40, 10).events {
                let i = match e.kind {
                    FaultKind::Drop => 0,
                    FaultKind::Delay(_) => 1,
                    FaultKind::Contradict => 2,
                    FaultKind::Depart => 3,
                    FaultKind::Absent(_) => 4,
                    other => panic!("generate emitted a server fault {other:?}"),
                };
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }
}
