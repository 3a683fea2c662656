//! [`FaultyCrowd`]: a [`CrowdSource`] wrapper that injects a
//! [`Schedule`]'s faults into an otherwise well-behaved crowd.
//!
//! The wrapper is careful never to *corrupt* an answer the engine
//! accepts: drops and timed-out delays return [`Answer::NoResponse`]
//! **without consulting the inner source** (so a retry observes the
//! pristine answer and per-member RNG streams are not perturbed),
//! departures return [`Answer::Unavailable`], and contradictions are
//! logged in the trace but the first (true) answer is what the engine
//! sees. This is what makes the differential oracle exact: on the
//! answered subset, a faulty run must agree with the fault-free run.

use crate::clock::LogicalClock;
use crate::schedule::{FaultEvent, FaultKind, Schedule};
use crowd::{Answer, CrowdSource, MemberId, Question};
use oassis_core::digest::Fnv;

/// One observable simulation step, recorded for the determinism digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Logical tick at which the step completed.
    pub tick: u64,
    /// The member involved.
    pub member: u32,
    /// What happened (`ask`, `drop`, `delay`, `contradict`, `depart`,
    /// `absent`).
    pub kind: &'static str,
    /// Compact human-readable detail (question shape, answer shape).
    pub detail: String,
}

/// The full ordered event trace of a simulated session.
#[derive(Debug, Clone, Default)]
pub struct SimTrace {
    /// Steps in execution order.
    pub entries: Vec<TraceEntry>,
}

impl SimTrace {
    fn push(&mut self, tick: u64, member: MemberId, kind: &'static str, detail: String) {
        self.entries.push(TraceEntry {
            tick,
            member: member.0,
            kind,
            detail,
        });
    }

    /// FNV-1a digest of the rendered trace. Same seed ⇒ same digest,
    /// across runs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for e in &self.entries {
            h.bytes(format!("{}|{}|{}|{}\n", e.tick, e.member, e.kind, e.detail).as_bytes());
        }
        h.finish()
    }
}

/// Compact question shape for trace entries (patterns themselves are too
/// large and too order-sensitive to render).
fn describe_question(q: &Question) -> String {
    match q {
        Question::Concrete { pattern } => format!("concrete[{}]", pattern.len()),
        Question::Specialization { options, .. } => format!("spec[{}]", options.len()),
    }
}

fn describe_answer(a: &Answer) -> String {
    match a {
        Answer::Support { support, .. } => format!("support={support}"),
        Answer::Specialized { choice, support } => format!("choice={choice},support={support}"),
        Answer::NoneOfThese => "none-of-these".into(),
        Answer::Irrelevant { .. } => "irrelevant".into(),
        Answer::Unavailable => "unavailable".into(),
        Answer::NoResponse => "no-response".into(),
    }
}

/// A crowd whose answers pass through a deterministic fault schedule.
pub struct FaultyCrowd<C> {
    inner: C,
    clock: LogicalClock,
    /// Pending fault events, sorted by `(at, member)`; each fires at most
    /// once, on the first ask of its member at or after its tick.
    pending: Vec<FaultEvent>,
    /// Ticks after which a delayed answer counts as lost (should match
    /// the engine's [`crowd::CrowdPolicy::timeout_ticks`]).
    timeout_ticks: u64,
    departed: std::collections::HashSet<u32>,
    /// member → tick until which the member is absent (exclusive).
    absent_until: std::collections::HashMap<u32, u64>,
    trace: SimTrace,
    asked: usize,
    /// Optional telemetry handle. Only tick-neutral events (counters and
    /// `sync_tick`) are recorded here, so attaching a sink never perturbs
    /// the trace digest of the simulated session itself.
    tele: telemetry::Telemetry,
}

impl<C: CrowdSource> FaultyCrowd<C> {
    /// Wraps `inner` with `schedule`, discarding delayed answers that
    /// exceed `timeout_ticks`.
    pub fn new(inner: C, schedule: &Schedule, timeout_ticks: u64) -> Self {
        FaultyCrowd {
            inner,
            clock: LogicalClock::new(),
            pending: schedule.events.clone(),
            timeout_ticks,
            departed: Default::default(),
            absent_until: Default::default(),
            trace: SimTrace::default(),
            asked: 0,
            tele: telemetry::Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle; fault injections are counted under
    /// `sim.*` and the sink's logical tick is kept in sync with the
    /// simulation clock.
    pub fn with_telemetry(mut self, tele: telemetry::Telemetry) -> Self {
        self.tele = tele;
        self
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &SimTrace {
        &self.trace
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Removes and returns the first due event for `member`, if any.
    /// Server kills share the schedule but target the server process
    /// model, not a member — they are left pending for the recovery
    /// harness and never fire here.
    fn take_due(&mut self, member: MemberId) -> Option<FaultEvent> {
        let now = self.clock.now();
        let idx = self
            .pending
            .iter()
            .position(|e| e.member == member.0 && e.at <= now && e.kind.is_member_fault())?;
        Some(self.pending.remove(idx))
    }
}

impl<C: CrowdSource> CrowdSource for FaultyCrowd<C> {
    fn members(&self) -> Vec<MemberId> {
        self.inner
            .members()
            .into_iter()
            .filter(|m| !self.departed.contains(&m.0))
            .collect()
    }

    fn ask(&mut self, member: MemberId, question: &Question) -> Answer {
        self.asked += 1;
        let tick = self.clock.advance(1);
        self.tele.sync_tick(tick);
        self.tele.count("sim.asks", 1);
        let q = describe_question(question);
        if self.departed.contains(&member.0) {
            self.tele.count("sim.asks_after_departure", 1);
            self.trace
                .push(tick, member, "depart", format!("{q} after-departure"));
            return Answer::Unavailable;
        }
        if self.absent_until.get(&member.0).is_some_and(|&u| tick < u) {
            self.tele.count("sim.absent_asks", 1);
            self.trace.push(tick, member, "absent", q);
            return Answer::NoResponse;
        }
        match self.take_due(member).map(|e| e.kind) {
            Some(FaultKind::Drop) => {
                // lost in transit: the inner member never sees it, so a
                // retry can still obtain the pristine answer
                self.tele.count("sim.drops", 1);
                self.trace.push(tick, member, "drop", q);
                Answer::NoResponse
            }
            Some(FaultKind::Delay(d)) if d > self.timeout_ticks => {
                self.tele.count("sim.delays_timed_out", 1);
                self.trace
                    .push(tick, member, "delay", format!("{q} late={d} timeout"));
                Answer::NoResponse
            }
            Some(FaultKind::Delay(d)) => {
                let tick = self.clock.advance(d);
                self.tele.sync_tick(tick);
                self.tele.count("sim.delays", 1);
                self.tele.observe("sim.delay_ticks", d);
                let ans = self.inner.ask(member, question);
                self.trace.push(
                    tick,
                    member,
                    "delay",
                    format!("{q} late={d} {}", describe_answer(&ans)),
                );
                ans
            }
            Some(FaultKind::Contradict) => {
                // the member answers truthfully, then sends a contradictory
                // re-answer; the engine's first-accepted-answer-wins rule
                // means only the trace ever sees the contradiction
                self.tele.count("sim.contradictions", 1);
                let ans = self.inner.ask(member, question);
                self.trace.push(
                    tick,
                    member,
                    "contradict",
                    format!("{q} kept={} re-answer-discarded", describe_answer(&ans)),
                );
                ans
            }
            Some(FaultKind::Depart) => {
                self.departed.insert(member.0);
                self.tele.count("sim.departures", 1);
                self.trace.push(tick, member, "depart", q);
                Answer::Unavailable
            }
            Some(FaultKind::Absent(d)) => {
                self.absent_until.insert(member.0, tick + d);
                self.tele.count("sim.absences", 1);
                self.trace
                    .push(tick, member, "absent", format!("{q} for={d}"));
                Answer::NoResponse
            }
            // server faults are filtered out by `take_due`; a crowd ask
            // proceeds normally even while the server process is faulting
            Some(FaultKind::ServerKill) | None => {
                let ans = self.inner.ask(member, question);
                self.trace.push(
                    tick,
                    member,
                    "ask",
                    format!("{q} {}", describe_answer(&ans)),
                );
                ans
            }
        }
    }

    fn questions_asked(&self) -> usize {
        self.asked
    }

    fn member_has_profile(&self, member: MemberId, label: &str) -> bool {
        self.inner.member_has_profile(member, label)
    }

    fn advance_clock(&mut self, ticks: u64) {
        let now = self.clock.advance(ticks);
        self.tele.sync_tick(now);
        self.inner.advance_clock(ticks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontology::PatternSet;

    /// A deterministic stub whose answers depend on how many asks it has
    /// *consumed* — so a drop that wrongly consumed the inner answer would
    /// shift every later answer and fail the retry test.
    struct StubCrowd {
        members: usize,
        consumed: usize,
    }

    fn crowd(n: usize) -> StubCrowd {
        StubCrowd {
            members: n,
            consumed: 0,
        }
    }

    impl CrowdSource for StubCrowd {
        fn members(&self) -> Vec<MemberId> {
            (0..self.members as u32).map(MemberId).collect()
        }

        fn ask(&mut self, _member: MemberId, _question: &Question) -> Answer {
            self.consumed += 1;
            Answer::Support {
                support: 1.0 / self.consumed as f64,
                more_tip: None,
            }
        }

        fn questions_asked(&self) -> usize {
            self.consumed
        }
    }

    fn concrete() -> Question {
        Question::Concrete {
            pattern: PatternSet::default(),
        }
    }

    #[test]
    fn fault_free_wrapper_is_transparent() {
        let mut plain = crowd(2);
        let mut wrapped = FaultyCrowd::new(crowd(2), &Schedule::fault_free(), 4);
        for i in 0..6 {
            let m = MemberId(i % 2);
            assert_eq!(plain.ask(m, &concrete()), wrapped.ask(m, &concrete()));
        }
        assert_eq!(wrapped.questions_asked(), 6);
        assert_eq!(wrapped.trace().entries.len(), 6);
    }

    #[test]
    fn drop_preserves_the_inner_answer_for_the_retry() {
        let mut plain = crowd(1);
        let schedule = Schedule::parse("d0@0").unwrap();
        let mut wrapped = FaultyCrowd::new(crowd(1), &schedule, 4);
        assert_eq!(wrapped.ask(MemberId(0), &concrete()), Answer::NoResponse);
        // retry sees exactly what the fault-free crowd would have answered
        // first — the drop never consumed the member's answer
        assert_eq!(
            wrapped.ask(MemberId(0), &concrete()),
            plain.ask(MemberId(0), &concrete())
        );
    }

    #[test]
    fn delay_within_timeout_delivers_late_but_intact() {
        let mut plain = crowd(1);
        let schedule = Schedule::parse("y0@0(3)").unwrap();
        let mut wrapped = FaultyCrowd::new(crowd(1), &schedule, 4);
        assert_eq!(
            wrapped.ask(MemberId(0), &concrete()),
            plain.ask(MemberId(0), &concrete())
        );
        assert_eq!(wrapped.now(), 4); // 1 (ask) + 3 (delay)
    }

    #[test]
    fn delay_past_timeout_is_a_drop() {
        let schedule = Schedule::parse("y0@0(9)").unwrap();
        let mut wrapped = FaultyCrowd::new(crowd(1), &schedule, 4);
        assert_eq!(wrapped.ask(MemberId(0), &concrete()), Answer::NoResponse);
    }

    #[test]
    fn departure_removes_the_member_permanently() {
        let schedule = Schedule::parse("x0@0").unwrap();
        let mut wrapped = FaultyCrowd::new(crowd(2), &schedule, 4);
        assert_eq!(wrapped.members().len(), 2);
        assert_eq!(wrapped.ask(MemberId(0), &concrete()), Answer::Unavailable);
        assert_eq!(wrapped.members(), vec![MemberId(1)]);
        assert_eq!(wrapped.ask(MemberId(0), &concrete()), Answer::Unavailable);
    }

    #[test]
    fn absence_ends_after_the_window() {
        let schedule = Schedule::parse("a0@0(3)").unwrap();
        let mut wrapped = FaultyCrowd::new(crowd(1), &schedule, 4);
        assert_eq!(wrapped.ask(MemberId(0), &concrete()), Answer::NoResponse);
        // still inside the absence window
        assert_eq!(wrapped.ask(MemberId(0), &concrete()), Answer::NoResponse);
        // backoff advances the clock past the window
        wrapped.advance_clock(4);
        assert!(!matches!(
            wrapped.ask(MemberId(0), &concrete()),
            Answer::NoResponse
        ));
    }

    #[test]
    fn contradiction_keeps_the_true_answer() {
        let mut plain = crowd(1);
        let schedule = Schedule::parse("c0@0").unwrap();
        let mut wrapped = FaultyCrowd::new(crowd(1), &schedule, 4);
        assert_eq!(
            wrapped.ask(MemberId(0), &concrete()),
            plain.ask(MemberId(0), &concrete())
        );
        assert_eq!(wrapped.trace().entries[0].kind, "contradict");
    }

    #[test]
    fn trace_digest_is_deterministic() {
        let run = || {
            let schedule = Schedule::generate(7, 2, 20, 6);
            let mut wrapped = FaultyCrowd::new(crowd(2), &schedule, 4);
            for i in 0..10 {
                let _ = wrapped.ask(MemberId(i % 2), &concrete());
            }
            wrapped.trace().digest()
        };
        assert_eq!(run(), run());
    }
}
