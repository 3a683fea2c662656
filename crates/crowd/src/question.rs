//! The question/answer protocol between the mining engine and the crowd.

use ontology::{ElemId, Fact, PatternSet};

/// Identifier of a crowd member within a [`CrowdSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemberId(pub u32);

impl MemberId {
    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A question posed to one crowd member (Section 2, "Questions to the
/// crowd").
#[derive(Debug, Clone, PartialEq)]
pub enum Question {
    /// A *concrete* question: "How often do you ⟨pattern⟩?" — retrieves
    /// the member's support for the pattern-set.
    Concrete {
        /// The pattern-set asked about.
        pattern: PatternSet,
    },
    /// A *specialization* question: "What type of … do you do? How often?"
    /// The UI presents auto-completion `options` (more specific
    /// pattern-sets consistent with the query); the member picks one that
    /// is significant for them, or answers "none of these".
    Specialization {
        /// The base pattern being specialized.
        base: PatternSet,
        /// The candidate specializations offered.
        options: Vec<PatternSet>,
    },
}

impl Question {
    /// The pattern the question is about (the base, for specializations).
    pub fn pattern(&self) -> &PatternSet {
        match self {
            Question::Concrete { pattern } => pattern,
            Question::Specialization { base, .. } => base,
        }
    }
}

/// A crowd member's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Answer to a concrete question: the reported support, plus an
    /// optional volunteered MORE fact ("rent the bikes at the Boathouse")
    /// — the UI's *more* button (Section 6.2).
    Support {
        /// Reported support in `[0, 1]`.
        support: f64,
        /// A frequently co-occurring fact the member volunteered.
        more_tip: Option<Fact>,
    },
    /// Answer to a specialization question: the index of the chosen option
    /// and its reported support.
    Specialized {
        /// Index into the question's `options`.
        choice: usize,
        /// Reported support of the chosen option.
        support: f64,
    },
    /// "None of these": every offered specialization has support 0 — the
    /// engine learns the answers to many concrete questions at once
    /// (Section 6.2).
    NoneOfThese,
    /// User-guided pruning: the member clicked a value as irrelevant;
    /// every assignment involving this element **or a more specific one**
    /// has support 0 for this member (Section 6.2).
    Irrelevant {
        /// The irrelevant element.
        elem: ElemId,
    },
    /// The member has left the session (Section 4.2: "the outer loop …
    /// can be terminated at any point if the user does not wish to answer
    /// more questions").
    Unavailable,
    /// No answer arrived within the per-question timeout of the engine's
    /// [`CrowdPolicy`](crate::CrowdPolicy). Transient: the member is still
    /// in the session and may answer a retry — unlike
    /// [`Answer::Unavailable`], this must never deactivate the member.
    /// Never cached (there is nothing to cache).
    NoResponse,
}

/// A source of crowd answers. The production implementation would be a
/// crowdsourcing UI; tests and experiments use [`SimulatedCrowd`](crate::SimulatedCrowd)
/// or the planted-ground-truth oracle in `oassis-core`.
pub trait CrowdSource {
    /// The members currently available.
    fn members(&self) -> Vec<MemberId>;

    /// Poses `question` to `member`.
    fn ask(&mut self, member: MemberId, question: &Question) -> Answer;

    /// Total number of questions asked so far (bookkeeping for the
    /// experiments' question counts).
    fn questions_asked(&self) -> usize;

    /// Whether `member` carries a profile label (for the `ASKING "label"`
    /// crowd-selection clause, a Section-8 extension). Sources without
    /// profile information accept everyone.
    fn member_has_profile(&self, member: MemberId, label: &str) -> bool {
        let _ = (member, label);
        true
    }

    /// Notifies the source that the engine is waiting `ticks` logical
    /// clock ticks (retry backoff of the [`CrowdPolicy`](crate::CrowdPolicy)).
    /// Simulated sources advance their event clock so delayed answers can
    /// arrive; real sources (and the default) ignore it — wall-clock
    /// waiting belongs to the transport, not the protocol.
    fn advance_clock(&mut self, ticks: u64) {
        let _ = ticks;
    }
}

impl<C: CrowdSource + ?Sized> CrowdSource for &mut C {
    fn members(&self) -> Vec<MemberId> {
        (**self).members()
    }

    fn ask(&mut self, member: MemberId, question: &Question) -> Answer {
        (**self).ask(member, question)
    }

    fn questions_asked(&self) -> usize {
        (**self).questions_asked()
    }

    fn member_has_profile(&self, member: MemberId, label: &str) -> bool {
        (**self).member_has_profile(member, label)
    }

    fn advance_clock(&mut self, ticks: u64) {
        (**self).advance_clock(ticks)
    }
}
