//! Deterministic simulated crowd members — the reproduction's substitute
//! for the paper's 248 human contributors (see DESIGN.md §5).

use crate::answer_model::AnswerModel;
use crate::db::PersonalDb;
use crate::question::{Answer, CrowdSource, MemberId, Question};
use ontology::{Fact, PatternSet, Vocabulary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Behavioural knobs of a simulated member, calibrated against the answer
/// mix the paper observed (Section 6.3: 12% specialization answers, half
/// of them "none of these", 13% user-guided pruning).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemberBehavior {
    /// Maximum questions the member answers before leaving the session
    /// (`None` = unlimited). The paper observed ~20 answers per member per
    /// query.
    pub session_limit: Option<usize>,
    /// Probability of answering a zero-support concrete question with a
    /// user-guided-pruning click instead (when an irrelevant element
    /// occurs in the question).
    pub pruning_prob: f64,
    /// Probability of volunteering a MORE tip on a positively-supported
    /// concrete question.
    pub more_tip_prob: f64,
    /// A spammer answers uniformly at random, ignoring their database
    /// (used to exercise the quality filter of Section 4.2).
    pub spammer: bool,
    /// Every `k`-th question *received* goes unanswered within the
    /// engine's timeout ([`Answer::NoResponse`]): the member stalls but
    /// stays in the session, so a retry under a
    /// [`CrowdPolicy`](crate::CrowdPolicy) succeeds. Stalled questions do
    /// not count against [`session_limit`](Self::session_limit) — the
    /// member never saw them through. `None` = never stalls.
    pub stall_every: Option<usize>,
}

impl Default for MemberBehavior {
    fn default() -> Self {
        MemberBehavior {
            session_limit: None,
            pruning_prob: 0.0,
            more_tip_prob: 0.0,
            spammer: false,
            stall_every: None,
        }
    }
}

/// One simulated crowd member: a ground-truth [`PersonalDb`], behaviour
/// knobs, an [`AnswerModel`] and a private seeded RNG.
#[derive(Debug, Clone)]
pub struct SimulatedMember {
    /// The member's ground-truth personal database.
    pub db: PersonalDb,
    /// Behaviour knobs.
    pub behavior: MemberBehavior,
    /// How true supports are reported.
    pub answer_model: AnswerModel,
    /// Profile labels (matched by the `ASKING "label"` clause).
    pub profile: Vec<String>,
    rng: StdRng,
    questions_answered: usize,
    asks_seen: usize,
}

impl SimulatedMember {
    /// Creates a member. All randomness derives from `seed`.
    pub fn new(
        db: PersonalDb,
        behavior: MemberBehavior,
        answer_model: AnswerModel,
        seed: u64,
    ) -> Self {
        SimulatedMember {
            db,
            behavior,
            answer_model,
            profile: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            questions_answered: 0,
            asks_seen: 0,
        }
    }

    /// Attaches profile labels (builder style).
    pub fn with_profile(mut self, labels: &[&str]) -> Self {
        self.profile = labels.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    /// Questions answered so far in the current session.
    pub fn questions_answered(&self) -> usize {
        self.questions_answered
    }

    /// Resets the per-session question counter (a member returning for a
    /// new query).
    pub fn reset_session(&mut self) {
        self.questions_answered = 0;
        self.asks_seen = 0;
    }

    /// Answers a question against the member's ground truth.
    pub fn answer(&mut self, vocab: &Vocabulary, q: &Question) -> Answer {
        if let Some(limit) = self.behavior.session_limit {
            if self.questions_answered >= limit {
                return Answer::Unavailable;
            }
        }
        self.asks_seen += 1;
        if let Some(k) = self.behavior.stall_every {
            if k > 0 && self.asks_seen.is_multiple_of(k) {
                return Answer::NoResponse;
            }
        }
        self.questions_answered += 1;
        if self.behavior.spammer {
            return self.spam_answer(q);
        }
        match q {
            Question::Concrete { pattern } => self.answer_concrete(vocab, pattern),
            Question::Specialization { options, .. } => self.answer_specialization(vocab, options),
        }
    }

    fn spam_answer(&mut self, q: &Question) -> Answer {
        match q {
            Question::Concrete { .. } => Answer::Support {
                support: (self.rng.gen_range(0..=4) as f64) * 0.25,
                more_tip: None,
            },
            Question::Specialization { options, .. } => {
                if options.is_empty() {
                    Answer::NoneOfThese
                } else {
                    Answer::Specialized {
                        choice: self.rng.gen_range(0..options.len()),
                        support: (self.rng.gen_range(1..=4) as f64) * 0.25,
                    }
                }
            }
        }
    }

    fn answer_concrete(&mut self, vocab: &Vocabulary, pattern: &PatternSet) -> Answer {
        let true_support = self.db.support(vocab, pattern);
        if true_support == 0.0 && self.behavior.pruning_prob > 0.0 {
            if let Some(elem) = self.irrelevant_element(vocab, pattern) {
                if self.rng.gen_bool(self.behavior.pruning_prob) {
                    return Answer::Irrelevant { elem };
                }
            }
        }
        let support = self.answer_model.report(true_support, &mut self.rng);
        let more_tip = if true_support > 0.0
            && self.behavior.more_tip_prob > 0.0
            && self.rng.gen_bool(self.behavior.more_tip_prob)
        {
            self.best_cooccurring_fact(vocab, pattern)
        } else {
            None
        };
        Answer::Support { support, more_tip }
    }

    fn answer_specialization(&mut self, vocab: &Vocabulary, options: &[PatternSet]) -> Answer {
        let mut best: Option<(usize, f64)> = None;
        for (i, opt) in options.iter().enumerate() {
            let s = self.db.support(vocab, opt);
            if s > 0.0 && best.is_none_or(|(_, b)| s > b) {
                best = Some((i, s));
            }
        }
        match best {
            Some((choice, s)) => Answer::Specialized {
                choice,
                support: self.answer_model.report(s, &mut self.rng),
            },
            None => Answer::NoneOfThese,
        }
    }

    /// A constant element of `pattern` that never occurs (even via
    /// specializations) in the member's history.
    fn irrelevant_element(
        &self,
        vocab: &Vocabulary,
        pattern: &PatternSet,
    ) -> Option<ontology::ElemId> {
        pattern
            .iter()
            .flat_map(|p| [p.subject, p.object])
            .flatten()
            .find(|&e| !self.db.element_relevant(vocab, e))
    }

    /// The most frequent concrete fact co-occurring with `pattern` in the
    /// member's supporting transactions that is not already covered by the
    /// pattern. Ties break on fact order for determinism.
    fn best_cooccurring_fact(&self, vocab: &Vocabulary, pattern: &PatternSet) -> Option<Fact> {
        let mut counts: HashMap<Fact, usize> = HashMap::new();
        for t in self.db.transactions() {
            if !pattern.supported_by(vocab, t) {
                continue;
            }
            for g in t.iter() {
                let covered = pattern.iter().any(|p| p.leq_fact(vocab, g));
                if !covered {
                    *counts.entry(g).or_insert(0) += 1;
                }
            }
        }
        counts
            .into_iter()
            .max_by(|(fa, ca), (fb, cb)| ca.cmp(cb).then(fb.cmp(fa)))
            .map(|(f, _)| f)
    }
}

/// A crowd of simulated members sharing a vocabulary, implementing
/// [`CrowdSource`].
#[derive(Debug)]
pub struct SimulatedCrowd<'a> {
    vocab: &'a Vocabulary,
    members: Vec<SimulatedMember>,
    questions: usize,
}

impl<'a> SimulatedCrowd<'a> {
    /// Creates a crowd.
    pub fn new(vocab: &'a Vocabulary, members: Vec<SimulatedMember>) -> Self {
        SimulatedCrowd {
            vocab,
            members,
            questions: 0,
        }
    }

    /// Access to a member (e.g. to inspect ground truth in tests).
    pub fn member(&self, id: MemberId) -> &SimulatedMember {
        &self.members[id.index()] // PANIC-OK: member ids are minted by this registry and stay in range
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the crowd is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &'a Vocabulary {
        self.vocab
    }

    /// Average true support of `pattern` over all members (simulation
    /// ground truth, used to validate mining output in tests).
    pub fn true_average_support(&self, pattern: &PatternSet) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .members
            .iter()
            .map(|m| m.db.support(self.vocab, pattern))
            .sum();
        sum / self.members.len() as f64
    }
}

impl CrowdSource for SimulatedCrowd<'_> {
    fn members(&self) -> Vec<MemberId> {
        (0..self.members.len() as u32).map(MemberId).collect()
    }

    fn ask(&mut self, member: MemberId, question: &Question) -> Answer {
        self.questions += 1;
        self.members[member.index()].answer(self.vocab, question) // PANIC-OK: member ids are minted by this registry and stay in range
    }

    fn questions_asked(&self) -> usize {
        self.questions
    }

    fn member_has_profile(&self, member: MemberId, label: &str) -> bool {
        self.members[member.index()] // PANIC-OK: member ids are minted by this registry and stay in range
            .profile
            .iter()
            .any(|l| l == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontology::domains::figure1;
    use ontology::PatternSet;

    fn u1(behavior: MemberBehavior, model: AnswerModel) -> (ontology::Ontology, SimulatedMember) {
        let ont = figure1::ontology();
        let [d1, _] = figure1::personal_dbs(&ont);
        let m = SimulatedMember::new(PersonalDb::from_transactions(d1), behavior, model, 7);
        (ont, m)
    }

    #[test]
    fn concrete_answer_reports_true_support() {
        let (ont, mut m) = u1(MemberBehavior::default(), AnswerModel::Exact);
        let v = ont.vocab();
        let p = PatternSet::from_facts([v.fact("Biking", "doAt", "Central Park").unwrap()]);
        match m.answer(v, &Question::Concrete { pattern: p }) {
            Answer::Support { support, more_tip } => {
                assert!((support - 1.0 / 3.0).abs() < 1e-12);
                assert!(more_tip.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn session_limit_yields_unavailable() {
        let behavior = MemberBehavior {
            session_limit: Some(2),
            ..Default::default()
        };
        let (ont, mut m) = u1(behavior, AnswerModel::Exact);
        let v = ont.vocab();
        let p = PatternSet::new();
        let q = Question::Concrete { pattern: p };
        assert!(matches!(m.answer(v, &q), Answer::Support { .. }));
        assert!(matches!(m.answer(v, &q), Answer::Support { .. }));
        assert!(matches!(m.answer(v, &q), Answer::Unavailable));
        m.reset_session();
        assert!(matches!(m.answer(v, &q), Answer::Support { .. }));
    }

    #[test]
    fn pruning_click_on_irrelevant_element() {
        let behavior = MemberBehavior {
            pruning_prob: 1.0,
            ..Default::default()
        };
        let (ont, mut m) = u1(behavior, AnswerModel::Exact);
        let v = ont.vocab();
        // u1 never swims: a question about swimming should trigger pruning.
        let p = PatternSet::from_facts([v.fact("Swimming", "doAt", "Central Park").unwrap()]);
        match m.answer(v, &Question::Concrete { pattern: p }) {
            Answer::Irrelevant { elem } => assert_eq!(elem, v.elem_id("Swimming").unwrap()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_pruning_when_support_positive() {
        let behavior = MemberBehavior {
            pruning_prob: 1.0,
            ..Default::default()
        };
        let (ont, mut m) = u1(behavior, AnswerModel::Exact);
        let v = ont.vocab();
        let p = PatternSet::from_facts([v.fact("Biking", "doAt", "Central Park").unwrap()]);
        assert!(matches!(
            m.answer(v, &Question::Concrete { pattern: p }),
            Answer::Support { .. }
        ));
    }

    #[test]
    fn more_tip_is_the_boathouse() {
        // Asking u1 about biking in Central Park + falafel at Maoz: the
        // co-occurring tip is renting bikes at the Boathouse (Example 3.2).
        let behavior = MemberBehavior {
            more_tip_prob: 1.0,
            ..Default::default()
        };
        let (ont, mut m) = u1(behavior, AnswerModel::Exact);
        let v = ont.vocab();
        let p = PatternSet::from_facts([
            v.fact("Biking", "doAt", "Central Park").unwrap(),
            v.fact("Falafel", "eatAt", "Maoz Veg").unwrap(),
        ]);
        match m.answer(v, &Question::Concrete { pattern: p }) {
            Answer::Support {
                more_tip: Some(f), ..
            } => {
                assert_eq!(v.fact_to_string(f), "Rent Bikes doAt Boathouse");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn specialization_picks_most_frequent_option() {
        let (ont, mut m) = u1(MemberBehavior::default(), AnswerModel::Exact);
        let v = ont.vocab();
        let base = PatternSet::from_facts([v.fact("Sport", "doAt", "Central Park").unwrap()]);
        let options = vec![
            PatternSet::from_facts([v.fact("Swimming", "doAt", "Central Park").unwrap()]),
            PatternSet::from_facts([v.fact("Biking", "doAt", "Central Park").unwrap()]), // 2/6
            PatternSet::from_facts([v.fact("Baseball", "doAt", "Central Park").unwrap()]), // 1/6
        ];
        match m.answer(v, &Question::Specialization { base, options }) {
            Answer::Specialized { choice, support } => {
                assert_eq!(choice, 1);
                assert!((support - 1.0 / 3.0).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn specialization_none_of_these() {
        let (ont, mut m) = u1(MemberBehavior::default(), AnswerModel::Exact);
        let v = ont.vocab();
        let base = PatternSet::from_facts([v.fact("Water Sport", "doAt", "Central Park").unwrap()]);
        let options = vec![
            PatternSet::from_facts([v.fact("Swimming", "doAt", "Central Park").unwrap()]),
            PatternSet::from_facts([v.fact("Water Polo", "doAt", "Central Park").unwrap()]),
        ];
        assert_eq!(
            m.answer(v, &Question::Specialization { base, options }),
            Answer::NoneOfThese
        );
    }

    #[test]
    fn spammer_ignores_ground_truth() {
        let behavior = MemberBehavior {
            spammer: true,
            ..Default::default()
        };
        let (ont, mut m) = u1(behavior, AnswerModel::Exact);
        let v = ont.vocab();
        // ask many times about an impossible pattern; a spammer will
        // eventually report non-zero support
        let p = PatternSet::from_facts([v.fact("Swimming", "doAt", "Central Park").unwrap()]);
        let mut saw_nonzero = false;
        for _ in 0..50 {
            if let Answer::Support { support, .. } =
                m.answer(v, &Question::Concrete { pattern: p.clone() })
            {
                if support > 0.0 {
                    saw_nonzero = true;
                }
            }
        }
        assert!(saw_nonzero);
    }

    #[test]
    fn stalling_member_recovers_on_retry() {
        let behavior = MemberBehavior {
            stall_every: Some(2),
            ..Default::default()
        };
        let (ont, mut m) = u1(behavior, AnswerModel::Exact);
        let v = ont.vocab();
        let p = PatternSet::from_facts([v.fact("Biking", "doAt", "Central Park").unwrap()]);
        let q = Question::Concrete { pattern: p };
        // 1st ask answers, 2nd stalls, the retry (3rd ask) answers again —
        // and the stall never counts against the session limit
        assert!(matches!(m.answer(v, &q), Answer::Support { .. }));
        assert!(matches!(m.answer(v, &q), Answer::NoResponse));
        assert!(matches!(m.answer(v, &q), Answer::Support { .. }));
        assert_eq!(m.questions_answered(), 2);
    }

    #[test]
    fn crowd_counts_questions() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let [d1, d2] = figure1::personal_dbs(&ont);
        let members = vec![
            SimulatedMember::new(
                PersonalDb::from_transactions(d1),
                MemberBehavior::default(),
                AnswerModel::Exact,
                1,
            ),
            SimulatedMember::new(
                PersonalDb::from_transactions(d2),
                MemberBehavior::default(),
                AnswerModel::Exact,
                2,
            ),
        ];
        let mut crowd = SimulatedCrowd::new(v, members);
        assert_eq!(crowd.members().len(), 2);
        let p = PatternSet::from_facts([v.fact("Biking", "doAt", "Central Park").unwrap()]);
        // true average support = avg(1/3, 1/2) = 5/12 (Example 3.1)
        assert!((crowd.true_average_support(&p) - 5.0 / 12.0).abs() < 1e-12);
        crowd.ask(MemberId(0), &Question::Concrete { pattern: p.clone() });
        crowd.ask(MemberId(1), &Question::Concrete { pattern: p });
        assert_eq!(crowd.questions_asked(), 2);
    }
}
