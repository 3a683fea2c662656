//! `CrowdCache` (Section 6.1/6.3): caching crowd answers per
//! (pattern, member) so that re-evaluating the same query with a different
//! support threshold re-uses answers instead of re-asking.
//!
//! "We have used the answers from the crowd to simulate executing the same
//! query with different support thresholds: note that the crowd answers
//! are independent of the threshold. … In the statistics below, we count
//! for each threshold only the answers used by the algorithm out of the
//! cached ones." — the engine's own `questions` counter counts *used*
//! answers, while [`CachingCrowd::fresh_questions`] counts actual crowd
//! work.

use crate::dag::FxBuildHasher;
use crate::wire::{elem_id, read_fact, rel_id, write_fact};
use crowd::{Answer, CrowdSource, MemberId, Question};
use ontology::json::{JsonError, Reader, Writer};
use ontology::{PatternFact, PatternSet, Vocabulary};
use std::collections::HashMap;
use telemetry::lockorder::TrackedMutex;

/// A store of concrete-question answers.
///
/// Only concrete questions are cached: specialization questions depend on
/// the offered options, which vary between runs. (A specialization answer
/// does imply a concrete answer for the chosen option, but the paper's
/// CrowdCache records answers per assignment, which is what we keep.)
///
/// Both maps use the Fx hasher: their keys are member ids and pattern
/// sets the engine built from vocabulary ids, and every walk over them
/// ([`Self::members`], [`Self::entries_of`]) sorts.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CrowdCache {
    answers: HashMap<MemberId, HashMap<PatternSet, CachedAnswer, FxBuildHasher>, FxBuildHasher>,
}

/// A cached concrete answer.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedAnswer {
    /// Reported support (+ volunteered MORE fact, if any).
    Support {
        /// The reported support.
        support: f64,
        /// A volunteered MORE fact.
        more_tip: Option<ontology::Fact>,
    },
    /// A user-guided pruning click.
    Irrelevant {
        /// The element clicked irrelevant.
        elem: ontology::ElemId,
    },
}

impl CrowdCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.answers.values().map(HashMap::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a cached answer.
    pub fn get(&self, member: MemberId, pattern: &PatternSet) -> Option<&CachedAnswer> {
        self.answers.get(&member)?.get(pattern)
    }

    /// Stores an answer.
    pub fn put(&mut self, member: MemberId, pattern: PatternSet, answer: CachedAnswer) {
        self.answers
            .entry(member)
            .or_default()
            .insert(pattern, answer);
    }

    /// The members holding cached answers, in id order. With
    /// [`Self::entries_of`] it walks the cache member by member; the
    /// benchmark's `serve` mirror is the caller.
    pub fn members(&self) -> Vec<MemberId> {
        let mut ids: Vec<MemberId> = self
            .answers
            .iter()
            .filter(|(_, inner)| !inner.is_empty())
            .map(|(&m, _)| m)
            .collect();
        ids.sort();
        ids
    }

    /// One member's cached entries, sorted by pattern for determinism.
    pub fn entries_of(&self, member: MemberId) -> Vec<(&PatternSet, &CachedAnswer)> {
        let mut entries: Vec<(&PatternSet, &CachedAnswer)> = self
            .answers
            .get(&member)
            .map(|inner| inner.iter().collect())
            .unwrap_or_default();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries
    }
}

/// Writes one `(pattern, answer)` cache entry: the payload of the WAL's
/// `answer` record.
pub fn write_entry(w: &mut Writer, pattern: &PatternSet, answer: &CachedAnswer) {
    w.items(|i| {
        write_pattern(i.item(), pattern);
        write_answer(i.item(), answer);
    });
}

/// Reads a cache entry written by [`write_entry`] off `r`,
/// building no tree. Every element and relation id is checked against
/// `vocab`: one past it is a shape error.
pub fn read_entry(
    vocab: &Vocabulary,
    r: &mut Reader<'_>,
) -> Result<(PatternSet, CachedAnswer), JsonError> {
    r.items("a [pattern, answer] entry", |i| {
        Ok((
            i.item(|r| read_pattern(vocab, r))?,
            i.item(|r| read_answer(vocab, r))?,
        ))
    })
}

fn write_pattern(w: &mut Writer, p: &PatternSet) {
    w.vec(p.iter(), |w, f| {
        w.items(|i| {
            i.item().opt(f.subject.map(|e| e.0), Writer::u32);
            i.item().opt(f.rel.map(|r| r.0), Writer::u32);
            i.item().opt(f.object.map(|e| e.0), Writer::u32);
        })
    });
}

fn read_pattern(vocab: &Vocabulary, r: &mut Reader<'_>) -> Result<PatternSet, JsonError> {
    let facts = r.vec(|r| {
        r.items("a [subject, rel, object] pattern", |i| {
            let elem = |r: &mut Reader<'_>| r.opt(|r| elem_id(vocab, r.u32()?));
            Ok(PatternFact {
                subject: i.item(elem)?,
                rel: i.item(|r| r.opt(|r| rel_id(vocab, r.u32()?)))?,
                object: i.item(elem)?,
            })
        })
    })?;
    Ok(PatternSet::from_iter(facts))
}

fn write_answer(w: &mut Writer, a: &CachedAnswer) {
    match a {
        CachedAnswer::Support { support, more_tip } => w.variant("Support", |k| {
            k.next("support").f64(*support);
            k.next("more_tip").opt(more_tip.as_ref(), write_fact);
        }),
        CachedAnswer::Irrelevant { elem } => {
            w.variant("Irrelevant", |k| k.next("elem").u32(elem.0))
        }
    }
}

/// Reads the single-variant answer object [`write_answer`] writes.
fn read_answer(vocab: &Vocabulary, r: &mut Reader<'_>) -> Result<CachedAnswer, JsonError> {
    r.variant(|tag, k| {
        Ok(match tag {
            "Support" => CachedAnswer::Support {
                support: k.next("support", Reader::f64)?,
                more_tip: k.next("more_tip", |r| r.opt(|r| read_fact(vocab, r)))?,
            },
            "Irrelevant" => CachedAnswer::Irrelevant {
                elem: k.next("elem", |r| elem_id(vocab, r.u32()?))?,
            },
            other => {
                return Err(JsonError::shape(format!(
                    "unknown answer variant {other:?}"
                )))
            }
        })
    })
}

/// A thread-safe [`CrowdCache`] for the serving layer's sessions: the
/// queries of a session, served on whichever connection thread carries
/// them, share one answer store, so a pattern any query already asked a
/// member about is never re-asked.
///
/// A single mutex guards the store. Lookups clone the cached answer out
/// under the lock; the lock is never held across a crowd call, so
/// threads only contend for the duration of a hash-map probe.
#[derive(Debug)]
pub struct SharedCrowdCache {
    inner: TrackedMutex<CrowdCache>,
}

impl Default for SharedCrowdCache {
    fn default() -> SharedCrowdCache {
        SharedCrowdCache::new(CrowdCache::default())
    }
}

impl SharedCrowdCache {
    /// Wraps an existing cache (use `SharedCrowdCache::default()` for an
    /// empty one).
    pub fn new(cache: CrowdCache) -> Self {
        SharedCrowdCache {
            inner: TrackedMutex::new("core.cache.inner", cache),
        }
    }

    /// Unwraps the inner cache.
    pub fn into_inner(self) -> CrowdCache {
        self.inner.into_inner().expect("cache mutex poisoned") // PANIC-OK: poisoning means a worker already panicked; propagate it
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache mutex poisoned").len() // PANIC-OK: poisoning means a worker already panicked; propagate it
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a cached answer (cloned out under the lock).
    pub fn get(&self, member: MemberId, pattern: &PatternSet) -> Option<CachedAnswer> {
        self.inner
            .lock()
            .expect("cache mutex poisoned") // PANIC-OK: poisoning means a worker already panicked; propagate it
            .get(member, pattern)
            .cloned()
    }

    /// Stores an answer.
    pub fn put(&self, member: MemberId, pattern: PatternSet, answer: CachedAnswer) {
        self.inner
            .lock()
            .expect("cache mutex poisoned") // PANIC-OK: poisoning means a worker already panicked; propagate it
            .put(member, pattern, answer)
    }
}

/// Where a [`CachingCrowd`] keeps answers: a [`CrowdCache`] owned by one
/// caller, a [`SharedCrowdCache`] that sessions share, or a durable
/// store that logs each answer before caching it.
pub trait AnswerStore {
    /// The cached answer of `member` about `pattern`, if any.
    fn get(&self, member: MemberId, pattern: &PatternSet) -> Option<CachedAnswer>;

    /// Stores a fresh answer. `tick` is the wrapper's question count at
    /// the ask that produced it (the engine's question tick), so a durable
    /// store can log answers on the same clock as the op-log.
    fn put(&mut self, member: MemberId, pattern: &PatternSet, answer: CachedAnswer, tick: usize);
}

impl AnswerStore for &mut CrowdCache {
    fn get(&self, member: MemberId, pattern: &PatternSet) -> Option<CachedAnswer> {
        (**self).get(member, pattern).cloned()
    }

    fn put(&mut self, member: MemberId, pattern: &PatternSet, answer: CachedAnswer, _: usize) {
        (**self).put(member, pattern.clone(), answer);
    }
}

impl AnswerStore for &SharedCrowdCache {
    fn get(&self, member: MemberId, pattern: &PatternSet) -> Option<CachedAnswer> {
        (**self).get(member, pattern)
    }

    fn put(&mut self, member: MemberId, pattern: &PatternSet, answer: CachedAnswer, _: usize) {
        (**self).put(member, pattern.clone(), answer);
    }
}

/// A [`CrowdSource`] adaptor that consults an [`AnswerStore`] before
/// forwarding to the inner crowd: a cached concrete answer never reaches
/// the crowd, and every fresh cacheable answer is stored.
pub struct CachingCrowd<C, S> {
    inner: C,
    store: S,
    asked: usize,
    fresh: usize,
    stored: usize,
}

/// A [`CachingCrowd`] over a [`SharedCrowdCache`]: any number of
/// sessions can wrap the same store.
pub type SharedCachingCrowd<'c, C> = CachingCrowd<C, &'c SharedCrowdCache>;

impl<C: CrowdSource, S: AnswerStore> CachingCrowd<C, S> {
    /// Wraps `inner` with `store`.
    pub fn new(inner: C, store: S) -> Self {
        CachingCrowd {
            inner,
            store,
            asked: 0,
            fresh: 0,
            stored: 0,
        }
    }

    /// Questions that actually reached the inner crowd (cache misses and
    /// non-cacheable questions).
    pub fn fresh_questions(&self) -> usize {
        self.fresh
    }

    /// All questions, including cache hits.
    pub fn total_questions(&self) -> usize {
        self.asked
    }

    /// Fresh answers handed to the store. Equal to
    /// [`fresh_questions`](Self::fresh_questions) exactly when every
    /// question that reached the crowd left its answer in the store, so
    /// a re-run over the store would reach the crowd with none.
    pub fn stored_answers(&self) -> usize {
        self.stored
    }

    /// Unwraps the inner crowd.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: CrowdSource, S: AnswerStore> CrowdSource for CachingCrowd<C, S> {
    fn members(&self) -> Vec<MemberId> {
        self.inner.members()
    }

    fn ask(&mut self, member: MemberId, question: &Question) -> Answer {
        self.asked += 1;
        let Question::Concrete { pattern } = question else {
            self.fresh += 1;
            return self.inner.ask(member, question);
        };
        match self.store.get(member, pattern) {
            Some(CachedAnswer::Support { support, more_tip }) => {
                return Answer::Support { support, more_tip }
            }
            Some(CachedAnswer::Irrelevant { elem }) => return Answer::Irrelevant { elem },
            None => {}
        }
        self.fresh += 1;
        let answer = self.inner.ask(member, question);
        let cached = match answer {
            Answer::Support { support, more_tip } => CachedAnswer::Support { support, more_tip },
            Answer::Irrelevant { elem } => CachedAnswer::Irrelevant { elem },
            _ => return answer,
        };
        self.store.put(member, pattern, cached, self.asked);
        self.stored += 1;
        answer
    }

    fn questions_asked(&self) -> usize {
        self.asked
    }

    fn member_has_profile(&self, member: MemberId, label: &str) -> bool {
        self.inner.member_has_profile(member, label)
    }

    fn advance_clock(&mut self, ticks: u64) {
        self.inner.advance_clock(ticks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Dag;
    use crate::vertical::{run_vertical, MiningConfig};
    use crowd::{AnswerModel, MemberBehavior, PersonalDb, SimulatedCrowd, SimulatedMember};
    use oassis_ql::{bind, evaluate_where, parse, MatchMode};
    use ontology::domains::figure1;

    fn u_avg(ont: &ontology::Ontology) -> SimulatedMember {
        let [d1, d2] = figure1::personal_dbs(ont);
        let mut tx = d1;
        for _ in 0..3 {
            tx.extend(d2.iter().cloned());
        }
        SimulatedMember::new(
            PersonalDb::from_transactions(tx),
            MemberBehavior::default(),
            AnswerModel::Exact,
            0,
        )
    }

    #[test]
    fn threshold_reuse_asks_no_fresh_questions_when_raising() {
        // Evaluate at Θ=0.2, cache everything, then re-evaluate at
        // Θ=0.4: every answer the 0.4-run needs was already asked at 0.2
        // (the 0.4 significant region is a subset), so fresh == 0.
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut cache = CrowdCache::new();

        let run = |cache: &mut CrowdCache, theta: f64| {
            let mut dag = Dag::new(&b, ont.vocab(), &base);
            let crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont)]);
            let mut caching = CachingCrowd::new(crowd, cache);
            let cfg = MiningConfig {
                threshold: Some(theta),
                ..Default::default()
            };
            let out = run_vertical(&mut dag, &mut caching, crowd::MemberId(0), &cfg);
            (out, caching.fresh_questions(), caching.total_questions())
        };

        let (out_02, fresh_02, total_02) = run(&mut cache, 0.2);
        assert!(out_02.complete);
        assert_eq!(fresh_02, total_02); // cold cache
        assert!(!cache.is_empty());

        let (out_04, fresh_04, total_04) = run(&mut cache, 0.4);
        assert!(out_04.complete);
        // Raising the threshold reuses cached answers wherever the two
        // runs' traversals coincide. They diverge where classifications
        // flip (a node significant at 0.2 but not at 0.4 redirects the
        // climb), so some fresh questions remain — but a solid share must
        // come from the cache, and far less fresh crowd work is needed
        // than a cold run.
        assert!(
            fresh_04 < total_04,
            "no reuse at all: {fresh_04} of {total_04}"
        );
        assert!(fresh_04 < fresh_02, "fresh {fresh_04} vs cold {fresh_02}");
        // the 0.4-significant region is a subset of the 0.2 one
        for m in &out_04.msps {
            let p = m.apply(&b);
            assert!(
                out_02
                    .significant_valid
                    .iter()
                    .chain(out_02.msps.iter())
                    .any(|s| { p.leq(ont.vocab(), &s.apply(&b)) || s.apply(&b) == p })
                    || out_02.msps.iter().any(|s| p.leq(ont.vocab(), &s.apply(&b))),
                "0.4 MSP not within the 0.2 significant region"
            );
        }
    }

    /// Every answer kind survives the writer and the reader; an edit of
    /// the writer's text off its key order or variants is a shape error.
    #[test]
    fn entries_roundtrip_through_the_writer() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let fact = v.fact("Biking", "doAt", "Central Park").unwrap();
        let p = ontology::PatternSet::from_facts([fact]);
        let text = |answer: &CachedAnswer| ontology::json::write(|w| write_entry(w, &p, answer));
        let read = |text: &str| {
            let mut r = Reader::new(text);
            let entry = read_entry(v, &mut r)?;
            r.end().map(|()| entry)
        };
        for answer in [
            CachedAnswer::Support {
                support: 0.25,
                more_tip: None,
            },
            CachedAnswer::Support {
                support: 1.0 / 3.0,
                more_tip: Some(fact),
            },
            CachedAnswer::Irrelevant { elem: fact.object },
        ] {
            let text = text(&answer);
            assert_eq!(read(&text).unwrap(), (p.clone(), answer), "{text}");
        }
        let text = text(&CachedAnswer::Support {
            support: 0.25,
            more_tip: None,
        });
        for (from, to, named) in [
            (
                r#""support":0.25,"more_tip":null"#,
                r#""more_tip":null,"support":0.25"#,
                "more_tip",
            ),
            (r#""more_tip":null"#, r#""more_tip":null,"x":1"#, "x"),
            (r#"{"Support":"#, r#"{"Maybe":"#, "Maybe"),
        ] {
            let bad = text.replace(from, to);
            assert_ne!(bad, text);
            let err = read(&bad).unwrap_err();
            assert!(!err.is_syntax() && err.msg.contains(named), "{bad}: {err}");
        }
    }

    #[test]
    fn cache_is_per_member() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let mut cache = CrowdCache::new();
        let p =
            ontology::PatternSet::from_facts([v.fact("Biking", "doAt", "Central Park").unwrap()]);
        cache.put(
            crowd::MemberId(0),
            p.clone(),
            CachedAnswer::Support {
                support: 1.0,
                more_tip: None,
            },
        );
        assert!(cache.get(crowd::MemberId(1), &p).is_none());
        assert!(cache.get(crowd::MemberId(0), &p).is_some());
    }
}
