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

use crowd::{Answer, CrowdSource, MemberId, Question};
use ontology::json::{self, Json, JsonError};
use ontology::{PatternFact, PatternSet};
use std::collections::HashMap;
use telemetry::lockorder::TrackedMutex;

/// A serializable store of concrete-question answers.
///
/// Only concrete questions are cached: specialization questions depend on
/// the offered options, which vary between runs. (A specialization answer
/// does imply a concrete answer for the chosen option, but the paper's
/// CrowdCache records answers per assignment, which is what we keep.)
#[derive(Debug, Default, Clone)]
pub struct CrowdCache {
    answers: HashMap<MemberId, HashMap<PatternSet, CachedAnswer>>,
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

    /// Serializes to JSON (the paper kept CrowdCache in MySQL; a document
    /// a caller stores between runs plays that role here, restored by
    /// [`Self::from_json`]). Entries are sorted for determinism.
    pub fn to_json(&self) -> String {
        let mut entries: Vec<(MemberId, &PatternSet, &CachedAnswer)> = self
            .answers
            .iter()
            .flat_map(|(&m, inner)| inner.iter().map(move |(p, a)| (m, p, a)))
            .collect();
        entries.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        let entries = entries
            .into_iter()
            .map(|(m, p, a)| {
                Json::Arr(vec![
                    Json::Num(m.0 as f64),
                    pattern_to_json(p),
                    answer_to_json(a),
                ])
            })
            .collect();
        Json::Obj(vec![("entries".into(), Json::Arr(entries))]).to_string()
    }

    /// The members holding cached answers, in id order. With
    /// [`Self::entries_of`] it walks the cache member by member, the way
    /// the server's WAL keeps one answer log per member.
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

    /// One member's cached entries, sorted by pattern for determinism:
    /// the answers that member's WAL answer log holds.
    pub fn entries_of(&self, member: MemberId) -> Vec<(&PatternSet, &CachedAnswer)> {
        let mut entries: Vec<(&PatternSet, &CachedAnswer)> = self
            .answers
            .get(&member)
            .map(|inner| inner.iter().collect())
            .unwrap_or_default();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// Restores from JSON.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let doc = json::parse(s)?;
        let mut cache = CrowdCache::new();
        for entry in doc.field("entries")?.as_arr()? {
            let [m, p, a] = entry.as_arr()? else {
                return Err(JsonError::shape(
                    "expected a [member, pattern, answer] entry",
                ));
            };
            cache.put(
                MemberId(m.as_u32()?),
                pattern_from_json(p)?,
                answer_from_json(a)?,
            );
        }
        Ok(cache)
    }
}

/// Serializes one `(pattern, answer)` cache entry — the payload of the
/// WAL's `answer` record, in the entry encoding [`CrowdCache::to_json`]
/// uses.
pub fn entry_to_json(pattern: &PatternSet, answer: &CachedAnswer) -> Json {
    Json::Arr(vec![pattern_to_json(pattern), answer_to_json(answer)])
}

/// Restores a cache entry serialized by [`entry_to_json`].
pub fn entry_from_json(v: &Json) -> Result<(PatternSet, CachedAnswer), JsonError> {
    let [p, a] = v.as_arr()? else {
        return Err(JsonError::shape("expected a [pattern, answer] entry"));
    };
    Ok((pattern_from_json(p)?, answer_from_json(a)?))
}

fn opt_id_to_json(id: Option<u32>) -> Json {
    id.map_or(Json::Null, |v| Json::Num(v as f64))
}

fn opt_id_from_json(v: &Json) -> Result<Option<u32>, JsonError> {
    match v {
        Json::Null => Ok(None),
        other => other.as_u32().map(Some),
    }
}

fn pattern_to_json(p: &PatternSet) -> Json {
    Json::Arr(
        p.iter()
            .map(|f| {
                Json::Arr(vec![
                    opt_id_to_json(f.subject.map(|e| e.0)),
                    opt_id_to_json(f.rel.map(|r| r.0)),
                    opt_id_to_json(f.object.map(|e| e.0)),
                ])
            })
            .collect(),
    )
}

fn pattern_from_json(v: &Json) -> Result<PatternSet, JsonError> {
    let facts = v
        .as_arr()?
        .iter()
        .map(|f| {
            let [s, r, o] = f.as_arr()? else {
                return Err(JsonError::shape(
                    "expected a [subject, rel, object] pattern",
                ));
            };
            Ok(PatternFact {
                subject: opt_id_from_json(s)?.map(ontology::ElemId),
                rel: opt_id_from_json(r)?.map(ontology::RelId),
                object: opt_id_from_json(o)?.map(ontology::ElemId),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PatternSet::from_iter(facts))
}

fn answer_to_json(a: &CachedAnswer) -> Json {
    match a {
        CachedAnswer::Support { support, more_tip } => {
            let tip = more_tip.map_or(Json::Null, |f| {
                Json::Arr(vec![
                    Json::Num(f.subject.0 as f64),
                    Json::Num(f.rel.0 as f64),
                    Json::Num(f.object.0 as f64),
                ])
            });
            Json::Obj(vec![(
                "Support".into(),
                Json::Obj(vec![
                    ("support".into(), Json::Num(*support)),
                    ("more_tip".into(), tip),
                ]),
            )])
        }
        CachedAnswer::Irrelevant { elem } => Json::Obj(vec![(
            "Irrelevant".into(),
            Json::Obj(vec![("elem".into(), Json::Num(elem.0 as f64))]),
        )]),
    }
}

fn answer_from_json(v: &Json) -> Result<CachedAnswer, JsonError> {
    let [(tag, body)] = v.as_obj()? else {
        return Err(JsonError::shape("expected a single-variant answer object"));
    };
    match tag.as_str() {
        "Support" => {
            let tip = match body.field("more_tip")? {
                Json::Null => None,
                f => {
                    let [s, r, o] = f.as_arr()? else {
                        return Err(JsonError::shape("expected a [s, r, o] fact"));
                    };
                    Some(ontology::Fact::new(
                        ontology::ElemId(s.as_u32()?),
                        ontology::RelId(r.as_u32()?),
                        ontology::ElemId(o.as_u32()?),
                    ))
                }
            };
            Ok(CachedAnswer::Support {
                support: body.field("support")?.as_f64()?,
                more_tip: tip,
            })
        }
        "Irrelevant" => Ok(CachedAnswer::Irrelevant {
            elem: ontology::ElemId(body.field("elem")?.as_u32()?),
        }),
        other => Err(JsonError::shape(format!(
            "unknown answer variant {other:?}"
        ))),
    }
}

/// A thread-safe [`CrowdCache`] for concurrent query execution (batch
/// requests through [`Oassis::run`](crate::Oassis::run) and the serving
/// layer's sessions): several queries running on different threads share
/// one answer store, so a pattern any query already asked a member about
/// is never re-asked.
///
/// A single mutex guards the store. Lookups clone the cached answer out
/// under the lock; the lock is never held across a crowd call, so worker
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
/// caller, a [`SharedCrowdCache`] that concurrent queries share, or a
/// durable store that logs each answer before caching it.
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
/// concurrent queries can wrap the same store.
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

    #[test]
    fn cache_roundtrips_through_json() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let mut cache = CrowdCache::new();
        let p =
            ontology::PatternSet::from_facts([v.fact("Biking", "doAt", "Central Park").unwrap()]);
        cache.put(
            crowd::MemberId(3),
            p.clone(),
            CachedAnswer::Support {
                support: 0.25,
                more_tip: None,
            },
        );
        let restored = CrowdCache::from_json(&cache.to_json()).unwrap();
        assert_eq!(
            restored.get(crowd::MemberId(3), &p),
            Some(&CachedAnswer::Support {
                support: 0.25,
                more_tip: None
            })
        );
        assert_eq!(restored.len(), 1);
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
