//! Classification of assignments with inference (Observation 4.4).
//!
//! "If φ ≤ φ' then if φ' is significant, so must be φ." A single crowd
//! answer therefore classifies a whole cone: a significant answer at `w`
//! classifies every `φ ≤ w` significant; an insignificant answer at `w`
//! classifies every `φ ≥ w` insignificant. The classifier stores the
//! answered nodes as *witnesses* and resolves other nodes (including ones
//! materialized later) by order comparison.
//!
//! User-guided pruning (Section 6.2) is a second inference channel: a
//! member clicking element `e` as irrelevant classifies every assignment
//! containing a value (or MORE-fact component) that specializes `e` as
//! insignificant.
//!
//! Lookups used to be linear scans over the witness lists. They are now
//! near-O(1) through two index structures over the DAG's closure
//! fingerprints plus eager cone propagation:
//!
//! * every `mark_significant` walks the materialized *parent* edges
//!   upward and stamps the generalization cone `Cached::DerivedSig`;
//!   `mark_insignificant` walks generated *child* edges downward and
//!   stamps `Cached::DerivedInsig` — queries on stamped nodes skip the
//!   witness search entirely;
//! * nodes that materialize later (or are unreachable along materialized
//!   edges) fall back to value-keyed inverted indexes: a significant
//!   witness `w` is posted under every bit of its fingerprint `F(w)`, so
//!   a query at `a` only verifies the (shortest) posting list of one of
//!   `a`'s own value bits — a necessary condition for `F(a) ⊆ F(w)`; an
//!   insignificant witness is posted under its first value bit, which
//!   `F(a)` must contain for `w ≤ a` to hold;
//! * pruning clicks accumulate in a bitset over element ids, turning the
//!   pruned-cone test into one word-AND per slot against the elem region
//!   of the node's fingerprint.
//!
//! The observable results are **identical** to the historical scan-based
//! classifier (which survives as [`Classifier::class_by_scan`] and backs
//! a `debug_assert` on every fresh lookup): the first `class()` query on
//! a node decides pruned → significant → insignificant in that order
//! with the knowledge available *at query time*, and that decision is
//! cached permanently — later contradictory answers or pruning clicks
//! never flip an already-queried node, exactly as before. The earlier
//! `cache.retain(|_, c| *c != Class::Unknown)` in `prune_elem` was dead
//! code (Unknown results were never cached) and has been removed.

use crate::assignment::{Assignment, Slot};
use crate::dag::{Dag, FxBuildHasher, NodeId};
use oassis_ql::Value;
use ontology::{ElemId, Vocabulary};
use std::collections::HashMap;

/// Classification state of an assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Not yet known.
    Unknown,
    /// Average crowd support ≥ Θ.
    Significant,
    /// Average crowd support < Θ.
    Insignificant,
}

/// Per-node cached classification knowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cached {
    /// Queried (or directly answered): the definite, sticky result.
    Queried(Class),
    /// In the generalization cone of a significant witness; the first
    /// query still re-checks pruning (pruned wins, as in the scan order).
    DerivedSig,
    /// In the specialization cone of an insignificant witness; the first
    /// query still re-checks pruning and significant witnesses (both take
    /// precedence in the scan order).
    DerivedInsig,
}

/// A witness-based classifier over the assignment DAG.
#[derive(Debug, Default)]
pub struct Classifier {
    sig_witnesses: Vec<NodeId>,
    insig_witnesses: Vec<NodeId>,
    pruned_elems: Vec<ElemId>,
    /// Dense per-node cache, grown on demand.
    cache: Vec<Option<Cached>>,
    /// Bitset over [`ElemId`]s of pruning clicks.
    pruned_words: Vec<u64>,
    /// Significant witnesses posted under every set bit of their
    /// fingerprint (dense over global fingerprint bits).
    sig_postings: Vec<Vec<NodeId>>,
    /// Insignificant witnesses posted under their first value bit.
    insig_postings: Vec<Vec<NodeId>>,
    /// Presence bitset over posting bits: bit `b` set iff
    /// `insig_postings[b]` is non-empty. Word-aligned with the fingerprint
    /// layout, so [`Self::insig_hit`] AND-masks whole words of `F(id)`
    /// against it instead of enumerating every set bit.
    insig_bits: Vec<u64>,
    /// Insignificant witnesses with no slot values (≤-bottom elements).
    insig_bottom: Vec<NodeId>,
    /// BFS visit stamps (one generation per propagation).
    visit_mark: Vec<u32>,
    visit_gen: u32,
    /// Scratch queue for propagation.
    queue: Vec<NodeId>,
    /// [`Self::class`] calls answered straight from the sticky cache.
    cache_hits: u64,
    /// [`Self::class`] calls that had to consult witnesses/pruning.
    cache_misses: u64,
    /// Knowledge epoch: bumped by every witness or pruning addition. An
    /// un-stamped node's classification can only change when knowledge
    /// grows, so an `Unknown` computed at the current epoch is still
    /// `Unknown` — [`Self::class`] memoizes that in `unknown_at`.
    knowledge_epoch: u32,
    /// Per node: epoch at which [`Self::class`] last computed `Unknown`
    /// (`u32::MAX` = never).
    unknown_at: Vec<u32>,
    /// Per-fingerprint-word knowledge epochs: `word_epochs[wi]` is the
    /// epoch of the most recent witness or pruning click whose ≤-cone can
    /// involve fingerprint word `wi`. A memoized `Unknown` stays valid as
    /// long as no word of the node's own fingerprint was touched since —
    /// the *delta-cone* refinement of the global epoch test, so an answer
    /// only invalidates the memos it can actually flip.
    word_epochs: Vec<u32>,
    /// Epoch of the most recent knowledge addition the word index cannot
    /// localize: a witness with an empty fingerprint (a valueless
    /// ≤-bottom element can sit below *any* node). Invalidates every
    /// memo, like the historical global test.
    global_reach_epoch: u32,
}

impl Classifier {
    /// A classifier with no knowledge.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_node(&mut self, id: NodeId) {
        if id.index() >= self.cache.len() {
            self.cache.resize(id.index() + 1, None);
            self.visit_mark.resize(id.index() + 1, 0);
            self.unknown_at.resize(id.index() + 1, u32::MAX);
        }
    }

    fn ensure_postings(postings: &mut Vec<Vec<NodeId>>, bit: usize) {
        if bit >= postings.len() {
            postings.resize(bit + 1, Vec::new());
        }
    }

    /// Stamps the delta-cone epochs for a witness whose fingerprint is
    /// `words`: any node this witness can classify must share a nonzero
    /// fingerprint word with it (`F(a) ⊆ F(w)` or `F(w) ⊆ F(a)` both
    /// force word overlap), so only those words' memos need invalidating.
    /// A witness with no nonzero words can sit ≤-below anything —
    /// fall back to global invalidation.
    fn bump_word_epochs(&mut self, words: &[u64]) {
        if self.word_epochs.len() < words.len() {
            self.word_epochs.resize(words.len(), 0);
        }
        let mut any = false;
        for (wi, &w) in words.iter().enumerate() {
            if w != 0 {
                any = true;
                // PANIC-OK: the resize above sized word_epochs to
                // words.len().
                self.word_epochs[wi] = self.knowledge_epoch;
            }
        }
        if !any {
            self.global_reach_epoch = self.knowledge_epoch;
        }
    }

    /// Marks `id` (answered) significant; classifies all its
    /// generalizations by inference. Returns the size of the freshly
    /// stamped cone (the witness plus every node newly derived from it).
    pub fn mark_significant(&mut self, dag: &Dag<'_>, id: NodeId) -> usize {
        self.ensure_node(id);
        self.knowledge_epoch += 1;
        self.sig_witnesses.push(id);
        let words = dag.fp_words(id);
        for bit in crate::fingerprint::iter_bits(words) {
            Self::ensure_postings(&mut self.sig_postings, bit);
            // PANIC-OK: ensure_postings just resized past `bit`.
            self.sig_postings[bit].push(id);
        }
        self.bump_word_epochs(dag.fp_words(id));
        // PANIC-OK: ensure_node(id) at function entry sized the cache.
        self.cache[id.index()] = Some(Cached::Queried(Class::Significant));
        1 + self.propagate(dag, id, true)
    }

    /// Marks `id` (answered) insignificant; classifies all its
    /// specializations by inference. Returns the size of the freshly
    /// stamped cone (the witness plus every node newly derived from it).
    pub fn mark_insignificant(&mut self, dag: &Dag<'_>, id: NodeId) -> usize {
        self.ensure_node(id);
        self.knowledge_epoch += 1;
        self.insig_witnesses.push(id);
        match first_value_bit(dag, id) {
            Some(bit) => {
                Self::ensure_postings(&mut self.insig_postings, bit);
                // PANIC-OK: ensure_postings just resized past `bit`.
                self.insig_postings[bit].push(id);
                let wi = bit / 64;
                if wi >= self.insig_bits.len() {
                    self.insig_bits.resize(wi + 1, 0);
                }
                // PANIC-OK: the resize above guarantees `wi` is in bounds.
                self.insig_bits[wi] |= 1 << (bit % 64);
            }
            None => self.insig_bottom.push(id),
        }
        self.bump_word_epochs(dag.fp_words(id));
        // PANIC-OK: ensure_node(id) at function entry sized the cache.
        self.cache[id.index()] = Some(Cached::Queried(Class::Insignificant));
        1 + self.propagate(dag, id, false)
    }

    /// Stamps the cone of `id` along materialized edges: parent edges for
    /// a significant witness (generalizations), generated child edges for
    /// an insignificant one (specializations). Queried nodes keep their
    /// sticky result but the walk continues through them; a node already
    /// carrying the same derived stamp terminates the branch (its cone
    /// was stamped when it was). Returns the number of freshly stamped
    /// nodes.
    fn propagate(&mut self, dag: &Dag<'_>, start: NodeId, sig: bool) -> usize {
        let mut stamped = 0;
        let last = NodeId(dag.len().saturating_sub(1) as u32);
        self.ensure_node(last);
        self.visit_gen += 1;
        let gen = self.visit_gen;
        let mut queue = std::mem::take(&mut self.queue);
        queue.clear();
        let push_neighbors = |queue: &mut Vec<NodeId>, n: NodeId| {
            if sig {
                queue.extend(dag.parents(n));
            } else {
                queue.extend_from_slice(dag.children_if_generated(n).unwrap_or(&[]));
            }
        };
        push_neighbors(&mut queue, start);
        while let Some(n) = queue.pop() {
            // PANIC-OK: ensure_node(last) above sized visit_mark and
            // cache to dag.len(); every queued id is a node of this dag.
            if self.visit_mark[n.index()] == gen {
                continue;
            }
            // PANIC-OK: in bounds per the ensure_node(last) call above.
            self.visit_mark[n.index()] = gen;
            // PANIC-OK: in bounds per the ensure_node(last) call above.
            match self.cache[n.index()] {
                None => {
                    // PANIC-OK: in bounds per ensure_node(last) above.
                    self.cache[n.index()] = Some(if sig {
                        Cached::DerivedSig
                    } else {
                        Cached::DerivedInsig
                    });
                    stamped += 1;
                    push_neighbors(&mut queue, n);
                }
                Some(Cached::DerivedSig) if sig => {}
                Some(Cached::DerivedInsig) if !sig => {}
                Some(_) => push_neighbors(&mut queue, n),
            }
        }
        self.queue = queue;
        stamped
    }

    /// Records a user-guided pruning click on element `e`. The click's
    /// delta cone is every node whose fingerprint carries `e`'s bit in a
    /// slot's elem region, so only those words' `Unknown` memos are
    /// invalidated; nodes with MORE facts are matched against vocabulary
    /// rows instead and always recompute (see `unknown_memo_valid`).
    pub fn prune_elem(&mut self, dag: &Dag<'_>, e: ElemId) {
        self.knowledge_epoch += 1;
        self.pruned_elems.push(e);
        insert_elem(&mut self.pruned_words, e);
        let wi = e.index() / 64;
        let space = dag.fp_space();
        if wi < space.elem_words() {
            let nwords = space.num_slots() * space.words_per_slot();
            if self.word_epochs.len() < nwords {
                self.word_epochs.resize(nwords, 0);
            }
            for si in 0..space.num_slots() {
                // PANIC-OK: the resize above covers every slot's region.
                self.word_epochs[si * space.words_per_slot() + wi] = self.knowledge_epoch;
            }
        }
    }

    /// Number of direct decisions recorded (significant + insignificant
    /// witnesses) — a cheap change counter.
    pub fn decisions(&self) -> usize {
        self.sig_witnesses.len() + self.insig_witnesses.len()
    }

    /// The nodes directly answered significant.
    pub fn sig_witnesses(&self) -> &[NodeId] {
        &self.sig_witnesses
    }

    /// The nodes directly answered insignificant.
    pub fn insig_witnesses(&self) -> &[NodeId] {
        &self.insig_witnesses
    }

    /// Number of user-guided pruning clicks recorded. The step-level
    /// monotonicity checker ([`crate::invariants`]) only runs on
    /// pruning-free classifiers, where the sticky first-query semantics
    /// cannot produce legitimate edge contradictions.
    pub fn pruned_clicks(&self) -> usize {
        self.pruned_elems.len()
    }

    /// Sticky-cache hit/miss totals over all [`Self::class`] calls, for
    /// the telemetry flush at the end of a run.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// Classifies `id`, using witnesses and pruning records.
    pub fn class(&mut self, dag: &Dag<'_>, id: NodeId) -> Class {
        self.ensure_node(id);
        // PANIC-OK: ensure_node(id) at function entry sized the cache.
        if matches!(self.cache[id.index()], Some(Cached::Queried(_))) {
            self.cache_hits += 1;
        } else {
            self.cache_misses += 1;
        }
        let c = self.class_frozen(dag, id);
        // Stickiness: the first query's verdict is cached permanently,
        // exactly as the historical classifier did. An Unknown result is
        // memoized against the current knowledge epoch instead — it stays
        // Unknown until the next witness or pruning click arrives.
        if c != Class::Unknown {
            // PANIC-OK: ensure_node(id) at function entry sized the cache.
            self.cache[id.index()] = Some(Cached::Queried(c));
        } else {
            // PANIC-OK: ensure_node(id) at function entry sized unknown_at.
            self.unknown_at[id.index()] = self.knowledge_epoch;
        }
        c
    }

    /// Fast path for hot pop-side filters: the sticky verdict if `id` was
    /// already queried, else `None` (meaning the caller must fall back to
    /// [`Self::class`]). A `Queried` entry is permanent, so this is
    /// value-identical to `class` whenever it returns `Some` — it only
    /// skips the hit/miss accounting.
    #[inline]
    pub fn cached_queried(&self, id: NodeId) -> Option<Class> {
        match self.cache.get(id.index()).copied().flatten() {
            Some(Cached::Queried(c)) => Some(c),
            _ => None,
        }
    }

    /// Read-only classification: the value [`Self::class`] would return,
    /// without stamping the query cache. Because `class` is idempotent in
    /// value (the sticky cache only memoizes, never changes, the verdict
    /// reachable at query time), interleaving `class_frozen` and `class`
    /// calls observes identical results — which is what lets end-of-run
    /// sweeps, MSP entailment checks and the invariant checkers read
    /// through `&Classifier` without perturbing later lookups.
    pub fn class_frozen(&self, dag: &Dag<'_>, id: NodeId) -> Class {
        match self.cache.get(id.index()).copied().flatten() {
            Some(Cached::Queried(c)) => c,
            Some(Cached::DerivedSig) => {
                let c = if self.pruned_matches_node(dag, id) {
                    Class::Insignificant
                } else {
                    Class::Significant
                };
                debug_assert_eq!(c, self.class_by_scan(dag, id));
                c
            }
            Some(Cached::DerivedInsig) => {
                let c = if self.pruned_matches_node(dag, id) {
                    Class::Insignificant
                } else if self.sig_hit(dag, id) {
                    Class::Significant
                } else {
                    Class::Insignificant
                };
                debug_assert_eq!(c, self.class_by_scan(dag, id));
                c
            }
            None => {
                if self.unknown_memo_valid(dag, id) {
                    debug_assert_eq!(Class::Unknown, self.class_by_scan(dag, id));
                    return Class::Unknown;
                }
                let c = if self.pruned_matches_node(dag, id) {
                    Class::Insignificant
                } else if self.sig_hit(dag, id) {
                    Class::Significant
                } else if self.insig_hit(dag, id) {
                    Class::Insignificant
                } else {
                    Class::Unknown
                };
                debug_assert_eq!(c, self.class_by_scan(dag, id));
                c
            }
        }
    }

    /// Whether a memoized `Unknown` for `id` is still current. The fast
    /// path is the historical global test (nothing learned at all since
    /// the memo); past that, the memo survives as long as no knowledge
    /// delta touched the node's own fingerprint words: a significant
    /// witness needs `F(id) ⊆ F(w)` and an insignificant one `F(w) ⊆
    /// F(id)`, so either direction forces a nonzero-word overlap, and a
    /// pruning click lands on an elem-region word. Nodes whose
    /// classification is not word-localizable — empty fingerprints
    /// (≤ everything) and MORE facts (matched against vocabulary rows) —
    /// keep the conservative global behavior.
    fn unknown_memo_valid(&self, dag: &Dag<'_>, id: NodeId) -> bool {
        let at = match self.unknown_at.get(id.index()) {
            Some(&a) if a != u32::MAX => a,
            _ => return false,
        };
        if at == self.knowledge_epoch {
            return true;
        }
        if self.global_reach_epoch > at {
            return false;
        }
        if !dag.node(id).assignment.more().is_empty() {
            return false;
        }
        let words = dag.fp_words(id);
        let mut any = false;
        for (wi, &w) in words.iter().enumerate() {
            if w != 0 {
                any = true;
                if self.word_epochs.get(wi).copied().unwrap_or(0) > at {
                    return false;
                }
            }
        }
        any
    }

    /// Whether some significant witness `w` has `id ≤ w`, via the
    /// posting index: `F(id) ⊆ F(w)` requires every value bit of `id` to
    /// be set in `F(w)`, so the posting list of any one value bit is a
    /// complete candidate set — verify the shortest. An empty posting
    /// for any value bit refutes all witnesses at once.
    fn sig_hit(&self, dag: &Dag<'_>, id: NodeId) -> bool {
        if self.sig_witnesses.is_empty() {
            return false;
        }
        const EMPTY: &[NodeId] = &[];
        let space = dag.fp_space();
        let a = &dag.node(id).assignment;
        let mut best: Option<&[NodeId]> = None;
        let mut has_values = false;
        for si in 0..a.num_slots() {
            for &v in a.slot(Slot(si as u16)) {
                has_values = true;
                let bit = space.value_bit(si, v);
                let posting = self.sig_postings.get(bit).map_or(EMPTY, |p| p.as_slice());
                if posting.is_empty() {
                    return false;
                }
                if best.is_none_or(|b| posting.len() < b.len()) {
                    best = Some(posting);
                }
            }
        }
        if !has_values {
            // no value bits to key on (⊥-like node): scan the list
            return self.sig_witnesses.iter().any(|&w| dag.leq(id, w));
        }
        // PANIC-OK: has_values means the loop above either returned
        // early on an empty posting or recorded one in `best`.
        best.expect("value bits present but no posting recorded")
            .iter()
            .any(|&w| dag.leq(id, w))
    }

    /// Whether some insignificant witness `w` has `w ≤ id`: `F(w) ⊆
    /// F(id)` puts `w`'s first value bit inside `F(id)`, so walking the
    /// set bits of `F(id)` over the postings covers all candidates;
    /// valueless witnesses are kept aside and always checked.
    fn insig_hit(&self, dag: &Dag<'_>, id: NodeId) -> bool {
        if self.insig_witnesses.is_empty() {
            return false;
        }
        if self.insig_bottom.iter().any(|&w| dag.leq(w, id)) {
            return true;
        }
        if self.insig_postings.is_empty() {
            return false;
        }
        // Walk only the bits of F(id) that actually carry a non-empty
        // posting, by AND-masking against the presence bitset a word at a
        // time — same candidate set (and order) as enumerating every bit.
        let words = dag.fp_words(id);
        for (wi, &w) in words.iter().enumerate().take(self.insig_bits.len()) {
            // PANIC-OK: `take` bounds `wi` by insig_bits.len().
            let mut live = w & self.insig_bits[wi];
            while live != 0 {
                let bit = wi * 64 + live.trailing_zeros() as usize;
                live &= live - 1;
                // PANIC-OK: `bit`'s presence flag is set, so the posting
                // list exists and is non-empty.
                if self.insig_postings[bit].iter().any(|&w| dag.leq(w, id)) {
                    return true;
                }
            }
        }
        false
    }

    /// Whether the node involves a pruned element or a specialization of
    /// one ([`Dag::involves_any`]).
    fn pruned_matches_node(&self, dag: &Dag<'_>, id: NodeId) -> bool {
        !self.pruned_elems.is_empty() && dag.involves_any(id, &self.pruned_words)
    }

    /// The historical witness-scan classification — the executable
    /// specification the indexed path is checked against (and the
    /// reference for the property tests). Computes from scratch; no
    /// caching.
    pub fn class_by_scan(&self, dag: &Dag<'_>, id: NodeId) -> Class {
        let a = &dag.node(id).assignment;
        let vocab = dag.vocab();
        if self.pruned_matches(vocab, a) {
            return Class::Insignificant;
        }
        for &w in &self.sig_witnesses {
            if a.leq(vocab, &dag.node(w).assignment) {
                return Class::Significant;
            }
        }
        for &w in &self.insig_witnesses {
            if dag.node(w).assignment.leq(vocab, a) {
                return Class::Insignificant;
            }
        }
        Class::Unknown
    }

    /// Whether the assignment involves a pruned element or a
    /// specialization of one (exact scan form).
    fn pruned_matches(&self, vocab: &Vocabulary, a: &Assignment) -> bool {
        if self.pruned_elems.is_empty() {
            return false;
        }
        let elem_hit = |e: ElemId| self.pruned_elems.iter().any(|&p| vocab.elem_leq(p, e));
        for si in 0..a.num_slots() {
            for &v in a.slot(Slot(si as u16)) {
                if let Value::Elem(e) = v {
                    if elem_hit(e) {
                        return true;
                    }
                }
            }
        }
        a.more()
            .iter()
            .any(|f| elem_hit(f.subject) || elem_hit(f.object))
    }

    /// Whether `id` is classified (not [`Class::Unknown`]).
    pub fn is_classified(&mut self, dag: &Dag<'_>, id: NodeId) -> bool {
        self.class(dag, id) != Class::Unknown
    }
}

/// One crowd member's personal record in the multi-user engine (rule 4
/// of §4.2): what the member answered, and so where they will not be
/// asked. It holds only the member's own answers — their significant and
/// insignificant witnesses and their pruning clicks — plus the verdicts
/// already handed out, so its size follows the member's answers, not the
/// DAG.
///
/// [`Self::class`] has the observable semantics of [`Classifier::class`]:
/// the first non-`Unknown` verdict of a node sticks; otherwise pruned,
/// then a significant witness `w` with `id ≤ w`, then an insignificant
/// witness `w` with `w ≤ id`. `mark_*` overwrites the node's verdict; a
/// pruning click never flips one already handed out.
#[derive(Debug, Default)]
pub struct MemberRecord {
    sig_witnesses: Vec<NodeId>,
    insig_witnesses: Vec<NodeId>,
    /// Bitset over [`ElemId`]s of pruning clicks.
    pruned_words: Vec<u64>,
    /// The verdicts already handed out (and the marked witnesses').
    verdicts: HashMap<NodeId, Class, FxBuildHasher>,
}

impl MemberRecord {
    /// A record with no answers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the member's significant answer at `id`.
    pub fn mark_significant(&mut self, id: NodeId) {
        self.sig_witnesses.push(id);
        self.verdicts.insert(id, Class::Significant);
    }

    /// Records the member's insignificant answer at `id`.
    pub fn mark_insignificant(&mut self, id: NodeId) {
        self.insig_witnesses.push(id);
        self.verdicts.insert(id, Class::Insignificant);
    }

    /// Records the member's pruning click on element `e`.
    pub fn prune_elem(&mut self, e: ElemId) {
        insert_elem(&mut self.pruned_words, e);
    }

    /// Classifies `id` for this member.
    pub fn class(&mut self, dag: &Dag<'_>, id: NodeId) -> Class {
        if let Some(&c) = self.verdicts.get(&id) {
            return c;
        }
        let c = if !self.pruned_words.is_empty() && dag.involves_any(id, &self.pruned_words) {
            Class::Insignificant
        } else if self.sig_witnesses.iter().any(|&w| dag.leq(id, w)) {
            Class::Significant
        } else if self.insig_witnesses.iter().any(|&w| dag.leq(w, id)) {
            Class::Insignificant
        } else {
            Class::Unknown
        };
        if c != Class::Unknown {
            self.verdicts.insert(id, c);
        }
        c
    }
}

/// Adds element `e` to a bitset over [`ElemId`]s, growing it as needed.
pub(crate) fn insert_elem(words: &mut Vec<u64>, e: ElemId) {
    let wi = e.index() / 64;
    if wi >= words.len() {
        words.resize(wi + 1, 0);
    }
    // PANIC-OK: the resize above guarantees `wi` is in bounds.
    words[wi] |= 1 << (e.index() % 64);
}

/// The first (slot, value) bit of a node's own values, if any.
fn first_value_bit(dag: &Dag<'_>, id: NodeId) -> Option<usize> {
    let space = dag.fp_space();
    let a = &dag.node(id).assignment;
    for si in 0..a.num_slots() {
        if let Some(&v) = a.slot(Slot(si as u16)).first() {
            return Some(space.value_bit(si, v));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_ql::{bind, evaluate_where, parse, BoundQuery, MatchMode};
    use ontology::domains::figure1;

    fn setup() -> (ontology::Ontology, BoundQuery) {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        (ont, b)
    }

    fn node(dag: &mut Dag, ont: &ontology::Ontology, x: &str, y: &str) -> NodeId {
        let v = ont.vocab();
        dag.intern(Assignment::new(
            v,
            vec![
                vec![Value::Elem(v.elem_id(x).unwrap())],
                vec![Value::Elem(v.elem_id(y).unwrap())],
            ],
            vec![],
        ))
    }

    #[test]
    fn significant_witness_classifies_generalizations() {
        let (ont, b) = setup();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let mut cls = Classifier::new();
        let specific = node(&mut dag, &ont, "Central Park", "Basketball");
        let general = node(&mut dag, &ont, "Park", "Sport");
        let sibling = node(&mut dag, &ont, "Central Park", "Biking");
        cls.mark_significant(&dag, specific);
        assert_eq!(cls.class(&dag, general), Class::Significant);
        assert_eq!(cls.class(&dag, sibling), Class::Unknown);
    }

    #[test]
    fn insignificant_witness_classifies_specializations() {
        let (ont, b) = setup();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let mut cls = Classifier::new();
        let general = node(&mut dag, &ont, "Central Park", "Ball Game");
        let specific = node(&mut dag, &ont, "Central Park", "Basketball");
        let other = node(&mut dag, &ont, "Central Park", "Biking");
        cls.mark_insignificant(&dag, general);
        assert_eq!(cls.class(&dag, specific), Class::Insignificant);
        assert_eq!(cls.class(&dag, other), Class::Unknown);
    }

    #[test]
    fn pruning_kills_the_element_cone() {
        let (ont, b) = setup();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let mut cls = Classifier::new();
        let ball = node(&mut dag, &ont, "Central Park", "Ball Game");
        let basket = node(&mut dag, &ont, "Central Park", "Basketball");
        let biking = node(&mut dag, &ont, "Bronx Zoo", "Biking");
        // probe first so Unknown is computed (and must not stick)
        assert_eq!(cls.class(&dag, basket), Class::Unknown);
        cls.prune_elem(&dag, ont.vocab().elem_id("Ball Game").unwrap());
        assert_eq!(cls.class(&dag, ball), Class::Insignificant);
        assert_eq!(cls.class(&dag, basket), Class::Insignificant);
        assert_eq!(cls.class(&dag, biking), Class::Unknown);
    }

    #[test]
    fn later_materialized_nodes_are_classified() {
        let (ont, b) = setup();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let mut cls = Classifier::new();
        let w = node(&mut dag, &ont, "Central Park", "Sport");
        cls.mark_significant(&dag, w);
        // materialize a more general node afterwards
        let g = node(&mut dag, &ont, "Outdoor", "Activity");
        assert_eq!(cls.class(&dag, g), Class::Significant);
    }

    #[test]
    fn witnesses_classify_themselves() {
        let (ont, b) = setup();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let mut cls = Classifier::new();
        let n = node(&mut dag, &ont, "Central Park", "Biking");
        assert!(!cls.is_classified(&dag, n));
        cls.mark_significant(&dag, n);
        assert_eq!(cls.class(&dag, n), Class::Significant);
    }

    #[test]
    fn queried_results_stick_under_later_contradiction() {
        // historical semantics: the first query's verdict is permanent;
        // later pruning clicks or contradictory answers don't flip it
        let (ont, b) = setup();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let mut cls = Classifier::new();
        let w = node(&mut dag, &ont, "Central Park", "Basketball");
        let g = node(&mut dag, &ont, "Park", "Sport");
        cls.mark_significant(&dag, w);
        assert_eq!(cls.class(&dag, g), Class::Significant);
        cls.prune_elem(&dag, ont.vocab().elem_id("Sport").unwrap());
        // g was already queried — sticks; an unqueried sibling is pruned
        assert_eq!(cls.class(&dag, g), Class::Significant);
        let fresh = node(&mut dag, &ont, "Bronx Zoo", "Sport");
        assert_eq!(cls.class(&dag, fresh), Class::Insignificant);
    }

    #[test]
    fn derived_insig_yields_to_significant_witness() {
        // scan order: significant witnesses take precedence over
        // insignificant inference on a first query
        let (ont, b) = setup();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let mut cls = Classifier::new();
        let low = node(&mut dag, &ont, "Park", "Sport");
        let mid = node(&mut dag, &ont, "Central Park", "Ball Game");
        let high = node(&mut dag, &ont, "Central Park", "Basketball");
        cls.mark_insignificant(&dag, low); // mid, high ⊇ low ⇒ insig cone
        cls.mark_significant(&dag, high); // but high is answered significant
        assert_eq!(cls.class(&dag, mid), Class::Significant);
        assert_eq!(cls.class(&dag, high), Class::Significant);
    }
}
