//! The lazily generated assignment DAG (Section 5 / the paper's
//! `AssignGenerator` module, Section 6.1).
//!
//! Nodes are interned canonical [`Assignment`]s from the expanded set `𝒜`;
//! edges point from an assignment to its immediate successors (one
//! specialization step). Children are generated **on demand** — the lazy
//! strategy the paper credits with generating "less than 1% of the nodes"
//! with multiplicities compared to an eager generator; this build
//! materializes 5.6–41.4% of the eager count (EXPERIMENTS.md §6.4) — via
//! three moves:
//!
//! 1. *replace*: specialize one value of one slot by an immediate child in
//!    the vocabulary order;
//! 2. *add* (multiplicity combination): insert a new most-general
//!    admissible value incomparable to the slot's current antichain
//!    (Proposition 5.1's lazy combination);
//! 3. *MORE refinement*: specialize a component of a MORE fact. New MORE
//!    facts themselves enter the DAG only through crowd-volunteered tips
//!    ([`Dag::attach_more_tip`]), mirroring the prototype's *more* button.
//!
//! The successors of an assignment are a pure function of the query, the
//! vocabulary and the WHERE result. A DAG given a successor memo (a
//! `SuccessorMap` of lists an earlier DAG of the same query generated)
//! interns a listed assignment's successors from it, in the order
//! generation would produce them, so node ids, child spans and parent
//! order are those of a DAG without one. It keeps the lists it had to
//! generate for its caller to publish: the engine's `PreparedQuery`
//! holds the memo.

// audit: allow-file(D4, node ids are arena indices minted by this module; every access goes through a handle the same arena produced)
use crate::assignment::{value_leq, Assignment, Slot};
use crate::fingerprint::{self, FingerprintSpace};
use crate::validity::ValidityIndex;
use oassis_ql::{BaseAssignment, BoundQuery, Value};
use ontology::{ElemId, Fact, Vocabulary};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Identifier of a DAG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Placeholder id for op-log entries that carry no node payload
    /// (never a valid index into a [`Dag`]).
    pub const SENTINEL: NodeId = NodeId(u32::MAX);

    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One materialized DAG node. Edges live outside the node in flat
/// struct-of-arrays arenas ([`Dag::children_if_generated`],
/// [`Dag::parents`]); the node itself carries only the per-node payload.
#[derive(Debug)]
pub struct Node {
    /// The canonical assignment.
    pub assignment: Assignment,
    /// Whether the assignment itself is valid (`φ ∈ 𝒜_valid`), as opposed
    /// to merely being a generalization of a valid assignment. Figure 3
    /// draws invalid nodes dashed; the final output is `M ∩ 𝒜_valid`.
    pub valid: bool,
}

/// Sentinel for "no entry" in the edge arenas (spans and block links).
const NONE32: u32 = u32::MAX;

/// Parents per unrolled block of the parent arena. Parent lists are
/// append-only and interleave across nodes (every expansion registers the
/// expanding node as parent of each child), so contiguous CSR spans are
/// impossible without relocation — unrolled linked blocks keep appends
/// O(1) while still walking flat memory six entries at a time.
const PAR_BLOCK: usize = 6;

#[derive(Debug)]
struct ParentBlock {
    items: [NodeId; PAR_BLOCK],
    len: u32,
    next: u32,
}

/// In-order iterator over a node's materialized parents.
///
/// Insertion order is preserved: classification scans short-circuit while
/// *stamping* sticky per-node verdicts, so the order predecessors are
/// visited in is observable — it must match the historical per-node `Vec`
/// exactly.
#[derive(Clone)]
pub struct ParentsIter<'d> {
    blocks: &'d [ParentBlock],
    cur: u32,
    pos: u32,
}

impl Iterator for ParentsIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.cur != NONE32 {
            // PANIC-OK: block links only ever hold indices of pushed blocks.
            let b = &self.blocks[self.cur as usize];
            if self.pos < b.len {
                // PANIC-OK: `len` never exceeds PAR_BLOCK.
                let id = b.items[self.pos as usize];
                self.pos += 1;
                return Some(id);
            }
            self.cur = b.next;
            self.pos = 0;
        }
        None
    }
}

/// Generation statistics (for the lazy-vs-eager experiment, Section 6.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Nodes materialized.
    pub nodes_created: usize,
    /// Nodes whose children were generated.
    pub nodes_expanded: usize,
    /// Calls to the validity oracle (`admits`): the replace and add
    /// candidates node expansion built. An expansion served from the
    /// successor memo makes none.
    pub admits_calls: usize,
    /// The candidates among those that `admits` accepted, before
    /// duplicates are removed.
    pub candidates_admitted: usize,
    /// Expansions whose successors came from the successor memo.
    pub successor_memo_hits: usize,
    /// Expansions with a successor memo that had to generate their
    /// successors (0 without one).
    pub successor_memo_misses: usize,
}

/// Successor lists by assignment. An entry holds an assignment's word
/// form ([`Assignment::push_words`]) and the sorted, deduplicated list of
/// immediate successors node expansion generates for it, as a run of
/// word forms: `[key length, key, list length, list]`. A run's entries
/// sit back to back in one chunk, so the memo is a handful of
/// allocations however many lists it holds; a chunk entry the index
/// does not name (its key was known, or the cap was reached) is dead.
/// MORE tips are never part of a list ([`Dag::attach_more_tip`] appends
/// them to a child span after the list is interned).
#[derive(Default, Clone)]
pub(crate) struct SuccessorMap {
    /// [`words_hash`] of an entry's key → its chunk and its offset there.
    /// Of two keys with one hash the first stays and the second is never
    /// memoized.
    index: HashMap<u64, (u32, u32), FxBuildHasher>,
    chunks: Vec<Arc<[u64]>>,
}

impl SuccessorMap {
    /// Assignments the map holds a list for.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// The list of the assignment whose word form is `key`.
    fn get(&self, key: &[u64]) -> Option<&[u64]> {
        let &(chunk, at) = self.index.get(&words_hash(key))?;
        let entry = self.chunks.get(chunk as usize)?.get(at as usize..)?;
        let (k, list, _) = split_entry(entry)?;
        (k == key).then_some(list)
    }

    /// This map plus the entries of `chunk` (a run of entries) whose keys
    /// it lacks, in order, until it holds `cap` entries. The map keeps
    /// `chunk` itself when it takes any of them.
    pub(crate) fn grown(&self, chunk: &Arc<[u64]>, cap: usize) -> SuccessorMap {
        let mut grown = self.clone();
        let mut rest: &[u64] = chunk;
        while let Some((key, _, tail)) = split_entry(rest) {
            if grown.len() >= cap {
                break;
            }
            let at = (self.chunks.len() as u32, (chunk.len() - rest.len()) as u32);
            grown.index.entry(words_hash(key)).or_insert(at);
            rest = tail;
        }
        if grown.len() > self.len() {
            grown.chunks.push(chunk.clone());
        }
        grown
    }
}

impl std::fmt::Debug for SuccessorMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuccessorMap")
            .field("entries", &self.len())
            .finish()
    }
}

/// The key, the list and the words after the entry at the front of
/// `words`; `None` when `words` holds no whole entry.
fn split_entry(words: &[u64]) -> Option<(&[u64], &[u64], &[u64])> {
    let (&key_len, rest) = words.split_first()?;
    let (key, rest) = rest.split_at_checked(key_len as usize)?;
    let (&list_len, rest) = rest.split_first()?;
    let (list, rest) = rest.split_at_checked(list_len as usize)?;
    Some((key, list, rest))
}

/// The hash a [`SuccessorMap`] indexes a word form under.
fn words_hash(words: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    for &w in words {
        h.add(w);
    }
    h.finish()
}

/// The lazily generated assignment DAG for one query.
///
/// A query's DAG lives on the thread that mines it: the validity index
/// memoizes through `RefCell`s, so `Dag` is not `Sync`. Readers (the
/// engines, the classification fold, replay, the invariant checkers)
/// borrow `&Dag`; only node generation takes `&mut`.
pub struct Dag<'a> {
    q: &'a BoundQuery,
    vocab: &'a Vocabulary,
    validity: ValidityIndex,
    /// The only copy of each interned assignment, at its node id.
    nodes: Vec<Node>,
    /// [`assignment_hash`] of an assignment → the newest node with that
    /// hash; older nodes with the same hash follow through `chain`.
    index: HashMap<u64, u32, FxBuildHasher>,
    /// Per node: the next older node whose assignment has the same hash
    /// (`NONE32` ends the chain).
    chain: Vec<u32>,
    roots: Vec<NodeId>,
    stats: GenStats,
    /// Bit layout of the per-node closure fingerprints.
    fp_space: FingerprintSpace,
    /// Flat fingerprint storage, [`FingerprintSpace::words_per_node`]
    /// words per node, filled at [`intern`](Self::intern).
    fps: Vec<u64>,
    /// One-word OR-fold summary per node (not-subset prefilter).
    fp_summaries: Vec<u64>,
    /// Per-node `(start, len)` span into [`Self::child_edges`];
    /// `start == NONE32` means children were not generated yet.
    child_span: Vec<(u32, u32)>,
    /// CSR-style flat child-edge arena. A span may be abandoned (dead
    /// segment) when a MORE tip forces an append to a non-tail span — the
    /// node's span then points at a relocated copy at the arena tail.
    child_edges: Vec<NodeId>,
    /// Per-node `(head, tail)` block indices into [`Self::parent_blocks`];
    /// `NONE32` head means no parents recorded.
    parent_link: Vec<(u32, u32)>,
    /// Unrolled-linked-block parent arena (insertion order preserved).
    parent_blocks: Vec<ParentBlock>,
    /// When false, add-value moves (multiplicities) are suppressed — used
    /// to measure the paper's "DAG size without multiplicities".
    allow_multiplicities: bool,
    /// Scratch buffers reused across [`children`](Self::children) /
    /// [`add_candidates`](Self::add_candidates) calls; node expansion is
    /// the mining inner loop, and re-allocating these per call dominated
    /// its allocation profile.
    scratch_succs: Vec<Assignment>,
    scratch_queue: Vec<Value>,
    scratch_seen: std::collections::HashSet<Value, FxBuildHasher>,
    /// Successor lists an earlier DAG of the same query generated.
    successor_memo: Option<Arc<SuccessorMap>>,
    /// The entries this DAG generated that `successor_memo` lacked, as
    /// a [`SuccessorMap`] chunk lays them out.
    successor_misses: Vec<u64>,
    /// The word form of the assignment being expanded.
    scratch_key: Vec<u64>,
    /// Per element: the nodes below `involved_upto` that involve it
    /// ([`Self::involves_any`] of the element's bit), in id order. Built
    /// on demand by [`Self::index_involvement`].
    involving: Vec<Vec<NodeId>>,
    /// The nodes `involving` covers: every id below this.
    involved_upto: u32,
}

impl<'a> Dag<'a> {
    /// Builds the DAG skeleton from the WHERE-clause output: computes the
    /// validity index and materializes the root (most general) nodes.
    pub fn new(q: &'a BoundQuery, vocab: &'a Vocabulary, base: &[BaseAssignment]) -> Self {
        let validity = ValidityIndex::new(q, vocab, base);
        let fp_space = FingerprintSpace::new(vocab, validity.slots().len());
        let mut dag = Dag {
            q,
            vocab,
            validity,
            nodes: Vec::new(),
            index: HashMap::default(),
            chain: Vec::new(),
            roots: Vec::new(),
            stats: GenStats::default(),
            fp_space,
            fps: Vec::new(),
            fp_summaries: Vec::new(),
            child_span: Vec::new(),
            child_edges: Vec::new(),
            parent_link: Vec::new(),
            parent_blocks: Vec::new(),
            allow_multiplicities: true,
            scratch_succs: Vec::new(),
            scratch_queue: Vec::new(),
            scratch_seen: std::collections::HashSet::default(),
            successor_memo: None,
            successor_misses: Vec::new(),
            scratch_key: Vec::new(),
            involving: Vec::new(),
            involved_upto: 0,
        };
        dag.make_roots();
        dag
    }

    /// Suppresses multiplicity (add-value) successors. Such a DAG
    /// neither reads nor records a successor memo, whose lists include
    /// them.
    pub fn without_multiplicities(mut self) -> Self {
        self.allow_multiplicities = false;
        self.successor_memo = None;
        self
    }

    /// Expands the assignments `memo` lists from their lists instead of
    /// generating them. `memo` must come from DAGs of the same query,
    /// vocabulary and WHERE result; ignored without multiplicities.
    pub(crate) fn with_successor_memo(mut self, memo: Arc<SuccessorMap>) -> Self {
        if self.allow_multiplicities {
            self.successor_memo = Some(memo);
        }
        self
    }

    /// Takes the entries this DAG generated because its [`SuccessorMap`]
    /// lacked them, one per expanded assignment (none without a map), for
    /// [`SuccessorMap::grown`].
    pub(crate) fn take_successor_misses(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.successor_misses)
    }

    /// The query this DAG was built for.
    pub fn query(&self) -> &'a BoundQuery {
        self.q
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &'a Vocabulary {
        self.vocab
    }

    /// The validity index.
    pub fn validity(&self) -> &ValidityIndex {
        &self.validity
    }

    /// The root (minimal) nodes.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// A materialized node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of materialized nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes are materialized (empty valid set).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Generation statistics.
    pub fn stats(&self) -> GenStats {
        self.stats
    }

    /// All node ids materialized so far.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The fingerprint bit layout.
    pub fn fp_space(&self) -> &FingerprintSpace {
        &self.fp_space
    }

    /// The closure fingerprint of a node.
    #[inline]
    pub fn fp_words(&self, id: NodeId) -> &[u64] {
        let w = self.fp_space.words_per_node();
        &self.fps[id.index() * w..(id.index() + 1) * w]
    }

    /// `a ≤ b` on node assignments: summary prefilter, then word-parallel
    /// subset test on the slot fingerprints, then the exact MORE-fact
    /// condition (facts are not fingerprinted).
    pub fn leq(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        let res = self.fp_summaries[a.index()] & !self.fp_summaries[b.index()] == 0
            && fingerprint::subset(self.fp_words(a), self.fp_words(b))
            && self.more_leq(a, b);
        debug_assert_eq!(
            res,
            self.nodes[a.index()]
                .assignment
                .leq(self.vocab, &self.nodes[b.index()].assignment)
        );
        res
    }

    /// Whether node `id` involves an element of `elems` (a bitset over
    /// element ids) or a specialization of one. An element `p` with
    /// `p ≤ e` for a slot value `e` is an ancestor of `e`, i.e. a set bit
    /// in that slot's elem region of the node's fingerprint — one
    /// word-AND per slot. MORE-fact components are checked against the
    /// vocabulary's ancestor rows directly.
    pub(crate) fn involves_any(&self, id: NodeId, elems: &[u64]) -> bool {
        let space = &self.fp_space;
        let words = self.fp_words(id);
        for si in 0..space.num_slots() {
            let base = si * space.words_per_slot();
            // PANIC-OK: fingerprint layout fixes words.len() at
            // num_slots * words_per_slot with elem_words <= words_per_slot,
            // so every per-slot element region is in bounds.
            let elem_region = &words[base..base + space.elem_words()];
            if intersects(elem_region, elems) {
                return true;
            }
        }
        self.node(id).assignment.more().iter().any(|f| {
            intersects(self.vocab.elem_ancestor_words(f.subject), elems)
                || intersects(self.vocab.elem_ancestor_words(f.object), elems)
        })
    }

    /// Brings the element-to-node index behind [`Self::nodes_involving`]
    /// up to date with the nodes interned since the last call, and
    /// returns how many it took in. Nodes are immutable and ids are
    /// minted in order, so each node is read once and every element's
    /// list stays in id order.
    pub(crate) fn index_involvement(&mut self) -> usize {
        let from = self.involved_upto as usize;
        let space = &self.fp_space;
        if self.involving.is_empty() {
            self.involving.resize(space.elem_words() * 64, Vec::new());
        }
        let mut elems = vec![0u64; space.elem_words()];
        for i in from..self.nodes.len() {
            elems.fill(0);
            let words = &self.fps[i * space.words_per_node()..(i + 1) * space.words_per_node()];
            for si in 0..space.num_slots() {
                let base = si * space.words_per_slot();
                // PANIC-OK: as in `involves_any`, every per-slot element
                // region lies inside the node's fingerprint.
                or_into(&mut elems, &words[base..base + space.elem_words()]);
            }
            // PANIC-OK: `i` ranges below nodes.len().
            for f in self.nodes[i].assignment.more() {
                or_into(&mut elems, self.vocab.elem_ancestor_words(f.subject));
                or_into(&mut elems, self.vocab.elem_ancestor_words(f.object));
            }
            for bit in fingerprint::iter_bits(&elems) {
                // PANIC-OK: `involving` holds a list per bit of `elems`.
                self.involving[bit].push(NodeId(i as u32));
            }
        }
        self.involved_upto = self.nodes.len() as u32;
        self.nodes.len() - from
    }

    /// The nodes that involve element `e` or a specialization of it, in
    /// id order, among those [`Self::index_involvement`] took in: the
    /// nodes a pruning click on `e` answers.
    pub(crate) fn nodes_involving(&self, e: ElemId) -> &[NodeId] {
        self.involving.get(e.index()).map_or(&[], Vec::as_slice)
    }

    fn more_leq(&self, a: NodeId, b: NodeId) -> bool {
        let am = self.nodes[a.index()].assignment.more();
        if am.is_empty() {
            return true;
        }
        let bm = self.nodes[b.index()].assignment.more();
        am.iter()
            .all(|&f| bm.iter().any(|&g| self.vocab.fact_leq(f, g)))
    }

    fn make_roots(&mut self) {
        if self.validity.num_tuples() == 0 && !self.validity.slots().iter().any(|s| s.free) {
            return; // empty valid set ⇒ empty DAG
        }
        // Root slot values: the minimal closure values; slots whose
        // multiplicity admits zero values start empty.
        let per_slot: Vec<Vec<Vec<Value>>> = (0..self.validity.slots().len())
            .map(|si| {
                let slot = &self.validity.slots()[si];
                if slot.mult.min() == 0 {
                    vec![Vec::new()]
                } else {
                    self.validity
                        .minimal_values(Slot(si as u16))
                        .iter()
                        .map(|&v| vec![v])
                        .collect()
                }
            })
            .collect();
        // cross product of per-slot root choices
        let mut combos: Vec<Vec<Vec<Value>>> = vec![Vec::new()];
        for choices in per_slot {
            let mut next = Vec::new();
            for c in &combos {
                for choice in &choices {
                    let mut c2 = c.clone();
                    c2.push(choice.clone());
                    next.push(c2);
                }
            }
            combos = next;
        }
        for values in combos {
            let a = Assignment::new(self.vocab, values, Vec::new());
            self.stats.admits_calls += 1;
            if self.validity.admits(self.vocab, &a) {
                let id = self.intern(a);
                if !self.roots.contains(&id) {
                    self.roots.push(id);
                }
            }
        }
    }

    /// Interns an assignment, materializing a node if new. The
    /// assignment is hashed once; the node keeps the only copy.
    pub fn intern(&mut self, a: Assignment) -> NodeId {
        let hash = assignment_hash(&a);
        if let Some(id) = self.find(hash, &a) {
            return id;
        }
        let valid = self.validity.is_valid(&a);
        let id = NodeId(self.nodes.len() as u32);
        let start = self.fps.len();
        self.fps.resize(start + self.fp_space.words_per_node(), 0);
        self.fp_space.write(self.vocab, &a, &mut self.fps[start..]);
        self.fp_summaries
            .push(fingerprint::summarize(&self.fps[start..]));
        self.nodes.push(Node {
            assignment: a,
            valid,
        });
        self.child_span.push((NONE32, 0));
        self.parent_link.push((NONE32, NONE32));
        let older = self.index.insert(hash, id.0);
        self.chain.push(older.unwrap_or(NONE32));
        self.stats.nodes_created += 1;
        id
    }

    /// The node holding `a`, found by walking the chain of nodes whose
    /// assignments hash to `hash`. A hit and a hash collision take the
    /// same path: each chain member is compared in full.
    fn find(&self, hash: u64, a: &Assignment) -> Option<NodeId> {
        let mut cur = self.index.get(&hash).copied().unwrap_or(NONE32);
        while cur != NONE32 {
            // PANIC-OK: the index and the chain only hold ids of pushed nodes.
            if self.nodes[cur as usize].assignment == *a {
                return Some(NodeId(cur));
            }
            // PANIC-OK: as above.
            cur = self.chain[cur as usize];
        }
        None
    }

    /// The generated children of `id` as a flat arena slice, if
    /// [`Self::children`] / [`Self::ensure_children`] ran for it.
    #[inline]
    pub fn children_if_generated(&self, id: NodeId) -> Option<&[NodeId]> {
        self.generated_span(id).map(|span| self.child_slice(span))
    }

    /// The child span [`Self::ensure_children`] would return for `id`, if
    /// its children were generated.
    #[inline]
    pub(crate) fn generated_span(&self, id: NodeId) -> Option<(u32, u32)> {
        let (s, l) = self.child_span[id.index()];
        (s != NONE32).then_some((s, l))
    }

    /// The materialized parents of `id`, in insertion order.
    #[inline]
    pub fn parents(&self, id: NodeId) -> ParentsIter<'_> {
        ParentsIter {
            blocks: &self.parent_blocks,
            cur: self.parent_link[id.index()].0,
            pos: 0,
        }
    }

    /// Appends `parent` to `child`'s parent list unless already present.
    fn add_parent(&mut self, child: NodeId, parent: NodeId) {
        if !self.parents(child).any(|p| p == parent) {
            self.push_parent(child, parent);
        }
    }

    /// Appends `parent` to `child`'s parent list, which must not hold it.
    fn push_parent(&mut self, child: NodeId, parent: NodeId) {
        debug_assert!(!self.parents(child).any(|p| p == parent));
        let (head, tail) = self.parent_link[child.index()];
        if head != NONE32 {
            // PANIC-OK: a non-NONE32 head implies a valid tail block.
            let tb = &mut self.parent_blocks[tail as usize];
            if (tb.len as usize) < PAR_BLOCK {
                tb.items[tb.len as usize] = parent;
                tb.len += 1;
                return;
            }
        }
        let nb = self.parent_blocks.len() as u32;
        self.parent_blocks.push(ParentBlock {
            items: [parent; PAR_BLOCK],
            len: 1,
            next: NONE32,
        });
        if head == NONE32 {
            self.parent_link[child.index()] = (nb, nb);
        } else {
            // PANIC-OK: tail is a valid block index when head is set.
            self.parent_blocks[tail as usize].next = nb;
            self.parent_link[child.index()].1 = nb;
        }
    }

    /// Looks up a node by assignment without materializing.
    pub fn lookup(&self, a: &Assignment) -> Option<NodeId> {
        self.find(assignment_hash(a), a)
    }

    /// The immediate successors of `id`, generating them on first call.
    ///
    /// Compatibility wrapper that clones the arena span; hot paths use
    /// [`Self::ensure_children`] and borrow the slice instead.
    pub fn children(&mut self, id: NodeId) -> Vec<NodeId> {
        let (s, l) = self.ensure_children(id);
        self.child_edges[s as usize..(s + l) as usize].to_vec()
    }

    /// Generates the children of `id` if needed and returns their
    /// `(start, len)` span in the child-edge arena. The span stays valid
    /// for the life of the DAG (a MORE-tip append may relocate it, but
    /// only to a superset — resolve via [`Self::child_slice`] when fresh).
    ///
    /// With a successor memo, a listed assignment's successors are
    /// interned from its list; an unlisted one's are generated and kept
    /// for the memo. Either way they are interned in the order
    /// generation produces them.
    pub fn ensure_children(&mut self, id: NodeId) -> (u32, u32) {
        let (s, l) = self.child_span[id.index()];
        if s != NONE32 {
            return (s, l);
        }
        let start = self.child_edges.len() as u32;
        let slots = self.nodes[id.index()].assignment.num_slots();
        let memo = self.successor_memo.clone();
        let listed = memo.as_deref().map(|memo| {
            self.scratch_key.clear();
            self.nodes[id.index()]
                .assignment
                .push_words(&mut self.scratch_key);
            memo.get(&self.scratch_key)
        });
        if let Some(Some(list)) = listed {
            self.stats.successor_memo_hits += 1;
            let mut rest = list;
            while !rest.is_empty() {
                let (a, tail) = Assignment::pop_words(rest, slots);
                rest = tail;
                let cid = self.intern(a);
                self.link_child(id, start, cid);
            }
        } else {
            let assignment = self.nodes[id.index()].assignment.clone();
            let mut succs = std::mem::take(&mut self.scratch_succs);
            self.successor_assignments(&assignment, &mut succs);
            if listed.is_some() {
                self.stats.successor_memo_misses += 1;
                let entry = &mut self.successor_misses;
                entry.push(self.scratch_key.len() as u64);
                entry.extend_from_slice(&self.scratch_key);
                let list_at = entry.len();
                entry.push(0);
                for a in &succs {
                    a.push_words(entry);
                }
                // PANIC-OK: list_at indexes the length word pushed above.
                entry[list_at] = (entry.len() - list_at - 1) as u64;
            }
            for a in succs.drain(..) {
                let cid = self.intern(a);
                self.link_child(id, start, cid);
            }
            self.scratch_succs = succs;
        }
        let len = self.child_edges.len() as u32 - start;
        self.child_span[id.index()] = (start, len);
        self.stats.nodes_expanded += 1;
        (start, len)
    }

    /// Records `cid` as a child of `id`, whose span begins at `start`,
    /// unless it is `id` itself or already there. `id` is not yet a
    /// parent of anything else: a node expands once, and a MORE tip is
    /// attached to an expanded node only.
    fn link_child(&mut self, id: NodeId, start: u32, cid: NodeId) {
        if cid != id && !self.child_edges[start as usize..].contains(&cid) {
            self.child_edges.push(cid);
            self.push_parent(cid, id);
        }
    }

    /// Resolves a span returned by [`Self::ensure_children`].
    #[inline]
    pub fn child_slice(&self, span: (u32, u32)) -> &[NodeId] {
        &self.child_edges[span.0 as usize..(span.0 + span.1) as usize]
    }

    /// The child at child-edge arena position `pos`, a position inside a
    /// span returned by [`Self::ensure_children`]. The arena only grows,
    /// so a position names the same child for the life of the DAG.
    #[inline]
    pub fn child_at(&self, pos: u32) -> NodeId {
        // PANIC-OK: callers pass positions of spans the arena handed out.
        self.child_edges[pos as usize]
    }

    /// Generates the immediate-successor assignments of `a` within `𝒜`,
    /// appending into the caller-provided buffer (cleared first).
    fn successor_assignments(&mut self, a: &Assignment, out: &mut Vec<Assignment>) {
        out.clear();
        let vocab = self.vocab;
        let nslots = self.validity.slots().len();
        // Slot by slot, the last first, the add moves and then the replace
        // moves of higher values first: the list is sorted below, and in
        // this order it mostly is already (an edit of a later slot sorts
        // first, and vocabulary children carry larger ids than their
        // parents), which is the cheap case of sorting a short list.
        for si in (0..nslots).rev() {
            let slot = Slot(si as u16);
            // add (multiplicity combination)
            let info = &self.validity.slots()[si];
            if self.allow_multiplicities && info.mult.max().is_none_or(|m| a.slot(slot).len() < m) {
                self.add_candidates(a, slot, out);
            }
            // replace: one vocabulary child step on one value
            for &v in a.slot(slot).iter().rev() {
                for c in value_children(vocab, v) {
                    let cand = a.with_replaced(vocab, slot, v, c);
                    if cand != *a {
                        self.stats.admits_calls += 1;
                        if self.validity.admits(vocab, &cand) {
                            self.stats.candidates_admitted += 1;
                            out.push(cand);
                        }
                    }
                }
            }
        }
        // MORE-fact component specialization
        for &f in a.more() {
            for g in self.fact_children(f) {
                let cand = a.with_more_replaced(vocab, f, g);
                if cand != *a {
                    out.push(cand);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    fn fact_children(&self, f: Fact) -> Vec<Fact> {
        let mut out = Vec::new();
        for &s in self.vocab.elem_children(f.subject) {
            out.push(Fact::new(s, f.rel, f.object));
        }
        for &r in self.vocab.rel_children(f.rel) {
            out.push(Fact::new(f.subject, r, f.object));
        }
        for &o in self.vocab.elem_children(f.object) {
            out.push(Fact::new(f.subject, f.rel, o));
        }
        out
    }

    /// Appends to `out` the "add a value" successors of `a` at `slot`:
    /// `a` plus one most-general admissible value incomparable to the
    /// slot's current antichain. BFS from the slot's minimal values;
    /// subtrees are pruned on comparability or inadmissibility (both are
    /// inherited downward).
    fn add_candidates(&mut self, a: &Assignment, slot: Slot, out: &mut Vec<Assignment>) {
        let vocab = self.vocab;
        let existing = a.slot(slot);
        let mut queue = std::mem::take(&mut self.scratch_queue);
        let mut seen = std::mem::take(&mut self.scratch_seen);
        queue.clear();
        seen.clear();
        queue.extend_from_slice(self.validity.minimal_values(slot));
        seen.extend(queue.iter().copied());
        while let Some(v) = queue.pop() {
            if existing.iter().any(|&w| value_leq(vocab, w, v)) {
                // v (or everything below it) is dominated-by/equal-to an
                // existing value's specialization cone: adding it is a
                // replace-move, not an add — skip the subtree.
                continue;
            }
            if existing.iter().any(|&w| value_leq(vocab, v, w)) {
                // v is more general than an existing value: adding it
                // collapses; descend to find incomparable children.
                for c in value_children(vocab, v) {
                    if seen.insert(c) {
                        queue.push(c);
                    }
                }
                continue;
            }
            // incomparable: admissible ⇒ minimal add; inadmissible ⇒ the
            // whole cone is inadmissible (𝒜 is downward closed) — prune.
            let cand = a.with_value(vocab, slot, v);
            self.stats.admits_calls += 1;
            if self.validity.admits(vocab, &cand) {
                self.stats.candidates_admitted += 1;
                out.push(cand);
            }
        }
        self.scratch_queue = queue;
        self.scratch_seen = seen;
    }

    /// Attaches a crowd-volunteered MORE fact as a successor of `id`
    /// (the prototype's *more* button). Returns the new node, or `None`
    /// when the extension collapses to the same assignment or the query
    /// did not request MORE facts.
    pub fn attach_more_tip(&mut self, id: NodeId, fact: Fact) -> Option<NodeId> {
        if !self.q.more {
            return None;
        }
        let a = self.nodes[id.index()].assignment.clone();
        let extended = a.with_more(self.vocab, fact);
        if extended == a {
            return None;
        }
        let cid = self.intern(extended);
        // register the edge on both sides (keep children coherent whether
        // or not they were already generated; a volunteered tip is not
        // guaranteed to be rediscovered as a regular successor)
        let span = self.ensure_children(id);
        if !self.child_slice(span).contains(&cid) {
            self.append_child(id, cid);
        }
        self.add_parent(cid, id);
        Some(cid)
    }

    /// Appends one child to an already-generated span. If the span is not
    /// at the arena tail it is relocated there (the old segment becomes a
    /// dead gap — tips are rare, contiguity of every live span is not).
    fn append_child(&mut self, id: NodeId, cid: NodeId) {
        let (s, l) = self.child_span[id.index()];
        if (s + l) as usize == self.child_edges.len() {
            self.child_edges.push(cid);
            self.child_span[id.index()] = (s, l + 1);
        } else {
            let new_start = self.child_edges.len() as u32;
            self.child_edges
                .extend_from_within(s as usize..(s + l) as usize);
            self.child_edges.push(cid);
            self.child_span[id.index()] = (new_start, l + 1);
        }
    }

    /// Fully materializes the DAG reachable from the roots and returns the
    /// node count — the paper's "DAG size" statistic. Use
    /// [`without_multiplicities`](Self::without_multiplicities) first to
    /// match the paper's "without multiplicities" counts.
    pub fn materialize_all(&mut self) -> usize {
        let mut cursor = 0usize;
        // roots already materialized; expand breadth-first
        while cursor < self.nodes.len() {
            let id = NodeId(cursor as u32);
            self.ensure_children(id);
            cursor += 1;
        }
        self.nodes.len()
    }
}

/// The immediate vocabulary children of a value, as an iterator borrowing
/// only the vocabulary (no per-call `Vec`; node expansion calls this in
/// its innermost loops).
fn value_children(vocab: &Vocabulary, v: Value) -> impl Iterator<Item = Value> + '_ {
    let (elems, rels): (&[_], &[_]) = match v {
        Value::Elem(e) => (vocab.elem_children(e), &[]),
        Value::Rel(r) => (&[], vocab.rel_children(r)),
    };
    elems
        .iter()
        .map(|&c| Value::Elem(c))
        .chain(rels.iter().map(|&c| Value::Rel(c)))
}

/// ORs `src` into `dst`, over their common length.
fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Tests whether two bitsets of possibly different lengths intersect.
#[inline]
fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

/// The 64-bit hash an assignment is interned under.
fn assignment_hash(a: &Assignment) -> u64 {
    let mut h = FxHasher::default();
    a.hash(&mut h);
    h.finish()
}

/// A fast deterministic hasher for keys the program makes itself (DAG
/// assignments, node ids): per word, rotate, xor and multiply by an odd
/// constant (the Fx hash). It has no defence against crafted collisions,
/// so it must not key a map on input from outside the program.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

/// Builds [`FxHasher`]s for `HashMap`s and `HashSet`s.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves the low bits weakly mixed, and `HashMap`
    /// picks buckets by them: rotate the well-mixed high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_ql::{bind, evaluate_where, parse, MatchMode};
    use ontology::domains::figure1;

    fn dag_for<'a>(ont: &'a ontology::Ontology, b: &'a BoundQuery) -> Dag<'a> {
        let base = evaluate_where(b, ont, MatchMode::Exact);
        Dag::new(b, ont.vocab(), &base)
    }

    fn name_of(dag: &Dag, id: NodeId, slot: usize) -> Vec<String> {
        dag.node(id)
            .assignment
            .slot(Slot(slot as u16))
            .iter()
            .map(|&v| match v {
                Value::Elem(e) => dag.vocab().elem_name(e).to_owned(),
                Value::Rel(r) => dag.vocab().rel_name(r).to_owned(),
            })
            .collect()
    }

    #[test]
    fn single_root_at_thing_thing() {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let dag = dag_for(&ont, &b);
        assert_eq!(dag.roots().len(), 1);
        let r = dag.roots()[0];
        assert_eq!(name_of(&dag, r, 0), vec!["Thing"]);
        assert_eq!(name_of(&dag, r, 1), vec!["Thing"]);
        assert!(!dag.node(r).valid);
    }

    #[test]
    fn children_specialize_one_step() {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let mut dag = dag_for(&ont, &b);
        let r = dag.roots()[0];
        let kids = dag.children(r);
        // (Thing,Thing) → (Place,Thing) and (Thing,Activity): only
        // admissible branches survive (x must generalize an attraction,
        // y an activity).
        let mut rendered: Vec<(Vec<String>, Vec<String>)> = kids
            .iter()
            .map(|&k| (name_of(&dag, k, 0), name_of(&dag, k, 1)))
            .collect();
        rendered.sort();
        assert_eq!(
            rendered,
            vec![
                (vec!["Place".to_owned()], vec!["Thing".to_owned()]),
                (vec!["Thing".to_owned()], vec!["Activity".to_owned()]),
            ]
        );
    }

    #[test]
    fn materialized_count_matches_closure_product() {
        // x-closure (8) × y-closure (14: 13 + Thing) at multiplicity 1.
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let mut dag = dag_for(&ont, &b).without_multiplicities();
        let n = dag.materialize_all();
        // not a full product: e.g. (Madison Square, …) inadmissible; but
        // every product of closure values that admits is reachable.
        // x closure: {CP, BZ, Park, Zoo, Outdoor, Attraction, Place, Thing}
        // y closure: 13 activity values + Thing = 14 ⇒ 8 × 14 = 112.
        assert_eq!(n, 112);
    }

    #[test]
    fn valid_nodes_are_marked() {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let mut dag = dag_for(&ont, &b);
        dag.materialize_all();
        let valid: Vec<NodeId> = dag.node_ids().filter(|&i| dag.node(i).valid).collect();
        // 2 x-instances × 13 y-classes = 26 valid mult-1 nodes, plus valid
        // multiplicity combinations.
        let mult1 = valid
            .iter()
            .filter(|&&i| dag.node(i).assignment.is_base())
            .count();
        assert_eq!(mult1, 26);
    }

    #[test]
    fn add_candidates_produce_antichains() {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let mut dag = dag_for(&ont, &b);
        // (Central Park, {Ball Game}) should get an add-successor carrying
        // an incomparable second y-value (e.g. most-general incomparable
        // admissible: Food / Biking / Water Sport / Feed a Monkey ancestors)
        let v = ont.vocab();
        let a = Assignment::new(
            v,
            vec![
                vec![Value::Elem(v.elem_id("Central Park").unwrap())],
                vec![Value::Elem(v.elem_id("Ball Game").unwrap())],
            ],
            vec![],
        );
        let id = dag.intern(a);
        let kids = dag.children(id);
        // find a multiplicity-2 child
        let pair_kids: Vec<Vec<String>> = kids
            .iter()
            .filter(|&&k| dag.node(k).assignment.slot(Slot(1)).len() == 2)
            .map(|&k| name_of(&dag, k, 1))
            .collect();
        assert!(!pair_kids.is_empty());
        for names in &pair_kids {
            assert!(names.contains(&"Ball Game".to_owned()));
        }
        // added values are most-general: Biking and Water Sport and Food
        // and Feed a Monkey are the incomparable frontier under Activity
        let added: Vec<String> = pair_kids
            .iter()
            .flat_map(|n| n.iter().cloned())
            .filter(|n| n != "Ball Game")
            .collect();
        assert!(added.contains(&"Biking".to_owned()));
        assert!(added.contains(&"Food".to_owned()));
        assert!(!added.contains(&"Basketball".to_owned())); // not minimal
    }

    #[test]
    fn children_are_strict_successors() {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let mut dag = dag_for(&ont, &b);
        let r = dag.roots()[0];
        let mut frontier = vec![r];
        for _ in 0..3 {
            let mut next = Vec::new();
            for id in frontier {
                for c in dag.children(id) {
                    assert!(dag.leq(id, c), "child not ≥ parent");
                    assert!(!dag.leq(c, id), "child equals parent");
                    next.push(c);
                }
            }
            frontier = next;
        }
    }

    #[test]
    fn attach_more_tip_creates_successor() {
        let ont = figure1::ontology();
        let q = parse(figure1::SAMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let mut dag = Dag::new(&b, ont.vocab(), &base);
        let v = ont.vocab();
        let a = Assignment::new(
            v,
            vec![
                vec![Value::Elem(v.elem_id("Central Park").unwrap())],
                vec![Value::Elem(v.elem_id("Biking").unwrap())],
                vec![Value::Elem(v.elem_id("Maoz Veg").unwrap())],
            ],
            vec![],
        );
        let id = dag.intern(a);
        let tip = v.fact("Rent Bikes", "doAt", "Boathouse").unwrap();
        let cid = dag.attach_more_tip(id, tip).unwrap();
        assert!(dag.leq(id, cid));
        assert_eq!(dag.node(cid).assignment.more(), &[tip]);
        assert!(dag.children(id).contains(&cid));
        // the extension is still valid (MORE is part of the query)
        assert!(dag.node(cid).valid);
    }

    #[test]
    fn more_tip_rejected_when_query_has_no_more() {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let mut dag = dag_for(&ont, &b);
        let r = dag.roots()[0];
        let tip = ont.vocab().fact("Rent Bikes", "doAt", "Boathouse").unwrap();
        assert!(dag.attach_more_tip(r, tip).is_none());
    }

    #[test]
    fn empty_valid_set_gives_empty_dag() {
        let ont = figure1::ontology();
        // Swimming Pool has no child-friendly instances inside NYC
        let src = r#"
SELECT FACT-SETS
WHERE
  $x instanceOf "Swimming Pool".
  $y subClassOf* Activity
SATISFYING
  $y doAt $x
WITH SUPPORT = 0.2
"#;
        let q = parse(src).unwrap();
        let b = bind(&q, &ont).unwrap();
        let dag = dag_for(&ont, &b);
        assert!(dag.is_empty());
        assert!(dag.roots().is_empty());
    }

    #[test]
    fn every_materialized_node_looks_up_to_its_own_id() {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let mut dag = dag_for(&ont, &b);
        dag.materialize_all();
        for id in dag.node_ids() {
            assert_eq!(dag.lookup(&dag.node(id).assignment), Some(id));
        }
    }

    #[test]
    fn interning_an_equal_assignment_returns_the_existing_node() {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let mut dag = dag_for(&ont, &b);
        let v = ont.vocab();
        let elem = |name: &str| Value::Elem(v.elem_id(name).unwrap());
        let direct = Assignment::new(
            v,
            vec![vec![elem("Central Park")], vec![elem("Ball Game")]],
            vec![],
        );
        let id = dag.intern(direct);
        let (len, created) = (dag.len(), dag.stats().nodes_created);
        // the same assignment, built by specializing Sport to Ball Game
        let replaced = Assignment::new(
            v,
            vec![vec![elem("Central Park")], vec![elem("Sport")]],
            vec![],
        )
        .with_replaced(v, Slot(1), elem("Sport"), elem("Ball Game"));
        assert_eq!(dag.lookup(&replaced), Some(id));
        assert_eq!(dag.intern(replaced), id);
        assert_eq!((dag.len(), dag.stats().nodes_created), (len, created));
    }

    /// Interning is order-exact on the paper's three domain queries: a
    /// breadth-first expansion of each DAG's first 300 nodes creates the
    /// same number of nodes as the `HashMap<Assignment, NodeId>` index it
    /// replaced (counts taken from that index), and re-interning any
    /// node's assignment returns its id.
    #[test]
    fn domain_dags_intern_each_assignment_once() {
        use ontology::domains::{culinary, self_treatment, travel, DomainScale};
        let cases = [
            (travel(DomainScale::paper()), 1_304),
            (culinary(DomainScale::paper()), 1_524),
            (self_treatment(DomainScale::paper()), 741),
        ];
        for (domain, expected) in cases {
            let q = parse(&domain.query).unwrap();
            let b = bind(&q, &domain.ontology).unwrap();
            let mut dag = dag_for(&domain.ontology, &b);
            let mut cursor = 0;
            while cursor < dag.len().min(300) {
                dag.ensure_children(NodeId(cursor as u32));
                cursor += 1;
            }
            let created = dag.stats().nodes_created;
            assert_eq!(created, expected, "{}", domain.name);
            for id in dag.node_ids() {
                let a = dag.node(id).assignment.clone();
                assert_eq!(dag.intern(a), id, "{}", domain.name);
            }
            assert_eq!(dag.stats().nodes_created, created, "{}", domain.name);
        }
    }

    /// Everything a DAG's consumers can observe of its shape: per node
    /// its assignment, `valid` flag, generated children and parents in
    /// order, plus the created and expanded counts.
    type Shape = (
        Vec<(Assignment, bool, Option<Vec<NodeId>>, Vec<NodeId>)>,
        usize,
        usize,
    );

    fn shape(dag: &Dag) -> Shape {
        let nodes = dag
            .node_ids()
            .map(|id| {
                let kids = dag.children_if_generated(id).map(<[NodeId]>::to_vec);
                let node = dag.node(id);
                (
                    node.assignment.clone(),
                    node.valid,
                    kids,
                    dag.parents(id).collect(),
                )
            })
            .collect();
        let gs = dag.stats();
        (nodes, gs.nodes_created, gs.nodes_expanded)
    }

    /// A splitmix64 stream: the random node order of one case.
    fn stream(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed;
        move |n| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// `steps` random moves on `dag`: each expands a random node, or
    /// (with `tips`, one move in four) first attaches a random fact of
    /// the ontology as a MORE tip to it. Returns each tip's parent and
    /// child.
    fn random_moves(
        dag: &mut Dag,
        ont: &ontology::Ontology,
        seed: u64,
        steps: usize,
        tips: bool,
    ) -> Vec<(NodeId, NodeId)> {
        let facts = ont.facts().as_slice();
        let mut pick = stream(seed);
        let mut attached = Vec::new();
        for _ in 0..steps {
            let id = NodeId(pick(dag.len()) as u32);
            if tips && pick(4) == 0 {
                if let Some(tip) = dag.attach_more_tip(id, facts[pick(facts.len())]) {
                    attached.push((id, tip));
                }
            }
            dag.ensure_children(id);
        }
        attached
    }

    /// The entries of `map`, decoded and sorted.
    fn decoded(map: &SuccessorMap, slots: usize) -> Vec<(Assignment, Vec<Assignment>)> {
        let forms = |mut words: &[u64]| {
            let mut out = Vec::new();
            while !words.is_empty() {
                let (a, rest) = Assignment::pop_words(words, slots);
                out.push(a);
                words = rest;
            }
            out
        };
        let mut lists = Vec::new();
        for chunk in &map.chunks {
            let mut rest: &[u64] = chunk;
            while let Some((key, list, tail)) = split_entry(rest) {
                let [key] = &forms(key)[..] else {
                    panic!("a key is one form")
                };
                lists.push((key.clone(), forms(list)));
                rest = tail;
            }
            assert!(rest.is_empty());
        }
        lists.sort();
        lists
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A DAG that reads a successor memo an earlier DAG of the same
        /// query filled has the shape of one without a memo, whatever
        /// order nodes expand in and wherever MORE tips attach; every
        /// memo list is exactly what generation returns, so no tip-only
        /// child enters the memo.
        #[test]
        fn a_successor_memo_leaves_the_dag_unchanged(
            domain in 0usize..2,
            fill_seed in 0u64..1_000_000,
            seed in 0u64..1_000_000,
            tips in proptest::prelude::any::<bool>(),
        ) {
            use ontology::domains::{travel, DomainScale};
            let (ont, src) = match domain {
                0 => (figure1::ontology(), figure1::SAMPLE_QUERY.to_string()),
                _ => {
                    let d = travel(DomainScale::small());
                    (d.ontology, d.query)
                }
            };
            let b = bind(&parse(&src).unwrap(), &ont).unwrap();
            let base = evaluate_where(&b, &ont, MatchMode::Exact);
            let slots = b.sat_vars.len();
            // the earlier DAG fills the memo
            let mut first =
                Dag::new(&b, ont.vocab(), &base).with_successor_memo(Arc::default());
            let first_tips = random_moves(&mut first, &ont, fill_seed, 30, tips);
            let memo = SuccessorMap::default().grown(&first.take_successor_misses().into(), usize::MAX);
            let lists = decoded(&memo, slots);
            proptest::prelude::prop_assert_eq!(lists.len(), first.stats().nodes_expanded);
            let mut fresh = Dag::new(&b, ont.vocab(), &base);
            for (key, list) in &lists {
                let mut want = Vec::new();
                fresh.successor_assignments(key, &mut want);
                proptest::prelude::prop_assert_eq!(list, &want);
            }
            for (parent, tip) in &first_tips {
                let tip = &first.node(*tip).assignment;
                let parent = &first.node(*parent).assignment;
                let mut generated = Vec::new();
                fresh.successor_assignments(parent, &mut generated);
                if let Some((_, list)) = lists.iter().find(|(key, _)| key == parent) {
                    proptest::prelude::prop_assert!(
                        generated.contains(tip) || !list.contains(tip)
                    );
                }
            }
            // the same moves on a DAG with the memo and on one without
            let memo = Arc::new(memo);
            // the earlier DAG's own moves: every expansion hits
            let mut again = Dag::new(&b, ont.vocab(), &base).with_successor_memo(memo.clone());
            random_moves(&mut again, &ont, fill_seed, 30, tips);
            proptest::prelude::prop_assert_eq!(shape(&again), shape(&first));
            let gs = again.stats();
            proptest::prelude::prop_assert_eq!(
                (gs.successor_memo_hits, gs.successor_memo_misses),
                (gs.nodes_expanded, 0)
            );
            let mut plain = Dag::new(&b, ont.vocab(), &base);
            let mut memoized = Dag::new(&b, ont.vocab(), &base).with_successor_memo(memo);
            let plain_tips = random_moves(&mut plain, &ont, seed, 40, tips);
            let memo_tips = random_moves(&mut memoized, &ont, seed, 40, tips);
            proptest::prelude::prop_assert_eq!(plain_tips, memo_tips);
            proptest::prelude::prop_assert_eq!(shape(&plain), shape(&memoized));
            let gs = memoized.stats();
            proptest::prelude::prop_assert_eq!(
                gs.successor_memo_hits + gs.successor_memo_misses,
                gs.nodes_expanded
            );
            let misses =
                SuccessorMap::default().grown(&memoized.take_successor_misses().into(), usize::MAX);
            proptest::prelude::prop_assert_eq!(gs.successor_memo_misses, misses.len());
        }
    }

    /// For every element of the vocabulary, the index behind pruning
    /// clicks lists exactly the nodes a full scan finds (`involves_any`
    /// of the element's bit), in id order. DAGs of figure 1 (whose query
    /// takes MORE tips), the synthetic domain and travel grow by seeded
    /// random expansions, and the index catches up between the steps.
    #[test]
    fn the_click_index_matches_a_full_scan() {
        use crate::classify::insert_elem;
        use ontology::domains::{travel, DomainScale};
        let synthetic = crate::synth::synthetic_domain(100, 5, 0);
        let travel = travel(DomainScale::small());
        let cases = [
            (figure1::ontology(), figure1::SAMPLE_QUERY.to_string()),
            (synthetic.ontology, synthetic.query),
            (travel.ontology, travel.query),
        ];
        for (ont, src) in cases {
            let b = bind(&parse(&src).unwrap(), &ont).unwrap();
            let base = evaluate_where(&b, &ont, MatchMode::Exact);
            let mut dag = Dag::new(&b, ont.vocab(), &base);
            let mut tips = 0;
            for step in 0..4 {
                tips += random_moves(&mut dag, &ont, step, 25, true).len();
                let before = dag.involved_upto as usize;
                assert_eq!(dag.index_involvement(), dag.len() - before);
                for e in ont.vocab().elems() {
                    let mut bit = Vec::new();
                    insert_elem(&mut bit, e);
                    let scan: Vec<NodeId> = dag
                        .node_ids()
                        .filter(|&id| dag.involves_any(id, &bit))
                        .collect();
                    assert_eq!(dag.nodes_involving(e), scan, "{}", ont.vocab().elem_name(e));
                }
            }
            assert_eq!(tips > 0, b.more, "{src}");
        }
    }

    /// The nested per-slot lists the flat [`Assignment`] replaced, with
    /// that layout's canonical form.
    type Nested = (Vec<Vec<Value>>, Vec<Fact>);

    fn nested(a: &Assignment) -> Nested {
        let slots = (0..a.num_slots())
            .map(|s| a.slot(Slot(s as u16)).to_vec())
            .collect();
        (slots, a.more().to_vec())
    }

    /// The nested layout's canonical antichain: sort, dedup, then remove
    /// each value below another one still there.
    fn nested_canonical(vocab: &Vocabulary, mut vs: Vec<Value>) -> Vec<Value> {
        vs.sort_unstable();
        vs.dedup();
        let mut i = 0;
        while i < vs.len() {
            let v = vs[i];
            if vs.iter().any(|&w| w != v && value_leq(vocab, v, w)) {
                vs.remove(i);
            } else {
                i += 1;
            }
        }
        vs
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Random candidate lists over figure 1's three-slot query, with
        /// multi-valued slots mixing elements and relations and MORE
        /// facts: the flat `Assignment` canonicalizes, compares, sorts,
        /// dedups and interns exactly as the nested lists it replaced, so
        /// node ids do not move. `with_value` and `with_replaced` agree
        /// with building the edited lists afresh.
        #[test]
        fn flat_assignments_behave_like_nested_lists(seed in 0u64..1_000_000) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let ont = figure1::ontology();
            let v = ont.vocab();
            let b = bind(&parse(figure1::SAMPLE_QUERY).unwrap(), &ont).unwrap();
            let mut dag = dag_for(&ont, &b);
            let elems: Vec<ElemId> = v.elems().collect();
            let rels: Vec<ontology::RelId> = v.rels().collect();
            let facts = ont.facts().as_slice();
            let mut pick = stream(seed);
            let value = |pick: &mut dyn FnMut(usize) -> usize| {
                if pick(5) == 0 {
                    Value::Rel(rels[pick(rels.len())])
                } else {
                    Value::Elem(elems[pick(elems.len())])
                }
            };
            let mut flat = Vec::new();
            let mut refs = Vec::new();
            for _ in 0..40 {
                let slots: Vec<Vec<Value>> = (0..3)
                    .map(|_| (0..pick(4)).map(|_| value(&mut pick)).collect())
                    .collect();
                let more: Vec<Fact> = (0..pick(3)).map(|_| facts[pick(facts.len())]).collect();
                let a = Assignment::new(v, slots.clone(), more.clone());
                let canonical: Vec<Vec<Value>> =
                    slots.into_iter().map(|s| nested_canonical(v, s)).collect();
                let mut canonical_more = more.clone();
                canonical_more.sort_unstable();
                canonical_more.dedup();
                let canonical_more: Vec<Fact> = canonical_more
                    .iter()
                    .copied()
                    .filter(|&f| !canonical_more.iter().any(|&g| g != f && v.fact_leq(f, g)))
                    .collect();
                prop_assert_eq!(nested(&a), (canonical, canonical_more));
                refs.push(nested(&a));
                flat.push(a);
            }
            for (a, na) in flat.iter().zip(&refs) {
                for (c, nc) in flat.iter().zip(&refs) {
                    prop_assert_eq!(a == c, na == nc);
                    prop_assert_eq!(a.cmp(c), na.cmp(nc));
                    if a == c {
                        prop_assert_eq!(assignment_hash(a), assignment_hash(c));
                    }
                }
            }
            let mut sorted = flat.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let mut sorted_refs = refs.clone();
            sorted_refs.sort();
            sorted_refs.dedup();
            prop_assert_eq!(sorted.iter().map(nested).collect::<Vec<_>>(), sorted_refs);
            // node ids follow first occurrence, as with a nested index
            let mut fresh = 0;
            for (a, na) in flat.iter().zip(&refs) {
                let existing = (0..dag.len()).find(|&i| nested(&dag.node(NodeId(i as u32)).assignment) == *na);
                let id = dag.intern(a.clone());
                match existing {
                    Some(i) => prop_assert_eq!(id, NodeId(i as u32)),
                    None => {
                        prop_assert_eq!(id.index(), dag.len() - 1);
                        fresh += 1;
                    }
                }
                prop_assert_eq!(dag.lookup(a), Some(id));
            }
            // single-slot edits against a fresh build of the edited lists
            for (a, na) in flat.iter().zip(&refs) {
                let s = pick(3);
                let add = value(&mut pick);
                let mut lists = na.0.clone();
                lists[s].push(add);
                prop_assert_eq!(
                    a.with_value(v, Slot(s as u16), add),
                    Assignment::new(v, lists, na.1.clone())
                );
                if let Some(&old) = na.0[s].first() {
                    let new = value(&mut pick);
                    let mut lists = na.0.clone();
                    lists[s][0] = new;
                    prop_assert_eq!(
                        a.with_replaced(v, Slot(s as u16), old, new),
                        Assignment::new(v, lists, na.1.clone())
                    );
                }
            }
            prop_assert!(fresh > 0);
        }
    }

    #[test]
    fn a_dag_without_multiplicities_ignores_the_successor_memo() {
        let ont = figure1::ontology();
        let b = bind(&parse(figure1::SIMPLE_QUERY).unwrap(), &ont).unwrap();
        let base = evaluate_where(&b, &ont, MatchMode::Exact);
        let memo: Arc<SuccessorMap> = Arc::default();
        let mut dags = [
            Dag::new(&b, ont.vocab(), &base)
                .with_successor_memo(memo.clone())
                .without_multiplicities(),
            Dag::new(&b, ont.vocab(), &base)
                .without_multiplicities()
                .with_successor_memo(memo),
        ];
        for dag in &mut dags {
            assert_eq!(dag.materialize_all(), 112);
            let gs = dag.stats();
            assert_eq!((gs.successor_memo_hits, gs.successor_memo_misses), (0, 0));
            assert!(dag.take_successor_misses().is_empty());
        }
    }

    #[test]
    fn lazy_generation_creates_fewer_nodes_than_full() {
        let ont = figure1::ontology();
        let q = parse(figure1::SIMPLE_QUERY).unwrap();
        let b = bind(&q, &ont).unwrap();
        let mut full = dag_for(&ont, &b);
        full.materialize_all();
        let full_n = full.len();
        let lazy = dag_for(&ont, &b);
        assert!(lazy.len() < full_n / 2, "{} vs {}", lazy.len(), full_n);
    }
}
