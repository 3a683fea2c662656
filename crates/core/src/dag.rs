//! The lazily generated assignment DAG (Section 5 / the paper's
//! `AssignGenerator` module, Section 6.1).
//!
//! Nodes are interned canonical [`Assignment`]s from the expanded set `𝒜`;
//! edges point from an assignment to its immediate successors (one
//! specialization step). Children are generated **on demand** — the lazy
//! strategy the paper credits with generating "less than 1% of the nodes"
//! with multiplicities compared to an eager generator — via three moves:
//!
//! 1. *replace*: specialize one value of one slot by an immediate child in
//!    the vocabulary order;
//! 2. *add* (multiplicity combination): insert a new most-general
//!    admissible value incomparable to the slot's current antichain
//!    (Proposition 5.1's lazy combination);
//! 3. *MORE refinement*: specialize a component of a MORE fact. New MORE
//!    facts themselves enter the DAG only through crowd-volunteered tips
//!    ([`Dag::attach_more_tip`]), mirroring the prototype's *more* button.

// audit: allow-file(D4, node ids are arena indices minted by this module; every access goes through a handle the same arena produced)
use crate::assignment::{value_leq, Assignment, Slot};
use crate::fingerprint::{self, FingerprintSpace};
use crate::validity::ValidityIndex;
use oassis_ql::{BaseAssignment, BoundQuery, Value};
use ontology::{Fact, Vocabulary};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

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
    /// Calls to the validity oracle (`admits`).
    pub admits_calls: usize,
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
    scratch_seen: std::collections::HashSet<Value>,
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
            scratch_seen: std::collections::HashSet::new(),
        };
        dag.make_roots();
        dag
    }

    /// Suppresses multiplicity (add-value) successors.
    pub fn without_multiplicities(mut self) -> Self {
        self.allow_multiplicities = false;
        self
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

    /// The one-word fingerprint summary of a node.
    #[inline]
    pub fn fp_summary(&self, id: NodeId) -> u64 {
        self.fp_summaries[id.index()]
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
        let (s, l) = self.child_span[id.index()];
        if s == NONE32 {
            None
        } else {
            Some(&self.child_edges[s as usize..(s + l) as usize])
        }
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
        let (head, tail) = self.parent_link[child.index()];
        if head != NONE32 {
            let mut cur = head;
            while cur != NONE32 {
                // PANIC-OK: block links only hold indices of pushed blocks.
                let b = &self.parent_blocks[cur as usize];
                if b.items[..b.len as usize].contains(&parent) {
                    return;
                }
                cur = b.next;
            }
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
    pub fn ensure_children(&mut self, id: NodeId) -> (u32, u32) {
        let (s, l) = self.child_span[id.index()];
        if s != NONE32 {
            return (s, l);
        }
        let assignment = self.nodes[id.index()].assignment.clone();
        let mut succs = std::mem::take(&mut self.scratch_succs);
        self.successor_assignments(&assignment, &mut succs);
        let start = self.child_edges.len() as u32;
        for a in succs.drain(..) {
            let cid = self.intern(a);
            if cid != id && !self.child_edges[start as usize..].contains(&cid) {
                self.child_edges.push(cid);
                self.add_parent(cid, id);
            }
        }
        let len = self.child_edges.len() as u32 - start;
        self.child_span[id.index()] = (start, len);
        self.stats.nodes_expanded += 1;
        self.scratch_succs = succs;
        (start, len)
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

    /// Whether children were already generated.
    pub fn is_expanded(&self, id: NodeId) -> bool {
        self.child_span[id.index()].0 != NONE32
    }

    /// Generates the immediate-successor assignments of `a` within `𝒜`,
    /// appending into the caller-provided buffer (cleared first).
    fn successor_assignments(&mut self, a: &Assignment, out: &mut Vec<Assignment>) {
        out.clear();
        let vocab = self.vocab;
        let nslots = self.validity.slots().len();
        // 1. replace: one vocabulary child step on one value
        for si in 0..nslots {
            let slot = Slot(si as u16);
            for &v in a.slot(slot) {
                for c in value_children(vocab, v) {
                    let cand = a.with_replaced(vocab, slot, v, c);
                    if cand != *a {
                        self.stats.admits_calls += 1;
                        if self.validity.admits(vocab, &cand) {
                            out.push(cand);
                        }
                    }
                }
            }
        }
        // 2. add (multiplicity combination)
        if self.allow_multiplicities {
            for si in 0..nslots {
                let slot = Slot(si as u16);
                let info = &self.validity.slots()[si];
                let len = a.slot(slot).len();
                if info.mult.max().is_some_and(|m| len >= m) {
                    continue;
                }
                for v in self.add_candidates(a, slot) {
                    out.push(a.with_value(vocab, slot, v));
                }
            }
        }
        // 3. MORE-fact component specialization
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

    /// Most-general admissible values incomparable to the slot's current
    /// antichain — the immediate "add a value" successors. BFS from the
    /// slot's minimal values; subtrees are pruned on comparability or
    /// inadmissibility (both are inherited downward).
    fn add_candidates(&mut self, a: &Assignment, slot: Slot) -> Vec<Value> {
        let vocab = self.vocab;
        let existing = a.slot(slot);
        let mut out = Vec::new();
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
                out.push(v);
            }
        }
        self.scratch_queue = queue;
        self.scratch_seen = seen;
        out.sort_unstable();
        out
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
