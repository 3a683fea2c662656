//! The vocabulary `(E, ≤E, R, ≤R)` of Definition 2.1 and the derived fact
//! order of Definition 2.5.

use crate::bitmat::BitMatrix;
use crate::error::OntologyError;
use crate::fact::Fact;
use crate::ids::{ElemId, RelId};
use std::collections::HashMap;

/// Builder for a [`Vocabulary`].
///
/// Names are interned on first use. Order edges are added in the paper's
/// orientation: the **general** term is ≤ the **specific** term
/// (`Sport ≤E Biking`). Call [`freeze`](Self::freeze) to validate acyclicity
/// and precompute reachability.
///
/// ```
/// use ontology::VocabularyBuilder;
/// let mut b = VocabularyBuilder::new();
/// b.elem_specializes("Sport", "Biking");
/// b.elem_specializes("Activity", "Sport");
/// let v = b.freeze().unwrap();
/// let (sport, biking) = (v.elem_id("Sport").unwrap(), v.elem_id("Biking").unwrap());
/// let activity = v.elem_id("Activity").unwrap();
/// assert!(v.elem_leq(sport, biking));
/// assert!(v.elem_leq(activity, biking)); // transitive
/// assert!(!v.elem_leq(biking, sport));
/// ```
#[derive(Debug, Default, Clone)]
pub struct VocabularyBuilder {
    elem_names: Vec<String>,
    elem_index: HashMap<String, ElemId>,
    rel_names: Vec<String>,
    rel_index: HashMap<String, RelId>,
    /// Immediate specialization edges `(general, specific)` over elements.
    elem_edges: Vec<(ElemId, ElemId)>,
    rel_edges: Vec<(RelId, RelId)>,
}

impl VocabularyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an element name, returning its id.
    pub fn element(&mut self, name: &str) -> ElemId {
        if let Some(&id) = self.elem_index.get(name) {
            return id;
        }
        let id = ElemId(self.elem_names.len() as u32);
        self.elem_names.push(name.to_owned());
        self.elem_index.insert(name.to_owned(), id);
        id
    }

    /// Interns a relation name, returning its id.
    pub fn relation(&mut self, name: &str) -> RelId {
        if let Some(&id) = self.rel_index.get(name) {
            return id;
        }
        let id = RelId(self.rel_names.len() as u32);
        self.rel_names.push(name.to_owned());
        self.rel_index.insert(name.to_owned(), id);
        id
    }

    /// Declares `general ≤E specific` (an immediate specialization edge),
    /// interning both names.
    pub fn elem_specializes(&mut self, general: &str, specific: &str) {
        let g = self.element(general);
        let s = self.element(specific);
        self.elem_edge(g, s);
    }

    /// Declares `general ≤R specific` over relations, interning both names.
    pub fn rel_specializes(&mut self, general: &str, specific: &str) {
        let g = self.relation(general);
        let s = self.relation(specific);
        self.rel_edge(g, s);
    }

    /// Id-based form of [`elem_specializes`](Self::elem_specializes).
    /// A self-edge is a no-op (the order is reflexive anyway).
    pub fn elem_edge(&mut self, general: ElemId, specific: ElemId) {
        if general != specific {
            self.elem_edges.push((general, specific));
        }
    }

    /// Id-based form of [`rel_specializes`](Self::rel_specializes).
    pub fn rel_edge(&mut self, general: RelId, specific: RelId) {
        if general != specific {
            self.rel_edges.push((general, specific));
        }
    }

    /// Number of interned elements so far.
    pub fn num_elems(&self) -> usize {
        self.elem_names.len()
    }

    /// Number of interned relations so far.
    pub fn num_rels(&self) -> usize {
        self.rel_names.len()
    }

    /// Validates acyclicity of both orders and computes reachability.
    pub fn freeze(self) -> Result<Vocabulary, OntologyError> {
        let (elem_children, elem_parents, elem_desc) =
            close(self.elem_names.len(), &self.elem_edges, |i| {
                OntologyError::ElementCycle {
                    on: self.elem_names[i].clone(),
                }
            })?;
        let (rel_children, rel_parents, rel_desc) = close(
            self.rel_names.len(),
            &self
                .rel_edges
                .iter()
                .map(|&(g, s)| (ElemId(g.0), ElemId(s.0)))
                .collect::<Vec<_>>(),
            |i| OntologyError::RelationCycle {
                on: self.rel_names[i].clone(),
            },
        )?;
        let elem_anc = elem_desc.transposed();
        let rel_anc = rel_desc.transposed();
        Ok(Vocabulary {
            elem_names: self.elem_names,
            elem_index: self.elem_index,
            rel_names: self.rel_names,
            rel_index: self.rel_index,
            elem_children,
            elem_parents,
            elem_desc,
            elem_anc,
            rel_children: rel_children
                .into_iter()
                .map(|v| v.into_iter().map(|e| RelId(e.0)).collect())
                .collect(),
            rel_parents: rel_parents
                .into_iter()
                .map(|v| v.into_iter().map(|e| RelId(e.0)).collect())
                .collect(),
            rel_desc,
            rel_anc,
        })
    }
}

/// Deduplicates edges, topologically sorts the DAG and computes the
/// reflexive–transitive closure. Returns `(children, parents, closure)`.
#[allow(clippy::type_complexity)]
fn close(
    n: usize,
    edges: &[(ElemId, ElemId)],
    mk_err: impl Fn(usize) -> OntologyError,
) -> Result<(Vec<Vec<ElemId>>, Vec<Vec<ElemId>>, BitMatrix), OntologyError> {
    let mut children: Vec<Vec<ElemId>> = vec![Vec::new(); n];
    let mut parents: Vec<Vec<ElemId>> = vec![Vec::new(); n];
    {
        let mut dedup: Vec<(ElemId, ElemId)> = edges.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        for (g, s) in dedup {
            children[g.index()].push(s);
            parents[s.index()].push(g);
        }
    }
    // Kahn's algorithm over specialization edges (general → specific).
    let mut indeg: Vec<usize> = parents.iter().map(Vec::len).collect();
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut topo: Vec<usize> = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        topo.push(i);
        for &c in &children[i] {
            indeg[c.index()] -= 1;
            if indeg[c.index()] == 0 {
                queue.push(c.index());
            }
        }
    }
    if topo.len() != n {
        let on = (0..n)
            .find(|&i| indeg[i] > 0)
            .expect("cycle implies leftover node");
        return Err(mk_err(on));
    }
    // Closure: process in reverse topological order so every child's row is
    // complete before it is folded into its parents.
    let mut closure = BitMatrix::new(n);
    for &i in topo.iter().rev() {
        closure.set(i, i);
        // `children[i]` appear later in `topo`, hence already processed.
        let kids: Vec<usize> = children[i].iter().map(|c| c.index()).collect();
        for c in kids {
            closure.or_row_into(c, i);
        }
    }
    Ok((children, parents, closure))
}

/// A frozen vocabulary: interned names plus the two partial orders with
/// precomputed reachability (Definition 2.1).
#[derive(Debug, Clone)]
pub struct Vocabulary {
    elem_names: Vec<String>,
    elem_index: HashMap<String, ElemId>,
    rel_names: Vec<String>,
    rel_index: HashMap<String, RelId>,
    elem_children: Vec<Vec<ElemId>>,
    elem_parents: Vec<Vec<ElemId>>,
    elem_desc: BitMatrix,
    /// Transpose of `elem_desc`: row `e` is the up-set `{x : x ≤E e}`.
    elem_anc: BitMatrix,
    rel_children: Vec<Vec<RelId>>,
    rel_parents: Vec<Vec<RelId>>,
    rel_desc: BitMatrix,
    /// Transpose of `rel_desc`: row `r` is the up-set `{x : x ≤R r}`.
    rel_anc: BitMatrix,
}

impl Vocabulary {
    /// Looks up an element by name.
    pub fn elem_id(&self, name: &str) -> Option<ElemId> {
        self.elem_index.get(name).copied()
    }

    /// Looks up a relation by name.
    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.rel_index.get(name).copied()
    }

    /// The interned name of an element.
    pub fn elem_name(&self, id: ElemId) -> &str {
        &self.elem_names[id.index()]
    }

    /// The interned name of a relation.
    pub fn rel_name(&self, id: RelId) -> &str {
        &self.rel_names[id.index()]
    }

    /// Number of elements `|E|`.
    pub fn num_elems(&self) -> usize {
        self.elem_names.len()
    }

    /// Number of relations `|R|`.
    pub fn num_rels(&self) -> usize {
        self.rel_names.len()
    }

    /// All element ids.
    pub fn elems(&self) -> impl Iterator<Item = ElemId> {
        (0..self.num_elems() as u32).map(ElemId)
    }

    /// All relation ids.
    pub fn rels(&self) -> impl Iterator<Item = RelId> {
        (0..self.num_rels() as u32).map(RelId)
    }

    /// `a ≤E b`: `a` equals `b` or is a (transitive) generalization of `b`.
    #[inline]
    pub fn elem_leq(&self, a: ElemId, b: ElemId) -> bool {
        self.elem_desc.get(a.index(), b.index())
    }

    /// `a ≤R b` over relations.
    #[inline]
    pub fn rel_leq(&self, a: RelId, b: RelId) -> bool {
        self.rel_desc.get(a.index(), b.index())
    }

    /// Immediate specializations of `a` (its children in the ≤E DAG).
    pub fn elem_children(&self, a: ElemId) -> &[ElemId] {
        &self.elem_children[a.index()]
    }

    /// Immediate generalizations of `a` (its parents in the ≤E DAG).
    pub fn elem_parents(&self, a: ElemId) -> &[ElemId] {
        &self.elem_parents[a.index()]
    }

    /// Immediate specializations of relation `r`.
    pub fn rel_children(&self, r: RelId) -> &[RelId] {
        &self.rel_children[r.index()]
    }

    /// Immediate generalizations of relation `r`.
    pub fn rel_parents(&self, r: RelId) -> &[RelId] {
        &self.rel_parents[r.index()]
    }

    /// All `b` with `a ≤E b` (reflexive–transitive specializations of `a`),
    /// in id order.
    pub fn elem_descendants(&self, a: ElemId) -> impl Iterator<Item = ElemId> + '_ {
        self.elem_desc.row_iter(a.index()).map(|i| ElemId(i as u32))
    }

    /// All `s` with `r ≤R s`, in id order.
    pub fn rel_descendants(&self, r: RelId) -> impl Iterator<Item = RelId> + '_ {
        self.rel_desc.row_iter(r.index()).map(|i| RelId(i as u32))
    }

    /// Number of descendants of `a` (including `a`).
    pub fn elem_descendant_count(&self, a: ElemId) -> usize {
        self.elem_desc.row_count(a.index())
    }

    /// Number of descendants of `r` (including `r`).
    pub fn rel_descendant_count(&self, r: RelId) -> usize {
        self.rel_desc.row_count(r.index())
    }

    /// The up-set of element `a` as raw closure-bitset words (bit `i` set
    /// iff `ElemId(i) ≤E a`); the backing store for order fingerprints.
    #[inline]
    pub fn elem_ancestor_words(&self, a: ElemId) -> &[u64] {
        self.elem_anc.row_words(a.index())
    }

    /// The up-set of relation `r` as raw closure-bitset words.
    #[inline]
    pub fn rel_ancestor_words(&self, r: RelId) -> &[u64] {
        self.rel_anc.row_words(r.index())
    }

    /// Words per element-ancestor row (`⌈|E|/64⌉`).
    #[inline]
    pub fn elem_words(&self) -> usize {
        self.elem_anc.words_per_row()
    }

    /// Words per relation-ancestor row (`⌈|R|/64⌉`).
    #[inline]
    pub fn rel_words(&self) -> usize {
        self.rel_anc.words_per_row()
    }

    /// The fact order of Definition 2.5: `f ≤ f'` iff all three components
    /// are pairwise ≤.
    ///
    /// Example 2.6: with `Sport ≤E Biking`,
    /// `⟨Sport, doAt, Central Park⟩ ≤ ⟨Biking, doAt, Central Park⟩`.
    #[inline]
    pub fn fact_leq(&self, f: Fact, g: Fact) -> bool {
        self.rel_leq(f.rel, g.rel)
            && self.elem_leq(f.subject, g.subject)
            && self.elem_leq(f.object, g.object)
    }

    /// Convenience constructor for a fact from names; `None` if any name is
    /// not interned.
    pub fn fact(&self, subject: &str, rel: &str, object: &str) -> Option<Fact> {
        Some(Fact::new(
            self.elem_id(subject)?,
            self.rel_id(rel)?,
            self.elem_id(object)?,
        ))
    }

    /// Renders a fact in the paper's RDF-ish notation `s r o`.
    pub fn fact_to_string(&self, f: Fact) -> String {
        format!(
            "{} {} {}",
            self.elem_name(f.subject),
            self.rel_name(f.rel),
            self.elem_name(f.object)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vocabulary {
        let mut b = VocabularyBuilder::new();
        b.elem_specializes("Activity", "Sport");
        b.elem_specializes("Sport", "Biking");
        b.elem_specializes("Sport", "Ball Game");
        b.elem_specializes("Ball Game", "Basketball");
        b.elem_specializes("Place", "City");
        b.elem_specializes("Place", "Attraction");
        b.rel_specializes("nearBy", "inside");
        b.relation("doAt");
        b.freeze().unwrap()
    }

    #[test]
    fn interning_is_idempotent() {
        let mut b = VocabularyBuilder::new();
        let a = b.element("X");
        let a2 = b.element("X");
        assert_eq!(a, a2);
        assert_eq!(b.num_elems(), 1);
    }

    #[test]
    fn leq_reflexive_transitive() {
        let v = sample();
        let act = v.elem_id("Activity").unwrap();
        let sport = v.elem_id("Sport").unwrap();
        let bb = v.elem_id("Basketball").unwrap();
        assert!(v.elem_leq(act, act));
        assert!(v.elem_leq(act, bb));
        assert!(v.elem_leq(sport, bb));
        assert!(!v.elem_leq(bb, sport));
        let place = v.elem_id("Place").unwrap();
        assert!(!v.elem_leq(place, bb));
        assert!(!v.elem_leq(act, place));
    }

    #[test]
    fn rel_order() {
        let v = sample();
        let near = v.rel_id("nearBy").unwrap();
        let inside = v.rel_id("inside").unwrap();
        let do_at = v.rel_id("doAt").unwrap();
        assert!(v.rel_leq(near, inside));
        assert!(!v.rel_leq(inside, near));
        assert!(v.rel_leq(do_at, do_at));
        assert!(!v.rel_leq(do_at, near));
    }

    #[test]
    fn children_and_parents() {
        let v = sample();
        let sport = v.elem_id("Sport").unwrap();
        let names: Vec<&str> = v
            .elem_children(sport)
            .iter()
            .map(|&c| v.elem_name(c))
            .collect();
        assert_eq!(names, vec!["Biking", "Ball Game"]);
        let act = v.elem_id("Activity").unwrap();
        assert_eq!(v.elem_parents(sport), &[act]);
    }

    #[test]
    fn descendants_iteration() {
        let v = sample();
        let sport = v.elem_id("Sport").unwrap();
        let mut names: Vec<&str> = v.elem_descendants(sport).map(|c| v.elem_name(c)).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["Ball Game", "Basketball", "Biking", "Sport"]);
        assert_eq!(v.elem_descendant_count(sport), 4);
    }

    #[test]
    fn ancestors_are_transposed_descendants() {
        let v = sample();
        for a in v.elems() {
            for b in v.elems() {
                let up = v.elem_ancestor_words(b);
                assert_eq!(
                    v.elem_leq(a, b),
                    up[a.index() / 64] & (1u64 << (a.index() % 64)) != 0,
                    "{} vs {}",
                    v.elem_name(a),
                    v.elem_name(b)
                );
            }
        }
        let bb = v.elem_id("Basketball").unwrap();
        let act = v.elem_id("Activity").unwrap();
        let words = v.elem_ancestor_words(bb);
        assert_eq!(words.len(), v.elem_words());
        assert!(words[act.index() / 64] & (1u64 << (act.index() % 64)) != 0);
        let near = v.rel_id("nearBy").unwrap();
        let inside = v.rel_id("inside").unwrap();
        let rw = v.rel_ancestor_words(inside);
        assert!(rw[near.index() / 64] & (1u64 << (near.index() % 64)) != 0);
        assert!(
            v.rel_ancestor_words(near)[inside.index() / 64] & (1u64 << (inside.index() % 64)) == 0
        );
    }

    #[test]
    fn fact_order_example_2_6() {
        let v = sample();
        // f1 = ⟨Sport, doAt, CP⟩ ≤ f2 = ⟨Biking, doAt, CP⟩
        let mut b = VocabularyBuilder::new();
        b.elem_specializes("Activity", "Sport");
        b.elem_specializes("Sport", "Biking");
        b.element("Central Park");
        b.element("NYC");
        b.rel_specializes("nearBy", "inside");
        b.relation("doAt");
        let v2 = b.freeze().unwrap();
        let f1 = v2.fact("Sport", "doAt", "Central Park").unwrap();
        let f2 = v2.fact("Biking", "doAt", "Central Park").unwrap();
        assert!(v2.fact_leq(f1, f2));
        assert!(!v2.fact_leq(f2, f1));
        // With nearBy ≤R inside: ⟨CP, nearBy, NYC⟩ ≤ ⟨CP, inside, NYC⟩.
        // (The paper's Example 2.6 prints the inequality the other way
        // around; per Definition 2.5 with `nearBy ≤R inside` this is the
        // consistent direction.)
        let f3 = v2.fact("Central Park", "inside", "NYC").unwrap();
        let f4 = v2.fact("Central Park", "nearBy", "NYC").unwrap();
        assert!(v2.fact_leq(f4, f3));
        assert!(!v2.fact_leq(f3, f4));
        let _ = v; // silence
    }

    #[test]
    fn cycle_detection() {
        let mut b = VocabularyBuilder::new();
        b.elem_specializes("A", "B");
        b.elem_specializes("B", "C");
        b.elem_specializes("C", "A");
        match b.freeze() {
            Err(OntologyError::ElementCycle { .. }) => {}
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn relation_cycle_detection() {
        let mut b = VocabularyBuilder::new();
        b.rel_specializes("r", "s");
        b.rel_specializes("s", "r");
        assert!(matches!(
            b.freeze(),
            Err(OntologyError::RelationCycle { .. })
        ));
    }

    #[test]
    fn self_edge_is_noop() {
        let mut b = VocabularyBuilder::new();
        let a = b.element("A");
        b.elem_edge(a, a);
        let v = b.freeze().unwrap();
        assert!(v.elem_leq(a, a));
        assert!(v.elem_children(a).is_empty());
    }

    #[test]
    fn duplicate_edges_deduplicated() {
        let mut b = VocabularyBuilder::new();
        b.elem_specializes("A", "B");
        b.elem_specializes("A", "B");
        let v = b.freeze().unwrap();
        let a = v.elem_id("A").unwrap();
        assert_eq!(v.elem_children(a).len(), 1);
    }

    #[test]
    fn diamond_dag_supported() {
        // A ≤ B ≤ D and A ≤ C ≤ D: a diamond, not a cycle.
        let mut b = VocabularyBuilder::new();
        b.elem_specializes("A", "B");
        b.elem_specializes("A", "C");
        b.elem_specializes("B", "D");
        b.elem_specializes("C", "D");
        let v = b.freeze().unwrap();
        let a = v.elem_id("A").unwrap();
        let d = v.elem_id("D").unwrap();
        assert!(v.elem_leq(a, d));
        assert_eq!(v.elem_parents(d).len(), 2);
    }
}
