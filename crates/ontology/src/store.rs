//! The ontology store: universal facts plus the indexes query evaluation
//! needs, and a builder that wires order-defining relations into `≤E`.

use crate::error::OntologyError;
use crate::fact::{Fact, FactSet};
use crate::ids::{ElemId, RelId};
use crate::vocab::{Vocabulary, VocabularyBuilder};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Builder for an [`Ontology`].
///
/// An ontology is "a fact-set with a particular type of data, intuitively
/// capturing universal truth" (Section 2). Facts whose relation is
/// *order-defining* (`subClassOf` and `instanceOf` by default, mirroring
/// Example 2.3) additionally contribute an edge to the element order `≤E`:
/// `s subClassOf o` makes `o ≤E s`.
///
/// ```
/// use ontology::OntologyBuilder;
/// let mut b = OntologyBuilder::new();
/// b.subclass("Sport", "Activity");
/// b.subclass("Biking", "Sport");
/// b.instance("Central Park", "Park");
/// b.fact("Central Park", "inside", "NYC");
/// b.label("Central Park", "child-friendly");
/// let ont = b.build().unwrap();
/// let v = ont.vocab();
/// let (act, biking) = (v.elem_id("Activity").unwrap(), v.elem_id("Biking").unwrap());
/// assert!(v.elem_leq(act, biking));
/// assert!(ont.contains(v.fact("Central Park", "inside", "NYC").unwrap()));
/// ```
#[derive(Debug, Clone)]
pub struct OntologyBuilder {
    vocab: VocabularyBuilder,
    facts: Vec<Fact>,
    labels: Vec<(ElemId, String)>,
    order_rels: HashSet<RelId>,
    subclass_rel: RelId,
    instance_rel: RelId,
}

impl Default for OntologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl OntologyBuilder {
    /// Creates a builder with `subClassOf` and `instanceOf` pre-registered
    /// as order-defining relations.
    pub fn new() -> Self {
        let mut vocab = VocabularyBuilder::new();
        let subclass_rel = vocab.relation("subClassOf");
        let instance_rel = vocab.relation("instanceOf");
        let order_rels = HashSet::from([subclass_rel, instance_rel]);
        OntologyBuilder {
            vocab,
            facts: Vec::new(),
            labels: Vec::new(),
            order_rels,
            subclass_rel,
            instance_rel,
        }
    }

    /// Interns an element name without asserting any fact about it.
    pub fn element(&mut self, name: &str) -> ElemId {
        self.vocab.element(name)
    }

    /// Interns a relation name.
    pub fn relation(&mut self, name: &str) -> RelId {
        self.vocab.relation(name)
    }

    /// Declares `general ≤R specific` over relations (e.g.
    /// `nearBy ≤R inside` from Figure 1).
    pub fn rel_specializes(&mut self, general: &str, specific: &str) {
        self.vocab.rel_specializes(general, specific);
    }

    /// Marks an additional relation as order-defining: its facts
    /// `s rel o` will also assert `o ≤E s`.
    pub fn order_relation(&mut self, name: &str) {
        let r = self.vocab.relation(name);
        self.order_rels.insert(r);
    }

    /// Adds the universal fact `subject rel object`, interning all names.
    pub fn fact(&mut self, subject: &str, rel: &str, object: &str) {
        let s = self.vocab.element(subject);
        let r = self.vocab.relation(rel);
        let o = self.vocab.element(object);
        self.fact_ids(s, r, o);
    }

    /// Id-based form of [`fact`](Self::fact).
    pub fn fact_ids(&mut self, subject: ElemId, rel: RelId, object: ElemId) {
        if self.order_rels.contains(&rel) {
            // `s subClassOf o` / `s instanceOf o` ⇒ the class `o` is the
            // more general term: `o ≤E s`.
            self.vocab.elem_edge(object, subject);
        }
        self.facts.push(Fact::new(subject, rel, object));
    }

    /// Shorthand for `child subClassOf parent`.
    pub fn subclass(&mut self, child: &str, parent: &str) {
        self.fact(child, "subClassOf", parent);
    }

    /// Shorthand for `instance instanceOf class`.
    pub fn instance(&mut self, instance: &str, class: &str) {
        self.fact(instance, "instanceOf", class);
    }

    /// Attaches a string label to an element (queried with
    /// `$x hasLabel "…"`). Labels are not inherited along `≤E`.
    pub fn label(&mut self, elem: &str, label: &str) {
        let e = self.vocab.element(elem);
        self.labels.push((e, label.to_owned()));
    }

    /// Freezes the vocabulary and builds the indexed ontology.
    pub fn build(self) -> Result<Ontology, OntologyError> {
        let vocab = self.vocab.freeze()?;
        let mut by_rel: Vec<Vec<Fact>> = vec![Vec::new(); vocab.num_rels()];
        let facts = FactSet::from_iter(self.facts);
        for f in facts.iter() {
            by_rel[f.rel.index()].push(f);
        }
        let mut labels: HashMap<ElemId, BTreeSet<String>> = HashMap::new();
        let mut by_label: HashMap<String, Vec<ElemId>> = HashMap::new();
        for (e, l) in self.labels {
            if labels.entry(e).or_default().insert(l.clone()) {
                by_label.entry(l).or_default().push(e);
            }
        }
        for elems in by_label.values_mut() {
            elems.sort_unstable();
        }
        Ok(Ontology {
            subclass_rel: self.subclass_rel,
            instance_rel: self.instance_rel,
            vocab,
            facts,
            by_rel,
            labels,
            by_label,
        })
    }
}

/// A frozen ontology: the vocabulary plus the universal fact-set `O` and
/// lookup indexes.
#[derive(Debug, Clone)]
pub struct Ontology {
    vocab: Vocabulary,
    facts: FactSet,
    by_rel: Vec<Vec<Fact>>,
    labels: HashMap<ElemId, BTreeSet<String>>,
    /// Label → the elements carrying it, in id order.
    by_label: HashMap<String, Vec<ElemId>>,
    subclass_rel: RelId,
    instance_rel: RelId,
}

impl Ontology {
    /// The underlying vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The universal fact-set `O`.
    pub fn facts(&self) -> &FactSet {
        &self.facts
    }

    /// The id of the built-in `subClassOf` relation.
    pub fn subclass_rel(&self) -> RelId {
        self.subclass_rel
    }

    /// The id of the built-in `instanceOf` relation.
    pub fn instance_rel(&self) -> RelId {
        self.instance_rel
    }

    /// Whether the exact fact is asserted.
    pub fn contains(&self, f: Fact) -> bool {
        self.facts.contains(f)
    }

    /// Whether `f` is semantically implied: `∃ f' ∈ O` with `f ≤ f'`.
    pub fn implies(&self, f: Fact) -> bool {
        // Only facts whose relation specializes f.rel can imply f.
        self.vocab
            .rel_descendants(f.rel)
            .flat_map(|r| self.facts_with_rel(r))
            .any(|&g| self.vocab.fact_leq(f, g))
    }

    /// All asserted facts with the given relation (exact match).
    pub fn facts_with_rel(&self, r: RelId) -> &[Fact] {
        &self.by_rel[r.index()]
    }

    /// Whether `elem` carries `label`.
    pub fn has_label(&self, elem: ElemId, label: &str) -> bool {
        self.labels.get(&elem).is_some_and(|s| s.contains(label))
    }

    /// All elements carrying `label`, in id order.
    pub fn elems_with_label(&self, label: &str) -> &[ElemId] {
        self.by_label.get(label).map_or(&[], Vec::as_slice)
    }

    /// Number of asserted facts.
    pub fn num_facts(&self) -> usize {
        self.facts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ontology {
        let mut b = OntologyBuilder::new();
        b.subclass("Sport", "Activity");
        b.subclass("Ball Game", "Sport");
        b.subclass("Basketball", "Ball Game");
        b.subclass("Park", "Outdoor");
        b.instance("Central Park", "Park");
        b.fact("Central Park", "inside", "NYC");
        b.fact("Maoz Veg", "nearBy", "Central Park");
        b.rel_specializes("nearBy", "inside");
        b.label("Central Park", "child-friendly");
        b.element("Boathouse"); // vocabulary-only element
        b.build().unwrap()
    }

    #[test]
    fn order_defining_relations_feed_leq() {
        let o = sample();
        let v = o.vocab();
        let act = v.elem_id("Activity").unwrap();
        let bb = v.elem_id("Basketball").unwrap();
        assert!(v.elem_leq(act, bb));
        // instanceOf too: Park ≤E Central Park.
        let park = v.elem_id("Park").unwrap();
        let cp = v.elem_id("Central Park").unwrap();
        assert!(v.elem_leq(park, cp));
    }

    #[test]
    fn implication_via_relation_order() {
        let o = sample();
        let v = o.vocab();
        // Central Park inside NYC is asserted; nearBy ≤R inside, so
        // ⟨Central Park, nearBy, NYC⟩ is implied though not asserted.
        let near = v.fact("Central Park", "nearBy", "NYC").unwrap();
        assert!(!o.contains(near));
        assert!(o.implies(near));
    }

    #[test]
    fn implication_via_element_order() {
        let o = sample();
        let v = o.vocab();
        // Maoz Veg nearBy Central Park asserted. Outdoor ≤ Park ≤ Central
        // Park, so ⟨Maoz Veg, nearBy, Outdoor⟩... wait: object must be ≤ the
        // asserted object: Outdoor ≤E Central Park holds.
        let f = v.fact("Maoz Veg", "nearBy", "Outdoor").unwrap();
        assert!(o.implies(f));
        let not = v.fact("Maoz Veg", "inside", "Central Park").unwrap();
        assert!(!o.implies(not));
    }

    #[test]
    fn labels() {
        let o = sample();
        let v = o.vocab();
        let cp = v.elem_id("Central Park").unwrap();
        let park = v.elem_id("Park").unwrap();
        assert!(o.has_label(cp, "child-friendly"));
        assert!(!o.has_label(park, "child-friendly")); // not inherited
        assert_eq!(o.elems_with_label("child-friendly"), vec![cp]);
        assert!(o.elems_with_label("nonexistent").is_empty());
    }

    #[test]
    fn facts_with_rel_index() {
        let o = sample();
        let v = o.vocab();
        let inside = v.rel_id("inside").unwrap();
        assert_eq!(o.facts_with_rel(inside).len(), 1);
        let near = v.rel_id("nearBy").unwrap();
        assert_eq!(o.facts_with_rel(near).len(), 1);
    }

    #[test]
    fn vocabulary_only_elements_have_no_facts() {
        let o = sample();
        let v = o.vocab();
        let boathouse = v.elem_id("Boathouse").unwrap();
        assert!(o
            .facts()
            .iter()
            .all(|f| f.subject != boathouse && f.object != boathouse));
    }
}
