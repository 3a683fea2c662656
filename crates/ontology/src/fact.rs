//! Facts and fact-sets (Definitions 2.2 and 2.5).

use crate::ids::{ElemId, RelId};
use crate::vocab::Vocabulary;

/// A fact `⟨e1, r, e2⟩ ∈ E × R × E` (Definition 2.2), e.g.
/// `Biking doAt Central Park`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fact {
    /// The first element (RDF subject).
    pub subject: ElemId,
    /// The relation (RDF predicate).
    pub rel: RelId,
    /// The second element (RDF object).
    pub object: ElemId,
}

impl Fact {
    /// Creates a fact.
    #[inline]
    pub fn new(subject: ElemId, rel: RelId, object: ElemId) -> Self {
        Fact {
            subject,
            rel,
            object,
        }
    }
}

/// A set of facts (Definition 2.2), stored sorted and deduplicated so that
/// equality and hashing are canonical.
///
/// Fact-sets serve three roles in the paper: the ontology's universal facts,
/// the transactions of a personal database (Table 3), and query answers.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FactSet(Vec<Fact>);

impl FactSet {
    /// The empty fact-set.
    pub fn new() -> Self {
        FactSet(Vec::new())
    }

    /// Builds a fact-set from an iterator, sorting and deduplicating.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = Fact>>(iter: I) -> Self {
        let mut v: Vec<Fact> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        FactSet(v)
    }

    /// Inserts a fact, keeping the canonical order. Returns `true` if the
    /// fact was not already present.
    pub fn insert(&mut self, f: Fact) -> bool {
        match self.0.binary_search(&f) {
            Ok(_) => false,
            Err(pos) => {
                self.0.insert(pos, f);
                true
            }
        }
    }

    /// Whether the exact fact (not modulo ≤) is present.
    pub fn contains(&self, f: Fact) -> bool {
        self.0.binary_search(&f).is_ok()
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over the facts in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = Fact> + '_ {
        self.0.iter().copied()
    }

    /// The facts as a slice.
    pub fn as_slice(&self) -> &[Fact] {
        &self.0
    }

    /// The fact-set order of Definition 2.5: `self ≤ other` iff every fact
    /// of `self` is ≤ **some** fact of `other`.
    ///
    /// When `other` is a transaction `T`, `self ≤ T` is read as "`T` implies
    /// `self`" — the transaction supports the (possibly more general)
    /// pattern. Example 2.6: `{⟨Sport, doAt, Central Park⟩} ≤ T1`.
    pub fn leq(&self, vocab: &Vocabulary, other: &FactSet) -> bool {
        self.0
            .iter()
            .all(|&f| other.0.iter().any(|&g| vocab.fact_leq(f, g)))
    }

    /// Union of two fact-sets.
    pub fn union(&self, other: &FactSet) -> FactSet {
        FactSet::from_iter(self.iter().chain(other.iter()))
    }

    /// Renders the set in the paper's notation, facts joined by `". "`.
    pub fn to_display(&self, vocab: &Vocabulary) -> String {
        self.0
            .iter()
            .map(|&f| vocab.fact_to_string(f))
            .collect::<Vec<_>>()
            .join(". ")
    }
}

impl FromIterator<Fact> for FactSet {
    fn from_iter<I: IntoIterator<Item = Fact>>(iter: I) -> Self {
        FactSet::from_iter(iter)
    }
}

impl IntoIterator for FactSet {
    type Item = Fact;
    type IntoIter = std::vec::IntoIter<Fact>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a FactSet {
    type Item = &'a Fact;
    type IntoIter = std::slice::Iter<'a, Fact>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::VocabularyBuilder;

    fn vocab() -> Vocabulary {
        let mut b = VocabularyBuilder::new();
        b.elem_specializes("Activity", "Sport");
        b.elem_specializes("Sport", "Biking");
        b.elem_specializes("Sport", "Basketball");
        b.element("Central Park");
        b.element("Maoz Veg");
        b.element("Falafel");
        b.element("Food");
        b.elem_specializes("Food", "Falafel");
        b.relation("doAt");
        b.relation("eatAt");
        b.freeze().unwrap()
    }

    #[test]
    fn canonical_form() {
        let v = vocab();
        let f1 = v.fact("Biking", "doAt", "Central Park").unwrap();
        let f2 = v.fact("Falafel", "eatAt", "Maoz Veg").unwrap();
        let a = FactSet::from_iter([f2, f1, f2]);
        let b = FactSet::from_iter([f1, f2]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn insert_dedups() {
        let v = vocab();
        let f = v.fact("Biking", "doAt", "Central Park").unwrap();
        let mut s = FactSet::new();
        assert!(s.insert(f));
        assert!(!s.insert(f));
        assert_eq!(s.len(), 1);
        assert!(s.contains(f));
    }

    #[test]
    fn factset_leq_basic() {
        let v = vocab();
        // T1 = Basketball doAt CP . Falafel eatAt Maoz
        let t1 = FactSet::from_iter([
            v.fact("Basketball", "doAt", "Central Park").unwrap(),
            v.fact("Falafel", "eatAt", "Maoz Veg").unwrap(),
        ]);
        let general = FactSet::from_iter([v.fact("Sport", "doAt", "Central Park").unwrap()]);
        assert!(general.leq(&v, &t1)); // f1 ≤ T1 as in Example 2.6
        let food = FactSet::from_iter([v.fact("Food", "eatAt", "Maoz Veg").unwrap()]);
        assert!(food.leq(&v, &t1));
        let biking = FactSet::from_iter([v.fact("Biking", "doAt", "Central Park").unwrap()]);
        assert!(!biking.leq(&v, &t1)); // Biking ≰ Basketball
    }

    #[test]
    fn empty_set_leq_everything() {
        let v = vocab();
        let empty = FactSet::new();
        let t = FactSet::from_iter([v.fact("Biking", "doAt", "Central Park").unwrap()]);
        assert!(empty.leq(&v, &t));
        assert!(empty.leq(&v, &empty));
        assert!(!t.leq(&v, &empty));
    }

    #[test]
    fn two_facts_may_match_one() {
        let v = vocab();
        // Both general facts are implied by the single specific fact.
        let t = FactSet::from_iter([v.fact("Basketball", "doAt", "Central Park").unwrap()]);
        let a = FactSet::from_iter([
            v.fact("Sport", "doAt", "Central Park").unwrap(),
            v.fact("Activity", "doAt", "Central Park").unwrap(),
        ]);
        assert!(a.leq(&v, &t));
    }

    #[test]
    fn union_is_canonical() {
        let v = vocab();
        let f1 = v.fact("Biking", "doAt", "Central Park").unwrap();
        let f2 = v.fact("Falafel", "eatAt", "Maoz Veg").unwrap();
        let a = FactSet::from_iter([f1]);
        let b = FactSet::from_iter([f2, f1]);
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert_eq!(u, FactSet::from_iter([f1, f2]));
    }

    #[test]
    fn display_notation() {
        let v = vocab();
        let s = FactSet::from_iter([
            v.fact("Biking", "doAt", "Central Park").unwrap(),
            v.fact("Falafel", "eatAt", "Maoz Veg").unwrap(),
        ]);
        let rendered = s.to_display(&v);
        assert!(rendered.contains("Biking doAt Central Park"));
        assert!(rendered.contains(". "));
    }
}
