//! Fact *patterns*: facts whose components may be existential wildcards.
//!
//! The `[]` term of OASSIS-QL ("anything, as long as one exists" —
//! Section 3) survives into the mined patterns: applying an assignment to
//! the meta-fact `[] eatAt $z` yields a pattern fact with a wildcard
//! subject. Pattern-sets therefore generalize [`FactSet`]s, and the order
//! of Definition 2.5 extends pointwise with wildcards accepting any
//! component.

use crate::fact::{Fact, FactSet};
use crate::ids::{ElemId, RelId};
use crate::vocab::Vocabulary;

/// A fact whose components may be wildcards (`None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternFact {
    /// Subject, or `None` for `[]`.
    pub subject: Option<ElemId>,
    /// Relation, or `None` for a wildcard relation.
    pub rel: Option<RelId>,
    /// Object, or `None` for `[]`.
    pub object: Option<ElemId>,
}

impl PatternFact {
    /// A fully concrete pattern.
    pub fn from_fact(f: Fact) -> Self {
        PatternFact {
            subject: Some(f.subject),
            rel: Some(f.rel),
            object: Some(f.object),
        }
    }

    /// Whether this pattern is ≤ the concrete fact `g` (wildcards accept
    /// anything; concrete components use the orders of Definition 2.5).
    pub fn leq_fact(&self, vocab: &Vocabulary, g: Fact) -> bool {
        self.subject.is_none_or(|s| vocab.elem_leq(s, g.subject))
            && self.rel.is_none_or(|r| vocab.rel_leq(r, g.rel))
            && self.object.is_none_or(|o| vocab.elem_leq(o, g.object))
    }

    /// Pattern-to-pattern order: `self ≤ other` iff every concrete
    /// component of `self` is ≤ the corresponding component of `other`
    /// (a wildcard in `self` accepts anything; a wildcard in `other` is
    /// only ≥ a wildcard).
    pub fn leq(&self, vocab: &Vocabulary, other: &PatternFact) -> bool {
        let elem_ok = |a: Option<ElemId>, b: Option<ElemId>| match (a, b) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(x), Some(y)) => vocab.elem_leq(x, y),
        };
        let rel_ok = |a: Option<RelId>, b: Option<RelId>| match (a, b) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(x), Some(y)) => vocab.rel_leq(x, y),
        };
        elem_ok(self.subject, other.subject)
            && rel_ok(self.rel, other.rel)
            && elem_ok(self.object, other.object)
    }

    /// Renders the pattern, wildcards as `[]`.
    pub fn to_display(&self, vocab: &Vocabulary) -> String {
        let s = self
            .subject
            .map_or("[]".to_owned(), |e| vocab.elem_name(e).to_owned());
        let r = self
            .rel
            .map_or("[]".to_owned(), |r| vocab.rel_name(r).to_owned());
        let o = self
            .object
            .map_or("[]".to_owned(), |e| vocab.elem_name(e).to_owned());
        format!("{s} {r} {o}")
    }
}

/// A canonical (sorted, deduplicated) set of pattern facts — the unit the
/// crowd is asked about.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternSet(Vec<PatternFact>);

impl PatternSet {
    /// The empty pattern-set (implied by every transaction).
    pub fn new() -> Self {
        PatternSet(Vec::new())
    }

    /// Builds from an iterator, canonicalizing.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = PatternFact>>(iter: I) -> Self {
        let mut v: Vec<PatternFact> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        PatternSet(v)
    }

    /// Builds from concrete facts.
    pub fn from_facts<I: IntoIterator<Item = Fact>>(iter: I) -> Self {
        Self::from_iter(iter.into_iter().map(PatternFact::from_fact))
    }

    /// Inserts a pattern fact; returns whether it was new.
    pub fn insert(&mut self, p: PatternFact) -> bool {
        match self.0.binary_search(&p) {
            Ok(_) => false,
            Err(pos) => {
                self.0.insert(pos, p);
                true
            }
        }
    }

    /// Number of pattern facts.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &PatternFact> + '_ {
        self.0.iter()
    }

    /// Whether the transaction `t` implies (supports) this pattern-set:
    /// every pattern fact is ≤ some fact of `t`.
    pub fn supported_by(&self, vocab: &Vocabulary, t: &FactSet) -> bool {
        self.0
            .iter()
            .all(|p| t.iter().any(|g| p.leq_fact(vocab, g)))
    }

    /// Pattern-set order (extends Definition 2.5): `self ≤ other` iff each
    /// pattern of `self` is ≤ some pattern of `other`.
    pub fn leq(&self, vocab: &Vocabulary, other: &PatternSet) -> bool {
        self.0
            .iter()
            .all(|p| other.0.iter().any(|q| p.leq(vocab, q)))
    }

    /// Renders in the paper's dotted notation.
    pub fn to_display(&self, vocab: &Vocabulary) -> String {
        self.0
            .iter()
            .map(|p| p.to_display(vocab))
            .collect::<Vec<_>>()
            .join(". ")
    }
}

impl FromIterator<PatternFact> for PatternSet {
    fn from_iter<I: IntoIterator<Item = PatternFact>>(iter: I) -> Self {
        PatternSet::from_iter(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::figure1;

    #[test]
    fn wildcard_subject_matches_anything() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let t = FactSet::from_iter([
            v.fact("Falafel", "eatAt", "Maoz Veg").unwrap(),
            v.fact("Biking", "doAt", "Central Park").unwrap(),
        ]);
        // [] eatAt Maoz Veg
        let p = PatternFact {
            subject: None,
            rel: v.rel_id("eatAt"),
            object: v.elem_id("Maoz Veg"),
        };
        assert!(PatternSet::from_iter([p]).supported_by(v, &t));
        // [] eatAt Pine — not supported
        let q = PatternFact {
            subject: None,
            rel: v.rel_id("eatAt"),
            object: v.elem_id("Pine"),
        };
        assert!(!PatternSet::from_iter([q]).supported_by(v, &t));
    }

    #[test]
    fn concrete_patterns_agree_with_factset_order() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let t = FactSet::from_iter([v.fact("Basketball", "doAt", "Central Park").unwrap()]);
        let general = PatternSet::from_facts([v.fact("Sport", "doAt", "Central Park").unwrap()]);
        assert!(general.supported_by(v, &t));
        let wrong = PatternSet::from_facts([v.fact("Biking", "doAt", "Central Park").unwrap()]);
        assert!(!wrong.supported_by(v, &t));
    }

    #[test]
    fn pattern_order_with_wildcards() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let concrete = PatternFact::from_fact(v.fact("Biking", "doAt", "Central Park").unwrap());
        let wild = PatternFact {
            subject: None,
            rel: v.rel_id("doAt"),
            object: v.elem_id("Central Park"),
        };
        assert!(wild.leq(v, &concrete)); // wildcard is more general
        assert!(!concrete.leq(v, &wild));
        let generalized = PatternFact::from_fact(v.fact("Sport", "doAt", "Central Park").unwrap());
        assert!(generalized.leq(v, &concrete));
    }

    #[test]
    fn empty_patternset_is_bottom() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let empty = PatternSet::new();
        let t = FactSet::new();
        assert!(empty.supported_by(v, &t));
        let some = PatternSet::from_facts([v.fact("Biking", "doAt", "Central Park").unwrap()]);
        assert!(empty.leq(v, &some));
        assert!(!some.leq(v, &empty));
    }

    #[test]
    fn display_uses_brackets_for_wildcards() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let p = PatternFact {
            subject: None,
            rel: v.rel_id("eatAt"),
            object: v.elem_id("Pine"),
        };
        assert_eq!(p.to_display(v), "[] eatAt Pine");
    }
}
