//! Personal transaction databases and the support measure of Section 2.

use ontology::{FactSet, PatternSet, Vocabulary};

/// The (virtual) personal database `D_u` of one crowd member: a bag of
/// transactions, each the fact-set of one past occasion (Table 3).
///
/// In the real system this database exists only in the member's memory;
/// here it is materialized as simulation ground truth. The mining engine
/// never touches it — it only sees [`Answer`](crate::Answer)s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PersonalDb {
    transactions: Vec<FactSet>,
}

impl PersonalDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a database from transactions.
    pub fn from_transactions(transactions: Vec<FactSet>) -> Self {
        PersonalDb { transactions }
    }

    /// Appends a transaction.
    pub fn push(&mut self, t: FactSet) {
        self.transactions.push(t);
    }

    /// Number of transactions `|D_u|`.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the database has no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// The transactions.
    pub fn transactions(&self) -> &[FactSet] {
        &self.transactions
    }

    /// `supp_u(A) = |{T ∈ D_u | A ≤ T}| / |D_u|` (Section 2). An empty
    /// database yields support 0.
    pub fn support(&self, vocab: &Vocabulary, pattern: &PatternSet) -> f64 {
        if self.transactions.is_empty() {
            return 0.0;
        }
        let n = self
            .transactions
            .iter()
            .filter(|t| pattern.supported_by(vocab, t))
            .count();
        n as f64 / self.transactions.len() as f64
    }

    /// Whether element `e` (or any specialization of it) occurs in any
    /// transaction fact. Elements that never occur are *irrelevant* for
    /// this member — the basis of the user-guided-pruning click of
    /// Section 6.2.
    pub fn element_relevant(&self, vocab: &Vocabulary, e: ontology::ElemId) -> bool {
        self.transactions.iter().any(|t| {
            t.iter()
                .any(|f| vocab.elem_leq(e, f.subject) || vocab.elem_leq(e, f.object))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontology::domains::figure1;
    use ontology::PatternSet;

    #[test]
    fn support_matches_example_2_7() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let [d1, d2] = figure1::personal_dbs(&ont);
        let db1 = PersonalDb::from_transactions(d1);
        let db2 = PersonalDb::from_transactions(d2);
        let a = PatternSet::from_facts([
            v.fact("Pasta", "eatAt", "Pine").unwrap(),
            v.fact("Activity", "doAt", "Bronx Zoo").unwrap(),
        ]);
        assert!((db1.support(v, &a) - 1.0 / 3.0).abs() < 1e-12);
        assert!((db2.support(v, &a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_db_support_is_zero() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let db = PersonalDb::new();
        let p = PatternSet::from_facts([v.fact("Biking", "doAt", "Central Park").unwrap()]);
        assert_eq!(db.support(v, &p), 0.0);
    }

    #[test]
    fn empty_pattern_has_full_support() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let [d1, _] = figure1::personal_dbs(&ont);
        let db = PersonalDb::from_transactions(d1);
        assert_eq!(db.support(v, &PatternSet::new()), 1.0);
    }

    #[test]
    fn support_is_monotone_in_pattern_order() {
        // more specific pattern ⇒ lower-or-equal support
        let ont = figure1::ontology();
        let v = ont.vocab();
        let [d1, _] = figure1::personal_dbs(&ont);
        let db = PersonalDb::from_transactions(d1);
        let general = PatternSet::from_facts([v.fact("Sport", "doAt", "Central Park").unwrap()]);
        let specific = PatternSet::from_facts([v.fact("Biking", "doAt", "Central Park").unwrap()]);
        assert!(general.leq(v, &specific));
        assert!(db.support(v, &general) >= db.support(v, &specific));
    }

    #[test]
    fn element_relevance() {
        let ont = figure1::ontology();
        let v = ont.vocab();
        let [d1, _] = figure1::personal_dbs(&ont);
        let db = PersonalDb::from_transactions(d1);
        // u1 bikes (transactions T3, T4): Sport is relevant via Biking.
        assert!(db.element_relevant(v, v.elem_id("Sport").unwrap()));
        assert!(db.element_relevant(v, v.elem_id("Biking").unwrap()));
        // u1 never swims.
        assert!(!db.element_relevant(v, v.elem_id("Swimming").unwrap()));
        assert!(!db.element_relevant(v, v.elem_id("Water Sport").unwrap()));
    }
}
