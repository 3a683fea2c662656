//! Property tests: the indexed classifier (closure-fingerprint postings +
//! eager DAG propagation) and a crowd member's personal record
//! (`MemberRecord`: witness lists, a click bitset and the verdicts handed
//! out) are each observationally equivalent to the historical
//! witness-scan classifier under arbitrary interleavings of witness
//! marks, pruning clicks and queries.
//!
//! The reference below reimplements the *old* observable semantics from
//! scratch, independently of `classify.rs`:
//!
//! - classification queries are cache-first, and the first non-`Unknown`
//!   answer for a node sticks forever (later contradictory witnesses or
//!   pruning clicks never flip an already-queried node);
//! - an uncached query computes pruned → significant-witness scan →
//!   insignificant-witness scan, in that priority order;
//! - `mark_*` overwrites any cached value for the marked node;
//! - pruning never invalidates the cache (the old `retain` was a no-op —
//!   `Unknown` was never cached).

use oassis_core::synth::synthetic_domain;
use oassis_core::{Class, Classifier, Dag, MemberRecord, NodeId};
use oassis_ql::{bind, evaluate_where, parse, MatchMode, Value};
use ontology::{ElemId, Vocabulary};
use proptest::prelude::*;
use std::collections::HashMap;

/// Independent reimplementation of the pre-index classifier semantics.
#[derive(Default)]
struct RefClassifier {
    sig: Vec<NodeId>,
    insig: Vec<NodeId>,
    pruned: Vec<ElemId>,
    cache: HashMap<NodeId, Class>,
}

impl RefClassifier {
    fn mark_significant(&mut self, id: NodeId) {
        self.sig.push(id);
        self.cache.insert(id, Class::Significant);
    }

    fn mark_insignificant(&mut self, id: NodeId) {
        self.insig.push(id);
        self.cache.insert(id, Class::Insignificant);
    }

    fn prune_elem(&mut self, e: ElemId) {
        self.pruned.push(e);
    }

    fn pruned_matches(&self, vocab: &Vocabulary, dag: &Dag<'_>, id: NodeId) -> bool {
        let a = &dag.node(id).assignment;
        let hit = |e: ElemId| self.pruned.iter().any(|&p| vocab.elem_leq(p, e));
        for si in 0..a.num_slots() {
            for &v in a.slot(oassis_core::Slot(si as u16)) {
                if let Value::Elem(e) = v {
                    if hit(e) {
                        return true;
                    }
                }
            }
        }
        a.more().iter().any(|f| hit(f.subject) || hit(f.object))
    }

    fn class(&mut self, dag: &Dag<'_>, id: NodeId) -> Class {
        if let Some(&c) = self.cache.get(&id) {
            return c;
        }
        let vocab = dag.vocab();
        let a = &dag.node(id).assignment;
        let c = if self.pruned_matches(vocab, dag, id) {
            Class::Insignificant
        } else if self
            .sig
            .iter()
            .any(|&w| a.leq(vocab, &dag.node(w).assignment))
        {
            Class::Significant
        } else if self
            .insig
            .iter()
            .any(|&w| dag.node(w).assignment.leq(vocab, a))
        {
            Class::Insignificant
        } else {
            Class::Unknown
        };
        if c != Class::Unknown {
            self.cache.insert(id, c);
        }
        c
    }
}

/// The classification interface both implementations under test share.
trait UnderTest: Default {
    fn mark_significant(&mut self, dag: &Dag<'_>, id: NodeId);
    fn mark_insignificant(&mut self, dag: &Dag<'_>, id: NodeId);
    fn prune_elem(&mut self, dag: &Dag<'_>, e: ElemId);
    fn class(&mut self, dag: &Dag<'_>, id: NodeId) -> Class;
}

impl UnderTest for Classifier {
    fn mark_significant(&mut self, dag: &Dag<'_>, id: NodeId) {
        Classifier::mark_significant(self, dag, id);
    }
    fn mark_insignificant(&mut self, dag: &Dag<'_>, id: NodeId) {
        Classifier::mark_insignificant(self, dag, id);
    }
    fn prune_elem(&mut self, dag: &Dag<'_>, e: ElemId) {
        Classifier::prune_elem(self, dag, e);
    }
    fn class(&mut self, dag: &Dag<'_>, id: NodeId) -> Class {
        Classifier::class(self, dag, id)
    }
}

impl UnderTest for MemberRecord {
    fn mark_significant(&mut self, _: &Dag<'_>, id: NodeId) {
        MemberRecord::mark_significant(self, id);
    }
    fn mark_insignificant(&mut self, _: &Dag<'_>, id: NodeId) {
        MemberRecord::mark_insignificant(self, id);
    }
    fn prune_elem(&mut self, _: &Dag<'_>, e: ElemId) {
        MemberRecord::prune_elem(self, e);
    }
    fn class(&mut self, dag: &Dag<'_>, id: NodeId) -> Class {
        MemberRecord::class(self, dag, id)
    }
}

/// Expands the DAG breadth-first until `cap` nodes are materialized.
fn expand(dag: &mut Dag<'_>, cap: usize) {
    let mut cursor = 0usize;
    while cursor < dag.len() && dag.len() < cap {
        dag.children(NodeId(cursor as u32));
        cursor += 1;
    }
}

/// Drives `C` and the reference through one op sequence on a synthetic
/// DAG (each op picks mark-significant, mark-insignificant, prune or
/// query by its low two bits) and asserts that every query, and a final
/// sweep over every node, agree.
fn check_against_reference<C: UnderTest>(
    width: usize,
    depth: usize,
    seed: u64,
    ops: &[u32],
) -> Result<(), TestCaseError> {
    let d = synthetic_domain(width, depth, seed);
    let q = parse(&d.query).unwrap();
    let bound = bind(&q, &d.ontology).unwrap();
    let base = evaluate_where(&bound, &d.ontology, MatchMode::Exact);
    let vocab = d.ontology.vocab();
    let mut dag = Dag::new(&bound, vocab, &base);
    expand(&mut dag, 250);
    if dag.is_empty() {
        return Ok(());
    }
    let elems: Vec<ElemId> = vocab.elems().collect();

    let mut cls = C::default();
    let mut reference = RefClassifier::default();
    for &op in ops {
        let id = NodeId(((op >> 2) as usize % dag.len()) as u32);
        match op % 4 {
            0 => {
                cls.mark_significant(&dag, id);
                reference.mark_significant(id);
            }
            1 => {
                cls.mark_insignificant(&dag, id);
                reference.mark_insignificant(id);
            }
            2 => {
                let e = elems[(op >> 2) as usize % elems.len()];
                cls.prune_elem(&dag, e);
                reference.prune_elem(e);
            }
            _ => {
                prop_assert_eq!(
                    cls.class(&dag, id),
                    reference.class(&dag, id),
                    "query diverged on node {:?}",
                    id
                );
            }
        }
    }
    // final sweep: every materialized node must agree, including ones
    // whose class was pinned by an earlier query
    for id in dag.node_ids() {
        prop_assert_eq!(
            cls.class(&dag, id),
            reference.class(&dag, id),
            "sweep diverged on node {:?}",
            id
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_classifier_matches_witness_scan_reference(
        width in 20usize..80,
        depth in 3usize..6,
        seed in any::<u64>(),
        ops in proptest::collection::vec(any::<u32>(), 1..120),
    ) {
        check_against_reference::<Classifier>(width, depth, seed, &ops)?;
    }

    #[test]
    fn member_record_matches_witness_scan_reference(
        width in 20usize..80,
        depth in 3usize..6,
        seed in any::<u64>(),
        ops in proptest::collection::vec(any::<u32>(), 1..120),
    ) {
        check_against_reference::<MemberRecord>(width, depth, seed, &ops)?;
    }
}
