//! Step-level invariant checkers for the deterministic simulation
//! harness (`crates/simtest`).
//!
//! When [`MiningConfig::debug_checks`](crate::MiningConfig::debug_checks)
//! is on, the engines re-verify these after every answered question and
//! panic with a descriptive message on the first violation — the harness
//! catches the panic, records the fault schedule that produced it, and
//! shrinks the schedule to a minimal reproducer. The checks are pure
//! frozen reads (no sticky-cache stamping), so enabling them never
//! changes an outcome, only the running time.

use crate::classify::{Class, Classifier};
use crate::dag::{Dag, NodeId};

/// Observation 4.4 as an edge invariant over the materialized DAG: a
/// child (specialization) classified significant forces its parent
/// (generalization) significant, and an insignificant parent forces every
/// generated child insignificant.
///
/// Only sound for pruning-free classifiers: a user-guided pruning click
/// interacts with the sticky first-query semantics (a node stamped
/// significant *before* the click keeps its verdict while an unstamped
/// generalization flips), so classifiers with recorded clicks are skipped.
/// The multi-user engine's global classifier never records clicks — click
/// answers reach it as aggregated zero-support votes.
pub fn check_classification_monotonicity(dag: &Dag<'_>, cls: &Classifier) -> Result<(), String> {
    if cls.pruned_clicks() > 0 {
        return Ok(());
    }
    for id in dag.node_ids() {
        let Some(children) = dag.children_if_generated(id) else {
            continue;
        };
        let pc = cls.class_frozen(dag, id);
        for &c in children {
            let cc = cls.class_frozen(dag, c);
            if cc == Class::Significant && pc != Class::Significant {
                return Err(format!(
                    "classification monotonicity violated: child {c:?} is Significant \
                     but its parent {id:?} is {pc:?}"
                ));
            }
            if pc == Class::Insignificant && cc != Class::Insignificant {
                return Err(format!(
                    "classification monotonicity violated: parent {id:?} is Insignificant \
                     but its child {c:?} is {cc:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Every confirmed MSP must be significant with all generated children
/// insignificant (maximality), and no two MSPs may be order-comparable
/// (the MSP set is an antichain).
pub fn check_msp_maximality(
    dag: &Dag<'_>,
    cls: &Classifier,
    msp_ids: &[NodeId],
) -> Result<(), String> {
    for &m in msp_ids {
        if cls.class_frozen(dag, m) != Class::Significant {
            return Err(format!(
                "MSP invariant violated: confirmed MSP {m:?} is {:?}",
                cls.class_frozen(dag, m)
            ));
        }
        let Some(children) = dag.children_if_generated(m) else {
            return Err(format!(
                "MSP invariant violated: {m:?} confirmed before its children were generated"
            ));
        };
        for &c in children {
            if cls.class_frozen(dag, c) != Class::Insignificant {
                return Err(format!(
                    "MSP maximality violated: MSP {m:?} has child {c:?} classified {:?}",
                    cls.class_frozen(dag, c)
                ));
            }
        }
    }
    for (i, &a) in msp_ids.iter().enumerate() {
        // PANIC-OK: slicing from i+1 where i < len is always in range
        for &b in &msp_ids[i + 1..] {
            if dag.leq(a, b) || dag.leq(b, a) {
                return Err(format!(
                    "MSP antichain violated: MSPs {a:?} and {b:?} are order-comparable"
                ));
            }
        }
    }
    Ok(())
}

/// The converse of [`check_msp_maximality`]: every significant witness
/// whose children are all generated and all classified insignificant must
/// already be a confirmed MSP. Checked right after an MSP monitor update,
/// it fails when the monitor missed an entailed MSP.
pub fn check_msp_completeness(
    dag: &Dag<'_>,
    cls: &Classifier,
    msp_ids: &[NodeId],
) -> Result<(), String> {
    for &w in cls.sig_witnesses() {
        let Some(children) = dag.children_if_generated(w) else {
            continue;
        };
        if children
            .iter()
            .all(|&c| cls.class_frozen(dag, c) == Class::Insignificant)
            && !msp_ids.contains(&w)
        {
            return Err(format!(
                "MSP completeness violated: witness {w:?} has every child \
                 Insignificant but is not a confirmed MSP"
            ));
        }
    }
    Ok(())
}
