//! Differential guarantee of the question-batch planner: batching only
//! changes *when* questions are asked (several per member per round, all
//! mutually ≤-incomparable), never *what the miner concludes*. With a
//! noise-free oracle — answers a pure function of the question — the MSP
//! set must be identical at every batch width.
//!
//! The second half property-tests the planner's antichain rule itself:
//! `debug_checks` makes the engine assert, on every planned batch, that
//! no two targets are ≤-comparable, and the proptest drives that
//! assertion across randomized domains, planted MSP counts and widths.

use std::collections::BTreeSet;

use oassis_core::synth::{plant_msps, synthetic_domain, MspDistribution, PlantedOracle};
use oassis_core::{run_multi, Dag, FixedSampleAggregator, MiningConfig};
use oassis_ql::{bind, evaluate_where, parse, MatchMode};
use proptest::prelude::*;

/// Runs the multi-user miner on a planted synthetic workload and returns
/// the MSP set (as display strings), the valid-MSP set, the completeness
/// flag and the round count.
#[allow(clippy::too_many_arguments)]
fn mine(
    dom_width: usize,
    dom_depth: usize,
    n_msps: usize,
    plant_seed: u64,
    batch_width: usize,
    seed: u64,
    debug_checks: bool,
) -> (BTreeSet<String>, BTreeSet<String>, bool, usize) {
    let dom = synthetic_domain(dom_width, dom_depth, 1);
    let q = parse(&dom.query).unwrap();
    let b = bind(&q, &dom.ontology).unwrap();
    let base = evaluate_where(&b, &dom.ontology, MatchMode::Exact);
    let mut full = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    full.materialize_all();
    let planted = plant_msps(
        &mut full,
        n_msps,
        true,
        MspDistribution::Uniform,
        plant_seed,
    );
    let patterns: Vec<_> = planted
        .iter()
        .map(|&id| full.node(id).assignment.apply(&b))
        .collect();

    let mut dag = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    // noise-free oracle: answers depend only on the question pattern, so
    // question *order* (the one thing batching changes) cannot leak into
    // the outcome
    let mut oracle = PlantedOracle::new(dom.ontology.vocab(), patterns, 6, seed + 9);
    let agg = FixedSampleAggregator { sample_size: 3 };
    let cfg = MiningConfig {
        specialization_ratio: 0.25,
        seed,
        batch_width,
        debug_checks,
        ..Default::default()
    };
    let out = run_multi(&mut dag, &mut oracle, &agg, &cfg);
    let vocab = dom.ontology.vocab();
    let msps: BTreeSet<String> = out
        .mining
        .msps
        .iter()
        .map(|m| m.apply(&b).to_display(vocab))
        .collect();
    let valid: BTreeSet<String> = out
        .mining
        .valid_msps
        .iter()
        .map(|m| m.apply(&b).to_display(vocab))
        .collect();
    (msps, valid, out.mining.complete, out.rounds)
}

#[test]
fn batched_rounds_reproduce_the_unbatched_msp_set() {
    for seed in [8u64, 9, 10] {
        let (ref_msps, ref_valid, complete, ref_rounds) = mine(120, 5, 6, 31, 1, seed, false);
        assert!(
            complete,
            "seed {seed}: unbatched reference did not converge"
        );
        assert!(!ref_msps.is_empty(), "seed {seed}: reference found no MSPs");
        for k in [2usize, 4, 8] {
            let (msps, valid, complete, rounds) = mine(120, 5, 6, 31, k, seed, false);
            assert!(complete, "seed {seed}: batch width {k} did not converge");
            assert_eq!(
                msps, ref_msps,
                "seed {seed}: batch width {k} changed the MSP set"
            );
            assert_eq!(
                valid, ref_valid,
                "seed {seed}: batch width {k} changed the valid-MSP set"
            );
            assert!(
                rounds <= ref_rounds,
                "seed {seed}: batch width {k} took {rounds} rounds, \
                 more than the unbatched {ref_rounds}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every planned batch is an antichain under ≤ — no two targets in
    /// one batch are ordered. `debug_checks` puts the assertion inside
    /// the planner itself, so a violation panics the run; the proptest's
    /// job is to drive that check across randomized workloads.
    #[test]
    fn planned_batches_never_contain_a_leq_ordered_pair(
        dom_width in 60usize..140,
        n_msps in 3usize..8,
        plant_seed in 0u64..1000,
        batch_width in 2usize..=8,
        seed in 0u64..1000,
    ) {
        let (msps, _, complete, _) = mine(
            dom_width, 5, n_msps, plant_seed, batch_width, seed, true,
        );
        prop_assert!(complete);
        prop_assert!(!msps.is_empty());
    }
}
