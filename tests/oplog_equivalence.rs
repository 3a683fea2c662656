//! Permutation-replay guarantee of the answer-operation log: replaying
//! ANY permutation of a run's op log against the post-run DAG reproduces
//! the round-driven engine's digest-bearing outcome bit-identically —
//! the canonical `(tick, member, seq)` merge order makes delivery order
//! irrelevant.
//!
//! Three layers:
//! 1. fixed-seed shuffles against the multi-user engine on planted
//!    synthetic workloads (MSP set, valid set and the outcome digest
//!    must all survive);
//! 2. the same oracle under a contradiction/delay/drop fault schedule —
//!    a degraded run's log replays just as faithfully as a clean one's;
//! 3. a proptest driving random domains, plant seeds and shuffle seeds
//!    through the digest comparison, plus compensating-revision
//!    idempotence under duplicated delivery.

use oassis_core::synth::{plant_msps, synthetic_domain, MspDistribution, PlantedOracle};
use oassis_core::{run_multi, AnswerOp, Dag, FixedSampleAggregator, MiningConfig, OpVerdict};
use oassis_ql::{bind, evaluate_where, parse, MatchMode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simtest::{FaultyCrowd, Schedule};

/// Mines a planted synthetic workload round-driven, then replays its op
/// log — canonical order plus `n_shuffles` random permutations —
/// asserting the digest and the MSP/valid sets survive every delivery
/// order.
fn assert_permutation_oracle(
    dom_width: usize,
    n_msps: usize,
    plant_seed: u64,
    seed: u64,
    n_shuffles: u64,
) {
    let dom = synthetic_domain(dom_width, 5, 1);
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
    let mut oracle = PlantedOracle::new(dom.ontology.vocab(), patterns, 4, seed + 9);
    oracle.pruning_prob = 0.2;
    let agg = FixedSampleAggregator { sample_size: 2 };
    let cfg = MiningConfig {
        specialization_ratio: 0.2,
        seed,
        ..Default::default()
    };
    let out = run_multi(&mut dag, &mut oracle, &agg, &cfg);
    assert!(!out.mining.ops.is_empty(), "run recorded no ops");
    let reference = out.run_digest();

    let tele = telemetry::Telemetry::off();
    let ops = &out.mining.ops;

    let replay = ops.replay(&dag, &agg, &tele);
    assert_eq!(
        replay.discarded_msps, 0,
        "canonical replay kept every claim"
    );
    assert_eq!(replay.msps, out.mining.msps, "canonical replay MSP set");
    assert_eq!(replay.valid_msps, out.mining.valid_msps);
    assert_eq!(replay.events, out.mining.events);
    assert_eq!(replay.run_digest(), reference, "canonical replay digest");

    for shuffle_seed in 0..n_shuffles {
        let mut shuffled = ops.ops().to_vec();
        shuffled.shuffle(&mut StdRng::seed_from_u64(seed ^ (shuffle_seed << 32)));
        let permuted = ops.with_ops(shuffled).replay(&dag, &agg, &tele);
        assert_eq!(
            permuted.discarded_msps, 0,
            "shuffle {shuffle_seed} discarded a claim"
        );
        assert_eq!(
            permuted.msps, out.mining.msps,
            "shuffle {shuffle_seed} changed the MSP set"
        );
        assert_eq!(
            permuted.valid_msps, out.mining.valid_msps,
            "shuffle {shuffle_seed} changed the valid set"
        );
        assert_eq!(
            permuted.run_digest(),
            reference,
            "shuffle {shuffle_seed} changed the digest"
        );
    }
}

#[test]
fn shuffled_replays_reproduce_round_driven_outcomes() {
    for seed in [11u64, 12, 13] {
        assert_permutation_oracle(100, 6, 31, seed, 4);
    }
}

#[test]
fn faulty_runs_replay_bit_identically_under_permutation() {
    // Contradictions, a delayed answer and drops degrade the run; the
    // log of whatever the engine *did* accept must still replay under
    // any permutation.
    let ont = ontology::domains::figure1::ontology();
    let q = parse(ontology::domains::figure1::SIMPLE_QUERY).unwrap();
    let b = bind(&q, &ont).unwrap();
    let base = evaluate_where(&b, &ont, MatchMode::Exact);
    let mut dag = Dag::new(&b, ont.vocab(), &base);
    let [d1, d2] = ontology::domains::figure1::personal_dbs(&ont);
    let mut tx = d1;
    for _ in 0..3 {
        tx.extend(d2.iter().cloned());
    }
    let members: Vec<_> = (0..4)
        .map(|i| {
            crowd::SimulatedMember::new(
                crowd::PersonalDb::from_transactions(tx.clone()),
                crowd::MemberBehavior::default(),
                crowd::AnswerModel::Exact,
                i,
            )
        })
        .collect();
    let schedule = Schedule::parse("c0@0,c1@1,d2@0,y3@0(2)").unwrap();
    let mut faulty = FaultyCrowd::new(
        crowd::SimulatedCrowd::new(ont.vocab(), members),
        &schedule,
        4,
    );
    let agg = FixedSampleAggregator { sample_size: 4 };
    let out = run_multi(&mut dag, &mut faulty, &agg, &MiningConfig::default());
    assert!(!out.mining.ops.is_empty());
    let reference = out.run_digest();
    let tele = telemetry::Telemetry::off();
    for shuffle_seed in 0..6u64 {
        let mut shuffled = out.mining.ops.ops().to_vec();
        shuffled.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        let permuted = out.mining.ops.with_ops(shuffled).replay(&dag, &agg, &tele);
        assert_eq!(permuted.discarded_msps, 0);
        assert_eq!(permuted.msps, out.mining.msps);
        assert_eq!(permuted.run_digest(), reference);
    }
}

#[test]
fn duplicated_contradiction_revisions_are_idempotent() {
    // A compensating revision op delivered twice (at-least-once
    // delivery) must change nothing beyond the compensation counter.
    let dom = synthetic_domain(80, 5, 1);
    let q = parse(&dom.query).unwrap();
    let b = bind(&q, &dom.ontology).unwrap();
    let base = evaluate_where(&b, &dom.ontology, MatchMode::Exact);
    let mut full = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    full.materialize_all();
    let planted = plant_msps(&mut full, 5, true, MspDistribution::Uniform, 3);
    let patterns: Vec<_> = planted
        .iter()
        .map(|&id| full.node(id).assignment.apply(&b))
        .collect();
    let mut dag = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    let mut oracle = PlantedOracle::new(dom.ontology.vocab(), patterns, 2, 5);
    let agg = FixedSampleAggregator { sample_size: 2 };
    let out = run_multi(&mut dag, &mut oracle, &agg, &MiningConfig::default());
    let tele = telemetry::Telemetry::off();
    let ops = &out.mining.ops;
    let baseline = ops.replay(&dag, &agg, &tele);

    let first = ops.ops().first().expect("run recorded ops").clone();
    let mut with_revision = ops.ops().to_vec();
    for dup in 0..3u32 {
        with_revision.push(AnswerOp {
            tick: first.tick,
            seq: 1000 + dup,
            member: first.member,
            node: first.node,
            verdict: OpVerdict::Revise { support: 1.0 },
        });
    }
    let revised = ops.with_ops(with_revision).replay(&dag, &agg, &tele);
    assert_eq!(revised.compensated, 3);
    assert_eq!(revised.applied, baseline.applied);
    assert_eq!(revised.run_digest(), baseline.run_digest());
    assert_eq!(revised.msps, baseline.msps);
    assert_eq!(revised.events, baseline.events);
}

#[test]
fn replay_against_a_stale_replica_reproduces_the_semantic_outcome() {
    // Every other replay in this file runs against the post-run DAG,
    // whose nodes were materialized at the ops' own ticks — so replay
    // never had to face an op referencing a node the replica had not
    // generated yet. A restarted server re-applying its durable log
    // does: its replica is fresh, and every node is interned at recovery
    // time, long after the op's tick. Wire the log through assignment
    // addressing into a fresh replica — the server's recovery shape — and
    // demand the same semantic outcome.
    use oassis_core::{intern_wire_op, op_to_wire, OpLog, SemanticOutcome};

    let dom = synthetic_domain(90, 5, 2);
    let q = parse(&dom.query).unwrap();
    let b = bind(&q, &dom.ontology).unwrap();
    let base = evaluate_where(&b, &dom.ontology, MatchMode::Exact);
    let mut full = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    full.materialize_all();
    let planted = plant_msps(&mut full, 5, true, MspDistribution::Uniform, 17);
    let patterns: Vec<_> = planted
        .iter()
        .map(|&id| full.node(id).assignment.apply(&b))
        .collect();
    let mut dag = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    let mut oracle = PlantedOracle::new(dom.ontology.vocab(), patterns, 3, 23);
    oracle.pruning_prob = 0.15; // prune ops must survive the trip too
    let agg = FixedSampleAggregator { sample_size: 2 };
    let out = run_multi(&mut dag, &mut oracle, &agg, &MiningConfig::default());
    assert!(!out.mining.ops.is_empty());

    let wire: Vec<_> = out
        .mining
        .ops
        .ops()
        .iter()
        .map(|op| op_to_wire(op, &dag))
        .collect();
    let mut fresh = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    let ops: Vec<_> = wire.iter().map(|w| intern_wire_op(&mut fresh, w)).collect();
    let mut log = OpLog::new(out.mining.ops.threshold(), true).with_ops(ops);
    log.set_complete(out.mining.complete);
    let tele = telemetry::Telemetry::off();
    let replayed = log.replay(&fresh, &agg, &tele);

    // assignments are replica-portable, so the semantic fields compare
    // directly even though every NodeId differs between the replicas
    assert_eq!(replayed.msps, out.mining.msps);
    assert_eq!(replayed.valid_msps, out.mining.valid_msps);
    assert_eq!(replayed.total_valid, out.mining.total_valid);
    assert_eq!(replayed.complete, out.mining.complete);
    assert_eq!(
        replayed.discarded_msps, 0,
        "a recorded log entails every claim"
    );
    assert_eq!(
        SemanticOutcome::from_replay(&replayed, &b, dom.ontology.vocab()),
        SemanticOutcome::from_mining(&out.mining, &b, dom.ontology.vocab()),
    );
    // the stale replica materialized only what the ops forced it to —
    // if these were equal the test would not be exercising staleness
    assert!(
        replayed.nodes_materialized < out.mining.nodes_materialized,
        "fresh replica materialized {} >= engine's {}",
        replayed.nodes_materialized,
        out.mining.nodes_materialized
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random domains × plant seeds × shuffle seeds: the permutation
    /// oracle holds everywhere, not just on the hand-picked workloads.
    #[test]
    fn random_shuffles_preserve_the_outcome_digest(
        dom_width in 60usize..120,
        n_msps in 3usize..7,
        plant_seed in 0u64..500,
        seed in 0u64..500,
    ) {
        assert_permutation_oracle(dom_width, n_msps, plant_seed, seed, 2);
    }
}
