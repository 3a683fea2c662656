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
use oassis_core::{
    run_multi, AnswerOp, Dag, FixedSampleAggregator, MiningConfig, MultiOutcome, OpVerdict,
    ReplayOutcome,
};
use oassis_ql::{bind, evaluate_where, parse, MatchMode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simtest::{FaultyCrowd, Schedule};

/// FNV-1a over the digest-bearing fields shared by a round-driven
/// outcome and a replay outcome.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn fnv_usize(h: &mut u64, v: usize) {
    fnv(h, &v.to_le_bytes());
}

struct DigestFields<'a> {
    questions: usize,
    msps: usize,
    valid_msps: usize,
    undecided: usize,
    total_valid: usize,
    nodes_materialized: usize,
    complete: bool,
    events: &'a [oassis_core::DiscoveryEvent],
}

fn digest(f: &DigestFields<'_>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv_usize(&mut h, f.questions);
    fnv_usize(&mut h, f.msps);
    fnv_usize(&mut h, f.valid_msps);
    fnv_usize(&mut h, f.undecided);
    fnv_usize(&mut h, f.total_valid);
    fnv_usize(&mut h, f.nodes_materialized);
    fnv_usize(&mut h, usize::from(f.complete));
    for e in f.events {
        fnv_usize(&mut h, e.question);
        fnv(&mut h, format!("{:?}", e.kind).as_bytes());
    }
    h
}

fn run_digest(out: &MultiOutcome) -> u64 {
    digest(&DigestFields {
        questions: out.mining.questions,
        msps: out.mining.msps.len(),
        valid_msps: out.mining.valid_msps.len(),
        undecided: out.undecided,
        total_valid: out.mining.total_valid,
        nodes_materialized: out.mining.nodes_materialized,
        complete: out.mining.complete,
        events: &out.mining.events,
    })
}

fn replay_digest(r: &ReplayOutcome) -> u64 {
    digest(&DigestFields {
        questions: r.questions,
        msps: r.msps.len(),
        valid_msps: r.valid_msps.len(),
        undecided: r.undecided,
        total_valid: r.total_valid,
        nodes_materialized: r.nodes_materialized,
        complete: r.complete,
        events: &r.events,
    })
}

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
    let reference = run_digest(&out);

    let pool = minipool::Pool::sequential();
    let tele = telemetry::Telemetry::off();
    let ops = &out.mining.ops;

    let replay = ops.replay(&dag, &agg, &pool, &tele);
    assert_eq!(replay.msps, out.mining.msps, "canonical replay MSP set");
    assert_eq!(replay.valid_msps, out.mining.valid_msps);
    assert_eq!(replay.events, out.mining.events);
    assert_eq!(replay_digest(&replay), reference, "canonical replay digest");

    for shuffle_seed in 0..n_shuffles {
        let mut shuffled = ops.ops().to_vec();
        shuffled.shuffle(&mut StdRng::seed_from_u64(seed ^ (shuffle_seed << 32)));
        let permuted = ops.with_ops(shuffled).replay(&dag, &agg, &pool, &tele);
        assert_eq!(
            permuted.msps, out.mining.msps,
            "shuffle {shuffle_seed} changed the MSP set"
        );
        assert_eq!(
            permuted.valid_msps, out.mining.valid_msps,
            "shuffle {shuffle_seed} changed the valid set"
        );
        assert_eq!(
            replay_digest(&permuted),
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
    let reference = run_digest(&out);
    let pool = minipool::Pool::sequential();
    let tele = telemetry::Telemetry::off();
    for shuffle_seed in 0..6u64 {
        let mut shuffled = out.mining.ops.ops().to_vec();
        shuffled.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        let permuted = out
            .mining
            .ops
            .with_ops(shuffled)
            .replay(&dag, &agg, &pool, &tele);
        assert_eq!(permuted.msps, out.mining.msps);
        assert_eq!(replay_digest(&permuted), reference);
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
    let pool = minipool::Pool::sequential();
    let tele = telemetry::Telemetry::off();
    let ops = &out.mining.ops;
    let baseline = ops.replay(&dag, &agg, &pool, &tele);

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
    let revised = ops.with_ops(with_revision).replay(&dag, &agg, &pool, &tele);
    assert_eq!(revised.compensated, 3);
    assert_eq!(revised.applied, baseline.applied);
    assert_eq!(replay_digest(&revised), replay_digest(&baseline));
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
    let pool = minipool::Pool::sequential();
    let tele = telemetry::Telemetry::off();
    let merged = log.replay_merged(&fresh, &agg, &pool, &tele);

    // assignments are replica-portable, so the semantic fields compare
    // directly even though every NodeId differs between the replicas
    assert_eq!(merged.msps, out.mining.msps);
    assert_eq!(merged.valid_msps, out.mining.valid_msps);
    assert_eq!(merged.total_valid, out.mining.total_valid);
    assert_eq!(merged.complete, out.mining.complete);
    assert_eq!(
        merged.discarded_msps, 0,
        "a single stream has no duplicates"
    );
    assert_eq!(
        SemanticOutcome::from_replay(&merged, &b, dom.ontology.vocab()),
        SemanticOutcome::from_mining(&out.mining, &b, dom.ontology.vocab()),
    );
    // the stale replica materialized only what the ops forced it to —
    // if these were equal the test would not be exercising staleness
    assert!(
        merged.nodes_materialized < out.mining.nodes_materialized,
        "fresh replica materialized {} >= engine's {}",
        merged.nodes_materialized,
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
