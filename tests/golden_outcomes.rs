//! Bit-identity regression guard for the mining engine.
//!
//! Every workload below is fully deterministic (seeded RNGs, fixed
//! ontologies); the digests were captured before the indexed
//! classification engine landed, and the indexed code paths must
//! reproduce them **exactly** — same questions in the same order, same
//! MSPs, same discovery-event streams. A digest change means an
//! optimization altered mining outcomes, which is a bug regardless of
//! how much faster it got.
//!
//! If a deliberate semantic change ever invalidates these values, rerun
//! with `cargo test --test golden_outcomes -- --nocapture` and update the
//! constants — in the same commit as the semantic change, with a log
//! message explaining why outcomes moved.

mod common;

use common::{digest_multi, digest_outcome};
use crowd::{AnswerModel, MemberBehavior, PersonalDb, SimulatedCrowd, SimulatedMember};
use oassis_core::digest::Fnv;
use oassis_core::synth::{plant_msps, synthetic_domain, MspDistribution, PlantedOracle};
use oassis_core::{
    run_multi, run_vertical, Dag, FixedSampleAggregator, MiningConfig, MiningOutcome, NodeId,
};
use oassis_ql::{bind, evaluate_where, parse, BoundQuery, MatchMode};
use ontology::domains::figure1;

/// Folds a run's op log into a digest: per op its tick, seq, member, the
/// rendered assignment of its node (`-` for the sentinel) and its
/// verdict. Unlike [`digest_multi`] this pins which node each question
/// asked, and so the planner's pop order.
fn digest_ops(
    out: &MiningOutcome,
    dag: &Dag<'_>,
    b: &BoundQuery,
    vocab: &ontology::Vocabulary,
) -> u64 {
    let mut h = Fnv::new();
    for op in out.ops.ops() {
        h.word(op.tick as usize);
        h.word(op.seq as usize);
        h.word(op.member.0 as usize);
        if op.node == NodeId::SENTINEL {
            h.bytes(b"-");
        } else {
            let a = &dag.node(op.node).assignment;
            h.bytes(a.apply(b).to_display(vocab).as_bytes());
        }
        h.bytes(format!("{:?}", op.verdict).as_bytes());
    }
    h.finish()
}

/// Figure-1 member whose answers average u1 and u2 (Example 4.6).
fn u_avg(ont: &ontology::Ontology, behavior: MemberBehavior, seed: u64) -> SimulatedMember {
    let [d1, d2] = figure1::personal_dbs(ont);
    let mut tx = d1;
    for _ in 0..3 {
        tx.extend(d2.iter().cloned());
    }
    SimulatedMember::new(
        PersonalDb::from_transactions(tx),
        behavior,
        AnswerModel::Exact,
        seed,
    )
}

#[test]
fn vertical_figure1_sample_query_with_pruning_and_tips() {
    // SAMPLE_QUERY requests MORE facts, so tips exercise attach_more_tip;
    // the pruning probability exercises Irrelevant answers end to end.
    let ont = figure1::ontology();
    let q = parse(figure1::SAMPLE_QUERY).unwrap();
    let b = bind(&q, &ont).unwrap();
    let base = evaluate_where(&b, &ont, MatchMode::Exact);
    let mut dag = Dag::new(&b, ont.vocab(), &base);
    let behavior = MemberBehavior {
        pruning_prob: 0.5,
        more_tip_prob: 0.5,
        ..Default::default()
    };
    let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![u_avg(&ont, behavior, 11)]);
    let cfg = MiningConfig {
        specialization_ratio: 0.3,
        seed: 3,
        ..Default::default()
    };
    let out = run_vertical(&mut dag, &mut crowd, crowd::MemberId(0), &cfg);
    let d = digest_outcome(&out, &b, ont.vocab());
    println!("vertical_figure1 digest = 0x{d:016x}");
    assert_eq!(d, GOLDEN_VERTICAL_FIGURE1);
}

#[test]
fn vertical_synthetic_with_specialization_questions() {
    let dom = synthetic_domain(150, 6, 0);
    let q = parse(&dom.query).unwrap();
    let b = bind(&q, &dom.ontology).unwrap();
    let base = evaluate_where(&b, &dom.ontology, MatchMode::Exact);
    let mut full = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    full.materialize_all();
    let planted = plant_msps(&mut full, 8, true, MspDistribution::Uniform, 21);
    let patterns: Vec<_> = planted
        .iter()
        .map(|&id| full.node(id).assignment.apply(&b))
        .collect();

    let mut dag = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    let mut oracle = PlantedOracle::new(dom.ontology.vocab(), patterns, 1, 9);
    oracle.pruning_prob = 0.5;
    let cfg = MiningConfig {
        specialization_ratio: 0.5,
        seed: 4,
        ..Default::default()
    };
    let out = run_vertical(&mut dag, &mut oracle, crowd::MemberId(0), &cfg);
    let d = digest_outcome(&out, &b, dom.ontology.vocab());
    println!("vertical_synthetic digest = 0x{d:016x}");
    assert_eq!(d, GOLDEN_VERTICAL_SYNTHETIC);
}

#[test]
fn multi_figure1_two_members() {
    let ont = figure1::ontology();
    let q = parse(figure1::SIMPLE_QUERY).unwrap();
    let b = bind(&q, &ont).unwrap();
    let base = evaluate_where(&b, &ont, MatchMode::Exact);
    let mut dag = Dag::new(&b, ont.vocab(), &base);
    let members = vec![
        u_avg(&ont, MemberBehavior::default(), 1),
        u_avg(&ont, MemberBehavior::default(), 2),
    ];
    let mut crowd = SimulatedCrowd::new(ont.vocab(), members);
    let agg = FixedSampleAggregator { sample_size: 2 };
    let out = run_multi(&mut dag, &mut crowd, &agg, &MiningConfig::default());
    let d = digest_multi(&out, &b, ont.vocab());
    let ops = digest_ops(&out.mining, &dag, &b, ont.vocab());
    println!("multi_figure1 digest = 0x{d:016x}, ops = 0x{ops:016x}");
    assert_eq!(d, GOLDEN_MULTI_FIGURE1);
    assert_eq!(ops, GOLDEN_OPS_MULTI_FIGURE1);
}

/// Runs the multi-user engine on a 6-member crowd with bucketed answers
/// and pruning clicks over a synthetic domain with `planted` MSPs, under
/// `cfg`'s seed and batch width; returns the outcome digest, the op-log
/// digest and the round count.
fn multi_synthetic(cfg: MiningConfig, planted: usize) -> (u64, u64, usize) {
    let dom = synthetic_domain(120, 5, 1);
    let q = parse(&dom.query).unwrap();
    let b = bind(&q, &dom.ontology).unwrap();
    let base = evaluate_where(&b, &dom.ontology, MatchMode::Exact);
    let mut full = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    full.materialize_all();
    let planted = plant_msps(&mut full, planted, true, MspDistribution::Uniform, 31);
    let patterns: Vec<_> = planted
        .iter()
        .map(|&id| full.node(id).assignment.apply(&b))
        .collect();

    let mut dag = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
    let mut oracle = PlantedOracle::new(dom.ontology.vocab(), patterns, 6, 17);
    oracle.pruning_prob = 0.3;
    let agg = FixedSampleAggregator { sample_size: 3 };
    let out = run_multi(&mut dag, &mut oracle, &agg, &cfg);
    let vocab = dom.ontology.vocab();
    (
        digest_multi(&out, &b, vocab),
        digest_ops(&out.mining, &dag, &b, vocab),
        out.rounds,
    )
}

#[test]
fn multi_synthetic_crowd_with_pruning_clicks() {
    // Exercises the multi-user frontier queues, the aggregator quorum and
    // the bulk pruning path of ask_concrete.
    let (d, ops, _) = multi_synthetic(
        MiningConfig {
            specialization_ratio: 0.25,
            seed: 8,
            ..Default::default()
        },
        6,
    );
    println!("multi_synthetic digest = 0x{d:016x}, ops = 0x{ops:016x}");
    assert_eq!(d, GOLDEN_MULTI_SYNTHETIC);
    assert_eq!(ops, GOLDEN_OPS_MULTI_SYNTHETIC);
}

#[test]
fn multi_synthetic_batched_with_deferred_targets() {
    // The same crowd at batch width 3: the batch planner defers
    // ≤-comparable pops back onto the front of the member's hot queue.
    let (d, ops, rounds) = multi_synthetic(
        MiningConfig {
            specialization_ratio: 0.25,
            seed: 8,
            batch_width: 3,
            debug_checks: true,
            ..Default::default()
        },
        6,
    );
    println!("multi_batched digest = 0x{d:016x}, ops = 0x{ops:016x}, rounds = {rounds}");
    assert_eq!(d, GOLDEN_MULTI_BATCHED);
    assert_eq!(ops, GOLDEN_OPS_MULTI_BATCHED);
    assert_eq!(rounds, 13);
}

#[test]
fn multi_synthetic_batched_deferred_order() {
    // Width 3 over 10 planted MSPs: some turn defers two targets, and
    // pushing them back in reverse pop order changes which node a later
    // question asks but neither the MSPs nor any count, so only the
    // op-log digest pins the deferred front-push order.
    let (_, ops, _) = multi_synthetic(
        MiningConfig {
            specialization_ratio: 0.25,
            seed: 2,
            batch_width: 3,
            debug_checks: true,
            ..Default::default()
        },
        10,
    );
    println!("multi_batched_deferred ops = 0x{ops:016x}");
    assert_eq!(ops, GOLDEN_OPS_MULTI_DEFERRED);
}

/// The crowd-rules miner (the only engine path previously without a
/// golden guard): a planted-habit synthetic crowd, a fixed question
/// budget, and a digest over the final candidate/estimate state.
#[test]
fn golden_crowdrules_miner() {
    use crowdrules::{
        AssociationRule, CrowdMiner, ItemId, Itemset, MinerConfig, SimConfig, SimulatedRuleCrowd,
    };
    let iset = |items: &[u32]| Itemset::new(items.iter().map(|&i| ItemId(i)));
    let sim = SimConfig {
        members: 120,
        habits: vec![
            (iset(&[1, 2]), 0.7),
            (iset(&[3, 4]), 0.55),
            (iset(&[5, 6]), 0.05),
        ],
        answer_noise: 0.02,
        seed: 11,
        ..Default::default()
    };
    let mut crowd = SimulatedRuleCrowd::generate(&sim);
    let mut miner = CrowdMiner::new(
        MinerConfig {
            theta_support: 0.35,
            theta_confidence: 0.6,
            seed: 11,
            ..Default::default()
        },
        vec![AssociationRule::new(iset(&[1]), iset(&[2])).unwrap()],
    );
    miner.run(&mut crowd, 500);

    let mut h = Fnv::new();
    h.word(miner.questions());
    h.word(crowd.questions_asked());
    h.word(miner.candidates());
    let mut significant: Vec<String> = miner
        .significant_rules()
        .iter()
        .map(ToString::to_string)
        .collect();
    significant.sort();
    for r in &significant {
        h.bytes(r.as_bytes());
    }
    let mut open: Vec<String> = miner
        .open_candidates()
        .iter()
        .map(ToString::to_string)
        .collect();
    open.sort();
    for r in &open {
        h.bytes(r.as_bytes());
    }
    let h = h.finish();
    println!("crowdrules_miner digest = 0x{h:016x}");
    assert_eq!(h, GOLDEN_CROWDRULES_MINER);
}

// Captured from the pre-index witness-scan engine; see module docs.
const GOLDEN_VERTICAL_FIGURE1: u64 = 0x43da68006cc27301;
const GOLDEN_VERTICAL_SYNTHETIC: u64 = 0xdeab91c0df65d2d8;
const GOLDEN_MULTI_FIGURE1: u64 = 0x91d1bfe9c869b6ad;
const GOLDEN_MULTI_SYNTHETIC: u64 = 0x4b3695f5ead79508;
// Captured when the batch-width > 1 planner gained its golden guard.
const GOLDEN_MULTI_BATCHED: u64 = 0x69c96f5d9321339e;
// Captured when the crowd-rules miner gained its golden guard.
const GOLDEN_CROWDRULES_MINER: u64 = 0xa5dbb6fba9ce7cd6;
// Op-log digests (`digest_ops`), captured when the multi-user goldens
// started pinning which node each question asked.
const GOLDEN_OPS_MULTI_FIGURE1: u64 = 0x49e946cfa0b930cd;
const GOLDEN_OPS_MULTI_SYNTHETIC: u64 = 0x39fe5611b5154cb7;
const GOLDEN_OPS_MULTI_BATCHED: u64 = 0xe569d92ba0bedafb;
const GOLDEN_OPS_MULTI_DEFERRED: u64 = 0x38d3c23d15dea24b;
