//! The differential shard-equivalence oracle.
//!
//! One seed derives a world, a member→shard map and a cluster fault
//! [`Schedule`]; each shard node runs the multi-user engine over its
//! member partition on its own DAG replica; the resulting op logs flow
//! through [`crate::net`]'s seeded network into a
//! [`Coordinator`] merge. The oracle then checks, per seed × shard
//! count × schedule:
//!
//! * **Fault-free equivalence (the headline):** the merged cluster
//!   outcome is **bit-identical** — same [`SemanticOutcome`], same
//!   digest — to the single-node `run_multi` over the whole crowd, for
//!   every shard count and any member→shard map, and both equal the
//!   planted ground truth.
//! * **Net-fault neutrality:** a schedule with only node faults
//!   (partitions, crash/restart) that still delivers every op must
//!   merge to the same digest — reordering, gaps, retransmission and
//!   watermark recovery are invisible to the merge.
//! * **Degradation:** any faulty run must not panic, must be
//!   deterministic under replay, and its merged MSP/valid sets must be
//!   subsets of the fault-free outcome (with `total_valid` bounded by
//!   it).
//!
//! Failures shrink to a 1-minimal schedule via [`crate::shrink`], like
//! the single-node harness.

use crate::faulty::FaultyCrowd;
use crate::harness::{build_world, SimConfig};
use crate::net::{run_net, NetConfig, NetStats};
use crate::schedule::Schedule;
use crate::shrink::shrink;
use oassis_core::cluster::{to_wire, Coordinator, SemanticOutcome, ShardCrowd, ShardMap};
use oassis_core::{run_multi, Dag, FixedSampleAggregator, MiningConfig, PlantedOracle};
use oassis_ql::{bind, evaluate_where, parse, MatchMode};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A cluster session: the single-node [`SimConfig`] world plus a shard
/// count. The schedule inside `sim` is a *cluster* schedule (member and
/// node faults mixed, split at run time).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// World derivation, engine policy and the cluster fault schedule.
    pub sim: SimConfig,
    /// Worker node count (the coordinator sits at index `shards`).
    pub shards: u32,
    /// Seed for delivery jitter — independent of the world seed so
    /// property tests can shuffle delivery orders over a fixed world.
    pub net_seed: u64,
}

/// Crowd size used by cluster sessions — large enough that every shard
/// count in {1, 2, 4, 8} still gets a non-trivial partition.
pub const CLUSTER_MEMBERS: u32 = 8;

impl ClusterConfig {
    /// Derives a full cluster session from `(seed, shards)` — the only
    /// inputs a failure report needs to quote.
    pub fn from_seed(seed: u64, shards: u32) -> ClusterConfig {
        let mut sim = SimConfig::from_seed(seed);
        sim.members = CLUSTER_MEMBERS;
        sim.schedule = Schedule::generate_cluster(seed, CLUSTER_MEMBERS, shards, 40, 8);
        // per-node budgets would make outcomes depend on the shard count
        // by construction; the cluster oracle keeps questions unbounded
        sim.budget = None;
        ClusterConfig {
            sim,
            shards,
            net_seed: seed,
        }
    }
}

/// One merged cluster execution, everything the oracle compares.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRun {
    /// The merged, replica-independent outcome.
    pub outcome: SemanticOutcome,
    /// [`SemanticOutcome::digest`] of `outcome` — the cluster golden.
    pub digest: u64,
    /// What the simulated network did.
    pub net: NetStats,
    /// Questions asked across all shard nodes.
    pub questions: usize,
    /// Engine rounds summed across shard nodes.
    pub rounds: usize,
    /// Ops accepted by the coordinator.
    pub merge_ops: u64,
    /// Shard nodes that owned at least one member.
    pub nonempty_nodes: usize,
    /// Of those, how many completed their run.
    pub complete_nodes: usize,
}

/// Runs one cluster session under `schedule` (overriding the one in
/// `cfg.sim`): engines per shard, wire, merge. `Err` carries a panic
/// message — any panic anywhere in the cluster is an oracle failure.
pub fn run_cluster(
    cfg: &ClusterConfig,
    map: &ShardMap,
    schedule: &Schedule,
    tele: &telemetry::Telemetry,
) -> Result<ClusterRun, String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let (world, patterns) = build_world(&cfg.sim);
        let vocab = world.dom.ontology.vocab();
        let q = parse(&world.dom.query).expect("synthetic query parses"); // PANIC-OK: synthetic domain built by this module always parses
        let b = bind(&q, &world.dom.ontology).expect("synthetic query binds"); // PANIC-OK: synthetic domain built by this module always binds
        let base = evaluate_where(&b, &world.dom.ontology, MatchMode::Exact);
        let (member_faults, node_faults) = schedule.split_cluster();
        let agg = FixedSampleAggregator { sample_size: 1 };

        // each shard node mines its member partition on its own replica;
        // node faults never touch the engines (a crashed node recovers
        // deterministically from its durable log), only dissemination
        let mut logs = Vec::with_capacity(cfg.shards as usize);
        let mut threshold = None;
        let (mut questions, mut rounds) = (0usize, 0usize);
        let (mut nonempty, mut complete) = (0usize, 0usize);
        for node in 0..cfg.shards {
            let own = map.members_of(node);
            if own.is_empty() {
                logs.push(Vec::new());
                continue;
            }
            nonempty += 1;
            let node_tele = tele.labeled(&format!("node{node}"));
            let span = node_tele.span_with("engine", &format!("members={}", own.len()));
            let mut dag = Dag::new(&b, vocab, &base).without_multiplicities();
            let oracle = PlantedOracle::new(
                vocab,
                patterns.clone(),
                cfg.sim.members as usize,
                cfg.sim.seed,
            );
            let mut crowd = FaultyCrowd::new(
                ShardCrowd::new(oracle, own),
                &member_faults,
                cfg.sim.policy.timeout_ticks,
            );
            let mining_cfg = MiningConfig {
                specialization_ratio: 0.25,
                seed: cfg.sim.seed,
                max_questions: cfg.sim.budget,
                policy: cfg.sim.policy,
                debug_checks: true,
                telemetry: span.tele().clone(),
                ..Default::default()
            };
            let out = run_multi(&mut dag, &mut crowd, &agg, &mining_cfg);
            questions += out.mining.questions;
            rounds += out.rounds;
            complete += usize::from(out.mining.complete);
            threshold.get_or_insert(out.mining.ops.threshold());
            logs.push(to_wire(&out.mining.ops, &dag));
        }

        // dissemination: seeded jitter, partitions, crash/restart
        let mut coord = Coordinator::new(cfg.shards, threshold.unwrap_or(b.threshold), true);
        let net_cfg = NetConfig::new(cfg.shards, cfg.net_seed);
        let net = run_net(&logs, &mut coord, &node_faults, &net_cfg, tele);

        // merge on a fresh coordinator replica (the stale-DAG shape:
        // every op is interned at merge time, not at its own tick)
        let mut coord_dag = Dag::new(&b, vocab, &base).without_multiplicities();
        let merged_complete = nonempty == complete && net.fully_delivered;
        let merged = coord.merge(&mut coord_dag, &agg, tele, merged_complete);
        let outcome = SemanticOutcome::from_replay(&merged, &b, vocab);
        ClusterRun {
            digest: outcome.digest(),
            outcome,
            merge_ops: coord.merge_ops(),
            net,
            questions,
            rounds,
            nonempty_nodes: nonempty,
            complete_nodes: complete,
        }
    }));
    result.map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic (non-string payload)".into())
    })
}

/// The single-node reference: `run_multi` over the whole crowd,
/// fault-free, on one DAG. Returns the semantic outcome plus the sorted
/// planted ground truth its MSPs must equal.
pub fn single_node_reference(
    cfg: &ClusterConfig,
) -> Result<(SemanticOutcome, Vec<String>), String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let (world, patterns) = build_world(&cfg.sim);
        let vocab = world.dom.ontology.vocab();
        let q = parse(&world.dom.query).expect("synthetic query parses"); // PANIC-OK: synthetic domain built by this module always parses
        let b = bind(&q, &world.dom.ontology).expect("synthetic query binds"); // PANIC-OK: synthetic domain built by this module always binds
        let base = evaluate_where(&b, &world.dom.ontology, MatchMode::Exact);
        let mut dag = Dag::new(&b, vocab, &base).without_multiplicities();
        let oracle = PlantedOracle::new(
            vocab,
            patterns.clone(),
            cfg.sim.members as usize,
            cfg.sim.seed,
        );
        let fault_free = Schedule::fault_free();
        let mut crowd = FaultyCrowd::new(oracle, &fault_free, cfg.sim.policy.timeout_ticks);
        let mining_cfg = MiningConfig {
            specialization_ratio: 0.25,
            seed: cfg.sim.seed,
            policy: cfg.sim.policy,
            debug_checks: true,
            ..Default::default()
        };
        let agg = FixedSampleAggregator { sample_size: 1 };
        let out = run_multi(&mut dag, &mut crowd, &agg, &mining_cfg);
        (
            SemanticOutcome::from_mining(&out.mining, &b, vocab),
            world.planted_display,
        )
    }));
    result.map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic (non-string payload)".into())
    })
}

/// The verdict for one `(seed, shards)` pair.
#[derive(Debug)]
pub struct ClusterReport {
    /// The seed that derives everything.
    pub seed: u64,
    /// Worker node count.
    pub shards: u32,
    /// The cluster schedule that was driven.
    pub schedule: Schedule,
    /// Property violations, empty on success.
    pub failures: Vec<String>,
    /// The fault-free cluster digest (the golden the bench gates on).
    pub fault_free_digest: u64,
}

impl ClusterReport {
    /// Whether every property held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn is_subset(sub: &[String], sup: &[String]) -> bool {
    sub.iter().all(|x| sup.binary_search(x).is_ok())
}

/// Runs the full oracle for `cfg` with the round-robin map and
/// `schedule` as the faulty phase. This is the replay entry point the
/// shrinker drives.
pub fn run_cluster_with_schedule(cfg: &ClusterConfig, schedule: &Schedule) -> ClusterReport {
    let map = ShardMap::round_robin(cfg.sim.members, cfg.shards);
    let off = telemetry::Telemetry::off();
    let mut failures = Vec::new();
    let mut fault_free_digest = 0u64;

    // Phase 1 — fault-free differential equivalence vs the single node.
    match (
        single_node_reference(cfg),
        run_cluster(cfg, &map, &Schedule::fault_free(), &off),
    ) {
        (Ok((reference, planted)), Ok(ff)) => {
            let ref_digest = reference.digest();
            fault_free_digest = ff.digest;
            if reference.msps != planted {
                failures.push(format!(
                    "single-node MSPs {:?} != planted {planted:?}",
                    reference.msps
                ));
            }
            if ff.outcome != reference || ff.digest != ref_digest {
                failures.push(format!(
                    "fault-free cluster (N={}) diverges from single node: \
                     {:?} (digest {:#x}) vs {:?} (digest {:#x})",
                    cfg.shards, ff.outcome, ff.digest, reference, ref_digest
                ));
            }
            if !ff.outcome.complete {
                failures.push(format!("fault-free cluster (N={}) incomplete", cfg.shards));
            }
            if !ff.net.fully_delivered || !ff.net.restarts.is_empty() {
                failures.push(format!(
                    "fault-free net session lost something: {:?}",
                    ff.net
                ));
            }

            // Phase 2 — the faulty schedule: determinism + degradation.
            let first = run_cluster(cfg, &map, schedule, &off);
            let second = run_cluster(cfg, &map, schedule, &off);
            match (first, second) {
                (Ok(run), Ok(rerun)) => {
                    if run != rerun {
                        failures.push(format!(
                            "non-deterministic cluster replay: {run:?} vs {rerun:?}"
                        ));
                    }
                    if !is_subset(&run.outcome.msps, &reference.msps) {
                        failures.push(format!(
                            "faulty merged MSPs {:?} escape the fault-free set {:?}",
                            run.outcome.msps, reference.msps
                        ));
                    }
                    if !is_subset(&run.outcome.valid_msps, &reference.valid_msps) {
                        failures.push(format!(
                            "faulty merged valid MSPs {:?} escape the fault-free set {:?}",
                            run.outcome.valid_msps, reference.valid_msps
                        ));
                    }
                    if run.outcome.total_valid > reference.total_valid {
                        failures.push(format!(
                            "faulty merge classified {} valid > fault-free {}",
                            run.outcome.total_valid, reference.total_valid
                        ));
                    }
                    // node faults never change what was mined — only
                    // whether it all arrived; full delivery ⇒ same digest
                    let (member_faults, _) = schedule.split_cluster();
                    if member_faults.events.is_empty()
                        && run.net.fully_delivered
                        && run.digest != ref_digest
                    {
                        failures.push(format!(
                            "net-fault-only schedule fully delivered but digest \
                             {:#x} != fault-free {ref_digest:#x} under {}",
                            run.digest,
                            schedule.to_line()
                        ));
                    }
                }
                (Err(p), _) | (_, Err(p)) => {
                    failures.push(format!(
                        "cluster panicked under {}: {p}",
                        schedule.to_line()
                    ));
                }
            }
        }
        (Err(p), _) => failures.push(format!("single-node reference panicked: {p}")),
        (_, Err(p)) => failures.push(format!("fault-free cluster panicked: {p}")),
    }

    ClusterReport {
        seed: cfg.sim.seed,
        shards: cfg.shards,
        schedule: schedule.clone(),
        failures,
        fault_free_digest,
    }
}

/// Derives the configuration for `(seed, shards)` and runs the full
/// property check.
pub fn run_cluster_seed(seed: u64, shards: u32) -> ClusterReport {
    let cfg = ClusterConfig::from_seed(seed, shards);
    let schedule = cfg.sim.schedule.clone();
    run_cluster_with_schedule(&cfg, &schedule)
}

/// If `(seed, shards)` fails, shrinks its cluster schedule to a
/// 1-minimal failing one (ddmin over mixed member/node fault tokens)
/// and returns the still-failing report; `None` if it passes.
pub fn shrink_cluster_failure(seed: u64, shards: u32) -> Option<ClusterReport> {
    let cfg = ClusterConfig::from_seed(seed, shards);
    let schedule = cfg.sim.schedule.clone();
    if run_cluster_with_schedule(&cfg, &schedule).passed() {
        return None;
    }
    let minimal = shrink(&schedule, |s| !run_cluster_with_schedule(&cfg, s).passed());
    Some(run_cluster_with_schedule(&cfg, &minimal))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_passes_at_every_shard_count() {
        for shards in [1, 2, 4, 8] {
            let report = run_cluster_seed(0, shards);
            assert!(
                report.passed(),
                "N={shards}: {:?} under {}",
                report.failures,
                report.schedule.to_line()
            );
        }
    }

    #[test]
    fn fault_free_digest_is_shard_count_invariant() {
        let mut digests = Vec::new();
        for shards in [1, 2, 4, 8] {
            let report = run_cluster_seed(1, shards);
            assert!(report.passed(), "N={shards}: {:?}", report.failures);
            digests.push(report.fault_free_digest);
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "digests differ across shard counts: {digests:?}"
        );
    }

    #[test]
    fn skewed_maps_are_equivalent_too() {
        let cfg = ClusterConfig::from_seed(3, 4);
        let off = telemetry::Telemetry::off();
        let (reference, _) = single_node_reference(&cfg).unwrap();
        // everything on one node, plus empty shards
        let skewed = ShardMap::from_assignments(vec![2; CLUSTER_MEMBERS as usize], 4).unwrap();
        let run = run_cluster(&cfg, &skewed, &Schedule::fault_free(), &off).unwrap();
        assert_eq!(run.outcome, reference);
        assert_eq!(run.nonempty_nodes, 1);
    }
}
