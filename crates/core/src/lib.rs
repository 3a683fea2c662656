//! # oassis-core — the OASSIS crowd-mining engine (Sections 4–6)
//!
//! The paper's primary contribution: evaluating OASSIS-QL queries with the
//! crowd while asking as few questions as possible.
//!
//! * [`assignment`] — assignments with multiplicities and their semantic
//!   partial order (Definition 4.1).
//! * [`validity`] — membership in the expanded assignment set `𝒜`
//!   (line 1 of Algorithm 1) and in `𝒜_valid` (Proposition 5.1).
//! * [`dag`] — the lazily generated assignment DAG (Section 5, the
//!   prototype's `AssignGenerator`).
//! * [`classify`] — witness-based classification with the inference of
//!   Observation 4.4, plus user-guided pruning.
//! * [`vertical`] — Algorithm 1 (single user).
//! * [`multi`] — the multi-user engine of Section 4.2 (`QueueManager`).
//! * `fold` — the classification fold: the one writer of shared
//!   classification state, run by every engine and by op-log replay.
//! * [`digest`] — the one FNV-1a hasher every digest and WAL crc folds
//!   through, and the outcome folds the run-vs-replay oracles compare.
//! * [`oplog`] — the answer-operation log: every accepted answer as a
//!   replayable delta, permutation-invariant under the canonical merge
//!   order.
//! * [`aggregate`] — black-box answer aggregation.
//! * [`baselines`] — the Horizontal (Apriori-style) and Naive comparison
//!   algorithms of Section 6.4, and the exhaustive-baseline question count.
//! * [`cache`] — `CrowdCache`: answer caching and threshold re-use
//!   (Section 6.3).
//! * [`synth`] — synthetic DAGs, planted MSPs and ground-truth oracles
//!   (Section 6.4).
//! * [`templates`] — natural-language question rendering (Section 6.2).
//! * [`rulemine`] — association-rule mining (`IMPLYING … AND CONFIDENCE`,
//!   a Section-8 / language-guide extension).
//! * [`diversify`](mod@diversify) — diversified top-k answers (Section 8 extension).
//! * [`manifest`] — the crowd-access policy's retry loop and the
//!   partial-answer manifest of degraded runs.
//! * [`invariants`] — step-level invariant checkers for the simulation
//!   harness (`crates/simtest`).
//! * [`wire`] — replica-portable wire ops (nodes addressed by assignment)
//!   and their JSON codec: how the server's write-ahead log stores a run.
//! * [`engine`] — the high-level `Oassis` facade.
#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod assignment;
pub mod baselines;
pub mod cache;
pub mod classify;
pub mod dag;
pub mod digest;
pub mod diversify;
pub mod engine;
pub mod fingerprint;
mod fold;
pub mod invariants;
pub mod manifest;
pub mod multi;
pub mod oplog;
pub mod rulemine;
pub mod synth;
pub mod templates;
pub mod validity;
pub mod vertical;
pub mod wire;

pub use aggregate::{
    AggVerdict, Aggregator, EarlyDecisionAggregator, FixedSampleAggregator, TrustWeightedAggregator,
};
pub use assignment::{Assignment, Slot};
pub use baselines::{baseline_question_count, run_horizontal, run_naive};
pub use cache::{CachedAnswer, CachingCrowd, CrowdCache, SharedCachingCrowd, SharedCrowdCache};
pub use classify::{Class, Classifier, MemberRecord};
pub use dag::{Dag, GenStats, Node, NodeId};
pub use diversify::{diversify, semantic_distance};
pub use engine::{
    CrowdBinding, ExecuteOptions, Oassis, OassisError, PreparedQuery, QueryAnswer, QueryOutcome,
    QueryRequest, RuleAnswer,
};
pub use manifest::PartialManifest;
pub use multi::{run_multi, MultiOutcome, QuestionStats};
pub use oplog::{AnswerOp, OpLog, OpTap, OpTapHandle, OpVerdict, ReplayOutcome};
pub use rulemine::{run_rules, MinedRule, RuleMiningConfig, RuleOutcome};
pub use synth::{plant_msps, synthetic_domain, MspDistribution, PlantedOracle, SyntheticDomain};
pub use templates::QuestionTemplates;
pub use validity::{SlotInfo, ValidityIndex};
pub use vertical::{run_vertical, DiscoveryEvent, DiscoveryKind, MiningConfig, MiningOutcome};
pub use wire::{
    intern_wire_op, op_to_wire, read_wire_op, write_wire_op, SemanticOutcome, WireOp, WireVerdict,
};
