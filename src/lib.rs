//! # OASSIS — query-driven crowd mining
//!
//! A from-scratch Rust reproduction of *"OASSIS: Query Driven Crowd
//! Mining"* (Amsterdamer, Davidson, Milo, Novgorodov, Somech; SIGMOD
//! 2014): pose a declarative OASSIS-QL query combining an **ontology
//! selection** with a **crowd-mining task**, and receive the concise set
//! of *most specific significant patterns* (MSPs) of crowd behaviour,
//! mined with as few questions as possible.
//!
//! ```
//! use oassis::prelude::*;
//!
//! // general knowledge: the paper's Figure-1 NYC ontology
//! let ont = oassis::ontology::domains::figure1::ontology();
//!
//! // individual knowledge: the u_avg member of Example 4.6, whose answers
//! // are the exact average of the Table-3 members u1 and u2 (realized by
//! // concatenating D_u1 with three copies of D_u2)
//! let [d1, d2] = oassis::ontology::domains::figure1::personal_dbs(&ont);
//! let mut tx = d1;
//! for _ in 0..3 { tx.extend(d2.iter().cloned()); }
//! let member = SimulatedMember::new(PersonalDb::from_transactions(tx),
//!     MemberBehavior::default(), AnswerModel::Exact, 0);
//! let mut crowd = SimulatedCrowd::new(ont.vocab(), vec![member]);
//!
//! // the query of Figure 2 (simplified): activities at child-friendly
//! // NYC attractions, mined at support threshold 0.4
//! let engine = Oassis::new(&ont);
//! let request = QueryRequest::pattern(oassis::ontology::domains::figure1::SIMPLE_QUERY);
//! let answer = engine
//!     .run(&request, &mut crowd, &FixedSampleAggregator { sample_size: 1 })
//!     .unwrap()
//!     .into_patterns()
//!     .unwrap();
//! assert!(answer.answers.iter().any(|a| a == "Biking doAt Central Park"));
//! ```
//!
//! The workspace crates (re-exported here):
//!
//! | crate | contents |
//! |---|---|
//! | [`ontology`] | vocabularies, the semantic partial orders `≤E`/`≤R`, facts, fact-sets, pattern-sets, the Figure-1 ontology and the generated evaluation domains (§2, §6.3) |
//! | [`ql`] | the OASSIS-QL language: parser, binder, WHERE evaluation (§3, §5) |
//! | [`crowd`] | personal databases, the question/answer protocol, answer models, simulated members, population generation, quality filtering (§2, §4.2, §6.2) |
//! | [`core`] | the assignment DAG, the vertical algorithm, multi-user engine, aggregators, baselines, CrowdCache, synthetic workloads, NL templates (§4–§6) |
//! | [`rules`] | the SIGMOD'13 association-rule crowd-mining framework (the paper's reference \[3\]) |
//! | [`server`] | the long-lived crowd-mining service: line-delimited JSON over TCP, WAL-backed persistent sessions, recovery by replay (DESIGN.md §17) |

#![forbid(unsafe_code)]
#![deny(unused_must_use)]

pub use crowd;
pub use oassis_core as core;
pub use oassis_ql as ql;
pub use oassis_server as server;
pub use ontology;
pub use telemetry;

/// The SIGMOD'13 companion framework (`crowdrules`).
pub use crowdrules as rules;

/// Convenient glob-import surface for applications.
///
/// Covers the single-entry query API ([`Oassis::run`](crate::core::Oassis::run)
/// with [`QueryRequest`](crate::core::QueryRequest)), its error and outcome
/// types, the persistent-session manager
/// ([`SessionManager`](crate::server::SessionManager), WAL-backed
/// sessions), the telemetry handles, and the
/// crowd/ontology vocabulary most applications need.
pub mod prelude {
    pub use crate::core::{
        run_horizontal, run_multi, run_naive, run_vertical, Assignment, Class, Classifier,
        CrowdCache, Dag, EarlyDecisionAggregator, ExecuteOptions, FixedSampleAggregator,
        MiningConfig, MiningOutcome, MultiOutcome, Oassis, OassisError, PlantedOracle, QueryAnswer,
        QueryOutcome, QueryRequest, QuestionTemplates, RuleAnswer, RuleMiningConfig,
        SharedCrowdCache,
    };
    pub use crate::ql::{bind, evaluate_where, parse, BoundQuery, MatchMode, Value};
    pub use crate::server::{
        CrowdProvider, QueryReply, RecoveredQuery, ServerError, SessionManager, SessionSpec,
    };
    pub use crowd::{
        Answer, AnswerModel, CrowdPolicy, CrowdSource, MemberBehavior, MemberId, PersonalDb,
        Question, SimulatedCrowd, SimulatedMember,
    };
    pub use ontology::{
        Fact, FactSet, Ontology, OntologyBuilder, PatternFact, PatternSet, Vocabulary,
        VocabularyBuilder,
    };
    pub use telemetry::{Telemetry, TelemetrySink};
}
