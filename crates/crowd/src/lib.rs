//! # crowd — the individual-knowledge substrate (Section 2) and simulated
//! crowd members (Sections 4.2, 6.2–6.3)
//!
//! The paper models each crowd member `u` as owning a **virtual** personal
//! database `D_u`: a bag of transactions (fact-sets), one per past occasion,
//! that "is not recorded anywhere, and cannot be directly accessed like a
//! standard database". The only access is by *asking questions*:
//!
//! * **concrete questions** — "How often do you go biking in Central Park
//!   and rent bikes at the Boathouse?" → the support of a pattern-set;
//! * **specialization questions** — "What type of sport do you do in
//!   Central Park? How often?" → a more specific significant pattern.
//!
//! This crate provides:
//! * [`PersonalDb`] — a materialized transaction database with the
//!   implication-based support of Section 2 (used as simulation ground
//!   truth; the mining engine never reads it directly);
//! * [`Question`] / [`Answer`] / [`CrowdSource`] — the question protocol the
//!   engine speaks, including the UI optimizations of Section 6.2
//!   (user-guided pruning, "none of these", volunteered MORE tips);
//! * [`AnswerModel`] — how a true support becomes a reported one (the
//!   5-point never/rarely/sometimes/often/very-often scale of the paper's
//!   UI, exact answers, or bounded noise);
//! * [`SimulatedMember`] / [`SimulatedCrowd`] — deterministic, seeded crowd
//!   simulation (the substitution for the paper's 248 human contributors);
//! * [`population`] — generation of member populations from planted habit
//!   profiles;
//! * [`quality`] — the consistency (spammer) filter sketched in
//!   Section 4.2: support of a more specific pattern can never exceed that
//!   of a more general one;
//! * [`CrowdPolicy`] — the crowd-access policy layer (per-question
//!   timeout, capped retry with deterministic backoff) that lets the
//!   engines degrade gracefully when answers never arrive.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod answer_model;
mod db;
mod member;
mod policy;
pub mod population;
pub mod quality;
mod question;

pub use answer_model::AnswerModel;
pub use db::PersonalDb;
pub use member::{MemberBehavior, SimulatedCrowd, SimulatedMember};
pub use policy::CrowdPolicy;
pub use question::{Answer, CrowdSource, MemberId, Question};
