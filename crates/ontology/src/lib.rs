//! # ontology — vocabularies, semantic partial orders, facts and ontologies
//!
//! This crate implements the *general knowledge* half of the OASSIS model
//! (Amsterdamer, Davidson, Milo, Novgorodov, Somech: "OASSIS: Query Driven
//! Crowd Mining", SIGMOD 2014, Section 2):
//!
//! * [`Vocabulary`] — a tuple `(E, ≤E, R, ≤R)` of element and relation names
//!   together with two partial orders (Definition 2.1). Following the paper,
//!   the orders are *semantically reversed subsumption*: `Sport ≤E Biking`
//!   because biking **is a** sport — the more **general** term is the
//!   **smaller** one.
//! * [`Fact`] / [`FactSet`] — triples `⟨e1, r, e2⟩` over the vocabulary and
//!   sets thereof (Definition 2.2), with the derived partial order of
//!   Definition 2.5 ([`Vocabulary::fact_leq`], [`FactSet::leq`]).
//! * [`Ontology`] — a distinguished fact-set of *universal* facts ("Central
//!   Park inside NYC") plus indexes used by query evaluation, built with
//!   [`OntologyBuilder`]. Relations such as `subClassOf` / `instanceOf` can be
//!   declared [*order-defining*](OntologyBuilder::order_relation) so that the
//!   corresponding facts also populate `≤E`, exactly as in the paper's
//!   Example 2.3.
//! * [`domains`] — the paper's Figure 1 ontology, plus deterministic
//!   generators for the three evaluation domains of Section 6.3 (travel,
//!   culinary, self-treatment).
//! * [`synth`] — random vocabulary/ontology generation for the synthetic
//!   experiments of Section 6.4.
//!
//! All names are interned to dense `u32` ids ([`ElemId`], [`RelId`]); order
//! reachability is answered in O(1) from transitive-closure bitsets computed
//! once when the vocabulary is frozen.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

mod bitmat;
mod error;
mod fact;
mod ids;
mod pattern;
mod store;
mod vocab;

pub mod domains;
pub mod json;
pub mod synth;

pub use bitmat::BitMatrix;
pub use error::OntologyError;
pub use fact::{Fact, FactSet};
pub use ids::{ElemId, RelId};
pub use pattern::{PatternFact, PatternSet};
pub use store::{Ontology, OntologyBuilder};
pub use vocab::{Vocabulary, VocabularyBuilder};
