//! The workspace's one digest: FNV-1a-64, and the outcome folds the
//! run-vs-replay oracles compare.
//!
//! Every digest the repo gates on folds through [`Fnv`]: the golden
//! outcome digests, the six `BENCH_speed.json` digests, the WAL line
//! crc and the `done`-footer [`SemanticOutcome`](crate::SemanticOutcome)
//! digest. Two folds are shared between the side that mines and the
//! side that replays, so they are written here once:
//!
//! * [`RunDigest`] — the run/replay field set. A round-driven
//!   [`MultiOutcome`] and the [`ReplayOutcome`] of its op log each build
//!   one ([`MultiOutcome::run_digest`], [`ReplayOutcome::run_digest`]);
//!   equal digests mean the replay reproduced the run bit-identically.
//! * [`fig5_fold`] — the per-trial fold of the Figure-5 strategy
//!   workloads.

use crate::multi::MultiOutcome;
use crate::oplog::ReplayOutcome;
use crate::vertical::DiscoveryEvent;

/// FNV-1a-64: `h ← (h ⊕ byte) · prime` from the offset basis.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A hasher at the FNV-64 offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds one machine word as 8 little-endian bytes, so a digest is
    /// the same on every platform.
    pub fn word(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }

    /// Folds each event's question count and `{:?}` kind.
    pub fn events(&mut self, events: &[DiscoveryEvent]) {
        for e in events {
            self.word(e.question);
            self.bytes(format!("{:?}", e.kind).as_bytes());
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a-64 of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

/// The fields a run and the replay of its op log must agree on.
#[derive(Debug, Clone, Copy)]
pub struct RunDigest<'a> {
    /// Questions asked.
    pub questions: usize,
    /// Number of MSPs.
    pub msps: usize,
    /// Number of valid MSPs.
    pub valid_msps: usize,
    /// Materialized nodes left unclassified.
    pub undecided: usize,
    /// Valid base assignments classified.
    pub total_valid: usize,
    /// Nodes materialized.
    pub nodes_materialized: usize,
    /// Whether the run converged.
    pub complete: bool,
    /// The discovery-event stream.
    pub events: &'a [DiscoveryEvent],
}

impl RunDigest<'_> {
    /// Folds the fields in declaration order, then the event stream.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.questions);
        h.word(self.msps);
        h.word(self.valid_msps);
        h.word(self.undecided);
        h.word(self.total_valid);
        h.word(self.nodes_materialized);
        h.word(usize::from(self.complete));
        h.events(self.events);
        h.finish()
    }
}

impl MultiOutcome {
    /// The run side of the run-vs-replay oracle.
    pub fn run_digest(&self) -> u64 {
        RunDigest {
            questions: self.mining.questions,
            msps: self.mining.msps.len(),
            valid_msps: self.mining.valid_msps.len(),
            undecided: self.undecided,
            total_valid: self.mining.total_valid,
            nodes_materialized: self.mining.nodes_materialized,
            complete: self.mining.complete,
            events: &self.mining.events,
        }
        .digest()
    }
}

impl ReplayOutcome {
    /// The replay side of the run-vs-replay oracle.
    pub fn run_digest(&self) -> u64 {
        RunDigest {
            questions: self.questions,
            msps: self.msps.len(),
            valid_msps: self.valid_msps.len(),
            undecided: self.undecided,
            total_valid: self.total_valid,
            nodes_materialized: self.nodes_materialized,
            complete: self.complete,
            events: &self.events,
        }
        .digest()
    }
}

/// Folds one Figure-5 trial into the running digest `h`: its question
/// count, MSP count, then its event stream.
pub fn fig5_fold(h: &mut Fnv, questions: usize, msps: usize, events: &[DiscoveryEvent]) {
    h.word(questions);
    h.word(msps);
    h.events(events);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::FixedSampleAggregator;
    use crate::dag::Dag;
    use crate::multi::run_multi;
    use crate::synth::{plant_msps, synthetic_domain, MspDistribution, PlantedOracle};
    use crate::vertical::MiningConfig;
    use oassis_ql::{bind, evaluate_where, parse, MatchMode};

    #[test]
    fn fnv64_matches_the_published_test_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_multi_user_run_and_its_canonical_replay_digest_equal() {
        let dom = synthetic_domain(80, 5, 1);
        let b = bind(&parse(&dom.query).unwrap(), &dom.ontology).unwrap();
        let base = evaluate_where(&b, &dom.ontology, MatchMode::Exact);
        let mut full = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
        full.materialize_all();
        let planted = plant_msps(&mut full, 5, true, MspDistribution::Uniform, 3);
        let patterns: Vec<_> = planted
            .iter()
            .map(|&id| full.node(id).assignment.apply(&b))
            .collect();
        let agg = FixedSampleAggregator { sample_size: 2 };
        for batch_width in [1, 3] {
            let mut dag = Dag::new(&b, dom.ontology.vocab(), &base).without_multiplicities();
            let mut oracle = PlantedOracle::new(dom.ontology.vocab(), patterns.clone(), 5, 5);
            oracle.pruning_prob = 0.2;
            let cfg = MiningConfig {
                batch_width,
                ..MiningConfig::default()
            };
            let out = run_multi(&mut dag, &mut oracle, &agg, &cfg);
            assert!(!out.mining.msps.is_empty());
            let replay = out
                .mining
                .ops
                .replay(&dag, &agg, &telemetry::Telemetry::off());
            assert_eq!(replay.discarded_msps, 0);
            assert_eq!(
                replay.run_digest(),
                out.run_digest(),
                "batch width {batch_width}"
            );
        }
    }
}
