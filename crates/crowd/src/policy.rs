//! The crowd-access policy: per-question timeout, capped retry with
//! deterministic backoff.
//!
//! The paper's algorithms assume every question eventually gets an answer;
//! a production crowd stalls, drops answers, and churns (the failure
//! surface CDAS-style quality/latency control manages). The policy layer
//! turns those faults into three deterministic outcomes the engines can
//! handle:
//!
//! * an answer arrives within [`CrowdPolicy::timeout_ticks`] → normal path;
//! * [`Answer::NoResponse`](crate::Answer::NoResponse) → up to
//!   [`CrowdPolicy::max_retries`] re-asks, each preceded by an
//!   exponentially growing backoff signalled through
//!   [`CrowdSource::advance_clock`](crate::CrowdSource::advance_clock);
//! * retries exhausted → the engine *gives up on the question*, leaves the
//!   pattern `Unknown`, and records it in the run's partial-answer
//!   manifest — it never panics and never silently reports completeness.

/// Retry/timeout policy for one engine run. All fields are in logical
/// clock ticks, so a given policy is bit-reproducible under simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrowdPolicy {
    /// Ticks the engine waits for an answer before treating the question
    /// as timed out. Interpreted by the crowd source (a simulated source
    /// converts an answer delayed beyond this into
    /// [`Answer::NoResponse`](crate::Answer::NoResponse)).
    pub timeout_ticks: u64,
    /// Re-asks after a `NoResponse` before giving up on the question.
    pub max_retries: u32,
    /// Backoff before retry `k` (0-based) is `backoff_base << k` ticks —
    /// deterministic exponential backoff.
    pub backoff_base: u64,
}

impl Default for CrowdPolicy {
    fn default() -> Self {
        CrowdPolicy {
            timeout_ticks: 4,
            max_retries: 2,
            backoff_base: 1,
        }
    }
}

impl CrowdPolicy {
    /// Backoff ticks before the `attempt`-th retry (0-based).
    pub fn backoff(&self, attempt: u32) -> u64 {
        self.backoff_base << attempt.min(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = CrowdPolicy {
            backoff_base: 2,
            ..Default::default()
        };
        assert_eq!(p.backoff(0), 2);
        assert_eq!(p.backoff(1), 4);
        assert_eq!(p.backoff(3), 16);
        // the shift saturates so a pathological retry count cannot overflow
        assert_eq!(p.backoff(40), 2 << 16);
    }
}
