//! Near-real-time control-loop budget auditing.
//!
//! O-RAN places the nRT-RIC control loop between 10 ms and 1 s (§2.1 of the
//! paper). [`classify`] places one wall-clock duration against that window;
//! the distributions themselves live in the `xsec-obs` registry
//! (`xsec_ric_handler_latency_us`, `xsec_ric_control_ack_latency_us`) — the
//! evidence behind the claim that a *lightweight* detector belongs in the
//! loop while the LLM does not (§3.3's motivation for chaining).

use std::time::Duration as StdDuration;

/// Where a handler invocation landed relative to the near-RT budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyClass {
    /// Under 10 ms — faster than required (fits even real-time loops).
    UnderBudget,
    /// Within the 10 ms – 1 s near-RT window.
    WithinBudget,
    /// Over 1 s — would miss the near-RT deadline.
    OverBudget,
}

/// Classifies one duration against the near-RT window.
pub fn classify(d: StdDuration) -> LatencyClass {
    if d < StdDuration::from_millis(10) {
        LatencyClass::UnderBudget
    } else if d <= StdDuration::from_secs(1) {
        LatencyClass::WithinBudget
    } else {
        LatencyClass::OverBudget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_boundaries() {
        assert_eq!(classify(StdDuration::from_millis(1)), LatencyClass::UnderBudget);
        assert_eq!(classify(StdDuration::from_millis(10)), LatencyClass::WithinBudget);
        assert_eq!(classify(StdDuration::from_millis(999)), LatencyClass::WithinBudget);
        assert_eq!(classify(StdDuration::from_secs(1)), LatencyClass::WithinBudget);
        assert_eq!(classify(StdDuration::from_millis(1001)), LatencyClass::OverBudget);
    }
}
