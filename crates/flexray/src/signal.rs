//! ECU signals.
//!
//! §II-A of the paper: each ECU `E_i` produces signals
//! `s_j^i = (P_j^i, O_j^i, D_j^i, W_j^i)` — period, offset, deadline and
//! length in bits. The schedulers treat each signal as one static message.

use event_sim::SimDuration;

/// An application-level signal produced by an ECU.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signal {
    /// Caller-chosen identifier, unique within a workload.
    pub id: u32,
    /// Generation period `P_j^i`.
    pub period: SimDuration,
    /// Release offset `O_j^i` of the first instance.
    pub offset: SimDuration,
    /// Relative deadline `D_j^i` (≤ period).
    pub deadline: SimDuration,
    /// Length `W_j^i` in bits.
    pub size_bits: u32,
}

impl Signal {
    /// Creates a validated signal.
    ///
    /// # Panics
    /// Panics if the period, deadline or size is zero, or the deadline
    /// exceeds the period.
    pub fn new(
        id: u32,
        period: SimDuration,
        offset: SimDuration,
        deadline: SimDuration,
        size_bits: u32,
    ) -> Self {
        assert!(!period.is_zero(), "signal period must be positive");
        assert!(!deadline.is_zero(), "signal deadline must be positive");
        assert!(
            deadline <= period,
            "signal deadline must not exceed its period"
        );
        assert!(size_bits > 0, "signal size must be positive");
        Signal {
            id,
            period,
            offset,
            deadline,
            size_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "deadline must not exceed")]
    fn invalid_signal_rejected() {
        let _ = Signal::new(
            1,
            SimDuration::from_millis(5),
            SimDuration::ZERO,
            SimDuration::from_millis(6),
            8,
        );
    }
}
