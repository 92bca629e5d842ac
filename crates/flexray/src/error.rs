//! Configuration and protocol error types.

use std::fmt;

/// Errors detected when validating a cluster configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `gMacroPerCycle` must be positive.
    ZeroCycleLength,
    /// `gdStaticSlot` must be positive when static slots exist.
    ZeroStaticSlot,
    /// `gdMinislot` must be positive when minislots exist.
    ZeroMinislot,
    /// A cycle must contain at least one static slot (FlexRay requires a
    /// non-empty static segment for sync frames).
    NoStaticSlots,
    /// The segments (static + dynamic + NIT) do not fit in
    /// `gMacroPerCycle` macroticks.
    SegmentsExceedCycle {
        /// Macroticks required by the configured segments.
        required: u64,
        /// Macroticks available per cycle.
        available: u64,
    },
    /// The network idle time is zero — clock correction needs at least one
    /// macrotick.
    NoNetworkIdleTime,
    /// `pLatestTx` exceeds the number of minislots.
    LatestTxOutOfRange {
        /// Configured `pLatestTx`.
        latest_tx: u64,
        /// Configured number of minislots.
        minislots: u64,
    },
    /// Bit rate must be positive.
    ZeroBitRate,
    /// The action point offset must be smaller than the slot it offsets
    /// into.
    ActionPointTooLarge,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCycleLength => write!(f, "gMacroPerCycle must be positive"),
            ConfigError::ZeroStaticSlot => write!(f, "gdStaticSlot must be positive"),
            ConfigError::ZeroMinislot => write!(f, "gdMinislot must be positive"),
            ConfigError::NoStaticSlots => write!(f, "at least one static slot is required"),
            ConfigError::SegmentsExceedCycle {
                required,
                available,
            } => write!(
                f,
                "segments need {required} macroticks but the cycle has only {available}"
            ),
            ConfigError::NoNetworkIdleTime => {
                write!(f, "network idle time must be at least one macrotick")
            }
            ConfigError::LatestTxOutOfRange {
                latest_tx,
                minislots,
            } => write!(
                f,
                "pLatestTx ({latest_tx}) exceeds the number of minislots ({minislots})"
            ),
            ConfigError::ZeroBitRate => write!(f, "bit rate must be positive"),
            ConfigError::ActionPointTooLarge => {
                write!(f, "action point offset must fit inside the slot")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = ConfigError::SegmentsExceedCycle {
            required: 6000,
            available: 5000,
        };
        let s = e.to_string();
        assert!(s.contains("6000") && s.contains("5000"));
        assert!(ConfigError::NoStaticSlots.to_string().contains("static"));
    }
}
