//! Dual-channel identifiers.

use std::fmt;

/// One of the two FlexRay channels. The dual-channel design (§III-D of the
/// paper) is FlexRay's main hardware reliability feature: a frame may be
/// transmitted on channel A, channel B, or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChannelId {
    /// Channel A.
    A,
    /// Channel B.
    B,
}

impl ChannelId {
    /// Both channels, A first.
    pub const BOTH: [ChannelId; 2] = [ChannelId::A, ChannelId::B];

    /// The other channel.
    pub fn other(self) -> ChannelId {
        match self {
            ChannelId::A => ChannelId::B,
            ChannelId::B => ChannelId::A,
        }
    }

    /// Stable index (A = 0, B = 1) for array-backed per-channel state.
    pub fn index(self) -> usize {
        match self {
            ChannelId::A => 0,
            ChannelId::B => 1,
        }
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelId::A => write!(f, "A"),
            ChannelId::B => write!(f, "B"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_flips() {
        assert_eq!(ChannelId::A.other(), ChannelId::B);
        assert_eq!(ChannelId::B.other(), ChannelId::A);
        assert_eq!(ChannelId::A.index(), 0);
        assert_eq!(ChannelId::B.index(), 1);
    }

    #[test]
    fn display() {
        assert_eq!(ChannelId::A.to_string(), "A");
        assert_eq!(ChannelId::B.to_string(), "B");
    }
}
