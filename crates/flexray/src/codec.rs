//! Physical-layer bit coding and on-wire frame length.
//!
//! FlexRay serializes a frame as:
//!
//! ```text
//! TSS | FSS | (BSS + 8 data bits) × N | FES [| DTS]
//! ```
//!
//! * **TSS** — transmission start sequence, a run of LOW bits (the
//!   collision-avoidance preamble; the spec allows 3–15 bit times, this
//!   reproduction fixes 5);
//! * **FSS** — frame start sequence, 1 bit;
//! * **BSS** — byte start sequence, 2 bits prepended to each of the N
//!   frame bytes (5 header bytes + payload bytes + 3 trailer-CRC bytes);
//! * **FES** — frame end sequence, 2 bits;
//! * **DTS** — dynamic trailing sequence, only on dynamic-segment frames
//!   (stretches the transmission to the next minislot action point; we
//!   account its 2-bit minimum).
//!
//! The on-wire length is what determines how long a frame occupies a slot,
//! which is what every latency/utilization metric in the paper measures,
//! and it is the `W_z` that sets each frame's fault probability.

/// Transmission start sequence length in bits.
pub const TSS_BITS: u64 = 5;
/// Number of bytes in the serialized frame header (40 header bits).
pub const HEADER_BYTES: u64 = 5;
/// Number of bytes in the serialized trailer (24-bit frame CRC).
pub const TRAILER_BYTES: u64 = 3;
/// Bits on the wire per frame byte (2-bit BSS + 8 data bits).
pub const BITS_PER_BYTE_CODED: u64 = 10;
/// Frame start sequence length in bits.
pub const FSS_BITS: u64 = 1;
/// Frame end sequence length in bits.
pub const FES_BITS: u64 = 2;
/// Minimum dynamic trailing sequence length in bits.
pub const DTS_MIN_BITS: u64 = 2;
/// The largest payload a FlexRay frame carries: the header's 7-bit
/// payload-length field counts at most 127 two-byte words.
pub const MAX_PAYLOAD_BYTES: u64 = 254;

/// The physical frame coding; computes on-wire lengths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameCoding;

impl FrameCoding {
    /// Total on-wire bits of a frame with `payload_bytes` payload bytes.
    /// `dynamic` adds the minimum DTS of dynamic-segment frames.
    pub fn frame_wire_bits(&self, payload_bytes: u64, dynamic: bool) -> u64 {
        let bytes = HEADER_BYTES + payload_bytes + TRAILER_BYTES;
        TSS_BITS
            + FSS_BITS
            + bytes * BITS_PER_BYTE_CODED
            + FES_BITS
            + if dynamic { DTS_MIN_BITS } else { 0 }
    }

    /// On-wire bits for a message of `message_bits` *logical* bits: the
    /// payload is padded to whole 2-byte words (FlexRay payload length is
    /// counted in words).
    pub fn message_wire_bits(&self, message_bits: u64, dynamic: bool) -> u64 {
        self.frame_wire_bits(payload_bytes_for(message_bits), dynamic)
    }
}

/// Payload bytes needed to carry `message_bits` logical bits, padded to a
/// whole number of 2-byte words (0 bits still occupy one word: a FlexRay
/// frame always carries its header, and a null frame has length 0 — we
/// model data frames, which carry at least one word).
pub fn payload_bytes_for(message_bits: u64) -> u64 {
    let bytes = message_bits.div_ceil(8).max(2);
    bytes.div_ceil(2) * 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_padding() {
        assert_eq!(payload_bytes_for(0), 2);
        assert_eq!(payload_bytes_for(1), 2);
        assert_eq!(payload_bytes_for(16), 2);
        assert_eq!(payload_bytes_for(17), 4);
        assert_eq!(payload_bytes_for(1742), 218); // largest BBW message
    }

    /// The on-wire length of a frame with `payload_bytes` payload bytes,
    /// built from the FlexRay 2.1 field widths (not from this module's
    /// constants).
    fn spec_wire_bits(payload_bytes: u64, dynamic: bool) -> u64 {
        let tss = 5;
        let fss = 1;
        let fes = 2;
        let dts = if dynamic { 2 } else { 0 };
        // Indicators, frame id, payload length, header CRC, cycle count.
        let header_bits = 5 + 11 + 7 + 11 + 6;
        let trailer_crc_bits = 24;
        let bss_bits_per_byte = 2;
        let bytes = header_bits / 8 + payload_bytes + trailer_crc_bits / 8;
        tss + fss + bytes * (8 + bss_bits_per_byte) + fes + dts
    }

    #[test]
    fn wire_lengths_follow_the_spec_field_widths() {
        let c = FrameCoding;
        for payload_bytes in (0..=254).step_by(2) {
            for dynamic in [false, true] {
                assert_eq!(
                    c.frame_wire_bits(payload_bytes, dynamic),
                    spec_wire_bits(payload_bytes, dynamic),
                    "{payload_bytes} payload bytes, dynamic {dynamic}"
                );
            }
        }
        // 2-byte payload: 5 + 1 + (5+2+3)*10 + 2 = 108 bits, +2 DTS.
        assert_eq!(c.frame_wire_bits(2, false), 108);
        assert_eq!(c.frame_wire_bits(2, true), 110);
        // 20 logical bits → 4 payload bytes → 5+1+120+2 = 128.
        assert_eq!(c.message_wire_bits(20, false), 128);
        // 1742 bits (the largest BBW message) → 218 payload bytes →
        // (5+218+3)*10 + 5 + 1 + 2 = 2268.
        assert_eq!(c.message_wire_bits(1742, false), 2268);
    }

    #[test]
    fn largest_bbw_message_fits_paper_preset_slot() {
        let wire = FrameCoding.message_wire_bits(1742, false);
        let cfg = crate::config::ClusterConfig::paper_static(80);
        assert!(wire <= cfg.static_slot_capacity_bits());
    }
}
