//! Seeded synthetic test-case generator.
//!
//! §IV-A: "The synthetic test cases are generated by randomly changing
//! message parameters, such as periods and deadlines, to represent various
//! possible scenarios. Specifically, we define the periods varying from
//! 5ms to 50ms, and the deadlines varying from 1ms to 20ms."
//!
//! Periods are drawn from a divisor-friendly palette within 5–50 ms so the
//! resulting hyperperiod stays bounded (200 ms) — the same discipline real
//! FlexRay schedules use, since slot repetitions must divide the 64-cycle
//! matrix.

use event_sim::rng::substream;
use event_sim::SimDuration;
use flexray::signal::Signal;
use rand::seq::SliceRandom;
use rand::Rng;

/// The period palette in milliseconds (all within the paper's 5–50 ms
/// band; pairwise LCM ≤ 200 ms).
pub const PERIODS_MS: [u64; 6] = [5, 10, 20, 25, 40, 50];

/// Parameters of the synthetic generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntheticSpec {
    /// How many messages to generate.
    pub count: u32,
    /// First message id (ids are consecutive).
    pub first_id: u32,
    /// Smallest message size in bits.
    pub min_bits: u32,
    /// Largest message size in bits.
    pub max_bits: u32,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        SyntheticSpec {
            count: 40,
            first_id: 1,
            min_bits: 64,
            max_bits: 1600,
        }
    }
}

/// Generates `spec.count` periodic messages deterministically from `seed`.
///
/// Deadlines are uniform in 1–20 ms, clamped to the period; offsets are
/// uniform below `min(deadline, 1 ms)` in 10 µs steps, mirroring the
/// sub-millisecond offsets of the paper's Tables II/III.
///
/// # Panics
/// Panics if `spec.min_bits` is zero or exceeds `spec.max_bits`.
pub fn message_set(spec: &SyntheticSpec, seed: u64) -> Vec<Signal> {
    assert!(spec.min_bits > 0, "message sizes must be positive");
    assert!(spec.min_bits <= spec.max_bits, "min_bits exceeds max_bits");
    let mut rng = substream(seed, "workload/synthetic");
    (0..spec.count)
        .map(|i| {
            let period_ms = *PERIODS_MS.choose(&mut rng).expect("non-empty palette");
            let deadline_ms = rng.gen_range(1..=20u64).min(period_ms);
            let offset_us = rng.gen_range(0..100u64) * 10; // 0–990 µs
            let offset_us = offset_us.min(deadline_ms * 1000 - 10);
            let bits = rng.gen_range(spec.min_bits..=spec.max_bits);
            Signal::new(
                spec.first_id + i,
                SimDuration::from_millis(period_ms),
                SimDuration::from_micros(offset_us),
                SimDuration::from_millis(deadline_ms),
                bits,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_paper_parameter_ranges() {
        let set = message_set(&SyntheticSpec::default(), 7);
        assert_eq!(set.len(), 40);
        for s in &set {
            let p = s.period.as_millis();
            assert!((5..=50).contains(&p), "period {p} out of the 5–50 ms band");
            let d = s.deadline.as_millis();
            assert!(
                (1..=20).contains(&d),
                "deadline {d} out of the 1–20 ms band"
            );
            assert!(s.deadline <= s.period);
            assert!(s.offset < s.deadline);
            assert!(s.size_bits >= 64 && s.size_bits <= 1600);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let spec = SyntheticSpec::default();
        assert_eq!(message_set(&spec, 3), message_set(&spec, 3));
        assert_ne!(message_set(&spec, 3), message_set(&spec, 4));
    }

    #[test]
    fn consecutive_ids_from_first() {
        let spec = SyntheticSpec {
            count: 5,
            first_id: 100,
            ..SyntheticSpec::default()
        };
        let ids: Vec<u32> = message_set(&spec, 1).iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn hyperperiod_stays_bounded() {
        let set = message_set(
            &SyntheticSpec {
                count: 100,
                ..Default::default()
            },
            9,
        );
        let lcm_ms = set
            .iter()
            .map(|s| s.period.as_millis())
            .fold(1u64, |a, b| a * b / gcd(a, b));
        assert!(lcm_ms <= 200, "hyperperiod {lcm_ms} ms too large");
    }

    #[test]
    #[should_panic(expected = "min_bits exceeds max_bits")]
    fn bad_spec_rejected() {
        let spec = SyntheticSpec {
            min_bits: 100,
            max_bits: 10,
            ..SyntheticSpec::default()
        };
        let _ = message_set(&spec, 1);
    }

    #[test]
    fn uses_every_period_eventually() {
        let set = message_set(
            &SyntheticSpec {
                count: 200,
                ..Default::default()
            },
            5,
        );
        for p in PERIODS_MS {
            assert!(
                set.iter().any(|s| s.period.as_millis() == p),
                "period {p} never drawn"
            );
        }
    }

    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
}
