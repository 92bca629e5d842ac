//! Batched fault draws vs. per-frame Bernoulli consultation.
//!
//! The golden digests depend on every fault process consuming its RNG
//! stream exactly as the per-frame loop does, so for the pinned golden
//! master seed (and neighbours) the batched [`FaultProcess::corrupts_run`]
//! path must reproduce the per-frame hit sequence bit for bit,
//! fingerprint included, under arbitrary batch splits (proptest).

use event_sim::rng::Digest;
use proptest::prelude::*;
use reliability::fault::{BernoulliFaults, FaultProcess, GilbertElliott, SegmentHits};
use reliability::Ber;

/// The golden corpus master seed (see `corpus/golden.json`).
const GOLDEN_SEED: u64 = 20140630;

/// Frame widths a paper-geometry cycle actually mixes: static frames of a
/// few hundred coded bits, small dynamic fits, and full 64-frame batches.
const WIDTH_PATTERN: [u32; 8] = [16, 1, 7, 64, 13, 32, 2, 50];

/// Draws `total` frames of `bits` bits one `corrupts` call at a time and
/// returns the hit sequence packed little-endian into 64-bit words.
fn per_frame_hits(process: &mut dyn FaultProcess, bits: u32, total: u32) -> Vec<u64> {
    let mut words = vec![0u64; (total as usize).div_ceil(64)];
    for i in 0..total {
        let hit = process.corrupts(bits);
        words[i as usize / 64] |= u64::from(hit) << (i % 64);
    }
    words
}

/// Draws the same `total` frames through `corrupts_run` batches of the
/// given widths (cycled), packing hits the same way.
fn batched_hits(process: &mut dyn FaultProcess, bits: u32, total: u32, widths: &[u32]) -> Vec<u64> {
    let mut words = vec![0u64; (total as usize).div_ceil(64)];
    let mut done = 0u32;
    let mut w = widths.iter().cycle();
    while done < total {
        let frames = (*w.next().unwrap()).min(total - done);
        let hits = process.corrupts_run(bits, frames);
        assert_eq!(hits.frames, frames);
        assert_eq!(hits.count(), hits.mask.count_ones());
        for i in 0..frames {
            let at = (done + i) as usize;
            words[at / 64] |= u64::from(hits.hit(i)) << (at % 64);
        }
        done += frames;
    }
    words
}

fn fingerprint(words: &[u64]) -> u64 {
    let mut d = Digest::new();
    for w in words {
        d.push(*w);
    }
    d.finish()
}

#[test]
fn batched_bernoulli_matches_per_frame_stream_and_fingerprint() {
    // A BER high enough that hits actually occur over a few thousand
    // frames of golden-sized payloads.
    let ber = Ber::new(1e-5).unwrap();
    for seed in [GOLDEN_SEED, GOLDEN_SEED ^ 0xA, GOLDEN_SEED ^ 0xB] {
        for bits in [424, 4040] {
            let mut loose = BernoulliFaults::new(ber, seed);
            let mut batched = BernoulliFaults::new(ber, seed);
            let a = per_frame_hits(&mut loose, bits, 4096);
            let b = batched_hits(&mut batched, bits, 4096, &WIDTH_PATTERN);
            assert_eq!(a, b, "seed {seed} bits {bits}: hit sequences diverge");
            assert_eq!(fingerprint(&a), fingerprint(&b));
            assert_eq!(loose.counters(), batched.counters());
            assert!(
                a.iter().any(|w| *w != 0),
                "seed {seed} bits {bits}: no hits — the check is vacuous"
            );
        }
    }
}

#[test]
fn batched_gilbert_elliott_matches_per_frame_stream() {
    let mk = |seed| {
        GilbertElliott::new(
            Ber::new(1e-7).unwrap(),
            Ber::new(1e-4).unwrap(),
            0.05,
            0.2,
            seed,
        )
    };
    for seed in [GOLDEN_SEED, GOLDEN_SEED ^ 0xA] {
        let (mut loose, mut batched) = (mk(seed), mk(seed));
        let a = per_frame_hits(&mut loose, 4040, 4096);
        let b = batched_hits(&mut batched, 4040, 4096, &WIDTH_PATTERN);
        assert_eq!(a, b, "seed {seed}: hit sequences diverge");
        assert_eq!(loose.counters(), batched.counters());
        assert_eq!(loose.is_in_bad_state(), batched.is_in_bad_state());
    }
}

#[test]
fn zero_rate_batches_are_clear_and_free() {
    let mut f = BernoulliFaults::new(Ber::new(0.0).unwrap(), GOLDEN_SEED);
    for frames in [1, 17, 64] {
        let hits = f.corrupts_run(4040, frames);
        assert_eq!(hits.mask, 0);
        assert_eq!(hits.count(), 0);
    }
    assert_eq!(f.counters().frames_checked, 1 + 17 + 64);
    assert_eq!(f.counters().faults_injected, 0);
}

proptest! {
    /// Splitting a run of frames into arbitrary batch widths never
    /// changes the hit sequence or the counters: `corrupts_run` is
    /// stream-identical to per-frame consultation for any split.
    #[test]
    fn batch_split_never_changes_the_stream(
        seed in 0u64..1_000_000,
        bits in (0usize..4).prop_map(|i| [64u32, 424, 1000, 4040][i]),
        widths in proptest::collection::vec(1u32..=64, 1..8),
        total in 64u32..512,
    ) {
        let ber = Ber::new(1e-4).unwrap();
        let mut loose = BernoulliFaults::new(ber, seed);
        let mut batched = BernoulliFaults::new(ber, seed);
        let a = per_frame_hits(&mut loose, bits, total);
        let b = batched_hits(&mut batched, bits, total, &widths);
        prop_assert_eq!(a, b);
        prop_assert_eq!(loose.counters(), batched.counters());
    }

    /// `SegmentHits` accessors agree with the raw mask for any contents.
    #[test]
    fn segment_hits_accessors_are_consistent(mask in 0u64..=u64::MAX, frames in 1u32..=64) {
        let trimmed = if frames == 64 { mask } else { mask & ((1u64 << frames) - 1) };
        let hits = SegmentHits { mask: trimmed, frames };
        prop_assert_eq!(hits.count(), trimmed.count_ones());
        let rebuilt = (0..frames).fold(0u64, |m, i| m | (u64::from(hits.hit(i)) << i));
        prop_assert_eq!(rebuilt, trimmed);
        prop_assert_eq!(SegmentHits::clear(frames).count(), 0);
    }
}
