//! Fault draws that must consume one RNG stream however they are made.
//!
//! The golden digests depend on every fault process consuming its RNG
//! stream exactly as the per-frame loop does, so for the pinned golden
//! master seed (and neighbours) the batched [`FaultProcess::corrupts_run`]
//! path must reproduce the per-frame hit sequence bit for bit,
//! fingerprint included, under arbitrary batch splits (proptest).
//!
//! Likewise each process must draw the same stream whether it is called
//! as its own type or through the `Box<dyn FaultProcess>` the bus holds,
//! alone or under scripted campaigns (held to a model of the campaign
//! layer written out here), and the integer [`draw_threshold`] must answer
//! every draw as `rng.gen::<f64>() < p` does.

use event_sim::rng::{substream, Digest};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reliability::campaign::{
    CampaignCounters, CampaignFaults, CampaignSpec, CampaignTarget, FaultEvent, FaultEventKind,
};
use reliability::fault::{
    draw_threshold, draws_below, BernoulliFaults, FaultCounters, FaultProcess, GilbertElliott,
    NoFaults, SegmentHits,
};
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

    /// Each process draws one stream whether it is called as its own type
    /// or through the `Box<dyn FaultProcess>` the bus holds, alone, under a
    /// campaign of each event kind, or under two stacked campaigns: every
    /// frame's hit, `in_burst`, counters and campaign counters agree, and
    /// match the [`ModelCampaign`] oracle over the same process.
    #[test]
    fn static_and_boxed_fault_draws_agree(
        source in (0u8..3, 1u8..9, 0u64..1_000_000),
        layers in proptest::collection::vec((0u8..4, 0u64..12, 1u64..8, 0u8..3), 0..3),
        placement in (0usize..2, 0u32..=100),
        ops in proptest::collection::vec((0u32..6, 0u32..5000), 1..160),
    ) {
        let ((process, ber_exp, seed), (channel, strength)) = (source, placement);
        let ber = Ber::new(10f64.powi(-i32::from(ber_exp))).unwrap();
        let base = || -> Box<dyn FaultProcess> {
            match process {
                0 => Box::new(NoFaults::new()),
                1 => Box::new(BernoulliFaults::new(ber, seed)),
                _ => Box::new(ge(ber, seed)),
            }
        };
        let specs: Vec<(CampaignSpec, u64)> = layers
            .iter()
            .enumerate()
            .map(|(i, &(kind, start, cycles, target))| {
                let spec = one_event(kind, start, cycles, target, f64::from(strength) / 100.0);
                (spec, seed ^ i as u64)
            })
            .collect();
        let layered = |specs: &[(CampaignSpec, u64)]| {
            specs.iter().fold(base(), |under, (spec, seed)| -> Box<dyn FaultProcess> {
                Box::new(CampaignFaults::new(under, spec, channel, *seed))
            })
        };
        let model = specs.iter().fold(base(), |under, (spec, seed)| -> Box<dyn FaultProcess> {
            Box::new(ModelCampaign::new(under, spec, channel, *seed))
        });
        // The outermost layer, or the bare process, as its own type.
        match specs.split_last() {
            Some(((spec, outer_seed), inner)) => {
                let own = CampaignFaults::new(layered(inner), spec, channel, *outer_seed);
                draw_alike(own, layered(&specs), model, &ops)?;
            }
            None => match process {
                0 => draw_alike(NoFaults::new(), base(), model, &ops)?,
                1 => draw_alike(BernoulliFaults::new(ber, seed), base(), model, &ops)?,
                _ => draw_alike(ge(ber, seed), base(), model, &ops)?,
            },
        }
    }

    /// The threshold answers each draw as the float comparison does: for
    /// random `p`, the edges 0, 1, 2^-53, 2^-54 and 1 − 2^-53, and tiny
    /// (subnormal) `p`; for random draws and for the integers either side
    /// of each threshold.
    #[test]
    fn threshold_draws_answer_as_the_float_draw(
        seed in 0u64..u64::MAX,
        word in 0u64..u64::MAX,
        shift in 0u32..64,
    ) {
        let edges = [0.0, 1.0, 2f64.powi(-53), 2f64.powi(-54), 1.0 - 2f64.powi(-53)];
        let random = (word >> 11) as f64 / (1u64 << 53) as f64;
        let tiny = [f64::from_bits(word >> shift), f64::from_bits(word >> 12 >> shift)];
        for p in edges.into_iter().chain([random]).chain(tiny) {
            let t = draw_threshold(p);
            prop_assert!((t > 0) == (p > 0.0), "p {p}: threshold {t}");
            let (mut float, mut int) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            for _ in 0..64 {
                let (hit, want) = (draws_below(&mut int, t), float.gen::<f64>() < p);
                prop_assert!(hit == want, "p {p}: threshold {t} drew {hit}");
            }
            // `gen::<f64>()` is the integer `next_u64() >> 11` times 2^-53.
            for k in [t.saturating_sub(1), t, t + 1].into_iter().filter(|&k| k < 1 << 53) {
                let u = k as f64 * (1.0 / (1u64 << 53) as f64);
                prop_assert!((k < t) == (u < p), "p {p}: threshold {t}, integer {k}");
            }
        }
    }
}

/// What a process reports after a frame besides its hit.
fn state<P: FaultProcess + ?Sized>(p: &P) -> (bool, FaultCounters, Option<CampaignCounters>) {
    (p.in_burst(), p.counters(), p.campaign_counters())
}

/// Plays `ops` on a process called as its own type, the same process
/// boxed, and its model: an op 0 announces a cycle `bits % 3` after the
/// last, any other op draws a frame of `bits` bits. Each frame's hit and
/// state must agree across the three.
fn draw_alike<P: FaultProcess>(
    mut own: P,
    mut boxed: Box<dyn FaultProcess>,
    mut model: Box<dyn FaultProcess>,
    ops: &[(u32, u32)],
) -> proptest::TestCaseResult {
    let mut cycle = 0;
    for (frame, &(op, bits)) in ops.iter().enumerate() {
        if op == 0 {
            cycle += u64::from(bits % 3);
            own.on_cycle_start(cycle);
            boxed.on_cycle_start(cycle);
            model.on_cycle_start(cycle);
            continue;
        }
        let want = (model.corrupts(bits), state(&*model));
        let got = [
            (own.corrupts(bits), state(&own)),
            (boxed.corrupts(bits), state(&*boxed)),
        ];
        prop_assert!(got == [want; 2], "frame {frame}: {got:?} != {want:?}");
    }
    Ok(())
}

fn ge(ber: Ber, seed: u64) -> GilbertElliott {
    let bad = Ber::new((ber.rate() * 1000.0).min(0.999)).unwrap();
    GilbertElliott::new(ber, bad, 0.1, 0.3, seed)
}

/// A campaign of one event of `kind` (blackout, BER spike, babble,
/// sensor dropout) over cycles `start..start + cycles`, on channel A, B
/// or both by `target`.
fn one_event(kind: u8, start: u64, cycles: u64, target: u8, strength: f64) -> CampaignSpec {
    let target = [CampaignTarget::A, CampaignTarget::B, CampaignTarget::Both][usize::from(target)];
    let spec = CampaignSpec::new();
    match kind {
        0 => spec.blackout(target, start, cycles),
        1 => spec.ber_spike(target, start, cycles, strength),
        2 => spec.babble(target, start, cycles, strength),
        _ => spec.sensor_dropout(target, start, cycles),
    }
}

/// The campaign layer as `reliability::campaign` documents it, written
/// out over any base: a blackout corrupts every frame without consulting
/// the base; a spike or babble draws from the layer's own
/// `fault/campaign` stream, and only for a frame the base left intact; a
/// sensor dropout freezes the reported counters at its window's entry.
/// Every cycle announcement reaches the base first.
#[derive(Debug)]
struct ModelCampaign {
    base: Box<dyn FaultProcess>,
    events: Vec<(FaultEvent, bool)>,
    rng: SmallRng,
    blackout: bool,
    extra: f64,
    frozen: Option<FaultCounters>,
    counters: FaultCounters,
    campaign: CampaignCounters,
}

impl ModelCampaign {
    fn new(base: Box<dyn FaultProcess>, spec: &CampaignSpec, channel: usize, seed: u64) -> Self {
        let events = spec.events().iter().filter(|e| e.target.includes(channel));
        let mut model = ModelCampaign {
            base,
            events: events.map(|&e| (e, false)).collect(),
            rng: substream(seed, "fault/campaign"),
            blackout: false,
            extra: 0.0,
            frozen: None,
            counters: FaultCounters::default(),
            campaign: CampaignCounters::default(),
        };
        model.enter(0, false);
        model
    }

    /// The disturbance of `cycle`; `announced` counts its openings and
    /// dropout cycles (construction does not).
    fn enter(&mut self, cycle: u64, announced: bool) {
        let active: Vec<FaultEvent> = self
            .events
            .iter()
            .map(|e| e.0)
            .filter(|e| e.active(cycle))
            .collect();
        for (event, started) in &mut self.events {
            if announced && event.active(cycle) && !*started {
                *started = true;
                self.campaign.events_started += 1;
            }
        }
        self.blackout = active.iter().any(|e| e.kind == FaultEventKind::Blackout);
        self.extra = active
            .iter()
            .map(|e| e.extra_probability(cycle))
            .fold(0.0, f64::max);
        if active
            .iter()
            .any(|e| e.kind == FaultEventKind::SensorDropout)
        {
            self.frozen = self.frozen.or(Some(self.counters));
            self.campaign.dropout_cycles += u64::from(announced);
        } else {
            self.frozen = None;
        }
    }
}

impl FaultProcess for ModelCampaign {
    fn corrupts(&mut self, bits: u32) -> bool {
        let hit = if self.blackout {
            self.campaign.blackout_faults += 1;
            true
        } else if self.base.corrupts(bits) {
            true
        } else {
            let extra = self.extra > 0.0 && self.rng.gen::<f64>() < self.extra;
            self.campaign.extra_faults += u64::from(extra);
            extra
        };
        self.counters.frames_checked += 1;
        self.counters.faults_injected += u64::from(hit);
        hit
    }

    fn frame_failure_probability(&self, _bits: u32) -> f64 {
        unreachable!("the model only draws")
    }

    fn counters(&self) -> FaultCounters {
        self.frozen.unwrap_or(self.counters)
    }

    fn in_burst(&self) -> bool {
        self.blackout || self.extra > 0.0 || self.base.in_burst()
    }

    fn on_cycle_start(&mut self, cycle: u64) {
        self.base.on_cycle_start(cycle);
        self.enter(cycle, true);
    }

    fn campaign_counters(&self) -> Option<CampaignCounters> {
        Some(self.campaign)
    }
}
