//! Environment models: the per-vehicle distribution a fleet samples from.
//!
//! The paper evaluates one cell at a time — one message set, one BER, a
//! few seeds. A fleet question ("what is the p99.999 deadline-miss
//! probability across a million vehicles?") needs a *distribution* over
//! cells: each vehicle drives in some radio environment that determines
//! its channel quality (BER, burstiness), its reliability goal, and its
//! message-set mix. An [`EnvModel`] is that distribution; sampling it
//! with a vehicle's derived seed yields the vehicle's concrete
//! [`Scenario`] and workload parameters, deterministically.

use coefficient::{FaultModel, Named, Scenario};
use event_sim::rng::substream;
use event_sim::SimDuration;
use rand::Rng;
use reliability::Ber;

/// The channel condition a vehicle drew: which fault-arrival model its
/// scenario uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// Independent per-frame faults (the paper's Bernoulli model).
    Clean,
    /// Gilbert–Elliott bursts at the ablation intensity (50× bad state).
    Bursty,
    /// Gilbert–Elliott fault storms (1500× bad state, long bursts).
    Storm,
}

/// Every condition, in the fixed order aggregation counters use.
pub const CONDITIONS: [Condition; 3] = [Condition::Clean, Condition::Bursty, Condition::Storm];

impl Condition {
    /// Stable display label (also the condition's scenario name prefix).
    pub fn label(self) -> &'static str {
        match self {
            Condition::Clean => "clean",
            Condition::Bursty => "bursty",
            Condition::Storm => "storm",
        }
    }

    /// Index into [`CONDITIONS`]-shaped counter arrays.
    pub fn index(self) -> usize {
        match self {
            Condition::Clean => 0,
            Condition::Bursty => 1,
            Condition::Storm => 2,
        }
    }
}

/// A named distribution over per-vehicle scenarios: BER range, channel
/// condition weights, reliability-goal mix and message-set size range.
///
/// Models are compile-time constants (see [`all`]) so their names can key
/// seed derivation and CLI parsing the way scenario names do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvModel {
    /// Registry key (CLI `--env` value) and seed-derivation label.
    pub name: &'static str,
    /// One-line description for docs and error listings.
    pub description: &'static str,
    /// Smallest per-vehicle good-state BER (log-uniform draw).
    pub ber_min: f64,
    /// Largest per-vehicle good-state BER (log-uniform draw).
    pub ber_max: f64,
    /// Relative weights of [`CONDITIONS`] (clean, bursty, storm).
    pub condition_weights: [u32; 3],
    /// Percent of vehicles holding the strict γ = 10⁻⁹/h goal (the rest
    /// hold the paper's γ = 10⁻⁷/h).
    pub strict_goal_pct: u32,
    /// Smallest static message-set size a vehicle can draw.
    pub min_static_messages: u32,
    /// Largest static message-set size a vehicle can draw.
    pub max_static_messages: u32,
}

/// Mostly line-of-sight, clean channels; rare storms (e.g. toll-gate
/// interference).
pub const HIGHWAY: EnvModel = EnvModel {
    name: "highway",
    description: "clean fast roads: low BER, 2% storm exposure",
    ber_min: 1e-9,
    ber_max: 1e-7,
    condition_weights: [80, 18, 2],
    strict_goal_pct: 50,
    min_static_messages: 24,
    max_static_messages: 40,
};

/// Dense impulsive noise from ignition systems and infrastructure.
pub const URBAN: EnvModel = EnvModel {
    name: "urban",
    description: "city driving: elevated BER, frequent bursts",
    ber_min: 1e-8,
    ber_max: 1e-6,
    condition_weights: [60, 30, 10],
    strict_goal_pct: 50,
    min_static_messages: 28,
    max_static_messages: 48,
};

/// Enclosed multipath-heavy stretches; the harshest channels the fleet
/// sees.
pub const TUNNEL: EnvModel = EnvModel {
    name: "tunnel",
    description: "tunnels and garages: multipath, storm-prone",
    ber_min: 1e-7,
    ber_max: 1e-5,
    condition_weights: [30, 40, 30],
    strict_goal_pct: 50,
    min_static_messages: 24,
    max_static_messages: 40,
};

/// A whole-fleet blend — the default for fleet reports.
pub const MIXED: EnvModel = EnvModel {
    name: "mixed",
    description: "fleet-wide blend of highway/urban/tunnel exposure",
    ber_min: 1e-9,
    ber_max: 1e-6,
    condition_weights: [70, 20, 10],
    strict_goal_pct: 50,
    min_static_messages: 24,
    max_static_messages: 48,
};

/// Every registered environment model, in registry order (resolved by
/// [`coefficient::registry::lookup`]).
pub fn all() -> &'static [EnvModel; 4] {
    &[HIGHWAY, URBAN, TUNNEL, MIXED]
}

impl Named for EnvModel {
    const KIND: &'static str = "environment model";
    fn key(&self) -> &str {
        self.name
    }
}

/// One vehicle's draw from an [`EnvModel`]: the concrete scenario it
/// simulates under and the size of its static message set.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleDraw {
    /// The channel condition drawn (determines the fault model).
    pub condition: Condition,
    /// The fully-built scenario (BER, γ, fault model).
    pub scenario: Scenario,
    /// Static message-set size this vehicle generates.
    pub static_messages: u32,
}

impl EnvModel {
    /// Samples one vehicle's environment from this model, deterministic
    /// in `vehicle_seed`.
    ///
    /// Draw order is fixed (condition, BER, goal, message count) and
    /// every vehicle consumes the same number of draws, so the sample is
    /// a pure function of the seed — the property shard-count invariance
    /// rests on.
    pub fn sample(&self, vehicle_seed: u64) -> VehicleDraw {
        let mut rng = substream(vehicle_seed, "fleet/env");

        let total: u32 = self.condition_weights.iter().sum();
        let mut pick = rng.gen_range(0..total);
        let mut condition = Condition::Storm;
        for (idx, &w) in self.condition_weights.iter().enumerate() {
            if pick < w {
                condition = CONDITIONS[idx];
                break;
            }
            pick -= w;
        }

        // Log-uniform BER across the model's range: radio environments
        // span orders of magnitude, so uniform-in-log is the natural
        // spread.
        let u = rng.gen::<f64>();
        let ber = (self.ber_min.ln() + u * (self.ber_max.ln() - self.ber_min.ln())).exp();
        let ber = Ber::new(ber.clamp(0.0, self.ber_max)).expect("model range keeps BER in [0,1)");

        let strict = rng.gen_range(0..100) < self.strict_goal_pct;
        let gamma = if strict { 1e-9 } else { 1e-7 };

        let static_messages = rng.gen_range(self.min_static_messages..=self.max_static_messages);

        // Scenario names are static labels per condition: fleet cells are
        // keyed by vehicle seed (not by scenario name), so vehicles
        // sharing a label never alias.
        let (name, fault_model) = match condition {
            Condition::Clean => ("fleet-clean", FaultModel::Bernoulli),
            Condition::Bursty => (
                "fleet-bursty",
                FaultModel::GilbertElliott {
                    bad_factor: 50.0,
                    p_gb: 0.002,
                    p_bg: 0.098,
                },
            ),
            Condition::Storm => (
                "fleet-storm",
                FaultModel::GilbertElliott {
                    bad_factor: 1500.0,
                    p_gb: 0.002,
                    p_bg: 0.006,
                },
            ),
        };
        let scenario = Scenario {
            name,
            ber,
            gamma,
            unit: SimDuration::from_secs(3600),
            fault_model,
            campaign: None,
        };

        VehicleDraw {
            condition,
            scenario,
            static_messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        let a = MIXED.sample(42);
        let b = MIXED.sample(42);
        assert_eq!(a, b);
        assert_ne!(MIXED.sample(42), MIXED.sample(43));
    }

    #[test]
    fn samples_respect_the_model_ranges() {
        for model in all() {
            for v in 0..500u64 {
                let draw = model.sample(v * 7 + 1);
                assert!(
                    draw.scenario.ber.rate() >= model.ber_min * 0.999,
                    "{draw:?}"
                );
                assert!(
                    draw.scenario.ber.rate() <= model.ber_max * 1.001,
                    "{draw:?}"
                );
                assert!(
                    (draw.static_messages >= model.min_static_messages)
                        && (draw.static_messages <= model.max_static_messages)
                );
                assert!(draw.scenario.gamma == 1e-7 || draw.scenario.gamma == 1e-9);
                assert!(draw.scenario.name.starts_with("fleet-"));
            }
        }
    }

    #[test]
    fn condition_mix_tracks_the_weights() {
        let mut counts = [0u64; 3];
        let n = 4000u64;
        for v in 0..n {
            counts[MIXED.sample(v).condition.index()] += 1;
        }
        // 70/20/10 within loose tolerance.
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
        assert!(
            (counts[0] as f64 / n as f64 - 0.70).abs() < 0.05,
            "{counts:?}"
        );
        assert!(
            (counts[2] as f64 / n as f64 - 0.10).abs() < 0.05,
            "{counts:?}"
        );
    }

    #[test]
    fn storm_draws_use_the_storm_intensity() {
        let storm = (0..2000u64)
            .map(|v| TUNNEL.sample(v))
            .find(|d| d.condition == Condition::Storm)
            .expect("tunnel draws storms 30% of the time");
        let FaultModel::GilbertElliott { bad_factor, .. } = storm.scenario.fault_model else {
            panic!("storm must be Gilbert–Elliott");
        };
        assert_eq!(bad_factor, 1500.0);
        assert_eq!(storm.scenario.name, "fleet-storm");
    }
}
