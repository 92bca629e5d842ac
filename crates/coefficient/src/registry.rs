//! The name registries and the string-keyed policy registry.
//!
//! Every name the CLI and the corpus files carry — policies, backbone
//! reservations and topologies, fleet environments, scenarios, chaos
//! campaigns — resolves through one lookup: [`lookup`] matches a name,
//! trimmed and ASCII-case-insensitive, against each [`Named`] entry's
//! key, label and aliases, and fails with one error type,
//! [`UnknownName`], whose message lists every valid key.
//!
//! [`Policy`] is the extension point of the scheduler zoo. A policy is a
//! data row — a registry key, a display label, a [`PolicyBehavior`] flag
//! set consumed by [`crate::Scheduler`], and a copy plan — while all
//! scheduling machinery lives in the shared scheduler engine. The flag
//! set has four axes, each of which some pair of policies sets apart:
//! mirror or steal slack, serialize through own slots or not, degraded
//! mode or not, match-up recovery or not. Adding a policy that recombines
//! them is a one-file change: add a `const` row here, append it to
//! [`ALL`], and the shared `tests/policy_contract.rs` battery picks it up
//! automatically.
//!
//! Policies are addressed as `&'static Policy` rows ([`PolicyRef`]),
//! resolved from strings end to end ([`resolve`]): the bench CLI, the
//! golden corpus JSON and the sweep harness all go through the same
//! lookup, so an unknown name fails with a listing of the registered keys
//! instead of a panic.
//!
//! | key | mirror | own slots | degraded mode | match-up | semantics |
//! |---|---|---|---|---|---|
//! | `coefficient` | | | ✓ | | the paper's scheme: differentiated Theorem-1 copies in stolen slack, cooperative segments, degraded mode, failover |
//! | `fspec` | ✓ | ✓ | | | FlexRay-specification baseline: blanket B-mirror, uniform best-effort copies serialized through own slots |
//! | `hosa` | ✓ | | | | dual-channel redundancy only: mirror + one extra copy, no slack use |
//! | `greedy` | | | ✓ | | greedy best-effort retransmission: uniform copy count, but placed in stolen slack like CoEfficient |
//! | `slack-steal` | | | | | slack stealing without criticality differentiation: no shedding, no degraded mode, no failover |
//! | `matchup` | | | ✓ | ✓ | mixed-criticality match-up: after a fault burst, slack switches to a recovery schedule for hard instances only |

use flexray::schedule::MessageId;
use reliability::RetransmissionPlanner;

/// A member of a name registry: the spellings [`lookup`] accepts for it.
pub trait Named {
    /// What the registry holds (`"policy"`, `"topology"`, …), as the
    /// [`UnknownName`] message names it.
    const KIND: &'static str;
    /// The canonical name, listed by [`UnknownName`].
    fn key(&self) -> &str;
    /// The display label, also accepted.
    fn label(&self) -> &str {
        self.key()
    }
    /// Further accepted spellings.
    fn aliases(&self) -> &[&str] {
        &[]
    }
}

impl<T: Named + ?Sized> Named for &T {
    const KIND: &'static str = T::KIND;
    fn key(&self) -> &str {
        (**self).key()
    }
    fn label(&self) -> &str {
        (**self).label()
    }
    fn aliases(&self) -> &[&str] {
        (**self).aliases()
    }
}

/// A name that matched no entry of its registry. The
/// [`Display`](std::fmt::Display) rendering lists every valid key, so CLI
/// and corpus errors tell the user what *would* have worked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownName {
    /// What was looked up (`"policy"`, `"flag"`, …).
    pub kind: &'static str,
    /// The name that failed to resolve, trimmed.
    pub name: String,
    /// Every valid name, in registry order.
    pub valid: Vec<&'static str>,
}

impl std::fmt::Display for UnknownName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown {} \"{}\" (valid: {})",
            self.kind,
            self.name,
            self.valid.join(", ")
        )
    }
}

impl std::error::Error for UnknownName {}

/// The keys of `entries`, in registry order.
pub fn keys<T: Named>(entries: &'static [T]) -> Vec<&'static str> {
    entries.iter().map(Named::key).collect()
}

/// Resolves `name` against `entries` by key, label or alias
/// (case-insensitive, surrounding whitespace ignored).
///
/// # Errors
/// [`UnknownName`] — whose message lists every key — if nothing matches.
pub fn lookup<T: Named>(entries: &'static [T], name: &str) -> Result<&'static T, UnknownName> {
    let needle = name.trim();
    entries
        .iter()
        .find(|e| {
            [e.key(), e.label()]
                .into_iter()
                .chain(e.aliases().iter().copied())
                .any(|s| s.eq_ignore_ascii_case(needle))
        })
        .ok_or_else(|| UnknownName {
            kind: T::KIND,
            name: needle.to_string(),
            valid: keys(entries),
        })
}

/// FSPEC's best-effort retransmission cap: the uniform per-message copy
/// count is searched up to this bound (beyond it, best effort gives up —
/// the bandwidth simply is not there).
const FSPEC_MAX_UNIFORM_K: u32 = 4;

/// The switchboard a policy hands the scheduler engine: the four axes
/// along which the registered policies differ. Each flag enables one
/// mechanism of the shared machinery, or turns off the one it replaces —
/// CoEfficient is degraded mode on, the rest off; FSPEC is the
/// mirror/own-slot pair; HOSA is the mirror alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyBehavior {
    /// Blanket-mirror every static primary on channel B instead of
    /// planning per-message copies into stolen slack. A mirror scheme
    /// keeps the FlexRay-spec separate segments (free static positions
    /// stay idle) and runs under the default
    /// [`crate::CoefficientOptions`], so the ablation switches only
    /// ever affect the cooperative policies.
    pub mirror_allocation: bool,
    /// Serialize all of a static message's transmissions (primary +
    /// best-effort copies) through the message's own slot pattern with a
    /// bounded CHI queue, and keep every dynamic message on channel A
    /// (the FSPEC separate-segments model). Otherwise dynamic messages'
    /// home channels alternate across A and B.
    pub own_slot_serialization: bool,
    /// Health-driven degraded mode: shed soft dynamic traffic by
    /// criticality class, re-plan freed slack into extra hard-message
    /// copies, and mirror hard frames onto the healthier channel during
    /// an asymmetric channel storm (failover).
    pub degraded_mode: bool,
    /// Match-up recovery: while the health monitor reports a degraded
    /// bus, free slack serves *only* the hard recovery schedule (extra
    /// copies of undelivered static instances); nominal cooperative
    /// service resumes when the monitor returns to `Nominal`.
    pub matchup_recovery: bool,
}

impl PolicyBehavior {
    /// CoEfficient's flag set: cooperative segments with degraded mode.
    const COEFFICIENT: PolicyBehavior = PolicyBehavior {
        mirror_allocation: false,
        own_slot_serialization: false,
        degraded_mode: true,
        matchup_recovery: false,
    };
}

/// How a policy turns a reliability goal into per-message copy counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyPlan {
    /// The paper's differentiated Theorem-1 plan: per-message `k_z` copy
    /// counts for the goal, falling back to the uniform cap if the goal
    /// is unreachable.
    Differentiated,
    /// Uniform best effort: the smallest `k` meeting the goal, applied to
    /// every message (capped at `FSPEC_MAX_UNIFORM_K` = 4).
    UniformBestEffort,
    /// Exactly one extra copy of every message, whatever the goal.
    OneEach,
}

/// A scheduling policy: one row of the registry.
///
/// The scheduler engine reads the [`behavior`](Self::behavior) flags and
/// the copy plan and does the rest.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    key: &'static str,
    label: &'static str,
    aliases: &'static [&'static str],
    fingerprint_tag: u64,
    behavior: PolicyBehavior,
    copies: CopyPlan,
}

/// A registered policy: a `'static` row, `Copy` and comparable.
pub type PolicyRef = &'static Policy;

impl Policy {
    /// Stable registry key (lowercase, e.g. `"slack-steal"`); the string
    /// the CLI and corpus resolve.
    pub fn key(&self) -> &'static str {
        self.key
    }

    /// Human-readable display label (e.g. `"CoEfficient"`); also accepted
    /// by [`resolve`], case-insensitively.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The ordinal folded into [`crate::RunReport::fingerprint`]. Legacy
    /// values are frozen — CoEfficient 0, FSPEC 1, HOSA 2 — so the golden
    /// corpus digests recorded before the registry existed stay
    /// byte-identical; new policies claim the next free ordinal.
    pub fn fingerprint_tag(&self) -> u64 {
        self.fingerprint_tag
    }

    /// The mechanism switchboard the scheduler engine runs under.
    pub fn behavior(&self) -> PolicyBehavior {
        self.behavior
    }

    /// Per-message retransmission copy counts for a reliability goal.
    pub fn plan_copies(&self, planner: &RetransmissionPlanner, goal: f64) -> Vec<(MessageId, u32)> {
        let uniform = |k: u32| -> Vec<(MessageId, u32)> {
            planner
                .uniform(k)
                .messages()
                .iter()
                .map(|m| (m.id, k))
                .collect()
        };
        match self.copies {
            CopyPlan::Differentiated => {
                if goal <= 0.0 {
                    return Vec::new();
                }
                let plan = planner
                    .plan_for_goal(goal)
                    .unwrap_or_else(|_| planner.uniform(FSPEC_MAX_UNIFORM_K));
                plan.messages()
                    .iter()
                    .zip(plan.retransmission_counts())
                    .map(|(m, &k)| (m.id, k))
                    .collect()
            }
            CopyPlan::UniformBestEffort => uniform(if goal <= 0.0 {
                0
            } else {
                (0..=FSPEC_MAX_UNIFORM_K)
                    .find(|&k| planner.uniform(k).success_probability() >= goal)
                    .unwrap_or(FSPEC_MAX_UNIFORM_K)
            }),
            CopyPlan::OneEach => uniform(1),
        }
    }
}

impl Named for Policy {
    const KIND: &'static str = "policy";
    fn key(&self) -> &str {
        self.key
    }
    fn label(&self) -> &str {
        self.label
    }
    fn aliases(&self) -> &[&str] {
        self.aliases
    }
}

impl std::fmt::Debug for Policy {
    /// The variant names of the enum the registry replaced: the label,
    /// with an all-caps acronym title-cased (`FSPEC` → `Fspec`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (head, tail) = self.label.split_at(1);
        if tail.bytes().all(|b| b.is_ascii_uppercase()) {
            write!(f, "{head}{}", tail.to_ascii_lowercase())
        } else {
            f.write_str(self.label)
        }
    }
}

/// The paper's contribution: cooperative dual-channel scheduling with
/// selective slack stealing and differentiated retransmission (registry
/// key `coefficient`).
pub const COEFFICIENT: PolicyRef = &Policy {
    key: "coefficient",
    label: "CoEfficient",
    aliases: &["co"],
    fingerprint_tag: 0,
    behavior: PolicyBehavior::COEFFICIENT,
    copies: CopyPlan::Differentiated,
};

/// The standard FlexRay-specification behaviour with best-effort
/// retransmission of all segments — the paper's baseline (registry key
/// `fspec`).
pub const FSPEC: PolicyRef = &Policy {
    key: "fspec",
    label: "FSPEC",
    aliases: &[],
    fingerprint_tag: 1,
    behavior: PolicyBehavior {
        mirror_allocation: true,
        own_slot_serialization: true,
        degraded_mode: false,
        matchup_recovery: false,
    },
    copies: CopyPlan::UniformBestEffort,
};

/// A HOSA-like scheme (paper §V-B, reference \[7\]): dual-channel
/// redundancy — every static message mirrored on channel B, every dynamic
/// message sent once more on the other channel — but no slack stealing
/// and no cooperative use of idle slots (registry key `hosa`).
pub const HOSA: PolicyRef = &Policy {
    key: "hosa",
    label: "HOSA",
    aliases: &[],
    fingerprint_tag: 2,
    behavior: PolicyBehavior {
        mirror_allocation: true,
        own_slot_serialization: false,
        degraded_mode: false,
        matchup_recovery: false,
    },
    // HOSA's redundancy is fixed: exactly one extra copy of every message
    // via the second channel.
    copies: CopyPlan::OneEach,
};

/// Greedy best-effort retransmission: plans the FSPEC-style uniform copy
/// count but places the copies in stolen static slack like CoEfficient
/// (registry key `greedy`). On a fault-free goal both plans are empty, so
/// greedy and CoEfficient produce identical static-segment schedules —
/// they only diverge under faults, where greedy's undifferentiated plan
/// wastes slack on robust messages.
pub const GREEDY: PolicyRef = &Policy {
    key: "greedy",
    label: "Greedy",
    aliases: &[],
    fingerprint_tag: 3,
    behavior: PolicyBehavior::COEFFICIENT,
    copies: CopyPlan::UniformBestEffort,
};

/// Slack stealing without criticality differentiation: the cooperative
/// machinery of CoEfficient, but health-blind — no soft-traffic
/// shedding, no degraded-mode re-plan, no failover (registry key
/// `slack-steal`). Every arrival is admitted regardless of bus health.
pub const SLACK_STEAL: PolicyRef = &Policy {
    key: "slack-steal",
    label: "SlackSteal",
    aliases: &["slacksteal", "slack_steal"],
    fingerprint_tag: 4,
    behavior: PolicyBehavior {
        degraded_mode: false,
        ..PolicyBehavior::COEFFICIENT
    },
    copies: CopyPlan::Differentiated,
};

/// Mixed-criticality match-up scheduling (registry key `matchup`):
/// nominally identical to CoEfficient, but when the health monitor
/// signals a fault burst (`Stressed`/`Storm`) the free slack switches to
/// a *recovery schedule* — it serves only extra copies of undelivered
/// hard instances until the monitor reports `Nominal` again, at which
/// point the schedule has "matched up" with the nominal plan and
/// cooperative service resumes.
pub const MATCHUP: PolicyRef = &Policy {
    key: "matchup",
    label: "Matchup",
    aliases: &["match-up"],
    fingerprint_tag: 5,
    behavior: PolicyBehavior {
        matchup_recovery: true,
        ..PolicyBehavior::COEFFICIENT
    },
    copies: CopyPlan::Differentiated,
};

/// Every registered policy, legacy schemes first: the order fixes the
/// policy axis of the default sweep and golden matrices, so appending
/// here never renumbers an existing corpus column.
pub const ALL: &[PolicyRef] = &[COEFFICIENT, FSPEC, HOSA, GREEDY, SLACK_STEAL, MATCHUP];

/// Every registered policy (the registry in iteration order).
pub fn all() -> &'static [PolicyRef] {
    ALL
}

/// Resolves a policy by registry key, display label or alias.
///
/// # Errors
/// [`UnknownName`] — whose message lists the registered keys — if no
/// registered policy matches.
pub fn resolve(name: &str) -> Result<PolicyRef, UnknownName> {
    lookup(ALL, name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_five_policies_with_unique_identities() {
        assert!(ALL.len() >= 5, "the zoo must hold at least five policies");
        let mut keys: Vec<_> = ALL.iter().map(|p| p.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), ALL.len(), "registry keys must be unique");
        let mut tags: Vec<_> = ALL.iter().map(|p| p.fingerprint_tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), ALL.len(), "fingerprint tags must be unique");
    }

    #[test]
    fn legacy_fingerprint_tags_are_frozen() {
        // The golden corpus digests recorded before the registry existed
        // depend on these exact ordinals.
        assert_eq!(COEFFICIENT.fingerprint_tag(), 0);
        assert_eq!(FSPEC.fingerprint_tag(), 1);
        assert_eq!(HOSA.fingerprint_tag(), 2);
    }

    #[test]
    fn every_pair_of_behavior_flags_is_set_apart_and_together() {
        // A flag that equals or negates another on every registered
        // policy is a switch no policy uses: fold it into the other.
        let flags = |p: PolicyRef| {
            let PolicyBehavior {
                mirror_allocation,
                own_slot_serialization,
                degraded_mode,
                matchup_recovery,
            } = p.behavior();
            [
                ("mirror_allocation", mirror_allocation),
                ("own_slot_serialization", own_slot_serialization),
                ("degraded_mode", degraded_mode),
                ("matchup_recovery", matchup_recovery),
            ]
        };
        let rows: Vec<_> = ALL.iter().map(|&p| flags(p)).collect();
        for i in 0..rows[0].len() {
            for j in i + 1..rows[0].len() {
                let (a, b) = (rows[0][i].0, rows[0][j].0);
                let apart = rows.iter().any(|r| r[i].1 != r[j].1);
                let together = rows.iter().any(|r| r[i].1 == r[j].1);
                assert!(apart, "{a} equals {b} on every policy");
                assert!(together, "{a} negates {b} on every policy");
            }
        }
    }

    #[test]
    fn debug_rendering_matches_the_legacy_enum() {
        assert_eq!(format!("{COEFFICIENT:?}"), "CoEfficient");
        assert_eq!(format!("{FSPEC:?}"), "Fspec");
        assert_eq!(format!("{HOSA:?}"), "Hosa");
    }
}
