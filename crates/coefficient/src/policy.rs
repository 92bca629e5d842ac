//! The scheduler engine shared by every policy in the
//! [`crate::registry`] zoo.
//!
//! One [`Scheduler`] — a [`flexray::bus::TrafficSource`] driven
//! cycle-by-cycle by the bus engine — implements every registered
//! policy: the policy's [`crate::PolicyBehavior`] flag set selects which
//! mechanisms engage, and its retransmission plan supplies the copy
//! counts. For the legacy trio the flags reproduce the original schemes
//! exactly:
//!
//! | | FSPEC (baseline) | HOSA-like | CoEfficient |
//! |---|---|---|---|
//! | static primaries | slot on A + blanket mirror on B | same | slot on A only |
//! | retransmission | uniform best-effort copies of **every** message, serialized fresh-first through the message's own slots (CHI depth 3) | the B mirror only | differentiated `k_z` copies placed in **stolen static slack** (copies that fit nowhere are dropped and counted — the selective criterion) |
//! | idle static slots | stay idle (segments scheduled separately) | stay idle | serve backlogged dynamic messages and early copies of released static instances (cooperative scheduling) |
//! | dynamic messages | channel A, plus best-effort copies | both channels, one extra copy | channel chosen per message, plus differentiated copies |
//!
//! The newer zoo members recombine the same mechanisms: `greedy` runs
//! CoEfficient's machinery under a uniform best-effort plan,
//! `slack-steal` steals slack health-blind (no shedding, degraded mode
//! or failover), and `matchup` dedicates degraded-mode slack to a hard
//! recovery schedule until the health monitor reports nominal again.

use std::collections::{BTreeMap, HashMap, VecDeque};

#[cfg(test)]
use event_sim::SimDuration;
use event_sim::SimTime;
use flexray::bus::{OutboundPayload, TrafficSource, TransmissionOutcome};
use flexray::codec::{payload_bytes_for, FrameCoding, MAX_PAYLOAD_BYTES};
use flexray::config::ClusterConfig;
use flexray::schedule::MessageId;
use flexray::signal::Signal;
use flexray::ChannelId;
use observe::{EventKind, Tracer};
use reliability::monitor::HealthState;
use reliability::{MessageReliability, RetransmissionPlanner};
use workloads::{AperiodicMessage, Criticality};

use crate::assignment::{AllocationError, OccupantKind, SlotPosition, StaticAllocation};
use crate::instance::{InstanceId, InstanceTracker, MessageClass};
use crate::registry::{PolicyBehavior, PolicyRef};
use crate::scenario::Scenario;

/// Feature switches for the cooperative machinery, used by the ablation
/// experiments. The defaults enable everything (the full scheme). Only
/// policies whose [`PolicyBehavior::uses_options`] flag is set honour
/// them; the fixed baselines always run under the defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoefficientOptions {
    /// Send one early copy of a released static instance through free
    /// slack before its primary slot arrives.
    pub early_copies: bool,
    /// Serve the backlogged dynamic queue through idle static slots
    /// (cooperative scheduling of both segments).
    pub cooperative_dynamic: bool,
    /// Place stolen-slack copies on channel B as well as A (the
    /// dual-channel design of §III-D).
    pub dual_channel: bool,
}

impl Default for CoefficientOptions {
    fn default() -> Self {
        CoefficientOptions {
            early_copies: true,
            cooperative_dynamic: true,
            dual_channel: true,
        }
    }
}

/// FSPEC's per-message CHI backlog depth: a communication controller
/// buffers only this many staged instances; older ones are overwritten by
/// fresh data (and count as lost if they were never delivered).
const FSPEC_QUEUE_DEPTH: usize = 3;

/// Namespace offset separating dynamic-message tracker ids from static
/// signal ids (a dynamic frame id `f` is tracked as `DYN_NS + f`).
const DYN_NS: u32 = 0x0001_0000;

/// Tracker id of a dynamic message.
fn dyn_key(frame_id: u16) -> u32 {
    DYN_NS + u32::from(frame_id)
}

/// Opportunistic copies (early, degraded and failover together) one
/// static instance may spend before failover stops re-hosting it; one step
/// above the `Storm` degraded-copy budget of 3.
const FAILOVER_BUDGET: u32 = 4;

#[derive(Debug, Clone)]
struct StaticInfo {
    signal: Signal,
    payload_bytes: u16,
    wire_bits: u64,
    /// CoEfficient: copies per instance that found no static slack and go
    /// through the dynamic segment. FSPEC: its uniform best-effort count.
    dynamic_copies: u32,
    /// The message's primary slot pattern; production derives each
    /// window's `early_end` from it.
    primary: SlotPosition,
    /// Release windows of the message's recent instances, oldest first.
    /// Production prunes windows that closed before its cycle began, so
    /// the ring never outgrows the capacity reserved at construction.
    windows: VecDeque<ReleaseWindow>,
    /// FSPEC: the instances awaiting their transmissions through the
    /// message's *own* slot pattern, with the transmissions each still
    /// owes. Because FSPEC schedules the segments separately,
    /// retransmission copies can only ride the pre-defined schedule —
    /// fresh instances queue behind the copies of older ones, which is
    /// exactly the serialization the paper blames for FSPEC's running
    /// time and latency.
    fspec_queue: VecDeque<(InstanceId, u32)>,
}

impl StaticInfo {
    /// The window containing `t`: the newest instance released at or
    /// before `t`, if its window is still open.
    fn window_at(&self, t: SimTime) -> Option<ReleaseWindow> {
        self.windows
            .iter()
            .rev()
            .find(|w| w.start <= t)
            .filter(|w| t < w.window_end)
            .copied()
    }
}

/// The generation window of one released static instance. The runner
/// releases each message strictly periodically, so its windows never
/// overlap; a caller producing off the period may overlap them.
#[derive(Debug, Clone, Copy)]
struct ReleaseWindow {
    instance: InstanceId,
    /// Release instant.
    start: SimTime,
    /// `start + period`: stale instances are not transmitted (this is what
    /// drains the static side once production stops).
    window_end: SimTime,
    /// `min(window_end, first primary occurrence ≥ start)`: an early copy
    /// may ride free slack only while the primary is still ahead.
    early_end: SimTime,
    deadline: SimTime,
}

/// Release windows of one bus cycle as `(statics index, window)`, sorted
/// by `(deadline, message)`. Built at the cycle's first query; production
/// discards them, and the runner produces only between cycles, so that is
/// once per cycle. They cannot be consumed in time order: the bus serves
/// all of channel A's static slots before channel B's, so `slot_start`
/// restarts within a cycle. Each query instead walks the list for the
/// first window that contains the slot and is still eligible, removing
/// windows that never will be again.
#[derive(Debug)]
struct CycleWindows {
    /// The cycle `windows` was built for; `None` after production.
    cycle: Option<u64>,
    windows: Vec<(usize, ReleaseWindow)>,
}

impl CycleWindows {
    fn with_capacity(capacity: usize) -> Self {
        CycleWindows {
            cycle: None,
            windows: Vec::with_capacity(capacity),
        }
    }

    /// Sorts the windows gathered for `cycle` and marks the list built.
    fn seal(&mut self, cycle: u64) {
        // `statics` is in id order, so the index breaks deadline ties
        // towards the lowest message id.
        self.windows
            .sort_unstable_by_key(|&(index, w)| (w.deadline, index));
        self.cycle = Some(cycle);
    }
}

#[derive(Debug, Clone)]
struct DynInfo {
    spec: AperiodicMessage,
    payload_bytes: u16,
    /// Wire bits of this payload under *static-slot* coding (no DTS) —
    /// what the slack-steal fit check compares against the slot capacity.
    /// Precomputed so the steal scan is a plain integer compare per entry.
    static_wire_bits: u64,
    /// Extra transmissions per instance (beyond the first).
    copies: u32,
    /// Preferred channel of the first transmission.
    home_channel: ChannelId,
}

#[derive(Debug, Clone)]
struct DynPending {
    frame_id: u16,
    instance: InstanceId,
    payload_bytes: u16,
    /// Static-slot wire bits of the payload (see
    /// [`DynInfo::static_wire_bits`]), carried into the queue entry.
    static_wire_bits: u64,
    /// Entries older than this are purged: retransmitting data a full
    /// generation past its deadline serves nobody, and unreachable frame
    /// ids (dynamic ids the slot counter can never reach within the
    /// minislot budget) would otherwise pile up forever.
    expires: SimTime,
}

/// A scheduler for one policy over one workload; drives the bus engine as
/// its [`TrafficSource`]. Construct via [`Scheduler::new`], produce
/// instances with [`produce_static`](Self::produce_static) /
/// [`produce_dynamic`](Self::produce_dynamic) (the [`crate::Runner`] does
/// this), and read results from [`tracker`](Self::tracker).
#[derive(Debug)]
pub struct Scheduler {
    policy: PolicyRef,
    /// The policy's mechanism switchboard, cached at construction.
    behavior: PolicyBehavior,
    options: CoefficientOptions,
    config: ClusterConfig,
    alloc: StaticAllocation,
    /// In message-id order, so scans are deterministic: ties on deadline
    /// resolve to the lowest message id.
    statics: Vec<StaticInfo>,
    dynamics: HashMap<u16, DynInfo>,
    tracker: InstanceTracker,
    /// Per-channel dynamic queues, sorted by (frame id, seq).
    queues: [Vec<(u64, DynPending)>; 2],
    next_seq: u64,
    /// In-flight instance ids, consumed by `on_outcome` in staging order.
    in_flight: std::collections::VecDeque<InstanceId>,
    /// CoEfficient: planned copies that found no fitting slack and were
    /// dropped (the selective criterion: a copy only exists where slack
    /// fits it). Reported for reliability accounting.
    dropped_copies: u64,
    /// Bits a static slot carries, from the cluster configuration.
    slot_capacity_bits: u64,
    /// `statics` index of each static message, by its position in the
    /// workload slice (the allocation's [`Occupant::index`]), so an
    /// occupied slot reaches its message without a search.
    ///
    /// [`Occupant::index`]: crate::assignment::Occupant::index
    occupant_statics: Vec<usize>,
    /// Early-copy candidates: every release window that overlaps the
    /// cycle, has a non-empty early range, has spent no opportunistic copy
    /// and fits a static slot.
    early_candidates: CycleWindows,
    /// Degraded-copy and failover candidates: every release window of an
    /// undelivered instance, under the failover budget, whose frame fits
    /// a static slot and which is still current and before its deadline
    /// somewhere in the cycle. Each window's `window_end` is clipped to
    /// the next release of its message, where it stops being current.
    hard_candidates: CycleWindows,
    /// FSPEC: channel transmissions each static instance needs
    /// (1 primary + the uniform best-effort copy count; A and B mirrors
    /// each count as one transmission).
    fspec_tx_needed: u32,
    /// Statistics: dynamic-segment transmissions that were retransmission
    /// copies (not primaries).
    copy_transmissions: u64,
    /// Statistics: dynamic messages served through stolen static slots.
    cooperative_static_serves: u64,
    /// Statistics: early static copies sent through free slack.
    early_copies_sent: u64,
    /// Statistics: free static positions offered while dynamic backlog
    /// was pending (each such offer is a steal attempt; it is granted
    /// when an entry fits the slot, denied otherwise).
    steal_attempts: u64,
    /// Statistics: steal attempts where no backlogged entry fit the
    /// static slot capacity.
    steal_denied: u64,
    /// Effective bus health (set by the runner from its reliability
    /// monitors before each cycle). Only CoEfficient acts on it; the
    /// baselines have no degraded mode.
    health: HealthState,
    /// Per-channel health ([A, B]) driving dual-channel failover.
    channel_health: [HealthState; 2],
    /// Degraded mode: soft dynamic instances shed (produced and tracked,
    /// but refused admission to the transmit queues).
    soft_shed: u64,
    /// Degraded mode: extra hard-message retransmission copies sent
    /// through slack freed by shedding (beyond the Theorem-1 plan and the
    /// single nominal early copy).
    degraded_extra_copies: u64,
    /// Failover: hard frames mirrored into their slot on the healthy
    /// channel while the owning channel was in `Storm`.
    failover_mirrors: u64,
    /// Structured event tracer (disabled by default; see
    /// [`set_tracer`](Self::set_tracer)).
    tracer: Tracer,
}

/// Errors constructing a [`Scheduler`].
#[derive(Debug)]
pub enum SchedulerError {
    /// Static allocation failed.
    Allocation(AllocationError),
    /// A dynamic frame id is not above the static slot range.
    DynamicIdInStaticRange(u16),
    /// A message needs more payload bytes than one FlexRay frame carries
    /// ([`MAX_PAYLOAD_BYTES`]).
    PayloadTooLarge {
        /// `true` for a dynamic frame id, `false` for a static signal id.
        dynamic: bool,
        /// The static signal id or dynamic frame id.
        id: u32,
        /// Payload bytes the message needs.
        bytes: u64,
    },
}

impl std::fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerError::Allocation(e) => write!(f, "static allocation failed: {e}"),
            SchedulerError::DynamicIdInStaticRange(id) => {
                write!(f, "dynamic frame id {id} lies inside the static slot range")
            }
            SchedulerError::PayloadTooLarge { dynamic, id, bytes } => {
                let kind = if *dynamic {
                    "dynamic frame"
                } else {
                    "static message"
                };
                write!(
                    f,
                    "{kind} {id} needs {bytes} payload bytes, above FlexRay's {MAX_PAYLOAD_BYTES}"
                )
            }
        }
    }
}

impl std::error::Error for SchedulerError {}

impl From<AllocationError> for SchedulerError {
    fn from(e: AllocationError) -> Self {
        SchedulerError::Allocation(e)
    }
}

impl Scheduler {
    /// Builds the scheduler with default [`CoefficientOptions`]: computes
    /// the retransmission plan for the scenario's reliability goal and
    /// lays out the static allocation.
    ///
    /// # Errors
    /// [`SchedulerError`] on allocation failure, id-space collisions or a
    /// payload above FlexRay's 254 bytes.
    pub fn new(
        policy: PolicyRef,
        config: ClusterConfig,
        coding: FrameCoding,
        scenario: &Scenario,
        static_messages: &[Signal],
        dynamic_messages: &[AperiodicMessage],
    ) -> Result<Self, SchedulerError> {
        Self::new_with_options(
            policy,
            config,
            coding,
            scenario,
            static_messages,
            dynamic_messages,
            CoefficientOptions::default(),
        )
    }

    /// Like [`Scheduler::new`] with explicit feature switches (used by the
    /// ablation experiments; the options only affect policies whose
    /// [`PolicyBehavior::uses_options`] flag is set — for the fixed
    /// baselines they are pinned to the defaults).
    ///
    /// # Errors
    /// [`SchedulerError`] on allocation failure, id-space collisions or a
    /// payload above FlexRay's 254 bytes.
    #[allow(clippy::too_many_arguments)]
    pub fn new_with_options(
        policy: PolicyRef,
        config: ClusterConfig,
        coding: FrameCoding,
        scenario: &Scenario,
        static_messages: &[Signal],
        dynamic_messages: &[AperiodicMessage],
        options: CoefficientOptions,
    ) -> Result<Self, SchedulerError> {
        let behavior = policy.behavior();
        // Baselines with a fixed scheme ignore the ablation switches.
        let options = if behavior.uses_options {
            options
        } else {
            CoefficientOptions::default()
        };
        // --- id space checks -------------------------------------------------
        let slots = config.static_slot_count() as u16;
        for d in dynamic_messages {
            if d.frame_id <= slots {
                return Err(SchedulerError::DynamicIdInStaticRange(d.frame_id));
            }
        }
        let sizes = static_messages
            .iter()
            .map(|s| (false, s.id, s.size_bits))
            .chain(
                dynamic_messages
                    .iter()
                    .map(|d| (true, u32::from(d.frame_id), d.size_bits)),
            );
        for (dynamic, id, bits) in sizes {
            let bytes = payload_bytes_for(u64::from(bits));
            if bytes > MAX_PAYLOAD_BYTES {
                return Err(SchedulerError::PayloadTooLarge { dynamic, id, bytes });
            }
        }

        // --- reliability plan ------------------------------------------------
        // p_z is computed over the on-wire frame length: that is what the
        // fault injector corrupts.
        let mut rel: Vec<MessageReliability> = Vec::new();
        for s in static_messages {
            let wire = coding.message_wire_bits(u64::from(s.size_bits), false) as u32;
            rel.push(MessageReliability::from_ber(
                s.id,
                wire,
                s.period,
                scenario.ber,
            ));
        }
        for d in dynamic_messages {
            let wire = coding.message_wire_bits(u64::from(d.size_bits), true) as u32;
            rel.push(MessageReliability::from_ber(
                dyn_key(d.frame_id),
                wire,
                d.min_interarrival,
                scenario.ber,
            ));
        }
        let planner = RetransmissionPlanner::new(rel).unit(scenario.unit);
        let goal = scenario.reliability_goal();

        // Per-message copy counts come from the policy's plan.
        let counts: Vec<(MessageId, u32)> = policy.plan_copies(&planner, goal);
        let count_of = |id: u32| -> u32 {
            counts
                .iter()
                .find(|(m, _)| *m == id)
                .map(|&(_, k)| k)
                .unwrap_or(0)
        };

        // --- static allocation -----------------------------------------------
        let alloc = if behavior.mirror_allocation {
            // Mirror schemes blanket-mirror every primary on channel B and
            // steal no slack.
            StaticAllocation::build(&config, &coding, static_messages, &[], true)?
        } else {
            let static_counts: Vec<(MessageId, u32)> = static_messages
                .iter()
                .map(|s| (s.id, count_of(s.id)))
                .collect();
            StaticAllocation::build_with_channels(
                &config,
                &coding,
                static_messages,
                &static_counts,
                false,
                options.dual_channel,
            )?
        };

        // --- message info maps -----------------------------------------------
        // FSPEC pushes every static copy through the message's own slot
        // pattern (separate scheduling); its per-instance transmission
        // demand is 1 primary + the uniform copy count, while its
        // dynamic-queue copy count for statics is zero.
        let fspec_k = counts.first().map(|&(_, k)| k).unwrap_or(0);
        let fspec_tx_needed = 1 + fspec_k;

        // Release windows of one message overlap a cycle at most
        // ceil(cycle / period) + 1 at a time (see `produce_static`).
        let cycle_ns = config.cycle_duration().as_nanos();
        let mut statics = BTreeMap::new();
        for s in static_messages {
            let wire = coding.message_wire_bits(u64::from(s.size_bits), true);
            let spilled = if behavior.mirror_allocation {
                0
            } else {
                alloc
                    .spill()
                    .iter()
                    .find(|(m, _)| *m == s.id)
                    .map(|&(_, k)| k)
                    .unwrap_or(0)
            };
            statics.insert(
                s.id,
                StaticInfo {
                    signal: s.clone(),
                    payload_bytes: payload_bytes_for(u64::from(s.size_bits)) as u16,
                    wire_bits: wire,
                    dynamic_copies: spilled,
                    primary: alloc
                        .primary_of(s.id)
                        .expect("the allocation places every primary"),
                    windows: VecDeque::with_capacity(
                        cycle_ns.div_ceil(s.period.as_nanos()) as usize + 1,
                    ),
                    fspec_queue: VecDeque::with_capacity(FSPEC_QUEUE_DEPTH + 1),
                },
            );
        }
        let statics: Vec<StaticInfo> = statics.into_values().collect();
        let window_capacity = statics.iter().map(|s| s.windows.capacity()).sum();
        let slot_capacity_bits = config.static_slot_capacity_bits();
        let occupant_statics = static_messages
            .iter()
            .map(|m| {
                statics
                    .binary_search_by_key(&m.id, |s| s.signal.id)
                    .expect("every static message has an entry")
            })
            .collect();

        let mut dynamics = HashMap::new();
        for (i, d) in dynamic_messages.iter().enumerate() {
            // Dual-channel schemes balance first transmissions across the
            // two channels (unless the ablation disables B).
            let home_channel = if behavior.balance_dynamic_channels && options.dual_channel {
                if i % 2 == 0 {
                    ChannelId::A
                } else {
                    ChannelId::B
                }
            } else {
                ChannelId::A
            };
            let payload_bytes = payload_bytes_for(u64::from(d.size_bits)) as u16;
            dynamics.insert(
                d.frame_id,
                DynInfo {
                    spec: d.clone(),
                    payload_bytes,
                    // Static-slot coding has no DTS, so the steal fit check
                    // always uses the default coding's static wire length.
                    static_wire_bits: FrameCoding.frame_wire_bits(u64::from(payload_bytes), false),
                    copies: count_of(dyn_key(d.frame_id)),
                    home_channel,
                },
            );
        }

        Ok(Scheduler {
            policy,
            behavior,
            options,
            config,
            alloc,
            statics,
            dynamics,
            tracker: InstanceTracker::new(),
            // Pre-sized so the steady-state cycle loop never grows them:
            // the dynamic backlog is bounded by the purge window and the
            // in-flight staging depth is one slot deep in practice.
            queues: [Vec::with_capacity(64), Vec::with_capacity(64)],
            next_seq: 0,
            in_flight: std::collections::VecDeque::with_capacity(8),
            dropped_copies: 0,
            slot_capacity_bits,
            occupant_statics,
            early_candidates: CycleWindows::with_capacity(window_capacity),
            hard_candidates: CycleWindows::with_capacity(window_capacity),
            fspec_tx_needed,
            copy_transmissions: 0,
            cooperative_static_serves: 0,
            early_copies_sent: 0,
            steal_attempts: 0,
            steal_denied: 0,
            health: HealthState::Nominal,
            channel_health: [HealthState::Nominal; 2],
            soft_shed: 0,
            degraded_extra_copies: 0,
            failover_mirrors: 0,
            tracer: Tracer::disabled(),
        })
    }

    /// Attaches a structured event tracer. The scheduler emits steal
    /// grants/denials, early and retransmission copies, degraded-mode
    /// shedding and failover mirrors through it. Tracing observes — it
    /// never changes a scheduling decision.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The policy this scheduler runs.
    pub fn policy(&self) -> PolicyRef {
        self.policy
    }

    /// The mechanism switchboard the scheduler runs under (the policy's
    /// [`PolicyBehavior`], cached at construction).
    pub fn behavior(&self) -> PolicyBehavior {
        self.behavior
    }

    /// The static allocation (read-only).
    pub fn allocation(&self) -> &StaticAllocation {
        &self.alloc
    }

    /// The instance tracker with all production/delivery records.
    pub fn tracker(&self) -> &InstanceTracker {
        &self.tracker
    }

    /// Dynamic messages served through stolen static slots (CoEfficient's
    /// cooperative scheduling).
    pub fn cooperative_static_serves(&self) -> u64 {
        self.cooperative_static_serves
    }

    /// Early static copies sent through free slack.
    pub fn early_copies_sent(&self) -> u64 {
        self.early_copies_sent
    }

    /// Retransmission copies actually transmitted.
    pub fn copy_transmissions(&self) -> u64 {
        self.copy_transmissions
    }

    /// CoEfficient: planned copies dropped for lack of fitting slack.
    pub fn dropped_copies(&self) -> u64 {
        self.dropped_copies
    }

    /// Free static positions offered to the dynamic backlog (slack-steal
    /// attempts). `steal_attempts == cooperative_static_serves +
    /// steal_denied` by construction.
    pub fn steal_attempts(&self) -> u64 {
        self.steal_attempts
    }

    /// Steal attempts where no backlogged entry fit the slot.
    pub fn steal_denied(&self) -> u64 {
        self.steal_denied
    }

    /// Updates the health states the degraded-mode logic acts on: the
    /// effective bus health plus the per-channel classifications
    /// (`[A, B]`). The [`crate::Runner`] calls this once per cycle from
    /// its reliability monitors; only policies with health-driven
    /// behaviour flags (shedding, degraded copies, failover, match-up
    /// recovery) change behaviour in response.
    pub fn set_health(&mut self, overall: HealthState, per_channel: [HealthState; 2]) {
        self.health = overall;
        self.channel_health = per_channel;
    }

    /// The effective bus health last supplied via
    /// [`set_health`](Self::set_health).
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// Soft dynamic instances shed by the degraded mode (produced but
    /// never enqueued; they count as losses in the tracker).
    pub fn soft_shed(&self) -> u64 {
        self.soft_shed
    }

    /// Extra hard-message copies sent while degraded, beyond the
    /// Theorem-1 plan and the nominal early copy.
    pub fn degraded_extra_copies(&self) -> u64 {
        self.degraded_extra_copies
    }

    /// Hard frames mirrored to the healthy channel during a channel
    /// storm.
    pub fn failover_mirrors(&self) -> u64 {
        self.failover_mirrors
    }

    /// The scheduler's steal/early-copy decisions as the shared
    /// [`tasks::ScheduleCounters`] record (preemptions stay zero: FlexRay
    /// slots are non-preemptive).
    pub fn schedule_counters(&self) -> tasks::ScheduleCounters {
        tasks::ScheduleCounters {
            preemptions: 0,
            steal_attempts: self.steal_attempts,
            steal_granted: self.cooperative_static_serves,
            steal_denied: self.steal_denied,
            early_copies: self.early_copies_sent,
            degraded_sheds: self.soft_shed,
        }
    }

    /// Total backlogged dynamic-segment entries across both channels.
    pub fn dynamic_backlog(&self) -> usize {
        self.queues[0].len() + self.queues[1].len()
    }

    /// Pre-reserves tracker capacity for `instances` productions, so the
    /// steady-state cycle loop never grows the instance store. The
    /// [`crate::Runner`] sizes this from its stop condition.
    pub fn reserve_instances(&mut self, instances: usize) {
        self.tracker.reserve(instances);
    }

    /// Bytes currently committed to the scheduler's reusable scratch
    /// buffers (dynamic queues, in-flight staging, FSPEC slot queues, the
    /// per-cycle candidate lists) —
    /// capacity, not length, so it reports the high-water footprint the
    /// allocation-free cycle loop runs in. The `bench cycles` harness
    /// records this per policy.
    pub fn scratch_bytes(&self) -> u64 {
        use std::mem::size_of;
        let queues: usize = self
            .queues
            .iter()
            .map(|q| q.capacity() * size_of::<(u64, DynPending)>())
            .sum();
        let in_flight = self.in_flight.capacity() * size_of::<InstanceId>();
        let fspec: usize = self
            .statics
            .iter()
            .map(|s| s.fspec_queue.capacity() * size_of::<(InstanceId, u32)>())
            .sum();
        let candidates = (self.early_candidates.windows.capacity()
            + self.hard_candidates.windows.capacity())
            * size_of::<(usize, ReleaseWindow)>();
        (queues + in_flight + fspec + candidates) as u64
    }

    /// All pending transmission work: the dynamic backlog plus (for FSPEC)
    /// static instances still owing transmissions through their slots.
    /// A run has drained when this reaches zero after production ends.
    pub fn pending_work(&self) -> usize {
        self.dynamic_backlog()
            + self
                .statics
                .iter()
                .map(|s| s.fspec_queue.len())
                .sum::<usize>()
    }

    /// Registers a newly produced static message instance. The paper's
    /// model: hard-deadline periodic task release.
    ///
    /// # Panics
    /// Panics if `message` is not a configured static message.
    pub fn produce_static(&mut self, message: MessageId, now: SimTime) -> InstanceId {
        let index = self.static_index(message);
        let info = &self.statics[index];
        let deadline = now + info.signal.deadline;
        let window_end = now + info.signal.period;
        let primary = info.primary;
        let copies = info.dynamic_copies;
        let instance = self
            .tracker
            .produce(message, MessageClass::Static, now, deadline);
        let next_primary = next_occurrence_at_or_after(
            &self.config,
            primary.slot,
            primary.base_cycle,
            primary.repetition,
            now,
        );
        // Windows that closed before this cycle began can contain no slot
        // the bus will still offer. The survivors start after
        // `cycle_start - period` and before the cycle ends, which bounds
        // the ring at ceil(cycle / period) + 1 windows.
        let cycle_start = self.config.cycle_start(self.config.cycle_of(now));
        let windows = &mut self.statics[index].windows;
        while windows.front().is_some_and(|w| w.window_end <= cycle_start) {
            windows.pop_front();
        }
        windows.push_back(ReleaseWindow {
            instance,
            start: now,
            window_end,
            early_end: window_end.min(next_primary),
            deadline,
        });
        self.early_candidates.cycle = None;
        self.hard_candidates.cycle = None;
        if self.behavior.own_slot_serialization {
            // All transmissions (primary + best-effort copies) are
            // serialized through the message's own slot pattern; the
            // CHI buffers only FSPEC_QUEUE_DEPTH instances, so a
            // congested queue overwrites its oldest staging.
            let q = &mut self.statics[index].fspec_queue;
            if q.len() >= FSPEC_QUEUE_DEPTH {
                q.pop_front();
            }
            q.push_back((instance, self.fspec_tx_needed));
        } else {
            // Planned copies that found no fitting static slack are
            // dropped: the selective criterion only steals slack whose
            // length fits the segment (§III-F). The reliability plan
            // degrades gracefully; the drop count is reported. (For
            // mirror schemes the spill is zero by construction — their
            // static redundancy is already in the allocation.)
            self.dropped_copies += u64::from(copies);
        }
        instance
    }

    /// Position of `message` in `statics`.
    ///
    /// # Panics
    /// Panics if `message` is not a configured static message.
    fn static_index(&self, message: MessageId) -> usize {
        self.statics
            .binary_search_by_key(&message, |s| s.signal.id)
            .expect("unknown static message")
    }

    /// Registers a newly produced dynamic message instance (soft aperiodic
    /// arrival) and enqueues its transmissions.
    ///
    /// # Panics
    /// Panics if `frame_id` is not a configured dynamic message.
    pub fn produce_dynamic(&mut self, frame_id: u16, now: SimTime) -> InstanceId {
        let info = self
            .dynamics
            .get(&frame_id)
            .expect("unknown dynamic message");
        let deadline = now + info.spec.deadline;
        let expires = deadline + info.spec.min_interarrival;
        let (copies, home, payload) = (info.copies, info.home_channel, info.payload_bytes);
        let static_wire_bits = info.static_wire_bits;
        let criticality = info.spec.criticality;
        let instance =
            self.tracker
                .produce(dyn_key(frame_id), MessageClass::Dynamic, now, deadline);
        // Degraded mode (criticality-shedding policies only): shed soft
        // traffic by criticality — `Stressed` drops the lowest class,
        // `Storm` keeps only the highest. The instance stays tracked (a
        // shed arrival is a miss the metrics must see); nominal service
        // resumes automatically once the monitor recovers, because
        // admission is re-evaluated per arrival.
        if self.behavior.criticality_shedding {
            let kept_floor = match self.health {
                HealthState::Nominal => None,
                HealthState::Stressed => Some(Criticality::Medium),
                HealthState::Storm => Some(Criticality::High),
            };
            if let Some(floor) = kept_floor {
                if criticality < floor {
                    self.soft_shed += 1;
                    if self.tracer.is_enabled() {
                        self.tracer.emit(
                            now,
                            EventKind::SoftShed {
                                frame_id: u64::from(frame_id),
                                criticality: criticality as u8,
                            },
                        );
                    }
                    return instance;
                }
            }
        }
        // First transmission on the home channel, copies alternating from
        // the other one.
        self.enqueue_dynamic(
            home,
            DynPending {
                frame_id,
                instance,
                payload_bytes: payload,
                static_wire_bits,
                expires,
            },
        );
        for c in 0..copies {
            let channel = if c % 2 == 0 { home.other() } else { home };
            self.enqueue_dynamic(
                channel,
                DynPending {
                    frame_id,
                    instance,
                    payload_bytes: payload,
                    static_wire_bits,
                    expires,
                },
            );
        }
        instance
    }

    /// Drops queued dynamic entries whose usefulness window has passed
    /// (one full generation beyond the deadline). The [`crate::Runner`]
    /// calls this at each cycle start; undelivered purged instances count
    /// as deadline misses in the final accounting.
    pub fn purge_expired(&mut self, now: SimTime) {
        for q in &mut self.queues {
            q.retain(|(_, e)| e.expires > now);
        }
    }

    fn enqueue_dynamic(&mut self, channel: ChannelId, p: DynPending) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let q = &mut self.queues[channel.index()];
        let pos = q
            .iter()
            .position(|(_, e)| e.frame_id > p.frame_id)
            .unwrap_or(q.len());
        q.insert(pos, (seq, p));
    }

    /// CoEfficient's cooperative use of a free static position: first a
    /// backlogged dynamic entry that fits, then an early copy of a released
    /// static instance whose primary occurrence is still ahead.
    fn cooperative_fill(
        &mut self,
        cycle: u64,
        slot: u16,
        channel: ChannelId,
        slot_start: SimTime,
    ) -> Option<OutboundPayload> {
        if !self.options.dual_channel && channel == ChannelId::B {
            return None; // single-channel ablation leaves B untouched
        }
        // 0. Degraded mode: the slack freed by shedding soft traffic is
        // re-planned into extra copies of hard messages — undelivered
        // static instances get retransmitted ahead of any dynamic backlog
        // (the online counterpart of the offline Theorem-1 plan).
        if self.behavior.degraded_hard_copies
            && self.health.is_degraded()
            && self.options.early_copies
        {
            if let Some(payload) = self.degraded_hard_copy(cycle, slot_start) {
                if self.tracer.is_enabled() {
                    self.tracer.emit(
                        slot_start,
                        EventKind::DegradedCopy {
                            channel: channel.index() as u8,
                            slot: u64::from(slot),
                            frame_id: u64::from(payload.message),
                        },
                    );
                }
                return Some(payload);
            }
        }
        // Match-up recovery: while the bus is degraded, free slack serves
        // *only* the hard recovery schedule above — no dynamic steals, no
        // nominal early copies — until the health monitor reports the
        // schedule has matched up with the nominal plan again.
        if self.behavior.matchup_recovery && self.health.is_degraded() {
            return None;
        }
        // 1. Serve the dynamic backlog (lowest frame id first). A free
        // position offered while backlog is pending is a steal attempt:
        // granted if an entry fits the slot, denied otherwise.
        if self.options.cooperative_dynamic && !self.queues[channel.index()].is_empty() {
            self.steal_attempts += 1;
            let q = &mut self.queues[channel.index()];
            // The static-coding fit size is precomputed per message (see
            // `DynInfo::static_wire_bits`), so this scan is compare-only.
            let capacity = self.slot_capacity_bits;
            if let Some(pos) = q.iter().position(|(_, e)| e.static_wire_bits <= capacity) {
                let (_, entry) = q.remove(pos);
                self.cooperative_static_serves += 1;
                let inst = self.tracker.get(entry.instance);
                self.in_flight.push_back(entry.instance);
                if self.tracer.is_enabled() {
                    self.tracer.emit(
                        slot_start,
                        EventKind::StealGranted {
                            channel: channel.index() as u8,
                            slot: u64::from(slot),
                            frame_id: u64::from(inst.message),
                        },
                    );
                }
                return Some(OutboundPayload {
                    message: inst.message,
                    payload_bytes: entry.payload_bytes,
                    produced_at: inst.produced_at,
                });
            }
            self.steal_denied += 1;
            if self.tracer.is_enabled() {
                self.tracer.emit(
                    slot_start,
                    EventKind::StealDenied {
                        channel: channel.index() as u8,
                        slot: u64::from(slot),
                    },
                );
            }
        }
        if !self.options.early_copies {
            return None;
        }
        // 2. Early copy: a static instance released but with its primary
        // occurrence still ahead.
        let (index, w) = self.early_copy_candidate(cycle, slot_start)?;
        self.early_copies_sent += 1;
        let payload = self.stage_copy(index, w);
        if self.tracer.is_enabled() {
            self.tracer.emit(
                slot_start,
                EventKind::EarlyCopy {
                    channel: channel.index() as u8,
                    slot: u64::from(slot),
                    frame_id: u64::from(payload.message),
                },
            );
        }
        Some(payload)
    }

    /// The most urgent instance an early copy at `slot_start` may carry:
    /// released at or before the slot, primary still ahead, no early copy
    /// spent yet, lowest `(deadline, message id)`.
    fn early_copy_candidate(
        &mut self,
        cycle: u64,
        slot_start: SimTime,
    ) -> Option<(usize, ReleaseWindow)> {
        if self.early_candidates.cycle != Some(cycle) {
            self.build_early_candidates(cycle);
        }
        let list = &mut self.early_candidates.windows;
        let mut i = 0;
        while let Some(&(index, w)) = list.get(i) {
            if w.start <= slot_start && slot_start < w.early_end {
                if self.tracker.get(w.instance).early_copies == 0 {
                    return Some((index, w));
                }
                // Spent: by an early copy, or by a degraded or failover
                // copy, which draw on the same per-instance budget.
                list.remove(i);
            } else {
                i += 1;
            }
        }
        None
    }

    /// The most urgent undelivered static instance one more copy at
    /// `slot_start` can still save: its message's current window contains
    /// the slot, its deadline is ahead, it has spent fewer than `budget`
    /// opportunistic copies and it fits a static slot. Ties on deadline go
    /// to the lowest message id. Returns the message's `statics` index and
    /// the window.
    fn hard_copy_candidate(
        &mut self,
        cycle: u64,
        slot_start: SimTime,
        budget: u32,
    ) -> Option<(usize, ReleaseWindow)> {
        if self.hard_candidates.cycle != Some(cycle) {
            self.build_hard_candidates(cycle);
        }
        let list = &mut self.hard_candidates.windows;
        let mut i = 0;
        while let Some(&(index, w)) = list.get(i) {
            if w.start <= slot_start && slot_start < w.window_end && slot_start < w.deadline {
                let inst = self.tracker.get(w.instance);
                if inst.is_delivered() || inst.early_copies >= FAILOVER_BUDGET {
                    // No budget this cycle asks for will pick it again.
                    list.remove(i);
                    continue;
                }
                if inst.early_copies < budget {
                    return Some((index, w));
                }
            }
            i += 1;
        }
        None
    }

    fn build_early_candidates(&mut self, cycle: u64) {
        let from = self.config.cycle_start(cycle);
        let to = self.config.cycle_start(cycle + 1);
        let list = &mut self.early_candidates;
        list.windows.clear();
        for (index, info) in self.statics.iter().enumerate() {
            if info.wire_bits > self.slot_capacity_bits {
                continue;
            }
            for &w in &info.windows {
                if w.start < to.min(w.early_end)
                    && from < w.early_end
                    && self.tracker.get(w.instance).early_copies == 0
                {
                    list.windows.push((index, w));
                }
            }
        }
        list.seal(cycle);
    }

    fn build_hard_candidates(&mut self, cycle: u64) {
        let from = self.config.cycle_start(cycle);
        let to = self.config.cycle_start(cycle + 1);
        let list = &mut self.hard_candidates;
        list.windows.clear();
        for (index, info) in self.statics.iter().enumerate() {
            if info.wire_bits > self.slot_capacity_bits {
                continue;
            }
            for (k, &w) in info.windows.iter().enumerate() {
                // A later release replaces this window as the message's
                // current one from its own start on.
                let until = info
                    .windows
                    .range(k + 1..)
                    .fold(w.window_end, |end, next| end.min(next.start));
                let inst = self.tracker.get(w.instance);
                if w.start < to
                    && from < until.min(w.deadline)
                    && !inst.is_delivered()
                    && inst.early_copies < FAILOVER_BUDGET
                {
                    let current = ReleaseWindow {
                        window_end: until,
                        ..w
                    };
                    list.windows.push((index, current));
                }
            }
        }
        list.seal(cycle);
    }

    /// Degraded-mode online re-plan: one more copy of the most urgent
    /// undelivered static instance through this free position. The
    /// per-instance opportunistic budget (`early_copies`) rises from the
    /// nominal 1 to 2 (`Stressed`) or 3 (`Storm`), and — unlike the
    /// nominal early copy — the primary may already have fired and been
    /// corrupted: a burst eating the planned copies is exactly the case
    /// the offline Theorem-1 plan cannot cover.
    fn degraded_hard_copy(&mut self, cycle: u64, slot_start: SimTime) -> Option<OutboundPayload> {
        let budget = match self.health {
            HealthState::Nominal => return None,
            HealthState::Stressed => 2,
            HealthState::Storm => 3,
        };
        let (index, w) = self.hard_copy_candidate(cycle, slot_start, budget)?;
        self.degraded_extra_copies += 1;
        self.copy_transmissions += 1;
        Some(self.stage_copy(index, w))
    }

    /// Dual-channel failover: when the *other* channel is degraded and
    /// strictly sicker than this one, this channel is the only one whose
    /// transmissions can be trusted — the sick channel's share of an
    /// instance's protection (its primary, or its planned copies) is
    /// effectively stranded in the burst. A free position here therefore
    /// re-hosts the most urgent undelivered hard instance, ahead of any
    /// planned occurrence still scheduled on the storming channel. The
    /// per-instance budget is [`FAILOVER_BUDGET`], so a failover
    /// retransmission is available even after the degraded re-plan spent
    /// its allowance.
    fn failover_mirror(
        &mut self,
        cycle: u64,
        channel: ChannelId,
        slot_start: SimTime,
    ) -> Option<OutboundPayload> {
        if !self.options.dual_channel {
            return None;
        }
        let other = channel.other();
        if !self.channel_health[other.index()].is_degraded()
            || self.channel_health[other.index()] <= self.channel_health[channel.index()]
        {
            return None;
        }
        let (index, w) = self.hard_copy_candidate(cycle, slot_start, FAILOVER_BUDGET)?;
        self.failover_mirrors += 1;
        self.copy_transmissions += 1;
        Some(self.stage_copy(index, w))
    }

    /// Stages one opportunistic copy of window `w`'s instance (early,
    /// degraded or failover), charged to the instance's `early_copies`
    /// budget.
    fn stage_copy(&mut self, index: usize, w: ReleaseWindow) -> OutboundPayload {
        self.tracker.get_mut(w.instance).early_copies += 1;
        self.in_flight.push_back(w.instance);
        let info = &self.statics[index];
        OutboundPayload {
            message: info.signal.id,
            payload_bytes: info.payload_bytes,
            produced_at: w.start,
        }
    }
}

/// The first instant ≥ `t` at which the `(slot, base, rep)` pattern
/// occurs.
///
/// Closed form, no cycle-stepping: the repetition is a power of two
/// dividing 64, so the counter condition `(cycle mod 64) mod rep == base`
/// is exactly `cycle mod rep == base`; the first matching cycle at or
/// after `cycle_of(t)` follows by modular arithmetic, and only that cycle
/// can place the slot before `t` (every later match starts a full cycle
/// later), in which case the next match is `rep` cycles on.
fn next_occurrence_at_or_after(
    config: &ClusterConfig,
    slot: u16,
    base: u8,
    rep: u8,
    t: SimTime,
) -> SimTime {
    let (base, rep) = (u64::from(base), u64::from(rep));
    debug_assert!(rep.is_power_of_two() && rep <= 64 && base < rep);
    let cycle = config.cycle_of(t);
    let aligned = cycle + (base + rep - cycle % rep) % rep;
    let start = config.static_slot_start(aligned, u64::from(slot));
    if start >= t {
        start
    } else {
        config.static_slot_start(aligned + rep, u64::from(slot))
    }
}

impl TrafficSource for Scheduler {
    fn static_frame(
        &mut self,
        cycle: u64,
        cycle_counter: u8,
        slot: u16,
        channel: ChannelId,
    ) -> Option<OutboundPayload> {
        let slot_start = self.config.static_slot_start(cycle, u64::from(slot));
        if let Some(occ) = self.alloc.occupant(channel, slot, cycle_counter) {
            if self.behavior.own_slot_serialization {
                // Fresh data first (the CHI always stages the latest
                // instance): the newest entry still owing its initial A/B
                // transmission pair wins the occurrence; otherwise the
                // occurrence is *spare* and serves the oldest entry still
                // owing best-effort copies. Because FSPEC schedules the
                // segments separately, copies can only ride these spare
                // occurrences of the message's own slot.
                let fresh_threshold = self.fspec_tx_needed.saturating_sub(2);
                let index = self.occupant_statics[usize::from(occ.index)];
                let q = &mut self.statics[index].fspec_queue;
                let idx = (0..q.len())
                    .rev()
                    .find(|&i| q[i].1 > fresh_threshold)
                    .or_else(|| (!q.is_empty()).then_some(0))?;
                let entry = &mut q[idx];
                let instance = entry.0;
                entry.1 -= 1;
                let is_copy = entry.1 + 1 < self.fspec_tx_needed;
                if entry.1 == 0 {
                    q.remove(idx);
                }
                if is_copy {
                    self.copy_transmissions += 1;
                    if self.tracer.is_enabled() {
                        self.tracer.emit(
                            slot_start,
                            EventKind::RetransmissionCopy {
                                channel: channel.index() as u8,
                                frame_id: u64::from(occ.message),
                            },
                        );
                    }
                }
                let payload = OutboundPayload {
                    message: occ.message,
                    payload_bytes: self.statics[index].payload_bytes,
                    produced_at: self.tracker.get(instance).produced_at,
                };
                self.in_flight.push_back(instance);
                return Some(payload);
            }
            // Window path: transmit the instance whose generation window
            // contains this slot — the newest released at or before the
            // slot (the production batch may run ahead of the bus cycle).
            // None once the window passed or production ended.
            let info = &self.statics[self.occupant_statics[usize::from(occ.index)]];
            let w = info.window_at(slot_start)?;
            if occ.kind != OccupantKind::Primary {
                self.copy_transmissions += 1;
                if self.tracer.is_enabled() {
                    self.tracer.emit(
                        slot_start,
                        EventKind::RetransmissionCopy {
                            channel: channel.index() as u8,
                            frame_id: u64::from(occ.message),
                        },
                    );
                }
            }
            let payload = OutboundPayload {
                message: occ.message,
                payload_bytes: info.payload_bytes,
                produced_at: w.start,
            };
            self.in_flight.push_back(w.instance);
            return Some(payload);
        }
        if !self.behavior.cooperative_segments {
            // Separate-segments schemes leave free static positions idle.
            return None;
        }
        // Failover outranks cooperative filling: a hard frame stranded on
        // a storming channel takes the free position before any soft
        // backlog or opportunistic copy.
        if self.behavior.failover {
            if let Some(payload) = self.failover_mirror(cycle, channel, slot_start) {
                if self.tracer.is_enabled() {
                    self.tracer.emit(
                        slot_start,
                        EventKind::FailoverMirror {
                            channel: channel.index() as u8,
                            slot: u64::from(slot),
                            frame_id: u64::from(payload.message),
                        },
                    );
                }
                return Some(payload);
            }
        }
        self.cooperative_fill(cycle, slot, channel, slot_start)
    }

    fn dynamic_frame(
        &mut self,
        cycle: u64,
        channel: ChannelId,
        slot_counter: u64,
        max_payload_bytes: u16,
    ) -> Option<OutboundPayload> {
        let Ok(frame_id) = u16::try_from(slot_counter) else {
            return None;
        };
        let q = &mut self.queues[channel.index()];
        let pos = q
            .iter()
            .position(|(_, e)| e.frame_id == frame_id && e.payload_bytes <= max_payload_bytes)?;
        let (_, entry) = q.remove(pos);
        let inst = self.tracker.get(entry.instance);
        if inst.class == MessageClass::Static {
            self.copy_transmissions += 1;
            if self.tracer.is_enabled() {
                // The scheduler doesn't know the exact minislot here; the
                // dynamic-segment start keeps the stamp between this
                // cycle's static slots and the MinislotFrame that follows.
                self.tracer.emit(
                    self.config.cycle_start(cycle) + self.config.dynamic_segment_offset(),
                    EventKind::RetransmissionCopy {
                        channel: channel.index() as u8,
                        frame_id: u64::from(inst.message),
                    },
                );
            }
        }
        let payload = OutboundPayload {
            message: inst.message,
            payload_bytes: entry.payload_bytes,
            produced_at: inst.produced_at,
        };
        self.in_flight.push_back(entry.instance);
        Some(payload)
    }

    fn on_outcome(&mut self, outcome: &TransmissionOutcome) {
        let instance = self
            .in_flight
            .pop_front()
            .expect("outcome without a staged frame");
        debug_assert_eq!(self.tracker.get(instance).message, outcome.message);
        self.tracker.record_transmission(
            instance,
            outcome.start + outcome.duration,
            outcome.corrupted,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{COEFFICIENT, FSPEC, GREEDY, HOSA, MATCHUP, SLACK_STEAL};
    use flexray::bus::BusEngine;

    fn config() -> ClusterConfig {
        ClusterConfig::paper_dynamic(50)
    }

    /// The pre-refactor cycle-stepping implementation, kept as the oracle
    /// for the closed-form `next_occurrence_at_or_after`.
    fn next_occurrence_by_stepping(
        config: &ClusterConfig,
        slot: u16,
        base: u8,
        rep: u8,
        t: SimTime,
    ) -> SimTime {
        let mut cycle = config.cycle_of(t);
        loop {
            if config.cycle_counter(cycle) % rep == base {
                let start = config.static_slot_start(cycle, u64::from(slot));
                if start >= t {
                    return start;
                }
            }
            cycle += 1;
        }
    }

    #[test]
    fn closed_form_occurrence_matches_cycle_stepping() {
        let cfg = config();
        let cycle_ns = cfg.cycle_duration().as_nanos();
        let last_slot = cfg.static_slot_count() as u16;
        for rep in [1u8, 2, 4, 8, 16, 32, 64] {
            for base in (0..rep).step_by(3.max(rep as usize / 4)) {
                for slot in [1u16, last_slot / 2 + 1, last_slot] {
                    // Probe instants scattered across several matrix
                    // periods, including exact slot starts and the
                    // nanosecond on either side of one.
                    for k in 0..260u64 {
                        let t = SimTime::ZERO + SimDuration::from_nanos(k * cycle_ns / 3 + k % 5);
                        let want = next_occurrence_by_stepping(&cfg, slot, base, rep, t);
                        let got = next_occurrence_at_or_after(&cfg, slot, base, rep, t);
                        assert_eq!(got, want, "slot {slot} base {base} rep {rep} t {t:?}");
                    }
                    let exact = next_occurrence_by_stepping(
                        &cfg,
                        slot,
                        base,
                        rep,
                        SimTime::ZERO + SimDuration::from_nanos(65 * cycle_ns),
                    );
                    for delta in [0i64, 1, -1] {
                        let t = exact + SimDuration::from_nanos(delta.unsigned_abs());
                        let t = if delta < 0 {
                            exact - SimDuration::from_nanos(1)
                        } else {
                            t
                        };
                        assert_eq!(
                            next_occurrence_at_or_after(&cfg, slot, base, rep, t),
                            next_occurrence_by_stepping(&cfg, slot, base, rep, t),
                        );
                    }
                }
            }
        }
    }

    fn statics() -> Vec<Signal> {
        vec![
            Signal::new(
                1,
                SimDuration::from_millis(1),
                SimDuration::ZERO,
                SimDuration::from_millis(1),
                400,
            ),
            Signal::new(
                2,
                SimDuration::from_millis(4),
                SimDuration::ZERO,
                SimDuration::from_millis(4),
                800,
            ),
        ]
    }

    fn dynamics() -> Vec<AperiodicMessage> {
        // Frame ids must be reachable by the dynamic slot counter, which
        // starts at 19 in the 18-slot paper_dynamic geometry.
        vec![
            AperiodicMessage::new(
                20,
                SimDuration::from_millis(50),
                SimDuration::from_millis(50),
                32,
            ),
            AperiodicMessage::new(
                21,
                SimDuration::from_millis(50),
                SimDuration::from_millis(50),
                64,
            ),
        ]
    }

    fn scheduler(policy: PolicyRef) -> Scheduler {
        Scheduler::new(
            policy,
            config(),
            FrameCoding,
            &Scenario::ber7(),
            &statics(),
            &dynamics(),
        )
        .unwrap()
    }

    #[test]
    fn coefficient_places_copies_in_slack() {
        let s = scheduler(COEFFICIENT);
        // The reliability goal at BER 1e-7 forces copies for the frequent
        // static messages; they must live in the matrix, not the spill.
        assert!(
            !s.allocation().copies().is_empty(),
            "expected stolen-slack copies"
        );
        assert!(
            s.allocation().spill().is_empty(),
            "no spill expected at this load"
        );
    }

    #[test]
    fn fspec_mirrors_instead_of_stealing() {
        let s = scheduler(FSPEC);
        assert!(s.allocation().copies().is_empty());
        let p = s.allocation().primary_of(1).unwrap();
        let b = s
            .allocation()
            .occupant(ChannelId::B, p.slot, p.base_cycle)
            .unwrap();
        assert_eq!(b.kind, OccupantKind::Mirror);
        // FSPEC's best-effort copies are serialized through the message's
        // own slots: each instance owes more than one transmission.
        assert!(s.fspec_tx_needed > 1);
        assert_eq!(s.statics[s.static_index(1)].dynamic_copies, 0);
    }

    #[test]
    fn dynamic_ids_validated() {
        let bad = vec![AperiodicMessage::new(
            3, // inside the 18-slot static range
            SimDuration::from_millis(50),
            SimDuration::from_millis(50),
            32,
        )];
        let err = Scheduler::new(
            COEFFICIENT,
            config(),
            FrameCoding,
            &Scenario::ber7(),
            &statics(),
            &bad,
        )
        .unwrap_err();
        assert!(matches!(err, SchedulerError::DynamicIdInStaticRange(3)));
    }

    #[test]
    fn payloads_above_the_flexray_limit_are_rejected() {
        // 2,100 bits need 264 payload bytes (2,728 wire bits): the 40-MT
        // slot of the paper's static preset has room for them, but a
        // FlexRay frame carries at most 254.
        let big = 2_100;
        let cfg = ClusterConfig::paper_static(80);
        let period = SimDuration::from_millis(5);
        let oversized_static = vec![Signal::new(7, period, SimDuration::ZERO, period, big)];
        let err = Scheduler::new(
            COEFFICIENT,
            cfg.clone(),
            FrameCoding,
            &Scenario::ber7(),
            &oversized_static,
            &[],
        )
        .expect_err("a 264-byte static payload must be rejected");
        assert_eq!(
            err.to_string(),
            "static message 7 needs 264 payload bytes, above FlexRay's 254"
        );
        let oversized_dynamic = vec![AperiodicMessage::new(81, period, period, big)];
        let err = Scheduler::new(
            COEFFICIENT,
            cfg,
            FrameCoding,
            &Scenario::ber7(),
            &[],
            &oversized_dynamic,
        )
        .expect_err("a 264-byte dynamic payload must be rejected");
        assert_eq!(
            err.to_string(),
            "dynamic frame 81 needs 264 payload bytes, above FlexRay's 254"
        );
    }

    #[test]
    fn static_and_dynamic_ids_may_overlap() {
        // Static signal ids and dynamic frame ids live in separate
        // namespaces (the tracker offsets dynamic keys), so a static id 20
        // coexists with dynamic frame id 20.
        let statics = vec![Signal::new(
            20,
            SimDuration::from_millis(1),
            SimDuration::ZERO,
            SimDuration::from_millis(1),
            100,
        )];
        let mut s = Scheduler::new(
            COEFFICIENT,
            config(),
            FrameCoding,
            &Scenario::ber7(),
            &statics,
            &dynamics(),
        )
        .unwrap();
        s.produce_static(20, SimTime::ZERO);
        s.produce_dynamic(20, SimTime::ZERO);
        let mut engine = BusEngine::new(config());
        engine.run_cycle(0, &mut s);
        assert_eq!(s.tracker().produced(), 2);
        assert_eq!(s.tracker().delivered(), 2);
    }

    #[test]
    fn end_to_end_cycle_delivers_static_instances() {
        let mut s = scheduler(COEFFICIENT);
        s.produce_static(1, SimTime::ZERO);
        s.produce_static(2, SimTime::ZERO);
        let mut engine = BusEngine::new(config());
        engine.run_cycle(0, &mut s);
        assert_eq!(s.tracker().delivered(), 2);
        for inst in s.tracker().instances() {
            assert!(inst.latency().unwrap() < SimDuration::from_millis(1));
        }
    }

    #[test]
    fn dynamic_messages_flow_through_the_dynamic_segment() {
        let mut s = scheduler(FSPEC);
        s.produce_dynamic(20, SimTime::ZERO);
        s.produce_dynamic(21, SimTime::ZERO);
        let mut engine = BusEngine::new(config());
        engine.run_cycle(0, &mut s);
        assert_eq!(s.tracker().delivered(), 2, "primaries delivered in cycle 0");
        // FTDMA transmits one frame per id per cycle per channel, so the
        // redundant copies need a few more cycles to drain.
        for c in 1..6 {
            engine.run_cycle(c, &mut s);
        }
        assert_eq!(s.dynamic_backlog(), 0, "primaries and copies drained");
    }

    #[test]
    fn cooperative_fill_serves_dynamic_backlog_from_static_slack() {
        let mut s = scheduler(COEFFICIENT);
        // Flood the dynamic queue with more work than the dynamic segment
        // can carry in one cycle, then check static slack absorbed some.
        for _ in 0..30 {
            s.produce_dynamic(20, SimTime::ZERO);
            s.produce_dynamic(21, SimTime::ZERO);
        }
        let mut engine = BusEngine::new(config());
        engine.run_cycle(0, &mut s);
        assert!(
            s.cooperative_static_serves() > 0,
            "static slack must serve dynamic backlog"
        );
        let c = s.schedule_counters();
        assert!(c.steal_attempts > 0);
        assert!(
            c.steal_identity_holds(),
            "granted {} + denied {} != attempts {}",
            c.steal_granted,
            c.steal_denied,
            c.steal_attempts
        );
    }

    #[test]
    fn steal_counters_stay_zero_without_backlog() {
        let mut s = scheduler(COEFFICIENT);
        s.produce_static(1, SimTime::ZERO);
        let mut engine = BusEngine::new(config());
        engine.run_cycle(0, &mut s);
        assert_eq!(s.steal_attempts(), 0, "no dynamic backlog, no attempts");
        assert!(s.schedule_counters().steal_identity_holds());
    }

    #[test]
    fn fspec_leaves_static_slack_idle() {
        let mut s = scheduler(FSPEC);
        for _ in 0..30 {
            s.produce_dynamic(20, SimTime::ZERO);
        }
        let mut engine = BusEngine::new(config());
        engine.run_cycle(0, &mut s);
        assert_eq!(s.cooperative_static_serves(), 0);
        assert!(engine.stats(ChannelId::A).idle_static_slots > 0);
    }

    #[test]
    fn early_copy_accelerates_static_release() {
        // Message 2 (rep 4) releases at t=0 but its primary may sit in a
        // later cycle; a free earlier slot should carry an early copy.
        let mut s = scheduler(COEFFICIENT);
        s.produce_static(2, SimTime::ZERO);
        let mut engine = BusEngine::new(config());
        for c in 0..4 {
            engine.run_cycle(c, &mut s);
        }
        // Delivered well before the worst case (4 cycles).
        let inst = &s.tracker().instances()[0];
        assert!(inst.is_delivered());
    }

    #[test]
    fn stale_instances_are_not_retransmitted_after_production() {
        let mut s = scheduler(COEFFICIENT);
        s.produce_static(1, SimTime::ZERO); // 1 ms period
        let mut engine = BusEngine::new(config());
        engine.run_cycle(0, &mut s); // within the window
        let sent_after_first = s.tracker().instances()[0].transmissions;
        assert!(sent_after_first >= 1);
        engine.run_cycle(1, &mut s); // window closed (t ≥ 1 ms)
        engine.run_cycle(2, &mut s);
        assert_eq!(
            s.tracker().instances()[0].transmissions,
            sent_after_first,
            "stale instance kept transmitting"
        );
    }

    #[test]
    fn hosa_mirrors_and_stays_out_of_slack() {
        let s = scheduler(HOSA);
        // Mirrors on B, like FSPEC...
        let p = s.allocation().primary_of(1).unwrap();
        assert_eq!(
            s.allocation()
                .occupant(ChannelId::B, p.slot, p.base_cycle)
                .unwrap()
                .kind,
            OccupantKind::Mirror
        );
        // ...but no stolen-slack copies and no own-slot serialization.
        assert!(s.allocation().copies().is_empty());
        assert_eq!(s.fspec_tx_needed, 2, "HOSA plans exactly one extra copy");
    }

    #[test]
    fn hosa_delivers_through_the_window_path() {
        let mut s = scheduler(HOSA);
        s.produce_static(1, SimTime::ZERO);
        s.produce_dynamic(20, SimTime::ZERO);
        let mut engine = BusEngine::new(config());
        engine.run_cycle(0, &mut s);
        assert_eq!(s.tracker().delivered(), 2);
        assert_eq!(
            s.cooperative_static_serves(),
            0,
            "HOSA must not steal slack"
        );
        assert_eq!(s.early_copies_sent(), 0);
    }

    #[test]
    fn option_flags_disable_their_mechanisms() {
        use crate::policy::CoefficientOptions;
        let mk = |options: CoefficientOptions| {
            Scheduler::new_with_options(
                COEFFICIENT,
                config(),
                FrameCoding,
                &Scenario::ber7(),
                &statics(),
                &dynamics(),
                options,
            )
            .unwrap()
        };

        // No early copies: flood-free run sends none.
        let mut s = mk(CoefficientOptions {
            early_copies: false,
            ..Default::default()
        });
        s.produce_static(2, SimTime::ZERO);
        let mut engine = BusEngine::new(config());
        for c in 0..4 {
            engine.run_cycle(c, &mut s);
        }
        assert_eq!(s.early_copies_sent(), 0);

        // No cooperative dynamic: a flooded queue is never served statically.
        let mut s = mk(CoefficientOptions {
            cooperative_dynamic: false,
            ..Default::default()
        });
        for _ in 0..30 {
            s.produce_dynamic(20, SimTime::ZERO);
        }
        let mut engine = BusEngine::new(config());
        engine.run_cycle(0, &mut s);
        assert_eq!(s.cooperative_static_serves(), 0);

        // Single channel: nothing allocated or filled on B.
        let s = mk(CoefficientOptions {
            dual_channel: false,
            ..Default::default()
        });
        assert_eq!(s.allocation().occupancy(ChannelId::B), 0.0);
        for c in s.allocation().copies() {
            assert_eq!(c.position.channel, ChannelId::A);
        }
    }

    #[test]
    fn outcome_order_matches_staging_order() {
        // The in-flight FIFO must stay consistent across a full cycle with
        // mixed static/dynamic traffic on both channels.
        let mut s = scheduler(COEFFICIENT);
        s.produce_static(1, SimTime::ZERO);
        s.produce_static(2, SimTime::ZERO);
        s.produce_dynamic(20, SimTime::ZERO);
        s.produce_dynamic(21, SimTime::ZERO);
        let mut engine = BusEngine::new(config());
        engine.run_cycle(0, &mut s);
        assert!(s.in_flight.is_empty(), "every staged frame got its outcome");
    }

    #[test]
    fn greedy_places_uniform_counts_into_slack() {
        let s = scheduler(GREEDY);
        // Greedy runs CoEfficient's machinery (no mirror, copies live in
        // stolen slack)...
        assert_eq!(s.behavior(), COEFFICIENT.behavior());
        assert!(
            !s.allocation().copies().is_empty(),
            "greedy must place its copies in slack"
        );
        // ...but under an undifferentiated plan: every message gets the
        // same copy count. Rebuild the planner the scheduler saw and ask
        // the policies directly.
        let scenario = Scenario::ber7();
        let coding = FrameCoding;
        let rel: Vec<reliability::MessageReliability> = statics()
            .iter()
            .map(|m| {
                reliability::MessageReliability::from_ber(
                    m.id,
                    coding.message_wire_bits(u64::from(m.size_bits), false) as u32,
                    m.period,
                    scenario.ber,
                )
            })
            .chain(dynamics().iter().map(|d| {
                reliability::MessageReliability::from_ber(
                    100 + u32::from(d.frame_id),
                    coding.message_wire_bits(u64::from(d.size_bits), true) as u32,
                    d.min_interarrival,
                    scenario.ber,
                )
            }))
            .collect();
        let planner = RetransmissionPlanner::new(rel).unit(scenario.unit);
        let goal = scenario.reliability_goal();
        let plan = GREEDY.plan_copies(&planner, goal);
        let k = plan.first().expect("non-empty plan").1;
        assert!(
            k > 0 && plan.iter().all(|&(_, kk)| kk == k),
            "greedy's plan is blanket-uniform: {plan:?}"
        );
        // CoEfficient's differentiated Theorem-1 plan meets the same goal
        // with fewer copies overall — greedy's blanket uniform k
        // over-provisions, which is its best-effort character.
        let co_plan = COEFFICIENT.plan_copies(&planner, goal);
        assert_ne!(plan, co_plan, "the plans must actually differ");
        let total = |p: &[(MessageId, u32)]| p.iter().map(|&(_, k)| u64::from(k)).sum::<u64>();
        assert!(
            total(&co_plan) < total(&plan),
            "differentiated plan must be leaner than blanket uniform: {co_plan:?} vs {plan:?}"
        );
    }

    #[test]
    fn slack_steal_is_health_blind() {
        let mut s = scheduler(SLACK_STEAL);
        s.set_health(HealthState::Storm, [HealthState::Storm; 2]);
        for _ in 0..30 {
            s.produce_dynamic(20, SimTime::ZERO);
        }
        let mut engine = BusEngine::new(config());
        engine.run_cycle(0, &mut s);
        assert_eq!(s.soft_shed(), 0, "no criticality shedding");
        assert_eq!(s.degraded_extra_copies(), 0, "no degraded re-plan");
        assert_eq!(s.failover_mirrors(), 0, "no failover");
        assert!(
            s.cooperative_static_serves() > 0,
            "slack stealing continues regardless of bus health"
        );
    }

    #[test]
    fn matchup_dedicates_degraded_slack_to_hard_recovery() {
        let mut s = scheduler(MATCHUP);
        // Backlog admitted while nominal...
        for _ in 0..30 {
            s.produce_dynamic(20, SimTime::ZERO);
        }
        s.produce_static(1, SimTime::ZERO);
        // ...then a storm hits: free slack serves only the hard recovery
        // schedule, never the soft backlog.
        s.set_health(HealthState::Storm, [HealthState::Storm; 2]);
        let mut engine = BusEngine::new(config());
        engine.run_cycle(0, &mut s);
        assert_eq!(s.steal_attempts(), 0, "no steals during match-up recovery");
        assert_eq!(s.cooperative_static_serves(), 0);
        // Nominal service resumes once the monitor recovers.
        s.set_health(HealthState::Nominal, [HealthState::Nominal; 2]);
        engine.run_cycle(1, &mut s);
        assert!(
            s.cooperative_static_serves() > 0,
            "cooperative service must resume after the storm"
        );
    }

    #[test]
    fn fixed_baselines_ignore_the_ablation_switches() {
        // FSPEC's scheme is not parameterized: passing ablation options
        // must not strip its channel-B mirror.
        let s = Scheduler::new_with_options(
            FSPEC,
            config(),
            FrameCoding,
            &Scenario::ber7(),
            &statics(),
            &dynamics(),
            CoefficientOptions {
                dual_channel: false,
                early_copies: false,
                cooperative_dynamic: false,
            },
        )
        .unwrap();
        assert!(
            s.allocation().occupancy(ChannelId::B) > 0.0,
            "FSPEC keeps its mirror regardless of options"
        );
    }

    /// The newest static instance of each message (indexed like
    /// `statics`) released at or before `t`, read from the instance
    /// record alone.
    fn oracle_newest(s: &Scheduler, t: SimTime) -> Vec<Option<InstanceId>> {
        let mut newest: Vec<Option<InstanceId>> = vec![None; s.statics.len()];
        for (id, inst) in s.tracker.instances().iter().enumerate() {
            if inst.class == MessageClass::Static && inst.produced_at <= t {
                let slot = &mut newest[s.static_index(inst.message)];
                if slot.is_none_or(|n| s.tracker.get(n).produced_at < inst.produced_at) {
                    *slot = Some(id);
                }
            }
        }
        newest
    }

    /// The pre-index early-copy scan: per message, the newest instance
    /// released at or before `t`, if its window is open, its primary is
    /// still ahead, it has no early copy yet and its frame fits the slot;
    /// of those the lowest `(deadline, id)`.
    fn oracle_early_copy(s: &Scheduler, t: SimTime) -> Option<InstanceId> {
        let capacity = s.config.static_slot_capacity_bits();
        let mut best: Option<(SimTime, InstanceId)> = None;
        for (info, newest) in s.statics.iter().zip(oracle_newest(s, t)) {
            let Some(id) = newest else { continue };
            let inst = s.tracker.get(id);
            let p = info.primary;
            let next_primary = next_occurrence_at_or_after(
                &s.config,
                p.slot,
                p.base_cycle,
                p.repetition,
                inst.produced_at,
            );
            if inst.early_copies > 0
                || t >= inst.produced_at + info.signal.period
                || next_primary <= t
                || info.wire_bits > capacity
            {
                continue;
            }
            if best.is_none_or(|(d, _)| inst.deadline < d) {
                best = Some((inst.deadline, id));
            }
        }
        best.map(|(_, id)| id)
    }

    /// The pre-index degraded-copy / failover scan: per message, the
    /// newest instance released at or before `t`, if its window is open,
    /// it is undelivered, its deadline is ahead, it has spent fewer than
    /// `budget` copies and its frame fits; of those the lowest
    /// `(deadline, id)`.
    fn oracle_hard_copy(s: &Scheduler, t: SimTime, budget: u32) -> Option<InstanceId> {
        let capacity = s.config.static_slot_capacity_bits();
        let mut best: Option<(SimTime, InstanceId)> = None;
        for (info, newest) in s.statics.iter().zip(oracle_newest(s, t)) {
            let Some(id) = newest else { continue };
            let inst = s.tracker.get(id);
            if inst.is_delivered()
                || inst.early_copies >= budget
                || t >= inst.deadline
                || t >= inst.produced_at + info.signal.period
                || info.wire_bits > capacity
            {
                continue;
            }
            if best.is_none_or(|(d, _)| inst.deadline < d) {
                best = Some((inst.deadline, id));
            }
        }
        best.map(|(_, id)| id)
    }

    /// Checks the release-window selections against the oracles on every
    /// free static position, before the scheduler serves it.
    struct Differential<'a> {
        s: &'a mut Scheduler,
        free_positions: u64,
    }

    impl TrafficSource for Differential<'_> {
        fn static_frame(
            &mut self,
            cycle: u64,
            cycle_counter: u8,
            slot: u16,
            channel: ChannelId,
        ) -> Option<OutboundPayload> {
            if self
                .s
                .alloc
                .occupant(channel, slot, cycle_counter)
                .is_none()
            {
                self.free_positions += 1;
                let t = self.s.config.static_slot_start(cycle, u64::from(slot));
                let at = format!("cycle {cycle} slot {slot} {channel:?}");
                let early = self
                    .s
                    .early_copy_candidate(cycle, t)
                    .map(|(_, w)| w.instance);
                assert_eq!(early, oracle_early_copy(self.s, t), "early copy at {at}");
                // 2 and 3: the degraded budgets; 4: failover's.
                for budget in [2, 3, 4] {
                    let hard = self
                        .s
                        .hard_copy_candidate(cycle, t, budget)
                        .map(|(_, w)| w.instance);
                    assert_eq!(
                        hard,
                        oracle_hard_copy(self.s, t, budget),
                        "hard copy (budget {budget}) at {at}"
                    );
                }
            }
            self.s.static_frame(cycle, cycle_counter, slot, channel)
        }

        fn dynamic_frame(
            &mut self,
            cycle: u64,
            channel: ChannelId,
            slot_counter: u64,
            max_payload_bytes: u16,
        ) -> Option<OutboundPayload> {
            self.s
                .dynamic_frame(cycle, channel, slot_counter, max_payload_bytes)
        }

        fn on_outcome(&mut self, outcome: &TransmissionOutcome) {
            self.s.on_outcome(outcome);
        }
    }

    /// One random static message: the period is a quarter cycle times
    /// `2^exp × (4 + quarters) / 4`, the offset and deadline are whole
    /// quarters of the period (a coarse grid, so equal deadlines across
    /// messages and the id tie-break come up often) and the size is per
    /// mille of the largest size a static slot carries.
    type StaticCase = ((u32, u64), u64, u64, u64);

    /// One health change: from cycle, then overall, channel A and channel
    /// B health (0 nominal, 1 stressed, 2 storm).
    type HealthCase = (u64, u8, u8, u8);

    /// What one differential run reports back, to show it was not vacuous.
    #[derive(Debug, Default)]
    struct DifferentialTally {
        free_positions: u64,
        early_copies: u64,
        degraded_copies: u64,
        failover_mirrors: u64,
    }

    fn health_of(h: u8) -> HealthState {
        match h {
            0 => HealthState::Nominal,
            1 => HealthState::Stressed,
            _ => HealthState::Storm,
        }
    }

    /// Drives a random workload through the bus, produced the way the
    /// runner produces it (every release of a cycle, in time order, before
    /// the cycle runs), checking every free static position.
    fn run_differential(
        policy: usize,
        cycles: u64,
        statics: &[StaticCase],
        health: &[HealthCase],
        (ber_exp, fault_seed, dyn_every): (u32, u64, u64),
    ) -> DifferentialTally {
        let cfg = config();
        let coding = FrameCoding;
        let capacity = cfg.static_slot_capacity_bits();
        // The largest message one frame carries: within both FlexRay's
        // payload limit and the static slot.
        let max_bits = (8u32..)
            .step_by(8)
            .take_while(|&b| {
                payload_bytes_for(u64::from(b)) <= MAX_PAYLOAD_BYTES
                    && coding.message_wire_bits(u64::from(b), false) <= capacity
            })
            .last()
            .expect("a byte fits a static slot");
        let quarter = cfg.cycle_duration().as_nanos() / 4;
        let signals: Vec<Signal> = statics
            .iter()
            .enumerate()
            .map(|(i, &((exp, quarters), offset, deadline, size))| {
                let period = (quarter * (1 << exp) * (4 + quarters) / 4).min(256 * quarter);
                Signal::new(
                    i as u32 + 1,
                    SimDuration::from_nanos(period),
                    SimDuration::from_nanos(period * offset / 4),
                    SimDuration::from_nanos(period * deadline / 4),
                    (u64::from(max_bits) * size / 1000).max(1) as u32,
                )
            })
            .collect();
        let policy = [COEFFICIENT, GREEDY, SLACK_STEAL, MATCHUP][policy];
        let Ok(mut s) = Scheduler::new(
            policy,
            cfg.clone(),
            coding,
            &Scenario::ber7(),
            &signals,
            &dynamics(),
        ) else {
            return DifferentialTally::default();
        };
        let ber = reliability::Ber::new(10f64.powi(-(ber_exp as i32))).unwrap();
        let mut engine = BusEngine::new(cfg.clone()).with_faults(
            Box::new(reliability::fault::BernoulliFaults::new(ber, fault_seed)),
            Box::new(reliability::fault::BernoulliFaults::new(
                ber,
                fault_seed ^ 1,
            )),
        );
        let mut next: Vec<SimTime> = signals.iter().map(|m| SimTime::ZERO + m.offset).collect();
        let mut health: Vec<HealthCase> = health
            .iter()
            .map(|&(c, o, a, b)| (c % cycles, o, a, b))
            .collect();
        health.sort_unstable();
        let mut d = Differential {
            s: &mut s,
            free_positions: 0,
        };
        for cycle in 0..cycles {
            let cycle_start = cfg.cycle_start(cycle);
            let cycle_end = cfg.cycle_start(cycle + 1);
            d.s.purge_expired(cycle_start);
            while let Some((i, &t)) = next.iter().enumerate().min_by_key(|(_, t)| **t) {
                if t >= cycle_end {
                    break;
                }
                d.s.produce_static(signals[i].id, t);
                next[i] = t + signals[i].period;
            }
            if dyn_every > 0 && cycle % dyn_every == 0 {
                d.s.produce_dynamic(20, cycle_start);
                d.s.produce_dynamic(21, cycle_start);
            }
            if let Some(&(_, o, a, b)) = health.iter().rev().find(|h| h.0 <= cycle) {
                d.s.set_health(health_of(o), [health_of(a), health_of(b)]);
            }
            engine.run_cycle(cycle, &mut d);
        }
        DifferentialTally {
            free_positions: d.free_positions,
            early_copies: s.early_copies_sent(),
            degraded_copies: s.degraded_extra_copies(),
            failover_mirrors: s.failover_mirrors(),
        }
    }

    proptest::proptest! {
        /// The per-cycle early-copy list and the per-cycle degraded-copy
        /// and failover list pick exactly what the old per-slot scans over
        /// the instance record pick, on every free static position of both
        /// channels.
        #[test]
        fn release_windows_select_what_the_old_scans_select(
            run in (0usize..4, 1u64..140),
            statics in proptest::collection::vec(((0u32..9, 0u64..4), 0u64..4, 1u64..=4, 1u64..=1000), 1..8),
            health in proptest::collection::vec((0u64..140, 0u8..3, 0u8..3, 0u8..3), 0..6),
            faults in (3u32..7, 0u64..1_000_000, 0u64..8),
        ) {
            run_differential(run.0, run.1, &statics, &health, faults);
        }
    }

    #[test]
    fn the_differential_run_exercises_every_selection() {
        let statics: Vec<StaticCase> = vec![
            ((0, 0), 0, 4, 300),
            ((2, 2), 1, 3, 1000),
            ((3, 0), 3, 4, 100),
            ((5, 1), 0, 2, 600),
            ((8, 3), 2, 4, 50),
        ];
        let health = [(0, 0, 0, 0), (30, 2, 2, 0), (60, 1, 1, 1), (90, 0, 0, 0)];
        let mut total = DifferentialTally::default();
        for policy in 0..4 {
            let t = run_differential(policy, 139, &statics, &health, (4, 7, 3));
            total.free_positions += t.free_positions;
            total.early_copies += t.early_copies;
            total.degraded_copies += t.degraded_copies;
            total.failover_mirrors += t.failover_mirrors;
        }
        assert!(total.free_positions > 0, "{total:?}");
        assert!(total.early_copies > 0, "{total:?}");
        assert!(total.degraded_copies > 0, "{total:?}");
        assert!(total.failover_mirrors > 0, "{total:?}");
    }

    #[test]
    fn scratch_bytes_count_the_candidate_lists() {
        let mut s = scheduler(COEFFICIENT);
        let entry = std::mem::size_of::<(usize, ReleaseWindow)>() as u64;
        for hard in [false, true] {
            let before = s.scratch_bytes();
            let list = if hard {
                &mut s.hard_candidates.windows
            } else {
                &mut s.early_candidates.windows
            };
            let capacity = list.capacity();
            list.reserve_exact(capacity + 100);
            let grown = (list.capacity() - capacity) as u64;
            assert_eq!(s.scratch_bytes() - before, grown * entry, "hard: {hard}");
        }
    }

    #[test]
    fn hard_copies_take_the_newest_of_overlapping_windows() {
        // Releases closer than a period overlap one message's windows. The
        // old scan took the newest window released at or before the slot;
        // the per-cycle list clips each window at the next release.
        let mut s = scheduler(COEFFICIENT);
        let cfg = config();
        let half = cfg.cycle_duration() / 2;
        for k in 0..5u64 {
            let t = cfg.cycle_start(0) + half * k;
            s.produce_static(2, t);
            if k % 2 == 1 {
                s.produce_static(1, t);
            }
        }
        // One instance has spent the degraded `Stressed` budget.
        let spent = s.statics[s.static_index(2)].windows[1].instance;
        s.tracker.get_mut(spent).early_copies = 2;
        let mut newer_than_open = 0;
        for cycle in 0..6 {
            for slot in 1..=cfg.static_slot_count() {
                let t = cfg.static_slot_start(cycle, slot);
                for budget in [2, 3, 4] {
                    let want = oracle_hard_copy(&s, t, budget);
                    let got = s
                        .hard_copy_candidate(cycle, t, budget)
                        .map(|(_, w)| w.instance);
                    assert_eq!(got, want, "cycle {cycle} slot {slot} budget {budget}");
                    let Some(id) = got else { continue };
                    let picked = s.tracker.get(id);
                    let period = s.statics[s.static_index(picked.message)].signal.period;
                    newer_than_open += s.tracker.instances().iter().any(|other| {
                        other.message == picked.message
                            && other.produced_at < picked.produced_at
                            && t < other.produced_at + period
                    }) as u32;
                }
            }
        }
        assert!(
            newer_than_open > 0,
            "no pick had an older window still open"
        );
    }
}
