//! Proof that the steady-state cycle loop is allocation-free.
//!
//! A counting global allocator is armed after a warm-up phase long enough
//! for every scratch buffer — scheduler queues, instance tracker, release
//! windows, the early-copy list, fault-probability caches — to reach its
//! steady-state capacity. From then on, producing traffic and running bus
//! cycles must not touch the heap at all: the hot path works entirely out
//! of the buffers reserved up front. The runner's own loop (its release
//! batch included) is checked by counting whole runs: a run twice as long
//! must make exactly as many allocations.
//!
//! Only the test thread's allocations are counted (the arming flag is
//! thread-local), so the harness's own threads cannot fail the test. A
//! single `#[test]` covers every registered policy because the count is
//! global — parallel tests would reset each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use coefficient::{RunConfig, Runner, Scenario, Scheduler, StopCondition, TraceConfig};
use event_sim::SimDuration;
use flexray::bus::BusEngine;
use flexray::codec::FrameCoding;
use flexray::config::ClusterConfig;
use flexray::signal::Signal;
use reliability::fault::BernoulliFaults;
use reliability::Ber;
use workloads::AperiodicMessage;

struct CountingAllocator;

/// Counted while [`ARMED`]: every fresh allocation or reallocation.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the test thread only, so the harness's own threads are
    /// never counted. `const`-initialised: reading it never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is armed.
fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Frees are allowed in steady state (retired instances, drained
        // queues); only growth is a regression.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

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

/// Runs `cycles` communication cycles with periodic static production and
/// a sparse dynamic load, starting from bus cycle `first`.
fn drive(
    scheduler: &mut Scheduler,
    engine: &mut BusEngine,
    config: &ClusterConfig,
    first: u64,
    cycles: u64,
) {
    for cycle in first..first + cycles {
        let now = config.cycle_start(cycle);
        scheduler.produce_static(1, now);
        if cycle % 4 == 0 {
            scheduler.produce_static(2, now);
        }
        if cycle % 16 == 0 {
            scheduler.produce_dynamic(20, now);
            scheduler.produce_dynamic(21, now);
        }
        scheduler.purge_expired(now);
        engine.run_cycle(cycle, scheduler);
    }
}

/// Heap allocations made by a whole [`Runner`] run of `policy` over
/// `cycles` cycles of BBW and SAE traffic.
fn run_allocations(policy: coefficient::PolicyRef, cycles: u64) -> u64 {
    let cluster = ClusterConfig::paper_dynamic(50);
    let cfg = RunConfig {
        stop: StopCondition::Horizon(cluster.cycle_duration() * cycles),
        cluster,
        scenario: Scenario::ber7(),
        static_messages: workloads::bbw::message_set(),
        dynamic_messages: workloads::sae::message_set(workloads::sae::IdRange::StartingAt(20), 1),
        policy,
        seed: 3,
        trace: TraceConfig::off(),
    };
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.set(true);
    let report = Runner::new(cfg).unwrap().run();
    ARMED.set(false);
    assert!(report.delivered > 0);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_cycle_loop_does_not_allocate() {
    const WARMUP_CYCLES: u64 = 400;
    const MEASURED_CYCLES: u64 = 200;

    for &policy in coefficient::registry::ALL {
        let config = ClusterConfig::paper_dynamic(50);
        let mut scheduler = Scheduler::new(
            policy,
            config.clone(),
            FrameCoding,
            &Scenario::ber7(),
            &statics(),
            &dynamics(),
        )
        .unwrap();
        // Upper bound on instances the whole run produces; the tracker
        // reserves this up front so steady-state production never grows it.
        scheduler.reserve_instances(4096);
        let ber = Ber::new(1e-7).unwrap();
        let mut engine = BusEngine::new(config.clone()).with_faults(
            Box::new(BernoulliFaults::new(ber, 1)),
            Box::new(BernoulliFaults::new(ber, 2)),
        );

        drive(&mut scheduler, &mut engine, &config, 0, WARMUP_CYCLES);

        ALLOCS.store(0, Ordering::SeqCst);
        ARMED.set(true);
        drive(
            &mut scheduler,
            &mut engine,
            &config,
            WARMUP_CYCLES,
            MEASURED_CYCLES,
        );
        ARMED.set(false);

        let allocs = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations in {MEASURED_CYCLES} steady-state cycles",
            policy.label(),
        );
        // The run did real work while armed.
        assert!(scheduler.tracker().delivered() as u64 > WARMUP_CYCLES);
    }

    for &policy in coefficient::registry::ALL {
        let (short, long) = (run_allocations(policy, 400), run_allocations(policy, 800));
        assert_eq!(
            short,
            long,
            "{}: 400 more cycles through the runner allocated",
            policy.label(),
        );
    }
}
