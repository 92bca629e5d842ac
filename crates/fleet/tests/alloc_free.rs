//! Proof that the fleet aggregation path is allocation-free — the
//! mechanical half of the memory contract: aggregation state is
//! O(workers × buckets) *and never grows*, no matter how many vehicles
//! stream through it.
//!
//! A counting global allocator is armed after the aggregates are built
//! (all histogram storage is reserved at construction). From then on,
//! recording thousands of vehicle reports, counting unschedulable
//! vehicles, merging shard aggregates and clearing them for reuse must
//! not touch the heap at all.
//!
//! Only the test thread's allocations are counted (the arming flag is
//! thread-local), so the harness's own threads cannot fail the test. A
//! single `#[test]` because the count is global — parallel tests would
//! reset each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use coefficient::{Runner, COEFFICIENT, GREEDY};
use event_sim::SimDuration;
use fleet::{FleetAggregate, FleetSpec};

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
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn aggregation_path_does_not_allocate() {
    let spec = FleetSpec {
        vehicles: 4,
        horizon: SimDuration::from_millis(5),
        ..FleetSpec::default()
    };
    let policies = [COEFFICIENT, GREEDY];

    // A handful of real reports to stream in over and over (simulating
    // the vehicles themselves may allocate freely — the contract covers
    // the aggregation state, which must stay fixed).
    let reports: Vec<_> = (0..spec.vehicles)
        .map(|v| {
            let draw = spec.vehicle_draw(v);
            let report = Runner::new(spec.vehicle_config(v, COEFFICIENT))
                .expect("schedulable")
                .run();
            (draw.condition, report)
        })
        .collect();

    let mut shard = FleetAggregate::new(&policies);
    let mut global = FleetAggregate::new(&policies);
    let before = shard.footprint_bytes();

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.set(true);
    for round in 0..2_000u64 {
        for (i, (condition, report)) in reports.iter().enumerate() {
            let vehicle = round * reports.len() as u64 + i as u64;
            shard.record(0, vehicle, *condition, report);
            shard.record(1, vehicle, *condition, report);
        }
        shard.record_unschedulable(0, round);
        global.merge(&shard);
        shard.clear();
    }
    let digest = global.digest();
    ARMED.set(false);

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations while streaming 8000 vehicle reports \
         through record/merge/clear"
    );
    assert_eq!(shard.footprint_bytes(), before, "aggregate must not grow");
    assert_eq!(global.policy(0).vehicles, 8_000);
    assert_ne!(digest, 0);
}
