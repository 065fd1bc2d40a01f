//! Proves trace generation does not allocate per request.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The test
//! streams whole paper traces and counts every allocation after each
//! stream's first request: only the amortized growth of the address
//! model's re-access history and covered-page bitmap may allocate, a
//! handful of times per trace, however long the trace is.

use hps_trace::TraceSource;
use hps_workloads::{profiles, stream, AppProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap traffic while `COUNTING` is set on the allocating thread;
/// otherwise a transparent passthrough to the system allocator.
struct CountingAlloc;

thread_local! {
    /// Per-thread, so the test harness's own threads never count. `const`
    /// init and no drop glue, so reading it never re-enters the allocator.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// `try_with` instead of `with`: during thread teardown TLS is gone, and
/// the allocator must stay callable (uncounted) rather than panic.
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations allowed per trace after its first request. The history
/// (at most 4,096 entries) and the bitmap (at most 512 KiB) each grow by
/// doubling, about a dozen and at most twenty times; Booting and
/// CameraVideo take 22 and 20 in all.
const BOUND: u64 = 48;

/// Streams all of `profile` and returns (requests, allocations counted
/// after the first request).
fn allocations_after_first_request(profile: &AppProfile) -> (u64, u64) {
    let mut s = stream(profile, 11, 1);
    s.next_request().expect("non-empty trace");
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let mut requests = 1u64;
    while s.next_request().is_some() {
        requests += 1;
    }
    COUNTING.with(|c| c.set(false));
    (requests, ALLOCS.load(Ordering::Relaxed))
}

/// One test (not several) so the counting window can't race a concurrently
/// running sibling test in the same binary.
#[test]
fn streaming_a_trace_allocates_a_bounded_number_of_times() {
    for profile in [&profiles::BOOTING, &profiles::CAMERA_VIDEO] {
        let (requests, allocs) = allocations_after_first_request(profile);
        assert_eq!(requests, profile.num_reqs);
        assert!(
            allocs <= BOUND,
            "{}: {allocs} allocations over {requests} requests (bound {BOUND})",
            profile.name
        );
    }
}
