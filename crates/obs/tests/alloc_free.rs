//! A disabled recorder sits on the hottest path of every run (a `Step`
//! span per step, a `Kernel` span per window, a histogram observation
//! per step), so it must cost a branch and nothing more: no clock read,
//! no allocation, nothing recorded (DESIGN.md §11).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use trillium_obs::{ObsConfig, Recorder, SpanKind};

thread_local! {
    /// Allocations made by the current thread (the test harness allocates
    /// on its own threads whenever it likes).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every request is forwarded unchanged to the system allocator;
// the counter is a const-initialized `Cell` without destructor, so touching
// it from inside the allocator neither allocates nor re-enters.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn disabled_recorder_allocates_and_records_nothing() {
    let rec = Recorder::new(0, ObsConfig::off());
    let before = ALLOCATIONS.with(Cell::get);
    let mut seconds = 0.0;
    for t in 0..4096u64 {
        rec.set_step(t);
        let step = rec.open(SpanKind::Step);
        for kind in SpanKind::ALL {
            seconds += rec.span(kind).finish();
            drop(rec.span(kind));
        }
        rec.metrics().add("comm.messages_sent", 3);
        rec.metrics().acc("comm.work_seconds", 1e-3);
        rec.metrics().gauge("mem.pdf_bytes", 4096.0);
        rec.metrics().observe("driver.step_seconds", 1e-3);
        seconds += rec.close(step) + rec.clock() + rec.wall();
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocations, 0, "a disabled recorder allocated");
    assert_eq!(seconds, 0.0, "a disabled recorder read the clock");

    for kind in SpanKind::ALL {
        assert_eq!((rec.total(kind), rec.count(kind)), (0.0, 0), "{kind:?}");
    }
    let obs = rec.finish();
    assert!(obs.events.is_empty());
    assert_eq!(obs.wall, 0.0);
    assert_eq!(obs.metrics.counter("comm.messages_sent"), 0);
    assert_eq!(obs.metrics.fcounter("comm.work_seconds"), 0.0);
    assert_eq!(obs.metrics.gauge("mem.pdf_bytes"), None);
    assert!(obs.metrics.histogram("driver.step_seconds").is_none());
}
