//! The region sweeps are on the hot path of every step (one per block and
//! step, one per tile under the workgroup backend), so after a warm-up
//! call they must not touch the heap: line tables are fixed-size arrays,
//! the row scratch is kept per thread, the shell regions come from an
//! iterator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use trillium_field::{CellFlags, FlagField, FlagOps, PdfField, RowIntervals, Shape, SoaPdfField};
use trillium_kernels::{BackendKind, Collision};
use trillium_lattice::{Relaxation, D3Q19, MAGIC_TRT};

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
fn region_sweeps_do_not_allocate_after_warm_up() {
    let shape = Shape::new(12, 6, 5, 1);
    let mut flags = FlagField::new(shape);
    for (x, y, z) in shape.interior().iter() {
        if (y - 2).abs() <= 1 && (z - 2).abs() <= 1 && x >= 1 {
            flags.set_flags(x, y, z, CellFlags::FLUID);
        }
    }
    let intervals = RowIntervals::build(&flags);
    let mut src = SoaPdfField::<D3Q19>::new(shape);
    src.fill_equilibrium(1.0, [0.02, -0.01, 0.015]);
    let mut dst = SoaPdfField::<D3Q19>::new(shape);
    let rel = Relaxation::trt_from_tau(0.8, MAGIC_TRT);

    // One step's region sweeps of a block: interior core, then the shell.
    let mut step = |kind: BackendKind, collision: Collision| {
        let be = kind.dispatch();
        let mut cells = 0;
        for r in std::iter::once(shape.interior_core(1)).chain(shape.shell_regions(1)) {
            cells += be.sweep_pull_region(collision, &src, &mut dst, rel, &r).cells;
            cells += be.sweep_sparse_region(collision, &src, &mut dst, &intervals, rel, &r).cells;
            cells += be.sweep_inplace_region(collision, &mut src, None, rel, &r).cells;
        }
        let parity = src.parity();
        src.set_parity(!parity);
        cells
    };

    for kind in [BackendKind::Portable, BackendKind::Avx2] {
        for collision in Collision::ALL {
            let warm_up = step(kind, collision);
            let before = ALLOCATIONS.with(Cell::get);
            let cells = step(kind, collision);
            let allocations = ALLOCATIONS.with(Cell::get) - before;
            assert_eq!(cells, warm_up);
            assert_eq!(allocations, 0, "{kind:?}/{collision:?} allocated on the hot path");
        }
    }
}
