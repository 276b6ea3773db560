//! What a block costs in memory is measured, not assumed: a counting
//! global allocator records every byte `Scenario::build_block` asks for.
//! A default (in-place) 8³-cell cavity block allocates one PDF field, a
//! pull block two, and the per-block reduction allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use trillium_core::driver::plan_run;
use trillium_core::prelude::*;

thread_local! {
    /// Bytes requested by the current thread, and how many of the
    /// requests were at least `BIG` bytes (the test harness allocates on
    /// its own threads whenever it likes).
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static BIG_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BIG: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count(size: usize) {
    BYTES.with(|n| n.set(n.get() + size));
    if size >= BIG.with(Cell::get) {
        BIG_ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

struct CountingAllocator;

// SAFETY: every request is forwarded unchanged to the system allocator;
// the counters are const-initialized `Cell`s without destructor, so
// touching them from inside the allocator neither allocates nor re-enters.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Everything a block allocates besides its PDF fields (flags, row
/// intervals, boundary links of an 8³ cavity block with six walled
/// faces), with room to spare; well under one PDF field.
const SLACK: usize = 48 * 1024;

/// One PDF field of an 8³-cell block: 19 directions x 10³ cells (ghost
/// layer included) x 8 B.
const FIELD: usize = 19 * 1000 * 8;

/// `(bytes, allocations of at least one PDF field, block)` of building
/// the one block of an 8³-cell cavity.
fn build_cost(kernel: Option<KernelChoice>) -> (usize, usize, BlockSim) {
    let mut s = Scenario::lid_driven_cavity(8, 1, 0.05, 0.05);
    if let Some(k) = kernel {
        s = s.with_kernel(k);
    }
    let plan = plan_run(&s, 1);
    let lb = &plan.views[0].blocks[0];
    BIG.with(|b| b.set(FIELD));
    let (b0, n0) = (BYTES.with(Cell::get), BIG_ALLOCATIONS.with(Cell::get));
    let block = s.build_block(lb);
    let (b1, n1) = (BYTES.with(Cell::get), BIG_ALLOCATIONS.with(Cell::get));
    (b1 - b0, n1 - n0, block)
}

#[test]
fn a_default_block_allocates_one_pdf_field_and_a_pull_block_two() {
    for (kernel, fields) in
        [(None, 1), (Some(KernelChoice::InPlace), 1), (Some(KernelChoice::Pull), 2)]
    {
        let (bytes, big, block) = build_cost(kernel);
        assert_eq!(19 * block.shape.alloc_cells() * 8, FIELD);
        assert_eq!(big, fields, "{kernel:?}: allocations of a PDF field or more");
        assert!(
            fields * FIELD <= bytes && bytes <= fields * FIELD + SLACK,
            "{kernel:?}: {bytes} B for {fields} field(s) of {FIELD} B"
        );
        assert_eq!(block.pdf_bytes(), fields * FIELD);
    }
}

/// `fluid_totals`, run before and after every step, allocates nothing:
/// on a dense block at either parity, on a wider one whose rows end in
/// a partial piece, and on the carved obstacle block of a channel.
#[test]
fn fluid_totals_allocates_nothing() {
    let channel = Scenario::channel_with_obstacle([24, 8, 8], [3, 1, 1], 0.08, 0.04, 0.18);
    let plan = plan_run(&channel, 1);
    let mut blocks: Vec<BlockSim> =
        plan.views[0].blocks.iter().map(|lb| channel.build_block(lb)).collect();
    assert!(blocks.iter().any(|b| b.fluid_cells() < b.shape.interior_cells()));
    let wide = Scenario::lid_driven_cavity(45, 1, 0.05, 0.05);
    blocks.push(wide.build_block(&plan_run(&wide, 1).views[0].blocks[0]));
    blocks.push(build_cost(None).2);
    for step in 0..2 {
        for b in &mut blocks {
            let b0 = BYTES.with(Cell::get);
            let mass = b.fluid_totals().mass;
            assert_eq!(BYTES.with(Cell::get), b0, "step {step}: fluid_totals allocated");
            assert!(mass > 0.0);
            b.apply_boundaries();
            b.stream_collide(channel.relaxation);
        }
    }
}
