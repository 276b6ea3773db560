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

/// Every cell a carved block's step reads, by brute force over its flags:
/// its fluid cells and their 18 pull sources (which include both cells of
/// every boundary link: the wall cell a fluid cell pulls from, and the
/// fluid cell whose PDFs the link reads).
fn read_set(b: &BlockSim) -> usize {
    use std::collections::BTreeSet;
    use trillium_field::FlagOps;
    let mut cells = BTreeSet::new();
    for (x, y, z) in b.shape.interior().iter() {
        if b.flags.flags(x, y, z).is_fluid() {
            for c in trillium_lattice::d3q19::C {
                cells.insert((x - i32::from(c[0]), y - i32::from(c[1]), z - i32::from(c[2])));
            }
        }
    }
    cells.len()
}

/// A carved block stores what its step reads. A block that
/// `Scenario::build_block` carves out of a small vessel tree runs in
/// place and is built from its flags (voxelised first, outside the count)
/// with one PDF buffer of at most 1.1x its read set, the only allocation
/// of a read set or more; `BlockSim::pdf_bytes` and the `mem.pdf_bytes`
/// gauge count those stored bytes.
#[test]
fn a_carved_block_allocates_its_read_set() {
    use trillium_geometry::{VascularTree, VascularTreeParams};
    let tree = VascularTree::generate(&VascularTreeParams {
        generations: 2,
        segments_per_branch: 1,
        root_length: 4.0,
        ..VascularTreeParams::default()
    });
    let setup = setup_domain(
        "tree",
        std::sync::Arc::new(tree),
        0.125,
        [16; 3],
        1,
        Balancer::Morton,
        0.1,
        [0.0, 0.0, 0.02],
    );
    let s = setup.scenario;
    let (mut stored, mut checked) = (0, 0);
    for lb in &setup.views[0].blocks {
        let built = s.build_block(lb);
        let read = read_set(&built);
        let flags = s.block_flags(lb);
        let field = 19 * 8 * read;
        BIG.with(|b| b.set(field));
        let n0 = BIG_ALLOCATIONS.with(Cell::get);
        let block = BlockSim::from_flags_with_scheme(flags, s.boundary, s.rho0, s.u0, s.kernel);
        let n1 = BIG_ALLOCATIONS.with(Cell::get);
        BIG.with(|b| b.set(usize::MAX));
        assert!(block.fluid_cells() < block.shape.interior_cells(), "every block is carved");
        assert!(block.src.same_storage(&built.src) && block.dst.same_storage(&built.dst));
        let per_buffer = block.src.data().len() * 8;
        assert!(block.dst.data().is_empty(), "in place: one buffer");
        assert!(
            field <= per_buffer && per_buffer as f64 <= 1.1 * field as f64,
            "{per_buffer} B per buffer for a read set of {read} cells ({field} B)"
        );
        // (A block of a few fluid cells reads less than its row table
        // holds: 12 B per row of its ghost-inclusive box.)
        if read > 1000 {
            assert_eq!(n1 - n0, 1, "one allocation of a read set or more: the PDF buffer");
            checked += 1;
        }
        assert_eq!(built.pdf_bytes(), per_buffer);
        stored += built.pdf_bytes();
    }
    assert!(checked >= 2, "{checked} blocks of a thousand cells or more");
    let run = run_distributed_with(&s, 1, 1, 1, &[], DriverConfig::default());
    let gauge = run.ranks[0].obs.as_ref().unwrap().metrics.gauge("mem.pdf_bytes").unwrap();
    assert_eq!(gauge, stored as f64);
}
