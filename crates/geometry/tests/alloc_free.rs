//! Distance queries run millions of times per set-up (every box of the
//! classification descent, every cell the surface passes), so they must
//! not touch the heap: the octree orders its children on the stack and
//! the descent recurses over index boxes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use trillium_geometry::vec3::vec3;
use trillium_geometry::{
    classify_block, Aabb, MeshSdf, SignedDistance, TriMesh, VascularTree, VascularTreeParams, Vec3,
};

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

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Points on a line through the domain's box, most near its surface.
fn probes(sdf: &dyn SignedDistance) -> Vec<Vec3> {
    let bb = sdf.bounding_box();
    let e = bb.extents();
    (0..500).map(|i| bb.min + e * (i as f64 / 499.0)).collect()
}

#[test]
fn distance_queries_and_classification_do_not_allocate() {
    let tree = VascularTree::generate(&VascularTreeParams {
        generations: 5,
        root_radius: 1.2,
        root_length: 7.0,
        ..Default::default()
    });
    let tube = TriMesh::make_tube(vec3(0.0, 0.0, 0.0), vec3(0.0, 0.0, 3.0), 0.8, 24, 1, 2);
    let mesh = MeshSdf::new(tube);
    let (tree_points, mesh_points) = (probes(&tree), probes(&mesh));
    // A block around the root vessel's wall, which the descent splits
    // down to single cells.
    let block = Aabb::new(vec3(0.4, -0.8, 1.0), vec3(2.0, 0.8, 2.6));

    let mut sum = 0.0;
    let n =
        allocations(|| sum += tree_points.iter().map(|&p| tree.signed_distance(p)).sum::<f64>());
    assert_eq!(n, 0, "VascularTree::signed_distance allocated");
    let n =
        allocations(|| sum += mesh_points.iter().map(|&p| mesh.signed_distance(p)).sum::<f64>());
    assert_eq!(n, 0, "MeshSdf::signed_distance allocated");
    assert!(sum.is_finite());

    let mut fluid = 0;
    let n = allocations(|| fluid = classify_block(&tree, &block, [16; 3]));
    assert_eq!(n, 0, "classify_block allocated");
    assert!(0 < fluid && fluid < 16 * 16 * 16, "the block is not carved: {fluid} fluid cells");
}
