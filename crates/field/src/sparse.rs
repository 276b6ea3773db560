//! Sparse-block iteration structures (paper §4.3).
//!
//! Blocks only partially covered by the computational domain would waste
//! work if the kernel visited every cell. Of the paper's three strategies
//! this crate supports the one the kernels run, *row intervals*: for every
//! x-row the index of the first and last fluid cell, "similar to the
//! compressed storage scheme of a sparse matrix"; the kernel runs on the
//! contiguous span, which vectorizes.
//!
//! The paper keeps dense storage under the row intervals. A [`RowTable`]
//! compresses the storage the same way: per x-row of the ghost-inclusive
//! box one interval covering every cell the pull sweep over the spans
//! reads, so a carved block holds the cells it computes and little more.

use crate::flags::{FlagField, FlagOps};
use crate::shape::Shape;
use trillium_lattice::LatticeModel;

/// One contiguous span of fluid cells within an x-row.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RowSpan {
    /// Row coordinates.
    pub y: i32,
    /// Row coordinates.
    pub z: i32,
    /// First fluid x (inclusive).
    pub x_begin: i32,
    /// One past the last fluid x (exclusive).
    pub x_end: i32,
}

impl RowSpan {
    /// Number of cells covered by the span (fluid and possibly interleaved
    /// non-fluid cells — the scheme stores only first/last, as in the paper).
    pub fn len(&self) -> usize {
        (self.x_end - self.x_begin) as usize
    }

    /// True if the span covers no cells.
    pub fn is_empty(&self) -> bool {
        self.x_end <= self.x_begin
    }
}

/// Per-row first/last fluid-cell intervals of one block.
///
/// Rows containing no fluid are omitted entirely, so iterating the spans
/// visits only (potentially) useful work. The covered cell count can exceed
/// the fluid count when non-fluid cells are interleaved within a row; the
/// kernel still traverses them (they are counted as LUPS but not FLUPS,
/// matching the paper's measurement methodology in §4).
#[derive(Clone, Debug, Default)]
pub struct RowIntervals {
    /// Non-empty row spans in storage order (y fastest, then z).
    pub spans: Vec<RowSpan>,
    /// Number of true fluid cells (the MFLUPS numerator; can be smaller
    /// than [`RowIntervals::covered_cells`]).
    pub fluid_cells: usize,
}

impl RowIntervals {
    /// Builds the interval structure from a flag field.
    pub fn build(flags: &FlagField) -> Self {
        let shape = flags.shape();
        let mut spans = Vec::new();
        let mut fluid_cells = 0;
        for z in 0..shape.nz as i32 {
            for y in 0..shape.ny as i32 {
                let mut first = None;
                let mut last = None;
                for x in 0..shape.nx as i32 {
                    if flags.flags(x, y, z).is_fluid() {
                        if first.is_none() {
                            first = Some(x);
                        }
                        last = Some(x);
                        fluid_cells += 1;
                    }
                }
                if let (Some(b), Some(e)) = (first, last) {
                    spans.push(RowSpan { y, z, x_begin: b, x_end: e + 1 });
                }
            }
        }
        RowIntervals { spans, fluid_cells }
    }

    /// Total number of cells covered by all spans (the LUPS denominator).
    pub fn covered_cells(&self) -> usize {
        self.spans.iter().map(RowSpan::len).sum()
    }

    /// Number of rows that contain at least one fluid cell.
    pub fn num_rows(&self) -> usize {
        self.spans.len()
    }
}

/// One stored x-row of a [`RowTable`]: cells `x0 .. x0 + len` of the row
/// sit at positions `offset .. offset + len` of every direction's array.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct StoredRow {
    /// Position of the row's first cell.
    pub(crate) offset: u32,
    /// First stored x.
    pub(crate) x0: i32,
    /// Stored cells (0: the row is not stored).
    pub(crate) len: u32,
}

/// Row-compressed cell storage of one block: per `(y, z)` row of the
/// ghost-inclusive box at most one stored x-interval, the rows packed
/// back to back in row order (y fastest, then z). A PDF field over the
/// table keeps one array per direction over the stored cells only; a cell
/// outside every interval has no storage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowTable {
    shape: Shape,
    /// One entry per row of the ghost-inclusive box, `(z + g) · ay + y + g`.
    rows: Vec<StoredRow>,
    cells: usize,
}

impl RowTable {
    /// The rows the pull sweep over `intervals` reads in a block of
    /// `shape`: each covered cell and its `Q − 1` pull sources `x − c_q`
    /// (which include every wall cell a boundary link writes and every
    /// ghost value a [`RowIntervals`]-driven ghost list names), each row's
    /// read set stored as the one x-interval from its first to its last
    /// cell.
    pub fn pull_reads<M: LatticeModel>(shape: Shape, intervals: &RowIntervals) -> Self {
        assert!(shape.ghost >= 1, "the pull sources of border cells are ghosts");
        let g = shape.ghost as i32;
        let mut rows = vec![StoredRow::default(); shape.ay() * shape.az()];
        for s in &intervals.spans {
            for c in M::velocities() {
                let (y, z) = (s.y - c[1] as i32, s.z - c[2] as i32);
                let (x0, x1) = (s.x_begin - c[0] as i32, s.x_end - c[0] as i32);
                let row = &mut rows[((z + g) as usize) * shape.ay() + (y + g) as usize];
                let end = if row.len == 0 { x1 } else { x1.max(row.x0 + row.len as i32) };
                row.x0 = if row.len == 0 { x0 } else { x0.min(row.x0) };
                row.len = (end - row.x0) as u32;
            }
        }
        let mut cells = 0;
        for row in &mut rows {
            row.offset = cells as u32;
            cells += row.len as usize;
        }
        assert!(u32::try_from(cells).is_ok(), "{cells} stored cells exceed 32-bit row offsets");
        RowTable { shape, rows, cells }
    }

    /// The box this table compresses.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Stored cells: the length of each direction's array.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// The stored part of row `(y, z)`; empty outside the box.
    #[inline(always)]
    pub(crate) fn row(&self, y: i32, z: i32) -> StoredRow {
        let g = self.shape.ghost as i32;
        let (ay, az) = (self.shape.ay() as i32, self.shape.az() as i32);
        if (0..ay).contains(&(y + g)) && (0..az).contains(&(z + g)) {
            self.rows[((z + g) * ay + y + g) as usize]
        } else {
            StoredRow::default()
        }
    }

    /// Position of cell `(x, y, z)`, if it is stored.
    #[inline(always)]
    pub fn pos(&self, x: i32, y: i32, z: i32) -> Option<usize> {
        let r = self.row(y, z);
        let i = x.wrapping_sub(r.x0) as u32;
        (i < r.len).then(|| (r.offset + i) as usize)
    }

    /// Position of the run of `n` cells from `(x, y, z)` on, which must
    /// be stored whole (a broken caller panics here instead of reading
    /// another row's cells).
    #[inline(always)]
    pub fn run(&self, x: i32, y: i32, z: i32, n: usize) -> usize {
        let r = self.row(y, z);
        let i = x.wrapping_sub(r.x0) as u32 as usize;
        assert!(i + n <= r.len as usize, "run of {n} from ({x}, {y}, {z}) is not stored ({r:?})");
        r.offset as usize + i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::CellFlags;
    use crate::shape::Shape;

    fn field_with_fluid(cells: &[(i32, i32, i32)]) -> FlagField {
        let mut f = FlagField::new(Shape::cube(4));
        for &(x, y, z) in cells {
            f.set_flags(x, y, z, CellFlags::FLUID);
        }
        f
    }

    #[test]
    fn empty_block() {
        let f = FlagField::new(Shape::cube(4));
        assert_eq!(f.count_fluid(), 0);
        let ri = RowIntervals::build(&f);
        assert_eq!(ri.num_rows(), 0);
        assert_eq!(ri.covered_cells(), 0);
    }

    #[test]
    fn row_intervals_compact_contiguous_rows() {
        // Full row of fluid at (y=1, z=2).
        let f = field_with_fluid(&[(0, 1, 2), (1, 1, 2), (2, 1, 2), (3, 1, 2)]);
        let ri = RowIntervals::build(&f);
        assert_eq!(ri.spans, vec![RowSpan { y: 1, z: 2, x_begin: 0, x_end: 4 }]);
        assert_eq!(ri.covered_cells(), 4);
    }

    #[test]
    fn row_intervals_cover_gaps_within_rows() {
        // Fluid at x = 0 and x = 3 only: the span covers the hole, as the
        // scheme stores only first/last per row.
        let f = field_with_fluid(&[(0, 0, 0), (3, 0, 0)]);
        let ri = RowIntervals::build(&f);
        assert_eq!(ri.spans.len(), 1);
        assert_eq!(ri.spans[0].len(), 4);
        assert_eq!(ri.covered_cells(), 4);
        // Covered cells >= fluid cells; here strictly greater.
        assert!(ri.covered_cells() > f.count_fluid());
    }

    #[test]
    fn rows_without_fluid_are_omitted() {
        let f = field_with_fluid(&[(1, 0, 0), (2, 3, 3)]);
        let ri = RowIntervals::build(&f);
        assert_eq!(ri.num_rows(), 2);
        assert_eq!(ri.spans[0], RowSpan { y: 0, z: 0, x_begin: 1, x_end: 2 });
        assert_eq!(ri.spans[1], RowSpan { y: 3, z: 3, x_begin: 2, x_end: 3 });
    }
}
