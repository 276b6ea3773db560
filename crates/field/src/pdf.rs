//! Particle-distribution-function (PDF) fields in AoS and SoA layout.
//!
//! The paper (§4.1) stores the lattice either as "Array of Structures" (all
//! 19 PDFs of one cell consecutive — natural for the generic kernel) or as
//! "Structure of Arrays" (all PDFs of one *direction* consecutive — required
//! for SIMD vectorization). Both layouts share the [`PdfField`] accessor
//! interface so layout-agnostic code (boundary handling, initialization,
//! ghost exchange, validation) is written once.

use crate::shape::Shape;
use crate::sparse::RowTable;
use std::ops::Range;
use std::sync::Arc;
use trillium_lattice::{equilibrium_all, LatticeModel};

/// Layout-independent access to a PDF field of lattice model `M`.
pub trait PdfField<M: LatticeModel>: Send {
    /// Grid geometry.
    fn shape(&self) -> Shape;

    /// Reads PDF `q` at cell `(x, y, z)` (ghost coordinates allowed).
    fn get(&self, x: i32, y: i32, z: i32, q: usize) -> f64;

    /// Writes PDF `q` at cell `(x, y, z)`.
    fn set(&mut self, x: i32, y: i32, z: i32, q: usize, v: f64);

    /// Reads all `Q` PDFs of one cell into `out`.
    fn get_cell(&self, x: i32, y: i32, z: i32, out: &mut [f64]) {
        for q in 0..M::Q {
            out[q] = self.get(x, y, z, q);
        }
    }

    /// Writes all `Q` PDFs of one cell from `vals`.
    fn set_cell(&mut self, x: i32, y: i32, z: i32, vals: &[f64]) {
        for q in 0..M::Q {
            self.set(x, y, z, q, vals[q]);
        }
    }

    /// Reads the *row* of PDF `q` starting at `(x0, y, z)`: `out[i] = get(x0
    /// + i, y, z, q)` — what whole-field walks outside the kernels move.
    fn read_row(&self, q: usize, x0: i32, y: i32, z: i32, out: &mut [f64]) {
        (x0..).zip(out).for_each(|(x, v)| *v = self.get(x, y, z, q));
    }

    /// Writes a row: `set(x0 + i, y, z, q, vals[i])`.
    fn write_row(&mut self, q: usize, x0: i32, y: i32, z: i32, vals: &[f64]) {
        (x0..).zip(vals).for_each(|(x, &v)| self.set(x, y, z, q, v));
    }

    /// Sets every cell (including ghosts) to the equilibrium of `(rho, u)`.
    fn fill_equilibrium(&mut self, rho: f64, u: [f64; 3]) {
        let mut feq = vec![0.0; M::Q];
        equilibrium_all::<M>(rho, u, &mut feq);
        let all = self.shape().with_ghosts();
        for (x, y, z) in all.iter() {
            self.set_cell(x, y, z, &feq);
        }
    }

    /// Density at a cell.
    fn density(&self, x: i32, y: i32, z: i32) -> f64 {
        let mut f = [0.0; 32];
        self.get_cell(x, y, z, &mut f[..M::Q]);
        trillium_lattice::density::<M>(&f[..M::Q])
    }

    /// Velocity at a cell.
    fn velocity(&self, x: i32, y: i32, z: i32) -> [f64; 3] {
        let mut f = [0.0; 32];
        self.get_cell(x, y, z, &mut f[..M::Q]);
        trillium_lattice::velocity::<M>(&f[..M::Q])
    }

    /// Total mass (sum of density) over interior cells.
    fn total_mass(&self) -> f64 {
        let mut sum = 0.0;
        for (x, y, z) in self.shape().interior().iter() {
            sum += self.density(x, y, z);
        }
        sum
    }
}

/// PDF field in Array-of-Structures layout: linear index `cell * Q + q`.
pub struct AosPdfField<M: LatticeModel> {
    shape: Shape,
    data: Vec<f64>,
    _model: std::marker::PhantomData<M>,
}

impl<M: LatticeModel> AosPdfField<M> {
    /// Allocates a zero-initialized field.
    pub fn new(shape: Shape) -> Self {
        AosPdfField {
            shape,
            data: vec![0.0; shape.alloc_cells() * M::Q],
            _model: std::marker::PhantomData,
        }
    }

    /// Raw storage (cell-major, `Q` values per cell).
    #[inline(always)]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Linear base index of a cell's PDF group.
    #[inline(always)]
    pub fn cell_base(&self, x: i32, y: i32, z: i32) -> usize {
        self.shape.idx(x, y, z) * M::Q
    }

    /// Swaps storage with another field of identical shape (A/B pattern).
    pub fn swap(&mut self, other: &mut Self) {
        assert_eq!(self.shape, other.shape);
        std::mem::swap(&mut self.data, &mut other.data);
    }
}

impl<M: LatticeModel> Clone for AosPdfField<M> {
    fn clone(&self) -> Self {
        AosPdfField { shape: self.shape, data: self.data.clone(), _model: std::marker::PhantomData }
    }
}

impl<M: LatticeModel> PdfField<M> for AosPdfField<M> {
    #[inline(always)]
    fn shape(&self) -> Shape {
        self.shape
    }

    #[inline(always)]
    fn get(&self, x: i32, y: i32, z: i32, q: usize) -> f64 {
        self.data[self.shape.idx(x, y, z) * M::Q + q]
    }

    #[inline(always)]
    fn set(&mut self, x: i32, y: i32, z: i32, q: usize, v: f64) {
        self.data[self.shape.idx(x, y, z) * M::Q + q] = v;
    }

    fn get_cell(&self, x: i32, y: i32, z: i32, out: &mut [f64]) {
        let base = self.cell_base(x, y, z);
        out[..M::Q].copy_from_slice(&self.data[base..base + M::Q]);
    }

    fn set_cell(&mut self, x: i32, y: i32, z: i32, vals: &[f64]) {
        let base = self.cell_base(x, y, z);
        self.data[base..base + M::Q].copy_from_slice(&vals[..M::Q]);
    }
}

/// PDF field in Structure-of-Arrays layout: one array per direction,
/// linear index `q * cells + position`.
///
/// # Storage: the box or a row table
///
/// By default a field stores every cell of its ghost-inclusive box, the
/// position of a cell being [`Shape::idx`]. A field built
/// [`with_rows`](Self::with_rows) stores only the cells of a
/// [`RowTable`] — a carved block's read set — at the table's positions,
/// each stored x-row contiguous. The [`PdfField`] accessors are total
/// either way under one rule: **a cell the store does not hold reads as
/// `0.0`, and a write to it is dropped.** That keeps whole-box walks
/// (dumps, whole-slab ghost packs and unpacks, equilibrium fills) valid
/// on both storages; the sweeps and boundary links never reach an
/// unstored cell (their table lookups check it).
///
/// # In-place (AA-pattern) storage parity
///
/// Besides the classic two-field pull scheme, this field supports the
/// single-buffer AA-pattern update. There the *storage convention*
/// alternates every time step: after the even ("transport") sweep the
/// post-collision value of direction `q` at cell `x` lives at storage slot
/// `(x + c_q, q̄)` — one hop downstream in the *opposite* direction's grid
/// — and the subsequent odd ("local") sweep puts everything back in the
/// canonical slot. The [`parity`](Self::parity) flag records which
/// convention the buffer currently uses; the [`PdfField`] accessors
/// transparently translate logical `(x, q)` coordinates to the rotated
/// storage slots when `parity` is odd, so layout-agnostic code (boundary
/// sweeps, ghost pack/unpack, probes, validation) works unmodified at both
/// parities. Raw accessors (`dir`, `dir_mut`, `data`, `dirs_mut`) always
/// expose the untranslated storage view.
pub struct SoaPdfField<M: LatticeModel> {
    shape: Shape,
    /// The stored rows; `None` stores the whole box.
    rows: Option<Arc<RowTable>>,
    data: Vec<f64>,
    parity: bool,
    _model: std::marker::PhantomData<M>,
}

impl<M: LatticeModel> SoaPdfField<M> {
    /// Allocates a zero-initialized field over the whole box of `shape`
    /// (even/canonical parity).
    pub fn new(shape: Shape) -> Self {
        SoaPdfField {
            shape,
            rows: None,
            data: vec![0.0; shape.alloc_cells() * M::Q],
            parity: false,
            _model: std::marker::PhantomData,
        }
    }

    /// Allocates a zero-initialized field storing the cells of `rows`
    /// only (even parity).
    pub fn with_rows(rows: Arc<RowTable>) -> Self {
        SoaPdfField {
            shape: rows.shape(),
            data: vec![0.0; rows.cells() * M::Q],
            rows: Some(rows),
            parity: false,
            _model: std::marker::PhantomData,
        }
    }

    /// A zero-initialized field with this one's shape and storage (even
    /// parity).
    pub fn zeroed_like(&self) -> Self {
        match &self.rows {
            Some(rows) => Self::with_rows(rows.clone()),
            None => Self::new(self.shape),
        }
    }

    /// A field of `shape` that holds no storage: the second buffer of a
    /// single-buffer (in-place) block, which never reads or writes it.
    /// `data()` is empty and every cell access panics.
    pub fn empty(shape: Shape) -> Self {
        SoaPdfField {
            shape,
            rows: None,
            data: Vec::new(),
            parity: false,
            _model: std::marker::PhantomData,
        }
    }

    /// The row table of a row store; `None` when the whole box is stored.
    #[inline(always)]
    pub fn rows(&self) -> Option<&RowTable> {
        self.rows.as_deref()
    }

    /// Stored cells per direction: the box's allocated cells, or the row
    /// table's.
    #[inline(always)]
    pub fn cells(&self) -> usize {
        self.rows.as_ref().map_or(self.shape.alloc_cells(), |rows| rows.cells())
    }

    /// Current storage parity: `false` = canonical (pull-compatible)
    /// layout, `true` = rotated AA layout (logical `(x, q)` is stored at
    /// `(x + c_q, q̄)`).
    #[inline(always)]
    pub fn parity(&self) -> bool {
        self.parity
    }

    /// Sets the storage-parity flag. Does not move any data — callers
    /// (the in-place sweeps) flip this exactly when they change the
    /// storage convention.
    #[inline(always)]
    pub fn set_parity(&mut self, parity: bool) {
        self.parity = parity;
    }

    /// Storage slot of logical PDF `(x, y, z, q)` on box storage, under
    /// the current parity.
    #[inline(always)]
    fn box_slot(&self, x: i32, y: i32, z: i32, q: usize) -> usize {
        let ([x, y, z], k) = stored_cell::<M>(self.parity, x, y, z, q);
        k * self.shape.alloc_cells() + self.shape.idx(x, y, z)
    }

    /// Storage slot of logical PDF `(x, y, z, q)` under the current
    /// parity, if the cell it maps to is stored.
    #[inline(always)]
    fn slot(&self, x: i32, y: i32, z: i32, q: usize) -> Option<usize> {
        match &self.rows {
            None => Some(self.box_slot(x, y, z, q)),
            Some(rows) => {
                let (part, s) = stored_part::<M>(rows, self.parity, q, x, y, z, 1);
                (!part.is_empty()).then_some(s)
            }
        }
    }

    /// Borrowed view of a row, contiguous at either parity (odd parity
    /// only moves its start to `(x0, y, z) + c_q` in `q̄`'s array): the
    /// slots `get` visits. Panics if the store does not hold the whole
    /// row.
    #[inline(always)]
    pub fn row(&self, q: usize, x0: i32, y: i32, z: i32, len: usize) -> &[f64] {
        let s = match &self.rows {
            None => self.box_slot(x0, y, z, q),
            Some(rows) => {
                let (part, s) = stored_part::<M>(rows, self.parity, q, x0, y, z, len);
                assert!(part.len() == len, "row of {len} from ({x0}, {y}, {z}) is not stored");
                s
            }
        };
        &self.data[s..s + len]
    }

    /// The row of `buf.len()` PDFs `q` from `(x0, y, z)` on: borrowed on
    /// box storage, [`read_row`](PdfField::read_row) into `buf` on a row
    /// store.
    #[inline(always)]
    pub fn row_or_read<'a>(
        &'a self,
        q: usize,
        x0: i32,
        y: i32,
        z: i32,
        buf: &'a mut [f64],
    ) -> &'a [f64] {
        if self.rows.is_none() {
            return self.row(q, x0, y, z, buf.len());
        }
        self.read_row(q, x0, y, z, buf);
        buf
    }

    /// The stored array of direction `q`.
    #[inline(always)]
    pub fn dir(&self, q: usize) -> &[f64] {
        let n = self.cells();
        &self.data[q * n..(q + 1) * n]
    }

    /// Mutable stored array of direction `q`.
    #[inline(always)]
    pub fn dir_mut(&mut self, q: usize) -> &mut [f64] {
        let n = self.cells();
        &mut self.data[q * n..(q + 1) * n]
    }

    /// Raw storage (direction-major).
    #[inline(always)]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The `Q` per-direction arrays as a line table (`N` must be `M::Q`;
    /// a fixed-size array, so a sweep builds it without allocating).
    pub fn dirs<const N: usize>(&self) -> [&[f64]; N] {
        assert_eq!(N, M::Q, "line table size must equal the model's Q");
        let n = self.cells();
        std::array::from_fn(|q| &self.data[q * n..(q + 1) * n])
    }

    /// Splits the storage into the `Q` per-direction mutable arrays (`N`
    /// must be `M::Q`); see [`SoaPdfField::dirs`].
    pub fn dirs_mut<const N: usize>(&mut self) -> [&mut [f64]; N] {
        self.rows_and_dirs_mut().1
    }

    /// [`rows`](Self::rows) beside [`dirs_mut`](Self::dirs_mut), for a
    /// sweep that looks its runs up in the table it writes.
    pub fn rows_and_dirs_mut<const N: usize>(&mut self) -> (Option<&RowTable>, [&mut [f64]; N]) {
        assert_eq!(N, M::Q, "line table size must equal the model's Q");
        let n = self.cells();
        let (rows, mut rest) = self.rows_and_data_mut();
        let dirs = std::array::from_fn(|_| {
            let (grid, tail) = std::mem::take(&mut rest).split_at_mut(n);
            rest = tail;
            grid
        });
        (rows, dirs)
    }

    /// [`rows`](Self::rows) beside [`data_mut`](Self::data_mut).
    pub fn rows_and_data_mut(&mut self) -> (Option<&RowTable>, &mut [f64]) {
        (self.rows.as_deref(), &mut self.data)
    }

    /// True if `other` has this field's shape and stores the same cells
    /// at the same positions.
    pub fn same_storage(&self, other: &Self) -> bool {
        self.shape == other.shape
            && match (&self.rows, &other.rows) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
                _ => false,
            }
    }

    /// Swaps storage with another field of identical shape and storage
    /// (A/B pattern).
    pub fn swap(&mut self, other: &mut Self) {
        assert!(self.same_storage(other), "swap between fields of different storage");
        std::mem::swap(&mut self.data, &mut other.data);
        std::mem::swap(&mut self.parity, &mut other.parity);
    }
}

impl<M: LatticeModel> Clone for SoaPdfField<M> {
    fn clone(&self) -> Self {
        SoaPdfField {
            shape: self.shape,
            rows: self.rows.clone(),
            data: self.data.clone(),
            parity: self.parity,
            _model: std::marker::PhantomData,
        }
    }
}

impl<M: LatticeModel> PdfField<M> for SoaPdfField<M> {
    #[inline(always)]
    fn shape(&self) -> Shape {
        self.shape
    }

    /// `0.0` for a cell the store does not hold.
    #[inline(always)]
    fn get(&self, x: i32, y: i32, z: i32, q: usize) -> f64 {
        self.slot(x, y, z, q).map_or(0.0, |s| self.data[s])
    }

    /// Dropped for a cell the store does not hold.
    #[inline(always)]
    fn set(&mut self, x: i32, y: i32, z: i32, q: usize, v: f64) {
        if let Some(s) = self.slot(x, y, z, q) {
            self.data[s] = v;
        }
    }

    /// Zeros for the cells the store does not hold.
    #[inline(always)]
    fn read_row(&self, q: usize, x0: i32, y: i32, z: i32, out: &mut [f64]) {
        let Some(rows) = &self.rows else {
            return copy_row(self.row(q, x0, y, z, out.len()), out);
        };
        let (part, s) = stored_part::<M>(rows, self.parity, q, x0, y, z, out.len());
        if part.len() < out.len() {
            out.fill(0.0);
        }
        let n = part.len();
        copy_row(&self.data[s..s + n], &mut out[part]);
    }

    /// Drops the values of the cells the store does not hold.
    #[inline(always)]
    fn write_row(&mut self, q: usize, x0: i32, y: i32, z: i32, vals: &[f64]) {
        let Some(rows) = &self.rows else {
            let s = self.box_slot(x0, y, z, q);
            return copy_row(vals, &mut self.data[s..s + vals.len()]);
        };
        let (part, s) = stored_part::<M>(rows, self.parity, q, x0, y, z, vals.len());
        let n = part.len();
        copy_row(&vals[part], &mut self.data[s..s + n]);
    }

    /// One `fill` per direction array; canonical parity only.
    fn fill_equilibrium(&mut self, rho: f64, u: [f64; 3]) {
        assert!(!self.parity, "equilibrium fill requires canonical (even) storage parity");
        let mut feq = vec![0.0; M::Q];
        equilibrium_all::<M>(rho, u, &mut feq);
        let n = self.cells();
        for (q, &f) in feq.iter().enumerate() {
            self.data[q * n..(q + 1) * n].fill(f);
        }
    }
}

/// The storage cell and direction array of logical PDF `(x, y, z, q)` at
/// parity `odd`: at odd parity logical `(x, q)` lives at `(x + c_q, q̄)`.
#[inline(always)]
fn stored_cell<M: LatticeModel>(odd: bool, x: i32, y: i32, z: i32, q: usize) -> ([i32; 3], usize) {
    if odd {
        let c = M::velocities()[q];
        ([x + c[0] as i32, y + c[1] as i32, z + c[2] as i32], M::inverse()[q])
    } else {
        ([x, y, z], q)
    }
}

/// The stored part of the logical row of `len` PDFs `q` from `(x0, y, z)`
/// on in a row store of `rows` at parity `odd`: the sub-range of the row
/// it covers and the storage slot of that sub-range's first value. Odd
/// parity only moves the row's start ([`stored_cell`]), so a stored row
/// is contiguous at either parity.
#[allow(clippy::too_many_arguments)]
fn stored_part<M: LatticeModel>(
    rows: &RowTable,
    odd: bool,
    q: usize,
    x0: i32,
    y: i32,
    z: i32,
    len: usize,
) -> (Range<usize>, usize) {
    let ([x, y, z], k) = stored_cell::<M>(odd, x0, y, z, q);
    let r = rows.row(y, z);
    let lo = (r.x0 as i64 - x as i64).clamp(0, len as i64);
    let hi = (r.x0 as i64 + r.len as i64 - x as i64).clamp(lo, len as i64);
    let (lo, hi) = (lo as usize, hi as usize);
    // An empty part has no slot; 0 keeps `data[s..s]` valid.
    let s = if lo < hi {
        k * rows.cells() + r.offset as usize + (x + lo as i32 - r.x0) as usize
    } else {
        0
    };
    (lo..hi, s)
}

/// `copy_from_slice`; a one-cell row (x-face slabs) skips the `memcpy` call.
#[inline(always)]
fn copy_row(from: &[f64], to: &mut [f64]) {
    match (from, to) {
        ([v], [slot]) => *slot = *v,
        (from, to) => to.copy_from_slice(from),
    }
}

/// Copies the contents of one PDF field into another of identical shape,
/// regardless of layout. Used by tests comparing kernel tiers.
pub fn copy_pdf_field<M: LatticeModel, A: PdfField<M>, B: PdfField<M>>(src: &A, dst: &mut B) {
    assert_eq!(src.shape(), dst.shape());
    let mut buf = vec![0.0; M::Q];
    for (x, y, z) in src.shape().with_ghosts().iter() {
        src.get_cell(x, y, z, &mut buf);
        dst.set_cell(x, y, z, &buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_lattice::D3Q19;

    #[test]
    fn aos_set_get_roundtrip() {
        let mut f = AosPdfField::<D3Q19>::new(Shape::cube(4));
        f.set(1, 2, 3, 7, 0.25);
        f.set(-1, -1, -1, 0, 1.5); // ghost corner
        assert_eq!(f.get(1, 2, 3, 7), 0.25);
        assert_eq!(f.get(-1, -1, -1, 0), 1.5);
        assert_eq!(f.get(1, 2, 3, 8), 0.0);
    }

    #[test]
    fn soa_set_get_roundtrip() {
        let mut f = SoaPdfField::<D3Q19>::new(Shape::cube(4));
        f.set(0, 0, 0, 18, 0.125);
        assert_eq!(f.get(0, 0, 0, 18), 0.125);
        // The value lands in direction 18's grid.
        let n = f.shape().alloc_cells();
        assert_eq!(f.dir(18).len(), n);
        assert_eq!(f.dir(18)[f.shape().idx(0, 0, 0)], 0.125);
    }

    #[test]
    fn layouts_agree_through_trait() {
        let shape = Shape::new(3, 4, 2, 1);
        let mut a = AosPdfField::<D3Q19>::new(shape);
        let mut s = SoaPdfField::<D3Q19>::new(shape);
        a.fill_equilibrium(1.05, [0.02, -0.01, 0.03]);
        s.fill_equilibrium(1.05, [0.02, -0.01, 0.03]);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                assert_eq!(a.get(x, y, z, q), s.get(x, y, z, q));
            }
        }
    }

    #[test]
    fn equilibrium_fill_macroscopic_values() {
        let mut f = AosPdfField::<D3Q19>::new(Shape::cube(3));
        f.fill_equilibrium(1.1, [0.05, 0.0, -0.02]);
        assert!((f.density(1, 1, 1) - 1.1).abs() < 1e-14);
        let u = f.velocity(2, 0, 1);
        assert!((u[0] - 0.05).abs() < 1e-14);
        assert!((u[2] + 0.02).abs() < 1e-14);
        let expected_mass = 1.1 * f.shape().interior_cells() as f64;
        assert!((f.total_mass() - expected_mass).abs() < 1e-10);
    }

    #[test]
    fn cross_layout_copy() {
        let shape = Shape::cube(3);
        let mut a = AosPdfField::<D3Q19>::new(shape);
        a.fill_equilibrium(0.9, [0.01, 0.02, 0.03]);
        a.set(0, 1, 2, 5, 42.0);
        let mut s = SoaPdfField::<D3Q19>::new(shape);
        copy_pdf_field::<D3Q19, _, _>(&a, &mut s);
        assert_eq!(s.get(0, 1, 2, 5), 42.0);
        assert_eq!(s.get(2, 2, 2, 11), a.get(2, 2, 2, 11));
    }

    /// Parity-mapped accessors address the rotated AA storage: logical
    /// `(x, q)` at odd parity is slot `(x + c_q, q̄)`, and the mapping is
    /// its own inverse under `set`/`get`.
    #[test]
    fn parity_accessors_address_rotated_slots() {
        use trillium_lattice::LatticeModel;
        let shape = Shape::new(4, 3, 5, 1);
        let mut f = SoaPdfField::<D3Q19>::new(shape);
        assert!(!f.parity());
        f.set_parity(true);
        for q in 0..19 {
            f.set(1, 1, 2, q, 100.0 + q as f64);
        }
        for q in 0..19 {
            // The logical read sees what the logical write stored...
            assert_eq!(f.get(1, 1, 2, q), 100.0 + q as f64);
            // ...and the raw slot it landed in is the rotated one.
            let c = D3Q19::velocities()[q];
            let qi = D3Q19::inverse()[q];
            let raw = f.dir(qi)[shape.idx(1 + c[0] as i32, 1 + c[1] as i32, 2 + c[2] as i32)];
            assert_eq!(raw, 100.0 + q as f64);
        }
        // Back at even parity the same coordinates address canonical slots.
        f.set_parity(false);
        f.set(1, 1, 2, 4, -7.0);
        assert_eq!(f.dir(4)[shape.idx(1, 1, 2)], -7.0);
    }

    /// Every `(q, x0, y, z, len)` whose row the field can hold: at odd
    /// parity a row of `q` lives one hop along `c_q`, so rows that start
    /// in (or run into) the ghost layer exist only for inward directions.
    fn addressable_rows(shape: Shape, odd: bool) -> Vec<(usize, i32, i32, i32, usize)> {
        use trillium_lattice::LatticeModel;
        let all = shape.with_ghosts();
        let mut rows = Vec::new();
        for q in 0..19 {
            let c = D3Q19::velocities()[q].map(|c| if odd { c as i32 } else { 0 });
            for (x0, y, z) in all.iter() {
                if !all.y.contains(&(y + c[1])) || !all.z.contains(&(z + c[2])) {
                    continue;
                }
                let full = (all.x.end - x0) as usize;
                for len in [0, 1, full - 1, full] {
                    if all.x.contains(&(x0 + c[0])) && x0 + c[0] + len as i32 <= all.x.end {
                        rows.push((q, x0, y, z, len));
                    }
                }
            }
        }
        rows
    }

    /// The row contract: `read_row` / `write_row` (and SoA's borrowed
    /// `row` / `row_mut`) are `get` / `set` along +x — both layouts, both
    /// parities, ghost coordinates included, lengths 0, 1 and full.
    #[test]
    fn rows_are_the_per_cell_sequence() {
        let shape = Shape::new(5, 4, 3, 1);
        let tagged =
            |x: i32, y: i32, z: i32, q: usize| (x + 10 * y + 100 * z) as f64 + 0.01 * q as f64;
        let mut aos = AosPdfField::<D3Q19>::new(shape);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                aos.set(x, y, z, q, tagged(x, y, z, q));
            }
        }
        for odd in [false, true] {
            let mut soa = SoaPdfField::<D3Q19>::new(shape);
            soa.set_parity(odd);
            let rows = addressable_rows(shape, odd);
            assert!(rows.iter().any(|r| r.1 < 0 && r.4 == shape.ax()), "a full padded row");
            for &(q, x0, y, z, len) in &rows {
                // Written as a row, read back cell by cell.
                let vals: Vec<f64> = (x0..).take(len).map(|x| tagged(x, y, z, q)).collect();
                soa.write_row(q, x0, y, z, &vals);
                for (x, v) in (x0..).zip(&vals) {
                    assert_eq!(soa.get(x, y, z, q), *v, "write_row q={q} ({x},{y},{z}) odd={odd}");
                }
                // Read as a row, three ways.
                let mut out = vec![-1.0; len];
                soa.read_row(q, x0, y, z, &mut out);
                assert_eq!(out, vals);
                assert_eq!(soa.row(q, x0, y, z, len), vals);
                if !odd {
                    aos.read_row(q, x0, y, z, &mut out);
                    assert_eq!(out, vals, "AoS read_row");
                }
            }
        }
        // AoS `write_row` is `set`.
        aos.write_row(3, -1, 2, 1, &[1.0, 2.0, 3.0]);
        assert_eq!(
            [aos.get(-1, 2, 1, 3), aos.get(0, 2, 1, 3), aos.get(1, 2, 1, 3)],
            [1.0, 2.0, 3.0]
        );
        assert_eq!(aos.get(2, 2, 1, 3), tagged(2, 2, 1, 3));
    }

    /// The trait's per-cell equilibrium fill, as AoS still runs it.
    fn fill_equilibrium_per_cell(f: &mut SoaPdfField<D3Q19>, rho: f64, u: [f64; 3]) {
        let mut feq = [0.0; 19];
        equilibrium_all::<D3Q19>(rho, u, &mut feq);
        for (x, y, z) in f.shape().with_ghosts().iter() {
            f.set_cell(x, y, z, &feq);
        }
    }

    #[test]
    fn soa_grid_fill_equals_the_per_cell_fill() {
        let shape = Shape::new(5, 4, 3, 1);
        let (mut by_grid, mut by_cell) = (SoaPdfField::new(shape), SoaPdfField::new(shape));
        by_grid.fill_equilibrium(1.05, [0.02, -0.01, 0.03]);
        fill_equilibrium_per_cell(&mut by_cell, 1.05, [0.02, -0.01, 0.03]);
        let bits =
            |f: &SoaPdfField<D3Q19>| f.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&by_grid), bits(&by_cell));
    }

    #[test]
    #[should_panic(expected = "canonical (even) storage parity")]
    fn soa_equilibrium_fill_rejects_odd_parity() {
        let mut f = SoaPdfField::<D3Q19>::new(Shape::cube(3));
        f.set_parity(true);
        f.fill_equilibrium(1.0, [0.0; 3]);
    }

    /// The accessor rule of a row store: `get` of a cell outside the row
    /// table reads `0.0` and `set` there is dropped, at either parity;
    /// every stored value round-trips through `set`/`get`, and a row read
    /// across a stored interval's ends holds the stored values and zeros.
    #[test]
    fn row_store_reads_unstored_cells_as_zero_and_drops_their_writes() {
        use crate::flags::{CellFlags, FlagField, FlagOps};
        use crate::sparse::{RowIntervals, RowTable};
        use trillium_lattice::LatticeModel;
        let shape = Shape::new(6, 4, 3, 1);
        let mut flags = FlagField::new(shape);
        for (x, y, z) in [(2, 1, 1), (3, 1, 1), (4, 2, 1)] {
            flags.set_flags(x, y, z, CellFlags::FLUID);
        }
        let table = Arc::new(RowTable::pull_reads::<D3Q19>(shape, &RowIntervals::build(&flags)));
        assert!(0 < table.cells() && table.cells() < shape.alloc_cells() / 2);
        let tagged = |x: i32, y: i32, z: i32, q: usize| {
            1.0 + (x + 10 * y + 100 * z) as f64 + 0.01 * q as f64
        };
        let all = shape.with_ghosts();
        for odd in [false, true] {
            // Whether logical `(x, y, z, q)` maps to a stored cell.
            let held = |x: i32, y: i32, z: i32, q: usize| {
                let c = D3Q19::velocities()[q].map(|c| if odd { c as i32 } else { 0 });
                table.pos(x + c[0], y + c[1], z + c[2]).is_some()
            };
            let mut f = SoaPdfField::<D3Q19>::with_rows(table.clone());
            f.set_parity(odd);
            assert_eq!((f.cells(), f.data().len()), (table.cells(), 19 * table.cells()));
            for (x, y, z) in all.iter() {
                for q in 0..19 {
                    f.set(x, y, z, q, tagged(x, y, z, q));
                }
            }
            let mut stored = 0;
            for (x, y, z) in all.iter() {
                for q in 0..19 {
                    let want = if held(x, y, z, q) { tagged(x, y, z, q) } else { 0.0 };
                    assert_eq!(f.get(x, y, z, q), want, "({x},{y},{z}) q={q} odd={odd}");
                    stored += held(x, y, z, q) as usize;
                }
            }
            // Every stored slot was written once; nothing else was.
            assert_eq!(stored, f.data().len());
            assert!(f.data().iter().all(|&v| v != 0.0));
            // Whole box rows through the row accessors: stored cells take
            // the row's values, the rest read back as zeros.
            for q in 0..19 {
                for z in all.z.clone() {
                    for y in all.y.clone() {
                        let vals: Vec<f64> = all.x.clone().map(|x| -tagged(x, y, z, q)).collect();
                        f.write_row(q, all.x.start, y, z, &vals);
                        let mut out = vec![7.0; vals.len()];
                        f.read_row(q, all.x.start, y, z, &mut out);
                        for (x, (&v, &got)) in all.x.clone().zip(vals.iter().zip(&out)) {
                            assert_eq!(got, if held(x, y, z, q) { v } else { 0.0 });
                            assert_eq!(got, f.get(x, y, z, q));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn swap_exchanges_contents() {
        let shape = Shape::cube(2);
        let mut a = SoaPdfField::<D3Q19>::new(shape);
        let mut b = SoaPdfField::<D3Q19>::new(shape);
        a.set(0, 0, 0, 1, 7.0);
        b.set(0, 0, 0, 1, 9.0);
        a.swap(&mut b);
        assert_eq!(a.get(0, 0, 0, 1), 9.0);
        assert_eq!(b.get(0, 0, 0, 1), 7.0);
    }
}
