//! Ghost-layer exchange for PDF fields between neighboring blocks.
//!
//! In every time step the ghost layer of each block is synchronized with
//! the boundary cells of its neighbors (paper §2.2). Only the PDFs that
//! actually stream across the shared boundary are transferred: for a face
//! link those whose velocity matches the link direction in the nonzero
//! axes (5 per cell for D3Q19), for an edge link exactly one, and none for
//! corner links — D3Q19 has no corner velocities, so corner messages are
//! never sent.
//!
//! Which values cross a link is the receiver's business. A dense block's
//! sweep reads its whole ghost layer, so it receives whole slabs. A carved
//! block's row-interval sweep reads only the ghost values next to the
//! cells it covers; [`GhostRows`] lists those once per block, and the
//! same-rank copies ([`copy_rows_local`], [`copy_rows_self`]) walk the
//! list. Remote messages stay whole slabs: the wire format does not
//! depend on the receiver's geometry.

use bytes::{Buf, BufMut};
use trillium_field::{PdfField, Region, RowIntervals, Shape};
use trillium_lattice::LatticeModel;

/// The directions whose PDFs must be transferred across a block link in
/// direction `d`: all `q` with `c_q[a] == d[a]` on every axis `a` where
/// `d[a] != 0`.
pub fn pdfs_crossing<M: LatticeModel>(d: [i8; 3]) -> Vec<usize> {
    (1..M::Q)
        .filter(|&q| {
            let c = M::velocities()[q];
            (0..3).all(|a| d[a] == 0 || c[a] == d[a])
        })
        .collect()
}

/// Index of link direction `d` in the 27-entry per-direction tables
/// ([`CrossingTable`], [`GhostRows`]); the center is 13.
#[inline(always)]
fn dir_slot(d: [i8; 3]) -> usize {
    ((d[0] + 1) as usize * 9) + ((d[1] + 1) as usize * 3) + (d[2] + 1) as usize
}

/// Precomputed [`pdfs_crossing`] sets for all 26 link directions.
///
/// `pdfs_crossing` allocates a fresh `Vec` per call; computing it once per
/// link per time step put a heap allocation on the ghost-exchange fast
/// path. Build this table once at setup and hand its slices to
/// [`pack_face_with`] / [`unpack_face_with`] instead.
#[derive(Clone, Debug)]
pub struct CrossingTable {
    /// Indexed by `(d0+1)*9 + (d1+1)*3 + (d2+1)`; the center entry is empty.
    sets: Vec<Vec<usize>>,
}

impl CrossingTable {
    /// Builds the table for lattice model `M`.
    pub fn new<M: LatticeModel>() -> Self {
        let mut sets = Vec::with_capacity(27);
        for dx in -1i8..=1 {
            for dy in -1i8..=1 {
                for dz in -1i8..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        sets.push(Vec::new());
                    } else {
                        sets.push(pdfs_crossing::<M>([dx, dy, dz]));
                    }
                }
            }
        }
        CrossingTable { sets }
    }

    /// The crossing-PDF set for link direction `d`.
    #[inline(always)]
    pub fn qs(&self, d: [i8; 3]) -> &[usize] {
        &self.sets[dir_slot(d)]
    }

    /// The crossing-PDF set for the *reversed* direction `-d` — the set
    /// [`unpack_face_with`] needs for data received from direction `d`.
    #[inline(always)]
    pub fn qs_reversed(&self, d: [i8; 3]) -> &[usize] {
        self.qs([-d[0], -d[1], -d[2]])
    }
}

/// Packs the PDFs crossing toward the neighbor in direction `d` from the
/// sender's boundary slab into `buf` (little-endian `f64`).
pub fn pack_face<M: LatticeModel, F: PdfField<M>>(f: &F, d: [i8; 3], buf: &mut Vec<u8>) {
    let qs = pdfs_crossing::<M>(d);
    pack_face_with::<M, F>(f, d, &qs, buf);
}

/// Rows move through a stack buffer of this many cells, in pieces.
const ROW_PIECE: usize = 128;

/// Visits the x-rows of `region` for every PDF of `qs` in the order of a
/// ghost message — `q`, then row piece, then `z`, then `y` — as `visit(q,
/// [x, y, z], row)`, `row` scratch as long as the piece starting there.
fn for_each_row(region: &Region, qs: &[usize], mut visit: impl FnMut(usize, [i32; 3], &mut [f64])) {
    let mut row = [0.0; ROW_PIECE];
    for &q in qs {
        for x in region.x.clone().step_by(ROW_PIECE) {
            let n = ((region.x.end - x) as usize).min(ROW_PIECE);
            for z in region.z.clone() {
                for y in region.y.clone() {
                    visit(q, [x, y, z], &mut row[..n]);
                }
            }
        }
    }
}

/// Allocation-free variant of [`pack_face`]: the caller supplies the
/// crossing set (from a [`CrossingTable`]) and a reusable buffer, which is
/// appended to (clear it first to reuse across steps).
pub fn pack_face_with<M: LatticeModel, F: PdfField<M>>(
    f: &F,
    d: [i8; 3],
    qs: &[usize],
    buf: &mut Vec<u8>,
) {
    let shape = f.shape();
    let region = shape.boundary_slab(d, shape.ghost);
    let start = buf.len();
    buf.resize(start + region.num_cells() * qs.len() * 8, 0);
    let mut out = buf[start..].as_chunks_mut::<8>().0.iter_mut();
    for_each_row(&region, qs, |q, [x, y, z], row| {
        f.read_row(q, x, y, z, row);
        for (v, bytes) in row.iter().zip(&mut out) {
            *bytes = v.to_le_bytes();
        }
    });
}

/// Unpacks data received *from* the neighbor in direction `d` into the
/// receiver's ghost slab in direction `d`. The sender must have packed
/// with direction `-d`; row order and PDF sets then match exactly.
pub fn unpack_face<M: LatticeModel, F: PdfField<M>>(f: &mut F, d: [i8; 3], data: &[u8]) {
    // The receiver needs the PDFs pointing from the ghost slab into the
    // interior, which are exactly those the sender packed with `-d`.
    let qs = pdfs_crossing::<M>([-d[0], -d[1], -d[2]]);
    unpack_face_with::<M, F>(f, d, &qs, data);
}

/// A ghost message whose length is not what the receiving slab holds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GhostSizeMismatch {
    expected: usize,
    got: usize,
}

/// Allocation-free variant of [`unpack_face`] (`qs`: the *reversed* set,
/// [`CrossingTable::qs_reversed`] of `d`) for bytes from a peer: a wrong
/// length is an error and writes nothing.
pub fn try_unpack_face_with<M: LatticeModel, F: PdfField<M>>(
    f: &mut F,
    d: [i8; 3],
    qs: &[usize],
    data: &[u8],
) -> Result<(), GhostSizeMismatch> {
    let shape = f.shape();
    let region = shape.ghost_slab(d, shape.ghost);
    let expected = region.num_cells() * qs.len() * 8;
    if data.len() != expected {
        return Err(GhostSizeMismatch { expected, got: data.len() });
    }
    let mut values = data.as_chunks::<8>().0.iter().map(|b| f64::from_le_bytes(*b));
    for_each_row(&region, qs, |q, [x, y, z], row| {
        row.iter_mut().zip(&mut values).for_each(|(v, got)| *v = got);
        f.write_row(q, x, y, z, row);
    });
    Ok(())
}

/// [`try_unpack_face_with`] for bytes this process packed itself: panics
/// if `data` is not one message for the ghost slab in direction `d`.
pub fn unpack_face_with<M: LatticeModel, F: PdfField<M>>(
    f: &mut F,
    d: [i8; 3],
    qs: &[usize],
    data: &[u8],
) {
    try_unpack_face_with::<M, F>(f, d, qs, data).expect("ghost message packed for this slab");
}

/// Packs only the PDFs of *fluid* cells in the boundary slab toward the
/// neighbor in direction `d`, preceded by a bitmap of which slab cells
/// are included. This is the fluid-aware communication the paper
/// explicitly does *not* do ("our communication scheme is unaware of
/// fluid lattice cells and therefore the amount of data communicated
/// between neighboring blocks is the same as for densely populated
/// blocks", §4.3) — provided here as the ablation/extension, with
/// [`unpack_face_sparse`] as its inverse. For sparse vascular blocks this
/// shrinks face messages by the (1 − fluid fraction) of the slab at the
/// cost of one bit per slab cell and data-dependent message sizes.
pub fn pack_face_sparse<M: LatticeModel, F: PdfField<M>>(
    f: &F,
    flags: &trillium_field::FlagField,
    d: [i8; 3],
    buf: &mut Vec<u8>,
) {
    use trillium_field::FlagOps;
    let shape = f.shape();
    let region = shape.boundary_slab(d, shape.ghost);
    let qs = pdfs_crossing::<M>(d);
    // Bitmap header: one bit per slab cell, slab order.
    let ncells = region.num_cells();
    let mut bitmap = vec![0u8; ncells.div_ceil(8)];
    for (i, (x, y, z)) in region.iter().enumerate() {
        if flags.flags(x, y, z).is_fluid() {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    buf.extend_from_slice(&bitmap);
    for (x, y, z) in region.iter() {
        if flags.flags(x, y, z).is_fluid() {
            for &q in &qs {
                buf.put_f64_le(f.get(x, y, z, q));
            }
        }
    }
}

/// Unpacks a message produced by [`pack_face_sparse`] (sender direction
/// `-d`) into the ghost slab in direction `d`; ghost cells absent from
/// the bitmap keep their previous values.
pub fn unpack_face_sparse<M: LatticeModel, F: PdfField<M>>(f: &mut F, d: [i8; 3], data: &[u8]) {
    let shape = f.shape();
    let region = shape.ghost_slab(d, shape.ghost);
    let qs = pdfs_crossing::<M>([-d[0], -d[1], -d[2]]);
    let ncells = region.num_cells();
    let header = ncells.div_ceil(8);
    assert!(data.len() >= header, "sparse ghost message too short");
    let (bitmap, mut buf) = data.split_at(header);
    for (i, (x, y, z)) in region.iter().enumerate() {
        if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            for &q in &qs {
                f.set(x, y, z, q, buf.get_f64_le());
            }
        }
    }
    assert!(buf.is_empty(), "sparse ghost message has trailing bytes");
}

/// The boundary slab of `src` facing a block `dst` that has it as neighbor
/// in direction `d`, and the translation onto `dst`'s ghost slab there.
fn facing_slab(src: Shape, dst: Shape, d: [i8; 3]) -> (Region, [i32; 3]) {
    let from = src.boundary_slab([-d[0], -d[1], -d[2]], src.ghost);
    let to = dst.ghost_slab(d, dst.ghost);
    assert_eq!(from.num_cells(), to.num_cells(), "block size mismatch across link");
    let shift = [to.x.start - from.x.start, to.y.start - from.y.start, to.z.start - from.z.start];
    (from, shift)
}

/// Direct ghost copy between two blocks owned by the same process:
/// `dst` has `src` as its neighbor in direction `d`.
pub fn copy_face_local<M: LatticeModel, A: PdfField<M>, B: PdfField<M>>(
    src: &A,
    dst: &mut B,
    d: [i8; 3],
) {
    copy_face_local_with::<M, A, B>(src, dst, d, &pdfs_crossing::<M>([-d[0], -d[1], -d[2]]));
}

/// Allocation-free variant of [`copy_face_local`] (`qs`: the *reversed*
/// set): equal to packing `src` toward `-d`, unpacking into `dst` from `d`.
pub fn copy_face_local_with<M: LatticeModel, A: PdfField<M>, B: PdfField<M>>(
    src: &A,
    dst: &mut B,
    d: [i8; 3],
    qs: &[usize],
) {
    let (from, s) = facing_slab(src.shape(), dst.shape(), d);
    for_each_row(&from, qs, |q, [x, y, z], row| {
        src.read_row(q, x, y, z, row);
        dst.write_row(q, x + s[0], y + s[1], z + s[2], row);
    });
}

/// [`copy_face_local_with`] for a block that is its own neighbor in
/// direction `d` (a periodic axis one block wide), inside the one field.
pub fn copy_face_self_with<M: LatticeModel, F: PdfField<M>>(f: &mut F, d: [i8; 3], qs: &[usize]) {
    let (from, s) = facing_slab(f.shape(), f.shape(), d);
    for_each_row(&from, qs, |q, [x, y, z], row| {
        f.read_row(q, x, y, z, row);
        f.write_row(q, x + s[0], y + s[1], z + s[2], row);
    });
}

/// One logical x-row of ghost values: PDF `q` of the `len` cells from
/// `(x0, y, z)` on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GhostRow {
    /// Lattice direction.
    pub q: u32,
    /// First cell.
    pub x0: i32,
    /// Row coordinates.
    pub y: i32,
    /// Row coordinates.
    pub z: i32,
    /// Cells in the row.
    pub len: u32,
}

/// The ghost values a carved block's row-interval sweep reads, per link
/// direction: ghost cell `g` and crossing PDF `q` (the set
/// [`CrossingTable::qs_reversed`] of the slab's direction) are listed iff
/// `g + c_q` is covered, i.e. inside a span of the block's
/// [`RowIntervals`] — exactly the ghost values its pull stencil reads.
/// Every other ghost value of the block is never read, so a copy may leave
/// it stale. Rows come in message order (`q`, then `z`, then `y`); a
/// direction with no covered cell behind it lists nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GhostRows {
    rows: Vec<GhostRow>,
    /// `rows[start[i]..start[i + 1]]` belong to direction slot `i`.
    start: [u32; 28],
}

impl GhostRows {
    /// Lists the ghost rows the sweep over `intervals` reads in a block
    /// of `shape`.
    pub fn build<M: LatticeModel>(shape: Shape, intervals: &RowIntervals) -> Self {
        let (ny, nz) = (shape.ny as i32, shape.nz as i32);
        // The covered x range of every interior row, `y + ny * z`.
        let mut covered = vec![0..0; shape.ny * shape.nz];
        for s in &intervals.spans {
            covered[(s.y + ny * s.z) as usize] = s.x_begin..s.x_end;
        }
        let table = CrossingTable::new::<M>();
        let mut out = GhostRows::default();
        for slot in 0..27 {
            out.start[slot] = out.rows.len() as u32;
            let d = [(slot / 9) as i8 - 1, (slot / 3 % 3) as i8 - 1, (slot % 3) as i8 - 1];
            let slab = shape.ghost_slab(d, shape.ghost);
            for &q in table.qs_reversed(d) {
                let c = M::velocities()[q].map(i32::from);
                for z in slab.z.clone() {
                    for y in slab.y.clone() {
                        let (ty, tz) = (y + c[1], z + c[2]);
                        if !(0..ny).contains(&ty) || !(0..nz).contains(&tz) {
                            continue;
                        }
                        // The slab cells whose target `x + c_q` is covered:
                        // one interval, as the covered range is one.
                        let target = &covered[(ty + ny * tz) as usize];
                        let x0 = slab.x.start.max(target.start - c[0]);
                        let x1 = slab.x.end.min(target.end - c[0]);
                        if x0 < x1 {
                            let len = (x1 - x0) as u32;
                            out.rows.push(GhostRow { q: q as u32, x0, y, z, len });
                        }
                    }
                }
            }
        }
        out.start[27] = out.rows.len() as u32;
        out
    }

    /// The rows listed for the ghost slab in direction `d`.
    pub fn rows(&self, d: [i8; 3]) -> &[GhostRow] {
        let slot = dir_slot(d);
        &self.rows[self.start[slot] as usize..self.start[slot + 1] as usize]
    }

    /// The PDF values listed for the ghost slab in direction `d`.
    pub fn values(&self, d: [i8; 3]) -> usize {
        self.rows(d).iter().map(|r| r.len as usize).sum()
    }
}

/// Visits `rows` in pieces of at most [`ROW_PIECE`] cells, as
/// [`for_each_row`] visits a slab.
fn for_each_listed(rows: &[GhostRow], mut visit: impl FnMut(usize, [i32; 3], &mut [f64])) {
    let mut row = [0.0; ROW_PIECE];
    for r in rows {
        let end = r.x0 + r.len as i32;
        for x in (r.x0..end).step_by(ROW_PIECE) {
            let n = ((end - x) as usize).min(ROW_PIECE);
            visit(r.q as usize, [x, r.y, r.z], &mut row[..n]);
        }
    }
}

/// [`copy_face_local_with`] restricted to the receiver's listed rows:
/// `dst` has `src` as its neighbor in direction `d`, and `rows` is
/// [`GhostRows::rows`] of `d` for `dst`. An empty list copies nothing.
pub fn copy_rows_local<M: LatticeModel, A: PdfField<M>, B: PdfField<M>>(
    src: &A,
    dst: &mut B,
    d: [i8; 3],
    rows: &[GhostRow],
) {
    let (_, s) = facing_slab(src.shape(), dst.shape(), d);
    for_each_listed(rows, |q, [x, y, z], row| {
        src.read_row(q, x - s[0], y - s[1], z - s[2], row);
        dst.write_row(q, x, y, z, row);
    });
}

/// [`copy_face_self_with`] restricted to the listed rows of `f`.
pub fn copy_rows_self<M: LatticeModel, F: PdfField<M>>(f: &mut F, d: [i8; 3], rows: &[GhostRow]) {
    let (_, s) = facing_slab(f.shape(), f.shape(), d);
    for_each_listed(rows, |q, [x, y, z], row| {
        f.read_row(q, x - s[0], y - s[1], z - s[2], row);
        f.write_row(q, x, y, z, row);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use trillium_field::{AosPdfField, Shape};
    use trillium_lattice::{d3q19::dir, D3Q19};

    #[test]
    fn crossing_sets_have_paper_sizes() {
        // Face: 5 PDFs, edge: 1 PDF, corner: 0 PDFs for D3Q19.
        assert_eq!(pdfs_crossing::<D3Q19>([1, 0, 0]).len(), 5);
        assert_eq!(pdfs_crossing::<D3Q19>([0, -1, 0]).len(), 5);
        assert_eq!(pdfs_crossing::<D3Q19>([1, 1, 0]).len(), 1);
        assert_eq!(pdfs_crossing::<D3Q19>([-1, 0, 1]).len(), 1);
        assert_eq!(pdfs_crossing::<D3Q19>([1, 1, 1]).len(), 0);
        // The face set for +x is exactly the east-pointing PDFs.
        let qs = pdfs_crossing::<D3Q19>([1, 0, 0]);
        for q in [dir::E, dir::NE, dir::SE, dir::TE, dir::BE] {
            assert!(qs.contains(&q));
        }
    }

    /// Two blocks side by side in x: pack/unpack must place block A's east
    /// boundary PDFs into block B's west ghost cells so B's pull gets them.
    #[test]
    fn pack_unpack_transfers_boundary_to_ghost() {
        let shape = Shape::cube(4);
        let mut a = AosPdfField::<D3Q19>::new(shape);
        let mut b = AosPdfField::<D3Q19>::new(shape);
        // Tag A's east boundary cells with recognizable values.
        for (x, y, z) in shape.boundary_slab([1, 0, 0], 1).iter() {
            for q in 0..19 {
                a.set(x, y, z, q, 1000.0 + (y * 4 + z) as f64 + q as f64 * 0.01);
            }
        }
        // A is B's neighbor in direction −x: A packs toward +x.
        let mut buf = Vec::new();
        pack_face::<D3Q19, _>(&a, [1, 0, 0], &mut buf);
        unpack_face::<D3Q19, _>(&mut b, [-1, 0, 0], &buf);

        let qs = pdfs_crossing::<D3Q19>([1, 0, 0]);
        for (x, y, z) in shape.ghost_slab([-1, 0, 0], 1).iter() {
            for &q in &qs {
                // B's ghost cell (−1, y, z) mirrors A's boundary (3, y, z).
                assert_eq!(b.get(x, y, z, q), a.get(3, y, z, q), "q={q} at ({x},{y},{z})");
            }
            // PDFs not crossing stay untouched.
            assert_eq!(b.get(x, y, z, dir::W), 0.0);
        }
    }

    /// Ghost exchange across an *edge* link (D3Q19: exactly one PDF per
    /// cell) and a *corner* link (D3Q19: nothing; D3Q27: one PDF). Edge
    /// and corner slabs are thin — one cell line / one cell — and index
    /// bugs there don't show up in face-only tests.
    #[test]
    fn edge_and_corner_links_transfer_exactly_their_pdfs() {
        use trillium_lattice::{LatticeModel, D3Q27};
        let shape = Shape::cube(4);

        // --- edge [1, 1, 0] on D3Q19: the single NE-pointing PDF -------
        let mut a = AosPdfField::<D3Q19>::new(shape);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                a.set(x, y, z, q, (x + 10 * y + 100 * z) as f64 + 0.001 * q as f64);
            }
        }
        let mut b = AosPdfField::<D3Q19>::new(shape);
        let mut buf = Vec::new();
        pack_face::<D3Q19, _>(&a, [1, 1, 0], &mut buf);
        // The edge slab is a 1×1×4 line of cells carrying one PDF each.
        assert_eq!(buf.len(), 4 * 8);
        unpack_face::<D3Q19, _>(&mut b, [-1, -1, 0], &buf);
        let qs = pdfs_crossing::<D3Q19>([1, 1, 0]);
        assert_eq!(qs, vec![dir::NE]);
        let sslab = shape.boundary_slab([1, 1, 0], 1);
        let gslab = shape.ghost_slab([-1, -1, 0], 1);
        for ((sx, sy, sz), (gx, gy, gz)) in sslab.iter().zip(gslab.iter()) {
            assert_eq!(b.get(gx, gy, gz, dir::NE), a.get(sx, sy, sz, dir::NE));
            // Everything else in the ghost cell stays zero.
            for q in (0..19).filter(|&q| q != dir::NE) {
                assert_eq!(b.get(gx, gy, gz, q), 0.0, "q={q} leaked across the edge");
            }
        }

        // --- corner [1, 1, 1] ------------------------------------------
        // D3Q19 has no corner velocities: the message is empty.
        assert!(pdfs_crossing::<D3Q19>([1, 1, 1]).is_empty());
        let mut buf = Vec::new();
        pack_face::<D3Q19, _>(&a, [1, 1, 1], &mut buf);
        assert!(buf.is_empty(), "D3Q19 corner message must carry nothing");

        // D3Q27 has one: the (1,1,1) velocity, for the single corner cell.
        let q27 = pdfs_crossing::<D3Q27>([1, 1, 1]);
        assert_eq!(q27.len(), 1);
        assert_eq!(D3Q27::velocities()[q27[0]], [1, 1, 1]);
        let mut a27 = AosPdfField::<D3Q27>::new(shape);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..27 {
                a27.set(x, y, z, q, (x + 10 * y + 100 * z) as f64 + 0.001 * q as f64);
            }
        }
        let mut b27 = AosPdfField::<D3Q27>::new(shape);
        let mut buf = Vec::new();
        pack_face::<D3Q27, _>(&a27, [1, 1, 1], &mut buf);
        assert_eq!(buf.len(), 8, "one corner cell, one PDF");
        unpack_face::<D3Q27, _>(&mut b27, [-1, -1, -1], &buf);
        // Corner boundary cell (3,3,3) lands in ghost cell (−1,−1,−1).
        assert_eq!(b27.get(-1, -1, -1, q27[0]), a27.get(3, 3, 3, q27[0]));
        let others = (0..27).filter(|&q| q != q27[0]);
        for q in others {
            assert_eq!(b27.get(-1, -1, -1, q), 0.0, "q={q} leaked across the corner");
        }
    }

    #[test]
    fn local_copy_equals_pack_unpack() {
        let shape = Shape::cube(5);
        let mut a = AosPdfField::<D3Q19>::new(shape);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                a.set(x, y, z, q, (x + 10 * y + 100 * z) as f64 + q as f64 * 0.001);
            }
        }
        // Route 1: bytes.
        let mut b1 = AosPdfField::<D3Q19>::new(shape);
        let mut buf = Vec::new();
        pack_face::<D3Q19, _>(&a, [0, 1, 0], &mut buf);
        unpack_face::<D3Q19, _>(&mut b1, [0, -1, 0], &buf);
        // Route 2: direct copy (a is b2's neighbor in −y).
        let mut b2 = AosPdfField::<D3Q19>::new(shape);
        copy_face_local::<D3Q19, _, _>(&a, &mut b2, [0, -1, 0]);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                assert_eq!(b1.get(x, y, z, q), b2.get(x, y, z, q));
            }
        }
    }

    /// An SoA field whose every storage slot holds a distinct value.
    fn numbered(shape: Shape, odd: bool, offset: f64) -> trillium_field::SoaPdfField<D3Q19> {
        numbered_in(shape, None, odd, offset)
    }

    /// [`numbered`] on the row store of `rows` (`None`: the box).
    fn numbered_in(
        shape: Shape,
        rows: Option<&std::sync::Arc<trillium_field::RowTable>>,
        odd: bool,
        offset: f64,
    ) -> trillium_field::SoaPdfField<D3Q19> {
        let mut f = match rows {
            Some(t) => trillium_field::SoaPdfField::<D3Q19>::with_rows(t.clone()),
            None => trillium_field::SoaPdfField::<D3Q19>::new(shape),
        };
        for (i, v) in f.data_mut().iter_mut().enumerate() {
            *v = offset + i as f64;
        }
        f.set_parity(odd);
        f
    }

    /// The field-to-field copy is pack + unpack without the bytes: all 18
    /// carrying directions, every pairing of sender and receiver storage
    /// parity (an in-place block beside a pull one is the mixed case), and
    /// a block that is its own neighbor — on box storage and on the row
    /// store of a carved block, which drops what it does not hold.
    #[test]
    fn local_and_self_copies_equal_pack_unpack_at_every_parity() {
        use std::sync::Arc;
        use trillium_field::{RowIntervals, RowTable};
        let shape = Shape::new(5, 4, 3, 1);
        let carve = RowIntervals::build(&ball(shape, [2.0, 1.5, 1.0], 2.3));
        let table = Arc::new(RowTable::pull_reads::<D3Q19>(shape, &carve));
        assert!(table.cells() < shape.alloc_cells());
        let crossing = CrossingTable::new::<D3Q19>();
        let dirs = trillium_lattice::d3q19::C.iter().skip(1);
        for rows in [None, Some(&table)] {
            let numbered = |odd, offset| numbered_in(shape, rows, odd, offset);
            let mut wrote = 0;
            for &d in dirs.clone() {
                let rev = [-d[0], -d[1], -d[2]];
                let qs = crossing.qs_reversed(d);
                for (src_odd, dst_odd) in
                    [(false, false), (true, true), (false, true), (true, false)]
                {
                    let what = format!("d={d:?} {src_odd}->{dst_odd} rows={}", rows.is_some());
                    let src = numbered(src_odd, 0.5);
                    let mut by_bytes = numbered(dst_odd, 10_000.5);
                    let mut by_copy = by_bytes.clone();
                    let mut buf = Vec::new();
                    pack_face::<D3Q19, _>(&src, rev, &mut buf);
                    unpack_face::<D3Q19, _>(&mut by_bytes, d, &buf);
                    copy_face_local_with::<D3Q19, _, _>(&src, &mut by_copy, d, qs);
                    assert_eq!(by_bytes.data(), by_copy.data(), "{what}");
                    wrote += usize::from(by_copy.data() != numbered(dst_odd, 10_000.5).data());
                    let mut by_default = numbered(dst_odd, 10_000.5);
                    copy_face_local::<D3Q19, _, _>(&src, &mut by_default, d);
                    assert_eq!(by_default.data(), by_copy.data(), "{what}");
                }
                for odd in [false, true] {
                    let mut by_bytes = numbered(odd, 0.5);
                    let mut by_copy = by_bytes.clone();
                    let mut buf = Vec::new();
                    pack_face::<D3Q19, _>(&by_bytes, rev, &mut buf);
                    unpack_face::<D3Q19, _>(&mut by_bytes, d, &buf);
                    copy_face_self_with::<D3Q19, _>(&mut by_copy, d, qs);
                    assert_eq!(by_bytes.data(), by_copy.data(), "self link d={d:?} odd={odd}");
                }
            }
            // The box takes every copy; the carve has directions whose
            // ghost slab it does not store.
            assert!(if rows.is_none() { wrote == 18 * 4 } else { 0 < wrote && wrote < 18 * 4 });
        }
        assert_eq!(dirs.count(), 18);
    }

    /// A message of the wrong length is an error that writes nothing; the
    /// panicking wrapper is for bytes this process packed itself.
    #[test]
    fn short_ghost_message_is_an_error_not_a_panic() {
        let shape = Shape::cube(4);
        let a = numbered(shape, false, 0.5);
        let table = CrossingTable::new::<D3Q19>();
        let d = [1, 0, 0];
        let mut buf = Vec::new();
        pack_face_with::<D3Q19, _>(&a, [-1, 0, 0], table.qs([-1, 0, 0]), &mut buf);
        let mut b = numbered(shape, false, 9_000.5);
        let untouched = b.clone();
        for bad in [&buf[..buf.len() - 8], &[buf.as_slice(), &[0; 8]].concat(), &[][..]] {
            let err = try_unpack_face_with::<D3Q19, _>(&mut b, d, table.qs_reversed(d), bad);
            assert_eq!(err, Err(GhostSizeMismatch { expected: buf.len(), got: bad.len() }));
            assert_eq!(b.data(), untouched.data());
        }
        assert_eq!(try_unpack_face_with::<D3Q19, _>(&mut b, d, table.qs_reversed(d), &buf), Ok(()));
        assert_ne!(b.data(), untouched.data());
    }

    #[test]
    #[should_panic(expected = "ghost message packed for this slab")]
    fn unpack_face_with_panics_on_a_foreign_length() {
        let mut f = AosPdfField::<D3Q19>::new(Shape::cube(3));
        unpack_face_with::<D3Q19, _>(&mut f, [1, 0, 0], &[5], &[0; 16]);
    }

    /// Sparse packing transfers exactly the fluid cells' PDFs and leaves
    /// other ghost values untouched; on a fully fluid slab it matches the
    /// dense path values.
    #[test]
    fn sparse_pack_unpack_matches_dense_on_fluid() {
        use trillium_field::{CellFlags, FlagField, FlagOps};
        let shape = Shape::cube(4);
        let mut a = AosPdfField::<D3Q19>::new(shape);
        for (x, y, z) in shape.with_ghosts().iter() {
            for q in 0..19 {
                a.set(x, y, z, q, (x + 5 * y + 25 * z) as f64 + 0.01 * q as f64);
            }
        }
        // Half the east boundary slab is fluid.
        let mut flags = FlagField::new(shape);
        for (x, y, z) in shape.boundary_slab([1, 0, 0], 1).iter() {
            if (y + z) % 2 == 0 {
                flags.set_flags(x, y, z, CellFlags::FLUID);
            }
        }
        let mut sparse = Vec::new();
        pack_face_sparse::<D3Q19, _>(&a, &flags, [1, 0, 0], &mut sparse);
        let mut dense = Vec::new();
        pack_face::<D3Q19, _>(&a, [1, 0, 0], &mut dense);
        // 8 of 16 slab cells are fluid: payload halves (plus 2 bitmap bytes).
        assert_eq!(sparse.len(), 2 + dense.len() / 2);

        // Receiver: pre-fill ghosts with a sentinel, then unpack.
        let mut b = AosPdfField::<D3Q19>::new(shape);
        for (x, y, z) in shape.ghost_slab([-1, 0, 0], 1).iter() {
            for q in 0..19 {
                b.set(x, y, z, q, -7.0);
            }
        }
        unpack_face_sparse::<D3Q19, _>(&mut b, [-1, 0, 0], &sparse);
        let qs = pdfs_crossing::<D3Q19>([1, 0, 0]);
        for (x, y, z) in shape.ghost_slab([-1, 0, 0], 1).iter() {
            let fluid = (y + z) % 2 == 0;
            for &q in &qs {
                if fluid {
                    assert_eq!(b.get(x, y, z, q), a.get(3, y, z, q));
                } else {
                    assert_eq!(b.get(x, y, z, q), -7.0, "non-fluid ghost must keep its value");
                }
            }
        }
    }

    /// Interior cells within `r` of `centre` are fluid, everything else
    /// (the ghost layer included) is wall.
    fn ball(shape: Shape, centre: [f64; 3], r: f64) -> trillium_field::FlagField {
        use trillium_field::{CellFlags, FlagField, FlagOps};
        let mut flags = FlagField::filled(shape, CellFlags::NOSLIP.0);
        for (x, y, z) in shape.interior().iter() {
            let p = [x, y, z].map(f64::from);
            if (0..3).map(|a| (p[a] - centre[a]).powi(2)).sum::<f64>() < r * r {
                flags.set_flags(x, y, z, CellFlags::FLUID);
            }
        }
        flags
    }

    /// Every listed ghost value, as `(q, x, y, z)` in list order.
    fn listed(rows: &[GhostRow]) -> Vec<(usize, i32, i32, i32)> {
        let cells =
            |&r: &GhostRow| (0..r.len as i32).map(move |i| (r.q as usize, r.x0 + i, r.y, r.z));
        rows.iter().flat_map(cells).collect()
    }

    /// The list equals its brute-force definition — ghost cell `g` and
    /// crossing PDF `q` iff `g + c_q` is covered — on sphere carves of two
    /// block shapes, for all 18 carrying directions; a face with no
    /// covered cell behind it lists nothing, and so does every corner.
    #[test]
    fn ghost_rows_are_the_ghost_values_a_covered_cell_reads() {
        use std::collections::BTreeSet;
        let table = CrossingTable::new::<D3Q19>();
        let carves = [
            (Shape::cube(8), [3.5, 3.5, 3.5], 4.2),
            (Shape::cube(8), [1.0, 6.0, 2.5], 3.3),
            (Shape::cube(8), [3.5, 3.5, 3.5], 2.5),
            (Shape::new(13, 9, 11, 1), [6.0, 4.0, 5.0], 5.2),
            (Shape::new(13, 9, 11, 1), [12.0, 0.5, 3.0], 6.5),
        ];
        let (mut empty, mut full) = (0, 0);
        for (shape, centre, r) in carves {
            let intervals = RowIntervals::build(&ball(shape, centre, r));
            let covered = |x: i32, y: i32, z: i32| {
                let row = intervals.spans.iter().find(|s| (s.y, s.z) == (y, z));
                row.is_some_and(|s| (s.x_begin..s.x_end).contains(&x))
            };
            let lists = GhostRows::build::<D3Q19>(shape, &intervals);
            for &d in trillium_lattice::d3q19::C.iter().skip(1) {
                let mut want = BTreeSet::new();
                for (x, y, z) in shape.ghost_slab(d, 1).iter() {
                    for &q in table.qs_reversed(d) {
                        let c = D3Q19::velocities()[q].map(i32::from);
                        let t = [x + c[0], y + c[1], z + c[2]];
                        if shape.is_interior(t[0], t[1], t[2]) && covered(t[0], t[1], t[2]) {
                            want.insert((q, x, y, z));
                        }
                    }
                }
                let got = listed(lists.rows(d));
                assert_eq!(got.len(), want.len(), "{shape:?} d={d:?}: a value listed twice");
                assert_eq!(got.into_iter().collect::<BTreeSet<_>>(), want, "{shape:?} d={d:?}");
                assert_eq!(lists.values(d), want.len());
                let qs = table.qs_reversed(d);
                assert!(lists.rows(d).windows(2).all(|w| {
                    let pos = |r: &GhostRow| qs.iter().position(|&q| q == r.q as usize);
                    (pos(&w[0]), w[0].z, w[0].y) < (pos(&w[1]), w[1].z, w[1].y)
                }));
                if want.is_empty() {
                    empty += 1;
                } else {
                    full += 1;
                }
            }
            for d in [[1, 1, 1], [-1, 1, -1], [0, 0, 0]] {
                assert!(lists.rows(d).is_empty() && lists.values(d) == 0);
            }
        }
        assert!(empty >= 18 && full >= 18, "{empty} empty and {full} non-empty lists");
    }

    /// The list walks write exactly the listed values, each equal to what
    /// the full-slab copy writes there, and leave every other slot alone —
    /// across blocks and within one (a periodic self-link), at every
    /// parity pairing.
    #[test]
    fn list_copies_write_the_listed_values_of_the_slab_copy() {
        let shape = Shape::new(13, 9, 11, 1);
        let table = CrossingTable::new::<D3Q19>();
        let lists = GhostRows::build::<D3Q19>(
            shape,
            &RowIntervals::build(&ball(shape, [6.0, 4.0, 5.0], 5.2)),
        );
        for &d in trillium_lattice::d3q19::C.iter().skip(1) {
            let (qs, rows) = (table.qs_reversed(d), lists.rows(d));
            for (src_odd, dst_odd) in [(false, false), (true, false), (false, true)] {
                let src = numbered(shape, src_odd, 0.5);
                let before = numbered(shape, dst_odd, 10_000.5);
                let (mut slab, mut by_rows) = (before.clone(), before.clone());
                copy_face_local_with::<D3Q19, _, _>(&src, &mut slab, d, qs);
                copy_rows_local::<D3Q19, _, _>(&src, &mut by_rows, d, rows);
                let (mut self_slab, mut self_rows) = (before.clone(), before.clone());
                copy_face_self_with::<D3Q19, _>(&mut self_slab, d, qs);
                copy_rows_self::<D3Q19, _>(&mut self_rows, d, rows);
                for (full, got) in [(&slab, &by_rows), (&self_slab, &self_rows)] {
                    // `before` with the listed values of the slab copy.
                    let mut want = before.clone();
                    for (q, x, y, z) in listed(rows) {
                        want.set(x, y, z, q, full.get(x, y, z, q));
                    }
                    assert_eq!(got.data(), want.data(), "d={d:?} {src_odd}->{dst_odd}");
                }
            }
        }
    }

    /// The precomputed table must agree with `pdfs_crossing` for every
    /// link direction, in both orientations.
    #[test]
    fn crossing_table_matches_per_call_computation() {
        let table = CrossingTable::new::<D3Q19>();
        for dx in -1i8..=1 {
            for dy in -1i8..=1 {
                for dz in -1i8..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        assert!(table.qs([0, 0, 0]).is_empty());
                        continue;
                    }
                    let d = [dx, dy, dz];
                    assert_eq!(table.qs(d), pdfs_crossing::<D3Q19>(d).as_slice());
                    assert_eq!(
                        table.qs_reversed(d),
                        pdfs_crossing::<D3Q19>([-dx, -dy, -dz]).as_slice()
                    );
                }
            }
        }
    }

    #[test]
    fn edge_link_sends_single_pdf() {
        let shape = Shape::cube(3);
        let a = AosPdfField::<D3Q19>::new(shape);
        let mut buf = Vec::new();
        pack_face::<D3Q19, _>(&a, [1, 1, 0], &mut buf);
        // 3 cells along the edge × 1 PDF × 8 bytes.
        assert_eq!(buf.len(), 3 * 8);
    }

    #[test]
    fn corner_link_sends_nothing() {
        let shape = Shape::cube(3);
        let a = AosPdfField::<D3Q19>::new(shape);
        let mut buf = Vec::new();
        pack_face::<D3Q19, _>(&a, [1, -1, 1], &mut buf);
        assert!(buf.is_empty());
    }
}
