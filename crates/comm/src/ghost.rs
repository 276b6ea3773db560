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
//! cells it covers; [`GhostRows`] lists those. Messages stay whole slabs:
//! the wire format does not depend on the receiver's geometry.
//!
//! Every ghost value moves through one mechanism, which splits *what*
//! moves from *how* (waLBerla's `PackInfo` and communication scheme): an
//! [`ExchangePlan`] resolves each link once, per step parity, through the
//! storage of both ends — a block's box or row table, or the message of a
//! remote link — into slot runs `(source slot, destination slot, length)`,
//! and a step walks them. A same-rank link moves field to field; a remote
//! link gathers the sender's whole slab into a message laid out as
//! [`pack_face`] lays it out, and scatters a received one into the
//! receiver's listed values. Runs are offsets, valid for either buffer of
//! a pull block; box ends of one shape share one template per direction
//! and parity. The driver builds a rank's plan whenever its blocks are
//! replaced (`RankLoop::new`, migration, recovery);
//! `BlockSim::sync_periodic` builds one of self-links, [`copy_face_local`]
//! one of a single link. [`pack_face`] and [`unpack_face`] are the
//! accessor reference the plan is tested against; no run path calls them.

use crate::CommError;
use bytes::{Buf, BufMut};
use std::borrow::{Borrow, BorrowMut};
use std::collections::HashMap;
use std::ops::Range;
use trillium_field::{PdfField, Region, RowIntervals, Shape, SoaPdfField};
use trillium_lattice::LatticeModel;

/// The directions whose PDFs must be transferred across a block link in
/// direction `d`: all `q` with `c_q[a] == d[a]` on every axis `a` where
/// `d[a] != 0`.
pub fn pdfs_crossing<M: LatticeModel>(d: [i8; 3]) -> Vec<usize> {
    crossing::<M>(d).collect()
}

/// [`pdfs_crossing`] without the allocation.
fn crossing<M: LatticeModel>(d: [i8; 3]) -> impl Iterator<Item = usize> {
    (1..M::Q).filter(move |&q| {
        let c = M::velocities()[q];
        (0..3).all(|a| d[a] == 0 || c[a] == d[a])
    })
}

/// Index of link direction `d` in the 27-entry per-direction tables
/// ([`CrossingTable`], [`GhostRows`]); the center is 13.
#[inline(always)]
fn dir_slot(d: [i8; 3]) -> usize {
    ((d[0] + 1) as usize * 9) + ((d[1] + 1) as usize * 3) + (d[2] + 1) as usize
}

/// The link direction of table index `slot`, the inverse of [`dir_slot`].
fn slot_dir(slot: usize) -> [i8; 3] {
    [(slot / 9) as i8 - 1, (slot / 3 % 3) as i8 - 1, (slot % 3) as i8 - 1]
}

/// Precomputed [`pdfs_crossing`] sets for all 26 link directions, for
/// [`pack_face_with`] / [`unpack_face_with`] (which do not allocate).
#[derive(Clone, Debug)]
pub struct CrossingTable {
    /// Indexed by `(d0+1)*9 + (d1+1)*3 + (d2+1)`; the center entry is empty.
    sets: Vec<Vec<usize>>,
}

impl CrossingTable {
    /// Builds the table for lattice model `M`.
    pub fn new<M: LatticeModel>() -> Self {
        let set = |slot| if slot == 13 { Vec::new() } else { pdfs_crossing::<M>(slot_dir(slot)) };
        CrossingTable { sets: (0..27).map(set).collect() }
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

/// Allocation-free variant of [`unpack_face`] (`qs`: the *reversed* set,
/// [`CrossingTable::qs_reversed`] of `d`). Panics if `data` is not one
/// message for the ghost slab in direction `d`.
pub fn unpack_face_with<M: LatticeModel, F: PdfField<M>>(
    f: &mut F,
    d: [i8; 3],
    qs: &[usize],
    data: &[u8],
) {
    let shape = f.shape();
    let region = shape.ghost_slab(d, shape.ghost);
    let expected = region.num_cells() * qs.len() * 8;
    assert_eq!(data.len(), expected, "ghost message packed for this slab");
    let mut values = data.as_chunks::<8>().0.iter().map(|b| f64::from_le_bytes(*b));
    for_each_row(&region, qs, |q, [x, y, z], row| {
        row.iter_mut().zip(&mut values).for_each(|(v, got)| *v = got);
        f.write_row(q, x, y, z, row);
    });
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
            let d = slot_dir(slot);
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
}

/// One move: `len` values from slot `src` to slot `dst`; zeros if `src`
/// is [`ZERO_FILL`]. A slot is an offset into a block's raw storage or, at
/// the message end of a remote link, a value's position in the message.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Run {
    src: u32,
    dst: u32,
    len: u32,
}

/// The source of a run writing `0.0`: receiving slots whose source the
/// sender does not store (and its accessors read as `0.0`).
const ZERO_FILL: u32 = u32::MAX;

/// One same-rank link of a plan: block `dst` takes `runs[first..end]`
/// from block `src` (the same block on a periodic self-link).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct PlanLink {
    src: u32,
    dst: u32,
    first: u32,
    end: u32,
}

/// The links and runs of one step parity.
#[derive(Clone, Debug, Default)]
struct Moves {
    links: Vec<PlanLink>,
    /// Per remote link: the run ranges of its send and receive halves.
    remote: Vec<[(u32, u32); 2]>,
    runs: Vec<Run>,
}

/// One block as an [`ExchangePlan`] sees it.
pub struct PlanBlock<'a, M: LatticeModel> {
    /// The live field: its storage, box or row table.
    pub field: &'a SoaPdfField<M>,
    /// Storage parity at even and at odd steps: `[false, false]` for
    /// pull, `[false, true]` in place.
    pub parity: [bool; 2],
    /// A carved block's row intervals: it receives its [`GhostRows`]
    /// list. `None`: a dense block, which receives whole slabs.
    pub carve: Option<&'a RowIntervals>,
}

/// Shared run ranges by shape, direction, step parity and the parity of
/// each end (`None`: the message).
type Templates = HashMap<(Shape, [i8; 3], usize, [Option<bool>; 2]), (u32, u32)>;

/// The ghost exchange of a set of blocks as slot runs per step parity (see
/// the module doc): at a receiver's listed values it writes what pack +
/// unpack writes, nothing into an unstored slot, `0.0` from an unstored
/// source.
#[derive(Clone, Debug, Default)]
pub struct ExchangePlan {
    moves: [Moves; 2],
    /// Values per message, one per remote link.
    messages: Vec<u32>,
    /// Per block, what the runs were resolved against: stored cells and
    /// the parity at even and odd steps.
    stamps: Vec<(usize, [bool; 2])>,
    /// What one step moves, see [`counts`](Self::counts).
    counts: [u64; 4],
}

impl ExchangePlan {
    /// Resolves the same-rank `links`, each `(receiver, d, sender)` by
    /// index into `blocks` (the receiver's neighbor in direction `d` is the
    /// sender), and the `remote` links `(block, d)`, numbered in order: the
    /// block sends its slab toward `d` and receives its ghost slab `d`. A
    /// receiver's links should come together (its list is built once per
    /// group).
    pub fn build<M: LatticeModel>(
        blocks: &[PlanBlock<'_, M>],
        links: impl IntoIterator<Item = (usize, [i8; 3], usize)>,
        remote: impl IntoIterator<Item = (usize, [i8; 3])>,
    ) -> Self {
        let stamps = blocks.iter().map(|b| (b.field.cells(), b.parity)).collect();
        let mut plan = ExchangePlan { stamps, ..Default::default() };
        let (mut templates, mut list) = (HashMap::new(), (usize::MAX, GhostRows::default()));
        // The rows a block takes: a carved one's list, a dense one's slab.
        let mut receives = |to: usize, d| match blocks[to].carve {
            Some(_) if list.0 == to => list.1.rows(d).to_vec(),
            Some(carve) => {
                list = (to, GhostRows::build::<M>(blocks[to].field.shape(), carve));
                list.1.rows(d).to_vec()
            }
            None => slab_rows::<M>(blocks[to].field.shape(), d),
        };
        for (to, d, from) in links {
            let rows = receives(to, d);
            plan.counts[0] += values(&rows);
            plan.counts[1] += rows.len() as u64;
            let ends = [Some(&blocks[from]), Some(&blocks[to])];
            let ranges = plan.resolve_rows(&mut templates, ends, d, &rows);
            for (moves, (first, end)) in plan.moves.iter_mut().zip(ranges) {
                if first < end {
                    moves.links.push(PlanLink { src: from as u32, dst: to as u32, first, end });
                }
            }
        }
        for (b, d) in remote {
            let (rev, rows) = ([-d[0], -d[1], -d[2]], receives(b, d));
            let slab = slab_rows::<M>(blocks[b].field.shape(), rev);
            plan.messages.push(values(&slab) as u32);
            plan.counts[2] += values(&slab);
            plan.counts[3] += values(&rows);
            let send = plan.resolve_rows(&mut templates, [Some(&blocks[b]), None], rev, &slab);
            let recv = plan.resolve_rows(&mut templates, [None, Some(&blocks[b])], d, &rows);
            for (odd, moves) in plan.moves.iter_mut().enumerate() {
                moves.remote.push([send[odd], recv[odd]]);
            }
        }
        for moves in &mut plan.moves {
            moves.links.shrink_to_fit();
            moves.remote.shrink_to_fit();
            moves.runs.shrink_to_fit();
        }
        plan
    }

    /// Resolves `rows` (direction `d` of the receiving end) from end `from`
    /// into end `to`, each a block or the message (`None`), into each step
    /// parity's run range; whole slabs between box ends share a template.
    fn resolve_rows<M: LatticeModel>(
        &mut self,
        templates: &mut Templates,
        [from, to]: [Option<&PlanBlock<'_, M>>; 2],
        d: [i8; 3],
        rows: &[GhostRow],
    ) -> [(u32, u32); 2] {
        let shape = from.or(to).expect("a link has a block end").field.shape();
        let shapes = [from, to].map(|end| end.map_or(shape, |b| b.field.shape()));
        assert_eq!(shapes[0], shapes[1], "block size mismatch across link");
        let n = [shape.nx, shape.ny, shape.nz];
        let shift: [i32; 3] = std::array::from_fn(|a| i32::from(d[a]) * n[a] as i32);
        let slab = shape.ghost_slab(d, shape.ghost);
        let qs: Vec<_> = crossing::<M>([-d[0], -d[1], -d[2]]).collect();
        let shared = to.is_none_or(|b| b.carve.is_none())
            && [from, to].into_iter().flatten().all(|b| b.field.rows().is_none());
        std::array::from_fn(|odd| {
            let key = (shape, d, odd, [from, to].map(|end| end.map(|b| b.parity[odd])));
            if let Some(&range) = templates.get(&key).filter(|_| shared) {
                return range;
            }
            let runs = &mut self.moves[odd].runs;
            let first = slot32(runs.len());
            for &r in rows {
                let (q, qi) = (r.q as usize, qs.iter().position(|&q| q == r.q as usize));
                for (x0, len, at) in pieces(&slab, qi.expect("a crossing PDF"), r) {
                    let stored = |end: Option<&PlanBlock<'_, M>>, [x, y, z]: [i32; 3]| match end {
                        Some(b) => {
                            b.field.stored_row(b.parity[odd], q, x0 - x, r.y - y, r.z - z, len)
                        }
                        None => (0..len, at),
                    };
                    resolve(runs, stored(from, shift), stored(to, [0; 3]));
                }
            }
            let range = (first, slot32(runs.len()));
            if shared {
                templates.insert(key, range);
            }
            range
        })
    }

    /// Moves every same-rank value of step parity `odd` between the
    /// fields `data` borrows from `blocks` (their raw storage, as built).
    pub fn apply<B>(&self, odd: bool, blocks: &mut [B], data: impl Fn(&mut B) -> &mut [f64]) {
        let moves = &self.moves[usize::from(odd)];
        for l in &moves.links {
            let runs = &moves.runs[l.first as usize..l.end as usize];
            match blocks.get_disjoint_mut([l.src as usize, l.dst as usize]) {
                Ok([from, to]) => move_runs(runs, Some(data(from)), data(to)),
                Err(_) => move_runs(runs, None, data(&mut blocks[l.dst as usize])),
            }
        }
    }

    /// Gathers the send half of remote link `i` at step parity `odd` from
    /// the sender's raw storage `from` into `buf`, replacing its contents
    /// with the bytes [`pack_face`] writes.
    pub fn gather(&self, odd: bool, i: usize, from: &[f64], buf: &mut Vec<u8>) {
        buf.clear();
        buf.resize(self.messages[i] as usize * 8, 0);
        let out = buf.as_chunks_mut::<8>().0;
        let moves = &self.moves[usize::from(odd)];
        let (first, end) = moves.remote[i][0];
        // The message starts as zeros: a zero run has nothing to write.
        for r in moves.runs[first as usize..end as usize].iter().filter(|r| r.src != ZERO_FILL) {
            let (s, d, n) = (r.src as usize, r.dst as usize, r.len as usize);
            for (o, v) in out[d..d + n].iter_mut().zip(&from[s..s + n]) {
                *o = v.to_le_bytes();
            }
        }
    }

    /// Scatters `m`, a message of remote link `i`, through its receive half
    /// at step parity `odd` into the receiver's raw storage `to`. A message
    /// of the wrong length is [`CommError::Protocol`] and writes nothing.
    pub fn scatter(&self, odd: bool, i: usize, m: &[u8], to: &mut [f64]) -> Result<(), CommError> {
        if m.len() != self.messages[i] as usize * 8 {
            return Err(CommError::Protocol);
        }
        let (m, moves) = (m.as_chunks::<8>().0, &self.moves[usize::from(odd)]);
        let (first, end) = moves.remote[i][1];
        for &Run { src, dst, len } in &moves.runs[first as usize..end as usize] {
            let (s, d, n) = (src as usize, dst as usize, len as usize);
            for (t, v) in to[d..d + n].iter_mut().zip(&m[s..s + n]) {
                *t = f64::from_le_bytes(*v);
            }
        }
        Ok(())
    }

    /// True if `blocks` are the blocks this plan was built against — as
    /// many, with the same stored cells and parities — each at its
    /// parity of step parity `odd`.
    pub fn is_current<'a, M: LatticeModel + 'a>(
        &self,
        odd: bool,
        blocks: impl ExactSizeIterator<Item = PlanBlock<'a, M>>,
    ) -> bool {
        blocks.len() == self.stamps.len()
            && blocks.zip(&self.stamps).all(|(b, &stamp)| {
                (b.field.cells(), b.parity) == stamp
                    && b.field.parity() == b.parity[usize::from(odd)]
            })
    }

    /// What one step moves: PDF values and logical x-rows between blocks,
    /// PDF values gathered into messages (whole slabs) and scattered from
    /// them, each counted as listed (a carved receiver's [`GhostRows`], a
    /// dense one's whole slabs).
    pub fn counts(&self) -> [u64; 4] {
        self.counts
    }

    /// Heap bytes of the runs, links and message lengths.
    pub fn bytes(&self) -> usize {
        let each =
            |m: &Moves| m.links.capacity() * 16 + m.remote.capacity() * 16 + m.runs.capacity() * 12;
        self.moves.iter().map(each).sum::<usize>() + self.messages.capacity() * 4
    }
}

/// The PDF values of `rows`.
fn values(rows: &[GhostRow]) -> u64 {
    rows.iter().map(|r| u64::from(r.len)).sum()
}

/// Every row of the ghost slab in direction `d`, in message order.
fn slab_rows<M: LatticeModel>(shape: Shape, d: [i8; 3]) -> Vec<GhostRow> {
    let slab = shape.ghost_slab(d, shape.ghost);
    let (x0, len) = (slab.x.start, slab.x.len() as u32);
    let mut rows = Vec::new();
    for q in crossing::<M>([-d[0], -d[1], -d[2]]).map(|q| q as u32) {
        for z in slab.z.clone() {
            rows.extend(slab.y.clone().map(|y| GhostRow { q, x0, y, z, len }));
        }
    }
    rows
}

/// The pieces of row `r` of `slab` (its PDF the `qi`-th crossing one)
/// that lie together in a message, as `(x0, len, position)`: a message
/// holds PDF, then row piece, then `z`, then `y` ([`for_each_row`]).
fn pieces(slab: &Region, qi: usize, r: GhostRow) -> impl Iterator<Item = (i32, usize, usize)> + '_ {
    let (ny, nz) = (slab.y.len(), slab.z.len());
    let yz = (r.z - slab.z.start) as usize * ny + (r.y - slab.y.start) as usize;
    let (lo, n) = ((r.x0 - slab.x.start) as usize, r.len as usize);
    (lo - lo % ROW_PIECE..lo + n).step_by(ROW_PIECE).map(move |p| {
        let width = (slab.x.len() - p).min(ROW_PIECE);
        let (a, b) = (lo.max(p), (lo + n).min(p + width));
        (slab.x.start + a as i32, b - a, qi * slab.num_cells() + p * ny * nz + yz * width + a - p)
    })
}

/// A slot offset as a run stores it.
fn slot32(slot: usize) -> u32 {
    u32::try_from(slot).ok().filter(|&s| s != ZERO_FILL).expect("slot offsets fit 32 bits")
}

/// The part of a row an end stores, and the slot of its first value.
type Part = (Range<usize>, usize);

/// Appends the runs of one row, given the part of it each end stores and
/// the slot of that part's first value (a message stores all of it): over
/// the receiving end's stored part, zeros where the sending end stores
/// no source, else the copy.
fn resolve(runs: &mut Vec<Run>, (from, from_at): Part, (to, at): Part) {
    let lo = from.start.clamp(to.start, to.end);
    let hi = from.end.clamp(lo, to.end);
    let mut push = |src, i: usize, len| {
        if len > 0 {
            runs.push(Run { src, dst: slot32(at + i - to.start), len: len as u32 });
        }
    };
    push(ZERO_FILL, to.start, lo - to.start);
    push(slot32(from_at + lo.max(from.start) - from.start), lo, hi - lo);
    push(ZERO_FILL, hi, to.end - hi);
}

/// One link's walk: `copy_from_slice` for long runs, one move for a
/// single value; `from` is `None` on a self-link, which moves within `to`.
fn move_runs(runs: &[Run], from: Option<&[f64]>, to: &mut [f64]) {
    for &Run { src, dst, len } in runs {
        let (s, d, n) = (src as usize, dst as usize, len as usize);
        match (src, from, n) {
            (ZERO_FILL, ..) => to[d..d + n].fill(0.0),
            (_, Some(from), 1) => to[d] = from[s],
            (_, Some(from), _) => to[d..d + n].copy_from_slice(&from[s..s + n]),
            (_, None, 1) => to[d] = to[s],
            (_, None, _) => to.copy_within(s..s + n, d),
        }
    }
}

/// Direct ghost copy between two blocks owned by the same process: `dst`
/// has `src` as its neighbor in direction `d` and takes its whole
/// crossing slab, both at their current parities — pack + unpack without
/// the bytes, as a plan of the one link.
pub fn copy_face_local<M, A, B>(src: &A, dst: &mut B, d: [i8; 3])
where
    M: LatticeModel,
    A: Borrow<SoaPdfField<M>>,
    B: BorrowMut<SoaPdfField<M>>,
{
    let (src, dst) = (src.borrow(), dst.borrow_mut());
    let at = |field| PlanBlock { field, parity: [field.parity(); 2], carve: None };
    let [moves, _] = ExchangePlan::build(&[at(src), at(dst)], [(1, d, 0)], []).moves;
    // The plan's one link owns every run.
    move_runs(&moves.runs, Some(src.data()), dst.data_mut());
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
        let a = numbered(shape, false, 0.5);
        // Route 1: bytes.
        let mut b1 = numbered(shape, false, 9_000.5);
        let mut buf = Vec::new();
        pack_face::<D3Q19, _>(&a, [0, 1, 0], &mut buf);
        unpack_face::<D3Q19, _>(&mut b1, [0, -1, 0], &buf);
        // Route 2: direct copy (a is b2's neighbor in −y).
        let mut b2 = numbered(shape, false, 9_000.5);
        copy_face_local::<D3Q19, _, _>(&a, &mut b2, [0, -1, 0]);
        assert_eq!(b1.data(), b2.data());
        assert_ne!(b2.data(), numbered(shape, false, 9_000.5).data());
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

    /// The fields after one plan walk at step parity `odd`: `fields[to]`
    /// takes the link in direction `d` from `fields[from]`, every field
    /// at its own parity at both step parities, the receiver carved by
    /// `carve`.
    fn plan_move(
        mut fields: Vec<SoaPdfField<D3Q19>>,
        (to, d, from): (usize, [i8; 3], usize),
        carve: Option<&RowIntervals>,
        odd: bool,
    ) -> (Vec<SoaPdfField<D3Q19>>, ExchangePlan) {
        let blocks: Vec<_> = (fields.iter().enumerate())
            .map(|(i, f)| PlanBlock {
                field: f,
                parity: [f.parity(); 2],
                carve: carve.filter(|_| i == to),
            })
            .collect();
        let plan = ExchangePlan::build(&blocks, [(to, d, from)], []);
        assert!(plan.is_current(odd, blocks.into_iter()));
        plan.apply(odd, &mut fields, |f| f.data_mut());
        (fields, plan)
    }

    /// A plan of one remote link of `field` in direction `d`, the field at
    /// its own parity at both step parities and carved by `carve`.
    fn remote_plan(
        field: &SoaPdfField<D3Q19>,
        d: [i8; 3],
        carve: Option<&RowIntervals>,
    ) -> ExchangePlan {
        ExchangePlan::build(
            &[PlanBlock { field, parity: [field.parity(); 2], carve }],
            [],
            [(0, d)],
        )
    }

    /// `before` with the values `rows` list taken from `full`.
    fn with_listed(
        before: &SoaPdfField<D3Q19>,
        full: &SoaPdfField<D3Q19>,
        rows: &[GhostRow],
    ) -> SoaPdfField<D3Q19> {
        let mut want = before.clone();
        for (q, x, y, z) in listed(rows) {
            want.set(x, y, z, q, full.get(x, y, z, q));
        }
        want
    }

    /// A plan move of a whole slab is pack + unpack without the bytes, and
    /// a remote link's halves are pack and unpack: all 18 carrying
    /// directions, every pairing of sender and receiver storage parity (an
    /// in-place block beside a pull one is the mixed case), through both
    /// step parities' runs, and a block that is its own neighbor — on box
    /// storage and on the row store of a carved block, which drops what it
    /// does not hold and reads what it does not hold as `0.0`. A gather
    /// writes exactly the bytes `pack_face` writes; a scatter writes what
    /// `unpack_face` writes at the receiver's listed values (all of the
    /// slab for a dense receiver) and leaves every other slot alone.
    #[test]
    fn local_and_self_copies_equal_pack_unpack_at_every_parity() {
        use std::sync::Arc;
        use trillium_field::RowTable;
        let shape = Shape::new(5, 4, 3, 1);
        let carve = RowIntervals::build(&ball(shape, [2.0, 1.5, 1.0], 2.3));
        let lists = GhostRows::build::<D3Q19>(shape, &carve);
        let table = Arc::new(RowTable::pull_reads::<D3Q19>(shape, &carve));
        assert!(table.cells() < shape.alloc_cells());
        let dirs = trillium_lattice::d3q19::C.iter().skip(1);
        let (mut listed_somewhere, mut gathered_zeros) = (0, 0);
        for rows in [None, Some(&table)] {
            let numbered = |odd, offset| numbered_in(shape, rows, odd, offset);
            let (mut wrote, mut zeros) = (0, 0);
            for &d in dirs.clone() {
                let rev = [-d[0], -d[1], -d[2]];
                for (src_odd, dst_odd) in
                    [(false, false), (true, true), (false, true), (true, false)]
                {
                    let what = format!("d={d:?} {src_odd}->{dst_odd} rows={}", rows.is_some());
                    let src = numbered(src_odd, 0.5);
                    let before = numbered(dst_odd, 10_000.5);
                    let mut by_bytes = before.clone();
                    let mut buf = Vec::new();
                    pack_face::<D3Q19, _>(&src, rev, &mut buf);
                    unpack_face::<D3Q19, _>(&mut by_bytes, d, &buf);
                    let carved = with_listed(&before, &by_bytes, lists.rows(d));
                    for odd in [false, true] {
                        let fields = vec![src.clone(), before.clone()];
                        let (moved, plan) = plan_move(fields, (1, d, 0), None, odd);
                        assert_eq!(by_bytes.data(), moved[1].data(), "{what} step odd={odd}");
                        assert_eq!(moved[0].data(), src.data(), "{what}: the sender changed");
                        let runs = &plan.moves[usize::from(odd)].runs;
                        zeros += runs.iter().filter(|r| r.src == ZERO_FILL).count();
                        // The remote halves: the sender's gather, and the
                        // scatter into a dense and into a carved receiver.
                        let mut sent = vec![7; 3];
                        let send = remote_plan(&src, rev, None);
                        send.gather(odd, 0, src.data(), &mut sent);
                        assert_eq!(sent, buf, "{what}: gather at step odd={odd}");
                        let runs = &send.moves[usize::from(odd)].runs;
                        gathered_zeros += runs.iter().filter(|r| r.src == ZERO_FILL).count();
                        assert_eq!(send.counts()[2], buf.len() as u64 / 8);
                        for (carve, want) in [(None, &by_bytes), (Some(&carve), &carved)] {
                            let mut got = before.clone();
                            let recv = remote_plan(&got, d, carve);
                            assert_eq!(recv.scatter(odd, 0, &buf, got.data_mut()), Ok(()));
                            let why = format!(
                                "{what}: scatter at step odd={odd}, carved={}",
                                carve.is_some()
                            );
                            assert_eq!(got.data(), want.data(), "{why}");
                            let whole = buf.len() as u64 / 8;
                            let listed = carve.map_or(whole, |_| values(lists.rows(d)));
                            assert_eq!(recv.counts(), [0, 0, whole, listed]);
                        }
                    }
                    wrote += usize::from(by_bytes.data() != before.data());
                    listed_somewhere += usize::from(carved.data() != before.data());
                    let mut by_wrapper = before.clone();
                    copy_face_local::<D3Q19, _, _>(&src, &mut by_wrapper, d);
                    assert_eq!(by_wrapper.data(), by_bytes.data(), "{what}");
                }
                for odd in [false, true] {
                    let mut by_bytes = numbered(odd, 0.5);
                    let mut buf = Vec::new();
                    pack_face::<D3Q19, _>(&by_bytes, rev, &mut buf);
                    unpack_face::<D3Q19, _>(&mut by_bytes, d, &buf);
                    let (moved, _) = plan_move(vec![numbered(odd, 0.5)], (0, d, 0), None, odd);
                    assert_eq!(by_bytes.data(), moved[0].data(), "self link d={d:?} odd={odd}");
                }
            }
            // The box takes every copy; the carve has directions whose
            // ghost slab it does not store, and sources it reads as zeros.
            assert!(if rows.is_none() { wrote == 18 * 4 } else { 0 < wrote && wrote < 18 * 4 });
            assert_eq!(zeros > 0, rows.is_some());
        }
        // A carved receiver's list writes something, and a row-store
        // sender gathers zeros where it stores no source.
        assert!(listed_somewhere > 0 && gathered_zeros > 0);
        assert_eq!(dirs.count(), 18);
    }

    /// Rows longer than a message piece: a message holds them piece by
    /// piece, and the remote halves keep that layout — on a block 300
    /// cells long in x, for every direction, into a dense receiver and
    /// into one whose list covers the middle of each row.
    #[test]
    fn remote_halves_keep_the_piece_layout_of_long_rows() {
        let shape = Shape::new(300, 3, 2, 1);
        let carve = RowIntervals::build(&ball(shape, [150.0, 1.0, 0.5], 100.0));
        let lists = GhostRows::build::<D3Q19>(shape, &carve);
        for &d in trillium_lattice::d3q19::C.iter().skip(1) {
            let rev = [-d[0], -d[1], -d[2]];
            let (src, before) = (numbered(shape, false, 0.5), numbered(shape, true, 10_000.5));
            let mut buf = Vec::new();
            pack_face::<D3Q19, _>(&src, rev, &mut buf);
            let mut full = before.clone();
            unpack_face::<D3Q19, _>(&mut full, d, &buf);
            let mut sent = Vec::new();
            remote_plan(&src, rev, None).gather(false, 0, src.data(), &mut sent);
            assert_eq!(sent, buf, "d={d:?}");
            let carved = with_listed(&before, &full, lists.rows(d));
            for (carve, want) in [(None, &full), (Some(&carve), &carved)] {
                let mut got = before.clone();
                let plan = remote_plan(&got, d, carve);
                assert_eq!(plan.scatter(true, 0, &buf, got.data_mut()), Ok(()));
                assert_eq!(got.data(), want.data(), "d={d:?} carved={}", carve.is_some());
            }
        }
    }

    /// A message of the wrong length is an error that writes nothing: the
    /// plan's scatter checks the length before it writes; the panicking
    /// accessor reference is for bytes this process packed itself.
    #[test]
    fn short_ghost_message_is_an_error_not_a_panic() {
        let shape = Shape::cube(4);
        let a = numbered(shape, false, 0.5);
        let d = [1, 0, 0];
        let mut buf = Vec::new();
        pack_face::<D3Q19, _>(&a, [-1, 0, 0], &mut buf);
        let mut b = numbered(shape, false, 9_000.5);
        let untouched = b.clone();
        let plan = remote_plan(&b, d, None);
        for bad in [&buf[..buf.len() - 8], &[buf.as_slice(), &[0; 8]].concat(), &[][..]] {
            assert_eq!(plan.scatter(false, 0, bad, b.data_mut()), Err(CommError::Protocol));
            assert_eq!(b.data(), untouched.data());
        }
        assert_eq!(plan.scatter(false, 0, &buf, b.data_mut()), Ok(()));
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
                assert_eq!(values(lists.rows(d)), want.len() as u64);
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
                assert!(lists.rows(d).is_empty() && values(lists.rows(d)) == 0);
            }
        }
        assert!(empty >= 18 && full >= 18, "{empty} empty and {full} non-empty lists");
    }

    /// A carved receiver's plan moves write exactly its listed values,
    /// each equal to what pack + unpack of the whole slab writes there,
    /// and leave every other slot alone — across blocks and within one (a
    /// periodic self-link), at every parity pairing, on the box and on the
    /// carve's row store.
    #[test]
    fn list_copies_write_the_listed_values_of_the_slab_copy() {
        use std::sync::Arc;
        use trillium_field::RowTable;
        let shape = Shape::new(13, 9, 11, 1);
        let carve = RowIntervals::build(&ball(shape, [6.0, 4.0, 5.0], 5.2));
        let lists = GhostRows::build::<D3Q19>(shape, &carve);
        let table = Arc::new(RowTable::pull_reads::<D3Q19>(shape, &carve));
        for rows in [None, Some(&table)] {
            let numbered = |odd, offset| numbered_in(shape, rows, odd, offset);
            for &d in trillium_lattice::d3q19::C.iter().skip(1) {
                let rev = [-d[0], -d[1], -d[2]];
                for (src_odd, dst_odd) in
                    [(false, false), (true, true), (false, true), (true, false)]
                {
                    let what = format!("d={d:?} {src_odd}->{dst_odd} rows={}", rows.is_some());
                    let src = numbered(src_odd, 0.5);
                    let before = numbered(dst_odd, 10_000.5);
                    let mut slab = before.clone();
                    let mut buf = Vec::new();
                    pack_face::<D3Q19, _>(&src, rev, &mut buf);
                    unpack_face::<D3Q19, _>(&mut slab, d, &buf);
                    let mut self_slab = before.clone();
                    buf.clear();
                    pack_face::<D3Q19, _>(&self_slab, rev, &mut buf);
                    unpack_face::<D3Q19, _>(&mut self_slab, d, &buf);
                    let (moved, plan) =
                        plan_move(vec![src, before.clone()], (1, d, 0), Some(&carve), dst_odd);
                    let (self_moved, _) =
                        plan_move(vec![before.clone()], (0, d, 0), Some(&carve), dst_odd);
                    assert_eq!(
                        plan.counts()[..2],
                        [values(lists.rows(d)), lists.rows(d).len() as u64]
                    );
                    for (full, got) in [(&slab, &moved[1]), (&self_slab, &self_moved[0])] {
                        let want = with_listed(&before, full, lists.rows(d));
                        assert_eq!(got.data(), want.data(), "{what}");
                    }
                }
            }
        }
    }

    /// Whole-slab links between box blocks of one shape share one run
    /// template per direction and parity pair; a row store gets runs of
    /// its own.
    #[test]
    fn box_blocks_of_one_shape_share_one_template() {
        use std::sync::Arc;
        use trillium_field::RowTable;
        let shape = Shape::new(6, 5, 4, 1);
        let carve = RowIntervals::build(&ball(shape, [2.5, 2.0, 1.5], 2.4));
        let row_store =
            SoaPdfField::with_rows(Arc::new(RowTable::pull_reads::<D3Q19>(shape, &carve)));
        let boxes =
            [numbered(shape, false, 0.5), numbered(shape, false, 1.5), numbered(shape, false, 2.5)];
        let in_place = |field| PlanBlock { field, parity: [false, true], carve: None };
        let x = [-1, 0, 0];
        // Block 1 takes from 0 and block 2 from 1, both in direction −x.
        let row = [in_place(&boxes[0]), in_place(&boxes[1]), in_place(&boxes[2])];
        let runs = |p: &ExchangePlan, odd: bool| p.moves[usize::from(odd)].runs.len();
        let two = ExchangePlan::build(&row, [(1, x, 0), (2, x, 1)], []);
        let one = ExchangePlan::build(&row[..2], [(1, x, 0)], []);
        for odd in [false, true] {
            let links = &two.moves[usize::from(odd)].links;
            assert_eq!(links.len(), 2);
            assert_eq!((links[0].first, links[0].end), (links[1].first, links[1].end));
            assert_eq!(runs(&two, odd), runs(&one, odd));
            assert!(runs(&one, odd) > 0);
        }
        assert_eq!(two.counts()[0], 2 * one.counts()[0]);
        // The same links with a row-store sender resolve runs of their own.
        let mixed = [in_place(&row_store), in_place(&boxes[1]), in_place(&boxes[2])];
        let own = ExchangePlan::build(&mixed, [(1, x, 0), (2, x, 1)], []);
        assert_eq!(runs(&own, false), 2 * runs(&one, false));
        assert!(own.bytes() > one.bytes());
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
