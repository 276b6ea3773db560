//! Checkpointing: serialize and restore the PDF state of blocks, so long
//! simulations can be split across runs (complementing the §2.2 workflow
//! where the *block structure* is precomputed and loaded from file).
//!
//! The format is little-endian binary: a header with the block shape, a
//! flag digest, and the block's update scheme and storage, followed by
//! the raw PDF data of the cells the block stores — its whole
//! interior+ghost box, or, for a carved block on a row store, the rows of
//! its [`RowTable`] (which the receiver derives
//! from the flags). Restoring into a block with different shape, flags or
//! storage is rejected.
//!
//! For two-field (pull) blocks *both* buffers travel: stored cells outside
//! the sparse sweep's coverage are never rewritten by the sweep, so their
//! values alternate between the two buffers with step parity. On box
//! storage those are the deep solid interior and the unexchanged ghost
//! corners; a row store holds no deep interior, but its wall and ghost
//! cells around the covered spans take only the links' and ghost copies'
//! writes. A checkpoint that carried only the source field would replay
//! those cells with the wrong parity whenever the restore step is odd —
//! bitwise divergence from the unfaulted run.
//!
//! In-place (AA-pattern) blocks have no second half: the entire state,
//! including never-touched cells, lives in one buffer whose storage
//! convention is identified by the field's parity bit. Their checkpoints
//! carry the scheme byte (encoding the parity) and the single buffer —
//! roughly half the payload of a pull checkpoint. A restore sizes the
//! block's second buffer to the scheme it restores: allocated for pull,
//! empty in place.

use crate::blocksim::{is_carved, BlockSim, UpdateScheme};
use bytes::{Buf, BufMut};
use trillium_field::{FlagField, RowIntervals, RowTable, Shape};
use trillium_lattice::D3Q19;

/// Magic bytes of the checkpoint format.
pub const MAGIC: &[u8; 4] = b"TCP1";

/// Bit of the scheme byte set when the payload holds a row store's
/// stored cells instead of the whole box.
const ROWS: u8 = 4;

/// Wire encoding of the update scheme + storage parity, and the storage.
fn scheme_byte(block: &BlockSim) -> u8 {
    let scheme = match block.scheme {
        UpdateScheme::Pull => 0,
        UpdateScheme::InPlace => {
            if block.src.parity() {
                2
            } else {
                1
            }
        }
    };
    scheme | if block.src.rows().is_some() { ROWS } else { 0 }
}

/// The update scheme, storage parity and row storage a wire scheme byte
/// stands for.
fn decode_scheme(byte: u8) -> Result<(UpdateScheme, bool, bool), RestoreError> {
    let rows = byte & ROWS != 0;
    match byte & !ROWS {
        0 => Ok((UpdateScheme::Pull, false, rows)),
        1 | 2 => Ok((UpdateScheme::InPlace, byte & !ROWS == 2, rows)),
        _ => Err(RestoreError::BadScheme),
    }
}

/// Bytes of the shape header every block format starts with: magic, then
/// `nx ny nz ghost` as `u32`.
const HEADER: usize = 4 + 16;

/// Bytes of the PDF payload of `cells` stored cells under `scheme`: pull
/// blocks carry both halves of the double buffer, in-place blocks their
/// one.
fn pdf_bytes(cells: usize, scheme: UpdateScheme) -> usize {
    cells * 19 * 8 * if scheme == UpdateScheme::Pull { 2 } else { 1 }
}

fn put_header(buf: &mut Vec<u8>, magic: &[u8; 4], block: &BlockSim) {
    let s = block.shape;
    buf.extend_from_slice(magic);
    for n in [s.nx, s.ny, s.nz, s.ghost] {
        buf.put_u32_le(n as u32);
    }
}

/// Checks the magic and reads `[nx, ny, nz, ghost]`; `fixed` is the
/// length of everything the format puts before its variable part.
fn get_header(buf: &mut &[u8], magic: &[u8; 4], fixed: usize) -> Result<[usize; 4], RestoreError> {
    if buf.len() < fixed || &buf[..4] != magic {
        return Err(RestoreError::BadMagic);
    }
    buf.advance(4);
    Ok(std::array::from_fn(|_| buf.get_u32_le() as usize))
}

/// The shape a header names, if a block can have it: positive extents, a
/// ghost layer, padded extents that are `i32` coordinates, and a box
/// whose flag bytes and two PDF buffers a `usize` counts.
fn wire_shape([nx, ny, nz, ghost]: [usize; 4]) -> Result<Shape, RestoreError> {
    let padded = |n: usize| {
        let p = n.checked_add(ghost.checked_mul(2)?)?;
        (n > 0 && p <= i32::MAX as usize).then_some(p)
    };
    let cells = [nx, ny, nz].into_iter().try_fold(1usize, |c, n| c.checked_mul(padded(n)?));
    match cells.and_then(|c| c.checked_mul(1 + pdf_bytes(1, UpdateScheme::Pull))) {
        Some(_) if ghost >= 1 => Ok(Shape::new(nx, ny, nz, ghost)),
        _ => Err(RestoreError::BadShape),
    }
}

/// Both buffers; an in-place block's `dst` is empty.
fn put_pdfs(buf: &mut Vec<u8>, block: &BlockSim) {
    for v in block.src.data() {
        buf.put_f64_le(*v);
    }
    for v in block.dst.data() {
        buf.put_f64_le(*v);
    }
}

/// Sets the block's scheme and parity from the wire byte, sizes `dst` to
/// it and fills the buffer(s) from the front of `buf`. Every check comes
/// first: a rejected payload leaves the block as it was.
fn get_pdfs(block: &mut BlockSim, byte: u8, buf: &mut &[u8]) -> Result<(), RestoreError> {
    let (scheme, odd, rows) = decode_scheme(byte)?;
    if rows != block.src.rows().is_some() {
        return Err(RestoreError::StorageMismatch);
    }
    if buf.len() < pdf_bytes(block.src.cells(), scheme) {
        return Err(RestoreError::Truncated);
    }
    block.set_scheme(scheme, odd);
    for v in block.src.data_mut() {
        *v = buf.get_f64_le();
    }
    for v in block.dst.data_mut() {
        *v = buf.get_f64_le();
    }
    Ok(())
}

/// Serializes a block's PDF state. Pull blocks carry both halves of the
/// double buffer; in-place blocks carry their single buffer only.
pub fn save_block(block: &BlockSim) -> Vec<u8> {
    let scheme = scheme_byte(block);
    let mut buf = Vec::with_capacity(HEADER + 8 + 1 + block.pdf_bytes());
    put_header(&mut buf, MAGIC, block);
    buf.put_u64_le(flag_digest(&block.flags));
    buf.put_u8(scheme);
    put_pdfs(&mut buf, block);
    buf
}

/// Errors from [`restore_block`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// Wrong magic bytes.
    BadMagic,
    /// Block shape does not match the checkpoint.
    ShapeMismatch,
    /// Flag field differs from the checkpointed block's.
    FlagMismatch,
    /// Unknown update-scheme byte.
    BadScheme,
    /// The header names a shape no block can have: a zero extent, no
    /// ghost layer, or a box too large to count.
    BadShape,
    /// The payload stores the box and the block a row table, or the
    /// other way round (or, in a full payload, rows for a dense block).
    StorageMismatch,
    /// Data ended early.
    Truncated,
}

/// Restores a block's PDF state from a checkpoint written by
/// [`save_block`]. The block must have been built with the same shape and
/// flags (the usual workflow: rebuild the domain from the block-structure
/// file, then restore PDFs).
pub fn restore_block(block: &mut BlockSim, data: &[u8]) -> Result<(), RestoreError> {
    let mut buf = data;
    let s = block.shape;
    if get_header(&mut buf, MAGIC, HEADER + 8 + 1)? != [s.nx, s.ny, s.nz, s.ghost] {
        return Err(RestoreError::ShapeMismatch);
    }
    if buf.get_u64_le() != flag_digest(&block.flags) {
        return Err(RestoreError::FlagMismatch);
    }
    let scheme = buf.get_u8();
    get_pdfs(block, scheme, &mut buf)
}

/// Magic bytes of the self-contained block format used for migration.
pub const MAGIC_FULL: &[u8; 4] = b"TCP2";

/// Appends the [`save_block_full`] encoding of `block` to `buf`.
fn put_block_full(buf: &mut Vec<u8>, block: &BlockSim) {
    let scheme = scheme_byte(block);
    buf.reserve(HEADER + 1 + block.shape.alloc_cells() + block.pdf_bytes());
    put_header(buf, MAGIC_FULL, block);
    buf.put_u8(scheme);
    buf.extend_from_slice(block.flags.data());
    put_pdfs(buf, block);
}

/// Serializes a block *completely*: shape, flag field, and PDF state.
///
/// Unlike [`save_block`], the receiver needs no prior copy of the block —
/// this is the wire format for runtime block migration, where the new
/// owner has never voxelized the block's geometry. Boundary parameters
/// are not included; they are scenario-global and every rank already has
/// them.
pub fn save_block_full(block: &BlockSim) -> Vec<u8> {
    let mut buf = Vec::new();
    put_block_full(&mut buf, block);
    buf
}

/// Rebuilds a [`BlockSim`] from a [`save_block_full`] payload.
///
/// The header's shape is checked before anything is allocated. The flag
/// field is reconstructed from the wire bytes, the sparse row intervals,
/// kernel tier and — for a payload of stored rows — the row table are
/// re-derived from it (exactly as [`BlockSim::from_flags_with_scheme`]
/// would on first build, or [`BlockSim::from_flags`] for a payload of
/// the whole box), the PDF payload's length is checked against the cells
/// that storage holds, then the transported PDF state overwrites the
/// freshly initialized field bit-for-bit.
pub fn restore_block_full(
    data: &[u8],
    boundary: trillium_kernels::BoundaryParams,
) -> Result<BlockSim, RestoreError> {
    let mut buf = data;
    let shape = wire_shape(get_header(&mut buf, MAGIC_FULL, HEADER + 1)?)?;
    let cells = shape.alloc_cells();
    let byte = buf.get_u8();
    let (scheme, _, rows) = decode_scheme(byte)?;
    // Before anything is allocated for a shape the bytes do not back.
    if buf.len() < cells {
        return Err(RestoreError::Truncated);
    }
    let mut flags = FlagField::new(shape);
    flags.data_mut().copy_from_slice(&buf[..cells]);
    buf.advance(cells);
    let stored = if rows {
        let intervals = RowIntervals::build(&flags);
        if !is_carved(&intervals, shape) {
            return Err(RestoreError::StorageMismatch);
        }
        RowTable::pull_reads::<D3Q19>(shape, &intervals).cells()
    } else {
        cells
    };
    if buf.len() < pdf_bytes(stored, scheme) {
        return Err(RestoreError::Truncated);
    }
    // rho/u only seed the equilibrium that the wire PDFs overwrite next.
    let mut block = BlockSim::build(flags, boundary, 1.0, [0.0; 3], scheme, rows);
    get_pdfs(&mut block, byte, &mut buf)?;
    Ok(block)
}

/// Magic bytes of the rank-local forest checkpoint format.
pub const MAGIC_FOREST: &[u8; 4] = b"TCF1";

/// Serializes a rank's whole block slice at time step `step` into one
/// framed buffer: per block the packed [`BlockId`] and a length-prefixed
/// [`save_block_full`] payload. This is the stable-storage unit of the
/// resilient driver: one buffer per rank per checkpoint epoch, written
/// at a globally consistent cut, is enough to restart the cohort.
///
/// [`BlockId`]: trillium_blockforest::BlockId
pub fn save_forest(step: u64, blocks: &[(u64, &BlockSim)]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC_FOREST);
    buf.put_u64_le(step);
    buf.put_u32_le(blocks.len() as u32);
    for (id, block) in blocks {
        buf.put_u64_le(*id);
        // Length prefix, patched once the body behind it is written.
        let at = buf.len();
        buf.put_u64_le(0);
        put_block_full(&mut buf, block);
        let len = (buf.len() - at - 8) as u64;
        buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
    buf
}

/// Restores a rank's block slice from a [`save_forest`] buffer: the
/// checkpointed step and the `(packed id, block)` list, in the saved
/// order.
pub fn restore_forest(
    data: &[u8],
    boundary: trillium_kernels::BoundaryParams,
) -> Result<(u64, Vec<(u64, BlockSim)>), RestoreError> {
    let mut buf = data;
    if buf.len() < 4 + 8 + 4 || &buf[..4] != MAGIC_FOREST {
        return Err(RestoreError::BadMagic);
    }
    buf.advance(4);
    let step = buf.get_u64_le();
    let count = buf.get_u32_le() as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if buf.len() < 16 {
            return Err(RestoreError::Truncated);
        }
        let id = buf.get_u64_le();
        let len = buf.get_u64_le() as usize;
        if buf.len() < len {
            return Err(RestoreError::Truncated);
        }
        out.push((id, restore_block_full(&buf[..len], boundary)?));
        buf.advance(len);
    }
    Ok((step, out))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
}

/// FNV-1a digest of a flag field (cheap structural fingerprint).
pub(crate) fn flag_digest(flags: &trillium_field::FlagField) -> u64 {
    fnv1a(flags.data())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocksim::{boxed_block_flags, BlockKernel};
    use trillium_field::{CellFlags, FlagOps, Shape};
    use trillium_kernels::BoundaryParams;
    use trillium_lattice::Relaxation;

    fn cavity_block(n: usize) -> BlockSim {
        let flags = boxed_block_flags(
            Shape::cube(n),
            [
                Some(CellFlags::NOSLIP),
                Some(CellFlags::NOSLIP),
                Some(CellFlags::NOSLIP),
                Some(CellFlags::NOSLIP),
                Some(CellFlags::NOSLIP),
                Some(CellFlags::VELOCITY),
            ],
        );
        let boundary = BoundaryParams { wall_velocity: [0.05, 0.0, 0.0], ..Default::default() };
        BlockSim::from_flags(flags, boundary, 1.0, [0.0; 3])
    }

    /// The checkpoint workflow: run A for 40 steps; run B for 20 steps,
    /// checkpoint, restore into a fresh block, run 20 more — identical.
    #[test]
    fn resume_is_bitwise_identical() {
        let rel = Relaxation::trt_from_viscosity(0.05);
        let step = |b: &mut BlockSim| {
            b.apply_boundaries();
            b.stream_collide(rel);
        };
        let mut a = cavity_block(8);
        for _ in 0..40 {
            step(&mut a);
        }
        let mut b = cavity_block(8);
        for _ in 0..20 {
            step(&mut b);
        }
        let ckpt = save_block(&b);
        let mut c = cavity_block(8);
        restore_block(&mut c, &ckpt).unwrap();
        for _ in 0..20 {
            step(&mut c);
        }
        use trillium_field::PdfField;
        for (x, y, z) in a.shape.interior().iter() {
            for q in 0..19 {
                assert_eq!(a.src.get(x, y, z, q), c.src.get(x, y, z, q), "at ({x},{y},{z}) q={q}");
            }
        }
    }

    /// The migration serializer: a fully serialized block restores on a
    /// rank that has never seen it, bit-identical in flags and PDFs, and
    /// evolves identically afterwards.
    #[test]
    fn full_roundtrip_is_bitwise_identical() {
        let rel = Relaxation::trt_from_viscosity(0.05);
        let mut a = cavity_block(8);
        for _ in 0..25 {
            a.apply_boundaries();
            a.stream_collide(rel);
        }
        let wire = save_block_full(&a);
        let boundary = BoundaryParams { wall_velocity: [0.05, 0.0, 0.0], ..Default::default() };
        let mut b = restore_block_full(&wire, boundary).unwrap();
        assert_eq!(a.flags.data(), b.flags.data());
        assert_eq!(a.src.data(), b.src.data());
        assert_eq!(a.dst.data(), b.dst.data());
        assert_eq!(a.fluid_cells(), b.fluid_cells());
        assert_eq!(a.boundary_links(), b.boundary_links());
        for _ in 0..10 {
            a.apply_boundaries();
            a.stream_collide(rel);
            b.apply_boundaries();
            b.stream_collide(rel);
        }
        assert_eq!(a.src.data(), b.src.data());
        assert!((a.fluid_mass() - b.fluid_mass()).abs() == 0.0);
    }

    #[test]
    fn full_restore_rejects_corruption() {
        let a = cavity_block(8);
        let wire = save_block_full(&a);
        let boundary = BoundaryParams::default();
        assert!(matches!(restore_block_full(&wire[..40], boundary), Err(RestoreError::Truncated)));
        assert!(matches!(restore_block_full(b"TCP1....", boundary), Err(RestoreError::BadMagic)));

        // Headers naming no block's shape, each rejected before anything
        // is allocated: a zero extent, no ghost layer, a box whose cell
        // count overflows, and one whose PDF bytes do.
        let header = |[nx, ny, nz, ghost]: [u32; 4]| {
            let mut bad = wire.clone();
            for (i, n) in [nx, ny, nz, ghost].into_iter().enumerate() {
                bad[4 + 4 * i..8 + 4 * i].copy_from_slice(&n.to_le_bytes());
            }
            restore_block_full(&bad, boundary).err()
        };
        for shape in [
            [0, 8, 8, 1],
            [8, 8, 0, 1],
            [8, 8, 8, 0],
            [u32::MAX; 4],
            [1 << 20, 1 << 20, 1 << 20, 1],
        ] {
            assert_eq!(header(shape), Some(RestoreError::BadShape), "{shape:?}");
        }
        assert!(header([8, 8, 8, 1]).is_none());

        // A carved block's payload is its stored rows, pull or in place:
        // one `f64` short is truncated, and its rows bit on a dense block's
        // flags names a storage that block cannot have.
        let mut flags = boxed_block_flags(Shape::cube(8), [Some(CellFlags::NOSLIP); 6]);
        flags.set_flags(3, 3, 3, CellFlags::NOSLIP);
        let flags_aa = flags.clone();
        let carved =
            BlockSim::from_flags_with_scheme(flags, boundary, 1.0, [0.0; 3], UpdateScheme::Pull);
        assert!(carved.src.rows().is_some());
        let carved_wire = save_block_full(&carved);
        assert_eq!(carved_wire.len(), HEADER + 1 + 1000 + carved.pdf_bytes());
        let short = &carved_wire[..carved_wire.len() - 8];
        assert_eq!(restore_block_full(short, boundary).err(), Some(RestoreError::Truncated));
        let inplace = UpdateScheme::InPlace;
        let carved_aa =
            BlockSim::from_flags_with_scheme(flags_aa, boundary, 1.0, [0.0; 3], inplace);
        let aa_wire = save_block_full(&carved_aa);
        assert_eq!(aa_wire.len(), HEADER + 1 + 1000 + carved.pdf_bytes() / 2);
        let short = &aa_wire[..aa_wire.len() - 8];
        assert_eq!(restore_block_full(short, boundary).err(), Some(RestoreError::Truncated));
        assert!(restore_block_full(&carved_wire, boundary).is_ok());
        let mut dense_rows = wire.clone();
        dense_rows[HEADER] |= ROWS;
        assert_eq!(
            restore_block_full(&dense_rows, boundary).err(),
            Some(RestoreError::StorageMismatch)
        );

        // TCP1 between the two storages of one carved flag field is a
        // storage mismatch both ways, and writes nothing.
        let boxed = BlockSim::from_flags(carved.flags.clone(), boundary, 1.0, [0.0; 3]);
        let mut rows_target = BlockSim::from_flags_with_scheme(
            carved.flags.clone(),
            boundary,
            1.1,
            [0.0; 3],
            UpdateScheme::Pull,
        );
        let mut box_target = BlockSim::from_flags(carved.flags.clone(), boundary, 1.1, [0.0; 3]);
        for (target, from) in [(&mut rows_target, &boxed), (&mut box_target, &carved)] {
            let before = target.src.data().to_vec();
            assert_eq!(
                restore_block(target, &save_block(from)),
                Err(RestoreError::StorageMismatch)
            );
            assert_eq!(target.src.data(), &before[..]);
        }
        assert_eq!(restore_block(&mut rows_target, &save_block(&carved)), Ok(()));
    }

    /// The resilient driver's stable-storage unit: a whole rank slice
    /// saved at one cut restores to bit-identical blocks with the step
    /// and IDs intact.
    #[test]
    fn forest_roundtrip_is_bitwise_identical() {
        let rel = Relaxation::trt_from_viscosity(0.05);
        let mut blocks = vec![cavity_block(8), cavity_block(6)];
        for b in &mut blocks {
            for _ in 0..15 {
                b.apply_boundaries();
                b.stream_collide(rel);
            }
        }
        let framed: Vec<(u64, &BlockSim)> =
            blocks.iter().enumerate().map(|(i, b)| (1000 + i as u64, b)).collect();
        let wire = save_forest(37, &framed);
        let boundary = BoundaryParams { wall_velocity: [0.05, 0.0, 0.0], ..Default::default() };
        let (step, restored) = restore_forest(&wire, boundary).unwrap();
        assert_eq!(step, 37);
        assert_eq!(restored.len(), 2);
        for ((id, r), (want_id, b)) in restored.iter().zip(&framed) {
            assert_eq!(id, want_id);
            assert_eq!(r.src.data(), b.src.data());
            assert_eq!(r.flags.data(), b.flags.data());
        }
        // Corruption surfaces as an error, never as silent state loss.
        assert!(matches!(restore_forest(&wire[..30], boundary), Err(RestoreError::Truncated)));
        assert!(matches!(
            restore_forest(b"XXXX............", boundary),
            Err(RestoreError::BadMagic)
        ));
    }

    fn inplace_cavity_block(n: usize) -> BlockSim {
        let flags = boxed_block_flags(
            Shape::cube(n),
            [
                Some(CellFlags::NOSLIP),
                Some(CellFlags::NOSLIP),
                Some(CellFlags::NOSLIP),
                Some(CellFlags::NOSLIP),
                Some(CellFlags::NOSLIP),
                Some(CellFlags::VELOCITY),
            ],
        );
        let boundary = BoundaryParams { wall_velocity: [0.05, 0.0, 0.0], ..Default::default() };
        BlockSim::from_flags_with_scheme(flags, boundary, 1.0, [0.0; 3], UpdateScheme::InPlace)
    }

    /// In-place blocks checkpoint a single buffer: the payload is ~2×
    /// smaller than a pull block's, the parity survives the round trip
    /// (including through an odd restore step), and the resumed run is
    /// bitwise identical to the uninterrupted one.
    #[test]
    fn inplace_checkpoint_is_single_buffer_and_resumes_bitwise() {
        let rel = Relaxation::trt_from_viscosity(0.05);
        let step = |b: &mut BlockSim| {
            b.apply_boundaries();
            b.stream_collide(rel);
        };

        // Size: one PDF buffer instead of two.
        let pull = cavity_block(8);
        let inp = inplace_cavity_block(8);
        let half = inp.shape.alloc_cells() * 19 * 8;
        assert_eq!(save_block(&pull).len() - save_block(&inp).len(), half);
        assert_eq!(save_block_full(&pull).len() - save_block_full(&inp).len(), half);
        assert!(save_block(&inp).len() < save_block(&pull).len() * 6 / 10);

        // Round trip at odd parity resumes bitwise.
        let mut a = inplace_cavity_block(8);
        for _ in 0..40 {
            step(&mut a);
        }
        let mut b = inplace_cavity_block(8);
        for _ in 0..21 {
            step(&mut b);
        }
        assert!(b.src.parity(), "odd step count must leave odd parity");
        let ckpt = save_block(&b);
        let mut c = inplace_cavity_block(8);
        restore_block(&mut c, &ckpt).unwrap();
        assert!(c.src.parity(), "restore must recover storage parity");
        assert_eq!(c.scheme, UpdateScheme::InPlace);
        for _ in 0..19 {
            step(&mut c);
        }
        assert_eq!(a.src.data(), c.src.data());

        // The migration wire format round-trips the same way.
        let boundary = BoundaryParams { wall_velocity: [0.05, 0.0, 0.0], ..Default::default() };
        let d = restore_block_full(&save_block_full(&b), boundary).unwrap();
        assert_eq!(d.scheme, UpdateScheme::InPlace);
        assert!(d.src.parity());
        assert_eq!(d.src.data(), b.src.data());
        assert_eq!(d.pdf_bytes(), half, "a migrated in-place block has no second buffer");
        assert_eq!(d.boundary_links(), b.boundary_links());
    }

    /// A pull checkpoint restores into a block built in place, and an
    /// in-place block's checkpoint into a pull block: each resumes bitwise
    /// with `dst` sized to the restored scheme.
    #[test]
    fn restore_switches_the_scheme_and_sizes_dst() {
        let rel = Relaxation::trt_from_viscosity(0.05);
        let step = |b: &mut BlockSim| {
            b.apply_boundaries();
            b.stream_collide(rel);
        };
        let full = cavity_block(8).dst.data().len();
        assert_eq!(inplace_cavity_block(8).dst.data().len(), 0);
        for (from_pull, steps) in [(true, 20), (false, 21)] {
            let fresh = |pull: bool| if pull { cavity_block(8) } else { inplace_cavity_block(8) };
            let mut a = fresh(from_pull);
            for _ in 0..steps {
                step(&mut a);
            }
            let mut b = fresh(!from_pull);
            restore_block(&mut b, &save_block(&a)).unwrap();
            assert_eq!(b.scheme, a.scheme);
            assert_eq!(b.dst.data().len(), if from_pull { full } else { 0 });
            assert_eq!((b.src.data(), b.dst.data()), (a.src.data(), a.dst.data()));
            for _ in 0..9 {
                step(&mut a);
                step(&mut b);
            }
            assert_eq!(a.src.data(), b.src.data(), "from_pull={from_pull}");
        }
    }

    /// A carved block runs in place on its row store: its TCP1 and TCP2
    /// payloads saved at odd parity restore scheme, parity and the one
    /// buffer bitwise, and the restored blocks resume bitwise.
    #[test]
    fn inplace_payload_for_a_carved_block_round_trips() {
        let rel = Relaxation::trt_from_viscosity(0.05);
        let step = |b: &mut BlockSim| {
            b.apply_boundaries();
            b.stream_collide(rel);
        };
        let mut flags = cavity_block(8).flags;
        flags.set_flags(3, 3, 3, CellFlags::NOSLIP);
        let boundary = BoundaryParams { wall_velocity: [0.05, 0.0, 0.0], ..Default::default() };
        let carved = |rho: f64| {
            let scheme = UpdateScheme::InPlace;
            BlockSim::from_flags_with_scheme(flags.clone(), boundary, rho, [0.0; 3], scheme)
        };
        let mut a = carved(1.0);
        assert_eq!((a.kernel, a.scheme), (BlockKernel::RowIntervals, UpdateScheme::InPlace));
        assert!(a.src.rows().is_some() && a.dst.data().is_empty());
        for _ in 0..21 {
            step(&mut a);
        }
        assert!(a.src.parity(), "odd step count must leave odd parity");
        // The scheme byte follows the header (+ flag digest in TCP1): in
        // place at odd parity, on a row store.
        let (tcp1, tcp2) = (save_block(&a), save_block_full(&a));
        assert_eq!((tcp1[HEADER + 8], tcp2[HEADER]), (2 | ROWS, 2 | ROWS));
        let mut b = carved(1.1);
        restore_block(&mut b, &tcp1).unwrap();
        let mut c = restore_block_full(&tcp2, boundary).unwrap();
        for r in [&b, &c] {
            assert_eq!((r.scheme, r.src.parity()), (UpdateScheme::InPlace, true));
            assert_eq!(r.src.data(), a.src.data());
            assert!(r.dst.data().is_empty());
        }
        for _ in 0..10 {
            step(&mut a);
            step(&mut b);
            step(&mut c);
        }
        assert_eq!(b.src.data(), a.src.data());
        assert_eq!(c.src.data(), a.src.data());
    }

    #[test]
    fn mismatches_are_rejected() {
        let a = cavity_block(8);
        let ckpt = save_block(&a);
        // Different size.
        let mut wrong_size = cavity_block(6);
        assert_eq!(restore_block(&mut wrong_size, &ckpt), Err(RestoreError::ShapeMismatch));
        // Different flags (all-noslip box, no lid).
        let flags = boxed_block_flags(Shape::cube(8), [Some(CellFlags::NOSLIP); 6]);
        let mut wrong_flags = BlockSim::from_flags(flags, BoundaryParams::default(), 1.0, [0.0; 3]);
        assert_eq!(restore_block(&mut wrong_flags, &ckpt), Err(RestoreError::FlagMismatch));
        // Corruption.
        let mut short = cavity_block(8);
        assert_eq!(restore_block(&mut short, &ckpt[..100]), Err(RestoreError::Truncated));
        assert_eq!(restore_block(&mut short, b"XXXX"), Err(RestoreError::BadMagic));
    }

    /// TCP1, TCP2 and TCF1 byte for byte as the commit before the shared
    /// header/payload codec wrote them: (length, FNV-1a) of each buffer,
    /// for a pull block and an in-place block at both parities.
    #[test]
    fn wire_bytes_are_pinned() {
        const PINNED: [(usize, u64); 7] = [
            (65693, 3303767433686894179),
            (32861, 6189291611106188414),
            (32861, 1150794286181329877),
            (65901, 18308921987700373123),
            (33069, 7542280838654050022),
            (33069, 10833778263798520341),
            (99018, 13152130996876974556),
        ];
        let rel = Relaxation::trt_from_viscosity(0.05);
        let run = |mut b: BlockSim, steps: usize| {
            for _ in 0..steps {
                b.apply_boundaries();
                b.stream_collide(rel);
            }
            b
        };
        let pull = run(cavity_block(4), 3);
        let even = run(inplace_cavity_block(4), 2);
        let odd = run(inplace_cavity_block(4), 3);
        assert!(!even.src.parity() && odd.src.parity());
        let blocks = [&pull, &even, &odd];
        let mut wires: Vec<Vec<u8>> = blocks.iter().map(|b| save_block(b)).collect();
        wires.extend(blocks.iter().map(|b| save_block_full(b)));
        wires.push(save_forest(37, &[(1000, &pull), (1001, &odd)]));
        let got: Vec<(usize, u64)> = wires.iter().map(|w| (w.len(), fnv1a(w))).collect();
        assert_eq!(got, PINNED);
    }
}
