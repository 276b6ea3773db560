//! The endian-independent, size-optimized block-structure file format
//! (paper §2.2).
//!
//! "The file itself is based on a custom endian-independent binary file
//! format which is designed for and heavily optimized towards minimal file
//! size: for simulation variables like process rank or block ID only the
//! lower-order bytes that actually carry information are stored. Even if,
//! for example, storing the process rank requires four bytes of main
//! memory during program execution, only two bytes of disk space are
//! required [...] for simulations with up to 65,536 processes."
//!
//! The format stores the forest geometry (domain box, root grid, cells per
//! block) once, then one fixed-width record per block containing only the
//! packed block ID, the owning rank and the fluid-cell workload, each at
//! the minimal byte width for the forest at hand. Everything else —
//! block boxes, integer coordinates, full-coverage flags — is recomputed
//! on load. All multi-byte values are little-endian by definition.

use crate::id::BlockId;
use crate::setup::SetupForest;
use bytes::{Buf, BufMut};
use trillium_geometry::{Aabb, Vec3};

/// Magic bytes identifying the format ("Trillium Block Forest 1").
pub const MAGIC: &[u8; 4] = b"TBF1";

/// Minimal number of bytes needed to store values up to `max`.
pub fn byte_width(max: u64) -> usize {
    let bits = 64 - max.leading_zeros() as usize;
    bits.div_ceil(8).max(1)
}

fn put_uint(buf: &mut Vec<u8>, v: u64, width: usize) {
    debug_assert!(width == 8 || v < (1u64 << (8 * width)));
    buf.put_uint_le(v, width);
}

fn get_uint(buf: &mut &[u8], width: usize) -> u64 {
    buf.get_uint_le(width)
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.put_f64_le(v);
}

fn get_f64(buf: &mut &[u8]) -> f64 {
    buf.get_f64_le()
}

/// Serializes a forest into the minimal binary representation.
pub fn save(forest: &SetupForest) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);

    for v in [forest.domain.min, forest.domain.max] {
        put_f64(&mut buf, v.x);
        put_f64(&mut buf, v.y);
        put_f64(&mut buf, v.z);
    }
    for d in 0..3 {
        put_uint(&mut buf, forest.roots[d] as u64, 4);
    }
    for d in 0..3 {
        put_uint(&mut buf, forest.cells_per_block[d] as u64, 4);
    }
    put_uint(&mut buf, forest.num_processes as u64, 4);
    put_uint(&mut buf, forest.blocks.len() as u64, 8);

    // Record widths: the minimal bytes that carry information.
    let max_id = forest.blocks.iter().map(|b| b.id.pack()).max().unwrap_or(0);
    let max_rank = forest.num_processes.saturating_sub(1) as u64;
    let max_work = forest.blocks.iter().map(|b| b.workload as u64).max().unwrap_or(0);
    let idw = byte_width(max_id);
    let rkw = byte_width(max_rank);
    let wkw = byte_width(max_work);
    buf.push(idw as u8);
    buf.push(rkw as u8);
    buf.push(wkw as u8);

    for b in &forest.blocks {
        put_uint(&mut buf, b.id.pack(), idw);
        put_uint(&mut buf, b.rank as u64, rkw);
        put_uint(&mut buf, b.workload as u64, wkw);
    }
    buf
}

/// Errors produced by [`load`].
#[derive(Debug, PartialEq, Eq)]
pub enum LoadError {
    /// The magic bytes do not match.
    BadMagic,
    /// The data ended prematurely or a field is inconsistent.
    Truncated,
    /// A record field width outside the 1..=8 bytes [`save`] writes, or
    /// a rank width that is not the minimal one for the process count.
    FieldWidth,
    /// The root grid has no blocks along an axis.
    EmptyRootGrid,
    /// A block is assigned to a rank the file's process count does not
    /// have (every block of a file that claims zero processes is).
    RankOutOfRange,
}

/// Deserializes a forest written by [`save`], reconstructing block boxes,
/// coordinates and coverage flags from the stored IDs and workloads.
pub fn load(data: &[u8]) -> Result<SetupForest, LoadError> {
    let mut buf = data;
    if buf.len() < 4 || &buf[..4] != MAGIC {
        return Err(LoadError::BadMagic);
    }
    buf.advance(4);
    let need =
        |buf: &&[u8], n: usize| if buf.len() < n { Err(LoadError::Truncated) } else { Ok(()) };

    need(&buf, 6 * 8 + 3 * 4 + 3 * 4 + 4 + 8 + 3)?;
    let min = Vec3 { x: get_f64(&mut buf), y: get_f64(&mut buf), z: get_f64(&mut buf) };
    let max = Vec3 { x: get_f64(&mut buf), y: get_f64(&mut buf), z: get_f64(&mut buf) };
    let domain = Aabb::new(min, max);
    let roots = [
        get_uint(&mut buf, 4) as usize,
        get_uint(&mut buf, 4) as usize,
        get_uint(&mut buf, 4) as usize,
    ];
    let cells_per_block = [
        get_uint(&mut buf, 4) as usize,
        get_uint(&mut buf, 4) as usize,
        get_uint(&mut buf, 4) as usize,
    ];
    let num_processes = get_uint(&mut buf, 4) as u32;
    let num_blocks = get_uint(&mut buf, 8) as usize;
    let idw = buf.get_u8() as usize;
    let rkw = buf.get_u8() as usize;
    let wkw = buf.get_u8() as usize;
    // The header is as untrusted as the length: check everything the
    // record loop (and `distribute` after it) would index, divide or
    // allocate by before doing so. The rank width is a function of the
    // process count by the format's definition, so a flipped bit in
    // either is caught here, not as four billion per-process tables.
    if [idw, rkw, wkw].iter().any(|w| !(1..=8).contains(w))
        || rkw != byte_width(num_processes.saturating_sub(1) as u64)
    {
        return Err(LoadError::FieldWidth);
    }
    if roots.contains(&0) {
        return Err(LoadError::EmptyRootGrid);
    }
    need(&buf, num_blocks.checked_mul(idw + rkw + wkw).ok_or(LoadError::Truncated)?)?;

    let mut blocks = Vec::with_capacity(num_blocks);
    for _ in 0..num_blocks {
        let id = BlockId::unpack(get_uint(&mut buf, idw));
        let rank = get_uint(&mut buf, rkw);
        if rank >= num_processes as u64 {
            return Err(LoadError::RankOutOfRange);
        }
        let workload = get_uint(&mut buf, wkw) as f64;
        // Geometry, coordinates and coverage flags are derived from the
        // ID — the file stores only the bytes that carry information.
        blocks.push(SetupForest::block_from_id(
            &domain,
            roots,
            cells_per_block,
            id,
            workload,
            rank as u32,
        ));
    }
    // Periodicity is scenario metadata, not stored in the file format.
    Ok(SetupForest { domain, roots, cells_per_block, blocks, num_processes, periodic: [false; 3] })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::morton_balance;
    use trillium_geometry::vec3::vec3;

    fn sample_forest() -> SetupForest {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(4.0, 4.0, 4.0));
        let mut f = SetupForest::uniform(domain, [4, 4, 4], [16, 16, 16]);
        // Refine one block to exercise the ID paths, then assign varying
        // integer workloads (fluid-cell counts are always integers).
        let target = f.blocks[10].id;
        f.refine_where(|b| b.id == target);
        for (i, b) in f.blocks.iter_mut().enumerate() {
            b.workload = (100 + 37 * i) as f64;
            b.fully_inside = false;
        }
        morton_balance(&mut f, 12);
        f
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let f = sample_forest();
        let data = save(&f);
        let g = load(&data).expect("load");
        assert_eq!(g.roots, f.roots);
        assert_eq!(g.cells_per_block, f.cells_per_block);
        assert_eq!(g.num_processes, f.num_processes);
        assert_eq!(g.num_blocks(), f.num_blocks());
        assert_eq!(g.domain, f.domain);
        for (a, b) in f.blocks.iter().zip(&g.blocks) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.coords, b.coords);
            assert!((a.aabb.min - b.aabb.min).norm() < 1e-12);
            assert!((a.aabb.max - b.aabb.max).norm() < 1e-12);
        }
    }

    #[test]
    fn byte_widths_are_minimal() {
        assert_eq!(byte_width(0), 1);
        assert_eq!(byte_width(255), 1);
        assert_eq!(byte_width(256), 2);
        assert_eq!(byte_width(65_535), 2);
        assert_eq!(byte_width(65_536), 3);
        assert_eq!(byte_width(u64::MAX), 8);
    }

    /// The paper's example: for up to 65,536 processes, a rank costs two
    /// bytes on disk (even though it occupies four in memory).
    #[test]
    fn rank_width_matches_paper_example() {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(1.0, 1.0, 1.0));
        let mut f = SetupForest::uniform(domain, [2, 2, 2], [8, 8, 8]);
        f.num_processes = 65_536;
        for (i, b) in f.blocks.iter_mut().enumerate() {
            b.rank = (i * 8000) as u32;
        }
        let data = save(&f);
        // Rank width byte is the second of the three width bytes after the
        // fixed header.
        let header = 4 + 48 + 12 + 12 + 4 + 8;
        assert_eq!(data[header + 1], 2, "rank width for 65,536 processes");
        // And one more process pushes it to three bytes.
        f.num_processes = 65_537;
        let data = save(&f);
        assert_eq!(data[header + 1], 3);
    }

    /// Offsets of the header fields after the magic and the domain box.
    const ROOTS: usize = 4 + 48;
    const NUM_PROCESSES: usize = ROOTS + 12 + 12;
    const NUM_BLOCKS: usize = NUM_PROCESSES + 4;
    const WIDTHS: usize = NUM_BLOCKS + 8;

    #[test]
    fn corrupted_data_is_rejected() {
        let f = sample_forest();
        let data = save(&f);
        assert_eq!(load(&data[..3]).unwrap_err(), LoadError::BadMagic);
        let mutated = |at: usize, bytes: &[u8]| {
            let mut d = data.clone();
            d[at..at + bytes.len()].copy_from_slice(bytes);
            load(&d).map(|f| f.num_blocks())
        };
        assert_eq!(mutated(0, b"X"), Err(LoadError::BadMagic));
        assert_eq!(load(&data[..data.len() - 2]).unwrap_err(), LoadError::Truncated);
        // One header defect each: a width the reader cannot decode, a
        // width `save` never writes, a record count whose byte size
        // overflows (and one that merely exceeds the data), an axis
        // without root blocks, no processes or more than the rank width
        // can name, a rank beyond the last one.
        assert_eq!(mutated(WIDTHS, &[9]), Err(LoadError::FieldWidth));
        assert_eq!(mutated(WIDTHS + 1, &[0]), Err(LoadError::FieldWidth));
        assert_eq!(mutated(NUM_BLOCKS, &[0xff; 8]), Err(LoadError::Truncated));
        assert_eq!(mutated(NUM_BLOCKS, &[0, 1, 0, 0, 0, 0, 0, 0]), Err(LoadError::Truncated));
        assert_eq!(mutated(ROOTS + 4, &[0; 4]), Err(LoadError::EmptyRootGrid));
        assert_eq!(mutated(NUM_PROCESSES, &[0; 4]), Err(LoadError::RankOutOfRange));
        assert_eq!(mutated(NUM_PROCESSES, &[0, 0, 0, 1]), Err(LoadError::FieldWidth));
        let first_rank = WIDTHS + 3 + data[WIDTHS] as usize;
        assert_eq!(mutated(first_rank, &[12]), Err(LoadError::RankOutOfRange));
        assert_eq!(mutated(first_rank, &[11]), Ok(f.num_blocks()));
    }

    /// Whatever bytes arrive, `load` answers with a typed error or with a
    /// forest the run can be planned from (`RunPlan::from_forest` is
    /// `distribute`), never with a panic or an allocation sized by the
    /// file's say-so.
    #[test]
    fn mutated_files_never_panic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(3.0, 2.0, 2.0));
        let mut f = SetupForest::uniform(domain, [3, 2, 2], [8, 8, 8]);
        morton_balance(&mut f, 5);
        let data = save(&f);
        let mut rng = StdRng::seed_from_u64(0x7bf1);
        let (mut loaded, mut planned) = (0, 0);
        for _ in 0..1000 {
            let mut d = data.clone();
            for _ in 0..rng.gen_range(1..4) {
                // Half the hits land in the header, where the damage is.
                let span = if rng.gen_bool(0.5) { WIDTHS + 3 } else { d.len() };
                d[rng.gen_range(4..span)] = rng.gen_range(0..=255u8);
            }
            if rng.gen_bool(0.1) {
                d.truncate(rng.gen_range(0..d.len()));
            }
            let Ok(forest) = load(&d) else { continue };
            loaded += 1;
            // A flipped level nibble makes a valid *refined* forest, which
            // `distribute` documents it does not take.
            if forest.is_uniform_level() {
                let views = crate::distribute(&forest);
                assert_eq!(views.len(), forest.num_processes as usize);
                planned += 1;
            }
        }
        assert!(loaded > 100 && planned > 50, "{loaded} loaded, {planned} planned");
    }

    /// Size check against the paper's headline: a forest with half a
    /// million blocks/processes stays in the tens-of-MiB range — ours is
    /// well under 10 MiB because we store only ID + rank + workload.
    #[test]
    fn half_million_block_file_is_small() {
        let domain = Aabb::new(vec3(0.0, 0.0, 0.0), vec3(80.0, 80.0, 80.0));
        let mut f = SetupForest::uniform(domain, [80, 80, 80], [100, 100, 100]);
        morton_balance(&mut f, 512_000);
        let data = save(&f);
        let per_block = (data.len() - 91) as f64 / f.num_blocks() as f64;
        // ID (3 bytes: 512000 << 4 needs 23 bits) + rank (3) + workload (3).
        assert_eq!(per_block, 9.0, "bytes per block");
        assert!(data.len() < 10 * 1024 * 1024, "file size {} bytes", data.len());
        // Round trip at scale.
        let g = load(&data).expect("load");
        assert_eq!(g.num_blocks(), 512_000);
        assert_eq!(g.blocks[777].rank, f.blocks[777].rank);
    }
}
