//! Cell classification flags and morphological operations.
//!
//! During initialization (paper §2.3) every lattice cell is classified:
//! cells inside the domain `Λ` become fluid, the hull of the fluid region —
//! computed with a morphological dilation w.r.t. the LBM stencil — becomes
//! boundary, everything else is outside the domain and never touched by the
//! compute kernels.

use crate::scalar::ScalarField;

/// Bit flags classifying one lattice cell.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct CellFlags(pub u8);

impl CellFlags {
    /// Cell is outside the computational domain (neither streamed nor
    /// collided, skipped by sparse kernels).
    pub const OUTSIDE: CellFlags = CellFlags(0);
    /// Regular fluid cell processed by the compute kernel.
    pub const FLUID: CellFlags = CellFlags(1);
    /// No-slip wall (bounce-back).
    pub const NOSLIP: CellFlags = CellFlags(2);
    /// Prescribed-velocity wall (velocity bounce-back).
    pub const VELOCITY: CellFlags = CellFlags(4);
    /// Prescribed-pressure opening (anti-bounce-back).
    pub const PRESSURE: CellFlags = CellFlags(8);
    /// Second prescribed-pressure opening with its own density — lets one
    /// block carry a pressure *gradient* (e.g. inlet vs outlet).
    pub const PRESSURE_ALT: CellFlags = CellFlags(16);
    /// Marker bit for cells belonging to an immersed obstacle (always
    /// combined with a boundary type, e.g. `OBSTACLE | NOSLIP`). Lets
    /// force measurements (momentum exchange) target the obstacle surface
    /// without picking up the outer domain walls.
    pub const OBSTACLE: CellFlags = CellFlags(32);

    /// Union of all boundary-type bits (the `OBSTACLE` marker is not a
    /// boundary type by itself).
    pub const ANY_BOUNDARY: CellFlags = CellFlags(2 | 4 | 8 | 16);

    /// True if any of `other`'s bits are set in `self`.
    #[inline(always)]
    pub fn intersects(self, other: CellFlags) -> bool {
        self.0 & other.0 != 0
    }

    /// True if this is a fluid cell.
    #[inline(always)]
    pub fn is_fluid(self) -> bool {
        self.intersects(CellFlags::FLUID)
    }

    /// True if this is any kind of boundary cell.
    #[inline(always)]
    pub fn is_boundary(self) -> bool {
        self.intersects(CellFlags::ANY_BOUNDARY)
    }

    /// True if the cell is outside the domain entirely.
    #[inline(always)]
    pub fn is_outside(self) -> bool {
        self.0 == 0
    }
}

/// A per-cell flag field.
pub type FlagField = ScalarField<u8>;

/// Extension operations on flag fields.
pub trait FlagOps {
    /// Flags at a cell, typed.
    fn flags(&self, x: i32, y: i32, z: i32) -> CellFlags;
    /// Overwrites the flags at a cell.
    fn set_flags(&mut self, x: i32, y: i32, z: i32, f: CellFlags);
    /// Number of interior fluid cells.
    fn count_fluid(&self) -> usize;
    /// Fraction of interior cells that are fluid.
    fn fluid_fraction(&self) -> f64;
    /// Marks every outside cell (interior or ghost) that is reachable
    /// from an interior fluid cell through one of the stencil directions
    /// with `boundary`, a flag without the fluid bit, and returns the
    /// marked cells, each once. This is the morphological dilation of
    /// paper §2.3 computing the boundary hull.
    fn dilate_hull(&mut self, stencil: &[[i8; 3]], boundary: CellFlags) -> Vec<[i32; 3]>;
}

impl FlagOps for FlagField {
    #[inline(always)]
    fn flags(&self, x: i32, y: i32, z: i32) -> CellFlags {
        CellFlags(self.get(x, y, z))
    }

    #[inline(always)]
    fn set_flags(&mut self, x: i32, y: i32, z: i32, f: CellFlags) {
        self.set(x, y, z, f.0);
    }

    fn count_fluid(&self) -> usize {
        self.shape().interior().iter().filter(|&(x, y, z)| self.flags(x, y, z).is_fluid()).count()
    }

    fn fluid_fraction(&self) -> f64 {
        self.count_fluid() as f64 / self.shape().interior_cells() as f64
    }

    fn dilate_hull(&mut self, stencil: &[[i8; 3]], boundary: CellFlags) -> Vec<[i32; 3]> {
        debug_assert!(!boundary.is_fluid(), "a hull flag must not read as fluid");
        let shape = self.shape();
        let g = shape.ghost as i32;
        let n = [shape.nx as i32, shape.ny as i32, shape.nz as i32];
        let stride = [1, shape.ax() as isize, (shape.ax() * shape.ay()) as isize];
        // Nonzero directions with their offsets in the flag bytes.
        let dirs: Vec<([i32; 3], isize)> = stencil
            .iter()
            .filter(|d| **d != [0, 0, 0])
            .map(|d| {
                let d = d.map(i32::from);
                (d, (0..3).map(|a| d[a] as isize * stride[a]).sum())
            })
            .collect();
        let within = |c: [i32; 3]| (0..3).all(|a| -g <= c[a] && c[a] < n[a] + g);
        let data = self.data_mut();
        let mut hull = Vec::new();
        for z in 0..n[2] {
            for y in 0..n[1] {
                let row = shape.idx(0, y, z);
                for x in 0..n[0] {
                    let i = row + x as usize;
                    if !CellFlags(data[i]).is_fluid() {
                        continue;
                    }
                    for &(d, offset) in &dirs {
                        let c = [x + d[0], y + d[1], z + d[2]];
                        let j = i.wrapping_add_signed(offset);
                        // Marking at once is the dilation of the field as
                        // it was: a marked cell is neither fluid (read)
                        // nor outside (marked again).
                        if within(c) && CellFlags(data[j]).is_outside() {
                            data[j] = boundary.0;
                            hull.push(c);
                        }
                    }
                }
            }
        }
        hull
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;
    use trillium_lattice::d3q19;

    #[test]
    fn flag_predicates() {
        assert!(CellFlags::FLUID.is_fluid());
        assert!(!CellFlags::FLUID.is_boundary());
        assert!(CellFlags::NOSLIP.is_boundary());
        assert!(CellFlags::VELOCITY.is_boundary());
        assert!(CellFlags::PRESSURE.is_boundary());
        assert!(CellFlags::OUTSIDE.is_outside());
        assert!(!CellFlags::OUTSIDE.is_fluid());
        // The obstacle marker composes with a boundary type: alone it is
        // not a boundary, combined it is, and the combination still
        // matches both masks.
        assert!(!CellFlags::OBSTACLE.is_boundary());
        let wall = CellFlags(CellFlags::OBSTACLE.0 | CellFlags::NOSLIP.0);
        assert!(wall.is_boundary());
        assert!(wall.intersects(CellFlags::OBSTACLE));
        assert!(wall.intersects(CellFlags::NOSLIP));
    }

    #[test]
    fn fluid_counting() {
        let mut f = FlagField::new(Shape::cube(3));
        f.set_flags(0, 0, 0, CellFlags::FLUID);
        f.set_flags(1, 1, 1, CellFlags::FLUID);
        f.set_flags(2, 2, 2, CellFlags::NOSLIP);
        assert_eq!(f.count_fluid(), 2);
        assert!((f.fluid_fraction() - 2.0 / 27.0).abs() < 1e-15);
    }

    #[test]
    fn dilation_builds_hull_around_single_fluid_cell() {
        // One fluid cell in the middle of a 5³ grid: its D3Q19 hull must be
        // exactly the 18 stencil neighbors.
        let mut f = FlagField::new(Shape::cube(5));
        f.set_flags(2, 2, 2, CellFlags::FLUID);
        let mut hull = f.dilate_hull(&d3q19::C, CellFlags::NOSLIP);
        let mut boundary = 0;
        for (x, y, z) in f.shape().with_ghosts().iter() {
            let fl = f.flags(x, y, z);
            if fl.is_boundary() {
                boundary += 1;
                let (dx, dy, dz) = (x - 2, y - 2, z - 2);
                // Must be a D3Q19 neighbor of the fluid cell.
                assert!(d3q19::C.contains(&[dx as i8, dy as i8, dz as i8]));
            }
        }
        assert_eq!(boundary, 18);
        // The marked cells are returned, each once.
        assert_eq!(hull.len(), 18);
        hull.sort_unstable();
        hull.dedup();
        assert_eq!(hull.len(), 18);
        assert!(hull.iter().all(|&[x, y, z]| f.flags(x, y, z) == CellFlags::NOSLIP));
        // Fluid cell itself is untouched.
        assert!(f.flags(2, 2, 2).is_fluid());
    }

    #[test]
    fn dilation_extends_into_ghost_layer() {
        // Fluid cell at a corner of the interior: part of the hull lies in
        // the ghost layer.
        let mut f = FlagField::new(Shape::cube(3));
        f.set_flags(0, 0, 0, CellFlags::FLUID);
        f.dilate_hull(&d3q19::C, CellFlags::NOSLIP);
        assert!(f.flags(-1, 0, 0).is_boundary());
        assert!(f.flags(-1, -1, 0).is_boundary());
        assert!(f.flags(1, 0, 0).is_boundary());
    }

    #[test]
    fn dilation_does_not_overwrite_existing_boundary() {
        let mut f = FlagField::new(Shape::cube(3));
        f.set_flags(1, 1, 1, CellFlags::FLUID);
        f.set_flags(1, 1, 2, CellFlags::PRESSURE);
        f.dilate_hull(&d3q19::C, CellFlags::NOSLIP);
        // Pre-existing pressure boundary must not be turned into no-slip.
        assert_eq!(f.flags(1, 1, 2), CellFlags::PRESSURE);
        assert_eq!(f.flags(1, 1, 0), CellFlags::NOSLIP);
    }
}
