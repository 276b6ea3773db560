#![warn(missing_docs)]
//! Cell-field containers for block-structured LBM simulations.
//!
//! A *field* is a uniform Cartesian grid of cells owned by one block,
//! surrounded by a ghost layer used for communication between neighboring
//! blocks (paper §2.2). This crate provides:
//!
//! * [`Shape`] — extents, ghost width and linear indexing of a grid,
//! * [`AosPdfField`] / [`SoaPdfField`] — particle-distribution-function
//!   storage in "Array of Structures" and "Structure of Arrays" layout
//!   (paper §4.1: SoA is the layout enabling SIMD vectorization),
//! * [`ScalarField`] — per-cell scalars (density, boundary data, flags),
//! * [`FlagField`] and [`CellFlags`] — cell classification (fluid, boundary
//!   types, outside-domain) plus the morphological dilation used to compute
//!   the boundary hull of the fluid domain (paper §2.3),
//! * [`RowIntervals`] — the sparse-block iteration scheme of paper §4.3,
//!   and [`RowTable`], the row-compressed storage a carved block's PDF
//!   fields keep.

pub mod flags;
pub mod pdf;
pub mod region;
pub mod scalar;
pub mod shape;
pub mod sparse;

pub use flags::{CellFlags, FlagField, FlagOps};
pub use pdf::{AosPdfField, PdfField, SoaPdfField};
pub use region::Region;
pub use scalar::ScalarField;
pub use shape::Shape;
pub use sparse::{RowIntervals, RowTable};
