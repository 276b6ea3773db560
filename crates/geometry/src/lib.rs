#![warn(missing_docs)]
//! Complex-geometry handling for massively parallel LBM simulations
//! (paper §2.3).
//!
//! Vascular geometries are described by triangle surface meshes. This crate
//! implements the full initialization pipeline of the paper:
//!
//! * [`mesh`] — indexed triangle meshes with per-vertex colors (the paper
//!   encodes inflow/outflow surfaces as vertex colors),
//! * [`tri_dist`] — 3-D point-to-triangle distance (Jones),
//! * [`pseudonormals`] — angle-weighted pseudonormals for numerically
//!   stable inside/outside classification (Bærentzen & Aanæs),
//! * [`octree`] — hierarchical subdivision of the triangle set
//!   (Payne & Toga) reducing the number of point–triangle tests,
//! * [`sdf`] — the implicit signed distance function `φ(p, Γ)` combining
//!   the above, and analytic reference distance fields,
//! * [`isosurface`] — marching-tetrahedra surface extraction, used to turn
//!   procedural implicit domains into watertight triangle meshes,
//! * [`vascular`] — a procedural coronary-artery-tree generator standing in
//!   for the paper's CTA dataset (see DESIGN.md for the substitution
//!   argument),
//! * [`voxelize`] — classification of blocks (intersection tests with
//!   circumsphere/insphere shortcuts) and cells (fluid marking, boundary
//!   hull, colored-cap boundary-condition assignment).

pub mod isosurface;
pub mod mesh;
pub mod meshio;
pub mod octree;
pub mod pseudonormals;
pub mod sdf;
pub mod tri_dist;
pub mod vascular;
pub mod vec3;
pub mod voxelize;

pub use mesh::{Aabb, TriMesh};
pub use meshio::{read_off, read_stl, write_off, write_stl};
pub use octree::TriangleOctree;
pub use sdf::{AnalyticSdf, MeshSdf, SignedDistance};
pub use vascular::{VascularTree, VascularTreeParams};
pub use vec3::Vec3;
pub use voxelize::{classify_block, voxelize_block, VoxelizeConfig};
