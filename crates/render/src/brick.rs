//! Regular resampling of octree blocks ("bricks").
//!
//! A rendering processor receives octree blocks (subtrees) plus the node
//! data for their cells. For ray casting, each block is resampled onto a
//! small regular grid at the *selected octree level* — the knob adaptive
//! rendering turns (§4.1): level `max_leaf_level` reproduces the mesh
//! exactly where it is finest; coarser levels sample fewer points and the
//! brick (and its marching cost) shrinks by 8× per level.

use crate::image::Rgba;
use quakeviz_mesh::{Aabb, HexMesh, NodeField, OctreeBlock, Vec3};

/// Cells per macrocell edge: the granularity of empty-space skipping.
pub const MACROCELL: usize = 2;

/// A regular scalar grid over one octree block's bounds, values normalized
/// to `[0, 1]`.
///
/// Besides the node values a brick keeps what the ray caster needs to
/// march it in grid-index space: its cells per world unit along each
/// axis, and the value range of every [`MACROCELL`]³ macrocell.
#[derive(Debug, Clone)]
pub struct Brick {
    /// Id of the source block.
    pub block_id: u32,
    /// World bounds of the block.
    pub bounds: Aabb,
    /// Node counts per axis (≥ 2).
    dims: (usize, usize, usize),
    values: Vec<f32>,
    /// Cells per world unit along x, y, z.
    scale: [f64; 3],
    /// Macrocell counts per axis.
    mdims: (usize, usize, usize),
    /// `(min, max)` node value of each macrocell, x fastest.
    ranges: Vec<(f32, f32)>,
}

/// A point located in a brick's grid: the index of its cell's first node
/// in the value array, the cell's integer coordinates, and the trilinear
/// weights within the cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellPos {
    pub base: usize,
    pub cell: [usize; 3],
    pub uvw: [f32; 3],
}

impl Brick {
    fn new(block_id: u32, bounds: Aabb, dims: (usize, usize, usize), values: Vec<f32>) -> Brick {
        let e = bounds.extent();
        let scale =
            [(dims.0 - 1) as f64 / e.x, (dims.1 - 1) as f64 / e.y, (dims.2 - 1) as f64 / e.z];
        let mcount = |d: usize| (d - 1).div_ceil(MACROCELL);
        let mdims = (mcount(dims.0), mcount(dims.1), mcount(dims.2));
        // the nodes of macrocell m along an axis of d nodes, faces included
        let span = |m: usize, d: usize| m * MACROCELL..=((m + 1) * MACROCELL).min(d - 1);
        let mut ranges = Vec::with_capacity(mdims.0 * mdims.1 * mdims.2);
        for mk in 0..mdims.2 {
            for mj in 0..mdims.1 {
                for mi in 0..mdims.0 {
                    let mut r = (f32::INFINITY, f32::NEG_INFINITY);
                    for k in span(mk, dims.2) {
                        for j in span(mj, dims.1) {
                            for i in span(mi, dims.0) {
                                let v = values[i + dims.0 * (j + dims.1 * k)];
                                r = (r.0.min(v), r.1.max(v));
                            }
                        }
                    }
                    ranges.push(r);
                }
            }
        }
        Brick { block_id, bounds, dims, values, scale, mdims, ranges }
    }

    /// Resample `block` from `field` at octree `level` (clamped to the
    /// block's root level and the mesh's finest level), normalizing by
    /// `(lo, hi)`. Renderers that rebuild the same block every step keep
    /// a [`BrickGather`] instead.
    pub fn from_field(
        mesh: &HexMesh,
        field: &NodeField,
        block: &OctreeBlock,
        level: u8,
        norm: (f32, f32),
    ) -> Brick {
        BrickGather::new(mesh, block, level).brick(mesh, field, norm)
    }

    /// Build directly from raw normalized values (tests, synthetic data).
    pub fn from_values(
        block_id: u32,
        bounds: Aabb,
        dims: (usize, usize, usize),
        values: Vec<f32>,
    ) -> Brick {
        assert!(dims.0 >= 2 && dims.1 >= 2 && dims.2 >= 2, "brick needs ≥2 nodes per axis");
        assert_eq!(values.len(), dims.0 * dims.1 * dims.2);
        Brick::new(block_id, bounds, dims, values)
    }

    /// Node counts per axis.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Total stored samples.
    #[inline]
    pub fn sample_count(&self) -> usize {
        self.values.len()
    }

    /// The node values, x fastest.
    #[inline]
    pub(crate) fn values(&self) -> &[f32] {
        &self.values
    }

    /// Cells per world unit along x, y, z.
    #[inline]
    pub(crate) fn scale(&self) -> [f64; 3] {
        self.scale
    }

    /// Smallest cell edge in world units (ray-march step base).
    pub fn min_spacing(&self) -> f64 {
        let e = self.bounds.extent();
        (e.x / (self.dims.0 - 1) as f64)
            .min(e.y / (self.dims.1 - 1) as f64)
            .min(e.z / (self.dims.2 - 1) as f64)
    }

    /// Macrocell counts per axis.
    #[inline]
    pub(crate) fn macro_dims(&self) -> (usize, usize, usize) {
        self.mdims
    }

    /// `(min, max)` node value of each macrocell, x fastest.
    #[inline]
    pub(crate) fn macro_ranges(&self) -> &[(f32, f32)] {
        &self.ranges
    }

    /// Index of the macrocell holding cell `c`.
    #[inline]
    pub(crate) fn macrocell(&self, c: [usize; 3]) -> usize {
        c[0] / MACROCELL + self.mdims.0 * (c[1] / MACROCELL + self.mdims.1 * (c[2] / MACROCELL))
    }

    /// Locate grid-index point `f`, clamped into the brick. A point on the
    /// far face belongs to the last cell, with weight 1.
    #[inline]
    pub(crate) fn locate(&self, f: [f32; 3]) -> CellPos {
        let dims = [self.dims.0, self.dims.1, self.dims.2];
        let mut cell = [0usize; 3];
        let mut uvw = [0.0f32; 3];
        for a in 0..3 {
            let x = f[a].clamp(0.0, (dims[a] - 1) as f32);
            cell[a] = (x as usize).min(dims[a] - 2);
            uvw[a] = x - cell[a] as f32;
        }
        let base = cell[0] + dims[0] * (cell[1] + dims[1] * cell[2]);
        CellPos { base, cell, uvw }
    }

    /// Trilinear interpolation of `data` (laid out like the node values)
    /// in the cell at `c`.
    #[inline]
    pub(crate) fn interp(&self, data: &[f32], c: &CellPos) -> f32 {
        let (sy, sz) = (self.dims.0, self.dims.0 * self.dims.1);
        let [u, v, w] = c.uvw;
        let at = |o: usize| data[c.base + o];
        let c00 = at(0) * (1.0 - u) + at(1) * u;
        let c10 = at(sy) * (1.0 - u) + at(sy + 1) * u;
        let c01 = at(sz) * (1.0 - u) + at(sz + 1) * u;
        let c11 = at(sz + sy) * (1.0 - u) + at(sz + sy + 1) * u;
        let c0 = c00 * (1.0 - v) + c10 * v;
        let c1 = c01 * (1.0 - v) + c11 * v;
        c0 * (1.0 - w) + c1 * w
    }

    /// Trilinear sample at grid-index point `f` (node `(i, j, k)` sits at
    /// `[i, j, k]`), clamped into the brick.
    #[inline]
    pub fn sample_idx(&self, f: [f32; 3]) -> f32 {
        self.interp(&self.values, &self.locate(f))
    }

    /// Grid-index coordinates of world point `p`.
    fn to_index(&self, p: Vec3) -> [f32; 3] {
        let m = self.bounds.min;
        [
            ((p.x - m.x) * self.scale[0]) as f32,
            ((p.y - m.y) * self.scale[1]) as f32,
            ((p.z - m.z) * self.scale[2]) as f32,
        ]
    }

    /// Trilinear sample at world point `p` (clamped into the brick).
    pub fn sample(&self, p: Vec3) -> f32 {
        self.sample_idx(self.to_index(p))
    }

    /// Mean value (diagnostics).
    pub fn mean(&self) -> f32 {
        self.values.iter().sum::<f32>() / self.values.len() as f32
    }
}

/// Where every node of one block's brick at one level comes from, resolved
/// once: a mesh node id, or — for grid points interior to a coarser cell —
/// the world point to sample the field at. Applying the plan each step
/// replaces one octree lookup per grid point with an array read, and
/// yields the same values as [`Brick::from_field`].
#[derive(Debug, Clone)]
pub struct BrickGather {
    block_id: u32,
    bounds: Aabb,
    dims: (usize, usize, usize),
    /// Node id per grid point, x fastest; [`NO_NODE`] where the field is
    /// sampled instead.
    nodes: Vec<u32>,
    /// `(grid point, world point)` of every grid point without a node.
    fallbacks: Vec<(usize, Vec3)>,
}

/// Marks a grid point with no mesh node in [`BrickGather`].
const NO_NODE: u32 = u32::MAX;

impl BrickGather {
    /// Resolve the grid points of `block` at octree `level` (clamped to
    /// the block's root level and the mesh's finest level).
    pub fn new(mesh: &HexMesh, block: &OctreeBlock, level: u8) -> BrickGather {
        let max = mesh.octree().max_leaf_level();
        let level = level.clamp(block.root.level, max);
        let n = 1usize << (level - block.root.level); // cells per axis
        let dims = (n + 1, n + 1, n + 1);
        let (ax, ay, az) = block.root.anchor_at_level(max);
        let step = 1u32 << (max - level);
        let bounds = block.root.bounds(mesh.octree().extent());

        let mut nodes = Vec::with_capacity(dims.0 * dims.1 * dims.2);
        let mut fallbacks = Vec::new();
        for k in 0..dims.2 as u32 {
            for j in 0..dims.1 as u32 {
                for i in 0..dims.0 as u32 {
                    let (gx, gy, gz) = (ax + i * step, ay + j * step, az + k * step);
                    match mesh.node_at(gx, gy, gz) {
                        Some(id) => nodes.push(id),
                        None => {
                            // grid point interior to a coarser cell: sample
                            let e = mesh.octree().extent();
                            let nfine = (1u64 << max) as f64;
                            let p = Vec3::new(
                                gx as f64 / nfine * e.x,
                                gy as f64 / nfine * e.y,
                                gz as f64 / nfine * e.z,
                            );
                            // nudge boundary points inward so leaf lookup hits
                            let eps = 1e-9;
                            let q = Vec3::new(
                                p.x.min(e.x * (1.0 - eps)),
                                p.y.min(e.y * (1.0 - eps)),
                                p.z.min(e.z * (1.0 - eps)),
                            );
                            fallbacks.push((nodes.len(), q));
                            nodes.push(NO_NODE);
                        }
                    }
                }
            }
        }
        BrickGather { block_id: block.id, bounds, dims, nodes, fallbacks }
    }

    /// Gather this step's brick from `field`, normalizing by `(lo, hi)`.
    pub fn brick(&self, mesh: &HexMesh, field: &NodeField, norm: (f32, f32)) -> Brick {
        let scale = if norm.1 > norm.0 { 1.0 / (norm.1 - norm.0) } else { 0.0 };
        let normalize = |raw: f32| ((raw - norm.0) * scale).clamp(0.0, 1.0);
        let mut values: Vec<f32> = self
            .nodes
            .iter()
            .map(|&id| if id == NO_NODE { 0.0 } else { normalize(field.get(id)) })
            .collect();
        for &(i, q) in &self.fallbacks {
            values[i] = normalize(field.sample(mesh, q).unwrap_or(0.0));
        }
        Brick::new(self.block_id, self.bounds, self.dims, values)
    }
}

/// A color brick variant for precomputed emission (not used by the core
/// path but handy for LIC texture slabs).
#[derive(Debug, Clone)]
pub struct ColorBrick {
    pub bounds: Aabb,
    pub dims: (usize, usize),
    pub texels: Vec<Rgba>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use quakeviz_mesh::{HexMesh, Loc3, NodeField, Octree, RefineOracle, UniformRefinement};

    fn mesh() -> HexMesh {
        HexMesh::from_octree(Octree::build(Vec3::ONE, &UniformRefinement(3)))
    }

    fn x_field(m: &HexMesh) -> NodeField {
        let mut f = NodeField::zeros(m);
        for id in 0..m.node_count() as u32 {
            f.set(id, m.node_position(id).x as f32);
        }
        f
    }

    #[test]
    fn brick_dims_follow_level() {
        let m = mesh();
        let f = x_field(&m);
        let blocks = m.octree().blocks(1);
        let b3 = Brick::from_field(&m, &f, &blocks[0], 3, (0.0, 1.0));
        assert_eq!(b3.dims(), (5, 5, 5)); // 2^(3-1)+1
        let b1 = Brick::from_field(&m, &f, &blocks[0], 1, (0.0, 1.0));
        assert_eq!(b1.dims(), (2, 2, 2));
        // requesting deeper than the mesh clamps
        let b9 = Brick::from_field(&m, &f, &blocks[0], 9, (0.0, 1.0));
        assert_eq!(b9.dims(), (5, 5, 5));
    }

    #[test]
    fn brick_reproduces_linear_field() {
        let m = mesh();
        let f = x_field(&m);
        let blocks = m.octree().blocks(1);
        for block in &blocks[..2] {
            let brick = Brick::from_field(&m, &f, block, 3, (0.0, 1.0));
            for p in [brick.bounds.center(), brick.bounds.min + brick.bounds.extent() * 0.25] {
                let got = brick.sample(p);
                assert!((got - p.x as f32).abs() < 1e-5, "at {p:?}: {got} vs {}", p.x);
            }
        }
    }

    #[test]
    fn normalization_clamps() {
        let m = mesh();
        let f = x_field(&m); // values 0..1
        let block = &m.octree().blocks(0)[0];
        let b = Brick::from_field(&m, &f, block, 2, (0.25, 0.75));
        // raw 0.0 -> clamped 0; raw 1.0 -> clamped 1
        assert_eq!(b.sample(Vec3::new(0.0, 0.5, 0.5)), 0.0);
        assert_eq!(b.sample(Vec3::new(0.9999, 0.5, 0.5)), 1.0);
        let mid = b.sample(Vec3::new(0.5, 0.5, 0.5));
        assert!((mid - 0.5).abs() < 1e-5);
    }

    #[test]
    fn gather_plan_matches_per_point_lookup() {
        // an adaptive mesh, so some grid points fall inside coarser cells
        // and take the field-sampling fallback
        struct EdgeRefinement;
        impl RefineOracle for EdgeRefinement {
            fn refine(&self, loc: &Loc3, _: &Aabb) -> bool {
                loc.level < 2 || loc.x == 0
            }
            fn max_level(&self) -> u8 {
                4
            }
        }
        let m = HexMesh::from_octree(Octree::build(Vec3::ONE, &EdgeRefinement));
        let mut f = NodeField::zeros(&m);
        for id in 0..m.node_count() as u32 {
            let p = m.node_position(id);
            f.set(id, (p.x * 3.0 + p.y * p.z) as f32);
        }
        let mut fallbacks = 0;
        for block in &m.octree().blocks(1) {
            for level in 1..=4 {
                let plan = BrickGather::new(&m, block, level);
                fallbacks += plan.fallbacks.len();
                let want = reference_brick(&m, &f, block, level, (0.5, 3.5));
                let got = plan.brick(&m, &f, (0.5, 3.5));
                assert_eq!(got.dims(), want.0);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got.values()), bits(&want.1), "block {} level {level}", block.id);
            }
        }
        assert!(fallbacks > 0, "the mesh must exercise the sampling fallback");
    }

    /// The per-point resampling the gather plan replaces: one octree
    /// lookup per grid point, sampling the field where no node exists.
    fn reference_brick(
        mesh: &HexMesh,
        field: &NodeField,
        block: &OctreeBlock,
        level: u8,
        norm: (f32, f32),
    ) -> ((usize, usize, usize), Vec<f32>) {
        let max = mesh.octree().max_leaf_level();
        let level = level.clamp(block.root.level, max);
        let n = 1usize << (level - block.root.level);
        let (ax, ay, az) = block.root.anchor_at_level(max);
        let step = 1u32 << (max - level);
        let scale = 1.0 / (norm.1 - norm.0);
        let e = mesh.octree().extent();
        let nfine = (1u64 << max) as f64;
        let mut values = Vec::new();
        for k in 0..=n as u32 {
            for j in 0..=n as u32 {
                for i in 0..=n as u32 {
                    let (gx, gy, gz) = (ax + i * step, ay + j * step, az + k * step);
                    let raw = match mesh.node_at(gx, gy, gz) {
                        Some(id) => field.get(id),
                        None => {
                            let q = Vec3::new(
                                (gx as f64 / nfine * e.x).min(e.x * (1.0 - 1e-9)),
                                (gy as f64 / nfine * e.y).min(e.y * (1.0 - 1e-9)),
                                (gz as f64 / nfine * e.z).min(e.z * (1.0 - 1e-9)),
                            );
                            field.sample(mesh, q).unwrap_or(0.0)
                        }
                    };
                    values.push(((raw - norm.0) * scale).clamp(0.0, 1.0));
                }
            }
        }
        ((n + 1, n + 1, n + 1), values)
    }

    #[test]
    fn index_space_matches_world_space() {
        let m = mesh();
        let f = x_field(&m);
        let block = &m.octree().blocks(1)[3];
        let b = Brick::from_field(&m, &f, block, 3, (0.0, 1.0));
        let (lo, e) = (b.bounds.min, b.bounds.extent());
        // node (i, j, k) sits at grid index [i, j, k]
        assert_eq!(b.to_index(lo), [0.0; 3]);
        assert_eq!(b.to_index(lo + e), [4.0; 3]);
        let p = lo + e * 0.3;
        assert!((b.sample_idx([1.2, 1.2, 1.2]) - p.x as f32).abs() < 1e-5);
    }

    #[test]
    fn macrocell_ranges_bound_their_cells() {
        let n = 7; // an odd cell count leaves a one-cell macrocell per axis
        let mut rng = quakeviz_rt::rng::SplitMix64::new(9);
        let vals: Vec<f32> = (0..(n + 1) * (n + 1) * (n + 1)).map(|_| rng.next_f32()).collect();
        let b = Brick::from_values(0, Aabb::UNIT, (n + 1, n + 1, n + 1), vals);
        assert_eq!(b.macro_dims(), (4, 4, 4));
        for _ in 0..5000 {
            let f = [0, 1, 2].map(|_| rng.next_f32() * n as f32);
            let c = b.locate(f);
            let (lo, hi) = b.macro_ranges()[b.macrocell(c.cell)];
            let v = b.sample_idx(f);
            assert!(lo <= v + 1e-6 && v <= hi + 1e-6, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn min_spacing_scales_with_level() {
        let m = mesh();
        let f = x_field(&m);
        let block = &m.octree().blocks(1)[0];
        let fine = Brick::from_field(&m, &f, block, 3, (0.0, 1.0));
        let coarse = Brick::from_field(&m, &f, block, 2, (0.0, 1.0));
        assert!((coarse.min_spacing() - 2.0 * fine.min_spacing()).abs() < 1e-12);
        assert!(coarse.sample_count() < fine.sample_count());
    }

    #[test]
    fn sample_clamps_outside_bounds() {
        let b = Brick::from_values(
            0,
            Aabb::UNIT,
            (2, 2, 2),
            vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
        );
        assert_eq!(b.sample(Vec3::new(-5.0, 0.0, 0.0)), 0.0);
        assert_eq!(b.sample(Vec3::new(5.0, 0.0, 0.0)), 1.0);
    }
}
