//! Regular 2D vector fields and their extraction from the mesh surface.
//!
//! Paper §4.3: "for each time step, the 2D vector field on the surface is
//! extracted from the raw 3D vector fields. Since the extracted vector
//! field is on an irregular grid, to simplify the later LIC calculations a
//! 2D regular-grid vector field is derived using the underlying quadtree.
//! … The resolution of the 2D regular-grid vector field is determined by
//! the image size and the adaptive levels selected by the user."

use quakeviz_mesh::{HexMesh, NodeId, Quadtree, VectorField};
use quakeviz_rt::par::par_map;

/// A regular grid of 2D vectors over the ground rectangle, with its
/// magnitude grid computed once at construction: the LIC stagnation
/// floor, the colorizer and the overlay's normalization all read it.
#[derive(Debug, Clone, PartialEq)]
pub struct RegularField2D {
    pub width: u32,
    pub height: u32,
    /// Physical extent of the surface (x, y).
    pub extent: (f64, f64),
    /// Row-major `(vx, vy)` samples.
    vectors: Vec<(f32, f32)>,
    /// Row-major `|v|`.
    mags: Vec<f32>,
    max_mag: f32,
}

impl RegularField2D {
    pub fn new(width: u32, height: u32, extent: (f64, f64), vectors: Vec<(f32, f32)>) -> Self {
        assert_eq!(vectors.len(), (width * height) as usize);
        let mags: Vec<f32> = vectors.iter().map(|&(x, y)| (x * x + y * y).sqrt()).collect();
        let max_mag = mags.iter().copied().fold(0.0, f32::max);
        RegularField2D { width, height, extent, vectors, mags, max_mag }
    }

    /// Build from an analytic function of grid coordinates (tests).
    pub fn from_fn(
        width: u32,
        height: u32,
        extent: (f64, f64),
        f: impl Fn(f64, f64) -> (f32, f32),
    ) -> Self {
        let mut vectors = Vec::with_capacity((width * height) as usize);
        for j in 0..height {
            for i in 0..width {
                let x = (i as f64 + 0.5) / width as f64 * extent.0;
                let y = (j as f64 + 0.5) / height as f64 * extent.1;
                vectors.push(f(x, y));
            }
        }
        RegularField2D::new(width, height, extent, vectors)
    }

    /// Row-major `(vx, vy)` samples.
    #[inline]
    pub fn vectors(&self) -> &[(f32, f32)] {
        &self.vectors
    }

    /// Bilinear sample at *pixel* coordinates (continuous, clamped).
    #[inline]
    pub fn sample_px(&self, px: f32, py: f32) -> (f32, f32) {
        let (w, h) = (self.width as i32, self.height as i32);
        let fx = (px - 0.5).clamp(0.0, (w - 1) as f32);
        let fy = (py - 0.5).clamp(0.0, (h - 1) as f32);
        // i32 conversions: the clamped coordinates are non-negative and
        // small, and i32 <-> f32 is one instruction each way
        let (i0, j0) = (fx as i32, fy as i32);
        let (i1, j1) = ((i0 + 1).min(w - 1), (j0 + 1).min(h - 1));
        let (u, v) = (fx - i0 as f32, fy - j0 as f32);
        let g = |i: i32, j: i32| self.vectors[(j * w + i) as usize];
        // corner weights, computed while the corner loads are in flight
        let (a, b, c, d) = (g(i0, j0), g(i1, j0), g(i0, j1), g(i1, j1));
        let (w00, w10) = ((1.0 - u) * (1.0 - v), u * (1.0 - v));
        let (w01, w11) = ((1.0 - u) * v, u * v);
        (
            (w00 * a.0 + w10 * b.0) + (w01 * c.0 + w11 * d.0),
            (w00 * a.1 + w10 * b.1) + (w01 * c.1 + w11 * d.1),
        )
    }

    /// Per-pixel magnitude grid.
    #[inline]
    pub fn magnitude(&self) -> &[f32] {
        &self.mags
    }

    /// Largest magnitude (normalization).
    #[inline]
    pub fn max_magnitude(&self) -> f32 {
        self.max_mag
    }
}

/// The surface resampling as a sparse matrix: for every pixel of a
/// `width × height` grid, the surface nodes it gathers and their
/// inverse-distance weights, in the order [`Quadtree::idw_sample`] visits
/// them. The mesh is static, so the quadtree is queried once per pixel
/// when the stencil is built; each step is then one pass over the CSR
/// arrays, bit-identical to per-pixel `idw_sample`.
#[derive(Debug, Clone)]
pub struct SurfaceStencil {
    width: u32,
    height: u32,
    extent: (f64, f64),
    /// Pixel `p` gathers entries `offsets[p]..offsets[p + 1]`.
    offsets: Vec<u32>,
    nodes: Vec<NodeId>,
    weights: Vec<f64>,
    /// Per-pixel weight sum; `0.0` marks the nearest-node fallback (one
    /// entry, taken verbatim) and pixels of an empty quadtree (no entry).
    wsums: Vec<f64>,
}

impl SurfaceStencil {
    /// Query `quadtree` once per pixel: inverse-distance weights of the
    /// nodes within a radius of two output cells, else the nearest node.
    pub fn build(mesh: &HexMesh, quadtree: &Quadtree, width: u32, height: u32) -> SurfaceStencil {
        let e = mesh.octree().extent();
        let extent = (e.x, e.y);
        let cell = (extent.0 / width as f64).max(extent.1 / height as f64);
        let radius = cell * 2.0;
        let rows: Vec<(Vec<(NodeId, f64)>, f64)> =
            par_map(height as usize * width as usize, |idx| {
                let i = idx % width as usize;
                let j = idx / width as usize;
                let x = (i as f64 + 0.5) / width as f64 * extent.0;
                let y = (j as f64 + 0.5) / height as f64 * extent.1;
                let pts =
                    quadtree.query_rect_points((x - radius, y - radius), (x + radius, y + radius));
                let mut row = Vec::new();
                let mut wsum = 0.0;
                for (px, py, id) in pts {
                    let d2 = (px - x) * (px - x) + (py - y) * (py - y);
                    if d2 > radius * radius {
                        continue;
                    }
                    let w = 1.0 / (d2 + 1e-12);
                    wsum += w;
                    row.push((id, w));
                }
                if row.is_empty() {
                    if let Some((id, _)) = quadtree.nearest(x, y) {
                        row.push((id, 1.0));
                    }
                }
                (row, wsum)
            });
        let entries: usize = rows.iter().map(|(r, _)| r.len()).sum();
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut nodes = Vec::with_capacity(entries);
        let mut weights = Vec::with_capacity(entries);
        let mut wsums = Vec::with_capacity(rows.len());
        offsets.push(0);
        for (row, wsum) in rows {
            for (id, w) in row {
                nodes.push(id);
                weights.push(w);
            }
            offsets.push(nodes.len() as u32);
            wsums.push(wsum);
        }
        SurfaceStencil { width, height, extent, offsets, nodes, weights, wsums }
    }

    /// Resample the horizontal surface velocity of `field`.
    pub fn apply(&self, field: &VectorField) -> RegularField2D {
        let vectors = (0..self.wsums.len())
            .map(|p| {
                let (a, b) = (self.offsets[p] as usize, self.offsets[p + 1] as usize);
                let wsum = self.wsums[p];
                if wsum == 0.0 {
                    // nearest-node fallback, or nothing to sample
                    let (vx, vy) = self.nodes[a..b].first().map_or((0.0, 0.0), |&id| {
                        let (vx, vy) = field.horizontal(id);
                        (vx as f64, vy as f64)
                    });
                    return (vx as f32, vy as f32);
                }
                let (mut sx, mut sy) = (0.0f64, 0.0f64);
                for (&id, &w) in self.nodes[a..b].iter().zip(&self.weights[a..b]) {
                    let (vx, vy) = field.horizontal(id);
                    sx += w * vx as f64;
                    sy += w * vy as f64;
                }
                ((sx / wsum) as f32, (sy / wsum) as f32)
            })
            .collect();
        RegularField2D::new(self.width, self.height, self.extent, vectors)
    }
}

/// Extract the horizontal surface velocity field onto a `width × height`
/// regular grid, using a quadtree over the surface nodes for the
/// scattered-data interpolation (inverse-distance within a radius of two
/// output cells, nearest-point fallback). A caller resampling many steps
/// builds the [`SurfaceStencil`] once and applies it per step.
pub fn extract_surface_field(
    mesh: &HexMesh,
    field: &VectorField,
    quadtree: &Quadtree,
    width: u32,
    height: u32,
) -> RegularField2D {
    SurfaceStencil::build(mesh, quadtree, width, height).apply(field)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quakeviz_mesh::{
        Aabb, HexMesh, Loc3, NodeId, Octree, RefineOracle, UniformRefinement, Vec3,
    };
    use quakeviz_rt::rng::SplitMix64;

    #[test]
    fn from_fn_and_sample() {
        let f = RegularField2D::from_fn(8, 8, (1.0, 1.0), |x, _| (x as f32, 0.0));
        // sampling mid-grid reproduces the linear ramp: halfway between
        // texel 3 (x=0.4375) and texel 4 (x=0.5625) -> 0.5
        let (vx, vy) = f.sample_px(4.0, 4.0);
        assert!((vx - 0.5).abs() < 1e-6, "got {vx}");
        assert_eq!(vy, 0.0);
    }

    #[test]
    fn sample_clamps_at_edges() {
        let f = RegularField2D::from_fn(4, 4, (1.0, 1.0), |x, y| (x as f32, y as f32));
        let inside = f.sample_px(0.5, 0.5);
        let outside = f.sample_px(-10.0, -10.0);
        assert_eq!(inside, outside);
    }

    #[test]
    fn magnitude_grid() {
        let f = RegularField2D::new(2, 1, (1.0, 1.0), vec![(3.0, 4.0), (0.0, 0.0)]);
        assert_eq!(f.magnitude(), vec![5.0, 0.0]);
        assert_eq!(f.max_magnitude(), 5.0);
    }

    #[test]
    fn extraction_reproduces_uniform_surface_flow() {
        let mesh = HexMesh::from_octree(Octree::build(
            Vec3::new(100.0, 100.0, 50.0),
            &UniformRefinement(3),
        ));
        // 3D field: horizontal (2, -1) everywhere at the surface, noise below
        let mut vals = vec![[0.0f32; 3]; mesh.node_count()];
        for id in 0..mesh.node_count() as NodeId {
            let (_, _, z) = mesh.node_grid_coords(id);
            vals[id as usize] = if z == 0 { [2.0, -1.0, 0.3] } else { [9.0, 9.0, 9.0] };
        }
        let field = VectorField::new(vals);
        let (qt, _) = Quadtree::from_surface_nodes(&mesh);
        let reg = extract_surface_field(&mesh, &field, &qt, 16, 16);
        for &(vx, vy) in &reg.vectors {
            assert!((vx - 2.0).abs() < 1e-3, "vx {vx}");
            assert!((vy + 1.0).abs() < 1e-3, "vy {vy}");
        }
    }

    #[test]
    fn extraction_interpolates_gradient() {
        let mesh = HexMesh::from_octree(Octree::build(
            Vec3::new(100.0, 100.0, 50.0),
            &UniformRefinement(3),
        ));
        // surface vx = x coordinate
        let mut vals = vec![[0.0f32; 3]; mesh.node_count()];
        for id in 0..mesh.node_count() as NodeId {
            let p = mesh.node_position(id);
            if mesh.node_grid_coords(id).2 == 0 {
                vals[id as usize] = [p.x as f32, 0.0, 0.0];
            }
        }
        let field = VectorField::new(vals);
        let (qt, _) = Quadtree::from_surface_nodes(&mesh);
        let reg = extract_surface_field(&mesh, &field, &qt, 32, 32);
        // left third should be clearly smaller than right third
        let left = reg.vectors[16 * 32 + 4].0;
        let right = reg.vectors[16 * 32 + 27].0;
        assert!(left < right - 20.0, "left {left} right {right}");
    }

    /// Refines the near-surface cells of the `x < 40` part of the ground
    /// two levels deeper than the rest: surface node spacing varies by 4×
    /// across the image.
    struct PatchRefinement;

    impl RefineOracle for PatchRefinement {
        fn refine(&self, loc: &Loc3, bounds: &Aabb) -> bool {
            let deep = bounds.min.z < 10.0 && bounds.min.x < 40.0;
            loc.level < if deep { 5 } else { 3 }
        }
        fn max_level(&self) -> u8 {
            5
        }
    }

    /// Random horizontal velocities on every node.
    fn random_field(mesh: &HexMesh, seed: u64) -> VectorField {
        let mut rng = SplitMix64::new(seed);
        VectorField::new(
            (0..mesh.node_count())
                .map(|_| [rng.next_f32() * 2.0 - 1.0, rng.next_f32() * 2.0 - 1.0, rng.next_f32()])
                .collect(),
        )
    }

    #[test]
    fn stencil_matches_per_pixel_idw_bit_for_bit() {
        let extent = Vec3::new(100.0, 100.0, 50.0);
        let meshes = [
            ("uniform", HexMesh::from_octree(Octree::build(extent, &UniformRefinement(3)))),
            ("adaptive", HexMesh::from_octree(Octree::build(extent, &PatchRefinement))),
        ];
        for (name, mesh) in &meshes {
            let (qt, _) = Quadtree::from_surface_nodes(mesh);
            let field = random_field(mesh, 0xF1E1D);
            let (mut fallback, mut gathered) = (0usize, 0usize);
            for n in [16u32, 33, 128] {
                let stencil = SurfaceStencil::build(mesh, &qt, n, n);
                let reg = stencil.apply(&field);
                let cell = (100.0 / n as f64).max(100.0 / n as f64);
                let radius = cell * 2.0;
                for p in 0..(n * n) as usize {
                    let x = ((p % n as usize) as f64 + 0.5) / n as f64 * 100.0;
                    let y = ((p / n as usize) as f64 + 0.5) / n as f64 * 100.0;
                    let vx = qt.idw_sample(x, y, radius, |id| field.horizontal(id).0 as f64);
                    let vy = qt.idw_sample(x, y, radius, |id| field.horizontal(id).1 as f64);
                    let got = reg.vectors[p];
                    assert_eq!(
                        (got.0.to_bits(), got.1.to_bits()),
                        ((vx as f32).to_bits(), (vy as f32).to_bits()),
                        "{name} {n}x{n}: pixel {p} differs from idw_sample"
                    );
                    if stencil.wsums[p] == 0.0 {
                        fallback += 1;
                    } else if stencil.offsets[p + 1] - stencil.offsets[p] > 1 {
                        gathered += 1;
                    }
                }
            }
            assert!(fallback > 0, "{name}: no pixel took the nearest-node fallback");
            assert!(gathered > 0, "{name}: no pixel gathered several nodes");
        }
    }

    #[test]
    fn extraction_is_the_stencil() {
        let mesh =
            HexMesh::from_octree(Octree::build(Vec3::new(100.0, 100.0, 50.0), &PatchRefinement));
        let (qt, _) = Quadtree::from_surface_nodes(&mesh);
        let field = random_field(&mesh, 7);
        let stencil = SurfaceStencil::build(&mesh, &qt, 24, 20);
        assert_eq!(extract_surface_field(&mesh, &field, &qt, 24, 20), stencil.apply(&field));
        assert!(stencil.nodes.len() >= 24 * 20, "every pixel gathers at least one node");
    }
}
