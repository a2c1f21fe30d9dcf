//! Front-to-back ray casting of bricks into screen-space fragments.
//!
//! Each rendering processor ray-casts its own bricks; one brick yields one
//! [`Fragment`] — the premultiplied partial image over the brick's screen
//! rectangle. Fragments are what the sort-last compositing stage exchanges
//! (paper §4.4). A brick is convex, so compositing fragments in global
//! block visibility order reproduces the sequential single-processor image
//! exactly — the invariant the compositing property-tests check.

use crate::brick::{Brick, BrickGather, CellPos, MACROCELL};
use crate::camera::Camera;
use crate::image::{over, Rgba, RgbaImage, ScreenRect};
use crate::transfer::{OpacityTable, TransferFunction, MIN_ALPHA};
use quakeviz_mesh::{HexMesh, NodeField, OctreeBlock, Vec3};
use quakeviz_rt::obs::prof;
use quakeviz_rt::par::par_chunks_mut;
use std::collections::HashMap;

/// Blinn-Phong lighting parameters (paper §6: "lighting requires
/// calculations of gradient information to approximate local surface
/// orientation plus solving the lighting equation at each sample point").
#[derive(Debug, Clone)]
pub struct LightingParams {
    pub ambient: f32,
    pub diffuse: f32,
    pub specular: f32,
    pub shininess: f32,
    /// Directional light, world space (normalized at use).
    pub light_dir: Vec3,
    /// Gradient magnitude (in normalized-value-per-world-unit) below which
    /// shading is skipped (homogeneous regions have no surface).
    pub gradient_floor: f64,
}

impl Default for LightingParams {
    fn default() -> Self {
        LightingParams {
            ambient: 0.35,
            diffuse: 0.60,
            specular: 0.25,
            shininess: 24.0,
            light_dir: Vec3::new(-0.5, -0.3, -0.8),
            gradient_floor: 1e-4,
        }
    }
}

/// Renderer knobs.
#[derive(Debug, Clone)]
pub struct RenderParams {
    /// March step as a fraction of the brick's smallest cell edge.
    pub step_scale: f64,
    /// Optional gradient lighting.
    pub lighting: Option<LightingParams>,
    /// Stop a ray once accumulated opacity exceeds this.
    pub early_termination: f32,
    /// World length over which the transfer function's opacity applies
    /// once. `None` uses each brick's own cell size (resolution-dependent
    /// appearance); the pipeline sets the finest mesh spacing so opacity
    /// is consistent across bricks and across adaptive levels.
    pub opacity_unit: Option<f64>,
    /// Ray-cast image rows on the rayon pool. Default **off**: inside the
    /// pipeline each rendering *rank* is one thread, and the paper's
    /// renderer is pure message-passing (§7: "we have not exploited the
    /// SMP features"). Enable for single-process rendering.
    pub parallel_rows: bool,
}

impl Default for RenderParams {
    fn default() -> Self {
        RenderParams {
            step_scale: 0.7,
            lighting: None,
            early_termination: 0.98,
            opacity_unit: None,
            parallel_rows: false,
        }
    }
}

/// The partial image of one block over its screen rectangle
/// (premultiplied RGBA, row-major within `rect`).
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    pub block: u32,
    pub rect: ScreenRect,
    pub pixels: Vec<Rgba>,
}

impl Fragment {
    /// Payload bytes if shipped raw (16 B/pixel) — compositing accounting.
    pub fn byte_size(&self) -> u64 {
        self.rect.area() * 16
    }

    /// The pixel at absolute screen coordinates (must lie in `rect`).
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Rgba {
        debug_assert!(self.rect.contains(x, y));
        let w = self.rect.width();
        self.pixels[((y - self.rect.y0) * w + (x - self.rect.x0)) as usize]
    }
}

/// Ray-cast one brick. Returns `None` when the brick projects off screen
/// or contributes nothing (fully transparent).
///
/// Rays march in the brick's grid-index space: sample `i` of a ray sits
/// at `f0 + i·df`, so the per-sample work is one cell fetch and one read
/// of the transfer function's memoized opacity table, plus one
/// gradient-lattice fetch when lit. Macrocells whose value range maps to
/// transparent table bins are stepped over without sampling; every sample
/// skipped would have failed the opacity test (alpha > 1e-5), so the
/// image is the one marching every step gives.
pub fn render_brick(
    brick: &Brick,
    camera: &Camera,
    tf: &TransferFunction,
    params: &RenderParams,
) -> Option<Fragment> {
    let ds = brick.min_spacing() * params.step_scale;
    let ds_ratio = (ds / params.opacity_unit.unwrap_or_else(|| brick.min_spacing())) as f32;
    let (frag, work) = march(brick, camera, &tf.opacity_table(ds_ratio), params);
    // the counts are deterministic for a fixed scene, so the bench
    // baseline can catch work regressions wall-clock noise would hide
    if prof::enabled() {
        prof::ticks("raycast.rays", work.rays);
        prof::ticks("raycast.samples", work.samples);
        prof::ticks("raycast.shaded", work.shaded);
        prof::ticks("raycast.early_terminated", work.early);
    }
    frag
}

/// Per-brick Blinn-Phong state: the central-difference gradient at every
/// node (world units, one-sided at the faces) and the light in f32.
struct Shading {
    grad: [Vec<f32>; 3],
    light: [f32; 3],
    floor2: f32,
    ambient: f32,
    diffuse: f32,
    specular: f32,
    shininess: f32,
}

impl Shading {
    fn new(brick: &Brick, lp: &LightingParams) -> Shading {
        let (nx, ny, nz) = brick.dims();
        let v = brick.values();
        let scale = brick.scale();
        let mut grad = [vec![0.0f32; v.len()], vec![0.0f32; v.len()], vec![0.0f32; v.len()]];
        let dims = [nx, ny, nz];
        let strides = [1, nx, nx * ny];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let at = i + nx * (j + ny * k);
                    for (a, n) in [i, j, k].into_iter().enumerate() {
                        let s = strides[a];
                        let (lo, hi) = (
                            if n > 0 { at - s } else { at },
                            if n + 1 < dims[a] { at + s } else { at },
                        );
                        let cells = if n > 0 && n + 1 < dims[a] { 2.0 } else { 1.0 };
                        grad[a][at] = ((v[hi] - v[lo]) as f64 / cells * scale[a]) as f32;
                    }
                }
            }
        }
        let l = -lp.light_dir.normalized();
        Shading {
            grad,
            light: [l.x as f32, l.y as f32, l.z as f32],
            floor2: (lp.gradient_floor * lp.gradient_floor) as f32,
            ambient: lp.ambient,
            diffuse: lp.diffuse,
            specular: lp.specular,
            shininess: lp.shininess,
        }
    }

    /// The Blinn half vector for a ray travelling along `d`; zero (no
    /// highlight) when the ray looks straight along the light.
    fn half(&self, d: Vec3) -> [f32; 3] {
        let h =
            [self.light[0] - d.x as f32, self.light[1] - d.y as f32, self.light[2] - d.z as f32];
        let len = (h[0] * h[0] + h[1] * h[1] + h[2] * h[2]).sqrt();
        if len > 0.0 {
            [h[0] / len, h[1] / len, h[2] / len]
        } else {
            [0.0; 3]
        }
    }

    /// Shade a premultiplied sample in place, interpolating the gradient
    /// with the value's own cell and weights.
    #[inline]
    fn apply(&self, s: &mut Rgba, brick: &Brick, c: &CellPos, half: [f32; 3]) {
        let g = [0, 1, 2].map(|a| brick.interp(&self.grad[a], c));
        let gm2 = g[0] * g[0] + g[1] * g[1] + g[2] * g[2];
        if gm2 < self.floor2 {
            return;
        }
        let inv = 1.0 / gm2.sqrt();
        let dot = |u: [f32; 3]| (g[0] * u[0] + g[1] * u[1] + g[2] * u[2]).abs() * inv;
        // two-sided: volumes have no inside
        let ndotl = dot(self.light);
        let spec = dot(half).powf(self.shininess) * self.specular;
        let k = self.ambient + self.diffuse * ndotl;
        for c in 0..3 {
            s[c] = s[c] * k + spec * s[3];
        }
    }
}

/// Ray work of one image row or brick: rays that hit the brick, samples
/// evaluated, samples that passed the opacity test, rays stopped by early
/// termination.
#[derive(Default, Clone, Copy)]
struct Work {
    rays: u64,
    samples: u64,
    shaded: u64,
    early: u64,
}

/// [`render_brick`] with the opacity table already resolved.
fn march(
    brick: &Brick,
    camera: &Camera,
    table: &OpacityTable,
    params: &RenderParams,
) -> (Option<Fragment>, Work) {
    let empty: Vec<bool> =
        brick.macro_ranges().iter().map(|&(lo, hi)| table.transparent(lo, hi)).collect();
    if empty.iter().all(|&e| e) {
        return (None, Work::default());
    }
    let Some(rect) = camera.project_aabb(&brick.bounds) else {
        return (None, Work::default());
    };
    let w = rect.width() as usize;
    let h = rect.height() as usize;
    let ds = brick.min_spacing() * params.step_scale;
    let shading = params.lighting.as_ref().map(|lp| Shading::new(brick, lp));
    let scale = brick.scale();
    let lo = brick.bounds.min;
    let (mx, my, mz) = brick.macro_dims();
    let mlast = [mx - 1, my - 1, mz - 1];
    let mut pixels = vec![[0.0f32; 4]; w * h];

    let cast_row = |ry: usize, row: &mut [Rgba]| -> (bool, Work) {
        let y = rect.y0 + ry as u32;
        let mut row_any = false;
        let mut work = Work::default();
        for (rx, px) in row.iter_mut().enumerate() {
            let (o, d) = camera.ray(rect.x0 + rx as u32, y);
            let Some((t0, t1)) = brick.bounds.ray_intersect(o, d) else {
                continue;
            };
            work.rays += 1;
            // samples sit at t0 + (i + ½)·ds for every i with t < t1
            let n = ((t1 - t0) / ds - 0.5).ceil().max(0.0) as usize;
            let p0 = o + d * (t0 + ds * 0.5);
            let f0 = [
                ((p0.x - lo.x) * scale[0]) as f32,
                ((p0.y - lo.y) * scale[1]) as f32,
                ((p0.z - lo.z) * scale[2]) as f32,
            ];
            let df = [
                (d.x * ds * scale[0]) as f32,
                (d.y * ds * scale[1]) as f32,
                (d.z * ds * scale[2]) as f32,
            ];
            let at = |i: usize| {
                let t = i as f32;
                brick.locate([f0[0] + t * df[0], f0[1] + t * df[1], f0[2] + t * df[2]])
            };
            // the first sample past the macrocell holding sample `i`, from
            // where the ray crosses the macrocell's grid-index box; the
            // outermost macrocells never end, as locate() clamps into them.
            // Each axis' cell index is monotone in the sample index, so
            // if sample e − 1 still lies in the macrocell, every sample
            // before it does; otherwise fall back to the next sample.
            let exit = |i: usize, c: &CellPos| -> usize {
                let mut e = n as f32;
                for a in 0..3 {
                    let mc = c.cell[a] / MACROCELL;
                    if df[a] > 0.0 && mc < mlast[a] {
                        e = e.min(((((mc + 1) * MACROCELL) as f32 - f0[a]) / df[a]).ceil());
                    } else if df[a] < 0.0 && mc > 0 {
                        e = e.min((((mc * MACROCELL) as f32 - f0[a]) / df[a]).floor() + 1.0);
                    }
                }
                let e = e as usize; // saturates: negative and NaN give 0
                if e > i + 1 && brick.macrocell(at(e - 1).cell) == brick.macrocell(c.cell) {
                    e
                } else {
                    i + 1
                }
            };
            let half = shading.as_ref().map(|sh| sh.half(d));
            let mut acc = [0.0f32; 4];
            let mut i = 0usize;
            while i < n && acc[3] < params.early_termination {
                let c = at(i);
                if empty[brick.macrocell(c.cell)] {
                    i = exit(i, &c);
                    continue;
                }
                work.samples += 1;
                let v = brick.interp(brick.values(), &c);
                let mut s = table.lookup(v);
                if s[3] > MIN_ALPHA {
                    work.shaded += 1;
                    if let (Some(sh), Some(half)) = (&shading, half) {
                        sh.apply(&mut s, brick, &c, half);
                    }
                    // front-to-back accumulation
                    let tr = 1.0 - acc[3];
                    acc[0] += s[0] * tr;
                    acc[1] += s[1] * tr;
                    acc[2] += s[2] * tr;
                    acc[3] += s[3] * tr;
                }
                i += 1;
            }
            if acc[3] >= params.early_termination {
                work.early += 1;
            }
            if acc[3] > 0.0 {
                row_any = true;
                *px = acc;
            }
        }
        (row_any, work)
    };

    let mut any = false;
    let mut work = Work::default();
    let mut add = |row_any: bool, n: Work| {
        any |= row_any;
        work.rays += n.rays;
        work.samples += n.samples;
        work.shaded += n.shaded;
        work.early += n.early;
    };
    if params.parallel_rows {
        let rows = std::sync::Mutex::new(Vec::with_capacity(h));
        par_chunks_mut(&mut pixels, w, |ry, row| {
            let r = cast_row(ry, row);
            rows.lock().unwrap().push(r);
        });
        for (row_any, n) in rows.into_inner().unwrap() {
            add(row_any, n);
        }
    } else {
        for (ry, row) in pixels.chunks_mut(w).enumerate() {
            let (row_any, n) = cast_row(ry, row);
            add(row_any, n);
        }
    }
    (any.then_some(Fragment { block: brick.block_id, rect, pixels }), work)
}

/// Gather plans for the blocks one renderer draws, each built on first
/// use of its (block, level) and applied every step after.
#[derive(Debug, Default)]
pub struct GatherPlans {
    plans: HashMap<(u32, u8), BrickGather>,
}

/// Resample `block` at `level` through `plans` and ray-cast it.
///
/// Off-screen blocks are culled *before* the brick is built (part of the
/// view-dependent preprocessing: invisible data costs nothing).
#[allow(clippy::too_many_arguments)]
pub fn render_block(
    plans: &mut GatherPlans,
    mesh: &HexMesh,
    field: &NodeField,
    block: &OctreeBlock,
    level: u8,
    norm: (f32, f32),
    camera: &Camera,
    tf: &TransferFunction,
    params: &RenderParams,
) -> Option<Fragment> {
    camera.project_aabb(&block.root.bounds(mesh.octree().extent()))?;
    let plan = plans
        .plans
        .entry((block.id, level))
        .or_insert_with(|| BrickGather::new(mesh, block, level));
    render_brick(&plan.brick(mesh, field, norm), camera, tf, params)
}

/// Composite fragments **given in front-to-back order** into a full image
/// — the sequential reference the parallel compositing algorithms must
/// reproduce.
pub fn composite_fragments(fragments: &[&Fragment], width: u32, height: u32) -> RgbaImage {
    let mut img = RgbaImage::new(width, height);
    for f in fragments {
        for y in f.rect.y0..f.rect.y1 {
            for x in f.rect.x0..f.rect.x1 {
                let i = (y * width + x) as usize;
                img.pixels_mut()[i] = over(img.pixels()[i], f.get(x, y));
            }
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use quakeviz_mesh::Aabb;
    use quakeviz_rt::rng::SplitMix64;

    /// A constant-value brick.
    fn const_brick(v: f32) -> Brick {
        Brick::from_values(0, Aabb::UNIT, (2, 2, 2), vec![v; 8])
    }

    fn cam(size: u32) -> Camera {
        Camera::look_at(
            Vec3::new(0.5, 0.5, -3.0),
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::new(0.0, 1.0, 0.0),
            0.7,
            size,
            size,
        )
    }

    fn opaque_tf() -> TransferFunction {
        TransferFunction::new(vec![(0.0, [1.0, 0.0, 0.0, 0.0]), (1.0, [1.0, 0.0, 0.0, 0.9])])
    }

    #[test]
    fn empty_brick_renders_none() {
        let b = const_brick(0.0);
        let got = render_brick(&b, &cam(32), &opaque_tf(), &RenderParams::default());
        assert!(got.is_none(), "transparent brick must contribute nothing");
    }

    #[test]
    fn solid_brick_renders_center() {
        let b = const_brick(1.0);
        let p = RenderParams { step_scale: 0.25, ..Default::default() };
        let f = render_brick(&b, &cam(32), &opaque_tf(), &p).unwrap();
        assert!(!f.rect.is_empty());
        // the center pixel passes through a full-unit chord; with the TF's
        // 0.9 opacity per unit length the accumulated alpha approaches 0.9
        let c = f.get(16, 16);
        assert!(c[3] > 0.8, "center alpha {}", c[3]);
        assert!(c[0] > 0.7 && c[1] < 0.05);
    }

    #[test]
    fn off_screen_brick_none() {
        let b = Brick::from_values(
            0,
            Aabb::new(Vec3::new(100.0, 100.0, 0.0), Vec3::new(101.0, 101.0, 1.0)),
            (2, 2, 2),
            vec![1.0; 8],
        );
        assert!(render_brick(&b, &cam(32), &opaque_tf(), &RenderParams::default()).is_none());
    }

    #[test]
    fn longer_chord_more_opacity() {
        // thin brick vs thick brick with same TF: thick accumulates more
        let thin = Brick::from_values(
            0,
            Aabb::new(Vec3::new(0.0, 0.0, 0.45), Vec3::new(1.0, 1.0, 0.55)),
            (2, 2, 2),
            vec![0.5; 8],
        );
        let thick = const_brick(0.5);
        let tf =
            TransferFunction::new(vec![(0.0, [1.0, 1.0, 1.0, 0.3]), (1.0, [1.0, 1.0, 1.0, 0.3])]);
        // a fixed opacity unit makes optical depth proportional to chord
        let p = RenderParams { step_scale: 0.2, opacity_unit: Some(0.5), ..Default::default() };
        let ft = render_brick(&thin, &cam(33), &tf, &p).unwrap();
        let fk = render_brick(&thick, &cam(33), &tf, &p).unwrap();
        assert!(fk.get(16, 16)[3] > ft.get(16, 16)[3]);
    }

    #[test]
    fn step_size_invariance_of_opacity() {
        // opacity correction: halving the step should barely change alpha
        let b = const_brick(0.6);
        let tf =
            TransferFunction::new(vec![(0.0, [1.0, 1.0, 1.0, 0.4]), (1.0, [1.0, 1.0, 1.0, 0.4])]);
        let p1 = RenderParams { step_scale: 0.5, ..Default::default() };
        let p2 = RenderParams { step_scale: 0.25, ..Default::default() };
        let f1 = render_brick(&b, &cam(33), &tf, &p1).unwrap();
        let f2 = render_brick(&b, &cam(33), &tf, &p2).unwrap();
        let a1 = f1.get(16, 16)[3];
        let a2 = f2.get(16, 16)[3];
        assert!((a1 - a2).abs() < 0.05, "step-size dependent opacity: {a1} vs {a2}");
    }

    #[test]
    fn lighting_changes_image_on_gradient_field() {
        // a brick with a strong internal gradient
        let mut vals = vec![0.0f32; 27];
        for k in 0..3 {
            for j in 0..3 {
                for i in 0..3 {
                    vals[i + 3 * (j + 3 * k)] = i as f32 / 2.0;
                }
            }
        }
        let b = Brick::from_values(0, Aabb::UNIT, (3, 3, 3), vals);
        let tf = opaque_tf();
        let unlit = render_brick(&b, &cam(33), &tf, &RenderParams::default()).unwrap();
        let lit = render_brick(
            &b,
            &cam(33),
            &tf,
            &RenderParams { lighting: Some(LightingParams::default()), ..Default::default() },
        )
        .unwrap();
        assert_ne!(unlit.pixels, lit.pixels, "lighting must alter shading");
    }

    /// A seeded brick: a smooth blob plus noise, with large quiet
    /// regions so some macrocells are transparent and others are not.
    fn seeded_brick(rng: &mut SplitMix64) -> Brick {
        let d = [0, 1, 2].map(|_| 3 + rng.next_below(10) as usize);
        let c = [0, 1, 2].map(|_| rng.next_f32());
        let r = 0.2 + 0.4 * rng.next_f32();
        let mut vals = Vec::with_capacity(d[0] * d[1] * d[2]);
        for k in 0..d[2] {
            for j in 0..d[1] {
                for i in 0..d[0] {
                    let p = [i, j, k].map(|n| n as f32);
                    let q = [0, 1, 2].map(|a| p[a] / (d[a] - 1) as f32 - c[a]);
                    let dist = (q[0] * q[0] + q[1] * q[1] + q[2] * q[2]).sqrt();
                    let noise = 0.1 * rng.next_f32();
                    vals.push(((r - dist) / r + noise).clamp(0.0, 1.0));
                }
            }
        }
        let lo = Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()) * 0.2;
        let hi = lo + Vec3::new(0.6 + rng.next_f64(), 0.6 + rng.next_f64(), 0.6 + rng.next_f64());
        Brick::from_values(0, Aabb::new(lo, hi), (d[0], d[1], d[2]), vals)
    }

    /// A seeded transfer function with transparent bands between opaque
    /// ones.
    fn seeded_tf(rng: &mut SplitMix64) -> TransferFunction {
        let mut points = vec![(0.0, [0.1, 0.2, 0.8, 0.0])];
        let mut x = 0.0f32;
        while x < 0.9 {
            x += 0.05 + 0.2 * rng.next_f32();
            let a = if rng.next_below(2) == 0 { 0.0 } else { rng.next_f32() };
            points.push((x.min(1.0), [rng.next_f32(), rng.next_f32(), rng.next_f32(), a]));
        }
        TransferFunction::new(points)
    }

    #[test]
    fn empty_space_skipping_is_bit_identical() {
        let mut rng = SplitMix64::new(0x5c1b);
        let (mut skipped, mut full) = (0u64, 0u64);
        for case in 0..40 {
            let brick = seeded_brick(&mut rng);
            let tf = seeded_tf(&mut rng);
            let lit = case % 2 == 1;
            let params = RenderParams {
                step_scale: 0.3 + 0.6 * rng.next_f64(),
                lighting: lit.then(LightingParams::default),
                opacity_unit: Some(0.05),
                ..Default::default()
            };
            let ds = brick.min_spacing() * params.step_scale;
            let ratio = (ds / 0.05) as f32;
            let eye = Vec3::new(rng.next_f64() * 4.0 - 2.0, rng.next_f64() * 4.0 - 2.0, -3.0);
            let camera =
                Camera::look_at(eye, brick.bounds.center(), Vec3::new(0.0, 1.0, 0.0), 0.7, 40, 40);
            let (got, w_skip) = march(&brick, &camera, &tf.opacity_table(ratio), &params);
            let (want, w_full) =
                march(&brick, &camera, &OpacityTable::all_visible(&tf, ratio), &params);
            let bits = |f: &Option<Fragment>| {
                f.as_ref().map(|f| {
                    (f.rect, f.pixels.iter().flatten().map(|c| c.to_bits()).collect::<Vec<_>>())
                })
            };
            assert_eq!(bits(&got), bits(&want), "case {case}: skipping changed the image");
            assert_eq!(w_skip.shaded, w_full.shaded, "case {case}");
            assert!(w_skip.samples <= w_full.samples);
            (skipped, full) = (skipped + w_skip.samples, full + w_full.samples);
        }
        assert!(skipped < full, "skipping must evaluate fewer samples: {skipped} vs {full}");
    }

    #[test]
    fn linear_field_has_constant_lattice_gradient() {
        let (nx, ny, nz) = (5, 4, 6);
        let mut vals = Vec::new();
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    vals.push(0.1 * i as f32 + 0.05 * j as f32 + 0.02 * k as f32);
                }
            }
        }
        let bounds = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 0.5, 1.0));
        let b = Brick::from_values(0, bounds, (nx, ny, nz), vals);
        let sh = Shading::new(&b, &LightingParams::default());
        // d(value)/d(world) = per-cell step × cells per world unit
        let want = [0.1 * 4.0 / 2.0, 0.05 * 3.0 / 0.5, 0.02 * 5.0 / 1.0];
        let mut rng = SplitMix64::new(11);
        for _ in 0..500 {
            let f = [nx, ny, nz].map(|n| rng.next_f32() * (n - 1) as f32);
            let c = b.locate(f);
            for a in 0..3 {
                let g = b.interp(&sh.grad[a], &c);
                assert!((g - want[a]).abs() < 1e-5, "axis {a} at {f:?}: {g} vs {}", want[a]);
            }
        }
    }

    #[test]
    fn lit_ray_along_the_light_stays_finite() {
        // the view ray is exactly the light direction, so the Blinn half
        // vector degenerates; the highlight must vanish, not turn NaN
        let b = seeded_brick(&mut SplitMix64::new(3));
        let eye = b.bounds.center() + Vec3::new(0.0, 0.0, -3.0);
        let lp = LightingParams { light_dir: Vec3::new(0.0, 0.0, -1.0), ..Default::default() };
        let camera = Camera::look_at(eye, b.bounds.center(), Vec3::new(0.0, 1.0, 0.0), 0.5, 3, 3);
        let (_, d) = camera.ray(1, 1);
        assert_eq!(Shading::new(&b, &lp).half(d), [0.0; 3]);
        let params = RenderParams { lighting: Some(lp), ..Default::default() };
        let f = render_brick(&b, &camera, &TransferFunction::seismic(), &params).unwrap();
        assert!(f.pixels.iter().flatten().all(|c| c.is_finite()));
    }

    #[test]
    fn composite_fragments_order_matters() {
        let near = Fragment {
            block: 0,
            rect: ScreenRect::new(0, 0, 1, 1),
            pixels: vec![[0.8, 0.0, 0.0, 0.8]],
        };
        let far = Fragment {
            block: 1,
            rect: ScreenRect::new(0, 0, 1, 1),
            pixels: vec![[0.0, 0.8, 0.0, 0.8]],
        };
        let a = composite_fragments(&[&near, &far], 1, 1);
        let b = composite_fragments(&[&far, &near], 1, 1);
        assert!(a.get(0, 0)[0] > a.get(0, 0)[1], "near-first: red dominates");
        assert!(b.get(0, 0)[1] > b.get(0, 0)[0], "far-first: green dominates");
    }

    #[test]
    fn fragment_byte_size() {
        let f =
            Fragment { block: 0, rect: ScreenRect::new(2, 3, 10, 8), pixels: vec![[0.0; 4]; 40] };
        assert_eq!(f.byte_size(), 40 * 16);
    }
}
