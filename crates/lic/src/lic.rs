//! Line Integral Convolution (Cabral & Leedom 1993).
//!
//! For each output pixel, a streamline of the 2D field is traced forward
//! and backward with fixed-step RK2; the white-noise texture is convolved
//! along it. A periodic (Hanning-windowed, phase-shifted) kernel produces
//! animation frames that give the impression of flow direction (§2.5).

use crate::field2d::RegularField2D;
use quakeviz_render::{RgbaImage, TransferFunction};
use quakeviz_rt::obs::prof;
use quakeviz_rt::par::par_map;
use std::sync::atomic::{AtomicU64, Ordering};

/// LIC parameters.
#[derive(Debug, Clone, Copy)]
pub struct LicParams {
    /// Half kernel length in pixels (streamline steps each direction).
    pub kernel_half: usize,
    /// Integration step in pixels.
    pub step_px: f64,
    /// Animation phase in `[0, 1)`; `None` uses a box filter (static LIC).
    pub phase: Option<f64>,
    /// Magnitudes below this fraction of the max are treated as stagnant
    /// (pixel keeps plain noise, avoiding division blow-ups).
    pub stagnation_eps: f32,
}

impl Default for LicParams {
    fn default() -> Self {
        LicParams { kernel_half: 12, step_px: 0.7, phase: None, stagnation_eps: 1e-6 }
    }
}

/// Compute the LIC gray texture of `field` over `noise` (a
/// `width × height` grid matching the field's grid). Returns per-pixel
/// gray values in `[0, 1]`.
///
/// Streamlines are integrated in f32 pixel coordinates: positions,
/// midpoint (RK2) steps, bounds tests and the convolution sum. The start
/// sample at the pixel centre is fetched once and serves both the
/// stagnation test and the first step of each direction.
pub fn compute_lic(field: &RegularField2D, noise: &[f32], params: &LicParams) -> Vec<f32> {
    let (w, h) = (field.width as usize, field.height as usize);
    assert_eq!(noise.len(), w * h, "noise texture size mismatch");
    let floor = field.max_magnitude() * params.stagnation_eps;
    let kernel: Vec<f32> = (0..=2 * params.kernel_half)
        .map(|i| {
            let t = i as f64 / (2 * params.kernel_half) as f64; // 0..1
            match params.phase {
                None => 1.0,
                Some(phase) => {
                    // periodic Hanning window sliding with phase
                    let u = (t - phase).rem_euclid(1.0);
                    (0.5 * (1.0 - (2.0 * std::f64::consts::PI * u).cos())) as f32
                }
            }
        })
        .collect();
    let half = params.kernel_half;
    let step = params.step_px as f32;
    let (wf, hf) = (w as f32, h as f32);
    let noise_at = |x: f32, y: f32| {
        noise[(y as i32).min(h as i32 - 1) as usize * w + (x as i32).min(w as i32 - 1) as usize]
    };

    // streamline step count is deterministic for a fixed field; under
    // QUAKEVIZ_PROF it feeds the bench baseline as a work metric
    let prof_on = prof::enabled();
    let steps = AtomicU64::new(0);
    let gray = par_map(w * h, |idx| {
        let x0 = (idx % w) as f32 + 0.5;
        let y0 = (idx / w) as f32 + 0.5;
        let v0 = field.sample_px(x0, y0);
        let m0 = (v0.0 * v0.0 + v0.1 * v0.1).sqrt();
        if m0 <= floor {
            return noise[idx];
        }
        let mut nsteps = 0u64;
        let mut acc = kernel[half] * noise[idx];
        let mut wsum = kernel[half];
        for dir in [1.0f32, -1.0] {
            let (mut x, mut y) = (x0, y0);
            for s in 1..=half {
                nsteps += 1;
                // RK2 midpoint step
                let (v, m) = if s > 1 {
                    let v = field.sample_px(x, y);
                    (v, (v.0 * v.0 + v.1 * v.1).sqrt())
                } else {
                    (v0, m0)
                };
                if m <= floor {
                    break;
                }
                let k = dir * step * 0.5 / m;
                let mid = field.sample_px(x + k * v.0, y + k * v.1);
                let mm = (mid.0 * mid.0 + mid.1 * mid.1).sqrt();
                if mm <= floor {
                    break;
                }
                let k = dir * step / mm;
                x += k * mid.0;
                y += k * mid.1;
                if x < 0.0 || y < 0.0 || x >= wf || y >= hf {
                    break;
                }
                let kw = kernel[if dir > 0.0 { half + s } else { half - s }];
                acc += kw * noise_at(x, y);
                wsum += kw;
            }
        }
        if prof_on {
            steps.fetch_add(nsteps, Ordering::Relaxed);
        }
        if wsum > 0.0 {
            acc / wsum
        } else {
            noise[idx]
        }
    });
    if prof_on {
        prof::ticks("lic.pixels", (w * h) as u64);
        prof::ticks("lic.streamline_steps", steps.load(Ordering::Relaxed));
    }
    gray
}

/// Colorize a LIC gray texture by velocity magnitude: hue/opacity from the
/// transfer function, luminance modulated by the LIC streaks. This is the
/// image the output processors composite with the volume rendering.
pub fn colorize(
    field: &RegularField2D,
    gray: &[f32],
    tf: &TransferFunction,
    mag_scale: f32,
) -> RgbaImage {
    let (w, h) = (field.width, field.height);
    assert_eq!(gray.len(), (w * h) as usize);
    let mags = field.magnitude();
    let mut img = RgbaImage::new(w, h);
    for j in 0..h {
        for i in 0..w {
            let idx = (j * w + i) as usize;
            let v = if mag_scale > 0.0 { (mags[idx] / mag_scale).min(1.0) } else { 0.0 };
            let c = tf.lookup(v);
            let g = gray[idx];
            // The LIC texture is a ground map: the streaks must stay
            // visible everywhere, tinted (not replaced) by the transfer
            // function's hue, with opacity growing with magnitude so the
            // volume rendering can sit in front of it.
            let a = (0.55 + 0.40 * v).clamp(0.0, 1.0);
            let tint = [(c[0] + 0.5) / 1.5, (c[1] + 0.5) / 1.5, (c[2] + 0.5) / 1.5];
            img.set(i, j, [g * tint[0] * a, g * tint[1] * a, g * tint[2] * a, a]);
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::white_noise;

    /// Mean absolute difference between neighbouring texels along an axis.
    fn roughness(gray: &[f32], w: usize, h: usize, axis: usize) -> f64 {
        let mut acc = 0.0;
        let mut n = 0u64;
        for j in 0..h - 1 {
            for i in 0..w - 1 {
                let a = gray[j * w + i];
                let b = if axis == 0 { gray[j * w + i + 1] } else { gray[(j + 1) * w + i] };
                acc += (a - b).abs() as f64;
                n += 1;
            }
        }
        acc / n as f64
    }

    #[test]
    fn horizontal_flow_makes_horizontal_streaks() {
        let w = 64usize;
        let field = RegularField2D::from_fn(w as u32, w as u32, (1.0, 1.0), |_, _| (1.0, 0.0));
        let noise = white_noise(w as u32, w as u32, 42);
        let gray = compute_lic(&field, &noise, &LicParams::default());
        // smooth along x (flow), rough along y (across flow)
        let rx = roughness(&gray, w, w, 0);
        let ry = roughness(&gray, w, w, 1);
        assert!(rx * 1.5 < ry, "streaks must be smooth along the flow: along {rx}, across {ry}");
    }

    #[test]
    fn vertical_flow_rotates_the_streaks() {
        let w = 64usize;
        let field = RegularField2D::from_fn(w as u32, w as u32, (1.0, 1.0), |_, _| (0.0, 1.0));
        let noise = white_noise(w as u32, w as u32, 42);
        let gray = compute_lic(&field, &noise, &LicParams::default());
        let rx = roughness(&gray, w, w, 0);
        let ry = roughness(&gray, w, w, 1);
        assert!(ry * 1.5 < rx);
    }

    #[test]
    fn stagnant_region_keeps_noise() {
        let w = 32usize;
        let field = RegularField2D::from_fn(w as u32, w as u32, (1.0, 1.0), |x, _| {
            if x < 0.5 {
                (0.0, 0.0)
            } else {
                (1.0, 0.0)
            }
        });
        let noise = white_noise(w as u32, w as u32, 3);
        let gray = compute_lic(&field, &noise, &LicParams::default());
        // stagnant pixels return the raw noise
        for j in 0..w {
            for i in 0..8 {
                assert_eq!(gray[j * w + i], noise[j * w + i]);
            }
        }
    }

    #[test]
    fn lic_smooths_variance() {
        let w = 64usize;
        let field = RegularField2D::from_fn(w as u32, w as u32, (1.0, 1.0), |_, _| (1.0, 1.0));
        let noise = white_noise(w as u32, w as u32, 5);
        let gray = compute_lic(&field, &noise, &LicParams::default());
        let var = |v: &[f32]| {
            let m = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / v.len() as f32
        };
        assert!(var(&gray) < var(&noise) * 0.5, "convolution must damp variance");
    }

    #[test]
    fn phase_animation_changes_frames_smoothly() {
        let w = 32usize;
        let field = RegularField2D::from_fn(w as u32, w as u32, (1.0, 1.0), |_, _| (1.0, 0.0));
        let noise = white_noise(w as u32, w as u32, 9);
        let f = |phase: f64| {
            compute_lic(&field, &noise, &LicParams { phase: Some(phase), ..Default::default() })
        };
        let a = f(0.0);
        let b = f(0.25);
        let a2 = f(0.0);
        assert_eq!(a, a2, "deterministic per phase");
        assert_ne!(a, b, "different phases give different frames");
    }

    /// The f64 streamline integration the f32 kernel replaced: f64
    /// positions and bounds, f64 kernel and convolution sum.
    fn compute_lic_f64(field: &RegularField2D, noise: &[f32], params: &LicParams) -> Vec<f32> {
        let (w, h) = (field.width as usize, field.height as usize);
        let floor = field.max_magnitude() * params.stagnation_eps;
        let sample = |px: f64, py: f64| -> (f32, f32) {
            let fx = (px - 0.5).clamp(0.0, (w - 1) as f64);
            let fy = (py - 0.5).clamp(0.0, (h - 1) as f64);
            let (i0, j0) = (fx as usize, fy as usize);
            let (i1, j1) = ((i0 + 1).min(w - 1), (j0 + 1).min(h - 1));
            let (u, v) = ((fx - i0 as f64) as f32, (fy - j0 as f64) as f32);
            let g = |i: usize, j: usize| field.vectors()[j * w + i];
            let lerp2 = |a: (f32, f32), b: (f32, f32), t: f32| {
                (a.0 + (b.0 - a.0) * t, a.1 + (b.1 - a.1) * t)
            };
            lerp2(lerp2(g(i0, j0), g(i1, j0), u), lerp2(g(i0, j1), g(i1, j1), u), v)
        };
        let kernel: Vec<f64> = (0..=2 * params.kernel_half)
            .map(|i| {
                let t = i as f64 / (2 * params.kernel_half) as f64;
                match params.phase {
                    None => 1.0,
                    Some(phase) => {
                        let u = (t - phase).rem_euclid(1.0);
                        0.5 * (1.0 - (2.0 * std::f64::consts::PI * u).cos())
                    }
                }
            })
            .collect();
        let noise_at =
            |x: f64, y: f64| noise[(y as usize).min(h - 1) * w + (x as usize).min(w - 1)] as f64;
        (0..w * h)
            .map(|idx| {
                let x0 = (idx % w) as f64 + 0.5;
                let y0 = (idx / w) as f64 + 0.5;
                let (vx, vy) = sample(x0, y0);
                if (vx * vx + vy * vy).sqrt() <= floor {
                    return noise[idx];
                }
                let mut acc = kernel[params.kernel_half] * noise_at(x0, y0);
                let mut wsum = kernel[params.kernel_half];
                for dir in [1.0f64, -1.0] {
                    let (mut x, mut y) = (x0, y0);
                    for s in 1..=params.kernel_half {
                        let (vx, vy) = sample(x, y);
                        let m = ((vx * vx + vy * vy) as f64).sqrt();
                        if m <= floor as f64 {
                            break;
                        }
                        let hx = x + dir * params.step_px * 0.5 * vx as f64 / m;
                        let hy = y + dir * params.step_px * 0.5 * vy as f64 / m;
                        let (wx, wy) = sample(hx, hy);
                        let wm = ((wx * wx + wy * wy) as f64).sqrt();
                        if wm <= floor as f64 {
                            break;
                        }
                        x += dir * params.step_px * wx as f64 / wm;
                        y += dir * params.step_px * wy as f64 / wm;
                        if x < 0.0 || y < 0.0 || x >= w as f64 || y >= h as f64 {
                            break;
                        }
                        let ki =
                            if dir > 0.0 { params.kernel_half + s } else { params.kernel_half - s };
                        acc += kernel[ki] * noise_at(x, y);
                        wsum += kernel[ki];
                    }
                }
                if wsum > 0.0 {
                    (acc / wsum) as f32
                } else {
                    noise[idx]
                }
            })
            .collect()
    }

    #[test]
    fn f32_integration_tracks_the_f64_reference() {
        let w = 96u32;
        // vortex with a stagnant core, so streamlines curve and some stop
        let field = RegularField2D::from_fn(w, w, (1.0, 1.0), |x, y| {
            let (dx, dy) = (x - 0.5, y - 0.5);
            (-dy as f32, dx as f32)
        });
        let noise = white_noise(w, w, 11);
        for phase in [0.0, 0.24, 0.56, 0.88] {
            let params = LicParams { phase: Some(phase), ..Default::default() };
            let got = compute_lic(&field, &noise, &params);
            let want = compute_lic_f64(&field, &noise, &params);
            let mean = got.iter().zip(&want).map(|(a, b)| (a - b).abs() as f64).sum::<f64>()
                / got.len() as f64;
            assert!(mean <= 1e-3, "phase {phase}: mean |gray delta| {mean} vs the f64 reference");
        }
    }

    #[test]
    fn colorize_dimensions_and_opacity() {
        let field = RegularField2D::from_fn(8, 8, (1.0, 1.0), |x, _| (x as f32, 0.0));
        let gray = vec![0.5f32; 64];
        let tf = TransferFunction::seismic();
        let img = colorize(&field, &gray, &tf, field.max_magnitude());
        assert_eq!((img.width(), img.height()), (8, 8));
        // strong-flow side more opaque than stagnant side
        let left = img.get(0, 4)[3];
        let right = img.get(7, 4)[3];
        assert!(right > left, "opacity should grow with magnitude: {left} vs {right}");
    }
}
