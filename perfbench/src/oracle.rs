//! Frame oracles and the committed reference thumbnails.
//!
//! Two checks guard every frame the benchmark times:
//!
//! 1. **Bit identity.** Each measured frame must equal, bit for bit, the
//!    frame the same build renders for the same inputs with prefetch off,
//!    cache off, raw wire, and no faults or delay (for `failover_rejoin`:
//!    the clean run over the renderers alive at that step).
//! 2. **Reference.** The oracle itself must match thumbnails committed in
//!    `perfbench/reference/`, within [`THUMB_MEAN_TOL`] and
//!    [`THUMB_MAX_TOL`]. A kernel change may move float rounding and
//!    still pass; a wrong picture does not.

use crate::workload::{camera, tf_pool, Inputs, Workload, KILL_STEP, REJOIN_STEP};
use quakeviz_render::{RgbaImage, TransferFunction};
use quakeviz_seismic::Dataset;
use std::path::{Path, PathBuf};

/// Thumbnail edge length, pixels.
pub const THUMB: u32 = 16;
/// The reference covers every `REF_EVERY`-th step of the canonical oracle
/// run, ending each stride (steps 3, 7, 11, ...): early steps alone are
/// too quiet to show a wrong transfer function.
pub const REF_EVERY: usize = 4;
/// Largest mean absolute difference per 8-bit channel value between an
/// oracle thumbnail and its reference.
pub const THUMB_MEAN_TOL: f64 = 1.0;
/// Largest absolute difference of any one 8-bit channel value.
pub const THUMB_MAX_TOL: u8 = 12;

/// The oracle frames a run compares against.
pub struct Oracle {
    /// `frames[k][t]`: frame of step `t` for variant `k` — the transfer
    /// function pool index for `tf_explore`, the live-set choice (0 =
    /// every renderer, 1 = without the victim) for `failover_rejoin`, and
    /// the single configuration elsewhere.
    frames: Vec<Vec<RgbaImage>>,
    workload: Workload,
}

impl Oracle {
    pub fn build(w: Workload, ds: &Dataset, inputs: &Inputs) -> Result<Oracle, String> {
        let run = |tf: &TransferFunction, renderers: usize| {
            w.oracle(ds, &inputs.camera, tf, renderers).run().map(|r| r.frames)
        };
        let frames = match w {
            Workload::TfExplore => {
                let mut used: Vec<usize> = inputs.passes.clone();
                used.sort_unstable();
                used.dedup();
                let mut frames = vec![Vec::new(); used.last().map_or(0, |&m| m + 1)];
                for p in used {
                    frames[p] = run(&tf_pool(p), w.renderers())?;
                }
                frames
            }
            Workload::FailoverRejoin => {
                let tf = TransferFunction::seismic();
                vec![run(&tf, w.renderers())?, run(&tf, w.renderers() - 1)?]
            }
            _ => vec![run(&TransferFunction::seismic(), w.renderers())?],
        };
        Ok(Oracle { frames, workload: w })
    }

    /// The oracle frame for step `t` of a pass over variant `variant`.
    fn frame(&self, variant: usize, t: usize) -> Option<&RgbaImage> {
        let k = match self.workload {
            Workload::FailoverRejoin => usize::from((KILL_STEP..REJOIN_STEP).contains(&t)),
            Workload::TfExplore => variant,
            _ => 0,
        };
        self.frames.get(k)?.get(t)
    }

    /// Count the frames of one invocation that are missing or differ from
    /// the oracle in any bit. `steps` is how many frames were expected.
    pub fn errors(&self, variant: usize, frames: &[RgbaImage], steps: usize) -> usize {
        (0..steps)
            .filter(|&t| match (frames.get(t), self.frame(variant, t)) {
                (Some(got), Some(want)) => !bit_identical(got, want),
                _ => true,
            })
            .count()
    }
}

/// Whether two frames have the same size and the same bits in every
/// channel of every pixel (so `-0.0` differs from `0.0`, and a NaN equals
/// only the same NaN).
pub fn bit_identical(a: &RgbaImage, b: &RgbaImage) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.pixels()
            .iter()
            .zip(b.pixels())
            .all(|(p, q)| p.iter().zip(q).all(|(x, y)| x.to_bits() == y.to_bits()))
}

/// Box-filter `img` down to a [`THUMB`]² thumbnail of premultiplied RGBA
/// quantized to 8 bits per channel.
pub fn thumbnail(img: &RgbaImage) -> Vec<u8> {
    let (w, h) = (img.width(), img.height());
    let mut out = Vec::with_capacity((THUMB * THUMB * 4) as usize);
    for ty in 0..THUMB {
        for tx in 0..THUMB {
            let (x0, x1) = (tx * w / THUMB, ((tx + 1) * w / THUMB).max(tx * w / THUMB + 1));
            let (y0, y1) = (ty * h / THUMB, ((ty + 1) * h / THUMB).max(ty * h / THUMB + 1));
            let mut acc = [0.0f64; 4];
            for y in y0..y1.min(h) {
                for x in x0..x1.min(w) {
                    for (a, c) in acc.iter_mut().zip(img.get(x, y)) {
                        *a += c as f64;
                    }
                }
            }
            let n = ((x1.min(w) - x0) * (y1.min(h) - y0)).max(1) as f64;
            out.extend(acc.iter().map(|a| (a / n * 255.0).round().clamp(0.0, 255.0) as u8));
        }
    }
    out
}

/// Compare two thumbnails: `Err` names the first tolerance exceeded.
pub fn thumbnails_match(got: &[u8], want: &[u8]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("thumbnail size {} != reference {}", got.len(), want.len()));
    }
    let diffs: Vec<u8> = got.iter().zip(want).map(|(a, b)| a.abs_diff(*b)).collect();
    let mean = diffs.iter().map(|&d| d as f64).sum::<f64>() / diffs.len().max(1) as f64;
    let max = diffs.iter().copied().max().unwrap_or(0);
    if mean > THUMB_MEAN_TOL || max > THUMB_MAX_TOL {
        return Err(format!(
            "mean |diff| {mean:.3} (tolerance {THUMB_MEAN_TOL}), max |diff| {max} \
             (tolerance {THUMB_MAX_TOL})"
        ));
    }
    Ok(())
}

fn reference_path(dir: &Path, w: Workload) -> PathBuf {
    dir.join(format!("{}.txt", w.name()))
}

/// `(step, thumbnail)` pairs of the canonical oracle run: the unturned
/// view, the default transfer function, every renderer, every
/// [`REF_EVERY`]-th step.
pub fn canonical_thumbnails(w: Workload, ds: &Dataset) -> Result<Vec<(usize, Vec<u8>)>, String> {
    let report = w
        .oracle(ds, &camera(ds, w.image(), 0.0), &TransferFunction::seismic(), w.renderers())
        .run()?;
    Ok(report
        .frames
        .iter()
        .enumerate()
        .filter(|(t, _)| t % REF_EVERY == REF_EVERY - 1)
        .map(|(t, f)| (t, thumbnail(f)))
        .collect())
}

/// Write the reference file of `w`: one line per step, `step hex`.
pub fn write_reference(dir: &Path, w: Workload, ds: &Dataset) -> Result<PathBuf, String> {
    let thumbs = canonical_thumbnails(w, ds)?;
    let mut text = format!(
        "# {} canonical oracle thumbnails: {THUMB}x{THUMB} premultiplied RGBA, 8 bits\n",
        w.name()
    );
    for (t, th) in &thumbs {
        let hex: String = th.iter().map(|b| format!("{b:02x}")).collect();
        text.push_str(&format!("{t} {hex}\n"));
    }
    let path = reference_path(dir, w);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn read_reference(dir: &Path, w: Workload) -> Result<Vec<(usize, Vec<u8>)>, String> {
    let path = reference_path(dir, w);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let bad = || format!("{}: malformed line {line:?}", path.display());
        let (step, hex) = line.split_once(' ').ok_or_else(bad)?;
        let step: usize = step.parse().map_err(|_| bad())?;
        let bytes: Result<Vec<u8>, _> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(hex.get(i..i + 2).unwrap_or("zz"), 16))
            .collect();
        out.push((step, bytes.map_err(|_| bad())?));
    }
    Ok(out)
}

/// Check the canonical oracle run of `w` against its committed reference.
pub fn check_reference(dir: &Path, w: Workload, ds: &Dataset) -> Result<(), String> {
    let want = read_reference(dir, w)?;
    let got = canonical_thumbnails(w, ds)?;
    if got.len() != want.len() {
        return Err(format!("{} oracle frames, {} reference frames", got.len(), want.len()));
    }
    for ((t, g), (rt, r)) in got.iter().zip(&want) {
        if t != rt {
            return Err(format!("oracle step {t} against reference step {rt}"));
        }
        thumbnails_match(g, r).map_err(|e| format!("step {t}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(n: u32) -> RgbaImage {
        let mut img = RgbaImage::new(n, n);
        for y in 0..n {
            for x in 0..n {
                let v = (x + y) as f32 / (2 * n) as f32;
                img.set(x, y, [v * 0.5, v * 0.25, v, v]);
            }
        }
        img
    }

    #[test]
    fn a_single_perturbed_pixel_breaks_bit_identity() {
        let a = gradient(32);
        let mut b = a.clone();
        assert!(bit_identical(&a, &b));
        let mut p = b.get(17, 5);
        p[2] = f32::from_bits(p[2].to_bits() + 1);
        b.set(17, 5, p);
        assert!(!bit_identical(&a, &b), "one ulp in one channel must be flagged");
        // the thumbnail check tolerates that same ulp
        assert!(thumbnails_match(&thumbnail(&a), &thumbnail(&b)).is_ok());
    }

    #[test]
    fn thumbnail_check_flags_a_wrong_picture() {
        let a = gradient(64);
        let mut b = a.clone();
        for y in 0..8 {
            for x in 0..8 {
                b.set(x, y, [1.0, 0.0, 0.0, 1.0]);
            }
        }
        assert!(thumbnails_match(&thumbnail(&a), &thumbnail(&b)).is_err());
        assert!(thumbnails_match(&thumbnail(&a), &thumbnail(&gradient(64))).is_ok());
    }

    #[test]
    fn oracle_counts_missing_and_differing_frames() {
        let a = gradient(8);
        let mut wrong = a.clone();
        wrong.set(0, 0, [0.5; 4]);
        let oracle = Oracle {
            frames: vec![vec![a.clone(), a.clone(), a.clone()]],
            workload: Workload::MovieRender,
        };
        assert_eq!(oracle.errors(0, &[a.clone(), a.clone(), a.clone()], 3), 0);
        assert_eq!(oracle.errors(0, &[a.clone(), wrong, a.clone()], 3), 1);
        assert_eq!(
            oracle.errors(0, std::slice::from_ref(&a), 3),
            2,
            "missing frames count as errors"
        );
    }
}
