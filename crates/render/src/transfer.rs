//! Piecewise-linear RGBA transfer functions.
//!
//! Input scalars are normalized to `[0, 1]` (the dataset carries its global
//! magnitude range). The seismic preset follows the paper's figures: quiet
//! regions transparent blue, moderate shaking cyan→green→yellow, strong
//! shaking opaque red.
//!
//! The ray caster does not evaluate the control points per sample: it
//! reads an opacity table, the opacity-corrected premultiplied function
//! tabulated once per step ratio and memoized on the transfer function.

use crate::image::Rgba;
use std::sync::{Arc, Mutex};

/// Bins of an [`OpacityTable`] over the normalized value range `[0, 1]`.
pub(crate) const OPACITY_BINS: usize = 4096;

/// Opacity at or below which a sample contributes nothing: the ray
/// caster neither shades nor accumulates it, and empty-space skipping
/// steps over regions that cannot exceed it.
pub(crate) const MIN_ALPHA: f32 = 1e-5;

/// How far a trilinear interpolation of values in `[lo, hi]` can land
/// outside that range through rounding (about 1e-7 for values in
/// `[0, 1]`), with margin. Widening a range by a whole bin instead would
/// mark regions of exact zeros visible whenever opacity starts rising at
/// 0, as the seismic map's does.
const INTERP_SLACK: f32 = 1e-5;

/// Opacity tables a transfer function keeps; one per distinct step ratio,
/// and a pipeline uses one ratio per octree level.
const MEMO_TABLES: usize = 8;

/// A transfer function defined by sorted `(value, straight RGBA)` control
/// points; lookup interpolates linearly and returns **premultiplied** RGBA
/// scaled by the caller's opacity correction.
#[derive(Debug)]
pub struct TransferFunction {
    /// Control points: (normalized value, [r, g, b, a]) with straight alpha.
    points: Vec<(f32, [f32; 4])>,
    /// Opacity tables built so far, oldest first.
    tables: Mutex<Vec<Arc<OpacityTable>>>,
}

impl Clone for TransferFunction {
    fn clone(&self) -> Self {
        let tables = self.tables.lock().unwrap().clone();
        TransferFunction { points: self.points.clone(), tables: Mutex::new(tables) }
    }
}

impl TransferFunction {
    /// Build from control points (sorted by value at construction).
    pub fn new(mut points: Vec<(f32, [f32; 4])>) -> TransferFunction {
        assert!(points.len() >= 2, "need at least two control points");
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        TransferFunction { points, tables: Mutex::new(Vec::new()) }
    }

    /// The control points (sorted by value) — the function's full
    /// identity, e.g. for cache keying.
    pub fn points(&self) -> &[(f32, [f32; 4])] {
        &self.points
    }

    /// The paper-style seismic map: transparent where quiet, warm and
    /// opaque where shaking is strong.
    pub fn seismic() -> TransferFunction {
        TransferFunction::new(vec![
            (0.00, [0.02, 0.03, 0.15, 0.000]),
            (0.05, [0.05, 0.10, 0.45, 0.010]),
            (0.20, [0.00, 0.55, 0.75, 0.060]),
            (0.40, [0.10, 0.80, 0.25, 0.150]),
            (0.60, [0.95, 0.90, 0.10, 0.350]),
            (0.80, [0.95, 0.45, 0.05, 0.650]),
            (1.00, [0.90, 0.05, 0.05, 0.900]),
        ])
    }

    /// A grayscale ramp (testing / LIC underlays).
    pub fn grayscale() -> TransferFunction {
        TransferFunction::new(vec![(0.0, [0.0, 0.0, 0.0, 0.0]), (1.0, [1.0, 1.0, 1.0, 1.0])])
    }

    /// Straight (non-premultiplied) RGBA at normalized value `v`
    /// (clamped).
    pub fn lookup(&self, v: f32) -> [f32; 4] {
        let v = v.clamp(self.points[0].0, self.points.last().unwrap().0);
        let i = self.points.partition_point(|&(x, _)| x <= v).min(self.points.len() - 1);
        if i == 0 {
            return self.points[0].1;
        }
        let (x0, c0) = self.points[i - 1];
        let (x1, c1) = self.points[i];
        if x1 <= x0 {
            return c1;
        }
        let t = ((v - x0) / (x1 - x0)).clamp(0.0, 1.0);
        let mut out = [0.0f32; 4];
        for c in 0..4 {
            out[c] = c0[c] + (c1[c] - c0[c]) * t;
        }
        out
    }

    /// Premultiplied sample contribution for a ray segment of length
    /// `ds` relative to the reference step `ds_ref` (opacity correction
    /// `a' = 1 − (1 − a)^(ds/ds_ref)`).
    pub fn sample(&self, v: f32, ds_ratio: f32) -> Rgba {
        let c = self.lookup(v);
        let a = 1.0 - (1.0 - c[3]).powf(ds_ratio.max(1e-6));
        [c[0] * a, c[1] * a, c[2] * a, a]
    }

    /// Largest opacity anywhere (sanity checks / early-termination limits).
    pub fn max_opacity(&self) -> f32 {
        self.points.iter().map(|p| p.1[3]).fold(0.0, f32::max)
    }

    /// The [`OpacityTable`] for step ratio `ds_ratio`, built on first use
    /// and shared by every later caller with the same ratio.
    pub(crate) fn opacity_table(&self, ds_ratio: f32) -> Arc<OpacityTable> {
        let mut tables = self.tables.lock().unwrap();
        if let Some(t) = tables.iter().find(|t| t.ds_ratio.to_bits() == ds_ratio.to_bits()) {
            return Arc::clone(t);
        }
        let table = Arc::new(OpacityTable::build(self, ds_ratio));
        if tables.len() == MEMO_TABLES {
            tables.remove(0);
        }
        tables.push(Arc::clone(&table));
        table
    }
}

/// [`TransferFunction::sample`] tabulated at [`OPACITY_BINS`] evenly
/// spaced values for one step ratio, plus a prefix count of the bins
/// whose opacity exceeds [`MIN_ALPHA`] — a range-max query in O(1) for
/// empty-space skipping.
pub(crate) struct OpacityTable {
    ds_ratio: f32,
    rgba: Vec<Rgba>,
    /// `visible[b]`: bins below `b` with opacity above [`MIN_ALPHA`].
    visible: Vec<u32>,
}

impl std::fmt::Debug for OpacityTable {
    // the 4096 bins would drown any transfer function or config printout
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpacityTable").field("ds_ratio", &self.ds_ratio).finish_non_exhaustive()
    }
}

impl OpacityTable {
    fn build(tf: &TransferFunction, ds_ratio: f32) -> OpacityTable {
        let last = (OPACITY_BINS - 1) as f32;
        let rgba: Vec<Rgba> =
            (0..OPACITY_BINS).map(|b| tf.sample(b as f32 / last, ds_ratio)).collect();
        let mut visible = Vec::with_capacity(OPACITY_BINS + 1);
        let mut n = 0u32;
        visible.push(0);
        for s in &rgba {
            n += (s[3] > MIN_ALPHA) as u32;
            visible.push(n);
        }
        OpacityTable { ds_ratio, rgba, visible }
    }

    /// A table whose every bin counts as visible, so nothing is skipped.
    #[cfg(test)]
    pub(crate) fn all_visible(tf: &TransferFunction, ds_ratio: f32) -> OpacityTable {
        let mut t = OpacityTable::build(tf, ds_ratio);
        t.visible = (0..=OPACITY_BINS as u32).collect();
        t
    }

    /// The bin nearest to normalized value `v` (clamped into the table).
    #[inline]
    fn bin(v: f32) -> usize {
        // `as` saturates: negative values and NaN land in bin 0
        ((v * (OPACITY_BINS - 1) as f32 + 0.5) as usize).min(OPACITY_BINS - 1)
    }

    /// Premultiplied, opacity-corrected RGBA at normalized value `v`.
    #[inline]
    pub(crate) fn lookup(&self, v: f32) -> Rgba {
        self.rgba[Self::bin(v)]
    }

    /// True when no value in `[lo, hi]`, widened by the interpolation
    /// rounding slack each way, looks up an opacity above [`MIN_ALPHA`].
    #[inline]
    pub(crate) fn transparent(&self, lo: f32, hi: f32) -> bool {
        let (b0, b1) = (Self::bin(lo - INTERP_SLACK), Self::bin(hi + INTERP_SLACK));
        self.visible[b1 + 1] == self.visible[b0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_interpolates_linearly() {
        let tf =
            TransferFunction::new(vec![(0.0, [0.0, 0.0, 0.0, 0.0]), (1.0, [1.0, 0.5, 0.0, 1.0])]);
        let c = tf.lookup(0.5);
        assert!((c[0] - 0.5).abs() < 1e-6);
        assert!((c[1] - 0.25).abs() < 1e-6);
        assert!((c[3] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn lookup_clamps_out_of_range() {
        let tf = TransferFunction::grayscale();
        assert_eq!(tf.lookup(-5.0), tf.lookup(0.0));
        assert_eq!(tf.lookup(5.0), tf.lookup(1.0));
    }

    #[test]
    fn lookup_exact_control_points() {
        let tf = TransferFunction::seismic();
        let c = tf.lookup(1.0);
        assert!((c[3] - 0.9).abs() < 1e-6);
        let c0 = tf.lookup(0.0);
        assert_eq!(c0[3], 0.0);
    }

    #[test]
    fn unsorted_points_sorted_at_build() {
        let tf =
            TransferFunction::new(vec![(1.0, [1.0, 1.0, 1.0, 1.0]), (0.0, [0.0, 0.0, 0.0, 0.0])]);
        assert!((tf.lookup(0.25)[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn sample_is_premultiplied() {
        let tf =
            TransferFunction::new(vec![(0.0, [1.0, 1.0, 1.0, 0.0]), (1.0, [1.0, 1.0, 1.0, 0.5])]);
        let s = tf.sample(1.0, 1.0);
        assert!((s[3] - 0.5).abs() < 1e-6);
        assert!((s[0] - 0.5).abs() < 1e-6, "rgb must be scaled by alpha");
    }

    #[test]
    fn opacity_correction_composes() {
        // two half-steps must equal one full step in accumulated opacity
        let tf =
            TransferFunction::new(vec![(0.0, [1.0, 1.0, 1.0, 0.4]), (1.0, [1.0, 1.0, 1.0, 0.4])]);
        let full = tf.sample(0.5, 1.0)[3];
        let half = tf.sample(0.5, 0.5)[3];
        let two_halves = half + half * (1.0 - half);
        assert!((two_halves - full).abs() < 1e-5, "{two_halves} vs {full}");
    }

    #[test]
    fn seismic_is_monotone_in_opacity() {
        let tf = TransferFunction::seismic();
        let mut prev = -1.0f32;
        for i in 0..=100 {
            let a = tf.lookup(i as f32 / 100.0)[3];
            assert!(a >= prev - 1e-6, "opacity must not decrease");
            prev = a;
        }
        assert!(tf.max_opacity() > 0.8);
    }

    #[test]
    fn opacity_table_matches_sample() {
        let mut rng = quakeviz_rt::rng::SplitMix64::new(0x7ab1e);
        let banded = TransferFunction::new(vec![
            (0.0, [0.2, 0.4, 0.9, 0.0]),
            (0.3, [0.2, 0.4, 0.9, 0.0]),
            (0.5, [0.9, 0.8, 0.1, 0.5]),
            (0.7, [0.9, 0.3, 0.1, 0.0]),
            (1.0, [0.9, 0.1, 0.1, 0.0]),
        ]);
        // nearest-bin error is the corrected colour's slope times half a
        // bin: inside 1e-3 for these slopes over the step ratios a
        // pipeline uses. It grows with the ratio, and without bound as
        // straight opacity nears 1, where 1 − (1 − a)^r steepens for r < 1
        let ramp =
            TransferFunction::new(vec![(0.0, [0.0, 0.0, 0.0, 0.0]), (1.0, [1.0, 1.0, 1.0, 0.95])]);
        for tf in [TransferFunction::seismic(), ramp, banded] {
            for ratio in [0.25f32, 0.7, 1.0, 1.5] {
                let table = tf.opacity_table(ratio);
                for _ in 0..2000 {
                    let v = rng.next_f32();
                    let (got, want) = (table.lookup(v), tf.sample(v, ratio));
                    for c in 0..4 {
                        assert!((got[c] - want[c]).abs() < 1e-3, "v={v} c={c}: {got:?} {want:?}");
                    }
                }
                // exactly transparent at every bin where the function is
                for b in 0..OPACITY_BINS {
                    let v = b as f32 / (OPACITY_BINS - 1) as f32;
                    if tf.lookup(v)[3] == 0.0 {
                        assert_eq!(table.lookup(v), [0.0; 4], "bin {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn opacity_table_range_query() {
        let tf = TransferFunction::new(vec![
            (0.0, [1.0, 1.0, 1.0, 0.0]),
            (0.5, [1.0, 1.0, 1.0, 0.0]),
            (1.0, [1.0, 1.0, 1.0, 0.8]),
        ]);
        let t = tf.opacity_table(1.0);
        assert!(t.transparent(0.0, 0.49));
        // exact zeros stay skippable under a map whose opacity rises at 0
        assert!(TransferFunction::seismic().opacity_table(1.4).transparent(0.0, 0.0));
        assert!(!t.transparent(0.0, 0.6));
        assert!(!t.transparent(0.7, 0.7));
        // the range query is conservative: every value it clears looks up
        // an opacity that the ray caster would reject
        for i in 0..=1000 {
            let v = i as f32 / 1000.0;
            if t.transparent(v, v) {
                assert!(t.lookup(v)[3] <= MIN_ALPHA);
            }
        }
    }

    #[test]
    fn opacity_tables_are_memoized_per_ratio() {
        let tf = TransferFunction::seismic();
        let a = tf.opacity_table(0.7);
        assert!(Arc::ptr_eq(&a, &tf.opacity_table(0.7)), "same ratio must share one table");
        assert!(!Arc::ptr_eq(&a, &tf.opacity_table(0.35)));
        assert!(Arc::ptr_eq(&a, &tf.clone().opacity_table(0.7)), "clones share built tables");
    }
}
