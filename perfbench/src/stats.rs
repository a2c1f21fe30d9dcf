//! Order statistics and the fill / steady / drain split of a frame stream.

/// Fill, steady window and drain of one pipeline invocation, derived from
/// `PipelineReport::frame_done` (frame completion times, seconds since the
/// synchronized start).
///
/// With pipeline depth `d`, the first `d` frames are fill: the pipeline has
/// not yet got every stage busy. The last `d` frames are drain: the input
/// side has run out of steps, so the stages empty one by one. The frames
/// in between form the steady window, measured from the completion of the
/// last fill frame to the completion of the last steady frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Time to the first frame, seconds.
    pub fill_s: f64,
    /// Frames completed inside the steady window.
    pub steady_frames: usize,
    /// Length of the steady window, seconds.
    pub steady_s: f64,
    /// Interframe delays of the steady frames, seconds.
    pub steady_gaps: Vec<f64>,
    /// Time from the last steady frame to the last frame, seconds.
    pub drain_s: f64,
}

/// Split `frame_done` for a pipeline of depth `depth`. `None` when the run
/// is too short to leave a steady frame.
pub fn split(frame_done: &[f64], depth: usize) -> Option<Split> {
    let n = frame_done.len();
    let first = depth;
    let last = n.checked_sub(depth + 1)?;
    if depth == 0 || last < first {
        return None;
    }
    let steady_gaps: Vec<f64> = (first..=last).map(|i| frame_done[i] - frame_done[i - 1]).collect();
    Some(Split {
        fill_s: frame_done[0],
        steady_frames: last - first + 1,
        steady_s: frame_done[last] - frame_done[first - 1],
        steady_gaps,
        drain_s: frame_done[n - 1] - frame_done[last],
    })
}

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `v`.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_excludes_fill_and_drain() {
        // depth 2: frames 0,1 are fill, frames 6,7 drain, 2..=5 steady
        let done = [0.5, 0.6, 0.7, 0.8, 1.0, 1.1, 1.15, 1.2];
        let s = split(&done, 2).unwrap();
        assert_eq!(s.fill_s, 0.5);
        assert_eq!(s.steady_frames, 4);
        assert!((s.steady_s - (1.1 - 0.6)).abs() < 1e-12);
        let want = [0.1, 0.1, 0.2, 0.1];
        assert_eq!(s.steady_gaps.len(), want.len());
        for (g, w) in s.steady_gaps.iter().zip(want) {
            assert!((g - w).abs() < 1e-12, "{g} vs {w}");
        }
        assert!((s.drain_s - 0.1).abs() < 1e-12);
        // frames per second over the window equals count / length
        assert!((s.steady_frames as f64 / s.steady_s - 8.0).abs() < 1e-9);
    }

    #[test]
    fn split_rejects_runs_without_a_steady_frame() {
        assert!(split(&[0.1, 0.2, 0.3, 0.4], 2).is_none());
        assert!(split(&[0.1, 0.2, 0.3, 0.4, 0.5], 2).is_some());
        assert!(split(&[0.1, 0.2, 0.3], 0).is_none());
        assert!(split(&[], 1).is_none());
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }
}
