//! The view-dependent compositing schedule (SLIC's core idea).
//!
//! Before compositing, every rank learns the screen rectangle, owner and
//! visibility rank of **every** fragment in the frame (one small
//! allgather — the paper reports the schedule precompute at "generally
//! under 10 milliseconds"). From that shared knowledge each rank derives,
//! without further communication, the full schedule:
//!
//! * the scanlines are cut into elementary [`Run`]s wherever the set of
//!   covering fragments changes;
//! * a run covered by a single fragment needs **no compositing** — its
//!   owner ships it straight to the collector;
//! * a run covered by `k > 1` fragments is assigned to one *compositor*
//!   (the owner of the front-most fragment), so exactly `k − 1` pixel
//!   spans cross the network for it;
//! * all spans travelling between one (source, destination) pair are
//!   batched into a single message.

use quakeviz_render::{Fragment, ScreenRect};
use quakeviz_rt::Comm;
use std::collections::HashMap;

/// Globally shared description of one frame's fragments.
#[derive(Debug, Clone)]
pub struct FrameInfo {
    /// `(block id, screen rect, owner rank)` for every fragment produced
    /// this frame, sorted front-to-back.
    pub frags: Vec<(u32, ScreenRect, u32)>,
    pub width: u32,
    pub height: u32,
    /// Block id → index into `frags`, built with it.
    index: HashMap<u32, usize>,
}

/// An elementary rectangular run: a screen rect over which the set of
/// covering fragments is constant. Scanline runs with identical coverage
/// on consecutive lines are merged vertically, which shrinks the
/// schedule and the per-span bookkeeping by roughly the rect height.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    pub y0: u32,
    pub y1: u32,
    pub x0: u32,
    pub x1: u32,
    /// Indices into [`FrameInfo::frags`], front-to-back.
    pub frags: Vec<usize>,
}

impl Run {
    /// Pixel count of the run.
    #[inline]
    pub fn len(&self) -> usize {
        ((self.x1 - self.x0) * (self.y1 - self.y0)) as usize
    }

    #[inline]
    pub fn width(&self) -> usize {
        (self.x1 - self.x0) as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x1 <= self.x0 || self.y1 <= self.y0
    }
}

impl FrameInfo {
    /// Collective: allgather the local fragments' rectangles and order
    /// them by `order` (front-to-back block ids).
    pub fn exchange(
        comm: &Comm,
        local: &[Fragment],
        order: &[u32],
        width: u32,
        height: u32,
    ) -> FrameInfo {
        let mine: Vec<(u32, ScreenRect)> = local.iter().map(|f| (f.block, f.rect)).collect();
        // exact wire size: Vec payloads are invisible to size_of, so charge
        // the entry count explicitly
        let mine_bytes = (mine.len() * std::mem::size_of::<(u32, ScreenRect)>()) as u64;
        let all: Vec<Vec<(u32, ScreenRect)>> = comm.allgather_with_size(mine, mine_bytes);
        let mut frags: Vec<(u32, ScreenRect, u32)> = all
            .into_iter()
            .enumerate()
            .flat_map(|(rank, v)| v.into_iter().map(move |(b, r)| (b, r, rank as u32)))
            .collect();
        let pos: std::collections::HashMap<u32, usize> =
            order.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        frags.sort_by_key(|&(b, _, _)| pos.get(&b).copied().unwrap_or(usize::MAX));
        FrameInfo::from_sorted(frags, width, height)
    }

    /// Build directly (tests, sequential harnesses).
    pub fn from_sorted(frags: Vec<(u32, ScreenRect, u32)>, width: u32, height: u32) -> FrameInfo {
        // first occurrence wins, as a front-to-back scan would find it
        let mut index = HashMap::with_capacity(frags.len());
        for (i, &(b, _, _)) in frags.iter().enumerate() {
            index.entry(b).or_insert(i);
        }
        FrameInfo { frags, width, height, index }
    }

    /// Index of the fragment with block id `b`.
    pub fn index_of(&self, b: u32) -> Option<usize> {
        self.index.get(&b).copied()
    }

    /// The elementary runs of scanline `y` (non-covered spans omitted),
    /// each one line tall.
    pub fn runs_of_line(&self, y: u32) -> Vec<Run> {
        let mut out = Vec::new();
        self.sweep_band(y, y + 1, &self.x_edges(), &mut out);
        out
    }

    /// All runs of the frame, vertically merged: consecutive scanlines
    /// with the same `(x0, x1, coverage)` collapse into one rect run.
    pub fn runs(&self) -> Vec<Run> {
        // Coverage only changes at fragment-rect top/bottom edges, so
        // whole y-bands share identical line structure.
        let mut ys: Vec<u32> = self.frags.iter().flat_map(|&(_, r, _)| [r.y0, r.y1]).collect();
        ys.push(self.height);
        ys.sort_unstable();
        ys.dedup();
        let edges = self.x_edges();
        let mut out = Vec::new();
        for w in ys.windows(2) {
            let (y0, y1) = (w[0], w[1].min(self.height));
            if y1 > y0 {
                self.sweep_band(y0, y1, &edges, &mut out);
            }
        }
        out
    }

    /// Every fragment's left and right edge as `(x, closes, fragment)`,
    /// sorted: each is a run boundary, and opens sort before closes so a
    /// zero-width fragment enters and leaves at once.
    fn x_edges(&self) -> Vec<(u32, bool, usize)> {
        let mut edges: Vec<(u32, bool, usize)> = (0..self.frags.len())
            .flat_map(|i| [(self.frags[i].1.x0, false, i), (self.frags[i].1.x1, true, i)])
            .collect();
        edges.sort_unstable();
        edges
    }

    /// Append the runs of the band `[y0, y1)`, whose lines all share the
    /// coverage of line `y0`: one left-to-right sweep over the edges of
    /// the fragments covering it, keeping the active set in front-to-back
    /// order.
    fn sweep_band(&self, y0: u32, y1: u32, edges: &[(u32, bool, usize)], out: &mut Vec<Run>) {
        let covers = |i: usize| y0 >= self.frags[i].1.y0 && y0 < self.frags[i].1.y1;
        let mut band = edges.iter().copied().filter(|&(_, _, i)| covers(i)).peekable();
        let mut active: Vec<usize> = Vec::new();
        while let Some(&(x, _, _)) = band.peek() {
            while let Some((_, closes, i)) = band.next_if(|e| e.0 == x) {
                match active.binary_search(&i) {
                    Ok(at) if closes => {
                        active.remove(at);
                    }
                    Err(at) if !closes => active.insert(at, i),
                    _ => unreachable!("fragment edges out of order"),
                }
            }
            if let (false, Some(&(x1, _, _))) = (active.is_empty(), band.peek()) {
                out.push(Run { y0, y1, x0: x, x1, frags: active.clone() });
            }
        }
    }

    /// The compositor rank of a run: owner of its front-most fragment.
    pub fn compositor_of(&self, run: &Run) -> u32 {
        self.frags[run.frags[0]].2
    }

    /// Project the schedule onto a surviving subset of ranks (render-side
    /// failover): fragments owned by dead ranks are dropped and the
    /// owners of the rest are renumbered to the compact `live` indexing —
    /// exactly the [`FrameInfo`] a re-formed communicator of the
    /// survivors would derive from its own allgather. Because the
    /// schedule is a pure function of this structure, recomputing it over
    /// any surviving subset needs no communication.
    ///
    /// `live` lists the surviving original rank ids in ascending order.
    pub fn restrict_to(&self, live: &[u32]) -> FrameInfo {
        let frags = self
            .frags
            .iter()
            .filter_map(|&(b, r, owner)| {
                live.iter().position(|&l| l == owner).map(|i| (b, r, i as u32))
            })
            .collect();
        FrameInfo::from_sorted(frags, self.width, self.height)
    }

    /// Predicted message count for SLIC with `collector`: one message per
    /// (source → compositor) pair with overlapped-run traffic, plus one per
    /// (source → collector) pair shipping finished runs. A pair carrying
    /// both kinds sends two messages: the compositing round's spans must
    /// arrive before the finished runs they feed exist.
    pub fn slic_message_count(&self, ranks: usize, collector: u32) -> u64 {
        let mut composite = std::collections::HashSet::new();
        let mut finished = std::collections::HashSet::new();
        for run in self.runs() {
            let comp = self.compositor_of(&run);
            if run.frags.len() > 1 {
                for &fi in &run.frags {
                    let owner = self.frags[fi].2;
                    if owner != comp {
                        composite.insert((owner, comp));
                    }
                }
            }
            if comp != collector {
                finished.insert(comp);
            }
        }
        let _ = ranks;
        (composite.len() + finished.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fi(frags: Vec<(u32, ScreenRect, u32)>) -> FrameInfo {
        FrameInfo::from_sorted(frags, 16, 4)
    }

    #[test]
    fn no_fragments_no_runs() {
        let f = fi(vec![]);
        assert!(f.runs().is_empty());
    }

    #[test]
    fn single_fragment_merges_to_one_rect_run() {
        let f = fi(vec![(7, ScreenRect::new(2, 1, 10, 3), 0)]);
        let runs = f.runs();
        assert_eq!(runs.len(), 1); // lines 1 and 2 merge vertically
        assert_eq!(runs[0], Run { y0: 1, y1: 3, x0: 2, x1: 10, frags: vec![0] });
        assert_eq!(runs[0].len(), 16);
        // per-line view still available
        assert_eq!(f.runs_of_line(1).len(), 1);
        assert_eq!(f.runs_of_line(0).len(), 0);
    }

    #[test]
    fn overlap_splits_into_three_runs() {
        // two fragments overlapping in the middle of line 0
        let f = fi(vec![(0, ScreenRect::new(0, 0, 8, 1), 0), (1, ScreenRect::new(4, 0, 12, 1), 1)]);
        let runs = f.runs_of_line(0);
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].frags, vec![0]);
        assert_eq!(runs[1].frags, vec![0, 1]); // front-to-back order kept
        assert_eq!(runs[2].frags, vec![1]);
        assert_eq!((runs[1].x0, runs[1].x1), (4, 8));
        assert_eq!((runs[1].y0, runs[1].y1), (0, 1));
    }

    #[test]
    fn vertical_merge_respects_fragment_edges() {
        // two stacked fragments: runs must break at the horizontal seam
        let f = fi(vec![(0, ScreenRect::new(0, 0, 4, 2), 0), (1, ScreenRect::new(0, 2, 4, 4), 1)]);
        let runs = f.runs();
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].y0, runs[0].y1), (0, 2));
        assert_eq!((runs[1].y0, runs[1].y1), (2, 4));
        assert_eq!(runs[0].frags, vec![0]);
        assert_eq!(runs[1].frags, vec![1]);
    }

    #[test]
    fn compositor_is_front_owner() {
        let f = fi(vec![(0, ScreenRect::new(0, 0, 8, 1), 3), (1, ScreenRect::new(0, 0, 8, 1), 5)]);
        let runs = f.runs_of_line(0);
        assert_eq!(runs.len(), 1);
        assert_eq!(f.compositor_of(&runs[0]), 3);
    }

    #[test]
    fn order_respected_in_runs() {
        // deliberately list back fragment first in input: from_sorted
        // trusts caller order, so front-to-back must be the given order
        let f = fi(vec![(9, ScreenRect::new(0, 0, 4, 1), 1), (2, ScreenRect::new(0, 0, 4, 1), 0)]);
        let runs = f.runs_of_line(0);
        assert_eq!(runs[0].frags, vec![0, 1]);
        assert_eq!(f.frags[runs[0].frags[0]].0, 9);
    }

    #[test]
    fn slic_message_count_zero_when_alone() {
        // one rank owns everything and is the collector
        let f = fi(vec![(0, ScreenRect::new(0, 0, 4, 2), 0), (1, ScreenRect::new(2, 0, 6, 2), 0)]);
        assert_eq!(f.slic_message_count(1, 0), 0);
    }

    #[test]
    fn slic_message_count_pairs() {
        // rank1's fragment overlaps rank0's; rank0 is front, collector 0:
        // rank1 -> rank0 (composite traffic) is the only pair
        let f = fi(vec![(0, ScreenRect::new(0, 0, 8, 1), 0), (1, ScreenRect::new(0, 0, 8, 1), 1)]);
        assert_eq!(f.slic_message_count(2, 0), 1);
        // with collector 1 instead: rank1->rank0 and rank0->rank1
        assert_eq!(f.slic_message_count(2, 1), 2);
        // rank1 also ships a run of its own to collector 0: the pair
        // carries two messages, one per round
        let f = fi(vec![
            (0, ScreenRect::new(0, 0, 8, 1), 0),
            (1, ScreenRect::new(0, 0, 8, 1), 1),
            (2, ScreenRect::new(0, 2, 8, 3), 1),
        ]);
        assert_eq!(f.slic_message_count(2, 0), 2);
    }

    /// The runs of line `y` by filtering coverage per x-window between
    /// consecutive fragment edges — the definition the sweep implements.
    fn runs_of_line_by_windows(f: &FrameInfo, y: u32) -> Vec<Run> {
        let live: Vec<usize> =
            (0..f.frags.len()).filter(|&i| y >= f.frags[i].1.y0 && y < f.frags[i].1.y1).collect();
        let mut xs: Vec<u32> =
            live.iter().flat_map(|&i| [f.frags[i].1.x0, f.frags[i].1.x1]).collect();
        xs.sort_unstable();
        xs.dedup();
        xs.windows(2)
            .filter_map(|w| {
                let cover: Vec<usize> = live
                    .iter()
                    .copied()
                    .filter(|&i| w[0] >= f.frags[i].1.x0 && w[1] <= f.frags[i].1.x1)
                    .collect();
                (!cover.is_empty()).then(|| Run {
                    y0: y,
                    y1: y + 1,
                    x0: w[0],
                    x1: w[1],
                    frags: cover,
                })
            })
            .collect()
    }

    #[test]
    fn sweep_matches_per_window_coverage() {
        let mut s = 0x5EEDu64;
        let mut next = |bound: u32| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) % bound as u64) as u32
        };
        for _ in 0..200 {
            let frags: Vec<(u32, ScreenRect, u32)> = (0..next(9))
                .map(|b| {
                    // zero-width, sliver, abutting and overlapping rects
                    let (x0, y0) = (next(16), next(4));
                    let rect = ScreenRect::new(x0, y0, x0 + next(9), y0 + 1 + next(3));
                    (b, rect, next(3))
                })
                .collect();
            let f = fi(frags);
            for y in 0..4 {
                assert_eq!(f.runs_of_line(y), runs_of_line_by_windows(&f, y), "{:?}", f.frags);
            }
        }
    }

    #[test]
    fn restrict_to_drops_dead_owners_and_renumbers() {
        let f = fi(vec![
            (0, ScreenRect::new(0, 0, 8, 1), 0),
            (1, ScreenRect::new(4, 0, 12, 1), 1),
            (2, ScreenRect::new(0, 1, 8, 2), 2),
        ]);
        // rank 1 died: its fragment disappears, rank 2 becomes live idx 1
        let g = f.restrict_to(&[0, 2]);
        assert_eq!(
            g.frags,
            vec![(0, ScreenRect::new(0, 0, 8, 1), 0), (2, ScreenRect::new(0, 1, 8, 2), 1),]
        );
        assert_eq!((g.width, g.height), (f.width, f.height));
        // full subset is the identity
        assert_eq!(f.restrict_to(&[0, 1, 2]).frags, f.frags);
    }

    #[test]
    fn runs_cover_exactly_fragment_pixels() {
        let rects = vec![
            (0u32, ScreenRect::new(0, 0, 5, 3), 0u32),
            (1, ScreenRect::new(3, 1, 9, 4), 1),
            (2, ScreenRect::new(8, 0, 12, 2), 0),
        ];
        let f = fi(rects.clone());
        // total run pixels == area of union (each pixel in exactly 1 run)
        let mut covered = std::collections::HashSet::new();
        for r in &rects {
            for y in r.1.y0..r.1.y1 {
                for x in r.1.x0..r.1.x1 {
                    covered.insert((x, y));
                }
            }
        }
        let run_pixels: usize = f.runs().iter().map(|r| r.len()).sum();
        assert_eq!(run_pixels, covered.len());
    }
}
