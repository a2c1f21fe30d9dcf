//! The four workloads: their datasets, pipeline configurations, seeded
//! inputs and oracles.
//!
//! Every workload is closed-loop: one process drives one pipeline at a
//! time and the pipeline streams its steps as fast as it can. Busy compute
//! ranks are kept to about two, the core count of the host the bounds
//! were tuned on. PERFBENCH.md records why each workload exists.

use quakeviz_core::{
    CacheConfig, CacheTier, IoStrategy, PipelineBuilder, PipelineReport, RetryPolicy,
};
use quakeviz_mesh::{Aabb, Vec3};
use quakeviz_render::{Camera, TransferFunction};
use quakeviz_rt::rng::SplitMix64;
use quakeviz_rt::{FaultSpec, WireSpec};
use quakeviz_seismic::{Dataset, SimulationBuilder};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MovieRender,
    IoHiding,
    TfExplore,
    FailoverRejoin,
}

/// World rank of the renderer `failover_rejoin` kills (rank 0 is the
/// input rank, 1..=3 the renderers, 4 the output rank), the step it dies
/// at, and the step it rejoins at.
pub const VICTIM: usize = 2;
pub const KILL_STEP: usize = 6;
pub const REJOIN_STEP: usize = 14;

/// `tf_explore`: transfer functions in the pool, and revisits per session.
/// A session visits every pool entry once (the first visit is the cold
/// pass, the others hit the block cache) and revisits one of them (a
/// frame-cache replay), so every session has the same 1 / 3 / 1 mix of
/// pass kinds whatever the seed. With that mix, the median fill of a run
/// falls in the middle of the block-hit passes: the delay an explorer
/// feels after changing the transfer function.
pub const TF_POOL: usize = 4;
pub const REVISITS: usize = 1;

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::MovieRender, Workload::IoHiding, Workload::TfExplore, Workload::FailoverRejoin];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MovieRender => "movie_render",
            Workload::IoHiding => "io_hiding",
            Workload::TfExplore => "tf_explore",
            Workload::FailoverRejoin => "failover_rejoin",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Finest-grid resolution and step count of the generated dataset.
    fn dataset_shape(self) -> (usize, usize) {
        match self {
            Workload::MovieRender => (32, 16),
            Workload::IoHiding => (32, 28),
            // one window of steps, revisited pass after pass
            Workload::TfExplore => (32, 12),
            Workload::FailoverRejoin => (32, 24),
        }
    }

    /// Generate the workload's dataset. It depends on the workload only:
    /// the seed varies the view, the transfer-function sequence and the
    /// fault luck, never the simulation.
    pub fn dataset(self) -> Dataset {
        let (res, steps) = self.dataset_shape();
        SimulationBuilder::new()
            .resolution(res)
            .steps(steps)
            .frequency(0.15)
            .run_to_dataset()
            .expect("benchmark dataset simulation failed")
    }

    pub fn io(self) -> IoStrategy {
        match self {
            Workload::IoHiding => IoStrategy::TwoDip { groups: 2, per_group: 2 },
            _ => IoStrategy::OneDip { input_procs: 1 },
        }
    }

    pub fn renderers(self) -> usize {
        match self {
            Workload::FailoverRejoin => 3,
            _ => 2,
        }
    }

    pub fn image(self) -> u32 {
        match self {
            Workload::MovieRender => 128,
            Workload::IoHiding => 64,
            Workload::TfExplore => 96,
            Workload::FailoverRejoin => 64,
        }
    }

    /// Steps in flight once the pipeline is full: the input depth (1DIP
    /// input ranks or 2DIP groups) plus the step being rendered.
    pub fn depth(self) -> usize {
        let input = match self.io() {
            IoStrategy::OneDip { input_procs } => input_procs,
            IoStrategy::TwoDip { groups, .. } => groups,
        };
        input + 1
    }

    /// Simulated-disk delay scale (`io_delay_scale`), if the workload
    /// injects the parfs cost model's time as real sleep.
    pub fn io_delay(self) -> Option<f64> {
        match self {
            Workload::MovieRender => None,
            Workload::IoHiding => Some(2.5),
            Workload::TfExplore => Some(2.0),
            Workload::FailoverRejoin => Some(1.0),
        }
    }

    /// The configuration both the measured run and the oracle share: the
    /// frame-shaping settings, with no runtime, cache, wire, fault or
    /// delay choices yet.
    fn base(self, ds: &Dataset, camera: &Camera, tf: &TransferFunction) -> PipelineBuilder {
        let n = self.image();
        let b = PipelineBuilder::new(ds)
            .renderers(self.renderers())
            .io_strategy(self.io())
            .image_size(n, n)
            .camera(camera.clone())
            .transfer(tf.clone())
            .keep_frames(true);
        match self {
            Workload::MovieRender => b.lighting(true).enhancement(true).lic(true),
            Workload::IoHiding => b.quantize(true),
            Workload::TfExplore | Workload::FailoverRejoin => b,
        }
    }

    /// The measured configuration: `base` plus the workload's runtime,
    /// wire, cache, fault and delay settings.
    pub fn measured(
        self,
        ds: &Dataset,
        inputs: &Inputs,
        tf: &TransferFunction,
        tier: Option<&Arc<CacheTier>>,
        invocation: usize,
    ) -> PipelineBuilder {
        let mut b = self.base(ds, &inputs.camera, tf);
        if let Some(scale) = self.io_delay() {
            b = b.io_delay_scale(scale);
        }
        match self {
            Workload::MovieRender => b,
            Workload::IoHiding => {
                b.prefetch(true).wire_spec(WireSpec::parse("rle").expect("rle wire spec parses"))
            }
            Workload::TfExplore => {
                b.cache_tier(Arc::clone(tier.expect("tf_explore passes share a cache tier")))
            }
            Workload::FailoverRejoin => b
                .faults(inputs.faults(invocation))
                .retry(RetryPolicy { max_attempts: 8, backoff_ms: 1 })
                .heartbeat_timeout_ms(150)
                .delivery_deadline_ms(1500),
        }
    }

    /// The oracle configuration: the same frame-shaping settings with
    /// prefetch off, cache off, raw wire, and no faults or delay. For
    /// `failover_rejoin`, `renderers` picks the live set.
    pub fn oracle(
        self,
        ds: &Dataset,
        camera: &Camera,
        tf: &TransferFunction,
        renderers: usize,
    ) -> PipelineBuilder {
        self.base(ds, camera, tf).renderers(renderers).wire_spec(WireSpec::raw())
    }
}

/// Everything a run derives from its seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub camera: Camera,
    /// `tf_explore`: the session's pass sequence, as indices into
    /// [`tf_pool`]; a single pass of the default transfer function
    /// elsewhere.
    pub passes: Vec<usize>,
    /// `failover_rejoin`: seed of the first invocation's fault luck.
    pub fault_seed: u64,
}

/// The canonical view of a dataset at `n`×`n` pixels, turned about the
/// vertical axis through the domain centre by `yaw` radians.
pub fn camera(ds: &Dataset, n: u32, yaw: f64) -> Camera {
    let bounds = Aabb::from_extent(ds.mesh().octree().extent());
    let base = Camera::default_for(&bounds, n, n);
    let c = bounds.center();
    let (dx, dy) = (base.eye.x - c.x, base.eye.y - c.y);
    let (s, co) = yaw.sin_cos();
    let eye = Vec3::new(c.x + dx * co - dy * s, c.y + dx * s + dy * co, base.eye.z);
    Camera::look_at(eye, base.target, base.up, base.fov_y, n, n)
}

/// Transfer function `i` of the `tf_explore` pool: the seismic map with
/// its colour channels rotated or inverted. Opacity is the same in every
/// entry, so the passes differ in colour, not in ray-casting work.
pub fn tf_pool(i: usize) -> TransferFunction {
    let base = TransferFunction::seismic();
    let points = base
        .points()
        .iter()
        .map(|&(x, [r, g, b, a])| {
            let rgb = match i % TF_POOL {
                0 => [r, g, b],
                1 => [g, b, r],
                2 => [b, r, g],
                _ => [1.0 - r, 1.0 - g, 1.0 - b],
            };
            (x, [rgb[0], rgb[1], rgb[2], a])
        })
        .collect();
    TransferFunction::new(points)
}

impl Inputs {
    /// Derive the run's inputs from `seed`. The view is turned by at most
    /// ±1.5° so that every seed renders a different picture at nearly the
    /// same cost.
    pub fn generate(w: Workload, ds: &Dataset, seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed ^ 0x7175_616b_6576_697a);
        let yaw = (rng.next_f64() * 2.0 - 1.0) * 1.5f64.to_radians();
        let camera = camera(ds, w.image(), yaw);
        let passes = match w {
            Workload::TfExplore => pass_sequence(&mut rng),
            _ => vec![0],
        };
        let fault_seed = rng.next_u64() % 1_000_000;
        Inputs { camera, passes, fault_seed }
    }

    /// The `failover_rejoin` fault script of invocation `invocation`: the
    /// kill and rejoin are fixed, the transient read faults fall
    /// differently in every invocation of a run, so a run's medians do
    /// not hinge on one draw of fault luck.
    pub fn faults(&self, invocation: usize) -> FaultSpec {
        let seed = self.fault_seed + invocation as u64;
        FaultSpec::parse(&format!(
            "seed={seed},read_transient=0.05,fail_rank={VICTIM}@{KILL_STEP},\
             recover_rank={VICTIM}@{REJOIN_STEP}"
        ))
        .expect("benchmark fault spec parses")
    }
}

/// A seeded `tf_explore` session: a shuffled visit of the whole pool with
/// [`REVISITS`] revisits of already-seen entries spliced in after the
/// second pass.
fn pass_sequence(rng: &mut SplitMix64) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..TF_POOL).collect();
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let mut seq = pool;
    for _ in 0..REVISITS {
        let at = 2 + rng.next_below(seq.len() as u64 - 1) as usize;
        let seen: Vec<usize> = seq[..at].to_vec();
        let pick = seen[rng.next_below(seen.len() as u64) as usize];
        seq.insert(at, pick);
    }
    seq
}

/// What kind of pass a `tf_explore` pass is: cold (first of the session),
/// block-cache hit (first visit of its transfer function) or frame-cache
/// replay (a revisit).
pub fn pass_kinds(passes: &[usize]) -> Vec<&'static str> {
    passes
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if i == 0 {
                "cold"
            } else if passes[..i].contains(p) {
                "frame_hit"
            } else {
                "block_hit"
            }
        })
        .collect()
}

/// Run one `tf_explore` session on a fresh cache tier, or one invocation
/// of any other workload.
pub fn run_once(
    w: Workload,
    ds: &Dataset,
    inputs: &Inputs,
    trace: bool,
    invocation: usize,
) -> Vec<(usize, Result<PipelineReport, String>, f64)> {
    let tier = (w == Workload::TfExplore)
        .then(|| CacheTier::new(CacheConfig { blocks_mb: 32, frames: 64 }));
    inputs
        .passes
        .iter()
        .map(|&p| {
            let tf =
                if w == Workload::TfExplore { tf_pool(p) } else { TransferFunction::seismic() };
            let b =
                w.measured(ds, inputs, &tf, tier.as_ref(), invocation).trace(trace).profile(trace);
            let t0 = std::time::Instant::now();
            let r = b.run();
            (p, r, t0.elapsed().as_secs_f64())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_have_a_fixed_mix_of_pass_kinds() {
        for seed in 0..50 {
            let mut rng = SplitMix64::new(seed);
            let seq = pass_sequence(&mut rng);
            assert_eq!(seq.len(), TF_POOL + REVISITS);
            let kinds = pass_kinds(&seq);
            let count = |k: &str| kinds.iter().filter(|&&x| x == k).count();
            assert_eq!((count("cold"), count("block_hit"), count("frame_hit")), (1, 3, 1));
        }
    }

    #[test]
    fn one_seed_always_yields_identical_inputs() {
        let ds = SimulationBuilder::new().resolution(8).steps(2).run_to_dataset().unwrap();
        for w in Workload::ALL {
            let a = Inputs::generate(w, &ds, 42);
            let b = Inputs::generate(w, &ds, 42);
            assert_eq!(format!("{:?}", a.camera), format!("{:?}", b.camera));
            assert_eq!(a.passes, b.passes);
            assert_eq!(format!("{:?}", a.faults(3)), format!("{:?}", b.faults(3)));
            let c = Inputs::generate(w, &ds, 43);
            assert_ne!(format!("{:?}", a.camera), format!("{:?}", c.camera), "{}", w.name());
        }
    }

    #[test]
    fn generated_datasets_are_deterministic() {
        // the dataset depends on the workload only; two generations of the
        // same shape produce byte-identical step files
        let gen = || SimulationBuilder::new().resolution(8).steps(3).run_to_dataset().unwrap();
        let (a, b) = (gen(), gen());
        for t in 0..3 {
            let path = Dataset::step_path(t);
            let read = |d: &Dataset| d.disk().read_at(&path, 0, d.bytes_per_step()).unwrap().0;
            assert_eq!(read(&a), read(&b), "step {t}");
        }
    }
}
