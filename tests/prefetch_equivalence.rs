//! Differential oracle for the input loop's read-ahead: for every
//! input-processor arrangement a prefetch run must produce frames
//! **bit-identical** to the same loop without read-ahead. Both run the
//! same per-step prepare/pack code, block partition and compositing
//! order, so any divergence (a reordered send, a dropped batch, a step
//! raced out of order, a broken worker-death fallback) shows up as a
//! pixel diff here.

use quakeviz::pipeline::{IoStrategy, PipelineBuilder, PipelineReport};
use quakeviz::rt::FaultSpec;
use quakeviz::seismic::{Dataset, SimulationBuilder};

fn dataset() -> Dataset {
    SimulationBuilder::new().resolution(16).steps(4).run_to_dataset().unwrap()
}

/// The feature-loaded pipeline (enhancement + LIC + quantization +
/// adaptive fetch — every input-side transform that could disturb the
/// read-ahead hand-off), with or without read-ahead.
fn builder(ds: &Dataset, io: IoStrategy, renderers: usize, prefetch: bool) -> PipelineBuilder {
    PipelineBuilder::new(ds)
        .renderers(renderers)
        .io_strategy(io)
        .image_size(64, 64)
        .enhancement(true)
        .lic(true)
        .quantize(true)
        .adaptive_fetch(true)
        .prefetch(prefetch)
}

fn run(ds: &Dataset, io: IoStrategy, renderers: usize, prefetch: bool) -> PipelineReport {
    builder(ds, io, renderers, prefetch).run().expect("pipeline")
}

fn assert_identical_frames(ds: &Dataset, io: IoStrategy, renderers: usize) {
    let sync = run(ds, io, renderers, false);
    let pre = run(ds, io, renderers, true);
    assert!(!sync.prefetch && pre.prefetch);
    assert_eq!(sync.frames.len(), pre.frames.len(), "{io:?}: frame count differs");
    for (t, (a, b)) in sync.frames.iter().zip(&pre.frames).enumerate() {
        assert_eq!(
            a.pixels(),
            b.pixels(),
            "{io:?}: frame {t} not bit-identical between sync and prefetch"
        );
    }
}

#[test]
fn onedip_prefetch_frames_bit_identical() {
    let ds = dataset();
    for m in [1usize, 2, 4] {
        assert_identical_frames(&ds, IoStrategy::OneDip { input_procs: m }, 2);
    }
}

#[test]
fn twodip_prefetch_frames_bit_identical() {
    let ds = dataset();
    for (n, m) in [(2usize, 1usize), (2, 2), (1, 4)] {
        assert_identical_frames(&ds, IoStrategy::TwoDip { groups: n, per_group: m }, 3);
    }
}

/// An armed-but-silent fault plan (all probabilities zero) must not
/// perturb a single pixel: the checksum, deadline-drain and degradation
/// machinery only ever *observes* a clean run, never changes it.
#[test]
fn zero_probability_fault_plan_frames_bit_identical() {
    let ds = dataset();
    for io in
        [IoStrategy::OneDip { input_procs: 2 }, IoStrategy::TwoDip { groups: 2, per_group: 2 }]
    {
        let clean = run(&ds, io, 3, false);
        let armed = PipelineBuilder::new(&ds)
            .renderers(3)
            .io_strategy(io)
            .image_size(64, 64)
            .enhancement(true)
            .lic(true)
            .quantize(true)
            .adaptive_fetch(true)
            .faults(quakeviz::rt::FaultSpec::parse("seed=7").unwrap())
            .run()
            .expect("pipeline");
        let rec = armed.recovery.expect("fault plan active");
        assert_eq!(rec.read_retries + rec.checksum_failures + rec.degraded_frames, 0);
        assert_eq!(armed.degraded_frame_count(), 0);
        assert_eq!(clean.frames.len(), armed.frames.len());
        for (t, (a, b)) in clean.frames.iter().zip(&armed.frames).enumerate() {
            assert_eq!(
                a.pixels(),
                b.pixels(),
                "{io:?}: frame {t} differs under a zero-probability fault plan"
            );
        }
    }
}

#[test]
fn prefetch_backpressure_engages_with_more_steps_than_slots() {
    // 1 input processor owning 6 steps with a 2-slot queue: the consumer
    // must wait on in-flight sends; frames still match the sync path
    let ds = SimulationBuilder::new().resolution(16).steps(6).run_to_dataset().unwrap();
    let io = IoStrategy::OneDip { input_procs: 1 };
    let sync = run(&ds, io, 2, false);
    let pre = run(&ds, io, 2, true);
    assert_eq!(sync.frames.len(), 6);
    for (t, (a, b)) in sync.frames.iter().zip(&pre.frames).enumerate() {
        assert_eq!(a.pixels(), b.pixels(), "frame {t} differs");
    }
}

/// A read-ahead worker killed mid-run (`fail_prefetch=2`): the rank
/// thread finds the hand-off queue closed and prepares every owned step
/// from 2 on inline. Frames stay bit-identical to the run without
/// read-ahead, and each inline step counts once as a fallback.
#[test]
fn prefetch_worker_death_falls_back_inline_bit_identical() {
    let ds = dataset();
    // (arrangement, input ranks owning each step)
    for (io, owners) in [
        (IoStrategy::OneDip { input_procs: 2 }, 1u64),
        (IoStrategy::TwoDip { groups: 2, per_group: 2 }, 2),
    ] {
        let sync = run(&ds, io, 3, false);
        let killed = builder(&ds, io, 3, true)
            .faults(FaultSpec::parse("fail_prefetch=2").unwrap())
            .run()
            .expect("pipeline must survive the worker death");
        assert_eq!(sync.frames.len(), killed.frames.len(), "{io:?}: frame count differs");
        for (t, (a, b)) in sync.frames.iter().zip(&killed.frames).enumerate() {
            assert_eq!(a.pixels(), b.pixels(), "{io:?}: frame {t} differs after the worker died");
        }
        let rec = killed.recovery.expect("fault plan active");
        let inline_steps = (ds.steps() as u64 - 2) * owners;
        assert_eq!(
            rec.prefetch_fallbacks, inline_steps,
            "{io:?}: one fallback per owned step >= 2"
        );
    }
}

/// More renderers than blocks: under an armed fault plan the idle
/// renderer owns nothing and never drains its (empty) batches, so the
/// read-ahead loop must not wait on them — the run completes with frames
/// bit-identical to the run without read-ahead instead of stalling on an
/// unmatched send.
#[test]
fn idle_renderer_does_not_stall_read_ahead_under_a_fault_plan() {
    let ds = dataset();
    let run = |prefetch: bool| {
        PipelineBuilder::new(&ds)
            .renderers(9)
            .io_strategy(IoStrategy::OneDip { input_procs: 1 })
            .block_level(1)
            .image_size(32, 32)
            .prefetch(prefetch)
            .faults(FaultSpec::parse("seed=7").unwrap())
            .run()
            .expect("pipeline")
    };
    let (sync, pre) = (run(false), run(true));
    assert_eq!(sync.frames.len(), pre.frames.len());
    for (t, (a, b)) in sync.frames.iter().zip(&pre.frames).enumerate() {
        assert_eq!(a.pixels(), b.pixels(), "frame {t} differs with read-ahead");
    }
}
