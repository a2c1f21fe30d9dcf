//! End-to-end bit-identity oracle for the wire codecs: a run under any
//! codec must render frames bit-identical to the raw-codec run, frame for
//! frame, in every scenario the pipeline supports: clean 1DIP/2DIP,
//! pinned deterministic fault seeds, a scripted render-rank failover
//! (re-routed blocks), and a checkpoint kill-and-resume splice.
//!
//! The file and test names date from the temporal-delta wire layer, which
//! was removed; they are kept so the test ids stay stable.

use quakeviz::pipeline::{IoStrategy, PipelineBuilder, PipelineReport, RetryPolicy};
use quakeviz::rt::{FaultSpec, WireSpec};
use quakeviz::seismic::{Dataset, SimulationBuilder};

fn dataset() -> Dataset {
    SimulationBuilder::new().resolution(16).steps(4).run_to_dataset().unwrap()
}

fn builder(ds: &Dataset, io: IoStrategy) -> PipelineBuilder {
    PipelineBuilder::new(ds).renderers(2).io_strategy(io).image_size(48, 48)
}

/// Codec configurations the oracle checks against the raw baseline.
const SPECS: [&str; 2] = ["rle", "shuffle"];

fn assert_all_frames_identical(a: &PipelineReport, b: &PipelineReport, what: &str) {
    assert_eq!(a.frames.len(), b.frames.len(), "{what}: frame count differs");
    for (t, (fa, fb)) in a.frames.iter().zip(&b.frames).enumerate() {
        assert_eq!(fa.pixels(), fb.pixels(), "{what}: frame {t} not bit-identical");
    }
}

/// Clean runs, both I/O strategies, full-precision and quantized fields:
/// every codec reproduces the raw frames bit-exactly.
#[test]
fn clean_runs_bit_identical_across_codecs() {
    let ds = dataset();
    for io in
        [IoStrategy::OneDip { input_procs: 2 }, IoStrategy::TwoDip { groups: 2, per_group: 2 }]
    {
        for quantize in [false, true] {
            let raw = builder(&ds, io)
                .quantize(quantize)
                .wire_spec(WireSpec::raw())
                .run()
                .expect("raw pipeline");
            for spec in SPECS {
                let coded = builder(&ds, io)
                    .quantize(quantize)
                    .wire_spec(WireSpec::parse(spec).unwrap())
                    .run()
                    .expect("coded pipeline");
                assert_all_frames_identical(
                    &raw,
                    &coded,
                    &format!("{io:?} quantize={quantize} {spec}"),
                );
            }
        }
    }
}

/// Pinned deterministic fault seeds — transient reads absorbed by
/// bounded retry, and dropped sends: the degraded frames and flags of a
/// coded run must match the raw faulted run exactly, so recovery
/// semantics are codec-invariant.
#[test]
fn faulted_runs_bit_identical_across_codecs() {
    let ds = dataset();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let faulted = |spec: &str, fault: &str| {
        builder(&ds, io)
            .faults(FaultSpec::parse(fault).unwrap())
            .retry(RetryPolicy { max_attempts: 2, backoff_ms: 1 })
            .delivery_deadline_ms(400)
            .wire_spec(WireSpec::parse(spec).unwrap())
            .run()
            .expect("faulted pipeline")
    };
    for fault in ["seed=7,read_transient=0.45", "seed=5,send_drop=0.4"] {
        let raw = faulted("raw", fault);
        assert!(raw.degraded_frame_count() > 0, "{fault}: spec must actually degrade frames");
        assert!(
            raw.degraded_frame_count() < ds.steps(),
            "{fault}: some frames must survive to make bit-identity meaningful"
        );
        for spec in SPECS {
            let coded = faulted(spec, fault);
            assert_all_frames_identical(&raw, &coded, &format!("{fault} {spec}"));
            assert_eq!(raw.degraded, coded.degraded, "{fault} {spec}: degradation flags differ");
        }
    }
}

/// Scripted render-rank death: failover re-routes blocks to surviving
/// renderers mid-stream, and the recovered frames stay bit-identical to
/// the raw failover run (and to the clean run — render failover is full
/// recovery).
#[test]
fn render_failover_bit_identical_across_codecs() {
    let ds = dataset();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let clean = PipelineBuilder::new(&ds)
        .renderers(3)
        .io_strategy(io)
        .image_size(48, 48)
        .run()
        .expect("clean pipeline");
    let failed = |spec: &str| {
        PipelineBuilder::new(&ds)
            .renderers(3)
            .io_strategy(io)
            .image_size(48, 48)
            .faults(FaultSpec::parse("seed=1,fail_rank=3@1").unwrap())
            .delivery_deadline_ms(500)
            .wire_spec(WireSpec::parse(spec).unwrap())
            .run()
            .expect("pipeline must survive a render-rank failure")
    };
    let raw = failed("raw");
    assert!(
        raw.recovery.expect("fault plan active").render_failovers > 0,
        "the render rank must actually die"
    );
    assert_all_frames_identical(&clean, &raw, "raw failover vs clean");
    for spec in SPECS {
        let coded = failed(spec);
        assert_all_frames_identical(&raw, &coded, &format!("render failover {spec}"));
    }
}

/// Kill-and-resume under each codec: the spliced sequence is
/// bit-identical to the uninterrupted raw run.
#[test]
fn delta_resume_from_checkpoint_is_bit_identical() {
    let ds = dataset();
    let io = IoStrategy::OneDip { input_procs: 2 };
    let raw_full =
        builder(&ds, io).wire_spec(WireSpec::raw()).run().expect("raw uninterrupted pipeline");
    for spec in SPECS {
        let coded = |b: PipelineBuilder| {
            b.wire_spec(WireSpec::parse(spec).unwrap())
                .checkpoint_every(2)
                .checkpoint_path(&format!("ckpt-codec-stream-{spec}"))
        };
        let killed = coded(builder(&ds, io)).max_steps(2).run().expect("killed coded pipeline");
        assert_eq!(killed.checkpoints, 1);
        let resumed = coded(builder(&ds, io)).resume(true).run().expect("resumed coded pipeline");
        assert_eq!(resumed.resumed_from, Some(2), "must resume exactly after the checkpoint");
        assert_eq!(killed.frames.len() + resumed.frames.len(), raw_full.frames.len());
        for (t, (f, g)) in
            raw_full.frames.iter().zip(killed.frames.iter().chain(&resumed.frames)).enumerate()
        {
            assert_eq!(f.pixels(), g.pixels(), "{spec}: frame {t} differs from the raw run");
        }
    }
}
