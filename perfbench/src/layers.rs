//! The traced run: per-layer metrics, read from outside the program.
//!
//! Nothing here adds tracing to the pipeline. The run times the workload
//! twice — tracing off, then on — and reads what `PipelineReport` already
//! exposes: stage and runtime spans, the `work.*` kernel tick counters,
//! the traffic matrix, the wire ledger, the recovery counters and the
//! cache counters. It then replays each layer on the workload's own
//! inputs at fixed iteration counts, timing calls into each crate's public
//! functions. PERFBENCH.md maps every metric to the end-to-end metric it
//! should move.

use crate::oracle::Oracle;
use crate::stats::{median, split};
use crate::workload::{Inputs, Workload};
use crate::{metric, Invocation, Metric};
use quakeviz_composite::{binary_swap, direct_send, slic, CompositeOptions, FrameInfo};
use quakeviz_core::reader::{
    block_level_nodes, member_node_range, read_step_full, read_step_range,
};
use quakeviz_core::{IoStrategy, ModelValidation, PipelineConfig, PipelineReport};
use quakeviz_lic::{compute_lic, extract_surface_field, white_noise, LicParams};
use quakeviz_mesh::{NodeField, OctreeBlock, Partition, Quadtree, WorkloadModel};
use quakeviz_parfs::{IndexedBlockType, PFile};
use quakeviz_render::{
    front_to_back_order, render_brick, Brick, Fragment, LightingParams, RenderParams,
    TransferFunction,
};
use quakeviz_rt::obs::{prof, MetricValue, Phase, SpanEvent, TraceData};
use quakeviz_rt::{Codec, TagClass, TrafficStats, World};
use quakeviz_seismic::Dataset;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Share of `--seconds` spent on the untraced and on the traced pipeline
/// runs; the layer replays take the rest.
const UNTRACED_SHARE: f64 = 0.35;
const TRACED_SHARE: f64 = 0.35;

/// Fixed replay iteration counts (the same on every workload).
const RENDER_ITERS: usize = 4;
const LIC_ITERS: usize = 3;
const COMPOSITE_ITERS: usize = 20;
const PINGPONG_ITERS: usize = 2000;
const STREAM_MSGS: usize = 64;
const COLLECTIVE_ITERS: usize = 2000;
const PARFS_ITERS: usize = 20;
const WIRE_ITERS: usize = 20;
const PARTITION_ITERS: usize = 20;

/// The seven pipeline stages whose self time the trace splits into
/// waiting and working.
const STAGES: [Phase; 7] = [
    Phase::Read,
    Phase::Preprocess,
    Phase::Send,
    Phase::Receive,
    Phase::Render,
    Phase::Composite,
    Phase::Assemble,
];

/// The stages that block: the others never nest a wait, so their waiting
/// column is structurally zero and gets no metric of its own.
const WAITING_STAGES: [Phase; 4] = [Phase::Read, Phase::Receive, Phase::Composite, Phase::Assemble];

/// Runtime spans that are waiting, not working, when nested in a stage.
const WAITS: [Phase; 3] = [Phase::CommRecv, Phase::Barrier, Phase::Retry];

pub fn traced(
    w: Workload,
    ds: &Dataset,
    inputs: &Inputs,
    oracle: &Oracle,
    seconds: f64,
) -> (Vec<Invocation>, Vec<Metric>) {
    let mut runs = crate::drive(w, ds, inputs, oracle, seconds * UNTRACED_SHARE, false);
    let untraced_fps = fps(&runs);
    prof::reset();
    let traced_runs = crate::drive(w, ds, inputs, oracle, seconds * TRACED_SHARE, true);
    let ticks = prof::snapshot();
    let traced_fps = fps(&traced_runs);

    let reports: Vec<&PipelineReport> =
        traced_runs.iter().filter_map(|r| r.report.as_ref()).collect();
    let mut out = Vec::new();
    pipeline_layers(w, &reports, &ticks, &mut out);
    let level = reports.first().map_or(0, |r| r.level);
    replays(w, ds, inputs, level, &mut out);
    out.push(metric(
        "obs.trace_overhead_pct",
        (untraced_fps - traced_fps) / untraced_fps.max(f64::MIN_POSITIVE) * 100.0,
        "%",
        2,
    ));
    runs.extend(traced_runs);
    (runs, out)
}

fn fps(runs: &[Invocation]) -> f64 {
    let (frames, secs) = runs
        .iter()
        .filter_map(|r| r.split.as_ref())
        .fold((0usize, 0.0f64), |(f, s), x| (f + x.steady_frames, s + x.steady_s));
    frames as f64 / secs.max(f64::MIN_POSITIVE)
}

fn counter(report: &PipelineReport, name: &str) -> u64 {
    report
        .trace
        .metrics
        .iter()
        .find(|m| m.name == name)
        .and_then(|m| match m.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        })
        .unwrap_or(0)
}

fn tick(ticks: &[(String, u64)], name: &str) -> u64 {
    ticks.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
}

/// Sum of the durations of spans of `phase` on every track, seconds.
fn phase_seconds(trace: &TraceData, phase: Phase) -> f64 {
    trace
        .tracks
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.phase == phase)
        .map(|s| s.dur_us)
        .sum::<u64>() as f64
        / 1e6
}

/// Per stage: inclusive span seconds, and the seconds of waiting spans
/// nested inside it on the same track.
fn stage_wait_split(trace: &TraceData) -> Vec<(f64, f64)> {
    STAGES
        .iter()
        .map(|&stage| {
            let mut incl = 0u64;
            let mut wait = 0u64;
            for t in &trace.tracks {
                let waits: Vec<&SpanEvent> =
                    t.spans.iter().filter(|s| WAITS.contains(&s.phase)).collect();
                for s in t.spans.iter().filter(|s| s.phase == stage) {
                    incl += s.dur_us;
                    wait += waits
                        .iter()
                        .filter(|c| c.start_us >= s.start_us && c.end_us() <= s.end_us())
                        .map(|c| c.dur_us)
                        .sum::<u64>();
                }
            }
            (incl as f64 / 1e6, wait as f64 / 1e6)
        })
        .collect()
}

/// Median over reports of `f`.
fn med(reports: &[&PipelineReport], f: impl Fn(&PipelineReport) -> f64) -> f64 {
    median(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn pipeline_layers(
    w: Workload,
    reports: &[&PipelineReport],
    ticks: &[(String, u64)],
    out: &mut Vec<Metric>,
) {
    let n = reports.len();
    let frames: usize = reports.iter().map(|r| r.frame_done.len()).sum();
    let per_frame = |v: f64| v / frames.max(1) as f64;
    let sum = |f: &dyn Fn(&PipelineReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    let phase_ms = |p: Phase| per_frame(sum(&|r| phase_seconds(&r.trace, p)) * 1e3);

    // render
    let (rays, samples) = (tick(ticks, "raycast.rays"), tick(ticks, "raycast.samples"));
    out.push(metric("render.samples_per_frame", per_frame(samples as f64), "count", frames));
    out.push(metric(
        "render.early_term_frac",
        tick(ticks, "raycast.early_terminated") as f64 / rays.max(1) as f64,
        "frac",
        rays as usize,
    ));
    out.push(metric("render.busy_ms_per_frame", phase_ms(Phase::Render), "ms", frames));

    // lic
    let lic_steps = tick(ticks, "lic.streamline_steps");
    out.push(metric("lic.steps_per_frame", per_frame(lic_steps as f64), "count", frames));
    out.push(metric("lic.busy_ms_per_step", phase_ms(Phase::Lic), "ms", frames));

    // composite
    out.push(metric(
        "composite.over_px_per_frame",
        per_frame(tick(ticks, "slic.over_px") as f64),
        "count",
        frames,
    ));
    out.push(metric("composite.busy_ms_per_frame", phase_ms(Phase::Composite), "ms", frames));
    let class_bytes = |class: TagClass| {
        sum(&|r| r.traffic.iter().filter(|e| e.class == class).map(|e| e.bytes as f64).sum())
    };
    out.push(metric(
        "composite.bytes_per_frame",
        per_frame(class_bytes(TagClass::Composite)),
        "bytes",
        frames,
    ));

    // comm
    out.push(metric(
        "comm.msgs_per_frame",
        per_frame(sum(&|r| r.messages as f64)),
        "count",
        frames,
    ));
    out.push(metric(
        "comm.bytes_per_frame",
        per_frame(sum(&|r| r.bytes_sent as f64)),
        "bytes",
        frames,
    ));
    out.push(metric("comm.recv_wait_ms_per_frame", phase_ms(Phase::CommRecv), "ms", frames));

    // wire: raw over wire bytes of block data (1 on the raw wire)
    let (raw, wire) = reports
        .iter()
        .flat_map(|r| r.wire.iter().filter(|c| c.class == TagClass::BlockData))
        .fold((0u64, 0u64), |(a, b), c| (a + c.raw_bytes, b + c.wire_bytes));
    out.push(metric(
        "wire.block_data_ratio",
        if wire > 0 { raw as f64 / wire as f64 } else { 1.0 },
        "ratio",
        n,
    ));

    // parfs and the reader, per full time step
    let steps_total: usize = reports.iter().map(|r| r.frame_done.len()).sum();
    let per_step = |v: f64| v / steps_total.max(1) as f64;
    let disk = sum(&|r| r.input_steps.iter().map(|s| s.read.disk_bytes as f64).sum());
    let useful = sum(&|r| r.input_steps.iter().map(|s| s.read.useful_bytes as f64).sum());
    let sim = sum(&|r| r.input_steps.iter().map(|s| s.read.sim_seconds).sum());
    out.push(metric("parfs.bytes_per_step", per_step(disk), "bytes", steps_total));
    out.push(metric("parfs.useful_frac", useful / disk.max(1.0), "frac", steps_total));
    out.push(metric("parfs.sim_ms_per_step", per_step(sim) * 1e3, "ms", steps_total));
    let rec = |f: &dyn Fn(&quakeviz_rt::RecoveryStats) -> u64| {
        sum(&|r| r.recovery.as_ref().map_or(0.0, |s| f(s) as f64)) / n.max(1) as f64
    };
    out.push(metric("reader.retries", rec(&|s| s.read_retries), "count", n));
    out.push(metric("reader.backoff_ms", rec(&|s| s.backoff_us) / 1e3, "ms", n));

    // cache
    let c = |name: &str| sum(&|r| counter(r, name) as f64);
    let ratio = |hit: f64, miss: f64| if hit + miss > 0.0 { hit / (hit + miss) } else { 0.0 };
    out.push(metric(
        "cache.block_hit_frac",
        ratio(c("cache.block.hits"), c("cache.block.misses")),
        "frac",
        n,
    ));
    // the frame level is consulted only when every step of a pass is
    // cached, so its hit share is taken over all frames, not lookups
    out.push(metric("cache.frame_hit_frac", per_frame(c("cache.frame.hits")), "frac", frames));
    out.push(metric(
        "cache.block_evictions",
        c("cache.block.evictions") / n.max(1) as f64,
        "count",
        n,
    ));

    // pipeline stages: working vs waiting per step. Waiting is the
    // blocking receives, barriers and retry backoffs nested in the stage,
    // plus, for read, the injected io_delay (sim_seconds x scale).
    let delay_s = w.io_delay().map_or(0.0, |scale| sim * scale);
    let mut totals = vec![(0.0f64, 0.0f64); STAGES.len()];
    for r in reports {
        for (acc, (incl, wait)) in totals.iter_mut().zip(stage_wait_split(&r.trace)) {
            acc.0 += incl;
            acc.1 += wait;
        }
    }
    totals[0].1 += delay_s;
    println!("stage table (ms per step, {steps_total} steps over {n} traced invocations):");
    println!("  {:<11} {:>10} {:>10} {:>10}", "stage", "inclusive", "waiting", "working");
    for (stage, (incl, wait)) in STAGES.iter().zip(&totals) {
        let (incl, wait) = (per_step(*incl) * 1e3, per_step(*wait) * 1e3);
        let work = (incl - wait).max(0.0);
        println!("  {:<11} {incl:>10.3} {wait:>10.3} {work:>10.3}", stage.as_str());
        out.push(metric(&format!("pipeline.{}_self_ms", stage.as_str()), work, "ms", steps_total));
        if WAITING_STAGES.contains(stage) {
            out.push(metric(
                &format!("pipeline.{}_wait_ms", stage.as_str()),
                wait,
                "ms",
                steps_total,
            ));
        }
    }
    out.push(metric("pipeline.io_delay_ms_per_step", per_step(delay_s) * 1e3, "ms", steps_total));
    out.push(metric(
        "pipeline.heartbeat_ms_per_step",
        per_step(sum(&|r| phase_seconds(&r.trace, Phase::Heartbeat))) * 1e3,
        "ms",
        steps_total,
    ));

    let splits: Vec<_> = reports.iter().filter_map(|r| split(&r.frame_done, w.depth())).collect();
    let gaps: Vec<f64> = splits.iter().flat_map(|s| s.steady_gaps.iter().copied()).collect();
    out.push(metric("pipeline.interframe_p50_ms", median(&gaps) * 1e3, "ms", gaps.len()));
    let drains: Vec<f64> = splits.iter().map(|s| s.drain_s).collect();
    out.push(metric("pipeline.drain_ms", median(&drains) * 1e3, "ms", drains.len()));
    let busy = sum(&|r| r.trace.group_busy_seconds("input"));
    let hidden = sum(&|r| r.trace.group_overlap_seconds("input", "render"));
    out.push(metric("pipeline.io_hidden_frac", hidden / busy.max(f64::MIN_POSITIVE), "frac", n));
    out.push(metric(
        "pipeline.render_util",
        med(reports, |r| counter(r, "work.render_utilization.mean") as f64 / 1000.0),
        "frac",
        n,
    ));
    out.push(metric(
        "pipeline.send_wait_ms_per_step",
        med(reports, |r| r.mean_send_wait_seconds() * 1e3),
        "ms",
        n,
    ));

    // the paper's model, fed the measured stage costs
    let mv: Vec<ModelValidation> =
        reports.iter().map(|r| ModelValidation::from_report(r, w.io())).collect();
    let mm = |f: &dyn Fn(&ModelValidation) -> f64| median(&mv.iter().map(f).collect::<Vec<_>>());
    out.push(metric("model.predicted_ms", mm(&|m| m.predicted_delay * 1e3), "ms", n));
    out.push(metric("model.residual_pct", mm(&|m| m.relative_error().abs() * 100.0), "%", n));
    out.push(metric("model.tf_ms", mm(&|m| m.tf * 1e3), "ms", n));
    out.push(metric("model.tp_ms", mm(&|m| m.tp * 1e3), "ms", n));
    out.push(metric("model.ts_ms", mm(&|m| m.ts * 1e3), "ms", n));
    out.push(metric("model.tr_ms", mm(&|m| m.tr * 1e3), "ms", n));

    // recovery: detection is the longest heartbeat exchange (it waits out
    // the timeout on the dead peer)
    out.push(metric(
        "recovery.detect_ms",
        med(reports, |r| {
            r.trace
                .tracks
                .iter()
                .flat_map(|t| &t.spans)
                .filter(|s| s.phase == Phase::Heartbeat)
                .map(|s| s.dur_us as f64 / 1e3)
                .fold(0.0, f64::max)
        }),
        "ms",
        n,
    ));
    out.push(metric(
        "recovery.failovers",
        rec(&|s| s.failover_events + s.render_failovers + s.output_failovers),
        "count",
        n,
    ));
    out.push(metric("recovery.rejoins", rec(&|s| s.rejoins), "count", n));
    out.push(metric("recovery.catchups", rec(&|s| s.catchup_plans + s.catchup_fields), "count", n));
    out.push(metric("recovery.degraded_blocks", rec(&|s| s.degraded_blocks), "count", n));
}

/// Time `iters` calls of `f`, returning seconds per call.
fn per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_secs_f64() / iters as f64
}

/// Median seconds per call over `iters` separately timed calls.
fn median_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&v)
}

fn replays(w: Workload, ds: &Dataset, inputs: &Inputs, level: u8, out: &mut Vec<Metric>) {
    let mesh = ds.mesh();
    let octree = mesh.octree();
    let extent = octree.extent();
    // the middle of the run, where the wave field has structure everywhere
    let t = ds.steps() / 2;
    let vectors = ds.load_step(t);
    let mags: Vec<f32> =
        vectors.values().iter().map(|v| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()).collect();
    let field = NodeField::new(mags.clone());
    // the default block level and opacity unit, as the pipeline sets them up
    let blocks = octree.blocks(PipelineConfig::default().block_level);
    let camera = &inputs.camera;
    let tf = TransferFunction::seismic();
    let params = RenderParams {
        lighting: (w == Workload::MovieRender).then(LightingParams::default),
        opacity_unit: Some(extent.max_component() / 64.0),
        ..Default::default()
    };
    let bricks: Vec<Brick> = blocks
        .iter()
        .filter(|b| camera.project_aabb(&b.root.bounds(extent)).is_some())
        .map(|b| Brick::from_field(mesh, &field, b, level, (0.0, ds.vmag_max())))
        .collect();

    // render: ns per raycast sample over every visible brick of the step
    prof::set_enabled(true);
    prof::reset();
    let secs = per_call(RENDER_ITERS, || {
        for b in &bricks {
            black_box(render_brick(b, camera, &tf, &params));
        }
    });
    let samples = prof::snapshot().iter().find(|(n, _)| n == "raycast.samples").map_or(0, |p| p.1);
    out.push(metric(
        "render.ns_per_sample",
        secs * RENDER_ITERS as f64 * 1e9 / samples.max(1) as f64,
        "ns",
        samples as usize,
    ));

    // lic: ns per streamline step on the step's surface field
    let n = w.image();
    let (qt, _) = Quadtree::from_surface_nodes(mesh);
    let reg = extract_surface_field(mesh, &vectors, &qt, n, n);
    let noise = white_noise(n, n, 0x5eed);
    let lic = LicParams { phase: Some((t as f64 * 0.08) % 1.0), ..Default::default() };
    prof::reset();
    let secs = per_call(LIC_ITERS, || {
        black_box(compute_lic(&reg, &noise, &lic));
    });
    let steps =
        prof::snapshot().iter().find(|(n, _)| n == "lic.streamline_steps").map_or(0, |p| p.1);
    out.push(metric(
        "lic.ns_per_step",
        secs * LIC_ITERS as f64 * 1e9 / steps.max(1) as f64,
        "ns",
        steps as usize,
    ));

    composite_replays(mesh, &blocks, &bricks, inputs, &tf, &params, out);
    comm_replays(out);
    parfs_replays(w, ds, &blocks, t, out);
    wire_replays(w, ds, &mags, out);

    // mesh: block partition of the render group, as set-up computes it
    let ms = median_call(PARTITION_ITERS, || {
        black_box(Partition::balanced(mesh, &blocks, w.renderers(), WorkloadModel::CellCount));
    }) * 1e3;
    out.push(metric("mesh.partition_ms", ms, "ms", PARTITION_ITERS));
    prof::set_enabled(false);
}

/// The three compositing algorithms, with and without RLE, on the
/// fragments the workload's render group produces for the replay step.
fn composite_replays(
    mesh: &quakeviz_mesh::HexMesh,
    blocks: &[OctreeBlock],
    bricks: &[Brick],
    inputs: &Inputs,
    tf: &TransferFunction,
    params: &RenderParams,
    out: &mut Vec<Metric>,
) {
    let camera = &inputs.camera;
    let ranks = 2usize;
    let (w, h) = (camera.width, camera.height);
    let part = Partition::balanced(mesh, blocks, ranks, WorkloadModel::CellCount);
    let mut local: Vec<Vec<Fragment>> = vec![Vec::new(); ranks];
    for b in bricks {
        if let Some(f) = render_brick(b, camera, tf, params) {
            local[part.owner_of(b.block_id) as usize].push(f);
        }
    }
    let order: Vec<u32> = front_to_back_order(blocks, mesh.octree().extent(), camera.eye)
        .into_iter()
        .map(|i| blocks[i].id)
        .collect();
    let local = Arc::new(local);
    let run = |algo: &str, compress: bool| -> (f64, u64) {
        let stats = TrafficStats::new();
        let local = Arc::clone(&local);
        let order = order.clone();
        let times = World::run_traced(ranks, Arc::clone(&stats), move |comm| {
            let mine = &local[comm.rank()];
            let info = FrameInfo::exchange(&comm, mine, &order, w, h);
            let opts = CompositeOptions { compress };
            comm.barrier();
            let t = Instant::now();
            for _ in 0..COMPOSITE_ITERS {
                let r = match algo {
                    "slic" => slic(&comm, mine, &info, 0, opts),
                    "direct" => direct_send(&comm, mine, &info, 0, opts),
                    _ => binary_swap(&comm, mine, &info, 0, opts),
                };
                black_box(r);
            }
            comm.barrier();
            t.elapsed().as_secs_f64()
        });
        let secs = times.into_iter().fold(0.0, f64::max) / COMPOSITE_ITERS as f64;
        (secs, stats.bytes() / COMPOSITE_ITERS as u64)
    };
    prof::reset();
    let (slic_s, slic_bytes) = run("slic", false);
    let over_px = prof::snapshot().iter().find(|(n, _)| n == "slic.over_px").map_or(0, |p| p.1);
    out.push(metric(
        "composite.ns_per_over_px",
        slic_s * COMPOSITE_ITERS as f64 * 1e9 / over_px.max(1) as f64,
        "ns",
        over_px as usize,
    ));
    let (slic_rle_s, slic_rle_bytes) = run("slic", true);
    let (direct_s, _) = run("direct", false);
    let (direct_rle_s, _) = run("direct", true);
    // binary swap ships whole layers and ignores the RLE option
    let (bswap_s, _) = run("bswap", false);
    for (name, s) in [
        ("composite.slic_ms", slic_s),
        ("composite.slic_rle_ms", slic_rle_s),
        ("composite.direct_ms", direct_s),
        ("composite.direct_rle_ms", direct_rle_s),
        ("composite.bswap_ms", bswap_s),
    ] {
        out.push(metric(name, s * 1e3, "ms", COMPOSITE_ITERS));
    }
    out.push(metric(
        "composite.rle_bytes_frac",
        slic_rle_bytes as f64 / slic_bytes.max(1) as f64,
        "frac",
        COMPOSITE_ITERS,
    ));
}

/// Two-rank `World` ping-pong, stream, barrier and gather.
fn comm_replays(out: &mut Vec<Metric>) {
    const PING: u64 = 1;
    const STREAM: u64 = 2;
    let r = World::run(2, |comm| {
        let peer = 1 - comm.rank();
        let small = vec![7u8; 4096];
        comm.barrier();
        let t = Instant::now();
        for _ in 0..PINGPONG_ITERS {
            if comm.rank() == 0 {
                comm.send(peer, PING, small.clone());
                black_box(comm.recv::<Vec<u8>>(peer, PING));
            } else {
                let m: Vec<u8> = comm.recv(peer, PING);
                comm.send(peer, PING, m);
            }
        }
        let pingpong = t.elapsed().as_secs_f64() / PINGPONG_ITERS as f64;

        let big = vec![3u8; 1 << 20];
        comm.barrier();
        let t = Instant::now();
        for _ in 0..STREAM_MSGS {
            if comm.rank() == 0 {
                comm.send(peer, STREAM, big.clone());
            } else {
                black_box(comm.recv::<Vec<u8>>(peer, STREAM));
            }
        }
        comm.barrier();
        let stream = t.elapsed().as_secs_f64();

        let t = Instant::now();
        for _ in 0..COLLECTIVE_ITERS {
            comm.barrier();
        }
        let barrier = t.elapsed().as_secs_f64() / COLLECTIVE_ITERS as f64;
        let t = Instant::now();
        for i in 0..COLLECTIVE_ITERS {
            black_box(comm.gather(0, i as u64));
        }
        let gather = t.elapsed().as_secs_f64() / COLLECTIVE_ITERS as f64;
        (pingpong, stream, barrier, gather)
    });
    let (pingpong, stream, barrier, gather) = r[0];
    out.push(metric("comm.pingpong_us_4k", pingpong * 1e6, "us", PINGPONG_ITERS));
    out.push(metric(
        "comm.stream_gbps_1m",
        (STREAM_MSGS << 20) as f64 / stream / 1e9,
        "GB/s",
        STREAM_MSGS,
    ));
    out.push(metric("comm.barrier_us", barrier * 1e6, "us", COLLECTIVE_ITERS));
    out.push(metric("comm.gather_us", gather * 1e6, "us", COLLECTIVE_ITERS));
}

/// Contiguous, indexed and sieved reads of the replay step, and one step
/// read the way the workload's input ranks read it, all without the
/// injected delay.
fn parfs_replays(
    w: Workload,
    ds: &Dataset,
    blocks: &[OctreeBlock],
    t: usize,
    out: &mut Vec<Metric>,
) {
    let mesh = ds.mesh();
    let disk = ds.disk();
    let f = PFile::open(Arc::clone(disk), Dataset::step_path(t)).expect("step file exists");
    let len = f.len();
    // the nodes render rank 0 owns: what an indexed (adaptive) fetch pulls
    let part = Partition::balanced(mesh, blocks, w.renderers(), WorkloadModel::CellCount);
    let mut ids: Vec<u32> = part
        .blocks_of(0)
        .iter()
        .flat_map(|&b| block_level_nodes(mesh, &blocks[b as usize], None))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let dt = IndexedBlockType::from_node_ids(&ids, 12);
    let contig = median_call(PARFS_ITERS, || {
        black_box(f.read_contiguous(0, len).expect("contiguous read"));
    });
    let indexed = median_call(PARFS_ITERS, || {
        black_box(f.read_indexed(&dt, 0).expect("indexed read"));
    });
    let sieved = median_call(PARFS_ITERS, || {
        black_box(f.read_indexed(&dt, 1 << 16).expect("sieved read"));
    });
    out.push(metric("parfs.contig_ms", contig * 1e3, "ms", PARFS_ITERS));
    out.push(metric("parfs.indexed_ms", indexed * 1e3, "ms", PARFS_ITERS));
    out.push(metric("parfs.sieved_ms", sieved * 1e3, "ms", PARFS_ITERS));
    let step = median_call(PARFS_ITERS, || match w.io() {
        IoStrategy::OneDip { .. } => {
            black_box(read_step_full(disk, mesh, t, None).expect("step read"));
        }
        IoStrategy::TwoDip { per_group, .. } => {
            for j in 0..per_group {
                let range = member_node_range(mesh.node_count(), j, per_group);
                black_box(read_step_range(disk, mesh, t, range, None).expect("slice read"));
            }
        }
    });
    out.push(metric("parfs.read_ms_per_step", step * 1e3, "ms", PARFS_ITERS));
}

/// RLE encode and decode of the step's block payload as the input ranks
/// serialize it: quantized bytes when the workload quantizes, f32 values
/// otherwise.
fn wire_replays(w: Workload, ds: &Dataset, mags: &[f32], out: &mut Vec<Metric>) {
    let (raw, stride): (Vec<u8>, usize) = if w == Workload::IoHiding {
        let s = if ds.vmag_max() > 0.0 { 255.0 / ds.vmag_max() } else { 0.0 };
        (mags.iter().map(|&v| (v * s).clamp(0.0, 255.0) as u8).collect(), 1)
    } else {
        (mags.iter().flat_map(|v| v.to_le_bytes()).collect(), 4)
    };
    let codec = Codec::Rle;
    let copies: Vec<Vec<u8>> = (0..WIRE_ITERS).map(|_| raw.clone()).collect();
    let t = Instant::now();
    let mut encoded = Vec::with_capacity(WIRE_ITERS);
    for c in copies {
        encoded.push(codec.encode(c, stride));
    }
    let encode = t.elapsed().as_secs_f64() / WIRE_ITERS as f64;
    let e = encoded.pop().expect("at least one encode");
    let decode = per_call(WIRE_ITERS, || {
        black_box(codec.decode(e.coded, &e.body, raw.len(), stride).expect("round trip"));
    });
    let bytes = raw.len().max(1) as f64;
    out.push(metric("wire.encode_ns_per_byte", encode * 1e9 / bytes, "ns", WIRE_ITERS));
    out.push(metric("wire.decode_ns_per_byte", decode * 1e9 / bytes, "ns", WIRE_ITERS));
}
