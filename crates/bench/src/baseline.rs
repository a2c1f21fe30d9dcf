//! Versioned, machine-readable performance baselines: the
//! `BENCH_pipeline.json` / `BENCH_render.json` / `BENCH_io.json` /
//! `BENCH_wire.json` files committed at the repo root, the runners that
//! regenerate them, and the regression comparison `pipeline-report
//! --compare` runs in CI.
//!
//! Schema (see DESIGN.md "Performance trajectory" for field-by-field
//! units):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "area": "pipeline",            // pipeline | render | io | wire
//!   "quick": true,                 // quick-mode run (CI smoke); compare
//!                                  // refuses a quick-vs-full mix
//!   "runs": [{
//!     "name": "1dip_r3_i2",        // stable id, identical across modes
//!     "clean": true,               // false when a fault plan was armed;
//!                                  // compare refuses clean-vs-faulted
//!     "budget_limited": false,     // harness budget ended sampling
//!     "config": {"renderers": "3"},
//!     "stats": {"interframe_ms": {"median_ms": …, "p95_ms": …,
//!               "min_ms": …, "mean_ms": …, "n": …}},
//!     "counters": {"bytes.block_data": 123, "work.raycast.rays": 456}
//!   }]
//! }
//! ```
//!
//! Timing stats are milliseconds; counters are raw counts or bytes.
//! Only `bytes.*` and `work.*` counters participate in regression
//! checks (they are deterministic for a fixed config); the rest —
//! frames, fault, degradation, recovery counts — exist so a faulted or
//! degraded run is visibly tagged and never silently compared against a
//! clean one.

use crate::harness::{measure, BenchResult};
use crate::json::Json;
use quakeviz_core::{IoStrategy, PipelineBuilder, PipelineReport};
use quakeviz_rt::obs::{prof, Phase};
use quakeviz_rt::{FaultSpec, WireSpec};
use std::collections::BTreeMap;
use std::time::Duration;

/// Bump on any incompatible change to the emitted JSON layout.
pub const SCHEMA_VERSION: u64 = 1;

/// The four bench areas, in emission order.
pub const AREAS: [&str; 4] = ["pipeline", "render", "io", "wire"];

/// Relative tolerance ratio a regression must exceed (CI passes 3.0:
/// current > 3x baseline fails).
pub const DEFAULT_TOLERANCE: f64 = 3.0;

/// Absolute floor under which timing deltas are noise, milliseconds.
pub const STAT_FLOOR_MS: f64 = 2.0;

/// Absolute floor under which byte-counter deltas are noise.
pub const BYTES_FLOOR: u64 = 4096;

/// Absolute floor under which work-counter deltas are noise.
pub const WORK_FLOOR: u64 = 1024;

/// Five-number summary of one timing metric, milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Stat {
    pub median_ms: f64,
    pub p95_ms: f64,
    pub min_ms: f64,
    pub mean_ms: f64,
    pub n: u64,
}

impl Stat {
    /// Nearest-rank summary of raw samples in seconds.
    pub fn from_seconds(samples: &[f64]) -> Option<Stat> {
        if samples.is_empty() {
            return None;
        }
        let mut s: Vec<f64> = samples.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        let rank = |q: f64| -> f64 {
            let r = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
            s[r - 1]
        };
        Some(Stat {
            median_ms: rank(0.5) * 1e3,
            p95_ms: rank(0.95) * 1e3,
            min_ms: s[0] * 1e3,
            mean_ms: s.iter().sum::<f64>() / s.len() as f64 * 1e3,
            n: s.len() as u64,
        })
    }

    pub fn from_bench(r: &BenchResult) -> Stat {
        Stat {
            median_ms: r.median_ns() as f64 / 1e6,
            p95_ms: r.p95_ns() as f64 / 1e6,
            min_ms: r.min_ns() as f64 / 1e6,
            mean_ms: r.mean_ns() / 1e6,
            n: r.iters(),
        }
    }

    fn to_json(&self) -> Json {
        // microsecond resolution: full f64 precision would just churn
        // the committed files' diffs with float noise
        let us = |v: f64| (v * 1e3).round() / 1e3;
        Json::Obj(vec![
            ("median_ms".into(), Json::Num(us(self.median_ms))),
            ("p95_ms".into(), Json::Num(us(self.p95_ms))),
            ("min_ms".into(), Json::Num(us(self.min_ms))),
            ("mean_ms".into(), Json::Num(us(self.mean_ms))),
            ("n".into(), Json::Num(self.n as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<Stat, String> {
        let num = |k: &str| v.get(k).and_then(Json::as_f64).ok_or(format!("stat missing {k:?}"));
        Ok(Stat {
            median_ms: num("median_ms")?,
            p95_ms: num("p95_ms")?,
            min_ms: num("min_ms")?,
            mean_ms: num("mean_ms")?,
            n: v.get("n").and_then(Json::as_u64).ok_or("stat missing \"n\"")?,
        })
    }
}

/// One benchmarked configuration inside an area file.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRun {
    pub name: String,
    /// False when a fault plan was armed for this run.
    pub clean: bool,
    /// True when any harness sampling in this run was ended by the
    /// wall-clock budget rather than the sample cap.
    pub budget_limited: bool,
    pub config: Vec<(String, String)>,
    pub stats: BTreeMap<String, Stat>,
    pub counters: BTreeMap<String, u64>,
}

impl BaselineRun {
    fn new(name: &str, clean: bool, config: &[(&str, String)]) -> BaselineRun {
        BaselineRun {
            name: name.to_string(),
            clean,
            budget_limited: false,
            config: config.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
            stats: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    fn push_bench(&mut self, key: &str, r: &BenchResult) {
        self.budget_limited |= r.budget_limited;
        self.stats.insert(key.to_string(), Stat::from_bench(r));
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("clean".into(), Json::Bool(self.clean)),
            ("budget_limited".into(), Json::Bool(self.budget_limited)),
            (
                "config".into(),
                Json::Obj(
                    self.config.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect(),
                ),
            ),
            (
                "stats".into(),
                Json::Obj(self.stats.iter().map(|(k, s)| (k.clone(), s.to_json())).collect()),
            ),
            (
                "counters".into(),
                Json::Obj(
                    self.counters.iter().map(|(k, &v)| (k.clone(), Json::Num(v as f64))).collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<BaselineRun, String> {
        let name = v.get("name").and_then(Json::as_str).ok_or("run missing \"name\"")?;
        let clean = v.get("clean").and_then(Json::as_bool).ok_or("run missing \"clean\"")?;
        let budget_limited = v
            .get("budget_limited")
            .and_then(Json::as_bool)
            .ok_or("run missing \"budget_limited\"")?;
        let mut run = BaselineRun {
            name: name.to_string(),
            clean,
            budget_limited,
            config: Vec::new(),
            stats: BTreeMap::new(),
            counters: BTreeMap::new(),
        };
        for (k, val) in v.get("config").and_then(Json::as_obj).ok_or("run missing \"config\"")? {
            let s = val.as_str().ok_or(format!("config {k:?} not a string"))?;
            run.config.push((k.clone(), s.to_string()));
        }
        for (k, val) in v.get("stats").and_then(Json::as_obj).ok_or("run missing \"stats\"")? {
            run.stats.insert(k.clone(), Stat::from_json(val).map_err(|e| format!("{k}: {e}"))?);
        }
        for (k, val) in
            v.get("counters").and_then(Json::as_obj).ok_or("run missing \"counters\"")?
        {
            let n = val.as_u64().ok_or(format!("counter {k:?} not a non-negative integer"))?;
            run.counters.insert(k.clone(), n);
        }
        Ok(run)
    }
}

/// One `BENCH_<area>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    pub area: String,
    pub quick: bool,
    pub runs: Vec<BaselineRun>,
}

impl BenchFile {
    pub fn file_name(area: &str) -> String {
        format!("BENCH_{area}.json")
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(SCHEMA_VERSION as f64)),
            ("area".into(), Json::Str(self.area.clone())),
            ("quick".into(), Json::Bool(self.quick)),
            ("runs".into(), Json::Arr(self.runs.iter().map(BaselineRun::to_json).collect())),
        ])
    }

    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty()
    }

    pub fn from_json(v: &Json) -> Result<BenchFile, String> {
        let version =
            v.get("schema_version").and_then(Json::as_u64).ok_or("missing \"schema_version\"")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema version {version} unsupported (this build reads {SCHEMA_VERSION})"
            ));
        }
        let area = v.get("area").and_then(Json::as_str).ok_or("missing \"area\"")?;
        let quick = v.get("quick").and_then(Json::as_bool).ok_or("missing \"quick\"")?;
        let runs = v
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("missing \"runs\"")?
            .iter()
            .map(BaselineRun::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let file = BenchFile { area: area.to_string(), quick, runs };
        file.validate()?;
        Ok(file)
    }

    pub fn parse(text: &str) -> Result<BenchFile, String> {
        BenchFile::from_json(&Json::parse(text)?)
    }

    /// Structural schema checks beyond field presence.
    pub fn validate(&self) -> Result<(), String> {
        if !AREAS.contains(&self.area.as_str()) {
            return Err(format!("unknown area {:?} (expected one of {AREAS:?})", self.area));
        }
        if self.runs.is_empty() {
            return Err("no runs".into());
        }
        let mut names = std::collections::BTreeSet::new();
        for run in &self.runs {
            if !names.insert(&run.name) {
                return Err(format!("duplicate run name {:?}", run.name));
            }
            for (k, s) in &run.stats {
                let vals = [s.median_ms, s.p95_ms, s.min_ms, s.mean_ms];
                if vals.iter().any(|v| !v.is_finite() || *v < 0.0) || s.n == 0 {
                    return Err(format!("run {:?} stat {k:?} malformed", run.name));
                }
                if s.min_ms > s.median_ms || s.median_ms > s.p95_ms {
                    return Err(format!(
                        "run {:?} stat {k:?} not ordered (min<=median<=p95)",
                        run.name
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// area runners
// ---------------------------------------------------------------------

/// Timed iterations per render-area kernel (quick and full mode).
const RENDER_ITERS_QUICK: usize = 15;
const RENDER_ITERS: usize = 40;

/// Harness knobs per mode: quick keeps the CI smoke cell fast.
fn mode(quick: bool) -> (usize, Duration) {
    if quick {
        (5, Duration::from_millis(60))
    } else {
        (30, Duration::from_millis(300))
    }
}

/// Run one area by name.
pub fn run_area(area: &str, quick: bool) -> Result<BenchFile, String> {
    match area {
        "pipeline" => Ok(run_pipeline_area(quick)),
        "render" => Ok(run_render_area(quick)),
        "io" => Ok(run_io_area(quick)),
        "wire" => Ok(run_wire_area(quick)),
        other => Err(format!("unknown area {other:?} (expected one of {AREAS:?})")),
    }
}

/// Pool every recorded span of `phase` across all rank tracks.
fn phase_stat(report: &PipelineReport, phase: Phase) -> Option<Stat> {
    let durs: Vec<f64> = report
        .trace
        .tracks
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.phase == phase)
        .map(|s| s.dur_us as f64 / 1e6)
        .collect();
    Stat::from_seconds(&durs)
}

fn pipeline_run(
    name: &str,
    quick: bool,
    io: IoStrategy,
    renderers: usize,
    faults: Option<FaultSpec>,
    elastic: Option<usize>,
    deadline_ms: Option<u64>,
) -> BaselineRun {
    let (steps, size, io_delay) = if quick { (4usize, 64u32, 5.0) } else { (8, 128, 25.0) };
    let clean = faults.is_none();
    let io_desc = match io {
        IoStrategy::OneDip { input_procs } => format!("1dip x{input_procs}"),
        IoStrategy::TwoDip { groups, per_group } => format!("2dip {groups}x{per_group}"),
    };
    let mut config = vec![
        ("io", io_desc),
        ("renderers", renderers.to_string()),
        ("steps", steps.to_string()),
        ("size", format!("{size}x{size}")),
        ("io_delay", format!("{io_delay}")),
    ];
    if let Some(every) = elastic {
        config.push(("elastic", format!("every {every}")));
    }
    if let Some(ms) = deadline_ms {
        config.push(("deadline_ms", ms.to_string()));
    }
    let mut run = BaselineRun::new(name, clean, &config);

    // capture deterministic kernel work counts alongside the wall times
    prof::reset();
    let ds = crate::standard_dataset();
    let mut builder = PipelineBuilder::new(&ds)
        .renderers(renderers)
        .io_strategy(io)
        .image_size(size, size)
        .keep_frames(false)
        .io_delay_scale(io_delay)
        .profile(true)
        .max_steps(steps);
    if let Some(spec) = faults {
        builder = builder.faults(spec);
    }
    if let Some(every) = elastic {
        builder = builder.elastic(every);
    }
    if let Some(ms) = deadline_ms {
        builder = builder.delivery_deadline_ms(ms);
    }
    let report = builder.run().expect("baseline pipeline run failed");
    for (k, v) in prof::snapshot() {
        run.counters.insert(format!("work.{k}"), v);
    }
    prof::set_enabled(false);
    // span-derived render utilization (per-rank busy/makespan, permille)
    // and control-plane counters ride along from the session metrics.
    // Permille deltas can never clear WORK_FLOOR and control.* has no
    // floor, so both inform the trajectory without gating it.
    for m in &report.trace.metrics {
        if m.name.starts_with("work.render_utilization.") || m.name.starts_with("control.") {
            if let quakeviz_rt::obs::MetricValue::Counter(v) = m.value {
                run.counters.insert(m.name.clone(), v);
            }
        }
    }

    if let Some(s) = Stat::from_seconds(&report.interframe()) {
        run.stats.insert("interframe_ms".into(), s);
    }
    for &p in Phase::STAGES.iter() {
        if let Some(s) = phase_stat(&report, p) {
            run.stats.insert(format!("phase_{}_ms", p.as_str()), s);
        }
    }

    run.counters.insert("frames".into(), report.frame_done.len() as u64);
    run.counters.insert("messages".into(), report.messages);
    run.counters.insert("bytes.total".into(), report.bytes_sent);
    let mut per_class: BTreeMap<&str, u64> = BTreeMap::new();
    for e in &report.traffic {
        *per_class.entry(e.class.as_str()).or_default() += e.bytes;
    }
    for (class, bytes) in per_class {
        run.counters.insert(format!("bytes.{class}"), bytes);
    }
    run.counters.insert("fault_events".into(), report.fault_events.len() as u64);
    run.counters.insert("degraded_frames".into(), report.degraded_frame_count() as u64);
    run.counters.insert("checkpoints".into(), report.checkpoints);
    if let Some(rec) = &report.recovery {
        run.counters.insert("recovery.read_retries".into(), rec.read_retries);
        run.counters.insert("recovery.exhausted_reads".into(), rec.exhausted_reads);
        run.counters.insert("recovery.checksum_failures".into(), rec.checksum_failures);
        run.counters.insert("recovery.degraded_blocks".into(), rec.degraded_blocks);
        run.counters.insert(
            "recovery.failovers".into(),
            rec.failover_events + rec.render_failovers + rec.output_failovers,
        );
        run.counters.insert("recovery.rejoins".into(), rec.rejoins);
        run.counters.insert("recovery.catchups".into(), rec.catchup_plans + rec.catchup_fields);
    }
    run
}

/// End-to-end pipeline baselines: the canonical 1DIP and 2DIP
/// configurations, one deliberately faulted 1DIP run (tagged
/// `clean: false` so compare refuses to mix it with clean data), an
/// elastic run with the control plane ticking (its `control.*` counters
/// record how often the controller found anything to change), and a
/// kill+rejoin run whose `interframe_ms` puts a regression gate on the
/// rejoin overhead — detection, TAG_JOIN handshake, and catch-up all
/// land between frames, so a rejoin that stops being cheap shows up as
/// a gated timing jump, not just a counter drift.
pub fn run_pipeline_area(quick: bool) -> BenchFile {
    let runs = vec![
        pipeline_run(
            "1dip_r3_i2",
            quick,
            IoStrategy::OneDip { input_procs: 2 },
            3,
            None,
            None,
            None,
        ),
        pipeline_run(
            "2dip_g2x2_r3",
            quick,
            IoStrategy::TwoDip { groups: 2, per_group: 2 },
            3,
            None,
            None,
            None,
        ),
        pipeline_run(
            "1dip_faulted_s11",
            quick,
            IoStrategy::OneDip { input_procs: 2 },
            3,
            Some(
                FaultSpec::parse("seed=11,read_transient=0.2")
                    .expect("baseline fault spec must parse"),
            ),
            None,
            None,
        ),
        pipeline_run(
            "1dip_r3_elastic_t2",
            quick,
            IoStrategy::OneDip { input_procs: 2 },
            3,
            None,
            Some(2),
            None,
        ),
        // render rank 3 dies at step 1 and rejoins at step 3, inside the
        // quick mode's 4-step window; the bounded delivery deadline is
        // what turns detection into a fixed, comparable cost
        pipeline_run(
            "1dip_rejoin_s1",
            quick,
            IoStrategy::OneDip { input_procs: 2 },
            3,
            Some(
                FaultSpec::parse("seed=1,fail_rank=3@1,recover_rank=3@3")
                    .expect("baseline rejoin spec must parse"),
            ),
            None,
            Some(400),
        ),
    ];
    BenchFile { area: "pipeline".into(), quick, runs }
}

/// Rendering-kernel baselines: brick ray casting (unlit and lit) and
/// the LIC convolution, with deterministic work counters captured via
/// the QUAKEVIZ_PROF tick registry — a broken early-ray-termination,
/// empty-space skip or streamline cutoff shows up as a work-count jump
/// even when wall-clock noise hides it. Every kernel runs a fixed number
/// of iterations, so the statistics never rest on whatever a wall-clock
/// budget allowed.
pub fn run_render_area(quick: bool) -> BenchFile {
    use quakeviz_lic::{compute_lic, white_noise, LicParams, RegularField2D};
    use quakeviz_mesh::{Aabb, Vec3};
    use quakeviz_render::{
        render_brick, Brick, Camera, LightingParams, RenderParams, TransferFunction,
    };

    let iters = if quick { RENDER_ITERS_QUICK } else { RENDER_ITERS };
    // no wall-clock budget: the sample cap alone ends sampling
    let budget = Duration::MAX;
    let n = 16usize;
    let dims = (n + 1, n + 1, n + 1);
    let mut values = Vec::with_capacity(dims.0 * dims.1 * dims.2);
    for k in 0..dims.2 {
        for j in 0..dims.1 {
            for i in 0..dims.0 {
                let (x, y, z) = (
                    i as f32 / n as f32 - 0.5,
                    j as f32 / n as f32 - 0.5,
                    k as f32 / n as f32 - 0.5,
                );
                let r = (x * x + y * y + z * z).sqrt();
                values.push((1.0 - (r - 0.3).abs() * 6.0).clamp(0.0, 1.0));
            }
        }
    }
    let brick = Brick::from_values(0, Aabb::UNIT, dims, values);
    let tf = TransferFunction::seismic();
    let img = if quick { 128u32 } else { 256 };
    let camera = Camera::look_at(
        Vec3::new(0.5, 0.5, -2.5),
        Vec3::new(0.5, 0.5, 0.5),
        Vec3::new(0.0, 1.0, 0.0),
        0.7,
        img,
        img,
    );
    let lic_n = if quick { 128u32 } else { 256 };
    let field = RegularField2D::from_fn(lic_n, lic_n, (1.0, 1.0), |x, y| {
        let (dx, dy) = (x - 0.5, y - 0.5);
        (-dy as f32, dx as f32)
    });
    let noise = white_noise(lic_n, lic_n, 1);

    let mut run = BaselineRun::new(
        "kernels",
        true,
        &[
            ("brick_cells", n.to_string()),
            ("image", format!("{img}x{img}")),
            ("lic", format!("{lic_n}x{lic_n}")),
        ],
    );
    let unlit = RenderParams::default();
    let lit = RenderParams { lighting: Some(LightingParams::default()), ..Default::default() };
    run.push_bench(
        "raycast_ms",
        &measure("raycast", iters, budget, || render_brick(&brick, &camera, &tf, &unlit)),
    );
    run.push_bench(
        "raycast_lit_ms",
        &measure("raycast_lit", iters, budget, || render_brick(&brick, &camera, &tf, &lit)),
    );
    run.push_bench(
        "lic_ms",
        &measure("lic", iters, budget, || compute_lic(&field, &noise, &LicParams::default())),
    );

    // one profiled pass per kernel for the deterministic work counts
    prof::set_enabled(true);
    prof::reset();
    render_brick(&brick, &camera, &tf, &unlit);
    compute_lic(&field, &noise, &LicParams::default());
    for (k, v) in prof::snapshot() {
        run.counters.insert(format!("work.{k}"), v);
    }
    prof::set_enabled(false);

    BenchFile { area: "render".into(), quick, runs: vec![run] }
}

/// Parallel-file-system baselines: contiguous vs indexed vs sieved
/// reads, the 4-rank collective two-phase read, a 4-OST sharded disk
/// under concurrent readers (per-OST traffic and contention counters),
/// and the storage-tier headline — the same pipeline run cold then warm
/// against one shared cache tier, where the warm leg's interframe delay
/// collapses because every frame is served from the cache.
pub fn run_io_area(quick: bool) -> BenchFile {
    use quakeviz_parfs::{CostModel, Disk, IndexedBlockType, PFile};
    use quakeviz_rt::World;
    use std::sync::Arc;

    let (cap, budget) = mode(quick);
    let len = if quick { 1usize << 20 } else { 4 << 20 };
    let disk = Disk::new(CostModel::free());
    disk.write_file("step", (0..len).map(|i| (i % 251) as u8).collect());
    let f = PFile::open(Arc::clone(&disk), "step").unwrap();
    let ids: Vec<u32> = (0..len as u32 / 256).map(|i| i * 16).collect();
    let dt = IndexedBlockType::from_node_ids(&ids, 12);

    let mut run = BaselineRun::new("parfs", true, &[("file_bytes", len.to_string())]);
    run.counters.insert("file_bytes".into(), len as u64);
    run.push_bench(
        "read_contiguous_ms",
        &measure("contig", cap, budget, || f.read_contiguous(0, len as u64).unwrap()),
    );
    run.push_bench(
        "read_indexed_ms",
        &measure("indexed", cap, budget, || f.read_indexed(&dt, 0).unwrap()),
    );
    run.push_bench(
        "read_sieved_64k_ms",
        &measure("sieved", cap, budget, || f.read_indexed(&dt, 1 << 16).unwrap()),
    );
    let coll_ids = (len as u32 / 256 / 4).max(64);
    let collective = {
        let disk = Arc::clone(&disk);
        measure("collective", cap.min(10), budget, move || {
            let disk = Arc::clone(&disk);
            World::run(4, move |comm| {
                let f = PFile::open(Arc::clone(&disk), "step").unwrap();
                let ids: Vec<u32> =
                    (0..coll_ids).map(|i| i * 64 + comm.rank() as u32 * 16).collect();
                let dt = IndexedBlockType::from_node_ids(&ids, 12);
                f.read_all(&comm, &dt, 1 << 14).unwrap().useful_bytes
            })
        })
    };
    run.push_bench("read_collective_r4_ms", &collective);
    run.counters.insert("bytes.indexed_useful".into(), ids.len() as u64 * 12);

    // storage-tier headline: identical pipeline twice over one shared
    // cache tier — leg order is the experiment (cold populates, warm
    // replays)
    let ds = crate::standard_dataset();
    let tier =
        quakeviz_core::CacheTier::new(quakeviz_core::CacheConfig { blocks_mb: 64, frames: 64 });
    let cold = cache_pipeline_leg("pipeline_cache_cold", quick, &ds, &tier);
    let warm = cache_pipeline_leg("pipeline_cache_warm", quick, &ds, &tier);

    BenchFile { area: "io".into(), quick, runs: vec![run, sharded_run(quick, len), cold, warm] }
}

/// The 4-OST sharded disk under 4 concurrent readers: wall time of the
/// contended read, the flat-vs-sharded simulated cost of one full-file
/// read, and the per-OST reads/bytes/peak-queue counters from a single
/// clean 4-rank pass (counters reset before it, so the committed numbers
/// are one pass, not `measure`'s whole sample loop).
fn sharded_run(quick: bool, len: usize) -> BaselineRun {
    use quakeviz_parfs::{CostModel, Disk, PFile};
    use quakeviz_rt::World;
    use std::sync::Arc;

    let (cap, budget) = mode(quick);
    let osts = 4usize;
    // shrink the stripe so even the quick 1 MiB file spans many stripes
    // and every reader touches every OST
    let model = CostModel { stripe_size: 1 << 16, ..CostModel::default() };
    let disk = Disk::new(model);
    disk.write_file("step", (0..len).map(|i| (i % 251) as u8).collect());
    let mut run = BaselineRun::new(
        "parfs_ost4",
        true,
        &[
            ("file_bytes", len.to_string()),
            ("osts", osts.to_string()),
            ("stripe", model.stripe_size.to_string()),
        ],
    );

    // simulated cost of one full-file read, flat vs sharded (µs): the
    // striping win the shard model exists to show
    let flat_us = {
        let f = PFile::open(Arc::clone(&disk), "step").unwrap();
        (f.read_contiguous(0, len as u64).unwrap().sim_seconds * 1e6).round() as u64
    };
    disk.set_shards(osts);
    let sharded_us = {
        let f = PFile::open(Arc::clone(&disk), "step").unwrap();
        (f.read_contiguous(0, len as u64).unwrap().sim_seconds * 1e6).round() as u64
    };
    run.counters.insert("parfs.sim_contig_us.flat".into(), flat_us);
    run.counters.insert("parfs.sim_contig_us.ost4".into(), sharded_us);

    // wall time of 4 ranks reading disjoint quarters concurrently
    let quarter = (len as u64 / 4).max(1);
    let contended = {
        let disk = Arc::clone(&disk);
        measure("sharded_r4", cap.min(10), budget, move || {
            let disk = Arc::clone(&disk);
            World::run(4, move |comm| {
                let f = PFile::open(Arc::clone(&disk), "step").unwrap();
                f.read_contiguous(comm.rank() as u64 * quarter, quarter).unwrap().useful_bytes
            })
        })
    };
    run.push_bench("read_contiguous_4ost_r4_ms", &contended);

    // one clean contended pass for the committed per-OST counters
    disk.set_shards(osts);
    {
        let disk = Arc::clone(&disk);
        World::run(4, move |comm| {
            let f = PFile::open(Arc::clone(&disk), "step").unwrap();
            f.read_contiguous(comm.rank() as u64 * quarter, quarter).unwrap().useful_bytes
        });
    }
    for (i, st) in disk.ost_stats().iter().enumerate() {
        run.counters.insert(format!("parfs.ost{i}.reads"), st.reads);
        run.counters.insert(format!("parfs.ost{i}.bytes"), st.bytes);
        run.counters.insert(format!("parfs.ost{i}.peak_queue"), st.peak_queue);
    }
    run
}

/// One leg of the storage-tier headline: the canonical 1DIP pipeline on
/// a 4-OST sharded dataset disk with a block+frame cache tier attached.
/// The caller runs this twice against the *same* tier — the first (cold)
/// leg renders everything and populates the tier, the second (warm) leg
/// replays entirely from the frame cache. `interframe_ms` is the
/// headline; the `cache.*` / `parfs.ost*` counters ride along so the
/// committed file shows nonzero hits on the warm leg.
fn cache_pipeline_leg(
    name: &str,
    quick: bool,
    ds: &quakeviz_seismic::Dataset,
    tier: &std::sync::Arc<quakeviz_core::CacheTier>,
) -> BaselineRun {
    let (steps, size, io_delay) = if quick { (4usize, 64u32, 5.0) } else { (8, 96, 25.0) };
    let mut run = BaselineRun::new(
        name,
        true,
        &[
            ("io", "1dip x2".into()),
            ("renderers", "3".to_string()),
            ("steps", steps.to_string()),
            ("size", format!("{size}x{size}")),
            ("io_delay", format!("{io_delay}")),
            ("cache", "blocks_mb=64,frames=64".into()),
            ("ost_shards", "4".into()),
        ],
    );
    let report = PipelineBuilder::new(ds)
        .renderers(3)
        .io_strategy(IoStrategy::OneDip { input_procs: 2 })
        .image_size(size, size)
        .keep_frames(false)
        .io_delay_scale(io_delay)
        .cache_tier(std::sync::Arc::clone(tier))
        .ost_shards(4)
        .max_steps(steps)
        .run()
        .expect("baseline cache run failed");
    if let Some(s) = Stat::from_seconds(&report.interframe()) {
        run.stats.insert("interframe_ms".into(), s);
    }
    run.counters.insert("frames".into(), report.frame_done.len() as u64);
    for m in &report.trace.metrics {
        if m.name.starts_with("cache.") || m.name.starts_with("parfs.ost") {
            if let quakeviz_rt::obs::MetricValue::Counter(v) = m.value {
                run.counters.insert(m.name.clone(), v);
            }
        }
    }
    run
}

/// One wire-codec run on the canonical quantized basin workload.
///
/// `bytes.raw.*` / `bytes.wire.*` are deterministic for a fixed config
/// and gate regressions; the per-class ratio (x100 so it survives the
/// integer counter schema), piece mix, and codec CPU cost ride along
/// informationally. The measured BlockData ratio here is the number the
/// §5 validation scales its `Ts` term by in `pipeline-report`.
fn wire_run(name: &str, quick: bool, spec: &str) -> BaselineRun {
    let (steps, size) = if quick { (6usize, 64u32) } else { (10, 96) };
    let wire = WireSpec::parse(spec).expect("baseline wire spec must parse");
    let mut run = BaselineRun::new(
        name,
        true,
        &[
            ("wire", spec.to_string()),
            ("quantize", "true".into()),
            ("steps", steps.to_string()),
            ("size", format!("{size}x{size}")),
        ],
    );
    let ds = crate::standard_dataset();
    let report = PipelineBuilder::new(&ds)
        .renderers(3)
        .io_strategy(IoStrategy::OneDip { input_procs: 2 })
        .image_size(size, size)
        .quantize(true)
        .keep_frames(false)
        .wire_spec(wire)
        .max_steps(steps)
        .run()
        .expect("baseline wire run failed");
    if let Some(s) = Stat::from_seconds(&report.interframe()) {
        run.stats.insert("interframe_ms".into(), s);
    }
    for w in &report.wire {
        let class = w.class.as_str();
        run.counters.insert(format!("bytes.raw.{class}"), w.raw_bytes);
        run.counters.insert(format!("bytes.wire.{class}"), w.wire_bytes);
        run.counters.insert(format!("wire.ratio_x100.{class}"), (w.ratio() * 100.0).round() as u64);
        run.counters.insert(format!("wire.encode_us.{class}"), w.encode_ns / 1_000);
        run.counters.insert(format!("wire.decode_us.{class}"), w.decode_ns / 1_000);
        if w.keyframe_pieces + w.delta_pieces > 0 {
            run.counters.insert(format!("wire.keyframes.{class}"), w.keyframe_pieces);
            run.counters.insert(format!("wire.deltas.{class}"), w.delta_pieces);
        }
    }
    run
}

/// Wire-codec baselines: every codec with and without temporal deltas,
/// all on the same quantized workload so the `bytes.wire.*` columns are
/// directly comparable across runs.
pub fn run_wire_area(quick: bool) -> BenchFile {
    let runs = vec![
        wire_run("raw", quick, "raw"),
        wire_run("rle", quick, "rle"),
        wire_run("rle_delta_k4", quick, "rle,delta,keyframe=4"),
        wire_run("shuffle", quick, "shuffle"),
        wire_run("shuffle_delta_k4", quick, "shuffle,delta,keyframe=4"),
    ];
    BenchFile { area: "wire".into(), quick, runs }
}

// ---------------------------------------------------------------------
// comparison
// ---------------------------------------------------------------------

/// Outcome of comparing a current bench file against a baseline.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Human-readable per-metric lines, in report order.
    pub lines: Vec<String>,
    /// Subset of lines that are regressions (empty means pass).
    pub regressions: Vec<String>,
}

fn counter_floor(name: &str) -> Option<u64> {
    if name.starts_with("bytes.") {
        Some(BYTES_FLOOR)
    } else if name.starts_with("work.") {
        Some(WORK_FLOOR)
    } else {
        None // informational only: never fails the comparison
    }
}

/// Compare `current` against `baseline` with a relative `tolerance`
/// (regression = current > baseline * tolerance AND the delta clears an
/// absolute noise floor). Refuses — `Err`, exit 2 in the CLI — to
/// compare mismatched areas, a quick run against a full run, or a
/// faulted run against a clean one: those are different experiments,
/// not regressions.
pub fn compare(
    baseline: &BenchFile,
    current: &BenchFile,
    tolerance: f64,
) -> Result<Comparison, String> {
    if baseline.area != current.area {
        return Err(format!(
            "area mismatch: baseline {:?} vs current {:?}",
            baseline.area, current.area
        ));
    }
    if baseline.quick != current.quick {
        return Err(format!(
            "refusing to compare quick={} baseline against quick={} current — rerun in the \
             matching mode",
            baseline.quick, current.quick
        ));
    }
    let mut cmp = Comparison::default();
    for base in &baseline.runs {
        let Some(cur) = current.runs.iter().find(|r| r.name == base.name) else {
            return Err(format!("run {:?} missing from current file", base.name));
        };
        if base.clean != cur.clean {
            return Err(format!(
                "run {:?}: clean={} baseline vs clean={} current — a faulted run cannot be \
                 compared against a clean one",
                base.name, base.clean, cur.clean
            ));
        }
        for (key, bs) in &base.stats {
            let Some(cs) = cur.stats.get(key) else {
                cmp.flag(format!("{}/{key}: missing from current run", base.name));
                continue;
            };
            let (b, c) = (bs.median_ms, cs.median_ms);
            let ratio = if b > 0.0 { c / b } else { f64::INFINITY };
            let regressed = c > b * tolerance && (c - b) > STAT_FLOOR_MS;
            let line = format!(
                "{}/{key}: median {b:.3} ms -> {c:.3} ms ({}{:.0}%)",
                base.name,
                if c >= b { "+" } else { "" },
                (c - b) / b.max(1e-9) * 100.0
            );
            if regressed {
                cmp.flag(format!("{line}  REGRESSION (> {tolerance:.1}x, ratio {ratio:.2}x)"));
            } else {
                cmp.lines.push(line);
            }
        }
        for (key, &b) in &base.counters {
            let Some(floor) = counter_floor(key) else {
                if let Some(&c) = cur.counters.get(key) {
                    if c != b {
                        cmp.lines.push(format!("{}/{key}: {b} -> {c} (informational)", base.name));
                    }
                }
                continue;
            };
            let Some(&c) = cur.counters.get(key) else {
                cmp.flag(format!("{}/{key}: missing from current run", base.name));
                continue;
            };
            let regressed = c as f64 > b as f64 * tolerance && c.saturating_sub(b) > floor;
            let line = format!("{}/{key}: {b} -> {c}", base.name);
            if regressed {
                cmp.flag(format!("{line}  REGRESSION (> {tolerance:.1}x)"));
            } else if c != b {
                cmp.lines.push(line);
            }
        }
    }
    Ok(cmp)
}

impl Comparison {
    fn flag(&mut self, line: String) {
        self.lines.push(line.clone());
        self.regressions.push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file(quick: bool, clean: bool, median: f64) -> BenchFile {
        let mut run = BaselineRun::new("r", clean, &[("k", "v".into())]);
        run.stats.insert(
            "t_ms".into(),
            Stat {
                median_ms: median,
                p95_ms: median * 1.5,
                min_ms: median * 0.5,
                mean_ms: median,
                n: 5,
            },
        );
        run.counters.insert("bytes.total".into(), 1 << 20);
        run.counters.insert("frames".into(), 8);
        BenchFile { area: "pipeline".into(), quick, runs: vec![run] }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let f = sample_file(true, true, 12.5);
        let back = BenchFile::parse(&f.to_pretty()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn validate_rejects_malformed() {
        let mut f = sample_file(true, true, 10.0);
        f.area = "nonsense".into();
        assert!(f.validate().is_err());
        let mut f = sample_file(true, true, 10.0);
        f.runs[0].stats.get_mut("t_ms").unwrap().min_ms = 99.0; // min > median
        assert!(f.validate().is_err());
        let f = BenchFile { area: "io".into(), quick: true, runs: vec![] };
        assert!(f.validate().is_err());
        assert!(BenchFile::parse("{\"schema_version\": 999}").is_err());
    }

    #[test]
    fn compare_flags_real_regressions_only() {
        let base = sample_file(true, true, 10.0);
        // within tolerance: +50% on a 3x gate
        let ok = compare(&base, &sample_file(true, true, 15.0), 3.0).unwrap();
        assert!(ok.regressions.is_empty(), "{:?}", ok.regressions);
        // clear regression: 5x the baseline median, above the 2 ms floor
        let bad = compare(&base, &sample_file(true, true, 50.0), 3.0).unwrap();
        assert_eq!(bad.regressions.len(), 1);
        assert!(bad.regressions[0].contains("REGRESSION"));
        // huge ratio but under the absolute floor: sub-noise, not flagged
        let tiny_base = sample_file(true, true, 0.01);
        let noise = compare(&tiny_base, &sample_file(true, true, 1.0), 3.0).unwrap();
        assert!(noise.regressions.is_empty(), "{:?}", noise.regressions);
    }

    #[test]
    fn compare_refuses_mismatched_experiments() {
        let base = sample_file(true, true, 10.0);
        assert!(compare(&base, &sample_file(false, true, 10.0), 3.0).is_err());
        assert!(compare(&base, &sample_file(true, false, 10.0), 3.0).is_err());
        let mut other_area = sample_file(true, true, 10.0);
        other_area.area = "io".into();
        assert!(compare(&base, &other_area, 3.0).is_err());
    }

    #[test]
    fn io_area_emits_valid_schema() {
        let f = run_io_area(true);
        f.validate().unwrap();
        let back = BenchFile::parse(&f.to_pretty()).unwrap();
        assert_eq!(back.area, "io");
        assert!(back.quick);
        let run = &back.runs[0];
        assert!(run.stats.contains_key("read_contiguous_ms"));
        assert!(run.stats.contains_key("read_collective_r4_ms"));
        assert!(run.stats.values().all(|s| s.n >= 3));

        // sharded run: every OST saw traffic, and striping beat the flat
        // model on the full-file simulated read
        let sharded = back.runs.iter().find(|r| r.name == "parfs_ost4").expect("parfs_ost4 run");
        for i in 0..4 {
            assert!(
                sharded.counters.get(&format!("parfs.ost{i}.bytes")).copied().unwrap_or(0) > 0,
                "ost{i} delivered no bytes"
            );
        }
        assert!(
            sharded.counters["parfs.sim_contig_us.ost4"]
                < sharded.counters["parfs.sim_contig_us.flat"],
            "striping must beat the flat model on a large sequential read"
        );

        // cache legs: the warm replay must actually hit, and beat cold
        let cold = back.runs.iter().find(|r| r.name == "pipeline_cache_cold").expect("cold leg");
        let warm = back.runs.iter().find(|r| r.name == "pipeline_cache_warm").expect("warm leg");
        assert!(warm.counters.get("cache.frame.hits").copied().unwrap_or(0) > 0);
        assert_eq!(cold.counters.get("cache.frame.hits").copied().unwrap_or(0), 0);
        let (c, w) = (cold.stats["interframe_ms"].median_ms, warm.stats["interframe_ms"].median_ms);
        assert!(w < c, "warm interframe {w} ms must undercut cold {c} ms");
    }
}
