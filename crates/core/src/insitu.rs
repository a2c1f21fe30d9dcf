//! Simulation-time (in-situ) visualization — the paper's stated goal.
//!
//! §7: *"Our ultimate goal is to perform simulation-time visualization
//! allowing scientists to monitor the simulation, make immediate
//! decisions on data archiving and visualization production, and even
//! steer the simulation. … the parallel simulation and renderer will run
//! simultaneously on either the same machine or two different machines."*
//!
//! This module runs exactly that topology on thread ranks: rank 0 *is*
//! the simulation (the elastic-wave solver stepping live), playing the
//! role of the input processor — it preprocesses each output step and
//! distributes block data to the rendering processors without any disk
//! in between; renderers ray-cast and SLIC-composite concurrently with
//! the next solver steps (sends are buffered, so the solver runs ahead),
//! and the output rank delivers frames as the simulation progresses.
//!
//! Because no global value range exists before the run ends, frames are
//! normalized by a *running maximum* velocity magnitude, which the
//! simulation rank ships alongside each step's data.

use crate::pipeline::RenderFrameTiming;
use quakeviz_composite::{slic, CompositeOptions, FrameInfo};
use quakeviz_mesh::{
    Aabb, HexMesh, NodeField, NodeId, Octree, OctreeBlock, Partition, WorkloadModel,
};
use quakeviz_render::{
    front_to_back_order, Camera, Fragment, GatherPlans, LightingParams, RenderParams, RgbaImage,
    TransferFunction,
};
use quakeviz_rt::{Comm, World};
use quakeviz_seismic::{BasinModel, RickerSource, WaveSolver, WavelengthOracle};
use std::sync::Arc;
use std::time::Instant;

const TAG_STEP: u64 = 0x3000_0000_0000;
const TAG_VOL: u64 = 0x3100_0000_0000;

/// Configuration of an in-situ run.
#[derive(Clone)]
pub struct InsituConfig {
    /// Finest-grid cells per axis (power of two ≥ 8).
    pub cells: usize,
    /// Source centre frequency, Hz.
    pub frequency: f64,
    /// Physical domain, metres.
    pub extent: quakeviz_mesh::Vec3,
    /// Number of frames to produce.
    pub frames: usize,
    /// Solver steps between frames (0 = auto: quarter source period).
    pub substeps: usize,
    pub renderers: usize,
    pub width: u32,
    pub height: u32,
    /// Octree rendering level (`None` = finest).
    pub level: Option<u8>,
    pub lighting: bool,
    pub transfer: TransferFunction,
    pub keep_frames: bool,
}

impl Default for InsituConfig {
    fn default() -> Self {
        InsituConfig {
            cells: 32,
            frequency: 0.15,
            extent: quakeviz_mesh::Vec3::new(40_000.0, 40_000.0, 20_000.0),
            frames: 12,
            substeps: 0,
            renderers: 4,
            width: 256,
            height: 256,
            level: None,
            lighting: false,
            transfer: TransferFunction::seismic(),
            keep_frames: true,
        }
    }
}

/// Outcome of an in-situ run.
pub struct InsituReport {
    pub frames: Vec<RgbaImage>,
    /// Completion time of each frame, seconds from the start barrier.
    pub frame_done: Vec<f64>,
    /// Wall-clock the simulation rank spent inside the solver.
    pub sim_seconds: f64,
    /// Pooled per-frame render timings.
    pub render_frames: Vec<RenderFrameTiming>,
    /// The running normalization maximum after each frame.
    pub norm_history: Vec<f32>,
    /// Total wall-clock of the run.
    pub total_seconds: f64,
}

impl InsituReport {
    pub fn mean_interframe_delay(&self) -> f64 {
        if self.frame_done.is_empty() {
            return 0.0;
        }
        self.frame_done.last().unwrap() / self.frame_done.len() as f64
    }
}

struct InsituShared {
    cfg: InsituConfig,
    mesh: Arc<HexMesh>,
    blocks: Vec<OctreeBlock>,
    partition: Partition,
    camera: Camera,
    order_ids: Vec<u32>,
    ids_per_block: Vec<Arc<Vec<NodeId>>>,
    level: u8,
}

enum InsituRank {
    Sim { sim_seconds: f64, norm_history: Vec<f32> },
    Render(Vec<RenderFrameTiming>),
    Output { frames: Vec<RgbaImage>, done_at: Vec<f64> },
}

/// Run the simulation and the visualization pipeline simultaneously.
pub fn run_insitu(cfg: InsituConfig) -> Result<InsituReport, String> {
    if !cfg.cells.is_power_of_two() || cfg.cells < 8 {
        return Err(format!("cells must be a power of two ≥ 8, got {}", cfg.cells));
    }
    if cfg.renderers == 0 || cfg.frames == 0 {
        return Err("need at least one renderer and one frame".into());
    }
    let max_level = cfg.cells.trailing_zeros() as u8;
    let basin = BasinModel::la_like(cfg.extent);
    let oracle = WavelengthOracle::new(basin.clone(), cfg.frequency, max_level);
    let mesh = Arc::new(HexMesh::from_octree(Octree::build(cfg.extent, &oracle)));
    let blocks = mesh.octree().blocks(2.min(max_level));
    let partition = Partition::balanced(&mesh, &blocks, cfg.renderers, WorkloadModel::CellCount);
    let camera = Camera::default_for(&Aabb::from_extent(cfg.extent), cfg.width, cfg.height);
    let order_ids: Vec<u32> = front_to_back_order(&blocks, cfg.extent, camera.eye)
        .into_iter()
        .map(|i| blocks[i].id)
        .collect();
    let level = cfg.level.unwrap_or(max_level).min(max_level);
    let ids_per_block: Vec<Arc<Vec<NodeId>>> =
        blocks.iter().map(|b| Arc::new(crate::reader::block_level_nodes(&mesh, b, None))).collect();

    let shared =
        InsituShared { cfg, mesh, blocks, partition, camera, order_ids, ids_per_block, level };
    let shared = &shared;
    let world = 1 + shared.cfg.renderers + 1;
    let t_start = Instant::now();
    let results = World::run(world, move |comm| insitu_rank(comm, shared, &basin));
    let total_seconds = t_start.elapsed().as_secs_f64();

    let mut report = InsituReport {
        frames: Vec::new(),
        frame_done: Vec::new(),
        sim_seconds: 0.0,
        render_frames: Vec::new(),
        norm_history: Vec::new(),
        total_seconds,
    };
    for r in results {
        match r {
            InsituRank::Sim { sim_seconds, norm_history } => {
                report.sim_seconds = sim_seconds;
                report.norm_history = norm_history;
            }
            InsituRank::Render(v) => report.render_frames.extend(v),
            InsituRank::Output { frames, done_at } => {
                report.frames = frames;
                report.frame_done = done_at;
            }
        }
    }
    Ok(report)
}

fn insitu_rank(comm: Comm, s: &InsituShared, basin: &BasinModel) -> InsituRank {
    let render_ranks: Vec<usize> = (1..1 + s.cfg.renderers).collect();
    let render_comm = comm.group(&render_ranks);
    comm.barrier();
    let start = Instant::now();
    let me = comm.rank();
    if me == 0 {
        let (sim_seconds, norm_history) = sim_main(&comm, s, basin);
        InsituRank::Sim { sim_seconds, norm_history }
    } else if me <= s.cfg.renderers {
        InsituRank::Render(insitu_render_main(&comm, render_comm.as_ref().unwrap(), s))
    } else {
        insitu_output_main(&comm, s, start)
    }
}

fn sim_main(comm: &Comm, s: &InsituShared, basin: &BasinModel) -> (f64, Vec<f32>) {
    let cfg = &s.cfg;
    let h = cfg.extent.x / cfg.cells as f64;
    let source = RickerSource::new(
        quakeviz_mesh::Vec3::new(cfg.extent.x * 0.30, cfg.extent.y * 0.35, cfg.extent.z * 0.45),
        cfg.frequency,
        1e9,
        h * 1.6,
    );
    let mut solver = WaveSolver::new(basin, cfg.cells, source);
    let substeps = if cfg.substeps > 0 {
        cfg.substeps
    } else {
        ((0.25 / cfg.frequency / solver.dt()).round() as usize).max(1)
    };
    let node_map: Vec<usize> = (0..s.mesh.node_count() as NodeId)
        .map(|id| {
            let (x, y, z) = s.mesh.node_grid_coords(id);
            solver.node_index(x as usize, y as usize, z as usize)
        })
        .collect();

    let mut sim_seconds = 0.0f64;
    let mut norm = 0.0f32;
    let mut norm_history = Vec::with_capacity(cfg.frames);
    for t in 0..cfg.frames {
        let t0 = Instant::now();
        for _ in 0..substeps {
            solver.step();
        }
        sim_seconds += t0.elapsed().as_secs_f64();
        // preprocess: magnitudes + running normalization maximum
        let mag: Vec<f32> = node_map
            .iter()
            .map(|&i| {
                let v = solver.velocity(i);
                (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
            })
            .collect();
        norm = mag.iter().fold(norm, |a, &b| a.max(b)).max(1e-12);
        norm_history.push(norm);
        // distribute; the send is buffered so the solver continues
        // immediately — simulation and rendering genuinely overlap
        for r in 0..cfg.renderers {
            let mut batch: Vec<(u32, Vec<f32>)> = Vec::new();
            for &bid in s.partition.blocks_of(r) {
                let ids = &s.ids_per_block[bid as usize];
                batch.push((bid, ids.iter().map(|&id| mag[id as usize]).collect()));
            }
            let bytes: u64 = batch.iter().map(|(_, v)| v.len() as u64 * 4).sum();
            comm.send_with_size(1 + r, TAG_STEP + t as u64, (norm, batch), bytes);
        }
    }
    (sim_seconds, norm_history)
}

fn insitu_render_main(comm: &Comm, render_comm: &Comm, s: &InsituShared) -> Vec<RenderFrameTiming> {
    let rr = comm.rank() - 1;
    let output_rank = 1 + s.cfg.renderers;
    let my_blocks = s.partition.blocks_of(rr);
    let mut field = NodeField::zeros(&s.mesh);
    let params = RenderParams {
        lighting: s.cfg.lighting.then(LightingParams::default),
        opacity_unit: Some(s.cfg.extent.max_component() / 64.0),
        ..Default::default()
    };
    let mut gathers = GatherPlans::default();
    let mut timings = Vec::with_capacity(s.cfg.frames);
    for t in 0..s.cfg.frames {
        let mut timing = RenderFrameTiming::default();
        let recv_t = Instant::now();
        let (norm, batch): (f32, Vec<(u32, Vec<f32>)>) = comm.recv(0, TAG_STEP + t as u64);
        for (bid, values) in batch {
            let ids = &s.ids_per_block[bid as usize];
            for (&id, &v) in ids.iter().zip(&values) {
                field.set(id, v);
            }
        }
        timing.receive_s = recv_t.elapsed().as_secs_f64();

        let render_t = Instant::now();
        let mut frags: Vec<Fragment> = Vec::new();
        for &bid in my_blocks {
            let block = &s.blocks[bid as usize];
            if let Some(f) = quakeviz_render::render_block(
                &mut gathers,
                &s.mesh,
                &field,
                block,
                s.level,
                (0.0, norm),
                &s.camera,
                &s.cfg.transfer,
                &params,
            ) {
                frags.push(f);
            }
        }
        timing.render_s = render_t.elapsed().as_secs_f64();

        let comp_t = Instant::now();
        let info =
            FrameInfo::exchange(render_comm, &frags, &s.order_ids, s.cfg.width, s.cfg.height);
        let result = slic(render_comm, &frags, &info, 0, CompositeOptions::default());
        if let Some(img) = result.image {
            let bytes = (img.width() * img.height() * 16) as u64;
            comm.send_with_size(output_rank, TAG_VOL + t as u64, img, bytes);
        }
        timing.composite_s = comp_t.elapsed().as_secs_f64();
        timings.push(timing);
    }
    timings
}

fn insitu_output_main(comm: &Comm, s: &InsituShared, start: Instant) -> InsituRank {
    let mut frames = Vec::new();
    let mut done_at = Vec::with_capacity(s.cfg.frames);
    for t in 0..s.cfg.frames {
        let img: RgbaImage = comm.recv(1, TAG_VOL + t as u64);
        done_at.push(start.elapsed().as_secs_f64());
        if s.cfg.keep_frames {
            frames.push(img);
        }
    }
    InsituRank::Output { frames, done_at }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> InsituConfig {
        InsituConfig {
            cells: 16,
            frames: 6,
            frequency: 0.3,
            renderers: 2,
            width: 64,
            height: 64,
            ..Default::default()
        }
    }

    #[test]
    fn insitu_produces_frames_while_simulating() {
        let r = run_insitu(small_cfg()).expect("insitu");
        assert_eq!(r.frames.len(), 6);
        assert_eq!(r.norm_history.len(), 6);
        assert!(r.sim_seconds > 0.0);
        // the running max is monotone
        for w in r.norm_history.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // motion builds up: the late frames show something
        let busy = r.frames.iter().rev().take(2).any(|f| f.pixels().iter().any(|p| p[3] > 0.01));
        assert!(busy, "late in-situ frames should show the wavefield");
    }

    #[test]
    fn insitu_frame_times_monotone() {
        let r = run_insitu(small_cfg()).expect("insitu");
        for w in r.frame_done.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(r.mean_interframe_delay() > 0.0);
        assert!(r.total_seconds >= *r.frame_done.last().unwrap());
    }

    #[test]
    fn insitu_rejects_bad_config() {
        assert!(run_insitu(InsituConfig { cells: 20, ..small_cfg() }).is_err());
        assert!(run_insitu(InsituConfig { renderers: 0, ..small_cfg() }).is_err());
        assert!(run_insitu(InsituConfig { frames: 0, ..small_cfg() }).is_err());
    }

    #[test]
    fn insitu_overlaps_simulation_and_rendering() {
        // the pipeline total should be well below the serial sum of
        // simulation time and render time (they overlap)
        let r = run_insitu(InsituConfig { frames: 8, ..small_cfg() }).expect("insitu");
        let render_total: f64 = r.render_frames.iter().map(|f| f.render_s).sum::<f64>() / 2.0; // two renderers work concurrently
        let serial = r.sim_seconds + render_total;
        assert!(
            r.total_seconds < serial * 1.25 + 0.5,
            "in-situ total {:.3}s should not exceed serial {:.3}s by much",
            r.total_seconds,
            serial
        );
    }
}
