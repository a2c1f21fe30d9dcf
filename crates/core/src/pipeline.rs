//! The real threaded pipeline: input / rendering / output processors.
//!
//! This is Figure 2 of the paper, executed over [`quakeviz_rt`] thread
//! ranks: with `I` input processors, `R` rendering processors and one
//! output processor, world ranks are laid out `[inputs | renderers |
//! output]`. Every stage of every frame really happens — parallel reads
//! through the MPI-IO layer, preprocessing (magnitude, temporal
//! enhancement, LIC synthesis) on the input processors, block
//! distribution with per-step tags, brick resampling and ray casting on
//! the rendering processors, SLIC compositing across them, and final
//! assembly at the output processor.
//!
//! Because sends are buffered and each group runs its own loop, I/O and
//! preprocessing genuinely overlap rendering: with `io_delay_scale` set
//! (sleeping out the simulated disk time), the wall-clock behaviour of
//! the paper's Figures 8–9 can be reproduced *physically* at small scale.

use crate::cache::{BlockKey, CacheTier, FrameKey};
use crate::config::{IoStrategy, PipelineConfig, ReadStrategy};
use crate::control::{ControlPlan, Controller, EpochState, WindowMeasurement};
use crate::reader::{
    self, block_level_nodes, level_node_ids, member_node_range, FaultCtx, FetchPlan, ReadStats,
};
use quakeviz_composite::{slic, CompositeOptions, FrameInfo};
use quakeviz_lic::{colorize, compute_lic, extract_surface_field, white_noise, LicParams};
use quakeviz_mesh::{
    Aabb, HexMesh, NodeField, NodeId, OctreeBlock, Partition, Quadtree, WorkloadModel,
};
use quakeviz_parfs::ReadError;
use quakeviz_render::{
    front_to_back_order, Camera, Fragment, GatherPlans, LightingParams, RenderParams, RgbaImage,
    TemporalEnhance,
};
use quakeviz_rt::obs::{self, Obs, Phase, TraceData};
use quakeviz_rt::wire::{self, Codec, WireClassStats, WireLedger, WireSpec};
use quakeviz_rt::{
    wait_all, Comm, FaultEvent, FaultPlan, FaultSpec, MembershipEvent, RecoveryStats, SendHandle,
    TagClass, TrafficEdge, TrafficStats, World,
};
use quakeviz_seismic::Dataset;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TAG_DATA: u64 = 0x2000_0000_0000;
const TAG_LIC: u64 = 0x2100_0000_0000;
const TAG_VOL: u64 = 0x2200_0000_0000;
/// Per-frame degraded-block report, render root → output.
const TAG_DEG: u64 = 0x2300_0000_0000;
/// Per-step liveness heartbeats inside a 2DIP input group.
const TAG_HB: u64 = 0x2400_0000_0000;
/// Per-step liveness heartbeats among the rendering processors (active
/// only when a render-rank failure is scripted).
const TAG_HBR: u64 = 0x2500_0000_0000;
/// Checkpoint acknowledgements, render ranks → the frame assembler.
const TAG_CKPT: u64 = 0x2600_0000_0000;
/// Output-processor liveness heartbeats to its render-root supervisor
/// (active only when an output-rank failure is scripted).
const TAG_HBO: u64 = 0x2700_0000_0000;
/// Elastic control-plane plan proposals, controller → participants.
const TAG_CTL: u64 = 0x2800_0000_0000;
/// Plan acks (participants → controller) and the commit broadcast back
/// (controller → participants); src disambiguates the two directions.
const TAG_CTLA: u64 = 0x2900_0000_0000;
/// Rejoin handshake: a recovered (or spare) rank announces itself at its
/// scripted join step. Non-elastic render/input joiners announce to
/// their peers (who block on it before folding the rank back in);
/// elastic joiners announce to the controller, which replies on the same
/// tag with the plans committed while they were out.
const TAG_JOIN: u64 = 0x2A00_0000_0000;

/// Map the pipeline's wire tags to traffic-matrix classes (the runtime
/// classifies its own collective traffic before consulting this).
fn classify_tag(tag: u64) -> TagClass {
    match tag >> 40 {
        0x20 => TagClass::BlockData,
        0x21 => TagClass::LicImage,
        0x22 => TagClass::VolumeImage,
        0x23..=0x2a => TagClass::Recovery,
        _ => {
            if (0xc0de_0000..=0xc0de_ffff).contains(&tag) {
                TagClass::Composite
            } else if tag == quakeviz_parfs::mpiio::PIECES_TAG {
                TagClass::IoPieces
            } else {
                TagClass::Other
            }
        }
    }
}

/// Block data as decoded on the receive side: raw `f32` values or 8-bit
/// quantized (paper §4 lists quantization among the input-processor
/// preprocessing tasks), or an explicit *missing* marker: the sender
/// exhausted its read retries and reports the slice length so the
/// receiver can account for it without waiting out its delivery deadline.
#[derive(Debug, Clone)]
enum Payload {
    F32(Vec<f32>),
    U8(Vec<u8>),
    Missing(u32),
}

impl Payload {
    fn from_values(values: Vec<f32>, quantize: bool, scale: f32) -> Payload {
        if quantize {
            let s = if scale > 0.0 { 255.0 / scale } else { 0.0 };
            Payload::U8(values.iter().map(|&v| (v * s).clamp(0.0, 255.0) as u8).collect())
        } else {
            Payload::F32(values)
        }
    }

    /// Payload kind tag on the wire: 0 = f32, 1 = quantized u8, 2 = missing.
    fn kind(&self) -> u8 {
        match self {
            Payload::F32(_) => 0,
            Payload::U8(_) => 1,
            Payload::Missing(_) => 2,
        }
    }

    /// Element width in bytes, the codec shuffle stride.
    fn stride(&self) -> usize {
        match self {
            Payload::F32(_) => 4,
            Payload::U8(_) | Payload::Missing(_) => 1,
        }
    }

    /// The raw (pre-codec) byte serialization: f32 values little-endian,
    /// u8 verbatim, missing markers as the LE slice length.
    fn raw_bytes(&self) -> Vec<u8> {
        match self {
            Payload::F32(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            Payload::U8(v) => v.clone(),
            Payload::Missing(n) => n.to_le_bytes().to_vec(),
        }
    }

    /// Reconstruct from decoded raw bytes; `None` on a kind/length the
    /// wire format cannot have produced.
    fn from_raw(kind: u8, raw: &[u8]) -> Option<Payload> {
        match kind {
            0 if raw.len().is_multiple_of(4) => Some(Payload::F32(
                raw.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect(),
            )),
            1 => Some(Payload::U8(raw.to_vec())),
            2 if raw.len() == 4 => {
                Some(Payload::Missing(u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]])))
            }
            _ => None,
        }
    }

    fn len(&self) -> usize {
        match self {
            Payload::F32(v) => v.len(),
            Payload::U8(v) => v.len(),
            Payload::Missing(n) => *n as usize,
        }
    }

    /// Value at index `k`, dequantized with `scale` when needed.
    #[inline]
    fn get(&self, k: usize, scale: f32) -> f32 {
        match self {
            Payload::F32(v) => v[k],
            Payload::U8(v) => v[k] as f32 / 255.0 * scale,
            Payload::Missing(_) => unreachable!("missing payloads are never ingested"),
        }
    }
}

/// FNV-1a 64 over a piece's wire representation. Any single-byte
/// difference changes the digest: each byte applies `h ← (h ⊕ b) · p`,
/// which is injective in `h` (odd multiplier mod 2⁶⁴), so once two
/// streams diverge they can never re-converge.
pub fn wire_checksum(bid: u32, offset: u32, kind: u8, bytes: impl Iterator<Item = u8>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |b: u8| h = (h ^ b as u64).wrapping_mul(PRIME);
    for b in bid.to_le_bytes().into_iter().chain(offset.to_le_bytes()) {
        eat(b);
    }
    eat(kind);
    for b in bytes {
        eat(b);
    }
    h
}

/// `base_step` sentinel for a self-contained keyframe piece.
const KEYFRAME: u32 = u32::MAX;

/// The checksum of a piece's *encoded* wire representation — header fields
/// plus the codec body exactly as transmitted, so verification happens
/// before any decode work touches the bytes.
fn piece_checksum(p: &WirePiece) -> u64 {
    let header =
        [p.coded as u8].into_iter().chain(p.base_step.to_le_bytes()).chain(p.raw_len.to_le_bytes());
    wire_checksum(p.bid, p.offset, p.kind, header.chain(p.body.iter().copied()))
}

/// One piece of a per-renderer data message: the values of `[offset,
/// offset + len)` of block `bid`'s id list, codec-encoded (and optionally
/// XOR-delta'd against the sender's previous step) and guarded by a wire
/// checksum over the encoded bytes, computed at pack time and verified on
/// receive *before* decode.
#[derive(Debug, Clone)]
struct WirePiece {
    bid: u32,
    offset: u32,
    /// Payload kind: 0 = f32 values, 1 = quantized u8, 2 = missing marker.
    kind: u8,
    /// `body` is codec-compressed (vs stored raw verbatim after the
    /// no-expansion fallback).
    coded: bool,
    /// The sender-owned step whose raw payload `body` XORs against, or
    /// [`KEYFRAME`] for a self-contained piece.
    base_step: u32,
    /// Raw (decoded, un-delta'd) byte length.
    raw_len: u32,
    checksum: u64,
    body: Vec<u8>,
}

impl WirePiece {
    /// Declared node-value count, derived from envelope fields so a piece can
    /// be *accounted for* in degraded-frame bookkeeping even when its body is
    /// corrupt or its delta base is gone. (A missing marker stores its count
    /// in the 4-byte body; a corrupted one misreports, which only shifts the
    /// step toward its delivery deadline — same as a dropped message.)
    fn value_len(&self) -> usize {
        match self.kind {
            0 => self.raw_len as usize / 4,
            2 => Payload::from_raw(2, &self.body).map_or(0, |p| p.len()),
            _ => self.raw_len as usize,
        }
    }
}

/// One per-renderer data message: a batch of block pieces.
type BlockBatch = Vec<WirePiece>;

/// Temporal-delta state, one side each: senders key by `(dst, bid,
/// offset)` (a piece re-routed by failover misses and forces a keyframe),
/// receivers by `(src, bid, offset)`. The value is the step and raw bytes
/// of the last successfully packed/decoded payload — missing markers,
/// rejected pieces, and sends the lossy transport reports dropped update
/// neither side, which is what keeps faulted delta runs bit-identical to
/// raw ones.
type DeltaMap = HashMap<(usize, u32, u32), (u32, Vec<u8>)>;

/// Pack one payload into its wire piece: XOR-delta against the sender's
/// previous step when allowed (delta mode on, not a keyframe boundary,
/// same-length base available for this destination), then codec-encode,
/// then checksum the encoded bytes.
fn pack_piece(
    spec: &WireSpec,
    codec: Codec,
    key: (usize, u32, u32), // (dst rank, block id, offset) — the delta-state lane
    payload: &Payload,
    t: u32,
    state: &mut DeltaMap,
    advance: bool,
) -> WirePiece {
    let (_, bid, offset) = key;
    let kind = payload.kind();
    let raw = payload.raw_bytes();
    let raw_len = raw.len() as u32;
    let (base_step, input) = if kind == 2 || !spec.delta {
        (KEYFRAME, raw)
    } else {
        let base = match state.get(&key) {
            Some((ps, prev))
                if !t.is_multiple_of(spec.keyframe_every) && prev.len() == raw.len() =>
            {
                let mut d = raw.clone();
                wire::xor_in_place(&mut d, prev);
                Some((*ps, d))
            }
            _ => None,
        };
        // a send the transport already reported lost (`advance = false`)
        // must not advance the sender's idea of what the receiver holds
        if advance {
            state.insert(key, (t, raw.clone()));
        }
        match base {
            Some((ps, d)) => (ps, d),
            None => (KEYFRAME, raw),
        }
    };
    // missing markers are 4 bytes of fault bookkeeping: never codec-encoded,
    // so the receiver classifies them from the envelope alone and the
    // degradation flags stay codec-invariant
    let encoded = if kind == 2 {
        wire::Encoded { coded: false, body: input }
    } else {
        codec.encode(input, payload.stride())
    };
    let mut piece = WirePiece {
        bid,
        offset,
        kind,
        coded: encoded.coded,
        base_step,
        raw_len,
        checksum: 0,
        body: encoded.body,
    };
    piece.checksum = piece_checksum(&piece);
    piece
}

/// Outcome of verifying + decoding one received piece.
enum Ingest {
    Data(Payload),
    Missing(u32),
    /// Undecodable: malformed body, or a delta whose base this receiver
    /// does not hold (dropped/rejected earlier, or state lost to
    /// failover before the sender's next keyframe).
    Reject(&'static str),
}

/// Decode a checksum-verified piece: codec-decode the body, resolve the
/// XOR delta against this receiver's stored base, and advance the
/// receiver's delta state. Missing markers and rejects leave the state
/// untouched, mirroring the pack side.
fn decode_piece(
    codec: Codec,
    piece: &WirePiece,
    src: usize,
    t: u32,
    state: &mut DeltaMap,
) -> Ingest {
    if piece.kind == 2 {
        return match Payload::from_raw(2, &piece.body) {
            Some(Payload::Missing(n)) if !piece.coded && piece.base_step == KEYFRAME => {
                Ingest::Missing(n)
            }
            _ => Ingest::Reject("malformed missing marker"),
        };
    }
    let stride = if piece.kind == 0 { 4 } else { 1 };
    let mut raw = match codec.decode(piece.coded, &piece.body, piece.raw_len as usize, stride) {
        Ok(r) => r,
        Err(_) => return Ingest::Reject("undecodable body"),
    };
    if piece.base_step != KEYFRAME {
        match state.get(&(src, piece.bid, piece.offset)) {
            Some((ps, prev)) if *ps == piece.base_step && prev.len() == raw.len() => {
                wire::xor_in_place(&mut raw, prev)
            }
            _ => return Ingest::Reject("delta base unavailable"),
        }
    }
    let Some(payload) = Payload::from_raw(piece.kind, &raw) else {
        return Ingest::Reject("raw payload inconsistent with kind");
    };
    state.insert((src, piece.bid, piece.offset), (t, raw));
    Ingest::Data(payload)
}

/// Verify and decode one piece on the clean (no-fault-plan) path. No
/// valid sender produces a failing piece here, but the receiver must not
/// enforce that with a panic: a corrupt checksum, a stray missing
/// marker, or an undecodable body comes back as `Err` for the caller to
/// degrade — the block renders coarser and the run completes.
fn ingest_clean(
    codec: Codec,
    piece: &WirePiece,
    src: usize,
    t: u32,
    state: &mut DeltaMap,
) -> Result<Payload, &'static str> {
    if piece_checksum(piece) != piece.checksum {
        return Err("checksum mismatch");
    }
    match decode_piece(codec, piece, src, t, state) {
        Ingest::Data(p) => Ok(p),
        Ingest::Missing(_) => Err("missing marker without a fault plan"),
        Ingest::Reject(why) => Err(why),
    }
}

/// An image payload on the wire: `Plain` keeps the zero-copy path for
/// [`Codec::Raw`]; `Coded` carries codec-compressed little-endian pixel
/// bytes (stride 16 = one RGBA pixel). Images are never delta'd — each
/// frame's LIC/volume image stands alone, so failover and resume need no
/// image-side keyframe rules.
#[derive(Debug, Clone)]
enum WireImage {
    Plain(RgbaImage),
    Coded { width: u32, height: u32, coded: bool, body: Vec<u8> },
}

/// Encode an outgoing image, recording raw/wire bytes and encode time to
/// the ledger. Returns the message and its wire size.
fn encode_image(s: &Shared, class: TagClass, t: u32, img: RgbaImage) -> (WireImage, u64) {
    let raw_len = img.pixels().len() as u64 * 16;
    let codec = s.wire.codec_for(class);
    if codec == Codec::Raw {
        s.ledger.record_send(class, raw_len, raw_len, 0);
        return (WireImage::Plain(img), raw_len);
    }
    let t0 = Instant::now();
    let mut span = obs::auto_span(Phase::Encode, t);
    let mut raw = Vec::with_capacity(raw_len as usize);
    for px in img.pixels() {
        for c in px {
            raw.extend_from_slice(&c.to_le_bytes());
        }
    }
    let e = codec.encode(raw, 16);
    let bytes = e.body.len() as u64;
    span.add_bytes(bytes);
    s.ledger.record_send(class, raw_len, bytes, t0.elapsed().as_nanos() as u64);
    let msg =
        WireImage::Coded { width: img.width(), height: img.height(), coded: e.coded, body: e.body };
    (msg, bytes)
}

/// Decode coded image bytes back to pixels. Split out of
/// [`decode_image`] so the corrupt-envelope path is unit-testable
/// without a full pipeline.
fn decode_image_bytes(
    codec: Codec,
    width: u32,
    height: u32,
    coded: bool,
    body: &[u8],
) -> Result<RgbaImage, &'static str> {
    let raw_len = width as usize * height as usize * 16;
    let raw = codec.decode(coded, body, raw_len, 16).map_err(|_| "undecodable image body")?;
    let mut img = RgbaImage::new(width, height);
    for (px, c) in img.pixels_mut().iter_mut().zip(raw.chunks_exact(16)) {
        for (k, ch) in px.iter_mut().enumerate() {
            *ch = f32::from_le_bytes([c[4 * k], c[4 * k + 1], c[4 * k + 2], c[4 * k + 3]]);
        }
    }
    Ok(img)
}

/// Decode a received image bit-identically. The fault plan never corrupts
/// image payloads (only block batches), but a receiver must not trust
/// that: an undecodable envelope is returned as `Err`, and the caller
/// degrades the frame ([`Degradation::CorruptImage`]) instead of
/// aborting the run.
fn decode_image(
    s: &Shared,
    class: TagClass,
    t: u32,
    msg: WireImage,
) -> Result<RgbaImage, &'static str> {
    match msg {
        WireImage::Plain(img) => Ok(img),
        WireImage::Coded { width, height, coded, body } => {
            let t0 = Instant::now();
            let _span = obs::auto_span(Phase::Decode, t);
            let img = decode_image_bytes(s.wire.codec_for(class), width, height, coded, &body)?;
            s.ledger.record_decode(class, t0.elapsed().as_nanos() as u64);
            Ok(img)
        }
    }
}

/// Count a corrupt image envelope: it joins the fault plan's wire-reject
/// tally when a plan is active, and still lands in the metrics snapshot
/// when none is — the degradation is never silent.
fn note_corrupt_image(session: &Arc<Obs>, s: &Shared, why: &'static str, t: usize) {
    eprintln!("quakeviz: step {t}: corrupt image envelope ({why}); frame degraded");
    match &s.faults {
        Some(plan) => plan.note_wire_reject(),
        None => session.metrics().counter("recovery.wire_rejects").inc(),
    }
}

/// Per-step timing recorded by an input processor.
#[derive(Debug, Clone, Copy, Default)]
pub struct InputStepTiming {
    pub read: ReadStats,
    pub preprocess_s: f64,
    pub lic_s: f64,
    pub send_s: f64,
    /// Backpressure wait on the step's in-flight sends (prefetch runtime
    /// only; the synchronous path never waits).
    pub send_wait_s: f64,
}

/// Per-frame timing recorded by a rendering processor.
#[derive(Debug, Clone, Copy, Default)]
pub struct RenderFrameTiming {
    pub receive_s: f64,
    pub render_s: f64,
    pub composite_s: f64,
}

/// Why a delivered frame is flagged degraded. Ordered so per-frame lists
/// sort deterministically (block entries first, frame-wide flags last).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Degradation {
    /// Block data arrived incomplete (deadline or checksum rejection):
    /// the block was rendered one octree level coarser over its
    /// last-known-good values.
    CoarserLevel { block: u32 },
    /// The input side exhausted its read retries and reported the
    /// block's data *missing* outright.
    MissingBlock { block: u32 },
    /// The LIC surface overlay could not be read; the frame shipped
    /// without it.
    MissingLic,
    /// An image payload (volume frame or LIC overlay) arrived with an
    /// undecodable wire body: the frame shipped blank or without the
    /// overlay instead of aborting the run.
    CorruptImage,
    /// The frame was assembled by the supervising render rank after the
    /// output processor died (output failover epoch).
    MigratedEpoch,
}

impl Degradation {
    /// The affected block id, for the block-scoped variants.
    pub fn block(&self) -> Option<u32> {
        match *self {
            Degradation::CoarserLevel { block } | Degradation::MissingBlock { block } => {
                Some(block)
            }
            Degradation::MissingLic | Degradation::CorruptImage | Degradation::MigratedEpoch => {
                None
            }
        }
    }
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Degradation::CoarserLevel { block } => write!(f, "coarser:{block}"),
            Degradation::MissingBlock { block } => write!(f, "missing:{block}"),
            Degradation::MissingLic => write!(f, "no-lic"),
            Degradation::CorruptImage => write!(f, "corrupt-image"),
            Degradation::MigratedEpoch => write!(f, "migrated"),
        }
    }
}

/// Frames the supervising render rank assembled after the output
/// processor died, spliced into the report after the output's own.
struct OutputTakeover {
    frames: Vec<RgbaImage>,
    done_at: Vec<f64>,
    degraded: Vec<Vec<Degradation>>,
    checkpoints: u64,
}

/// What one rank hands back at the end of the run.
enum RankResult {
    Input(Vec<InputStepTiming>),
    Render {
        timings: Vec<RenderFrameTiming>,
        takeover: Option<OutputTakeover>,
    },
    Output {
        frames: Vec<RgbaImage>,
        done_at: Vec<f64>,
        degraded: Vec<Vec<Degradation>>,
        checkpoints: u64,
        /// Elastic plans committed by the hosted controller, in epoch
        /// order (empty without the control plane).
        plans: Vec<ControlPlan>,
    },
}

/// The assembled outcome of a pipeline run.
pub struct PipelineReport {
    /// Rendered frames (empty unless `keep_frames`).
    pub frames: Vec<RgbaImage>,
    /// Completion time of each frame, seconds since the synchronized start.
    pub frame_done: Vec<f64>,
    /// Per-step input timings, pooled across input processors.
    pub input_steps: Vec<InputStepTiming>,
    /// Per-frame render timings, pooled across rendering processors.
    pub render_frames: Vec<RenderFrameTiming>,
    /// Echo of the configuration's processor counts.
    pub renderers: usize,
    pub input_procs: usize,
    /// Whether the overlapped prefetch runtime was used
    /// ([`PipelineConfig::prefetch`]).
    pub prefetch: bool,
    /// The octree level actually rendered at.
    pub level: u8,
    /// Total messages exchanged between ranks during the run.
    pub messages: u64,
    /// Total payload bytes exchanged between ranks during the run.
    pub bytes_sent: u64,
    /// Per-rendering-rank total *pure render* seconds (no compositing —
    /// compositing is collective and absorbs the wait for the slowest
    /// rank), in render-rank order. The load-balance ablation reads this.
    pub render_rank_seconds: Vec<f64>,
    /// The per-`(src, dst, tag-class)` traffic matrix of the run (exact:
    /// every send site charges its real wire size).
    pub traffic: Vec<TrafficEdge>,
    /// Every span recorded during the run — one track per rank — plus the
    /// metrics snapshot. Stage spans are always present; runtime auto
    /// spans only when tracing was enabled ([`PipelineConfig::trace`] or
    /// `QUAKEVIZ_TRACE`).
    pub trace: TraceData,
    /// Per-frame degradation flags (sorted, deduplicated): which blocks
    /// rendered coarser or went missing, whether the LIC overlay was
    /// lost, and whether the frame was assembled by the output-failover
    /// supervisor. A frame's list is empty when it was assembled from
    /// complete, verified data. One entry per executed step.
    pub degraded: Vec<Vec<Degradation>>,
    /// The fault-injection log of the run, in injection order per kind
    /// (empty without a fault plan).
    pub fault_events: Vec<FaultEvent>,
    /// Recovery counters (retries, backoff, checksum failures, degraded
    /// frames, failovers); `None` without a fault plan.
    pub recovery: Option<RecoveryStats>,
    /// Checkpoints committed (manifest written) during the run.
    pub checkpoints: u64,
    /// The step the run resumed from, when
    /// [`PipelineConfig::resume`] restored a checkpoint.
    pub resumed_from: Option<usize>,
    /// Per-class raw-vs-wire accounting: raw payload bytes before
    /// codec+delta, wire bytes actually sent, encode/decode time, and the
    /// keyframe/delta piece split. Only classes with payload traffic
    /// appear; `wire_bytes ≤ raw_bytes` holds per class by the codecs'
    /// no-expansion guarantee.
    pub wire: Vec<WireClassStats>,
    /// Human description of the run's resolved wire configuration
    /// (`"raw"` when no codec or delta is configured).
    pub wire_spec: String,
    /// Elastic control-plane plans committed during the run, in epoch
    /// order — including plans replayed from a resumed checkpoint, so a
    /// resumed run's history prefix equals the manifest it loaded. Empty
    /// unless [`PipelineConfig::control`] is set.
    pub control_plans: Vec<ControlPlan>,
}

impl PipelineReport {
    /// Interframe delays (first frame counts from the start barrier).
    pub fn interframe(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.frame_done.len());
        let mut prev = 0.0;
        for &t in &self.frame_done {
            out.push(t - prev);
            prev = t;
        }
        out
    }

    /// Mean interframe delay.
    pub fn mean_interframe_delay(&self) -> f64 {
        let d = self.interframe();
        d.iter().sum::<f64>() / d.len().max(1) as f64
    }

    /// Total wall-clock of the frame loop.
    pub fn total_seconds(&self) -> f64 {
        self.frame_done.last().copied().unwrap_or(0.0)
    }

    /// Mean per-step read wall-clock on one input processor (`Tf`-like,
    /// including any injected simulated delay).
    pub fn mean_read_seconds(&self) -> f64 {
        let n = self.input_steps.len().max(1);
        self.input_steps.iter().map(|s| s.read.real_seconds).sum::<f64>() / n as f64
    }

    /// Mean per-step preprocessing wall-clock (`Tp`-like).
    pub fn mean_preprocess_seconds(&self) -> f64 {
        let n = self.input_steps.len().max(1);
        self.input_steps.iter().map(|s| s.preprocess_s + s.lic_s).sum::<f64>() / n as f64
    }

    /// Mean per-frame render+composite wall-clock (`Tr`-like).
    pub fn mean_render_seconds(&self) -> f64 {
        let n = self.render_frames.len().max(1);
        self.render_frames.iter().map(|f| f.render_s + f.composite_s).sum::<f64>() / n as f64
    }

    /// Pooled simulated disk seconds per step (what the file-system cost
    /// model charged, before any delay injection).
    pub fn mean_sim_read_seconds(&self) -> f64 {
        let n = self.input_steps.len().max(1);
        self.input_steps.iter().map(|s| s.read.sim_seconds).sum::<f64>() / n as f64
    }

    /// Mean per-step backpressure wait on the input processors (exposed,
    /// un-hidden send time of the prefetch runtime; 0 when synchronous).
    pub fn mean_send_wait_seconds(&self) -> f64 {
        let n = self.input_steps.len().max(1);
        self.input_steps.iter().map(|s| s.send_wait_s).sum::<f64>() / n as f64
    }

    /// Number of frames assembled from incomplete data (flagged degraded).
    pub fn degraded_frame_count(&self) -> usize {
        self.degraded.iter().filter(|d| !d.is_empty()).count()
    }
}

/// Everything precomputed once and shared read-only by all ranks — the
/// paper's one-time octree/partition setup.
struct Shared {
    mesh: Arc<HexMesh>,
    disk: Arc<quakeviz_parfs::Disk>,
    cfg: PipelineConfig,
    steps: usize,
    level: u8,
    vmag_max: f32,
    blocks: Vec<OctreeBlock>,
    partition: Partition,
    camera: Camera,
    /// Block ids front-to-back for the camera.
    order_ids: Vec<u32>,
    /// Node ids each block needs at the fetch level, indexed by block id.
    ids_per_block: Vec<Arc<Vec<NodeId>>>,
    /// Node ids of the whole mesh at the fetch level (adaptive fetch).
    level_ids: Option<Arc<Vec<NodeId>>>,
    /// Surface structures for LIC.
    surface: Option<(Arc<Quadtree>, Arc<Vec<NodeId>>, Arc<Vec<f32>>)>,
    n_inputs: usize,
    n_renderers: usize,
    opacity_unit: f64,
    /// The run's deterministic fault plan, if injection is active.
    faults: Option<Arc<FaultPlan>>,
    /// First step to execute (0 unless resuming from a checkpoint).
    start_step: usize,
    /// Checkpointed last-known-good fields by render-group rank, loaded
    /// up-front on resume (empty otherwise).
    resume_fields: Vec<Option<Vec<f32>>>,
    /// Precomputed render-rank failover epoch when the fault plan scripts
    /// the death of a rendering processor.
    render_failover: Option<RenderFailover>,
    /// The step at which the fault plan scripts the output processor's
    /// death, making its render-root supervisor assume frame assembly.
    output_failover_step: Option<usize>,
    /// Fingerprint of every config field that shapes the frame stream;
    /// stamped into checkpoints and verified on resume.
    fingerprint: u64,
    /// Resolved wire configuration: per-class codecs + temporal deltas.
    wire: WireSpec,
    /// Raw-vs-wire byte and encode/decode-time accounting, shared by
    /// every rank thread.
    ledger: Arc<WireLedger>,
    /// Epoch-0 elastic state (the static partition expressed as an
    /// assignment), present iff the control plane is on.
    elastic: Option<EpochState>,
    /// Committed plans restored from the resumed checkpoint; every rank
    /// replays them in order before running live, so a resumed run's
    /// routing and communicator sequence match the uninterrupted run's.
    resume_plans: Vec<ControlPlan>,
    /// Per-block weights the controller balances over — the same workload
    /// model as the static partition (empty without the control plane).
    block_weights: Vec<u64>,
    /// The run's two-level cache tier (`None` = caching off). Shared with
    /// other runs when the caller attached one via
    /// [`PipelineConfig::cache_tier`]; stamped with the config
    /// fingerprint, so a mismatched reuse flushes before any serve.
    cache: Option<Arc<CacheTier>>,
    /// Camera/transfer-function content hashes of the frame-cache key,
    /// fixed per run.
    cam_hash: u64,
    tf_hash: u64,
    /// Every frame of the run is already in the frame cache: the run is a
    /// cached *replay* — the output stage serves the stream directly and
    /// the input/render groups have nothing to do. All-or-nothing by
    /// construction, so degraded rendering's last-known-good state can
    /// never diverge between cold and warm runs.
    warm_all: bool,
}

/// The deterministic post-failover epoch after a scripted render-rank
/// death: every rank — survivors via heartbeat detection, inputs and the
/// output processor by mirroring the plan — converges on the same
/// surviving rank set and the same recomputed block partition.
struct RenderFailover {
    /// The world rank whose death the plan scripts. The *window* of that
    /// death — which steps it covers, and whether it recurs after a
    /// rejoin — is the fault plan's [`FaultPlan::rank_failed`] query, so
    /// the failover state itself is step-free and reusable across every
    /// window of the run's single scripted target.
    rank: usize,
    /// Surviving render-group indices, ascending.
    live: Vec<usize>,
    /// The block partition recomputed over `live.len()` survivors with
    /// the same balancer as the initial setup, indexed by position in
    /// `live`.
    partition: Partition,
}

impl Shared {
    /// The fault context for reads of step `t` (`None` without a plan).
    fn fault_ctx(&self, t: usize) -> Option<FaultCtx<'_>> {
        self.faults.as_deref().map(|plan| FaultCtx { plan, retry: self.cfg.retry, step: t as u32 })
    }

    /// Frame-cache key of step `t` under this run's camera, transfer
    /// function and octree level.
    fn frame_key(&self, t: usize) -> FrameKey {
        FrameKey {
            step: t as u32,
            level: self.level,
            camera_hash: self.cam_hash,
            tf_hash: self.tf_hash,
        }
    }

    fn deadline(&self) -> Duration {
        Duration::from_millis(self.cfg.deadline_ms)
    }

    /// The liveness-detection deadline: how long heartbeat waits (render
    /// peers, output supervision) block before declaring a silent rank
    /// dead. Defaults to the delivery deadline.
    fn hb_deadline(&self) -> Duration {
        Duration::from_millis(self.cfg.heartbeat_timeout_ms.unwrap_or(self.cfg.deadline_ms))
    }

    /// The input-group detection deadline. Survivors start waiting on a
    /// silent peer right after sending step t − 1; a renderer starts its
    /// delivery deadline for step t only after it received and rendered
    /// t − 1, so no earlier. Detection plus the re-sliced read must fit
    /// inside that deadline however fast the renderer is, so by default
    /// input groups detect within half of it.
    fn input_hb_deadline(&self) -> Duration {
        self.cfg.heartbeat_timeout_ms.map_or(self.deadline() / 2, Duration::from_millis)
    }

    /// The render failover epoch in force at step `t`, if any. Windowed:
    /// a scripted `recover_rank` ends the epoch, reverting every derived
    /// quantity (routing, frame source, checkpoint collection) to the
    /// full-membership partition from the join step on.
    fn render_epoch(&self, t: usize) -> Option<&RenderFailover> {
        self.render_failover
            .as_ref()
            .filter(|f| self.faults.as_ref().is_some_and(|p| p.rank_failed(f.rank, t)))
    }

    /// Under the elastic control plane, the render-group index scripted
    /// dead at step `t` (windowed). Routing overlays its blocks onto the
    /// survivors of the committed assignment while the window is open.
    fn elastic_dead_renderer(&self, t: usize) -> Option<usize> {
        self.cfg.control?;
        let p = self.faults.as_ref()?;
        let rank = p.membership_timeline().first()?.rank();
        (rank >= self.n_inputs && rank < self.n_inputs + self.n_renderers && p.rank_failed(rank, t))
            .then(|| rank - self.n_inputs)
    }

    /// The world rank scripted to rejoin exactly at step `t`, if any —
    /// the deterministic mirror every peer uses to fold the joiner back
    /// in at the same boundary.
    fn rejoin_at(&self, t: usize) -> Option<usize> {
        self.faults.as_ref().and_then(|p| p.rank_rejoins_at(t))
    }

    /// The block partition and surviving render-group indices routing
    /// block data at step `t` (partition index = position in the list).
    fn routing(&self, t: usize) -> (&Partition, Vec<usize>) {
        match self.render_epoch(t) {
            Some(f) => (&f.partition, f.live.clone()),
            None => (&self.partition, (0..self.n_renderers).collect()),
        }
    }

    /// World rank delivering the composited frame of step `t` (the
    /// lowest surviving render rank — SLIC's collector).
    fn frame_source(&self, t: usize) -> usize {
        match self.render_epoch(t) {
            Some(f) => self.n_inputs + f.live[0],
            None => self.n_inputs,
        }
    }

    /// Whether the output processor is alive at step `t` under the plan.
    fn output_alive(&self, t: usize) -> bool {
        self.output_failover_step.is_none_or(|s| t < s)
    }

    /// World rank assembling the frame of step `t`: the output processor,
    /// or its render-root supervisor once the plan scripts it dead.
    fn output_dst(&self, t: usize) -> usize {
        if self.output_alive(t) {
            self.n_inputs + self.n_renderers
        } else {
            self.n_inputs
        }
    }

    /// Whether a checkpoint is due after step `t`.
    fn checkpoint_due(&self, t: usize) -> bool {
        self.cfg.checkpoint_every.is_some_and(|k| (t + 1).is_multiple_of(k))
    }

    /// Whether the fault plan has killed the elastic controller by step
    /// `t`. The kill step lives in the shared plan, so every rank mirrors
    /// it — ticks at or after it happen *nowhere*, which is what keeps
    /// the protocol deadlock-free without timeout detection.
    fn controller_dead(&self, t: usize) -> bool {
        self.faults.as_ref().is_some_and(|p| p.controller_failed(t))
    }

    /// Whether a control tick runs before step `t`: the configured
    /// schedule, skipping the resume boundary (no measurement window
    /// within this run yet) and everything at or after a scripted
    /// controller kill. Every rank derives the same answer from shared
    /// state — the tick is a collective.
    fn control_tick(&self, t: usize) -> bool {
        self.cfg.control.as_ref().is_some_and(|c| c.is_tick(t))
            && t > self.start_step
            && !self.controller_dead(t)
    }
}

/// Why a scripted `fail_rank=R@S` cannot run under this configuration —
/// surfaced at plan-build time instead of silently never firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultConfigError {
    /// The rank does not exist in the world `[inputs | renderers |
    /// output]` this configuration spawns.
    RankOutOfRange { rank: usize, world: usize },
    /// The failure step is past the last executed step: the scripted
    /// death would never fire.
    StepOutOfRange { step: usize, steps: usize },
    /// An input-rank death is only survivable inside a 2DIP group of at
    /// least two (independent contiguous reads, synchronous runtime).
    InputNotSurvivable { rank: usize, step: usize },
    /// A render-rank death is only survivable with at least two
    /// rendering processors to re-partition the dead rank's blocks over.
    RenderNotSurvivable { rank: usize, step: usize },
    /// `recover_rank` on the output processor: its supervisor takeover is
    /// permanent (frame routing cannot hand back mid-run).
    OutputRankRejoin { rank: usize, step: usize },
    /// A `recover_rank` with no preceding kill is a spare-pool join and
    /// needs the elastic control plane plus a configured spare pool.
    SpareJoinNeedsSparePool { rank: usize, step: usize },
    /// A spare join must target the first parked rank — the admit plan
    /// grows the active prefix by one.
    SpareJoinWrongRank { rank: usize, expected: usize },
    /// A spare join must be the only membership event of the run; it
    /// cannot be mixed with scripted kill windows.
    SpareJoinNotAlone,
    /// Under the elastic control plane a scripted kill must be a render
    /// rank: the controller excludes it from ticks and re-admits it.
    ElasticNonRenderTarget { rank: usize, step: usize },
    /// The elastic two-phase commit needs every participant back: a kill
    /// without a matching recovery would exclude the rank forever.
    ElasticPermanentKill { rank: usize, step: usize },
    /// Elastic kill windows are only supported under the rebalance-only
    /// controller: resize/reshape change the communicator sequence while
    /// the dormant rank cannot mirror it.
    ElasticKillNeedsRebalanceOnly { rank: usize, step: usize },
    /// Under the elastic control plane every `recover_rank` step must be
    /// a controller tick: the joiner's handshake and the re-admission
    /// commit land at the same boundary.
    ElasticRecoverOffTick { step: usize, every: usize },
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultConfigError::RankOutOfRange { rank, world } => write!(
                f,
                "fail_rank rank {rank} is outside the world: this configuration \
                 spawns only {world} ranks (inputs | renderers | output)"
            ),
            FaultConfigError::StepOutOfRange { step, steps } => write!(
                f,
                "fail_rank step {step} is beyond the run's {steps} steps — \
                 the scripted failure would never fire"
            ),
            FaultConfigError::InputNotSurvivable { rank, step } => write!(
                f,
                "fail_rank={rank}@{step} needs a 2DIP input group of at least 2 \
                 (independent contiguous reads, synchronous runtime) so the dead \
                 rank's slice can fail over to a survivor"
            ),
            FaultConfigError::RenderNotSurvivable { rank, step } => write!(
                f,
                "fail_rank={rank}@{step} kills a rendering processor: failover \
                 needs at least 2 renderers so survivors can re-partition its \
                 blocks and recompute the SLIC schedule"
            ),
            FaultConfigError::OutputRankRejoin { rank, step } => write!(
                f,
                "recover_rank={rank}@{step} targets the output processor: its \
                 render-root supervisor takeover is permanent, output-rank \
                 rejoin is not supported"
            ),
            FaultConfigError::SpareJoinNeedsSparePool { rank, step } => write!(
                f,
                "recover_rank={rank}@{step} with no preceding fail_rank is a \
                 spare-pool join: it needs the elastic control plane \
                 (PipelineBuilder::elastic) and spare_renderers >= 1"
            ),
            FaultConfigError::SpareJoinWrongRank { rank, expected } => write!(
                f,
                "spare-pool join rank {rank} is not the first parked rank: the \
                 admit plan grows the active prefix, so the joiner must be \
                 world rank {expected}"
            ),
            FaultConfigError::SpareJoinNotAlone => write!(
                f,
                "a spare-pool join must be the run's only membership event — \
                 it cannot be combined with scripted fail_rank windows"
            ),
            FaultConfigError::ElasticNonRenderTarget { rank, step } => write!(
                f,
                "fail_rank={rank}@{step}: under the elastic control plane only \
                 rendering processors can be scripted dead (the controller \
                 excludes them from ticks and re-admits them at the rejoin)"
            ),
            FaultConfigError::ElasticPermanentKill { rank, step } => write!(
                f,
                "the elastic control plane cannot run with a permanently \
                 scripted rank failure (fail_rank={rank}@{step}): the \
                 two-phase plan commit needs every participant back — add a \
                 recover_rank=R@S clause at a later tick step"
            ),
            FaultConfigError::ElasticKillNeedsRebalanceOnly { rank, step } => write!(
                f,
                "fail_rank={rank}@{step} under an elastic controller with \
                 resize/reshape enabled: kill windows are only supported with \
                 the rebalance-only controller (the dormant rank cannot \
                 mirror active-set regroups)"
            ),
            FaultConfigError::ElasticRecoverOffTick { step, every } => write!(
                f,
                "recover_rank step {step} is not a controller tick (every \
                 {every} steps): under the elastic control plane a rejoin must \
                 land on a tick so the re-admission plan commits at the same \
                 boundary"
            ),
        }
    }
}

/// Validate a scripted rank failure against the actual world shape.
fn validate_fail_rank(
    config: &PipelineConfig,
    n_inputs: usize,
    steps: usize,
    rank: usize,
    step: usize,
) -> Result<(), FaultConfigError> {
    let world = n_inputs + config.renderers + 1;
    if rank >= world {
        return Err(FaultConfigError::RankOutOfRange { rank, world });
    }
    if step >= steps {
        return Err(FaultConfigError::StepOutOfRange { step, steps });
    }
    if rank < n_inputs {
        let survivable = matches!(config.io, IoStrategy::TwoDip { per_group, .. } if per_group >= 2)
            && matches!(config.read, ReadStrategy::IndependentContiguous)
            && !config.prefetch;
        if !survivable {
            return Err(FaultConfigError::InputNotSurvivable { rank, step });
        }
    } else if rank < n_inputs + config.renderers && config.renderers < 2 {
        return Err(FaultConfigError::RenderNotSurvivable { rank, step });
    }
    // the output rank is always survivable: its render-root supervisor
    // assumes frame assembly
    Ok(())
}

/// Validate a scripted membership timeline (kills and rejoins) against
/// the world shape and the control-plane mode. The timeline arrives
/// normalized (single target, alternating, strictly increasing steps).
fn validate_membership(
    config: &PipelineConfig,
    n_inputs: usize,
    steps: usize,
    timeline: &[MembershipEvent],
) -> Result<(), FaultConfigError> {
    let Some(first) = timeline.first() else {
        return Ok(());
    };
    let elastic = config.control.as_ref();
    let output_rank = n_inputs + config.renderers + config.spare_renderers;
    // a leading recovery is a spare-pool join: the rank never held live
    // state, so the only thing to validate is the pool itself
    if let MembershipEvent::Recover { rank, step } = *first {
        if timeline.len() > 1 {
            return Err(FaultConfigError::SpareJoinNotAlone);
        }
        let Some(ctl) = elastic.filter(|_| config.spare_renderers >= 1) else {
            return Err(FaultConfigError::SpareJoinNeedsSparePool { rank, step });
        };
        let expected = n_inputs + config.renderers;
        if rank != expected {
            return Err(FaultConfigError::SpareJoinWrongRank { rank, expected });
        }
        if step >= steps {
            return Err(FaultConfigError::StepOutOfRange { step, steps });
        }
        if !ctl.is_tick(step) {
            return Err(FaultConfigError::ElasticRecoverOffTick { step, every: ctl.every });
        }
        return Ok(());
    }
    for ev in timeline {
        match *ev {
            MembershipEvent::Fail { rank, step } => {
                validate_fail_rank(config, n_inputs, steps, rank, step)?;
            }
            MembershipEvent::Recover { rank, step } => {
                if rank == output_rank {
                    return Err(FaultConfigError::OutputRankRejoin { rank, step });
                }
                // unlike a kill, a recovery past the run's end is legal:
                // the dormancy window simply stays open to the end — a
                // `max_steps`-truncated run checkpoints mid-window and a
                // resumed run carries the rejoin to its scripted tick
                if let Some(ctl) = elastic {
                    if !ctl.is_tick(step) {
                        return Err(FaultConfigError::ElasticRecoverOffTick {
                            step,
                            every: ctl.every,
                        });
                    }
                }
            }
        }
    }
    if let Some(ctl) = elastic {
        let (rank, step) = (first.rank(), first.step());
        if rank < n_inputs || rank >= n_inputs + config.renderers {
            return Err(FaultConfigError::ElasticNonRenderTarget { rank, step });
        }
        if config.spare_renderers > 0 {
            // kill windows and parked spares cannot share the heartbeat
            // regroup machinery
            return Err(FaultConfigError::SpareJoinNotAlone);
        }
        if ctl.resize || ctl.reshape {
            return Err(FaultConfigError::ElasticKillNeedsRebalanceOnly { rank, step });
        }
        if let Some(MembershipEvent::Fail { rank, step }) = timeline.last() {
            return Err(FaultConfigError::ElasticPermanentKill { rank: *rank, step: *step });
        }
    }
    Ok(())
}

/// Resolve the run's fault plan: an explicit [`PipelineConfig::faults`]
/// spec (validated hard, with a typed [`FaultConfigError`]), else
/// `QUAKEVIZ_FAULTS` (sanitized: a scripted rank failure an arbitrary
/// suite configuration cannot survive — or whose detection stall would
/// skew its timing — is dropped so a blanket environment spec still
/// applies everywhere; only input-group failover survives the blanket
/// treatment, render/output kills must be requested explicitly).
fn resolve_faults(
    config: &PipelineConfig,
    n_inputs: usize,
    steps: usize,
) -> Result<Option<Arc<FaultPlan>>, FaultConfigError> {
    let (mut spec, from_env) = match &config.faults {
        Some(spec) => (spec.clone(), false),
        None => match FaultSpec::from_env() {
            Some(spec) => (spec, true),
            None => return Ok(None),
        },
    };
    // the elastic control plane's two-phase commit needs every
    // participant alive to ack; a blanket env spec's membership schedule
    // is dropped rather than deadlocking the plan broadcast
    if from_env && config.control.is_some() {
        spec.fail_rank = None;
        spec.rank_timeline.clear();
    }
    let timeline = spec.membership();
    if !timeline.is_empty() {
        let verdict = validate_membership(config, n_inputs, steps, &timeline);
        if from_env {
            // only input-group failover survives the blanket treatment:
            // render/output kills and rejoins must be requested explicitly
            if verdict.is_err() || timeline.iter().any(|e| e.rank() >= n_inputs) {
                spec.fail_rank = None;
                spec.rank_timeline.clear();
            }
        } else {
            verdict?;
        }
    }
    Ok(Some(FaultPlan::new(spec)))
}

/// The block→renderer partition for `n` renderers. Extracted so the
/// initial setup and the render-failover re-partition over the survivor
/// count run the *identical* balancer: a post-failover run over `k`
/// survivors owns exactly the blocks a clean `k`-renderer run would,
/// which is what makes post-failover frames bit-identical to it.
fn partition_for(
    mesh: &HexMesh,
    blocks: &[OctreeBlock],
    n: usize,
    camera: &Camera,
    level: u8,
    view_balance: bool,
) -> Partition {
    if view_balance {
        crate::balance::view_balanced(mesh, blocks, n, camera, level)
    } else {
        Partition::balanced(mesh, blocks, n, WorkloadModel::CellCount)
    }
}

/// FNV-1a fingerprint of every configuration field that shapes the frame
/// stream (processor counts, octree levels, image geometry, preprocessing
/// flags, camera, fault spec). `max_steps`, checkpoint settings and the
/// prefetch flag are deliberately excluded: a run killed early and a run
/// resumed to the end must agree with the uninterrupted run's checkpoint.
fn config_fingerprint(config: &PipelineConfig, level: u8, camera: &Camera) -> u64 {
    let desc = format!(
        "{}+{};{:?};{:?};{}x{};lvl{};blk{};l{}e{}lic{}q{}vb{}af{};{:?};{:?};{};{:?}",
        config.renderers,
        config.spare_renderers,
        config.io,
        config.read,
        config.width,
        config.height,
        level,
        config.block_level,
        config.lighting as u8,
        config.enhancement as u8,
        config.lic as u8,
        config.quantize as u8,
        config.view_balance as u8,
        config.adaptive_fetch as u8,
        camera,
        config.retry,
        config.deadline_ms,
        config.faults,
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in desc.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Read and validate the latest checkpoint: the manifest (version,
/// checksum, fingerprint, shape) and every field snapshot it names.
/// Returns `(next_step, fields by render-group rank, committed elastic
/// plans)`.
#[allow(clippy::type_complexity)]
fn load_checkpoint(
    disk: &quakeviz_parfs::Disk,
    base: &str,
    fingerprint: u64,
    n_renderers: usize,
    node_count: usize,
    steps: usize,
) -> Result<(usize, Vec<Option<Vec<f32>>>, Vec<ControlPlan>), crate::checkpoint::CheckpointError> {
    use crate::checkpoint::{self, CheckpointError, CheckpointManifest};
    let mpath = checkpoint::manifest_path(base);
    let (bytes, _) =
        disk.read_full(&mpath).map_err(|_| CheckpointError::Missing { path: mpath.clone() })?;
    let manifest = CheckpointManifest::decode(&bytes, &mpath)?;
    if manifest.fingerprint != fingerprint {
        return Err(CheckpointError::ConfigMismatch {
            expected: fingerprint,
            found: manifest.fingerprint,
        });
    }
    if manifest.block_map.len() != n_renderers {
        return Err(CheckpointError::ShapeMismatch {
            detail: format!(
                "checkpoint maps blocks over {} render ranks, this run has {}",
                manifest.block_map.len(),
                n_renderers
            ),
        });
    }
    if manifest.next_step > steps {
        return Err(CheckpointError::ShapeMismatch {
            detail: format!(
                "checkpoint resumes at step {} but the run has only {} steps",
                manifest.next_step, steps
            ),
        });
    }
    let mut fields: Vec<Option<Vec<f32>>> = vec![None; n_renderers];
    for &(rr, ck) in &manifest.fields {
        let fpath = checkpoint::field_path(base, manifest.next_step, rr as usize);
        let invalid = || CheckpointError::FieldInvalid { path: fpath.clone() };
        if rr as usize >= n_renderers {
            return Err(invalid());
        }
        let (fbytes, _) = disk.read_full(&fpath).map_err(|_| invalid())?;
        if checkpoint::field_checksum(&fbytes) != ck {
            return Err(invalid());
        }
        let (fstep, values) = checkpoint::decode_field(&fbytes, &fpath)?;
        if fstep != manifest.next_step || values.len() != node_count {
            return Err(invalid());
        }
        fields[rr as usize] = Some(values);
    }
    Ok((manifest.next_step, fields, manifest.plans))
}

/// Run the pipeline for `dataset` under `config`.
pub fn run_pipeline(dataset: &Dataset, config: PipelineConfig) -> Result<PipelineReport, String> {
    let n_inputs = config.io.validate()?;
    if config.renderers == 0 {
        return Err("need at least one rendering processor".into());
    }
    let steps = config.max_steps.map_or(dataset.steps(), |m| m.min(dataset.steps()));
    if steps == 0 {
        return Err("dataset has no time steps".into());
    }
    if config.checkpoint_every == Some(0) {
        return Err("checkpoint interval must be at least one step".into());
    }
    if let IoStrategy::TwoDip { per_group, .. } = config.io {
        let nodes = dataset.mesh().node_count();
        if per_group > nodes {
            return Err(format!(
                "2DIP group width {per_group} exceeds the mesh's {nodes} nodes — \
                 members would own empty slices"
            ));
        }
        if config.prefetch && matches!(config.read, ReadStrategy::CollectiveNoncontiguous { .. }) {
            return Err(format!(
                "prefetch requires ReadStrategy::IndependentContiguous inside 2DIP groups: \
                 the collective read is lock-step across the {per_group} group members and \
                 cannot run on a per-rank prefetch worker"
            ));
        }
    }
    if let Some(ctl) = &config.control {
        if ctl.every == 0 {
            return Err("elastic control tick period must be at least one step".into());
        }
        if config.prefetch {
            return Err("elastic control plane cannot run with the prefetch runtime: \
                 prefetch workers pack batches ahead of the epoch clock, so a committed \
                 plan could not take effect at its step boundary"
                .into());
        }
        if ctl.reshape {
            let survivable = matches!(config.io, IoStrategy::TwoDip { per_group, .. } if per_group >= 2)
                && matches!(config.read, ReadStrategy::IndependentContiguous);
            if !survivable {
                return Err("elastic reshape requires 2DIP groups of at least two members \
                     with ReadStrategy::IndependentContiguous, so a narrowed input width \
                     still covers every node slice"
                    .into());
            }
        }
    }
    if config.spare_renderers > 0 && config.control.is_none() {
        return Err("spare rendering processors need the elastic control plane: a \
             parked spare only joins the run through an admit plan committed at a \
             controller tick"
            .into());
    }

    let mesh = Arc::clone(dataset.mesh());
    let octree = mesh.octree();
    let max_level = octree.max_leaf_level();
    let level = config
        .level
        .unwrap_or_else(|| config.adaptive.choose_level(octree, config.width, config.height))
        .min(max_level);
    let block_level = config.block_level.min(max_level);
    let blocks = octree.blocks(block_level);
    let extent = octree.extent();
    let camera = config.camera.clone().unwrap_or_else(|| {
        Camera::default_for(&Aabb::from_extent(extent), config.width, config.height)
    });
    let partition =
        partition_for(&mesh, &blocks, config.renderers, &camera, level, config.view_balance);
    let order_ids: Vec<u32> = front_to_back_order(&blocks, extent, camera.eye)
        .into_iter()
        .map(|i| blocks[i].id)
        .collect();

    let fetch_level = config.adaptive_fetch.then_some(level);
    let ids_per_block: Vec<Arc<Vec<NodeId>>> =
        blocks.iter().map(|b| Arc::new(block_level_nodes(&mesh, b, fetch_level))).collect();
    let level_ids = config.adaptive_fetch.then(|| Arc::new(level_node_ids(&mesh, level)));
    let surface = config.lic.then(|| {
        let (qt, ids) = Quadtree::from_surface_nodes(&mesh);
        let noise = white_noise(config.width, config.height, 0x5eed);
        (Arc::new(qt), Arc::new(ids), Arc::new(noise))
    });

    let faults = resolve_faults(&config, n_inputs, steps).map_err(|e| e.to_string())?;
    // explicit wire config wins; else the QUAKEVIZ_CODEC environment
    // variable; else the plain raw wire. Deliberately *not* part of the
    // config fingerprint: decoded payloads are bit-identical to the raw
    // path, so checkpoints stay interchangeable across codec settings.
    let wire_spec = config.wire.clone().or_else(WireSpec::from_env).unwrap_or_default();
    let ledger = Arc::new(WireLedger::new());

    // precompute the deterministic failover epochs the scripted plan
    // implies, so every rank mirrors the same post-failure schedule. The
    // first scripted kill shapes the epoch; `render_epoch` windows it by
    // the full membership timeline.
    let total_renderers = config.renderers + config.spare_renderers;
    let mut render_failover = None;
    let mut output_failover_step = None;
    let first_fail = faults.as_ref().and_then(|p| {
        p.membership_timeline().iter().find_map(|e| match *e {
            MembershipEvent::Fail { rank, step } => Some((rank, step)),
            _ => None,
        })
    });
    if let Some((rank, step)) = first_fail {
        if rank == n_inputs + total_renderers {
            output_failover_step = Some(step);
        } else if rank >= n_inputs {
            let live: Vec<usize> = (0..total_renderers).filter(|&r| n_inputs + r != rank).collect();
            let partition =
                partition_for(&mesh, &blocks, live.len(), &camera, level, config.view_balance);
            render_failover = Some(RenderFailover { rank, live, partition });
        }
    }

    let fingerprint = config_fingerprint(&config, level, &camera);
    let (start_step, resume_fields, resume_plans) = if config.resume {
        load_checkpoint(
            dataset.disk(),
            &config.checkpoint_path,
            fingerprint,
            total_renderers,
            mesh.node_count(),
            steps,
        )
        .map_err(|e| format!("cannot resume: {e}"))?
    } else {
        (0, Vec::new(), Vec::new())
    };

    // cache tier: an attached tier (shared across runs) wins; else
    // explicit sizing; else the QUAKEVIZ_CACHE environment. Deliberately
    // *not* part of the config fingerprint — cached data is
    // checksum-verified and bit-identical to a cache-off run, so the
    // knob can change without invalidating checkpoints.
    let cache_cfg = match config.cache {
        Some(c) => Some(c),
        None => crate::cache::CacheConfig::from_env()
            .map_err(|e| format!("invalid QUAKEVIZ_CACHE: {e}"))?,
    };
    let cache: Option<Arc<CacheTier>> = match (&config.cache_tier, cache_cfg) {
        (Some(tier), _) => Some(Arc::clone(tier)),
        (None, Some(c)) if c.enabled() => Some(CacheTier::new(c)),
        _ => None,
    };
    // a tier reused under a different fingerprint flushes both levels
    // first: checkpoint-resume under changed settings never sees stale
    // data, and the fault schedule is part of the fingerprint, so runs
    // with different fault luck never share entries either
    if let Some(tier) = &cache {
        tier.stamp(fingerprint);
    }
    // shard the dataset's parfs across simulated OSTs when asked (0
    // leaves the disk's current model alone — flat by default, or
    // whatever the caller already set up)
    if config.ost_shards > 0 {
        dataset.disk().set_shards(config.ost_shards);
    }
    let ost_base = dataset.disk().ost_stats();
    let cache_base = cache.as_ref().map(|t| t.counters()).unwrap_or_default();
    let cam_h = crate::cache::camera_hash(&camera);
    let tf_h = crate::cache::tf_hash(
        &config.transfer,
        config.quantize,
        config.lighting,
        config.lic,
        dataset.vmag_max(),
    );
    // all-or-nothing warm serving: frames come from the cache only when
    // *every* executed step is present (only clean frames are ever
    // cached), so a partially-warm run recomputes everything — with
    // block-cache help — instead of mixing cached and stale-state frames
    let warm_all = cache.as_ref().is_some_and(|tier| {
        tier.frames.enabled()
            && (start_step..steps).all(|t| {
                tier.frames.contains(FrameKey {
                    step: t as u32,
                    level,
                    camera_hash: cam_h,
                    tf_hash: tf_h,
                })
            })
    });

    // elastic control plane: epoch 0 is the static partition, and the
    // controller's capacity model reuses the same per-block workload
    // weights the static balancer used
    let (elastic, block_weights) = match &config.control {
        None => (None, Vec::new()),
        Some(_) => {
            // spares sit past the active prefix with empty assignments
            // until an admit plan grows it
            let assignment: Vec<Vec<u32>> = (0..total_renderers)
                .map(|r| {
                    if r < config.renderers {
                        partition.blocks_of(r).to_vec()
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            let input_width = match config.io {
                IoStrategy::TwoDip { per_group, .. } => per_group,
                _ => 1,
            };
            let weights: Vec<u64> = blocks
                .iter()
                .map(|b| {
                    if config.view_balance {
                        crate::balance::view_weight(&mesh, b, &camera, level)
                    } else {
                        WorkloadModel::CellCount.weight(&mesh, b)
                    }
                })
                .collect();
            (Some(EpochState::with_active(assignment, config.renderers, input_width)), weights)
        }
    };

    let shared = Shared {
        mesh,
        disk: Arc::clone(dataset.disk()),
        steps,
        level,
        vmag_max: dataset.vmag_max(),
        blocks,
        partition,
        camera,
        order_ids,
        ids_per_block,
        level_ids,
        surface,
        n_inputs,
        n_renderers: total_renderers,
        opacity_unit: extent.max_component() / 64.0,
        faults,
        start_step,
        resume_fields,
        render_failover,
        output_failover_step,
        fingerprint,
        wire: wire_spec,
        ledger,
        elastic,
        resume_plans,
        block_weights,
        cache: cache.clone(),
        cam_hash: cam_h,
        tf_hash: tf_h,
        warm_all,
        cfg: config,
    };

    let world = n_inputs + shared.n_renderers + 1;
    let shared = &shared;
    let detail = shared.cfg.trace || Obs::detail_from_env();
    let session = Obs::new(detail);
    if shared.cfg.profile {
        // config wins over the QUAKEVIZ_PROF env default
        quakeviz_rt::obs::prof::set_enabled(true);
    }
    let stats = TrafficStats::with_matrix(world, classify_tag);
    let obs_ref = &session;
    let results =
        World::run_faulted(world, Arc::clone(&stats), shared.faults.clone(), move |comm| {
            rank_main(comm, obs_ref, shared)
        });

    // assemble
    let mut input_steps = Vec::new();
    let mut render_frames = Vec::new();
    let mut render_rank_seconds = Vec::new();
    let mut frames = Vec::new();
    let mut frame_done = Vec::new();
    let mut degraded = Vec::new();
    let mut checkpoints = 0u64;
    let mut control_plans = Vec::new();
    let mut takeover_tail = None;
    for r in results {
        match r {
            RankResult::Input(v) => input_steps.extend(v),
            RankResult::Render { timings: v, takeover } => {
                render_rank_seconds.push(v.iter().map(|f| f.render_s).sum::<f64>());
                render_frames.extend(v);
                if takeover.is_some() {
                    takeover_tail = takeover;
                }
            }
            RankResult::Output { frames: f, done_at, degraded: d, checkpoints: c, plans } => {
                frames = f;
                frame_done = done_at;
                degraded = d;
                checkpoints += c;
                control_plans = plans;
            }
        }
    }
    // splice the supervisor's output-failover frames after the dead
    // output rank's own: the stream continues without a gap
    if let Some(tk) = takeover_tail {
        frames.extend(tk.frames);
        frame_done.extend(tk.done_at);
        degraded.extend(tk.degraded);
        checkpoints += tk.checkpoints;
    }
    // surface the plan's counters as metrics so the snapshot carries them
    let (fault_events, recovery) = match &shared.faults {
        None => (Vec::new(), None),
        Some(plan) => {
            let m = session.metrics();
            for (kind, n) in plan.counts() {
                if n > 0 {
                    m.counter(&format!("fault.{}", kind.as_str())).add(n);
                }
            }
            let rec = plan.recovery();
            for (name, n) in [
                ("recovery.retries", rec.read_retries),
                ("recovery.backoff_us", rec.backoff_us),
                ("recovery.exhausted_reads", rec.exhausted_reads),
                ("recovery.checksum_failures", rec.checksum_failures),
                ("recovery.wire_rejects", rec.wire_rejects),
                ("recovery.degraded_blocks", rec.degraded_blocks),
                ("recovery.degraded_frames", rec.degraded_frames),
                ("recovery.failover_events", rec.failover_events),
                ("recovery.render_failovers", rec.render_failovers),
                ("recovery.output_failovers", rec.output_failovers),
                ("recovery.migrated_frames", rec.migrated_frames),
                ("recovery.prefetch_fallbacks", rec.prefetch_fallbacks),
                ("recovery.controller_kills", rec.controller_kills),
                ("recovery.rejoins", rec.rejoins),
                ("recovery.catchup_plans", rec.catchup_plans),
                ("recovery.catchup_fields", rec.catchup_fields),
            ] {
                if n > 0 {
                    m.counter(name).add(n);
                }
            }
            (plan.events(), Some(rec))
        }
    };
    if checkpoints > 0 {
        session.metrics().counter("checkpoint.commits").add(checkpoints);
    }
    // per-class traffic volume as metrics, so the snapshot (and the
    // BENCH_pipeline.json baseline built from it) carries bytes moved
    // per TagClass without re-deriving from the edge list
    for (class, msgs, bytes) in stats.class_totals() {
        if msgs > 0 {
            session.metrics().counter(&format!("traffic.{}.msgs", class.as_str())).add(msgs);
            session.metrics().counter(&format!("traffic.{}.bytes", class.as_str())).add(bytes);
        }
    }
    // raw-vs-wire ledger per payload class: what the codec+delta layer
    // saved (wire ≤ raw always; equal on the plain raw wire)
    for w in shared.ledger.snapshot() {
        let m = session.metrics();
        m.counter(&format!("traffic.{}.raw_bytes", w.class.as_str())).add(w.raw_bytes);
        m.counter(&format!("traffic.{}.wire_bytes", w.class.as_str())).add(w.wire_bytes);
    }
    // cache-tier counters, emitted as *this run's* deltas (the tier
    // accumulates across the runs sharing it) plus the resident-bytes
    // gauge; per-OST counters likewise when the disk is sharded
    if let Some(tier) = &cache {
        let c = tier.counters();
        let m = session.metrics();
        for (name, v) in [
            ("cache.block.hits", c.block_hits - cache_base.block_hits),
            ("cache.block.misses", c.block_misses - cache_base.block_misses),
            ("cache.block.evictions", c.block_evictions - cache_base.block_evictions),
            ("cache.block.rejects", c.block_rejects - cache_base.block_rejects),
            ("cache.block.bytes", c.block_bytes),
            ("cache.frame.hits", c.frame_hits - cache_base.frame_hits),
            ("cache.frame.misses", c.frame_misses - cache_base.frame_misses),
            ("cache.frame.evictions", c.frame_evictions - cache_base.frame_evictions),
            ("cache.frame.rejects", c.frame_rejects - cache_base.frame_rejects),
        ] {
            if v > 0 {
                m.counter(name).add(v);
            }
        }
    }
    for (i, st) in shared.disk.ost_stats().iter().enumerate() {
        let base = ost_base.get(i).copied().unwrap_or_default();
        let m = session.metrics();
        for (name, v) in [
            (format!("parfs.ost{i}.reads"), st.reads - base.reads),
            (format!("parfs.ost{i}.bytes"), st.bytes - base.bytes),
            (format!("parfs.ost{i}.peak_queue"), st.peak_queue),
        ] {
            if v > 0 {
                m.counter(&name).add(v);
            }
        }
    }
    // per-render-rank utilization: each rank's Render-phase busy time
    // against the per-step makespan (the slowest rank each step), in
    // permille so the counters stay integral. This is the number the
    // elastic control plane exists to move — rebalancing narrows the
    // spread between the busiest and idlest render rank.
    {
        let mut busy: Vec<HashMap<u32, u64>> = vec![HashMap::new(); shared.n_renderers];
        for rec in session.recorders() {
            if rec.group() != "render" || rec.rank() < n_inputs {
                continue;
            }
            let rr = rec.rank() - n_inputs;
            if rr >= shared.n_renderers {
                continue;
            }
            for ev in rec.events() {
                if ev.phase == Phase::Render {
                    *busy[rr].entry(ev.step).or_insert(0) += ev.dur_us;
                }
            }
        }
        let mut makespan: HashMap<u32, u64> = HashMap::new();
        for per_step in &busy {
            for (&t, &us) in per_step {
                let e = makespan.entry(t).or_insert(0);
                *e = (*e).max(us);
            }
        }
        let total: u64 = makespan.values().sum();
        let m = session.metrics();
        let mut sum = 0u64;
        let mut measured = false;
        for (rr, per_step) in busy.iter().enumerate() {
            let Some(permille) = (per_step.values().sum::<u64>() * 1000).checked_div(total) else {
                break; // no render spans recorded at all
            };
            m.counter(&format!("work.render_utilization.r{rr}")).add(permille);
            sum += permille;
            measured = true;
        }
        if measured {
            m.counter("work.render_utilization.mean").add(sum / shared.n_renderers as u64);
        }
    }
    if !control_plans.is_empty() {
        session.metrics().counter("control.plans_committed").add(control_plans.len() as u64);
    }
    let trace = session.snapshot(Some(&stats));
    write_trace_if_requested(&trace);
    Ok(PipelineReport {
        frames,
        frame_done,
        input_steps,
        render_frames,
        renderers: shared.n_renderers,
        input_procs: n_inputs,
        prefetch: shared.cfg.prefetch,
        level: shared.level,
        messages: stats.messages(),
        bytes_sent: stats.bytes(),
        render_rank_seconds,
        traffic: stats.edges(),
        trace,
        degraded,
        fault_events,
        recovery,
        checkpoints,
        resumed_from: shared.cfg.resume.then_some(shared.start_step),
        wire: shared.ledger.snapshot(),
        wire_spec: shared.wire.describe(),
        control_plans,
    })
}

/// When `QUAKEVIZ_TRACE` names a file (contains `/` or ends in `.json`),
/// dump the Chrome trace there plus span/traffic CSVs next to it.
fn write_trace_if_requested(trace: &TraceData) {
    let Ok(path) = std::env::var("QUAKEVIZ_TRACE") else {
        return;
    };
    if !(path.contains('/') || path.ends_with(".json")) {
        return;
    }
    let stem = path.strip_suffix(".json").unwrap_or(&path);
    if let Err(e) = std::fs::write(&path, trace.chrome_trace_json()) {
        eprintln!("quakeviz: cannot write trace {path}: {e}");
        return;
    }
    let _ = std::fs::write(format!("{stem}.spans.csv"), trace.csv());
    let _ = std::fs::write(format!("{stem}.traffic.csv"), trace.traffic_csv());
}

fn rank_main(comm: Comm, session: &Arc<Obs>, s: &Shared) -> RankResult {
    let me = comm.rank();
    let group = if me < s.n_inputs {
        "input"
    } else if me < s.n_inputs + s.n_renderers {
        "render"
    } else {
        "output"
    };
    let _rec = session.attach(me, group);
    // every rank constructs the same sub-communicators in the same order
    let render_ranks: Vec<usize> = (s.n_inputs..s.n_inputs + s.n_renderers).collect();
    let render_comm = comm.group(&render_ranks);
    let mut group_comm = None;
    if let IoStrategy::TwoDip { groups, per_group } = s.cfg.io {
        for g in 0..groups {
            let members: Vec<usize> = (g * per_group..(g + 1) * per_group).collect();
            let gc = comm.group(&members);
            if gc.is_some() {
                group_comm = gc;
            }
        }
    }
    comm.barrier();
    let start = Instant::now();

    if s.warm_all {
        // every frame of the run is already in the frame cache under this
        // exact (camera, transfer, level) identity: the run is a replay.
        // Input and render ranks do no work (and so inject no faults,
        // write no checkpoints, host no control ticks); the output rank
        // serves frames straight from the cache.
        return if me < s.n_inputs {
            RankResult::Input(vec![InputStepTiming::default(); input_plan(me, s).my_steps.len()])
        } else if me < s.n_inputs + s.n_renderers {
            RankResult::Render {
                timings: vec![RenderFrameTiming::default(); s.steps - s.start_step],
                takeover: None,
            }
        } else {
            output_warm(session, s, start)
        };
    }

    if me < s.n_inputs {
        RankResult::Input(input_main(&comm, group_comm.as_ref(), session, s))
    } else if me < s.n_inputs + s.n_renderers {
        let (timings, takeover) =
            render_main(&comm, render_comm.as_ref().unwrap(), session, s, start);
        RankResult::Render { timings, takeover }
    } else {
        output_main(&comm, session, s, start)
    }
}

/// The output rank's warm-replay loop: every frame was found in the frame
/// cache at setup, so serve each one directly — same metrics, same
/// interframe-delay histogram, no pipeline traffic.
fn output_warm(session: &Arc<Obs>, s: &Shared, start: Instant) -> RankResult {
    let tier = s.cache.as_ref().expect("warm_all implies a cache tier");
    let mut frames = Vec::new();
    let mut done_at = Vec::with_capacity(s.steps);
    let mut degraded: Vec<Vec<Degradation>> = Vec::with_capacity(s.steps);
    let m_frames = session.metrics().counter("pipeline.frames");
    let m_bytes = session.metrics().counter("pipeline.frame_bytes");
    let m_latency = session.metrics().histogram("pipeline.interframe_us");
    let mut prev = 0.0f64;
    for t in s.start_step..s.steps {
        let _sp = obs::span(Phase::Assemble, t as u32);
        let (vol, deg) = match tier.frames.get(s.frame_key(t)) {
            Some(img) => (img, Vec::new()),
            None => {
                // the setup probe saw this key, but the entry failed its
                // serve-time checksum (or was evicted mid-replay): ship a
                // blank degraded frame rather than wrong pixels
                eprintln!("quakeviz: step {t}: cached frame lost mid-replay; frame degraded");
                (RgbaImage::new(s.cfg.width, s.cfg.height), vec![Degradation::CorruptImage])
            }
        };
        degraded.push(deg);
        let now = start.elapsed().as_secs_f64();
        m_frames.inc();
        m_bytes.add((vol.width() * vol.height() * 16) as u64);
        m_latency.record(((now - prev) * 1e6) as u64);
        prev = now;
        done_at.push(now);
        if s.cfg.keep_frames {
            frames.push(vol);
        }
    }
    RankResult::Output { frames, done_at, degraded, checkpoints: 0, plans: Vec::new() }
}

/// Seconds per step spent in `phase`, summed from this thread's recorded
/// spans — the pipeline's timing structs are *derived* from the span
/// stream instead of a second set of hand-rolled `Instant` timers.
fn phase_seconds_by_step(events: &[obs::SpanEvent], phase: Phase, step: usize) -> f64 {
    events
        .iter()
        .filter(|e| e.phase == phase && e.step == step as u32)
        .map(|e| e.dur_us as f64 / 1e6)
        .sum()
}

// ---------------------------------------------------------------------
// input processors
// ---------------------------------------------------------------------

/// Which steps an input rank owns and what it fetches per step — computed
/// once, shared by the synchronous loop and the prefetch worker.
struct InputPlan {
    my_steps: Vec<usize>,
    member: usize,
    fetch: FetchPlan,
    /// Value range of my node ids, for piece extraction; `None` means a
    /// solo reader holding every needed node (whole-block sends).
    my_span: Option<(NodeId, NodeId)>,
}

fn input_plan(me: usize, s: &Shared) -> InputPlan {
    // which steps do I work on, and which part of each?
    // step ownership is keyed by the *absolute* step index, so a resumed
    // run assigns each remaining step to the same rank the uninterrupted
    // run would
    let (my_steps, member, group_size): (Vec<usize>, usize, usize) = match s.cfg.io {
        IoStrategy::OneDip { input_procs } => {
            ((s.start_step..s.steps).filter(|t| t % input_procs == me).collect(), 0, 1)
        }
        IoStrategy::TwoDip { groups, per_group } => {
            let g = me / per_group;
            (
                (s.start_step..s.steps).filter(|t| t % groups == g).collect(),
                me % per_group,
                per_group,
            )
        }
    };

    // my fetch pattern (constant across steps)
    let node_count = s.mesh.node_count();
    let my_ids: Option<Vec<NodeId>> = match (&s.level_ids, group_size) {
        (Some(lvl), 1) => Some(lvl.as_ref().clone()),
        (Some(lvl), m) => {
            let (a, b) = member_node_range(lvl.len(), member, m);
            Some(lvl[a..b].to_vec())
        }
        (None, 1) => None,
        (None, m) => {
            // contiguous slice — materialize ids only for the collective path
            match s.cfg.read {
                ReadStrategy::CollectiveNoncontiguous { .. } => {
                    let (a, b) = member_node_range(node_count, member, m);
                    Some((a as NodeId..b as NodeId).collect())
                }
                ReadStrategy::IndependentContiguous => None,
            }
        }
    };
    let my_range = if group_size > 1 && my_ids.is_none() {
        Some(member_node_range(node_count, member, group_size))
    } else {
        None
    };
    // a solo reader (1DIP) holds every needed node, sends full per-block
    // values
    let my_span: Option<(NodeId, NodeId)> = if group_size == 1 {
        None
    } else {
        match (&my_ids, my_range) {
            (Some(ids), _) if !ids.is_empty() => Some((ids[0], *ids.last().unwrap() + 1)),
            (Some(_), _) => Some((0, 0)),
            (None, Some((a, b))) => Some((a as NodeId, b as NodeId)),
            (None, None) => None,
        }
    };
    InputPlan { my_steps, member, fetch: FetchPlan { ids: my_ids, range: my_range }, my_span }
}

/// Block-cache identity of a fetch plan: a 32-bit FNV digest of exactly
/// which nodes it covers (explicit id list or contiguous range), so two
/// plans share a cache entry iff they fetch the same data.
fn fetch_identity(plan: &FetchPlan) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    };
    match (&plan.ids, plan.range) {
        (Some(ids), _) => {
            eat(1);
            eat(ids.len() as u64);
            for &id in ids.iter() {
                eat(id as u64);
            }
        }
        (None, Some((a, b))) => {
            eat(2);
            eat(a as u64);
            eat(b as u64);
        }
        (None, None) => eat(3),
    }
    (h as u32) ^ ((h >> 32) as u32)
}

/// Dense per-node vectors for the step plus the stats of getting them.
/// `Err` means the read failed for good (retries exhausted under the
/// fault plan); nothing is charged to the step's stats.
fn fetch_step(
    comm_group: Option<&Comm>,
    s: &Shared,
    t: usize,
    plan: &FetchPlan,
) -> Result<(Vec<[f32; 3]>, ReadStats), ReadError> {
    // collective reads are lock-step across the 2DIP group: one member
    // skipping on a cache hit would desync the group, so only the
    // independent read paths consult the block cache
    let collective = comm_group.is_some()
        && plan.ids.is_some()
        && matches!(s.cfg.read, ReadStrategy::CollectiveNoncontiguous { .. });
    let key = match &s.cache {
        Some(tier) if tier.blocks.enabled() && !collective => {
            Some(BlockKey { step: t as u32, block: fetch_identity(plan), level: s.level })
        }
        _ => None,
    };
    if let Some(key) = key {
        if let Some(data) = s.cache.as_ref().unwrap().blocks.get(key) {
            // a checksum-verified hit skips the disk entirely: no
            // simulated cost, no fault roll (rolls are stateless per
            // site, so skipping one cannot shift another read's luck),
            // no injected delay
            return Ok((data.as_ref().clone(), ReadStats::default()));
        }
    }
    let ctx = s.fault_ctx(t);
    let (dense, mut stats) = match (&s.cfg.read, comm_group) {
        (ReadStrategy::CollectiveNoncontiguous { sieve_window }, Some(gc))
            if plan.ids.is_some() =>
        {
            plan.read_collective(&s.disk, &s.mesh, t, gc, *sieve_window, ctx.as_ref())?
        }
        _ => plan.read(&s.disk, &s.mesh, t, 1 << 16, ctx.as_ref())?,
    };
    if let Some(scale) = s.cfg.io_delay_scale {
        let d = stats.sim_seconds * scale;
        if d > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(d));
            // the injected delay stands in for real disk time: count it
            stats.real_seconds += d;
        }
    }
    // only fully successful fetches are cached — a hit can therefore
    // never mask the recovery path a cache-off run would have taken
    if let Some(key) = key {
        s.cache.as_ref().unwrap().blocks.insert(key, Arc::new(dense.clone()));
    }
    Ok((dense, stats))
}

fn magnitudes(dense: &[[f32; 3]]) -> Vec<f32> {
    dense.iter().map(|v| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()).collect()
}

/// Read + preprocess one step into the enhanced magnitude field. Shared
/// verbatim by the synchronous loop and the prefetch worker, so the two
/// runtimes compute bit-identical values. `None` means the step's data
/// could not be read (retries exhausted): the caller ships explicit
/// *missing* pieces instead of values and the frame degrades downstream.
fn prepare_step(
    group_comm: Option<&Comm>,
    s: &Shared,
    fetch: &FetchPlan,
    enhance: &TemporalEnhance,
    t: usize,
) -> (Option<Vec<f32>>, ReadStats) {
    let mut sp = obs::span(Phase::Read, t as u32);
    let Ok((dense, mut stats)) = fetch_step(group_comm, s, t, fetch) else {
        return (None, ReadStats::default());
    };
    sp.add_bytes(stats.useful_bytes);
    drop(sp);

    // preprocessing: magnitude + optional temporal enhancement (the
    // previous step's re-fetch is disk time, so it gets a Read span of
    // its own rather than inflating Preprocess)
    let pp = obs::span(Phase::Preprocess, t as u32);
    let mut mag = magnitudes(&dense);
    drop(pp);
    if s.cfg.enhancement && t > 0 {
        let mut sp = obs::span(Phase::Read, t as u32);
        // enhancement needs the previous step too: if that read fails the
        // enhanced field cannot be computed and the whole step is missing
        let Ok((prev_dense, prev_stats)) = fetch_step(group_comm, s, t - 1, fetch) else {
            return (None, stats);
        };
        sp.add_bytes(prev_stats.useful_bytes);
        drop(sp);
        stats.accumulate(&prev_stats);
        let pp = obs::span(Phase::Preprocess, t as u32);
        let prev_mag = magnitudes(&prev_dense);
        mag = enhance
            .apply(&NodeField::new(mag), Some(&NodeField::new(prev_mag)), None)
            .values()
            .to_vec();
        drop(pp);
    }
    (Some(mag), stats)
}

/// Pack the per-renderer block batches for one prepared step: every
/// message is a batch of checksummed [`WirePiece`]s — whole blocks
/// (offset 0) for solo readers, slice intersections for 2DIP group
/// members. `mag = None` (the read failed for good) packs *missing*
/// pieces of the right lengths instead of values. Each piece goes through
/// the temporal-delta + codec layer of [`pack_piece`] against `delta`,
/// the sender's per-destination state. When the fault plan scripts wire
/// corruption for a message, one encoded-body bit is flipped *after* the
/// checksum was computed, so the receiver's verify catches it — for
/// every codec, since the checksum covers the encoded bytes. Returns
/// `(destination rank, batch, wire bytes)`.
fn pack_batches(
    s: &Shared,
    elastic: Option<&EpochState>,
    my_span: Option<(NodeId, NodeId)>,
    mag: Option<&[f32]>,
    me: usize,
    t: usize,
    delta: &mut DeltaMap,
) -> Vec<(usize, BlockBatch, u64)> {
    // route over the render ranks alive at step `t` and the partition of
    // the epoch in force — after a scripted render-rank death the dead
    // rank receives nothing and its blocks go to the survivors. With the
    // elastic control plane, `elastic` is the caller's committed epoch
    // state: the active render prefix and its block assignment replace
    // the static routing wholesale.
    let (partition, live) = s.routing(t);
    // an elastic kill window overlays the dead prefix rank's blocks onto
    // the committed assignment's survivors, capacity-aware, until the
    // rejoin tick re-admits it
    let overlay: Option<Vec<Vec<u32>>> = elastic.and_then(|e| {
        s.elastic_dead_renderer(t).map(|dr| {
            crate::control::overlay_assignment(&e.assignment, e.active, dr, &s.block_weights)
        })
    });
    let routes: Vec<(usize, &[u32])> = match elastic {
        Some(e) => {
            let assign: &[Vec<u32>] = overlay.as_deref().unwrap_or(&e.assignment);
            let dead = s.elastic_dead_renderer(t);
            (0..e.active)
                .filter(|&r| Some(r) != dead)
                .map(|r| (s.n_inputs + r, assign[r].as_slice()))
                .collect()
        }
        None => live
            .iter()
            .enumerate()
            .map(|(v, &rr)| (s.n_inputs + rr, partition.blocks_of(v)))
            .collect(),
    };
    let codec = s.wire.codec_for(TagClass::BlockData);
    let mut out = Vec::with_capacity(routes.len());
    for &(dst, blocks) in &routes {
        // the lossy transport completes a dropped send locally, so the
        // sender knows this batch will never arrive: pack it without
        // advancing delta state, and the next real send deltas against
        // the last bytes the receiver actually holds — degradation stays
        // codec-invariant under message loss
        let delivered =
            s.faults.as_ref().is_none_or(|p| !p.send_will_drop(me, dst, TAG_DATA + t as u64));
        let t0 = Instant::now();
        let mut enc_sp = obs::auto_span(Phase::Encode, t as u32);
        let (mut raw_bytes, mut keyframes, mut deltas) = (0u64, 0u64, 0u64);
        let mut batch: BlockBatch = Vec::new();
        for &bid in blocks {
            let ids = &s.ids_per_block[bid as usize];
            let (a, b) = match my_span {
                None => (0, ids.len()),
                Some((lo, hi)) => {
                    (ids.partition_point(|&id| id < lo), ids.partition_point(|&id| id < hi))
                }
            };
            if a < b {
                let payload = match mag {
                    Some(mag) => {
                        let values: Vec<f32> =
                            ids[a..b].iter().map(|&id| mag[id as usize]).collect();
                        Payload::from_values(values, s.cfg.quantize, s.vmag_max)
                    }
                    None => Payload::Missing((b - a) as u32),
                };
                let piece = pack_piece(
                    &s.wire,
                    codec,
                    (dst, bid, a as u32),
                    &payload,
                    t as u32,
                    delta,
                    delivered,
                );
                raw_bytes += piece.raw_len as u64;
                if piece.base_step == KEYFRAME {
                    keyframes += 1;
                } else {
                    deltas += 1;
                }
                batch.push(piece);
            }
        }
        if let Some(plan) = &s.faults {
            if let Some(seed) = plan.wire_corrupt(me, dst, TAG_DATA + t as u64) {
                corrupt_one_bit(&mut batch, seed);
            }
        }
        let bytes: u64 = batch.iter().map(|p| p.body.len() as u64).sum();
        enc_sp.add_bytes(bytes);
        s.ledger.record_send(TagClass::BlockData, raw_bytes, bytes, t0.elapsed().as_nanos() as u64);
        s.ledger.record_pieces(TagClass::BlockData, keyframes, deltas);
        out.push((dst, batch, bytes));
    }
    out
}

/// Flip one deterministically-chosen bit of a batch's encoded wire bodies
/// (the wire corruption model). Works uniformly for every codec and for
/// delta pieces, because the checksum guards the encoded bytes.
fn corrupt_one_bit(batch: &mut BlockBatch, seed: u64) {
    let total: usize = batch.iter().map(|p| p.body.len() * 8).sum();
    if total == 0 {
        return;
    }
    let mut k = (seed % total as u64) as usize;
    for piece in batch.iter_mut() {
        let bits = piece.body.len() * 8;
        if k < bits {
            piece.body[k / 8] ^= 1 << (k % 8);
            return;
        }
        k -= bits;
    }
}

/// LIC overlay for step `t`, synthesized and shipped by the step's lead
/// input processor. The surface read stays inside the Lic span (in detail
/// sessions the nested IoRead auto span shows it).
fn lic_step(comm: &Comm, s: &Shared, t: usize, read: &mut ReadStats) {
    let Some((qt, surf_ids, noise)) = &s.surface else {
        return;
    };
    // the overlay goes to whichever rank assembles this step's frame —
    // the output processor, or its supervisor once the plan kills it
    let output_rank = s.output_dst(t);
    let mut lic_sp = obs::span(Phase::Lic, t as u32);
    // surface vectors: read explicitly (they may not be in the adaptive
    // fetch set or my slice); when the read fails for good the overlay
    // degrades to a transparent image and the frame is flagged
    let ctx = s.fault_ctx(t);
    let (img, missing) =
        match reader::read_step_ids(&s.disk, &s.mesh, t, surf_ids, 1 << 16, ctx.as_ref()) {
            Err(_) => (RgbaImage::new(s.cfg.width, s.cfg.height), true),
            Ok((surf_dense, surf_stats)) => {
                read.accumulate(&surf_stats);
                if let Some(scale) = s.cfg.io_delay_scale {
                    let d = surf_stats.sim_seconds * scale;
                    if d > 0.0 {
                        std::thread::sleep(std::time::Duration::from_secs_f64(d));
                    }
                }
                let field = quakeviz_mesh::VectorField::new(surf_dense);
                let reg = extract_surface_field(&s.mesh, &field, qt, s.cfg.width, s.cfg.height);
                let phase = (t as f64 * 0.08) % 1.0;
                let gray = compute_lic(
                    &reg,
                    noise,
                    &LicParams { phase: Some(phase), ..Default::default() },
                );
                // normalize by the surface maximum (surface motion is far
                // weaker than the 3D peak at the hypocentre)
                (colorize(&reg, &gray, &s.cfg.transfer, reg.max_magnitude()), false)
            }
        };
    let (msg, bytes) = encode_image(s, TagClass::LicImage, t as u32, img);
    lic_sp.add_bytes(bytes);
    drop(lic_sp);
    comm.send_with_size(output_rank, TAG_LIC + t as u64, (msg, missing), bytes);
}

fn input_main(
    comm: &Comm,
    group_comm: Option<&Comm>,
    session: &Arc<Obs>,
    s: &Shared,
) -> Vec<InputStepTiming> {
    let plan = input_plan(comm.rank(), s);
    let mut timings = if s.cfg.prefetch {
        input_main_prefetch(comm, session, s, &plan)
    } else {
        input_main_sync(comm, group_comm, s, &plan)
    };

    // derive the per-step timings from the span stream (which includes
    // the prefetch worker's spans — it records onto the same rank track)
    let events = obs::current_events();
    for (timing, &t) in timings.iter_mut().zip(&plan.my_steps) {
        timing.preprocess_s = phase_seconds_by_step(&events, Phase::Preprocess, t);
        timing.lic_s = phase_seconds_by_step(&events, Phase::Lic, t);
        timing.send_s = phase_seconds_by_step(&events, Phase::Send, t);
        timing.send_wait_s = phase_seconds_by_step(&events, Phase::SendWait, t);
    }
    timings
}

/// This rank's 2DIP group as world ranks, when a scripted *input*-rank
/// failure — and with it the heartbeat/failover protocol — is active.
fn failover_group(me: usize, s: &Shared) -> Option<Vec<usize>> {
    let plan = s.faults.as_ref()?;
    let rank = plan.membership_timeline().first()?.rank();
    if rank >= s.n_inputs {
        return None; // render/output kills don't concern the input groups
    }
    match s.cfg.io {
        IoStrategy::OneDip { .. } => None,
        IoStrategy::TwoDip { per_group, .. } => {
            let g = me / per_group;
            Some((g * per_group..(g + 1) * per_group).collect())
        }
    }
}

/// A group member's fetch plan when the live group has shrunk to `live`
/// members and this rank is the `idx`-th of them: the contiguous slice
/// (or adaptive-fetch id slice) reassignment of §5.3.2, recomputed for
/// the survivors.
fn member_fetch(s: &Shared, idx: usize, live: usize) -> (FetchPlan, Option<(NodeId, NodeId)>) {
    if let Some(lvl) = &s.level_ids {
        let (a, b) = member_node_range(lvl.len(), idx, live);
        let ids = lvl[a..b].to_vec();
        let span = if ids.is_empty() { (0, 0) } else { (ids[0], *ids.last().unwrap() + 1) };
        (FetchPlan { ids: Some(ids), range: None }, Some(span))
    } else {
        let (a, b) = member_node_range(s.mesh.node_count(), idx, live);
        (FetchPlan { ids: None, range: Some((a, b)) }, Some((a as NodeId, b as NodeId)))
    }
}

/// Exchange per-step heartbeats inside the 2DIP group, declare members
/// that missed the deadline dead (permanently), and return the surviving
/// slice assignment: `(fetch override, span, LIC-lead flag)`. A `None`
/// override means every member is alive and the precomputed plan stands.
fn heartbeat_and_slice(
    comm: &Comm,
    s: &Shared,
    group: &[usize],
    dead: &mut Vec<usize>,
    t: usize,
    joining: bool,
) -> (Option<(FetchPlan, Option<(NodeId, NodeId)>)>, bool) {
    let me = comm.rank();
    let _sp = obs::span(Phase::Heartbeat, t as u32);
    // a member we declared dead whose scripted death window has closed
    // rejoins here: block on its join announcement (it sends at its
    // first owned live step — this same `t`, since 2DIP group members
    // share their owned-step schedule), then treat it live again
    if let Some(p) = &s.faults {
        dead.retain(|&r| {
            let rejoined = !p.rank_failed(r, t)
                && p.membership_timeline().iter().any(
                    |ev| matches!(*ev, MembershipEvent::Recover { rank, step } if rank == r && step <= t),
                );
            if rejoined {
                let () = comm.recv(r, TAG_JOIN + t as u64);
            }
            !rejoined
        });
    }
    let peers: Vec<usize> =
        group.iter().copied().filter(|&r| r != me && !dead.contains(&r)).collect();
    for &r in &peers {
        comm.send_with_size(r, TAG_HB + t as u64, (), 8);
    }
    for &r in &peers {
        // a joiner fast-forwarded through its dormancy window, so its
        // peers may still be steps behind, burning detection timeouts —
        // its first step back must block, not vote on liveness (the
        // validated timeline guarantees the peers are alive)
        if joining {
            let () = comm.recv(r, TAG_HB + t as u64);
        } else if comm.try_recv_for::<()>(r, TAG_HB + t as u64, s.input_hb_deadline()).is_none() {
            dead.push(r);
            if let Some(p) = &s.faults {
                p.note_failover(r, t);
            }
        }
    }
    let live: Vec<usize> = group.iter().copied().filter(|r| !dead.contains(r)).collect();
    // LIC duty falls to the lowest live member (= `member == 0` while the
    // whole group is alive)
    let lead = live.first() == Some(&me);
    if live.len() == group.len() {
        return (None, lead);
    }
    let idx = live.iter().position(|&r| r == me).expect("I am alive");
    (Some(member_fetch(s, idx, live.len())), lead)
}

/// Participate in every pending control-plane tick `S` in
/// `(*cursor)..=upto`: receive the controller's proposal, acknowledge it,
/// and apply it on commit. An input rank owns only every `groups`-th
/// step, so before working step `t` it must catch up on every tick the
/// controller clocked in between — and drain the remainder after its
/// last owned step, so the controller's ack collection never starves.
/// A committed plan clears the sender-side delta state: the next send on
/// every (possibly reconfigured) route is a natural keyframe.
fn input_ticks(
    comm: &Comm,
    s: &Shared,
    elastic: &mut Option<EpochState>,
    delta: &mut DeltaMap,
    cursor: &mut usize,
    upto: usize,
) {
    if s.cfg.control.is_none() {
        return;
    }
    let ctl_rank = s.n_inputs + s.n_renderers;
    while *cursor <= upto {
        let t = *cursor;
        *cursor += 1;
        if !s.control_tick(t) {
            continue;
        }
        let _sp = obs::span(Phase::Control, t as u32);
        let proposal: Option<ControlPlan> = comm.recv(ctl_rank, TAG_CTL + t as u64);
        if let Some(plan) = proposal {
            comm.send_with_size(ctl_rank, TAG_CTLA + t as u64, (), 8);
            let committed: bool = comm.recv(ctl_rank, TAG_CTLA + t as u64);
            if committed {
                let e = elastic.as_mut().expect("control tick without elastic state");
                e.apply(&plan);
                delta.clear();
                // a committed rebalance reshapes fetch plans from this
                // step on: conservatively drop cached blocks and any
                // not-yet-served frames at or past the commit step
                if let Some(tier) = &s.cache {
                    tier.flush_for_commit(t as u32);
                }
            }
        }
    }
}

/// The reference runtime: read, preprocess, LIC, pack and send each step
/// serially.
fn input_main_sync(
    comm: &Comm,
    group_comm: Option<&Comm>,
    s: &Shared,
    plan: &InputPlan,
) -> Vec<InputStepTiming> {
    let enhance = TemporalEnhance::default();
    let me = comm.rank();
    let group = failover_group(me, s);
    let mut dead: Vec<usize> = Vec::new();
    let mut delta = DeltaMap::new();
    // elastic epoch state: start from epoch 0 (or a resumed run's
    // replayed history — the delta map is fresh anyway, so the replay is
    // pure state application) and advance at every committed tick
    let mut elastic = s.elastic.clone();
    if let Some(e) = elastic.as_mut() {
        for p in &s.resume_plans {
            e.apply(p);
        }
    }
    let mut tick_cursor = s.start_step;
    let per_group = match s.cfg.io {
        IoStrategy::TwoDip { per_group, .. } => per_group,
        IoStrategy::OneDip { .. } => 1,
    };
    let mut timings = Vec::with_capacity(plan.my_steps.len());
    let mut was_dead = false;
    for &t in &plan.my_steps {
        // a scripted failure: this rank stops cold, mid-pipeline, with no
        // farewell — survivors must *detect* it via heartbeat timeouts. A
        // death *window* (a scripted recovery later) keeps the thread
        // parked in-loop, skipping every owned step, so the zip alignment
        // with the group survives the outage.
        if s.faults.as_ref().is_some_and(|p| p.rank_failed(me, t)) {
            if s.faults.as_ref().is_some_and(|p| p.recovers_later(me, t)) {
                was_dead = true;
                timings.push(InputStepTiming::default());
                continue;
            }
            break;
        }
        // first owned step back: announce on TAG_JOIN so the survivors
        // fold this rank into the group at the same boundary, and reset
        // the send-delta state — the first sends back are natural
        // keyframes, never deltas against pre-death receiver state
        let joining = std::mem::take(&mut was_dead);
        if joining {
            if let Some(g) = &group {
                for &r in g.iter().filter(|&&r| r != me) {
                    comm.send_with_size(r, TAG_JOIN + t as u64, (), 8);
                }
            }
            if let Some(p) = &s.faults {
                p.note_rejoin();
            }
            dead.clear();
            delta.clear();
        }
        // catch up on the epoch clock before this step's routing decisions
        input_ticks(comm, s, &mut elastic, &mut delta, &mut tick_cursor, t);
        // elastic reshape: the committed input width overrides the static
        // 2DIP slice plan. Members past the width sit the step out (their
        // slice is empty); the active members re-slice over the narrower
        // live count, exactly like the failover path — same helper, so a
        // reshaped run computes bit-identical slices to a shrunken group.
        let width = elastic.as_ref().map_or(usize::MAX, |e| e.input_width);
        if plan.member >= width {
            timings.push(InputStepTiming::default());
            continue;
        }
        let (fetch_override, lead) = match &group {
            Some(g) => heartbeat_and_slice(comm, s, g, &mut dead, t, joining),
            None => {
                if width < per_group {
                    (Some(member_fetch(s, plan.member, width)), plan.member == 0)
                } else {
                    (None, plan.member == 0)
                }
            }
        };
        let fetch = fetch_override.as_ref().map_or(&plan.fetch, |(f, _)| f);
        let my_span = fetch_override.as_ref().map_or(plan.my_span, |&(_, sp)| sp);
        let mut timing = InputStepTiming::default();
        let (mag, stats) = prepare_step(group_comm, s, fetch, &enhance, t);
        timing.read = stats;
        if lead {
            lic_step(comm, s, t, &mut timing.read);
        }
        let mut send_sp = obs::span(Phase::Send, t as u32);
        for (dst, batch, bytes) in
            pack_batches(s, elastic.as_ref(), my_span, mag.as_deref(), me, t, &mut delta)
        {
            send_sp.add_bytes(bytes);
            comm.send_lossy_with_size(dst, TAG_DATA + t as u64, batch, bytes);
        }
        drop(send_sp);
        timings.push(timing);
    }
    // the controller keeps clocking ticks after my last owned step:
    // stay on the line until the schedule runs out
    input_ticks(comm, s, &mut elastic, &mut delta, &mut tick_cursor, s.steps.saturating_sub(1));
    timings
}

/// Slots in the prefetch hand-off queue and, equally, the cap on how many
/// steps' block sends may be in flight before the consumer waits.
const PREFETCH_SLOTS: usize = 2;

/// The overlapped runtime (ROADMAP "async / overlapped runtime"; paper
/// §4's pipelining claim). A prefetch worker thread runs read, preprocess
/// and pack for future steps (up to [`PREFETCH_SLOTS`] ahead) and hands
/// prepared steps over a bounded queue; the rank thread synthesizes LIC
/// and issues the block sends as non-blocking [`quakeviz_rt::SendHandle`]s,
/// waiting on the oldest step's handles once [`PREFETCH_SLOTS`] steps are
/// in flight. Because an isend completes only when the renderer *matches*
/// the message, that wait throttles input ranks to the consumption rate of
/// the render group instead of running arbitrarily far ahead.
///
/// Deadlock-free: sends of a step are always issued before any wait on an
/// older step, renderers consume steps in monotone order, and the LIC /
/// volume sends stay buffered (plain sends, never waited on).
fn input_main_prefetch(
    comm: &Comm,
    session: &Arc<Obs>,
    s: &Shared,
    plan: &InputPlan,
) -> Vec<InputStepTiming> {
    let enhance = TemporalEnhance::default();
    let mut timings = Vec::with_capacity(plan.my_steps.len());
    // bounded two-slot hand-off: worker blocks when the consumer is two
    // prepared steps behind
    let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, Vec<(usize, BlockBatch, u64)>, ReadStats)>(
        PREFETCH_SLOTS,
    );
    let track = obs::current_attachment();
    let me = comm.rank();
    std::thread::scope(|scope| {
        // `move` hands the worker its own tx: if it dies — a panic
        // (contained below) or the scripted `fail_prefetch` kill — tx
        // drops and the consumer's recv fails instead of blocking forever
        scope.spawn(move || {
            // record the worker's Read/Preprocess/Send(pack) spans on this
            // rank's own track
            let _g = track.as_ref().map(|h| h.attach());
            // a worker panic must not abort the rank through the scope:
            // contain it here and let the closed channel carry the news
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // delta state lives with the packer: the worker walks this
                // rank's steps in order, exactly like the synchronous loop
                let mut delta = DeltaMap::new();
                for &t in &plan.my_steps {
                    if s.faults.as_ref().is_some_and(|p| p.prefetch_failed(t)) {
                        return; // scripted worker death: go silent mid-run
                    }
                    // collective reads are rejected at config validation, so
                    // the worker never needs the group communicator
                    let (mag, stats) = prepare_step(None, s, &plan.fetch, &enhance, t);
                    let mut sp = obs::span(Phase::Send, t as u32);
                    let batches =
                        pack_batches(s, None, plan.my_span, mag.as_deref(), me, t, &mut delta);
                    for (_, _, bytes) in &batches {
                        sp.add_bytes(*bytes);
                    }
                    drop(sp);
                    if tx.send((t, batches, stats)).is_err() {
                        break; // consumer died (panic unwinding)
                    }
                }
            }));
        });
        let mut inflight: std::collections::VecDeque<(usize, Vec<SendHandle>)> =
            std::collections::VecDeque::with_capacity(PREFETCH_SLOTS);
        // once the worker dies, the consumer serves the remaining steps
        // itself, synchronously, with fresh delta state — the forced
        // keyframes decode against any receiver state, so the fallback
        // frames stay bit-identical to an unfaulted run's
        let mut fallback_delta: Option<DeltaMap> = None;
        for &t in &plan.my_steps {
            let handed = if fallback_delta.is_some() {
                None
            } else {
                match rx.recv() {
                    Ok(v) => Some(v),
                    Err(_) => {
                        eprintln!(
                            "quakeviz: rank {me}: prefetch worker died before step {t}; \
                             serving remaining steps synchronously"
                        );
                        fallback_delta = Some(DeltaMap::new());
                        None
                    }
                }
            };
            let (batches, mut stats) = match handed {
                Some((tp, batches, stats)) => {
                    debug_assert_eq!(tp, t, "prefetch worker must deliver steps in order");
                    (batches, stats)
                }
                None => {
                    match &s.faults {
                        Some(p) => p.note_prefetch_fallback(),
                        None => session.metrics().counter("recovery.prefetch_fallbacks").inc(),
                    }
                    let (mag, stats) = prepare_step(None, s, &plan.fetch, &enhance, t);
                    let delta = fallback_delta.as_mut().expect("fallback delta state");
                    let mut sp = obs::span(Phase::Send, t as u32);
                    let batches = pack_batches(s, None, plan.my_span, mag.as_deref(), me, t, delta);
                    for (_, _, bytes) in &batches {
                        sp.add_bytes(*bytes);
                    }
                    drop(sp);
                    (batches, stats)
                }
            };
            if plan.member == 0 {
                lic_step(comm, s, t, &mut stats);
            }
            // backpressure: cap in-flight steps before issuing new sends
            if inflight.len() >= PREFETCH_SLOTS {
                let (t0, handles) = inflight.pop_front().unwrap();
                let _sp = obs::span(Phase::SendWait, t0 as u32);
                wait_all(handles);
            }
            let handles: Vec<SendHandle> = batches
                .into_iter()
                .map(|(dst, batch, bytes)| {
                    comm.isend_lossy_with_size(dst, TAG_DATA + t as u64, batch, bytes)
                })
                .collect();
            inflight.push_back((t, handles));
            timings.push(InputStepTiming { read: stats, ..Default::default() });
        }
        // drain the tail so the trace sees the full send lifetime
        while let Some((t0, handles)) = inflight.pop_front() {
            let _sp = obs::span(Phase::SendWait, t0 as u32);
            wait_all(handles);
        }
    });
    timings
}

// ---------------------------------------------------------------------
// rendering processors
// ---------------------------------------------------------------------

/// Write this render rank's field snapshot for the checkpoint after step
/// `t`; returns its manifest acknowledgement `(rank, checksum)`.
fn write_field_snapshot(s: &Shared, rr: usize, t: usize, field: &NodeField) -> (u32, u64) {
    let next = t + 1;
    let bytes = crate::checkpoint::encode_field(next, field.values());
    let ck = crate::checkpoint::field_checksum(&bytes);
    s.disk.write_file(&crate::checkpoint::field_path(&s.cfg.checkpoint_path, next, rr), bytes);
    (rr as u32, ck)
}

/// Best-effort warm start for a rejoining render rank: its own field
/// snapshot from the latest committed checkpoint, if one exists and
/// verifies. Any failure — no checkpointing configured, no manifest yet,
/// checksum or shape mismatch — just means rendering resumes from zeros
/// until the next data receive refreshes the owned blocks.
fn catchup_field(s: &Shared, rr: usize) -> Option<Vec<f32>> {
    use crate::checkpoint::{self, CheckpointManifest};
    s.cfg.checkpoint_every?;
    let base = &s.cfg.checkpoint_path;
    let mpath = checkpoint::manifest_path(base);
    let (bytes, _) = s.disk.read_full(&mpath).ok()?;
    let manifest = CheckpointManifest::decode(&bytes, &mpath).ok()?;
    if manifest.fingerprint != s.fingerprint {
        return None;
    }
    let (_, ck) = manifest.fields.iter().find(|&&(r, _)| r as usize == rr).copied()?;
    let fpath = checkpoint::field_path(base, manifest.next_step, rr);
    let (fbytes, _) = s.disk.read_full(&fpath).ok()?;
    if checkpoint::field_checksum(&fbytes) != ck {
        return None;
    }
    let (_, values) = checkpoint::decode_field(&fbytes, &fpath).ok()?;
    (values.len() == s.mesh.node_count()).then_some(values)
}

/// Commit the checkpoint after step `t` at the frame assembler: collect
/// the live render ranks' acknowledgements (each sent only after its
/// snapshot hit the file system), write the manifest *last*, then prune
/// every other step's snapshots. A crash before the manifest write
/// leaves the previous checkpoint fully intact and resumable.
fn commit_checkpoint(
    comm: &Comm,
    s: &Shared,
    t: usize,
    local: Option<(u32, u64)>,
    elastic: Option<(&EpochState, &[ControlPlan])>,
) {
    use crate::checkpoint::{self, CheckpointManifest, CHECKPOINT_VERSION};
    let me = comm.rank();
    let next = t + 1;
    let (partition, live) = s.routing(t);
    let mut fields: Vec<(u32, u64)> = local.into_iter().collect();
    for &rr in &live {
        let r = s.n_inputs + rr;
        if r != me {
            fields.push(comm.recv(r, TAG_CKPT + t as u64));
        }
    }
    fields.sort_unstable();
    // elastic runs snapshot the committed epoch: the block map in force
    // and the full plan history, so a resumed run replays the identical
    // epoch sequence before clocking any new ticks
    let (block_map, plans) = match elastic {
        Some((state, history)) => (state.assignment.clone(), history.to_vec()),
        None => {
            let mut block_map = vec![Vec::new(); s.n_renderers];
            for (v, &rr) in live.iter().enumerate() {
                block_map[rr] = partition.blocks_of(v).to_vec();
            }
            (block_map, Vec::new())
        }
    };
    let manifest = CheckpointManifest {
        version: CHECKPOINT_VERSION,
        fingerprint: s.fingerprint,
        next_step: next,
        block_map,
        fields,
        plans,
    };
    let base = &s.cfg.checkpoint_path;
    s.disk.write_file(&checkpoint::manifest_path(base), manifest.encode());
    let keep = format!("{base}/step{next}/");
    let stale = format!("{base}/step");
    for f in s.disk.list_files() {
        if f.starts_with(&stale) && !f.starts_with(&keep) {
            s.disk.remove_file(&f);
        }
    }
}

fn render_main(
    comm: &Comm,
    render_comm: &Comm,
    session: &Arc<Obs>,
    s: &Shared,
    start: Instant,
) -> (Vec<RenderFrameTiming>, Option<OutputTakeover>) {
    let me = comm.rank();
    let rr = me - s.n_inputs; // render-group rank
    let output_rank = s.n_inputs + s.n_renderers;
    let mut field = match s.resume_fields.get(rr) {
        // resume: restore the checkpointed last-known-good field, so
        // degraded post-resume frames reuse the exact stale values an
        // uninterrupted run would
        Some(Some(values)) => NodeField::new(values.clone()),
        _ => NodeField::zeros(&s.mesh),
    };
    let params = RenderParams {
        lighting: s.cfg.lighting.then(LightingParams::default),
        opacity_unit: Some(s.opacity_unit),
        ..Default::default()
    };
    let norm = (0.0f32, s.vmag_max);
    let mut gathers = GatherPlans::default();
    let mut timings = Vec::with_capacity(s.steps);

    // render-group failover state: heartbeats run only when the plan
    // scripts a render-rank death; survivors rebuild the group
    // communicator in lockstep the step they detect the silence
    let hb_active = s.render_failover.is_some();
    let mut live_world: Vec<usize> = (s.n_inputs..s.n_inputs + s.n_renderers).collect();
    let mut failover_comm: Option<Comm> = None;
    let mut my_virtual = rr;
    let mut cur_partition: &Partition = &s.partition;

    // output-failover state (render root only)
    let mut output_dead = false;
    let mut takeover: Option<OutputTakeover> = None;

    // receiver-side temporal-delta state, keyed (src, bid, offset); a
    // resumed run starts empty, matched by the senders' forced keyframes
    let codec = s.wire.codec_for(TagClass::BlockData);
    let mut rx_delta = DeltaMap::new();

    // elastic control-plane state: epoch 0, or a resumed run's replayed
    // plan history. A committed plan regroups the active render prefix
    // only when the prefix actually *changes* — every render rank calls
    // group() in lockstep (non-members get None back), so the derived
    // communicator ids agree without any global coordination, and a
    // rank dormant through rebalance-only commits misses no group()
    // call (which is what makes rejoin possible at all).
    let ctl_rank = s.n_inputs + s.n_renderers;
    let mut epoch_state = s.elastic.clone();
    let mut elastic_comm: Option<Comm> = None;
    let mut grouped_active = s.n_renderers;
    if let Some(e) = epoch_state.as_mut() {
        // a spare world starts with a parked tail: group the initial
        // active prefix before any plan history
        if e.active != grouped_active {
            let members: Vec<usize> = (s.n_inputs..s.n_inputs + e.active).collect();
            elastic_comm = comm.group(&members);
            grouped_active = e.active;
        }
        for p in &s.resume_plans {
            e.apply(p);
            if e.active != grouped_active {
                let members: Vec<usize> = (s.n_inputs..s.n_inputs + e.active).collect();
                elastic_comm = comm.group(&members);
                grouped_active = e.active;
            }
        }
    }

    let nblocks = s.blocks.len();
    for t in s.start_step..s.steps {
        // a scripted failure: this rank stops cold, mid-pipeline, with no
        // farewell — survivors must *detect* it via heartbeat timeouts. A
        // death *window* (a scripted recovery later) keeps the thread
        // parked in-loop: silent, calling no collectives, until rejoin.
        if s.faults.as_ref().is_some_and(|p| p.rank_failed(me, t)) {
            if s.faults.as_ref().is_some_and(|p| p.recovers_later(me, t)) {
                continue;
            }
            break;
        }
        // scheduled rejoin boundary: announce over TAG_JOIN, warm-start
        // from the latest checkpointed field, and revert to the
        // full-membership epoch. An elastic joiner (recovered member or
        // parked spare) announces to the controller and replays the
        // missed plan history with this step's tick; a non-elastic
        // joiner announces to its render peers, who block on it.
        let mut pending_catchup = false;
        let joining = s.rejoin_at(t) == Some(me);
        if joining {
            let _sp = obs::span(Phase::Heartbeat, t as u32);
            if epoch_state.is_some() {
                comm.send_with_size(ctl_rank, TAG_JOIN + t as u64, (), 8);
                pending_catchup = true;
            } else {
                for r in (s.n_inputs..s.n_inputs + s.n_renderers).filter(|&r| r != me) {
                    comm.send_with_size(r, TAG_JOIN + t as u64, (), 8);
                }
            }
            if let Some(p) = &s.faults {
                p.note_rejoin();
            }
            if let Some(values) = catchup_field(s, rr) {
                field = NodeField::new(values);
                if let Some(p) = &s.faults {
                    p.note_catchup_field();
                }
            }
            // receive-delta state resets: the senders keyframe on the
            // rebuilt full-set routes (their delta keys for this window
            // differ from the full-partition keys, so the join epoch
            // starts from natural keyframes either way)
            rx_delta.clear();
            live_world = (s.n_inputs..s.n_inputs + s.n_renderers).collect();
            failover_comm = None;
            my_virtual = rr;
            cur_partition = &s.partition;
        } else if let Some(j) =
            s.rejoin_at(t).filter(|&j| j != me && j >= s.n_inputs && j < s.n_inputs + s.n_renderers)
        {
            // fold the scheduled joiner back in before this step's
            // heartbeats: non-elastic peers block on its announcement,
            // elastic peers just mirror the plan (the controller
            // handshake carries the catch-up)
            if epoch_state.is_none() {
                let () = comm.recv(j, TAG_JOIN + t as u64);
            }
            if !live_world.contains(&j) {
                live_world.push(j);
                live_world.sort_unstable();
            }
            failover_comm = None;
            my_virtual = rr;
            cur_partition = &s.partition;
        }
        if hb_active {
            let _sp = obs::span(Phase::Heartbeat, t as u32);
            let peers: Vec<usize> = live_world.iter().copied().filter(|&r| r != me).collect();
            for &r in &peers {
                comm.send_with_size(r, TAG_HBR + t as u64, (), 8);
            }
            let mut newly_dead = false;
            for &r in &peers {
                // a joiner fast-forwarded through its dormancy window,
                // so its peers may still be steps behind, burning
                // detection timeouts — its first step back must block,
                // not vote on liveness (the validated timeline
                // guarantees the peers are alive)
                if joining {
                    let () = comm.recv(r, TAG_HBR + t as u64);
                } else if comm.try_recv_for::<()>(r, TAG_HBR + t as u64, s.hb_deadline()).is_none()
                {
                    live_world.retain(|&x| x != r);
                    newly_dead = true;
                    if let Some(p) = &s.faults {
                        p.note_render_failover(r, t);
                    }
                }
            }
            if newly_dead && epoch_state.is_none() {
                // every survivor reaches this point at the same step with
                // the same member list: the new communicator ids agree
                failover_comm = comm.group(&live_world);
                let f = s.render_failover.as_ref().expect("scripted render failover");
                my_virtual =
                    f.live.iter().position(|&l| s.n_inputs + l == me).expect("I am a survivor");
                cur_partition = &f.partition;
            } else if newly_dead {
                // elastic kill window: survivors regroup for compositing
                // but keep the committed assignment (overlaid below) —
                // the epoch clock, not the static partition, owns routing
                failover_comm = comm.group(&live_world);
            }
        }
        if s.output_failover_step.is_some() && me == s.n_inputs && !output_dead {
            // output supervision: the render root waits for the output
            // processor's heartbeat and assumes assembly on silence
            let _sp = obs::span(Phase::Heartbeat, t as u32);
            if comm.try_recv_for::<u64>(output_rank, TAG_HBO + t as u64, s.hb_deadline()).is_none()
            {
                output_dead = true;
                if let Some(p) = &s.faults {
                    p.note_output_failover(output_rank, t);
                }
            }
        }
        // elastic epoch clock: the controller's tick arrives before any
        // of this step's data. Apply-on-commit keeps every rank's epoch
        // state in lockstep, and the cleared receive-delta state matches
        // the senders' forced keyframes on the (possibly new) routes.
        if s.control_tick(t) {
            let _sp = obs::span(Phase::Control, t as u32);
            if std::mem::take(&mut pending_catchup) {
                // the controller's reply to this rank's TAG_JOIN: every
                // plan committed during the death window, replayed before
                // the tick so the re-admission proposal applies to the
                // same epoch everywhere (rebalance-only is guaranteed by
                // validation, so no group() call was missed)
                let missed: Vec<ControlPlan> = comm.recv(ctl_rank, TAG_JOIN + t as u64);
                let e = epoch_state.as_mut().expect("rejoin catch-up without elastic state");
                for p in &missed {
                    e.apply(p);
                }
                if let Some(p) = &s.faults {
                    p.note_catchup_plans(missed.len() as u64);
                }
            }
            let proposal: Option<ControlPlan> = comm.recv(ctl_rank, TAG_CTL + t as u64);
            if let Some(plan) = proposal {
                comm.send_with_size(ctl_rank, TAG_CTLA + t as u64, (), 8);
                let committed: bool = comm.recv(ctl_rank, TAG_CTLA + t as u64);
                if committed {
                    let e = epoch_state.as_mut().expect("control tick without elastic state");
                    e.apply(&plan);
                    if e.active != grouped_active {
                        let members: Vec<usize> = (s.n_inputs..s.n_inputs + e.active).collect();
                        elastic_comm = comm.group(&members);
                        grouped_active = e.active;
                    }
                    rx_delta.clear();
                    if let Some(tier) = &s.cache {
                        tier.flush_for_commit(t as u32);
                    }
                }
            }
        }
        if epoch_state.as_ref().is_some_and(|e| rr >= e.active) {
            // shrunk out of the active set this epoch: no data arrives
            // and no fragment is owed, but the rank stays on the epoch
            // clock and the checkpoint barrier
            if s.checkpoint_due(t) {
                let _sp = obs::span(Phase::Checkpoint, t as u32);
                let ack = write_field_snapshot(s, rr, t, &field);
                comm.send_with_size(s.output_dst(t), TAG_CKPT + t as u64, ack, 12);
            }
            continue;
        }
        let active = elastic_comm.as_ref().or(failover_comm.as_ref()).unwrap_or(render_comm);
        // an elastic kill window overlays the dead rank's blocks onto the
        // committed assignment's survivors — the same overlay the input
        // side routes by — until the rejoin tick re-admits it
        let overlay: Option<Vec<Vec<u32>>> = epoch_state.as_ref().and_then(|e| {
            s.elastic_dead_renderer(t).map(|dr| {
                crate::control::overlay_assignment(&e.assignment, e.active, dr, &s.block_weights)
            })
        });
        let my_blocks: &[u32] = match epoch_state.as_ref() {
            Some(e) => overlay.as_ref().map_or(e.assignment[rr].as_slice(), |o| o[rr].as_slice()),
            None => cur_partition.blocks_of(my_virtual),
        };

        let mut recv_sp = obs::span(Phase::Receive, t as u32);
        let mut degraded: Vec<u32> = Vec::new();
        let mut missing = vec![0usize; nblocks];
        match &s.faults {
            // the clean path: a fixed number of senders, blocking
            // receives, checksums verified — byte-identical behaviour to
            // the fault-free pipeline
            None => {
                let n_sources = match s.cfg.io {
                    IoStrategy::OneDip { .. } => 1,
                    IoStrategy::TwoDip { per_group, .. } => {
                        // elastic reshape narrows the sender set to the
                        // committed epoch's input width
                        epoch_state.as_ref().map_or(per_group, |e| e.input_width)
                    }
                };
                // drain whichever member's batch arrives next: the
                // per-step tag already identifies the step, and batches
                // write disjoint (block, offset) slices, so ingest order
                // cannot change the frame
                for _ in 0..n_sources {
                    let (src, batch): (usize, BlockBatch) = comm.recv_any(TAG_DATA + t as u64);
                    recv_sp.add_bytes(batch.iter().map(|p| p.body.len() as u64).sum());
                    let t0 = Instant::now();
                    let _dec_sp = obs::auto_span(Phase::Decode, t as u32);
                    for piece in batch {
                        match ingest_clean(codec, &piece, src, t as u32, &mut rx_delta) {
                            Ok(payload) => {
                                let ids = &s.ids_per_block[piece.bid as usize];
                                for k in 0..payload.len() {
                                    field.set(
                                        ids[piece.offset as usize + k],
                                        payload.get(k, s.vmag_max),
                                    );
                                }
                            }
                            Err(why) => {
                                // a piece no valid sender produces: count
                                // it and degrade the block rather than
                                // aborting the whole run
                                session.metrics().counter("recovery.clean_path_rejects").inc();
                                eprintln!("rank {me}: clean-path ingest reject at step {t}: {why}");
                                if let Err(i) = degraded.binary_search(&piece.bid) {
                                    degraded.insert(i, piece.bid);
                                }
                            }
                        }
                    }
                    s.ledger.record_decode(TagClass::BlockData, t0.elapsed().as_nanos() as u64);
                }
            }
            // under a fault plan the sender set is unknowable (drops,
            // failures): drain until every value of my blocks has been
            // *accounted for* — delivered, reported missing, or rejected
            // by its checksum — or the delivery deadline passes, then
            // degrade whatever is incomplete instead of stalling
            Some(plan) => {
                let mut got = vec![0usize; nblocks];
                let mut seen = vec![0usize; nblocks];
                let step_deadline = Instant::now() + s.deadline();
                let pending = |seen: &[usize]| {
                    my_blocks.iter().any(|&b| seen[b as usize] < s.ids_per_block[b as usize].len())
                };
                while pending(&seen) {
                    let remaining = step_deadline.saturating_duration_since(Instant::now());
                    let Some((src, batch)) =
                        comm.recv_any_for::<BlockBatch>(TAG_DATA + t as u64, remaining)
                    else {
                        break; // deadline: degrade, don't stall the frame
                    };
                    recv_sp.add_bytes(batch.iter().map(|p| p.body.len() as u64).sum());
                    let t0 = Instant::now();
                    let _dec_sp = obs::auto_span(Phase::Decode, t as u32);
                    for piece in batch {
                        let b = piece.bid as usize;
                        if piece_checksum(&piece) != piece.checksum {
                            // accounted, never ingested — and never fed to the
                            // codec: corruption is caught on the encoded bytes
                            seen[b] += piece.value_len();
                            plan.note_checksum_failure();
                            continue;
                        }
                        match decode_piece(codec, &piece, src, t as u32, &mut rx_delta) {
                            Ingest::Missing(n) => {
                                seen[b] += n as usize;
                                missing[b] += n as usize;
                            }
                            Ingest::Reject(_) => {
                                // verified envelope but unusable contents
                                // (e.g. delta base lost to an earlier fault):
                                // treat like a drop and let degradation cover
                                seen[b] += piece.value_len();
                                plan.note_wire_reject();
                            }
                            Ingest::Data(payload) => {
                                seen[b] += payload.len();
                                let ids = &s.ids_per_block[b];
                                for k in 0..payload.len() {
                                    field.set(
                                        ids[piece.offset as usize + k],
                                        payload.get(k, s.vmag_max),
                                    );
                                }
                                got[b] += payload.len();
                            }
                        }
                    }
                    s.ledger.record_decode(TagClass::BlockData, t0.elapsed().as_nanos() as u64);
                }
                degraded = my_blocks
                    .iter()
                    .copied()
                    .filter(|&b| got[b as usize] < s.ids_per_block[b as usize].len())
                    .collect();
                degraded.sort_unstable();
            }
        }
        drop(recv_sp);

        // render my blocks; degraded blocks (incomplete data this step)
        // drop one resident octree level — their stale nodes keep the
        // last-known-good values, and the coarser tiling reads only the
        // corner subset, shrinking the visual footprint of the gap
        let render_sp = obs::span(Phase::Render, t as u32);
        let render_t0 = Instant::now();
        let mut frags: Vec<Fragment> = Vec::new();
        for &bid in my_blocks {
            let block = &s.blocks[bid as usize];
            let level = if degraded.binary_search(&bid).is_ok() {
                s.level.saturating_sub(1)
            } else {
                s.level
            };
            if let Some(f) = quakeviz_render::render_block(
                &mut gathers,
                &s.mesh,
                &field,
                block,
                level,
                norm,
                &s.camera,
                &s.cfg.transfer,
                &params,
            ) {
                frags.push(f);
            }
        }
        // scripted load skew: stretch this rank's render phase by the
        // plan's factor, inside the Render span, so the controller sees
        // real measured imbalance to rebalance away
        if let Some(f) = s.faults.as_ref().map(|p| p.slow_rank_factor(me)) {
            if f > 1.0 {
                std::thread::sleep(render_t0.elapsed().mul_f64(f - 1.0));
            }
        }
        drop(render_sp);

        // composite across the (surviving) render group with SLIC: the
        // schedule is recomputed from this epoch's FrameInfo over the
        // active communicator, whose rank 0 — the lowest live renderer —
        // collects the frame
        let comp_sp = obs::span(Phase::Composite, t as u32);
        let info = FrameInfo::exchange(active, &frags, &s.order_ids, s.cfg.width, s.cfg.height);
        let result = slic(active, &frags, &info, 0, CompositeOptions::default());
        drop(comp_sp);

        // this step's degradation flags: blocks the input side reported
        // missing outright vs. blocks rendered coarser after a deadline
        // or checksum rejection
        let deg_flags: Vec<Degradation> = degraded
            .iter()
            .map(|&b| {
                if missing[b as usize] > 0 {
                    Degradation::MissingBlock { block: b }
                } else {
                    Degradation::CoarserLevel { block: b }
                }
            })
            .collect();
        // pool the degradation flags at the active root for the frame's
        // quality flag
        let merged: Option<Vec<Degradation>> = if s.faults.is_some() {
            active.gather(0, deg_flags).map(|lists| {
                let mut m: Vec<Degradation> = lists.into_iter().flatten().collect();
                m.sort_unstable();
                m.dedup();
                m
            })
        } else {
            None
        };

        if s.output_alive(t) {
            if let Some(img) = result.image {
                let (msg, bytes) = encode_image(s, TagClass::VolumeImage, t as u32, img);
                comm.send_with_size(output_rank, TAG_VOL + t as u64, msg, bytes);
            }
            if let Some(m) = merged {
                let bytes = m.len() as u64 * 8;
                comm.send_with_size(output_rank, TAG_DEG + t as u64, m, bytes);
            }
        } else if let Some(mut vol) = result.image {
            // output-failover epoch: the supervising render root assumes
            // frame assembly — frames continue, tagged migrated, never
            // skipped silently
            let tk = takeover.get_or_insert_with(|| OutputTakeover {
                frames: Vec::new(),
                done_at: Vec::new(),
                degraded: Vec::new(),
                checkpoints: 0,
            });
            let mut deg = merged.unwrap_or_default();
            let mut sp = obs::span(Phase::Assemble, t as u32);
            if s.surface.is_some() {
                let lic_src = lic_source(s, t);
                let (lic_msg, lic_missing): (WireImage, bool) =
                    comm.recv(lic_src, TAG_LIC + t as u64);
                match decode_image(s, TagClass::LicImage, t as u32, lic_msg) {
                    Ok(lic_img) => {
                        sp.add_bytes((lic_img.width() * lic_img.height() * 16) as u64);
                        vol.over_inplace(&lic_img);
                    }
                    Err(why) => {
                        // ship the frame without its overlay rather than
                        // aborting the takeover epoch
                        note_corrupt_image(session, s, why, t);
                        deg.push(Degradation::CorruptImage);
                    }
                }
                if lic_missing {
                    deg.push(Degradation::MissingLic);
                }
            }
            drop(sp);
            deg.push(Degradation::MigratedEpoch);
            if let Some(plan) = &s.faults {
                plan.note_migrated_frame();
                plan.note_degraded_frame(deg.iter().filter(|d| d.block().is_some()).count() as u64);
            }
            tk.degraded.push(deg);
            tk.done_at.push(start.elapsed().as_secs_f64());
            session.metrics().counter("pipeline.frames").inc();
            session
                .metrics()
                .counter("pipeline.frame_bytes")
                .add((vol.width() * vol.height() * 16) as u64);
            if s.cfg.keep_frames {
                tk.frames.push(vol);
            }
        }

        // checkpoint boundary: snapshot my resident field, then either
        // acknowledge to the assembler or — if I am the assembler — commit
        // the manifest myself after collecting the other survivors
        if s.checkpoint_due(t) {
            let _sp = obs::span(Phase::Checkpoint, t as u32);
            let ack = write_field_snapshot(s, rr, t, &field);
            let dst = s.output_dst(t);
            if dst == me {
                commit_checkpoint(comm, s, t, Some(ack), None);
                if let Some(tk) = takeover.as_mut() {
                    tk.checkpoints += 1;
                }
            } else {
                comm.send_with_size(dst, TAG_CKPT + t as u64, ack, 12);
            }
        }
    }

    // derive the per-frame timings from the span stream
    let events = obs::current_events();
    for t in s.start_step..s.steps {
        timings.push(RenderFrameTiming {
            receive_s: phase_seconds_by_step(&events, Phase::Receive, t),
            render_s: phase_seconds_by_step(&events, Phase::Render, t),
            composite_s: phase_seconds_by_step(&events, Phase::Composite, t),
        });
    }
    (timings, takeover)
}

// ---------------------------------------------------------------------
// output processor
// ---------------------------------------------------------------------

/// Condense the live span stream into the controller's view of steps
/// `[lo, hi)`: per-render-rank busy seconds in the Render phase, and the
/// input side's aggregate busy/send seconds. Complete by construction —
/// the controller measures at tick `hi` only after assembling frame
/// `hi - 1`, which every rank finishes (and drops its spans for) first.
fn measure_window(session: &Arc<Obs>, s: &Shared, lo: usize, hi: usize) -> WindowMeasurement {
    let mut m = WindowMeasurement {
        render_busy: vec![0.0; s.n_renderers],
        input_busy: 0.0,
        send_busy: 0.0,
        steps: hi.saturating_sub(lo),
    };
    for rec in session.recorders() {
        let group = rec.group();
        if group == "render" {
            let Some(rr) = rec.rank().checked_sub(s.n_inputs).filter(|&r| r < s.n_renderers) else {
                continue;
            };
            for ev in rec.events() {
                let t = ev.step as usize;
                if t >= lo && t < hi && ev.phase == Phase::Render {
                    m.render_busy[rr] += ev.dur_us as f64 / 1e6;
                }
            }
        } else if group == "input" {
            for ev in rec.events() {
                let t = ev.step as usize;
                if t < lo || t >= hi {
                    continue;
                }
                match ev.phase {
                    Phase::Read | Phase::Preprocess | Phase::Lic => {
                        m.input_busy += ev.dur_us as f64 / 1e6;
                    }
                    Phase::Send => {
                        m.input_busy += ev.dur_us as f64 / 1e6;
                        m.send_busy += ev.dur_us as f64 / 1e6;
                    }
                    _ => {}
                }
            }
        }
    }
    m
}

fn output_main(comm: &Comm, session: &Arc<Obs>, s: &Shared, start: Instant) -> RankResult {
    let me = s.n_inputs + s.n_renderers;
    let mut frames = Vec::new();
    let mut done_at = Vec::with_capacity(s.steps);
    let mut degraded: Vec<Vec<Degradation>> = Vec::with_capacity(s.steps);
    let mut checkpoints = 0u64;
    let m_frames = session.metrics().counter("pipeline.frames");
    let m_bytes = session.metrics().counter("pipeline.frame_bytes");
    let m_latency = session.metrics().histogram("pipeline.interframe_us");
    let mut prev = 0.0f64;
    // the hosted elastic controller: seeded from epoch 0, fast-forwarded
    // through a resumed checkpoint's plan history so new ticks continue
    // the epoch sequence instead of restarting it
    let mut controller: Option<Controller> = s.elastic.as_ref().map(|init| {
        let per_group = match s.cfg.io {
            IoStrategy::TwoDip { per_group, .. } => per_group,
            IoStrategy::OneDip { .. } => 1,
        };
        let cfg = s.cfg.control.expect("elastic state implies control config");
        let mut c = Controller::new(cfg, init.clone(), per_group);
        c.replay(&s.resume_plans);
        c
    });
    let mut kill_noted = false;
    for t in s.start_step..s.steps {
        if s.faults.as_ref().is_some_and(|p| p.rank_failed(me, t)) {
            // scripted output-rank death: go silent; the supervising
            // render root takes over frame assembly from this step on
            break;
        }
        if s.output_failover_step.is_some() {
            // a supervised run: heartbeat to the render root so it can
            // detect the scripted death by silence
            comm.send_with_size(s.n_inputs, TAG_HBO + t as u64, t as u64, 8);
        }
        // elastic epoch clock: host the scheduled tick. A scripted
        // controller kill is mirrored from the shared plan — the tick
        // happens *nowhere*, every participant degrades to the last
        // committed epoch, and the frame cadence below never stalls.
        if let Some(ctl) = controller.as_mut() {
            if ctl.cfg.is_tick(t) && t > s.start_step {
                if s.controller_dead(t) {
                    if !kill_noted {
                        kill_noted = true;
                        if let Some(p) = &s.faults {
                            p.note_controller_kill(t);
                        }
                    }
                } else {
                    let _sp = obs::span(Phase::Control, t as u32);
                    let lo = t.saturating_sub(ctl.cfg.every).max(s.start_step);
                    let m = measure_window(session, s, lo, t);
                    // a rejoin scheduled at this tick: consume the
                    // joiner's announcement, reply with the plans it
                    // missed, and force a capacity-aware re-admission
                    // plan (grown by one for a spare-pool join) instead
                    // of the free decision
                    let proposal = if let Some(j) = s.rejoin_at(t) {
                        let () = comm.recv(j, TAG_JOIN + t as u64);
                        let since = s
                            .faults
                            .as_ref()
                            .and_then(|p| {
                                p.membership_timeline().iter().rev().find_map(|ev| match *ev {
                                    MembershipEvent::Fail { step, .. } if step < t => Some(step),
                                    _ => None,
                                })
                            })
                            .unwrap_or(usize::MAX); // spare join: missed nothing
                                                    // a resumed joiner already replayed the
                                                    // checkpointed history — only ship plans it
                                                    // could not have seen
                        let lo = since.max(s.start_step);
                        let missed: Vec<ControlPlan> = ctl
                            .history
                            .iter()
                            .filter(|c| (c.apply_at as usize) >= lo && (c.apply_at as usize) < t)
                            .cloned()
                            .collect();
                        comm.send_with_size(j, TAG_JOIN + t as u64, missed, 64);
                        let grow = s.faults.as_ref().is_some_and(|p| p.spare_join().is_some());
                        Some(ctl.admit_plan(&m, &s.block_weights, t as u32, grow))
                    } else {
                        ctl.decide(&m, &s.block_weights, t as u32)
                    };
                    session.metrics().counter("control.ticks").inc();
                    // participants exclude ranks scripted dead at this
                    // tick: a dormant rank neither acks nor applies — it
                    // catches up through the join handshake instead
                    let participants: Vec<usize> = (0..s.n_inputs + s.n_renderers)
                        .filter(|&p| !s.faults.as_ref().is_some_and(|f| f.rank_failed(p, t)))
                        .collect();
                    for &p in &participants {
                        comm.send_with_size(p, TAG_CTL + t as u64, proposal.clone(), 64);
                    }
                    if let Some(plan) = proposal {
                        // two-phase commit: every participant acks the
                        // proposal before anyone is told to apply it — a
                        // plan that fails to ack commits nowhere
                        for &p in &participants {
                            comm.recv::<()>(p, TAG_CTLA + t as u64);
                        }
                        for &p in &participants {
                            comm.send_with_size(p, TAG_CTLA + t as u64, true, 1);
                        }
                        ctl.commit(&plan);
                        if let Some(tier) = &s.cache {
                            tier.flush_for_commit(t as u32);
                        }
                    }
                }
            }
        }
        let frame_src = s.frame_source(t);
        let mut sp = obs::span(Phase::Assemble, t as u32);
        let vol_msg: WireImage = comm.recv(frame_src, TAG_VOL + t as u64);
        let (mut vol, vol_corrupt) = match decode_image(s, TagClass::VolumeImage, t as u32, vol_msg)
        {
            Ok(img) => (img, false),
            Err(why) => {
                // an undecodable frame body degrades this frame to blank
                // instead of aborting the whole run
                note_corrupt_image(session, s, why, t);
                (RgbaImage::new(s.cfg.width, s.cfg.height), true)
            }
        };
        sp.add_bytes((vol.width() * vol.height() * 16) as u64);
        let mut deg: Vec<Degradation> = match &s.faults {
            Some(_) => comm.recv(frame_src, TAG_DEG + t as u64),
            None => Vec::new(),
        };
        if vol_corrupt {
            deg.push(Degradation::CorruptImage);
        }
        if s.surface.is_some() {
            let lic_src = lic_source(s, t);
            let (lic_msg, lic_missing): (WireImage, bool) = comm.recv(lic_src, TAG_LIC + t as u64);
            match decode_image(s, TagClass::LicImage, t as u32, lic_msg) {
                Ok(lic_img) => {
                    sp.add_bytes((lic_img.width() * lic_img.height() * 16) as u64);
                    // the volume rendering sits in front of the surface
                    vol.over_inplace(&lic_img);
                }
                Err(why) => {
                    // ship the frame without its overlay
                    note_corrupt_image(session, s, why, t);
                    deg.push(Degradation::CorruptImage);
                }
            }
            if lic_missing {
                deg.push(Degradation::MissingLic);
            }
        }
        drop(sp);
        if !deg.is_empty() {
            if let Some(plan) = &s.faults {
                plan.note_degraded_frame(deg.iter().filter(|d| d.block().is_some()).count() as u64);
            }
        }
        // only pristine frames are cached: a degraded frame must be
        // recomputed next run, when the fault may not recur
        if deg.is_empty() {
            if let Some(tier) = &s.cache {
                if tier.frames.enabled() {
                    tier.frames.insert(s.frame_key(t), &vol);
                }
            }
        }
        degraded.push(deg);
        let now = start.elapsed().as_secs_f64();
        m_frames.inc();
        m_bytes.add((vol.width() * vol.height() * 16) as u64);
        m_latency.record(((now - prev) * 1e6) as u64);
        prev = now;
        done_at.push(now);
        if s.cfg.keep_frames {
            frames.push(vol);
        }
        if s.checkpoint_due(t) {
            let _sp = obs::span(Phase::Checkpoint, t as u32);
            let elastic = controller.as_ref().map(|c| (&c.state, c.history.as_slice()));
            commit_checkpoint(comm, s, t, None, elastic);
            checkpoints += 1;
        }
    }
    RankResult::Output {
        frames,
        done_at,
        degraded,
        checkpoints,
        plans: controller.map_or(Vec::new(), |c| c.history),
    }
}

/// Which input rank ships the LIC overlay for step `t`: the step group's
/// lead, skipping members the fault plan has scripted dead by that step
/// (the survivors hand LIC duty to the lowest live member — the output
/// processor derives the same answer from the deterministic plan).
fn lic_source(s: &Shared, t: usize) -> usize {
    match s.cfg.io {
        IoStrategy::OneDip { input_procs } => t % input_procs,
        IoStrategy::TwoDip { groups, per_group } => {
            let base = (t % groups) * per_group;
            (base..base + per_group)
                .find(|&r| !s.faults.as_ref().is_some_and(|p| p.rank_failed(r, t)))
                .unwrap_or(base)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineBuilder;
    use quakeviz_seismic::SimulationBuilder;

    fn dataset() -> Dataset {
        SimulationBuilder::new().resolution(16).steps(4).run_to_dataset().unwrap()
    }

    /// The resume fingerprint must ignore run-length and checkpoint
    /// bookkeeping (a killed `max_steps=j` run's checkpoint resumes into
    /// the full run) but reject anything that reshapes the frames.
    #[test]
    fn config_fingerprint_excludes_run_length() {
        let base = PipelineConfig::default();
        let camera = Camera::default_for(
            &Aabb::from_extent(quakeviz_mesh::Vec3 { x: 1.0, y: 1.0, z: 1.0 }),
            base.width,
            base.height,
        );
        let fp = |c: &PipelineConfig| config_fingerprint(c, 3, &camera);
        let mut killed = base.clone();
        killed.max_steps = Some(2);
        killed.checkpoint_every = Some(2);
        killed.checkpoint_path = "elsewhere".into();
        killed.resume = true;
        assert_eq!(fp(&base), fp(&killed), "run length must not invalidate a checkpoint");
        let mut reshaped = base.clone();
        reshaped.width = 97;
        assert_ne!(fp(&base), fp(&reshaped), "image geometry must invalidate a checkpoint");
        let mut refaulted = base.clone();
        refaulted.faults = Some(FaultSpec::parse("seed=1,read_transient=0.5").unwrap());
        assert_ne!(fp(&refaulted), fp(&reshaped), "the fault schedule shapes frames");
        // wire codecs shape bytes in flight, never decoded values: a
        // checkpoint written under one codec must resume under another
        let mut recoded = base.clone();
        recoded.wire = Some(WireSpec::parse("rle,delta,keyframe=3").unwrap());
        assert_eq!(fp(&base), fp(&recoded), "wire codec must not invalidate a checkpoint");
        // caches and sharding change costs, never decoded values or frames
        let mut cached = base.clone();
        cached.cache = Some(crate::cache::CacheConfig { blocks_mb: 8, frames: 8 });
        cached.ost_shards = 4;
        assert_eq!(fp(&base), fp(&cached), "cache/shard knobs must not invalidate a checkpoint");
    }

    /// Degradation flags order blocks first and frame-level flags last,
    /// and print compactly for the report tooling.
    #[test]
    fn degradation_flags_order_and_display() {
        let mut flags = [
            Degradation::MigratedEpoch,
            Degradation::CorruptImage,
            Degradation::MissingLic,
            Degradation::MissingBlock { block: 7 },
            Degradation::CoarserLevel { block: 2 },
        ];
        flags.sort_unstable();
        let shown: Vec<String> = flags.iter().map(|d| d.to_string()).collect();
        assert_eq!(shown, ["coarser:2", "missing:7", "no-lic", "corrupt-image", "migrated"]);
        assert_eq!(flags[0].block(), Some(2));
        assert_eq!(flags[3].block(), None);
        assert_eq!(flags[4].block(), None);
    }

    /// A wire body that fails to decode must surface as an `Err`, never
    /// panic: the callers degrade the frame and count the reject.
    #[test]
    fn corrupt_image_bodies_are_rejected_not_fatal() {
        // RLE stream truncated mid-run: undecodable
        assert!(decode_image_bytes(Codec::Rle, 2, 2, true, &[7]).is_err());
        // raw body of the wrong length for the claimed geometry
        assert!(decode_image_bytes(Codec::Raw, 2, 2, false, &[0u8; 16]).is_err());
        // the happy path still round-trips a well-formed raw body
        let good = vec![0u8; 2 * 2 * 16];
        let img = decode_image_bytes(Codec::Raw, 2, 2, false, &good).expect("decodes");
        assert_eq!((img.width(), img.height()), (2, 2));
    }

    #[test]
    fn quickstart_pipeline_produces_frames() {
        let ds = dataset();
        let report = PipelineBuilder::new(&ds)
            .renderers(3)
            .io_strategy(IoStrategy::OneDip { input_procs: 2 })
            .image_size(96, 96)
            .run()
            .expect("pipeline");
        assert_eq!(report.frames.len(), 4);
        assert_eq!(report.frame_done.len(), 4);
        assert!(report.mean_interframe_delay() > 0.0);
        // frames must not all be empty: late steps carry waves
        let busy = report.frames.iter().any(|f| f.pixels().iter().any(|p| p[3] > 0.01));
        assert!(busy, "no frame shows any volume contribution");
    }

    #[test]
    fn onedip_and_twodip_render_identical_frames() {
        let ds = dataset();
        let run = |io: IoStrategy, renderers: usize| {
            PipelineBuilder::new(&ds)
                .renderers(renderers)
                .io_strategy(io)
                .image_size(64, 64)
                .run()
                .expect("pipeline")
        };
        let a = run(IoStrategy::OneDip { input_procs: 1 }, 2);
        let b = run(IoStrategy::OneDip { input_procs: 3 }, 4);
        let c = run(IoStrategy::TwoDip { groups: 2, per_group: 2 }, 3);
        for t in 0..ds.steps() {
            let d_ab = a.frames[t].rms_difference(&b.frames[t]);
            let d_ac = a.frames[t].rms_difference(&c.frames[t]);
            assert!(d_ab < 1e-6, "frame {t}: 1DIP configs differ (rms {d_ab})");
            assert!(d_ac < 1e-6, "frame {t}: 2DIP differs from 1DIP (rms {d_ac})");
        }
    }

    #[test]
    fn collective_read_strategy_matches_independent() {
        let ds = dataset();
        let run = |read: ReadStrategy| {
            PipelineBuilder::new(&ds)
                .renderers(2)
                .io_strategy(IoStrategy::TwoDip { groups: 1, per_group: 3 })
                .read_strategy(read)
                .image_size(64, 64)
                .max_steps(2)
                .run()
                .expect("pipeline")
        };
        let a = run(ReadStrategy::IndependentContiguous);
        let b = run(ReadStrategy::CollectiveNoncontiguous { sieve_window: 4096 });
        for t in 0..2 {
            assert!(a.frames[t].rms_difference(&b.frames[t]) < 1e-6, "frame {t} differs");
        }
    }

    #[test]
    fn adaptive_fetch_close_to_full_at_coarse_level() {
        let ds = dataset();
        let level = ds.mesh().octree().max_leaf_level() - 1;
        let run = |fetch: bool| {
            PipelineBuilder::new(&ds)
                .renderers(2)
                .io_strategy(IoStrategy::OneDip { input_procs: 2 })
                .image_size(64, 64)
                .level(level)
                .adaptive_fetch(fetch)
                .max_steps(3)
                .run()
                .expect("pipeline")
        };
        let full = run(false);
        let adaptive = run(true);
        // identical pixels: the coarse level only touches the fetched nodes
        for t in 0..3 {
            let d = full.frames[t].rms_difference(&adaptive.frames[t]);
            assert!(d < 1e-6, "frame {t}: adaptive fetch changed the image (rms {d})");
        }
        // and read strictly less
        let full_bytes: u64 = full.input_steps.iter().map(|s| s.read.useful_bytes).sum();
        let adaptive_bytes: u64 = adaptive.input_steps.iter().map(|s| s.read.useful_bytes).sum();
        assert!(
            adaptive_bytes < full_bytes,
            "adaptive fetch must read fewer bytes ({adaptive_bytes} vs {full_bytes})"
        );
    }

    #[test]
    fn enhancement_and_lighting_and_lic_run() {
        let ds = dataset();
        let report = PipelineBuilder::new(&ds)
            .renderers(2)
            .io_strategy(IoStrategy::OneDip { input_procs: 2 })
            .image_size(64, 64)
            .enhancement(true)
            .lighting(true)
            .lic(true)
            .max_steps(3)
            .run()
            .expect("pipeline");
        assert_eq!(report.frames.len(), 3);
        // LIC overlay gives every pixel some alpha on the surface rect
        let last = &report.frames[2];
        let covered = last.pixels().iter().filter(|p| p[3] > 0.0).count();
        assert!(covered > 0);
        // lic timing recorded on lead input processors
        assert!(report.input_steps.iter().any(|s| s.lic_s > 0.0));
    }

    #[test]
    fn io_hiding_more_input_procs_faster() {
        // inject simulated I/O delay so the real pipeline becomes
        // I/O-bound, then verify more input processors hide it (Fig 8)
        let ds = dataset();
        let run = |m: usize| {
            PipelineBuilder::new(&ds)
                .renderers(2)
                .io_strategy(IoStrategy::OneDip { input_procs: m })
                .image_size(48, 48)
                .keep_frames(false)
                .io_delay_scale(50.0)
                .run()
                .expect("pipeline")
                .total_seconds()
        };
        let t1 = run(1);
        let t3 = run(3);
        assert!(t3 < t1 * 0.75, "3 input processors should hide I/O: {t3:.3}s vs {t1:.3}s with 1");
    }

    #[test]
    fn quantization_shrinks_traffic_with_tiny_image_error() {
        let ds = dataset();
        let run = |q: bool| {
            PipelineBuilder::new(&ds)
                .renderers(2)
                .io_strategy(IoStrategy::OneDip { input_procs: 2 })
                .image_size(64, 64)
                .quantize(q)
                // the full-vs-quantized byte ratio below is about payload
                // width, not wire compression: pin the raw codec so a
                // QUAKEVIZ_CODEC environment (the CI codec matrix) cannot
                // shrink one side's traffic differently
                .wire_spec(WireSpec::raw())
                .run()
                .expect("pipeline")
        };
        let full = run(false);
        let quant = run(true);
        // value error ≤ 1/255 of the range: imperceptible in the frame
        for t in 0..ds.steps() {
            let d = full.frames[t].rms_difference(&quant.frames[t]);
            assert!(d < 0.01, "frame {t}: quantization error too visible (rms {d})");
        }
        // block-distribution traffic shrinks towards 1/4 (other traffic —
        // images, FrameInfo — is shared, so total is between 1/4 and 1)
        assert!(
            quant.bytes_sent < full.bytes_sent * 9 / 10,
            "quantization should cut traffic: {} vs {}",
            quant.bytes_sent,
            full.bytes_sent
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let ds = dataset();
        let err = |b: PipelineBuilder| match b.run() {
            Err(e) => e,
            Ok(_) => panic!("config must be rejected"),
        };
        assert!(err(PipelineBuilder::new(&ds).renderers(0)).contains("rendering processor"));
        assert!(err(PipelineBuilder::new(&ds).io_strategy(IoStrategy::OneDip { input_procs: 0 }))
            .contains("input processor"));
        assert!(err(
            PipelineBuilder::new(&ds).io_strategy(IoStrategy::TwoDip { groups: 0, per_group: 2 })
        )
        .contains("input group"));
        assert!(err(
            PipelineBuilder::new(&ds).io_strategy(IoStrategy::TwoDip { groups: 2, per_group: 0 })
        )
        .contains("input processor"));
        assert!(err(PipelineBuilder::new(&ds)
            .io_strategy(IoStrategy::TwoDip { groups: usize::MAX, per_group: 2 }))
        .contains("overflows"));
        // group width wider than the mesh: members would own empty slices
        let nodes = ds.mesh().node_count();
        assert!(err(PipelineBuilder::new(&ds)
            .io_strategy(IoStrategy::TwoDip { groups: 1, per_group: nodes + 1 }))
        .contains("exceeds the mesh"));
        // prefetch cannot drive the lock-step collective group read
        assert!(err(PipelineBuilder::new(&ds)
            .io_strategy(IoStrategy::TwoDip { groups: 1, per_group: 2 })
            .read_strategy(ReadStrategy::CollectiveNoncontiguous { sieve_window: 1 << 16 })
            .prefetch(true))
        .contains("prefetch requires"));
        assert!(err(PipelineBuilder::new(&ds).max_steps(0)).contains("step"));
        // elastic control-plane constraints
        assert!(err(PipelineBuilder::new(&ds).elastic(0)).contains("control tick period"));
        assert!(err(PipelineBuilder::new(&ds).elastic(2).prefetch(true))
            .contains("cannot run with the prefetch"));
        // reshape needs a 2DIP group wide enough to narrow
        assert!(err(PipelineBuilder::new(&ds)
            .elastic(2)
            .elastic_reshape(true)
            .io_strategy(IoStrategy::OneDip { input_procs: 2 }))
        .contains("reshape requires"));
        // a scripted rank kill would never ack a plan proposal
        assert!(err(PipelineBuilder::new(&ds)
            .renderers(3)
            .elastic(2)
            .faults(quakeviz_rt::FaultSpec::parse("fail_rank=3@2").unwrap()))
        .contains("scripted rank failure"));
    }

    #[test]
    fn prefetch_runtime_smoke() {
        let ds = dataset();
        let report = PipelineBuilder::new(&ds)
            .renderers(2)
            .io_strategy(IoStrategy::OneDip { input_procs: 2 })
            .image_size(64, 64)
            .prefetch(true)
            .run()
            .expect("prefetch pipeline");
        assert!(report.prefetch);
        assert_eq!(report.frames.len(), 4);
        let busy = report.frames.iter().any(|f| f.pixels().iter().any(|p| p[3] > 0.01));
        assert!(busy, "no frame shows any volume contribution");
    }

    #[test]
    fn prefetch_collective_read_allowed_for_onedip() {
        // 1DIP has no group comm: the collective strategy degrades to the
        // independent read and stays prefetch-compatible
        let ds = dataset();
        let report = PipelineBuilder::new(&ds)
            .renderers(2)
            .io_strategy(IoStrategy::OneDip { input_procs: 2 })
            .read_strategy(ReadStrategy::CollectiveNoncontiguous { sieve_window: 1 << 16 })
            .image_size(48, 48)
            .prefetch(true)
            .run()
            .expect("pipeline");
        assert_eq!(report.frames.len(), 4);
    }

    /// A well-formed piece round-trips through the clean receive path.
    #[test]
    fn ingest_clean_accepts_a_valid_piece() {
        let spec = WireSpec::parse("rle").unwrap();
        let payload = Payload::F32(vec![0.25, 0.5, 0.75, 1.0]);
        let mut tx = DeltaMap::new();
        let piece = pack_piece(
            &spec,
            spec.codec_for(TagClass::BlockData),
            (3, 7, 0),
            &payload,
            1,
            &mut tx,
            true,
        );
        let mut rx = DeltaMap::new();
        let got = ingest_clean(spec.codec_for(TagClass::BlockData), &piece, 0, 1, &mut rx)
            .expect("valid piece ingests");
        assert_eq!(got.raw_bytes(), payload.raw_bytes());
    }

    /// Regression: a corrupt body on the *clean* path (no fault plan) used
    /// to trip the receive-side `expect` — it must come back as a typed
    /// rejection the caller degrades on, never a panic.
    #[test]
    fn ingest_clean_rejects_corruption_instead_of_panicking() {
        let spec = WireSpec::parse("rle").unwrap();
        let payload = Payload::F32(vec![0.25, 0.5, 0.75, 1.0]);
        let mut tx = DeltaMap::new();
        let mut piece = pack_piece(
            &spec,
            spec.codec_for(TagClass::BlockData),
            (3, 7, 0),
            &payload,
            1,
            &mut tx,
            true,
        );
        piece.body[0] ^= 0x40;
        let mut rx = DeltaMap::new();
        let err =
            ingest_clean(spec.codec_for(TagClass::BlockData), &piece, 0, 1, &mut rx).unwrap_err();
        assert_eq!(err, "checksum mismatch");
        assert!(rx.is_empty(), "a rejected piece must not advance receiver delta state");
    }

    /// Regression: a missing marker is fault-plan bookkeeping — arriving
    /// without a plan it is rejected, not ingested and not a panic.
    #[test]
    fn ingest_clean_rejects_stray_missing_marker() {
        let spec = WireSpec::parse("raw").unwrap();
        let mut tx = DeltaMap::new();
        let piece = pack_piece(
            &spec,
            spec.codec_for(TagClass::BlockData),
            (3, 7, 0),
            &Payload::Missing(16),
            1,
            &mut tx,
            true,
        );
        let mut rx = DeltaMap::new();
        let err =
            ingest_clean(spec.codec_for(TagClass::BlockData), &piece, 0, 1, &mut rx).unwrap_err();
        assert_eq!(err, "missing marker without a fault plan");
    }

    /// Regression: a delta piece whose base the receiver never decoded
    /// (e.g. state cleared at a rejoin boundary) is a typed rejection.
    #[test]
    fn ingest_clean_rejects_delta_with_unavailable_base() {
        let spec = WireSpec::parse("rle,delta,keyframe=4").unwrap();
        let payload = Payload::F32(vec![0.25, 0.5, 0.75, 1.0]);
        let mut tx = DeltaMap::new();
        // step 1 primes the sender lane, step 2 emits a true delta piece
        let _ = pack_piece(
            &spec,
            spec.codec_for(TagClass::BlockData),
            (3, 7, 0),
            &payload,
            1,
            &mut tx,
            true,
        );
        let next = Payload::F32(vec![0.5, 0.5, 0.75, 1.5]);
        let piece = pack_piece(
            &spec,
            spec.codec_for(TagClass::BlockData),
            (3, 7, 0),
            &next,
            2,
            &mut tx,
            true,
        );
        assert_ne!(piece.base_step, KEYFRAME, "step 2 must actually delta");
        let mut rx = DeltaMap::new();
        let err =
            ingest_clean(spec.codec_for(TagClass::BlockData), &piece, 0, 2, &mut rx).unwrap_err();
        assert_eq!(err, "delta base unavailable");
    }
}
