//! # quakeviz-render
//!
//! The parallel adaptive volume renderer (paper §4).
//!
//! Each rendering processor owns a set of octree *blocks*; for every frame
//! it resamples its blocks into regular [`brick`]s at the selected octree
//! level, ray-casts each brick into a screen-space [`Fragment`], and hands
//! the fragments to the compositing stage. The pieces:
//!
//! * [`image`] — premultiplied-RGBA images, the *over* operator, PPM
//!   output, and the comparison metrics (RMS difference, entropy) used to
//!   evaluate adaptive rendering and temporal enhancement.
//! * [`camera`] — a look-at perspective camera with point projection
//!   (fragment screen rects, compositing schedules are view-dependent).
//! * [`transfer`] — piecewise-linear RGBA transfer functions and their
//!   memoized opacity-corrected lookup tables.
//! * [`brick`] — regular resampling of one octree block at a chosen level
//!   through a per-(block, level) gather plan; bricks are what the ray
//!   caster marches, in grid-index space, skipping transparent
//!   macrocells.
//! * [`raycast`] — front-to-back ray casting with early termination,
//!   empty-space skipping and optional Blinn-Phong lighting from a
//!   per-brick central-difference gradient lattice (§6, Figure 10/11).
//! * [`enhance`] — the temporal-domain enhancement filter (§4.2, Figure 4).
//! * [`adaptive`] — octree level selection from image resolution, data
//!   resolution and a cells-per-pixel budget (§4.1, Figure 3).
//! * [`visibility`] — exact front-to-back ordering of octree blocks for a
//!   given viewpoint (the view-dependent preprocessing of §4 that the
//!   compositing schedule builds on).

pub mod adaptive;
pub mod brick;
pub mod camera;
pub mod enhance;
pub mod image;
pub mod raycast;
pub mod transfer;
pub mod visibility;

pub use adaptive::AdaptivePolicy;
pub use brick::Brick;
pub use camera::Camera;
pub use enhance::TemporalEnhance;
pub use image::{Rgba, RgbaImage, ScreenRect};
pub use raycast::{
    composite_fragments, render_block, render_brick, Fragment, GatherPlans, LightingParams,
    RenderParams,
};
pub use transfer::TransferFunction;
pub use visibility::front_to_back_order;
