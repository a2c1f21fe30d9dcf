//! Look-at perspective camera.

use quakeviz_mesh::{Aabb, Vec3};

/// A pinhole camera: `eye` looking at `target`, vertical field of view
/// `fov_y` (radians), square pixels.
#[derive(Debug, Clone)]
pub struct Camera {
    pub eye: Vec3,
    pub target: Vec3,
    pub up: Vec3,
    pub fov_y: f64,
    pub width: u32,
    pub height: u32,
    // cached orthonormal basis
    forward: Vec3,
    right: Vec3,
    true_up: Vec3,
    // cached image-plane half extents at unit depth: tan(fov_y/2), and
    // that times the aspect ratio
    half_h: f64,
    half_w: f64,
}

impl Camera {
    pub fn look_at(
        eye: Vec3,
        target: Vec3,
        up: Vec3,
        fov_y: f64,
        width: u32,
        height: u32,
    ) -> Camera {
        let forward = (target - eye).normalized();
        let right = forward.cross(up).normalized();
        let true_up = right.cross(forward);
        assert!(right.length() > 0.5, "up vector parallel to view direction");
        let half_h = (fov_y * 0.5).tan();
        let half_w = half_h * (width as f64 / height as f64);
        Camera { eye, target, up, fov_y, width, height, forward, right, true_up, half_h, half_w }
    }

    /// A default viewpoint for a dataset of the given bounds: slightly
    /// elevated three-quarter view looking at the domain centre (like the
    /// paper's figures, which view the basin from above at an angle).
    pub fn default_for(bounds: &Aabb, width: u32, height: u32) -> Camera {
        let c = bounds.center();
        let e = bounds.extent();
        let eye = Vec3::new(
            c.x - 1.1 * e.x,
            c.y - 0.9 * e.y,
            // z grows with depth, so "above the surface" is negative z
            -1.1 * e.max_component(),
        );
        Camera::look_at(eye, c, Vec3::new(0.0, 0.0, -1.0), 0.6, width, height)
    }

    /// View direction (unit).
    #[inline]
    pub fn forward(&self) -> Vec3 {
        self.forward
    }

    /// World-space ray through pixel centre `(px, py)`:
    /// returns `(origin, unit direction)`.
    pub fn ray(&self, px: u32, py: u32) -> (Vec3, Vec3) {
        let (half_w, half_h) = (self.half_w, self.half_h);
        // NDC in [-1, 1] with y pointing up the image
        let nx = ((px as f64 + 0.5) / self.width as f64) * 2.0 - 1.0;
        let ny = 1.0 - ((py as f64 + 0.5) / self.height as f64) * 2.0;
        let dir = self.forward + self.right * (nx * half_w) + self.true_up * (ny * half_h);
        (self.eye, dir.normalized())
    }

    /// Project a world point: returns `(px, py, depth)` with pixel
    /// coordinates (may be off-screen) and view-space depth; `None` when
    /// the point is behind the camera.
    pub fn project(&self, p: Vec3) -> Option<(f64, f64, f64)> {
        let v = p - self.eye;
        let depth = v.dot(self.forward);
        if depth <= 1e-9 {
            return None;
        }
        let x = v.dot(self.right) / depth / self.half_w; // [-1, 1]
        let y = v.dot(self.true_up) / depth / self.half_h;
        let px = (x + 1.0) * 0.5 * self.width as f64;
        let py = (1.0 - y) * 0.5 * self.height as f64;
        Some((px, py, depth))
    }

    /// Screen bounding rectangle of a world AABB, clamped to the image;
    /// `None` when fully behind the camera or off screen.
    pub fn project_aabb(&self, b: &Aabb) -> Option<crate::image::ScreenRect> {
        let mut lo = (f64::INFINITY, f64::INFINITY);
        let mut hi = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let mut any = false;
        let mut behind = false;
        for i in 0..8 {
            let p = Vec3::new(
                if i & 1 == 0 { b.min.x } else { b.max.x },
                if i & 2 == 0 { b.min.y } else { b.max.y },
                if i & 4 == 0 { b.min.z } else { b.max.z },
            );
            match self.project(p) {
                Some((x, y, _)) => {
                    any = true;
                    lo.0 = lo.0.min(x);
                    lo.1 = lo.1.min(y);
                    hi.0 = hi.0.max(x);
                    hi.1 = hi.1.max(y);
                }
                None => behind = true,
            }
        }
        if !any {
            return None;
        }
        if behind {
            // box pierces the camera plane: be conservative
            return Some(crate::image::ScreenRect::new(0, 0, self.width, self.height));
        }
        let x0 = lo.0.floor().max(0.0) as u32;
        let y0 = lo.1.floor().max(0.0) as u32;
        let x1 = (hi.0.ceil().max(0.0) as u32).min(self.width);
        let y1 = (hi.1.ceil().max(0.0) as u32).min(self.height);
        if x1 <= x0 || y1 <= y0 {
            None
        } else {
            Some(crate::image::ScreenRect::new(x0, y0, x1, y1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
            0.8,
            100,
            100,
        )
    }

    #[test]
    fn center_pixel_ray_points_forward() {
        let c = cam();
        let (o, d) = c.ray(50, 50);
        assert_eq!(o, c.eye);
        assert!(d.dot(c.forward()) > 0.999, "center ray should align with forward");
    }

    #[test]
    fn project_center_lands_mid_image() {
        let c = cam();
        let (px, py, depth) = c.project(Vec3::ZERO).unwrap();
        assert!((px - 50.0).abs() < 1e-9);
        assert!((py - 50.0).abs() < 1e-9);
        assert!((depth - 5.0).abs() < 1e-9);
    }

    #[test]
    fn project_behind_camera_none() {
        let c = cam();
        assert!(c.project(Vec3::new(0.0, 0.0, -10.0)).is_none());
    }

    #[test]
    fn ray_project_roundtrip() {
        let c = cam();
        for (px, py) in [(10u32, 80u32), (50, 50), (99, 0)] {
            let (o, d) = c.ray(px, py);
            let p = o + d * 7.0;
            let (qx, qy, _) = c.project(p).unwrap();
            assert!((qx - (px as f64 + 0.5)).abs() < 1e-6, "{px},{py} -> {qx}");
            assert!((qy - (py as f64 + 0.5)).abs() < 1e-6);
        }
    }

    #[test]
    fn aabb_projection_contains_center_projection() {
        let c = cam();
        let b = Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::new(1.0, 1.0, 1.0));
        let rect = c.project_aabb(&b).unwrap();
        let (px, py, _) = c.project(b.center()).unwrap();
        assert!(rect.contains(px as u32, py as u32));
        // off-screen box
        let far = Aabb::new(Vec3::new(1000.0, 1000.0, 0.0), Vec3::new(1001.0, 1001.0, 1.0));
        assert!(c.project_aabb(&far).is_none());
    }

    #[test]
    fn default_camera_sees_the_domain() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(40_000.0, 40_000.0, 20_000.0));
        let c = Camera::default_for(&b, 64, 64);
        let rect = c.project_aabb(&b).expect("domain visible");
        assert!(rect.area() > 100, "domain should cover a decent part of the image");
    }
}
