//! Bézier line generator for the BT (Bezier Tessellation) benchmark
//! (CUDA samples "BezierLineCDP" flavour).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A batch of quadratic Bézier lines.
///
/// Each line has three control points; the tessellation kernel computes a
/// curvature-dependent number of sample points per line, capped at
/// `max_tess`. The paper's datasets are `T0032-C16` (max tessellation 32,
/// curvature 16) and `T2048-C64` (max 2048, curvature 64), both with
/// 20,000 lines.
#[derive(Debug, Clone, PartialEq)]
pub struct BezierLines {
    /// Control points, 6 floats per line: `x0 y0 x1 y1 x2 y2`.
    pub control_points: Vec<f64>,
    /// Maximum tessellation points per line.
    pub max_tess: u32,
    /// Curvature multiplier (higher ⇒ more tessellation per line).
    pub curvature_scale: f64,
}

impl BezierLines {
    /// Number of lines.
    pub(crate) fn num_lines(&self) -> usize {
        self.control_points.len() / 6
    }

    /// Host-side reference of the curvature measure the kernel computes:
    /// the distance from the middle control point to the chord midpoint.
    #[cfg(test)]
    pub(crate) fn curvature(&self, line: usize) -> f64 {
        let p = &self.control_points[line * 6..line * 6 + 6];
        let mx = (p[0] + p[4]) / 2.0;
        let my = (p[1] + p[5]) / 2.0;
        let dx = p[2] - mx;
        let dy = p[3] - my;
        (dx * dx + dy * dy).sqrt()
    }

    /// Host-side reference of the per-line tessellation count (must match
    /// the kernel's computation).
    #[cfg(test)]
    pub(crate) fn tess_count(&self, line: usize) -> i64 {
        let t = (self.curvature(line) * self.curvature_scale) as i64;
        t.clamp(2, self.max_tess as i64)
    }
}

/// Generates `num_lines` random quadratic Bézier lines.
///
/// Control points are drawn in the unit square with the middle point
/// displaced to spread curvature over a wide range, so tessellation counts
/// (child grid sizes) are irregular like the benchmark expects.
pub fn bezier_lines(
    num_lines: usize,
    max_tess: u32,
    curvature_scale: f64,
    seed: u64,
) -> BezierLines {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut control_points = Vec::with_capacity(num_lines * 6);
    for _ in 0..num_lines {
        let x0: f64 = rng.gen();
        let y0: f64 = rng.gen();
        let x2: f64 = rng.gen();
        let y2: f64 = rng.gen();
        // Mid point displaced from the chord by a heavy-tailed offset.
        let t: f64 = rng.gen();
        let bulge = t * t * t * 2.0;
        let x1 = (x0 + x2) / 2.0 + rng.gen_range(-1.0..1.0) * bulge;
        let y1 = (y0 + y2) / 2.0 + rng.gen_range(-1.0..1.0) * bulge;
        control_points.extend_from_slice(&[x0, y0, x1, y1, x2, y2]);
    }
    BezierLines {
        control_points,
        max_tess,
        curvature_scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_lines() {
        let b = bezier_lines(100, 32, 16.0, 1);
        assert_eq!(b.num_lines(), 100);
        assert_eq!(b.control_points.len(), 600);
    }

    #[test]
    fn tess_counts_are_clamped_and_irregular() {
        let b = bezier_lines(500, 32, 16.0, 2);
        let counts: Vec<i64> = (0..b.num_lines()).map(|l| b.tess_count(l)).collect();
        assert!(counts.iter().all(|&c| (2..=32).contains(&c)));
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max > min, "counts should vary: {min}..{max}");
    }

    #[test]
    fn curvature_is_nonnegative() {
        let b = bezier_lines(50, 2048, 64.0, 3);
        for l in 0..b.num_lines() {
            assert!(b.curvature(l) >= 0.0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(bezier_lines(10, 32, 16.0, 7), bezier_lines(10, 32, 16.0, 7));
    }
}
