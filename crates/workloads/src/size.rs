//! Request-size models.
//!
//! A [`SizeModel`] is a discrete distribution over 4 KiB-aligned sizes.
//! Most applications use [`SizeModel::calibrated`], which builds a
//! Fig.-4-shaped distribution from three published numbers: the fraction of
//! single-page (4 KiB) requests, the mean size, and the maximum size. The
//! data-intensive outliers (Movie and friends) use hand-shaped bucket lists
//! via [`SizeModel::from_entries`].

use hps_core::{Bytes, SimRng};

/// Tail bucket sizes (KiB) used by the calibrated shape.
const TAIL: [u64; 4] = [8, 16, 32, 64];

/// A discrete distribution over request sizes (all multiples of 4 KiB).
#[derive(Clone, Debug)]
pub struct SizeModel {
    /// `(size, weight)` entries; weights need not sum to 1.
    entries: Vec<(Bytes, f64)>,
    /// The entries' weights in entry order, built once so that a draw
    /// allocates nothing.
    weights: Vec<f64>,
}

impl SizeModel {
    /// Builds a model from explicit `(size_kib, weight)` entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty, any weight is non-positive, or any
    /// size is zero or not a multiple of 4 KiB.
    pub fn from_entries(entries: &[(u64, f64)]) -> Self {
        assert!(!entries.is_empty(), "size model needs at least one entry");
        let entries: Vec<(Bytes, f64)> = entries
            .iter()
            .map(|&(kib, w)| {
                assert!(w > 0.0, "weights must be positive");
                assert!(
                    kib > 0 && kib % 4 == 0,
                    "sizes must be positive multiples of 4 KiB"
                );
                (Bytes::kib(kib), w)
            })
            .collect();
        let weights = entries.iter().map(|&(_, w)| w).collect();
        SizeModel { entries, weights }
    }

    /// Builds a Fig.-4-shaped model hitting three published targets:
    ///
    /// * `frac_4k` — the fraction of requests that are exactly 4 KiB
    ///   (Characteristic 2's 44.9%–57.4% for most applications);
    /// * `mean_kib` — the mean request size (Table III's *Ave.* columns);
    /// * `max_kib` — the largest request (Table III's *Max Size*).
    ///
    /// The shape is a 4 KiB spike plus a geometric tail over 8–64 KiB; when
    /// the target mean demands more, probability mass moves into a *bulk*
    /// size solved in closed form (clamped at `max_kib`, re-solving the
    /// bulk weight exactly). When the target mean is below the geometric
    /// tail's, the tail is interpolated toward an all-8-KiB floor.
    ///
    /// # Panics
    ///
    /// Panics if `frac_4k` is outside `(0, 1]`, `mean_kib < 4`, or
    /// `max_kib` is smaller than `mean_kib`.
    pub fn calibrated(frac_4k: f64, mean_kib: f64, max_kib: u64) -> Self {
        assert!(frac_4k > 0.0 && frac_4k <= 1.0, "frac_4k must be in (0, 1]");
        assert!(mean_kib >= 4.0, "mean below one page");
        assert!(max_kib as f64 >= mean_kib, "max below mean");

        let tail_mass = 1.0 - frac_4k;
        if tail_mass < 1e-9 {
            return SizeModel::from_entries(&[(4, 1.0)]);
        }

        // Geometric tail: weight halves per bucket; contributions s·w are
        // then equal because sizes double.
        let geo_raw = [1.0, 0.5, 0.25, 0.125];
        let norm: f64 = geo_raw.iter().sum(); // lint: allow(float-accum) -- fixed-order literal array
        let geo: Vec<f64> = geo_raw.iter().map(|w| tail_mass * w / norm).collect();
        let t0: f64 = TAIL.iter().zip(&geo).map(|(&s, &w)| s as f64 * w).sum(); // lint: allow(float-accum) -- fixed-order const table

        // Required tail contribution to the mean.
        let needed = mean_kib - 4.0 * frac_4k;
        let floor = 8.0 * tail_mass; // everything at 8 KiB

        let mut entries: Vec<(u64, f64)> = vec![(4, frac_4k)];
        if needed <= floor + 1e-9 {
            // Even the all-8-KiB floor overshoots (or matches): accept it.
            entries.push((8, tail_mass));
        } else if needed <= t0 {
            // Interpolate between the all-8-KiB floor and the geometric tail.
            let alpha = (needed - floor) / (t0 - floor);
            for (i, &s) in TAIL.iter().enumerate() {
                let base = if i == 0 { tail_mass } else { 0.0 };
                let w = alpha * geo[i] + (1.0 - alpha) * base;
                if w > 1e-12 {
                    entries.push((s, w));
                }
            }
        } else {
            // Need a bulk bucket. Try a 2% bulk weight first.
            let w_b = 0.02_f64.min(tail_mass / 2.0);
            let scale = (tail_mass - w_b) / tail_mass;
            let bulk = (needed - t0 * scale) / w_b;
            let bulk_clamped = (bulk.round() as u64).clamp(68, max_kib);
            let bulk_clamped = (bulk_clamped / 4 * 4).max(68);
            if (bulk_clamped as f64 - bulk).abs() < 8.0 {
                for (i, &s) in TAIL.iter().enumerate() {
                    entries.push((s, geo[i] * scale));
                }
                entries.push((bulk_clamped, w_b));
            } else {
                // Bulk ran past the maximum: pin it there and solve the
                // weight exactly: needed = t0·(M−w)/M + w·b.
                let b = ((max_kib / 4) * 4).max(68);
                let w = (needed - t0) / (b as f64 - t0 / tail_mass);
                if w >= tail_mass {
                    // Mean unreachable even all-bulk; saturate.
                    entries.push((b, tail_mass));
                } else {
                    let scale = (tail_mass - w) / tail_mass;
                    for (i, &s) in TAIL.iter().enumerate() {
                        entries.push((s, geo[i] * scale));
                    }
                    entries.push((b, w));
                }
            }
        }
        SizeModel::from_entries(&entries)
    }

    /// Draws one request size.
    pub fn sample(&self, rng: &mut SimRng) -> Bytes {
        self.entries[rng.weighted_index(&self.weights)].0
    }

    /// The model's exact mean, in KiB.
    pub fn mean_kib(&self) -> f64 {
        let total: f64 = self.entries.iter().map(|&(_, w)| w).sum(); // lint: allow(float-accum) -- entries is a fixed-order Vec
        self.entries
            .iter()
            .map(|&(s, w)| s.as_kib_f64() * w)
            .sum::<f64>() // lint: allow(float-accum) -- entries is a fixed-order Vec
            / total
    }

    /// The probability of drawing exactly 4 KiB.
    pub fn frac_4k(&self) -> f64 {
        let total: f64 = self.entries.iter().map(|&(_, w)| w).sum(); // lint: allow(float-accum) -- entries is a fixed-order Vec
        self.entries
            .iter()
            .filter(|&&(s, _)| s == Bytes::kib(4))
            .map(|&(_, w)| w)
            .sum::<f64>() // lint: allow(float-accum) -- entries is a fixed-order Vec
            / total
    }

    /// The largest size the model can draw.
    pub fn max_size(&self) -> Bytes {
        self.entries
            .iter()
            .map(|&(s, _)| s)
            .max()
            // lint: allow(no-unwrap) -- infallible by construction; the message documents the invariant
            .expect("non-empty")
    }

    /// The `(size, weight)` entries.
    pub fn entries(&self) -> &[(Bytes, f64)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_entries_sample_within_support() {
        let m = SizeModel::from_entries(&[(4, 0.5), (16, 0.5)]);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..100 {
            let s = m.sample(&mut rng);
            assert!(s == Bytes::kib(4) || s == Bytes::kib(16));
        }
        assert!((m.mean_kib() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn calibrated_hits_mean_for_typical_app() {
        // Twitter-like: 50% 4K, mean 13.5 KiB, max 2216 KiB.
        let m = SizeModel::calibrated(0.50, 13.5, 2216);
        assert!(
            (m.mean_kib() - 13.5).abs() / 13.5 < 0.05,
            "mean {}",
            m.mean_kib()
        );
        assert!((m.frac_4k() - 0.50).abs() < 1e-9);
        assert!(m.max_size() <= Bytes::kib(2216));
    }

    #[test]
    fn calibrated_hits_mean_for_small_mean_app() {
        // Music-write-like: mean 9.5 KiB.
        let m = SizeModel::calibrated(0.55, 9.5, 940);
        assert!(
            (m.mean_kib() - 9.5).abs() / 9.5 < 0.05,
            "mean {}",
            m.mean_kib()
        );
    }

    #[test]
    fn calibrated_handles_huge_mean_with_clamped_max() {
        // CameraVideo-write-like: mean 736.5 KiB, max 10104 KiB.
        let m = SizeModel::calibrated(0.30, 736.5, 10_104);
        assert!(
            (m.mean_kib() - 736.5).abs() / 736.5 < 0.05,
            "mean {}",
            m.mean_kib()
        );
        assert!(m.max_size() <= Bytes::kib(10_104));
    }

    #[test]
    fn calibrated_handles_bulk_within_range() {
        // Booting-like: mean 53, f4 0.30, max 20816.
        let m = SizeModel::calibrated(0.30, 53.0, 20_816);
        assert!(
            (m.mean_kib() - 53.0).abs() / 53.0 < 0.08,
            "mean {}",
            m.mean_kib()
        );
    }

    #[test]
    fn calibrated_pure_4k() {
        let m = SizeModel::calibrated(1.0, 4.0, 4);
        assert_eq!(m.frac_4k(), 1.0);
        assert_eq!(m.mean_kib(), 4.0);
    }

    #[test]
    fn calibrated_floor_case_saturates_gracefully() {
        // Mean barely above 4 KiB with a big 4K spike: floor case.
        let m = SizeModel::calibrated(0.9, 4.5, 128);
        assert!(m.mean_kib() <= 8.0);
        assert!((m.frac_4k() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn sampled_mean_converges_to_model_mean() {
        let m = SizeModel::calibrated(0.5, 20.0, 1536);
        let mut rng = SimRng::seed_from(7);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| m.sample(&mut rng).as_kib_f64()).sum();
        let sampled = total / n as f64;
        assert!(
            (sampled - m.mean_kib()).abs() / m.mean_kib() < 0.05,
            "sampled {sampled}"
        );
    }

    #[test]
    fn all_sizes_are_page_aligned() {
        for (f4, mean, max) in [
            (0.45, 53.0, 20_816u64),
            (0.3, 736.5, 10_104),
            (0.57, 11.0, 128),
        ] {
            let m = SizeModel::calibrated(f4, mean, max);
            for &(s, _) in m.entries() {
                assert!(s.is_multiple_of(Bytes::kib(4)), "{s}");
            }
        }
    }

    #[test]
    fn every_paper_mean_is_reachable() {
        // Every (f4, mean, max) triple used by the 18 profiles must
        // calibrate to within 8%.
        let cases: [(f64, f64, u64); 12] = [
            (0.50, 39.5, 1536),
            (0.50, 15.0, 1536),
            (0.55, 12.0, 1536),
            (0.30, 61.0, 20_816),
            (0.30, 37.5, 20_816),
            (0.55, 62.5, 940),
            (0.55, 9.5, 940),
            (0.60, 38.5, 10_104),
            (0.57, 10.5, 128),
            (0.45, 22.0, 22_144),
            (0.45, 93.0, 22_144),
            (0.46, 36.0, 11_164),
        ];
        for (f4, mean, max) in cases {
            let m = SizeModel::calibrated(f4, mean, max);
            let err = (m.mean_kib() - mean).abs() / mean;
            assert!(
                err < 0.08,
                "f4={f4} mean={mean} max={max}: got {}",
                m.mean_kib()
            );
        }
    }

    #[test]
    #[should_panic(expected = "multiples of 4")]
    fn rejects_unaligned_entry() {
        let _ = SizeModel::from_entries(&[(6, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "max below mean")]
    fn rejects_inconsistent_targets() {
        let _ = SizeModel::calibrated(0.5, 100.0, 64);
    }
}
