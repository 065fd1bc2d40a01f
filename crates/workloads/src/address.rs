//! Address models with tunable spatial and temporal locality.
//!
//! Table IV publishes two locality numbers per trace, defined in Section
//! III-C: spatial locality is the fraction of requests that start exactly
//! where the previous request ended; temporal locality is the fraction
//! whose starting address was accessed before. [`AddressModel`] generates
//! addresses by a three-way choice — sequential continuation, re-access of
//! an earlier request's address, or a fresh never-touched address — and
//! keeps both measured statistics on target with closed-loop control:
//!
//! * the model tracks every page it has covered, so "fresh" draws are
//!   *guaranteed* misses (a bump pointer walks virgin territory) and
//!   re-accesses are *guaranteed* hits;
//! * sequential continuations sometimes land on covered pages as a side
//!   effect (e.g. the successor of a re-accessed region); the controller
//!   measures the actual hit rate and steers the explicit re-access
//!   probability to compensate, so the generated trace's localities match
//!   the table to within sampling noise.
//!
//! The covered pages are a dense bitmap, one bit per 4 KiB page, grown on
//! demand as requests reach higher addresses: a request costs one word
//! update per 64 pages it covers, and a fresh-address scan reads one word
//! per 64 covered pages it skips. The bitmap is at most one bit per page
//! below the highest page touched — 512 KiB at the 16 GiB footprint cap.

use hps_core::{Bytes, SimRng};

/// Stateful address generator for one application stream.
#[derive(Clone, Debug)]
pub struct AddressModel {
    /// Target unconditional probability of a sequential continuation.
    p_seq: f64,
    /// Target unconditional probability of an address re-access.
    p_reuse: f64,
    /// Addressable footprint in bytes (addresses are < footprint).
    footprint: Bytes,
    /// End address of the previous request.
    last_end: u64,
    /// Starting addresses of earlier requests (re-access candidates).
    history: Vec<u64>,
    /// Cap on history length (memory bound; re-accesses favour recency).
    history_cap: usize,
    /// Bump pointer for fresh addresses; always past every covered page.
    next_fresh: u64,
    /// Every 4 KiB page touched so far (the measurement's ground truth):
    /// bit `p % 64` of word `p / 64` is set once page `p` is covered.
    covered: Vec<u64>,
    /// Number of set bits in `covered`.
    covered_pages: u64,
    /// Requests generated.
    total: u64,
    /// Requests that were sequential continuations.
    seq_count: u64,
    /// Requests whose starting page was already covered (temporal hits).
    hit_count: u64,
}

impl AddressModel {
    /// Creates a model targeting `spatial_pct` spatial and `temporal_pct`
    /// temporal locality (Table IV percentages) over a `footprint`-byte
    /// region.
    ///
    /// # Panics
    ///
    /// Panics if percentages are outside `[0, 100]`, their sum exceeds 100,
    /// or the footprint is smaller than 1 MiB.
    pub fn new(spatial_pct: f64, temporal_pct: f64, footprint: Bytes) -> Self {
        assert!(
            (0.0..=100.0).contains(&spatial_pct),
            "spatial pct out of range"
        );
        assert!(
            (0.0..=100.0).contains(&temporal_pct),
            "temporal pct out of range"
        );
        assert!(
            spatial_pct + temporal_pct <= 100.0,
            "locality targets exceed 100%"
        );
        assert!(
            footprint >= Bytes::mib(1),
            "footprint must be at least 1 MiB"
        );
        AddressModel {
            p_seq: spatial_pct / 100.0,
            p_reuse: temporal_pct / 100.0,
            footprint,
            last_end: 0,
            history: Vec::new(),
            history_cap: 4096,
            next_fresh: 0,
            covered: Vec::new(),
            covered_pages: 0,
            total: 0,
            seq_count: 0,
            hit_count: 0,
        }
    }

    /// Draws the starting address for a request of `size` bytes and
    /// advances the model state.
    pub fn sample(&mut self, rng: &mut SimRng, size: Bytes) -> u64 {
        let max_start_page = (self.footprint.as_u64().saturating_sub(size.as_u64())) / 4096;
        let have_history = !self.history.is_empty();

        // Closed-loop steering with gain: p_eff = target − k·(measured −
        // target). A high gain squeezes the equilibrium bias from
        // incidental hits (sequential successors landing on covered pages)
        // down to noise level.
        const GAIN: f64 = 8.0;
        let total = self.total.max(1) as f64;
        let seq_measured = self.seq_count as f64 / total;
        let hit_measured = self.hit_count as f64 / total;
        let p_seq_eff = (self.p_seq - GAIN * (seq_measured - self.p_seq)).clamp(0.0, 1.0);
        let p_hit_eff = (self.p_reuse - GAIN * (hit_measured - self.p_reuse)).clamp(0.0, 1.0);
        // The reuse branch is only reached when not sequential.
        let p_reuse_cond = if p_seq_eff >= 1.0 {
            0.0
        } else {
            (p_hit_eff / (1.0 - p_seq_eff)).clamp(0.0, 1.0)
        };

        let mut is_seq = false;
        let start = if have_history && rng.chance(p_seq_eff) {
            is_seq = true;
            if self.last_end / 4096 <= max_start_page {
                self.last_end
            } else {
                0 // wrapped at the footprint edge; still "sequential intent"
            }
        } else if have_history && rng.chance(p_reuse_cond) {
            *rng.pick(&self.history)
        } else {
            self.fresh_address(rng, max_start_page)
        };

        // Account against the *measured* definitions.
        if is_seq {
            self.seq_count += 1;
        }
        if self.is_covered(start / 4096) {
            self.hit_count += 1;
        }
        self.total += 1;

        self.last_end = start + size.as_u64();
        self.next_fresh = self.next_fresh.max(self.last_end);
        self.cover(start / 4096, size.div_ceil(Bytes::kib(4)));
        if self.history.len() == self.history_cap {
            let slot = rng.uniform_u64(self.history_cap as u64) as usize;
            self.history[slot] = start;
        } else {
            self.history.push(start);
        }
        start
    }

    /// A never-covered starting address: bump pointer plus a random 1–64
    /// page stride, wrapping at the footprint edge (and skipping covered
    /// pages after a wrap).
    fn fresh_address(&mut self, rng: &mut SimRng, max_start_page: u64) -> u64 {
        let stride_pages = rng.uniform_range(1, 64);
        let mut page = self.next_fresh / 4096 + stride_pages;
        if page > max_start_page {
            page = 0;
        }
        // After a wrap the low region is covered; skip forward to the first
        // uncovered page, at most one pass around the ring `0..=max` (and
        // stay put if the whole ring is covered) — and not at all once the
        // whole footprint is covered (then truly fresh pages no longer exist).
        if self.covered_pages <= max_start_page {
            page = self
                .first_uncovered(page, max_start_page)
                .or_else(|| self.first_uncovered(0, max_start_page))
                .unwrap_or(page);
        }
        let addr = page * 4096;
        self.next_fresh = addr;
        addr
    }

    /// `true` once page `page` has been covered.
    fn is_covered(&self, page: u64) -> bool {
        self.covered
            .get((page / 64) as usize)
            .is_some_and(|&word| word >> (page % 64) & 1 == 1)
    }

    /// The first uncovered page in `from..=to`, if any.
    fn first_uncovered(&self, from: u64, to: u64) -> Option<u64> {
        let mut page = from;
        while page <= to {
            let word = self.covered.get((page / 64) as usize).copied().unwrap_or(0);
            // Uncovered pages of this word, from `page` on, as set bits.
            let free = !word >> (page % 64);
            if free != 0 {
                let hit = page + u64::from(free.trailing_zeros());
                return (hit <= to).then_some(hit);
            }
            page = (page / 64 + 1) * 64;
        }
        None
    }

    /// Marks `pages` pages from `first` on as covered, growing the bitmap
    /// as needed and counting the pages that were not covered before.
    fn cover(&mut self, first: u64, pages: u64) {
        let end = first + pages;
        let words = end.div_ceil(64) as usize;
        if self.covered.len() < words {
            self.covered.resize(words, 0);
        }
        let mut page = first;
        while page < end {
            let bit = page % 64;
            let n = (end - page).min(64 - bit);
            let mask = (u64::MAX >> (64 - n)) << bit;
            let word = &mut self.covered[(page / 64) as usize];
            self.covered_pages += u64::from((mask & !*word).count_ones());
            *word |= mask;
            page += n;
        }
    }

    /// The configured footprint.
    pub fn footprint(&self) -> Bytes {
        self.footprint
    }

    /// Measured spatial locality so far, in percent.
    pub fn measured_spatial_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.seq_count as f64 / self.total as f64
        }
    }

    /// Measured temporal locality so far, in percent.
    pub fn measured_temporal_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.hit_count as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::{Direction, IoRequest, SimTime};
    use hps_trace::{stats, Trace};
    use std::collections::BTreeSet;

    fn run_trace(spatial: f64, temporal: f64, n: usize) -> Trace {
        let mut model = AddressModel::new(spatial, temporal, Bytes::gib(1));
        let mut rng = SimRng::seed_from(11);
        let mut trace = Trace::new("addr");
        for i in 0..n {
            let size = Bytes::kib(4);
            let lba = model.sample(&mut rng, size);
            trace.push_request(IoRequest::new(
                i as u64,
                SimTime::from_ms(i as u64),
                Direction::Write,
                size,
                lba,
            ));
        }
        trace
    }

    #[test]
    fn measured_spatial_locality_matches_target() {
        let trace = run_trace(30.0, 20.0, 20_000);
        let measured = stats::spatial_locality(&trace);
        assert!((measured - 30.0).abs() < 2.0, "spatial {measured}");
    }

    #[test]
    fn measured_temporal_locality_matches_target() {
        let trace = run_trace(25.0, 40.0, 20_000);
        let measured = stats::temporal_locality(&trace);
        assert!((measured - 40.0).abs() < 2.0, "temporal {measured}");
    }

    #[test]
    fn mixed_sizes_still_match_targets() {
        let mut model = AddressModel::new(22.0, 45.0, Bytes::gib(2));
        let mut rng = SimRng::seed_from(13);
        let mut trace = Trace::new("mixed");
        for i in 0..20_000u64 {
            let size = Bytes::kib(*rng.pick(&[4u64, 8, 16, 64]));
            let lba = model.sample(&mut rng, size);
            trace.push_request(IoRequest::new(
                i,
                SimTime::from_ms(i),
                Direction::Write,
                size,
                lba,
            ));
        }
        let sp = stats::spatial_locality(&trace);
        let tp = stats::temporal_locality(&trace);
        assert!((sp - 22.0).abs() < 2.0, "spatial {sp}");
        assert!((tp - 45.0).abs() < 2.0, "temporal {tp}");
    }

    #[test]
    fn zero_locality_is_mostly_random() {
        let trace = run_trace(0.0, 0.0, 10_000);
        assert!(stats::spatial_locality(&trace) < 1.0);
        assert!(stats::temporal_locality(&trace) < 1.0);
    }

    #[test]
    fn internal_counters_agree_with_external_measurement() {
        let mut model = AddressModel::new(20.0, 30.0, Bytes::gib(1));
        let mut rng = SimRng::seed_from(17);
        let mut trace = Trace::new("agree");
        for i in 0..5_000u64 {
            let size = Bytes::kib(4);
            let lba = model.sample(&mut rng, size);
            trace.push_request(IoRequest::new(
                i,
                SimTime::from_ms(i),
                Direction::Write,
                size,
                lba,
            ));
        }
        assert!((model.measured_temporal_pct() - stats::temporal_locality(&trace)).abs() < 1e-9);
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let mut model = AddressModel::new(20.0, 20.0, Bytes::mib(64));
        let mut rng = SimRng::seed_from(5);
        for _ in 0..10_000 {
            let size = Bytes::kib(64);
            let lba = model.sample(&mut rng, size);
            assert!(lba + size.as_u64() <= Bytes::mib(64).as_u64());
            assert_eq!(lba % 4096, 0, "4 KiB aligned");
        }
    }

    #[test]
    fn history_is_bounded() {
        let mut model = AddressModel::new(0.0, 50.0, Bytes::gib(1));
        let mut rng = SimRng::seed_from(6);
        for _ in 0..10_000 {
            model.sample(&mut rng, Bytes::kib(4));
        }
        assert!(model.history.len() <= model.history_cap);
    }

    /// The page-by-page fresh-address scan over a reference set: the
    /// chosen page, how many covered pages it skipped, and whether it
    /// wrapped from the ring's end to page 0 while skipping.
    fn reference_fresh(
        covered: &BTreeSet<u64>,
        next_fresh: u64,
        stride: u64,
        max_start_page: u64,
    ) -> (u64, u64, bool) {
        let mut page = next_fresh / 4096 + stride;
        if page > max_start_page {
            page = 0;
        }
        let (mut scanned, mut wrapped) = (0, false);
        if covered.len() as u64 <= max_start_page {
            while covered.contains(&page) && scanned <= max_start_page {
                page += 1;
                scanned += 1;
                if page > max_start_page {
                    page = 0;
                    wrapped = true;
                }
            }
        }
        (page, scanned, wrapped)
    }

    #[test]
    fn covered_bitmap_matches_reference_set() {
        // Mixed sizes up to twice a 1 MiB footprint: re-accessed starts
        // followed by larger requests cover pages past the footprint's
        // end, and fresh draws scan and wrap a nearly full ring.
        let footprint = Bytes::mib(1);
        let sizes_kib = [4u64, 8, 16, 64, 256, 1024, 2048];
        let weights = [400.0, 100.0, 50.0, 20.0, 4.0, 2.0, 1.0];
        let (mut skips, mut wraps, mut past_end) = (0, 0, 0);
        for seed in 0..64 {
            let mut model = AddressModel::new(10.0, 20.0, footprint);
            let mut covered = BTreeSet::new();
            let mut rng = SimRng::seed_from(seed);
            for _ in 0..200 {
                let size = Bytes::kib(sizes_kib[rng.weighted_index(&weights)]);
                let max_start_page = footprint.as_u64().saturating_sub(size.as_u64()) / 4096;
                // Same draws as a fresh branch taken now would make.
                let stride = rng.clone().uniform_range(1, 64);
                let (want, skipped, wrapped) =
                    reference_fresh(&covered, model.next_fresh, stride, max_start_page);
                let fresh = model
                    .clone()
                    .fresh_address(&mut rng.clone(), max_start_page);
                assert_eq!(fresh / 4096, want, "seed {seed}: fresh address");
                skips += u64::from(skipped > 0);
                wraps += u64::from(wrapped);

                let hits = model.hit_count;
                let start = model.sample(&mut rng, size);
                let first = start / 4096;
                let hit = covered.contains(&first);
                assert_eq!(model.hit_count - hits, u64::from(hit), "seed {seed}: hit");
                covered.extend(first..first + size.as_u64().div_ceil(4096));
                assert_eq!(model.covered_pages, covered.len() as u64);
                let last = *covered.last().expect("a request covers a page");
                past_end += u64::from(last >= footprint.as_u64() / 4096);
                for page in 0..last + 128 {
                    assert_eq!(
                        model.is_covered(page),
                        covered.contains(&page),
                        "page {page}"
                    );
                }
            }
        }
        assert!(
            skips > 0 && wraps > 0 && past_end > 0,
            "edge cases not reached: {skips} skips, {wraps} wraps, {past_end} past the end"
        );
    }

    #[test]
    #[should_panic(expected = "exceed 100%")]
    fn inconsistent_targets_panic() {
        let _ = AddressModel::new(60.0, 60.0, Bytes::gib(1));
    }
}
