//! Streaming trace generation: the one draw loop behind every generated
//! trace, producing one request at a time at any scale.
//!
//! [`TraceStream`] draws each request from the seeded models — inter-arrival
//! gap, direction, size, address, in that order — without ever holding more
//! than one request in memory, and without allocating per request.
//! [`crate::generate`] materializes a `scale = 1` stream, so the two are
//! byte-identical by construction. At `scale = N` the stream appends
//! `N − 1` further *epochs*, each a fresh generation pass over the same
//! profile with a decorrelated seed, shifted past the previous epoch's
//! end. Trace length becomes a runtime knob
//! instead of a memory ceiling.

use crate::address::AddressModel;
use crate::arrival::ArrivalModel;
use crate::profile::AppProfile;
use crate::size::SizeModel;
use hps_core::{Bytes, Direction, IoRequest, SimDuration, SimRng, SimTime};
use hps_trace::TraceSource;

/// Streams `scale` back-to-back generation epochs of one profile.
///
/// Epoch 0 is exactly what [`crate::generate`]`(profile, seed)`
/// materializes (including the mid-trace request pinned to Table III's
/// *Max Size*).
/// Every later epoch re-derives its RNG from the seed folded with the
/// epoch index, re-calibrates the models, and offsets its arrivals so the
/// stream's timestamps stay non-decreasing; request ids keep counting up
/// across epochs.
#[derive(Clone, Debug)]
pub struct TraceStream {
    profile: AppProfile,
    seed: u64,
    scale: u64,
    /// Current epoch (0-based); `scale` when exhausted.
    epoch: u64,
    /// Next request index within the current epoch.
    idx: u64,
    rng: SimRng,
    read_sizes: SizeModel,
    write_sizes: SizeModel,
    arrivals: ArrivalModel,
    addresses: AddressModel,
    /// Arrival timestamp of the previously yielded request (absolute).
    now: SimTime,
    /// Index within an epoch of the request pinned to the profile's max
    /// size: Table III's *Max Size* is the largest request actually
    /// observed in each trace, so one mid-trace request reproduces it.
    max_at: u64,
    next_id: u64,
}

/// Builds a stream of `scale` epochs of `profile` under `seed`.
///
/// # Panics
///
/// Panics if `scale` is zero or the profile is internally inconsistent
/// (same conditions as [`crate::generate`]).
pub fn stream(profile: &AppProfile, seed: u64, scale: u64) -> TraceStream {
    assert!(scale > 0, "scale must be at least 1");
    let profile = profile.clone();
    TraceStream {
        rng: SimRng::seed_from(epoch_seed(seed, profile.name, 0)),
        read_sizes: profile.read_size_model(),
        write_sizes: profile.write_size_model(),
        arrivals: profile.arrival_model(),
        addresses: profile.address_model(),
        seed,
        scale,
        epoch: 0,
        idx: 0,
        now: SimTime::ZERO,
        max_at: profile.num_reqs / 2,
        next_id: 0,
        profile,
    }
}

/// The RNG seed for one epoch: epoch 0 is `seed ^ name_tag(name)`; later
/// epochs fold in the epoch index via a golden-ratio stride so their
/// streams decorrelate.
fn epoch_seed(seed: u64, name: &str, epoch: u64) -> u64 {
    (seed ^ name_tag(name)).wrapping_add(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Stable per-name tag folded into the seed so different applications get
/// decorrelated streams even under the same master seed.
fn name_tag(name: &str) -> u64 {
    // FNV-1a, enough to decorrelate seeds.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl TraceStream {
    /// The profile's mean inter-arrival gap, used to splice epochs
    /// together with a plausible (deterministic) seam.
    fn mean_gap(&self) -> SimDuration {
        let gaps = self.profile.num_reqs.saturating_sub(1).max(1);
        SimDuration::from_ns((self.profile.duration_s * 1e9 / gaps as f64) as u64)
    }

    /// Re-seeds the RNG and models for the next epoch and shifts its time
    /// base past the previous epoch's last arrival.
    fn advance_epoch(&mut self) {
        self.epoch += 1;
        self.idx = 0;
        if self.epoch >= self.scale {
            return;
        }
        self.rng = SimRng::seed_from(epoch_seed(self.seed, self.profile.name, self.epoch));
        self.read_sizes = self.profile.read_size_model();
        self.write_sizes = self.profile.write_size_model();
        self.arrivals = self.profile.arrival_model();
        self.addresses = self.profile.address_model();
        self.now += self.mean_gap();
    }
}

impl TraceSource for TraceStream {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn next_request(&mut self) -> Option<IoRequest> {
        if self.epoch >= self.scale {
            return None;
        }
        // Draw order: gap (except the epoch's first request), direction,
        // size (mid-epoch request pinned to the table's max), then address.
        if self.idx > 0 {
            self.now += self.arrivals.sample(&mut self.rng);
        }
        let direction = if self.rng.chance(self.profile.write_req_pct / 100.0) {
            Direction::Write
        } else {
            Direction::Read
        };
        let size = if self.idx == self.max_at {
            Bytes::kib(self.profile.max_kib)
        } else {
            match direction {
                Direction::Read => self.read_sizes.sample(&mut self.rng),
                Direction::Write => self.write_sizes.sample(&mut self.rng),
            }
        };
        let lba = self.addresses.sample(&mut self.rng, size);
        let request = IoRequest::new(self.next_id, self.now, direction, size, lba);
        self.next_id += 1;
        self.idx += 1;
        if self.idx == self.profile.num_reqs {
            self.advance_epoch();
        }
        Some(request)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.profile.num_reqs * self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn scaled_stream_multiplies_length_and_stays_monotonic() {
        let mut s = stream(&profiles::CALL_IN, 7, 3);
        assert_eq!(s.len_hint(), Some(profiles::CALL_IN.num_reqs * 3));
        let mut last_arrival = SimTime::ZERO;
        let mut last_id = None;
        let mut count = 0u64;
        while let Some(req) = s.next_request() {
            assert!(req.arrival >= last_arrival, "arrivals must not regress");
            if let Some(prev) = last_id {
                assert_eq!(req.id, prev + 1, "ids count up across epochs");
            }
            last_arrival = req.arrival;
            last_id = Some(req.id);
            count += 1;
        }
        assert_eq!(count, profiles::CALL_IN.num_reqs * 3);
    }

    #[test]
    fn epochs_are_decorrelated() {
        let n = profiles::CALL_IN.num_reqs;
        let mut s = stream(&profiles::CALL_IN, 7, 2);
        let mut epoch0 = Vec::new();
        let mut epoch1 = Vec::new();
        while let Some(req) = s.next_request() {
            if req.id < n {
                epoch0.push(req.lba);
            } else {
                epoch1.push(req.lba);
            }
        }
        assert_eq!(epoch0.len(), epoch1.len());
        assert_ne!(epoch0, epoch1, "epochs must not repeat the same draws");
    }

    #[test]
    #[should_panic(expected = "scale must be at least 1")]
    fn zero_scale_rejected() {
        let _ = stream(&profiles::EMAIL, 1, 0);
    }
}
