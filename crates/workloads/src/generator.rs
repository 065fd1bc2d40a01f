//! Turns an [`AppProfile`] into a concrete trace.

use crate::profile::AppProfile;
use crate::stream::stream;
use hps_trace::{Trace, TraceSource};

/// Generates the trace for one profile, deterministically from `seed`.
///
/// The generated trace matches the profile's published statistics in
/// expectation: request count exactly; duration, per-direction mean sizes,
/// write percentage, and localities within sampling noise (validated by the
/// crate's calibration tests).
///
/// # Example
///
/// ```
/// use hps_workloads::{generate, profiles};
///
/// let trace = generate(&profiles::TWITTER, 42);
/// assert_eq!(trace.len(), 13_807);
/// assert_eq!(trace.name(), "Twitter");
/// // Same seed, same trace.
/// let again = generate(&profiles::TWITTER, 42);
/// assert_eq!(trace.records()[100], again.records()[100]);
/// ```
///
/// # Panics
///
/// Panics if the profile is internally inconsistent (fewer than two
/// requests, impossible localities, or malformed size shapes).
pub fn generate(profile: &AppProfile, seed: u64) -> Trace {
    let mut requests = stream(profile, seed, 1);
    let mut trace = Trace::new(profile.name);
    while let Some(request) = requests.next_request() {
        trace.push_request(request);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use hps_trace::{SizeStats, TimingStats};

    #[test]
    fn deterministic_regeneration() {
        let a = generate(&profiles::EMAIL, 7);
        let b = generate(&profiles::EMAIL, 7);
        assert_eq!(a.records(), b.records());
        let c = generate(&profiles::EMAIL, 8);
        assert_ne!(a.records(), c.records(), "different seed, different trace");
    }

    #[test]
    fn different_apps_are_decorrelated_under_same_seed() {
        let a = generate(&profiles::CALL_IN, 7);
        let b = generate(&profiles::CALL_OUT, 7);
        assert_ne!(a.records()[0].request.lba, b.records()[0].request.lba);
    }

    #[test]
    fn request_count_is_exact() {
        for p in [&profiles::MESSAGING, &profiles::YOUTUBE] {
            assert_eq!(generate(p, 1).len() as u64, p.num_reqs, "{}", p.name);
        }
    }

    #[test]
    fn traces_validate() {
        let t = generate(&profiles::FACEBOOK, 3);
        t.validate().expect("generated trace must be well-formed");
    }

    #[test]
    fn write_percentage_matches_table() {
        let t = generate(&profiles::TWITTER, 5);
        let s = SizeStats::from_trace(&t);
        assert!(
            (s.write_req_pct - profiles::TWITTER.write_req_pct).abs() < 2.0,
            "write pct {}",
            s.write_req_pct
        );
    }

    #[test]
    fn duration_matches_table_within_noise() {
        let t = generate(&profiles::MESSAGING, 5);
        let s = TimingStats::from_trace(&t);
        let err =
            (s.duration_s - profiles::MESSAGING.duration_s).abs() / profiles::MESSAGING.duration_s;
        assert!(
            err < 0.15,
            "duration {} vs {}",
            s.duration_s,
            profiles::MESSAGING.duration_s
        );
    }

    #[test]
    fn localities_match_table_within_noise() {
        let p = &profiles::TWITTER;
        let t = generate(p, 5);
        let s = TimingStats::from_trace(&t);
        assert!(
            (s.spatial_locality_pct - p.spatial_pct).abs() < 5.0,
            "spatial {} vs {}",
            s.spatial_locality_pct,
            p.spatial_pct
        );
        assert!(
            (s.temporal_locality_pct - p.temporal_pct).abs() < 8.0,
            "temporal {} vs {}",
            s.temporal_locality_pct,
            p.temporal_pct
        );
    }

    #[test]
    fn mean_sizes_match_table_within_noise() {
        let p = &profiles::GOOGLE_MAPS;
        let t = generate(p, 5);
        let s = SizeStats::from_trace(&t);
        assert!(
            (s.avg_write_size_kib - p.avg_write_kib).abs() / p.avg_write_kib < 0.15,
            "write mean {}",
            s.avg_write_size_kib
        );
        assert!(
            (s.avg_read_size_kib - p.avg_read_kib).abs() / p.avg_read_kib < 0.25,
            "read mean {}",
            s.avg_read_size_kib
        );
    }
}
