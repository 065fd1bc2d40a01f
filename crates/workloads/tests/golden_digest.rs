//! Pins the generated request stream of every paper profile.
//!
//! Each of the 25 profiles (18 applications, 7 combos) is streamed at a
//! fixed seed, one epoch and two, and folded into an FNV-64 digest of
//! every request's `(id, arrival, direction, size, lba)`; the
//! materialized trace must give the one-epoch digest too. Any change to the generator's
//! draw order, its models' arithmetic or its locality bookkeeping moves
//! at least one digest, so an optimization of the generator must leave
//! this test passing unchanged.

use hps_core::{Direction, IoRequest};
use hps_trace::TraceSource;
use hps_workloads::{all_combos, all_individual, by_name, generate, stream, AppProfile};

const SEED: u64 = 42;

/// Digests recorded from the generator before it was made hash-free.
const GOLDEN: [(&str, u64, u64); 25] = [
    ("Idle", 0xfa2c_b70e_2be7_1de4, 0xd2f1_5eec_c4d6_0212),
    ("CallIn", 0x620e_ef27_8433_b625, 0xf7f8_341d_f4ba_93ae),
    ("CallOut", 0x672c_932e_ffda_40fd, 0x3676_e487_72f5_d968),
    ("Booting", 0x678d_fe07_080f_20fc, 0x2ca4_7514_711b_6b34),
    ("Movie", 0x1a1e_898e_499c_b06d, 0x3ec0_2629_05a7_d24d),
    ("Music", 0x7bad_cc01_6e3b_375e, 0x5995_70f8_82dc_529e),
    ("AngryBirds", 0xe334_7213_d1f3_5391, 0x1c2e_250e_f27f_fd10),
    ("CameraVideo", 0x8c26_a4d5_126b_8aba, 0x9e7a_b166_5ae1_939e),
    ("GoogleMaps", 0x7c76_71cb_1f73_1d0f, 0x6ab7_49a4_67da_bcad),
    ("Messaging", 0xf3df_9541_f5f2_ae7b, 0xb2dd_8cb6_5003_bda5),
    ("Twitter", 0xf5be_da5b_3120_5f7e, 0x7ca5_9b5f_df0a_3024),
    ("Email", 0x40c3_42df_d820_11f2, 0xf974_bd43_9eb8_7779),
    ("Facebook", 0xcabb_6cf3_4ddb_993c, 0x4aaf_dce3_5127_6e68),
    ("Amazon", 0x3c99_3b12_e669_7305, 0xb96f_3fe7_9622_0952),
    ("YouTube", 0x096c_fa44_c272_e158, 0x12a8_203d_bda3_7806),
    ("Radio", 0x8e29_900b_eca1_6e16, 0xf739_ec23_e7be_1654),
    ("Installing", 0x7836_cbdd_2a75_9e8a, 0x39b4_984b_60cb_bae0),
    ("WebBrowsing", 0xb16b_082e_164d_ec19, 0xba3c_c0d4_fd04_d6cf),
    ("Music/WB", 0xc7f9_e7f2_7cbd_df75, 0x7bcf_f0b2_393e_32c2),
    ("Radio/WB", 0xa138_5f2a_e0a4_3aab, 0x94a6_f557_6830_2c12),
    ("Music/FB", 0x9b1c_e960_8bf1_a616, 0xf8b7_c791_2643_0b58),
    ("Radio/FB", 0x3812_d67d_3e29_fd94, 0x0e76_3c64_0372_1495),
    ("Music/Msg", 0x531f_9532_2536_dfb8, 0xd070_63bc_db0b_9cc3),
    ("Radio/Msg", 0x0762_f594_0a65_0015, 0xbe37_3812_77e0_c67e),
    ("FB/Msg", 0xfb1f_bbec_f6c8_420b, 0x7042_e911_39e4_5430),
];

fn fnv64(h: &mut u64, value: u64) {
    for b in value.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x1000_0000_01b3);
    }
}

fn fold(h: &mut u64, r: &IoRequest) {
    fnv64(h, r.id);
    fnv64(h, r.arrival.as_ns());
    fnv64(h, u64::from(r.direction == Direction::Write));
    fnv64(h, r.size.as_u64());
    fnv64(h, r.lba);
}

fn digest(requests: impl Iterator<Item = IoRequest>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for r in requests {
        fold(&mut h, &r);
    }
    h
}

fn stream_digest(profile: &AppProfile, scale: u64) -> u64 {
    let mut s = stream(profile, SEED, scale);
    digest(std::iter::from_fn(|| s.next_request()))
}

#[test]
fn every_paper_profile_streams_its_golden_digest() {
    let profiles: Vec<AppProfile> = all_individual().into_iter().chain(all_combos()).collect();
    assert_eq!(profiles.len(), GOLDEN.len());
    for (profile, &(name, one_epoch, two_epochs)) in profiles.iter().zip(&GOLDEN) {
        assert_eq!(profile.name, name, "profile order changed");
        assert_eq!(
            stream_digest(profile, 1),
            one_epoch,
            "{name}: stream changed"
        );
        assert_eq!(
            stream_digest(profile, 2),
            two_epochs,
            "{name}: second epoch changed"
        );
    }
}

#[test]
fn materialized_traces_have_the_stream_digest() {
    for &(name, one_epoch, _) in &GOLDEN {
        let profile = by_name(name).expect("paper profile");
        let trace = generate(&profile, SEED);
        let h = digest(trace.records().iter().map(|record| record.request));
        assert_eq!(h, one_epoch, "{name}: materialized trace changed");
    }
}
