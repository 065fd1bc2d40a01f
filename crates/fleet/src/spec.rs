//! Fleet population specifications.
//!
//! A [`FleetSpec`] is a *distribution over devices*, not a device: it
//! describes how a population of smartphones varies — mapping scheme,
//! flash geometry, over-provisioning headroom, workload mix, and optional
//! accumulated wear — plus one master seed. Device `i`'s concrete
//! configuration is [`FleetSpec::setup`]`(i)`, a pure function of
//! [`derive_seed`]`(spec.seed, i)`: any worker, in any order, at any job
//! count, derives the identical device, which is the root of the fleet
//! engine's byte-identical-at-any-`--jobs` guarantee.

use hps_core::{derive_seed, SimRng};
use hps_emmc::SchemeKind;
use hps_nand::WearProfile;
use hps_workloads::WorkloadMix;

/// One flash-geometry class a fleet device can be built with.
///
/// `blocks_4k_equiv` and `pages_per_block` feed
/// [`hps_emmc::DeviceConfig::scaled`]; fleet devices are deliberately
/// small (single-digit MiB) so that 100 000 of them construct, replay,
/// and drop in seconds while still exercising GC and both page sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GeometryClass {
    /// Label used in the fleet report's breakdown tables.
    pub label: &'static str,
    /// Per-plane block budget in 4 KiB-block equivalents (multiple of 4).
    pub blocks_4k_equiv: usize,
    /// Pages per block.
    pub pages_per_block: usize,
}

/// A uniform band of pre-existing per-block wear, for mid-life fleets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WearBand {
    /// Center of the per-block prior-erase distribution.
    pub mean_erases: u64,
    /// Half-width of the band around the mean.
    pub spread: u64,
}

/// The population distribution one fleet run draws its devices from.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// Number of devices to simulate.
    pub devices: u64,
    /// Master seed; device `i` derives its own seed from it.
    pub seed: u64,
    /// Requests each device replays from its assigned trace.
    pub requests_per_device: u64,
    /// Weighted workload distribution.
    pub mix: WorkloadMix,
    /// Trace variants per workload: devices drawing the same
    /// `(workload, variant)` share one cached trace, so this knob trades
    /// population diversity against trace-generation time.
    pub variants_per_workload: u32,
    /// Mapping schemes in the population (uniform draw).
    pub schemes: Vec<SchemeKind>,
    /// Geometry classes in the population (uniform draw).
    pub geometries: Vec<GeometryClass>,
    /// Per-device utilization band `[lo, hi)`: the fraction of the
    /// device's logical span the workload is folded into. Lower
    /// utilization models more over-provisioning headroom.
    pub utilization: (f64, f64),
    /// Optional pre-existing wear; `None` simulates a factory-fresh fleet.
    pub wear: Option<WearBand>,
    /// Rated program/erase cycle budget per block, for the endurance
    /// fast-forward (MLC-class default: 3000).
    pub cycle_budget: u64,
}

/// The geometry classes of [`FleetSpec::default_with`]: all are small
/// enough that a device constructs and drops in well under a millisecond.
pub const DEFAULT_GEOMETRIES: [GeometryClass; 3] = [
    // `blocks_4k_equiv` stays >= 32: HPS gives the 8 KiB pool a quarter
    // of the blocks, and below 8 such blocks per plane the GC floor is a
    // large enough fraction of the pool that a sequential (all-8 KiB)
    // span can exhaust it.
    GeometryClass {
        label: "G32x8",
        blocks_4k_equiv: 32,
        pages_per_block: 8,
    },
    GeometryClass {
        label: "G48x8",
        blocks_4k_equiv: 48,
        pages_per_block: 8,
    },
    GeometryClass {
        label: "G32x16",
        blocks_4k_equiv: 32,
        pages_per_block: 16,
    },
];

impl FleetSpec {
    /// The standard fleet population: all three mapping schemes, the
    /// three default geometry classes, the default workload mix, a
    /// 0.35–0.60 utilization band, and a mid-life wear band.
    pub fn default_with(devices: u64, seed: u64) -> FleetSpec {
        FleetSpec {
            devices,
            seed,
            requests_per_device: 300,
            mix: WorkloadMix::default_fleet(),
            variants_per_workload: 2,
            schemes: SchemeKind::ALL.to_vec(),
            geometries: DEFAULT_GEOMETRIES.to_vec(),
            // Capped well below HPS's worst case: a 4 KiB-dominant span
            // above ~0.65 of capacity overflows the 4 KiB pool and then
            // pad-doubles inside the 8 KiB pool until both exhaust.
            utilization: (0.35, 0.60),
            wear: Some(WearBand {
                mean_erases: 400,
                spread: 250,
            }),
            cycle_budget: 3_000,
        }
    }

    /// Derives device `index`'s concrete configuration. Pure function of
    /// `(self, index)`: no call order or shared state can change it.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no schemes or geometries.
    pub fn setup(&self, index: u64) -> DeviceSetup {
        let seed = derive_seed(self.seed, index);
        let mut rng = SimRng::seed_from(seed);
        let (mix_index, workload) = self.mix.sample(&mut rng);
        let variant = rng.uniform_u64(u64::from(self.variants_per_workload.max(1))) as u32;
        let scheme = *rng.pick(&self.schemes);
        let geometry = *rng.pick(&self.geometries);
        let (lo, hi) = self.utilization;
        let utilization = lo + rng.uniform() * (hi - lo);
        let wear = self.wear.map(|band| WearProfile {
            // Drawn from the device stream so the wear pattern
            // decorrelates from the configuration draws above.
            seed: rng.uniform_range(0, u64::MAX),
            mean_erases: band.mean_erases,
            spread: band.spread,
        });
        DeviceSetup {
            index,
            seed,
            workload,
            mix_index,
            variant,
            scheme,
            geometry,
            utilization,
            wear,
        }
    }
}

/// The fully resolved configuration of one fleet device.
#[derive(Clone, Copy, Debug)]
pub struct DeviceSetup {
    /// Position in the fleet (0-based).
    pub index: u64,
    /// The device's derived seed.
    pub seed: u64,
    /// Assigned workload name.
    pub workload: &'static str,
    /// Index of the workload in the spec's mix (trace-cache key half).
    pub mix_index: usize,
    /// Trace variant (trace-cache key half).
    pub variant: u32,
    /// Mapping scheme.
    pub scheme: SchemeKind,
    /// Flash geometry class.
    pub geometry: GeometryClass,
    /// Fraction of the logical span the workload is folded into.
    pub utilization: f64,
    /// Pre-existing wear, if the spec models a mid-life fleet.
    pub wear: Option<WearProfile>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_a_pure_function_of_index() {
        let spec = FleetSpec::default_with(1_000, 77);
        let a = spec.setup(123);
        let b = spec.setup(123);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(a.geometry, b.geometry);
        assert_eq!(a.variant, b.variant);
        assert!(a.utilization == b.utilization);
        assert_eq!(a.wear, b.wear);
    }

    #[test]
    fn population_actually_varies() {
        let spec = FleetSpec::default_with(256, 1);
        let setups: Vec<DeviceSetup> = (0..256).map(|i| spec.setup(i)).collect();
        let schemes: std::collections::BTreeSet<&str> =
            setups.iter().map(|s| s.scheme.label()).collect();
        let workloads: std::collections::BTreeSet<&str> =
            setups.iter().map(|s| s.workload).collect();
        let geoms: std::collections::BTreeSet<&str> =
            setups.iter().map(|s| s.geometry.label).collect();
        assert_eq!(schemes.len(), 3, "all three schemes drawn");
        assert!(workloads.len() >= 5, "mix should spread across workloads");
        assert_eq!(geoms.len(), 3, "all geometry classes drawn");
        for s in &setups {
            assert!((0.35..0.60).contains(&s.utilization));
            assert!(s.wear.is_some());
        }
    }

    #[test]
    fn utilization_band_is_respected_at_the_edges() {
        let mut spec = FleetSpec::default_with(64, 9);
        spec.utilization = (0.7, 0.7);
        for i in 0..64 {
            assert!(spec.setup(i).utilization == 0.7);
        }
    }

    /// Every corner of the configuration's physical geometry, bad-block
    /// spares included, survives the mapping table's 4-byte packing.
    fn assert_geometry_round_trips(cfg: &hps_ftl::FtlConfig) {
        use hps_ftl::{Lpn, MappingTable, Ppn};
        use hps_nand::{BlockId, PageAddr};
        cfg.validate().expect("valid config");
        let mut table = MappingTable::for_config(cfg);
        let last = (
            cfg.geometry.planes_total() - 1,
            cfg.blocks_per_plane() - 1,
            cfg.pages_per_block - 1,
        );
        let mut lpn = table.capacity();
        for plane in [0, last.0] {
            for block in [0, last.1] {
                for page in [0, last.2] {
                    let ppn = Ppn {
                        plane,
                        addr: PageAddr {
                            block: BlockId(block),
                            page,
                        },
                    };
                    // Count down from the last LPN of capacity.
                    lpn -= 1;
                    table.remap(Lpn(lpn), ppn);
                    assert_eq!(table.lookup(Lpn(lpn)), Some(ppn), "{ppn}");
                }
            }
        }
    }

    #[test]
    fn table_v_and_fleet_geometries_fit_the_mapping_table() {
        let with_spares = |mut cfg: hps_ftl::FtlConfig| {
            cfg.faults = hps_nand::FaultConfig {
                spare_blocks_per_pool: 2,
                ..hps_nand::FaultConfig::NONE
            };
            assert!(cfg.faults.enabled());
            cfg
        };
        for scheme in SchemeKind::ALL {
            assert_geometry_round_trips(&scheme.table_v_ftl());
            assert_geometry_round_trips(&with_spares(scheme.table_v_ftl()));
            for class in DEFAULT_GEOMETRIES {
                let cfg = scheme.scaled_ftl(class.blocks_4k_equiv, class.pages_per_block);
                assert_geometry_round_trips(&cfg);
                assert_geometry_round_trips(&with_spares(cfg));
            }
        }
    }
}
