//! The `fleet` workload: `REPLICAS` independent default fleets,
//! `FleetSpec::default_with(DEVICES_PER_REPLICA, seed_r)`, over
//! `min(2, nproc)` workers.
//!
//! Each device is built new, pre-worn, and replays 300 requests
//! folded into 35-60% of its span, so device construction, GC copyback
//! and erase, digesting, snapshot merging and the worker pool dominate.
//! A default fleet draws every device's trace from only 20 cached traces
//! (10 workloads x 2 variants), so one fleet's simulated figures hinge on
//! those 20 draws; ten fleets with their own seeds average over 200.
//!
//! A pass rebuilds `hps_fleet::run_fleet_jobs` from the crate's public
//! calls: the trace caches (`build_trace_cache`, timed as set-up), then
//! every fleet's fixed shards through one `par_map_jobs` call, each device
//! through `FleetSpec::setup` and `run_device`, folded with
//! `FleetAccum::observe` and `MetricsSnapshot::merge`, and each fleet's
//! shards combined by a `SnapshotTreeMerger`. The checks hold this
//! pipeline to the program's: per fleet, the same canonical snapshot
//! bytes as `run_fleet_jobs` at 1 and 2 workers.

use std::thread::ThreadId;
use std::time::{Duration, Instant};

use hps_core::par::par_map_jobs;
use hps_core::{derive_seed, Direction, Error, IoRequest};
use hps_emmc::{DeviceConfig, EmmcDevice, SchemeKind};
use hps_fleet::run::test_folded_trace;
use hps_fleet::{
    build_trace_cache, run_device, run_fleet_jobs, DeviceRecord, DeviceSetup, FleetAccum,
    FleetSpec, TraceCache, SHARD_DEVICES,
};
use hps_obs::{MetricsSnapshot, ProfileReport, SnapshotTreeMerger};
use hps_trace::TraceSource;

use crate::report::{median, peak_rss_mib, ratio, report_profile, Calibration, CallTimes, Outcome};

/// Independent fleets per pass.
const REPLICAS: u64 = 10;

/// Devices per fleet: 10 x 1,000 is the 10k-device population of the
/// ROADMAP's fleet baseline.
const DEVICES_PER_REPLICA: u64 = 1_000;

/// Logical page size of the request address space.
const PAGE_BYTES: u64 = 4096;

/// Devices of the first fleet replayed request by request to check every
/// completion's timestamps.
const TIMESTAMP_CHECK_DEVICES: u64 = SHARD_DEVICES;

fn workers() -> usize {
    hps_core::par::available_parallelism().min(2)
}

fn specs(seed: u64) -> Vec<FleetSpec> {
    (0..REPLICAS)
        .map(|r| FleetSpec::default_with(DEVICES_PER_REPLICA, derive_seed(seed, r)))
        .collect()
}

/// A fleet's shards, as `(first device, end device)`, cut as
/// `run_fleet_jobs` cuts them.
fn shards(spec: &FleetSpec) -> Vec<(u64, u64)> {
    (0..spec.devices.div_ceil(SHARD_DEVICES))
        .map(|s| {
            (
                s * SHARD_DEVICES,
                ((s + 1) * SHARD_DEVICES).min(spec.devices),
            )
        })
        .collect()
}

/// What one shard or one fleet folds.
struct Fold {
    accum: FleetAccum,
    snapshot: MetricsSnapshot,
    /// Per completed device, summed in device order: the logarithms of
    /// its mean and p99 response times.
    log_sums: [f64; 2],
}

impl Fold {
    fn new(accum: FleetAccum, snapshot: MetricsSnapshot) -> Self {
        Fold {
            accum,
            snapshot,
            log_sums: [0.0; 2],
        }
    }

    fn observe(&mut self, spec: &FleetSpec, record: &DeviceRecord, snapshot: &MetricsSnapshot) {
        self.accum.observe(spec, record);
        self.snapshot.merge(snapshot);
        self.log_sums[0] += record.mean_ms.ln();
        self.log_sums[1] += record.p99_ms.ln();
    }

    /// Whether two folds hold the same fleet result. `run_fleet_jobs`
    /// keeps no per-device logarithms, so those are left out.
    fn same(&self, other: &Fold) -> bool {
        let key = |f: &Fold| {
            (
                f.accum.devices,
                f.accum.wedged,
                f.accum.requests,
                f.accum.gc_runs,
                f.accum.erases,
            )
        };
        self.snapshot.canonical_bytes() == other.snapshot.canonical_bytes()
            && key(self) == key(other)
    }
}

/// Folds one fleet's shard results in shard order, as `run_fleet_jobs`
/// does.
fn combine(shards: impl Iterator<Item = Fold>) -> Fold {
    let mut tree = SnapshotTreeMerger::new();
    let mut fold = Fold::new(FleetAccum::new(), MetricsSnapshot::new());
    for shard in shards {
        fold.accum.merge(&shard.accum);
        tree.push(shard.snapshot);
        fold.log_sums[0] += shard.log_sums[0];
        fold.log_sums[1] += shard.log_sums[1];
    }
    fold.snapshot = tree.finish();
    fold
}

/// Builds a device as `run_device` does: the scaled geometry, pre-worn.
fn build_device(setup: &DeviceSetup) -> EmmcDevice {
    let cfg = DeviceConfig::scaled(
        setup.scheme,
        setup.geometry.blocks_4k_equiv,
        setup.geometry.pages_per_block,
    );
    let mut device = EmmcDevice::new(cfg).expect("spec geometries are valid");
    if let Some(wear) = &setup.wear {
        device.inject_wear(wear);
    }
    device
}

/// The folded trace `run_device` replays on a device.
fn device_source<'a>(
    spec: &FleetSpec,
    cache: &'a TraceCache,
    device: &EmmcDevice,
    setup: &DeviceSetup,
) -> impl TraceSource + 'a {
    let trace = cache
        .get(&(setup.mix_index, setup.variant))
        .expect("the cache covers every mix entry and variant");
    let logical_pages = device.ftl().logical_capacity().as_u64() / PAGE_BYTES;
    let span_pages = ((logical_pages as f64 * setup.utilization) as u64).max(1);
    test_folded_trace(trace, spec.requests_per_device, span_pages)
}

/// A source wrapper that times the layers around `replay_stream`'s own
/// loop: the time inside `next_request`, and the gap between successive
/// calls — the device's `submit` plus the loop's per-request bookkeeping.
struct TimedSource<'t, S> {
    inner: S,
    last: Option<(Instant, Direction)>,
    times: &'t mut CallTimes,
}

impl<S: TraceSource> TraceSource for TimedSource<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_request(&mut self) -> Option<IoRequest> {
        let entered = Instant::now();
        if let Some((left, direction)) = self.last.take() {
            self.times
                .submit(direction, entered.duration_since(left).as_nanos() as u64);
        }
        let request = self.inner.next_request();
        let left = Instant::now();
        self.times
            .next(left.duration_since(entered).as_nanos() as u64);
        self.last = request.map(|r| (left, r.direction));
        request
    }
}

/// Simulated totals of one scheme's completed devices.
#[derive(Clone, Copy, Default)]
struct SchemeSim {
    response_ms: f64,
    requests: u64,
    data_written: u64,
    flash_consumed: u64,
}

/// Host times and simulated layer counters of a traced shard (or, summed,
/// of a traced pass).
#[derive(Default)]
struct ShardTrace {
    calls: CallTimes,
    spec_setup_ns: u64,
    construct_ns: u64,
    replay_ns: u64,
    digest_ns: u64,
    fold_ns: u64,
    devices: u64,
    completed: u64,
    requests: u64,
    gc_reads: u64,
    idle_gc_passes: u64,
    mode_switches: u64,
    pool_spills: u64,
    wait_ms: f64,
    service_ms: f64,
    erase_spread: u64,
    /// Per scheme, in `SchemeKind::ALL` order.
    schemes: [SchemeSim; 3],
    profile: Option<ProfileReport>,
    busy_ns: u64,
    /// Worker-nanoseconds the pool had (wall time x workers).
    capacity_ns: u64,
    /// Worker-nanoseconds idle after a worker's last shard.
    tail_idle_ns: u64,
    tree_merge_ns: u64,
    passes: u64,
}

impl ShardTrace {
    fn merge(&mut self, t: ShardTrace) {
        self.calls.merge(t.calls);
        self.spec_setup_ns += t.spec_setup_ns;
        self.construct_ns += t.construct_ns;
        self.replay_ns += t.replay_ns;
        self.digest_ns += t.digest_ns;
        self.fold_ns += t.fold_ns;
        self.devices += t.devices;
        self.completed += t.completed;
        self.requests += t.requests;
        self.gc_reads += t.gc_reads;
        self.idle_gc_passes += t.idle_gc_passes;
        self.mode_switches += t.mode_switches;
        self.pool_spills += t.pool_spills;
        self.wait_ms += t.wait_ms;
        self.service_ms += t.service_ms;
        self.erase_spread += t.erase_spread;
        self.busy_ns += t.busy_ns;
        self.capacity_ns += t.capacity_ns;
        self.tail_idle_ns += t.tail_idle_ns;
        self.tree_merge_ns += t.tree_merge_ns;
        self.passes += t.passes;
        for (a, b) in self.schemes.iter_mut().zip(t.schemes) {
            a.response_ms += b.response_ms;
            a.requests += b.requests;
            a.data_written += b.data_written;
            a.flash_consumed += b.flash_consumed;
        }
        match (&mut self.profile, t.profile) {
            (Some(a), Some(b)) => a.merge(&b),
            (a, b) => *a = a.take().or(b),
        }
    }
}

/// One shard's result: its fold, its traced layer times, unexpected
/// device errors, and which worker finished it when.
type ShardResult = (Fold, ShardTrace, Vec<String>, ThreadId, Instant);

/// Replays devices `[lo, hi)` of one fleet. Untraced, each device goes
/// through `run_device`; traced, `run_device` is rebuilt from its public
/// parts so that each can be timed, and the phase profiler samples every
/// request.
fn shard<const TRACED: bool>(
    spec: &FleetSpec,
    cache: &TraceCache,
    lo: u64,
    hi: u64,
) -> ShardResult {
    let shard_start = Instant::now();
    if TRACED {
        hps_obs::profile::set_stride(1);
        hps_obs::profile::reset();
    }
    let mut t = ShardTrace::default();
    let mut fold = Fold::new(FleetAccum::new(), MetricsSnapshot::new());
    let mut errors = Vec::new();
    for index in lo..hi {
        if !TRACED {
            let setup = spec.setup(index);
            match run_device(spec, cache, &setup) {
                Some((record, snapshot)) => fold.observe(spec, &record, &snapshot),
                None => fold.accum.observe_wedged(&setup),
            }
            continue;
        }
        let t0 = Instant::now();
        let setup = spec.setup(index);
        let t1 = Instant::now();
        let mut device = build_device(&setup);
        let t2 = Instant::now();
        let mut source = TimedSource {
            inner: device_source(spec, cache, &device, &setup),
            last: None,
            times: &mut t.calls,
        };
        let replayed = device.replay_stream(&mut source);
        let t3 = Instant::now();
        t.spec_setup_ns += (t1 - t0).as_nanos() as u64;
        t.construct_ns += (t2 - t1).as_nanos() as u64;
        t.replay_ns += (t3 - t2).as_nanos() as u64;
        t.devices += 1;
        let metrics = match replayed {
            Ok(metrics) => metrics,
            Err(e) => {
                if !matches!(e, Error::CapacityExhausted { .. }) {
                    errors.push(format!("fleet: device {index} failed: {e}"));
                }
                fold.accum.observe_wedged(&setup);
                continue;
            }
        };
        let record = DeviceRecord::digest(&setup, &device, &metrics);
        let snapshot = MetricsSnapshot::capture(&metrics.to_registry());
        let t4 = Instant::now();
        fold.observe(spec, &record, &snapshot);
        let t5 = Instant::now();
        t.digest_ns += (t4 - t3).as_nanos() as u64;
        t.fold_ns += (t5 - t4).as_nanos() as u64;
        t.completed += 1;
        t.requests += metrics.total_requests;
        t.gc_reads += metrics.ftl.gc_reads;
        t.idle_gc_passes += metrics.idle_gc_passes;
        t.mode_switches += metrics.mode_switches;
        t.pool_spills += metrics.pool_spills;
        t.service_ms += metrics.service_ms.sum();
        t.wait_ms += metrics.response_ms.sum() - metrics.service_ms.sum();
        let wear = device.ftl().wear();
        t.erase_spread += wear.max() - wear.min();
        let slot = SchemeKind::ALL
            .iter()
            .position(|&k| k == setup.scheme)
            .expect("a known scheme");
        let s = &mut t.schemes[slot];
        s.response_ms += metrics.response_ms.sum();
        s.requests += metrics.total_requests;
        s.data_written += metrics.space.data_written().as_u64();
        s.flash_consumed += metrics.space.flash_consumed().as_u64();
    }
    if TRACED {
        t.profile = Some(hps_obs::profile::report());
        hps_obs::profile::reset();
        hps_obs::profile::set_stride(64);
    }
    t.busy_ns = shard_start.elapsed().as_nanos() as u64;
    (fold, t, errors, std::thread::current().id(), Instant::now())
}

/// One pass over every fleet.
#[derive(Default)]
struct Pass {
    /// One fold per fleet.
    fleets: Vec<Fold>,
    /// Host seconds each fleet took.
    fleet_host_s: Vec<f64>,
    /// Layer times and counters (traced passes).
    trace: ShardTrace,
}

impl Pass {
    fn total(&self) -> Fold {
        let mut total = Fold::new(FleetAccum::new(), MetricsSnapshot::new());
        for fleet in &self.fleets {
            total.accum.merge(&fleet.accum);
            total.snapshot.merge(&fleet.snapshot);
            total.log_sums[0] += fleet.log_sums[0];
            total.log_sums[1] += fleet.log_sums[1];
        }
        total
    }
}

/// One pass over every fleet, one `par_map_jobs` call per fleet as
/// `run_fleet_jobs` makes; traced, with every public call timed. With a
/// `calibration`, samples the host's speed before every fleet.
fn pass<const TRACED: bool>(
    specs: &[FleetSpec],
    caches: &[TraceCache],
    jobs: usize,
    mut calibration: Option<&mut Calibration>,
    out: &mut Outcome,
) -> Pass {
    let mut pass = Pass::default();
    for (spec, cache) in specs.iter().zip(caches) {
        if let Some(calibration) = calibration.as_deref_mut() {
            calibration.sample();
        }
        let started = Instant::now();
        let results = par_map_jobs(jobs, shards(spec), |(lo, hi)| {
            shard::<TRACED>(spec, cache, lo, hi)
        });
        let par_end = Instant::now();
        // When each worker thread finished its last shard.
        let mut last_end: Vec<(ThreadId, Instant)> = Vec::new();
        let mut folds = Vec::with_capacity(results.len());
        for (fold, t, errors, thread, ended) in results {
            for e in errors {
                out.check(false, || e);
            }
            match last_end.iter_mut().find(|(id, _)| *id == thread) {
                Some((_, end)) => *end = (*end).max(ended),
                None => last_end.push((thread, ended)),
            }
            pass.trace.merge(t);
            folds.push(fold);
        }
        let merge_start = Instant::now();
        pass.fleets.push(combine(folds.into_iter()));
        let fleet_end = Instant::now();
        pass.trace.tree_merge_ns += fleet_end.duration_since(merge_start).as_nanos() as u64;
        pass.trace.capacity_ns += par_end.duration_since(started).as_nanos() as u64 * jobs as u64;
        pass.trace.tail_idle_ns += last_end
            .iter()
            .map(|&(_, e)| par_end.duration_since(e).as_nanos() as u64)
            .sum::<u64>();
        pass.fleet_host_s
            .push(fleet_end.duration_since(started).as_secs_f64());
    }
    pass.trace.passes = 1;
    pass
}

/// Accounting of one fleet: every device completed or wedged, and every
/// completed device retired all its requests.
fn check_fold(spec: &FleetSpec, fold: &Fold, out: &mut Outcome) {
    let a = &fold.accum;
    out.check(a.devices + a.wedged == spec.devices, || {
        format!(
            "fleet: {} completed + {} wedged != {} devices",
            a.devices, a.wedged, spec.devices
        )
    });
    out.check(a.requests == a.devices * spec.requests_per_device, || {
        format!(
            "fleet: {} requests retired by {} completed devices of {} requests each",
            a.requests, a.devices, spec.requests_per_device
        )
    });
}

/// Replays the first devices of a fleet request by request through
/// `submit`, checking `finish >= service_start >= arrival` for every
/// completion and that each device retires what `run_device` retired.
fn check_timestamps(spec: &FleetSpec, cache: &TraceCache, out: &mut Outcome) {
    for index in 0..TIMESTAMP_CHECK_DEVICES.min(spec.devices) {
        let setup = spec.setup(index);
        let mut device = build_device(&setup);
        let mut source = device_source(spec, cache, &device, &setup);
        let (mut retired, mut nowait, mut refused) = (0u64, 0u64, false);
        while let Some(request) = source.next_request() {
            match device.submit(&request) {
                Ok(done) => {
                    out.check(
                        done.finish >= done.service_start && done.service_start >= request.arrival,
                        || {
                            format!(
                                "fleet: device {index} request {} breaks finish >= service_start >= arrival",
                                request.id
                            )
                        },
                    );
                    retired += 1;
                    nowait += u64::from(done.service_start == request.arrival);
                }
                Err(_) => {
                    refused = true;
                    break;
                }
            }
        }
        match run_device(spec, cache, &setup) {
            Some((record, _)) => out.check(
                !refused && (record.requests, record.nowait) == (retired, nowait),
                || format!("fleet: device {index} submit loop disagrees with run_device"),
            ),
            None => out.check(refused, || {
                format!("fleet: device {index} wedged in run_device only")
            }),
        }
    }
}

/// Runs the workload: passes until `budget` is spent (at least one).
/// Untraced, reports the end-to-end metrics; traced, one untraced pass
/// then traced passes, and the per-layer metrics.
pub fn run(seed: u64, budget: Duration, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let specs = specs(seed);
    let jobs = workers();
    // `build_trace_cache` fans out over the process-wide job count.
    hps_core::par::set_jobs(jobs);
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut first: Option<Pass> = None;
    let mut rss = None;
    let mut caches = Vec::new();
    let mut traced_rates = Vec::new();
    let mut trace = ShardTrace::default();
    let mut calibration = Calibration::default();
    // Per fleet, its host seconds in every untraced pass.
    let mut fleet_times: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let started = Instant::now();
    // A traced run first makes one untraced pass: its rate is the base of
    // the tracing overhead and its results the reference the traced
    // passes must reproduce.
    while first.is_none()
        || started.elapsed() < budget
        || (traced && traced_rates.is_empty())
        || !calibration.sampled()
    {
        let t = Instant::now();
        caches.clear();
        caches = specs.iter().map(build_trace_cache).collect::<Vec<_>>();
        setups.push(t.elapsed().as_secs_f64());
        // The host's speed is sampled once peak memory has been read, so
        // that the calibration buffer never counts in it.
        let sampler = first.is_some().then_some(&mut calibration);
        let pass = if traced && first.is_some() {
            pass::<true>(&specs, &caches, jobs, sampler, &mut out)
        } else {
            pass::<false>(&specs, &caches, jobs, sampler, &mut out)
        };
        let total = pass.total();
        for (spec, fold) in specs.iter().zip(&pass.fleets) {
            check_fold(spec, fold, &mut out);
        }
        let rate = total.accum.requests as f64 / pass.fleet_host_s.iter().sum::<f64>();
        if !(traced && first.is_some()) {
            rates.push(rate);
            for (times, &t) in fleet_times.iter_mut().zip(&pass.fleet_host_s) {
                times.push(t);
            }
        }
        match &first {
            None => {
                // Operations are counted over the first pass only: later
                // passes repeat its devices, and must reproduce their
                // outcomes.
                out.attempted += total.accum.devices + total.accum.wedged;
                out.failed += total.accum.wedged;
                // Later passes repeat the same work; the heap they leave
                // behind grows with their number, not with the workload.
                rss = peak_rss_mib();
                first = Some(pass);
            }
            Some(f) => {
                let same = f
                    .fleets
                    .iter()
                    .zip(&pass.fleets)
                    .all(|(a, b)| a.same(b) && a.log_sums == b.log_sums);
                out.check(same, || {
                    "fleet: a repeated pass changed the simulated results".to_string()
                });
                if traced {
                    traced_rates.push(rate);
                    trace.merge(pass.trace);
                }
            }
        }
    }
    let first = first.expect("at least one pass ran");
    let total = first.total();
    let a = &total.accum;
    out.note(format!(
        "fleet: {REPLICAS} fleets of {DEVICES_PER_REPLICA} devices over {jobs} workers: {} completed, {} wedged ({:.4}%); write amp {:.4}, {} GC runs",
        a.devices,
        a.wedged,
        100.0 * ratio(a.wedged as f64, (a.devices + a.wedged) as f64),
        a.write_amplification(),
        a.gc_runs
    ));
    out.note(format!(
        "fleet: wedged per fleet {:?}",
        first
            .fleets
            .iter()
            .map(|f| f.accum.wedged)
            .collect::<Vec<_>>()
    ));
    out.note(format!(
        "fleet: sim_mrt_ms and sim_p99_ms are geometric means over {} completed devices; pooled mean {:.4} ms, pooled p99 {:.4} ms",
        a.devices,
        a.pooled_response.mean(),
        a.pooled_response.quantile(0.99).unwrap_or(0.0)
    ));
    out.note(format!("fleet: host_req_per_s per pass {rates:?}"));
    check_timestamps(&specs[0], &caches[0], &mut out);
    if traced {
        report_layers(&total, &trace, &mut out);
        out.set("fleet.trace_cache_s", median(&setups));
        let untraced = median(&rates);
        let traced_rate = median(&traced_rates);
        out.set("trace.untraced_req_per_s", untraced);
        out.set("trace.traced_req_per_s", traced_rate);
        out.set(
            "trace.overhead_pct",
            100.0 * (1.0 - ratio(traced_rate, untraced)),
        );
        out.set(
            "fail.share_pct",
            100.0 * ratio(out.failed as f64, out.attempted as f64),
        );
    } else {
        // The program's own engine must produce the rebuilt pipeline's
        // result for every fleet, at one worker and at two.
        for (spec, fold) in specs.iter().zip(&first.fleets) {
            for reference_jobs in [1, 2] {
                let reference = run_fleet_jobs(reference_jobs, spec);
                out.check(fold.same(&Fold::new(reference.accum, reference.snapshot)), || {
                    format!("fleet: run_fleet_jobs({reference_jobs}) differs from the rebuilt pipeline")
                });
            }
        }
        let registry = total.snapshot.registry();
        let written = registry
            .counter_value("ftl.space.data_written_bytes")
            .unwrap_or(0);
        let consumed = registry
            .counter_value("ftl.space.flash_consumed_bytes")
            .unwrap_or(0);
        let completed = a.devices as f64;
        // Each fleet's median over passes: a slow spell on the host then
        // costs only the fleets it overlapped, not a whole pass.
        let host_s: f64 = fleet_times.iter().map(|t| median(t)).sum();
        let (rate, setup_s) = (a.requests as f64 / host_s, median(&setups));
        calibration.note("fleet", rate, setup_s, &mut out);
        out.set("host_req_per_s", rate * calibration.slowdown());
        out.set("setup_s", setup_s / calibration.slowdown());
        match rss {
            Some(mib) => out.set("peak_rss_mib", mib),
            None => out.check(false, || "cannot read peak RSS from /proc".to_string()),
        }
        out.set("sim_mrt_ms", ratio(total.log_sums[0], completed).exp());
        out.set("sim_p99_ms", ratio(total.log_sums[1], completed).exp());
        out.set("write_amp", a.write_amplification());
        out.set(
            "space_util_pct",
            100.0 * ratio(written as f64, consumed as f64),
        );
    }
    out
}

/// Per-layer metrics from the traced passes. Host times are per call;
/// simulated counts are per pass (every pass simulates the same fleets).
fn report_layers(total: &Fold, t: &ShardTrace, out: &mut Outcome) {
    let a = &total.accum;
    let per_device = |ns: u64| ratio(ns as f64, t.devices as f64);
    let per_completed = |ns: u64| ratio(ns as f64, t.completed as f64);
    let per_pass = |n: u64| ratio(n as f64, t.passes as f64);
    t.calls.report(out);
    out.set("emmc.construct_ns", per_device(t.construct_ns));
    out.set("emmc.sim_wait_ms", ratio(t.wait_ms, t.requests as f64));
    out.set(
        "emmc.sim_service_ms",
        ratio(t.service_ms, t.requests as f64),
    );
    out.set(
        "emmc.nowait_pct",
        100.0 * ratio(a.nowait as f64, a.requests as f64),
    );
    out.set("emmc.sim_samples", a.pooled_response.count() as f64);
    out.set("emmc.pool_spills", per_pass(t.pool_spills));
    out.set("emmc.idle_gc_passes", per_pass(t.idle_gc_passes));
    out.set("emmc.mode_switches", per_pass(t.mode_switches));
    for (slot, scheme) in SchemeKind::ALL.iter().enumerate() {
        let s = &t.schemes[slot];
        out.set(
            format!("emmc.{}.sim_mrt_ms", scheme.label()),
            ratio(s.response_ms, s.requests as f64),
        );
        out.set(
            format!("emmc.{}.space_util_pct", scheme.label()),
            100.0 * ratio(s.data_written as f64, s.flash_consumed as f64),
        );
    }
    out.set("ftl.host_programs", a.host_programs as f64);
    out.set("ftl.gc_programs", a.gc_programs as f64);
    out.set("ftl.gc_reads", per_pass(t.gc_reads));
    out.set("ftl.gc_runs", a.gc_runs as f64);
    out.set("ftl.erases", a.erases as f64);
    out.set(
        "ftl.copies_per_victim",
        ratio(a.gc_programs as f64, a.gc_runs as f64),
    );
    out.set("ftl.erase_max", a.wear_max as f64);
    out.set("ftl.erase_spread", per_completed(t.erase_spread));
    if let Some(profile) = &t.profile {
        report_profile("fleet", profile, out);
    }
    out.set("fleet.spec_setup_ns", per_device(t.spec_setup_ns));
    out.set("fleet.replay_ns", per_device(t.replay_ns));
    out.set("fleet.digest_ns", per_completed(t.digest_ns));
    out.set("fleet.fold_ns", per_completed(t.fold_ns));
    out.set("fleet.tree_merge_ns", per_pass(t.tree_merge_ns));
    out.set("fleet.completed", a.devices as f64);
    out.set("fleet.wedged", a.wedged as f64);
    out.set(
        "par.busy_pct",
        100.0 * ratio(t.busy_ns as f64, t.capacity_ns as f64),
    );
    out.set("par.tail_idle_ms", per_pass(t.tail_idle_ns) / 1e6);
}
