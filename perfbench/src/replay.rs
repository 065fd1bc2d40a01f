//! The `paper-mix` and `read-heavy` workloads: closed-loop streamed replay
//! of paper traces on fresh Table V devices, one client on one thread.
//!
//! A workload replays several independent copies of its traces, each
//! generated from its own seed derived from the workload seed. A *pass*
//! replays one copy: every (trace, scheme) job on a fresh device. Each
//! pass builds its trace streams and, job by job, its devices (both timed
//! as set-up), then drives each job through the public device API:
//! `TraceSource::next_request` generates a request, `EmmcDevice::submit`
//! serves it, and only then is the next one generated. Passes cycle over
//! the copies; a pass must reproduce the simulated results of the first
//! pass over the same copy.

use std::time::{Duration, Instant};

use hps_core::{derive_seed, Bytes, Direction, Error};
use hps_emmc::distributor::split_request_into;
use hps_emmc::{ChannelMode, DeviceConfig, EmmcDevice, PowerConfig, SchemeKind};
use hps_trace::TraceSource;
use hps_workloads::{all_combos, all_individual, by_name, stream, AppProfile, TraceStream};

use crate::report::{
    geometric_mean, median, nearest_rank, peak_rss_mib, ratio, report_profile, Calibration,
    CallTimes, Outcome,
};

/// One replay workload: which traces, under which schemes, on which device.
pub struct ReplayWorkload {
    name: &'static str,
    profiles: fn() -> Vec<AppProfile>,
    schemes: &'static [SchemeKind],
    /// Independent copies of each trace, each generated from its own seed
    /// derived from the workload seed.
    copies: u64,
    device: fn(SchemeKind) -> DeviceConfig,
}

/// The paper's evaluation (Figs. 8 and 9): all 25 traces under 4PS, 8PS
/// and HPS on the case-study device. Write-dominated; the Table V device
/// never collects garbage, so FTL write-path and dispatch costs dominate.
/// The run's peak memory is set by its largest CameraVideo replay, which
/// lands either side of a hash-table doubling depending on the generated
/// copy; with six copies the peak reflects the trace, not one draw.
pub const PAPER_MIX: ReplayWorkload = ReplayWorkload {
    name: "paper-mix",
    profiles: paper_profiles,
    schemes: &SchemeKind::ALL,
    copies: 6,
    device: case_study_device,
};

/// Booting and Movie (Movie is 94% reads) under 4PS and HPS on the
/// Table IV characterization device. Read-path and mapping-table costs
/// dominate; a write-path change should not move it. Booting's queueing
/// varies widely from one generated copy to the next, so the workload
/// replays many independent copies of both traces.
pub const READ_HEAVY: ReplayWorkload = ReplayWorkload {
    name: "read-heavy",
    profiles: read_heavy_profiles,
    schemes: &[SchemeKind::Ps4, SchemeKind::Hps],
    copies: 64,
    device: table_iv_device,
};

fn paper_profiles() -> Vec<AppProfile> {
    all_individual().into_iter().chain(all_combos()).collect()
}

fn read_heavy_profiles() -> Vec<AppProfile> {
    ["Booting", "Movie"]
        .iter()
        .map(|name| by_name(name).expect("paper workload name"))
        .collect()
}

/// The Section V case-study device (as `hps_analysis::casestudy`): Table V
/// with no power-state model and no RAM buffer.
fn case_study_device(scheme: SchemeKind) -> DeviceConfig {
    let mut cfg = DeviceConfig::table_v(scheme);
    cfg.power = PowerConfig::DISABLED;
    cfg
}

/// The Table IV characterization device (as `repro <workload>`): Table V
/// with the power model, a 512 KiB write buffer and interleaved channels.
fn table_iv_device(scheme: SchemeKind) -> DeviceConfig {
    let mut cfg = DeviceConfig::table_v(scheme).with_write_cache(Bytes::kib(512));
    cfg.channel_mode = ChannelMode::Interleaved;
    cfg
}

/// Simulated results of one job, or (summed) of several.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct JobSim {
    /// Index of the job's scheme in the workload's scheme list.
    slot: usize,
    retired: u64,
    failed: u64,
    nowait: u64,
    response_ns: u128,
    wait_ns: u128,
    service_ns: u128,
    /// Nearest-rank p99 response time.
    p99_ns: u64,
    /// FNV-1a over the job's response times, in request order.
    response_hash: u64,
    host_programs: u64,
    gc_programs: u64,
    gc_reads: u64,
    gc_runs: u64,
    erases: u64,
    pool_spills: u64,
    data_written: u64,
    flash_consumed: u64,
    erase_max: u64,
    erase_spread: u64,
}

impl JobSim {
    fn mrt_ms(&self) -> f64 {
        ratio(self.response_ns as f64, self.retired as f64) / 1e6
    }

    fn p99_ms(&self) -> f64 {
        self.p99_ns as f64 / 1e6
    }

    fn util_pct(&self) -> f64 {
        100.0 * ratio(self.data_written as f64, self.flash_consumed as f64)
    }

    fn write_amp(&self) -> f64 {
        if self.host_programs == 0 {
            1.0
        } else {
            (self.host_programs + self.gc_programs) as f64 / self.host_programs as f64
        }
    }

    /// The pooled totals of `jobs` (the per-job p99 and hash are not
    /// summed).
    fn total<'a>(jobs: impl Iterator<Item = &'a JobSim>) -> JobSim {
        let mut t = JobSim::default();
        for j in jobs {
            t.retired += j.retired;
            t.failed += j.failed;
            t.nowait += j.nowait;
            t.response_ns += j.response_ns;
            t.wait_ns += j.wait_ns;
            t.service_ns += j.service_ns;
            t.host_programs += j.host_programs;
            t.gc_programs += j.gc_programs;
            t.gc_reads += j.gc_reads;
            t.gc_runs += j.gc_runs;
            t.erases += j.erases;
            t.pool_spills += j.pool_spills;
            t.data_written += j.data_written;
            t.flash_consumed += j.flash_consumed;
            t.erase_max = t.erase_max.max(j.erase_max);
            t.erase_spread = t.erase_spread.max(j.erase_spread);
        }
        t
    }
}

/// Host-time measurements of the traced passes, taken around each public
/// call into a layer.
#[derive(Debug, Default)]
struct LayerTimes {
    calls: CallTimes,
    construct_ns: u64,
    constructs: u64,
    split_ns: u64,
    splits: u64,
    chunks: u64,
}

/// One pass: every job's simulated results and the pass's host times.
#[derive(Debug, Default)]
struct Pass {
    jobs: Vec<JobSim>,
    generated: u64,
    /// Host seconds spent serving requests, in all and per job.
    host_s: f64,
    job_host_s: Vec<f64>,

    /// Host seconds spent building devices (part of set-up).
    construct_s: f64,
}

impl Pass {
    fn total(&self) -> JobSim {
        JobSim::total(self.jobs.iter())
    }

    /// Geometric mean over the jobs of one scheme slot (all jobs for
    /// `None`) of a per-job statistic.
    fn suite_mean(&self, slot: Option<usize>, stat: fn(&JobSim) -> f64) -> f64 {
        geometric_mean(
            self.jobs
                .iter()
                .filter(|j| slot.is_none_or(|s| j.slot == s))
                .map(stat),
        )
    }
}

impl ReplayWorkload {
    /// Builds the trace streams of one copy — one pass — in job order.
    fn streams(&self, seed: u64, copy: u64) -> Vec<(TraceStream, SchemeKind)> {
        let mut jobs = Vec::new();
        for profile in &(self.profiles)() {
            for &scheme in self.schemes {
                jobs.push((stream(profile, derive_seed(seed, copy), 1), scheme));
            }
        }
        jobs
    }

    fn scheme_slot(&self, scheme: SchemeKind) -> usize {
        self.schemes
            .iter()
            .position(|&s| s == scheme)
            .expect("job scheme belongs to the workload")
    }

    /// Replays one pass. With `TRACED`, times every public call into a
    /// layer and records it in `layers`; the simulated results are the
    /// same either way. With a `calibration`, samples the host's speed
    /// before every job.
    fn pass<const TRACED: bool>(
        &self,
        jobs: Vec<(TraceStream, SchemeKind)>,
        layers: &mut LayerTimes,
        mut calibration: Option<&mut Calibration>,
        out: &mut Outcome,
    ) -> Pass {
        let mut pass = Pass::default();
        let mut responses = Vec::new();
        let mut chunks = Vec::new();
        for (mut source, scheme) in jobs {
            if let Some(calibration) = calibration.as_deref_mut() {
                calibration.sample();
            }
            let t0 = Instant::now();
            let mut device = match EmmcDevice::new((self.device)(scheme)) {
                Ok(device) => device,
                Err(e) => {
                    out.check(false, || format!("{}: cannot build device: {e}", self.name));
                    continue;
                }
            };
            let started = Instant::now();
            pass.construct_s += started.duration_since(t0).as_secs_f64();
            if TRACED {
                layers.construct_ns += started.duration_since(t0).as_nanos() as u64;
                layers.constructs += 1;
            }
            let mut job = JobSim {
                slot: self.scheme_slot(scheme),
                ..JobSim::default()
            };
            responses.clear();
            loop {
                let t1 = TRACED.then(Instant::now);
                let Some(request) = source.next_request() else {
                    break;
                };
                pass.generated += 1;
                if let Some(t1) = t1 {
                    let t2 = Instant::now();
                    layers.calls.next(t2.duration_since(t1).as_nanos() as u64);
                    if request.direction == Direction::Write {
                        chunks.clear();
                        split_request_into(&request, scheme, &mut chunks);
                        layers.split_ns += t2.elapsed().as_nanos() as u64;
                        layers.splits += 1;
                        layers.chunks += chunks.len() as u64;
                    }
                }
                let t3 = TRACED.then(Instant::now);
                let result = device.submit(&request);
                if let Some(t3) = t3 {
                    layers
                        .calls
                        .submit(request.direction, t3.elapsed().as_nanos() as u64);
                }
                match result {
                    Ok(done) => {
                        out.check(
                            done.finish >= done.service_start && done.service_start >= request.arrival,
                            || {
                                format!(
                                    "{}: request {} of {} breaks finish >= service_start >= arrival ({done:?})",
                                    self.name,
                                    request.id,
                                    source.name()
                                )
                            },
                        );
                        let response = done.finish.saturating_since(request.arrival).as_ns();
                        let wait = done.service_start.saturating_since(request.arrival).as_ns();
                        job.retired += 1;
                        job.response_ns += u128::from(response);
                        job.wait_ns += u128::from(wait);
                        job.service_ns += u128::from(response - wait.min(response));
                        job.nowait += u64::from(wait == 0);
                        responses.push(response);
                    }
                    Err(Error::CapacityExhausted { .. }) => job.failed += 1,
                    Err(e) => {
                        out.check(false, || {
                            format!(
                                "{}: {} request {} failed: {e}",
                                self.name,
                                source.name(),
                                request.id
                            )
                        });
                        break;
                    }
                }
            }
            let ftl = device.ftl();
            let stats = ftl.stats();
            let space = ftl.space();
            let wear = ftl.wear();
            job.host_programs = stats.host_programs;
            job.gc_programs = stats.gc_programs;
            job.gc_reads = stats.gc_reads;
            job.gc_runs = stats.gc_runs;
            job.erases = stats.erases;
            job.pool_spills = device.pool_spills();
            job.data_written = space.data_written().as_u64();
            job.flash_consumed = space.flash_consumed().as_u64();
            job.erase_max = wear.max();
            job.erase_spread = wear.max() - wear.min();
            drop(device);
            let job_s = started.elapsed().as_secs_f64();
            pass.host_s += job_s;
            pass.job_host_s.push(job_s);
            // Untimed: digest the job's response times.
            job.response_hash = responses.iter().fold(0xcbf2_9ce4_8422_2325, |h, &ns| {
                (h ^ ns).wrapping_mul(0x0100_0000_01b3)
            });
            responses.sort_unstable();
            job.p99_ns = nearest_rank(&responses, 0.99).unwrap_or(0);
            pass.jobs.push(job);
        }
        pass
    }

    /// Every generated request was retired or counted as failed, and the
    /// pass reproduces the first pass over the same copy exactly.
    fn check_pass(&self, pass: &Pass, first: Option<&Pass>, out: &mut Outcome) {
        let t = pass.total();
        out.check(t.retired + t.failed == pass.generated, || {
            format!(
                "{}: {} requests generated but {} retired + {} failed",
                self.name, pass.generated, t.retired, t.failed
            )
        });
        if let Some(first) = first {
            out.check(pass.jobs == first.jobs, || {
                format!(
                    "{}: a repeated pass changed the simulated results",
                    self.name
                )
            });
        }
    }

    /// Paper claims every seed must reproduce (Figs. 8 and 9): HPS has a
    /// lower mean response time than 4PS, and better space utilization
    /// than 8PS.
    fn check_paper_claims(&self, pass: &Pass, out: &mut Outcome) {
        let slot = |s| self.schemes.iter().position(|&k| k == s);
        let util = |slot| JobSim::total(pass.jobs.iter().filter(|j| j.slot == slot)).util_pct();
        if let (Some(p4), Some(hps)) = (slot(SchemeKind::Ps4), slot(SchemeKind::Hps)) {
            let mrt = |slot| pass.suite_mean(Some(slot), JobSim::mrt_ms);
            out.check(mrt(hps) < mrt(p4), || {
                format!(
                    "{}: HPS mean response time is not below 4PS's (Fig. 8)",
                    self.name
                )
            });
        }
        if let (Some(p8), Some(hps)) = (slot(SchemeKind::Ps8), slot(SchemeKind::Hps)) {
            out.check(util(hps) > util(p8), || {
                format!(
                    "{}: HPS space utilization is not above 8PS's (Fig. 9)",
                    self.name
                )
            });
        }
    }

    /// Runs the workload. Pass `k` replays copy `k mod copies`; the first
    /// `copies` passes — one cycle — are the workload's simulated results,
    /// and later passes must reproduce them. Runs at least one cycle, then
    /// passes until `budget` is spent. Untraced, reports the end-to-end
    /// metrics; traced, the first cycle runs untraced, then traced passes
    /// follow, and the per-layer metrics are reported.
    pub fn run(&self, seed: u64, budget: Duration, traced: bool) -> Outcome {
        let mut out = Outcome::default();
        let mut layers = LayerTimes::default();
        let mut calibration = Calibration::default();
        let mut setups = Vec::new();
        let mut rates = Vec::new();
        // Per (trace, scheme) pair, its host seconds per request in every
        // untraced (`times.0`) and traced (`times.1`) pass.
        let mut times: (Vec<Vec<f64>>, Vec<Vec<f64>>) = (Vec::new(), Vec::new());
        let mut cycle: Vec<Pass> = Vec::new();
        let mut rss = None;
        let started = Instant::now();
        for k in 0.. {
            let cycled = cycle.len() as u64 == self.copies;
            if cycled
                && started.elapsed() >= budget
                && (!traced || !times.1.is_empty())
                && calibration.sampled()
            {
                break;
            }
            let copy = k % self.copies;
            let t = Instant::now();
            let jobs = self.streams(seed, copy);
            let streams_s = t.elapsed().as_secs_f64();
            // The host's speed is sampled once peak memory has been read,
            // so that the calibration buffer never counts in it.
            let sampler = cycled.then_some(&mut calibration);
            let pass = if traced && cycled {
                if times.1.is_empty() {
                    // Drop what the always-on profiler sampled so far.
                    hps_obs::profile::reset();
                }
                hps_obs::profile::set_stride(1);
                let pass = self.pass::<true>(jobs, &mut layers, sampler, &mut out);
                hps_obs::profile::set_stride(64);
                pass
            } else {
                let pass = self.pass::<false>(jobs, &mut layers, sampler, &mut out);
                rates.push(pass.total().retired as f64 / pass.host_s);
                pass
            };
            let pair_times = if traced && cycled {
                &mut times.1
            } else {
                &mut times.0
            };
            pair_times.resize(pass.jobs.len(), Vec::new());
            for ((t, job), &s) in pair_times.iter_mut().zip(&pass.jobs).zip(&pass.job_host_s) {
                t.push(s / job.retired.max(1) as f64);
            }
            // Set-up is everything built before a job's first request:
            // its trace stream and its fresh device.
            setups.push(streams_s + pass.construct_s);
            self.check_pass(&pass, cycle.get(copy as usize), &mut out);
            if !cycled {
                // Operations are counted over the cycle only: later passes
                // repeat its requests, and must reproduce their outcomes.
                out.attempted += pass.generated;
                out.failed += pass.total().failed;
                cycle.push(pass);
                if cycle.len() as u64 == self.copies {
                    // Later passes repeat the cycle; the heap they leave
                    // behind grows with their number, not with the workload.
                    rss = peak_rss_mib();
                }
            }
        }
        // The whole cycle, as one pass over every copy.
        let first = Pass {
            jobs: cycle.iter().flat_map(|p| p.jobs.iter().cloned()).collect(),
            generated: cycle.iter().map(|p| p.generated).sum(),
            ..Pass::default()
        };
        // Each pair's median over passes: a slow spell on the host then
        // costs only the passes it overlapped.
        let pairs = cycle[0].jobs.len();
        let host_rate = |times: &[Vec<f64>]| {
            let requests = first.total().retired as f64 / self.copies as f64;
            let seconds: f64 = (0..pairs)
                .map(|p| {
                    let mean = cycle.iter().map(|c| c.jobs[p].retired as f64).sum::<f64>()
                        / self.copies as f64;
                    mean * median(&times[p])
                })
                .sum();
            requests / seconds
        };
        self.check_paper_claims(&first, &mut out);
        let t = first.total();
        out.note(format!(
            "{}: {} passes of {pairs} jobs, cycling over {} copies ({} requests); host_req_per_s per untraced pass {rates:?}",
            self.name,
            rates.len() + times.1.first().map_or(0, Vec::len),
            self.copies,
            first.generated
        ));
        out.note(format!(
            "{}: sim_mrt_ms and sim_p99_ms are geometric means over {} jobs; pooled mean {:.4} ms",
            self.name,
            first.jobs.len(),
            t.mrt_ms()
        ));
        if traced {
            self.report_layers(seed, &first, &layers, &mut out);
            let untraced = host_rate(&times.0);
            let traced_rate = host_rate(&times.1);
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
            let (rate, setup_s) = (host_rate(&times.0), median(&setups));
            calibration.note(self.name, rate, setup_s, &mut out);
            out.set("host_req_per_s", rate * calibration.slowdown());
            out.set("setup_s", setup_s / calibration.slowdown());
            match rss {
                Some(mib) => out.set("peak_rss_mib", mib),
                None => out.check(false, || "cannot read peak RSS from /proc".to_string()),
            }
            out.set("sim_mrt_ms", first.suite_mean(None, JobSim::mrt_ms));
            out.set("sim_p99_ms", first.suite_mean(None, JobSim::p99_ms));
            out.set("write_amp", t.write_amp());
            out.set("space_util_pct", t.util_pct());
        }
        out
    }

    /// Per-layer metrics of a traced run, plus the cross-check against the
    /// program's own replay loop (`EmmcDevice::replay_stream`), which also
    /// supplies the counters the device exposes only through its metrics.
    fn report_layers(&self, seed: u64, first: &Pass, layers: &LayerTimes, out: &mut Outcome) {
        report_profile(self.name, &hps_obs::profile::report(), out);
        layers.calls.report(out);
        out.set(
            "emmc.construct_ns",
            ratio(layers.construct_ns as f64, layers.constructs as f64),
        );
        out.set(
            "distributor.split_ns",
            ratio(layers.split_ns as f64, layers.splits as f64),
        );
        out.set(
            "distributor.chunks_per_req",
            ratio(layers.chunks as f64, layers.splits as f64),
        );

        let t = first.total();
        out.set(
            "emmc.sim_wait_ms",
            ratio(t.wait_ns as f64, t.retired as f64) / 1e6,
        );
        out.set(
            "emmc.sim_service_ms",
            ratio(t.service_ns as f64, t.retired as f64) / 1e6,
        );
        out.set(
            "emmc.nowait_pct",
            100.0 * ratio(t.nowait as f64, t.retired as f64),
        );
        out.set("emmc.sim_samples", t.retired as f64);
        out.set("emmc.pool_spills", t.pool_spills as f64);
        for (slot, scheme) in self.schemes.iter().enumerate() {
            let s = JobSim::total(first.jobs.iter().filter(|j| j.slot == slot));
            out.set(
                format!("emmc.{}.sim_mrt_ms", scheme.label()),
                first.suite_mean(Some(slot), JobSim::mrt_ms),
            );
            out.set(
                format!("emmc.{}.space_util_pct", scheme.label()),
                s.util_pct(),
            );
        }
        out.set("ftl.host_programs", t.host_programs as f64);
        out.set("ftl.gc_programs", t.gc_programs as f64);
        out.set("ftl.gc_reads", t.gc_reads as f64);
        out.set("ftl.gc_runs", t.gc_runs as f64);
        out.set("ftl.erases", t.erases as f64);
        out.set(
            "ftl.copies_per_victim",
            ratio(t.gc_programs as f64, t.gc_runs as f64),
        );
        out.set("ftl.erase_max", t.erase_max as f64);
        out.set("ftl.erase_spread", t.erase_spread as f64);

        // The program's own loop over the same inputs must retire the same
        // requests with the same timestamps and flash work, job by job.
        let (mut idle_gc, mut mode_switches) = (0u64, 0u64);
        let streams = (0..self.copies).flat_map(|copy| self.streams(seed, copy));
        for ((mut source, scheme), job) in streams.zip(&first.jobs) {
            let replayed = EmmcDevice::new((self.device)(scheme))
                .and_then(|mut device| device.replay_stream(&mut source));
            let Ok(m) = replayed else {
                // Only a job whose requests were refused may stop early.
                out.check(job.failed > 0, || {
                    format!(
                        "{}: replay_stream of {} failed but submit did not",
                        self.name,
                        source.name()
                    )
                });
                continue;
            };
            idle_gc += m.idle_gc_passes;
            mode_switches += m.mode_switches;
            let same = (
                m.total_requests,
                m.nowait_requests,
                m.ftl.host_programs,
                m.ftl.gc_programs,
                m.ftl.erases,
            ) == (
                job.retired,
                job.nowait,
                job.host_programs,
                job.gc_programs,
                job.erases,
            ) && (
                m.space.data_written().as_u64(),
                m.space.flash_consumed().as_u64(),
            ) == (job.data_written, job.flash_consumed);
            let mean_gap = (m.mean_response_ms() - job.mrt_ms()).abs();
            out.check(job.failed > 0 || (same && mean_gap <= 1e-9 * job.mrt_ms().max(1.0)), || {
                format!(
                    "{}: replay_stream of {} under {} disagrees with the submit loop (mean gap {mean_gap} ms)",
                    self.name,
                    source.name(),
                    scheme.label()
                )
            });
        }
        out.set("emmc.idle_gc_passes", idle_gc as f64);
        out.set("emmc.mode_switches", mode_switches as f64);
    }
}
