//! What one benchmark run reports: the metric catalogue, the output
//! checks, the host fingerprint, and the result printer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use hps_core::Direction;
use hps_obs::ProfileReport;

/// End-to-end metrics, as `(name, unit)`: printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("host_req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_mrt_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("write_amp", "ratio"),
    ("space_util_pct", "%"),
];

/// Per-layer metrics, as `(name, unit)`: printed by every traced run, on
/// every workload. A layer a workload does not exercise reads 0.
/// README.md maps each one to the end-to-end metric it should move.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("workloads.next_ns", "ns"),
    ("emmc.submit_ns_p50", "ns"),
    ("emmc.submit_ns_p99", "ns"),
    ("emmc.submit_samples", "count"),
    ("emmc.submit_read_ns", "ns"),
    ("emmc.submit_write_ns", "ns"),
    ("emmc.construct_ns", "ns"),
    ("emmc.sim_wait_ms", "ms"),
    ("emmc.sim_service_ms", "ms"),
    ("emmc.nowait_pct", "%"),
    ("emmc.sim_samples", "count"),
    ("emmc.pool_spills", "count"),
    ("emmc.idle_gc_passes", "count"),
    ("emmc.mode_switches", "count"),
    ("emmc.4PS.sim_mrt_ms", "ms"),
    ("emmc.8PS.sim_mrt_ms", "ms"),
    ("emmc.HPS.sim_mrt_ms", "ms"),
    ("emmc.4PS.space_util_pct", "%"),
    ("emmc.8PS.space_util_pct", "%"),
    ("emmc.HPS.space_util_pct", "%"),
    ("distributor.split_ns", "ns"),
    ("distributor.chunks_per_req", "count"),
    ("ftl.host_programs", "count"),
    ("ftl.gc_programs", "count"),
    ("ftl.gc_reads", "count"),
    ("ftl.gc_runs", "count"),
    ("ftl.erases", "count"),
    ("ftl.copies_per_victim", "count"),
    ("ftl.erase_max", "count"),
    ("ftl.erase_spread", "count"),
    ("profile.distributor.split_ns", "ns"),
    ("profile.device.queue_wait_ns", "ns"),
    ("profile.ftl.map_lookup_ns", "ns"),
    ("profile.ftl.write_ns", "ns"),
    ("profile.ftl.read_ns", "ns"),
    ("profile.gc.select_ns", "ns"),
    ("profile.gc.copyback_ns", "ns"),
    ("profile.nand.read_ns", "ns"),
    ("profile.nand.program_ns", "ns"),
    ("profile.nand.erase_ns", "ns"),
    ("profile.device.dispatch_ns", "ns"),
    ("fleet.trace_cache_s", "s"),
    ("fleet.spec_setup_ns", "ns"),
    ("fleet.replay_ns", "ns"),
    ("fleet.digest_ns", "ns"),
    ("fleet.fold_ns", "ns"),
    ("fleet.tree_merge_ns", "ns"),
    ("fleet.completed", "count"),
    ("fleet.wedged", "count"),
    ("par.busy_pct", "%"),
    ("par.tail_idle_ms", "ms"),
    ("trace.untraced_req_per_s", "1/s"),
    ("trace.traced_req_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("fail.share_pct", "%"),
];

/// The result of one run: operation counts, check violations and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: requests on the replay workloads, device
    /// replays on `fleet`. Each distinct operation counts once, however
    /// many passes repeat it, so the count depends on the seed alone.
    pub attempted: u64,
    /// Attempted operations that failed: requests refused with
    /// `CapacityExhausted`, or wedged fleet devices.
    pub failed: u64,
    violations: Vec<String>,
    metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the metrics.
    notes: Vec<String>,
}

impl Outcome {
    /// Records a check: `ok == false` is a violation described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            // Bound the output when one defect trips a per-request check
            // many times.
            if self.violations.len() < 20 {
                self.violations.push(msg);
            }
        }
    }

    /// Sets a metric; the name must be in the catalogue of this run's kind.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Adds a human-readable line to the report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the report; the last line of standard output is the JSON
    /// result object. Metrics are the end-to-end catalogue, or the
    /// per-layer catalogue when `traced`. Returns whether every check
    /// passed.
    pub fn print(mut self, traced: bool) -> bool {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for name in self.metrics.keys() {
            if !catalogue.iter().any(|(n, _)| n == name) {
                let msg = format!("internal: metric {name} is not in the catalogue");
                self.violations.push(msg);
            }
        }
        for line in &self.notes {
            println!("{line}");
        }
        let mut json = String::new();
        for (name, unit) in catalogue {
            let value = self.metrics.get(*name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                self.violations
                    .push(format!("metric {name} is not finite ({value})"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            println!("metric {name} = {value} {unit}");
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let share = if self.attempted == 0 {
            0.0
        } else {
            100.0 * self.failed as f64 / self.attempted as f64
        };
        println!(
            "failures: {} of {} attempted ({share:.4}%)",
            self.failed, self.attempted
        );
        for v in &self.violations {
            eprintln!("CHECK FAILED: {v}");
            println!("check failed: {v}");
        }
        let correct = self.violations.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted, self.failed
        );
        correct
    }
}

/// Host time of the two per-request calls every workload makes:
/// `TraceSource::next_request` and `EmmcDevice::submit`.
#[derive(Debug, Default)]
pub struct CallTimes {
    next_ns: u64,
    next_calls: u64,
    submit_ns: Vec<u32>,
    read_ns: u64,
    reads: u64,
    write_ns: u64,
    writes: u64,
}

impl CallTimes {
    pub fn next(&mut self, ns: u64) {
        self.next_ns += ns;
        self.next_calls += 1;
    }

    pub fn submit(&mut self, direction: Direction, ns: u64) {
        self.submit_ns.push(ns.min(u64::from(u32::MAX)) as u32);
        match direction {
            Direction::Read => {
                self.read_ns += ns;
                self.reads += 1;
            }
            Direction::Write => {
                self.write_ns += ns;
                self.writes += 1;
            }
        }
    }

    pub fn merge(&mut self, other: CallTimes) {
        self.next_ns += other.next_ns;
        self.next_calls += other.next_calls;
        self.submit_ns.extend(other.submit_ns);
        self.read_ns += other.read_ns;
        self.reads += other.reads;
        self.write_ns += other.write_ns;
        self.writes += other.writes;
    }

    /// Sets `workloads.next_ns` and the `emmc.submit_*` metrics.
    pub fn report(&self, out: &mut Outcome) {
        let mut submit = self.submit_ns.clone();
        submit.sort_unstable();
        let p = |q| f64::from(nearest_rank(&submit, q).unwrap_or(0));
        out.set(
            "workloads.next_ns",
            ratio(self.next_ns as f64, self.next_calls as f64),
        );
        out.set("emmc.submit_ns_p50", p(0.50));
        out.set("emmc.submit_ns_p99", p(0.99));
        out.set("emmc.submit_samples", submit.len() as f64);
        out.set(
            "emmc.submit_read_ns",
            ratio(self.read_ns as f64, self.reads as f64),
        );
        out.set(
            "emmc.submit_write_ns",
            ratio(self.write_ns as f64, self.writes as f64),
        );
    }
}

/// Sets `profile.<phase>_ns` from the phase profiler's report: self
/// nanoseconds per sampled request. A phase the catalogue does not name
/// (one added to the program later) is printed but not reported.
pub fn report_profile(workload: &str, profile: &ProfileReport, out: &mut Outcome) {
    for slot in 0..hps_obs::profile::N_SLOTS {
        let name = format!("profile.{}_ns", hps_obs::profile::slot_label(slot));
        let ns = profile.ns_per_request(slot);
        out.note(format!("{workload}: {name} {ns:.2} ns/request"));
        if PER_LAYER.iter().any(|(n, _)| *n == name) {
            out.set(name, ns);
        }
    }
}

/// Seconds the calibration loop takes on the reference host (a shared
/// 2-CPU Intel Xeon VM); the unit `host_req_per_s` and `setup_s` are
/// scaled to.
const CALIBRATION_REFERENCE_S: f64 = 7.0e-4;

/// The host's speed, sampled between units of work by a fixed loop that
/// shares no code with the program. A shared host's speed drifts by a
/// factor of up to 2.8 over minutes, in two ways: compute slows (the
/// program's hashing and branching), and so does faulting in fresh pages
/// (every new device's tables). The loop does one of each — it sorts
/// 20,000 xorshift numbers and writes every page of a new 4 MiB buffer —
/// and slows with the program about in proportion. Host times divided by
/// its slowdown therefore repeat from run to run, while a change to the
/// program still moves them in full.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Times one run of the loop (about 0.7 ms on the reference host).
    pub fn sample(&mut self) {
        let started = std::time::Instant::now();
        let mut x = 1u64;
        let mut values: Vec<u64> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        values.sort_unstable();
        std::hint::black_box(&values);
        let mut pages = vec![0u8; 4 << 20];
        for page in pages.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&pages);
        drop(pages);
        self.samples.push(started.elapsed().as_secs_f64());
    }

    /// Whether the loop has run at least once.
    pub fn sampled(&self) -> bool {
        !self.samples.is_empty()
    }

    /// How much slower than the reference host this host ran: the median
    /// loop time over the reference time.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / CALIBRATION_REFERENCE_S
    }

    /// Adds a line with the loop's median time and the raw (unscaled)
    /// values of the scaled metrics.
    pub fn note(&self, workload: &str, raw_rate: f64, raw_setup_s: f64, out: &mut Outcome) {
        out.note(format!(
            "{workload}: calibration loop median {:.4e} s over {} samples (slowdown {:.4}); unscaled host_req_per_s {raw_rate:.1}, setup_s {raw_setup_s:.6}",
            median(&self.samples),
            self.samples.len(),
            self.slowdown()
        ));
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of a sorted slice; `None` when empty.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

/// Geometric mean of positive values; 0 when there are none or any is 0.
pub fn geometric_mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for v in values {
        if v <= 0.0 {
            return 0.0;
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One line naming the host and the code measured: CPU count and model,
/// rustc version, and the git revision — or, in a checkout without git
/// metadata, a hash of the library sources.
pub fn host_fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let revision = command_line("git", &["rev-parse", "HEAD"])
        .map(|rev| format!("git {rev}"))
        .or_else(|| tree_hash(Path::new("crates")).map(|h| format!("source-tree fnv64 {h:016x}")))
        .unwrap_or_else(|| "unknown".to_string());
    format!("host: cpus={cpus} model=\"{model}\" rustc=\"{rustc}\" revision=\"{revision}\"")
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// FNV-1a over every file's relative path and contents under `root`,
/// visited in sorted order; `None` when there are no files.
fn tree_hash(root: &Path) -> Option<u64> {
    fn visit(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                visit(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    visit(root, &mut files);
    if files.is_empty() {
        return None;
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let contents = std::fs::read(&path).unwrap_or_default();
        for byte in path.to_string_lossy().bytes().chain(contents) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Some(hash)
}
