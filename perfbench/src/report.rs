//! Metric names, the metric map, the host fingerprint, and the result
//! line.

use hybriddnn_model::zoo;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one;
/// see [`END_TO_END_MEANING`] for what each means per workload.
/// `max_rate_rps` is measured and printed but not among them: near
/// capacity a batching service is bistable (small batches fail at a rate
/// that large batches sustain), so across runs of the same code it read
/// either about 340 or about 560 req/s on serve_functional, and its
/// spread (19-29%) exceeded any usable bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("flow_s", "s"),
    ("sim_gops_vu9p", "GOPS"),
    ("sim_gops_pynq", "GOPS"),
    ("estimator_err_pct", "%"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p75_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// What each end-to-end metric measures.
pub const END_TO_END_MEANING: &[(&str, &str)] = &[
    (
        "setup_s",
        "median over setup rounds; flow: Step 1 (parse specs, bind weights); serving: \
         LOAD_MODEL -> Ready, a router started in front sees it, first response",
    ),
    (
        "flow_s",
        "host seconds of Steps 2-4 (explore, compile, session, timing-only run) for the \
         workload's model, summed over vu9p and pynq",
    ),
    (
        "sim_gops_vu9p",
        "simulated device GOPS of the workload's model on vu9p",
    ),
    (
        "sim_gops_pynq",
        "simulated device GOPS of the workload's model on pynq-z1",
    ),
    (
        "estimator_err_pct",
        "worse device's whole-network |estimated - simulated| / simulated cycles",
    ),
    (
        "throughput_rps",
        "closed-loop requests per second, median over parts spread over the run (flow: \
         Step-4 inferences of the 12-bit vgg_tiny design on its simulator)",
    ),
    (
        "latency_p50_us",
        "open-loop median latency at the fixed rate, from due time; median over parts \
         spread over the run",
    ),
    (
        "latency_p75_us",
        "open-loop p75 latency at the fixed rate, from due time; median over parts \
         spread over the run",
    ),
    (
        "max_rate_rps",
        "printed, not gated: highest open-loop rate with p75 under the workload's limit \
         and no growing backlog (interpolated between probes)",
    ),
    (
        "peak_rss_mb",
        "process VmHWM (serving: median over closed-loop parts, the watermark reset \
         before each)",
    ),
];

/// The metric map: each per-layer metric, the end-to-end metric and
/// workload it should move. Metrics read 0 on workloads whose path does
/// not include the layer.
pub const METRIC_MAP: &[(&str, &str)] = &[
    (
        "compiler.*",
        "flow_s, peak_rss_mb on flow; setup_s only on serving",
    ),
    ("dse.explore_ms", "flow_s on flow (predicted negligible)"),
    ("sim.session_new_ms, sim.first_run_ms", "flow_s on flow"),
    ("model.reference_ms", "flow_s on flow"),
    (
        "estimator.layer_err_pct_max, layer.vgg16.*",
        "estimator_err_pct, sim_gops_* on flow (exact counts)",
    ),
    (
        "sim.run_us_b1, sim.run_us_b8",
        "throughput_rps, latency_* on serve_functional; ~0 on serve_timing",
    ),
    (
        "layer.vgg_tiny.*.host_us",
        "sim.run_us_b1 on serve_functional",
    ),
    (
        "runtime.*",
        "latency_p50_us on serve_timing, throughput_rps on serve_functional",
    ),
    (
        "server.*",
        "latency_p50_us, throughput_rps on serve_timing; negligible on serve_functional",
    ),
    (
        "cluster.router_us*",
        "latency_p50_us, throughput_rps on serve_timing",
    ),
    (
        "bench.*",
        "validity of the run, not claims (steal_pct: CPU time the hypervisor took)",
    ),
];

/// Compute-stage names of the VGG16 design the flow reports per layer.
pub fn vgg16_stages() -> Vec<String> {
    compute_names(&zoo::vgg16())
}

/// Compute-stage names of the vgg-tiny network served functionally.
pub fn vgg_tiny_stages() -> Vec<String> {
    compute_names(&zoo::vgg_tiny())
}

fn compute_names(net: &hybriddnn_model::Network) -> Vec<String> {
    net.layers()
        .iter()
        .filter(|l| l.is_compute())
        .map(|l| l.name().to_string())
        .collect()
}

/// Per-layer metrics: `(name, unit)`, the same set on every workload.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut keys: Vec<(String, &'static str)> = [
        ("compiler.compile_ms", "ms"),
        ("compiler.dram_words", "count"),
        ("compiler.instructions", "count"),
        ("dse.explore_ms", "ms"),
        ("sim.session_new_ms", "ms"),
        ("sim.first_run_ms", "ms"),
        ("model.reference_ms", "ms"),
        ("estimator.layer_err_pct_max", "%"),
        ("sim.run_us_b1", "us"),
        ("sim.run_us_b8", "us"),
        ("sim.self_us", "us"),
        ("sim.self_us_loaded", "us"),
        ("runtime.overhead_us", "us"),
        ("runtime.overhead_us_loaded", "us"),
        ("runtime.mean_batch_size", "count"),
        ("runtime.batched_dispatches", "count"),
        ("runtime.rejected", "count"),
        ("runtime.retries", "count"),
        ("server.encode_ns", "ns"),
        ("server.decode_ns", "ns"),
        ("server.registry_us", "us"),
        ("server.registry_us_loaded", "us"),
        ("server.tcp_us", "us"),
        ("server.tcp_us_loaded", "us"),
        ("cluster.router_us", "us"),
        ("cluster.router_us_loaded", "us"),
        ("bench.gen_lag_p99_us", "us"),
        ("bench.trace_overhead_pct", "%"),
        ("bench.steal_pct", "%"),
        ("layer.vgg_tiny.sum_residual_pct", "%"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for stage in vgg16_stages() {
        keys.push((format!("layer.vgg16.{stage}.sim_cycles"), "cycles"));
        keys.push((format!("layer.vgg16.{stage}.est_cycles"), "cycles"));
    }
    for stage in vgg_tiny_stages() {
        keys.push((format!("layer.vgg_tiny.{stage}.host_us"), "us"));
        keys.push((format!("layer.vgg_tiny.{stage}.sim_cycles"), "cycles"));
        keys.push((format!("layer.vgg_tiny.{stage}.est_cycles"), "cycles"));
    }
    keys
}

/// A run's metrics and outcome.
pub struct Report {
    keys: Vec<(String, &'static str)>,
    values: BTreeMap<String, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused or failed.
    pub failed: u64,
    /// Correctness failures (any one fails the run).
    pub mismatches: Vec<String>,
    /// Measurements that must not be compared: a phase that stopped
    /// measuring the system, or a self-check outside its tolerance. Any
    /// one fails the run, like a mismatch.
    pub invalid: Vec<String>,
    /// Human-readable notes printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// A report expecting the end-to-end (`trace == false`) or the
    /// per-layer metrics; per-layer metrics start at 0.
    pub fn new(trace: bool) -> Report {
        let keys: Vec<(String, &'static str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let values = if trace {
            keys.iter().map(|(k, _)| (k.clone(), 0.0)).collect()
        } else {
            BTreeMap::new()
        };
        Report {
            keys,
            values,
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            invalid: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Sets a metric.
    ///
    /// # Panics
    /// On a name this report does not carry (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.keys.iter().any(|(k, _)| k == name),
            "unknown metric {name}"
        );
        self.values.insert(name.to_string(), value);
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a correctness failure.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// Records a measurement that must not be compared.
    pub fn invalid(&mut self, what: String) {
        self.invalid.push(what);
    }

    /// Whether every output checked out and every measurement is valid.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.invalid.is_empty()
    }

    /// Prints the report, every metric by name with its unit, and the
    /// result line last.
    ///
    /// # Errors
    /// A metric the workload never set (a benchmark bug).
    pub fn print(&self, fingerprint: &str) -> Result<(), String> {
        println!("host: {fingerprint}");
        for note in &self.notes {
            println!("{note}");
        }
        for m in self.mismatches.iter().take(20) {
            println!("MISMATCH: {m}");
        }
        for m in &self.invalid {
            println!("INVALID: {m}");
        }
        let mut json = String::from("{");
        let _ = write!(
            json,
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in self.keys.iter().enumerate() {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was never measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            println!("metric {name} = {value} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!("metric error_rate = {error_rate} ratio (failed / attempted)");
        json.push_str("}}");
        println!("{json}");
        Ok(())
    }
}

/// The host fingerprint every result carries: CPU model, cores, rustc,
/// and the code's identity. Results from different fingerprints must
/// never be compared.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"])
        .map(|c| format!("commit {c}"))
        .unwrap_or_else(|| "commit unknown".into());
    format!("cpu=\"{cpu}\" nproc={cores} rustc=\"{rustc}\" {commit}")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(steal, total)` CPU ticks of the whole machine since boot, from
/// `/proc/stat`. Steal is time the hypervisor gave this machine's
/// virtual CPUs to someone else.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Percent of CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    after.0.saturating_sub(before.0) as f64 / total as f64 * 100.0
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fixes glibc's mmap threshold at its default (128 KiB). By default
/// glibc raises the threshold each time a large mapped block is freed,
/// after which large blocks land in per-thread arenas and stay resident
/// or not depending on which thread freed what first: the same run then
/// peaked at 7, 10.5 or 14 MiB. A fixed threshold maps every large block
/// on its own and unmaps it when freed, so `VmHWM` measures what is live.
pub fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: glibc's mallopt only sets an allocator parameter; it is
    // called before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

/// Returns freed heap pages to the OS and resets the `VmHWM` watermark,
/// so the next [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes a byte count, touches only the
    // allocator's own free lists, and is safe to call at any time from
    // any thread.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
