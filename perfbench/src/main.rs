//! `perfbench`: the SynTS performance benchmark.
//!
//! ```text
//! perfbench --workload <cold-characterize|serve-warm|fleet-cold>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run generates its spec mix from the seed, computes the
//! monolithic reference report of every spec once, measures, and checks
//! each op's report bytes against the reference. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (plus the
//! unattributed remainder and the tracing overhead) with `--trace 1`.
//! Lines before it are a human-readable account of the run.

mod cold;
mod fleet;
mod mix;
mod replay;
mod serve;
mod service;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

use synts_core::CacheStats;

use crate::trace::Tracer;
use crate::util::{mean, median, tail};

/// Latency limit of the closed-loop workloads: an op slower than this
/// does not count towards `max_rate_ops_per_s`.
const E2E_LIMIT_S: f64 = 5.0;

/// The end-to-end metrics every workload prints with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_ops_per_s", "1/s"),
    ("max_rate_ops_per_s", "1/s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload prints with `--trace 1`. Times
/// are self seconds per op; a layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("workloads.trace_build_s", "s"),
    ("circuits.stage_build_s", "s"),
    ("core.cache.key_s", "s"),
    ("core.cache.load_s", "s"),
    ("core.cache.entry_bytes", "bytes"),
    ("core.cache.store_s", "s"),
    ("timing.gate_sim_s", "s"),
    ("timing.records", "count"),
    ("timing.records_per_s", "1/s"),
    ("core.scenario.run_on_s", "s"),
    ("core.scenario.plan_s", "s"),
    ("core.scenario.merge_s", "s"),
    ("core.scenario.json_s", "s"),
    ("serve.http.submit_s", "s"),
    ("serve.http.status_s", "s"),
    ("serve.http.fetch_s", "s"),
    ("serve.http.requests_per_op", "count"),
    ("serve.http.poll_useful_ratio", "ratio"),
    ("serve.queue.wait_s", "s"),
    ("serve.queue.shard_retries", "count"),
    ("serve.journal.append_s", "s"),
    ("serve.fleet.dispatch_wait_s", "s"),
    ("serve.fleet.remote_fetch_s", "s"),
    ("serve.fleet.remote_publish_s", "s"),
    ("serve.fleet.dispatched", "count"),
    ("serve.fleet.completed", "count"),
    ("serve.fleet.expired", "count"),
    ("serve.fleet.completed_ratio", "ratio"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.remote_hits", "count"),
    ("core.cache.coalesced", "count"),
    ("core.cache.write_errors", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("unattributed_s", "s"),
    ("tracing_overhead_s", "s"),
    ("traced_latency_s", "s"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds expects a positive number")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The ops of one measured pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of every op whose report matched, seconds.
    pub latencies: Vec<f64>,
    pub failed: u64,
    pub first_error: Option<String>,
    /// User + system CPU over the timed window, every process counted.
    pub cpu_s: f64,
    /// Length of the timed window, seconds.
    pub window_s: f64,
    /// Peak RSS of each pass over the mix, MiB, summed over the
    /// processes doing the work (`VmHWM` reset as the pass starts). Every
    /// pass runs each spec, so each holds the workload's peak; their
    /// median steps over passes where the allocator's history or the
    /// split of shards between executors lifted one process's peak.
    pub pass_rss_mb: Vec<f64>,
    /// Wall time the hypervisor stole from the ops, seconds. Closed
    /// loops take it out of each op's latency and of the window (see
    /// [`util::VcpuTicks`]).
    pub stolen_s: f64,
    /// Gate-level records and cache-entry bytes (traced runs only).
    pub records: f64,
    pub entry_bytes: f64,
}

impl Pass {
    /// Wall time of the timed window, steal included.
    pub fn wall_s(&self) -> f64 {
        self.window_s + self.stolen_s
    }

    pub fn ops(&self) -> usize {
        self.latencies.len() + self.failed as usize
    }

    pub fn fail(&mut self, error: &str) {
        self.failed += 1;
        self.first_error.get_or_insert_with(|| error.to_string());
    }
}

/// What a run prints.
pub struct Outcome {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            first_error: None,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn absorb_pass(&mut self, pass: &Pass) {
        self.attempted += pass.ops() as u64;
        self.failed += pass.failed;
        if self.first_error.is_none() {
            self.first_error.clone_from(&pass.first_error);
        }
    }

    /// Replays whose merged bytes differ from the reference count as
    /// failed ops.
    pub fn absorb_replays(&mut self, replays: &[serve::SpecReplay]) {
        self.attempted += replays.len() as u64;
        let bad = replays.iter().filter(|r| !r.ok).count() as u64;
        self.failed += bad;
        if bad > 0 && self.first_error.is_none() {
            self.first_error = Some("replayed report bytes differ from the monolithic run".into());
        }
    }

    /// The end-to-end metrics of a closed-loop pass. `max_rate_ops_per_s`
    /// is the rate of ops that met [`E2E_LIMIT_S`] (the closed loop's offered
    /// rate is its own completion rate, so it never builds a backlog).
    pub fn e2e(&mut self, pass: &Pass, setup_s: f64) {
        let limit = E2E_LIMIT_S;
        self.absorb_pass(pass);
        let (tail_s, pct) = tail(&pass.latencies);
        let ok = pass.latencies.len() as f64;
        let within = pass.latencies.iter().filter(|l| **l <= limit).count() as f64;
        self.note(format!(
            "ops {} ok {} window {:.3} s; latency p50 {:.4} s, tail p{pct:.1} {tail_s:.4} s \
             ({} samples), limit {limit} s; steal taken out {:.3} s",
            pass.ops(),
            pass.latencies.len(),
            pass.window_s,
            median(&pass.latencies),
            pass.latencies.len(),
            pass.stolen_s
        ));
        self.metric("setup_s", setup_s, "s");
        self.metric("latency_p50_s", median(&pass.latencies), "s");
        self.metric("latency_tail_s", tail_s, "s");
        self.metric("throughput_ops_per_s", ok / pass.window_s, "1/s");
        self.metric("max_rate_ops_per_s", within / pass.window_s, "1/s");
        self.metric("cpu_s_per_op", pass.cpu_s / ok.max(1.0), "s");
        self.metric("peak_rss_mb", median(&pass.pass_rss_mb), "MB");
    }

    /// Per-layer metrics of a traced run; the spans are written to
    /// `.bench_out/spans-<workload>-<seed>.jsonl`.
    pub fn layers(&mut self, layers: Layers, tracer: &Tracer, args: &Args) {
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("spans-{}-{}.jsonl", self.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => self.note(format!("spans written to {}", path.display())),
            Err(e) => self.note(format!("spans not written: {e}")),
        }
        for (name, unit) in PER_LAYER {
            let value = layers.values.get(name).copied().unwrap_or(0.0);
            self.note(format!("  {name:<32} {value:>14.6} {unit}"));
            self.metric(name, value, unit);
        }
    }

    fn print(&self) {
        for line in &self.notes {
            println!("{}: {line}", self.workload);
        }
        if let Some(e) = &self.first_error {
            println!("{}: first failure: {e}", self.workload);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Per-op layer figures of a traced run.
pub struct Layers {
    ops: f64,
    values: BTreeMap<&'static str, f64>,
    sum_s: f64,
}

impl Layers {
    pub fn new(ops: f64) -> Layers {
        Layers {
            ops: ops.max(1.0),
            values: BTreeMap::new(),
            sum_s: 0.0,
        }
    }

    /// Adds `total` self seconds of span `name` (metric `<name>_s`, per op).
    pub fn add_seconds(&mut self, name: &str, total: f64) {
        let Some((metric, _)) = PER_LAYER
            .iter()
            .find(|(m, _)| m.strip_suffix("_s") == Some(name))
        else {
            return;
        };
        *self.values.entry(metric).or_insert(0.0) += total / self.ops;
        self.sum_s += total / self.ops;
    }

    pub fn set_count(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Process-wide cache counter deltas over the traced pass.
    pub fn cache(&mut self, c: CacheStats) {
        self.set_count("core.cache.hits", c.hits as f64);
        self.set_count("core.cache.misses", c.misses as f64);
        self.set_count("core.cache.remote_hits", c.remote_hits as f64);
        self.set_count("core.cache.coalesced", c.coalesced as f64);
        self.set_count("core.cache.write_errors", c.write_errors as f64);
        let lookups = c.lookups();
        if lookups > 0 {
            self.set_count(
                "core.cache.hit_ratio",
                (c.hits + c.remote_hits) as f64 / lookups as f64,
            );
        }
    }

    /// The remainder and the tracing overhead, from the traced pass's
    /// mean latency against the layer sum and the untraced pass.
    pub fn finish(&mut self, traced: &Pass, untraced: &Pass) {
        let gate = self.values.get("timing.gate_sim_s").copied().unwrap_or(0.0);
        let records = self.values.get("timing.records").copied().unwrap_or(0.0);
        if gate > 0.0 {
            self.set_count("timing.records_per_s", records / gate);
        }
        let e2e = mean(&traced.latencies);
        self.set_count("traced_latency_s", e2e);
        self.set_count("unattributed_s", e2e - self.sum_s);
        self.set_count("tracing_overhead_s", e2e - mean(&untraced.latencies));
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "cold-characterize" => cold::run(args),
        "serve-warm" => serve::run(args),
        "fleet-cold" => fleet::run(args),
        other => Err(format!(
            "unknown workload '{other}' (cold-characterize, serve-warm, fleet-cold)"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("library-start") => {
            return match cold::library_start_child(argv.get(1).map_or("", String::as_str)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench library-start: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("executor") => return fleet::executor_child(&argv[1..]),
        Some("serve-setup") => return serve::setup_child(&argv[1..]),
        Some("references") => {
            let (workload, seed, dir) = match argv.get(1..4) {
                Some([w, s, d]) => (w, s.parse().unwrap_or(0), std::path::Path::new(d)),
                _ => return ExitCode::from(2),
            };
            return match mix::write_references(workload, seed, dir) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench references: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            out.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
