//! Traced replays of what the service does for one job, through the same
//! public calls, so the per-layer cost of a served op can be attributed
//! without instrumenting the program:
//!
//! * submit: `ScenarioSpec::from_json` + `Journal::record_submitted`;
//! * plan: characterize through the cache, then `ShardPlan::plan`;
//! * each shard: characterize through the cache, then `run_on`, then
//!   `Journal::record_shard_done`;
//! * finish: `ShardPlan::merge`, `Journal::record_done` and
//!   `Report::to_json_string`.
//!
//! Shards run in waves as wide as the executor pool; the slower shard of
//! each wave is the one on the op's blocking path.

use std::sync::Arc;

use synts_core::cache::{RemoteCacheTier, RemoteFetch};
use synts_core::experiments::BenchmarkData;
use synts_core::scenario::{Experiment, Json, ScenarioSpec, ShardPlan};
use synts_core::{worker_count, CharCache, SolverRegistry, ThreadPool};
use synts_serve::{HttpCacheTier, Journal};
use timing::{ErrorCurve, StageCharacterizer};

use crate::trace::{SpanId, Tracer};

/// Gate-level records simulated and cache-entry bytes loaded or stored
/// by a characterization.
#[derive(Debug, Default, Clone, Copy)]
pub struct CharWork {
    pub records: f64,
    pub entry_bytes: f64,
}

/// `characterize_cached` spelled out through its public parts, one span
/// per call: trace build, stage build, key, load, and on a miss the
/// characterizer build, gate simulation and store.
pub fn characterize_traced(
    tr: &Tracer,
    op: u64,
    spec: &ScenarioSpec,
    cache: &CharCache,
) -> Result<(BenchmarkData, CharWork), String> {
    let cfg = spec.quality.harness();
    let trace = tr.span("workloads.trace_build", op, || {
        spec.benchmark.run(&cfg.workload)
    });
    let circuit = tr
        .span("circuits.stage_build", op, || {
            circuits::build_stage(spec.stage, cfg.workload.width)
        })
        .map_err(|e| e.to_string())?;
    let entry = tr.span("core.cache.key", op, || {
        cache.entry(&trace, spec.stage, &cfg, circuit.netlist())
    });
    let mut simulated = 0.0;
    let data = match tr.span("core.cache.load", op, || entry.load()) {
        Some(data) => data,
        None => {
            let charac = tr
                .span("circuits.stage_build", op, || {
                    StageCharacterizer::from_stage(circuit)
                })
                .map_err(|e| e.to_string())?;
            let data = tr
                .span("timing.gate_sim", op, || {
                    synts_core::experiments::characterize_workload_on(
                        &charac,
                        &trace,
                        &cfg,
                        ThreadPool::new(worker_count(spec.workers)),
                    )
                })
                .map_err(|e| e.to_string())?;
            tr.span("core.cache.store", op, || entry.store(&data));
            simulated = records(&data) as f64;
            data
        }
    };
    let entry_bytes = entry
        .token()
        .and_then(|t| std::fs::metadata(cache.dir().join(t)).ok())
        .map_or(0.0, |m| m.len() as f64);
    Ok((
        data,
        CharWork {
            records: simulated,
            entry_bytes,
        },
    ))
}

/// Gate-level simulation records behind a characterization: one per
/// sampled delay of every thread of every interval.
fn records(data: &BenchmarkData) -> usize {
    data.intervals
        .iter()
        .flat_map(|iv| &iv.threads)
        .map(|t| t.normalized_delays.len())
        .sum()
}

/// Where a replayed job runs.
pub struct JobSite<'a> {
    /// Cache the plan step reads (the coordinator's).
    pub plan_cache: &'a CharCache,
    /// Cache of each executor, by shard index modulo their count.
    pub shard_caches: &'a [CharCache],
    /// Scratch journal, when the service journals.
    pub journal: Option<&'a Journal>,
    pub max_shards: usize,
    /// Width of a shard wave (workers or executors).
    pub wave: usize,
}

/// A replayed job: its report bytes, the span groups on its blocking
/// path, and the characterization work on that path.
pub struct Replayed {
    pub json: String,
    pub blocking: Vec<SpanId>,
    pub work: CharWork,
}

/// Replays one job; `seq` numbers it in the scratch journal.
pub fn replay_job(
    tr: &Tracer,
    op: u64,
    seq: u64,
    spec_json: &str,
    site: &JobSite<'_>,
    registry: &SolverRegistry<ErrorCurve>,
) -> Result<Replayed, String> {
    let mut blocking = Vec::new();
    let mut work = CharWork::default();
    let group = tr.begin("submit", op);
    let spec = tr.span("core.scenario.json", op, || {
        Json::parse(spec_json).and_then(|j| ScenarioSpec::from_json(&j))
    });
    let spec = spec.map_err(|e| e.to_string())?;
    if let Some(journal) = site.journal {
        tr.span("serve.journal.append", op, || {
            journal.record_submitted(seq, None, &spec)
        })
        .map_err(|e| e.to_string())?;
    }
    tr.end(group);
    blocking.extend(group);

    let group = tr.begin("plan", op);
    let (data, w) = characterize_traced(tr, op, &spec, site.plan_cache)?;
    add(&mut work, w);
    let plan = tr
        .span("core.scenario.plan", op, || {
            ShardPlan::plan(&spec, &data, site.max_shards)
        })
        .map_err(|e| e.to_string())?;
    tr.end(group);
    blocking.extend(group);

    let mut parts = Vec::new();
    let mut wave: Vec<(f64, Option<SpanId>, CharWork)> = Vec::new();
    for shard in plan.shards() {
        let cache = &site.shard_caches[shard.index % site.shard_caches.len()];
        let t = std::time::Instant::now();
        let group = tr.begin("shard", op);
        let (data, w) = characterize_traced(tr, op, &shard.spec, cache)?;
        let report = tr
            .span("core.scenario.run_on", op, || {
                Experiment::new(shard.spec.clone()).run_on(&data)
            })
            .map_err(|e| e.to_string())?;
        if let Some(journal) = site.journal {
            tr.span("serve.journal.append", op, || {
                journal.record_shard_done(seq, shard.index, &report)
            })
            .map_err(|e| e.to_string())?;
        }
        tr.end(group);
        parts.push(report);
        wave.push((t.elapsed().as_secs_f64(), group, w));
        if wave.len() == site.wave.max(1) || parts.len() == plan.shards().len() {
            if let Some((_, g, w)) = wave.iter().max_by(|a, b| a.0.total_cmp(&b.0)) {
                blocking.extend(*g);
                add(&mut work, *w);
            }
            wave.clear();
        }
    }

    let group = tr.begin("finish", op);
    let merged = tr
        .span("core.scenario.merge", op, || plan.merge(&parts, registry))
        .map_err(|e| e.to_string())?;
    if let Some(journal) = site.journal {
        tr.span("serve.journal.append", op, || {
            journal.record_done(seq, &merged)
        })
        .map_err(|e| e.to_string())?;
    }
    let json = tr.span("core.scenario.json", op, || merged.to_json_string());
    tr.end(group);
    blocking.extend(group);
    Ok(Replayed {
        json,
        blocking,
        work,
    })
}

fn add(total: &mut CharWork, w: CharWork) {
    total.records += w.records;
    total.entry_bytes += w.entry_bytes;
}

/// The executors' view of the coordinator's cache tier, with a span
/// around every fetch and publish.
#[derive(Debug)]
pub struct TracedTier {
    pub inner: HttpCacheTier,
    pub tracer: Arc<Tracer>,
    pub op: std::sync::atomic::AtomicU64,
}

impl RemoteCacheTier for TracedTier {
    fn fetch(&self, name: &str) -> RemoteFetch {
        let op = self.op.load(std::sync::atomic::Ordering::Relaxed);
        self.tracer
            .span("serve.fleet.remote_fetch", op, || self.inner.fetch(name))
    }

    fn publish(&self, name: &str, entry: &str) -> bool {
        let op = self.op.load(std::sync::atomic::Ordering::Relaxed);
        self.tracer.span("serve.fleet.remote_publish", op, || {
            self.inner.publish(name, entry)
        })
    }
}
