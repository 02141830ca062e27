//! `serve-warm`: an in-process `Service` + HTTP server on loopback
//! (2 workers, up to 4 shards per job, journal on), its cache warmed in
//! set-up, driven by an open loop at fixed offered rates. No gate
//! simulation runs; each job repeats trace build, key hashing and a
//! cache load/parse once for the plan and once per shard, then solves,
//! merges and journals.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use synts_core::scenario::{Quality, ScenarioSpec, ThetaSpec};
use synts_core::{CacheStats, CharCache, SolverRegistry};
use synts_serve::{Journal, ServiceConfig};

use crate::mix::{self, Pair};
use crate::replay::{replay_job, JobSite};
use crate::service::{open_loop, poll_round, submit, JobObs, Svc, POLL};
use crate::trace::{descends_from, self_by_name, Span, Tracer};
use crate::util::{cpu_seconds, median, peak_rss_mb, since, tail, VcpuTicks, WorkDir};
use crate::{Args, Layers, Outcome, Pass};

const SETUP_REPS: usize = 3;
const WORKERS: usize = 2;
const MAX_SHARDS: usize = 4;

/// The nominal offered rate (jobs/s) the latency metrics are taken at.
const NOMINAL_RATE: f64 = 1.0;

/// Passes over the mix at the nominal rate, at least: enough samples
/// that the tail percentile lies above the median.
const NOMINAL_MIN_PASSES: usize = 2;

/// Probe levels as `(offered jobs/s, passes over the mix)`. The last
/// offers more than two workers carry, so the service runs flat out
/// through it and its completion rate is the highest rate served
/// without a growing backlog. The latency limit of a rate search sits
/// on the knee of the latency curve, where a few per cent of host speed
/// moves a level's median by half; the saturated completion rate moves
/// only with host speed itself.
const PROBES: [(f64, usize); 2] = [(2.0, 1), (3.0, 2)];

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create("serve-warm").map_err(|e| e.to_string())?;
    let pairs = mix::serve_pairs();
    let (texts, refs) = mix::load_references(&args.workload, args.seed, &work.path().join("refs"))?;

    // Each set-up runs in a child process, so the warm-up's gate
    // simulation leaves nothing in the measured process's heap; the
    // measured service then starts on the last set-up's warm cache.
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|rep| setup_in_child(&work, rep))
        .collect::<Result<_, _>>()?;
    let setup_s = median(&setups);
    let cache_dir = work.path().join(format!("cache{}", SETUP_REPS - 1));
    let journal_dir = work.fresh("journal-live").map_err(|e| e.to_string())?;
    let svc = Svc::start(service_config(&cache_dir, &journal_dir)?, None)?;
    svc.wait_healthy(Duration::from_secs(10))?;

    let mut out = Outcome::new("serve-warm");
    out.note(format!(
        "mix: {} specs over {} pairs (light, plus dense synts_milp on the multi-MB ones), workers {WORKERS}, \
         max shards {MAX_SHARDS}, journal on, poll interval {} ms, setup reps {SETUP_REPS}",
        texts.len(),
        pairs.len(),
        POLL.as_millis()
    ));
    let mut op = 0u64;
    if !args.trace {
        levels(
            &svc,
            &texts,
            &refs,
            &mut op,
            args.seconds,
            setup_s,
            &mut out,
        );
        svc.stop();
        out.metric("peak_rss_mb", peak_rss_mb(std::process::id()), "MB");
        return Ok(out);
    }

    let off = Tracer::new(false);
    let jobs = cycle(&texts, &mut op, 1);
    let (untraced, _) = open_loop(
        &svc.client(),
        &off,
        Instant::now(),
        &jobs,
        NOMINAL_RATE,
        Some(&refs),
    );
    let tracer = Tracer::new(true);
    let stats0 = svc.stats();
    let cache0 = CacheStats::snapshot();
    let jobs = cycle(&texts, &mut op, 1);
    let (traced, _) = open_loop(
        &svc.client(),
        &tracer,
        Instant::now(),
        &jobs,
        NOMINAL_RATE,
        Some(&refs),
    );
    let stats1 = svc.stats();

    let journal_dir = work.fresh("replay-journal").map_err(|e| e.to_string())?;
    let journal = Journal::open(&journal_dir).map_err(|e| e.to_string())?;
    let cache = CharCache::at_dir(&cache_dir);
    let site = JobSite {
        plan_cache: &cache,
        shard_caches: std::slice::from_ref(&cache),
        journal: Some(&journal),
        max_shards: MAX_SHARDS,
        wave: WORKERS,
    };
    let replays = replay_all(&tracer, &texts, &refs, &site, |_| {})?;
    let cache = CacheStats::snapshot().since(cache0);
    svc.stop();

    let mut layers = attribute(&traced, &replays, false);
    layers.set_count(
        "serve.queue.shard_retries",
        (stats1.shard_retries - stats0.shard_retries) as f64,
    );
    layers.cache(cache);
    let (untraced, traced) = (as_pass(&untraced), as_pass(&traced));
    layers.finish(&traced, &untraced);
    out.absorb_pass(&untraced);
    out.absorb_pass(&traced);
    out.absorb_replays(&replays);
    out.layers(layers, &tracer, args);
    Ok(out)
}

fn service_config(cache: &Path, journal: &Path) -> Result<ServiceConfig, String> {
    Ok(ServiceConfig {
        workers: WORKERS,
        max_shards: MAX_SHARDS,
        max_attempts: 2,
        cache: CharCache::at_dir(cache),
        registry: SolverRegistry::with_defaults(),
        journal: Some(Journal::open(journal).map_err(|e| e.to_string())?),
        faults: None,
        local_shards: true,
        lease_ticks: 5,
    })
}

/// Set-up rep `rep` in a `serve-setup` child process, on fresh cache and
/// journal directories under `work`; returns its set-up seconds.
fn setup_in_child(work: &WorkDir, rep: usize) -> Result<f64, String> {
    let cache = work
        .fresh(&format!("cache{rep}"))
        .map_err(|e| e.to_string())?;
    let journal = work
        .fresh(&format!("journal{rep}"))
        .map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = Command::new(exe)
        .arg("serve-setup")
        .arg(&cache)
        .arg(&journal)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a service set-up: {e}"))?;
    let secs = String::from_utf8_lossy(&child.stdout).trim().parse::<f64>();
    match secs {
        Ok(secs) if child.status.success() => Ok(secs),
        _ => Err("service set-up failed".to_string()),
    }
}

/// The `serve-setup` subcommand: service start to a healthy
/// `/v1/healthz`, then one equal-weight job per pair through the API so
/// every pair's characterization is in the cache. Prints the seconds
/// that took.
pub fn setup_child(argv: &[String]) -> ExitCode {
    let [cache, journal] = argv else {
        return ExitCode::from(2);
    };
    match start_warm(Path::new(cache), Path::new(journal), &mix::serve_pairs()) {
        Ok(secs) => {
            println!("{secs}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench serve-setup: {e}");
            ExitCode::FAILURE
        }
    }
}

fn start_warm(cache: &Path, journal: &Path, pairs: &[Pair]) -> Result<f64, String> {
    let ticks = VcpuTicks::now();
    let t = Instant::now();
    let svc = Svc::start(service_config(cache, journal)?, None)?;
    svc.wait_healthy(Duration::from_secs(10))?;
    let client = svc.client();
    let off = Tracer::new(false);
    let t0 = Instant::now();
    let mut tracked: Vec<JobObs> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(b, s))| {
            let spec = ScenarioSpec::new(format!("warm-{i}"), b, s)
                .quality(Quality::Paper)
                .schemes(["no_ts"])
                .thetas(ThetaSpec::EqualWeight);
            submit(&client, &off, t0, i, i as u64, 0.0, &spec.to_json_string())
        })
        .collect();
    let mut done = Vec::new();
    while !tracked.is_empty() {
        std::thread::sleep(POLL);
        poll_round(&client, &off, t0, &mut tracked, &mut done, None);
    }
    let secs = ticks.unstolen(t.elapsed().as_secs_f64());
    svc.stop();
    if let Some(e) = done.iter().find_map(|o| o.error.clone()) {
        return Err(format!("cache warm-up failed: {e}"));
    }
    Ok(secs)
}

/// `passes` passes over the mix, in mix order, as `(spec, op, json)`
/// jobs.
pub fn cycle(texts: &[String], op: &mut u64, passes: usize) -> Vec<(usize, u64, String)> {
    let mut jobs = Vec::new();
    for _ in 0..passes {
        for (i, text) in texts.iter().enumerate() {
            jobs.push((i, *op, text.clone()));
            *op += 1;
        }
    }
    jobs
}

/// One rate level's outcome.
struct Level {
    rate: f64,
    obs: Vec<JobObs>,
    late: f64,
    window: f64,
    /// Share of the level's wall time the hypervisor stole.
    stolen_share: f64,
}

impl Level {
    fn latencies(&self) -> Vec<f64> {
        self.obs
            .iter()
            .filter(|o| o.ok)
            .map(JobObs::latency)
            .collect()
    }

    fn failed(&self) -> usize {
        self.obs.iter().filter(|o| !o.ok).count()
    }

    /// Jobs still unfinished when the last one was due.
    fn backlog(&self) -> usize {
        let last = self.obs.iter().map(|o| o.due).fold(0.0, f64::max);
        self.obs
            .iter()
            .filter(|o| o.due < last && o.fetched > last)
            .count()
    }

    /// Completions per second from the level's first completion to its
    /// last, less the stolen share of that time: the service's own pace
    /// while it has work queued.
    fn sustained(&self) -> f64 {
        let done: Vec<f64> = self
            .obs
            .iter()
            .filter(|o| o.ok)
            .map(|o| o.fetched)
            .collect();
        let first = done.iter().copied().fold(f64::INFINITY, f64::min);
        let last = done.iter().copied().fold(0.0, f64::max);
        if done.len() < 2 || last <= first {
            return 0.0;
        }
        (done.len() - 1) as f64 / ((last - first) * (1.0 - self.stolen_share))
    }
}

/// The untraced measurement: the nominal rate for whole passes until
/// `seconds` are covered, then each of [`PROBES`]. Latency, throughput
/// and CPU per op are taken at the nominal rate, the highest sustained
/// rate at the last probe.
fn levels(
    svc: &Svc,
    texts: &[String],
    refs: &[String],
    op: &mut u64,
    seconds: f64,
    setup_s: f64,
    out: &mut Outcome,
) {
    let client = svc.client();
    let off = Tracer::new(false);
    let pid = std::process::id();
    let mut run_level = |rate: f64, passes: usize| {
        let jobs = cycle(texts, op, passes);
        let ticks = VcpuTicks::now();
        let t0 = Instant::now();
        let (obs, late) = open_loop(&client, &off, t0, &jobs, rate, Some(refs));
        Level {
            rate,
            obs,
            late,
            window: since(t0),
            stolen_share: ticks.stolen_share_since(),
        }
    };
    let nominal_passes =
        ((seconds * NOMINAL_RATE / texts.len() as f64).ceil() as usize).max(NOMINAL_MIN_PASSES);
    let cpu0 = cpu_seconds(pid);
    let mut levels = vec![run_level(NOMINAL_RATE, nominal_passes)];
    let nominal_cpu = cpu_seconds(pid) - cpu0;
    levels.extend(PROBES.iter().map(|&(rate, passes)| run_level(rate, passes)));
    for level in &levels {
        let lat = level.latencies();
        let (t, pct) = tail(&lat);
        out.note(format!(
            "rate {:.2}/s: ops {} failed {} p50 {:.4} s tail p{pct:.1} {t:.4} s ({} samples), \
             backlog {} at last send, sustained {:.4}/s, generator late by <= {:.4} s, \
             {:.1}% of the time stolen",
            level.rate,
            level.obs.len(),
            level.failed(),
            median(&lat),
            lat.len(),
            level.backlog(),
            level.sustained(),
            level.late,
            100.0 * level.stolen_share,
        ));
    }
    let best = levels.last().map_or(0.0, Level::sustained);

    let mut pass = Pass::default();
    for level in &levels {
        absorb(&mut pass, &level.obs);
    }
    out.absorb_pass(&pass);
    let nominal = levels[0].latencies();
    let nominal_ok = nominal.len() as f64;
    let (tail_s, pct) = tail(&nominal);
    out.note(format!(
        "nominal rate {:.2}/s: p50 and tail p{pct:.1} over {} samples; max rate is the \
         sustained rate at {:.2}/s offered",
        NOMINAL_RATE,
        nominal.len(),
        PROBES[PROBES.len() - 1].0
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("latency_p50_s", median(&nominal), "s");
    out.metric("latency_tail_s", tail_s, "s");
    out.metric("throughput_ops_per_s", nominal_ok / levels[0].window, "1/s");
    out.metric("max_rate_ops_per_s", best, "1/s");
    out.metric("cpu_s_per_op", nominal_cpu / nominal_ok.max(1.0), "s");
}

/// One replayed spec.
pub struct SpecReplay {
    pub ok: bool,
    /// Self seconds by layer on the blocking path, without the parts
    /// the client's own submit and fetch spans already cover.
    pub layers: BTreeMap<&'static str, f64>,
    /// Replayed server-side work inside the client's submit and fetch.
    pub in_submit: f64,
    pub in_fetch: f64,
    pub records: f64,
    pub entry_bytes: f64,
}

/// Replays every spec of the mix once; `before` runs ahead of each
/// replay (outside its spans) with the spec index.
pub fn replay_all(
    tracer: &Tracer,
    texts: &[String],
    refs: &[String],
    site: &JobSite<'_>,
    mut before: impl FnMut(usize),
) -> Result<Vec<SpecReplay>, String> {
    let registry = SolverRegistry::with_defaults();
    let mut out = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        before(i);
        let op = REPLAY_OP + i as u64;
        let first = tracer.snapshot().len();
        let r = replay_job(tracer, op, i as u64 + 1, text, site, &registry)?;
        let spans = tracer.snapshot();
        let on_path =
            |s: usize| s >= first && r.blocking.iter().any(|&g| descends_from(&spans, s, g));
        let layers = self_by_name(&spans, on_path);
        let group_of = |name: &str| -> f64 { group_time(&spans, first, name) };
        let json_in_fetch = last_json(&spans, first);
        out.push(SpecReplay {
            ok: r.json == refs[i],
            layers,
            in_submit: group_of("submit"),
            in_fetch: json_in_fetch,
            records: r.work.records,
            entry_bytes: r.work.entry_bytes,
        });
    }
    Ok(out)
}

/// Span ids at or above this number are replays, not measured ops.
pub const REPLAY_OP: u64 = 1_000_000;

fn group_time(spans: &[Span], first: usize, name: &str) -> f64 {
    spans[first..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .sum()
}

/// The final `to_json_string` of a replay (what `GET .../report` renders).
fn last_json(spans: &[Span], first: usize) -> f64 {
    spans[first..]
        .iter()
        .rev()
        .find(|s| s.name == "core.scenario.json")
        .map_or(0.0, |s| s.end - s.start)
}

/// Per-op attribution of a traced pass: client-side HTTP spans, queue
/// and dispatch waits from status polling, and the replayed layers on
/// each op's blocking path. Server-side work the replay timed inside a
/// submit or fetch is taken out of the client span, so nothing counts
/// twice.
pub fn attribute(traced: &[JobObs], replays: &[SpecReplay], fleet: bool) -> Layers {
    let ok: Vec<&JobObs> = traced.iter().filter(|o| o.ok).collect();
    let mut layers = Layers::new(ok.len() as f64);
    let mut polls = 0.0;
    let mut useful = 0.0;
    let mut records = 0.0;
    let mut bytes = 0.0;
    for o in &ok {
        let r = &replays[o.spec];
        layers.add_seconds("serve.http.submit", (o.submit_s - r.in_submit).max(0.0));
        layers.add_seconds("serve.http.fetch", (o.fetch_s - r.in_fetch).max(0.0));
        layers.add_seconds("serve.http.status", o.last_status_s);
        let left = o.left_queue.unwrap_or(o.submitted);
        layers.add_seconds("serve.queue.wait", left - o.submitted);
        if fleet {
            let running = o.running.unwrap_or(left);
            let started = o.shard_started.unwrap_or(running);
            layers.add_seconds("serve.fleet.dispatch_wait", (started - running).max(0.0));
        }
        for (name, secs) in &r.layers {
            if !matches!(*name, "submit" | "plan" | "shard" | "finish") {
                layers.add_seconds(name, *secs);
            }
        }
        polls += f64::from(o.polls);
        useful += f64::from(o.useful_polls);
        records += r.records;
        bytes += r.entry_bytes;
    }
    let n = ok.len().max(1) as f64;
    layers.set_count("serve.http.requests_per_op", 2.0 + polls / n);
    if polls > 0.0 {
        layers.set_count("serve.http.poll_useful_ratio", useful / polls);
    }
    layers.set_count("timing.records", records / n);
    layers.set_count("core.cache.entry_bytes", bytes / n);
    layers
}

/// Adds the observed jobs to `pass`: latencies of matching reports,
/// failures for the rest.
pub fn absorb(pass: &mut Pass, obs: &[JobObs]) {
    for o in obs {
        if o.ok {
            pass.latencies.push(o.latency());
        } else {
            pass.fail(o.error.as_deref().unwrap_or("failed"));
        }
    }
}

/// The observed jobs as a [`Pass`].
pub fn as_pass(obs: &[JobObs]) -> Pass {
    let mut pass = Pass::default();
    absorb(&mut pass, obs);
    pass
}
