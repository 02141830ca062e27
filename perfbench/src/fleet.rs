//! `fleet-cold`: a coordinator (in-process `Service` + HTTP server with
//! `local_shards: false`) and two executor processes with their own
//! cache directories, driven by one client in a closed loop. Every cache
//! directory is emptied between jobs, outside the timed window, so each
//! job plans cold on the coordinator and its shards fetch the entry from
//! the coordinator's remote tier.

use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use synts_core::cache::RemoteCacheTier;
use synts_core::scenario::Json;
use synts_core::{CacheStats, CharCache, SolverRegistry};
use synts_serve::{run_executor, ExecutorConfig, HttpCacheTier, ServiceConfig};

use crate::mix;
use crate::replay::{JobSite, TracedTier};
use crate::serve::{absorb, as_pass, attribute, cycle, replay_all, REPLAY_OP};
use crate::service::{closed_loop, JobObs, Svc, POLL};
use crate::trace::Tracer;
use crate::util::{
    cpu_seconds, empty_dir, median, peak_rss_mb, reset_peak_rss, VcpuTicks, WorkDir,
};
use crate::{Args, Outcome, Pass};

const SETUP_REPS: usize = 41;
/// Passes over the mix, at least (more if `--seconds` is not yet
/// covered), so the tail percentile has ten samples beyond it and lies
/// above the median.
const MIN_PASSES: usize = 4;
const EXECUTORS: usize = 2;
/// Executor `--poll-ms`: idle poll, heartbeat cadence (and so the
/// heartbeat join after each shard) and the claim wait of the tier.
const EXECUTOR_POLL_MS: u64 = 10;
/// Pace of the coordinator's lease reaper.
const TICK: Duration = Duration::from_millis(100);

/// A coordinator and its executor processes.
struct Fleet {
    svc: Svc,
    children: Vec<Child>,
    coord_cache: PathBuf,
    exec_caches: Vec<PathBuf>,
}

impl Fleet {
    /// Set-up: coordinator start to a healthy `/v1/healthz`, then both
    /// executors spawned and registered (seen in `/v1/stats`), less the
    /// stolen share.
    fn start(work: &WorkDir, rep: usize) -> Result<(Fleet, f64), String> {
        let coord_cache = work
            .fresh(&format!("coord{rep}"))
            .map_err(|e| e.to_string())?;
        let exec_caches = (0..EXECUTORS)
            .map(|k| {
                work.fresh(&format!("exec{rep}-{k}"))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let ticks = VcpuTicks::now();
        let t = Instant::now();
        let svc = Svc::start(
            ServiceConfig {
                workers: 2,
                max_shards: 4,
                max_attempts: 2,
                cache: CharCache::at_dir(&coord_cache),
                registry: SolverRegistry::with_defaults(),
                journal: None,
                faults: None,
                local_shards: false,
                lease_ticks: 5,
            },
            Some(TICK),
        )?;
        svc.wait_healthy(Duration::from_secs(10))?;
        let mut fleet = Fleet {
            svc,
            children: Vec::new(),
            coord_cache,
            exec_caches,
        };
        for (k, dir) in fleet.exec_caches.iter().enumerate() {
            let child = Command::new(&exe)
                .arg("executor")
                .args(["--coordinator", &fleet.svc.addr])
                .args(["--name", &format!("exec-{k}")])
                .arg("--cache-dir")
                .arg(dir)
                .args(["--poll-ms", &EXECUTOR_POLL_MS.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot start an executor: {e}"))?;
            fleet.children.push(child);
        }
        let client = fleet.svc.client();
        loop {
            let live = client
                .stats()
                .ok()
                .and_then(|s| {
                    s.get("fleet")
                        .and_then(|f| f.get("executors"))
                        .and_then(Json::as_usize)
                })
                .unwrap_or(0);
            if live == EXECUTORS {
                break;
            }
            if t.elapsed() > Duration::from_secs(30) {
                return Err("executors never registered".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((fleet, ticks.unstolen(t.elapsed().as_secs_f64())))
    }

    fn pids(&self) -> Vec<u32> {
        std::iter::once(std::process::id())
            .chain(self.children.iter().map(Child::id))
            .collect()
    }

    fn cpu(&self) -> f64 {
        self.pids().into_iter().map(cpu_seconds).sum()
    }

    fn clear_caches(&self) {
        empty_dir(&self.coord_cache);
        for dir in &self.exec_caches {
            empty_dir(dir);
        }
    }

    /// Summed peak RSS of the coordinator (this process) and executors.
    fn rss_mb(&self) -> f64 {
        self.pids().into_iter().map(peak_rss_mb).sum()
    }
}

impl Drop for Fleet {
    /// Kills and reaps the executors; the coordinator stops when `svc`
    /// drops right after.
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create("fleet-cold").map_err(|e| e.to_string())?;
    let (texts, refs) = mix::load_references(&args.workload, args.seed, &work.path().join("refs"))?;

    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let (fleet, secs) = Fleet::start(&work, rep)?;
        setups.push(secs);
        if rep + 1 == SETUP_REPS {
            live = Some(fleet);
        } else {
            drop(fleet);
        }
    }
    let fleet = live.ok_or("no fleet started")?;
    let setup_s = median(&setups);

    let mut out = Outcome::new("fleet-cold");
    out.note(format!(
        "mix: {} specs (one per pair, light schemes), coordinator local_shards off, {EXECUTORS} \
         executors with --poll-ms {EXECUTOR_POLL_MS}, client poll interval {} ms, setup reps \
         {SETUP_REPS}",
        texts.len(),
        POLL.as_millis()
    ));
    let mut op = 0u64;
    let off = Tracer::new(false);
    if !args.trace {
        let mut pass = Pass::default();
        for pass_no in 1.. {
            let jobs = cycle(&texts, &mut op, 1);
            fleet.pids().into_iter().for_each(reset_peak_rss);
            let obs = measure(&fleet, &off, &jobs, &refs, &mut pass);
            absorb(&mut pass, &obs);
            pass.pass_rss_mb.push(fleet.rss_mb());
            if pass_no >= MIN_PASSES && pass.wall_s() >= args.seconds {
                break;
            }
        }
        drop(fleet);
        out.e2e(&pass, setup_s);
        return Ok(out);
    }

    let mut untraced = Pass::default();
    let jobs = cycle(&texts, &mut op, 1);
    let untraced_obs = measure(&fleet, &off, &jobs, &refs, &mut untraced);
    let tracer = Arc::new(Tracer::new(true));
    let stats0 = fleet.svc.stats();
    let cache0 = CacheStats::snapshot();
    let jobs = cycle(&texts, &mut op, 1);
    let mut scratch = Pass::default();
    let traced = measure(&fleet, &tracer, &jobs, &refs, &mut scratch);
    let stats1 = fleet.svc.stats();

    let tiers: Vec<Arc<TracedTier>> = (0..EXECUTORS)
        .map(|k| {
            Arc::new(TracedTier {
                inner: HttpCacheTier::new(&fleet.svc.addr, &format!("replay-{k}"))
                    .with_wait(Duration::from_millis(EXECUTOR_POLL_MS), 300),
                tracer: Arc::clone(&tracer),
                op: AtomicU64::new(0),
            })
        })
        .collect();
    let replay_dirs = (0..EXECUTORS)
        .map(|k| {
            work.fresh(&format!("replay-exec{k}"))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let shard_caches: Vec<CharCache> = replay_dirs
        .iter()
        .zip(&tiers)
        .map(|(dir, tier)| {
            let tier: Arc<dyn RemoteCacheTier> = Arc::clone(tier) as Arc<dyn RemoteCacheTier>;
            CharCache::at_dir(dir).with_remote(Some(tier))
        })
        .collect();
    let coord = CharCache::at_dir(&fleet.coord_cache);
    let site = JobSite {
        plan_cache: &coord,
        shard_caches: &shard_caches,
        journal: None,
        max_shards: 4,
        wave: EXECUTORS,
    };
    let replays = replay_all(&tracer, &texts, &refs, &site, |i| {
        fleet.clear_caches();
        for dir in &replay_dirs {
            empty_dir(dir);
        }
        for tier in &tiers {
            tier.op.store(REPLAY_OP + i as u64, Ordering::Relaxed);
        }
    })?;
    let cache = CacheStats::snapshot().since(cache0);
    drop(fleet);

    let mut layers = attribute(&traced, &replays, true);
    let dispatched = stats1.fleet.dispatched - stats0.fleet.dispatched;
    let completed = stats1.fleet.completed - stats0.fleet.completed;
    layers.set_count("serve.fleet.dispatched", dispatched as f64);
    layers.set_count("serve.fleet.completed", completed as f64);
    layers.set_count(
        "serve.fleet.expired",
        (stats1.fleet.expired - stats0.fleet.expired) as f64,
    );
    if dispatched > 0 {
        layers.set_count(
            "serve.fleet.completed_ratio",
            completed as f64 / dispatched as f64,
        );
    }
    layers.set_count(
        "serve.queue.shard_retries",
        (stats1.shard_retries - stats0.shard_retries) as f64,
    );
    layers.cache(cache);
    let traced = as_pass(&traced);
    layers.finish(&traced, &as_pass(&untraced_obs));
    out.absorb_pass(&as_pass(&untraced_obs));
    out.absorb_pass(&traced);
    out.absorb_replays(&replays);
    out.layers(layers, &tracer, args);
    Ok(out)
}

/// Runs `jobs` one at a time, adding each job's window and CPU (the
/// coordinator process and both executors) to `pass`; caches are
/// emptied between jobs, outside the timed window. The window leaves
/// out the share of its wall time the hypervisor stole, as each job's
/// latency does.
fn measure(
    fleet: &Fleet,
    tracer: &Tracer,
    jobs: &[(usize, u64, String)],
    refs: &[String],
    pass: &mut Pass,
) -> Vec<JobObs> {
    let client = fleet.svc.client();
    let mut all = Vec::new();
    for job in jobs {
        let cpu0 = fleet.cpu();
        let ticks = VcpuTicks::now();
        let t0 = Instant::now();
        let obs = closed_loop(&client, tracer, t0, std::slice::from_ref(job), Some(refs));
        let wall = t0.elapsed().as_secs_f64();
        let share = ticks.stolen_share_since();
        pass.window_s += wall * (1.0 - share);
        pass.stolen_s += wall * share;
        pass.cpu_s += fleet.cpu() - cpu0;
        fleet.clear_caches();
        all.extend(obs);
    }
    all
}

/// The `executor` subcommand: the remote-executor loop of
/// `synts-serve --executor`, through the library's `run_executor`.
pub fn executor_child(argv: &[String]) -> ExitCode {
    let mut cfg = ExecutorConfig::default();
    let mut it = argv.iter();
    while let (Some(flag), Some(value)) = (it.next(), it.next()) {
        match flag.as_str() {
            "--coordinator" => cfg.coordinator.clone_from(value),
            "--name" => cfg.name.clone_from(value),
            "--cache-dir" => cfg.cache = CharCache::at_dir(value),
            "--poll-ms" => match value.parse() {
                Ok(ms) => cfg.poll = Duration::from_millis(ms),
                Err(_) => return ExitCode::from(2),
            },
            _ => return ExitCode::from(2),
        }
    }
    match run_executor(&cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench executor: {e}");
            ExitCode::FAILURE
        }
    }
}
