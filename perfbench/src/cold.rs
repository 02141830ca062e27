//! `cold-characterize`: a closed loop with one caller, each op running
//! `Experiment::new(spec).with_cache(<fresh empty dir>).run()` on a
//! paper-quality spec. Gate simulation, trace build, cache-key hashing
//! and the cache store do nearly all the work; no HTTP, queue, journal
//! or fleet code runs.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use synts_core::scenario::{Experiment, Json, ScenarioSpec};
use synts_core::{CacheStats, CharCache};

use crate::mix;
use crate::replay::characterize_traced;
use crate::trace::{self_by_name, Tracer};
use crate::util::{cpu_seconds, median, peak_rss_mb, reset_peak_rss, VcpuTicks, WorkDir};
use crate::{Args, Layers, Outcome, Pass};

const SETUP_REPS: usize = 41;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create("cold-characterize").map_err(|e| e.to_string())?;
    let (texts, refs) = mix::load_references(&args.workload, args.seed, &work.path().join("refs"))?;

    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|i| library_start(&work.path().join(format!("start{i}"))))
        .collect::<Result<_, _>>()?;
    let setup_s = median(&setups);

    let mut out = Outcome::new("cold-characterize");
    out.note(format!(
        "mix: {} specs (all 10 benchmarks x 3 stages, light schemes), setup reps {SETUP_REPS}",
        texts.len()
    ));
    if !args.trace {
        let pass = closed_pass(&work, &texts, &refs, args.seconds, None)?;
        out.e2e(&pass, setup_s);
        return Ok(out);
    }
    let untraced = closed_pass(&work, &texts, &refs, 0.0, None)?;
    let tracer = Tracer::new(true);
    let before = CacheStats::snapshot();
    let traced = closed_pass(&work, &texts, &refs, 0.0, Some(&tracer))?;
    let cache = CacheStats::snapshot().since(before);
    let spans = tracer.snapshot();
    let by_name = self_by_name(&spans, |_| true);
    let mut layers = Layers::new(traced.ops() as f64);
    for (name, secs) in &by_name {
        if *name != "op" {
            layers.add_seconds(name, *secs);
        }
    }
    layers.set_count("timing.records", traced.records / traced.ops() as f64);
    layers.set_count(
        "core.cache.entry_bytes",
        traced.entry_bytes / traced.ops() as f64,
    );
    layers.cache(cache);
    layers.finish(&traced, &untraced);
    out.absorb_pass(&untraced);
    out.absorb_pass(&traced);
    out.layers(layers, &tracer, args);
    Ok(out)
}

/// Set-up a library caller pays before its first op: a fresh process
/// that builds the solver registry and an `Experiment` over a new cache
/// directory, timed from spawn to exit (less the stolen share).
fn library_start(dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let ticks = VcpuTicks::now();
    let t = Instant::now();
    let status = Command::new(exe)
        .arg("library-start")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the library probe: {e}"))?;
    let secs = ticks.unstolen(t.elapsed().as_secs_f64());
    if !status.success() {
        return Err("library probe failed".to_string());
    }
    Ok(secs)
}

/// The `library-start` subcommand: a first, minimal scenario (quick
/// quality, the smallest stage) through a new cache directory.
pub fn library_start_child(dir: &str) -> Result<(), String> {
    let spec = ScenarioSpec::new(
        "start",
        workloads::Benchmark::Radix,
        circuits::StageKind::ComplexAlu,
    );
    Experiment::new(spec)
        .with_cache(CharCache::at_dir(dir))
        .run()
        .map(|report| std::hint::black_box(report.to_json_string()))
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Runs whole passes over the mix, in mix order, until `seconds` of
/// wall time have been measured (at least one pass). The order is the
/// same in every pass and run, so the heap the ops leave behind, and
/// with it each pass's peak RSS, does not depend on the seed. An op's
/// latency is its wall time less the share the hypervisor stole
/// meanwhile. With a tracer, each op is decomposed into the public
/// calls `Experiment::run` makes, each in a span.
fn closed_pass(
    work: &WorkDir,
    texts: &[String],
    refs: &[String],
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<Pass, String> {
    let pid = std::process::id();
    let mut pass = Pass::default();
    let mut op = 0u64;
    loop {
        reset_peak_rss(pid);
        for i in 0..texts.len() {
            let dir = work.fresh("op").map_err(|e| e.to_string())?;
            let cpu0 = cpu_seconds(pid);
            let ticks = VcpuTicks::now();
            let t = Instant::now();
            let result = match tracer {
                None => untraced_op(&texts[i], &dir),
                Some(tr) => traced_op(tr, op, &texts[i], &dir, &mut pass),
            };
            let wall = t.elapsed().as_secs_f64();
            let secs = ticks.unstolen(wall);
            pass.stolen_s += wall - secs;
            pass.cpu_s += cpu_seconds(pid) - cpu0;
            pass.window_s += secs;
            match result {
                Ok(json) if json == refs[i] => pass.latencies.push(secs),
                Ok(_) => pass.fail("report bytes differ from the monolithic run"),
                Err(e) => pass.fail(&e),
            }
            op += 1;
        }
        pass.pass_rss_mb.push(peak_rss_mb(pid));
        if pass.wall_s() >= seconds {
            return Ok(pass);
        }
    }
}

fn parse_spec(text: &str) -> Result<ScenarioSpec, String> {
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    ScenarioSpec::from_json(&json).map_err(|e| e.to_string())
}

fn untraced_op(text: &str, dir: &Path) -> Result<String, String> {
    let spec = parse_spec(text)?;
    let report = Experiment::new(spec)
        .with_cache(CharCache::at_dir(dir))
        .run()
        .map_err(|e| e.to_string())?;
    Ok(report.to_json_string())
}

/// `Experiment::run` spelled out through its public parts, one span per
/// call (see [`characterize_traced`]).
fn traced_op(
    tr: &Tracer,
    op: u64,
    text: &str,
    dir: &Path,
    pass: &mut Pass,
) -> Result<String, String> {
    tr.span("op", op, || {
        let spec = tr.span("core.scenario.json", op, || parse_spec(text))?;
        let cache = CharCache::at_dir(dir);
        let (data, work) = characterize_traced(tr, op, &spec, &cache)?;
        pass.records += work.records;
        pass.entry_bytes += work.entry_bytes;
        let report = tr
            .span("core.scenario.run_on", op, || {
                Experiment::new(spec).with_cache(cache).run_on(&data)
            })
            .map_err(|e| e.to_string())?;
        Ok(tr.span("core.scenario.json", op, || report.to_json_string()))
    })
}
