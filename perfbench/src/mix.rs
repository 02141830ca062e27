//! The seeded spec generator: benchmark × stage × schemes × explicit θ
//! grid × interval selection. The program only ever receives the specs
//! made here. Each workload's pairs and spec classes are fixed, so the
//! cost make-up of a mix is the same for every seed; the seed picks the
//! schemes, grid values and interval selections. Every pass runs the mix
//! in the same order.

use std::path::Path;

use circuits::StageKind;
use synts_core::experiments::BenchmarkData;
use synts_core::scenario::{Experiment, IntervalSelection, Quality, ScenarioSpec, ThetaSpec};
use synts_core::OptError;
use workloads::Benchmark;

use crate::util::{par_map, Rng};

/// Solvers that cost little next to characterization.
const LIGHT_SCHEMES: [&str; 4] = ["synts_poly", "per_core_ts", "no_ts", "nominal"];

/// Points in a dense MILP grid (fixed, so the solve cost of a mix does
/// not move with the seed).
const DENSE_POINTS: usize = 25;
/// Decades a dense grid spans around the equal-weight θ.
const DENSE_DECADES: f64 = 2.0;

/// The spec classes a mix is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Two or three light schemes on a 4–9 point grid.
    Light,
    /// `synts_milp` + `synts_poly` on a dense grid over every interval.
    DenseMilp,
}

pub type Pair = (Benchmark, StageKind);

/// A mix as `(pair index, class)` entries, one spec each.
pub type Plan = Vec<(usize, Class)>;

/// Every benchmark × stage pair (30).
pub fn all_pairs() -> Vec<Pair> {
    Benchmark::ALL
        .iter()
        .flat_map(|&b| StageKind::ALL.iter().map(move |&s| (b, s)))
        .collect()
}

fn named(names: &[(&str, &str)]) -> Vec<Pair> {
    names
        .iter()
        .map(|(b, s)| {
            (
                Benchmark::from_name(b).expect("known benchmark"),
                StageKind::from_name(s).expect("known stage"),
            )
        })
        .collect()
}

/// serve-warm: pairs whose cache entries span 2 KB to 5 MB, so loads
/// range from trivial to the multi-MB parse that dominates warm jobs.
/// The first [`SERVE_HEAVY`] (2.6–4.9 MB entries) get a light and a
/// dense spec each, the rest a light one, so most jobs pay multi-MB
/// loads and the median sits among them rather than in the gap between
/// cheap and dear jobs.
pub fn serve_pairs() -> Vec<Pair> {
    named(&[
        ("radix", "decode"),
        ("lu-contig", "decode"),
        ("lu-ncontig", "complex-alu"),
        ("cholesky", "decode"),
        ("ocean", "simple-alu"),
        ("barnes", "decode"),
        ("radix", "complex-alu"),
        ("ocean", "complex-alu"),
        ("cholesky", "complex-alu"),
        ("barnes", "simple-alu"),
    ])
}

/// Pairs at the head of [`serve_pairs`] that also get a dense spec.
const SERVE_HEAVY: usize = 6;

/// fleet-cold: pairs whose cold characterization takes 0.05–0.3 s, so
/// dispatch, remote-tier transfer and the shard join are visible.
pub fn fleet_pairs() -> Vec<Pair> {
    named(&[
        ("radix", "decode"),
        ("radix", "simple-alu"),
        ("lu-contig", "decode"),
        ("lu-ncontig", "complex-alu"),
        ("cholesky", "decode"),
        ("ocean", "decode"),
        ("barnes", "decode"),
        ("barnes", "simple-alu"),
    ])
}

/// Monolithic, cache-free characterization of each pair (the reference
/// data), two pairs at a time.
pub fn reference_data(pairs: &[Pair]) -> Result<Vec<BenchmarkData>, OptError> {
    let cfg = Quality::Paper.harness();
    par_map(pairs, 2, |&(b, s)| {
        synts_core::experiments::characterize(b, s, &cfg)
    })
    .into_iter()
    .collect()
}

/// The equal-weight θ of a pair over all its intervals, the point the
/// generated grids are spread around.
pub fn theta_center(pair: Pair, data: &BenchmarkData) -> Result<f64, OptError> {
    let probe = ScenarioSpec::new("center", pair.0, pair.1)
        .quality(Quality::Paper)
        .schemes(["nominal"]);
    Ok(Experiment::new(probe).run_on(data)?.theta_center)
}

/// One generated spec and the pair it runs on.
#[derive(Debug, Clone)]
pub struct MixSpec {
    pub pair: usize,
    pub spec: ScenarioSpec,
}

/// Generates one spec per `(pair, class)` entry of `plan`.
pub fn generate(
    workload: &str,
    seed: u64,
    pairs: &[Pair],
    centers: &[f64],
    plan: &[(usize, Class)],
) -> Vec<MixSpec> {
    let mut rng = Rng::new(seed);
    plan.iter()
        .enumerate()
        .map(|(k, &(pair, class))| {
            let (benchmark, stage) = pairs[pair];
            let mut spec = ScenarioSpec::new(format!("{workload}-{seed}-{k}"), benchmark, stage)
                .quality(Quality::Paper);
            let points = match class {
                Class::Light => rng.range(4, 9),
                Class::DenseMilp => DENSE_POINTS,
            };
            // Dense grids keep a fixed span (their solve cost depends on
            // it) and only jitter each point; light grids vary freely.
            let (decades, shift) = match class {
                Class::Light => (1.0 + 2.0 * rng.unit(), (rng.unit() - 0.5) * 0.5),
                Class::DenseMilp => (DENSE_DECADES, 0.0),
            };
            let grid: Vec<f64> = (0..points)
                .map(|i| {
                    let u = i as f64 / (points - 1) as f64 - 0.5;
                    let jitter = (rng.unit() - 0.5) * 0.02;
                    centers[pair] * 10f64.powf(decades * u + shift + jitter)
                })
                .collect();
            spec = spec.thetas(ThetaSpec::Grid(grid));
            match class {
                Class::Light => {
                    let mut schemes = LIGHT_SCHEMES.to_vec();
                    rng.shuffle(&mut schemes);
                    schemes.truncate(rng.range(2, 3));
                    spec = spec.schemes(schemes).intervals(match rng.range(0, 4) {
                        0 | 1 => IntervalSelection::All,
                        2 => IntervalSelection::MostHeterogeneous,
                        _ => IntervalSelection::Index(rng.range(0, 2)),
                    });
                    if rng.unit() < 0.5 {
                        spec = spec.normalize_to("nominal");
                    }
                }
                Class::DenseMilp => {
                    spec = spec
                        .schemes(["synts_milp", "synts_poly"])
                        .normalize_to("nominal");
                }
            }
            MixSpec { pair, spec }
        })
        .collect()
}

/// The canonical JSON of a monolithic `Experiment::run_on` of every
/// spec: the bytes each op's report must equal.
pub fn reference_reports(mix: &[MixSpec], data: &[BenchmarkData]) -> Result<Vec<String>, OptError> {
    par_map(mix, 2, |m| {
        Experiment::new(m.spec.clone())
            .run_on(&data[m.pair])
            .map(|r| r.to_json_string())
    })
    .into_iter()
    .collect()
}

/// The pairs and `(pair, class)` plan of a workload's mix.
fn workload_plan(workload: &str) -> Option<(Vec<Pair>, Plan)> {
    let light = |pairs: Vec<Pair>| {
        let plan = (0..pairs.len()).map(|p| (p, Class::Light)).collect();
        (pairs, plan)
    };
    match workload {
        "cold-characterize" => Some(light(all_pairs())),
        "fleet-cold" => Some(light(fleet_pairs())),
        "serve-warm" => {
            let pairs = serve_pairs();
            let plan = (0..pairs.len())
                .flat_map(|p| {
                    let dense = (p < SERVE_HEAVY).then_some((p, Class::DenseMilp));
                    std::iter::once((p, Class::Light)).chain(dense)
                })
                .collect();
            Some((pairs, plan))
        }
        _ => None,
    }
}

/// The `references` subcommand: generates a workload's mix from the
/// seed and writes each spec (`spec-<i>.json`) and its reference report
/// (`ref-<i>.json`) into `dir`. It runs in a child process so the
/// reference characterizations never count towards the measured
/// process's peak memory.
pub fn write_references(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    let (pairs, plan) = workload_plan(workload).ok_or("unknown workload")?;
    let data = reference_data(&pairs).map_err(|e| e.to_string())?;
    let centers = pairs
        .iter()
        .zip(&data)
        .map(|(&p, d)| theta_center(p, d).map_err(|e| e.to_string()))
        .collect::<Result<Vec<f64>, String>>()?;
    let mix = generate(workload, seed, &pairs, &centers, &plan);
    let refs = reference_reports(&mix, &data).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for (i, (m, r)) in mix.iter().zip(&refs).enumerate() {
        std::fs::write(dir.join(format!("spec-{i}.json")), m.spec.to_json_string())
            .and_then(|()| std::fs::write(dir.join(format!("ref-{i}.json")), r))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A workload's generated mix as `(spec JSON texts, reference reports)`,
/// built by a `references` child process in `dir`.
pub fn load_references(
    workload: &str,
    seed: u64,
    dir: &Path,
) -> Result<(Vec<String>, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .arg("references")
        .arg(workload)
        .arg(seed.to_string())
        .arg(dir)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the reference build: {e}"))?;
    if !status.success() {
        return Err("the reference build failed".to_string());
    }
    let mut texts = Vec::new();
    let mut refs = Vec::new();
    while let (Ok(spec), Ok(report)) = (
        std::fs::read_to_string(dir.join(format!("spec-{}.json", texts.len()))),
        std::fs::read_to_string(dir.join(format!("ref-{}.json", refs.len()))),
    ) {
        texts.push(spec);
        refs.push(report);
    }
    if texts.is_empty() {
        return Err("the reference build wrote no specs".to_string());
    }
    Ok((texts, refs))
}
