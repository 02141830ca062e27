//! The characterization fast path, held to its determinism contract:
//!
//! * a [`BenchmarkData`] served from the on-disk cache is **bit-identical**
//!   to a freshly simulated one (delays, curves, CPI, instruction counts);
//! * a parallel corpus build at 1/2/8 workers equals the sequential one;
//! * the characterization engine equals a nested loop over its unit task
//!   on generated benchmark × stage subsets, at any worker count, cache
//!   disabled, cold or warm — and concurrent calls coalesce;
//! * corrupted, truncated or garbage cache entries silently recompute;
//! * the zero-alloc batched `delay_trace_into` entry point reproduces
//!   `delay_trace_sampled` exactly, including across buffer reuse;
//! * `guard_band` is worker-count-invariant.

use std::path::PathBuf;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use proptest::prelude::*;
use synts::core_api::experiments::characterize_thread;
use synts::prelude::*;
use synts::timing::StageCharacterizer;
use synts_bench::corpus::{Corpus, Effort};

const BENCHES: [Benchmark; 3] = [Benchmark::Radix, Benchmark::Cholesky, Benchmark::Fmm];

fn tmp_cache(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("synts-cache-proptest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bitwise equality of two characterizations — stricter than `==` on
/// floats (NaN-proof, and distinguishes -0.0).
fn assert_bit_identical(a: &BenchmarkData, b: &BenchmarkData) {
    assert_eq!(a.benchmark, b.benchmark);
    assert_eq!(a.stage, b.stage);
    assert_eq!(a.tnom_v1.to_bits(), b.tnom_v1.to_bits(), "tnom drifted");
    assert_eq!(a.intervals.len(), b.intervals.len());
    for (ia, ib) in a.intervals.iter().zip(&b.intervals) {
        assert_eq!(ia.threads.len(), ib.threads.len());
        for (ta, tb) in ia.threads.iter().zip(&ib.threads) {
            assert_eq!(ta.curve, tb.curve, "error curve drifted");
            let da: Vec<u64> = ta.normalized_delays.iter().map(|d| d.to_bits()).collect();
            let db: Vec<u64> = tb.normalized_delays.iter().map(|d| d.to_bits()).collect();
            assert_eq!(da, db, "delay trace drifted");
            assert_eq!(ta.instructions.to_bits(), tb.instructions.to_bits());
            assert_eq!(ta.cpi_base.to_bits(), tb.cpi_base.to_bits());
        }
    }
}

/// The reference the engine is held to: a sequential nested loop over
/// the unit task, one pair at a time.
fn nested_unit_loop(bench: Benchmark, stage: StageKind, cfg: &HarnessConfig) -> BenchmarkData {
    let charac = StageCharacterizer::new(stage, cfg.workload.width).expect("stage");
    let trace = bench.run(&cfg.workload);
    let mut intervals = Vec::new();
    for interval in &trace.intervals {
        let mut threads = Vec::new();
        for t in 0..interval.threads() {
            threads.push(characterize_thread(&charac, interval.thread(t), cfg).expect("unit"));
        }
        intervals.push(IntervalData { threads });
    }
    BenchmarkData {
        benchmark: bench,
        stage,
        tnom_v1: charac.tnom_v1(),
        intervals,
    }
}

/// Distinct (benchmark, stage) pairs, benchmark-major in order of first
/// appearance — the order the engine promises.
fn distinct_pairs(benchmarks: &[Benchmark], stages: &[StageKind]) -> Vec<(Benchmark, StageKind)> {
    let mut pairs = Vec::new();
    for &bench in benchmarks {
        for &stage in stages {
            if !pairs.contains(&(bench, stage)) {
                pairs.push((bench, stage));
            }
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The engine over a generated benchmark × stage subset (one
    /// benchmark listed twice) returns one entry per distinct pair, in
    /// pair order, each bit-identical to the nested unit loop — at 1, 2,
    /// 4 and 8 workers, with the cache disabled, cold and warm.
    #[test]
    fn engine_matches_nested_unit_loop(
        bench_picks in prop::collection::vec(0..BENCHES.len(), 1..3),
        stage_picks in prop::collection::vec(0..StageKind::ALL.len(), 1..3),
    ) {
        let cfg = HarnessConfig::quick();
        let mut benchmarks: Vec<Benchmark> = bench_picks.iter().map(|&i| BENCHES[i]).collect();
        benchmarks.push(benchmarks[0]);
        let stages: Vec<StageKind> = stage_picks.iter().map(|&i| StageKind::ALL[i]).collect();
        let pairs = distinct_pairs(&benchmarks, &stages);
        let reference: Vec<BenchmarkData> = pairs
            .iter()
            .map(|&(bench, stage)| nested_unit_loop(bench, stage, &cfg))
            .collect();
        for workers in [1usize, 2, 4, 8] {
            let dir = tmp_cache(&format!("engine-{workers}w"));
            let cache = CharCache::at_dir(&dir);
            for (mode, cache) in [("disabled", &CharCache::disabled()), ("cold", &cache), ("warm", &cache)] {
                let got = characterize_pairs(&benchmarks, &stages, &cfg, cache, ThreadPool::new(workers))
                    .expect("engine");
                let got_pairs: Vec<(Benchmark, StageKind)> =
                    got.iter().map(|d| (d.benchmark, d.stage)).collect();
                prop_assert_eq!(&got_pairs, &pairs, "pair order, {} cache, {} workers", mode, workers);
                for (g, r) in got.iter().zip(&reference) {
                    assert_bit_identical(g, r);
                }
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.misses, pairs.len() as u64, "cold misses once per pair");
            prop_assert_eq!(stats.hits, pairs.len() as u64, "warm hits once per pair");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Cache round-trip: fresh characterization, cold (store) pass and
    /// warm (load) pass are all bit-identical, for every stage.
    #[test]
    fn cached_equals_fresh_bit_for_bit(bench_idx in 0..BENCHES.len()) {
        let bench = BENCHES[bench_idx];
        let cfg = HarnessConfig::quick();
        let dir = tmp_cache(&format!("roundtrip-{bench}"));
        let cache = CharCache::at_dir(&dir);
        for stage in StageKind::ALL {
            let fresh = characterize(bench, stage, &cfg).expect("fresh");
            let cold = characterize_cached(bench, stage, &cfg, &cache, ThreadPool::new(2))
                .expect("cold");
            let warm = characterize_cached(bench, stage, &cfg, &cache, ThreadPool::new(2))
                .expect("warm");
            assert_bit_identical(&fresh, &cold);
            assert_bit_identical(&fresh, &warm);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The parallel corpus build is bit-identical to the sequential one
    /// at any worker count, cache off (pure fan-out determinism).
    #[test]
    fn parallel_corpus_equals_sequential(bench_idx in 0..BENCHES.len()) {
        let bench = BENCHES[bench_idx];
        let benchmarks = [bench];
        let cache = CharCache::disabled();
        let reference = Corpus::build_subset_with(
            Effort::Quick, &benchmarks, &StageKind::ALL, &cache, ThreadPool::sequential(),
        )
        .expect("sequential corpus");
        for workers in [2usize, 8] {
            let pooled = Corpus::build_subset_with(
                Effort::Quick, &benchmarks, &StageKind::ALL, &cache, ThreadPool::new(workers),
            )
            .expect("pooled corpus");
            prop_assert_eq!(pooled.iter().count(), reference.iter().count());
            for ((ka, da), (kb, db)) in reference.iter().zip(pooled.iter()) {
                prop_assert_eq!(ka, kb, "corpus key order drifted at {} workers", workers);
                assert_bit_identical(da, db);
            }
        }
    }

    /// Any byte-level damage to a cache entry reads as a miss: the
    /// characterization recomputes bit-identically instead of erroring.
    #[test]
    fn damaged_cache_entries_recompute(cut in 1..64usize) {
        let cfg = HarnessConfig::quick();
        let dir = tmp_cache(&format!("damage-{cut}"));
        let cache = CharCache::at_dir(&dir);
        let pool = ThreadPool::sequential();
        let cold = characterize_cached(Benchmark::Radix, StageKind::Decode, &cfg, &cache, pool)
            .expect("cold");
        let entry = std::fs::read_dir(&dir)
            .expect("cache dir")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "json"))
            .expect("one entry");
        let full = std::fs::read(&entry).expect("entry bytes");
        // Truncate at a generated fraction of the file.
        let keep = full.len() * cut / 64;
        std::fs::write(&entry, &full[..keep]).expect("truncate");
        let truncated =
            characterize_cached(Benchmark::Radix, StageKind::Decode, &cfg, &cache, pool)
                .expect("truncated entry must recompute");
        assert_bit_identical(&cold, &truncated);
        // Flip a byte in the middle of the (rewritten) entry.
        let mut bytes = std::fs::read(&entry).expect("entry bytes");
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1 + (cut as u8 % 7));
        std::fs::write(&entry, &bytes).expect("corrupt");
        let corrupted =
            characterize_cached(Benchmark::Radix, StageKind::Decode, &cfg, &cache, pool)
                .expect("corrupted entry must recompute");
        assert_bit_identical(&cold, &corrupted);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The streaming batch entry point reproduces `delay_trace_sampled`
/// exactly — including when one output buffer is recycled across stages
/// and sample caps.
#[test]
fn delay_trace_into_matches_sampled_with_reused_buffer() {
    use synts::timing::StageCharacterizer;
    let cfg = HarnessConfig::quick();
    let trace = Benchmark::Radix.run(&cfg.workload);
    let mut buf = Vec::new();
    for stage in [StageKind::Decode, StageKind::SimpleAlu] {
        let charac = StageCharacterizer::new(stage, cfg.workload.width).expect("builds");
        for max_samples in [7usize, 50, 400, usize::MAX] {
            for work in trace.intervals[0].iter() {
                let reference = charac
                    .delay_trace_sampled(&work.events, max_samples)
                    .expect("trace");
                charac
                    .delay_trace_into(&work.events, max_samples, &mut buf)
                    .expect("batched");
                let a: Vec<u64> = reference.delays().iter().map(|d| d.to_bits()).collect();
                let b: Vec<u64> = buf.iter().map(|d| d.to_bits()).collect();
                assert_eq!(a, b, "{stage:?} max_samples={max_samples}");
            }
        }
    }
}

/// The Monte Carlo guard-band fan-out is a max-reduction: bit-identical
/// at any worker count.
#[test]
fn guard_band_is_worker_count_invariant() {
    use synts::gatelib::variation::{guard_band_with_workers, VariationModel};
    use synts::gatelib::Voltage;
    let stage = synts::circuits::build_stage(StageKind::SimpleAlu, 8).expect("stage");
    let netlist = stage.netlist();
    let model = VariationModel::ptm22_typical();
    let reference =
        guard_band_with_workers(netlist, Voltage::NOMINAL, &model, 24, 7, 1).expect("sequential");
    for workers in [2usize, 3, 8, 64] {
        let pooled = guard_band_with_workers(netlist, Voltage::NOMINAL, &model, 24, 7, workers)
            .expect("pooled");
        assert_eq!(
            reference.to_bits(),
            pooled.to_bits(),
            "guard band drifted at {workers} workers"
        );
    }
}

/// Two concurrent multi-pair calls on one cold cache, listing the same
/// pairs in opposite orders, both finish (admissions are taken in one
/// global order, so neither can hold a key the other waits on while
/// waiting on one it holds), every pair is characterized exactly once,
/// and the later caller reads the earlier one's entries as hits.
#[test]
fn concurrent_overlapping_calls_characterize_each_pair_once() {
    const BENCHMARKS: [Benchmark; 2] = [Benchmark::Radix, Benchmark::Fmm];
    const STAGES: [StageKind; 2] = [StageKind::Decode, StageKind::SimpleAlu];
    let dir = tmp_cache("overlap");
    let cache = CharCache::at_dir(&dir);
    let barrier = Arc::new(Barrier::new(2));
    let (done_tx, done_rx) = mpsc::channel();
    let mut callers = Vec::new();
    for reversed in [false, true] {
        let (cache, barrier, done_tx) = (cache.clone(), Arc::clone(&barrier), done_tx.clone());
        callers.push(std::thread::spawn(move || {
            let (mut benchmarks, mut stages) = (BENCHMARKS.to_vec(), STAGES.to_vec());
            if reversed {
                benchmarks.reverse();
                stages.reverse();
            }
            barrier.wait();
            let data = characterize_pairs(
                &benchmarks,
                &stages,
                &HarnessConfig::quick(),
                &cache,
                ThreadPool::new(2),
            )
            .expect("engine");
            done_tx.send(data).expect("collector alive");
        }));
    }
    drop(done_tx);
    // A deadlock shows as a timeout here rather than a hung test binary.
    let results: Vec<Vec<BenchmarkData>> = (0..2)
        .map(|_| {
            done_rx
                .recv_timeout(Duration::from_secs(300))
                .expect("both overlapping calls finish")
        })
        .collect();
    for caller in callers {
        caller.join().expect("caller");
    }
    let pairs = BENCHMARKS.len() * STAGES.len();
    let stats = cache.stats();
    assert_eq!(stats.misses, pairs as u64, "each pair once: {stats:?}");
    assert_eq!(stats.hits, pairs as u64, "the later caller hits: {stats:?}");
    for data in &results[0] {
        let twin = results[1]
            .iter()
            .find(|d| (d.benchmark, d.stage) == (data.benchmark, data.stage))
            .expect("both calls list every pair");
        assert_bit_identical(data, twin);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm call is all hits: nothing is recomputed or rewritten.
#[test]
fn warm_call_counts_only_hits() {
    let cfg = HarnessConfig::quick();
    let dir = tmp_cache("warm-only");
    let cache = CharCache::at_dir(&dir);
    let benchmarks = [Benchmark::Fmm, Benchmark::Radix];
    let stages = [StageKind::ComplexAlu, StageKind::Decode];
    let cold =
        characterize_pairs(&benchmarks, &stages, &cfg, &cache, ThreadPool::new(2)).expect("cold");
    let before = cache.stats();
    let warm =
        characterize_pairs(&benchmarks, &stages, &cfg, &cache, ThreadPool::new(2)).expect("warm");
    let delta = cache.stats().since(before);
    assert_eq!(delta.hits, cold.len() as u64, "{delta:?}");
    assert_eq!(delta.lookups(), delta.hits, "only hits: {delta:?}");
    assert_eq!(delta.write_errors, 0, "{delta:?}");
    for (c, w) in cold.iter().zip(&warm) {
        assert_bit_identical(c, w);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
