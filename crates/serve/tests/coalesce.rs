//! Shared characterization tier: request coalescing and the remote
//! read-through path.
//!
//! Every assertion reads the counters of the cache under test
//! ([`CharCache::stats`]), so the tests run concurrently.

use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex, PoisonError};
use std::time::Duration;

use circuits::StageKind;
use synts_core::cache::{characterize_cached, CharCache, RemoteCacheTier, RemoteFetch};
use synts_core::experiments::HarnessConfig;
use synts_core::scenario::Json;
use synts_core::{FaultPlan, ThreadPool};
use synts_serve::{Service, ServiceConfig, Shutdown};
use workloads::Benchmark;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synts-coalesce-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An in-memory stand-in for the coordinator's cache endpoints: entries
/// live in a map, every probe is counted, and `fetch` can be slowed to
/// hold the coalescing window open deterministically.
#[derive(Debug, Default)]
struct MapTier {
    entries: Mutex<std::collections::BTreeMap<String, String>>,
    fetches: Mutex<u64>,
    publishes: Mutex<u64>,
    fetch_delay: Option<Duration>,
}

impl MapTier {
    fn fetches(&self) -> u64 {
        *self.fetches.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn publishes(&self) -> u64 {
        *self
            .publishes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl RemoteCacheTier for MapTier {
    fn fetch(&self, name: &str) -> RemoteFetch {
        *self.fetches.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        if let Some(delay) = self.fetch_delay {
            std::thread::sleep(delay);
        }
        match self
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            Some(text) => RemoteFetch::Hit(text.clone()),
            None => RemoteFetch::Compute,
        }
    }

    fn publish(&self, name: &str, entry: &str) -> bool {
        *self
            .publishes
            .lock()
            .unwrap_or_else(PoisonError::into_inner) += 1;
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), entry.to_string());
        true
    }
}

/// N threads cold-miss the same key at once: exactly ONE
/// characterization runs (one miss), every other thread coalesces onto
/// it and then reads the stored entry as a hit.
#[test]
fn concurrent_cold_misses_coalesce_to_one_characterization() {
    const THREADS: usize = 4;
    let dir = tmp_dir("herd");
    // The slow remote probe runs inside the leader's admission, holding
    // the in-flight window open long enough that the barrier-released
    // followers reliably coalesce instead of racing past it.
    let tier = Arc::new(MapTier {
        fetch_delay: Some(Duration::from_millis(300)),
        ..MapTier::default()
    });
    let cache = CharCache::at_dir(&dir).with_remote(Some(tier.clone() as Arc<dyn RemoteCacheTier>));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let cache = cache.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let cfg = HarnessConfig::quick();
                barrier.wait();
                characterize_cached(
                    Benchmark::Fmm,
                    StageKind::Decode,
                    &cfg,
                    &cache,
                    ThreadPool::sequential(),
                )
                .expect("characterization")
            })
        })
        .collect();
    for h in handles {
        h.join().expect("thread");
    }
    let delta = cache.stats();
    assert_eq!(
        delta.misses, 1,
        "exactly one characterization may run: {delta:?}"
    );
    assert_eq!(
        delta.hits,
        (THREADS - 1) as u64,
        "every follower reads the leader's entry: {delta:?}"
    );
    assert!(
        delta.coalesced >= (THREADS - 1) as u64,
        "followers must have waited on the in-flight leader: {delta:?}"
    );
    assert_eq!(tier.fetches(), 1, "only the leader consults the tier");
    assert_eq!(tier.publishes(), 1, "the leader publishes its result");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The read-through path: a second node (cold local dir, same tier)
/// resolves the key remotely — counted as a remote hit, not a miss —
/// and the fetched entry is written locally so the next probe is a
/// plain local hit.
#[test]
fn remote_tier_turns_cold_local_misses_into_remote_hits() {
    let tier = Arc::new(MapTier::default());
    let cfg = HarnessConfig::quick();

    // Node A characterizes and publishes.
    let dir_a = tmp_dir("node-a");
    let cache_a =
        CharCache::at_dir(&dir_a).with_remote(Some(tier.clone() as Arc<dyn RemoteCacheTier>));
    let data_a = characterize_cached(
        Benchmark::Radix,
        StageKind::Decode,
        &cfg,
        &cache_a,
        ThreadPool::sequential(),
    )
    .expect("node A characterizes");
    let delta = cache_a.stats();
    assert_eq!(delta.misses, 1);
    assert_eq!(tier.publishes(), 1, "A must publish to the shared tier");

    // Node B, cold local dir: remote hit, zero characterizations.
    let dir_b = tmp_dir("node-b");
    let cache_b =
        CharCache::at_dir(&dir_b).with_remote(Some(tier.clone() as Arc<dyn RemoteCacheTier>));
    let data_b = characterize_cached(
        Benchmark::Radix,
        StageKind::Decode,
        &cfg,
        &cache_b,
        ThreadPool::sequential(),
    )
    .expect("node B reads through");
    let delta = cache_b.stats();
    assert_eq!(delta.remote_hits, 1, "B resolves remotely: {delta:?}");
    assert_eq!(delta.misses, 0, "B must not recompute: {delta:?}");
    assert_eq!(
        data_a.tnom_v1.to_bits(),
        data_b.tnom_v1.to_bits(),
        "both nodes see identical data"
    );

    // B's local copy landed: the next probe never leaves the node.
    let fetches_before = tier.fetches();
    let before = cache_b.stats();
    characterize_cached(
        Benchmark::Radix,
        StageKind::Decode,
        &cfg,
        &cache_b,
        ThreadPool::sequential(),
    )
    .expect("node B warm");
    let delta = cache_b.stats().since(before);
    assert_eq!(delta.hits, 1, "warm probe is a local hit: {delta:?}");
    assert_eq!(tier.fetches(), fetches_before, "no remote round trip");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// `cache.remote` faults sever the tier deterministically: the lookup
/// degrades to a local recompute (correct data, no remote counters) and
/// the publish is dropped.
#[test]
fn remote_faults_degrade_to_local_computation() {
    let tier = Arc::new(MapTier::default());
    // Seed the tier via an unfaulted node so a hit WOULD be available.
    let cfg = HarnessConfig::quick();
    let dir_seed = tmp_dir("fault-seed");
    let cache_seed =
        CharCache::at_dir(&dir_seed).with_remote(Some(tier.clone() as Arc<dyn RemoteCacheTier>));
    characterize_cached(
        Benchmark::Fft,
        StageKind::Decode,
        &cfg,
        &cache_seed,
        ThreadPool::sequential(),
    )
    .expect("seed characterization");
    assert_eq!(tier.publishes(), 1);

    // A fully severed node: every remote consult is faulted away.
    let plan = Arc::new(FaultPlan::parse("seed=3;cache.remote=1/1").expect("plan"));
    let dir_cut = tmp_dir("fault-cut");
    let cache_cut = CharCache::at_dir(&dir_cut)
        .with_faults(Some(Arc::clone(&plan)))
        .with_remote(Some(tier.clone() as Arc<dyn RemoteCacheTier>));
    let fetches_before = tier.fetches();
    characterize_cached(
        Benchmark::Fft,
        StageKind::Decode,
        &cfg,
        &cache_cut,
        ThreadPool::sequential(),
    )
    .expect("severed node still computes");
    let delta = cache_cut.stats();
    assert_eq!(delta.misses, 1, "severed node recomputes: {delta:?}");
    assert_eq!(delta.remote_hits, 0, "no remote traffic: {delta:?}");
    assert_eq!(
        tier.fetches(),
        fetches_before,
        "fetch never reached the tier"
    );
    assert_eq!(tier.publishes(), 1, "publish was dropped too");
    assert!(
        plan.fired_counts()
            .get("cache.remote")
            .copied()
            .unwrap_or(0)
            >= 2,
        "both the fetch and the publish consults must have fired"
    );
    let _ = std::fs::remove_dir_all(&dir_seed);
    let _ = std::fs::remove_dir_all(&dir_cut);
}

/// Concurrent `PUT /v1/cache/*` handlers publishing one entry name all
/// succeed, and the file left behind is one writer's entry, whole.
#[test]
fn concurrent_same_name_publishes_all_land_whole() {
    const WRITERS: usize = 8;
    let dir = tmp_dir("publish");
    let service = Service::start(ServiceConfig {
        workers: 1,
        cache: CharCache::at_dir(&dir),
        ..ServiceConfig::default()
    });
    let name = "00000000deadbeef.json";
    // Entries big enough that the writes overlap in time.
    let entries: Vec<String> = (0..WRITERS)
        .map(|w| {
            Json::obj()
                .field("writer", Json::num(w as f64))
                .field(
                    "data",
                    Json::Arr((0..20_000).map(|i| Json::num((i * w) as f64)).collect()),
                )
                .render_pretty()
        })
        .collect();
    let barrier = Barrier::new(WRITERS);
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = entries
            .iter()
            .map(|entry| {
                let (service, barrier) = (&service, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    service.cache_publish(name, entry)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect()
    });
    service.shutdown(Shutdown::Now);
    for result in &results {
        assert_eq!(result, &Ok(()), "every publish must land");
    }
    let landed = std::fs::read_to_string(dir.join(name)).expect("entry present");
    assert!(Json::parse(&landed).is_ok(), "the landed entry parses");
    assert!(
        entries.contains(&landed),
        "the landed entry is one writer's, byte for byte"
    );
    let strays: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .map(|e| e.file_name())
        .filter(|n| n != name)
        .collect();
    assert!(strays.is_empty(), "no temp files left behind: {strays:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
