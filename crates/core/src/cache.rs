//! Persistent, content-addressed characterization cache — and the one
//! characterization engine that runs through it.
//!
//! Gate-level characterization (Fig 5.8's trace → delay-trace →
//! error-curve pipeline) dominates the wall-clock of every end-to-end run,
//! yet its output is a pure function of the workload trace, the stage, the
//! harness knobs and the cell library. This module memoizes that function
//! on disk so the cost is paid **once per machine**, not once per process:
//!
//! * entries are *content-addressed*: the file name is a stable 64-bit
//!   FNV-1a hash of the full characterization key — workload-trace
//!   fingerprint, stage kind and datapath width, every [`HarnessConfig`]
//!   knob, and a fingerprint of the cell library's delays/energies — so a
//!   change to any input simply misses and recomputes;
//! * payloads are serialized through the deterministic
//!   [`crate::scenario::Json`] tree (shortest-round-trip floats), so a
//!   cached [`BenchmarkData`] is **bit-identical** to a freshly computed
//!   one — golden fixtures cannot tell the difference;
//! * the store is crash- and corruption-safe: writes go through
//!   [`write_entry_file`]'s uniquely named temp file + rename, and any
//!   unreadable, truncated, version- or key-mismatched entry falls back to
//!   recomputation (never an error);
//! * hits and misses are counted per cache ([`CharCache::stats`], shared
//!   by its clones) and process-wide ([`CacheStats::snapshot`]), so a
//!   service reports its own cache and CLIs can surface the total.
//!
//! [`characterize_pairs`] is the only path from a (benchmark, stage) pair
//! to its [`BenchmarkData`]; every other entry point is a call to it.
//!
//! The store lives at [`CACHE_DIR_ENV`] (`SYNTS_CACHE_DIR`), defaulting
//! to `target/synts-cache/`. Disable it with [`CharCache::disabled`] (the
//! `synts-cli --no-cache` flag).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use circuits::StageKind;
use workloads::{Benchmark, ThreadWork, WorkloadTrace};

use crate::error::OptError;
use crate::experiments::{
    characterize_thread, BenchmarkData, HarnessConfig, IntervalData, ThreadData,
};
use crate::faults::{site, FaultPlan};
use crate::parallel::ThreadPool;
use crate::phase::{time_phase, Phase};
use crate::scenario::Json;
use timing::{ErrorCurve, StageCharacterizer, TimingError};

/// Environment variable naming the on-disk cache directory.
pub const CACHE_DIR_ENV: &str = "SYNTS_CACHE_DIR";

/// Default cache directory, relative to the working directory.
pub const CACHE_DIR_DEFAULT: &str = "target/synts-cache";

/// Bump when the entry format or the characterization pipeline changes
/// in a result-affecting way: old entries then miss instead of lying.
const CACHE_FORMAT_VERSION: f64 = 1.0;

/// One set of cache counters. Every [`CharCache`] owns one (shared by
/// its clones); [`PROCESS`] sums them all.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    write_errors: AtomicU64,
    remote_hits: AtomicU64,
    coalesced: AtomicU64,
}

static PROCESS: Counters = Counters {
    hits: AtomicU64::new(0),
    misses: AtomicU64::new(0),
    write_errors: AtomicU64::new(0),
    remote_hits: AtomicU64::new(0),
    coalesced: AtomicU64::new(0),
};

impl Counters {
    /// Counts one event on this cache's counters and the process total.
    fn bump(&self, field: impl Fn(&Counters) -> &AtomicU64) {
        field(self).fetch_add(1, Ordering::Relaxed);
        field(&PROCESS).fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            remote_hits: self.remote_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }
}

/// Cache hit/miss counters (monotonic snapshots), per cache
/// ([`CharCache::stats`]) or process-wide ([`CacheStats::snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Characterizations served from local disk.
    pub hits: u64,
    /// Characterizations recomputed (and stored).
    pub misses: u64,
    /// Store attempts that failed to land (mkdir/write/rename errors,
    /// including injected ones). The run is unaffected — the entry just
    /// stays cold — but silent drops would mask a broken cache volume.
    pub write_errors: u64,
    /// Characterizations served by the remote tier after a local miss
    /// (the entry is then replicated locally).
    pub remote_hits: u64,
    /// Lookups that blocked on another thread's in-flight
    /// characterization of the same key instead of recomputing.
    pub coalesced: u64,
}

impl CacheStats {
    /// The process-wide totals over every cache, as of now.
    #[must_use]
    pub fn snapshot() -> CacheStats {
        PROCESS.snapshot()
    }

    /// Hits (local + remote) + misses.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.remote_hits + self.misses
    }

    /// The counters accumulated since an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            write_errors: self.write_errors.saturating_sub(earlier.write_errors),
            remote_hits: self.remote_hits.saturating_sub(earlier.remote_hits),
            coalesced: self.coalesced.saturating_sub(earlier.coalesced),
        }
    }
}

/// Outcome of probing a remote characterization tier.
#[derive(Debug)]
pub enum RemoteFetch {
    /// The tier holds the entry: the full entry text (`{"key":…,"data":…}`,
    /// same format as the on-disk file). It is verified against the local
    /// key before use, so a lying tier degrades to a miss.
    Hit(String),
    /// The tier does not hold the entry (or is down, or told this caller
    /// it holds the characterization claim): compute locally.
    Compute,
}

/// A shared characterization tier behind the local directory — in the
/// fleet, the coordinator's `GET/PUT /v1/cache/<name>` endpoints. Entries
/// are immutable and content-addressed by file name, so replication is
/// trivially coherent: any byte-for-byte copy is as good as the original.
///
/// Implementations must be cheap to call on the miss path and must never
/// panic; a flaky tier should return [`RemoteFetch::Compute`] / `false`
/// rather than block indefinitely.
pub trait RemoteCacheTier: Send + Sync + std::fmt::Debug {
    /// Looks up an entry by file name (`<hash>.json`).
    fn fetch(&self, name: &str) -> RemoteFetch;
    /// Publishes a freshly computed entry. Returns `false` when the
    /// publish was dropped (counted as a write error; the run proceeds).
    fn publish(&self, name: &str, entry: &str) -> bool;
}

/// Configuration of the on-disk characterization cache.
#[derive(Debug, Clone)]
pub struct CharCache {
    enabled: bool,
    dir: PathBuf,
    faults: Option<Arc<FaultPlan>>,
    remote: Option<Arc<dyn RemoteCacheTier>>,
    /// This cache's own counters, shared by its clones.
    counters: Arc<Counters>,
}

impl PartialEq for CharCache {
    fn eq(&self, other: &Self) -> bool {
        // The remote tier compares by identity: two caches pointing at
        // the same tier instance are the same cache; tiers have no
        // value semantics of their own. Counters are observations, not
        // configuration, and take no part.
        self.enabled == other.enabled
            && self.dir == other.dir
            && self.faults == other.faults
            && match (&self.remote, &other.remote) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl Eq for CharCache {}

impl CharCache {
    /// The environment-resolved cache: enabled, rooted at
    /// [`CACHE_DIR_ENV`] or [`CACHE_DIR_DEFAULT`].
    #[must_use]
    pub fn from_env() -> CharCache {
        // synts-lint: allow(env-read) — SYNTS_CACHE_DIR only moves where cache files live, never what they contain
        let dir = std::env::var(CACHE_DIR_ENV)
            .ok()
            .filter(|s| !s.trim().is_empty())
            .map_or_else(|| PathBuf::from(CACHE_DIR_DEFAULT), PathBuf::from);
        CharCache::at_dir(dir)
    }

    /// An enabled cache rooted at an explicit directory.
    #[must_use]
    pub fn at_dir(dir: impl Into<PathBuf>) -> CharCache {
        CharCache {
            enabled: true,
            dir: dir.into(),
            faults: None,
            remote: None,
            counters: Arc::default(),
        }
    }

    /// A cache that never reads or writes disk — every characterization
    /// recomputes (and the hit/miss counters are untouched).
    #[must_use]
    pub fn disabled() -> CharCache {
        CharCache {
            enabled: false,
            ..CharCache::at_dir(PathBuf::new())
        }
    }

    /// This cache's counters: every lookup, store and coalesced wait made
    /// through it or any of its clones, and nothing else.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// Whether lookups touch disk at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arms (or disarms, with `None`) deterministic fault injection on
    /// this cache's read/write/rename paths. The plan is shared, so fired
    /// counts aggregate across clones handed to worker threads.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> CharCache {
        self.faults = faults;
        self
    }

    /// The armed fault plan, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Attaches (or detaches, with `None`) a remote tier consulted after
    /// a local miss and published to after a local store. The local
    /// directory stays authoritative for this process; the tier only
    /// spares recomputation across machines.
    #[must_use]
    pub fn with_remote(mut self, remote: Option<Arc<dyn RemoteCacheTier>>) -> CharCache {
        self.remote = remote;
        self
    }

    /// The attached remote tier, if any.
    #[must_use]
    pub fn remote(&self) -> Option<&Arc<dyn RemoteCacheTier>> {
        self.remote.as_ref()
    }

    fn entry_path(&self, key_hash: u64) -> PathBuf {
        self.dir.join(format!("{key_hash:016x}.json"))
    }

    /// Resolves the cache slot for one characterization — the key and
    /// on-disk path are fixed here; [`CacheEntry::load`] and
    /// [`CacheEntry::store`] then move data through it. This is the
    /// split-phase form [`characterize_pairs`] probes every pair with
    /// before it computes the misses.
    #[must_use]
    pub fn entry(
        &self,
        trace: &WorkloadTrace,
        stage: StageKind,
        cfg: &HarnessConfig,
        netlist: &gatelib::Netlist,
    ) -> CacheEntry {
        if !self.enabled {
            return CacheEntry {
                slot: None,
                faults: None,
                remote: None,
                counters: Arc::clone(&self.counters),
            };
        }
        // Key construction hashes the full trace; charge it to the
        // lookup phase so the breakdown shows the probe's true cost.
        time_phase(Phase::CacheLookup, || {
            let key = cache_key(trace, stage, cfg, netlist);
            let mut h = Fnv::new();
            h.write_str(&key.render());
            CacheEntry {
                slot: Some((self.entry_path(h.finish()), key)),
                faults: self.faults.clone(),
                remote: self.remote.clone(),
                counters: Arc::clone(&self.counters),
            }
        })
    }
}

/// One resolved characterization-cache slot (see [`CharCache::entry`]).
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// `(path, full key)`; `None` for a disabled cache, which never
    /// touches disk or the hit/miss counters.
    slot: Option<(PathBuf, Json)>,
    /// Fault plan inherited from the owning [`CharCache`].
    faults: Option<Arc<FaultPlan>>,
    /// Remote tier inherited from the owning [`CharCache`].
    remote: Option<Arc<dyn RemoteCacheTier>>,
    /// Counters of the owning [`CharCache`].
    counters: Arc<Counters>,
}

impl CacheEntry {
    /// The entry's identity token (its file name) — the coalescing and
    /// remote-tier key. `None` for a disabled cache.
    #[must_use]
    pub fn token(&self) -> Option<String> {
        self.slot.as_ref().map(|(path, _)| entry_token(path))
    }

    /// Probes the slot: a verified local entry counts a hit; on a local
    /// miss the remote tier (if any) is consulted, and a verified remote
    /// entry counts a `remote_hit` and is replicated into the local
    /// directory. Anything else (absent, corrupt, key-mismatched, or a
    /// disabled cache) is a miss. The disabled cache skips the counters.
    #[must_use]
    pub fn load(&self) -> Option<BenchmarkData> {
        let (path, key) = self.slot.as_ref()?;
        let token = entry_token(path);
        if let Some(plan) = &self.faults {
            // An injected read fault turns this probe into a miss — the
            // exact behaviour of a corrupt or torn entry on disk.
            if plan.should(site::CACHE_READ, &token) {
                self.counters.bump(|c| &c.misses);
                return None;
            }
        }
        if let Some(data) = time_phase(Phase::CacheLookup, || load_entry(path, key)) {
            self.counters.bump(|c| &c.hits);
            return Some(data);
        }
        if let Some(remote) = &self.remote {
            // An injected cache.remote fault models an unreachable tier:
            // the lookup degrades to an ordinary local miss.
            let blocked = self
                .faults
                .as_ref()
                .is_some_and(|plan| plan.should(site::CACHE_REMOTE, &token));
            if !blocked {
                if let RemoteFetch::Hit(text) = remote.fetch(&token) {
                    if let Some(data) = time_phase(Phase::CacheLookup, || parse_entry(&text, key)) {
                        self.counters.bump(|c| &c.remote_hits);
                        // Replicate locally (best-effort) so the next
                        // probe on this machine is a plain local hit.
                        if write_entry_file(path, &text, || true).is_err() {
                            self.counters.bump(|c| &c.write_errors);
                        }
                        return Some(data);
                    }
                }
            }
        }
        self.counters.bump(|c| &c.misses);
        None
    }

    /// Persists freshly computed data into the slot (best-effort, like
    /// every cache write: I/O failure only costs a future recompute) and
    /// publishes it to the remote tier, if one is attached.
    pub fn store(&self, data: &BenchmarkData) {
        if let Some((path, key)) = &self.slot {
            time_phase(Phase::CacheStore, || {
                let text = Json::obj()
                    .field("key", key.clone())
                    .field("data", benchmark_data_to_json(data))
                    .render_pretty();
                store_entry(path, &text, self.faults.as_deref(), &self.counters);
                if let Some(remote) = &self.remote {
                    let token = entry_token(path);
                    let blocked = self
                        .faults
                        .as_ref()
                        .is_some_and(|plan| plan.should(site::CACHE_REMOTE, &token));
                    if !blocked && !remote.publish(&token, &text) {
                        self.counters.bump(|c| &c.write_errors);
                    }
                }
            });
        }
    }
}

impl Default for CharCache {
    fn default() -> CharCache {
        CharCache::from_env()
    }
}

/// 64-bit FNV-1a — tiny, stable across platforms and Rust versions
/// (unlike `DefaultHasher`), and collisions are additionally guarded by
/// storing and comparing the full key in every entry.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for b in s.as_bytes() {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of everything the characterized circuit contributes: the
/// full netlist structure (cell kinds, connectivity, primary I/O order)
/// plus per-cell nominal delays and switch energies. A cell-library
/// retune *or* a stage rewiring changes this and invalidates exactly
/// the affected entries.
fn library_fingerprint(netlist: &gatelib::Netlist) -> u64 {
    let mut h = Fnv::new();
    h.write_str(gatelib::CELL_LIBRARY_NAME);
    h.write_u64(netlist.cell_count() as u64);
    h.write_u64(netlist.net_count() as u64);
    h.write_u64(netlist.primary_inputs().len() as u64);
    for pi in netlist.primary_inputs() {
        h.write_u64(pi.index() as u64);
    }
    h.write_u64(netlist.primary_outputs().len() as u64);
    for po in netlist.primary_outputs() {
        h.write_u64(po.index() as u64);
    }
    for (cell, &delay) in netlist.cells().iter().zip(netlist.cell_delays_v1()) {
        h.write_u64(cell.kind() as u64);
        h.write_u64(cell.inputs().len() as u64);
        for n in cell.inputs() {
            h.write_u64(n.index() as u64);
        }
        h.write_u64(cell.output().index() as u64);
        h.write_f64(delay);
        h.write_f64(cell.kind().params().switch_energy);
    }
    h.finish()
}

/// Fingerprint of the full workload trace: every event, memory
/// reference and branch count of every thread in every interval.
fn trace_fingerprint(trace: &WorkloadTrace) -> u64 {
    let mut h = Fnv::new();
    h.write_str(trace.benchmark.name());
    h.write_u64(trace.intervals.len() as u64);
    for interval in &trace.intervals {
        h.write_u64(interval.threads() as u64);
        for work in interval {
            h.write_u64(work.events.len() as u64);
            for ev in &work.events {
                h.write_u64(ev.op.index() as u64);
                h.write_u64(ev.a);
                h.write_u64(ev.b);
            }
            h.write_u64(work.mem_refs.len() as u64);
            for m in &work.mem_refs {
                h.write_u64(m.addr);
                h.write_u64(u64::from(m.is_store));
            }
            h.write_u64(work.branches);
        }
    }
    h.finish()
}

/// The full characterization key as a JSON object — stored inside every
/// entry and compared verbatim on load, so a 64-bit hash collision can
/// never alias two different characterizations.
fn cache_key(
    trace: &WorkloadTrace,
    stage: StageKind,
    cfg: &HarnessConfig,
    netlist: &gatelib::Netlist,
) -> Json {
    let w = &cfg.workload;
    let cpi = &cfg.cpi_model;
    Json::obj()
        .field("version", Json::num(CACHE_FORMAT_VERSION))
        .field("benchmark", Json::str(trace.benchmark.name()))
        .field("stage", Json::str(stage.name()))
        .field(
            "workload",
            Json::obj()
                .field("threads", Json::num(w.threads as f64))
                .field("scale", Json::num(w.scale as f64))
                .field("intervals", Json::num(w.intervals as f64))
                .field("width", Json::num(w.width as f64))
                .field("seed", Json::num(w.seed as f64)),
        )
        .field("max_samples", Json::num(cfg.max_samples as f64))
        .field(
            "cpi",
            Json::obj()
                .field("sets", Json::num(cpi.cache.sets as f64))
                .field("ways", Json::num(cpi.cache.ways as f64))
                .field("line_bytes", Json::num(cpi.cache.line_bytes as f64))
                .field("miss_penalty", Json::num(cpi.cache.miss_penalty as f64))
                .field("mul_extra", Json::num(cpi.mul_extra as f64))
                .field("taken_rate", Json::num(cpi.taken_rate))
                .field("redirect_penalty", Json::num(cpi.redirect_penalty as f64)),
        )
        .field(
            "library",
            Json::str(format!("{:016x}", library_fingerprint(netlist))),
        )
        .field(
            "trace",
            Json::str(format!("{:016x}", trace_fingerprint(trace))),
        )
}

/// Serializes a [`BenchmarkData`] to the cache payload tree.
///
/// Error curves are *not* stored: they are rebuilt from the normalized
/// delays on load ([`ErrorCurve::from_normalized_delays`] sorts the same
/// multiset [`ErrorCurve::from_trace`] sorts), which keeps the entry
/// small and the round-trip exact.
#[must_use]
pub fn benchmark_data_to_json(data: &BenchmarkData) -> Json {
    Json::obj()
        .field("benchmark", Json::str(data.benchmark.name()))
        .field("stage", Json::str(data.stage.name()))
        .field("tnom_v1", Json::num(data.tnom_v1))
        .field(
            "intervals",
            Json::Arr(
                data.intervals
                    .iter()
                    .map(|iv| {
                        Json::obj().field(
                            "threads",
                            Json::Arr(
                                iv.threads
                                    .iter()
                                    .map(|t| {
                                        Json::obj()
                                            .field(
                                                "normalized_delays",
                                                Json::Arr(
                                                    t.normalized_delays
                                                        .iter()
                                                        .map(|&d| Json::num(d))
                                                        .collect(),
                                                ),
                                            )
                                            .field("instructions", Json::num(t.instructions))
                                            .field("cpi_base", Json::num(t.cpi_base))
                                    })
                                    .collect(),
                            ),
                        )
                    })
                    .collect(),
            ),
        )
}

/// Rebuilds a [`BenchmarkData`] from a cache payload tree.
///
/// # Errors
///
/// [`OptError::Spec`] on any structural mismatch (the caller treats this
/// as a cache miss).
pub fn benchmark_data_from_json(json: &Json) -> Result<BenchmarkData, OptError> {
    let bad = |msg: &str| OptError::Spec(format!("cache entry: {msg}"));
    let benchmark = json
        .get("benchmark")
        .and_then(Json::as_str)
        .and_then(Benchmark::from_name)
        .ok_or_else(|| bad("bad 'benchmark'"))?;
    let stage = json
        .get("stage")
        .and_then(Json::as_str)
        .and_then(StageKind::from_name)
        .ok_or_else(|| bad("bad 'stage'"))?;
    let tnom_v1 = json
        .get("tnom_v1")
        .and_then(Json::as_f64)
        .filter(|t| *t > 0.0)
        .ok_or_else(|| bad("bad 'tnom_v1'"))?;
    let intervals = json
        .get("intervals")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing 'intervals'"))?
        .iter()
        .map(|iv| {
            let threads = iv
                .get("threads")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("missing 'threads'"))?
                .iter()
                .map(|t| {
                    let normalized_delays = t
                        .get("normalized_delays")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| bad("missing 'normalized_delays'"))?
                        .iter()
                        .map(|d| {
                            d.as_f64()
                                .filter(|x| x.is_finite())
                                .ok_or_else(|| bad("non-finite delay"))
                        })
                        .collect::<Result<Vec<f64>, OptError>>()?;
                    let instructions = t
                        .get("instructions")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad("missing 'instructions'"))?;
                    let cpi_base = t
                        .get("cpi_base")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad("missing 'cpi_base'"))?;
                    // Mirror `characterize_thread`: a stage-idle thread carries an
                    // empty trace and the zero-delay activity curve.
                    let curve = if normalized_delays.is_empty() {
                        ErrorCurve::from_normalized_delays(vec![0.0])?
                    } else {
                        ErrorCurve::from_normalized_delays(normalized_delays.clone())?
                    };
                    Ok(ThreadData {
                        curve,
                        normalized_delays,
                        instructions,
                        cpi_base,
                    })
                })
                .collect::<Result<Vec<ThreadData>, OptError>>()?;
            Ok(IntervalData { threads })
        })
        .collect::<Result<Vec<IntervalData>, OptError>>()?;
    Ok(BenchmarkData {
        benchmark,
        stage,
        tnom_v1,
        intervals,
    })
}

fn load_entry(path: &Path, key: &Json) -> Option<BenchmarkData> {
    parse_entry(&std::fs::read_to_string(path).ok()?, key)
}

/// Parses and verifies one entry text (local file or remote payload).
/// Full-key comparison: version drift, hash collisions, truncated
/// rewrites and lying remote tiers all land here and read as a miss.
fn parse_entry(src: &str, key: &Json) -> Option<BenchmarkData> {
    let entry = Json::parse(src).ok()?;
    if entry.get("key")?.render() != key.render() {
        return None;
    }
    benchmark_data_from_json(entry.get("data")?).ok()
}

/// Stable identity token for one cache slot — the entry file name —
/// used both for fault-plan decisions and nothing else.
fn entry_token(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Lands `text` at `path` atomically: creates the parent directory,
/// writes a temp file whose name is unique to this process *and* call,
/// then renames it over `path`. Concurrent writers of one entry —
/// threads of one process included — never share a temp path, so a
/// reader sees the old file or a whole new one, never a mix. `publish`
/// runs between the write and the rename; when it returns `false` the
/// temp file is removed and nothing is renamed (an error).
///
/// Every cache-file write goes through here: local stores, local copies
/// of remote entries, and the fleet coordinator's `PUT /v1/cache/*`.
///
/// # Errors
///
/// The failing directory, write or rename step; or
/// [`std::io::ErrorKind::Interrupted`] when `publish` declined.
pub fn write_entry_file(
    path: &Path,
    text: &str,
    publish: impl FnOnce() -> bool,
) -> std::io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().ok_or(std::io::ErrorKind::InvalidInput)?;
    std::fs::create_dir_all(dir)?;
    let unique = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{unique}", std::process::id()));
    std::fs::write(&tmp, text)?;
    let renamed = if publish() {
        std::fs::rename(&tmp, path)
    } else {
        Err(std::io::ErrorKind::Interrupted.into())
    };
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed
}

fn store_entry(path: &Path, text: &str, faults: Option<&FaultPlan>, counters: &Counters) {
    // Best-effort: a read-only or full disk must never fail the run —
    // but every store that fails to land is counted (write_errors).
    let token = entry_token(path);
    if faults.is_some_and(|plan| plan.should(site::CACHE_WRITE, &token)) {
        counters.bump(|c| &c.write_errors);
        return;
    }
    // An injected rename fault lets the temp file be written, then
    // fails the publish step.
    let written = write_entry_file(path, text, || {
        !faults.is_some_and(|plan| plan.should(site::CACHE_RENAME, &token))
    });
    if written.is_err() {
        counters.bump(|c| &c.write_errors);
    }
}

/// The process-wide per-key in-flight table behind cache coalescing:
/// concurrent misses on the same entry block on one characterization
/// instead of N identical gate simulations. Keys are entry file names —
/// the same content-addressed identity the disk and remote tiers use.
struct Coalescer {
    inflight: std::sync::Mutex<std::collections::BTreeSet<String>>,
    cv: std::sync::Condvar,
}

static COALESCER: std::sync::OnceLock<Coalescer> = std::sync::OnceLock::new();

fn coalescer() -> &'static Coalescer {
    COALESCER.get_or_init(|| Coalescer {
        inflight: std::sync::Mutex::new(std::collections::BTreeSet::new()),
        cv: std::sync::Condvar::new(),
    })
}

/// Outcome of asking the coalescer for a key.
enum Admission {
    /// This thread owns the key until the guard drops: probe, compute
    /// on a miss, store.
    Leader(CoalesceGuard),
    /// Another thread was characterizing this key; it has now finished
    /// (successfully or not) — re-probe the cache.
    Waited,
}

/// Ownership of one in-flight key; dropping it (normally or by unwind)
/// releases the key and wakes every waiter.
struct CoalesceGuard {
    token: String,
}

impl Drop for CoalesceGuard {
    fn drop(&mut self) {
        let c = coalescer();
        let mut inflight = c
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inflight.remove(&self.token);
        c.cv.notify_all();
    }
}

fn admit(token: &str, counters: &Counters) -> Admission {
    let c = coalescer();
    let mut inflight = c
        .inflight
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if inflight.insert(token.to_string()) {
        return Admission::Leader(CoalesceGuard {
            token: token.to_string(),
        });
    }
    counters.bump(|c| &c.coalesced);
    while inflight.contains(token) {
        inflight =
            c.cv.wait(inflight)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    Admission::Waited
}

/// Takes the key, waiting out (and counting) every other holder first.
fn lead(token: &str, counters: &Counters) -> CoalesceGuard {
    loop {
        if let Admission::Leader(guard) = admit(token, counters) {
            return guard;
        }
    }
}

/// Characterizes every distinct (benchmark, stage) pair of `benchmarks`
/// × `stages` through `cache` — the one characterization engine. Returns
/// one [`BenchmarkData`] per distinct pair, benchmark-major in order of
/// first appearance (`[a, b, a] × [x, y]` yields `ax, ay, bx, by`).
///
/// The steps, each deterministic:
///
/// 1. one circuit per distinct stage, without STA;
/// 2. one workload trace per distinct benchmark;
/// 3. one cache key per pair;
/// 4. the coalescing admissions, taken in sorted-token order, so two
///    concurrent calls with overlapping pairs cannot wait on each other;
/// 5. one cache probe per pair;
/// 6. STA only for stages with a miss — a warm call runs no STA and no
///    gate simulation;
/// 7. one flat pool pass over the unit tasks of the missed pairs;
/// 8. assembly in index order, stores, then the admissions released.
///
/// Concurrent misses on one key coalesce: one caller characterizes while
/// the rest block and then read the stored entry
/// ([`CacheStats::coalesced`] counts the waits).
///
/// ## Why the task graph is fine-grained
///
/// A build that fans out at (benchmark × stage) granularity behind a
/// barrier — all workload traces first, then one coarse task per pair —
/// measured ~1× parallel speedup (`BENCH_PR5.json`). The [`PhaseStats`]
/// breakdown named two structural causes:
///
/// 1. **quantization**: 9 multi-second tasks on 4 workers run as
///    ⌈9/4⌉ = 3 sequential rounds, capping speedup at 2.6× before any
///    other loss;
/// 2. **repeated setup**: each coarse task rebuilt its stage netlist and
///    re-ran STA (9 builds for 3 distinct stages).
///
/// So stages are built once per *stage*, traces once per *benchmark*,
/// and the pool schedules the *unit* task — one (pair, interval, thread)
/// gate simulation, 108 units for a cold quick 3 × 3 corpus — on one
/// flat pass. Greedy one-at-a-time claiming ([`ThreadPool::map`]) keeps
/// every worker busy until the last unit is claimed, so the tail is one
/// unit, not one pair. Results are collected in unit order, so the
/// output is bit-identical to a sequential loop over
/// [`characterize_thread`] at any worker count, cache disabled, cold or
/// warm.
///
/// [`PhaseStats`]: crate::phase::PhaseStats
///
/// # Errors
///
/// Propagates characterization failures, the lowest-unit-index one at
/// any worker count; cache I/O failures are swallowed (they only cost a
/// recompute).
pub fn characterize_pairs(
    benchmarks: &[Benchmark],
    stages: &[StageKind],
    cfg: &HarnessConfig,
    cache: &CharCache,
    pool: ThreadPool,
) -> Result<Vec<BenchmarkData>, OptError> {
    let benchmarks = distinct(benchmarks);
    let stages = distinct(stages);
    if benchmarks.is_empty() || stages.is_empty() {
        return Ok(Vec::new());
    }
    let circuits = pool.try_map(&stages, |_, &stage| {
        time_phase(Phase::StageBuild, || {
            circuits::build_stage(stage, cfg.workload.width)
        })
        .map_err(TimingError::from)
    })?;
    let traces = pool.map(&benchmarks, |_, bench| {
        time_phase(Phase::TraceBuild, || bench.run(&cfg.workload))
    });
    let pairs: Vec<(usize, usize)> = (0..benchmarks.len())
        .flat_map(|b| (0..stages.len()).map(move |s| (b, s)))
        .collect();
    let entries = pool.map(&pairs, |_, &(b, s)| {
        cache.entry(&traces[b], stages[s], cfg, circuits[s].netlist())
    });

    let mut tokens: Vec<String> = entries.iter().filter_map(CacheEntry::token).collect();
    tokens.sort();
    let admissions: Vec<CoalesceGuard> = tokens
        .iter()
        .map(|token| lead(token, &cache.counters))
        .collect();

    let mut found = pool.map(&entries, |_, entry| entry.load());
    let missed: Vec<usize> = (0..pairs.len()).filter(|&p| found[p].is_none()).collect();
    let characterizers = circuits
        .into_iter()
        .enumerate()
        .map(|(s, circuit)| {
            let needed = missed.iter().any(|&p| pairs[p].1 == s);
            needed
                .then(|| {
                    time_phase(Phase::StageBuild, || {
                        StageCharacterizer::from_stage(circuit)
                    })
                })
                .transpose()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let jobs: Vec<(&StageCharacterizer, &WorkloadTrace)> = missed
        .iter()
        .map(|&p| {
            let (b, s) = pairs[p];
            let charac = characterizers[s].as_ref();
            (
                charac.expect("a missed pair's stage is characterized"),
                &traces[b],
            )
        })
        .collect();
    let computed = characterize_units(&jobs, cfg, pool)?;
    pool.map(&missed, |k, &p| entries[p].store(&computed[k]));
    for (&p, data) in missed.iter().zip(computed) {
        found[p] = Some(data);
    }
    drop(admissions);
    Ok(found.into_iter().flatten().collect())
}

/// The items of `items` in order of first appearance, duplicates dropped.
fn distinct<T: Copy + PartialEq>(items: &[T]) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(items.len());
    for &item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// The uncached unit fan-out behind [`characterize_pairs`]: one
/// [`characterize_thread`] call per (job, interval, thread), all on one
/// `try_map` pass, assembled in unit order into one [`BenchmarkData`]
/// per job.
pub(crate) fn characterize_units(
    jobs: &[(&StageCharacterizer, &WorkloadTrace)],
    cfg: &HarnessConfig,
    pool: ThreadPool,
) -> Result<Vec<BenchmarkData>, OptError> {
    let units: Vec<(&StageCharacterizer, &ThreadWork)> = jobs
        .iter()
        .flat_map(|&(charac, trace)| {
            trace
                .intervals
                .iter()
                .flat_map(move |interval| interval.iter().map(move |work| (charac, work)))
        })
        .collect();
    let done = pool.try_map(&units, |_, &(charac, work)| {
        time_phase(Phase::GateSim, || characterize_thread(charac, work, cfg))
    })?;
    let mut done = done.into_iter();
    Ok(time_phase(Phase::Collect, || {
        jobs.iter()
            .map(|&(charac, trace)| BenchmarkData {
                benchmark: trace.benchmark,
                stage: charac.stage().kind(),
                tnom_v1: charac.tnom_v1(),
                intervals: trace
                    .intervals
                    .iter()
                    .map(|interval| IntervalData {
                        threads: done.by_ref().take(interval.threads()).collect(),
                    })
                    .collect(),
            })
            .collect()
    }))
}

/// Runs and characterizes one benchmark on one stage through the cache:
/// [`characterize_pairs`] for a single pair. The workload still runs (its
/// trace is the cache key's fingerprint); a hit skips STA and gate
/// simulation.
///
/// # Errors
///
/// As [`characterize_pairs`].
pub fn characterize_cached(
    benchmark: Benchmark,
    stage: StageKind,
    cfg: &HarnessConfig,
    cache: &CharCache,
    pool: ThreadPool,
) -> Result<BenchmarkData, OptError> {
    characterize_pairs(&[benchmark], &[stage], cfg, cache, pool)?
        .pop()
        .ok_or(OptError::BadConfig("characterization produced no data"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::characterize;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("synts-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn assert_same(a: &BenchmarkData, b: &BenchmarkData) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.stage, b.stage);
        assert_eq!(a.tnom_v1.to_bits(), b.tnom_v1.to_bits());
        assert_eq!(a.intervals.len(), b.intervals.len());
        for (ia, ib) in a.intervals.iter().zip(&b.intervals) {
            assert_eq!(ia.threads.len(), ib.threads.len());
            for (ta, tb) in ia.threads.iter().zip(&ib.threads) {
                assert_eq!(ta.curve, tb.curve);
                let da: Vec<u64> = ta.normalized_delays.iter().map(|d| d.to_bits()).collect();
                let db: Vec<u64> = tb.normalized_delays.iter().map(|d| d.to_bits()).collect();
                assert_eq!(da, db);
                assert_eq!(ta.instructions.to_bits(), tb.instructions.to_bits());
                assert_eq!(ta.cpi_base.to_bits(), tb.cpi_base.to_bits());
            }
        }
    }

    #[test]
    fn payload_json_round_trips_bit_identically() {
        let cfg = HarnessConfig::quick();
        let fresh = characterize(Benchmark::Radix, StageKind::SimpleAlu, &cfg).expect("ok");
        let back = benchmark_data_from_json(&benchmark_data_to_json(&fresh)).expect("round-trips");
        assert_same(&fresh, &back);
        // And through the rendered text, as on disk.
        let text = benchmark_data_to_json(&fresh).render_pretty();
        let reparsed = benchmark_data_from_json(&Json::parse(&text).expect("valid")).expect("ok");
        assert_same(&fresh, &reparsed);
    }

    #[test]
    fn cold_then_warm_yields_identical_data_and_counts() {
        let dir = tmp_dir("warm");
        let cache = CharCache::at_dir(&dir);
        let cfg = HarnessConfig::quick();
        let cold = characterize_cached(
            Benchmark::Fmm,
            StageKind::Decode,
            &cfg,
            &cache,
            ThreadPool::sequential(),
        )
        .expect("cold");
        let mid = cache.stats();
        assert_eq!(mid.misses, 1, "cold run misses");
        let warm = characterize_cached(
            Benchmark::Fmm,
            StageKind::Decode,
            &cfg,
            &cache,
            ThreadPool::sequential(),
        )
        .expect("warm");
        let after = cache.stats();
        assert_eq!(after.hits, 1, "warm run hits");
        assert_same(&cold, &warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two engine calls listing the same pairs in opposite orders are
    /// parked at their first admission, then released together: taking
    /// keys in sorted order, neither can end up holding a key the other
    /// waits on while waiting on one the other holds. Which caller wins
    /// each release is a race, so the scenario runs for several rounds.
    #[test]
    fn opposite_order_calls_released_together_cannot_deadlock() {
        const ROUNDS: u64 = 8;
        let dir = tmp_dir("opposite");
        let cache = CharCache::at_dir(&dir);
        let cfg = HarnessConfig::quick();
        let benchmarks = [Benchmark::Radix, Benchmark::Fmm];
        let stage = StageKind::Decode;
        let circuit = circuits::build_stage(stage, cfg.workload.width).expect("stage");
        let tokens: Vec<String> = benchmarks
            .iter()
            .filter_map(|b| {
                let trace = b.run(&cfg.workload);
                cache.entry(&trace, stage, &cfg, circuit.netlist()).token()
            })
            .collect();
        for _ in 0..ROUNDS {
            let gate = Counters::default();
            let held: Vec<CoalesceGuard> = tokens.iter().map(|t| lead(t, &gate)).collect();
            let parked = cache.stats().coalesced + 2;
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let mut callers = Vec::new();
            for reversed in [false, true] {
                let (cache, cfg, done_tx) = (cache.clone(), cfg.clone(), done_tx.clone());
                let mut order = benchmarks.to_vec();
                if reversed {
                    order.reverse();
                }
                callers.push(std::thread::spawn(move || {
                    let result =
                        characterize_pairs(&order, &[stage], &cfg, &cache, ThreadPool::new(2));
                    done_tx
                        .send(result.map(|d| d.len()))
                        .expect("collector alive");
                }));
            }
            drop(done_tx);
            // Both calls park on a held key (or one fails early).
            while cache.stats().coalesced < parked && !callers.iter().any(|c| c.is_finished()) {
                std::thread::yield_now();
            }
            // Release every key in one step, as if their holders had
            // finished at once.
            let c = coalescer();
            let mut inflight = c
                .inflight
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for guard in held {
                inflight.remove(&guard.token);
                std::mem::forget(guard);
            }
            c.cv.notify_all();
            drop(inflight);
            for _ in 0..2 {
                let pairs = done_rx
                    .recv_timeout(std::time::Duration::from_secs(300))
                    .expect("both calls finish")
                    .expect("characterization");
                assert_eq!(pairs, benchmarks.len());
            }
            for caller in callers {
                caller.join().expect("caller");
            }
        }
        let stats = cache.stats();
        let lookups = ROUNDS * 2 * benchmarks.len() as u64;
        assert_eq!(stats.misses, benchmarks.len() as u64, "{stats:?}");
        assert_eq!(stats.hits, lookups - stats.misses, "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_or_truncated_entries_recompute() {
        let dir = tmp_dir("corrupt");
        let cache = CharCache::at_dir(&dir);
        let cfg = HarnessConfig::quick();
        let cold = characterize_cached(
            Benchmark::Radix,
            StageKind::Decode,
            &cfg,
            &cache,
            ThreadPool::sequential(),
        )
        .expect("cold");
        let entry = std::fs::read_dir(&dir)
            .expect("dir")
            .next()
            .expect("one entry")
            .expect("entry")
            .path();
        for garbage in ["", "{", "{\"key\": 1, \"data\": 2}", "not json at all"] {
            std::fs::write(&entry, garbage).expect("write");
            let again = characterize_cached(
                Benchmark::Radix,
                StageKind::Decode,
                &cfg,
                &cache,
                ThreadPool::sequential(),
            )
            .unwrap_or_else(|e| panic!("garbage {garbage:?} must recompute, got {e}"));
            assert_same(&cold, &again);
        }
        // A truncated valid entry (half the bytes) also recomputes.
        let full = std::fs::read_to_string(&entry).expect("read");
        std::fs::write(&entry, &full[..full.len() / 2]).expect("write");
        let again = characterize_cached(
            Benchmark::Radix,
            StageKind::Decode,
            &cfg,
            &cache,
            ThreadPool::sequential(),
        )
        .expect("truncated entry recomputes");
        assert_same(&cold, &again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_separates_configs_and_disabled_cache_touches_nothing() {
        let cfg = HarnessConfig::quick();
        let trace = Benchmark::Radix.run(&cfg.workload);
        let netlist_for = |stage: StageKind| {
            circuits::build_stage(stage, cfg.workload.width)
                .expect("stage")
                .netlist()
                .clone()
        };
        let decode = netlist_for(StageKind::Decode);
        let k1 = cache_key(&trace, StageKind::Decode, &cfg, &decode).render();
        let k2 = cache_key(
            &trace,
            StageKind::SimpleAlu,
            &cfg,
            &netlist_for(StageKind::SimpleAlu),
        )
        .render();
        assert_ne!(k1, k2, "stage is part of the key");
        let mut other = cfg.clone();
        other.max_samples += 1;
        let k3 = cache_key(&trace, StageKind::Decode, &other, &decode).render();
        assert_ne!(k1, k3, "harness knobs are part of the key");

        let disabled = CharCache::disabled();
        let _ = characterize_cached(
            Benchmark::Radix,
            StageKind::Decode,
            &cfg,
            &disabled,
            ThreadPool::sequential(),
        )
        .expect("ok");
        assert_eq!(
            disabled.stats(),
            CacheStats::default(),
            "disabled cache never counts"
        );
    }
}
