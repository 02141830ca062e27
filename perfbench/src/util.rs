//! Small helpers shared by every workload: the seeded generator, sample
//! statistics, `/proc` readers for CPU time and peak memory, and the
//! scratch directory a run writes into.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// SplitMix64: a tiny, fully specified PRNG, so a seed names the same
/// inputs on every host and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Seconds elapsed since `t0`.
pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it:
/// `(value, percentile)`. Below eleven samples it is the maximum.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// User + system CPU seconds a process has used so far (all its
/// threads, live and exited), from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / clock_ticks_per_second()
}

/// `sysconf(_SC_CLK_TCK)` without libc: Linux fixes USER_HZ at 100 on
/// every architecture this builds on.
fn clock_ticks_per_second() -> f64 {
    100.0
}

/// The machine's vCPU time so far, in clock ticks, from the first line
/// of `/proc/stat`: time spent running anything, and time the vCPUs
/// were ready to run but the hypervisor ran something else (steal).
#[derive(Debug, Clone, Copy, Default)]
pub struct VcpuTicks {
    busy: f64,
    stolen: f64,
}

impl VcpuTicks {
    pub fn now() -> VcpuTicks {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return VcpuTicks::default();
        };
        let fields: Vec<f64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0.0))
            .collect();
        let at = |i: usize| fields.get(i).copied().unwrap_or(0.0);
        // user nice system idle iowait irq softirq steal
        VcpuTicks {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            stolen: at(7),
        }
    }

    /// The share of the time the vCPUs wanted to run since `self` that
    /// the hypervisor stole. A wall time `w` measured over that span
    /// would have been `w * (1 - share)` on a host that steals nothing:
    /// a single busy thread loses exactly the steal of its vCPU, and a
    /// machine busy on every vCPU loses the stolen share of each.
    pub fn stolen_share_since(&self) -> f64 {
        let now = VcpuTicks::now();
        let busy = now.busy - self.busy;
        let stolen = now.stolen - self.stolen;
        if stolen <= 0.0 || busy + stolen <= 0.0 {
            return 0.0;
        }
        stolen / (busy + stolen)
    }

    /// `wall` seconds measured since `self`, less the stolen share.
    pub fn unstolen(&self, wall: f64) -> f64 {
        wall * (1.0 - self.stolen_share_since())
    }
}

/// Peak resident set of a process in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets a process's `VmHWM` to its current RSS (`clear_refs` 5), so
/// the next [`peak_rss_mb`] reads the peak since this call.
pub fn reset_peak_rss(pid: u32) {
    let _ = std::fs::write(format!("/proc/{pid}/clear_refs"), "5");
}

/// A run's scratch directory under `.bench_work/` in the working
/// directory; removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes every file in `dir` (the directory itself stays).
pub fn empty_dir(dir: &Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                let _ = std::fs::remove_dir_all(&path);
            } else {
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

/// Runs `f` on `items` over at most `threads` scoped threads, keeping
/// input order in the output.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        items.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1).min(items.len().max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(item);
                *slots[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every item is mapped")
        })
        .collect()
}
