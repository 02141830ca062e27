//! In-memory spans for the traced run: name, start, end, parent and op
//! id, recorded around calls into the program and written out when the
//! run ends. A span's self time is its duration minus the part of it
//! its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    /// Open spans of this thread, innermost last: a new span's parent.
    static OPEN: std::cell::RefCell<Vec<usize>> = const { std::cell::RefCell::new(Vec::new()) };
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// A span recorder. When disabled, `span` just runs the closure.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

pub type SpanId = usize;

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Opens a span whose parent is this thread's innermost open span;
    /// close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, op: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start = self.now();
        let id = {
            let mut spans = self.spans();
            spans.push(Span {
                name,
                op,
                parent,
                start,
                end: start,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        Some(id)
    }

    pub fn end(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.now();
            if let Some(span) = self.spans().get_mut(id) {
                span.end = end;
            }
            OPEN.with(|open| {
                let mut open = open.borrow_mut();
                if let Some(pos) = open.iter().rposition(|&s| s == id) {
                    open.truncate(pos);
                }
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans().clone()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start\":{},\"end\":{}}}",
                s.name, s.op, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut iv: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

/// Total self time per span name, over the spans `keep` selects.
pub fn self_by_name(spans: &[Span], keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if keep(i) {
            *out.entry(s.name).or_insert(0.0) += selfs[i];
        }
    }
    out
}

/// Whether `ancestor` is `span` or one of its ancestors.
pub fn descends_from(spans: &[Span], mut span: usize, ancestor: usize) -> bool {
    loop {
        if span == ancestor {
            return true;
        }
        match spans[span].parent {
            Some(p) => span = p,
            None => return false,
        }
    }
}
