//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end (ns since the tracer's origin),
//! the span that caused it and the request it belongs to. Spans stay in
//! memory and are written out as JSON lines when the run ends; a layer's
//! self time is its span's duration minus the part its children cover.
//! With tracing off, [`Tracer::time`] reads no clock and records nothing.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per run; later spans are counted but dropped, so a long run
/// cannot grow memory without bound.
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh span id, for a parent whose children start before it ends.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span under a reserved id.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        start_ns: u64,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns: self.now_ns(),
        };
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.reserve();
        let start = self.now_ns();
        let out = f();
        self.record(id, name, req, parent, start);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span buffer lock poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        let dropped = self.dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            writeln!(out, "{{\"dropped\":{dropped}}}")?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if b <= a {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per request, the summed self time (µs) of the spans named `name`.
pub fn per_request_us(spans: &[Span], selfs: &HashMap<u64, u64>, name: &str) -> Vec<f64> {
    let mut by_req: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_req.entry(s.req).or_default() += selfs.get(&s.id).copied().unwrap_or(0);
    }
    let mut reqs: Vec<(u64, u64)> = by_req.into_iter().collect();
    reqs.sort_unstable();
    reqs.into_iter().map(|(_, ns)| ns as f64 / 1e3).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20);
    }
}
