//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out when the run ends.
//!
//! A span carries a name, start, end, its parent span and the id of
//! the request (cone, served request or synthesized output) it belongs
//! to. A layer's self time is its spans' durations minus the time
//! their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub req: u64,
}

/// The span log of one run. A disabled tracer records nothing, so the
/// untraced run executes the same code without the bookkeeping.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for request `req`; spans
    /// opened inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = Instant::now();
        out
    }

    /// Records an already-measured interval under `parent` (client-side
    /// request phases, whose endpoints are observed on another thread);
    /// returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
    ) -> usize {
        if self.enabled {
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
                req,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// its direct children's (children of one parent never overlap —
    /// they run one after another on the parent's thread).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += (s.end - s.start).as_secs_f64();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = ((s.end - s.start).as_secs_f64() - child[i]).max(0.0);
            *out.entry(s.name).or_insert(0.0) += own;
        }
        out
    }

    /// Total self time of spans named `name`.
    pub fn busy(&self, name: &str) -> f64 {
        self.self_seconds().get(name).copied().unwrap_or(0.0)
    }

    /// Writes every span as one JSON line (times in seconds from the
    /// tracer's creation).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = |at: Instant| at.saturating_duration_since(self.origin).as_secs_f64();
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \"parent\": {parent}, \"req\": {}}}",
                s.name,
                t(s.start),
                t(s.end),
                s.req
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
