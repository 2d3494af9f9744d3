//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded only here, in the benchmark, around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. A span carries its name, start, end, parent span and
//! the request it belongs to. Spans stay in memory while the benchmark
//! measures and are written out once, when it ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The request (task, frame) the span belongs to.
    pub req: u64,
    /// Index of the enclosing span in the same [`Tracer`].
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// A span list. Disabled tracers record nothing, so untraced runs pay
/// one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

/// Placeholder id returned by a disabled tracer.
const OFF: usize = usize::MAX;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        if !self.on {
            return OFF;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        if id == OFF {
            return;
        }
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end = Instant::now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already-measured top-level interval.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                req,
                parent: None,
                start,
                end,
            });
        }
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (ms) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per span name: count, total ms and self ms (duration minus the
    /// part covered by direct children, which never overlap because a
    /// tracer belongs to one thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ms) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += (s.ms() - children).max(0.0);
        }
        out
    }

    /// The smallest share of a `parent_name` span's wall time that its
    /// direct children cover (1.0 when there is no such span).
    pub fn min_coverage(&self, parent_name: &str) -> f64 {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == parent_name)
            .map(|(s, c)| if s.ms() > 0.0 { c / s.ms() } else { 1.0 })
            .fold(1.0, f64::min)
    }

    /// Writes every span as one JSON line (times in µs from `origin`).
    pub fn write(&self, path: &std::path::Path, origin: Instant) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name,
                s.req,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}
