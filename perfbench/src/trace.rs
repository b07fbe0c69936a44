//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the library's public
//! functions, kept in memory, and written out as JSON lines when the run
//! ends. Per-layer times are derived from them afterwards.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) interval of a run.
#[derive(Debug)]
pub struct Span {
    /// Identifier of the run the span belongs to.
    pub run_id: u64,
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `tensor.backward`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End in the same clock; equal to `start_ns` while open.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans of one single-threaded run.
#[derive(Debug)]
pub struct Tracer {
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose spans all carry `run_id`.
    pub fn new(run_id: u64) -> Self {
        Self {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            run_id: self.run_id,
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the durations of every span named `name`, in seconds.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::secs).collect()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run_id\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run_id, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A span's self time in seconds: its duration minus the part of its
/// interval covered by its direct children (overlapping children count
/// once).
pub fn self_secs(spans: &[Span], id: usize) -> f64 {
    let span = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (span.end_ns - span.start_ns - covered) as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            run_id: 7,
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 40, 90),
            span(3, Some(2), 50, 60),
        ];
        assert!((self_secs(&spans, 0) - 30e-9).abs() < 1e-15);
        assert!((self_secs(&spans, 2) - 40e-9).abs() < 1e-15);
        assert!((self_secs(&spans, 3) - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            // Sticks out past the parent: only the inside part counts.
            span(3, Some(0), 90, 150),
        ];
        assert!((self_secs(&spans, 0) - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_sums() {
        let mut t = Tracer::new(3);
        let root = t.begin("root");
        t.span("leaf", || ());
        t.span("leaf", || ());
        t.end(root);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[2].parent, Some(root));
        assert!(s.iter().all(|s| s.run_id == 3 && s.end_ns >= s.start_ns));
        assert_eq!(t.durations("leaf").len(), 2);
        assert!(t.total_secs("root") >= t.total_secs("leaf"));
    }
}
