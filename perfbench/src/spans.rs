//! Benchmark-side spans around each call into a layer's public functions,
//! kept in memory and written out as a JSON sidecar when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One span: a named interval, the span that caused it, and the grid point
/// it belongs to (`None` for workload-level spans such as replays).
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub point: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        point: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            point,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].seconds()
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        point: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, point);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every span: its duration minus the time its children
    /// cover.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.seconds();
            }
        }
        own
    }

    /// The spans as a JSON array, with point indices resolved to grid-point
    /// ids by `point_id`.
    pub fn to_json(&self, point_id: impl Fn(usize) -> String) -> String {
        let own = self.self_seconds();
        let mut out = String::from("[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_s\":{}",
                span.name, span.start_ns, span.end_ns, own[i]
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            if let Some(point) = span.point {
                let id = serde_json::to_string(&point_id(point)).expect("strings serialize");
                let _ = write!(out, ",\"point\":{id}");
            }
            out.push('}');
        }
        out.push_str("\n]");
        out
    }
}
