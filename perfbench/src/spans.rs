//! Spans recorded from the benchmark's own code around calls into the
//! program's public API. Kept in memory; written as JSON lines when the
//! run ends.

use comet_obs::json::JsonObject;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug)]
pub struct Spans {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(run_id: &str) -> Spans {
        Spans { run_id: run_id.to_string(), origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn seconds(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Total seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// One JSON object per span: name, start and end (ns since the run
    /// began), parent index, and the run id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut obj = JsonObject::new();
            obj.field_u64("id", i as u64)
                .field_str("name", s.name)
                .field_u64("start_ns", s.start_ns)
                .field_u64("end_ns", s.end_ns)
                .field_str("run", &self.run_id);
            match s.parent {
                Some(p) => obj.field_u64("parent", p as u64),
                None => obj.field_raw("parent", "null"),
            };
            out.push_str(&obj.finish());
            out.push('\n');
        }
        out
    }
}
