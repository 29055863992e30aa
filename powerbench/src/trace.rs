//! Spans around the benchmark's own calls into each layer.
//!
//! Spans stay in memory while the workload runs and are written out
//! once, at exit. When tracing is off, `begin` returns `None` and
//! records nothing, so untraced iterations pay one branch per call.

use std::io::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `sim-core.run_until`.
    pub name: &'static str,
    /// Host nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Workload-run (iteration) id the span belongs to.
    pub run: u32,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off between iterations.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggle tracing only between spans");
        self.on = on;
    }

    /// Tag subsequent spans with workload-run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Open a span; pass the result to [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Time `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of the spans named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Write the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_parents() {
        let mut t = Tracer::new(true);
        t.set_run(3);
        let outer = t.begin("outer");
        t.scope("inner", || ());
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].run, 3);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
