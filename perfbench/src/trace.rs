//! Outside-in spans: each layer is timed by wrapping the public function
//! that enters it. Spans stay in memory and are written when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    /// Per-constraint identifier shared by every span of one constraint.
    cid: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cid: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cid: 0,
        }
    }

    /// Starts a root span for constraint `cid`; children nest under it
    /// until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, cid: u64) {
        self.cid = cid;
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            cid,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        let i = self.open.pop().expect("end matches a begin");
        self.spans[i].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span named after the layer it enters.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name, self.cid);
        let out = f();
        self.end();
        out
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_time) {
            *out.entry(s.name).or_insert(Duration::ZERO) +=
                (s.end - s.start).saturating_sub(covered);
        }
        out
    }

    /// Total duration of the root spans called `name`.
    pub fn root_time(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"cid\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.cid,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin("root", 1);
        t.span("a", || std::thread::sleep(Duration::from_millis(5)));
        t.span("b", || std::thread::sleep(Duration::from_millis(5)));
        t.end();
        let selfs = t.self_times();
        let children = selfs["a"] + selfs["b"];
        assert!(children >= Duration::from_millis(10));
        assert_eq!(selfs["root"] + children, t.root_time("root"));
    }
}
