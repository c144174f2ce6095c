//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it and
//! the id of the request (op) it belongs to. Spans stay in memory while
//! the workload runs and are written out once it has ended. A span's
//! self time is its duration minus the time its children cover.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log. Logs of several threads are merged with
/// [`SpanLog::absorb`] after the threads have ended.
#[derive(Debug)]
pub struct SpanLog {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(t0: Instant) -> SpanLog {
        SpanLog {
            t0,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            name,
            req,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Opens a span whose end is set later with [`SpanLog::close`], so
    /// its children can name it as their parent while it runs.
    pub fn open(&mut self, name: &'static str, req: u64, start: Instant) -> usize {
        self.record(name, req, None, start, start)
    }

    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, req, parent, start, Instant::now());
        out
    }

    /// Appends another log's spans, renumbering their ids.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, in ns, indexed like `spans`.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self times grouped by span name, in ms.
    pub fn self_ms_by_name(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut by: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            by.entry(s.name).or_default().push(own as f64 / 1e6);
        }
        by
    }

    /// Durations grouped by span name, in ms.
    pub fn dur_ms_by_name(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut by: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for s in &self.spans {
            by.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e6);
        }
        by
    }

    /// Writes one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.req, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut log = SpanLog::new(t0);
        let root = log.open("op", 1, t0);
        log.record(
            "child",
            1,
            Some(root),
            t0 + Duration::from_millis(1),
            t0 + Duration::from_millis(4),
        );
        log.close(root, t0 + Duration::from_millis(10));
        let own = log.self_ns();
        assert_eq!(own[root], 7_000_000);
        assert_eq!(own[1], 3_000_000);

        let mut other = SpanLog::new(t0);
        let r2 = other.open("op", 2, t0);
        other.record("child", 2, Some(r2), t0, t0 + Duration::from_millis(2));
        other.close(r2, t0 + Duration::from_millis(5));
        log.absorb(other);
        assert_eq!(log.spans[3].parent, Some(2));
        assert_eq!(log.self_ms_by_name()["op"], vec![7.0, 3.0]);
    }
}
