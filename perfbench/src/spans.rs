//! In-memory spans for the traced run: recorded around calls into each
//! layer (in-process) and around each wire phase (client side), kept in
//! memory, and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name, e.g. `trace.gen`.
    pub name: &'static str,
    /// Start, relative to the log's epoch.
    pub start: Duration,
    /// End, relative to the log's epoch.
    pub end: Duration,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The request (job or read) this span belongs to.
    pub request: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64() * 1e3
    }
}

/// The spans of one recorder (a client, or one replayed job).
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log timing from `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.epoch.elapsed();
        self.record(name, now, now, parent, request)
    }

    /// Closes a span opened with [`SpanLog::open`].
    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.epoch.elapsed();
    }

    /// Records a span whose endpoints were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Duration,
        end: Duration,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Duration of one span, in ms.
    pub fn ms(&self, span: usize) -> f64 {
        self.spans[span].ms()
    }

    /// Per-name self time in ms: each span's duration minus the part of
    /// it its child spans cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ms[p] += span.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ms) {
            *out.entry(span.name).or_insert(0.0) += (span.ms() - children).max(0.0);
        }
        out
    }
}

/// Sums per-name self times over several logs.
pub fn self_ms(logs: &[SpanLog]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for log in logs {
        for (name, ms) in log.self_ms() {
            *out.entry(name).or_insert(0.0) += ms;
        }
    }
    out
}

/// Writes every span as one JSON array; `parent` indexes into the same
/// array, and times are microseconds from the epoch of the span's
/// `source` (the client pass, or the in-process replay).
pub fn write(path: &Path, groups: &[(&str, &[SpanLog])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::from("[\n");
    let mut base = 0;
    let mut first = true;
    for (source, logs) in groups {
        for (index, log) in logs.iter().enumerate() {
            for span in &log.spans {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let parent = span
                    .parent
                    .map_or_else(|| "null".to_owned(), |p| (p + base).to_string());
                let _ = write!(
                    out,
                    "{{\"source\":\"{source}\",\"log\":{index},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}}}",
                    span.request,
                    span.name,
                    span.start.as_secs_f64() * 1e6,
                    span.end.as_secs_f64() * 1e6,
                );
            }
            base += log.spans.len();
        }
    }
    out.push_str("\n]\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(Instant::now());
        let ms = Duration::from_millis;
        let root = log.record("job", ms(0), ms(10), None, 0);
        log.record("trace.gen", ms(1), ms(5), Some(root), 0);
        log.record("dram.sim", ms(5), ms(8), Some(root), 0);
        let own = log.self_ms();
        assert!((own["job"] - 3.0).abs() < 1e-9);
        assert!((own["trace.gen"] - 4.0).abs() < 1e-9);
        assert!((own["dram.sim"] - 3.0).abs() < 1e-9);
    }
}
