//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A [`Tracer`] is owned by one thread; sender threads get their own
//! buffer from [`Tracer::fork`] and hand it back with [`Tracer::absorb`]
//! when they finish, so recording never takes a lock. Nothing is written
//! until the run ends ([`Tracer::write_tsv`]). A disabled tracer records
//! nothing, which is how the untraced run measures the end-to-end metrics.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Request ids carry their phase in the top 16 bits, so the spans of one
/// request share an id and ids of different phases never collide.
pub const REQ_SETUP: u64 = 1 << 48;
/// Open-loop queries.
pub const REQ_QUERY: u64 = 2 << 48;
/// Open-loop appends.
pub const REQ_APPEND: u64 = 3 << 48;
/// Closed-loop capacity queries.
pub const REQ_CLOSED: u64 = 4 << 48;
/// In-process engine calls.
pub const REQ_ENGINE: u64 = 5 << 48;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name (`server.roundtrip`, `index.build`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request id shared by the spans of one request.
    pub req: u64,
}

/// Aggregate of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: usize,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus the parts their children cover.
    pub self_ns: u64,
}

/// A span buffer owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose times count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// A fresh buffer for another thread, with room for `capacity` spans
    /// so recording does not allocate while measuring.
    pub fn fork(&self, capacity: usize) -> Self {
        Self {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::with_capacity(if self.enabled { capacity } else { 0 }),
        }
    }

    /// Turns recording on or off (the traced run alternates untraced and
    /// traced capacity blocks to report the tracing overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records `[start, end)`; `None` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Sets the end of span `id` (a parent recorded before its children,
    /// with its end not yet known).
    pub fn finish(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            self.spans[id].end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
    }

    /// Moves `other`'s spans into this buffer, rebasing parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals and self times: a span's self time is its duration
    /// minus the durations of its children (children of one span never
    /// overlap here: they are sequential steps of one thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_ns += dur;
            entry.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent req name start_ns end_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{id}\t{parent}\t{:#x}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_absorb_rebases_parents() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut main = Tracer::new(true, epoch);
        main.record("setup", at(0), at(10), None, REQ_SETUP);
        let mut worker = main.fork(4);
        let root = worker.record("client.request", at(0), at(100), None, REQ_QUERY);
        worker.record("client.send_late", at(0), at(10), root, REQ_QUERY);
        worker.record("server.roundtrip", at(10), at(100), root, REQ_QUERY);
        main.absorb(worker);
        assert_eq!(main.spans()[2].parent, Some(1));
        let times = main.self_times();
        assert_eq!(times["client.request"].total_ns, 100_000);
        assert_eq!(times["client.request"].self_ns, 0);
        assert_eq!(times["server.roundtrip"].self_ns, 90_000);
        let mut off = Tracer::new(false, epoch);
        assert!(off.record("x", at(0), at(1), None, 0).is_none());
        assert!(off.spans().is_empty());
    }
}
