//! In-memory span recorder for the traced run.
//!
//! Every span holds a name, start, end, parent and op id. Spans are kept
//! in a `Vec` and written out once, at the end, as Chrome trace-event
//! JSON (load it in `chrome://tracing` or Perfetto). A span's *self
//! time* is its duration minus the part of its interval that its child
//! spans cover.

use std::time::{Duration, Instant};

/// How a span enters the per-layer accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A call into a layer; its self time is charged to the layer named
    /// by the span's prefix (`core.prepare` → `core`).
    Layer,
    /// Structure only: an op root, a replay root, or a stand-in for work
    /// that is replayed elsewhere. Never charged to a layer.
    Frame,
    /// Work off the op's critical path (a write-behind thread): reported,
    /// but left out of the op's accounting.
    Async,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub kind: Kind,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span is charged to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. Spans opened while another is open become its
/// children.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span; spans `f` opens on the tracer nest under it.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        kind: Kind,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            kind,
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed();
        out
    }

    /// [`Tracer::span`] for a layer call that opens no spans itself.
    pub fn call<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.span(name, Kind::Layer, op, |_| f())
    }

    /// Record a span measured elsewhere (a time the server reported in a
    /// reply frame), as a child of the innermost open span, placed after
    /// that span's previous children. Outside any span it ends now.
    pub fn record(&mut self, name: &'static str, kind: Kind, op: u64, dur: Duration) {
        let parent = self.open.last().copied();
        let start = match parent {
            Some(p) => self.spans[p + 1..]
                .iter()
                .filter(|s| s.parent == Some(p))
                .map(|s| s.end)
                .max()
                .unwrap_or(self.spans[p].start),
            None => self.epoch.elapsed().saturating_sub(dur),
        };
        self.spans.push(Span {
            name,
            op,
            parent,
            kind,
            start,
            end: start + dur,
        });
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// one track per op.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{:?}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"parent\":{}}}}}",
                s.name,
                s.kind,
                s.start.as_secs_f64() * 1e6,
                s.dur().as_secs_f64() * 1e6,
                s.op,
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start.max(spans[p].start);
            let hi = s.end.min(spans[p].end);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_us: u64, end_us: u64) -> Span {
        Span {
            name: "t.x",
            op: 0,
            parent,
            kind: Kind::Layer,
            start: Duration::from_micros(start_us),
            end: Duration::from_micros(end_us),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0,100) with children [10,30) and [50,60); the first child
        // has a grandchild [12,20).
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(1), 12, 20),
            span(Some(0), 50, 60),
        ];
        let us: Vec<u64> = self_times(&spans)
            .iter()
            .map(|d| d.as_micros() as u64)
            .collect();
        assert_eq!(us, vec![70, 12, 8, 10]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(us.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 50),
        ];
        assert_eq!(self_times(&spans)[0], Duration::from_micros(60));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(None, 0, 10), span(Some(0), 5, 25)];
        assert_eq!(self_times(&spans)[0], Duration::from_micros(5));
    }

    #[test]
    fn recorder_nests_and_records() {
        let mut t = Tracer::default();
        t.span("op", Kind::Frame, 7, |t| {
            t.call("core.prepare", 7, || std::hint::black_box(1 + 1));
            t.record("daemon.server", Kind::Frame, 7, Duration::from_micros(3));
            t.record("daemon.more", Kind::Frame, 7, Duration::from_micros(2));
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[2].dur(), Duration::from_micros(3));
        // Recorded siblings follow each other instead of overlapping.
        assert_eq!(s[2].start, s[1].end);
        assert_eq!(s[3].start, s[2].end);
        assert_eq!(s[1].layer(), "core");
        assert!(t.chrome_json().contains("\"name\":\"core.prepare\""));
    }
}
