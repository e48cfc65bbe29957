//! Bench-side wall-clock spans.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! the stack's public functions; nothing inside the program is
//! instrumented. A span has a name, a start, an end, the span that was
//! open when it started (its parent) and the id of the op it belongs to.
//! Spans stay in memory and are written out when the run ends. A span's
//! self time is its duration minus the time its children cover, so the
//! self times of one op's spans sum to the op's own span exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Most spans [`Tracer::to_json`] writes; the file holds the run's first
/// spans, the per-layer table is computed over all of them.
pub const MAX_WRITTEN: usize = 100_000;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-prefixed name, e.g. `gateway.pump`.
    pub name: &'static str,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Id of the op this span belongs to.
    pub op: u32,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Wall time inside the span, children included.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count, busy time and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, ns.
    pub busy_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// Records spans when enabled; a disabled tracer does nothing, so the
/// same workload code serves the untraced and the traced run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    paused: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// Creates a tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            paused: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Stops (`true`) or resumes recording. Warm-up runs the same code
    /// as the timed ops but must not add to their per-name totals; spans
    /// opened while paused must also be closed while paused.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled || self.paused {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.push(name, now);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled || self.paused {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.pop(now);
    }

    fn push(&mut self, name: &'static str, now_ns: u64) {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_ns: now_ns,
            end_ns: now_ns,
        });
    }

    fn pop(&mut self, now_ns: u64) {
        if let Some(idx) = self.stack.pop() {
            self.spans[idx as usize].end_ns = now_ns;
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the children's durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let p = span.parent as usize;
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Count, busy and self time per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTime> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, &self_ns) in self.spans.iter().zip(&own) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.busy_ns += span.duration_ns();
            entry.self_ns += self_ns;
        }
        out
    }

    /// Largest relative gap, over all root spans, between a root's
    /// duration and the self times of the spans below it. Zero up to
    /// integer arithmetic; the traced run asserts it stays under 1 %.
    pub fn self_time_gap(&self) -> f64 {
        let own = self.self_times();
        let mut sum_by_root: BTreeMap<u32, u64> = BTreeMap::new();
        let mut root_of = vec![0u32; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            root_of[i] = if span.parent == NO_PARENT {
                i as u32
            } else {
                root_of[span.parent as usize]
            };
            *sum_by_root.entry(root_of[i]).or_default() += own[i];
        }
        sum_by_root
            .iter()
            .map(|(&root, &sum)| {
                let total = self.spans[root as usize].duration_ns().max(1);
                (total as f64 - sum as f64).abs() / total as f64
            })
            .fold(0.0, f64::max)
    }

    /// Renders the first [`MAX_WRITTEN`] spans as a JSON array, one
    /// object per span.
    pub fn to_json(&self) -> String {
        let written = &self.spans[..self.spans.len().min(MAX_WRITTEN)];
        let mut out = String::with_capacity(written.len() * 96 + 2);
        out.push('[');
        for (i, s) in written.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set times: root 0..100 with children 10..30
    /// and 40..90, the second holding a grandchild 50..60.
    fn fixture() -> Tracer {
        let mut t = Tracer::new(true);
        t.set_op(7);
        t.push("op", 0);
        t.push("a", 10);
        t.pop(30);
        t.push("b", 40);
        t.push("c", 50);
        t.pop(60);
        t.pop(90);
        t.pop(100);
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = fixture();
        assert_eq!(t.self_times(), vec![30, 20, 40, 10]);
        let by = t.by_name();
        assert_eq!(
            by["op"],
            LayerTime {
                count: 1,
                busy_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            by["b"],
            LayerTime {
                count: 1,
                busy_ns: 50,
                self_ns: 40
            }
        );
    }

    #[test]
    fn self_times_of_an_op_sum_to_its_span() {
        let t = fixture();
        assert_eq!(t.self_times().iter().sum::<u64>(), 100);
        assert_eq!(t.self_time_gap(), 0.0);
        assert!(t.spans().iter().all(|s| s.op == 7));
        assert_eq!(t.spans()[3].parent, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("x");
        t.exit();
        assert!(t.spans().is_empty());
        assert_eq!(t.to_json(), "[]");
    }
}
