//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into the program. Nothing here runs inside the program — spans inside
//! it are a later change (ROADMAP item 1).
//!
//! Every thread that records owns a [`SpanBuf`] (no lock on the hot path)
//! and hands its spans to the shared [`Tracer`] when it is dropped. All
//! timestamps are nanoseconds since the tracer's epoch, so spans from
//! different threads compare directly.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// "No span": the parent of a root span.
pub const NO_SPAN: u32 = 0;
/// "No request": a span that belongs to no single request (a tick).
pub const NO_REQUEST: i64 = -1;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one ([`NO_SPAN`] for a root).
    pub parent: u32,
    /// The request it belongs to ([`NO_REQUEST`] for none); spans of one
    /// request share it.
    pub request: i64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, counted at the same boundary: positions
    /// fed for an engine call, live slots for a tick, 0 where nothing is
    /// counted.
    pub count: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Shared {
    epoch: Instant,
    next_id: AtomicU32,
    /// The span engine calls made right now are caused by (the running
    /// tick or solo request); set by the driver thread, read by engines on
    /// pool threads.
    current_parent: AtomicU32,
    sink: Mutex<Vec<Span>>,
}

/// The shared end of the recorder; clones are handles to one trace.
#[derive(Debug, Clone)]
pub struct Tracer {
    shared: Arc<Shared>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            shared: Arc::new(Shared {
                epoch,
                next_id: AtomicU32::new(1),
                current_parent: AtomicU32::new(NO_SPAN),
                sink: Mutex::new(Vec::new()),
            }),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    /// A per-thread buffer feeding this tracer.
    pub fn buf(&self) -> SpanBuf {
        SpanBuf {
            tracer: self.clone(),
            spans: Vec::new(),
        }
    }

    // SeqCst on both sides: the driver sets the parent before dispatching
    // work to pool threads and the cost is one store per tick.
    pub fn set_current_parent(&self, id: u32) {
        self.shared.current_parent.store(id, Ordering::SeqCst);
    }

    pub fn current_parent(&self) -> u32 {
        self.shared.current_parent.load(Ordering::SeqCst)
    }

    /// Every span flushed so far, ordered by start time. Call after the
    /// recording buffers have been dropped.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.shared.sink.lock().expect("span sink poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// One thread's span buffer; flushes into its tracer on drop.
#[derive(Debug)]
pub struct SpanBuf {
    tracer: Tracer,
    spans: Vec<Span>,
}

impl SpanBuf {
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Reserves an id for a span whose end is not known yet (so children
    /// can name it as parent before it is recorded).
    pub fn open(&self) -> u32 {
        // Relaxed: the counter only hands out distinct numbers.
        self.tracer.shared.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Reserves an id and makes it the parent of the engine calls made
    /// until the next one is opened: a tick, or a solo request.
    pub fn open_as_parent(&self) -> u32 {
        let id = self.open();
        self.tracer.set_current_parent(id);
        id
    }

    /// Records a finished span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn close(
        &mut self,
        id: u32,
        parent: u32,
        request: i64,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        count: u32,
    ) {
        self.spans.push(Span {
            id,
            parent,
            request,
            layer,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            count,
        });
    }

    /// Records a finished leaf span.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        parent: u32,
        request: i64,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        count: u32,
    ) -> u32 {
        let id = self.open();
        self.close(id, parent, request, layer, name, start_ns, end_ns, count);
        id
    }
}

impl Drop for SpanBuf {
    fn drop(&mut self) {
        // A poisoned sink means another recorder panicked; the trace is
        // lost either way and Drop must not panic on top of it.
        if let Ok(mut sink) = self.tracer.shared.sink.lock() {
            sink.append(&mut self.spans);
        }
    }
}

/// Nanoseconds it costs to record one span — two clock reads, the parent
/// lookup and the push — measured on a scratch tracer. Times the number of
/// spans a run recorded, this is the time tracing took out of that run.
pub fn record_cost_ns() -> f64 {
    const SPANS: u32 = 200_000;
    let tracer = Tracer::new(Instant::now());
    let mut buf = tracer.buf();
    let begin = Instant::now();
    for _ in 0..SPANS {
        let parent = tracer.current_parent();
        let start = tracer.now_ns();
        let end = tracer.now_ns();
        buf.record(parent, NO_REQUEST, "probe", "record", start, end, 0);
    }
    begin.elapsed().as_nanos() as f64 / f64::from(SPANS)
}

/// Length of the union of `intervals` (each `(start, end)`).
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = 0u64;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children may overlap each other, and are
/// clipped to the parent).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    let bounds: HashMap<u32, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some(&(p_start, p_end)) = bounds.get(&s.parent) {
            let clipped = (s.start_ns.max(p_start), s.end_ns.min(p_end));
            if clipped.1 > clipped.0 {
                children.entry(s.parent).or_default().push(clipped);
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get_mut(&s.id).map_or(0, |c| union_ns(c));
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Count, total and self time of one `(layer, name)` group of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanGroup {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Groups spans by `(layer, name)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), SpanGroup> {
    let selfs = self_times(spans);
    let mut groups: BTreeMap<(&'static str, &'static str), SpanGroup> = BTreeMap::new();
    for s in spans {
        let g = groups.entry((s.layer, s.name)).or_default();
        g.count += 1;
        g.total_ns += s.dur_ns();
        g.self_ns += selfs[&s.id];
    }
    groups
}

/// Writes one JSON object per span.
///
/// # Errors
///
/// Any I/O error of the writer, including the final flush.
pub fn write_jsonl(spans: &[Span], out: impl Write) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(out);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: NO_REQUEST,
            layer: "t",
            name: "s",
            start_ns,
            end_ns,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, NO_SPAN, 0, 100),
            // Two engine spans on two pool threads overlap in [30, 40].
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            // A child sticking out of its parent is clipped to it.
            span(4, 1, 90, 130),
            // A grandchild does not count against the root twice.
            span(5, 2, 15, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - (50 + 10));
        assert_eq!(selfs[&2], 30 - 5);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 40);
        assert_eq!(selfs[&5], 5);
    }

    #[test]
    fn union_merges_nested_touching_and_disjoint_intervals() {
        assert_eq!(union_ns(&mut [(0, 10), (2, 5), (10, 12), (20, 21)]), 13);
        assert_eq!(union_ns(&mut []), 0);
    }

    #[test]
    fn buffers_flush_on_drop_and_ids_are_distinct_across_threads() {
        let tracer = Tracer::new(Instant::now());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    let mut buf = tracer.buf();
                    for i in 0..100 {
                        buf.record(NO_SPAN, i, "t", "s", 1, 2, 0);
                    }
                });
            }
        });
        let spans = tracer.take_spans();
        assert_eq!(spans.len(), 200);
        let mut ids: Vec<u32> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
        assert!(!ids.contains(&NO_SPAN));
        let groups = summarize(&spans);
        assert_eq!(groups[&("t", "s")].count, 200);
        assert_eq!(groups[&("t", "s")].self_ns, 200);
    }
}
