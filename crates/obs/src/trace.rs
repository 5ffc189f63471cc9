//! Structured span tracing into a bounded in-process ring buffer.
//!
//! A span is opened with the [`span!`](crate::span!) macro and closed when
//! its guard drops; the record carries the span's name, formatted arguments,
//! parent span (innermost open span on the same thread), a small numeric
//! thread id, and monotonic start/duration in microseconds relative to the
//! process trace epoch.
//!
//! The ring buffer is bounded: when full, the oldest span is overwritten and
//! a drop counter advances, so tracing can stay on indefinitely without
//! unbounded memory. [`drain_trace`] swaps the buffer out for export.

use crate::json_escape;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default ring-buffer capacity (spans). Roughly: a 60-second tuned run at
/// ~2k spans/second fits with headroom; at ~120 bytes/span this is ~30 MB
/// worst case.
pub const DEFAULT_RING_CAPACITY: usize = 262_144;

static TRACING_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static PARENT_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    /// 0 = root (no enclosing span on the recording thread).
    pub parent: u64,
    pub name: &'static str,
    /// Space-separated `key=value` pairs from the `span!` call site.
    pub args: String,
    /// Small per-process thread number (assigned at first span per thread).
    pub tid: u64,
    /// Microseconds since the trace epoch.
    pub start_us: u64,
    pub dur_us: u64,
}

struct RingState {
    buf: VecDeque<SpanRecord>,
    cap: usize,
    dropped: u64,
}

fn ring() -> &'static Mutex<RingState> {
    static RING: OnceLock<Mutex<RingState>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(RingState {
            buf: VecDeque::new(),
            cap: DEFAULT_RING_CAPACITY,
            dropped: 0,
        })
    })
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn micros_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_micros() as u64
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

fn push_record(rec: SpanRecord) {
    let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    if ring.buf.len() >= ring.cap {
        ring.buf.pop_front();
        ring.dropped += 1;
    }
    ring.buf.push_back(rec);
}

/// Turn tracing on with the given ring-buffer capacity (`None` for the
/// default). Existing buffered spans are kept; the epoch is pinned at the
/// first enable.
pub fn enable_tracing(capacity: Option<usize>) {
    epoch();
    {
        let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(cap) = capacity {
            ring.cap = cap.max(1);
            while ring.buf.len() > ring.cap {
                ring.buf.pop_front();
                ring.dropped += 1;
            }
        }
    }
    TRACING_ENABLED.store(true, Ordering::Release);
}

/// Turn tracing off. Open guards created while enabled still record on drop.
pub fn disable_tracing() {
    TRACING_ENABLED.store(false, Ordering::Release);
}

/// Whether span recording is currently live.
#[inline(always)]
pub fn tracing_enabled() -> bool {
    TRACING_ENABLED.load(Ordering::Relaxed)
}

/// RAII guard for one span. Construct through the [`span!`](crate::span!)
/// macro; when tracing is disabled at entry the guard is inert (a single
/// relaxed load, no allocation).
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    args: String,
    start: Instant,
}

impl SpanGuard {
    /// Enter a span. `args_fn` is called only when tracing is enabled.
    #[inline]
    pub fn enter(name: &'static str, args_fn: impl FnOnce() -> String) -> SpanGuard {
        if !tracing_enabled() {
            return SpanGuard { live: None };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = PARENT_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        SpanGuard {
            live: Some(LiveSpan {
                id,
                parent,
                name,
                args: args_fn(),
                start: Instant::now(),
            }),
        }
    }

    /// The span id, or 0 for an inert guard.
    pub fn id(&self) -> u64 {
        self.live.as_ref().map(|l| l.id).unwrap_or(0)
    }

    /// Ends the span and builds its record without pushing it.
    fn finish(&mut self) -> Option<SpanRecord> {
        let live = self.live.take()?;
        let dur = live.start.elapsed();
        PARENT_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == live.id) {
                s.remove(pos);
            }
        });
        Some(SpanRecord {
            id: live.id,
            parent: live.parent,
            name: live.name,
            args: live.args,
            tid: thread_id(),
            start_us: micros_since_epoch(live.start),
            dur_us: dur.as_micros() as u64,
        })
    }

    /// Ends the span on this thread but hands the record to the caller
    /// instead of the ring (`None` for an inert guard), for a span whose
    /// final name is only known later — pass it to [`record_span`] then.
    pub fn close(mut self) -> Option<SpanRecord> {
        self.finish()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(rec) = self.finish() {
            push_record(rec);
        }
    }
}

/// Records a span closed earlier with [`SpanGuard::close`], from any thread.
pub fn record_span(rec: SpanRecord) {
    push_record(rec);
}

/// Record a span after the fact, for intervals measured outside guard scope
/// (e.g. the time a trial spent queued before a worker picked it up). The
/// parent is the innermost open span on the calling thread.
pub fn record_interval(name: &'static str, args: String, start: Instant, dur: Duration) {
    if !tracing_enabled() {
        return;
    }
    let parent = PARENT_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    push_record(SpanRecord {
        id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        args,
        tid: thread_id(),
        start_us: micros_since_epoch(start),
        dur_us: dur.as_micros() as u64,
    });
}

/// Counts reported alongside a drained trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    pub recorded: usize,
    /// Spans overwritten because the ring was full.
    pub dropped: u64,
}

/// A drained batch of spans, ordered by start time (ties by id).
#[derive(Debug, Clone)]
pub struct Trace {
    pub spans: Vec<SpanRecord>,
    pub dropped: u64,
}

impl Trace {
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            recorded: self.spans.len(),
            dropped: self.dropped,
        }
    }

    /// One JSON object per line, schema:
    /// `{"id":N,"parent":N,"name":"...","args":"...","tid":N,"ts_us":N,"dur_us":N}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"args\":\"{}\",\"tid\":{},\"ts_us\":{},\"dur_us\":{}}}\n",
                s.id,
                s.parent,
                json_escape(s.name),
                json_escape(&s.args),
                s.tid,
                s.start_us,
                s.dur_us
            ));
        }
        out
    }

    /// Chrome trace-event JSON array (loadable in `chrome://tracing` /
    /// Perfetto), one complete-event (`"ph":"X"`) object per line. The
    /// category is the metric-style prefix of the span name (text before the
    /// first `.`), so lanes can be filtered by subsystem.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or("span");
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"detail\":\"{}\",\"id\":{},\"parent\":{}}}}}{}\n",
                json_escape(s.name),
                json_escape(cat),
                s.start_us,
                s.dur_us,
                s.tid,
                json_escape(&s.args),
                s.id,
                s.parent,
                comma
            ));
        }
        out.push_str("]\n");
        out
    }
}

/// Remove and return everything in the ring buffer, resetting the dropped
/// counter. Spans come back sorted by `(start_us, id)` for deterministic
/// export regardless of which thread pushed last.
pub fn drain_trace() -> Trace {
    let (mut spans, dropped) = {
        let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
        let spans: Vec<SpanRecord> = ring.buf.drain(..).collect();
        let dropped = ring.dropped;
        ring.dropped = 0;
        (spans, dropped)
    };
    spans.sort_by_key(|s| (s.start_us, s.id));
    Trace { spans, dropped }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record() {
        let _g = crate::test_gate();
        enable_tracing(None);
        let _ = drain_trace();
        {
            let outer = crate::span!("test.outer");
            let outer_id = outer.id();
            assert!(outer_id > 0);
            {
                let inner = crate::span!("test.inner", idx = 3, algo = "rf");
                assert!(inner.id() > outer_id);
            }
        }
        disable_tracing();
        let trace = drain_trace();
        assert_eq!(trace.spans.len(), 2);
        let outer = trace.spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.args, "idx=3 algo=rf");
        assert!(outer.dur_us >= inner.dur_us);
    }

    #[test]
    fn disabled_guard_is_inert() {
        let _g = crate::test_gate();
        disable_tracing();
        let _ = drain_trace();
        // Argument expressions must not be evaluated on the disabled path.
        fn boom() -> &'static str {
            panic!("args evaluated while tracing disabled")
        }
        {
            let g = crate::span!("test.disabled", never = boom());
            assert_eq!(g.id(), 0);
        }
        assert_eq!(drain_trace().spans.len(), 0);
    }

    #[test]
    fn closed_span_is_recorded_by_the_caller_under_its_final_name() {
        let _g = crate::test_gate();
        enable_tracing(None);
        let _ = drain_trace();
        let tid = std::thread::spawn(|| {
            let closed = crate::span!("test.closed", fold = 1).close().expect("tracing is on");
            (closed.tid, closed)
        });
        let (tid, mut closed) = tid.join().unwrap();
        assert_eq!(drain_trace().spans.len(), 0, "close() must not push");
        closed.name = "test.closed.renamed";
        record_span(closed);
        disable_tracing();
        let trace = drain_trace();
        assert_eq!(trace.spans.len(), 1);
        // Named by the caller, still on the lane of the thread that ran it.
        assert_eq!(trace.spans[0].name, "test.closed.renamed");
        assert_eq!(trace.spans[0].tid, tid);
        assert_eq!(trace.spans[0].args, "fold=1");
        assert!(crate::span!("test.off").close().is_none(), "inert guard closes to nothing");
    }

    #[test]
    fn ring_overwrites_oldest() {
        let _g = crate::test_gate();
        enable_tracing(Some(4));
        let _ = drain_trace();
        for _ in 0..10 {
            let _s = crate::span!("test.ring");
        }
        disable_tracing();
        let trace = drain_trace();
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.dropped, 6);
        // Restore the default capacity for later tests.
        enable_tracing(Some(DEFAULT_RING_CAPACITY));
        disable_tracing();
        let _ = drain_trace();
    }

    #[test]
    fn exports_are_line_oriented_json() {
        let _g = crate::test_gate();
        enable_tracing(None);
        let _ = drain_trace();
        {
            let _a = crate::span!("test.export", note = "with \"quotes\"");
        }
        record_interval(
            "test.interval",
            String::new(),
            Instant::now(),
            Duration::from_micros(5),
        );
        disable_tracing();
        let trace = drain_trace();
        assert_eq!(trace.spans.len(), 2);

        let jsonl = trace.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"ts_us\":"));
        }
        assert!(jsonl.contains("note=with \\\"quotes\\\""));

        let chrome = trace.to_chrome_trace();
        assert!(chrome.starts_with("[\n"));
        assert!(chrome.ends_with("]\n"));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"cat\":\"test\""));
        // One event per line: every interior line is an object.
        let lines: Vec<&str> = chrome.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('{'));
    }

    #[test]
    fn record_interval_respects_enable_flag() {
        let _g = crate::test_gate();
        disable_tracing();
        let _ = drain_trace();
        record_interval("test.gated", String::new(), Instant::now(), Duration::ZERO);
        assert_eq!(drain_trace().spans.len(), 0);
    }
}
