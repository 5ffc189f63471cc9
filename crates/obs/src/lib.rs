//! Zero-dependency observability: a process-wide metrics registry, structured
//! span tracing, and per-run timeline aggregation.
//!
//! Design constraints, in priority order:
//!
//! 1. **Near-zero overhead when disabled.** Every instrumentation site first
//!    checks a process-wide `AtomicBool` with a relaxed load. Counters,
//!    gauges, and histograms are no-ops behind that single load; `span!`
//!    expands to a guard whose constructor does nothing but the load. No
//!    locks, no allocation, no syscalls on the disabled path.
//! 2. **Thread safety without contention.** Counters are sharded across
//!    cache-line-padded atomics indexed by thread; histograms use atomic
//!    buckets. The only mutex in the hot path protects the trace ring
//!    buffer, and it is taken only while tracing is enabled.
//! 3. **Determinism of outputs.** Metric snapshots are sorted by name.
//!    Span ids are assigned from a global sequence; the trace export is
//!    ordered by span end. Nothing here feeds back into model selection,
//!    so enabling observability cannot change results.
//!
//! Metric names follow the `crate.component.name` convention, e.g.
//! `runtime.pool.tasks`, `smac.trial.ok`, `kbd.wal.fsyncs`.
//!
//! The crate is intentionally dependency-free: exports are hand-rolled JSON
//! (spans, Chrome trace) and plain text (metrics); richer serde conversions
//! live in the consuming crates.

mod metrics;
mod timeline;
mod trace;

pub use metrics::{
    reset_metrics, snapshot, Counter, Gauge, Histogram, HistogramSummary, MetricsSnapshot,
};
pub use timeline::{AlgoTimeline, Timeline};
pub use trace::{
    disable_tracing, drain_trace, enable_tracing, record_interval, record_span, tracing_enabled,
    SpanGuard, SpanRecord, Trace, TraceStats,
};

use std::sync::atomic::{AtomicBool, Ordering};

static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn the metrics registry on. Instrumentation sites become live; until
/// this is called every counter/gauge/histogram operation is a single
/// relaxed atomic load.
pub fn enable_metrics() {
    METRICS_ENABLED.store(true, Ordering::Release);
}

/// Turn the metrics registry off again (used by tests and benches).
pub fn disable_metrics() {
    METRICS_ENABLED.store(false, Ordering::Release);
}

/// Whether metric recording is currently live.
#[inline(always)]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Start a traced span. Returns a [`SpanGuard`] that records the span into
/// the ring buffer when dropped (if tracing is enabled at entry).
///
/// ```ignore
/// let _g = span!("phase4.tune");
/// let _g = span!("smac.trial", algo = name, trial = idx);
/// ```
///
/// Argument values are formatted with `Display` *only when tracing is
/// enabled*; the disabled path never touches them.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, || String::new())
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::SpanGuard::enter($name, || {
            let mut s = String::new();
            $(
                if !s.is_empty() {
                    s.push(' ');
                }
                s.push_str(concat!(stringify!($key), "="));
                s.push_str(&format!("{}", $value));
            )+
            s
        })
    };
}

/// Minimal JSON string escaper shared by the export paths.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes tests that toggle the global enable flags. Parallel test
/// threads would otherwise observe each other's enable/disable calls.
#[cfg(test)]
pub(crate) fn test_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
use std::sync::Mutex;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_disable_roundtrip() {
        let _g = test_gate();
        disable_metrics();
        assert!(!metrics_enabled());
        enable_metrics();
        assert!(metrics_enabled());
        disable_metrics();
        assert!(!metrics_enabled());
    }

    #[test]
    fn json_escape_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
