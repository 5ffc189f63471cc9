//! Process-wide metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Handles are declared `static` at the instrumentation site:
//!
//! ```ignore
//! static TASKS: Counter = Counter::new("runtime.pool.tasks");
//! TASKS.add(1);
//! ```
//!
//! The first live operation on a handle registers its storage in the global
//! registry (allocating a leaked `&'static` entry); every later operation is
//! an atomic op on pre-existing storage. When metrics are disabled the
//! operation is a single relaxed load and an early return — the registry is
//! never touched, so unused instrumentation costs nothing.

use crate::{json_escape, metrics_enabled};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of counter shards. Power of two; eight lines covers the pool
/// widths the runtime uses without wasting cache on wider machines.
const SHARDS: usize = 8;

/// Histogram bucket count: bucket `k` holds values in `[2^(k-1), 2^k)`
/// (bucket 0 holds zero), so 64 buckets cover the full `u64` range.
const BUCKETS: usize = 64;

#[repr(align(64))]
struct PaddedAtomicU64(AtomicU64);

struct ShardedCounter {
    shards: [PaddedAtomicU64; SHARDS],
}

impl ShardedCounter {
    fn new() -> Self {
        ShardedCounter {
            shards: std::array::from_fn(|_| PaddedAtomicU64(AtomicU64::new(0))),
        }
    }

    fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

struct GaugeCell(AtomicI64);

struct HistogramCell {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    fn summary(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSummary {
            count,
            sum,
            max,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: quantile(&buckets, count, 0.50),
            p99: quantile(&buckets, count, 0.99),
        }
    }
}

/// Bucket `k` holds values in `[2^(k-1), 2^k)`; zero lands in bucket 0.
fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Quantile estimate: walk the cumulative bucket counts and report the
/// upper bound of the bucket containing the target rank. Coarse (power of
/// two resolution) but deterministic and allocation-free to record.
fn quantile(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = ((count as f64) * q).ceil() as u64;
    let mut seen = 0u64;
    for (k, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= target {
            return bucket_upper_bound(k);
        }
    }
    bucket_upper_bound(BUCKETS - 1)
}

fn bucket_upper_bound(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Per-thread shard index, assigned round-robin at first use.
fn shard_index() -> usize {
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let mut idx = s.get();
        if idx == usize::MAX {
            idx = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(idx);
        }
        idx
    })
}

enum Storage {
    Counter(&'static ShardedCounter),
    Gauge(&'static GaugeCell),
    Histogram(&'static HistogramCell),
}

struct Registry {
    entries: Vec<(&'static str, Storage)>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry { entries: Vec::new() }))
}

fn register_counter(name: &'static str) -> &'static ShardedCounter {
    let mut reg = registry().lock().unwrap();
    for (n, s) in &reg.entries {
        if *n == name {
            if let Storage::Counter(c) = s {
                return c;
            }
            panic!("metric {name:?} registered with a different kind");
        }
    }
    let cell: &'static ShardedCounter = Box::leak(Box::new(ShardedCounter::new()));
    reg.entries.push((name, Storage::Counter(cell)));
    cell
}

fn register_gauge(name: &'static str) -> &'static GaugeCell {
    let mut reg = registry().lock().unwrap();
    for (n, s) in &reg.entries {
        if *n == name {
            if let Storage::Gauge(g) = s {
                return g;
            }
            panic!("metric {name:?} registered with a different kind");
        }
    }
    let cell: &'static GaugeCell = Box::leak(Box::new(GaugeCell(AtomicI64::new(0))));
    reg.entries.push((name, Storage::Gauge(cell)));
    cell
}

fn register_histogram(name: &'static str) -> &'static HistogramCell {
    let mut reg = registry().lock().unwrap();
    for (n, s) in &reg.entries {
        if *n == name {
            if let Storage::Histogram(h) = s {
                return h;
            }
            panic!("metric {name:?} registered with a different kind");
        }
    }
    let cell: &'static HistogramCell = Box::leak(Box::new(HistogramCell::new()));
    reg.entries.push((name, Storage::Histogram(cell)));
    cell
}

/// A monotonically increasing counter, sharded across threads.
pub struct Counter {
    name: &'static str,
    slot: OnceLock<&'static ShardedCounter>,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            slot: OnceLock::new(),
        }
    }

    /// A counter whose name is built at runtime (e.g. per event loop:
    /// `kbd.loop.3.wakeups`). The name is leaked — intended for a small,
    /// bounded set of long-lived instances, not per-request churn.
    pub fn new_owned(name: String) -> Self {
        Counter {
            name: Box::leak(name.into_boxed_str()),
            slot: OnceLock::new(),
        }
    }

    /// Increment by `n`. A single relaxed load when metrics are disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !metrics_enabled() {
            return;
        }
        self.slot.get_or_init(|| register_counter(self.name)).add(n);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 if never registered).
    pub fn value(&self) -> u64 {
        self.slot.get().map(|c| c.value()).unwrap_or_else(|| {
            // The handle may not have been touched while a different handle
            // (or a prior test) registered the same name.
            lookup_counter(self.name)
        })
    }
}

fn lookup_counter(name: &str) -> u64 {
    let reg = registry().lock().unwrap();
    for (n, s) in &reg.entries {
        if *n == name {
            if let Storage::Counter(c) = s {
                return c.value();
            }
        }
    }
    0
}

/// A last-value-wins signed gauge.
pub struct Gauge {
    name: &'static str,
    slot: OnceLock<&'static GaugeCell>,
}

impl Gauge {
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            slot: OnceLock::new(),
        }
    }

    #[inline]
    pub fn set(&self, v: i64) {
        if !metrics_enabled() {
            return;
        }
        self.slot
            .get_or_init(|| register_gauge(self.name))
            .0
            .store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        if !metrics_enabled() {
            return;
        }
        self.slot
            .get_or_init(|| register_gauge(self.name))
            .0
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` when it reads lower — a high-water mark.
    #[inline]
    pub fn raise(&self, v: i64) {
        if !metrics_enabled() {
            return;
        }
        self.slot
            .get_or_init(|| register_gauge(self.name))
            .0
            .fetch_max(v, Ordering::Relaxed);
    }

    pub fn value(&self) -> i64 {
        self.slot
            .get()
            .map(|g| g.0.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// A fixed-bucket (power of two) histogram of `u64` samples, typically
/// microsecond durations or byte counts.
pub struct Histogram {
    name: &'static str,
    slot: OnceLock<&'static HistogramCell>,
}

impl Histogram {
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            slot: OnceLock::new(),
        }
    }

    #[inline]
    pub fn record(&self, value: u64) {
        if !metrics_enabled() {
            return;
        }
        self.slot
            .get_or_init(|| register_histogram(self.name))
            .record(value);
    }

    /// Record a duration in whole microseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }

    pub fn summary(&self) -> HistogramSummary {
        self.slot
            .get()
            .map(|h| h.summary())
            .unwrap_or_else(HistogramSummary::empty)
    }
}

/// Point-in-time digest of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub mean: f64,
    /// Upper bound of the bucket holding the median sample.
    pub p50: u64,
    /// Upper bound of the bucket holding the 99th-percentile sample.
    pub p99: u64,
}

impl HistogramSummary {
    pub fn empty() -> Self {
        HistogramSummary {
            count: 0,
            sum: 0,
            max: 0,
            mean: 0.0,
            p50: 0,
            p99: 0,
        }
    }
}

/// Deterministic (name-sorted) snapshot of every registered metric.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Human-readable listing, one metric per line, sorted by name.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name} = {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{name} = count {} / mean {:.1} / p50 {} / p99 {} / max {}\n",
                h.count, h.mean, h.p50, h.p99, h.max
            ));
        }
        out
    }

    /// Hand-rolled JSON object: `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(name), v));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(name), v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{:.3},\"p50\":{},\"p99\":{},\"max\":{}}}",
                json_escape(name),
                h.count,
                h.sum,
                h.mean,
                h.p50,
                h.p99,
                h.max
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Snapshot every registered metric, sorted by name within each kind.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry().lock().unwrap();
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (name, s) in &reg.entries {
        match s {
            Storage::Counter(c) => counters.push((name.to_string(), c.value())),
            Storage::Gauge(g) => gauges.push((name.to_string(), g.0.load(Ordering::Relaxed))),
            Storage::Histogram(h) => histograms.push((name.to_string(), h.summary())),
        }
    }
    counters.sort();
    gauges.sort();
    histograms.sort_by(|a, b| a.0.cmp(&b.0));
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Zero every registered metric. Registration (names and storage) persists;
/// intended for tests and for per-process servers that report deltas.
pub fn reset_metrics() {
    let reg = registry().lock().unwrap();
    for (_, s) in &reg.entries {
        match s {
            Storage::Counter(c) => c.reset(),
            Storage::Gauge(g) => g.0.store(0, Ordering::Relaxed),
            Storage::Histogram(h) => h.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{disable_metrics, enable_metrics};

    #[test]
    fn counter_counts_only_when_enabled() {
        let _g = crate::test_gate();
        static C: Counter = Counter::new("test.metrics.counter_gate");
        disable_metrics();
        C.add(5);
        enable_metrics();
        let before = C.value();
        C.add(3);
        C.inc();
        assert_eq!(C.value(), before + 4);
        disable_metrics();
        C.add(100);
        assert_eq!(C.value(), before + 4);
    }

    #[test]
    fn owned_counter_behaves_like_a_static_one() {
        let _g = crate::test_gate();
        enable_metrics();
        // Runtime-built names — the per-event-loop pattern
        // (`kbd.loop.N.*`). Two handles with the same name must share
        // one underlying counter through the registry.
        let a = Counter::new_owned(format!("test.metrics.owned.{}", 7));
        let b = Counter::new_owned("test.metrics.owned.7".to_string());
        let before = a.value();
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), before + 5);
        assert_eq!(b.value(), before + 5);
        disable_metrics();
        a.inc();
        assert_eq!(a.value(), before + 5);
    }

    #[test]
    fn counter_sums_across_threads() {
        let _g = crate::test_gate();
        static C: Counter = Counter::new("test.metrics.threads");
        enable_metrics();
        let before = C.value();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        C.inc();
                    }
                });
            }
        });
        assert_eq!(C.value(), before + 4000);
    }

    #[test]
    fn gauge_set_and_add() {
        let _g = crate::test_gate();
        static G: Gauge = Gauge::new("test.metrics.gauge");
        enable_metrics();
        G.set(7);
        assert_eq!(G.value(), 7);
        G.add(-3);
        assert_eq!(G.value(), 4);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let _g = crate::test_gate();
        static H: Histogram = Histogram::new("test.metrics.hist");
        enable_metrics();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            H.record(v);
        }
        let s = H.summary();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1110);
        assert_eq!(s.max, 1000);
        // p50 is the upper bound of the bucket holding the 3rd sample
        // (value 3, bucket [2,4) → upper bound 3).
        assert_eq!(s.p50, 3);
        // p99 lands in the bucket of the largest sample (1000 → [512,1024)).
        assert_eq!(s.p99, 1023);
        assert!(s.p99 >= s.p50);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn snapshot_is_sorted() {
        let _g = crate::test_gate();
        static CZ: Counter = Counter::new("test.metrics.zzz");
        static CA: Counter = Counter::new("test.metrics.aaa");
        enable_metrics();
        CZ.inc();
        CA.inc();
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        let json = snap.to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"test.metrics.aaa\""));
    }
}
