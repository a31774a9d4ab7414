//! Process-wide metrics registry for the ddx workspace.
//!
//! Every layer of the pipeline (signing memos, answer memo, fault decorator,
//! probe walk, grok passes, fixer, pipeline stages) registers counters,
//! gauges, and fixed-bucket latency histograms here, keyed by a `&'static
//! str` name plus a small label set. The registry is the single place all
//! of those numbers can be read back from: [`Registry::snapshot`] freezes
//! the current values into a JSON-ready [`MetricsSnapshot`] that can be
//! diffed against an earlier snapshot, dumped as JSON (`--metrics-out`), or
//! rendered as a run-report table.
//!
//! Design constraints:
//!
//! - **Cheap hot path.** Handles ([`Counter`], [`Gauge`], [`Histogram`])
//!   are `Arc`-backed atomics; instrumented code looks a handle up once
//!   (at construction or per run) and then bumps it with a single relaxed
//!   atomic op. The registry lock is only taken when a handle is created.
//! - **Thread-safe by construction.** All mutation is atomic; the registry
//!   itself is a `RwLock` over the name→handle maps. Worker threads bump
//!   the shared handles directly, so parallel workers aggregate into one
//!   set of totals that outlives them.
//! - **One count per event.** The registry is the only tally: no struct
//!   keeps a private counter next to a registry handle for the same event.
//! - **No new dependencies.** Snapshots go through `ddx-json`, the
//!   workspace's one JSON path.
//!
//! Metric naming follows `crate.subsystem.event` with optional labels, e.g.
//! `server.fault.injected{kind=timeout}` — see DESIGN.md §11 for the full
//! scheme and the recipe for adding a metric.

mod snapshot;

use snapshot::HistogramSnapshot;
pub use snapshot::MetricsSnapshot;

/// The FNV-1a offset basis: the start of an [`fnv1a`] chain.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over `bytes`, continuing from `acc` ([`FNV_OFFSET`] to start).
/// The workspace's one stable (cross-platform, cross-release) hash: zone
/// fingerprints, fault draws and shard checksums are built on it.
#[inline]
pub fn fnv1a(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Default histogram bucket upper bounds, in microseconds. Chosen to span
/// the sub-millisecond memo hits up through multi-second corpus stages;
/// values above the last bound land in a final overflow bucket.
pub(crate) const DEFAULT_LATENCY_BOUNDS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000,
];

/// A metric identity: a static name plus a small, sorted label set.
///
/// Labels are sorted by key at construction so that the same logical metric
/// always resolves to the same entry (and renders identically) regardless
/// of the order the call site listed them in.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MetricKey {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

impl MetricKey {
    fn new(name: &'static str, labels: &[(&'static str, &str)]) -> Self {
        let mut labels: Vec<(&'static str, String)> =
            labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect();
        labels.sort_unstable_by(|a, b| a.0.cmp(b.0));
        Self { name, labels }
    }

    /// Render as `name` or `name{k=v,k2=v2}` — the form snapshot maps are
    /// keyed by.
    fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_string();
        }
        let mut out = String::with_capacity(self.name.len() + 16);
        out.push_str(self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out.push('}');
        out
    }
}

/// A monotonically increasing counter. Clones share the same cell, so a
/// handle can be cached per-instance or per-thread and bumped lock-free.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge (set/adjust semantics, e.g. live entry counts).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    bounds: &'static [u64],
    /// One slot per bound plus a trailing overflow bucket; slot `i` counts
    /// values `v` with `bounds[i-1] < v <= bounds[i]`.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram; values are microseconds under the default
/// bounds, but any `u64` scale works with explicit bounds.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn with_bounds(bounds: &'static [u64]) -> Self {
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self(Arc::new(HistogramCore {
            bounds,
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    pub fn record(&self, value: u64) {
        // First bucket whose bound is >= value; everything above the last
        // bound falls into the overflow slot at `bounds.len()`.
        let idx = self.0.bounds.partition_point(|&b| value > b);
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub(crate) fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// RAII timer: records the elapsed wall time (µs) when dropped.
    pub fn start_timer(&self) -> Timer {
        Timer {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    fn freeze(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.to_vec(),
            counts: self
                .0
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Records elapsed wall time into a [`Histogram`] on drop.
#[derive(Debug)]
pub struct Timer {
    hist: Histogram,
    start: Instant,
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

/// The metrics registry: three name→handle maps behind `RwLock`s. Handle
/// lookup takes the read lock on the happy path and the write lock only on
/// first registration; bumping a handle never touches the registry.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<HashMap<MetricKey, Counter>>,
    gauges: RwLock<HashMap<MetricKey, Gauge>>,
    histograms: RwLock<HashMap<MetricKey, Histogram>>,
}

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter `name{labels}`.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        if let Some(c) = read_lock(&self.counters).get(&key) {
            return c.clone();
        }
        write_lock(&self.counters).entry(key).or_default().clone()
    }

    /// Get or register the gauge `name{labels}`.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        if let Some(g) = read_lock(&self.gauges).get(&key) {
            return g.clone();
        }
        write_lock(&self.gauges).entry(key).or_default().clone()
    }

    /// Get or register a histogram with the default latency bounds (µs).
    pub fn histogram(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Histogram {
        self.histogram_with_bounds(name, labels, DEFAULT_LATENCY_BOUNDS_US)
    }

    /// Get or register a histogram with explicit bucket bounds. The bounds
    /// of the first registration win; later callers share that histogram.
    pub fn histogram_with_bounds(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &'static [u64],
    ) -> Histogram {
        let key = MetricKey::new(name, labels);
        if let Some(h) = read_lock(&self.histograms).get(&key) {
            return h.clone();
        }
        write_lock(&self.histograms)
            .entry(key)
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .clone()
    }

    /// Freeze every registered metric into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (key, c) in read_lock(&self.counters).iter() {
            snap.counters.insert(key.render(), c.get());
        }
        for (key, g) in read_lock(&self.gauges).iter() {
            snap.gauges.insert(key.render(), g.get());
        }
        for (key, h) in read_lock(&self.histograms).iter() {
            snap.histograms.insert(key.render(), h.freeze());
        }
        snap
    }
}

/// The process-wide registry every ddx crate reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Get or register a counter on the global registry.
pub fn counter(name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
    global().counter(name, labels)
}

/// Get or register a gauge on the global registry.
pub fn gauge(name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
    global().gauge(name, labels)
}

/// Get or register a histogram (default µs bounds) on the global registry.
pub fn histogram(name: &'static str, labels: &[(&'static str, &str)]) -> Histogram {
    global().histogram(name, labels)
}

/// Snapshot the global registry.
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        // Chaining is the same as hashing the concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn counter_handles_share_one_cell() {
        let reg = Registry::new();
        let a = reg.counter("test.counter", &[]);
        let b = reg.counter("test.counter", &[]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn labels_are_order_insensitive() {
        let reg = Registry::new();
        let a = reg.counter("test.labeled", &[("x", "1"), ("y", "2")]);
        let b = reg.counter("test.labeled", &[("y", "2"), ("x", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("test.labeled{x=1,y=2}"), Some(&1));
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        const THREADS: usize = 8;
        const BUMPS: u64 = 10_000;
        let reg = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let reg = Arc::clone(&reg);
            handles.push(thread::spawn(move || {
                let c = reg.counter("test.concurrent", &[]);
                let h = reg.histogram("test.concurrent_us", &[]);
                for i in 0..BUMPS {
                    c.inc();
                    h.record(i % 7);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            reg.counter("test.concurrent", &[]).get(),
            THREADS as u64 * BUMPS
        );
        assert_eq!(
            reg.histogram("test.concurrent_us", &[]).count(),
            THREADS as u64 * BUMPS
        );
    }

    #[test]
    fn histogram_bucket_boundaries_are_stable() {
        static BOUNDS: &[u64] = &[10, 100, 1_000];
        let reg = Registry::new();
        let h = reg.histogram_with_bounds("test.hist", &[], BOUNDS);
        // Boundary values land in the bucket they bound (v <= bound).
        for v in [0, 10] {
            h.record(v);
        }
        for v in [11, 100] {
            h.record(v);
        }
        for v in [101, 1_000] {
            h.record(v);
        }
        for v in [1_001, u64::MAX] {
            h.record(v);
        }
        let snap = h.freeze();
        assert_eq!(snap.bounds, vec![10, 100, 1_000]);
        assert_eq!(snap.counts, vec![2, 2, 2, 2]);
        assert_eq!(snap.count, 8);
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = Registry::new();
        let g = reg.gauge("test.gauge", &[]);
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        assert_eq!(reg.snapshot().gauges.get("test.gauge"), Some(&3));
    }

    #[test]
    fn timer_records_into_histogram() {
        let reg = Registry::new();
        let h = reg.histogram("test.timer_us", &[]);
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.count(), 1);
    }
}
