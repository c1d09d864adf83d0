//! Process-wide registry of named metrics.
//!
//! A [`Registry`] is a cheaply cloneable handle to a shared table of named
//! [`Counter`]s, [`Gauge`]s, and [`Histogram`](crate::Histogram)s. Components
//! hold their own clone and record into it; a snapshot or JSON report reads a
//! consistent view of all three tables at once. Lookup happens once per
//! metric handle (`counter("net.frames_sent")`), after which recording is a
//! single atomic operation (counters/gauges) or a short mutex-guarded bucket
//! increment (histograms).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::clock::Clock;
use crate::histogram::Histogram;
use crate::report::Snapshot;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, map sizes).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to an absolute value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Sets the gauge from an unsigned count, saturating at `i64::MAX`
    /// instead of wrapping (queue depths and map sizes are `usize` at the
    /// call sites; a silent `as i64` reinterpretation would report a huge
    /// depth as negative).
    pub fn set_usize(&self, value: usize) {
        self.set(i64::try_from(value).unwrap_or(i64::MAX));
    }

    /// Sets the gauge from a `u64` count, saturating at `i64::MAX`.
    pub fn set_u64(&self, value: u64) {
        self.set(i64::try_from(value).unwrap_or(i64::MAX));
    }

    /// Raises the gauge to `value` if it exceeds the current reading
    /// (a saturating high-water mark).
    pub fn set_max_u64(&self, value: u64) {
        let v = i64::try_from(value).unwrap_or(i64::MAX);
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta to the gauge.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared handle to a named [`Histogram`].
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.lock().record(value);
    }

    /// Copies out the current histogram state.
    pub fn snapshot(&self) -> Histogram {
        self.lock().clone()
    }

    /// Starts a span that records its duration (in microseconds, as measured
    /// by `clock`) into this histogram when dropped or
    /// [`finish`](Span::finish)ed. Hot paths resolve the handle once and
    /// call this instead of [`Registry::span`], which looks the name up.
    pub fn span<C: Clock>(&self, clock: C) -> Span<C> {
        Span {
            histogram: self.clone(),
            started_at: clock.now_micros(),
            clock,
            done: false,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Histogram> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, HistogramHandle>,
}

/// Cloneable handle to a shared metrics table. See the module docs.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide default registry used by the [`span!`](crate::span!)
    /// macro. Created on first use; lives for the rest of the process.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Returns the counter registered under `name`, creating it if needed.
    pub fn counter(&self, name: &str) -> Counter {
        get_or_register(&mut self.lock().counters, name)
    }

    /// Returns the gauge registered under `name`, creating it if needed.
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_register(&mut self.lock().gauges, name)
    }

    /// Returns the histogram registered under `name`, creating it if needed.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        get_or_register(&mut self.lock().histograms, name)
    }

    /// Records one sample into the histogram named `name`.
    pub fn record(&self, name: &str, value: u64) {
        self.histogram(name).record(value);
    }

    /// Starts a span that records its duration (in microseconds, as measured
    /// by `clock`) into the histogram named `name` when dropped or
    /// [`finish`](Span::finish)ed.
    pub fn span<C: Clock>(&self, name: &str, clock: C) -> Span<C> {
        self.histogram(name).span(clock)
    }

    /// Reads a consistent snapshot of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Resets every registered metric to its empty state, keeping the handles
    /// other components already hold valid and connected.
    pub fn reset(&self) {
        let inner = self.lock();
        for counter in inner.counters.values() {
            counter.0.store(0, Ordering::Relaxed);
        }
        for gauge in inner.gauges.values() {
            gauge.0.store(0, Ordering::Relaxed);
        }
        for histogram in inner.histograms.values() {
            *histogram.lock() = Histogram::new();
        }
    }
}

/// The metric registered under `name`, registering a fresh one first if
/// there is none. Only the insert allocates the key: a lookup of a name that
/// already exists probes with the borrowed `&str`.
fn get_or_register<M: Clone + Default>(map: &mut BTreeMap<String, M>, name: &str) -> M {
    if let Some(metric) = map.get(name) {
        return metric.clone();
    }
    map.entry(name.to_string()).or_default().clone()
}

/// A kind of metric a [`LazyHandle`] can resolve.
pub trait Metric: Clone {
    /// The metric of this kind registered under `name`, created if needed.
    fn resolve(registry: &Registry, name: &str) -> Self;
}

impl Metric for Counter {
    fn resolve(registry: &Registry, name: &str) -> Self {
        registry.counter(name)
    }
}

impl Metric for Gauge {
    fn resolve(registry: &Registry, name: &str) -> Self {
        registry.gauge(name)
    }
}

impl Metric for HistogramHandle {
    fn resolve(registry: &Registry, name: &str) -> Self {
        registry.histogram(name)
    }
}

/// A metric handle resolved on first use, then kept.
///
/// Resolving a handle registers its name, so a handle resolved up front
/// puts a zero-valued key into every snapshot taken before its first event.
/// A `LazyHandle` registers the key at its first event, exactly as a
/// by-name call there would, and records through the kept handle after
/// that. Hot paths use it for every metric whose key must not exist before
/// the event does (a generation counter, a timeout counter).
#[derive(Debug)]
pub struct LazyHandle<M> {
    registry: Registry,
    name: Cow<'static, str>,
    handle: OnceLock<M>,
}

impl<M: Metric> LazyHandle<M> {
    /// A handle for the metric `name` in `registry`, not resolved yet.
    pub fn new(registry: &Registry, name: impl Into<Cow<'static, str>>) -> Self {
        LazyHandle {
            registry: registry.clone(),
            name: name.into(),
            handle: OnceLock::new(),
        }
    }

    /// The metric, registered on the first call.
    pub fn get(&self) -> &M {
        self.handle
            .get_or_init(|| M::resolve(&self.registry, &self.name))
    }
}

/// An in-flight timing measurement. Records the elapsed microseconds into its
/// histogram exactly once, either on [`finish`](Span::finish) or on drop.
#[must_use = "a span measures the time until it is dropped or finished"]
pub struct Span<C: Clock> {
    histogram: HistogramHandle,
    started_at: u64,
    clock: C,
    done: bool,
}

impl<C: Clock> Span<C> {
    /// Ends the span now and returns the elapsed microseconds.
    pub fn finish(mut self) -> u64 {
        self.record_once()
    }

    /// Drops the span without recording anything.
    pub fn cancel(mut self) {
        self.done = true;
    }

    fn record_once(&mut self) -> u64 {
        if self.done {
            return 0;
        }
        self.done = true;
        let elapsed = self.clock.now_micros().saturating_sub(self.started_at);
        self.histogram.record(elapsed);
        elapsed
    }
}

impl<C: Clock> Drop for Span<C> {
    fn drop(&mut self) {
        self.record_once();
    }
}

/// Times the enclosing scope against the global registry's wall clock.
///
/// `span!("server.derive_R")` returns a guard; the elapsed wall time in
/// microseconds is recorded into the global histogram of that name when the
/// guard goes out of scope. Pass a registry and/or clock explicitly to record
/// elsewhere: `span!(registry, "name")` or `span!(registry, "name", clock)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Registry::global().span($name, $crate::WallClock::new())
    };
    ($registry:expr, $name:expr) => {
        ($registry).span($name, $crate::WallClock::new())
    };
    ($registry:expr, $name:expr, $clock:expr) => {
        ($registry).span($name, $clock)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn counters_and_gauges_are_shared_by_name() {
        let registry = Registry::new();
        registry.counter("hits").inc();
        registry.counter("hits").add(4);
        assert_eq!(registry.counter("hits").get(), 5);

        registry.gauge("depth").set(7);
        registry.gauge("depth").add(-3);
        assert_eq!(registry.gauge("depth").get(), 4);
    }

    #[test]
    fn span_records_elapsed_micros_on_drop() {
        let registry = Registry::new();
        let clock = ManualClock::new();
        {
            let _span = registry.span("op", clock.clone());
            clock.advance(250);
        }
        let h = registry.histogram("op").snapshot();
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(250));
    }

    #[test]
    fn handle_span_records_into_its_histogram() {
        let registry = Registry::new();
        let handle = registry.histogram("op");
        let clock = ManualClock::new();
        {
            let _span = handle.span(clock.clone());
            clock.advance(40);
        }
        assert_eq!(handle.span(clock.clone()).finish(), 0);
        let h = registry.histogram("op").snapshot();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(40));
    }

    #[test]
    fn finished_span_does_not_double_record() {
        let registry = Registry::new();
        let clock = ManualClock::new();
        let span = registry.span("op", clock.clone());
        clock.advance(10);
        assert_eq!(span.finish(), 10);
        assert_eq!(registry.histogram("op").snapshot().count(), 1);
    }

    #[test]
    fn cancelled_span_records_nothing() {
        let registry = Registry::new();
        let span = registry.span("op", ManualClock::new());
        span.cancel();
        assert_eq!(registry.histogram("op").snapshot().count(), 0);
    }

    #[test]
    fn reset_zeroes_existing_handles() {
        let registry = Registry::new();
        let counter = registry.counter("c");
        counter.add(9);
        registry.record("h", 42);
        registry.reset();
        assert_eq!(counter.get(), 0);
        assert_eq!(registry.histogram("h").snapshot().count(), 0);
        counter.inc();
        assert_eq!(registry.counter("c").get(), 1, "handles stay connected");
    }

    #[test]
    fn lazy_handle_registers_its_key_on_first_use() {
        let registry = Registry::new();
        let lazy = LazyHandle::<Counter>::new(&registry, "late");
        assert!(registry.snapshot().counters.is_empty(), "no key before use");
        lazy.get().inc();
        lazy.get().add(2);
        assert_eq!(registry.snapshot().counters["late"], 3);
        let histogram = LazyHandle::<HistogramHandle>::new(&registry, String::from("h"));
        histogram.get().record(5);
        assert_eq!(registry.histogram("h").snapshot().count(), 1);
    }

    #[test]
    fn lookups_of_existing_names_return_the_same_metric() {
        let registry = Registry::new();
        let first = registry.gauge("g");
        first.set(3);
        assert_eq!(registry.gauge("g").get(), 3);
        assert_eq!(registry.snapshot().gauges.len(), 1);
    }

    #[test]
    fn clones_share_the_same_tables() {
        let registry = Registry::new();
        let clone = registry.clone();
        clone.counter("shared").inc();
        assert_eq!(registry.counter("shared").get(), 1);
    }
}
