//! A zero-dependency metrics registry: named counters, gauges, and
//! power-of-two-bucket histograms.
//!
//! The fabric's components (pipelines, task queues, rule engines, the
//! memory subsystem) expose their totals under **stable metric keys**
//! (see README §Observability for the key table), unifying what used to
//! be ad-hoc struct fields (`squashes`, `queue_peaks`, `MemStats`,
//! `RuleEngineStats`). Registration returns typed handles
//! ([`CounterId`], [`GaugeId`], [`HistogramId`]), so writing a value is a
//! plain `Vec` index store, never a map lookup. Snapshots iterate keys in
//! sorted order, which makes every rendering of the same run
//! byte-identical.
//!
//! Nothing is written per cycle. Counters and gauges are read from the
//! components when a report or snapshot renders the registry, and each
//! per-cycle statistic of a *level* (an occupancy histogram, a stall
//! counter) is a [`LevelStat`] that credits the level's duration when the
//! level changes.

use crate::stats::StallCause;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Handle to a registered counter (monotone `u64`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge (instantaneous `f64`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Histogram over `u64` observations with fixed power-of-two buckets:
/// bucket 0 counts observations equal to 0, bucket `k` (k ≥ 1) counts
/// observations in `[2^(k-1), 2^k)`. 65 buckets cover the whole `u64`
/// range, so observation never saturates or re-buckets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
    saturated: bool,
}

/// Number of power-of-two buckets (value 0 plus one per bit of `u64`).
pub const HISTOGRAM_BUCKETS: usize = 65;

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            saturated: false,
        }
    }

    /// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of a bucket (`2^k - 1`; bucket 0 ⇒ 0).
    pub fn bucket_bound(k: usize) -> u64 {
        if k == 0 {
            0
        } else if k >= 64 {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.observe_n(v, 1);
    }

    /// Records `n` identical observations in O(1).
    ///
    /// Exactly equivalent to calling [`Histogram::observe`] `n` times:
    /// the sum saturates at `u64::MAX` either way, and both paths set
    /// [`Histogram::saturated`] when the true sum no longer fits. This is
    /// what lets a [`LevelStat`] credit a level held for `n` cycles as
    /// one observation per cycle.
    pub fn observe_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(v)] += n;
        self.count += n;
        match v.checked_mul(n).and_then(|vn| self.sum.checked_add(vn)) {
            Some(s) => self.sum = s,
            None => {
                self.sum = u64::MAX;
                self.saturated = true;
            }
        }
        self.max = self.max.max(v);
    }

    /// Total observations (always equals the sum of all buckets).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating; see [`Histogram::saturated`]).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True once the sum has clamped at `u64::MAX`: [`Histogram::sum`]
    /// and [`Histogram::mean`] are lower bounds from that point on, and
    /// renderers should say so instead of printing a plausible-looking
    /// wrong number.
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts, indexed by bucket number (checkpointing).
    pub fn raw_buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Rebuilds a histogram from checkpointed state. `buckets` is indexed
    /// by bucket number and padded with zeros to
    /// [`HISTOGRAM_BUCKETS`] entries if short.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` has more than [`HISTOGRAM_BUCKETS`] entries.
    pub fn from_parts(buckets: Vec<u64>, count: u64, sum: u64, max: u64, saturated: bool) -> Self {
        assert!(buckets.len() <= HISTOGRAM_BUCKETS, "too many buckets");
        let mut b = buckets;
        b.resize(HISTOGRAM_BUCKETS, 0);
        Histogram {
            buckets: b,
            count,
            sum,
            max,
            saturated,
        }
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| (Self::bucket_bound(k), n))
    }
}

#[derive(Clone)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// One metric's value in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Instantaneous gauge.
    Gauge(f64),
    /// Histogram (cloned).
    Histogram(Histogram),
}

/// The registry: `register_*` once, write through the typed handle,
/// snapshot to render. The fabric keeps one registry as the key
/// structure and renders each report or snapshot into a copy of it.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    /// Key → handle number. Shared by copies: a copy made to render a
    /// view allocates no keys (rollback checkpoints render one every
    /// `checkpoint_interval` cycles).
    index: Arc<BTreeMap<String, usize>>,
    metrics: Vec<Metric>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&mut self, key: &str, m: Metric) -> usize {
        assert!(
            !self.index.contains_key(key),
            "metric key `{key}` registered twice"
        );
        let id = self.metrics.len();
        Arc::make_mut(&mut self.index).insert(key.to_string(), id);
        self.metrics.push(m);
        id
    }

    /// Registers a counter under a stable key.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered (keys are an API).
    pub fn counter(&mut self, key: &str) -> CounterId {
        CounterId(self.register(key, Metric::Counter(0)))
    }

    /// Registers a gauge under a stable key.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate key.
    pub fn gauge(&mut self, key: &str) -> GaugeId {
        GaugeId(self.register(key, Metric::Gauge(0.0)))
    }

    /// Registers a histogram under a stable key.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate key.
    pub fn histogram(&mut self, key: &str) -> HistogramId {
        HistogramId(self.register(key, Metric::Histogram(Histogram::new())))
    }

    /// Increments a counter.
    pub fn inc(&mut self, id: CounterId, by: u64) {
        match &mut self.metrics[id.0] {
            Metric::Counter(v) => *v += by,
            _ => unreachable!("typed handle"),
        }
    }

    /// Sets a counter to an absolute value (for components that keep
    /// their own running totals and sync them into the registry).
    pub fn set_counter(&mut self, id: CounterId, value: u64) {
        match &mut self.metrics[id.0] {
            Metric::Counter(v) => *v = value,
            _ => unreachable!("typed handle"),
        }
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        match &self.metrics[id.0] {
            Metric::Counter(v) => *v,
            _ => unreachable!("typed handle"),
        }
    }

    /// Sets a gauge.
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        match &mut self.metrics[id.0] {
            Metric::Gauge(v) => *v = value,
            _ => unreachable!("typed handle"),
        }
    }

    /// Records a histogram observation.
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        match &mut self.metrics[id.0] {
            Metric::Histogram(h) => h.observe(value),
            _ => unreachable!("typed handle"),
        }
    }

    /// Replaces a histogram's contents.
    pub fn set_histogram(&mut self, id: HistogramId, h: Histogram) {
        match &mut self.metrics[id.0] {
            Metric::Histogram(slot) => *slot = h,
            _ => unreachable!("typed handle"),
        }
    }

    /// Current contents of a histogram.
    pub fn histogram_value(&self, id: HistogramId) -> &Histogram {
        match &self.metrics[id.0] {
            Metric::Histogram(h) => h,
            _ => unreachable!("typed handle"),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Overwrites every metric's *value* from a snapshot, leaving the
    /// registered structure (keys, types, handle numbering) untouched.
    /// The snapshot must cover exactly the registered keys with matching
    /// types; restore rebuilds structure by re-running registration, so
    /// any divergence is a config/schema mismatch, reported as `Err`.
    pub fn restore_values(&mut self, snap: &MetricsSnapshot) -> Result<(), String> {
        if snap.entries().len() != self.metrics.len() {
            return Err(format!(
                "metric count mismatch: snapshot has {}, registry has {}",
                snap.entries().len(),
                self.metrics.len()
            ));
        }
        for (key, value) in snap.entries() {
            let &i = self
                .index
                .get(key)
                .ok_or_else(|| format!("metric `{key}` not registered"))?;
            match (&mut self.metrics[i], value) {
                (Metric::Counter(v), MetricValue::Counter(s)) => *v = *s,
                (Metric::Gauge(v), MetricValue::Gauge(s)) => *v = *s,
                (Metric::Histogram(h), MetricValue::Histogram(s)) => *h = s.clone(),
                _ => return Err(format!("metric `{key}` type mismatch")),
            }
        }
        Ok(())
    }

    /// Immutable snapshot, keys in sorted (byte) order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .index
                .iter()
                .map(|(k, &i)| {
                    let v = match &self.metrics[i] {
                        Metric::Counter(v) => MetricValue::Counter(*v),
                        Metric::Gauge(v) => MetricValue::Gauge(*v),
                        Metric::Histogram(h) => MetricValue::Histogram(h.clone()),
                    };
                    (k.clone(), v)
                })
                .collect(),
        }
    }
}

/// The level code of a stall cause: 0 is "not stalled", a cause `c` is
/// `c as u64 + 1`. Stall statistics are levels over these codes.
pub fn stall_level(cause: Option<StallCause>) -> u64 {
    cause.map_or(0, |c| c as u64 + 1)
}

/// Where a [`LevelStat`] credits the cycles its level is held.
#[derive(Clone, Debug)]
enum LevelSink {
    /// One histogram observation of the level per cycle.
    Histogram(HistogramId, Histogram),
    /// A stall level ([`stall_level`]): each stalled cycle counts once in
    /// `total` and once in the counter of its cause, `(cause, counter,
    /// cycles credited)`.
    Stall {
        total: CounterId,
        causes: [(StallCause, CounterId, u64); 2],
    },
}

/// A per-cycle statistic of a level that changes rarely: an occupancy
/// histogram with one observation per cycle, or a stall counter that
/// counts every cycle the level is a stall.
///
/// Instead of sampling every cycle, it keeps `(level, since)`: the level
/// has been held on every cycle after `since`, and the cycles up to and
/// including `since` are already credited. The end of a tick reports the
/// live level through [`LevelStat::update`], which credits the old level
/// for its duration only when the level changed. A report or snapshot
/// adds the pending `now − since` cycles when it renders
/// ([`LevelStat::render`]). A per-cycle histogram of a level equals its
/// duration-weighted histogram, so the result is the per-cycle one, byte
/// for byte, and a quiescent stretch (whose levels cannot change) costs
/// nothing.
#[derive(Clone, Debug)]
pub struct LevelStat {
    sink: LevelSink,
    value: u64,
    since: u64,
}

impl LevelStat {
    /// A level observed once per cycle into the histogram `id`.
    pub fn histogram(id: HistogramId) -> Self {
        Self::with(LevelSink::Histogram(id, Histogram::new()))
    }

    /// A stall level counted into `total` and into the counter of its
    /// cause; `causes` lists the two causes the component can report.
    pub fn stall(total: CounterId, causes: [(StallCause, CounterId); 2]) -> Self {
        Self::with(LevelSink::Stall {
            total,
            causes: causes.map(|(c, id)| (c, id, 0)),
        })
    }

    fn with(sink: LevelSink) -> Self {
        LevelStat {
            sink,
            value: 0,
            since: 0,
        }
    }

    /// The level as of the last [`LevelStat::update`].
    pub fn value(&self) -> u64 {
        self.value
    }

    /// End of cycle `now`: the level is `value`. When it changed, the
    /// old level is credited for every cycle it was held, and the new
    /// one is held from `now` on.
    pub fn update(&mut self, now: u64, value: u64) {
        if value != self.value {
            self.credit(now - 1 - self.since);
            self.value = value;
            self.since = now - 1;
        }
    }

    /// Starts over at cycle `now` with the level `value` and every cycle
    /// through `now` already credited: construction, restore, rollback.
    pub fn reseed(&mut self, now: u64, value: u64) {
        self.value = value;
        self.since = now;
    }

    fn credit(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let v = self.value;
        match &mut self.sink {
            LevelSink::Histogram(_, h) => h.observe_n(v, n),
            LevelSink::Stall { causes, .. } => {
                if let Some((.., cycles)) =
                    causes.iter_mut().find(|(c, ..)| stall_level(Some(*c)) == v)
                {
                    *cycles += n;
                }
            }
        }
    }

    /// Writes the statistic as of cycle `now` into `m`: everything
    /// credited, plus the current level for the `now − since` cycles it
    /// has been held.
    pub fn render(&self, now: u64, m: &mut MetricsRegistry) {
        let mut at = self.clone();
        at.credit(now - self.since);
        match at.sink {
            LevelSink::Histogram(id, h) => m.set_histogram(id, h),
            LevelSink::Stall { total, causes } => {
                m.set_counter(total, causes.iter().map(|&(.., n)| n).sum());
                for (_, id, n) in causes {
                    m.set_counter(id, n);
                }
            }
        }
    }

    /// Takes the credited totals from a registry restored from a
    /// snapshot taken at cycle `now`, and starts over at the level
    /// `value` (see [`LevelStat::reseed`]).
    pub fn load(&mut self, m: &MetricsRegistry, now: u64, value: u64) {
        match &mut self.sink {
            LevelSink::Histogram(id, h) => *h = m.histogram_value(*id).clone(),
            LevelSink::Stall { causes, .. } => {
                for (_, id, n) in causes {
                    *n = m.counter_value(*id);
                }
            }
        }
        self.reseed(now, value);
    }
}

/// A point-in-time copy of every metric, sorted by key.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Builds a snapshot from `(key, value)` entries (checkpoint
    /// restore). Entries are sorted by key, as [`MetricsRegistry::snapshot`]
    /// would produce them.
    pub fn from_entries(mut entries: Vec<(String, MetricValue)>) -> Self {
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        MetricsSnapshot { entries }
    }

    /// All `(key, value)` entries, sorted by key.
    pub fn entries(&self) -> &[(String, MetricValue)] {
        &self.entries
    }

    /// Looks up one metric by key (binary search — entries are sorted).
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Counter value by key, if present and a counter.
    pub fn counter(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by key, if present and a gauge.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram by key, if present and a histogram.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        match self.get(key)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_update_the_right_metric() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("z.count");
        let g = m.gauge("a.gauge");
        let h = m.histogram("m.hist");
        m.inc(c, 2);
        m.inc(c, 3);
        m.set_gauge(g, 1.5);
        m.observe(h, 7);
        let snap = m.snapshot();
        assert_eq!(snap.counter("z.count"), Some(5));
        assert_eq!(snap.gauge("a.gauge"), Some(1.5));
        assert_eq!(snap.histogram("m.hist").unwrap().count(), 1);
        // Sorted order regardless of registration order.
        let keys: Vec<&str> = snap.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a.gauge", "m.hist", "z.count"]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_keys_panic() {
        let mut m = MetricsRegistry::new();
        m.counter("dup");
        m.gauge("dup");
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bound(0), 0);
        assert_eq!(Histogram::bucket_bound(2), 3);
        assert_eq!(Histogram::bucket_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_totals_match_observations() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 3, 8, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.nonzero_buckets().map(|(_, n)| n).sum::<u64>(), 7);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.mean() > 0.0);
        let empty = Histogram::new();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.nonzero_buckets().count(), 0);
    }

    #[test]
    fn observe_n_equals_n_sequential_observes() {
        let mut bulk = Histogram::new();
        let mut seq = Histogram::new();
        for (v, n) in [(0u64, 3u64), (7, 1), (7, 10), (1 << 40, 5), (u64::MAX, 2)] {
            bulk.observe_n(v, n);
            for _ in 0..n {
                seq.observe(v);
            }
        }
        assert_eq!(bulk, seq);
        assert!(bulk.saturated(), "u64::MAX twice must clamp the sum");
        // n == 0 is a no-op.
        let before = bulk.clone();
        bulk.observe_n(123, 0);
        assert_eq!(bulk, before);
    }

    #[test]
    fn saturation_is_sticky_and_flagged() {
        let mut h = Histogram::new();
        h.observe(u64::MAX);
        assert!(!h.saturated());
        assert_eq!(h.sum(), u64::MAX);
        h.observe(1);
        assert!(h.saturated());
        assert_eq!(h.sum(), u64::MAX);
        h.observe(0);
        assert!(h.saturated(), "saturation never clears");
        let snap_h = {
            let mut m = MetricsRegistry::new();
            let id = m.histogram("sat");
            let mut h = Histogram::new();
            h.observe_n(u64::MAX, 3);
            m.set_histogram(id, h);
            m.snapshot().histogram("sat").unwrap().clone()
        };
        assert!(snap_h.saturated(), "flag survives the snapshot clone");
    }

    #[test]
    fn empty_histogram_snapshot_has_finite_mean() {
        // Registered but never observed: the count == 0 path must yield
        // 0.0, never NaN (NaN is not valid JSON and would poison the
        // deterministic report rendering downstream).
        let mut m = MetricsRegistry::new();
        m.histogram("never.observed");
        let snap = m.snapshot();
        let h = snap.histogram("never.observed").unwrap();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.mean().is_finite());
        assert!(!h.saturated());
    }

    #[test]
    fn level_stats_equal_per_cycle_sampling_across_a_restore() {
        use StallCause::{QueueFull, ReserveFull};
        let mut m = MetricsRegistry::new();
        let h = m.histogram("occ");
        let (t, a, b) = (
            m.counter("stall"),
            m.counter("stall.a"),
            m.counter("stall.b"),
        );
        let fresh = || {
            (
                LevelStat::histogram(h),
                LevelStat::stall(t, [(QueueFull, a), (ReserveFull, b)]),
            )
        };
        let (mut occ, mut stall) = fresh();
        let mut reference = m.clone();
        let levels = [0u64, 0, 3, 3, 3, 1, 0, 7, 7, 2, 2, 2, 5];
        for (i, &v) in levels.iter().enumerate() {
            let now = i as u64 + 1;
            let cause = [None, Some(QueueFull), Some(ReserveFull)][v as usize % 3];
            occ.update(now, v);
            stall.update(now, stall_level(cause));
            reference.observe(h, v);
            if let Some(c) = cause {
                reference.inc(t, 1);
                reference.inc(if c == QueueFull { a } else { b }, 1);
            }
            let mut view = m.clone();
            occ.render(now, &mut view);
            stall.render(now, &mut view);
            assert_eq!(view.snapshot(), reference.snapshot(), "cycle {now}");
            if now == 6 {
                // A restore: a fresh pair takes the rendered totals and
                // carries on from this cycle.
                let (o, s) = (occ.value(), stall.value());
                (occ, stall) = fresh();
                occ.load(&view, now, o);
                stall.load(&view, now, s);
            }
        }
    }

    #[test]
    fn set_counter_syncs_absolute_values() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("synced");
        m.set_counter(c, 41);
        m.set_counter(c, 42);
        assert_eq!(m.counter_value(c), 42);
    }
}
