//! Hierarchical metrics registry: named counters, gauges, and log₂-bucketed
//! histograms with stable insertion order.
//!
//! Components expose a `collect_metrics(&self, m: &mut ScopedMetrics)` hook
//! and the runner snapshots them into a [`MetricsRegistry`] at epoch
//! boundaries, so hot simulation paths never touch string keys — they bump
//! plain integer fields and the registry is populated from those at
//! collection points. The registry itself is also cheap to bypass: when
//! constructed disabled, every mutation short-circuits on a single branch
//! and allocates nothing.
//!
//! Determinism: iteration order is insertion order, which is fixed by the
//! (deterministic) collection code path, so serialising a registry yields
//! byte-identical output across runs.

use std::collections::HashMap;

/// Number of log₂ buckets in a [`LogHistogram`]. Bucket 0 holds values in
/// `[0, 2)`; bucket `b >= 1` holds `[2^b, 2^(b+1))`. Covers the full `u64`
/// range.
pub const HIST_BUCKETS: usize = 64;

/// A log₂-bucketed histogram of `u64` samples (latencies, queue depths).
///
/// Stores only `count`, `sum`, and the bucket array, so two snapshots can be
/// subtracted bucket-wise to produce an exact per-window histogram. Quantile
/// queries return the *lower bound* of the bucket containing the requested
/// rank — coarse, but deterministic and monotone.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    count: u64,
    sum: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self { count: 0, sum: 0, buckets: [0; HIST_BUCKETS] }
    }
}

impl LogHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a sample.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v < 2 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `b`.
    pub fn bucket_lo(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << b
        }
    }

    /// Reconstruct a histogram from serialised parts (persistence codecs).
    /// Out-of-range bucket indices are ignored.
    pub fn from_parts(count: u64, sum: u64, buckets: &[(usize, u64)]) -> Self {
        let mut h = Self { count, sum, ..Self::default() };
        for &(b, n) in buckets {
            if b < HIST_BUCKETS {
                h.buckets[b] = n;
            }
        }
        h
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Lower bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), or 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_lo(b);
            }
        }
        Self::bucket_lo(HIST_BUCKETS - 1)
    }

    /// Non-empty `(bucket_index, count)` pairs in ascending bucket order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (b, n))
    }

    /// Accumulate another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// Bucket-wise difference `self - prev`, for per-window views of a
    /// monotonically growing histogram. Saturates at zero per field.
    pub fn delta_from(&self, prev: &LogHistogram) -> LogHistogram {
        let mut out = LogHistogram::new();
        out.count = self.count.saturating_sub(prev.count);
        out.sum = self.sum.saturating_sub(prev.sum);
        for (i, o) in out.buckets.iter_mut().enumerate() {
            *o = self.buckets[i].saturating_sub(prev.buckets[i]);
        }
        out
    }
}

/// Dense handle to a counter interned with
/// [`MetricsRegistry::intern_counter`]. Valid only for the registry that
/// issued it (and for same-layout clones of that registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Dense handle to a gauge interned with [`MetricsRegistry::intern_gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Dense handle to a histogram interned with
/// [`MetricsRegistry::intern_hist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

/// Hierarchical registry of named counters (`u64`), gauges (`f64`), and
/// [`LogHistogram`]s. Names are dot-separated paths (`mem.fast.ch0.reads`);
/// the [`scoped`](MetricsRegistry::scoped) helper prepends a prefix so
/// components stay ignorant of where they sit in the hierarchy.
///
/// Iteration order is insertion order (backed by an index map), so a
/// registry built by a deterministic collection pass serialises identically
/// every run.
///
/// Besides the name-keyed API there is an *interned* API: resolve a name
/// once with [`intern_counter`](MetricsRegistry::intern_counter) (and
/// friends) and then read/write through the dense integer handle with no
/// hashing or string formatting. Interning a name that already exists
/// returns its existing position, so a registry populated by a string-keyed
/// collection pass and one populated through handles interned in the same
/// order are byte-identical when serialised.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Vec<(String, u64)>,
    counter_idx: HashMap<String, usize>,
    gauges: Vec<(String, f64)>,
    gauge_idx: HashMap<String, usize>,
    hists: Vec<(String, LogHistogram)>,
    hist_idx: HashMap<String, usize>,
}

impl MetricsRegistry {
    /// New registry; when `enabled` is false every mutation is a no-op that
    /// allocates nothing.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, ..Self::default() }
    }

    /// Whether mutations are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Add `v` to counter `name`, creating it at the current tail position
    /// on first use.
    pub fn inc(&mut self, name: &str, v: u64) {
        if !self.enabled {
            return;
        }
        match self.counter_idx.get(name) {
            Some(&i) => self.counters[i].1 += v,
            None => {
                self.counter_idx.insert(name.to_string(), self.counters.len());
                self.counters.push((name.to_string(), v));
            }
        }
    }

    /// Set gauge `name` to `v` (last write wins).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        if !self.enabled {
            return;
        }
        match self.gauge_idx.get(name) {
            Some(&i) => self.gauges[i].1 = v,
            None => {
                self.gauge_idx.insert(name.to_string(), self.gauges.len());
                self.gauges.push((name.to_string(), v));
            }
        }
    }

    /// Record one sample into histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        if !self.enabled {
            return;
        }
        self.hist_mut(name).record(v);
    }

    /// Merge a whole pre-built histogram into histogram `name`.
    pub fn merge_hist(&mut self, name: &str, h: &LogHistogram) {
        if !self.enabled {
            return;
        }
        self.hist_mut(name).merge(h);
    }

    fn hist_mut(&mut self, name: &str) -> &mut LogHistogram {
        let i = match self.hist_idx.get(name) {
            Some(&i) => i,
            None => {
                let i = self.hists.len();
                self.hist_idx.insert(name.to_string(), i);
                self.hists.push((name.to_string(), LogHistogram::new()));
                i
            }
        };
        &mut self.hists[i].1
    }

    /// Read a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_idx.get(name).map(|&i| self.counters[i].1).unwrap_or(0)
    }

    /// Read a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauge_idx.get(name).map(|&i| self.gauges[i].1)
    }

    /// Read a histogram, if present.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hist_idx.get(name).map(|&i| &self.hists[i].1)
    }

    /// Counters in insertion order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Gauges in insertion order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Histograms in insertion order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.hists.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Borrow the registry with every name prefixed by `prefix` + `.`.
    pub fn scoped<'a>(&'a mut self, prefix: &str) -> ScopedMetrics<'a> {
        ScopedMetrics { reg: self, prefix: prefix.to_string(), set_mode: false }
    }

    /// Like [`Self::scoped`], but `inc` *sets* the counter and `merge_hist`
    /// *replaces* the histogram instead of accumulating. Components that
    /// emit cumulative values through the ordinary add-semantics hook can
    /// then write directly into a persistent registry without
    /// double-counting across epochs.
    pub fn scoped_set<'a>(&'a mut self, prefix: &str) -> ScopedMetrics<'a> {
        ScopedMetrics { reg: self, prefix: prefix.to_string(), set_mode: true }
    }

    /// Set counter `name` to an absolute value (name-keyed; creates the
    /// counter at the tail on first use).
    pub fn set_counter_named(&mut self, name: &str, v: u64) {
        if !self.enabled {
            return;
        }
        match self.counter_idx.get(name) {
            Some(&i) => self.counters[i].1 = v,
            None => {
                self.counter_idx.insert(name.to_string(), self.counters.len());
                self.counters.push((name.to_string(), v));
            }
        }
    }

    /// Replace histogram `name` with a copy of `h` (name-keyed).
    pub fn set_hist_named(&mut self, name: &str, h: &LogHistogram) {
        if !self.enabled {
            return;
        }
        self.hist_mut(name).clone_from(h);
    }

    /// Per-window view: counters and histograms become `self - prev`
    /// (saturating); gauges keep their current (instantaneous) value.
    /// Names absent from `prev` are treated as zero there. The result keeps
    /// `self`'s insertion order.
    pub fn delta_from(&self, prev: &MetricsRegistry) -> MetricsRegistry {
        let mut out = MetricsRegistry::new(true);
        for (n, v) in self.counters() {
            out.inc(n, v.saturating_sub(prev.counter(n)));
        }
        for (n, v) in self.gauges() {
            out.set_gauge(n, v);
        }
        for (n, h) in self.hists() {
            let d = match prev.hist(n) {
                Some(p) => h.delta_from(p),
                None => h.clone(),
            };
            out.merge_hist(n, &d);
        }
        out
    }

    // ---- interned-handle API (the allocation-free hot path) ----

    /// Resolve `name` to a dense counter handle, creating the counter (at
    /// the current tail position, value 0) if it does not exist yet.
    /// Interning ignores the `enabled` flag: it is a build-time operation,
    /// and callers only build handle layouts for registries they collect.
    pub fn intern_counter(&mut self, name: &str) -> CounterId {
        let i = match self.counter_idx.get(name) {
            Some(&i) => i,
            None => {
                let i = self.counters.len();
                self.counter_idx.insert(name.to_string(), i);
                self.counters.push((name.to_string(), 0));
                i
            }
        };
        CounterId(i as u32)
    }

    /// Resolve `name` to a dense gauge handle (creating it at 0.0).
    pub fn intern_gauge(&mut self, name: &str) -> GaugeId {
        let i = match self.gauge_idx.get(name) {
            Some(&i) => i,
            None => {
                let i = self.gauges.len();
                self.gauge_idx.insert(name.to_string(), i);
                self.gauges.push((name.to_string(), 0.0));
                i
            }
        };
        GaugeId(i as u32)
    }

    /// Resolve `name` to a dense histogram handle (creating it empty).
    pub fn intern_hist(&mut self, name: &str) -> HistId {
        let i = match self.hist_idx.get(name) {
            Some(&i) => i,
            None => {
                let i = self.hists.len();
                self.hist_idx.insert(name.to_string(), i);
                self.hists.push((name.to_string(), LogHistogram::new()));
                i
            }
        };
        HistId(i as u32)
    }

    /// Set an interned counter to an absolute (cumulative) value.
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id.0 as usize].1 = v;
    }

    /// Add to an interned counter.
    #[inline]
    pub fn add_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id.0 as usize].1 += v;
    }

    /// Set an interned gauge.
    #[inline]
    pub fn set_gauge_id(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0 as usize].1 = v;
    }

    /// Overwrite an interned histogram with a copy of `h` (set semantics:
    /// the registry slot mirrors the component's cumulative histogram).
    #[inline]
    pub fn set_hist(&mut self, id: HistId, h: &LogHistogram) {
        self.hists[id.0 as usize].1.clone_from(h);
    }

    /// Index-wise [`Self::delta_from`] for two same-layout registries (a
    /// persistent cumulative registry and its previous-epoch snapshot):
    /// no name lookups, positions are trusted to match. The layouts must
    /// be identical — same names at the same indices — which holds by
    /// construction when `prev` started as a clone of `self` and every
    /// later interning touched both.
    pub fn delta_from_indexed(&self, prev: &MetricsRegistry) -> MetricsRegistry {
        debug_assert_eq!(self.counters.len(), prev.counters.len(), "counter layouts diverged");
        debug_assert_eq!(self.gauges.len(), prev.gauges.len(), "gauge layouts diverged");
        debug_assert_eq!(self.hists.len(), prev.hists.len(), "histogram layouts diverged");
        let mut out = MetricsRegistry::new(true);
        out.counters = self
            .counters
            .iter()
            .zip(prev.counters.iter())
            .map(|((n, v), (pn, pv))| {
                debug_assert_eq!(n, pn, "counter layouts diverged");
                (n.clone(), v.saturating_sub(*pv))
            })
            .collect();
        out.counter_idx = self.counter_idx.clone();
        out.gauges = self.gauges.clone();
        out.gauge_idx = self.gauge_idx.clone();
        out.hists = self
            .hists
            .iter()
            .zip(prev.hists.iter())
            .map(|((n, h), (pn, ph))| {
                debug_assert_eq!(n, pn, "histogram layouts diverged");
                (n.clone(), h.delta_from(ph))
            })
            .collect();
        out.hist_idx = self.hist_idx.clone();
        out
    }

    /// Copy every value from a same-layout registry, allocating nothing
    /// (histograms are fixed arrays). Used to refresh the previous-epoch
    /// snapshot from the cumulative registry after a frame is cut.
    pub fn copy_values_from(&mut self, other: &MetricsRegistry) {
        debug_assert_eq!(self.counters.len(), other.counters.len(), "counter layouts diverged");
        debug_assert_eq!(self.gauges.len(), other.gauges.len(), "gauge layouts diverged");
        debug_assert_eq!(self.hists.len(), other.hists.len(), "histogram layouts diverged");
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            a.1 = b.1;
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            a.1 = b.1;
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.1.clone_from(&b.1);
        }
    }
}

/// A mutable view of a [`MetricsRegistry`] that prepends `prefix.` to every
/// name, so components can emit relative paths.
///
/// In *set mode* ([`MetricsRegistry::scoped_set`]) `inc` assigns instead of
/// adding and `merge_hist` replaces instead of merging, so the same
/// cumulative-value emission code can target either a fresh snapshot
/// registry (add into zero) or a persistent one (overwrite last epoch).
pub struct ScopedMetrics<'a> {
    reg: &'a mut MetricsRegistry,
    prefix: String,
    set_mode: bool,
}

impl ScopedMetrics<'_> {
    fn full(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.prefix, name)
        }
    }

    /// Add `v` to counter `prefix.name` (set mode: assign `v`).
    pub fn inc(&mut self, name: &str, v: u64) {
        if !self.reg.enabled {
            return;
        }
        let full = self.full(name);
        if self.set_mode {
            self.reg.set_counter_named(&full, v);
        } else {
            self.reg.inc(&full, v);
        }
    }

    /// Set gauge `prefix.name`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        if !self.reg.enabled {
            return;
        }
        let full = self.full(name);
        self.reg.set_gauge(&full, v);
    }

    /// Record a sample into histogram `prefix.name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        if !self.reg.enabled {
            return;
        }
        let full = self.full(name);
        self.reg.observe(&full, v);
    }

    /// Merge a pre-built histogram into `prefix.name` (set mode: replace).
    pub fn merge_hist(&mut self, name: &str, h: &LogHistogram) {
        if !self.reg.enabled {
            return;
        }
        let full = self.full(name);
        if self.set_mode {
            self.reg.set_hist_named(&full, h);
        } else {
            self.reg.merge_hist(&full, h);
        }
    }

    /// Narrow the scope another level (inherits set mode).
    pub fn scoped(&mut self, sub: &str) -> ScopedMetrics<'_> {
        let prefix = self.full(sub);
        ScopedMetrics { reg: self.reg, prefix, set_mode: self.set_mode }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 0);
        assert_eq!(LogHistogram::bucket_of(2), 1);
        assert_eq!(LogHistogram::bucket_of(3), 1);
        assert_eq!(LogHistogram::bucket_of(4), 2);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 63);
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 4, 8, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 115);
        assert_eq!(h.quantile(0.0), 0); // first sample's bucket lo
        assert_eq!(h.quantile(1.0), 64); // 100 lives in [64, 128)
        assert!((h.mean() - 23.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_delta_is_exact() {
        let mut a = LogHistogram::new();
        a.record(5);
        let snap = a.clone();
        a.record(9);
        a.record(1000);
        let d = a.delta_from(&snap);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 1009);
        let bs: Vec<_> = d.nonzero_buckets().collect();
        assert_eq!(bs, vec![(3, 1), (9, 1)]);
    }

    #[test]
    fn registry_insertion_order_and_scoping() {
        let mut m = MetricsRegistry::new(true);
        {
            let mut s = m.scoped("mem.fast");
            s.inc("reads", 3);
            let mut b = s.scoped("ch0");
            b.inc("row_hits", 7);
        }
        m.inc("mem.fast.reads", 1);
        m.set_gauge("occ", 0.5);
        m.observe("lat", 12);
        assert_eq!(m.counter("mem.fast.reads"), 4);
        assert_eq!(m.counter("mem.fast.ch0.row_hits"), 7);
        assert_eq!(m.gauge("occ"), Some(0.5));
        assert_eq!(m.hist("lat").unwrap().count(), 1);
        let names: Vec<_> = m.counters().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["mem.fast.reads", "mem.fast.ch0.row_hits"]);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::new(false);
        m.inc("a", 1);
        m.set_gauge("b", 2.0);
        m.observe("c", 3);
        m.scoped("x").inc("y", 4);
        assert!(m.is_empty());
        assert_eq!(m.counter("a"), 0);
    }

    #[test]
    fn interned_handles_alias_named_metrics() {
        let mut m = MetricsRegistry::new(true);
        m.inc("a.n", 3);
        let c = m.intern_counter("a.n");
        let fresh = m.intern_counter("a.fresh");
        let g = m.intern_gauge("a.g");
        let h = m.intern_hist("a.h");
        m.set_counter(c, 10);
        m.add_counter(fresh, 2);
        m.set_gauge_id(g, 1.5);
        let mut src = LogHistogram::new();
        src.record(7);
        m.set_hist(h, &src);
        assert_eq!(m.counter("a.n"), 10);
        assert_eq!(m.counter("a.fresh"), 2);
        assert_eq!(m.gauge("a.g"), Some(1.5));
        assert_eq!(m.hist("a.h").unwrap().count(), 1);
        // Re-interning resolves to the same position.
        assert_eq!(m.intern_counter("a.n"), c);
        let names: Vec<_> = m.counters().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["a.n", "a.fresh"]);
    }

    #[test]
    fn indexed_delta_matches_named_delta() {
        let mut cum = MetricsRegistry::new(true);
        let c = cum.intern_counter("x.n");
        let g = cum.intern_gauge("x.g");
        let h = cum.intern_hist("x.h");
        cum.set_counter(c, 4);
        cum.set_gauge_id(g, 2.0);
        let mut hist = LogHistogram::new();
        hist.record(3);
        cum.set_hist(h, &hist);
        let mut prev = cum.clone();
        cum.set_counter(c, 9);
        cum.set_gauge_id(g, 5.0);
        hist.record(100);
        cum.set_hist(h, &hist);

        let by_index = cum.delta_from_indexed(&prev);
        let by_name = cum.delta_from(&prev);
        assert_eq!(by_index.counter("x.n"), by_name.counter("x.n"));
        assert_eq!(by_index.counter("x.n"), 5);
        assert_eq!(by_index.gauge("x.g"), Some(5.0));
        assert_eq!(by_index.hist("x.h").unwrap().count(), 1);

        prev.copy_values_from(&cum);
        let zero = cum.delta_from_indexed(&prev);
        assert_eq!(zero.counter("x.n"), 0);
        assert_eq!(zero.hist("x.h").unwrap().count(), 0);
        // Layout (names + order) survives every operation.
        let a: Vec<_> = cum.counters().map(|(n, _)| n.to_string()).collect();
        let b: Vec<_> = zero.counters().map(|(n, _)| n.to_string()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn set_mode_scope_assigns_instead_of_adding() {
        let mut m = MetricsRegistry::new(true);
        {
            let mut s = m.scoped_set("pol");
            s.inc("reconfigs", 5);
            let mut t = s.scoped("tokens");
            t.inc("granted", 10);
        }
        {
            let mut s = m.scoped_set("pol");
            s.inc("reconfigs", 7);
            let mut t = s.scoped("tokens");
            t.inc("granted", 12);
        }
        assert_eq!(m.counter("pol.reconfigs"), 7);
        assert_eq!(m.counter("pol.tokens.granted"), 12);
        let mut h = LogHistogram::new();
        h.record(1);
        m.scoped_set("pol").merge_hist("lat", &h);
        m.scoped_set("pol").merge_hist("lat", &h);
        assert_eq!(m.hist("pol.lat").unwrap().count(), 1);
    }

    #[test]
    fn registry_delta_subtracts_counters_keeps_gauges() {
        let mut prev = MetricsRegistry::new(true);
        prev.inc("n", 10);
        prev.set_gauge("g", 1.0);
        prev.observe("h", 4);
        let mut cur = prev.clone();
        cur.inc("n", 5);
        cur.inc("fresh", 2);
        cur.set_gauge("g", 9.0);
        cur.observe("h", 4);
        let d = cur.delta_from(&prev);
        assert_eq!(d.counter("n"), 5);
        assert_eq!(d.counter("fresh"), 2);
        assert_eq!(d.gauge("g"), Some(9.0));
        assert_eq!(d.hist("h").unwrap().count(), 1);
    }
}
