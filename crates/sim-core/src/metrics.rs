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
use std::fmt::{self, Write};

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

/// Named values of one kind in insertion order, with a name index.
#[derive(Debug, Clone, Default)]
struct Table<T> {
    entries: Vec<(String, T)>,
    idx: HashMap<String, usize>,
}

impl<T: Clone + Default> Table<T> {
    fn get(&self, name: &str) -> Option<&T> {
        self.idx.get(name).map(|&i| &self.entries[i].1)
    }

    /// The value of `name`, appended (default-valued) at the tail on first
    /// use. Only that first use allocates.
    fn slot(&mut self, name: &str) -> &mut T {
        let i = match self.idx.get(name) {
            Some(&i) => i,
            None => {
                self.idx.insert(name.to_string(), self.entries.len());
                self.entries.push((name.to_string(), T::default()));
                self.entries.len() - 1
            }
        };
        &mut self.entries[i].1
    }

    fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Same names in the same order, each value replaced by `f(name, value)`.
    fn map(&self, f: impl Fn(&str, &T) -> T) -> Self {
        Self {
            entries: self.entries.iter().map(|(n, v)| (n.clone(), f(n, v))).collect(),
            idx: self.idx.clone(),
        }
    }

    fn copy_values_from(&mut self, other: &Self) {
        for (n, v) in &other.entries {
            self.slot(n).clone_from(v);
        }
    }
}

/// Hierarchical registry of named counters (`u64`), gauges (`f64`), and
/// [`LogHistogram`]s. Names are dot-separated paths (`mem.fast.ch0.reads`);
/// components write them through a [`ScopedMetrics`] view, which prepends a
/// prefix so they stay ignorant of where they sit in the hierarchy.
///
/// Iteration order is insertion order (backed by an index map), so a
/// registry built by a deterministic collection pass serialises identically
/// every run. Every write *sets* its value, so one pass can fill a fresh
/// registry or refresh a persistent one: a persistent registry keeps its
/// names and order, and a name first written in a later pass is appended at
/// the tail.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Table<u64>,
    gauges: Table<f64>,
    hists: Table<LogHistogram>,
    /// Buffer [`ScopedMetrics`] builds full names in. Every write reuses
    /// it, so writing to an existing name allocates nothing.
    name: String,
}

impl MetricsRegistry {
    /// New registry; when `enabled` is false every mutation is a no-op that
    /// allocates nothing.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, ..Self::default() }
    }

    /// Read a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Read a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Read a histogram, if present.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// Counters in insertion order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n, *v))
    }

    /// Gauges in insertion order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(n, v)| (n, *v))
    }

    /// Histograms in insertion order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.hists.iter()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.entries.is_empty()
            && self.gauges.entries.is_empty()
            && self.hists.entries.is_empty()
    }

    /// Borrow the registry with every name prefixed by `prefix` + `.` (an
    /// empty prefix writes names as given).
    pub fn scoped(&mut self, prefix: impl fmt::Display) -> ScopedMetrics<'_> {
        if self.enabled {
            push_name(&mut self.name, 0, prefix);
        }
        ScopedMetrics { prefix_len: self.name.len(), reg: self }
    }

    /// Per-window view: counters and histograms become `self - prev`
    /// (saturating); gauges keep their current (instantaneous) value.
    /// Names absent from `prev` are treated as zero there. The result keeps
    /// `self`'s insertion order.
    pub fn delta_from(&self, prev: &MetricsRegistry) -> MetricsRegistry {
        MetricsRegistry {
            enabled: true,
            counters: self.counters.map(|n, v| v.saturating_sub(prev.counter(n))),
            gauges: self.gauges.clone(),
            hists: self.hists.map(|n, h| match prev.hist(n) {
                Some(p) => h.delta_from(p),
                None => h.clone(),
            }),
            name: String::new(),
        }
    }

    /// Copy every value of `other` into this registry in place. Names this
    /// registry lacks are appended in `other`'s order, and only they
    /// allocate. Used to move the previous-boundary snapshot up to the
    /// cumulative registry after a frame is cut.
    pub fn copy_values_from(&mut self, other: &MetricsRegistry) {
        self.counters.copy_values_from(&other.counters);
        self.gauges.copy_values_from(&other.gauges);
        self.hists.copy_values_from(&other.hists);
    }
}

/// Truncate `buf` to its first `prefix_len` bytes and append `.part` (or
/// just `part` after an empty prefix).
fn push_name(buf: &mut String, prefix_len: usize, part: impl fmt::Display) {
    buf.truncate(prefix_len);
    if prefix_len > 0 {
        buf.push('.');
    }
    write!(buf, "{part}").expect("formatting into a String cannot fail");
}

/// A mutable view of a [`MetricsRegistry`] that prepends `prefix.` to every
/// name, so components can emit relative paths.
///
/// Every write *sets* the value of `prefix.name`; emitters write each name
/// once per pass. The full name is built in the registry's reusable buffer,
/// so writing to a name that already exists is one hash lookup with no
/// allocation.
pub struct ScopedMetrics<'a> {
    reg: &'a mut MetricsRegistry,
    /// Length of this scope's prefix at the head of `reg.name`.
    prefix_len: usize,
}

impl ScopedMetrics<'_> {
    /// Set counter `prefix.name` to `v`.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        let r = &mut *self.reg;
        if r.enabled {
            push_name(&mut r.name, self.prefix_len, name);
            *r.counters.slot(&r.name) = v;
        }
    }

    /// Set gauge `prefix.name` to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        let r = &mut *self.reg;
        if r.enabled {
            push_name(&mut r.name, self.prefix_len, name);
            *r.gauges.slot(&r.name) = v;
        }
    }

    /// Set histogram `prefix.name` to a copy of `h`.
    pub fn set_hist(&mut self, name: &str, h: &LogHistogram) {
        let r = &mut *self.reg;
        if r.enabled {
            push_name(&mut r.name, self.prefix_len, name);
            r.hists.slot(&r.name).clone_from(h);
        }
    }

    /// Narrow the scope another level. A numbered scope is passed as
    /// `format_args!("ch{i}")`, which formats straight into the name buffer.
    pub fn scoped(&mut self, sub: impl fmt::Display) -> ScopedMetrics<'_> {
        let r = &mut *self.reg;
        if r.enabled {
            push_name(&mut r.name, self.prefix_len, sub);
        }
        ScopedMetrics { prefix_len: r.name.len(), reg: r }
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

    fn hist_of(samples: &[u64]) -> LogHistogram {
        let mut h = LogHistogram::new();
        for &v in samples {
            h.record(v);
        }
        h
    }

    /// Every name and value in insertion order, one per line.
    fn dump(reg: &MetricsRegistry) -> String {
        let mut s = String::new();
        for (n, v) in reg.counters() {
            s += &format!("c {n}={v}\n");
        }
        for (n, v) in reg.gauges() {
            s += &format!("g {n}={v}\n");
        }
        for (n, h) in reg.hists() {
            let b: Vec<_> = h.nonzero_buckets().collect();
            s += &format!("h {n}={}/{}/{b:?}\n", h.count(), h.sum());
        }
        s
    }

    #[test]
    fn registry_insertion_order_and_scoping() {
        let mut m = MetricsRegistry::new(true);
        {
            let mut s = m.scoped("mem.fast");
            s.set_counter("reads", 3);
            let mut b = s.scoped(format_args!("ch{}", 0));
            b.set_counter("row_hits", 7);
        }
        let mut root = m.scoped("");
        root.set_gauge("occ", 0.5);
        root.set_hist("lat", &hist_of(&[12]));
        assert_eq!(m.counter("mem.fast.reads"), 3);
        assert_eq!(m.counter("mem.fast.ch0.row_hits"), 7);
        assert_eq!(m.gauge("occ"), Some(0.5));
        assert_eq!(m.hist("lat").unwrap().count(), 1);
        let names: Vec<_> = m.counters().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["mem.fast.reads", "mem.fast.ch0.row_hits"]);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::new(false);
        {
            let mut s = m.scoped("x");
            s.set_counter("a", 1);
            s.set_gauge("b", 2.0);
            s.set_hist("c", &hist_of(&[3]));
            s.scoped("y").set_counter("z", 4);
        }
        assert!(m.is_empty());
        assert_eq!(m.counter("x.a"), 0);
    }

    #[test]
    fn writes_set_instead_of_adding() {
        let mut m = MetricsRegistry::new(true);
        for (reconfigs, granted) in [(5, 10), (7, 12)] {
            let mut s = m.scoped("pol");
            s.set_counter("reconfigs", reconfigs);
            s.scoped("tokens").set_counter("granted", granted);
            s.set_hist("lat", &hist_of(&[1]));
        }
        assert_eq!(m.counter("pol.reconfigs"), 7);
        assert_eq!(m.counter("pol.tokens.granted"), 12);
        assert_eq!(m.hist("pol.lat").unwrap().count(), 1);
    }

    /// One collection pass over the cumulative values at step `k`. The
    /// `late` counter is first emitted in pass 3, like the lazily emitted
    /// `trace.*` scope.
    fn pass(reg: &mut MetricsRegistry, k: u64) {
        let mut m = reg.scoped("sys");
        m.set_counter("instr", 10 * k);
        for i in 0..2 {
            let mut ch = m.scoped(format_args!("ch{i}"));
            ch.set_counter("reads", k + i);
            ch.set_gauge("queue", (k * i) as f64);
        }
        m.set_hist("lat", &hist_of(&vec![k; k as usize]));
        if k >= 3 {
            m.set_counter("late", 100 * k);
        }
    }

    #[test]
    fn persistent_registry_matches_fresh_registry_per_pass() {
        let mut cum = MetricsRegistry::new(true);
        for k in 1..=5 {
            pass(&mut cum, k);
            let mut fresh = MetricsRegistry::new(true);
            pass(&mut fresh, k);
            assert_eq!(dump(&cum), dump(&fresh), "pass {k}");
        }
    }

    #[test]
    fn late_name_lands_at_tail_and_first_delta_is_from_zero() {
        let mut cum = MetricsRegistry::new(true);
        let mut prev = MetricsRegistry::new(true);
        let mut frames = Vec::new();
        for k in 1..=4 {
            pass(&mut cum, k);
            frames.push(cum.delta_from(&prev));
            prev.copy_values_from(&cum);
        }
        let names: Vec<_> = cum.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["sys.instr", "sys.ch0.reads", "sys.ch1.reads", "sys.late"]);
        assert!(frames[1].counters().all(|(n, _)| n != "sys.late"));
        assert_eq!(frames[2].counter("sys.late"), 300, "first delta is taken from zero");
        assert_eq!(frames[3].counter("sys.late"), 100);
        assert_eq!(frames[3].counter("sys.instr"), 10);
        assert_eq!(frames[3].hist("sys.lat").unwrap().count(), 1);
        assert_eq!(frames[3].gauge("sys.ch1.queue"), Some(4.0), "gauges are not deltas");
    }

    #[test]
    fn copy_values_from_picks_up_tail_names() {
        let mut cum = MetricsRegistry::new(true);
        let mut prev = MetricsRegistry::new(true);
        pass(&mut cum, 2);
        prev.copy_values_from(&cum);
        pass(&mut cum, 3);
        assert_eq!(prev.counter("sys.late"), 0);
        prev.copy_values_from(&cum);
        assert_eq!(dump(&prev), dump(&cum));
        let zero = cum.delta_from(&prev);
        assert!(zero.counters().all(|(_, v)| v == 0));
        assert!(zero.hists().all(|(_, h)| h.is_empty()));
    }

    #[test]
    fn registry_delta_subtracts_counters_keeps_gauges() {
        let mut prev = MetricsRegistry::new(true);
        {
            let mut m = prev.scoped("");
            m.set_counter("n", 10);
            m.set_gauge("g", 1.0);
            m.set_hist("h", &hist_of(&[4]));
        }
        let mut cur = prev.clone();
        {
            let mut m = cur.scoped("");
            m.set_counter("n", 15);
            m.set_counter("fresh", 2);
            m.set_gauge("g", 9.0);
            m.set_hist("h", &hist_of(&[4, 4]));
        }
        let d = cur.delta_from(&prev);
        assert_eq!(d.counter("n"), 5);
        assert_eq!(d.counter("fresh"), 2);
        assert_eq!(d.gauge("g"), Some(9.0));
        assert_eq!(d.hist("h").unwrap().count(), 1);
    }
}
