//! Per-shard metric cells and their deterministic merge.

use crate::defs::{Counter, Gauge, Hist, Scope};
use crate::hist::LogLinearHist;

/// One owner's worth of metric cells: every registered counter, gauge
/// and histogram, as plain dense arrays.
///
/// Each engine shard owns a private `MetricSet`, so recording on the
/// hot path is an unsynchronized array index + integer add — the same
/// discipline as the per-shard `Traffic` accumulators. At read time
/// the engine merges shard sets **in shard order** with
/// [`MetricSet::merge_from`]; since counters merge by addition,
/// gauges by maximum and histograms bucket-wise, the merged
/// [`Scope::Sim`] cells are bit-identical for every shard layout.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSet {
    counters: [u64; Counter::COUNT],
    gauges: [u64; Gauge::COUNT],
    hists: [LogLinearHist; Hist::COUNT],
}

impl MetricSet {
    /// All-zero cells.
    pub fn new() -> Self {
        MetricSet {
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            hists: std::array::from_fn(|_| LogLinearHist::new()),
        }
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn incr(&mut self, c: Counter) {
        self.counters[c.index()] += 1;
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c.index()] += n;
    }

    /// Raise a gauge to `v` if `v` is a new high-water mark.
    #[inline]
    pub fn gauge_max(&mut self, g: Gauge, v: u64) {
        let cell = &mut self.gauges[g.index()];
        *cell = (*cell).max(v);
    }

    /// Record a value into a histogram.
    #[inline]
    pub fn record(&mut self, h: Hist, v: u64) {
        self.hists[h.index()].record(v);
    }

    /// Current counter value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Current gauge value.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g.index()]
    }

    /// A histogram's cells.
    pub fn hist(&self, h: Hist) -> &LogLinearHist {
        &self.hists[h.index()]
    }

    /// Merge another set into this one: counters add, gauges take the
    /// maximum, histograms add bucket-wise. Commutative and
    /// associative, but callers merge in shard order anyway so the
    /// discipline matches the rest of the stats plane.
    pub fn merge_from(&mut self, other: &MetricSet) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *a = (*a).max(*b);
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge_from(b);
        }
    }

    /// Every [`Scope::Sim`] cell flattened into one vector (counters,
    /// then per-histogram count/sum/buckets), for shard-parity
    /// assertions: two runs of the same simulation must produce equal
    /// fingerprints regardless of shard count or core placement.
    pub fn sim_fingerprint(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for c in Counter::ALL {
            if c.def().scope == Scope::Sim {
                out.push(self.counter(*c));
            }
        }
        for g in Gauge::ALL {
            if g.def().scope == Scope::Sim {
                out.push(self.gauge(*g));
            }
        }
        for h in Hist::ALL {
            if h.def().scope == Scope::Sim {
                let hist = self.hist(*h);
                out.push(hist.count());
                out.push(hist.sum());
                for (i, c) in hist.nonzero() {
                    out.push(i as u64);
                    out.push(c);
                }
            }
        }
        out
    }

    /// True if every cell is zero (the registry never recorded).
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(|&g| g == 0)
            && self.hists.iter().all(|h| h.count() == 0)
    }
}

impl Default for MetricSet {
    fn default() -> Self {
        Self::new()
    }
}

/// Record-only view of a [`MetricSet`], handed to protocol code via
/// `Ctx::metrics()` — the same facade discipline as the engine's
/// `QuerySink`: node handlers can record but never read or merge, so
/// mid-run metric state cannot leak back into protocol decisions and
/// break shard-count invariance.
pub struct MetricSink<'a> {
    set: &'a mut MetricSet,
}

impl<'a> MetricSink<'a> {
    /// Wrap a set.
    pub fn new(set: &'a mut MetricSet) -> Self {
        MetricSink { set }
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn incr(&mut self, c: Counter) {
        self.set.incr(c);
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.set.add(c, n);
    }

    /// Raise a gauge high-water mark.
    #[inline]
    pub fn gauge_max(&mut self, g: Gauge, v: u64) {
        self.set.gauge_max(g, v);
    }

    /// Record a histogram value.
    #[inline]
    pub fn record(&mut self, h: Hist, v: u64) {
        self.set.record(h, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_set_is_empty_and_zero() {
        let s = MetricSet::new();
        assert!(s.is_empty());
        assert_eq!(s.counter(Counter::EngineEvents), 0);
        assert_eq!(s.gauge(Gauge::PeakQueueDepth), 0);
        assert_eq!(s.hist(Hist::GossipPayloadBytes).count(), 0);
    }

    #[test]
    fn record_and_read() {
        let mut s = MetricSet::new();
        s.incr(Counter::EngineEvents);
        s.add(Counter::EngineEvents, 4);
        s.gauge_max(Gauge::PeakQueueDepth, 10);
        s.gauge_max(Gauge::PeakQueueDepth, 3);
        s.record(Hist::DirViewSeedLen, 8);
        assert_eq!(s.counter(Counter::EngineEvents), 5);
        assert_eq!(s.gauge(Gauge::PeakQueueDepth), 10);
        assert_eq!(s.hist(Hist::DirViewSeedLen).count(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn sink_is_record_only_and_writes_through() {
        let mut s = MetricSet::new();
        {
            let mut sink = MetricSink::new(&mut s);
            sink.incr(Counter::DirProcess);
            sink.add(Counter::GossipExchanges, 2);
            sink.gauge_max(Gauge::BarrierIdleMaxNs, 7);
            sink.record(Hist::GossipPayloadBytes, 100);
        }
        assert_eq!(s.counter(Counter::DirProcess), 1);
        assert_eq!(s.counter(Counter::GossipExchanges), 2);
        assert_eq!(s.gauge(Gauge::BarrierIdleMaxNs), 7);
        assert_eq!(s.hist(Hist::GossipPayloadBytes).sum(), 100);
    }

    #[test]
    fn merge_semantics_per_kind() {
        let mut a = MetricSet::new();
        let mut b = MetricSet::new();
        a.add(Counter::EngineEvents, 3);
        b.add(Counter::EngineEvents, 4);
        a.gauge_max(Gauge::PeakQueueDepth, 9);
        b.gauge_max(Gauge::PeakQueueDepth, 5);
        a.record(Hist::GossipPayloadBytes, 32);
        b.record(Hist::GossipPayloadBytes, 32);
        b.record(Hist::GossipPayloadBytes, 1000);
        let mut merged = a.clone();
        merged.merge_from(&b);
        assert_eq!(merged.counter(Counter::EngineEvents), 7);
        assert_eq!(merged.gauge(Gauge::PeakQueueDepth), 9);
        let h = merged.hist(Hist::GossipPayloadBytes);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 32 + 32 + 1000);
    }

    #[test]
    fn shard_split_merges_to_the_same_fingerprint() {
        // One owner recording everything vs. the same records split
        // across three owners and merged: identical Sim fingerprints.
        let record = |s: &mut MetricSet, vals: &[u64]| {
            for &v in vals {
                s.incr(Counter::EngineEvents);
                s.add(Counter::DirProcess, v % 3);
                s.record(Hist::DirViewSeedLen, v);
            }
        };
        let vals: Vec<u64> = (0..100).map(|i| i * 37 % 1024).collect();
        let mut whole = MetricSet::new();
        record(&mut whole, &vals);
        let mut parts: Vec<MetricSet> = (0..3).map(|_| MetricSet::new()).collect();
        for (i, chunk) in vals.chunks(34).enumerate() {
            record(&mut parts[i], chunk);
        }
        let mut merged = MetricSet::new();
        for p in &parts {
            merged.merge_from(p);
        }
        assert_eq!(whole.sim_fingerprint(), merged.sim_fingerprint());
        assert_eq!(whole, merged);
    }

    mod merge_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Arbitrary recording streams partitioned across 1, 2 or
            /// 4 per-shard cells and merged in shard order always
            /// reproduce the single-owner set — the property the
            /// engine relies on for `--shards`-invariant metrics.
            #[test]
            fn shard_partition_never_changes_the_merged_set(
                vals in proptest::collection::vec(any::<u64>(), 1..200),
                shards in 1usize..5,
            ) {
                let mut whole = MetricSet::new();
                let mut parts: Vec<MetricSet> =
                    (0..shards).map(|_| MetricSet::new()).collect();
                for (i, &v) in vals.iter().enumerate() {
                    for s in [&mut whole, &mut parts[i % shards]] {
                        s.incr(Counter::EngineEvents);
                        s.add(Counter::GossipExchanges, v % 7);
                        s.gauge_max(Gauge::PeakQueueDepth, v % 1024);
                        s.record(Hist::GossipPayloadBytes, v);
                    }
                }
                let mut merged = MetricSet::new();
                for p in &parts {
                    merged.merge_from(p);
                }
                prop_assert_eq!(&merged, &whole);
                prop_assert_eq!(merged.sim_fingerprint(), whole.sim_fingerprint());
            }
        }
    }

    #[test]
    fn exec_cells_do_not_enter_the_sim_fingerprint() {
        let mut a = MetricSet::new();
        let mut b = MetricSet::new();
        a.incr(Counter::EngineEvents);
        b.incr(Counter::EngineEvents);
        // Exec-scope cells differ wildly…
        a.add(Counter::EngineEpochs, 500);
        a.gauge_max(Gauge::PeakQueueDepth, 123_456);
        // …but the Sim fingerprint is unaffected.
        assert_eq!(a.sim_fingerprint(), b.sim_fingerprint());
        assert_ne!(a, b);
    }
}
