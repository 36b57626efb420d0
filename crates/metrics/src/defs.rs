//! The static registry: every metric, declared once with metadata.
//!
//! The declaration style follows rezolus/metriken — a flat table of
//! `name / description / unit` entries — but registration is a const
//! array indexed by a dense enum instead of linker-section magic,
//! which keeps the whole registry visible in one file and free of
//! build-time dependencies.

/// Schema tag of the versioned `METRICS.json` export read by the CI
/// gate. Bump the suffix when the document layout changes.
pub const METRICS_SCHEMA_NAME: &str = "flower-cdn/metrics/v1";

/// The subsystem a metric attributes its cost to. The CI attribution
/// table groups by this.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// The simnet event engine: dispatch, timers, epoch barrier.
    Engine,
    /// The D-ring directory: Algorithm 3, view seeding, §5.3 petals.
    Directory,
    /// The content overlays: gossip exchanges and Bloom summaries.
    Gossip,
}

impl Subsystem {
    /// Stable lower-case name used in `METRICS.json`.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Engine => "engine",
            Subsystem::Directory => "directory",
            Subsystem::Gossip => "gossip",
        }
    }
}

/// Determinism scope of a metric (see the crate docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scope {
    /// A fact about the simulation — bit-identical across shard
    /// counts and core placements; parity-pinned.
    Sim,
    /// A fact about the execution — legitimately varies with the
    /// shard layout (epochs, barrier idle, queue depth).
    Exec,
}

impl Scope {
    /// Stable lower-case name used in `METRICS.json`.
    pub fn name(self) -> &'static str {
        match self {
            Scope::Sim => "sim",
            Scope::Exec => "exec",
        }
    }
}

/// What kind of cell backs a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Monotone `u64` accumulator; shards merge by addition.
    Counter,
    /// High-water mark; shards merge by maximum.
    Gauge,
    /// Log-linear value distribution; shards merge bucket-wise.
    Histogram,
}

impl MetricKind {
    /// Stable lower-case name used in `METRICS.json`.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Metadata of one registered metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Stable snake-case identifier (`<subsystem>_<what>`).
    pub name: &'static str,
    /// One-line human description, shown in the CI table.
    pub description: &'static str,
    /// Unit of the recorded values (`events`, `bytes`, `ns`, …).
    pub unit: &'static str,
    /// Owning subsystem for attribution.
    pub subsystem: Subsystem,
    /// Determinism scope.
    pub scope: Scope,
    /// Cell kind.
    pub kind: MetricKind,
}

macro_rules! registry {
    ($enumdoc:literal, $enum_:ident, $defs:ident, $kind:expr;
     $( $(#[$vmeta:meta])* $variant:ident => $name:literal, $unit:literal, $subsystem:ident, $scope:ident, $desc:literal; )+ ) => {
        #[doc = $enumdoc]
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum $enum_ {
            $( $(#[$vmeta])* #[doc = $desc] $variant, )+
        }

        impl $enum_ {
            /// Every variant, in declaration (= cell) order.
            pub const ALL: &'static [$enum_] = &[ $( $enum_::$variant, )+ ];

            /// Number of registered cells of this kind.
            pub const COUNT: usize = $enum_::ALL.len();

            /// Dense cell index.
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            /// The static registration record.
            #[inline]
            pub fn def(self) -> &'static MetricDef {
                &$defs[self as usize]
            }
        }

        /// Static registration records, in cell order.
        pub static $defs: [MetricDef; $enum_::COUNT] = [
            $( MetricDef {
                name: $name,
                description: $desc,
                unit: $unit,
                subsystem: Subsystem::$subsystem,
                scope: Scope::$scope,
                kind: $kind,
            }, )+
        ];
    };
}

registry! {
    "Registered counters: monotone `u64` accumulators merged by addition.",
    Counter, COUNTER_DEFS, MetricKind::Counter;

    EngineEvents => "engine_events_total", "events", Engine, Sim,
        "Events the engine dispatched to node handlers (receives and timers).";
    EngineTimers => "engine_timer_events", "events", Engine, Sim,
        "Of the dispatched events, timer firings.";
    EngineBounces => "engine_bounced_sends", "messages", Engine, Sim,
        "Sends to dead nodes turned into bounce notifications.";
    EngineFaultDrops => "engine_fault_dropped", "messages", Engine, Sim,
        "Messages silently dropped by the fault plane (partition cuts and link loss).";
    SentGossip => "engine_sent_gossip", "messages", Engine, Sim,
        "Messages emitted in the Gossip traffic class.";
    SentPush => "engine_sent_push", "messages", Engine, Sim,
        "Messages emitted in the Push traffic class.";
    SentKeepAlive => "engine_sent_keepalive", "messages", Engine, Sim,
        "Messages emitted in the KeepAlive traffic class.";
    SentDhtRouting => "engine_sent_dht_routing", "messages", Engine, Sim,
        "Messages emitted in the DhtRouting traffic class.";
    SentDhtMaintenance => "engine_sent_dht_maintenance", "messages", Engine, Sim,
        "Messages emitted in the DhtMaintenance traffic class.";
    SentQueryControl => "engine_sent_query_control", "messages", Engine, Sim,
        "Messages emitted in the QueryControl traffic class.";
    SentTransfer => "engine_sent_transfer", "messages", Engine, Sim,
        "Messages emitted in the Transfer traffic class.";
    RecvGossip => "engine_recv_gossip", "messages", Engine, Sim,
        "Messages delivered in the Gossip traffic class.";
    RecvPush => "engine_recv_push", "messages", Engine, Sim,
        "Messages delivered in the Push traffic class.";
    RecvKeepAlive => "engine_recv_keepalive", "messages", Engine, Sim,
        "Messages delivered in the KeepAlive traffic class.";
    RecvDhtRouting => "engine_recv_dht_routing", "messages", Engine, Sim,
        "Messages delivered in the DhtRouting traffic class.";
    RecvDhtMaintenance => "engine_recv_dht_maintenance", "messages", Engine, Sim,
        "Messages delivered in the DhtMaintenance traffic class.";
    RecvQueryControl => "engine_recv_query_control", "messages", Engine, Sim,
        "Messages delivered in the QueryControl traffic class.";
    RecvTransfer => "engine_recv_transfer", "messages", Engine, Sim,
        "Messages delivered in the Transfer traffic class.";
    DropGossip => "engine_drop_gossip", "messages", Engine, Sim,
        "Gossip-class messages dropped undelivered (fault cuts, loss, dead senders).";
    DropPush => "engine_drop_push", "messages", Engine, Sim,
        "Push-class messages dropped undelivered (fault cuts, loss, dead senders).";
    DropKeepAlive => "engine_drop_keepalive", "messages", Engine, Sim,
        "KeepAlive-class messages dropped undelivered (fault cuts, loss, dead senders).";
    DropDhtRouting => "engine_drop_dht_routing", "messages", Engine, Sim,
        "DhtRouting-class messages dropped undelivered (fault cuts, loss, dead senders).";
    DropDhtMaintenance => "engine_drop_dht_maintenance", "messages", Engine, Sim,
        "DhtMaintenance-class messages dropped undelivered (fault cuts, loss, dead senders).";
    DropQueryControl => "engine_drop_query_control", "messages", Engine, Sim,
        "QueryControl-class messages dropped undelivered (fault cuts, loss, dead senders).";
    DropTransfer => "engine_drop_transfer", "messages", Engine, Sim,
        "Transfer-class messages dropped undelivered (fault cuts, loss, dead senders).";
    BounceGossip => "engine_bounce_gossip", "messages", Engine, Sim,
        "Gossip-class sends bounced off dead destinations.";
    BouncePush => "engine_bounce_push", "messages", Engine, Sim,
        "Push-class sends bounced off dead destinations.";
    BounceKeepAlive => "engine_bounce_keepalive", "messages", Engine, Sim,
        "KeepAlive-class sends bounced off dead destinations.";
    BounceDhtRouting => "engine_bounce_dht_routing", "messages", Engine, Sim,
        "DhtRouting-class sends bounced off dead destinations.";
    BounceDhtMaintenance => "engine_bounce_dht_maintenance", "messages", Engine, Sim,
        "DhtMaintenance-class sends bounced off dead destinations.";
    BounceQueryControl => "engine_bounce_query_control", "messages", Engine, Sim,
        "QueryControl-class sends bounced off dead destinations.";
    BounceTransfer => "engine_bounce_transfer", "messages", Engine, Sim,
        "Transfer-class sends bounced off dead destinations.";
    EngineEpochs => "engine_epochs", "rounds", Engine, Exec,
        "Conservative-barrier epoch rounds the sharded engine ran.";
    EngineFusedRounds => "engine_fused_rounds", "rounds", Engine, Exec,
        "Of the epoch rounds, fused solo rounds (one working shard ran ahead).";
    EngineBarrierIdleNs => "engine_barrier_idle_ns", "ns", Engine, Exec,
        "Wall-clock nanoseconds shard threads spent waiting at the epoch barrier, summed over shards.";
    DirProcess => "dir_process_calls", "queries", Directory, Sim,
        "Algorithm 3 invocations (directory query-routing decisions).";
    DirToHolder => "dir_decision_to_holder", "queries", Directory, Sim,
        "Algorithm 3 decisions that drew a content holder.";
    DirToDirectory => "dir_decision_to_directory", "queries", Directory, Sim,
        "Algorithm 3 decisions that forwarded to another directory.";
    DirToServer => "dir_decision_to_server", "queries", Directory, Sim,
        "Algorithm 3 decisions that fell back to the origin server.";
    DirViewSeeds => "dir_view_seed_calls", "calls", Directory, Sim,
        "Admission view seedings served from the recency-ordered member set.";
    DirPetalSplits => "dir_petal_splits", "splits", Directory, Sim,
        "§5.3 PetalUp petal splits (live instance count doubled).";
    DirPetalMerges => "dir_petal_merges", "merges", Directory, Sim,
        "§5.3 PetalUp petal merges (live instance count halved).";
    DirQueryTimeouts => "dir_query_timeouts", "queries", Directory, Sim,
        "Pending queries whose timeout fired before any response arrived.";
    DirQueryRetries => "dir_query_retries", "queries", Directory, Sim,
        "Timed-out queries re-routed within the retry budget (sibling petal or fresh bootstrap).";
    DirQueryOriginFallbacks => "dir_query_degraded_origin", "queries", Directory, Sim,
        "Queries that exhausted the retry budget and degraded straight to the origin server.";
    GossipExchanges => "gossip_exchanges", "exchanges", Gossip, Sim,
        "Periodic gossip exchanges initiated by content peers.";
    BloomCowClones => "bloom_snapshot_cow_clones", "snapshots", Gossip, Sim,
        "Bloom summary snapshots served as copy-on-write clones of the cached filter.";
    BloomRebuilds => "bloom_snapshot_rebuilds", "snapshots", Gossip, Sim,
        "Bloom summary snapshots that had to rebuild the filter from counters.";
}

registry! {
    "Registered gauges: high-water marks merged by maximum.",
    Gauge, GAUGE_DEFS, MetricKind::Gauge;

    PeakQueueDepth => "engine_peak_queue_depth", "events", Engine, Exec,
        "High-water mark of any shard's event-queue length.";
    BarrierIdleMaxNs => "engine_barrier_idle_max_ns", "ns", Engine, Exec,
        "Barrier-wait nanoseconds of the worst-placed shard.";
}

registry! {
    "Registered histograms: log-linear value distributions merged bucket-wise.",
    Hist, HIST_DEFS, MetricKind::Histogram;

    GossipPayloadBytes => "gossip_payload_bytes", "bytes", Gossip, Sim,
        "Wire size of initiated gossip exchange payloads.";
    DirViewSeedLen => "dir_view_seed_members", "members", Directory, Sim,
        "Members returned per admission view seeding.";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_prefixed_by_subsystem() {
        let mut seen = HashSet::new();
        let all = Counter::ALL
            .iter()
            .map(|c| c.def())
            .chain(Gauge::ALL.iter().map(|g| g.def()))
            .chain(Hist::ALL.iter().map(|h| h.def()));
        for def in all {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            let prefix = match def.subsystem {
                Subsystem::Engine => "engine_",
                Subsystem::Directory => "dir_",
                Subsystem::Gossip if def.name.starts_with("bloom_") => "bloom_",
                Subsystem::Gossip => "gossip_",
            };
            assert!(
                def.name.starts_with(prefix),
                "{} not prefixed {prefix}",
                def.name
            );
            assert!(!def.description.is_empty());
            assert!(!def.unit.is_empty());
        }
    }

    #[test]
    fn enum_indices_match_def_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(c.def().name, COUNTER_DEFS[i].name);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
        assert_eq!(Counter::COUNT, COUNTER_DEFS.len());
    }

    #[test]
    fn kinds_match_tables() {
        assert!(COUNTER_DEFS.iter().all(|d| d.kind == MetricKind::Counter));
        assert!(GAUGE_DEFS.iter().all(|d| d.kind == MetricKind::Gauge));
        assert!(HIST_DEFS.iter().all(|d| d.kind == MetricKind::Histogram));
    }
}
