//! The protocol engine: message delivery with link latency, timers,
//! failure signalling, traffic accounting, churn — and locality-based
//! sharding for deterministic parallel execution.
//!
//! Protocols are written as message-driven state machines: a node type
//! implements [`Node`] for a protocol-specific message enum `M`
//! implementing [`Message`]. All interaction with the outside world
//! goes through [`Ctx`] — sending messages, arming timers, reading the
//! clock/topology, drawing from the node's private RNG stream, and
//! recording metrics — which keeps the protocol logic purely
//! deterministic and unit-testable.
//!
//! ## Sharded execution model
//!
//! The engine partitions nodes by network locality into `K` shards
//! ([`Topology::shard_map`]). Each shard owns its nodes, an event
//! queue, a clock, per-node RNG streams and a private copy of every
//! statistics accumulator, and runs on its own thread. Shards
//! synchronize with a *conservative epoch barrier*: a shard's epoch
//! ends no later than the earliest instant another shard could reach
//! it under the per-shard-pair lookaheads
//! ([`Topology::shard_lookahead_ms`] — guaranteed lower bounds on
//! every cross-shard link latency), so a message sent during one epoch
//! can only be due in a *later* epoch and can safely be handed to its
//! destination shard at the barrier in between.
//!
//! Determinism does not come from the barrier alone but from the event
//! ordering: every event carries an [`EventKey`] `(time, source
//! stream, per-stream seq)` that is independent of the shard layout
//! (see [`crate::event`]). Each shard processes its events in key
//! order; since shards share no mutable state within an epoch and all
//! cross-shard effects are exchanged at barriers under the lookahead
//! guarantee, a run is equivalent to the sequential execution in
//! global key order — **bit-identical for any shard count, including
//! `K = 1`** (which skips threads and barriers entirely).
//!
//! Liveness (`up`) flags are replicated per shard and updated by
//! broadcasting the externally scheduled churn events to every shard,
//! so the bounce decision for a wire message never reads another
//! shard's state.
//!
//! ## Randomness
//!
//! There is no engine-global RNG: node `n` draws from its own
//! `StdRng` seeded with `hash(seed, n)` ([`node_stream_seed`]), so the
//! stream a node observes does not depend on what other nodes —
//! possibly on other shards — consumed.
//!
//! ## Failure model
//!
//! Messages to a node that is *down* are dropped, and the sender
//! receives an [`Event::Undeliverable`] notification one round trip
//! later (modelling a connection-refused error). This is what drives
//! the paper's redirection-failure handling (§5.1) and
//! directory-failure detection (§5.2) without a global liveness
//! oracle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use metrics::{Counter, Gauge, MetricSet, MetricSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event::{EventKey, EventQueue};
use crate::stats::{QueryStats, ShardTraffic, TimeSeries, Traffic, TrafficClass};
use crate::sync::{MailboxGrid, SenseBarrier};
use crate::time::{SimDuration, SimTime};
use crate::topology::{Locality, NodeId, Topology};

/// A simulated wire message: every protocol message reports its size
/// in bytes (for the paper's bandwidth metric) and its traffic class.
/// Messages cross shard threads, hence the `Send` bound.
pub trait Message: std::fmt::Debug + Send {
    /// Modelled serialized size in bytes.
    fn wire_size(&self) -> u32;
    /// Classification for traffic accounting.
    fn class(&self) -> TrafficClass;
}

/// What a node can observe.
#[derive(Debug)]
pub enum Event<M> {
    /// A message arrived from `from`.
    Recv {
        /// Sender of the message.
        from: NodeId,
        /// The message payload.
        msg: M,
    },
    /// A timer armed with [`Ctx::set_timer`] fired.
    Timer {
        /// Application-defined timer kind.
        kind: u16,
        /// Application-defined payload for the timer.
        tag: u64,
    },
    /// A message previously sent to `to` could not be delivered
    /// because `to` is down. Arrives one round-trip after the send.
    Undeliverable {
        /// The unreachable destination.
        to: NodeId,
        /// The original message.
        msg: M,
    },
    /// This node was revived after a churn-induced failure. State was
    /// NOT cleared automatically; the protocol decides what survives a
    /// restart (the paper: a revived peer rejoins as a new client).
    NodeUp,
}

/// A protocol state machine bound to one simulated node. Nodes are
/// owned by exactly one shard but shards run on worker threads, hence
/// the `Send` bound.
pub trait Node<M: Message>: Send {
    /// Handle one event. Use `ctx` to send messages, arm timers and
    /// record metrics.
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, ev: Event<M>);
}

/// Output actions buffered during an event handler.
#[derive(Debug)]
pub enum Action<M> {
    /// Send `msg` to `to` (arrives after one link latency).
    Send {
        /// Destination node.
        to: NodeId,
        /// Message payload.
        msg: M,
    },
    /// Deliver `Event::Timer { kind, tag }` to self after `delay`.
    Timer {
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Application-defined timer kind.
        kind: u16,
        /// Application-defined payload.
        tag: u64,
    },
}

/// The per-event execution context handed to [`Node::on_event`].
///
/// The action buffer is a persistent per-shard scratch vector lent to
/// the context for the duration of the handler — after warm-up no
/// event allocates on the delivery path, however many actions it
/// emits.
pub struct Ctx<'a, M> {
    now: SimTime,
    id: NodeId,
    topo: &'a Topology,
    rng: &'a mut StdRng,
    query_stats: &'a mut QueryStats,
    gauges: &'a mut GaugeSet,
    metrics: &'a mut MetricSet,
    out: &'a mut Vec<Action<M>>,
}

impl<'a, M> Ctx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this event is executing on.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of nodes in the underlay.
    pub fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    /// Network locality of `n` (landmark measurement; §6.1).
    pub fn locality(&self, n: NodeId) -> Locality {
        self.topo.locality(n)
    }

    /// Number of localities `k`.
    pub fn num_localities(&self) -> usize {
        self.topo.num_localities()
    }

    /// Measured one-way latency between two nodes in milliseconds.
    /// Protocols use this for the transfer-distance metric and for
    /// latency-aware choices, mirroring the landmark-style probing the
    /// paper assumes peers can perform.
    pub fn latency_ms(&self, a: NodeId, b: NodeId) -> u64 {
        self.topo.latency_ms(a, b)
    }

    /// This node's private deterministic RNG stream, seeded from
    /// `(seed, node_id)` — independent of every other node's draws and
    /// of the shard layout.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Send a message (delivered after one link latency).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.out.push(Action::Send { to, msg });
    }

    /// Arm a timer on this node.
    pub fn set_timer(&mut self, delay: SimDuration, kind: u16, tag: u64) {
        self.out.push(Action::Timer { delay, kind, tag });
    }

    /// The paper's query metrics sink. Record-only by construction
    /// ([`QuerySink`]): the engine keeps one accumulator per shard and
    /// merges them at read time, so letting a protocol read partial
    /// metrics back would make behaviour depend on the shard layout —
    /// the facade makes that a compile error rather than a doc rule.
    pub fn query_stats(&mut self) -> QuerySink<'_> {
        QuerySink {
            stats: self.query_stats,
        }
    }

    /// The static metric registry's recording facade. Like
    /// [`Ctx::query_stats`], record-only by construction
    /// ([`MetricSink`]): each shard owns private metric cells merged
    /// at read time, so reading partial values back from a handler
    /// would make behaviour depend on the shard layout.
    pub fn metrics(&mut self) -> MetricSink<'_> {
        MetricSink::new(self.metrics)
    }

    /// Record an application gauge sample (e.g. participant count,
    /// server load) into a named windowed series.
    ///
    /// Values must be integer-valued: per-shard window sums are merged
    /// at read time, and only exactly-representable additions keep the
    /// merged totals bit-identical across shard layouts.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            value == value.trunc() && value.abs() <= 9_007_199_254_740_992.0,
            "gauge values must be integer-valued (≤2^53) so per-shard window \
             sums merge exactly across shard layouts; got {value}"
        );
        self.gauges.record(self.now, name, value);
    }
}

/// Record-only facade over a shard's [`QueryStats`], handed out by
/// [`Ctx::query_stats`]. Exposes exactly the recording entry points —
/// no read access, so protocol behaviour cannot depend on a shard's
/// partial view of the merged metrics.
pub struct QuerySink<'a> {
    stats: &'a mut QueryStats,
}

impl QuerySink<'_> {
    /// Note a query submission.
    pub fn on_submit(&mut self) {
        self.stats.on_submit();
    }

    /// Record a resolved query (see [`QueryStats::on_resolved`]).
    pub fn on_resolved(
        &mut self,
        at: SimTime,
        node: NodeId,
        lookup_ms: u64,
        transfer_ms: u64,
        served_by: crate::stats::ServedBy,
    ) {
        self.stats
            .on_resolved(at, node, lookup_ms, transfer_ms, served_by);
    }

    /// Note a redirection failure (stale directory entry; Sec. 5.1).
    pub fn on_redirection_failure(&mut self) {
        self.stats.on_redirection_failure();
    }
}

/// Named application-level time series (gauges).
#[derive(Clone, Debug, Default)]
pub struct GaugeSet {
    window: SimDuration,
    series: std::collections::HashMap<&'static str, TimeSeries>,
}

impl GaugeSet {
    fn new(window: SimDuration) -> Self {
        GaugeSet {
            window,
            series: Default::default(),
        }
    }

    fn record(&mut self, at: SimTime, name: &'static str, value: f64) {
        let window = self.window;
        self.series
            .entry(name)
            .or_insert_with(|| TimeSeries::new(window))
            .record(at, value);
    }

    /// Fetch a gauge series by name.
    pub fn get(&self, name: &'static str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Fold another shard's gauges into this one (per-name series
    /// merge; commutative, so the shard iteration order is
    /// irrelevant).
    pub fn merge_from(&mut self, other: &GaugeSet) {
        for (name, series) in &other.series {
            match self.series.entry(name) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().merge_from(series)
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(series.clone());
                }
            }
        }
    }
}

/// The per-node RNG stream id: a SplitMix64-style mix of the master
/// seed and the node id. Every node draws from an independent
/// deterministic stream, so its randomness does not depend on the
/// event interleaving with other nodes (or on the shard layout).
pub fn node_stream_seed(seed: u64, node: NodeId) -> u64 {
    let mut z = seed ^ (node.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// External injections use source stream 0 of the [`EventKey`] space;
/// node `n` emits on stream `n + 1`.
const EXTERNAL_STREAM: u64 = 0;

/// The matrix mode's per-round bound coefficients, from the raw
/// pair-lookahead matrix `l` (row-major `k × k`, `u64::MAX` diagonal).
///
/// `reach[m][i]` lower-bounds how long after shard `m`'s earliest
/// pending event *anything* could become due at shard `i` that is not
/// already in `i`'s queue: an event of `m` at time `t` can trigger an
/// emission chain `m → … → j → i` whose hops each cost at least the
/// pair lookahead (handlers emit at the instant of receipt, so relay
/// delay lower-bounds at zero). Formally
/// `reach[m][i] = min over j ≠ i of (dist(m, j) + l[j][i])` with
/// `dist` the min-plus shortest path over `l` (`dist(m, m) = 0`).
///
/// The `j ≠ i` exclusion makes the diagonal the *round-trip* term
/// `reach[i][i] = min_j (dist(i, j) + l[j][i])`: shard `i`'s own
/// events can reflect off a peer and come back, so `i` may never
/// outrun its own emissions by more than a round trip — the
/// self-reflection a naive `min over peers of (next_j + l[j][i])`
/// bound misses (an idle peer would then constrain nobody, yet a
/// message sent to it this round can wake it and draw a reply).
fn reachability_bounds(l: &[u64], k: usize) -> Vec<u64> {
    // Progress guarantee: every off-diagonal pair lookahead is ≥ 1 ms
    // (shard pairs are cross-locality by construction, and the
    // topology's cross floor clamps to at least 1 ms), so every reach
    // entry is ≥ 1 ms and a matrix-mode bound always lies strictly
    // beyond the global minimum — no barrier round can spin without
    // processing anything.
    debug_assert!(
        (0..k).all(|a| (0..k).all(|b| a == b || l[a * k + b] >= 1)),
        "pair lookaheads must be positive for the barrier to progress"
    );
    // Min-plus all-pairs shortest path over the pair lookaheads.
    let mut dist = vec![u64::MAX; k * k];
    for m in 0..k {
        dist[m * k + m] = 0;
        for j in 0..k {
            if m != j {
                dist[m * k + j] = l[m * k + j];
            }
        }
    }
    for via in 0..k {
        for a in 0..k {
            for b in 0..k {
                let d = dist[a * k + via].saturating_add(dist[via * k + b]);
                if d < dist[a * k + b] {
                    dist[a * k + b] = d;
                }
            }
        }
    }
    let mut reach = vec![u64::MAX; k * k];
    for m in 0..k {
        for i in 0..k {
            for j in 0..k {
                if j == i {
                    continue;
                }
                let r = dist[m * k + j].saturating_add(l[j * k + i]);
                if r < reach[m * k + i] {
                    reach[m * k + i] = r;
                }
            }
        }
    }
    reach
}

/// Global node id → `(owning shard, dense local index)`, packed into
/// one `u64` per node (shard in the high half, local index in the
/// low). The engine's hot path resolves both halves for nearly every
/// event — `route` needs the shard, `deliver`/`emit_key` the local
/// index — so packing them touches one cache line per node instead of
/// two parallel tables.
struct Placement {
    packed: Vec<u64>,
}

impl Placement {
    fn new(n: usize) -> Self {
        Placement { packed: vec![0; n] }
    }

    fn set(&mut self, node: NodeId, shard: usize, local: u32) {
        self.packed[node.idx()] = ((shard as u64) << 32) | local as u64;
    }

    #[inline]
    fn shard(&self, node: NodeId) -> usize {
        (self.packed[node.idx()] >> 32) as usize
    }

    #[inline]
    fn local(&self, node: NodeId) -> usize {
        (self.packed[node.idx()] & 0xFFFF_FFFF) as usize
    }
}

/// Full-population liveness map, one bit per node. Replicated on every
/// shard (kept in sync by the broadcast churn events), so at 100k+
/// nodes the packed form keeps each replica at ~12 KB of cache
/// footprint instead of 100 KB for a `Vec<bool>`.
#[derive(Clone)]
struct Liveness {
    words: Vec<u64>,
}

impl Liveness {
    fn all_up(n: usize) -> Self {
        Liveness {
            words: vec![u64::MAX; n.div_ceil(64)],
        }
    }

    #[inline]
    fn get(&self, node: NodeId) -> bool {
        let i = node.idx();
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    fn set(&mut self, node: NodeId, up: bool) {
        let i = node.idx();
        if up {
            self.words[i / 64] |= 1u64 << (i % 64);
        } else {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }
}

/// Struct-of-arrays slab of a shard's hot per-node state, indexed by
/// the dense local index ([`Placement::local`]). Keeping each field in
/// its own contiguous array means an event touches only the arrays it
/// needs — an emission counter bump does not pull the node's RNG
/// state into cache alongside it.
struct NodeSlab {
    /// Per-node deterministic RNG streams
    /// (`StdRng::seed_from_u64(node_stream_seed(seed, node))`).
    rngs: Vec<StdRng>,
    /// Per-node emission counters — sequence numbers of the node's
    /// [`EventKey`] stream.
    emit_seq: Vec<u64>,
}

impl NodeSlab {
    fn with_capacity(c: usize) -> Self {
        NodeSlab {
            rngs: Vec::with_capacity(c),
            emit_seq: Vec::with_capacity(c),
        }
    }

    fn push(&mut self, rng: StdRng) {
        self.rngs.push(rng);
        self.emit_seq.push(0);
    }

    /// The next sequence number on local node `li`'s emission stream.
    #[inline]
    fn next_seq(&mut self, li: usize) -> u64 {
        let seq = self.emit_seq[li];
        self.emit_seq[li] += 1;
        seq
    }
}

/// A keyed event staged for another shard (one entry of an
/// outbox/inbox batch exchanged at the epoch barrier).
type Staged<M> = (EventKey, Pending<M>);

/// Internal queue payload.
#[derive(Debug)]
enum Pending<M> {
    App {
        dst: NodeId,
        ev: Event<M>,
    },
    /// Traffic-accounted message in flight (recorded at send time;
    /// this wrapper only exists to detect dead destinations at
    /// delivery time). `size` is `msg.wire_size()` taken at send, so
    /// the receive side does not walk the payload again.
    Wire {
        from: NodeId,
        to: NodeId,
        size: u32,
        msg: M,
    },
    ChurnDown(NodeId),
    ChurnUp(NodeId),
}

/// One locality shard: a slice of the node population with its own
/// queue, clock, RNG streams and statistics.
struct Shard<M: Message, N: Node<M>> {
    /// Index of this shard.
    id: usize,
    /// Protocol nodes owned by this shard, densely packed; the
    /// engine's [`Placement`] maps global node ids into this vector.
    nodes: Vec<N>,
    /// Hot per-node engine state (RNG streams, emission counters),
    /// parallel to `nodes` as struct-of-arrays.
    slab: NodeSlab,
    /// Full-population liveness bitmap, replicated on every shard and
    /// kept in sync by the broadcast churn events.
    up: Liveness,
    queue: EventQueue<Pending<M>>,
    now: SimTime,
    /// Dense per-owned-node traffic rows; folded into a global
    /// [`Traffic`] view at read time ([`Traffic::absorb_shard`]).
    traffic: ShardTraffic,
    query_stats: QueryStats,
    gauges: GaugeSet,
    /// Reusable action buffer lent to [`Ctx`] for each handler call;
    /// drained (capacity kept) after every event.
    scratch: Vec<Action<M>>,
    /// Test oracle switch: run every epoch through the one-event
    /// [`Shard::dispatch`] loop instead of batched delivery.
    #[cfg(test)]
    one_at_a_time: bool,
    /// This shard's private cells of the static metric registry:
    /// engine counters (events dispatched, per-class receives,
    /// timers, bounces, epoch/fused rounds, barrier idle) plus
    /// whatever the protocol records through [`Ctx::metrics`]. What
    /// used to be loose `u64` fields here (`events_processed`,
    /// `epochs`, `fused`, `barrier_idle`) now lives in these cells;
    /// the engine accessors read them back out of the merge.
    metrics: MetricSet,
    /// The installed fault script, replicated on every shard (like the
    /// liveness map) so cut/loss decisions never read another shard's
    /// state. `None` (the default) short-circuits every check.
    fault: Option<std::sync::Arc<crate::fault::FaultPlane>>,
}

/// Per-traffic-class receive counters, indexed by
/// [`TrafficClass::index`] — declaration order of both sides is
/// pinned by a test below.
const RECV_COUNTER: [Counter; 7] = [
    Counter::RecvGossip,
    Counter::RecvPush,
    Counter::RecvKeepAlive,
    Counter::RecvDhtRouting,
    Counter::RecvDhtMaintenance,
    Counter::RecvQueryControl,
    Counter::RecvTransfer,
];

/// Per-traffic-class send counters, mirror of [`RECV_COUNTER`].
const SENT_COUNTER: [Counter; 7] = [
    Counter::SentGossip,
    Counter::SentPush,
    Counter::SentKeepAlive,
    Counter::SentDhtRouting,
    Counter::SentDhtMaintenance,
    Counter::SentQueryControl,
    Counter::SentTransfer,
];

/// Per-traffic-class undelivered-drop counters (fault cuts, link
/// loss, dead senders), mirror of [`RECV_COUNTER`]. Together with
/// [`BOUNCE_COUNTER`] these close the per-class message ledger the CI
/// gate checks: `recv + bounce + drop ≤ sent` (strict equality is
/// impossible — messages still in flight at the horizon are neither).
const DROP_COUNTER: [Counter; 7] = [
    Counter::DropGossip,
    Counter::DropPush,
    Counter::DropKeepAlive,
    Counter::DropDhtRouting,
    Counter::DropDhtMaintenance,
    Counter::DropQueryControl,
    Counter::DropTransfer,
];

/// Per-traffic-class bounce counters, mirror of [`RECV_COUNTER`].
/// Sums to [`Counter::EngineBounces`] exactly.
const BOUNCE_COUNTER: [Counter; 7] = [
    Counter::BounceGossip,
    Counter::BouncePush,
    Counter::BounceKeepAlive,
    Counter::BounceDhtRouting,
    Counter::BounceDhtMaintenance,
    Counter::BounceQueryControl,
    Counter::BounceTransfer,
];

impl<M: Message, N: Node<M>> Shard<M, N> {
    /// Does the installed fault plane cut a wire message from `from`
    /// to `to` delivered at `at`? A pure function of `(at, sender
    /// locality, destination locality, static script)` — evaluated
    /// identically on every shard layout.
    #[inline]
    fn fault_cut(&self, at: SimTime, from: NodeId, to: NodeId, topo: &Topology) -> bool {
        match &self.fault {
            Some(f) => f.cuts(at, topo.locality(from), topo.locality(to)),
            None => false,
        }
    }

    /// The next key on this node's emission stream, at time `at`.
    fn emit_key(&mut self, at: SimTime, emitter: NodeId, place: &Placement) -> EventKey {
        let seq = self.slab.next_seq(place.local(emitter));
        EventKey {
            at,
            src: emitter.0 as u64 + 1,
            seq,
        }
    }

    /// Enqueue locally or stage for the barrier exchange.
    fn route(
        &mut self,
        target: usize,
        key: EventKey,
        p: Pending<M>,
        outbox: &mut [Vec<Staged<M>>],
    ) {
        if target == self.id {
            self.queue.push(key, p);
        } else {
            outbox[target].push((key, p));
        }
    }

    /// Process every queued event with `key.at < limit`, in key order.
    ///
    /// Deliverable events are peeled off into per-destination batches
    /// ([`Shard::deliver_batch`]); everything else — churn, drops,
    /// bounces — takes the one-event [`Shard::dispatch`] path. Batching
    /// only saves per-event engine overhead: the pop order is exactly
    /// that of the one-event loop, which the tests keep as the oracle.
    fn run_epoch(
        &mut self,
        limit: SimTime,
        topo: &Topology,
        place: &Placement,
        outbox: &mut [Vec<Staged<M>>],
    ) {
        #[cfg(test)]
        if self.one_at_a_time {
            while let Some((key, payload)) = self.queue.pop_if_before(limit) {
                self.now = key.at;
                self.dispatch(payload, topo, place, outbox);
            }
            return;
        }
        while let Some((key, payload)) = self.queue.pop_if_before(limit) {
            debug_assert!(key.at >= self.now, "time went backwards");
            self.now = key.at;
            match payload {
                Pending::App { dst, ev } if self.up.get(dst) => {
                    self.deliver_batch(dst, ev, limit, topo, place, outbox);
                }
                // A fault-cut message fails the guard and falls through
                // to `dispatch`, which counts the drop — the only place
                // that does.
                Pending::Wire {
                    from,
                    to,
                    size,
                    msg,
                } if self.up.get(to) && !self.fault_cut(self.now, from, to, topo) => {
                    let class = msg.class();
                    self.traffic.record_recv(place.local(to), class, size);
                    self.metrics.incr(RECV_COUNTER[class.index()]);
                    self.deliver_batch(to, Event::Recv { from, msg }, limit, topo, place, outbox);
                }
                other => self.dispatch(other, topo, place, outbox),
            }
        }
    }

    /// As [`Shard::run_epoch`], but stop right after the first event
    /// that stages cross-shard mail. This is the *fused solo round*
    /// of the sharded engine: when every other shard is idle up to
    /// its bound, the one working shard may run far past its normal
    /// conservative bound — all the way to the earliest instant the
    /// *others'* queued events could reach it — because the only
    /// remaining causality hazard is a reply drawn out by this
    /// shard's own emissions, and stopping at the first emission
    /// closes exactly that hole (a reply to mail emitted at `t`
    /// arrives at `t + round-trip`, and nothing after `t` has been
    /// processed).
    fn run_epoch_until_cross(
        &mut self,
        limit: SimTime,
        topo: &Topology,
        place: &Placement,
        outbox: &mut [Vec<Staged<M>>],
    ) {
        while let Some((key, payload)) = self.queue.pop_if_before(limit) {
            debug_assert!(key.at >= self.now, "time went backwards");
            self.now = key.at;
            self.dispatch(payload, topo, place, outbox);
            if outbox.iter().any(|b| !b.is_empty()) {
                break;
            }
        }
    }

    fn dispatch(
        &mut self,
        p: Pending<M>,
        topo: &Topology,
        place: &Placement,
        outbox: &mut [Vec<Staged<M>>],
    ) {
        match p {
            Pending::ChurnDown(n) => {
                self.up.set(n, false);
            }
            Pending::ChurnUp(n) => {
                self.up.set(n, true);
                // Churn events are broadcast to keep every shard's
                // liveness map current; only the owner delivers.
                if place.shard(n) == self.id {
                    self.deliver(n, Event::NodeUp, topo, place, outbox);
                }
            }
            Pending::App { dst, ev } => {
                if self.up.get(dst) {
                    self.deliver(dst, ev, topo, place, outbox);
                }
                // Events to down nodes are dropped: timers die with the
                // node; externally injected events are lost, like a user
                // whose machine is off.
            }
            Pending::Wire {
                from,
                to,
                size,
                msg,
            } => {
                if self.fault_cut(self.now, from, to, topo) {
                    // Partition cut: dropped *silently* — a severed
                    // network gives the sender no connection-refused
                    // signal, unlike a dead destination. This is what
                    // forces the protocol's query timeouts.
                    self.metrics.incr(Counter::EngineFaultDrops);
                    self.metrics.incr(DROP_COUNTER[msg.class().index()]);
                } else if self.up.get(to) {
                    let class = msg.class();
                    self.traffic.record_recv(place.local(to), class, size);
                    self.metrics.incr(RECV_COUNTER[class.index()]);
                    self.deliver(to, Event::Recv { from, msg }, topo, place, outbox);
                } else if self.up.get(from) {
                    // Bounce: the sender learns after one more one-way
                    // latency (connection refused round trip). The
                    // bounce is emitted on the dead destination's
                    // stream — its shard processes the wire event, so
                    // the counter stays deterministic.
                    self.metrics.incr(Counter::EngineBounces);
                    self.metrics.incr(BOUNCE_COUNTER[msg.class().index()]);
                    let back = topo.latency(to, from);
                    let key = self.emit_key(self.now + back, to, place);
                    self.route(
                        place.shard(from),
                        key,
                        Pending::App {
                            dst: from,
                            ev: Event::Undeliverable { to, msg },
                        },
                        outbox,
                    );
                } else {
                    // Dead sender, dead destination: nobody to notify.
                    self.metrics.incr(DROP_COUNTER[msg.class().index()]);
                }
            }
        }
    }

    /// Deliver one event to `dst` (known up): a batch that never
    /// continues, since no queued event is due before `self.now`.
    fn deliver(
        &mut self,
        dst: NodeId,
        ev: Event<M>,
        topo: &Topology,
        place: &Placement,
        outbox: &mut [Vec<Staged<M>>],
    ) {
        self.deliver_batch(dst, ev, self.now, topo, place, outbox);
    }

    /// Deliver `first_ev` to `dst` (known up) and keep going while the
    /// live queue head is another deliverable event for the same
    /// destination within `limit`. Placement and liveness are resolved
    /// once for the whole batch: nothing a handler can do
    /// ([`Action::Send`]/[`Action::Timer`]) changes liveness, and the
    /// churn events that do are broadcast through the queue, where
    /// they end the batch like any other head for a different target.
    fn deliver_batch(
        &mut self,
        dst: NodeId,
        first_ev: Event<M>,
        limit: SimTime,
        topo: &Topology,
        place: &Placement,
        outbox: &mut [Vec<Staged<M>>],
    ) {
        let li = place.local(dst);
        let mut scratch = std::mem::take(&mut self.scratch);
        debug_assert!(scratch.is_empty());
        let mut ev = first_ev;
        loop {
            self.metrics.incr(Counter::EngineEvents);
            if matches!(ev, Event::Timer { .. }) {
                self.metrics.incr(Counter::EngineTimers);
            }
            let mut ctx = Ctx {
                now: self.now,
                id: dst,
                topo,
                rng: &mut self.slab.rngs[li],
                query_stats: &mut self.query_stats,
                gauges: &mut self.gauges,
                metrics: &mut self.metrics,
                out: &mut scratch,
            };
            self.nodes[li].on_event(&mut ctx, ev);
            self.flush_actions(dst, li, &mut scratch, topo, place, outbox);
            // Continue only on the *current* head — it may be an event
            // this very batch just emitted (same-instant self-sends
            // sort by seq), which is exactly what the one-at-a-time
            // loop would pop next.
            match self.queue.peek() {
                Some((at, p)) if at < limit => match p {
                    Pending::App { dst: d, .. } if *d == dst => {}
                    // A fault-cut head ends the batch so the one-event
                    // dispatch path pops it and counts the drop.
                    Pending::Wire { from, to, .. }
                        if *to == dst && !self.fault_cut(at, *from, *to, topo) => {}
                    _ => break,
                },
                _ => break,
            }
            let (key, payload) = self.queue.pop().expect("head just peeked");
            debug_assert!(key.at >= self.now, "time went backwards");
            self.now = key.at;
            ev = match payload {
                Pending::App { ev, .. } => ev,
                Pending::Wire {
                    from, size, msg, ..
                } => {
                    let class = msg.class();
                    self.traffic.record_recv(li, class, size);
                    self.metrics.incr(RECV_COUNTER[class.index()]);
                    Event::Recv { from, msg }
                }
                _ => unreachable!("continuation is App/Wire by the peek above"),
            };
        }
        self.scratch = scratch;
    }

    /// Turn the actions a handler buffered into queued/staged events
    /// and traffic records. `dst`/`li` identify the emitting node.
    #[inline]
    fn flush_actions(
        &mut self,
        dst: NodeId,
        li: usize,
        scratch: &mut Vec<Action<M>>,
        topo: &Topology,
        place: &Placement,
        outbox: &mut [Vec<Staged<M>>],
    ) {
        for a in scratch.drain(..) {
            match a {
                Action::Send { to, msg } => {
                    let class = msg.class();
                    let size = msg.wire_size();
                    self.traffic.record_sent(self.now, li, class, size);
                    self.metrics.incr(SENT_COUNTER[class.index()]);
                    // Link loss: the coin is flipped at send time from
                    // the *emitter's* RNG stream — the same stream on
                    // every shard layout — and only when a loss window
                    // actually applies, so an inactive plane consumes
                    // no randomness and perturbs nothing.
                    if let Some(f) = &self.fault {
                        let crosses = topo.locality(dst) != topo.locality(to);
                        if let Some(p) = f.loss_probability(self.now, crosses) {
                            let u: f64 = self.slab.rngs[li].gen_range(0.0..1.0);
                            if u < p {
                                self.metrics.incr(Counter::EngineFaultDrops);
                                self.metrics.incr(DROP_COUNTER[class.index()]);
                                continue;
                            }
                        }
                    }
                    let lat = topo.latency(dst, to);
                    let key = self.emit_key(self.now + lat, dst, place);
                    self.route(
                        place.shard(to),
                        key,
                        Pending::Wire {
                            from: dst,
                            to,
                            size,
                            msg,
                        },
                        outbox,
                    );
                }
                Action::Timer { delay, kind, tag } => {
                    let key = self.emit_key(self.now + delay, dst, place);
                    self.queue.push(
                        key,
                        Pending::App {
                            dst,
                            ev: Event::Timer { kind, tag },
                        },
                    );
                }
            }
        }
    }
}

/// Statistics accumulators merged across shards, cached between runs.
struct Merged {
    traffic: Traffic,
    query_stats: QueryStats,
    gauges: GaugeSet,
    metrics: MetricSet,
}

/// The simulation driver.
///
/// Owns the topology, all protocol nodes (partitioned into locality
/// shards), the event queues, the clocks, the per-node RNG streams and
/// all statistics. See the crate docs for an end-to-end example and
/// the module docs for the sharded execution model.
pub struct Engine<M: Message, N: Node<M>> {
    topo: std::sync::Arc<Topology>,
    shards: Vec<Shard<M, N>>,
    /// Global node id → (owning shard, local index), packed.
    place: Placement,
    /// Per-shard-pair lookahead matrix (ms), row-major `K × K`: entry
    /// `[from · K + to]` lower-bounds the latency of any message from
    /// shard `from` to shard `to` ([`Topology::shard_lookahead_ms`]);
    /// `u64::MAX` on the diagonal.
    pair_lookahead_ms: Vec<u64>,
    /// Epoch-bound coefficients derived from the pair
    /// lookaheads ([`reachability_bounds`]): `[m · K + i]` is how long
    /// after shard `m`'s earliest event anything new could become due
    /// at shard `i`, through any emission chain.
    reach_ms: Vec<u64>,
    now: SimTime,
    /// Counter of the external injection stream (stream 0).
    ext_seq: u64,
    /// Whether shard worker threads pin themselves to the cores in
    /// `core_map` ([`TopologyConfig::pin`]); a wall-clock knob with
    /// no effect on results.
    ///
    /// [`TopologyConfig::pin`]: crate::topology::TopologyConfig::pin
    pin: bool,
    /// Latency-aware shard → logical-core map
    /// ([`crate::affinity::place_shards`] over the pair-lookahead
    /// matrix): chattiest shard pairs on adjacent cores, round-robin
    /// when the host has fewer cores than shards. Applied only when
    /// `pin` is set.
    core_map: Vec<usize>,
    /// Lazily merged statistics, invalidated by every run/schedule.
    merged: std::cell::OnceCell<Merged>,
}

impl<M: Message, N: Node<M>> Engine<M, N> {
    /// Build a single-shard engine over `topo` with one protocol node
    /// per underlay node and a 30-minute metric window (the paper's
    /// plots).
    pub fn new(topo: Topology, nodes: Vec<N>, seed: u64) -> Self {
        Self::with_shards(topo, nodes, seed, SimDuration::from_mins(30), 1)
    }

    /// As [`Engine::new`] with an explicit series window.
    pub fn with_window(topo: Topology, nodes: Vec<N>, seed: u64, window: SimDuration) -> Self {
        Self::with_shards(topo, nodes, seed, window, 1)
    }

    /// Build an engine partitioned into (up to) `shards` locality
    /// shards. Results are bit-identical for every value of `shards`;
    /// values above the number of localities are clamped.
    pub fn with_shards(
        topo: Topology,
        nodes: Vec<N>,
        seed: u64,
        window: SimDuration,
        shards: usize,
    ) -> Self {
        assert_eq!(
            topo.num_nodes(),
            nodes.len(),
            "one protocol node per underlay node"
        );
        assert!(shards >= 1, "need at least one shard");
        let n = nodes.len();
        let k = shards.min(topo.num_localities());
        let loc_shard = topo.shard_map(k);
        let pair_lookahead_ms = topo.shard_lookahead_ms(&loc_shard, k);
        let reach_ms = reachability_bounds(&pair_lookahead_ms, k);

        let mut place = Placement::new(n);
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for node in topo.node_ids() {
            let s = loc_shard[topo.locality(node).idx()];
            place.set(node, s, members[s].len() as u32);
            members[s].push(node);
        }
        let member_count: Vec<usize> = members.iter().map(Vec::len).collect();

        // Distribute node state and RNG streams, in global id order so
        // the local indices assigned above line up.
        let mut slots: Vec<Vec<N>> = member_count
            .iter()
            .map(|c| Vec::with_capacity(*c))
            .collect();
        let mut slabs: Vec<NodeSlab> = member_count
            .iter()
            .map(|c| NodeSlab::with_capacity(*c))
            .collect();
        for (i, state) in nodes.into_iter().enumerate() {
            let node = NodeId(i as u32);
            let s = place.shard(node);
            slots[s].push(state);
            slabs[s].push(StdRng::seed_from_u64(node_stream_seed(seed, node)));
        }

        let shards_vec = slots
            .into_iter()
            .zip(slabs)
            .zip(members)
            .enumerate()
            .map(|(id, ((nodes, slab), members))| Shard {
                id,
                nodes,
                slab,
                up: Liveness::all_up(n),
                queue: EventQueue::new(),
                now: SimTime::ZERO,
                traffic: ShardTraffic::new(members, window),
                query_stats: QueryStats::new(window),
                gauges: GaugeSet::new(window),
                scratch: Vec::new(),
                #[cfg(test)]
                one_at_a_time: false,
                metrics: MetricSet::new(),
                fault: None,
            })
            .collect();

        let core_map = crate::affinity::place_shards(
            &pair_lookahead_ms,
            k,
            crate::affinity::available_cores(),
        );
        Engine {
            pin: topo.pin_threads(),
            topo: std::sync::Arc::new(topo),
            shards: shards_vec,
            place,
            pair_lookahead_ms,
            reach_ms,
            now: SimTime::ZERO,
            ext_seq: 0,
            core_map,
            merged: std::cell::OnceCell::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The underlay topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of shards the engine actually runs (the requested count
    /// clamped to the number of localities).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard-pair lookahead (ms) from shard `from` to shard
    /// `to` (`u64::MAX` when `from == to`).
    pub fn pair_lookahead_ms(&self, from: usize, to: usize) -> u64 {
        self.pair_lookahead_ms[from * self.shards.len() + to]
    }

    /// Barrier rounds (epochs) executed so far. 0 on single-shard
    /// runs, which have no barrier. The adaptive lookahead matrix
    /// exists to shrink this number — fewer, longer epochs mean less
    /// synchronization per simulated second — and fused solo rounds
    /// ([`Engine::fused_rounds`]) shrink it further by letting a lone
    /// working shard cover many windows in one round.
    pub fn epochs(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.metrics.counter(Counter::EngineEpochs))
            .max()
            .unwrap_or(0)
    }

    /// How many of the [`Engine::epochs`] were *fused solo rounds*:
    /// rounds in which exactly one shard had any event below its
    /// conservative bound, so it alone ran ahead — to the earliest
    /// instant the other shards' queued events could reach it,
    /// stopping at its first cross-shard emission — while the rest
    /// skipped the round entirely. Identical across shards, like the
    /// epoch count itself.
    pub fn fused_rounds(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.metrics.counter(Counter::EngineFusedRounds))
            .max()
            .unwrap_or(0)
    }

    /// Per-shard wall-clock seconds spent waiting at the epoch
    /// barrier (load imbalance + synchronization overhead), indexed
    /// by shard id. All zeros on single-shard runs and before the
    /// first sharded run.
    pub fn barrier_idle_secs(&self) -> Vec<f64> {
        self.shards
            .iter()
            .map(|s| s.metrics.counter(Counter::EngineBarrierIdleNs) as f64 / 1e9)
            .collect()
    }

    /// Whether sharded runs pin worker threads to
    /// [`Engine::core_map`] (from
    /// [`TopologyConfig::pin`](crate::topology::TopologyConfig::pin);
    /// single-shard runs never pin — they execute on the caller's
    /// thread, whose affinity is not the engine's to change).
    pub fn pin_threads(&self) -> bool {
        self.pin
    }

    /// The latency-aware shard → logical-core map (chattiest pairs
    /// adjacent, round-robin beyond the core count); applied by
    /// sharded runs when [`Engine::pin_threads`] is set.
    pub fn core_map(&self) -> &[usize] {
        &self.core_map
    }

    /// Override the shard → core map (and optionally the pin flag)
    /// before a run — placement is a wall-clock knob, so any map must
    /// produce bit-identical results; the placement-invariance test
    /// in `tests/shard_parity.rs` holds the engine to that.
    pub fn set_placement(&mut self, core_map: Vec<usize>, pin: bool) {
        assert_eq!(core_map.len(), self.shards.len(), "one core per shard");
        self.core_map = core_map;
        self.pin = pin;
    }

    /// Run every later epoch through the one-event dispatch loop —
    /// the reference the batched delivery path is tested against.
    #[cfg(test)]
    fn set_one_at_a_time(&mut self) {
        for s in &mut self.shards {
            s.one_at_a_time = true;
        }
    }

    /// Immutable access to a protocol node (inspection in tests and
    /// harnesses).
    pub fn node(&self, n: NodeId) -> &N {
        &self.shards[self.place.shard(n)].nodes[self.place.local(n)]
    }

    /// Mutable access to a protocol node (setup in harnesses).
    pub fn node_mut(&mut self, n: NodeId) -> &mut N {
        &mut self.shards[self.place.shard(n)].nodes[self.place.local(n)]
    }

    /// Whether `n` is currently up.
    pub fn is_up(&self, n: NodeId) -> bool {
        self.shards[self.place.shard(n)].up.get(n)
    }

    /// Traffic accounting (merged across shards).
    pub fn traffic(&self) -> &Traffic {
        &self.merged().traffic
    }

    /// Query metrics (merged across shards).
    pub fn query_stats(&self) -> &QueryStats {
        &self.merged().query_stats
    }

    /// Application gauges (merged across shards).
    pub fn gauges(&self) -> &GaugeSet {
        &self.merged().gauges
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.metrics.counter(Counter::EngineEvents))
            .sum()
    }

    /// The static metric registry, merged across shards in shard
    /// order, with the engine-level execution gauges (peak queue
    /// depth, worst-shard barrier idle) written in. `Scope::Sim`
    /// cells are bit-identical for every shard layout; `Scope::Exec`
    /// cells describe this run's execution.
    pub fn metrics(&self) -> &MetricSet {
        &self.merged().metrics
    }

    /// High-water mark of any shard's event-queue length (the "peak
    /// queue depth" benchmark metric).
    pub fn peak_queue_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.queue.peak_len())
            .max()
            .unwrap_or(0)
    }

    fn merged(&self) -> &Merged {
        self.merged.get_or_init(|| {
            let first = &self.shards[0];
            let mut merged = Merged {
                traffic: Traffic::new(self.topo.num_nodes(), first.traffic.window()),
                query_stats: first.query_stats.clone(),
                gauges: first.gauges.clone(),
                metrics: first.metrics.clone(),
            };
            for s in &self.shards {
                merged.traffic.absorb_shard(&s.traffic);
            }
            for s in &self.shards[1..] {
                merged.query_stats.merge_from(&s.query_stats);
                merged.gauges.merge_from(&s.gauges);
                merged.metrics.merge_from(&s.metrics);
            }
            // Engine-level execution gauges, written at merge time:
            // high-water marks the shard loops track elsewhere.
            merged
                .metrics
                .gauge_max(Gauge::PeakQueueDepth, self.peak_queue_depth() as u64);
            let idle_max = self
                .shards
                .iter()
                .map(|s| s.metrics.counter(Counter::EngineBarrierIdleNs))
                .max()
                .unwrap_or(0);
            merged.metrics.gauge_max(Gauge::BarrierIdleMaxNs, idle_max);
            merged
        })
    }

    /// The next key on the external injection stream.
    fn ext_key(&mut self, at: SimTime) -> EventKey {
        let seq = self.ext_seq;
        self.ext_seq += 1;
        EventKey {
            at,
            src: EXTERNAL_STREAM,
            seq,
        }
    }

    /// Schedule an event for `node` at absolute time `at` (external
    /// injection: workload queries, test fixtures).
    pub fn schedule_at(&mut self, at: SimTime, node: NodeId, ev: Event<M>) {
        assert!(at >= self.now, "cannot schedule in the past");
        let key = self.ext_key(at);
        let s = self.place.shard(node);
        self.shards[s]
            .queue
            .push(key, Pending::App { dst: node, ev });
    }

    /// Schedule an event `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, node: NodeId, ev: Event<M>) {
        self.schedule_at(self.now + delay, node, ev);
    }

    /// Take `node` down at time `at` (messages to it bounce, its
    /// timers are swallowed). Broadcast to every shard so all liveness
    /// maps agree.
    pub fn schedule_down(&mut self, at: SimTime, node: NodeId) {
        let key = self.ext_key(at);
        for s in &mut self.shards {
            s.queue.push(key, Pending::ChurnDown(node));
        }
    }

    /// Bring `node` back up at time `at`; it receives
    /// [`Event::NodeUp`].
    pub fn schedule_up(&mut self, at: SimTime, node: NodeId) {
        let key = self.ext_key(at);
        for s in &mut self.shards {
            s.queue.push(key, Pending::ChurnUp(node));
        }
    }

    /// Install a [`FaultPlane`](crate::fault::FaultPlane): compile its
    /// regional failures into broadcast churn events (one `ext_key`
    /// per node transition, exactly like
    /// [`ChurnScript::install`](crate::churn::ChurnScript::install))
    /// and replicate the script onto every shard so the delivery path
    /// can consult it. Partitions and loss windows entirely in the
    /// past are harmless; regional failures must still be ahead of
    /// the clock (asserted by [`Engine::schedule_down`]'s key
    /// invariant).
    pub fn set_fault_plane(&mut self, plane: crate::fault::FaultPlane) {
        for r in plane.regional_failures() {
            let nodes = self.topo.nodes_in(r.locality);
            for (i, n) in nodes.into_iter().enumerate() {
                self.schedule_down(r.at, n);
                let back = r.recover_start + SimDuration::from_ms(r.stagger.as_ms() * i as u64);
                self.schedule_up(back, n);
            }
        }
        let plane = std::sync::Arc::new(plane);
        for s in &mut self.shards {
            s.fault = Some(std::sync::Arc::clone(&plane));
        }
        self.merged.take();
    }

    /// Run until the queues are exhausted or `deadline` is reached
    /// (events scheduled exactly at `deadline` are processed).
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let start: u64 = self.events_processed();
        self.merged.take();
        // Exclusive bound: `at <= deadline` ⇔ `at < deadline + 1 ms`.
        let limit = deadline + SimDuration::from_ms(1);
        if self.shards.len() == 1 {
            let topo = &*self.topo;
            let place = &self.place;
            let shard = &mut self.shards[0];
            // Single shard: no epochs, no threads; every emission is
            // local, so the outbox stays empty.
            let mut outbox: Vec<Vec<Staged<M>>> = vec![Vec::new()];
            shard.run_epoch(limit, topo, place, &mut outbox);
            debug_assert!(outbox[0].is_empty());
            shard.now = shard.now.max(deadline);
        } else {
            self.run_sharded(deadline, limit);
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.events_processed() - start
    }

    /// The parallel path: one worker thread per shard (pinned to
    /// [`Engine::core_map`] when [`Engine::pin_threads`] is set),
    /// cross-shard messages exchanged through a lock-free
    /// double-buffered [`MailboxGrid`] at a single sense-reversing
    /// barrier per round. Idle stretches are skipped by starting each
    /// epoch at the globally earliest pending event.
    ///
    /// Each round, every shard *publishes* — its earliest pending
    /// event time, plus the staged batches from the previous epoch
    /// and their earliest arrival time per receiver — then crosses
    /// the one barrier, drains its incoming mail, and derives the
    /// *effective next* of every shard:
    ///
    /// ```text
    /// eff[m] = min(published next of m,
    ///              min over senders i of i's min arrival into m)
    /// ```
    ///
    /// which is exactly shard `m`'s earliest pending event *after*
    /// absorbing the exchange — the same quantity the classic
    /// two-barrier loop (publish → barrier → run → exchange → barrier
    /// → absorb) reads at its first barrier. Bounds, epoch counts and
    /// results are therefore bit-identical to that loop; only the
    /// synchronization cost halves.
    ///
    /// Shard `i` runs to `min over shards m of (eff[m] + reach[m][i])`,
    /// with `reach` the emission-chain closure of the exact pair
    /// lookaheads ([`reachability_bounds`]): the earliest instant
    /// anything not yet in `i`'s queue could become due at `i`,
    /// including replies that `i`'s *own* emissions may draw out of a
    /// currently idle peer (the `m = i` round-trip term). A fully idle
    /// peer constrains nobody on its own — the temporal meaning of
    /// "actually communicating" — and distant shard pairs synchronize
    /// less often. Every bound is conservative, so per-shard event
    /// orderings (and therefore results) are bit-identical to the
    /// single-shard run.
    ///
    /// Rounds in which exactly one shard has any event below its
    /// bound are *fused*: the lone worker runs ahead under the
    /// extended bound of [`Shard::run_epoch_until_cross`] (no
    /// diagonal round-trip term — the emission stop replaces it)
    /// while everyone else skips the round, collapsing idle stretches
    /// — warm-up, drain tails, lulls — that the fixed barrier cadence
    /// would otherwise spin through one lookahead window at a time.
    fn run_sharded(&mut self, deadline: SimTime, limit: SimTime) {
        let k = self.shards.len();
        let limit_ms = limit.as_ms();
        let reach = &self.reach_ms[..];
        let barrier = SenseBarrier::new(k);
        let grid: MailboxGrid<Staged<M>> = MailboxGrid::new(k);
        // Published state, double-buffered by round parity like the
        // mailbox slots (entry `p·k + m` / `p·k² + i·k + m`): with a
        // single barrier per round, the writes for round `r + 1`
        // overlap the reads for round `r`, and the parity split keeps
        // same-cell conflicts two barriers apart.
        let next_times: Vec<AtomicU64> = (0..2 * k).map(|_| AtomicU64::new(u64::MAX)).collect();
        let arrivals: Vec<AtomicU64> = (0..2 * k * k).map(|_| AtomicU64::new(u64::MAX)).collect();
        let topo = &*self.topo;
        let place = &self.place;
        let pin = self.pin;
        let core_map = &self.core_map[..];
        let barrier = &barrier;
        let grid = &grid;
        let next_times = &next_times[..];
        let arrivals = &arrivals[..];
        std::thread::scope(|scope| {
            for shard in self.shards.iter_mut() {
                scope.spawn(move || {
                    let me = shard.id;
                    if pin {
                        // Best-effort: a denied or unsupported call
                        // leaves the thread floating, which only
                        // costs wall clock.
                        let _ = crate::affinity::pin_current_thread(core_map[me]);
                    }
                    let mut waiter = barrier.waiter();
                    let mut outbox: Vec<Vec<Staged<M>>> = (0..k).map(|_| Vec::new()).collect();
                    let mut eff: Vec<u64> = vec![0; k];
                    let mut round: u64 = 0;
                    loop {
                        let p = (round & 1) as usize;
                        round += 1;
                        // (1) Publish: my earliest pending event, and
                        // the previous epoch's staged batches with
                        // their earliest arrival per receiver.
                        let next = shard.queue.peek_time().map_or(u64::MAX, |t| t.as_ms());
                        next_times[p * k + me].store(next, Ordering::Relaxed);
                        for (j, batch) in outbox.iter().enumerate() {
                            if j != me {
                                let min_at = batch
                                    .iter()
                                    .map(|(key, _)| key.at.as_ms())
                                    .min()
                                    .unwrap_or(u64::MAX);
                                arrivals[p * k * k + me * k + j].store(min_at, Ordering::Relaxed);
                            }
                        }
                        // SAFETY: this thread is the unique sender
                        // `me`, publishing before this round's
                        // barrier; receivers drain after it with the
                        // same parity.
                        unsafe { grid.publish(p, me, &mut outbox) };
                        let at_barrier = Instant::now();
                        barrier.wait(&mut waiter);
                        shard.metrics.add(
                            Counter::EngineBarrierIdleNs,
                            at_barrier.elapsed().as_nanos() as u64,
                        );
                        // (2) Absorb this round's incoming mail; the
                        // queue re-establishes key order. Relaxed
                        // loads below are sound for the same reason
                        // the grid is: the barrier orders and
                        // publishes every pre-barrier store.
                        // SAFETY: unique receiver `me`, after the
                        // barrier the senders published before.
                        unsafe {
                            grid.drain(p, me, |(key, pend)| shard.queue.push(key, pend));
                        }
                        // (3) Everyone's effective next = earliest
                        // pending event after the exchange.
                        for (m, e) in eff.iter_mut().enumerate() {
                            let mut v = next_times[p * k + m].load(Ordering::Relaxed);
                            for i in 0..k {
                                if i != m {
                                    let a = arrivals[p * k * k + i * k + m].load(Ordering::Relaxed);
                                    v = v.min(a);
                                }
                            }
                            *e = v;
                        }
                        let min_eff = *eff.iter().min().expect("at least one shard");
                        if min_eff >= limit_ms {
                            // Every thread computes the same minimum,
                            // so all exit on the same round.
                            shard.now = shard.now.max(deadline);
                            break;
                        }
                        shard.metrics.incr(Counter::EngineEpochs);
                        // (4) Conservative per-shard bound; identical
                        // on every thread for a given `i`.
                        let bound_of = |i: usize| -> u64 {
                            (0..k)
                                .map(|m| eff[m].saturating_add(reach[m * k + i]))
                                .min()
                                .unwrap_or(u64::MAX)
                        };
                        let mut working = 0usize;
                        let mut solo = 0usize;
                        for (m, e) in eff.iter().enumerate() {
                            if *e < bound_of(m).min(limit_ms) {
                                working += 1;
                                solo = m;
                            }
                        }
                        if working == 1 {
                            // Fused solo round: the lone worker runs
                            // ahead to the earliest instant the
                            // *others'* events could reach it (no
                            // diagonal term — the emission stop in
                            // run_epoch_until_cross covers replies to
                            // its own mail); everyone else skips the
                            // round.
                            shard.metrics.incr(Counter::EngineFusedRounds);
                            if solo == me {
                                let inbound = (0..k)
                                    .filter(|m| *m != me)
                                    .map(|m| eff[m].saturating_add(reach[m * k + me]))
                                    .min()
                                    .unwrap_or(u64::MAX);
                                let end = SimTime::from_ms(inbound.min(limit_ms));
                                shard.run_epoch_until_cross(end, topo, place, &mut outbox);
                            }
                            continue;
                        }
                        // (5) One epoch up to this shard's bound.
                        let epoch_end = SimTime::from_ms(bound_of(me).min(limit_ms));
                        shard.run_epoch(epoch_end, topo, place, &mut outbox);
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod batch_parity;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;

    /// Echo protocol: replies to every Ping with a Pong; counts pongs.
    #[derive(Clone, Debug)]
    enum PingMsg {
        Ping,
        Pong,
    }
    impl Message for PingMsg {
        fn wire_size(&self) -> u32 {
            8
        }
        fn class(&self) -> TrafficClass {
            TrafficClass::QueryControl
        }
    }

    #[derive(Default)]
    struct Echo {
        pongs: u32,
        undeliverable: u32,
        revived: u32,
        timer_fired: bool,
    }
    impl Node<PingMsg> for Echo {
        fn on_event(&mut self, ctx: &mut Ctx<'_, PingMsg>, ev: Event<PingMsg>) {
            match ev {
                Event::Recv {
                    from,
                    msg: PingMsg::Ping,
                } => ctx.send(from, PingMsg::Pong),
                Event::Recv {
                    msg: PingMsg::Pong, ..
                } => self.pongs += 1,
                Event::Undeliverable { .. } => self.undeliverable += 1,
                // Timer kind 2 originates a Ping to node `tag` (lets
                // tests start a cross-shard exchange from a pure-local
                // event, leaving the target's shard queue empty).
                Event::Timer { kind: 2, tag } => ctx.send(NodeId(tag as u32), PingMsg::Ping),
                Event::Timer { .. } => self.timer_fired = true,
                Event::NodeUp => self.revived += 1,
            }
        }
    }

    fn engine() -> Engine<PingMsg, Echo> {
        engine_sharded(1)
    }

    fn engine_sharded(shards: usize) -> Engine<PingMsg, Echo> {
        let topo = crate::topology::Topology::generate(&TopologyConfig::small_test(), 5);
        let nodes = (0..topo.num_nodes()).map(|_| Echo::default()).collect();
        Engine::with_shards(topo, nodes, 99, SimDuration::from_mins(30), shards)
    }

    #[test]
    fn ping_pong_round_trip_latency() {
        let mut e = engine();
        let a = NodeId(0);
        let b = NodeId(1);
        let one_way = e.topology().latency_ms(a, b);
        e.schedule_at(
            SimTime::ZERO,
            b,
            Event::Recv {
                from: a,
                msg: PingMsg::Ping,
            },
        );
        e.run_until(SimTime::from_secs(10));
        assert_eq!(e.node(a).pongs, 1, "a should receive the pong");
        // The pong took one one-way latency from b to a.
        assert!(one_way > 0);
    }

    #[test]
    fn traffic_recorded_on_send() {
        let mut e = engine();
        e.schedule_at(
            SimTime::ZERO,
            NodeId(1),
            Event::Recv {
                from: NodeId(0),
                msg: PingMsg::Ping,
            },
        );
        e.run_until(SimTime::from_secs(5));
        assert_eq!(
            e.traffic()
                .sent_bytes(NodeId(1), TrafficClass::QueryControl),
            8
        );
        assert_eq!(
            e.traffic()
                .recv_bytes(NodeId(0), TrafficClass::QueryControl),
            8
        );
    }

    #[test]
    fn down_node_bounces_to_sender() {
        let mut e = engine();
        e.schedule_down(SimTime::ZERO, NodeId(1));
        // Node 0 receives a Ping "from" node 1 and pongs back to the
        // (dead) node 1; the engine must bounce the pong.
        e.schedule_at(
            SimTime::from_ms(1),
            NodeId(0),
            Event::Recv {
                from: NodeId(1),
                msg: PingMsg::Ping,
            },
        );
        e.run_until(SimTime::from_secs(10));
        assert_eq!(
            e.node(NodeId(0)).undeliverable,
            1,
            "sender must learn of the bounce"
        );
    }

    #[test]
    fn partition_cut_drops_silently_without_bounce() {
        use crate::fault::{FaultPlane, Partition};
        let mut e = engine();
        let a = NodeId(0);
        let la = e.topology().locality(a);
        let b = e
            .topology()
            .node_ids()
            .find(|n| e.topology().locality(*n) != la)
            .expect("small_test has several localities");
        let lb = e.topology().locality(b);
        e.set_fault_plane(FaultPlane::new().partition(Partition {
            start: SimTime::ZERO,
            heal: SimTime::from_secs(5),
            side_a: vec![la],
            side_b: vec![lb],
        }));
        // `a` pongs the (partitioned) `b`: the pong is a real wire
        // send, so the cut swallows it — silently, with no bounce.
        e.schedule_at(
            SimTime::from_ms(1),
            a,
            Event::Recv {
                from: b,
                msg: PingMsg::Ping,
            },
        );
        e.run_until(SimTime::from_secs(4));
        assert_eq!(e.node(b).pongs, 0, "pong must be cut");
        assert_eq!(
            e.node(a).undeliverable,
            0,
            "a partition gives the sender no synchronous signal"
        );
        assert_eq!(e.metrics().counter(metrics::Counter::EngineFaultDrops), 1);
        assert_eq!(e.metrics().counter(metrics::Counter::DropQueryControl), 1);
        assert_eq!(e.metrics().counter(metrics::Counter::EngineBounces), 0);
        // After the heal the same exchange goes through.
        e.schedule_at(
            SimTime::from_secs(6),
            a,
            Event::Recv {
                from: b,
                msg: PingMsg::Ping,
            },
        );
        e.run_until(SimTime::from_secs(10));
        assert_eq!(e.node(b).pongs, 1, "healed link must deliver");
    }

    #[test]
    fn certain_link_loss_drops_every_send() {
        use crate::fault::{FaultPlane, LinkLoss};
        let mut e = engine();
        e.set_fault_plane(FaultPlane::new().link_loss(LinkLoss {
            start: SimTime::ZERO,
            end: SimTime::from_secs(60),
            probability: 1.0,
            cross_locality_only: false,
        }));
        e.schedule_at(
            SimTime::from_ms(1),
            NodeId(0),
            Event::Recv {
                from: NodeId(1),
                msg: PingMsg::Ping,
            },
        );
        e.run_until(SimTime::from_secs(10));
        assert_eq!(e.node(NodeId(1)).pongs, 0);
        assert_eq!(e.metrics().counter(metrics::Counter::EngineFaultDrops), 1);
        assert_eq!(
            e.metrics().counter(metrics::Counter::SentQueryControl),
            e.metrics().counter(metrics::Counter::DropQueryControl),
            "with p = 1 every send is a drop"
        );
    }

    #[test]
    fn regional_failure_kills_locality_and_staggers_recovery() {
        use crate::fault::{FaultPlane, RegionalFailure};
        let mut e = engine();
        let loc = e.topology().locality(NodeId(0));
        let victims = e.topology().nodes_in(loc);
        e.set_fault_plane(FaultPlane::new().regional_failure(RegionalFailure {
            at: SimTime::from_secs(1),
            locality: loc,
            recover_start: SimTime::from_secs(2),
            stagger: SimDuration::from_ms(100),
        }));
        e.run_until(SimTime::from_ms(1500));
        for n in &victims {
            assert!(!e.is_up(*n), "{n:?} must be down mid-failure");
        }
        e.run_until(SimTime::from_secs(10));
        for n in &victims {
            assert!(e.is_up(*n), "{n:?} must have recovered");
            assert_eq!(e.node(*n).revived, 1);
        }
    }

    #[test]
    fn revive_delivers_node_up() {
        let mut e = engine();
        e.schedule_down(SimTime::ZERO, NodeId(3));
        e.schedule_up(SimTime::from_secs(1), NodeId(3));
        e.run_until(SimTime::from_secs(2));
        assert_eq!(e.node(NodeId(3)).revived, 1);
        assert!(e.is_up(NodeId(3)));
    }

    #[test]
    fn timers_fire() {
        let mut e = engine();
        e.schedule_at(SimTime::ZERO, NodeId(0), Event::Timer { kind: 1, tag: 0 });
        e.run_until(SimTime::from_secs(1));
        assert!(e.node(NodeId(0)).timer_fired);
    }

    #[test]
    fn timers_die_with_node() {
        let mut e = engine();
        e.schedule_down(SimTime::ZERO, NodeId(0));
        e.schedule_at(
            SimTime::from_ms(1),
            NodeId(0),
            Event::Timer { kind: 1, tag: 0 },
        );
        e.run_until(SimTime::from_secs(1));
        assert!(
            !e.node(NodeId(0)).timer_fired,
            "timer on a down node must be swallowed"
        );
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut e = engine();
        e.run_until(SimTime::from_secs(30));
        assert_eq!(e.now(), SimTime::from_secs(30));
        assert_eq!(e.events_processed(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn scheduling_in_the_past_panics() {
        let mut e = engine();
        e.run_until(SimTime::from_secs(10));
        e.schedule_at(SimTime::from_secs(5), NodeId(0), Event::NodeUp);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut e = engine();
            for i in 0..10u32 {
                e.schedule_at(
                    SimTime::from_ms(i as u64 * 7),
                    NodeId(i % 4),
                    Event::Recv {
                        from: NodeId((i + 1) % 4),
                        msg: PingMsg::Ping,
                    },
                );
            }
            e.run_until(SimTime::from_secs(20));
            (e.events_processed(), e.traffic().messages())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sharded_run_matches_single_shard() {
        let drive = |shards: usize| {
            let mut e = engine_sharded(shards);
            for i in 0..40u32 {
                e.schedule_at(
                    SimTime::from_ms(i as u64 * 13),
                    NodeId(i % 20),
                    Event::Recv {
                        from: NodeId((i + 7) % 20),
                        msg: PingMsg::Ping,
                    },
                );
            }
            e.schedule_down(SimTime::from_ms(50), NodeId(2));
            e.schedule_up(SimTime::from_secs(2), NodeId(2));
            e.run_until(SimTime::from_secs(20));
            let pongs: Vec<u32> = e.topology().node_ids().map(|n| e.node(n).pongs).collect();
            (
                e.events_processed(),
                e.traffic().messages(),
                e.traffic().total_sent(TrafficClass::QueryControl),
                pongs,
            )
        };
        let reference = drive(1);
        for shards in [2, 3] {
            assert_eq!(drive(shards), reference, "shards={shards} diverged");
        }
    }

    #[test]
    fn fault_plane_results_are_shard_invariant() {
        use crate::fault::{FaultPlane, LinkLoss, Partition, RegionalFailure};
        let drive = |shards: usize| {
            let mut e = engine_sharded(shards);
            let la = e.topology().locality(NodeId(0));
            let lb = e
                .topology()
                .node_ids()
                .map(|n| e.topology().locality(n))
                .find(|l| *l != la)
                .expect("several localities");
            e.set_fault_plane(
                FaultPlane::new()
                    .partition(Partition {
                        start: SimTime::from_ms(100),
                        heal: SimTime::from_secs(3),
                        side_a: vec![la],
                        side_b: vec![lb],
                    })
                    .link_loss(LinkLoss {
                        start: SimTime::from_secs(4),
                        end: SimTime::from_secs(8),
                        probability: 0.4,
                        cross_locality_only: false,
                    })
                    .regional_failure(RegionalFailure {
                        at: SimTime::from_secs(9),
                        locality: lb,
                        recover_start: SimTime::from_secs(10),
                        stagger: SimDuration::from_ms(50),
                    }),
            );
            for i in 0..120u32 {
                e.schedule_at(
                    SimTime::from_ms(i as u64 * 97),
                    NodeId(i % 20),
                    Event::Recv {
                        from: NodeId((i + 7) % 20),
                        msg: PingMsg::Ping,
                    },
                );
            }
            e.run_until(SimTime::from_secs(20));
            let pongs: Vec<u32> = e.topology().node_ids().map(|n| e.node(n).pongs).collect();
            (
                e.events_processed(),
                e.traffic().messages(),
                e.metrics().counter(metrics::Counter::EngineFaultDrops),
                e.metrics().counter(metrics::Counter::DropQueryControl),
                e.metrics().counter(metrics::Counter::EngineBounces),
                pongs,
            )
        };
        let reference = drive(1);
        assert!(reference.2 > 0, "the plane must actually drop something");
        for shards in [2, 3] {
            assert_eq!(drive(shards), reference, "shards={shards} diverged");
        }
    }

    #[test]
    fn recv_counter_table_matches_traffic_class_order() {
        assert_eq!(RECV_COUNTER.len(), TrafficClass::ALL.len());
        let expected = [
            (TrafficClass::Gossip, "engine_recv_gossip"),
            (TrafficClass::Push, "engine_recv_push"),
            (TrafficClass::KeepAlive, "engine_recv_keepalive"),
            (TrafficClass::DhtRouting, "engine_recv_dht_routing"),
            (TrafficClass::DhtMaintenance, "engine_recv_dht_maintenance"),
            (TrafficClass::QueryControl, "engine_recv_query_control"),
            (TrafficClass::Transfer, "engine_recv_transfer"),
        ];
        for (i, (class, name)) in expected.iter().enumerate() {
            assert_eq!(TrafficClass::ALL[i], *class, "class order drifted");
            assert_eq!(class.index(), i, "class index drifted");
            assert_eq!(
                RECV_COUNTER[i].def().name,
                *name,
                "RECV_COUNTER[{i}] does not match {class:?}"
            );
        }
    }

    #[test]
    fn sent_drop_bounce_counter_tables_match_traffic_class_order() {
        assert_eq!(SENT_COUNTER.len(), TrafficClass::ALL.len());
        assert_eq!(DROP_COUNTER.len(), TrafficClass::ALL.len());
        assert_eq!(BOUNCE_COUNTER.len(), TrafficClass::ALL.len());
        let suffixes = [
            "gossip",
            "push",
            "keepalive",
            "dht_routing",
            "dht_maintenance",
            "query_control",
            "transfer",
        ];
        for (i, suffix) in suffixes.iter().enumerate() {
            assert_eq!(
                SENT_COUNTER[i].def().name,
                format!("engine_sent_{suffix}"),
                "SENT_COUNTER[{i}] drifted"
            );
            assert_eq!(
                DROP_COUNTER[i].def().name,
                format!("engine_drop_{suffix}"),
                "DROP_COUNTER[{i}] drifted"
            );
            assert_eq!(
                BOUNCE_COUNTER[i].def().name,
                format!("engine_bounce_{suffix}"),
                "BOUNCE_COUNTER[{i}] drifted"
            );
        }
    }

    #[test]
    fn registry_counts_events_classes_and_bounces() {
        let mut e = engine();
        e.schedule_down(SimTime::ZERO, NodeId(1));
        e.schedule_at(
            SimTime::from_ms(5),
            NodeId(0),
            // Timer kind 2: node 0 pings the (dead) node 1.
            Event::Timer { kind: 2, tag: 1 },
        );
        e.schedule_at(
            SimTime::from_ms(7),
            NodeId(2),
            Event::Recv {
                from: NodeId(3),
                msg: PingMsg::Ping,
            },
        );
        e.run_until(SimTime::from_secs(10));
        let m = e.metrics();
        assert_eq!(
            m.counter(metrics::Counter::EngineEvents),
            e.events_processed(),
            "registry replaces the events side-channel"
        );
        assert_eq!(m.counter(metrics::Counter::EngineTimers), 1);
        assert_eq!(m.counter(metrics::Counter::EngineBounces), 1);
        // node 2's ping reply reached node 3: one QueryControl receive
        // (the ping to the dead node 1 was never received).
        assert!(m.counter(metrics::Counter::RecvQueryControl) >= 1);
        assert_eq!(m.counter(metrics::Counter::RecvGossip), 0);
        assert!(!m.is_empty());
    }

    #[test]
    fn registry_sim_cells_are_shard_invariant() {
        let drive = |shards: usize| {
            let mut e = engine_sharded(shards);
            for i in 0..40u32 {
                e.schedule_at(
                    SimTime::from_ms(i as u64 * 13),
                    NodeId(i % 20),
                    Event::Recv {
                        from: NodeId((i + 7) % 20),
                        msg: PingMsg::Ping,
                    },
                );
            }
            e.schedule_down(SimTime::from_ms(50), NodeId(2));
            e.schedule_up(SimTime::from_secs(2), NodeId(2));
            e.run_until(SimTime::from_secs(20));
            e.metrics().sim_fingerprint()
        };
        let reference = drive(1);
        assert!(!reference.iter().all(|&v| v == 0));
        for shards in [2, 3] {
            assert_eq!(drive(shards), reference, "shards={shards} diverged");
        }
    }

    #[test]
    fn shard_count_is_clamped_to_localities() {
        let e = engine_sharded(64);
        assert_eq!(e.num_shards(), 3, "small_test has 3 localities");
        assert!(e.topology().cross_locality_lookahead() >= SimDuration::from_ms(1));
    }

    /// The lookahead matrix's epoch schedule is an execution detail:
    /// sharded runs count barrier rounds yet behave bit-identically to
    /// the barrier-free single-shard run.
    #[test]
    fn lookahead_matrix_matches_global_floor_with_fewer_epochs() {
        let drive = |shards: usize| {
            let mut e = engine_sharded(shards);
            for i in 0..60u32 {
                e.schedule_at(
                    SimTime::from_ms(i as u64 * 211),
                    NodeId(i % 20),
                    Event::Recv {
                        from: NodeId((i + 7) % 20),
                        msg: PingMsg::Ping,
                    },
                );
            }
            e.schedule_down(SimTime::from_ms(50), NodeId(2));
            e.schedule_up(SimTime::from_secs(2), NodeId(2));
            e.run_until(SimTime::from_secs(30));
            let pongs: Vec<u32> = e.topology().node_ids().map(|n| e.node(n).pongs).collect();
            let fingerprint = (e.events_processed(), e.traffic().messages(), pongs);
            (fingerprint, e.epochs())
        };
        // Single-shard runs have no barrier and count no epochs.
        let (reference, epochs) = drive(1);
        assert_eq!(epochs, 0);
        for shards in [2usize, 3] {
            let (fp, epochs) = drive(shards);
            assert_eq!(fp, reference, "shards={shards}: results diverged");
            assert!(epochs > 0, "sharded runs must count epochs");
        }
    }

    /// The causality trap a naive peers-only bound falls into: an
    /// idle shard looks unconstraining, but a message sent to it this
    /// round can wake it and draw a reply (here: a bounce off a dead
    /// node, emitted by the idle shard) due one round trip later. The
    /// overrunning shard must not process its own far-future events
    /// before that reply — the `reach` diagonal (round-trip
    /// reflection) enforces exactly this.
    #[test]
    fn matrix_mode_waits_for_replies_drawn_from_idle_shards() {
        // A node in shard 0 and a node in shard 1 of the 2-shard layout.
        let probe = engine_sharded(2);
        let shard_of = |s: usize| {
            probe
                .topology()
                .node_ids()
                .find(|n| probe.place.shard(*n) == s)
                .expect("both shards populated")
        };
        let (a, c) = (shard_of(0), shard_of(1));
        let drive = |shards: usize| {
            let mut e = engine_sharded(shards);
            // Shard 1 starts with an *empty* queue. At t=1 a pure
            // shard-0 event (timer kind 2) makes `a` ping `c`; the
            // pong comes back one round trip later — while `a` also
            // holds a far-future timer that must not run first.
            e.schedule_at(
                SimTime::from_ms(1),
                a,
                Event::Timer {
                    kind: 2,
                    tag: c.0 as u64,
                },
            );
            e.schedule_at(SimTime::from_secs(50), a, Event::Timer { kind: 1, tag: 0 });
            e.run_until(SimTime::from_secs(60));
            (e.node(a).pongs, e.node(a).timer_fired, e.events_processed())
        };
        let reference = drive(1);
        let matrix = drive(2);
        assert_eq!(matrix, reference, "reply chain processed out of order");
        assert_eq!(matrix.0, 1, "the pong must reach the pinger");
    }

    /// A lone working shard fuses rounds: with pending events on one
    /// shard only, every other shard's published idleness lets the
    /// solo shard run to the horizon in one fused round instead of
    /// creeping forward a round-trip per barrier — with results
    /// identical to the single-shard run.
    #[test]
    fn solo_work_fuses_rounds_bit_identically() {
        // Pick a shard-0 node once, then drive the identical schedule
        // through both engines (pure-local timers: no cross mail).
        let probe = engine_sharded(3);
        let local = probe
            .topology()
            .node_ids()
            .find(|n| probe.place.shard(*n) == 0)
            .expect("shard 0 populated");
        let drive = |shards: usize| {
            let mut e = engine_sharded(shards);
            for i in 0..60u64 {
                e.schedule_at(
                    SimTime::from_ms(i * 499),
                    local,
                    Event::Timer { kind: 1, tag: 0 },
                );
            }
            e.run_until(SimTime::from_secs(40));
            (e.events_processed(), e.traffic().messages(), e.now())
        };
        let reference = drive(1);
        let mut e = engine_sharded(3);
        for i in 0..60u64 {
            e.schedule_at(
                SimTime::from_ms(i * 499),
                local,
                Event::Timer { kind: 1, tag: 0 },
            );
        }
        e.run_until(SimTime::from_secs(40));
        assert_eq!(
            (e.events_processed(), e.traffic().messages(), e.now()),
            reference,
            "fused execution diverged from the single-shard run"
        );
        assert!(
            e.fused_rounds() >= 1,
            "a lone working shard must fuse ({} fused)",
            e.fused_rounds()
        );
        assert!(
            e.epochs() <= 4,
            "fusion must collapse the round count, got {}",
            e.epochs()
        );
    }

    /// The dual pin: when *every* shard has due work each lookahead
    /// window — the shape of the dense `scale` sweep cells like
    /// 10k nodes / 8 shards — no round ever fuses and the epoch count
    /// stays exactly at the conservative-synchronization cadence. The
    /// committed BENCH epochs for dense cells are pinned by this
    /// invariance; it is the barrier cost per round that the mailbox
    /// redesign shrinks there, not the number of rounds.
    #[test]
    fn dense_rounds_never_fuse_and_keep_the_epoch_cadence() {
        let drive = || {
            let mut e = engine_sharded(3);
            let reps: Vec<NodeId> = (0..3)
                .map(|s| {
                    e.topology()
                        .node_ids()
                        .find(|n| e.place.shard(*n) == s)
                        .expect("all shards populated")
                })
                .collect();
            for step in 0..1500u64 {
                for &n in &reps {
                    e.schedule_at(
                        SimTime::from_ms(step * 20),
                        n,
                        Event::Timer { kind: 1, tag: 0 },
                    );
                }
            }
            e.run_until(SimTime::from_secs(30));
            (e.events_processed(), e.epochs(), e.fused_rounds())
        };
        let (events, epochs, fused) = drive();
        assert_eq!(events, 3 * 1500);
        assert!(epochs > 0, "sharded runs count rounds");
        assert_eq!(fused, 0, "every round has multi-shard work");
        // And the cadence is reproducible from run to run.
        assert_eq!(drive(), (events, epochs, fused));
    }

    #[test]
    fn reachability_bounds_close_over_emission_chains() {
        // Two shards, asymmetric lookaheads 10/30.
        let l = vec![u64::MAX, 10, 30, u64::MAX];
        let r = reachability_bounds(&l, 2);
        // Diagonal = own round trip; off-diagonal = direct hop.
        assert_eq!(r, vec![10 + 30, 10, 30, 30 + 10]);
        // Three shards where relaying through 1 beats the direct
        // 0 → 2 lookahead: dist(0,2) = 5 + 5 < 100.
        let l3 = vec![
            u64::MAX,
            5,
            100, // from 0
            5,
            u64::MAX,
            5, // from 1
            100,
            5,
            u64::MAX, // from 2
        ];
        let r3 = reachability_bounds(&l3, 3);
        // Earliest an event of shard 0 can become due at shard 2:
        // relay 0 → 1 (5) then hop 1 → 2 (5).
        assert_eq!(r3[2], 10); // row 0, column 2
                               // Shard 0's own reflection: out and back via shard 1.
        assert_eq!(r3[0], 10);
    }

    #[test]
    fn pair_lookahead_is_at_least_the_global_floor() {
        let e = engine_sharded(3);
        let floor = e.topology().cross_locality_lookahead().as_ms();
        for i in 0..e.num_shards() {
            for j in 0..e.num_shards() {
                if i == j {
                    assert_eq!(e.pair_lookahead_ms(i, j), u64::MAX);
                } else {
                    assert!(e.pair_lookahead_ms(i, j) >= floor);
                }
            }
        }
    }

    #[test]
    fn per_node_rng_streams_differ() {
        use rand::RngCore;
        let mut a = StdRng::seed_from_u64(node_stream_seed(7, NodeId(0)));
        let mut b = StdRng::seed_from_u64(node_stream_seed(7, NodeId(1)));
        let mut a2 = StdRng::seed_from_u64(node_stream_seed(7, NodeId(0)));
        assert_ne!(a.next_u64(), b.next_u64(), "streams must be independent");
        let _ = a2.next_u64();
    }
}
