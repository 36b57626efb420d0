//! The tentpole guarantee of the sharded engine: the same seed
//! produces bit-identical results for every shard count, including
//! `--shards 1`. The protocol below deliberately exercises everything
//! that could diverge under parallel execution: per-node randomness,
//! timers, cross-locality traffic, churn bounces, query metrics and
//! gauges.

use rand::Rng;
use simnet::stats::ServedBy;
use simnet::{
    ChurnConfig, ChurnScript, Ctx, Engine, Event, Message, Node, NodeId, SimDuration, SimTime,
    Topology, TopologyConfig, TrafficClass,
};

#[derive(Clone, Debug)]
enum Msg {
    Probe { hops: u8 },
    Reply,
}

impl Message for Msg {
    fn wire_size(&self) -> u32 {
        match self {
            Msg::Probe { .. } => 24,
            Msg::Reply => 16,
        }
    }
    fn class(&self) -> TrafficClass {
        match self {
            Msg::Probe { .. } => TrafficClass::QueryControl,
            Msg::Reply => TrafficClass::Transfer,
        }
    }
}

/// Relays probes to random peers (biased cross-locality), answers with
/// replies, records query metrics, keeps a state digest.
#[derive(Default)]
struct Chatter {
    digest: u64,
    replies: u32,
    bounces: u32,
}

impl Chatter {
    fn mix(&mut self, x: u64) {
        self.digest = self
            .digest
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add(x ^ 0x9E37_79B9);
    }
}

impl Node<Msg> for Chatter {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, ev: Event<Msg>) {
        match ev {
            Event::Recv {
                from,
                msg: Msg::Probe { hops },
            } => {
                self.mix(hops as u64 ^ ctx.now().as_ms());
                ctx.query_stats().on_submit();
                if hops == 0 {
                    let me = ctx.id();
                    let now = ctx.now();
                    let lat = ctx.latency_ms(me, from);
                    let served = if ctx.locality(me) == ctx.locality(from) {
                        ServedBy::LocalOverlay
                    } else {
                        ServedBy::RemoteOverlay
                    };
                    ctx.query_stats().on_resolved(now, me, lat, lat, served);
                    ctx.send(from, Msg::Reply);
                    return;
                }
                // Random next hop from this node's private stream.
                let n = ctx.num_nodes() as u32;
                let next = NodeId(ctx.rng().gen_range(0..n));
                ctx.send(next, Msg::Probe { hops: hops - 1 });
                // Random jittered timer.
                let delay = SimDuration::from_ms(ctx.rng().gen_range(1..500u64));
                ctx.set_timer(delay, 1, hops as u64);
            }
            Event::Recv {
                msg: Msg::Reply, ..
            } => {
                self.replies += 1;
                ctx.gauge("replies", 1.0);
            }
            Event::Timer { tag, .. } => self.mix(tag),
            Event::Undeliverable { to, .. } => {
                self.bounces += 1;
                self.mix(to.0 as u64);
            }
            Event::NodeUp => self.mix(0xDEAD),
        }
    }
}

/// A full run at the given shard count, reduced to a comparable
/// fingerprint of everything observable.
fn run(shards: usize, seed: u64) -> (u64, u64, Vec<u64>, Vec<u64>, u64, String) {
    let topo = Topology::generate(
        &TopologyConfig {
            nodes: 160,
            localities: 4,
            inter_locality_floor_ms: 60,
            ..Default::default()
        },
        seed,
    );
    let n = topo.num_nodes();
    let nodes = (0..n).map(|_| Chatter::default()).collect();
    let mut e = Engine::with_shards(topo, nodes, seed, SimDuration::from_secs(10), shards);

    // Inject probes at staggered times from many origins.
    for i in 0..60u32 {
        e.schedule_at(
            SimTime::from_ms(i as u64 * 37),
            NodeId(i % n as u32),
            Event::Recv {
                from: NodeId((i * 13 + 1) % n as u32),
                msg: Msg::Probe {
                    hops: (i % 7) as u8,
                },
            },
        );
    }
    // Session churn over a quarter of the population.
    let affected: Vec<NodeId> = (0..n as u32 / 4).map(NodeId).collect();
    let script = ChurnScript::generate(
        &ChurnConfig {
            start: SimTime::from_secs(2),
            end: SimTime::from_secs(50),
            mean_session: SimDuration::from_secs(8),
            mean_downtime: SimDuration::from_secs(2),
            permanent: false,
        },
        &affected,
        seed,
    );
    script.install(&mut e);

    e.run_until(SimTime::from_secs(60));

    let digests: Vec<u64> = e.topology().node_ids().map(|i| e.node(i).digest).collect();
    let per_node_traffic: Vec<u64> = e
        .topology()
        .node_ids()
        .flat_map(|i| {
            TrafficClass::ALL
                .iter()
                .map(move |c| (i, *c))
                .collect::<Vec<_>>()
        })
        .map(|(i, c)| e.traffic().sent_bytes(i, c) + e.traffic().recv_bytes(i, c))
        .collect();
    let q = e.query_stats();
    let qfp = format!(
        "{}/{} hit={:.12} lookup={:.6} transfer={:.6} cum_last={:?} replies_gauge={:?}",
        q.submitted(),
        q.resolved(),
        q.hit_ratio(),
        q.mean_lookup_ms(),
        q.mean_transfer_ms(),
        q.cumulative_hit_series().last().copied(),
        e.gauges().get("replies").map(|s| {
            s.points()
                .iter()
                .map(|p| (p.count, p.sum as u64))
                .collect::<Vec<_>>()
        }),
    );
    (
        e.events_processed(),
        e.traffic().messages(),
        digests,
        per_node_traffic,
        q.resolved(),
        qfp,
    )
}

#[test]
fn same_seed_identical_across_shard_counts() {
    let reference = run(1, 42);
    assert!(reference.0 > 500, "the workload should generate real load");
    assert!(reference.4 > 0, "some queries must resolve");
    for shards in [2, 3, 4] {
        let sharded = run(shards, 42);
        assert_eq!(
            sharded, reference,
            "shards={shards} diverged from the single-shard run"
        );
    }
}

#[test]
fn different_seeds_still_differ() {
    // Guard against the fingerprint being insensitive.
    assert_ne!(run(2, 1).2, run(2, 2).2, "seed must matter");
}

#[test]
fn churn_bounces_are_shard_independent() {
    let bounce_counts = |shards: usize| -> Vec<u32> {
        let topo = Topology::generate(
            &TopologyConfig {
                nodes: 80,
                localities: 4,
                inter_locality_floor_ms: 40,
                ..Default::default()
            },
            7,
        );
        let n = topo.num_nodes();
        let nodes = (0..n).map(|_| Chatter::default()).collect();
        let mut e = Engine::with_shards(topo, nodes, 7, SimDuration::from_secs(10), shards);
        // Take down half the nodes, then probe into the rubble.
        for i in 0..n as u32 / 2 {
            e.schedule_down(SimTime::ZERO, NodeId(i * 2));
        }
        for i in 0..40u32 {
            e.schedule_at(
                SimTime::from_ms(5 + i as u64 * 11),
                NodeId(i % (n as u32)),
                Event::Recv {
                    from: NodeId((i + 3) % (n as u32)),
                    msg: Msg::Probe { hops: 3 },
                },
            );
        }
        e.run_until(SimTime::from_secs(30));
        e.topology().node_ids().map(|i| e.node(i).bounces).collect()
    };
    let reference = bounce_counts(1);
    assert!(
        reference.iter().sum::<u32>() > 0,
        "the scenario should produce bounces"
    );
    assert_eq!(bounce_counts(2), reference);
    assert_eq!(bounce_counts(4), reference);
}
