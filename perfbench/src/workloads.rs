//! The three benchmark workloads, built only from the public config
//! types. Each is a fixed input run to its drain horizon; the seed is
//! the only thing that varies between runs.

use experiments::exps::chaos_config;
use flower_core::{FlowerConfig, FlowerSystem, SystemConfig};
use simnet::{
    ChurnConfig, ChurnScript, EventQueueKind, FaultPlane, Locality, LookaheadKind, NodeId,
    Partition, SimDuration, SimTime, TopologyConfig,
};
use workload::{CatalogConfig, WebsiteId, WorkloadConfig};

/// Full size (the measured inputs) or the self-test miniature
/// (≈2k nodes, 10 simulated seconds of queries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured workload.
    Full,
    /// The miniature the self-tests run.
    Tiny,
}

/// What a run is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// A run of a timed invocation: its host cost is an end-to-end
    /// metric.
    Timed,
    /// A run of a traced invocation: it gives per-layer metrics only.
    Traced,
}

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The `scale` deployment at 100k nodes, flat D-ring: gossip,
    /// keep-alive and the event queue; the traced run adds the epoch
    /// barrier on 2 shards.
    Steady100k,
    /// 20k nodes on 1 shard, 4 directory instances per petal, 6× the
    /// query rate: the query path and §5.3 petal splits; no barrier.
    HotPetals,
    /// The chaos deployment at 20k nodes on 1 shard with the
    /// pairwise-island partition and session churn: D-ring writes,
    /// timers, timeouts, retries and the fault plane.
    ChurnFaults,
}

/// Localities of every workload (the `scale`/`chaos` shape).
const LOCALITIES: usize = 8;
/// Active websites of the `scale`-shaped workloads.
const ACTIVE_WEBSITES: usize = 4;
/// Seed of every workload when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;
/// Query rate per node per second of the `scale` deployment.
const BASE_RATE_PER_NODE: f64 = 0.02;

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::Steady100k,
        Workload::HotPetals,
        Workload::ChurnFaults,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady100k => "steady-100k",
            Workload::HotPetals => "hot-petals",
            Workload::ChurnFaults => "churn-faults",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Engine shards (worker threads) a run uses. Timed runs use one:
    /// on a shared host with few cores the wall time of two shards
    /// follows the scheduler, since every epoch waits for the slower
    /// thread. The traced run of steady-100k uses two, so that the
    /// epoch exchange and barrier do work there. The simulated output
    /// is the same on any shard count.
    pub fn shards(self, mode: Mode) -> usize {
        match (self, mode) {
            (Workload::Steady100k, Mode::Traced) => 2,
            _ => 1,
        }
    }

    /// The simulation input for `seed`.
    pub fn config(self, size: Size, seed: u64, mode: Mode) -> SystemConfig {
        let tiny = size == Size::Tiny;
        let shards = self.shards(mode);
        match self {
            Workload::Steady100k => {
                let nodes = if tiny { 2_000 } else { 100_000 };
                let secs = if tiny { 10 } else { 60 };
                scale_shaped(nodes, shards, 0, BASE_RATE_PER_NODE, secs, seed)
            }
            Workload::HotPetals => {
                let nodes = if tiny { 2_000 } else { 20_000 };
                let secs = if tiny { 10 } else { 60 };
                scale_shaped(nodes, shards, 2, 6.0 * BASE_RATE_PER_NODE, secs, seed)
            }
            Workload::ChurnFaults => {
                let nodes = if tiny { 2_000 } else { 20_000 };
                let mut cfg = chaos_config(nodes, shards, seed);
                if tiny {
                    cfg.workload.duration_ms = SimDuration::from_secs(10).as_ms();
                }
                cfg
            }
        }
    }

    /// Install the workload's fault and churn scripts on a freshly
    /// built system (part of set-up).
    pub fn prepare(self, sys: &mut FlowerSystem, cfg: &SystemConfig) {
        if self != Workload::ChurnFaults {
            return;
        }
        // The chaos partition cell's scripts, with every instant
        // scaled from its 360 s trace to this trace's length.
        let horizon = cfg.workload.duration_ms;
        let at = |secs_of_360: u64| SimTime::from_ms(horizon * secs_of_360 / 360);
        let span = |secs_of_360: u64| SimDuration::from_ms(horizon * secs_of_360 / 360);
        sys.apply_churn(&churn_script(sys, cfg, at(30), span(90), span(15)));
        sys.apply_faults(&island_partition(at(150), at(240)));
    }
}

/// The `scale` experiment's deployment shape (8 localities, 8
/// websites of which 4 active, Zipf 1.2 website skew, WAN latencies)
/// at an arbitrary query rate. The §5.3 split threshold is derived
/// from the per-window load of the mean petal, as `scale` derives it.
fn scale_shaped(
    nodes: usize,
    shards: usize,
    instance_bits: u32,
    rate_per_node: f64,
    secs: u64,
    seed: u64,
) -> SystemConfig {
    let base = FlowerConfig::fast_test();
    let window_s = base.keepalive_period.as_ms() as f64 / 1000.0;
    let mean_petal_window =
        nodes as f64 * rate_per_node * window_s / (LOCALITIES * ACTIVE_WEBSITES) as f64;
    let petal_split_threshold = (mean_petal_window * 0.45).max(4.0) as u64;
    SystemConfig {
        topology: TopologyConfig {
            nodes,
            localities: LOCALITIES,
            min_latency_ms: 10,
            max_latency_ms: 500,
            cluster_spread: 0.03,
            background_fraction: 0.0,
            population_skew: 0.25,
            inter_locality_floor_ms: 60,
            event_queue: EventQueueKind::default(),
            lookahead: LookaheadKind::default(),
            pin: false,
        },
        catalog: CatalogConfig {
            num_websites: 8,
            active_websites: ACTIVE_WEBSITES,
            objects_per_website: 200,
            ..Default::default()
        },
        workload: WorkloadConfig {
            query_rate_per_sec: nodes as f64 * rate_per_node,
            duration_ms: SimDuration::from_secs(secs).as_ms(),
            website_zipf_alpha: 1.2,
            ..Default::default()
        },
        flower: FlowerConfig {
            max_overlay: (nodes / 16).max(50),
            instance_bits,
            petal_split_threshold,
            petal_merge_floor: (petal_split_threshold / 4).max(1),
            ..base
        },
        seed,
        window: SimDuration::from_secs(30),
        shards,
    }
}

/// Session churn over a third of every community; nodes that leave
/// come back stateless.
fn churn_script(
    sys: &FlowerSystem,
    cfg: &SystemConfig,
    start: SimTime,
    mean_session: SimDuration,
    mean_downtime: SimDuration,
) -> ChurnScript {
    let mut affected: Vec<NodeId> = Vec::new();
    for ws in 0..cfg.catalog.active_websites as u16 {
        for l in 0..cfg.topology.localities as u16 {
            let comm = sys.community(WebsiteId(ws), Locality(l));
            affected.extend(comm.iter().take(comm.len() / 3));
        }
    }
    affected.sort_unstable_by_key(|n| n.0);
    affected.dedup();
    ChurnScript::generate(
        &ChurnConfig {
            start,
            end: SimTime::from_ms(cfg.workload.duration_ms),
            mean_session,
            mean_downtime,
            permanent: false,
        },
        &affected,
        cfg.seed,
    )
}

/// Pairwise islands among localities {0, 3, 4, 5, 6, 7}; localities 1
/// and 2, home of the origin servers, stay reachable from everywhere.
fn island_partition(start: SimTime, heal: SimTime) -> FaultPlane {
    let victims = [0u16, 3, 4, 5, 6, 7];
    let mut plane = FaultPlane::new();
    for (i, &a) in victims.iter().enumerate() {
        for &b in &victims[i + 1..] {
            plane = plane.partition(Partition {
                start,
                heal,
                side_a: vec![Locality(a)],
                side_b: vec![Locality(b)],
            });
        }
    }
    plane
}
