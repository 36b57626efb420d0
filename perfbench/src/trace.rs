//! The traced run's instruments: in-memory spans recorded around the
//! benchmark's own calls into each layer, and isolated timings of
//! single layer operations.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use bloom::{ContentSummary, MaintainedSummary, ObjectId};
use chord::{stable_ring, ChordConfig, ChordId, PeerRef};
use flower_core::{DirectoryState, FlowerSystem, KeyScheme, SystemConfig};
use gossip::{View, ViewEntry};
use metrics::{Counter, MetricSet, MetricSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::event::EventQueue;
use simnet::{EventKey, Locality, MailboxGrid, NodeId, SenseBarrier, SimDuration, SimTime};
use workload::{Catalog, WebsiteId};

/// Registry counters every slice span carries as deltas.
const SLICE_COUNTERS: [Counter; 8] = [
    Counter::EngineEvents,
    Counter::EngineTimers,
    Counter::SentGossip,
    Counter::SentDhtRouting,
    Counter::SentQueryControl,
    Counter::EngineFaultDrops,
    Counter::DirProcess,
    Counter::EngineEpochs,
];

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary or phase name.
    pub name: &'static str,
    /// Start, host µs since the tracer was created.
    pub start_us: u64,
    /// End, host µs since the tracer was created.
    pub end_us: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Registry counter deltas over the span, when it carries any.
    pub deltas: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in host milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1000.0
    }
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Tracer {
    t0: Instant,
    /// Spans in opening order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Open a span; returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
            deltas: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Close a span.
    pub fn close(&mut self, span: usize) {
        self.spans[span].end_us = self.now_us();
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent);
        let out = f();
        self.close(span);
        out
    }

    /// The slice counters' current values.
    pub fn counters(&self, sys: &FlowerSystem) -> [u64; SLICE_COUNTERS.len()] {
        let set = sys.engine().metrics();
        SLICE_COUNTERS.map(|c| set.counter(c))
    }

    /// Close a span, attaching the counter deltas between two reads.
    pub fn close_with_deltas(
        &mut self,
        span: usize,
        before: [u64; SLICE_COUNTERS.len()],
        after: [u64; SLICE_COUNTERS.len()],
    ) {
        self.close(span);
        self.spans[span].deltas = SLICE_COUNTERS
            .iter()
            .zip(before.iter().zip(after.iter()))
            .map(|(c, (b, a))| (c.def().name, a - b))
            .collect();
    }

    /// Total host seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ms() / 1000.0)
            .sum()
    }

    /// The spans as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let deltas: Vec<String> = s
                .deltas
                .iter()
                .map(|(n, v)| format!("\"{n}\": {v}"))
                .collect();
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \
                 \"parent\": {parent}, \"deltas\": {{{}}}}}{}",
                s.name,
                s.start_us,
                s.end_us,
                deltas.join(", "),
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Median host nanoseconds per call of `op` over `batches` batches of
/// `per_batch` calls.
fn ns_per_call(batches: usize, per_batch: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut samples: Vec<f64> = (0..batches)
        .map(|b| {
            let t0 = Instant::now();
            for i in 0..per_batch {
                op(b * per_batch + i);
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// `EventQueue::push` + `pop` at a standing depth of `depth` events
/// spread over the workload's horizon: ns per pair.
pub fn push_pop_ns(depth: usize, horizon: SimTime) -> f64 {
    let mut rng = StdRng::seed_from_u64(1);
    let span_ms = horizon.as_ms().max(1);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut seq = 0u64;
    for _ in 0..depth.max(1) {
        let key = EventKey {
            at: SimTime::from_ms(rng.gen_range(0..span_ms)),
            src: seq % 64,
            seq,
        };
        q.push(key, seq);
        seq += 1;
    }
    ns_per_call(9, 100_000, |_| {
        let (k, v) = q.pop().expect("standing population");
        let delay = SimDuration::from_ms(rng.gen_range(1..500));
        q.push(
            EventKey {
                at: k.at + delay,
                src: seq % 64,
                seq,
            },
            black_box(v),
        );
        seq += 1;
    })
}

/// One `MailboxGrid` exchange of 8 staged items per direction plus
/// one `SenseBarrier` round, between 2 threads: ns per round.
pub fn exchange_ns() -> f64 {
    const ROUNDS: usize = 20_000;
    const BATCH: u64 = 8;
    let grid: MailboxGrid<u64> = MailboxGrid::new(2);
    let barrier = SenseBarrier::new(2);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|me| {
                let (grid, barrier) = (&grid, &barrier);
                s.spawn(move || {
                    let mut w = barrier.waiter();
                    let mut outbox: Vec<Vec<u64>> = vec![Vec::new(); 2];
                    let mut got = 0u64;
                    barrier.wait(&mut w);
                    let t0 = Instant::now();
                    for r in 0..ROUNDS {
                        let parity = r & 1;
                        outbox[1 - me].extend(0..BATCH);
                        // SAFETY: this thread is the only sender `me`,
                        // and it publishes before the round's barrier.
                        unsafe { grid.publish(parity, me, &mut outbox) };
                        barrier.wait(&mut w);
                        // SAFETY: this thread is the only receiver `me`,
                        // draining after the barrier of the round in
                        // which its peer published with this parity.
                        unsafe { grid.drain(parity, me, |v| got += v) };
                    }
                    black_box(got);
                    t0.elapsed().as_nanos() as f64 / ROUNDS as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("exchange thread panicked"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}

/// Algorithm 3 on a directory whose index holds the workload's full
/// overlay (`Sco` members, 10 cached objects each): ns per query.
pub fn process_ns(cfg: &SystemConfig) -> f64 {
    let catalog = Catalog::new(cfg.catalog.clone());
    let objects = catalog.objects_of(WebsiteId(0));
    let mut dir = DirectoryState::new(
        WebsiteId(0),
        Locality(0),
        0,
        cfg.flower.max_overlay,
        cfg.flower.t_dead,
        catalog.objects_per_website(),
    );
    let mut rng = StdRng::seed_from_u64(2);
    for peer in 0..cfg.flower.max_overlay as u32 {
        let held: Vec<ObjectId> = (0..10)
            .map(|_| objects[rng.gen_range(0..objects.len())])
            .collect();
        dir.apply_push(NodeId(peer), &held, &[]);
    }
    let max_hops = cfg.flower.max_dir_hops;
    ns_per_call(9, 100_000, |i| {
        let o = objects[i % objects.len()];
        black_box(dir.process(&mut rng, o, NodeId(i as u32 % 1000), max_hops, 0));
    })
}

/// `ChordState::local_lookup` on a stable ring of the workload's
/// D-ring (every website × locality × instance key): ns per lookup.
pub fn lookup_ns(cfg: &SystemConfig) -> f64 {
    let scheme = KeyScheme::new(cfg.flower.locality_bits, cfg.flower.instance_bits);
    let mut members = Vec::new();
    for ws in 0..cfg.catalog.num_websites as u16 {
        for loc in 0..cfg.topology.localities as u16 {
            for inst in 0..scheme.instances() as u32 {
                members.push(PeerRef {
                    id: scheme.key_with_instance(WebsiteId(ws), Locality(loc), inst),
                    node: NodeId(members.len() as u32),
                });
            }
        }
    }
    let ring = stable_ring(&members, &ChordConfig::default());
    let mut key = 0u64;
    ns_per_call(9, 200_000, |i| {
        key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        black_box(ring[i % ring.len()].local_lookup(ChordId(key)));
    })
}

/// A gossip view merge at the config's `Vgossip`/`Lgossip`, entries
/// carrying content summaries: ns per merge.
pub fn merge_ns(cfg: &SystemConfig) -> f64 {
    let (v, l) = (cfg.flower.v_gossip, cfg.flower.l_gossip);
    let summary = |seed: u64| {
        let mut s = ContentSummary::empty(cfg.catalog.objects_per_website);
        for k in 0..10u64 {
            s.insert(ObjectId(seed * 31 + k));
        }
        Some(s)
    };
    let mut base: View<u32, Option<ContentSummary>> = View::new(v);
    for p in 0..v as u32 {
        base.insert_fresh(p, summary(p as u64));
    }
    // Half the subset overlaps the view, half is new.
    let subset: Vec<ViewEntry<u32, Option<ContentSummary>>> = (0..l as u32)
        .map(|i| ViewEntry {
            peer: if i % 2 == 0 { i } else { 1000 + i },
            age: 1,
            data: summary(i as u64 + 100),
        })
        .collect();
    let partner = ViewEntry::fresh(999, summary(999));
    const PER_BATCH: usize = 20_000;
    let mut views: Vec<_> = Vec::new();
    let mut samples = Vec::new();
    for _ in 0..9 {
        views.clear();
        views.resize(PER_BATCH, base.clone());
        let inputs: Vec<_> = (0..PER_BATCH)
            .map(|_| (partner.clone(), subset.clone()))
            .collect();
        let t0 = Instant::now();
        for (view, (p, s)) in views.iter_mut().zip(inputs) {
            view.merge(7777, p, s);
        }
        samples.push(t0.elapsed().as_nanos() as f64 / PER_BATCH as f64);
        black_box(&views);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A `MaintainedSummary` snapshot after one change (a remove and an
/// insert): ns per changed snapshot.
pub fn snapshot_ns(cfg: &SystemConfig) -> f64 {
    let n = cfg.catalog.objects_per_website;
    let mut m = MaintainedSummary::empty(n);
    for k in 0..n as u64 / 2 {
        m.insert(ObjectId(k));
    }
    ns_per_call(9, 50_000, |i| {
        let o = ObjectId((i % (n / 2)) as u64);
        m.remove(o);
        m.insert(o);
        black_box(m.snapshot());
    })
}

/// `MetricSink::incr`: ns per increment.
pub fn record_ns() -> f64 {
    let mut set = MetricSet::new();
    let r = ns_per_call(9, 1_000_000, |_| {
        MetricSink::new(black_box(&mut set)).incr(black_box(Counter::EngineEvents));
    });
    black_box(set.counter(Counter::EngineEvents));
    r
}
