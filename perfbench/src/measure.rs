//! One run of a workload: set-up, the simulation to its drain
//! horizon, the host cost of both, and the correctness checks on the
//! simulated output.

use std::time::Instant;

use experiments::gate::{parse_metrics, validate_metrics};
use experiments::report::{metrics_json, MetricsRecord};
use flower_core::{FlowerSystem, SystemConfig, SystemReport};
use metrics::{Counter, MetricSet};
use simnet::{Histogram, SimTime};

use crate::trace::Tracer;
use crate::workloads::{Mode, Size, Workload};

/// Lookup latency above which a lookup counts as slow: the paper's
/// Fig. 7b tail, and the open-ended last bucket of the in-program
/// histogram (150 ms buckets).
pub const TAIL_LOOKUP_MS: u64 = 1050;

/// The `q` quantile of a bucketed histogram, interpolated linearly
/// inside the bucket that holds it. The open-ended last bucket spans
/// up to the largest value recorded.
pub fn quantile(h: &Histogram, q: f64) -> f64 {
    let width = h.bucket_width() as f64;
    let dist = h.distribution();
    let mut below = 0.0;
    for (i, (lo, f)) in dist.iter().enumerate() {
        if *f > 0.0 && below + f >= q {
            let hi = if i + 1 == dist.len() {
                h.max() as f64
            } else {
                *lo as f64 + width
            };
            return *lo as f64 + (hi - *lo as f64) * (q - below) / f;
        }
        below += f;
    }
    h.max() as f64
}

/// Everything a run's simulation produced that the benchmark reads.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The paper metrics.
    pub report: SystemReport,
    /// The merged metric registry.
    pub set: MetricSet,
    /// 95th-percentile lookup latency (ms), see [`quantile`].
    pub lookup_ms_p95: f64,
    /// Share of lookups slower than [`TAIL_LOOKUP_MS`].
    pub lookup_tail_frac: f64,
    /// Engine shards the run executed on.
    pub shards: usize,
    /// Barrier wait per shard, mean over shards (s).
    pub barrier_idle_s: f64,
    /// Barrier epochs (identical on every shard).
    pub epochs: u64,
    /// Of the epochs, fused solo rounds.
    pub fused_rounds: u64,
    /// Deepest any shard's event queue got.
    pub peak_queue_depth: usize,
}

impl Outcome {
    fn read(sys: &FlowerSystem) -> Outcome {
        let engine = sys.engine();
        let idle = engine.barrier_idle_secs();
        let lookups = engine.query_stats().lookup_hist();
        Outcome {
            report: sys.report(),
            set: engine.metrics().clone(),
            lookup_ms_p95: quantile(lookups, 0.95),
            lookup_tail_frac: lookups.fraction_gt(TAIL_LOOKUP_MS),
            shards: engine.num_shards(),
            barrier_idle_s: idle.iter().sum::<f64>() / idle.len().max(1) as f64,
            epochs: engine.epochs(),
            fused_rounds: engine.fused_rounds(),
            peak_queue_depth: engine.peak_queue_depth(),
        }
    }

    /// Registry counter value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.set.counter(c)
    }

    /// 1 − resolved / submitted.
    pub fn query_fail_ratio(&self) -> f64 {
        1.0 - self.report.resolved as f64 / self.report.submitted.max(1) as f64
    }

    /// The seed-determined part of the run: every simulation-scope
    /// registry cell plus every report field (floats by their bits).
    /// Runs of one workload and seed must agree on it exactly.
    pub fn fingerprint(&self) -> Vec<u64> {
        let r = &self.report;
        let mut out = self.set.sim_fingerprint();
        out.extend([
            r.submitted,
            r.resolved,
            r.hit_ratio.to_bits(),
            r.mean_lookup_ms.to_bits(),
            r.mean_transfer_ms.to_bits(),
            r.mean_transfer_hit_ms.to_bits(),
            r.background_bps.to_bits(),
            r.participants as u64,
            r.redirection_failures,
            r.local_hit_fraction.to_bits(),
            r.dir_load_max_mean.to_bits(),
            r.dir_instances_live as u64,
            self.lookup_ms_p95.to_bits(),
            self.lookup_tail_frac.to_bits(),
        ]);
        out
    }

    /// FNV-1a digest of [`Outcome::fingerprint`], printed so two
    /// commits' runs can be compared at a glance.
    pub fn digest(&self) -> u64 {
        self.fingerprint()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, v| {
                v.to_le_bytes()
                    .iter()
                    .fold(h, |h, b| (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3))
            })
    }
}

/// One timed run.
#[derive(Clone, Debug)]
pub struct Timed {
    /// `FlowerSystem::build` plus script installation (s).
    pub setup_s: f64,
    /// Wall time of `run_until(drain_horizon)` (s).
    pub run_s: f64,
    /// User + system CPU of the process over the run (s).
    pub cpu_s: f64,
    /// What the simulation produced.
    pub outcome: Outcome,
}

/// Build the workload's system and install its scripts, timed.
pub fn setup(w: Workload, cfg: &SystemConfig) -> (FlowerSystem, f64) {
    let t0 = Instant::now();
    let mut sys = FlowerSystem::build(cfg);
    w.prepare(&mut sys, cfg);
    (sys, t0.elapsed().as_secs_f64())
}

/// Set up and run one workload to its drain horizon. With a tracer,
/// the run is sliced at every simulated second and each slice is
/// recorded as a span.
pub fn execute(
    w: Workload,
    size: Size,
    seed: u64,
    mode: Mode,
    tracer: Option<&mut Tracer>,
) -> Timed {
    let cfg = w.config(size, seed, mode);
    let (mut sys, setup_s) = setup(w, &cfg);
    let horizon = sys.drain_horizon();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    match tracer {
        None => sys.run_until(horizon),
        Some(tracer) => {
            let run = tracer.open("run", None);
            let mut at = SimTime::ZERO;
            while at < horizon {
                at = (at + simnet::SimDuration::from_secs(1)).min(horizon);
                let before = tracer.counters(&sys);
                let slice = tracer.open("slice", Some(run));
                sys.run_until(at);
                tracer.close_with_deltas(slice, before, tracer.counters(&sys));
            }
            tracer.close(run);
        }
    }
    let run_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    Timed {
        setup_s,
        run_s,
        cpu_s,
        outcome: Outcome::read(&sys),
    }
}

/// Checks on one run's own output: the registry passes the metrics
/// gate (including the per-class message ledger), no more queries
/// resolved than were submitted, and the layer-isolation predictions
/// of the workload hold. (The miniature fault window is too short for
/// a query to exhaust its retries, so origin fallbacks are required
/// at full size only.)
pub fn check(w: Workload, size: Size, o: &Outcome) -> Result<(), String> {
    validate_registry(w, &[o])?;
    let r = &o.report;
    if r.resolved > r.submitted {
        return Err(format!(
            "resolved {} > submitted {}",
            r.resolved, r.submitted
        ));
    }
    if r.submitted == 0 {
        return Err("no query was submitted".into());
    }
    match w {
        Workload::Steady100k | Workload::HotPetals => {
            for c in [
                Counter::DirQueryTimeouts,
                Counter::DirQueryRetries,
                Counter::EngineFaultDrops,
            ] {
                if o.counter(c) != 0 {
                    return Err(format!(
                        "{} is {} without faults",
                        c.def().name,
                        o.counter(c)
                    ));
                }
            }
        }
        Workload::ChurnFaults => {
            let fallbacks = (size == Size::Full).then_some(Counter::DirQueryOriginFallbacks);
            for c in [Counter::DirQueryTimeouts, Counter::EngineFaultDrops]
                .into_iter()
                .chain(fallbacks)
            {
                if o.counter(c) == 0 {
                    return Err(format!("{} is 0 under faults", c.def().name));
                }
            }
            if o.query_fail_ratio() <= 0.0 {
                return Err("no query failed under faults".into());
            }
        }
    }
    if o.shards == 1 && (o.epochs != 0 || o.fused_rounds != 0 || o.barrier_idle_s != 0.0) {
        return Err("the sync layer worked on a single shard".into());
    }
    Ok(())
}

/// Whether two runs simulated the same thing: equal fingerprints,
/// and the metrics gate's cross-record simulation-scope check passes
/// on their registries.
pub fn same_simulation(w: Workload, a: &Outcome, b: &Outcome) -> Result<(), String> {
    validate_registry(w, &[a, b])?;
    if a.fingerprint() != b.fingerprint() {
        return Err(format!(
            "fingerprint {:016x} differs from {:016x}",
            b.digest(),
            a.digest()
        ));
    }
    Ok(())
}

/// Round-trip registries through `METRICS.json` and the metrics gate,
/// all under one simulation key.
fn validate_registry(w: Workload, outcomes: &[&Outcome]) -> Result<(), String> {
    let records: Vec<MetricsRecord> = outcomes
        .iter()
        .map(|o| MetricsRecord {
            experiment: format!("perfbench/{}", w.name()),
            sim_key: format!("perfbench/{}", w.name()),
            shards: o.shards,
            set: o.set.clone(),
        })
        .collect();
    let doc = parse_metrics(&metrics_json("perfbench", &records))?;
    validate_metrics(&doc)
}

/// User + system CPU seconds of this process (all threads, live and
/// exited), from `/proc/self/stat` in clock ticks of 1/100 s (Linux's
/// fixed `USER_HZ`).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("Linux /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick count");
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set of this process so far (MB, `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    experiments::runner::peak_rss_mb().expect("Linux /proc/self/status")
}
