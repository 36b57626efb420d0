//! The Flower-CDN benchmark: runs one named workload from a seed,
//! prints its end-to-end metrics (or, traced, its per-layer metrics)
//! and checks that the simulated output is correct.
//!
//! ```text
//! perfbench --workload <steady-100k|hot-petals|churn-faults> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod measure;
mod trace;
mod workloads;

use std::time::Instant;

use metrics::{Counter, Gauge, Hist};
use simnet::Topology;
use workload::{Catalog, QueryStream};

use measure::{check, execute, same_simulation, setup, Outcome, Timed};
use trace::Tracer;
use workloads::{Mode, Size, Workload};

/// End-to-end metrics (name, unit), reported by untraced runs.
pub const END_TO_END: [(&str, &str); 11] = [
    ("run_s", "s"),
    ("events_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("hit_ratio", "ratio"),
    ("lookup_ms_mean", "ms"),
    ("lookup_ms_p95", "ms"),
    ("transfer_ms_mean", "ms"),
    ("background_bps", "bit/s"),
    ("query_ok_ratio", "ratio"),
];

/// Per-layer metrics (name, unit), reported by traced runs.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("simnet.engine.events", "count"),
    ("simnet.engine.timer_events", "count"),
    ("simnet.engine.msgs_background", "count"),
    ("simnet.engine.msgs_dht", "count"),
    ("simnet.engine.msgs_query", "count"),
    ("simnet.engine.bounced", "count"),
    ("simnet.engine.ns_per_event", "ns"),
    ("simnet.engine.slice_ms_p50", "ms"),
    ("simnet.engine.slice_ms_p99", "ms"),
    ("simnet.event.peak_queue_depth", "count"),
    ("simnet.event.push_pop_ns", "ns"),
    ("simnet.sync.epochs", "count"),
    ("simnet.sync.fused_rounds", "count"),
    ("simnet.sync.barrier_idle_s", "s"),
    ("simnet.sync.barrier_idle_share", "ratio"),
    ("simnet.sync.exchange_ns", "ns"),
    ("simnet.fault.dropped", "count"),
    ("simnet.topology.generate_s", "s"),
    ("workload.generate_s", "s"),
    ("workload.queries", "count"),
    ("core.system.build_self_s", "s"),
    ("core.system.query_fail_ratio", "ratio"),
    ("core.system.lookup_tail_frac", "ratio"),
    ("core.directory.process_calls", "count"),
    ("core.directory.holder_ratio", "ratio"),
    ("core.directory.server_ratio", "ratio"),
    ("core.directory.petal_splits", "count"),
    ("core.directory.petal_merges", "count"),
    ("core.directory.timeouts", "count"),
    ("core.directory.retries", "count"),
    ("core.directory.degraded_origin", "count"),
    ("core.directory.retry_rescue_ratio", "ratio"),
    ("core.directory.process_ns", "ns"),
    ("core.substrate.hops_per_query", "count"),
    ("chord.lookup_ns", "ns"),
    ("gossip.exchanges", "count"),
    ("gossip.payload_bytes", "bytes"),
    ("gossip.merge_ns", "ns"),
    ("bloom.cow_clones", "count"),
    ("bloom.rebuilds", "count"),
    ("bloom.rebuild_ratio", "ratio"),
    ("bloom.snapshot_ns", "ns"),
    ("metrics.record_ns", "ns"),
    ("trace_overhead", "ratio"),
    ("trace_run_s", "s"),
    ("trace_plain_run_s", "s"),
    ("attribution.unexplained_share", "ratio"),
];

/// Fewest timed runs per invocation: two to compare, three for a
/// median.
const MIN_RUNS: usize = 3;
/// Fewest set-ups whose median `setup_s` reports.
const MIN_SETUPS: usize = 15;

/// The result of one invocation.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Runs of the simulation attempted.
    pub attempted: usize,
    /// Runs that failed a correctness check (not used as samples).
    pub failed: usize,
    /// Why they failed.
    pub errors: Vec<String>,
    /// Metric name and value.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// Record the verdict on one run against the first good one; keep
    /// it only if it passes.
    fn admit(
        &mut self,
        w: Workload,
        size: Size,
        reference: &mut Option<Outcome>,
        t: Timed,
    ) -> Option<Timed> {
        self.attempted += 1;
        let verdict = check(w, size, &t.outcome).and_then(|()| match reference {
            Some(r) => same_simulation(w, r, &t.outcome),
            None => Ok(()),
        });
        println!(
            "run {}: setup {:.4} s  run {:.4} s  cpu {:.2} s  peak rss {:.1} MB  fingerprint {:016x}  {}",
            self.attempted,
            t.setup_s,
            t.run_s,
            t.cpu_s,
            measure::peak_rss_mb(),
            t.outcome.digest(),
            verdict.as_ref().map_or_else(|e| format!("FAILED: {e}"), |()| "ok".into())
        );
        match verdict {
            Ok(()) => {
                reference.get_or_insert_with(|| t.outcome.clone());
                Some(t)
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(e);
                None
            }
        }
    }

    /// The final JSON line.
    fn json(&self, catalogue: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = catalogue
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, u)| *u)
                    .expect("every reported metric is catalogued");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a non-empty sample.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, 0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The timed runs: repeat set-up + run for `seconds` (at least
/// [`MIN_RUNS`] times) and report the end-to-end metrics as medians.
pub fn timed(w: Workload, size: Size, seed: u64, seconds: f64) -> RunResult {
    let mut res = RunResult::default();
    let start = Instant::now();
    let mut reference = None;
    let mut good: Vec<Timed> = Vec::new();
    // The high-water mark after the first run is the workload's own;
    // later runs only add allocator fragmentation on top.
    let mut peak_rss_mb = None;
    loop {
        let t = execute(w, size, seed, Mode::Timed, None);
        peak_rss_mb.get_or_insert_with(measure::peak_rss_mb);
        good.extend(res.admit(w, size, &mut reference, t));
        let elapsed = start.elapsed().as_secs_f64();
        let per_run = elapsed / res.attempted as f64;
        if res.attempted >= MIN_RUNS && elapsed + per_run > seconds {
            break;
        }
    }
    let Some(o) = reference else {
        return res;
    };
    let mut setups: Vec<f64> = good.iter().map(|t| t.setup_s).collect();
    let cfg = w.config(size, seed, Mode::Timed);
    while setups.len() < MIN_SETUPS {
        setups.push(setup(w, &cfg).1);
    }
    let events = o.counter(Counter::EngineEvents);
    let r = &o.report;
    println!(
        "fingerprint {:016x}  lookup p95 over {} resolved queries",
        o.digest(),
        o.report.resolved
    );
    res.metrics = vec![
        ("run_s", median(good.iter().map(|t| t.run_s).collect())),
        (
            "events_per_s",
            median(good.iter().map(|t| events as f64 / t.run_s).collect()),
        ),
        ("cpu_s", median(good.iter().map(|t| t.cpu_s).collect())),
        ("setup_s", median(setups)),
        ("peak_rss_mb", peak_rss_mb.expect("at least one run")),
        ("hit_ratio", r.hit_ratio),
        ("lookup_ms_mean", r.mean_lookup_ms),
        ("lookup_ms_p95", o.lookup_ms_p95),
        ("transfer_ms_mean", r.mean_transfer_ms),
        ("background_bps", r.background_bps),
        ("query_ok_ratio", 1.0 - o.query_fail_ratio()),
    ];
    res
}

/// One layer's share of the run, estimated as work count × isolated
/// cost.
struct Attribution {
    layer: &'static str,
    count: u64,
    what: &'static str,
    cost_ns: f64,
}

/// The traced run: set-up and run phases recorded as spans (the run
/// sliced at every simulated second), alternated with untraced runs
/// for the tracing overhead; then the isolated layer costs.
pub fn traced(w: Workload, size: Size, seed: u64, seconds: f64) -> RunResult {
    let mut res = RunResult::default();
    let start = Instant::now();
    let cfg = w.config(size, seed, Mode::Traced);
    let mut tracer = Tracer::new();
    let setup_span = tracer.open("setup", None);
    drop(
        tracer.time("simnet.topology.generate", Some(setup_span), || {
            Topology::generate(&cfg.topology, cfg.seed)
        }),
    );
    let queries = tracer.time("workload.generate", Some(setup_span), || {
        let catalog = Catalog::new(cfg.catalog.clone());
        QueryStream::generate(&cfg.workload, &catalog, cfg.seed)
            .events()
            .len()
    });
    drop(tracer.time("core.system.build", Some(setup_span), || setup(w, &cfg)));
    tracer.close(setup_span);

    let mut reference = None;
    let (mut plain, mut sliced) = (Vec::new(), Vec::new());
    loop {
        plain.extend(res.admit(
            w,
            size,
            &mut reference,
            execute(w, size, seed, Mode::Traced, None),
        ));
        let scratch = &mut Tracer::new();
        let tr = if sliced.is_empty() {
            &mut tracer
        } else {
            scratch
        };
        sliced.extend(res.admit(
            w,
            size,
            &mut reference,
            execute(w, size, seed, Mode::Traced, Some(tr)),
        ));
        let elapsed = start.elapsed().as_secs_f64();
        let per_pair = elapsed / (res.attempted / 2) as f64;
        if elapsed + per_pair > seconds {
            break;
        }
    }
    let (Some(o), false, false) = (reference, plain.is_empty(), sliced.is_empty()) else {
        return res;
    };
    let plain_run_s = median(plain.iter().map(|t| t.run_s).collect());
    let traced_run_s = median(sliced.iter().map(|t| t.run_s).collect());

    let horizon = simnet::SimTime::from_ms(cfg.workload.duration_ms + 30_000);
    let push_pop_ns = trace::push_pop_ns(o.peak_queue_depth, horizon);
    let exchange_ns = trace::exchange_ns();
    let process_ns = trace::process_ns(&cfg);
    let lookup_ns = trace::lookup_ns(&cfg);
    let merge_ns = trace::merge_ns(&cfg);
    let snapshot_ns = trace::snapshot_ns(&cfg);
    let record_ns = trace::record_ns();

    let c = |k: Counter| o.counter(k);
    let events = c(Counter::EngineEvents);
    let mut slices: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "slice")
        .map(|s| s.ms())
        .collect();
    slices.sort_by(f64::total_cmp);
    let pct = |q: f64| slices[((slices.len() - 1) as f64 * q).round() as usize];
    let topo_s = tracer.total_s("simnet.topology.generate");
    let workload_s = tracer.total_s("workload.generate");
    let build_s = tracer.total_s("core.system.build");
    let sim_counters: u64 = Counter::ALL
        .iter()
        .filter(|k| k.def().scope == metrics::Scope::Sim)
        .map(|k| c(*k))
        .sum();

    let attribution = [
        Attribution {
            layer: "simnet.event",
            count: events,
            what: "events x push+pop",
            cost_ns: push_pop_ns,
        },
        Attribution {
            layer: "simnet.sync",
            count: o.epochs,
            what: "epochs x exchange",
            cost_ns: exchange_ns,
        },
        Attribution {
            layer: "core.directory",
            count: c(Counter::DirProcess),
            what: "process calls x process",
            cost_ns: process_ns,
        },
        Attribution {
            layer: "chord",
            count: c(Counter::SentDhtRouting),
            what: "routing hops x local_lookup",
            cost_ns: lookup_ns,
        },
        Attribution {
            layer: "gossip",
            count: 2 * c(Counter::GossipExchanges),
            what: "view merges (2 per exchange) x merge",
            cost_ns: merge_ns,
        },
        Attribution {
            layer: "bloom",
            count: c(Counter::BloomRebuilds),
            what: "rebuilds x changed snapshot",
            cost_ns: snapshot_ns,
        },
        Attribution {
            layer: "metrics",
            count: sim_counters,
            what: "counter increments (upper bound) x incr",
            cost_ns: record_ns,
        },
    ];
    // Thread-seconds the run had: shards run in parallel.
    let budget_s = plain_run_s * o.shards as f64;
    println!(
        "attribution ESTIMATE (count x isolated cost, over run_s x {} shard(s) = {budget_s:.3} s):",
        o.shards
    );
    let mut explained_s = 0.0;
    for a in &attribution {
        let s = a.count as f64 * a.cost_ns / 1e9;
        explained_s += s;
        println!(
            "  {:<16} {:>12} {:<40} {:>9.1} ns  {:>8.3} s  {:>5.1}%",
            a.layer,
            a.count,
            a.what,
            a.cost_ns,
            s,
            100.0 * s / budget_s
        );
    }
    let unexplained = 1.0 - explained_s / budget_s;
    println!("  unexplained share {:.1}%", 100.0 * unexplained);

    let path = format!(
        "{}/out/trace-{}-seed{seed}.json",
        env!("CARGO_MANIFEST_DIR"),
        w.name()
    );
    let written = std::fs::create_dir_all(format!("{}/out", env!("CARGO_MANIFEST_DIR")))
        .and_then(|()| std::fs::write(&path, tracer.to_json(w.name(), seed)));
    match written {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => res.errors.push(format!("writing {path}: {e}")),
    }

    let retries = c(Counter::DirQueryRetries);
    let degraded = c(Counter::DirQueryOriginFallbacks);
    res.metrics = vec![
        ("simnet.engine.events", events as f64),
        (
            "simnet.engine.timer_events",
            c(Counter::EngineTimers) as f64,
        ),
        (
            "simnet.engine.msgs_background",
            (c(Counter::SentGossip) + c(Counter::SentPush) + c(Counter::SentKeepAlive)) as f64,
        ),
        (
            "simnet.engine.msgs_dht",
            (c(Counter::SentDhtRouting) + c(Counter::SentDhtMaintenance)) as f64,
        ),
        (
            "simnet.engine.msgs_query",
            (c(Counter::SentQueryControl) + c(Counter::SentTransfer)) as f64,
        ),
        ("simnet.engine.bounced", c(Counter::EngineBounces) as f64),
        (
            "simnet.engine.ns_per_event",
            plain_run_s * 1e9 / events as f64,
        ),
        ("simnet.engine.slice_ms_p50", pct(0.5)),
        ("simnet.engine.slice_ms_p99", pct(0.99)),
        (
            "simnet.event.peak_queue_depth",
            o.set.gauge(Gauge::PeakQueueDepth) as f64,
        ),
        ("simnet.event.push_pop_ns", push_pop_ns),
        ("simnet.sync.epochs", o.epochs as f64),
        ("simnet.sync.fused_rounds", o.fused_rounds as f64),
        ("simnet.sync.barrier_idle_s", o.barrier_idle_s),
        (
            "simnet.sync.barrier_idle_share",
            o.barrier_idle_s / plain_run_s,
        ),
        ("simnet.sync.exchange_ns", exchange_ns),
        ("simnet.fault.dropped", c(Counter::EngineFaultDrops) as f64),
        ("simnet.topology.generate_s", topo_s),
        ("workload.generate_s", workload_s),
        ("workload.queries", queries as f64),
        ("core.system.build_self_s", build_s - topo_s - workload_s),
        ("core.system.query_fail_ratio", o.query_fail_ratio()),
        ("core.system.lookup_tail_frac", o.lookup_tail_frac),
        (
            "core.directory.process_calls",
            c(Counter::DirProcess) as f64,
        ),
        (
            "core.directory.holder_ratio",
            ratio(c(Counter::DirToHolder), c(Counter::DirProcess)),
        ),
        (
            "core.directory.server_ratio",
            ratio(c(Counter::DirToServer), c(Counter::DirProcess)),
        ),
        (
            "core.directory.petal_splits",
            c(Counter::DirPetalSplits) as f64,
        ),
        (
            "core.directory.petal_merges",
            c(Counter::DirPetalMerges) as f64,
        ),
        (
            "core.directory.timeouts",
            c(Counter::DirQueryTimeouts) as f64,
        ),
        ("core.directory.retries", retries as f64),
        ("core.directory.degraded_origin", degraded as f64),
        (
            "core.directory.retry_rescue_ratio",
            ratio(retries.saturating_sub(degraded), retries),
        ),
        ("core.directory.process_ns", process_ns),
        (
            "core.substrate.hops_per_query",
            ratio(c(Counter::SentDhtRouting), o.report.submitted),
        ),
        ("chord.lookup_ns", lookup_ns),
        ("gossip.exchanges", c(Counter::GossipExchanges) as f64),
        (
            "gossip.payload_bytes",
            o.set.hist(Hist::GossipPayloadBytes).sum() as f64,
        ),
        ("gossip.merge_ns", merge_ns),
        ("bloom.cow_clones", c(Counter::BloomCowClones) as f64),
        ("bloom.rebuilds", c(Counter::BloomRebuilds) as f64),
        (
            "bloom.rebuild_ratio",
            ratio(
                c(Counter::BloomRebuilds),
                c(Counter::BloomRebuilds) + c(Counter::BloomCowClones),
            ),
        ),
        ("bloom.snapshot_ns", snapshot_ns),
        ("metrics.record_ns", record_ns),
        ("trace_overhead", traced_run_s / plain_run_s),
        ("trace_run_s", traced_run_s),
        ("trace_plain_run_s", plain_run_s),
        ("attribution.unexplained_share", unexplained),
    ];
    res
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: bad value {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workloads::DEFAULT_SEED),
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <steady-100k|hot-petals|churn-faults> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let shards = w.shards(if args.trace {
        Mode::Traced
    } else {
        Mode::Timed
    });
    let nproc = simnet::available_cores();
    if shards > nproc {
        eprintln!(
            "perfbench: {} needs {shards} shards but the host has {nproc} core(s); refusing",
            w.name()
        );
        std::process::exit(2);
    }
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} shards={} nproc={nproc} profile={profile}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        shards
    );
    let (res, catalogue) = if args.trace {
        (
            traced(w, Size::Full, args.seed, args.seconds),
            &PER_LAYER[..],
        )
    } else {
        (
            timed(w, Size::Full, args.seed, args.seconds),
            &END_TO_END[..],
        )
    };
    for e in &res.errors {
        println!("error: {e}");
    }
    for (name, value) in &res.metrics {
        let unit = catalogue
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| u);
        println!("{name:<36} {value:>16.6} {unit}");
    }
    println!(
        "verdict: {}",
        if res.correct() {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    println!("{}", res.json(catalogue));
}

#[cfg(test)]
mod tests;
