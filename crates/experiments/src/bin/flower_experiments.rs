//! Command-line driver regenerating every table and figure of the
//! Flower-CDN paper (§6), plus the engine-scaling sweep.
//!
//! ```text
//! flower-experiments <experiment> [--scale <f|full>] [--seed <n>]
//!                    [--substrate <chord|pastry>] [--shards <n>]
//!                    [--instance-bits <b|a,b,..>] [--pin]
//!                    [--csv-dir <dir>] [--bench-out <file>]
//!                    [--metrics-out <file>]
//!
//! experiments:
//!   table2a | table2b | table2c | push-threshold
//!   fig5 | fig6 | fig7 | fig8
//!   churn | ablation | replication | cache | substrates | chaos | all
//!   scale [--nodes <a,b,..>] [--shard-sweep <a,b,..>] [--horizon-secs <s>]
//!   bench-check --baseline <file> --fresh <file>
//!               [--max-drop <frac>] [--summary-out <file>] [--metrics <file>]
//!   metrics-check --metrics <file> [--summary-out <file>]
//! ```
//!
//! `--scale 0.1` simulates 2.4 h instead of 24 h (protocol periods
//! scale along); `--scale full` is the paper's exact setup.
//! `--substrate pastry` runs the D-ring over Pastry instead of Chord
//! (§3.1 portability; `substrates` compares the two side by side).
//! `--shards N` runs the simulation engine on N locality shards
//! (worker threads); results are bit-identical for every N.
//! `--instance-bits b` enables the §5.3 PetalUp scale-up: up to `2^b`
//! load-adaptive directory instances per (website, locality) petal
//! (`scale` accepts a comma list and sweeps it).
//! `scale` sweeps node counts × instance bits × shard counts and
//! reports events/sec, wall time and peak queue depth; `--bench-out
//! BENCH_engine.json` writes all engine measurements machine-readably
//! (schema `flower-cdn/bench-engine/v7`, the only one `bench-check`
//! reads).
//! `--pin` pins each shard worker thread to a core chosen by the
//! engine's latency-aware placement (chattiest shard pairs on
//! adjacent cores); wall-clock only — results are bit-identical with
//! and without it, and it degrades gracefully where the host forbids
//! affinity changes.
//! `bench-check` is the CI regression gate: it compares a fresh
//! bench document against the committed baseline, prints a markdown
//! throughput summary, and exits non-zero if events/sec dropped more
//! than `--max-drop` (default 0.20) at any matched point. Records
//! only compare within one host core count; a core-count mismatch is
//! an explicit SKIP (exit 0), not a pass. With `--metrics
//! METRICS.json` it validates the run's registry snapshots and
//! appends the per-subsystem attribution table to the summary.
//! `--metrics-out METRICS.json` (for `scale`, `churn` and `chaos`)
//! writes the registry snapshots of every cell machine-readably;
//! `metrics-check` validates such a document standalone (the CI
//! metrics-smoke assertions) and prints its attribution table.
//! `chaos` runs the fault-injection plane end to end (scripted
//! partition + heal, flash crowd, cross-locality message loss,
//! correlated regional failure), each family across a shard sweep
//! that must stay bit-identical, and reports the availability each
//! fault costs (hit-ratio dip depth, time-to-recover after heal).
//! Chaos cells are availability experiments, not throughput cells, so
//! the committed bench baseline omits them: a bench-check whose fresh
//! document holds only chaos cells prints an explicit per-cell SKIP
//! and exits 0 instead of the zero-matches hard error.
//! `--nodes` with a single value overrides the underlay node count of
//! any experiment (e.g. `churn --nodes 50000`, `chaos --nodes 1000`).

use std::io::Write;

use experiments::exps::{self, ExpOutput, ScaleParams};
use experiments::gate;
use experiments::report::{bench_json, metrics_json, BenchRecord, MetricsRecord};
use experiments::runner::{RunOpts, RunScale};
use experiments::SubstrateKind;
use simnet::SimDuration;

struct Args {
    cmd: String,
    opts: RunOpts,
    csv_dir: Option<String>,
    bench_out: Option<String>,
    /// `--metrics-out`: write the registry snapshots as METRICS.json.
    metrics_out: Option<String>,
    /// `--metrics`: METRICS.json to validate (metrics-check) or fold
    /// into the bench-check summary.
    metrics_in: Option<String>,
    scale_nodes: Vec<usize>,
    scale_shards: Vec<usize>,
    /// §5.3 instance-bits sweep of the `scale` experiment (single
    /// value for every other experiment).
    scale_bits: Vec<u32>,
    horizon_secs: u64,
    // bench-check:
    baseline: Option<String>,
    fresh: Option<String>,
    max_drop: f64,
    summary_out: Option<String>,
}

fn parse_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad list entry {p:?}"))
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().ok_or_else(usage)?;
    let mut out = Args {
        cmd,
        opts: RunOpts::new(),
        csv_dir: None,
        bench_out: None,
        metrics_out: None,
        metrics_in: None,
        scale_nodes: vec![10_000, 50_000, 100_000],
        scale_shards: vec![1, 2, 4, 8],
        scale_bits: vec![0],
        horizon_secs: 60,
        baseline: None,
        fresh: None,
        max_drop: 0.20,
        summary_out: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                out.opts.scale = RunScale::parse(&v)?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                out.opts.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--substrate" => {
                let v = args.next().ok_or("--substrate needs a value")?;
                out.opts.substrate = SubstrateKind::parse(&v)?;
            }
            "--shards" => {
                let v = args.next().ok_or("--shards needs a value")?;
                out.opts.shards = v.parse().map_err(|_| format!("bad shard count {v:?}"))?;
                if out.opts.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--csv-dir" => {
                out.csv_dir = Some(args.next().ok_or("--csv-dir needs a value")?);
            }
            "--bench-out" => {
                out.bench_out = Some(args.next().ok_or("--bench-out needs a value")?);
            }
            "--metrics-out" => {
                out.metrics_out = Some(args.next().ok_or("--metrics-out needs a value")?);
            }
            "--metrics" => {
                out.metrics_in = Some(args.next().ok_or("--metrics needs a value")?);
            }
            "--nodes" => {
                let v = args.next().ok_or("--nodes needs a value")?;
                out.scale_nodes = parse_list(&v)?;
                // Outside `scale` the flag is a single node-count
                // override for the experiment's deployment.
                if out.scale_nodes.len() == 1 {
                    out.opts.nodes = Some(out.scale_nodes[0]);
                } else if out.cmd != "scale" {
                    return Err("--nodes takes a single value outside `scale`".into());
                }
            }
            "--shard-sweep" => {
                let v = args.next().ok_or("--shard-sweep needs a value")?;
                out.scale_shards = parse_list(&v)?;
            }
            "--instance-bits" => {
                let v = args.next().ok_or("--instance-bits needs a value")?;
                let bits: Vec<u32> = parse_list(&v)?.into_iter().map(|b| b as u32).collect();
                if bits.is_empty() {
                    return Err("--instance-bits needs at least one value".into());
                }
                if bits.len() > 1 && out.cmd != "scale" {
                    return Err("an --instance-bits sweep is only valid for `scale`".into());
                }
                out.opts.instance_bits = bits[0];
                out.scale_bits = bits;
            }
            "--pin" => {
                out.opts.pin = true;
            }
            "--horizon-secs" => {
                let v = args.next().ok_or("--horizon-secs needs a value")?;
                out.horizon_secs = v.parse().map_err(|_| format!("bad horizon {v:?}"))?;
            }
            "--baseline" => {
                out.baseline = Some(args.next().ok_or("--baseline needs a value")?);
            }
            "--fresh" => {
                out.fresh = Some(args.next().ok_or("--fresh needs a value")?);
            }
            "--max-drop" => {
                let v = args.next().ok_or("--max-drop needs a value")?;
                out.max_drop = v.parse().map_err(|_| format!("bad max drop {v:?}"))?;
                if !(0.0..1.0).contains(&out.max_drop) {
                    return Err(format!(
                        "--max-drop must be in [0, 1), got {}",
                        out.max_drop
                    ));
                }
            }
            "--summary-out" => {
                out.summary_out = Some(args.next().ok_or("--summary-out needs a value")?);
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(out)
}

fn usage() -> String {
    "usage: flower-experiments <table2a|table2b|table2c|push-threshold|fig5|fig6|fig7|fig8|churn|ablation|replication|cache|substrates|chaos|scale|bench-check|metrics-check|all> \
     [--scale <f|full>] [--seed <n>] [--substrate <chord|pastry>] [--shards <n>] \
     [--instance-bits <b|a,b,..>] [--pin] \
     [--csv-dir <dir>] [--bench-out <file>] [--metrics-out <file>] \
     [--nodes <a,b,..>] [--shard-sweep <a,b,..>] [--horizon-secs <s>] \
     [--baseline <file> --fresh <file> [--max-drop <frac>] [--summary-out <file>] [--metrics <file>]]"
        .to_string()
}

/// The CI bench-regression gate (`bench-check`): compare a fresh
/// BENCH document against the committed baseline, print the markdown
/// summary, and exit non-zero on a regression beyond `--max-drop`.
///
/// Zero matched points is an *error*, not a pass: it means the CI
/// flags and the committed baseline have drifted apart (different
/// horizon or sweep cells), which would otherwise
/// turn the gate into a permanently green no-op. The one exception:
/// when the same cells matched but the *host core count* differs
/// (baseline recorded on a 1-core container, fresh run on an 8-core
/// runner, or vice versa), the check prints an explicit SKIP and
/// exits 0 — cross-core throughput deltas decide nothing, and a hard
/// failure would block every PR touching only the runner fleet.
fn bench_check(args: &Args) -> Result<bool, String> {
    let baseline_path = args
        .baseline
        .as_deref()
        .ok_or("bench-check needs --baseline <file>")?;
    let fresh_path = args
        .fresh
        .as_deref()
        .ok_or("bench-check needs --fresh <file>")?;
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let baseline =
        gate::parse_bench(&read(baseline_path)?).map_err(|e| format!("{baseline_path}: {e}"))?;
    let fresh = gate::parse_bench(&read(fresh_path)?).map_err(|e| format!("{fresh_path}: {e}"))?;
    let report = gate::compare(&baseline, &fresh, args.max_drop);
    let mut md = report.to_markdown();
    if let Some(path) = &args.metrics_in {
        let doc = gate::parse_metrics(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        gate::validate_metrics(&doc).map_err(|e| format!("{path}: {e}"))?;
        md.push('\n');
        md.push_str(&gate::metrics_markdown(&doc));
    }
    println!("{md}");
    if let Some(path) = &args.summary_out {
        std::fs::write(path, &md).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if report.core_skip() {
        eprintln!(
            "bench-check: SKIPPED, not passed — every matching cell in the baseline was \
             measured on a different host core count ({} fresh point(s); baseline host \
             {:?}, fresh host {:?}). Throughput is only comparable within one core \
             count; re-record the baseline on this runner class to re-arm the gate.",
            report.skipped_cores.len(),
            baseline.host,
            fresh.host,
        );
        return Ok(true);
    }
    if report.chaos_skip() {
        for r in &report.unmatched {
            eprintln!(
                "bench-check: SKIP {} ({} nodes, {} shards): chaos cell not in the \
                 committed baseline",
                r.experiment, r.nodes, r.shards
            );
        }
        eprintln!(
            "bench-check: SKIPPED, not passed — all {} fresh point(s) are chaos \
             availability cells the committed baseline intentionally omits; the \
             throughput gate decides nothing here.",
            report.unmatched.len()
        );
        return Ok(true);
    }
    if report.rows.is_empty() {
        return Err(
            "bench-check: no fresh point matched the baseline — the gate would compare \
             nothing. The smoke run's flags (experiment names, node/shard counts, \
             horizons) have drifted from the committed BENCH_engine.json; \
             re-record the baseline or fix the flags."
                .into(),
        );
    }
    Ok(report.passed())
}

/// The CI metrics-smoke check (`metrics-check`): parse a METRICS.json
/// document, run the [`gate::validate_metrics`] assertions (non-empty
/// registry, counter cross-invariants, histogram count/sum
/// consistency, sim-scope equality across execution variants), and
/// print the per-subsystem attribution table.
fn metrics_check(args: &Args) -> Result<(), String> {
    let path = args
        .metrics_in
        .as_deref()
        .ok_or("metrics-check needs --metrics <file>")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = gate::parse_metrics(&json).map_err(|e| format!("{path}: {e}"))?;
    gate::validate_metrics(&doc).map_err(|e| format!("{path}: {e}"))?;
    let md = gate::metrics_markdown(&doc);
    println!("{md}");
    if let Some(out) = &args.summary_out {
        std::fs::write(out, &md).map_err(|e| format!("write {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    eprintln!(
        "metrics-check: OK — {} record(s), schema {}",
        doc.records.len(),
        doc.schema
    );
    Ok(())
}

fn emit(name: &str, out: &ExpOutput, csv_dir: &Option<String>) {
    println!("{}", out.text);
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        for (stem, content) in &out.csv {
            let path = format!("{dir}/{name}_{stem}.csv");
            let mut f = std::fs::File::create(&path).expect("create csv");
            f.write_all(content.as_bytes()).expect("write csv");
            eprintln!("wrote {path}");
        }
    }
    if !out.all_passed() {
        eprintln!("WARNING: {name}: some shape checks failed");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if args.cmd == "metrics-check" {
        match metrics_check(&args) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
    if args.cmd == "bench-check" {
        match bench_check(&args) {
            Ok(true) => return,
            Ok(false) => {
                eprintln!("bench-check: throughput regression beyond the gate");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    let opts = args.opts;
    eprintln!(
        "# running {} at scale {:?} seed {} over {} with {} shard(s)",
        args.cmd, opts.scale, opts.seed, opts.substrate, opts.shards
    );
    let t0 = std::time::Instant::now();
    let mut failed = false;

    let mut outputs: Vec<(String, ExpOutput)> = Vec::new();
    match args.cmd.as_str() {
        "all" => {
            for name in ["table2a", "table2b", "table2c", "push-threshold", "fig5"] {
                outputs.push((name.to_string(), run_one(name, &args)));
            }
            let (fsys, ssys) = exps::comparison_pair(opts);
            outputs.push(("fig6".into(), exps::fig6(&fsys, &ssys)));
            outputs.push(("fig7".into(), exps::fig7(&fsys, &ssys)));
            outputs.push(("fig8".into(), exps::fig8(&fsys, &ssys)));
            drop((fsys, ssys));
            for name in ["churn", "ablation", "replication", "cache", "substrates"] {
                outputs.push((name.to_string(), run_one(name, &args)));
            }
        }
        name => outputs.push((name.to_string(), run_one(name, &args))),
    }

    let mut bench: Vec<BenchRecord> = Vec::new();
    let mut metrics_records: Vec<MetricsRecord> = Vec::new();
    for (name, out) in &outputs {
        failed |= !out.all_passed();
        emit(name, out, &args.csv_dir);
        bench.extend(out.bench.iter().cloned());
        metrics_records.extend(out.metrics.iter().cloned());
    }
    let host = format!(
        "{} cpus, {}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0),
        std::env::consts::ARCH
    );
    if let Some(path) = &args.bench_out {
        std::fs::write(path, bench_json(&host, &bench)).expect("write bench json");
        eprintln!("wrote {path} ({} records)", bench.len());
    }
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, metrics_json(&host, &metrics_records)).expect("write metrics json");
        eprintln!("wrote {path} ({} records)", metrics_records.len());
    }
    eprintln!("# done in {:.1}s", t0.elapsed().as_secs_f64());
    if failed {
        std::process::exit(1);
    }
}

fn run_one(name: &str, args: &Args) -> ExpOutput {
    let opts = args.opts;
    match name {
        "table2a" => exps::table2a(opts),
        "table2b" => exps::table2b(opts),
        "table2c" => exps::table2c(opts),
        "push-threshold" => exps::push_threshold(opts),
        "fig5" => exps::fig5(opts),
        "fig6" | "fig7" | "fig8" => {
            let (fsys, ssys) = exps::comparison_pair(opts);
            match name {
                "fig6" => exps::fig6(&fsys, &ssys),
                "fig7" => exps::fig7(&fsys, &ssys),
                _ => exps::fig8(&fsys, &ssys),
            }
        }
        "churn" => exps::churn(opts),
        "chaos" => exps::chaos(opts),
        "ablation" => exps::ablation(opts),
        "replication" => exps::replication(opts),
        "cache" => exps::cache_pressure(opts),
        "substrates" => exps::substrates(opts),
        "scale" => exps::scale(&ScaleParams {
            nodes: args.scale_nodes.clone(),
            shards: args.scale_shards.clone(),
            instance_bits: args.scale_bits.clone(),
            horizon: SimDuration::from_secs(args.horizon_secs),
            seed: opts.seed,
            pin: opts.pin,
        }),
        other => {
            eprintln!("unknown experiment {other:?}\n{}", usage());
            std::process::exit(2);
        }
    }
}
