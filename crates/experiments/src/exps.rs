//! One function per table/figure of the paper's evaluation.
//!
//! Every experiment returns an [`ExpOutput`]: rendered text (the
//! table/series the paper reports, paper values side by side), CSV
//! artefacts, and a list of qualitative checks — the *shape*
//! assertions a reproduction must satisfy (who wins, rough factors,
//! trends). Absolute constants are not asserted: the substrate is a
//! simulator, not the authors' testbed.

use flower_core::{FlowerSystem, SubstrateKind, SystemConfig, SystemReport};
use metrics::Counter;
use simnet::{
    ChurnConfig, ChurnScript, FaultPlane, LinkLoss, Locality, NodeId, Partition, RegionalFailure,
    SeriesPoint, SimDuration, SimTime,
};
use squirrel::SquirrelSystem;
use workload::Surge;

use crate::paper;
use crate::report::{f1, f3, pct, BenchRecord, MetricsRecord, Table};
use crate::runner::{self, RunOpts, RunScale};

/// Rendered output of one experiment.
#[derive(Debug, Default)]
pub struct ExpOutput {
    /// Human-readable report.
    pub text: String,
    /// `(file-stem, csv-content)` artefacts.
    pub csv: Vec<(String, String)>,
    /// Qualitative shape checks `(description, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Engine-performance measurements for `BENCH_engine.json`.
    pub bench: Vec<BenchRecord>,
    /// Registry snapshots for `METRICS.json` (per-subsystem hot-path
    /// attribution; written by `--metrics-out`).
    pub metrics: Vec<MetricsRecord>,
}

impl ExpOutput {
    fn push_check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// True if every qualitative check passed.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Append the check list to the text body.
    pub fn render_checks(&self) -> String {
        let mut s = String::from("shape checks:\n");
        for (what, ok) in &self.checks {
            s.push_str(&format!(
                "  [{}] {}\n",
                if *ok { "PASS" } else { "FAIL" },
                what
            ));
        }
        s
    }
}

fn gossip_sweep(
    title: &str,
    opts: RunOpts,
    paper_rows: &[paper::Table2Row],
    mutate: impl Fn(&mut SystemConfig, usize),
) -> (ExpOutput, Vec<f64>, Vec<f64>) {
    let mut out = ExpOutput::default();
    let mut table = Table::new(
        title,
        &[
            "param",
            "hit ratio (paper)",
            "hit ratio (ours)",
            "bw bps (paper)",
            "bw bps (ours)",
        ],
    );
    let mut hits = Vec::new();
    let mut bws = Vec::new();
    for (i, row) in paper_rows.iter().enumerate() {
        let mut cfg = runner::flower_config(opts);
        mutate(&mut cfg, i);
        let (_, r) = runner::run_flower(&cfg);
        // Scaled runs compress 24 h of gossip into less simulated
        // time; multiplying by the scale factor restores paper-time
        // bps for comparison.
        let bps = r.background_bps * opts.scale.factor();
        table.row(vec![
            row.param.to_string(),
            f3(row.hit_ratio),
            f3(r.hit_ratio),
            f1(row.background_bps),
            f1(bps),
        ]);
        hits.push(r.hit_ratio);
        bws.push(bps);
    }
    out.text = table.render();
    out.csv.push(("table".into(), table.to_csv()));
    (out, hits, bws)
}

/// **Table 2(a)** — varying `Lgossip` ∈ {5, 10, 20}.
pub fn table2a(opts: RunOpts) -> ExpOutput {
    let l_values = [5usize, 10, 20];
    let (mut out, hits, bws) = gossip_sweep(
        "Table 2(a) — effect of gossip length Lgossip (Tgossip=30min, Vgossip=50)",
        opts,
        &paper::TABLE_2A,
        |cfg, i| cfg.flower.l_gossip = l_values[i],
    );
    // Paper: bandwidth is linear in Lgossip (×4 from 5 to 20); hit
    // ratio rises only mildly.
    let ratio = bws[2] / bws[0].max(1e-9);
    out.push_check(
        format!("bw(L=20)/bw(L=5) ≈ 4 (got {ratio:.2})"),
        (2.5..6.0).contains(&ratio),
    );
    out.push_check(
        format!("hit ratio non-decreasing in Lgossip (got {hits:?})"),
        hits[0] <= hits[1] + 0.02 && hits[1] <= hits[2] + 0.02,
    );
    out.text.push_str(&out.render_checks());
    out
}

/// **Table 2(b)** — varying `Tgossip` ∈ {1 min, 30 min, 1 h}.
pub fn table2b(opts: RunOpts) -> ExpOutput {
    let periods = [
        SimDuration::from_mins(1),
        SimDuration::from_mins(30),
        SimDuration::from_hours(1),
    ];
    let (mut out, hits, bws) = gossip_sweep(
        "Table 2(b) — effect of gossip period Tgossip (Lgossip=10, Vgossip=50)",
        opts,
        &paper::TABLE_2B,
        |cfg, i| {
            // The sweep overrides the (already scaled) gossip period
            // with the scaled sweep value.
            let scaled = match opts.scale {
                RunScale::Full => periods[i],
                RunScale::Scaled(f) => {
                    SimDuration::from_ms(((periods[i].as_ms() as f64 * f) as u64).max(1))
                }
            };
            cfg.flower.t_gossip = scaled;
        },
    );
    // Paper: bandwidth ∝ 1/Tgossip (60× from 1 h to 1 min); hit ratio
    // degrades as gossip slows.
    let ratio = bws[0] / bws[2].max(1e-9);
    // The frequency ratio alone is exactly 60×; measured bytes can
    // overshoot because faster gossip also fills views with summaries
    // sooner (bigger messages), a second-order effect the paper's
    // fixed-size model does not capture.
    out.push_check(
        format!("bw(T=1min)/bw(T=1h) ≫ 1, order of the paper's ×60 (got ×{ratio:.1})"),
        (20.0..260.0).contains(&ratio),
    );
    out.push_check(
        format!("hit ratio non-increasing in Tgossip (got {hits:?})"),
        hits[0] + 0.02 >= hits[1] && hits[1] + 0.02 >= hits[2],
    );
    out.text.push_str(&out.render_checks());
    out
}

/// **Table 2(c)** — varying `Vgossip` ∈ {20, 50, 70}.
pub fn table2c(opts: RunOpts) -> ExpOutput {
    let v_values = [20usize, 50, 70];
    let (mut out, hits, bws) = gossip_sweep(
        "Table 2(c) — effect of view size Vgossip (Lgossip=10, Tgossip=30min)",
        opts,
        &paper::TABLE_2C,
        |cfg, i| cfg.flower.v_gossip = v_values[i],
    );
    // Paper: bandwidth flat in Vgossip; hit ratio slightly better with
    // larger views.
    let spread = (bws[2] - bws[0]).abs() / bws[1].max(1e-9);
    // Nearly flat: view size does not change the *amount* of data per
    // exchange (paper), though smaller views refresh their entries
    // more often and thus carry slightly more summaries per message.
    out.push_check(
        format!("bw roughly flat across Vgossip (relative spread {spread:.2})"),
        spread < 0.45,
    );
    out.push_check(
        format!("hit ratio(V=70) ≥ hit ratio(V=20) − ε (got {hits:?})"),
        hits[2] + 0.02 >= hits[0],
    );
    out.text.push_str(&out.render_checks());
    out
}

/// **§6.2 (text)** — push threshold ∈ {0.1, 0.5, 0.7}: performance is
/// insensitive.
pub fn push_threshold(opts: RunOpts) -> ExpOutput {
    let mut out = ExpOutput::default();
    let mut table = Table::new(
        "Push-threshold sweep (paper §6.2: all values perform alike)",
        &["threshold", "hit ratio", "bw bps"],
    );
    let mut hits = Vec::new();
    for th in paper::PUSH_THRESHOLDS {
        let mut cfg = runner::flower_config(opts);
        cfg.flower.push_threshold = th;
        let (_, r) = runner::run_flower(&cfg);
        table.row(vec![
            format!("{th}"),
            f3(r.hit_ratio),
            f1(r.background_bps * opts.scale.factor()),
        ]);
        hits.push(r.hit_ratio);
    }
    let spread = hits.iter().cloned().fold(f64::MIN, f64::max)
        - hits.iter().cloned().fold(f64::MAX, f64::min);
    out.push_check(
        format!("hit ratio insensitive to push threshold (spread {spread:.3})"),
        spread < 0.05,
    );
    out.text = table.render();
    out.text.push_str(&out.render_checks());
    out.csv.push(("push_threshold".into(), table.to_csv()));
    out
}

/// Render a per-window series table with hours in the first column.
fn series_table(
    title: &str,
    cols: &[&str],
    rows: impl Iterator<Item = (f64, Vec<String>)>,
) -> Table {
    let mut headers = vec!["hour"];
    headers.extend_from_slice(cols);
    let mut t = Table::new(title, &headers);
    for (h, cells) in rows {
        let mut row = vec![format!("{h:.2}")];
        row.extend(cells);
        t.row(row);
    }
    t
}

/// **Figure 5** — hit ratio and background traffic vs time.
pub fn fig5(opts: RunOpts) -> ExpOutput {
    let mut out = ExpOutput::default();
    let cfg = runner::flower_config(opts);
    let (sys, report, record) = runner::run_flower_timed(&cfg, "fig5");
    out.bench.push(record);
    let window = cfg.window;
    let win_secs = window.as_ms() as f64 / 1000.0;
    let dirs = cfg.catalog.num_websites * cfg.topology.localities;

    let hit = sys.engine().query_stats().hit_series().points();
    let bg = sys.engine().traffic().background_series().points();
    // Participants over time: directories + cumulative joins.
    let joins = sys
        .engine()
        .gauges()
        .get("joins")
        .map(|s| s.points())
        .unwrap_or_default();
    let mut cum_joins = 0.0;
    let mut participants_at: Vec<f64> = Vec::new();
    for i in 0..hit.len().max(bg.len()) {
        cum_joins += joins.get(i).map(|p| p.sum).unwrap_or(0.0);
        participants_at.push(dirs as f64 + cum_joins);
    }

    let rows = (0..hit.len().max(bg.len())).map(|i| {
        let h = (i as f64 * win_secs) / 3600.0;
        let hr = hit.get(i).map(|p| p.mean()).unwrap_or(0.0);
        let bytes = bg.get(i).map(|p| p.sum).unwrap_or(0.0);
        let parts = participants_at.get(i).copied().unwrap_or(1.0).max(1.0);
        let bps = bytes * 8.0 / win_secs / parts * opts.scale.factor();
        (h, vec![f3(hr), f1(bps)])
    });
    let t = series_table(
        "Figure 5 — hit ratio and background traffic per peer vs time",
        &["hit ratio", "bg bps/peer"],
        rows,
    );
    out.text = t.render();
    let norm_bps = report.background_bps * opts.scale.factor();
    out.text.push_str(&format!(
        "paper: traffic stabilizes ≈{} bps; final measured: hit {:.3}, bw {:.1} bps (paper-time)\n",
        paper::FIG5_STABLE_BPS,
        report.hit_ratio,
        norm_bps
    ));

    // Shape: hit ratio rises; late-run traffic per peer is flat-ish.
    let nonzero: Vec<f64> = hit
        .iter()
        .filter(|p| p.count > 0)
        .map(|p| p.mean())
        .collect();
    let early = nonzero.iter().take(3).sum::<f64>() / 3.0_f64.min(nonzero.len() as f64);
    let late = nonzero.iter().rev().take(3).sum::<f64>() / 3.0_f64.min(nonzero.len() as f64);
    out.push_check(
        format!("hit ratio rises over time ({early:.3} → {late:.3})"),
        late > early,
    );
    out.push_check(
        format!("background traffic positive and bounded (final {norm_bps:.1} bps paper-time)"),
        norm_bps > 0.1 && norm_bps < 10_000.0,
    );
    out.text.push_str(&out.render_checks());
    out.csv.push(("fig5".into(), t.to_csv()));
    out
}

/// Run the shared Flower/Squirrel pair for Figures 6–8.
pub fn comparison_pair(opts: RunOpts) -> (FlowerSystem, SquirrelSystem) {
    let fcfg = runner::flower_config(opts);
    let scfg = runner::squirrel_config(opts);
    let (fsys, _) = runner::run_flower(&fcfg);
    let (ssys, _) = runner::run_squirrel(&scfg);
    (fsys, ssys)
}

/// **Figure 6** — hit ratio over time, Flower-CDN vs Squirrel.
pub fn fig6(fsys: &FlowerSystem, ssys: &SquirrelSystem) -> ExpOutput {
    let mut out = ExpOutput::default();
    let f = fsys.engine().query_stats();
    let s = ssys.engine().query_stats();
    let fh = f.hit_series().points();
    let sh = s.hit_series().points();
    let win_h = f.hit_series().window().as_ms() as f64 / 3_600_000.0;
    let rows = (0..fh.len().max(sh.len())).map(|i| {
        (
            i as f64 * win_h,
            vec![
                fh.get(i).map(|p| f3(p.mean())).unwrap_or_default(),
                sh.get(i).map(|p| f3(p.mean())).unwrap_or_default(),
            ],
        )
    });
    let t = series_table(
        "Figure 6 — hit ratio vs time, Flower-CDN and Squirrel",
        &["flower", "squirrel"],
        rows,
    );
    out.text = t.render();
    let gap = s.hit_ratio() - f.hit_ratio();
    out.text.push_str(&format!(
        "final hit ratio: flower {:.3}, squirrel {:.3} (gap {:.3}; paper gap ≈ {:.2})\n",
        f.hit_ratio(),
        s.hit_ratio(),
        gap,
        paper::FIG6_HIT_GAP,
    ));
    // Paper: Squirrel converges a bit higher/faster; both high.
    out.push_check(
        format!("squirrel hit ≥ flower hit − ε (gap {gap:.3})"),
        gap > -0.03,
    );
    // The paper's ≈0.13 gap is a 24-hour number; short scaled runs are
    // warm-up dominated (Flower's gossip-built overlays converge more
    // slowly than Squirrel's directly-populated home directories), so
    // they get a looser bound — the same duration split fig7 uses for
    // its absolute thresholds.
    let gap_bound = if fsys.duration() >= simnet::SimTime::from_hours(20) {
        0.30
    } else {
        0.45
    };
    out.push_check(
        format!("gap bounded (paper ≈ 0.13; got {gap:.3}, bound {gap_bound})"),
        gap < gap_bound,
    );
    out.push_check(
        format!("flower hit ratio high at horizon ({:.3})", f.hit_ratio()),
        f.hit_ratio() > 0.5,
    );
    out.text.push_str(&out.render_checks());
    out.csv.push(("fig6".into(), t.to_csv()));
    out
}

/// **Figure 7** — lookup latency: variation over time (a) and
/// distribution (b), Flower-CDN vs Squirrel.
pub fn fig7(fsys: &FlowerSystem, ssys: &SquirrelSystem) -> ExpOutput {
    let mut out = ExpOutput::default();
    let f = fsys.engine().query_stats();
    let s = ssys.engine().query_stats();

    // (a) variation with time.
    let fl = f.lookup_series().points();
    let win_h = f.lookup_series().window().as_ms() as f64 / 3_600_000.0;
    let ta = series_table(
        "Figure 7(a) — Flower-CDN average lookup latency vs time (ms)",
        &["lookup ms"],
        fl.iter()
            .enumerate()
            .map(|(i, p)| (i as f64 * win_h, vec![f1(p.mean())])),
    );

    // (b) distribution in 150 ms buckets.
    let mut tb = Table::new(
        "Figure 7(b) — lookup latency distribution",
        &["bucket (ms)", "flower", "squirrel"],
    );
    let fd = f.lookup_hist().distribution();
    let sd = s.lookup_hist().distribution();
    for (i, (start, ff)) in fd.iter().enumerate() {
        let label = if i + 1 == fd.len() {
            format!(">{start}")
        } else {
            format!("{}-{}", start, start + 150)
        };
        tb.row(vec![label, pct(*ff), pct(sd[i].1)]);
    }

    out.text = format!("{}\n{}", ta.render(), tb.render());
    let f_le = f.lookup_hist().fraction_le(150);
    let s_gt = s.lookup_hist().fraction_gt(1050);
    let speedup = s.mean_lookup_ms() / f.mean_lookup_ms().max(1e-9);
    out.text.push_str(&format!(
        "flower ≤150ms: {} (paper {}), squirrel >1050ms: {} (paper {}), mean speedup ×{:.1} (paper ≈×{})\n",
        pct(f_le),
        pct(paper::FIG7_FLOWER_LE_150MS),
        pct(s_gt),
        pct(paper::FIG7_SQUIRREL_GT_1050MS),
        speedup,
        paper::LOOKUP_SPEEDUP,
    ));
    // The 87%-style absolute only holds once hits dominate (the
    // full 24 h horizon); scaled runs check the relative ordering.
    if fsys.duration() >= simnet::SimTime::from_hours(20) {
        out.push_check(
            format!(
                "majority of flower lookups ≤150ms ({}; paper 87%)",
                pct(f_le)
            ),
            f_le > 0.5,
        );
    } else {
        let s_le = s.lookup_hist().fraction_le(150);
        out.push_check(
            format!(
                "flower resolves more ≤150ms than squirrel ({} vs {})",
                pct(f_le),
                pct(s_le)
            ),
            f_le > s_le + 0.1,
        );
    }
    out.push_check(
        format!("substantial squirrel tail >1050ms ({})", pct(s_gt)),
        s_gt > 0.15,
    );
    out.push_check(
        format!("flower beats squirrel on mean lookup by ≥3× (got ×{speedup:.1})"),
        speedup >= 3.0,
    );
    out.text.push_str(&out.render_checks());
    out.csv.push(("fig7a".into(), ta.to_csv()));
    out.csv.push(("fig7b".into(), tb.to_csv()));
    out
}

/// **Figure 8** — transfer distance: variation over time (a) and
/// distribution (b), Flower-CDN vs Squirrel.
pub fn fig8(fsys: &FlowerSystem, ssys: &SquirrelSystem) -> ExpOutput {
    let mut out = ExpOutput::default();
    let f = fsys.engine().query_stats();
    let s = ssys.engine().query_stats();

    let ft = f.transfer_series().points();
    let win_h = f.transfer_series().window().as_ms() as f64 / 3_600_000.0;
    let ta = series_table(
        "Figure 8(a) — Flower-CDN average transfer distance vs time (ms)",
        &["transfer ms"],
        ft.iter()
            .enumerate()
            .map(|(i, p)| (i as f64 * win_h, vec![f1(p.mean())])),
    );

    let mut tb = Table::new(
        "Figure 8(b) — transfer distance distribution",
        &["bucket (ms)", "flower", "squirrel"],
    );
    let fd = f.transfer_hist().distribution();
    let sd = s.transfer_hist().distribution();
    for (i, (start, ff)) in fd.iter().enumerate() {
        let label = if i + 1 == fd.len() {
            format!(">{start}")
        } else {
            format!("{}-{}", start, start + 100)
        };
        tb.row(vec![label, pct(*ff), pct(sd[i].1)]);
    }

    out.text = format!("{}\n{}", ta.render(), tb.render());
    let f_le = f.transfer_hist().fraction_le(100);
    let s_le = s.transfer_hist().fraction_le(100);
    let factor = s.mean_transfer_ms() / f.mean_transfer_ms().max(1e-9);
    let hit_factor = s.mean_transfer_hit_ms() / f.mean_transfer_hit_ms().max(1e-9);
    out.text.push_str(&format!(
        "≤100ms: flower {} (paper {}), squirrel {} (paper {}); mean distance ratio ×{:.2} all, ×{:.2} P2P hits (paper ≈×{})\n",
        pct(f_le),
        pct(paper::FIG8_FLOWER_LE_100MS),
        pct(s_le),
        pct(paper::FIG8_SQUIRREL_LE_100MS),
        factor,
        hit_factor,
        paper::TRANSFER_SPEEDUP,
    ));
    out.push_check(
        format!(
            "flower serves more ≤100ms than squirrel ({} vs {})",
            pct(f_le),
            pct(s_le)
        ),
        f_le > s_le,
    );
    out.push_check(
        format!("P2P-hit transfer distance reduced ≥1.5× (got ×{hit_factor:.2})"),
        hit_factor >= 1.5,
    );
    // Locality: most flower hits stay in the requester's locality.
    let local = f.local_hit_fraction();
    out.push_check(
        format!("most flower hits are local ({})", pct(local)),
        local > 0.5,
    );
    out.text.push_str(&out.render_checks());
    out.csv.push(("fig8a".into(), ta.to_csv()));
    out.csv.push(("fig8b".into(), tb.to_csv()));
    out
}

/// **Churn extension** (the paper's §8 announced analysis): session
/// churn over the client base plus targeted directory kills; checks
/// that §5.2 recovery keeps the system serving.
pub fn churn(opts: RunOpts) -> ExpOutput {
    let mut out = ExpOutput::default();
    let cfg = runner::flower_config(opts);
    let mut sys = FlowerSystem::build(&cfg);
    let horizon = SimTime::from_ms(cfg.workload.duration_ms);

    // Kill one directory peer per active website mid-run.
    let k = cfg.topology.localities;
    let mut kills: Vec<(SimTime, NodeId)> = Vec::new();
    for ws in 0..cfg.catalog.active_websites as u16 {
        let loc = Locality((ws as usize % k) as u16);
        if let Some(d) = sys.initial_directory(workload::WebsiteId(ws), loc) {
            kills.push((SimTime::from_ms(horizon.as_ms() / 3), d));
        }
    }
    sys.apply_churn(&ChurnScript::kill_at(&kills));

    // Session churn over 30% of community members.
    let mut affected: Vec<NodeId> = Vec::new();
    for ws in 0..cfg.catalog.active_websites as u16 {
        for l in 0..k as u16 {
            let comm = sys.community(workload::WebsiteId(ws), Locality(l));
            affected.extend(comm.iter().take(comm.len() / 3));
        }
    }
    affected.sort_unstable_by_key(|n| n.0);
    affected.dedup();
    let churn_cfg = ChurnConfig {
        start: SimTime::from_ms(horizon.as_ms() / 4),
        end: horizon,
        mean_session: SimDuration::from_ms(horizon.as_ms() / 4),
        mean_downtime: SimDuration::from_ms(horizon.as_ms() / 20),
        permanent: false,
    };
    let script = ChurnScript::generate(&churn_cfg, &affected, opts.seed);
    sys.apply_churn(&script);

    sys.run_until(horizon + SimDuration::from_secs(60));
    let r = sys.report();
    out.metrics.push(MetricsRecord {
        experiment: "churn".into(),
        sim_key: format!("churn/seed{}", opts.seed),
        shards: sys.engine().num_shards(),
        set: sys.engine().metrics().clone(),
    });

    let replacements: u64 = sys
        .engine()
        .topology()
        .node_ids()
        .map(|n| sys.engine().node(n).stats.replacements_won)
        .sum();

    let mut t = Table::new(
        "Churn extension — session churn + directory kills",
        &["metric", "value"],
    );
    t.row(vec!["peers under churn".into(), affected.len().to_string()]);
    t.row(vec!["directory kills".into(), kills.len().to_string()]);
    t.row(vec!["churn events".into(), script.len().to_string()]);
    t.row(vec!["hit ratio".into(), f3(r.hit_ratio)]);
    t.row(vec![
        "resolved/submitted".into(),
        format!("{}/{}", r.resolved, r.submitted),
    ]);
    t.row(vec![
        "redirection failures".into(),
        r.redirection_failures.to_string(),
    ]);
    t.row(vec![
        "directory replacements won".into(),
        replacements.to_string(),
    ]);
    out.text = t.render();
    out.push_check(
        format!("system keeps serving under churn (hit {:.3})", r.hit_ratio),
        r.hit_ratio > 0.3,
    );
    out.push_check(
        format!("killed directories get replaced ({replacements} replacements)"),
        replacements >= 1,
    );
    out.push_check(
        format!(
            "redirection failures are handled ({} seen)",
            r.redirection_failures
        ),
        r.resolved as f64 > r.submitted as f64 * 0.9,
    );
    out.text.push_str(&out.render_checks());
    out.csv.push(("churn".into(), t.to_csv()));
    out
}

/// **Ablation** — the design choices DESIGN.md calls out: gossip off
/// (no epidemic summaries) and directory summaries off (no
/// cross-locality redirect).
pub fn ablation(opts: RunOpts) -> ExpOutput {
    let mut out = ExpOutput::default();
    let mut t = Table::new(
        "Ablation — contribution of gossip and directory summaries",
        &[
            "variant",
            "hit ratio",
            "local hit frac",
            "mean lookup ms",
            "bw bps",
        ],
    );
    let mut results = Vec::new();
    for variant in [
        "baseline",
        "gossip-off",
        "dir-summaries-off",
        "member-dir-fallback",
    ] {
        let mut cfg = runner::flower_config(opts);
        match variant {
            "gossip-off" => {
                // Push the first exchange far past the horizon.
                cfg.flower.t_gossip = SimDuration::from_ms(cfg.workload.duration_ms * 100);
            }
            "dir-summaries-off" => cfg.flower.max_dir_hops = 0,
            "member-dir-fallback" => cfg.flower.member_dir_fallback = true,
            _ => {}
        }
        let (_, r) = runner::run_flower(&cfg);
        t.row(vec![
            variant.into(),
            f3(r.hit_ratio),
            f3(r.local_hit_fraction),
            f1(r.mean_lookup_ms),
            f1(r.background_bps * opts.scale.factor()),
        ]);
        results.push(r);
    }
    out.text = t.render();
    out.push_check(
        format!(
            "gossip-off removes background traffic ({:.1} vs {:.1} bps)",
            results[1].background_bps, results[0].background_bps
        ),
        results[1].background_bps < results[0].background_bps * 0.5,
    );
    out.push_check(
        format!(
            "dir-summaries only affect the hit ratio marginally ({:.3} vs {:.3}) — \
             they matter for *where* first-access hits come from, not how many",
            results[2].hit_ratio, results[0].hit_ratio
        ),
        (results[2].hit_ratio - results[0].hit_ratio).abs() <= 0.06,
    );
    out.push_check(
        format!(
            "gossip-off hurts the hit ratio ({:.3} vs baseline {:.3})",
            results[1].hit_ratio, results[0].hit_ratio
        ),
        results[1].hit_ratio < results[0].hit_ratio,
    );
    out.push_check(
        format!(
            "member-dir-fallback lifts the hit ratio ({:.3} vs baseline {:.3})",
            results[3].hit_ratio, results[0].hit_ratio
        ),
        results[3].hit_ratio >= results[0].hit_ratio - 0.01,
    );
    out.text.push_str(&out.render_checks());
    out.csv.push(("ablation".into(), t.to_csv()));
    out
}

/// **§8 extension: active replication** — pushing popular content
/// toward other overlays of the same website. Compares the base
/// system with replication enabled: remote queries should find
/// replicas locally more often, shrinking the transfer distance.
pub fn replication(opts: RunOpts) -> ExpOutput {
    let mut out = ExpOutput::default();
    let mut t = Table::new(
        "Active replication (§8 future work) — off vs on",
        &[
            "variant",
            "hit ratio",
            "local hit frac",
            "transfer ms (hits)",
            "bw bps",
        ],
    );
    let mut results = Vec::new();
    for on in [false, true] {
        let mut cfg = runner::flower_config(opts);
        if on {
            let period = SimDuration::from_ms((cfg.flower.t_gossip.as_ms()).max(1));
            cfg.flower.replication_period = Some(period);
            cfg.flower.replication_top_k = 10;
        }
        let (sys, r) = runner::run_flower(&cfg);
        let hit_transfer = sys.engine().query_stats().mean_transfer_hit_ms();
        t.row(vec![
            if on { "replication-on" } else { "baseline" }.into(),
            f3(r.hit_ratio),
            f3(r.local_hit_fraction),
            f1(hit_transfer),
            f1(r.background_bps * opts.scale.factor()),
        ]);
        results.push((r, hit_transfer));
    }
    out.text = t.render();
    out.push_check(
        format!(
            "replication raises the local-hit fraction ({:.3} → {:.3})",
            results[0].0.local_hit_fraction, results[1].0.local_hit_fraction
        ),
        results[1].0.local_hit_fraction >= results[0].0.local_hit_fraction - 0.01,
    );
    out.push_check(
        format!(
            "replication does not hurt the hit ratio ({:.3} → {:.3})",
            results[0].0.hit_ratio, results[1].0.hit_ratio
        ),
        results[1].0.hit_ratio >= results[0].0.hit_ratio - 0.02,
    );
    out.text.push_str(&out.render_checks());
    out.csv.push(("replication".into(), t.to_csv()));
    out
}

/// **§8 extension: cache replacement** — bounded per-peer caches with
/// LRU/LFU. Smaller caches mean fewer self-hits and more stale
/// directory entries (exercising §5.1 retries); the hit ratio must
/// degrade gracefully, not collapse.
pub fn cache_pressure(opts: RunOpts) -> ExpOutput {
    use flower_core::CachePolicy;
    let mut out = ExpOutput::default();
    let mut t = Table::new(
        "Cache replacement (§8 future work) — capacity sweep (objects/peer)",
        &[
            "variant",
            "hit ratio",
            "mean lookup ms",
            "redirection failures",
        ],
    );
    let mut hits = Vec::new();
    let variants: [(&str, CachePolicy, usize); 4] = [
        ("unbounded", CachePolicy::Unbounded, 0),
        ("lru-50", CachePolicy::Lru, 50),
        ("lru-10", CachePolicy::Lru, 10),
        ("lfu-10", CachePolicy::Lfu, 10),
    ];
    for (name, policy, cap) in variants {
        let mut cfg = runner::flower_config(opts);
        cfg.flower.cache_policy = policy;
        cfg.flower.cache_capacity = cap;
        let (_, r) = runner::run_flower(&cfg);
        t.row(vec![
            name.into(),
            f3(r.hit_ratio),
            f1(r.mean_lookup_ms),
            r.redirection_failures.to_string(),
        ]);
        hits.push(r.hit_ratio);
    }
    out.text = t.render();
    out.push_check(
        format!(
            "smaller caches lower the hit ratio ({:.3} vs {:.3})",
            hits[2], hits[0]
        ),
        hits[2] <= hits[0] + 0.01,
    );
    out.push_check(
        format!(
            "even tiny caches keep the CDN functional (hit {:.3})",
            hits[2]
        ),
        hits[2] > 0.1,
    );
    out.text.push_str(&out.render_checks());
    out.csv.push(("cache".into(), t.to_csv()));
    out
}

/// **Substrates** — the §3.1 portability claim as an experiment axis:
/// the identical workload and seed over a Chord-backed and a
/// Pastry-backed D-ring. The protocol above the substrate is
/// unchanged, so the headline metrics must essentially coincide; what
/// differs is the substrate's own routing/maintenance behaviour.
pub fn substrates(opts: RunOpts) -> ExpOutput {
    let mut out = ExpOutput::default();
    let mut table = Table::new(
        "Substrate comparison — same workload over Chord and Pastry (§3.1)",
        &[
            "substrate",
            "hit ratio",
            "resolved",
            "lookup ms",
            "transfer ms",
            "bw bps",
        ],
    );
    let mut reports = Vec::new();
    for kind in [SubstrateKind::Chord, SubstrateKind::Pastry] {
        let cfg = runner::flower_config(RunOpts {
            substrate: kind,
            ..opts
        });
        let (_, r) = runner::run_flower(&cfg);
        table.row(vec![
            kind.to_string(),
            f3(r.hit_ratio),
            format!("{}/{}", r.resolved, r.submitted),
            f1(r.mean_lookup_ms),
            f1(r.mean_transfer_ms),
            f1(r.background_bps * opts.scale.factor()),
        ]);
        reports.push(r);
    }
    let (chord, pastry) = (&reports[0], &reports[1]);
    out.push_check(
        format!(
            "both substrates resolve ≥99% (chord {}/{}, pastry {}/{})",
            chord.resolved, chord.submitted, pastry.resolved, pastry.submitted
        ),
        chord.resolved as f64 >= chord.submitted as f64 * 0.99
            && pastry.resolved as f64 >= pastry.submitted as f64 * 0.99,
    );
    let delta = (chord.hit_ratio - pastry.hit_ratio).abs();
    out.push_check(
        format!(
            "hit ratios agree within 0.05 (chord {:.3}, pastry {:.3}, Δ {:.3})",
            chord.hit_ratio, pastry.hit_ratio, delta
        ),
        delta <= 0.05,
    );
    // A modest absolute floor: the overlays must actually form under
    // both substrates. (Absolute hit-ratio levels are scale-sensitive
    // — short scaled runs spend most of their time warming up — and
    // are asserted by the gossip-sweep experiments, not here.)
    out.push_check(
        format!(
            "both hit ratios exceed 0.25 (chord {:.3}, pastry {:.3})",
            chord.hit_ratio, pastry.hit_ratio
        ),
        chord.hit_ratio > 0.25 && pastry.hit_ratio > 0.25,
    );
    out.text = table.render();
    out.text.push_str(&out.render_checks());
    out.csv.push(("table".into(), table.to_csv()));
    out
}

/// Parameters of the [`scale`] experiment sweep.
#[derive(Clone, Debug)]
pub struct ScaleParams {
    /// Node counts to sweep (e.g. `[10_000, 50_000, 100_000]`).
    pub nodes: Vec<usize>,
    /// Shard counts to sweep per node count (e.g. `[1, 2, 4, 8]`).
    pub shards: Vec<usize>,
    /// §5.3 instance-bits values to sweep (e.g. `[0, 2]` to compare
    /// the flat D-ring against a PetalUp one on the same workload).
    pub instance_bits: Vec<u32>,
    /// Simulated horizon per cell.
    pub horizon: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Pin shard worker threads to cores under the latency-aware
    /// placement (the `--pin` flag). A wall-clock knob: results are
    /// bit-identical with pinning on or off, and hosts with fewer
    /// cores than shards (or denied affinity) degrade gracefully.
    pub pin: bool,
}

impl Default for ScaleParams {
    fn default() -> Self {
        ScaleParams {
            nodes: vec![10_000, 50_000, 100_000],
            shards: vec![1, 2, 4, 8],
            instance_bits: vec![0],
            horizon: SimDuration::from_secs(60),
            seed: 42,
            pin: false,
        }
    }
}

/// The deployment a `scale` cell simulates: an 8-domain CDN with
/// well-separated localities (60 ms inter-domain latency floor — which
/// is also the engine's epoch lookahead), communities sized with the
/// node count, a query rate proportional to the population (so the
/// event load actually grows with `nodes`), and Zipf-skewed *website*
/// popularity — the §5.3 PetalUp workload, where a couple of hot
/// websites would overload their flat directory petals.
fn scale_config(
    nodes: usize,
    shards: usize,
    instance_bits: u32,
    horizon: SimDuration,
    seed: u64,
) -> SystemConfig {
    use flower_core::FlowerConfig;
    use simnet::TopologyConfig;
    use workload::{CatalogConfig, WorkloadConfig};
    let localities = SCALE_LOCALITIES;
    let active_websites = SCALE_ACTIVE_WEBSITES;
    let query_rate_per_sec = nodes as f64 * SCALE_QUERY_RATE_PER_NODE;
    let flower_base = FlowerConfig::fast_test();
    // Split when an instance runs notably hotter than the mean petal's
    // expected per-window load; the power-of-two doubling then settles
    // each petal at roughly load/threshold instances (≤ 2^b). Scaled
    // from the workload so the policy is population-independent.
    let mean_petal_window = scale_mean_petal_window(nodes);
    let petal_split_threshold = (mean_petal_window * 0.45).max(4.0) as u64;
    SystemConfig {
        topology: TopologyConfig {
            nodes,
            localities,
            min_latency_ms: 10,
            max_latency_ms: 500,
            cluster_spread: 0.03,
            background_fraction: 0.0,
            population_skew: 0.25,
            inter_locality_floor_ms: 60,
            pin: false,
            ..TopologyConfig::default()
        },
        catalog: CatalogConfig {
            num_websites: 8,
            active_websites,
            objects_per_website: 200,
            ..Default::default()
        },
        workload: WorkloadConfig {
            query_rate_per_sec,
            duration_ms: horizon.as_ms(),
            website_zipf_alpha: 1.2,
            ..Default::default()
        },
        flower: FlowerConfig {
            max_overlay: (nodes / 16).max(50),
            instance_bits,
            petal_split_threshold,
            petal_merge_floor: (petal_split_threshold / 4).max(1),
            ..flower_base
        },
        seed,
        window: SimDuration::from_secs(30),
        shards,
    }
}

/// The `scale` deployment's shape, shared by [`scale_config`] and
/// [`scale_mean_petal_window`] so the split threshold and the
/// flatten-check strictness can never drift apart.
const SCALE_LOCALITIES: usize = 8;
/// Active websites of the `scale` deployment (petals = localities ×
/// active websites).
const SCALE_ACTIVE_WEBSITES: usize = 4;
/// Query rate per node per second of the `scale` workload.
const SCALE_QUERY_RATE_PER_NODE: f64 = 0.02;

/// Expected per-window query load of the *average* petal in a
/// [`scale_config`] deployment — the resolution the split policy has
/// to work with (`scale_config` derives its split threshold from it,
/// [`scale`] its strictness bounds).
fn scale_mean_petal_window(nodes: usize) -> f64 {
    use flower_core::FlowerConfig;
    let window_s = FlowerConfig::fast_test().keepalive_period.as_ms() as f64 / 1000.0;
    nodes as f64 * SCALE_QUERY_RATE_PER_NODE * window_s
        / (SCALE_LOCALITIES * SCALE_ACTIVE_WEBSITES) as f64
}

/// The headline statistics of one scale cell that must match across
/// shard counts: submitted, resolved, hit ratio, total messages.
type CellStats = (u64, u64, f64, u64);

/// **Scale** — the engine-performance experiment: sweep the node
/// count, the §5.3 instance bits and the shard count; report
/// events/second, wall-clock and per-instance directory load per cell;
/// assert that within every (nodes, instance_bits) group all shard
/// counts produce *identical* query statistics — the engine's
/// bit-determinism guarantee (the shard layout is an execution detail,
/// and the §5.3 instance choice is a pure function of protocol state),
/// measured end to end. When the sweep includes both the flat D-ring
/// (`b = 0`) and a PetalUp one (`b ≥ 1`), it also checks that the
/// splits actually flatten the per-instance directory load under the
/// Zipf-skewed website workload.
pub fn scale(params: &ScaleParams) -> ExpOutput {
    let mut out = ExpOutput::default();
    let mut table = Table::new(
        "Scale — engine throughput (instance bits × locality shards)",
        &[
            "nodes",
            "bits",
            "shards",
            "wall s",
            "events",
            "events/s",
            "peak queue",
            "epochs",
            "speedup vs base",
            "hit ratio",
            "dir max/mean",
            "live dirs",
        ],
    );
    for &nodes in &params.nodes {
        // Per-instance load imbalance of each instance-bits group
        // (identical across the group's cells, so the base cell's
        // value represents it).
        let mut load_ratios: Vec<(u32, f64)> = Vec::new();
        for &bits in &params.instance_bits {
            // Baseline = the first shard count of the group.
            let mut base: Option<(f64, usize, CellStats)> = None;
            for &shards in &params.shards {
                let mut cfg = scale_config(nodes, shards, bits, params.horizon, params.seed);
                cfg.topology.pin = params.pin;
                let name = if bits == 0 {
                    format!("scale/{nodes}n")
                } else {
                    format!("scale/{nodes}n/b{bits}")
                };
                let (sys, report, record) = runner::run_flower_timed(&cfg, &name);
                let speedup = match &base {
                    None => format!("×1.00 (base: {shards} shard(s))"),
                    Some((base_wall, _, _)) => {
                        format!("×{:.2}", base_wall / record.wall_s.max(1e-9))
                    }
                };
                table.row(vec![
                    nodes.to_string(),
                    bits.to_string(),
                    sys.engine().num_shards().to_string(),
                    format!("{:.2}", record.wall_s),
                    record.events.to_string(),
                    f1(record.events_per_sec),
                    record.peak_queue_depth.to_string(),
                    record.epochs.to_string(),
                    speedup,
                    f3(report.hit_ratio),
                    f3(report.dir_load_max_mean),
                    report.dir_instances_live.to_string(),
                ]);
                let stats = (
                    report.submitted,
                    report.resolved,
                    report.hit_ratio,
                    sys.engine().traffic().messages(),
                );
                match &base {
                    None => {
                        load_ratios.push((bits, report.dir_load_max_mean));
                        base = Some((record.wall_s, shards, stats));
                    }
                    Some((_, base_shards, base_stats)) => out.push_check(
                        format!(
                            "{nodes} nodes / b{bits} / {shards} shards: query statistics \
                             identical to {base_shards} shards run \
                             ({}/{} hit {:.6}, {} msgs, dir load {:.4})",
                            stats.0, stats.1, stats.2, stats.3, report.dir_load_max_mean
                        ),
                        *base_stats == stats,
                    ),
                }
                out.metrics.push(MetricsRecord {
                    experiment: name.clone(),
                    // The shard count is an execution knob: every cell
                    // of the group simulates the same trace.
                    sim_key: name,
                    shards: sys.engine().num_shards(),
                    set: sys.engine().metrics().clone(),
                });
                out.bench.push(record);
            }
        }
        // §5.3 PetalUp shape: splits must flatten the per-instance
        // directory load relative to the flat D-ring on the same
        // Zipf-skewed workload — by ≥3× once 4 instances are
        // available, measurably at 2. The 3× bound needs the policy
        // to have resolution (tens of queries per petal window); tiny
        // sweeps where a window holds a handful of queries get a 2×
        // bound instead.
        if let Some(&(_, flat)) = load_ratios.iter().find(|(b, _)| *b == 0) {
            let strict = scale_mean_petal_window(nodes) >= 25.0;
            for &(bits, ratio) in load_ratios.iter().filter(|(b, _)| *b > 0) {
                let bound = match (bits, strict) {
                    (2.., true) => flat / 3.0,
                    (2.., false) => flat * 0.5,
                    _ => flat * 0.8,
                };
                out.push_check(
                    format!(
                        "{nodes} nodes: b{bits} flattens directory load \
                         (max/mean {ratio:.3} vs flat {flat:.3}, bound {bound:.3})"
                    ),
                    ratio > 0.0 && ratio <= bound,
                );
            }
        }
    }
    out.text = table.render();
    out.text.push_str(
        "note: wall-clock speedup needs real cores; on a single-CPU host the sweep\n\
         still verifies shard determinism while events/s stays flat.\n",
    );
    out.text.push_str(&out.render_checks());
    out.csv.push(("scale".into(), table.to_csv()));
    out
}

// ------------------------------------------------------------------
// Chaos — the fault-injection plane exercised end to end
// ------------------------------------------------------------------

/// Node count of the chaos deployment. Small enough that the whole
/// cell matrix (four families × their shard sweeps) finishes inside a
/// CI release job, large enough that every locality hosts communities
/// and directory petals worth disrupting.
const CHAOS_NODES: usize = 2000;

/// Localities of the chaos deployment (same shape as `scale`).
const CHAOS_LOCALITIES: usize = 8;

/// The scripted fault window shared by every chaos family: strike at
/// 150 s, heal/end at 240 s of the 360 s horizon — a settled plateau
/// on both sides of the disruption.
fn chaos_fault_window() -> (SimTime, SimTime) {
    (SimTime::from_secs(150), SimTime::from_secs(240))
}

/// Hit-ratio bucket width of the chaos cells — fine enough to resolve
/// the dip and the recovery point inside the 90 s fault window.
fn chaos_window() -> SimDuration {
    SimDuration::from_secs(15)
}

/// The chaos deployment: `scale`-shaped topology (8 localities, WAN
/// latencies) but only 2 active websites, so the origin servers live
/// in exactly localities 1 and 2 (round-robin placement starts at
/// locality 1) and the partition script can keep them reachable from
/// everywhere. Query timeouts are armed (2 s initial, retry budget 2):
/// lookups swallowed by a fault retry against a sibling instance and
/// eventually degrade to the origin server.
pub fn chaos_config(nodes: usize, shards: usize, seed: u64) -> SystemConfig {
    use flower_core::FlowerConfig;
    use simnet::TopologyConfig;
    use workload::{CatalogConfig, WorkloadConfig};
    SystemConfig {
        topology: TopologyConfig {
            nodes,
            localities: CHAOS_LOCALITIES,
            min_latency_ms: 10,
            max_latency_ms: 500,
            cluster_spread: 0.03,
            background_fraction: 0.0,
            population_skew: 0.25,
            inter_locality_floor_ms: 60,
            pin: false,
            ..TopologyConfig::default()
        },
        catalog: CatalogConfig {
            num_websites: 8,
            active_websites: 2,
            objects_per_website: 200,
            ..Default::default()
        },
        workload: WorkloadConfig {
            query_rate_per_sec: nodes as f64 * SCALE_QUERY_RATE_PER_NODE,
            duration_ms: SimDuration::from_secs(360).as_ms(),
            website_zipf_alpha: 1.2,
            ..Default::default()
        },
        flower: FlowerConfig {
            max_overlay: (nodes / 16).max(50),
            query_timeout: Some(SimDuration::from_secs(2)),
            ..FlowerConfig::fast_test()
        },
        seed,
        window: chaos_window(),
        shards,
    }
}

/// The flash-crowd variant of [`chaos_config`]: no network fault —
/// instead the colder of the two active websites (popularity rank 1)
/// receives a surge of extra queries across the fault window, roughly
/// tripling the deployment's total query rate while it lasts.
pub fn chaos_flash_config(nodes: usize, shards: usize, seed: u64) -> SystemConfig {
    let mut cfg = chaos_config(nodes, shards, seed);
    let (start, end) = chaos_fault_window();
    cfg.workload.surges = vec![Surge::FlashCrowd {
        start_ms: start.as_ms(),
        end_ms: end.as_ms(),
        website_rank: 1,
        extra_rate_per_sec: cfg.workload.query_rate_per_sec * 2.0,
    }];
    cfg
}

/// The partition script: pairwise islands. Every pair among the six
/// victim localities {0, 3, 4, 5, 6, 7} is severed, while localities
/// 1 and 2 — hosting the two active websites' origin servers — stay
/// connected to everyone, so the degradation path (retry budget
/// exhausted → origin) always has a route. Victim clients keep their
/// intra-locality overlays but lose every D-ring route hopping
/// through another victim locality.
fn chaos_partition_plane(start: SimTime, heal: SimTime) -> FaultPlane {
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

/// Steady session churn over a third of every community: rejoining
/// nodes come back stateless (fresh clients), keeping a continuous
/// flow of D-ring lookups — the traffic a partition actually breaks —
/// through the whole run instead of only during the join wave.
fn chaos_churn(sys: &FlowerSystem, cfg: &SystemConfig, seed: u64) -> ChurnScript {
    let horizon = SimTime::from_ms(cfg.workload.duration_ms);
    let mut affected: Vec<NodeId> = Vec::new();
    for ws in 0..cfg.catalog.active_websites as u16 {
        for l in 0..cfg.topology.localities as u16 {
            let comm = sys.community(workload::WebsiteId(ws), Locality(l));
            affected.extend(comm.iter().take(comm.len() / 3));
        }
    }
    affected.sort_unstable_by_key(|n| n.0);
    affected.dedup();
    ChurnScript::generate(
        &ChurnConfig {
            start: SimTime::from_secs(30),
            end: horizon,
            mean_session: SimDuration::from_secs(90),
            mean_downtime: SimDuration::from_secs(15),
            permanent: false,
        },
        &affected,
        seed,
    )
}

/// Availability readout of one fault cell: the windowed hit-ratio
/// series summarised relative to a scripted fault window.
#[derive(Clone, Copy, Debug)]
pub struct Availability {
    /// Count-weighted mean hit ratio of the settled pre-fault windows.
    pub pre_hit: f64,
    /// Worst windowed hit ratio while the fault was active.
    pub min_fault_hit: f64,
    /// `pre_hit − min_fault_hit`: how deep availability dipped.
    pub dip_depth: f64,
    /// Seconds from the heal instant until the end of the first
    /// window whose hit ratio is back within 5% of `pre_hit`; `None`
    /// when the run ends without recovering.
    pub recovery_s: Option<f64>,
    /// Count-weighted mean hit ratio from the recovery window onward
    /// (0 when the system never recovered).
    pub recovered_hit: f64,
}

/// Fraction of the pre-fault hit ratio a post-heal window must reach
/// to count as recovered (the acceptance bound: within 5%).
pub const RECOVERY_FRACTION: f64 = 0.95;

/// Summarise a windowed hit-ratio series ([`simnet::TimeSeries`]
/// points of bucket width `window`) against a fault active over
/// `[fault_start, fault_end)`. Pre-fault statistics ignore windows
/// before `settle` (warm-up) and the window overlapping the fault
/// onset; empty windows never count. When no non-empty window
/// overlaps the fault, `min_fault_hit` falls back to `pre_hit` (no
/// dip evidence).
pub fn availability(
    points: &[SeriesPoint],
    window: SimDuration,
    settle: SimTime,
    fault_start: SimTime,
    fault_end: SimTime,
) -> Availability {
    let weighted = |pts: &[SeriesPoint]| -> f64 {
        let (sum, count) = pts
            .iter()
            .fold((0.0, 0u64), |(s, c), p| (s + p.sum, c + p.count));
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    };
    let pre: Vec<SeriesPoint> = points
        .iter()
        .filter(|p| p.count > 0 && p.at >= settle && p.at + window <= fault_start)
        .copied()
        .collect();
    let pre_hit = weighted(&pre);
    let min_fault_hit = points
        .iter()
        .filter(|p| p.count > 0 && p.at < fault_end && p.at + window > fault_start)
        .map(|p| p.mean())
        .fold(f64::INFINITY, f64::min);
    let min_fault_hit = if min_fault_hit.is_finite() {
        min_fault_hit
    } else {
        pre_hit
    };
    let mut recovery_s = None;
    let mut recovered: Vec<SeriesPoint> = Vec::new();
    for p in points.iter().filter(|p| p.count > 0 && p.at >= fault_end) {
        if recovery_s.is_none() {
            if p.mean() < RECOVERY_FRACTION * pre_hit {
                continue;
            }
            recovery_s = Some(((p.at + window) - fault_end).as_ms() as f64 / 1000.0);
        }
        recovered.push(*p);
    }
    Availability {
        pre_hit,
        min_fault_hit,
        dip_depth: pre_hit - min_fault_hit,
        recovery_s,
        recovered_hit: weighted(&recovered),
    }
}

/// Run one chaos cell family across `shard_sweep`: every multi-shard
/// run must be bit-identical to the first (checked on the full
/// windowed hit series, not just the totals), every cell records a
/// metrics snapshot under the family's shared `sim_key` — so the
/// metrics gate re-checks the parity from the registry side — and a
/// bench row. Returns the first cell's system and report for series
/// analysis.
fn run_chaos_family(
    out: &mut ExpOutput,
    family: &str,
    seed: u64,
    shard_sweep: &[usize],
    mk_cfg: &dyn Fn(usize) -> SystemConfig,
    prep: &dyn Fn(&mut FlowerSystem, &SystemConfig),
) -> (FlowerSystem, SystemReport) {
    let mut first: Option<(FlowerSystem, SystemReport, String)> = None;
    for &shards in shard_sweep {
        let cfg = mk_cfg(shards);
        let name = format!("chaos/{family}");
        let (sys, report, record) = runner::run_flower_timed_with(&cfg, &name, |s| prep(s, &cfg));
        let windows: Vec<(u64, u64)> = sys
            .engine()
            .query_stats()
            .hit_series()
            .points()
            .iter()
            .map(|p| (p.count, (p.sum * 1e6) as u64))
            .collect();
        let fingerprint = format!(
            "{}/{} hit {:.12} msgs {} fault_drops {} windows {:?}",
            report.submitted,
            report.resolved,
            report.hit_ratio,
            sys.engine().traffic().messages(),
            sys.engine().metrics().counter(Counter::EngineFaultDrops),
            windows,
        );
        out.metrics.push(MetricsRecord {
            experiment: name.clone(),
            sim_key: format!("{name}/seed{seed}"),
            shards: sys.engine().num_shards(),
            set: sys.engine().metrics().clone(),
        });
        out.bench.push(record);
        match &first {
            None => first = Some((sys, report, fingerprint)),
            Some((_, _, base)) => out.push_check(
                format!(
                    "chaos/{family}: {shards}-shard run bit-identical to \
                     the {}-shard run",
                    shard_sweep[0]
                ),
                fingerprint == *base,
            ),
        }
    }
    let (sys, report, _) = first.expect("chaos shard sweep is non-empty");
    (sys, report)
}

/// One availability row of the chaos table.
fn chaos_row(t: &mut Table, cell: &str, sys: &FlowerSystem, r: &SystemReport, a: &Availability) {
    let m = sys.engine().metrics();
    t.row(vec![
        cell.into(),
        f3(a.pre_hit),
        f3(a.min_fault_hit),
        f3(a.dip_depth),
        a.recovery_s.map_or("-".into(), |s| format!("{s:.0}")),
        m.counter(Counter::DirQueryTimeouts).to_string(),
        m.counter(Counter::DirQueryRetries).to_string(),
        m.counter(Counter::DirQueryOriginFallbacks).to_string(),
        m.counter(Counter::EngineFaultDrops).to_string(),
        format!("{}/{}", r.resolved, r.submitted),
    ]);
}

/// **Chaos** — the fault-injection plane exercised end to end: a
/// pairwise-island partition with heal, a flash crowd on the colder
/// active website, probabilistic cross-locality message loss, and a
/// correlated regional failure with staggered recovery. Each family
/// runs across a shard sweep that must stay bit-identical, and each
/// is summarised by its availability profile: settled pre-fault hit
/// ratio, dip depth while the fault holds, and time-to-recover after
/// the heal.
pub fn chaos(opts: RunOpts) -> ExpOutput {
    let mut out = ExpOutput::default();
    let seed = opts.seed;
    let nodes = opts.nodes.unwrap_or(CHAOS_NODES);
    let (start, heal) = chaos_fault_window();
    let settle = SimTime::from_secs(60);
    let window = chaos_window();
    let mut table = Table::new(
        "Chaos — scripted faults, surges and the availability they cost",
        &[
            "cell",
            "pre hit",
            "fault min",
            "dip",
            "recover s",
            "timeouts",
            "retries",
            "origin fb",
            "fault drops",
            "resolved/submitted",
        ],
    );

    // --- partition + heal -------------------------------------------
    let plane = chaos_partition_plane(start, heal);
    let (sys, report) = run_chaos_family(
        &mut out,
        "partition",
        seed,
        &[1, 2, 4],
        &|shards| chaos_config(nodes, shards, seed),
        &|s, cfg| {
            let script = chaos_churn(s, cfg, seed);
            s.apply_churn(&script);
            s.apply_faults(&plane);
        },
    );
    let a = availability(
        &sys.engine().query_stats().hit_series().points(),
        window,
        settle,
        start,
        heal,
    );
    chaos_row(&mut table, "partition", &sys, &report, &a);
    let m = sys.engine().metrics();
    out.push_check(
        format!(
            "partition: lookups time out while the D-ring is cut ({} timeouts)",
            m.counter(Counter::DirQueryTimeouts)
        ),
        m.counter(Counter::DirQueryTimeouts) > 0,
    );
    out.push_check(
        format!(
            "partition: exhausted retries degrade to the origin server \
             ({} fallbacks)",
            m.counter(Counter::DirQueryOriginFallbacks)
        ),
        m.counter(Counter::DirQueryOriginFallbacks) > 0,
    );
    out.push_check(
        format!(
            "partition: availability dips while cut (hit {:.3} → {:.3})",
            a.pre_hit, a.min_fault_hit
        ),
        a.dip_depth > 0.02,
    );
    out.push_check(
        format!(
            "partition: hit ratio back within 5% of pre-fault after heal \
             (recovered {:.3} vs pre {:.3}, {} s)",
            a.recovered_hit,
            a.pre_hit,
            a.recovery_s.map_or("inf".into(), |s| format!("{s:.0}")),
        ),
        a.recovery_s.is_some() && a.recovered_hit >= RECOVERY_FRACTION * a.pre_hit,
    );

    // --- flash crowd -------------------------------------------------
    let (sys, report) = run_chaos_family(
        &mut out,
        "flash",
        seed,
        &[1, 2, 4],
        &|shards| chaos_flash_config(nodes, shards, seed),
        &|_, _| {},
    );
    let points = sys.engine().query_stats().hit_series().points();
    let a = availability(&points, window, settle, start, heal);
    chaos_row(&mut table, "flash", &sys, &report, &a);
    // Resolution throughput per second, from the windowed counts.
    let rate = |lo: SimTime, hi: SimTime| -> f64 {
        let (mut n, mut ms) = (0u64, 0u64);
        for p in &points {
            if p.at >= lo && p.at + window <= hi {
                n += p.count;
                ms += window.as_ms();
            }
        }
        if ms == 0 {
            0.0
        } else {
            n as f64 / (ms as f64 / 1000.0)
        }
    };
    let pre_rate = rate(settle, start);
    let surge_rate = rate(start, heal);
    out.push_check(
        format!(
            "flash: the crowd actually arrives ({surge_rate:.0}/s vs {pre_rate:.0}/s baseline)"
        ),
        surge_rate > 1.5 * pre_rate,
    );
    out.push_check(
        format!(
            "flash: the overlay absorbs the crowd (resolved {}/{})",
            report.resolved, report.submitted
        ),
        report.resolved as f64 >= report.submitted as f64 * 0.9,
    );
    out.push_check(
        format!(
            "flash: hit ratio back within 5% of pre-surge once it passes \
             (recovered {:.3} vs pre {:.3})",
            a.recovered_hit, a.pre_hit
        ),
        a.recovery_s.is_some() && a.recovered_hit >= RECOVERY_FRACTION * a.pre_hit,
    );

    // --- cross-locality message loss ---------------------------------
    let loss_plane = FaultPlane::new().link_loss(LinkLoss {
        start,
        end: heal,
        probability: 0.25,
        cross_locality_only: true,
    });
    let (sys, report) = run_chaos_family(
        &mut out,
        "loss",
        seed,
        &[1, 4],
        &|shards| chaos_config(nodes, shards, seed),
        &|s, _| s.apply_faults(&loss_plane),
    );
    let a = availability(
        &sys.engine().query_stats().hit_series().points(),
        window,
        settle,
        start,
        heal,
    );
    chaos_row(&mut table, "loss", &sys, &report, &a);
    let m = sys.engine().metrics();
    out.push_check(
        format!(
            "loss: the lossy window drops traffic ({} fault drops)",
            m.counter(Counter::EngineFaultDrops)
        ),
        m.counter(Counter::EngineFaultDrops) > 0,
    );
    out.push_check(
        format!(
            "loss: retries absorb 25% cross-locality loss (resolved {}/{})",
            report.resolved, report.submitted
        ),
        report.resolved as f64 >= report.submitted as f64 * 0.9,
    );

    // --- correlated regional failure ---------------------------------
    let victim = Locality(5);
    let regional_plane = FaultPlane::new().regional_failure(RegionalFailure {
        at: start,
        locality: victim,
        recover_start: heal,
        stagger: SimDuration::from_ms(50),
    });
    let (sys, report) = run_chaos_family(
        &mut out,
        "regional",
        seed,
        &[1, 4],
        &|shards| chaos_config(nodes, shards, seed),
        &|s, _| s.apply_faults(&regional_plane),
    );
    let a = availability(
        &sys.engine().query_stats().hit_series().points(),
        window,
        settle,
        start,
        heal,
    );
    chaos_row(&mut table, "regional", &sys, &report, &a);
    let back_up = sys
        .engine()
        .topology()
        .nodes_in(victim)
        .iter()
        .all(|&n| sys.engine().is_up(n));
    out.push_check(
        format!(
            "regional: staggered recovery brings locality {} fully back",
            victim.0
        ),
        back_up,
    );
    out.push_check(
        format!(
            "regional: the surviving localities keep serving \
             (resolved {}/{})",
            report.resolved, report.submitted
        ),
        report.resolved as f64 >= report.submitted as f64 * 0.8,
    );

    out.text = table.render();
    out.text.push_str(&out.render_checks());
    out.csv.push(("chaos".into(), table.to_csv()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The experiments run the full 5000-node topology; in debug-mode
    /// test builds that takes minutes per run, so the heavy shape
    /// tests are `#[ignore]`d — run them explicitly with
    /// `cargo test -p experiments --release -- --ignored`, or use the
    /// `flower-experiments` binary.
    fn opts(seed: u64) -> RunOpts {
        RunOpts::new().seed(seed)
    }

    #[test]
    #[ignore = "runs paper-scale simulations; use --release -- --ignored"]
    fn table2a_shape() {
        let out = table2a(opts(11));
        assert!(out.all_passed(), "{}", out.render_checks());
        assert!(out.text.contains("Table 2(a)"));
    }

    #[test]
    #[ignore = "runs paper-scale simulations; use --release -- --ignored"]
    fn fig6_7_8_shapes() {
        let (fsys, ssys) = comparison_pair(opts(13));
        let o6 = fig6(&fsys, &ssys);
        assert!(o6.all_passed(), "{}", o6.render_checks());
        let o7 = fig7(&fsys, &ssys);
        assert!(o7.all_passed(), "{}", o7.render_checks());
        let o8 = fig8(&fsys, &ssys);
        assert!(o8.all_passed(), "{}", o8.render_checks());
    }

    #[test]
    #[ignore = "runs paper-scale simulations; use --release -- --ignored"]
    fn churn_recovers() {
        let out = churn(opts(17));
        assert!(out.all_passed(), "{}", out.render_checks());
    }

    #[test]
    #[ignore = "runs multi-thousand-node simulations; use --release -- --ignored"]
    fn scale_sweep_is_shard_deterministic() {
        let out = scale(&ScaleParams {
            nodes: vec![2000],
            shards: vec![1, 2, 4],
            instance_bits: vec![0],
            horizon: SimDuration::from_secs(20),
            seed: 9,
            pin: false,
        });
        assert!(out.all_passed(), "{}", out.render_checks());
        assert_eq!(out.bench.len(), 3, "one cell per shard count");
        assert!(out.bench.iter().all(|r| r.events > 0));
        assert_eq!(out.bench[0].events, out.bench[1].events);
        assert_eq!(out.bench[0].epochs, 0, "1 shard has no barrier");
        assert!(out.bench[1].epochs > 0, "sharded runs count rounds");
    }

    #[test]
    #[ignore = "runs multi-thousand-node simulations; use --release -- --ignored"]
    fn scale_sweep_petalup_flattens_directory_load() {
        // The acceptance sweep: instance_bits ∈ {0, 1, 2} under the
        // Zipf website workload, bit-identical across shard counts,
        // with b = 2 flattening max/mean to ≤ 1/3 of the flat ring's.
        let out = scale(&ScaleParams {
            nodes: vec![20_000],
            shards: vec![1, 2, 4],
            instance_bits: vec![0, 1, 2],
            horizon: SimDuration::from_secs(30),
            seed: 42,
            pin: false,
        });
        assert!(out.all_passed(), "{}", out.render_checks());
        assert_eq!(out.bench.len(), 9, "3 bits × 3 shard counts");
        assert!(out
            .bench
            .iter()
            .any(|r| r.experiment.ends_with("/b2") && r.dir_load_max_mean > 0.0));
    }

    #[test]
    fn exp_output_check_bookkeeping() {
        let mut o = ExpOutput::default();
        o.push_check("a", true);
        assert!(o.all_passed());
        o.push_check("b", false);
        assert!(!o.all_passed());
        let rendered = o.render_checks();
        assert!(rendered.contains("[PASS] a"));
        assert!(rendered.contains("[FAIL] b"));
    }

    /// A synthetic hit-ratio point: mean and count, `sum` derived.
    fn pt(secs: u64, mean: f64, count: u64) -> SeriesPoint {
        SeriesPoint {
            at: SimTime::from_secs(secs),
            sum: mean * count as f64,
            count,
        }
    }

    #[test]
    fn availability_summarises_a_dip_and_recovery() {
        let w = SimDuration::from_secs(10);
        let points = vec![
            pt(0, 0.2, 10), // warm-up: before settle, ignored
            pt(10, 0.9, 10),
            pt(20, 0.9, 30),  // pre-fault: count-weighted mean 0.9
            pt(30, 0.5, 10),  // fault
            pt(40, 0.3, 10),  // fault: the dip floor
            pt(50, 0.7, 10),  // post-heal, not yet recovered
            pt(60, 0.88, 10), // recovered (≥ 0.95 × 0.9 = 0.855)
            pt(70, 0.9, 10),
        ];
        let a = availability(
            &points,
            w,
            SimTime::from_secs(10),
            SimTime::from_secs(30),
            SimTime::from_secs(50),
        );
        assert!((a.pre_hit - 0.9).abs() < 1e-12);
        assert!((a.min_fault_hit - 0.3).abs() < 1e-12);
        assert!((a.dip_depth - 0.6).abs() < 1e-12);
        // The recovery window [60 s, 70 s) ends 20 s after the heal.
        assert_eq!(a.recovery_s, Some(20.0));
        assert!((a.recovered_hit - 0.89).abs() < 1e-12);
    }

    #[test]
    fn availability_reports_no_recovery_and_no_dip_evidence() {
        let w = SimDuration::from_secs(10);
        // The only bucket overlapping the fault window is empty, and
        // the post-heal ratio never gets back within 5% of pre-fault.
        let points = vec![pt(0, 0.8, 10), pt(10, 0.0, 0), pt(20, 0.5, 10)];
        let a = availability(
            &points,
            w,
            SimTime::ZERO,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        assert!((a.pre_hit - 0.8).abs() < 1e-12);
        assert!((a.min_fault_hit - 0.8).abs() < 1e-12, "no dip evidence");
        assert!(a.dip_depth.abs() < 1e-12);
        assert_eq!(a.recovery_s, None);
        assert!(a.recovered_hit.abs() < 1e-12);
    }

    #[test]
    fn chaos_partition_plane_spares_the_origin_localities() {
        let (start, heal) = chaos_fault_window();
        let plane = chaos_partition_plane(start, heal);
        let mid = SimTime::from_secs((start.as_secs() + heal.as_secs()) / 2);
        // 6 victims pairwise severed: C(6,2) = 15 cuts, all healed.
        assert!(plane.cuts(mid, Locality(0), Locality(3)));
        assert!(plane.cuts(mid, Locality(6), Locality(7)));
        assert!(!plane.cuts(heal, Locality(0), Locality(3)));
        // Origin-server localities 1 and 2 stay reachable throughout.
        for l in [0u16, 3, 4, 5, 6, 7] {
            assert!(!plane.cuts(mid, Locality(1), Locality(l)));
            assert!(!plane.cuts(mid, Locality(2), Locality(l)));
        }
    }

    #[test]
    #[ignore = "runs multi-thousand-node simulations; use --release -- --ignored"]
    fn chaos_cells_pass_their_checks() {
        let out = chaos(RunOpts::new().seed(42));
        assert!(out.all_passed(), "{}", out.render_checks());
    }
}
