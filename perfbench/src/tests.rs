//! Self-tests on miniature workloads (≈2k nodes, 10 simulated seconds
//! of queries): every metric is reported with its unit, the layer
//! predictions hold, and the correctness gate trips when it should.

use super::*;

fn value(res: &RunResult, name: &str) -> f64 {
    res.metrics
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .1
}

fn names(res: &RunResult) -> Vec<&'static str> {
    res.metrics.iter().map(|(n, _)| *n).collect()
}

#[test]
fn every_metric_is_reported_with_its_unit() {
    for w in Workload::ALL {
        let res = timed(w, Size::Tiny, 7, 0.01);
        assert!(res.correct(), "{}: {:?}", w.name(), res.errors);
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&res), expected, "{}", w.name());
        let json = res.json(&END_TO_END);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        for (name, unit) in END_TO_END {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }

        let res = traced(w, Size::Tiny, 7, 0.01);
        assert!(res.correct(), "{} traced: {:?}", w.name(), res.errors);
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&res), expected, "{} traced", w.name());
        assert!(res.json(&PER_LAYER).starts_with("{\"correct\": true"));
    }
}

#[test]
fn catalogues_match_benchmark_json() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = doc.matches("\"unit\": ").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    for w in Workload::ALL {
        assert!(doc.contains(&format!("\"name\": \"{}\", \"why\": ", w.name())));
    }
}

#[test]
fn timed_runs_use_one_shard_and_steady_traced_runs_two() {
    for w in Workload::ALL {
        let o = execute(w, Size::Tiny, 3, Mode::Timed, None).outcome;
        assert_eq!((o.shards, o.epochs), (1, 0), "{}", w.name());
    }
    let w = Workload::Steady100k;
    let timed = execute(w, Size::Tiny, 3, Mode::Timed, None).outcome;
    let traced = execute(w, Size::Tiny, 3, Mode::Traced, None).outcome;
    assert_eq!(traced.shards, 2);
    assert!(traced.epochs > 0);
    assert!(same_simulation(w, &timed, &traced).is_ok());
}

#[test]
fn sync_layer_is_idle_on_one_shard() {
    let res = traced(Workload::HotPetals, Size::Tiny, 3, 0.01);
    assert!(res.correct(), "{:?}", res.errors);
    assert_eq!(value(&res, "simnet.sync.epochs"), 0.0);
    assert_eq!(value(&res, "simnet.sync.fused_rounds"), 0.0);
    assert_eq!(value(&res, "simnet.sync.barrier_idle_s"), 0.0);
}

#[test]
fn faults_fail_queries_only_under_churn_faults() {
    let res = traced(Workload::ChurnFaults, Size::Tiny, 3, 0.01);
    assert!(res.correct(), "{:?}", res.errors);
    assert!(value(&res, "core.system.query_fail_ratio") > 0.0);
    assert!(value(&res, "simnet.fault.dropped") > 0.0);
    let res = timed(Workload::ChurnFaults, Size::Tiny, 3, 0.01);
    assert!(value(&res, "query_ok_ratio") < 1.0);

    let res = traced(Workload::Steady100k, Size::Tiny, 3, 0.01);
    assert!(res.correct(), "{:?}", res.errors);
    assert_eq!(value(&res, "simnet.fault.dropped"), 0.0);
    assert_eq!(value(&res, "core.directory.timeouts"), 0.0);
}

#[test]
fn gate_trips_on_different_seeds() {
    let w = Workload::HotPetals;
    let a = execute(w, Size::Tiny, 1, Mode::Timed, None).outcome;
    let again = execute(w, Size::Tiny, 1, Mode::Timed, None).outcome;
    let b = execute(w, Size::Tiny, 2, Mode::Timed, None).outcome;
    assert!(same_simulation(w, &a, &again).is_ok());
    assert!(same_simulation(w, &a, &b).is_err());

    let mut res = RunResult::default();
    let mut reference = None;
    for seed in [1, 2] {
        res.admit(
            w,
            Size::Tiny,
            &mut reference,
            execute(w, Size::Tiny, seed, Mode::Timed, None),
        );
    }
    assert_eq!((res.attempted, res.failed), (2, 1));
    assert!(!res.correct());
}

#[test]
fn slicing_leaves_the_simulation_unchanged() {
    let w = Workload::ChurnFaults;
    let plain = execute(w, Size::Tiny, 5, Mode::Traced, None).outcome;
    let mut tracer = Tracer::new();
    let sliced = execute(w, Size::Tiny, 5, Mode::Traced, Some(&mut tracer)).outcome;
    assert!(same_simulation(w, &plain, &sliced).is_ok());
    let slices = tracer.spans.iter().filter(|s| s.name == "slice").count();
    assert_eq!(
        slices, 40,
        "one slice per simulated second to the drain horizon"
    );
}

#[test]
fn quantile_interpolates_inside_buckets() {
    let mut h = simnet::Histogram::new(100, 2);
    for v in [10, 20, 30, 40, 150, 160, 170, 180, 250, 290] {
        h.record(v);
    }
    // 4 values in [0,100), 4 in [100,200), 2 in the open bucket up to 290.
    assert_eq!(measure::quantile(&h, 0.2), 50.0);
    assert_eq!(measure::quantile(&h, 0.6), 150.0);
    assert_eq!(measure::quantile(&h, 0.9), 245.0);
}
