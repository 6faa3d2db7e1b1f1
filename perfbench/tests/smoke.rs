//! The benchmark's own tests, at the smoke size (seconds per workload):
//!
//!     cargo test --release --manifest-path perfbench/Cargo.toml

use perfbench::metrics::{self, END_TO_END, PER_LAYER};
use perfbench::offline::check_label;
use perfbench::report::valid_name;
use perfbench::serving::{
    check_responses, interactive_requests, open_loop, setup, StatementSource,
};
use perfbench::stats::Digest;
use perfbench::trace::Tracer;
use perfbench::{parse_args, run, work_dir, Args, Report, Size, Workload};
use serde_json::Value;
use sqlan_workload::{build_sdss, sdss_database, Scale, SdssConfig};

fn get<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.get(key).unwrap_or_else(|| panic!("no field {key}"))
}

fn smoke(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        size: Size::smoke(),
    }
}

/// Every workload, traced and untraced, reports exactly the catalogued
/// metrics of its mode with their units, under valid names, with every
/// check passing; traced self times add up to the traced wall. Then each
/// output check must reject a corrupted label or response. One test, so
/// the pinned environment is set before any other thread reads it.
#[test]
fn smoke_runs_report_every_metric_and_checks_catch_corruption() {
    perfbench::pin_settings();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let r = run(&smoke(workload, trace));
            let what = format!("{} trace={trace}", workload.name());
            assert!(r.correct, "{what}: {:?}", r.problems);
            assert_eq!(r.failed, 0, "{what}");
            assert!(r.attempted > 0, "{what}");
            let expected = metrics::expected(trace);
            assert_eq!(r.metrics.len(), expected.len(), "{what}");
            for spec in expected {
                let m = r.metrics.iter().find(|m| m.name == spec.name);
                let m = m.unwrap_or_else(|| panic!("{what}: {} missing", spec.name));
                assert_eq!(m.unit, spec.unit, "{what}: {}", spec.name);
                assert!(valid_name(&m.name), "{what}: {}", m.name);
                assert!(m.value.is_finite(), "{what}: {}", m.name);
            }
            if trace {
                let parts: f64 = r
                    .metrics
                    .iter()
                    .filter(|m| m.name.starts_with("self_s.") || m.name == "unattributed_s")
                    .map(|m| m.value)
                    .sum();
                let wall = r.get("traced_wall_s").expect("traced wall");
                assert!(
                    (parts - wall).abs() < 1e-6 * wall.max(1.0),
                    "{what}: {parts} vs {wall}"
                );
            }
            let line = r.to_json();
            let parsed: Value = serde_json::from_str(&line).expect("result parses");
            assert_eq!(get(&parsed, "correct").as_bool(), Some(true));
        }
    }

    // A corrupted label fails the label check.
    let cfg = SdssConfig {
        n_sessions: 80,
        scale: Scale(0.02),
        seed: 5,
    };
    let log = build_sdss(cfg);
    let db = sdss_database(cfg);
    let entry = &log.entries[0];
    let out = db.submit(&entry.statement);
    let mut report = Report::new();
    assert!(check_label(&mut report, entry, &out));
    assert!(report.correct);
    let mut bad = entry.clone();
    bad.answer_size += 1.0;
    assert!(!check_label(&mut report, &bad, &out));
    assert!(!report.correct);

    // A corrupted body, or a non-200 status, fails the serving check.
    let args = smoke(Workload::Sdss, false);
    let dir = work_dir("smoke-test");
    let tracer = Tracer::new(false);
    let live = setup(&args, &dir, &tracer, None);
    let mut src = StatementSource::new(args.seed, args.workload);
    let reqs = interactive_requests(&mut src, 8);
    let mut resps = open_loop(live.server.addr(), &reqs, 0..8, 1000.0, 1, &tracer, None);
    let mut report = Report::new();
    let registry = &live.registry;
    assert_eq!(
        check_responses(&mut report, registry, &reqs, &resps, &tracer, None),
        0
    );
    assert!(report.correct, "{:?}", report.problems);
    resps[3].body = Digest::of(b"{\"generation\":2,\"degraded\":false,\"predictions\":[]}");
    resps[5].status = Some(503);
    assert_eq!(
        check_responses(&mut report, registry, &reqs, &resps, &tracer, None),
        2
    );
    assert!(!report.correct);
    live.server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `BENCHMARK.json` names exactly the catalogued metrics, with their
/// units, and keeps to the bounds the benchmark contract allows.
#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = get(&bench, key).as_array().expect("metric list");
        assert_eq!(listed.len(), specs.len(), "{key}");
        for (m, spec) in listed.iter().zip(specs) {
            assert_eq!(get(m, "name").as_str(), Some(spec.name), "{key}");
            assert_eq!(
                get(m, "unit").as_str(),
                Some(spec.unit),
                "{key}: {}",
                spec.name
            );
            assert!(valid_name(spec.name), "{}", spec.name);
        }
    }
    let bounds: Vec<(String, f64)> = get(&bench, "end_to_end")
        .as_array()
        .expect("end_to_end")
        .iter()
        .map(|m| {
            let name = get(m, "name").as_str().expect("name").to_string();
            (name, get(m, "bound").as_f64().expect("bound"))
        })
        .collect();
    let setup = bounds
        .iter()
        .find(|(n, _)| n == "setup_s")
        .expect("setup_s")
        .1;
    for (name, bound) in &bounds {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}: {bound}");
        assert!(
            *bound <= setup,
            "{name}: setup_s must have the largest bound"
        );
    }
    let names: Vec<&str> = get(&bench, "workloads")
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| get(w, "name").as_str().expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn arguments_are_checked() {
    let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    let ok =
        parse_args(&argv("--workload sqlshare --seed 3 --seconds 10 --trace 1")).expect("valid");
    assert_eq!(ok.workload, Workload::Sqlshare);
    assert!(ok.trace);
    assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
    assert!(parse_args(&argv("--workload sdss --seconds 10 --trace 0")).is_err());
    assert!(parse_args(&argv("--workload sdss --seed 3 --seconds 10 --trace 2")).is_err());
}
