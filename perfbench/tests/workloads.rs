//! Reduced-size instances of every workload run end to end, pass their
//! output checks and report every metric; `BENCHMARK.json` declares
//! exactly the metrics the benchmark reports.

use perfbench::{end_to_end_metrics, per_layer_metrics, run, Options, Scale, WORKLOADS};

fn small(workload: &str, trace: bool) -> perfbench::Report {
    let opts = Options {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.0,
        trace,
        scale: Scale::Small,
    };
    let report = run(&opts).expect("known workload");
    assert!(
        report.correct(),
        "{workload} (trace {trace}): {:?}",
        report.failures
    );
    assert!(report.attempted > 0);
    report
}

fn names(report: &perfbench::Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    let want: Vec<String> = end_to_end_metrics().into_iter().map(|d| d.name).collect();
    for workload in WORKLOADS {
        let report = small(workload, false);
        assert_eq!(names(&report), want, "{workload}");
        for m in &report.metrics {
            assert!(m.value > 0.0, "{workload}: {} = {}", m.name, m.value);
        }
        let line = report.json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        for name in &want {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{line}"
            );
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let want: Vec<String> = per_layer_metrics(Scale::Small)
        .into_iter()
        .map(|d| d.name)
        .collect();
    for workload in WORKLOADS {
        let report = small(workload, true);
        assert_eq!(names(&report), want, "{workload}");
        let spans = report
            .spans_jsonl
            .as_deref()
            .expect("traced run keeps spans");
        assert!(spans.lines().count() > 1, "{workload}: no spans");
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("reported")
        };
        assert!(value("core.build_us") > 0.0, "{workload}");
        assert!(value("process.cpu_util") >= 0.0, "{workload}");
        match workload {
            "swarm-sweep" => {
                assert!(value("exec.run_us") > 0.0);
                assert!(value("verify.check_us") > 0.0);
                assert!(value("swarm.violations") > 0.0);
                assert!(value("self_s.swarm") > 0.0);
            }
            "check-reduced" => {
                assert!(value("footprint.analysis_ms") > 0.0);
                assert!(value("footprint.validate_ms") > 0.0);
                assert!(value("scalarset.certify_ms") > 0.0);
                assert!(value("explore.frontier_vs_serial") > 0.0);
                assert!(value("self_s.explore") > 0.0);
            }
            _ => assert!(value("explore.states.s4_b0") > 0.0),
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let opts = Options {
        workload: "no-such-workload".into(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Small,
    };
    assert!(run(&opts).is_err());
}

/// The metric lists in `BENCHMARK.json` are the full-scale lists the
/// benchmark reports, in the same order, with the same units.
#[test]
fn benchmark_json_declares_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = |section: &str| -> Vec<(String, String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list ends")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
                    entry[at..].split('"').next().expect("value").to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let reported = |defs: Vec<perfbench::MetricDef>| -> Vec<(String, String, String)> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_string(), d.better.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), reported(end_to_end_metrics()));
    assert_eq!(
        declared("per_layer"),
        reported(per_layer_metrics(Scale::Full))
    );
    for workload in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{workload}\"")),
            "{workload}"
        );
    }
}
