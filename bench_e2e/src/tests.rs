//! Self-test at smoke scale: all four workloads, untraced and traced.

use crate::entry::{parse_json, Inputs, Scale, Workload};
use crate::measure::{run, Outcome, Settings};
use crate::report::{END_TO_END, PER_LAYER};

const SEED: u64 = 7;
const SECONDS: f64 = 0.05;

fn smoke(workload: Workload, trace: bool, settings: &Settings) -> Outcome {
    let inputs = Inputs::generate(workload, SEED, Scale::Smoke);
    run(&inputs, trace, settings).expect("benchmark runs")
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = parse_json(include_str!("../../BENCHMARK.json"));
    doc.get(section)
        .and_then(|s| s.as_arr())
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn tables_match_benchmark_json() {
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(table(&END_TO_END), declared("end_to_end"));
    assert_eq!(table(&PER_LAYER), declared("per_layer"));
}

#[test]
fn every_workload_prints_each_metric_once_and_never_fails() {
    let settings = Settings::new(SECONDS);
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = smoke(workload, trace, &settings);
            let table = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let text = outcome.report.render(table);
            let what = format!("{} trace={trace}", workload.name());
            for (name, unit) in declared(section) {
                let lines: Vec<&str> = text
                    .lines()
                    .filter(|l| l.split(' ').next() == Some(name.as_str()))
                    .collect();
                assert_eq!(
                    lines.len(),
                    1,
                    "{what}: {name} printed {} times",
                    lines.len()
                );
                let fields: Vec<&str> = lines[0].split(' ').collect();
                assert_eq!(fields.len(), 3, "{what}: {}", lines[0]);
                assert!(fields[1].parse::<f64>().is_ok(), "{what}: {}", lines[0]);
                assert_eq!(fields[2], unit, "{what}: unit of {name}");
            }
            let json = parse_json(text.lines().last().expect("output"));
            assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(true));
            assert_eq!(
                json.get("failed").and_then(|v| v.as_u64()),
                Some(0),
                "{what}"
            );
            assert!(json.get("attempted").and_then(|v| v.as_u64()) >= Some(1));
            assert_eq!(outcome.report.failed, 0, "{what}: failed_frac must be 0");

            // The fold attributes every instant of a `run` span: its stage
            // spans plus the driver's self time sum to it.
            for call in &outcome.traced_calls {
                let l = &call.layers;
                let sum = l.stages() + l.driver;
                assert!(l.run > 0.0, "{what}: traced call has no run span");
                assert!(
                    (sum - l.run).abs() <= 0.01 * l.run,
                    "{what}: {sum} vs {}",
                    l.run
                );
            }
            assert_eq!(trace, !outcome.traced_calls.is_empty(), "{what}");
        }
    }
}

#[test]
fn a_corrupted_label_counts_as_a_failure() {
    let mut settings = Settings::new(SECONDS);
    settings.corrupt_call = Some(2);
    for workload in [Workload::PaperSweep, Workload::SpeckleBatch] {
        let outcome = smoke(workload, false, &settings);
        assert_eq!(outcome.report.failed, 1, "{}", workload.name());
        let json = parse_json(outcome.report.render(&END_TO_END).lines().last().unwrap());
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(false));
    }
}
