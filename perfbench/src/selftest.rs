//! Self-tests of the benchmark: its description files agree with what the
//! harness emits, injected wrong answers are counted as failures, and both
//! workloads run clean on a tiny input set, dark and traced.

use crate::inputs::{batch_cases, serve_inputs};
use crate::stats::{Metrics, Outcome};
use crate::{batch, serve, END_TO_END, PER_LAYER, WORKLOADS};
use rescue::Diagnosis;
use rescue_telemetry::json::{self, Value};
use std::collections::BTreeSet;
use std::time::Duration;

fn load(rel: &str) -> Value {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::parse(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn strs<'a>(v: &'a Value, key: &str) -> Vec<&'a str> {
    v.as_array()
        .unwrap()
        .iter()
        .map(|e| e.get(key).and_then(Value::as_str).unwrap())
        .collect()
}

#[test]
fn benchmark_json_names_exactly_what_the_harness_emits() {
    let b = load("../BENCHMARK.json");
    assert_eq!(strs(b.get("workloads").unwrap(), "name"), WORKLOADS);
    for (key, list) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let entries = b.get(key).unwrap();
        let names = strs(entries, "name");
        let units = strs(entries, "unit");
        let want: Vec<(&str, &str)> = names.into_iter().zip(units).collect();
        assert_eq!(want, list, "{key}");
    }
}

#[test]
fn interaction_table_covers_every_layer_metric_once() {
    let t = load("interactions.json");
    let rows = t.get("per_layer").unwrap().as_array().unwrap();
    let metrics: Vec<&str> = strs(t.get("per_layer").unwrap(), "metric");
    let unique: BTreeSet<&str> = metrics.iter().copied().collect();
    assert_eq!(unique.len(), metrics.len(), "a metric is listed twice");
    let want: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(unique, want);
    let e2e: BTreeSet<&str> = END_TO_END.iter().map(|m| m.0).collect();
    for row in rows {
        for key in ["moves", "does_not_move"] {
            for target in row.get(key).unwrap().as_array().unwrap() {
                let m = target.get("metric").and_then(Value::as_str).unwrap();
                let w = target.get("workload").and_then(Value::as_str).unwrap();
                assert!(e2e.contains(m), "{m} is not an end-to-end metric");
                assert!(WORKLOADS.contains(&w), "{w} is not a workload");
            }
        }
    }
}

#[test]
fn an_injected_oracle_mismatch_counts_as_a_failed_op() {
    let mut cases = batch_cases(5, 0.01);
    cases[0].expect = Diagnosis::from_sets(vec![]);
    let mut o = Outcome::default();
    let pass = batch::dark(&cases[..1], Duration::ZERO, &mut o);
    assert_eq!((pass.ran, pass.verified), (1, 0));
    assert_eq!((o.attempted, o.failed), (1, 1));
    assert!(o.failed_share() > 0.0);
}

fn assert_clean(o: &Outcome, m: &Metrics, what: &str) {
    assert!(o.attempted > 0, "{what}: nothing ran");
    assert_eq!(o.failed, 0, "{what}: {:?}", o.first_failures);
    for (name, value, _) in &m.entries {
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
}

fn assert_reports(m: &Metrics, names: &[&str], what: &str) {
    for name in names {
        assert!(
            m.get(name).is_some_and(|v| v > 0.0),
            "{what}: {name} missing or zero"
        );
    }
}

#[test]
fn batch_smoke_dark_and_traced() {
    let cases = batch_cases(11, 0.01);
    let mut o = Outcome::default();
    let pass = batch::dark(&cases, Duration::ZERO, &mut o);
    assert_eq!(pass.verified, 1);
    assert_clean(&o, &Metrics::default(), "batch dark");

    let mut o = Outcome::default();
    let mut m = Metrics::default();
    batch::traced(&cases, Duration::ZERO, &mut o, &mut m);
    assert_clean(&o, &m, "batch traced");
    assert_reports(
        &m,
        &[
            "dqsq.handler_ms",
            "net.messages",
            "datalog.candidates_scanned",
            "qsq.rewrite_ms",
        ],
        "batch traced",
    );
    // The residual is exactly the dark time minus the attributed layers.
    let parts: f64 = [
        "diagnosis.encode_ms",
        "qsq.rewrite_ms",
        "dqsq.build_peers_ms",
        "dqsq.handler_ms",
        "net.transport_ms",
        "dqsq.answer_extract_ms",
        "dqsq.breakdown_ms",
        "diagnosis.event_accounting_ms",
    ]
    .iter()
    .map(|n| m.get(n).unwrap())
    .sum();
    let residual = m.get("trace.dark_ms").unwrap() - parts;
    assert!((m.get("unattributed_ms").unwrap() - residual).abs() < 1e-9);
}

#[test]
fn recomposition_reproduces_the_dark_pipeline() {
    for case in batch_cases(12, 0.01) {
        let (d, events, split) = batch::recomposed(&case).unwrap();
        assert_eq!(d, case.expect);
        assert_eq!(events, case.events, "Theorem 4 on {}", case.alarms);
        assert!(split.handler_calls > 0 && split.messages > 0);
    }
}

#[test]
fn serve_smoke_dark_and_traced() {
    let inputs = serve_inputs(14);
    let handle = rescue_server::spawn(rescue_server::ServerConfig {
        manager: rescue_diagnosis::ManagerConfig {
            threads: 1,
            ..Default::default()
        },
        nets: inputs.nets.clone(),
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr.to_string();
    let mut o = Outcome::default();
    // A spent budget still runs one lifecycle per connection.
    let pass = serve::client_pass(&addr, &inputs, Duration::ZERO, &mut o).unwrap();
    assert_eq!((pass.started, pass.completed), (2, 2));
    assert_clean(&o, &Metrics::default(), "serve dark");

    let mut o = Outcome::default();
    let mut m = Metrics::default();
    serve::traced(&addr, &inputs, Duration::ZERO, &mut o, &mut m).unwrap();
    assert_clean(&o, &m, "serve traced");
    assert_reports(
        &m,
        &[
            "server.create_ms",
            "manager.push_ms",
            "manager.created",
            "datalog.candidates_per_push",
            "datalog.session_setup_ms",
        ],
        "serve traced",
    );
    assert_eq!(m.get("manager.rejected"), Some(0.0));
    let mut conn = serve::Conn::open(&addr).unwrap();
    conn.call(r#"{"op":"shutdown"}"#).unwrap();
    drop(conn);
    let report = handle.join().unwrap();
    assert_eq!(report.errors, 0);
    assert_eq!(
        serve::error_replies("shutdown: 3 connection(s), 40 request(s) (2 error replies); x"),
        Some(2.0)
    );
}
