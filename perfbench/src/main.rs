//! The repository benchmark: one dark, verified run of one workload.
//!
//! ```text
//! rescue-perfbench --workload batch-dqsq|serve-churn
//!                  --seed N --seconds S --trace 0|1
//!                  [--server-bin PATH] [--work-dir DIR]
//! ```
//!
//! Set-up (input generation from the seed, the oracle, `.pn` files and the
//! server start for serve-churn) runs nine times and `setup_s` is its
//! median. `--trace 0` measures for `S` seconds with nothing but a timer
//! around each operation and prints the end-to-end metrics; `--trace 1`
//! prints the per-layer split instead, timed from out here around calls
//! into each crate's public functions. Every output is checked against the
//! `diagnose_baseline` oracle. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; lines before it are
//! `#`-prefixed notes.

mod batch;
mod cpus;
mod inputs;
#[cfg(test)]
mod selftest;
mod serve;
mod stats;

use stats::{median, tail, Metrics, Outcome};
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["batch-dqsq", "serve-churn"];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// End-to-end metrics of a dark run, with units. The op is one
/// `diagnose` call (batch-dqsq) or one request (serve-churn); throughput
/// counts verified diagnoses and completed session lifecycles
/// respectively.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
];

/// Every per-layer metric any workload's traced run reports. A traced run
/// prints all of them; a layer its workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("peak_rss_mb", "MB"),
    ("trace.dark_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("unattributed_ms", "ms"),
    ("diagnosis.encode_ms", "ms"),
    ("qsq.rewrite_ms", "ms"),
    ("dqsq.build_peers_ms", "ms"),
    ("dqsq.handler_ms", "ms"),
    ("dqsq.handler_calls", "count"),
    ("dqsq.handler_us_per_call", "us"),
    ("dqsq.rows_per_tuples_msg", "rows"),
    ("net.transport_ms", "ms"),
    ("net.messages", "count"),
    ("net.bytes", "bytes"),
    ("datalog.candidates_scanned", "count"),
    ("datalog.iterations", "count"),
    ("datalog.plans_compiled", "count"),
    ("datalog.candidates_per_handler_call", "count"),
    ("dqsq.answer_extract_ms", "ms"),
    ("dqsq.breakdown_ms", "ms"),
    ("diagnosis.event_accounting_ms", "ms"),
    ("diagnosis.session_create_ms", "ms"),
    ("datalog.session_setup_ms", "ms"),
    ("datalog.candidates_per_push", "count"),
    ("datalog.facts_per_push", "count"),
    ("datalog.plans_compiled_per_push", "count"),
    ("datalog.ns_per_candidate", "ns"),
    ("server.create_ms", "ms"),
    ("server.push_ms", "ms"),
    ("server.diagnosis_ms", "ms"),
    ("server.destroy_ms", "ms"),
    ("manager.create_ms", "ms"),
    ("manager.push_ms", "ms"),
    ("manager.diagnosis_ms", "ms"),
    ("manager.destroy_ms", "ms"),
    ("server.wire_overhead.create_ms", "ms"),
    ("server.wire_overhead.push_ms", "ms"),
    ("server.wire_overhead.diagnosis_ms", "ms"),
    ("server.wire_overhead.destroy_ms", "ms"),
    ("manager.created", "count"),
    ("manager.rejected", "count"),
    ("manager.evicted", "count"),
    ("manager.backpressure_replies", "count"),
    ("server.errors", "count"),
    ("datalog.plans_compiled_per_session", "count"),
    ("trace.ops", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: Option<PathBuf>,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        server_bin: None,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--server-bin" => a.server_bin = Some(PathBuf::from(value()?)),
            "--work-dir" => a.work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// Run `f` [`SETUPS`] times, keep the last result, and return it with the
/// median duration in seconds.
fn timed_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        last = Some(f()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("SETUPS > 0"),
        median(&secs).expect("SETUPS > 0"),
    ))
}

/// Median and tail of op latencies into `m`, with the tail's percentile
/// and sample count stated on a note line.
fn latencies(m: &mut Metrics, ms: &[f64], op: &str) {
    m.put("latency_p50_ms", median(ms).unwrap_or(0.0), "ms");
    match tail(ms) {
        Some(t) => {
            println!(
                "# latency_tail_ms = p{} of {} {op} latencies ({} beyond)",
                t.pct, t.n, t.beyond
            );
            m.put("latency_tail_ms", t.value, "ms");
        }
        None => {
            println!(
                "# latency_tail_ms = max of {} {op} latencies (too few for a tail with 10 beyond)",
                ms.len()
            );
            m.put(
                "latency_tail_ms",
                ms.iter().copied().fold(0.0, f64::max),
                "ms",
            );
        }
    }
}

/// The end-to-end metrics of a dark pass: `done` verified units of work in
/// `wall_s`, the per-op latencies and the set-up time.
fn end_to_end(m: &mut Metrics, (done, wall_s): (usize, f64), ms: &[f64], op: &str, setup_s: f64) {
    m.put("throughput_per_s", done as f64 / wall_s, "1/s");
    latencies(m, ms, op);
    m.put("setup_s", setup_s, "s");
}

/// Peak RSS of process `pid` (the one doing the diagnosis): a per-layer
/// metric of traced runs, a note on dark ones. It is set by the single
/// largest input of a run, so across seeds it spreads too far to bound.
fn peak_rss(m: &mut Metrics, trace: bool, pid: &str) -> Result<(), String> {
    let mb = stats::peak_rss_mb(pid)?;
    if trace {
        m.put("peak_rss_mb", mb, "MB");
    } else {
        println!("# peak_rss_mb = {mb} (VmHWM of process {pid})");
    }
    Ok(())
}

fn run(a: &Args) -> Result<(Outcome, Metrics), String> {
    let mut outcome = Outcome::default();
    let mut m = Metrics::default();
    let budget = Duration::from_secs_f64(a.seconds);
    match a.workload.as_str() {
        "batch-dqsq" => {
            let (cases, setup_s) = timed_setup(|| Ok(inputs::batch_cases(a.seed, 1.0)))?;
            // The oracle runs of set-up must not set the peak.
            if let Err(e) = stats::reset_peak_rss() {
                println!("# peak_rss_mb includes set-up ({e})");
            }
            println!(
                "# diagnoses rotate over CPUs {:?}",
                cpus::Rotation::new().cpus()
            );
            if a.trace {
                batch::traced(&cases, budget, &mut outcome, &mut m);
            } else {
                let pass = batch::dark(&cases, budget, &mut outcome);
                let done = (pass.verified, pass.wall_s);
                end_to_end(&mut m, done, &pass.ms, "diagnose", setup_s);
            }
            peak_rss(&mut m, a.trace, "self")?;
        }
        _ => {
            let bin = a
                .server_bin
                .clone()
                .ok_or("serve-churn needs --server-bin")?;
            let dir = a.work_dir.join(format!("serve-churn-{}", a.seed));
            // Each earlier set-up's server is dropped (killed and reaped)
            // when the next one replaces it; only the last one serves.
            let ((inputs, server), setup_s) = timed_setup(|| {
                let inputs = inputs::serve_inputs(a.seed);
                let files = serve::write_nets(&inputs, &dir)?;
                let server = serve::Server::start(&bin, &files)?;
                Ok((inputs, server))
            })?;
            if a.trace {
                serve::traced(&server.addr, &inputs, budget, &mut outcome, &mut m)?;
            } else {
                let pass = serve::client_pass(&server.addr, &inputs, budget, &mut outcome)?;
                let ms: Vec<f64> = pass.times.iter().map(|t| t.1).collect();
                let done = (pass.completed, pass.wall_s);
                end_to_end(&mut m, done, &ms, "request", setup_s);
            }
            // The server's own peak, read before it exits.
            peak_rss(&mut m, a.trace, &server.pid().to_string())?;
            let summary = server.shutdown()?;
            println!("# rescue-server {summary}");
            if a.trace {
                let errors = serve::error_replies(&summary)
                    .ok_or_else(|| format!("no error count in {summary:?}"))?;
                m.put("server.errors", errors, "count");
            }
        }
    }
    if a.trace {
        m.put("trace.ops", outcome.attempted as f64, "count");
        // Layers this workload never calls still get a line: zero work.
        for (name, unit) in PER_LAYER {
            if m.get(name).is_none() {
                m.put(name, 0.0, unit);
            }
        }
    }
    Ok((outcome, m))
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rescue-perfbench: {e}");
            exit(2)
        }
    };
    let (outcome, metrics) = match run(&a) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rescue-perfbench: {e}");
            exit(1)
        }
    };
    println!(
        "# {} seed {}: {} ops attempted, {} failed (failed_ops_share {})",
        a.workload,
        a.seed,
        outcome.attempted,
        outcome.failed,
        outcome.failed_share()
    );
    for why in &outcome.first_failures {
        println!("# failure: {why}");
    }
    println!(
        "{}",
        stats::result_line(
            outcome.failed == 0 && outcome.attempted > 0,
            &outcome,
            &metrics
        )
    );
}
