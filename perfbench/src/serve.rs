//! `serve-churn`: the real `rescue-server` binary as a child process,
//! driven by this file's own line-JSON client (not `rescue-load`, so a
//! change to the repository's load generator cannot move the numbers).
//!
//! The client is a closed loop over [`CONNECTIONS`] connections: each
//! waits for its reply before sending the next request, as a supervisor
//! connection does. Every session runs the full lifecycle — `create`,
//! one `push` per alarm, `diagnosis`, `destroy` — and every pushed prefix
//! and final diagnosis is checked against the oracle.

use crate::inputs::{Script, ServeInputs};
use crate::stats::{mean, median, per, residual, Metrics, Outcome};
use rescue::Diagnosis;
use rescue_datalog::TermStore;
use rescue_diagnosis::{
    petri_facts, unfolding_program, DiagnosisSession, EncodeOptions, ManagerConfig, SessionManager,
};
use rescue_telemetry::json::{self, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client connections, one closed-loop client thread each.
pub const CONNECTIONS: usize = 2;

/// The request kinds of one session lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verb {
    Create,
    Push,
    Diagnosis,
    Destroy,
}

pub const VERBS: [(Verb, &str); 4] = [
    (Verb::Create, "create"),
    (Verb::Push, "push"),
    (Verb::Diagnosis, "diagnosis"),
    (Verb::Destroy, "destroy"),
];

/// Write each net as `<work_dir>/<name>.pn` (the server registers a net
/// under its file stem).
pub fn write_nets(inputs: &ServeInputs, work_dir: &Path) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    inputs
        .nets
        .iter()
        .map(|(name, net)| {
            let path = work_dir.join(format!("{name}.pn"));
            std::fs::write(&path, rescue_petri::print_net(net))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// A running `rescue-server` child. Dropping it kills and reaps the
/// process; [`Server::shutdown`] stops it the polite way.
pub struct Server {
    child: Child,
    stderr: BufReader<ChildStderr>,
    pub addr: String,
}

impl Server {
    /// Start `bin` on `nets` with one engine thread, on an ephemeral
    /// localhost port, and wait until it listens.
    pub fn start(bin: &Path, nets: &[PathBuf]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(nets)
            .args(["--threads", "1", "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let mut server = Server {
            child,
            stderr: BufReader::new(stderr),
            addr: String::new(),
        };
        let mut line = String::new();
        loop {
            line.clear();
            match server.stderr.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("rescue-server exited before listening".into()),
                Ok(_) => {}
            }
            if let Some(rest) = line.strip_prefix("listening on ") {
                server.addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                return Ok(server);
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Send `shutdown`, wait for the process to exit, and return its
    /// shutdown summary line from stderr.
    pub fn shutdown(mut self) -> Result<String, String> {
        let mut conn = Conn::open(&self.addr)?;
        conn.call(r#"{"op":"shutdown"}"#)?;
        drop(conn);
        let mut rest = String::new();
        let mut line = String::new();
        while matches!(self.stderr.read_line(&mut line), Ok(n) if n > 0) {
            rest.push_str(&line);
            line.clear();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("rescue-server exited with {status}"));
        }
        Ok(rest
            .lines()
            .find(|l| l.starts_with("shutdown:"))
            .unwrap_or("")
            .to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Already reaped after a clean shutdown; otherwise stop it now.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection: a request line out, one reply line back.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            stream,
            reader,
            line: String::new(),
        })
    }

    /// Send `request` and read its reply; the elapsed time runs from the
    /// write until the whole reply line is read.
    pub fn call(&mut self, request: &str) -> Result<(Value, f64), String> {
        let t = Instant::now();
        self.stream
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("read: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let v = json::parse(&self.line).map_err(|e| format!("reply {}: {e}", self.line.trim()))?;
        if v.get("ok") != Some(&Value::Bool(true)) {
            return Err(format!("refused: {}", self.line.trim()));
        }
        Ok((v, ms))
    }
}

fn reply_diagnosis(v: &Value) -> Option<Diagnosis> {
    let sets = v.get("diagnosis")?.as_array()?;
    let mut out = Vec::new();
    for set in sets {
        let events: Option<Vec<String>> = set
            .as_array()?
            .iter()
            .map(|e| e.as_str().map(str::to_owned))
            .collect();
        out.push(events?);
    }
    Some(Diagnosis::from_sets(out))
}

fn expect_diagnosis(v: &Value, want: &Diagnosis, what: &str) -> Result<(), String> {
    match reply_diagnosis(v) {
        Some(d) if d == *want => Ok(()),
        Some(_) => Err(format!("{what}: diagnosis differs from the oracle")),
        None => Err(format!("{what}: reply carries no diagnosis")),
    }
}

/// Run one session lifecycle on `conn`, recording each request's time
/// and outcome. Returns whether every step succeeded and verified.
fn lifecycle(
    conn: &mut Conn,
    net: &str,
    script: &Script,
    times: &mut Vec<(Verb, f64)>,
    outcome: &mut Outcome,
) -> bool {
    let mut step = |verb: Verb, req: String, check: &dyn Fn(&Value) -> Result<(), String>| {
        let r = conn.call(&req).and_then(|(v, ms)| {
            times.push((verb, ms));
            check(&v).map(|()| v)
        });
        let v = r.as_ref().ok().cloned();
        outcome.record(r.map(|_| ()));
        v
    };
    let Some(created) = step(
        Verb::Create,
        format!(r#"{{"op":"create","net":"{net}"}}"#),
        &|_| Ok(()),
    ) else {
        return false;
    };
    let Some(id) = created
        .get("session")
        .and_then(Value::as_str)
        .map(str::to_owned)
    else {
        return false;
    };
    let mut ok = true;
    for (k, alarm) in script.alarms.alarms.iter().enumerate() {
        let req = format!(
            r#"{{"op":"push","session":"{id}","alarms":"{}@{}"}}"#,
            alarm.symbol, alarm.peer
        );
        let want = &script.expect[k];
        ok &= step(Verb::Push, req, &|v| expect_diagnosis(v, want, "push")).is_some();
    }
    let last = script.expect.last().expect("scripts are nonempty");
    let req = format!(r#"{{"op":"diagnosis","session":"{id}"}}"#);
    ok &= step(Verb::Diagnosis, req, &|v| {
        expect_diagnosis(v, last, "diagnosis")
    })
    .is_some();
    let req = format!(r#"{{"op":"destroy","session":"{id}"}}"#);
    ok &= step(Verb::Destroy, req, &|_| Ok(())).is_some();
    ok
}

/// What a client pass measured.
#[derive(Default)]
pub struct ClientPass {
    /// Every request's time, tagged with its verb.
    pub times: Vec<(Verb, f64)>,
    /// Per lifecycle: the sum of its request times (ms).
    pub lifecycle_ms: Vec<f64>,
    pub completed: usize,
    pub started: usize,
    pub wall_s: f64,
}

/// Drive the server with [`CONNECTIONS`] closed-loop clients until
/// `budget` has elapsed. Sessions take scripts in order from one shared
/// counter.
pub fn client_pass(
    addr: &str,
    inputs: &ServeInputs,
    budget: Duration,
    outcome: &mut Outcome,
) -> Result<ClientPass, String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let worker = || -> Result<(ClientPass, Outcome), String> {
        let mut conn = Conn::open(addr)?;
        let mut pass = ClientPass::default();
        let mut outcome = Outcome::default();
        loop {
            // Every connection runs at least one lifecycle, then stops at
            // the budget.
            if pass.started > 0 && start.elapsed() >= budget {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            let script = &inputs.scripts[i % inputs.scripts.len()];
            let net = &inputs.nets[script.net].0;
            let before = pass.times.len();
            let ok = lifecycle(&mut conn, net, script, &mut pass.times, &mut outcome);
            pass.lifecycle_ms
                .push(pass.times[before..].iter().map(|t| t.1).sum());
            pass.started += 1;
            pass.completed += ok as usize;
        }
        Ok((pass, outcome))
    };
    let results: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS).map(|_| scope.spawn(worker)).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut pass = ClientPass {
        wall_s: start.elapsed().as_secs_f64(),
        ..ClientPass::default()
    };
    for r in results {
        let (p, o) = r?;
        pass.times.extend(p.times);
        pass.lifecycle_ms.extend(p.lifecycle_ms);
        pass.started += p.started;
        pass.completed += p.completed;
        outcome.attempted += o.attempted;
        outcome.failed += o.failed;
        outcome.first_failures.extend(o.first_failures);
    }
    Ok(pass)
}

/// Per-verb medians of tagged request times (ms).
pub fn verb_p50(times: &[(Verb, f64)]) -> Vec<(&'static str, f64)> {
    VERBS
        .iter()
        .map(|&(verb, name)| {
            let xs: Vec<f64> = times.iter().filter(|t| t.0 == verb).map(|t| t.1).collect();
            (name, median(&xs).unwrap_or(0.0))
        })
        .collect()
}

/// What the `SessionManager` replay measured.
#[derive(Default)]
struct Replay {
    /// Every call's time, tagged with its verb.
    times: Vec<(Verb, f64)>,
    /// Per lifecycle: the sum of its call times (ms).
    lifecycle_ms: Vec<f64>,
    /// Per push: the session's engine counter deltas (candidates scanned,
    /// facts derived, plans compiled), read outside the timed call.
    deltas: Vec<(usize, usize, usize)>,
}

/// Replay the first `sessions` scripts straight through a
/// `SessionManager` on this thread, timing each call.
fn manager_replay(inputs: &ServeInputs, sessions: usize, outcome: &mut Outcome) -> Replay {
    let mut mgr = SessionManager::new(ManagerConfig {
        threads: 1,
        ..ManagerConfig::default()
    });
    for (name, net) in &inputs.nets {
        mgr.register_net(name, net.clone());
    }
    let mut r = Replay::default();
    let times = &mut r.times;
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let eval =
        |mgr: &SessionManager, id: &str| mgr.session_stats(id).map(|s| s.eval).unwrap_or_default();
    for i in 0..sessions {
        let script = &inputs.scripts[i % inputs.scripts.len()];
        let before = times.len();
        let t = Instant::now();
        let created = mgr.create(None, Some(&inputs.nets[script.net].0));
        times.push((Verb::Create, ms(t)));
        let id = match created {
            Ok(id) => id,
            Err(e) => {
                outcome.record(Err(format!("manager create: {e}")));
                continue;
            }
        };
        for (k, alarm) in script.alarms.alarms.iter().enumerate() {
            let was = eval(&mgr, &id);
            let t = Instant::now();
            let pushed = mgr.push(&id, std::slice::from_ref(alarm));
            times.push((Verb::Push, ms(t)));
            let now = eval(&mgr, &id);
            r.deltas.push((
                now.candidates_scanned - was.candidates_scanned,
                now.facts_derived - was.facts_derived,
                now.plans_compiled - was.plans_compiled,
            ));
            outcome.record(match pushed {
                Ok(r) if r.diagnosis == script.expect[k] => Ok(()),
                Ok(_) => Err("manager push: diagnosis differs from the oracle".into()),
                Err(e) => Err(format!("manager push: {e}")),
            });
        }
        let t = Instant::now();
        let d = mgr.diagnosis(&id);
        times.push((Verb::Diagnosis, ms(t)));
        outcome.record(match d {
            Ok(d) if Some(&d) == script.expect.last() => Ok(()),
            Ok(_) => Err("manager diagnosis differs from the oracle".into()),
            Err(e) => Err(format!("manager diagnosis: {e}")),
        });
        let t = Instant::now();
        let destroyed = mgr.destroy(&id);
        times.push((Verb::Destroy, ms(t)));
        outcome.record(destroyed.map_err(|e| format!("manager destroy: {e}")));
        r.lifecycle_ms
            .push(times[before..].iter().map(|t| t.1).sum());
    }
    r
}

/// The server-wide `stats` rollup: `(created, rejected, evicted,
/// backpressure_replies, plans_compiled)`.
pub fn rollup(addr: &str) -> Result<[f64; 5], String> {
    let mut conn = Conn::open(addr)?;
    let (v, _) = conn.call(r#"{"op":"stats"}"#)?;
    let num = |k: &str| {
        v.get(k)
            .and_then(Value::as_number)
            .ok_or_else(|| format!("stats reply lacks {k}"))
    };
    Ok([
        num("created")?,
        num("rejected")?,
        num("evicted")?,
        num("backpressure_replies")?,
        num("plans_compiled")?,
    ])
}

/// The error-reply count from the server's shutdown summary
/// (`... request(s) (K error replies); ...`).
pub fn error_replies(summary: &str) -> Option<f64> {
    let head = summary.split(" error repl").next()?;
    head.rsplit('(').next()?.trim().parse().ok()
}

/// The traced run: a dark client pass over half the budget, whose
/// verb-tagged request times give the client-side per-verb p50s, then the
/// same sessions replayed through `SessionManager`, and the server's own
/// counters.
///
/// The client pass adds no timer beyond the dark one, so there is no
/// tracing cost to measure here: `trace.traced_ms` and
/// `trace.overhead_ratio` read 0, like any layer a workload never calls.
pub fn traced(
    addr: &str,
    inputs: &ServeInputs,
    budget: Duration,
    outcome: &mut Outcome,
    m: &mut Metrics,
) -> Result<(), String> {
    let dark = client_pass(addr, inputs, budget / 2, outcome)?;
    let replay = manager_replay(inputs, dark.started, outcome);
    let client = verb_p50(&dark.times);
    let manager = verb_p50(&replay.times);
    let dark_ms = mean(&dark.lifecycle_ms);

    m.put("trace.dark_ms", dark_ms, "ms");
    for ((name, c), (_, mg)) in client.iter().zip(&manager) {
        m.put(&format!("server.{name}_ms"), *c, "ms");
        m.put(&format!("manager.{name}_ms"), *mg, "ms");
        m.put(&format!("server.wire_overhead.{name}_ms"), c - mg, "ms");
    }
    // The resumable fixpoint behind every push, from the replay's engine
    // counters: join work per push and the time per candidate.
    let push_ms: f64 = replay
        .times
        .iter()
        .filter(|t| t.0 == Verb::Push)
        .map(|t| t.1)
        .sum();
    let n_push = replay.deltas.len() as f64;
    let candidates: usize = replay.deltas.iter().map(|d| d.0).sum();
    let facts: usize = replay.deltas.iter().map(|d| d.1).sum();
    let plans_per_push: usize = replay.deltas.iter().map(|d| d.2).sum();
    m.put(
        "datalog.candidates_per_push",
        per(candidates as f64, n_push),
        "count",
    );
    m.put("datalog.facts_per_push", per(facts as f64, n_push), "count");
    m.put(
        "datalog.plans_compiled_per_push",
        per(plans_per_push as f64, n_push),
        "count",
    );
    m.put(
        "datalog.ns_per_candidate",
        per(push_ms * 1e6, candidates as f64),
        "ns",
    );
    // Session construction alone, per registered net, and the encoding it
    // starts with, timed apart on the same net.
    let (mut create_ms, mut encode_ms) = (Vec::new(), Vec::new());
    for (_, net) in &inputs.nets {
        for _ in 0..10 {
            let t = Instant::now();
            let mut store = TermStore::new();
            let mut prog = unfolding_program(net, &mut store, &EncodeOptions::default());
            for rule in petri_facts(net, &mut store).rules {
                prog.push(rule);
            }
            encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
            drop((prog, store));
            let t = Instant::now();
            let s = DiagnosisSession::new(net, "supervisor0");
            create_ms.push(t.elapsed().as_secs_f64() * 1e3);
            outcome.record(s.map(|_| ()).map_err(|e| format!("session create: {e}")));
        }
    }
    let create = mean(&create_ms);
    let encode = mean(&encode_ms);
    m.put("diagnosis.session_create_ms", create, "ms");
    m.put("diagnosis.encode_ms", encode, "ms");
    m.put("datalog.session_setup_ms", create - encode, "ms");
    let [created, rejected, evicted, backpressure, plans] = rollup(addr)?;
    m.put("manager.created", created, "count");
    m.put("manager.rejected", rejected, "count");
    m.put("manager.evicted", evicted, "count");
    m.put("manager.backpressure_replies", backpressure, "count");
    m.put(
        "datalog.plans_compiled_per_session",
        per(plans, created),
        "count",
    );
    m.put(
        "unattributed_ms",
        residual(dark_ms, &[mean(&replay.lifecycle_ms)]),
        "ms",
    );
    println!(
        "# serve-churn traced: {} lifecycles, {} verified, replayed through the manager",
        dark.started, dark.completed
    );
    Ok(())
}
