//! `batch-dqsq`: batch `Diagnoser::diagnose` with `Engine::Dqsq`.
//!
//! The dark pass times the facade. The traced pass recomposes what
//! `diagnose_dqsq` and `dqsq_distributed_with` do from their public parts,
//! timing each call from out here, and must reproduce the dark run's
//! observable results exactly (the recomposition guard), so the split can
//! never silently drift from the code it claims to explain.

use crate::cpus::Rotation;
use crate::inputs::BatchCase;
use crate::stats::{mean, per, residual, Metrics, Outcome};
use rescue::{Diagnoser, Diagnosis, Engine};
use rescue_datalog::{Atom, EvalBudget, EvalOptions, Rule, Subst, TermId, TermStore};
use rescue_diagnosis::encode::names;
use rescue_diagnosis::pipeline::{diagnose_dqsq, exported_display, PipelineOptions};
use rescue_diagnosis::{diagnosis_program, extract_diagnosis};
use rescue_dqsq::{build_peers, dist_breakdown, dmsg_size, DMsg, DistRun, EvalPeer};
use rescue_net::sim::{SimConfig, SimNet};
use rescue_net::{NodeId, Outbox, PeerLogic};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// The supervisor peer name `Diagnoser` uses.
const SUPERVISOR: &str = "supervisor";

fn check(case: &BatchCase, diagnosis: &Diagnosis, events: Option<usize>) -> Result<(), String> {
    if *diagnosis != case.expect {
        return Err(format!(
            "diagnosis of {} differs from the oracle",
            case.alarms
        ));
    }
    if events != Some(case.events) {
        return Err(format!(
            "Theorem 4: {:?} events materialized on {}, the dedicated diagnoser builds {}",
            events, case.alarms, case.events
        ));
    }
    Ok(())
}

/// Per-call wall times of one dark pass, and how many verified.
pub struct DarkPass {
    pub ms: Vec<f64>,
    pub verified: usize,
    pub wall_s: f64,
    /// How many cases (a prefix of the list, cycled) the pass ran.
    pub ran: usize,
}

/// Diagnose cases in list order (cycling) until `budget` has elapsed,
/// timing each `Diagnoser::diagnose` call. Each call runs on the next
/// allowed CPU in turn (see [`crate::cpus`]).
pub fn dark(cases: &[BatchCase], budget: Duration, outcome: &mut Outcome) -> DarkPass {
    let mut cpus = Rotation::new();
    let diagnosers: Vec<Diagnoser> = cases
        .iter()
        .map(|c| {
            Diagnoser::new(c.net.clone())
                .engine(Engine::Dqsq)
                .threads(1)
        })
        .collect();
    let start = Instant::now();
    let mut pass = DarkPass {
        ms: Vec::new(),
        verified: 0,
        wall_s: 0.0,
        ran: 0,
    };
    while pass.ran == 0 || start.elapsed() < budget {
        let i = pass.ran % cases.len();
        cpus.step();
        let t = Instant::now();
        let report = diagnosers[i].diagnose(&cases[i].alarms);
        pass.ms.push(t.elapsed().as_secs_f64() * 1e3);
        let verdict = match report {
            Ok(r) => check(&cases[i], &r.diagnosis, r.events_materialized),
            Err(e) => Err(e.to_string()),
        };
        pass.verified += verdict.is_ok() as usize;
        outcome.record(verdict);
        pass.ran += 1;
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// An `EvalPeer` whose handlers are timed from the outside.
struct TimedPeer {
    peer: EvalPeer,
    busy: Duration,
    calls: u64,
    tuples_msgs: u64,
    rows: u64,
}

impl PeerLogic<DMsg> for TimedPeer {
    fn on_start(&mut self, out: &mut Outbox<DMsg>) {
        let t = Instant::now();
        self.peer.on_start(out);
        self.busy += t.elapsed();
        self.calls += 1;
    }

    fn on_message(&mut self, from: NodeId, msg: DMsg, out: &mut Outbox<DMsg>) {
        if let DMsg::Tuples { rows, .. } = &msg {
            self.tuples_msgs += 1;
            self.rows += rows.len() as u64;
        }
        let t = Instant::now();
        self.peer.on_message(from, msg, out);
        self.busy += t.elapsed();
        self.calls += 1;
    }
}

/// Layer times (ms) and counts of one recomposed diagnosis.
#[derive(Default, Clone, Debug)]
pub struct Split {
    pub total_ms: f64,
    pub encode_ms: f64,
    pub rewrite_ms: f64,
    pub build_peers_ms: f64,
    pub handler_ms: f64,
    pub transport_ms: f64,
    pub answer_extract_ms: f64,
    pub breakdown_ms: f64,
    pub event_accounting_ms: f64,
    pub handler_calls: u64,
    pub tuples_msgs: u64,
    pub rows: u64,
    pub messages: u64,
    pub bytes: u64,
    pub candidates: usize,
    pub iterations: usize,
    pub plans_compiled: usize,
    pub facts_derived: usize,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `diagnose_dqsq` rebuilt from public parts with a timer around each.
/// Returns the diagnosis, the distinct event count and the split.
pub fn recomposed(case: &BatchCase) -> Result<(Diagnosis, usize, Split), String> {
    let mut s = Split::default();
    let whole = Instant::now();
    let mut store = TermStore::new();

    let t = Instant::now();
    let dp = diagnosis_program(&case.net, &case.alarms, SUPERVISOR, &mut store);
    s.encode_ms = ms(t.elapsed());

    let t = Instant::now();
    let (rules, edb) = rescue_qsq::split_edb_facts(&dp.program);
    let rw = rescue_qsq::rewrite_with(
        &rules,
        &dp.query,
        &mut store,
        rescue_qsq::SupPlacement::AtomPeer,
    )
    .map_err(|e| format!("rewrite: {e}"))?;
    let mut dist = rw.program.clone();
    for (pred, row) in edb {
        dist.push(Rule::fact(Atom::new(pred, row.to_vec())));
    }
    dist.push(Rule::fact(Atom::new(rw.seed_pred, rw.seed_row.to_vec())));
    s.rewrite_ms = ms(t.elapsed());

    let t = Instant::now();
    let (peers, _) = build_peers(&dist, &store, EvalBudget::default());
    let timed: Vec<TimedPeer> = peers
        .into_iter()
        .map(|mut peer| {
            peer.set_eval_options(EvalOptions::with_threads(1));
            TimedPeer {
                peer,
                busy: Duration::ZERO,
                calls: 0,
                tuples_msgs: 0,
                rows: 0,
            }
        })
        .collect();
    s.build_peers_ms = ms(t.elapsed());

    let mut sim = SimNet::new(timed, SimConfig::default(), dmsg_size);
    let t = Instant::now();
    let net_stats = sim.run().map_err(|e| format!("network: {e}"))?;
    let run_ms = ms(t.elapsed());
    let mut peers = Vec::new();
    for p in sim.into_peers() {
        s.handler_ms += ms(p.busy);
        s.handler_calls += p.calls;
        s.tuples_msgs += p.tuples_msgs;
        s.rows += p.rows;
        peers.push(p.peer);
    }
    s.transport_ms = run_ms - s.handler_ms;
    s.messages = net_stats.messages;
    s.bytes = net_stats.bytes;
    let run = DistRun {
        peers,
        net: net_stats,
        recordings: Vec::new(),
    };
    if let Some(e) = run.first_error() {
        return Err(e.to_string());
    }

    let t = Instant::now();
    let name = store.sym_str(rw.answer_pred.name).to_owned();
    let peer = store.sym_str(rw.answer_pred.peer.0).to_owned();
    let mut answers: Vec<Vec<TermId>> = Vec::new();
    for row in run.facts_of(&name, &peer) {
        let ids: Vec<TermId> = row.iter().map(|t| store.import(t)).collect();
        let mut subst = Subst::new();
        if ids
            .iter()
            .zip(rw.answer_atom.args.iter())
            .all(|(&g, &p)| store.match_term(p, g, &mut subst))
        {
            answers.push(ids);
        }
    }
    let diagnosis = extract_diagnosis(&answers, &store);
    s.answer_extract_ms = ms(t.elapsed());

    let t = Instant::now();
    s.facts_derived = dist_breakdown(&run).derived_total();
    s.breakdown_ms = ms(t.elapsed());

    // The Theorem 4 count as `diagnose_dqsq` takes it: distinct display
    // strings of the event (and condition) columns of adorned relations.
    let t = Instant::now();
    let mut events: HashSet<String> = HashSet::new();
    let mut conditions: HashSet<String> = HashSet::new();
    for p in &run.peers {
        for (name, rows) in p.owned_facts() {
            if name.starts_with("in_") || name.starts_with("sup_") || !name.contains("__") {
                continue;
            }
            let base = name.split("__").next().unwrap_or(&name);
            if names::is_trans(base) {
                events.extend(rows.iter().map(|row| exported_display(&row[1])));
            } else if base == names::PLACES {
                conditions.extend(rows.iter().map(|row| exported_display(&row[0])));
            }
        }
    }
    s.event_accounting_ms = ms(t.elapsed());

    let stats = run.total_stats();
    s.candidates = stats.candidates_scanned;
    s.iterations = stats.iterations;
    s.plans_compiled = stats.plans_compiled;
    s.total_ms = ms(whole.elapsed());
    Ok((diagnosis, events.len(), s))
}

/// The recomposition guard: the recomposed run must reproduce the dark
/// pipeline run's diagnosis, Theorem 4 count, message count and join
/// work exactly.
fn guard(case: &BatchCase, diagnosis: &Diagnosis, events: usize, s: &Split) -> Result<(), String> {
    let opts = PipelineOptions {
        threads: 1,
        ..PipelineOptions::default()
    };
    let dark = diagnose_dqsq(&case.net, &case.alarms, &opts).map_err(|e| e.to_string())?;
    let dark_messages = dark.net.map(|n| n.messages).unwrap_or(0);
    let same = dark.diagnosis == *diagnosis
        && dark.distinct_events == events
        && dark_messages == s.messages
        && dark.stats.candidates_scanned == s.candidates
        && dark.derived_facts == s.facts_derived;
    if same {
        Ok(())
    } else {
        Err(format!(
            "recomposition guard on {}: events {} vs {}, messages {} vs {}, \
             candidates {} vs {}, facts {} vs {}, diagnosis equal: {}",
            case.alarms,
            dark.distinct_events,
            events,
            dark_messages,
            s.messages,
            dark.stats.candidates_scanned,
            s.candidates,
            dark.derived_facts,
            s.facts_derived,
            dark.diagnosis == *diagnosis
        ))
    }
}

/// The traced run: until `budget` has elapsed, each case is diagnosed
/// dark, then recomposed with timers and guarded, both on the same CPU.
/// Alternating per case keeps machine drift out of the dark-versus-traced
/// comparison.
pub fn traced(cases: &[BatchCase], budget: Duration, outcome: &mut Outcome, m: &mut Metrics) {
    let mut cpus = Rotation::new();
    let start = Instant::now();
    let mut dark_samples = Vec::new();
    let mut splits = Vec::new();
    while dark_samples.is_empty() || start.elapsed() < budget {
        let case = &cases[dark_samples.len() % cases.len()];
        cpus.step();
        dark_samples.extend(dark(std::slice::from_ref(case), Duration::ZERO, outcome).ms);
        let verdict = recomposed(case).and_then(|(d, events, s)| {
            check(case, &d, Some(events))?;
            guard(case, &d, events, &s)?;
            splits.push(s);
            Ok(())
        });
        if let Err(why) = &verdict {
            eprintln!("batch-dqsq: {why}");
        }
        outcome.record(verdict);
    }
    let avg = |f: fn(&Split) -> f64| mean(&splits.iter().map(f).collect::<Vec<_>>());
    let dark_ms = mean(&dark_samples);
    let encode = avg(|s| s.encode_ms);
    let rewrite = avg(|s| s.rewrite_ms);
    let build = avg(|s| s.build_peers_ms);
    let handler = avg(|s| s.handler_ms);
    let transport = avg(|s| s.transport_ms);
    let answer = avg(|s| s.answer_extract_ms);
    let breakdown = avg(|s| s.breakdown_ms);
    let events = avg(|s| s.event_accounting_ms);
    let calls = avg(|s| s.handler_calls as f64);
    let handler_total: f64 = splits.iter().map(|s| s.handler_ms).sum();
    let calls_total: u64 = splits.iter().map(|s| s.handler_calls).sum();
    let rows: u64 = splits.iter().map(|s| s.rows).sum();
    let tuples: u64 = splits.iter().map(|s| s.tuples_msgs).sum();
    let candidates: usize = splits.iter().map(|s| s.candidates).sum();

    m.put("trace.dark_ms", dark_ms, "ms");
    m.put("trace.traced_ms", avg(|s| s.total_ms), "ms");
    m.put(
        "trace.overhead_ratio",
        avg(|s| s.total_ms) / dark_ms,
        "ratio",
    );
    m.put("diagnosis.encode_ms", encode, "ms");
    m.put("qsq.rewrite_ms", rewrite, "ms");
    m.put("dqsq.build_peers_ms", build, "ms");
    m.put("dqsq.handler_ms", handler, "ms");
    m.put("dqsq.handler_calls", calls, "count");
    m.put(
        "dqsq.handler_us_per_call",
        per(handler_total * 1e3, calls_total as f64),
        "us",
    );
    m.put(
        "dqsq.rows_per_tuples_msg",
        per(rows as f64, tuples as f64),
        "rows",
    );
    m.put("net.transport_ms", transport, "ms");
    m.put("net.messages", avg(|s| s.messages as f64), "count");
    m.put("net.bytes", avg(|s| s.bytes as f64), "bytes");
    m.put(
        "datalog.candidates_scanned",
        avg(|s| s.candidates as f64),
        "count",
    );
    m.put("datalog.iterations", avg(|s| s.iterations as f64), "count");
    m.put(
        "datalog.plans_compiled",
        avg(|s| s.plans_compiled as f64),
        "count",
    );
    m.put(
        "datalog.candidates_per_handler_call",
        per(candidates as f64, calls_total as f64),
        "count",
    );
    m.put("dqsq.answer_extract_ms", answer, "ms");
    m.put("dqsq.breakdown_ms", breakdown, "ms");
    m.put("diagnosis.event_accounting_ms", events, "ms");
    m.put(
        "unattributed_ms",
        residual(
            dark_ms,
            &[
                encode, rewrite, build, handler, transport, answer, breakdown, events,
            ],
        ),
        "ms",
    );
    println!(
        "# batch-dqsq traced: {} diagnoses, {:.1} handler calls each, guard {}",
        splits.len(),
        calls,
        if splits.len() == dark_samples.len() {
            "passed"
        } else {
            "FAILED"
        }
    );
}
