//! The distributed runtime across transports: the deterministic simulator
//! and the crossbeam thread-per-peer transport must compute identical
//! fixpoints; delivery interleavings never change results.

use rescue_datalog::{parse_program, TermStore};
use rescue_dqsq::{run_distributed, DistOptions, Transport};
use rescue_net::sim::{Delivery, SimConfig};

const PROGRAM: &str = r#"
    % Mutual recursion across three peers with function terms.
    Ping@a(z).
    Ping@a(s(N)) :- Pong@b(N).
    Pong@b(s(N)) :- Ping@a(N), Fuel@c(N).
    Fuel@c(z). Fuel@c(s(z)). Fuel@c(s(s(z))).
    Out@c(N) :- Ping@a(N).
"#;

fn facts_as_strings(run: &rescue_dqsq::DistRun, name: &str, peer: &str) -> Vec<String> {
    let mut v: Vec<String> = run
        .facts_of(name, peer)
        .into_iter()
        .map(|r| format!("{r:?}"))
        .collect();
    v.sort();
    v
}

#[test]
fn sim_fixpoint_is_interleaving_independent() {
    let mut store = TermStore::new();
    let prog = parse_program(PROGRAM, &mut store).unwrap();
    let mut reference = None;
    for seed in 0..10 {
        for delivery in [Delivery::FifoPerChannel, Delivery::Random] {
            let opts = DistOptions {
                transport: Transport::Sim(SimConfig {
                    seed,
                    delivery,
                    ..Default::default()
                }),
                ..Default::default()
            };
            let run = run_distributed(&prog, &store, &opts).unwrap();
            let out = facts_as_strings(&run, "Out", "c");
            assert_eq!(out.len(), 3, "Ping = {{z, s²(z), s⁴(z)}}");
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "fixpoint differs at seed {seed}, {delivery:?}"),
            }
        }
    }
}

#[test]
fn threaded_transport_matches_sim() {
    let mut store = TermStore::new();
    let prog = parse_program(PROGRAM, &mut store).unwrap();
    let sim = run_distributed(&prog, &store, &DistOptions::default()).unwrap();
    // Every transport × per-peer-trace combination, the threaded ones
    // repeated since their interleaving changes run to run.
    for _ in 0..3 {
        for transport in [Transport::default(), Transport::Threaded] {
            for per_peer_trace in [false, true] {
                let opts = DistOptions {
                    transport,
                    per_peer_trace,
                    ..Default::default()
                };
                let run = run_distributed(&prog, &store, &opts).unwrap();
                assert_eq!(run.recordings.len(), if per_peer_trace { 3 } else { 0 });
                for (name, peer) in [("Ping", "a"), ("Pong", "b"), ("Out", "c")] {
                    assert_eq!(
                        facts_as_strings(&sim, name, peer),
                        facts_as_strings(&run, name, peer),
                        "{opts:?} vs sim on {name}@{peer}"
                    );
                }
            }
        }
    }
}

#[test]
fn threaded_runs_a_diagnosis_program() {
    // The whole generated diagnosis program on real threads.
    use rescue_diagnosis::{diagnosis_program, AlarmSeq};
    let net = rescue_petri::figure1();
    let alarms = AlarmSeq::from_pairs(&[("b", "p1"), ("a", "p2"), ("c", "p1")]);
    let mut store = TermStore::new();
    let dp = diagnosis_program(&net, &alarms, "p0", &mut store);

    // Rewrite for the query and distribute — mirroring dqsq_distributed,
    // but over the threaded transport.
    let (rules, edb) = rescue_qsq::split_edb_facts(&dp.program);
    let rw = rescue_qsq::rewrite(&rules, &dp.query, &mut store).unwrap();
    let mut dist = rw.program.clone();
    for (pred, row) in edb {
        dist.push(rescue_datalog::Rule::fact(rescue_datalog::Atom::new(
            pred,
            row.to_vec(),
        )));
    }
    dist.push(rescue_datalog::Rule::fact(rescue_datalog::Atom::new(
        rw.seed_pred,
        rw.seed_row.to_vec(),
    )));
    let opts = DistOptions {
        transport: Transport::Threaded,
        ..Default::default()
    };
    let run = run_distributed(&dist, &store, &opts).unwrap();
    let name = store.sym_str(rw.answer_pred.name).to_owned();
    let peer = store.sym_str(rw.answer_pred.peer.0).to_owned();
    let answers = run.facts_of(&name, &peer);
    // One explanation with 3 events plus... answers are (z, x) pairs; the
    // single configuration is reachable via multiple interleavings, but
    // every row's x is one of the 3 events.
    assert!(!answers.is_empty());
    let distinct_events: std::collections::BTreeSet<String> =
        answers.iter().map(|row| format!("{:?}", row[1])).collect();
    assert_eq!(distinct_events.len(), 3);
}

#[test]
fn message_accounting_is_consistent() {
    let mut store = TermStore::new();
    let prog = parse_program(PROGRAM, &mut store).unwrap();
    let run = run_distributed(&prog, &store, &DistOptions::default()).unwrap();
    assert!(run.net.messages > 0);
    assert!(
        run.net.bytes > run.net.messages,
        "payloads have nonzero size"
    );
    let (owned, cached) = run.fact_totals();
    assert!(owned > 0);
    // Every cached fact arrived in some Tuples message.
    let tuples_sent: u64 = run.peers.iter().map(|p| p.tuples_sent()).sum();
    assert!(tuples_sent as usize >= cached);
}
