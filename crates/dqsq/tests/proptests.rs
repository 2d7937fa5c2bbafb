//! Property-based tests for the distributed layer: on randomly generated
//! multi-peer programs,
//!
//! * distributed evaluation computes the centralized fixpoint,
//! * the peer-local rewriting protocol generates exactly the global
//!   rewriting,
//! * Theorem 1 holds (dQSQ ≡ QSQ on the de-located program).

use proptest::prelude::*;
use rescue_datalog::{parse_atom, parse_program, Database, EvalBudget, TermStore};
use rescue_dqsq::{
    canonical_rules, check_theorem1, export_program, protocol_rewrite, run_distributed,
    DistOptions, Transport,
};
use rescue_net::sim::SimConfig;
use rescue_qsq::split_edb_facts;

/// A random three-peer program: a chain/union structure over relations
/// R0..R3 spread across peers a/b/c, seeded with random facts. Always
/// range-restricted and function-free (so every engine terminates).
fn arb_program() -> impl Strategy<Value = (String, String)> {
    let edges = prop::collection::vec((0u8..6, 0u8..6), 1..12);
    let shape = 0u8..4;
    (edges, shape, 0u8..6).prop_map(|(edges, shape, start)| {
        let mut src = String::new();
        // Base facts at peer c.
        for (a, b) in &edges {
            src.push_str(&format!("E@c(n{a}, n{b}).\n"));
        }
        // Rule shapes exercising cross-peer reads and recursion.
        match shape {
            0 => {
                // Linear recursion across two peers.
                src.push_str("P@a(X, Y) :- E@c(X, Y).\n");
                src.push_str("P@a(X, Y) :- E@c(X, Z), Q@b(Z, Y).\n");
                src.push_str("Q@b(X, Y) :- P@a(X, Y).\n");
            }
            1 => {
                // Union of two paths.
                src.push_str("P@a(X, Y) :- E@c(X, Y).\n");
                src.push_str("P@a(X, Y) :- P@a(X, Z), E@c(Z, Y).\n");
                src.push_str("Q@b(X, Y) :- P@a(X, Y), E@c(Y, Z).\n");
                src.push_str("P@a(X, Y) :- Q@b(Y, X), E@c(X, Y).\n");
            }
            2 => {
                // Same-generation style.
                src.push_str("P@a(X, X) :- E@c(X, Y).\n");
                src.push_str("P@a(X, Y) :- E@c(X, XP), P@a(XP, YP), E@c(Y, YP).\n");
                src.push_str("Q@b(X, Y) :- P@a(X, Y), X != Y.\n");
            }
            _ => {
                // Mutual recursion with a filter.
                src.push_str("P@a(X, Y) :- E@c(X, Y).\n");
                src.push_str("Q@b(X, Y) :- P@a(X, Z), E@c(Z, Y).\n");
                src.push_str("P@a(X, Y) :- Q@b(X, Z), E@c(Z, Y), X != Z.\n");
            }
        }
        let query = if shape == 2 {
            format!("Q@b(n{start}, Y)")
        } else {
            format!("P@a(n{start}, Y)")
        };
        (src, query)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn distributed_fixpoint_matches_centralized((src, _q) in arb_program(), seed in 0u64..20) {
        let mut store = TermStore::new();
        let prog = parse_program(&src, &mut store).unwrap();
        // Centralized fixpoint.
        let mut db = Database::new();
        rescue_datalog::seminaive(&prog, &mut store, &mut db, &EvalBudget::default()).unwrap();
        // Distributed fixpoint under a random interleaving.
        let opts = DistOptions {
            transport: Transport::Sim(SimConfig { seed, ..Default::default() }),
            ..Default::default()
        };
        let run = run_distributed(&prog, &store, &opts).unwrap();
        // Every owned relation agrees with the centralized database.
        for peer in &run.peers {
            for (name, rows) in peer.owned_facts() {
                let pred = rescue_datalog::PredId {
                    name: store.sym_get(&name).expect("relation name known centrally"),
                    peer: rescue_datalog::Peer(
                        store.sym_get(peer.name()).expect("peer name known"),
                    ),
                };
                prop_assert_eq!(
                    rows.len(),
                    db.count(pred),
                    "size of {}@{} differs", name, peer.name()
                );
            }
        }
    }

    #[test]
    fn protocol_rewrite_matches_global((src, q) in arb_program()) {
        let mut store = TermStore::new();
        let prog = parse_program(&src, &mut store).unwrap();
        let query = parse_atom(&q, &mut store).unwrap();
        let (rules, _) = split_edb_facts(&prog);
        let global = rescue_qsq::rewrite(&rules, &query, &mut store).unwrap();
        let expected = canonical_rules(export_program(&global.program, &store));
        let (local, _) = protocol_rewrite(&rules, &query, &store, SimConfig::default()).unwrap();
        prop_assert_eq!(canonical_rules(local), expected);
    }

    #[test]
    fn theorem1_holds_on_random_programs((src, q) in arb_program()) {
        let mut store = TermStore::new();
        let prog = parse_program(&src, &mut store).unwrap();
        let query = parse_atom(&q, &mut store).unwrap();
        let report =
            check_theorem1(&prog, &query, &mut store, &DistOptions::default()).unwrap();
        prop_assert!(report.answers_match);
        prop_assert!(report.relations_match, "mismatch: {:?}", report.mismatched);
        prop_assert_eq!(report.dqsq_derived, report.qsq_derived);
    }
}
