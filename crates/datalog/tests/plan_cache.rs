//! The session plan cache's observability contract: a cache hit changes
//! *nothing* but the `plans_compiled` counter (and the wall clock), and a
//! stale hit is impossible — any change to a plan-shaping option misses
//! the key and recompiles. The persistent worker pool rides along:
//! threads spawn on the first fan-out and never again, which
//! `eval.parallel.threads_spawned` pins exactly.
//!
//! Every check goes through [`EvalSession`], the one owner of a cache
//! across fixpoints: a session absorbs one 300-edge chain, then a second,
//! disjoint one, and the second resume is compared against a control that
//! ran the same two resumes under different options. (Program changes can
//! only be seen below the session, whose program is fixed; that check
//! lives with the cache in `eval.rs`.)

use rescue_datalog::{
    parse_program, EvalBudget, EvalOptions, EvalSession, EvalStats, JoinOrder, PredId, TermId,
    TermStore,
};
use rescue_telemetry::{Collector, MetricsSnapshot};

const TC: &str = "
    Path@p(X, Y) :- Edge@p(X, Y).
    Path@p(X, Y) :- Path@p(X, Z), Edge@p(Z, Y).
";

/// A 300-edge chain over fresh `{prefix}i` constants: ~45k paths, round
/// windows wide enough (delta ≈ 300 rows joined against 300 edges) that a
/// 4-thread run fans out to the worker pool on many rounds.
fn chain(store: &mut TermStore, edge: PredId, prefix: &str) -> Vec<(PredId, Box<[TermId]>)> {
    let nodes: Vec<TermId> = (0..=300)
        .map(|i| store.constant(&format!("{prefix}{i}")))
        .collect();
    nodes
        .windows(2)
        .map(|w| (edge, vec![w[0], w[1]].into_boxed_slice()))
        .collect()
}

/// One session over [`TC`] with `first` options for the first chain and
/// `second` for the second. Returns both resumes' stats and telemetry
/// snapshots, and the sorted rendered model.
fn two_chains(
    first: EvalOptions,
    second: EvalOptions,
) -> ([(EvalStats, MetricsSnapshot); 2], Vec<String>) {
    let mut store = TermStore::new();
    let prog = parse_program(TC, &mut store).unwrap();
    let edge = prog.rules[0].body[0].pred;
    let mut session = EvalSession::new(prog, EvalBudget::default());
    let mut resume = |options: EvalOptions, prefix: &str| {
        let facts = chain(&mut store, edge, prefix);
        let collector = Collector::enabled();
        session.set_options(options);
        session.set_collector(collector.clone());
        let stats = session.resume(&mut store, facts).unwrap();
        (stats, collector.snapshot())
    };
    let runs = [resume(first, "a"), resume(second, "b")];
    let db = session.database();
    let mut rows: Vec<String> = db
        .iter()
        .flat_map(|(pred, rel)| {
            let name = store.sym_str(pred.name);
            let store = &store;
            rel.rows().iter().map(move |row| {
                let args: Vec<String> = row.iter().map(|&t| store.display(t)).collect();
                format!("{name}({})", args.join(","))
            })
        })
        .collect();
    rows.sort();
    (runs, rows)
}

#[test]
fn cache_hit_compiles_nothing_spawns_nothing_and_changes_nothing() {
    let opts = EvalOptions::with_threads(4);
    let ([(cold, cold_snap), (warm, warm_snap)], warm_db) = two_chains(opts, opts);
    assert!(cold.plans_compiled > 0, "cold resume must compile");
    assert!(
        cold_snap.counter("eval.parallel.rounds") > 0,
        "workload is supposed to engage the pool"
    );
    assert_eq!(
        cold_snap.counter("eval.parallel.threads_spawned"),
        4,
        "first fan-out spawns the pool, once"
    );
    assert_eq!(
        warm.plans_compiled, 0,
        "warm resume must be a pure cache hit"
    );
    assert!(warm_snap.counter("eval.parallel.rounds") > 0);
    assert_eq!(
        warm_snap.counter("eval.parallel.threads_spawned"),
        0,
        "zero thread spawns after warm-up"
    );

    // The hit is invisible: the same two resumes with the cache off give
    // the identical model and identical engine counters (per-rule wall
    // clocks are the one nondeterministic field).
    let no_cache = EvalOptions {
        plan_cache: false,
        ..opts
    };
    let ([_, (recompiled, _)], control_db) = two_chains(no_cache, no_cache);
    assert!(recompiled.plans_compiled > 0);
    assert_eq!(warm_db, control_db);
    let mut recompiled_no_compile = recompiled;
    recompiled_no_compile.plans_compiled = 0;
    assert_eq!(
        recompiled_no_compile.with_walls_zeroed(),
        warm.with_walls_zeroed()
    );
}

#[test]
fn join_order_change_invalidates_the_cache() {
    let planned = EvalOptions::with_threads(1);
    let leftmost = EvalOptions {
        order: JoinOrder::Leftmost,
        ..planned
    };
    let ([(p, _), (l, _)], switched_db) = two_chains(planned, leftmost);
    assert!(p.plans_compiled > 0);
    assert!(
        l.plans_compiled > 0,
        "a plan-shaping option change must recompile"
    );
    // Different plans, same model (the reorder is invisible).
    let (_, planned_db) = two_chains(planned, planned);
    assert_eq!(switched_db, planned_db);
}

#[test]
fn disabling_the_cache_recompiles_every_run() {
    let opts = EvalOptions {
        plan_cache: false,
        ..EvalOptions::with_threads(1)
    };
    let ([(a, _), (b, _)], off_db) = two_chains(opts, opts);
    assert!(a.plans_compiled > 0);
    assert_eq!(
        a.plans_compiled, b.plans_compiled,
        "with the cache off every resume recompiles the same plans"
    );
    let on = EvalOptions::with_threads(1);
    let (_, on_db) = two_chains(on, on);
    assert_eq!(off_db, on_db);
}
