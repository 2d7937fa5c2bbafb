//! E14 — the parallel fixpoint: wall time of materializing the telecom
//! unfolding at 1, 2 and 4 engine worker threads (the Criterion companion
//! to the report's determinism table). The output is byte-identical at
//! every thread count, so the curves measure the sharded scan alone; on a
//! single-core runner they collapse to ≈1x.

use criterion::{criterion_group, criterion_main, Criterion};
use rescue::datalog::{seminaive_with, Database, EvalBudget, EvalOptions, TermStore};
use rescue::diagnosis::{unfolding_program, EncodeOptions};
use rescue_bench::experiments::large_telecom_net;

fn bench(c: &mut Criterion) {
    let net = large_telecom_net(8, 4, 1, 5);
    let budget = EvalBudget {
        max_term_depth: Some(10),
        ..Default::default()
    };

    let mut g = c.benchmark_group("e14_parallel");
    g.sample_size(10);
    for threads in [1usize, 2, 4] {
        g.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                let mut store = TermStore::new();
                let prog = unfolding_program(&net, &mut store, &EncodeOptions::default());
                let mut db = Database::new();
                seminaive_with(
                    &prog,
                    &mut store,
                    &mut db,
                    &budget,
                    &EvalOptions::with_threads(threads),
                    &rescue::Collector::disabled(),
                )
                .unwrap();
                db.total_facts()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
