//! Engine hot-path benchmarks: closed-loop DvP and 2PC transaction
//! processing over the banking workload. Complements `engine_baseline` (whole-run txns/sec, JSON
//! artifact) with criterion's statistical machinery.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dvp_bench::Scenario;
use dvp_workloads::{BankingWorkload, Workload};

const TXNS: usize = 500;

fn banking() -> Workload {
    BankingWorkload {
        n_sites: 8,
        accounts: 16,
        txns: TXNS,
        ..Default::default()
    }
    .generate(42)
}

/// Full DvP engine run to quiescence.
fn bench_dvp(c: &mut Criterion) {
    let w = banking();
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(TXNS as u64));
    g.bench_function("dvp_banking_closed_loop", |b| {
        b.iter_batched(
            || Scenario::dvp(&w).build_dvp(),
            |mut cl| {
                cl.run_to_quiescence();
                cl
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// The 2PC baseline on the same workload.
fn bench_trad(c: &mut Criterion) {
    let w = banking();
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(TXNS as u64));
    g.bench_function("trad2pc_banking_closed_loop", |b| {
        b.iter_batched(
            || Scenario::trad(&w).build_trad(),
            |mut cl| {
                cl.sim.run_to_quiescence();
                cl
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_dvp, bench_trad);
criterion_main!(benches);
