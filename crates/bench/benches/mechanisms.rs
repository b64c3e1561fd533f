//! Mechanism micro-benchmarks: the unit costs every experiment's numbers
//! decompose into (log forces, Vm round trips, Π folds, lock ops,
//! timestamp checks, partition lookups, codec throughput).

use bytes::{Bytes, BytesMut};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dvp_core::clock::{LamportClock, Ts};
use dvp_core::domain::{Domain, Multiset, SumQty};
use dvp_core::item::ItemId;
use dvp_core::locks::{Holder, LockTable};
use dvp_core::record::{DbActions, SiteRecord};
use dvp_core::transfer::{Transfer, TransferKind};
use dvp_simnet::partition::PartitionSchedule;
use dvp_simnet::rng::SimRng;
use dvp_simnet::time::SimTime;
use dvp_storage::codec::{crc32, decode_frame, encode_frame};
use dvp_storage::StableLog;
use dvp_vmsg::{Receipt, VmConfig, VmEndpoint};
use dvp_workloads::Zipf;

fn bench_log(c: &mut Criterion) {
    let mut g = c.benchmark_group("log");
    g.bench_function("append", |b| {
        b.iter_batched(
            StableLog::<SiteRecord>::new,
            |mut log| {
                for i in 0..100u64 {
                    log.append(SiteRecord::Applied { txn: Ts(i) });
                }
                log
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("append_force", |b| {
        b.iter_batched(
            StableLog::<SiteRecord>::new,
            |mut log| {
                for i in 0..100u64 {
                    log.append_force(SiteRecord::Applied { txn: Ts(i) });
                }
                log
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("recover_1k", |b| {
        let mut log = StableLog::<SiteRecord>::new();
        for i in 0..1_000u64 {
            log.append(SiteRecord::Commit {
                txn: Ts(i),
                actions: DbActions::from_slice(&[(ItemId(0), -1), (ItemId(1), 1)]),
            });
        }
        log.force();
        b.iter(|| log.recover().unwrap())
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    let transfer = Transfer {
        item: ItemId(3),
        amount: 17,
        for_txn: Ts(0xABCD),
        donor: 2,
        kind: TransferKind::Refill,
    };
    g.bench_function("transfer_encode", |b| b.iter(|| transfer.to_bytes()));
    let bytes = transfer.to_bytes();
    g.bench_function("transfer_decode", |b| {
        b.iter(|| Transfer::from_bytes(&bytes).unwrap())
    });
    let rec = SiteRecord::Rds {
        txn: Ts(9),
        actions: DbActions::from_slice(&[(ItemId(0), -5)]),
        vm_ops: vec![dvp_vmsg::VmLogOp::Created {
            to: 1,
            seq: 7,
            payload: bytes.clone(),
        }],
    };
    g.bench_function("record_frame_roundtrip", |b| {
        b.iter(|| {
            let mut buf = BytesMut::new();
            encode_frame(&rec, &mut buf);
            let mut raw = buf.freeze();
            decode_frame::<SiteRecord>(&mut raw).unwrap()
        })
    });
    let blob = vec![0xA5u8; 4096];
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("crc32_4k", |b| b.iter(|| crc32(&blob)));
    g.finish();
}

fn bench_vm(c: &mut Criterion) {
    let mut g = c.benchmark_group("vm");
    g.bench_function("create_deliver_accept_ack", |b| {
        b.iter_batched(
            || {
                (
                    VmEndpoint::new(0, VmConfig::default()),
                    VmEndpoint::new(1, VmConfig::default()),
                )
            },
            |(mut s, mut r)| {
                let _op = s.create(1, Bytes::from_static(b"payload"));
                for (_, f) in s.drain_outbox() {
                    if let Receipt::Fresh { seq, .. } = r.on_frame(0, f) {
                        r.commit_accept(0, seq);
                    }
                }
                r.flush_owed_ack(0);
                for (_, f) in r.drain_outbox() {
                    s.on_frame(1, f);
                }
                (s, r)
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("tick_32_outstanding", |b| {
        let mut s = VmEndpoint::new(
            0,
            VmConfig {
                window: 64,
                eager_acks: true,
            },
        );
        for _ in 0..32 {
            let _ = s.create(1, Bytes::from_static(b"x"));
        }
        s.drain_outbox();
        // Lift the fresh frames' one-tick retransmit grace, so every
        // timed tick retransmits all 32.
        s.tick();
        b.iter(|| {
            s.tick();
            s.drain_outbox()
        })
    });
    g.finish();
}

fn bench_domain(c: &mut Criterion) {
    let mut g = c.benchmark_group("domain");
    for n in [1_000usize, 100_000] {
        let m = Multiset::<SumQty>::from_elems((0..n as u64).collect());
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("pi_fold_{n}"), |b| b.iter(|| m.pi()));
    }
    g.bench_function("combine", |b| b.iter(|| SumQty::combine(&123, &456)));
    g.finish();
}

fn bench_locks_and_clock(c: &mut Criterion) {
    let mut g = c.benchmark_group("locks");
    g.bench_function("lock_unlock_cycle", |b| {
        let mut lt = LockTable::new();
        b.iter(|| {
            lt.try_lock(ItemId(0), Holder::Txn(Ts(1))).unwrap();
            lt.unlock(ItemId(0), Ts(1));
        })
    });
    g.bench_function("release_all_8", |b| {
        b.iter_batched(
            || {
                let mut lt = LockTable::new();
                for i in 0..8 {
                    lt.try_lock(ItemId(i), Holder::Txn(Ts(1))).unwrap();
                }
                lt
            },
            |mut lt| lt.release_all(Ts(1)),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("clock_tick_at", |b| {
        let mut clk = LamportClock::new(3);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            clk.tick_at(t)
        })
    });
    g.finish();
}

fn bench_partition_and_zipf(c: &mut Criterion) {
    let mut g = c.benchmark_group("lookup");
    let mut sched = PartitionSchedule::fully_connected(16);
    for k in 0..10u64 {
        sched = sched
            .isolate_at(SimTime(k * 2_000 + 1_000), &[(k % 16) as usize])
            .heal_at(SimTime(k * 2_000 + 2_000));
    }
    g.bench_function("partition_connected", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t = (t + 137) % 25_000;
            sched.connected(1, 9, SimTime(t))
        })
    });
    let z = Zipf::new(1_000, 1.1);
    let mut rng = SimRng::new(7);
    g.bench_function("zipf_sample_1k", |b| b.iter(|| z.sample(&mut rng)));
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(1)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_log, bench_codec, bench_vm, bench_domain, bench_locks_and_clock, bench_partition_and_zipf
);
criterion_main!(benches);
