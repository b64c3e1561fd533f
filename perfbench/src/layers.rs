//! The traced run: per-layer metrics.
//!
//! Plain and traced runs of each part alternate, so the tracing overhead
//! is measured on the same machine window; every traced run must give the
//! same fingerprint as the plain run before it. Afterwards one part is
//! run again with datagram capture, and its own datagrams and stable
//! records are replayed through the codec and a fresh log.

use crate::e2e::plain_run;
use crate::outcome::{Outcome, Parts};
use crate::replay;
use crate::trace::{timer_cost_ns, traced_run, write_spans, Handler, Ledger, Span};
use crate::workload::{Workload, PARTS, TXNS};
use crate::{median, ratio, Metric, Report};
use dvp_core::AbortReason;
use dvp_obs::PhaseHists;
use dvp_simnet::NodeId;
use std::path::Path;
use std::time::{Duration, Instant};

/// Run `workload` from `seed` traced for about `budget` and report every
/// per-layer metric except the allocation counts, which come from the
/// counting-allocator binary ([`allocations`]). Writes the last traced
/// run's spans to `spans_out`, if given, as CSV.
pub fn measure(
    workload: Workload,
    seed: u64,
    budget: Duration,
    spans_out: Option<&Path>,
) -> Report {
    let timer_ns = timer_cost_ns();
    let start = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let mut firsts: Vec<Option<Outcome>> = vec![None; PARTS];
    // Calls come from each part's first traced run, so they are counts of
    // the program's own; times accumulate over every traced run.
    let (mut first, mut ledger) = (Ledger::default(), Ledger::default());
    let (mut traced_ns, mut traced_scripted, mut traced_events) = (0u64, 0u64, 0u64);
    let (mut overhead, mut generate_s, mut build_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_spans: Vec<(NodeId, Span)> = Vec::new();
    // Most of the budget goes to paired runs; the capture pass and the
    // replays take the rest.
    for i in 0.. {
        let part = i % PARTS;
        let part_seed = Parts::seed(seed, part);
        attempted += 2 * TXNS as u64;
        let paired = plain_run(workload, part_seed, TXNS).and_then(|plain| {
            let setup = workload.generate(part_seed, TXNS);
            let traced = traced_run(&setup, false)?;
            if traced.outcome.fingerprint != plain.outcome.fingerprint {
                return Err("the traced run diverged from the plain run".into());
            }
            Ok((plain, traced))
        });
        match paired {
            Ok((plain, traced)) => {
                if firsts[part].is_none() {
                    first.merge(&traced.ledger);
                    firsts[part] = Some(plain.outcome.clone());
                }
                ledger.merge(&traced.ledger);
                traced_ns += traced.wall_ns;
                traced_scripted += traced.outcome.scripted;
                traced_events += traced.outcome.net.events_processed;
                overhead.push(traced.wall_ns as f64 / 1e9 / plain.run_s);
                generate_s.push(plain.generate_s);
                build_s.push(plain.build_s);
                last_spans = traced.spans;
            }
            Err(e) => {
                failed += 2 * TXNS as u64;
                errors.push(format!("part {part}: {e}"));
            }
        }
        if i + 1 >= PARTS && start.elapsed() >= budget.mul_f64(0.7) {
            break;
        }
    }
    if !errors.is_empty() || firsts.iter().any(Option::is_none) {
        return Report::failure(attempted, failed, &errors);
    }
    let parts = Parts(firsts.into_iter().flatten().collect());

    // Replay part 0's own datagrams and stable records.
    attempted += TXNS as u64;
    let setup = workload.generate(Parts::seed(seed, 0), TXNS);
    let replays = traced_run(&setup, true).and_then(|cap| {
        if cap.outcome.fingerprint != parts.0[0].fingerprint {
            return Err("the capture run diverged from the plain run".into());
        }
        let log = cap.outcome.log;
        let per_force = ratio(log.records_forced as f64, log.forces as f64);
        let mut codec = Vec::new();
        let mut storage = Vec::new();
        for _ in 0..5 {
            codec.push(replay::codec(&cap.datagrams)?);
        }
        for _ in 0..3 {
            storage.push(replay::storage(&cap.sites, per_force)?);
        }
        Ok((codec, storage))
    });
    let (codec, storage) = match replays {
        Ok(r) => r,
        Err(e) => {
            errors.push(format!("part 0: {e}"));
            return Report::failure(attempted, failed + TXNS as u64, &errors);
        }
    };
    if let Some(path) = spans_out {
        if let Err(e) = write_spans(path, &last_spans) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
    }

    let p = &parts;
    let scripted = p.sum(|o| o.scripted) as f64;
    let per_txn = |count: u64| ratio(count as f64, scripted);
    let handler_ns: Vec<f64> = (0..Handler::COUNT)
        .map(|h| ledger.span_ns[h] as f64 - timer_ns * ledger.calls[h] as f64)
        .collect();
    let core_ns: f64 = handler_ns.iter().sum();
    let simnet_ns =
        traced_ns as f64 - ledger.total_span_ns() as f64 - timer_ns * ledger.total_calls() as f64;
    let mut phases = PhaseHists::new();
    for o in &p.0 {
        phases.merge(&o.phases);
    }
    let frames = p.sum(|o| o.vm.data_frames_sent + o.vm.ack_frames_sent);

    let mut m = vec![
        Metric::new(
            "simnet.self_ns_per_txn",
            ratio(simnet_ns, traced_scripted as f64),
            "ns",
        ),
        Metric::new(
            "simnet.events_per_txn",
            per_txn(p.sum(|o| o.net.events_processed)),
            "count",
        ),
        Metric::new(
            "simnet.ns_per_event",
            ratio(simnet_ns, traced_events as f64),
            "ns",
        ),
        Metric::new(
            "simnet.timers_fired_per_txn",
            per_txn(p.sum(|o| o.net.timers_fired)),
            "count",
        ),
        Metric::new(
            "simnet.timers_suppressed_per_txn",
            per_txn(p.sum(|o| o.net.timers_suppressed)),
            "count",
        ),
        Metric::new(
            "simnet.peak_queue_depth",
            p.0.iter()
                .map(|o| o.net.peak_queue_depth)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        Metric::new(
            "simnet.lost_per_txn",
            per_txn(p.sum(|o| o.net.lost)),
            "count",
        ),
        Metric::new(
            "simnet.duplicated_per_txn",
            per_txn(p.sum(|o| o.net.duplicated)),
            "count",
        ),
        Metric::new(
            "simnet.partitioned_per_txn",
            per_txn(p.sum(|o| o.net.partitioned)),
            "count",
        ),
    ];
    for h in Handler::REPORTED {
        let i = h as usize;
        let name = h.name();
        m.push(Metric::new(
            format!("core.{name}.calls"),
            first.calls[i] as f64,
            "count",
        ));
        m.push(Metric::new(
            format!("core.{name}.ns_per_call"),
            ratio(handler_ns[i], ledger.calls[i] as f64),
            "ns",
        ));
    }
    m.extend([
        Metric::new(
            "core.self_ns_per_txn",
            ratio(core_ns, traced_scripted as f64),
            "ns",
        ),
        Metric::new(
            "core.fast_path_rate",
            ratio(p.sum(|o| o.fast_path) as f64, p.sum(|o| o.committed) as f64),
            "ratio",
        ),
        Metric::new(
            "core.donations_per_solicit",
            ratio(
                p.sum(|o| o.donations) as f64,
                p.sum(|o| o.requests_sent) as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "core.solicits_per_txn",
            per_txn(p.sum(|o| o.requests_sent)),
            "count",
        ),
    ]);
    for (i, reason) in AbortReason::ALL.into_iter().enumerate() {
        m.push(Metric::new(
            format!("core.abort.{}_per_txn", reason.tag()),
            per_txn(p.sum(|o| o.aborted_by[i])),
            "count",
        ));
    }
    for phase in ["fast_path", "solicit", "gather", "abort"] {
        let hist = phases.get(phase);
        for (q, pct) in [("p50", 50.0), ("p99", 99.0)] {
            m.push(Metric::new(
                format!("core.phase.{phase}_{q}_us"),
                hist.map_or(0, |h| h.percentile(pct)) as f64,
                "virtual_us",
            ));
        }
    }
    let hinted = p.sum(|o| o.hinted_solicits);
    m.extend([
        Metric::new(
            "placement.hints_sent_per_txn",
            per_txn(p.sum(|o| o.vm.hints_sent)),
            "count",
        ),
        Metric::new(
            "placement.hinted_solicits_per_txn",
            per_txn(hinted),
            "count",
        ),
        Metric::new(
            "placement.hint_hit_rate",
            ratio(p.sum(|o| o.hint_hits) as f64, hinted as f64),
            "ratio",
        ),
        Metric::new(
            "placement.rebalances_per_txn",
            per_txn(p.sum(|o| o.rebalances)),
            "count",
        ),
        Metric::new("vmsg.frames_per_txn", per_txn(frames), "count"),
        Metric::new(
            "vmsg.datagrams_per_txn",
            per_txn(p.sum(|o| o.vm.datagrams_sent)),
            "count",
        ),
        Metric::new(
            "vmsg.frames_per_datagram",
            ratio(frames as f64, p.sum(|o| o.vm.datagrams_sent) as f64),
            "ratio",
        ),
        Metric::new(
            "vmsg.ack_frames_per_txn",
            per_txn(p.sum(|o| o.vm.ack_frames_sent)),
            "count",
        ),
        Metric::new(
            "vmsg.hint_bytes_per_txn",
            per_txn(p.sum(|o| o.vm.hint_bytes_sent)),
            "bytes",
        ),
        Metric::new(
            "vmsg.retransmissions_per_txn",
            per_txn(p.sum(|o| o.vm.retransmissions)),
            "count",
        ),
        Metric::new(
            "vmsg.retransmit_ratio",
            ratio(
                p.sum(|o| o.vm.retransmissions) as f64,
                p.sum(|o| o.vm.data_frames_sent) as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "vmsg.duplicates_discarded_per_txn",
            per_txn(p.sum(|o| o.vm.duplicates_discarded)),
            "count",
        ),
        Metric::new(
            "vmsg.codec.decode_ns",
            median(&codec.iter().map(|c| c.decode_ns).collect::<Vec<_>>()),
            "ns",
        ),
        Metric::new(
            "vmsg.codec.encode_ns",
            median(&codec.iter().map(|c| c.encode_ns).collect::<Vec<_>>()),
            "ns",
        ),
        Metric::new(
            "storage.appends_per_txn",
            per_txn(p.sum(|o| o.log.appends)),
            "count",
        ),
        Metric::new(
            "storage.records_per_force",
            ratio(
                p.sum(|o| o.log.records_forced) as f64,
                p.sum(|o| o.log.forces) as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "storage.bytes_per_txn",
            per_txn(p.sum(|o| o.log.stable_bytes)),
            "bytes",
        ),
        Metric::new(
            "storage.forces_elided_per_txn",
            per_txn(p.sum(|o| o.log.forces_elided)),
            "count",
        ),
        Metric::new(
            "storage.append_ns",
            median(&storage.iter().map(|s| s.append_ns).collect::<Vec<_>>()),
            "ns",
        ),
        Metric::new(
            "storage.force_ns",
            median(&storage.iter().map(|s| s.force_ns).collect::<Vec<_>>()),
            "ns",
        ),
        Metric::new(
            "storage.recover_ns_per_record",
            median(
                &storage
                    .iter()
                    .map(|s| s.recover_ns_per_record)
                    .collect::<Vec<_>>(),
            ),
            "ns",
        ),
        Metric::new("setup.generate_s", median(&generate_s), "s"),
        Metric::new("setup.build_s", median(&build_s), "s"),
        Metric::new("trace.overhead_ratio", median(&overhead), "ratio"),
    ]);
    Report {
        correct: true,
        attempted,
        failed,
        metrics: m,
    }
}

/// Allocation counts, taken in a binary whose global allocator is
/// [`CountingAlloc`](crate::trace::CountingAlloc): allocation events per
/// scripted transaction over plain runs of every part, and per call of
/// each handler over traced runs of every part.
pub fn allocations(workload: Workload, seed: u64) -> Report {
    let (mut allocs, mut scripted) = (0u64, 0u64);
    let mut ledger = Ledger::default();
    let mut errors = Vec::new();
    for part in 0..PARTS {
        let setup = workload.generate(Parts::seed(seed, part), TXNS);
        let mut cluster = setup.cluster(dvp_obs::Obs::disabled());
        let before = crate::trace::allocs();
        cluster.run_to_quiescence();
        allocs += crate::trace::allocs() - before;
        scripted += setup.scripted();
        let plain = Outcome::check(
            cluster.sim.nodes(),
            &cluster.catalog,
            cluster.sim.stats(),
            setup.scripted(),
        );
        match (plain, traced_run(&setup, false)) {
            (Ok(a), Ok(b)) if a.fingerprint == b.outcome.fingerprint => {
                ledger.merge(&b.ledger);
            }
            (Err(e), _) | (_, Err(e)) => errors.push(format!("part {part}: {e}")),
            _ => errors.push(format!("part {part}: the traced run diverged")),
        }
    }
    let attempted = 2 * scripted;
    if !errors.is_empty() {
        return Report::failure(attempted, attempted, &errors);
    }
    let mut metrics = vec![Metric::new(
        "alloc.per_txn",
        ratio(allocs as f64, scripted as f64),
        "count",
    )];
    for h in Handler::REPORTED {
        let i = h as usize;
        metrics.push(Metric::new(
            format!("core.{}.allocs_per_call", h.name()),
            ratio(ledger.allocs[i] as f64, ledger.calls[i] as f64),
            "count",
        ));
    }
    Report {
        correct: true,
        attempted,
        failed: 0,
        metrics,
    }
}
