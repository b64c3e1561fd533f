//! The untraced run: end-to-end metrics from a plain `Cluster`.

use crate::outcome::{Fingerprint, Outcome, Parts};
use crate::workload::{Setup, Workload, PARTS, TXNS};
use crate::{median, ratio, Metric, Report};
use dvp_obs::{EventKind, Obs};
use std::time::{Duration, Instant};

/// One plain run, checked.
pub(crate) struct PlainRun {
    /// Wall time to generate the workload from the seed, s.
    pub(crate) generate_s: f64,
    /// Wall time to build the cluster, s.
    pub(crate) build_s: f64,
    /// Wall time from the built cluster to quiescence, s.
    pub(crate) run_s: f64,
    /// The run's counters.
    pub(crate) outcome: Outcome,
}

/// Generate `workload` from `seed`, build it, run it to quiescence, check
/// it.
pub(crate) fn plain_run(workload: Workload, seed: u64, txns: usize) -> Result<PlainRun, String> {
    let t0 = Instant::now();
    let setup = workload.generate(seed, txns);
    let t1 = Instant::now();
    let mut cluster = setup.cluster(Obs::disabled());
    let t2 = Instant::now();
    cluster.run_to_quiescence();
    let t3 = Instant::now();
    let outcome = Outcome::check(
        cluster.sim.nodes(),
        &cluster.catalog,
        cluster.sim.stats(),
        setup.scripted(),
    )?;
    Ok(PlainRun {
        generate_s: (t1 - t0).as_secs_f64(),
        build_s: (t2 - t1).as_secs_f64(),
        run_s: (t3 - t2).as_secs_f64(),
        outcome,
    })
}

/// Virtual-time latency of one committed transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CommitLatency {
    /// Scheduled arrival → commit decision, µs.
    us: u64,
    /// Whether the transaction solicited remote value.
    solicited: bool,
}

/// Exact virtual-time latency of every committed transaction, from its
/// scheduled arrival to its commit decision, read from the engine's
/// `TxnCommit` events. A site starts a transaction at the instant its
/// arrival is delivered, so the engine's start→commit latency is the
/// arrival→commit latency. The run must reproduce `expect`.
fn commit_latencies(setup: &Setup, expect: &Fingerprint) -> Result<Vec<CommitLatency>, String> {
    let obs = Obs::enabled();
    let mut cluster = setup.cluster(obs.clone());
    cluster.run_to_quiescence();
    let outcome = Outcome::check(
        cluster.sim.nodes(),
        &cluster.catalog,
        cluster.sim.stats(),
        setup.scripted(),
    )?;
    if &outcome.fingerprint != expect {
        return Err("the latency pass diverged from the timed runs".into());
    }
    let lat: Vec<CommitLatency> = obs
        .take()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::TxnCommit {
                latency_us,
                fast_path,
                ..
            } => Some(CommitLatency {
                us: latency_us,
                solicited: !fast_path,
            }),
            _ => None,
        })
        .collect();
    if lat.len() as u64 != outcome.committed {
        return Err(format!(
            "{} commit events for {} commits",
            lat.len(),
            outcome.committed
        ));
    }
    Ok(lat)
}

/// Nearest-rank percentile of sorted `xs`; 0 when empty.
fn percentile(xs: &[u64], p: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One plain run of every part of `workload` from `seed`.
pub fn parts(workload: Workload, seed: u64, txns: usize) -> Result<Parts, String> {
    (0..PARTS)
        .map(|part| Ok(plain_run(workload, Parts::seed(seed, part), txns)?.outcome))
        .collect::<Result<_, String>>()
        .map(Parts)
}

/// Plain runs of every part of a workload, repeated for a time budget.
struct Repeated {
    /// Checked runs, in the order made.
    runs: Vec<PlainRun>,
    /// The first run of each part; empty unless every part passed.
    parts: Parts,
    /// Scripted transactions across every run made.
    attempted: u64,
    /// Scripted transactions of runs that failed a check.
    failed: u64,
    /// Why they failed.
    errors: Vec<String>,
}

/// Run every part of `workload` from `seed` in turn, round after round,
/// until `budget` has passed and every part has run. A repeat of a part
/// must reproduce that part's first run exactly.
fn repeat(workload: Workload, seed: u64, budget: Duration) -> Repeated {
    let start = Instant::now();
    let mut r = Repeated {
        runs: Vec::new(),
        parts: Parts::default(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut firsts: Vec<Option<Outcome>> = vec![None; PARTS];
    for i in 0.. {
        let part = i % PARTS;
        r.attempted += TXNS as u64;
        match plain_run(workload, Parts::seed(seed, part), TXNS) {
            Ok(run) => match &firsts[part] {
                None => {
                    firsts[part] = Some(run.outcome.clone());
                    r.runs.push(run);
                }
                Some(first) if first.fingerprint == run.outcome.fingerprint => r.runs.push(run),
                Some(_) => {
                    r.failed += TXNS as u64;
                    r.errors
                        .push(format!("part {part}: a repeat diverged from its first run"));
                }
            },
            Err(e) => {
                r.failed += TXNS as u64;
                r.errors.push(format!("part {part}: {e}"));
            }
        }
        if i + 1 >= PARTS && start.elapsed() >= budget {
            break;
        }
    }
    if firsts.iter().all(Option::is_some) {
        r.parts = Parts(firsts.into_iter().flatten().collect());
    }
    r
}

/// Run `workload` from `seed` for `budget` and report every end-to-end
/// metric. Throughput is the first decile of the runs' rates, set-up time
/// the median run's, and the rest come from [`count_metrics`].
pub fn measure(workload: Workload, seed: u64, budget: Duration) -> Report {
    let mut r = repeat(workload, seed, budget);
    let rss = peak_rss_mib();
    if !r.errors.is_empty() {
        return Report::failure(r.attempted, r.failed, &r.errors);
    }
    let counts = match count_metrics(workload, seed, TXNS, &r.parts) {
        Ok(m) => m,
        Err(e) => {
            r.errors.push(e);
            return Report::failure(r.attempted, r.failed + TXNS as u64, &r.errors);
        }
    };
    eprintln!(
        "{}: seed {seed}, {} runs over {PARTS} parts of {TXNS} scripted txns",
        workload.name(),
        r.runs.len(),
    );
    // The rate nine runs in ten reach or beat, not a median or a pooled
    // rate: the host switches between a slow and a fast state every few
    // seconds, in shares that drift over minutes, and the slow state's
    // floor is the steadiest reading of the engine's speed.
    let mut rates: Vec<f64> = r
        .runs
        .iter()
        .map(|run| run.outcome.scripted as f64 / run.run_s)
        .collect();
    rates.sort_by(f64::total_cmp);
    let txn_per_s = rates[(rates.len() - 1) / 10];
    let setup_s: Vec<f64> = r
        .runs
        .iter()
        .map(|run| run.generate_s + run.build_s)
        .collect();
    let mut metrics = vec![
        Metric::new("txn_per_s", txn_per_s, "txn/s"),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("peak_rss_mib", rss, "MiB"),
    ];
    metrics.extend(counts);
    Report {
        correct: true,
        attempted: r.attempted,
        failed: r.failed,
        metrics,
    }
}

/// The end-to-end metrics that are counts of the program's own: virtual
/// latencies, abort ratio and per-transaction costs, pooled over every
/// part. `parts` holds each part's plain run; each part is run once more
/// with the engine's event stream on to read its commit latencies, and
/// must reproduce its plain run exactly.
pub fn count_metrics(
    workload: Workload,
    seed: u64,
    txns: usize,
    parts: &Parts,
) -> Result<Vec<Metric>, String> {
    let mut lat = Vec::new();
    for (part, o) in parts.0.iter().enumerate() {
        let setup = workload.generate(Parts::seed(seed, part), txns);
        lat.extend(
            commit_latencies(&setup, &o.fingerprint).map_err(|e| format!("part {part}: {e}"))?,
        );
    }
    let all = sorted(lat.iter().map(|l| l.us));
    let solicited = sorted(lat.iter().filter(|l| l.solicited).map(|l| l.us));
    eprintln!(
        "{}: latency samples: {} commits, {} of them solicited",
        workload.name(),
        all.len(),
        solicited.len()
    );
    let p = parts;
    let scripted = p.sum(|o| o.scripted) as f64;
    let undecided = p.sum(|o| o.scripted - o.committed - o.aborted());
    let per_txn = |count: u64| ratio(count as f64, scripted);
    let vus = |name: &str, v: u64| Metric::new(name, v as f64, "virtual_us");
    Ok(vec![
        vus("solicited_p50_us", percentile(&solicited, 50.0)),
        vus("commit_p99_us", percentile(&all, 99.0)),
        vus("commit_p999_us", percentile(&all, 99.9)),
        Metric::new(
            "abort_ratio",
            per_txn(p.sum(Outcome::aborted) + undecided),
            "ratio",
        ),
        Metric::new("sends_per_txn", per_txn(p.sum(|o| o.net.sent)), "count"),
        Metric::new(
            "wire_bytes_per_txn",
            per_txn(p.sum(|o| o.net.wire_bytes)),
            "bytes",
        ),
        Metric::new("forces_per_txn", per_txn(p.sum(|o| o.log.forces)), "count"),
    ])
}

fn sorted(xs: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = xs.collect();
    v.sort_unstable();
    v
}
