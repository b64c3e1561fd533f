//! Engine throughput baseline: closed-loop DvP and 2PC runs over the
//! banking, airline, and hotspot-drift workloads, written to
//! `BENCH_engine.json` (path overridable as `argv[1]`).
//!
//! Where `kernel_baseline` measures the simulation kernel, this measures
//! the *transaction engines* end to end: every scripted transaction is
//! generated up front and the cluster runs until the workload drains
//! (quiescence, with a generous deadline backstop for the baseline's
//! retry loops). Each scenario reports:
//!
//! * `txns_per_sec` — decided transactions per wall-clock second, the
//!   engine-path throughput number to compare across changes. Each
//!   scenario is timed over `DVP_TIME_REPS` repeats (default 3) and the
//!   fastest counts: the simulation is deterministic, so repeats differ
//!   only by scheduler/cache noise and the minimum is the robust
//!   estimator;
//! * `forces_per_txn` — stable-log force operations per decided
//!   transaction. Group commit (the default) coalesces every force a
//!   dispatch owes into one, so this is the headline number the
//!   optimisation moves; `forces_elided` and `max_force_batch` show how.
//! * `frames_per_txn` — logical protocol frames per decided transaction
//!   (the paper's message-traffic metric, §9). Under link-level
//!   coalescing many frames share one wire transmission, so
//!   `datagrams_per_txn` (kernel transmissions, on both engines) and
//!   `wire_bytes_per_txn` report what actually hits the network. Wire bytes are accounted at
//!   the simulation kernel on *both* engines — every send (Vm frames
//!   and datagrams, solicitation requests, lease releases, 2PC
//!   messages and batches) declares its encoded length — so the DvP
//!   and `trad2pc_*` figures are directly comparable.
//! * `solicits_per_txn`, `fast_path_rate`, `hint_hit_rate` — the value-
//!   placement columns: how often transactions had to solicit remote
//!   value, how often they committed without leaving their site, and how
//!   often a hint-directed solicitation paid off. The `*_adaptive` rows
//!   run the same workload under `Placement::Adaptive` so the placement
//!   delta is visible side by side.
//!
//! Scale via `DVP_SCALE=quick|full` or `--quick`; compare runs at
//! identical scales only.
//!
//! The `allocs_per_txn` column needs the counting allocator
//! (`--features alloc-audit`), but that allocator taxes wall-clock
//! throughput (~2 atomics per allocation event), so the canonical file
//! is produced in two passes: an audit build writes a scratch JSON, then
//! a default build re-runs for honest timings and merges the measured
//! allocation column with `--allocs-from=<scratch.json>`:
//!
//! ```text
//! DVP_SCALE=full cargo run --release --features alloc-audit \
//!     --bin engine_baseline /tmp/engine_allocs.json
//! DVP_SCALE=full cargo run --release --bin engine_baseline \
//!     BENCH_engine.json --allocs-from=/tmp/engine_allocs.json
//! ```

use dvp_bench::{Scale, Scenario};
use dvp_core::{Placement, SiteConfig};
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_storage::LogStats;
use dvp_workloads::{AirlineWorkload, BankingWorkload, HotspotDriftWorkload, Workload};
use std::fmt::Write as _;
use std::time::Instant;

/// One scenario's harvested numbers.
struct Row {
    name: &'static str,
    decided: u64,
    committed: u64,
    wall_secs: f64,
    forces: u64,
    forces_elided: u64,
    max_force_batch: u64,
    /// Logical protocol frames (a coalesced datagram counts each frame).
    frames: u64,
    /// Wire transmissions handed to the kernel (datagrams count once).
    messages: u64,
    /// Wire datagrams: kernel transmissions on both engines (a coalesced
    /// Vm datagram or 2PC batch counts once).
    datagrams: u64,
    /// Kernel-accounted wire bytes: every send on both engines declares
    /// its encoded length, so the column compares engines honestly.
    wire_bytes: u64,
    /// Standalone-ack bytes avoided by piggybacking (0 for baseline).
    bytes_acked_piggyback: u64,
    /// Solicitation requests sent (0 for the baseline engine).
    solicits: u64,
    /// Commits that never left the initiating site (0 for baseline).
    fast_path: u64,
    /// Hint-directed solicitations and how many paid off (adaptive only).
    hinted_solicits: u64,
    hint_hits: u64,
    /// Hint entries piggybacked on Vm datagrams (adaptive only).
    hints_sent: u64,
    /// Value transfers: solicited donations and spontaneous rebalance
    /// ships (0 for the 2PC baseline, which moves no value).
    donations: u64,
    rebalances: u64,
    /// Allocation events during the run (0 without `alloc-audit`).
    allocs: u64,
}

/// Allocation counter snapshot; 0 when the audit feature is off.
fn alloc_snapshot() -> u64 {
    #[cfg(feature = "alloc-audit")]
    {
        dvp_bench::alloc_audit::alloc_count()
    }
    #[cfg(not(feature = "alloc-audit"))]
    {
        0
    }
}

impl Row {
    fn txns_per_sec(&self) -> f64 {
        self.decided as f64 / self.wall_secs.max(1e-9)
    }
    fn forces_per_txn(&self) -> f64 {
        self.forces as f64 / self.decided.max(1) as f64
    }
    fn frames_per_txn(&self) -> f64 {
        self.frames as f64 / self.decided.max(1) as f64
    }
    fn datagrams_per_txn(&self) -> f64 {
        self.datagrams as f64 / self.decided.max(1) as f64
    }
    fn wire_bytes_per_txn(&self) -> f64 {
        self.wire_bytes as f64 / self.decided.max(1) as f64
    }
    fn solicits_per_txn(&self) -> f64 {
        self.solicits as f64 / self.decided.max(1) as f64
    }
    fn fast_path_rate(&self) -> f64 {
        self.fast_path as f64 / self.committed.max(1) as f64
    }
    fn hint_hit_rate(&self) -> f64 {
        self.hint_hits as f64 / self.hinted_solicits.max(1) as f64
    }
    /// Allocation events per decided transaction; -1 when the binary was
    /// built without `--features alloc-audit` (not measured).
    fn allocs_per_txn(&self) -> f64 {
        if cfg!(feature = "alloc-audit") {
            self.allocs as f64 / self.decided.max(1) as f64
        } else {
            -1.0
        }
    }
}

fn banking(scale: Scale) -> Workload {
    BankingWorkload {
        n_sites: 8,
        accounts: 16,
        txns: match scale {
            Scale::Quick => 2_000,
            Scale::Full => 20_000,
        },
        ..Default::default()
    }
    .generate(42)
}

fn airline(scale: Scale) -> Workload {
    AirlineWorkload {
        n_sites: 8,
        flights: 4,
        seats_per_flight: 100_000,
        txns: match scale {
            Scale::Quick => 2_000,
            Scale::Full => 20_000,
        },
        ..Default::default()
    }
    .generate(42)
}

fn hotspot(scale: Scale) -> Workload {
    let txns = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 20_000,
    };
    HotspotDriftWorkload {
        txns,
        epochs: 4,
        // Supply scales with the run so the spike stays *tight* (the hot
        // site's share is far below one epoch's withdrawals) without the
        // workload ever exhausting the global pool.
        per_item: txns as u64 * 4,
        ..Default::default()
    }
    .generate(42)
}

/// How many timed repeats each scenario gets (one harvest run plus
/// rep-major timing passes); each row reports the *fastest*. The
/// simulation is deterministic — every repeat decides the same
/// transactions and sends the same bytes — so wall-clock spread is pure
/// scheduler/cache noise and the minimum is the robust estimator.
/// Override with `DVP_TIME_REPS=n` (e.g. `1` for a smoke run).
fn time_reps() -> usize {
    std::env::var("DVP_TIME_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3)
}

/// One timed closed-loop DvP run; returns the wall seconds only.
fn time_dvp(name: &'static str, w: &Workload, site: SiteConfig) -> f64 {
    let mut cl = Scenario::dvp(w).name(name).site(site).build_dvp();
    let t = Instant::now();
    cl.run_to_quiescence();
    t.elapsed().as_secs_f64()
}

/// One timed closed-loop 2PC-baseline run; returns the wall seconds only.
fn time_trad(name: &'static str, w: &Workload) -> f64 {
    let mut cl = Scenario::trad(w).name(name).build_trad();
    let t = Instant::now();
    cl.run_until(SimTime::ZERO + SimDuration::secs(3_600));
    t.elapsed().as_secs_f64()
}

/// Run a DvP scenario closed-loop (to quiescence) and harvest the row.
/// Counters come from this first run; the wall clock is refined by the
/// rep-major timing passes in `main`.
fn run_dvp(name: &'static str, w: &Workload, site: SiteConfig) -> Row {
    let mut cl = Scenario::dvp(w).name(name).site(site).build_dvp();
    let allocs_before = alloc_snapshot();
    let t = Instant::now();
    cl.run_to_quiescence();
    let wall_secs = t.elapsed().as_secs_f64();
    let allocs = alloc_snapshot() - allocs_before;
    cl.auditor()
        .check_conservation()
        .expect("conservation must hold in every benchmark run");
    let stats = cl.stats();
    let m = &stats.txn;
    let LogStats {
        forces,
        forces_elided,
        max_force_batch,
        ..
    } = stats.log;
    Row {
        name,
        decided: m.committed() + m.aborted(),
        committed: m.committed(),
        wall_secs,
        forces,
        forces_elided,
        max_force_batch,
        frames: cl.sim.stats().frames_sent,
        messages: cl.sim.stats().sent,
        datagrams: cl.sim.stats().sent,
        // Kernel-level: all DvP protocol sends (not just the Vm layer)
        // declare encoded bytes, making the figure comparable with trad2pc.
        wire_bytes: cl.sim.stats().wire_bytes,
        bytes_acked_piggyback: stats.vm.bytes_acked_piggyback,
        solicits: stats.placement.requests_sent,
        fast_path: m.fast_path_commits(),
        hinted_solicits: stats.placement.hinted_solicits,
        hint_hits: stats.placement.hint_hits,
        hints_sent: stats.placement.hints_sent,
        donations: m.donations(),
        rebalances: stats.placement.rebalances,
        allocs,
    }
}

/// Run the 2PC baseline closed-loop. The baseline can idle in retry
/// timers, so quiescence is backstopped by a generous deadline.
fn run_trad(name: &'static str, w: &Workload) -> Row {
    let mut cl = Scenario::trad(w).name(name).build_trad();
    let deadline = SimTime::ZERO + SimDuration::secs(3_600);
    let allocs_before = alloc_snapshot();
    let t = Instant::now();
    cl.run_until(deadline);
    let wall_secs = t.elapsed().as_secs_f64();
    let allocs = alloc_snapshot() - allocs_before;
    let m = cl.metrics();
    let LogStats {
        forces,
        forces_elided,
        max_force_batch,
        ..
    } = cl.log_stats();
    Row {
        name,
        decided: m.committed() + m.aborted(),
        committed: m.committed(),
        wall_secs,
        forces,
        forces_elided,
        max_force_batch,
        frames: cl.sim.stats().frames_sent,
        messages: cl.sim.stats().sent,
        // The baseline coalesces at the link layer too: each kernel
        // transmission is one wire datagram, and every TradMsg (batched
        // or not) declares its encoded length on send.
        datagrams: cl.sim.stats().sent,
        wire_bytes: cl.sim.stats().wire_bytes,
        bytes_acked_piggyback: 0,
        solicits: 0,
        fast_path: 0,
        hinted_solicits: 0,
        hint_hits: 0,
        hints_sent: 0,
        donations: 0,
        rebalances: 0,
        allocs,
    }
}

/// Pull per-scenario `allocs_per_txn` values out of a previous run's
/// JSON (the scratch file an `alloc-audit` build wrote). The format is
/// our own one-row-per-line output, so a plain string scan suffices.
fn load_alloc_overrides(path: &str) -> Vec<(String, f64)> {
    let contents =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--allocs-from={path}: {e}"));
    let mut out = Vec::new();
    for line in contents.lines() {
        let Some(name) = line
            .split("\"name\": \"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
        else {
            continue;
        };
        let Some(val) = line
            .split("\"allocs_per_txn\": ")
            .nth(1)
            .and_then(|rest| rest.trim_end_matches(['}', ',', ' ']).parse::<f64>().ok())
        else {
            continue;
        };
        out.push((name.to_string(), val));
    }
    assert!(
        !out.is_empty(),
        "--allocs-from={path}: no allocs_per_txn rows found"
    );
    out
}

fn main() {
    let out_path = std::env::args()
        .filter(|a| !a.starts_with("--"))
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let scale = if std::env::args().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::from_env()
    };
    let alloc_overrides: Vec<(String, f64)> = std::env::args()
        .find_map(|a| a.strip_prefix("--allocs-from=").map(load_alloc_overrides))
        .unwrap_or_default();

    let reactive = SiteConfig::default();
    let adaptive = SiteConfig::builder()
        .placement(Placement::adaptive())
        .build();

    let bank = banking(scale);
    let air = airline(scale);
    let hot = hotspot(scale);
    let mut rows = [
        run_dvp("dvp_banking", &bank, reactive),
        run_dvp("dvp_banking_adaptive", &bank, adaptive),
        run_dvp("dvp_airline", &air, reactive),
        run_dvp("dvp_hotspot", &hot, reactive),
        run_dvp("dvp_hotspot_adaptive", &hot, adaptive),
        run_trad("trad2pc_banking", &bank),
        run_trad("trad2pc_airline", &air),
    ];
    // Rep-major timing passes: each pass re-times every scenario once and
    // each row keeps its fastest wall clock. Re-timing A, B, …, A, B, …
    // (rather than A, A, …, then B, B, …) puts paired scenarios in the
    // same machine window on every pass, so the cross-row ratios the CI
    // guard checks (adaptive vs reactive, DvP vs 2PC) are not skewed by
    // frequency or contention drift between windows.
    for _ in 1..time_reps() {
        let times = [
            time_dvp("dvp_banking", &bank, reactive),
            time_dvp("dvp_banking_adaptive", &bank, adaptive),
            time_dvp("dvp_airline", &air, reactive),
            time_dvp("dvp_hotspot", &hot, reactive),
            time_dvp("dvp_hotspot_adaptive", &hot, adaptive),
            time_trad("trad2pc_banking", &bank),
            time_trad("trad2pc_airline", &air),
        ];
        for (row, t) in rows.iter_mut().zip(times) {
            row.wall_secs = row.wall_secs.min(t);
        }
    }

    let mut json = String::from("{\n  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let apt = alloc_overrides
            .iter()
            .find(|(n, _)| n == r.name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| r.allocs_per_txn());
        println!(
            "{:<22} {:>7} decided  {:>8.3} s  {:>10.0} txns/s  {:>6.3} forces/txn  {:>7.3} frames/txn  {:>6.3} dgrams/txn  {:>6.3} solicits/txn  {:>5.1}% fast-path  {}/{} hint hits  {:>7.2} allocs/txn",
            r.name,
            r.decided,
            r.wall_secs,
            r.txns_per_sec(),
            r.forces_per_txn(),
            r.frames_per_txn(),
            r.datagrams_per_txn(),
            r.solicits_per_txn(),
            100.0 * r.fast_path_rate(),
            r.hint_hits,
            r.hinted_solicits,
            apt,
        );
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"decided\": {}, \"committed\": {}, \"wall_secs\": {:.6}, \
             \"txns_per_sec\": {:.0}, \"forces\": {}, \"forces_per_txn\": {:.4}, \
             \"forces_elided\": {}, \"max_force_batch\": {}, \"frames\": {}, \
             \"frames_per_txn\": {:.4}, \"messages\": {}, \"datagrams\": {}, \
             \"datagrams_per_txn\": {:.4}, \"wire_bytes\": {}, \
             \"wire_bytes_per_txn\": {:.4}, \"bytes_acked_piggyback\": {}, \
             \"solicits\": {}, \"solicits_per_txn\": {:.4}, \"fast_path\": {}, \
             \"fast_path_rate\": {:.4}, \"hinted_solicits\": {}, \"hint_hits\": {}, \
             \"hint_hit_rate\": {:.4}, \"hints_sent\": {}, \
             \"donations\": {}, \"rebalances\": {}, \
             \"allocs_per_txn\": {:.4}}}",
            r.name,
            r.decided,
            r.committed,
            r.wall_secs,
            r.txns_per_sec(),
            r.forces,
            r.forces_per_txn(),
            r.forces_elided,
            r.max_force_batch,
            r.frames,
            r.frames_per_txn(),
            r.messages,
            r.datagrams,
            r.datagrams_per_txn(),
            r.wire_bytes,
            r.wire_bytes_per_txn(),
            r.bytes_acked_piggyback,
            r.solicits,
            r.solicits_per_txn(),
            r.fast_path,
            r.fast_path_rate(),
            r.hinted_solicits,
            r.hint_hits,
            r.hint_hit_rate(),
            r.hints_sent,
            r.donations,
            r.rebalances,
            apt,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        json,
        "  ],\n  \"scale\": \"{}\"\n}}\n",
        match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    );
    std::fs::write(&out_path, json).expect("write BENCH_engine.json");
    println!("wrote {out_path}");
}
