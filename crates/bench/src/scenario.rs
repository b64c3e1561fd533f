//! The experiment driver surface: [`Scenario`] describes *one run* of
//! either engine declaratively; [`Scenario::run`] executes it and reduces
//! the outcome to a [`RunReport`].
//!
//! This replaces the old positional `run_dvp(w, site, net, faults, until,
//! seed)` / `run_trad(..)` pair: every knob is a named field with a
//! sensible default, both engines report through the same type, and
//! enabling `.trace(true)` captures the structured `dvp-obs` event stream
//! for deterministic JSONL export.

use dvp_baselines::{TradCluster, TradClusterConfig, TradConfig};
use dvp_core::{Cluster, ClusterConfig, FaultPlan, SiteConfig};
use dvp_obs::{to_jsonl, Event, Hist, Obs, PhaseHists};
use dvp_simnet::network::NetworkConfig;
use dvp_simnet::time::SimTime;
use dvp_workloads::Workload;

/// Which engine a [`Scenario`] drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Data-value partitioning (the paper's protocol).
    Dvp,
    /// The traditional 2PC/3PC baseline.
    Trad,
}

/// A declarative description of one engine run: workload, engine,
/// environment, horizon, seed, and whether to capture a trace.
///
/// Build one with [`Scenario::dvp`] or [`Scenario::trad`], chain the
/// setters you need, then call [`Scenario::run`]. White-box tests that
/// need node access can call [`Scenario::build_dvp`] /
/// [`Scenario::build_trad`] instead and drive the cluster by hand.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable label, echoed into the report and trace header.
    pub name: String,
    /// Item catalog (from the workload).
    pub catalog: dvp_core::item::Catalog,
    /// Per-site arrival scripts (from the workload).
    pub scripts: Vec<Vec<(SimTime, dvp_core::TxnSpec)>>,
    /// Which engine to run.
    pub engine: EngineKind,
    /// DvP per-site protocol configuration (ignored by the baseline).
    pub site: SiteConfig,
    /// Baseline protocol configuration (ignored by DvP).
    pub trad: TradConfig,
    /// Network model.
    pub net: NetworkConfig,
    /// Crash/recovery schedule (both engines honour crashes and
    /// recoveries; crashpoints are DvP-only).
    pub faults: FaultPlan,
    /// Simulation horizon; `None` runs to quiescence.
    pub until: Option<SimTime>,
    /// Determinism seed.
    pub seed: u64,
    /// Capture the structured event stream into the report.
    pub trace: bool,
}

impl Scenario {
    fn new(w: &Workload, engine: EngineKind) -> Scenario {
        Scenario {
            name: String::new(),
            catalog: w.catalog.clone(),
            scripts: w.scripts.clone(),
            engine,
            site: SiteConfig::default(),
            trad: TradConfig::default(),
            net: NetworkConfig::reliable(),
            faults: FaultPlan::none(),
            until: None,
            seed: 0,
            trace: false,
        }
    }

    /// A DvP run of `w` on a reliable network, no faults, seed 0.
    pub fn dvp(w: &Workload) -> Scenario {
        Scenario::new(w, EngineKind::Dvp)
    }

    /// A baseline (2PC) run of `w` on a reliable network, no faults.
    pub fn trad(w: &Workload) -> Scenario {
        Scenario::new(w, EngineKind::Trad)
    }

    /// A DvP scenario over a bare catalog with `n` empty per-site
    /// scripts — append arrivals with [`Scenario::at`].
    pub fn dvp_sites(n: usize, catalog: dvp_core::item::Catalog) -> Scenario {
        Scenario::dvp(&Workload {
            catalog,
            scripts: vec![Vec::new(); n],
        })
    }

    /// A baseline scenario over a bare catalog with `n` empty scripts.
    pub fn trad_sites(n: usize, catalog: dvp_core::item::Catalog) -> Scenario {
        Scenario::trad(&Workload {
            catalog,
            scripts: vec![Vec::new(); n],
        })
    }

    /// Append a transaction arrival at `site`.
    pub fn at(mut self, site: usize, when: SimTime, spec: dvp_core::TxnSpec) -> Scenario {
        self.scripts[site].push((when, spec));
        self
    }

    /// Label the run (appears in the report and trace header).
    pub fn name(mut self, name: impl Into<String>) -> Scenario {
        self.name = name.into();
        self
    }

    /// Set the DvP site configuration.
    pub fn site(mut self, site: SiteConfig) -> Scenario {
        self.site = site;
        self
    }

    /// Set the baseline protocol configuration.
    pub fn trad_config(mut self, trad: TradConfig) -> Scenario {
        self.trad = trad;
        self
    }

    /// Set the network model.
    pub fn net(mut self, net: NetworkConfig) -> Scenario {
        self.net = net;
        self
    }

    /// Set the crash/recovery schedule.
    pub fn faults(mut self, faults: FaultPlan) -> Scenario {
        self.faults = faults;
        self
    }

    /// Run until `deadline` instead of to quiescence.
    pub fn until(mut self, deadline: SimTime) -> Scenario {
        self.until = Some(deadline);
        self
    }

    /// Set the determinism seed.
    pub fn seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Capture the structured event stream ([`RunReport::events`]).
    pub fn trace(mut self, on: bool) -> Scenario {
        self.trace = on;
        self
    }

    /// Build the DvP cluster without running it (white-box escape hatch).
    ///
    /// Panics if the scenario targets the baseline engine.
    pub fn build_dvp(&self) -> Cluster {
        assert_eq!(self.engine, EngineKind::Dvp, "scenario targets Trad");
        let mut cfg = ClusterConfig::new(self.scripts.len(), self.catalog.clone());
        cfg.site = self.site;
        cfg.net = self.net.clone();
        cfg.faults = self.faults.clone();
        cfg.scripts = self.scripts.clone();
        cfg.seed = self.seed;
        cfg.obs = Obs::new(self.trace);
        Cluster::build(cfg)
    }

    /// Build the baseline cluster without running it.
    ///
    /// Panics if the scenario targets the DvP engine.
    pub fn build_trad(&self) -> TradCluster {
        assert_eq!(self.engine, EngineKind::Trad, "scenario targets DvP");
        let mut cfg = TradClusterConfig::new(self.scripts.len(), self.catalog.clone());
        cfg.trad = self.trad;
        cfg.net = self.net.clone();
        cfg.crashes = self.faults.crashes.clone();
        cfg.recoveries = self.faults.recoveries.clone();
        cfg.scripts = self.scripts.clone();
        cfg.seed = self.seed;
        cfg.obs = Obs::new(self.trace);
        TradCluster::build(cfg)
    }

    /// Execute the scenario and reduce it to a [`RunReport`].
    ///
    /// DvP runs panic if the conservation audit fails — experiments must
    /// never report unsound numbers.
    pub fn run(self) -> RunReport {
        match self.engine {
            EngineKind::Dvp => self.run_dvp(),
            EngineKind::Trad => self.run_trad(),
        }
    }

    fn run_dvp(self) -> RunReport {
        let mut cl = self.build_dvp();
        match self.until {
            Some(deadline) => cl.run_until(deadline),
            None => cl.run_to_quiescence(),
        }
        cl.auditor()
            .check_conservation()
            .expect("conservation must hold in every experiment");
        let stats = cl.stats();
        let m = stats.txn;
        let decisions = m.decision_latency();
        RunReport {
            scenario: self.name,
            seed: self.seed,
            committed: m.committed(),
            aborted: m.aborted(),
            commit_ratio: m.commit_ratio(),
            p50_us: decisions.percentile(50.0),
            p95_us: decisions.percentile(95.0),
            max_us: decisions.max(),
            max_blocked_us: 0,
            messages: cl.sim.stats().sent,
            frames: cl.sim.stats().frames_sent,
            datagrams: cl.sim.stats().sent,
            // Kernel-level wire accounting: every DvP send (coalesced Vm
            // datagrams, solicitation requests, lease releases) declares
            // its encoded length, so this is directly comparable with
            // the 2PC rows rather than counting only the Vm layer.
            wire_bytes: cl.sim.stats().wire_bytes,
            bytes_acked_piggyback: stats.vm.bytes_acked_piggyback,
            forces: stats.log.forces,
            requests: stats.placement.requests_sent,
            donations: m.donations(),
            fast_path: m.fast_path_commits(),
            hinted_solicits: stats.placement.hinted_solicits,
            hint_hits: stats.placement.hint_hits,
            rebalances: stats.placement.rebalances,
            hints_sent: stats.placement.hints_sent,
            still_blocked: 0,
            recovery_remote_msgs: m.sites.iter().map(|s| s.recovery_remote_messages).sum(),
            dropped_crashed: cl.sim.stats().dropped_crashed,
            crashpoint_trips: m.crashpoint_trips(),
            torn_crashes: m.torn_crashes(),
            phases: m.phases(),
            decisions,
            events: cl.obs().take(),
        }
    }

    fn run_trad(self) -> RunReport {
        let mut cl = self.build_trad();
        match self.until {
            Some(deadline) => cl.run_until(deadline),
            None => {
                cl.sim.run_to_quiescence();
            }
        }
        let m = cl.metrics();
        let decisions = m.decision_latency();
        RunReport {
            scenario: self.name,
            seed: self.seed,
            committed: m.committed(),
            aborted: m.aborted(),
            commit_ratio: m.commit_ratio(),
            p50_us: decisions.percentile(50.0),
            p95_us: decisions.percentile(95.0),
            // Decided transactions only — open blocking windows are
            // reported via `still_blocked` / `max_blocked_us`, so p100
            // means p100 for both engines.
            max_us: decisions.max(),
            max_blocked_us: m.max_blocking_us(cl.sim.now()),
            messages: cl.sim.stats().sent,
            frames: cl.sim.stats().frames_sent,
            // Every baseline send declares its encoded-length estimate
            // (`TradMsg::wire_len`), so the kernel's counters are the
            // engine's wire volume.
            datagrams: cl.sim.stats().sent,
            wire_bytes: cl.sim.stats().wire_bytes,
            bytes_acked_piggyback: 0,
            forces: cl.log_stats().forces,
            requests: 0,
            donations: 0,
            fast_path: 0,
            hinted_solicits: 0,
            hint_hits: 0,
            rebalances: 0,
            hints_sent: 0,
            still_blocked: m.still_blocked() as u64,
            recovery_remote_msgs: m.recovery_remote_messages(),
            dropped_crashed: cl.sim.stats().dropped_crashed,
            crashpoint_trips: 0,
            torn_crashes: 0,
            phases: m.phases(),
            decisions,
            events: cl.sim.obs().take(),
        }
    }
}

/// One engine run, reduced to the metrics every experiment reports, plus
/// the structured distributions and (when tracing) the event stream.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Scenario label.
    pub scenario: String,
    /// Seed the run used.
    pub seed: u64,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// Commit ratio over decided transactions.
    pub commit_ratio: f64,
    /// Median decision latency (µs).
    pub p50_us: u64,
    /// 95th-percentile decision latency (µs).
    pub p95_us: u64,
    /// Maximum *decided* latency (µs) — exact, commits and aborts only,
    /// for both engines. Open-ended blocking is in `max_blocked_us`.
    pub max_us: u64,
    /// Longest blocking window (µs) including still-open in-doubt
    /// windows measured to harvest time. Always 0 for DvP — the
    /// non-blocking claim.
    pub max_blocked_us: u64,
    /// Total network messages sent (wire transmissions — a coalesced
    /// datagram counts once).
    pub messages: u64,
    /// Logical protocol frames handed to the network (a coalesced
    /// datagram counts its frame total; equals `messages` when nothing
    /// batches).
    pub frames: u64,
    /// Wire datagrams transmitted: kernel transmissions, for both
    /// engines (equal to `messages`). The Vm layer's own datagram count
    /// stays available as `VmStats::datagrams_sent`.
    pub datagrams: u64,
    /// Bytes handed to the wire: actual codec output (frame encodings
    /// plus datagram headers) for DvP; the deterministic fixed-width
    /// encoded-length estimate (`TradMsg::wire_len`) for the baseline,
    /// tallied through the kernel's `NetStats::wire_bytes`.
    pub wire_bytes: u64,
    /// Bytes of standalone ack traffic avoided by piggybacking
    /// cumulative acks on data datagrams.
    pub bytes_acked_piggyback: u64,
    /// Cluster-wide stable-log force operations (both engines report
    /// them; `forces / committed` is the group-commit headline metric).
    pub forces: u64,
    /// Engine-level solicitations (DvP requests; baseline lock requests
    /// are folded into `messages`).
    pub requests: u64,
    /// DvP donations performed.
    pub donations: u64,
    /// Commits that never left their initiating site (local value was
    /// adequate). `fast_path / committed` is the placement headline
    /// metric: good placement pushes it toward 1.
    pub fast_path: u64,
    /// Solicitations aimed at one peer because of a fresh availability
    /// hint (adaptive placement only).
    pub hinted_solicits: u64,
    /// Hinted solicitations whose hinted donor delivered value the
    /// transaction consumed.
    pub hint_hits: u64,
    /// Rds rebalance transfers shipped.
    pub rebalances: u64,
    /// Availability-hint entries piggybacked on Vm datagrams.
    pub hints_sent: u64,
    /// Transactions still blocked (in doubt) at harvest — always 0 for
    /// DvP, possibly nonzero for 2PC under partition.
    pub still_blocked: u64,
    /// Remote messages consumed by recovery.
    pub recovery_remote_msgs: u64,
    /// Deliveries suppressed because the recipient site was crashed.
    pub dropped_crashed: u64,
    /// Nemesis crashpoint triggers fired during the run.
    pub crashpoint_trips: u64,
    /// Crashes whose in-flight log write tore (and recovery repaired).
    pub torn_crashes: u64,
    /// Decision-latency histogram (commits + aborts).
    pub decisions: Hist,
    /// Per-phase latency breakdown (`fast_path`/`solicit`/`gather`/
    /// `abort` for DvP; `decide`/`abort`/`in_doubt` for the baseline).
    pub phases: PhaseHists,
    /// Structured event stream; empty unless the scenario enabled
    /// tracing.
    pub events: Vec<Event>,
}

impl RunReport {
    /// Render the captured event stream as deterministic JSONL (one
    /// header line, then one line per event). Empty-bodied when the run
    /// was not traced.
    pub fn trace_jsonl(&self) -> String {
        to_jsonl(&self.scenario, self.seed, &self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_simnet::time::SimDuration;
    use dvp_workloads::AirlineWorkload;

    #[test]
    fn both_engines_run_the_same_workload() {
        let w = AirlineWorkload {
            txns: 40,
            ..Default::default()
        }
        .generate(1);
        let until = SimTime::ZERO + SimDuration::secs(5);
        let d = Scenario::dvp(&w).until(until).seed(1).run();
        let t = Scenario::trad(&w).until(until).seed(1).run();
        assert!(d.committed + d.aborted == 40, "dvp decided everything");
        assert!(t.committed + t.aborted <= 40);
        assert!(t.committed > 0);
        assert!(d.commit_ratio > 0.5);
        assert_eq!(d.still_blocked, 0);
        assert_eq!(d.max_blocked_us, 0, "DvP never blocks");
    }

    #[test]
    fn max_us_is_decided_only_for_both_engines() {
        let w = AirlineWorkload {
            txns: 30,
            ..Default::default()
        }
        .generate(7);
        // Crash a site mid-run and never recover it: the baseline strands
        // in-doubt participants whose open windows must NOT inflate the
        // decided p100.
        let crash_at = SimTime::ZERO + SimDuration::millis(40);
        let until = SimTime::ZERO + SimDuration::secs(5);
        let t = Scenario::trad(&w)
            .faults(FaultPlan::none().crash(crash_at, 0))
            .until(until)
            .seed(7)
            .run();
        assert_eq!(t.max_us, t.decisions.max(), "p100 over decided only");
        if t.still_blocked > 0 {
            assert!(
                t.max_blocked_us > t.max_us,
                "open windows ({}) should dwarf decided latencies ({})",
                t.max_blocked_us,
                t.max_us
            );
        }
    }

    #[test]
    fn untraced_run_captures_no_events() {
        let w = AirlineWorkload {
            txns: 5,
            ..Default::default()
        }
        .generate(3);
        let r = Scenario::dvp(&w).run();
        assert!(r.events.is_empty());
        let traced = Scenario::dvp(&w).trace(true).name("t").run();
        assert!(!traced.events.is_empty());
        assert!(traced
            .trace_jsonl()
            .starts_with("{\"trace\":\"dvp-obs/v1\""));
    }
}
