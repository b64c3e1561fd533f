//! The three benchmark workloads, generated from a seed.
//!
//! Every workload runs 8 sites in one process on one thread. Arrivals are
//! Poisson and pre-generated in virtual time, so each workload is an open
//! loop at a fixed offered virtual rate and the generator is never late.
//! Why each workload exists, and which layers it leaves idle, is recorded
//! in `NOTES.md`.

use dvp_core::item::Catalog;
use dvp_core::{Cluster, ClusterConfig, FaultPlan, Placement, SiteConfig, SiteNode, TxnSpec};
use dvp_simnet::network::{ChaosWindow, LinkConfig, NetworkConfig};
use dvp_simnet::partition::PartitionSchedule;
use dvp_simnet::sim::Simulation;
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_workloads::{AirlineWorkload, BankingWorkload, HotspotDriftWorkload};

/// Sites in every workload.
pub const SITES: usize = 8;

/// Scripted transactions per part at benchmark scale.
pub const TXNS: usize = 20_000;

/// Independent workload instances per benchmark run; see
/// [`Parts`](crate::outcome::Parts).
pub const PARTS: usize = 8;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Reactive placement on a reliable network: solicit/donate and the
    /// coalesced Vm transfer path do the work.
    Banking,
    /// Adaptive placement under a drifting hotspot: the local commit, the
    /// log force and the placement planner dominate.
    HotspotAdaptive,
    /// Reactive airline on lossy, duplicating links with a chaos burst, a
    /// partition and one site crash: the fault paths run.
    AirlineFaults,
}

impl Workload {
    /// Every workload, in the order the notes list them.
    pub const ALL: [Workload; 3] = [
        Workload::Banking,
        Workload::HotspotAdaptive,
        Workload::AirlineFaults,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Banking => "banking",
            Workload::HotspotAdaptive => "hotspot_adaptive",
            Workload::AirlineFaults => "airline_faults",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generate the workload's inputs from `seed` with `txns` scripted
    /// transactions.
    pub fn generate(self, seed: u64, txns: usize) -> Setup {
        match self {
            Workload::Banking => {
                let w = BankingWorkload {
                    n_sites: SITES,
                    accounts: 16,
                    txns,
                    ..Default::default()
                }
                .generate(seed);
                Setup::new(w.catalog, w.scripts, SiteConfig::default(), seed)
            }
            Workload::HotspotAdaptive => {
                let w = HotspotDriftWorkload {
                    n_sites: SITES,
                    txns,
                    epochs: 4,
                    // Supply scales with the run so the spike stays tight
                    // without the global pool ever running dry.
                    per_item: txns as u64 * 4,
                    ..Default::default()
                }
                .generate(seed);
                let site = SiteConfig {
                    placement: Placement::adaptive(),
                    ..SiteConfig::default()
                };
                Setup::new(w.catalog, w.scripts, site, seed)
            }
            Workload::AirlineFaults => airline_faults(seed, txns),
        }
    }
}

/// Everything a run needs, generated up front: the program receives only
/// these inputs.
#[derive(Clone, Debug)]
pub struct Setup {
    /// Item catalog with initial splits.
    pub catalog: Catalog,
    /// Per-site `(arrival, transaction)` scripts.
    pub scripts: Vec<Vec<(SimTime, TxnSpec)>>,
    /// Per-site protocol configuration.
    pub site: SiteConfig,
    /// Network model, including chaos and partition windows.
    pub net: NetworkConfig,
    /// Crash and recovery schedule.
    pub faults: FaultPlan,
    /// Seed for the network's delay, loss and duplication draws.
    pub seed: u64,
}

impl Setup {
    fn new(
        catalog: Catalog,
        scripts: Vec<Vec<(SimTime, TxnSpec)>>,
        site: SiteConfig,
        seed: u64,
    ) -> Setup {
        Setup {
            catalog,
            scripts,
            site,
            net: NetworkConfig::reliable(),
            faults: FaultPlan::none(),
            seed,
        }
    }

    /// Scripted transactions across all sites.
    pub fn scripted(&self) -> u64 {
        self.scripts.iter().map(|s| s.len() as u64).sum()
    }

    /// Build the plain cluster through `Cluster::build`.
    pub fn cluster(&self, obs: dvp_obs::Obs) -> Cluster {
        let mut cfg = ClusterConfig::new(SITES, self.catalog.clone());
        cfg.site = self.site;
        cfg.net = self.net.clone();
        cfg.faults = self.faults.clone();
        cfg.scripts = self.scripts.clone();
        cfg.seed = self.seed;
        cfg.obs = obs;
        Cluster::build(cfg)
    }

    /// Build a simulation whose nodes are `wrap(site)`, scheduled exactly
    /// as `Cluster::build` schedules a plain cluster.
    pub fn simulation<N, F>(&self, wrap: F) -> Simulation<N>
    where
        N: dvp_simnet::node::Node,
        F: Fn(SiteNode) -> N,
    {
        let n = self.scripts.len();
        let nodes = (0..n)
            .map(|s| {
                let quotas = self
                    .catalog
                    .items()
                    .iter()
                    .map(|def| self.catalog.quotas(def.id, n)[s])
                    .collect();
                let script = self.scripts[s].iter().map(|(_, t)| t.clone()).collect();
                wrap(SiteNode::new(s, n, self.site, quotas, script))
            })
            .collect();
        let mut sim = Simulation::new(nodes, self.net.clone(), self.seed);
        for (s, script) in self.scripts.iter().enumerate() {
            for (idx, (when, _)) in script.iter().enumerate() {
                sim.schedule_external(*when, s, idx as u64);
            }
        }
        for &(when, site) in &self.faults.crashes {
            sim.schedule_crash(when, site);
        }
        for &(when, site) in &self.faults.recoveries {
            sim.schedule_recover(when, site);
        }
        sim
    }
}

/// The fault workload. Window positions are fractions of the arrival span,
/// so they land mid-run at any scale.
fn airline_faults(seed: u64, txns: usize) -> Setup {
    let w = AirlineWorkload {
        n_sites: SITES,
        flights: 4,
        seats_per_flight: 100_000,
        txns,
        // Twice the default read share: reads gather every fragment, so
        // they are the transactions partitions and lost grants abort.
        mix: (0.65, 0.15, 0.10, 0.10),
        ..Default::default()
    }
    .generate(seed);
    let span = w
        .scripts
        .iter()
        .filter_map(|s| s.last())
        .map(|(t, _)| t.micros())
        .max()
        .unwrap_or(0);
    let at = |frac: f64| SimTime((span as f64 * frac) as u64);

    let link = LinkConfig {
        loss: 0.02,
        duplicate: 0.01,
        ..Default::default()
    };
    let halves: [&[usize]; 2] = [&[0, 1, 2, 3], &[4, 5, 6, 7]];
    let net = NetworkConfig {
        default_link: link,
        ..Default::default()
    }
    .with_chaos(ChaosWindow {
        from: at(0.20),
        until: at(0.22),
        loss: 0.25,
        duplicate: 0.05,
        jitter: SimDuration::millis(5),
    })
    .with_partitions(
        PartitionSchedule::fully_connected(SITES)
            .split_at(at(0.50), &halves)
            .heal_at(at(0.51)),
    );

    // The crashed site gets no arrivals while it is down (the kernel would
    // drop them undecided); its neighbour serves those customers instead.
    const VICTIM: usize = 5;
    let (down, up) = (at(0.70), at(0.71));
    let mut scripts = w.scripts;
    let (moved, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut scripts[VICTIM])
        .into_iter()
        .partition(|(t, _)| (down..=up).contains(t));
    scripts[VICTIM] = kept;
    let neighbour = &mut scripts[(VICTIM + 1) % SITES];
    neighbour.extend(moved);
    neighbour.sort_by_key(|(t, _)| *t);

    Setup {
        net,
        faults: FaultPlan::none().crash(down, VICTIM).recover(up, VICTIM),
        ..Setup::new(w.catalog, scripts, SiteConfig::default(), seed)
    }
}
