//! What a finished run produced, and the correctness checks every run
//! must pass before any of its numbers are used.

use dvp_core::audit::Auditor;
use dvp_core::item::Catalog;
use dvp_core::{AbortReason, SiteNode};
use dvp_obs::PhaseHists;
use dvp_simnet::stats::NetStats;
use dvp_storage::LogStats;
use dvp_vmsg::VmStats;

/// The observable result of a run. Two runs of the same program on the
/// same inputs must produce equal fingerprints; the traced run is checked
/// against the plain one this way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions (every reason).
    pub aborted: u64,
    /// Kernel transmissions.
    pub sent: u64,
    /// Kernel-declared wire bytes.
    pub wire_bytes: u64,
    /// Stable-log forces across all sites.
    pub forces: u64,
    /// Kernel events processed.
    pub events: u64,
    /// Final per-site fragment totals, site-major then item order.
    pub fragments: Vec<u64>,
}

/// Counters harvested from a finished, checked run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Transactions the workload scripted.
    pub scripted: u64,
    /// Transaction-engine totals.
    pub committed: u64,
    /// Aborts per [`AbortReason::ALL`] entry.
    pub aborted_by: [u64; 4],
    /// Commits that never left their home site.
    pub fast_path: u64,
    /// Solicitation requests sent.
    pub requests_sent: u64,
    /// Donations performed.
    pub donations: u64,
    /// Hint-directed solicitations, and how many paid off.
    pub hinted_solicits: u64,
    /// Hinted solicitations whose donor delivered consumed value.
    pub hint_hits: u64,
    /// Rebalance transfers shipped.
    pub rebalances: u64,
    /// Per-phase virtual-time latency histograms.
    pub phases: PhaseHists,
    /// Cluster-wide Vm counters.
    pub vm: VmStats,
    /// Cluster-wide stable-log counters.
    pub log: LogStats,
    /// Kernel counters.
    pub net: NetStats,
    /// The transparency fingerprint.
    pub fingerprint: Fingerprint,
}

impl Outcome {
    /// Check the run and harvest its counters.
    ///
    /// The checks: conservation (N = ΣNᵢ + N_M) and read exactness hold,
    /// every scripted transaction was decided, and nothing is left
    /// blocked — no site holds an active transaction or an unacknowledged
    /// Vm once the run is quiescent.
    pub fn check(
        sites: &[SiteNode],
        catalog: &Catalog,
        net: &NetStats,
        scripted: u64,
    ) -> Result<Outcome, String> {
        let auditor = Auditor::new(sites, catalog);
        auditor
            .check_conservation()
            .map_err(|e| format!("conservation: {e}"))?;
        let metrics = dvp_core::ClusterMetrics {
            sites: sites.iter().map(|s| s.metrics().clone()).collect(),
        };
        auditor
            .check_reads(&metrics)
            .map_err(|e| format!("read exactness: {e}"))?;
        let committed = metrics.committed();
        let aborted = metrics.aborted();
        if committed + aborted != scripted {
            return Err(format!(
                "{scripted} scripted but {committed} committed + {aborted} aborted"
            ));
        }
        if let Some(s) = sites
            .iter()
            .find(|s| s.active_txns() > 0 || s.vm_endpoint().has_outstanding())
        {
            return Err(format!(
                "site {} still blocked: {} active transactions, outstanding Vms: {}",
                s.id(),
                s.active_txns(),
                s.vm_endpoint().has_outstanding()
            ));
        }

        let mut vm = VmStats::default();
        let mut log = LogStats::default();
        for s in sites {
            vm.absorb(s.vm_endpoint().stats());
            log.merge(&s.log().stats());
        }
        let fragments = sites
            .iter()
            .flat_map(|s| catalog.items().iter().map(|d| s.fragments().get(d.id)))
            .collect();
        Ok(Outcome {
            scripted,
            committed,
            aborted_by: AbortReason::ALL.map(|r| metrics.aborted_for(r)),
            fast_path: metrics.fast_path_commits(),
            requests_sent: metrics.requests_sent(),
            donations: metrics.donations(),
            hinted_solicits: metrics.hinted_solicits(),
            hint_hits: metrics.hint_hits(),
            rebalances: metrics.rebalances(),
            phases: metrics.phases(),
            vm,
            log,
            net: *net,
            fingerprint: Fingerprint {
                committed,
                aborted,
                sent: net.sent,
                wire_bytes: net.wire_bytes,
                forces: log.forces,
                events: net.events_processed,
                fragments,
            },
        })
    }

    /// Aborted transactions, every reason.
    pub fn aborted(&self) -> u64 {
        self.aborted_by.iter().sum()
    }
}

/// The first run of each part of a workload. A benchmark run is
/// [`PARTS`](crate::workload::PARTS) independent workloads generated from
/// sub-seeds of the run's seed; pooling their counts keeps seed-to-seed
/// variation of the count metrics small.
#[derive(Clone, Debug, Default)]
pub struct Parts(pub Vec<Outcome>);

impl Parts {
    /// The seed of part `part` of the run seeded `seed`. Distinct runs'
    /// parts never share a seed.
    pub fn seed(seed: u64, part: usize) -> u64 {
        seed.wrapping_mul(crate::workload::PARTS as u64)
            .wrapping_add(part as u64)
    }

    /// `f` summed over every part.
    pub fn sum(&self, f: impl Fn(&Outcome) -> u64) -> u64 {
        self.0.iter().map(f).sum()
    }
}
