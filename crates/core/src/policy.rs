//! Site configuration and tunable policies.
//!
//! These knobs are the paper's acknowledged open space ("performance
//! studies to find the best ways to distribute the data, to design the
//! transactions and to reduce the message traffic are needed", Section 9)
//! — each is swept by an experiment or an ablation bench.
//!
//! Value-placement policy is folded into a single [`Placement`] type:
//! [`Placement::Static`] never moves value, [`Placement::Reactive`] is
//! the paper's baseline (demand-triggered refills plus an optional
//! fixed-threshold rebalancer), and [`Placement::Adaptive`] layers the
//! demand-adaptive subsystem on top (per-item demand EWMAs, availability
//! hints piggybacked on Vm datagrams, hint-directed solicitation,
//! predictive refill, and a demand-driven rebalancer). Configurations are
//! assembled with [`SiteConfig::builder`].

use crate::Qty;
use dvp_simnet::time::SimDuration;
use dvp_storage::TornWrite;
use dvp_vmsg::VmConfig;

/// How much value a donor ships when honouring a refill request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefillPolicy {
    /// Exactly the deficit (capped by what the donor has). Minimal value
    /// movement; the requester may need to ask again soon.
    DemandExact,
    /// The deficit plus half the donor's surplus beyond it. Fewer future
    /// requests at the cost of more value drift.
    DemandHalf,
    /// Everything the donor has. Concentrates value at busy sites.
    All,
}

impl RefillPolicy {
    /// Amount to donate given the requested `need` and local `have`.
    pub fn amount(&self, need: Qty, have: Qty) -> Qty {
        match self {
            RefillPolicy::DemandExact => need.min(have),
            RefillPolicy::DemandHalf => {
                if have <= need {
                    have
                } else {
                    need + (have - need) / 2
                }
            }
            RefillPolicy::All => have,
        }
    }
}

/// Whom a soliciting transaction asks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fanout {
    /// One site, chosen round-robin. Minimal traffic, fragile under
    /// failures (no retry — a lost request means a timeout abort).
    /// Peers recently seen unresponsive to a single-target solicitation
    /// are skipped while their suspicion lasts.
    One,
    /// Every other site (the deficit is requested from each; donors cap
    /// by policy). Robust, chattier.
    All,
    /// The peer with the highest *fresh* advertised surplus, learned from
    /// availability hints gossiped on Vm datagrams. Falls back to `All`
    /// when no usable hint is known (cold start, stale hints, suspect
    /// peers), so losing every hint only costs extra messages, never
    /// liveness. Only meaningful under [`Placement::Adaptive`] — without
    /// it no hints flow and the fallback always fires.
    Hinted,
}

/// Which concurrency-control scheme the sites run (paper Section 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConcMode {
    /// Conc1: conservative timestamping — a lock (local or solicited) is
    /// granted only if `TS(t) > TS(d)`; conflicts and stale timestamps
    /// abort/ignore immediately. Works on any network.
    Conc1,
    /// Conc2: strict two-phase locking with FIFO lock queues. Sound under
    /// the Section 6.2 network assumptions (message-order synchronicity +
    /// ordered broadcast) — pair it with
    /// `NetworkConfig::synchronous_ordered`.
    Conc2,
}

/// Fixed-threshold rebalancing, the reactive placement's optional
/// proactive arm.
///
/// The paper treats Rds transactions as free-standing ("Rds transactions
/// may actually not redistribute any data item at all... may simply be
/// used to send requests", §5) and asks for traffic-reducing
/// distribution policies (§9). This policy ships a site's *surplus* —
/// fragment value beyond a multiple of its initial quota — toward the
/// site that most recently solicited the item, on a periodic timer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RebalanceConfig {
    /// How often the rebalancer wakes.
    pub every: SimDuration,
    /// Keep `factor ×` the initial quota; ship any excess beyond it.
    pub surplus_factor: f64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            every: SimDuration::millis(25),
            surplus_factor: 2.0,
        }
    }
}

/// The paper-baseline placement policy: value moves only when demanded
/// (refill solicitations), optionally plus a fixed-threshold rebalancer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReactivePlacement {
    /// Refill donation policy.
    pub refill: RefillPolicy,
    /// Solicitation fan-out.
    pub fanout: Fanout,
    /// Proactive surplus shipping (`None` = off, the paper's baseline).
    pub rebalance: Option<RebalanceConfig>,
}

impl Default for ReactivePlacement {
    fn default() -> Self {
        ReactivePlacement {
            refill: RefillPolicy::DemandExact,
            fanout: Fanout::All,
            rebalance: None,
        }
    }
}

/// Adversarial hint handling, for proving hints are safety-inert.
///
/// **Test-only** (like the `unsafe_skip_*` ablation flags): production
/// configurations keep `None`. The placement proptests run every mode
/// and assert that no commit/abort decision changes when hints are not
/// steering (fan-out ≠ `Hinted`), and that every safety oracle holds
/// when they are.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HintChaos {
    /// Hints are processed normally.
    #[default]
    None,
    /// Every received hint is discarded.
    Drop,
    /// Every received hint is applied twice.
    Duplicate,
    /// Every received hint is recorded as already expired.
    Stale,
}

/// Parameters of the demand-adaptive placement subsystem.
///
/// All state the subsystem accumulates — demand EWMAs, the advertised-
/// surplus hint table, peer suspicion — is **volatile**: wiped on crash,
/// never logged, never consulted by recovery. Hints in particular are
/// pure gossip riding existing Vm datagrams; a site that believes a
/// wrong, stale, or missing hint only pays extra messages or a timeout,
/// never a safety violation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptivePlacement {
    /// Solicitation fan-out (default [`Fanout::Hinted`]).
    pub fanout: Fanout,
    /// Base refill amount; the predictive top-up (toward the requester's
    /// advertised demand estimate) is added on top, capped by what the
    /// donor can spare beyond its own predicted demand.
    pub refill: RefillPolicy,
    /// How often the demand-driven rebalancer wakes.
    pub every: SimDuration,
    /// EWMA gain for the demand estimators (0 < gain ≤ 1; higher tracks
    /// shifts faster but is noisier).
    pub gain: f64,
    /// Advertised-surplus hints older than this are ignored by
    /// [`Fanout::Hinted`] targeting (volatile gossip must expire).
    pub hint_ttl: SimDuration,
    /// At most this many per-item hints ride each outgoing datagram.
    pub max_hints: u32,
    /// A donor keeps `headroom ×` its own predicted demand before
    /// counting value as spareable surplus (for both predictive refill
    /// and the rebalancer).
    pub headroom: f64,
    /// Adversarial hint handling (test-only; see [`HintChaos`]).
    pub chaos: HintChaos,
}

impl Default for AdaptivePlacement {
    fn default() -> Self {
        AdaptivePlacement {
            fanout: Fanout::Hinted,
            refill: RefillPolicy::DemandExact,
            // Rebalance cadence. Each tick costs an O(items · peers)
            // demand scan plus a Vm flush on every site, so the cadence
            // is sized for drift detection (hotspot epochs are seconds),
            // not per-transaction reaction — solicitation handles that.
            every: SimDuration::millis(100),
            gain: 0.25,
            // Sized against the scope-matched gossip rate: every
            // advertised (item, peer) pair is re-gossiped well inside
            // this window, so a longer TTL widens the usable-hint window
            // (more hinted solicitations per gossiped entry) while the
            // resend dedupe — half the TTL — cuts the steady resend rate
            // in step. Confidence scaling shrinks it again wherever the
            // longer horizon starts admitting stale figures.
            hint_ttl: SimDuration::millis(250),
            max_hints: 16,
            headroom: 1.5,
            chaos: HintChaos::None,
        }
    }
}

/// Where value sits and how it moves: the unified placement policy.
///
/// Replaces the former loose trio of `refill` + `fanout` + `rebalance`
/// knobs on `SiteConfig`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Placement {
    /// Value never moves: every refill solicitation is declined, so a
    /// transaction exceeding its local fragment aborts at its timeout.
    /// Full-value *reads* still work (the Section 5 read protocol ships
    /// fragments under leases — that is reading, not re-placement).
    /// The ablation floor: what partitioning costs with no redistribution
    /// at all.
    Static,
    /// The paper's baseline: demand-triggered refills, optional
    /// fixed-threshold rebalancer. The default.
    Reactive(ReactivePlacement),
    /// The demand-adaptive subsystem: demand EWMAs, piggybacked
    /// availability hints, hint-directed solicitation, predictive refill,
    /// demand-driven rebalancing.
    Adaptive(AdaptivePlacement),
}

impl Default for Placement {
    fn default() -> Self {
        Placement::Reactive(ReactivePlacement::default())
    }
}

impl Placement {
    /// The default reactive policy (demand-exact refills, full fan-out,
    /// no rebalancer) — today's and the paper's baseline.
    pub fn reactive() -> Self {
        Placement::default()
    }

    /// The default adaptive policy.
    pub fn adaptive() -> Self {
        Placement::Adaptive(AdaptivePlacement::default())
    }

    /// Solicitation fan-out under this policy. `Static` solicits with
    /// full fan-out (requests are part of the protocol; donors decline).
    pub fn fanout(&self) -> Fanout {
        match self {
            Placement::Static => Fanout::All,
            Placement::Reactive(r) => r.fanout,
            Placement::Adaptive(a) => a.fanout,
        }
    }

    /// Base refill amount a donor grants, before any adaptive top-up.
    /// `Static` grants nothing.
    pub fn base_refill(&self, need: Qty, have: Qty) -> Qty {
        match self {
            Placement::Static => 0,
            Placement::Reactive(r) => r.refill.amount(need, have),
            Placement::Adaptive(a) => a.refill.amount(need, have),
        }
    }

    /// The rebalance wake interval, if any arm of this policy rebalances.
    pub fn rebalance_every(&self) -> Option<SimDuration> {
        match self {
            Placement::Static => None,
            Placement::Reactive(r) => r.rebalance.map(|rb| rb.every),
            Placement::Adaptive(a) => Some(a.every),
        }
    }

    /// The adaptive parameters, when this policy is adaptive.
    pub fn adaptive_params(&self) -> Option<&AdaptivePlacement> {
        match self {
            Placement::Adaptive(a) => Some(a),
            _ => None,
        }
    }
}

/// A named crash site inside the protocol (nemesis crashpoint).
///
/// Each names the instant *between* two steps whose atomicity the paper
/// never assumes — exactly where a real crash is most interesting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crashpoint {
    /// In `commit_txn`, after the Commit record is appended but before it
    /// is forced: the transaction must *not* survive recovery.
    AfterAppendBeforeForce,
    /// In `try_donate`, after the Rds record is forced but before the Vm
    /// frame is transmitted: the Vm exists durably and must reach its
    /// destination via post-recovery retransmission.
    AfterForceBeforeSend,
    /// In `maybe_checkpoint`, after the checkpoint slot is installed but
    /// before the log is truncated: recovery must not double-apply the
    /// records both snapshotted and still in the log.
    MidCheckpoint,
}

/// Fault-injection knobs carried on [`SiteConfig`] (all off by default —
/// the disabled path costs one branch on an always-false flag).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InjectConfig {
    /// Crash the victim site at this named crashpoint (one-shot: the
    /// trigger disarms after firing so recovery cannot crash-loop).
    pub crashpoint: Option<Crashpoint>,
    /// Which hit of the crashpoint fires it (1 = the first).
    pub crash_on_hit: u32,
    /// The site the crashpoint (and torn-write mode) applies to.
    pub victim: usize,
    /// Tear the in-flight log write on the victim's crashes.
    pub torn: TornWrite,
    /// Flip one byte in the victim's *stable* (forced) log region on its
    /// next crash — media decay, not a torn tail. One-shot: disarms once
    /// a byte has actually been flipped.
    pub bit_rot: bool,
    /// Corrupt this checkpoint slot (0 or 1) on the victim's next crash.
    /// One-shot like `bit_rot`.
    pub corrupt_ckpt: Option<u8>,
}

impl InjectConfig {
    /// Arm a crashpoint at `victim`, firing on the first hit.
    pub fn crashpoint_at(victim: usize, point: Crashpoint) -> Self {
        InjectConfig {
            crashpoint: Some(point),
            crash_on_hit: 1,
            victim,
            ..Default::default()
        }
    }

    /// Tear the victim's log writes on every crash.
    pub fn torn_at(victim: usize, mode: TornWrite) -> Self {
        InjectConfig {
            victim,
            torn: mode,
            ..Default::default()
        }
    }

    /// Rot one stable-log byte at `victim` on its next crash.
    pub fn bit_rot_at(victim: usize) -> Self {
        InjectConfig {
            victim,
            bit_rot: true,
            ..Default::default()
        }
    }

    /// Corrupt checkpoint slot `slot` at `victim` on its next crash.
    pub fn corrupt_ckpt_at(victim: usize, slot: u8) -> Self {
        InjectConfig {
            victim,
            corrupt_ckpt: Some(slot),
            ..Default::default()
        }
    }
}

/// Per-site protocol configuration. Assemble with [`SiteConfig::builder`].
#[derive(Clone, Copy, Debug)]
pub struct SiteConfig {
    /// Transaction timeout: solicited value must arrive within this span
    /// or the transaction aborts (the paper's pessimistic Step 3).
    pub txn_timeout: SimDuration,
    /// Retransmission interval for outstanding Vms.
    pub retransmit_every: SimDuration,
    /// Value-placement policy (refill, fan-out, rebalancing, adaptivity).
    pub placement: Placement,
    /// Concurrency-control scheme.
    pub conc: ConcMode,
    /// Vm-layer knobs (window, eager acks).
    pub vm: VmConfig,
    /// Extra solicitation rounds before the timeout aborts (the paper's
    /// "the requests could be re-tried a few more times" variation, §5).
    /// `0` = the paper's baseline pessimism. Retries are spaced evenly
    /// inside the timeout window, so the decision bound is unchanged.
    pub solicit_retries: u32,
    /// Take a checkpoint (snapshot + log truncation) whenever the stable
    /// log exceeds this many records (`None` = never; §7's "the number of
    /// redo actions required can be reduced in the usual manner").
    pub checkpoint_every: Option<usize>,
    /// **Ablation-only.** Disable the donor-side rule that a site with
    /// outstanding Vms for an item must refuse read solicitations
    /// (Section 5: "the fact that no outstanding Vm is there assures that
    /// the complete Π⁻¹(d) is procured"). With the gate off, committed
    /// reads can silently miss in-flight value — the test suite proves
    /// exactly that, which is why the rule exists.
    pub unsafe_skip_read_drain_gate: bool,
    /// **Ablation-only.** Restore the checkpoint image on recovery but
    /// skip the log-redo phase — the classic "forgot the REDO pass" bug.
    /// Any crash then reverts the site to its last checkpoint (or its
    /// empty initial image), destroying committed value. The nemesis
    /// shrinker demo uses this to show a fault campaign minimizing to a
    /// single crash event.
    pub unsafe_skip_recovery_redo: bool,
    /// Nemesis fault injection (crashpoints, torn log writes). Defaults to
    /// fully disabled.
    pub inject: InjectConfig,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            txn_timeout: SimDuration::millis(50),
            retransmit_every: SimDuration::millis(10),
            placement: Placement::default(),
            conc: ConcMode::Conc1,
            vm: VmConfig::default(),
            solicit_retries: 0,
            checkpoint_every: None,
            unsafe_skip_read_drain_gate: false,
            unsafe_skip_recovery_redo: false,
            inject: InjectConfig::default(),
        }
    }
}

impl SiteConfig {
    /// Start a builder from the default configuration.
    pub fn builder() -> SiteConfigBuilder {
        SiteConfigBuilder {
            cfg: SiteConfig::default(),
        }
    }

    /// Set the transaction timeout (the read lease follows it).
    pub fn with_timeout(mut self, t: SimDuration) -> Self {
        self.txn_timeout = t;
        self
    }

    /// How long a donor's read lease pins the drained item: 2× the
    /// timeout. It must exceed the requester's `txn_timeout` (plus
    /// delays) for committed reads to be exact, so it is derived from
    /// the timeout rather than set on its own.
    pub fn read_lease(&self) -> SimDuration {
        self.txn_timeout.saturating_mul(2)
    }
}

/// Typed builder for [`SiteConfig`] — the one front door for assembling
/// configurations (field-poking is reserved for the engine internals).
///
/// ```
/// # use dvp_core::{SiteConfig, Placement, ConcMode};
/// let cfg = SiteConfig::builder()
///     .placement(Placement::adaptive())
///     .checkpoint_every(24)
///     .build();
/// assert!(cfg.placement.adaptive_params().is_some());
/// ```
#[derive(Clone, Debug)]
pub struct SiteConfigBuilder {
    cfg: SiteConfig,
}

impl SiteConfigBuilder {
    /// Transaction timeout; the read lease follows at 2×
    /// ([`SiteConfig::read_lease`]).
    pub fn timeout(mut self, t: SimDuration) -> Self {
        self.cfg = self.cfg.with_timeout(t);
        self
    }

    /// Retransmission interval for outstanding Vms.
    pub fn retransmit_every(mut self, t: SimDuration) -> Self {
        self.cfg.retransmit_every = t;
        self
    }

    /// Value-placement policy.
    pub fn placement(mut self, p: Placement) -> Self {
        self.cfg.placement = p;
        self
    }

    /// Concurrency-control scheme.
    pub fn conc(mut self, c: ConcMode) -> Self {
        self.cfg.conc = c;
        self
    }

    /// Vm-layer knobs (window, eager acks).
    pub fn vm(mut self, vm: VmConfig) -> Self {
        self.cfg.vm = vm;
        self
    }

    /// Extra solicitation rounds inside the timeout window.
    pub fn solicit_retries(mut self, n: u32) -> Self {
        self.cfg.solicit_retries = n;
        self
    }

    /// Checkpoint once the un-checkpointed stable suffix exceeds `n`
    /// records.
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.cfg.checkpoint_every = Some(n);
        self
    }

    /// Nemesis fault injection.
    pub fn inject(mut self, inject: InjectConfig) -> Self {
        self.cfg.inject = inject;
        self
    }

    /// **Ablation-only**: disable the read-drain gate.
    pub fn unsafe_skip_read_drain_gate(mut self, on: bool) -> Self {
        self.cfg.unsafe_skip_read_drain_gate = on;
        self
    }

    /// **Ablation-only**: skip the recovery redo pass.
    pub fn unsafe_skip_recovery_redo(mut self, on: bool) -> Self {
        self.cfg.unsafe_skip_recovery_redo = on;
        self
    }

    /// Finish: the assembled configuration.
    pub fn build(self) -> SiteConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_exact_caps_at_have() {
        let p = RefillPolicy::DemandExact;
        assert_eq!(p.amount(5, 10), 5);
        assert_eq!(p.amount(5, 3), 3);
        assert_eq!(p.amount(0, 10), 0);
    }

    #[test]
    fn demand_half_ships_surplus() {
        let p = RefillPolicy::DemandHalf;
        assert_eq!(p.amount(5, 3), 3, "short: everything");
        assert_eq!(p.amount(5, 5), 5);
        assert_eq!(p.amount(5, 11), 8, "5 + (11-5)/2");
    }

    #[test]
    fn all_ships_everything() {
        assert_eq!(RefillPolicy::All.amount(1, 100), 100);
        assert_eq!(RefillPolicy::All.amount(0, 0), 0);
    }

    #[test]
    fn default_config_is_consistent() {
        let c = SiteConfig::default();
        assert!(c.read_lease() >= c.txn_timeout.saturating_mul(2));
        assert!(c.retransmit_every < c.txn_timeout);
    }

    #[test]
    fn with_timeout_scales_lease() {
        let c = SiteConfig::default().with_timeout(SimDuration::millis(20));
        assert_eq!(c.txn_timeout, SimDuration::millis(20));
        assert_eq!(c.read_lease(), SimDuration::millis(40));
    }

    #[test]
    fn struct_literal_timeout_scales_lease() {
        let c = SiteConfig {
            txn_timeout: SimDuration::millis(500),
            ..Default::default()
        };
        assert_eq!(c.read_lease(), SimDuration::millis(1000));
    }

    #[test]
    fn default_placement_is_the_paper_baseline() {
        let p = Placement::default();
        assert_eq!(p, Placement::reactive());
        assert_eq!(p.fanout(), Fanout::All);
        assert_eq!(p.base_refill(5, 10), 5, "demand-exact");
        assert_eq!(p.rebalance_every(), None);
        assert!(p.adaptive_params().is_none());
    }

    #[test]
    fn static_placement_never_grants() {
        let p = Placement::Static;
        assert_eq!(p.base_refill(5, 100), 0);
        assert_eq!(p.rebalance_every(), None);
    }

    #[test]
    fn adaptive_placement_defaults() {
        let p = Placement::adaptive();
        assert_eq!(p.fanout(), Fanout::Hinted);
        let a = p.adaptive_params().unwrap();
        assert!(a.gain > 0.0 && a.gain <= 1.0);
        assert!(a.headroom >= 1.0);
        assert_eq!(a.chaos, HintChaos::None);
        assert_eq!(
            p.rebalance_every(),
            Some(a.every),
            "adaptive always rebalances"
        );
    }

    #[test]
    fn builder_assembles_and_scales_lease() {
        let cfg = SiteConfig::builder()
            .timeout(SimDuration::millis(20))
            .placement(Placement::Adaptive(AdaptivePlacement {
                max_hints: 4,
                ..Default::default()
            }))
            .conc(ConcMode::Conc2)
            .solicit_retries(2)
            .checkpoint_every(24)
            .build();
        assert_eq!(cfg.txn_timeout, SimDuration::millis(20));
        assert_eq!(cfg.read_lease(), SimDuration::millis(40));
        assert_eq!(cfg.conc, ConcMode::Conc2);
        assert_eq!(cfg.solicit_retries, 2);
        assert_eq!(cfg.checkpoint_every, Some(24));
        assert_eq!(cfg.placement.adaptive_params().unwrap().max_hints, 4);
    }
}
