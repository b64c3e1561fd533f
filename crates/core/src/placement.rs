//! Value placement: where a site's value goes, and what it tells its
//! peers about it.
//!
//! [`Placer`] is the one owner of every placement decision a site makes
//! and of all the state behind them. It is built from the configured
//! [`Placement`] policy; `Static`, `Reactive` and `Adaptive` are branches
//! inside it, not separate types. The site calls it at a handful of
//! hooks (local demand, incoming request, solicitation target, refill
//! amount, outcome feedback, rebalance tick, hint refresh and per-peer
//! hint block, message arrival, crash) and never looks inside.
//!
//! Everything here is **volatile** and advisory. Nothing is logged, and
//! recovery consults none of it. A wrong, stale or missing hint costs
//! messages or a timeout, never safety (DESIGN.md §4h).
//!
//! ## Hint flow control
//!
//! Under adaptive placement, availability hints `(item, surplus)` ride
//! the site's coalesced Vm datagrams. Four gates, all in this module,
//! decide what goes on the wire:
//!
//! 1. **Scope to budget** ([`refresh_hints`](Placer::refresh_hints)):
//!    only the top `max(max_hints / 4, 2)` surpluses (never more than
//!    `max_hints`) are advertised, each only to its `HINT_FANOUT`
//!    hardest-soliciting peers above a demand floor. The lists are
//!    recomputed at most once per hint TTL.
//! 2. **Dedupe** ([`hint_block`](Placer::hint_block)): a hint whose
//!    surplus is unchanged since it was last sent to that peer is not
//!    resent within half the hint TTL.
//! 3. **Demand-delta gate**: within the same window, a changed surplus
//!    is still held back unless it moved by at least 25% of the figure
//!    the peer last saw.
//! 4. **Window budget**: at most `max(max_hints / 4, 2)` hint entries
//!    leave per half-TTL window, across all peers and datagrams.

use crate::fragment::FragmentStore;
use crate::item::ItemId;
use crate::locks::LockTable;
use crate::policy::{AdaptivePlacement, Fanout, HintChaos, Placement};
use crate::Qty;
use dvp_simnet::time::SimTime;
use dvp_simnet::NodeId;

/// Demand floor for targeted hints: one recent solicitation (EWMA
/// contribution `gain * qty`) stays above it for roughly the hint TTL
/// under the per-tick decay, so exactly the peers that asked lately
/// keep receiving updates.
const HINT_DEMAND_FLOOR: f64 = 0.1;
/// Scope-to-budget fanout: each advertised item goes to at most this
/// many peers — the ones soliciting it hardest (ties to the lower peer
/// id). Under uniform access every peer clears the bare demand floor,
/// which would re-spread the per-window hint budget (n-1) ways.
const HINT_FANOUT: usize = 2;
/// Demand-delta gate: under a churning workload the surplus moves by a
/// token or two on every commit, so exact-equality dedupe suppresses
/// almost nothing — a hint is only news when the figure moved by at
/// least this percentage of what the peer last saw. A figure last sent
/// as `0` always passes (any recovery from empty is news).
const HINT_MIN_DELTA_PCT: u64 = 25;
/// Rebalancer persistence gate: ship only when the same (item, peer)
/// pair has topped the demand ranking for this many consecutive ticks.
const SHIP_PERSISTENCE: u32 = 3;

/// Whom a solicitation for one deficit goes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Target {
    /// Every other site.
    All,
    /// One site, picked round-robin past suspected peers.
    One(NodeId),
    /// The peer with the best fresh availability hint, which advertised
    /// `surplus`.
    Hinted { to: NodeId, surplus: Qty },
}

/// One spontaneous rebalance shipment the site should make.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Ship {
    pub(crate) item: ItemId,
    pub(crate) to: NodeId,
    pub(crate) amount: Qty,
    /// Trace the shipment as a `placement_ship` event (the adaptive
    /// rebalancer's ships are traced; the reactive arm's are not).
    pub(crate) traced: bool,
}

/// All placement state and policy of one site (see the module docs).
pub(crate) struct Placer {
    policy: Placement,
    id: NodeId,
    n: usize,
    /// Initial per-item quota (the reactive rebalancer's target level).
    initial_quotas: Vec<Qty>,
    /// Last site to solicit each item — where demand lives (the
    /// reactive fixed-threshold rebalancer's targeting signal).
    demand_hint: Vec<Option<NodeId>>,
    /// Round-robin pointer for `Fanout::One`.
    rr: usize,
    /// Peers suspected unresponsive after an unanswered single-target
    /// solicitation, until the stored instant. Any message from the
    /// peer clears it.
    suspect_until: Vec<Option<SimTime>>,
    /// Peers with a `Some` slot in `suspect_until` (fast emptiness test).
    suspect_count: usize,
    /// Adaptive: this site's own per-item demand EWMA, fed by local
    /// transaction demands and timeout deficits.
    own_demand: Vec<f64>,
    /// Adaptive: per-(item, peer) solicited-demand EWMA, fed by incoming
    /// requests (the demand-driven rebalancer's targeting and sizing
    /// signal). Indexed `item.0 * n + peer` (item-major), so a full scan
    /// visits `(item, peer)` pairs in lexicographic order.
    peer_demand: Vec<f64>,
    /// Adaptive: advertised-surplus hints received from peers, with their
    /// arrival instant (expired by the effective hint TTL). Indexed like
    /// `peer_demand`.
    hint_table: Vec<Option<(Qty, SimTime)>>,
    /// Adaptive: trust in hint gossip, an EWMA in `[0, 1]` fed by
    /// hinted-solicitation outcomes. It scales the effective hint TTL —
    /// when hints keep lying (fast demand drift), borderline-stale
    /// entries expire sooner and solicitation falls back to broadcast.
    hint_confidence: f64,
    /// The rebalancer's current top (item, peer) candidate and how many
    /// consecutive ticks it has stayed on top (the persistence gate).
    rebalance_candidate: Option<(ItemId, NodeId, u32)>,
    /// Sim-instant (µs) of the last hint-list refresh, `None` before the
    /// first. The O(items · peers) recompute runs at most once per full
    /// hint TTL; between refreshes the dedupe window (half the TTL) and
    /// the delta gate decide what the current lists put on the wire.
    last_hint_refresh: Option<u64>,
    /// The hint list each peer currently gets (empty for this site and
    /// for peers no advertised item is scoped to).
    peer_hints: Vec<Vec<(u32, u64)>>,
    /// Per-peer dedupe memory: `(item, surplus, sent_at_us)` for each
    /// hint last sent to that peer. Small linear lists — a site gossips
    /// a handful of hints at a time.
    hint_sent: Vec<Vec<(u32, u64, u64)>>,
    /// Start (µs) of the current window-budget window.
    hint_window_start: u64,
    /// Hint entries already sent in the current window, across all peers.
    hint_window_used: u32,
    /// Refresh scratch: ranked surpluses and their per-item top peers,
    /// retained so the steady state allocates nothing.
    ranked_scratch: Vec<(u32, u64)>,
    fanout_scratch: Vec<[NodeId; HINT_FANOUT]>,
}

impl Placer {
    /// Placement state for site `id` of `n`, whose initial fragments are
    /// `quotas`.
    pub(crate) fn new(policy: Placement, id: NodeId, n: usize, quotas: Vec<Qty>) -> Self {
        let k = quotas.len();
        Placer {
            policy,
            id,
            n,
            initial_quotas: quotas,
            demand_hint: vec![None; k],
            rr: (id + 1) % n.max(1),
            suspect_until: vec![None; n],
            suspect_count: 0,
            own_demand: vec![0.0; k],
            peer_demand: vec![0.0; k * n],
            hint_table: vec![None; k * n],
            hint_confidence: 1.0,
            rebalance_candidate: None,
            last_hint_refresh: None,
            peer_hints: vec![Vec::new(); n],
            hint_sent: vec![Vec::new(); n],
            hint_window_start: 0,
            hint_window_used: 0,
            ranked_scratch: Vec::new(),
            fanout_scratch: Vec::new(),
        }
    }

    /// Dense `(item, peer)` slot.
    #[inline]
    fn slot(&self, item: ItemId, peer: NodeId) -> usize {
        item.0 as usize * self.n + peer
    }

    // ---- demand ------------------------------------------------------------

    /// A local transaction needs `qty` of `item` (whether or not the
    /// local fragment covers it), or a timeout showed the need went unmet.
    pub(crate) fn note_local_demand(&mut self, item: ItemId, qty: Qty) {
        let gain = match self.policy.adaptive_params() {
            Some(a) => a.gain,
            None => return,
        };
        let e = &mut self.own_demand[item.0 as usize];
        *e += gain * (qty as f64 - *e);
    }

    /// A solicitation from `from` arrived.
    pub(crate) fn on_request(
        &mut self,
        from: NodeId,
        item: ItemId,
        need: Qty,
        demand: Qty,
        read: bool,
    ) {
        self.demand_hint[item.0 as usize] = Some(from);
        if read {
            return;
        }
        // Every refill solicitation is observed demand at `from` (the
        // demand-driven rebalancer's targeting signal).
        let gain = match self.policy.adaptive_params() {
            Some(a) => a.gain,
            None => return,
        };
        let s = self.slot(item, from);
        let e = &mut self.peer_demand[s];
        *e += gain * (demand.max(need) as f64 - *e);
    }

    /// Fragment value beyond the headroom this site keeps for its own
    /// predicted demand — what it can advertise, predictively donate, or
    /// proactively rebalance away.
    fn spare(&self, item: ItemId, have: Qty, a: &AdaptivePlacement) -> Qty {
        let own = self.own_demand[item.0 as usize];
        have.saturating_sub((a.headroom * own).ceil() as Qty)
    }

    // ---- solicitation --------------------------------------------------------

    /// The demand figure a solicitation advertises: the requester's own
    /// EWMA estimate, at least the instant need. Zero (inert) unless
    /// placement is adaptive.
    pub(crate) fn advertised_demand(&self, item: ItemId, need: Qty) -> Qty {
        if self.policy.adaptive_params().is_none() {
            return 0;
        }
        need.max(self.own_demand[item.0 as usize].ceil() as Qty)
    }

    /// Pick whom to solicit for a deficit of `need` on `item`. A hinted
    /// pick debits the hint locally: soliciting consumes the advertised
    /// surplus, so back-to-back deficits don't all pile onto the same
    /// (now drained) donor before its next gossip refresh. With no
    /// usable hint (cold start, everything stale or suspect) the fan-out
    /// falls back to broadcast — losing every hint costs messages, never
    /// liveness.
    pub(crate) fn solicit_target(&mut self, item: ItemId, need: Qty, now: SimTime) -> Target {
        match self.policy.fanout() {
            Fanout::All => Target::All,
            Fanout::One => Target::One(self.next_rr(now)),
            Fanout::Hinted => match self.hinted_target(item, need, now) {
                Some((to, surplus)) => {
                    let s = self.slot(item, to);
                    if let Some(h) = self.hint_table[s].as_mut() {
                        h.0 = h.0.saturating_sub(need);
                    }
                    Target::Hinted { to, surplus }
                }
                None => Target::All,
            },
        }
    }

    fn next_rr(&mut self, now: SimTime) -> NodeId {
        let mut cand = self.rr % self.n;
        if cand == self.id {
            cand = (cand + 1) % self.n;
        }
        // Skip peers recently seen unresponsive to a single-target
        // solicitation — asking a known-dead peer burns the whole
        // timeout for nothing. If every peer is suspect, keep the
        // original candidate: asking is still no worse than aborting.
        let mut probe = cand;
        for _ in 0..self.n {
            if probe != self.id && !self.is_suspect(probe, now) {
                cand = probe;
                break;
            }
            probe = (probe + 1) % self.n;
        }
        self.rr = (cand + 1) % self.n;
        cand
    }

    /// The peer with the highest fresh advertised surplus for `item`
    /// (suspects and expired hints excluded).
    fn hinted_target(&self, item: ItemId, need: Qty, now: SimTime) -> Option<(NodeId, Qty)> {
        let a = self.policy.adaptive_params()?;
        if a.chaos == HintChaos::Stale {
            return None; // chaos: every hint is treated as expired
        }
        // The hint TTL scaled by observed hint trust: the full TTL while
        // hints keep paying off, down to a quarter of it when they keep
        // lying (fast drift makes old gossip worthless sooner).
        let scale = self.hint_confidence.clamp(0.25, 1.0);
        let ttl_us = (a.hint_ttl.as_micros() as f64 * scale) as u64;
        let mut best: Option<(NodeId, Qty)> = None;
        let base = self.slot(item, 0);
        for peer in 0..self.n {
            let (surplus, at) = match self.hint_table[base + peer] {
                Some(h) => h,
                None => continue,
            };
            // A hint below the need would aim the whole solicitation at a
            // donor that cannot cover it — under Conc1's silent declines
            // that burns the full timeout, so such hints don't qualify.
            if peer == self.id || surplus < need.max(1) {
                continue;
            }
            if now.since(at).as_micros() > ttl_us || self.is_suspect(peer, now) {
                continue;
            }
            if best.is_none_or(|(_, s)| surplus > s) {
                best = Some((peer, surplus));
            }
        }
        best
    }

    fn is_suspect(&self, peer: NodeId, now: SimTime) -> bool {
        self.suspect_until[peer].is_some_and(|until| now < until)
    }

    /// How much of `item` to donate against a refill request for `need`
    /// (requester-advertised `demand`) when this site holds `have`. The
    /// adaptive arm tops the policy's base refill up toward the
    /// requester's estimated ongoing demand, capped by what this site can
    /// spare beyond its own predicted needs — one Vm now instead of
    /// another solicitation round trip soon.
    pub(crate) fn refill_amount(&self, item: ItemId, need: Qty, demand: Qty, have: Qty) -> Qty {
        let base = self.policy.base_refill(need, have);
        match self.policy.adaptive_params() {
            Some(a) => {
                let extra = demand
                    .saturating_sub(need)
                    .min(self.spare(item, have, a).saturating_sub(base));
                (base + extra).min(have)
            }
            None => base,
        }
    }

    // ---- outcome feedback ----------------------------------------------------

    /// A transaction timed out. Each `(item, peer, hinted)` single-target
    /// solicitation it made went unanswered: the peer is suspect until
    /// `suspect_until`. A hinted one also means the hint lied — the
    /// surplus was gone by the time the request landed — so the entry is
    /// dropped (retries stop re-targeting the dead end) and trust in
    /// gossip falls. Unmet `deficits` are demand the estimator
    /// under-called: they are fed back so the next advertisement asks
    /// higher.
    pub(crate) fn on_timeout_abort(
        &mut self,
        suspect_until: SimTime,
        single_targets: &[(ItemId, NodeId, bool)],
        deficits: &[(ItemId, Qty)],
    ) {
        for &(item, peer, hinted) in single_targets {
            if self.suspect_until[peer].replace(suspect_until).is_none() {
                self.suspect_count += 1;
            }
            if hinted {
                let s = self.slot(item, peer);
                self.hint_table[s] = None;
                self.note_hint_outcome(false);
            }
        }
        for &(item, d) in deficits {
            if d > 0 {
                self.note_local_demand(item, d);
            }
        }
    }

    /// The hint-selected donor of a solicitation delivered: the hint
    /// paid off.
    pub(crate) fn on_hint_hit(&mut self) {
        self.note_hint_outcome(true);
    }

    fn note_hint_outcome(&mut self, hit: bool) {
        let gain = match self.policy.adaptive_params() {
            Some(a) => a.gain,
            None => return,
        };
        let target = if hit { 1.0 } else { 0.0 };
        self.hint_confidence += gain * (target - self.hint_confidence);
    }

    /// A message from `from` arrived: it is alive, whatever we suspected.
    pub(crate) fn on_message_from(&mut self, from: NodeId) {
        if self.suspect_count > 0 && self.suspect_until[from].take().is_some() {
            self.suspect_count -= 1;
        }
    }

    // ---- rebalancing -----------------------------------------------------------

    /// One rebalance tick: append the spontaneous shipments to make to
    /// `ships`, and return whether the tick owes a flush. The reactive
    /// arm ships every item's excess above `surplus_factor ×` its quota
    /// toward the last solicitor and always flushes; the adaptive arm
    /// ships at most one demand-sized block and flushes only if it did
    /// (an idle tick appended nothing and queued nothing, so its flush
    /// would be a no-op — the hint refresh rides the next real dispatch).
    pub(crate) fn rebalance(
        &mut self,
        frags: &FragmentStore,
        locks: &LockTable,
        now: SimTime,
        ships: &mut Vec<Ship>,
    ) -> bool {
        match self.policy {
            Placement::Static => false,
            Placement::Reactive(r) => {
                let rb = match r.rebalance {
                    Some(rb) => rb,
                    None => return false,
                };
                for (idx, &quota) in self.initial_quotas.iter().enumerate() {
                    let item = ItemId(idx as u32);
                    if quota == 0 || locks.is_locked(item) {
                        continue;
                    }
                    let have = frags.get(item);
                    let threshold = (rb.surplus_factor * quota as f64).ceil() as Qty;
                    if have <= threshold {
                        continue;
                    }
                    let to = match self.demand_hint[idx] {
                        Some(to) if to != self.id => to,
                        _ => continue, // no demand signal: leave the value be
                    };
                    // Ship the excess above the threshold (keep `threshold`).
                    ships.push(Ship {
                        item,
                        to,
                        amount: have - threshold,
                        traced: false,
                    });
                }
                true
            }
            Placement::Adaptive(a) => {
                let ship = self.adaptive_rebalance(&a, frags, locks, now);
                ships.extend(ship);
                ship.is_some()
            }
        }
    }

    /// The demand-driven rebalancer: for the (item, peer) pair with the
    /// strongest, persistent demand signal, ship a block sized by that
    /// demand — value migrates to where demand actually is instead of
    /// draining to whoever asked last.
    fn adaptive_rebalance(
        &mut self,
        a: &AdaptivePlacement,
        frags: &FragmentStore,
        locks: &LockTable,
        now: SimTime,
    ) -> Option<Ship> {
        // One ship per tick, for the (item, peer) pair with the strongest
        // demand signal. Rebalance Rds transfers are not free — each one
        // costs a force and a Vm round trip — so the rebalancer moves the
        // single most valuable block per cadence instead of dribbling on
        // every item at once (which was measured to *raise* frames/txn
        // past what hint-directed solicitation saves).
        let mut best: Option<(ItemId, NodeId, f64)> = None;
        // Item-major nested scan: visits (item, peer) pairs in
        // lexicographic order, so ties break toward the lower item, then
        // the lower peer. The estimate load leads the filter chain because
        // after decay almost every slot sits below the noise floor — the
        // common case must be one load and one compare.
        let n = self.n;
        for item_idx in 0..self.initial_quotas.len() {
            let base = item_idx * n;
            let own = a.headroom * self.own_demand[item_idx];
            for peer in 0..n {
                let e = self.peer_demand[base + peer];
                // Noise floor 1.0: a peer must have asked recently and
                // repeatedly before unsolicited value flows its way. And
                // demand *contrast*: the peer must want the item materially
                // more than (a) this site expects to use it itself and
                // (b) the average of the other peers — both with the donor-
                // headroom margin. A spontaneous ship only pays for its
                // force and Vm round trip when demand has genuinely
                // concentrated somewhere; under a symmetric workload every
                // site sees comparable solicited demand for every item,
                // transient EWMA gaps pass any single-estimate test, and
                // an ungated rebalancer ships value in circles.
                if e >= 1.0
                    && peer != self.id
                    && e > own
                    && best.is_none_or(|(_, _, b)| e > b)
                    && !self.is_suspect(peer, now)
                    && !locks.is_locked(ItemId(item_idx as u32))
                {
                    let others: f64 = (0..n)
                        .filter(|&q| q != self.id && q != peer)
                        .map(|q| self.peer_demand[base + q])
                        .sum();
                    let avg_other = others / (n.saturating_sub(2).max(1)) as f64;
                    if e > a.headroom * avg_other {
                        best = Some((ItemId(item_idx as u32), peer, e));
                    }
                }
            }
        }
        // Persistence gate: a genuine demand gradient keeps the same
        // (item, peer) pair on top across ticks, because the hot peer
        // keeps soliciting faster than the EWMA decays. Request noise
        // under symmetric load instead rotates the top pair nearly every
        // tick (whoever asked last wins). Shipping only on the third
        // consecutive tick costs a hotspot two ticks of latency and
        // filters out almost every circular ship.
        let streak = match (best, self.rebalance_candidate) {
            (Some((item, to, _)), Some((pi, pp, s))) if item == pi && to == pp => s + 1,
            (Some(_), _) => 1,
            (None, _) => 0,
        };
        self.rebalance_candidate = best.map(|(item, to, _)| (item, to, streak));
        let mut ship = None;
        if let Some((item, to, est)) = best.filter(|_| streak >= SHIP_PERSISTENCE) {
            // Ship toward the peer's estimated demand (with the same
            // headroom a donor keeps for itself), never more than spare.
            let amount = self
                .spare(item, frags.get(item), a)
                .min((a.headroom * est).ceil() as Qty);
            if amount > 0 {
                ship = Some(Ship {
                    item,
                    to,
                    amount,
                    traced: true,
                });
                // The shipped block covers the demand we knew about;
                // zeroing the estimate keeps the next tick from shipping
                // again before fresh solicitations justify it.
                let s = self.slot(item, to);
                self.peer_demand[s] = 0.0;
            }
        }
        // Demand estimates fade unless refreshed: without decay, a
        // once-hot site would keep attracting value forever after the
        // hotspot drifts elsewhere.
        for e in self.own_demand.iter_mut() {
            *e *= 1.0 - a.gain;
        }
        for e in self.peer_demand.iter_mut() {
            *e *= 1.0 - a.gain;
        }
        ship
    }

    // ---- hint gossip -----------------------------------------------------------

    /// Recompute the per-peer hint lists, at most once per hint TTL
    /// (adaptive placement only). The site calls this at every flush
    /// boundary that may put datagrams on the wire, before draining.
    ///
    /// The lists hold the top surpluses by spareable value, each targeted
    /// only at the peers soliciting that item hardest: a surplus figure
    /// for an item a peer never asks about is gossip it can never act on.
    pub(crate) fn refresh_hints(&mut self, now_us: u64, frags: &FragmentStore) {
        let a = match self.policy.adaptive_params() {
            Some(a) => *a,
            None => return,
        };
        let period = a.hint_ttl.as_micros().max(1);
        if self
            .last_hint_refresh
            .is_some_and(|t| now_us.saturating_sub(t) < period)
        {
            return;
        }
        self.last_hint_refresh = Some(now_us);
        let mut ranked = std::mem::take(&mut self.ranked_scratch);
        ranked.clear();
        for idx in 0..self.initial_quotas.len() {
            let item = ItemId(idx as u32);
            let s = self.spare(item, frags.get(item), &a);
            if s > 0 {
                ranked.push((item.0, s));
            }
        }
        ranked.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        // Scope-to-budget matching: the window budget admits only
        // ~`max_hints / 4` entries per dedupe window, so gossiping the
        // full `max_hints` list spreads that budget across far more
        // (item, peer) pairs than it can keep fresh — every table entry
        // ends up older than the TTL and the hinted path starves.
        // Advertise only the few best surpluses (and, below, only to the
        // couple of peers most likely to act) so each advertised pair is
        // re-gossiped well inside the TTL. `max_hints` stays the hard cap.
        let max_hints = a.max_hints as usize;
        ranked.truncate((max_hints / 4).max(2).min(max_hints));
        // Second half of scope-to-budget: each advertised item goes only
        // to its `HINT_FANOUT` hardest-soliciting peers above the demand
        // floor. Rank once per item — one O(peers) pass filling a top-k
        // insertion array (ascending peer order, strictly-greater
        // replacement, so ties keep the lower id).
        let mut fanout = std::mem::take(&mut self.fanout_scratch);
        fanout.clear();
        for &(item, _) in &ranked {
            let base = item as usize * self.n;
            let mut top = [usize::MAX; HINT_FANOUT];
            let mut top_d = [0.0f64; HINT_FANOUT];
            for q in 0..self.n {
                if q == self.id {
                    continue;
                }
                let mut cand = (self.peer_demand[base + q], q);
                if cand.0 < HINT_DEMAND_FLOOR {
                    continue;
                }
                for k in 0..HINT_FANOUT {
                    if top[k] == usize::MAX || cand.0 > top_d[k] {
                        std::mem::swap(&mut cand.0, &mut top_d[k]);
                        std::mem::swap(&mut cand.1, &mut top[k]);
                        if cand.1 == usize::MAX {
                            break;
                        }
                    }
                }
            }
            fanout.push(top);
        }
        for (peer, list) in self.peer_hints.iter_mut().enumerate() {
            if peer == self.id {
                continue;
            }
            list.clear();
            list.extend(
                ranked
                    .iter()
                    .zip(&fanout)
                    .filter(|(_, top)| top.contains(&peer))
                    .map(|(&h, _)| h),
            );
        }
        self.fanout_scratch = fanout;
        self.ranked_scratch = ranked;
    }

    /// Append to `out` the hints worth sending to `to` on the datagram
    /// being built now: the peer's current list, minus entries the dedupe
    /// window or the demand-delta gate hold back, charged against the
    /// window budget. The Vm endpoint calls this once per outgoing
    /// datagram, while it builds that datagram.
    pub(crate) fn hint_block(&mut self, to: NodeId, now_us: u64, out: &mut Vec<(u32, u64)>) {
        let list = match self.peer_hints.get(to) {
            Some(list) if !list.is_empty() => list,
            _ => return,
        };
        // Non-empty lists exist only under adaptive placement.
        let a = match self.policy.adaptive_params() {
            Some(a) => a,
            None => return,
        };
        // A hint stays useful for the hint TTL, so re-sending an unchanged
        // one more often than every half TTL wastes wire bytes. The
        // window budget allows half a hint section per such window: even
        // a budget-capped item gets two chances per TTL.
        let resend_after = a.hint_ttl.as_micros() / 2;
        let window_budget = (a.max_hints / 4).max(2);
        if now_us.saturating_sub(self.hint_window_start) >= resend_after.max(1) {
            self.hint_window_start = now_us;
            self.hint_window_used = 0;
        }
        let sent = &mut self.hint_sent[to];
        for &(item, surplus) in list {
            if self.hint_window_used >= window_budget {
                break;
            }
            match sent.iter_mut().find(|e| e.0 == item) {
                // Inside the dedupe window an unchanged figure is not
                // news, and (the demand-delta gate) neither is one that
                // moved less than `HINT_MIN_DELTA_PCT`. The memory is
                // deliberately NOT updated on suppression — the delta
                // keeps accumulating against the value the peer actually
                // saw, so a slow drift eventually crosses the gate.
                Some(e)
                    if resend_after > 0
                        && now_us.saturating_sub(e.2) < resend_after
                        && (surplus == e.1
                            || surplus.abs_diff(e.1) * 100 < e.1 * HINT_MIN_DELTA_PCT) =>
                {
                    continue
                }
                Some(e) => {
                    e.1 = surplus;
                    e.2 = now_us;
                }
                None => sent.push((item, surplus, now_us)),
            }
            self.hint_window_used = self.hint_window_used.saturating_add(1);
            out.push((item, surplus));
        }
    }

    /// Record availability hints arriving from `from` (through the chaos
    /// knob, for the safety-inertness proptests). Ignored unless
    /// placement is adaptive.
    pub(crate) fn ingest_hints(&mut self, from: NodeId, hints: &[(u32, u64)], now: SimTime) {
        let chaos = match self.policy.adaptive_params() {
            Some(a) => a.chaos,
            None => return,
        };
        if chaos == HintChaos::Drop {
            return;
        }
        let reps = if chaos == HintChaos::Duplicate { 2 } else { 1 };
        for _ in 0..reps {
            for &(item, surplus) in hints {
                // Hints arrive off the wire: an id outside the catalog
                // has no table slot (and could never match a
                // solicitation), so it is dropped rather than trusted.
                if (item as usize) < self.initial_quotas.len() {
                    let s = self.slot(ItemId(item), from);
                    self.hint_table[s] = Some((surplus, now));
                }
            }
        }
    }

    // ---- crash -------------------------------------------------------------------

    /// The site crashed. Demand estimates, received hints, suspicion, the
    /// rebalancer's candidate and all hint flow-control memory describe a
    /// pre-crash world and die here. The reactive `demand_hint` and the
    /// round-robin pointer are kept: they carry no safety meaning, and
    /// resetting them would change every reactive run that crosses a
    /// crash.
    pub(crate) fn crash_reset(&mut self) {
        self.own_demand.fill(0.0);
        self.peer_demand.fill(0.0);
        self.hint_table.fill(None);
        self.hint_confidence = 1.0;
        self.rebalance_candidate = None;
        self.suspect_until.fill(None);
        self.suspect_count = 0;
        self.last_hint_refresh = None;
        for list in &mut self.peer_hints {
            list.clear();
        }
        for sent in &mut self.hint_sent {
            sent.clear();
        }
        self.hint_window_start = 0;
        self.hint_window_used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_simnet::time::SimDuration;

    /// Default adaptive parameters: hint TTL 250 ms, so the dedupe window
    /// is 125 ms and the window budget `max(16 / 4, 2) = 4` entries.
    const WINDOW_US: u64 = 125_000;

    fn adaptive(id: NodeId, n: usize, quotas: Vec<Qty>) -> Placer {
        Placer::new(Placement::adaptive(), id, n, quotas)
    }

    fn frags(values: &[Qty]) -> FragmentStore {
        let mut f = FragmentStore::new(values.len());
        for (i, &v) in values.iter().enumerate() {
            f.credit(ItemId(i as u32), v);
        }
        f
    }

    fn block(p: &mut Placer, to: NodeId, now_us: u64) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        p.hint_block(to, now_us, &mut out);
        out
    }

    #[test]
    fn unchanged_hints_are_deduped_within_the_resend_window() {
        let mut p = adaptive(0, 3, vec![0; 10]);
        p.peer_hints[1] = vec![(7, 40), (9, 3)];

        // First datagram carries both hints.
        assert_eq!(block(&mut p, 1, 100), vec![(7, 40), (9, 3)]);
        // Same hints, still inside the window: nothing.
        assert!(block(&mut p, 1, 200).is_empty());
        // One surplus changes materially: only that entry goes out.
        p.peer_hints[1] = vec![(7, 40), (9, 5)];
        assert_eq!(block(&mut p, 1, 300), vec![(9, 5)]);
        // The window expires: unchanged hints are refreshed again.
        assert_eq!(block(&mut p, 1, 200_000), vec![(7, 40), (9, 5)]);
        // Dedupe memory is per peer: a first datagram toward a new peer
        // carries everything regardless of what peer 1 already saw.
        p.peer_hints[2] = vec![(7, 40), (9, 5)];
        assert_eq!(block(&mut p, 2, 200_100), vec![(7, 40), (9, 5)]);
    }

    #[test]
    fn delta_gate_holds_small_moves_against_what_the_peer_saw() {
        let mut p = adaptive(0, 2, vec![0; 4]);
        p.peer_hints[1] = vec![(1, 100), (2, 0)];
        assert_eq!(block(&mut p, 1, 0), vec![(1, 100), (2, 0)]);
        // +20% and then +24% of the figure the peer saw (100): held back,
        // and the memory keeps 100 so the drift accumulates.
        p.peer_hints[1] = vec![(1, 120)];
        assert!(block(&mut p, 1, 10).is_empty());
        p.peer_hints[1] = vec![(1, 124)];
        assert!(block(&mut p, 1, 20).is_empty());
        // +25% crosses the gate.
        p.peer_hints[1] = vec![(1, 125)];
        assert_eq!(block(&mut p, 1, 30), vec![(1, 125)]);
        // Any recovery from a figure sent as 0 is news.
        p.peer_hints[1] = vec![(2, 1)];
        assert_eq!(block(&mut p, 1, 40), vec![(2, 1)]);
    }

    #[test]
    fn window_budget_caps_entries_across_all_peers() {
        let mut p = adaptive(0, 7, vec![0; 8]);
        for peer in 1..7 {
            p.peer_hints[peer] = vec![(peer as u32, 10)];
        }
        // Four entries per window, however many datagrams leave.
        let sent: Vec<_> = (1..7).map(|peer| block(&mut p, peer, 1_000)).collect();
        assert_eq!(sent.iter().filter(|b| !b.is_empty()).count(), 4);
        assert!(
            sent[4].is_empty() && sent[5].is_empty(),
            "peers 5, 6 starve"
        );
        assert!(block(&mut p, 5, 2_000).is_empty(), "budget still spent");
        // The window rolls: peer 5 gets its first hint.
        assert_eq!(block(&mut p, 5, 1_000 + WINDOW_US), vec![(5, 10)]);
    }

    #[test]
    fn refresh_scopes_each_surplus_to_its_hardest_soliciting_peers() {
        let mut p = adaptive(0, 5, vec![0; 3]);
        let f = frags(&[100, 50, 70]);
        // Item 0 is wanted by peers 1, 2, 3 (2 hardest, then 3); item 1
        // by peer 4; nobody asks for item 2.
        p.on_request(1, ItemId(0), 10, 10, false);
        p.on_request(2, ItemId(0), 30, 30, false);
        p.on_request(3, ItemId(0), 20, 20, false);
        p.on_request(4, ItemId(1), 5, 5, false);
        p.refresh_hints(0, &f);
        assert!(p.peer_hints[1].is_empty(), "only the top two peers");
        assert_eq!(p.peer_hints[2], vec![(0, 100)]);
        assert_eq!(p.peer_hints[3], vec![(0, 100)]);
        assert_eq!(p.peer_hints[4], vec![(1, 50)]);
        // A read solicitation is not refill demand.
        p.on_request(1, ItemId(2), 0, 0, true);
        // The lists are recomputed at most once per hint TTL.
        p.on_request(1, ItemId(0), 500, 500, false);
        p.refresh_hints(1, &f);
        assert!(p.peer_hints[1].is_empty(), "refresh is rate-limited");
        p.refresh_hints(250_000, &f);
        assert_eq!(p.peer_hints[1], vec![(0, 100)]);
        assert!(p.peer_hints.iter().all(|l| l.iter().all(|h| h.0 != 2)));
    }

    #[test]
    fn max_hints_stays_a_hard_cap_on_each_list() {
        let policy = Placement::Adaptive(AdaptivePlacement {
            max_hints: 1,
            ..Default::default()
        });
        let mut p = Placer::new(policy, 0, 2, vec![0; 3]);
        for item in 0..3 {
            p.on_request(1, ItemId(item), 5, 5, false);
        }
        p.refresh_hints(0, &frags(&[10, 30, 20]));
        assert_eq!(p.peer_hints[1], vec![(1, 30)], "one entry, the largest");
    }

    #[test]
    fn non_adaptive_placement_never_gossips() {
        let mut p = Placer::new(Placement::reactive(), 0, 3, vec![10, 10]);
        p.on_request(1, ItemId(0), 5, 5, false);
        p.refresh_hints(0, &frags(&[100, 100]));
        assert!(block(&mut p, 1, 0).is_empty());
        p.ingest_hints(1, &[(0, 50)], SimTime::ZERO);
        assert_eq!(p.advertised_demand(ItemId(0), 5), 0);
        assert_eq!(p.solicit_target(ItemId(0), 5, SimTime::ZERO), Target::All);
    }

    #[test]
    fn hinted_target_debits_the_hint_and_falls_back_when_drained() {
        let mut p = adaptive(0, 3, vec![0]);
        let t0 = SimTime::ZERO;
        p.ingest_hints(2, &[(0, 12)], t0);
        let pick = p.solicit_target(ItemId(0), 8, t0);
        assert_eq!(pick, Target::Hinted { to: 2, surplus: 12 });
        // 4 left: a second 8-unit deficit no longer qualifies.
        assert_eq!(p.solicit_target(ItemId(0), 8, t0), Target::All);
        // Out-of-catalog ids off the wire are dropped, not trusted.
        p.ingest_hints(1, &[(9, 100)], t0);
    }

    #[test]
    fn crash_wipes_all_volatile_placement_state() {
        let quotas = [40, 40];
        let mut p = adaptive(0, 3, quotas.to_vec());
        let f = frags(&[400, 400]);
        let t0 = SimTime::ZERO;
        // Fill every piece of volatile state.
        p.note_local_demand(ItemId(0), 7);
        for _ in 0..8 {
            p.on_request(1, ItemId(1), 20, 20, false);
        }
        p.ingest_hints(2, &[(0, 30)], t0);
        p.on_timeout_abort(t0 + SimDuration::secs(1), &[(ItemId(0), 2, true)], &[]);
        p.on_timeout_abort(t0 + SimDuration::secs(1), &[(ItemId(1), 1, false)], &[]);
        p.ingest_hints(2, &[(1, 30)], t0);
        p.on_message_from(1);
        let mut ships = Vec::new();
        p.rebalance(&f, &LockTable::new(), t0, &mut ships);
        p.refresh_hints(0, &f);
        assert!(!block(&mut p, 1, 0).is_empty());
        assert!(p.hint_window_used > 0 && !p.hint_sent[1].is_empty());
        assert!(p.rebalance_candidate.is_some() && p.suspect_count == 1);
        assert!(p.hint_confidence < 1.0);

        p.crash_reset();
        let fresh = adaptive(0, 3, quotas.to_vec());
        assert_eq!(p.own_demand, fresh.own_demand);
        assert_eq!(p.peer_demand, fresh.peer_demand);
        assert_eq!(p.hint_table, fresh.hint_table);
        assert_eq!(p.hint_confidence, fresh.hint_confidence);
        assert_eq!(p.suspect_until, fresh.suspect_until);
        assert_eq!(p.suspect_count, fresh.suspect_count);
        assert_eq!(p.rebalance_candidate, fresh.rebalance_candidate);
        assert_eq!(p.last_hint_refresh, fresh.last_hint_refresh);
        assert_eq!(p.peer_hints, fresh.peer_hints);
        assert_eq!(p.hint_sent, fresh.hint_sent);
        assert_eq!(p.hint_window_start, fresh.hint_window_start);
        assert_eq!(p.hint_window_used, fresh.hint_window_used);
        // The first post-crash refresh and datagram behave like a cold
        // start: the recomputed list goes out in full.
        p.on_request(1, ItemId(1), 20, 20, false);
        p.refresh_hints(10, &f);
        assert!(!block(&mut p, 1, 10).is_empty());
    }
}
