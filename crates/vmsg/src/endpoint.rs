//! The per-site Vm endpoint.

use crate::channel::{Channel, Classify, Seq};
use crate::codec::{
    frame_wire_len, WireDatagram, ACK_FRAME_LEN, DATAGRAM_HEADER_LEN, HINT_ENTRY_LEN,
};
use crate::frame::Frame;
use crate::logop::VmLogOp;
use crate::stats::VmStats;
use crate::SiteId;
use bytes::Bytes;
use dvp_obs::{EventKind, Obs};

/// Tuning knobs for the Vm protocol.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Max distinct outgoing Vms transmitted per channel per tick (the
    /// sliding-window size; creation is never limited — Vms beyond the
    /// window simply wait durably for earlier ones to be acked).
    pub window: usize,
    /// Owe an ack immediately upon accepting or upon seeing a duplicate,
    /// instead of waiting for reverse traffic to piggyback on. An owed
    /// ack folds into the next outgoing [`WireDatagram`] toward the peer,
    /// or the host flushes it standalone via
    /// [`flush_owed_ack`](VmEndpoint::flush_owed_ack). Costs messages,
    /// cuts sender-state lifetime (ablation knob; the paper assumes
    /// piggybacking only).
    pub eager_acks: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            window: 16,
            eager_acks: true,
        }
    }
}

/// What [`VmEndpoint::on_frame`] tells the host about an arrival.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Receipt {
    /// A new in-order Vm. The host must either accept it — durably log
    /// its database actions plus [`VmLogOp::Accepted`] and then call
    /// [`VmEndpoint::commit_accept`] — or ignore it (it will be
    /// retransmitted).
    Fresh {
        /// Channel sequence number (pass back to `commit_accept`).
        seq: Seq,
        /// Host payload.
        payload: Bytes,
    },
    /// Already accepted earlier; discarded (the ack was refreshed).
    Duplicate,
    /// Ahead of the accept cursor; discarded (cumulative acks require
    /// in-order acceptance — the predecessor will be retransmitted).
    OutOfOrder,
    /// A standalone ack frame; nothing for the host to do.
    AckOnly,
}

/// Per-site Virtual Message endpoint.
///
/// Owns volatile channel state; durability is delegated to the host's log
/// via [`VmLogOp`] (see the crate docs for the full contract).
///
/// Channel state is **index-dense**: site ids are small dense integers,
/// so every per-peer table is a `Vec` indexed by peer id rather than a
/// tree keyed by it. Iteration in index order is exactly the sorted-key
/// order the previous `BTreeMap` layout produced, which keeps every draw
/// sequence (and hence the golden obs traces) byte-identical.
///
/// ```
/// use dvp_vmsg::{Receipt, VmConfig, VmEndpoint};
/// use bytes::Bytes;
///
/// let mut sender = VmEndpoint::new(0, VmConfig::default());
/// let mut receiver = VmEndpoint::new(1, VmConfig::default());
///
/// // Mint a Vm (the returned op goes into the sender's stable log)...
/// let _created = sender.create(1, Bytes::from_static(b"5 seats"));
/// // ...carry its frames across the (here: perfect) network...
/// for (_, frame) in sender.drain_outbox() {
///     if let Receipt::Fresh { seq, payload } = receiver.on_frame(0, frame) {
///         assert_eq!(&payload[..], b"5 seats");
///         let _accepted = receiver.commit_accept(0, seq); // log this too
///     }
/// }
/// // ...and let the (owed) ack complete the lifecycle.
/// receiver.flush_owed_ack(0);
/// for (_, frame) in receiver.drain_outbox() {
///     sender.on_frame(1, frame);
/// }
/// assert!(!sender.has_outstanding());
/// ```
#[derive(Clone, Debug)]
pub struct VmEndpoint {
    me: SiteId,
    cfg: VmConfig,
    /// Channel state per peer, indexed by peer id. `None` means the
    /// channel was never touched (the dense equivalent of "absent from
    /// the map"); slots materialize on first use and are emptied — but
    /// never shrunk — by `crash_reset`.
    chans: Vec<Option<Channel>>,
    /// Number of materialized (`Some`) entries in `chans`.
    chan_count: usize,
    /// Peers whose channel has unacked outgoing Vms. Kept exactly in sync
    /// with `chans` (`in_flight() > 0` ⇔ set) so `tick` and
    /// `has_outstanding` never scan idle channels.
    dirty: Vec<bool>,
    /// Number of set entries in `dirty`.
    dirty_count: usize,
    /// Frames ready to put on the wire.
    outbox: Vec<(SiteId, Frame)>,
    /// Vms whose lifecycle completed since the last drain (peer, seq).
    completed: Vec<(SiteId, Seq)>,
    /// Peers owed a standalone ack: the ack rides the next data datagram
    /// that way, or the host flushes it.
    ack_owed: Vec<bool>,
    /// Next outgoing datagram id per peer (ids are 1-based and
    /// per-(site, peer)). Survives `crash_reset`.
    next_datagram: Vec<u64>,
    /// Per-peer regroup buffers for `drain_datagrams_into`: frames are
    /// bucketed here per flush and the buffers' allocations are kept
    /// across flushes (always empty between calls).
    groups: Vec<Vec<Frame>>,
    /// Id of the incoming datagram currently being processed (set by
    /// [`begin_datagram`](Self::begin_datagram); 0 before the first).
    in_datagram: u64,
    /// Reused per-datagram buffer the host fills with the availability
    /// hints that datagram carries (see
    /// [`drain_datagrams_into`](Self::drain_datagrams_into)).
    hint_scratch: Vec<(u32, u64)>,
    stats: VmStats,
    /// Structured-observability handle (disabled by default; the host
    /// shares the cluster-wide handle via [`VmEndpoint::set_obs`]).
    obs: Obs,
}

impl VmEndpoint {
    /// A fresh endpoint for site `me`.
    pub fn new(me: SiteId, cfg: VmConfig) -> Self {
        VmEndpoint {
            me,
            cfg,
            chans: Vec::new(),
            chan_count: 0,
            dirty: Vec::new(),
            dirty_count: 0,
            outbox: Vec::new(),
            completed: Vec::new(),
            ack_owed: Vec::new(),
            next_datagram: Vec::new(),
            groups: Vec::new(),
            in_datagram: 0,
            hint_scratch: Vec::new(),
            stats: VmStats::default(),
            obs: Obs::disabled(),
        }
    }

    /// Attach a structured-observability handle (Vm channel events are
    /// emitted through it; timestamps come from the simulation kernel).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// This endpoint's site id.
    pub fn site(&self) -> SiteId {
        self.me
    }

    /// Protocol counters.
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// Grow every peer-indexed table to cover `peer`. `next_datagram` is
    /// grown but never cleared — its contents outlive crashes.
    fn ensure_peer(&mut self, peer: SiteId) {
        if peer < self.chans.len() {
            return;
        }
        let n = peer + 1;
        self.chans.resize_with(n, || None);
        self.dirty.resize(n, false);
        self.ack_owed.resize(n, false);
        self.groups.resize_with(n, Vec::new);
        if n > self.next_datagram.len() {
            self.next_datagram.resize(n, 0);
        }
    }

    fn chan(&mut self, peer: SiteId) -> &mut Channel {
        self.ensure_peer(peer);
        let slot = &mut self.chans[peer];
        if slot.is_none() {
            *slot = Some(Channel::default());
            self.chan_count += 1;
        }
        slot.as_mut().expect("just materialized")
    }

    fn chan_ref(&self, peer: SiteId) -> Option<&Channel> {
        self.chans.get(peer).and_then(|c| c.as_ref())
    }

    fn mark_dirty(&mut self, peer: SiteId) {
        self.ensure_peer(peer);
        if !self.dirty[peer] {
            self.dirty[peer] = true;
            self.dirty_count += 1;
        }
    }

    fn clear_dirty(&mut self, peer: SiteId) {
        if peer < self.dirty.len() && self.dirty[peer] {
            self.dirty[peer] = false;
            self.dirty_count -= 1;
        }
    }

    // ---- sending ---------------------------------------------------------

    /// Mint a Vm carrying `payload` toward `to`.
    ///
    /// Returns the [`VmLogOp::Created`] the host **must force to its log
    /// before** draining the outbox — the Vm exists from that log write,
    /// not from transmission. The first real message is queued here.
    #[must_use = "the returned VmLogOp must be written to the host's stable log"]
    pub fn create(&mut self, to: SiteId, payload: Bytes) -> VmLogOp {
        assert_ne!(to, self.me, "a site does not send Vms to itself");
        let seq = self.chan(to).create(payload.clone());
        self.mark_dirty(to);
        self.stats.created += 1;
        let ack = self.chan(to).accepted_in;
        // Transmit immediately only if within the window.
        let window_base = self.chan(to).acked_out;
        if seq <= window_base + self.cfg.window as Seq {
            let frame = Frame::Data {
                seq,
                ack,
                payload: payload.clone(),
            };
            self.stats.data_frames_sent += 1;
            self.stats.bytes_sent += frame_wire_len(&frame) as u64;
            self.outbox.push((to, frame));
            self.chan(to).highest_sent = seq;
            let datagram = self.pending_datagram_id(to);
            self.obs.emit_with(self.me as u32, || EventKind::VmSend {
                to: to as u32,
                vseq: seq,
                retransmit: false,
                datagram,
            });
        }
        VmLogOp::Created { to, seq, payload }
    }

    /// Number of created-but-unacked Vms toward `peer`.
    pub fn in_flight_to(&self, peer: SiteId) -> usize {
        self.chan_ref(peer).map_or(0, |c| c.in_flight())
    }

    /// Total created-but-unacked Vms across all peers.
    pub fn in_flight_total(&self) -> usize {
        self.chans.iter().flatten().map(|c| c.in_flight()).sum()
    }

    // ---- receiving -------------------------------------------------------

    /// Process an arriving frame from `from`.
    pub fn on_frame(&mut self, from: SiteId, frame: Frame) -> Receipt {
        // Any frame's ack releases our outgoing state toward `from`.
        let released = self.chan(from).on_ack(frame.ack());
        if !released.is_empty() {
            if self.chan(from).in_flight() == 0 {
                self.clear_dirty(from);
            }
            self.stats.acks_effective += 1;
            self.stats.completed += released.len() as u64;
            self.completed
                .extend(released.into_iter().map(|s| (from, s)));
        }
        let datagram = self.in_datagram;
        match frame {
            Frame::Ack { .. } => Receipt::AckOnly,
            Frame::Data { seq, payload, .. } => match self.chan(from).classify(seq) {
                Classify::Duplicate => {
                    self.stats.duplicates_discarded += 1;
                    self.obs.emit_with(self.me as u32, || EventKind::VmAccept {
                        from: from as u32,
                        vseq: seq,
                        receipt: "duplicate",
                        datagram,
                    });
                    // Refresh the ack so the sender can stop resending.
                    if self.cfg.eager_acks {
                        self.queue_ack(from);
                    }
                    Receipt::Duplicate
                }
                Classify::OutOfOrder => {
                    self.stats.out_of_order_discarded += 1;
                    self.obs.emit_with(self.me as u32, || EventKind::VmAccept {
                        from: from as u32,
                        vseq: seq,
                        receipt: "out_of_order",
                        datagram,
                    });
                    Receipt::OutOfOrder
                }
                Classify::Next => {
                    self.obs.emit_with(self.me as u32, || EventKind::VmAccept {
                        from: from as u32,
                        vseq: seq,
                        receipt: "fresh",
                        datagram,
                    });
                    Receipt::Fresh { seq, payload }
                }
            },
        }
    }

    /// The host has durably logged acceptance of `(from, seq)`; advance the
    /// cumulative-ack cursor and (optionally) queue an eager ack.
    ///
    /// Returns the [`VmLogOp::Accepted`] for symmetry with `create` — the
    /// host should have written exactly this op in the record it just
    /// forced (the method exists so replay and live paths share code).
    pub fn commit_accept(&mut self, from: SiteId, seq: Seq) -> VmLogOp {
        self.chan(from).commit_accept(seq);
        self.stats.accepted += 1;
        if self.cfg.eager_acks {
            self.queue_ack(from);
        }
        VmLogOp::Accepted { from, seq }
    }

    /// The cumulative ack currently advertised to `peer`.
    pub fn ack_for(&self, peer: SiteId) -> Seq {
        self.chan_ref(peer).map_or(0, |c| c.accepted_in)
    }

    /// Mark the ack toward `peer` *owed*. It folds into the next outgoing
    /// datagram toward `peer` (data frames always carry the current
    /// cumulative ack), or the host flushes it standalone via
    /// `flush_owed_ack`.
    fn queue_ack(&mut self, peer: SiteId) {
        self.ensure_peer(peer);
        if self.ack_owed[peer] {
            // Already owed: the cumulative cursor covers both
            // obligations, so this second ack rides the pending one for
            // free — one standalone frame (or one fold) now services two
            // acks. Count the avoided frame.
            self.stats.bytes_acked_piggyback += ACK_FRAME_LEN as u64;
        } else {
            self.ack_owed[peer] = true;
        }
    }

    // ---- retransmission ----------------------------------------------------

    /// Queue retransmissions of every unacked outgoing Vm (window-limited,
    /// lowest sequence numbers first). The host calls this on its
    /// retransmit timer.
    ///
    /// Only dirty channels (`in_flight() > 0`) are visited; fully-acked
    /// peers cost nothing here, however many a long run accumulates.
    pub fn tick(&mut self) {
        let VmEndpoint {
            me,
            cfg,
            chans,
            chan_count,
            dirty,
            dirty_count,
            outbox,
            next_datagram,
            stats,
            obs,
            ..
        } = self;
        stats.idle_channels_skipped += (*chan_count - *dirty_count) as u64;
        for (peer, slot) in chans.iter_mut().enumerate() {
            if !dirty[peer] {
                continue;
            }
            let chan = slot.as_mut().expect("dirty channels exist");
            let base = chan.acked_out;
            let ack = chan.accepted_in;
            let datagram = next_datagram[peer] + 1;
            let highest_sent = chan.highest_sent;
            let retx_before = chan.retx_before;
            let mut max_in_window = highest_sent;
            for (&seq, payload) in chan
                .outgoing
                .iter()
                .take_while(|(&s, _)| s <= base + cfg.window as Seq)
            {
                max_in_window = max_in_window.max(seq);
                // Retransmit pacing: a frame first sent since the previous
                // tick gets one tick of grace — its ack may still be in
                // flight, and retransmitting into that race only burns
                // datagrams. First transmissions (frames the window just
                // admitted) always go out.
                if seq <= highest_sent && seq > retx_before {
                    continue;
                }
                let frame = Frame::Data {
                    seq,
                    ack,
                    payload: payload.clone(),
                };
                stats.retransmissions += 1;
                stats.data_frames_sent += 1;
                stats.bytes_sent += frame_wire_len(&frame) as u64;
                outbox.push((peer, frame));
                obs.emit_with(*me as u32, || EventKind::VmSend {
                    to: peer as u32,
                    vseq: seq,
                    retransmit: true,
                    datagram,
                });
            }
            // Everything in the window has now been handed to the wire at
            // least once; all of it is fair game at the next tick.
            chan.highest_sent = max_in_window;
            chan.retx_before = max_in_window;
        }
    }

    /// Take all frames queued for transmission, one by one. Hosts ship
    /// frames in datagrams via
    /// [`drain_datagrams_into`](Self::drain_datagrams_into); this
    /// frame-level drain serves tests and simple harnesses, which call
    /// [`flush_owed_ack`](Self::flush_owed_ack) first to queue owed acks.
    pub fn drain_outbox(&mut self) -> Vec<(SiteId, Frame)> {
        std::mem::take(&mut self.outbox)
    }

    // ---- link-level coalescing ---------------------------------------------

    /// The datagram id the next drained datagram toward `peer` will get.
    /// Frames queued now ride exactly that datagram — the host drains at
    /// every flush boundary — so `VmSend` events can carry the id before
    /// the datagram is assembled.
    fn pending_datagram_id(&self, peer: SiteId) -> u64 {
        self.next_datagram.get(peer).copied().unwrap_or(0) + 1
    }

    /// Drain all queued frames as **one encoded datagram per peer**,
    /// appending `(peer, datagram)` pairs to `out` in ascending peer
    /// order. Per-peer frame order is preserved; each data frame's
    /// piggybacked ack is refreshed to the current cumulative cursor, and
    /// any *owed* standalone ack toward a peer with outgoing data is
    /// folded away. A data-bearing datagram that services an owed ack or
    /// advances the on-wire ack cursor counts one avoided standalone
    /// frame in [`VmStats::bytes_acked_piggyback`]. Owed acks toward
    /// peers with no outgoing data stay owed — the host flushes them via
    /// [`flush_owed_ack`](Self::flush_owed_ack).
    ///
    /// `hints(peer, block)` is asked, once per datagram while that
    /// datagram is built, to append the availability hints
    /// `(item, surplus)` it should carry. The endpoint makes no hint
    /// decisions: it encodes whatever the host supplies (an empty block
    /// keeps the encoding byte-identical to a hintless datagram) and
    /// counts it in [`VmStats::hints_sent`] and
    /// [`VmStats::hint_bytes_sent`]. Hosts without hints pass
    /// `|_, _| {}`.
    pub fn drain_datagrams_into(
        &mut self,
        out: &mut Vec<(SiteId, WireDatagram)>,
        mut hints: impl FnMut(SiteId, &mut Vec<(u32, u64)>),
    ) {
        if self.outbox.is_empty() {
            return;
        }
        // Bucket per peer into the persistent regroup buffers, preserving
        // per-peer FIFO order; peers are then visited in index order —
        // the same ascending-peer order the old BTreeMap regroup gave.
        let mut frames = std::mem::take(&mut self.outbox);
        for (to, f) in frames.drain(..) {
            self.ensure_peer(to);
            self.groups[to].push(f);
        }
        self.outbox = frames; // keep the allocation
        for to in 0..self.groups.len() {
            if self.groups[to].is_empty() {
                continue;
            }
            let mut group = std::mem::take(&mut self.groups[to]);
            self.next_datagram[to] += 1;
            let id = self.next_datagram[to];
            let ack_now = self.chan_ref(to).map_or(0, |c| c.accepted_in);
            let mut has_data = false;
            for f in &mut group {
                if let Frame::Data { ack, .. } = f {
                    *ack = ack_now;
                    has_data = true;
                }
            }
            if has_data {
                // A data-bearing datagram services the ack duty for free:
                // every data frame carries the refreshed cumulative cursor.
                // Count the avoided standalone frame whenever an ack was
                // owed *or* the cursor on the wire advances past what this
                // endpoint last transmitted toward the peer — without the
                // piggyback, either case costs one encoded `Frame::Ack`.
                let owed = std::mem::replace(&mut self.ack_owed[to], false);
                let chan = self.chan(to);
                let advanced = ack_now > chan.ack_sent;
                chan.ack_sent = ack_now;
                if owed || advanced {
                    self.stats.bytes_acked_piggyback += ACK_FRAME_LEN as u64;
                    self.obs.emit_with(self.me as u32, || EventKind::VmAck {
                        to: to as u32,
                        upto: ack_now,
                        datagram: id,
                    });
                }
            }
            self.hint_scratch.clear();
            hints(to, &mut self.hint_scratch);
            let wire = WireDatagram::encode_with_hints(id, &group, &self.hint_scratch);
            self.stats.datagrams_sent += 1;
            self.stats.bytes_sent += DATAGRAM_HEADER_LEN as u64;
            if !self.hint_scratch.is_empty() {
                let section = 4 + self.hint_scratch.len() * HINT_ENTRY_LEN;
                self.stats.hints_sent += self.hint_scratch.len() as u64;
                self.stats.hint_bytes_sent += section as u64;
                self.stats.bytes_sent += section as u64;
            }
            group.clear();
            self.groups[to] = group; // keep the allocation
            out.push((to, wire));
        }
    }

    /// Flush an owed ack toward `peer` as a standalone `Ack` frame
    /// (queued; the next [`drain_datagrams_into`](Self::drain_datagrams_into)
    /// ships it as an ack-only datagram). Returns whether an ack was
    /// actually owed. The host calls this when no reverse data traffic
    /// is going to piggyback the ack.
    pub fn flush_owed_ack(&mut self, peer: SiteId) -> bool {
        if peer >= self.ack_owed.len() || !self.ack_owed[peer] {
            return false;
        }
        self.ack_owed[peer] = false;
        let ack = {
            let chan = self.chan(peer);
            chan.ack_sent = chan.ack_sent.max(chan.accepted_in);
            chan.accepted_in
        };
        self.outbox.push((peer, Frame::Ack { ack }));
        self.stats.ack_frames_sent += 1;
        self.stats.bytes_sent += ACK_FRAME_LEN as u64;
        let datagram = self.pending_datagram_id(peer);
        self.obs.emit_with(self.me as u32, || EventKind::VmAck {
            to: peer as u32,
            upto: ack,
            datagram,
        });
        true
    }

    /// Peers currently owed a standalone ack, in ascending order (the
    /// host flushes each after draining its data datagrams).
    pub fn owed_ack_peers(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.ack_owed
            .iter()
            .enumerate()
            .filter_map(|(peer, &owed)| owed.then_some(peer))
    }

    /// Whether `peer` is owed a standalone ack.
    pub fn has_owed_ack(&self, peer: SiteId) -> bool {
        self.ack_owed.get(peer).copied().unwrap_or(false)
    }

    /// Mark the start of processing an incoming datagram: subsequent
    /// `VmAccept` events carry `id` until the next datagram begins.
    pub fn begin_datagram(&mut self, id: u64) {
        self.in_datagram = id;
    }

    /// Take the `(peer, seq)` pairs whose lifecycles completed (cumulative
    /// ack observed) since the last call. Hosts use this to release
    /// per-item bookkeeping (e.g. "outstanding Vms for item d").
    pub fn drain_completed(&mut self) -> Vec<(SiteId, Seq)> {
        std::mem::take(&mut self.completed)
    }

    /// Allocation-free variant of [`drain_completed`](Self::drain_completed):
    /// append into the host's reusable scratch vector.
    pub fn drain_completed_into(&mut self, out: &mut Vec<(SiteId, Seq)>) {
        out.append(&mut self.completed);
    }

    /// Unacked outgoing Vms toward `peer` as `(seq, payload)`, ascending.
    /// The conservation auditor uses this to value in-flight Vms.
    ///
    /// Lazily iterates the channel state — no `Vec` is built. The yielded
    /// `Bytes` payloads are refcounted slices, so each "clone" is a
    /// pointer copy plus a counter bump, never a payload copy.
    pub fn outgoing_toward(&self, peer: SiteId) -> impl Iterator<Item = (Seq, Bytes)> + '_ {
        self.chan_ref(peer)
            .into_iter()
            .flat_map(|c| c.outgoing.iter().map(|(&s, p)| (s, p.clone())))
    }

    /// Peers this endpoint has channel state with, in ascending order.
    pub fn peers(&self) -> Vec<SiteId> {
        self.chans
            .iter()
            .enumerate()
            .filter_map(|(peer, c)| c.as_ref().map(|_| peer))
            .collect()
    }

    /// Whether any channel still has unacked outgoing Vms (i.e. `tick`
    /// still has work to do). O(1): the dirty count tracks exactly the
    /// channels with in-flight Vms.
    pub fn has_outstanding(&self) -> bool {
        self.dirty_count > 0
    }

    // ---- crash / recovery --------------------------------------------------

    /// Reset volatile state after a crash. Channel state is rebuilt by
    /// [`replay`](Self::replay); queued frames are simply lost (they were
    /// only real messages).
    pub fn crash_reset(&mut self) {
        for c in &mut self.chans {
            *c = None;
        }
        self.chan_count = 0;
        for d in &mut self.dirty {
            *d = false;
        }
        self.dirty_count = 0;
        self.outbox.clear();
        self.completed.clear();
        for a in &mut self.ack_owed {
            *a = false;
        }
        self.in_datagram = 0;
        // `next_datagram` survives: it is pure wire-level numbering, and
        // keeping it monotone means datagram ids in a trace never repeat
        // for a (site, peer) pair across crashes.
        self.stats.crash_resets += 1;
    }

    /// Rebuild state from one durable log op (called in log order during
    /// the host's recovery scan).
    pub fn replay(&mut self, op: &VmLogOp) {
        match op {
            VmLogOp::Created { to, seq, payload } => {
                let c = self.chan(*to);
                c.last_created = (*seq).max(c.last_created);
                c.outgoing.insert(*seq, payload.clone());
                self.mark_dirty(*to);
            }
            VmLogOp::Accepted { from, seq } => {
                let c = self.chan(*from);
                debug_assert_eq!(*seq, c.accepted_in + 1, "log replays accepts in order");
                c.accepted_in = *seq;
            }
            VmLogOp::AckObserved { to, seq } => {
                let c = self.chan(*to);
                c.on_ack(*seq);
                if c.in_flight() == 0 {
                    self.clear_dirty(*to);
                }
            }
        }
    }

    /// Highest ack observed from `peer` (for emitting `AckObserved` ops).
    pub fn acked_out(&self, peer: SiteId) -> Seq {
        self.chan_ref(peer).map_or(0, |c| c.acked_out)
    }

    /// Highest sequence number ever created toward `peer` (channel-oracle
    /// input: together with `acked_out` it bounds the live window).
    pub fn last_created(&self, peer: SiteId) -> Seq {
        self.chan_ref(peer).map_or(0, |c| c.last_created)
    }

    // ---- checkpointing -----------------------------------------------------

    /// Snapshot all durable channel state (for host checkpoints). The
    /// snapshot plus replay of later `VmLogOp`s reconstructs the
    /// endpoint exactly.
    ///
    /// This returns owned state by design — a checkpoint must not alias
    /// the live endpoint — but the payload "copies" are `Bytes` refcount
    /// bumps, so the cost is per-entry bookkeeping, not payload bytes.
    pub fn snapshot(&self) -> Vec<ChannelSnapshot> {
        self.chans
            .iter()
            .enumerate()
            .filter_map(|(peer, c)| c.as_ref().map(|c| (peer, c)))
            .map(|(peer, c)| ChannelSnapshot {
                peer,
                last_created: c.last_created,
                acked_out: c.acked_out,
                accepted_in: c.accepted_in,
                outgoing: c.outgoing.iter().map(|(&s, p)| (s, p.clone())).collect(),
            })
            .collect()
    }

    /// Restore channel state from a snapshot (after `crash_reset`).
    pub fn restore(&mut self, snaps: &[ChannelSnapshot]) {
        for s in snaps {
            let c = self.chan(s.peer);
            c.last_created = s.last_created;
            c.acked_out = s.acked_out;
            c.accepted_in = s.accepted_in;
            c.outgoing = s.outgoing.iter().cloned().collect();
            if c.in_flight() > 0 {
                self.mark_dirty(s.peer);
            } else {
                self.clear_dirty(s.peer);
            }
        }
    }
}

/// Durable image of one channel, produced by [`VmEndpoint::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelSnapshot {
    /// Peer site.
    pub peer: SiteId,
    /// Last sequence number created toward the peer.
    pub last_created: Seq,
    /// Highest cumulative ack received from the peer.
    pub acked_out: Seq,
    /// Highest in-order sequence accepted from the peer.
    pub accepted_in: Seq,
    /// Unacked outgoing Vms.
    pub outgoing: Vec<(Seq, Bytes)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn pair() -> (VmEndpoint, VmEndpoint) {
        (
            VmEndpoint::new(0, VmConfig::default()),
            VmEndpoint::new(1, VmConfig::default()),
        )
    }

    /// Deliver every outbox frame of `a` to `b`, owed ack included,
    /// returning receipts.
    fn flush(a: &mut VmEndpoint, b: &mut VmEndpoint) -> Vec<Receipt> {
        a.flush_owed_ack(b.site());
        let frames = a.drain_outbox();
        frames
            .into_iter()
            .map(|(to, f)| {
                assert_eq!(to, b.site());
                b.on_frame(a.site(), f)
            })
            .collect()
    }

    #[test]
    fn happy_path_create_accept_ack() {
        let (mut s, mut r) = pair();
        let op = s.create(1, b("5 seats"));
        assert!(matches!(op, VmLogOp::Created { to: 1, seq: 1, .. }));
        assert_eq!(s.in_flight_to(1), 1);

        let receipts = flush(&mut s, &mut r);
        let (seq, payload) = match &receipts[0] {
            Receipt::Fresh { seq, payload } => (*seq, payload.clone()),
            other => panic!("expected Fresh, got {other:?}"),
        };
        assert_eq!(payload, b("5 seats"));
        let op = r.commit_accept(0, seq);
        assert_eq!(op, VmLogOp::Accepted { from: 0, seq: 1 });

        // The owed ack flows back and releases the sender's state.
        let receipts = flush(&mut r, &mut s);
        assert_eq!(receipts, vec![Receipt::AckOnly]);
        assert_eq!(s.in_flight_to(1), 0);
        assert!(!s.has_outstanding());
        assert_eq!(s.stats().completed, 1);
    }

    #[test]
    fn lost_frame_is_retransmitted_until_acked() {
        let (mut s, mut r) = pair();
        let _op = s.create(1, b("x"));
        let _lost = s.drain_outbox(); // network eats the first copy

        // Still outstanding, so a tick regenerates it (the first tick only
        // lifts the fresh frame's one-tick retransmit grace).
        assert!(s.has_outstanding());
        s.tick();
        assert!(
            s.drain_outbox().is_empty(),
            "grace tick retransmits nothing"
        );
        s.tick();
        let receipts = flush(&mut s, &mut r);
        assert!(matches!(receipts[0], Receipt::Fresh { seq: 1, .. }));
        r.commit_accept(0, 1);
        flush(&mut r, &mut s);
        assert!(!s.has_outstanding());
        assert!(s.stats().retransmissions >= 1);
    }

    #[test]
    fn duplicates_are_discarded_and_reacked() {
        let (mut s, mut r) = pair();
        let _ = s.create(1, b("x"));
        let frames = s.drain_outbox();
        let (_, frame) = frames.into_iter().next().unwrap();

        assert!(matches!(
            r.on_frame(0, frame.clone()),
            Receipt::Fresh { .. }
        ));
        r.commit_accept(0, 1);
        r.flush_owed_ack(0);
        r.drain_outbox(); // discard the eager ack

        // The same frame arrives again (network duplication).
        assert_eq!(r.on_frame(0, frame), Receipt::Duplicate);
        assert_eq!(r.stats().duplicates_discarded, 1);
        // Duplicate triggered an ack refresh.
        assert!(r.flush_owed_ack(0));
        let refreshed = r.drain_outbox();
        assert!(matches!(refreshed[0].1, Frame::Ack { ack: 1 }));
    }

    #[test]
    fn out_of_order_frames_are_not_accepted() {
        let (mut s, mut r) = pair();
        let _ = s.create(1, b("first"));
        let _ = s.create(1, b("second"));
        let frames = s.drain_outbox();
        // Deliver only the second frame.
        let (_, f2) = frames.into_iter().nth(1).unwrap();
        assert_eq!(r.on_frame(0, f2), Receipt::OutOfOrder);
        assert_eq!(r.ack_for(0), 0);
        // Retransmission brings both, in order this time (after the
        // one-tick grace).
        s.tick();
        s.tick();
        let receipts = flush(&mut s, &mut r);
        assert!(matches!(receipts[0], Receipt::Fresh { seq: 1, .. }));
        r.commit_accept(0, 1);
        assert!(matches!(
            receipts[1],
            Receipt::Fresh { .. } | Receipt::OutOfOrder
        ));
    }

    #[test]
    fn ignored_fresh_frame_comes_back() {
        // Host ignores a Fresh receipt (e.g. item locked) — no commit_accept.
        let (mut s, mut r) = pair();
        let _ = s.create(1, b("x"));
        let receipts = flush(&mut s, &mut r);
        assert!(matches!(receipts[0], Receipt::Fresh { .. }));
        // Cursor unmoved; retransmission redelivers as Fresh again.
        s.tick();
        s.tick();
        let receipts = flush(&mut s, &mut r);
        assert!(matches!(receipts[0], Receipt::Fresh { seq: 1, .. }));
    }

    #[test]
    fn window_limits_transmission_not_creation() {
        let cfg = VmConfig {
            window: 2,
            ..VmConfig::default()
        };
        let mut s = VmEndpoint::new(0, cfg);
        let mut r = VmEndpoint::new(1, cfg);
        for i in 0..5 {
            let _ = s.create(1, b(&format!("m{i}")));
        }
        assert_eq!(s.in_flight_to(1), 5, "creation is unlimited");
        // Only the first two were put on the wire.
        let frames = s.drain_outbox();
        assert_eq!(frames.len(), 2);
        for (_, f) in frames {
            if let Receipt::Fresh { seq, .. } = r.on_frame(0, f) {
                r.commit_accept(0, seq);
            }
        }
        // Acks slide the window; next tick transmits 3 and 4.
        flush(&mut r, &mut s);
        s.tick();
        let seqs: Vec<Seq> = s
            .drain_outbox()
            .iter()
            .filter_map(|(_, f)| match f {
                Frame::Data { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn all_acked_endpoint_tick_does_no_work() {
        let (mut s, mut r) = pair();
        // Complete a full lifecycle on the 0→1 channel.
        let _ = s.create(1, b("x"));
        for receipt in flush(&mut s, &mut r) {
            if let Receipt::Fresh { seq, .. } = receipt {
                r.commit_accept(0, seq);
            }
        }
        flush(&mut r, &mut s);
        assert!(!s.has_outstanding());

        // The channel exists but is idle: a tick must skip it, queue
        // nothing, and count nothing as a retransmission.
        let before = *s.stats();
        s.tick();
        assert!(s.drain_outbox().is_empty(), "idle tick queued frames");
        assert_eq!(s.stats().retransmissions, before.retransmissions);
        assert_eq!(s.stats().data_frames_sent, before.data_frames_sent);
        assert_eq!(
            s.stats().idle_channels_skipped,
            before.idle_channels_skipped + 1,
            "the idle channel must be counted as skipped"
        );
    }

    #[test]
    fn tick_visits_only_dirty_channels() {
        let cfg = VmConfig::default();
        let mut s = VmEndpoint::new(0, cfg);
        let mut r1 = VmEndpoint::new(1, cfg);
        // Channel 0→1 completes; channel 0→2 stays in flight.
        let _ = s.create(1, b("done"));
        for receipt in flush(&mut s, &mut r1) {
            if let Receipt::Fresh { seq, .. } = receipt {
                r1.commit_accept(0, seq);
            }
        }
        flush(&mut r1, &mut s);
        let _ = s.create(2, b("pending"));
        s.drain_outbox(); // lose the original transmission

        assert!(s.has_outstanding());
        s.tick(); // grace tick
        s.tick();
        let frames = s.drain_outbox();
        assert_eq!(frames.len(), 1, "only the in-flight Vm is retransmitted");
        assert_eq!(frames[0].0, 2);
        assert_eq!(
            s.stats().idle_channels_skipped,
            2,
            "channel to 1 skipped on both ticks"
        );
    }

    #[test]
    fn drain_completed_into_appends_to_caller_buffer() {
        let (mut s, mut r) = pair();
        let _ = s.create(1, b("x"));
        for receipt in flush(&mut s, &mut r) {
            if let Receipt::Fresh { seq, .. } = receipt {
                r.commit_accept(0, seq);
            }
        }
        flush(&mut r, &mut s);
        let mut completed = Vec::new();
        s.drain_completed_into(&mut completed);
        assert_eq!(completed, vec![(1, 1)]);
        // A second drain finds the endpoint buffer empty.
        s.drain_completed_into(&mut completed);
        assert_eq!(completed.len(), 1, "append semantics: caller clears");
    }

    #[test]
    fn outgoing_toward_iterates_without_collecting() {
        let mut s = VmEndpoint::new(0, VmConfig::default());
        let _ = s.create(1, b("a"));
        let _ = s.create(1, b("b"));
        let seqs: Vec<Seq> = s.outgoing_toward(1).map(|(seq, _)| seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(s.outgoing_toward(7).count(), 0, "unknown peer is empty");
    }

    #[test]
    fn crash_and_replay_restores_outstanding_vms() {
        let (mut s, mut r) = pair();
        let op1 = s.create(1, b("a"));
        let op2 = s.create(1, b("b"));
        s.drain_outbox(); // both lost

        // Sender crashes; volatile state gone.
        s.crash_reset();
        assert_eq!(s.in_flight_to(1), 0);

        // Recovery replays the durable Created ops.
        s.replay(&op1);
        s.replay(&op2);
        assert_eq!(s.in_flight_to(1), 2);

        // Normal processing resumes: retransmit rounds until everything is
        // accepted and acked. (Frames delivered in one batch are classified
        // before the intervening commits, so seq 2 is out-of-order on the
        // first round — the retransmission machinery absorbs that.)
        for _round in 0..4 {
            if !s.has_outstanding() {
                break;
            }
            s.tick();
            for receipt in flush(&mut s, &mut r) {
                if let Receipt::Fresh { seq, .. } = receipt {
                    r.commit_accept(0, seq);
                }
            }
            flush(&mut r, &mut s);
        }
        assert!(!s.has_outstanding());
    }

    #[test]
    fn receiver_crash_replay_preserves_dedup() {
        let (mut s, mut r) = pair();
        let _ = s.create(1, b("a"));
        let mut accepted_ops = Vec::new();
        for receipt in flush(&mut s, &mut r) {
            if let Receipt::Fresh { seq, .. } = receipt {
                accepted_ops.push(r.commit_accept(0, seq));
            }
        }
        // Receiver crashes after durably accepting; ack to sender was lost.
        r.crash_reset();
        for op in &accepted_ops {
            r.replay(op);
        }
        // Sender retransmits (after the one-tick grace); receiver must
        // classify as duplicate, not re-apply (that would double-count
        // the value!).
        s.tick();
        s.tick();
        let receipts = flush(&mut s, &mut r);
        assert_eq!(receipts, vec![Receipt::Duplicate]);
    }

    #[test]
    fn ack_observed_replay_trims_sender_state() {
        let mut s = VmEndpoint::new(0, VmConfig::default());
        let op = s.create(1, b("a"));
        s.crash_reset();
        s.replay(&op);
        s.replay(&VmLogOp::AckObserved { to: 1, seq: 1 });
        assert_eq!(s.in_flight_to(1), 0);
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn self_send_is_a_bug() {
        let mut s = VmEndpoint::new(0, VmConfig::default());
        let _ = s.create(0, Bytes::new());
    }

    #[test]
    fn snapshot_restore_roundtrips_exactly() {
        let (mut s, mut r) = pair();
        let _ = s.create(1, b("a"));
        let _ = s.create(1, b("b"));
        for receipt in flush(&mut s, &mut r) {
            if let Receipt::Fresh { seq, .. } = receipt {
                r.commit_accept(0, seq);
            }
        }
        flush(&mut r, &mut s); // acks release seq 1 (seq 2 was batched out of order)
        let snap = s.snapshot();
        let mut s2 = VmEndpoint::new(0, VmConfig::default());
        s2.restore(&snap);
        assert_eq!(s2.snapshot(), snap);
        assert_eq!(s2.in_flight_to(1), s.in_flight_to(1));
        assert_eq!(s2.ack_for(1), s.ack_for(1));
        // The restored endpoint continues the sequence space correctly.
        let op = s2.create(1, b("c"));
        assert!(matches!(op, crate::VmLogOp::Created { seq: 3, .. }));
    }

    /// Deliver every drained datagram of `a` to `b`, returning receipts.
    fn flush_datagrams(a: &mut VmEndpoint, b: &mut VmEndpoint) -> Vec<Receipt> {
        let mut dgrams = Vec::new();
        a.drain_datagrams_into(&mut dgrams, |_, _| {});
        let mut receipts = Vec::new();
        for (to, wire) in dgrams {
            assert_eq!(to, b.site());
            let d = wire.decode();
            b.begin_datagram(d.id);
            for f in d.frames {
                receipts.push(b.on_frame(a.site(), f));
            }
        }
        receipts
    }

    #[test]
    fn coalesced_drain_builds_one_datagram_per_peer() {
        let mut s = VmEndpoint::new(0, VmConfig::default());
        let _ = s.create(1, b("a"));
        let _ = s.create(2, b("b"));
        let _ = s.create(1, b("c"));
        let mut dgrams = Vec::new();
        s.drain_datagrams_into(&mut dgrams, |_, _| {});
        assert_eq!(dgrams.len(), 2, "one datagram per peer");
        assert!(
            dgrams.windows(2).all(|w| w[0].0 < w[1].0),
            "datagrams come out in ascending peer order"
        );
        let to1 = &dgrams.iter().find(|(to, _)| *to == 1).unwrap().1;
        assert_eq!(to1.frame_count(), 2, "both frames toward 1 coalesced");
        assert_eq!(to1.decode().id, 1, "ids are 1-based per peer");
        assert_eq!(s.stats().datagrams_sent, 2);
        assert!(s.stats().bytes_sent > 0);
        // Per-channel FIFO order survives the coalescing.
        let seqs: Vec<Seq> = to1
            .decode()
            .frames
            .iter()
            .filter_map(|f| match f {
                Frame::Data { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn coalesced_lifecycle_with_owed_ack_piggyback() {
        let mut s = VmEndpoint::new(0, VmConfig::default());
        let mut r = VmEndpoint::new(1, VmConfig::default());
        let _ = s.create(1, b("x"));
        for receipt in flush_datagrams(&mut s, &mut r) {
            if let Receipt::Fresh { seq, .. } = receipt {
                r.commit_accept(0, seq);
            }
        }
        // The eager ack became an *owed* ack — nothing on the wire yet.
        assert!(r.has_owed_ack(0));
        let mut none = Vec::new();
        r.drain_datagrams_into(&mut none, |_, _| {});
        assert!(none.is_empty(), "owed ack alone does not build a datagram");
        // Reverse data traffic folds it in for free.
        let _ = r.create(0, b("reverse"));
        let mut dgrams = Vec::new();
        r.drain_datagrams_into(&mut dgrams, |_, _| {});
        assert_eq!(dgrams.len(), 1);
        assert!(!r.has_owed_ack(0), "owed ack folded into the datagram");
        assert_eq!(r.stats().bytes_acked_piggyback, ACK_FRAME_LEN as u64);
        assert_eq!(r.stats().ack_frames_sent, 0, "no standalone ack frame");
        let d = dgrams[0].1.decode();
        match &d.frames[0] {
            Frame::Data { ack, .. } => assert_eq!(*ack, 1, "refreshed piggyback ack"),
            other => panic!("expected data frame, got {other:?}"),
        }
        // Delivering it releases the sender's outgoing state.
        for (_, wire) in dgrams {
            let d = wire.decode();
            s.begin_datagram(d.id);
            for f in d.frames {
                s.on_frame(1, f);
            }
        }
        assert!(!s.has_outstanding());
    }

    #[test]
    fn second_owed_ack_merges_and_is_counted_as_piggybacked() {
        // Two accepts from the same peer inside one dispatch: the first
        // marks the ack owed, the second merges into it. The merge must
        // be counted as a saved standalone ack frame — this is the
        // dominant piggyback saving under datagram coalescing, where a
        // multi-frame datagram produces several accepts back to back.
        let mut s = VmEndpoint::new(0, VmConfig::default());
        let mut r = VmEndpoint::new(1, VmConfig::default());
        let _ = s.create(1, b("a"));
        let _ = s.create(1, b("b"));
        let mut dgrams = Vec::new();
        s.drain_datagrams_into(&mut dgrams, |_, _| {});
        for (_, wire) in dgrams {
            let d = wire.decode();
            r.begin_datagram(d.id);
            // Commit each accept as it lands — the way a real host
            // processes a datagram — so the second frame is in order.
            for f in d.frames {
                if let Receipt::Fresh { seq, .. } = r.on_frame(0, f) {
                    r.commit_accept(0, seq);
                }
            }
        }
        assert!(r.has_owed_ack(0));
        assert_eq!(
            r.stats().bytes_acked_piggyback,
            ACK_FRAME_LEN as u64,
            "the merged second ack counts as one saved frame"
        );
        // The surviving owed ack flushes standalone: one frame acking both.
        assert!(r.flush_owed_ack(0));
        let mut dgrams = Vec::new();
        r.drain_datagrams_into(&mut dgrams, |_, _| {});
        let d = dgrams[0].1.decode();
        assert_eq!(d.frames, vec![Frame::Ack { ack: 2 }]);
        assert_eq!(r.stats().ack_frames_sent, 1);
    }

    #[test]
    fn data_carried_ack_advance_counts_without_an_owed_ack() {
        // Piggyback-only mode (eager acks off): acks ride data frames
        // exclusively and nothing is ever *owed*, yet the refreshed
        // cumulative cursor on reverse data is the peer's only ack
        // channel. Each datagram that advances the on-wire cursor avoids
        // the standalone frame an eager configuration would have sent —
        // the saving the stat measures.
        let piggyback_only = || VmConfig {
            eager_acks: false,
            ..VmConfig::default()
        };
        let mut s = VmEndpoint::new(0, piggyback_only());
        let mut r = VmEndpoint::new(1, piggyback_only());
        let _ = s.create(1, b("a"));
        for receipt in flush_datagrams(&mut s, &mut r) {
            if let Receipt::Fresh { seq, .. } = receipt {
                r.commit_accept(0, seq);
            }
        }
        assert!(!r.has_owed_ack(0), "piggyback-only mode owes nothing");
        // Reverse data carries ack=1: an advance over the never-sent 0.
        let _ = r.create(0, b("reverse"));
        let mut dgrams = Vec::new();
        r.drain_datagrams_into(&mut dgrams, |_, _| {});
        assert_eq!(
            r.stats().bytes_acked_piggyback,
            ACK_FRAME_LEN as u64,
            "the advanced cursor is one avoided standalone ack frame"
        );
        assert_eq!(r.stats().ack_frames_sent, 0);
        match &dgrams[0].1.decode().frames[0] {
            Frame::Data { ack, .. } => assert_eq!(*ack, 1),
            other => panic!("expected data frame, got {other:?}"),
        }
        // A retransmission re-ships the same cursor: no advance, no
        // additional saving — the stat counts frames avoided, not
        // datagrams that happen to carry an ack. (Two ticks: the first
        // only lifts the fresh frame's one-tick retransmit grace.)
        r.tick();
        r.tick();
        dgrams.clear();
        r.drain_datagrams_into(&mut dgrams, |_, _| {});
        assert_eq!(dgrams.len(), 1, "retransmission went out");
        assert_eq!(
            r.stats().bytes_acked_piggyback,
            ACK_FRAME_LEN as u64,
            "an unchanged cursor is not counted again"
        );
    }

    #[test]
    fn owed_ack_flushes_standalone_without_reverse_traffic() {
        let mut s = VmEndpoint::new(0, VmConfig::default());
        let mut r = VmEndpoint::new(1, VmConfig::default());
        let _ = s.create(1, b("x"));
        for receipt in flush_datagrams(&mut s, &mut r) {
            if let Receipt::Fresh { seq, .. } = receipt {
                r.commit_accept(0, seq);
            }
        }
        assert_eq!(r.owed_ack_peers().collect::<Vec<_>>(), vec![0]);
        // No reverse traffic: the host flushes the owed ack standalone.
        assert!(r.flush_owed_ack(0));
        assert!(!r.flush_owed_ack(0), "second flush finds nothing owed");
        let mut dgrams = Vec::new();
        r.drain_datagrams_into(&mut dgrams, |_, _| {});
        assert_eq!(dgrams.len(), 1);
        let d = dgrams[0].1.decode();
        assert_eq!(d.frames, vec![Frame::Ack { ack: 1 }]);
        assert_eq!(r.stats().ack_frames_sent, 1);
        for (_, wire) in dgrams {
            let d = wire.decode();
            s.begin_datagram(d.id);
            for f in d.frames {
                s.on_frame(1, f);
            }
        }
        assert!(!s.has_outstanding());
    }

    #[test]
    fn host_hint_blocks_ride_their_datagrams_and_are_counted() {
        let mut s = VmEndpoint::new(0, VmConfig::default());
        let _ = s.create(1, b("a"));
        let _ = s.create(2, b("b"));
        let mut asked = Vec::new();
        let mut dgrams = Vec::new();
        // The host decides per peer: two hints for peer 1, none for 2.
        s.drain_datagrams_into(&mut dgrams, |peer, block| {
            asked.push(peer);
            if peer == 1 {
                block.extend_from_slice(&[(7, 40), (9, 3)]);
            }
        });
        assert_eq!(asked, vec![1, 2], "asked once per datagram, in peer order");
        assert_eq!(dgrams[0].1.decode().hints, vec![(7, 40), (9, 3)]);
        assert!(
            dgrams[1].1.decode().hints.is_empty(),
            "an empty block elides the hint section"
        );
        let section = (4 + 2 * HINT_ENTRY_LEN) as u64;
        assert_eq!(s.stats().hints_sent, 2);
        assert_eq!(s.stats().hint_bytes_sent, section);
        let frames: u64 = dgrams
            .iter()
            .flat_map(|(_, w)| w.decode().frames)
            .map(|f| frame_wire_len(&f) as u64)
            .sum();
        assert_eq!(
            s.stats().bytes_sent,
            frames + 2 * DATAGRAM_HEADER_LEN as u64 + section,
            "the hint section is wire volume"
        );
    }

    #[test]
    fn datagram_ids_stay_monotone_across_crash() {
        let mut s = VmEndpoint::new(0, VmConfig::default());
        let op = s.create(1, b("a"));
        let mut dgrams = Vec::new();
        s.drain_datagrams_into(&mut dgrams, |_, _| {});
        assert_eq!(dgrams[0].1.decode().id, 1);
        s.crash_reset();
        s.replay(&op);
        s.tick();
        dgrams.clear();
        s.drain_datagrams_into(&mut dgrams, |_, _| {});
        assert_eq!(
            dgrams[0].1.decode().id,
            2,
            "post-crash datagrams continue the id sequence"
        );
    }

    #[test]
    fn piggyback_only_mode_sends_no_ack_frames() {
        let cfg = VmConfig {
            eager_acks: false,
            ..VmConfig::default()
        };
        let mut s = VmEndpoint::new(0, cfg);
        let mut r = VmEndpoint::new(1, cfg);
        let _ = s.create(1, b("x"));
        for receipt in flush(&mut s, &mut r) {
            if let Receipt::Fresh { seq, .. } = receipt {
                r.commit_accept(0, seq);
            }
        }
        assert!(r.drain_outbox().is_empty(), "no eager ack in this mode");
        // The ack instead rides the next data frame in the reverse direction.
        let _ = r.create(0, b("reverse"));
        let frames = r.drain_outbox();
        match &frames[0].1 {
            Frame::Data { ack, .. } => assert_eq!(*ack, 1),
            other => panic!("expected data frame, got {other:?}"),
        }
    }
}
