//! The traced run: every `SiteNode` callback timed from outside.
//!
//! [`Timed`] wraps a site and delegates every [`Node`] callback to it
//! unchanged, recording one in-memory [`Span`] per callback. Wall time the
//! kernel spends outside the spans is the simulation kernel's own
//! (`simnet`) time.

use crate::outcome::Outcome;
use crate::workload::Setup;
use dvp_core::site::{Body, ProtoMsg};
use dvp_core::SiteNode;
use dvp_simnet::node::{Context, Node, TimerId};
use dvp_simnet::NodeId;
use dvp_vmsg::WireDatagram;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Allocation events so far. Stays 0 unless the binary installs
/// [`CountingAlloc`] as its global allocator.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator with an allocation-event counter (allocs and
/// reallocs, as `dvp-bench`'s `alloc-audit` counts them).
pub struct CountingAlloc;

// SAFETY: a pass-through to `System`; the counter has no influence on the
// pointers or layouts returned.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // `System.alloc` shares.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System` with this layout (every
        // allocation above is `System`'s).
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, plus the caller's `realloc` contract.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events so far (0 without [`CountingAlloc`]).
pub(crate) fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Which site handler a span covers. Timers are split by the top byte of
/// their tag, mirroring the tag kinds `dvp_core::site` arms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Handler {
    /// A scripted transaction arrives (`on_external`).
    External,
    /// A Vm datagram or frame arrives.
    Datagram,
    /// A solicitation arrives.
    Request,
    /// A read-lease release arrives.
    Release,
    /// The site restarts (`on_recover`).
    Recover,
    /// The site crashes (`on_crash`): this is where the redo scan of the
    /// stable log runs.
    Crash,
    /// Vm retransmission tick.
    Retransmit,
    /// Transaction timeout.
    Timeout,
    /// Read-lease expiry.
    Lease,
    /// Solicitation retry.
    SolicitRetry,
    /// Rebalance tick.
    Rebalance,
    /// Delayed standalone ack.
    DelayedAck,
    /// Simulation start, or a timer kind this table does not know.
    Other,
}

impl Handler {
    /// Number of handler kinds.
    pub const COUNT: usize = Handler::Other as usize + 1;

    /// The handlers reported one by one, in report order; `Other` counts
    /// toward the totals only.
    pub const REPORTED: [Handler; 12] = [
        Handler::External,
        Handler::Datagram,
        Handler::Request,
        Handler::Release,
        Handler::Recover,
        Handler::Crash,
        Handler::Retransmit,
        Handler::Timeout,
        Handler::Lease,
        Handler::SolicitRetry,
        Handler::Rebalance,
        Handler::DelayedAck,
    ];

    /// Metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            Handler::External => "external",
            Handler::Datagram => "datagram",
            Handler::Request => "request",
            Handler::Release => "release",
            Handler::Recover => "recover",
            Handler::Crash => "crash",
            Handler::Retransmit => "timer.retransmit",
            Handler::Timeout => "timer.timeout",
            Handler::Lease => "timer.lease",
            Handler::SolicitRetry => "timer.solicit_retry",
            Handler::Rebalance => "timer.rebalance",
            Handler::DelayedAck => "timer.delayed_ack",
            Handler::Other => "other",
        }
    }

    /// Classify a timer by its tag's top byte; also returns the txn id the
    /// tag carries, if any.
    fn timer(tag: u64) -> (Handler, Option<u64>) {
        let payload = tag & ((1 << 56) - 1);
        match tag >> 56 {
            1 => (Handler::Timeout, Some(payload)),
            2 => (Handler::Retransmit, None),
            3 => (Handler::Lease, None),
            4 => (Handler::SolicitRetry, Some(payload)),
            5 => (Handler::Rebalance, None),
            6 => (Handler::DelayedAck, None),
            _ => (Handler::Other, None),
        }
    }
}

/// One timed callback.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The handler.
    pub handler: Handler,
    /// Virtual time of the callback, µs.
    pub vt_us: u64,
    /// Wall-clock start, ns since the run's epoch.
    pub start_ns: u64,
    /// Wall-clock end, ns since the run's epoch.
    pub end_ns: u64,
    /// Allocation events inside the span (0 without [`CountingAlloc`]).
    pub allocs: u64,
    /// The transaction the message body or timer tag names, if any.
    pub txn: Option<u64>,
}

/// A site whose every callback is timed.
pub struct Timed {
    /// The wrapped site.
    pub site: SiteNode,
    epoch: Instant,
    spans: Vec<Span>,
    /// Datagrams received, kept for the codec replay when capturing.
    captured: Option<Vec<WireDatagram>>,
}

impl Timed {
    fn new(site: SiteNode, epoch: Instant, capture: bool) -> Timed {
        Timed {
            site,
            epoch,
            spans: Vec::new(),
            captured: capture.then(Vec::new),
        }
    }

    #[inline(always)]
    fn span<R>(
        &mut self,
        handler: Handler,
        vt_us: u64,
        txn: Option<u64>,
        f: impl FnOnce(&mut SiteNode) -> R,
    ) -> R {
        let a0 = allocs();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let r = f(&mut self.site);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let allocs = allocs() - a0;
        self.spans.push(Span {
            handler,
            vt_us,
            start_ns,
            end_ns,
            allocs,
            txn,
        });
        r
    }
}

impl Node for Timed {
    type Msg = ProtoMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let vt = ctx.now().micros();
        self.span(Handler::Other, vt, None, |s| s.on_start(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: ProtoMsg, ctx: &mut Context<'_, ProtoMsg>) {
        let (handler, txn) = match &msg.body {
            Body::Vm(_) => (Handler::Datagram, None),
            Body::VmDatagram(wire) => {
                if let Some(c) = &mut self.captured {
                    c.push(wire.clone());
                }
                (Handler::Datagram, None)
            }
            Body::Request { txn, .. } => (Handler::Request, Some(txn.0)),
            Body::ReleaseLease { txn, .. } => (Handler::Release, Some(txn.0)),
        };
        let vt = ctx.now().micros();
        self.span(handler, vt, txn, |s| s.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, id: TimerId, tag: u64, ctx: &mut Context<'_, ProtoMsg>) {
        let (handler, txn) = Handler::timer(tag);
        let vt = ctx.now().micros();
        self.span(handler, vt, txn, |s| s.on_timer(id, tag, ctx));
    }

    fn on_external(&mut self, tag: u64, ctx: &mut Context<'_, ProtoMsg>) {
        let vt = ctx.now().micros();
        self.span(Handler::External, vt, None, |s| s.on_external(tag, ctx));
    }

    fn on_crash(&mut self) {
        // The kernel hands `on_crash` no context; the span's virtual time
        // is left 0.
        self.span(Handler::Crash, 0, None, |s| s.on_crash());
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let vt = ctx.now().micros();
        self.span(Handler::Recover, vt, None, |s| s.on_recover(ctx));
    }
}

/// Per-handler totals over one or more traced runs.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Callbacks per handler, indexed by `Handler as usize`.
    pub calls: [u64; Handler::COUNT],
    /// Raw span wall time per handler, ns (timer cost not yet removed).
    pub span_ns: [u64; Handler::COUNT],
    /// Allocation events per handler.
    pub allocs: [u64; Handler::COUNT],
}

impl Ledger {
    fn add(&mut self, spans: &[Span]) {
        for s in spans {
            let h = s.handler as usize;
            self.calls[h] += 1;
            self.span_ns[h] += s.end_ns - s.start_ns;
            self.allocs[h] += s.allocs;
        }
    }

    /// Add another ledger's totals to this one.
    pub fn merge(&mut self, o: &Ledger) {
        for h in 0..Handler::COUNT {
            self.calls[h] += o.calls[h];
            self.span_ns[h] += o.span_ns[h];
            self.allocs[h] += o.allocs[h];
        }
    }

    /// Total callbacks.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Total raw span time, ns.
    pub fn total_span_ns(&self) -> u64 {
        self.span_ns.iter().sum()
    }
}

/// One traced run, checked.
pub struct TracedRun {
    /// Wall time from the first event to quiescence, ns.
    pub wall_ns: u64,
    /// Per-handler totals.
    pub ledger: Ledger,
    /// The run's counters; its fingerprint must match a plain run's.
    pub outcome: Outcome,
    /// The sites after the run (for the storage replay).
    pub sites: Vec<SiteNode>,
    /// Captured datagrams (empty unless capturing).
    pub datagrams: Vec<WireDatagram>,
    /// Every span, site-major.
    pub spans: Vec<(NodeId, Span)>,
}

/// Run `setup` with every site wrapped in [`Timed`].
pub fn traced_run(setup: &Setup, capture: bool) -> Result<TracedRun, String> {
    let epoch = Instant::now();
    let mut sim = setup.simulation(|s| Timed::new(s, epoch, capture));
    let t = Instant::now();
    sim.run_to_quiescence();
    let wall_ns = t.elapsed().as_nanos() as u64;
    let net = *sim.stats();
    let mut ledger = Ledger::default();
    let mut sites = Vec::new();
    let mut datagrams = Vec::new();
    let mut spans = Vec::new();
    for (id, node) in sim.into_nodes().into_iter().enumerate() {
        ledger.add(&node.spans);
        spans.extend(node.spans.into_iter().map(|s| (id, s)));
        datagrams.extend(node.captured.into_iter().flatten());
        sites.push(node.site);
    }
    let outcome = Outcome::check(&sites, &setup.catalog, &net, setup.scripted())?;
    Ok(TracedRun {
        wall_ns,
        ledger,
        outcome,
        sites,
        datagrams,
        spans,
    })
}

/// Cost of one `Instant` read, ns (the fastest of five batch means): the
/// share of each span's measured time that is the timer's, not the
/// handler's.
pub(crate) fn timer_cost_ns() -> f64 {
    const READS: u32 = 100_000;
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        let mut sink = t;
        for _ in 0..READS {
            sink = std::hint::black_box(Instant::now());
        }
        let per = sink.duration_since(t).as_nanos() as f64 / READS as f64;
        best = best.min(per);
    }
    best
}

/// Write spans as CSV (`site,handler,vt_us,start_ns,end_ns,allocs,txn`).
pub(crate) fn write_spans(path: &std::path::Path, spans: &[(NodeId, Span)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "site,handler,vt_us,start_ns,end_ns,allocs,txn")?;
    for (site, s) in spans {
        let txn = s.txn.map(|t| t.to_string()).unwrap_or_default();
        writeln!(
            out,
            "{site},{},{},{},{},{},{txn}",
            s.handler.name(),
            s.vt_us,
            s.start_ns,
            s.end_ns,
            s.allocs
        )?;
    }
    out.flush()
}
