//! Trace-layer integration tests: the JSONL export is a *golden* artifact
//! (same scenario + seed ⇒ byte-identical bytes run over run), and the
//! captured event stream reconstructs complete cross-site transaction
//! timelines (solicit at home → donate at peers → absorb → commit).

use dvp::obs::{txn_timeline, EventKind};
use dvp::prelude::*;
use dvp::workloads::HotspotDriftWorkload;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

/// A scenario that must solicit: site 1 sells 40 seats against a local
/// quota of 25, so peers donate the difference over Virtual Messages.
fn soliciting_scenario() -> Scenario {
    let mut catalog = Catalog::new();
    let flight = catalog.add("flight", 100, Split::Even);
    Scenario::dvp_sites(4, catalog)
        .name("obs/solicit")
        .at(1, ms(1), TxnSpec::reserve(flight, 40))
        .at(0, ms(200), TxnSpec::reserve(flight, 3))
        .seed(9)
        .trace(true)
}

/// The baseline engine on the same catalog plus a second item: the
/// 40-seat reservation and two concurrent transactions run two-phase
/// commit across the replicas, and the transfer's prepares share a
/// transmission with another transaction's traffic to the same peer.
fn trad_scenario() -> Scenario {
    let mut catalog = Catalog::new();
    let flight = catalog.add("flight", 100, Split::Even);
    let hotel = catalog.add("hotel", 100, Split::Even);
    Scenario::trad_sites(4, catalog)
        .name("obs/trad2pc")
        .at(1, ms(1), TxnSpec::reserve(flight, 40))
        .at(2, ms(1), TxnSpec::reserve(hotel, 10))
        .at(3, ms(2), TxnSpec::transfer(flight, hotel, 5))
        .at(0, ms(200), TxnSpec::reserve(flight, 3))
        .seed(9)
        .trace(true)
}

/// The baseline's production path (group-committed forces, one
/// coalesced transmission per peer per dispatch) is pinned
/// byte-for-byte under `TradConfig::default()`, wire counters included.
#[test]
fn trad2pc_trace_matches_golden() {
    let r = trad_scenario().run();
    assert_eq!(
        (r.committed, r.messages, r.frames, r.wire_bytes),
        (4, 74, 78, 2446),
        "(committed, messages, frames, wire_bytes) moved"
    );
    let got = r.trace_jsonl();
    let golden = include_str!("golden/obs_trad2pc.jsonl");
    assert_eq!(got, golden, "trad2pc trace diverged from the golden");
}

#[test]
fn golden_trace_is_byte_identical_across_runs() {
    let a = soliciting_scenario().run().trace_jsonl();
    let b = soliciting_scenario().run().trace_jsonl();
    assert!(!a.is_empty());
    assert!(a.starts_with("{\"trace\":\"dvp-obs/v1\",\"scenario\":\"obs/solicit\",\"seed\":9,"));
    assert!(a.lines().count() > 2, "header plus events");
    assert_eq!(a, b, "same scenario + seed must export identical bytes");
}

/// The production path — group-committed forces and coalesced wire
/// datagrams — is pinned byte-for-byte too: any refactor of the flush,
/// datagram or ack machinery must leave this trace unchanged.
#[test]
fn default_trace_matches_golden() {
    let got = soliciting_scenario().run().trace_jsonl();
    let golden = include_str!("golden/obs_solicit.jsonl");
    assert_eq!(got, golden, "default-config trace diverged from the golden");
}

/// A small adaptive-placement run: a hotspot drifting across five sites
/// under `Placement::adaptive()`. It exercises every placement hook —
/// demand estimation, hint gossip through the flow-control gates,
/// hint-directed solicitation and the demand-driven rebalancer.
fn hotspot_adaptive_scenario() -> Scenario {
    let w = HotspotDriftWorkload {
        n_sites: 5,
        items: 4,
        txns: 200,
        per_item: 600,
        ..Default::default()
    }
    .generate(3);
    Scenario::dvp(&w)
        .name("obs/hotspot_adaptive")
        .site(
            SiteConfig::builder()
                .placement(Placement::adaptive())
                .build(),
        )
        .seed(3)
        .trace(true)
}

/// Adaptive placement is pinned byte-for-byte: the trace (including
/// every `hint_solicit` and `placement_ship`) and the placement and wire
/// counters must match the golden exactly.
#[test]
fn adaptive_placement_trace_matches_golden() {
    let r = hotspot_adaptive_scenario().run();
    assert_eq!(
        (r.hints_sent, r.wire_bytes, r.hinted_solicits, r.rebalances),
        (30, 9292, 18, 7),
        "(hints_sent, wire_bytes, hinted_solicits, rebalances) moved"
    );
    let got = r.trace_jsonl();
    assert!(got.contains("\"ev\":\"hint_solicit\""));
    assert!(got.contains("\"ev\":\"placement_ship\""));
    let golden = include_str!("golden/obs_hotspot_adaptive.jsonl");
    assert!(
        got == golden,
        "adaptive-placement trace diverged from the golden"
    );
}

#[test]
fn trace_reconstructs_cross_site_solicit_donate_commit_timeline() {
    let r = soliciting_scenario().run();
    assert_eq!(r.committed, 2);

    // Find the solicited (non-fast-path) commit and pull its timeline.
    let txn = r
        .events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::TxnCommit {
                txn,
                fast_path: false,
                ..
            } => Some(txn),
            _ => None,
        })
        .expect("the 40-seat reservation commits off the fast path");
    let timeline = txn_timeline(&r.events, txn);

    // Timeline is in simulated-time order…
    assert!(timeline.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    // …starts at the home site and commits there. (Events *after* the
    // commit are legal: a surplus donation from a second donor is still
    // absorbed once the transaction no longer needs it.)
    assert!(matches!(timeline[0].kind, EventKind::TxnStart { .. }));
    assert_eq!(timeline[0].site, 1);
    let commit = timeline
        .iter()
        .find(|e| matches!(e.kind, EventKind::TxnCommit { .. }))
        .expect("timeline contains the commit");
    assert_eq!(commit.site, 1);

    // The span crosses sites: solicitations leave site 1, donations are
    // recorded at the donors, absorbs back at site 1.
    let solicits: Vec<_> = timeline
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TxnSolicit { .. }))
        .collect();
    let donates: Vec<_> = timeline
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TxnDonate { .. }))
        .collect();
    let absorbs: Vec<_> = timeline
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TxnAbsorb { .. }))
        .collect();
    assert!(!solicits.is_empty(), "home site solicited");
    assert!(solicits.iter().all(|e| e.site == 1));
    assert!(!donates.is_empty(), "at least one peer donated");
    assert!(
        donates.iter().all(|e| e.site != 1),
        "donations happen at peers"
    );
    assert!(!absorbs.is_empty(), "value came home");
    assert!(absorbs.iter().all(|e| e.site == 1));

    // Causal order: first solicit < first donate < first absorb < commit.
    assert!(solicits[0].at_us <= donates[0].at_us);
    assert!(donates[0].at_us <= absorbs[0].at_us);
    assert!(absorbs[0].at_us <= commit.at_us);

    // And the fast-path transaction never solicited.
    let fast = r
        .events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::TxnCommit {
                txn,
                fast_path: true,
                ..
            } => Some(txn),
            _ => None,
        })
        .expect("the 3-seat reservation is write-only and local");
    assert!(txn_timeline(&r.events, fast)
        .iter()
        .all(|e| !matches!(e.kind, EventKind::TxnSolicit { .. })));
}

#[test]
fn trad_engine_traces_too() {
    let w = dvp::workloads::AirlineWorkload {
        txns: 20,
        ..Default::default()
    }
    .generate(5);
    let r = Scenario::trad(&w)
        .name("obs/trad")
        .until(ms(5_000))
        .seed(5)
        .trace(true)
        .run();
    assert!(r.committed > 0);
    assert!(r
        .events
        .iter()
        .any(|e| matches!(e.kind, EventKind::TxnCommit { .. })));
    let again = Scenario::trad(&w)
        .name("obs/trad")
        .until(ms(5_000))
        .seed(5)
        .trace(true)
        .run();
    assert_eq!(r.trace_jsonl(), again.trace_jsonl());
}
