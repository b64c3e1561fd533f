//! Wire-coalescing regression test: the link-level frame batching the
//! engine always uses must stay deterministic — the same scenario and
//! seed reproduce the same wire counters (datagrams, frames, bytes,
//! piggybacked acks) run over run.
//!
//! It runs on a fixed-delay reliable network, where links consume no
//! per-send RNG draws, so any drift in how frames are grouped into
//! datagrams shows up here directly rather than being masked by delay
//! jitter. The default-network rerun check for forces and outcomes is
//! `tests/group_commit.rs`.

use dvp::prelude::*;
use dvp::workloads::BankingWorkload;

/// The standard banking workload at its default shape.
fn banking(seed: u64) -> dvp::workloads::Workload {
    BankingWorkload::default().generate(seed)
}

/// A reliable network with a fixed 2 ms delay on every link (no RNG).
fn fixed_net() -> NetworkConfig {
    NetworkConfig {
        default_link: LinkConfig::reliable_fixed(SimDuration::millis(2)),
        ..NetworkConfig::reliable()
    }
}

fn run(w: &dvp::workloads::Workload, seed: u64) -> RunReport {
    Scenario::dvp(w)
        .name("wire/banking-coalesced")
        .net(fixed_net())
        .seed(seed)
        .run()
}

#[test]
fn coalescing_counters_are_stable_across_reruns() {
    for seed in [1u64, 7, 42] {
        let w = banking(seed);
        let a = run(&w, seed);
        let b = run(&w, seed);
        assert!(a.datagrams > 0, "seed {seed}: no datagrams on the wire");
        assert!(
            a.frames >= a.datagrams,
            "seed {seed}: fewer frames than datagrams"
        );
        assert_eq!(a.datagrams, b.datagrams, "seed {seed}: datagrams drifted");
        assert_eq!(a.frames, b.frames, "seed {seed}: frames drifted");
        assert_eq!(a.wire_bytes, b.wire_bytes, "seed {seed}: bytes drifted");
        assert_eq!(
            a.bytes_acked_piggyback, b.bytes_acked_piggyback,
            "seed {seed}: piggybacked acks drifted"
        );
        assert_eq!(a.messages, b.messages, "seed {seed}");
        assert_eq!(a.committed, b.committed, "seed {seed}");
        assert_eq!(a.aborted, b.aborted, "seed {seed}");
    }
}
