//! Rerun-determinism regression test for the durability and wire path:
//! the same scenario and seed must reproduce the same force, wire and
//! outcome counters run over run, for every seed tried. The engine
//! group-commits its forces (one per dispatch) and coalesces its Vm
//! frames (one datagram per peer per dispatch), so any hidden
//! nondeterminism in either shows up here as a drifting counter.

use dvp::prelude::*;
use dvp::workloads::BankingWorkload;

fn run(w: &dvp::workloads::Workload, seed: u64) -> RunReport {
    Scenario::dvp(w).name("gc/banking").seed(seed).run()
}

#[test]
fn group_commit_counters_are_stable_across_reruns() {
    for seed in [1u64, 7, 42] {
        let w = BankingWorkload::default().generate(seed);
        let a = run(&w, seed);
        let b = run(&w, seed);
        assert_eq!(a.forces, b.forces, "seed {seed}: forces drifted");
        assert_eq!(a.messages, b.messages, "seed {seed}: messages drifted");
        assert_eq!(a.wire_bytes, b.wire_bytes, "seed {seed}: bytes drifted");
        assert_eq!(a.committed, b.committed, "seed {seed}");
        assert_eq!(a.aborted, b.aborted, "seed {seed}");
    }
}
