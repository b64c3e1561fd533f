//! Every count-valued metric repeats exactly for a seed and moves with it.

use dvp_perfbench::e2e::{count_metrics, parts};
use dvp_perfbench::workload::Workload;

const TXNS: usize = 2_000;

#[test]
fn counts_repeat_per_seed_and_change_across_seeds() {
    for workload in Workload::ALL {
        let run = |seed| {
            let p = parts(workload, seed, TXNS).expect("every part passes its checks");
            let m = count_metrics(workload, seed, TXNS, &p).expect("latency passes match");
            (p, m)
        };
        let (a_parts, a) = run(7);
        let (b_parts, b) = run(7);
        let (c_parts, c) = run(8);
        assert_eq!(a_parts.0, b_parts.0, "{}: counters repeat", workload.name());
        assert_eq!(a, b, "{}: metrics repeat", workload.name());
        assert_ne!(a_parts.0, c_parts.0, "{}: counters move", workload.name());
        for (x, y) in a.iter().zip(&c) {
            assert_ne!(
                x.value,
                y.value,
                "{}: {} moves with the seed",
                workload.name(),
                x.name
            );
        }
    }
}
