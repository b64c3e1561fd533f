//! The traced run measures the same program: wrapping every site in the
//! timing adapter changes no decision, message, byte, force or event.

use dvp_obs::Obs;
use dvp_perfbench::outcome::Outcome;
use dvp_perfbench::trace::traced_run;
use dvp_perfbench::workload::Workload;

const TXNS: usize = 2_000;

#[test]
fn traced_run_matches_plain_cluster() {
    for workload in Workload::ALL {
        for seed in [1, 2] {
            let setup = workload.generate(seed, TXNS);
            let mut cluster = setup.cluster(Obs::disabled());
            cluster.run_to_quiescence();
            let plain = Outcome::check(
                cluster.sim.nodes(),
                &cluster.catalog,
                cluster.sim.stats(),
                setup.scripted(),
            )
            .expect("plain run passes its checks");
            for capture in [false, true] {
                let traced = traced_run(&setup, capture).expect("traced run passes its checks");
                assert_eq!(
                    traced.outcome.fingerprint,
                    plain.fingerprint,
                    "{} seed {seed} capture {capture}",
                    workload.name()
                );
                assert_eq!(traced.outcome, plain, "{} seed {seed}", workload.name());
            }
        }
    }
}
