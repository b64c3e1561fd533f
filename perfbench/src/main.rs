//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans <path>]`: run one benchmark workload and print its metrics as
//! the last line of standard output. With `--trace 0` these are the
//! end-to-end metrics; with `--trace 1` the per-layer metrics, less the
//! allocation counts `perfbench-alloc` reports.

use dvp_perfbench::{e2e, layers, Args};
use std::time::Duration;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let report = if args.trace {
        layers::measure(args.workload, args.seed, budget, args.spans.as_deref())
    } else {
        e2e::measure(args.workload, args.seed, budget)
    };
    println!("{}", report.to_json());
    if !report.correct {
        std::process::exit(1);
    }
}
