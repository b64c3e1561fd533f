//! `perfbench-alloc --workload <name> --seed <n>`: the allocation counts
//! of a traced benchmark run, measured under a counting global allocator.

use dvp_perfbench::trace::CountingAlloc;
use dvp_perfbench::{layers, Args};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-alloc: {e}");
            std::process::exit(2);
        }
    };
    let report = layers::allocations(args.workload, args.seed);
    println!("{}", report.to_json());
    if !report.correct {
        std::process::exit(1);
    }
}
