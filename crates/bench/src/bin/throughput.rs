//! Serving-throughput comparison: the single-session reference baseline
//! vs the fused cross-session scoring service, writing `BENCH_throughput.json`
//! (see lte_bench::experiments::throughput).

use lte_bench::{cli::Options, env::BenchEnv};

fn main() {
    let opts = Options::parse();
    let env = BenchEnv::from_options(&opts);
    let out = opts.out.as_deref();
    match opts.subcommand() {
        None => lte_bench::experiments::throughput::run(&env, out, opts.smoke),
        Some(sub) => lte_bench::experiments::throughput::subcommand(&env, out, opts.smoke, sub),
    }
}
