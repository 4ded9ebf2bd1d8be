//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed`, and the metrics (end-to-end
//! with `--trace 0`, per-layer with `--trace 1`). The line before it is a
//! JSON object of context: wall, CPU and steal time, sample counts, and
//! `error_rate`. Exits non-zero, printing no result, if the workload could
//! not run.

use std::time::Instant;

fn main() {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match perfbench::Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper|jobs|echo|park --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match perfbench::run(&cfg, start) {
        Ok(outcome) => {
            println!("{}", outcome.context_json());
            println!("{}", outcome.json());
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            std::process::exit(1);
        }
    }
}
