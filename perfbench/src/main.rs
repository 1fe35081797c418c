//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload replay_hybrid|replay_storm|serve_route --seed N
//!           --seconds S --trace 0|1 [--route-serve PATH] [--work-dir DIR]
//! ```
//!
//! The last stdout line is the JSON result; the lines before it are the
//! same metrics for humans, with sample counts. The exit code is 1 when an
//! output check failed and 2 on bad arguments.

use perfbench::replay::{self, Case};
use perfbench::report::Report;
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload replay_hybrid|replay_storm|serve_route --seed N \
         --seconds S --trace 0|1 [--route-serve PATH] [--work-dir DIR]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == name)?;
        Some(
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage(&format!("{name} needs a value"))),
        )
    };
    let number = |name: &str| -> u64 {
        let v = flag(name).unwrap_or_else(|| usage(&format!("{name} is required")));
        v.parse()
            .unwrap_or_else(|_| usage(&format!("{name} takes a whole number, got {v:?}")))
    };
    let workload = flag("--workload").unwrap_or_else(|| usage("--workload is required"));
    let seed = number("--seed");
    let seconds = number("--seconds");
    let trace = match number("--trace") {
        0 => false,
        1 => true,
        _ => usage("--trace takes 0 or 1"),
    };

    let mut report = Report::default();
    println!(
        "# workload {workload}, seed {seed}, {seconds} s, trace {}",
        trace as u8
    );
    match workload {
        "replay_hybrid" => replay::run(Case::Hybrid, seed, seconds, trace, &mut report),
        "replay_storm" => replay::run(Case::Storm, seed, seconds, trace, &mut report),
        "serve_route" => {
            let bin = PathBuf::from(
                flag("--route-serve").unwrap_or_else(|| usage("serve_route needs --route-serve")),
            );
            let work = PathBuf::from(flag("--work-dir").unwrap_or(".bench_build/perfbench-work"));
            perfbench::serve::run(seed, seconds, trace, &bin, &work, &mut report)
        }
        other => usage(&format!("unknown workload {other:?}")),
    }
    let line = report.result_line(trace);
    for l in report.lines() {
        println!("{l}");
    }
    for f in &report.check_failures {
        println!("# CHECK FAILED: {f}");
    }
    println!("{line}");
    if !report.check_failures.is_empty() {
        std::process::exit(1);
    }
}
