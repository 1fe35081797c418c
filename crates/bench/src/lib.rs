//! # bench — wall-clock benchmarks for the simulator
//!
//! Three suites (each a `harness = false` bench binary on a small hand-rolled
//! timing loop, so the workspace carries no benchmarking dependency):
//! - `engine`: microbenchmarks of the simulation kernel (event queue, flow
//!   network, end-to-end single-job runs);
//! - `figures`: the per-figure harnesses at reduced scale — how long each
//!   paper artifact takes to regenerate;
//! - `storage_models`: the HDFS/OFS planning paths.
//!
//! The *simulated-outcome* ablations (scheduler variants, storage choices,
//! heap sweeps) are experiments, not wall-clock benchmarks; see the
//! `experiments` crate's `ablations` binary.
//!
//! [`profile`] carries the self-profiling report schema and the regression
//! gate consumed by the workspace `self_profile` and `bench_diff` binaries.

pub mod profile;

use std::hint::black_box;
use std::time::Instant;

/// Time `iters` runs of `f` (after one untimed warmup) and print a
/// `name: median (min, max)` line. Returns the median seconds per
/// iteration: one slow sample (a page-cache miss, a noisy neighbour) moves
/// a mean but not a median.
pub fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) -> f64 {
    assert!(iters > 0, "need at least one iteration");
    black_box(f()); // warmup
    let samples = (0..iters).map(|_| time(&mut f)).collect();
    report(name, samples)
}

/// Time `iters` interleaved rounds of `a` and `b` (A B A B …, after one
/// untimed warmup of each) and print a line for each, as [`bench()`] does.
/// Returns the median seconds per iteration of `a` and of `b`: both
/// medians are taken over the same stretch of host drift, so their ratio
/// measures `b`'s overhead rather than the drift between two runs.
pub fn bench_pair<S, T>(
    names: [&str; 2],
    iters: u32,
    mut a: impl FnMut() -> S,
    mut b: impl FnMut() -> T,
) -> (f64, f64) {
    assert!(iters > 0, "need at least one iteration");
    black_box(a());
    black_box(b());
    let (mut sa, mut sb) = (Vec::new(), Vec::new());
    for _ in 0..iters {
        sa.push(time(&mut a));
        sb.push(time(&mut b));
    }
    (report(names[0], sa), report(names[1], sb))
}

/// Seconds one call of `f` takes.
fn time<T>(f: &mut impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64()
}

/// Print `name: median (min, max)` and return the median.
fn report(name: &str, mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let median = if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    };
    println!(
        "{name:<40} {:>10} (min {}, max {})",
        fmt(median),
        fmt(samples[0]),
        fmt(samples[n - 1])
    );
    median
}

/// Format a duration in adaptive units.
fn fmt(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.3}ms", secs * 1e3)
    } else {
        format!("{:.1}µs", secs * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin() -> u64 {
        let mut acc = 0u64;
        for k in 0..1000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
        }
        acc
    }

    #[test]
    fn bench_returns_positive_median() {
        let median = bench("noop_spin", 3, spin);
        assert!(median >= 0.0 && median.is_finite());
    }

    #[test]
    fn bench_pair_runs_both_sides_interleaved() {
        let order = std::cell::RefCell::new(Vec::new());
        let (a, b) = bench_pair(
            ["pair_a", "pair_b"],
            3,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert!(a >= 0.0 && b >= 0.0);
        assert_eq!(order.into_inner(), "abababab".chars().collect::<Vec<_>>());
    }

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(report("odd", vec![3.0, 1.0, 100.0]), 3.0);
        assert_eq!(report("even", vec![4.0, 1.0, 2.0, 100.0]), 3.0);
    }
}
