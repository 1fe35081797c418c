//! Benchmark of the hybrid scale-up/out Hadoop simulator: three workloads,
//! end-to-end metrics from untraced runs, per-layer metrics from traced
//! runs whose timing wrappers sit outside the program (see [`timing`]).
//!
//! - `replay_hybrid`, `replay_storm` — see [`replay`].
//! - `serve_route` — see [`serve`].

pub mod probe;
pub mod replay;
pub mod report;
pub mod serve;
pub mod timing;

#[cfg(test)]
mod tests;
