//! Sample statistics and the result line.
//!
//! Every run ends with one JSON object on its last stdout line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Human-readable detail (sample counts, per-snapshot growth, check
//! verdicts) goes on the lines before it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `v` (mean of the two middle values for even lengths); 0 for
/// an empty sample.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank `q`-quantile (`0 < q ≤ 1`) of `v`; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Whether a sample of `n` values leaves at least ten beyond quantile `q`,
/// the least a tail percentile needs to mean anything.
pub fn supports(n: usize, q: f64) -> bool {
    (1.0 - q) * n as f64 >= 10.0 - 1e-9
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MB. `None` when `/proc` is unavailable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over a byte stream: the result digests compared across passes.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold one integer in (little-endian bytes).
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// End-to-end metrics: `(name, unit)`, in result-line order. Every run
/// with tracing off reports each of them, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_makespan_s", "s"),
    ("sim_exec_p50_s", "s"),
    ("sim_exec_p99_s", "s"),
];

/// Per-layer metrics: `(name, unit)`, in result-line order. Every traced
/// run reports each of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_ns_per_job", "ns"),
    ("workload.self_s", "s"),
    ("scheduler.place_ns_per_job", "ns"),
    ("scheduler.self_s", "s"),
    ("scheduler.route_batch_ns_per_decision", "ns"),
    ("scheduler.observe_ns_per_completion", "ns"),
    ("scheduler.recalibrations", "count"),
    ("scheduler.snapshot_save_ms", "ms"),
    ("scheduler.snapshot_restore_ms", "ms"),
    ("scheduler.snapshot_kb", "kB"),
    ("core.build_ms", "ms"),
    ("core.self_s", "s"),
    ("mapreduce.run_self_s", "s"),
    ("mapreduce.events", "count"),
    ("mapreduce.ns_per_event", "ns"),
    ("mapreduce.task_attempts", "count"),
    ("mapreduce.speculative_restarts", "count"),
    ("mapreduce.tasks_killed", "count"),
    ("simcore.flows", "count"),
    ("simcore.live_flows_mean", "count"),
    ("simcore.live_flows_max", "count"),
    ("simcore.net_generations", "count"),
    ("simcore.flownet_ns_per_op_mean_live", "ns"),
    ("simcore.flownet_ns_per_op_max_live", "ns"),
    ("storage.plan_read_calls", "count"),
    ("storage.plan_read_ns", "ns"),
    ("storage.plan_write_calls", "count"),
    ("storage.plan_write_ns", "ns"),
    ("storage.block_hosts_ns", "ns"),
    ("storage.repair_plans", "count"),
    ("storage.repair_plan_ns", "ns"),
    ("storage.self_s", "s"),
    ("storage.degraded_reads", "count"),
    ("storage.repair_gb", "GB"),
    ("obs.sink_calls", "count"),
    ("obs.aggregator_ns_per_call", "ns"),
    ("obs.doctor_ns_per_call", "ns"),
    ("obs.self_s", "s"),
    ("obs.sink_share", "ratio"),
    ("serve.batch_p50_us", "us"),
    ("serve.batch_p99_us", "us"),
    ("serve.batch_samples", "count"),
    ("serve.snapshot_p50_ms", "ms"),
    ("serve.snapshot_p90_ms", "ms"),
    ("serve.snapshot_samples", "count"),
    ("serve.snapshot_kb", "kB"),
    ("serve.protocol_us_per_req", "us"),
    ("trace.wall_s", "s"),
    ("trace.residual_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Output checks that failed, in the order they were made.
    pub check_failures: Vec<String>,
    /// Operations attempted (jobs submitted, or requests sent).
    pub attempted: u64,
    /// Operations that failed (failed jobs, or `error` replies).
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Record the outcome of one output check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }

    /// Set metric `name`, which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The value of metric `name` (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Human-readable lines: every metric set so far, with its unit.
    pub fn lines(&self) -> Vec<String> {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter_map(|&(name, unit)| {
                let v = self.values.get(name)?;
                Some(format!("  {name:<40} {v:>16.4} {unit}"))
            })
            .collect()
    }

    /// The final result line: the end-to-end metrics for an untraced run,
    /// the per-layer ones for a traced run. An end-to-end metric that is
    /// missing, zero or not finite fails the run.
    pub fn result_line(&mut self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut body = String::new();
        for (i, &(name, unit)) in table.iter().enumerate() {
            let value = self.get(name);
            if !value.is_finite() || (!traced && value == 0.0) {
                self.check_failures
                    .push(format!("metric {name} is {value}, not a measurement"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                body,
                "{}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}",
                if i == 0 { "" } else { "," },
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
            self.check_failures.is_empty(),
            self.attempted.max(1),
            self.failed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(100, 0.9));
    }

    #[test]
    fn result_line_lists_every_metric_of_its_table() {
        let mut r = Report {
            attempted: 3,
            ..Default::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 0.5 + i as f64);
        }
        let line = r.result_line(false);
        assert!(line.starts_with(
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"jobs_per_s\":{\"value\":0.5,\"unit\":\"1/s\"},"
        ));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{name}");
            assert!(line.contains(&format!("\"unit\":\"{unit}\"")), "{unit}");
        }
        r.set("setup_s", 0.0);
        assert!(r.result_line(false).starts_with("{\"correct\":false"));
    }

    /// The metric tables and `BENCHMARK.json` name the same metrics with
    /// the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let key = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&key), "BENCHMARK.json lacks {key}");
        }
        let listed = json.matches("\"name\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + 3,
            "3 workloads"
        );
    }
}
