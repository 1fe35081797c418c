//! `obs::doctor` — deterministic online anomaly detection and diagnosis.
//!
//! A [`Doctor`] is a passive [`TelemetrySink`]: it folds the same event
//! stream the [`crate::OnlineAggregator`] consumes and turns it into
//! *alerts* and *incident reports* — the alerting/diagnosis layer a
//! production scheduler ships with, but DetRng-free and fold-order
//! deterministic, so the reports are byte-identical at any `--threads`.
//!
//! Four detectors run over the stream:
//!
//! - **Straggler** — a robust modified z-score on `ln(exec)` per
//!   (band, cluster, size-class) key, with the median and MAD estimated
//!   from a fixed log-spaced histogram (O(1) memory per key). A job whose
//!   execution time sits more than [`DoctorConfig::straggler_z`] robust
//!   deviations above its class median fires, then the key is muted for
//!   [`DoctorConfig::straggler_cooldown`] samples so one storm produces one
//!   incident, not hundreds.
//! - **SLO burn-rate** — the SRE multi-window rule per tenant queue: the
//!   SLO-miss fraction over a fast (5 sim-minutes) *and* a slow (1
//!   sim-hour) window must both exceed their thresholds, expressed as
//!   multiples of the error budget ([`DoctorConfig::burn_budget`]). The
//!   alert stays open until the fast window recovers; open/close
//!   transitions — not samples — fire incidents.
//! - **Cross-point oscillation** — watches `("scheduler","recalibrate")`
//!   instants per band. Many direction flips inside the recent window is
//!   *thrashing* (`crosspoint-thrash`); a large sustained one-directional
//!   move is *legitimate drift* (`crosspoint-drift`). Both are worth an
//!   incident; the distinction is the diagnosis. The first
//!   [`DoctorConfig::warmup_recals`] recalibrations per band are burn-in:
//!   an adaptive estimator converging from its default priors marches the
//!   threshold monotonically, which would otherwise read as drift. And
//!   only moves of at least [`DoctorConfig::recal_min_step`] enter the
//!   window — a converged estimator hunts around its equilibrium in tiny
//!   steps whose direction flips are noise, not thrash.
//! - **Share violation** — at stream end, a tenant whose weight-normalized
//!   usage sits far below the ledger mean *and* who was repeatedly
//!   preempted or rejected is flagged as starved.
//!
//! Every alert snapshots the **flight recorder** — a fixed-capacity ring of
//! recent fault / recalibration / placement / tenant events (including the
//! `PlacementDecision::explain` audit notes) — into a deterministic JSON
//! incident document, schema `hybrid-hadoop-incident/v1`.
//!
//! The whole doctor state round-trips through [`Doctor::snapshot_json`] /
//! [`Doctor::restore`] (schema `hybrid-hadoop-doctor/v1`) so a restarted
//! serve session neither re-fires nor drops an in-flight alert.

use crate::sink::TelemetrySink;
use crate::telemetry::{arg_bool, arg_f64, arg_str, arg_u64, band_of, json_string, names, num};
use crate::ArgValue;
use simcore::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Alert kinds, shared verbatim between the `hh_doctor_alerts_total{kind=…}`
/// Prometheus labels and the incident JSON — one constant table, no fork.
pub mod kinds {
    /// A job far above its (band, cluster, size-class) robust baseline.
    pub const STRAGGLER: &str = "straggler";
    /// Multi-window SLO burn-rate exceeded for a tenant queue.
    pub const BURN_RATE: &str = "burn-rate";
    /// Cross-point recalibrations flipping direction — thrashing.
    pub const CROSSPOINT_THRASH: &str = "crosspoint-thrash";
    /// Sustained one-directional cross-point movement — workload drift.
    pub const CROSSPOINT_DRIFT: &str = "crosspoint-drift";
    /// A tenant starved well below its weighted fair share.
    pub const SHARE_VIOLATION: &str = "share-violation";
    /// Background repair traffic (re-replication / EC reconstruction)
    /// saturating the window — a correlated-failure recovery storm.
    pub const REPAIR_STORM: &str = "repair-storm";
    /// Every kind, in exposition order.
    pub const ALL: &[&str] = &[
        STRAGGLER,
        BURN_RATE,
        CROSSPOINT_THRASH,
        CROSSPOINT_DRIFT,
        SHARE_VIOLATION,
        REPAIR_STORM,
    ];
}

/// Tuning for the doctor's detectors and bounded state.
///
/// Defaults are calibrated on the FB-2009 re-synthesis: a clean (no-fault,
/// no-drift) 10k replay fires zero alerts, while injected rack failures and
/// combined drift are detected (the `doctor` binary's precision/recall table
/// and `tests/doctor_golden.rs` pin both).
#[derive(Debug, Clone, PartialEq)]
pub struct DoctorConfig {
    /// Flight-recorder capacity (events); memory is O(capacity) regardless
    /// of job count.
    pub ring_capacity: usize,
    /// Ring events snapshotted into each incident report.
    pub incident_window: usize,
    /// Incident reports retained; later alerts still count in
    /// `alerts_total` but only bump `dropped_incidents`.
    pub max_incidents: usize,
    /// Samples a (band, cluster, size-class) key needs before its z-score
    /// can fire.
    pub straggler_min_samples: u64,
    /// Modified z-score threshold on `ln(exec)`.
    pub straggler_z: f64,
    /// Samples a key stays muted after firing.
    pub straggler_cooldown: u64,
    /// SLO error budget: the allowed miss fraction.
    pub burn_budget: f64,
    /// Fast burn window (sim-seconds).
    pub burn_fast_secs: u64,
    /// Slow burn window (sim-seconds).
    pub burn_slow_secs: u64,
    /// Fast-window burn-rate threshold (multiples of budget).
    pub burn_fast_rate: f64,
    /// Slow-window burn-rate threshold (multiples of budget).
    pub burn_slow_rate: f64,
    /// Minimum SLO-carrying jobs per window before a rate is trusted.
    pub burn_min_jobs: u64,
    /// Recalibrations per band ignored before the oscillation detector
    /// arms: an adaptive estimator converging from its default priors
    /// walks its threshold monotonically toward the data regime, which is
    /// burn-in, not drift.
    pub warmup_recals: usize,
    /// Minimum relative threshold movement (`|new-old|/old`) for a
    /// recalibration to enter the oscillation window. A converged
    /// estimator hunts around its equilibrium in sub-10% steps whose signs
    /// are noise; only significant moves carry drift/thrash information.
    pub recal_min_step: f64,
    /// A band whose *first* recalibration arrives more than this many
    /// sim-seconds after the earliest band's first recalibration skips
    /// warm-up entirely: default-prior convergence happens when a band
    /// first carries load at run start, so a band that stays quiet while
    /// its peers recalibrate and then suddenly needs chasing is reacting
    /// to a workload shift, not cold-starting.
    pub new_band_grace_secs: u64,
    /// Oscillation window horizon in sim-seconds: recalibrations older
    /// than this no longer vote. Without a horizon, two self-correcting
    /// excursions hours apart would concatenate (the settled hunting
    /// between them falls below `recal_min_step`) and read as one long
    /// monotone drift.
    pub recal_max_age_secs: u64,
    /// Recalibrations per band considered by the oscillation detector.
    pub recal_window: usize,
    /// Direction flips within the window that mean thrashing.
    pub thrash_flips: usize,
    /// Recalibrations needed before drift can be claimed.
    pub drift_min_recals: usize,
    /// Net relative cross-point movement that means drift.
    pub drift_ratio: f64,
    /// A tenant below this fraction of the mean weighted usage is a
    /// starvation candidate.
    pub starvation_ratio: f64,
    /// Preemptions + rejections a starvation candidate must have suffered.
    pub starvation_min_events: u64,
    /// Cap on distinct straggler keys and burn queues tracked.
    pub max_keys: usize,
    /// Background repair bytes within `repair_window_secs` that mean a
    /// repair storm (re-replication or EC reconstruction saturating the
    /// cluster). A single-block repair stays far below this.
    pub repair_storm_bytes: f64,
    /// Sliding window for the repair-storm detector, sim-seconds.
    pub repair_window_secs: u64,
}

impl Default for DoctorConfig {
    fn default() -> Self {
        DoctorConfig {
            ring_capacity: 192,
            incident_window: 12,
            max_incidents: 64,
            straggler_min_samples: 48,
            straggler_z: 6.0,
            straggler_cooldown: 64,
            burn_budget: 0.05,
            burn_fast_secs: 300,
            burn_slow_secs: 3600,
            burn_fast_rate: 6.0,
            burn_slow_rate: 3.0,
            burn_min_jobs: 16,
            warmup_recals: 12,
            recal_min_step: 0.1,
            new_band_grace_secs: 3600,
            recal_max_age_secs: 3600,
            recal_window: 8,
            thrash_flips: 4,
            drift_min_recals: 5,
            drift_ratio: 0.6,
            starvation_ratio: 0.25,
            starvation_min_events: 4,
            max_keys: 512,
            repair_storm_bytes: 10.0e9,
            repair_window_secs: 600,
        }
    }
}

// ----------------------------------------------------------------------
// Flight recorder
// ----------------------------------------------------------------------

/// One flight-recorder entry: a compact, deterministic rendering of an
/// interesting event.
#[derive(Debug, Clone, PartialEq)]
pub struct RecEvent {
    /// Sim-seconds of the event.
    pub t_s: f64,
    /// Event category (`fault`, `scheduler`, `placement`, `tenant`).
    pub cat: String,
    /// Event name (e.g. `node_crash`, `recalibrate`, `place:scale-up`).
    pub name: String,
    /// `key=value` argument rendering, in emission order.
    pub detail: String,
}

fn render_detail(args: &[(&'static str, ArgValue)]) -> String {
    let mut out = String::new();
    for (k, v) in args {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(k);
        out.push('=');
        match v {
            ArgValue::Str(s) => out.push_str(s),
            ArgValue::U64(u) => out.push_str(&u.to_string()),
            ArgValue::F64(x) => out.push_str(&num(*x)),
            ArgValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    out
}

// ----------------------------------------------------------------------
// Robust exec-time histogram (straggler detector)
// ----------------------------------------------------------------------

/// `ln(exec)` histogram geometry: fixed log-spaced buckets from e^-2 s
/// (≈0.14 s) up, bucket width 0.125 in ln-space.
const EXEC_LN_MIN: f64 = -2.0;
const EXEC_LN_WIDTH: f64 = 0.125;
const EXEC_BUCKETS: usize = 136;

#[derive(Debug, Clone, Default, PartialEq)]
struct ExecHist {
    /// Sparse (bucket, count) pairs — most keys see a narrow exec range.
    counts: BTreeMap<u32, u64>,
    total: u64,
}

impl ExecHist {
    fn bucket(exec_s: f64) -> u32 {
        let ln = exec_s.max(1e-6).ln();
        let b = ((ln - EXEC_LN_MIN) / EXEC_LN_WIDTH).floor();
        b.clamp(0.0, (EXEC_BUCKETS - 1) as f64) as u32
    }

    fn push(&mut self, exec_s: f64) {
        *self.counts.entry(Self::bucket(exec_s)).or_insert(0) += 1;
        self.total += 1;
    }

    /// ln-space value at quantile `q` — the midpoint of the bucket holding
    /// the q-th sample.
    fn quantile_ln(&self, q: f64) -> f64 {
        let target = ((self.total as f64) * q).floor() as u64;
        let mut seen = 0u64;
        for (&b, &n) in &self.counts {
            seen += n;
            if seen > target {
                return EXEC_LN_MIN + (b as f64 + 0.5) * EXEC_LN_WIDTH;
            }
        }
        EXEC_LN_MIN
    }

    /// Modified z-score of a new sample against the recorded history:
    /// `0.6745 · (ln x − median) / MAD`, with the MAD estimated as half the
    /// interquartile range and floored at one bucket width.
    fn robust_z(&self, exec_s: f64) -> f64 {
        let median = self.quantile_ln(0.5);
        let mad = ((self.quantile_ln(0.75) - self.quantile_ln(0.25)) / 2.0).max(EXEC_LN_WIDTH);
        0.6745 * (exec_s.max(1e-6).ln() - median) / mad
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
struct StragglerTrack {
    hist: ExecHist,
    /// Samples left in the post-fire mute window.
    mute: u64,
}

// ----------------------------------------------------------------------
// Burn-rate windows
// ----------------------------------------------------------------------

/// Time-bucketed SLO counters for one tenant queue: `(minute, jobs,
/// misses)`, pruned to the slow window. Burn rates are exact over the
/// bucketed stream and O(slow/60) memory.
#[derive(Debug, Clone, Default, PartialEq)]
struct BurnWindow {
    buckets: VecDeque<(u64, u64, u64)>,
    open: bool,
}

impl BurnWindow {
    fn push(&mut self, minute: u64, miss: bool, slow_minutes: u64) {
        match self.buckets.back_mut() {
            Some(b) if b.0 == minute => {
                b.1 += 1;
                b.2 += miss as u64;
            }
            _ => self.buckets.push_back((minute, 1, miss as u64)),
        }
        while self
            .buckets
            .front()
            .is_some_and(|b| b.0 + slow_minutes <= minute)
        {
            self.buckets.pop_front();
        }
    }

    /// (jobs, misses) over the trailing `minutes` window ending at `now`.
    fn tally(&self, now: u64, minutes: u64) -> (u64, u64) {
        let mut jobs = 0;
        let mut misses = 0;
        for &(m, j, x) in &self.buckets {
            if m + minutes > now {
                jobs += j;
                misses += x;
            }
        }
        (jobs, misses)
    }
}

// ----------------------------------------------------------------------
// Oscillation detector
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Default, PartialEq)]
struct RecalTrack {
    /// Recalibrations seen for this band, including warm-up ones.
    seen: u64,
    /// Sim-seconds of this band's first recalibration.
    first_s: f64,
    /// True when the band arrived late (see
    /// [`DoctorConfig::new_band_grace_secs`]) and warm-up is waived.
    exempt: bool,
    /// Recent significant `(t_s, old_bytes, new_bytes)` recalibrations,
    /// oldest first.
    window: VecDeque<(f64, u64, u64)>,
    /// 0 = quiet, 1 = thrash alert open, 2 = drift alert open.
    state: u8,
}

impl RecalTrack {
    fn flips(&self) -> usize {
        let signs: Vec<i8> = self
            .window
            .iter()
            .map(|&(_, old, new)| if new >= old { 1 } else { -1 })
            .collect();
        signs.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Net relative movement from the window's first old value to its last
    /// new value.
    fn net_ratio(&self) -> f64 {
        let (Some(&(_, first_old, _)), Some(&(_, _, last_new))) =
            (self.window.front(), self.window.back())
        else {
            return 0.0;
        };
        (last_new as f64 - first_old as f64).abs() / (first_old.max(1) as f64)
    }
}

// ----------------------------------------------------------------------
// Incidents
// ----------------------------------------------------------------------

/// One diagnosed incident: what fired, where, why, and the flight-recorder
/// window around it.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Sequence number (0-based, fire order).
    pub id: u64,
    /// One of [`kinds::ALL`].
    pub kind: &'static str,
    /// Sim-seconds when the detector fired.
    pub at_s: f64,
    /// The detector key: band / size-class, queue, or tenant.
    pub key: String,
    /// One-line causal summary.
    pub summary: String,
    /// Supporting samples, in fixed per-kind order.
    pub evidence: Vec<(&'static str, String)>,
    /// Flight-recorder snapshot at fire time (oldest first).
    pub window: Vec<RecEvent>,
}

// ----------------------------------------------------------------------
// The doctor
// ----------------------------------------------------------------------

/// Sliding window of background repair plans for the repair-storm
/// detector: `(t_s, bytes)` per `re_replicate`/`reconstruct` instant.
#[derive(Debug, Clone, Default, PartialEq)]
struct RepairTrack {
    window: VecDeque<(f64, f64)>,
    open: bool,
}

impl RepairTrack {
    fn sum(&self) -> f64 {
        self.window.iter().map(|&(_, b)| b).sum()
    }
}

/// Deterministic online anomaly detector and incident diagnoser. See the
/// module docs for the detector catalogue.
#[derive(Debug, Clone)]
pub struct Doctor {
    cfg: DoctorConfig,
    events: u64,
    end: SimTime,
    ring: VecDeque<RecEvent>,
    straggler: BTreeMap<String, StragglerTrack>,
    burn: BTreeMap<String, BurnWindow>,
    recal: BTreeMap<String, RecalTrack>,
    /// Final share ledger: tenant → (weight, usage_s).
    shares: BTreeMap<u64, (f64, f64)>,
    /// Preemptions + rejections per victim tenant.
    tenant_pain: BTreeMap<u64, u64>,
    repair: RepairTrack,
    alerts: BTreeMap<&'static str, u64>,
    incidents: Vec<Incident>,
    dropped_incidents: u64,
    seq: u64,
}

impl Doctor {
    /// A doctor with the given tuning and empty state.
    pub fn new(cfg: DoctorConfig) -> Self {
        Doctor {
            cfg,
            events: 0,
            end: SimTime::ZERO,
            ring: VecDeque::new(),
            straggler: BTreeMap::new(),
            burn: BTreeMap::new(),
            recal: BTreeMap::new(),
            shares: BTreeMap::new(),
            tenant_pain: BTreeMap::new(),
            repair: RepairTrack::default(),
            alerts: BTreeMap::new(),
            incidents: Vec::new(),
            dropped_incidents: 0,
            seq: 0,
        }
    }

    /// Total alerts fired, by kind (kinds with zero fires are absent).
    pub fn alerts_total(&self) -> &BTreeMap<&'static str, u64> {
        &self.alerts
    }

    /// Alerts fired across all kinds.
    pub fn total_fired(&self) -> u64 {
        self.alerts.values().sum()
    }

    /// Retained incident reports, in fire order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Telemetry events folded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Currently open (in-flight) alerts as `(kind, key)` pairs, in
    /// deterministic key order: open burn-rate queues and bands whose
    /// oscillation state is latched.
    pub fn open_alerts(&self) -> Vec<(&'static str, String)> {
        let mut out = Vec::new();
        for (queue, w) in &self.burn {
            if w.open {
                out.push((kinds::BURN_RATE, queue.clone()));
            }
        }
        for (band, t) in &self.recal {
            match t.state {
                1 => out.push((kinds::CROSSPOINT_THRASH, band.clone())),
                2 => out.push((kinds::CROSSPOINT_DRIFT, band.clone())),
                _ => {}
            }
        }
        if self.repair.open {
            out.push((kinds::REPAIR_STORM, "storage".to_string()));
        }
        out
    }

    fn record(&mut self, ts: SimTime, cat: &str, name: &str, args: &[(&'static str, ArgValue)]) {
        if self.cfg.ring_capacity == 0 {
            return;
        }
        if self.ring.len() == self.cfg.ring_capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(RecEvent {
            t_s: ts.as_secs_f64(),
            cat: cat.to_string(),
            name: name.to_string(),
            detail: render_detail(args),
        });
    }

    fn fire(
        &mut self,
        kind: &'static str,
        at: SimTime,
        key: String,
        summary: String,
        evidence: Vec<(&'static str, String)>,
    ) {
        *self.alerts.entry(kind).or_insert(0) += 1;
        if self.incidents.len() >= self.cfg.max_incidents {
            self.dropped_incidents += 1;
            self.seq += 1;
            return;
        }
        let skip = self.ring.len().saturating_sub(self.cfg.incident_window);
        let window: Vec<RecEvent> = self.ring.iter().skip(skip).cloned().collect();
        self.incidents.push(Incident {
            id: self.seq,
            kind,
            at_s: at.as_secs_f64(),
            key,
            summary,
            evidence,
            window,
        });
        self.seq += 1;
    }

    // ------------------------------------------------------------------
    // Detectors
    // ------------------------------------------------------------------

    fn on_job(&mut self, end: SimTime, start: SimTime, args: &[(&'static str, ArgValue)]) {
        if arg_str(args, "failed").is_some() {
            return;
        }
        let exec = end.since(start).as_secs_f64();
        let band = band_of(arg_f64(args, "ratio"));
        let cluster = arg_str(args, "cluster").unwrap_or("?").to_string();
        let input = arg_u64(args, "input_bytes").unwrap_or(0);
        // Size class = log2 of the input: within one class exec times are
        // tight enough for a robust z-score to mean something.
        let class = 64 - input.max(1).leading_zeros();
        let key = format!("{band}|{cluster}|2^{class}");
        if !self.straggler.contains_key(&key) && self.straggler.len() >= self.cfg.max_keys {
            return;
        }
        let track = self.straggler.entry(key.clone()).or_default();
        let ready = track.hist.total >= self.cfg.straggler_min_samples;
        let z = if ready {
            track.hist.robust_z(exec)
        } else {
            0.0
        };
        let median_ln = track.hist.quantile_ln(0.5);
        track.hist.push(exec);
        if track.mute > 0 {
            track.mute -= 1;
            return;
        }
        if ready && z >= self.cfg.straggler_z {
            let median_s = median_ln.exp();
            self.straggler.get_mut(&key).expect("just inserted").mute = self.cfg.straggler_cooldown;
            self.fire(
                kinds::STRAGGLER,
                end,
                key.clone(),
                format!(
                    "straggler in {key}: job ran {}s against a class median of ~{}s (robust z {})",
                    num(round3(exec)),
                    num(round3(median_s)),
                    num(round3(z)),
                ),
                vec![
                    ("exec_s", num(round3(exec))),
                    ("median_s", num(round3(median_s))),
                    ("robust_z", num(round3(z))),
                    ("samples", self.straggler[&key].hist.total.to_string()),
                ],
            );
        }
    }

    fn on_tenant_complete(&mut self, ts: SimTime, args: &[(&'static str, ArgValue)]) {
        let slo_s = arg_f64(args, "slo_s").unwrap_or(0.0);
        if slo_s <= 0.0 {
            return;
        }
        let queue = arg_str(args, "queue").unwrap_or("?").to_string();
        if !self.burn.contains_key(&queue) && self.burn.len() >= self.cfg.max_keys {
            return;
        }
        let miss = arg_bool(args, "slo_miss").unwrap_or(false);
        let minute = (ts.as_secs_f64() as u64) / 60;
        let slow_minutes = (self.cfg.burn_slow_secs / 60).max(1);
        let fast_minutes = (self.cfg.burn_fast_secs / 60).max(1);
        let w = self.burn.entry(queue.clone()).or_default();
        w.push(minute, miss, slow_minutes);
        let (fast_jobs, fast_miss) = w.tally(minute, fast_minutes);
        let (slow_jobs, slow_miss) = w.tally(minute, slow_minutes);
        let rate = |jobs: u64, misses: u64| {
            if jobs >= self.cfg.burn_min_jobs {
                (misses as f64 / jobs as f64) / self.cfg.burn_budget
            } else {
                0.0
            }
        };
        let fast = rate(fast_jobs, fast_miss);
        let slow = rate(slow_jobs, slow_miss);
        if !w.open && fast >= self.cfg.burn_fast_rate && slow >= self.cfg.burn_slow_rate {
            w.open = true;
            self.fire(
                kinds::BURN_RATE,
                ts,
                queue.clone(),
                format!(
                    "queue {queue} burning error budget at {}x (fast) / {}x (slow): \
                     {fast_miss}/{fast_jobs} misses in the fast window",
                    num(round3(fast)),
                    num(round3(slow)),
                ),
                vec![
                    ("fast_burn", num(round3(fast))),
                    ("slow_burn", num(round3(slow))),
                    ("fast_jobs", fast_jobs.to_string()),
                    ("fast_misses", fast_miss.to_string()),
                    ("slow_jobs", slow_jobs.to_string()),
                    ("slow_misses", slow_miss.to_string()),
                ],
            );
        } else if w.open && fast < self.cfg.burn_fast_rate {
            self.burn.get_mut(&queue).expect("entry exists").open = false;
        }
    }

    fn on_recalibrate(&mut self, ts: SimTime, args: &[(&'static str, ArgValue)]) {
        let (Some(band), Some(old), Some(new)) = (
            arg_str(args, "band"),
            arg_u64(args, "old_bytes"),
            arg_u64(args, "new_bytes"),
        ) else {
            return;
        };
        let band = band.to_string();
        if !self.recal.contains_key(&band) && self.recal.len() >= self.cfg.max_keys {
            return;
        }
        let cap = self.cfg.recal_window.max(2);
        let earliest = self
            .recal
            .values()
            .filter(|t| t.seen > 0)
            .map(|t| t.first_s)
            .fold(f64::INFINITY, f64::min);
        let t = self.recal.entry(band.clone()).or_default();
        t.seen += 1;
        if t.seen == 1 {
            t.first_s = ts.as_secs_f64();
            t.exempt =
                earliest.is_finite() && t.first_s - earliest > self.cfg.new_band_grace_secs as f64;
        }
        if !t.exempt && t.seen <= self.cfg.warmup_recals as u64 {
            return;
        }
        let step = (new as f64 - old as f64).abs() / old.max(1) as f64;
        if step < self.cfg.recal_min_step {
            return;
        }
        let now = ts.as_secs_f64();
        let horizon = self.cfg.recal_max_age_secs as f64;
        while t
            .window
            .front()
            .is_some_and(|&(t0, _, _)| now - t0 > horizon)
        {
            t.window.pop_front();
        }
        if t.window.len() == cap {
            t.window.pop_front();
        }
        t.window.push_back((now, old, new));
        let flips = t.flips();
        let net = t.net_ratio();
        let len = t.window.len();
        let thrashing = flips >= self.cfg.thrash_flips;
        let drifting =
            len >= self.cfg.drift_min_recals && flips == 0 && net >= self.cfg.drift_ratio;
        let state = t.state;
        if thrashing && state != 1 {
            self.recal.get_mut(&band).expect("entry exists").state = 1;
            self.fire(
                kinds::CROSSPOINT_THRASH,
                ts,
                band.clone(),
                format!(
                    "cross point for {band} is thrashing: {flips} direction flips \
                     in the last {len} recalibrations"
                ),
                vec![
                    ("flips", flips.to_string()),
                    ("recals", len.to_string()),
                    ("net_ratio", num(round3(net))),
                ],
            );
        } else if drifting && state == 0 {
            self.recal.get_mut(&band).expect("entry exists").state = 2;
            self.fire(
                kinds::CROSSPOINT_DRIFT,
                ts,
                band.clone(),
                format!(
                    "cross point for {band} drifted {}% in one direction over \
                     {len} recalibrations ({} -> {} bytes)",
                    num(round3(net * 100.0)),
                    old_of(&self.recal[&band]),
                    new_of(&self.recal[&band]),
                ),
                vec![
                    ("net_ratio", num(round3(net))),
                    ("recals", len.to_string()),
                    ("flips", flips.to_string()),
                ],
            );
        } else if !thrashing && !drifting {
            self.recal.get_mut(&band).expect("entry exists").state = 0;
        }
    }

    /// Repair-storm detector: fold one background repair plan
    /// (re-replication or EC reconstruction) into the sliding window and
    /// fire when the windowed byte volume crosses the threshold. The alert
    /// latches open until the window drains below half the threshold, so
    /// one storm fires once instead of once per plan.
    fn on_repair(&mut self, ts: SimTime, bytes: f64) {
        let t = ts.as_secs_f64();
        let horizon = t - self.cfg.repair_window_secs as f64;
        self.repair.window.push_back((t, bytes));
        while self
            .repair
            .window
            .front()
            .is_some_and(|&(t0, _)| t0 < horizon)
        {
            self.repair.window.pop_front();
        }
        let sum = self.repair.sum();
        if !self.repair.open && sum >= self.cfg.repair_storm_bytes {
            self.repair.open = true;
            let plans = self.repair.window.len();
            self.fire(
                kinds::REPAIR_STORM,
                ts,
                "storage".to_string(),
                format!(
                    "{:.1} GB of background repair traffic within {} s — correlated \
                     failure recovery is saturating the repair throttle",
                    sum / 1e9,
                    self.cfg.repair_window_secs
                ),
                vec![
                    ("repair_bytes", num(round3(sum))),
                    ("window_s", self.cfg.repair_window_secs.to_string()),
                    ("plans", plans.to_string()),
                ],
            );
        } else if self.repair.open && sum < self.cfg.repair_storm_bytes / 2.0 {
            self.repair.open = false;
        }
    }

    fn on_tenant_instant(&mut self, name: &str, args: &[(&'static str, ArgValue)]) {
        match name {
            "share" => {
                if let (Some(tenant), Some(weight), Some(usage)) = (
                    arg_u64(args, "tenant"),
                    arg_f64(args, "weight"),
                    arg_f64(args, "usage_s"),
                ) {
                    if self.shares.len() < self.cfg.max_keys || self.shares.contains_key(&tenant) {
                        self.shares.insert(tenant, (weight, usage));
                    }
                }
            }
            "preempt" | "reject" => {
                if let Some(tenant) = arg_u64(args, "tenant") {
                    if self.tenant_pain.len() < self.cfg.max_keys
                        || self.tenant_pain.contains_key(&tenant)
                    {
                        *self.tenant_pain.entry(tenant).or_insert(0) += 1;
                    }
                }
            }
            _ => {}
        }
    }

    /// End-of-stream starvation check over the final share ledger.
    fn check_shares(&mut self, now: SimTime) {
        let weighted: Vec<(u64, f64)> = self
            .shares
            .iter()
            .filter(|(_, (w, _))| *w > 0.0)
            .map(|(&t, &(w, u))| (t, u / w))
            .collect();
        if weighted.len() < 2 {
            return;
        }
        let mean = weighted.iter().map(|(_, u)| u).sum::<f64>() / weighted.len() as f64;
        if mean <= 0.0 {
            return;
        }
        for (tenant, wu) in weighted {
            let pain = self.tenant_pain.get(&tenant).copied().unwrap_or(0);
            if wu < self.cfg.starvation_ratio * mean && pain >= self.cfg.starvation_min_events {
                self.fire(
                    kinds::SHARE_VIOLATION,
                    now,
                    format!("t{tenant}"),
                    format!(
                        "tenant t{tenant} starved: weighted usage {}s is {}% of the \
                         ledger mean after {pain} preemptions/rejections",
                        num(round3(wu)),
                        num(round3(wu / mean * 100.0)),
                    ),
                    vec![
                        ("weighted_usage_s", num(round3(wu))),
                        ("ledger_mean_s", num(round3(mean))),
                        ("pain_events", pain.to_string()),
                    ],
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Expositions
    // ------------------------------------------------------------------

    /// The conditional `hh_doctor_*` Prometheus section. Callers append
    /// this to an aggregator exposition only when a doctor ran, so
    /// doctor-off expositions stay byte-identical.
    pub fn render_prometheus(&self) -> String {
        let mut o = String::new();
        o.push_str(&format!(
            "# HELP {n} Alerts fired by the obs::doctor detectors.\n# TYPE {n} counter\n",
            n = names::DOCTOR_ALERTS_TOTAL
        ));
        for &kind in kinds::ALL {
            let count = self.alerts.get(kind).copied().unwrap_or(0);
            o.push_str(&format!(
                "{}{{kind=\"{kind}\"}} {count}\n",
                names::DOCTOR_ALERTS_TOTAL
            ));
        }
        o.push_str(&format!(
            "# HELP {n} Incident reports retained by the doctor.\n# TYPE {n} gauge\n{n} {}\n",
            self.incidents.len(),
            n = names::DOCTOR_INCIDENTS,
        ));
        o
    }

    /// The full incident document, schema `hybrid-hadoop-incident/v1` — a
    /// pure function of the folded event stream, byte-identical at any
    /// thread count.
    pub fn render_incidents_json(&self) -> String {
        let mut o = String::new();
        o.push_str("{\n\"schema\": \"hybrid-hadoop-incident/v1\",\n");
        o.push_str(&format!("\"{}\": {},\n", names::keys::EVENTS, self.events));
        o.push_str(&format!("\"end_s\": {},\n", num(self.end.as_secs_f64())));
        o.push_str(&format!("\"{}\": {{", names::keys::ALERTS_TOTAL));
        let mut first = true;
        for &kind in kinds::ALL {
            let count = self.alerts.get(kind).copied().unwrap_or(0);
            if !first {
                o.push_str(", ");
            }
            first = false;
            o.push_str(&format!("{}: {count}", json_string(kind)));
        }
        o.push_str("},\n");
        o.push_str(&format!("\"open_alerts\": [{}],\n", {
            let items: Vec<String> = self
                .open_alerts()
                .iter()
                .map(|(k, key)| {
                    format!(
                        "{{\"kind\": {}, \"key\": {}}}",
                        json_string(k),
                        json_string(key)
                    )
                })
                .collect();
            items.join(", ")
        }));
        o.push_str(&format!(
            "\"dropped_incidents\": {},\n",
            self.dropped_incidents
        ));
        o.push_str(&format!("\"{}\": [\n", names::keys::INCIDENTS));
        for (i, inc) in self.incidents.iter().enumerate() {
            o.push_str(&incident_json(inc));
            if i + 1 < self.incidents.len() {
                o.push(',');
            }
            o.push('\n');
        }
        o.push_str("]\n}\n");
        o
    }

    // ------------------------------------------------------------------
    // Snapshot / restore (schema `hybrid-hadoop-doctor/v1`)
    // ------------------------------------------------------------------

    /// Serialize the complete doctor state — detector windows, open alerts,
    /// flight recorder, and retained incidents — so a restarted session
    /// continues bitwise where this one stopped.
    pub fn snapshot_json(&self) -> String {
        let c = &self.cfg;
        let mut o = String::new();
        o.push_str("{\"schema\":\"hybrid-hadoop-doctor/v1\",");
        o.push_str(&format!(
            "\"config\":{{\"ring_capacity\":{},\"incident_window\":{},\"max_incidents\":{},\
             \"straggler_min_samples\":{},\"straggler_z\":{},\"straggler_cooldown\":{},\
             \"burn_budget\":{},\"burn_fast_secs\":{},\"burn_slow_secs\":{},\
             \"burn_fast_rate\":{},\"burn_slow_rate\":{},\"burn_min_jobs\":{},\
             \"warmup_recals\":{},\"recal_min_step\":{},\"new_band_grace_secs\":{},\
             \"recal_max_age_secs\":{},\"recal_window\":{},\"thrash_flips\":{},\"drift_min_recals\":{},\
             \"drift_ratio\":{},\"starvation_ratio\":{},\"starvation_min_events\":{},\
             \"max_keys\":{},\"repair_storm_bytes\":{},\"repair_window_secs\":{}}},",
            c.ring_capacity,
            c.incident_window,
            c.max_incidents,
            c.straggler_min_samples,
            num(c.straggler_z),
            c.straggler_cooldown,
            num(c.burn_budget),
            c.burn_fast_secs,
            c.burn_slow_secs,
            num(c.burn_fast_rate),
            num(c.burn_slow_rate),
            c.burn_min_jobs,
            c.warmup_recals,
            num(c.recal_min_step),
            c.new_band_grace_secs,
            c.recal_max_age_secs,
            c.recal_window,
            c.thrash_flips,
            c.drift_min_recals,
            num(c.drift_ratio),
            num(c.starvation_ratio),
            c.starvation_min_events,
            c.max_keys,
            num(c.repair_storm_bytes),
            c.repair_window_secs,
        ));
        o.push_str(&format!(
            "\"events\":{},\"end_s\":{},\"seq\":{},\"dropped\":{},",
            self.events,
            num(self.end.as_secs_f64()),
            self.seq,
            self.dropped_incidents
        ));
        o.push_str("\"alerts\":{");
        push_join(&mut o, self.alerts.iter(), |(k, n)| {
            format!("{}:{n}", json_string(k))
        });
        o.push_str("},\"straggler\":{");
        push_join(&mut o, self.straggler.iter(), |(key, t)| {
            let buckets: Vec<String> = t
                .hist
                .counts
                .iter()
                .map(|(b, n)| format!("[{b},{n}]"))
                .collect();
            format!(
                "{}:{{\"mute\":{},\"total\":{},\"counts\":[{}]}}",
                json_string(key),
                t.mute,
                t.hist.total,
                buckets.join(",")
            )
        });
        o.push_str("},\"burn\":{");
        push_join(&mut o, self.burn.iter(), |(q, w)| {
            let buckets: Vec<String> = w
                .buckets
                .iter()
                .map(|(m, j, x)| format!("[{m},{j},{x}]"))
                .collect();
            format!(
                "{}:{{\"open\":{},\"buckets\":[{}]}}",
                json_string(q),
                w.open,
                buckets.join(",")
            )
        });
        o.push_str("},\"recal\":{");
        push_join(&mut o, self.recal.iter(), |(band, t)| {
            let w: Vec<String> = t
                .window
                .iter()
                .map(|(ts, a, b)| format!("[{},{a},{b}]", num(*ts)))
                .collect();
            format!(
                "{}:{{\"seen\":{},\"first_s\":{},\"exempt\":{},\"state\":{},\"window\":[{}]}}",
                json_string(band),
                t.seen,
                num(t.first_s),
                t.exempt,
                t.state,
                w.join(",")
            )
        });
        o.push_str("},\"shares\":[");
        push_join(&mut o, self.shares.iter(), |(t, (w, u))| {
            format!("[{t},{},{}]", num(*w), num(*u))
        });
        o.push_str("],\"pain\":[");
        push_join(&mut o, self.tenant_pain.iter(), |(t, n)| {
            format!("[{t},{n}]")
        });
        o.push_str("],\"repair\":{\"open\":");
        o.push_str(if self.repair.open { "true" } else { "false" });
        o.push_str(",\"window\":[");
        push_join(&mut o, self.repair.window.iter(), |(t, b)| {
            format!("[{},{}]", num(*t), num(*b))
        });
        o.push_str("]},\"ring\":[");
        push_join(&mut o, self.ring.iter(), rec_event_json);
        o.push_str("],\"incidents\":[");
        push_join(&mut o, self.incidents.iter(), incident_json);
        o.push_str("]}");
        o
    }

    /// Rebuild a doctor from [`Doctor::snapshot_json`] output. Errors on
    /// schema mismatch or malformed documents.
    pub fn restore(doc: &str) -> Result<Doctor, String> {
        restore::doctor(doc)
    }
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn old_of(t: &RecalTrack) -> u64 {
    t.window.front().map(|&(_, o, _)| o).unwrap_or(0)
}

fn new_of(t: &RecalTrack) -> u64 {
    t.window.back().map(|&(_, _, n)| n).unwrap_or(0)
}

fn push_join<I, T, F>(o: &mut String, items: I, f: F)
where
    I: Iterator<Item = T>,
    F: Fn(T) -> String,
{
    let rendered: Vec<String> = items.map(f).collect();
    o.push_str(&rendered.join(","));
}

fn rec_event_json(e: &RecEvent) -> String {
    format!(
        "{{\"t_s\": {}, \"cat\": {}, \"name\": {}, \"detail\": {}}}",
        num(e.t_s),
        json_string(&e.cat),
        json_string(&e.name),
        json_string(&e.detail)
    )
}

fn incident_json(inc: &Incident) -> String {
    let evidence: Vec<String> = inc
        .evidence
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    let window: Vec<String> = inc.window.iter().map(rec_event_json).collect();
    format!(
        "{{\"id\": {}, \"kind\": {}, \"at_s\": {}, \"key\": {}, \"summary\": {}, \
         \"evidence\": {{{}}}, \"window\": [{}]}}",
        inc.id,
        json_string(inc.kind),
        num(inc.at_s),
        json_string(&inc.key),
        json_string(&inc.summary),
        evidence.join(", "),
        window.join(", ")
    )
}

impl TelemetrySink for Doctor {
    fn span(
        &mut self,
        cat: &'static str,
        _name: &str,
        _pid: u32,
        _tid: u32,
        start: SimTime,
        end: SimTime,
        args: &[(&'static str, ArgValue)],
    ) {
        self.events += 1;
        self.end = self.end.max(end);
        if cat == "job" {
            self.on_job(end, start, args);
        }
    }

    fn instant(
        &mut self,
        cat: &'static str,
        name: &str,
        _pid: u32,
        _tid: u32,
        ts: SimTime,
        args: &[(&'static str, ArgValue)],
    ) {
        self.events += 1;
        self.end = self.end.max(ts);
        match cat {
            "fault" | "placement" => {
                self.record(ts, cat, name, args);
                if cat == "fault" && matches!(name, "re_replicate" | "reconstruct") {
                    self.on_repair(ts, arg_f64(args, "bytes").unwrap_or(0.0));
                }
            }
            "scheduler" => {
                self.record(ts, cat, name, args);
                if name == "recalibrate" {
                    self.on_recalibrate(ts, args);
                }
            }
            "tenant" => {
                if name == "complete" {
                    self.on_tenant_complete(ts, args);
                } else {
                    self.record(ts, cat, name, args);
                    self.on_tenant_instant(name, args);
                }
            }
            _ => {}
        }
    }

    fn counter(
        &mut self,
        _cat: &'static str,
        _name: &'static str,
        _pid: u32,
        ts: SimTime,
        _v: f64,
    ) {
        self.events += 1;
        self.end = self.end.max(ts);
    }

    fn name_process(&mut self, _pid: u32, _name: &str) {
        self.events += 1;
    }

    fn finish(&mut self, now: SimTime) {
        self.end = self.end.max(now);
        self.check_shares(self.end);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

// ----------------------------------------------------------------------
// Restore: a minimal recursive-descent JSON reader (std-only, same spirit
// as the scheduler snapshot cursor — documents are produced by us).
// ----------------------------------------------------------------------

mod restore {
    use super::*;

    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        fn f64_of(&self, key: &str) -> Result<f64, String> {
            match self.get(key) {
                Some(Json::Num(x)) => Ok(*x),
                _ => Err(format!("missing number field {key:?}")),
            }
        }

        fn u64_of(&self, key: &str) -> Result<u64, String> {
            let x = self.f64_of(key)?;
            if x.is_finite() && x >= 0.0 && x.fract() == 0.0 {
                Ok(x as u64)
            } else {
                Err(format!("field {key:?} is not a u64"))
            }
        }

        fn str_of(&self, key: &str) -> Result<&str, String> {
            match self.get(key) {
                Some(Json::Str(s)) => Ok(s),
                _ => Err(format!("missing string field {key:?}")),
            }
        }

        fn bool_of(&self, key: &str) -> Result<bool, String> {
            match self.get(key) {
                Some(Json::Bool(b)) => Ok(*b),
                _ => Err(format!("missing bool field {key:?}")),
            }
        }

        fn arr_of(&self, key: &str) -> Result<&[Json], String> {
            match self.get(key) {
                Some(Json::Arr(items)) => Ok(items),
                _ => Err(format!("missing array field {key:?}")),
            }
        }

        fn obj_of(&self, key: &str) -> Result<&[(String, Json)], String> {
            match self.get(key) {
                Some(Json::Obj(fields)) => Ok(fields),
                _ => Err(format!("missing object field {key:?}")),
            }
        }

        fn as_num(&self) -> Result<f64, String> {
            match self {
                Json::Num(x) => Ok(*x),
                _ => Err("expected a number".into()),
            }
        }

        fn as_u64(&self) -> Result<u64, String> {
            let x = self.as_num()?;
            if x.is_finite() && x >= 0.0 && x.fract() == 0.0 {
                Ok(x as u64)
            } else {
                Err("expected a u64".into())
            }
        }
    }

    /// Deepest array/object nesting a document may use. The reader
    /// recurses once per level, so without a limit a crafted file of `[`s
    /// overflows the stack.
    const MAX_DEPTH: usize = 64;

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
        /// Arrays and objects currently open.
        depth: usize,
    }

    impl<'a> Parser<'a> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn peek(&mut self) -> Option<u8> {
            self.ws();
            self.s.get(self.i).copied()
        }

        fn expect(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", c as char, self.i))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.peek().ok_or("unexpected end of input")? {
                b'{' => self.nested(Self::object),
                b'[' => self.nested(Self::array),
                b'"' => Ok(Json::Str(self.string()?)),
                b't' => self.literal("true", Json::Bool(true)),
                b'f' => self.literal("false", Json::Bool(false)),
                b'n' => self.literal("null", Json::Null),
                _ => self.number(),
            }
        }

        /// Parse one array or object, refusing to open more than [`MAX_DEPTH`].
        fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
            if self.depth == MAX_DEPTH {
                return Err(format!(
                    "nesting deeper than {MAX_DEPTH} at byte {}",
                    self.i
                ));
            }
            self.depth += 1;
            let v = parse(self);
            self.depth -= 1;
            v
        }

        fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
            if self.s[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                fields.push((key, self.value()?));
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if self.peek() == Some(b']') {
                self.i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let start = self.i;
            let mut out = String::new();
            while let Some(&c) = self.s.get(self.i) {
                self.i += 1;
                match c {
                    b'"' => {
                        return Ok(out);
                    }
                    b'\\' => {
                        let esc = *self.s.get(self.i).ok_or("unterminated escape")?;
                        self.i += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'u' => {
                                let hex = self
                                    .s
                                    .get(self.i..self.i + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or("bad \\u escape")?;
                                let cp = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                self.i += 4;
                                out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(format!("bad escape at byte {}", self.i)),
                        }
                    }
                    c if c < 0x80 => out.push(c as char),
                    _ => {
                        // Multi-byte UTF-8: copy the raw byte run verbatim.
                        let mut end = self.i;
                        while self.s.get(end).is_some_and(|&b| b >= 0x80) {
                            end += 1;
                        }
                        let run = std::str::from_utf8(&self.s[self.i - 1..end])
                            .map_err(|_| format!("bad utf-8 at byte {start}"))?;
                        out.push_str(run);
                        self.i = end;
                    }
                }
            }
            Err("unterminated string".into())
        }

        fn number(&mut self) -> Result<Json, String> {
            self.ws();
            let start = self.i;
            while self
                .s
                .get(self.i)
                .is_some_and(|&c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            {
                self.i += 1;
            }
            std::str::from_utf8(&self.s[start..self.i])
                .ok()
                .and_then(|t| t.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }

    fn parse(doc: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: doc.as_bytes(),
            i: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    fn kind_of(s: &str) -> Result<&'static str, String> {
        kinds::ALL
            .iter()
            .copied()
            .find(|k| *k == s)
            .ok_or_else(|| format!("unknown alert kind {s:?}"))
    }

    fn rec_event(v: &Json) -> Result<RecEvent, String> {
        Ok(RecEvent {
            t_s: v.f64_of("t_s")?,
            cat: v.str_of("cat")?.to_string(),
            name: v.str_of("name")?.to_string(),
            detail: v.str_of("detail")?.to_string(),
        })
    }

    fn incident(v: &Json) -> Result<Incident, String> {
        let mut evidence = Vec::new();
        for (k, val) in v.obj_of("evidence")? {
            let Json::Str(s) = val else {
                return Err("evidence values must be strings".into());
            };
            // Evidence keys are emitted from 'static tables; intern them
            // against the known set, falling back through a leak-free match.
            evidence.push((intern_evidence(k)?, s.clone()));
        }
        let mut window = Vec::new();
        for e in v.arr_of("window")? {
            window.push(rec_event(e)?);
        }
        Ok(Incident {
            id: v.u64_of("id")?,
            kind: kind_of(v.str_of("kind")?)?,
            at_s: v.f64_of("at_s")?,
            key: v.str_of("key")?.to_string(),
            summary: v.str_of("summary")?.to_string(),
            evidence,
            window,
        })
    }

    /// Evidence keys are a closed set (each detector emits a fixed list);
    /// restoring maps them back to the `'static` originals.
    fn intern_evidence(k: &str) -> Result<&'static str, String> {
        const KEYS: &[&str] = &[
            "exec_s",
            "median_s",
            "robust_z",
            "samples",
            "fast_burn",
            "slow_burn",
            "fast_jobs",
            "fast_misses",
            "slow_jobs",
            "slow_misses",
            "flips",
            "recals",
            "net_ratio",
            "weighted_usage_s",
            "ledger_mean_s",
            "pain_events",
            "repair_bytes",
            "window_s",
            "plans",
        ];
        KEYS.iter()
            .copied()
            .find(|x| *x == k)
            .ok_or_else(|| format!("unknown evidence key {k:?}"))
    }

    pub(super) fn doctor(doc: &str) -> Result<Doctor, String> {
        let v = parse(doc)?;
        let schema = v.str_of("schema")?;
        if schema != "hybrid-hadoop-doctor/v1" {
            return Err(format!("unsupported schema {schema:?}"));
        }
        let c = v
            .get("config")
            .ok_or_else(|| "missing config".to_string())?;
        let cfg = DoctorConfig {
            ring_capacity: c.u64_of("ring_capacity")? as usize,
            incident_window: c.u64_of("incident_window")? as usize,
            max_incidents: c.u64_of("max_incidents")? as usize,
            straggler_min_samples: c.u64_of("straggler_min_samples")?,
            straggler_z: c.f64_of("straggler_z")?,
            straggler_cooldown: c.u64_of("straggler_cooldown")?,
            burn_budget: c.f64_of("burn_budget")?,
            burn_fast_secs: c.u64_of("burn_fast_secs")?,
            burn_slow_secs: c.u64_of("burn_slow_secs")?,
            burn_fast_rate: c.f64_of("burn_fast_rate")?,
            burn_slow_rate: c.f64_of("burn_slow_rate")?,
            burn_min_jobs: c.u64_of("burn_min_jobs")?,
            warmup_recals: c.u64_of("warmup_recals")? as usize,
            recal_min_step: c.f64_of("recal_min_step")?,
            new_band_grace_secs: c.u64_of("new_band_grace_secs")?,
            recal_max_age_secs: c.u64_of("recal_max_age_secs")?,
            recal_window: c.u64_of("recal_window")? as usize,
            thrash_flips: c.u64_of("thrash_flips")? as usize,
            drift_min_recals: c.u64_of("drift_min_recals")? as usize,
            drift_ratio: c.f64_of("drift_ratio")?,
            starvation_ratio: c.f64_of("starvation_ratio")?,
            starvation_min_events: c.u64_of("starvation_min_events")?,
            max_keys: c.u64_of("max_keys")? as usize,
            repair_storm_bytes: c.f64_of("repair_storm_bytes")?,
            repair_window_secs: c.u64_of("repair_window_secs")?,
        };
        let mut d = Doctor::new(cfg);
        d.events = v.u64_of("events")?;
        d.end = SimTime::from_secs_f64(v.f64_of("end_s")?);
        d.seq = v.u64_of("seq")?;
        d.dropped_incidents = v.u64_of("dropped")?;
        for (k, n) in v.obj_of("alerts")? {
            d.alerts.insert(kind_of(k)?, n.as_u64()?);
        }
        for (key, t) in v.obj_of("straggler")? {
            let mut track = StragglerTrack {
                mute: t.u64_of("mute")?,
                ..Default::default()
            };
            track.hist.total = t.u64_of("total")?;
            for pair in t.arr_of("counts")? {
                let Json::Arr(items) = pair else {
                    return Err("straggler counts must be [bucket, n] pairs".into());
                };
                if items.len() != 2 {
                    return Err("straggler counts must be [bucket, n] pairs".into());
                }
                track
                    .counts_mut()
                    .insert(items[0].as_u64()? as u32, items[1].as_u64()?);
            }
            d.straggler.insert(key.clone(), track);
        }
        for (q, w) in v.obj_of("burn")? {
            let mut window = BurnWindow {
                open: w.bool_of("open")?,
                ..Default::default()
            };
            for b in w.arr_of("buckets")? {
                let Json::Arr(items) = b else {
                    return Err("burn buckets must be [minute, jobs, misses]".into());
                };
                if items.len() != 3 {
                    return Err("burn buckets must be [minute, jobs, misses]".into());
                }
                window.buckets.push_back((
                    items[0].as_u64()?,
                    items[1].as_u64()?,
                    items[2].as_u64()?,
                ));
            }
            d.burn.insert(q.clone(), window);
        }
        for (band, t) in v.obj_of("recal")? {
            let mut track = RecalTrack {
                seen: t.u64_of("seen")?,
                first_s: t.f64_of("first_s")?,
                exempt: t.bool_of("exempt")?,
                state: t.u64_of("state")? as u8,
                ..Default::default()
            };
            for pair in t.arr_of("window")? {
                let Json::Arr(items) = pair else {
                    return Err("recal window must be [t, old, new] triples".into());
                };
                if items.len() != 3 {
                    return Err("recal window must be [t, old, new] triples".into());
                }
                track.window.push_back((
                    items[0].as_num()?,
                    items[1].as_u64()?,
                    items[2].as_u64()?,
                ));
            }
            d.recal.insert(band.clone(), track);
        }
        for s in v.arr_of("shares")? {
            let Json::Arr(items) = s else {
                return Err("shares must be [tenant, weight, usage] triples".into());
            };
            if items.len() != 3 {
                return Err("shares must be [tenant, weight, usage] triples".into());
            }
            d.shares
                .insert(items[0].as_u64()?, (items[1].as_num()?, items[2].as_num()?));
        }
        for p in v.arr_of("pain")? {
            let Json::Arr(items) = p else {
                return Err("pain must be [tenant, n] pairs".into());
            };
            if items.len() != 2 {
                return Err("pain must be [tenant, n] pairs".into());
            }
            d.tenant_pain.insert(items[0].as_u64()?, items[1].as_u64()?);
        }
        let rep = v
            .get("repair")
            .ok_or_else(|| "missing repair".to_string())?;
        d.repair.open = rep.bool_of("open")?;
        for pair in rep.arr_of("window")? {
            let Json::Arr(items) = pair else {
                return Err("repair window must be [t, bytes] pairs".into());
            };
            if items.len() != 2 {
                return Err("repair window must be [t, bytes] pairs".into());
            }
            d.repair
                .window
                .push_back((items[0].as_num()?, items[1].as_num()?));
        }
        for e in v.arr_of("ring")? {
            d.ring.push_back(rec_event(e)?);
        }
        for i in v.arr_of("incidents")? {
            d.incidents.push(incident(i)?);
        }
        Ok(d)
    }
}

impl StragglerTrack {
    fn counts_mut(&mut self) -> &mut BTreeMap<u32, u64> {
        &mut self.hist.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_span(d: &mut Doctor, id: u32, t0: u64, exec_s: f64, ratio: f64, input: u64) {
        let start = SimTime::from_secs(t0);
        let end = SimTime::from_secs_f64(t0 as f64 + exec_s);
        d.span(
            "job",
            "t#0",
            crate::lanes::JOBS,
            id,
            start,
            end,
            &[
                ("app", ArgValue::from("test")),
                ("cluster", ArgValue::from("scale-up")),
                ("input_bytes", ArgValue::from(input)),
                ("ratio", ArgValue::from(ratio)),
            ],
        );
    }

    fn tenant_complete(d: &mut Doctor, t: u64, queue: &str, slo_s: f64, miss: bool) {
        d.instant(
            "tenant",
            "complete",
            crate::lanes::JOBS,
            0,
            SimTime::from_secs(t),
            &[
                ("tenant", ArgValue::from(1u64)),
                ("queue", ArgValue::from(queue)),
                (
                    "sojourn_s",
                    ArgValue::from(if miss { slo_s * 2.0 } else { 1.0 }),
                ),
                ("slo_s", ArgValue::from(slo_s)),
                ("slo_miss", ArgValue::from(miss)),
            ],
        );
    }

    fn recal(d: &mut Doctor, t: u64, old: u64, new: u64) {
        d.instant(
            "scheduler",
            "recalibrate",
            crate::lanes::JOBS,
            0,
            SimTime::from_secs(t),
            &[
                ("band", ArgValue::from("S/I>1")),
                ("old_bytes", ArgValue::from(old)),
                ("new_bytes", ArgValue::from(new)),
            ],
        );
    }

    #[test]
    fn straggler_fires_on_outlier_and_mutes() {
        let mut d = Doctor::new(DoctorConfig {
            straggler_min_samples: 32,
            ..Default::default()
        });
        for i in 0..64 {
            job_span(&mut d, i, i as u64, 10.0, 1.5, 1 << 30);
        }
        assert_eq!(d.total_fired(), 0, "uniform execs never fire");
        job_span(&mut d, 100, 100, 400.0, 1.5, 1 << 30);
        assert_eq!(d.alerts_total().get(kinds::STRAGGLER), Some(&1));
        // A second outlier inside the cooldown is muted.
        job_span(&mut d, 101, 101, 400.0, 1.5, 1 << 30);
        assert_eq!(d.alerts_total().get(kinds::STRAGGLER), Some(&1));
        let inc = &d.incidents()[0];
        assert_eq!(inc.kind, kinds::STRAGGLER);
        assert!(
            inc.key.contains("S/I>1"),
            "key carries the band: {}",
            inc.key
        );
        assert!(inc.summary.contains("straggler"));
    }

    #[test]
    fn burn_rate_needs_both_windows_and_closes_on_recovery() {
        let mut d = Doctor::new(DoctorConfig {
            burn_min_jobs: 4,
            ..Default::default()
        });
        // 20 misses packed into the fast window: both windows hot -> one
        // open transition.
        for i in 0..20 {
            tenant_complete(&mut d, 10 + i, "batch", 5.0, true);
        }
        assert_eq!(d.alerts_total().get(kinds::BURN_RATE), Some(&1));
        assert_eq!(
            d.open_alerts(),
            vec![(kinds::BURN_RATE, "batch".to_string())]
        );
        // A healthy stretch clears the fast window: the alert closes
        // without re-firing.
        for i in 0..60 {
            tenant_complete(&mut d, 1000 + i * 10, "batch", 5.0, false);
        }
        assert_eq!(d.alerts_total().get(kinds::BURN_RATE), Some(&1));
        assert!(d.open_alerts().is_empty());
    }

    #[test]
    fn oscillation_separates_thrash_from_drift() {
        let base = 10_u64 << 30;
        let armed = DoctorConfig {
            warmup_recals: 0,
            ..Default::default()
        };
        // Monotone march: drift, no thrash.
        let mut d = Doctor::new(armed.clone());
        let mut x = base;
        for i in 0..8 {
            let next = x + (3 << 30);
            recal(&mut d, 100 * i, x, next);
            x = next;
        }
        assert_eq!(d.alerts_total().get(kinds::CROSSPOINT_DRIFT), Some(&1));
        assert_eq!(d.alerts_total().get(kinds::CROSSPOINT_THRASH), None);

        // Alternating direction: thrash, no drift.
        let mut d = Doctor::new(armed);
        for i in 0..8 {
            let (old, new) = if i % 2 == 0 {
                (base, base + (4 << 30))
            } else {
                (base + (4 << 30), base)
            };
            recal(&mut d, 100 * i, old, new);
        }
        assert_eq!(d.alerts_total().get(kinds::CROSSPOINT_THRASH), Some(&1));
        assert_eq!(d.alerts_total().get(kinds::CROSSPOINT_DRIFT), None);
    }

    #[test]
    fn oscillation_warmup_swallows_convergence_transient() {
        // An estimator converging from its default prior marches the
        // threshold monotonically — exactly a drift signature — but the
        // first `warmup_recals` recalibrations are burn-in, not an anomaly.
        let mut d = Doctor::new(DoctorConfig {
            warmup_recals: 8,
            ..Default::default()
        });
        let mut x = 32_u64 << 30;
        for i in 0..8 {
            let next = x - x / 4;
            recal(&mut d, 100 * i, x, next);
            x = next;
        }
        assert_eq!(d.total_fired(), 0, "convergence inside warm-up is quiet");
        // Post-warm-up, the same monotone march is real drift.
        for i in 8..16 {
            let next = x - x / 4;
            recal(&mut d, 100 * i, x, next);
            x = next;
        }
        assert_eq!(d.alerts_total().get(kinds::CROSSPOINT_DRIFT), Some(&1));
    }

    #[test]
    fn repair_storm_fires_once_per_storm_and_rearms_after_drain() {
        let mut d = Doctor::new(DoctorConfig {
            repair_storm_bytes: 1.0e9,
            repair_window_secs: 100,
            ..Default::default()
        });
        let repair = |d: &mut Doctor, t: u64, name: &str, bytes: f64| {
            d.instant(
                "fault",
                name,
                crate::lanes::STORAGE,
                0,
                SimTime::from_secs(t),
                &[("bytes", bytes.into())],
            );
        };
        // Scattered single-block repairs stay below the threshold.
        repair(&mut d, 10, "re_replicate", 3.0e8);
        repair(&mut d, 20, "reconstruct", 3.0e8);
        assert_eq!(d.alerts_total().get(kinds::REPAIR_STORM), None);
        // The storm crosses the threshold: exactly one alert, latched open.
        repair(&mut d, 30, "re_replicate", 5.0e8);
        repair(&mut d, 31, "re_replicate", 5.0e8);
        repair(&mut d, 32, "reconstruct", 5.0e8);
        assert_eq!(d.alerts_total().get(kinds::REPAIR_STORM), Some(&1));
        assert!(d
            .open_alerts()
            .contains(&(kinds::REPAIR_STORM, "storage".to_string())));
        let inc = d
            .incidents()
            .iter()
            .find(|i| i.kind == kinds::REPAIR_STORM)
            .expect("incident retained");
        assert!(inc.evidence.iter().any(|(k, _)| *k == "repair_bytes"));
        // After the window drains the detector closes and re-arms.
        repair(&mut d, 500, "re_replicate", 1.0e8);
        assert!(!d
            .open_alerts()
            .contains(&(kinds::REPAIR_STORM, "storage".to_string())));
        repair(&mut d, 510, "reconstruct", 1.1e9);
        assert_eq!(d.alerts_total().get(kinds::REPAIR_STORM), Some(&2));
        // The whole thing round-trips through snapshot/restore.
        let restored = Doctor::restore(&d.snapshot_json()).expect("restores");
        assert_eq!(restored.snapshot_json(), d.snapshot_json());
        assert_eq!(restored.open_alerts(), d.open_alerts());
    }

    #[test]
    fn share_violation_requires_starvation_and_pain() {
        let mut d = Doctor::new(DoctorConfig::default());
        let share = |d: &mut Doctor, tenant: u64, usage: f64| {
            d.instant(
                "tenant",
                "share",
                crate::lanes::JOBS,
                0,
                SimTime::from_secs(500),
                &[
                    ("tenant", ArgValue::from(tenant)),
                    ("weight", ArgValue::from(1.0)),
                    ("usage_s", ArgValue::from(usage)),
                ],
            );
        };
        share(&mut d, 1, 100.0);
        share(&mut d, 2, 100.0);
        share(&mut d, 3, 2.0);
        for _ in 0..5 {
            d.instant(
                "tenant",
                "preempt",
                crate::lanes::JOBS,
                0,
                SimTime::from_secs(400),
                &[
                    ("tenant", ArgValue::from(3u64)),
                    ("wasted_s", ArgValue::from(4.0)),
                ],
            );
        }
        d.finish(SimTime::from_secs(600));
        assert_eq!(d.alerts_total().get(kinds::SHARE_VIOLATION), Some(&1));
        let inc = d.incidents().last().unwrap();
        assert_eq!(inc.key, "t3");

        // Same shares, no preemptions: low usage alone is demand, not
        // starvation.
        let mut d = Doctor::new(DoctorConfig::default());
        share(&mut d, 1, 100.0);
        share(&mut d, 2, 100.0);
        share(&mut d, 3, 2.0);
        d.finish(SimTime::from_secs(600));
        assert_eq!(d.total_fired(), 0);
    }

    #[test]
    fn flight_recorder_is_bounded_and_windows_incidents() {
        let mut d = Doctor::new(DoctorConfig {
            ring_capacity: 8,
            incident_window: 4,
            straggler_min_samples: 16,
            ..Default::default()
        });
        for i in 0..100u64 {
            d.instant(
                "fault",
                "node_crash",
                crate::lanes::JOBS,
                0,
                SimTime::from_secs(i),
                &[("node", ArgValue::from(i))],
            );
        }
        assert_eq!(d.ring.len(), 8);
        for i in 0..40 {
            job_span(&mut d, i, 200 + i as u64, 10.0, 1.5, 1 << 30);
        }
        job_span(&mut d, 999, 400, 500.0, 1.5, 1 << 30);
        let inc = d.incidents().last().expect("straggler fired");
        assert_eq!(inc.window.len(), 4);
        assert!(inc.window.iter().all(|e| e.cat == "fault"));
        assert!(inc.window[0].detail.starts_with("node="));
    }

    #[test]
    fn incident_json_is_schema_versioned_and_deterministic() {
        let mut d = Doctor::new(DoctorConfig::default());
        for i in 0..60 {
            job_span(&mut d, i, i as u64, 10.0, 1.5, 1 << 30);
        }
        job_span(&mut d, 100, 100, 500.0, 1.5, 1 << 30);
        d.finish(SimTime::from_secs(700));
        let doc = d.render_incidents_json();
        assert!(doc.contains("\"schema\": \"hybrid-hadoop-incident/v1\""));
        assert!(doc.contains("\"straggler\": 1"));
        let again = d.render_incidents_json();
        assert_eq!(doc, again);
    }

    #[test]
    fn prometheus_section_lists_every_kind() {
        let d = Doctor::new(DoctorConfig::default());
        let prom = d.render_prometheus();
        for kind in kinds::ALL {
            assert!(prom.contains(&format!("kind=\"{kind}\"")), "missing {kind}");
        }
        assert!(prom.contains(names::DOCTOR_ALERTS_TOTAL));
        assert!(prom.contains(names::DOCTOR_INCIDENTS));
    }

    /// Full-state snapshot equivalence: cut a mixed event stream at every
    /// 16th event, round-trip the doctor through JSON at the cut, and the
    /// continued session must match the uninterrupted one — alerts,
    /// incidents, open state, and the next snapshot, byte for byte.
    #[test]
    fn snapshot_restore_roundtrip_preserves_all_state() {
        let feed = |d: &mut Doctor, i: u64| {
            match i % 5 {
                0 => job_span(d, i as u32, i, 10.0 + (i % 3) as f64, 1.5, 1 << 30),
                1 => job_span(
                    d,
                    i as u32,
                    i,
                    if i == 71 { 900.0 } else { 12.0 },
                    0.2,
                    1 << 34,
                ),
                2 => tenant_complete(d, i, "batch", 5.0, i.is_multiple_of(2)),
                3 => recal(
                    d,
                    i,
                    (10 << 30) + (i % 7) * (1 << 28),
                    (10 << 30) + ((i + 3) % 7) * (1 << 28),
                ),
                _ => d.instant(
                    "fault",
                    "node_crash",
                    crate::lanes::JOBS,
                    0,
                    SimTime::from_secs(i),
                    &[("node", ArgValue::from(i % 14))],
                ),
            };
        };
        let mut base = Doctor::new(DoctorConfig {
            burn_min_jobs: 4,
            straggler_min_samples: 8,
            ..Default::default()
        });
        for i in 0..300 {
            feed(&mut base, i);
        }
        base.finish(SimTime::from_secs(301));
        let base_doc = base.snapshot_json();
        let base_report = base.render_incidents_json();

        let mut riddled = Doctor::new(DoctorConfig {
            burn_min_jobs: 4,
            straggler_min_samples: 8,
            ..Default::default()
        });
        for i in 0..300 {
            feed(&mut riddled, i);
            if (i + 1) % 16 == 0 {
                riddled = Doctor::restore(&riddled.snapshot_json())
                    .expect("a saved doctor snapshot always restores");
            }
        }
        riddled.finish(SimTime::from_secs(301));
        assert_eq!(riddled.snapshot_json(), base_doc);
        assert_eq!(riddled.render_incidents_json(), base_report);
        assert_eq!(riddled.alerts_total(), base.alerts_total());
        assert_eq!(riddled.open_alerts(), base.open_alerts());

        // save -> restore -> save is byte-stable.
        let restored = Doctor::restore(&base_doc).expect("restores");
        assert_eq!(restored.snapshot_json(), base_doc);
    }

    #[test]
    fn restore_rejects_bad_documents() {
        assert!(Doctor::restore("{}").is_err());
        assert!(Doctor::restore("not json").is_err());
        let doc = Doctor::new(DoctorConfig::default())
            .snapshot_json()
            .replace("hybrid-hadoop-doctor/v1", "hybrid-hadoop-doctor/v0");
        assert!(Doctor::restore(&doc).is_err());
    }

    #[test]
    fn restore_rejects_deep_nesting_without_overflowing() {
        let err = Doctor::restore(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        // The limit is on depth, not on the number of values: a real
        // snapshot still restores.
        let doc = Doctor::new(DoctorConfig::default()).snapshot_json();
        assert!(Doctor::restore(&doc).is_ok());
    }
}
