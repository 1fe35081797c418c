//! Online routing service: the paper's Algorithm-1 decision as a long-lived
//! process.
//!
//! Reads JSON-lines requests from stdin and answers one JSON line per
//! request on stdout — the shape of a production routing sidecar, backed by
//! the closed-loop [`scheduler::AdaptiveScheduler`] and its
//! [`scheduler::snapshot`] restart guarantee.
//!
//! ## Protocol (one JSON object per line)
//!
//! - `{"op":"route","id":1,"input_size":1073741824,"ratio":1.6}` →
//!   `{"op":"route","id":1,"placement":"scale-up","band":"S/I>1",
//!     "threshold_bytes":...,"probe":false,"note":"..."}`. The note is the
//!   same `"<tag>: <detail>"` explain shape the replay audit uses.
//! - `{"op":"batch","jobs":[{"id":...,"input_size":...,"ratio":...},...]}` →
//!   `{"op":"batch","decisions":[...]}`. The batch is routed through
//!   [`scheduler::AdaptiveScheduler::route_batch`], which loads the live
//!   thresholds once and is bitwise-identical to sequential `route` calls.
//! - `{"op":"complete","input_size":...,"ratio":...,"ran_up":true,
//!     "exec_s":12.5}` → `{"op":"complete","accepted":true,
//!     "recalibrated":null | {"band":...,"old_bytes":...,"new_bytes":...}}`.
//!   Feedback drives the estimator exactly like a replay completion.
//! - `{"op":"snapshot"}` → `{"op":"snapshot","doc":"<escaped JSON>"}`; the
//!   document is also written to `--snapshot-out` when that flag is set.
//! - `{"op":"alerts"}` (with `--doctor`) → the live anomaly state:
//!   `{"op":"alerts","events":...,"alerts_total":{...},"open":[...],
//!     "incidents":N}`. Counts come straight from the [`obs::Doctor`]
//!   folding every served op, so the answer is a pure function of the
//!   request history.
//!
//! ## Flags
//!
//! - `--snapshot-in <path>` — restore the scheduler from a saved snapshot
//!   instead of starting fresh; every subsequent decision is bitwise what
//!   the uninterrupted process would have produced.
//! - `--snapshot-out <path>` — write the final snapshot on EOF, on a
//!   `snapshot` request, and on `SIGTERM`.
//! - `--exploration <p>` — probe rate for a fresh scheduler (default 0.05;
//!   ignored with `--snapshot-in`, which carries its own config).
//! - `--gen <N>` — serve a deterministic synthetic stream instead of stdin:
//!   route the N-job fixed-seed FB-2009 trace in batches of 32, feed a
//!   deterministic completion for each decision, print one decision line
//!   per job. The CI smoke mode.
//! - `--skip <K>` — with `--gen`, skip the first K jobs entirely (their
//!   state is expected to come from `--snapshot-in`); prints decisions
//!   K..N. `diff` against the tail of an uninterrupted run proves restart
//!   equivalence end-to-end through this binary.
//! - `--snapshot-after <K>` — with `--gen`, write `--snapshot-out` right
//!   after the K-th completion (instead of at the end).
//! - `--metrics-out <path>` — fold every served op into the bounded-memory
//!   [`obs::OnlineAggregator`] (`hh_route_serve_ops_total`) and write the
//!   Prometheus/JSON expositions at exit.
//! - `--doctor` — attach an [`obs::Doctor`]: completions are folded as job
//!   spans (straggler detection), recalibrations feed the cross-point
//!   oscillation detector, and the `alerts` op answers from the live state.
//!   With `--metrics-out` the conditional `hh_doctor_*` Prometheus section
//!   is appended (doctor-off expositions stay byte-identical). Snapshots
//!   become a `hybrid-hadoop-serve/v1` wrapper carrying both the scheduler
//!   document and the doctor state; `--snapshot-in` sniffs the schema, so
//!   plain scheduler snapshots keep working.
//! - `--incidents-out <path>` — write the `hybrid-hadoop-incident/v1`
//!   document at exit (requires `--doctor`).

use experiments::common::{flag_value, write_metrics, write_rendered_metrics};
use mapreduce::{JobProfile, JobSpec};
use obs::TelemetrySink;
use scheduler::{AdaptiveConfig, AdaptiveDecision, AdaptiveScheduler, Placement, Recalibration};
use simcore::{SimDuration, SimTime};
use std::io::{BufRead, Write};

/// Schema tag for the combined scheduler+doctor snapshot wrapper.
const SERVE_SCHEMA: &str = "hybrid-hadoop-serve/v1";

// ----------------------------------------------------------------------
// SIGTERM → orderly snapshot. std-only: declare the libc `signal` symbol
// (already linked via std) and flip an atomic the serve loop polls.
// ----------------------------------------------------------------------

#[cfg(unix)]
mod term {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_sig: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod term {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

// ----------------------------------------------------------------------
// Minimal JSON reader for request lines (std-only, same spirit as the
// snapshot/bench cursors but returning a tree: requests are tiny).
// ----------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
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

    fn str_of(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn f64_of(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn u64_of(&self, key: &str) -> Option<u64> {
        let x = self.f64_of(key)?;
        (x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64).then_some(x as u64)
    }

    fn bool_of(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Deepest array/object nesting a request may use. The reader recurses
/// once per level, so without a limit one line of `[`s overflows the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            s: s.as_bytes(),
            i: 0,
            depth: 0,
        }
    }

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
        let mut out = String::new();
        while let Some(&c) = self.s.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
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
                c => out.push(c as char),
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

fn parse_line(line: &str) -> Result<Json, String> {
    let mut p = Parser::new(line);
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

/// Escape a string for embedding in a one-line JSON response.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ----------------------------------------------------------------------
// Service core
// ----------------------------------------------------------------------

fn gib(bytes: u64) -> String {
    format!("{:.2} GiB", bytes as f64 / (1u64 << 30) as f64)
}

/// The explain note for one decision — same `"<tag>: <detail>"` shape as the
/// replay audit's adaptive notes, so downstream reason-tagging matches.
fn note(d: &AdaptiveDecision, input_size: u64) -> String {
    match (d.probe, d.placement) {
        (true, Placement::ScaleUp) => format!(
            "exploration probe: sampling scale-up at {} against cross point {}",
            gib(input_size),
            gib(d.threshold)
        ),
        (true, Placement::ScaleOut) => format!(
            "exploration probe: sampling scale-out at {} against cross point {}",
            gib(input_size),
            gib(d.threshold)
        ),
        (false, Placement::ScaleUp) => format!(
            "rejected scale-out: input {} below cross point {}",
            gib(input_size),
            gib(d.threshold)
        ),
        (false, Placement::ScaleOut) => format!(
            "rejected scale-up: input {} at/above cross point {}",
            gib(input_size),
            gib(d.threshold)
        ),
    }
}

fn side(p: Placement) -> &'static str {
    match p {
        Placement::ScaleUp => "scale-up",
        Placement::ScaleOut => "scale-out",
    }
}

fn decision_json(id: u64, d: &AdaptiveDecision, input_size: u64) -> String {
    format!(
        "{{\"id\":{id},\"placement\":\"{}\",\"band\":\"{}\",\"threshold_bytes\":{},\"probe\":{},\"note\":\"{}\"}}",
        side(d.placement),
        json_escape(d.band),
        d.threshold,
        d.probe,
        json_escape(&note(d, input_size))
    )
}

fn recal_json(rec: &Option<Recalibration>) -> String {
    match rec {
        None => "null".into(),
        Some(r) => format!(
            "{{\"band\":\"{}\",\"old_bytes\":{},\"new_bytes\":{}}}",
            json_escape(r.band),
            r.old_bytes,
            r.new_bytes
        ),
    }
}

/// The serving state: the scheduler plus the op audit feeding
/// `hh_route_serve_ops_total` and the optional anomaly doctor.
struct Service {
    sched: AdaptiveScheduler,
    metrics: Option<obs::OnlineAggregator>,
    doctor: Option<obs::Doctor>,
    ops: u64,
    snapshot_out: Option<String>,
}

impl Service {
    fn tally(&mut self, op: &'static str) {
        self.ops += 1;
        if let Some(agg) = self.metrics.as_mut() {
            agg.instant("route_serve", op, 0, 0, SimTime::from_secs(self.ops), &[]);
        }
    }

    /// Fold one completion into the doctor: the job span feeds the
    /// straggler detector (the scheduler's completion counter is the time
    /// axis — it travels inside the snapshot, so a restarted service keeps
    /// the same clock — and the reported execution is the span length) and
    /// any recalibration feeds the cross-point oscillation detector, the
    /// same event vocabulary a replay emits. Doctor state is thus a pure
    /// function of the completion stream: byte-identical across restarts.
    fn doctor_complete(
        &mut self,
        input_size: u64,
        ratio: f64,
        ran_up: bool,
        exec_s: f64,
        rec: &Option<Recalibration>,
    ) {
        let Some(doc) = self.doctor.as_mut() else {
            return;
        };
        let start = SimTime::from_secs(self.sched.completions());
        let end = start + SimDuration::from_secs_f64(exec_s.max(0.0));
        doc.span(
            "job",
            "serve-complete",
            obs::lanes::JOBS,
            0,
            start,
            end,
            &[
                (
                    "cluster",
                    if ran_up { "scale-up" } else { "scale-out" }.into(),
                ),
                ("ratio", ratio.into()),
                ("input_bytes", input_size.into()),
            ],
        );
        if let Some(r) = rec {
            doc.instant(
                "scheduler",
                "recalibrate",
                obs::lanes::JOBS,
                0,
                end,
                &[
                    ("band", r.band.into()),
                    ("old_bytes", r.old_bytes.into()),
                    ("new_bytes", r.new_bytes.into()),
                ],
            );
        }
    }

    /// The snapshot document: the plain scheduler snapshot when no doctor
    /// is attached (bytes unchanged from earlier releases), or the
    /// `hybrid-hadoop-serve/v1` wrapper carrying both states.
    fn snapshot_doc(&self) -> String {
        let sched = scheduler::snapshot::save(&self.sched);
        match &self.doctor {
            None => sched,
            Some(doc) => format!(
                "{{\"schema\":\"{SERVE_SCHEMA}\",\"sched\":\"{}\",\"doctor\":\"{}\"}}",
                json_escape(&sched),
                json_escape(&doc.snapshot_json())
            ),
        }
    }

    fn spec(id: u64, input_size: u64, ratio: f64) -> JobSpec {
        JobSpec::at_zero(
            id as u32,
            JobProfile::basic("route-serve", ratio, 1.0),
            input_size,
        )
    }

    fn handle(&mut self, req: &Json) -> String {
        match req.str_of("op") {
            Some("route") => {
                let (Some(input_size), Some(ratio)) =
                    (req.u64_of("input_size"), req.f64_of("ratio"))
                else {
                    return err("route needs numeric input_size and ratio");
                };
                let id = req.u64_of("id").unwrap_or(0);
                self.tally("decision");
                let d = self.sched.route(&Self::spec(id, input_size, ratio));
                format!(
                    "{{\"op\":\"route\",{}",
                    decision_json(id, &d, input_size).split_off(1)
                )
            }
            Some("batch") => {
                let Some(Json::Arr(jobs)) = req.get("jobs") else {
                    return err("batch needs a jobs array");
                };
                let mut specs = Vec::with_capacity(jobs.len());
                for j in jobs {
                    let (Some(input_size), Some(ratio)) =
                        (j.u64_of("input_size"), j.f64_of("ratio"))
                    else {
                        return err("every batch job needs numeric input_size and ratio");
                    };
                    specs.push(Self::spec(j.u64_of("id").unwrap_or(0), input_size, ratio));
                }
                self.tally("batch");
                for _ in &specs {
                    self.tally("decision");
                }
                let decisions = self.sched.route_batch(specs.iter());
                let body: Vec<String> = decisions
                    .iter()
                    .zip(&specs)
                    .map(|(d, s)| decision_json(s.id.0 as u64, d, s.input_size))
                    .collect();
                format!("{{\"op\":\"batch\",\"decisions\":[{}]}}", body.join(","))
            }
            Some("complete") => {
                let (Some(input_size), Some(ratio), Some(ran_up), Some(exec_s)) = (
                    req.u64_of("input_size"),
                    req.f64_of("ratio"),
                    req.bool_of("ran_up"),
                    req.f64_of("exec_s"),
                ) else {
                    return err("complete needs input_size, ratio, ran_up, exec_s");
                };
                self.tally("feedback");
                let before = self.sched.completions();
                let rec = self.sched.observe(input_size, ratio, ran_up, exec_s);
                self.doctor_complete(input_size, ratio, ran_up, exec_s, &rec);
                format!(
                    "{{\"op\":\"complete\",\"accepted\":{},\"recalibrated\":{}}}",
                    self.sched.completions() > before,
                    recal_json(&rec)
                )
            }
            Some("snapshot") => {
                self.tally("snapshot_save");
                let doc = self.snapshot_doc();
                if let Some(path) = self.snapshot_out.clone() {
                    write_snapshot(&path, &doc);
                }
                format!("{{\"op\":\"snapshot\",\"doc\":\"{}\"}}", json_escape(&doc))
            }
            Some("alerts") => {
                self.tally("alerts");
                let Some(doc) = self.doctor.as_ref() else {
                    return err("the alerts op requires --doctor");
                };
                let totals: Vec<String> = obs::doctor::kinds::ALL
                    .iter()
                    .map(|&k| {
                        format!(
                            "\"{k}\":{}",
                            doc.alerts_total().get(k).copied().unwrap_or(0)
                        )
                    })
                    .collect();
                let open: Vec<String> = doc
                    .open_alerts()
                    .iter()
                    .map(|(k, key)| {
                        format!("{{\"kind\":\"{k}\",\"key\":\"{}\"}}", json_escape(key))
                    })
                    .collect();
                format!(
                    "{{\"op\":\"alerts\",\"events\":{},\"alerts_total\":{{{}}},\"open\":[{}],\"incidents\":{}}}",
                    doc.events(),
                    totals.join(","),
                    open.join(","),
                    doc.incidents().len()
                )
            }
            Some(other) => err(&format!("unknown op {other:?}")),
            None => err("request needs a string \"op\" field"),
        }
    }

    fn final_snapshot(&mut self) {
        if let Some(path) = self.snapshot_out.clone() {
            self.tally("snapshot_save");
            write_snapshot(&path, &self.snapshot_doc());
        }
    }
}

fn err(msg: &str) -> String {
    format!("{{\"op\":\"error\",\"message\":\"{}\"}}", json_escape(msg))
}

fn write_snapshot(path: &str, doc: &str) {
    std::fs::write(path, doc).unwrap_or_else(|e| panic!("writing --snapshot-out {path}: {e}"));
    eprintln!("wrote scheduler snapshot to {path}");
}

// ----------------------------------------------------------------------
// `--gen` mode: a deterministic synthetic serving session for CI smoke.
// ----------------------------------------------------------------------

/// Deterministic execution-time model for generated feedback: scale-up wins
/// below ~10 GiB, scale-out above, so completions actually move thresholds.
fn synth_exec(input_size: u64, ratio: f64, ran_up: bool) -> f64 {
    let g = input_size as f64 / (1u64 << 30) as f64;
    if ran_up {
        5.0 + 2.0 * g * (1.0 + ratio)
    } else {
        15.0 + 1.0 * g * (1.0 + ratio)
    }
}

fn run_generated(svc: &mut Service, jobs: usize, skip: usize, snapshot_after: Option<usize>) {
    let trace = workload::generate_facebook_trace(&workload::FacebookTraceConfig {
        jobs,
        window: simcore::SimDuration::from_secs(jobs as u64 * 12),
        ..Default::default()
    });
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut start = skip;
    while start < jobs {
        // Batches are 32 jobs, but a requested snapshot point always lands
        // on a batch boundary: a batch draws its exploration probes up
        // front, so a mid-batch snapshot would capture RNG state ahead of
        // the decisions already emitted and break restart equivalence.
        let mut end = (start + 32).min(jobs);
        if let Some(snap) = snapshot_after {
            if (start..end).contains(&snap) && snap > start {
                end = snap;
            }
        }
        let chunk = &trace[start..end];
        svc.tally("batch");
        for _ in chunk {
            svc.tally("decision");
        }
        let decisions = svc.sched.route_batch(chunk.iter());
        for (spec, d) in chunk.iter().zip(&decisions) {
            writeln!(
                out,
                "{}",
                decision_json(spec.id.0 as u64, d, spec.input_size)
            )
            .expect("writing decision line");
            svc.tally("feedback");
            let ran_up = d.placement == Placement::ScaleUp;
            let ratio = spec.profile.shuffle_input_ratio;
            let exec_s = synth_exec(spec.input_size, ratio, ran_up);
            let rec = svc.sched.observe(spec.input_size, ratio, ran_up, exec_s);
            svc.doctor_complete(spec.input_size, ratio, ran_up, exec_s, &rec);
        }
        start = end;
        if snapshot_after == Some(start) {
            svc.final_snapshot();
        }
        if term::requested() {
            break;
        }
    }
    if snapshot_after.is_none() {
        svc.final_snapshot();
    }
}

// ----------------------------------------------------------------------
// Stdin serve loop
// ----------------------------------------------------------------------

fn run_stdin(svc: &mut Service) {
    // A reader thread feeds lines through a channel so the serve loop can
    // keep polling the SIGTERM flag while stdin is quiet.
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let stdout = std::io::stdout();
    loop {
        if term::requested() {
            eprintln!("SIGTERM: snapshotting and exiting");
            break;
        }
        match rx.recv_timeout(std::time::Duration::from_millis(100)) {
            Ok(line) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let response = match parse_line(line) {
                    Ok(req) => svc.handle(&req),
                    Err(e) => err(&format!("bad request: {e}")),
                };
                let mut out = stdout.lock();
                writeln!(out, "{response}").expect("writing response line");
                out.flush().expect("flushing stdout");
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    svc.final_snapshot();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    term::install();
    let want_doctor = args.iter().any(|a| a == "--doctor");

    let mut restored_doctor: Option<obs::Doctor> = None;
    let sched = match flag_value(&args, "--snapshot-in") {
        Some(path) => {
            let doc = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading --snapshot-in {path}: {e}"));
            // Sniff the schema: a serve/v1 wrapper carries both states; any
            // other document is a plain scheduler snapshot.
            let wrapper = parse_line(&doc)
                .ok()
                .filter(|v| v.str_of("schema") == Some(SERVE_SCHEMA));
            let sched_doc = match &wrapper {
                Some(v) => {
                    let inner = v.str_of("doctor").unwrap_or_else(|| {
                        eprintln!("error: --snapshot-in {path} is {SERVE_SCHEMA} without a doctor section");
                        std::process::exit(2);
                    });
                    restored_doctor = Some(obs::Doctor::restore(inner).unwrap_or_else(|e| {
                        eprintln!("error: --snapshot-in {path} doctor section is invalid: {e}");
                        std::process::exit(2);
                    }));
                    v.str_of("sched")
                        .unwrap_or_else(|| {
                            eprintln!("error: --snapshot-in {path} is {SERVE_SCHEMA} without a sched section");
                            std::process::exit(2);
                        })
                        .to_string()
                }
                None => doc,
            };
            scheduler::snapshot::restore(&sched_doc).unwrap_or_else(|e| {
                eprintln!("error: --snapshot-in {path} is not a valid snapshot: {e}");
                std::process::exit(2);
            })
        }
        None => {
            let exploration = flag_value(&args, "--exploration")
                .map(|v| {
                    v.parse::<f64>()
                        .ok()
                        .filter(|p| p.is_finite() && (0.0..=1.0).contains(p))
                        .unwrap_or_else(|| panic!("--exploration takes a rate in [0,1], got {v:?}"))
                })
                .unwrap_or(AdaptiveConfig::default().exploration);
            AdaptiveScheduler::new(AdaptiveConfig {
                exploration,
                ..Default::default()
            })
        }
    };
    let metrics_out = flag_value(&args, "--metrics-out");
    let incidents_out = flag_value(&args, "--incidents-out");
    if incidents_out.is_some() && !want_doctor && restored_doctor.is_none() {
        eprintln!("error: --incidents-out requires --doctor");
        std::process::exit(2);
    }
    let mut svc = Service {
        sched,
        metrics: metrics_out
            .as_ref()
            .map(|_| obs::OnlineAggregator::new(obs::TelemetryConfig::default())),
        doctor: restored_doctor
            .or_else(|| want_doctor.then(|| obs::Doctor::new(obs::DoctorConfig::default()))),
        ops: 0,
        snapshot_out: flag_value(&args, "--snapshot-out"),
    };
    if flag_value(&args, "--snapshot-in").is_some() {
        svc.tally("snapshot_restore");
    }

    let parse_count = |flag: &str| {
        flag_value(&args, flag).map(|v| {
            v.parse::<usize>()
                .unwrap_or_else(|_| panic!("{flag} takes a non-negative integer, got {v:?}"))
        })
    };
    match parse_count("--gen") {
        Some(jobs) => {
            let skip = parse_count("--skip").unwrap_or(0);
            if skip > jobs {
                eprintln!("--skip {skip} exceeds --gen {jobs}");
                std::process::exit(2);
            }
            run_generated(&mut svc, jobs, skip, parse_count("--snapshot-after"));
        }
        None => run_stdin(&mut svc),
    }

    // The doctor closes on its own restart-stable clock (completions);
    // the aggregator keeps the op counter it timestamped every op with.
    let completions = svc.sched.completions();
    if let Some(doc) = svc.doctor.as_mut() {
        doc.finish(SimTime::from_secs(completions));
    }
    if let (Some(path), Some(mut agg)) = (metrics_out, svc.metrics.take()) {
        agg.finish(SimTime::from_secs(svc.ops));
        match svc.doctor.as_ref() {
            // The doctor section is strictly appended, so doctor-off
            // expositions keep their exact historical bytes.
            Some(doc) => write_rendered_metrics(
                &(agg.render_prometheus() + &doc.render_prometheus()),
                &agg.render_json(),
                &path,
            ),
            None => write_metrics(&agg, &path),
        }
    }
    if let (Some(path), Some(doc)) = (incidents_out, svc.doctor.as_ref()) {
        std::fs::write(&path, doc.render_incidents_json())
            .unwrap_or_else(|e| panic!("writing --incidents-out {path}: {e}"));
        eprintln!("wrote incident report to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_is_limited_without_recursing_past_the_limit() {
        assert!(parse_line(&nested(MAX_DEPTH)).is_ok());
        let err = parse_line(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        // Deep enough to overflow the stack of an unlimited reader.
        assert!(parse_line(&"[".repeat(200_000)).is_err());
        let batch = format!("{{\"op\":\"batch\",\"jobs\":{}}}", "[".repeat(200_000));
        assert!(parse_line(&batch).is_err());
    }

    #[test]
    fn siblings_do_not_add_up_to_the_limit() {
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 100].join(","));
        assert!(parse_line(&wide).is_ok());
        let deepest = nested(MAX_DEPTH - 1);
        let obj = format!("{{\"a\":{deepest},\"b\":{deepest}}}");
        assert!(parse_line(&obj).is_ok());
    }
}
