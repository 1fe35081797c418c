//! The `serve_route` workload: one closed-loop client driving a
//! `route_serve` child process over its JSON-lines protocol.
//!
//! The child starts from a warm `--snapshot-in` checkpoint (the scheduler
//! after [`WARM_JOBS`] completions). Each step sends one `batch` of
//! [`BATCH`] FB-2009 jobs, waits for the decisions, then sends one
//! `complete` per job — `ran_up` from the decision, `exec_s` from a seeded
//! model — and waits for every reply. Every [`SNAPSHOT_EVERY`] steps it
//! sends a `snapshot` op, and records that snapshot's size and latency: the
//! scheduler's audit trail grows with the session, and so do snapshots.
//!
//! A session is a fixed request sequence, repeated until the time is up,
//! so sizes and simulated times are exact per seed. Its decisions and
//! snapshot documents are checked against an in-process replica that
//! calls `AdaptiveScheduler` and `scheduler::snapshot` directly; the
//! replica's timings give the `scheduler` layer, and the rest of the
//! serve wall is the protocol's (parse, format, pipe).

use crate::report::{self, Fnv, Report};
use mapreduce::JobSpec;
use scheduler::{AdaptiveConfig, AdaptiveDecision, AdaptiveScheduler, Placement};
use simcore::rng::{derive_seed, substream};
use simcore::SimDuration;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use workload::FacebookTraceConfig;

/// Completions folded into the warm checkpoint the child restores.
pub const WARM_JOBS: usize = 50_000;
/// Jobs per `batch` request.
pub const BATCH: usize = 32;
/// Steps (batch + completes) per session.
pub const STEPS: usize = 600;
/// A `snapshot` op after every this many steps.
pub const SNAPSHOT_EVERY: usize = 10;
/// In-process replica repeats per traced run.
const REPLICA_REPEATS: usize = 5;

/// The serve workload's inputs, a pure function of the seed.
pub struct ServeInputs {
    pub seed: u64,
    /// The scheduler checkpoint the child starts from.
    pub warm_doc: String,
    /// The session's jobs, in request order.
    pub jobs: Vec<JobSpec>,
}

impl ServeInputs {
    pub fn new(seed: u64) -> Self {
        let total = WARM_JOBS + STEPS * BATCH;
        let mut stream = workload::facebook::stream(&FacebookTraceConfig {
            jobs: total,
            seed,
            window: SimDuration::from_secs_f64(4.8 * total as f64),
            bursts: None,
            ..Default::default()
        });
        let warm: Vec<JobSpec> = stream.next_chunk(WARM_JOBS);
        let mut sched = AdaptiveScheduler::new(AdaptiveConfig {
            seed: derive_seed(seed, 0xAD47),
            ..Default::default()
        });
        for chunk in warm.chunks(BATCH) {
            let decisions = sched.route_batch(chunk.iter());
            for (job, d) in chunk.iter().zip(&decisions) {
                let up = d.placement == Placement::ScaleUp;
                let ratio = job.profile.shuffle_input_ratio;
                sched.observe(job.input_size, ratio, up, exec_s(seed, job, up));
            }
        }
        ServeInputs {
            seed,
            warm_doc: scheduler::snapshot::save(&sched),
            jobs: stream.collect(),
        }
    }

    /// The `batch` request of step `step`.
    pub fn batch_line(&self, step: usize) -> String {
        let jobs: Vec<String> = self
            .step_jobs(step)
            .iter()
            .map(|j| {
                format!(
                    "{{\"id\":{},\"input_size\":{},\"ratio\":{}}}",
                    j.id.0, j.input_size, j.profile.shuffle_input_ratio
                )
            })
            .collect();
        format!("{{\"op\":\"batch\",\"jobs\":[{}]}}", jobs.join(","))
    }

    /// The `complete` request for `job` after it ran on the chosen side.
    pub fn complete_line(&self, job: &JobSpec, ran_up: bool) -> String {
        format!(
            "{{\"op\":\"complete\",\"input_size\":{},\"ratio\":{},\"ran_up\":{},\"exec_s\":{}}}",
            job.input_size,
            job.profile.shuffle_input_ratio,
            ran_up,
            exec_s(self.seed, job, ran_up)
        )
    }

    pub fn step_jobs(&self, step: usize) -> &[JobSpec] {
        &self.jobs[step * BATCH..(step + 1) * BATCH]
    }

    /// Every input byte the program receives apart from the decisions it
    /// makes itself: the checkpoint, the batches, and the modelled
    /// execution time of each job on either side.
    pub fn input_bytes(&self) -> Vec<u8> {
        let mut out = self.warm_doc.clone().into_bytes();
        for step in 0..STEPS {
            out.extend(self.batch_line(step).into_bytes());
        }
        for job in &self.jobs {
            out.extend(self.complete_line(job, true).into_bytes());
            out.extend(self.complete_line(job, false).into_bytes());
        }
        out
    }
}

/// Seeded execution-time model: scale-up wins below ~10 GiB and
/// scale-out above, with ±25 % per-job noise, so completions move the
/// cross points.
pub fn exec_s(seed: u64, job: &JobSpec, ran_up: bool) -> f64 {
    let g = job.input_size as f64 / (1u64 << 30) as f64;
    let r = job.profile.shuffle_input_ratio;
    let base = if ran_up {
        5.0 + 2.0 * g * (1.0 + r)
    } else {
        15.0 + g * (1.0 + r)
    };
    base * substream(derive_seed(seed, 0xE7EC), job.id.0 as u64).range_f64(0.8, 1.25)
}

/// One routing decision, as compared between the child and the replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    pub id: u64,
    pub up: bool,
    pub band: String,
    pub threshold: u64,
    pub probe: bool,
}

impl Decision {
    fn of(job: &JobSpec, d: &AdaptiveDecision) -> Self {
        Decision {
            id: job.id.0 as u64,
            up: d.placement == Placement::ScaleUp,
            band: d.band.to_string(),
            threshold: d.threshold,
            probe: d.probe,
        }
    }
}

/// The text after `"key":` in `s`, if the key occurs.
fn after<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    s.find(&pat).map(|i| &s[i + pat.len()..])
}

/// The leading unsigned integer of `s`.
fn leading_u64(s: &str) -> Option<u64> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().ok()
}

/// The decisions of a `batch` reply, in order; `None` if it is not one.
pub fn parse_decisions(reply: &str) -> Option<Vec<Decision>> {
    let mut rest = reply.strip_prefix("{\"op\":\"batch\",\"decisions\":[")?;
    let mut out = Vec::new();
    while let Some(i) = rest.find("{\"id\":") {
        rest = &rest[i..];
        let id = leading_u64(after(rest, "id")?)?;
        let placement = after(rest, "placement")?;
        let up = placement.starts_with("\"scale-up\"");
        let band_text = after(rest, "band")?.strip_prefix('"')?;
        let band = band_text[..band_text.find('"')?].to_string();
        let threshold = leading_u64(after(rest, "threshold_bytes")?)?;
        let probe = after(rest, "probe")?.starts_with("true");
        out.push(Decision {
            id,
            up,
            band,
            threshold,
            probe,
        });
        rest = after(rest, "note")?;
    }
    Some(out)
}

/// The document of a `snapshot` reply, unescaped; `None` if it is not one.
pub fn parse_snapshot(reply: &str) -> Option<String> {
    let body = reply
        .strip_prefix("{\"op\":\"snapshot\",\"doc\":\"")?
        .strip_suffix("\"}")?;
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'n' => out.push('\n'),
            't' => out.push('\t'),
            'r' => out.push('\r'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// A running `route_serve` child and the client's ends of its pipes.
struct ServeProcess {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ServeProcess {
    fn spawn(bin: &Path, snapshot: &Path) -> Self {
        let mut child = Command::new(bin)
            .arg("--snapshot-in")
            .arg(snapshot)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| panic!("starting {}: {e}", bin.display()));
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        ServeProcess {
            child,
            stdin,
            stdout,
        }
    }

    /// Send `lines` in one write, then read one reply per line.
    fn exchange(&mut self, lines: &[String]) -> Vec<String> {
        let mut buf = lines.join("\n");
        buf.push('\n');
        self.stdin
            .write_all(buf.as_bytes())
            .and_then(|()| self.stdin.flush())
            .expect("writing to route_serve");
        lines
            .iter()
            .map(|_| {
                let mut reply = String::new();
                let n = self
                    .stdout
                    .read_line(&mut reply)
                    .expect("reading from route_serve");
                assert!(n > 0, "route_serve closed its output early");
                reply.truncate(reply.trim_end().len());
                reply
            })
            .collect()
    }

    /// Close stdin, wait for a clean exit, and return the peak RSS read
    /// just before.
    fn finish(self) -> (f64, bool) {
        let rss = report::peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0);
        let ServeProcess {
            mut child, stdin, ..
        } = self;
        drop(stdin);
        let ok = child.wait().map(|s| s.success()).unwrap_or(false);
        (rss, ok)
    }
}

/// What one session measured and saw.
#[derive(Debug, Default)]
pub struct Session {
    pub setup_s: f64,
    /// Wall from the first reply to the last.
    pub wall_s: f64,
    pub requests: u64,
    pub errors: u64,
    /// Replies of the wrong kind or shape (other than `error` replies).
    pub malformed: Vec<String>,
    pub batch_us: Vec<f64>,
    /// `(size in bytes, latency in ms)` of each `snapshot` op, in order.
    pub snapshots: Vec<(usize, f64)>,
    pub decisions: Vec<Decision>,
    pub docs: Vec<String>,
    pub exec_s: Vec<f64>,
    pub reply_digest: u64,
    pub peak_rss_mb: f64,
    pub clean_exit: bool,
}

/// One closed-loop session against a fresh child.
pub fn session(inputs: &ServeInputs, bin: &Path, snapshot: &Path) -> Session {
    let mut s = Session::default();
    let mut digest = Fnv::default();
    let mut note = |s: &mut Session, reply: &str| {
        digest.bytes(reply.as_bytes());
        digest.bytes(b"\n");
        s.requests += 1;
        if reply.starts_with("{\"op\":\"error\"") {
            s.errors += 1;
        }
    };
    let t0 = Instant::now();
    let mut child = ServeProcess::spawn(bin, snapshot);
    let mut t_first = t0;
    for step in 0..STEPS {
        let t = Instant::now();
        let reply = child.exchange(&[inputs.batch_line(step)]).remove(0);
        if step == 0 {
            t_first = Instant::now();
            s.setup_s = t_first.duration_since(t0).as_secs_f64();
        } else {
            s.batch_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        note(&mut s, &reply);
        let jobs = inputs.step_jobs(step);
        let decisions = match parse_decisions(&reply) {
            Some(d) if d.len() == jobs.len() => d,
            _ => {
                s.malformed
                    .push(format!("step {step}: batch reply {reply:.120}"));
                jobs.iter()
                    .map(|j| Decision {
                        id: j.id.0 as u64,
                        up: false,
                        band: String::new(),
                        threshold: 0,
                        probe: false,
                    })
                    .collect()
            }
        };
        let mut completes = Vec::with_capacity(jobs.len());
        for (job, d) in jobs.iter().zip(&decisions) {
            if d.id != job.id.0 as u64 {
                s.malformed.push(format!(
                    "step {step}: decision for id {} answers job {}",
                    d.id, job.id.0
                ));
            }
            completes.push(inputs.complete_line(job, d.up));
            s.exec_s.push(exec_s(inputs.seed, job, d.up));
        }
        s.decisions.extend(decisions);
        for reply in child.exchange(&completes) {
            if !reply.starts_with("{\"op\":\"complete\",\"accepted\":true,") {
                s.malformed
                    .push(format!("step {step}: complete reply {reply:.120}"));
            }
            note(&mut s, &reply);
        }
        if (step + 1) % SNAPSHOT_EVERY == 0 {
            let t = Instant::now();
            let reply = child
                .exchange(&["{\"op\":\"snapshot\"}".to_string()])
                .remove(0);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            note(&mut s, &reply);
            match parse_snapshot(&reply) {
                Some(doc) => {
                    s.snapshots.push((doc.len(), ms));
                    s.docs.push(doc);
                }
                None => s
                    .malformed
                    .push(format!("step {step}: snapshot reply {reply:.120}")),
            }
        }
    }
    s.wall_s = t_first.elapsed().as_secs_f64();
    (s.peak_rss_mb, s.clean_exit) = child.finish();
    s.reply_digest = digest.finish();
    s
}

/// The in-process replica of a session: the same routing and feedback
/// through direct `AdaptiveScheduler` and `scheduler::snapshot` calls.
#[derive(Debug, Default)]
pub struct Replica {
    pub restore_ms: f64,
    pub route_ns: u64,
    pub observe_ns: u64,
    pub save_ms: Vec<f64>,
    pub decisions: Vec<Decision>,
    pub docs: Vec<String>,
    pub recalibrations: usize,
}

pub fn replica(inputs: &ServeInputs) -> Replica {
    let mut r = Replica::default();
    let t = Instant::now();
    let mut sched =
        scheduler::snapshot::restore(&inputs.warm_doc).expect("the warm checkpoint restores");
    r.restore_ms = t.elapsed().as_secs_f64() * 1e3;
    for step in 0..STEPS {
        let jobs = inputs.step_jobs(step);
        let t = Instant::now();
        let decisions = sched.route_batch(jobs.iter());
        r.route_ns += t.elapsed().as_nanos() as u64;
        for (job, d) in jobs.iter().zip(&decisions) {
            let up = d.placement == Placement::ScaleUp;
            let e = exec_s(inputs.seed, job, up);
            let t = Instant::now();
            sched.observe(job.input_size, job.profile.shuffle_input_ratio, up, e);
            r.observe_ns += t.elapsed().as_nanos() as u64;
            r.decisions.push(Decision::of(job, d));
        }
        if (step + 1) % SNAPSHOT_EVERY == 0 {
            let t = Instant::now();
            let doc = scheduler::snapshot::save(&sched);
            r.save_ms.push(t.elapsed().as_secs_f64() * 1e3);
            r.docs.push(doc);
        }
    }
    r.recalibrations = sched.recalibrations().len();
    r
}

/// Run the serve workload for `seconds` and fill `report`.
pub fn run(seed: u64, seconds: u64, trace: bool, bin: &Path, work: &Path, report: &mut Report) {
    let inputs = ServeInputs::new(seed);
    std::fs::create_dir_all(work).unwrap_or_else(|e| panic!("creating {}: {e}", work.display()));
    let snapshot: PathBuf = work.join(format!("warm-{seed}.json"));
    std::fs::write(&snapshot, &inputs.warm_doc)
        .unwrap_or_else(|e| panic!("writing {}: {e}", snapshot.display()));

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut sessions = Vec::new();
    loop {
        sessions.push(session(&inputs, bin, &snapshot));
        if Instant::now() >= deadline {
            break;
        }
    }
    let _ = std::fs::remove_file(&snapshot);
    let replicas: Vec<Replica> = (0..if trace { REPLICA_REPEATS } else { 1 })
        .map(|_| replica(&inputs))
        .collect();
    let first = &sessions[0];
    let rep = &replicas[0];

    // Output checks.
    for s in &sessions {
        report.attempted += s.requests;
        report.failed += s.errors;
        report.check(
            s.malformed.is_empty(),
            format!("malformed replies: {:?}", s.malformed.first()),
        );
        report.check(
            s.clean_exit,
            "route_serve did not exit cleanly at end of input",
        );
        report.check(
            s.reply_digest == first.reply_digest,
            "two sessions of the same requests got different replies",
        );
    }
    report.check(first.errors == 0, "route_serve answered with error replies");
    report.check(
        first.decisions == rep.decisions,
        "route_serve's decisions differ from the in-process scheduler's",
    );
    report.check(
        first.docs == rep.docs,
        "route_serve's snapshots differ from the in-process scheduler's",
    );
    let last = first.docs.last().cloned().unwrap_or_default();
    let round_trip = scheduler::snapshot::restore(&last).map(|s| scheduler::snapshot::save(&s));
    report.check(
        round_trip.as_deref() == Ok(last.as_str()),
        "the last snapshot does not restore and save back to the same bytes",
    );

    // End-to-end metrics.
    let med =
        |f: &dyn Fn(&Session) -> f64| report::median(&sessions.iter().map(f).collect::<Vec<_>>());
    let jobs = (STEPS * BATCH) as f64;
    report.set("jobs_per_s", med(&|s| jobs / s.wall_s));
    report.set("setup_s", med(&|s| s.setup_s));
    report.set("peak_rss_mb", med(&|s| s.peak_rss_mb));
    let span = inputs
        .jobs
        .iter()
        .zip(&first.exec_s)
        .map(|(j, e)| j.submit.as_secs_f64() + e)
        .fold(0.0, f64::max)
        - inputs.jobs[0].submit.as_secs_f64();
    report.set("sim_makespan_s", span);
    report.set("sim_exec_p50_s", report::quantile(&first.exec_s, 0.5));
    report.set("sim_exec_p99_s", report::quantile(&first.exec_s, 0.99));

    // The serve layer: pooled over sessions.
    let batch_us: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.batch_us.iter().copied())
        .collect();
    let snap_ms: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.snapshots.iter().map(|&(_, ms)| ms))
        .collect();
    report.check(
        report::supports(batch_us.len(), 0.99),
        "too few batch samples for a p99",
    );
    report.check(
        report::supports(snap_ms.len(), 0.9),
        "too few snapshot samples for a p90",
    );
    report.set("serve.batch_p50_us", report::median(&batch_us));
    report.set("serve.batch_p99_us", report::quantile(&batch_us, 0.99));
    report.set("serve.batch_samples", batch_us.len() as f64);
    report.set("serve.snapshot_p50_ms", report::median(&snap_ms));
    report.set("serve.snapshot_p90_ms", report::quantile(&snap_ms, 0.9));
    report.set("serve.snapshot_samples", snap_ms.len() as f64);
    let last_kb = first.snapshots.last().map_or(0.0, |&(b, _)| b as f64 / 1e3);
    report.set("serve.snapshot_kb", last_kb);
    println!(
        "# {} sessions of {} requests ({} jobs, a snapshot every {} steps) from a {}-completion checkpoint",
        sessions.len(),
        first.requests,
        STEPS * BATCH,
        SNAPSHOT_EVERY,
        WARM_JOBS
    );
    println!("# snapshot growth across a session (latency: median over sessions):");
    for (k, &(bytes, _)) in first.snapshots.iter().enumerate() {
        let ms: Vec<f64> = sessions
            .iter()
            .filter_map(|s| s.snapshots.get(k).map(|x| x.1))
            .collect();
        println!(
            "#   after {:>6} completions  {:>8.1} kB  {:>7.3} ms",
            WARM_JOBS + (k + 1) * SNAPSHOT_EVERY * BATCH,
            bytes as f64 / 1e3,
            report::median(&ms)
        );
    }
    if !trace {
        return;
    }

    // The scheduler layer, from the in-process replica.
    let rmed =
        |f: &dyn Fn(&Replica) -> f64| report::median(&replicas.iter().map(f).collect::<Vec<_>>());
    report.set(
        "scheduler.route_batch_ns_per_decision",
        rmed(&|r| r.route_ns as f64 / jobs),
    );
    report.set(
        "scheduler.observe_ns_per_completion",
        rmed(&|r| r.observe_ns as f64 / jobs),
    );
    report.set("scheduler.recalibrations", rep.recalibrations as f64);
    report.set(
        "scheduler.snapshot_save_ms",
        rmed(&|r| report::median(&r.save_ms)),
    );
    report.set("scheduler.snapshot_restore_ms", rmed(&|r| r.restore_ms));
    report.set(
        "scheduler.snapshot_kb",
        rep.docs.last().map_or(0.0, |d| d.len() as f64 / 1e3),
    );
    let sched_s =
        rmed(&|r| (r.route_ns + r.observe_ns) as f64 * 1e-9 + r.save_ms.iter().sum::<f64>() * 1e-3);
    let requests = first.requests as f64 - 1.0;
    report.set(
        "serve.protocol_us_per_req",
        (med(&|s| s.wall_s) - sched_s) / requests * 1e6,
    );
}
