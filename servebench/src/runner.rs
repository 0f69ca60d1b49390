//! The benchmark run: starts the server process, drives it over
//! loopback TCP, checks its answers and accounting, and reports.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use zoomer_graph::Query;
use zoomer_obs::Snapshot;
use zoomer_serving::ResponseStatus;

use crate::host::FrameSpan;
use crate::loadgen::{self, PhaseResult, Sampled};
use crate::replay::Replay;
use crate::stats::{median_f64, ns_to_ms, ns_to_us, percentile, ratio, Metrics};
use crate::verify;
use crate::workload::{self, Built, Rng, Workload};

/// Server processes started per run to time set-up; the median is reported.
const SETUPS: usize = 7;
/// Frames in the verification pass, every row of which is checked.
const VERIFY_ROWS: usize = 512;
/// Rows of each timed phase kept for the correctness gate, on average.
const SAMPLE_ROWS_PER_PHASE: f64 = 256.0;
/// Rows the traced run replays in process.
const REPLAY_ROWS: usize = 4_096;
/// A phase is invalid when the generator fell behind its schedule: its
/// median lateness exceeds this share of the latency limit.
const LATE_SHARE_OF_LIMIT: f64 = 0.1;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A running server process and its control pipe.
struct Host {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    addr: String,
    /// The server process's CPU time from its start to its first OK reply.
    setup_cpu: Duration,
    /// Wall time from spawn to the first OK reply.
    setup_wall: Duration,
}

impl Host {
    /// Start the server process and time it up to its first OK reply.
    fn start(workload: &Workload, traced: bool, probe: &[Query]) -> Result<Host, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(exe)
            .args([
                "--serve",
                "--workload",
                workload.name,
                "--trace",
                if traced { "1" } else { "0" },
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take().ok_or("server stdin")?;
        let stdout = BufReader::new(child.stdout.take().ok_or("server stdout")?);
        let mut host = Host {
            child,
            stdin,
            stdout,
            addr: String::new(),
            setup_cpu: Duration::ZERO,
            setup_wall: Duration::ZERO,
        };
        let line = host.read_line()?;
        let port = line
            .strip_prefix("ready ")
            .and_then(|p| p.parse::<u16>().ok())
            .ok_or_else(|| format!("server did not start: {line:?}"))?;
        host.addr = format!("127.0.0.1:{port}");
        let mut stream = loadgen::connect(&host.addr)?;
        let rows = loadgen::round_trip(&mut stream, probe, workload.deadline_us())?;
        if rows.first().map(|r| r.status) != Some(ResponseStatus::Ok) {
            return Err("first reply was not OK".into());
        }
        host.setup_wall = started.elapsed();
        host.setup_cpu = host.cpu_time()?;
        Ok(host)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server process exited".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read from server: {e}")),
        }
    }

    fn command(&mut self, cmd: &str) -> Result<Vec<String>, String> {
        writeln!(self.stdin, "{cmd}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| e.to_string())?;
        let mut lines = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == "end" {
                return Ok(lines);
            }
            lines.push(line);
        }
    }

    fn snapshot(&mut self) -> Result<Snapshot, String> {
        let lines = self.command("snap")?;
        Snapshot::from_json_lines(&lines.join("\n")).map_err(|e| format!("snapshot: {e:?}"))
    }

    fn spans(&mut self) -> Result<Vec<FrameSpan>, String> {
        self.command("spans")?
            .iter()
            .map(|l| FrameSpan::parse(l).ok_or_else(|| format!("bad span line {l:?}")))
            .collect()
    }

    /// The server's user + system CPU time so far, all threads included.
    fn cpu_time(&mut self) -> Result<Duration, String> {
        let lines = self.command("cpu")?;
        let ns = lines.first().and_then(|l| l.parse::<u64>().ok());
        ns.map(Duration::from_nanos).ok_or_else(|| format!("bad cpu reply {lines:?}"))
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("no VmHWM")?;
        Ok(kb / 1024.0)
    }

    fn quit(mut self) -> Result<(), String> {
        let _ = writeln!(self.stdin, "quit").and_then(|()| self.stdin.flush());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("server process exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One timed phase as the report needs it.
struct Phase {
    name: String,
    offered_rps: f64,
    result: PhaseResult,
    served_delta: u64,
    degraded: [u64; 4],
    cache: [u64; 4],
    candidates: u64,
    replies_lost: u64,
    valid: bool,
}

const RUNG_COUNTERS: [&str; 4] = [
    "serve.degraded.skip_widen",
    "serve.degraded.topk_shrunk",
    "serve.degraded.budget_capped",
    "serve.degraded.fallback",
];
const CACHE_COUNTERS: [&str; 4] =
    ["cache.hits", "cache.misses", "cache.evictions", "cache.admissions_rejected"];

fn delta(after: &Snapshot, before: &Snapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0))
}

impl Phase {
    fn new(
        name: String,
        offered_rps: f64,
        result: PhaseResult,
        before: &Snapshot,
        after: &Snapshot,
        late_limit_ns: u64,
    ) -> Phase {
        let valid = percentile(&result.late_ns, 50.0) <= late_limit_ns;
        Phase {
            name,
            offered_rps,
            served_delta: delta(after, before, "serve.requests"),
            degraded: RUNG_COUNTERS.map(|c| delta(after, before, c)),
            cache: CACHE_COUNTERS.map(|c| delta(after, before, c)),
            candidates: delta(after, before, "ann.candidates_scored"),
            replies_lost: delta(after, before, "serve.shard.replies_lost"),
            result,
            valid,
        }
    }

    /// The phase's latency percentile in ms over all its requests; a
    /// failed request counts as missing every limit.
    fn p(&self, pct: f64) -> f64 {
        match percentile(&self.result.frame_latency_ns, pct) {
            u64::MAX => f64::INFINITY,
            ns => ns_to_ms(ns),
        }
    }

    /// The accounting laws; returns the first one broken.
    fn check_laws(&self) -> Result<(), String> {
        let r = &self.result;
        let sum = r.ok + r.shed + r.rejected + r.errored + r.unanswered;
        if r.sent != sum {
            return Err(format!(
                "{}: sent {} != ok+shed+rejected+errored+unanswered {sum}",
                self.name, r.sent
            ));
        }
        if r.ok != self.served_delta {
            return Err(format!(
                "{}: client ok {} != server serve.requests delta {}",
                self.name, r.ok, self.served_delta
            ));
        }
        Ok(())
    }

    fn report(&self) {
        let r = &self.result;
        println!(
            "phase {:<14} offered={:>8.0}/s sent={} ok={} failed={} (shed={} rejected={} errored={} unanswered={}) degraded={} served_delta={} p50={:.3}ms p90={:.3}ms p99={:.3}ms late_p99={:.3}ms backlog_end={} frames={} {}",
            self.name,
            self.offered_rps,
            r.sent,
            r.ok,
            r.failed(),
            r.shed,
            r.rejected,
            r.errored,
            r.unanswered,
            r.degraded,
            self.served_delta,
            self.p(50.0),
            self.p(90.0),
            self.p(99.0),
            ns_to_ms(percentile(&r.late_ns, 99.0)),
            r.backlog_end,
            r.frame_latency_ns.len(),
            if self.valid { "valid" } else { "INVALID: generator fell behind" },
        );
    }
}

/// The run's deterministic frame generator: frame `i` of stream `conn` of
/// phase `phase` depends only on (seed, phase, conn, i).
struct Frames<'a> {
    workload: &'a Workload,
    built: &'a Built,
    seed: u64,
}

impl Frames<'_> {
    fn frame(&self, phase: u64, conn: u64, i: usize, keep_p: f64) -> (Vec<Query>, bool) {
        let key = (phase << 40) ^ (conn << 32) ^ i as u64;
        let mut rng = Rng::derive(self.seed, key);
        let keep = rng.unit() < keep_p;
        (workload::frame(self.workload, self.built, &mut rng), keep)
    }

    /// Keep probability that samples about `SAMPLE_ROWS_PER_PHASE` rows of
    /// a phase expected to send `rows`.
    fn keep_p(rows: f64) -> f64 {
        (SAMPLE_ROWS_PER_PHASE / rows.max(1.0)).min(1.0)
    }
}

struct Run<'a> {
    workload: &'a Workload,
    built: &'a Built,
    frames: Frames<'a>,
    opts: &'a Options,
    phases: Vec<Phase>,
    sampled: Vec<Sampled>,
    next_phase: u64,
    verify_sent: u64,
    verify_failed: u64,
}

impl<'a> Run<'a> {
    fn closed(
        &mut self,
        host: &mut Host,
        name: &str,
        duration: Duration,
    ) -> Result<(Duration, usize), String> {
        let phase = self.next_phase;
        self.next_phase += 1;
        let expected = self.workload.ladder[self.workload.peak] * duration.as_secs_f64();
        let keep_p = Frames::keep_p(expected);
        let frames = &self.frames;
        let source = move |i: usize, conn: u64| frames.frame(phase, conn, i, keep_p);
        let before = host.snapshot()?;
        let cpu0 = host.cpu_time()?;
        let mut result =
            loadgen::closed_loop(&host.addr, duration, self.workload.deadline_us(), &source)?;
        let cpu = host.cpu_time()? - cpu0;
        let after = host.snapshot()?;
        self.sampled.append(&mut result.sampled);
        let phase = Phase::new(name.into(), 0.0, result, &before, &after, u64::MAX);
        phase.report();
        self.phases.push(phase);
        Ok((cpu, self.phases.len() - 1))
    }

    fn open(&mut self, host: &mut Host, rung: usize, duration: Duration) -> Result<usize, String> {
        let phase = self.next_phase;
        self.next_phase += 1;
        let w = self.workload;
        let rps = w.ladder[rung];
        let mut rng = Rng::derive(self.opts.seed, (phase << 40) ^ 0xFFFF_FFFF);
        let schedule =
            loadgen::poisson_schedule(&mut rng, rps / w.queries_per_frame as f64, duration);
        let keep_p = Frames::keep_p(rps * duration.as_secs_f64());
        let frames = &self.frames;
        let source = move |i: usize, _conn: u64| frames.frame(phase, 0, i, keep_p);
        let before = host.snapshot()?;
        let mut result = loadgen::open_loop(&host.addr, &schedule, w.deadline_us(), &source)?;
        let after = host.snapshot()?;
        self.sampled.append(&mut result.sampled);
        let late_limit = (w.limit_ms * LATE_SHARE_OF_LIMIT * 1e6) as u64;
        let label = match rung {
            r if r == w.nominal => "nominal".to_string(),
            r if r == w.peak => "peak".to_string(),
            _ => format!("rung{rung}"),
        };
        let phase = Phase::new(label, rps, result, &before, &after, late_limit);
        phase.report();
        self.phases.push(phase);
        Ok(self.phases.len() - 1)
    }

    fn verification_pass(&mut self, host: &Host) -> Result<(), String> {
        let phase = self.next_phase;
        self.next_phase += 1;
        let mut stream = loadgen::connect(&host.addr)?;
        let mut result = PhaseResult::default();
        let frames = VERIFY_ROWS.div_ceil(self.workload.queries_per_frame);
        for i in 0..frames {
            let (queries, _) = self.frames.frame(phase, 0, i, 1.0);
            result.sent += queries.len() as u64;
            let rows = loadgen::round_trip(&mut stream, &queries, self.workload.deadline_us())?;
            result.tally(&rows);
            self.sampled.push(Sampled { queries, rows });
        }
        self.verify_sent = result.sent;
        self.verify_failed = result.failed();
        Ok(())
    }

    fn totals(&self) -> (u64, u64) {
        let sent: u64 = self.phases.iter().map(|p| p.result.sent).sum::<u64>() + self.verify_sent;
        let failed: u64 =
            self.phases.iter().map(|p| p.result.failed()).sum::<u64>() + self.verify_failed;
        (sent, failed)
    }
}

/// What one run prints as its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn phase_duration(opts: &Options) -> Duration {
    Duration::from_secs_f64(opts.seconds / 5.0)
}

/// Print the reproducibility record of this run.
fn print_record(w: &Workload, opts: &Options) {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let ladder: Vec<String> = w.ladder.iter().map(|r| format!("{r}")).collect();
    println!(
        "record {{\"workload\": \"{}\", \"hardware_threads\": {threads}, \"rustc\": \"{}\", \"commit\": \"{}\", \"dataset_seed\": {}, \"dataset\": {{\"users\": {}, \"queries\": {}, \"items\": {}, \"sessions\": {}}}, \"shards\": {}, \"replicas\": {}, \"cache_capacity\": {}, \"queries_per_frame\": {}, \"top_k\": {}, \"workload_seed\": {}, \"seconds\": {}, \"trace\": {}, \"limit_ms\": {}, \"ladder_rps\": [{}], \"nominal_rps\": {}, \"peak_rps\": {}}}",
        w.name,
        command_output("rustc", &["--version"]),
        command_output("git", &["rev-parse", "HEAD"]),
        crate::workload::DATASET_SEED,
        w.users,
        w.queries,
        w.items,
        w.sessions,
        w.shards,
        w.replicas,
        w.serving_config().cache_capacity,
        w.queries_per_frame,
        w.top_k,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        w.limit_ms,
        ladder.join(", "),
        w.ladder[w.nominal],
        w.ladder[w.peak],
    );
}

pub fn run(w: &Workload, opts: &Options) -> Result<Outcome, String> {
    print_record(w, opts);
    let built = w.build()?;
    let oracle = verify::oracle(&built);
    let mut run = Run {
        workload: w,
        built: &built,
        frames: Frames { workload: w, built: &built, seed: opts.seed },
        opts,
        phases: Vec::new(),
        sampled: Vec::new(),
        next_phase: 1,
        verify_sent: 0,
        verify_failed: 0,
    };
    let probe = run.frames.frame(0, 0, 0, 0.0).0;
    // `metrics` go into the result line; `printed` only into the report.
    let mut metrics = Metrics::default();
    let mut printed = Metrics::default();
    if opts.trace {
        traced(&mut run, &probe, &mut metrics)?;
    } else {
        untraced(&mut run, &probe, &mut metrics, &mut printed)?;
    }
    let laws = run.phases.iter().try_for_each(Phase::check_laws);
    let gate = verify::check(&built, &oracle, &run.sampled)?;
    let (attempted, failed) = run.totals();
    let ok: u64 = run.phases.iter().map(|p| p.result.ok).sum();
    let degraded: u64 = run.phases.iter().map(|p| p.result.degraded).sum();
    println!(
        "gate rows_checked={} mismatches={} recall_at_k={:.4} error_ratio={:.6} ({failed}/{attempted} sent) degraded_ratio={:.6} ({degraded}/{ok} ok)",
        gate.rows_checked,
        gate.mismatches,
        gate.recall_at_k(),
        ratio(failed as f64, attempted as f64),
        ratio(degraded as f64, ok as f64),
    );
    if let Some(m) = &gate.first_mismatch {
        println!("gate FAILED: {m}");
    }
    if let Err(e) = &laws {
        println!("accounting FAILED: {e}");
    }
    if !opts.trace {
        metrics.put("recall_at_k", gate.recall_at_k(), "ratio");
        printed.put("error_ratio", ratio(failed as f64, attempted as f64), "ratio");
        printed.put("degraded_ratio", ratio(degraded as f64, ok as f64), "ratio");
    }
    for (name, value, unit) in metrics.iter() {
        println!("metric {name} = {value} {unit}");
    }
    for (name, value, unit) in printed.iter() {
        println!("metric {name} = {value} {unit} (report only)");
    }
    Ok(Outcome {
        correct: gate.mismatches == 0 && gate.rows_checked > 0 && laws.is_ok(),
        attempted,
        failed,
        metrics,
    })
}

/// The end-to-end run: set-up timed several times, a verification pass, a
/// warm-up, closed-loop slices around the nominal and peak phases, then the
/// rest of the SLO ladder.
fn untraced(
    run: &mut Run<'_>,
    probe: &[Query],
    metrics: &mut Metrics,
    printed: &mut Metrics,
) -> Result<(), String> {
    let w = run.workload;
    let (mut setup_cpu, mut setup_wall) = (Vec::new(), Vec::new());
    let mut host = Host::start(w, false, probe)?;
    for i in 1..=SETUPS {
        setup_cpu.push(host.setup_cpu.as_secs_f64());
        setup_wall.push(host.setup_wall.as_secs_f64());
        if i < SETUPS {
            host.quit()?;
            host = Host::start(w, false, probe)?;
        }
    }
    println!("setup cpu_s={setup_cpu:?} wall_s={setup_wall:?}");
    run.verification_pass(&host)?;
    let d = phase_duration(run.opts);
    // Bring the neighbor cache to its steady state before timing.
    run.closed(&mut host, "warmup", d / 2)?;

    // The closed loop runs in three slices spread across the run, around
    // the nominal and peak phases. A shared virtual machine can stall
    // every process for milliseconds at a time in spells of seconds; the
    // median slice gives the per-request figures.
    let (mut ok, mut elapsed) = (0, Duration::ZERO);
    let (mut cpu_per_req, mut p50) = (Vec::new(), Vec::new());
    let mut slice = |run: &mut Run<'_>, host: &mut Host, i: usize| -> Result<(), String> {
        let (cpu, idx) = run.closed(host, &format!("closed{i}"), d / 3)?;
        let r = &run.phases[idx].result;
        (ok, elapsed) = (ok + r.ok, elapsed + r.elapsed);
        cpu_per_req.push(cpu.as_secs_f64() * 1e6 / r.ok.max(1) as f64);
        p50.push(ns_to_ms(percentile(&r.frame_latency_ns, 50.0)));
        Ok(())
    };
    slice(run, &mut host, 1)?;
    let nominal = run.open(&mut host, w.nominal, d)?;
    slice(run, &mut host, 2)?;
    let peak = run.open(&mut host, w.peak, d)?;
    slice(run, &mut host, 3)?;
    // The SLO ladder: climb from peak while rungs pass; below it, the
    // highest of nominal and the rungs under it that passes.
    let passes = |p: &Phase| p.valid && p.result.failed() == 0 && p.p(99.0) <= w.limit_ms;
    let achieved = |p: &Phase| p.result.ok as f64 / d.as_secs_f64();
    let mut best = None;
    if passes(&run.phases[peak]) {
        best = Some(achieved(&run.phases[peak]));
        for rung in w.peak + 1..w.ladder.len() {
            let idx = run.open(&mut host, rung, d)?;
            if !passes(&run.phases[idx]) {
                break;
            }
            best = Some(achieved(&run.phases[idx]));
        }
    } else if passes(&run.phases[nominal]) {
        best = Some(achieved(&run.phases[nominal]));
    } else {
        for rung in (0..w.nominal).rev() {
            let idx = run.open(&mut host, rung, d)?;
            if passes(&run.phases[idx]) {
                best = Some(achieved(&run.phases[idx]));
                break;
            }
        }
    }
    let rss = host.peak_rss_mb()?;
    host.quit()?;

    metrics.put("setup_s", median_f64(&setup_cpu), "s");
    printed.put("setup_wall_s", median_f64(&setup_wall), "s");
    metrics.put("server_rss_mb", rss, "MB");
    metrics.put("cpu_us_per_req", median_f64(&cpu_per_req), "us");
    println!("closed slices cpu_us_per_req={cpu_per_req:?} p50_ms={p50:?}");
    printed.put("p50_ms.closed", median_f64(&p50), "ms");
    printed.put("throughput_rps", ok as f64 / elapsed.as_secs_f64(), "1/s");
    // A phase in which the generator fell behind is marked, not reported.
    for (label, idx) in [("nominal", nominal), ("peak", peak)] {
        let phase = &run.phases[idx];
        if phase.valid {
            printed.put(&format!("p50_ms.{label}"), phase.p(50.0), "ms");
            printed.put(&format!("p99_ms.{label}"), phase.p(99.0), "ms");
        } else {
            println!("{label} phase invalid: the load generator fell behind");
        }
    }
    printed.put("slo_rate_rps", best.unwrap_or(0.0), "1/s");
    Ok(())
}

/// The traced run: an untraced closed loop for the tracing overhead, then
/// the traced host through a closed loop (spans) and the nominal and peak
/// rates, then the in-process replay.
fn traced(run: &mut Run<'_>, probe: &[Query], metrics: &mut Metrics) -> Result<(), String> {
    let w = run.workload;
    let d = phase_duration(run.opts);
    let mut plain = Host::start(w, false, probe)?;
    let (_, idx) = run.closed(&mut plain, "closed_plain", d)?;
    plain.quit()?;
    let plain_rps = run.phases[idx].result.ok as f64 / run.phases[idx].result.elapsed.as_secs_f64();

    let mut host = Host::start(w, true, probe)?;
    // Drop the set-up probe's span.
    host.spans()?;
    let first = run.phases.len();
    let closed_phase_id = run.next_phase;
    let (_, idx) = run.closed(&mut host, "closed_traced", d)?;
    let spans = host.spans()?;
    let traced = &run.phases[idx].result;
    let traced_rps = traced.ok as f64 / traced.elapsed.as_secs_f64();
    let client_frames = traced.frames.clone();
    let nominal = run.open(&mut host, w.nominal, d)?;
    let peak = run.open(&mut host, w.peak, d)?;
    host.quit()?;
    let timed = &run.phases[first..];

    // wire + sharded, from the traced closed loop's spans.
    let by_key: HashMap<(u16, u64), &FrameSpan> =
        spans.iter().map(|s| ((s.port, s.seq), s)).collect();
    let pick = |f: fn(&FrameSpan) -> u64| spans.iter().map(f).collect::<Vec<u64>>();
    let transit: Vec<u64> = client_frames
        .iter()
        .filter_map(|c| by_key.get(&(c.port, c.seq)).map(|s| c.rtt_ns.saturating_sub(s.total_ns)))
        .collect();
    let serve = pick(|s| s.serve_ns);
    metrics.put("wire.decode_us.p50", ns_to_us(percentile(&pick(|s| s.decode_ns), 50.0)), "us");
    metrics.put("wire.encode_us.p50", ns_to_us(percentile(&pick(|s| s.encode_ns), 50.0)), "us");
    metrics.put("wire.write_us.p50", ns_to_us(percentile(&pick(|s| s.write_ns), 50.0)), "us");
    metrics.put("wire.transit_us.p50", ns_to_us(percentile(&transit, 50.0)), "us");
    metrics.put("wire.transit_us.p99", ns_to_us(percentile(&transit, 99.0)), "us");
    metrics.put("sharded.serve_us.p50", ns_to_us(percentile(&serve, 50.0)), "us");
    metrics.put("sharded.serve_us.p99", ns_to_us(percentile(&serve, 99.0)), "us");

    // Replay a seeded slice of the traced closed loop's frames.
    let qpf = w.queries_per_frame;
    let per_conn = (REPLAY_ROWS / qpf / loadgen::CONNECTIONS).max(1) as u64;
    let max_seq = client_frames.iter().map(|c| c.seq).max().unwrap_or(0);
    let mut rng = Rng::derive(run.opts.seed, 0xAB);
    let start = rng.below((max_seq.saturating_sub(per_conn) + 1) as usize) as u64;
    let mut slice: Vec<_> =
        client_frames.iter().filter(|c| c.seq >= start && c.seq < start + per_conn).collect();
    slice.sort_by_key(|c| (c.seq, c.conn));
    let mut replay = Replay::default();
    let (mut critical_sum, mut serve_sum) = (0u64, 0u64);
    for c in slice {
        let (queries, _) = run.frames.frame(closed_phase_id, c.conn, c.seq as usize, 0.0);
        let critical = replay.frame(run.built, &queries)?;
        if let Some(span) = by_key.get(&(c.port, c.seq)) {
            critical_sum += critical;
            serve_sum += span.serve_ns;
        }
    }
    println!(
        "replay frames={} rows={} critical_ms={:.3} serve_ms={:.3} divergent_rows={}",
        replay.frames,
        replay.rows,
        ns_to_ms(critical_sum),
        ns_to_ms(serve_sum),
        replay.divergent_rows
    );
    metrics.put(
        "sharded.unattributed_share",
        1.0 - ratio(critical_sum as f64, serve_sum as f64),
        "ratio",
    );

    // Registry counts over the traced phases, per request served in them,
    // so that they do not scale with how fast the server ran.
    let sum = |f: &dyn Fn(&Phase) -> u64| timed.iter().map(f).sum::<u64>();
    let served = sum(&|p| p.served_delta) as f64;
    let per_req = |f: &dyn Fn(&Phase) -> u64| ratio(sum(f) as f64, served);
    let (hits, misses) = (sum(&|p| p.cache[0]), sum(&|p| p.cache[1]));
    metrics.put("sharded.replies_lost_per_req", per_req(&|p| p.replies_lost), "1/req");
    metrics.put("cache.hit_ratio", ratio(hits as f64, (hits + misses) as f64), "ratio");
    metrics.put("cache.misses_per_req", per_req(&|p| p.cache[1]), "1/req");
    metrics.put("cache.evictions_per_req", per_req(&|p| p.cache[2]), "1/req");
    metrics.put("cache.admissions_rejected_per_req", per_req(&|p| p.cache[3]), "1/req");
    metrics.put("cache.resolve_us.p50", ns_to_us(percentile(&replay.resolve_ns, 50.0)), "us");
    metrics.put(
        "sampler.neighbors_us_per_miss",
        ratio(ns_to_us(replay.sampler_ns), replay.misses as f64),
        "us",
    );
    metrics.put(
        "frozen.embed_us_per_row",
        ratio(ns_to_us(replay.embed_ns), replay.rows as f64),
        "us",
    );
    metrics.put("backend.probe_us.p50", ns_to_us(percentile(&replay.probe_ns, 50.0)), "us");
    metrics.put("backend.candidates_per_row", per_req(&|p| p.candidates), "count");
    metrics.put(
        "backend.short_row_ratio",
        ratio(replay.short_rows as f64, replay.shard_rows as f64),
        "ratio",
    );
    metrics.put("server.widen_us.p50", ns_to_us(percentile(&replay.widen_ns, 50.0)), "us");
    metrics.put(
        "server.widen_share",
        ratio(replay.critical_widen_ns as f64, replay.critical_ns as f64),
        "ratio",
    );
    metrics.put("router.merge_us.p50", ns_to_us(percentile(&replay.merge_ns, 50.0)), "us");
    for (i, name) in ["skip_widen", "topk_shrunk", "budget_capped", "fallback"].iter().enumerate() {
        metrics.put(&format!("brownout.{name}_per_req"), per_req(&|p| p.degraded[i]), "1/req");
    }
    let (ok, degraded) = (sum(&|p| p.result.ok), sum(&|p| p.result.degraded));
    metrics.put("brownout.degraded_ratio", ratio(degraded as f64, ok as f64), "ratio");
    let late: Vec<u64> = [nominal, peak]
        .iter()
        .flat_map(|&i| run.phases[i].result.late_ns.iter().copied())
        .collect();
    metrics.put("loadgen.late_ms.p99", ns_to_ms(percentile(&late, 99.0)), "ms");
    let backlog =
        [nominal, peak].iter().map(|&i| run.phases[i].result.backlog_end).max().unwrap_or(0);
    metrics.put("loadgen.backlog_end", backlog as f64, "count");
    metrics.put("trace.overhead_ratio", 1.0 - ratio(traced_rps, plain_rps), "ratio");
    metrics.put("replay.divergent_rows", replay.divergent_rows as f64, "count");
    Ok(())
}
