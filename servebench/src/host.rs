//! The server process. It builds the workload's server, listens on an
//! ephemeral loopback port, prints `ready <port>`, and then takes commands
//! one per line on stdin:
//!
//! - `snap`: print the registry snapshot as line JSON, then `end`;
//! - `spans`: print and clear the recorded frame spans, then `end`;
//! - `cpu`: print the process's CPU time in nanoseconds, then `end`;
//! - `quit` (or end of input): exit.
//!
//! Untraced, connections are served by `FrontDoor::serve` itself. Traced,
//! an accept loop of the benchmark's own makes the same public calls
//! (`read_frame` → `decode_request` → `serve_frame` → `encode_response` →
//! `write_frame`) and records a span around each, keyed by the client's
//! port and the frame's sequence number on its connection.

use std::io::{BufRead, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use zoomer_serving::wire::{
    decode_request, encode_error, encode_response, read_frame, serve_frame, write_frame,
};
use zoomer_serving::{FrontDoor, ShardedServer, TenantFairGate, WireError};

use crate::workload::Workload;

/// One frame's time inside the traced server host, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrameSpan {
    pub port: u16,
    pub seq: u64,
    pub decode_ns: u64,
    pub serve_ns: u64,
    pub encode_ns: u64,
    pub write_ns: u64,
    /// From the frame's last byte read to its reply's last byte written.
    pub total_ns: u64,
}

impl FrameSpan {
    pub fn to_line(self) -> String {
        format!(
            "span {} {} {} {} {} {} {}",
            self.port,
            self.seq,
            self.decode_ns,
            self.serve_ns,
            self.encode_ns,
            self.write_ns,
            self.total_ns
        )
    }

    pub fn parse(line: &str) -> Option<FrameSpan> {
        let mut it = line.strip_prefix("span ")?.split(' ');
        let mut next = || it.next()?.parse::<u64>().ok();
        Some(FrameSpan {
            port: u16::try_from(next()?).ok()?,
            seq: next()?,
            decode_ns: next()?,
            serve_ns: next()?,
            encode_ns: next()?,
            write_ns: next()?,
            total_ns: next()?,
        })
    }
}

type SpanLog = Arc<Mutex<Vec<FrameSpan>>>;

/// The span log, even after a connection thread panicked: every update is
/// one whole `push`, so the log is valid at every step.
fn lock(spans: &SpanLog) -> std::sync::MutexGuard<'_, Vec<FrameSpan>> {
    spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub fn run(workload: &Workload, traced: bool) -> Result<(), String> {
    let server = workload.build()?.server;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let port = listener.local_addr().map_err(|e| format!("local addr: {e}"))?.port();
    let spans: SpanLog = Arc::default();
    if traced {
        let gate = Arc::new(TenantFairGate::new(0, server.metrics_registry()));
        let (server, spans) = (Arc::clone(&server), Arc::clone(&spans));
        std::thread::spawn(move || traced_accept_loop(listener, server, gate, spans));
    } else {
        let door = FrontDoor::new(Arc::clone(&server), 0);
        std::thread::spawn(move || door.serve(listener));
    }
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready {port}").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        match line.trim() {
            "snap" => {
                let admissions_rejected: u64 =
                    server.shards().iter().map(|s| s.cache().admissions_rejected()).sum();
                server
                    .metrics_registry()
                    .counter("cache.admissions_rejected")
                    .store(admissions_rejected);
                write!(out, "{}", server.metrics_snapshot().to_json_lines())
                    .map_err(|e| e.to_string())?;
            }
            "spans" => {
                let drained = std::mem::take(&mut *lock(&spans));
                for span in drained {
                    writeln!(out, "{}", span.to_line()).map_err(|e| e.to_string())?;
                }
            }
            "cpu" => writeln!(out, "{}", process_cpu_ns()?).map_err(|e| e.to_string())?,
            "quit" => break,
            other => return Err(format!("unknown host command {other:?}")),
        }
        writeln!(out, "end").map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn traced_accept_loop(
    listener: TcpListener,
    server: Arc<ShardedServer>,
    gate: Arc<TenantFairGate>,
    spans: SpanLog,
) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { break };
        let (server, gate, spans) = (Arc::clone(&server), Arc::clone(&gate), Arc::clone(&spans));
        std::thread::spawn(move || {
            let _ = traced_connection(stream, &server, &gate, &spans);
        });
    }
}

/// `FrontDoor`'s per-connection loop with a span around each call.
fn traced_connection(
    mut stream: TcpStream,
    server: &ShardedServer,
    gate: &TenantFairGate,
    spans: &SpanLog,
) -> Result<(), WireError> {
    stream.set_nodelay(true)?;
    let port = stream.peer_addr()?.port();
    let mut seq = 0u64;
    while let Some(payload) = read_frame(&mut stream)? {
        let read_done = Instant::now();
        let mut span = FrameSpan { port, seq, ..FrameSpan::default() };
        let decoded = decode_request(&payload);
        let t = Instant::now();
        span.decode_ns = nanos(t - read_done);
        let reply = match decoded {
            Ok(request) => {
                let served = serve_frame(server, gate, &request);
                let t_serve = Instant::now();
                span.serve_ns = nanos(t_serve - t);
                let reply = match served {
                    Ok(frame) => encode_response(&frame),
                    Err(e) => encode_error(&e.to_string()),
                };
                span.encode_ns = nanos(t_serve.elapsed());
                reply
            }
            Err(e) => encode_error(&e.to_string()),
        };
        let t = Instant::now();
        write_frame(&mut stream, &reply)?;
        let written = Instant::now();
        span.write_ns = nanos(written - t);
        span.total_ns = nanos(written - read_done);
        lock(spans).push(span);
        seq += 1;
    }
    Ok(())
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU time of this process since it started, every thread
/// included, in nanoseconds. Unlike `/proc/<pid>/stat`, whose unit is a
/// 10 ms clock tick, this has nanosecond resolution.
fn process_cpu_ns() -> Result<u64, String> {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call, and
    // `clock_gettime` writes only into it.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return Err("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed".into());
    }
    Ok(u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000
        + u64::try_from(ts.tv_nsec).unwrap_or(0))
}

pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
