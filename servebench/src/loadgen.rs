//! The load generator: a closed loop (each connection keeps one frame in
//! flight) and an open loop (frames sent on a seeded Poisson schedule,
//! pipelined per connection, each request timed from its due time).
//!
//! The generator opens at most `CONNECTIONS` connections and spawns at most
//! that many threads: in the closed loop one per connection, in the open
//! loop one reader per connection while the calling thread sends.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zoomer_graph::Query;
use zoomer_serving::wire::{decode_response, encode_request, read_frame, write_frame};
use zoomer_serving::{RequestFrame, ResponseRow, ResponseStatus};

use crate::host::nanos;
use crate::workload::Rng;

/// Connections (and generator threads): the host's two hardware threads.
pub const CONNECTIONS: usize = 2;

/// How long a reader waits for one reply before calling the socket dead.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// A frame kept for the correctness gate: what was asked and what came back.
pub struct Sampled {
    pub queries: Vec<Query>,
    pub rows: Vec<ResponseRow>,
}

/// One closed-loop frame as the client saw it, for matching against the
/// traced server's spans.
#[derive(Clone, Copy)]
pub struct ClientFrame {
    pub conn: u64,
    pub port: u16,
    pub seq: u64,
    /// Send start to reply end.
    pub rtt_ns: u64,
}

/// Everything one phase measured. Counts are in requests (rows).
#[derive(Default)]
pub struct PhaseResult {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub rejected: u64,
    pub errored: u64,
    pub unanswered: u64,
    pub degraded: u64,
    /// Per frame latency in ns. Closed loop: from send; open loop: from
    /// the due time. `u64::MAX` marks a frame that failed.
    pub frame_latency_ns: Vec<u64>,
    /// Per frame, open loop: generator lateness (send time minus due time)
    /// in ns.
    pub late_ns: Vec<u64>,
    /// Requests sent but not yet answered when the schedule ended.
    pub backlog_end: u64,
    pub elapsed: Duration,
    pub sampled: Vec<Sampled>,
    pub frames: Vec<ClientFrame>,
}

impl PhaseResult {
    pub fn failed(&self) -> u64 {
        self.shed + self.rejected + self.errored + self.unanswered
    }

    fn merge(&mut self, other: PhaseResult) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.shed += other.shed;
        self.rejected += other.rejected;
        self.errored += other.errored;
        self.unanswered += other.unanswered;
        self.degraded += other.degraded;
        self.frame_latency_ns.extend(other.frame_latency_ns);
        self.late_ns.extend(other.late_ns);
        self.sampled.extend(other.sampled);
        self.frames.extend(other.frames);
    }

    /// Tally one reply's rows; returns whether every row was served.
    pub fn tally(&mut self, rows: &[ResponseRow]) -> bool {
        let mut all_ok = true;
        for row in rows {
            match row.status {
                ResponseStatus::Ok => {
                    self.ok += 1;
                    self.degraded += u64::from(row.retrieval.degraded);
                }
                ResponseStatus::Shed => {
                    self.shed += 1;
                    all_ok = false;
                }
                ResponseStatus::Rejected => {
                    self.rejected += 1;
                    all_ok = false;
                }
            }
        }
        all_ok
    }
}

pub fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("dial {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
    Ok(stream)
}

fn local_port(stream: &TcpStream) -> u16 {
    stream.local_addr().map(|a| a.port()).unwrap_or(0)
}

/// Send one frame and block for its reply (setup probes, verification).
pub fn round_trip(
    stream: &mut TcpStream,
    queries: &[Query],
    deadline_us: u64,
) -> Result<Vec<ResponseRow>, String> {
    let frame = RequestFrame { deadline_us, queries: queries.to_vec() };
    write_frame(stream, &encode_request(&frame)).map_err(|e| e.to_string())?;
    let payload = read_frame(stream)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "server closed the connection".to_string())?;
    Ok(decode_response(&payload).map_err(|e| e.to_string())?.rows)
}

/// Frames to send: `next(i)` gives frame `i` of the phase's seeded stream,
/// and whether the correctness gate keeps it.
pub type FrameSource<'a> = dyn Fn(usize, u64) -> (Vec<Query>, bool) + Sync + 'a;

/// Closed loop for `duration`: each connection sends its next frame only
/// after the previous reply arrived.
pub fn closed_loop(
    addr: &str,
    duration: Duration,
    deadline_us: u64,
    frames: &FrameSource<'_>,
) -> Result<PhaseResult, String> {
    let started = Instant::now();
    let stop = started + duration;
    let per_conn: Vec<Result<PhaseResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                s.spawn(move || -> Result<PhaseResult, String> {
                    let mut stream = connect(addr)?;
                    let port = local_port(&stream);
                    let mut res = PhaseResult::default();
                    let mut seq = 0u64;
                    while Instant::now() < stop {
                        let (queries, keep) = frames(seq as usize, conn as u64);
                        res.sent += queries.len() as u64;
                        let t0 = Instant::now();
                        match round_trip(&mut stream, &queries, deadline_us) {
                            Ok(rows) => {
                                let rtt = nanos(t0.elapsed());
                                let ok = res.tally(&rows);
                                res.frame_latency_ns.push(if ok { rtt } else { u64::MAX });
                                res.frames.push(ClientFrame {
                                    conn: conn as u64,
                                    port,
                                    seq,
                                    rtt_ns: rtt,
                                });
                                if keep {
                                    res.sampled.push(Sampled { queries, rows });
                                }
                            }
                            Err(_) => {
                                res.errored += queries.len() as u64;
                                res.frame_latency_ns.push(u64::MAX);
                                break;
                            }
                        }
                        seq += 1;
                    }
                    Ok(res)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("closed-loop thread panicked".into())))
            .collect()
    });
    let mut total = PhaseResult::default();
    for r in per_conn {
        total.merge(r?);
    }
    total.elapsed = started.elapsed();
    Ok(total)
}

/// A seeded Poisson schedule: due offsets in `[0, duration)` for
/// `frames_per_s` arrivals per second on average.
pub fn poisson_schedule(rng: &mut Rng, frames_per_s: f64, duration: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let end = duration.as_secs_f64();
    loop {
        t += -(1.0 - rng.unit()).ln() / frames_per_s;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// What the sender hands a connection's reader after writing a frame.
struct Pending {
    due: Instant,
    queries: Vec<Query>,
    keep: bool,
}

/// Open loop: frame `i` is due at `schedule[i]` after the start and goes
/// out on connection `i % CONNECTIONS`, whether or not earlier replies are
/// back. The phase ends when every reply is in.
pub fn open_loop(
    addr: &str,
    schedule: &[Duration],
    deadline_us: u64,
    frames: &FrameSource<'_>,
) -> Result<PhaseResult, String> {
    let mut writers = Vec::with_capacity(CONNECTIONS);
    let mut readers = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let stream = connect(addr)?;
        readers.push(stream.try_clone().map_err(|e| e.to_string())?);
        writers.push(stream);
    }
    let answered = Arc::new(AtomicU64::new(0));
    let mut res = PhaseResult::default();
    let started = Instant::now();
    let per_conn: Vec<Result<PhaseResult, String>> = std::thread::scope(|s| {
        let mut txs = Vec::with_capacity(CONNECTIONS);
        let mut handles = Vec::with_capacity(CONNECTIONS);
        for reader in readers {
            let (tx, rx) = mpsc::channel::<Pending>();
            txs.push(tx);
            let answered = Arc::clone(&answered);
            handles.push(s.spawn(move || read_replies(reader, rx, &answered)));
        }
        let start = Instant::now() + Duration::from_millis(2);
        let mut broken = [false; CONNECTIONS];
        for (i, offset) in schedule.iter().enumerate() {
            let due = start + *offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let conn = i % CONNECTIONS;
            let (queries, keep) = frames(i, 0);
            res.sent += queries.len() as u64;
            if broken[conn] {
                res.errored += queries.len() as u64;
                res.frame_latency_ns.push(u64::MAX);
                continue;
            }
            let payload = encode_request(&RequestFrame { deadline_us, queries: queries.clone() });
            let sent = Instant::now();
            res.late_ns.push(nanos(sent.saturating_duration_since(due)));
            if write_frame(&mut writers[conn], &payload).is_err() {
                broken[conn] = true;
                res.errored += queries.len() as u64;
                res.frame_latency_ns.push(u64::MAX);
                continue;
            }
            // The reader pairs this record with the next reply; a reply that
            // arrives first waits in the socket buffer.
            let _ = txs[conn].send(Pending { due, queries, keep });
        }
        res.backlog_end = res.sent.saturating_sub(res.errored + answered.load(Ordering::Acquire));
        drop(txs);
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("reader thread panicked".into())))
            .collect()
    });
    for r in per_conn {
        res.merge(r?);
    }
    res.elapsed = started.elapsed();
    Ok(res)
}

/// A connection's reader: replies come back in request order, so each
/// pending record pairs with the next reply frame.
fn read_replies(
    mut stream: TcpStream,
    rx: mpsc::Receiver<Pending>,
    answered: &AtomicU64,
) -> Result<PhaseResult, String> {
    let mut res = PhaseResult::default();
    let mut dead = false;
    for p in rx {
        let n = p.queries.len() as u64;
        if dead {
            res.unanswered += n;
            res.frame_latency_ns.push(u64::MAX);
            continue;
        }
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => {
                // A dead socket: this frame and every later one go unanswered.
                res.unanswered += n;
                res.frame_latency_ns.push(u64::MAX);
                dead = true;
                continue;
            }
        };
        let done = Instant::now();
        match decode_response(&payload) {
            Ok(frame) => {
                let ok = res.tally(&frame.rows);
                let latency = if ok { nanos(done - p.due) } else { u64::MAX };
                res.frame_latency_ns.push(latency);
                if p.keep {
                    res.sampled.push(Sampled { queries: p.queries, rows: frame.rows });
                }
            }
            Err(_) => {
                // An error frame (or an undecodable one) fails this frame.
                res.errored += n;
                res.frame_latency_ns.push(u64::MAX);
            }
        }
        answered.fetch_add(n, Ordering::AcqRel);
    }
    Ok(res)
}
