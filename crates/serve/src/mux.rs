//! The multiplexed load-generator driver: thousands of client
//! connections on one thread, each a [`FramedConn`] over the same
//! `lotus_net` readiness shim the daemon uses.
//!
//! Every connection is a small state machine (seeded request mix →
//! pipelined in-flight window → in-order response matching →
//! backoff-scheduled retries) multiplexed over one [`Poller`], so a
//! single loadgen process drives ≥1024 connections with request
//! pipelining.
//!
//! The per-connection request stream is deterministic: each connection
//! derives its RNG from `(seed, index)` and picks its mix lazily, so
//! interleaving cannot perturb it. Retry accounting: every attempt's
//! latency is recorded, retried attempts are counted in `retries` but
//! not `sent`, and each logical request is classified exactly once.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use lotus_net::{Events, Interest, Poller, Token};
use lotus_resilience::retry::{is_transient_io, retry, RetryPolicy};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::conn::{Flush, FramedConn};
use crate::loadgen::{pick_request, LoadgenConfig, LoadgenReport};
use crate::proto::{ErrorKind, Response};

/// A connection with requests outstanding but no response bytes for
/// this long fails the run — a hung daemon must not hang CI.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Upper bound on one poller wait, so parked retries and stall checks
/// run even when no socket turns ready.
const MAX_WAIT: Duration = Duration::from_millis(100);

/// One in-flight attempt of a logical request.
struct Flight {
    request: crate::proto::Request,
    attempt: u32,
    sent_at: Instant,
}

/// A retried attempt parked until its backoff delay elapses.
struct ParkedRetry {
    due: Instant,
    conn: usize,
    flight: Flight,
}

/// One multiplexed client connection.
struct MuxConn {
    io: FramedConn,
    rng: SmallRng,
    retry: RetryPolicy,
    /// Attempts on the wire, in send order. The daemon answers frames
    /// in order, so the front entry always owns the next response.
    outstanding: VecDeque<Flight>,
    /// Logical requests picked so far. The mix is derived per
    /// connection, so pipelining cannot perturb the stream.
    issued: usize,
    /// Logical requests with a final outcome.
    completed: usize,
    /// Attempts parked for backoff (they still occupy a window slot,
    /// otherwise a retry storm would exceed the pipeline depth).
    parked: usize,
    last_rx: Instant,
    dead: bool,
}

impl MuxConn {
    /// Still has work to issue or answers to collect.
    fn finished(&self, requests: usize) -> bool {
        self.dead || (self.completed >= requests && self.outstanding.is_empty())
    }

    fn window_free(&self, pipeline: usize, requests: usize) -> bool {
        self.issued < requests && self.outstanding.len() + self.parked < pipeline
    }
}

/// Drives the full run over one poller on the calling thread.
///
/// # Errors
/// Returns a message when no connection can be established or the run
/// produces no measurements; individual request failures are
/// *measurements* (counted in the report), not errors.
pub(crate) fn run(config: &LoadgenConfig, vertices: u32) -> Result<LoadgenReport, String> {
    let pipeline = config.pipeline.max(1);
    let poller = Poller::new().map_err(|e| format!("opening poller: {e}"))?;
    let mut report = LoadgenReport {
        connections: config.connections,
        ..LoadgenReport::default()
    };

    // Connect sequentially and blocking: a burst of nonblocking
    // connects overflows the listener's SYN backlog, which shows up as
    // spurious resets under exactly the load this tool measures.
    let mut conns: Vec<MuxConn> = Vec::with_capacity(config.connections);
    let mut connect_failure: Option<String> = None;
    let mut connect_failures = 0u64;
    for index in 0..config.connections {
        let retry = RetryPolicy {
            seed: config.retry.seed.wrapping_add(index as u64),
            ..config.retry
        };
        match connect_with_retry(&config.addr, &retry, &mut report.retries) {
            Ok(stream) => {
                let token = conns.len() as u64;
                let mut conn = MuxConn {
                    io: FramedConn::new(stream),
                    rng: SmallRng::seed_from_u64(
                        config
                            .seed
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add(index as u64),
                    ),
                    retry,
                    outstanding: VecDeque::new(),
                    issued: 0,
                    completed: 0,
                    parked: 0,
                    last_rx: Instant::now(),
                    dead: false,
                };
                conn.io
                    .register(&poller, Token(token), Interest::READ)
                    .map_err(|e| format!("registering connection {index}: {e}"))?;
                conns.push(conn);
            }
            Err(e) => {
                connect_failures += 1;
                connect_failure.get_or_insert(format!("connection {index}: {e}"));
            }
        }
    }
    if conns.is_empty() {
        return Err(
            connect_failure.unwrap_or_else(|| "no connection could be established".to_string())
        );
    }
    report.errors += connect_failures;
    report.open_conns = conns.len() as u64;

    let start = Instant::now();
    let mut completions_us: Vec<u64> = Vec::new();
    let mut parked: Vec<ParkedRetry> = Vec::new();
    let mut events = Events::with_capacity(1024);

    loop {
        // Fill every free pipeline slot, flush, and settle interest.
        for (i, conn) in conns.iter_mut().enumerate() {
            if conn.dead || conn.completed >= config.requests {
                continue;
            }
            while conn.window_free(pipeline, config.requests) {
                let request = pick_request(&mut conn.rng, config, vertices);
                conn.issued += 1;
                send_attempt(
                    conn,
                    Flight {
                        request,
                        attempt: 0,
                        sent_at: Instant::now(),
                    },
                );
            }
            flush(conn);
            refresh(&poller, i, conn);
        }

        if parked.is_empty() && conns.iter().all(|c| c.finished(config.requests)) {
            break;
        }

        // Wait for readiness, bounded by the nearest parked retry.
        let now = Instant::now();
        let timeout = parked
            .iter()
            .map(|p| p.due.saturating_duration_since(now))
            .min()
            .unwrap_or(MAX_WAIT)
            .clamp(Duration::from_millis(1), MAX_WAIT);
        let _ = poller.wait(&mut events, Some(timeout));

        for event in &events {
            let idx = event.token.0 as usize;
            let Some(conn) = conns.get_mut(idx) else {
                continue;
            };
            if conn.dead {
                continue;
            }
            if event.writable {
                flush(conn);
            }
            if event.readable || event.closed {
                pump_responses(
                    conn,
                    config,
                    &mut report,
                    &mut parked,
                    idx,
                    start,
                    &mut completions_us,
                );
            }
            refresh(&poller, idx, conn);
        }

        // Re-send parked retries whose backoff has elapsed.
        let now = Instant::now();
        let mut i = 0;
        while i < parked.len() {
            if parked[i].due <= now {
                let entry = parked.swap_remove(i);
                let conn = &mut conns[entry.conn];
                conn.parked -= 1;
                if !conn.dead {
                    send_attempt(
                        conn,
                        Flight {
                            sent_at: Instant::now(),
                            ..entry.flight
                        },
                    );
                    flush(conn);
                    refresh(&poller, entry.conn, conn);
                }
            } else {
                i += 1;
            }
        }

        // Stall detection: outstanding work but no response bytes.
        for conn in conns.iter_mut().filter(|c| !c.dead) {
            if !conn.outstanding.is_empty()
                && now.saturating_duration_since(conn.last_rx) > STALL_TIMEOUT
            {
                fail_connection(conn, &mut report);
            }
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            if conn.dead {
                refresh(&poller, i, conn);
            }
        }
    }

    report.wall_ms = start.elapsed().as_millis() as u64;
    report.latencies_us.sort_unstable();
    report.max_sustained_rps = max_sustained_rps(&mut completions_us, report.wall_ms);
    if report.sent == 0 {
        return Err("run produced no measurements (all connections failed)".to_string());
    }
    Ok(report)
}

/// Blocking connect under the retry schedule, like
/// `Client::connect_with_retry`; each retried connect counts into the
/// report's `retries`.
fn connect_with_retry(
    addr: &str,
    policy: &RetryPolicy,
    retries: &mut u64,
) -> Result<TcpStream, String> {
    let (connected, spent) = retry(policy, is_transient_io, || TcpStream::connect(addr));
    *retries += u64::from(spent);
    let stream = connected.map_err(|e| format!("connecting to {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    Ok(stream)
}

/// Encodes one attempt onto the connection's write buffer and tracks
/// it at the back of the outstanding window.
fn send_attempt(conn: &mut MuxConn, flight: Flight) {
    if conn.io.queue_request(&flight.request).is_err() {
        // Unreachable for the generated mix; dropping the attempt is
        // safer than desynchronizing the response window.
        return;
    }
    conn.outstanding.push_back(flight);
}

/// Reads everything available, matches responses front-to-back, and
/// classifies outcomes / schedules overload retries.
fn pump_responses(
    conn: &mut MuxConn,
    config: &LoadgenConfig,
    report: &mut LoadgenReport,
    parked: &mut Vec<ParkedRetry>,
    conn_idx: usize,
    start: Instant,
    completions_us: &mut Vec<u64>,
) {
    let Ok(inbound) = conn.io.fill(usize::MAX) else {
        fail_connection(conn, report);
        return;
    };
    if inbound.bytes > 0 {
        conn.last_rx = Instant::now();
    }
    while let Some(frame) = conn.io.next_frame() {
        // Framing damage or an undecodable reply: the stream is lost.
        let Some(response) = frame.ok().and_then(|p| Response::decode(&p).ok()) else {
            fail_connection(conn, report);
            return;
        };
        let Some(flight) = conn.outstanding.pop_front() else {
            // A response nobody asked for: protocol violation.
            fail_connection(conn, report);
            return;
        };
        report
            .latencies_us
            .push(flight.sent_at.elapsed().as_micros() as u64);
        let overloaded = matches!(
            &response,
            Response::Error {
                kind: ErrorKind::Overloaded,
                ..
            }
        );
        let attempt = flight.attempt + 1;
        if overloaded && conn.retry.should_retry(attempt) {
            report.retries += 1;
            conn.parked += 1;
            parked.push(ParkedRetry {
                due: Instant::now() + conn.retry.delay_for(attempt),
                conn: conn_idx,
                flight: Flight { attempt, ..flight },
            });
            continue;
        }
        conn.completed += 1;
        report.sent += 1;
        completions_us.push(start.elapsed().as_micros() as u64);
        match response {
            Response::Error { kind, .. } => match kind {
                ErrorKind::Overloaded => report.overloaded += 1,
                ErrorKind::DeadlineExpired => report.deadline_expired += 1,
                _ => report.errors += 1,
            },
            _ => report.ok += 1,
        }
    }
    if inbound.eof {
        // EOF: only an error if the daemon still owed answers.
        if !conn.outstanding.is_empty() || conn.completed < config.requests {
            fail_connection(conn, report);
        } else {
            conn.dead = true;
        }
    }
}

/// Transport or protocol damage mid-run: one error, one sent, and stop
/// driving this connection; the others keep measuring.
fn fail_connection(conn: &mut MuxConn, report: &mut LoadgenReport) {
    report.errors += 1;
    report.sent += 1;
    conn.dead = true;
    conn.outstanding.clear();
}

/// Writes as much buffered request data as the socket accepts.
fn flush(conn: &mut MuxConn) {
    if !conn.dead && conn.io.flush() == Flush::Failed {
        conn.dead = true;
    }
}

/// Keeps write interest registered only while bytes are queued, and
/// drops dead connections out of the poller.
fn refresh(poller: &Poller, idx: usize, conn: &mut MuxConn) {
    if conn.dead {
        conn.io.deregister(poller);
    } else if conn
        .io
        .sync_interest(poller, Token(idx as u64), true)
        .is_err()
    {
        conn.dead = true;
    }
}

/// Best completion rate over any 1 s sliding window (two pointers over
/// the sorted completion timestamps). Runs shorter than the window
/// fall back to the overall rate.
fn max_sustained_rps(completions_us: &mut [u64], wall_ms: u64) -> f64 {
    if completions_us.is_empty() {
        return 0.0;
    }
    completions_us.sort_unstable();
    if wall_ms < 1000 {
        return completions_us.len() as f64 / (wall_ms.max(1) as f64 / 1e3);
    }
    let mut best = 0usize;
    let mut lo = 0usize;
    for hi in 0..completions_us.len() {
        while completions_us[hi] - completions_us[lo] > 1_000_000 {
            lo += 1;
        }
        best = best.max(hi - lo + 1);
    }
    best as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_rps_finds_the_densest_window() {
        // 10 completions in the first second, 100 in the third.
        let mut times: Vec<u64> = (0..10u64).map(|i| i * 100_000).collect();
        times.extend((0..100u64).map(|i| 2_000_000 + i * 10_000));
        assert!((max_sustained_rps(&mut times, 3000) - 100.0).abs() < f64::EPSILON);
    }

    #[test]
    fn short_runs_fall_back_to_overall_rate() {
        let mut times = vec![0, 100, 200, 300];
        let rps = max_sustained_rps(&mut times, 500);
        assert!((rps - 8.0).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_run_is_zero() {
        assert!(max_sustained_rps(&mut Vec::new(), 0).abs() < f64::EPSILON);
    }
}
