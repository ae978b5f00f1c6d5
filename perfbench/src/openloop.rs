//! The open-loop load generator: sends a planned schedule on pipelined
//! connections regardless of replies, and times each request from its
//! intended send time. Also a closed-loop mode that keeps a fixed
//! number of requests in flight, for the throughput a deployment
//! sustains.
//!
//! Two threads drive all connections, whatever their number: a sender
//! that sleeps until each intended time and writes the pre-encoded frame,
//! and a receiver that waits on every socket with one poller and matches
//! replies to requests in per-connection FIFO order. Nothing is retried:
//! a shed, failed or unanswered request is a missed attempt.

use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lotus_net::{Events, Interest, Poller, Token};
use lotus_serve::proto::{self, ErrorKind, FrameProgress, Request, Response};

use crate::schedule::{Kind, Planned};
use crate::stats::Sample;
use crate::trace::Tracer;

/// Latency charged to a request that got no correct reply: it misses
/// every latency limit.
pub const MISSED: f64 = f64::INFINITY;

/// The client gives up on a request this long after its intended send
/// time: a later reply, or none, makes the request lost.
pub const TIMEOUT: Duration = Duration::from_secs(1);

/// How long after the last send a segment keeps reading late replies.
pub const SETTLE: Duration = Duration::from_secs(5);

/// Shed share above which a ladder step fails.
pub const SHED_LIMIT: f64 = 0.01;

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// A reply that passed the answer check.
    Ok,
    /// Shed by admission control (a typed `overloaded` reply).
    Shed,
    /// Any other typed error reply.
    Refused,
    /// A reply whose answer disagrees with the in-process result.
    Wrong,
    /// No reply within [`TIMEOUT`], or the connection failed.
    Lost,
}

/// One request's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Request type.
    pub kind: Kind,
    /// How it ended.
    pub fate: Fate,
    /// Intended send time, from the segment start.
    pub at: Duration,
    /// Milliseconds from the intended send time to the reply.
    pub latency_ms: f64,
}

/// The result of one segment of the schedule.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Scheduled length.
    pub length: Duration,
    /// Every request, in schedule order.
    pub outcomes: Vec<Outcome>,
    /// How late the sender ran, per request, in ms.
    pub lag_ms: Vec<f64>,
}

impl Segment {
    /// Requests attempted.
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.outcomes.len()
    }

    /// Requests that ended other than [`Fate::Ok`].
    #[must_use]
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.fate != Fate::Ok).count()
    }

    /// Requests with the given fate.
    #[must_use]
    pub fn with_fate(&self, fate: Fate) -> usize {
        self.outcomes.iter().filter(|o| o.fate == fate).count()
    }

    /// Correct replies per second of schedule.
    #[must_use]
    pub fn goodput(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.length.as_secs_f64()
    }

    /// The failed share of attempts.
    #[must_use]
    pub fn shed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// Latency of every attempt, failures counted as [`MISSED`].
    #[must_use]
    pub fn latency(&self) -> Sample {
        Sample::new(self.outcomes.iter().map(|o| o.latency_ms).collect())
    }

    /// Latency of correct replies of one type.
    #[must_use]
    pub fn latency_of(&self, kind: Kind) -> Sample {
        Sample::new(
            self.outcomes
                .iter()
                .filter(|o| o.kind == kind && o.fate == Fate::Ok)
                .map(|o| o.latency_ms)
                .collect(),
        )
    }

    /// Whether the backlog grew: the second half's median latency is
    /// more than twice the first half's and above `limit_ms / 2`.
    #[must_use]
    pub fn backlog_grew(&self, limit_ms: f64) -> bool {
        let half = self.length / 2;
        let (first, second): (Vec<&Outcome>, Vec<&Outcome>) =
            self.outcomes.iter().partition(|o| o.at < half);
        let p50 =
            |v: Vec<&Outcome>| Sample::new(v.iter().map(|o| o.latency_ms).collect()).pct(50.0);
        match (p50(first), p50(second)) {
            (Some(a), Some(b)) => b > 2.0 * a && b > limit_ms / 2.0,
            _ => false,
        }
    }

    /// Nearest-rank latency percentile of every attempt, a missed
    /// request counted as the timeout.
    #[must_use]
    pub fn pct_ms(&self, p: f64) -> f64 {
        self.latency()
            .pct(p)
            .map_or(f64::NAN, |v| v.min(TIMEOUT.as_secs_f64() * 1e3))
    }

    /// Whether this segment meets a p99 limit with at most
    /// [`SHED_LIMIT`] shed and no growing backlog.
    #[must_use]
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.pct_ms(99.0) <= limit_ms
            && self.shed_frac() <= SHED_LIMIT
            && !self.backlog_grew(limit_ms)
    }
}

/// Least-squares non-decreasing fit of `values` under `weights`
/// (pool-adjacent-violators).
fn isotonic(values: &[f64], weights: &[f64]) -> Vec<f64> {
    // Blocks of pooled steps: (weighted sum, weight, steps).
    let mut blocks: Vec<(f64, f64, usize)> = Vec::new();
    for (&v, &w) in values.iter().zip(weights) {
        blocks.push((v * w, w, 1));
        while let [.., a, b] = blocks[..] {
            if a.0 / a.1 <= b.0 / b.1 {
                break;
            }
            blocks.pop();
            *blocks.last_mut().expect("two blocks") = (a.0 + b.0, a.1 + b.1, a.2 + b.2);
        }
    }
    blocks
        .iter()
        .flat_map(|&(sum, w, n)| std::iter::repeat_n(sum / w, n))
        .collect()
}

/// Where a non-decreasing fit of `values` over ascending `rates` first
/// exceeds `limit`, interpolated linearly between the steps around it.
/// `Ok(None)` when no step exceeds it; `Err(())` when the lowest does.
fn crossing(rates: &[f64], values: &[f64], weights: &[f64], limit: f64) -> Result<Option<f64>, ()> {
    let fit = isotonic(values, weights);
    match fit.iter().position(|&v| v > limit) {
        None => Ok(None),
        Some(0) => Err(()),
        Some(i) => {
            let t = (limit - fit[i - 1]) / (fit[i] - fit[i - 1]);
            Ok(Some(rates[i - 1] + t * (rates[i] - rates[i - 1])))
        }
    }
}

/// The knee of an ascending rate ladder: the offered rate at which the
/// ladder stops meeting the p99 limit with at most [`SHED_LIMIT`] shed and
/// no growing backlog. Shed share and log p99 are each fitted
/// non-decreasing in the rate, over every step weighted by its attempts,
/// so one noisy step moves the knee little; the knee is the lower of
/// their crossings, interpolated between steps. A step whose backlog grew
/// counts as missing the limit. When the top step still meets the limit
/// the knee is at least its goodput, which is returned; when the lowest
/// step misses it, no rate meets the limit and the knee is 0.
#[must_use]
pub fn knee(ladder: &[Segment], limit_ms: f64) -> f64 {
    let rates: Vec<f64> = ladder.iter().map(|s| s.rate).collect();
    let weights: Vec<f64> = ladder.iter().map(|s| s.attempted().max(1) as f64).collect();
    let shed: Vec<f64> = ladder.iter().map(Segment::shed_frac).collect();
    let log_p99: Vec<f64> = ladder
        .iter()
        .map(|s| {
            let p99 = if s.backlog_grew(limit_ms) {
                TIMEOUT.as_secs_f64() * 1e3
            } else {
                s.pct_ms(99.0)
            };
            p99.ln()
        })
        .collect();
    let crossings = (
        crossing(&rates, &shed, &weights, SHED_LIMIT),
        crossing(&rates, &log_p99, &weights, limit_ms.ln()),
    );
    match crossings {
        (Err(()), _) | (_, Err(())) => 0.0,
        (Ok(Some(a)), Ok(Some(b))) => a.min(b),
        (Ok(Some(k)), Ok(None)) | (Ok(None), Ok(Some(k))) => k,
        (Ok(None), Ok(None)) => ladder.last().map_or(0.0, Segment::goodput),
    }
}

struct Pending {
    index: usize,
    intended: Instant,
}

/// The result of a closed-loop segment.
#[derive(Debug, Clone, Copy, Default)]
pub struct Saturation {
    /// Requests sent.
    pub attempted: usize,
    /// Replies that passed the answer check.
    pub ok: usize,
    /// Typed error replies other than `overloaded`.
    pub refused: usize,
    /// Replies whose answer disagrees with the in-process result.
    pub wrong: usize,
    /// From the first send to the last reply, on the slowest connection.
    pub elapsed: Duration,
}

impl Saturation {
    /// Correct replies per second.
    #[must_use]
    pub fn goodput(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64()
    }

    fn add(self, other: Saturation) -> Saturation {
        Saturation {
            attempted: self.attempted + other.attempted,
            ok: self.ok + other.ok,
            refused: self.refused + other.refused,
            wrong: self.wrong + other.wrong,
            elapsed: self.elapsed.max(other.elapsed),
        }
    }
}

/// Drives `addr` closed loop for `length`: one thread per connection,
/// each keeping `window` requests of `plan` in flight and sending the next
/// as each reply arrives (replies come back in order on a connection).
/// The deployment is never idle, and with `connections * window` no more
/// than its workers and queue hold, never overrun: the measure is the
/// throughput it sustains, which, unlike goodput under open-loop
/// overload, does not depend on how a queue without admission control
/// collapses.
///
/// # Errors
/// Returns an error when a connection fails or a reply is not read
/// within [`TIMEOUT`].
pub fn closed_loop(
    addr: SocketAddr,
    connections: usize,
    window: usize,
    plan: &[Planned],
    length: Duration,
    check: &(dyn Fn(&Request, &Response) -> bool + Sync),
) -> io::Result<Saturation> {
    let connections = connections.max(1);
    let start = Instant::now();
    let drive = |c: usize| -> io::Result<Saturation> {
        let mut writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(TIMEOUT))?;
        let mut reader = BufReader::new(writer.try_clone()?);
        let mut requests = plan.iter().skip(c).step_by(connections);
        let mut in_flight = VecDeque::with_capacity(window);
        let mut s = Saturation::default();
        let mut send = |p: &'_ Planned| {
            s.attempted += 1;
            proto::write_request(&mut writer, &p.request).map_err(io::Error::other)
        };
        for p in requests.by_ref().take(window) {
            send(p)?;
            in_flight.push_back(p);
        }
        while let Some(p) = in_flight.pop_front() {
            match proto::read_response(&mut reader).map_err(io::Error::other)? {
                Response::Error {
                    kind: ErrorKind::Overloaded,
                    ..
                } => {}
                Response::Error { .. } => s.refused += 1,
                reply if check(&p.request, &reply) => s.ok += 1,
                _ => s.wrong += 1,
            }
            if start.elapsed() < length {
                if let Some(next) = requests.next() {
                    send(next)?;
                    in_flight.push_back(next);
                }
            }
        }
        s.elapsed = start.elapsed();
        Ok(s)
    };
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..connections)
            .map(|c| scope.spawn(move || drive(c)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("closed-loop thread panicked"))
            .try_fold(Saturation::default(), |acc, s| Ok(acc.add(s?)))
    })
}

fn write_all_nonblocking(mut stream: &TcpStream, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(20));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Drives one segment on `connections` fresh connections to `addr` and
/// returns every outcome. `check` says whether a non-error reply is the
/// right answer to its request. A request without a reply within
/// [`TIMEOUT`] of its intended send time is lost. Late replies are still
/// read, for up to [`SETTLE`] after the last send, so that the next
/// segment starts on an idle deployment.
///
/// # Errors
/// Returns an error when the connections or the poller cannot be set up.
#[allow(clippy::too_many_arguments)]
pub fn run(
    addr: SocketAddr,
    connections: usize,
    plan: &[Planned],
    rate: f64,
    length: Duration,
    check: &(dyn Fn(&Request, &Response) -> bool + Sync),
    tracer: &Tracer,
    parent: Option<u64>,
) -> io::Result<Segment> {
    let conns: Vec<TcpStream> = (0..connections.max(1))
        .map(|_| {
            let c = TcpStream::connect(addr)?;
            c.set_nodelay(true)?;
            c.set_nonblocking(true)?;
            Ok(c)
        })
        .collect::<io::Result<_>>()?;
    let frames: Vec<Vec<u8>> = plan
        .iter()
        .map(|p| {
            let mut frame = Vec::new();
            proto::write_request(&mut frame, &p.request).map(|()| frame)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| io::Error::other(e.to_string()))?;
    let poller = Poller::new()?;
    for (i, conn) in conns.iter().enumerate() {
        poller.register(conn.as_raw_fd(), Token(i as u64), Interest::READ)?;
    }
    let fifos: Vec<Mutex<VecDeque<Pending>>> =
        conns.iter().map(|_| Mutex::new(VecDeque::new())).collect();
    let mut outcomes: Vec<Outcome> = plan
        .iter()
        .map(|p| Outcome {
            kind: p.kind,
            fate: Fate::Lost,
            at: p.at,
            latency_ms: MISSED,
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(2);
    let mut lag_ms = Vec::with_capacity(plan.len());

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut lags = Vec::with_capacity(plan.len());
            for (index, (p, frame)) in plan.iter().zip(&frames).enumerate() {
                let intended = start + p.at;
                let now = Instant::now();
                if now < intended {
                    std::thread::sleep(intended - now);
                }
                let conn = index % conns.len();
                fifos[conn]
                    .lock()
                    .expect("fifo poisoned")
                    .push_back(Pending { index, intended });
                let sent = Instant::now();
                lags.push(sent.saturating_duration_since(intended).as_secs_f64() * 1e3);
                if write_all_nonblocking(&conns[conn], frame).is_err() {
                    // The receiver sees the dead socket and loses the rest.
                    break;
                }
            }
            lags
        });

        let deadline = start + length + SETTLE;
        let mut bufs: Vec<Vec<u8>> = conns.iter().map(|_| Vec::new()).collect();
        let mut dead = vec![false; conns.len()];
        let mut events = Events::with_capacity(conns.len());
        let mut resolved = 0usize;
        let mut chunk = vec![0u8; 64 << 10];
        while resolved < plan.len() && Instant::now() < deadline && dead.iter().any(|d| !d) {
            if poller
                .wait(&mut events, Some(Duration::from_millis(5)))
                .is_err()
            {
                continue;
            }
            for event in &events {
                let c = event.token.0 as usize;
                if dead[c] {
                    continue;
                }
                loop {
                    match (&conns[c]).read(&mut chunk) {
                        Ok(0) => {
                            dead[c] = true;
                            break;
                        }
                        Ok(n) => bufs[c].extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            dead[c] = true;
                            break;
                        }
                    }
                }
                let done = Instant::now();
                let mut used = 0;
                while used < bufs[c].len() {
                    let (payload, consumed) = match proto::try_parse_frame(&bufs[c][used..]) {
                        FrameProgress::Incomplete => break,
                        FrameProgress::Frame { payload, consumed } => (payload, consumed),
                        FrameProgress::Damaged(_) => {
                            dead[c] = true;
                            break;
                        }
                    };
                    used += consumed;
                    let Some(pending) = fifos[c].lock().expect("fifo poisoned").pop_front() else {
                        dead[c] = true;
                        break;
                    };
                    let outcome = &mut outcomes[pending.index];
                    let latency = done.duration_since(pending.intended);
                    outcome.fate = match Response::decode(&payload) {
                        _ if latency > TIMEOUT => Fate::Lost,
                        Ok(Response::Error {
                            kind: ErrorKind::Overloaded,
                            ..
                        }) => Fate::Shed,
                        Ok(Response::Error { .. }) => Fate::Refused,
                        Ok(reply) if check(&plan[pending.index].request, &reply) => Fate::Ok,
                        Ok(_) | Err(_) => Fate::Wrong,
                    };
                    if outcome.fate == Fate::Ok {
                        outcome.latency_ms = latency.as_secs_f64() * 1e3;
                    }
                    tracer.record(
                        tracer.next_id(),
                        &format!("request.{}", outcome.kind.name()),
                        parent,
                        (pending.intended, done),
                        Some(pending.index as u64),
                    );
                    resolved += 1;
                }
                bufs[c].drain(..used);
            }
        }
        lag_ms = sender.join().expect("sender thread panicked");
    });
    Ok(Segment {
        rate,
        length,
        outcomes,
        lag_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-second step at `rate` whose requests take `ms` each, the
    /// first `shed` of them shed.
    fn step(rate: f64, ms: f64, shed: usize) -> Segment {
        let n = rate as usize;
        let outcomes = (0..n)
            .map(|i| Outcome {
                kind: Kind::Count,
                fate: if i < shed { Fate::Shed } else { Fate::Ok },
                at: Duration::from_secs_f64(i as f64 / rate),
                latency_ms: if i < shed { MISSED } else { ms },
            })
            .collect();
        Segment {
            rate,
            length: Duration::from_secs(1),
            outcomes,
            lag_ms: vec![0.0; n],
        }
    }

    #[test]
    fn segment_rates_and_shares() {
        let s = step(1000.0, 2.0, 5);
        assert_eq!(s.attempted(), 1000);
        assert_eq!(s.failed(), 5);
        assert!((s.goodput() - 995.0).abs() < 1e-9);
        assert!((s.shed_frac() - 0.005).abs() < 1e-12);
        // Five missed of 1000: the 99th percentile is still a reply.
        assert_eq!(s.pct_ms(99.0), 2.0);
        assert!(s.meets(5.0));
        assert!(!s.meets(1.0));
        // 2% shed: the p99 is a missed request, charged the timeout.
        assert_eq!(step(1000.0, 2.0, 20).pct_ms(99.0), 1000.0);
    }

    #[test]
    fn isotonic_pools_violators() {
        assert_eq!(
            isotonic(&[1.0, 3.0, 2.0, 4.0], &[1.0; 4]),
            vec![1.0, 2.5, 2.5, 4.0]
        );
        assert_eq!(isotonic(&[3.0, 1.0], &[1.0, 3.0]), vec![1.5, 1.5]);
        assert_eq!(isotonic(&[0.0, 1.0, 2.0], &[1.0; 3]), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn knee_interpolates_the_fitted_crossing() {
        // Shed crosses 1% halfway between 200 and 300 /s (a limit above
        // the timeout leaves only the shed criterion).
        let ladder = [
            step(100.0, 1.0, 0),
            step(200.0, 1.0, 0),
            step(300.0, 1.0, 6),
        ];
        let k = knee(&ladder, 5000.0);
        assert!((k - 250.0).abs() < 1e-9, "{k}");
        // p99 crosses the limit on a log scale: 1 ms -> 100 ms, limit 10 ms.
        let ladder = [step(100.0, 1.0, 0), step(200.0, 100.0, 0)];
        let k = knee(&ladder, 10.0);
        assert!((k - 150.0).abs() < 1e-9, "{k}");
        // A noisy middle step is pooled with its neighbour, not taken as
        // the knee: p99 1, 100, 1, 100 ms fits to 1, 10, 10, 100 (log).
        let ladder = [
            step(100.0, 1.0, 0),
            step(200.0, 100.0, 0),
            step(300.0, 1.0, 0),
            step(400.0, 100.0, 0),
        ];
        let k = knee(&ladder, 20.0);
        assert!(k > 300.0 && k < 400.0, "{k}");
        // The top step meets the limit (its goodput), or the lowest does
        // not (no rate meets it).
        assert!((knee(&[step(100.0, 1.0, 0)], 10.0) - 100.0).abs() < 1e-9);
        assert_eq!(knee(&[step(100.0, 50.0, 0)], 10.0), 0.0);
    }

    #[test]
    fn growing_backlog_is_detected() {
        let mut s = step(100.0, 1.0, 0);
        for o in &mut s.outcomes {
            o.latency_ms = 1.0 + o.at.as_secs_f64() * 100.0;
        }
        assert!(s.backlog_grew(10.0));
        assert!(!step(100.0, 1.0, 0).backlog_grew(10.0));
    }
}
