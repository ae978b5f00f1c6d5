//! The coordinator's fan-out engine: one multiplexed nonblocking
//! connection per shard daemon, pipelined requests, deadline-bounded
//! collection (DESIGN.md §16).
//!
//! A [`Fleet`] holds at most one connection per shard endpoint — a
//! [`FramedConn`] plus the FIFO of calls awaiting its replies — and
//! reuses it across broadcasts. Every link is registered with the
//! fleet's one long-lived [`Poller`] when it is dialed and deregistered
//! when it fails. [`Fleet::broadcast`] queues every request up front
//! (pipelining — the LSRV daemon answers frames in order per
//! connection, so a FIFO of in-flight call indices is enough to match
//! responses), then drives the links until every call resolves or the
//! deadline expires. A shard that is slow, dead, or desynced resolves
//! its pending calls to [`FleetError`] — never a hang — and its
//! connection is reset so the next broadcast starts clean.
//!
//! Connects retry transient failures under the workspace's seeded
//! backoff policy ([`lotus_resilience::retry`]), bounded by the
//! broadcast deadline.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use lotus_net::{Events, Interest, Poller, Token};
use lotus_resilience::retry::{is_transient_io, retry, RetryPolicy};
use lotus_resilience::Deadline;
use lotus_serve::conn::{Flush, FramedConn, Inbound};
use lotus_serve::proto::{Request, Response};

/// Why a shard call failed to produce a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The shard could not be dialed (after retries) or its connection
    /// died mid-broadcast.
    Unavailable(String),
    /// The broadcast deadline expired before the shard answered.
    DeadlineExpired,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Unavailable(detail) => write!(f, "shard unavailable: {detail}"),
            FleetError::DeadlineExpired => write!(f, "deadline expired awaiting shard reply"),
        }
    }
}

/// One shard call of a broadcast: `(shard index, request)`.
pub type ShardCall = (usize, Request);

/// Per-call outcome slots of one broadcast (`None` = unresolved).
type Results = [Option<Result<Response, FleetError>>];

/// Poll granularity: short enough that deadline expiry is noticed
/// promptly even when no readiness arrives, long enough to stay cheap.
const WAIT_SLICE: Duration = Duration::from_millis(25);

#[derive(Debug)]
struct Conn {
    io: FramedConn,
    /// Broadcast-local call indices awaiting replies, FIFO (the daemon
    /// flushes responses in request order per connection).
    pending: VecDeque<usize>,
}

#[derive(Debug)]
struct Link {
    addr: String,
    conn: Option<Conn>,
}

/// The per-shard connection set. Not internally synchronized — the
/// coordinator serializes broadcasts behind one traced mutex.
#[derive(Debug)]
pub struct Fleet {
    links: Vec<Link>,
    retry: RetryPolicy,
    /// Every live link is registered here under its shard index.
    poller: Poller,
}

impl Fleet {
    /// A fleet over `endpoints` (shard index = position), dialing with
    /// the given retry policy.
    #[must_use]
    pub fn new(endpoints: &[String], retry: RetryPolicy) -> Fleet {
        Fleet {
            links: endpoints
                .iter()
                .map(|addr| Link {
                    addr: addr.clone(),
                    conn: None,
                })
                .collect(),
            retry,
            poller: Poller::new().unwrap_or_else(|_| Poller::fallback()),
        }
    }

    /// Appends a newly joined shard endpoint.
    pub fn push_endpoint(&mut self, addr: &str) {
        self.links.push(Link {
            addr: addr.to_string(),
            conn: None,
        });
    }

    /// Endpoints currently tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the fleet tracks no shards.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Sends every call to its shard (pipelined per connection) and
    /// collects responses until all resolve or `deadline` expires.
    ///
    /// Returns one result per call, in call order. A dead or slow shard
    /// yields [`FleetError`] for each of its calls; its connection is
    /// dropped so a later broadcast re-dials. Calls naming a shard
    /// index outside the fleet resolve to [`FleetError::Unavailable`].
    pub fn broadcast(
        &mut self,
        calls: &[ShardCall],
        deadline: Deadline,
    ) -> Vec<Result<Response, FleetError>> {
        let mut results: Vec<Option<Result<Response, FleetError>>> = vec![None; calls.len()];

        // Dial + enqueue. Encoding failures and unknown shards resolve
        // immediately; everything else lands in a per-link out buffer.
        for (call_idx, (shard, request)) in calls.iter().enumerate() {
            if *shard >= self.links.len() {
                results[call_idx] = Some(Err(FleetError::Unavailable(format!(
                    "shard {shard} is not in the fleet (size {})",
                    self.links.len()
                ))));
                continue;
            }
            if let Err(detail) = self.ensure_link(*shard, deadline) {
                results[call_idx] = Some(Err(FleetError::Unavailable(detail)));
                continue;
            }
            let Some(conn) = self.links[*shard].conn.as_mut() else {
                continue;
            };
            match conn.io.queue_request(request) {
                Ok(()) => conn.pending.push_back(call_idx),
                Err(e) => {
                    results[call_idx] =
                        Some(Err(FleetError::Unavailable(format!("encode failed: {e}"))));
                }
            }
        }
        for shard in 0..self.links.len() {
            self.flush(shard, &mut results);
        }

        self.drive(deadline, &mut results);

        // Anything still unresolved hit the deadline. The connection's
        // FIFO no longer matches what the shard will send, so reset it.
        for (call_idx, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(Err(FleetError::DeadlineExpired));
                let shard = calls[call_idx].0;
                if shard < self.links.len() {
                    self.drop_link(shard);
                }
            }
        }
        results
            .into_iter()
            .map(|slot| slot.unwrap_or(Err(FleetError::DeadlineExpired)))
            .collect()
    }

    /// Event-drives every link with pending work until all calls
    /// resolve or the deadline passes.
    fn drive(&mut self, deadline: Deadline, results: &mut Results) {
        let mut events = Events::with_capacity(64);
        while results.iter().any(Option::is_none) && !deadline.expired() {
            let timeout = deadline.remaining().min(WAIT_SLICE);
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            for event in &events {
                let shard = event.token.0 as usize;
                if shard >= self.links.len() || self.links[shard].conn.is_none() {
                    continue;
                }
                if event.writable {
                    self.flush(shard, results);
                }
                if event.readable || event.closed {
                    self.drain_in(shard, results);
                }
            }
        }
    }

    /// Makes sure the shard has a live connection: an idle link the
    /// shard has since closed (its idle timeout, a restart) is noticed
    /// here and re-dialed, instead of failing the calls queued on it.
    fn ensure_link(&mut self, shard: usize, deadline: Deadline) -> Result<(), String> {
        if let Some(conn) = self.links[shard].conn.as_mut() {
            let idle = conn.pending.is_empty();
            if !idle
                || conn.io.fill(usize::MAX).ok()
                    == Some(Inbound {
                        bytes: 0,
                        eof: false,
                    })
            {
                return Ok(());
            }
            self.drop_link(shard);
        }
        self.dial(shard, deadline)
    }

    /// Connects to a shard, retrying transient failures under the
    /// seeded policy while the deadline allows, and registers the link
    /// with the fleet's poller.
    fn dial(&mut self, shard: usize, deadline: Deadline) -> Result<(), String> {
        let addr_str = self.links[shard].addr.clone();
        let sock_addr: SocketAddr = addr_str
            .to_socket_addrs()
            .map_err(|e| format!("bad shard address `{addr_str}`: {e}"))?
            .next()
            .ok_or_else(|| format!("shard address `{addr_str}` resolves to nothing"))?;
        let policy = self.retry;
        let (connected, _retries) = retry(
            &policy,
            |e: &std::io::Error| is_transient_io(e) && !deadline.expired(),
            || {
                let timeout = deadline.remaining().min(Duration::from_secs(1));
                if timeout.is_zero() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "deadline expired before connect",
                    ));
                }
                TcpStream::connect_timeout(&sock_addr, timeout)
            },
        );
        let stream = connected.map_err(|e| format!("connect `{addr_str}`: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking `{addr_str}`: {e}"))?;
        let mut io = FramedConn::new(stream);
        io.register(&self.poller, Token(shard as u64), Interest::READ)
            .map_err(|e| format!("registering `{addr_str}` with the poller: {e}"))?;
        self.links[shard].conn = Some(Conn {
            io,
            pending: VecDeque::new(),
        });
        Ok(())
    }

    /// Writes as much queued output as the socket accepts, subscribing
    /// to writability only while bytes remain.
    fn flush(&mut self, shard: usize, results: &mut Results) {
        let Some(conn) = self.links[shard].conn.as_mut() else {
            return;
        };
        let synced = match conn.io.flush() {
            Flush::Failed => Err("write failed".to_string()),
            Flush::Done | Flush::Blocked => conn
                .io
                .sync_interest(&self.poller, Token(shard as u64), true)
                .map_err(|e| format!("poller update failed: {e}")),
        };
        if let Err(detail) = synced {
            self.fail_link(shard, &detail, results);
        }
    }

    /// Reads available bytes and resolves complete frames against the
    /// connection's FIFO of in-flight calls.
    fn drain_in(&mut self, shard: usize, results: &mut Results) {
        let Some(conn) = self.links[shard].conn.as_mut() else {
            return;
        };
        let inbound = match conn.io.fill(usize::MAX) {
            Ok(inbound) => inbound,
            Err(e) => return self.fail_link(shard, &format!("read failed: {e}"), results),
        };
        while let Some(frame) = conn.io.next_frame() {
            let payload = match frame {
                Ok(payload) => payload,
                Err(e) => return self.fail_link(shard, &format!("framing damage: {e}"), results),
            };
            let Some(call_idx) = conn.pending.pop_front() else {
                return self.fail_link(shard, "shard sent an unsolicited frame", results);
            };
            match Response::decode(&payload) {
                Ok(response) => results[call_idx] = Some(Ok(response)),
                Err(e) => {
                    results[call_idx] = Some(Err(FleetError::Unavailable(format!(
                        "undecodable reply: {e}"
                    ))));
                    return self.fail_link(shard, "reply stream desynced", results);
                }
            }
        }
        if inbound.eof {
            self.fail_link(shard, "shard closed connection", results);
        }
    }

    /// Resolves every pending call on a link to `Unavailable` and drops
    /// its connection (the stream's FIFO can no longer be trusted).
    fn fail_link(&mut self, shard: usize, detail: &str, results: &mut Results) {
        if let Some(conn) = self.drop_link(shard) {
            for call_idx in conn.pending {
                if results[call_idx].is_none() {
                    results[call_idx] = Some(Err(FleetError::Unavailable(format!(
                        "{} ({detail})",
                        self.links[shard].addr
                    ))));
                }
            }
        }
    }

    /// Deregisters and drops a link's connection, returning it.
    fn drop_link(&mut self, shard: usize) -> Option<Conn> {
        let mut conn = self.links[shard].conn.take()?;
        conn.io.deregister(&self.poller);
        Some(conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_serve::{spawn, ServeConfig};

    fn shard_daemon() -> lotus_serve::ServerHandle {
        spawn(ServeConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServeConfig::default()
        })
        .expect("spawn shard daemon")
    }

    #[test]
    fn pipelined_broadcast_answers_every_call_in_order() {
        let a = shard_daemon();
        let b = shard_daemon();
        let mut fleet = Fleet::new(
            &[a.addr().to_string(), b.addr().to_string()],
            RetryPolicy::serve_default(7),
        );
        let calls: Vec<ShardCall> = (0..8).map(|i| (i % 2, Request::Ping)).collect();
        let replies = fleet.broadcast(&calls, Deadline::after(Duration::from_secs(5)));
        assert_eq!(replies.len(), 8);
        for reply in replies {
            assert_eq!(reply, Ok(Response::Pong));
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn dead_shard_resolves_typed_error_within_deadline() {
        let a = shard_daemon();
        let dead_addr = {
            let victim = shard_daemon();
            let addr = victim.addr().to_string();
            victim.shutdown();
            victim.wait();
            addr
        };
        let mut fleet = Fleet::new(
            &[a.addr().to_string(), dead_addr],
            RetryPolicy {
                max_attempts: 2,
                base_delay_ms: 1,
                max_delay_ms: 2,
                seed: 7,
            },
        );
        let start = std::time::Instant::now();
        let replies = fleet.broadcast(
            &[(0, Request::Ping), (1, Request::Ping)],
            Deadline::after(Duration::from_secs(3)),
        );
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "dead shard must not consume the whole deadline"
        );
        assert_eq!(replies[0], Ok(Response::Pong));
        assert!(
            matches!(replies[1], Err(FleetError::Unavailable(_))),
            "{:?}",
            replies[1]
        );
        a.shutdown();
    }

    #[test]
    fn unknown_shard_index_is_unavailable() {
        let mut fleet = Fleet::new(&[], RetryPolicy::no_retry());
        let replies = fleet.broadcast(
            &[(3, Request::Ping)],
            Deadline::after(Duration::from_millis(100)),
        );
        assert!(matches!(replies[0], Err(FleetError::Unavailable(_))));
    }
}
