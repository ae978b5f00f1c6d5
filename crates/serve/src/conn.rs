//! The framed nonblocking connection every LSRV socket runs on: the
//! daemon's event loop, the multiplexed loadgen and the coordinator's
//! shard links each embed one [`FramedConn`] and keep only their own
//! role state beside it (DESIGN.md §14.2).
//!
//! A `FramedConn` owns the socket, the read-accumulate buffer, the out
//! buffer with its partial-write cursor, and the interest currently
//! registered with a [`Poller`]. Callers drive it from readiness
//! events: [`FramedConn::fill`] until the socket would block,
//! [`FramedConn::next_frame`] to pull complete frames,
//! [`FramedConn::queue_request`] (or the daemon's raw-frame `queue`) to
//! append encoded frames, [`FramedConn::flush`] to write, and
//! [`FramedConn::sync_interest`] to keep the poller subscribed to
//! writability only while bytes wait.

use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;

use lotus_net::{Interest, Poller, Token};

use crate::proto::{try_parse_frame, write_request, FrameProgress, ProtoError, Request};

/// Bytes pulled off the socket per `read(2)`.
const READ_CHUNK: usize = 16 * 1024;

/// What one [`FramedConn::fill`] call saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inbound {
    /// Bytes appended to the read buffer.
    pub bytes: usize,
    /// The peer closed its side: no further bytes will arrive.
    pub eof: bool,
}

/// How far one [`FramedConn::flush`] call got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// Every queued byte reached the socket.
    Done,
    /// The socket would block with bytes still queued; a writable event
    /// resumes from the cursor.
    Blocked,
    /// The transport failed; the connection is unusable.
    Failed,
}

/// A nonblocking socket with frame-level read and write buffering.
#[derive(Debug)]
pub struct FramedConn {
    stream: TcpStream,
    /// Unparsed received bytes.
    read_buf: Vec<u8>,
    /// Encoded frames ready to write, in flush order.
    out: Vec<u8>,
    /// How much of `out` has reached the socket.
    out_pos: usize,
    /// Interest registered with the poller; `None` while unregistered.
    interest: Option<Interest>,
}

impl FramedConn {
    /// Wraps a socket already switched to nonblocking mode.
    #[must_use]
    pub fn new(stream: TcpStream) -> FramedConn {
        FramedConn {
            stream,
            read_buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            interest: None,
        }
    }

    /// The underlying socket.
    #[must_use]
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Registers the socket with `poller` under `token`.
    ///
    /// # Errors
    /// Returns the poller's error; the connection stays unregistered.
    pub fn register(
        &mut self,
        poller: &Poller,
        token: Token,
        interest: Interest,
    ) -> std::io::Result<()> {
        poller.register(self.stream.as_raw_fd(), token, interest)?;
        self.interest = Some(interest);
        Ok(())
    }

    /// Removes the socket from `poller`; a no-op when unregistered.
    pub fn deregister(&mut self, poller: &Poller) {
        if self.interest.take().is_some() {
            let _ = poller.deregister(self.stream.as_raw_fd());
        }
    }

    /// Re-registers when the wanted interest changed: readable as the
    /// caller asks, writable while queued bytes wait. A no-op when
    /// unregistered.
    ///
    /// # Errors
    /// Returns the poller's error; the caller should drop the connection.
    pub fn sync_interest(
        &mut self,
        poller: &Poller,
        token: Token,
        readable: bool,
    ) -> std::io::Result<()> {
        let Some(current) = self.interest else {
            return Ok(());
        };
        let want = Interest {
            readable,
            writable: self.unflushed() > 0,
        };
        if want != current {
            poller.reregister(self.stream.as_raw_fd(), token, want)?;
            self.interest = Some(want);
        }
        Ok(())
    }

    /// Reads until the socket would block, the peer closes, or at least
    /// `budget` bytes arrived in this call (a bounded read leaves the
    /// rest to the next level-triggered readiness event).
    ///
    /// # Errors
    /// Returns the transport error; the connection is dead.
    pub fn fill(&mut self, budget: usize) -> std::io::Result<Inbound> {
        let mut chunk = [0u8; READ_CHUNK];
        let mut inbound = Inbound {
            bytes: 0,
            eof: false,
        };
        while inbound.bytes < budget {
            match (&self.stream).read(&mut chunk) {
                Ok(0) => {
                    inbound.eof = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    inbound.bytes += n;
                }
                Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
                Err(e) if e.kind() == IoErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(inbound)
    }

    /// Pulls the next complete frame's payload out of the read buffer,
    /// or `None` until more bytes arrive. Framing damage discards the
    /// buffer: the stream cannot be resynchronized.
    pub fn next_frame(&mut self) -> Option<Result<Vec<u8>, ProtoError>> {
        match try_parse_frame(&self.read_buf) {
            FrameProgress::Incomplete => None,
            FrameProgress::Frame { payload, consumed } => {
                self.read_buf.drain(..consumed);
                Some(Ok(payload))
            }
            FrameProgress::Damaged(e) => {
                self.read_buf.clear();
                Some(Err(e))
            }
        }
    }

    /// Appends an encoded frame to the out buffer.
    pub(crate) fn queue(&mut self, frame: &[u8]) {
        self.out.extend_from_slice(frame);
    }

    /// Encodes and frames `request` straight into the out buffer.
    ///
    /// # Errors
    /// Returns the encoding error; nothing is queued.
    pub fn queue_request(&mut self, request: &Request) -> Result<(), ProtoError> {
        let start = self.out.len();
        write_request(&mut self.out, request).inspect_err(|_| self.out.truncate(start))
    }

    /// Queued bytes not yet written.
    #[must_use]
    pub(crate) fn unflushed(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Writes as much of the out buffer as the socket accepts; a short
    /// write leaves the cursor mid-buffer for the next call.
    pub fn flush(&mut self) -> Flush {
        while self.out_pos < self.out.len() {
            match (&self.stream).write(&self.out[self.out_pos..]) {
                Ok(0) => return Flush::Failed,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == IoErrorKind::WouldBlock => return Flush::Blocked,
                Err(e) if e.kind() == IoErrorKind::Interrupted => {}
                Err(_) => return Flush::Failed,
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Flush::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{frame_response, read_frame, read_response, Response};
    use lotus_net::Events;
    use std::net::TcpListener;
    use std::time::Duration;

    /// A registered nonblocking server end and its blocking peer.
    fn pair() -> (FramedConn, Poller, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        let poller = Poller::new().expect("poller");
        let mut conn = FramedConn::new(server);
        conn.register(&poller, Token(1), Interest::READ)
            .expect("register");
        (conn, poller, client)
    }

    /// Waits until the socket is readable, then reads what arrived.
    fn fill_when_ready(conn: &mut FramedConn, poller: &Poller) -> Inbound {
        let mut events = Events::with_capacity(4);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        conn.fill(usize::MAX).expect("fill")
    }

    fn decode_next(conn: &mut FramedConn) -> Request {
        let payload = conn.next_frame().expect("a frame").expect("undamaged");
        Request::decode(&payload).expect("decodes")
    }

    #[test]
    fn frames_split_across_reads_reassemble() {
        let (mut conn, poller, mut peer) = pair();
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::Ping).expect("encode");
        write_request(&mut wire, &Request::Stats).expect("encode");
        let (a, b) = wire.split_at(wire.len() / 2 + 3);
        peer.write_all(a).expect("write");
        assert!(fill_when_ready(&mut conn, &poller).bytes > 0);
        assert_eq!(decode_next(&mut conn), Request::Ping);
        assert!(conn.next_frame().is_none(), "second frame is incomplete");
        peer.write_all(b).expect("write");
        drop(peer);
        while !fill_when_ready(&mut conn, &poller).eof {}
        assert_eq!(decode_next(&mut conn), Request::Stats);
        assert!(conn.next_frame().is_none());
    }

    #[test]
    fn damage_discards_the_buffer() {
        let (mut conn, poller, mut peer) = pair();
        peer.write_all(b"GET / HTTP/1.1\r\n").expect("write");
        fill_when_ready(&mut conn, &poller);
        assert!(matches!(conn.next_frame(), Some(Err(_))));
        assert!(conn.next_frame().is_none(), "damage clears the buffer");
    }

    #[test]
    fn queued_frames_flush_in_order() {
        let (mut conn, _poller, mut peer) = pair();
        conn.queue(&frame_response(&Response::Pong).expect("frame"));
        conn.queue_request(&Request::Ping).expect("queue");
        assert!(conn.unflushed() > 0);
        assert_eq!(conn.flush(), Flush::Done);
        assert_eq!(conn.unflushed(), 0);
        assert_eq!(read_response(&mut peer).expect("pong"), Response::Pong);
        let payload = read_frame(&mut peer).expect("frame");
        assert_eq!(Request::decode(&payload).expect("decode"), Request::Ping);
    }
}
