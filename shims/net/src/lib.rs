//! Std-only nonblocking readiness shim for the LOTUS serving layer.
//!
//! The workspace builds with no network access, so this crate plays the
//! role `mio`/`polling` would otherwise fill (the same offline-shim
//! style as `shims/par`): a [`Poller`] that multiplexes socket
//! readiness for thousands of connections on a handful of threads, plus
//! a [`Waker`] other threads use to interrupt a blocked wait.
//!
//! Two backends sit behind one API:
//!
//! - **epoll** (Linux x86-64): the real readiness queue, driven by raw
//!   `epoll_create1` / `epoll_ctl` / `epoll_pwait` syscalls — std does
//!   not expose epoll and no `libc` crate is available offline, so the
//!   three syscalls are issued directly with inline assembly, confined
//!   to the `sys` module. Registration is level-triggered: an event
//!   repeats every wait until the condition is consumed.
//! - **tick fallback** (everywhere else, or forced with
//!   `LOTUS_NET_BACKEND=fallback`): a portable emulation that reports
//!   every registered descriptor as ready on a short tick. It
//!   over-reports readiness by design — correct against state machines
//!   that treat `WouldBlock` as a no-op (which level-triggered
//!   consumers must already do), at the cost of one wakeup per tick.
//!
//! The shim is deliberately thin: it owns no sockets (callers keep
//! their `TcpListener`/`TcpStream` values and hand in raw descriptors),
//! imposes no buffer discipline, and never allocates per event beyond
//! the caller's reusable [`Events`] buffer.

use std::collections::HashMap;
use std::io;
use std::os::fd::RawFd;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Caller-chosen identifier attached to a registration; every event
/// carries the token of the descriptor that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub u64);

/// Which readiness directions a registration subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or closed by the peer).
    pub readable: bool,
    /// Wake when the descriptor accepts writes again.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Token of the registration that became ready.
    pub token: Token,
    /// The descriptor is readable (includes EOF/peer-close: a read
    /// will not block, it will return 0 or an error).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// The kernel flagged an error or hangup; the connection should be
    /// read to completion and closed.
    pub closed: bool,
}

/// Reusable buffer of [`Event`]s filled by [`Poller::wait`].
#[derive(Debug, Default)]
pub struct Events {
    items: Vec<Event>,
}

impl Events {
    /// An empty buffer sized for `capacity` events per wait.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            items: Vec::with_capacity(capacity.max(1)),
        }
    }

    /// The events delivered by the last wait.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.items.iter()
    }

    /// Number of delivered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the last wait delivered nothing (pure timeout).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// How long the fallback backend sleeps per tick while descriptors are
/// registered. Short enough that emulated readiness stays responsive,
/// long enough that the loop does not spin a core.
const FALLBACK_TICK: Duration = Duration::from_millis(1);

/// The readiness multiplexer. See the crate docs for backend selection.
#[derive(Debug)]
pub struct Poller {
    backend: Backend,
}

#[derive(Debug)]
enum Backend {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Epoll(sys::Epoll),
    Fallback(Arc<FallbackState>),
}

impl Poller {
    /// Opens a poller on the best backend for this platform; set
    /// `LOTUS_NET_BACKEND=fallback` to force the portable emulation.
    ///
    /// # Errors
    /// Returns the OS error when the epoll descriptor cannot be
    /// created. The fallback never fails.
    pub fn new() -> io::Result<Poller> {
        if std::env::var_os("LOTUS_NET_BACKEND").is_some_and(|v| v == "fallback") {
            return Ok(Poller::fallback());
        }
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            return Ok(Poller {
                backend: Backend::Epoll(sys::Epoll::new()?),
            });
        }
        #[allow(unreachable_code)]
        Ok(Poller::fallback())
    }

    /// Opens a poller on the portable tick backend unconditionally.
    #[must_use]
    pub fn fallback() -> Poller {
        Poller {
            backend: Backend::Fallback(Arc::new(FallbackState::default())),
        }
    }

    /// Whether this poller runs on a real kernel readiness queue
    /// (`false` means the tick fallback is emulating readiness).
    #[must_use]
    pub fn is_kernel_backed(&self) -> bool {
        match &self.backend {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backend::Epoll(_) => true,
            Backend::Fallback(_) => false,
        }
    }

    /// Subscribes `fd` under `token`. One registration per descriptor;
    /// use [`Poller::reregister`] to change the interest set.
    ///
    /// # Errors
    /// Returns the OS error from `epoll_ctl` (e.g. an already
    /// registered or invalid descriptor).
    pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        match &self.backend {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backend::Epoll(ep) => ep.ctl(sys::EPOLL_CTL_ADD, fd, Some((token, interest))),
            Backend::Fallback(state) => {
                state.lock().fds.insert(fd, (token, interest));
                Ok(())
            }
        }
    }

    /// Replaces the interest set of an already registered descriptor.
    ///
    /// # Errors
    /// Returns the OS error from `epoll_ctl` (e.g. a descriptor that
    /// was never registered).
    pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        match &self.backend {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backend::Epoll(ep) => ep.ctl(sys::EPOLL_CTL_MOD, fd, Some((token, interest))),
            Backend::Fallback(state) => {
                state.lock().fds.insert(fd, (token, interest));
                Ok(())
            }
        }
    }

    /// Drops a registration. Safe to call for descriptors about to be
    /// closed (closing also deregisters on the epoll backend).
    ///
    /// # Errors
    /// Returns the OS error from `epoll_ctl`; an unknown descriptor on
    /// the fallback backend is silently ignored.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        match &self.backend {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backend::Epoll(ep) => ep.ctl(sys::EPOLL_CTL_DEL, fd, None),
            Backend::Fallback(state) => {
                state.lock().fds.remove(&fd);
                Ok(())
            }
        }
    }

    /// Creates a [`Waker`] whose [`Waker::wake`] interrupts a blocked
    /// [`Poller::wait`] on this poller, delivering a readable [`Event`]
    /// carrying `token`. One waker per poller.
    ///
    /// # Errors
    /// Returns the OS error when the wake pipe cannot be created or
    /// registered (epoll backend only).
    pub fn waker(&self, token: Token) -> io::Result<Waker> {
        match &self.backend {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backend::Epoll(ep) => ep.waker(token),
            Backend::Fallback(state) => {
                state.lock().waker_token = Some(token);
                Ok(Waker {
                    inner: WakerInner::Flag(Arc::clone(state)),
                })
            }
        }
    }

    /// Blocks until at least one registered descriptor is ready, the
    /// waker fires, or `timeout` elapses (`None` = wait indefinitely).
    /// Fills `events` (clearing previous contents) and returns the
    /// number of events delivered; `0` means the timeout elapsed.
    ///
    /// # Errors
    /// Returns the OS error from `epoll_pwait`; `EINTR` is retried
    /// internally and never surfaces.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.items.clear();
        match &self.backend {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backend::Epoll(ep) => ep.wait(events, timeout),
            Backend::Fallback(state) => {
                state.wait(events, timeout);
                Ok(events.len())
            }
        }
    }
}

/// Accepts one pending connection from a nonblocking listener, returning
/// the stream already in nonblocking mode.
///
/// On Linux x86-64 this is a single `accept4(SOCK_NONBLOCK |
/// SOCK_CLOEXEC)` syscall — the socket is born nonblocking, with no
/// window where a separate `set_nonblocking` could fail or be skipped.
/// Everywhere else (or when `LOTUS_NET_BACKEND=fallback` forces the
/// portable backend) it degrades to `accept` followed by
/// `set_nonblocking(true)`. `EINTR` is retried internally.
///
/// Returns `Ok(None)` when no connection is pending (`WouldBlock`).
///
/// # Errors
/// Returns the OS error from `accept4`/`accept` (e.g. `ECONNABORTED`,
/// `EMFILE`), or from the fallback's `set_nonblocking`.
pub fn accept_nonblocking(
    listener: &std::net::TcpListener,
) -> io::Result<Option<std::net::TcpStream>> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        if std::env::var_os("LOTUS_NET_BACKEND").is_none_or(|v| v != "fallback") {
            return sys::accept_nonblocking(listener);
        }
    }
    accept_nonblocking_portable(listener)
}

/// The portable accept path: `accept` then `set_nonblocking(true)`.
/// [`accept_nonblocking`] uses it off Linux and under the forced
/// fallback backend; it is public so the contract test can exercise
/// both paths on any platform.
///
/// # Errors
/// Returns the OS error from `accept` or `set_nonblocking`.
pub fn accept_nonblocking_portable(
    listener: &std::net::TcpListener,
) -> io::Result<Option<std::net::TcpStream>> {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nonblocking(true)?;
                return Ok(Some(stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Cross-thread handle that interrupts a blocked [`Poller::wait`].
/// Cheap to clone-by-construction (create one, move it anywhere);
/// waking an idle poller is a no-op beyond one queued event.
#[derive(Debug)]
pub struct Waker {
    inner: WakerInner,
}

#[derive(Debug)]
enum WakerInner {
    /// Epoll backend: one byte down a nonblocking pipe the poller
    /// drains. A full pipe means a wake is already pending — dropped
    /// writes are correct, not lossy.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Pipe(std::os::unix::net::UnixStream),
    /// Fallback backend: flag + condvar.
    Flag(Arc<FallbackState>),
}

impl Waker {
    /// Interrupts the poller's current (or next) wait.
    pub fn wake(&self) {
        match &self.inner {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            WakerInner::Pipe(pipe) => {
                use std::io::Write;
                // WouldBlock (pipe full) and broken-pipe (poller gone)
                // both mean no further action is useful.
                let _ = (&mut &*pipe).write(&[1u8]);
            }
            WakerInner::Flag(state) => {
                state.lock().woken = true;
                state.cvar.notify_all();
            }
        }
    }
}

/// Shared state of the portable fallback backend.
#[derive(Debug, Default)]
struct FallbackState {
    inner: Mutex<FallbackInner>,
    cvar: Condvar,
}

#[derive(Debug, Default)]
struct FallbackInner {
    fds: HashMap<RawFd, (Token, Interest)>,
    woken: bool,
    waker_token: Option<Token>,
}

impl FallbackState {
    fn lock(&self) -> std::sync::MutexGuard<'_, FallbackInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait(&self, events: &mut Events, timeout: Option<Duration>) {
        let mut inner = self.lock();
        if !inner.woken {
            // With descriptors registered the tick bounds the emulation
            // latency; with none, sleep the caller's full timeout.
            let dur = if inner.fds.is_empty() {
                timeout.unwrap_or(Duration::from_secs(3600))
            } else {
                timeout.map_or(FALLBACK_TICK, |t| t.min(FALLBACK_TICK))
            };
            let (guard, _) = self
                .cvar
                .wait_timeout(inner, dur)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
        if inner.woken {
            inner.woken = false;
            if let Some(token) = inner.waker_token {
                events.items.push(Event {
                    token,
                    readable: true,
                    writable: false,
                    closed: false,
                });
            }
        }
        for (token, interest) in inner.fds.values() {
            // Emulated readiness: report what the caller subscribed to
            // and let its nonblocking I/O observe the truth.
            if interest.readable || interest.writable {
                events.items.push(Event {
                    token: *token,
                    readable: interest.readable,
                    writable: interest.writable,
                    closed: false,
                });
            }
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    //! Raw epoll syscalls for x86-64 Linux. No `libc` is available
    //! offline, so the three syscalls this backend needs are issued
    //! directly; everything unsafe lives behind the safe [`Epoll`] API.

    use super::{Event, Events, Interest, Token, Waker, WakerInner};
    use std::io;
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::{Mutex, PoisonError};
    use std::time::Duration;

    const SYS_CLOSE: usize = 3;
    const SYS_EPOLL_CTL: usize = 233;
    const SYS_EPOLL_PWAIT: usize = 281;
    const SYS_ACCEPT4: usize = 288;
    const SYS_EPOLL_CREATE1: usize = 291;

    /// `SOCK_NONBLOCK` / `SOCK_CLOEXEC` flag values for `accept4`.
    const SOCK_NONBLOCK: usize = 0o4000;
    const SOCK_CLOEXEC: usize = 0o2000000;

    const EAGAIN: i32 = 11;

    pub(crate) const EPOLL_CTL_ADD: i32 = 1;
    pub(crate) const EPOLL_CTL_DEL: i32 = 2;
    pub(crate) const EPOLL_CTL_MOD: i32 = 3;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: usize = 0x80000;

    const EINTR: i32 = 4;

    /// The kernel's event record. x86-64 packs it to 12 bytes.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// Issues a 6-argument Linux syscall and returns the raw result
    /// (negative values are `-errno`).
    ///
    /// # Safety
    /// The caller must uphold the specific syscall's contract: every
    /// pointer argument must be valid for the kernel's documented
    /// access pattern for the duration of the call.
    unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: the x86-64 Linux syscall ABI — number in rax,
        // arguments in rdi/rsi/rdx/r10/r8/r9, result in rax, rcx and
        // r11 clobbered by the `syscall` instruction. The caller
        // guarantees pointer validity per this function's contract.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                out("rcx") _,
                out("r11") _,
                options(nostack),
            );
        }
        ret
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    /// An epoll instance plus the drain side of its wake pipe.
    #[derive(Debug)]
    pub(crate) struct Epoll {
        epfd: RawFd,
        /// `(read half, token)` of the wake pipe, installed by
        /// [`Epoll::waker`]; the read half must outlive the instance.
        wake_rx: Mutex<Option<(UnixStream, u64)>>,
    }

    impl Epoll {
        pub(crate) fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes no pointers.
            let epfd = check(unsafe { syscall6(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?
                as RawFd;
            Ok(Epoll {
                epfd,
                wake_rx: Mutex::new(None),
            })
        }

        pub(crate) fn ctl(
            &self,
            op: i32,
            fd: RawFd,
            sub: Option<(Token, Interest)>,
        ) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            if let Some((token, interest)) = sub {
                let mut bits = EPOLLRDHUP;
                if interest.readable {
                    bits |= EPOLLIN;
                }
                if interest.writable {
                    bits |= EPOLLOUT;
                }
                ev = EpollEvent {
                    events: bits,
                    data: token.0,
                };
            }
            // SAFETY: `ev` is a valid, initialized EpollEvent that
            // lives across the call; the kernel only reads it. DEL
            // ignores the pointer on every kernel this crate targets
            // but a valid one is passed anyway.
            check(unsafe {
                syscall6(
                    SYS_EPOLL_CTL,
                    self.epfd as usize,
                    op as usize,
                    fd as usize,
                    std::ptr::addr_of!(ev) as usize,
                    0,
                    0,
                )
            })
            .map(|_| ())
        }

        pub(crate) fn waker(&self, token: Token) -> io::Result<Waker> {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            self.ctl(EPOLL_CTL_ADD, rx.as_raw_fd(), Some((token, Interest::READ)))?;
            *self.wake_rx.lock().unwrap_or_else(PoisonError::into_inner) = Some((rx, token.0));
            Ok(Waker {
                inner: WakerInner::Pipe(tx),
            })
        }

        pub(crate) fn wait(
            &self,
            events: &mut Events,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let timeout_ms: isize = match timeout {
                // Saturate instead of overflowing i32; ~24 days is
                // indistinguishable from forever for a readiness loop.
                Some(t) => t.as_millis().min(i32::MAX as u128) as isize,
                None => -1,
            };
            let mut buf = [EpollEvent { events: 0, data: 0 }; 128];
            let n = loop {
                // SAFETY: `buf` is a valid writable array of 128
                // EpollEvent records living across the call; maxevents
                // matches its length; the sigmask pointer is null
                // (no mask) with the mandatory sigsetsize of 8.
                let ret = unsafe {
                    syscall6(
                        SYS_EPOLL_PWAIT,
                        self.epfd as usize,
                        buf.as_mut_ptr() as usize,
                        buf.len(),
                        timeout_ms as usize,
                        0,
                        8,
                    )
                };
                if ret == -(EINTR as isize) {
                    continue;
                }
                break check(ret)?;
            };
            let wake_rx = self.wake_rx.lock().unwrap_or_else(PoisonError::into_inner);
            for raw in &buf[..n] {
                let bits = raw.events;
                let data = raw.data;
                if let Some((pipe, wake_token)) = wake_rx.as_ref() {
                    if data == *wake_token {
                        drain_pipe(pipe);
                    }
                }
                events_push(events, bits, data);
            }
            Ok(n)
        }
    }

    fn events_push(events: &mut Events, bits: u32, data: u64) {
        let closed = bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
        events.items.push(Event {
            token: Token(data),
            // Error/hangup conditions surface as readable so the
            // consumer's next read observes EOF or the real error.
            readable: bits & EPOLLIN != 0 || closed,
            writable: bits & EPOLLOUT != 0,
            closed,
        });
    }

    /// `accept4` with `SOCK_NONBLOCK | SOCK_CLOEXEC`: the accepted
    /// socket arrives already nonblocking and close-on-exec, removing
    /// the accept-then-`set_nonblocking` window. `Ok(None)` means no
    /// connection is pending; `EINTR` is retried.
    pub(crate) fn accept_nonblocking(
        listener: &std::net::TcpListener,
    ) -> io::Result<Option<std::net::TcpStream>> {
        use std::os::fd::FromRawFd;
        loop {
            // SAFETY: accept4's sockaddr/addrlen pointers may both be
            // null when the caller does not want the peer address; the
            // listener fd is valid for the duration of the call.
            let ret = unsafe {
                syscall6(
                    SYS_ACCEPT4,
                    listener.as_raw_fd() as usize,
                    0,
                    0,
                    SOCK_NONBLOCK | SOCK_CLOEXEC,
                    0,
                    0,
                )
            };
            if ret == -(EINTR as isize) {
                continue;
            }
            if ret == -(EAGAIN as isize) {
                return Ok(None);
            }
            let fd = check(ret)? as RawFd;
            // SAFETY: `fd` is a fresh socket descriptor returned by
            // accept4 and owned by nobody else; FromRawFd transfers
            // that ownership exactly once.
            return Ok(Some(unsafe { std::net::TcpStream::from_raw_fd(fd) }));
        }
    }

    fn drain_pipe(pipe: &UnixStream) {
        use std::io::Read;
        let mut sink = [0u8; 64];
        while matches!((&mut &*pipe).read(&mut sink), Ok(n) if n > 0) {}
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: close takes no pointers; the fd is owned by this
            // instance and closed exactly once.
            let _ = unsafe { syscall6(SYS_CLOSE, self.epfd as usize, 0, 0, 0, 0, 0) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    fn pollers() -> Vec<Poller> {
        let mut all = vec![Poller::fallback()];
        if let Ok(p) = Poller::new() {
            all.push(p);
        }
        all
    }

    #[test]
    fn readable_event_arrives_for_buffered_data() {
        for poller in pollers() {
            let (mut a, b) = UnixStream::pair().expect("pair");
            b.set_nonblocking(true).expect("nonblocking");
            poller
                .register(b.as_raw_fd(), Token(7), Interest::READ)
                .expect("register");
            a.write_all(b"x").expect("write");
            let mut events = Events::with_capacity(8);
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut seen = false;
            while Instant::now() < deadline && !seen {
                poller
                    .wait(&mut events, Some(Duration::from_millis(100)))
                    .expect("wait");
                seen = events.iter().any(|e| e.token == Token(7) && e.readable);
            }
            assert!(seen, "readable event never arrived");
            let mut buf = [0u8; 1];
            assert_eq!((&mut &b).read(&mut buf).expect("read"), 1);
            poller.deregister(b.as_raw_fd()).expect("deregister");
        }
    }

    #[test]
    fn writable_interest_fires_on_an_open_socket() {
        for poller in pollers() {
            let (_a, b) = UnixStream::pair().expect("pair");
            poller
                .register(b.as_raw_fd(), Token(3), Interest::BOTH)
                .expect("register");
            let mut events = Events::with_capacity(8);
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut seen = false;
            while Instant::now() < deadline && !seen {
                poller
                    .wait(&mut events, Some(Duration::from_millis(100)))
                    .expect("wait");
                seen = events.iter().any(|e| e.token == Token(3) && e.writable);
            }
            assert!(seen, "writable event never arrived");
        }
    }

    #[test]
    fn waker_interrupts_a_long_wait() {
        for poller in pollers() {
            let waker = poller.waker(Token(99)).expect("waker");
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                waker.wake();
            });
            let mut events = Events::with_capacity(8);
            let start = Instant::now();
            poller
                .wait(&mut events, Some(Duration::from_secs(30)))
                .expect("wait");
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "waker failed to interrupt the wait"
            );
            assert!(events.iter().any(|e| e.token == Token(99)));
            handle.join().expect("waker thread");
        }
    }

    #[test]
    fn peer_close_surfaces_as_readable() {
        for poller in pollers() {
            let (a, b) = UnixStream::pair().expect("pair");
            b.set_nonblocking(true).expect("nonblocking");
            poller
                .register(b.as_raw_fd(), Token(1), Interest::READ)
                .expect("register");
            drop(a);
            let mut events = Events::with_capacity(8);
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut seen = false;
            while Instant::now() < deadline && !seen {
                poller
                    .wait(&mut events, Some(Duration::from_millis(100)))
                    .expect("wait");
                seen = events.iter().any(|e| e.token == Token(1) && e.readable);
            }
            assert!(seen, "peer close never produced a readable event");
            let mut buf = [0u8; 8];
            assert_eq!((&mut &b).read(&mut buf).expect("read eof"), 0);
        }
    }

    #[test]
    fn timeout_returns_zero_events() {
        let poller = Poller::fallback();
        let mut events = Events::with_capacity(4);
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .expect("wait");
        assert_eq!(n, 0);
        assert!(events.is_empty());
    }

    #[test]
    fn accept_nonblocking_contract_holds_on_both_paths() {
        use std::net::{TcpListener, TcpStream};
        // Both the accept4 fast path (where available) and the portable
        // accept-then-set-nonblocking path must satisfy one contract:
        // None when nothing is pending, Some(nonblocking stream) when a
        // connection is queued.
        type AcceptFn = fn(&TcpListener) -> std::io::Result<Option<TcpStream>>;
        let paths: [(&str, AcceptFn); 2] = [
            ("best", accept_nonblocking as AcceptFn),
            ("portable", accept_nonblocking_portable as AcceptFn),
        ];
        for (label, accept) in paths {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener
                .set_nonblocking(true)
                .expect("nonblocking listener");
            let addr = listener.local_addr().expect("addr");

            // Empty queue: must report None, not block or error.
            assert!(
                accept(&listener).expect("accept on empty queue").is_none(),
                "{label}: expected None with no pending connection"
            );

            let mut client = TcpStream::connect(addr).expect("connect");
            let deadline = Instant::now() + Duration::from_secs(5);
            let accepted = loop {
                if let Some(stream) = accept(&listener).expect("accept") {
                    break stream;
                }
                assert!(
                    Instant::now() < deadline,
                    "{label}: pending connection never surfaced"
                );
                std::thread::sleep(Duration::from_millis(1));
            };

            // The accepted stream must already be nonblocking: a read
            // with no data is WouldBlock, never a hang.
            let mut buf = [0u8; 1];
            let err = (&mut &accepted)
                .read(&mut buf)
                .expect_err("read on idle accepted socket");
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::WouldBlock,
                "{label}: accepted stream is not nonblocking"
            );

            // And usable: bytes flow both ways.
            client.write_all(b"hi").expect("client write");
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match (&mut &accepted).read(&mut buf) {
                    Ok(n) => {
                        assert!(n > 0, "{label}: unexpected EOF");
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        assert!(Instant::now() < deadline, "{label}: data never arrived");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("{label}: read failed: {e}"),
                }
            }
        }
    }

    #[test]
    fn kernel_backend_reports_itself() {
        let poller = Poller::new().expect("poller");
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert!(poller.is_kernel_backed());
        assert!(!Poller::fallback().is_kernel_backed());
    }
}
