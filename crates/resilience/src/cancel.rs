//! Cooperative cancellation and deadlines.
//!
//! Nothing here preempts a running kernel: the counting loops poll a
//! [`RunGuard`] at tile/chunk granularity (cheap — one or two atomic
//! loads plus, when a deadline is set, a monotonic clock read every few
//! hundred items) and wind down cleanly when it reports a [`StopReason`].

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cloneable cancellation flag.
///
/// All clones share one flag: call [`CancelToken::cancel`] from any
/// thread (a signal handler, an admission controller, a client
/// disconnect) and every guarded loop holding a clone stops at its next
/// check point.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A wall-clock deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Self {
            at: Instant::now()
                .checked_add(timeout)
                .unwrap_or_else(|| Instant::now() + Duration::from_secs(u32::MAX as u64)),
        }
    }

    /// A deadline at an explicit instant.
    pub fn at(at: Instant) -> Self {
        Self { at }
    }

    /// Whether the deadline has passed.
    #[inline]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// Why a guarded run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A [`CancelToken`] was cancelled.
    Cancelled,
    /// The [`Deadline`] expired.
    DeadlineExpired,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Cancelled => write!(f, "cancelled"),
            StopReason::DeadlineExpired => write!(f, "deadline expired"),
        }
    }
}

/// Combined cancellation state polled by guarded loops.
///
/// The default guard is unlimited (never stops a run) so callers without
/// resilience requirements pass `&RunGuard::default()` and pay only a
/// couple of branch checks per poll.
#[derive(Debug, Clone, Default)]
pub struct RunGuard {
    cancel: Option<CancelToken>,
    deadline: Option<Deadline>,
}

impl RunGuard {
    /// A guard that never stops the run.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether any stop condition is attached at all. Loops may skip
    /// polling entirely for unlimited guards.
    pub fn is_limited(&self) -> bool {
        self.cancel.is_some() || self.deadline.is_some()
    }

    /// Polls the stop conditions. Cancellation wins over deadline expiry
    /// when both hold.
    #[inline]
    pub fn should_stop(&self) -> Option<StopReason> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(deadline) = &self.deadline {
            if deadline.expired() {
                return Some(StopReason::DeadlineExpired);
            }
        }
        None
    }

    /// A [`LoopPoll`] for one parallel loop that polls this guard once
    /// every `stride` items.
    ///
    /// # Panics
    /// Panics when `stride` is not a power of two.
    pub fn poll_every(&self, stride: usize) -> LoopPoll<'_> {
        assert!(
            stride.is_power_of_two(),
            "stride {stride} is not a power of two"
        );
        LoopPoll {
            guard: self,
            mask: stride - 1,
            stopped: AtomicBool::new(false),
        }
    }
}

/// The stop flag of one guarded parallel loop ([`RunGuard::poll_every`]).
///
/// Each worker asks [`LoopPoll::stopped`] before an item. An item whose
/// loop index is a multiple of the stride polls the guard; the first
/// poll that finds a stop condition raises the flag, and from then on
/// every item on every worker is skipped. [`LoopPoll::finish`] turns what
/// the loop accumulated into its result.
#[derive(Debug)]
pub struct LoopPoll<'a> {
    guard: &'a RunGuard,
    mask: usize,
    stopped: AtomicBool,
}

impl LoopPoll<'_> {
    /// Whether the item at loop index `i` must be skipped.
    #[inline]
    pub fn stopped(&self, i: usize) -> bool {
        if self.stopped.load(Ordering::Relaxed) {
            return true;
        }
        if i & self.mask == 0 && self.guard.should_stop().is_some() {
            self.stopped.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// `Ok(value)` when the loop ran to the end, or the guard's stop
    /// reason with `value` as the partial result when it stopped. Stop
    /// conditions never clear, so the guard still reports the reason.
    ///
    /// # Errors
    /// Returns the stop reason and the partial result when an item was
    /// skipped.
    pub fn finish<T>(self, value: T) -> Result<T, (StopReason, T)> {
        match self.guard.should_stop() {
            Some(reason) if self.stopped.into_inner() => Err((reason, value)),
            _ => Ok(value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_cancels_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        a.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn deadline_expiry() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
        let far = Deadline::after(Duration::from_secs(3600));
        assert!(!far.expired());
        assert!(far.remaining() > Duration::from_secs(3500));
    }

    #[test]
    fn unlimited_guard_never_stops() {
        let g = RunGuard::unlimited();
        assert!(!g.is_limited());
        assert_eq!(g.should_stop(), None);
    }

    #[test]
    fn guard_reports_cancellation_before_deadline() {
        let token = CancelToken::new();
        let g = RunGuard::unlimited()
            .with_cancel(token.clone())
            .with_deadline(Deadline::after(Duration::ZERO));
        assert!(g.is_limited());
        assert_eq!(g.should_stop(), Some(StopReason::DeadlineExpired));
        token.cancel();
        assert_eq!(g.should_stop(), Some(StopReason::Cancelled));
    }

    /// Sums `0..n` under `guard`, as a guarded loop does, cancelling
    /// `token` at item `cancel_at`.
    fn guarded_sum(
        guard: &RunGuard,
        token: &CancelToken,
        n: usize,
        cancel_at: usize,
    ) -> Result<usize, (StopReason, usize)> {
        let poll = guard.poll_every(16);
        let mut sum = 0;
        for i in 0..n {
            if i == cancel_at {
                token.cancel();
            }
            if !poll.stopped(i) {
                sum += i;
            }
        }
        poll.finish(sum)
    }

    #[test]
    fn a_loop_poll_stops_within_one_stride_and_keeps_the_partial_sum() {
        let token = CancelToken::new();
        let guard = RunGuard::unlimited().with_cancel(token.clone());
        // Cancelled at item 21: items up to 31 still run, 32 polls.
        let (reason, partial) = guarded_sum(&guard, &token, 100, 21).expect_err("cancelled");
        assert_eq!(reason, StopReason::Cancelled);
        assert_eq!(partial, (0..32).sum());
    }

    #[test]
    fn a_loop_poll_under_an_unlimited_guard_runs_to_the_end() {
        let guard = RunGuard::unlimited();
        let sum = guarded_sum(&guard, &CancelToken::new(), 100, usize::MAX);
        assert_eq!(sum, Ok((0..100).sum()));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn a_loop_poll_stride_must_be_a_power_of_two() {
        let _ = RunGuard::unlimited().poll_every(24);
    }

    #[test]
    fn stop_reason_display() {
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
        assert_eq!(StopReason::DeadlineExpired.to_string(), "deadline expired");
    }
}
