//! A hashed timer wheel for connection timeouts.
//!
//! The event loop needs thousands of concurrently armed idle /
//! slow-loris timeouts with O(1) arm — a sorted structure per timeout
//! would cost a log factor. The wheel hashes each deadline into one of
//! the wheel's `slots` fixed-width buckets; arming is a push, and firing
//! is draining the buckets the cursor sweeps past. The loop keeps one
//! entry per connection: a read only stamps the connection, and the
//! entry, when it fires, is armed again from that stamp (DESIGN.md §14).

use std::time::{Duration, Instant};

/// One armed timeout: fires for `token` once `rounds` full cursor
/// revolutions have passed its slot.
#[derive(Debug, Clone, Copy)]
struct Entry {
    token: u64,
    rounds: u32,
}

/// The wheel. Single-owner (one per event-loop thread), no locking.
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    granularity: Duration,
    cursor: usize,
    /// The instant the slot under the cursor began.
    cursor_start: Instant,
}

impl TimerWheel {
    /// A wheel of `slots` buckets, each `granularity` wide. Deadlines
    /// round *up* to the next slot boundary, so a timeout never fires
    /// early; it may fire up to one granularity late.
    #[must_use]
    pub fn new(granularity: Duration, slots: usize, now: Instant) -> TimerWheel {
        let slots = slots.max(2);
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            granularity: granularity.max(Duration::from_millis(1)),
            cursor: 0,
            cursor_start: now,
        }
    }

    /// Arms a timeout for `token` to fire `after` from `now`.
    pub fn arm(&mut self, now: Instant, after: Duration, token: u64) {
        let elapsed_in_slot = now.saturating_duration_since(self.cursor_start);
        let total = elapsed_in_slot + after;
        // Round up: firing early would evict a connection that still
        // has granularity-remainder time left.
        let ticks = (total.as_nanos().div_ceil(self.granularity.as_nanos())).max(1) as u64;
        let slot = (self.cursor as u64 + ticks) % self.slots.len() as u64;
        let rounds = (ticks / self.slots.len() as u64) as u32;
        self.slots[slot as usize].push(Entry { token, rounds });
    }

    /// Sweeps the cursor forward to `now`, appending every fired token
    /// to `fired`.
    pub fn advance(&mut self, now: Instant, fired: &mut Vec<u64>) {
        while now.saturating_duration_since(self.cursor_start) >= self.granularity {
            self.cursor_start += self.granularity;
            self.cursor = (self.cursor + 1) % self.slots.len();
            let slot = &mut self.slots[self.cursor];
            slot.retain_mut(|entry| {
                if entry.rounds == 0 {
                    fired.push(entry.token);
                    false
                } else {
                    entry.rounds -= 1;
                    true
                }
            });
        }
    }

    /// Time until the next slot holding any entry fires, or `None` when
    /// the wheel is empty — the event loop's wait timeout.
    #[must_use]
    pub fn next_deadline(&self, now: Instant) -> Option<Duration> {
        let len = self.slots.len();
        let mut nearest: Option<usize> = None;
        for ahead in 1..=len {
            let slot = (self.cursor + ahead) % len;
            if !self.slots[slot].is_empty() {
                nearest = Some(ahead);
                break;
            }
        }
        // Entries with rounds > 0 in the nearest slot still bound the
        // wait usefully: waking at their slot costs one spurious sweep.
        let ahead = nearest?;
        let elapsed_in_slot = now.saturating_duration_since(self.cursor_start);
        let target = self.granularity * ahead as u32;
        Some(
            target
                .saturating_sub(elapsed_in_slot)
                .max(Duration::from_millis(1)),
        )
    }

    /// Total armed entries, for tests and debugging.
    #[must_use]
    pub fn armed(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_after_the_deadline_never_before() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 8, start);
        wheel.arm(start, Duration::from_millis(25), 1);
        let mut fired = Vec::new();
        // 20 ms in: not yet (25 ms rounds up to the 30 ms boundary).
        wheel.advance(start + Duration::from_millis(20), &mut fired);
        assert!(fired.is_empty());
        wheel.advance(start + Duration::from_millis(40), &mut fired);
        assert_eq!(fired, vec![1]);
    }

    #[test]
    fn deadlines_past_one_revolution_survive_the_sweep() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 4, start);
        // 4 slots × 10 ms = one 40 ms revolution; 95 ms is 2+ rounds out.
        wheel.arm(start, Duration::from_millis(95), 3);
        let mut fired = Vec::new();
        wheel.advance(start + Duration::from_millis(80), &mut fired);
        assert!(fired.is_empty(), "fired a full revolution early");
        wheel.advance(start + Duration::from_millis(120), &mut fired);
        assert_eq!(fired, vec![3]);
    }

    #[test]
    fn next_deadline_bounds_the_wait() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 8, start);
        assert!(wheel.next_deadline(start).is_none());
        wheel.arm(start, Duration::from_millis(35), 1);
        let wait = wheel.next_deadline(start).expect("armed");
        assert!(wait <= Duration::from_millis(40), "wait {wait:?} too long");
        let mut fired = Vec::new();
        wheel.advance(start + wait + Duration::from_millis(10), &mut fired);
        assert_eq!(fired, vec![1]);
        assert_eq!(wheel.armed(), 0);
    }
}
