//! Time sources for telemetry.
//!
//! Every timing measurement in the workspace flows through the [`Clock`]
//! trait; clippy's `disallowed_methods` (DESIGN.md §5b) refuses a direct
//! `Instant::now` / `SystemTime::now` everywhere else, so instrumented
//! crates cannot accidentally read wall-clock in a result-producing path.
//! [`MonotonicClock`] is the production source; [`MockClock`] is a
//! hand-advanced source that makes span and latency tests fully
//! deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond counter. Implementations must be cheap to read
/// and safe to share across the pool's worker threads.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) origin. Monotonic:
    /// successive reads on any thread never decrease.
    fn now_ns(&self) -> u64;
}

/// Production clock: nanoseconds since the clock's construction, measured
/// with [`std::time::Instant`]. This is the only production call site of
/// `Instant::now` in the workspace.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "the one production clock: every other crate reads time through Clock"
    )]
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // Saturates after ~584 years of process uptime.
        self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}

/// Deterministic test clock: a shared atomic counter advanced manually
/// ([`MockClock::advance`]) and/or automatically by a fixed `tick` on every
/// read. With `tick = 0` (the [`MockClock::new`] default) time is frozen
/// until advanced, so spans measure exactly the durations a test scripts —
/// including zero.
#[derive(Debug, Default)]
pub struct MockClock {
    now: AtomicU64,
    tick: u64,
}

impl MockClock {
    /// Frozen clock starting at 0 ns; only [`advance`](Self::advance) moves it.
    pub fn new() -> Self {
        MockClock {
            now: AtomicU64::new(0),
            tick: 0,
        }
    }

    /// Auto-ticking clock: every `now_ns` read returns the current value and
    /// then advances by `tick_ns`, giving successive reads 0, t, 2t, …
    pub fn with_tick(tick_ns: u64) -> Self {
        MockClock {
            now: AtomicU64::new(0),
            tick: tick_ns,
        }
    }

    /// Move time forward by `ns`.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::SeqCst);
    }
}

impl Clock for MockClock {
    fn now_ns(&self) -> u64 {
        self.now.fetch_add(self.tick, Ordering::SeqCst)
    }
}

/// A per-request time budget in the [`Clock`]'s virtual timeline.
///
/// The budget is pure data — `(start_ns, budget_ns)` — so it is `Copy`,
/// crosses pool-task boundaries for free, and never reads a clock itself:
/// callers pass the *current* `now_ns` into every query. Under a frozen
/// [`MockClock`] elapsed time is exactly what the test scripts (including
/// zero), which keeps deadline-aware routing deterministic. `budget_ns =
/// 0` means unlimited — the production default when no deadline was set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineBudget {
    /// Clock reading when the request entered the system.
    pub start_ns: u64,
    /// Nanoseconds the request may spend; `0` = no deadline.
    pub budget_ns: u64,
}

impl DeadlineBudget {
    /// A budget of `budget_ns` starting at clock reading `start_ns`.
    pub fn started_at(start_ns: u64, budget_ns: u64) -> Self {
        DeadlineBudget { start_ns, budget_ns }
    }

    /// No deadline: `expired` is always false.
    pub fn unlimited() -> Self {
        DeadlineBudget {
            start_ns: 0,
            budget_ns: 0,
        }
    }

    /// Nanoseconds spent since `start_ns` at clock reading `now_ns`
    /// (saturating — a clock rewind reads as zero elapsed, never a panic).
    pub fn elapsed_ns(&self, now_ns: u64) -> u64 {
        now_ns.saturating_sub(self.start_ns)
    }

    /// Whether the budget is spent at clock reading `now_ns`.
    pub fn expired(&self, now_ns: u64) -> bool {
        self.budget_ns != 0 && self.elapsed_ns(now_ns) >= self.budget_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let clock = MonotonicClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn mock_clock_is_frozen_until_advanced() {
        let clock = MockClock::new();
        assert_eq!(clock.now_ns(), 0);
        assert_eq!(clock.now_ns(), 0);
        clock.advance(250);
        assert_eq!(clock.now_ns(), 250);
    }

    #[test]
    fn mock_clock_auto_tick_strides_reads() {
        let clock = MockClock::with_tick(10);
        assert_eq!(clock.now_ns(), 0);
        assert_eq!(clock.now_ns(), 10);
        clock.advance(100);
        assert_eq!(clock.now_ns(), 120);
    }

    #[test]
    fn deadline_budget_expires_in_virtual_time() {
        let clock = MockClock::new();
        let budget = DeadlineBudget::started_at(clock.now_ns(), 1_000);
        assert!(!budget.expired(clock.now_ns()));
        clock.advance(400);
        assert_eq!(budget.elapsed_ns(clock.now_ns()), 400);
        clock.advance(600);
        assert!(budget.expired(clock.now_ns()));
    }

    #[test]
    fn unlimited_budget_never_expires() {
        let budget = DeadlineBudget::unlimited();
        assert!(!budget.expired(u64::MAX));
        // A clock reading before start_ns saturates to zero elapsed.
        let late_start = DeadlineBudget::started_at(500, 100);
        assert_eq!(late_start.elapsed_ns(10), 0);
        assert!(!late_start.expired(10));
    }

    #[test]
    fn clocks_are_object_safe() {
        use std::sync::Arc;
        let clocks: Vec<Arc<dyn Clock>> =
            vec![Arc::new(MonotonicClock::new()), Arc::new(MockClock::new())];
        for c in &clocks {
            let _ = c.now_ns();
        }
    }
}
