//! Bounded retry with exponential backoff, sleep-free in tests.
//!
//! [`RetryPolicy`] is pure math — `delay_ns(attempt)` is a saturating
//! exponential capped at `cap_ns` — and the actual waiting goes through
//! the [`Sleeper`] trait so test harnesses substitute a no-op (or a
//! `MockClock`-advancing adapter) and never block. This mirrors the
//! `wr_obs::Clock` split: production behavior and deterministic tests
//! share one code path.

/// Bounded exponential backoff: attempt `a` waits
/// `min(cap_ns, base_ns · factor^a)`, for at most `max_attempts` tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries of the guarded operation (1 = no retry).
    pub max_attempts: u32,
    /// Delay before the first retry, nanoseconds.
    pub base_ns: u64,
    /// Multiplier between consecutive delays.
    pub factor: u32,
    /// Upper bound on any single delay, nanoseconds.
    pub cap_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // 1 ms → 4 ms → 16 ms, three tries: bounded at ~21 ms worst case
        // per guarded operation, far below a micro-batch SLA blowout.
        RetryPolicy {
            max_attempts: 3,
            base_ns: 1_000_000,
            factor: 4,
            cap_ns: 50_000_000,
        }
    }
}

impl RetryPolicy {
    /// Delay to wait *after* failed attempt number `attempt` (0-based).
    pub fn delay_ns(&self, attempt: u32) -> u64 {
        let mut delay = self.base_ns;
        for _ in 0..attempt {
            delay = delay.saturating_mul(self.factor as u64);
            if delay >= self.cap_ns {
                return self.cap_ns;
            }
        }
        delay.min(self.cap_ns)
    }
}

/// How a retry loop waits between attempts.
pub trait Sleeper: Send + Sync {
    fn sleep_ns(&self, ns: u64);
}

/// Production sleeper: parks the calling thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct ThreadSleeper;

impl Sleeper for ThreadSleeper {
    fn sleep_ns(&self, ns: u64) {
        if ns > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        }
    }
}

/// Test sleeper: returns immediately. Pair with `wr_obs::MockClock` when
/// a test wants to *observe* the waits instead of serving them.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoSleep;

impl Sleeper for NoSleep {
    fn sleep_ns(&self, _ns: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn delays_grow_exponentially_to_the_cap() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_ns: 1_000,
            factor: 10,
            cap_ns: 500_000,
        };
        assert_eq!(p.delay_ns(0), 1_000);
        assert_eq!(p.delay_ns(1), 10_000);
        assert_eq!(p.delay_ns(2), 100_000);
        assert_eq!(p.delay_ns(3), 500_000); // capped
        assert_eq!(p.delay_ns(30), 500_000); // saturates, never overflows
    }

    #[test]
    fn default_policy_is_tightly_bounded() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 3);
        // Every delay a fully exhausted retry loop would wait.
        let worst_case_ns: u64 = (0..p.max_attempts - 1).map(|a| p.delay_ns(a)).sum();
        assert!(worst_case_ns < 100_000_000, "must stay under 100 ms");
    }

    #[test]
    fn sleepers_are_injectable() {
        struct Recorder(AtomicU64);
        impl Sleeper for Recorder {
            fn sleep_ns(&self, ns: u64) {
                self.0.fetch_add(ns, Ordering::Relaxed);
            }
        }
        let rec = Recorder(AtomicU64::new(0));
        let p = RetryPolicy::default();
        rec.sleep_ns(p.delay_ns(0));
        rec.sleep_ns(p.delay_ns(1));
        assert_eq!(rec.0.load(Ordering::Relaxed), 5_000_000);
        NoSleep.sleep_ns(u64::MAX); // returns immediately
    }
}
