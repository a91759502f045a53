//! Bounded retry with exponential backoff, sleep-free in tests.
//!
//! The schedule is four constants and one pure function — [`delay_ns`]
//! is a saturating exponential capped at [`CAP_NS`] — and the actual
//! waiting goes through the [`Sleeper`] trait so test harnesses
//! substitute a no-op (or a `MockClock`-advancing adapter) and never
//! block. This mirrors the `wr_obs::Clock` split: production behavior
//! and deterministic tests share one code path.

/// Total tries of a guarded operation (1 would be no retry).
pub const MAX_ATTEMPTS: u32 = 3;
/// Delay before the first retry, nanoseconds.
pub const BASE_NS: u64 = 1_000_000;
/// Multiplier between consecutive delays.
pub const FACTOR: u64 = 4;
/// Upper bound on any single delay, nanoseconds.
pub const CAP_NS: u64 = 50_000_000;

/// Delay to wait *after* failed attempt number `attempt` (0-based):
/// `min(CAP_NS, BASE_NS · FACTOR^attempt)`. 1 ms → 4 ms between the
/// three tries, so a guarded operation waits ~5 ms at worst, far below a
/// micro-batch SLA blowout.
pub fn delay_ns(attempt: u32) -> u64 {
    let mut delay = BASE_NS;
    for _ in 0..attempt {
        delay = delay.saturating_mul(FACTOR);
        if delay >= CAP_NS {
            return CAP_NS;
        }
    }
    delay.min(CAP_NS)
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
        assert_eq!((MAX_ATTEMPTS, BASE_NS, FACTOR, CAP_NS), (3, 1_000_000, 4, 50_000_000));
        assert_eq!(delay_ns(0), 1_000_000);
        assert_eq!(delay_ns(1), 4_000_000);
        assert_eq!(delay_ns(2), 16_000_000);
        assert_eq!(delay_ns(3), 50_000_000); // 64 ms, capped
        assert_eq!(delay_ns(30), 50_000_000); // saturates, never overflows
        assert_eq!(delay_ns(u32::MAX), 50_000_000);
    }

    #[test]
    fn default_policy_is_tightly_bounded() {
        // Every delay a fully exhausted retry loop waits: between tries,
        // never after the last.
        let worst_case_ns: u64 = (0..MAX_ATTEMPTS - 1).map(delay_ns).sum();
        assert_eq!(worst_case_ns, 5_000_000);
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
        rec.sleep_ns(delay_ns(0));
        rec.sleep_ns(delay_ns(1));
        assert_eq!(rec.0.load(Ordering::Relaxed), 5_000_000);
        NoSleep.sleep_ns(u64::MAX); // returns immediately
    }
}
