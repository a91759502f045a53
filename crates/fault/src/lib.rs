//! # wr-fault — deterministic fault injection for the WhitenRec stack.
//!
//! The paper's whole pipeline hinges on one frozen whitened table computed
//! once and reused at serving time, so a torn checkpoint or a silently
//! NaN-poisoned embedding row is the worst failure mode this workspace
//! can have. This crate turns those failures into *deterministic,
//! replayable test inputs* instead of hopes:
//!
//! * [`FaultInjector`] — the hook trait the hardened paths accept
//!   (`wr_nn::save_params_with`, the `wr_data` writers, the
//!   `wr_serve::ServeEngine` scoring loop). [`NoFaults`] is the free
//!   production default.
//! * [`FaultPlan`] — a seeded schedule (xoshiro-style SplitMix64 mixing,
//!   `WR_FAULT_SEED`) that injects I/O errors, byte truncations, single
//!   bit-flips, NaN poisoning, and induced batch panics. Every decision is
//!   a **pure function of `(seed, site, index)`** — never of wall-clock
//!   time, thread interleaving, or call order — so the same seed replays
//!   the same faults regardless of batch composition or `WR_THREADS`.
//! * [`atomic_io`] — crash-safe persistence: `write_atomic` (write temp →
//!   fsync → rename → fsync dir) and the workspace's one [`crc32`]
//!   implementation, used by the checkpoint/dataset integrity footers.
//! * [`sealed`] — the binary envelope (`magic | version | body | crc32 |
//!   reversed magic`) the `WRCK`, `WRTS` and `WRIV` files share: one
//!   `seal`, one `open`, one fallible reader, one generation fallback.
//! * [`backoff`] — [`RetryPolicy`] (bounded exponential backoff) and the
//!   [`Sleeper`] trait so tests drive retries without ever sleeping.
//!
//! **Layering.** Zero dependencies; sits at the very bottom of the
//! workspace next to `wr-obs` so every persistence and serving crate can
//! accept an injector without cycles. The crate never reads the clock
//! (clippy's `disallowed_methods`) and its only panics are the *deliberate* ones scheduled
//! by a plan ([`FaultPlan::maybe_panic`]), which callers contain with
//! `catch_unwind` at micro-batch boundaries.

pub mod atomic_io;
pub mod backoff;
pub mod faultlog;
mod plan;
pub mod sealed;

pub use atomic_io::{
    crc32, seal_lines, verify_lines, write_atomic, write_atomic_with, CRC_LINE_PREFIX,
};
pub use backoff::{NoSleep, RetryPolicy, Sleeper, ThreadSleeper};
pub use faultlog::{
    counts_by_kind, parse_fault_log, render_fault_log, save_fault_log, FaultLog, FAULTLOG_FORMAT,
};
pub use plan::{
    splitmix, Corruption, FaultKind, FaultPlan, FaultRates, FaultRecord, InducedPanic,
    WR_FAULT_SEED_ENV,
};

use std::sync::Arc;

/// Injection hooks the hardened paths consult. All methods are no-ops in
/// production ([`NoFaults`]); [`FaultPlan`] implements them from a seeded
/// schedule. Implementations must be deterministic in `(site, index)` —
/// the recovery tests replay schedules and assert identical outcomes.
pub trait FaultInjector: Send + Sync {
    /// An I/O error to surface *instead of* performing the write at
    /// `site`/`index`, or `None` to proceed.
    fn write_error(&self, site: &str, index: u64) -> Option<std::io::Error>;

    /// Corrupt an outgoing byte buffer in place (truncation or a single
    /// bit-flip). Returns what was done, `None` when the bytes were left
    /// intact.
    fn corrupt(&self, site: &str, index: u64, bytes: &mut Vec<u8>) -> Option<Corruption>;

    /// NaN-poison an `f32` buffer in place; returns how many values were
    /// poisoned (0 = untouched).
    fn poison(&self, site: &str, index: u64, data: &mut [f32]) -> usize;

    /// Deliberately panics (with an [`InducedPanic`] payload) when the
    /// schedule has a panic for `(site, index)` that is still live at this
    /// retry `attempt`. Callers contain it with `std::panic::catch_unwind`.
    fn maybe_panic(&self, site: &str, index: u64, attempt: u32);
}

/// The production injector: injects nothing, costs nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn write_error(&self, _site: &str, _index: u64) -> Option<std::io::Error> {
        None
    }

    fn corrupt(&self, _site: &str, _index: u64, _bytes: &mut Vec<u8>) -> Option<Corruption> {
        None
    }

    fn poison(&self, _site: &str, _index: u64, _data: &mut [f32]) -> usize {
        0
    }

    fn maybe_panic(&self, _site: &str, _index: u64, _attempt: u32) {}
}

/// An injector that *permanently* panics one site from a chosen index on
/// — the "replica process died" failure mode, as opposed to
/// [`FaultPlan`]'s probabilistic mix of transient and permanent faults.
///
/// `maybe_panic(site, index, _)` panics (with an [`InducedPanic`]
/// payload) for every `index >= from_index` at the armed site, on *every*
/// attempt: retry can never recover, which is exactly what a health
/// breaker must learn to route around. All other hooks are no-ops — a
/// dead replica never poisons scores, it just stops answering — so a
/// gateway that fails over to a healthy replica keeps its answers
/// bit-identical to a fully healthy run.
#[derive(Debug, Clone)]
pub struct KillAfter {
    site: String,
    from_index: u64,
}

impl KillAfter {
    /// Kill every `site` call with `index >= from_index`.
    pub fn new(site: impl Into<String>, from_index: u64) -> Self {
        KillAfter {
            site: site.into(),
            from_index,
        }
    }

    /// Kill every `serve.row` call — a replica that is dead from the
    /// first request it sees.
    pub fn serve_rows() -> Self {
        KillAfter::new("serve.row", 0)
    }

    /// Whether this injector panics for `(site, index)` (pure query, any
    /// attempt — the kill is permanent).
    pub fn would_panic(&self, site: &str, index: u64) -> bool {
        site == self.site && index >= self.from_index
    }
}

impl FaultInjector for KillAfter {
    fn write_error(&self, _site: &str, _index: u64) -> Option<std::io::Error> {
        None
    }

    fn corrupt(&self, _site: &str, _index: u64, _bytes: &mut Vec<u8>) -> Option<Corruption> {
        None
    }

    fn poison(&self, _site: &str, _index: u64, _data: &mut [f32]) -> usize {
        0
    }

    fn maybe_panic(&self, site: &str, index: u64, attempt: u32) {
        if self.would_panic(site, index) {
            std::panic::panic_any(InducedPanic {
                site: site.to_string(),
                index,
                attempt,
            });
        }
    }
}

/// Shared injector handle, the form the hardened constructors take.
pub type SharedInjector = Arc<dyn FaultInjector>;

/// A [`NoFaults`] behind an `Arc`, for default fields.
pub fn no_faults() -> SharedInjector {
    Arc::new(NoFaults)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_after_is_permanent_and_site_scoped() {
        let kill = KillAfter::new("serve.row", 10);
        // Below the threshold and at other sites: inert.
        kill.maybe_panic("serve.row", 9, 0);
        kill.maybe_panic("serve.score", 10, 0);
        assert!(!kill.would_panic("serve.row", 9));
        assert!(kill.would_panic("serve.row", 10));
        // At and past the threshold: panics on every attempt (permanent).
        for attempt in [0u32, 1, 5, u32::MAX] {
            let err = std::panic::catch_unwind(|| kill.maybe_panic("serve.row", 10, attempt))
                .expect_err("kill zone must panic");
            let payload = err.downcast::<InducedPanic>().expect("typed payload");
            assert_eq!(payload.site, "serve.row");
            assert_eq!(payload.index, 10);
        }
        // Non-panic hooks never fire: a dead replica can't poison data.
        assert!(kill.write_error("serve.row", 10).is_none());
        let mut bytes = vec![1u8];
        assert!(kill.corrupt("serve.row", 10, &mut bytes).is_none());
        let mut data = vec![1.0f32];
        assert_eq!(kill.poison("serve.row", 10, &mut data), 0);
        assert!(KillAfter::serve_rows().would_panic("serve.row", 0));
    }

    #[test]
    fn no_faults_is_inert() {
        let inj = NoFaults;
        assert!(inj.write_error("x", 0).is_none());
        let mut bytes = vec![1u8, 2, 3];
        assert!(inj.corrupt("x", 0, &mut bytes).is_none());
        assert_eq!(bytes, vec![1, 2, 3]);
        let mut data = vec![1.0f32, 2.0];
        assert_eq!(inj.poison("x", 0, &mut data), 0);
        assert!(data.iter().all(|v| v.is_finite()));
        inj.maybe_panic("x", 0, 0); // must not panic
    }
}
