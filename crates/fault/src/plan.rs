//! The seeded fault schedule.
//!
//! Every decision is derived by hashing `(seed, site, index)` through
//! SplitMix64 — the same finalizer `wr_tensor::Rng64` uses for seeding —
//! so a plan is a pure function: no interior RNG stream to race on, no
//! dependence on call order or thread count. Calling the same hook twice
//! with the same arguments gives the same answer, which is what makes
//! kill-and-replay tests meaningful.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::FaultInjector;

/// Environment variable that arms fault injection in the binaries
/// (`0`/unset = disabled).
pub const WR_FAULT_SEED_ENV: &str = "WR_FAULT_SEED";

/// What [`FaultInjector::corrupt`] did to a byte buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Buffer truncated to `keep` bytes.
    Truncated { keep: usize },
    /// One bit flipped at `byte`, bit position `bit`.
    BitFlip { byte: usize, bit: u8 },
}

/// Payload of a scheduled panic, so containment sites can tell induced
/// panics from genuine ones when reporting.
#[derive(Debug, Clone)]
pub struct InducedPanic {
    pub site: String,
    pub index: u64,
    pub attempt: u32,
}

/// Fault categories, for per-kind counters and replay logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    IoError,
    Truncation,
    BitFlip,
    NanPoison,
    Panic,
}

impl FaultKind {
    /// Every fault kind, in `slot` order — the canonical taxonomy for
    /// chaos summaries and flight-recorder event labeling. Iterate this
    /// instead of hand-listing the variants so a new kind can never be
    /// silently dropped from a report.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::IoError,
        FaultKind::Truncation,
        FaultKind::BitFlip,
        FaultKind::NanPoison,
        FaultKind::Panic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FaultKind::IoError => "io_error",
            FaultKind::Truncation => "truncation",
            FaultKind::BitFlip => "bit_flip",
            FaultKind::NanPoison => "nan_poison",
            FaultKind::Panic => "panic",
        }
    }

    fn slot(self) -> usize {
        match self {
            FaultKind::IoError => 0,
            FaultKind::Truncation => 1,
            FaultKind::BitFlip => 2,
            FaultKind::NanPoison => 3,
            FaultKind::Panic => 4,
        }
    }
}

/// One injected fault, recorded for replay-determinism assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    pub kind: FaultKind,
    pub site: String,
    pub index: u64,
}

/// Per-hook injection probabilities (compared with `<`, never float
/// equality). Rates are per *call*, i.e. per write for I/O hooks and per
/// row for poison/panic hooks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    pub io_error: f64,
    pub corrupt: f64,
    pub poison: f64,
    pub panic: f64,
}

impl Default for FaultRates {
    fn default() -> Self {
        // Tuned so a few-hundred-query chaos replay reliably exercises
        // every recovery path without drowning it.
        FaultRates {
            io_error: 0.05,
            corrupt: 0.10,
            poison: 0.02,
            panic: 0.02,
        }
    }
}

// Distinct salts keep the per-hook hash streams independent: whether a
// row is poisoned says nothing about whether it panics.
const SALT_IO: u64 = 0x1001;
const SALT_CORRUPT: u64 = 0x2002;
const SALT_CORRUPT_SHAPE: u64 = 0x2003;
const SALT_POISON: u64 = 0x3003;
const SALT_POISON_SHAPE: u64 = 0x3004;
const SALT_PANIC: u64 = 0x4004;
const SALT_PANIC_SHAPE: u64 = 0x4005;

/// SplitMix64 finalizer — the serving side's bit mixer: fault schedules
/// and `wr_obs::TraceContext` ids both hash with it. The kernel crates
/// hash with the same function in `wr_tensor` (`Rng64` seeding, dropout
/// keep bits), which sits below this crate.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// FNV-1a over the site name, so distinct sites get distinct streams.
fn fnv(site: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in site.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// A seeded, replayable fault schedule. Cheap to share behind an `Arc`;
/// the counters and the record log use interior mutability so the hooks
/// take `&self` like every other injector.
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
    by_kind: [AtomicU64; 5],
    log: Mutex<Vec<FaultRecord>>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan::with_rates(seed, FaultRates::default())
    }

    pub fn with_rates(seed: u64, rates: FaultRates) -> Self {
        FaultPlan {
            seed,
            rates,
            by_kind: Default::default(),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Read `WR_FAULT_SEED`: unset or `0` → `None` (faults disabled). A
    /// set value that is not a `u64` is an error naming the variable and
    /// the value — a typo must not silently run a chaos drill without
    /// faults.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        let Some(raw) = std::env::var_os(WR_FAULT_SEED_ENV) else {
            return Ok(None);
        };
        let raw = raw.to_string_lossy();
        match raw.trim().parse::<u64>() {
            Ok(0) => Ok(None),
            Ok(seed) => Ok(Some(FaultPlan::new(seed))),
            Err(_) => Err(format!("{WR_FAULT_SEED_ENV}={raw:?} is not a u64 seed")),
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Hash stream for `(site, index)` under a per-hook salt.
    fn mix(&self, site: &str, index: u64, salt: u64) -> u64 {
        splitmix(
            self.seed
                ^ fnv(site)
                ^ index.wrapping_mul(0x9E3779B97F4A7C15)
                ^ salt.wrapping_mul(0xD1B54A32D192ED03),
        )
    }

    /// Bernoulli draw from the top 53 bits of `h`.
    fn hit(rate: f64, h: u64) -> bool {
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
    }

    fn record(&self, kind: FaultKind, site: &str, index: u64) {
        // `slot() < by_kind.len()` by construction; checked to keep the
        // injector itself panic-free on the serving path.
        if let Some(c) = self.by_kind.get(kind.slot()) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        if let Ok(mut log) = self.log.lock() {
            log.push(FaultRecord {
                kind,
                site: site.to_string(),
                index,
            });
        }
    }

    /// Total faults injected so far (all kinds).
    pub fn injected_total(&self) -> u64 {
        self.by_kind
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Faults injected of one kind.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.by_kind.get(kind.slot()).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Snapshot of every fault injected so far, in injection order. Two
    /// replays of the same schedule over the same workload produce equal
    /// logs — the replay-determinism assertion.
    pub fn records(&self) -> Vec<FaultRecord> {
        self.log.lock().map(|l| l.clone()).unwrap_or_default()
    }

    /// Whether the schedule poisons row `index` at `site` (query without
    /// side effects — used by tests to predict quarantine sets).
    pub fn would_poison(&self, site: &str, index: u64) -> bool {
        FaultPlan::hit(self.rates.poison, self.mix(site, index, SALT_POISON))
    }

    /// Whether the schedule panics for `(site, index)` at `attempt`
    /// (query without side effects).
    pub fn would_panic(&self, site: &str, index: u64, attempt: u32) -> bool {
        if !FaultPlan::hit(self.rates.panic, self.mix(site, index, SALT_PANIC)) {
            return false;
        }
        let shape = self.mix(site, index, SALT_PANIC_SHAPE);
        // 1 in 4 scheduled panics are permanent (fail every attempt); the
        // rest are transient and clear after 1–3 failures, so bounded
        // retry genuinely recovers them.
        let permanent = shape & 3 == 0;
        let fail_count = 1 + ((shape >> 2) % 3) as u32;
        permanent || attempt < fail_count
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("rates", &self.rates)
            .field("injected_total", &self.injected_total())
            .finish()
    }
}

impl FaultInjector for FaultPlan {
    fn write_error(&self, site: &str, index: u64) -> Option<std::io::Error> {
        if FaultPlan::hit(self.rates.io_error, self.mix(site, index, SALT_IO)) {
            self.record(FaultKind::IoError, site, index);
            Some(std::io::Error::new(
                std::io::ErrorKind::Other,
                format!("injected I/O error at {site}[{index}] (seed {})", self.seed),
            ))
        } else {
            None
        }
    }

    fn corrupt(&self, site: &str, index: u64, bytes: &mut Vec<u8>) -> Option<Corruption> {
        if bytes.is_empty()
            || !FaultPlan::hit(self.rates.corrupt, self.mix(site, index, SALT_CORRUPT))
        {
            return None;
        }
        let shape = self.mix(site, index, SALT_CORRUPT_SHAPE);
        if shape & 1 == 0 {
            let keep = (shape >> 1) as usize % bytes.len();
            bytes.truncate(keep);
            self.record(FaultKind::Truncation, site, index);
            Some(Corruption::Truncated { keep })
        } else {
            let byte = (shape >> 1) as usize % bytes.len();
            let bit = ((shape >> 40) % 8) as u8;
            if let Some(b) = bytes.get_mut(byte) {
                *b ^= 1 << bit;
            }
            self.record(FaultKind::BitFlip, site, index);
            Some(Corruption::BitFlip { byte, bit })
        }
    }

    fn poison(&self, site: &str, index: u64, data: &mut [f32]) -> usize {
        if data.is_empty() || !self.would_poison(site, index) {
            return 0;
        }
        let shape = self.mix(site, index, SALT_POISON_SHAPE);
        // Poison 1–3 positions of the row with NaN.
        let n = 1 + (shape % 3) as usize;
        let mut poisoned = 0usize;
        for i in 0..n {
            let pos = splitmix(shape ^ (i as u64)) as usize % data.len();
            if let Some(cell) = data.get_mut(pos) {
                *cell = f32::NAN;
                poisoned += 1;
            }
        }
        self.record(FaultKind::NanPoison, site, index);
        poisoned
    }

    fn maybe_panic(&self, site: &str, index: u64, attempt: u32) {
        if self.would_panic(site, index, attempt) {
            self.record(FaultKind::Panic, site, index);
            #[expect(clippy::panic, reason = "the drill: an induced panic is the fault injected")]
            std::panic::panic_any(InducedPanic {
                site: site.to_string(),
                index,
                attempt,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_taxonomy_is_complete_and_slot_ordered() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.slot(), i, "ALL must be in slot order");
            assert!(seen.insert(kind.name()), "duplicate name {}", kind.name());
        }
        assert_eq!(seen.len(), FaultKind::ALL.len());
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_site_index() {
        let a = FaultPlan::new(42);
        let b = FaultPlan::new(42);
        for i in 0..500u64 {
            assert_eq!(a.would_poison("s", i), b.would_poison("s", i));
            assert_eq!(a.would_panic("s", i, 0), b.would_panic("s", i, 0));
            let mut ba = vec![0u8; 64];
            let mut bb = vec![0u8; 64];
            assert_eq!(a.corrupt("w", i, &mut ba), b.corrupt("w", i, &mut bb));
            assert_eq!(ba, bb);
        }
        assert_eq!(a.records(), b.records());
        assert_eq!(a.injected_total(), b.injected_total());
    }

    #[test]
    fn different_seeds_differ_and_sites_are_independent() {
        let a = FaultPlan::new(1);
        let b = FaultPlan::new(2);
        let pattern_a: Vec<bool> = (0..2000).map(|i| a.would_poison("s", i)).collect();
        let pattern_b: Vec<bool> = (0..2000).map(|i| b.would_poison("s", i)).collect();
        assert_ne!(pattern_a, pattern_b);
        // Distinct sites draw from distinct streams.
        let other: Vec<bool> = (0..2000).map(|i| a.would_poison("t", i)).collect();
        assert_ne!(pattern_a, other);
    }

    #[test]
    fn rates_bound_the_empirical_frequency() {
        let plan = FaultPlan::with_rates(
            7,
            FaultRates {
                io_error: 0.5,
                corrupt: 0.0,
                poison: 0.1,
                panic: 1.0,
            },
        );
        let n = 10_000u64;
        let io_hits = (0..n).filter(|&i| plan.write_error("w", i).is_some()).count();
        assert!((3_500..6_500).contains(&io_hits), "{io_hits}");
        let poison_hits = (0..n).filter(|&i| plan.would_poison("p", i)).count();
        assert!((500..2_000).contains(&poison_hits), "{poison_hits}");
        // rate 1.0 → every index panics at attempt 0.
        assert!((0..100).all(|i| plan.would_panic("b", i, 0)));
        // corrupt rate 0 → bytes always intact.
        let mut bytes = vec![9u8; 16];
        assert!(plan.corrupt("c", 3, &mut bytes).is_none());
        assert_eq!(bytes, vec![9u8; 16]);
    }

    #[test]
    fn transient_panics_clear_within_bounded_attempts() {
        let plan = FaultPlan::with_rates(
            11,
            FaultRates {
                panic: 1.0,
                ..FaultRates::default()
            },
        );
        let mut saw_transient = false;
        let mut saw_permanent = false;
        for i in 0..200u64 {
            // fail_count ≤ 3, so attempt 4 only panics for permanent faults.
            let late = plan.would_panic("b", i, 4);
            if late {
                saw_permanent = true;
                assert!(plan.would_panic("b", i, 100), "permanent must stay down");
            } else {
                saw_transient = true;
                assert!(plan.would_panic("b", i, 0), "rate 1.0 fires at attempt 0");
            }
        }
        assert!(saw_transient && saw_permanent);
    }

    #[test]
    fn maybe_panic_carries_a_typed_payload() {
        let plan = FaultPlan::with_rates(
            3,
            FaultRates {
                panic: 1.0,
                ..FaultRates::default()
            },
        );
        let err = std::panic::catch_unwind(|| plan.maybe_panic("serve.row", 9, 0))
            .expect_err("rate 1.0 must panic");
        let payload = err.downcast::<InducedPanic>().expect("typed payload");
        assert_eq!(payload.site, "serve.row");
        assert_eq!(payload.index, 9);
        assert_eq!(plan.injected(FaultKind::Panic), 1);
    }

    #[test]
    fn poison_writes_nan_and_counts() {
        let plan = FaultPlan::with_rates(
            5,
            FaultRates {
                poison: 1.0,
                ..FaultRates::default()
            },
        );
        let mut row = vec![1.0f32; 32];
        let n = plan.poison("cache.load", 0, &mut row);
        assert!(n >= 1);
        assert_eq!(row.iter().filter(|v| v.is_nan()).count(), n);
        assert_eq!(plan.injected(FaultKind::NanPoison), 1);
        assert_eq!(plan.records().len(), 1);
    }

    #[test]
    fn from_env_respects_zero_and_absent_and_refuses_garbage() {
        // This test mutates the process environment; the variable is
        // cleared again before returning so parallel tests in this crate
        // (none of which read it) stay unaffected.
        std::env::remove_var(WR_FAULT_SEED_ENV);
        assert!(FaultPlan::from_env().unwrap().is_none());
        std::env::set_var(WR_FAULT_SEED_ENV, "0");
        assert!(FaultPlan::from_env().unwrap().is_none());
        std::env::set_var(WR_FAULT_SEED_ENV, "1234");
        let plan = FaultPlan::from_env().unwrap().expect("armed");
        assert_eq!(plan.seed(), 1234);
        // A typo is an error naming the variable and the value, not a
        // drill that silently arms nothing.
        std::env::set_var(WR_FAULT_SEED_ENV, "2024O613");
        let err = FaultPlan::from_env().err().expect("unparsable seed");
        assert!(
            err.contains(WR_FAULT_SEED_ENV) && err.contains("\"2024O613\""),
            "{err}"
        );
        std::env::remove_var(WR_FAULT_SEED_ENV);
    }
}
