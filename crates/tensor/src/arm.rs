//! The one decision of which vector arm a kernel runs.
//!
//! Every kernel family with per-instruction-set arms — the gemm, the
//! softmax, causal attention, the Jacobi solver (`wr-linalg`) and pass 1
//! of the top-k (`wr-eval`) — compiles one body several times and picks an
//! instantiation per call. The pick is made here, once: an [`Arm`] is a
//! token stating "the running CPU runs [`Level`] L", and the only way to
//! build one is this module's detection. A safe function handed a token
//! whose level is `Avx512` may therefore enter an AVX-512 arm; that is the
//! `// SAFETY:` argument of every arm call in the workspace.
//!
//! Each family has one arm-selecting function that takes the token and
//! `match`es on [`Arm::level`]. Production passes [`Arm::detected`]; the
//! arm tests pass every one of [`Arm::available`], so they run the very
//! code the dispatch runs, and no arm the dispatch cannot reach. Every arm
//! computes the same bits, so the choice is never a setting.

use std::sync::OnceLock;

/// An instruction-set level that kernel arms are compiled for, narrowest
/// first. A CPU that runs a level runs every narrower one too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The build's own target features: SSE2 on x86-64, and the only level
    /// on every other architecture.
    Baseline,
    /// AVX2: 8 `f32` lanes, 16 registers.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
    /// AVX-512F on top of AVX2: 16 `f32` lanes, 32 registers.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx512,
}

/// Proof that the running CPU runs a [`Level`]. Only detection builds one
/// ([`Arm::detected`], [`Arm::available`]), so holding it is the check.
#[derive(Debug, Clone, Copy)]
pub struct Arm(Level);

impl Arm {
    /// The widest level the running CPU runs: what every kernel dispatch
    /// takes. Detected on the first call; later calls are one load.
    #[inline]
    pub fn detected() -> Arm {
        static WIDEST: OnceLock<Arm> = OnceLock::new();
        *WIDEST.get_or_init(|| Arm::available().last().unwrap_or(Arm(Level::Baseline)))
    }

    /// Every level the running CPU runs, baseline first, each wider than
    /// the one before.
    #[inline]
    pub fn available() -> impl Iterator<Item = Arm> {
        std::iter::successors(Some(Level::Baseline), |&level| wider(level)).map(Arm)
    }

    /// The level this token proves, for a kernel to `match` on.
    #[inline]
    pub fn level(self) -> Level {
        self.0
    }
}

/// The level above `level`, when the running CPU runs it: the workspace's
/// only feature detection.
#[inline]
fn wider(level: Level) -> Option<Level> {
    match level {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Level::Baseline => std::arch::is_x86_feature_detected!("avx2").then_some(Level::Avx2),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Level::Avx2 => std::arch::is_x86_feature_detected!("avx512f").then_some(Level::Avx512),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_starts_at_the_baseline_and_widens_to_the_detected_level() {
        let levels: Vec<Level> = Arm::available().map(Arm::level).collect();
        assert_eq!(levels.first(), Some(&Level::Baseline));
        assert!(levels.windows(2).all(|w| w[0] < w[1]), "{levels:?}");
        assert_eq!(levels.last(), Some(&Arm::detected().level()));
    }

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[test]
    fn each_level_appears_exactly_when_std_detects_its_feature() {
        let levels: Vec<Level> = Arm::available().map(Arm::level).collect();
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        let avx512 = avx2 && std::arch::is_x86_feature_detected!("avx512f");
        assert_eq!(levels.contains(&Level::Avx2), avx2, "{levels:?}");
        assert_eq!(levels.contains(&Level::Avx512), avx512, "{levels:?}");
    }
}
