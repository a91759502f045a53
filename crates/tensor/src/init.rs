//! Random tensor initialization.
//!
//! All randomness in the workspace flows through seeded [`Rng64`] instances
//! so every experiment is reproducible from a single `u64`.

use crate::Tensor;

/// SplitMix64's golden-ratio increment.
const GAMMA: u64 = 0x9E3779B97F4A7C15;

/// SplitMix64 (Steele, Lea & Flood): `splitmix(z + n·γ)` is output `n` of
/// the generator started at `z`. Seeds [`Rng64`] and hashes [`KeepMask`]'s
/// positions; `wr_fault::splitmix` is the same function.
#[inline]
fn splitmix(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A seeded random-number generator used across the workspace.
///
/// Implemented in-tree (xoshiro256++ seeded via SplitMix64 — the standard
/// pairing from Blackman & Vigna) because the build environment is offline
/// and the workspace carries no external crates. Downstream code depends on
/// this one type, so the generator can still be swapped in a single place.
/// A draw depends on how many came before it, so dropout does not draw
/// from it: its keep bits are addressed by position ([`KeepMask`]).
pub struct Rng64 {
    state: [u64; 4],
}

impl Rng64 {
    pub fn seed_from(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the 256-bit state; never
        // produces the all-zero state xoshiro cannot escape.
        let word = |i: u64| splitmix(seed.wrapping_add(i.wrapping_mul(GAMMA)));
        Rng64 {
            state: [word(0), word(1), word(2), word(3)],
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        // Top 24 bits → exactly representable f32 in [0, 1).
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_in(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform()
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f32 {
        let u1: f32 = self.uniform().max(1e-12);
        let u2: f32 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below: empty range");
        // Multiply-shift bounded sampling (Lemire); bias is < 2^-64 * n,
        // negligible for the catalog-sized ranges used here.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f32) -> bool {
        self.uniform() < p
    }

    /// Sample from unnormalized non-negative weights. Panics if all zero.
    pub fn weighted(&mut self, weights: &[f32]) -> usize {
        let total: f32 = weights.iter().sum();
        assert!(total > 0.0, "weighted: all weights are zero");
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Derive an independent child generator (for parallel workloads).
    pub fn fork(&mut self) -> Rng64 {
        Rng64::seed_from(self.next_u64())
    }

    /// Snapshot the raw 256-bit generator state, for checkpointing.
    /// [`Rng64::from_state`] on the snapshot continues the exact stream.
    pub fn state(&self) -> [u64; 4] {
        self.state
    }

    /// Resume a generator from a [`Rng64::state`] snapshot. The all-zero
    /// state is unreachable from any seed (xoshiro cannot escape it), so
    /// it is remapped through the seeding path rather than honored.
    pub fn from_state(state: [u64; 4]) -> Rng64 {
        if state == [0, 0, 0, 0] {
            return Rng64::seed_from(0);
        }
        Rng64 { state }
    }
}

/// One dropout site's keep bits, addressed by position: inverted dropout
/// at probability `p` whose factor at `index` is a pure function of
/// `(key, site, index)` — `1 / keep` where output `index` of the SplitMix64
/// stream started at `splitmix(key ^ site)` has its top 24 bits below
/// `keep · 2²⁴` (the comparison [`Rng64::chance`] makes of the same bits),
/// `0.0` elsewhere.
///
/// A `Session` draws `key` once from the generator it is handed and numbers
/// its dropout nodes as `site`; each node passes the padded coordinate of
/// an element as `index`. So a factor does not depend on which other
/// positions a layout holds, on the order they are visited in, or on the
/// thread that computes them (DESIGN.md §5c "Attention and dropout order").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeepMask {
    /// Where this site's SplitMix64 stream starts.
    stream: u64,
    /// `⌈keep · 2²⁴⌉`: a 24-bit `m` keeps iff `m < below` iff
    /// `m · 2⁻²⁴ < keep`.
    below: u64,
    /// `1 / keep`.
    scale: f32,
}

impl KeepMask {
    pub fn new(key: u64, site: u64, p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability {p} must be in [0, 1)");
        let keep = 1.0 - p;
        KeepMask {
            stream: splitmix(key ^ site),
            below: (keep * (1u32 << 24) as f32).ceil() as u64,
            scale: 1.0 / keep,
        }
    }

    /// The factor of the element at `index`: `1 / keep` or `0.0`.
    #[inline]
    pub fn factor(&self, index: usize) -> f32 {
        let bits = splitmix(self.stream.wrapping_add((index as u64).wrapping_mul(GAMMA)));
        if bits >> 40 < self.below {
            self.scale
        } else {
            0.0
        }
    }
}

/// Weight-initialization schemes for tensors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Initializer {
    /// Every element `N(0, std²)`.
    Normal { std: f32 },
    /// Every element uniform in `[-bound, bound]`.
    Uniform { bound: f32 },
    /// Xavier/Glorot uniform: bound = sqrt(6 / (fan_in + fan_out)).
    XavierUniform,
    /// Zeros (bias default).
    Zeros,
}

impl Initializer {
    /// Materialize a `[rows, cols]` matrix under this scheme.
    pub fn init_matrix(&self, rows: usize, cols: usize, rng: &mut Rng64) -> Tensor {
        let n = rows * cols;
        let data: Vec<f32> = match self {
            Initializer::Normal { std } => (0..n).map(|_| rng.normal() * std).collect(),
            Initializer::Uniform { bound } => {
                (0..n).map(|_| rng.uniform_in(-bound, *bound)).collect()
            }
            Initializer::XavierUniform => {
                let bound = (6.0 / (rows + cols) as f32).sqrt();
                (0..n).map(|_| rng.uniform_in(-bound, bound)).collect()
            }
            Initializer::Zeros => vec![0.0; n],
        };
        Tensor::from_vec(data, &[rows, cols])
    }
}

impl Tensor {
    /// Standard-normal-filled tensor.
    pub fn randn(dims: &[usize], rng: &mut Rng64) -> Tensor {
        let n: usize = dims.iter().product();
        let data = (0..n).map(|_| rng.normal()).collect();
        Tensor::from_vec(data, dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = Rng64::seed_from(7);
        let mut b = Rng64::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn seeding_is_the_splitmix64_stream_of_the_seed() {
        // The expansion as it was written before `splitmix` was factored
        // out: every seeded stream in the workspace starts here.
        for seed in [0u64, 1, 42, u64::MAX] {
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            let want = [next(), next(), next(), next()];
            assert_eq!(Rng64::seed_from(seed).state(), want, "seed {seed}");
        }
    }

    #[test]
    fn state_snapshot_resumes_the_exact_stream() {
        let mut a = Rng64::seed_from(42);
        for _ in 0..17 {
            a.uniform();
        }
        let snap = a.state();
        let mut b = Rng64::from_state(snap);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // All-zero snapshots are remapped, never honored.
        let z = Rng64::from_state([0; 4]);
        assert_ne!(z.state(), [0; 4]);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng64::seed_from(1);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn weighted_respects_weights() {
        let mut rng = Rng64::seed_from(3);
        let mut counts = [0usize; 3];
        for _ in 0..9000 {
            counts[rng.weighted(&[1.0, 2.0, 6.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        assert!((counts[2] as f32 / 9000.0 - 2.0 / 3.0).abs() < 0.05);
    }

    #[test]
    fn xavier_bound() {
        let mut rng = Rng64::seed_from(5);
        let w = Initializer::XavierUniform.init_matrix(100, 50, &mut rng);
        let bound = (6.0f32 / 150.0).sqrt();
        assert!(w.data().iter().all(|x| x.abs() <= bound + 1e-6));
        assert!(w.data().iter().any(|x| x.abs() > bound * 0.5));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng64::seed_from(11);
        let mut xs: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn randn_shape() {
        let mut rng = Rng64::seed_from(2);
        let t = Tensor::randn(&[3, 4, 5], &mut rng);
        assert_eq!(t.dims(), &[3, 4, 5]);
        assert_eq!(t.non_finite_count(), 0);
    }
}
