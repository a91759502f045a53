//! The dropout keep bit (`KeepMask`) as a random source: its keep frequency
//! and its independence across neighbouring indices, sites and session
//! keys, and a factor that depends on its index alone — not on the order
//! or the thread it is computed in.

use wr_tensor::{KeepMask, Rng64};

/// ≥ 10⁶ indices per statistic.
const N: usize = 1 << 20;

/// Bounds are five standard deviations of the statistic under independent
/// fair draws: the frequency of a Bernoulli(`keep`) mean over `N` draws has
/// σ = √(keep·(1 − keep) / N), and the sample correlation of two
/// independent sequences σ ≈ 1 / √N (0.0049 at `N` = 2²⁰).
const SIGMAS: f64 = 5.0;

fn kept(mask: &KeepMask, index: usize) -> f64 {
    if mask.factor(index) != 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Pearson correlation of two equally long 0/1 sequences.
fn correlation(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let cov = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum::<f64>() / n;
    let vx = x.iter().map(|a| (a - mx) * (a - mx)).sum::<f64>() / n;
    let vy = y.iter().map(|b| (b - my) * (b - my)).sum::<f64>() / n;
    cov / (vx * vy).sqrt()
}

/// The keys of consecutive train steps, drawn as a model's step draws them:
/// `Session::train(&g, rng.fork())` takes the fork's next output.
fn session_keys(seed: u64, steps: usize) -> Vec<u64> {
    let mut rng = Rng64::seed_from(seed);
    (0..steps).map(|_| rng.fork().next_u64()).collect()
}

#[test]
fn keep_frequency_is_within_the_binomial_bound() {
    let key = session_keys(17, 1)[0];
    for p in [0.1f32, 0.2, 0.5] {
        let mask = KeepMask::new(key, 3, p);
        let keep = 1.0 - f64::from(p);
        let freq = (0..N).map(|i| kept(&mask, i)).sum::<f64>() / N as f64;
        let bound = SIGMAS * (keep * (1.0 - keep) / N as f64).sqrt();
        assert!(
            (freq - keep).abs() <= bound,
            "p {p}: kept {freq}, expected {keep} ± {bound}"
        );
        // Every kept factor is the inverted-dropout scale.
        assert!((0..1000).all(|i| [0.0, 1.0 / (1.0 - p)].contains(&mask.factor(i))));
    }
}

#[test]
fn adjacent_indices_sites_and_keys_are_uncorrelated() {
    let bound = SIGMAS / (N as f64).sqrt();
    let keys = session_keys(17, 2);
    for p in [0.1f32, 0.2, 0.5] {
        let bits = |key: u64, site: u64| -> Vec<f64> {
            let mask = KeepMask::new(key, site, p);
            (0..=N).map(|i| kept(&mask, i)).collect()
        };
        let base = bits(keys[0], 0);
        let cases = [
            ("adjacent indices", base[..N].to_vec(), base[1..].to_vec()),
            ("adjacent sites", base[..N].to_vec(), bits(keys[0], 1)[..N].to_vec()),
            ("consecutive session keys", base[..N].to_vec(), bits(keys[1], 0)[..N].to_vec()),
            ("keys one apart", bits(41, 0)[..N].to_vec(), bits(42, 0)[..N].to_vec()),
        ];
        for (what, x, y) in cases {
            let r = correlation(&x, &y);
            assert!(r.abs() < bound, "p {p}, {what}: correlation {r}, bound {bound}");
        }
    }
}

#[test]
fn a_factor_depends_on_its_index_not_on_the_order_or_thread() {
    let mask = KeepMask::new(session_keys(611, 1)[0], 2, 0.2);
    let n = 100_003;
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    let forward: Vec<f32> = (0..n).map(|i| mask.factor(i)).collect();

    let mut reversed = vec![f32::NAN; n];
    for i in (0..n).rev() {
        reversed[i] = mask.factor(i);
    }
    assert_eq!(bits(&reversed), bits(&forward), "reversed");

    let prev = wr_runtime::threads();
    for threads in [1, 8] {
        wr_runtime::set_threads(threads);
        let mut chunked = vec![f32::NAN; n];
        wr_runtime::parallel_chunks_mut(&mut chunked, 997, |c, chunk| {
            for (o, f) in chunk.iter_mut().enumerate() {
                *f = mask.factor(c * 997 + o);
            }
        });
        assert_eq!(bits(&chunked), bits(&forward), "chunked at {threads} threads");
    }
    wr_runtime::set_threads(prev);
}
