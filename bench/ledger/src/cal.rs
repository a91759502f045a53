//! Calibrated timing: every timed operation is divided by a benchmark-owned
//! reference kernel sampled beside it, so a timing reads "milliseconds at
//! nominal machine speed" whatever the shared box is doing that minute.
//! README.md has the measurements behind each choice made here.

use std::hint::black_box;
use std::sync::OnceLock;

use wr_obs::{Clock, MonotonicClock};

use crate::stats::median;

/// What one reference sample takes on the nominal machine.
pub const CAL_NOMINAL_MS: f64 = 0.5;

/// A calibration sample is taken between every `GROUP` timed operations ...
const GROUP: usize = 4;
/// ... or sooner, once the operations since the last one add up to this.
const GROUP_MS: f64 = 50.0;
/// An operation is scaled by the median of the samples nearest to it.
const WINDOW: usize = 16;
/// Samples on each side of an operation timed on its own.
const ONCE_SAMPLES: usize = 9;

const N: usize = 96;
const FMA_PASSES: usize = 3;
const CHAIN_STEPS: usize = 50_000;
const STREAM_WORDS: usize = 4 << 20;
const STREAM_SLICE: usize = 80 << 10;

/// The reference kernel: three stretches, sized to take about 0.3, 0.1 and
/// 0.1 ms on the nominal machine. A neighbour on the shared core slows
/// dense vector arithmetic, dependent scalar arithmetic and memory traffic
/// by different factors, and the program's own time is a mix of the three;
/// a kernel of only one kind over- or under-corrects (README.md).
struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    /// Summed a slice at a time, so every slice comes from memory.
    stream: Vec<f32>,
    at: usize,
}

/// `FMA_PASSES` passes of `c += a · b` over `N×N` matrices, i-k-j order.
#[inline(never)]
fn dense_fma(a: &[f32], b: &[f32], c: &mut [f32]) {
    for _ in 0..FMA_PASSES {
        for i in 0..N {
            let c_row = &mut c[i * N..(i + 1) * N];
            for k in 0..N {
                let aik = a[i * N + k];
                let b_row = &b[k * N..(k + 1) * N];
                for (cj, bj) in c_row.iter_mut().zip(b_row) {
                    *cj += aik * bj;
                }
            }
        }
    }
}

/// A chain of multiply-adds in which every step waits for the last.
#[inline(never)]
fn scalar_chain(seed: f64) -> f64 {
    let mut x = seed;
    for k in 0..CHAIN_STEPS {
        x = x * 1.000_000_1 + k as f64 * 1e-12;
    }
    x
}

#[inline(never)]
fn stream_sum(slice: &[f32]) -> f32 {
    slice.iter().sum()
}

impl Reference {
    fn new() -> Self {
        let fill = |n: usize, scale: f32| -> Vec<f32> {
            (0..n).map(|i| ((i * 7 + 3) % 13) as f32 * scale).collect()
        };
        Reference {
            a: fill(N * N, 1e-3),
            b: fill(N * N, 2e-3),
            c: vec![0.0; N * N],
            stream: fill(STREAM_WORDS, 1e-6),
            at: 0,
        }
    }

    fn work(&mut self) {
        self.c.fill(0.0);
        dense_fma(
            black_box(&self.a),
            black_box(&self.b),
            black_box(&mut self.c),
        );
        black_box(scalar_chain(black_box(1.0)));
        let slice = &self.stream[self.at..self.at + STREAM_SLICE];
        black_box(stream_sum(black_box(slice)));
        self.at = (self.at + STREAM_SLICE) % (STREAM_WORDS - STREAM_SLICE);
    }
}

/// The calibration arithmetic: `raw_ms` scaled by how much slower than
/// nominal the reference ran beside the operation.
pub fn calibrate(raw_ms: f64, reference_ms: f64) -> f64 {
    raw_ms * CAL_NOMINAL_MS / reference_ms
}

/// For each of the `samples.len() - 1` gaps between consecutive samples,
/// the median of the `WINDOW` samples nearest to the gap: one sample is
/// noisier than the operations it sits between, the machine's speed holds
/// for seconds.
pub fn smooth(samples: &[f64]) -> Vec<f64> {
    let n = samples.len();
    (0..n.saturating_sub(1))
        .map(|gap| {
            let hi = (gap + 1 + WINDOW / 2).min(n);
            let lo = hi.saturating_sub(WINDOW);
            median(&samples[lo..(lo + WINDOW).min(n)])
        })
        .collect()
}

/// Nanoseconds on the process's one clock. Like the rest of the repo, the
/// benchmark reads time through `wr_obs::Clock` (wr-check's R4).
pub fn now_ns() -> u64 {
    static CLOCK: OnceLock<MonotonicClock> = OnceLock::new();
    CLOCK.get_or_init(MonotonicClock::new).now_ns()
}

/// Milliseconds since a [`now_ns`] reading.
pub fn ms_since(start_ns: u64) -> f64 {
    (now_ns() - start_ns) as f64 / 1e6
}

/// Raw and calibrated milliseconds of a run of timed operations.
#[derive(Debug, Default, Clone)]
pub struct Series {
    pub raw_ms: Vec<f64>,
    pub cal_ms: Vec<f64>,
}

/// Timed operations with a reference sample between every `GROUP` of them
/// (sooner when they are long). When the stream is finished each operation
/// is scaled by the smoothed samples around its group.
pub struct Stream<'c> {
    cal: &'c mut Calibrator,
    samples: Vec<f64>,
    /// `(kind, raw ms, gap between samples the operation ran in)`.
    ops: Vec<(usize, f64, usize)>,
    in_group: usize,
    group_ms: f64,
}

impl Stream<'_> {
    /// Time one operation of `kind` (an index the caller chooses).
    pub fn time<T>(&mut self, kind: usize, op: impl FnOnce() -> T) -> T {
        if self.in_group == GROUP || self.group_ms >= GROUP_MS {
            self.samples.push(self.cal.sample());
            (self.in_group, self.group_ms) = (0, 0.0);
        }
        let t = now_ns();
        let value = op();
        let raw = ms_since(t);
        self.ops.push((kind, raw, self.samples.len() - 1));
        self.in_group += 1;
        self.group_ms += raw;
        value
    }

    /// Close the stream: one [`Series`] per kind below `kinds`.
    pub fn finish(mut self, kinds: usize) -> Vec<Series> {
        self.samples.push(self.cal.sample());
        let reference = smooth(&self.samples);
        let mut out = vec![Series::default(); kinds];
        for (kind, raw, gap) in self.ops {
            out[kind].raw_ms.push(raw);
            out[kind].cal_ms.push(calibrate(raw, reference[gap]));
        }
        out
    }
}

pub struct Calibrator {
    reference: Reference,
    /// Every sample taken, for the `machine_speed` line of the raw block.
    samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut cal = Calibrator {
            reference: Reference::new(),
            samples: Vec::new(),
        };
        // Fault the buffers in and let the clock ramp before any sample counts.
        for _ in 0..20 {
            cal.sample();
        }
        cal.samples.clear();
        cal
    }

    /// One reference sample, in raw milliseconds.
    pub fn sample(&mut self) -> f64 {
        let t = now_ns();
        self.reference.work();
        let ms = ms_since(t);
        self.samples.push(ms);
        ms
    }

    /// Open a stream of timed operations of several kinds.
    pub fn stream(&mut self) -> Stream<'_> {
        let first = self.sample();
        Stream {
            cal: self,
            samples: vec![first],
            ops: Vec::new(),
            in_group: 0,
            group_ms: 0.0,
        }
    }

    /// Time `n` calls of `op`, calibrated as one [`Stream`].
    pub fn series(&mut self, n: usize, mut op: impl FnMut(usize)) -> Series {
        let mut stream = self.stream();
        for i in 0..n {
            stream.time(0, || op(i));
        }
        stream.finish(1).swap_remove(0)
    }

    /// Time one call on its own, `ONCE_SAMPLES` samples on each side.
    /// Returns the value, the raw and the calibrated milliseconds.
    pub fn once<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64, f64) {
        let mut around: Vec<f64> = (0..ONCE_SAMPLES).map(|_| self.sample()).collect();
        let t = now_ns();
        let value = op();
        let raw = ms_since(t);
        around.extend((0..ONCE_SAMPLES).map(|_| self.sample()));
        (value, raw, calibrate(raw, median(&around)))
    }

    /// Nominal sample time over the median sample seen: 1 on the nominal
    /// machine, below 1 while the box is slow.
    pub fn machine_speed(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        CAL_NOMINAL_MS / median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_arithmetic() {
        // A machine running at nominal speed leaves the time as it is.
        assert_eq!(calibrate(10.0, 0.5), 10.0);
        // Twice as slow beside the operation: the operation counts half.
        assert_eq!(calibrate(10.0, 1.0), 5.0);
    }

    #[test]
    fn smoothing_takes_the_median_of_the_nearest_window() {
        // Fewer samples than a window: every gap sees them all.
        assert_eq!(smooth(&[1.0, 9.0, 2.0]), vec![2.0, 2.0]);
        assert!(smooth(&[1.0]).is_empty());
        // A long run: one spike never reaches a gap's median, a level
        // shift does once the window has crossed it.
        let mut samples = vec![1.0; 40];
        samples[10] = 50.0;
        samples[25..].fill(2.0);
        let s = smooth(&samples);
        assert_eq!(s.len(), 39);
        assert!(s[..16].iter().all(|v| *v == 1.0));
        assert_eq!(s[38], 2.0);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn series_calibrates_every_operation_once() {
        let mut cal = Calibrator::new();
        let mut calls = Vec::new();
        let s = cal.series(10, |i| calls.push(i));
        assert_eq!(calls, (0..10).collect::<Vec<_>>());
        assert_eq!((s.raw_ms.len(), s.cal_ms.len()), (10, 10));
        // One sample to open, one after ops 3 and 7, one to close.
        assert_eq!(cal.samples.len(), 4);
        assert!(s.cal_ms.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(cal.machine_speed() > 0.0);
    }

    #[test]
    fn a_stream_keeps_kinds_apart() {
        let mut cal = Calibrator::new();
        let mut stream = cal.stream();
        for i in 0..9 {
            assert_eq!(stream.time(i % 2, || i * 2), i * 2);
        }
        let series = stream.finish(3);
        let counts: Vec<usize> = series.iter().map(|s| s.cal_ms.len()).collect();
        assert_eq!(counts, [5, 4, 0]);
    }

    #[test]
    fn long_operations_close_their_group_early() {
        let mut cal = Calibrator::new();
        let s = cal.series(3, |_| {
            std::thread::sleep(std::time::Duration::from_millis(60))
        });
        assert_eq!(s.raw_ms.len(), 3);
        assert_eq!(cal.samples.len(), 4);
    }

    #[test]
    fn dense_fma_does_the_work() {
        let mut r = Reference::new();
        r.work();
        // c = FMA_PASSES · (a · b); spot-check one cell against a plain dot.
        let (i, j) = (5, 9);
        let dot: f32 = (0..N).map(|k| r.a[i * N + k] * r.b[k * N + j]).sum();
        let got = r.c[i * N + j];
        assert!((got - FMA_PASSES as f32 * dot).abs() <= 1e-3 * got.abs().max(1.0));
        assert_eq!(r.at, STREAM_SLICE);
    }
}
