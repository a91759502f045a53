//! One vector register of `f32` lanes and the lane-wise operations the
//! attention block kernel is made of (`attention.rs`), for AVX-512F's
//! `__m512` (16 lanes) and AVX2's `__m256` (8).
//!
//! Every operation is one IEEE-754 instruction per lane — an add, a
//! subtract, a multiply or a divide rounded on its own (never fused), a
//! comparison, a blend, or integer arithmetic on the bits — so a lane
//! computes exactly what the same scalar expression computes on its
//! element. [`exp`] is [`crate::exp_scalar`]'s sequence written over them.
//!
//! # Safety
//!
//! Every method requires the CPU feature of its register type: AVX-512F
//! for `__m512`, AVX2 for `__m256`. The kernel calls them only from inside
//! a `#[target_feature]` arm that the dispatch entered on a
//! [`crate::Arm`] of that level.

#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use crate::ops::{EXP_HI, EXP_LO, EXP_P, EXP_SHIFT, LN2_HI, LN2_LO};

/// The widest register's lane count: a lane array is this long, and a
/// narrower register reads its first [`Lanes::L`] entries.
pub(crate) const MAX_LANES: usize = 16;

/// A register of `f32` lanes (see the module doc for what every method
/// guarantees and requires).
pub(crate) trait Lanes: Copy {
    /// Lanes in the register.
    const L: usize;
    /// The same lanes as `i32`.
    type Int: Copy;
    /// One bit (AVX-512F) or one all-ones lane (AVX2) per lane.
    type Mask: Copy;

    unsafe fn splat(x: f32) -> Self;
    unsafe fn splat_int(x: i32) -> Self::Int;
    unsafe fn load_int(x: &[i32; MAX_LANES]) -> Self::Int;
    unsafe fn add(self, b: Self) -> Self;
    unsafe fn sub(self, b: Self) -> Self;
    unsafe fn mul(self, b: Self) -> Self;
    unsafe fn div(self, b: Self) -> Self;
    /// `f32::max(self, x)` for a `self` that is never NaN: a NaN `x`
    /// leaves `self` (the sign of an equal zero is not defined, and no
    /// caller's result depends on it).
    unsafe fn max(self, x: Self) -> Self;
    /// `self < b`, false where either is NaN.
    unsafe fn lt(self, b: Self) -> Self::Mask;
    /// `on ? x : self`, lane by lane.
    unsafe fn blend(self, on: Self::Mask, x: Self) -> Self;
    /// The lanes whose run `from..to` holds `j`.
    unsafe fn holds(from: Self::Int, to: Self::Int, j: i32) -> Self::Mask;
    /// The lanes `l` whose bit `l` of `bits` is set.
    unsafe fn lanes(bits: u32) -> Self::Mask;
    unsafe fn to_bits(self) -> Self::Int;
    unsafe fn from_bits(i: Self::Int) -> Self;
    /// Wrapping `a + b`.
    unsafe fn add_int(a: Self::Int, b: Self::Int) -> Self::Int;
    /// Wrapping `a − b`.
    unsafe fn sub_int(a: Self::Int, b: Self::Int) -> Self::Int;
    /// `a >> 1`, arithmetic.
    unsafe fn half_int(a: Self::Int) -> Self::Int;
    /// `a << 23`: an integer into the exponent field.
    unsafe fn exponent_int(a: Self::Int) -> Self::Int;
    /// `base[offsets[l]]` in the lanes `on` holds, `+0` in the others.
    /// Reads only those lanes' floats: each must be in bounds.
    unsafe fn gather(base: *const f32, offsets: Self::Int, on: Self::Mask) -> Self;
    /// `base[offsets[l]] = self[l]` for the lanes `on` holds. Writes only
    /// those lanes' floats: each must be in bounds.
    unsafe fn scatter(self, base: *mut f32, offsets: Self::Int, on: Self::Mask);
}

impl Lanes for __m512 {
    const L: usize = 16;
    type Int = __m512i;
    type Mask = __mmask16;

    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        _mm512_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn splat_int(x: i32) -> __m512i {
        _mm512_set1_epi32(x)
    }
    #[inline(always)]
    unsafe fn load_int(x: &[i32; MAX_LANES]) -> __m512i {
        _mm512_loadu_si512(x.as_ptr().cast())
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        _mm512_add_ps(self, b)
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        _mm512_sub_ps(self, b)
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        _mm512_mul_ps(self, b)
    }
    #[inline(always)]
    unsafe fn div(self, b: Self) -> Self {
        _mm512_div_ps(self, b)
    }
    #[inline(always)]
    unsafe fn max(self, x: Self) -> Self {
        // `x > self ? x : self`: a NaN `x` compares false.
        _mm512_max_ps(x, self)
    }
    #[inline(always)]
    unsafe fn lt(self, b: Self) -> __mmask16 {
        _mm512_cmp_ps_mask::<_CMP_LT_OQ>(self, b)
    }
    #[inline(always)]
    unsafe fn blend(self, on: __mmask16, x: Self) -> Self {
        _mm512_mask_blend_ps(on, self, x)
    }
    #[inline(always)]
    unsafe fn holds(from: __m512i, to: __m512i, j: i32) -> __mmask16 {
        let j = _mm512_set1_epi32(j);
        _mm512_cmple_epi32_mask(from, j) & _mm512_cmplt_epi32_mask(j, to)
    }
    #[inline(always)]
    unsafe fn lanes(bits: u32) -> __mmask16 {
        bits as __mmask16
    }
    #[inline(always)]
    unsafe fn to_bits(self) -> __m512i {
        _mm512_castps_si512(self)
    }
    #[inline(always)]
    unsafe fn from_bits(i: __m512i) -> Self {
        _mm512_castsi512_ps(i)
    }
    #[inline(always)]
    unsafe fn add_int(a: __m512i, b: __m512i) -> __m512i {
        _mm512_add_epi32(a, b)
    }
    #[inline(always)]
    unsafe fn sub_int(a: __m512i, b: __m512i) -> __m512i {
        _mm512_sub_epi32(a, b)
    }
    #[inline(always)]
    unsafe fn half_int(a: __m512i) -> __m512i {
        _mm512_srai_epi32::<1>(a)
    }
    #[inline(always)]
    unsafe fn exponent_int(a: __m512i) -> __m512i {
        _mm512_slli_epi32::<23>(a)
    }
    #[inline(always)]
    unsafe fn gather(base: *const f32, offsets: __m512i, on: __mmask16) -> Self {
        _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), on, offsets, base)
    }
    #[inline(always)]
    unsafe fn scatter(self, base: *mut f32, offsets: __m512i, on: __mmask16) {
        _mm512_mask_i32scatter_ps::<4>(base, on, offsets, self)
    }
}

impl Lanes for __m256 {
    const L: usize = 8;
    type Int = __m256i;
    type Mask = __m256;

    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        _mm256_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn splat_int(x: i32) -> __m256i {
        _mm256_set1_epi32(x)
    }
    #[inline(always)]
    unsafe fn load_int(x: &[i32; MAX_LANES]) -> __m256i {
        _mm256_loadu_si256(x.as_ptr().cast())
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        _mm256_add_ps(self, b)
    }
    #[inline(always)]
    unsafe fn sub(self, b: Self) -> Self {
        _mm256_sub_ps(self, b)
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        _mm256_mul_ps(self, b)
    }
    #[inline(always)]
    unsafe fn div(self, b: Self) -> Self {
        _mm256_div_ps(self, b)
    }
    #[inline(always)]
    unsafe fn max(self, x: Self) -> Self {
        // `x > self ? x : self`: a NaN `x` compares false.
        _mm256_max_ps(x, self)
    }
    #[inline(always)]
    unsafe fn lt(self, b: Self) -> __m256 {
        _mm256_cmp_ps::<_CMP_LT_OQ>(self, b)
    }
    #[inline(always)]
    unsafe fn blend(self, on: __m256, x: Self) -> Self {
        _mm256_blendv_ps(self, x, on)
    }
    #[inline(always)]
    unsafe fn holds(from: __m256i, to: __m256i, j: i32) -> __m256 {
        let j = _mm256_set1_epi32(j);
        // `!(from > j) & (to > j)`.
        _mm256_castsi256_ps(_mm256_andnot_si256(_mm256_cmpgt_epi32(from, j), _mm256_cmpgt_epi32(to, j)))
    }
    #[inline(always)]
    unsafe fn lanes(bits: u32) -> __m256 {
        // Lane `l`'s bit of `bits`, spread to the lane.
        let bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(bits as i32), bit), bit))
    }
    #[inline(always)]
    unsafe fn to_bits(self) -> __m256i {
        _mm256_castps_si256(self)
    }
    #[inline(always)]
    unsafe fn from_bits(i: __m256i) -> Self {
        _mm256_castsi256_ps(i)
    }
    #[inline(always)]
    unsafe fn add_int(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi32(a, b)
    }
    #[inline(always)]
    unsafe fn sub_int(a: __m256i, b: __m256i) -> __m256i {
        _mm256_sub_epi32(a, b)
    }
    #[inline(always)]
    unsafe fn half_int(a: __m256i) -> __m256i {
        _mm256_srai_epi32::<1>(a)
    }
    #[inline(always)]
    unsafe fn exponent_int(a: __m256i) -> __m256i {
        _mm256_slli_epi32::<23>(a)
    }
    #[inline(always)]
    unsafe fn gather(base: *const f32, offsets: __m256i, on: __m256) -> Self {
        _mm256_mask_i32gather_ps::<4>(_mm256_setzero_ps(), base, offsets, on)
    }
    #[inline(always)]
    unsafe fn scatter(self, base: *mut f32, offsets: __m256i, on: __m256) {
        // AVX2 has no scatter: lane by lane.
        let held = _mm256_movemask_ps(on);
        let (mut lanes, mut at) = ([0.0f32; 8], [0i32; 8]);
        _mm256_storeu_ps(lanes.as_mut_ptr(), self);
        _mm256_storeu_si256(at.as_mut_ptr().cast(), offsets);
        for (l, (&x, &at)) in lanes.iter().zip(&at).enumerate() {
            if held & (1 << l) != 0 {
                *base.offset(at as isize) = x;
            }
        }
    }
}

/// [`crate::exp_scalar`] in every lane, operation for operation: the clamp
/// as `f32::clamp` makes it (below, then above; a NaN passes), `n` by the
/// shift constant, Cody–Waite `r`, Horner over the same coefficients,
/// `(p·r² + r) + 1`, the two power-of-two factors from the bits of `n`,
/// then `+0` below the range and `+∞` above it.
#[inline(always)]
pub(crate) unsafe fn exp<V: Lanes>(x: V) -> V {
    let (lo, hi) = (V::splat(EXP_LO), V::splat(EXP_HI));
    let below = x.lt(lo);
    let above = hi.lt(x);
    let c = x.blend(below, lo);
    let c = c.blend(hi.lt(c), hi);
    let shifted = c.mul(V::splat(std::f32::consts::LOG2_E)).add(V::splat(EXP_SHIFT));
    let n = shifted.sub(V::splat(EXP_SHIFT));
    let r = c.sub(n.mul(V::splat(LN2_HI))).sub(n.mul(V::splat(LN2_LO)));
    let mut p = V::splat(EXP_P[0]);
    for &coefficient in &EXP_P[1..] {
        p = p.mul(r).add(V::splat(coefficient));
    }
    let e = p.mul(r.mul(r)).add(r).add(V::splat(1.0));
    let k = V::sub_int(shifted.to_bits(), V::splat_int(EXP_SHIFT.to_bits() as i32));
    let half = V::half_int(k);
    let pow2 = |k: V::Int| V::from_bits(V::exponent_int(V::add_int(k, V::splat_int(127))));
    let y = e.mul(pow2(half)).mul(pow2(V::sub_int(k, half)));
    y.blend(above, V::splat(f32::INFINITY)).blend(below, V::splat(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exp_scalar, Arm, Level};

    /// `exp` through one register type, lane by lane against the scalar.
    fn check<V: Lanes>(inputs: &[f32], exp_v: impl Fn(&[f32; MAX_LANES]) -> [f32; MAX_LANES]) {
        for chunk in inputs.chunks(V::L) {
            let mut lanes = [0.0f32; MAX_LANES];
            lanes[..chunk.len()].copy_from_slice(chunk);
            let got = exp_v(&lanes);
            for (&x, &y) in chunk.iter().zip(&got) {
                let want = exp_scalar(x);
                assert!(
                    y.to_bits() == want.to_bits() || (y.is_nan() && want.is_nan()),
                    "{} lanes: exp({x:e}) = {y:e}, want {want:e}",
                    V::L
                );
            }
        }
    }

    #[test]
    fn lane_exp_is_exp_scalar_bit_for_bit() {
        // A 2²⁰ sweep over ±100 (past both range edges), the edges
        // themselves and their neighbours, and the non-finite inputs.
        let mut inputs: Vec<f32> = (0..1 << 20).map(|i| -100.0 + 200.0 * i as f32 / (1 << 20) as f32).collect();
        for edge in [EXP_LO, EXP_HI] {
            inputs.extend([edge, f32::from_bits(edge.to_bits() + 1), f32::from_bits(edge.to_bits() - 1)]);
        }
        inputs.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, f32::MIN_POSITIVE, -1e-30]);
        for arm in Arm::available() {
            match arm.level() {
                Level::Baseline => {}
                // SAFETY: an `Avx2` token exists only on a CPU that runs AVX2.
                Level::Avx2 => check::<__m256>(&inputs, |x| unsafe { avx2_exp(x) }),
                // SAFETY: an `Avx512` token exists only on a CPU that runs
                // AVX-512F.
                Level::Avx512 => check::<__m512>(&inputs, |x| unsafe { avx512_exp(x) }),
            }
        }
    }

    #[target_feature(enable = "avx2")]
    fn avx2_exp(x: &[f32; MAX_LANES]) -> [f32; MAX_LANES] {
        let mut y = [0.0f32; MAX_LANES];
        // SAFETY: `x` and `y` hold the 8 floats a ymm load and store touch,
        // and the lanes' AVX2 is this function's feature.
        unsafe { _mm256_storeu_ps(y.as_mut_ptr(), exp(_mm256_loadu_ps(x.as_ptr()))) };
        y
    }

    #[target_feature(enable = "avx512f")]
    fn avx512_exp(x: &[f32; MAX_LANES]) -> [f32; MAX_LANES] {
        let mut y = [0.0f32; MAX_LANES];
        // SAFETY: `x` and `y` hold the 16 floats a zmm load and store touch,
        // and the lanes' AVX-512F is this function's feature.
        unsafe { _mm512_storeu_ps(y.as_mut_ptr(), exp(_mm512_loadu_ps(x.as_ptr()))) };
        y
    }
}
