//! Branchless, autovectorizable FP16↔FP32 conversion kernels.
//!
//! [`F16::from_f32`]/[`F16::to_f32`] are deliberately written as readable,
//! branchy scalar code — they are the *oracle*. The kernels here compute
//! the exact same bits through straight-line integer arithmetic plus one
//! float-magic trick, so LLVM can keep the loop in SIMD registers instead
//! of stalling on the oracle's four-way branch per element. Bit-exactness
//! against the oracle is enforced three ways: the unit tests below, the
//! `kernels` arm of the tri-oracle conformance harness (`dos-oracle`), and
//! proptests over raw bit patterns.
//!
//! The downscale is `D_c` in the paper's Eq. 1 — one of the two CPU-side
//! throughput constants the adaptive controller steers on — so this is a
//! measured hot path, not a micro-optimization; see `BENCH_7.json`. The
//! branchless downscale is compute-bound on its software rounding, so
//! [`downscale`] dispatches at run time to the hardware converter (AVX2 +
//! F16C) where the CPU has one, keeping [`downscale_branchless`] as the
//! fallback. That converter lives in the private `x86` module, one of the
//! crate's two `unsafe` sites (the other is `F16::zeroed_vec`).

use crate::f16::F16;

/// Elements per cache-friendly chunk processed by the slice kernels.
pub const CHUNK: usize = 4096;

/// Converts one f32 bit pattern to the f16 bit pattern `F16::from_f32`
/// would produce, without data-dependent branches.
///
/// * **Normal** halves re-bias the exponent in place and round the low 13
///   mantissa bits to nearest-even with the classic `rem + 0x0FFF + lsb`
///   carry; mantissa overflow carries into the exponent (rounding up to
///   infinity), exactly like the oracle's `wrapping_add`.
/// * **Subnormal/zero** halves use the FPU: `|x|·2²⁴ + 2²³` lands in
///   `[2²³, 2²³+1024]`, so the hardware's own round-to-nearest-even leaves
///   the rounded subnormal payload in the low mantissa bits.
/// * **NaN** keeps its truncated payload but stays NaN
///   (`0x0200 | payload.max(1)`), matching the oracle.
#[inline]
pub fn f16_bits_from_f32_bits(bits: u32) -> u16 {
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7FFF_FFFF;

    // Normal path (exponent already known to land in 1..=30 when selected).
    let rebias = abs.wrapping_sub(112 << 23);
    let h = rebias >> 13;
    let rem = abs & 0x1FFF;
    let h_norm = h + ((rem + 0x0FFF + (h & 1)) >> 13);

    // Subnormal/zero path via float magic (hardware RNE does the rounding).
    let sub = f32::from_bits(abs) * 16_777_216.0 + 8_388_608.0; // |x|·2^24 + 2^23
    let h_sub = sub.to_bits() & 0x0000_07FF;

    // NaN path: truncated payload, NaN-ness preserved.
    let h_nan = 0x7C00 | 0x0200 | ((abs >> 13) & 0x03FF).max(1);

    let magnitude = if abs > 0x7F80_0000 {
        h_nan
    } else if abs >= 0x4780_0000 {
        0x7C00 // overflow (or exact infinity)
    } else if abs >= 0x3880_0000 {
        h_norm
    } else {
        h_sub
    };
    sign | magnitude as u16
}

/// Converts one f16 bit pattern to the f32 bits/value `F16::to_f32` would
/// produce, without data-dependent branches.
#[inline]
pub fn f32_from_f16_bits(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let man = (h & 0x03FF) as u32;

    let norm = sign | ((exp + 112) << 23) | (man << 13);
    // Subnormal: man · 2⁻²⁴, exact in f32 (int→float convert + pow-2 scale).
    let sub = (man as f32 * f32::from_bits(0x3380_0000)).to_bits() | sign;
    let naninf = sign | 0x7F80_0000 | (man << 13) | if man != 0 { 0x0040_0000 } else { 0 };

    let bits = if exp == 0x1F {
        naninf
    } else if exp == 0 {
        sub
    } else {
        norm
    };
    f32::from_bits(bits)
}

/// Vectorized FP32→FP16 downscale over equal-length slices.
///
/// Uses the hardware converter (AVX2 + F16C, `vcvtps2ph` with
/// round-to-nearest-even) when the running CPU has it, and
/// [`downscale_branchless`] otherwise. Both paths produce the oracle's
/// bits for every input, NaN payloads included.
///
/// # Panics
///
/// Panics if the slices differ in length (the fallible, chunk-configurable
/// surface is [`crate::convert::downscale_f32_chunked`]).
pub fn downscale(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "downscale length mismatch");
    #[cfg(target_arch = "x86_64")]
    if x86::downscale(src, dst) {
        return;
    }
    downscale_branchless(src, dst);
}

/// The portable path of [`downscale`]: [`f16_bits_from_f32_bits`] per
/// element, which LLVM autovectorizes. Public so hosts with F16C still
/// test it.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn downscale_branchless(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "downscale length mismatch");
    for (s, d) in src.chunks(CHUNK).zip(dst.chunks_mut(CHUNK)) {
        for (x, y) in s.iter().zip(d.iter_mut()) {
            *y = F16::from_bits(f16_bits_from_f32_bits(x.to_bits()));
        }
    }
}

/// Scalar oracle twin of [`downscale`]: per-element [`F16::from_f32`].
pub fn downscale_reference(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "downscale length mismatch");
    for (x, y) in src.iter().zip(dst.iter_mut()) {
        *y = F16::from_f32(*x);
    }
}

/// Vectorized FP16→FP32 upscale over equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn upscale(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "upscale length mismatch");
    for (s, d) in src.chunks(CHUNK).zip(dst.chunks_mut(CHUNK)) {
        for (x, y) in s.iter().zip(d.iter_mut()) {
            *y = f32_from_f16_bits(x.to_bits());
        }
    }
}

/// Scalar oracle twin of [`upscale`]: per-element [`F16::to_f32`].
pub fn upscale_reference(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "upscale length mismatch");
    for (x, y) in src.iter().zip(dst.iter_mut()) {
        *y = x.to_f32();
    }
}

/// Rounds every element through FP16 in place (`x = f16(x) as f32`) — the
/// FP16-gradient-flush and FP16-device-parameter paths of
/// `dos_optim::ModelOptimizer`, fused so the intermediate half never
/// leaves a register.
pub fn round_through_f16(buf: &mut [f32]) {
    for chunk in buf.chunks_mut(CHUNK) {
        for x in chunk.iter_mut() {
            *x = f32_from_f16_bits(f16_bits_from_f32_bits(x.to_bits()));
        }
    }
}

/// Scalar oracle twin of [`round_through_f16`].
pub fn round_through_f16_reference(buf: &mut [f32]) {
    for x in buf.iter_mut() {
        *x = F16::from_f32(*x).to_f32();
    }
}

/// The hardware FP32→FP16 converter, one of the crate's two `unsafe`
/// sites.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::{
        __m128i, _mm256_cmp_ps, _mm256_cvtps_ph, _mm256_loadu_ps, _mm256_movemask_ps,
        _mm_storeu_si128, _CMP_UNORD_Q, _MM_FROUND_TO_NEAREST_INT,
    };

    use super::f16_bits_from_f32_bits;
    use crate::f16::F16;

    /// Lanes per `vcvtps2ph`.
    const LANES: usize = 8;

    /// Downscales `src` into `dst` with F16C if the running CPU has AVX2
    /// and F16C; returns `false` (leaving `dst` untouched) otherwise.
    pub(super) fn downscale(src: &[f32], dst: &mut [F16]) -> bool {
        if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("f16c")) {
            return false;
        }
        // SAFETY: both target features were detected on the running CPU
        // just above.
        unsafe { downscale_f16c(src, dst) };
        true
    }

    /// `vcvtps2ph` rounds to nearest-even, overflows to infinity and
    /// keeps subnormals, exactly like the oracle. NaNs differ: hardware
    /// quiets the truncated payload as-is (`0x7F80_0001 → 0x7E00`) where
    /// the oracle forces a nonzero payload (`→ 0x7E01`), so NaN lanes are
    /// redone by the branchless scalar code.
    ///
    /// # Safety
    ///
    /// The running CPU must support AVX2 and F16C.
    #[target_feature(enable = "avx2,f16c")]
    unsafe fn downscale_f16c(src: &[f32], dst: &mut [F16]) {
        let mut s = src.chunks_exact(LANES);
        let mut d = dst.chunks_exact_mut(LANES);
        for (s, d) in (&mut s).zip(&mut d) {
            // SAFETY: `s` holds exactly `LANES` f32s; the load is unaligned.
            let x = unsafe { _mm256_loadu_ps(s.as_ptr()) };
            let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x);
            // SAFETY: `d` holds exactly `LANES` F16s, and `F16` is a
            // `repr(transparent)` u16, so it spans the 16 bytes stored;
            // the store is unaligned.
            unsafe { _mm_storeu_si128(d.as_mut_ptr().cast::<__m128i>(), h) };
            let mut nan = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(x, x));
            while nan != 0 {
                let lane = nan.trailing_zeros() as usize;
                d[lane] = F16::from_bits(f16_bits_from_f32_bits(s[lane].to_bits()));
                nan &= nan - 1;
            }
        }
        for (x, y) in s.remainder().iter().zip(d.into_remainder()) {
            *y = F16::from_bits(f16_bits_from_f32_bits(x.to_bits()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-compare the fast downscale against the oracle, treating two NaN
    /// results as equal only when their bits agree (the oracle pins exact
    /// NaN payload bits, so we demand full equality).
    fn check_f32(x: f32) {
        let want = F16::from_f32(x).to_bits();
        let got = f16_bits_from_f32_bits(x.to_bits());
        assert_eq!(got, want, "downscale({x:?} = {:#010x}) diverged", x.to_bits());
    }

    #[test]
    fn upscale_matches_oracle_exhaustively() {
        for bits in 0..=u16::MAX {
            let want = F16::from_bits(bits).to_f32();
            let got = f32_from_f16_bits(bits);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "upscale({bits:#06x}) diverged: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn downscale_matches_oracle_on_all_f16_values_and_neighbours() {
        // Every exactly-representable half, plus the f32 bit patterns just
        // around it (which exercise every rounding boundary).
        for bits in 0..=u16::MAX {
            let f = F16::from_bits(bits).to_f32();
            let b = f.to_bits();
            for delta in [0u32, 1, 2, 0x0FFF, 0x1000, 0x1001] {
                check_f32(f32::from_bits(b.wrapping_add(delta)));
                check_f32(f32::from_bits(b.wrapping_sub(delta)));
            }
        }
    }

    #[test]
    fn downscale_matches_oracle_on_edge_cases() {
        for x in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            65504.0,
            65519.0,
            65520.0,
            1e6,
            -1e6,
            1e-9,
            -1e-9,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            f32::from_bits(1),           // smallest f32 subnormal
            f32::from_bits(0x7F80_0001), // signalling-ish NaN, payload 1
            f32::from_bits(0xFFC0_0000), // negative quiet NaN
            f32::from_bits(0x3380_0000), // 2^-24 (half of min subnormal: tie)
            f32::from_bits(0x3380_0001), // just above the tie
            6.103_515_6e-5,              // F16::MIN_POSITIVE
            5.960_464_5e-8,              // F16::MIN_SUBNORMAL
        ] {
            check_f32(x);
        }
    }

    #[test]
    fn downscale_matches_oracle_on_lcg_sweep() {
        // 2^20 pseudo-random f32 bit patterns (full-period LCG so the sweep
        // is deterministic and covers high/low bits evenly).
        let mut x: u32 = 0x2545_F491;
        for _ in 0..(1 << 20) {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            check_f32(f32::from_bits(x));
        }
    }

    /// Full 2^32 sweep of both slice paths — the dispatching [`downscale`]
    /// (F16C where the CPU has it) and [`downscale_branchless`] — ~20 s in
    /// release, run explicitly with
    /// `cargo test -p dos-tensor --release -- --ignored exhaustive_u32`.
    #[test]
    #[ignore]
    fn downscale_matches_oracle_exhaustive_u32() {
        const BLOCK: u64 = 1 << 16;
        let mut src = vec![0.0f32; BLOCK as usize];
        let mut want = vec![F16::ZERO; src.len()];
        let mut fast = vec![F16::ZERO; src.len()];
        let mut portable = vec![F16::ZERO; src.len()];
        for base in (0..1u64 << 32).step_by(BLOCK as usize) {
            for (i, x) in src.iter_mut().enumerate() {
                *x = f32::from_bits((base + i as u64) as u32);
            }
            downscale_reference(&src, &mut want);
            downscale(&src, &mut fast);
            downscale_branchless(&src, &mut portable);
            for (i, w) in want.iter().enumerate() {
                let bits = (base + i as u64) as u32;
                assert_eq!(fast[i], *w, "downscale({bits:#010x}) diverged");
                assert_eq!(portable[i], *w, "downscale_branchless({bits:#010x}) diverged");
            }
        }
    }

    /// A NaN at every lane of an 8-wide hardware block and in the scalar
    /// tail must come out with the oracle's payload on both paths.
    #[test]
    fn downscale_patches_nan_payload_in_every_lane_and_tail() {
        let nans =
            [0x7F80_0001u32, 0xFF80_0001, 0x7F80_1FFF, 0x7FC0_0000, 0xFFFF_FFFF, 0x7F80_2000];
        let len = 3 * 8 + 5;
        for nan in nans {
            for pos in 0..len {
                let mut src: Vec<f32> = (0..len).map(|i| i as f32 * 0.375 - 4.0).collect();
                src[pos] = f32::from_bits(nan);
                let mut want = vec![F16::ZERO; len];
                let mut fast = vec![F16::ZERO; len];
                let mut portable = vec![F16::ZERO; len];
                downscale_reference(&src, &mut want);
                downscale(&src, &mut fast);
                downscale_branchless(&src, &mut portable);
                assert_eq!(fast, want, "NaN {nan:#010x} at {pos}");
                assert_eq!(portable, want, "NaN {nan:#010x} at {pos} (branchless)");
            }
        }
    }

    #[test]
    fn slice_kernels_match_their_references() {
        let src: Vec<f32> = (0..10_000)
            .map(|i| ((i as f32) - 5000.0) * 0.037 + 1.0 / (i as f32 + 1.0))
            .collect();
        let mut fast = vec![F16::ZERO; src.len()];
        let mut slow = vec![F16::ZERO; src.len()];
        let mut portable = vec![F16::ZERO; src.len()];
        downscale(&src, &mut fast);
        downscale_branchless(&src, &mut portable);
        downscale_reference(&src, &mut slow);
        assert_eq!(fast, slow);
        assert_eq!(portable, slow);

        let mut up_fast = vec![0.0f32; src.len()];
        let mut up_slow = vec![0.0f32; src.len()];
        upscale(&fast, &mut up_fast);
        upscale_reference(&slow, &mut up_slow);
        assert_eq!(
            up_fast.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            up_slow.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );

        let mut rt_fast = src.clone();
        let mut rt_slow = src.clone();
        round_through_f16(&mut rt_fast);
        round_through_f16_reference(&mut rt_slow);
        assert_eq!(
            rt_fast.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            rt_slow.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn downscale_rejects_mismatch() {
        downscale(&[1.0, 2.0], &mut [F16::ZERO]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn downscale_branchless_rejects_mismatch() {
        downscale_branchless(&[1.0], &mut [F16::ZERO, F16::ZERO]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn upscale_rejects_mismatch() {
        upscale(&[F16::ZERO], &mut [0.0, 0.0]);
    }
}
