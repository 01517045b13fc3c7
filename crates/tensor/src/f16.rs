//! Software IEEE 754 binary16 ("half precision").
//!
//! The paper's mixed-precision pipeline stores model parameters and
//! gradients in FP16 on the GPU and FP32 optimizer state on the host, and
//! its gradient-path optimization (Figure 6, Table 1) hinges on *where* the
//! FP16↔FP32 conversion runs. This module provides a bit-exact software
//! half-float so the reproduction exercises real precision effects without
//! FP16 hardware.
//!
//! Conversion uses round-to-nearest-even, matching CUDA's
//! `__float2half_rn`.

use std::fmt;

use serde::{Deserialize, Serialize};

/// An IEEE 754 binary16 value stored as raw bits.
///
/// # Examples
///
/// ```
/// use dos_tensor::F16;
/// let h = F16::from_f32(1.0);
/// assert_eq!(h.to_bits(), 0x3C00);
/// assert_eq!(h.to_f32(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
// `repr(transparent)`: the F16C kernel stores 8 halves at once through a
// pointer cast, and `F16::zeroed_vec` reuses a `u16` allocation; both rely
// on `F16` having `u16`'s layout.
#[repr(transparent)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest positive normal value, 2⁻¹⁴.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, 2⁻²⁴.
    pub const MIN_SUBNORMAL: F16 = F16(0x0001);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);

    /// Constructs from raw bits.
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Returns the raw bits.
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// `n` positive zeros, from zero-initialised memory.
    ///
    /// Equal to `vec![F16::ZERO; n]`, but that writes every element,
    /// because std only hands out pre-zeroed memory for primitive element
    /// types. This builds a `vec![0u16; n]` instead, whose allocation the
    /// kernel zeroes page by page on first touch, so a large output that
    /// is about to be overwritten is not written twice.
    #[allow(unsafe_code)]
    pub fn zeroed_vec(n: usize) -> Vec<F16> {
        let mut bits = std::mem::ManuallyDrop::new(vec![0u16; n]);
        let (ptr, len, cap) = (bits.as_mut_ptr(), bits.len(), bits.capacity());
        // SAFETY: `F16` is `#[repr(transparent)]` over `u16`, so it has the
        // same size and alignment and the allocation's layout is unchanged;
        // `ptr`, `len` and `cap` come from a live `Vec<u16>` that is never
        // dropped; and the all-zero bit pattern is `F16::ZERO`.
        unsafe { Vec::from_raw_parts(ptr.cast::<F16>(), len, cap) }
    }

    /// Converts from `f32` with round-to-nearest-even.
    ///
    /// Values above `F16::MAX` overflow to infinity; values below the
    /// subnormal range underflow to (signed) zero. NaN payloads are
    /// preserved where possible and always stay NaN.
    pub fn from_f32(x: f32) -> F16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp32 = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x007F_FFFF;

        if exp32 == 0xFF {
            // Infinity or NaN.
            if man == 0 {
                return F16(sign | 0x7C00);
            }
            let payload = ((man >> 13) as u16) & 0x03FF;
            // Keep NaN a NaN even if the payload's top bits were truncated.
            return F16(sign | 0x7C00 | 0x0200 | payload.max(1));
        }

        let exp = exp32 - 127 + 15;
        if exp >= 0x1F {
            // Overflow to infinity.
            return F16(sign | 0x7C00);
        }
        if exp <= 0 {
            // Subnormal half (or zero).
            if exp < -10 {
                return F16(sign);
            }
            let full_man = man | 0x0080_0000; // restore implicit bit
            let shift = (14 - exp) as u32;
            let half_man = (full_man >> shift) as u16;
            let rem = full_man & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let mut h = half_man;
            if rem > halfway || (rem == halfway && (h & 1) == 1) {
                h += 1; // may carry into the exponent: that is correct
            }
            return F16(sign | h);
        }

        // Normal half.
        let mut h = ((exp as u16) << 10) | ((man >> 13) as u16);
        let rem = man & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && (h & 1) == 1) {
            h = h.wrapping_add(1); // carry into exponent rounds up to infinity
        }
        F16(sign | h)
    }

    /// Converts to `f32` exactly (every binary16 value is representable).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let man = (self.0 & 0x03FF) as u32;
        let bits = match (exp, man) {
            (0, 0) => sign,
            (0, _) => {
                // Subnormal: value = man * 2^-24, exact in f32.
                let v = man as f32 * f32::from_bits(0x3380_0000); // 2^-24
                return if sign != 0 { -v } else { v };
            }
            (0x1F, 0) => sign | 0x7F80_0000,
            (0x1F, _) => sign | 0x7F80_0000 | (man << 13) | 0x0040_0000,
            _ => sign | ((exp + 112) << 23) | (man << 13),
        };
        f32::from_bits(bits)
    }

    /// Whether the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Whether the value is positive or negative infinity.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// Whether the value is finite (neither infinite nor NaN).
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> f32 {
        h.to_f32()
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_vec_equals_a_filled_vec() {
        for n in [0usize, 1, 7, 4096, 1 << 20] {
            let v = F16::zeroed_vec(n);
            assert_eq!(v, vec![F16::ZERO; n], "n={n}");
            assert_eq!(v.capacity(), n);
        }
        // The buffer is an ordinary `Vec`: it grows and drops as one.
        let mut v = F16::zeroed_vec(3);
        v.push(F16::ONE);
        assert_eq!(v, [F16::ZERO, F16::ZERO, F16::ZERO, F16::ONE]);
    }

    #[test]
    fn known_constants() {
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(F16::from_f32(-1.0).to_bits(), 0xBC00);
        assert_eq!(F16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(F16::from_f32(2.0).to_bits(), 0x4000);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 6.103_515_6e-5);
        assert_eq!(F16::MIN_SUBNORMAL.to_f32(), 5.960_464_5e-8);
    }

    #[test]
    fn overflow_and_underflow() {
        assert_eq!(F16::from_f32(1e6), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e6), F16::NEG_INFINITY);
        assert_eq!(F16::from_f32(1e-9).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-1e-9).to_bits(), 0x8000);
        // 65520 rounds up to infinity (midpoint between 65504 and out of range).
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY);
        // Just below the midpoint stays finite.
        assert_eq!(F16::from_f32(65519.0), F16::MAX);
    }

    #[test]
    fn nan_round_trips_as_nan() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::NAN.to_f32().is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn infinity_round_trips() {
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
        assert_eq!(F16::INFINITY.to_f32(), f32::INFINITY);
        assert_eq!(F16::NEG_INFINITY.to_f32(), f32::NEG_INFINITY);
        assert!(F16::INFINITY.is_infinite());
        assert!(!F16::INFINITY.is_finite());
        assert!(!F16::INFINITY.is_nan());
    }

    #[test]
    fn round_to_nearest_even_ties() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and the next half;
        // RNE keeps the even mantissa (1.0).
        let halfway_down = 1.0 + f32::from_bits(0x3A00_0000); // 1 + 2^-11
        assert_eq!(F16::from_f32(halfway_down).to_bits(), 0x3C00);
        // The next representable tie rounds up to even.
        let next = F16::from_bits(0x3C01).to_f32(); // 1 + 2^-10
        let halfway_up = next + f32::from_bits(0x3A00_0000);
        assert_eq!(F16::from_f32(halfway_up).to_bits(), 0x3C02);
    }

    #[test]
    fn subnormal_rounding() {
        // Half of the smallest subnormal rounds to zero (ties-to-even).
        let tiny = F16::MIN_SUBNORMAL.to_f32();
        assert_eq!(F16::from_f32(tiny / 2.0).to_bits(), 0x0000);
        // 0.75x of the smallest subnormal rounds up to it.
        assert_eq!(F16::from_f32(tiny * 0.75), F16::MIN_SUBNORMAL);
    }

    /// Every one of the 65 536 bit patterns must survive an exact
    /// f16 → f32 → f16 round trip (f32 is a superset of f16).
    #[test]
    fn exhaustive_round_trip() {
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let back = F16::from_f32(h.to_f32());
            if h.is_nan() {
                assert!(back.is_nan(), "bits {bits:#06x} lost NaN-ness");
            } else {
                assert_eq!(back.to_bits(), bits, "bits {bits:#06x} failed round trip");
            }
        }
    }

    /// RNE means the conversion picks a nearest representable: the error is
    /// bounded by half a ULP of the result.
    #[test]
    fn conversion_is_nearest() {
        let cases = [
            0.1f32, 0.2, 0.3, 1.1, std::f32::consts::PI, 2.72, 1000.5, 0.000123, 42.42, 65503.0,
        ];
        for &x in &cases {
            let h = F16::from_f32(x).to_f32();
            // Neighbours of the chosen value.
            let bits = F16::from_f32(x).to_bits();
            let down = F16::from_bits(bits.wrapping_sub(1)).to_f32();
            let up = F16::from_bits(bits.wrapping_add(1)).to_f32();
            assert!(
                (x - h).abs() <= (x - down).abs() && (x - h).abs() <= (x - up).abs(),
                "{x} -> {h} is not nearest (neighbours {down}, {up})"
            );
        }
    }

    #[test]
    fn ordering_matches_f32() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.5);
        assert!(a < b);
        assert!(b > a);
    }
}
