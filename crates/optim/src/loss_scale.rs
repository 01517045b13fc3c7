//! Loss scaling for FP16 mixed-precision training.
//!
//! FP16 gradients underflow below 2⁻²⁴ (§2's mixed-precision background);
//! production recipes multiply the loss by a scale factor before backward
//! and divide the gradients by it before the optimizer consumes them.
//! [`DynamicLossScaler`] implements the standard dynamic scheme: halve the
//! scale on overflow (non-finite gradients), double it after a window of
//! clean steps.

use serde::{Deserialize, Serialize};

/// Dynamic loss scaler with overflow back-off and periodic growth.
///
/// # Examples
///
/// ```
/// use dos_optim::DynamicLossScaler;
/// let mut scaler = DynamicLossScaler::new(1024.0);
/// let mut grads = vec![0.5, -0.25];
/// for g in grads.iter_mut() { *g *= scaler.scale(); } // backward with scaled loss
/// assert!(scaler.unscale_check(&mut grads));           // safe to step
/// assert_eq!(grads, vec![0.5, -0.25]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicLossScaler {
    scale: f32,
    growth_factor: f32,
    backoff_factor: f32,
    growth_interval: u32,
    clean_steps: u32,
    overflows: u64,
}

impl DynamicLossScaler {
    /// Creates a scaler with the given initial scale and the conventional
    /// dynamics (grow 2× every 2000 clean steps, halve on overflow).
    ///
    /// # Panics
    ///
    /// Panics if `initial_scale` is not positive and finite.
    pub fn new(initial_scale: f32) -> DynamicLossScaler {
        assert!(
            initial_scale.is_finite() && initial_scale > 0.0,
            "initial scale must be positive"
        );
        DynamicLossScaler {
            scale: initial_scale,
            growth_factor: 2.0,
            backoff_factor: 0.5,
            growth_interval: 2000,
            clean_steps: 0,
            overflows: 0,
        }
    }

    /// A scaler that grows every `interval` clean steps (tests, small runs).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_growth_interval(mut self, interval: u32) -> DynamicLossScaler {
        assert!(interval > 0, "growth interval must be positive");
        self.growth_interval = interval;
        self
    }

    /// The current scale to multiply the loss (or gradients) by.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Overflow events observed so far.
    pub fn overflow_count(&self) -> u64 {
        self.overflows
    }

    /// Unscales `grads` in place and updates the scale dynamics.
    ///
    /// Returns `true` if the gradients are finite and the optimizer step
    /// should proceed; `false` if an overflow was detected — the gradients
    /// are zeroed, the step must be skipped, and the scale has been reduced.
    pub fn unscale_check(&mut self, grads: &mut [f32]) -> bool {
        let finite = self.unscale(grads);
        if !finite {
            grads.fill(0.0);
        }
        self.update(!finite);
        finite
    }

    /// Unscales `grads` in place up to the first non-finite value; returns
    /// whether all were finite. Leaves the scale alone, so data-parallel
    /// ranks can agree on a verdict before each calls [`Self::update`].
    pub fn unscale(&self, grads: &mut [f32]) -> bool {
        let inv = 1.0 / self.scale;
        for g in grads.iter_mut() {
            if !g.is_finite() {
                return false;
            }
            *g *= inv;
        }
        true
    }

    /// Advances the scale dynamics past one step, overflowed or clean.
    pub fn update(&mut self, overflow: bool) {
        if overflow {
            self.scale = (self.scale * self.backoff_factor).max(1.0);
            self.clean_steps = 0;
            self.overflows += 1;
        } else {
            self.clean_steps += 1;
            if self.clean_steps >= self.growth_interval {
                self.scale = (self.scale * self.growth_factor).min(f32::MAX / 4.0);
                self.clean_steps = 0;
            }
        }
    }
}

impl Default for DynamicLossScaler {
    fn default() -> Self {
        DynamicLossScaler::new(65536.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_steps_unscale_exactly() {
        let mut s = DynamicLossScaler::new(8.0);
        let mut g = vec![8.0f32, -16.0, 0.0];
        assert!(s.unscale_check(&mut g));
        assert_eq!(g, vec![1.0, -2.0, 0.0]);
        assert_eq!(s.overflow_count(), 0);
    }

    #[test]
    fn overflow_backs_off_and_skips() {
        let mut s = DynamicLossScaler::new(1024.0);
        let mut g = vec![1.0f32, f32::INFINITY];
        assert!(!s.unscale_check(&mut g));
        assert_eq!(g, vec![0.0, 0.0], "gradients zeroed so a step is a no-op");
        assert_eq!(s.scale(), 512.0);
        assert_eq!(s.overflow_count(), 1);
        let mut g = vec![f32::NAN];
        assert!(!s.unscale_check(&mut g));
        assert_eq!(s.scale(), 256.0);
    }

    #[test]
    fn growth_after_clean_window() {
        let mut s = DynamicLossScaler::new(4.0).with_growth_interval(3);
        for _ in 0..2 {
            assert!(s.unscale_check(&mut [1.0, 2.0]));
            assert_eq!(s.scale(), 4.0);
        }
        assert!(s.unscale_check(&mut [1.0]));
        assert_eq!(s.scale(), 8.0, "third clean step doubles");
        // Overflow resets the clean-step counter.
        assert!(s.unscale_check(&mut [1.0]));
        assert!(s.unscale_check(&mut [1.0]));
        assert!(!s.unscale_check(&mut [f32::INFINITY]));
        assert_eq!(s.scale(), 4.0);
        assert!(s.unscale_check(&mut [1.0]));
        assert_eq!(s.scale(), 4.0, "counter restarted after overflow");
    }

    #[test]
    fn a_shared_verdict_overrides_the_local_one() {
        // A rank whose own gradients are finite still backs off when a
        // peer overflowed, so every rank's scale stays the same.
        let mut s = DynamicLossScaler::new(8.0);
        let mut g = vec![8.0f32];
        assert!(s.unscale(&mut g));
        assert_eq!(g, vec![1.0]);
        assert_eq!(s.scale(), 8.0, "unscale alone leaves the dynamics alone");
        s.update(true);
        assert_eq!(s.scale(), 4.0);
        assert_eq!(s.overflow_count(), 1);
    }

    #[test]
    fn scale_never_drops_below_one() {
        let mut s = DynamicLossScaler::new(2.0);
        for _ in 0..10 {
            let _ = s.unscale_check(&mut [f32::NAN]);
        }
        assert_eq!(s.scale(), 1.0);
    }

    #[test]
    fn scaling_rescues_tiny_fp16_gradients() {
        use dos_tensor::F16;
        // A gradient below the FP16 subnormal floor vanishes unscaled...
        let tiny = 1e-8f32;
        assert_eq!(F16::from_f32(tiny).to_f32(), 0.0);
        // ...but survives the round trip once scaled by 2^16.
        let mut s = DynamicLossScaler::new(65536.0);
        let scaled = F16::from_f32(tiny * s.scale()).to_f32();
        let mut g = vec![scaled];
        assert!(s.unscale_check(&mut g));
        assert!((g[0] - tiny).abs() / tiny < 0.01, "recovered {} vs {tiny}", g[0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_initial_scale() {
        let _ = DynamicLossScaler::new(0.0);
    }
}
