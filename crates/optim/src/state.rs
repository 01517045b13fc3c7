//! Mixed-precision optimizer state over a flat parameter space.
//!
//! [`MixedPrecisionState`] is the host-side FP32 optimizer state of §2:
//! master parameters `p`, momentum `m`, and variance `v`, updated from
//! (upscaled) gradients, then downscaled to FP16 for the device copy. The
//! `update_range` method is the primitive that subgroup schedulers
//! (`dos-zero` partitioning + `dos-core` interleaving) drive: it updates any
//! contiguous element range independently of the others.

use serde::{Deserialize, Serialize};

use dos_tensor::convert::downscale_f32_chunked;
use dos_tensor::F16;

use crate::rule::UpdateRule;

/// FP32 master optimizer state (parameters, momentum, variance) with
/// range-wise updates and FP16 downscaling.
///
/// # Examples
///
/// ```
/// use dos_optim::{MixedPrecisionState, UpdateRule};
///
/// let mut state = MixedPrecisionState::new(vec![1.0, 2.0, 3.0, 4.0], UpdateRule::adam(), 0.1);
/// let grads = vec![0.5, -0.5, 0.25, 0.0];
/// state.begin_step();
/// state.update_range(0..2, &grads[0..2]);
/// state.update_range(2..4, &grads[2..4]);
/// let fp16 = state.downscale_range(0..4);
/// assert_eq!(fp16.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixedPrecisionState {
    p: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
    rule: UpdateRule,
    lr: f32,
    step: u64,
}

impl MixedPrecisionState {
    /// Creates state from initial FP32 master parameters.
    pub fn new(params: Vec<f32>, rule: UpdateRule, lr: f32) -> MixedPrecisionState {
        let n = params.len();
        MixedPrecisionState { p: params, m: vec![0.0; n], v: vec![0.0; n], rule, lr, step: 0 }
    }

    /// Reassembles state from its raw buffers — the inverse of the
    /// `params()`/`momentum()`/`variance()`/`step_count()` accessors. Used
    /// by elastic data-parallel resume, which re-shards a gathered
    /// full-space checkpoint across a different world size.
    ///
    /// # Panics
    ///
    /// Panics if `m` or `v` length differs from `p`.
    pub fn from_parts(
        p: Vec<f32>,
        m: Vec<f32>,
        v: Vec<f32>,
        rule: UpdateRule,
        lr: f32,
        step: u64,
    ) -> MixedPrecisionState {
        assert_eq!(m.len(), p.len(), "momentum length mismatch");
        assert_eq!(v.len(), p.len(), "variance length mismatch");
        MixedPrecisionState { p, m, v, rule, lr, step }
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// Whether the state is empty.
    pub fn is_empty(&self) -> bool {
        self.p.is_empty()
    }

    /// The master parameters.
    pub fn params(&self) -> &[f32] {
        &self.p
    }

    /// The first-moment buffer.
    pub fn momentum(&self) -> &[f32] {
        &self.m
    }

    /// The second-moment buffer.
    pub fn variance(&self) -> &[f32] {
        &self.v
    }

    /// The completed step count.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Sets the learning rate (schedulers).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Begins a new optimizer step: increments the step counter that Adam's
    /// bias correction uses. Every element range must then be updated
    /// exactly once (in any order, on any device) before the next
    /// `begin_step`.
    pub fn begin_step(&mut self) {
        self.step += 1;
    }

    /// Updates the contiguous element range `range` with its gradients.
    ///
    /// Embarrassingly parallel across ranges: disjoint ranges may be updated
    /// in any order or concurrently and produce identical results
    /// (see the permutation proptests).
    ///
    /// # Panics
    ///
    /// Panics if `begin_step` has not been called, the range is out of
    /// bounds, or `grads.len()` differs from the range length.
    pub fn update_range(&mut self, range: std::ops::Range<usize>, grads: &[f32]) {
        assert!(self.step > 0, "update_range before begin_step");
        assert!(range.end <= self.p.len(), "range out of bounds");
        assert_eq!(grads.len(), range.len(), "gradient length mismatch");
        self.rule.apply(
            self.step,
            self.lr,
            &mut self.p[range.clone()],
            grads,
            &mut self.m[range.clone()],
            &mut self.v[range],
        );
    }

    /// Performs a whole step over all elements (the monolithic baseline the
    /// sharded paths are verified against).
    ///
    /// # Panics
    ///
    /// Panics if `grads.len() != self.len()`.
    pub fn full_step(&mut self, grads: &[f32]) {
        self.begin_step();
        self.update_range(0..self.p.len(), grads);
    }

    /// Downscales a range of master parameters to FP16 (the `D_c` operation
    /// of the performance model).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn downscale_range(&self, range: std::ops::Range<usize>) -> Vec<F16> {
        assert!(range.end <= self.p.len(), "range out of bounds");
        let src = &self.p[range];
        let mut out = F16::zeroed_vec(src.len());
        downscale_f32_chunked(src, &mut out, 0).expect("lengths match by construction");
        out
    }

    /// Borrows `(p, m, v)` slices of a range — what gets staged to the GPU
    /// when a subgroup is scheduled there (Algorithm 1's prefetch).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn snapshot_range(&self, range: std::ops::Range<usize>) -> (&[f32], &[f32], &[f32]) {
        assert!(range.end <= self.p.len(), "range out of bounds");
        (&self.p[range.clone()], &self.m[range.clone()], &self.v[range])
    }

    /// Writes back `(p, m, v)` for a range — Algorithm 1's flush-out after a
    /// GPU-side update.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree with the range.
    pub fn write_back_range(
        &mut self,
        range: std::ops::Range<usize>,
        p: &[f32],
        m: &[f32],
        v: &[f32],
    ) {
        assert!(range.end <= self.p.len(), "range out of bounds");
        assert_eq!(p.len(), range.len(), "p length mismatch");
        assert_eq!(m.len(), range.len(), "m length mismatch");
        assert_eq!(v.len(), range.len(), "v length mismatch");
        self.p[range.clone()].copy_from_slice(p);
        self.m[range.clone()].copy_from_slice(m);
        self.v[range].copy_from_slice(v);
    }

    /// Splits `(p, m, v)` into disjoint mutable views of `ranges`, one per
    /// range, so each can be updated or written back on its own thread
    /// (the hybrid pipeline's per-subgroup host views).
    ///
    /// # Panics
    ///
    /// Panics unless the ranges are ascending, non-overlapping and in
    /// bounds.
    pub fn split_ranges_mut(
        &mut self,
        ranges: impl IntoIterator<Item = std::ops::Range<usize>>,
    ) -> Vec<StateRangeMut<'_>> {
        // Cuts `len` elements after `skip` off the front of `rest`.
        fn cut<'a>(rest: &mut &'a mut [f32], skip: usize, len: usize) -> &'a mut [f32] {
            let (head, tail) = std::mem::take(rest)[skip..].split_at_mut(len);
            *rest = tail;
            head
        }
        let (mut p, mut m, mut v) = (&mut self.p[..], &mut self.m[..], &mut self.v[..]);
        let mut offset = 0;
        let mut views = Vec::new();
        for range in ranges {
            assert!(offset <= range.start && range.start <= range.end, "ranges must ascend");
            assert!(range.end - offset <= p.len(), "range out of bounds");
            let (skip, len) = (range.start - offset, range.len());
            views.push(StateRangeMut {
                p: cut(&mut p, skip, len),
                m: cut(&mut m, skip, len),
                v: cut(&mut v, skip, len),
            });
            offset = range.end;
        }
        views
    }

    /// The update rule.
    pub fn rule(&self) -> UpdateRule {
        self.rule
    }
}

/// Disjoint mutable `(p, m, v)` views of one element range, from
/// [`MixedPrecisionState::split_ranges_mut`].
#[derive(Debug)]
pub struct StateRangeMut<'a> {
    /// Master parameters of the range.
    pub p: &'a mut [f32],
    /// First-moment buffer of the range.
    pub m: &'a mut [f32],
    /// Second-moment buffer of the range.
    pub v: &'a mut [f32],
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grads(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37 + 11) % 17) as f32 / 17.0 - 0.5).collect()
    }

    #[test]
    fn sharded_equals_monolithic() {
        let init: Vec<f32> = (0..100).map(|i| i as f32 / 10.0).collect();
        let g = grads(100);
        let mut mono = MixedPrecisionState::new(init.clone(), UpdateRule::adam(), 0.01);
        mono.full_step(&g);

        let mut sharded = MixedPrecisionState::new(init, UpdateRule::adam(), 0.01);
        sharded.begin_step();
        // Update in a scrambled subgroup order.
        for &(a, b) in &[(60, 100), (0, 30), (30, 60)] {
            sharded.update_range(a..b, &g[a..b]);
        }
        assert_eq!(mono.params(), sharded.params());
        assert_eq!(mono.momentum(), sharded.momentum());
        assert_eq!(mono.variance(), sharded.variance());
    }

    #[test]
    fn split_views_update_like_update_range() {
        let init: Vec<f32> = (0..50).map(|i| i as f32 / 7.0).collect();
        let g = grads(50);
        let mut whole = MixedPrecisionState::new(init.clone(), UpdateRule::adam(), 0.01);
        whole.full_step(&g);

        let mut split = MixedPrecisionState::new(init, UpdateRule::adam(), 0.01);
        split.begin_step();
        let (rule, step, lr) = (split.rule(), split.step_count(), split.lr());
        let ranges = [0..10, 10..10, 10..35, 35..50];
        for (r, view) in ranges.iter().zip(split.split_ranges_mut(ranges.clone())) {
            rule.apply(step, lr, view.p, &g[r.clone()], view.m, view.v);
        }
        assert_eq!(whole, split);
    }

    #[test]
    fn split_views_skip_gaps() {
        let mut s = MixedPrecisionState::new(vec![0.0; 10], UpdateRule::adam(), 0.1);
        let views = s.split_ranges_mut([2..4, 7..10]);
        assert_eq!(views.iter().map(|v| v.p.len()).collect::<Vec<_>>(), [2, 3]);
        for view in views {
            view.p.fill(1.0);
        }
        assert_eq!(s.params(), &[0., 0., 1., 1., 0., 0., 0., 1., 1., 1.]);
    }

    #[test]
    #[should_panic(expected = "ranges must ascend")]
    fn split_views_reject_overlap() {
        let mut s = MixedPrecisionState::new(vec![0.0; 10], UpdateRule::adam(), 0.1);
        s.split_ranges_mut([0..5, 4..8]);
    }

    #[test]
    #[should_panic(expected = "range out of bounds")]
    fn split_views_reject_out_of_bounds() {
        let mut s = MixedPrecisionState::new(vec![0.0; 10], UpdateRule::adam(), 0.1);
        s.split_ranges_mut([0..2, 8..11]);
    }

    #[test]
    fn from_parts_round_trips_through_accessors() {
        let mut s = MixedPrecisionState::new(vec![1.0, 2.0, 3.0], UpdateRule::adam(), 0.05);
        s.full_step(&grads(3));
        let rebuilt = MixedPrecisionState::from_parts(
            s.params().to_vec(),
            s.momentum().to_vec(),
            s.variance().to_vec(),
            s.rule(),
            s.lr(),
            s.step_count(),
        );
        assert_eq!(rebuilt, s);
        // And it keeps stepping identically.
        let mut a = s.clone();
        let mut b = rebuilt;
        a.full_step(&grads(3));
        b.full_step(&grads(3));
        assert_eq!(a, b);
    }

    #[test]
    fn multiple_steps_track_step_count() {
        let mut s = MixedPrecisionState::new(vec![1.0; 4], UpdateRule::adam(), 0.1);
        assert_eq!(s.step_count(), 0);
        s.full_step(&[0.1; 4]);
        s.full_step(&[0.1; 4]);
        assert_eq!(s.step_count(), 2);
    }

    #[test]
    fn snapshot_and_write_back_round_trip() {
        let mut s = MixedPrecisionState::new(vec![1.0, 2.0, 3.0], UpdateRule::adam(), 0.1);
        s.full_step(&[0.5, 0.5, 0.5]);
        let (p, m, v) = s.snapshot_range(1..3);
        let (p, m, v) = (p.to_vec(), m.to_vec(), v.to_vec());
        let before = s.params().to_vec();
        s.write_back_range(1..3, &p, &m, &v);
        assert_eq!(s.params(), &before[..]);
    }

    #[test]
    fn downscale_matches_f16_rounding() {
        let s = MixedPrecisionState::new(vec![0.1, 1.0, -2.5], UpdateRule::adam(), 0.1);
        let half = s.downscale_range(0..3);
        assert_eq!(half[1].to_f32(), 1.0);
        assert_eq!(half[2].to_f32(), -2.5);
        assert!((half[0].to_f32() - 0.1).abs() < 1e-4);
    }

    #[test]
    fn lr_is_adjustable() {
        let mut s = MixedPrecisionState::new(vec![1.0], UpdateRule::adam(), 0.1);
        s.set_lr(0.5);
        assert_eq!(s.lr(), 0.5);
    }

    #[test]
    #[should_panic(expected = "before begin_step")]
    fn update_requires_begin_step() {
        let mut s = MixedPrecisionState::new(vec![1.0], UpdateRule::adam(), 0.1);
        s.update_range(0..1, &[0.1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn range_bounds_checked() {
        let mut s = MixedPrecisionState::new(vec![1.0], UpdateRule::adam(), 0.1);
        s.begin_step();
        s.update_range(0..2, &[0.1, 0.2]);
    }
}
