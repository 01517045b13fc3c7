//! ZenFlow-style stall-free cross-iteration updates (functional clock).
//!
//! The paper's update phase — and [`crate::hybrid_update_pooled`], its functional
//! twin — runs *inside* the iteration barrier: the next forward pass waits
//! for every subgroup update. ZenFlow (arXiv 2505.12242) breaks that
//! barrier with an **importance partition**: the top-p subgroups by
//! gradient norm update immediately (they would drift the most if
//! delayed), while the cold bulk accumulates gradients and is updated
//! asynchronously by CPU workers that run concurrently with the *next*
//! iteration's forward/backward, under a **bounded staleness** window `S`.
//!
//! [`ZenFlowPipeline`] is that algorithm on the [`crate::sync`] facade, so
//! `dos-check` can exhaustively explore the cross-iteration rendezvous:
//!
//! * `step(state, grads)` — rank the subgroups by `Σ g²`, update the hot
//!   set synchronously via [`MixedPrecisionState::update_range`], and for
//!   each cold subgroup accumulate the gradient; once a subgroup's
//!   accumulated age reaches `S`, snapshot its `p/m/v` lanes and dispatch
//!   a detached [`sync::spawn`] worker that applies the update off-thread
//!   (the "during iteration i+1" CPU work).
//! * the **rendezvous-before-touch** rule: a range with an in-flight
//!   worker is never read, snapshotted, or re-dispatched until its handle
//!   is joined and written back. Every worker's inputs are therefore
//!   schedule-invariant, and because disjoint-range writes commute
//!   bitwise, the post-[`ZenFlowPipeline::drain`] state is identical
//!   across *all* thread schedules — the property the `zf` check scenario
//!   proves against [`zenflow_reference`].
//! * `poll_pending(state)` — an optional harvest of already-finished
//!   workers (an [`is_finished`](sync::JoinHandle::is_finished) yield
//!   point). `step` itself never harvests opportunistically, so
//!   mid-run master state depends only on the algorithm, not the
//!   schedule.
//!
//! [`zenflow_reference`] is the sequential bounded-staleness oracle: the
//! same selection/accumulation/flush decisions executed inline on one
//! thread. The pipeline must match it bit-for-bit on every schedule.

use dos_optim::MixedPrecisionState;
use dos_zero::SubgroupSpec;

use crate::sync;

/// Knobs of the asynchronous update policy (mirrors the `dos-train`
/// config fields `importance_ratio` / `staleness_bound`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZenFlowConfig {
    /// Fraction of subgroups updated synchronously on the "GPU" path each
    /// step (top-p by squared gradient norm). Clamped to [0, 1]; at least
    /// one subgroup is always hot.
    pub importance_ratio: f64,
    /// Bounded staleness window `S`: a cold subgroup's gradient may be
    /// delayed at most `S` steps before its update is forced. Treated as
    /// at least 1 (S = 0 degenerates to every subgroup hot-path
    /// synchronous anyway).
    pub staleness_bound: usize,
}

impl Default for ZenFlowConfig {
    fn default() -> Self {
        ZenFlowConfig { importance_ratio: 0.1, staleness_bound: 1 }
    }
}

impl ZenFlowConfig {
    /// Number of hot (synchronously updated) subgroups for `n` subgroups:
    /// `ceil(ratio · n)`, at least 1, at most `n`.
    pub fn hot_count(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let h = (self.importance_ratio.clamp(0.0, 1.0) * n as f64).ceil() as usize;
        h.clamp(1, n)
    }

    /// The effective staleness window (`max(S, 1)`).
    pub fn effective_staleness(&self) -> usize {
        self.staleness_bound.max(1)
    }
}

/// What one [`ZenFlowPipeline::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZenFlowStepReport {
    /// Subgroup ids updated synchronously this step (the importance set),
    /// ascending.
    pub hot: Vec<usize>,
    /// Subgroup ids whose accumulated update was dispatched to an
    /// asynchronous worker this step, ascending.
    pub flushed: Vec<usize>,
}

/// Selects the hot (synchronous) subgroup ids for one step: the top
/// [`ZenFlowConfig::hot_count`] subgroups by `Σ g²` over their range,
/// ties broken toward the lower id, returned ascending.
///
/// Shared between [`ZenFlowPipeline`] and [`zenflow_reference`] so both
/// clocks make bit-identical partition decisions.
fn select_hot(subgroups: &[SubgroupSpec], cfg: &ZenFlowConfig, grads: &[f32]) -> Vec<usize> {
    let mut scored: Vec<(f64, usize)> = subgroups
        .iter()
        .enumerate()
        .map(|(j, sg)| {
            let score: f64 =
                grads[sg.range()].iter().map(|g| (*g as f64) * (*g as f64)).sum();
            (score, j)
        })
        .collect();
    // Highest importance first; lower id wins ties so the partition is a
    // pure function of the gradient.
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut hot: Vec<usize> = scored
        .into_iter()
        .take(cfg.hot_count(subgroups.len()))
        .map(|(_, j)| j)
        .collect();
    hot.sort_unstable();
    hot
}

/// The result a cold-update worker hands back: the updated `(p, m, v)`
/// lanes for its range.
type Lanes = (Vec<f32>, Vec<f32>, Vec<f32>);

/// Cross-iteration asynchronous update driver (see module docs).
#[derive(Debug)]
pub struct ZenFlowPipeline {
    subgroups: Vec<SubgroupSpec>,
    cfg: ZenFlowConfig,
    /// Per-subgroup accumulated (summed) gradient since its last applied
    /// update; empty = nothing pending.
    accum: Vec<Vec<f32>>,
    /// Steps since the subgroup's gradient was last applied (0 = fresh).
    age: Vec<usize>,
    /// In-flight asynchronous worker per subgroup (rendezvous-before-touch:
    /// the range is untouchable until this is joined and written back).
    inflight: Vec<Option<sync::JoinHandle<Lanes>>>,
    max_age_seen: usize,
}

impl ZenFlowPipeline {
    /// Builds a pipeline over `subgroups` (the partition of the state the
    /// steps will drive).
    pub fn new(subgroups: Vec<SubgroupSpec>, cfg: ZenFlowConfig) -> ZenFlowPipeline {
        let n = subgroups.len();
        ZenFlowPipeline {
            subgroups,
            cfg,
            accum: vec![Vec::new(); n],
            age: vec![0; n],
            inflight: (0..n).map(|_| None).collect(),
            max_age_seen: 0,
        }
    }

    /// The configured policy.
    pub fn config(&self) -> &ZenFlowConfig {
        &self.cfg
    }

    /// Number of subgroups updated synchronously each step.
    pub fn hot_count(&self) -> usize {
        self.cfg.hot_count(self.subgroups.len())
    }

    /// The maximum staleness (in steps) any cold subgroup's gradient has
    /// reached so far. The bounded-staleness invariant is
    /// `max_age_seen() <= config().effective_staleness()`.
    pub fn max_age_seen(&self) -> usize {
        self.max_age_seen
    }

    /// Number of asynchronous workers currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.iter().filter(|h| h.is_some()).count()
    }

    /// Joins subgroup `j`'s in-flight worker (if any) and writes its lanes
    /// back — the rendezvous that must precede any touch of the range.
    fn join_subgroup(&mut self, state: &mut MixedPrecisionState, j: usize) {
        if let Some(handle) = self.inflight[j].take() {
            match handle.join() {
                Ok((p, m, v)) => {
                    state.write_back_range(self.subgroups[j].range(), &p, &m, &v)
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    }

    /// Runs one training step: hot subgroups update synchronously, cold
    /// subgroups accumulate, and any cold subgroup whose age reaches the
    /// staleness window is dispatched to an asynchronous worker.
    ///
    /// Deliberately performs **no** opportunistic harvest of finished
    /// workers — use [`ZenFlowPipeline::poll_pending`] between steps or
    /// [`ZenFlowPipeline::drain`] at the end — so the master state after
    /// any step is a pure function of the inputs, never of the thread
    /// schedule.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len() != state.len()` or if an asynchronous worker
    /// panicked (the panic is propagated).
    pub fn step(
        &mut self,
        state: &mut MixedPrecisionState,
        grads: &[f32],
    ) -> ZenFlowStepReport {
        assert_eq!(
            grads.len(),
            state.len(),
            "gradient length must match parameter count"
        );
        state.begin_step();
        let step = state.step_count();
        let lr = state.lr();
        let rule = state.rule();

        let hot = select_hot(&self.subgroups, &self.cfg, grads);
        let window = self.cfg.effective_staleness();
        let mut flushed: Vec<usize> = Vec::new();

        let mut hot_iter = hot.iter().copied().peekable();
        for j in 0..self.subgroups.len() {
            let range = self.subgroups[j].range();
            let is_hot = hot_iter.peek() == Some(&j);
            if is_hot {
                hot_iter.next();
                // Rendezvous before touching the range, then apply the
                // accumulated + current gradient in one synchronous update.
                self.join_subgroup(state, j);
                if self.age[j] > 0 {
                    let mut eff = std::mem::take(&mut self.accum[j]);
                    for (e, g) in eff.iter_mut().zip(&grads[range.clone()]) {
                        *e += *g;
                    }
                    state.update_range(range, &eff);
                    self.age[j] = 0;
                } else {
                    state.update_range(range.clone(), &grads[range]);
                }
            } else {
                // Cold: accumulate and age.
                if self.accum[j].is_empty() {
                    self.accum[j] = grads[range.clone()].to_vec();
                } else {
                    for (e, g) in self.accum[j].iter_mut().zip(&grads[range.clone()]) {
                        *e += *g;
                    }
                }
                self.age[j] += 1;
                self.max_age_seen = self.max_age_seen.max(self.age[j]);
                if self.age[j] >= window {
                    // Drain barrier: the bound would be exceeded next
                    // step, so flush now via an asynchronous worker.
                    self.join_subgroup(state, j);
                    let (p, m, v) = state.snapshot_range(range.clone());
                    let (mut p, mut m, mut v) = (p.to_vec(), m.to_vec(), v.to_vec());
                    let eff = std::mem::take(&mut self.accum[j]);
                    self.inflight[j] = Some(sync::spawn(move || {
                        rule.apply(step, lr, &mut p, &eff, &mut m, &mut v);
                        (p, m, v)
                    }));
                    self.age[j] = 0;
                    flushed.push(j);
                }
            }
        }
        ZenFlowStepReport { hot, flushed }
    }

    /// Harvests workers that have already finished (via
    /// [`sync::JoinHandle::is_finished`] — a scheduling yield point under
    /// `dos-check`) and writes their lanes back. Returns how many were
    /// collected. Optional: correctness never depends on calling this,
    /// only [`ZenFlowPipeline::drain`] is mandatory before reading the
    /// final state.
    pub fn poll_pending(&mut self, state: &mut MixedPrecisionState) -> usize {
        let mut collected = 0;
        for j in 0..self.subgroups.len() {
            if self.inflight[j].as_ref().is_some_and(|h| h.is_finished()) {
                self.join_subgroup(state, j);
                collected += 1;
            }
        }
        collected
    }

    /// Joins every in-flight worker and applies any residual accumulated
    /// gradient inline (at the current step count), leaving the state
    /// exactly where the sequential oracle lands. Must be called before
    /// the final state is read or checkpointed.
    pub fn drain(&mut self, state: &mut MixedPrecisionState) {
        for j in 0..self.subgroups.len() {
            self.join_subgroup(state, j);
            if self.age[j] > 0 {
                let eff = std::mem::take(&mut self.accum[j]);
                state.update_range(self.subgroups[j].range(), &eff);
                self.age[j] = 0;
            }
        }
    }
}

/// The sequential bounded-staleness oracle: executes exactly the decisions
/// of [`ZenFlowPipeline`] — same importance partition, same accumulation,
/// same flush-at-`S` points, same drain residue — inline on one thread.
/// Returns the maximum staleness any cold gradient reached.
///
/// Because the pipeline's workers receive schedule-invariant inputs and
/// write back disjoint ranges, every terminal (drained) pipeline state is
/// bitwise equal to the state this function leaves behind.
///
/// # Panics
///
/// Panics if any step's gradient length differs from `state.len()`.
pub fn zenflow_reference(
    state: &mut MixedPrecisionState,
    subgroups: &[SubgroupSpec],
    cfg: &ZenFlowConfig,
    steps: &[Vec<f32>],
) -> usize {
    let n = subgroups.len();
    let mut accum: Vec<Vec<f32>> = vec![Vec::new(); n];
    let mut age = vec![0usize; n];
    let mut max_age = 0usize;
    let window = cfg.effective_staleness();

    for grads in steps {
        assert_eq!(
            grads.len(),
            state.len(),
            "gradient length must match parameter count"
        );
        state.begin_step();
        let hot = select_hot(subgroups, cfg, grads);
        let mut hot_iter = hot.iter().copied().peekable();
        for (j, sg) in subgroups.iter().enumerate() {
            let range = sg.range();
            let is_hot = hot_iter.peek() == Some(&j);
            if is_hot {
                hot_iter.next();
                if age[j] > 0 {
                    let mut eff = std::mem::take(&mut accum[j]);
                    for (e, g) in eff.iter_mut().zip(&grads[range.clone()]) {
                        *e += *g;
                    }
                    state.update_range(range, &eff);
                    age[j] = 0;
                } else {
                    state.update_range(range.clone(), &grads[range]);
                }
            } else {
                if accum[j].is_empty() {
                    accum[j] = grads[range.clone()].to_vec();
                } else {
                    for (e, g) in accum[j].iter_mut().zip(&grads[range.clone()]) {
                        *e += *g;
                    }
                }
                age[j] += 1;
                max_age = max_age.max(age[j]);
                if age[j] >= window {
                    let eff = std::mem::take(&mut accum[j]);
                    state.update_range(range, &eff);
                    age[j] = 0;
                }
            }
        }
    }
    // Drain residue, mirroring `ZenFlowPipeline::drain`.
    for (j, sg) in subgroups.iter().enumerate() {
        if age[j] > 0 {
            let eff = std::mem::take(&mut accum[j]);
            state.update_range(sg.range(), &eff);
            age[j] = 0;
        }
    }
    max_age
}

#[cfg(test)]
mod tests {
    use super::*;
    use dos_optim::UpdateRule;
    use dos_zero::partition_into_subgroups;

    fn init(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 13 + 5) % 31) as f32 / 31.0).collect()
    }

    fn grads(n: usize, step: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 7 + step * 11 + 1) % 29) as f32 / 29.0 - 0.5)
            .collect()
    }

    fn fresh(n: usize) -> MixedPrecisionState {
        MixedPrecisionState::new(init(n), UpdateRule::adam(), 0.01)
    }

    fn run_pipeline(
        n: usize,
        subgroup: usize,
        cfg: ZenFlowConfig,
        steps: usize,
        poll: bool,
    ) -> (MixedPrecisionState, usize) {
        let subgroups = partition_into_subgroups(n, subgroup);
        let mut state = fresh(n);
        let mut pipe = ZenFlowPipeline::new(subgroups, cfg);
        for t in 0..steps {
            pipe.step(&mut state, &grads(n, t));
            if poll {
                pipe.poll_pending(&mut state);
            }
        }
        pipe.drain(&mut state);
        (state, pipe.max_age_seen())
    }

    fn run_reference(
        n: usize,
        subgroup: usize,
        cfg: ZenFlowConfig,
        steps: usize,
    ) -> (MixedPrecisionState, usize) {
        let subgroups = partition_into_subgroups(n, subgroup);
        let mut state = fresh(n);
        let all: Vec<Vec<f32>> = (0..steps).map(|t| grads(n, t)).collect();
        let max_age = zenflow_reference(&mut state, &subgroups, &cfg, &all);
        (state, max_age)
    }

    fn assert_bitwise(a: &MixedPrecisionState, b: &MixedPrecisionState) {
        for (lane, (xs, ys)) in [
            ("params", (a.params(), b.params())),
            ("momentum", (a.momentum(), b.momentum())),
            ("variance", (a.variance(), b.variance())),
        ] {
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{lane}[{i}] diverged: {x} vs {y}"
                );
            }
        }
        assert_eq!(a.step_count(), b.step_count());
    }

    #[test]
    fn pipeline_matches_reference_bitwise() {
        for (ratio, s) in [(0.25, 1), (0.25, 2), (0.5, 1), (0.34, 3)] {
            let cfg = ZenFlowConfig { importance_ratio: ratio, staleness_bound: s };
            let (p_state, p_age) = run_pipeline(48, 8, cfg, 5, false);
            let (r_state, r_age) = run_reference(48, 8, cfg, 5);
            assert_bitwise(&p_state, &r_state);
            assert_eq!(p_age, r_age, "staleness bookkeeping diverged");
        }
    }

    #[test]
    fn polling_between_steps_does_not_change_the_terminal_state() {
        let cfg = ZenFlowConfig { importance_ratio: 0.25, staleness_bound: 2 };
        let (polled, _) = run_pipeline(48, 8, cfg, 6, true);
        let (unpolled, _) = run_pipeline(48, 8, cfg, 6, false);
        assert_bitwise(&polled, &unpolled);
    }

    #[test]
    fn staleness_never_exceeds_the_bound() {
        for s in 1..=3 {
            let cfg = ZenFlowConfig { importance_ratio: 0.2, staleness_bound: s };
            let (_, max_age) = run_pipeline(40, 8, cfg, 8, false);
            assert!(max_age <= s, "max age {max_age} exceeded bound {s}");
            assert!(max_age > 0, "cold path never exercised");
        }
    }

    #[test]
    fn ratio_one_is_fully_synchronous_adam() {
        // Every subgroup hot every step: identical to plain full steps.
        let cfg = ZenFlowConfig { importance_ratio: 1.0, staleness_bound: 3 };
        let (zen, max_age) = run_pipeline(32, 8, cfg, 4, false);
        let mut plain = fresh(32);
        for t in 0..4 {
            plain.full_step(&grads(32, t));
        }
        assert_bitwise(&zen, &plain);
        assert_eq!(max_age, 0);
    }

    #[test]
    fn hot_count_clamps_and_rounds_up() {
        let cfg = ZenFlowConfig { importance_ratio: 0.1, staleness_bound: 1 };
        assert_eq!(cfg.hot_count(6), 1);
        assert_eq!(cfg.hot_count(0), 0);
        let third = ZenFlowConfig { importance_ratio: 0.34, staleness_bound: 1 };
        assert_eq!(third.hot_count(6), 3);
        let all = ZenFlowConfig { importance_ratio: 1.0, staleness_bound: 1 };
        assert_eq!(all.hot_count(6), 6);
        let zero = ZenFlowConfig { importance_ratio: 0.0, staleness_bound: 1 };
        assert_eq!(zero.hot_count(6), 1, "at least one subgroup stays hot");
    }

    #[test]
    fn hot_selection_tracks_gradient_magnitude() {
        // Put all the gradient energy in the last subgroup: it must be hot.
        let subgroups = partition_into_subgroups(24, 8);
        let mut g = vec![1e-3f32; 24];
        for x in &mut g[16..24] {
            *x = 0.9;
        }
        let cfg = ZenFlowConfig { importance_ratio: 0.34, staleness_bound: 1 };
        let hot = select_hot(&subgroups, &cfg, &g);
        assert!(hot.contains(&2), "high-energy subgroup not selected: {hot:?}");
    }

    #[test]
    fn drain_flushes_inflight_and_residue() {
        let cfg = ZenFlowConfig { importance_ratio: 0.25, staleness_bound: 3 };
        let subgroups = partition_into_subgroups(32, 8);
        let mut state = fresh(32);
        let mut pipe = ZenFlowPipeline::new(subgroups, cfg);
        pipe.step(&mut state, &grads(32, 0));
        // One step with S=3: cold subgroups hold residue, nothing flushed.
        assert_eq!(pipe.in_flight(), 0);
        pipe.drain(&mut state);
        let (ref_state, _) = run_reference(32, 8, cfg, 1);
        assert_bitwise(&state, &ref_state);
    }
}
