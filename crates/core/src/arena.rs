//! Pinned-buffer arena pool for zero-copy pipeline stage handoffs.
//!
//! Every subgroup the hybrid pipeline ships to the device worker needs
//! staging buffers (`p`, `m`, `v`, `g` in FP32; the worker downscales
//! straight into the host's FP16 output). Allocating those per subgroup
//! per step is exactly
//! the churn the paper's pinned-buffer design avoids: real DMA requires
//! page-locked memory, which is expensive to register, so implementations
//! keep a fixed arena of pinned buffers and recycle them. [`ArenaPool`]
//! is that arena's functional analogue: leased buffers hand themselves
//! back on drop — wherever the drop happens, CPU thread or device worker
//! — so a steady-state `hybrid_update_pooled` allocates nothing per subgroup.
//!
//! The pool is the pipeline's *host memory meter*: its in-use/high-water
//! gauges (exported through `dos-telemetry` as `arena.in_use_bytes` /
//! `arena.high_water_bytes`) are what `ResidentPolicy::Headroom` observes
//! on the functional path to size static residents — the host-RSS
//! analogue of the simulator's HBM headroom signal.

use std::sync::Arc;

use parking_lot::Mutex;

use dos_telemetry::MetricsRegistry;
use dos_tensor::{kernels, F16};

/// Gauge name for bytes currently leased from the pool.
pub const GAUGE_IN_USE: &str = "arena.in_use_bytes";
/// Gauge name for the peak of [`GAUGE_IN_USE`] since the last reset.
pub const GAUGE_HIGH_WATER: &str = "arena.high_water_bytes";

#[derive(Debug, Default)]
struct Inner {
    free_f32: Vec<Vec<f32>>,
    free_f16: Vec<Vec<F16>>,
    in_use_bytes: usize,
    high_water_bytes: usize,
    hits: u64,
    misses: u64,
}

/// A shared, thread-safe pool of reusable `f32`/`F16` staging buffers.
///
/// Clones share storage, so one handle can stay on the CPU thread while
/// another travels into the device worker. Leases are accounted in bytes
/// (logical length × element size); the high-water mark is the peak
/// concurrent lease footprint and can be read-and-reset per iteration.
///
/// # Examples
///
/// ```
/// use dos_core::ArenaPool;
///
/// let pool = ArenaPool::new();
/// let a = pool.lease_f32_copy(&[1.0, 2.0, 3.0]);
/// assert_eq!(&a[..], &[1.0, 2.0, 3.0]);
/// assert_eq!(pool.in_use_bytes(), 12);
/// drop(a);
/// assert_eq!(pool.in_use_bytes(), 0);
/// let b = pool.lease_f32_copy(&[4.0]); // recycles a's buffer
/// assert_eq!(pool.reuse_hits(), 1);
/// # drop(b);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ArenaPool {
    inner: Arc<Mutex<Inner>>,
    metrics: Option<MetricsRegistry>,
}

impl ArenaPool {
    /// Creates an empty pool with no metrics export.
    pub fn new() -> ArenaPool {
        ArenaPool::default()
    }

    /// Creates an empty pool that mirrors its in-use/high-water bytes into
    /// `metrics` as the [`GAUGE_IN_USE`] and [`GAUGE_HIGH_WATER`] gauges on
    /// every lease and return.
    pub fn with_metrics(metrics: MetricsRegistry) -> ArenaPool {
        ArenaPool { inner: Arc::default(), metrics: Some(metrics) }
    }

    fn publish(&self, inner: &Inner) {
        if let Some(m) = &self.metrics {
            m.set_gauge(GAUGE_IN_USE, inner.in_use_bytes as f64);
            m.set_gauge(GAUGE_HIGH_WATER, inner.high_water_bytes as f64);
        }
    }

    fn lease_raw_f32(&self, bytes: usize) -> Vec<f32> {
        let mut inner = self.inner.lock();
        let buf = match inner.free_f32.pop() {
            Some(b) => {
                inner.hits += 1;
                b
            }
            None => {
                inner.misses += 1;
                Vec::new()
            }
        };
        inner.in_use_bytes += bytes;
        inner.high_water_bytes = inner.high_water_bytes.max(inner.in_use_bytes);
        self.publish(&inner);
        buf
    }

    /// Leases a buffer holding a copy of `src` (Algorithm 1's prefetch
    /// staging: the subgroup state is copied into a pinned buffer, not
    /// reallocated).
    pub fn lease_f32_copy(&self, src: &[f32]) -> PooledF32 {
        let mut buf = self.lease_raw_f32(src.len() * 4);
        buf.clear();
        buf.extend_from_slice(src);
        PooledF32 { buf, pool: self.clone() }
    }

    /// Leases an FP16 buffer filled with the downscaled contents of `src`
    /// (the device-side `.half()` copy), using the vectorized conversion
    /// kernel.
    pub fn lease_f16_downscaled(&self, src: &[f32]) -> PooledF16 {
        let bytes = src.len() * 2;
        let mut inner = self.inner.lock();
        let mut buf = match inner.free_f16.pop() {
            Some(b) => {
                inner.hits += 1;
                b
            }
            None => {
                inner.misses += 1;
                Vec::new()
            }
        };
        inner.in_use_bytes += bytes;
        inner.high_water_bytes = inner.high_water_bytes.max(inner.in_use_bytes);
        self.publish(&inner);
        drop(inner);
        // Only a grown tail is zero-filled; the downscale overwrites it all.
        buf.resize(src.len(), F16::ZERO);
        kernels::downscale(src, &mut buf);
        PooledF16 { buf, pool: self.clone() }
    }

    fn return_f32(&self, buf: Vec<f32>, bytes: usize) {
        let mut inner = self.inner.lock();
        inner.in_use_bytes = inner.in_use_bytes.saturating_sub(bytes);
        inner.free_f32.push(buf);
        self.publish(&inner);
    }

    fn return_f16(&self, buf: Vec<F16>, bytes: usize) {
        let mut inner = self.inner.lock();
        inner.in_use_bytes = inner.in_use_bytes.saturating_sub(bytes);
        inner.free_f16.push(buf);
        self.publish(&inner);
    }

    /// Bytes currently leased out.
    pub fn in_use_bytes(&self) -> usize {
        self.inner.lock().in_use_bytes
    }

    /// Peak concurrent lease footprint since creation or the last
    /// [`ArenaPool::take_high_water_bytes`].
    pub fn high_water_bytes(&self) -> usize {
        self.inner.lock().high_water_bytes
    }

    /// Returns the high-water mark and resets it to the current in-use
    /// level — the per-iteration read the resident-sizing policy consumes.
    pub fn take_high_water_bytes(&self) -> usize {
        let mut inner = self.inner.lock();
        let peak = inner.high_water_bytes;
        inner.high_water_bytes = inner.in_use_bytes;
        self.publish(&inner);
        peak
    }

    /// Leases served by recycling a previously returned buffer.
    pub fn reuse_hits(&self) -> u64 {
        self.inner.lock().hits
    }

    /// Leases that had to allocate a fresh buffer.
    pub fn allocation_misses(&self) -> u64 {
        self.inner.lock().misses
    }
}

/// A leased `f32` buffer; returns itself to the pool on drop.
#[derive(Debug)]
pub struct PooledF32 {
    buf: Vec<f32>,
    pool: ArenaPool,
}

impl std::ops::Deref for PooledF32 {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledF32 {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for PooledF32 {
    fn drop(&mut self) {
        let bytes = self.buf.len() * 4;
        self.pool.clone().return_f32(std::mem::take(&mut self.buf), bytes);
    }
}

/// A leased `F16` buffer; returns itself to the pool on drop.
#[derive(Debug)]
pub struct PooledF16 {
    buf: Vec<F16>,
    pool: ArenaPool,
}

impl std::ops::Deref for PooledF16 {
    type Target = [F16];
    fn deref(&self) -> &[F16] {
        &self.buf
    }
}

impl Drop for PooledF16 {
    fn drop(&mut self) {
        let bytes = self.buf.len() * 2;
        self.pool.clone().return_f16(std::mem::take(&mut self.buf), bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_copy_round_trips_and_accounts_bytes() {
        let pool = ArenaPool::new();
        let a = pool.lease_f32_copy(&[1.0, 2.0]);
        let b = pool.lease_f32_copy(&[3.0; 10]);
        assert_eq!(&a[..], &[1.0, 2.0]);
        assert_eq!(pool.in_use_bytes(), 8 + 40);
        assert_eq!(pool.high_water_bytes(), 48);
        drop(a);
        assert_eq!(pool.in_use_bytes(), 40);
        assert_eq!(pool.high_water_bytes(), 48, "high water is sticky");
        drop(b);
        assert_eq!(pool.in_use_bytes(), 0);
    }

    #[test]
    fn buffers_are_recycled_not_reallocated() {
        let pool = ArenaPool::new();
        drop(pool.lease_f32_copy(&[0.0; 64]));
        drop(pool.lease_f32_copy(&[1.0; 32])); // reuses the 64-cap buffer
        assert_eq!(pool.reuse_hits(), 1);
        assert_eq!(pool.allocation_misses(), 1);
        drop(pool.lease_f16_downscaled(&[1.0; 16]));
        drop(pool.lease_f16_downscaled(&[2.0; 16]));
        assert_eq!(pool.reuse_hits(), 2);
    }

    #[test]
    fn downscaled_lease_matches_scalar_oracle() {
        let src: Vec<f32> = (0..100).map(|i| (i as f32).sin() * 70000.0).collect();
        let pool = ArenaPool::new();
        let got = pool.lease_f16_downscaled(&src);
        for (x, h) in src.iter().zip(got.iter()) {
            assert_eq!(h.to_bits(), F16::from_f32(*x).to_bits());
        }
    }

    #[test]
    fn recycled_downscale_leases_overwrite_stale_contents() {
        let pool = ArenaPool::new();
        let long: Vec<f32> = (0..300).map(|i| (i as f32 * 0.7).cos() * 3.0e4).collect();
        let short: Vec<f32> = (0..70).map(|i| -(i as f32) * 913.0 - 0.5).collect();
        let longer: Vec<f32> = (0..1000).map(|i| (i as f32).sin() * 7.0e4 + 1e-7).collect();
        // One buffer, reused at a shorter and then a longer length.
        for src in [&long, &short, &longer] {
            let got = pool.lease_f16_downscaled(src);
            let mut want = vec![F16::ZERO; src.len()];
            kernels::downscale_reference(src, &mut want);
            assert_eq!(&got[..], &want[..], "len {}", src.len());
        }
        assert_eq!(pool.allocation_misses(), 1);
        assert_eq!(pool.reuse_hits(), 2);
    }

    #[test]
    fn take_high_water_resets_to_current_in_use() {
        let pool = ArenaPool::new();
        let a = pool.lease_f32_copy(&[0.0; 100]);
        drop(pool.lease_f32_copy(&[0.0; 100]));
        assert_eq!(pool.take_high_water_bytes(), 800);
        assert_eq!(pool.high_water_bytes(), 400, "reset lands on live leases");
        drop(a);
    }

    #[test]
    fn gauges_are_published_through_telemetry() {
        let metrics = MetricsRegistry::new();
        let pool = ArenaPool::with_metrics(metrics.clone());
        let a = pool.lease_f32_copy(&[0.0; 25]);
        assert_eq!(metrics.gauge(GAUGE_IN_USE), Some(100.0));
        assert_eq!(metrics.gauge(GAUGE_HIGH_WATER), Some(100.0));
        drop(a);
        assert_eq!(metrics.gauge(GAUGE_IN_USE), Some(0.0));
        assert_eq!(metrics.gauge(GAUGE_HIGH_WATER), Some(100.0));
    }

    #[test]
    fn clones_share_the_pool_across_threads() {
        let pool = ArenaPool::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        drop(pool.lease_f32_copy(&[1.0; 128]));
                    }
                });
            }
        });
        assert_eq!(pool.in_use_bytes(), 0);
        assert!(pool.reuse_hits() + pool.allocation_misses() == 200);
        assert!(pool.allocation_misses() <= 4, "at most one fresh buffer per thread");
    }
}
