//! Global kernel instrumentation counters.
//!
//! The paper reports FLOP counts measured with Linux `perf` (Table 6). We
//! instead instrument the kernels themselves: every SpMM (and the dense
//! gather/scatter baselines in `sptransx`) adds its analytic floating-point
//! operation count to a process-wide counter. Counters use relaxed atomics
//! and are bumped once per kernel call, so the overhead is negligible.
//!
//! # Examples
//!
//! ```
//! sparse::metrics::reset();
//! sparse::metrics::add_flops(128);
//! assert_eq!(sparse::metrics::flops(), 128);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

static FLOPS: AtomicU64 = AtomicU64::new(0);
static SPMM_CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES_TOUCHED: AtomicU64 = AtomicU64::new(0);

/// Adds `n` floating-point operations to the global counter.
#[inline]
pub fn add_flops(n: u64) {
    FLOPS.fetch_add(n, Ordering::Relaxed);
}

/// Adds `n` bytes of estimated memory traffic to the global counter.
#[inline]
pub fn add_bytes(n: u64) {
    BYTES_TOUCHED.fetch_add(n, Ordering::Relaxed);
}

/// Records one SpMM kernel invocation.
#[inline]
pub fn record_spmm_call() {
    SPMM_CALLS.fetch_add(1, Ordering::Relaxed);
}

/// Total floating-point operations recorded since the last [`reset`].
pub fn flops() -> u64 {
    FLOPS.load(Ordering::Relaxed)
}

/// Total SpMM invocations recorded since the last [`reset`].
pub fn spmm_calls() -> u64 {
    SPMM_CALLS.load(Ordering::Relaxed)
}

/// Total estimated bytes moved since the last [`reset`].
pub fn bytes_touched() -> u64 {
    BYTES_TOUCHED.load(Ordering::Relaxed)
}

/// Resets all counters to zero.
pub fn reset() {
    FLOPS.store(0, Ordering::Relaxed);
    SPMM_CALLS.store(0, Ordering::Relaxed);
    BYTES_TOUCHED.store(0, Ordering::Relaxed);
}

/// A point-in-time snapshot of all counters; subtract two to get a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Floating-point operations.
    pub flops: u64,
    /// SpMM kernel invocations.
    pub spmm_calls: u64,
    /// Estimated bytes moved.
    pub bytes_touched: u64,
}

/// Takes a snapshot of the current counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        flops: flops(),
        spmm_calls: spmm_calls(),
        bytes_touched: bytes_touched(),
    }
}

impl std::ops::Sub for Snapshot {
    type Output = Snapshot;
    fn sub(self, rhs: Self) -> Snapshot {
        Snapshot {
            flops: self.flops.saturating_sub(rhs.flops),
            spmm_calls: self.spmm_calls.saturating_sub(rhs.spmm_calls),
            bytes_touched: self.bytes_touched.saturating_sub(rhs.bytes_touched),
        }
    }
}
