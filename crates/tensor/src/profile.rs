//! Named wall-clock timers for training-phase attribution, with per-scope
//! bytes/flops attribution.
//!
//! The paper breaks training time into forward / backward / optimizer-step
//! (Table 1, Figure 8) and attributes CPU time to individual functions
//! (Figure 2). Every autograd op and trainer phase wraps itself in a
//! [`scope`]; the accumulated totals regenerate those artifacts.
//!
//! Each scope additionally attributes the `sparse::metrics` counter deltas
//! (estimated bytes moved, floating-point ops) that elapsed while it was
//! open, so a Table-5-style report can show *which kernel* saved memory
//! traffic — e.g. that the SpMM scope moves fewer bytes than the gather,
//! add and subtract scopes of the dense baseline. Attribution is exact when one
//! scope's kernels run at a time (the trainer's case: ops execute in tape
//! order, parallel only *inside* a kernel); concurrently open scopes each
//! absorb the whole process-wide delta, the same overlap semantics as the
//! timers.
//!
//! # Thread safety
//!
//! Scopes fire concurrently once training runs on the `xparallel` pool
//! (data-parallel workers each replay a full tape), so the registry must not
//! serialize every drop behind one lock. Each distinct scope name gets one
//! leaked entry of relaxed atomics; recording is two `fetch_add`s. The
//! global name → entry map is only locked on the *first* use of a name per
//! thread — afterwards a thread-local cache resolves the entry lock-free.
//! [`reset`] zeroes the atomics in place (entries with zero calls are
//! filtered from reports), so resets never invalidate cached pointers.
//!
//! # Examples
//!
//! ```
//! tensor::profile::reset();
//! {
//!     let _t = tensor::profile::scope("my_phase");
//!     std::thread::sleep(std::time::Duration::from_millis(1));
//! }
//! let report = tensor::profile::report();
//! assert!(report.iter().any(|e| e.name == "my_phase" && e.calls == 1));
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Accumulated totals for one scope name. Leaked on first registration so
/// worker threads can hold `'static` references without locking.
#[derive(Debug, Default)]
struct Entry {
    nanos: AtomicU64,
    calls: AtomicU64,
    bytes: AtomicU64,
    flops: AtomicU64,
}

static REGISTRY: Mutex<Option<HashMap<&'static str, &'static Entry>>> = Mutex::new(None);

thread_local! {
    /// Per-thread name → entry cache; hit on every drop after the first.
    static LOCAL: RefCell<HashMap<&'static str, &'static Entry>> = RefCell::new(HashMap::new());
}

/// Resolves (registering if needed) the shared entry for `name`.
///
/// Names are compared by value, so the same string literal from different
/// crates or threads lands in one entry.
fn entry_for(name: &'static str) -> &'static Entry {
    LOCAL.with(|local| {
        if let Some(e) = local.borrow().get(name) {
            return *e;
        }
        let mut reg = REGISTRY.lock();
        let map = reg.get_or_insert_with(HashMap::new);
        let e = *map
            .entry(name)
            .or_insert_with(|| Box::leak(Box::new(Entry::default())));
        local.borrow_mut().insert(name, e);
        e
    })
}

/// One row of a profiling [`report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportEntry {
    /// Scope name.
    pub name: &'static str,
    /// Accumulated wall-clock time.
    pub total: Duration,
    /// Number of times the scope was entered.
    pub calls: u64,
    /// Estimated bytes moved by kernels while the scope was open
    /// (`sparse::metrics` delta).
    pub bytes: u64,
    /// Floating-point operations recorded while the scope was open.
    pub flops: u64,
}

/// RAII guard recording elapsed time (and the kernel-counter deltas) into
/// the named bucket on drop.
#[derive(Debug)]
pub struct ScopeGuard {
    entry: &'static Entry,
    start: Instant,
    metrics_start: sparse::metrics::Snapshot,
}

/// Starts a named timing scope.
///
/// Names must be `'static` (string literals); nesting is allowed and each
/// scope accumulates independently (no exclusive-time or exclusive-traffic
/// subtraction). Safe to enter from any thread concurrently.
pub fn scope(name: &'static str) -> ScopeGuard {
    ScopeGuard {
        entry: entry_for(name),
        start: Instant::now(),
        metrics_start: sparse::metrics::snapshot(),
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        let delta = sparse::metrics::snapshot() - self.metrics_start;
        self.entry
            .nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.entry.calls.fetch_add(1, Ordering::Relaxed);
        self.entry
            .bytes
            .fetch_add(delta.bytes_touched, Ordering::Relaxed);
        self.entry.flops.fetch_add(delta.flops, Ordering::Relaxed);
    }
}

/// Returns accumulated totals, sorted by descending total time.
///
/// Scopes that have not fired since the last [`reset`] are omitted.
pub fn report() -> Vec<ReportEntry> {
    let reg = REGISTRY.lock();
    let mut rows: Vec<ReportEntry> = reg
        .as_ref()
        .map(|m| {
            m.iter()
                .map(|(&name, e)| ReportEntry {
                    name,
                    total: Duration::from_nanos(e.nanos.load(Ordering::Relaxed)),
                    calls: e.calls.load(Ordering::Relaxed),
                    bytes: e.bytes.load(Ordering::Relaxed),
                    flops: e.flops.load(Ordering::Relaxed),
                })
                .filter(|r| r.calls > 0)
                .collect()
        })
        .unwrap_or_default();
    rows.sort_by_key(|e| std::cmp::Reverse(e.total));
    rows
}

/// Total time recorded under `name` (zero if never entered).
pub fn total(name: &str) -> Duration {
    let reg = REGISTRY.lock();
    reg.as_ref()
        .and_then(|m| {
            m.get(name)
                .map(|e| Duration::from_nanos(e.nanos.load(Ordering::Relaxed)))
        })
        .unwrap_or_default()
}

/// Clears all accumulated totals.
///
/// Entries are zeroed in place (never deallocated), so guards and
/// thread-local caches created before the reset remain valid; a scope open
/// across a reset contributes its full elapsed time to the fresh totals.
pub fn reset() {
    let reg = REGISTRY.lock();
    if let Some(map) = reg.as_ref() {
        for e in map.values() {
            e.nanos.store(0, Ordering::Relaxed);
            e.calls.store(0, Ordering::Relaxed);
            e.bytes.store(0, Ordering::Relaxed);
            e.flops.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `reset()` zeroes every entry process-wide, so tests that reset or
    /// assert exact counts must not interleave; this lock serializes them
    /// (the test harness runs `#[test]`s on parallel threads).
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn scopes_accumulate_calls() {
        let _serial = SERIAL.lock();
        reset();
        for _ in 0..3 {
            let _t = scope("unit_test_scope");
        }
        let rows = report();
        let row = rows.iter().find(|e| e.name == "unit_test_scope").unwrap();
        assert_eq!(row.calls, 3);
    }

    #[test]
    fn total_of_unknown_scope_is_zero() {
        assert_eq!(total("never_entered_xyz"), Duration::ZERO);
    }

    #[test]
    fn scopes_attribute_kernel_counter_deltas() {
        let _serial = SERIAL.lock();
        reset();
        {
            let _t = scope("counter_delta_scope");
            sparse::metrics::add_bytes(4096);
            sparse::metrics::add_flops(512);
        }
        let rows = report();
        let row = rows
            .iter()
            .find(|e| e.name == "counter_delta_scope")
            .unwrap();
        assert!(row.bytes >= 4096, "bytes delta attributed: {}", row.bytes);
        assert!(row.flops >= 512, "flops delta attributed: {}", row.flops);
    }

    #[test]
    fn nested_scopes_both_record() {
        let _serial = SERIAL.lock();
        reset();
        {
            let _a = scope("outer_scope_test");
            let _b = scope("inner_scope_test");
        }
        assert!(report().iter().any(|e| e.name == "outer_scope_test"));
        assert!(report().iter().any(|e| e.name == "inner_scope_test"));
    }

    #[test]
    fn concurrent_scopes_from_many_threads() {
        let _serial = SERIAL.lock();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..250 {
                        let _t = scope("concurrent_scope_test");
                    }
                });
            }
        });
        let rows = report();
        let row = rows
            .iter()
            .find(|e| e.name == "concurrent_scope_test")
            .unwrap();
        assert_eq!(row.calls, 1000);
    }

    #[test]
    fn reset_zeroes_but_keeps_entries_valid() {
        let _serial = SERIAL.lock();
        {
            let _t = scope("reset_target_scope");
        }
        reset();
        assert_eq!(total("reset_target_scope"), Duration::ZERO);
        assert!(!report().iter().any(|e| e.name == "reset_target_scope"));
        // The cached entry still records after the reset.
        {
            let _t = scope("reset_target_scope");
        }
        let rows = report();
        assert!(rows
            .iter()
            .any(|e| e.name == "reset_target_scope" && e.calls == 1));
    }
}
