//! Tests that assert on the process-global `sparse::metrics` counters.
//!
//! The counters are shared by every test in a binary, and one of these
//! tests resets them, which would break any concurrently running delta
//! measurement. This binary holds only counter tests, and each one takes
//! [`SERIAL`] for its whole body, so nothing else in the process moves the
//! counters while it runs.

use std::sync::{Mutex, MutexGuard, PoisonError};

use sparse::metrics::{add_bytes, add_flops, record_spmm_call, reset, snapshot};
use sparse::spmm::csr_spmm;
use sparse::{CooMatrix, DenseMatrix};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn counters_accumulate_and_reset() {
    let _serial = serial();
    reset();
    add_flops(10);
    add_flops(5);
    record_spmm_call();
    add_bytes(100);
    let snap = snapshot();
    assert!(snap.flops >= 15);
    assert!(snap.spmm_calls >= 1);
    assert!(snap.bytes_touched >= 100);
    reset();
    // The reset is observable through a fresh delta.
    let before = snapshot();
    add_flops(1);
    let delta = snapshot() - before;
    assert!(delta.flops >= 1);
}

#[test]
fn flop_counter_increments() {
    let _serial = serial();
    let before = snapshot();
    let a = CooMatrix::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 1, -1.0)])
        .unwrap()
        .to_csr();
    let b = DenseMatrix::zeros(2, 8);
    let _ = csr_spmm(&a, &b);
    let delta = snapshot() - before;
    // ±1 incidence row: (nnz - rows) * n = (2 - 1) * 8 additions.
    assert!(delta.flops >= 8);
    assert!(delta.spmm_calls >= 1);
}
