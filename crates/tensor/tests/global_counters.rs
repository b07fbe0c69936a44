//! Tests that assert on the process-global `tensor::memory` counters.
//!
//! Those counters are shared by every test in a binary, and the harness
//! runs a binary's tests concurrently, so a sibling allocating tensors or
//! running kernels would make these exact assertions racy. This binary
//! holds only counter tests, and each one takes [`SERIAL`] for its whole
//! body: while it runs, nothing else in the process touches the counters
//! (the convention of `sptransx/tests/alloc_regression.rs`).

use std::sync::{Mutex, MutexGuard, PoisonError};

use proptest::prelude::*;
use tensor::memory::{current_bytes, peak_bytes, reset_peak};
use tensor::{Arena, Tensor};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; its counters are balanced again by
    // the time the guard drops, so the next test may proceed.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn tracks_alloc_and_free() {
    let _serial = serial();
    let before = current_bytes();
    let t = Tensor::zeros(100, 10);
    assert_eq!(current_bytes(), before + 100 * 10 * 4);
    drop(t);
    assert_eq!(current_bytes(), before);
}

#[test]
fn peak_survives_drop() {
    let _serial = serial();
    reset_peak();
    let base = current_bytes();
    {
        let _a = Tensor::zeros(50, 50);
        let _b = Tensor::zeros(50, 50);
    }
    assert!(peak_bytes() >= base + 2 * 50 * 50 * 4);
}

#[test]
fn clone_registers_its_own_buffer() {
    let _serial = serial();
    let before = current_bytes();
    let a = Tensor::zeros(10, 10);
    let b = a.clone();
    assert_eq!(current_bytes(), before + 2 * 10 * 10 * 4);
    drop(a);
    drop(b);
    assert_eq!(current_bytes(), before);
}

#[test]
fn reclaimed_bytes_stay_registered_until_clear() {
    let _serial = serial();
    let mut arena = Arena::new();
    let before = current_bytes();
    let t = Tensor::zeros_in(&mut arena, 10, 10);
    assert_eq!(current_bytes(), before + 400);
    arena.reclaim(t);
    assert_eq!(
        current_bytes(),
        before + 400,
        "pooled buffers are live working set"
    );
    assert_eq!(arena.held_bytes(), 400);
    arena.clear();
    assert_eq!(current_bytes(), before);
    assert_eq!(arena.pooled_buffers(), 0);
}

#[test]
fn drop_releases_held_accounting() {
    let _serial = serial();
    let before = current_bytes();
    {
        let mut arena = Arena::new();
        let t = Tensor::zeros_in(&mut arena, 8, 8);
        arena.reclaim(t);
        assert!(current_bytes() >= before + 256);
    }
    assert_eq!(current_bytes(), before);
}

fn small_matrix() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..8, 1usize..8)
        .prop_flat_map(|(m, n)| (Just(m), Just(n), prop::collection::vec(-3.0f32..3.0, m * n)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every tensor allocation is balanced by its drop.
    #[test]
    fn memory_accounting_balances((m, n, data) in small_matrix()) {
        let _serial = serial();
        let before = current_bytes();
        {
            let t = Tensor::from_vec(m, n, data);
            let c = t.clone();
            prop_assert_eq!(
                current_bytes(),
                before + 2 * (m * n * 4) as u64
            );
            drop(c);
        }
        prop_assert_eq!(current_bytes(), before);
    }
}
