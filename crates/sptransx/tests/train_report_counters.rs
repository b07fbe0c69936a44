//! The `Trainer` report fields read from the process-global counters:
//! FLOPs and SpMM calls (`sparse::metrics`) and peak tensor memory
//! (`tensor::memory`, whose peak every run resets).
//!
//! A concurrent sibling run in the same binary would reset the peak and
//! leak its kernels into these fields, so this binary holds a single test
//! (the convention of `alloc_regression.rs`).

use std::time::Duration;

use kg::synthetic::SyntheticKgBuilder;
use sptransx::{SpTransE, TrainConfig, Trainer};

#[test]
fn transe_loss_decreases() {
    let ds = SyntheticKgBuilder::new(60, 5).triples(500).seed(30).build();
    let cfg = TrainConfig {
        epochs: 4,
        batch_size: 128,
        dim: 12,
        rel_dim: 6,
        lr: 0.05,
        ..Default::default()
    };
    let mut t = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
    let report = t.run().unwrap();
    assert!(report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap());
    assert!(report.flops > 0);
    assert!(report.spmm_calls > 0);
    assert!(report.peak_memory_bytes > 0);
    assert!(report.breakdown.total() <= report.wall + Duration::from_millis(50));
}
