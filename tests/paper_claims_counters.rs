//! The paper's claims that read the process-global counters: FLOPs and
//! SpMM calls (`sparse::metrics`) and peak tensor memory (`tensor::memory`).
//!
//! Every run in a binary shares those counters, and the harness runs a
//! binary's tests concurrently, so a sibling's kernels or allocations would
//! leak into these measurements. This binary holds only counter tests, and
//! each one takes [`SERIAL`] for its whole body, so nothing else in the
//! process moves the counters while it runs.

use std::sync::{Mutex, MutexGuard, PoisonError};

use kg::synthetic::SyntheticKgBuilder;

use sptransx::{
    DenseTorusE, DenseTransE, DenseTransH, DenseTransR, KgeModel, SpTorusE, SpTransE, SpTransH,
    SpTransR, TrainConfig, Trainer,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn dataset() -> kg::Dataset {
    SyntheticKgBuilder::new(2_000, 30)
        .triples(12_000)
        .seed(55)
        .build()
}

fn config() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 2048,
        dim: 32,
        rel_dim: 16,
        lr: 0.01,
        ..Default::default()
    }
}

fn reports<S: KgeModel, D: KgeModel>(
    sparse: S,
    dense: D,
) -> (sptransx::TrainReport, sptransx::TrainReport) {
    let ds = dataset();
    let cfg = config();
    let rs = Trainer::new(sparse, &ds, &cfg).unwrap().run().unwrap();
    let rd = Trainer::new(dense, &ds, &cfg).unwrap().run().unwrap();
    (rs, rd)
}

/// Table 6's claim: the sparse schedule executes fewer floating-point
/// operations for every model.
#[test]
fn sparse_uses_fewer_flops_all_models() {
    let _serial = serial();
    let ds = dataset();
    let cfg = config();
    macro_rules! pair {
        ($sp:ident, $de:ident, $name:literal) => {{
            let (rs, rd) = reports(
                $sp::from_config(&ds, &cfg).unwrap(),
                $de::from_config(&ds, &cfg).unwrap(),
            );
            assert!(
                rs.flops < rd.flops,
                "{}: sparse {} !< dense {}",
                $name,
                rs.flops,
                rd.flops
            );
        }};
    }
    pair!(SpTransE, DenseTransE, "TransE");
    pair!(SpTorusE, DenseTorusE, "TorusE");
    pair!(SpTransR, DenseTransR, "TransR");
    pair!(SpTransH, DenseTransH, "TransH");
}

/// Table 5's claim: the sparse schedule allocates less peak tensor memory.
#[test]
fn sparse_uses_less_peak_memory_all_models() {
    let _serial = serial();
    let ds = dataset();
    let cfg = config();
    macro_rules! pair {
        ($sp:ident, $de:ident, $name:literal) => {{
            // Runs must be serialized: peak-memory tracking is global.
            let rs = Trainer::new($sp::from_config(&ds, &cfg).unwrap(), &ds, &cfg)
                .unwrap()
                .run()
                .unwrap();
            let rd = Trainer::new($de::from_config(&ds, &cfg).unwrap(), &ds, &cfg)
                .unwrap()
                .run()
                .unwrap();
            assert!(
                rs.peak_memory_bytes <= rd.peak_memory_bytes,
                "{}: sparse {} !<= dense {}",
                $name,
                rs.peak_memory_bytes,
                rd.peak_memory_bytes
            );
        }};
    }
    pair!(SpTransE, DenseTransE, "TransE");
    pair!(SpTorusE, DenseTorusE, "TorusE");
    pair!(SpTransR, DenseTransR, "TransR");
    pair!(SpTransH, DenseTransH, "TransH");
}

/// The paper's Appendix G: backward-of-SpMM is transpose-SpMM, so the number
/// of SpMM kernel calls in sparse TransE training is exactly
/// `epochs × batches × 2 sides × 2 (fwd + bwd)`.
#[test]
fn spmm_call_count_matches_formula() {
    let _serial = serial();
    let ds = dataset();
    let cfg = config();
    let mut trainer = Trainer::new(SpTransE::from_config(&ds, &cfg).unwrap(), &ds, &cfg).unwrap();
    let batches = trainer.num_batches();
    let report = trainer.run().unwrap();
    let expected = (cfg.epochs * batches * 4) as u64;
    assert_eq!(report.spmm_calls, expected);
}
