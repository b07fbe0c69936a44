//! Out-of-core training contract: the paged parameter store moves bytes,
//! never arithmetic.
//!
//! Three pillars, mirroring the CI `out-of-core-smoke` job in-process:
//!
//! 1. **Bit-identity** — training with the embedding table paged to backing
//!    storage under a tight cache budget produces byte-for-byte the same
//!    losses and final embeddings as the fully resident run, over both the
//!    in-RAM and file-backed [`tensor::RowStorage`] backends.
//! 2. **Counter validation** — the pager's hit/miss counters are replayed
//!    through an independent `simcache` fully-associative LRU model over the
//!    same row trace ([`simcache::replay_rows_lru`]) and must match
//!    *exactly*.
//! 3. **Failure modes** — budgets below the working set, incompatible
//!    optimizers, and the data-parallel driver all refuse loudly instead of
//!    silently corrupting state.
//!
//! The step-level suite also pins the paged SpMM forward and its
//! slot-addressed transpose backward: every score, loss, gradient row and
//! trained table of SpTransE and SpTorusE, under each of their norms and at
//! several pool widths, equals the resident run bit for bit.

use kg::synthetic::SyntheticKgBuilder;
use kg::{BatchPlan, Dataset, UniformSampler};
use sptransx::{
    FileRowStorage, KgeModel, Norm, OptimizerKind, SpTorusE, SpTransE, TrainConfig, Trainer,
};
use tensor::{Graph, PageStats, RowStorage, VecStorage};
use xparallel::PoolHandle;

fn dataset() -> Dataset {
    SyntheticKgBuilder::new(200, 4)
        .triples(1200)
        .seed(9)
        .build()
}

fn config() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 16,
        dim: 8,
        lr: 0.05,
        seed: 7,
        ..Default::default()
    }
}

/// A cache budget safely above any batch's working set (≤ 3 rows per triple
/// × 2 incidence matrices × 16 triples) but well below the 204-row table,
/// so every epoch exercises eviction and write-back.
const BUDGET: usize = 96;

struct Run {
    embeddings: Vec<f32>,
    losses: Vec<f32>,
}

fn train_resident(ds: &Dataset, cfg: &TrainConfig) -> Run {
    let model = SpTransE::from_config(ds, cfg).unwrap();
    let emb = model.embedding_param();
    let mut trainer = Trainer::new(model, ds, cfg).unwrap();
    let report = trainer.run().unwrap();
    let model = trainer.into_model();
    Run {
        embeddings: model.store().value(emb).as_slice().to_vec(),
        losses: report.epoch_losses,
    }
}

/// Trains with the table paged out to `storage`, returning the run plus the
/// pager's counters and row trace (collected before unpaging).
fn train_paged(
    ds: &Dataset,
    cfg: &TrainConfig,
    storage: Box<dyn RowStorage>,
    budget: usize,
) -> (Run, PageStats, Vec<u32>) {
    let model = SpTransE::from_config(ds, cfg).unwrap();
    let emb = model.embedding_param();
    let mut trainer = Trainer::new(model, ds, cfg).unwrap();
    let store = trainer.model_mut().store_mut();
    store.page_out(emb, storage, budget).unwrap();
    store.pager_mut(emb).unwrap().set_tracing(true);
    let report = trainer.run().unwrap();
    let store = trainer.model_mut().store_mut();
    let pager = store.pager(emb).unwrap();
    let stats = pager.stats();
    let trace = pager.trace().unwrap().to_vec();
    store.unpage(emb).unwrap();
    let model = trainer.into_model();
    (
        Run {
            embeddings: model.store().value(emb).as_slice().to_vec(),
            losses: report.epoch_losses,
        },
        stats,
        trace,
    )
}

fn assert_bits_equal(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn paged_training_is_bit_identical_to_resident_vec_backend() {
    let ds = dataset();
    let cfg = config();
    let resident = train_resident(&ds, &cfg);
    let (rows, cols) = (204, cfg.dim);
    let (paged, stats, _) = train_paged(&ds, &cfg, Box::new(VecStorage::new(rows, cols)), BUDGET);
    assert_eq!(paged.losses, resident.losses, "per-epoch losses diverged");
    assert_bits_equal(&paged.embeddings, &resident.embeddings, "embeddings");
    // The tight budget really exercised the machinery.
    assert!(stats.evictions > 0, "no evictions at budget {BUDGET}");
    assert!(stats.write_backs > 0, "no write-backs at budget {BUDGET}");
}

#[test]
fn paged_training_is_bit_identical_to_resident_file_backend() {
    let ds = dataset();
    let cfg = config();
    let resident = train_resident(&ds, &cfg);
    let dir = std::env::temp_dir().join("sptx-paged-store-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("table_{}.bin", std::process::id()));
    let storage = FileRowStorage::create(&path, 204, cfg.dim).unwrap();
    let (paged, stats, _) = train_paged(&ds, &cfg, Box::new(storage), BUDGET);
    std::fs::remove_file(&path).ok();
    assert_eq!(paged.losses, resident.losses, "per-epoch losses diverged");
    assert_bits_equal(&paged.embeddings, &resident.embeddings, "embeddings");
    assert!(stats.write_backs > 0, "dirty rows never hit the file");
}

#[test]
fn pager_counters_match_simcache_lru_replay_exactly() {
    let ds = dataset();
    let cfg = config();
    let (_, stats, trace) = train_paged(&ds, &cfg, Box::new(VecStorage::new(204, cfg.dim)), BUDGET);
    assert_eq!(
        stats.hits + stats.misses,
        trace.len() as u64,
        "every traced access is a hit or a miss"
    );
    let sim = simcache::replay_rows_lru(&trace, BUDGET);
    assert_eq!(
        stats.hits, sim.hits,
        "hit counts diverge from the LRU model"
    );
    assert_eq!(
        stats.misses, sim.misses,
        "miss counts diverge from the LRU model"
    );
    // Fully associative with sequential slot fill: the first `BUDGET` misses
    // occupy free slots, every later miss evicts exactly one row.
    assert_eq!(
        stats.evictions,
        stats.misses.saturating_sub(BUDGET as u64),
        "eviction count inconsistent with fully-associative fill"
    );
}

#[test]
fn counters_match_model_at_full_table_budget_too() {
    // Budget = whole table: after compulsory misses everything hits and
    // nothing is ever evicted.
    let ds = dataset();
    let cfg = config();
    let (_, stats, trace) = train_paged(&ds, &cfg, Box::new(VecStorage::new(204, cfg.dim)), 204);
    let sim = simcache::replay_rows_lru(&trace, 204);
    assert_eq!((stats.hits, stats.misses), (sim.hits, sim.misses));
    assert_eq!(stats.evictions, 0);
    assert!(stats.misses <= 204, "at most one compulsory miss per row");
}

#[test]
fn budget_below_working_set_is_a_hard_error() {
    let ds = dataset();
    let cfg = config();
    let model = SpTransE::from_config(&ds, &cfg).unwrap();
    let emb = model.embedding_param();
    let mut trainer = Trainer::new(model, &ds, &cfg).unwrap();
    trainer
        .model_mut()
        .store_mut()
        .page_out(emb, Box::new(VecStorage::new(204, cfg.dim)), 4)
        .unwrap();
    let err = trainer
        .run()
        .expect_err("a 4-row budget cannot hold a batch");
    let msg = err.to_string();
    assert!(
        msg.contains("cache budget"),
        "unexpected error message: {msg}"
    );
}

#[test]
fn page_out_rejects_invalid_configurations() {
    let ds = dataset();
    let cfg = config();
    let mut model = SpTransE::from_config(&ds, &cfg).unwrap();
    let emb = model.embedding_param();
    // Shape mismatch between the parameter and the backing store.
    assert!(model
        .store_mut()
        .page_out(emb, Box::new(VecStorage::new(10, 3)), 8)
        .is_err());
    // Zero budget.
    assert!(model
        .store_mut()
        .page_out(emb, Box::new(VecStorage::new(204, cfg.dim)), 0)
        .is_err());
    // Paging out twice.
    model
        .store_mut()
        .page_out(emb, Box::new(VecStorage::new(204, cfg.dim)), 32)
        .unwrap();
    assert!(model
        .store_mut()
        .page_out(emb, Box::new(VecStorage::new(204, cfg.dim)), 32)
        .is_err());
}

#[test]
#[should_panic(expected = "does not support paged parameters")]
fn adagrad_refuses_paged_parameters() {
    let ds = dataset();
    let cfg = TrainConfig {
        optimizer: OptimizerKind::Adagrad,
        ..config()
    };
    let model = SpTransE::from_config(&ds, &cfg).unwrap();
    let emb = model.embedding_param();
    let mut trainer = Trainer::new(model, &ds, &cfg).unwrap();
    trainer
        .model_mut()
        .store_mut()
        .page_out(emb, Box::new(VecStorage::new(204, cfg.dim)), BUDGET)
        .unwrap();
    let _ = trainer.run();
}

#[test]
fn data_parallel_driver_rejects_paged_models() {
    let ds = dataset();
    let cfg = config();
    let err = sptransx::distributed::train_data_parallel(&ds, &cfg, 2, |ds, cfg| {
        let mut m = SpTransE::from_config(ds, cfg)?;
        let emb = m.embedding_param();
        m.store_mut()
            .page_out(emb, Box::new(VecStorage::new(204, cfg.dim)), BUDGET)?;
        Ok(m)
    })
    .expect_err("paged replicas must be rejected");
    assert!(err.to_string().contains("data-parallel"));
}

#[test]
fn unpaged_table_round_trips_through_storage() {
    // page_out → a few batches → unpage restores a fully resident table
    // usable by the (paging-unaware) evaluation path.
    let ds = dataset();
    let cfg = TrainConfig {
        epochs: 1,
        ..config()
    };
    let resident = train_resident(&ds, &cfg);
    let (paged, _, _) = train_paged(&ds, &cfg, Box::new(VecStorage::new(204, cfg.dim)), BUDGET);
    assert_bits_equal(&paged.embeddings, &resident.embeddings, "one-epoch table");
}

#[test]
fn hogwild_driver_rejects_paged_models() {
    let ds = dataset();
    let cfg = config();
    let err = sptransx::distributed::train_hogwild(&ds, &cfg, 2, |ds, cfg| {
        let mut m = SpTransE::from_config(ds, cfg)?;
        let emb = m.embedding_param();
        m.store_mut()
            .page_out(emb, Box::new(VecStorage::new(204, cfg.dim)), BUDGET)?;
        Ok(m)
    })
    .expect_err("paged replicas must be rejected");
    assert!(err.to_string().contains("asynchronous driver"));
}

#[test]
fn file_backend_coalesces_io_transfers_below_per_row_counts() {
    // Write coalescing: the pager batches maximal runs of adjacent rows into
    // single storage transfers, so over a full training run the *transfer*
    // counts must come in strictly below the per-row miss/write-back
    // counters — while the bytes on disk stay exactly what a row-at-a-time
    // pager would have written.
    let ds = dataset();
    let cfg = config();
    let dir = std::env::temp_dir().join("sptx-test-io-coalescing");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("emb.bin");

    let model = SpTransE::from_config(&ds, &cfg).unwrap();
    let emb = model.embedding_param();
    let mut trainer = Trainer::new(model, &ds, &cfg).unwrap();
    let store = trainer.model_mut().store_mut();
    let (rows, cols) = store.param_shape(emb);
    store
        .page_out(
            emb,
            Box::new(FileRowStorage::create(&path, rows, cols).unwrap()),
            BUDGET,
        )
        .unwrap();
    trainer.run().unwrap();

    let store = trainer.model_mut().store_mut();
    store.flush_paged(emb).unwrap();
    let pager = store.pager(emb).unwrap();
    let stats = pager.stats();
    let (reads, writes) = pager.storage_io_ops();
    assert!(
        stats.misses > 0 && stats.write_backs > 0,
        "budget too loose"
    );
    assert!(
        reads < stats.misses,
        "no read coalescing: {reads} transfers for {} misses",
        stats.misses
    );
    assert!(
        writes < stats.write_backs,
        "no write coalescing: {writes} transfers for {} write-backs",
        stats.write_backs
    );

    // Unchanged bytes: the flushed file must hold exactly the table the
    // pager reassembles, row for row.
    store.unpage(emb).unwrap();
    let final_emb = trainer.model().store().value(emb).as_slice().to_vec();
    let mut reopened = FileRowStorage::open(&path).unwrap();
    let mut from_disk = vec![0f32; rows * cols];
    reopened.read_rows_into(0, rows, &mut from_disk).unwrap();
    assert_bits_equal(&from_disk, &final_emb, "flushed file vs final table");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every bit a training run produces, step by step: the positive and
/// negative scores, the loss, each touched gradient row (row index, then
/// its bits) and, at the end, the trained table.
fn step_trace<M: KgeModel>(
    mut model: M,
    plan: &BatchPlan,
    cfg: &TrainConfig,
    width: usize,
    budget: Option<usize>,
) -> Vec<u32> {
    let pool = PoolHandle::global().with_width(width);
    let emb = model.store().lookup("embeddings").unwrap();
    model.attach_plan(plan).unwrap();
    let (rows, cols) = model.store().param_shape(emb);
    if let Some(budget) = budget {
        let storage = Box::new(VecStorage::new(rows, cols));
        model.store_mut().page_out(emb, storage, budget).unwrap();
    }
    let mut graph = Graph::with_pool(pool.clone());
    let mut opt = cfg.optimizer.build(cfg.lr);
    opt.set_pool(&pool);
    let mut trace = Vec::new();
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for _ in 0..cfg.epochs {
        for b in 0..model.num_batches() {
            model.store_mut().zero_grads();
            model.page_in_batch(b).unwrap();
            graph.reset();
            let (pos, neg) = model.score_batch(&mut graph, b);
            let loss = graph.margin_ranking_loss(pos, neg, cfg.margin);
            graph.backward(loss, model.store_mut());
            trace.extend(bits(graph.value(pos).as_slice()));
            trace.extend(bits(graph.value(neg).as_slice()));
            trace.extend(bits(graph.value(loss).as_slice()));
            let store = model.store();
            let grads = store.grad_table(emb);
            for &r in store.touched(emb).as_slice().unwrap() {
                let s = grads.slot(r as usize);
                trace.push(r);
                trace.extend(bits(&grads.data()[s * cols..(s + 1) * cols]));
            }
            opt.step(model.store_mut());
        }
        model.end_epoch();
    }
    if let Some(pager) = model.store().pager(emb) {
        assert!(pager.stats().evictions > 0, "no eviction pressure");
    }
    model.store_mut().unpage(emb).unwrap();
    trace.extend(bits(model.store().value(emb).as_slice()));
    trace
}

/// Trains `ctor`'s model resident at pool width 1 and paged under eviction
/// pressure at widths 1, 4 and 8, for each norm, and demands equal bits.
fn assert_paged_steps_match_resident<M: KgeModel>(
    norms: [Norm; 2],
    ctor: fn(&Dataset, &TrainConfig) -> sptransx::Result<M>,
) {
    let ds = dataset();
    let plan = BatchPlan::build(
        &ds.train,
        &ds.all_known(),
        &UniformSampler::new(ds.num_entities),
        16,
        7,
    );
    for norm in norms {
        let cfg = TrainConfig {
            epochs: 2,
            norm,
            ..config()
        };
        let resident = step_trace(ctor(&ds, &cfg).unwrap(), &plan, &cfg, 1, None);
        for width in [1, 4, 8] {
            let paged = step_trace(ctor(&ds, &cfg).unwrap(), &plan, &cfg, width, Some(BUDGET));
            assert!(
                paged == resident,
                "{norm:?}: paged run at width {width} diverged from the resident run"
            );
        }
    }
}

#[test]
fn paged_sptranse_steps_match_resident_at_every_width() {
    assert_paged_steps_match_resident([Norm::L1, Norm::L2], SpTransE::from_config);
}

#[test]
fn paged_sptoruse_steps_match_resident_at_every_width() {
    assert_paged_steps_match_resident([Norm::TorusL1, Norm::TorusL2], SpTorusE::from_config);
}
