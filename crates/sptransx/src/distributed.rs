//! Data-parallel training (paper Appendix F).
//!
//! The paper wraps SpTransX in PyTorch DDP and scales TransE to 64 GPUs
//! (Table 9). The single-machine analog here follows DDP's algorithm
//! exactly:
//!
//! 1. the model is **replicated** once per worker (same seed → identical
//!    initial parameters);
//! 2. the batch plan is **sharded** across workers;
//! 3. each synchronous step, every worker computes gradients on its own
//!    batch in parallel — one task per replica on the shared
//!    [`xparallel`] pool (no ad-hoc thread spawns per step);
//! 4. gradients are **all-reduced** (averaged) and the identical optimizer
//!    step is applied to every replica, keeping parameters in lock-step.
//!
//! Workers process `ceil(batches / workers)` steps per epoch, so wall-clock
//! time shrinks with worker count until synchronization overhead dominates —
//! the scaling curve of Table 9.
//!
//! A second, **asynchronous** driver ([`train_hogwild`]) removes the
//! synchronization entirely: workers share one set of parameter tensors
//! ([`tensor::hogwild`]) and apply touched-row SGD updates to them with no
//! barriers and no locks. It is an explicitly nondeterministic ablation
//! arm; the synchronous drivers remain the determinism-contract path.
//!
//! # Pool discipline and determinism
//!
//! Replica tasks execute *on* pool workers, so each replays its tape with a
//! [`PoolHandle::sequential`] handle — fanning the inner kernels back onto
//! the pool the task occupies could deadlock, and DDP ranks are
//! single-threaded over their shard anyway. The all-reduce and the
//! optimizer step run on the caller thread with full pool parallelism, in
//! fixed replica/parameter order. Net effect: a run's losses and final
//! embeddings are bit-identical at any `SPTX_NUM_THREADS`, and repeated
//! runs with the same seed are bit-identical full stop.

use std::time::{Duration, Instant};

use kg::{BatchPlan, Dataset};
use tensor::optim::{Optimizer, Sgd};
use tensor::{Graph, ParamId, Tensor};
use xparallel::{scope_workers, PoolHandle};

use crate::model::{KgeModel, OptimizerKind, TrainConfig};
use crate::train::build_plan;
use crate::Result;

/// Report from a data-parallel run.
#[derive(Debug, Clone)]
pub struct DistributedReport {
    /// Worker count used.
    pub workers: usize,
    /// Mean batch loss per epoch (averaged over workers).
    pub epoch_losses: Vec<f32>,
    /// Total wall-clock time.
    pub wall: Duration,
    /// Optimizer steps executed: lock-step synchronous steps for
    /// [`train_data_parallel`], total per-worker batch steps for
    /// [`train_hogwild`].
    pub steps: usize,
}

/// One replica's slot in a synchronous step: exclusive model and tape
/// access in, local batch loss out. The tape persists across steps, so each
/// replica's arena makes its steady-state step allocation-free.
struct ReplicaTask<'a, M> {
    model: &'a mut M,
    graph: &'a mut Graph,
    size: usize,
    loss: Option<f32>,
}

/// Trains replicas of a model data-parallel over `workers` shards.
///
/// `make_model` must construct identical replicas (it is called `workers`
/// times; deterministic seeded init makes them bit-identical, mirroring
/// DDP's broadcast-from-rank-0).
///
/// # Errors
///
/// Propagates configuration and plan-attachment errors.
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{distributed::train_data_parallel, SpTransE, TrainConfig};
///
/// # fn main() -> Result<(), sptransx::Error> {
/// let ds = SyntheticKgBuilder::new(80, 4).triples(600).seed(9).build();
/// let config = TrainConfig { epochs: 2, batch_size: 64, dim: 8, lr: 0.05, ..Default::default() };
/// let report = train_data_parallel(&ds, &config, 2, |ds, cfg| SpTransE::from_config(ds, cfg))?;
/// assert_eq!(report.workers, 2);
/// # Ok(())
/// # }
/// ```
pub fn train_data_parallel<M, F>(
    dataset: &Dataset,
    config: &TrainConfig,
    workers: usize,
    make_model: F,
) -> Result<DistributedReport>
where
    M: KgeModel + Send,
    F: Fn(&Dataset, &TrainConfig) -> Result<M>,
{
    train_data_parallel_returning(dataset, config, workers, make_model).map(|(report, _)| report)
}

/// Like [`train_data_parallel`] but also returns the rank-0 replica (all
/// replicas are kept in lock-step, so it is *the* trained model). Used by
/// the determinism tests to compare final embeddings bit-for-bit.
///
/// # Errors
///
/// Same conditions as [`train_data_parallel`].
pub fn train_data_parallel_returning<M, F>(
    dataset: &Dataset,
    config: &TrainConfig,
    workers: usize,
    make_model: F,
) -> Result<(DistributedReport, M)>
where
    M: KgeModel + Send,
    F: Fn(&Dataset, &TrainConfig) -> Result<M>,
{
    config.validate()?;
    let workers = workers.max(1);
    let plan = build_plan(dataset, config);
    if plan.num_batches() == 0 {
        return Err(crate::Error::config(
            "batch plan has no batches (empty training set?); refusing to report 0-batch epochs as loss 0",
        ));
    }
    let shards = plan.shard(workers);
    let steps_per_epoch = shards.iter().map(BatchPlan::num_batches).max().unwrap_or(0);

    let mut replicas: Vec<M> = Vec::with_capacity(workers);
    for (w, shard) in shards.iter().enumerate() {
        let mut m = make_model(dataset, config)?;
        // The all-reduce walks full gradient tables and the lock-step
        // audit compares full value tables; both require residency.
        if m.store().has_paged() {
            return Err(crate::Error::config(
                "the data-parallel driver does not support paged parameter stores; \
                 train single-process with --store disk, or use --store ram",
            ));
        }
        m.attach_plan(shard)?;
        m.store_mut().set_dense_grads(config.dense_grads);
        let _ = w;
        replicas.push(m);
    }
    let shard_sizes: Vec<usize> = shards.iter().map(BatchPlan::num_batches).collect();

    let pool = PoolHandle::global();
    // One optimizer *instance per replica*, as DDP gives each rank its own:
    // every replica steps on the same averaged gradient, so per-replica
    // state (Adagrad accumulators, Adam moments) stays bit-identical and
    // the replicas remain in lock-step. A single shared stateful optimizer
    // would advance its state once per replica per synchronous step and
    // desynchronize them (SGD, being stateless, would mask the bug).
    let mut optimizers: Vec<_> = (0..workers)
        .map(|_| {
            let mut opt = config.optimizer.build(config.lr);
            opt.set_pool(&pool);
            opt
        })
        .collect();
    // One persistent sequential tape per replica (reset per step, buffers
    // recycled through its arena) plus a reusable all-reduce accumulator per
    // parameter and a reusable row-union buffer: the steady-state
    // synchronous step is allocation-free.
    let mut graphs: Vec<Graph> = (0..workers)
        .map(|_| Graph::with_pool(PoolHandle::sequential()))
        .collect();
    let param_ids: Vec<ParamId> = replicas[0].store().param_ids();
    let mut reduce_scratch: Vec<Tensor> = param_ids
        .iter()
        .map(|&id| {
            let g = replicas[0].store().grad(id);
            Tensor::zeros(g.rows(), g.cols())
        })
        .collect();
    let mut union_scratch: Vec<u32> = Vec::new();
    let scheduler = config
        .lr_schedule
        .map(|(step, gamma)| tensor::optim::StepLr::new(config.lr, step, gamma));
    let started = Instant::now();
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    let mut steps = 0usize;
    let margin = config.margin;

    for epoch in 0..config.epochs {
        if let Some(sched) = &scheduler {
            // Same decayed rate on every replica's optimizer — identical
            // state keeps the replicas in lock-step, and the distributed
            // run honors `TrainConfig::lr_schedule` exactly as `Trainer`
            // does.
            for opt in optimizers.iter_mut() {
                sched.apply(opt.as_mut(), epoch as u32);
            }
        }
        let mut loss_sum = 0f64;
        let mut loss_count = 0usize;
        for step in 0..steps_per_epoch {
            // Phase 1: local gradient computation, one pool task per
            // replica. Inner tapes are sequential (see module docs).
            let mut tasks: Vec<ReplicaTask<'_, M>> = replicas
                .iter_mut()
                .zip(graphs.iter_mut())
                .zip(&shard_sizes)
                .map(|((model, graph), &size)| ReplicaTask {
                    model,
                    graph,
                    size,
                    loss: None,
                })
                .collect();
            pool.for_each_mut(&mut tasks, |_, task| {
                if task.size == 0 {
                    return;
                }
                let b = step % task.size;
                task.model.store_mut().zero_grads();
                task.graph.reset();
                let (pos, neg) = task.model.score_batch(task.graph, b);
                let loss = task.graph.margin_ranking_loss(pos, neg, margin);
                task.loss = Some(task.graph.value(loss).get(0, 0));
                task.graph.backward(loss, task.model.store_mut());
            });

            for task in &tasks {
                if let Some(l) = task.loss {
                    loss_sum += f64::from(l);
                    loss_count += 1;
                }
            }
            drop(tasks);

            // Phase 2: all-reduce (average) gradients into replica 0.
            let active = shard_sizes.iter().filter(|&&s| s > 0).count().max(1) as f32;
            all_reduce_grads(
                &mut replicas,
                active,
                &param_ids,
                &mut reduce_scratch,
                &mut union_scratch,
            );

            // Phase 3: identical optimizer step on every replica, each
            // through its own (bit-identical) optimizer state.
            for (m, opt) in replicas.iter_mut().zip(optimizers.iter_mut()) {
                opt.step(m.store_mut());
            }
            #[cfg(debug_assertions)]
            assert_replicas_in_lockstep(&replicas, &param_ids);
            steps += 1;
        }
        for m in replicas.iter_mut() {
            m.end_epoch();
        }
        epoch_losses.push(if loss_count == 0 {
            0.0
        } else {
            (loss_sum / loss_count as f64) as f32
        });
    }

    let report = DistributedReport {
        workers,
        epoch_losses,
        wall: started.elapsed(),
        steps,
    };
    let rank0 = replicas.into_iter().next().expect("at least one replica");
    Ok((report, rank0))
}

/// Debug-build enforcement of the DDP contract: after each synchronous
/// step, every replica must hold bit-identical parameters (they all applied
/// the same mean gradient through identical optimizer state). A shared
/// stateful optimizer, or a non-broadcast reduction, fails here on the
/// first divergent step instead of silently returning a rank-0 model that
/// no longer represents "the" trained model.
#[cfg(debug_assertions)]
fn assert_replicas_in_lockstep<M: KgeModel>(replicas: &[M], param_ids: &[ParamId]) {
    let Some((rank0, rest)) = replicas.split_first() else {
        return;
    };
    for (w, other) in rest.iter().enumerate() {
        for &id in param_ids {
            let a = rank0.store().value(id).as_slice();
            let b = other.store().value(id).as_slice();
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "replica {} desynchronized from rank 0 on parameter {:?}",
                w + 1,
                id
            );
            // The dirty sets drive the epoch renormalization sweeps: the
            // all-reduce widens every replica's touched set to the union
            // before the optimizer marks dirty rows, so the sets — and
            // therefore the renorm walks — must be identical too.
            assert_eq!(
                rank0.store().dirty(id).as_slice(),
                other.store().dirty(id).as_slice(),
                "replica {} dirty set desynchronized from rank 0 on parameter {:?}",
                w + 1,
                id
            );
        }
    }
}

/// Averages gradients across replicas and broadcasts the result, so every
/// replica holds the same (mean) gradient — the all-reduce of DDP.
///
/// `scratch` holds one long-lived accumulator per parameter (same order as
/// `param_ids`) and `union_scratch` one reusable row buffer, so the
/// per-step reduction copies bits instead of cloning tensors — same
/// arithmetic, zero allocations at steady state.
///
/// **Touched-row path:** when every replica's row set is sparse, the
/// reduction runs over the **union** of the replica sets — `O(union · d)`
/// per step instead of copying whole gradient tables — and each replica's
/// set is widened to that union (after the broadcast every replica holds
/// gradient exactly on the union rows). Rows outside the union are `+0.0`
/// on every replica, which is precisely what the dense path computes for
/// them, so both paths are bit-identical. Any replica in the dense state
/// falls the whole parameter back to the dense reduction.
fn all_reduce_grads<M: KgeModel>(
    replicas: &mut [M],
    active_workers: f32,
    param_ids: &[ParamId],
    scratch: &mut [Tensor],
    union_scratch: &mut Vec<u32>,
) {
    if replicas.len() < 2 {
        return;
    }
    let scale = 1.0 / active_workers;
    for (&id, acc) in param_ids.iter().zip(scratch.iter_mut()) {
        union_scratch.clear();
        let mut dense = false;
        for m in replicas.iter() {
            match m.store().touched(id).as_slice() {
                None => {
                    dense = true;
                    break;
                }
                Some(rows) => union_scratch.extend_from_slice(rows),
            }
        }
        if dense {
            // Seed the accumulator with replica 0's gradient bits (the
            // allocation-free equivalent of cloning it).
            acc.as_mut_slice()
                .copy_from_slice(replicas[0].store().grad(id).as_slice());
            for other in replicas.iter().skip(1) {
                acc.add_scaled(other.store().grad(id), 1.0);
            }
            for x in acc.as_mut_slice() {
                *x *= scale;
            }
            for m in replicas.iter_mut() {
                // grad_mut marks the replica's row set dense — correct:
                // after a dense broadcast any row may be nonzero.
                let g = m.store_mut().grad_mut(id);
                g.zero_();
                g.add_scaled(acc, 1.0);
            }
            continue;
        }
        union_scratch.sort_unstable();
        union_scratch.dedup();
        let n = acc.cols();
        if n == 0 || union_scratch.is_empty() {
            continue;
        }
        // Reduce the union rows into the scratch, element-for-element the
        // same expressions as the dense path (seed-copy, `+= 1.0 · g`,
        // `*= 1/active`), restricted to rows that can be nonzero.
        {
            let accd = acc.as_mut_slice();
            let g0 = replicas[0].store().grad(id).as_slice();
            for &r in union_scratch.iter() {
                let span = r as usize * n..(r as usize + 1) * n;
                accd[span.clone()].copy_from_slice(&g0[span]);
            }
            for other in replicas.iter().skip(1) {
                let gd = other.store().grad(id).as_slice();
                for &r in union_scratch.iter() {
                    for j in r as usize * n..(r as usize + 1) * n {
                        accd[j] += 1.0 * gd[j];
                    }
                }
            }
            for &r in union_scratch.iter() {
                for x in &mut accd[r as usize * n..(r as usize + 1) * n] {
                    *x *= scale;
                }
            }
        }
        // Broadcast: every replica's gradient becomes the mean on exactly
        // the union rows, and its row set is widened to the union so the
        // optimizer step and the next zero_grads cover them.
        let accd = acc.as_slice();
        for m in replicas.iter_mut() {
            let g = m.store_mut().grad_rows_mut(id, union_scratch);
            let gd = g.as_mut_slice();
            for &r in union_scratch.iter() {
                for j in r as usize * n..(r as usize + 1) * n {
                    gd[j] = 0.0;
                    gd[j] += 1.0 * accd[j];
                }
            }
        }
    }
}

/// One asynchronous worker's slot: a full model replica whose *value*
/// tensors alias the shared canonical buffers, plus worker-private tape,
/// optimizer, gradients, and row sets. Everything a worker mutates
/// concurrently with its peers lives here; everything shared is reached
/// only through the replica's aliased value tensors.
struct HogwildWorker<M> {
    model: M,
    graph: Graph,
    opt: Sgd,
    size: usize,
    loss_sum: f64,
    loss_count: usize,
}

/// Trains a model asynchronously, Hogwild-style: `workers` threads share
/// one set of parameter tensors and apply touched-row SGD updates to them
/// with **no barriers and no locks**.
///
/// Each worker owns a full replica of the model whose *value* tensors alias
/// the canonical shared buffers ([`tensor::ParamStore::share_values`] /
/// [`tensor::ParamStore::alias_values`]); gradients, tapes, and row sets
/// stay worker-private. Per epoch every worker sweeps its shard of the
/// batch plan once, running exactly the synchronous `Trainer` step sequence
/// (zero grads, forward, margin loss, backward, sparse SGD step) — except
/// that the step writes land in shared memory while other workers are mid-
/// step. Workers are joined at every epoch edge, and only then does rank 0
/// run the epoch renormalization over the union of all workers' dirty rows.
///
/// # Nondeterminism
///
/// This is an **ablation arm**, not the determinism-contract path. With 2+
/// workers, update interleaving (and occasional lost increments on row
/// collisions) makes losses and final embeddings run-to-run
/// nondeterministic; validate results statistically. With `workers == 1`
/// the single worker runs inline on the caller thread and the run is
/// bit-identical to the synchronous [`crate::Trainer`].
///
/// # Safety argument
///
/// See [`tensor::hogwild`] for why the races are benign: word-sized aligned
/// `f32` stores never tear, sparse batches make row collisions rare, any
/// bit pattern is a valid `f32`, and epoch-edge joins quiesce the buffers
/// before renormalization, evaluation, or dumping reads them.
///
/// # Errors
///
/// Besides configuration and plan errors, rejects setups whose update rule
/// is not benign under races:
///
/// * non-SGD optimizers (stateful accumulators have read-modify-write
///   dependencies that lose more than an increment on collision);
/// * dense-gradient mode (the dense step rewrites *whole tables* from
///   stale reads, destroying concurrent updates to untouched rows);
/// * paged parameter stores (slot caches are per-store mutable state).
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{distributed::train_hogwild, SpTransE, TrainConfig};
///
/// # fn main() -> Result<(), sptransx::Error> {
/// let ds = SyntheticKgBuilder::new(80, 4).triples(600).seed(9).build();
/// let config = TrainConfig { epochs: 2, batch_size: 64, dim: 8, lr: 0.05, ..Default::default() };
/// let report = train_hogwild(&ds, &config, 2, |ds, cfg| SpTransE::from_config(ds, cfg))?;
/// assert_eq!(report.workers, 2);
/// # Ok(())
/// # }
/// ```
pub fn train_hogwild<M, F>(
    dataset: &Dataset,
    config: &TrainConfig,
    workers: usize,
    make_model: F,
) -> Result<DistributedReport>
where
    M: KgeModel + Send,
    F: Fn(&Dataset, &TrainConfig) -> Result<M>,
{
    train_hogwild_returning(dataset, config, workers, make_model).map(|(report, _)| report)
}

/// Like [`train_hogwild`] but also returns the rank-0 replica. All replicas
/// alias the same shared value buffers, so after the final epoch-edge join
/// rank 0 *is* the trained model; the degenerate-determinism tests compare
/// it bit-for-bit against the synchronous `Trainer` at `workers == 1`.
///
/// # Errors
///
/// Same conditions as [`train_hogwild`].
pub fn train_hogwild_returning<M, F>(
    dataset: &Dataset,
    config: &TrainConfig,
    workers: usize,
    make_model: F,
) -> Result<(DistributedReport, M)>
where
    M: KgeModel + Send,
    F: Fn(&Dataset, &TrainConfig) -> Result<M>,
{
    config.validate()?;
    if config.optimizer != OptimizerKind::Sgd {
        return Err(crate::Error::config(
            "the asynchronous driver supports only --optimizer sgd: stateless scaled-add \
             updates are what make lock-free row collisions benign (a lost increment), while \
             adagrad/adam accumulators have read-modify-write dependencies that corrupt state \
             under races; use the synchronous driver for stateful optimizers",
        ));
    }
    if config.dense_grads {
        return Err(crate::Error::config(
            "the asynchronous driver requires sparse (touched-row) gradients: the dense step \
             rewrites every table row from a stale read, destroying concurrent updates to rows \
             this worker never touched; drop --dense-grads or use the synchronous driver",
        ));
    }
    let workers = workers.max(1);
    let plan = build_plan(dataset, config);
    if plan.num_batches() == 0 {
        return Err(crate::Error::config(
            "batch plan has no batches (empty training set?); refusing to report 0-batch epochs as loss 0",
        ));
    }
    let shards = plan.shard(workers);

    let mut slots: Vec<HogwildWorker<M>> = Vec::with_capacity(workers);
    let mut shared_tables = None;
    for shard in shards.iter() {
        let mut m = make_model(dataset, config)?;
        if m.store().has_paged() {
            return Err(crate::Error::config(
                "the asynchronous driver does not support paged parameter stores; \
                 train single-process with --store disk, or use --store ram",
            ));
        }
        m.attach_plan(shard)?;
        // Replica 0 donates its (seeded, bit-identical-across-replicas)
        // values as the canonical shared buffers; every later replica drops
        // its own copy and aliases them.
        match &shared_tables {
            None => shared_tables = Some(m.store_mut().share_values()?),
            Some(tables) => m.store_mut().alias_values(tables)?,
        }
        let size = shard.num_batches();
        slots.push(HogwildWorker {
            model: m,
            graph: Graph::with_pool(PoolHandle::sequential()),
            // Sequential inner pool for the same reason as the synchronous
            // driver: the step runs *on* a dedicated worker thread, and the
            // contract makes sequential kernels bit-identical anyway.
            opt: Sgd::new(config.lr).with_pool(PoolHandle::sequential()),
            size,
            loss_sum: 0.0,
            loss_count: 0,
        });
    }

    let param_ids: Vec<ParamId> = slots[0].model.store().param_ids();
    let scheduler = config
        .lr_schedule
        .map(|(step, gamma)| tensor::optim::StepLr::new(config.lr, step, gamma));
    let started = Instant::now();
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    let mut steps = 0usize;
    let margin = config.margin;

    for epoch in 0..config.epochs {
        for w in slots.iter_mut() {
            if let Some(sched) = &scheduler {
                sched.apply(&mut w.opt, epoch as u32);
            }
            w.loss_sum = 0.0;
            w.loss_count = 0;
        }
        // The asynchronous sweep: one dedicated thread per worker (inline on
        // the caller thread when `workers == 1`), no synchronization between
        // them until the epoch-edge join below. Each iteration is the
        // synchronous `Trainer` step sequence verbatim; `opt.step` writes
        // through the replica's aliased value tensors into shared memory.
        // `page_in_batch` is omitted: paged stores were rejected above, and
        // it is a guaranteed no-op on resident stores.
        scope_workers(&mut slots, |_, w| {
            for b in 0..w.size {
                w.model.store_mut().zero_grads();
                w.graph.reset();
                let (pos, neg) = w.model.score_batch(&mut w.graph, b);
                let loss = w.graph.margin_ranking_loss(pos, neg, margin);
                w.loss_sum += f64::from(w.graph.value(loss).get(0, 0));
                w.loss_count += 1;
                w.graph.backward(loss, w.model.store_mut());
                w.opt.step(w.model.store_mut());
            }
        });
        // Quiescent point: every worker joined. Fold the workers' dirty
        // rows into rank 0 (clearing them locally) so its renormalization
        // sweep covers everything any worker wrote this epoch, then run the
        // epoch hook on rank 0 alone — the values are shared, so one renorm
        // is the renorm.
        let (rank0, rest) = slots.split_first_mut().expect("at least one worker");
        for w in rest.iter_mut() {
            for &id in &param_ids {
                match w.model.store().dirty(id).as_slice() {
                    None => rank0.model.store_mut().mark_all_dirty(id),
                    Some(rows) => rank0.model.store_mut().mark_dirty(id, rows),
                }
                w.model.store_mut().for_dirty_rows(id, |_, _| false);
            }
        }
        rank0.model.end_epoch();

        let mut loss_sum = 0f64;
        let mut loss_count = 0usize;
        for w in slots.iter() {
            loss_sum += w.loss_sum;
            loss_count += w.loss_count;
        }
        steps += loss_count;
        epoch_losses.push(if loss_count == 0 {
            0.0
        } else {
            (loss_sum / loss_count as f64) as f32
        });
    }

    let report = DistributedReport {
        workers,
        epoch_losses,
        wall: started.elapsed(),
        steps,
    };
    let rank0 = slots.into_iter().next().expect("at least one worker").model;
    Ok((report, rank0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpTransE;
    use kg::synthetic::SyntheticKgBuilder;

    fn dataset() -> Dataset {
        SyntheticKgBuilder::new(60, 4).triples(600).seed(40).build()
    }

    fn config() -> TrainConfig {
        TrainConfig {
            epochs: 3,
            batch_size: 64,
            dim: 8,
            lr: 0.05,
            ..Default::default()
        }
    }

    #[test]
    fn single_worker_matches_step_count() {
        let ds = dataset();
        let cfg = config();
        let r = train_data_parallel(&ds, &cfg, 1, SpTransE::from_config).unwrap();
        assert_eq!(r.workers, 1);
        assert_eq!(r.steps, 3 * (540usize.div_ceil(64)));
    }

    #[test]
    fn multi_worker_reduces_steps() {
        let ds = dataset();
        let cfg = config();
        let r1 = train_data_parallel(&ds, &cfg, 1, SpTransE::from_config).unwrap();
        let r4 = train_data_parallel(&ds, &cfg, 4, SpTransE::from_config).unwrap();
        assert!(r4.steps < r1.steps, "{} !< {}", r4.steps, r1.steps);
    }

    #[test]
    fn replicas_stay_synchronized_and_loss_decreases() {
        let ds = dataset();
        let cfg = config();
        let r = train_data_parallel(&ds, &cfg, 3, SpTransE::from_config).unwrap();
        assert!(r.epoch_losses.last().unwrap() <= r.epoch_losses.first().unwrap());
    }

    #[test]
    fn touched_row_renorm_stays_in_lockstep_at_2_and_3_workers() {
        // The all-reduce widens every replica's touched set to the union, so
        // the per-param dirty sets — and the epoch renormalization sweeps
        // they drive — must stay identical across replicas, and the
        // touched-row sweep must remain bit-identical to the dense ablation.
        // Running under debug assertions this also exercises the dirty-set
        // comparison inside `assert_replicas_in_lockstep`.
        let ds = dataset();
        for workers in [2, 3] {
            let sparse_cfg = config();
            let dense_cfg = TrainConfig {
                dense_grads: true,
                ..config()
            };
            let (_, m_sparse) =
                train_data_parallel_returning(&ds, &sparse_cfg, workers, SpTransE::from_config)
                    .unwrap();
            let (_, m_dense) =
                train_data_parallel_returning(&ds, &dense_cfg, workers, SpTransE::from_config)
                    .unwrap();
            let a = m_sparse.store().value(m_sparse.embedding_param());
            let b = m_dense.store().value(m_dense.embedding_param());
            assert!(
                a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "touched-row renorm diverged from dense ablation at {workers} workers"
            );
        }
    }

    #[test]
    fn hogwild_covers_every_batch_and_loss_decreases() {
        let ds = dataset();
        let cfg = config();
        let r = train_hogwild(&ds, &cfg, 4, SpTransE::from_config).unwrap();
        assert_eq!(r.workers, 4);
        // Unlike the synchronous driver, every worker sweeps its whole
        // shard each epoch: total steps = epochs × batches, independent of
        // the worker count.
        assert_eq!(r.steps, 3 * (540usize.div_ceil(64)));
        assert_eq!(r.epoch_losses.len(), 3);
        assert!(
            r.epoch_losses.last().unwrap() <= r.epoch_losses.first().unwrap(),
            "async loss did not decrease: {:?}",
            r.epoch_losses
        );
    }

    #[test]
    fn hogwild_rejects_unsafe_update_rules() {
        let ds = dataset();
        let adagrad = TrainConfig {
            optimizer: crate::OptimizerKind::Adagrad,
            ..config()
        };
        let err = train_hogwild(&ds, &adagrad, 2, SpTransE::from_config).unwrap_err();
        assert!(err.to_string().contains("only --optimizer sgd"), "{err}");
        let dense = TrainConfig {
            dense_grads: true,
            ..config()
        };
        let err = train_hogwild(&ds, &dense, 2, SpTransE::from_config).unwrap_err();
        assert!(err.to_string().contains("touched-row"), "{err}");
    }

    #[test]
    fn hogwild_returning_model_aliases_shared_values() {
        let ds = dataset();
        let cfg = config();
        let (_, m) = train_hogwild_returning(&ds, &cfg, 2, SpTransE::from_config).unwrap();
        let id = m.embedding_param();
        assert!(m.store().value(id).is_shared());
        assert!(m.store().value(id).as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn more_workers_than_batches_is_safe() {
        let ds = SyntheticKgBuilder::new(30, 2).triples(80).seed(41).build();
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 64,
            dim: 4,
            lr: 0.05,
            ..Default::default()
        };
        let r = train_data_parallel(&ds, &cfg, 8, SpTransE::from_config).unwrap();
        assert_eq!(r.workers, 8);
    }
}
