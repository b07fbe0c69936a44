//! Training workloads: load a TSV, plan, attach, train with
//! `Trainer::run_epochs`, evaluate, and check the outputs. The traced run repeats training in a
//! loop of its own that mirrors `Trainer::run_epochs` call for call, with a
//! span around every call.

use std::error::Error;
use std::path::{Path, PathBuf};

use kg::eval::{evaluate_batched, BatchScorer, EvalConfig, LinkPredictionReport, SampleStrategy};
use kg::{load_tsv, BatchPlan, BernoulliSampler, Dataset, UniformSampler, Vocab};
use sptransx::{FileRowStorage, KgeModel, SamplerKind, TrainConfig, TrainReport, Trainer};
use tensor::Graph;

use crate::clock::Stopwatch;
use crate::report::Report;
use crate::stats::{median, percentile, random_mrr, ratio, tail_percentile};
use crate::trace::{self_secs, Tracer};
use crate::SETUP_REPS;

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Which sparse model a workload trains.
#[derive(Debug, Clone, Copy)]
pub enum ModelKind {
    TransE,
    TransR,
}

/// One training workload.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    pub model: ModelKind,
    pub config: TrainConfig,
    /// Test triples in the seeded evaluation sample.
    pub eval_triples: usize,
    /// Whether the filtered MRR must reach 10x that of a random ranking.
    pub mrr_floor: bool,
    /// Share of the embedding table's rows kept in RAM; `None` trains in RAM.
    pub cache_share: Option<f64>,
}

/// Share of the loaded triples held out as the test split, as `sptx train`
/// does by default.
const TEST_FRAC: f64 = 0.1;

/// Repetitions of the evaluation; `rank_queries_per_s` uses their median.
const EVAL_REPS: usize = 3;

/// Runs a training workload on the TSV at `tsv` and fills `out`.
pub fn run(
    spec: &TrainSpec,
    tsv: &Path,
    scratch: &Path,
    seed: u64,
    tracer: Option<&mut Tracer>,
    out: &mut Report,
) -> Result<()> {
    match spec.model {
        ModelKind::TransE => run_model(
            spec,
            tsv,
            scratch,
            seed,
            tracer,
            out,
            sptransx::SpTransE::from_config,
        ),
        ModelKind::TransR => run_model(
            spec,
            tsv,
            scratch,
            seed,
            tracer,
            out,
            sptransx::SpTransR::from_config,
        ),
    }
}

type Ctor<M> = fn(&Dataset, &TrainConfig) -> sptransx::Result<M>;

/// Everything set-up produces: the split dataset, a copy of the plan when a
/// traced or reference run needs it, and a trainer ready to run.
struct Ready<M: KgeModel> {
    ds: Dataset,
    plan: Option<BatchPlan>,
    trainer: Trainer<M>,
    paged: Option<Paged>,
}

/// The paged-out embedding table of a disk workload.
struct Paged {
    id: tensor::ParamId,
    file: PathBuf,
}

impl Drop for Paged {
    fn drop(&mut self) {
        std::fs::remove_file(&self.file).ok();
    }
}

/// Runs `f` inside a span when tracing and adds its active seconds to
/// `secs`.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    secs: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let clock = Stopwatch::start();
    let out = match tracer {
        Some(tr) => tr.span(name, f),
        None => f(),
    };
    *secs += clock.active_secs();
    out
}

fn build_plan(ds: &Dataset, config: &TrainConfig) -> BatchPlan {
    // The same construction as `Trainer::new`.
    let known = ds.all_known();
    let n = ds.num_entities.max(2);
    match config.sampler {
        SamplerKind::Uniform => BatchPlan::build(
            &ds.train,
            &known,
            &UniformSampler::new(n),
            config.batch_size,
            config.seed,
        ),
        SamplerKind::Bernoulli => {
            let sampler = BernoulliSampler::fit(&ds.train, n);
            BatchPlan::build(&ds.train, &known, &sampler, config.batch_size, config.seed)
        }
    }
}

/// Pages the `embeddings` table of `store` out to a fresh file holding
/// `share` of its rows in RAM.
fn page_out(store: &mut tensor::ParamStore, file: PathBuf, share: f64) -> Result<Paged> {
    let id = store
        .lookup("embeddings")
        .ok_or("paged workload needs an 'embeddings' table")?;
    let (rows, cols) = store.param_shape(id);
    let budget = ((rows as f64 * share).round() as usize).max(1);
    let storage = FileRowStorage::create(&file, rows, cols)?;
    let paged = Paged { id, file };
    store.page_out(id, Box::new(storage), budget)?;
    Ok(paged)
}

/// Load → split → plan → model + attach → page out. Returns the ready
/// trainer and the seconds spent.
fn setup<M: KgeModel>(
    spec: &TrainSpec,
    tsv: &Path,
    pagefile: &Path,
    ctor: Ctor<M>,
    tracer: &mut Option<&mut Tracer>,
) -> Result<(Ready<M>, f64)> {
    let config = &spec.config;
    let mut secs = 0.0;
    let ds = timed(tracer, "kg.load", &mut secs, || -> Result<Dataset> {
        let mut vocab = Vocab::new();
        let store = load_tsv(std::fs::File::open(tsv)?, &mut vocab)?;
        let (n, r) = (vocab.num_entities(), vocab.num_relations());
        Ok(Dataset::from_single_store(
            "bench",
            n,
            r,
            store,
            0.0,
            TEST_FRAC,
            config.seed,
        )?)
    })?;
    let plan = timed(tracer, "kg.plan", &mut secs, || build_plan(&ds, config));
    // The traced and reference runs need the plan again; the copy is not
    // set-up, and untraced in-RAM runs skip it.
    let copy = (tracer.is_some() || spec.cache_share.is_some()).then(|| plan.clone());
    let mut trainer = timed(
        tracer,
        "sptransx.attach_plan",
        &mut secs,
        || -> Result<Trainer<M>> { Ok(Trainer::with_plan(ctor(&ds, config)?, plan, config)?) },
    )?;
    let paged = match spec.cache_share {
        Some(share) => Some(timed(tracer, "tensor.page_out", &mut secs, || {
            page_out(
                trainer.model_mut().store_mut(),
                pagefile.to_path_buf(),
                share,
            )
        })?),
        None => None,
    };
    Ok((
        Ready {
            ds,
            plan: copy,
            trainer,
            paged,
        },
        secs,
    ))
}

fn eval_config(spec: &TrainSpec, seed: u64) -> EvalConfig {
    EvalConfig {
        max_triples: Some(spec.eval_triples),
        sample: SampleStrategy::Seeded(seed),
        ..Default::default()
    }
}

/// What the untraced training run produced.
#[derive(Debug, Default)]
struct UntracedRun {
    losses: Vec<f32>,
    /// Active (steal-corrected) seconds of each epoch.
    epoch_secs: Vec<f64>,
    epoch_steal: Vec<f64>,
    /// `TrainReport::peak_memory_bytes`, the largest over the epochs.
    peak_bytes: u64,
}

/// The traced training loop: `Trainer::run_epochs` call for call, with a
/// span around each call.
struct TracedRun<M> {
    model: M,
    losses: Vec<f32>,
    /// Active (steal-corrected) seconds of the whole loop.
    active: f64,
}

fn traced_train<M: KgeModel>(
    tr: &mut Tracer,
    mut model: M,
    plan: &BatchPlan,
    config: &TrainConfig,
    paged: Option<(PathBuf, f64)>,
) -> Result<(TracedRun<M>, Option<Paged>)> {
    assert!(
        config.lr_schedule.is_none(),
        "the traced loop has no LR schedule"
    );
    model.attach_plan(plan)?;
    model.store_mut().set_dense_grads(config.dense_grads);
    let paged = match paged {
        Some((file, share)) => Some(page_out(model.store_mut(), file, share)?),
        None => None,
    };
    let mut graph = Graph::new();
    graph.set_fused(config.fused);
    let mut optimizer = config.optimizer.build(config.lr);
    let batches = model.num_batches();
    let mut losses = Vec::with_capacity(config.epochs);
    tensor::profile::reset();
    sparse::metrics::reset();
    let clock = Stopwatch::start();
    let train = tr.begin("sptransx.train");
    for _ in 0..config.epochs {
        let epoch = tr.begin("sptransx.epoch");
        let mut loss_sum = 0f64;
        for b in 0..batches {
            let step = tr.begin("sptransx.step");
            tr.span("tensor.zero_grads", || model.store_mut().zero_grads());
            tr.span("sptransx.page_in", || model.page_in_batch(b))?;
            let (pos, neg) = tr.span("sptransx.score_batch", || {
                graph.reset();
                model.score_batch(&mut graph, b)
            });
            let loss = tr.span("tensor.loss", || {
                let loss = graph.margin_ranking_loss(pos, neg, config.margin);
                loss_sum += f64::from(graph.value(loss).get(0, 0));
                loss
            });
            tr.span("tensor.backward", || {
                graph.backward(loss, model.store_mut())
            });
            tr.span("tensor.optim_step", || optimizer.step(model.store_mut()));
            tr.end(step);
        }
        tr.span("sptransx.end_epoch", || model.end_epoch());
        losses.push((loss_sum / batches as f64) as f32);
        tr.end(epoch);
    }
    tr.end(train);
    let active = clock.active_secs();
    Ok((
        TracedRun {
            model,
            losses,
            active,
        },
        paged,
    ))
}

/// The phases of a step (and of an epoch's end) whose spans must add up to
/// the traced training wall time.
const PHASES: [&str; 7] = [
    "tensor.zero_grads",
    "sptransx.page_in",
    "sptransx.score_batch",
    "tensor.loss",
    "tensor.backward",
    "tensor.optim_step",
    "sptransx.end_epoch",
];

fn table_bits(store: &tensor::ParamStore, name: &str) -> Vec<u32> {
    let id = store.lookup(name).expect("trained table");
    store
        .value(id)
        .as_slice()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

fn run_model<M: KgeModel + BatchScorer>(
    spec: &TrainSpec,
    tsv: &Path,
    scratch: &Path,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
    out: &mut Report,
    ctor: Ctor<M>,
) -> Result<()> {
    let config = &spec.config;
    let pagefile = scratch.join(format!("train-{}.pagefile", std::process::id()));

    // Set-up, several times; the last one is kept.
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        let (r, secs) = setup(spec, tsv, &pagefile, ctor, &mut tracer)?;
        setup_secs.push(secs);
        ready = Some(r);
    }
    let Ready {
        ds,
        plan,
        mut trainer,
        paged,
    } = ready.expect("at least one set-up");
    let n = ds.num_entities;
    let steps = (config.epochs * trainer.num_batches()) as u64;

    // Timed region: the configured epochs, one `Trainer::run_epochs(1)` call
    // each (the same loop as `Trainer::run` without an LR schedule), with
    // the program's counters reset first.
    tensor::profile::reset();
    sparse::metrics::reset();
    let mut run = UntracedRun::default();
    for _ in 0..config.epochs {
        let clock = Stopwatch::start();
        let epoch: TrainReport = trainer.run_epochs(1)?;
        run.epoch_secs.push(clock.active_secs());
        run.epoch_steal.push(clock.steal());
        run.losses.extend(epoch.epoch_losses);
        run.peak_bytes = run.peak_bytes.max(epoch.peak_memory_bytes);
    }
    let pager_stats = paged.as_ref().map(|p| {
        let pager = trainer.model().store().pager(p.id).expect("paged table");
        (pager.stats(), pager.storage_io_ops())
    });
    if let Some(p) = &paged {
        trainer.model_mut().store_mut().unpage(p.id)?;
    }
    // The filter set is data preparation, built once outside the timing.
    let known = ds.all_known();
    let eval_cfg = eval_config(spec, seed);
    let mut eval_secs = Vec::with_capacity(EVAL_REPS);
    let mut evals = Vec::with_capacity(EVAL_REPS);
    for _ in 0..EVAL_REPS {
        let clock = Stopwatch::start();
        evals.push(evaluate_batched(
            trainer.model(),
            &ds.test,
            &known,
            &eval_cfg,
        ));
        eval_secs.push(clock.active_secs());
    }
    let rss = crate::peak_rss_mib();
    let eval = evals.swap_remove(0);

    let losses = &run.losses;
    let losses_ok = out.check(
        losses.iter().all(|l| l.is_finite()) && losses.last() < losses.first(),
        || format!("epoch losses must be finite and fall: {losses:?}"),
    );
    let floor = 10.0 * random_mrr(n);
    let mut eval_ok = out.check(evals.iter().all(|e| *e == eval), || {
        "repeated evaluations differ".into()
    });
    if spec.mrr_floor {
        eval_ok &= out.check(f64::from(eval.mrr) >= floor, || {
            format!(
                "MRR {} below 10x random ({floor:.3e}) over {n} entities",
                eval.mrr
            )
        });
    }
    let mut train_ok = losses_ok;

    let epoch_secs = median(&run.epoch_secs).expect("epochs ran");
    let query_secs = median(&eval_secs).expect("evaluation ran");
    eprintln!(
        "train: {} epochs x {} batches, loss {:?}, epochs {:?}s active ({:?}s steal); eval: {} queries x {EVAL_REPS}, MRR {:.5} (floor {floor:.2e}), {eval_secs:?}s",
        config.epochs,
        trainer.num_batches(),
        losses,
        run.epoch_secs,
        run.epoch_steal,
        eval.queries,
        eval.mrr,
    );

    out.metric("setup_s", median(&setup_secs).expect("set-up ran"), "s");
    out.metric(
        "throughput_per_s",
        ds.train.len() as f64 / epoch_secs,
        "1/s",
    );
    out.metric(
        "rank_queries_per_s",
        eval.queries as f64 / query_secs,
        "1/s",
    );
    out.metric("peak_rss_mib", rss, "MiB");

    let trained_bits = paged
        .is_some()
        .then(|| table_bits(trainer.model().store(), "embeddings"));
    drop(trainer);

    if let Some(tr) = tracer {
        let plan = plan.as_ref().expect("traced runs keep the plan");
        let (ok_train, ok_eval) =
            traced_phase(tr, spec, &ds, plan, &pagefile, seed, ctor, &run, &eval, out)?;
        train_ok &= ok_train;
        eval_ok &= ok_eval;
        out.metric("tensor.peak_bytes", run.peak_bytes as f64, "bytes");
        let eval_span = tr.total_secs("kg.eval");
        out.metric("kg.eval_s", eval_span, "s");
        out.metric("kg.eval_queries", eval.queries as f64, "count");
        out.metric(
            "kg.eval_us_per_query",
            eval_span * 1e6 / eval.queries as f64,
            "us",
        );
        out.metric("kg.mrr", f64::from(eval.mrr), "ratio");
        out.metric("kg.mrr_floor", floor, "ratio");
        if let Some((stats, (reads, writes))) = pager_stats {
            let accesses = stats.hits + stats.misses;
            out.metric("tensor.pager.hits", stats.hits as f64, "count");
            out.metric("tensor.pager.misses", stats.misses as f64, "count");
            out.metric("tensor.pager.accesses", accesses as f64, "count");
            out.metric(
                "tensor.pager.hit_ratio",
                ratio(stats.hits, accesses),
                "ratio",
            );
            out.metric("tensor.pager.evictions", stats.evictions as f64, "count");
            out.metric(
                "tensor.pager.write_backs",
                stats.write_backs as f64,
                "count",
            );
            out.metric("tensor.pager.read_ops", reads as f64, "count");
            out.metric("tensor.pager.write_ops", writes as f64, "count");
        }
    }

    // Disk workloads: the paged run must equal an in-RAM trainer on the same
    // plan bit for bit. Run after the timed region and the memory reading.
    if let Some(bits) = trained_bits {
        let plan = plan.expect("paged runs keep the plan");
        let mut reference = Trainer::with_plan(ctor(&ds, config)?, plan, config)?;
        reference.run()?;
        let same = bits == table_bits(reference.model().store(), "embeddings");
        train_ok &= out.check(same, || {
            "paged embeddings differ from the in-RAM trainer".into()
        });
    }

    out.phase(steps, train_ok);
    out.phase(eval.queries as u64, eval_ok);
    Ok(())
}

/// The traced run: the span-instrumented loop on a fresh model, checked
/// against the untraced `Trainer` run, then the per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn traced_phase<M: KgeModel + BatchScorer>(
    tr: &mut Tracer,
    spec: &TrainSpec,
    ds: &Dataset,
    plan: &BatchPlan,
    pagefile: &Path,
    seed: u64,
    ctor: Ctor<M>,
    untraced: &UntracedRun,
    eval: &LinkPredictionReport,
    out: &mut Report,
) -> Result<(bool, bool)> {
    let config = &spec.config;
    let model = ctor(ds, config)?;
    let paging = spec.cache_share.map(|s| (pagefile.to_path_buf(), s));
    let (run, paged) = traced_train(tr, model, plan, config, paging)?;
    let kernels = tensor::profile::report();
    let counters = sparse::metrics::snapshot();
    let mut model = run.model;
    if let Some(p) = &paged {
        model.store_mut().unpage(p.id)?;
    }
    let known = ds.all_known();
    let traced_eval = tr.span("kg.eval", || {
        evaluate_batched(&model, &ds.test, &known, &eval_config(spec, seed))
    });

    let same_losses = run
        .losses
        .iter()
        .map(|l| l.to_bits())
        .eq(untraced.losses.iter().map(|l| l.to_bits()));
    let train_ok = out.check(same_losses, || {
        format!(
            "traced losses {:?} differ from Trainer {:?}",
            run.losses, untraced.losses
        )
    });
    let eval_ok = out.check(traced_eval == *eval, || {
        "traced eval report differs from the untraced one".into()
    });

    // Phase spans must add up to the traced wall time: what the train,
    // epoch and step spans spend outside their children is unaccounted.
    let wall = tr.total_secs("sptransx.train");
    let phases: f64 = PHASES.iter().map(|p| tr.total_secs(p)).sum();
    let unaccounted: f64 = tr
        .spans()
        .iter()
        .filter(|s| {
            matches!(
                s.name,
                "sptransx.train" | "sptransx.epoch" | "sptransx.step"
            )
        })
        .map(|s| self_secs(tr.spans(), s.id))
        .sum();
    let sums_ok = out.check(unaccounted.abs() <= 0.02 * wall, || {
        format!("phase spans sum to {phases:.4}s of {wall:.4}s traced wall")
    });
    for p in PHASES {
        out.metric(&format!("{p}_s"), tr.total_secs(p), "s");
    }
    for (name, metric) in [
        ("kg.load", "kg.load_s"),
        ("kg.plan", "kg.plan_s"),
        ("sptransx.attach_plan", "sptransx.attach_plan_s"),
        ("tensor.page_out", "tensor.page_out_s"),
    ] {
        out.metric(metric, median(&tr.durations(name)).unwrap_or(0.0), "s");
    }
    let step_ms: Vec<f64> = tr
        .durations("sptransx.step")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let tail = tail_percentile(step_ms.len()).unwrap_or(50.0);
    out.metric("sptransx.steps", step_ms.len() as f64, "count");
    out.metric(
        "sptransx.step_ms_p50",
        percentile(&step_ms, 50.0).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "sptransx.step_ms_tail",
        percentile(&step_ms, tail).unwrap_or(0.0),
        "ms",
    );
    out.metric("sptransx.step_tail_pct", tail, "pct");
    out.metric("sptransx.train_traced_s", run.active, "s");
    let untraced_wall: f64 = untraced.epoch_secs.iter().sum();
    out.metric("sptransx.train_untraced_s", untraced_wall, "s");
    out.metric("sptransx.unaccounted_s", unaccounted, "s");
    out.metric(
        "trace.overhead_pct",
        100.0 * (run.active / untraced_wall - 1.0),
        "pct",
    );
    // Kernel scopes are `op::<name>`, plus `backward` for the reverse pass.
    for k in &kernels {
        let name = k.name.strip_prefix("op::").unwrap_or(k.name);
        if !crate::KERNELS.contains(&name) {
            continue;
        }
        let base = format!("kernel.{name}");
        out.metric(&format!("{base}.s"), k.total.as_secs_f64(), "s");
        out.metric(&format!("{base}.calls"), k.calls as f64, "count");
        out.metric(&format!("{base}.bytes"), k.bytes as f64, "bytes");
        out.metric(&format!("{base}.flops"), k.flops as f64, "flops");
    }
    out.metric("sparse.spmm_calls", counters.spmm_calls as f64, "count");
    out.metric("sparse.flops", counters.flops as f64, "flops");
    out.metric("sparse.bytes", counters.bytes_touched as f64, "bytes");
    Ok((train_ok && sums_ok, eval_ok))
}
