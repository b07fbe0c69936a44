//! Command-line interface logic for the `sptx` binary.
//!
//! Subcommands:
//!
//! * `generate` — write a synthetic KG to TSV files
//!   (`--entities`, `--relations`, `--triples`, `--out <dir>`).
//! * `train` — train a model on a TSV file and save embeddings
//!   (`--model`, `--train <file>`, `--epochs`, `--dim`, `--lr`, `--out`);
//!   `--async true --workers N` switches to the lock-free Hogwild arm
//!   (nondeterministic, SGD + sparse gradients + resident store only).
//! * `stats` — print dataset statistics (degrees, relation classes).
//! * `serve` — load saved embeddings, build (or load) an IVF candidate
//!   index, replay a Zipf-skewed query workload through the ANN and exact
//!   arms, and report recall@K, latency percentiles, QPS, scan fraction and
//!   cache hit rates (`--emb`, `--train`, `--clusters`, `--nprobe`, …).
//!
//! Every subcommand accepts `--threads N` to pin the worker-pool size. The
//! training and evaluation engines are bit-identical at any thread count
//! (the determinism contract CI enforces), so the knob only trades
//! wall-clock time. The one documented exception is `train --async true`
//! with 2+ workers, which is nondeterministic by design.
//!
//! Parsing is deliberately dependency-free (`--key value` pairs); this
//! module holds the testable core, `src/bin/sptx.rs` is a thin shell.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use kg::eval::EvalConfig;
use kg::stream::EmbeddingStore;
use kg::{load_tsv, write_tsv, Dataset, Vocab};
use sptransx::serve::{
    recall_at_k, IvfConfig, IvfIndex, LatencySummary, QueryKey, ServeEngine, ServeModel,
    ZipfWorkload,
};
use sptransx::{
    KgeModel, Norm, OptimizerKind, SamplerKind, SpDistMult, SpTorusE, SpTransE, SpTransH, SpTransR,
    TrainConfig, Trainer,
};

/// Parsed command line: subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand name.
    pub command: String,
    /// `--key value` options (keys without the dashes).
    pub options: HashMap<String, String>,
}

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (missing command, unknown flag, unparsable value).
    Usage(String),
    /// Underlying library failure.
    Library(Box<dyn std::error::Error>),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Library(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<kg::Error> for CliError {
    fn from(e: kg::Error) -> Self {
        CliError::Library(Box::new(e))
    }
}

impl From<sptransx::Error> for CliError {
    fn from(e: sptransx::Error) -> Self {
        CliError::Library(Box::new(e))
    }
}

/// Splits raw arguments (without argv\[0\]) into a subcommand and options.
///
/// # Errors
///
/// Returns [`CliError::Usage`] when no subcommand is present, a flag lacks a
/// value, or a positional argument appears after the subcommand.
pub fn parse_args(raw: &[String]) -> Result<Args, CliError> {
    let mut iter = raw.iter();
    let command = iter
        .next()
        .ok_or_else(|| {
            CliError::Usage("expected a subcommand (generate|train|stats|serve)".into())
        })?
        .clone();
    let mut options = HashMap::new();
    while let Some(key) = iter.next() {
        let Some(stripped) = key.strip_prefix("--") else {
            return Err(CliError::Usage(format!(
                "unexpected positional argument {key:?}"
            )));
        };
        let value = iter
            .next()
            .ok_or_else(|| CliError::Usage(format!("flag --{stripped} needs a value")))?;
        options.insert(stripped.to_string(), value.clone());
    }
    Ok(Args { command, options })
}

impl Args {
    /// A string option with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] if missing.
    pub fn required(&self, key: &str) -> Result<String, CliError> {
        self.options
            .get(key)
            .cloned()
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))
    }

    /// A parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] when the value does not parse.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("could not parse --{key} value {v:?}"))),
        }
    }
}

/// The `generate` subcommand: synthesize a KG and write train/valid/test TSVs.
///
/// # Errors
///
/// Propagates I/O and usage errors.
pub fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let entities: usize = args.parse_or("entities", 1_000)?;
    let relations: usize = args.parse_or("relations", 10)?;
    let triples: usize = args.parse_or("triples", entities * 5)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let out = PathBuf::from(args.str_or("out", "kg-out"));
    std::fs::create_dir_all(&out).map_err(kg::Error::from)?;

    let ds = kg::synthetic::SyntheticKgBuilder::new(entities, relations)
        .triples(triples)
        .seed(seed)
        .build();
    let vocab = numeric_vocab(entities, relations);
    for (name, store) in [
        ("train.tsv", &ds.train),
        ("valid.tsv", &ds.valid),
        ("test.tsv", &ds.test),
    ] {
        let file = std::fs::File::create(out.join(name)).map_err(kg::Error::from)?;
        write_tsv(file, store, &vocab)?;
    }
    Ok(format!(
        "wrote {} train / {} valid / {} test triples to {}",
        ds.train.len(),
        ds.valid.len(),
        ds.test.len(),
        out.display()
    ))
}

/// The `train` subcommand: load a TSV, train, save embeddings + report.
///
/// # Errors
///
/// Propagates I/O, parse and training errors.
pub fn cmd_train(args: &Args) -> Result<String, CliError> {
    let train_path = args.required("train")?;
    let model_name = args.str_or("model", "transe");
    let config = config_from_args(args)?;
    let out = PathBuf::from(args.str_or("out", "embeddings.bin"));
    let paged = paged_store_from_args(args, &model_name, &config, &out)?;

    // `--async true` selects the Hogwild arm; `--workers` is meaningless
    // (and therefore rejected) on the synchronous default.
    let use_async: bool = args.parse_or("async", false)?;
    if args.options.contains_key("workers") && !use_async {
        return Err(CliError::Usage(
            "--workers only applies to the asynchronous arm; add --async true".into(),
        ));
    }
    let workers: usize = args.parse_or("workers", 4)?;
    if use_async {
        if workers == 0 {
            return Err(CliError::Usage("--workers must be at least 1".into()));
        }
        if paged.is_some() {
            return Err(CliError::Usage(
                "--async true is incompatible with --store disk (workers share one resident \
                 parameter buffer; a row cache cannot be shared lock-free)"
                    .into(),
            ));
        }
        if config.optimizer != OptimizerKind::Sgd {
            return Err(CliError::Usage(
                "--async true requires --optimizer sgd (stateless updates are what make \
                 lock-free row collisions benign)"
                    .into(),
            ));
        }
        if config.dense_grads {
            return Err(CliError::Usage(
                "--async true needs the sparse touched-row gradient path; drop --dense-grads true"
                    .into(),
            ));
        }
    }

    let (ds, _vocab) = load_dataset(Path::new(&train_path), args)?;
    let result = if use_async {
        train_dispatch_async(&model_name, &ds, &config, workers)
    } else {
        train_dispatch(
            &model_name,
            &ds,
            &config,
            paged.as_ref().map(|(p, b)| (p.as_path(), *b)),
        )
    };
    // The pagefile is scratch space for the run; keep the filesystem clean
    // whether training succeeded or not.
    if let Some((pagefile, _)) = &paged {
        std::fs::remove_file(pagefile).ok();
    }
    let (summary, emb) = result?;
    if let Some((rows, cols, data)) = emb {
        EmbeddingStore::write(&out, rows, cols, |r, dst| {
            dst.copy_from_slice(&data[r * cols..(r + 1) * cols]);
        })?;
    }
    Ok(format!("{summary}\nembeddings saved to {}", out.display()))
}

/// Parses and validates `--store {ram,disk}` + `--cache-rows N` into the
/// out-of-core paging request: `Some((pagefile, cache budget))` for disk
/// mode, `None` for the fully resident default.
///
/// Disk mode pages the embedding table to `{out}.pagefile` and keeps only
/// `--cache-rows` rows pinned in RAM; it is restricted to the combinations
/// whose hot path is slot-translation-aware (TransE/TorusE, SGD, sparse
/// gradients) so paging can move bytes without ever touching arithmetic.
fn paged_store_from_args(
    args: &Args,
    model_name: &str,
    config: &TrainConfig,
    out: &Path,
) -> Result<Option<(PathBuf, usize)>, CliError> {
    let store = args.str_or("store", "ram");
    match store.as_str() {
        "ram" => Ok(None),
        "disk" => {
            if !matches!(model_name, "transe" | "toruse") {
                return Err(CliError::Usage(format!(
                    "--store disk supports --model transe|toruse, got {model_name:?} \
                     (other models' kernels are not paging-aware yet)"
                )));
            }
            if config.optimizer != OptimizerKind::Sgd {
                return Err(CliError::Usage(
                    "--store disk requires --optimizer sgd (Adagrad/Adam keep dense \
                     per-row state the row cache cannot page)"
                        .into(),
                ));
            }
            if config.dense_grads {
                return Err(CliError::Usage(
                    "--store disk needs the sparse touched-row gradient path; \
                     drop --dense-grads true"
                        .into(),
                ));
            }
            let cache_rows: usize = args.parse_or("cache-rows", 4096)?;
            if cache_rows == 0 {
                return Err(CliError::Usage("--cache-rows must be at least 1".into()));
            }
            let mut pagefile = out.as_os_str().to_owned();
            pagefile.push(".pagefile");
            Ok(Some((PathBuf::from(pagefile), cache_rows)))
        }
        other => Err(CliError::Usage(format!(
            "unknown --store {other:?} (ram|disk)"
        ))),
    }
}

/// The `stats` subcommand.
///
/// # Errors
///
/// Propagates I/O and parse errors.
pub fn cmd_stats(args: &Args) -> Result<String, CliError> {
    let path = args.required("train")?;
    let (ds, _) = load_dataset(Path::new(&path), args)?;
    let stats = kg::stats::GraphStats::compute(&ds.train, ds.num_entities);
    Ok(format!(
        "triples: {}\nactive entities: {}\nactive relations: {}\nmean degree: {:.2}\n\
         max degree: {}\ntop-1% degree share: {:.1}%\nrelation classes (1-1/1-N/N-1/N-N): {:?}",
        stats.triples,
        stats.active_entities,
        stats.active_relations,
        stats.mean_degree,
        stats.max_degree,
        100.0 * stats.top1pct_degree_share,
        stats.class_counts
    ))
}

/// The `serve` subcommand: load embeddings, build/load the IVF index,
/// replay a Zipf workload through the ANN (cached) and exact arms, report
/// quality and latency, and optionally enforce `--min-recall` /
/// `--max-scan-frac` thresholds (nonzero exit on violation — the CI smoke
/// hook).
///
/// # Errors
///
/// Propagates I/O, parse and serving errors; threshold violations surface
/// as [`CliError::Library`] serving errors.
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let emb_path = args.required("emb")?;
    let train_path = args.required("train")?;
    let norm = match args.str_or("norm", "l2").as_str() {
        "l1" => Norm::L1,
        "l2" => Norm::L2,
        other => return Err(CliError::Usage(format!("unknown --norm {other:?} (l1|l2)"))),
    };
    // The embedding dump stores only the stacked matrix; the training TSV
    // recovers the entity/relation split of its rows.
    let mut vocab = Vocab::new();
    let file = std::fs::File::open(&train_path).map_err(kg::Error::from)?;
    load_tsv(file, &mut vocab)?;
    let n = vocab.num_entities();
    if n == 0 {
        return Err(CliError::Usage(format!(
            "training file {train_path:?} has no triples"
        )));
    }
    let model = ServeModel::load(&emb_path, n, norm)?;
    let r = model.num_relations();
    if r != vocab.num_relations() {
        return Err(CliError::Library(Box::new(sptransx::Error::serve(
            format!(
                "embedding file implies {r} relations but the training file has {} — \
             wrong file pair, or a non-translational model dump",
                vocab.num_relations()
            ),
        ))));
    }

    let clusters: usize = args.parse_or("clusters", IvfConfig::sqrt_clusters(n).clusters)?;
    let kmeans_iters: usize = args.parse_or("kmeans-iters", 8)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let k: usize = args.parse_or("k", 10)?;
    let num_queries: usize = args.parse_or("queries", 2_000)?;
    let zipf: f64 = args.parse_or("zipf", 1.1)?;
    let cache_size: usize = args.parse_or("cache-size", 1_024)?;

    let index = match args.options.get("index") {
        Some(path) => IvfIndex::load(path)?,
        None => IvfIndex::build(
            model.embeddings(),
            n,
            model.dim(),
            &IvfConfig {
                clusters,
                iters: kmeans_iters,
                seed,
            },
            &xparallel::PoolHandle::global(),
        )?,
    };
    if let Some(path) = args.options.get("index-out") {
        index.save(path)?;
    }
    let num_clusters = index.num_clusters();
    let nprobe: usize = args.parse_or("nprobe", num_clusters.div_ceil(8))?;
    let nprobe = nprobe.clamp(1, num_clusters);

    let mut engine = ServeEngine::new(model, index)?.with_cache(cache_size);
    let mut workload = ZipfWorkload::new(n, r, zipf, seed);

    // --store disk: additionally answer every query through a row cache over
    // the on-disk embedding file (the out-of-core arm), cross-checking each
    // answer against the resident ANN arm bit for bit.
    let mut paged_rows = match args.str_or("store", "ram").as_str() {
        "ram" => None,
        "disk" => {
            let cache_rows: usize = args.parse_or("cache-rows", 4096)?;
            if cache_rows == 0 {
                return Err(CliError::Usage("--cache-rows must be at least 1".into()));
            }
            let storage = sptransx::ReadOnlyRowStorage::open(&emb_path)?;
            let mut rows = sptransx::serve::PagedRows::new(Box::new(storage), cache_rows)?;
            rows.set_tracing(true);
            Some(rows)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown --store {other:?} (ram|disk)"
            )))
        }
    };

    // First-principles cache model: the same key stream replayed through a
    // fully-associative simcache LRU (one distinct line per distinct key)
    // must predict the real cache's hit count exactly.
    let mut sim = simcache::Cache::new(simcache::CacheConfig {
        size_bytes: cache_size * 64,
        line_bytes: 64,
        ways: cache_size,
    });
    let mut key_addrs: HashMap<QueryKey, u64> = HashMap::new();

    let mut ann_lat = Vec::with_capacity(num_queries);
    let mut exact_lat = Vec::with_capacity(num_queries);
    let mut paged_lat = Vec::with_capacity(num_queries);
    let mut recall_sum = 0.0f64;
    let mut scored_total = 0usize;
    let mut computed = 0usize;
    let mut paged_divergences = 0usize;
    for _ in 0..num_queries {
        let q = workload.next_query();
        let key: QueryKey = (q.dir as u8, q.entity, q.rel, k as u32, nprobe as u32);
        let next_addr = key_addrs.len() as u64 * 64;
        sim.access(*key_addrs.entry(key).or_insert(next_addr));

        let t = std::time::Instant::now();
        let ann = engine.answer_ann(&q, k, nprobe);
        ann_lat.push(t.elapsed());
        let t = std::time::Instant::now();
        let exact = engine.answer_exact(&q, k);
        exact_lat.push(t.elapsed());
        if let Some(rows) = &mut paged_rows {
            let t = std::time::Instant::now();
            let paged = engine.answer_ann_paged(rows, &q, k, nprobe)?;
            paged_lat.push(t.elapsed());
            if paged.hits != ann.hits {
                paged_divergences += 1;
            }
        }

        recall_sum += recall_at_k(&exact, &ann.hits);
        if !ann.cache_hit {
            scored_total += ann.scored;
            computed += 1;
        }
    }

    let recall = recall_sum / num_queries.max(1) as f64;
    let scan_frac = if computed == 0 {
        0.0
    } else {
        scored_total as f64 / (computed * n) as f64
    };
    let cache_stats = engine.cache_stats().unwrap_or_default();
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let arm = |name: &str, s: &LatencySummary| {
        format!(
            "{name} p50 {:.1}us p95 {:.1}us p99 {:.1}us, {:.0} qps",
            us(s.p50),
            us(s.p95),
            us(s.p99),
            s.qps
        )
    };
    let ann_sum = LatencySummary::from_samples(&ann_lat)
        .ok_or_else(|| CliError::Usage("--queries must be positive".into()))?;
    let exact_sum = LatencySummary::from_samples(&exact_lat).expect("same sample count");
    let mut out = format!(
        "serving {n} entities / {r} relations, dim {}, norm {}\n\
         index: {num_clusters} clusters, nprobe {nprobe}, kmeans iters {kmeans_iters}, seed {seed}\n\
         workload: {num_queries} queries, zipf({zipf}), k {k}, cache {cache_size}\n\
         recall@{k} vs exact arm: {recall:.4}\n\
         scan fraction (cache misses): {:.1}% of entities\n\
         cache hit rate: {:.1}% (simcache model: {:.1}%)\n\
         {}\n\
         {}",
        engine.model().dim(),
        args.str_or("norm", "l2"),
        100.0 * scan_frac,
        100.0 * cache_stats.hit_rate(),
        100.0 * (1.0 - sim.stats().miss_rate()),
        arm("ann  ", &ann_sum),
        arm("exact", &exact_sum),
    );
    if cache_stats.hits != sim.stats().hits {
        out.push_str(&format!(
            "\nWARNING: simcache model predicted {} hits, cache saw {}",
            sim.stats().hits,
            cache_stats.hits
        ));
    }
    if let Some(rows) = &paged_rows {
        let stats = rows.stats();
        let accesses = stats.hits + stats.misses;
        let hit_rate = if accesses > 0 {
            100.0 * stats.hits as f64 / accesses as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "\npaged store: budget {} rows, {} hits / {} misses / {} evictions (hit rate {hit_rate:.1}%)",
            rows.budget(),
            stats.hits,
            stats.misses,
            stats.evictions,
        ));
        if let Some(s) = LatencySummary::from_samples(&paged_lat) {
            out.push_str(&format!("\n{}", arm("paged", &s)));
        }
        let row_sim =
            simcache::replay_rows_lru(rows.trace().expect("tracing was enabled"), rows.budget());
        out.push_str(&format!(
            "\nsimcache LRU replay: {} hits / {} misses",
            row_sim.hits, row_sim.misses
        ));
        if row_sim.hits != stats.hits {
            out.push_str(&format!(
                "\nWARNING: simcache model predicted {} hits, row cache saw {}",
                row_sim.hits, stats.hits
            ));
        }
        if paged_divergences > 0 {
            out.push_str(&format!(
                "\nWARNING: paged arm diverged from the resident ANN arm on \
                 {paged_divergences} queries"
            ));
        }
    }

    let min_recall: f64 = args.parse_or("min-recall", 0.0)?;
    if recall < min_recall {
        return Err(CliError::Library(Box::new(sptransx::Error::serve(
            format!("recall@{k} {recall:.4} is below --min-recall {min_recall} ({out})"),
        ))));
    }
    let max_scan_frac: f64 = args.parse_or("max-scan-frac", 1.0)?;
    if scan_frac > max_scan_frac {
        return Err(CliError::Library(Box::new(sptransx::Error::serve(
            format!("scan fraction {scan_frac:.4} exceeds --max-scan-frac {max_scan_frac} ({out})"),
        ))));
    }
    Ok(out)
}

fn numeric_vocab(entities: usize, relations: usize) -> Vocab {
    let mut vocab = Vocab::new();
    for e in 0..entities {
        vocab.intern_entity(&format!("e{e}"));
    }
    for r in 0..relations {
        vocab.intern_relation(&format!("r{r}"));
    }
    vocab
}

fn load_dataset(train: &Path, args: &Args) -> Result<(Dataset, Vocab), CliError> {
    let mut vocab = Vocab::new();
    let file = std::fs::File::open(train).map_err(kg::Error::from)?;
    let store = load_tsv(file, &mut vocab)?;
    let valid_frac: f64 = args.parse_or("valid-frac", 0.0)?;
    let test_frac: f64 = args.parse_or("test-frac", 0.1)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let ds = Dataset::from_single_store(
        train.display().to_string(),
        vocab.num_entities(),
        vocab.num_relations(),
        store,
        valid_frac,
        test_frac,
        seed,
    )?;
    Ok((ds, vocab))
}

fn config_from_args(args: &Args) -> Result<TrainConfig, CliError> {
    let norm = match args.str_or("norm", "l2").as_str() {
        "l1" => Norm::L1,
        "l2" => Norm::L2,
        other => return Err(CliError::Usage(format!("unknown --norm {other:?} (l1|l2)"))),
    };
    let sampler = match args.str_or("sampler", "uniform").as_str() {
        "uniform" => SamplerKind::Uniform,
        "bernoulli" => SamplerKind::Bernoulli,
        other => {
            return Err(CliError::Usage(format!(
                "unknown --sampler {other:?} (uniform|bernoulli)"
            )))
        }
    };
    let optimizer = match args.str_or("optimizer", "sgd").as_str() {
        "sgd" => OptimizerKind::Sgd,
        "adagrad" => OptimizerKind::Adagrad,
        "adam" => OptimizerKind::Adam,
        other => {
            return Err(CliError::Usage(format!(
                "unknown --optimizer {other:?} (sgd|adagrad|adam)"
            )))
        }
    };
    // `--lr-decay STEP:GAMMA` hooks the Appendix E step scheduler up:
    // every STEP epochs the learning rate is multiplied by GAMMA.
    let lr_schedule = match args.options.get("lr-decay") {
        None => None,
        Some(raw) => Some(parse_lr_decay(raw)?),
    };
    Ok(TrainConfig {
        epochs: args.parse_or("epochs", 50)?,
        batch_size: args.parse_or("batch-size", 1024)?,
        dim: args.parse_or("dim", 64)?,
        rel_dim: args.parse_or("rel-dim", 32)?,
        lr: args.parse_or("lr", 0.1)?,
        margin: args.parse_or("margin", 0.5)?,
        norm,
        sampler,
        seed: args.parse_or("seed", 42)?,
        lr_schedule,
        optimizer,
        dense_grads: args.parse_or("dense-grads", false)?,
        ..TrainConfig::default()
    })
}

/// Parses `STEP:GAMMA` (e.g. `10:0.5`) into a step-LR schedule.
fn parse_lr_decay(raw: &str) -> Result<(u32, f32), CliError> {
    let bad = || {
        CliError::Usage(format!(
            "--lr-decay needs STEP:GAMMA with STEP ≥ 1 and GAMMA > 0 (e.g. 10:0.5), got {raw:?}"
        ))
    };
    let (step, gamma) = raw.split_once(':').ok_or_else(bad)?;
    let step: u32 = step
        .trim()
        .parse()
        .ok()
        .filter(|&s| s >= 1)
        .ok_or_else(bad)?;
    let gamma: f32 = gamma
        .trim()
        .parse()
        .ok()
        .filter(|g: &f32| g.is_finite() && *g > 0.0)
        .ok_or_else(bad)?;
    Ok((step, gamma))
}

type EmbeddingDump = Option<(usize, usize, Vec<f32>)>;

/// Pages the trainer's `embeddings` table out to a fresh `pagefile` with a
/// `budget`-row cache and turns row tracing on (the trace feeds the simcache
/// cross-validation after the run). Returns the paged [`tensor::ParamId`].
fn page_out_embeddings<M: KgeModel>(
    trainer: &mut Trainer<M>,
    pagefile: &Path,
    budget: usize,
) -> Result<tensor::ParamId, CliError> {
    let store = trainer.model_mut().store_mut();
    let id = store.lookup("embeddings").ok_or_else(|| {
        CliError::Usage("--store disk needs a model with an 'embeddings' table".into())
    })?;
    let (rows, cols) = store.param_shape(id);
    let storage = sptransx::FileRowStorage::create(pagefile, rows, cols)?;
    store
        .page_out(id, Box::new(storage), budget)
        .map_err(sptransx::Error::from)?;
    store
        .pager_mut(id)
        .expect("just paged out")
        .set_tracing(true);
    Ok(id)
}

/// Collects the pager's counters and row trace, brings the table fully back
/// into RAM (evaluation and the embedding dump need residency), replays the
/// trace through a fully-associative simcache LRU of the same budget, and
/// renders the report lines — with a `WARNING:` line on any hit-count
/// divergence so CI can grep for it.
fn unpage_and_validate<M: KgeModel>(
    trainer: &mut Trainer<M>,
    id: tensor::ParamId,
) -> Result<String, CliError> {
    let store = trainer.model_mut().store_mut();
    let pager = store.pager(id).expect("paged parameter");
    let stats = pager.stats();
    let budget = pager.budget();
    let sim_stats = simcache::replay_rows_lru(pager.trace().expect("tracing was enabled"), budget);
    store.unpage(id).map_err(sptransx::Error::from)?;
    let accesses = stats.hits + stats.misses;
    let hit_rate = if accesses > 0 {
        100.0 * stats.hits as f64 / accesses as f64
    } else {
        0.0
    };
    let mut out = format!(
        "\npaged store: budget {budget} rows, {} hits / {} misses / {} evictions / {} \
         write-backs (hit rate {hit_rate:.1}%)\n\
         simcache LRU replay: {} hits / {} misses",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.write_backs,
        sim_stats.hits,
        sim_stats.misses,
    );
    if sim_stats.hits != stats.hits {
        out.push_str(&format!(
            "\nWARNING: simcache model predicted {} hits, cache saw {}",
            sim_stats.hits, stats.hits
        ));
    }
    Ok(out)
}

fn train_dispatch(
    model: &str,
    ds: &Dataset,
    config: &TrainConfig,
    paged: Option<(&Path, usize)>,
) -> Result<(String, EmbeddingDump), CliError> {
    macro_rules! run {
        ($ctor:expr) => {{
            let model = $ctor?;
            let mut trainer = Trainer::new(model, ds, config)?;
            let paged_id = match paged {
                Some((pagefile, budget)) => {
                    Some(page_out_embeddings(&mut trainer, pagefile, budget)?)
                }
                None => None,
            };
            tensor::profile::reset();
            let report = trainer.run()?;
            // Snapshot kernel counters before evaluation pollutes them.
            let kernel_table = kernel_counter_table();
            // Unpage (and cross-validate the cache counters) before the
            // paging-unaware evaluation and dump paths read the table.
            let paged_report = match paged_id {
                Some(id) => unpage_and_validate(&mut trainer, id)?,
                None => String::new(),
            };
            // Batched, pool-parallel engine; strided subsampling avoids the
            // dataset-order bias of a plain prefix truncation.
            let eval = trainer.evaluate_batched(
                ds,
                &EvalConfig {
                    max_triples: Some(500),
                    sample: kg::eval::SampleStrategy::Strided,
                    ..Default::default()
                },
            );
            let m = trainer.model();
            let emb_id = m.store().lookup("embeddings");
            let emb = emb_id.map(|id| {
                let t = m.store().value(id);
                (t.rows(), t.cols(), t.as_slice().to_vec())
            });
            let summary = format!(
                "{}: {} epochs, loss {:.4} -> {:.4}, wall {:.2}s, Hits@10 {:.3}, MRR {:.3}\n\
                 arm: {} gradients/renorm\n{}{}",
                KgeModel::name(m),
                report.epoch_losses.len(),
                report.epoch_losses.first().copied().unwrap_or(0.0),
                report.epoch_losses.last().copied().unwrap_or(0.0),
                report.wall.as_secs_f64(),
                eval.hits(10).unwrap_or(0.0),
                eval.mrr,
                if config.dense_grads {
                    "dense (--dense-grads ablation)"
                } else {
                    "sparse touched-row"
                },
                kernel_table,
                paged_report,
            );
            Ok((summary, emb))
        }};
    }
    match model {
        "transe" => run!(SpTransE::from_config(ds, config)),
        "toruse" => run!(SpTorusE::from_config(ds, config)),
        "transr" => run!(SpTransR::from_config(ds, config)),
        "transh" => run!(SpTransH::from_config(ds, config)),
        "distmult" => run!(SpDistMult::from_config(ds, config)),
        other => Err(CliError::Usage(format!(
            "unknown --model {other:?} (transe|toruse|transr|transh|distmult)"
        ))),
    }
}

/// The `--async true` dispatch: trains through the Hogwild driver and
/// evaluates/dumps from the returned rank-0 replica (all replicas alias the
/// same shared values, so after the final epoch-edge join it *is* the
/// model). The summary names the arm and its worker count so report
/// consumers can tell a nondeterministic run from a contract run.
fn train_dispatch_async(
    model: &str,
    ds: &Dataset,
    config: &TrainConfig,
    workers: usize,
) -> Result<(String, EmbeddingDump), CliError> {
    macro_rules! run_async {
        ($ctor:expr) => {{
            tensor::profile::reset();
            let (report, m) =
                sptransx::distributed::train_hogwild_returning(ds, config, workers, $ctor)?;
            let kernel_table = kernel_counter_table();
            let eval = kg::eval::evaluate_batched(
                &m,
                &ds.test,
                &ds.all_known(),
                &EvalConfig {
                    max_triples: Some(500),
                    sample: kg::eval::SampleStrategy::Strided,
                    ..Default::default()
                },
            );
            let emb = m.store().lookup("embeddings").map(|id| {
                let t = m.store().value(id);
                (t.rows(), t.cols(), t.as_slice().to_vec())
            });
            let summary = format!(
                "{}: {} epochs, loss {:.4} -> {:.4}, wall {:.2}s, Hits@10 {:.3}, MRR {:.3}\n\
                 arm: async hogwild ({} workers, nondeterministic), sparse touched-row \
                 gradients/renorm\n{}",
                KgeModel::name(&m),
                report.epoch_losses.len(),
                report.epoch_losses.first().copied().unwrap_or(0.0),
                report.epoch_losses.last().copied().unwrap_or(0.0),
                report.wall.as_secs_f64(),
                eval.hits(10).unwrap_or(0.0),
                eval.mrr,
                report.workers,
                kernel_table,
            );
            Ok((summary, emb))
        }};
    }
    match model {
        "transe" => run_async!(SpTransE::from_config),
        "toruse" => run_async!(SpTorusE::from_config),
        "transr" => run_async!(SpTransR::from_config),
        "transh" => run_async!(SpTransH::from_config),
        "distmult" => run_async!(SpDistMult::from_config),
        other => Err(CliError::Usage(format!(
            "unknown --model {other:?} (transe|toruse|transr|transh|distmult)"
        ))),
    }
}

/// Renders the Table-5-style per-kernel counter report for the training run:
/// one row per autograd kernel (`op::*` scope) with call counts and the
/// analytic bytes-moved / flop totals from `sparse::metrics`.
///
/// Wall-clock times are deliberately omitted and rows are sorted by name,
/// so the table is bit-identical across thread counts and machines — CI
/// diffs the full report between runs.
fn kernel_counter_table() -> String {
    let mut rows: Vec<_> = tensor::profile::report()
        .into_iter()
        .filter(|e| e.name.starts_with("op::"))
        .collect();
    rows.sort_by_key(|e| e.name);
    let mut out = String::from("per-kernel counters (analytic bytes/flops, thread-independent):");
    for e in &rows {
        out.push_str(&format!(
            "\n  {:<28} calls {:>8}  bytes {:>14}  flops {:>14}",
            e.name, e.calls, e.bytes, e.flops
        ));
    }
    out
}

/// Applies the global `--threads N` option: pins the pool size if the pool
/// is not yet created, and caps the fan-out either way.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for a non-positive or unparsable value.
fn apply_threads_option(args: &Args) -> Result<(), CliError> {
    let Some(raw) = args.options.get("threads") else {
        return Ok(());
    };
    let n: usize = raw.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
        CliError::Usage(format!("--threads needs a positive integer, got {raw:?}"))
    })?;
    // `set_num_threads` sizes the pool when it has not been created yet; the
    // parallelism limit also covers the already-created case (tests, REPLs).
    xparallel::set_num_threads(n);
    xparallel::set_parallelism_limit(n);
    Ok(())
}

/// The options each subcommand reads, space-separated (`--threads` is
/// accepted everywhere); `None` for an unknown subcommand. `train` and
/// `stats` load their TSV through `load_dataset`, which reads `--seed`,
/// `--valid-frac` and `--test-frac`.
fn known_options(command: &str) -> Option<&'static str> {
    Some(match command {
        "generate" => "entities relations triples seed out",
        "train" => {
            "train model out store cache-rows async workers norm sampler optimizer \
             lr-decay epochs batch-size dim rel-dim lr margin dense-grads seed \
             valid-frac test-frac"
        }
        "stats" => "train seed valid-frac test-frac",
        "serve" => {
            "emb train norm clusters kmeans-iters seed k queries zipf cache-size \
             index index-out nprobe store cache-rows min-recall max-scan-frac"
        }
        "help" | "--help" | "-h" => "",
        _ => return None,
    })
}

/// Rejects any option the subcommand would not read, so a misspelt or
/// retired flag fails loudly instead of silently running on defaults.
fn reject_unknown_options(args: &Args) -> Result<(), CliError> {
    let Some(known) = known_options(&args.command) else {
        return Ok(()); // `run` reports the unknown subcommand itself
    };
    let mut unknown: Vec<String> = args
        .options
        .keys()
        .filter(|k| *k != "threads" && !known.split_whitespace().any(|o| o == k.as_str()))
        .map(|k| format!("--{k}"))
        .collect();
    if unknown.is_empty() {
        return Ok(());
    }
    unknown.sort_unstable();
    Err(CliError::Usage(format!(
        "sptx {} does not accept {} (see `sptx help`)",
        args.command,
        unknown.join(", ")
    )))
}

/// Dispatches a parsed command, returning the text to print.
///
/// # Errors
///
/// Propagates all subcommand errors.
pub fn run(args: &Args) -> Result<String, CliError> {
    reject_unknown_options(args)?;
    apply_threads_option(args)?;
    match args.command.as_str() {
        "generate" => cmd_generate(args),
        "train" => cmd_train(args),
        "stats" => cmd_stats(args),
        "serve" => cmd_serve(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!(
            "unknown subcommand {other:?}\n{USAGE}"
        ))),
    }
}

/// The usage banner.
pub const USAGE: &str = "\
sptx — SparseTransX knowledge-graph embedding trainer

USAGE:
  sptx generate --entities N --relations R --triples M --out DIR
  sptx train    --train FILE.tsv [--model transe|toruse|transr|transh|distmult]
                [--epochs E] [--dim D] [--lr LR] [--margin M] [--norm l1|l2]
                [--optimizer sgd|adagrad|adam] [--lr-decay STEP:GAMMA]
                [--sampler uniform|bernoulli] [--dense-grads true|false]
                [--store ram|disk] [--cache-rows N]
                [--async true] [--workers N] [--out embeddings.bin]
  sptx stats    --train FILE.tsv
  sptx serve    --emb FILE.bin --train FILE.tsv [--norm l1|l2] [--k K]
                [--clusters C] [--nprobe P] [--kmeans-iters I]
                [--queries Q] [--zipf S] [--cache-size N] [--seed S]
                [--store ram|disk] [--cache-rows N]
                [--index FILE] [--index-out FILE]
                [--min-recall R] [--max-scan-frac F]
  sptx help

Any subcommand also accepts --threads N (worker-pool size; results are
bit-identical at any N, only wall-clock changes). --dense-grads true disables
the touched-row sparse gradient AND epoch-renormalization paths (an ablation
switch: training is bit-identical, each batch and epoch-end sweep just walks
whole embedding tables). The train report names which arm ran and prints a
per-kernel calls/bytes/flops counter table. --lr-decay
multiplies the learning rate by GAMMA every STEP epochs.

--async true trains with the lock-free Hogwild arm: --workers N threads
(default 4) share one set of parameter tensors and apply touched-row SGD
updates with no barriers and no locks. Throughput scales with cores, but the
run is nondeterministic at 2+ workers (update interleaving and occasional
lost increments on row collisions) — validate results statistically, and use
the synchronous default wherever the bit-determinism contract matters. At
--workers 1 the arm degenerates to the synchronous trainer bit-for-bit.
Requires SGD, sparse gradients and --store ram.

--store disk trains out of core: the embedding table lives in {out}.pagefile
and only each batch's touched rows are paged into a --cache-rows row RAM
cache (LRU, dirty rows written back on eviction and at epoch end). Paging
moves bytes, never arithmetic — the run is bit-identical to --store ram —
and the report's cache counters are cross-validated against a simcache LRU
replay of the same row trace (any divergence prints a WARNING line).
Requires --model transe|toruse with SGD and sparse gradients.

serve loads the stacked embedding matrix train saves (TransE/TorusE layout;
--norm must match training), answers top-K completion queries through an
IVF candidate index (nprobe = cost/recall knob; nprobe = clusters is an
exact full scan), measures recall@K against the exact full-scan arm, and
reports latency percentiles, QPS, scan fraction and cache hit rates.
--min-recall / --max-scan-frac turn quality regressions into a nonzero
exit status for CI. serve --store disk additionally answers every query
through a --cache-rows row cache over the on-disk embedding file (queries a
store bigger than RAM); answers are checked bitwise against the resident
arm and the row-cache counters against a simcache LRU replay, with any
divergence reported as a WARNING line.";

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_command_and_flags() {
        let args = parse_args(&strs(&["train", "--epochs", "5", "--lr", "0.1"])).unwrap();
        assert_eq!(args.command, "train");
        assert_eq!(args.parse_or("epochs", 0usize).unwrap(), 5);
        assert!((args.parse_or("lr", 0.0f32).unwrap() - 0.1).abs() < 1e-6);
        assert_eq!(args.parse_or("dim", 64usize).unwrap(), 64);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&strs(&["train", "positional"])).is_err());
        assert!(parse_args(&strs(&["train", "--epochs"])).is_err());
        let args = parse_args(&strs(&["train", "--epochs", "abc"])).unwrap();
        assert!(args.parse_or("epochs", 0usize).is_err());
        assert!(args.required("missing").is_err());
    }

    #[test]
    fn generate_then_stats_then_train() {
        let dir = std::env::temp_dir().join("sptx-cli-test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();

        let gen = parse_args(&strs(&[
            "generate",
            "--entities",
            "80",
            "--relations",
            "4",
            "--triples",
            "500",
            "--out",
            &out,
        ]))
        .unwrap();
        let msg = run(&gen).unwrap();
        assert!(msg.contains("train"), "{msg}");

        let train_file = dir.join("train.tsv").to_string_lossy().to_string();
        let stats = parse_args(&strs(&["stats", "--train", &train_file])).unwrap();
        let msg = run(&stats).unwrap();
        assert!(msg.contains("mean degree"), "{msg}");

        let emb_out = dir.join("emb.bin").to_string_lossy().to_string();
        let train = parse_args(&strs(&[
            "train",
            "--train",
            &train_file,
            "--epochs",
            "3",
            "--dim",
            "8",
            "--batch-size",
            "64",
            "--out",
            &emb_out,
        ]))
        .unwrap();
        let msg = run(&train).unwrap();
        assert!(msg.contains("SpTransE"), "{msg}");
        assert!(
            msg.contains("arm: sparse touched-row gradients/renorm\n"),
            "{msg}"
        );
        assert!(msg.contains("per-kernel counters"), "{msg}");
        assert!(msg.contains("op::spmm_backward"), "{msg}");
        assert!(msg.contains("op::l2_norm"), "{msg}");
        assert!(dir.join("emb.bin").exists());
    }

    #[test]
    fn unknown_subcommand_and_model() {
        let args = parse_args(&strs(&["frobnicate"])).unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));

        let dir = std::env::temp_dir().join("sptx-cli-test2");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "generate",
            "--entities",
            "30",
            "--relations",
            "2",
            "--triples",
            "100",
            "--out",
            &out,
        ]))
        .unwrap())
        .unwrap();
        let train_file = dir.join("train.tsv").to_string_lossy().to_string();
        let bad = parse_args(&strs(&["train", "--train", &train_file, "--model", "nope"])).unwrap();
        assert!(matches!(run(&bad), Err(CliError::Usage(_))));
    }

    #[test]
    fn optimizer_and_lr_decay_flags_parse() {
        let args = parse_args(&strs(&[
            "train",
            "--optimizer",
            "adagrad",
            "--lr-decay",
            "10:0.5",
            "--dense-grads",
            "true",
        ]))
        .unwrap();
        let cfg = config_from_args(&args).unwrap();
        assert_eq!(cfg.optimizer, OptimizerKind::Adagrad);
        assert_eq!(cfg.lr_schedule, Some((10, 0.5)));
        assert!(cfg.dense_grads);

        let defaults = config_from_args(&parse_args(&strs(&["train"])).unwrap()).unwrap();
        assert_eq!(defaults.optimizer, OptimizerKind::Sgd);
        assert_eq!(defaults.lr_schedule, None);
        assert!(!defaults.dense_grads);
        defaults.validate().unwrap();

        let bad = parse_args(&strs(&["train", "--optimizer", "lbfgs"])).unwrap();
        assert!(matches!(config_from_args(&bad), Err(CliError::Usage(_))));
        for decay in ["0:0.5", "10", "10:-1", "x:0.5", "10:nan"] {
            let bad = parse_args(&strs(&["train", "--lr-decay", decay])).unwrap();
            assert!(
                matches!(config_from_args(&bad), Err(CliError::Usage(_))),
                "--lr-decay {decay} should be rejected"
            );
        }
    }

    #[test]
    fn train_with_adam_and_decay_runs_end_to_end() {
        let dir = std::env::temp_dir().join("sptx-cli-test-opt");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "generate",
            "--entities",
            "60",
            "--relations",
            "3",
            "--triples",
            "300",
            "--out",
            &out,
        ]))
        .unwrap())
        .unwrap();
        let train_file = dir.join("train.tsv").to_string_lossy().to_string();
        let emb_out = dir.join("emb.bin").to_string_lossy().to_string();
        let train = parse_args(&strs(&[
            "train",
            "--train",
            &train_file,
            "--epochs",
            "2",
            "--dim",
            "8",
            "--batch-size",
            "64",
            "--optimizer",
            "adam",
            "--lr-decay",
            "1:0.5",
            "--out",
            &emb_out,
        ]))
        .unwrap();
        let msg = run(&train).unwrap();
        assert!(msg.contains("SpTransE"), "{msg}");
    }

    #[test]
    fn train_store_disk_matches_store_ram_bit_for_bit() {
        let dir = std::env::temp_dir().join("sptx-cli-test-paged");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "generate",
            "--entities",
            "150",
            "--relations",
            "4",
            "--triples",
            "700",
            "--out",
            &out,
        ]))
        .unwrap())
        .unwrap();
        let train_file = dir.join("train.tsv").to_string_lossy().to_string();
        let common = |store: &str, cache: &str, emb: &str| {
            strs(&[
                "train",
                "--train",
                &train_file,
                "--epochs",
                "2",
                "--dim",
                "8",
                "--batch-size",
                "16",
                "--store",
                store,
                "--cache-rows",
                cache,
                "--out",
                emb,
            ])
        };

        let ram_out = dir.join("emb_ram.bin").to_string_lossy().to_string();
        let msg = run(&parse_args(&common("ram", "96", &ram_out)).unwrap()).unwrap();
        assert!(!msg.contains("paged store:"), "{msg}");

        // 96 cache rows against a 154-row stacked table: evictions and
        // write-backs all run, yet the dumped embeddings must be the same
        // bytes the resident run saved.
        let disk_out = dir.join("emb_disk.bin").to_string_lossy().to_string();
        let msg = run(&parse_args(&common("disk", "96", &disk_out)).unwrap()).unwrap();
        assert!(msg.contains("paged store: budget 96 rows"), "{msg}");
        assert!(msg.contains("simcache LRU replay"), "{msg}");
        assert!(!msg.contains("WARNING"), "cache model diverged: {msg}");
        assert!(
            !dir.join("emb_disk.bin.pagefile").exists(),
            "the pagefile must be cleaned up after training"
        );
        let ram_bytes = std::fs::read(dir.join("emb_ram.bin")).unwrap();
        let disk_bytes = std::fs::read(dir.join("emb_disk.bin")).unwrap();
        assert_eq!(
            ram_bytes, disk_bytes,
            "paged embeddings diverged from resident"
        );
    }

    #[test]
    fn train_store_disk_rejects_unsupported_configurations() {
        // Validation fires before the dataset loads, so no fixture needed.
        for extra in [
            &["--store", "disk", "--optimizer", "adam"][..],
            &["--store", "disk", "--model", "transr"],
            &["--store", "disk", "--dense-grads", "true"],
            &["--store", "disk", "--cache-rows", "0"],
            &["--store", "tape"],
        ] {
            let mut argv = strs(&["train", "--train", "missing.tsv"]);
            argv.extend(strs(extra));
            let args = parse_args(&argv).unwrap();
            assert!(
                matches!(run(&args), Err(CliError::Usage(_))),
                "expected a usage error for {extra:?}"
            );
        }
    }

    #[test]
    fn every_subcommand_rejects_options_it_does_not_read() {
        // Checked before any file is opened, so no fixture is needed.
        for (argv, named) in [
            (
                &["train", "--train", "x.tsv", "--epoch", "7", "--bogus", "1"][..],
                "--bogus, --epoch",
            ),
            (
                &[
                    "train",
                    "--train",
                    "x.tsv",
                    "--store",
                    "disk",
                    "--cache-row",
                    "8",
                ],
                "--cache-row",
            ),
            (
                &["generate", "--out", "unused", "--model", "transe"],
                "--model",
            ),
            (&["stats", "--train", "x.tsv", "--epochs", "3"], "--epochs"),
            (
                &["serve", "--emb", "e.bin", "--train", "x.tsv", "--lr", "0.1"],
                "--lr",
            ),
            (&["help", "--verbose", "true"], "--verbose"),
        ] {
            let args = parse_args(&strs(argv)).unwrap();
            let Err(CliError::Usage(msg)) = run(&args) else {
                panic!("expected a usage error for {argv:?}");
            };
            assert_eq!(
                msg,
                format!("sptx {} does not accept {named} (see `sptx help`)", argv[0])
            );
        }
    }

    #[test]
    fn train_async_end_to_end_and_flag_validation() {
        // Flag validation fires before any dataset loads.
        for extra in [
            &["--workers", "2"][..], // --workers without --async
            &["--async", "true", "--workers", "0"],
            &["--async", "true", "--store", "disk"],
            &["--async", "true", "--optimizer", "adam"],
            &["--async", "true", "--dense-grads", "true"],
        ] {
            let mut argv = strs(&["train", "--train", "missing.tsv"]);
            argv.extend(strs(extra));
            let args = parse_args(&argv).unwrap();
            assert!(
                matches!(run(&args), Err(CliError::Usage(_))),
                "expected a usage error for {extra:?}"
            );
        }

        let dir = std::env::temp_dir().join("sptx-cli-test-async");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "generate",
            "--entities",
            "80",
            "--relations",
            "4",
            "--triples",
            "500",
            "--out",
            &out,
        ]))
        .unwrap())
        .unwrap();
        let train_file = dir.join("train.tsv").to_string_lossy().to_string();
        let emb_out = dir.join("emb.bin").to_string_lossy().to_string();
        let train = parse_args(&strs(&[
            "train",
            "--train",
            &train_file,
            "--epochs",
            "3",
            "--dim",
            "8",
            "--batch-size",
            "64",
            "--async",
            "true",
            "--workers",
            "2",
            "--out",
            &emb_out,
        ]))
        .unwrap();
        let msg = run(&train).unwrap();
        assert!(msg.contains("SpTransE"), "{msg}");
        assert!(
            msg.contains("arm: async hogwild (2 workers, nondeterministic)"),
            "{msg}"
        );
        assert!(msg.contains("MRR"), "{msg}");
        assert!(msg.contains("per-kernel counters"), "{msg}");
        assert!(dir.join("emb.bin").exists());
    }

    #[test]
    fn serve_end_to_end_with_index_roundtrip() {
        let dir = std::env::temp_dir().join("sptx-cli-test-serve");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "generate",
            "--entities",
            "120",
            "--relations",
            "4",
            "--triples",
            "600",
            "--out",
            &out,
        ]))
        .unwrap())
        .unwrap();
        let train_file = dir.join("train.tsv").to_string_lossy().to_string();
        let emb_out = dir.join("emb.bin").to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "train",
            "--train",
            &train_file,
            "--epochs",
            "2",
            "--dim",
            "8",
            "--batch-size",
            "64",
            "--out",
            &emb_out,
        ]))
        .unwrap())
        .unwrap();

        // Build the index, serve a small workload, and persist the index.
        let index_path = dir.join("index.ivf").to_string_lossy().to_string();
        let serve = parse_args(&strs(&[
            "serve",
            "--emb",
            &emb_out,
            "--train",
            &train_file,
            "--queries",
            "200",
            "--clusters",
            "12",
            "--nprobe",
            "12", // nprobe == clusters: the ANN arm IS the exact scan
            "--min-recall",
            "0.999",
            "--index-out",
            &index_path,
        ]))
        .unwrap();
        let msg = run(&serve).unwrap();
        assert!(msg.contains("recall@10 vs exact arm: 1.0000"), "{msg}");
        assert!(!msg.contains("WARNING"), "cache model diverged: {msg}");

        // Reload the saved index and serve again with a selective probe.
        let serve = parse_args(&strs(&[
            "serve",
            "--emb",
            &emb_out,
            "--train",
            &train_file,
            "--queries",
            "200",
            "--nprobe",
            "3",
            "--index",
            &index_path,
        ]))
        .unwrap();
        let msg = run(&serve).unwrap();
        assert!(msg.contains("index: 12 clusters, nprobe 3"), "{msg}");

        // The out-of-core arm: the same workload answered through a 48-row
        // cache over the on-disk dump must agree with the resident arm on
        // every query (any divergence or counter mismatch prints WARNING).
        let serve = parse_args(&strs(&[
            "serve",
            "--emb",
            &emb_out,
            "--train",
            &train_file,
            "--queries",
            "200",
            "--nprobe",
            "3",
            "--index",
            &index_path,
            "--store",
            "disk",
            "--cache-rows",
            "48",
        ]))
        .unwrap();
        let msg = run(&serve).unwrap();
        assert!(msg.contains("paged store: budget 48 rows"), "{msg}");
        assert!(msg.contains("simcache LRU replay"), "{msg}");
        assert!(!msg.contains("WARNING"), "paged arm diverged: {msg}");

        let bad = parse_args(&strs(&[
            "serve",
            "--emb",
            &emb_out,
            "--train",
            &train_file,
            "--store",
            "tape",
        ]))
        .unwrap();
        assert!(matches!(run(&bad), Err(CliError::Usage(_))));

        // An impossible recall floor must fail the command.
        let serve = parse_args(&strs(&[
            "serve",
            "--emb",
            &emb_out,
            "--train",
            &train_file,
            "--queries",
            "50",
            "--nprobe",
            "1",
            "--min-recall",
            "1.1",
        ]))
        .unwrap();
        assert!(matches!(run(&serve), Err(CliError::Library(_))));
    }

    #[test]
    fn serve_rejects_mismatched_and_corrupt_inputs() {
        let dir = std::env::temp_dir().join("sptx-cli-test-serve-bad");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "generate",
            "--entities",
            "50",
            "--relations",
            "3",
            "--triples",
            "200",
            "--out",
            &out,
        ]))
        .unwrap())
        .unwrap();
        let train_file = dir.join("train.tsv").to_string_lossy().to_string();

        // Missing embedding file.
        let serve = parse_args(&strs(&[
            "serve",
            "--emb",
            "/nonexistent.bin",
            "--train",
            &train_file,
        ]))
        .unwrap();
        assert!(run(&serve).is_err());

        // Truncated embedding file: rejected at open, not a panic.
        let emb_out = dir.join("emb.bin").to_string_lossy().to_string();
        run(&parse_args(&strs(&[
            "train",
            "--train",
            &train_file,
            "--epochs",
            "1",
            "--dim",
            "8",
            "--batch-size",
            "64",
            "--out",
            &emb_out,
        ]))
        .unwrap())
        .unwrap();
        let bytes = std::fs::read(&emb_out).unwrap();
        let cut = dir.join("cut.bin");
        std::fs::write(&cut, &bytes[..bytes.len() / 2]).unwrap();
        let serve = parse_args(&strs(&[
            "serve",
            "--emb",
            &cut.to_string_lossy(),
            "--train",
            &train_file,
        ]))
        .unwrap();
        assert!(matches!(run(&serve), Err(CliError::Library(_))));

        // Corrupt index file.
        let bad_index = dir.join("bad.ivf");
        std::fs::write(&bad_index, b"SPTXIVF1 not really").unwrap();
        let serve = parse_args(&strs(&[
            "serve",
            "--emb",
            &emb_out,
            "--train",
            &train_file,
            "--index",
            &bad_index.to_string_lossy(),
        ]))
        .unwrap();
        assert!(matches!(run(&serve), Err(CliError::Library(_))));
    }

    #[test]
    fn threads_option_is_validated_and_accepted() {
        let bad = parse_args(&strs(&["help", "--threads", "zero"])).unwrap();
        assert!(matches!(run(&bad), Err(CliError::Usage(_))));
        let bad = parse_args(&strs(&["help", "--threads", "0"])).unwrap();
        assert!(matches!(run(&bad), Err(CliError::Usage(_))));
        // A generous cap is a no-op on any machine; the command still runs.
        let ok = parse_args(&strs(&["help", "--threads", "8"])).unwrap();
        assert!(run(&ok).is_ok());
    }

    #[test]
    fn help_prints_usage() {
        let args = parse_args(&strs(&["help"])).unwrap();
        assert_eq!(run(&args).unwrap(), USAGE);
    }
}
