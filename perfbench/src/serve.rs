//! Serving workload: load an `SPTXEMB1` table, build the IVF index, and
//! drive a closed loop of one client through `ServeEngine::answer_ann`.

use std::error::Error;
use std::path::Path;
use std::time::Instant;

use kg::eval::BatchScorer;
use sptransx::serve::{
    recall_at_k, Direction, IvfConfig, IvfIndex, Query, ServeEngine, ServeModel, ZipfWorkload,
};
use sptransx::Norm;
use xparallel::PoolHandle;

use crate::clock::Stopwatch;
use crate::report::Report;
use crate::stats::{median, percentile, ratio, tail_percentile};
use crate::trace::Tracer;
use crate::SETUP_REPS;

type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// One serving workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub entities: usize,
    pub kmeans_iters: usize,
    pub cache_entries: usize,
    pub k: usize,
    pub nprobe: usize,
    pub zipf: f64,
    pub queries: usize,
    /// Every `recall_every`-th query is also answered by the exact arm.
    pub recall_every: usize,
}

/// Answers of one pass of the closed loop.
struct Pass {
    /// Active (steal-corrected) seconds of each slice of the loop.
    slice_secs: Vec<f64>,
    slice_len: usize,
    latencies_us: Vec<f64>,
    /// Answers of every `recall_every`-th query.
    sampled: Vec<Vec<(u32, f32)>>,
    /// Digest of every answer's ids and score bits, in order.
    digest: u64,
    scored: u64,
}

/// FNV-1a over the ids and score bits of `hits`, chained onto `digest`.
fn chain_digest(digest: u64, hits: &[(u32, f32)]) -> u64 {
    hits.iter()
        .flat_map(|&(id, s)| {
            id.to_le_bytes()
                .into_iter()
                .chain(s.to_bits().to_le_bytes())
        })
        .fold(digest, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// The loop is timed in this many equal slices; `throughput_per_s` is the
/// median slice rate, so one stalled second does not move it.
const SLICES: usize = 10;

impl Pass {
    fn active_secs(&self) -> f64 {
        self.slice_secs.iter().sum()
    }

    fn slice_rates(&self) -> Vec<f64> {
        let n = self.latencies_us.len();
        self.slice_secs
            .iter()
            .enumerate()
            .map(|(i, secs)| (self.slice_len.min(n - i * self.slice_len)) as f64 / secs)
            .collect()
    }
}

/// Sends every query in order, one at a time, timing each answer.
fn closed_loop(
    engine: &mut ServeEngine,
    queries: &[Query],
    spec: &ServeSpec,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let slice_len = queries.len().div_ceil(SLICES).max(1);
    let mut latencies_us = Vec::with_capacity(queries.len());
    let mut sampled = Vec::with_capacity(queries.len() / spec.recall_every + 1);
    let mut digest = 0xCBF2_9CE4_8422_2325;
    let mut slice_secs = Vec::with_capacity(SLICES);
    let mut scored = 0u64;
    for (s, slice) in queries.chunks(slice_len).enumerate() {
        let clock = Stopwatch::start();
        for (j, q) in slice.iter().enumerate() {
            let t = Instant::now();
            let answer = match tracer.as_deref_mut() {
                Some(tr) => tr.span("serve.answer_ann", || {
                    engine.answer_ann(q, spec.k, spec.nprobe)
                }),
                None => engine.answer_ann(q, spec.k, spec.nprobe),
            };
            latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
            scored += answer.scored as u64;
            digest = chain_digest(digest, &answer.hits);
            if (s * slice_len + j).is_multiple_of(spec.recall_every) {
                sampled.push(answer.hits);
            }
        }
        slice_secs.push(clock.active_secs());
    }
    Pass {
        slice_secs,
        slice_len,
        latencies_us,
        sampled,
        digest,
        scored,
    }
}

fn setup(
    spec: &ServeSpec,
    table: &Path,
    seed: u64,
    tracer: &mut Option<&mut Tracer>,
) -> Result<(ServeModel, IvfIndex, f64)> {
    let clock = Stopwatch::start();
    let mut span = |name: &'static str, f: &mut dyn FnMut() -> Result<()>| match tracer {
        Some(tr) => tr.span(name, f),
        None => f(),
    };
    let mut model = None;
    span("serve.load", &mut || {
        model = Some(ServeModel::load(table, spec.entities, Norm::L2)?);
        Ok(())
    })?;
    let model = model.expect("loaded");
    let mut index = None;
    span("serve.index_build", &mut || {
        let cfg = IvfConfig {
            iters: spec.kmeans_iters,
            seed,
            ..IvfConfig::sqrt_clusters(spec.entities)
        };
        index = Some(IvfIndex::build(
            model.embeddings(),
            spec.entities,
            model.dim(),
            &cfg,
            &PoolHandle::global(),
        )?);
        Ok(())
    })?;
    Ok((model, index.expect("built"), clock.active_secs()))
}

/// Full-scan scores of every entity for `q`, through the same kernels the
/// exact arm uses.
fn scan_scores(model: &ServeModel, q: &Query, buf: &mut Vec<f32>) {
    buf.resize(model.num_entities(), 0.0);
    match q.dir {
        Direction::Tail => model.score_tails_into(&[(q.entity, q.rel)], buf),
        Direction::Head => model.score_heads_into(&[(q.rel, q.entity)], buf),
    }
}

/// Runs the serving workload on the table at `table` and fills `out`.
pub fn run(
    spec: &ServeSpec,
    table: &Path,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
    out: &mut Report,
) -> Result<()> {
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        let (model, index, secs) = setup(spec, table, seed, &mut tracer)?;
        setup_secs.push(secs);
        ready = Some((model, index));
    }
    let (model, index) = ready.expect("at least one set-up");
    let (n, r) = (model.num_entities(), model.num_relations());
    // The query stream is drawn before anything is timed.
    let queries = ZipfWorkload::new(n, r, spec.zipf, seed).take(spec.queries);
    let reference = tracer.is_some().then(|| (model.clone(), index.clone()));

    let mut engine = ServeEngine::new(model, index)?.with_cache(spec.cache_entries);
    let pass = closed_loop(&mut engine, &queries, spec, None);
    let cache = engine.cache_stats().expect("cache enabled");

    // Exact arm on a fixed 1-in-`recall_every` sample, outside the loop.
    let sample: Vec<usize> = (0..queries.len()).step_by(spec.recall_every).collect();
    let mut exact_us = Vec::with_capacity(sample.len());
    let clock = Stopwatch::start();
    let exact: Vec<Vec<(u32, f32)>> = sample
        .iter()
        .map(|&i| {
            let t = Instant::now();
            let answer = engine.answer_exact(&queries[i], spec.k);
            exact_us.push(t.elapsed().as_secs_f64() * 1e6);
            answer
        })
        .collect();
    let exact_secs = clock.active_secs();
    let mut recall_sum = 0.0;
    let mut mismatched = 0usize;
    let mut buf = Vec::new();
    for ((&i, exact), ann) in sample.iter().zip(&exact).zip(&pass.sampled) {
        recall_sum += recall_at_k(exact, ann);
        scan_scores(engine.model(), &queries[i], &mut buf);
        mismatched += ann
            .iter()
            .filter(|&&(id, s)| s.to_bits() != buf[id as usize].to_bits())
            .count();
    }
    let recall = recall_sum / sample.len() as f64;
    let rss = crate::peak_rss_mib();
    eprintln!(
        "serve: {} queries in {:.3}s, {} cache hits / {} misses, recall@{} {recall:.4} over {} sampled",
        queries.len(),
        pass.active_secs(),
        cache.hits,
        cache.misses,
        spec.k,
        sample.len()
    );

    let recall_ok = out.check(recall >= 0.95, || {
        format!("recall@{} {recall} below 0.95", spec.k)
    });
    let scores_ok = out.check(mismatched == 0, || {
        format!("{mismatched} ANN scores differ from the exact scan")
    });
    let mut loop_ok = recall_ok && scores_ok;

    out.metric("setup_s", median(&setup_secs).expect("set-up ran"), "s");
    out.metric(
        "throughput_per_s",
        median(&pass.slice_rates()).expect("queries ran"),
        "1/s",
    );
    out.metric(
        "rank_queries_per_s",
        sample.len() as f64 / exact_secs,
        "1/s",
    );
    out.metric("peak_rss_mib", rss, "MiB");

    if let (Some(tr), Some((model, index))) = (tracer, reference) {
        // Probe cost alone, on every query vector.
        let mut cands = Vec::new();
        let probe_us: Vec<f64> = queries
            .iter()
            .map(|q| {
                let qv = model.query_vector(q);
                let t = Instant::now();
                index.probe(&qv, spec.nprobe, &mut cands);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        let mut traced = ServeEngine::new(model, index)?.with_cache(spec.cache_entries);
        let root = tr.begin("serve.loop");
        let traced_pass = closed_loop(&mut traced, &queries, spec, Some(&mut *tr));
        tr.end(root);
        loop_ok &= out.check(traced_pass.digest == pass.digest, || {
            "traced answers differ from the untraced loop".into()
        });

        let lookups = cache.hits + cache.misses;
        let tail = tail_percentile(pass.latencies_us.len()).unwrap_or(50.0);
        for (name, metric) in [
            ("serve.load", "serve.load_s"),
            ("serve.index_build", "serve.index_build_s"),
        ] {
            out.metric(metric, median(&tr.durations(name)).unwrap_or(0.0), "s");
        }
        out.metric("serve.queries", queries.len() as f64, "count");
        out.metric(
            "serve.query_us_p50",
            percentile(&pass.latencies_us, 50.0).expect("queries ran"),
            "us",
        );
        out.metric(
            "serve.query_us_tail",
            percentile(&pass.latencies_us, tail).expect("queries ran"),
            "us",
        );
        out.metric("serve.query_tail_pct", tail, "pct");
        out.metric(
            "serve.probe_us_p50",
            percentile(&probe_us, 50.0).expect("queries ran"),
            "us",
        );
        out.metric(
            "serve.exact_us_p50",
            percentile(&exact_us, 50.0).expect("sample ran"),
            "us",
        );
        out.metric("serve.exact_queries", sample.len() as f64, "count");
        out.metric("serve.scanned", pass.scored as f64, "count");
        out.metric(
            "serve.scan_fraction",
            pass.scored as f64 / (queries.len() * n) as f64,
            "ratio",
        );
        out.metric("serve.cache_lookups", lookups as f64, "count");
        out.metric("serve.cache_hit_ratio", ratio(cache.hits, lookups), "ratio");
        out.metric("serve.recall_at_10", recall, "ratio");
        out.metric(
            "trace.overhead_pct",
            100.0 * (traced_pass.active_secs() / pass.active_secs() - 1.0),
            "pct",
        );
    }

    out.phase(queries.len() as u64, loop_ok);
    out.phase(sample.len() as u64, recall_ok && scores_ok);
    Ok(())
}
