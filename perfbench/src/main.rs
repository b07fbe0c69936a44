//! End-to-end and per-layer benchmark of the SparseTransX reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload transe-ram --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each invocation runs one workload in its own process (the library's
//! counters are process globals), prints progress to stderr and, as the
//! last line of stdout, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics of an untraced run; `--trace 1` adds a span-instrumented run and
//! reports the per-layer metrics. Inputs are generated from `--seed` by a
//! child process into `.bench_data/` before anything is timed. See
//! `perfbench/README.md` for the metric → layer → workload map.

mod clock;
mod gen;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use sptransx::{SamplerKind, TrainConfig};

use crate::gen::{KgShape, TableShape};
use crate::report::Report;
use crate::serve::ServeSpec;
use crate::train::{ModelKind, TrainSpec};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Worker threads of the library's pool.
const THREADS: &str = "2";

/// End-to-end metrics, reported by every workload from the untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("rank_queries_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Autograd kernels whose `tensor::profile` scopes the per-layer report
/// carries (`backward` is the whole reverse pass).
pub const KERNELS: [&str; 13] = [
    "spmm",
    "spmm_backward",
    "spmm_score",
    "spmm_score_backward",
    "margin_loss",
    "margin_loss_backward_fused",
    "project_rows",
    "project_backward",
    "gather",
    "gather_backward",
    "l2_norm",
    "add",
    "backward",
];

/// Per-layer metrics, reported by every workload from the traced run. A
/// layer a workload never calls reports zero.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 51] = [
        ("kg.load_s", "s"),
        ("kg.plan_s", "s"),
        ("sptransx.attach_plan_s", "s"),
        ("tensor.page_out_s", "s"),
        ("serve.load_s", "s"),
        ("serve.index_build_s", "s"),
        ("sptransx.score_batch_s", "s"),
        ("tensor.loss_s", "s"),
        ("tensor.backward_s", "s"),
        ("tensor.optim_step_s", "s"),
        ("tensor.zero_grads_s", "s"),
        ("sptransx.page_in_s", "s"),
        ("sptransx.end_epoch_s", "s"),
        ("sptransx.steps", "count"),
        ("sptransx.step_ms_p50", "ms"),
        ("sptransx.step_ms_tail", "ms"),
        ("sptransx.step_tail_pct", "pct"),
        ("sptransx.train_traced_s", "s"),
        ("sptransx.train_untraced_s", "s"),
        ("sptransx.unaccounted_s", "s"),
        ("trace.overhead_pct", "pct"),
        ("host.steal_s", "s"),
        ("sparse.spmm_calls", "count"),
        ("sparse.flops", "flops"),
        ("sparse.bytes", "bytes"),
        ("tensor.pager.hits", "count"),
        ("tensor.pager.misses", "count"),
        ("tensor.pager.accesses", "count"),
        ("tensor.pager.hit_ratio", "ratio"),
        ("tensor.pager.evictions", "count"),
        ("tensor.pager.write_backs", "count"),
        ("tensor.pager.read_ops", "count"),
        ("tensor.pager.write_ops", "count"),
        ("kg.eval_s", "s"),
        ("kg.eval_queries", "count"),
        ("kg.eval_us_per_query", "us"),
        ("kg.mrr", "ratio"),
        ("kg.mrr_floor", "ratio"),
        ("tensor.peak_bytes", "bytes"),
        ("serve.queries", "count"),
        ("serve.query_us_p50", "us"),
        ("serve.query_us_tail", "us"),
        ("serve.query_tail_pct", "pct"),
        ("serve.probe_us_p50", "us"),
        ("serve.exact_us_p50", "us"),
        ("serve.exact_queries", "count"),
        ("serve.scanned", "count"),
        ("serve.scan_fraction", "ratio"),
        ("serve.cache_lookups", "count"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.recall_at_10", "ratio"),
    ];
    let mut all: Vec<(String, &str)> = fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for k in KERNELS {
        for (suffix, unit) in [
            ("s", "s"),
            ("calls", "count"),
            ("bytes", "bytes"),
            ("flops", "flops"),
        ] {
            all.push((format!("kernel.{k}.{suffix}"), unit));
        }
    }
    all
}

/// One named workload: its generated input and what runs on it.
enum Workload {
    Train(KgShape, TrainSpec),
    Serve(TableShape, ServeSpec),
}

/// Workloads at their nominal size, scaled by `--seconds / 10`.
fn workload(name: &str, seconds: f64) -> Option<Workload> {
    let scale = seconds / 10.0;
    let epochs = |nominal: f64| ((nominal * scale).round() as usize).max(2);
    let transe = |epochs: usize| TrainConfig {
        epochs,
        batch_size: 4096,
        dim: 64,
        lr: 400.0,
        margin: 1.0,
        ..Default::default()
    };
    let graph_100k = |triples| KgShape {
        entities: 100_000,
        relations: 200,
        triples,
        clusters: 1_000,
    };
    Some(match name {
        "transe-ram" => Workload::Train(
            graph_100k(1_000_000),
            TrainSpec {
                model: ModelKind::TransE,
                config: transe(epochs(3.0)),
                eval_triples: 125,
                mrr_floor: true,
                cache_share: None,
            },
        ),
        "transr-ram" => Workload::Train(
            KgShape {
                entities: 15_000,
                relations: 1_345,
                triples: 480_000,
                clusters: 150,
            },
            TrainSpec {
                model: ModelKind::TransR,
                config: TrainConfig {
                    rel_dim: 32,
                    lr: 80.0,
                    sampler: SamplerKind::Bernoulli,
                    ..transe(epochs(3.0))
                },
                eval_triples: 100,
                mrr_floor: true,
                cache_share: None,
            },
        ),
        "transe-disk" => Workload::Train(
            graph_100k(250_000),
            TrainSpec {
                model: ModelKind::TransE,
                config: transe(epochs(2.0)),
                eval_triples: 125,
                mrr_floor: false,
                cache_share: Some(0.15),
            },
        ),
        "serve-zipf" => Workload::Serve(
            TableShape {
                entities: 100_000,
                relations: 200,
                dim: 64,
                centres: 3_000,
            },
            ServeSpec {
                entities: 100_000,
                kmeans_iters: 8,
                cache_entries: 1_024,
                k: 10,
                nprobe: 4,
                zipf: 1.1,
                queries: ((20_000.0 * scale).round() as usize).max(1_000),
                recall_every: 50,
            },
        ),
        _ => return None,
    })
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = raw
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        raw.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let bad = |flag: &str, e: String| format!("bad {flag}: {e}");
    let args = Args {
        workload: get("--workload")?,
        seed: get("--seed")?
            .parse()
            .map_err(|e| bad("--seed", format!("{e}")))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| bad("--seconds", format!("{e}")))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(bad("--trace", format!("{other:?} is not 0 or 1"))),
        },
    };
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err(bad("--seconds", "must be positive".into()));
    }
    Ok(args)
}

/// Writes the inputs of `name` at `seed` into `dir` (child-process entry).
fn generate(name: &str, seed: u64, dir: &Path) -> std::io::Result<()> {
    let tmp = dir.with_extension(format!("tmp{}", std::process::id()));
    std::fs::create_dir_all(&tmp)?;
    match workload(name, 10.0) {
        Some(Workload::Train(shape, _)) => {
            gen::write_tsv(&tmp.join("train.tsv"), &gen::kg_triples(shape, seed))?
        }
        Some(Workload::Serve(shape, _)) => {
            let rows = shape.entities + shape.relations;
            gen::write_table(
                &tmp.join("table.emb"),
                rows,
                shape.dim,
                &gen::clustered_table(shape, seed),
            )?
        }
        None => return Err(std::io::Error::other(format!("unknown workload {name:?}"))),
    }
    std::fs::rename(&tmp, dir)
}

/// The input directory of `name` at `seed`, generated by a child process
/// on first use so that the generator's memory never counts toward this
/// process's peak.
fn inputs(name: &str, seed: u64) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_data").join(format!("{name}-{seed}"));
    if !dir.exists() {
        std::fs::create_dir_all(".bench_data").map_err(|e| e.to_string())?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let status = Command::new(exe)
            .args(["generate", name, &seed.to_string()])
            .arg(&dir)
            .status()
            .map_err(|e| format!("cannot start the generator: {e}"))?;
        if !status.success() || !dir.exists() {
            return Err(format!("input generation failed: {status}"));
        }
    }
    Ok(dir)
}

fn run(args: &Args) -> Result<Report, String> {
    let wl = workload(&args.workload, args.seconds).ok_or(format!(
        "unknown workload {:?} (transe-ram|transr-ram|transe-disk|serve-zipf)",
        args.workload
    ))?;
    let dir = inputs(&args.workload, args.seed)?;
    let scratch = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let run_id = u64::from(std::process::id()) << 32 ^ args.seed;
    let mut tracer = args.trace.then(|| trace::Tracer::new(run_id));
    let mut report = Report::default();
    let clock = clock::Stopwatch::start();
    let result = match &wl {
        Workload::Train(_, spec) => train::run(
            spec,
            &dir.join("train.tsv"),
            &scratch,
            args.seed,
            tracer.as_mut(),
            &mut report,
        ),
        Workload::Serve(_, spec) => serve::run(
            spec,
            &dir.join("table.emb"),
            args.seed,
            tracer.as_mut(),
            &mut report,
        ),
    };
    result.map_err(|e| format!("{} failed: {e}", args.workload))?;
    report.metric("host.steal_s", clock.steal(), "s");
    if let Some(tr) = &tracer {
        let path = scratch.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tr.write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("{} spans written to {}", tr.spans().len(), path.display());
    }
    let declared: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let names: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    let layers = per_layer();
    for n in report.names() {
        let known = END_TO_END.iter().any(|&(e, _)| e == n) || layers.iter().any(|(l, _)| l == n);
        assert!(known, "metric {n} is missing from BENCHMARK.json");
    }
    report.retain(&names);
    let present: Vec<String> = report.names().map(str::to_string).collect();
    for (name, unit) in &declared {
        if !present.contains(name) {
            report.metric(name, 0.0, unit);
        }
    }
    Ok(report)
}

fn main() -> ExitCode {
    // The library's pool reads this on first use; set it before anything
    // touches the pool.
    std::env::set_var(xparallel::NUM_THREADS_ENV, THREADS);
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("generate") {
        let [_, name, seed, dir] = raw.as_slice() else {
            eprintln!("usage: perfbench generate <workload> <seed> <dir>");
            return ExitCode::from(2);
        };
        let done = seed
            .parse()
            .map_err(|e| format!("bad seed: {e}"))
            .and_then(|seed| generate(name, seed, Path::new(dir)).map_err(|e| e.to_string()));
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("generate: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric object in `section` of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_runs_report() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.into()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        for (name, _) in e2e.iter().chain(&layers) {
            assert!(report::valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn every_workload_is_defined_and_scales_with_seconds() {
        for name in ["transe-ram", "transr-ram", "transe-disk", "serve-zipf"] {
            assert!(workload(name, 10.0).is_some(), "{name}");
        }
        assert!(workload("nope", 10.0).is_none());
        let Some(Workload::Train(_, short)) = workload("transe-ram", 1.0) else {
            panic!()
        };
        let Some(Workload::Train(_, long)) = workload("transe-ram", 20.0) else {
            panic!()
        };
        assert_eq!((short.config.epochs, long.config.epochs), (2, 6));
    }
}
