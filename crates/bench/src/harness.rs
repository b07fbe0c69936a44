//! Dataset preparation, model dispatch, and table formatting shared by the
//! per-figure benchmark binaries.
//!
//! Every binary accepts two environment knobs:
//!
//! * `SPTX_SCALE` — divisor applied to the paper's dataset sizes
//!   (default 200; `1` reproduces full-size graphs, which takes hours).
//!   [`paper_datasets`] floors the scaled sizes at [`MIN_ENTITIES`] and
//!   [`MIN_TRIPLES`];
//! * `SPTX_EPOCHS` — training epochs per measurement (default 5; the paper
//!   uses 200).

use kg::synthetic::{PaperDatasetSpec, COVID19_SPEC, PAPER_DATASETS};
use kg::Dataset;
use sptransx::{
    DenseTorusE, DenseTransE, DenseTransH, DenseTransR, KgeModel, SpTorusE, SpTransE, SpTransH,
    SpTransR, TrainConfig, TrainReport, Trainer,
};

/// Default dataset scale divisor.
pub const DEFAULT_SCALE: usize = 200;
/// Default epochs per measurement.
pub const DEFAULT_EPOCHS: usize = 5;

/// Fewest entities a scaled paper dataset gets. Below this a batch touches
/// most of the table, so the sparse/dense contrast the binaries measure
/// vanishes (the default scale would otherwise leave FB15K 74 entities).
pub const MIN_ENTITIES: usize = 1_500;

/// Fewest triples a scaled paper dataset gets: with the generator's 90 %
/// training split, at least 10 batches of 4,096 per epoch.
pub const MIN_TRIPLES: usize = 46_000;

/// Reads `SPTX_SCALE`.
pub fn scale_from_env() -> usize {
    std::env::var("SPTX_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(DEFAULT_SCALE)
}

/// Reads `SPTX_EPOCHS`.
pub fn epochs_from_env() -> usize {
    std::env::var("SPTX_EPOCHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&e| e >= 1)
        .unwrap_or(DEFAULT_EPOCHS)
}

/// The four models of the paper's headline evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// TransE (`h + r − t`).
    TransE,
    /// TransR (relation-space projection).
    TransR,
    /// TransH (hyperplane translation).
    TransH,
    /// TorusE (wraparound metric).
    TorusE,
}

impl ModelKind {
    /// All four, in the paper's column order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::TransE,
        ModelKind::TransR,
        ModelKind::TransH,
        ModelKind::TorusE,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::TransE => "TransE",
            ModelKind::TransR => "TransR",
            ModelKind::TransH => "TransH",
            ModelKind::TorusE => "TorusE",
        }
    }
}

/// Sparse (SpTransX) or dense-baseline implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The paper's contribution.
    Sparse,
    /// The gather/scatter baseline (TorchKGE-style).
    Dense,
}

impl Variant {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Sparse => "SpTransX",
            Variant::Dense => "Baseline",
        }
    }
}

/// Trains `kind`/`variant` on `dataset` and returns the report.
///
/// # Panics
///
/// Panics on configuration errors (benchmark configs are controlled).
pub fn run_model(
    kind: ModelKind,
    variant: Variant,
    dataset: &Dataset,
    config: &TrainConfig,
) -> TrainReport {
    match (kind, variant) {
        (ModelKind::TransE, Variant::Sparse) => {
            train(SpTransE::from_config(dataset, config), dataset, config)
        }
        (ModelKind::TransE, Variant::Dense) => {
            train(DenseTransE::from_config(dataset, config), dataset, config)
        }
        (ModelKind::TransR, Variant::Sparse) => {
            train(SpTransR::from_config(dataset, config), dataset, config)
        }
        (ModelKind::TransR, Variant::Dense) => {
            train(DenseTransR::from_config(dataset, config), dataset, config)
        }
        (ModelKind::TransH, Variant::Sparse) => {
            train(SpTransH::from_config(dataset, config), dataset, config)
        }
        (ModelKind::TransH, Variant::Dense) => {
            train(DenseTransH::from_config(dataset, config), dataset, config)
        }
        (ModelKind::TorusE, Variant::Sparse) => {
            train(SpTorusE::from_config(dataset, config), dataset, config)
        }
        (ModelKind::TorusE, Variant::Dense) => {
            train(DenseTorusE::from_config(dataset, config), dataset, config)
        }
    }
}

fn train<M: KgeModel>(
    model: sptransx::Result<M>,
    dataset: &Dataset,
    config: &TrainConfig,
) -> TrainReport {
    let model = model.expect("benchmark config must be valid");
    let mut trainer = Trainer::new(model, dataset, config).expect("plan construction");
    trainer.run().expect("training")
}

/// Generates the scaled stand-ins for the paper's seven datasets (Table 3),
/// each with at least [`MIN_ENTITIES`] entities and [`MIN_TRIPLES`] triples.
pub fn paper_datasets(scale: usize) -> Vec<(PaperDatasetSpec, Dataset)> {
    PAPER_DATASETS
        .iter()
        .map(|spec| {
            let floored = PaperDatasetSpec {
                entities: (spec.entities / scale).max(MIN_ENTITIES),
                relations: (spec.relations / scale).max(2),
                triples: (spec.triples / scale).max(MIN_TRIPLES),
                ..*spec
            };
            (*spec, floored.generate(1, 0xBEEF))
        })
        .collect()
}

/// Generates the scaled COVID-19 graph of Appendix F.
pub fn covid_dataset(scale: usize) -> Dataset {
    COVID19_SPEC.generate(scale, 0xC0FFEE)
}

/// A benchmark TrainConfig with the paper's optimizer settings (§5.3) and a
/// per-run dimension/batch override.
pub fn bench_config(dim: usize, rel_dim: usize, batch_size: usize, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size,
        dim,
        rel_dim,
        lr: 4e-4,
        margin: 0.5,
        ..Default::default()
    }
}

/// Prints a row-major text table with a header and aligned columns.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: Vec<String> = header
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:<w$}", h, w = widths[i]))
        .collect();
    println!("| {} |", line.join(" | "));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("| {} |", cells.join(" | "));
    }
}

/// Formats a duration in seconds with two decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a byte count in MiB with two decimals.
pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats a speedup/slowdown factor like the paper's bar labels.
pub fn factor(base: f64, other: f64) -> String {
    if base <= 0.0 {
        return "-".to_string();
    }
    format!("{:.1}x", other / base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_dispatch_trains_every_pair() {
        let spec = PaperDatasetSpec::by_name("WN18RR").unwrap();
        let ds = spec.generate(2000, 1);
        let cfg = bench_config(8, 4, 64, 1);
        for kind in ModelKind::ALL {
            for variant in [Variant::Sparse, Variant::Dense] {
                let report = run_model(kind, variant, &ds, &cfg);
                assert_eq!(report.epoch_losses.len(), 1, "{kind:?}/{variant:?}");
            }
        }
    }

    #[test]
    fn paper_datasets_are_floored_to_ten_batches() {
        for (spec, ds) in paper_datasets(DEFAULT_SCALE) {
            assert!(ds.num_entities >= MIN_ENTITIES, "{}", spec.name);
            assert!(
                ds.train.len() >= 10 * 4096,
                "{}: {}",
                spec.name,
                ds.train.len()
            );
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
        assert_eq!(mib(1024 * 1024), "1.00");
        assert_eq!(factor(2.0, 5.0), "2.5x");
        assert_eq!(factor(0.0, 5.0), "-");
    }

    #[test]
    fn env_knob_defaults() {
        // Not set in the test environment.
        assert!(scale_from_env() >= 1);
        assert!(epochs_from_env() >= 1);
    }
}
