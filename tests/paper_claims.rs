//! Integration tests of the paper's *qualitative claims* at test scale,
//! using deterministic measures (loss trajectories, graph size, simulated
//! cache misses) rather than flaky wall-clock assertions. The claims read
//! from the process-global FLOP, SpMM-call and peak-memory counters live in
//! `paper_claims_counters.rs`, away from concurrent siblings.

use kg::synthetic::SyntheticKgBuilder;
use kg::{BatchPlan, UniformSampler};
use sptransx::{
    DenseTorusE, DenseTransE, DenseTransH, DenseTransR, KgeModel, SpTorusE, SpTransE, SpTransH,
    SpTransR, TrainConfig, Trainer,
};

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

/// §6.2.5's claim: the sparse formulation does not change the optimization —
/// losses coincide epoch by epoch when init and batch order are shared.
#[test]
fn accuracy_parity_loss_trajectories_match() {
    let ds = dataset();
    let cfg = TrainConfig {
        epochs: 3,
        ..config()
    };
    macro_rules! pair {
        ($sp:ident, $de:ident, $name:literal, $tol:expr) => {{
            let rs = Trainer::new($sp::from_config(&ds, &cfg).unwrap(), &ds, &cfg)
                .unwrap()
                .run()
                .unwrap();
            let rd = Trainer::new($de::from_config(&ds, &cfg).unwrap(), &ds, &cfg)
                .unwrap()
                .run()
                .unwrap();
            for (a, b) in rs.epoch_losses.iter().zip(&rd.epoch_losses) {
                assert!((a - b).abs() < $tol, "{}: {a} vs {b}", $name);
            }
        }};
    }
    pair!(SpTransE, DenseTransE, "TransE", 1e-3);
    pair!(SpTorusE, DenseTorusE, "TorusE", 1e-3);
    pair!(SpTransR, DenseTransR, "TransR", 2e-3);
    pair!(SpTransH, DenseTransH, "TransH", 2e-3);
}

/// Table 7's claim, via the cache simulator: the SpMM pipeline's miss rate
/// does not exceed the gather/scatter pipeline's.
#[test]
fn spmm_cache_behaviour_not_worse() {
    let ds = dataset();
    let sampler = UniformSampler::new(ds.num_entities);
    let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 2048, 3);
    let b = plan.batch(0);
    let incidence = sparse::incidence::hrt(
        ds.num_entities,
        ds.num_relations,
        b.pos.heads(),
        b.pos.rels(),
        b.pos.tails(),
        sparse::incidence::TailSign::Negative,
    )
    .unwrap();
    let cmp = simcache::trace::compare_kernels(&incidence, 64);
    assert!(
        cmp.spmm_miss_rate <= cmp.gather_scatter_miss_rate + 1e-9,
        "spmm {} vs gather/scatter {}",
        cmp.spmm_miss_rate,
        cmp.gather_scatter_miss_rate
    );
}

/// §6.2.2's mechanism: the dense TransH computational graph materializes
/// more nodes (and the sparse one fewer intermediates), which is where the
/// memory gap comes from.
#[test]
fn sparse_graphs_are_smaller() {
    let ds = dataset();
    let cfg = config();
    let sampler = UniformSampler::new(ds.num_entities);
    let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 2048, 3);

    macro_rules! graph_sizes {
        ($sp:ident, $de:ident) => {{
            let mut sp = $sp::from_config(&ds, &cfg).unwrap();
            sp.attach_plan(&plan).unwrap();
            let mut de = $de::from_config(&ds, &cfg).unwrap();
            de.attach_plan(&plan).unwrap();
            let mut g1 = tensor::Graph::new();
            sp.score_batch(&mut g1, 0);
            let mut g2 = tensor::Graph::new();
            de.score_batch(&mut g2, 0);
            (g1.len(), g2.len())
        }};
    }
    let (s, d) = graph_sizes!(SpTransE, DenseTransE);
    assert!(s < d, "TransE: sparse graph {s} !< dense graph {d}");
    let (s, d) = graph_sizes!(SpTransH, DenseTransH);
    assert!(s < d, "TransH: sparse graph {s} !< dense graph {d}");
    let (s, d) = graph_sizes!(SpTransR, DenseTransR);
    assert!(s < d, "TransR: sparse graph {s} !< dense graph {d}");
}
