//! Sparse TorusE (paper §4.6).
//!
//! TorusE shares TransE's `h + r − t` expression (computed with the same
//! single `hrt` SpMM) but measures it with a wraparound (torus) metric over
//! the fractional parts of the embeddings, and applies no norm constraints.

use kg::eval::{BatchScorer, TripleScorer};
use kg::{BatchPlan, Dataset};
use sparse::incidence::TailSign;
use tensor::{init, Graph, ParamId, ParamStore, Var};

use crate::model::{KgeModel, Norm, TrainConfig};
use crate::models::{build_hrt_caches, HrtCache};
use crate::scorer::{distances_to_rows, translational_scores_into, QueryDir};
use crate::Result;

/// The SpTransX TorusE model.
///
/// The configured [`Norm`] is coerced to a torus metric: `L1 → TorusL1`,
/// anything else → `TorusL2` (the paper's "L2 torus" default).
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{SpTorusE, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(5).build();
/// let model = SpTorusE::from_config(&ds, &TrainConfig { dim: 8, ..Default::default() })?;
/// assert_eq!(sptransx::KgeModel::name(&model), "SpTorusE");
/// # Ok::<(), sptransx::Error>(())
/// ```
#[derive(Debug)]
pub struct SpTorusE {
    store: ParamStore,
    emb: ParamId,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
    norm: Norm,
    batches: Vec<HrtCache>,
}

impl SpTorusE {
    /// Initializes the model for a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Config`] for invalid hyperparameters.
    pub fn from_config(dataset: &Dataset, config: &TrainConfig) -> Result<Self> {
        config.validate()?;
        let (n, r, d) = (dataset.num_entities, dataset.num_relations, config.dim);
        // Torus coordinates: uniform in [0, 1).
        let mut emb_t = init::uniform(n + r, d, 0.5, config.seed);
        for x in emb_t.as_mut_slice() {
            *x += 0.5; // shift into [0, 1)
        }
        let norm = match config.norm {
            Norm::L1 | Norm::TorusL1 => Norm::TorusL1,
            _ => Norm::TorusL2,
        };
        let mut store = ParamStore::new();
        let emb = store.add_param("embeddings", emb_t);
        Ok(Self {
            store,
            emb,
            num_entities: n,
            num_relations: r,
            dim: d,
            norm,
            batches: Vec::new(),
        })
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The torus metric in use.
    pub fn metric(&self) -> Norm {
        self.norm
    }

    /// Handle to the stacked embedding parameter.
    pub fn embedding_param(&self) -> ParamId {
        self.emb
    }
}

impl KgeModel for SpTorusE {
    fn name(&self) -> &'static str {
        "SpTorusE"
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn attach_plan(&mut self, plan: &BatchPlan) -> Result<()> {
        self.batches = build_hrt_caches(
            plan,
            self.num_entities,
            self.num_relations,
            TailSign::Negative,
        )?;
        Ok(())
    }

    fn num_batches(&self) -> usize {
        self.batches.len()
    }

    fn score_batch(&self, g: &mut Graph, batch_idx: usize) -> (Var, Var) {
        let cache = &self.batches[batch_idx];
        let pos = g.spmm(&self.store, self.emb, cache.pos.clone());
        let neg = g.spmm(&self.store, self.emb, cache.neg.clone());
        (self.norm.apply(g, pos), self.norm.apply(g, neg))
    }

    fn page_in_batch(&mut self, batch_idx: usize) -> Result<()> {
        if !self.store.is_paged(self.emb) {
            return Ok(());
        }
        // Same up-front working set as SpTransE: the union of the columns
        // the batch's cached incidence matrices touch.
        let cache = &self.batches[batch_idx];
        let lists = [cache.pos.touched_columns(), cache.neg.touched_columns()];
        self.store.page_in(self.emb, &lists)?;
        Ok(())
    }
}

impl TripleScorer for SpTorusE {
    fn score_tails(&self, head: u32, rel: u32) -> Vec<f32> {
        let emb = self.store.value(self.emb);
        let h = emb.row(head as usize);
        let r = emb.row(self.num_entities + rel as usize);
        let query: Vec<f32> = h.iter().zip(r).map(|(a, b)| a + b).collect();
        distances_to_rows(
            emb.as_slice(),
            self.num_entities,
            self.dim,
            &query,
            self.norm,
        )
    }

    fn score_heads(&self, rel: u32, tail: u32) -> Vec<f32> {
        let emb = self.store.value(self.emb);
        let t = emb.row(tail as usize);
        let r = emb.row(self.num_entities + rel as usize);
        let query: Vec<f32> = t.iter().zip(r).map(|(a, b)| a - b).collect();
        distances_to_rows(
            emb.as_slice(),
            self.num_entities,
            self.dim,
            &query,
            self.norm,
        )
    }

    fn num_entities(&self) -> usize {
        self.num_entities
    }
}

impl BatchScorer for SpTorusE {
    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        let emb = self.store.value(self.emb);
        translational_scores_into(
            emb.as_slice(),
            self.num_entities,
            self.num_relations,
            self.dim,
            self.norm,
            queries,
            QueryDir::Tails,
            out,
        );
    }

    fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        let emb = self.store.value(self.emb);
        translational_scores_into(
            emb.as_slice(),
            self.num_entities,
            self.num_relations,
            self.dim,
            self.norm,
            queries,
            QueryDir::Heads,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg::synthetic::SyntheticKgBuilder;
    use kg::UniformSampler;

    #[test]
    fn norm_is_coerced_to_torus() {
        let ds = SyntheticKgBuilder::new(30, 2).triples(100).seed(1).build();
        let m = SpTorusE::from_config(
            &ds,
            &TrainConfig {
                norm: Norm::L2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(m.metric(), Norm::TorusL2);
        let m = SpTorusE::from_config(
            &ds,
            &TrainConfig {
                norm: Norm::L1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(m.metric(), Norm::TorusL1);
    }

    #[test]
    fn scores_are_bounded_by_torus_geometry() {
        let ds = SyntheticKgBuilder::new(40, 3).triples(300).seed(2).build();
        let config = TrainConfig {
            dim: 8,
            batch_size: 50,
            ..Default::default()
        };
        let mut model = SpTorusE::from_config(&ds, &config).unwrap();
        let sampler = UniformSampler::new(ds.num_entities);
        let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 50, 3);
        model.attach_plan(&plan).unwrap();
        let mut g = Graph::new();
        let (pos, _) = model.score_batch(&mut g, 0);
        // Max per-component squared torus distance is 0.25.
        let bound = 0.25 * model.dim() as f32 + 1e-5;
        assert!(g
            .value(pos)
            .as_slice()
            .iter()
            .all(|&x| (0.0..=bound).contains(&x)));
    }

    #[test]
    fn wraparound_equivalence_in_scoring() {
        // Shifting an embedding by an integer must not change torus scores.
        let ds = SyntheticKgBuilder::new(20, 2).triples(80).seed(4).build();
        let config = TrainConfig {
            dim: 4,
            ..Default::default()
        };
        let mut model = SpTorusE::from_config(&ds, &config).unwrap();
        let before = model.score_tails(0, 0);
        let emb_id = model.embedding_param();
        {
            let emb = model.store_mut().value_mut(emb_id);
            for j in 0..4 {
                let v = emb.get(0, j);
                emb.set(0, j, v + 3.0); // integer shift of the head entity
            }
        }
        let after = model.score_tails(0, 0);
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}
