//! Further translational models from the paper's extension list (§1,
//! Table 2): TransC and TransM. Both reuse the `hrt` expression, so each is
//! a different *reduction* over the same single SpMM.

use kg::eval::TripleScorer;
use kg::{BatchPlan, Dataset, TripleStore};
use sparse::incidence::TailSign;
use tensor::{Graph, ParamId, ParamStore, Var};

use crate::model::{normalize_leading_rows, KgeModel, Norm, TrainConfig};
use crate::models::{build_hrt_caches, HrtCache};
use crate::scorer::distances_to_rows;
use crate::Result;

/// Sparse TransC: score `‖h + r − t‖²₂` (squared Euclidean, Table 2).
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{SpTransC, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(1).build();
/// let model = SpTransC::from_config(&ds, &TrainConfig { dim: 8, ..Default::default() })?;
/// assert_eq!(sptransx::KgeModel::name(&model), "SpTransC");
/// # Ok::<(), sptransx::Error>(())
/// ```
#[derive(Debug)]
pub struct SpTransC {
    store: ParamStore,
    emb: ParamId,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
    batches: Vec<HrtCache>,
}

impl SpTransC {
    /// Initializes the model for a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Config`] for invalid hyperparameters.
    pub fn from_config(dataset: &Dataset, config: &TrainConfig) -> Result<Self> {
        config.validate()?;
        let (n, r, d) = (dataset.num_entities, dataset.num_relations, config.dim);
        let mut store = ParamStore::new();
        let emb = store.add_param(
            "embeddings",
            crate::models::stacked_transe_init(n, r, d, config.seed),
        );
        Ok(Self {
            store,
            emb,
            num_entities: n,
            num_relations: r,
            dim: d,
            batches: Vec::new(),
        })
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Handle to the stacked embedding parameter.
    pub fn embedding_param(&self) -> ParamId {
        self.emb
    }
}

impl KgeModel for SpTransC {
    fn name(&self) -> &'static str {
        "SpTransC"
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
        (g.squared_l2_norm_rows(pos), g.squared_l2_norm_rows(neg))
    }
    fn end_epoch(&mut self) {
        normalize_leading_rows(&mut self.store, self.emb, self.num_entities);
    }
}

impl kg::eval::BatchScorer for SpTransC {
    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        let emb = self.store.value(self.emb);
        crate::scorer::translational_scores_into(
            emb.as_slice(),
            self.num_entities,
            self.num_relations,
            self.dim,
            Norm::L2,
            queries,
            crate::scorer::QueryDir::Tails,
            out,
        );
        // Squared distances preserve the L2 ranking (matches the scalar map).
        for v in out.iter_mut() {
            *v *= *v;
        }
    }

    fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        let emb = self.store.value(self.emb);
        crate::scorer::translational_scores_into(
            emb.as_slice(),
            self.num_entities,
            self.num_relations,
            self.dim,
            Norm::L2,
            queries,
            crate::scorer::QueryDir::Heads,
            out,
        );
        for v in out.iter_mut() {
            *v *= *v;
        }
    }
}

impl TripleScorer for SpTransC {
    fn score_tails(&self, head: u32, rel: u32) -> Vec<f32> {
        let emb = self.store.value(self.emb);
        let h = emb.row(head as usize);
        let r = emb.row(self.num_entities + rel as usize);
        let query: Vec<f32> = h.iter().zip(r).map(|(a, b)| a + b).collect();
        // Squared distances preserve the L2 ranking.
        distances_to_rows(
            emb.as_slice(),
            self.num_entities,
            self.dim,
            &query,
            Norm::L2,
        )
        .into_iter()
        .map(|d| d * d)
        .collect()
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
            Norm::L2,
        )
        .into_iter()
        .map(|d| d * d)
        .collect()
    }
    fn num_entities(&self) -> usize {
        self.num_entities
    }
}

/// Sparse TransM: score `wᵣ · ‖h + r − t‖` with fixed per-relation weights
/// (Fan et al., 2014). Weights are the standard
/// `wᵣ = 1 / log(hptᵣ + tphᵣ)` computed from the training graph — not
/// learned — so they enter the tape as a constant column.
#[derive(Debug)]
pub struct SpTransM {
    store: ParamStore,
    emb: ParamId,
    rel_weights: Vec<f32>,
    num_entities: usize,
    num_relations: usize,
    dim: usize,
    norm: Norm,
    batches: Vec<HrtCache>,
    batch_weights: Vec<(Vec<f32>, Vec<f32>)>,
}

impl SpTransM {
    /// Initializes the model, computing relation weights from
    /// `dataset.train`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Config`] for invalid hyperparameters.
    pub fn from_config(dataset: &Dataset, config: &TrainConfig) -> Result<Self> {
        config.validate()?;
        let (n, r, d) = (dataset.num_entities, dataset.num_relations, config.dim);
        let mut store = ParamStore::new();
        let emb = store.add_param(
            "embeddings",
            crate::models::stacked_transe_init(n, r, d, config.seed),
        );
        let rel_weights = relation_weights(&dataset.train, r);
        Ok(Self {
            store,
            emb,
            rel_weights,
            num_entities: n,
            num_relations: r,
            dim: d,
            norm: match config.norm {
                Norm::TorusL1 | Norm::TorusL2 => Norm::L2,
                other => other,
            },
            batches: Vec::new(),
            batch_weights: Vec::new(),
        })
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The fixed per-relation weight `wᵣ`.
    pub fn relation_weight(&self, rel: u32) -> f32 {
        self.rel_weights.get(rel as usize).copied().unwrap_or(1.0)
    }

    /// Handle to the stacked embedding parameter.
    pub fn embedding_param(&self) -> ParamId {
        self.emb
    }
}

/// `wᵣ = 1 / log(e + hptᵣ + tphᵣ)`: frequent 1-N/N-N relations get smaller
/// weights, softening their (noisier) margins.
fn relation_weights(train: &TripleStore, num_relations: usize) -> Vec<f32> {
    use std::collections::HashMap;
    let mut tails_of: HashMap<(u32, u32), u32> = HashMap::new();
    let mut heads_of: HashMap<(u32, u32), u32> = HashMap::new();
    for t in train.iter() {
        *tails_of.entry((t.rel, t.head)).or_insert(0) += 1;
        *heads_of.entry((t.rel, t.tail)).or_insert(0) += 1;
    }
    let mut tph = vec![(0u64, 0u64); num_relations];
    for ((rel, _), c) in &tails_of {
        tph[*rel as usize].0 += u64::from(*c);
        tph[*rel as usize].1 += 1;
    }
    let mut hpt = vec![(0u64, 0u64); num_relations];
    for ((rel, _), c) in &heads_of {
        hpt[*rel as usize].0 += u64::from(*c);
        hpt[*rel as usize].1 += 1;
    }
    (0..num_relations)
        .map(|r| {
            let t = tph[r].0 as f64 / tph[r].1.max(1) as f64;
            let h = hpt[r].0 as f64 / hpt[r].1.max(1) as f64;
            (1.0 / (std::f64::consts::E + t + h).ln()) as f32
        })
        .collect()
}

impl KgeModel for SpTransM {
    fn name(&self) -> &'static str {
        "SpTransM"
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
        self.batch_weights = plan
            .iter()
            .map(|b| {
                let pos = b
                    .pos
                    .rels()
                    .iter()
                    .map(|&r| self.rel_weights[r as usize])
                    .collect();
                let neg = b
                    .neg
                    .rels()
                    .iter()
                    .map(|&r| self.rel_weights[r as usize])
                    .collect();
                (pos, neg)
            })
            .collect();
        Ok(())
    }
    fn num_batches(&self) -> usize {
        self.batches.len()
    }
    fn score_batch(&self, g: &mut Graph, batch_idx: usize) -> (Var, Var) {
        let cache = &self.batches[batch_idx];
        let (wp, wn) = &self.batch_weights[batch_idx];
        let side =
            |g: &mut Graph, pair: &std::sync::Arc<sparse::incidence::IncidencePair>, w: &[f32]| {
                let expr = g.spmm(&self.store, self.emb, pair.clone());
                let dist = self.norm.apply(g, expr);
                // Arena-backed input: the weight column recurs every epoch,
                // so no per-batch `Tensor::from_vec` allocation.
                let weights = g.input_from_slice(w.len(), 1, w);
                g.mul(dist, weights)
            };
        let pos = side(g, &cache.pos, wp);
        let neg = side(g, &cache.neg, wn);
        (pos, neg)
    }
    fn end_epoch(&mut self) {
        normalize_leading_rows(&mut self.store, self.emb, self.num_entities);
    }
}

impl kg::eval::BatchScorer for SpTransM {
    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        let emb = self.store.value(self.emb);
        crate::scorer::translational_scores_into(
            emb.as_slice(),
            self.num_entities,
            self.num_relations,
            self.dim,
            self.norm,
            queries,
            crate::scorer::QueryDir::Tails,
            out,
        );
        for (row, &(_, rel)) in out.chunks_exact_mut(self.num_entities.max(1)).zip(queries) {
            let w = self.relation_weight(rel);
            for v in row {
                *v *= w;
            }
        }
    }

    fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        let emb = self.store.value(self.emb);
        crate::scorer::translational_scores_into(
            emb.as_slice(),
            self.num_entities,
            self.num_relations,
            self.dim,
            self.norm,
            queries,
            crate::scorer::QueryDir::Heads,
            out,
        );
        for (row, &(rel, _)) in out.chunks_exact_mut(self.num_entities.max(1)).zip(queries) {
            let w = self.relation_weight(rel);
            for v in row {
                *v *= w;
            }
        }
    }
}

impl TripleScorer for SpTransM {
    fn score_tails(&self, head: u32, rel: u32) -> Vec<f32> {
        let emb = self.store.value(self.emb);
        let h = emb.row(head as usize);
        let r = emb.row(self.num_entities + rel as usize);
        let w = self.relation_weight(rel);
        let query: Vec<f32> = h.iter().zip(r).map(|(a, b)| a + b).collect();
        distances_to_rows(
            emb.as_slice(),
            self.num_entities,
            self.dim,
            &query,
            self.norm,
        )
        .into_iter()
        .map(|d| w * d)
        .collect()
    }
    fn score_heads(&self, rel: u32, tail: u32) -> Vec<f32> {
        let emb = self.store.value(self.emb);
        let t = emb.row(tail as usize);
        let r = emb.row(self.num_entities + rel as usize);
        let w = self.relation_weight(rel);
        let query: Vec<f32> = t.iter().zip(r).map(|(a, b)| a - b).collect();
        distances_to_rows(
            emb.as_slice(),
            self.num_entities,
            self.dim,
            &query,
            self.norm,
        )
        .into_iter()
        .map(|d| w * d)
        .collect()
    }
    fn num_entities(&self) -> usize {
        self.num_entities
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpTransE;
    use kg::synthetic::SyntheticKgBuilder;
    use kg::UniformSampler;

    fn setup() -> (Dataset, BatchPlan, TrainConfig) {
        let ds = SyntheticKgBuilder::new(40, 4).triples(300).seed(70).build();
        let config = TrainConfig {
            dim: 8,
            batch_size: 64,
            ..Default::default()
        };
        let sampler = UniformSampler::new(ds.num_entities);
        let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 64, 71);
        (ds, plan, config)
    }

    #[test]
    fn transc_is_squared_transe() {
        let (ds, plan, cfg) = setup();
        let mut c = SpTransC::from_config(&ds, &cfg).unwrap();
        let mut e = SpTransE::from_config(&ds, &cfg).unwrap();
        c.attach_plan(&plan).unwrap();
        e.attach_plan(&plan).unwrap();
        let mut g1 = Graph::new();
        let (pc, _) = c.score_batch(&mut g1, 0);
        let mut g2 = Graph::new();
        let (pe, _) = e.score_batch(&mut g2, 0);
        for i in 0..plan.batch(0).len().min(10) {
            let sq = g1.value(pc).get(i, 0);
            let l2 = g2.value(pe).get(i, 0);
            assert!((sq - l2 * l2).abs() < 1e-3, "{sq} vs {}", l2 * l2);
        }
    }

    #[test]
    fn transm_weights_scale_scores() {
        let (ds, plan, cfg) = setup();
        let mut m = SpTransM::from_config(&ds, &cfg).unwrap();
        let mut e = SpTransE::from_config(&ds, &cfg).unwrap();
        m.attach_plan(&plan).unwrap();
        e.attach_plan(&plan).unwrap();
        let mut g1 = Graph::new();
        let (pm, _) = m.score_batch(&mut g1, 0);
        let mut g2 = Graph::new();
        let (pe, _) = e.score_batch(&mut g2, 0);
        let batch = plan.batch(0);
        for i in 0..batch.len().min(10) {
            let w = m.relation_weight(batch.pos.get(i).rel);
            assert!(w > 0.0 && w <= 1.0, "weight {w}");
            let want = w * g2.value(pe).get(i, 0);
            assert!((g1.value(pm).get(i, 0) - want).abs() < 1e-4);
        }
    }

    #[test]
    fn weights_penalize_one_to_many_relations() {
        // Relation 0: 1-N fan-out 30; relation 1: clean 1-1 chain.
        let mut train = TripleStore::new();
        for t in 1..=30u32 {
            train.push(kg::Triple::new(0, 0, t));
        }
        for i in 0..30u32 {
            train.push(kg::Triple::new(i, 1, i + 31));
        }
        let w = relation_weights(&train, 2);
        assert!(
            w[0] < w[1],
            "1-N relation should get a smaller weight: {w:?}"
        );
    }

    #[test]
    fn both_models_train_under_trainer() {
        let (ds, _, cfg) = setup();
        let cfg = TrainConfig {
            epochs: 3,
            lr: 0.1,
            ..cfg
        };
        for result in [
            crate::Trainer::new(SpTransC::from_config(&ds, &cfg).unwrap(), &ds, &cfg)
                .unwrap()
                .run(),
            crate::Trainer::new(SpTransM::from_config(&ds, &cfg).unwrap(), &ds, &cfg)
                .unwrap()
                .run(),
        ] {
            let report = result.unwrap();
            assert!(report.epoch_losses.last().unwrap() <= report.epoch_losses.first().unwrap());
        }
    }
}
