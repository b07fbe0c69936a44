//! Sparse ComplEx (paper Appendix D, trainable).
//!
//! ComplEx scores triples with `Re(⟨h, r, t̄⟩)` over complex embeddings —
//! a similarity (higher is better). The single tape op
//! [`tensor::Graph::complex_score`] computes it through the complex-conjugate
//! semiring of Appendix D; scores are negated on the tape for the
//! margin-ranking trainer.

use kg::eval::TripleScorer;
use kg::{BatchPlan, Dataset};
use sparse::incidence::TailSign;
use sparse::Complex32;
use tensor::{init, Graph, ParamId, ParamStore, Var};

use crate::model::{KgeModel, TrainConfig};
use crate::models::{build_hrt_caches, HrtCache};
use crate::Result;

/// The semiring-SpMM ComplEx model.
///
/// `config.dim` is the complex dimension (the parameter has `2 · dim`
/// interleaved columns).
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{SpComplEx, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(1).build();
/// let model = SpComplEx::from_config(&ds, &TrainConfig { dim: 8, ..Default::default() })?;
/// assert_eq!(sptransx::KgeModel::name(&model), "SpComplEx");
/// # Ok::<(), sptransx::Error>(())
/// ```
#[derive(Debug)]
pub struct SpComplEx {
    store: ParamStore,
    emb: ParamId,
    num_entities: usize,
    num_relations: usize,
    half_dim: usize,
    batches: Vec<HrtCache>,
}

impl SpComplEx {
    /// Initializes the model for a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Config`] for invalid hyperparameters.
    pub fn from_config(dataset: &Dataset, config: &TrainConfig) -> Result<Self> {
        config.validate()?;
        let (n, r) = (dataset.num_entities, dataset.num_relations);
        let half = config.dim;
        let mut store = ParamStore::new();
        let emb = store.add_param(
            "embeddings",
            init::xavier_normalized(n + r, half * 2, config.seed),
        );
        Ok(Self {
            store,
            emb,
            num_entities: n,
            num_relations: r,
            half_dim: half,
            batches: Vec::new(),
        })
    }

    /// The complex dimension (half the parameter width).
    pub fn half_dim(&self) -> usize {
        self.half_dim
    }

    /// Handle to the interleaved complex embedding parameter.
    pub fn embedding_param(&self) -> ParamId {
        self.emb
    }

    fn complex_row(&self, row: usize) -> Vec<Complex32> {
        Complex32::slice_from_interleaved(self.store.value(self.emb).row(row))
    }

    /// ComplEx similarity of one triple (evaluation path).
    pub fn similarity(&self, head: u32, rel: u32, tail: u32) -> f32 {
        let h = self.complex_row(head as usize);
        let r = self.complex_row(self.num_entities + rel as usize);
        let t = self.complex_row(tail as usize);
        h.iter()
            .zip(&r)
            .zip(&t)
            .map(|((&a, &b), &c)| (a * b * c.conj()).re)
            .sum()
    }
}

impl KgeModel for SpComplEx {
    fn name(&self) -> &'static str {
        "SpComplEx"
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
        let pos_sim = g.complex_score(&self.store, self.emb, cache.pos.clone());
        let neg_sim = g.complex_score(&self.store, self.emb, cache.neg.clone());
        // Similarity -> pseudo-distance.
        (g.scale(pos_sim, -1.0), g.scale(neg_sim, -1.0))
    }
}

impl TripleScorer for SpComplEx {
    fn score_tails(&self, head: u32, rel: u32) -> Vec<f32> {
        (0..self.num_entities as u32)
            .map(|t| -self.similarity(head, rel, t))
            .collect()
    }

    fn score_heads(&self, rel: u32, tail: u32) -> Vec<f32> {
        (0..self.num_entities as u32)
            .map(|h| -self.similarity(h, rel, tail))
            .collect()
    }

    fn num_entities(&self) -> usize {
        self.num_entities
    }
}

impl kg::eval::BatchScorer for SpComplEx {
    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        use crate::scorer::{for_each_score, stacked_query_rows_semiring, QueryDir};
        let (n, half) = (self.num_entities, self.half_dim);
        let emb = Complex32::slice_from_interleaved(self.store.value(self.emb).as_slice());
        // q = h ∘ r per query via the training ComplexTriple semiring kernel,
        // then score(t) = −Σⱼ Re(qⱼ · t̄ⱼ) — the same association order as the
        // scalar `similarity`.
        let q = stacked_query_rows_semiring::<sparse::semiring::ComplexTriple>(
            &emb,
            n,
            self.num_relations,
            half,
            queries,
            QueryDir::Tails,
        );
        for_each_score(n, 0, out, |qi, cand, _| {
            let qr = &q[qi * half..(qi + 1) * half];
            let t = &emb[cand * half..(cand + 1) * half];
            -qr.iter()
                .zip(t)
                .map(|(&a, &c)| (a * c.conj()).re)
                .sum::<f32>()
        });
    }

    fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        use crate::scorer::for_each_score;
        let (n, half) = (self.num_entities, self.half_dim);
        let emb = Complex32::slice_from_interleaved(self.store.value(self.emb).as_slice());
        // The candidate multiplies the relation *first* (h ∘ r ∘ t̄), so
        // nothing per-query can be factored out without changing the float
        // association; score each element with the scalar expression.
        for_each_score(n, 0, out, |qi, cand, _| {
            let (rel, tail) = queries[qi];
            let h = &emb[cand * half..(cand + 1) * half];
            let r = &emb[(n + rel as usize) * half..(n + rel as usize + 1) * half];
            let t = &emb[tail as usize * half..(tail as usize + 1) * half];
            -h.iter()
                .zip(r)
                .zip(t)
                .map(|((&a, &b), &c)| (a * b * c.conj()).re)
                .sum::<f32>()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg::synthetic::SyntheticKgBuilder;
    use kg::UniformSampler;

    fn setup() -> (Dataset, SpComplEx, BatchPlan) {
        let ds = SyntheticKgBuilder::new(40, 4).triples(300).seed(60).build();
        let config = TrainConfig {
            dim: 4,
            batch_size: 64,
            ..Default::default()
        };
        let model = SpComplEx::from_config(&ds, &config).unwrap();
        let sampler = UniformSampler::new(ds.num_entities);
        let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 64, 61);
        (ds, model, plan)
    }

    #[test]
    fn tape_scores_match_similarity() {
        let (_, mut model, plan) = setup();
        model.attach_plan(&plan).unwrap();
        let mut g = Graph::new();
        let (pos, _) = model.score_batch(&mut g, 0);
        let batch = plan.batch(0);
        for i in 0..batch.len().min(10) {
            let t = batch.pos.get(i);
            let want = -model.similarity(t.head, t.rel, t.tail);
            assert!((g.value(pos).get(i, 0) - want).abs() < 1e-4);
        }
    }

    #[test]
    fn complex_is_antisymmetric_capable() {
        // Unlike DistMult, ComplEx can distinguish (h, r, t) from (t, r, h)
        // when embeddings have imaginary parts.
        let (_, model, plan) = setup();
        let t = plan.batch(0).pos.get(0);
        let fwd = model.similarity(t.head, t.rel, t.tail);
        let bwd = model.similarity(t.tail, t.rel, t.head);
        assert!((fwd - bwd).abs() > 1e-9, "scores unexpectedly symmetric");
    }

    #[test]
    fn gradients_flow() {
        let (_, mut model, plan) = setup();
        model.attach_plan(&plan).unwrap();
        let mut g = Graph::new();
        let (pos, neg) = model.score_batch(&mut g, 0);
        let loss = g.margin_ranking_loss(pos, neg, 5.0);
        g.backward(loss, model.store_mut());
        assert!(model.store().grad(model.embedding_param()).frobenius_norm() > 0.0);
    }

    #[test]
    fn scorer_matches_similarity() {
        let (_, model, plan) = setup();
        let t = plan.batch(0).pos.get(0);
        let tails = model.score_tails(t.head, t.rel);
        assert!((tails[t.tail as usize] + model.similarity(t.head, t.rel, t.tail)).abs() < 1e-5);
    }
}
