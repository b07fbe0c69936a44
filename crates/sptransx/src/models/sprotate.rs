//! Sparse RotatE (paper Appendix D, trainable).
//!
//! RotatE embeds entities and relations as complex vectors and scores
//! `‖h ∘ r − t‖` with relations constrained to the unit circle (rotations).
//! Appendix D maps this onto the same incidence traversal with a "rotate"
//! semiring; here the single tape op [`tensor::Graph::rotate_score`] computes
//! the per-triple distance and backpropagates through the complex product
//! via the cached transpose.

use kg::eval::TripleScorer;
use kg::{BatchPlan, Dataset};
use sparse::incidence::TailSign;
use sparse::Complex32;
use tensor::{init, Graph, ParamId, ParamStore, Var};

use crate::model::{KgeModel, TrainConfig};
use crate::models::{build_hrt_caches, HrtCache};
use crate::Result;

/// The semiring-SpMM RotatE model.
///
/// The parameter holds interleaved complex values: `config.dim` is the
/// **complex** dimension, so the tensor has `2 · dim` columns. Relation rows
/// are initialized to (and re-projected onto) unit phases.
///
/// # Examples
///
/// ```
/// use kg::synthetic::SyntheticKgBuilder;
/// use sptransx::{SpRotatE, TrainConfig};
///
/// let ds = SyntheticKgBuilder::new(40, 3).triples(200).seed(1).build();
/// let model = SpRotatE::from_config(&ds, &TrainConfig { dim: 8, ..Default::default() })?;
/// assert_eq!(sptransx::KgeModel::name(&model), "SpRotatE");
/// # Ok::<(), sptransx::Error>(())
/// ```
#[derive(Debug)]
pub struct SpRotatE {
    store: ParamStore,
    emb: ParamId,
    num_entities: usize,
    num_relations: usize,
    half_dim: usize,
    batches: Vec<HrtCache>,
}

impl SpRotatE {
    /// Initializes the model for a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Config`] for invalid hyperparameters.
    pub fn from_config(dataset: &Dataset, config: &TrainConfig) -> Result<Self> {
        config.validate()?;
        let (n, r) = (dataset.num_entities, dataset.num_relations);
        let half = config.dim;
        // Entities: uniform complex; relations: unit phases.
        let ent = init::uniform(n, half * 2, 0.5, config.seed);
        let rel = init::unit_phases(r, half, config.seed + 1);
        let mut data = Vec::with_capacity((n + r) * half * 2);
        data.extend_from_slice(ent.as_slice());
        data.extend_from_slice(rel.as_slice());
        let mut store = ParamStore::new();
        let emb = store.add_param(
            "embeddings",
            tensor::Tensor::from_vec(n + r, half * 2, data),
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

    /// RotatE distance of one triple (evaluation path).
    pub fn distance(&self, head: u32, rel: u32, tail: u32) -> f32 {
        let h = self.complex_row(head as usize);
        let r = self.complex_row(self.num_entities + rel as usize);
        let t = self.complex_row(tail as usize);
        h.iter()
            .zip(&r)
            .zip(&t)
            .map(|((&a, &b), &c)| (a * b - c).abs())
            .sum()
    }
}

impl KgeModel for SpRotatE {
    fn name(&self) -> &'static str {
        "SpRotatE"
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
        let pos = g.rotate_score(&self.store, self.emb, cache.pos.clone());
        let neg = g.rotate_score(&self.store, self.emb, cache.neg.clone());
        (pos, neg)
    }

    fn end_epoch(&mut self) {
        // Re-project relation components onto the unit circle (rotations),
        // walking only dirty rows. Entity rows (index < n) are outside this
        // constraint and are dropped from the set; a relation row leaves it
        // only once reprojection is a bitwise no-op (every component pair
        // already on the unit circle within `UNIT_NORM_TOL`, the same
        // idempotence band as `normalize_leading_rows`), so the sweep stays
        // bit-identical to the dense one.
        let n = self.num_entities;
        self.store.for_dirty_rows(self.emb, |row, r| {
            if row < n {
                return false;
            }
            let mut changed = false;
            for pair in r.chunks_exact_mut(2) {
                let norm = (pair[0] * pair[0] + pair[1] * pair[1]).sqrt();
                if norm > 1e-12 && (norm - 1.0).abs() > crate::model::UNIT_NORM_TOL {
                    let y0 = pair[0] / norm;
                    let y1 = pair[1] / norm;
                    changed |=
                        y0.to_bits() != pair[0].to_bits() || y1.to_bits() != pair[1].to_bits();
                    pair[0] = y0;
                    pair[1] = y1;
                }
            }
            changed
        });
    }
}

impl TripleScorer for SpRotatE {
    fn score_tails(&self, head: u32, rel: u32) -> Vec<f32> {
        let h = self.complex_row(head as usize);
        let r = self.complex_row(self.num_entities + rel as usize);
        let hr: Vec<Complex32> = h.iter().zip(&r).map(|(&a, &b)| a * b).collect();
        (0..self.num_entities)
            .map(|t| {
                let tv = self.complex_row(t);
                hr.iter().zip(&tv).map(|(&a, &b)| (a - b).abs()).sum()
            })
            .collect()
    }

    fn score_heads(&self, rel: u32, tail: u32) -> Vec<f32> {
        let r = self.complex_row(self.num_entities + rel as usize);
        let t = self.complex_row(tail as usize);
        (0..self.num_entities)
            .map(|h| {
                let hv = self.complex_row(h);
                hv.iter()
                    .zip(&r)
                    .zip(&t)
                    .map(|((&a, &b), &c)| (a * b - c).abs())
                    .sum()
            })
            .collect()
    }

    fn num_entities(&self) -> usize {
        self.num_entities
    }
}

impl kg::eval::BatchScorer for SpRotatE {
    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn score_tails_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        use crate::scorer::{for_each_score, stacked_query_rows_semiring, QueryDir};
        let (n, half) = (self.num_entities, self.half_dim);
        let emb = Complex32::slice_from_interleaved(self.store.value(self.emb).as_slice());
        // q = h ∘ r per query via the training RotateTriple semiring kernel,
        // then score(t) = Σⱼ |qⱼ − tⱼ| exactly as the scalar path.
        let q = stacked_query_rows_semiring::<sparse::semiring::RotateTriple>(
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
            qr.iter().zip(t).map(|(&a, &b)| (a - b).abs()).sum::<f32>()
        });
    }

    fn score_heads_into(&self, queries: &[(u32, u32)], out: &mut [f32]) {
        use crate::scorer::for_each_score;
        let (n, half) = (self.num_entities, self.half_dim);
        let emb = Complex32::slice_from_interleaved(self.store.value(self.emb).as_slice());
        // The rotation applies to the candidate head, so each element keeps
        // the scalar `|h ∘ r − t|` expression.
        for_each_score(n, 0, out, |qi, cand, _| {
            let (rel, tail) = queries[qi];
            let h = &emb[cand * half..(cand + 1) * half];
            let r = &emb[(n + rel as usize) * half..(n + rel as usize + 1) * half];
            let t = &emb[tail as usize * half..(tail as usize + 1) * half];
            h.iter()
                .zip(r)
                .zip(t)
                .map(|((&a, &b), &c)| (a * b - c).abs())
                .sum::<f32>()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg::synthetic::SyntheticKgBuilder;
    use kg::UniformSampler;

    fn setup() -> (Dataset, SpRotatE, BatchPlan) {
        let ds = SyntheticKgBuilder::new(40, 4).triples(300).seed(50).build();
        let config = TrainConfig {
            dim: 4,
            batch_size: 64,
            ..Default::default()
        };
        let model = SpRotatE::from_config(&ds, &config).unwrap();
        let sampler = UniformSampler::new(ds.num_entities);
        let plan = BatchPlan::build(&ds.train, &ds.all_known(), &sampler, 64, 51);
        (ds, model, plan)
    }

    #[test]
    fn relations_start_as_unit_rotations() {
        let (_, model, _) = setup();
        let emb = model.store().value(model.embedding_param());
        for row in 40..emb.rows() {
            for pair in emb.row(row).chunks_exact(2) {
                let norm = pair[0] * pair[0] + pair[1] * pair[1];
                assert!((norm - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn tape_scores_match_distance() {
        let (_, mut model, plan) = setup();
        model.attach_plan(&plan).unwrap();
        let mut g = Graph::new();
        let (pos, _) = model.score_batch(&mut g, 0);
        let batch = plan.batch(0);
        for i in 0..batch.len().min(10) {
            let t = batch.pos.get(i);
            let want = model.distance(t.head, t.rel, t.tail);
            assert!((g.value(pos).get(i, 0) - want).abs() < 1e-4);
        }
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
    fn exact_rotation_scores_zero() {
        let (_, mut model, _) = setup();
        // Force t = h ∘ r for triple (0, 0, 1).
        let emb_id = model.embedding_param();
        let half = model.half_dim();
        {
            let emb = model.store_mut().value_mut(emb_id);
            let h: Vec<f32> = emb.row(0).to_vec();
            let r: Vec<f32> = emb.row(40).to_vec();
            let t = emb.row_mut(1);
            for j in 0..half {
                let hv = Complex32::new(h[2 * j], h[2 * j + 1]);
                let rv = Complex32::new(r[2 * j], r[2 * j + 1]);
                let prod = hv * rv;
                t[2 * j] = prod.re;
                t[2 * j + 1] = prod.im;
            }
        }
        assert!(model.distance(0, 0, 1) < 1e-5);
        let tails = model.score_tails(0, 0);
        let best = tails
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 1);
    }

    #[test]
    fn end_epoch_reprojects_relations() {
        let (_, mut model, _) = setup();
        let emb_id = model.embedding_param();
        model.store_mut().value_mut(emb_id).row_mut(40)[0] = 7.0;
        model.end_epoch();
        let emb = model.store().value(emb_id);
        let pair = &emb.row(40)[..2];
        assert!((pair[0] * pair[0] + pair[1] * pair[1] - 1.0).abs() < 1e-5);
    }
}
