//! The define-by-run autograd tape.

use std::sync::Arc;

use sparse::incidence::IncidencePair;
use sparse::spmm::{
    csr_spmm_acc_into_with, csr_spmm_acc_rows_into_with, csr_spmm_into_with, Identity,
};
use sparse::DenseView;
use xparallel::PoolHandle;

use crate::profile;
use crate::{Arena, ParamId, ParamStore, Tensor};

/// Fixed chunk length for the tape's scalar reductions (losses, means).
///
/// Boundaries depend only on the input length — never on the pool width —
/// so the f64 fold order, and therefore the result bits, are identical at
/// any `SPTX_NUM_THREADS`.
const REDUCE_CHUNK: usize = 8192;

/// Handle to a node on a [`Graph`] tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    Input,
    Gather {
        param: ParamId,
        indices: Arc<Vec<u32>>,
    },
    Spmm {
        param: ParamId,
        pair: Arc<IncidencePair>,
    },
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    RowDot(Var, Var),
    ScaleRows {
        mat: Var,
        scale: Var,
    },
    L1NormRows(Var),
    L2NormRows {
        input: Var,
        eps: f32,
    },
    SquaredL2NormRows(Var),
    TorusL1Rows(Var),
    TorusL2SqRows(Var),
    ProjectRows {
        mats: ParamId,
        vecs: Var,
        rels: Arc<Vec<u32>>,
        d_out: usize,
        d_in: usize,
    },
    MarginRankingLoss {
        pos: Var,
        neg: Var,
        margin: f32,
    },
    Mean(Var),
    RowSum(Var),
    TripleProduct {
        param: ParamId,
        pair: Arc<IncidencePair>,
    },
    RotateScore {
        param: ParamId,
        pair: Arc<IncidencePair>,
    },
    ComplexScore {
        param: ParamId,
        pair: Arc<IncidencePair>,
    },
}

/// Decomposes one 3-nonzero incidence row into `(pos_a, pos_b, tail)` column
/// indices: the negative coefficient marks the tail; the other two positive
/// columns are interchangeable for the complex products (h ⊙ r commutes).
#[inline]
fn split_hrt_row(cols: &[u32], vals: &[f32]) -> (usize, usize, usize) {
    debug_assert_eq!(cols.len(), 3);
    let mut tail = usize::MAX;
    let mut pos = [usize::MAX; 2];
    let mut k = 0;
    for (c, v) in cols.iter().zip(vals) {
        if *v < 0.0 {
            tail = *c as usize;
        } else if k < 2 {
            pos[k] = *c as usize;
            k += 1;
        }
    }
    debug_assert!(tail != usize::MAX && k == 2, "row is not a signed hrt row");
    (pos[0], pos[1], tail)
}

#[inline]
fn complex_at(buf: &[f32], row: usize, j: usize, d2: usize) -> (f32, f32) {
    let base = row * d2 + 2 * j;
    (buf[base], buf[base + 1])
}

#[inline]
fn cmul(a: (f32, f32), b: (f32, f32)) -> (f32, f32) {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

#[derive(Debug)]
struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
}

/// A tape of eagerly-evaluated operations supporting reverse-mode autodiff.
///
/// A fresh `Graph` is built per mini-batch (define-by-run, as in PyTorch).
/// Values are computed when ops are recorded; [`Graph::backward`] replays the
/// tape in reverse, accumulating parameter gradients into the
/// [`ParamStore`].
///
/// The two embedding-access ops embody the paper's comparison:
///
/// * [`Graph::gather`] — fine-grained row gather whose backward is a
///   **scatter-add** (the non-sparse baseline path, paper Figure 1);
/// * [`Graph::spmm`] — incidence-matrix SpMM whose backward is a second SpMM
///   with `Aᵀ` (the SparseTransX path, paper §4.1 and Appendix G).
///
/// # Parallelism and determinism
///
/// Every forward kernel and backward closure dispatches on the tape's
/// [`PoolHandle`]: row-wise kernels partition their **output** rows across
/// workers (each row computed by exactly one worker with a serial inner
/// loop), and parameter-gradient accumulation is sharded by **destination**
/// row with per-triple contributions applied in tape order. Scalar
/// reductions (the losses) use fixed-size chunks folded in order. Together
/// these make one training step bit-identical at any pool width — the
/// determinism contract behind `SPTX_NUM_THREADS`-invariant training.
///
/// [`Graph::new`] uses the global pool; [`Graph::with_pool`] pins an
/// explicit handle (e.g. [`PoolHandle::sequential`] inside data-parallel
/// workers, or a pinned width for determinism audits).
///
/// # Memory
///
/// The tape owns a recycling [`Arena`]: every node value, node gradient,
/// kernel output, and backward temporary is drawn from it, and
/// [`Graph::reset`] returns them all for reuse. A driver that keeps one
/// `Graph` per thread and resets it between batches performs **zero**
/// tensor-buffer heap allocations once the first batch has populated the
/// pool (asserted by [`crate::memory::alloc_count`]-based regression
/// tests). Recycling swaps buffer identity only — arithmetic order, and
/// therefore every result bit, is unchanged.
#[derive(Debug)]
pub struct Graph {
    nodes: Vec<Node>,
    pool: PoolHandle,
    arena: Arena,
}

impl Default for Graph {
    fn default() -> Self {
        Self::with_pool(PoolHandle::default())
    }
}

impl Graph {
    /// Creates an empty tape dispatching kernels on the global pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty tape dispatching kernels on an explicit pool handle.
    pub fn with_pool(pool: PoolHandle) -> Self {
        Self {
            nodes: Vec::new(),
            pool,
            arena: Arena::new(),
        }
    }

    /// Accepts only `false` and does nothing: the fused kernel pipeline is
    /// gone and [`Graph::spmm`] plus the norm ops are the only scoring path.
    ///
    /// Kept only because the benchmark harness names it; delete when the
    /// benchmark is next revised.
    ///
    /// # Panics
    ///
    /// Panics if `fused` is `true`.
    pub fn set_fused(&mut self, fused: bool) {
        assert!(!fused, "the fused kernel pipeline was removed");
    }

    /// The pool handle this tape dispatches kernels on.
    pub fn pool(&self) -> &PoolHandle {
        &self.pool
    }

    /// The tape's buffer arena (recycling statistics for tests/reports).
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// Clears the tape, recycling every node's value and gradient buffer
    /// into the arena.
    ///
    /// This is the steady-state entry point: call it at the top of each
    /// mini-batch instead of constructing a fresh `Graph`, and the batch's
    /// identical tape shape is served entirely from recycled buffers.
    ///
    /// Every [`Var`] handed out before the reset is **invalidated** (`Var`
    /// is a plain tape index): using one afterwards indexes whatever node
    /// the next batch records at that position, or panics if the new tape
    /// is shorter. Read everything you need (loss values, gradients)
    /// before resetting — exactly as you would before dropping a
    /// per-batch graph.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            self.arena.reclaim(node.value);
            if let Some(grad) = node.grad {
                self.arena.reclaim(grad);
            }
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrows the forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Borrows the gradient of a node, if backward has reached it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Records a constant input (gradients are tracked but go nowhere).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Input)
    }

    /// Records a constant input copied out of a slice, drawing the buffer
    /// from the arena — the allocation-free analog of [`Graph::input`] for
    /// per-batch constants (e.g. triple weights) that recur every epoch.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn input_from_slice(&mut self, rows: usize, cols: usize, data: &[f32]) -> Var {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        let mut t = Tensor::uninit_in(&mut self.arena, rows, cols);
        t.as_mut_slice().copy_from_slice(data);
        self.push(t, Op::Input)
    }

    /// Gathers rows `indices` of parameter `param`: `out[i] = P[indices[i]]`.
    ///
    /// Backward is a scatter-add into the parameter gradient — the
    /// fine-grained path the paper identifies as the training bottleneck.
    /// Callers that gather the same index list every epoch should pass an
    /// `Arc<Vec<u32>>` to avoid re-copying it per batch.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds for the parameter.
    pub fn gather(
        &mut self,
        store: &ParamStore,
        param: ParamId,
        indices: impl Into<Arc<Vec<u32>>>,
    ) -> Var {
        let _t = profile::scope("op::gather");
        let indices: Arc<Vec<u32>> = indices.into();
        let p = store.value(param);
        let d = p.cols();
        let mut out = Tensor::uninit_in(&mut self.arena, indices.len(), d);
        let src = p.as_slice();
        let idx = &indices;
        self.pool
            .for_rows(out.as_mut_slice(), d.max(1), 64, |first, chunk| {
                for (k, dst) in chunk.chunks_exact_mut(d.max(1)).enumerate() {
                    let r = idx[first + k] as usize;
                    dst.copy_from_slice(&src[r * d..(r + 1) * d]);
                }
            });
        sparse::metrics::add_bytes(2 * (indices.len() * d * 4) as u64);
        self.push(out, Op::Gather { param, indices })
    }

    /// Multiplies a (cached-transpose) incidence matrix by parameter `param`:
    /// `out = A · P`. Backward: `P.grad += Aᵀ · out.grad` (Appendix G).
    ///
    /// A paged parameter is read through its row → slot map, so every row
    /// `A` references must have been paged in ([`ParamStore::page_in`]);
    /// the result is bit-identical to the resident table's.
    ///
    /// # Panics
    ///
    /// Panics if `A.cols() != P.rows()`, or if a referenced row of a paged
    /// parameter is not resident.
    pub fn spmm(&mut self, store: &ParamStore, param: ParamId, pair: Arc<IncidencePair>) -> Var {
        let _t = profile::scope("op::spmm");
        let table = store.table(param);
        let d = table.cols();
        let data = table.data();
        let b = DenseView::new(data.len().checked_div(d).unwrap_or(0), d, data);
        // The kernel overwrites every output row, so the buffer can come
        // back from the arena unscrubbed (no redundant zero-fill).
        let mut out = Tensor::uninit_in(&mut self.arena, pair.forward.rows(), d);
        let out_data = out.as_mut_slice();
        match table.map() {
            None => csr_spmm_into_with(&self.pool, &pair.forward, b, &Identity, out_data),
            Some(slot_of) => csr_spmm_into_with(&self.pool, &pair.forward, b, slot_of, out_data),
        }
        self.push(out, Op::Spmm { param, pair })
    }

    /// Elementwise sum of two same-shape nodes.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let _t = profile::scope("op::add");
        let (m, n) = self.value(a).shape();
        let mut v = Tensor::uninit_in(&mut self.arena, m, n);
        self.nodes[a.0].value.zip_map_into_with(
            &self.pool,
            &self.nodes[b.0].value,
            |x, y| x + y,
            &mut v,
        );
        sparse::metrics::add_flops(v.len() as u64);
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise difference of two same-shape nodes.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let _t = profile::scope("op::sub");
        let (m, n) = self.value(a).shape();
        let mut v = Tensor::uninit_in(&mut self.arena, m, n);
        self.nodes[a.0].value.zip_map_into_with(
            &self.pool,
            &self.nodes[b.0].value,
            |x, y| x - y,
            &mut v,
        );
        sparse::metrics::add_flops(v.len() as u64);
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise product of two same-shape nodes.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let _t = profile::scope("op::mul");
        let (m, n) = self.value(a).shape();
        let mut v = Tensor::uninit_in(&mut self.arena, m, n);
        self.nodes[a.0].value.zip_map_into_with(
            &self.pool,
            &self.nodes[b.0].value,
            |x, y| x * y,
            &mut v,
        );
        sparse::metrics::add_flops(v.len() as u64);
        self.push(v, Op::Mul(a, b))
    }

    /// Scales a node by a constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let (m, n) = self.value(a).shape();
        let mut v = Tensor::uninit_in(&mut self.arena, m, n);
        self.nodes[a.0]
            .value
            .map_into_with(&self.pool, |x| c * x, &mut v);
        sparse::metrics::add_flops(v.len() as u64);
        self.push(v, Op::Scale(a, c))
    }

    /// Per-row dot product: `out[i] = Σ_j a[i,j]·b[i,j]`, shape `(m, 1)`.
    ///
    /// TransH uses this for `wᵣᵀ·(h−t)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let _t = profile::scope("op::row_dot");
        let (m, n) = {
            let (av, bv) = (self.value(a), self.value(b));
            assert_eq!(av.shape(), bv.shape(), "row_dot shape mismatch");
            av.shape()
        };
        let mut out = Tensor::uninit_in(&mut self.arena, m, 1);
        let (ad, bd) = (
            self.nodes[a.0].value.as_slice(),
            self.nodes[b.0].value.as_slice(),
        );
        self.pool
            .for_rows(out.as_mut_slice(), 1, 256, |first, chunk| {
                for (k, dst) in chunk.iter_mut().enumerate() {
                    let i = first + k;
                    let mut acc = 0.0;
                    for j in 0..n {
                        acc += ad[i * n + j] * bd[i * n + j];
                    }
                    *dst = acc;
                }
            });
        sparse::metrics::add_flops(2 * (m * n) as u64);
        self.push(out, Op::RowDot(a, b))
    }

    /// Broadcast row scaling: `out[i,:] = mat[i,:] · scale[i]`, where `scale`
    /// has shape `(m, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not `(mat.rows, 1)`.
    pub fn scale_rows(&mut self, mat: Var, scale: Var) -> Var {
        let _t = profile::scope("op::scale_rows");
        let (m, n) = {
            let (mv, sv) = (self.value(mat), self.value(scale));
            assert_eq!(sv.shape(), (mv.rows(), 1), "scale must be a (m,1) column");
            mv.shape()
        };
        let mut out = Tensor::uninit_in(&mut self.arena, m, n);
        let (md, sd) = (
            self.nodes[mat.0].value.as_slice(),
            self.nodes[scale.0].value.as_slice(),
        );
        self.pool
            .for_rows(out.as_mut_slice(), n.max(1), 64, |first, chunk| {
                for (k, dst) in chunk.chunks_exact_mut(n.max(1)).enumerate() {
                    let i = first + k;
                    let s = sd[i];
                    for (j, d) in dst.iter_mut().enumerate() {
                        *d = md[i * n + j] * s;
                    }
                }
            });
        sparse::metrics::add_flops((m * n) as u64);
        self.push(out, Op::ScaleRows { mat, scale })
    }

    /// Per-row L1 norm: `out[i] = Σ_j |a[i,j]|`, shape `(m, 1)`.
    pub fn l1_norm_rows(&mut self, a: Var) -> Var {
        let _t = profile::scope("op::l1_norm");
        let v = row_reduce(&self.pool, &mut self.arena, &self.nodes[a.0].value, |row| {
            row.iter().map(|x| x.abs()).sum()
        });
        self.push(v, Op::L1NormRows(a))
    }

    /// Per-row L2 norm: `out[i] = √(Σ_j a[i,j]²)`, shape `(m, 1)`.
    ///
    /// `eps` guards the backward division for zero rows.
    pub fn l2_norm_rows(&mut self, a: Var, eps: f32) -> Var {
        let _t = profile::scope("op::l2_norm");
        let v = row_reduce(&self.pool, &mut self.arena, &self.nodes[a.0].value, |row| {
            row.iter().map(|x| x * x).sum::<f32>().sqrt()
        });
        self.push(v, Op::L2NormRows { input: a, eps })
    }

    /// Per-row squared L2 norm (TransC-style scoring), shape `(m, 1)`.
    pub fn squared_l2_norm_rows(&mut self, a: Var) -> Var {
        let _t = profile::scope("op::sq_l2_norm");
        let v = row_reduce(&self.pool, &mut self.arena, &self.nodes[a.0].value, |row| {
            row.iter().map(|x| x * x).sum()
        });
        self.push(v, Op::SquaredL2NormRows(a))
    }

    /// Per-row L1 torus distance: `out[i] = Σ_j min(fⱼ, 1−fⱼ)` where
    /// `fⱼ = frac(a[i,j])` — TorusE's wraparound metric.
    pub fn torus_l1_rows(&mut self, a: Var) -> Var {
        let _t = profile::scope("op::torus_l1");
        let v = row_reduce(&self.pool, &mut self.arena, &self.nodes[a.0].value, |row| {
            row.iter()
                .map(|&x| {
                    let f = x - x.floor();
                    f.min(1.0 - f)
                })
                .sum()
        });
        self.push(v, Op::TorusL1Rows(a))
    }

    /// Per-row squared L2 torus distance: `out[i] = Σ_j min(fⱼ, 1−fⱼ)²`.
    ///
    /// This is the `l2_torus_dissimilarity` the paper's Figure 2 profiles.
    pub fn torus_l2_sq_rows(&mut self, a: Var) -> Var {
        let _t = profile::scope("op::torus_l2");
        let v = row_reduce(&self.pool, &mut self.arena, &self.nodes[a.0].value, |row| {
            row.iter()
                .map(|&x| {
                    let f = x - x.floor();
                    let d = f.min(1.0 - f);
                    d * d
                })
                .sum()
        });
        self.push(v, Op::TorusL2SqRows(a))
    }

    /// Per-row relation-specific projection (TransR):
    /// `out[i] = M_{rels[i]} · vecs[i]`, where parameter `mats` has shape
    /// `(R, d_out·d_in)` storing each `d_out × d_in` matrix row-major.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent or a relation index is out of range.
    pub fn project_rows(
        &mut self,
        store: &ParamStore,
        mats: ParamId,
        vecs: Var,
        rels: impl Into<Arc<Vec<u32>>>,
        d_out: usize,
    ) -> Var {
        let _t = profile::scope("op::project_rows");
        let rels: Arc<Vec<u32>> = rels.into();
        let mv = store.value(mats);
        let (m, d_in) = self.value(vecs).shape();
        assert_eq!(rels.len(), m, "one relation per row required");
        assert_eq!(
            mv.cols(),
            d_out * d_in,
            "projection parameter has wrong width"
        );
        let mut out = Tensor::uninit_in(&mut self.arena, m, d_out);
        let (md, vd) = (mv.as_slice(), self.nodes[vecs.0].value.as_slice());
        let rl = &rels;
        self.pool
            .for_rows(out.as_mut_slice(), d_out.max(1), 32, |first, chunk| {
                for (k, dst) in chunk.chunks_exact_mut(d_out.max(1)).enumerate() {
                    let i = first + k;
                    let r = rl[i] as usize;
                    let mat = &md[r * d_out * d_in..(r + 1) * d_out * d_in];
                    let vec = &vd[i * d_in..(i + 1) * d_in];
                    for (o, d) in dst.iter_mut().enumerate() {
                        let mrow = &mat[o * d_in..(o + 1) * d_in];
                        let mut acc = 0.0;
                        for j in 0..d_in {
                            acc += mrow[j] * vec[j];
                        }
                        *d = acc;
                    }
                }
            });
        sparse::metrics::add_flops(2 * (m * d_out * d_in) as u64);
        self.push(
            out,
            Op::ProjectRows {
                mats,
                vecs,
                rels,
                d_out,
                d_in,
            },
        )
    }

    /// Margin ranking loss over `(m,1)` positive/negative score columns:
    /// `loss = mean(max(0, margin + pos − neg))`.
    ///
    /// Distance scores: positives should be *smaller* than negatives.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or are not columns.
    pub fn margin_ranking_loss(&mut self, pos: Var, neg: Var, margin: f32) -> Var {
        let _t = profile::scope("op::margin_loss");
        let (pv, nv) = (self.value(pos), self.value(neg));
        assert_eq!(pv.shape(), nv.shape(), "margin loss operands must match");
        assert_eq!(pv.cols(), 1, "scores must be (m,1) columns");
        let m = pv.rows();
        let (pd, nd) = (pv.as_slice(), nv.as_slice());
        // Fixed-size chunks folded in order: the f64 association depends only
        // on `m`, never on the pool width (determinism contract).
        let acc = self.pool.map_reduce_fixed(
            m,
            REDUCE_CHUNK,
            0.0f64,
            |r| {
                let mut part = 0.0f64;
                for i in r {
                    part += f64::from((margin + pd[i] - nd[i]).max(0.0));
                }
                part
            },
            |x, y| x + y,
        );
        let loss = if m == 0 { 0.0 } else { (acc / m as f64) as f32 };
        sparse::metrics::add_flops(3 * m as u64);
        let mut t = Tensor::uninit_in(&mut self.arena, 1, 1);
        t.set(0, 0, loss);
        self.push(t, Op::MarginRankingLoss { pos, neg, margin })
    }

    /// Mean over all elements, shape `(1,1)`.
    pub fn mean(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let len = av.len();
        let ad = av.as_slice();
        let sum = self.pool.map_reduce_fixed(
            len,
            REDUCE_CHUNK,
            0.0f64,
            |r| ad[r].iter().map(|&x| f64::from(x)).sum::<f64>(),
            |x, y| x + y,
        );
        let mean = if len == 0 {
            0.0
        } else {
            (sum / len as f64) as f32
        };
        let mut v = Tensor::uninit_in(&mut self.arena, 1, 1);
        v.set(0, 0, mean);
        self.push(v, Op::Mean(a))
    }

    /// Per-row sum: `out[i] = Σ_j a[i,j]`, shape `(m, 1)`.
    pub fn row_sum(&mut self, a: Var) -> Var {
        let _t = profile::scope("op::row_sum");
        let v = row_reduce(&self.pool, &mut self.arena, &self.nodes[a.0].value, |row| {
            row.iter().sum()
        });
        self.push(v, Op::RowSum(a))
    }

    /// Semiring triple product (paper Appendix D, DistMult):
    /// `out[i,:] = E[h_i,:] ⊙ E[r_i,:] ⊙ E[t_i,:]` computed with the
    /// `(×, ×)` semiring SpMM over an **unsigned** `hrt` incidence matrix.
    ///
    /// Backward distributes `g_i ⊙ (product of the other two rows)` to each
    /// incident row, traversing the cached transpose so updates stay
    /// deterministic and lock-free.
    ///
    /// # Panics
    ///
    /// Panics if the incidence matrix does not have exactly 3 nonzeros per
    /// row or its width differs from the parameter's row count.
    pub fn triple_product(
        &mut self,
        store: &ParamStore,
        param: ParamId,
        pair: Arc<IncidencePair>,
    ) -> Var {
        let _t = profile::scope("op::triple_product");
        let p = store.value(param);
        assert_eq!(pair.forward.cols(), p.rows(), "incidence width mismatch");
        assert_eq!(
            pair.forward.nnz(),
            3 * pair.forward.rows(),
            "triple_product requires exactly 3 nonzeros per row"
        );
        let mut t = Tensor::uninit_in(&mut self.arena, pair.forward.rows(), p.cols());
        sparse::semiring::semiring_spmm_into_with::<sparse::semiring::TimesTimes>(
            &self.pool,
            &pair.forward,
            p.as_slice(),
            p.rows(),
            p.cols(),
            t.as_mut_slice(),
        );
        self.push(t, Op::TripleProduct { param, pair })
    }

    /// RotatE score rows (paper Appendix D): for each incidence triple,
    /// `out[i] = Σ_j |h_j ⊙ r_j − t_j|` over **interleaved complex**
    /// embeddings (the parameter has `2·d'` columns holding `d'` complex
    /// values per row). Lower is better — a distance, directly usable with
    /// the margin ranking loss.
    ///
    /// The incidence matrix must be the signed `hrt` form: `−1` marks the
    /// tail, the two `+1` columns form the commuting product `h ⊙ r`.
    ///
    /// # Panics
    ///
    /// Panics if the parameter width is odd, the incidence shape mismatches,
    /// or any row does not have exactly 3 nonzeros.
    pub fn rotate_score(
        &mut self,
        store: &ParamStore,
        param: ParamId,
        pair: Arc<IncidencePair>,
    ) -> Var {
        let _t = profile::scope("op::rotate_score");
        let value = complex_score_forward(
            &self.pool,
            &mut self.arena,
            store,
            param,
            &pair,
            ComplexKernel::Rotate,
        );
        self.push(value, Op::RotateScore { param, pair })
    }

    /// ComplEx score rows (paper Appendix D): `out[i] = Σ_j Re(h_j r_j t̄_j)`
    /// over interleaved complex embeddings. **Higher is better** — negate
    /// (e.g. [`Graph::scale`] by `−1`) before a distance-based loss.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Graph::rotate_score`].
    pub fn complex_score(
        &mut self,
        store: &ParamStore,
        param: ParamId,
        pair: Arc<IncidencePair>,
    ) -> Var {
        let _t = profile::scope("op::complex_score");
        let value = complex_score_forward(
            &self.pool,
            &mut self.arena,
            store,
            param,
            &pair,
            ComplexKernel::ComplEx,
        );
        self.push(value, Op::ComplexScore { param, pair })
    }

    /// Runs reverse-mode differentiation from scalar node `loss`.
    ///
    /// Node gradients are materialized on the tape (available via
    /// [`Graph::grad`]); parameter gradients **accumulate** into `store`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a `(1,1)` scalar node.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        let _t = profile::scope("backward");
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward requires a scalar loss node"
        );
        let mut seed = Tensor::uninit_in(&mut self.arena, 1, 1);
        seed.set(0, 0, 1.0);
        self.nodes[loss.0].grad = Some(seed);
        for i in (0..self.nodes.len()).rev() {
            let Some(g) = self.nodes[i].grad.take() else {
                continue;
            };
            self.backward_node(i, &g, store);
            // Re-install so callers can inspect intermediate gradients.
            self.nodes[i].grad = Some(g);
        }
    }

    fn backward_node(&mut self, i: usize, g: &Tensor, store: &mut ParamStore) {
        // Compute input deltas immutably, then accumulate. All input nodes
        // have indices < i by construction. The op is cloned out of the node
        // (cheap: `Copy` fields plus `Arc`s) so `self` stays borrowable.
        let op = self.nodes[i].op.clone();
        match op {
            Op::Input => {}
            Op::Gather { param, indices } => {
                let _t = profile::scope("op::gather_backward");
                store.touch(param, &indices);
                let (grad, rows) = store.grad_and_rows_mut(param);
                match rows.as_slice() {
                    Some(rows) => scatter_add_rows_listed_with(&self.pool, grad, rows, &indices, g),
                    None => scatter_add_rows_with(&self.pool, grad, &indices, g),
                }
                sparse::metrics::add_flops(g.len() as u64);
            }
            Op::Spmm { param, pair } => {
                let _t = profile::scope("op::spmm_backward");
                // grad += Aᵀ · g, accumulated in place: untouched parameter
                // rows cost nothing (Appendix G, without the dense delta).
                // The pair's cached nonzero-column list feeds the touched-row
                // contract, and the listed kernel walks only those rows
                // (plus any rows other ops already touched, whose Aᵀ rows
                // are empty here) instead of scanning the whole table.
                store.touch(param, pair.touched_columns());
                let tr = &pair.transpose;
                if store.is_paged(param) {
                    // Paged: the gradient is the slot cache, so the walk
                    // runs over the touched rows' sorted slots and maps each
                    // back to its row of Aᵀ. Same per-row arithmetic, same
                    // one-owner-per-row split: bit-identical to the resident
                    // arm.
                    let (grad, slots, row_of) = store.paged_backward_parts(param);
                    csr_spmm_acc_rows_into_with(
                        &self.pool,
                        tr,
                        slots,
                        row_of,
                        g.view(),
                        grad.as_mut_slice(),
                    );
                    return;
                }
                let (grad, rows) = store.grad_and_rows_mut(param);
                match rows.as_slice() {
                    Some(rows) => csr_spmm_acc_rows_into_with(
                        &self.pool,
                        tr,
                        rows,
                        &Identity,
                        g.view(),
                        grad.as_mut_slice(),
                    ),
                    None => csr_spmm_acc_into_with(&self.pool, tr, g.view(), grad.as_mut_slice()),
                }
            }
            Op::Add(a, b) => {
                self.accum(a, g, 1.0);
                self.accum(b, g, 1.0);
            }
            Op::Sub(a, b) => {
                self.accum(a, g, 1.0);
                self.accum(b, g, -1.0);
            }
            Op::Mul(a, b) => {
                let (m, n) = g.shape();
                let mut da = Tensor::uninit_in(&mut self.arena, m, n);
                g.zip_map_into_with(
                    &self.pool,
                    &self.nodes[b.0].value,
                    |gx, bx| gx * bx,
                    &mut da,
                );
                let mut db = Tensor::uninit_in(&mut self.arena, m, n);
                g.zip_map_into_with(
                    &self.pool,
                    &self.nodes[a.0].value,
                    |gx, ax| gx * ax,
                    &mut db,
                );
                self.accum(a, &da, 1.0);
                self.accum(b, &db, 1.0);
                self.arena.reclaim(da);
                self.arena.reclaim(db);
            }
            Op::Scale(a, c) => {
                self.accum(a, g, c);
            }
            Op::RowDot(a, b) => {
                let da = scale_rows_tensor(&self.pool, &mut self.arena, &self.nodes[b.0].value, g);
                let db = scale_rows_tensor(&self.pool, &mut self.arena, &self.nodes[a.0].value, g);
                self.accum(a, &da, 1.0);
                self.accum(b, &db, 1.0);
                self.arena.reclaim(da);
                self.arena.reclaim(db);
            }
            Op::ScaleRows { mat, scale } => {
                let dm =
                    scale_rows_tensor(&self.pool, &mut self.arena, g, &self.nodes[scale.0].value);
                let ds = row_dot_tensor(&self.pool, &mut self.arena, g, &self.nodes[mat.0].value);
                self.accum(mat, &dm, 1.0);
                self.accum(scale, &ds, 1.0);
                self.arena.reclaim(dm);
                self.arena.reclaim(ds);
            }
            Op::L1NormRows(a) => {
                let da = rowwise_unary_backward(
                    &self.pool,
                    &mut self.arena,
                    &self.nodes[a.0].value,
                    g,
                    |x, _| x.signum(),
                );
                self.accum(a, &da, 1.0);
                self.arena.reclaim(da);
            }
            Op::L2NormRows { input, eps } => {
                let (m, n) = self.nodes[input.0].value.shape();
                let mut da = Tensor::uninit_in(&mut self.arena, m, n);
                let (ad, nd, gd) = (
                    self.nodes[input.0].value.as_slice(),
                    self.nodes[i].value.as_slice(),
                    g.as_slice(),
                );
                self.pool
                    .for_rows(da.as_mut_slice(), n.max(1), 64, |first, chunk| {
                        for (k, dst) in chunk.chunks_exact_mut(n.max(1)).enumerate() {
                            let r = first + k;
                            let denom = nd[r].max(eps);
                            let gr = gd[r];
                            for (j, d) in dst.iter_mut().enumerate() {
                                *d = gr * ad[r * n + j] / denom;
                            }
                        }
                    });
                sparse::metrics::add_flops(2 * (m * n) as u64);
                self.accum(input, &da, 1.0);
                self.arena.reclaim(da);
            }
            Op::SquaredL2NormRows(a) => {
                let da = rowwise_unary_backward(
                    &self.pool,
                    &mut self.arena,
                    &self.nodes[a.0].value,
                    g,
                    |x, _| 2.0 * x,
                );
                self.accum(a, &da, 1.0);
                self.arena.reclaim(da);
            }
            Op::TorusL1Rows(a) => {
                let da = rowwise_unary_backward(
                    &self.pool,
                    &mut self.arena,
                    &self.nodes[a.0].value,
                    g,
                    |x, _| {
                        let f = x - x.floor();
                        if f <= 0.5 {
                            1.0
                        } else {
                            -1.0
                        }
                    },
                );
                self.accum(a, &da, 1.0);
                self.arena.reclaim(da);
            }
            Op::TorusL2SqRows(a) => {
                let da = rowwise_unary_backward(
                    &self.pool,
                    &mut self.arena,
                    &self.nodes[a.0].value,
                    g,
                    |x, _| {
                        let f = x - x.floor();
                        if f <= 0.5 {
                            2.0 * f
                        } else {
                            -2.0 * (1.0 - f)
                        }
                    },
                );
                self.accum(a, &da, 1.0);
                self.arena.reclaim(da);
            }
            Op::ProjectRows {
                mats,
                vecs,
                rels,
                d_out,
                d_in,
            } => {
                let _t = profile::scope("op::project_backward");
                let m = g.rows();
                // d vecs[i] = M_{r}ᵀ · g_i — computed against the parameter
                // value before its gradient is borrowed mutably.
                let mut dv = Tensor::uninit_in(&mut self.arena, m, d_in);
                {
                    let mv = store.value(mats);
                    let (md, gd) = (mv.as_slice(), g.as_slice());
                    self.pool
                        .for_rows(dv.as_mut_slice(), d_in.max(1), 32, |first, chunk| {
                            for (k, dst) in chunk.chunks_exact_mut(d_in.max(1)).enumerate() {
                                let i = first + k;
                                let r = rels[i] as usize;
                                let mat = &md[r * d_out * d_in..(r + 1) * d_out * d_in];
                                for (j, d) in dst.iter_mut().enumerate() {
                                    let mut acc = 0.0;
                                    for o in 0..d_out {
                                        acc += mat[o * d_in + j] * gd[i * d_out + o];
                                    }
                                    *d = acc;
                                }
                            }
                        });
                }
                // d mats[r] += g_i ⊗ vecs[i], scattered by relation index.
                let vv = self.value(vecs);
                store.touch(mats, &rels);
                let (gm, mat_rows) = store.grad_and_rows_mut(mats);
                match mat_rows.as_slice() {
                    Some(rows) => {
                        scatter_add_outer_listed(&self.pool, gm, rows, &rels, g, vv, d_out, d_in)
                    }
                    None => scatter_add_outer(&self.pool, gm, &rels, g, vv, d_out, d_in),
                }
                sparse::metrics::add_flops(4 * (m * d_out * d_in) as u64);
                self.accum(vecs, &dv, 1.0);
                self.arena.reclaim(dv);
            }
            Op::MarginRankingLoss { pos, neg, margin } => {
                let m = self.nodes[pos.0].value.rows();
                let gscale = if m == 0 { 0.0 } else { g.get(0, 0) / m as f32 };
                // Inactive rows keep gradient 0 — the buffers are only
                // partially written, so they must come back zeroed.
                let mut dp = Tensor::zeros_in(&mut self.arena, m, 1);
                let mut dn = Tensor::zeros_in(&mut self.arena, m, 1);
                let (pd, nd) = (
                    self.nodes[pos.0].value.as_slice(),
                    self.nodes[neg.0].value.as_slice(),
                );
                self.pool.for_mut(dp.as_mut_slice(), 256, |offset, chunk| {
                    for (k, d) in chunk.iter_mut().enumerate() {
                        let r = offset + k;
                        if margin + pd[r] - nd[r] > 0.0 {
                            *d = gscale;
                        }
                    }
                });
                self.pool.for_mut(dn.as_mut_slice(), 256, |offset, chunk| {
                    for (k, d) in chunk.iter_mut().enumerate() {
                        let r = offset + k;
                        if margin + pd[r] - nd[r] > 0.0 {
                            *d = -gscale;
                        }
                    }
                });
                self.accum(pos, &dp, 1.0);
                self.accum(neg, &dn, 1.0);
                self.arena.reclaim(dp);
                self.arena.reclaim(dn);
            }
            Op::Mean(a) => {
                let len = self.value(a).len().max(1);
                let gv = g.get(0, 0) / len as f32;
                let (m, n) = self.value(a).shape();
                let mut da = Tensor::uninit_in(&mut self.arena, m, n);
                da.as_mut_slice().fill(gv);
                self.accum(a, &da, 1.0);
                self.arena.reclaim(da);
            }
            Op::RowSum(a) => {
                let da = rowwise_unary_backward(
                    &self.pool,
                    &mut self.arena,
                    &self.nodes[a.0].value,
                    g,
                    |_, _| 1.0,
                );
                self.accum(a, &da, 1.0);
                self.arena.reclaim(da);
            }
            Op::RotateScore { param, pair } => {
                let _t = profile::scope("op::rotate_score_backward");
                complex_score_backward(&self.pool, store, param, &pair, g, ComplexKernel::Rotate);
            }
            Op::ComplexScore { param, pair } => {
                let _t = profile::scope("op::complex_score_backward");
                complex_score_backward(&self.pool, store, param, &pair, g, ComplexKernel::ComplEx);
            }
            Op::TripleProduct { param, pair } => {
                let _t = profile::scope("op::triple_product_backward");
                let d = g.cols();
                let fwd = &pair.forward;
                let tr = &pair.transpose;
                // For entity/relation row `e`, each incident triple row `i`
                // contributes g_i ⊙ Π_{c ≠ e} E[c]. Traverse Aᵀ so each
                // parameter-gradient row is owned by exactly one worker.
                store.touch(param, pair.touched_columns());
                let (pv, grad, rows) = store.value_grad_rows_mut(param);
                let pd = pv.as_slice();
                let gd = g.as_slice();
                let indptr = fwd.indptr();
                let indices = fwd.indices();
                let process = |e: usize, dst: &mut [f32]| {
                    for (i, _) in tr.row(e) {
                        let (s, epos) = (indptr[i] as usize, indptr[i + 1] as usize);
                        debug_assert_eq!(epos - s, 3);
                        // The two sibling columns of triple i (CSR column
                        // indices are strictly ascending, so `e` appears
                        // exactly once).
                        let mut others = [0usize; 2];
                        let mut k = 0;
                        for &c in &indices[s..epos] {
                            if c as usize != e && k < 2 {
                                others[k] = c as usize;
                                k += 1;
                            }
                        }
                        debug_assert_eq!(k, 2);
                        let a = &pd[others[0] * d..others[0] * d + d];
                        let b = &pd[others[1] * d..others[1] * d + d];
                        let gr = &gd[i * d..(i + 1) * d];
                        for j in 0..d {
                            dst[j] += gr[j] * a[j] * b[j];
                        }
                    }
                };
                match rows.as_slice() {
                    // Touched-row walk: identical per-row accumulation, but
                    // only over the rows the batch can reach (rows touched
                    // by other ops have empty Aᵀ rows here and cost one
                    // indptr lookup).
                    Some(rows) => self.pool.for_listed_rows(
                        grad.as_mut_slice(),
                        d.max(1),
                        rows,
                        64,
                        |listed, first, window| {
                            for &e in listed {
                                let e = e as usize;
                                let off = (e - first) * d;
                                process(e, &mut window[off..off + d.max(1)]);
                            }
                        },
                    ),
                    None => {
                        self.pool
                            .for_rows(grad.as_mut_slice(), d.max(1), 64, |first, chunk| {
                                let rows_here = chunk.len() / d.max(1);
                                for local in 0..rows_here {
                                    let e = first + local;
                                    process(e, &mut chunk[local * d..(local + 1) * d]);
                                }
                            })
                    }
                }
                sparse::metrics::add_flops(3 * (fwd.nnz() * d) as u64);
            }
        }
    }

    /// `nodes[v].grad += alpha * delta`, drawing the grad buffer from the
    /// arena on first touch.
    fn accum(&mut self, v: Var, delta: &Tensor, alpha: f32) {
        let (pool, arena) = (&self.pool, &mut self.arena);
        let node = &mut self.nodes[v.0];
        if node.grad.is_none() {
            node.grad = Some(Tensor::zeros_in(
                arena,
                node.value.rows(),
                node.value.cols(),
            ));
        }
        let grad = node.grad.as_mut().expect("grad installed above");
        grad.add_scaled_with(pool, delta, alpha);
        sparse::metrics::add_flops(2 * delta.len() as u64);
    }
}

/// `out[i] = f(row_i)`, shape `(m, 1)`, drawn from `arena`.
fn row_reduce(
    pool: &PoolHandle,
    arena: &mut Arena,
    a: &Tensor,
    f: impl Fn(&[f32]) -> f32 + Sync,
) -> Tensor {
    let (m, n) = a.shape();
    let mut out = Tensor::uninit_in(arena, m, 1);
    let ad = a.as_slice();
    pool.for_rows(out.as_mut_slice(), 1, 256, |first, chunk| {
        for (k, dst) in chunk.iter_mut().enumerate() {
            let i = first + k;
            *dst = f(&ad[i * n..(i + 1) * n]);
        }
    });
    sparse::metrics::add_flops(2 * (m * n) as u64);
    out
}

/// `out[i,j] = mat[i,j] * col[i]` (col is `(m,1)`), drawn from `arena`.
fn scale_rows_tensor(pool: &PoolHandle, arena: &mut Arena, mat: &Tensor, col: &Tensor) -> Tensor {
    let (m, n) = mat.shape();
    debug_assert_eq!(col.shape(), (m, 1));
    let mut out = Tensor::uninit_in(arena, m, n);
    let (md, cd) = (mat.as_slice(), col.as_slice());
    pool.for_rows(out.as_mut_slice(), n.max(1), 64, |first, chunk| {
        for (k, dst) in chunk.chunks_exact_mut(n.max(1)).enumerate() {
            let i = first + k;
            for (j, d) in dst.iter_mut().enumerate() {
                *d = md[i * n + j] * cd[i];
            }
        }
    });
    out
}

/// `out[i] = Σ_j a[i,j]·b[i,j]` as an `(m,1)` tensor drawn from `arena`.
fn row_dot_tensor(pool: &PoolHandle, arena: &mut Arena, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = a.shape();
    debug_assert_eq!(b.shape(), (m, n));
    let mut out = Tensor::uninit_in(arena, m, 1);
    let (ad, bd) = (a.as_slice(), b.as_slice());
    pool.for_rows(out.as_mut_slice(), 1, 256, |first, chunk| {
        for (k, dst) in chunk.iter_mut().enumerate() {
            let i = first + k;
            let mut acc = 0.0;
            for j in 0..n {
                acc += ad[i * n + j] * bd[i * n + j];
            }
            *dst = acc;
        }
    });
    out
}

/// `da[i,j] = g[i] * f(a[i,j], j)` — shared shape of the norm backwards.
fn rowwise_unary_backward(
    pool: &PoolHandle,
    arena: &mut Arena,
    a: &Tensor,
    g: &Tensor,
    f: impl Fn(f32, usize) -> f32 + Sync,
) -> Tensor {
    let (m, n) = a.shape();
    debug_assert_eq!(g.shape(), (m, 1));
    sparse::metrics::add_flops((m * n) as u64);
    let mut out = Tensor::uninit_in(arena, m, n);
    let (ad, gd) = (a.as_slice(), g.as_slice());
    pool.for_rows(out.as_mut_slice(), n.max(1), 64, |first, chunk| {
        for (k, dst) in chunk.chunks_exact_mut(n.max(1)).enumerate() {
            let i = first + k;
            for (j, d) in dst.iter_mut().enumerate() {
                *d = gd[i] * f(ad[i * n + j], j);
            }
        }
    });
    out
}

/// `dst[indices[k], :] += src[k, :]` — the scatter of paper Figure 1(b).
///
/// Parallelized by destination row range: each worker scans the whole index
/// list and applies only the updates landing in its range, which is
/// deterministic and lock-free.
pub fn scatter_add_rows(dst: &mut Tensor, indices: &[u32], src: &Tensor) {
    scatter_add_rows_with(&PoolHandle::global(), dst, indices, src);
}

/// Like [`scatter_add_rows`] but dispatched on an explicit pool handle.
///
/// Row accumulation order follows the global index scan regardless of how
/// rows are chunked, so the result is bit-identical at any pool width.
pub fn scatter_add_rows_with(pool: &PoolHandle, dst: &mut Tensor, indices: &[u32], src: &Tensor) {
    let n = dst.cols();
    debug_assert_eq!(src.cols(), n);
    debug_assert_eq!(src.rows(), indices.len());
    let sd = src.as_slice();
    pool.for_rows(dst.as_mut_slice(), n.max(1), 512, |first, chunk| {
        let rows_here = chunk.len() / n.max(1);
        let lo = first;
        let hi = first + rows_here;
        for (k, &idx) in indices.iter().enumerate() {
            let r = idx as usize;
            if r >= lo && r < hi {
                let dst_row = &mut chunk[(r - lo) * n..(r - lo + 1) * n];
                let src_row = &sd[k * n..(k + 1) * n];
                for (d, s) in dst_row.iter_mut().zip(src_row) {
                    *d += *s;
                }
            }
        }
    });
    sparse::metrics::add_bytes(3 * (indices.len() * n * 4) as u64);
}

/// Like [`scatter_add_rows_with`] but restricted to the sorted destination
/// rows in `rows` — the touched-row variant of the gather backward.
///
/// Every index in `indices` **must** appear in `rows` (callers pass the
/// parameter's [`crate::RowSet`], a superset of the index list by
/// construction); listed rows that no index targets are never written.
/// Contributions land in global index-scan order per destination row, the
/// same order as the dense sweep, so the two are bit-identical.
fn scatter_add_rows_listed_with(
    pool: &PoolHandle,
    dst: &mut Tensor,
    rows: &[u32],
    indices: &[u32],
    src: &Tensor,
) {
    let n = dst.cols();
    debug_assert_eq!(src.cols(), n);
    debug_assert_eq!(src.rows(), indices.len());
    debug_assert!(
        indices.iter().all(|i| rows.binary_search(i).is_ok()),
        "every scatter index must be in the touched-row list"
    );
    if n == 0 || indices.is_empty() {
        return;
    }
    let sd = src.as_slice();
    pool.for_listed_rows(dst.as_mut_slice(), n, rows, 128, |listed, first, window| {
        // The window spans [listed[0], listed.last()] contiguously; any
        // index inside that span is a listed row of *this* chunk (the list
        // is sorted and chunks partition it), so a range test suffices.
        let lo = listed[0];
        let hi = *listed.last().expect("chunks are non-empty");
        for (k, &idx) in indices.iter().enumerate() {
            if idx >= lo && idx <= hi {
                let r = idx as usize - first;
                let dst_row = &mut window[r * n..(r + 1) * n];
                let src_row = &sd[k * n..(k + 1) * n];
                for (d, s) in dst_row.iter_mut().zip(src_row) {
                    *d += *s;
                }
            }
        }
    });
    sparse::metrics::add_bytes(3 * (indices.len() * n * 4) as u64);
}

/// `dst[rels[i]] += g_i ⊗ v_i` where `dst` is `(R, d_out*d_in)`.
fn scatter_add_outer(
    pool: &PoolHandle,
    dst: &mut Tensor,
    rels: &[u32],
    g: &Tensor,
    v: &Tensor,
    d_out: usize,
    d_in: usize,
) {
    let width = d_out * d_in;
    debug_assert_eq!(dst.cols(), width);
    let (gd, vd) = (g.as_slice(), v.as_slice());
    pool.for_rows(dst.as_mut_slice(), width.max(1), 8, |first, chunk| {
        let rows_here = chunk.len() / width.max(1);
        let (lo, hi) = (first, first + rows_here);
        for (i, &rel) in rels.iter().enumerate() {
            let r = rel as usize;
            if r >= lo && r < hi {
                let mat = &mut chunk[(r - lo) * width..(r - lo + 1) * width];
                for o in 0..d_out {
                    let go = gd[i * d_out + o];
                    let row = &mut mat[o * d_in..(o + 1) * d_in];
                    for (j, m) in row.iter_mut().enumerate() {
                        *m += go * vd[i * d_in + j];
                    }
                }
            }
        }
    });
}

/// Touched-row variant of [`scatter_add_outer`]: only the sorted relation
/// rows in `rows` are visited. Same preconditions and determinism argument
/// as [`scatter_add_rows_listed_with`].
#[allow(clippy::too_many_arguments)]
fn scatter_add_outer_listed(
    pool: &PoolHandle,
    dst: &mut Tensor,
    rows: &[u32],
    rels: &[u32],
    g: &Tensor,
    v: &Tensor,
    d_out: usize,
    d_in: usize,
) {
    let width = d_out * d_in;
    debug_assert_eq!(dst.cols(), width);
    debug_assert!(
        rels.iter().all(|r| rows.binary_search(r).is_ok()),
        "every relation index must be in the touched-row list"
    );
    if width == 0 || rels.is_empty() {
        return;
    }
    let (gd, vd) = (g.as_slice(), v.as_slice());
    pool.for_listed_rows(
        dst.as_mut_slice(),
        width,
        rows,
        8,
        |listed, first, window| {
            let lo = listed[0];
            let hi = *listed.last().expect("chunks are non-empty");
            for (i, &rel) in rels.iter().enumerate() {
                if rel >= lo && rel <= hi {
                    let r = rel as usize - first;
                    let mat = &mut window[r * width..(r + 1) * width];
                    for o in 0..d_out {
                        let go = gd[i * d_out + o];
                        let row = &mut mat[o * d_in..(o + 1) * d_in];
                        for (j, m) in row.iter_mut().enumerate() {
                            *m += go * vd[i * d_in + j];
                        }
                    }
                }
            }
        },
    );
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ComplexKernel {
    Rotate,
    ComplEx,
}

/// Shared forward of the complex-semiring score ops: one `(m, 1)` column of
/// RotatE distances or ComplEx similarities, drawn from `arena`.
fn complex_score_forward(
    pool: &PoolHandle,
    arena: &mut Arena,
    store: &ParamStore,
    param: ParamId,
    pair: &IncidencePair,
    kernel: ComplexKernel,
) -> Tensor {
    let p = store.value(param);
    let d2 = p.cols();
    assert!(
        d2.is_multiple_of(2),
        "complex ops need an even parameter width"
    );
    assert_eq!(pair.forward.cols(), p.rows(), "incidence width mismatch");
    assert_eq!(
        pair.forward.nnz(),
        3 * pair.forward.rows(),
        "complex score ops require exactly 3 nonzeros per row"
    );
    let half = d2 / 2;
    let m = pair.forward.rows();
    let pd = p.as_slice();
    let indptr = pair.forward.indptr();
    let indices = pair.forward.indices();
    let values = pair.forward.values();
    let mut out = Tensor::uninit_in(arena, m, 1);
    pool.for_rows(out.as_mut_slice(), 1, 128, |first, chunk| {
        for (k, dst) in chunk.iter_mut().enumerate() {
            let i = first + k;
            let (s, e) = (indptr[i] as usize, indptr[i + 1] as usize);
            let (a, b, t) = split_hrt_row(&indices[s..e], &values[s..e]);
            let mut acc = 0.0f32;
            for j in 0..half {
                let hv = complex_at(pd, a, j, d2);
                let rv = complex_at(pd, b, j, d2);
                let tv = complex_at(pd, t, j, d2);
                match kernel {
                    ComplexKernel::Rotate => {
                        let hr = cmul(hv, rv);
                        let z = (hr.0 - tv.0, hr.1 - tv.1);
                        acc += (z.0 * z.0 + z.1 * z.1).sqrt();
                    }
                    ComplexKernel::ComplEx => {
                        let hr = cmul(hv, rv);
                        // Re(hr · conj(t)) = hr.re·t.re + hr.im·t.im.
                        acc += hr.0 * tv.0 + hr.1 * tv.1;
                    }
                }
            }
            *dst = acc;
        }
    });
    sparse::metrics::add_flops(8 * (m * half) as u64);
    out
}

/// Shared backward: distributes per-triple complex gradients to the three
/// incident parameter rows via the cached transpose (deterministic, each
/// gradient row owned by one worker).
///
/// Derivations (treating re/im as independent reals):
/// * RotatE, `f = Σ|z|`, `z = h·r − t`: with `u = z/|z|`,
///   `∇h = conj(r)·u`, `∇r = conj(h)·u`, `∇t = −u`.
/// * ComplEx, `f = Σ Re(h·r·conj(t))`: `∇h = conj(r·conj(t)) = conj(r)·t`,
///   `∇r = conj(h)·t`, `∇t = h·r`.
fn complex_score_backward(
    pool: &PoolHandle,
    store: &mut ParamStore,
    param: ParamId,
    pair: &IncidencePair,
    g: &Tensor,
    kernel: ComplexKernel,
) {
    let fwd = &pair.forward;
    let tr = &pair.transpose;
    store.touch(param, pair.touched_columns());
    let (pv, grad, rows) = store.value_grad_rows_mut(param);
    let d2 = pv.cols();
    let half = d2 / 2;
    let pd = pv.as_slice();
    let gd = g.as_slice();
    let indptr = fwd.indptr();
    let indices = fwd.indices();
    let values = fwd.values();
    let process = |e: usize, dst: &mut [f32]| {
        for (i, _) in tr.row(e) {
            let (s, epos) = (indptr[i] as usize, indptr[i + 1] as usize);
            let (a, b, t) = split_hrt_row(&indices[s..epos], &values[s..epos]);
            let gi = gd[i];
            for j in 0..half {
                let hv = complex_at(pd, a, j, d2);
                let rv = complex_at(pd, b, j, d2);
                let tv = complex_at(pd, t, j, d2);
                // Per-component upstream direction.
                let gz = match kernel {
                    ComplexKernel::Rotate => {
                        let hr = cmul(hv, rv);
                        let z = (hr.0 - tv.0, hr.1 - tv.1);
                        let norm = (z.0 * z.0 + z.1 * z.1).sqrt().max(1e-12);
                        (z.0 / norm, z.1 / norm)
                    }
                    ComplexKernel::ComplEx => tv,
                };
                let delta = if e == t {
                    match kernel {
                        ComplexKernel::Rotate => (-gz.0, -gz.1),
                        ComplexKernel::ComplEx => cmul(hv, rv),
                    }
                } else {
                    // e is one of the two positive columns; the partner
                    // is the other one. ∇e = conj(partner)·gz for both
                    // kernels (ComplEx: gz = t).
                    let partner = if e == a { rv } else { hv };
                    cmul((partner.0, -partner.1), gz)
                };
                dst[2 * j] += gi * delta.0;
                dst[2 * j + 1] += gi * delta.1;
            }
        }
    };
    match rows.as_slice() {
        Some(rows) => pool.for_listed_rows(
            grad.as_mut_slice(),
            d2.max(1),
            rows,
            32,
            |listed, first, window| {
                for &e in listed {
                    let e = e as usize;
                    let off = (e - first) * d2;
                    process(e, &mut window[off..off + d2.max(1)]);
                }
            },
        ),
        None => pool.for_rows(grad.as_mut_slice(), d2.max(1), 32, |first, chunk| {
            let rows_here = chunk.len() / d2.max(1);
            for local in 0..rows_here {
                let e = first + local;
                process(e, &mut chunk[local * d2..(local + 1) * d2]);
            }
        }),
    }
    sparse::metrics::add_flops(12 * (fwd.nnz() * half) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::incidence::{hrt, ht, TailSign};

    fn store_with(name: &str, t: Tensor) -> (ParamStore, ParamId) {
        let mut s = ParamStore::new();
        let id = s.add_param(name, t);
        (s, id)
    }

    #[test]
    fn gather_forward_and_backward() {
        let (mut store, emb) = store_with(
            "e",
            Tensor::from_rows(&[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        );
        let mut g = Graph::new();
        let x = g.gather(&store, emb, vec![2, 0, 2]);
        assert_eq!(g.value(x).row(0), &[5.0, 6.0]);
        assert_eq!(g.value(x).row(1), &[1.0, 2.0]);
        let loss = g.mean(x);
        g.backward(loss, &mut store);
        // d mean / d x = 1/6 per element; row 2 gathered twice.
        let grad = store.grad(emb);
        assert!((grad.get(0, 0) - 1.0 / 6.0).abs() < 1e-6);
        assert!((grad.get(1, 0) - 0.0).abs() < 1e-6);
        assert!((grad.get(2, 0) - 2.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn spmm_matches_gather_arithmetic() {
        // h + r - t via SpMM should equal the gather/add/sub path.
        let stacked = Tensor::from_rows(&[[1.0, 0.5], [2.0, -1.0], [0.25, 0.25]]); // e0,e1,r0
        let (mut store, emb) = store_with("emb", stacked);
        let pair = Arc::new(IncidencePair::new(
            hrt(2, 1, &[0], &[0], &[1], TailSign::Negative).unwrap(),
        ));
        let mut g = Graph::new();
        let expr = g.spmm(&store, emb, pair);
        assert_eq!(g.value(expr).row(0), &[1.0 + 0.25 - 2.0, 0.5 + 0.25 + 1.0]);
        let loss = g.mean(expr);
        g.backward(loss, &mut store);
        let grad = store.grad(emb);
        // d expr / d e0 = +1, e1 = -1, r0 = +1; mean scale 1/2 per column.
        assert!((grad.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((grad.get(1, 0) + 0.5).abs() < 1e-6);
        assert!((grad.get(2, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn spmm_and_gather_paths_agree_on_gradients() {
        let data = Tensor::from_rows(&[[0.3, -0.2], [1.5, 0.7], [-0.4, 0.9], [0.1, 0.2]]);
        // Entities 0..3, relation embedded separately in same stacked matrix:
        // treat row 3 as the single relation.
        let heads = vec![0u32, 1];
        let tails = vec![2u32, 0];
        let rels = vec![0u32, 0];

        // Sparse path.
        let (mut s1, p1) = store_with("emb", data.clone());
        let pair = Arc::new(IncidencePair::new(
            hrt(3, 1, &heads, &rels, &tails, TailSign::Negative).unwrap(),
        ));
        let mut g1 = Graph::new();
        let expr1 = g1.spmm(&s1, p1, pair);
        let n1 = g1.l2_norm_rows(expr1, 1e-9);
        let l1 = g1.mean(n1);
        g1.backward(l1, &mut s1);

        // Dense path.
        let (mut s2, p2) = store_with("emb", data);
        let mut g2 = Graph::new();
        let h = g2.gather(&s2, p2, heads.clone());
        let r = g2.gather(&s2, p2, rels.iter().map(|&x| x + 3).collect::<Vec<u32>>());
        let t = g2.gather(&s2, p2, tails.clone());
        let hr = g2.add(h, r);
        let expr2 = g2.sub(hr, t);
        let n2 = g2.l2_norm_rows(expr2, 1e-9);
        let l2 = g2.mean(n2);
        g2.backward(l2, &mut s2);

        assert!((g1.value(l1).get(0, 0) - g2.value(l2).get(0, 0)).abs() < 1e-6);
        for (a, b) in s1.grad(p1).as_slice().iter().zip(s2.grad(p2).as_slice()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn ht_spmm_is_head_minus_tail() {
        let (store, emb) = store_with("e", Tensor::from_rows(&[[1.0], [4.0], [9.0]]));
        let pair = Arc::new(IncidencePair::new(ht(3, &[2], &[0]).unwrap()));
        let mut g = Graph::new();
        let expr = g.spmm(&store, emb, pair);
        assert_eq!(g.value(expr).get(0, 0), 8.0);
    }

    #[test]
    fn margin_loss_forward_and_active_set() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let pos = g.input(Tensor::from_rows(&[[1.0], [5.0]]));
        let neg = g.input(Tensor::from_rows(&[[3.0], [5.2]]));
        // margin 0.5: row 0 -> 0.5 + 1 - 3 < 0 inactive; row 1 -> 0.5 + 5 - 5.2 = 0.3 active.
        let loss = g.margin_ranking_loss(pos, neg, 0.5);
        assert!((g.value(loss).get(0, 0) - 0.15).abs() < 1e-6);
        g.backward(loss, &mut store);
        let gp = g.grad(pos).unwrap();
        assert_eq!(gp.get(0, 0), 0.0);
        assert!((gp.get(1, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn transh_style_composition_runs() {
        // (h - t) + d_r - w (wᵀ(h-t)) through the tape.
        let (mut store, ent) = store_with(
            "ent",
            Tensor::from_rows(&[[0.5, 0.1], [0.2, -0.3], [0.9, 0.4]]),
        );
        let w = store.add_param("w", Tensor::from_rows(&[[0.6, 0.8]]));
        let d = store.add_param("d", Tensor::from_rows(&[[0.05, -0.02]]));
        let pair = Arc::new(IncidencePair::new(ht(3, &[0, 1], &[2, 0]).unwrap()));
        let mut g = Graph::new();
        let htv = g.spmm(&store, ent, pair);
        let wv = g.gather(&store, w, vec![0, 0]);
        let dv = g.gather(&store, d, vec![0, 0]);
        let dot = g.row_dot(wv, htv);
        let proj = g.scale_rows(wv, dot);
        let tmp = g.sub(htv, proj);
        let expr = g.add(tmp, dv);
        let score = g.l2_norm_rows(expr, 1e-9);
        let loss = g.mean(score);
        g.backward(loss, &mut store);
        assert!(store.grad(ent).frobenius_norm() > 0.0);
        assert!(store.grad(w).frobenius_norm() > 0.0);
        assert!(store.grad(d).frobenius_norm() > 0.0);
    }

    #[test]
    fn project_rows_forward() {
        let (store, _) = store_with("unused", Tensor::zeros(1, 1));
        let mut s = ParamStore::new();
        // One relation, projecting 2D -> 1D with matrix [2, 3].
        let mats = s.add_param("m", Tensor::from_rows(&[[2.0, 3.0]]));
        let mut g = Graph::new();
        let v = g.input(Tensor::from_rows(&[[1.0, 1.0], [0.5, -1.0]]));
        let p = g.project_rows(&s, mats, v, vec![0, 0], 1);
        assert_eq!(g.value(p).get(0, 0), 5.0);
        assert_eq!(g.value(p).get(1, 0), -2.0);
        drop(store);
    }

    #[test]
    fn torus_norms_are_wraparound() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[[0.25, 1.75]])); // fracs: 0.25, 0.75
        let l1 = g.torus_l1_rows(x);
        assert!((g.value(l1).get(0, 0) - 0.5).abs() < 1e-6); // 0.25 + 0.25
        let l2 = g.torus_l2_sq_rows(x);
        assert!((g.value(l2).get(0, 0) - 0.125).abs() < 1e-6); // 0.0625 * 2
    }

    #[test]
    fn scatter_add_rows_handles_duplicates() {
        let mut dst = Tensor::zeros(4, 2);
        let src = Tensor::from_rows(&[[1.0, 1.0], [2.0, 2.0], [4.0, 4.0]]);
        scatter_add_rows(&mut dst, &[1, 1, 3], &src);
        assert_eq!(dst.row(1), &[3.0, 3.0]);
        assert_eq!(dst.row(3), &[4.0, 4.0]);
        assert_eq!(dst.row(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(2, 2));
        g.backward(x, &mut store);
    }

    /// One forward + backward pass of a TransE-shaped tape (SpMM, L2 norm,
    /// mean), returning the loss and parameter-gradient bits.
    fn tape_pass(g: &mut Graph, store: &mut ParamStore, p: ParamId) -> (u32, Vec<u32>) {
        let pair = Arc::new(IncidencePair::new(
            hrt(3, 1, &[0, 1], &[0, 0], &[2, 0], TailSign::Negative).unwrap(),
        ));
        let expr = g.spmm(store, p, pair);
        let n = g.l2_norm_rows(expr, 1e-9);
        let loss = g.mean(n);
        g.backward(loss, store);
        (
            g.value(loss).get(0, 0).to_bits(),
            store
                .grad(p)
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect(),
        )
    }

    #[test]
    fn reset_makes_repeat_passes_allocation_free_and_bit_identical() {
        let data = Tensor::from_rows(&[[0.3, -0.2], [1.5, 0.7], [-0.4, 0.9], [0.1, 0.2]]);
        let (mut store, p) = store_with("emb", data);
        let mut g = Graph::new();
        let first = tape_pass(&mut g, &mut store, p);

        g.reset();
        store.zero_grads();
        let misses = g.arena().misses();
        let second = tape_pass(&mut g, &mut store, p);
        // Every buffer request of the second pass is served by the arena
        // (misses are the only path that heap-allocates).
        assert_eq!(
            g.arena().misses(),
            misses,
            "steady-state pass must draw every buffer from the arena"
        );
        assert!(g.arena().hits() > 0);
        // Recycling swaps buffer identity, never arithmetic: bits match.
        assert_eq!(first, second);
    }

    #[test]
    fn reset_reclaims_every_node_buffer() {
        let (mut store, p) = store_with("emb", Tensor::from_rows(&[[1.0, 2.0], [3.0, 4.0]]));
        let mut g = Graph::new();
        let x = g.gather(&store, p, vec![0, 1, 0]);
        let n = g.l2_norm_rows(x, 1e-9);
        let loss = g.mean(n);
        g.backward(loss, &mut store);
        assert!(
            g.arena().pooled_buffers() > 0,
            "backward temporaries recycle"
        );
        let nodes = g.len();
        g.reset();
        assert!(g.is_empty());
        // At least one value and one grad buffer per node went back.
        assert!(g.arena().pooled_buffers() >= nodes);
        assert!(g.arena().held_bytes() > 0);
    }

    /// The row scores the removed fused gather+distance kernel supported,
    /// with that kernel's arithmetic kept as a serial reference for the
    /// `spmm` + norm pipeline that replaced it. Every element of the SpMM
    /// output is recomputed from its incidence row with `spmm_row`'s
    /// 1/2/3-nonzero association, and the backward recomputes it once per
    /// incident batch row. The pipeline must match it bit for bit.
    #[derive(Debug, Clone, Copy)]
    enum FusedRef {
        L1,
        L2 { eps: f32 },
        SquaredL2,
        TorusL1,
        TorusL2Sq,
    }

    const ALL_SCORES: [FusedRef; 5] = [
        FusedRef::L1,
        FusedRef::L2 { eps: 1e-9 },
        FusedRef::SquaredL2,
        FusedRef::TorusL1,
        FusedRef::TorusL2Sq,
    ];

    impl FusedRef {
        /// The tape's norm op for this score.
        fn apply(self, g: &mut Graph, x: Var) -> Var {
            match self {
                FusedRef::L1 => g.l1_norm_rows(x),
                FusedRef::L2 { eps } => g.l2_norm_rows(x, eps),
                FusedRef::SquaredL2 => g.squared_l2_norm_rows(x),
                FusedRef::TorusL1 => g.torus_l1_rows(x),
                FusedRef::TorusL2Sq => g.torus_l2_sq_rows(x),
            }
        }

        fn term(self, x: f32) -> f32 {
            match self {
                FusedRef::L1 => x.abs(),
                FusedRef::L2 { .. } | FusedRef::SquaredL2 => x * x,
                FusedRef::TorusL1 => {
                    let f = x - x.floor();
                    f.min(1.0 - f)
                }
                FusedRef::TorusL2Sq => {
                    let f = x - x.floor();
                    let d = f.min(1.0 - f);
                    d * d
                }
            }
        }

        /// `seed · ∂score/∂x` for one element of batch row `i`.
        fn grad_term(self, x: f32, seed: f32, score: f32) -> f32 {
            match self {
                FusedRef::L1 => seed * x.signum(),
                FusedRef::L2 { eps } => seed * x / score.max(eps),
                FusedRef::SquaredL2 => seed * (2.0 * x),
                FusedRef::TorusL1 => {
                    let f = x - x.floor();
                    seed * if f <= 0.5 { 1.0 } else { -1.0 }
                }
                FusedRef::TorusL2Sq => {
                    let f = x - x.floor();
                    seed * if f <= 0.5 { 2.0 * f } else { -2.0 * (1.0 - f) }
                }
            }
        }

        /// Element `(i, j)` of `A · table`.
        fn elem(a: &sparse::CsrMatrix, table: &[f32], n: usize, i: usize, j: usize) -> f32 {
            let (s, e) = (a.indptr()[i] as usize, a.indptr()[i + 1] as usize);
            let (cols, vals) = (&a.indices()[s..e], &a.values()[s..e]);
            let b = |k: usize| table[cols[k] as usize * n + j];
            match cols.len() {
                0 => 0.0,
                1 => vals[0] * b(0),
                2 => vals[0] * b(0) + vals[1] * b(1),
                3 => vals[0] * b(0) + vals[1] * b(1) + vals[2] * b(2),
                _ => (0..cols.len()).fold(0.0f32, |acc, k| acc + vals[k] * b(k)),
            }
        }

        /// The score of every batch row of `pair`.
        fn forward(self, pair: &IncidencePair, table: &Tensor) -> Vec<f32> {
            let a = &pair.forward;
            let n = table.cols();
            (0..a.rows())
                .map(|i| {
                    let acc = (0..n)
                        .map(|j| self.term(Self::elem(a, table.as_slice(), n, i, j)))
                        .sum::<f32>();
                    match self {
                        FusedRef::L2 { .. } => acc.sqrt(),
                        _ => acc,
                    }
                })
                .collect()
        }

        /// Adds the gradient of `Σ_i seed_i · score_i` into `grad`, one
        /// parameter row at a time over its incident batch rows.
        fn backward(
            self,
            pair: &IncidencePair,
            table: &Tensor,
            scores: &[f32],
            seed: &[f32],
            grad: &mut [f32],
        ) {
            let n = table.cols();
            for e in 0..table.rows() {
                for (i, aval) in pair.transpose.row(e) {
                    for j in 0..n {
                        let x = Self::elem(&pair.forward, table.as_slice(), n, i, j);
                        grad[e * n + j] += aval * (0.0 + self.grad_term(x, seed[i], scores[i]));
                    }
                }
            }
        }
    }

    /// The margin-loss backward seeds written directly, as the removed
    /// fused loss seed did: `+1/m` on the positive and `−1/m` on the
    /// negative score of every active row, `0` elsewhere, each through
    /// the accumulate's `0.0 + …`.
    fn margin_seeds(pos: &[f32], neg: &[f32], margin: f32) -> (Vec<f32>, Vec<f32>) {
        let gscale = 1.0 / pos.len() as f32;
        pos.iter()
            .zip(neg)
            .map(|(&p, &n)| {
                if margin + p - n > 0.0 {
                    (0.0 + gscale, 0.0 + (-gscale))
                } else {
                    (0.0, 0.0)
                }
            })
            .unzip()
    }

    fn margin_loss_ref(pos: &[f32], neg: &[f32], margin: f32) -> f32 {
        let acc = pos.iter().zip(neg).fold(0.0f64, |acc, (&p, &n)| {
            acc + f64::from((margin + p - n).max(0.0))
        });
        (acc / pos.len() as f64) as f32
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_spmm_score_matches_unfused_bitwise() {
        let data = Tensor::from_rows(&[
            [0.3, -0.2, 1.1],
            [1.5, 0.7, -0.6],
            [-0.4, 0.9, 0.2],
            [0.1, 0.2, -1.3],
            [0.8, -0.5, 0.4],
        ]);
        // Entities 0..4 with relation rows folded in; duplicate heads/tails
        // exercise gradient accumulation order.
        let pos = Arc::new(IncidencePair::new(
            hrt(4, 1, &[0, 1, 0], &[0, 0, 0], &[2, 0, 3], TailSign::Negative).unwrap(),
        ));
        let neg = Arc::new(IncidencePair::new(
            hrt(4, 1, &[3, 1, 2], &[0, 0, 0], &[1, 2, 0], TailSign::Negative).unwrap(),
        ));
        for score in ALL_SCORES {
            let (mut store, p) = store_with("emb", data.clone());
            let mut g = Graph::new();
            let xp = g.spmm(&store, p, pos.clone());
            let sp = score.apply(&mut g, xp);
            let xn = g.spmm(&store, p, neg.clone());
            let sn = score.apply(&mut g, xn);
            let loss = g.margin_ranking_loss(sp, sn, 1.0);
            g.backward(loss, &mut store);

            let ref_pos = score.forward(&pos, &data);
            let ref_neg = score.forward(&neg, &data);
            assert_eq!(bits(g.value(sp).as_slice()), bits(&ref_pos), "{score:?}");
            assert_eq!(bits(g.value(sn).as_slice()), bits(&ref_neg), "{score:?}");
            assert_eq!(
                g.value(loss).get(0, 0).to_bits(),
                margin_loss_ref(&ref_pos, &ref_neg, 1.0).to_bits(),
                "{score:?}"
            );
            // The tape runs the negative SpMM's backward first.
            let (seed_p, seed_n) = margin_seeds(&ref_pos, &ref_neg, 1.0);
            let mut grad = vec![0.0f32; data.len()];
            score.backward(&neg, &data, &ref_neg, &seed_n, &mut grad);
            score.backward(&pos, &data, &ref_pos, &seed_p, &mut grad);
            assert_eq!(bits(store.grad(p).as_slice()), bits(&grad), "{score:?}");
        }
    }

    #[test]
    fn fused_spmm_score_matches_two_nonzero_rows() {
        // ht incidence (2 nonzeros per row) hits spmm_row's pair fast path.
        let data = Tensor::from_rows(&[[1.0, -0.5], [0.3, 0.8], [-1.2, 0.1]]);
        let pair = Arc::new(IncidencePair::new(ht(3, &[0, 2, 1], &[1, 0, 2]).unwrap()));
        for score in ALL_SCORES {
            let (mut store, p) = store_with("emb", data.clone());
            let mut g = Graph::new();
            let x = g.spmm(&store, p, pair.clone());
            let s = score.apply(&mut g, x);
            let loss = g.mean(s);
            g.backward(loss, &mut store);

            let ref_scores = score.forward(&pair, &data);
            assert_eq!(bits(g.value(s).as_slice()), bits(&ref_scores), "{score:?}");
            let seed = vec![1.0 / ref_scores.len() as f32; ref_scores.len()];
            let mut grad = vec![0.0f32; data.len()];
            score.backward(&pair, &data, &ref_scores, &seed, &mut grad);
            assert_eq!(bits(store.grad(p).as_slice()), bits(&grad), "{score:?}");
        }
    }

    #[test]
    fn fused_margin_loss_seed_matches_accumulated_path() {
        // Gather-based tape: the accumulated margin-loss backward must
        // write exactly the direct seeds, and the parameter gradient must
        // follow from them through the L2 and gather backwards.
        let data = Tensor::from_rows(&[[0.4, -0.7], [1.1, 0.2], [-0.3, 0.9]]);
        let (idx_p, idx_n) = (vec![0u32, 1, 2], vec![2u32, 0, 1]);
        let (mut store, p) = store_with("emb", data.clone());
        let mut g = Graph::new();
        let hp = g.gather(&store, p, idx_p.clone());
        let hn = g.gather(&store, p, idx_n.clone());
        let np = g.l2_norm_rows(hp, 1e-9);
        let nn = g.l2_norm_rows(hn, 1e-9);
        let loss = g.margin_ranking_loss(np, nn, 0.5);
        g.backward(loss, &mut store);

        let norm = |r: u32| {
            data.row(r as usize)
                .iter()
                .map(|x| x * x)
                .sum::<f32>()
                .sqrt()
        };
        let ref_pos: Vec<f32> = idx_p.iter().map(|&r| norm(r)).collect();
        let ref_neg: Vec<f32> = idx_n.iter().map(|&r| norm(r)).collect();
        assert_eq!(
            g.value(loss).get(0, 0).to_bits(),
            margin_loss_ref(&ref_pos, &ref_neg, 0.5).to_bits()
        );
        let (seed_p, seed_n) = margin_seeds(&ref_pos, &ref_neg, 0.5);
        assert!(seed_p.iter().any(|&s| s != 0.0), "some row must be active");
        assert_eq!(bits(g.grad(np).unwrap().as_slice()), bits(&seed_p));
        assert_eq!(bits(g.grad(nn).unwrap().as_slice()), bits(&seed_n));

        // Gather backwards run negative first, in index-scan order.
        let n = data.cols();
        let mut grad = vec![0.0f32; data.len()];
        for (idx, scores, seed) in [(&idx_n, &ref_neg, &seed_n), (&idx_p, &ref_pos, &seed_p)] {
            for (i, &r) in idx.iter().enumerate() {
                for (j, &x) in data.row(r as usize).iter().enumerate() {
                    grad[r as usize * n + j] += 0.0 + seed[i] * x / scores[i].max(1e-9);
                }
            }
        }
        assert_eq!(bits(store.grad(p).as_slice()), bits(&grad));
    }

    #[test]
    fn fused_margin_loss_with_shared_operand_falls_back() {
        // pos == neg puts both seeds on one node: the accumulated backward
        // must sum them (to exactly +0.0 on every active row) instead of
        // one overwriting the other. The loss is degenerate: the margin.
        let mut store = ParamStore::new();
        let mut g = Graph::new();
        let s = g.input(Tensor::from_rows(&[[1.0], [2.0]]));
        let loss = g.margin_ranking_loss(s, s, 0.5);
        g.backward(loss, &mut store);
        assert_eq!(g.value(loss).get(0, 0).to_bits(), 0.5f32.to_bits());
        let (seed_p, seed_n) = margin_seeds(&[1.0, 2.0], &[1.0, 2.0], 0.5);
        let summed: Vec<f32> = seed_p.iter().zip(&seed_n).map(|(a, b)| a + b).collect();
        assert_eq!(bits(g.grad(s).unwrap().as_slice()), bits(&summed));
        assert_eq!(bits(&summed), bits(&[0.0, 0.0]));
    }
}
