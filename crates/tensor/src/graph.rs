//! The eager autodiff tape.
//!
//! Every op computes its value immediately and records its inputs; the
//! reverse pass walks nodes in descending id order (a valid reverse
//! topological order because inputs always precede outputs).

use std::sync::Arc;

use gqa_simd::{gather_stride_f32, matmul_acc_f32, matmul_nt_f32, matmul_tn_f32};

use crate::backend::{UnaryBackend, UnaryKind};
use crate::decode::KvCache;
use crate::fused::{self, AttentionSaved, LayerNormSaved, SoftmaxSaved};
use crate::pool::BufferPool;
use crate::tensor_impl::{ParamId, ParamStore, Tensor};

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Execution mode of a [`Graph`] tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Record everything [`Graph::backward`] needs (the default).
    Train,
    /// Forward-only: nodes record no backward metadata, fused drivers
    /// skip saved-state `Arc` materialization, and no gradient slots are
    /// kept. Forward values are bit-identical to [`EvalMode::Train`];
    /// [`Graph::backward`] panics.
    Inference,
}

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Add(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Scale(NodeId, f32),
    AddScalar(NodeId, f32),
    AddBiasLast(NodeId, NodeId),
    AddBiasChannel(NodeId, NodeId),
    Unary(NodeId, UnaryKind),
    Matmul(NodeId, NodeId),
    BatchMatmul(NodeId, NodeId),
    TransposeLast2(NodeId),
    Reshape(NodeId),
    RowMaxSubDetach(NodeId),
    RowSum(NodeId),
    RowMean(NodeId),
    MulRow(NodeId, NodeId),
    SubRow(NodeId, NodeId),
    Conv2d {
        x: NodeId,
        w: NodeId,
        stride: usize,
        pad: usize,
        groups: usize,
    },
    UpsampleNearest(NodeId, usize),
    ConcatChannels(Vec<NodeId>),
    CrossEntropy {
        logits: NodeId,
        targets: Vec<u32>,
        ignore: u32,
    },
    MseLoss(NodeId, NodeId),
    MeanAll(NodeId),
    FusedSoftmax {
        x: NodeId,
        saved: Arc<SoftmaxSaved>,
    },
    FusedLayerNorm {
        x: NodeId,
        gamma: Option<NodeId>,
        beta: Option<NodeId>,
        saved: Arc<LayerNormSaved>,
    },
    FusedAttention {
        q: NodeId,
        k: NodeId,
        v: NodeId,
        scale: f32,
        saved: Arc<AttentionSaved>,
    },
    /// Inference-mode node: value only, no backward metadata. Every node
    /// pushed on an [`EvalMode::Inference`] tape is recorded as this.
    Detached,
}

struct Node {
    op: Op,
    /// `None` once a [`Graph::scope`] has released the node.
    value: Option<Tensor>,
    param: Option<ParamId>,
}

/// The tape's nodes, in creation order. Every read of a node's value goes
/// through [`Nodes::value`], so a node a scope released fails loudly
/// instead of reading as empty data.
struct Nodes(Vec<Node>);

impl Nodes {
    fn value(&self, id: NodeId) -> &Tensor {
        match &self.0[id.0].value {
            Some(t) => t,
            None => panic!("{id:?} was released by Graph::scope; its value is gone"),
        }
    }
}

/// An eager reverse-mode autodiff tape bound to a [`UnaryBackend`].
///
/// Every op's output tensor (and the fused drivers' staging buffers) is
/// drawn from an internal [`BufferPool`]; [`Graph::recycle`] harvests a
/// finished tape's buffers so the next graph reuses them instead of
/// hitting the allocator.
pub struct Graph<'b> {
    backend: &'b dyn UnaryBackend,
    nodes: Nodes,
    grads: Vec<Option<Vec<f32>>>,
    pool: BufferPool,
    mode: EvalMode,
}

impl std::fmt::Debug for Graph<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.nodes.0.len())
            .field("mode", &self.mode)
            .finish()
    }
}

impl<'b> Graph<'b> {
    /// New empty training tape using `backend` for the non-linear unaries.
    #[must_use]
    pub fn new(backend: &'b dyn UnaryBackend) -> Self {
        Self::with_mode(backend, EvalMode::Train, BufferPool::new())
    }

    /// New forward-only tape: same values bit for bit as a training tape,
    /// but no saved state, no gradient slots, and [`Graph::backward`]
    /// panics. Shorthand for [`Graph::with_mode`] with
    /// [`EvalMode::Inference`].
    #[must_use]
    pub fn new_inference(backend: &'b dyn UnaryBackend) -> Self {
        Self::with_mode(backend, EvalMode::Inference, BufferPool::new())
    }

    /// New empty tape with an explicit mode and a (possibly pre-warmed)
    /// buffer pool — pass the pool a previous [`Graph::recycle`] returned
    /// to run the forward without fresh allocations.
    #[must_use]
    pub fn with_mode(backend: &'b dyn UnaryBackend, mode: EvalMode, pool: BufferPool) -> Self {
        Self {
            backend,
            nodes: Nodes(Vec::new()),
            grads: Vec::new(),
            pool,
            mode,
        }
    }

    /// The tape's execution mode.
    #[must_use]
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    fn training(&self) -> bool {
        self.mode == EvalMode::Train
    }

    /// Tears the tape down, harvesting every node's value buffer and any
    /// gradient buffers into the returned pool. Feed it to the next
    /// [`Graph::with_mode`] and that graph's forward allocates (almost)
    /// nothing.
    #[must_use]
    pub fn recycle(self) -> BufferPool {
        let mut pool = self.pool;
        for t in self.nodes.0.into_iter().filter_map(|n| n.value) {
            pool.put(t.data);
        }
        for g in self.grads.into_iter().flatten() {
            pool.put(g);
        }
        pool
    }

    fn push(&mut self, op: Op, value: Tensor, param: Option<ParamId>) -> NodeId {
        let value = Some(value);
        if self.training() {
            self.nodes.0.push(Node { op, value, param });
            self.grads.push(None);
        } else {
            // Inference: drop backward metadata (op descriptors can carry
            // target vectors / node-id lists) and keep no gradient slot.
            self.nodes.0.push(Node {
                op: Op::Detached,
                value,
                param,
            });
        }
        NodeId(self.nodes.0.len() - 1)
    }

    /// The value computed at `id`.
    ///
    /// # Panics
    ///
    /// Panics if a [`Graph::scope`] has released `id`.
    #[must_use]
    pub fn value(&self, id: NodeId) -> &Tensor {
        self.nodes.value(id)
    }

    /// The gradient at `id` (after [`Graph::backward`]); `None` if the node
    /// did not influence the loss (always `None` on inference tapes).
    #[must_use]
    pub fn grad(&self, id: NodeId) -> Option<&[f32]> {
        self.grads.get(id.0).and_then(|g| g.as_deref())
    }

    /// Number of nodes on the tape.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.0.len()
    }

    /// Whether the tape is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.0.is_empty()
    }

    /// Runs `f`, one stretch of a forward, and returns the node it
    /// returns.
    ///
    /// On an [`EvalMode::Inference`] tape the scope then **releases**
    /// every other node `f` created: each buffer goes back to the tape's
    /// [`BufferPool`] at once, so the ops after the scope reuse it instead
    /// of the forward holding every intermediate until
    /// [`Graph::recycle`]. Nodes created before the scope are never
    /// released by it, so a scope that returns such a node releases
    /// everything made inside it. Scopes nest: an outer scope releases an
    /// inner scope's result unless it returns that node itself.
    ///
    /// Reading a released node, through [`Graph::value`] or as an op's
    /// input, panics with the node's id; it never reads as empty data.
    ///
    /// On a training tape a scope is the identity, because
    /// [`Graph::backward`] needs every value.
    ///
    /// Scopes are bit-invisible: the same ops run in the same order, and
    /// no op sees a pooled buffer's stale contents ([`BufferPool::take`]
    /// zero-fills, and [`BufferPool::take_full`] serves only ops that
    /// overwrite every element).
    pub fn scope(&mut self, f: impl FnOnce(&mut Self) -> NodeId) -> NodeId {
        let start = self.nodes.0.len();
        let out = f(self);
        if !self.training() {
            for (i, node) in self.nodes.0.iter_mut().enumerate().skip(start) {
                if i != out.0 {
                    if let Some(t) = node.value.take() {
                        self.pool.put(t.data);
                    }
                }
            }
        }
        out
    }

    // ---- leaf constructors ----

    /// Records a constant input.
    pub fn input(&mut self, t: Tensor) -> NodeId {
        self.push(Op::Leaf, t, None)
    }

    /// Records a parameter read from the store (the gradient flows back to
    /// it via [`Graph::accumulate_grads`]).
    pub fn param(&mut self, ps: &ParamStore, id: ParamId) -> NodeId {
        self.push(Op::Leaf, ps.value(id).clone(), Some(id))
    }

    // ---- elementwise ----

    /// `a + b` (same shape).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ta, tb) = (self.nodes.value(a), self.nodes.value(b));
        assert_eq!(ta.shape, tb.shape, "add shape mismatch");
        let mut data = self.pool.take_full(ta.data.len());
        gqa_simd::add_f32(&ta.data, &tb.data, &mut data);
        let t = Tensor::from_vec(data, &ta.shape.clone());
        self.push(Op::Add(a, b), t, None)
    }

    /// `a ⊙ b` (same shape).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ta, tb) = (self.nodes.value(a), self.nodes.value(b));
        assert_eq!(ta.shape, tb.shape, "mul shape mismatch");
        let mut data = self.pool.take_full(ta.data.len());
        for ((o, &x), &y) in data.iter_mut().zip(&ta.data).zip(&tb.data) {
            *o = x * y;
        }
        let t = Tensor::from_vec(data, &ta.shape.clone());
        self.push(Op::Mul(a, b), t, None)
    }

    /// `c · x`.
    pub fn scale(&mut self, x: NodeId, c: f32) -> NodeId {
        let tx = self.nodes.value(x);
        let mut data = self.pool.take_full(tx.data.len());
        gqa_simd::scale_f32(c, &tx.data, &mut data);
        let t = Tensor::from_vec(data, &tx.shape.clone());
        self.push(Op::Scale(x, c), t, None)
    }

    /// `x + c` elementwise.
    pub fn add_scalar(&mut self, x: NodeId, c: f32) -> NodeId {
        let tx = self.nodes.value(x);
        let mut data = self.pool.take_full(tx.data.len());
        gqa_simd::add_scalar_f32(c, &tx.data, &mut data);
        let t = Tensor::from_vec(data, &tx.shape.clone());
        self.push(Op::AddScalar(x, c), t, None)
    }

    /// `x + b` with `b` broadcast over the last dimension
    /// (`x: (…, C)`, `b: (C)`).
    ///
    /// # Panics
    ///
    /// Panics if `b` is not 1-D matching `x`'s last dimension.
    pub fn add_bias_last(&mut self, x: NodeId, b: NodeId) -> NodeId {
        let (tx, tb) = (self.nodes.value(x), self.nodes.value(b));
        let c = *tx.shape.last().expect("non-scalar");
        assert_eq!(tb.shape, vec![c], "bias must be ({c})");
        let mut data = self.pool.take_full(tx.data.len());
        for (orow, xrow) in data.chunks_exact_mut(c).zip(tx.data.chunks_exact(c)) {
            gqa_simd::add_f32(xrow, &tb.data, orow);
        }
        let t = Tensor::from_vec(data, &tx.shape.clone());
        self.push(Op::AddBiasLast(x, b), t, None)
    }

    /// `x + b` with `b` broadcast per channel (`x: (B, C, H, W)`, `b: (C)`).
    ///
    /// # Panics
    ///
    /// Panics unless `x` is 4-D and `b` is `(C)`.
    pub fn add_bias_channel(&mut self, x: NodeId, b: NodeId) -> NodeId {
        let (tx, tb) = (self.nodes.value(x), self.nodes.value(b));
        assert_eq!(tx.shape.len(), 4, "expected NCHW input");
        let (c, hw) = (tx.shape[1], tx.shape[2] * tx.shape[3]);
        assert_eq!(tb.shape, vec![c], "bias must be ({c})");
        let mut data = self.pool.take_full(tx.data.len());
        for (oimg, ximg) in data
            .chunks_exact_mut(c * hw)
            .zip(tx.data.chunks_exact(c * hw))
        {
            for (ci, (oplane, xplane)) in oimg
                .chunks_exact_mut(hw)
                .zip(ximg.chunks_exact(hw))
                .enumerate()
            {
                gqa_simd::add_scalar_f32(tb.data[ci], xplane, oplane);
            }
        }
        let t = Tensor::from_vec(data, &tx.shape.clone());
        self.push(Op::AddBiasChannel(x, b), t, None)
    }

    /// Applies a non-linear unary through the backend (the LUT hook).
    ///
    /// The whole tensor is handed to the backend in one
    /// [`UnaryBackend::eval_many_f32`] call: one virtual dispatch per
    /// tensor instead of one per element, and the tensor's native `f32`
    /// buffer goes straight to the backend — no whole-tensor `f64`
    /// round-trip. Backends that still evaluate in `f64` (the default)
    /// widen in stack-resident chunks, which is bit-identical to the old
    /// staging but keeps the working set in cache.
    pub fn unary(&mut self, x: NodeId, kind: UnaryKind) -> NodeId {
        let tx = self.nodes.value(x);
        let shape = tx.shape.clone();
        let mut data = self.pool.take_full(tx.data.len());
        self.backend.eval_many_f32(kind, &tx.data, &mut data);
        let t = Tensor::from_vec(data, &shape);
        self.push(Op::Unary(x, kind), t, None)
    }

    // ---- linear algebra ----

    /// 2-D matrix product `(m, k) × (k, n) → (m, n)`.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ta, tb) = (self.nodes.value(a), self.nodes.value(b));
        assert_eq!(ta.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(tb.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (ta.shape[0], ta.shape[1]);
        let (k2, n) = (tb.shape[0], tb.shape[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let mut out = self.pool.take(m * n);
        matmul_acc_f32(&ta.data, &tb.data, &mut out, m, k, n);
        self.push(Op::Matmul(a, b), Tensor::from_vec(out, &[m, n]), None)
    }

    /// Batched matrix product `(b, m, k) × (b, k, n) → (b, m, n)`.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatch.
    pub fn batch_matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ta, tb) = (self.nodes.value(a), self.nodes.value(b));
        assert_eq!(ta.shape.len(), 3, "batch_matmul lhs must be 3-D");
        assert_eq!(tb.shape.len(), 3, "batch_matmul rhs must be 3-D");
        let (bs, m, k) = (ta.shape[0], ta.shape[1], ta.shape[2]);
        assert_eq!(tb.shape[0], bs, "batch sizes differ");
        assert_eq!(tb.shape[1], k, "inner dimensions differ");
        let n = tb.shape[2];
        let mut out = self.pool.take(bs * m * n);
        for i in 0..bs {
            matmul_acc_f32(
                &ta.data[i * m * k..(i + 1) * m * k],
                &tb.data[i * k * n..(i + 1) * k * n],
                &mut out[i * m * n..(i + 1) * m * n],
                m,
                k,
                n,
            );
        }
        self.push(
            Op::BatchMatmul(a, b),
            Tensor::from_vec(out, &[bs, m, n]),
            None,
        )
    }

    /// Transposes the last two dimensions of a 3-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 3-D.
    pub fn transpose_last2(&mut self, x: NodeId) -> NodeId {
        let tx = self.nodes.value(x);
        assert_eq!(tx.shape.len(), 3, "transpose_last2 expects 3-D");
        let (b, m, n) = (tx.shape[0], tx.shape[1], tx.shape[2]);
        let mut out = self.pool.take_full(b * m * n);
        // Row `c` of the transpose is the stride-`n` column walk of the
        // source batch — the shared strided-gather primitive.
        for i in 0..b {
            let src = &tx.data[i * m * n..(i + 1) * m * n];
            for c in 0..n {
                gather_stride_f32(&src[c..], n, &mut out[i * m * n + c * m..][..m]);
            }
        }
        self.push(
            Op::TransposeLast2(x),
            Tensor::from_vec(out, &[b, n, m]),
            None,
        )
    }

    /// Reinterprets the shape (a copy; gradient passes through).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&mut self, x: NodeId, shape: &[usize]) -> NodeId {
        let tx = self.nodes.value(x);
        assert_eq!(
            tx.data.len(),
            shape.iter().product::<usize>(),
            "reshape element count mismatch"
        );
        let mut data = self.pool.take_full(tx.data.len());
        data.copy_from_slice(&tx.data);
        let t = Tensor::from_vec(data, shape);
        self.push(Op::Reshape(x), t, None)
    }

    // ---- row-wise ops (tensor viewed as (rows, last-dim)) ----

    /// `x − max(x)` per row with the max detached (the standard stable-
    /// softmax shift; gradient passes through the identity path only).
    ///
    /// The max is the pinned-order [`gqa_simd::max_f32`] reduction — the
    /// same kernel the fused [`Graph::softmax`] uses, which is what keeps
    /// fused ≡ unfused bit-exact.
    pub fn row_max_sub_detach(&mut self, x: NodeId) -> NodeId {
        let tx = self.nodes.value(x);
        let c = *tx.shape.last().expect("non-scalar");
        let mut data = self.pool.take_full(tx.data.len());
        for (row, orow) in tx.data.chunks_exact(c).zip(data.chunks_exact_mut(c)) {
            let m = gqa_simd::max_f32(row);
            gqa_simd::sub_scalar_f32(m, row, orow);
        }
        let t = Tensor::from_vec(data, &tx.shape.clone());
        self.push(Op::RowMaxSubDetach(x), t, None)
    }

    /// Per-row sum: `(…, C) → (rows, 1)` (pinned-order
    /// [`gqa_simd::sum_f32`] reduction, shared with the fused layer).
    pub fn row_sum(&mut self, x: NodeId) -> NodeId {
        let tx = self.nodes.value(x);
        let c = *tx.shape.last().expect("non-scalar");
        let rows = tx.len() / c;
        let mut data = self.pool.take_full(rows);
        for (o, row) in data.iter_mut().zip(tx.data.chunks(c)) {
            *o = gqa_simd::sum_f32(row);
        }
        self.push(Op::RowSum(x), Tensor::from_vec(data, &[rows, 1]), None)
    }

    /// Per-row mean: `(…, C) → (rows, 1)` (pinned-order sum, then one
    /// divide — the spelling the fused LayerNorm replays).
    pub fn row_mean(&mut self, x: NodeId) -> NodeId {
        let tx = self.nodes.value(x);
        let c = *tx.shape.last().expect("non-scalar");
        let rows = tx.len() / c;
        let mut data = self.pool.take_full(rows);
        for (o, row) in data.iter_mut().zip(tx.data.chunks(c)) {
            *o = gqa_simd::sum_f32(row) / c as f32;
        }
        self.push(Op::RowMean(x), Tensor::from_vec(data, &[rows, 1]), None)
    }

    /// `x ⊙ r` with `r: (rows, 1)` broadcast across each row of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `r`'s row count does not match.
    pub fn mul_row(&mut self, x: NodeId, r: NodeId) -> NodeId {
        let (tx, tr) = (self.nodes.value(x), self.nodes.value(r));
        let c = *tx.shape.last().expect("non-scalar");
        let rows = tx.len() / c;
        assert_eq!(tr.len(), rows, "row-vector length mismatch");
        let mut data = self.pool.take_full(tx.data.len());
        for (i, (row, orow)) in tx
            .data
            .chunks_exact(c)
            .zip(data.chunks_exact_mut(c))
            .enumerate()
        {
            gqa_simd::scale_f32(tr.data[i], row, orow);
        }
        let t = Tensor::from_vec(data, &tx.shape.clone());
        self.push(Op::MulRow(x, r), t, None)
    }

    /// `x − r` with `r: (rows, 1)` broadcast across each row.
    ///
    /// # Panics
    ///
    /// Panics if `r`'s row count does not match.
    pub fn sub_row(&mut self, x: NodeId, r: NodeId) -> NodeId {
        let (tx, tr) = (self.nodes.value(x), self.nodes.value(r));
        let c = *tx.shape.last().expect("non-scalar");
        let rows = tx.len() / c;
        assert_eq!(tr.len(), rows, "row-vector length mismatch");
        let mut data = self.pool.take_full(tx.data.len());
        for (i, (row, orow)) in tx
            .data
            .chunks_exact(c)
            .zip(data.chunks_exact_mut(c))
            .enumerate()
        {
            gqa_simd::sub_scalar_f32(tr.data[i], row, orow);
        }
        let t = Tensor::from_vec(data, &tx.shape.clone());
        self.push(Op::SubRow(x, r), t, None)
    }

    // ---- convolution & image ops ----

    /// 2-D convolution: `x: (B, Cin, H, W)`, `w: (Cout, Cin/groups, kh, kw)`,
    /// square stride/padding, grouped (set `groups = Cin = Cout` for
    /// depthwise).
    ///
    /// # Panics
    ///
    /// Panics on rank or divisibility violations.
    pub fn conv2d(
        &mut self,
        x: NodeId,
        w: NodeId,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> NodeId {
        let (tx, tw) = (self.nodes.value(x), self.nodes.value(w));
        let out_shape = conv2d_out_shape(tx, tw, stride, pad, groups);
        let mut out = self.pool.take(out_shape.iter().product());
        conv2d_forward(
            tx,
            tw,
            stride,
            pad,
            groups,
            &out_shape,
            &mut out,
            &mut self.pool,
        );
        self.push(
            Op::Conv2d {
                x,
                w,
                stride,
                pad,
                groups,
            },
            Tensor::from_vec(out, &out_shape),
            None,
        )
    }

    /// Nearest-neighbour upsampling by an integer factor on NCHW.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 4-D or `factor == 0`.
    pub fn upsample_nearest(&mut self, x: NodeId, factor: usize) -> NodeId {
        let tx = self.nodes.value(x);
        assert_eq!(tx.shape.len(), 4, "expected NCHW");
        assert!(factor >= 1, "factor must be >= 1");
        let (b, c, h, w) = (tx.shape[0], tx.shape[1], tx.shape[2], tx.shape[3]);
        let (oh, ow) = (h * factor, w * factor);
        let mut out = self.pool.take_full(b * c * oh * ow);
        // Pure replication: expand each source row once (each pixel
        // repeated `factor` times), then copy the expanded row for the
        // remaining `factor - 1` output rows — no per-element division.
        for bi in 0..b * c {
            let src = &tx.data[bi * h * w..(bi + 1) * h * w];
            let dst = &mut out[bi * oh * ow..(bi + 1) * oh * ow];
            for y in 0..h {
                let row0 = y * factor * ow;
                for (xx, &v) in src[y * w..(y + 1) * w].iter().enumerate() {
                    dst[row0 + xx * factor..row0 + (xx + 1) * factor].fill(v);
                }
                for r in 1..factor {
                    dst.copy_within(row0..row0 + ow, row0 + r * ow);
                }
            }
        }
        self.push(
            Op::UpsampleNearest(x, factor),
            Tensor::from_vec(out, &[b, c, oh, ow]),
            None,
        )
    }

    /// Concatenates NCHW tensors along the channel axis.
    ///
    /// # Panics
    ///
    /// Panics if spatial/batch dims differ or the list is empty.
    pub fn concat_channels(&mut self, xs: &[NodeId]) -> NodeId {
        assert!(!xs.is_empty(), "concat of nothing");
        let shapes: Vec<Vec<usize>> = xs
            .iter()
            .map(|&id| self.nodes.value(id).shape.clone())
            .collect();
        let (b, h, w) = (shapes[0][0], shapes[0][2], shapes[0][3]);
        for s in &shapes {
            assert_eq!(s.len(), 4, "expected NCHW");
            assert_eq!((s[0], s[2], s[3]), (b, h, w), "concat spatial mismatch");
        }
        let c_total: usize = shapes.iter().map(|s| s[1]).sum();
        let mut out = self.pool.take_full(b * c_total * h * w);
        for bi in 0..b {
            let mut c_off = 0usize;
            for (&id, s) in xs.iter().zip(&shapes) {
                let c = s[1];
                let src = &self.nodes.value(id).data[bi * c * h * w..(bi + 1) * c * h * w];
                let dst_start = bi * c_total * h * w + c_off * h * w;
                out[dst_start..dst_start + c * h * w].copy_from_slice(src);
                c_off += c;
            }
        }
        self.push(
            Op::ConcatChannels(xs.to_vec()),
            Tensor::from_vec(out, &[b, c_total, h, w]),
            None,
        )
    }

    // ---- losses ----

    /// Pixel-wise cross-entropy over NCHW logits with `(B·H·W)` class
    /// targets; targets equal to `ignore` are skipped. Returns a scalar.
    ///
    /// # Panics
    ///
    /// Panics if target length ≠ B·H·W or every pixel is ignored.
    pub fn cross_entropy_nchw(&mut self, logits: NodeId, targets: &[u32], ignore: u32) -> NodeId {
        let tl = self.nodes.value(logits);
        assert_eq!(tl.shape.len(), 4, "expected NCHW logits");
        let (b, c, h, w) = (tl.shape[0], tl.shape[1], tl.shape[2], tl.shape[3]);
        assert_eq!(targets.len(), b * h * w, "target count mismatch");
        let mut loss = 0.0f64;
        let mut count = 0usize;
        for bi in 0..b {
            for y in 0..h {
                for xx in 0..w {
                    let t = targets[bi * h * w + y * w + xx];
                    if t == ignore {
                        continue;
                    }
                    assert!((t as usize) < c, "target class {t} out of range");
                    let (lse, _) = logsumexp_pixel(tl, bi, y, xx, c, h, w);
                    let logit_t = tl.data[((bi * c + t as usize) * h + y) * w + xx] as f64;
                    loss += lse - logit_t;
                    count += 1;
                }
            }
        }
        assert!(count > 0, "all pixels ignored");
        let t = Tensor::from_vec(vec![(loss / count as f64) as f32], &[1]);
        self.push(
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                ignore,
            },
            t,
            None,
        )
    }

    /// Mean squared error between two same-shape tensors (scalar output).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mse_loss(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ta, tb) = (self.nodes.value(a), self.nodes.value(b));
        assert_eq!(ta.shape, tb.shape, "mse shape mismatch");
        let n = ta.len() as f64;
        let loss: f64 = ta
            .data
            .iter()
            .zip(&tb.data)
            .map(|(&x, &y)| ((x - y) as f64).powi(2))
            .sum::<f64>()
            / n;
        self.push(
            Op::MseLoss(a, b),
            Tensor::from_vec(vec![loss as f32], &[1]),
            None,
        )
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&mut self, x: NodeId) -> NodeId {
        let m = self.nodes.value(x).mean();
        self.push(Op::MeanAll(x), Tensor::from_vec(vec![m], &[1]), None)
    }

    // ---- composite helpers (assembled from hookable primitives) ----

    /// Numerically stable softmax over the last dimension, assembled from
    /// `row_max_sub_detach → exp → row_sum → recip → mul_row` so that EXP
    /// and DIV go through the backend (the paper's Softmax decomposition).
    ///
    /// This is the unfused **reference assembly**: five tape nodes and as
    /// many intermediate tensors. [`Graph::softmax`] computes the same
    /// values (bit for bit, forward and backward) as one fused node; this
    /// spelling remains the semantic ground truth the property suites
    /// compare against.
    pub fn softmax_rows(&mut self, x: NodeId) -> NodeId {
        let shifted = self.row_max_sub_detach(x);
        let e = self.unary(shifted, UnaryKind::Exp);
        let s = self.row_sum(e);
        let inv = self.unary(s, UnaryKind::Recip);
        self.mul_row(e, inv)
    }

    /// LayerNorm over the last dimension (no affine), assembled from
    /// hookable primitives: mean/variance reductions and an RSQRT unary.
    ///
    /// Unfused reference assembly for [`Graph::layer_norm`], kept as the
    /// ground truth of the fused-equivalence contract.
    pub fn layernorm_rows(&mut self, x: NodeId, eps: f32) -> NodeId {
        let mu = self.row_mean(x);
        let centered = self.sub_row(x, mu);
        let sq = self.mul(centered, centered);
        let var = self.row_mean(sq);
        let var_eps = self.add_scalar(var, eps);
        let inv_std = self.unary(var_eps, UnaryKind::Rsqrt);
        self.mul_row(centered, inv_std)
    }

    // ---- fused row operators ----

    /// Numerically stable softmax over the last dimension as **one fused
    /// node**: a single-sweep row kernel (pinned-order row max + shift,
    /// one whole-tensor EXP backend call, pinned-order row sums, one DIV
    /// backend call, deferred rescale) instead of the five-node
    /// [`Graph::softmax_rows`] assembly.
    ///
    /// Bit-identical to the unfused assembly — forward *and* backward —
    /// with any deterministic backend, the `simd` feature on or off, and
    /// under a hot-swap landing mid-node (both spellings make the same
    /// two tensor-level backend calls). Property-tested in
    /// `tests/fused_equivalence.rs`.
    pub fn softmax(&mut self, x: NodeId) -> NodeId {
        let save = self.training();
        let tx = self.nodes.value(x);
        let c = *tx.shape.last().expect("non-scalar");
        let shape = tx.shape.clone();
        let mut out = self.pool.take_full(tx.data.len());
        let saved = fused::softmax_rows_f32_pooled(
            self.backend,
            &tx.data,
            c,
            &mut out,
            &mut self.pool,
            save,
        );
        let t = Tensor::from_vec(out, &shape);
        match saved {
            Some(s) => self.push(
                Op::FusedSoftmax {
                    x,
                    saved: Arc::new(s),
                },
                t,
                None,
            ),
            None => self.push(Op::Detached, t, None),
        }
    }

    /// LayerNorm over the last dimension (no affine) as one fused node —
    /// the fused twin of [`Graph::layernorm_rows`], single-pass
    /// mean/variance in the pinned two-accumulator shape plus one RSQRT
    /// backend call. Bit-identical to the unfused assembly, forward and
    /// backward.
    pub fn layer_norm(&mut self, x: NodeId, eps: f32) -> NodeId {
        let save = self.training();
        let tx = self.nodes.value(x);
        let c = *tx.shape.last().expect("non-scalar");
        let shape = tx.shape.clone();
        let mut out = self.pool.take_full(tx.data.len());
        let saved = fused::layer_norm_rows_f32_pooled(
            self.backend,
            &tx.data,
            c,
            eps,
            None,
            &mut out,
            &mut self.pool,
            save,
        );
        let t = Tensor::from_vec(out, &shape);
        match saved {
            Some(s) => self.push(
                Op::FusedLayerNorm {
                    x,
                    gamma: None,
                    beta: None,
                    saved: Arc::new(s),
                },
                t,
                None,
            ),
            None => self.push(Op::Detached, t, None),
        }
    }

    /// LayerNorm fused with the per-column affine `γ ⊙ x̂ + β` — the fused
    /// twin of `nn::LayerNorm::apply`'s
    /// `layernorm_rows → tile_last(γ) → mul → add_bias_last(β)` assembly,
    /// bit-identical to it forward and backward (γ and β gradients
    /// included).
    ///
    /// # Panics
    ///
    /// Panics unless `gamma` and `beta` are 1-D nodes matching `x`'s last
    /// dimension.
    pub fn layer_norm_affine(
        &mut self,
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        eps: f32,
    ) -> NodeId {
        let tx = self.nodes.value(x);
        let c = *tx.shape.last().expect("non-scalar");
        let shape = tx.shape.clone();
        let (tg, tb) = (self.nodes.value(gamma), self.nodes.value(beta));
        assert_eq!(tg.shape, vec![c], "gamma must be ({c})");
        assert_eq!(tb.shape, vec![c], "beta must be ({c})");
        let save = self.training();
        let mut out = self.pool.take_full(tx.data.len());
        let saved = fused::layer_norm_rows_f32_pooled(
            self.backend,
            &tx.data,
            c,
            eps,
            Some((&tg.data, &tb.data)),
            &mut out,
            &mut self.pool,
            save,
        );
        let t = Tensor::from_vec(out, &shape);
        match saved {
            Some(s) => self.push(
                Op::FusedLayerNorm {
                    x,
                    gamma: Some(gamma),
                    beta: Some(beta),
                    saved: Arc::new(s),
                },
                t,
                None,
            ),
            None => self.push(Op::Detached, t, None),
        }
    }

    /// `x + y` followed by the affine LayerNorm of the sum, as one fused
    /// driver pass ([`fused::residual_layer_norm_rows_f32_pooled`])
    /// producing **two** tape nodes `(sum, normed)` — the pre-norm
    /// transformer residual pattern, where the sum feeds the next
    /// residual and the normed value feeds the sub-block.
    ///
    /// Bit-identical to `g.add(x, y)` followed by
    /// [`Graph::layer_norm_affine`] — forward and backward — because the
    /// recorded nodes *are* that pair (an `Add` node carrying the sum and
    /// a fused-LayerNorm node referencing it); only the forward compute
    /// is done in one pass per row.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or non-`(C)` affine nodes.
    pub fn residual_layer_norm_affine(
        &mut self,
        x: NodeId,
        y: NodeId,
        gamma: NodeId,
        beta: NodeId,
        eps: f32,
    ) -> (NodeId, NodeId) {
        let save = self.training();
        let (tx, ty) = (self.nodes.value(x), self.nodes.value(y));
        assert_eq!(tx.shape, ty.shape, "residual shape mismatch");
        let c = *tx.shape.last().expect("non-scalar");
        let shape = tx.shape.clone();
        let (tg, tb) = (self.nodes.value(gamma), self.nodes.value(beta));
        assert_eq!(tg.shape, vec![c], "gamma must be ({c})");
        assert_eq!(tb.shape, vec![c], "beta must be ({c})");
        let mut sum = self.pool.take_full(tx.data.len());
        let mut out = self.pool.take_full(tx.data.len());
        let saved = fused::residual_layer_norm_rows_f32_pooled(
            self.backend,
            &tx.data,
            &ty.data,
            c,
            eps,
            Some((&tg.data, &tb.data)),
            &mut sum,
            &mut out,
            &mut self.pool,
            save,
        );
        let sum_id = self.push(Op::Add(x, y), Tensor::from_vec(sum, &shape), None);
        let t = Tensor::from_vec(out, &shape);
        let out_id = match saved {
            Some(s) => self.push(
                Op::FusedLayerNorm {
                    x: sum_id,
                    gamma: Some(gamma),
                    beta: Some(beta),
                    saved: Arc::new(s),
                },
                t,
                None,
            ),
            None => self.push(Op::Detached, t, None),
        };
        (sum_id, out_id)
    }

    /// Fused scaled-dot-product attention
    /// `softmax(scale · q·kᵀ) · v` over `(B, Nq, C)` queries and
    /// `(B, Nk, C)` keys/values, as **one tape node**.
    ///
    /// The score matrix and kᵀ live in pooled scratch instead of becoming
    /// tape nodes, but every stage replays the unfused assembly's exact
    /// kernels — shared matmul loops, pinned-order row reductions, and
    /// exactly one whole-tensor EXP plus one DIV [`UnaryBackend`] call
    /// for the softmax (so LUT datapaths and hot swaps behave identically
    /// inside the node). Bit-identical to
    /// [`Graph::attention_unfused`], forward *and* backward; the backward
    /// pass replays the unfused reverse traversal node for node,
    /// accumulating into `v`, then `q`, then `k` — the order the unfused
    /// tape's descending-id walk produces.
    ///
    /// # Panics
    ///
    /// Panics unless `q: (B, Nq, C)`, `k: (B, Nk, C)`, `v: (B, Nk, C)`.
    pub fn attention(&mut self, q: NodeId, k: NodeId, v: NodeId, scale: f32) -> NodeId {
        let save = self.training();
        let (tq, tk, tv) = (
            self.nodes.value(q),
            self.nodes.value(k),
            self.nodes.value(v),
        );
        assert_eq!(tq.shape.len(), 3, "attention q must be (B, Nq, C)");
        assert_eq!(tk.shape.len(), 3, "attention k must be (B, Nk, C)");
        assert_eq!(tv.shape.len(), 3, "attention v must be (B, Nk, C)");
        let (bsz, nq, c) = (tq.shape[0], tq.shape[1], tq.shape[2]);
        let nk = tk.shape[1];
        assert_eq!(tk.shape, vec![bsz, nk, c], "attention k shape mismatch");
        assert_eq!(tv.shape, vec![bsz, nk, c], "attention v shape mismatch");
        let mut out = self.pool.take_full(bsz * nq * c);
        let saved = fused::attention_rows_f32_pooled(
            self.backend,
            &tq.data,
            &tk.data,
            &tv.data,
            [bsz, nq, nk, c],
            scale,
            &mut out,
            &mut self.pool,
            save,
        );
        let t = Tensor::from_vec(out, &[bsz, nq, c]);
        match saved {
            Some(s) => self.push(
                Op::FusedAttention {
                    q,
                    k,
                    v,
                    scale,
                    saved: Arc::new(s),
                },
                t,
                None,
            ),
            None => self.push(Op::Detached, t, None),
        }
    }

    /// The unfused **reference assembly** of [`Graph::attention`]:
    /// `transpose_last2 → batch_matmul → scale → softmax_rows →
    /// batch_matmul`, five-plus tape nodes with every intermediate
    /// materialized. Semantic ground truth of the attention fusion
    /// contract (the property suites compare fused against this spelling
    /// bit for bit).
    ///
    /// # Panics
    ///
    /// Panics on the same shape violations as [`Graph::attention`].
    pub fn attention_unfused(&mut self, q: NodeId, k: NodeId, v: NodeId, scale: f32) -> NodeId {
        let kt = self.transpose_last2(k);
        let scores = self.batch_matmul(q, kt);
        let scaled = self.scale(scores, scale);
        let attn = self.softmax_rows(scaled);
        self.batch_matmul(attn, v)
    }

    /// Incremental-decode attention: one query row against the cached
    /// prefix. `q: (1, C)`, the cache holds `len` appended k/v rows of
    /// width `C`; the output is `(1, C)`.
    ///
    /// **Prefix equivalence**: with the cache holding the k/v rows of
    /// tokens `0..=t`, the result is `to_bits`-identical to row `t` of
    /// [`Graph::attention`] over the whole `t+1`-token prefix. Both
    /// spellings run the same fused driver
    /// ([`fused::attention_rows_f32_pooled`]) — same strided-gather kᵀ
    /// staging and `matmul_acc_f32` reductions (per-element add order
    /// depends only on the query row and key column, never on the number
    /// of query rows sharing the call), and the same one-EXP-plus-one-DIV
    /// softmax stage shape (element-wise sweeps with chunk-seam
    /// invariance) — so LUT-served backends and mid-decode hot swaps
    /// behave identically in both. `tests/decode_equivalence.rs` pins the
    /// contract on exact and LUT backends.
    ///
    /// Decode nodes are **gradient-terminal**: the cached k/v rows are
    /// plain buffers, not tape nodes, so there is nothing for a backward
    /// pass to flow into — on a training tape the node is recorded as a
    /// leaf (like [`Graph::input`]), and on an inference tape as usual no
    /// backward metadata is kept.
    ///
    /// # Panics
    ///
    /// Panics unless `q` is `(1, C)` with `C == cache.dim()`, or if the
    /// cache is empty.
    pub fn attention_decode(&mut self, q: NodeId, cache: &KvCache, scale: f32) -> NodeId {
        let tq = self.nodes.value(q);
        assert_eq!(
            tq.shape.len(),
            2,
            "attention_decode q must be (1, C), got {:?}",
            tq.shape
        );
        assert_eq!(tq.shape[0], 1, "attention_decode takes one query row");
        let c = cache.dim();
        assert_eq!(tq.shape[1], c, "q width must match the cache dim");
        assert!(!cache.is_empty(), "decode against an empty KvCache");
        let len = cache.len();
        let mut out = self.pool.take_full(c);
        // save = false: no gradients can reach this node (see above), so
        // the backward state would be dead weight. The pooled driver is
        // bit-identical with save on or off.
        let _ = fused::attention_rows_f32_pooled(
            self.backend,
            &tq.data,
            cache.k(),
            cache.v(),
            [1, 1, len, c],
            scale,
            &mut out,
            &mut self.pool,
            false,
        );
        let t = Tensor::from_vec(out, &[1, c]);
        self.push(Op::Leaf, t, None)
    }

    /// Causal self-attention over `(T, C)` rows: row `t` attends rows
    /// `0..=t` only. This is the full-prefix spelling of KV-cached decode
    /// — row `t` is computed with *exactly* the call shape of
    /// [`Graph::attention_decode`] at step `t` (one fused-driver sweep
    /// over a `t+1`-row prefix), so the two are `to_bits`-identical by
    /// construction, backend for backend. Model-level prefix equivalence
    /// (`step ≡ last row of the causal forward`) rests on this node plus
    /// the row-wise pinned ordering of every other block op.
    ///
    /// Like [`Graph::attention_decode`] the node is gradient-terminal
    /// (recorded as a leaf on training tapes): it exists as the serving
    /// reference spelling, not a training op.
    ///
    /// # Panics
    ///
    /// Panics unless `q`, `k`, `v` are `(T, C)` with identical shapes.
    pub fn attention_causal(&mut self, q: NodeId, k: NodeId, v: NodeId, scale: f32) -> NodeId {
        let tq = self.nodes.value(q);
        let tk = self.nodes.value(k);
        let tv = self.nodes.value(v);
        assert_eq!(
            tq.shape.len(),
            2,
            "attention_causal takes (T, C) rows, got {:?}",
            tq.shape
        );
        assert_eq!(tq.shape, tk.shape, "q/k shape mismatch");
        assert_eq!(tq.shape, tv.shape, "q/v shape mismatch");
        let (t_len, c) = (tq.shape[0], tq.shape[1]);
        let mut out = self.pool.take_full(t_len * c);
        // One decode-shaped driver call per row: row t sweeps the
        // (t+1)-row prefix, exactly as attention_decode would.
        for t in 0..t_len {
            let (qd, kd, vd) = (
                &self.nodes.value(q).data,
                &self.nodes.value(k).data,
                &self.nodes.value(v).data,
            );
            let _ = fused::attention_rows_f32_pooled(
                self.backend,
                &qd[t * c..(t + 1) * c],
                &kd[..(t + 1) * c],
                &vd[..(t + 1) * c],
                [1, 1, t + 1, c],
                scale,
                &mut out[t * c..(t + 1) * c],
                &mut self.pool,
                false,
            );
        }
        let shape = [t_len, c];
        let t = Tensor::from_vec(out, &shape);
        self.push(Op::Leaf, t, None)
    }

    // ---- backward ----

    /// Runs the reverse pass from a scalar loss node.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor, or if the tape was
    /// built in [`EvalMode::Inference`] (inference tapes record no
    /// backward state).
    pub fn backward(&mut self, loss: NodeId) {
        assert!(
            self.training(),
            "backward() called on an EvalMode::Inference tape"
        );
        assert_eq!(self.nodes.value(loss).len(), 1, "loss must be scalar");
        for g in &mut self.grads {
            *g = None;
        }
        self.grads[loss.0] = Some(vec![1.0]);
        for i in (0..self.nodes.0.len()).rev() {
            let Some(dy) = self.grads[i].take() else {
                continue;
            };
            self.backprop_node(i, &dy);
            self.grads[i] = Some(dy);
        }
    }

    /// Adds each parameter node's gradient into the store (no-op on
    /// inference tapes, which hold no gradients).
    pub fn accumulate_grads(&self, ps: &mut ParamStore) {
        for (node, g) in self.nodes.0.iter().zip(&self.grads) {
            if let (Some(pid), Some(g)) = (node.param, g.as_ref()) {
                ps.accumulate(pid, g);
            }
        }
    }

    fn acc(&mut self, id: NodeId, delta: &[f32]) {
        let slot = &mut self.grads[id.0];
        match slot {
            Some(g) => {
                for (gi, &di) in g.iter_mut().zip(delta) {
                    *gi += di;
                }
            }
            None => *slot = Some(delta.to_vec()),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn backprop_node(&mut self, i: usize, dy: &[f32]) {
        // Clone the op descriptor (cheap) to decouple borrows.
        let op = self.nodes.0[i].op.clone();
        match op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                self.acc(a, dy);
                self.acc(b, dy);
            }
            Op::Mul(a, b) => {
                let da: Vec<f32> = dy
                    .iter()
                    .zip(&self.nodes.value(b).data)
                    .map(|(&d, &v)| d * v)
                    .collect();
                let db: Vec<f32> = dy
                    .iter()
                    .zip(&self.nodes.value(a).data)
                    .map(|(&d, &v)| d * v)
                    .collect();
                self.acc(a, &da);
                self.acc(b, &db);
            }
            Op::Scale(x, c) => {
                let dx: Vec<f32> = dy.iter().map(|&d| d * c).collect();
                self.acc(x, &dx);
            }
            Op::AddScalar(x, c) => {
                debug_assert!(c.is_finite());
                self.acc(x, dy);
            }
            Op::AddBiasLast(x, b) => {
                self.acc(x, dy);
                let c = self.nodes.value(b).len();
                // Column sums in flat order: for each column the adds land
                // row by row, ascending — the same per-element sequence as
                // a single flat `db[j % c] += dy[j]` walk, minus the
                // per-element div/mod.
                let mut db = vec![0.0f32; c];
                for drow in dy.chunks_exact(c) {
                    for (dbj, &d) in db.iter_mut().zip(drow) {
                        *dbj += d;
                    }
                }
                self.acc(b, &db);
            }
            Op::AddBiasChannel(x, b) => {
                self.acc(x, dy);
                let shape = self.nodes.value(x).shape.clone();
                let (c, hw) = (shape[1], shape[2] * shape[3]);
                // Per-channel plane sums in flat order (images ascending,
                // then ascending within each plane): identical add sequence
                // to `db[(j / hw) % c] += dy[j]`, minus the div/mod.
                let mut db = vec![0.0f32; c];
                for img in dy.chunks_exact(c * hw) {
                    for (dbj, plane) in db.iter_mut().zip(img.chunks_exact(hw)) {
                        for &d in plane {
                            *dbj += d;
                        }
                    }
                }
                self.acc(b, &db);
            }
            Op::Unary(x, kind) => {
                let dx: Vec<f32> = self
                    .nodes
                    .value(x)
                    .data
                    .iter()
                    .zip(dy)
                    .map(|(&v, &d)| d * kind.exact_derivative(v as f64) as f32)
                    .collect();
                self.acc(x, &dx);
            }
            Op::Matmul(a, b) => {
                let (ta, tb) = (self.nodes.value(a), self.nodes.value(b));
                let (m, k) = (ta.shape[0], ta.shape[1]);
                let n = tb.shape[1];
                // dA = dY · Bᵀ ; dB = Aᵀ · dY
                let mut da = vec![0.0f32; m * k];
                let mut db = vec![0.0f32; k * n];
                matmul_nt_f32(dy, &tb.data, &mut da, m, n, k);
                matmul_tn_f32(&ta.data, dy, &mut db, m, k, n);
                self.acc(a, &da);
                self.acc(b, &db);
            }
            Op::BatchMatmul(a, b) => {
                let (ta, tb) = (self.nodes.value(a), self.nodes.value(b));
                let (bs, m, k) = (ta.shape[0], ta.shape[1], ta.shape[2]);
                let n = tb.shape[2];
                let mut da = vec![0.0f32; bs * m * k];
                let mut db = vec![0.0f32; bs * k * n];
                for bi in 0..bs {
                    matmul_nt_f32(
                        &dy[bi * m * n..(bi + 1) * m * n],
                        &tb.data[bi * k * n..(bi + 1) * k * n],
                        &mut da[bi * m * k..(bi + 1) * m * k],
                        m,
                        n,
                        k,
                    );
                    matmul_tn_f32(
                        &ta.data[bi * m * k..(bi + 1) * m * k],
                        &dy[bi * m * n..(bi + 1) * m * n],
                        &mut db[bi * k * n..(bi + 1) * k * n],
                        m,
                        k,
                        n,
                    );
                }
                self.acc(a, &da);
                self.acc(b, &db);
            }
            Op::TransposeLast2(x) => {
                let shape = self.nodes.value(NodeId(i)).shape.clone(); // (b, n, m)
                let (b, n, m) = (shape[0], shape[1], shape[2]);
                let mut dx = vec![0.0f32; b * m * n];
                // The inverse transpose is the same strided gather with
                // the roles of the two trailing dims swapped.
                for bi in 0..b {
                    let src = &dy[bi * m * n..(bi + 1) * m * n];
                    for c in 0..m {
                        gather_stride_f32(&src[c..], m, &mut dx[bi * m * n + c * n..][..n]);
                    }
                }
                self.acc(x, &dx);
            }
            Op::Reshape(x) => self.acc(x, dy),
            Op::RowMaxSubDetach(x) => self.acc(x, dy),
            Op::RowSum(x) => {
                let c = *self.nodes.value(x).shape.last().expect("non-scalar");
                let mut dx = Vec::with_capacity(self.nodes.value(x).len());
                for &d in dy {
                    dx.extend(std::iter::repeat_n(d, c));
                }
                self.acc(x, &dx);
            }
            Op::RowMean(x) => {
                let c = *self.nodes.value(x).shape.last().expect("non-scalar");
                let inv = 1.0 / c as f32;
                let mut dx = Vec::with_capacity(self.nodes.value(x).len());
                for &d in dy {
                    dx.extend(std::iter::repeat_n(d * inv, c));
                }
                self.acc(x, &dx);
            }
            Op::MulRow(x, r) => {
                let tx = self.nodes.value(x);
                let c = *tx.shape.last().expect("non-scalar");
                let tr = self.nodes.value(r);
                let mut dx = vec![0.0f32; tx.len()];
                let mut dr = vec![0.0f32; tr.len()];
                for (row_idx, drow) in dy.chunks(c).enumerate() {
                    let f = tr.data[row_idx];
                    for (j, &d) in drow.iter().enumerate() {
                        dx[row_idx * c + j] = d * f;
                        dr[row_idx] += d * tx.data[row_idx * c + j];
                    }
                }
                self.acc(x, &dx);
                self.acc(r, &dr);
            }
            Op::SubRow(x, r) => {
                self.acc(x, dy);
                let c = *self.nodes.value(x).shape.last().expect("non-scalar");
                let dr: Vec<f32> = dy.chunks(c).map(|row| -row.iter().sum::<f32>()).collect();
                self.acc(r, &dr);
            }
            Op::Conv2d {
                x,
                w,
                stride,
                pad,
                groups,
            } => {
                let (dx, dw) = conv2d_backward(
                    self.nodes.value(x),
                    self.nodes.value(w),
                    dy,
                    &self.nodes.value(NodeId(i)).shape,
                    stride,
                    pad,
                    groups,
                );
                self.acc(x, &dx);
                self.acc(w, &dw);
            }
            Op::UpsampleNearest(x, factor) => {
                let xs = self.nodes.value(x).shape.clone();
                let (b, c, h, w) = (xs[0], xs[1], xs[2], xs[3]);
                let (oh, ow) = (h * factor, w * factor);
                let mut dx = vec![0.0f32; b * c * h * w];
                for bi in 0..b * c {
                    let dsrc = &dy[bi * oh * ow..(bi + 1) * oh * ow];
                    let ddst = &mut dx[bi * h * w..(bi + 1) * h * w];
                    for y in 0..oh {
                        for xx in 0..ow {
                            ddst[(y / factor) * w + (xx / factor)] += dsrc[y * ow + xx];
                        }
                    }
                }
                self.acc(x, &dx);
            }
            Op::ConcatChannels(xs) => {
                let out_shape = self.nodes.value(NodeId(i)).shape.clone();
                let (b, c_total, h, w) = (out_shape[0], out_shape[1], out_shape[2], out_shape[3]);
                let mut c_off = 0usize;
                for &id in &xs {
                    let c = self.nodes.value(id).shape[1];
                    let mut dx = vec![0.0f32; b * c * h * w];
                    for bi in 0..b {
                        let src_start = bi * c_total * h * w + c_off * h * w;
                        dx[bi * c * h * w..(bi + 1) * c * h * w]
                            .copy_from_slice(&dy[src_start..src_start + c * h * w]);
                    }
                    self.acc(id, &dx);
                    c_off += c;
                }
            }
            Op::CrossEntropy {
                logits,
                targets,
                ignore,
            } => {
                let tl = self.nodes.value(logits);
                let (b, c, h, w) = (tl.shape[0], tl.shape[1], tl.shape[2], tl.shape[3]);
                let count = targets.iter().filter(|&&t| t != ignore).count() as f32;
                let scale = dy[0] / count;
                let mut dx = vec![0.0f32; tl.len()];
                for bi in 0..b {
                    for y in 0..h {
                        for xx in 0..w {
                            let t = targets[bi * h * w + y * w + xx];
                            if t == ignore {
                                continue;
                            }
                            let (lse, maxv) = logsumexp_pixel(tl, bi, y, xx, c, h, w);
                            let denom = (lse - maxv).exp();
                            for cls in 0..c {
                                let idx = ((bi * c + cls) * h + y) * w + xx;
                                let p = ((tl.data[idx] as f64 - maxv).exp() / denom) as f32;
                                let onehot = if cls == t as usize { 1.0 } else { 0.0 };
                                dx[idx] += scale * (p - onehot);
                            }
                        }
                    }
                }
                self.acc(logits, &dx);
            }
            Op::MseLoss(a, b) => {
                let (ta, tb) = (self.nodes.value(a), self.nodes.value(b));
                let n = ta.len() as f32;
                let scale = dy[0] * 2.0 / n;
                let da: Vec<f32> = ta
                    .data
                    .iter()
                    .zip(&tb.data)
                    .map(|(&x, &y)| scale * (x - y))
                    .collect();
                let db: Vec<f32> = da.iter().map(|&d| -d).collect();
                self.acc(a, &da);
                self.acc(b, &db);
            }
            Op::MeanAll(x) => {
                let n = self.nodes.value(x).len();
                let dx = vec![dy[0] / n as f32; n];
                self.acc(x, &dx);
            }
            // The fused backward passes replay the unfused assemblies'
            // reverse passes node for node (same straight-through exact
            // derivatives, same accumulation order), so fused gradients
            // equal unfused gradients bit for bit.
            Op::FusedSoftmax { x, saved } => {
                let c = *self
                    .nodes
                    .value(NodeId(i))
                    .shape
                    .last()
                    .expect("non-scalar");
                let e = &saved.exp;
                let rows = e.len() / c.max(1);
                // mul_row(e, inv) backward: d_e = dy·inv[row], and the
                // reciprocal branch d_inv[row] = Σⱼ dy·e.
                let mut d_e = vec![0.0f32; e.len()];
                let mut d_inv = vec![0.0f32; rows];
                for (r, drow) in dy.chunks(c).enumerate() {
                    let f = saved.inv[r];
                    for (j, &d) in drow.iter().enumerate() {
                        d_e[r * c + j] = d * f;
                        d_inv[r] += d * e[r * c + j];
                    }
                }
                // unary(s, Recip) backward (s recomputed with the pinned
                // row sum over the saved exps), folded into row_sum's
                // broadcast back onto d_e.
                for r in 0..rows {
                    let s = gqa_simd::sum_f32(&e[r * c..(r + 1) * c]);
                    let d_s = d_inv[r] * UnaryKind::Recip.exact_derivative(f64::from(s)) as f32;
                    for v in &mut d_e[r * c..(r + 1) * c] {
                        *v += d_s;
                    }
                }
                // unary(shifted, Exp) backward; the shift is recomputed
                // from x with the same pinned row-max kernel the forward
                // used, so the straight-through derivative sees the exact
                // forward inputs. row_max_sub_detach passes dy through.
                let tx = self.nodes.value(x);
                let mut dx = vec![0.0f32; e.len()];
                for (r, row) in tx.data.chunks_exact(c).enumerate() {
                    let m = gqa_simd::max_f32(row);
                    for (j, &v) in row.iter().enumerate() {
                        dx[r * c + j] = d_e[r * c + j]
                            * UnaryKind::Exp.exact_derivative(f64::from(v - m)) as f32;
                    }
                }
                self.acc(x, &dx);
            }
            Op::FusedLayerNorm {
                x,
                gamma,
                beta,
                saved,
            } => {
                let c = *self
                    .nodes
                    .value(NodeId(i))
                    .shape
                    .last()
                    .expect("non-scalar");
                let centered = &saved.centered;
                let n = centered.len();
                let rows = n / c.max(1);
                // add_bias_last(β) backward: flat-order column sums.
                if let Some(b) = beta {
                    let mut db = vec![0.0f32; c];
                    for drow in dy.chunks_exact(c) {
                        for (dbj, &d) in db.iter_mut().zip(drow) {
                            *dbj += d;
                        }
                    }
                    self.acc(b, &db);
                }
                // mul(normed, tiled γ) + tile_last backward: d_normed =
                // dy ⊙ γ, d_γ[j] = Σ_rows dy·normed in row-major order
                // (normed recomputed as centered·inv_std, the forward's
                // exact multiply).
                let d_normed = if let Some(gn) = gamma {
                    let gdata = self.nodes.value(gn).data.clone();
                    let mut dn = vec![0.0f32; n];
                    let mut dg = vec![0.0f32; c];
                    for r in 0..rows {
                        let f = saved.inv_std[r];
                        for j in 0..c {
                            let idx = r * c + j;
                            dn[idx] = dy[idx] * gdata[j];
                            dg[j] += dy[idx] * (centered[idx] * f);
                        }
                    }
                    self.acc(gn, &dg);
                    dn
                } else {
                    dy.to_vec()
                };
                // mul_row(centered, inv_std) backward.
                let mut d_centered = vec![0.0f32; n];
                let mut d_inv = vec![0.0f32; rows];
                for (r, di) in d_inv.iter_mut().enumerate() {
                    let f = saved.inv_std[r];
                    for j in 0..c {
                        let idx = r * c + j;
                        d_centered[idx] = d_normed[idx] * f;
                        *di += d_normed[idx] * centered[idx];
                    }
                }
                // unary(var+eps, Rsqrt) → add_scalar → row_mean(sq) →
                // mul(centered, centered): the square node accumulates
                // into `centered` twice, exactly like the unfused Mul
                // backward's two `acc` calls.
                let inv_c = 1.0 / c as f32;
                for (r, &di) in d_inv.iter().enumerate() {
                    let d_ve =
                        di * UnaryKind::Rsqrt.exact_derivative(f64::from(saved.var_eps[r])) as f32;
                    let d_sq = d_ve * inv_c;
                    for j in 0..c {
                        let idx = r * c + j;
                        let t = d_sq * centered[idx];
                        d_centered[idx] += t;
                        d_centered[idx] += t;
                    }
                }
                // sub_row(x, μ) backward: x takes d_centered directly …
                self.acc(x, &d_centered);
                // … and μ = row_mean(x) returns the negated row sums,
                // broadcast back over x scaled by 1/c.
                let mut d_x_mean = vec![0.0f32; n];
                for r in 0..rows {
                    let neg = -d_centered[r * c..(r + 1) * c].iter().sum::<f32>();
                    for v in &mut d_x_mean[r * c..(r + 1) * c] {
                        *v = neg * inv_c;
                    }
                }
                self.acc(x, &d_x_mean);
            }
            Op::FusedAttention {
                q,
                k,
                v,
                scale,
                saved,
            } => {
                let tq = self.nodes.value(q);
                let (bsz, nq, c) = (tq.shape[0], tq.shape[1], tq.shape[2]);
                let nk = self.nodes.value(k).shape[1];
                let rows = bsz * nq;
                // batch_matmul(attn, v) backward. The attention weights
                // are recomputed from the saved softmax state with the
                // same deferred-rescale kernel the forward used.
                let mut attn = vec![0.0f32; rows * nk];
                for r in 0..rows {
                    gqa_simd::scale_f32(
                        saved.inv[r],
                        &saved.exp[r * nk..(r + 1) * nk],
                        &mut attn[r * nk..(r + 1) * nk],
                    );
                }
                let mut d_attn = vec![0.0f32; rows * nk];
                let mut d_v = vec![0.0f32; bsz * nk * c];
                let tv = self.nodes.value(v);
                for bi in 0..bsz {
                    matmul_nt_f32(
                        &dy[bi * nq * c..(bi + 1) * nq * c],
                        &tv.data[bi * nk * c..(bi + 1) * nk * c],
                        &mut d_attn[bi * nq * nk..(bi + 1) * nq * nk],
                        nq,
                        c,
                        nk,
                    );
                    matmul_tn_f32(
                        &attn[bi * nq * nk..(bi + 1) * nq * nk],
                        &dy[bi * nq * c..(bi + 1) * nq * c],
                        &mut d_v[bi * nk * c..(bi + 1) * nk * c],
                        nq,
                        nk,
                        c,
                    );
                }
                self.acc(v, &d_v);
                // FusedSoftmax backward on the scaled scores, replayed
                // verbatim with `saved.scaled` as the stage input.
                let mut d_e = vec![0.0f32; rows * nk];
                let mut d_inv = vec![0.0f32; rows];
                for (r, drow) in d_attn.chunks(nk).enumerate() {
                    let f = saved.inv[r];
                    for (j, &d) in drow.iter().enumerate() {
                        d_e[r * nk + j] = d * f;
                        d_inv[r] += d * saved.exp[r * nk + j];
                    }
                }
                for r in 0..rows {
                    let s = gqa_simd::sum_f32(&saved.exp[r * nk..(r + 1) * nk]);
                    let d_s = d_inv[r] * UnaryKind::Recip.exact_derivative(f64::from(s)) as f32;
                    for g in &mut d_e[r * nk..(r + 1) * nk] {
                        *g += d_s;
                    }
                }
                let mut d_scores = vec![0.0f32; rows * nk];
                for (r, row) in saved.scaled.chunks_exact(nk).enumerate() {
                    let m = gqa_simd::max_f32(row);
                    for (j, &val) in row.iter().enumerate() {
                        d_scores[r * nk + j] = d_e[r * nk + j]
                            * UnaryKind::Exp.exact_derivative(f64::from(val - m)) as f32;
                    }
                }
                // scale backward.
                for d in &mut d_scores {
                    *d *= scale;
                }
                // batch_matmul(q, kᵀ) backward, with kᵀ recomputed.
                let tq = self.nodes.value(q);
                let tk = self.nodes.value(k);
                let mut kt = vec![0.0f32; bsz * c * nk];
                for bi in 0..bsz {
                    let src = &tk.data[bi * nk * c..(bi + 1) * nk * c];
                    let dst = &mut kt[bi * c * nk..(bi + 1) * c * nk];
                    for cc in 0..c {
                        gather_stride_f32(&src[cc..], c, &mut dst[cc * nk..][..nk]);
                    }
                }
                let mut d_q = vec![0.0f32; bsz * nq * c];
                let mut d_kt = vec![0.0f32; bsz * c * nk];
                for bi in 0..bsz {
                    matmul_nt_f32(
                        &d_scores[bi * nq * nk..(bi + 1) * nq * nk],
                        &kt[bi * c * nk..(bi + 1) * c * nk],
                        &mut d_q[bi * nq * c..(bi + 1) * nq * c],
                        nq,
                        nk,
                        c,
                    );
                    matmul_tn_f32(
                        &tq.data[bi * nq * c..(bi + 1) * nq * c],
                        &d_scores[bi * nq * nk..(bi + 1) * nq * nk],
                        &mut d_kt[bi * c * nk..(bi + 1) * c * nk],
                        nq,
                        c,
                        nk,
                    );
                }
                self.acc(q, &d_q);
                // transpose_last2(k) backward: route d_kᵀ back to k.
                // Row `j` of d_k is the stride-`nk` column walk of d_kᵀ
                // — the same strided gather as the forward transpose.
                let mut d_k = vec![0.0f32; bsz * nk * c];
                for bi in 0..bsz {
                    let src = &d_kt[bi * c * nk..(bi + 1) * c * nk];
                    for j in 0..nk {
                        gather_stride_f32(&src[j..], nk, &mut d_k[bi * nk * c + j * c..][..c]);
                    }
                }
                self.acc(k, &d_k);
            }
            Op::Detached => {
                unreachable!("detached nodes only exist on inference tapes, which cannot backward")
            }
        }
    }
}

// The matmul kernels themselves live in `gqa-simd` as of PR 7
// (`matmul_acc_f32` / `matmul_nt_f32` / `matmul_tn_f32`): one blocked,
// vectorized family shared by the tape's `Matmul`/`BatchMatmul` nodes,
// the im2col convolution, the fused attention drivers, and every
// backward path. The ordered-add contract (each output element's adds in
// ascending inner index, aligned zero-chunk skip preserved) is pinned
// there; this file only decides *which* product to run where.

/// Validates conv arguments and returns the NCHW output shape.
fn conv2d_out_shape(
    x: &Tensor,
    w: &Tensor,
    stride: usize,
    pad: usize,
    groups: usize,
) -> [usize; 4] {
    assert_eq!(x.shape.len(), 4, "conv input must be NCHW");
    assert_eq!(
        w.shape.len(),
        4,
        "conv weight must be (Cout, Cin/g, kh, kw)"
    );
    assert!(stride >= 1, "stride must be >= 1");
    let (b, cin, h, wd) = (x.shape[0], x.shape[1], x.shape[2], x.shape[3]);
    let (cout, cig, kh, kw) = (w.shape[0], w.shape[1], w.shape[2], w.shape[3]);
    assert_eq!(cin % groups, 0, "Cin not divisible by groups");
    assert_eq!(cout % groups, 0, "Cout not divisible by groups");
    assert_eq!(cig, cin / groups, "weight channel mismatch");
    let oh = (h + 2 * pad - kh) / stride + 1;
    let ow = (wd + 2 * pad - kw) / stride + 1;
    [b, cout, oh, ow]
}

/// Convolution as im2col + the shared [`matmul_acc_f32`] kernel.
///
/// Per `(batch, group)` the input patches are gathered into a pooled
/// `(Cin/g·kh·kw, oh·ow)` column matrix (out-of-bounds taps stay zero),
/// then one `matmul_acc_f32` against the group's weight rows produces
/// the whole output block. Bit-identical to the textbook per-element
/// loop: the kernel accumulates over the patch dimension in ascending
/// `(ic, ky, kx)` order — exactly the textbook tap order — and the only
/// extra terms are `±0.0` products from padding taps (or the kernel's
/// zero-skip removing weight-zero taps), which never change an
/// accumulator that starts at +0.0.
#[allow(clippy::too_many_arguments)]
fn conv2d_forward(
    x: &Tensor,
    w: &Tensor,
    stride: usize,
    pad: usize,
    groups: usize,
    out_shape: &[usize; 4],
    out: &mut [f32],
    pool: &mut BufferPool,
) {
    let (b, cin, h, wd) = (x.shape[0], x.shape[1], x.shape[2], x.shape[3]);
    let (cout, cig, kh, kw) = (w.shape[0], w.shape[1], w.shape[2], w.shape[3]);
    let (oh, ow) = (out_shape[2], out_shape[3]);
    let cog = cout / groups;
    let ohw = oh * ow;
    // 1×1 stride-1 unpadded ungrouped convolution IS a matrix product:
    // out(Cout, H·W) += W(Cout, Cin) · X(Cin, H·W) — no gather needed.
    if kh == 1 && kw == 1 && stride == 1 && pad == 0 && groups == 1 {
        let hw = h * wd;
        for bi in 0..b {
            matmul_acc_f32(
                &w.data,
                &x.data[bi * cin * hw..(bi + 1) * cin * hw],
                &mut out[bi * cout * hw..(bi + 1) * cout * hw],
                cout,
                cin,
                hw,
            );
        }
        return;
    }
    let patch = cig * kh * kw;
    for bi in 0..b {
        for g in 0..groups {
            let mut col = pool.take(patch * ohw);
            for ic in 0..cig {
                let ic_abs = g * cig + ic;
                let x_plane = &x.data[((bi * cin + ic_abs) * h) * wd..][..h * wd];
                for ky in 0..kh {
                    for oy in 0..oh {
                        let iy = oy * stride + ky;
                        if iy < pad || iy - pad >= h {
                            continue;
                        }
                        let xrow = &x_plane[(iy - pad) * wd..][..wd];
                        for kx in 0..kw {
                            // Valid ox: pad <= ox·stride + kx < wd + pad.
                            if wd + pad <= kx {
                                continue;
                            }
                            let ox_lo = if kx >= pad {
                                0
                            } else {
                                (pad - kx).div_ceil(stride)
                            };
                            let ox_hi = ((wd - 1 + pad - kx) / stride).min(ow - 1);
                            if ox_lo > ox_hi {
                                continue;
                            }
                            let xoff = ox_lo * stride + kx - pad;
                            let cnt = ox_hi + 1 - ox_lo;
                            let p = (ic * kh + ky) * kw + kx;
                            let crow = &mut col[p * ohw + oy * ow..][..ow];
                            if stride == 1 {
                                crow[ox_lo..ox_lo + cnt].copy_from_slice(&xrow[xoff..xoff + cnt]);
                            } else {
                                gather_stride_f32(
                                    &xrow[xoff..],
                                    stride,
                                    &mut crow[ox_lo..ox_lo + cnt],
                                );
                            }
                        }
                    }
                }
            }
            matmul_acc_f32(
                &w.data[(g * cog) * patch..((g + 1) * cog) * patch],
                &col,
                &mut out[(bi * cout + g * cog) * ohw..][..cog * ohw],
                cog,
                patch,
                ohw,
            );
            pool.put(col);
        }
    }
}

fn conv2d_backward(
    x: &Tensor,
    w: &Tensor,
    dy: &[f32],
    out_shape: &[usize],
    stride: usize,
    pad: usize,
    groups: usize,
) -> (Vec<f32>, Vec<f32>) {
    let (b, cin, h, wd) = (x.shape[0], x.shape[1], x.shape[2], x.shape[3]);
    let (cout, cig, kh, kw) = (w.shape[0], w.shape[1], w.shape[2], w.shape[3]);
    let (oh, ow) = (out_shape[2], out_shape[3]);
    let cog = cout / groups;
    let mut dx = vec![0.0f32; x.len()];
    let mut dw = vec![0.0f32; w.len()];
    for bi in 0..b {
        for g in 0..groups {
            for oc in 0..cog {
                let oc_abs = g * cog + oc;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let d = dy[((bi * cout + oc_abs) * oh + oy) * ow + ox];
                        if d == 0.0 {
                            continue;
                        }
                        for ic in 0..cig {
                            let ic_abs = g * cig + ic;
                            for ky in 0..kh {
                                let iy = oy * stride + ky;
                                if iy < pad || iy - pad >= h {
                                    continue;
                                }
                                for kx in 0..kw {
                                    let ix = ox * stride + kx;
                                    if ix < pad || ix - pad >= wd {
                                        continue;
                                    }
                                    let xi =
                                        ((bi * cin + ic_abs) * h + (iy - pad)) * wd + (ix - pad);
                                    let wi = ((oc_abs * cig + ic) * kh + ky) * kw + kx;
                                    dx[xi] += d * w.data[wi];
                                    dw[wi] += d * x.data[xi];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    (dx, dw)
}

fn logsumexp_pixel(
    t: &Tensor,
    bi: usize,
    y: usize,
    x: usize,
    c: usize,
    h: usize,
    w: usize,
) -> (f64, f64) {
    let mut maxv = f64::NEG_INFINITY;
    for cls in 0..c {
        maxv = maxv.max(t.data[((bi * c + cls) * h + y) * w + x] as f64);
    }
    let mut sum = 0.0f64;
    for cls in 0..c {
        sum += (t.data[((bi * c + cls) * h + y) * w + x] as f64 - maxv).exp();
    }
    (maxv + sum.ln(), maxv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExactBackend;

    const B: ExactBackend = ExactBackend;

    /// Finite-difference gradient check helper: builds the graph twice with
    /// a perturbed input element and compares the loss delta against the
    /// recorded gradient.
    fn gradcheck<F>(input: Tensor, build: F)
    where
        F: Fn(&mut Graph<'_>, NodeId) -> NodeId,
    {
        let mut g = Graph::new(&B);
        let x = g.input(input.clone());
        let loss = build(&mut g, x);
        g.backward(loss);
        let analytic = g.grad(x).expect("input grad").to_vec();

        let h = 1e-3f32;
        #[allow(clippy::needless_range_loop)] // i indexes three parallel views
        for i in 0..input.len().min(16) {
            let mut plus = input.clone();
            plus.data[i] += h;
            let mut minus = input.clone();
            minus.data[i] -= h;
            let eval = |t: Tensor| {
                let mut g = Graph::new(&B);
                let x = g.input(t);
                let loss = build(&mut g, x);
                g.value(loss).data[0]
            };
            let fd = (eval(plus) - eval(minus)) / (2.0 * h);
            assert!(
                (fd - analytic[i]).abs() < 2e-2 * (1.0 + fd.abs()),
                "element {i}: fd {fd} vs analytic {}",
                analytic[i]
            );
        }
    }

    fn seeded(shape: &[usize], seed: u64) -> Tensor {
        // Deterministic pseudo-random data without pulling in rand here.
        let n: usize = shape.iter().product();
        let mut v = Vec::with_capacity(n);
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for _ in 0..n {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            v.push(((s % 2000) as f32 / 1000.0) - 1.0);
        }
        Tensor::from_vec(v, shape)
    }

    #[test]
    fn matmul_forward_known() {
        let mut g = Graph::new(&B);
        let a = g.input(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = g.input(Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]));
        let c = g.matmul(a, b);
        assert_eq!(g.value(c).data, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gradcheck_matmul() {
        let w = seeded(&[3, 2], 7);
        gradcheck(seeded(&[2, 3], 1), move |g, x| {
            let wn = g.input(w.clone());
            let y = g.matmul(x, wn);
            g.mean_all(y)
        });
    }

    #[test]
    fn gradcheck_softmax() {
        gradcheck(seeded(&[2, 5], 2), |g, x| {
            let s = g.softmax_rows(x);
            let sq = g.mul(s, s);
            g.mean_all(sq)
        });
    }

    #[test]
    fn gradcheck_layernorm() {
        gradcheck(seeded(&[3, 6], 3), |g, x| {
            let y = g.layernorm_rows(x, 1e-5);
            let sq = g.mul(y, y);
            let c = g.add_scalar(sq, 0.5);
            let m = g.mul(c, y);
            g.mean_all(m)
        });
    }

    #[test]
    fn gradcheck_fused_softmax() {
        gradcheck(seeded(&[2, 5], 2), |g, x| {
            let s = g.softmax(x);
            let sq = g.mul(s, s);
            g.mean_all(sq)
        });
    }

    #[test]
    fn gradcheck_fused_layernorm() {
        gradcheck(seeded(&[3, 6], 3), |g, x| {
            let y = g.layer_norm(x, 1e-5);
            let sq = g.mul(y, y);
            let c = g.add_scalar(sq, 0.5);
            let m = g.mul(c, y);
            g.mean_all(m)
        });
    }

    /// The fused nodes must equal the unfused assemblies bit for bit —
    /// values and input gradients (the full property suite lives in
    /// `tests/fused_equivalence.rs`; this is the in-crate smoke).
    #[test]
    fn fused_matches_unfused_bitwise() {
        let x = seeded(&[4, 9], 21);
        let run = |fused: bool| {
            let mut g = Graph::new(&B);
            let xid = g.input(x.clone());
            let s = if fused {
                g.softmax(xid)
            } else {
                g.softmax_rows(xid)
            };
            let l = if fused {
                g.layer_norm(s, 1e-5)
            } else {
                g.layernorm_rows(s, 1e-5)
            };
            let sq = g.mul(l, l);
            let loss = g.mean_all(sq);
            g.backward(loss);
            (
                g.value(s).data.clone(),
                g.value(l).data.clone(),
                g.grad(xid).expect("input grad").to_vec(),
            )
        };
        let (sf, lf, gf) = run(true);
        let (su, lu, gu) = run(false);
        for (a, b) in sf.iter().zip(&su) {
            assert_eq!(a.to_bits(), b.to_bits(), "softmax value");
        }
        for (a, b) in lf.iter().zip(&lu) {
            assert_eq!(a.to_bits(), b.to_bits(), "layernorm value");
        }
        for (a, b) in gf.iter().zip(&gu) {
            assert_eq!(a.to_bits(), b.to_bits(), "input gradient");
        }
    }

    #[test]
    fn gradcheck_unaries() {
        for kind in [
            UnaryKind::Gelu,
            UnaryKind::Hswish,
            UnaryKind::Sigmoid,
            UnaryKind::Tanh,
        ] {
            gradcheck(seeded(&[2, 4], 4), move |g, x| {
                let y = g.unary(x, kind);
                let sq = g.mul(y, y);
                g.mean_all(sq)
            });
        }
    }

    #[test]
    fn gradcheck_conv2d() {
        let w = seeded(&[2, 3, 3, 3], 8);
        gradcheck(seeded(&[1, 3, 5, 5], 5), move |g, x| {
            let wn = g.input(w.clone());
            let y = g.conv2d(x, wn, 1, 1, 1);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
    }

    #[test]
    fn gradcheck_depthwise_conv() {
        let w = seeded(&[4, 1, 3, 3], 9);
        gradcheck(seeded(&[1, 4, 4, 4], 6), move |g, x| {
            let wn = g.input(w.clone());
            let y = g.conv2d(x, wn, 1, 1, 4);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
    }

    #[test]
    fn gradcheck_strided_conv() {
        let w = seeded(&[2, 2, 2, 2], 10);
        gradcheck(seeded(&[1, 2, 6, 6], 7), move |g, x| {
            let wn = g.input(w.clone());
            let y = g.conv2d(x, wn, 2, 0, 1);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
    }

    #[test]
    fn gradcheck_batch_matmul_transpose() {
        let other = seeded(&[2, 3, 4], 11);
        gradcheck(seeded(&[2, 3, 4], 8), move |g, x| {
            let o = g.input(other.clone());
            let ot = g.transpose_last2(o);
            let y = g.batch_matmul(x, ot); // (2,3,4)x(2,4,3) -> (2,3,3)
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
    }

    #[test]
    fn gradcheck_upsample_concat() {
        gradcheck(seeded(&[1, 2, 3, 3], 9), |g, x| {
            let up = g.upsample_nearest(x, 2);
            let up2 = g.upsample_nearest(x, 2);
            let cat = g.concat_channels(&[up, up2]);
            let sq = g.mul(cat, cat);
            g.mean_all(sq)
        });
    }

    #[test]
    fn gradcheck_cross_entropy() {
        let targets: Vec<u32> = vec![0, 2, 1, 255, 3, 0];
        gradcheck(seeded(&[1, 4, 2, 3], 10), move |g, x| {
            g.cross_entropy_nchw(x, &targets, 255)
        });
    }

    #[test]
    fn softmax_rows_is_a_distribution() {
        let mut g = Graph::new(&B);
        let x = g.input(seeded(&[4, 7], 12));
        let s = g.softmax_rows(x);
        for row in g.value(s).data.chunks(7) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn layernorm_rows_standardizes() {
        let mut g = Graph::new(&B);
        let x = g.input(seeded(&[3, 16], 13));
        let y = g.layernorm_rows(x, 0.0);
        for row in g.value(y).data.chunks(16) {
            let mean: f32 = row.iter().sum::<f32>() / 16.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn conv_shapes() {
        let mut g = Graph::new(&B);
        let x = g.input(Tensor::zeros(&[2, 3, 8, 8]));
        let w = g.input(Tensor::zeros(&[6, 3, 3, 3]));
        let y = g.conv2d(x, w, 2, 1, 1);
        assert_eq!(g.value(y).shape, vec![2, 6, 4, 4]);
    }

    #[test]
    fn param_grads_accumulate_to_store() {
        let mut ps = ParamStore::new();
        let pid = ps.alloc(Tensor::from_vec(vec![2.0], &[1, 1]));
        let mut g = Graph::new(&B);
        let x = g.input(Tensor::from_vec(vec![3.0], &[1, 1]));
        let w = g.param(&ps, pid);
        let y = g.matmul(x, w);
        let t = g.input(Tensor::from_vec(vec![0.0], &[1, 1]));
        let loss = g.mse_loss(y, t);
        g.backward(loss);
        g.accumulate_grads(&mut ps);
        // d/dw (3w)^2 = 2*3w*3 = 36 at w=2.
        assert!((ps.grad(pid)[0] - 36.0).abs() < 1e-4);
    }

    #[test]
    fn cross_entropy_ignores_ignore_index() {
        let mut g = Graph::new(&B);
        let x = g.input(Tensor::zeros(&[1, 3, 1, 2]));
        let loss_all = g.cross_entropy_nchw(x, &[0, 255], 255);
        // Only one valid pixel with uniform logits: loss = ln(3).
        assert!((g.value(loss_all).data[0] - 3.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn gradcheck_fused_attention() {
        let k = seeded(&[2, 4, 3], 31);
        let v = seeded(&[2, 4, 3], 32);
        gradcheck(seeded(&[2, 3, 3], 30), move |g, x| {
            let kn = g.input(k.clone());
            let vn = g.input(v.clone());
            let y = g.attention(x, kn, vn, 0.5);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
    }

    /// Fused attention must equal the five-node unfused assembly bit for
    /// bit — output values and the gradients of q, k, AND v.
    #[test]
    fn attention_fused_matches_unfused_bitwise() {
        let (tq, tk, tv) = (
            seeded(&[2, 5, 4], 41),
            seeded(&[2, 7, 4], 42),
            seeded(&[2, 7, 4], 43),
        );
        let scale = 1.0 / (4.0f32).sqrt();
        let run = |fused: bool| {
            let mut g = Graph::new(&B);
            let q = g.input(tq.clone());
            let k = g.input(tk.clone());
            let v = g.input(tv.clone());
            let y = if fused {
                g.attention(q, k, v, scale)
            } else {
                g.attention_unfused(q, k, v, scale)
            };
            let sq = g.mul(y, y);
            let loss = g.mean_all(sq);
            g.backward(loss);
            (
                g.value(y).data.clone(),
                g.grad(q).expect("dq").to_vec(),
                g.grad(k).expect("dk").to_vec(),
                g.grad(v).expect("dv").to_vec(),
            )
        };
        let (yf, qf, kf, vf) = run(true);
        let (yu, qu, ku, vu) = run(false);
        let pairs = [
            (yf, yu, "value"),
            (qf, qu, "dq"),
            (kf, ku, "dk"),
            (vf, vu, "dv"),
        ];
        for (f, u, what) in &pairs {
            assert_eq!(f.len(), u.len(), "{what} length");
            for (a, b) in f.iter().zip(u) {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}");
            }
        }
    }

    /// The two-node fused residual+LayerNorm must equal `add` followed by
    /// `layer_norm_affine` bit for bit, forward and backward.
    #[test]
    fn residual_layer_norm_matches_unfused_bitwise() {
        let (tx, ty) = (seeded(&[3, 6], 51), seeded(&[3, 6], 52));
        let (tg_, tb_) = (seeded(&[6], 53), seeded(&[6], 54));
        let run = |fused: bool| {
            let mut g = Graph::new(&B);
            let x = g.input(tx.clone());
            let y = g.input(ty.clone());
            let ga = g.input(tg_.clone());
            let be = g.input(tb_.clone());
            let (sum, normed) = if fused {
                g.residual_layer_norm_affine(x, y, ga, be, 1e-5)
            } else {
                let s = g.add(x, y);
                (s, g.layer_norm_affine(s, ga, be, 1e-5))
            };
            let sq = g.mul(normed, normed);
            let loss = g.mean_all(sq);
            g.backward(loss);
            (
                g.value(sum).data.clone(),
                g.value(normed).data.clone(),
                g.grad(x).expect("dx").to_vec(),
                g.grad(ga).expect("dgamma").to_vec(),
            )
        };
        let f = run(true);
        let u = run(false);
        for (a, b) in f.0.iter().zip(&u.0) {
            assert_eq!(a.to_bits(), b.to_bits(), "sum value");
        }
        for (a, b) in f.1.iter().zip(&u.1) {
            assert_eq!(a.to_bits(), b.to_bits(), "normed value");
        }
        for (a, b) in f.2.iter().zip(&u.2) {
            assert_eq!(a.to_bits(), b.to_bits(), "dx");
        }
        for (a, b) in f.3.iter().zip(&u.3) {
            assert_eq!(a.to_bits(), b.to_bits(), "dgamma");
        }
    }

    /// Inference tapes must produce forward values bit-identical to
    /// training tapes while recording no backward state at all.
    #[test]
    fn inference_forward_matches_train_bitwise() {
        let (tq, tk, tv) = (
            seeded(&[1, 4, 6], 61),
            seeded(&[1, 5, 6], 62),
            seeded(&[1, 5, 6], 63),
        );
        let (tg_, tb_) = (seeded(&[6], 64), seeded(&[6], 65));
        let run = |mode: EvalMode| {
            let mut g = Graph::with_mode(&B, mode, BufferPool::new());
            let q = g.input(tq.clone());
            let k = g.input(tk.clone());
            let v = g.input(tv.clone());
            let ga = g.input(tg_.clone());
            let be = g.input(tb_.clone());
            let a = g.attention(q, k, v, 0.25);
            let s = g.softmax(a);
            let (_, n) = g.residual_layer_norm_affine(a, s, ga, be, 1e-5);
            let u = g.unary(n, UnaryKind::Gelu);
            g.value(u).data.clone()
        };
        let train = run(EvalMode::Train);
        let infer = run(EvalMode::Inference);
        for (a, b) in train.iter().zip(&infer) {
            assert_eq!(a.to_bits(), b.to_bits(), "train vs inference value");
        }
    }

    #[test]
    #[should_panic(expected = "EvalMode::Inference")]
    fn backward_on_inference_tape_panics() {
        let mut g = Graph::new_inference(&B);
        let x = g.input(seeded(&[2, 2], 70));
        let s = g.mean_all(x);
        g.backward(s);
    }

    /// Recycling a finished tape's buffers into the next graph must not
    /// change values — the pool hands back zero-filled buffers.
    #[test]
    fn recycled_pool_forward_is_bitwise_stable() {
        let x = seeded(&[3, 8], 80);
        let forward = |pool: BufferPool| {
            let mut g = Graph::with_mode(&B, EvalMode::Inference, pool);
            let xid = g.input(x.clone());
            let s = g.softmax(xid);
            let l = g.layer_norm(s, 1e-5);
            let out = g.value(l).data.clone();
            (out, g.recycle())
        };
        let (first, pool) = forward(BufferPool::new());
        assert!(
            pool.free_buffers() > 0,
            "recycle should harvest node buffers"
        );
        let (second, _) = forward(pool);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.to_bits(), b.to_bits(), "pooled re-run value");
        }
    }

    /// Graphs (and the pool inside them) stay `Send + Sync` — the backend
    /// reference is `&dyn UnaryBackend` whose trait requires both.
    #[test]
    fn graph_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Graph<'static>>();
        assert_send_sync::<BufferPool>();
        assert_send_sync::<EvalMode>();
    }
}
