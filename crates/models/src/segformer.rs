//! SegformerLite: a scaled-down Segformer-B0 with the same operator
//! inventory (EXP, GELU, DIV, RSQRT).
//!
//! Architecture (reduced widths/depths of Xie et al.'s Segformer-B0):
//!
//! * two hierarchical stages (overlap patch embed → Transformer blocks),
//! * blocks = LayerNorm → self-attention (Softmax = EXP+DIV) → residual →
//!   LayerNorm → Mix-FFN (fc → 3×3 depthwise conv → GELU → fc) → residual,
//! * all-MLP decode head: per-stage linear projections, upsample, concat,
//!   fuse, classify, upsample to input resolution.
//!
//! Single-head attention (the head count does not change the operator
//! inventory, which is what Tables 4/5 measure).

use rand::rngs::StdRng;
use rand::SeedableRng;

use gqa_data::NUM_CLASSES;
use gqa_tensor::nn::{Conv2d, LayerNorm, Linear};
use gqa_tensor::{Graph, NodeId, ParamStore, UnaryKind};

use crate::train::SegModel;

/// SegformerLite hyper-parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegConfig {
    /// Channel widths of the two stages.
    pub channels: [usize; 2],
    /// Transformer blocks per stage.
    pub blocks: [usize; 2],
    /// FFN expansion ratio.
    pub ffn_ratio: usize,
    /// Decode-head embedding width.
    pub decode_ch: usize,
    /// Output classes.
    pub num_classes: usize,
}

impl SegConfig {
    /// Minimal configuration for unit tests (channels 8/16).
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            channels: [8, 16],
            blocks: [1, 1],
            ffn_ratio: 2,
            decode_ch: 8,
            num_classes: NUM_CLASSES,
        }
    }

    /// The Table-4 benchmark configuration (channels 16/32).
    #[must_use]
    pub fn benchmark() -> Self {
        Self {
            channels: [16, 32],
            blocks: [1, 1],
            ffn_ratio: 2,
            decode_ch: 16,
            num_classes: NUM_CLASSES,
        }
    }
}

/// One Transformer encoder block.
#[derive(Debug, Clone)]
struct Block {
    ln1: LayerNorm,
    q: Linear,
    k: Linear,
    v: Linear,
    proj: Linear,
    ln2: LayerNorm,
    fc1: Linear,
    dw: Conv2d,
    fc2: Linear,
    dim: usize,
    hidden: usize,
}

impl Block {
    fn new(ps: &mut ParamStore, dim: usize, ffn_ratio: usize, rng: &mut StdRng) -> Self {
        let hidden = dim * ffn_ratio;
        Self {
            ln1: LayerNorm::new(ps, dim, 1e-5),
            q: Linear::new(ps, dim, dim, rng),
            k: Linear::new(ps, dim, dim, rng),
            v: Linear::new(ps, dim, dim, rng),
            proj: Linear::new(ps, dim, dim, rng),
            ln2: LayerNorm::new(ps, dim, 1e-5),
            fc1: Linear::new(ps, dim, hidden, rng),
            dw: Conv2d::new(ps, hidden, hidden, 3, 1, 1, hidden, rng),
            fc2: Linear::new(ps, hidden, dim, rng),
            dim,
            hidden,
        }
    }

    /// Applies the block to tokens `(B, N, C)` whose spatial layout is
    /// `(h, w)` (needed by the Mix-FFN depthwise convolution).
    fn apply(
        &self,
        g: &mut Graph<'_>,
        ps: &ParamStore,
        x: NodeId,
        b: usize,
        h: usize,
        w: usize,
    ) -> NodeId {
        let n = h * w;
        let c = self.dim;

        // --- self-attention sub-block.
        let normed = self.ln1.apply(g, ps, x);
        let q = self.q.apply(g, ps, normed);
        let k = self.k.apply(g, ps, normed);
        let v = self.v.apply(g, ps, normed);
        let q3 = g.reshape(q, &[b, n, c]);
        let k3 = g.reshape(k, &[b, n, c]);
        let v3 = g.reshape(v, &[b, n, c]);
        // Fused attention node — score, scale, row-softmax and value
        // aggregation in one sweep. EXP + DIV still go through the backend
        // (one whole-tensor call each), bit-identical to the unfused
        // `transpose → batch_matmul → scale → softmax_rows → batch_matmul`
        // assembly it replaces, forward and backward.
        let ctx = g.attention(q3, k3, v3, 1.0 / (c as f32).sqrt());
        let projected = self.proj.apply(g, ps, ctx);

        // --- Mix-FFN sub-block, entered through the fused residual+norm
        // (one driver pass producing the residual sum and its norm).
        let (x, normed) = self.ln2.apply_residual(g, ps, x, projected);
        let hdn = self.fc1.apply(g, ps, normed);
        // tokens (B,N,E) -> NCHW (B,E,h,w) for the depthwise conv.
        let t3 = g.reshape(hdn, &[b, n, self.hidden]);
        let tt = g.transpose_last2(t3); // (B, E, N)
        let img = g.reshape(tt, &[b, self.hidden, h, w]);
        let conv = self.dw.apply(g, ps, img);
        let back3 = g.reshape(conv, &[b, self.hidden, n]);
        let back = g.transpose_last2(back3); // (B, N, E)
        let act = g.unary(back, UnaryKind::Gelu);
        let out = self.fc2.apply(g, ps, act);
        g.add(x, out)
    }
}

/// The SegformerLite model. See the crate docs for a usage example.
#[derive(Debug, Clone)]
pub struct SegformerLite {
    config: SegConfig,
    embed1: Conv2d,
    stage1: Vec<Block>,
    embed2: Conv2d,
    stage2: Vec<Block>,
    dec1: Linear,
    dec2: Linear,
    fuse: Conv2d,
    classify: Conv2d,
}

impl SegformerLite {
    /// Allocates all parameters in `ps` (Kaiming init, seeded).
    #[must_use]
    pub fn new(ps: &mut ParamStore, config: SegConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let [c1, c2] = config.channels;
        let embed1 = Conv2d::new(ps, 3, c1, 4, 4, 0, 1, &mut rng);
        let stage1 = (0..config.blocks[0])
            .map(|_| Block::new(ps, c1, config.ffn_ratio, &mut rng))
            .collect();
        let embed2 = Conv2d::new(ps, c1, c2, 2, 2, 0, 1, &mut rng);
        let stage2 = (0..config.blocks[1])
            .map(|_| Block::new(ps, c2, config.ffn_ratio, &mut rng))
            .collect();
        let d = config.decode_ch;
        let dec1 = Linear::new(ps, c1, d, &mut rng);
        let dec2 = Linear::new(ps, c2, d, &mut rng);
        let fuse = Conv2d::new(ps, 2 * d, d, 1, 1, 0, 1, &mut rng);
        let classify = Conv2d::new(ps, d, config.num_classes, 1, 1, 0, 1, &mut rng);
        Self {
            config,
            embed1,
            stage1,
            embed2,
            stage2,
            dec1,
            dec2,
            fuse,
            classify,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SegConfig {
        &self.config
    }

    /// Forward pass: `(B, 3, H, W)` image → `(B, classes, H, W)` logits.
    ///
    /// # Panics
    ///
    /// Panics if H or W is not divisible by 8.
    #[must_use]
    pub fn forward(&self, g: &mut Graph<'_>, ps: &ParamStore, x: NodeId) -> NodeId {
        let shape = g.value(x).shape.clone();
        assert_eq!(shape.len(), 4, "expected NCHW input");
        let (b, h, w) = (shape[0], shape[2], shape[3]);
        assert!(h % 8 == 0 && w % 8 == 0, "H and W must be divisible by 8");
        let [c1, c2] = self.config.channels;

        // Each block, each stage and the decode head is a scope: on an
        // inference tape its intermediates go back to the pool as it ends,
        // so later ops reuse them (see `Graph::scope`).

        // Stage 1 at 1/4 resolution.
        let (h1, w1) = (h / 4, w / 4);
        let f1 = g.scope(|g| {
            let f1 = self.embed1.apply(g, ps, x);
            let mut tokens = nchw_to_tokens(g, f1, b, c1, h1 * w1);
            for block in &self.stage1 {
                tokens = g.scope(|g| block.apply(g, ps, tokens, b, h1, w1));
            }
            tokens_to_nchw(g, tokens, b, c1, h1, w1)
        });

        // Stage 2 at 1/8 resolution.
        let (h2, w2) = (h / 8, w / 8);
        let f2 = g.scope(|g| {
            let f2 = self.embed2.apply(g, ps, f1);
            let mut tokens = nchw_to_tokens(g, f2, b, c2, h2 * w2);
            for block in &self.stage2 {
                tokens = g.scope(|g| block.apply(g, ps, tokens, b, h2, w2));
            }
            tokens_to_nchw(g, tokens, b, c2, h2, w2)
        });

        // All-MLP decode head at 1/4 resolution.
        let d = self.config.decode_ch;
        let logits = g.scope(|g| {
            let t1 = nchw_to_tokens(g, f1, b, c1, h1 * w1);
            let p1 = self.dec1.apply(g, ps, t1);
            let p1 = tokens_to_nchw(g, p1, b, d, h1, w1);
            let t2 = nchw_to_tokens(g, f2, b, c2, h2 * w2);
            let p2 = self.dec2.apply(g, ps, t2);
            let p2 = tokens_to_nchw(g, p2, b, d, h2, w2);
            let p2 = g.upsample_nearest(p2, 2);
            let cat = g.concat_channels(&[p1, p2]);
            let fused = self.fuse.apply(g, ps, cat);
            let fused = g.unary(fused, UnaryKind::Relu);
            self.classify.apply(g, ps, fused)
        });
        g.upsample_nearest(logits, 4)
    }
}

impl SegModel for SegformerLite {
    fn forward(&self, g: &mut Graph<'_>, ps: &ParamStore, x: NodeId) -> NodeId {
        SegformerLite::forward(self, g, ps, x)
    }

    fn name(&self) -> &'static str {
        "SegformerLite"
    }
}

/// `(B, C, H, W)` → token matrix `(B, N, C)` with `N = H·W`.
pub(crate) fn nchw_to_tokens(g: &mut Graph<'_>, x: NodeId, b: usize, c: usize, n: usize) -> NodeId {
    let flat = g.reshape(x, &[b, c, n]);
    g.transpose_last2(flat)
}

/// Token matrix `(B, N, C)` → `(B, C, H, W)`.
pub(crate) fn tokens_to_nchw(
    g: &mut Graph<'_>,
    x: NodeId,
    b: usize,
    c: usize,
    h: usize,
    w: usize,
) -> NodeId {
    let t = g.transpose_last2(x);
    g.reshape(t, &[b, c, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gqa_tensor::{ExactBackend, Tensor};

    const B: ExactBackend = ExactBackend;

    #[test]
    fn forward_shapes() {
        let mut ps = ParamStore::new();
        let model = SegformerLite::new(&mut ps, SegConfig::tiny(), 1);
        let mut g = Graph::new(&B);
        let x = g.input(Tensor::zeros(&[2, 3, 32, 64]));
        let y = model.forward(&mut g, &ps, x);
        assert_eq!(g.value(y).shape, vec![2, 19, 32, 64]);
    }

    #[test]
    fn gradients_reach_all_params() {
        let mut ps = ParamStore::new();
        let model = SegformerLite::new(&mut ps, SegConfig::tiny(), 2);
        let mut g = Graph::new(&B);
        let x = g.input(Tensor::full(&[1, 3, 16, 16], 0.5));
        let logits = model.forward(&mut g, &ps, x);
        let targets = vec![1u32; 16 * 16];
        let loss = g.cross_entropy_nchw(logits, &targets, 255);
        g.backward(loss);
        g.accumulate_grads(&mut ps);
        let mut nonzero = 0usize;
        for id in ps.ids() {
            if ps.grad(id).iter().any(|&v| v != 0.0) {
                nonzero += 1;
            }
        }
        // Biases of zero-influence layers can be zero-grad in corner cases;
        // expect the overwhelming majority of tensors to receive gradient.
        assert!(
            nonzero * 10 >= ps.len() * 8,
            "only {nonzero}/{} params have gradient",
            ps.len()
        );
    }

    #[test]
    fn deterministic_init() {
        let mut ps1 = ParamStore::new();
        let _ = SegformerLite::new(&mut ps1, SegConfig::tiny(), 7);
        let mut ps2 = ParamStore::new();
        let _ = SegformerLite::new(&mut ps2, SegConfig::tiny(), 7);
        assert_eq!(ps1.num_scalars(), ps2.num_scalars());
        for (a, b) in ps1.ids().zip(ps2.ids()) {
            assert_eq!(ps1.value(a).data, ps2.value(b).data);
        }
    }

    #[test]
    fn token_round_trip() {
        let mut g = Graph::new(&B);
        let data: Vec<f32> = (0..24).map(|v| v as f32).collect();
        let x = g.input(Tensor::from_vec(data.clone(), &[1, 2, 3, 4]));
        let tokens = nchw_to_tokens(&mut g, x, 1, 2, 12);
        assert_eq!(g.value(tokens).shape, vec![1, 12, 2]);
        let back = tokens_to_nchw(&mut g, tokens, 1, 2, 3, 4);
        assert_eq!(g.value(back).data, data);
    }

    #[test]
    fn benchmark_config_param_count() {
        let mut ps = ParamStore::new();
        let _ = SegformerLite::new(&mut ps, SegConfig::benchmark(), 1);
        let n = ps.num_scalars();
        assert!(n > 5_000 && n < 100_000, "param count {n}");
    }
}
