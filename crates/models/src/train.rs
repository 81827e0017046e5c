//! The Table 4/5 fine-tuning protocol.
//!
//! 1. **Pre-train** the FP32 model on SynthScapes (the stand-in for the
//!    authors' ImageNet-pretrained checkpoints fine-tuned on Cityscapes).
//! 2. **Quantize**: snap each weight tensor onto an INT8 power-of-two
//!    grid whose step is its min-max step rounded up to a power of two
//!    ([`quantize_weights_pot`]), then fine-tune briefly, snapping again
//!    after every optimizer step. No step size is learned. This model is
//!    the "None" baseline row.
//! 3. **Replace** non-linear operators with INT8 pwl LUTs (per method and
//!    replacement set), fine-tune briefly with the same snapping, and
//!    report validation mIoU.

use gqa_data::{ConfusionMatrix, SceneConfig, SynthScapes, IGNORE_LABEL, NUM_CLASSES};
use gqa_fxp::IntRange;
use gqa_quant::calibrate_minmax;
use gqa_serve::CalibrationRecorder;
use gqa_tensor::optim::Adam;
use gqa_tensor::{ExactBackend, Graph, NodeId, ParamStore, Tensor, UnaryBackend};

/// A segmentation model: anything the harness can train and evaluate.
pub trait SegModel {
    /// Builds the forward graph from an NCHW image batch to NCHW logits.
    fn forward(&self, g: &mut Graph<'_>, ps: &ParamStore, x: NodeId) -> NodeId;

    /// Display name.
    fn name(&self) -> &'static str;
}

/// Training-protocol parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Scene generator settings.
    pub scene: SceneConfig,
    /// Number of training scenes.
    pub train_images: usize,
    /// Number of validation scenes.
    pub val_images: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// FP pre-training epochs.
    pub pretrain_epochs: usize,
    /// Fine-tuning epochs (both the INT8 baseline and each replacement).
    pub finetune_epochs: usize,
    /// Pre-training learning rate (Adam).
    pub lr_pretrain: f64,
    /// Fine-tuning learning rate (Adam).
    pub lr_finetune: f64,
    /// Dataset seed.
    pub seed: u64,
}

impl TrainConfig {
    /// Small protocol for unit tests.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            scene: SceneConfig::tiny(),
            train_images: 8,
            val_images: 4,
            batch: 4,
            pretrain_epochs: 4,
            finetune_epochs: 1,
            lr_pretrain: 2e-3,
            lr_finetune: 5e-4,
            seed: 99,
        }
    }

    /// The Table 4/5 benchmark protocol.
    #[must_use]
    pub fn benchmark() -> Self {
        Self {
            scene: SceneConfig::benchmark(),
            train_images: 32,
            val_images: 24,
            batch: 4,
            pretrain_epochs: 60,
            finetune_epochs: 4,
            lr_pretrain: 2e-3,
            lr_finetune: 2e-4,
            seed: 1234,
        }
    }
}

/// Result of an evaluation pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinetuneOutcome {
    /// Mean IoU on the validation split (the paper's metric).
    pub miou: f64,
    /// Pixel accuracy (auxiliary).
    pub pixel_accuracy: f64,
}

/// The training/evaluation harness. Owns the dataset; borrows models and
/// parameter stores so callers can snapshot/restore weights between
/// replacement runs.
#[derive(Debug, Clone)]
pub struct FinetuneHarness {
    config: TrainConfig,
    dataset: SynthScapes,
}

impl FinetuneHarness {
    /// Creates the harness (deterministic given the config's seed).
    #[must_use]
    pub fn new(config: TrainConfig) -> Self {
        let dataset = SynthScapes::new(config.scene.clone(), config.seed);
        Self { config, dataset }
    }

    /// The protocol configuration.
    #[must_use]
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    fn batch_tensors(&self, indices: &[u64]) -> (Tensor, Vec<u32>) {
        let (h, w) = (self.config.scene.height, self.config.scene.width);
        let mut images = Vec::with_capacity(indices.len() * 3 * h * w);
        let mut labels = Vec::with_capacity(indices.len() * h * w);
        for &i in indices {
            let s = self.dataset.sample(i);
            images.extend_from_slice(&s.image.data);
            labels.extend_from_slice(&s.labels);
        }
        (Tensor::from_vec(images, &[indices.len(), 3, h, w]), labels)
    }

    /// Trains the model for `epochs` with the given backend and learning
    /// rate, returning the mean loss of the final epoch.
    pub fn train(
        &self,
        model: &dyn SegModel,
        ps: &mut ParamStore,
        backend: &dyn UnaryBackend,
        epochs: usize,
        lr: f64,
        fake_quant_weights: bool,
    ) -> f64 {
        let mut opt = Adam::new(lr);
        let n = self.config.train_images as u64;
        let bs = self.config.batch as u64;
        let mut last_epoch_loss = 0.0;
        for epoch in 0..epochs {
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            let mut start = 0u64;
            while start < n {
                let end = (start + bs).min(n);
                // Epoch-dependent rotation gives SGD fresh batch mixes.
                let indices: Vec<u64> = (start..end).map(|i| (i + epoch as u64 * 3) % n).collect();
                let (images, labels) = self.batch_tensors(&indices);
                let mut g = Graph::new(backend);
                let x = g.input(images);
                let logits = model.forward(&mut g, ps, x);
                let loss = g.cross_entropy_nchw(logits, &labels, IGNORE_LABEL);
                epoch_loss += g.value(loss).data[0] as f64;
                batches += 1;
                g.backward(loss);
                g.accumulate_grads(ps);
                opt.step(ps);
                ps.zero_grads();
                if fake_quant_weights {
                    quantize_weights_pot(ps);
                }
                start = end;
            }
            last_epoch_loss = epoch_loss / batches.max(1) as f64;
        }
        last_epoch_loss
    }

    /// Evaluates validation mIoU with the given backend.
    #[must_use]
    pub fn evaluate(
        &self,
        model: &dyn SegModel,
        ps: &ParamStore,
        backend: &dyn UnaryBackend,
    ) -> FinetuneOutcome {
        let (h, w) = (self.config.scene.height, self.config.scene.width);
        let mut cm = ConfusionMatrix::new();
        for i in 0..self.config.val_images as u64 {
            let idx = 1_000_000 + i; // validation indices disjoint from train
            let (images, labels) = self.batch_tensors(&[idx]);
            let mut g = Graph::new(backend);
            let x = g.input(images);
            let logits = model.forward(&mut g, ps, x);
            let pred = argmax_nchw(g.value(logits), NUM_CLASSES, h, w);
            cm.add(&labels, &pred);
        }
        FinetuneOutcome {
            miou: cm.miou(),
            pixel_accuracy: cm.pixel_accuracy(),
        }
    }

    /// Runs a calibration forward pass (exact math) recording per-operator
    /// input ranges — fixes the power-of-two scales for the LUT backends.
    #[must_use]
    pub fn calibrate(&self, model: &dyn SegModel, ps: &ParamStore) -> CalibrationRecorder {
        let rec = CalibrationRecorder::new();
        let indices: Vec<u64> =
            (0..self.config.batch.min(self.config.train_images) as u64).collect();
        let (images, _) = self.batch_tensors(&indices);
        let mut g = Graph::new(&rec);
        let x = g.input(images);
        let _ = model.forward(&mut g, ps, x);
        rec
    }

    /// The full "None"-row pipeline: FP pre-train, then INT8 weight
    /// fake-quantization plus a quantization-aware fine-tune. Returns the
    /// baseline outcome.
    pub fn pretrain_and_quantize(
        &self,
        model: &dyn SegModel,
        ps: &mut ParamStore,
    ) -> FinetuneOutcome {
        let exact = ExactBackend;
        let _ = self.train(
            model,
            ps,
            &exact,
            self.config.pretrain_epochs,
            self.config.lr_pretrain,
            false,
        );
        quantize_weights_pot(ps);
        let _ = self.train(
            model,
            ps,
            &exact,
            self.config.finetune_epochs,
            self.config.lr_finetune,
            true,
        );
        quantize_weights_pot(ps);
        self.evaluate(model, ps, &exact)
    }

    /// Fine-tunes with a replacement backend (weights stay fake-quantized)
    /// and evaluates with the same backend.
    pub fn finetune_with_backend(
        &self,
        model: &dyn SegModel,
        ps: &mut ParamStore,
        backend: &dyn UnaryBackend,
    ) -> FinetuneOutcome {
        let _ = self.train(
            model,
            ps,
            backend,
            self.config.finetune_epochs,
            self.config.lr_finetune,
            true,
        );
        quantize_weights_pot(ps);
        self.evaluate(model, ps, backend)
    }
}

/// Snaps every parameter tensor onto an INT8 power-of-two grid: the
/// tensor's min-max step ([`calibrate_minmax`]) is rounded up to a power
/// of two, and each weight is fake-quantized onto that grid. Nothing is
/// learned; the harness calls this after every optimizer step of a
/// quantized fine-tune.
pub fn quantize_weights_pot(ps: &mut ParamStore) {
    let range = IntRange::signed(8);
    let ids: Vec<_> = ps.ids().collect();
    for id in ids {
        let t = ps.value(id).clone();
        let step = calibrate_minmax(&t.data, range);
        let scale = gqa_fxp::PowerOfTwoScale::covering(step * range.qp() as f64, range);
        let qp = gqa_quant::QuantParams::new(scale, range);
        qp.fake_quantize_in_place(&mut ps.value_mut(id).data);
    }
}

/// Argmax over the class dimension of NCHW logits → per-pixel classes.
#[must_use]
pub fn argmax_nchw(logits: &Tensor, classes: usize, h: usize, w: usize) -> Vec<u32> {
    let b = logits.shape[0];
    assert_eq!(logits.shape[1], classes, "class dim mismatch");
    let mut out = vec![0u32; b * h * w];
    for bi in 0..b {
        for y in 0..h {
            for x in 0..w {
                let mut best = 0usize;
                let mut best_v = f32::NEG_INFINITY;
                for c in 0..classes {
                    let v = logits.data[((bi * classes + c) * h + y) * w + x];
                    if v > best_v {
                        best_v = v;
                        best = c;
                    }
                }
                out[bi * h * w + y * w + x] = best as u32;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segformer::{SegConfig, SegformerLite};

    #[test]
    fn argmax_picks_largest_channel() {
        // 2 classes, 1x2 image: pixel 0 favors class 1, pixel 1 class 0.
        let mut t = Tensor::zeros(&[1, 2, 1, 2]);
        t.data = vec![0.1, 0.9, 0.8, 0.2];
        // Layout: class0 = [0.1, 0.9], class1 = [0.8, 0.2].
        let pred = argmax_nchw(&t, 2, 1, 2);
        assert_eq!(pred, vec![1, 0]);
    }

    #[test]
    fn weight_quantization_snaps_to_pot_grid() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let cases: [([f32; 4], [f32; 4]); 3] = [
            // max |w| = 0.74 → step 0.74/128 → S = 2^-7.
            (
                [0.31, -0.74, 0.02, 0.5],
                [0.3125, -0.7421875, 0.0234375, 0.5],
            ),
            ([0.0; 4], [0.0; 4]),
            // The step is sized for |Qn| = 128, so the max clips to 127/128.
            ([1.0, -0.25, 0.5, 0.3], [0.9921875, -0.25, 0.5, 0.296875]),
        ];
        for (input, want) in cases {
            let mut ps = ParamStore::new();
            let id = ps.alloc(Tensor::from_vec(input.to_vec(), &[4]));
            quantize_weights_pot(&mut ps);
            assert_eq!(bits(&ps.value(id).data), bits(&want), "{input:?}");
            // Idempotent.
            quantize_weights_pot(&mut ps);
            assert_eq!(bits(&ps.value(id).data), bits(&want), "{input:?}");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let cfg = TrainConfig::tiny();
        let h = FinetuneHarness::new(cfg);
        let mut ps = ParamStore::new();
        let model = SegformerLite::new(&mut ps, SegConfig::tiny(), 3);
        let exact = ExactBackend;
        let first = h.train(&model, &mut ps, &exact, 1, 2e-3, false);
        let later = h.train(&model, &mut ps, &exact, 3, 2e-3, false);
        assert!(later < first, "loss should drop: {first} -> {later}");
    }

    #[test]
    fn evaluation_produces_sane_metrics() {
        let h = FinetuneHarness::new(TrainConfig::tiny());
        let mut ps = ParamStore::new();
        let model = SegformerLite::new(&mut ps, SegConfig::tiny(), 4);
        let exact = ExactBackend;
        let out = h.evaluate(&model, &ps, &exact);
        assert!((0.0..=1.0).contains(&out.miou));
        assert!((0.0..=1.0).contains(&out.pixel_accuracy));
    }

    #[test]
    fn calibration_records_paper_ops() {
        let h = FinetuneHarness::new(TrainConfig::tiny());
        let mut ps = ParamStore::new();
        let model = SegformerLite::new(&mut ps, SegConfig::tiny(), 5);
        let rec = h.calibrate(&model, &ps);
        // Segformer fires GELU, EXP, RECIP and RSQRT.
        for kind in [
            gqa_tensor::UnaryKind::Gelu,
            gqa_tensor::UnaryKind::Exp,
            gqa_tensor::UnaryKind::Recip,
            gqa_tensor::UnaryKind::Rsqrt,
        ] {
            assert!(rec.range(kind).is_some(), "{kind:?} not recorded");
        }
    }
}
