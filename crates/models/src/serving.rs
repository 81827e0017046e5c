//! [`ServedDecoder`]: the one serving adapter of [`TinyDecoder`].

use std::sync::Arc;

use gqa_serve::{DecodeState, ModelDecode, ModelForward};
use gqa_tensor::{BufferPool, Graph, KvCache, NodeId, ParamStore, Tensor};

use crate::TinyDecoder;

/// A [`TinyDecoder`] as a servable model: the [`ModelForward`] +
/// [`ModelDecode`] implementation the serving front-end, its tests, the
/// examples and the benches register. A request row is one token id
/// carried as an `f32`.
///
/// * [`ModelForward::forward`] treats each row as a fresh single-token
///   sequence and returns its `vocab` logits.
/// * [`ModelDecode::step`] runs one KV-cached
///   [`TinyDecoder::step_logits`] step against the session's caches (one
///   [`KvCache`] of `max_len` rows per layer): bit-identical to the last
///   row of [`TinyDecoder::forward_logits`] over the session's prefix.
/// * [`ModelDecode::check_step`] accepts only a finite, non-negative
///   integer below `vocab`, and only while the caches hold fewer than
///   `max_len` rows, so no decode step reaches one of the decoder's
///   panics. A plain forward is not checked: a row outside the
///   vocabulary still panics in `forward`.
#[derive(Debug, Clone)]
pub struct ServedDecoder {
    model: TinyDecoder,
    params: Arc<ParamStore>,
    max_len: usize,
}

impl ServedDecoder {
    /// Serves `model` with its parameters `params`; a decode session
    /// holds up to `max_len` tokens before it must be reset.
    ///
    /// # Panics
    ///
    /// Panics if `max_len == 0`.
    #[must_use]
    pub fn new(model: TinyDecoder, params: Arc<ParamStore>, max_len: usize) -> Self {
        assert!(max_len > 0, "a decode session needs room for one token");
        Self {
            model,
            params,
            max_len,
        }
    }

    /// The served decoder.
    #[must_use]
    pub fn model(&self) -> &TinyDecoder {
        &self.model
    }

    /// The decoder's parameters.
    #[must_use]
    pub fn params(&self) -> &ParamStore {
        &self.params
    }

    /// Tokens a decode session holds before it must be reset.
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.max_len
    }
}

impl ModelForward for ServedDecoder {
    fn forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        let (rows, vocab) = (g.value(x).shape[0], self.model.config().vocab);
        let tokens: Vec<usize> = g.value(x).data.iter().map(|&t| t as usize).collect();
        let mut out = Vec::with_capacity(rows * vocab);
        for tok in tokens {
            let logits = self.model.forward_logits(g, &self.params, &[tok]);
            out.extend_from_slice(&g.value(logits).data);
        }
        g.input(Tensor::from_vec(out, &[rows, vocab]))
    }

    fn decode(&self) -> Option<&dyn ModelDecode> {
        Some(self)
    }
}

impl ModelDecode for ServedDecoder {
    fn new_state(&self) -> DecodeState {
        Box::new(self.model.new_caches(self.max_len, &mut BufferPool::new()))
    }

    fn check_step(&self, input: &Tensor, state: &DecodeState) -> Result<(), String> {
        let token = input.data[0];
        let vocab = self.model.config().vocab;
        if !(token >= 0.0 && token.fract() == 0.0 && (token as usize) < vocab) {
            return Err(format!("token {token} is not an id in 0..{vocab}"));
        }
        let caches = state
            .downcast_ref::<Vec<KvCache>>()
            .expect("decode state is the layer KV caches");
        let len = caches[0].len();
        if len >= self.max_len {
            return Err(format!(
                "the context is full ({len} of {} tokens); reset() starts a fresh sequence",
                self.max_len
            ));
        }
        Ok(())
    }

    fn step(&self, g: &mut Graph<'_>, input: &Tensor, state: &mut DecodeState) -> Tensor {
        let caches = state
            .downcast_mut::<Vec<KvCache>>()
            .expect("decode state is the layer KV caches");
        let tok = input.data[0] as usize;
        let logits = self.model.step_logits(g, &self.params, tok, caches);
        g.value(logits).clone()
    }
}
