//! An [`Engine`] wrapper that records a span around every decode call and
//! forwards *every* trait method to the wrapped engine, provided ones
//! included: an engine that overrides `step_block_into` (the speculative
//! engine) must behave exactly as it does bare.
//!
//! Prefill runs through `engine.model()`, which hands out the bare model;
//! it cannot be wrapped from outside and shows up as the caller's self
//! time instead.

use sparseinfer::model::model::DecodeSession;
use sparseinfer::model::{Model, Sampler};
use sparseinfer::sparse::engine::{
    Engine, MemoryEstimate, SparsityStats, SpeculativeStats, StepBlock, WeightFormat,
};
use sparseinfer::sparse::OpCounter;
use sparseinfer::tensor::Vector;

use crate::trace::SpanBuf;

/// Layer name of the spans this wrapper records.
pub const ENGINE_LAYER: &str = "engine";

pub struct TracedEngine<'m> {
    inner: Box<dyn Engine + 'm>,
    buf: SpanBuf,
    request: i64,
}

impl<'m> TracedEngine<'m> {
    /// Wraps `inner`; its spans carry `request` and flush into `buf`'s
    /// tracer when the engine is dropped (the scheduler drops it the tick
    /// the request retires).
    pub fn new(inner: Box<dyn Engine + 'm>, buf: SpanBuf, request: i64) -> Self {
        Self {
            inner,
            buf,
            request,
        }
    }

    fn span<R>(&mut self, name: &'static str, call: impl FnOnce(&mut dyn Engine) -> (R, u32)) -> R {
        let parent = self.buf.tracer().current_parent();
        let start = self.buf.tracer().now_ns();
        let (result, positions) = call(self.inner.as_mut());
        let end = self.buf.tracer().now_ns();
        self.buf.record(
            parent,
            self.request,
            ENGINE_LAYER,
            name,
            start,
            end,
            positions,
        );
        result
    }
}

impl std::fmt::Debug for TracedEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedEngine")
            .field("inner", &self.inner)
            .field("request", &self.request)
            .finish()
    }
}

impl Engine for TracedEngine<'_> {
    fn model(&self) -> &Model {
        self.inner.model()
    }

    fn score_block_into(
        &mut self,
        tokens: &[u32],
        session: &mut DecodeSession,
        logits: &mut [Vector],
    ) {
        self.span("score_block", |e| {
            e.score_block_into(tokens, session, logits);
            ((), tokens.len() as u32)
        });
    }

    fn step_into(&mut self, token: u32, session: &mut DecodeSession, logits: &mut Vector) {
        self.span("step", |e| {
            e.step_into(token, session, logits);
            ((), 1)
        });
    }

    fn step(&mut self, token: u32, session: &mut DecodeSession) -> Vector {
        self.span("step", |e| (e.step(token, session), 1))
    }

    fn step_block_into(
        &mut self,
        token: u32,
        session: &mut DecodeSession,
        limit: usize,
        out: &mut StepBlock,
    ) {
        self.span("step_block", |e| {
            e.step_block_into(token, session, limit, out);
            ((), 1 + out.proposals().len() as u32)
        });
    }

    fn note_accepted(&mut self, accepted: usize) {
        self.inner.note_accepted(accepted);
    }

    fn speculative_stats(&self) -> Option<SpeculativeStats> {
        self.inner.speculative_stats()
    }

    fn ops(&self) -> &OpCounter {
        self.inner.ops()
    }

    fn reset_ops(&mut self) {
        self.inner.reset_ops();
    }

    fn stats(&self) -> Option<&SparsityStats> {
        self.inner.stats()
    }

    fn default_sampler(&self) -> Sampler {
        self.inner.default_sampler()
    }

    fn memory_estimate(&self) -> MemoryEstimate {
        self.inner.memory_estimate()
    }

    fn shared_state_id(&self) -> Option<usize> {
        self.inner.shared_state_id()
    }

    fn weight_format(&self) -> WeightFormat {
        self.inner.weight_format()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use sparseinfer::model::generator::WeightGenerator;
    use sparseinfer::model::ModelConfig;
    use sparseinfer::predictor::AlphaSchedule;
    use sparseinfer::sparse::engine::EngineBuilder;
    use sparseinfer::sparse::request::{generate, GenerateRequest};

    use super::*;
    use crate::trace::Tracer;

    fn model() -> Model {
        WeightGenerator::new(&ModelConfig::tiny(), 11).build()
    }

    fn signbit(model: &Model) -> Box<dyn Engine + '_> {
        EngineBuilder::new(model)
            .signbit(AlphaSchedule::uniform(1.0))
            .build()
            .unwrap()
    }

    /// A speculative engine overrides `step_block_into`, `note_accepted`
    /// and `speculative_stats`: exactly the provided methods a wrapper
    /// that only forwarded the required ones would silently replace.
    fn speculative(model: &Model) -> Box<dyn Engine + '_> {
        let verify = EngineBuilder::new(model).build().unwrap();
        EngineBuilder::speculative(signbit(model), verify, 3).unwrap()
    }

    #[test]
    fn wrapped_engines_decode_and_account_exactly_like_bare_ones() {
        let model = model();
        let req = GenerateRequest::new(&[3, 1, 4, 1, 5]).max_new(12);
        for build in [signbit, speculative] {
            let mut bare = build(&model);
            let expected = generate(bare.as_mut(), &req).unwrap();

            let tracer = Tracer::new(Instant::now());
            let mut traced = TracedEngine::new(build(&model), tracer.buf(), 7);
            let got = generate(&mut traced, &req).unwrap();

            assert_eq!(got, expected);
            assert_eq!(traced.ops(), bare.ops());
            assert_eq!(
                traced.stats().map(SparsityStats::mean_effective),
                bare.stats().map(SparsityStats::mean_effective)
            );
            assert_eq!(traced.speculative_stats(), bare.speculative_stats());
            assert_eq!(traced.name(), bare.name());
            assert_eq!(traced.weight_format(), bare.weight_format());
            assert_eq!(
                traced.shared_state_id().is_some(),
                bare.shared_state_id().is_some()
            );
            assert_eq!(traced.memory_estimate(), bare.memory_estimate());
            assert_eq!(
                format!("{:?}", traced.default_sampler()),
                format!("{:?}", bare.default_sampler())
            );

            drop(traced);
            let spans = tracer.take_spans();
            // One span per engine call: the last prompt token, then one
            // per decode block; the positions they count add up to what
            // the session was fed beyond the dense prefill.
            assert!(spans
                .iter()
                .all(|s| s.layer == ENGINE_LAYER && s.request == 7));
            assert_eq!(spans.iter().filter(|s| s.name == "step").count(), 1);
            let blocks = spans.iter().filter(|s| s.name == "step_block").count();
            assert!((1..=11).contains(&blocks), "{blocks} decode blocks");
            if bare.speculative_stats().is_none() {
                assert_eq!(blocks, 11);
                assert_eq!(spans.iter().map(|s| s.count).sum::<u32>(), 12);
            }
        }
    }
}
