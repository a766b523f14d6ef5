//! Set-up of one workload — what happens before the first request can be
//! sent: weights, sign packing, int8 quantization, socket bind — and the
//! factory that builds one engine per request from the shared pieces.

use std::sync::Arc;
use std::time::Instant;

use sparseinfer::model::generator::WeightGenerator;
use sparseinfer::model::Model;
use sparseinfer::predictor::{AlphaSchedule, SignBitPredictor, SparsityPredictor};
use sparseinfer::sparse::engine::{Engine, EngineBuilder, QuantizedWeights};
use sparseinfer::sparse::scheduler::SchedulerConfig;
use sparseinfer_serve::{Server, ServerConfig};

use crate::trace::Tracer;
use crate::traced_engine::TracedEngine;
use crate::workloads::{Driver, EngineKind, Spec, BLOCK_TOKENS, MODEL_SEED};

/// Seconds each part of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_s: f64,
    pub predictor_s: f64,
    pub quantize_s: f64,
    pub bind_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.predictor_s + self.quantize_s + self.bind_s
    }
}

/// Everything a workload's engines share, built once per set-up.
pub struct Built {
    pub model: Model,
    pub predictor: Option<Arc<dyn SparsityPredictor>>,
    pub quantized: Option<Arc<QuantizedWeights>>,
    /// The bound (not yet serving) server of an HTTP workload.
    pub server: Option<Server>,
    pub times: SetupTimes,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Cores the host offers; thread counts are capped by it and every result
/// records it.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn slot_threads(spec: &Spec) -> usize {
    spec.slot_threads.min(host_cores())
}

pub fn scheduler_config(spec: &Spec) -> SchedulerConfig {
    SchedulerConfig {
        max_slots: spec.max_slots,
        block_tokens: BLOCK_TOKENS,
        kv_block_budget: spec.kv_block_budget,
        kv_dtype: spec.kv_dtype,
        // Prefix cache on, preemption on with swap preferred: the defaults
        // a server runs with.
        ..SchedulerConfig::default()
    }
}

/// Binds the workload's server on an ephemeral loopback port.
///
/// # Panics
///
/// Panics when no loopback port can be bound: nothing can be measured.
pub fn build_server(spec: &Spec) -> Server {
    Server::bind(ServerConfig {
        scheduler: scheduler_config(spec),
        slot_threads: slot_threads(spec),
        connection_threads: 2,
        ..ServerConfig::default()
    })
    .expect("bind a loopback port")
}

pub fn build(spec: &Spec) -> Built {
    let mut times = SetupTimes::default();
    let (model, build_s) = timed(|| WeightGenerator::new(&spec.model.config(), MODEL_SEED).build());
    times.build_s = build_s;
    let predictor = (spec.engine != EngineKind::Dense).then(|| {
        let (p, s) = timed(|| SignBitPredictor::from_model(&model, AlphaSchedule::uniform(1.0)));
        times.predictor_s = s;
        Arc::new(p) as Arc<dyn SparsityPredictor>
    });
    let quantized = (spec.engine == EngineKind::SignbitInt8).then(|| {
        let (q, s) = timed(|| QuantizedWeights::quantize(&model));
        times.quantize_s = s;
        Arc::new(q)
    });
    let server = matches!(spec.driver, Driver::Http { .. }).then(|| {
        let (server, s) = timed(|| build_server(spec));
        times.bind_s = s;
        server
    });
    Built {
        model,
        predictor,
        quantized,
        server,
        times,
    }
}

/// Builds the workload's engine, one per request, from the shared
/// predictor and weights; wraps it for tracing when a tracer is set.
pub struct Engines<'m> {
    pub model: &'m Model,
    predictor: Option<Arc<dyn SparsityPredictor>>,
    quantized: Option<Arc<QuantizedWeights>>,
    tracer: Option<Tracer>,
}

impl<'m> Engines<'m> {
    pub fn new(built: &'m Built, tracer: Option<Tracer>) -> Self {
        Self {
            model: &built.model,
            predictor: built.predictor.clone(),
            quantized: built.quantized.clone(),
            tracer,
        }
    }

    /// The workload's engine, never traced: the reference for output
    /// checks and the subject of probes.
    pub fn bare(&self) -> Box<dyn Engine + 'm> {
        let mut builder = EngineBuilder::new(self.model);
        if let Some(p) = &self.predictor {
            builder = builder.predictor_shared(Arc::clone(p));
        }
        if let Some(q) = &self.quantized {
            builder = builder.quantized_shared(Arc::clone(q));
        }
        builder
            .build()
            .expect("predictor and weights were built from this model")
    }

    /// The engine serving request `id`.
    pub fn for_request(&self, id: usize) -> Box<dyn Engine + 'm> {
        match &self.tracer {
            Some(tracer) => Box::new(TracedEngine::new(self.bare(), tracer.buf(), id as i64)),
            None => self.bare(),
        }
    }

    /// The dense f32 engine over the same model: the accuracy reference.
    pub fn dense(&self) -> Box<dyn Engine + 'm> {
        EngineBuilder::new(self.model)
            .build()
            .expect("a dense engine needs nothing validated")
    }
}
