//! Engine columns of a shared forward step.
//!
//! A [`Model::step`] runs some positions of several sessions as the
//! columns of one pass over the weights. A *prefill column* keeps every MLP
//! row and is billed to nobody; an *engine column* is a position an engine
//! scores: its rows come from the engine's predictor, it runs over the
//! engine's weight storage, and its work goes on the engine's
//! [`OpCounter`] and [`SparsityStats`]. [`ColumnStage`] is what an engine
//! lends a step for its columns ([`Engine::column_stage`]), and
//! [`StepColumns`] is the step's MLP hook over any mix of the two kinds:
//! one engine's verify block, a lone run's prompt head with its last token,
//! or a scheduler tick's every slot.
//!
//! Per layer the hook predicts each engine column's mask from the column's
//! normed input, then runs one [`gated_mlp_into`] per weight storage present
//! — the model's own `f32` block (every prefill column, and `f32` engines)
//! or one shared [`QuantizedWeights`] — each column under its own row filter
//! and its own actual-sparsity option, and bills each engine column, in
//! column order, as a one-column call would. Every column's output is
//! bitwise its own one-column call ([`gated_mlp_into`]'s contract), so
//! nothing a column produces depends on which columns share its step.
//!
//! [`Engine::column_stage`]: crate::engine::Engine::column_stage

use std::sync::Arc;

use sparseinfer_model::model::DecodeSession;
use sparseinfer_model::{gated_mlp_into, GatedMlp, MlpBuffers, MlpHook, Model, PrefillScratch};
use sparseinfer_predictor::{PredictorScratch, SkipMask, SparsityPredictor};
use sparseinfer_tensor::{ThreadPool, Vector, WeightRows};

use crate::engine::{QuantizedWeights, SparsityStats};
use crate::mlp::{bill_mlp, MlpOptions, MlpWeights};
use crate::ops::OpCounter;

/// An engine's share of a step: its predictor, weight storage, options and
/// accounting, with the scratch its columns recycle. The engine's own calls
/// run through it, and it can be lent, by value, to a step that other
/// sessions share. An empty stage (the [`Default`]) allocates nothing.
#[derive(Debug, Default)]
pub struct ColumnStage {
    pub(crate) predictor: Option<Arc<dyn SparsityPredictor>>,
    pub(crate) options: MlpOptions,
    pub(crate) quantized: Option<Arc<QuantizedWeights>>,
    pub(crate) ops: OpCounter,
    /// `Some` exactly when there is a predictor.
    pub(crate) stats: Option<SparsityStats>,
    pub(crate) pool: ThreadPool,
    /// Scratch of the engine's own steps.
    pub(crate) step: PrefillScratch,
    pub(crate) scratch: PredictorScratch,
    /// The predictor's input: a column's normed MLP input.
    pub(crate) x: Vector,
    /// One predicted mask per column the stage has in a step.
    pub(crate) masks: Vec<SkipMask>,
}

impl ColumnStage {
    /// Scores `tokens` through `session` in a step of their own: every
    /// column is this stage's (see [`Engine::score_block_into`](crate::engine::Engine::score_block_into)).
    pub(crate) fn score(
        &mut self,
        model: &Model,
        tokens: &[u32],
        session: &mut DecodeSession,
        logits: &mut [Vector],
    ) {
        assert_eq!(tokens.len(), logits.len(), "one logit vector per token");
        let d = model.config().hidden_dim;
        for offset in 0..tokens.len() {
            self.begin_column(d, session, offset);
        }
        let (mut step, pool) = (std::mem::take(&mut self.step), self.pool.clone());
        let mut groups = StepGroups::default();
        let mut hook = StepColumns::new(std::slice::from_mut(self), |c| Some((0, c)), &mut groups);
        model.step(
            &mut [(tokens, session)],
            &mut hook,
            |_| true,
            logits,
            &pool,
            &mut step,
        );
        self.step = step;
    }

    /// Bills the attention of one engine column, `offset` positions past
    /// `session`'s context in its step, and counts its token.
    pub(crate) fn begin_column(
        &mut self,
        hidden_dim: usize,
        session: &DecodeSession,
        offset: usize,
    ) {
        for cache in &session.caches {
            account_attention(&mut self.ops, hidden_dim, cache.len() + offset + 1);
        }
        if let Some(stats) = &mut self.stats {
            stats.tokens += 1;
        }
    }

    /// Predicts the mask of this stage's column `j` at layer `li` from its
    /// normed input `x`, billing the prediction.
    fn predict(&mut self, li: usize, x: &[f32], j: usize) {
        if self.masks.len() <= j {
            self.masks.resize_with(j + 1, || SkipMask::all_dense(0));
        }
        let Some(predictor) = &self.predictor else {
            return;
        };
        self.x.copy_from(x);
        predictor.predict_into(li, &self.x, &mut self.scratch, &mut self.masks[j]);
        let cost = predictor.prediction_cost(li);
        self.ops.xor_popc += cost.xor_popc;
        self.ops.predictor_macs += cost.macs;
        self.ops.weight_bytes_loaded += cost.bytes_loaded;
    }

    /// Skip word `word` of this stage's column `j` (bit `i`: row
    /// `64 * word + i` dropped); without a predictor every row is kept.
    fn skips(&self, j: usize, word: usize) -> u64 {
        match self.predictor {
            Some(_) => self.masks[j].words()[word],
            None => 0,
        }
    }

    /// Bills this stage's column `j`, input `b` of a `columns`-input pass
    /// of `mlp` that left `bufs`, as
    /// [`sparse_mlp_forward_into`](crate::mlp::sparse_mlp_forward_into)
    /// bills its one input: the gate under the predicted mask, up and down
    /// under it joined (with actual sparsity) by the column's zero gates.
    fn bill<M: MlpWeights>(
        &mut self,
        li: usize,
        mlp: &M,
        j: usize,
        (bufs, columns): (&MlpBuffers, usize),
        b: usize,
    ) {
        let predicted = if self.predictor.is_none() {
            0
        } else {
            self.masks[j].skip_count()
        };
        let mut effective = predicted;
        if self.options.actual_sparsity {
            // A dropped row's gate is the activation of `+0.0`, zero for
            // every activation, and a row off the list has a zero gate in
            // every column: the zeros are the applied mask.
            let gates = bufs.gate.as_slice().chunks_exact(columns);
            let zeros = gates.filter(|row| row[b] == 0.0).count();
            effective = mlp.parts().0.rows() - bufs.kept.len() + zeros;
        }
        let (p, e) = bill_mlp(&mut self.ops, mlp, self.options, predicted, effective);
        if let Some(stats) = &mut self.stats {
            stats.predicted_sum[li] += p;
            stats.effective_sum[li] += e;
        }
    }
}

/// Recycled buffers of the steps whose columns run over more than one
/// weight storage, and the counter of the rows those steps loaded.
#[derive(Debug, Default)]
pub(crate) struct StepGroups {
    /// The step columns of the storage being run.
    members: Vec<usize>,
    /// Their inputs, gathered (`[b][d]`).
    xs: Vector,
    mlp: MlpBuffers,
    /// MLP rows the up and down projections loaded, summed over every
    /// layer and storage of every step.
    pub(crate) rows_loaded: u64,
}

impl StepGroups {
    /// Heap bytes the recycled buffers hold (capacity, not length).
    pub(crate) fn memory_bytes(&self) -> u64 {
        let members = self.members.capacity() * std::mem::size_of::<usize>();
        members as u64 + self.xs.capacity() as u64 * 4 + self.mlp.memory_bytes()
    }
}

/// A step's MLP hook: per column, the stage of `stages` that owns it and
/// the column's index among that stage's columns — `None` for a prefill
/// column.
pub(crate) struct StepColumns<'a, F> {
    stages: &'a mut [ColumnStage],
    column: F,
    groups: &'a mut StepGroups,
}

impl<'a, F> StepColumns<'a, F>
where
    F: Fn(usize) -> Option<(usize, usize)>,
{
    pub(crate) fn new(
        stages: &'a mut [ColumnStage],
        column: F,
        groups: &'a mut StepGroups,
    ) -> Self {
        Self {
            stages,
            column,
            groups,
        }
    }
}

impl<F> MlpHook for StepColumns<'_, F>
where
    F: Fn(usize) -> Option<(usize, usize)>,
{
    fn mlp(
        &mut self,
        li: usize,
        mlp: &GatedMlp,
        xs: &[f32],
        pool: &ThreadPool,
        out: &mut MlpBuffers,
    ) {
        let Self {
            stages,
            column,
            groups,
        } = self;
        let d = mlp.hidden_dim();
        let columns = xs.len() / d;
        for (c, x) in xs.chunks_exact(d).enumerate() {
            if let Some((s, j)) = column(c) {
                stages[s].predict(li, x, j);
            }
        }
        // A column's weight storage: the stage's int8 copy, if any, else
        // the layer's own block (`0`).
        let weights = |stages: &[ColumnStage], c: usize| {
            column(c).and_then(|(s, _)| stages[s].quantized.clone())
        };
        let key = |stages: &[ColumnStage], c: usize| {
            let weights = column(c).and_then(|(s, _)| stages[s].quantized.as_ref());
            weights.map_or(0, arc_id)
        };
        if (1..columns).all(|c| key(stages, c) == key(stages, 0)) {
            let q = weights(stages, 0);
            groups.rows_loaded += run(stages, column, li, mlp, q, xs, |b| b, pool, out);
            return;
        }
        // Columns over different storages: one pass per storage, its
        // columns gathered, in the order of their first column.
        let StepGroups {
            members,
            xs: gathered,
            mlp: bufs,
            rows_loaded,
        } = &mut **groups;
        out.out.resize(columns * d, 0.0);
        for c in 0..columns {
            let storage = key(stages, c);
            if (0..c).any(|e| key(stages, e) == storage) {
                continue;
            }
            members.clear();
            members.extend((c..columns).filter(|&e| key(stages, e) == storage));
            gathered.resize(members.len() * d, 0.0);
            let rows = gathered.as_mut_slice().chunks_exact_mut(d);
            for (x, &m) in rows.zip(members.iter()) {
                x.copy_from_slice(&xs[m * d..][..d]);
            }
            let (q, x) = (weights(stages, c), gathered.as_slice());
            *rows_loaded += run(stages, column, li, mlp, q, x, |b| members[b], pool, bufs);
            let outs = bufs.out.as_slice().chunks_exact(d);
            for (o, &m) in outs.zip(members.iter()) {
                out.out.as_mut_slice()[m * d..][..d].copy_from_slice(o);
            }
        }
    }
}

/// One storage's pass of a layer: input `b` of `xs` is step column
/// `member(b)`, and the pass runs over `quantized`'s layer `li` when there
/// is one, else over `mlp`. Bills the engine columns; returns the rows the
/// up and down projections loaded.
#[allow(clippy::too_many_arguments)] // the hook's state, split for the borrow checker
fn run<F>(
    stages: &mut [ColumnStage],
    column: &F,
    li: usize,
    mlp: &GatedMlp,
    quantized: Option<Arc<QuantizedWeights>>,
    xs: &[f32],
    member: impl Fn(usize) -> usize,
    pool: &ThreadPool,
    bufs: &mut MlpBuffers,
) -> u64
where
    F: Fn(usize) -> Option<(usize, usize)>,
{
    match &quantized {
        Some(q) => pass(stages, column, li, &q.layers()[li], xs, member, pool, bufs),
        None => pass(stages, column, li, mlp, xs, member, pool, bufs),
    }
}

/// [`run`] over one storage format.
#[allow(clippy::too_many_arguments)]
fn pass<F, M: MlpWeights>(
    stages: &mut [ColumnStage],
    column: &F,
    li: usize,
    mlp: &M,
    xs: &[f32],
    member: impl Fn(usize) -> usize,
    pool: &ThreadPool,
    bufs: &mut MlpBuffers,
) -> u64
where
    F: Fn(usize) -> Option<(usize, usize)>,
{
    let owner = |b: usize| column(member(b));
    {
        let stages = &*stages;
        let skips = |b: usize, word| owner(b).map_or(0, |(s, j)| stages[s].skips(j, word));
        let actual = |b: usize| owner(b).is_none_or(|(s, _)| stages[s].options.actual_sparsity);
        gated_mlp_into(mlp, xs, skips, actual, pool, bufs);
    }
    let columns = xs.len() / mlp.parts().0.cols();
    for b in 0..columns {
        if let Some((s, j)) = owner(b) {
            stages[s].bill(li, mlp, j, (bufs, columns), b);
        }
    }
    bufs.kept.len() as u64
}

pub(crate) fn arc_id<T: ?Sized>(shared: &Arc<T>) -> usize {
    Arc::as_ptr(shared) as *const () as usize
}

/// Counts the dense attention work of one layer at context length `ctx`:
/// four `d×d` projections plus score/value accumulation over the context.
fn account_attention(ops: &mut OpCounter, d: usize, ctx: usize) {
    let d = d as u64;
    let ctx = ctx as u64;
    ops.macs += 4 * d * d + 2 * ctx * d;
    ops.weight_bytes_loaded += 4 * d * d * OpCounter::WEIGHT_BYTES;
    // KV cache traffic: read ctx keys + values.
    ops.activation_bytes += 2 * ctx * d * OpCounter::ACTIVATION_BYTES;
}
