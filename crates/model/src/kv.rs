//! The KV cache: reference-counted, fixed-size token blocks from a shared
//! pool, with copy-on-write block tables and a prefix index.
//!
//! A cache that reserved `prompt + max_new` positions up front would hold
//! memory proportional to the *worst case*, per layer, even when generation
//! stops after three tokens. Under churning traffic that over-reservation,
//! multiplied by concurrent requests, is the capacity wall (the same one
//! vLLM's PagedAttention removes for GPU serving). So every cache pages:
//! a serving session over the scheduler's budgeted pool, a solo session
//! over a private one, and a capacity-reserved cache
//! ([`PagedKvCache::with_capacity`]) over a private pool whose one block
//! holds the whole budget.
//!
//! This module splits KV storage into:
//!
//! * [`KvBlockPool`] — a shared, thread-safe allocator of **fixed-size
//!   token blocks** (`block_tokens` positions each). Released blocks go on
//!   a free list and are recycled, so pool capacity tracks *peak live*
//!   usage, never cumulative traffic. An optional block budget
//!   ([`KvBlockPool::with_budget`]) turns the pool into the admission
//!   throttle the scheduler's capacity control is built on.
//! * [`SharedKvBlock`] — one **reference-counted** block. Many caches (and
//!   the [`PrefixIndex`]) can hold the same physical block at once; its
//!   storage returns to the pool's free list only when the *last* referrer
//!   drops. The pool's `in_use` accounting counts physical blocks, so a
//!   block shared by ten sessions costs its bytes once.
//! * [`PagedKvCache`] — one sequence's view: a **copy-on-write block
//!   table** that grows one block at a time, lazily, as tokens are
//!   actually produced. Shared blocks (attached from the prefix index, or
//!   aliased by a [`Clone`](PagedKvCache::clone)) are read-only through
//!   this table; the first write into a shared *partial tail* block forks
//!   a private copy, and writes past a shared boundary allocate fresh
//!   private blocks — a fork never mutates the shared copy.
//! * [`PrefixIndex`] — a map over token-id runs (keyed per model) through
//!   which a full block of prompt KV, once computed, is **published** and
//!   re-attached to later sessions with the same prompt prefix. Retained
//!   entries whose blocks nobody else references are evicted LRU-first
//!   under a configurable cap.
//!
//! Reads go through the block table (`t → block[t / block_tokens]`) and
//! deliver the same stored words in the same order whatever the block
//! size, so every attention kernel is bit-identical over any pool — a block
//! only decides where a [`run`](PagedKvCache::run) of positions ends.
//!
//! A pool stores its elements in one [`KvDtype`] — full-precision `f32`
//! (the default) or half-precision [`F16`] words
//! ([`KvBlockPool::with_budget_dtype`]), which halves every byte figure
//! (`memory_bytes`, `in_use_bytes`, swap sizes) and so doubles how many
//! tokens a given byte budget holds. Callers always *push* `f32` vectors;
//! conversion happens at the block boundary, and an `F16` pool's contents
//! are read back as stored words through [`PagedKvCache::run_h`] (and
//! [`key_h`](PagedKvCache::key_h)/[`value_h`](PagedKvCache::value_h)).
//! All sharing semantics — COW, prefix attach, swap/restore, truncate —
//! are dtype-independent, and because `f16 → f32 → f16` round-trips
//! losslessly, a swap/restore cycle is bit-identical in either dtype.

use sparseinfer_tensor::F16;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Element type of one [`KvBlockPool`]'s storage.
///
/// Fixed at pool construction: one pool, one dtype, like one pool, one
/// model dimension. `F16` halves KV bytes per token — the block *count*
/// budget is unchanged, but every byte-denominated figure (pool footprint,
/// swap sizes, admission estimates) halves, so a byte budget holds twice
/// the tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KvDtype {
    /// Full-precision `f32` elements (the seed behavior).
    #[default]
    F32,
    /// Half-precision [`F16`] elements: pushes round-to-nearest-even at
    /// the block boundary, reads return the stored `F16` words.
    F16,
}

impl KvDtype {
    /// Bytes of one stored scalar.
    pub fn bytes_per_elem(self) -> usize {
        match self {
            KvDtype::F32 => std::mem::size_of::<f32>(),
            KvDtype::F16 => std::mem::size_of::<F16>(),
        }
    }

    /// Lower-case label used by CLI flags and `/stats` sections.
    pub fn label(self) -> &'static str {
        match self {
            KvDtype::F32 => "f32",
            KvDtype::F16 => "f16",
        }
    }
}

/// Default tokens per KV block: small enough that a short answer wastes at
/// most a fraction of a block per layer, large enough that the block table
/// stays tiny for long contexts.
pub const DEFAULT_BLOCK_TOKENS: usize = 16;

/// Raw storage of one block, as recycled through the pool's free list:
/// the key/value buffers keep their allocation between owners. The variant
/// always matches the owning pool's [`KvDtype`].
#[derive(Debug, Clone)]
enum KvBlockData {
    F32 { keys: Vec<f32>, values: Vec<f32> },
    F16 { keys: Vec<F16>, values: Vec<F16> },
}

impl KvBlockData {
    fn with_capacity(dtype: KvDtype, cap: usize) -> Self {
        match dtype {
            KvDtype::F32 => KvBlockData::F32 {
                keys: Vec::with_capacity(cap),
                values: Vec::with_capacity(cap),
            },
            KvDtype::F16 => KvBlockData::F16 {
                keys: Vec::with_capacity(cap),
                values: Vec::with_capacity(cap),
            },
        }
    }

    fn dtype(&self) -> KvDtype {
        match self {
            KvBlockData::F32 { .. } => KvDtype::F32,
            KvBlockData::F16 { .. } => KvDtype::F16,
        }
    }

    /// Stored scalars per buffer (`keys` and `values` always agree).
    fn elems(&self) -> usize {
        match self {
            KvBlockData::F32 { keys, .. } => keys.len(),
            KvBlockData::F16 { keys, .. } => keys.len(),
        }
    }

    fn clear(&mut self) {
        match self {
            KvBlockData::F32 { keys, values } => {
                keys.clear();
                values.clear();
            }
            KvBlockData::F16 { keys, values } => {
                keys.clear();
                values.clear();
            }
        }
    }

    fn truncate(&mut self, elems: usize) {
        match self {
            KvBlockData::F32 { keys, values } => {
                keys.truncate(elems);
                values.truncate(elems);
            }
            KvBlockData::F16 { keys, values } => {
                keys.truncate(elems);
                values.truncate(elems);
            }
        }
    }

    /// Appends one position of `f32` key/value vectors, converting at the
    /// boundary when the block stores `F16` (round-to-nearest-even).
    fn push_position(&mut self, key: &[f32], value: &[f32]) {
        match self {
            KvBlockData::F32 { keys, values } => {
                keys.extend_from_slice(key);
                values.extend_from_slice(value);
            }
            KvBlockData::F16 { keys, values } => {
                keys.extend(key.iter().map(|v| F16::from_f32(*v)));
                values.extend(value.iter().map(|v| F16::from_f32(*v)));
            }
        }
    }

    /// Appends `elems` scalars starting at `start` from `src`: a raw copy
    /// between blocks of one dtype (COW forks, swap-out, draft resync), or
    /// a lossless widening of `F16` words into an `f32` block (the draft
    /// resync from an `F16` serving pool — every `f16` value is exactly
    /// representable in `f32`).
    fn extend_range_from(&mut self, src: &KvBlockData, start: usize, elems: usize) {
        match (self, src) {
            (
                KvBlockData::F32 { keys, values },
                KvBlockData::F32 {
                    keys: sk,
                    values: sv,
                },
            ) => {
                keys.extend_from_slice(&sk[start..start + elems]);
                values.extend_from_slice(&sv[start..start + elems]);
            }
            (
                KvBlockData::F16 { keys, values },
                KvBlockData::F16 {
                    keys: sk,
                    values: sv,
                },
            ) => {
                keys.extend_from_slice(&sk[start..start + elems]);
                values.extend_from_slice(&sv[start..start + elems]);
            }
            (
                KvBlockData::F32 { keys, values },
                KvBlockData::F16 {
                    keys: sk,
                    values: sv,
                },
            ) => {
                keys.extend(sk[start..start + elems].iter().map(|v| v.to_f32()));
                values.extend(sv[start..start + elems].iter().map(|v| v.to_f32()));
            }
            (KvBlockData::F16 { .. }, KvBlockData::F32 { .. }) => {
                unreachable!("f32 words never narrow into an f16 block")
            }
        }
    }
}

/// One live, fixed-size block of KV storage: up to `block_tokens` positions
/// of keys and values, filled front to back. Returns its buffers to the
/// owning pool's free list when dropped — which, behind the [`Arc`] in
/// [`SharedKvBlock`], happens exactly when the last referrer lets go.
#[derive(Debug)]
struct PooledKvBlock {
    data: KvBlockData,
    /// Per-position vector width (fixed at allocation).
    dim: usize,
    /// The pool the storage came from and returns to.
    shared: Arc<PoolShared>,
}

impl Drop for PooledKvBlock {
    fn drop(&mut self) {
        let mut data = std::mem::replace(
            &mut self.data,
            KvBlockData::F32 {
                keys: Vec::new(),
                values: Vec::new(),
            },
        );
        data.clear();
        let mut state = PoolShared::state(&self.shared);
        state.free.push(data);
        state.in_use -= 1;
    }
}

/// A reference-counted KV block handle.
///
/// Cloning the handle shares the **same physical block** (the pool's
/// `in_use` count does not move); the storage is recycled only when every
/// clone — block tables and [`PrefixIndex`] entries alike — has dropped.
/// Shared blocks are read-only: [`PagedKvCache`] forks a private copy
/// before its first write into a block with other referrers.
#[derive(Debug, Clone)]
pub struct SharedKvBlock {
    inner: Arc<PooledKvBlock>,
}

impl SharedKvBlock {
    /// Positions currently stored in this block.
    pub fn tokens(&self) -> usize {
        self.inner
            .data
            .elems()
            .checked_div(self.inner.dim)
            .unwrap_or(0)
    }

    /// How many handles (caches, prefix-index entries) reference this
    /// physical block right now — diagnostics for sharing tests.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// The physical block's identity: equal for every handle of one block,
    /// distinct between blocks alive at the same time.
    pub fn id(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Whether this handle is the block's only referrer (safe to mutate).
    fn is_unique(&self) -> bool {
        // No `Weak` handles are ever created, so a strong count of one is
        // exclusive ownership.
        Arc::strong_count(&self.inner) == 1
    }

    fn get_mut(&mut self) -> Option<&mut PooledKvBlock> {
        Arc::get_mut(&mut self.inner)
    }

    fn belongs_to(&self, pool: &KvBlockPool) -> bool {
        Arc::ptr_eq(&self.inner.shared, &pool.shared)
    }
}

#[derive(Debug, Default)]
struct PoolState {
    free: Vec<KvBlockData>,
    /// Blocks created and not yet dropped (free + in use).
    created: usize,
    /// Physical blocks currently held by caches or the prefix index
    /// (shared blocks count **once**, however many referrers they have).
    in_use: usize,
    /// KV dimension, established by the first allocation (0 = none yet).
    dim: usize,
}

#[derive(Debug)]
struct PoolShared {
    block_tokens: usize,
    max_blocks: usize,
    dtype: KvDtype,
    state: Mutex<PoolState>,
}

impl PoolShared {
    fn state(shared: &Arc<PoolShared>) -> std::sync::MutexGuard<'_, PoolState> {
        // Poison-tolerant: every mutation in the critical sections leaves
        // PoolState valid on its own (the budget/dimension asserts fire
        // between them, never mid-update), so a poisoned lock still guards
        // a consistent state — and block `Drop`s must be able to return
        // storage during the very unwind that poisoned it.
        shared
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A shared, thread-safe pool of fixed-size KV blocks.
///
/// Cloning the pool clones a handle (`Arc`): every [`PagedKvCache`] built
/// from any clone allocates from, and releases to, the same free list.
/// Allocation takes a mutex, but only once per `block_tokens` produced
/// tokens per layer — never per token read (caches hold [`SharedKvBlock`]
/// handles outright, so attention reads are lock-free).
///
/// # Example
///
/// ```
/// use sparseinfer_model::kv::{KvBlockPool, PagedKvCache};
///
/// let pool = KvBlockPool::new(4);
/// let mut cache = PagedKvCache::new(&pool);
/// cache.push(&[1.0, 2.0], &[3.0, 4.0]);
/// assert_eq!(cache.key(0), &[1.0, 2.0]);
/// assert_eq!(pool.blocks_in_use(), 1);
/// drop(cache);
/// assert_eq!(pool.blocks_in_use(), 0); // blocks return on drop
/// assert_eq!(pool.blocks_created(), 1); // …and are recycled, not freed
/// ```
#[derive(Debug, Clone)]
pub struct KvBlockPool {
    shared: Arc<PoolShared>,
}

impl KvBlockPool {
    /// An unbounded pool with `block_tokens` positions per block.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero.
    pub fn new(block_tokens: usize) -> Self {
        Self::with_budget(block_tokens, usize::MAX)
    }

    /// A pool capped at `max_blocks` total blocks — the capacity that
    /// admission control budgets against.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` or `max_blocks` is zero.
    pub fn with_budget(block_tokens: usize, max_blocks: usize) -> Self {
        Self::with_budget_dtype(block_tokens, max_blocks, KvDtype::F32)
    }

    /// A budgeted pool whose blocks store `dtype` elements. `KvDtype::F16`
    /// halves every byte figure; the block-count budget is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` or `max_blocks` is zero.
    pub fn with_budget_dtype(block_tokens: usize, max_blocks: usize, dtype: KvDtype) -> Self {
        assert!(block_tokens > 0, "block_tokens must be positive");
        assert!(max_blocks > 0, "max_blocks must be positive");
        Self {
            shared: Arc::new(PoolShared {
                block_tokens,
                max_blocks,
                dtype,
                state: Mutex::new(PoolState::default()),
            }),
        }
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> usize {
        self.shared.block_tokens
    }

    /// Element type of this pool's blocks.
    pub fn dtype(&self) -> KvDtype {
        self.shared.dtype
    }

    /// The block budget (`usize::MAX` when unbounded).
    pub fn max_blocks(&self) -> usize {
        self.shared.max_blocks
    }

    /// Blocks needed to hold `tokens` positions of one sequence in one
    /// layer's cache.
    pub fn blocks_for_tokens(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.shared.block_tokens)
    }

    /// Physical blocks currently held by live caches or a prefix index.
    /// A block shared by many referrers counts **once**.
    pub fn blocks_in_use(&self) -> usize {
        self.state().in_use
    }

    /// Blocks sitting on the free list, ready for reuse.
    pub fn blocks_free(&self) -> usize {
        self.state().free.len()
    }

    /// Blocks created over the pool's lifetime and not yet dropped
    /// (free + in use). Bounded by **peak** concurrent usage, not by how
    /// many requests the pool has ever served.
    pub fn blocks_created(&self) -> usize {
        self.state().created
    }

    /// Blocks still available under the budget (free-list blocks plus
    /// blocks that may still be created).
    pub fn available_blocks(&self) -> usize {
        self.shared.max_blocks.saturating_sub(self.state().in_use)
    }

    /// Bytes of one block (keys + values), once the KV dimension is known.
    fn block_bytes(&self, dim: usize) -> u64 {
        2 * (self.shared.block_tokens * dim * self.shared.dtype.bytes_per_elem()) as u64
    }

    /// Total bytes of every block the pool has created (free + in use) —
    /// the pool's resident footprint.
    pub fn memory_bytes(&self) -> u64 {
        let state = self.state();
        state.created as u64 * self.block_bytes(state.dim)
    }

    /// Bytes of the physical blocks currently held by live caches or a
    /// prefix index — the O(live tokens) quantity admission control keeps
    /// bounded. Shared blocks are counted **once**, not per referrer, so
    /// serving-layer memory estimates must add this exactly once (never
    /// per session).
    pub fn in_use_bytes(&self) -> u64 {
        let state = self.state();
        state.in_use as u64 * self.block_bytes(state.dim)
    }

    fn state(&self) -> std::sync::MutexGuard<'_, PoolState> {
        PoolShared::state(&self.shared)
    }

    /// Hands out one private (refcount-1) block for `dim`-sized
    /// keys/values.
    ///
    /// # Panics
    ///
    /// Panics if the budget is exhausted (a serving layer must gate
    /// admission on [`available_blocks`](Self::available_blocks) so this
    /// never fires) or if `dim` disagrees with earlier allocations.
    fn alloc(&self, dim: usize) -> SharedKvBlock {
        let data = {
            let mut state = self.state();
            if state.dim == 0 {
                state.dim = dim;
            } else {
                assert_eq!(
                    state.dim, dim,
                    "KV block pool is dimension-{} but a cache pushed dimension-{dim} vectors \
                     (one pool serves one model)",
                    state.dim
                );
            }
            let data = match state.free.pop() {
                Some(data) => data,
                None => {
                    assert!(
                        state.created < self.shared.max_blocks,
                        "KV block budget exhausted ({} blocks): admission control must keep \
                         worst-case reservations within the pool budget",
                        self.shared.max_blocks
                    );
                    state.created += 1;
                    let cap = self.shared.block_tokens * dim;
                    KvBlockData::with_capacity(self.shared.dtype, cap)
                }
            };
            state.in_use += 1;
            data
        };
        SharedKvBlock {
            inner: Arc::new(PooledKvBlock {
                data,
                dim,
                shared: Arc::clone(&self.shared),
            }),
        }
    }

    /// Allocates a private block and copies `src`'s contents into it —
    /// the copy-on-write fork.
    fn alloc_copy(&self, src: &SharedKvBlock) -> SharedKvBlock {
        self.alloc_copy_prefix(src, src.tokens())
    }

    /// Allocates a private block and copies the first `tokens` positions of
    /// `src` into it — the copy-on-write fork of a truncation that lands
    /// mid-way through a shared block.
    fn alloc_copy_prefix(&self, src: &SharedKvBlock, tokens: usize) -> SharedKvBlock {
        let dim = src.inner.dim;
        let mut copy = self.alloc(dim);
        let block = copy.get_mut().expect("freshly allocated block is private");
        block
            .data
            .extend_range_from(&src.inner.data, 0, tokens * dim);
        copy
    }
}

/// One sequence's paged KV cache: a lazily grown, copy-on-write block
/// table over a shared [`KvBlockPool`].
///
/// Tokens append in order; every `block_tokens`-th push allocates one more
/// block from the pool. Blocks attached from a [`PrefixIndex`] hit (or
/// aliased by [`Clone`](Self::clone)) are *shared* — reads go straight
/// through, but the first push into a shared partial tail forks a private
/// copy, so a fork never mutates the shared block. [`clear`](Self::clear)
/// and `Drop` release every handle; the physical storage returns to the
/// pool when the last referrer is gone, so a retired request's private KV
/// memory is reusable immediately.
#[derive(Debug)]
pub struct PagedKvCache {
    pool: KvBlockPool,
    blocks: Vec<SharedKvBlock>,
    /// KV dimension, established by the first push (0 = none yet).
    dim: usize,
    /// Cached positions.
    len: usize,
}

impl PagedKvCache {
    /// An empty cache over `pool` (no blocks held yet).
    pub fn new(pool: &KvBlockPool) -> Self {
        Self {
            pool: pool.clone(),
            blocks: Vec::new(),
            dim: 0,
            len: 0,
        }
    }

    /// An empty cache of dimension-`dim` positions over a private pool
    /// whose one block holds `tokens` of them: attention reads the whole
    /// context as a single run, and pushes within the budget allocate
    /// nothing after the first (which takes the block). Pushes past it
    /// continue into further blocks of the same size.
    pub fn with_capacity(dim: usize, tokens: usize) -> Self {
        Self {
            dim,
            ..Self::new(&KvBlockPool::new(tokens.max(1)))
        }
    }

    /// A cache whose context starts as `blocks` — **full**, shared blocks
    /// (typically a [`PrefixIndex`] hit) covering
    /// `blocks.len() × block_tokens` positions. The attached blocks are
    /// aliased, not copied: no new physical block is allocated, and the
    /// new cache must never write into them (pushes go past the attached
    /// boundary into fresh private blocks by construction).
    ///
    /// # Panics
    ///
    /// Panics if any block is not completely full, came from a different
    /// pool, or disagrees with the others on the KV dimension.
    pub fn with_prefix(pool: &KvBlockPool, blocks: Vec<SharedKvBlock>) -> Self {
        let bt = pool.block_tokens();
        let mut dim = 0usize;
        for (i, block) in blocks.iter().enumerate() {
            assert!(
                block.belongs_to(pool),
                "prefix block {i} belongs to a different pool"
            );
            assert_eq!(
                block.tokens(),
                bt,
                "prefix block {i} is partial: only full blocks are sharable"
            );
            if dim == 0 {
                dim = block.inner.dim;
            } else {
                assert_eq!(dim, block.inner.dim, "prefix block {i} dimension mismatch");
            }
        }
        let len = blocks.len() * bt;
        Self {
            pool: pool.clone(),
            blocks,
            dim,
            len,
        }
    }

    /// The pool this cache allocates from.
    pub fn pool(&self) -> &KvBlockPool {
        &self.pool
    }

    /// Element type of this cache's storage (the pool's dtype).
    pub fn dtype(&self) -> KvDtype {
        self.pool.dtype()
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Blocks currently referenced by this cache's block table (shared
    /// blocks included).
    pub fn blocks_held(&self) -> usize {
        self.blocks.len()
    }

    /// The block table itself — shared handles in position order, for
    /// publication into a [`PrefixIndex`] and sharing diagnostics.
    pub fn block_refs(&self) -> &[SharedKvBlock] {
        &self.blocks
    }

    /// Positions the held blocks can store before the next allocation.
    pub fn capacity_tokens(&self) -> usize {
        self.blocks.len() * self.pool.block_tokens()
    }

    /// Appends one position, allocating a block from the pool when the
    /// current one is full — and forking a private copy first if the tail
    /// block is shared (copy-on-write; the shared copy is never mutated).
    ///
    /// # Panics
    ///
    /// Panics if `key` and `value` differ in length or disagree with the
    /// dimension established by earlier pushes, or if the pool's block
    /// budget is exhausted.
    pub fn push(&mut self, key: &[f32], value: &[f32]) {
        assert_eq!(key.len(), value.len(), "key/value length mismatch");
        self.establish_dim(key.len());
        self.writable_tail().push_position(key, value);
        self.len += 1;
    }

    /// Appends position `t` of `src` as a **raw, dtype-preserving copy** —
    /// no f32 round trip, so an `F16` position lands bit-identical — or,
    /// from an `F16` source into an `f32` cache, widened losslessly. This is
    /// the cross-cache transfer primitive (speculative draft resync).
    ///
    /// # Panics
    ///
    /// Panics if an `f32` source would have to narrow into an `F16` cache,
    /// if the dimensions disagree, or if `t >= src.len()`.
    pub fn push_from(&mut self, src: &PagedKvCache, t: usize) {
        assert!(
            self.dtype() == src.dtype() || self.dtype() == KvDtype::F32,
            "push_from requires matching KV dtypes (or f16 widening into f32)"
        );
        let (block, offset) = src.slot(t);
        let src_data = &src.blocks[block].inner.data;
        self.establish_dim(src.dim);
        self.writable_tail()
            .extend_range_from(src_data, offset, src.dim);
        self.len += 1;
    }

    fn establish_dim(&mut self, dim: usize) {
        if self.dim == 0 {
            assert!(dim > 0, "kv dimension must be positive");
            self.dim = dim;
        } else {
            assert_eq!(dim, self.dim, "kv dimension mismatch");
        }
    }

    /// The tail block's storage, ready for one more position: allocates
    /// when full, and forks a shared tail first (copy-on-write — a COW
    /// clone or partial-prefix attach is never mutated).
    fn writable_tail(&mut self) -> &mut KvBlockData {
        if self.len == self.capacity_tokens() {
            self.blocks.push(self.pool.alloc(self.dim));
        }
        let tail = self.blocks.last_mut().expect("block allocated above");
        if !tail.is_unique() {
            *tail = self.pool.alloc_copy(tail);
        }
        let block = tail.get_mut().expect("tail is private after the fork");
        &mut block.data
    }

    fn slot(&self, t: usize) -> (usize, usize) {
        assert!(
            t < self.len,
            "position {t} out of bounds (len {})",
            self.len
        );
        let bt = self.pool.block_tokens();
        (t / bt, (t % bt) * self.dim)
    }

    /// The key vector cached at position `t` (pools storing `f32`).
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()`, or if the pool stores `F16` — readers
    /// of a half-precision pool go through [`key_h`](Self::key_h).
    pub fn key(&self, t: usize) -> &[f32] {
        let (block, offset) = self.slot(t);
        match &self.blocks[block].inner.data {
            KvBlockData::F32 { keys, .. } => &keys[offset..offset + self.dim],
            KvBlockData::F16 { .. } => panic!("f16 KV cache: read keys via key_h"),
        }
    }

    /// The value vector cached at position `t` (pools storing `f32`).
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()`, or if the pool stores `F16` — readers
    /// of a half-precision pool go through [`value_h`](Self::value_h).
    pub fn value(&self, t: usize) -> &[f32] {
        let (block, offset) = self.slot(t);
        match &self.blocks[block].inner.data {
            KvBlockData::F32 { values, .. } => &values[offset..offset + self.dim],
            KvBlockData::F16 { .. } => panic!("f16 KV cache: read values via value_h"),
        }
    }

    /// The keys and values from position `t` to the end of its block, as
    /// two position-major slabs (pools storing `f32`) — the *run* of
    /// positions starting at `t` that lie back to back in memory, so a
    /// kernel walks a block with one lookup instead of one per position.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()`, or if the pool stores `F16`.
    pub fn run(&self, t: usize) -> (&[f32], &[f32]) {
        let (block, offset) = self.slot(t);
        match &self.blocks[block].inner.data {
            KvBlockData::F32 { keys, values } => (&keys[offset..], &values[offset..]),
            KvBlockData::F16 { .. } => panic!("f16 KV cache: read runs via run_h"),
        }
    }

    /// [`run`](Self::run) as stored `F16` words (pools storing `F16`).
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()` or if the pool stores `f32`.
    pub fn run_h(&self, t: usize) -> (&[F16], &[F16]) {
        let (block, offset) = self.slot(t);
        match &self.blocks[block].inner.data {
            KvBlockData::F16 { keys, values } => (&keys[offset..], &values[offset..]),
            KvBlockData::F32 { .. } => panic!("f32 KV cache: read runs via run"),
        }
    }

    /// The key vector cached at position `t` as stored `F16` words (pools
    /// storing `F16`).
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()` or if the pool stores `f32`.
    pub fn key_h(&self, t: usize) -> &[F16] {
        let (block, offset) = self.slot(t);
        match &self.blocks[block].inner.data {
            KvBlockData::F16 { keys, .. } => &keys[offset..offset + self.dim],
            KvBlockData::F32 { .. } => panic!("f32 KV cache: read keys via key"),
        }
    }

    /// The value vector cached at position `t` as stored `F16` words (pools
    /// storing `F16`).
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()` or if the pool stores `f32`.
    pub fn value_h(&self, t: usize) -> &[F16] {
        let (block, offset) = self.slot(t);
        match &self.blocks[block].inner.data {
            KvBlockData::F16 { values, .. } => &values[offset..offset + self.dim],
            KvBlockData::F32 { .. } => panic!("f32 KV cache: read values via value"),
        }
    }

    /// Rolls the cache back to `len` positions (a no-op when `len` is not
    /// smaller than the current length). Whole blocks past the new boundary
    /// are released — their physical storage returns to the pool the moment
    /// this cache was the last referrer — and a partial tail is cut down in
    /// place when private, or **forked** first when shared: a truncated
    /// fork never mutates a block other referrers (a COW clone, the prefix
    /// index) still read.
    ///
    /// This is the rollback primitive of speculative decoding: rejected
    /// draft positions are discarded without disturbing the accepted
    /// context, bit-for-bit.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        if len == 0 {
            self.clear();
            return;
        }
        let bt = self.pool.block_tokens();
        let keep = len.div_ceil(bt);
        self.blocks.truncate(keep);
        // Tokens the boundary block must keep (1..=block_tokens).
        let tail_tokens = len - (keep - 1) * bt;
        let tail = self.blocks.last_mut().expect("len > 0 keeps a block");
        if tail.tokens() > tail_tokens {
            if tail.is_unique() {
                let block = tail.get_mut().expect("unique tail");
                let dim = block.dim;
                block.data.truncate(tail_tokens * dim);
            } else {
                // Copy-on-write: other referrers keep the full block.
                *tail = self.pool.alloc_copy_prefix(tail, tail_tokens);
            }
        }
        self.len = len;
    }

    /// Releases every block handle and resets to an empty context.
    /// Physical blocks whose last referrer this was return to the pool.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.len = 0;
    }

    /// Bytes of KV **content** this cache currently holds (`len` positions
    /// of keys plus values) — the size of the cold buffer a
    /// [`swap_out`](Self::swap_out) would produce, counting shared blocks
    /// as if they were private (a swapped cache is fully self-contained).
    pub fn content_bytes(&self) -> u64 {
        2 * (self.len * self.dim * self.pool.dtype().bytes_per_elem()) as u64
    }

    /// Swaps this cache out to a cold buffer: copies every cached position
    /// (shared prefix blocks included — the cold copy is self-contained)
    /// and releases **all** block handles, returning the physical storage
    /// of every privately held block to the pool immediately. The cache is
    /// left empty but attached to its pool; [`restore`](Self::restore)
    /// brings the exact same contents back into freshly allocated private
    /// blocks. Copies are raw dtype-preserving moves, so a restored cache
    /// reads bit-identically to the cache that was swapped out — in `F16`
    /// pools too (the cold words are the stored half-precision words).
    pub fn swap_out(&mut self) -> SwappedKvCache {
        let mut data = KvBlockData::with_capacity(self.pool.dtype(), self.len * self.dim);
        for block in &self.blocks {
            data.extend_range_from(&block.inner.data, 0, block.inner.data.elems());
        }
        debug_assert_eq!(
            data.elems(),
            self.len * self.dim,
            "blocks cover len exactly"
        );
        let swapped = SwappedKvCache {
            data,
            dim: self.dim,
            len: self.len,
        };
        self.blocks.clear();
        self.len = 0;
        swapped
    }

    /// Restores a previously swapped-out context into this (empty) cache:
    /// allocates fresh private blocks from the pool and copies the cold
    /// buffer back, position by position. After restore the cache holds
    /// exactly the swapped contents — same length, same vectors — in
    /// all-private blocks (shared prefix attachments do not survive a
    /// swap/restore cycle; they are rebuilt as private copies).
    ///
    /// # Panics
    ///
    /// Panics if the cache is not empty, if the cold buffer's dtype does
    /// not match the pool's, or if the pool's block budget cannot cover the
    /// restored blocks (a serving layer must reserve capacity before
    /// restoring).
    pub fn restore(&mut self, swapped: &SwappedKvCache) {
        assert!(self.is_empty(), "restore requires an empty cache");
        assert_eq!(
            swapped.data.dtype(),
            self.pool.dtype(),
            "swap/restore dtype mismatch (one pool, one dtype)"
        );
        if swapped.len == 0 {
            return;
        }
        let dim = swapped.dim;
        self.establish_dim(dim);
        for t in 0..swapped.len {
            self.writable_tail()
                .extend_range_from(&swapped.data, t * dim, dim);
            self.len += 1;
        }
    }
}

/// The cold buffer of one swapped-out [`PagedKvCache`]: a flat,
/// self-contained copy of its keys and values, holding **no** pool blocks
/// (the swapped cache's physical storage went back to the free list).
/// Produced by [`PagedKvCache::swap_out`], consumed by
/// [`PagedKvCache::restore`]; [`bytes`](Self::bytes) is the cold footprint
/// a serving layer accounts against its swap budget.
#[derive(Debug, Clone)]
pub struct SwappedKvCache {
    /// Dtype-matched words (an `F16` cache swaps out half-precision words,
    /// so the cold footprint is honest).
    data: KvBlockData,
    dim: usize,
    len: usize,
}

impl SwappedKvCache {
    /// Positions held in the cold buffer.
    pub fn tokens(&self) -> usize {
        self.len
    }

    /// Element type of the cold words.
    pub fn dtype(&self) -> KvDtype {
        self.data.dtype()
    }

    /// Bytes of the cold buffer (keys plus values).
    pub fn bytes(&self) -> u64 {
        (2 * self.data.elems() * self.data.dtype().bytes_per_elem()) as u64
    }
}

impl Clone for PagedKvCache {
    /// Copy-on-write clone: the copy shares every block with the original
    /// (no physical allocation, the pool's `in_use` count is unchanged).
    /// The first push on either side into the shared partial tail forks a
    /// private copy of just that block; full shared blocks are never
    /// touched by either side again.
    fn clone(&self) -> Self {
        Self {
            pool: self.pool.clone(),
            blocks: self.blocks.clone(),
            dim: self.dim,
            len: self.len,
        }
    }
}

/// A prefix-cache hit: shared blocks covering the first
/// [`tokens`](Self::tokens) positions of a prompt, per layer.
#[derive(Debug, Clone)]
pub struct PrefixHit {
    /// Prompt positions the attached blocks cover (a multiple of the
    /// pool's `block_tokens`).
    pub tokens: usize,
    /// `layer_blocks[layer]` holds that layer's shared blocks, in
    /// position order — one entry per model layer.
    pub layer_blocks: Vec<Vec<SharedKvBlock>>,
}

impl PrefixHit {
    /// Total shared block handles across every layer.
    pub fn total_blocks(&self) -> usize {
        self.layer_blocks.iter().map(Vec::len).sum()
    }
}

/// Key of one published block boundary: the model it was computed on
/// (pointer identity — stable for the serving scope that owns the index,
/// see [`PrefixIndex::lookup`]), the id of the **parent** boundary's
/// entry (0 for the first block), and the token ids of **this block's run
/// only**. Parent-chaining makes full-prefix equality hold by induction
/// while keeping key size O(`block_tokens`) per boundary — a walk over an
/// `L`-token prefix copies and hashes O(`L`) tokens total, not O(`L²`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PrefixKey {
    model: usize,
    parent: u64,
    tokens: Box<[u32]>,
}

/// One published block boundary: the `i`-th block of every layer for a
/// given token run of length `(i + 1) × block_tokens`.
#[derive(Debug)]
struct PrefixEntry {
    /// This boundary's identity, referenced by its children's keys. Ids
    /// are never reused, so an evicted boundary's children can never be
    /// re-parented onto an unrelated later entry.
    id: u64,
    /// `blocks[layer]` is that layer's block for this boundary.
    blocks: Vec<SharedKvBlock>,
    /// LRU stamp (monotonic use counter, not wall time).
    stamp: u64,
}

impl PrefixEntry {
    /// Whether the index is this entry's only referrer (evictable).
    fn is_unreferenced(&self) -> bool {
        self.blocks.iter().all(|b| b.ref_count() == 1)
    }
}

/// An index of published prompt-prefix KV blocks, keyed by token-id runs.
///
/// Serving layers publish the full blocks of a request's **densely
/// prefilled** prompt region here once computed; later requests whose
/// prompts start with the same token run re-attach those blocks instead of
/// recomputing and re-storing them — prefill work and KV memory become
/// O(unique tokens) instead of O(requests × tokens).
///
/// Entries are stored per block boundary and chained by parent id (each
/// key holds only its own block’s tokens), so two
/// prompts sharing only their first block still share that block, and
/// both lookup and publication over an `L`-token prefix cost O(`L`)
/// token copies/hashes total. Retained entries keep their blocks' storage
/// alive in the pool; entries nobody else references are evicted
/// LRU-first through [`evict_unreferenced_to`](Self::evict_unreferenced_to).
/// Entries whose blocks are still attached to live sessions are never
/// evicted.
///
/// The index is single-threaded by design (the scheduler owns it and
/// touches it only between decode ticks); the blocks it hands out are
/// `Send + Sync` and read lock-free from worker threads.
#[derive(Debug, Default)]
pub struct PrefixIndex {
    entries: HashMap<PrefixKey, PrefixEntry>,
    /// Monotonic use counter backing the LRU stamps.
    clock: u64,
    /// Boundary-id generator (0 is reserved for "no parent").
    next_id: u64,
}

impl PrefixIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of published block boundaries (entries).
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total block handles the index retains (each physical block appears
    /// in exactly one entry, so this is also a physical count).
    pub fn retained_blocks(&self) -> usize {
        self.entries.values().map(|e| e.blocks.len()).sum()
    }

    /// Every block handle the index retains, in no particular order.
    pub fn blocks(&self) -> impl Iterator<Item = &SharedKvBlock> {
        self.entries.values().flat_map(|e| &e.blocks)
    }

    /// Retained blocks whose **only** referrer is the index — the blocks
    /// the LRU cap applies to. Blocks still attached to live sessions are
    /// pinned and excluded.
    pub fn unreferenced_blocks(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.is_unreferenced())
            .map(|e| e.blocks.len())
            .sum()
    }

    /// Looks up the longest run of published full blocks matching the
    /// front of `tokens`, limited to `max_tokens` positions (the caller
    /// passes the sharable region — full blocks of the densely prefilled
    /// prompt). Returns `None` on a cold miss. Hits refresh the LRU stamp
    /// of every entry in the run.
    ///
    /// `model` is the caller's identity key for the weights the blocks
    /// were computed with (pointer identity is sound when every submitted
    /// model outlives the index's owner, which the scheduler's lifetime
    /// parameter guarantees).
    pub fn lookup(
        &mut self,
        model: usize,
        tokens: &[u32],
        block_tokens: usize,
        max_tokens: usize,
    ) -> Option<PrefixHit> {
        assert!(block_tokens > 0, "block_tokens must be positive");
        self.clock += 1;
        let stamp = self.clock;
        let mut parent = 0u64;
        let mut runs = 0usize;
        let mut layer_blocks: Vec<Vec<SharedKvBlock>> = Vec::new();
        loop {
            let start = runs * block_tokens;
            let end = start + block_tokens;
            if end > max_tokens || end > tokens.len() {
                break;
            }
            let key = PrefixKey {
                model,
                parent,
                tokens: tokens[start..end].into(),
            };
            let Some(entry) = self.entries.get_mut(&key) else {
                break;
            };
            entry.stamp = stamp;
            parent = entry.id;
            if layer_blocks.is_empty() {
                layer_blocks = vec![Vec::new(); entry.blocks.len()];
            }
            for (layer, block) in entry.blocks.iter().enumerate() {
                layer_blocks[layer].push(block.clone());
            }
            runs += 1;
        }
        if runs == 0 {
            return None;
        }
        Some(PrefixHit {
            tokens: runs * block_tokens,
            layer_blocks,
        })
    }

    /// Publishes the full blocks covering `tokens` (whose length must be a
    /// multiple of `block_tokens`): `per_layer[layer][i]` is that layer's
    /// `i`-th block. Boundaries already present are refreshed, not
    /// replaced — the first publisher wins, so concurrent prefills of the
    /// same prompt converge on one physical copy for all future requests.
    /// Returns the number of block handles newly retained.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is not block-aligned or `per_layer` rows do not
    /// all hold one block per boundary.
    pub fn publish(
        &mut self,
        model: usize,
        tokens: &[u32],
        block_tokens: usize,
        per_layer: &[Vec<SharedKvBlock>],
    ) -> usize {
        assert!(block_tokens > 0, "block_tokens must be positive");
        assert!(
            tokens.len().is_multiple_of(block_tokens),
            "published run must end on a block boundary"
        );
        let runs = tokens.len() / block_tokens;
        assert!(!per_layer.is_empty(), "at least one layer required");
        for layer in per_layer {
            assert_eq!(layer.len(), runs, "one block per boundary per layer");
        }
        self.clock += 1;
        let stamp = self.clock;
        let mut inserted = 0usize;
        let mut parent = 0u64;
        for i in 0..runs {
            let key = PrefixKey {
                model,
                parent,
                tokens: tokens[i * block_tokens..(i + 1) * block_tokens].into(),
            };
            match self.entries.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut occupied) => {
                    let entry = occupied.get_mut();
                    entry.stamp = stamp;
                    parent = entry.id;
                }
                std::collections::hash_map::Entry::Vacant(vacant) => {
                    let blocks: Vec<SharedKvBlock> =
                        per_layer.iter().map(|layer| layer[i].clone()).collect();
                    inserted += blocks.len();
                    self.next_id += 1;
                    let id = self.next_id;
                    vacant.insert(PrefixEntry { id, blocks, stamp });
                    parent = id;
                }
            }
        }
        inserted
    }

    /// Evicts least-recently-used **unreferenced** entries until at most
    /// `cap` unreferenced blocks remain (entries still attached to live
    /// sessions are pinned). Returns the number of block handles dropped;
    /// their storage returns to the pool's free list immediately.
    ///
    /// An evicted boundary makes any deeper boundaries of the same run
    /// unreachable; untouched, their stamps age and they are evicted on
    /// later passes. (Entry counts are small — bounded by the cap — so
    /// the linear scans here are noise next to a single prefill.)
    ///
    /// Every boundary one lookup or publication touched shares its stamp;
    /// among those the newest id — the deepest boundary, since a child is
    /// inserted after its parent — goes first. The victim is thus a pure
    /// function of the call sequence, never of the map's iteration order.
    pub fn evict_unreferenced_to(&mut self, cap: usize) -> usize {
        let mut evicted = 0usize;
        while self.unreferenced_blocks() > cap {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.is_unreferenced())
                .min_by_key(|(_, e)| (e.stamp, std::cmp::Reverse(e.id)))
                .map(|(k, _)| k.clone());
            let Some(key) = victim else { break };
            let entry = self.entries.remove(&key).expect("victim probed above");
            evicted += entry.blocks.len();
        }
        evicted
    }

    /// Drops every entry, returning how many block handles were released.
    pub fn clear(&mut self) -> usize {
        let released = self.retained_blocks();
        self.entries.clear();
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseinfer_tensor::Prng;

    #[test]
    fn blocks_grow_lazily_and_return_on_clear() {
        let pool = KvBlockPool::new(4);
        let mut cache = PagedKvCache::new(&pool);
        assert_eq!(pool.blocks_in_use(), 0);
        for t in 0..9 {
            cache.push(&[t as f32; 2], &[t as f32 + 0.5; 2]);
        }
        // 9 tokens at 4 per block = 3 blocks, allocated only as needed.
        assert_eq!(cache.blocks_held(), 3);
        assert_eq!(pool.blocks_in_use(), 3);
        assert_eq!(cache.len(), 9);
        assert_eq!(cache.key(5), &[5.0; 2]);
        assert_eq!(cache.value(8), &[8.5; 2]);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(pool.blocks_in_use(), 0);
        assert_eq!(pool.blocks_free(), 3);
        assert_eq!(pool.blocks_created(), 3);
    }

    #[test]
    fn released_blocks_are_recycled_not_recreated() {
        let pool = KvBlockPool::new(2);
        for _ in 0..5 {
            let mut cache = PagedKvCache::new(&pool);
            for t in 0..6 {
                cache.push(&[t as f32], &[t as f32]);
            }
        } // drop returns blocks each round
        assert_eq!(pool.blocks_created(), 3, "peak usage, not cumulative");
        assert_eq!(pool.blocks_in_use(), 0);
    }

    #[test]
    fn reads_match_a_contiguous_reference_across_block_boundaries() {
        let pool = KvBlockPool::new(3);
        let mut cache = PagedKvCache::new(&pool);
        let mut keys = Vec::new();
        let mut values = Vec::new();
        for t in 0..11 {
            let k: Vec<f32> = (0..4).map(|i| (t * 4 + i) as f32).collect();
            let v: Vec<f32> = (0..4).map(|i| -((t * 4 + i) as f32)).collect();
            cache.push(&k, &v);
            keys.push(k);
            values.push(v);
        }
        for t in 0..11 {
            assert_eq!(cache.key(t), &keys[t][..], "key {t}");
            assert_eq!(cache.value(t), &values[t][..], "value {t}");
        }
    }

    #[test]
    fn memory_accounting_tracks_blocks() {
        let pool = KvBlockPool::new(4);
        let mut cache = PagedKvCache::new(&pool);
        assert_eq!(pool.memory_bytes(), 0);
        for t in 0..5 {
            cache.push(&[t as f32; 8], &[t as f32; 8]);
        }
        // 2 blocks × 2 (k+v) × 4 tokens × 8 floats × 4 bytes.
        assert_eq!(pool.memory_bytes(), 2 * 2 * 4 * 8 * 4);
        assert_eq!(pool.in_use_bytes(), pool.memory_bytes());
        cache.clear();
        assert_eq!(pool.in_use_bytes(), 0);
        assert_eq!(
            pool.memory_bytes(),
            2 * 2 * 4 * 8 * 4,
            "free blocks stay resident"
        );
    }

    #[test]
    #[should_panic(expected = "KV block budget exhausted")]
    fn budget_exhaustion_panics_with_direction() {
        let pool = KvBlockPool::with_budget(2, 1);
        let mut cache = PagedKvCache::new(&pool);
        for t in 0..3 {
            cache.push(&[t as f32], &[t as f32]);
        }
    }

    #[test]
    fn available_blocks_tracks_budget() {
        let pool = KvBlockPool::with_budget(2, 4);
        assert_eq!(pool.available_blocks(), 4);
        let mut cache = PagedKvCache::new(&pool);
        for t in 0..4 {
            cache.push(&[t as f32], &[t as f32]);
        }
        assert_eq!(pool.available_blocks(), 2);
        drop(cache);
        assert_eq!(pool.available_blocks(), 4, "released blocks free budget");
    }

    #[test]
    fn clone_is_copy_on_write_sharing_blocks_until_a_push() {
        let pool = KvBlockPool::new(2);
        let mut cache = PagedKvCache::new(&pool);
        for t in 0..3 {
            cache.push(&[t as f32; 2], &[t as f32; 2]);
        }
        // 2 blocks live (1 full, 1 half-full partial tail).
        assert_eq!(pool.blocks_in_use(), 2);
        let copy = cache.clone();
        assert_eq!(
            pool.blocks_in_use(),
            2,
            "a COW clone aliases blocks, it does not copy them"
        );
        assert_eq!(copy.len(), 3);
        assert_eq!(copy.key(2), &[2.0; 2]);
        // Writing through the original forks the shared partial tail…
        cache.push(&[9.0; 2], &[9.0; 2]);
        assert_eq!(pool.blocks_in_use(), 3, "first write forks one block");
        // …and the clone still reads the pre-fork contents.
        assert_eq!(copy.len(), 3);
        assert_eq!(copy.key(2), &[2.0; 2]);
        assert_eq!(cache.key(3), &[9.0; 2]);
    }

    #[test]
    fn cow_fork_never_mutates_the_shared_copy() {
        let pool = KvBlockPool::new(4);
        let mut base = PagedKvCache::new(&pool);
        for t in 0..6 {
            base.push(&[t as f32; 2], &[-(t as f32); 2]);
        }
        let mut fork = base.clone();
        // Both sides write their own continuations past the shared state.
        fork.push(&[100.0; 2], &[100.0; 2]);
        base.push(&[200.0; 2], &[200.0; 2]);
        // The shared positions are intact and divergent positions private.
        for t in 0..6 {
            assert_eq!(base.key(t), &[t as f32; 2], "shared key {t}");
            assert_eq!(fork.key(t), &[t as f32; 2], "shared key {t} via fork");
        }
        assert_eq!(fork.key(6), &[100.0; 2]);
        assert_eq!(base.key(6), &[200.0; 2]);
        // Full block 0 stayed physically shared; only the tail forked.
        assert!(Arc::ptr_eq(
            &base.block_refs()[0].inner,
            &fork.block_refs()[0].inner
        ));
        assert!(!Arc::ptr_eq(
            &base.block_refs()[1].inner,
            &fork.block_refs()[1].inner
        ));
    }

    #[test]
    fn shared_blocks_free_only_when_the_last_referrer_drops() {
        let pool = KvBlockPool::new(4);
        let mut base = PagedKvCache::new(&pool);
        for t in 0..8 {
            base.push(&[t as f32], &[t as f32]);
        }
        let prefix: Vec<SharedKvBlock> = base.block_refs()[..2].to_vec();
        assert!(prefix.iter().all(|b| b.tokens() == 4), "both blocks full");

        // Five caches attach the same two full blocks, then drop in a
        // seeded random order; the blocks must stay resident until the
        // very last referrer (base included) is gone.
        let mut attached: Vec<PagedKvCache> = (0..5)
            .map(|_| PagedKvCache::with_prefix(&pool, prefix.clone()))
            .collect();
        drop(prefix);
        assert_eq!(pool.blocks_in_use(), 2, "attaching allocates nothing");
        for cache in &attached {
            assert_eq!(cache.len(), 8);
            assert_eq!(cache.key(5), &[5.0]);
        }
        let mut rng = Prng::seed(0xC0FFEE);
        while !attached.is_empty() {
            let i = rng.below(attached.len());
            attached.swap_remove(i);
            assert_eq!(
                pool.blocks_in_use(),
                2,
                "blocks pinned while any referrer lives"
            );
        }
        drop(base);
        assert_eq!(pool.blocks_in_use(), 0, "last drop frees the blocks");
        assert_eq!(pool.in_use_bytes(), 0);
        assert_eq!(pool.blocks_free(), pool.blocks_created());
    }

    #[test]
    fn with_prefix_extends_into_private_blocks() {
        let pool = KvBlockPool::new(2);
        let mut base = PagedKvCache::new(&pool);
        for t in 0..4 {
            base.push(&[t as f32; 3], &[t as f32; 3]);
        }
        let mut attached = PagedKvCache::with_prefix(&pool, base.block_refs().to_vec());
        assert_eq!(attached.len(), 4);
        attached.push(&[7.0; 3], &[7.0; 3]);
        assert_eq!(attached.len(), 5);
        assert_eq!(attached.key(4), &[7.0; 3]);
        // The push allocated a fresh private block past the prefix.
        assert_eq!(pool.blocks_in_use(), 3);
        assert_eq!(base.len(), 4, "publisher untouched by the continuation");
    }

    #[test]
    #[should_panic(expected = "only full blocks are sharable")]
    fn with_prefix_rejects_partial_blocks() {
        let pool = KvBlockPool::new(4);
        let mut base = PagedKvCache::new(&pool);
        for t in 0..6 {
            base.push(&[t as f32], &[t as f32]);
        }
        // Block 1 holds only 2 of 4 positions.
        let _ = PagedKvCache::with_prefix(&pool, base.block_refs().to_vec());
    }

    #[test]
    #[should_panic(expected = "different pool")]
    fn with_prefix_rejects_foreign_blocks() {
        let pool_a = KvBlockPool::new(2);
        let pool_b = KvBlockPool::new(2);
        let mut base = PagedKvCache::new(&pool_a);
        base.push(&[1.0], &[1.0]);
        base.push(&[2.0], &[2.0]);
        let _ = PagedKvCache::with_prefix(&pool_b, base.block_refs().to_vec());
    }

    #[test]
    fn pool_is_shared_across_clones() {
        let pool = KvBlockPool::new(2);
        let handle = pool.clone();
        let mut cache = PagedKvCache::new(&handle);
        cache.push(&[1.0], &[2.0]);
        assert_eq!(pool.blocks_in_use(), 1);
    }

    #[test]
    #[should_panic(expected = "one pool serves one model")]
    fn mixed_dimensions_on_one_pool_panic() {
        let pool = KvBlockPool::new(2);
        let mut a = PagedKvCache::new(&pool);
        a.push(&[1.0, 2.0], &[3.0, 4.0]);
        let mut b = PagedKvCache::new(&pool);
        b.push(&[1.0], &[2.0]);
    }

    /// Builds a base cache of `tokens` positions over `pool` with a
    /// recognizable fill.
    fn filled_cache(pool: &KvBlockPool, tokens: usize) -> PagedKvCache {
        let mut cache = PagedKvCache::new(pool);
        for t in 0..tokens {
            cache.push(&[t as f32; 2], &[-(t as f32); 2]);
        }
        cache
    }

    #[test]
    fn prefix_index_publishes_and_attaches_runs() {
        let pool = KvBlockPool::new(4);
        let mut index = PrefixIndex::new();
        let model = 0xA11CE;
        let tokens: Vec<u32> = (1..=8).collect();
        // Two layers, two full blocks each.
        let layers: Vec<PagedKvCache> = (0..2).map(|_| filled_cache(&pool, 8)).collect();
        let per_layer: Vec<Vec<SharedKvBlock>> =
            layers.iter().map(|c| c.block_refs().to_vec()).collect();
        let retained = index.publish(model, &tokens, 4, &per_layer);
        assert_eq!(retained, 4, "2 boundaries × 2 layers newly retained");
        assert_eq!(index.entries(), 2);
        assert_eq!(index.retained_blocks(), 4);

        // A prompt sharing both blocks hits both; one sharing only the
        // first block hits one; a cold prompt misses.
        let hit = index
            .lookup(model, &[1, 2, 3, 4, 5, 6, 7, 8, 9], 4, 8)
            .unwrap();
        assert_eq!(hit.tokens, 8);
        assert_eq!(hit.layer_blocks.len(), 2);
        assert_eq!(hit.total_blocks(), 4);
        let partial = index
            .lookup(model, &[1, 2, 3, 4, 9, 9, 9, 9], 4, 8)
            .unwrap();
        assert_eq!(partial.tokens, 4);
        assert!(index.lookup(model, &[9, 2, 3, 4], 4, 4).is_none());
        assert!(
            index.lookup(model + 1, &tokens, 4, 8).is_none(),
            "another model's prompts never match"
        );
        assert!(
            index.lookup(model, &tokens, 4, 3).is_none(),
            "a sub-block sharable region cannot hit"
        );

        // Re-publication of an existing run retains nothing new.
        assert_eq!(index.publish(model, &tokens, 4, &per_layer), 0);
    }

    #[test]
    fn prefix_index_evicts_lru_unreferenced_entries_only() {
        let pool = KvBlockPool::new(2);
        let mut index = PrefixIndex::new();
        let layer = filled_cache(&pool, 6); // 3 full blocks
        index.publish(7, &[1, 2, 3, 4, 5, 6], 2, &[layer.block_refs().to_vec()]);
        assert_eq!(index.retained_blocks(), 3);
        assert_eq!(
            index.unreferenced_blocks(),
            0,
            "publisher still references every block"
        );
        assert_eq!(
            index.evict_unreferenced_to(0),
            0,
            "pinned entries never evict"
        );

        drop(layer);
        assert_eq!(index.unreferenced_blocks(), 3);
        assert_eq!(pool.blocks_in_use(), 3, "index retention keeps blocks live");
        // Touch the deepest boundary so the shallow ones are LRU.
        let _ = index.lookup(7, &[1, 2, 3, 4, 5, 6], 2, 6);
        let evicted = index.evict_unreferenced_to(1);
        assert_eq!(evicted, 2);
        assert_eq!(index.retained_blocks(), 1);
        assert_eq!(pool.blocks_in_use(), 1, "evicted storage returned");
        assert_eq!(index.clear(), 1);
        assert_eq!(pool.blocks_in_use(), 0);
    }

    #[test]
    fn eviction_among_equal_stamps_takes_the_deepest_boundary_first() {
        // One publication stamps its four boundaries alike, and every
        // index iterates its map in an order of its own: the root must
        // survive in each of them.
        let pool = KvBlockPool::new(2);
        let tokens = [1, 2, 3, 4, 5, 6, 7, 8];
        for _ in 0..8 {
            let mut index = PrefixIndex::new();
            let layer = filled_cache(&pool, 8);
            index.publish(7, &tokens, 2, &[layer.block_refs().to_vec()]);
            drop(layer);
            assert_eq!(index.evict_unreferenced_to(1), 3);
            let hit = index.lookup(7, &tokens, 2, 8).expect("the root survives");
            assert_eq!(hit.tokens, 2);
        }
    }

    #[test]
    fn truncate_on_a_block_boundary_releases_whole_blocks() {
        let pool = KvBlockPool::new(4);
        let mut cache = filled_cache(&pool, 11); // 3 blocks: 4 + 4 + 3
        assert_eq!(pool.blocks_in_use(), 3);
        cache.truncate(8);
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.blocks_held(), 2);
        assert_eq!(pool.blocks_in_use(), 2, "dropped block returned");
        assert_eq!(pool.blocks_free(), 1);
        for t in 0..8 {
            assert_eq!(cache.key(t), &[t as f32; 2], "kept key {t}");
            assert_eq!(cache.value(t), &[-(t as f32); 2], "kept value {t}");
        }
        // Appending after the rollback recycles the freed storage.
        cache.push(&[50.0; 2], &[50.0; 2]);
        assert_eq!(cache.len(), 9);
        assert_eq!(cache.key(8), &[50.0; 2]);
        assert_eq!(pool.blocks_created(), 3, "no new blocks created");
    }

    #[test]
    fn truncate_mid_block_cuts_the_private_tail_in_place() {
        let pool = KvBlockPool::new(4);
        let mut cache = filled_cache(&pool, 10); // 3 blocks, tail holds 2
        cache.truncate(6);
        assert_eq!(cache.len(), 6);
        assert_eq!(cache.blocks_held(), 2);
        assert_eq!(pool.blocks_in_use(), 2);
        assert_eq!(
            pool.blocks_created(),
            3,
            "a private mid-block cut must not allocate"
        );
        for t in 0..6 {
            assert_eq!(cache.key(t), &[t as f32; 2], "kept key {t}");
        }
        // The cut tail refills from the truncation point.
        cache.push(&[60.0; 2], &[60.0; 2]);
        cache.push(&[61.0; 2], &[61.0; 2]);
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.key(6), &[60.0; 2]);
        assert_eq!(cache.key(7), &[61.0; 2]);
        assert_eq!(cache.blocks_held(), 2, "refill reuses the cut block");
    }

    #[test]
    fn truncate_to_zero_drains_every_block_to_the_pool() {
        let pool = KvBlockPool::new(4);
        let mut cache = filled_cache(&pool, 9);
        assert_eq!(pool.blocks_in_use(), 3);
        cache.truncate(0);
        assert!(cache.is_empty());
        assert_eq!(cache.blocks_held(), 0);
        assert_eq!(pool.blocks_in_use(), 0, "all storage back on the free list");
        assert_eq!(pool.blocks_free(), pool.blocks_created());
    }

    #[test]
    fn truncate_past_len_is_a_no_op() {
        let pool = KvBlockPool::new(4);
        let mut cache = filled_cache(&pool, 5);
        cache.truncate(5);
        cache.truncate(100);
        assert_eq!(cache.len(), 5);
        assert_eq!(pool.blocks_in_use(), 2);
        assert_eq!(cache.key(4), &[4.0; 2]);
    }

    #[test]
    fn truncating_a_cow_fork_never_touches_the_shared_blocks() {
        let pool = KvBlockPool::new(4);
        let base = filled_cache(&pool, 10); // blocks: 4 + 4 + 2 (partial tail)
        let mut fork = base.clone();
        assert_eq!(pool.blocks_in_use(), 3, "a clone aliases, it does not copy");
        assert_eq!(base.block_refs()[2].ref_count(), 2);

        // Cutting mid-way through the *shared* tail forks a private copy:
        // the shared block keeps all 10 positions for the base.
        fork.truncate(9);
        assert_eq!(fork.len(), 9);
        assert_eq!(pool.blocks_in_use(), 4, "the cut tail forked privately");
        assert_eq!(
            base.block_refs()[2].ref_count(),
            1,
            "fork released its handle on the shared tail"
        );
        assert_eq!(base.block_refs()[2].tokens(), 2, "shared tail intact");
        assert_eq!(base.len(), 10);
        assert_eq!(base.key(9), &[9.0; 2], "base reads its full context");
        assert_eq!(fork.key(8), &[8.0; 2], "fork reads the kept prefix");
        // Full shared blocks stay physically shared after the truncation.
        for i in 0..2 {
            assert!(
                Arc::ptr_eq(&base.block_refs()[i].inner, &fork.block_refs()[i].inner),
                "full block {i} must stay shared"
            );
            assert_eq!(base.block_refs()[i].ref_count(), 2, "refcount block {i}");
        }

        // Cutting *to a shared boundary* only drops handles — no fork, no
        // mutation, and the shared blocks' refcounts drop by exactly one.
        let mut fork2 = base.clone();
        fork2.truncate(4);
        assert_eq!(fork2.len(), 4);
        assert_eq!(fork2.blocks_held(), 1);
        assert_eq!(
            base.block_refs()[0].ref_count(),
            3,
            "block 0: base+fork+fork2"
        );
        assert_eq!(base.block_refs()[1].ref_count(), 2, "block 1: base+fork");
        assert_eq!(base.block_refs()[2].ref_count(), 1, "tail: base only");
        drop(fork);
        drop(fork2);
        drop(base);
        assert_eq!(pool.blocks_in_use(), 0, "pool drains after all forks drop");
    }

    #[test]
    fn truncate_interacts_safely_with_a_prefix_attachment() {
        let pool = KvBlockPool::new(4);
        let mut index = PrefixIndex::new();
        let base = filled_cache(&pool, 8); // 2 full blocks
        index.publish(
            5,
            &[1, 2, 3, 4, 5, 6, 7, 8],
            4,
            &[base.block_refs().to_vec()],
        );
        drop(base);

        let hit = index.lookup(5, &[1, 2, 3, 4, 5, 6, 7, 8], 4, 8).unwrap();
        let mut attached = PagedKvCache::with_prefix(&pool, hit.layer_blocks[0].clone());
        drop(hit);
        for t in 8..11 {
            attached.push(&[t as f32; 2], &[t as f32; 2]);
        }
        assert_eq!(pool.blocks_in_use(), 3);

        // Rolling back within the private continuation leaves the published
        // prefix blocks untouched (still retained, still shared).
        attached.truncate(9);
        assert_eq!(attached.len(), 9);
        assert_eq!(pool.blocks_in_use(), 3, "private tail cut in place");
        assert_eq!(index.retained_blocks(), 2);
        assert_eq!(attached.key(8), &[8.0; 2]);

        // Rolling back *into* the shared region forks the boundary block —
        // the index's copy must stay bit-identical for future hits.
        attached.truncate(6);
        assert_eq!(attached.len(), 6);
        assert_eq!(attached.blocks_held(), 2);
        let refetch = index.lookup(5, &[1, 2, 3, 4, 5, 6, 7, 8], 4, 8).unwrap();
        assert_eq!(refetch.tokens, 8, "published prefix still fully intact");
        assert_eq!(refetch.layer_blocks[0][1].tokens(), 4);
        drop(refetch);
        drop(attached);
        assert_eq!(index.clear(), 2);
        assert_eq!(pool.blocks_in_use(), 0);
    }

    #[test]
    fn swap_out_frees_blocks_and_restore_is_bit_identical() {
        let pool = KvBlockPool::new(4);
        let mut cache = PagedKvCache::new(&pool);
        for t in 0..11 {
            cache.push(&[t as f32; 3], &[-(t as f32); 3]);
        }
        assert_eq!(pool.blocks_in_use(), 3);
        let expected_bytes = cache.content_bytes();
        assert_eq!(expected_bytes, 2 * 11 * 3 * 4);

        let cold = cache.swap_out();
        assert_eq!(cold.tokens(), 11);
        assert_eq!(cold.bytes(), expected_bytes);
        assert!(cache.is_empty());
        assert_eq!(pool.blocks_in_use(), 0, "swap releases every block");
        assert_eq!(cache.content_bytes(), 0);

        cache.restore(&cold);
        assert_eq!(cache.len(), 11);
        assert_eq!(pool.blocks_in_use(), 3, "restored into fresh blocks");
        for t in 0..11 {
            assert_eq!(cache.key(t), &[t as f32; 3], "restored key {t}");
            assert_eq!(cache.value(t), &[-(t as f32); 3], "restored value {t}");
        }
        // The restored cache keeps appending normally.
        cache.push(&[99.0; 3], &[99.0; 3]);
        assert_eq!(cache.key(11), &[99.0; 3]);
    }

    #[test]
    fn swap_out_of_a_prefix_attached_cache_is_self_contained() {
        let pool = KvBlockPool::new(4);
        let mut index = PrefixIndex::new();
        let base = filled_cache(&pool, 8); // 2 full blocks
        index.publish(
            3,
            &[1, 2, 3, 4, 5, 6, 7, 8],
            4,
            &[base.block_refs().to_vec()],
        );
        drop(base);

        let hit = index.lookup(3, &[1, 2, 3, 4, 5, 6, 7, 8], 4, 8).unwrap();
        let mut attached = PagedKvCache::with_prefix(&pool, hit.layer_blocks[0].clone());
        drop(hit);
        attached.push(&[50.0; 2], &[50.0; 2]);
        assert_eq!(pool.blocks_in_use(), 3, "2 shared + 1 private tail");

        let cold = attached.swap_out();
        assert_eq!(
            pool.blocks_in_use(),
            2,
            "private tail freed; index retention keeps the shared prefix"
        );
        assert_eq!(cold.tokens(), 9, "shared positions are copied too");

        attached.restore(&cold);
        assert_eq!(pool.blocks_in_use(), 5, "restored blocks are all private");
        for t in 0..8 {
            assert_eq!(attached.key(t), &[t as f32; 2], "prefix position {t}");
        }
        assert_eq!(attached.key(8), &[50.0; 2]);
        drop(attached);
        assert_eq!(index.clear(), 2);
        assert_eq!(pool.blocks_in_use(), 0);
    }

    #[test]
    fn empty_swap_restore_round_trip_is_a_no_op() {
        let pool = KvBlockPool::new(4);
        let mut cache = PagedKvCache::new(&pool);
        let cold = cache.swap_out();
        assert_eq!(cold.tokens(), 0);
        assert_eq!(cold.bytes(), 0);
        cache.restore(&cold);
        assert!(cache.is_empty());
        assert_eq!(pool.blocks_in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "restore requires an empty cache")]
    fn restore_into_a_non_empty_cache_panics() {
        let pool = KvBlockPool::new(4);
        let mut cache = PagedKvCache::new(&pool);
        cache.push(&[1.0], &[1.0]);
        let cold = cache.swap_out();
        cache.push(&[2.0], &[2.0]);
        cache.restore(&cold);
    }

    #[test]
    fn f16_pool_halves_every_byte_figure() {
        // Mirror of `memory_accounting_tracks_blocks` at KvDtype::F16: the
        // same workload costs exactly half the bytes, block for block.
        let pool = KvBlockPool::with_budget_dtype(4, usize::MAX, KvDtype::F16);
        assert_eq!(pool.dtype(), KvDtype::F16);
        let mut cache = PagedKvCache::new(&pool);
        assert_eq!(pool.memory_bytes(), 0);
        for t in 0..5 {
            cache.push(&[t as f32; 8], &[t as f32; 8]);
        }
        // 2 blocks × 2 (k+v) × 4 tokens × 8 elements × 2 bytes.
        assert_eq!(pool.memory_bytes(), 2 * 2 * 4 * 8 * 2);
        assert_eq!(pool.in_use_bytes(), pool.memory_bytes());
        assert_eq!(cache.content_bytes(), 2 * 5 * 8 * 2);
        cache.clear();
        assert_eq!(pool.in_use_bytes(), 0);
    }

    #[test]
    fn f16_pushes_round_to_nearest_even_and_reads_back_the_stored_words() {
        let pool = KvBlockPool::with_budget_dtype(3, usize::MAX, KvDtype::F16);
        let mut cache = PagedKvCache::new(&pool);
        // Values chosen to exercise exact and rounded cases across an
        // unaligned block boundary (block_tokens = 3).
        let raw: Vec<f32> = (0..7).map(|t| 2048.0 + t as f32).collect();
        for &v in &raw {
            cache.push(&[v, -v], &[v * 0.5, 1.0 + v * 1e-4]);
        }
        for (t, &v) in raw.iter().enumerate() {
            let expect_k = [F16::from_f32(v), F16::from_f32(-v)];
            let expect_v = [F16::from_f32(v * 0.5), F16::from_f32(1.0 + v * 1e-4)];
            assert_eq!(cache.key_h(t), &expect_k, "key {t}");
            assert_eq!(cache.value_h(t), &expect_v, "value {t}");
        }
        // 2049.0 is not representable in f16 (rounds to 2048): the cache
        // must return the *stored* word, not pretend to be lossless.
        assert_eq!(cache.key_h(1)[0].to_f32(), 2048.0);
    }

    #[test]
    #[should_panic(expected = "read keys via key_h")]
    fn f32_readers_of_an_f16_pool_panic_with_direction() {
        let pool = KvBlockPool::with_budget_dtype(2, usize::MAX, KvDtype::F16);
        let mut cache = PagedKvCache::new(&pool);
        cache.push(&[1.0], &[2.0]);
        let _ = cache.key(0);
    }

    #[test]
    fn f16_cow_truncate_and_prefix_semantics_are_dtype_independent() {
        let pool = KvBlockPool::with_budget_dtype(4, usize::MAX, KvDtype::F16);
        let mut base = PagedKvCache::new(&pool);
        for t in 0..10 {
            base.push(&[t as f32; 2], &[-(t as f32); 2]);
        }
        let mut fork = base.clone();
        assert_eq!(pool.blocks_in_use(), 3, "clone aliases, does not copy");
        // Mid-shared-tail truncate forks privately; base reads intact.
        fork.truncate(9);
        assert_eq!(pool.blocks_in_use(), 4);
        assert_eq!(base.key_h(9), &[F16::from_f32(9.0); 2]);
        assert_eq!(fork.key_h(8), &[F16::from_f32(8.0); 2]);
        // Prefix attach over full blocks works unchanged.
        let prefix: Vec<SharedKvBlock> = base.block_refs()[..2].to_vec();
        let attached = PagedKvCache::with_prefix(&pool, prefix);
        assert_eq!(attached.len(), 8);
        assert_eq!(attached.value_h(3), &[F16::from_f32(-3.0); 2]);
        drop((base, fork, attached));
        assert_eq!(pool.blocks_in_use(), 0);
    }

    #[test]
    fn f16_swap_restore_is_bit_identical_and_half_the_cold_bytes() {
        let pool = KvBlockPool::with_budget_dtype(4, usize::MAX, KvDtype::F16);
        let mut cache = PagedKvCache::new(&pool);
        let mut rng = Prng::seed(99);
        let pushed: Vec<(Vec<f32>, Vec<f32>)> = (0..11)
            .map(|_| {
                let k: Vec<f32> = (0..3).map(|_| rng.normal(0.0, 2.0) as f32).collect();
                let v: Vec<f32> = (0..3).map(|_| rng.normal(0.0, 2.0) as f32).collect();
                (k, v)
            })
            .collect();
        for (k, v) in &pushed {
            cache.push(k, v);
        }
        let before: Vec<Vec<F16>> = (0..11).map(|t| cache.key_h(t).to_vec()).collect();

        let cold = cache.swap_out();
        assert_eq!(cold.dtype(), KvDtype::F16);
        assert_eq!(cold.bytes(), 2 * 11 * 3 * 2, "half the f32 cold bytes");
        assert_eq!(pool.blocks_in_use(), 0);

        cache.restore(&cold);
        assert_eq!(cache.len(), 11);
        for (t, expect) in before.iter().enumerate() {
            assert_eq!(cache.key_h(t), &expect[..], "restored key {t}");
        }
    }

    #[test]
    fn push_from_transfers_stored_words_without_a_round_trip() {
        let pool = KvBlockPool::with_budget_dtype(3, usize::MAX, KvDtype::F16);
        let mut src = PagedKvCache::new(&pool);
        for t in 0..7 {
            src.push(&[t as f32 + 0.1; 2], &[t as f32 - 0.1; 2]);
        }
        let mut dst = PagedKvCache::new(&pool);
        for t in 0..7 {
            dst.push_from(&src, t);
        }
        for t in 0..7 {
            assert_eq!(dst.key_h(t), src.key_h(t), "key {t}");
            assert_eq!(dst.value_h(t), src.value_h(t), "value {t}");
        }
        // Same primitive on an f32 pool.
        let pool32 = KvBlockPool::new(3);
        let mut a = PagedKvCache::new(&pool32);
        a.push(&[1.5, 2.5], &[3.5, 4.5]);
        let mut b = PagedKvCache::new(&pool32);
        b.push_from(&a, 0);
        assert_eq!(b.key(0), a.key(0));
    }

    #[test]
    fn push_from_widens_f16_into_f32_exactly() {
        // The speculative draft resync under an f16 serving pool: the f32
        // draft cache receives exactly the stored words, widened.
        let pool = KvBlockPool::with_budget_dtype(2, usize::MAX, KvDtype::F16);
        let mut src = PagedKvCache::new(&pool);
        src.push(&[0.1, 0.2], &[0.3, 0.4]);
        src.push(&[1.1, 1.2], &[1.3, 1.4]);
        let mut dst = PagedKvCache::with_capacity(2, 4);
        dst.push_from(&src, 1);
        dst.push_from(&src, 0);
        let widened = |words: &[F16]| words.iter().map(|v| v.to_f32()).collect::<Vec<_>>();
        assert_eq!(dst.key(0), &widened(src.key_h(1))[..]);
        assert_eq!(dst.value(0), &widened(src.value_h(1))[..]);
        assert_eq!(dst.key(1), &widened(src.key_h(0))[..]);
        assert_eq!(dst.value(1), &widened(src.value_h(0))[..]);
    }

    #[test]
    #[should_panic(expected = "matching KV dtypes")]
    fn push_from_rejects_mixed_dtypes() {
        let f32_pool = KvBlockPool::new(2);
        let f16_pool = KvBlockPool::with_budget_dtype(2, usize::MAX, KvDtype::F16);
        let mut src = PagedKvCache::new(&f32_pool);
        src.push(&[1.0], &[1.0]);
        let mut dst = PagedKvCache::new(&f16_pool);
        dst.push_from(&src, 0);
    }

    #[test]
    fn refcount_torture_random_drop_order_drains_to_zero_bytes() {
        let pool = KvBlockPool::new(4);
        let mut index = PrefixIndex::new();
        let model = 42;
        let tokens: Vec<u32> = (10..22).collect(); // 12 tokens = 3 full blocks
        let base = filled_cache(&pool, 12);
        index.publish(model, &tokens, 4, &[base.block_refs().to_vec()]);
        drop(base);

        // N sessions attach the same prefix and then finish (drop) in a
        // seeded random order interleaved with new attachments.
        let mut rng = Prng::seed(20260727);
        let mut live: Vec<PagedKvCache> = Vec::new();
        let mut peak = 0usize;
        for round in 0..64 {
            if round % 3 != 2 || live.is_empty() {
                let hit = index.lookup(model, &tokens, 4, 12).expect("warm index");
                let mut cache = PagedKvCache::with_prefix(&pool, hit.layer_blocks[0].clone());
                // Each session writes a private continuation.
                cache.push(&[round as f32; 2], &[round as f32; 2]);
                live.push(cache);
            } else {
                let i = rng.below(live.len());
                live.swap_remove(i);
            }
            peak = peak.max(pool.blocks_in_use());
            // Shared prefix is 3 physical blocks however many sessions
            // reference it; only tails multiply.
            assert_eq!(pool.blocks_in_use(), 3 + live.len());
        }
        assert!(peak > 3, "the torture must actually share under load");
        live.clear();
        assert_eq!(pool.blocks_in_use(), 3, "index retention only");
        assert_eq!(index.clear(), 3);
        assert_eq!(pool.blocks_in_use(), 0, "pool drains to zero blocks");
        assert_eq!(pool.in_use_bytes(), 0, "pool drains to zero bytes");
        assert_eq!(pool.blocks_free(), pool.blocks_created());
    }
}
