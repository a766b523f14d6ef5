//! Reusable scratch buffers for the allocation-free decode hot path.
//!
//! Every kernel in the seed implementation heap-allocated its output
//! (`Vec::with_capacity` per GEMV, per activation, per mask). At decode
//! time that is pure overhead: the same sizes recur every token, so after
//! the first step the allocator is only recycling what it just freed — at
//! the cost of lock traffic and cache pollution on every call.
//!
//! A [`Workspace`] is a small LIFO arena of recycled `f32` buffers. Kernels
//! [`take`](Workspace::take) a buffer, write every element they own, and
//! [`give`](Workspace::give) it back; because a decode step performs the
//! same sequence of takes and gives every token, buffer sizes stabilize
//! after one warm-up step and **steady-state decode performs zero heap
//! allocations** (proven by the workspace integration tests with a counting
//! allocator).
//!
//! Buffers returned by [`take`](Workspace::take) have *unspecified
//! contents* — callers must write every element they read (kernels do; the
//! sparse GEMV writes `0.0` to skipped rows and the dot product to active
//! rows, each exactly once). [`take_zeroed`](Workspace::take_zeroed) exists
//! for accumulation patterns. Row lists (`u32` row indices) recycle the
//! same way through [`take_list`](Workspace::take_list).

use crate::Vector;

/// A LIFO pool of recycled `f32` scratch buffers.
///
/// # Example
///
/// ```
/// use sparseinfer_tensor::Workspace;
///
/// let mut ws = Workspace::new();
/// let a = ws.take_zeroed(128);
/// assert_eq!(a.len(), 128);
/// ws.give(a); // recycled: the next take of ≤ 128 elements will not allocate
/// let b = ws.take(64);
/// assert_eq!(b.len(), 64);
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f32>>,
    lists: Vec<Vec<u32>>,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a buffer of length `len` with **unspecified contents** (stale
    /// values from a previous use). Reuses the **best-fitting** pooled
    /// buffer: the smallest capacity that already holds `len`, falling back
    /// to the largest buffer (the one needing the least regrowth) when none
    /// fits. Allocates only while the pool is still warming up or a larger
    /// length than ever seen is requested — in particular, a mixed-size
    /// take/give pattern (small give followed by a large take) reuses the
    /// idle large buffer instead of regrowing the small one.
    pub fn take(&mut self, len: usize) -> Vector {
        let mut best: Option<(usize, usize, bool)> = None; // (index, capacity, fits)
        for (i, buf) in self.pool.iter().enumerate() {
            let cap = buf.capacity();
            let fits = cap >= len;
            let better = match best {
                None => true,
                Some((_, best_cap, best_fits)) => match (fits, best_fits) {
                    (true, false) => true,
                    (false, true) => false,
                    (true, true) => cap < best_cap,
                    (false, false) => cap > best_cap,
                },
            };
            if better {
                best = Some((i, cap, fits));
            }
        }
        let mut buf = match best {
            Some((i, _, _)) => self.pool.swap_remove(i),
            None => Vec::new(),
        };
        if buf.len() < len {
            // Grows only beyond the largest capacity in the pool; within
            // capacity this writes the new tail without allocating.
            buf.resize(len, 0.0);
        } else {
            buf.truncate(len);
        }
        Vector::from_vec(buf)
    }

    /// Takes a zero-filled buffer of length `len`.
    pub fn take_zeroed(&mut self, len: usize) -> Vector {
        let mut v = self.take(len);
        v.fill(0.0);
        v
    }

    /// Returns a buffer to the pool for reuse.
    pub fn give(&mut self, v: Vector) {
        self.pool.push(v.into_vec());
    }

    /// Takes an empty row list, with the capacity of the last one given
    /// back.
    pub fn take_list(&mut self) -> Vec<u32> {
        self.lists.pop().unwrap_or_default()
    }

    /// Returns a row list to the pool for reuse.
    pub fn give_list(&mut self, mut list: Vec<u32>) {
        list.clear();
        self.lists.push(list);
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Total bytes held by pooled buffers (capacity, not length) — the
    /// workspace's contribution to a per-session memory estimate.
    pub fn pooled_bytes(&self) -> u64 {
        let floats = self.pool.iter().map(|b| b.capacity() * size_of::<f32>());
        let lists = self.lists.iter().map(|l| l.capacity() * size_of::<u32>());
        floats.chain(lists).sum::<usize>() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_recycles_the_same_buffer() {
        let mut ws = Workspace::new();
        let mut a = ws.take(100);
        a[0] = 42.0;
        ws.give(a);
        assert_eq!(ws.pooled(), 1);
        let b = ws.take(100);
        assert_eq!(ws.pooled(), 0);
        // Contents are unspecified but the capacity was reused: the stale
        // value written above is still visible, proving no fresh allocation.
        assert_eq!(b[0], 42.0);
    }

    #[test]
    fn take_zeroed_clears_stale_contents() {
        let mut ws = Workspace::new();
        let mut a = ws.take(8);
        a.fill(7.0);
        ws.give(a);
        let b = ws.take_zeroed(8);
        assert!(b.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn shrinking_take_truncates_without_reallocating() {
        let mut ws = Workspace::new();
        ws.give(Vector::zeros(256));
        let v = ws.take(16);
        assert_eq!(v.len(), 16);
        ws.give(v);
        assert!(ws.pooled_bytes() >= 256 * 4, "capacity must be retained");
    }

    #[test]
    fn mixed_size_take_prefers_the_best_fitting_buffer() {
        // Regression: with LIFO reuse, giving a big buffer back *before* a
        // small one meant the next big take popped the small buffer and
        // regrew it while the big one idled in the pool.
        let mut ws = Workspace::new();
        let mut big = Vector::zeros(1024);
        big[0] = 42.0;
        let mut small = Vector::zeros(16);
        small[0] = 7.0;
        ws.give(big);
        ws.give(small); // most recent — the old LIFO pick for any take
        let bytes_before = ws.pooled_bytes();

        let b = ws.take(1024);
        assert_eq!(b[0], 42.0, "must reuse the idle 1024-buffer, not regrow");
        let s = ws.take(16);
        assert_eq!(s[0], 7.0, "the small buffer serves the small take");

        // No buffer was regrown: total pooled capacity is unchanged after
        // a full give-back.
        ws.give(b);
        ws.give(s);
        assert_eq!(ws.pooled_bytes(), bytes_before, "no reallocation");
    }

    #[test]
    fn unfittable_take_grows_the_largest_buffer() {
        let mut ws = Workspace::new();
        ws.give(Vector::zeros(8));
        ws.give(Vector::zeros(128));
        let v = ws.take(256); // nothing fits: the 128-buffer grows (least regrowth)
        assert_eq!(v.len(), 256);
        assert_eq!(ws.pooled(), 1, "the 8-buffer stays pooled untouched");
        assert_eq!(ws.pooled_bytes(), 8 * 4);
    }

    #[test]
    fn empty_workspace_allocates_on_demand() {
        let mut ws = Workspace::new();
        let v = ws.take(10);
        assert_eq!(v.len(), 10);
        assert_eq!(ws.pooled(), 0);
    }
}
