//! A reusable `f32` buffer pool for the tape's hot path.
//!
//! Every tape op used to allocate its output tensor (and the fused drivers
//! their staging buffers) with a fresh `vec![0.0; n]`. A model forward is
//! a few hundred such allocations, most of them the same handful of sizes
//! repeated block after block — pure allocator traffic. [`BufferPool`]
//! recycles those buffers: [`Graph`](crate::Graph) draws every tensor and
//! staging buffer from its pool, and [`Graph::recycle`](crate::Graph::recycle)
//! harvests a finished tape's buffers so the next forward allocates
//! (almost) nothing.
//!
//! Parked buffers live in power-of-two **size classes** (class `k` holds
//! capacities in `[2^k, 2^(k+1))`), so [`BufferPool::take`] is an O(1)
//! pop with no free-list scan on the hot path. A request tries its own
//! class first, then pops the first non-empty larger class unchecked, so
//! it can take a buffer many times its size when the classes between are
//! empty (a 73,728-float request can take a 1,327,104-float buffer that
//! held attention scores).
//!
//! [`BufferPool::take`] returns a **zero-filled** buffer, so pooled code is
//! bit-identical to the `vec![0.0; n]` spelling it replaces — the pool is
//! invisible to the fused-equivalence contract. Ops that overwrite every
//! element before reading (sweeps, gathers, copies) use
//! [`BufferPool::take_full`] instead, which skips the zero-fill memset on
//! reuse; accumulating ops (matmul outputs, im2col staging with padding)
//! must keep [`BufferPool::take`].

/// Number of power-of-two size classes. Class `CLASSES - 1` is unbounded
/// above, so any capacity has a class.
const CLASSES: usize = 28;

/// Free-list cap: beyond this many parked buffers (across all classes),
/// returned buffers are dropped instead of parked.
///
/// The cap counts buffers, not bytes, so it does not bound memory to one
/// tape's working set. A pool that served a large batch keeps that
/// batch's buffers while it serves small ones. And not every parked
/// buffer is working set: [`Graph::recycle`](crate::Graph::recycle) also
/// parks the clone [`Graph::param`](crate::Graph::param) makes of each
/// weight on every forward, and the buffers callers hand to
/// [`Graph::input`](crate::Graph::input). No op asks for most of them
/// again, so a long-lived pool fills its slots with them.
const MAX_FREE: usize = 512;

/// Size class of a buffer of capacity `cap >= 1`: `floor(log2(cap))`,
/// clamped into range. Every buffer in class `k` has capacity `>= 2^k`.
fn class_of(cap: usize) -> usize {
    ((usize::BITS - 1 - cap.leading_zeros()) as usize).min(CLASSES - 1)
}

/// Resizes a parked buffer to `n` elements without touching the values it
/// already holds: shrink by truncation, grow by zero-filling only the new
/// tail. No whole-buffer memset either way.
fn set_len_stale(buf: &mut Vec<f32>, n: usize) {
    if buf.len() >= n {
        buf.truncate(n);
    } else {
        buf.resize(n, 0.0);
    }
}

/// Recycles tensor-sized `Vec<f32>` buffers across ops and graphs.
///
/// Plain data (`Send + Sync`), so pooled graphs keep the tape's
/// thread-safety story: move a pool between threads freely, one graph at a
/// time.
#[derive(Debug)]
pub struct BufferPool {
    classes: Vec<Vec<Vec<f32>>>,
    parked: usize,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self {
            classes: (0..CLASSES).map(|_| Vec::new()).collect(),
            parked: 0,
        }
    }
}

impl BufferPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of parked buffers currently available for reuse.
    #[must_use]
    pub fn free_buffers(&self) -> usize {
        self.parked
    }

    /// Takes a zero-filled buffer of length `n` — semantically identical
    /// to `vec![0.0; n]`, but reusing a previously returned allocation
    /// whose capacity already fits when one is available.
    ///
    /// Reuse first checks `n`'s own size class — capacities there
    /// straddle `n`, so the check scans from the back, where repeated
    /// same-size traffic finds its last-parked buffer immediately — then
    /// pops unchecked from larger classes (every buffer there fits by the
    /// class invariant). A miss allocates fresh with `vec![0.0; n]` (the
    /// zero-page path — cheaper than growing a parked buffer and
    /// memsetting it).
    #[must_use]
    pub fn take(&mut self, n: usize) -> Vec<f32> {
        if n == 0 {
            return Vec::new();
        }
        let floor = class_of(n);
        if let Some(i) = self.classes[floor].iter().rposition(|b| b.capacity() >= n) {
            let mut buf = self.classes[floor].swap_remove(i);
            self.parked -= 1;
            buf.clear();
            buf.resize(n, 0.0);
            return buf;
        }
        for k in floor + 1..CLASSES {
            if let Some(mut buf) = self.classes[k].pop() {
                self.parked -= 1;
                buf.clear();
                buf.resize(n, 0.0);
                return buf;
            }
        }
        vec![0.0; n]
    }

    /// Takes a buffer of length `n` with **unspecified contents** — a
    /// reused buffer keeps whatever stale values it was parked with.
    /// For ops that overwrite every element before the buffer is read
    /// (element-wise sweeps, gathers, whole-buffer copies): the reuse
    /// path skips `take`'s zero-fill memset, which on the pooled
    /// inference hot path runs once per tensor per forward.
    ///
    /// Accumulating consumers (`out += …` matmul drivers, im2col staging
    /// whose padding must stay zero) need [`BufferPool::take`].
    #[must_use]
    pub fn take_full(&mut self, n: usize) -> Vec<f32> {
        if n == 0 {
            return Vec::new();
        }
        let floor = class_of(n);
        if let Some(i) = self.classes[floor].iter().rposition(|b| b.capacity() >= n) {
            let mut buf = self.classes[floor].swap_remove(i);
            self.parked -= 1;
            set_len_stale(&mut buf, n);
            return buf;
        }
        for k in floor + 1..CLASSES {
            if let Some(mut buf) = self.classes[k].pop() {
                self.parked -= 1;
                set_len_stale(&mut buf, n);
                return buf;
            }
        }
        vec![0.0; n]
    }

    /// Parks a buffer for reuse (no-op for zero-capacity buffers, and
    /// buffers beyond the free-list cap are dropped).
    pub fn put(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 && self.parked < MAX_FREE {
            self.classes[class_of(buf.capacity())].push(buf);
            self.parked += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_like_vec_macro() {
        let mut pool = BufferPool::new();
        let mut a = pool.take(8);
        a.iter_mut().for_each(|v| *v = 7.5);
        pool.put(a);
        let b = pool.take(8);
        assert_eq!(b, vec![0.0f32; 8]);
        let c = pool.take(3);
        assert_eq!(c, vec![0.0f32; 3]);
    }

    #[test]
    fn take_full_reuses_without_zeroing() {
        let mut pool = BufferPool::new();
        let mut a = pool.take(8);
        a.iter_mut().for_each(|v| *v = 7.5);
        pool.put(a);
        let b = pool.take_full(8);
        assert_eq!(b, vec![7.5f32; 8], "stale contents are kept");
        pool.put(b);
        // Shrinking keeps the prefix; growing zero-fills only the tail.
        let c = pool.take_full(3);
        assert_eq!(c, vec![7.5f32; 3]);
        pool.put(c);
        let d = pool.take_full(6);
        assert_eq!(d, vec![7.5, 7.5, 7.5, 0.0, 0.0, 0.0]);
        // A miss allocates fresh and zeroed.
        let e = pool.take_full(1000);
        assert_eq!(e, vec![0.0f32; 1000]);
    }

    #[test]
    fn reuses_capacity() {
        let mut pool = BufferPool::new();
        let a = pool.take(100);
        let ptr = a.as_ptr();
        pool.put(a);
        assert_eq!(pool.free_buffers(), 1);
        let b = pool.take(80);
        assert_eq!(b.as_ptr(), ptr, "expected the parked buffer back");
        assert_eq!(pool.free_buffers(), 0);
    }

    #[test]
    fn small_requests_leave_big_buffers_alone() {
        let mut pool = BufferPool::new();
        let small = pool.take(4);
        let big = pool.take(1000);
        let big_ptr = big.as_ptr();
        pool.put(small);
        pool.put(big);
        // A 3-element request fits the small buffer's class, not the big one.
        let s = pool.take(3);
        assert!(
            s.capacity() < 1000,
            "small request must not take the big buffer"
        );
        // A 500-element request can only be served by the big buffer.
        let b = pool.take(500);
        assert_eq!(b.as_ptr(), big_ptr, "expected the big buffer back");
    }

    #[test]
    fn same_class_buffer_too_small_is_skipped() {
        let mut pool = BufferPool::new();
        // cap 70 and the request 100 share class 6 ([64, 128)), but the
        // parked buffer is too small: take must allocate fresh, and the
        // undersized buffer stays parked.
        pool.put(Vec::with_capacity(70));
        let b = pool.take(100);
        assert_eq!(b, vec![0.0f32; 100]);
        assert_eq!(
            pool.free_buffers(),
            1,
            "undersized same-class buffer stays parked"
        );
    }

    #[test]
    fn zero_len_take_and_put() {
        let mut pool = BufferPool::new();
        let b = pool.take(0);
        assert!(b.is_empty());
        pool.put(b);
        assert_eq!(pool.free_buffers(), 0, "empty buffers are not parked");
    }

    #[test]
    fn class_math_is_consistent() {
        // take() pops unchecked from classes above the request's floor
        // class, so the class invariant must guarantee the fit: any
        // capacity in a strictly higher class exceeds the request.
        for n in 1..5000usize {
            for cap in 1..5000usize {
                if class_of(cap) > class_of(n) {
                    assert!(cap > n, "cap {cap} above class of {n} but smaller");
                }
            }
        }
    }
}
