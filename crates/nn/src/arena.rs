//! Thread-local buffer arena for tensor storage.
//!
//! A training step builds a tape of hundreds-to-thousands of nodes, each
//! owning a freshly `malloc`ed `Vec<f32>`, then frees them all when the
//! graph drops — and does it again next step with the *same* shapes.
//! This module turns that churn into a free-list hit: buffers are
//! recycled into per-size-class bins when a [`crate::Graph`] drops (and
//! when backward temporaries die), and the pooled `Tensor` constructors
//! pop them back out. After the first step at a given model shape, a
//! step allocates O(1) fresh buffers.
//!
//! The arena is **thread-local** by design: no locks on the hot path,
//! and a buffer recycled on a thread simply seeds that thread's bins.
//! Under `sqlan_par` (whose workers are per-call scoped threads) the
//! arena persists across steps on the caller thread — the single-thread
//! hot path — and warms up per parallel call on workers.
//!
//! The arena also carries the tape-length hint: [`crate::Graph::new`]
//! sizes its node vector from the previous graph's node count on this
//! thread, so steady-state training never regrows the tape.

use std::cell::RefCell;

/// Buffers kept per size-class bin. Bins hold buffers of capacity
/// `[2^bin, 2^(bin+1))`; at the largest model shapes in this workspace
/// a bin entry is a few hundred KiB, so the cap bounds arena memory to
/// a few MiB per thread in practice.
const MAX_PER_BIN: usize = 64;

/// Size classes up to 2^31 floats; anything larger simply isn't pooled.
const BINS: usize = 32;

struct Arena {
    bins: Vec<Vec<Vec<f32>>>,
    tape_hint: usize,
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena {
        bins: (0..BINS).map(|_| Vec::new()).collect(),
        tape_hint: 0,
    });
}

/// Size class a request of `len` allocates from: smallest power of two
/// ≥ `len`. Every buffer in bin `c` has capacity ≥ 2^c ≥ `len`.
#[inline]
fn class_of_request(len: usize) -> usize {
    (usize::BITS - (len.max(1) - 1).leading_zeros()) as usize
}

/// Bin a buffer of capacity `cap` files back into: floor(log2(cap)),
/// which guarantees the bin's capacity floor.
#[inline]
fn class_of_capacity(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

/// A buffer with `len` zeroed elements (pooled when possible).
pub(crate) fn take_zeroed(len: usize) -> Vec<f32> {
    let mut v = take_empty(len);
    v.resize(len, 0.0);
    v
}

/// An empty buffer with capacity ≥ `cap` (pooled when possible).
pub(crate) fn take_empty(cap: usize) -> Vec<f32> {
    if cap == 0 {
        return Vec::new();
    }
    let class = class_of_request(cap);
    if class >= BINS {
        return Vec::with_capacity(cap);
    }
    match ARENA.with(|a| a.borrow_mut().bins[class].pop()) {
        Some(mut v) => {
            v.clear();
            v
        }
        // Round fresh allocations up to the class size so the buffer
        // files back into the same bin it was taken from.
        None => Vec::with_capacity(1usize << class),
    }
}

/// Return a buffer to this thread's arena.
pub(crate) fn give(v: Vec<f32>) {
    let cap = v.capacity();
    if cap == 0 {
        return;
    }
    let class = class_of_capacity(cap);
    if class >= BINS {
        return;
    }
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        let bin = &mut a.bins[class];
        if bin.len() < MAX_PER_BIN {
            bin.push(v);
        }
    });
}

/// Tape-capacity hint: the node count of the last graph dropped on this
/// thread (0 before any graph completed).
pub(crate) fn tape_hint() -> usize {
    ARENA.with(|a| a.borrow().tape_hint)
}

/// Record a completed graph's node count as the next capacity hint.
pub(crate) fn set_tape_hint(n: usize) {
    ARENA.with(|a| a.borrow_mut().tape_hint = n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_buffer_is_reused() {
        // Drain whatever earlier tests left, then round-trip one buffer.
        let v = take_zeroed(100);
        assert_eq!(v.len(), 100);
        assert!(v.iter().all(|&x| x == 0.0));
        let cap = v.capacity();
        assert!(cap >= 100);
        give(v);
        let w = take_zeroed(100);
        // Same size class → same (or another pooled) buffer; capacity
        // must come from the class floor either way.
        assert!(w.capacity() >= 100);
        assert!(w.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zero_len_requests_are_cheap() {
        let v = take_zeroed(0);
        assert!(v.is_empty());
        give(v);
    }

    #[test]
    fn classes_are_consistent() {
        for len in [1usize, 2, 3, 4, 5, 63, 64, 65, 1000, 4096] {
            let req = class_of_request(len);
            assert!((1usize << req) >= len, "len={len}");
            // A fresh allocation of the class size files back into a bin
            // whose floor covers future requests of the same len.
            let back = class_of_capacity(1usize << req);
            assert!(back >= req || (1usize << back) >= len, "len={len}");
        }
    }

    #[test]
    fn tape_hint_roundtrip() {
        set_tape_hint(1234);
        assert_eq!(tape_hint(), 1234);
        set_tape_hint(0);
    }
}
