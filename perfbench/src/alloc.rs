//! A counting global allocator.
//!
//! Every allocator call that obtains memory (`alloc`, `alloc_zeroed`,
//! `realloc`) bumps a per-thread counter before delegating to
//! [`System`]. The benchmark runs each simulation on one thread, so the
//! count for a run is a deterministic function of its inputs, and
//! parallel test threads do not see each other's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialised and free of destructors: bumping it never
    // allocates, so the allocator hooks cannot re-enter themselves.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Allocator calls made so far on the calling thread.
pub fn calls() -> u64 {
    CALLS.with(Cell::get)
}

fn bump() {
    // `try_with`: a call during thread teardown is simply not counted.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

/// The benchmark's `#[global_allocator]` (installed in the crate root).
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the pointers and layouts it returns and accepts carry `System`'s
// guarantees; the only extra work is bumping a thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s size requirements.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_allocations_on_this_thread() {
        let before = super::calls();
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(16));
        assert!(super::calls() > before);
        drop(v);
    }
}
