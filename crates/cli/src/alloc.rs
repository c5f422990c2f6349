//! `ThreadCache`, the allocator `dpopt` runs on: small blocks are kept per
//! thread, everything else is `System`'s.
//!
//! A compile builds a tree of small nodes and drops it whole, and a served
//! `transform` is mostly a compile. BFS's T+C+A compile
//! (`tests/alloc_budget.rs`) makes 806 allocations, 725 of them at most
//! 512 bytes with alignment at most 16; by size in bytes:
//!
//! | ≤ 16 | 17–32 | 33–48 | 49–64 | 65–128 | 129–256 | 257–512 | > 512 |
//! |---|---|---|---|---|---|---|---|
//! | 114 | 11 | 1 | 395 | 24 | 94 | 86 | 81 |
//!
//! An `Expr` is 64 bytes and a `Stmt` 320, and the small blocks come to
//! 76 560 bytes in class sizes. (Before the passes stopped copying the
//! parents they rewrite, the compile made 908 allocations, 818 of them
//! small, with the same shape: 461 of them 49–64 bytes, 90 above 512.)
//!
//! glibc 2.36's per-thread cache holds 7 blocks of a size, so a tree
//! built or dropped in bulk takes the arena's locked path for nearly every
//! node. Here each thread keeps an intrusive free list per class instead,
//! so a node freed is handed straight to the next node of its class.
//!
//! The rules, none of them configurable:
//! - A request of at most [`SMALL_MAX`] bytes with alignment at most
//!   [`ALIGN`] is served from the calling thread's list for its class,
//!   rounded up to a multiple of [`ALIGN`]. Every such block is obtained
//!   from `System` with its class's layout and returned to it with the
//!   same, so a block may be freed on any thread and cached there.
//! - A thread caches at most [`CACHE_BYTES`]; a block freed beyond that
//!   goes back to `System`.
//! - When a thread exits its lists go back to `System`. An allocation or a
//!   free made after that, by another thread-local's destructor, goes to
//!   `System` directly.
//! - `realloc` within a class keeps the block; any other request goes
//!   straight to `System`.
//!
//! To re-check that the cache still pays, run `dpbench --workload
//! serve-miss` on a build whose global allocator is `System`, with and
//! without `GLIBC_TUNABLES=glibc.malloc.tcache_count=4096` (glibc's own
//! per-thread cache, made large enough for a whole tree), and on this
//! build. When this was written (2 processors, glibc 2.36, two 6 s pairs)
//! `req_fast_us` read 278 and 247 µs plain, 255 and 239 µs with the
//! tunable, and 190 µs here. If this build stops beating plain `System`,
//! glibc caches enough by itself and this module can go.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ptr;

/// The largest request served from a thread's lists, in bytes: 725 of a
/// compile's 806 allocations (the table above).
const SMALL_MAX: usize = 512;

/// The class granule and the largest alignment served from the lists:
/// `System` aligns every block of a multiple of 16 bytes to 16.
const ALIGN: usize = 16;

const CLASSES: usize = SMALL_MAX / ALIGN;

/// The most bytes one thread keeps cached: the small blocks of about three
/// BFS compiles, at a bounded cost per thread.
const CACHE_BYTES: usize = 256 * 1024;

/// The global allocator of the `dpopt` binary (see the module doc).
pub(crate) struct ThreadCache;

/// A cached block; its first word links to the next of its class.
struct Free {
    next: *mut Free,
}

/// One thread's free lists, and the bytes they hold.
struct Lists {
    heads: [Cell<*mut Free>; CLASSES],
    bytes: Cell<usize>,
}

thread_local! {
    static LISTS: Lists = const {
        Lists {
            heads: [const { Cell::new(ptr::null_mut()) }; CLASSES],
            bytes: Cell::new(0),
        }
    };
}

#[cfg(test)]
thread_local! {
    /// Counts, by class, the blocks a thread's lists return when it exits.
    static EXIT_REPORT: Cell<Option<&'static [std::sync::atomic::AtomicUsize; CLASSES]>> =
        const { Cell::new(None) };
}

/// The class of a request, if the lists serve it.
fn class_of(layout: Layout) -> Option<usize> {
    (layout.size() <= SMALL_MAX && layout.align() <= ALIGN)
        .then(|| layout.size().saturating_sub(1) / ALIGN)
}

/// The bytes of every block of `class`.
fn class_size(class: usize) -> usize {
    (class + 1) * ALIGN
}

/// The layout every block of `class` is obtained from `System` with.
fn class_layout(class: usize) -> Layout {
    debug_assert!(class < CLASSES);
    // SAFETY: `ALIGN` is a power of two and a class size is a multiple of
    // it no larger than `SMALL_MAX`.
    unsafe { Layout::from_size_align_unchecked(class_size(class), ALIGN) }
}

impl Lists {
    fn pop(&self, class: usize) -> *mut u8 {
        let head = self.heads[class].get();
        if head.is_null() {
            return head.cast();
        }
        // SAFETY: a non-null head is a block this list owns, whose first
        // word `push` wrote.
        self.heads[class].set(unsafe { (*head).next });
        self.bytes.set(self.bytes.get() - class_size(class));
        head.cast()
    }

    /// Caches `block`, or hands it back when the thread holds its cap.
    fn push(&self, block: *mut u8, class: usize) -> bool {
        let size = class_size(class);
        if self.bytes.get() + size > CACHE_BYTES {
            return false;
        }
        let block = block.cast::<Free>();
        // SAFETY: the caller gives up `block`, at least `ALIGN` bytes
        // aligned to `ALIGN`, so it can hold the link.
        unsafe {
            block.write(Free {
                next: self.heads[class].get(),
            })
        };
        self.heads[class].set(block);
        self.bytes.set(self.bytes.get() + size);
        true
    }
}

impl Drop for Lists {
    fn drop(&mut self) {
        for class in 0..CLASSES {
            loop {
                let block = self.pop(class);
                if block.is_null() {
                    break;
                }
                // SAFETY: every cached block came from `System` with its
                // class's layout.
                unsafe { System.dealloc(block, class_layout(class)) };
                #[cfg(test)]
                EXIT_REPORT.with(|report| {
                    if let Some(count) = report.get() {
                        count[class].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                });
            }
        }
        debug_assert_eq!(self.bytes.get(), 0, "the byte count tracks the lists");
    }
}

// SAFETY: a small request is served by a block obtained from `System` with
// its class's layout, which is at least the request's size and alignment;
// a block is on at most one list at a time (a thread's lists are its own,
// and a block enters one only when its owner frees it), and is returned to
// `System` with that same layout. Every other request is `System`'s,
// unchanged.
unsafe impl GlobalAlloc for ThreadCache {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let Some(class) = class_of(layout) else {
            // SAFETY: the caller's layout, passed on.
            return unsafe { System.alloc(layout) };
        };
        let cached = LISTS.try_with(|lists| lists.pop(class));
        match cached {
            Ok(block) if !block.is_null() => block,
            // SAFETY: a class layout has a non-zero size.
            _ => unsafe { System.alloc(class_layout(class)) },
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let Some(class) = class_of(layout) else {
            // SAFETY: `ptr` came from `System.alloc` with this layout.
            return unsafe { System.dealloc(ptr, layout) };
        };
        if LISTS.try_with(|lists| lists.push(ptr, class)) != Ok(true) {
            // SAFETY: a small block came from `System` with its class's
            // layout.
            unsafe { System.dealloc(ptr, class_layout(class)) }
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if class_of(layout).is_none() {
            // SAFETY: the caller's layout, passed on; `System` may hand
            // out pages that are already zero.
            return unsafe { System.alloc_zeroed(layout) };
        }
        // SAFETY: the caller's layout; a non-null block has its size.
        unsafe {
            let block = self.alloc(layout);
            if !block.is_null() {
                block.write_bytes(0, layout.size());
            }
            block
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY (for `new`): the caller guarantees `new_size` with this
        // alignment is a valid layout.
        let new = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        match (class_of(layout), class_of(new)) {
            (Some(old), Some(class)) if old == class => ptr,
            // SAFETY: `ptr` came from `System` with `layout`.
            (None, None) => unsafe { System.realloc(ptr, layout, new_size) },
            _ => {
                // SAFETY: `new` is valid; both blocks are live and distinct,
                // and the old one holds at least the bytes copied.
                unsafe {
                    let block = self.alloc(new);
                    if !block.is_null() {
                        ptr::copy_nonoverlapping(ptr, block, layout.size().min(new_size));
                        self.dealloc(ptr, layout);
                    }
                    block
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The bytes the calling thread's lists hold.
    fn cached_bytes() -> usize {
        LISTS.with(|lists| lists.bytes.get())
    }

    fn layout(size: usize, align: usize) -> Layout {
        Layout::from_size_align(size, align).unwrap()
    }

    #[test]
    fn a_block_freed_on_another_thread_is_reused_there() {
        let small = layout(64, 8);
        // SAFETY: a valid layout; the block is freed once, on the other
        // thread, and the one allocated there is freed there.
        let block = unsafe { ThreadCache.alloc(small) } as usize;
        std::thread::spawn(move || unsafe {
            ThreadCache.dealloc(block as *mut u8, small);
            let again = ThreadCache.alloc(small);
            assert_eq!(
                again as usize, block,
                "the freed block is this thread's next"
            );
            ThreadCache.dealloc(again, small);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn an_exiting_thread_returns_every_cached_block() {
        static RETURNED: [AtomicUsize; CLASSES] = [const { AtomicUsize::new(0) }; CLASSES];
        // A class nothing else in the thread uses, so its count is exact.
        let big = layout(SMALL_MAX - 20, 8);
        let class = class_of(big).unwrap();
        std::thread::spawn(move || {
            EXIT_REPORT.with(|report| report.set(Some(&RETURNED)));
            // SAFETY: each block is allocated and freed once with `big`.
            let blocks: Vec<_> = (0..100)
                .map(|_| unsafe { ThreadCache.alloc(big) })
                .collect();
            for &block in &blocks {
                unsafe { ThreadCache.dealloc(block, big) };
            }
            let mut listed = 0;
            let mut block = LISTS.with(|lists| lists.heads[class].get());
            while !block.is_null() {
                listed += 1;
                // SAFETY: a listed block holds its link.
                block = unsafe { (*block).next };
            }
            assert_eq!(listed, 100);
        })
        .join()
        .unwrap();
        assert_eq!(RETURNED[class].load(Ordering::SeqCst), 100);
    }

    #[test]
    fn realloc_stays_in_place_within_a_class_and_copies_across() {
        let bytes: Vec<u8> = (0..=255).cycle().take(4096).collect();
        // SAFETY: every pointer is the live result of the previous call,
        // with the layout it was made with, and holds at least the bytes
        // read from it.
        unsafe {
            let p = ThreadCache.alloc(layout(20, 4));
            ptr::copy_nonoverlapping(bytes.as_ptr(), p, 20);
            let q = ThreadCache.realloc(p, layout(20, 4), 30);
            assert_eq!(q, p, "20 and 30 bytes share the 32-byte class");
            let r = ThreadCache.realloc(q, layout(30, 4), 100);
            assert_eq!(std::slice::from_raw_parts(r, 20), &bytes[..20]);
            ptr::copy_nonoverlapping(bytes.as_ptr(), r, 100);
            let s = ThreadCache.realloc(r, layout(100, 4), 4096);
            assert_eq!(std::slice::from_raw_parts(s, 100), &bytes[..100]);
            ptr::copy_nonoverlapping(bytes.as_ptr(), s, 4096);
            let t = ThreadCache.realloc(s, layout(4096, 4), 8192);
            assert_eq!(std::slice::from_raw_parts(t, 4096), &bytes[..]);
            let u = ThreadCache.realloc(t, layout(8192, 4), 40);
            assert_eq!(std::slice::from_raw_parts(u, 40), &bytes[..40]);
            ThreadCache.dealloc(u, layout(40, 4));
        }
    }

    #[test]
    fn large_or_overaligned_requests_bypass_the_lists() {
        for request in [layout(64, 32), layout(513, 8), layout(4096, 16)] {
            let before = cached_bytes();
            // SAFETY: allocated and freed once with the same layout.
            unsafe {
                let block = ThreadCache.alloc(request);
                assert_eq!(block as usize % request.align(), 0);
                ThreadCache.dealloc(block, request);
            }
            assert_eq!(cached_bytes(), before, "{request:?} was cached");
        }
    }

    #[test]
    fn the_cap_holds_under_a_burst_of_frees() {
        std::thread::spawn(|| {
            let small = layout(64, 8);
            // SAFETY: each block is allocated and freed once with `small`.
            let blocks: Vec<_> = (0..10_000)
                .map(|_| unsafe { ThreadCache.alloc(small) })
                .collect();
            for &block in &blocks {
                unsafe { ThreadCache.dealloc(block, small) };
                assert!(cached_bytes() <= CACHE_BYTES);
            }
            assert!(
                cached_bytes() > CACHE_BYTES - SMALL_MAX,
                "the burst filled the cache"
            );
        })
        .join()
        .unwrap();
    }
}
