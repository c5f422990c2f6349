//! The in-memory, content-addressed compiled-program cache.
//!
//! Keyed by [`dp_sweep::key::compiled_key`] — source text + `OptConfig` +
//! `CACHE_FORMAT_VERSION`, the same hashing the sweep result cache uses, so
//! the two subsystems can never drift on what "the same compilation" means.
//!
//! Two properties matter for a server:
//!
//! - **LRU eviction.** The cache holds at most `capacity` entries; inserting
//!   past that evicts the least-recently-used *ready* entry. In-flight
//!   compilations are never evicted, and evicting an entry does not
//!   invalidate handles already cloned out (they are `Arc`s).
//! - **Single-flight deduplication.** N concurrent requests for the same
//!   key do **one** compile: the first inserts a pending slot and compiles,
//!   the rest wait on the slot's condvar and share the resulting
//!   [`SharedCompiled`]. Waiters count as hits (plus a `singleflight_waits`
//!   counter so tests can observe the dedup).
//!
//! Compile *errors* are cached like successes: the response to a given
//! request must be byte-identical warm or cold, and an error is as
//! deterministic as a program.

use dp_core::SharedCompiled;
use dp_obs::metrics::Counter;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

static CACHE_HITS: Counter = Counter::new("serve.cache.hits");
static CACHE_MISSES: Counter = Counter::new("serve.cache.misses");
static CACHE_EVICTIONS: Counter = Counter::new("serve.cache.evictions");
static CACHE_SF_WAITS: Counter = Counter::new("serve.cache.singleflight_waits");

/// What a finished compilation produced (errors are cached verbatim).
pub type CompileResult = Result<SharedCompiled, String>;

struct Slot {
    result: Mutex<Option<CompileResult>>,
    ready: Condvar,
}

impl Slot {
    fn wait(&self) -> CompileResult {
        let mut guard = self.result.lock().unwrap();
        while guard.is_none() {
            guard = self.ready.wait(guard).unwrap();
        }
        guard.as_ref().unwrap().clone()
    }

    fn fill(&self, result: CompileResult) {
        *self.result.lock().unwrap() = Some(result);
        self.ready.notify_all();
    }

    fn is_ready(&self) -> bool {
        self.result.lock().unwrap().is_some()
    }
}

struct Entry {
    slot: Arc<Slot>,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<u64, Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    singleflight_waits: u64,
}

/// Live counters of a [`CompiledCache`] (reported by the `stats` op).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompiledCacheStats {
    /// Requests served from an existing entry (ready or in-flight).
    pub hits: u64,
    /// Requests that performed the compile.
    pub misses: u64,
    /// Ready entries evicted by the LRU policy.
    pub evictions: u64,
    /// Hits that waited on an in-flight compile instead of re-compiling.
    pub singleflight_waits: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A bounded, single-flight, content-addressed map from compilation key to
/// [`SharedCompiled`].
pub struct CompiledCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl CompiledCache {
    /// A cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        CompiledCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Returns the compilation for `key`, running `compile` only if no
    /// other request has compiled (or is compiling) it. `compile` runs
    /// outside the cache lock, so distinct keys compile concurrently.
    pub fn get_or_compile(
        &self,
        key: u64,
        compile: impl FnOnce() -> CompileResult,
    ) -> CompileResult {
        let (slot, evicted) = {
            let mut inner = self.inner.lock().unwrap();
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.entries.get_mut(&key) {
                entry.last_used = clock;
                let slot = Arc::clone(&entry.slot);
                inner.hits += 1;
                CACHE_HITS.incr();
                if !slot.is_ready() {
                    inner.singleflight_waits += 1;
                    CACHE_SF_WAITS.incr();
                }
                drop(inner);
                return slot.wait();
            }
            inner.misses += 1;
            CACHE_MISSES.incr();
            let slot = Arc::new(Slot {
                result: Mutex::new(None),
                ready: Condvar::new(),
            });
            inner.entries.insert(
                key,
                Entry {
                    slot: Arc::clone(&slot),
                    last_used: clock,
                },
            );
            let evicted = self.evict_over_capacity(&mut inner);
            (slot, evicted)
        };
        // Freed here, not under the lock every hit on every session takes:
        // the last handle to a compilation is a module, a manifest and a
        // source string.
        drop(evicted);
        // The slot must be filled even if the compiler panics: a forever-
        // pending slot would hang every later request for this key (and,
        // transitively, a server drain). The panic becomes a cached error —
        // deterministic for a deterministic compiler bug.
        let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(compile)) {
            Ok(result) => result,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic".to_string());
                Err(format!("compiler panicked: {msg}"))
            }
        };
        slot.fill(result.clone());
        result
    }

    /// Evicts least-recently-used **ready** entries until at most
    /// `capacity` remain (in-flight compilations are pinned), and returns
    /// them for the caller to drop once the lock is released.
    fn evict_over_capacity(&self, inner: &mut Inner) -> Vec<Entry> {
        let mut evicted = Vec::new();
        while inner.entries.len() > self.capacity {
            let victim = inner
                .entries
                .iter()
                .filter(|(_, e)| e.slot.is_ready())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    evicted.extend(inner.entries.remove(&k));
                    inner.evictions += 1;
                    CACHE_EVICTIONS.incr();
                }
                None => break, // everything is in flight; let it land
            }
        }
        evicted
    }

    /// Current counters.
    pub fn stats(&self) -> CompiledCacheStats {
        let inner = self.inner.lock().unwrap();
        CompiledCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            singleflight_waits: inner.singleflight_waits,
            entries: inner.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::{Compiler, OptConfig};

    const SRC: &str =
        "__global__ void k(int* d, int n) { if (blockIdx.x < n) { d[blockIdx.x] = n; } }";

    fn compile_src() -> CompileResult {
        Compiler::new()
            .config(OptConfig::none())
            .compile(SRC)
            .map(|c| c.into_shared())
            .map_err(|e| e.to_string())
    }

    #[test]
    fn caches_compilations_by_key() {
        let cache = CompiledCache::new(4);
        let mut compiles = 0;
        for _ in 0..3 {
            let r = cache.get_or_compile(1, || {
                compiles += 1;
                compile_src()
            });
            assert!(r.is_ok());
        }
        assert_eq!(compiles, 1, "one compile, two hits");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
    }

    #[test]
    fn errors_are_cached_deterministically() {
        let cache = CompiledCache::new(4);
        let mut compiles = 0;
        let err = |c: &mut i32| {
            *c += 1;
            Err("parse error: boom".to_string())
        };
        let first = cache.get_or_compile(9, || err(&mut compiles)).unwrap_err();
        let second = cache.get_or_compile(9, || err(&mut compiles)).unwrap_err();
        assert_eq!(first, second);
        assert_eq!(compiles, 1, "errors cache like successes");
    }

    #[test]
    fn lru_evicts_the_coldest_ready_entry() {
        let cache = CompiledCache::new(2);
        cache.get_or_compile(1, compile_src).unwrap();
        cache.get_or_compile(2, compile_src).unwrap();
        cache.get_or_compile(1, compile_src).unwrap(); // refresh 1
        cache.get_or_compile(3, compile_src).unwrap(); // evicts 2
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        // Key 1 was refreshed, so it survived; key 2 was the LRU victim
        // (checking in this order — the re-insert of 2 evicts again).
        let mut recompiled_1 = false;
        cache
            .get_or_compile(1, || {
                recompiled_1 = true;
                compile_src()
            })
            .unwrap();
        assert!(!recompiled_1, "refreshed entry must survive");
        let mut recompiled = false;
        cache
            .get_or_compile(2, || {
                recompiled = true;
                compile_src()
            })
            .unwrap();
        assert!(recompiled, "evicted entry must recompile");
    }

    #[test]
    fn concurrent_identical_compiles_are_single_flight() {
        let cache = Arc::new(CompiledCache::new(4));
        let compiles = Arc::new(Mutex::new(0usize));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let compiles = Arc::clone(&compiles);
                scope.spawn(move || {
                    let r = cache.get_or_compile(7, || {
                        *compiles.lock().unwrap() += 1;
                        // Hold the slot open long enough that the other
                        // threads arrive while the compile is in flight.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        compile_src()
                    });
                    assert!(r.is_ok());
                });
            }
        });
        assert_eq!(*compiles.lock().unwrap(), 1, "exactly one compile");
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
        assert!(s.singleflight_waits >= 1, "waiters observed the flight");
    }
}
