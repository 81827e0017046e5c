//! The in-memory artifact registry: content-addressed cache with
//! single-flight build deduplication, LRU capacity bounds, and
//! hit/miss/build-time statistics.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use gqa_pwl::QuantAwareLut;

use crate::spec::{LutBuildError, LutKey, LutSpec};

/// One cached artifact slot.
enum Slot {
    /// Finished artifact plus its recency stamp.
    Ready {
        lut: Arc<QuantAwareLut>,
        last_used: u64,
    },
    /// A build for this key is in flight on some thread; waiters block on
    /// the registry condvar until it flips to `Ready` (or disappears, if
    /// the building thread panicked).
    Building,
}

#[derive(Default)]
struct StatsInner {
    hits: u64,
    misses: u64,
    builds: u64,
    dedup_waits: u64,
    evictions: u64,
    build_ns: u128,
}

/// A point-in-time copy of the registry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Lookups resolved from a finished artifact — including a thread
    /// that joined an in-flight build and picked up the result once it
    /// turned `Ready` (such a join also bumps `dedup_waits`).
    pub hits: u64,
    /// Lookups that initiated a cold build themselves.
    pub misses: u64,
    /// Cold compilations actually executed.
    pub builds: u64,
    /// Times a thread waited on another thread's in-flight build instead
    /// of duplicating it (single-flight saves).
    pub dedup_waits: u64,
    /// Entries dropped by the LRU capacity bound.
    pub evictions: u64,
    /// Total nanoseconds spent in cold compilations.
    pub build_ns: u128,
}

impl RegistryStats {
    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Mean cold-build wall time in milliseconds (0 when nothing built).
    #[must_use]
    pub fn mean_build_ms(&self) -> f64 {
        if self.builds == 0 {
            0.0
        } else {
            self.build_ns as f64 / self.builds as f64 / 1.0e6
        }
    }
}

impl std::fmt::Display for RegistryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits {} / misses {} ({:.0}% hit rate), {} builds ({:.1} ms avg), \
             {} dedup waits, {} evictions",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.builds,
            self.mean_build_ms(),
            self.dedup_waits,
            self.evictions
        )
    }
}

struct Inner {
    map: HashMap<LutKey, Slot>,
    /// Monotone recency clock (bumped on every touch).
    tick: u64,
    stats: StatsInner,
}

/// The LUT artifact registry.
///
/// * **Content-addressed**: artifacts are cached under [`LutKey`]s, which
///   fold in the derived search/training config fingerprint.
/// * **Single-flight**: concurrent requests for the same key run one
///   build; the rest block and share the result.
/// * **Bounded**: an optional LRU capacity evicts the least recently used
///   *finished* artifact when exceeded (in-flight builds are never
///   evicted).
/// * **Observable**: [`LutRegistry::stats`] exposes hit/miss/build-time
///   counters; bench binaries print them.
///
/// Interior-mutable: every method takes `&self`, so one registry can be
/// shared freely (e.g. behind an `Arc` across engines).
pub struct LutRegistry {
    inner: Mutex<Inner>,
    ready: Condvar,
    capacity: Option<usize>,
}

impl Default for LutRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LutRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("registry lock");
        f.debug_struct("LutRegistry")
            .field("entries", &inner.map.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl LutRegistry {
    /// Unbounded registry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                stats: StatsInner::default(),
            }),
            ready: Condvar::new(),
            capacity: None,
        }
    }

    /// Registry holding at most `capacity` finished artifacts (LRU
    /// eviction beyond that).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        Self {
            capacity: Some(capacity),
            ..Self::new()
        }
    }

    /// Number of finished artifacts currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("registry lock");
        inner
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// Whether no finished artifact is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every finished artifact (in-flight builds are unaffected and
    /// will re-insert on completion). Stats are preserved.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.map.retain(|_, s| matches!(s, Slot::Building));
    }

    /// All finished artifacts (for snapshot serialization).
    pub(crate) fn ready_entries(&self) -> Vec<(LutKey, Arc<QuantAwareLut>)> {
        let inner = self.inner.lock().expect("registry lock");
        inner
            .map
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Ready { lut, .. } => Some((*k, Arc::clone(lut))),
                Slot::Building => None,
            })
            .collect()
    }

    /// Snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().expect("registry lock");
        let s = &inner.stats;
        RegistryStats {
            hits: s.hits,
            misses: s.misses,
            builds: s.builds,
            dedup_waits: s.dedup_waits,
            evictions: s.evictions,
            build_ns: s.build_ns,
        }
    }

    /// Cache-only lookup (bumps recency on hit, never builds).
    #[must_use]
    pub fn get(&self, key: &LutKey) -> Option<Arc<QuantAwareLut>> {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(Slot::Ready { lut, last_used }) => {
                *last_used = tick;
                Some(Arc::clone(lut))
            }
            _ => None,
        }
    }

    /// Inserts a pre-built artifact (e.g. from a snapshot or a test),
    /// overwriting any finished entry for the key.
    pub fn insert(&self, key: LutKey, lut: QuantAwareLut) {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            Slot::Ready {
                lut: Arc::new(lut),
                last_used: tick,
            },
        );
        self.enforce_capacity(&mut inner);
    }

    /// The registry front door: returns the cached artifact for the spec,
    /// builds it (once, even under concurrency) on miss.
    ///
    /// # Errors
    ///
    /// Returns [`LutBuildError`] if the spec fails validation. Build
    /// execution itself is infallible.
    pub fn get_or_build(&self, spec: &LutSpec) -> Result<Arc<QuantAwareLut>, LutBuildError> {
        let key = spec.key()?;
        self.get_or_build_with(key, || spec.compile().expect("spec validated above"))
    }

    /// [`LutRegistry::get_or_build`] with a caller-supplied cold-build
    /// closure — the seam for custom artifacts (or instrumented builds in
    /// tests). The closure runs outside the registry lock.
    pub fn get_or_build_with<F>(
        &self,
        key: LutKey,
        build: F,
    ) -> Result<Arc<QuantAwareLut>, LutBuildError>
    where
        F: FnOnce() -> QuantAwareLut,
    {
        {
            let mut inner = self.inner.lock().expect("registry lock");
            loop {
                inner.tick += 1;
                let tick = inner.tick;
                match inner.map.get_mut(&key) {
                    Some(Slot::Ready { lut, last_used }) => {
                        *last_used = tick;
                        let lut = Arc::clone(lut);
                        inner.stats.hits += 1;
                        return Ok(lut);
                    }
                    Some(Slot::Building) => {
                        // Single-flight: join the in-flight build.
                        inner.stats.dedup_waits += 1;
                        inner = self.ready.wait(inner).expect("registry lock");
                        // Re-check from the top: the build finished (Ready)
                        // or its thread panicked (slot removed → we build).
                    }
                    None => {
                        inner.stats.misses += 1;
                        inner.map.insert(key, Slot::Building);
                        break;
                    }
                }
            }
        }

        // Cold path, outside the lock. The guard flips the Building slot
        // back out if `build` panics, so waiters are never stranded.
        let mut guard = BuildGuard {
            registry: self,
            key,
            armed: true,
        };
        let t0 = Instant::now();
        let lut = Arc::new(build());
        let elapsed = t0.elapsed().as_nanos();
        self.finish_build(key, Arc::clone(&lut), elapsed);
        guard.armed = false;
        Ok(lut)
    }

    fn finish_build(&self, key: LutKey, lut: Arc<QuantAwareLut>, build_ns: u128) {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.tick += 1;
        let tick = inner.tick;
        inner.stats.builds += 1;
        inner.stats.build_ns += build_ns;
        inner.map.insert(
            key,
            Slot::Ready {
                lut,
                last_used: tick,
            },
        );
        self.enforce_capacity(&mut inner);
        drop(inner);
        self.ready.notify_all();
    }

    /// Evicts least-recently-used finished artifacts until the capacity
    /// bound holds. In-flight builds never count against (or fall to) the
    /// bound.
    fn enforce_capacity(&self, inner: &mut Inner) {
        let Some(cap) = self.capacity else { return };
        loop {
            let ready = inner
                .map
                .iter()
                .filter(|(_, s)| matches!(s, Slot::Ready { .. }))
                .count();
            if ready <= cap {
                return;
            }
            let victim = inner
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } => Some((*last_used, *k)),
                    Slot::Building => None,
                })
                .min_by_key(|(used, _)| *used)
                .map(|(_, k)| k)
                .expect("ready > cap >= 1 implies a victim");
            inner.map.remove(&victim);
            inner.stats.evictions += 1;
        }
    }
}

/// Panic-safety for in-flight builds: if the build closure unwinds, the
/// `Building` placeholder is removed and waiters are woken so one of them
/// can retry instead of deadlocking.
struct BuildGuard<'a> {
    registry: &'a LutRegistry,
    key: LutKey,
    armed: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if let Ok(mut inner) = self.registry.inner.lock() {
            if matches!(inner.map.get(&self.key), Some(Slot::Building)) {
                inner.map.remove(&self.key);
            }
        }
        self.registry.ready.notify_all();
    }
}
