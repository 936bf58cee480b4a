//! Content-keyed artifact cache with a bounded-memory lifecycle.
//!
//! CVCP model selection evaluates a grid of (parameter × fold × replica)
//! cells, and many expensive intermediates — pairwise distance matrices,
//! per-`MinPts` density hierarchies, transitive closures, seeding
//! neighbourhoods — are *identical* across large parts of that grid.  The
//! [`ArtifactCache`] stores those intermediates behind content-derived keys
//! so that every artifact is computed exactly once per engine, no matter how
//! many folds, trials or concurrent requests ask for it.  The data-set
//! replicas that served requests name are stored the same way, under the
//! data set and seed that generate them ([`ArtifactKey::Replica`]).
//!
//! Long-lived serving engines cannot let the cache grow monotonically, so
//! the store is *size-bounded*: a [`CacheConfig`] caps the resident bytes
//! (measured per artifact via [`ArtifactSize`]) and/or the resident entry
//! count, and artifacts are evicted when a budget is exceeded.  Eviction is
//! purely a time/space trade: an evicted artifact is recomputed on next
//! use, results never change.
//!
//! ## One lock, ordered eviction
//!
//! The whole store sits behind one mutex (rank [`CACHE`], the
//! innermost lock of the workspace).  It is held for an index lookup and
//! an O(1) list splice, never while an artifact is computed, so unrelated
//! keys never serialise behind each other's computations.  Committed
//! entries are kept on an intrusive, index-linked LRU list over a slab (no
//! `unsafe`): lookups and commits splice in O(1), and the eviction victim
//! is the list head — **O(1) per victim**, never a scan over the resident
//! set.
//!
//! Concurrency contract: two threads requesting the same key race to a
//! per-key [`OnceLock`]; the loser waits until the winner's value is ready,
//! so an artifact is never computed twice *while in flight* and concurrent
//! callers always observe the same `Arc` (see the pointer-equality tests).
//! Only fully-committed entries are eviction candidates — an in-flight
//! `get_or_compute` can never have its slot torn out from under it, and
//! callers holding an `Arc` to an evicted artifact keep a valid value (the
//! bytes are merely no longer counted as resident).  If a computation
//! panics, its in-flight slot is removed on unwind, so the key stays
//! retryable and the map never accumulates zombie entries.

use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use cvcp_data::replicas::ReplicaId;
use cvcp_data::{DataMatrix, Dataset};
use cvcp_obs::lock_rank::CACHE;
use cvcp_obs::{HistogramSnapshot, LogHistogram, RankedCondvar, RankedMutex};

thread_local! {
    /// `(hits, misses)` observed by the *current thread* since the last
    /// reset — the per-job cache attribution used by span tracing.  Jobs
    /// run one at a time per worker thread, so the engine resets the pair
    /// before a traced job and takes it after; the two `Cell` updates per
    /// cache access are free compared to the cache lock either side.
    static THREAD_CACHE_EVENTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Zeroes the calling thread's cache hit/miss attribution counters.
pub(crate) fn reset_thread_cache_events() {
    THREAD_CACHE_EVENTS.with(|c| c.set((0, 0)));
}

/// Returns and zeroes the calling thread's `(hits, misses)` since the last
/// reset.
pub(crate) fn take_thread_cache_events() -> (u64, u64) {
    THREAD_CACHE_EVENTS.with(|c| c.replace((0, 0)))
}

fn note_thread_cache_event(hit: bool) {
    THREAD_CACHE_EVENTS.with(|c| {
        let (hits, misses) = c.get();
        c.set(if hit {
            (hits + 1, misses)
        } else {
            (hits, misses + 1)
        })
    });
}

thread_local! {
    /// Nesting depth of in-flight `compute` closures on this thread.  A
    /// joiner only *helps* (runs other pool tasks while waiting, see
    /// [`crate::pool::help_run_one_task`]) at depth 0: a winner that
    /// recursed into the pool could pick up a task that joins the very
    /// artifact this thread is computing and deadlock on itself.
    static COMPUTE_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// RAII bump of [`COMPUTE_DEPTH`] — unwinds correctly when `compute`
/// panics, so a caught panic can never wedge helping off for the thread.
struct ComputeDepthGuard;

impl ComputeDepthGuard {
    fn enter() -> Self {
        COMPUTE_DEPTH.with(|depth| depth.set(depth.get() + 1));
        Self
    }
}

impl Drop for ComputeDepthGuard {
    fn drop(&mut self) {
        COMPUTE_DEPTH.with(|depth| depth.set(depth.get() - 1));
    }
}

pub use cvcp_data::{Fingerprint, FingerprintBuilder};

/// Content fingerprint of a data matrix (shape + every value's bit pattern).
///
/// Reads [`DataMatrix::fingerprint`], which is memoised per instance: a
/// matrix is hashed on its first lookup, and every later lookup of the
/// same instance (or of a clone taken after it) reuses the key.
/// `DataMatrix::{set, row_mut, push_row}` reset the memo, and matrix
/// equality ignores it.
pub fn fingerprint_matrix(matrix: &DataMatrix) -> Fingerprint {
    matrix.fingerprint()
}

/// Identity of a cached artifact.
///
/// Keys combine the *content* fingerprint of the inputs with the structural
/// parameters of the computation, so equal inputs share work across folds,
/// trials and concurrent requests while different inputs can never collide
/// semantically (fingerprints are 64-bit content hashes; collisions are
/// astronomically unlikely at this workload's cardinalities).  The one
/// exception is [`ArtifactKey::Replica`]: a generated data set is keyed by
/// exactly what determines its content, the data set its name resolves to
/// and the seed, so it cannot collide at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKey {
    /// Full pairwise distance matrix of a data set under the default metric.
    PairwiseDistances {
        /// Fingerprint of the data matrix.
        data: Fingerprint,
    },
    /// Per-object core distances for a `MinPts`.
    CoreDistances {
        /// Fingerprint of the data matrix.
        data: Fingerprint,
        /// The density smoothing parameter.
        min_pts: usize,
    },
    /// Mutual-reachability MST for a `MinPts`.
    MutualReachabilityMst {
        /// Fingerprint of the data matrix.
        data: Fingerprint,
        /// The density smoothing parameter.
        min_pts: usize,
    },
    /// Condensed density hierarchy for a `MinPts`, which is also its
    /// minimum cluster size.
    DensityHierarchy {
        /// Fingerprint of the data matrix.
        data: Fingerprint,
        /// The density smoothing parameter.
        min_pts: usize,
    },
    /// Transitive closure of one cross-validation fold's training side
    /// information.
    FoldClosure {
        /// Fingerprint of the side information realisation.
        side: Fingerprint,
        /// Fold index.
        fold: usize,
    },
    /// MPCKMeans seeding structures (closed constraint set + must-link
    /// neighbourhood centroid candidates) for one side-information
    /// realisation — invariant in the cluster count `k`, so one artifact
    /// serves the whole parameter sweep of a fold.
    MpckSeeding {
        /// Fingerprint of the data matrix.
        data: Fingerprint,
        /// Fingerprint of the constraint realisation.
        constraints: Fingerprint,
        /// Whether the seeding was computed over the transitive closure of
        /// the constraints (must match the algorithm configuration).
        use_closure: bool,
    },
    /// Escape hatch for downstream crates: a caller-defined domain plus a
    /// caller-computed fingerprint.
    Custom {
        /// Caller-chosen namespace (pick a random constant per use site).
        domain: u64,
        /// Caller-computed content fingerprint.
        key: Fingerprint,
    },
    /// A data-set replica, [`ReplicaId::generate`] of `id` and `seed`.
    /// The key is the parsed data set, not the name's text, so a name a
    /// client chooses cannot reach another data set's entry, and the
    /// spellings of one data set (`aloi`, `aloi:0`, `aloi:00`) share one.
    Replica {
        /// The data set the request's name resolves to.
        id: ReplicaId,
        /// The generation seed.
        seed: u64,
    },
}

impl ArtifactKey {
    /// The artifact-kind names, in canonical order — one row each of the
    /// cache's per-kind latency histograms.
    pub const KIND_NAMES: [&'static str; 8] = [
        "pairwise_distances",
        "core_distances",
        "mutual_reachability_mst",
        "density_hierarchy",
        "fold_closure",
        "mpck_seeding",
        "custom",
        "replica",
    ];

    /// Index of the key's kind into [`ArtifactKey::KIND_NAMES`] — also the
    /// index of its row in the cache's per-kind latency histograms.
    pub fn kind_index(&self) -> usize {
        match self {
            ArtifactKey::PairwiseDistances { .. } => 0,
            ArtifactKey::CoreDistances { .. } => 1,
            ArtifactKey::MutualReachabilityMst { .. } => 2,
            ArtifactKey::DensityHierarchy { .. } => 3,
            ArtifactKey::FoldClosure { .. } => 4,
            ArtifactKey::MpckSeeding { .. } => 5,
            ArtifactKey::Custom { .. } => 6,
            ArtifactKey::Replica { .. } => 7,
        }
    }
}

/// Approximate resident size of a cached artifact, in bytes.
///
/// The cache charges every artifact against [`CacheConfig::max_bytes`] using
/// this trait, measured once at insertion.  Implementations should return
/// the artifact's *owned* footprint — stack size plus owned heap — and may
/// approximate (`len` instead of `capacity`, padding ignored); budgets are
/// resource knobs, not exact allocators.
pub trait ArtifactSize {
    /// Approximate owned size in bytes (stack + heap).
    fn artifact_bytes(&self) -> usize;
}

macro_rules! scalar_artifact_size {
    ($($t:ty),* $(,)?) => {
        $(impl ArtifactSize for $t {
            fn artifact_bytes(&self) -> usize {
                std::mem::size_of::<Self>()
            }
        })*
    };
}

scalar_artifact_size!(
    u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, char
);

impl<T: ArtifactSize> ArtifactSize for Vec<T> {
    fn artifact_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.iter().map(ArtifactSize::artifact_bytes).sum::<usize>()
    }
}

impl ArtifactSize for String {
    fn artifact_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.len()
    }
}

/// A matrix's values and its stack size; the memoised fingerprint and
/// column view are not counted.
impl ArtifactSize for DataMatrix {
    fn artifact_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of_val(self.as_slice())
    }
}

/// A data set's name, matrix values and labels, and its stack size.
impl ArtifactSize for Dataset {
    fn artifact_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.name().len()
            + std::mem::size_of_val(self.matrix().as_slice())
            + std::mem::size_of_val(self.labels())
    }
}

impl<A: ArtifactSize, B: ArtifactSize> ArtifactSize for (A, B) {
    fn artifact_bytes(&self) -> usize {
        self.0.artifact_bytes() + self.1.artifact_bytes()
    }
}

/// Memory budget of an [`ArtifactCache`].
///
/// `None` means "unbounded" for either budget.  Budgets apply to *resident*
/// (fully committed) artifacts: in-flight computations are never evicted,
/// so the map may transiently hold more uninitialized slots than
/// `max_entries`.  An artifact larger than `max_bytes` (or any artifact,
/// when `max_entries` is zero) bypasses residency entirely — it is
/// computed, handed to the caller and immediately counted as evicted,
/// without disturbing the resident set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheConfig {
    /// Maximum resident artifact bytes (as measured by [`ArtifactSize`]).
    pub max_bytes: Option<usize>,
    /// Maximum number of resident artifacts.
    pub max_entries: Option<usize>,
}

impl CacheConfig {
    /// No budgets: the cache grows until cleared (the default).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Caps the resident artifact bytes.
    pub fn with_max_bytes(mut self, max_bytes: usize) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// Caps the number of resident artifacts.
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = Some(max_entries);
        self
    }

    /// `true` when neither budget is set.
    pub fn is_unbounded(&self) -> bool {
        self.max_bytes.is_none() && self.max_entries.is_none()
    }

    /// Whether an artifact of `bytes` can never stay resident.
    fn bypasses(&self, bytes: usize) -> bool {
        self.max_bytes.is_some_and(|max| bytes > max) || self.max_entries == Some(0)
    }

    /// Whether the resident set `map` exceeds a budget.
    fn exceeded_by(&self, map: &LruMap) -> bool {
        self.max_bytes.is_some_and(|max| map.resident_bytes > max)
            || self
                .max_entries
                .is_some_and(|max| map.resident_entries > max)
    }
}

/// A stored artifact: the type-erased value plus its measured byte size.
type Stored = (Arc<dyn Any + Send + Sync>, usize);
type Slot = Arc<OnceLock<Stored>>;

/// Sentinel slab index ("null pointer" of the intrusive list).
const NIL: usize = usize::MAX;

/// One slab node: the shared slot plus the intrusive LRU links.
#[derive(Debug)]
struct Node {
    key: ArtifactKey,
    slot: Slot,
    /// `Some(bytes)` once the artifact is computed *and* committed to the
    /// resident accounting; `None` while the computation is in flight.
    bytes: Option<usize>,
    /// Previous node on the LRU list (towards the LRU head), or [`NIL`].
    prev: usize,
    /// Next node on the LRU list (towards the MRU tail), or [`NIL`].
    next: usize,
    /// Whether the node is linked on the LRU list (committed entries only).
    in_lru: bool,
}

/// The lock-protected store: a slab of nodes, a key index and an
/// intrusive LRU list threaded through the committed nodes.
#[derive(Debug)]
struct LruMap {
    index: HashMap<ArtifactKey, usize>,
    nodes: Vec<Option<Node>>,
    free: Vec<usize>,
    /// Least-recently-used committed node, or [`NIL`].
    head: usize,
    /// Most-recently-used committed node, or [`NIL`].
    tail: usize,
    /// Sum of `bytes` over committed entries.
    resident_bytes: usize,
    /// Number of committed entries.
    resident_entries: usize,
    /// High-water mark of `resident_bytes` (after budget enforcement).
    peak_resident_bytes: usize,
}

impl Default for LruMap {
    fn default() -> Self {
        Self {
            index: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            resident_bytes: 0,
            resident_entries: 0,
            peak_resident_bytes: 0,
        }
    }
}

impl LruMap {
    fn node(&self, i: usize) -> &Node {
        self.nodes[i].as_ref().expect("live slab node")
    }

    fn node_mut(&mut self, i: usize) -> &mut Node {
        self.nodes[i].as_mut().expect("live slab node")
    }

    /// Places `node` into a free slab slot and returns its index.
    fn alloc(&mut self, node: Node) -> usize {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(self.nodes[i].is_none(), "free-list slot occupied");
                self.nodes[i] = Some(node);
                i
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        }
    }

    /// Removes node `i` from the slab (it must already be off the LRU
    /// list) and recycles its slot.
    fn release(&mut self, i: usize) -> Node {
        let node = self.nodes[i].take().expect("released slab node live");
        debug_assert!(!node.in_lru, "released node still linked");
        self.free.push(i);
        node
    }

    /// Removes `key`'s entry if it is still `slot`'s *uncommitted*
    /// computation — a concurrent retry that already committed, or an
    /// entry that `clear` replaced, is kept.
    fn release_uncommitted(&mut self, key: &ArtifactKey, slot: &Slot) {
        if let Some(&i) = self.index.get(key) {
            let node = self.node(i);
            if Arc::ptr_eq(&node.slot, slot) && node.bytes.is_none() {
                debug_assert!(!node.in_lru);
                self.index.remove(key);
                self.release(i);
            }
        }
    }

    /// Splices node `i` onto the MRU tail of the LRU list.  O(1).
    fn attach_tail(&mut self, i: usize) {
        debug_assert!(!self.node(i).in_lru, "node already linked");
        let old_tail = self.tail;
        {
            let node = self.node_mut(i);
            node.prev = old_tail;
            node.next = NIL;
            node.in_lru = true;
        }
        if old_tail == NIL {
            self.head = i;
        } else {
            self.node_mut(old_tail).next = i;
        }
        self.tail = i;
    }

    /// Unlinks node `i` from the LRU list.  O(1).
    fn detach(&mut self, i: usize) {
        let (prev, next) = {
            let node = self.node_mut(i);
            debug_assert!(node.in_lru, "detaching unlinked node");
            let links = (node.prev, node.next);
            node.prev = NIL;
            node.next = NIL;
            node.in_lru = false;
            links
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.node_mut(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.node_mut(next).prev = prev;
        }
    }

    /// Re-stamps recency: moves a committed node to the MRU tail (no-op for
    /// in-flight nodes, which are not on the list).
    fn touch(&mut self, i: usize) {
        if self.node(i).in_lru {
            self.detach(i);
            self.attach_tail(i);
        }
    }
}

/// Removes the in-flight entry left behind by a panicked `compute` (the
/// regression this guards: a panic inside `get_or_compute` used to leave a
/// permanently uncommitted entry in the map — never an eviction candidate,
/// invisible to `len()`, accumulating forever).  Disarmed on success; on
/// unwind it removes the entry only if it is still *this* computation's
/// uninitialized slot, so a concurrent retry that won a value is kept.
struct InFlightGuard<'a> {
    cache: &'a ArtifactCache,
    key: ArtifactKey,
    slot: &'a Slot,
    armed: bool,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.cache
            .map
            .lock()
            .expect("artifact cache lock")
            .release_uncommitted(&self.key, self.slot);
        // Joiners parked on this computation must re-claim (and possibly
        // become the new winner) — the value is never coming.
        self.cache.join_cv.notify_all();
    }
}

/// Cache hit/miss/eviction counters plus a snapshot of residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the artifact (or, for [`ArtifactCache::get`],
    /// found nothing).
    pub misses: u64,
    /// Artifacts evicted to stay within the configured budgets.
    pub evictions: u64,
    /// Total bytes released by evictions.
    pub evicted_bytes: u64,
    /// Resident (committed) artifacts at snapshot time.
    pub resident_entries: usize,
    /// Resident artifact bytes at snapshot time.
    pub resident_bytes: usize,
    /// High-water mark of the resident bytes over the cache's lifetime
    /// (never above [`CacheConfig::max_bytes`]).
    pub peak_resident_bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A concurrent, content-keyed, size-bounded store of shared computation
/// artifacts: one lock over an O(1) slab LRU.
#[derive(Debug)]
pub struct ArtifactCache {
    config: CacheConfig,
    /// Rank [`CACHE`]: never held across a compute, and no other
    /// lock is taken while it is held.
    map: RankedMutex<LruMap>,
    /// Parks joiners of in-flight computations (companion to `map`).
    /// Notified whenever an in-flight entry resolves: the winner committed
    /// a value, its panic guard removed the entry, or `clear` dropped it.
    join_cv: RankedCondvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    /// Per-kind get/compute latency histograms, indexed by
    /// [`ArtifactKey::kind_index`].  Always-on: recording is a few relaxed
    /// atomic adds per access.
    latencies: Box<[KindLatency]>,
}

/// Always-on latency histograms for one artifact kind.
#[derive(Debug, Default)]
struct KindLatency {
    /// Duration of lookups that found a value (including any wait for an
    /// in-flight computation to finish — the cache-stall time).
    get: LogHistogram,
    /// Duration of `compute` closures run on misses.
    compute: LogHistogram,
}

/// A plain copy of one kind's latency histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindLatencySnapshot {
    /// The artifact kind, from [`ArtifactKey::KIND_NAMES`].
    pub kind: &'static str,
    /// Hit-path lookup latency (including in-flight waits).
    pub get: HistogramSnapshot,
    /// Miss-path compute latency.
    pub compute: HistogramSnapshot,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::with_config(CacheConfig::default())
    }
}

/// Nanoseconds since `from`, saturating.
fn nanos_since(from: Instant) -> u64 {
    u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn downcast<T: Send + Sync + 'static>(
    key: ArtifactKey,
    value: Arc<dyn Any + Send + Sync>,
) -> Arc<T> {
    value
        .downcast::<T>()
        .unwrap_or_else(|_| panic!("artifact type mismatch for cache key {key:?}"))
}

impl ArtifactCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache with the given budgets.
    pub fn with_config(config: CacheConfig) -> Self {
        Self {
            config,
            map: RankedMutex::new(&CACHE, LruMap::default()),
            join_cv: RankedCondvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            latencies: ArtifactKey::KIND_NAMES
                .iter()
                .map(|_| KindLatency::default())
                .collect(),
        }
    }

    /// Per-kind get/compute latency histogram snapshots, in
    /// [`ArtifactKey::KIND_NAMES`] order (one row per kind, including
    /// kinds with no samples yet).
    pub fn kind_latency_snapshots(&self) -> Vec<KindLatencySnapshot> {
        ArtifactKey::KIND_NAMES
            .iter()
            .zip(self.latencies.iter())
            .map(|(&kind, lat)| KindLatencySnapshot {
                kind,
                get: lat.get.snapshot(),
                compute: lat.compute.snapshot(),
            })
            .collect()
    }

    /// The cache's budgets.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Returns the cached artifact for `key`, computing it with `compute` on
    /// first use.  Concurrent callers for the same key **join the in-flight
    /// computation cooperatively** — never computing it twice — and then
    /// share the same `Arc`: a pool worker that would otherwise idle runs
    /// other ready pool tasks while it waits (so a convoy of sibling fold
    /// jobs behind one hierarchy build turns into throughput instead of
    /// blocked threads), and any other thread parks on the cache's condvar
    /// until the winner commits.
    ///
    /// When a budget is configured, committing a new artifact evicts
    /// least-recently-used residents (O(1) each) until the budget holds
    /// again.  An artifact that alone exceeds the byte budget bypasses
    /// residency — it is counted as immediately evicted and the resident
    /// set is left untouched (the returned `Arc` stays valid either way).
    ///
    /// If `compute` panics, the panic propagates, the in-flight entry is
    /// removed, and the key remains retryable.
    ///
    /// # Panics
    ///
    /// Panics if the same key was previously populated with a different type
    /// (keys are expected to map 1:1 to artifact types).
    pub fn get_or_compute<T, F>(&self, key: ArtifactKey, compute: F) -> Arc<T>
    where
        T: Send + Sync + ArtifactSize + 'static,
        F: FnOnce() -> T,
    {
        // cvcp: allow(D2, reason = "cache lookup-latency histogram; observability only")
        let lookup_from = Instant::now();
        let mut compute = Some(compute);
        // Claim outcome for one attempt; a `Join` that resolves without a
        // value (winner panicked, cache cleared) loops back to re-claim.
        enum Claim {
            Hit(Stored),
            Winner(Slot),
            Join(Slot),
        }
        loop {
            let claim = {
                let mut map = self.map.lock().expect("artifact cache lock");
                match map.index.get(&key).copied() {
                    Some(i) => {
                        map.touch(i);
                        let slot = map.node(i).slot.clone();
                        match slot.get() {
                            Some(stored) => Claim::Hit(stored.clone()),
                            None => Claim::Join(slot),
                        }
                    }
                    None => {
                        let slot: Slot = Arc::default();
                        let i = map.alloc(Node {
                            key,
                            slot: Arc::clone(&slot),
                            bytes: None,
                            prev: NIL,
                            next: NIL,
                            in_lru: false,
                        });
                        map.index.insert(key, i);
                        Claim::Winner(slot)
                    }
                }
            };
            let latency = &self.latencies[key.kind_index()];
            let stored = match claim {
                Claim::Hit(stored) => stored,
                Claim::Winner(slot) => {
                    // The lock is released before the (potentially slow)
                    // computation, so unrelated keys never serialise
                    // behind each other; the guard cleans up the in-flight
                    // entry — and wakes joiners — on unwind.
                    let mut guard = InFlightGuard {
                        cache: self,
                        key,
                        slot: &slot,
                        armed: true,
                    };
                    // cvcp: allow(D2, reason = "cache compute-latency histogram; observability only")
                    let started = Instant::now();
                    let depth = ComputeDepthGuard::enter();
                    let value = Arc::new((compute
                        .take()
                        .expect("only the winner consumes `compute`"))(
                    ));
                    drop(depth);
                    latency.compute.record(nanos_since(started));
                    let bytes = value.artifact_bytes();
                    let stored: Stored = (Arc::clone(&value) as Arc<dyn Any + Send + Sync>, bytes);
                    let won = slot.set(stored).is_ok();
                    debug_assert!(won, "an in-flight slot is initialised only by its inserter");
                    guard.armed = false;
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    note_thread_cache_event(false);
                    // `commit` re-takes the lock, ordering the slot
                    // publication above against every joiner's under-lock
                    // pre-park check — the notification can never be lost.
                    self.commit(key, &slot, bytes);
                    self.join_cv.notify_all();
                    return value;
                }
                Claim::Join(slot) => match self.join_in_flight(&key, &slot) {
                    Some(stored) => stored,
                    None => continue,
                },
            };
            self.hits.fetch_add(1, Ordering::Relaxed);
            note_thread_cache_event(true);
            latency.get.record(nanos_since(lookup_from));
            return downcast(key, stored.0);
        }
    }

    /// Waits for another caller's in-flight computation of `key` to publish
    /// a value into `slot`.  A pool worker that is not itself inside a
    /// `compute` closure *helps* — runs ready pool tasks while it waits —
    /// instead of sleeping; any other thread parks on the join condvar.
    /// Returns `None` when the in-flight entry vanished without a value
    /// (the winner panicked, or the cache was cleared), in which case the
    /// caller must re-claim the key.
    fn join_in_flight(&self, key: &ArtifactKey, slot: &Slot) -> Option<Stored> {
        loop {
            if let Some(stored) = slot.get() {
                return Some(stored.clone());
            }
            if COMPUTE_DEPTH.with(Cell::get) == 0 && crate::pool::help_run_one_task() {
                continue;
            }
            // Nothing to help with: park until the winner publishes or the
            // entry vanishes.  Both pre-wait checks run under the lock, and
            // every resolution path takes that lock before notifying, so
            // the wake-up cannot be lost.
            let mut map = self.map.lock().expect("artifact cache lock");
            loop {
                if slot.get().is_some() {
                    break;
                }
                let in_flight = map
                    .index
                    .get(key)
                    .copied()
                    .is_some_and(|i| Arc::ptr_eq(&map.node(i).slot, slot));
                if !in_flight {
                    drop(map);
                    return slot.get().cloned();
                }
                map = self.join_cv.wait(map).expect("artifact cache lock");
            }
            drop(map);
        }
    }

    /// Returns the artifact for `key` if it is already cached (a hit when a
    /// computed value is present, a miss otherwise; never computes or
    /// blocks on an in-flight computation).
    pub fn get<T: Send + Sync + 'static>(&self, key: ArtifactKey) -> Option<Arc<T>> {
        // cvcp: allow(D2, reason = "cache lookup-latency histogram; observability only")
        let lookup_from = Instant::now();
        let stored = {
            let mut map = self.map.lock().expect("artifact cache lock");
            match map.index.get(&key).copied() {
                Some(i) if map.node(i).slot.get().is_some() => {
                    map.touch(i);
                    map.node(i).slot.get().cloned()
                }
                _ => None,
            }
        };
        let Some((value, _)) = stored else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            note_thread_cache_event(false);
            return None;
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        note_thread_cache_event(true);
        self.latencies[key.kind_index()]
            .get
            .record(nanos_since(lookup_from));
        Some(downcast(key, value))
    }

    /// Books a freshly computed artifact into the resident accounting and
    /// enforces the budgets.  `slot` identifies the computation: if the
    /// entry was removed (or replaced) concurrently — e.g. by
    /// [`Self::clear`] — the bytes are simply not counted as resident.
    fn commit(&self, key: ArtifactKey, slot: &Slot, bytes: usize) {
        let mut map = self.map.lock().expect("artifact cache lock");
        // Over-budget singleton bypass: an artifact that alone exceeds the
        // byte budget (or any artifact, when the entry budget is 0) can
        // never stay resident — admitting it first would evict *every*
        // other resident (a cache wipe) only to be evicted itself.  Count
        // it as immediately evicted and leave the residents untouched.
        if self.config.bypasses(bytes) {
            map.release_uncommitted(&key, slot);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.evicted_bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
            return;
        }
        if let Some(&i) = map.index.get(&key) {
            let committed = {
                let node = map.node_mut(i);
                let ours = Arc::ptr_eq(&node.slot, slot) && node.bytes.is_none();
                if ours {
                    node.bytes = Some(bytes);
                }
                ours
            };
            if committed {
                // Commit-time recency: the lookup happened before a
                // potentially slow compute, during which other keys may
                // have been touched — without this, the freshly computed
                // artifact could be the immediate LRU victim.
                map.attach_tail(i);
                map.resident_bytes += bytes;
                map.resident_entries += 1;
            }
        }
        // Evict from the LRU head — O(1) per victim.  In-flight
        // (uncommitted) entries are never on the list, so concurrent
        // `get_or_compute` calls are never torn.
        while self.config.exceeded_by(&map) && map.head != NIL {
            let victim = map.head;
            map.detach(victim);
            let node = map.release(victim);
            map.index.remove(&node.key);
            let bytes = node.bytes.expect("LRU node committed");
            map.resident_bytes -= bytes;
            map.resident_entries -= 1;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.evicted_bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
        }
        map.peak_resident_bytes = map.peak_resident_bytes.max(map.resident_bytes);
    }

    /// Number of populated entries.
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .expect("artifact cache lock")
            .nodes
            .iter()
            .flatten()
            .filter(|node| node.slot.get().is_some())
            .count()
    }

    /// `true` when no entry has been populated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total map entries including uncommitted in-flight slots — the probe
    /// the panic-leak regression test uses (a leaked slot is invisible to
    /// [`Self::len`], which only counts populated entries).
    #[doc(hidden)]
    pub fn raw_entry_count(&self) -> usize {
        self.map.lock().expect("artifact cache lock").index.len()
    }

    /// Drops every entry and resets the residency accounting (does not reset
    /// the hit/miss/eviction counters or the peak watermark).
    pub fn clear(&self) {
        {
            let mut map = self.map.lock().expect("artifact cache lock");
            let peak = map.peak_resident_bytes;
            *map = LruMap {
                peak_resident_bytes: peak,
                ..LruMap::default()
            };
        }
        // Joiners parked on a dropped in-flight entry must re-claim.
        self.join_cv.notify_all();
    }

    /// Snapshot of the counters and residency state.
    pub fn stats(&self) -> CacheStats {
        let map = self.map.lock().expect("artifact cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
            resident_entries: map.resident_entries,
            resident_bytes: map.resident_bytes,
            peak_resident_bytes: map.peak_resident_bytes,
        }
    }

    /// Asserts that the incremental residency accounting matches the live
    /// map exactly, that the budgets hold, and that the intrusive LRU list
    /// is coherent (test/diagnostic helper).
    ///
    /// # Panics
    ///
    /// Panics when `resident_bytes`/`resident_entries` drifted from the sum
    /// over committed entries, a budget is exceeded, or the LRU list is
    /// inconsistent with the slab.
    #[doc(hidden)]
    pub fn assert_accounting_consistent(&self) {
        let map = self.map.lock().expect("artifact cache lock");
        let (entries, bytes) = map
            .nodes
            .iter()
            .flatten()
            .filter_map(|node| node.bytes)
            .fold((0usize, 0usize), |(n, b), eb| (n + 1, b + eb));
        assert_eq!(
            (map.resident_entries, map.resident_bytes),
            (entries, bytes),
            "residency accounting drifted from the live map"
        );
        assert!(
            !self.config.exceeded_by(&map),
            "resident set ({} entries, {} bytes) exceeds the budgets {:?}",
            map.resident_entries,
            map.resident_bytes,
            self.config
        );
        assert!(map.peak_resident_bytes >= map.resident_bytes);
        // LRU list integrity: exactly the committed nodes, linked both
        // ways, every key indexed back to its node.
        let mut walked = 0usize;
        let mut cursor = map.head;
        let mut prev = NIL;
        while cursor != NIL {
            let node = map.node(cursor);
            assert!(node.in_lru, "listed node unflagged");
            assert!(node.bytes.is_some(), "uncommitted node on the LRU list");
            assert_eq!(node.prev, prev, "broken back-link");
            assert_eq!(
                map.index.get(&node.key),
                Some(&cursor),
                "listed node not indexed"
            );
            walked += 1;
            assert!(
                walked <= map.resident_entries,
                "LRU list longer than the resident count (cycle?)"
            );
            prev = cursor;
            cursor = node.next;
        }
        assert_eq!(
            walked, map.resident_entries,
            "LRU list does not cover the committed entries"
        );
        assert_eq!(map.tail, prev, "stale tail pointer");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn custom(key: u64) -> ArtifactKey {
        ArtifactKey::Custom { domain: 42, key }
    }

    #[test]
    fn computes_once_and_shares_the_arc() {
        let cache = ArtifactCache::new();
        let calls = AtomicUsize::new(0);
        let key = ArtifactKey::PairwiseDistances { data: 42 };
        let a: Arc<Vec<f64>> = cache.get_or_compute(key, || {
            calls.fetch_add(1, Ordering::SeqCst);
            vec![1.0, 2.0]
        });
        let b: Arc<Vec<f64>> = cache.get_or_compute(key, || {
            calls.fetch_add(1, Ordering::SeqCst);
            vec![3.0]
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stats.resident_entries, 1);
        assert_eq!(stats.resident_bytes, a.artifact_bytes());
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let cache = ArtifactCache::new();
        let a: Arc<usize> = cache.get_or_compute(
            ArtifactKey::CoreDistances {
                data: 1,
                min_pts: 3,
            },
            || 3,
        );
        let b: Arc<usize> = cache.get_or_compute(
            ArtifactKey::CoreDistances {
                data: 1,
                min_pts: 5,
            },
            || 5,
        );
        assert_eq!((*a, *b), (3, 5));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_requests_share_one_computation() {
        let cache = Arc::new(ArtifactCache::new());
        let calls = Arc::new(AtomicUsize::new(0));
        let key = ArtifactKey::Custom { domain: 7, key: 7 };
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                std::thread::spawn(move || {
                    let v: Arc<u64> = cache.get_or_compute(key, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        99
                    });
                    *v
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 99);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn parked_joiners_reclaim_after_winner_panic() {
        // The cooperative join must not strand joiners when the winner
        // panics: the panic guard removes the in-flight entry and wakes
        // them, exactly one re-claims as the new winner, and everyone gets
        // the recomputed value.
        let cache = Arc::new(ArtifactCache::new());
        let key = ArtifactKey::Custom { domain: 8, key: 8 };
        let calls = Arc::new(AtomicUsize::new(0));
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let winner = {
            let cache = Arc::clone(&cache);
            let calls = Arc::clone(&calls);
            std::thread::spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _: Arc<u64> = cache.get_or_compute(key, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        started_tx.send(()).unwrap();
                        std::thread::sleep(std::time::Duration::from_millis(40));
                        panic!("winner dies mid-flight")
                    });
                }));
                assert!(result.is_err(), "the winning computation panics");
            })
        };
        started_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("winner claims the key first");
        let joiners: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                std::thread::spawn(move || {
                    let v: Arc<u64> = cache.get_or_compute(key, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        77
                    });
                    *v
                })
            })
            .collect();
        winner.join().unwrap();
        for joiner in joiners {
            assert_eq!(joiner.join().unwrap(), 77);
        }
        assert_eq!(
            calls.load(Ordering::SeqCst),
            2,
            "one panicked attempt plus exactly one successful recompute"
        );
    }

    #[test]
    fn clear_wakes_parked_joiners() {
        // `clear` drops in-flight entries; a parked joiner must wake and
        // re-claim instead of sleeping forever on a vanished computation.
        let cache = Arc::new(ArtifactCache::new());
        let key = ArtifactKey::Custom { domain: 8, key: 9 };
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let winner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let v: Arc<u64> = cache.get_or_compute(key, || {
                    started_tx.send(()).unwrap();
                    gate_rx
                        .recv_timeout(std::time::Duration::from_secs(5))
                        .unwrap();
                    5
                });
                *v
            })
        };
        started_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        let joiner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let v: Arc<u64> = cache.get_or_compute(key, || 5);
                *v
            })
        };
        // Give the joiner a moment to park, then drop the entry from under
        // both of them and release the winner.
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.clear();
        gate_tx.send(()).unwrap();
        assert_eq!(winner.join().unwrap(), 5);
        assert_eq!(joiner.join().unwrap(), 5);
    }

    #[test]
    fn joining_pool_workers_help_run_ready_tasks() {
        // Two pool workers race to compute one key; the winner blocks until
        // a third queued task has run.  With the old blocking join this
        // deadlocks (both workers wedged on one computation); with the
        // cooperative join the losing worker runs the third task itself.
        use crate::graph::N_LANES;
        use cvcp_obs::EngineMetrics;
        let metrics = Arc::new(EngineMetrics::new(2, N_LANES));
        let pool = crate::pool::ThreadPool::new(2, metrics);
        let handle = pool.handle();
        let cache = Arc::new(ArtifactCache::new());
        let key = ArtifactKey::Custom { domain: 9, key: 1 };
        let (helped_tx, helped_rx) = std::sync::mpsc::channel::<()>();
        let helped_rx = Arc::new(std::sync::Mutex::new(helped_rx));
        let (done_tx, done_rx) = std::sync::mpsc::channel::<u64>();
        for _ in 0..2 {
            let cache = Arc::clone(&cache);
            let helped_rx = Arc::clone(&helped_rx);
            let done_tx = done_tx.clone();
            handle.spawn(
                Box::new(move || {
                    let v: Arc<u64> = cache.get_or_compute(key, || {
                        helped_rx
                            .lock()
                            .unwrap()
                            .recv_timeout(std::time::Duration::from_secs(10))
                            .expect("the joining worker must help run the queued task");
                        42
                    });
                    done_tx.send(*v).unwrap();
                }),
                1,
            );
        }
        handle.spawn(Box::new(move || helped_tx.send(()).unwrap()), 1);
        for _ in 0..2 {
            assert_eq!(
                done_rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .unwrap(),
                42
            );
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn get_counts_misses_symmetrically() {
        let cache = ArtifactCache::new();
        // absent key -> miss
        assert!(cache.get::<u64>(custom(1)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert_eq!(stats.hit_rate(), 0.0);
        // populate (one compute miss), then a get hit
        let _: Arc<u64> = cache.get_or_compute(custom(1), || 5);
        assert_eq!(*cache.get::<u64>(custom(1)).unwrap(), 5);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_respects_max_entries_and_recency() {
        let cache = ArtifactCache::with_config(CacheConfig::default().with_max_entries(2));
        let _: Arc<u64> = cache.get_or_compute(custom(1), || 1);
        let _: Arc<u64> = cache.get_or_compute(custom(2), || 2);
        // touch key 1 so key 2 is the LRU victim
        let _: Arc<u64> = cache.get_or_compute(custom(1), || 11);
        let _: Arc<u64> = cache.get_or_compute(custom(3), || 3);
        assert!(cache.get::<u64>(custom(1)).is_some());
        assert!(cache.get::<u64>(custom(2)).is_none(), "LRU entry evicted");
        assert!(cache.get::<u64>(custom(3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident_entries, 2);
        cache.assert_accounting_consistent();
    }

    #[test]
    fn byte_budget_is_never_exceeded() {
        // Each Vec<u64> artifact: 24 bytes of Vec header + 8 per element.
        let artifact_bytes = vec![0u64; 10].artifact_bytes();
        let budget = 2 * artifact_bytes + artifact_bytes / 2; // fits 2, not 3
        let cache = ArtifactCache::with_config(CacheConfig::default().with_max_bytes(budget));
        for k in 0..6u64 {
            let v: Arc<Vec<u64>> = cache.get_or_compute(custom(k), || vec![k; 10]);
            assert_eq!(v.len(), 10);
            let stats = cache.stats();
            assert!(stats.resident_bytes <= budget);
            assert!(stats.peak_resident_bytes <= budget);
        }
        let stats = cache.stats();
        assert_eq!(stats.resident_entries, 2);
        assert_eq!(stats.evictions, 4);
        assert_eq!(stats.evicted_bytes, 4 * artifact_bytes as u64);
        cache.assert_accounting_consistent();
    }

    #[test]
    fn freshly_computed_artifact_is_not_the_first_eviction_victim() {
        // The lookup happens before a potentially slow compute; other keys
        // touched during that compute (here: a nested get_or_compute,
        // exactly the FOSC tree-over-pairwise pattern) must not make the
        // fresh artifact look least-recently-used at commit time.
        let artifact_bytes = vec![0u64; 8].artifact_bytes();
        let cache =
            ArtifactCache::with_config(CacheConfig::default().with_max_bytes(artifact_bytes));
        let outer: Arc<Vec<u64>> = cache.get_or_compute(custom(1), || {
            let inner: Arc<Vec<u64>> = cache.get_or_compute(custom(2), || vec![2; 8]);
            inner.iter().map(|&x| x - 1).collect()
        });
        assert_eq!(outer[0], 1);
        // The nested (older-used) artifact is the victim, not the fresh one.
        assert!(cache.get::<Vec<u64>>(custom(1)).is_some());
        assert!(cache.get::<Vec<u64>>(custom(2)).is_none());
        cache.assert_accounting_consistent();
    }

    #[test]
    fn oversized_artifact_is_computed_then_released() {
        let cache = ArtifactCache::with_config(CacheConfig::default().with_max_bytes(8));
        let v: Arc<Vec<u64>> = cache.get_or_compute(custom(0), || vec![7; 100]);
        // the caller's Arc is valid even though the artifact cannot stay
        assert_eq!(v[99], 7);
        let stats = cache.stats();
        assert_eq!(stats.resident_entries, 0);
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(stats.evictions, 1);
        assert!(stats.peak_resident_bytes <= 8);
        // next request recomputes
        let w: Arc<Vec<u64>> = cache.get_or_compute(custom(0), || vec![8; 100]);
        assert_eq!(w[0], 8);
        cache.assert_accounting_consistent();
        // A zero entry budget is honoured as "cache nothing".
        let none = ArtifactCache::with_config(CacheConfig::default().with_max_entries(0));
        let _: Arc<u64> = none.get_or_compute(custom(1), || 1);
        assert_eq!(none.stats().resident_entries, 0);
        assert_eq!(none.stats().evictions, 1);
        none.assert_accounting_consistent();
    }

    #[test]
    fn oversized_commit_does_not_evict_other_residents() {
        // The thrash regression: committing one artifact larger than the
        // whole byte budget used to evict *every* other resident (and then
        // the oversized artifact itself) — a full cache wipe.  Over-budget
        // singletons must bypass residency without touching their
        // neighbours.
        let artifact_bytes = vec![0u64; 10].artifact_bytes();
        let budget = 3 * artifact_bytes;
        let cache = ArtifactCache::with_config(CacheConfig::default().with_max_bytes(budget));
        // Warm the cache with three residents that fill the budget exactly.
        for k in 0..3u64 {
            let _: Arc<Vec<u64>> = cache.get_or_compute(custom(k), || vec![k; 10]);
        }
        assert_eq!(cache.stats().resident_entries, 3);
        // Commit a 2×-budget artifact.
        let big: Arc<Vec<u64>> = cache.get_or_compute(custom(99), || vec![9; 2 * budget / 8]);
        assert_eq!(big.len(), 2 * budget / 8);
        let stats = cache.stats();
        assert_eq!(
            stats.resident_entries, 3,
            "prior residents must survive an oversized commit"
        );
        for k in 0..3u64 {
            assert!(
                cache.get::<Vec<u64>>(custom(k)).is_some(),
                "resident {k} was evicted by an oversized artifact"
            );
        }
        assert_eq!(
            stats.evictions, 1,
            "the oversized artifact counts as one immediate eviction"
        );
        assert!(cache.get::<Vec<u64>>(custom(99)).is_none());
        cache.assert_accounting_consistent();
    }

    #[test]
    fn panicking_compute_releases_the_in_flight_slot() {
        // The leak regression: a panic inside `compute` used to leave a
        // permanently uncommitted entry in the map — never an eviction
        // candidate, invisible to `len()`, accumulating per failed key.
        let cache = ArtifactCache::with_config(CacheConfig::default().with_max_entries(4));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Arc<u64> = cache.get_or_compute(custom(1), || panic!("compute exploded"));
        }));
        assert!(result.is_err(), "the compute panic must propagate");
        assert_eq!(
            cache.raw_entry_count(),
            0,
            "a panicked compute must not leak its in-flight entry"
        );
        // The key stays retryable and commits normally afterwards.
        let v: Arc<u64> = cache.get_or_compute(custom(1), || 7);
        assert_eq!(*v, 7);
        assert_eq!(cache.stats().resident_entries, 1);
        cache.assert_accounting_consistent();
    }

    #[test]
    fn kind_names_cover_every_key_variant() {
        let keys = [
            ArtifactKey::PairwiseDistances { data: 1 },
            ArtifactKey::CoreDistances {
                data: 1,
                min_pts: 2,
            },
            ArtifactKey::MutualReachabilityMst {
                data: 1,
                min_pts: 2,
            },
            ArtifactKey::DensityHierarchy {
                data: 1,
                min_pts: 2,
            },
            ArtifactKey::FoldClosure { side: 1, fold: 0 },
            ArtifactKey::MpckSeeding {
                data: 1,
                constraints: 2,
                use_closure: true,
            },
            custom(1),
            ArtifactKey::Replica {
                id: ReplicaId::IrisLike,
                seed: 2,
            },
        ];
        // One latency row per variant, in `KIND_NAMES` order.
        let indices: Vec<usize> = keys.iter().map(ArtifactKey::kind_index).collect();
        assert_eq!(
            indices,
            (0..ArtifactKey::KIND_NAMES.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ArtifactCache::new();
        assert!(cache.config().is_unbounded());
        for k in 0..100u64 {
            let _: Arc<Vec<u64>> = cache.get_or_compute(custom(k), || vec![k; 50]);
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.resident_entries, 100);
        assert_eq!(stats.peak_resident_bytes, stats.resident_bytes);
        cache.assert_accounting_consistent();
    }

    #[test]
    fn concurrent_eviction_never_tears_or_double_computes_in_flight() {
        // N threads hammer an over-budget cache: artifacts must never be
        // observed torn, a key must never be computed twice concurrently,
        // and the byte/entry accounting must match the live map afterwards.
        const KEYS: u64 = 16;
        const THREADS: usize = 8;
        const ROUNDS: usize = 200;
        let artifact_bytes = vec![0u64; 32].artifact_bytes();
        // room for ~4 of the 16 artifacts -> constant eviction pressure
        let cache = Arc::new(ArtifactCache::with_config(
            CacheConfig::default().with_max_bytes(4 * artifact_bytes + 1),
        ));
        let in_flight: Arc<Vec<AtomicUsize>> =
            Arc::new((0..KEYS).map(|_| AtomicUsize::new(0)).collect());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let in_flight = Arc::clone(&in_flight);
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        let key = ((t + round) as u64 * 7 + round as u64) % KEYS;
                        let v: Arc<Vec<u64>> = cache.get_or_compute(custom(key), || {
                            let running = in_flight[key as usize].fetch_add(1, Ordering::SeqCst);
                            assert_eq!(running, 0, "key {key} computed twice concurrently");
                            let value = vec![key; 32];
                            in_flight[key as usize].fetch_sub(1, Ordering::SeqCst);
                            value
                        });
                        // a torn artifact would have wrong length or content
                        assert_eq!(v.len(), 32);
                        assert!(v.iter().all(|&x| x == key), "torn artifact for key {key}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        cache.assert_accounting_consistent();
        let stats = cache.stats();
        assert!(stats.evictions > 0, "budget pressure must cause evictions");
        assert!(stats.resident_bytes <= 4 * artifact_bytes + 1);
        assert!(stats.peak_resident_bytes <= 4 * artifact_bytes + 1);
        assert_eq!(stats.hits + stats.misses, (THREADS * ROUNDS) as u64);
    }

    #[test]
    fn matrix_fingerprints_detect_content_changes() {
        let a = DataMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut b = a.clone();
        assert_eq!(fingerprint_matrix(&a), fingerprint_matrix(&b));
        b.set(1, 1, 4.5);
        assert_ne!(fingerprint_matrix(&a), fingerprint_matrix(&b));
        // shape participates in the fingerprint
        let flat = DataMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 1, 4);
        assert_ne!(fingerprint_matrix(&a), fingerprint_matrix(&flat));

        // Each mutation after a fingerprint was taken reads as a freshly
        // built matrix with the new content.
        let fresh = |rows: &[Vec<f64>]| fingerprint_matrix(&DataMatrix::from_rows(rows));
        let mut m = a.clone();
        assert_eq!(
            fingerprint_matrix(&m),
            fresh(&[vec![1.0, 2.0], vec![3.0, 4.0]])
        );
        m.set(0, 1, -2.0);
        assert_eq!(
            fingerprint_matrix(&m),
            fresh(&[vec![1.0, -2.0], vec![3.0, 4.0]])
        );
        m.row_mut(1).copy_from_slice(&[5.0, 6.0]);
        assert_eq!(
            fingerprint_matrix(&m),
            fresh(&[vec![1.0, -2.0], vec![5.0, 6.0]])
        );
        m.push_row(&[7.0, 8.0]);
        assert_eq!(
            fingerprint_matrix(&m),
            fresh(&[vec![1.0, -2.0], vec![5.0, 6.0], vec![7.0, 8.0]])
        );
        // `push_row` on an empty matrix also sets the column count.
        let mut grown = DataMatrix::zeros(0, 0);
        let _ = fingerprint_matrix(&grown);
        grown.push_row(&[9.0, 10.0, 11.0]);
        assert_eq!(fingerprint_matrix(&grown), fresh(&[vec![9.0, 10.0, 11.0]]));
        // A clone taken after the fingerprint, then mutated, leaves the
        // original's fingerprint alone.
        let mut copy = m.clone();
        copy.set(2, 0, 0.5);
        assert_eq!(
            fingerprint_matrix(&copy),
            fresh(&[vec![1.0, -2.0], vec![5.0, 6.0], vec![0.5, 8.0]])
        );
        assert_eq!(
            fingerprint_matrix(&m),
            fresh(&[vec![1.0, -2.0], vec![5.0, 6.0], vec![7.0, 8.0]])
        );
    }

    #[test]
    fn clear_empties_the_cache_and_resets_residency() {
        let cache = ArtifactCache::new();
        let _: Arc<u8> = cache.get_or_compute(ArtifactKey::Custom { domain: 1, key: 1 }, || 1);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache
            .get::<u8>(ArtifactKey::Custom { domain: 1, key: 1 })
            .is_none());
        let stats = cache.stats();
        assert_eq!(stats.resident_entries, 0);
        assert_eq!(stats.resident_bytes, 0);
        cache.assert_accounting_consistent();
    }

    #[test]
    fn artifact_size_measures_nested_heap() {
        assert_eq!(7u64.artifact_bytes(), 8);
        assert_eq!(vec![1.0f64; 4].artifact_bytes(), 24 + 32);
        let nested = vec![vec![1.0f64; 2]; 3];
        assert_eq!(nested.artifact_bytes(), 24 + 3 * (24 + 16));
        assert_eq!("abc".to_string().artifact_bytes(), 24 + 3);
    }
}
