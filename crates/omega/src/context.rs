//! A shared Omega [`Context`]: hash-consing arena + memoization caches.
//!
//! The dHPF equation pipeline (Fig. 3 communication sets, Fig. 4 loop
//! splitting, Fig. 5 active virtual processors) re-derives the same layout
//! and iteration-space conjuncts at every statement group, so the expensive
//! per-conjunct operations — integer satisfiability, Fourier–Motzkin
//! projection, exact negation, gist — are recomputed many times over
//! structurally identical inputs. A `Context` hash-conses [`Conjunct`]s
//! (and [`LinExpr`]s) into interned ids and memoizes those operations in
//! per-operation caches keyed by the interned ids, with hit/miss/eviction
//! counters that the compiler driver surfaces next to its Table-1 phase
//! timers.
//!
//! A `Context` is an `Arc`-shared handle: cloning it is cheap and all
//! clones share one arena. Attach it to root relations (layouts, parsed
//! sets, iteration spaces) with [`Relation::with_context`]; every derived
//! relation inherits the context through the set operations.
//!
//! # Concurrency
//!
//! The arena is **lock-striped**: interners and memo tables are split
//! across [`SHARDS`] shards selected by a deterministic structural hash,
//! so concurrent clients (the parallel driver's worker threads) contend
//! only when they touch the same shard. No operation ever holds two shard
//! locks at once, and no shard lock is held across a `compute` closure,
//! so the locking is deadlock-free by construction. `Context` is
//! `Send + Sync` (statically asserted below): one long-lived context can
//! serve a whole thread pool.
//!
//! ```
//! use dhpf_omega::Context;
//!
//! let ctx = Context::new();
//! let layout = ctx.parse_relation("{[p] -> [a] : 25p+1 <= a <= 25p+25 && 0 <= p <= 3}")?;
//! let iters = ctx.parse_set("{[i] : 1 <= i <= N}")?;
//! let owned = layout.apply(&iters); // cached ops record hits/misses
//! assert!(!owned.is_empty());
//! assert!(ctx.stats().total_misses() > 0);
//! # Ok::<(), dhpf_omega::OmegaError>(())
//! ```

use crate::budget::{
    anchor, current_request_governor, now_us, request_governor_armed, trip_reason, Budget,
    CancelToken, GovernorStats, TRIP_DEADLINE, TRIP_FUEL, TRIP_INJECTED,
};
use crate::builder::{RelationBuilder, SetBuilder};
use crate::conjunct::Conjunct;
use crate::inject::{FaultAction, InjectPlan};
use crate::linexpr::LinExpr;
use crate::relation::Relation;
use crate::set::Set;
use crate::var::Var;
use crate::OmegaError;
use dhpf_obs::Collector;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default maximum total entries per memo table (summed across shards).
/// Keeps long compilations bounded; one compilation of the paper's
/// benchmarks stays under this (SP-sym's FME table peaks at ~150k entries,
/// so the cap must exceed that or the warm cache is churned
/// mid-compilation). A serving deployment tunes it with
/// [`Context::set_cache_capacity`].
pub const DEFAULT_CACHE_CAP: usize = 1 << 19;

/// Number of lock stripes in the arena. A power of two so the shard of an
/// interned id is `id % SHARDS` (the id encodes its shard in the low bits).
pub const SHARDS: usize = 16;

/// Entries inspected per eviction round. Sampled eviction (à la Redis)
/// keeps insertion O(sample) instead of O(table): the victim is the
/// lowest-scored of a small sample, which for a power-law access pattern
/// is within noise of true LRU.
const EVICT_SAMPLE: usize = 8;

/// Cap on the recency credit an expensive entry earns (see
/// [`MemoTable::insert`]): one microsecond of saved recomputation counts
/// as one tick of recency, up to this bound, so a pathological multi-second
/// entry cannot pin itself forever.
const COST_CREDIT_CAP_US: u32 = 8_192;

/// Interned id of a hash-consed conjunct (or expression). The low
/// `log2(SHARDS)` bits identify the owning shard.
type Id = u32;

/// Hit/miss/eviction counters for one memoized operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the real computation.
    pub misses: u64,
    /// Entries discarded when the table hit its capacity bound.
    pub evictions: u64,
}

impl OpCounts {
    fn add(&mut self, other: &OpCounts) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// A snapshot of a context's cache effectiveness, reported by
/// [`Context::stats`] and surfaced through the compiler's `CompileReport`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Conjunct satisfiability tests (the hottest operation: emptiness,
    /// subset, redundancy and gist checks all bottom out here).
    pub sat: OpCounts,
    /// Exact existential/variable elimination (FME projection).
    pub eliminate: OpCounts,
    /// Exact conjunct negation (difference/subset tests).
    pub negate: OpCounts,
    /// Gist (constraint simplification relative to a known context).
    pub gist: OpCounts,
    /// Relation-level `simplify` (keyed by the interned conjunct list).
    pub simplify: OpCounts,
    /// Distinct conjuncts hash-consed into the arena.
    pub interned_conjuncts: u64,
    /// Distinct linear expressions hash-consed into the arena.
    pub interned_exprs: u64,
}

impl CacheStats {
    /// Sum of hits across every operation cache.
    pub fn total_hits(&self) -> u64 {
        self.sat.hits + self.eliminate.hits + self.negate.hits + self.gist.hits + self.simplify.hits
    }

    /// Sum of misses across every operation cache.
    pub fn total_misses(&self) -> u64 {
        self.sat.misses
            + self.eliminate.misses
            + self.negate.misses
            + self.gist.misses
            + self.simplify.misses
    }

    /// Sum of evictions across every operation cache.
    pub fn total_evictions(&self) -> u64 {
        self.sat.evictions
            + self.eliminate.evictions
            + self.negate.evictions
            + self.gist.evictions
            + self.simplify.evictions
    }

    /// Overall hit rate in `0.0..=1.0` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_hits() + self.total_misses();
        if total == 0 {
            0.0
        } else {
            self.total_hits() as f64 / total as f64
        }
    }

    /// Accumulates another snapshot into this one (used when a compilation
    /// aggregates per-unit contexts, and by [`Context::stats`] to merge the
    /// per-shard counters).
    pub fn merge(&mut self, other: &CacheStats) {
        self.sat.add(&other.sat);
        self.eliminate.add(&other.eliminate);
        self.negate.add(&other.negate);
        self.gist.add(&other.gist);
        self.simplify.add(&other.simplify);
        self.interned_conjuncts += other.interned_conjuncts;
        self.interned_exprs += other.interned_exprs;
    }

    /// `(name, counts)` rows in a stable order, for table rendering.
    pub fn rows(&self) -> [(&'static str, OpCounts); 5] {
        [
            ("satisfiability", self.sat),
            ("fme projection", self.eliminate),
            ("negation", self.negate),
            ("gist", self.gist),
            ("simplify", self.simplify),
        ]
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache: {} hits / {} misses ({:.1}% hit rate), {} evictions, {} conjuncts interned",
            self.total_hits(),
            self.total_misses(),
            100.0 * self.hit_rate(),
            self.total_evictions(),
            self.interned_conjuncts,
        )
    }
}

/// One memoized result plus the bookkeeping the eviction policy needs.
struct MemoEntry<V> {
    v: V,
    /// Table tick at the entry's last hit (or its insertion).
    stamp: u64,
    /// Microseconds the original computation took — the recomputation
    /// cost this entry saves on every hit.
    cost_us: u32,
}

/// A size-bounded memo table with **cost-aware sampled eviction**
/// (GDSF-flavored): each entry's retention score is its recency stamp
/// plus a credit proportional to how expensive it was to compute, so under
/// pressure the cache sheds cheap, cold entries first and keeps the
/// expensive projections/negations that fleet-level reuse is for.
///
/// Replaces the previous wholesale shard flush: eviction is now
/// incremental (one victim per over-capacity insert, chosen as the
/// lowest-scored of a small sample), so a warm serving cache degrades
/// smoothly at its capacity bound instead of periodically dumping
/// everything it learned.
struct MemoTable<K, V> {
    map: HashMap<K, MemoEntry<V>>,
    /// Monotonic access counter; stamps entries for recency scoring.
    tick: u64,
}

impl<K, V> Default for MemoTable<K, V> {
    fn default() -> Self {
        MemoTable {
            map: HashMap::new(),
            tick: 0,
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> MemoTable<K, V> {
    /// Cache probe: a hit refreshes the entry's recency stamp.
    fn get(&mut self, k: &K, counts: &mut OpCounts) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(k) {
            Some(e) => {
                e.stamp = tick;
                counts.hits += 1;
                Some(e.v.clone())
            }
            None => {
                counts.misses += 1;
                None
            }
        }
    }

    /// Inserts a computed result, evicting lowest-scored entries while the
    /// table is at its capacity bound. `cost_us` is the measured compute
    /// time of the inserted result.
    fn insert(&mut self, k: K, v: V, cost_us: u32, cap: usize, counts: &mut OpCounts) {
        while self.map.len() >= cap.max(1) {
            let victim = self
                .map
                .iter()
                .take(EVICT_SAMPLE)
                .min_by_key(|(_, e)| {
                    e.stamp
                        .saturating_add(u64::from(e.cost_us.min(COST_CREDIT_CAP_US)))
                })
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.map.remove(&k);
                    counts.evictions += 1;
                }
                None => break,
            }
        }
        self.tick += 1;
        self.map.insert(
            k,
            MemoEntry {
                v,
                stamp: self.tick,
                cost_us,
            },
        );
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn clear(&mut self) {
        self.map.clear();
    }
}

/// Per-shard hit/miss/eviction counters, one [`OpCounts`] per memoized
/// operation. Plain integers mutated under the shard lock: cheaper than
/// shared atomics (no cross-shard cache-line ping-pong) and merged into a
/// [`CacheStats`] on read.
#[derive(Default)]
struct ShardCounts {
    sat: OpCounts,
    eliminate: OpCounts,
    negate: OpCounts,
    gist: OpCounts,
    simplify: OpCounts,
}

/// One lock stripe of the arena: interner slices plus one memo table per
/// operation. A conjunct's per-conjunct memo entries (sat / eliminate /
/// negate) live in the same shard as the conjunct itself, so the hot path
/// interns and probes under a single lock acquisition.
#[derive(Default)]
struct Shard {
    /// Hash-consed conjuncts owned by this shard: structural value → id.
    /// The id is the key of every per-conjunct memo table, so a conjunct
    /// is hashed in full at most once per distinct structure.
    conjuncts: HashMap<Conjunct, Id>,
    /// Hash-consed linear expressions (used by the builder API).
    exprs: HashMap<LinExpr, Id>,
    sat: MemoTable<Id, bool>,
    eliminate: MemoTable<(Id, Var), Result<Vec<Conjunct>, OmegaError>>,
    negate: MemoTable<Id, Result<Vec<Conjunct>, OmegaError>>,
    /// Keyed `(a, b)`; stored in the shard of `a`.
    gist: MemoTable<(Id, Id), Conjunct>,
    /// Keyed by the interned conjunct list; stored in the shard selected
    /// by the hash of that id list.
    simplify: MemoTable<Vec<Id>, Vec<Conjunct>>,
    counts: ShardCounts,
}

impl Shard {
    fn stats(&self) -> CacheStats {
        CacheStats {
            sat: self.counts.sat,
            eliminate: self.counts.eliminate,
            negate: self.counts.negate,
            gist: self.counts.gist,
            simplify: self.counts.simplify,
            interned_conjuncts: self.conjuncts.len() as u64,
            interned_exprs: self.exprs.len() as u64,
        }
    }
}

thread_local! {
    /// Nesting depth of [`governor_grace`] scopes on the current thread.
    static GRACE_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Suspends budget enforcement and fault injection on the *current thread*
/// until the returned guard drops; cancellation stays live.
///
/// The degraded rebuild that runs after a budget trip must itself perform
/// set algebra — conservative communication maps still pass through code
/// generation, which subtracts conjuncts — and without a grace scope those
/// operations would fail with the very `BudgetExceeded` the rebuild is
/// recovering from. The scope is thread-local so sibling compile tasks on
/// other worker threads remain fully governed; it nests, and it suspends
/// injection too, so a fallback can never be re-injected into an
/// escalation loop.
#[must_use = "enforcement resumes when the guard drops"]
pub fn governor_grace() -> GraceGuard {
    GRACE_DEPTH.with(|d| d.set(d.get() + 1));
    GraceGuard { _priv: () }
}

/// RAII scope of [`governor_grace`].
pub struct GraceGuard {
    _priv: (),
}

impl Drop for GraceGuard {
    fn drop(&mut self) {
        GRACE_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

fn in_grace() -> bool {
    GRACE_DEPTH.with(std::cell::Cell::get) > 0
}

/// Mutable fault-injection bookkeeping, behind one mutex that is only
/// touched when a plan is armed (the `governed` gate keeps it off the
/// ungoverned hot path). Per-site hit counters make decisions a pure
/// function of `(seed, site, count)` regardless of thread interleaving
/// *per site*.
#[derive(Default)]
struct InjectState {
    plan: Option<InjectPlan>,
    counts: HashMap<&'static str, u64>,
    fired: u64,
}

struct Inner {
    enabled: AtomicBool,
    /// Fast gate for the trace hook: `true` iff `obs` holds a collector.
    /// Kept separate so the untraced hot path pays one relaxed load.
    traced: AtomicBool,
    /// The attached trace collector (see [`Context::set_collector`]).
    obs: Mutex<Option<Collector>>,
    /// Fast gate for the resource governor: `true` iff a deadline, op
    /// fuel, a cancel token, or an injection plan is armed (or the budget
    /// already tripped). When `false`, `charge` is one relaxed load.
    governed: AtomicBool,
    /// Sticky once the budget trips; `trip_code` says why.
    tripped: AtomicBool,
    trip_code: AtomicU8,
    /// Remaining op fuel; `u64::MAX` = unlimited.
    fuel: AtomicU64,
    /// Deadline in microseconds since [`anchor`]; `u64::MAX` = none.
    deadline_us: AtomicU64,
    /// Fast gate for the cancel check (avoids the mutex when unarmed).
    cancel_armed: AtomicBool,
    cancel: Mutex<Option<CancelToken>>,
    /// Configurable exactness limits (satellite of PR 7: the former
    /// hard-coded constants in `ops.rs` / `relation.rs`).
    max_negation_pieces: AtomicUsize,
    subsume_negation_pieces: AtomicUsize,
    stride_fuel: AtomicU32,
    /// Governor counters ([`GovernorStats`]).
    charged: AtomicU64,
    degraded: AtomicU64,
    /// Fast gate + state for fault injection.
    inject_armed: AtomicBool,
    inject: Mutex<InjectState>,
    /// Total memo-entry capacity per operation table (divided evenly
    /// across shards). See [`Context::set_cache_capacity`].
    cache_capacity: AtomicUsize,
    /// Shadow steps of the satisfiability loop ([`Context::shadow_step`]):
    /// projections that are counted but not memoized, so they belong to no
    /// shard. Reported as `eliminate` misses.
    shadow_steps: AtomicU64,
    shards: [Mutex<Shard>; SHARDS],
}

/// RAII sample of one set operation: on drop, records the call (count,
/// duration, input-size histogram) on the attached collector's innermost
/// open span. Declared *first* in each memoized operation so it drops
/// *last* — after any shard `MutexGuard` — keeping the collector's lock
/// disjoint from the shard locks.
pub(crate) struct OpTrace {
    obs: Collector,
    op: &'static str,
    size: u64,
    t0: Instant,
}

impl Drop for OpTrace {
    fn drop(&mut self) {
        self.obs.record_op(self.op, self.t0.elapsed(), self.size);
    }
}

/// Input size of a per-conjunct operation: its constraint count.
fn conjunct_size(c: &Conjunct) -> u64 {
    (c.eqs().len() + c.geqs().len()) as u64
}

/// Measured compute cost of a memo miss, for the eviction policy.
/// Saturates at `u32::MAX` (~71 minutes — effectively never).
fn elapsed_us(t0: Instant) -> u32 {
    u32::try_from(t0.elapsed().as_micros()).unwrap_or(u32::MAX)
}

/// Deterministic shard index for a hashable key. `DefaultHasher::new()`
/// uses fixed keys, so the mapping is stable across runs and threads —
/// interned ids (and therefore eviction behaviour) never depend on
/// scheduling.
fn shard_of<K: Hash>(k: &K) -> usize {
    let mut h = DefaultHasher::new();
    k.hash(&mut h);
    (h.finish() as usize) & (SHARDS - 1)
}

/// The shard that owns an interned id (the id's low bits).
fn shard_of_id(id: Id) -> usize {
    (id as usize) & (SHARDS - 1)
}

/// A shared hash-consing + memoization context for Omega operations.
///
/// See the [module documentation](self) for the design; in short: create
/// one per compilation (or one long-lived one via
/// `dhpf_core::compile_with`), attach it to root sets/relations, and every
/// derived operation reuses previously computed satisfiability tests,
/// projections, negations, gists and simplifications. The context is
/// `Send + Sync`: the parallel driver shares one across worker threads.
#[derive(Clone)]
pub struct Context {
    inner: Arc<Inner>,
}

// The whole point of the sharded arena: a Context can be shared across the
// driver's worker threads. Checked at compile time so a non-Sync field can
// never sneak in.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Context>();
};

impl Default for Context {
    fn default() -> Self {
        Context::new()
    }
}

impl fmt::Debug for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("enabled", &self.is_enabled())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Context {
    /// A fresh context with caching enabled and the default cache
    /// capacity ([`DEFAULT_CACHE_CAP`]).
    pub fn new() -> Self {
        Context::with_capacity(DEFAULT_CACHE_CAP)
    }

    /// A fresh context whose memo tables are bounded at `capacity` total
    /// entries per operation table. Long-running servers pick this to
    /// bound resident memory; see [`Context::set_cache_capacity`].
    pub fn with_capacity(capacity: usize) -> Self {
        Context {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                traced: AtomicBool::new(false),
                obs: Mutex::new(None),
                governed: AtomicBool::new(false),
                tripped: AtomicBool::new(false),
                trip_code: AtomicU8::new(0),
                fuel: AtomicU64::new(u64::MAX),
                deadline_us: AtomicU64::new(u64::MAX),
                cancel_armed: AtomicBool::new(false),
                cancel: Mutex::new(None),
                max_negation_pieces: AtomicUsize::new(Budget::default().max_negation_pieces),
                subsume_negation_pieces: AtomicUsize::new(
                    Budget::default().subsume_negation_pieces,
                ),
                stride_fuel: AtomicU32::new(Budget::default().stride_fuel),
                charged: AtomicU64::new(0),
                degraded: AtomicU64::new(0),
                inject_armed: AtomicBool::new(false),
                inject: Mutex::new(InjectState::default()),
                cache_capacity: AtomicUsize::new(capacity),
                shadow_steps: AtomicU64::new(0),
                shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            }),
        }
    }

    /// Bounds every memo table at `capacity` total entries (per operation,
    /// summed across shards). When a table is full, inserting a new result
    /// evicts the entry with the lowest recency + compute-cost score from
    /// a small sample, so cheap cold entries leave first. Takes effect on
    /// subsequent inserts; existing entries are not flushed. A capacity of
    /// `0` is clamped to one entry per shard.
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.inner.cache_capacity.store(capacity, Ordering::Relaxed);
    }

    /// The current per-table memo capacity (see
    /// [`set_cache_capacity`](Self::set_cache_capacity)).
    pub fn cache_capacity(&self) -> usize {
        self.inner.cache_capacity.load(Ordering::Relaxed)
    }

    /// The per-shard entry bound derived from the table capacity.
    fn shard_cap(&self) -> usize {
        (self.inner.cache_capacity.load(Ordering::Relaxed) / SHARDS).max(1)
    }

    /// True when the thread's armed [`RequestGovernor`] carries
    /// non-default exactness limits: a result computed under those limits
    /// is not interchangeable with a default-limit entry (a negation that
    /// is inexact under a tight piece cap may be exact under the default),
    /// so both memo lookup and insert are skipped for such requests. The
    /// context-global `set_budget` path instead flushes the tables when
    /// its limits change — that stays correct because only one global
    /// budget exists at a time.
    fn memo_bypassed(&self) -> bool {
        current_request_governor().is_some_and(|g| g.non_default_limits())
    }

    /// Total memoized entries currently resident, summed over the five
    /// operation tables and all shards — the quantity
    /// [`set_cache_capacity`](Self::set_cache_capacity) bounds per table.
    pub fn memo_entries(&self) -> u64 {
        let mut n = 0u64;
        for shard in &self.inner.shards {
            let s = shard.lock().unwrap();
            n += (s.sat.len()
                + s.eliminate.len()
                + s.negate.len()
                + s.gist.len()
                + s.simplify.len()) as u64;
        }
        n
    }

    /// Per-table resident memo entries, as `(operation name, entries)`
    /// pairs in a fixed order — the gauge hook a serving tier polls to
    /// export memo-table occupancy per operation (the sum equals
    /// [`memo_entries`](Self::memo_entries)). Shards are locked one at a
    /// time, so the snapshot is per-shard-consistent.
    pub fn memo_occupancy(&self) -> [(&'static str, u64); 5] {
        let mut out: [(&'static str, u64); 5] = [
            ("sat", 0),
            ("eliminate", 0),
            ("negate", 0),
            ("gist", 0),
            ("simplify", 0),
        ];
        for shard in &self.inner.shards {
            let s = shard.lock().unwrap();
            out[0].1 += s.sat.len() as u64;
            out[1].1 += s.eliminate.len() as u64;
            out[2].1 += s.negate.len() as u64;
            out[3].1 += s.gist.len() as u64;
            out[4].1 += s.simplify.len() as u64;
        }
        out
    }

    /// A context with caching disabled: operations behave exactly as with
    /// no context at all. Used by the `--no-cache` ablation.
    pub fn disabled() -> Self {
        let ctx = Context::new();
        ctx.set_enabled(false);
        ctx
    }

    /// Enables or disables memoization at runtime (existing entries are
    /// kept but not consulted while disabled).
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// True if lookups consult the memo tables.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// True if `self` and `other` share one arena.
    pub fn same_as(&self, other: &Context) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Attaches (or with `None`, detaches) a trace collector. While
    /// attached, every memoizable set operation — satisfiability, FME
    /// projection, negation, gist, simplify; cache hit or miss alike —
    /// records a count/duration/size sample on the collector's innermost
    /// open span. Works with memoization disabled too, so `--no-cache`
    /// ablations still report their set-operation mix. With no collector
    /// the hook costs one relaxed atomic load per operation.
    pub fn set_collector(&self, c: Option<Collector>) {
        let mut obs = self.inner.obs.lock().unwrap();
        self.inner.traced.store(c.is_some(), Ordering::Release);
        *obs = c;
    }

    /// The attached trace collector, if any.
    pub fn collector(&self) -> Option<Collector> {
        if !self.inner.traced.load(Ordering::Relaxed) {
            return None;
        }
        self.inner.obs.lock().unwrap().clone()
    }

    /// Starts an RAII op sample if a collector is attached (the untraced
    /// fast path is one relaxed load and no allocation).
    fn op_trace(&self, op: &'static str, size: u64) -> Option<OpTrace> {
        if !self.inner.traced.load(Ordering::Relaxed) {
            return None;
        }
        let obs = self.inner.obs.lock().unwrap().clone()?;
        Some(OpTrace {
            obs,
            op,
            size,
            t0: Instant::now(),
        })
    }

    /// A snapshot of the cache counters: the per-shard counters merged via
    /// [`CacheStats::merge`]. Shards are locked one at a time, so the
    /// snapshot is per-shard-consistent (exact once the workers are
    /// quiesced, which is when the driver reads it).
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for shard in &self.inner.shards {
            out.merge(&shard.lock().unwrap().stats());
        }
        out.eliminate.misses += self.inner.shadow_steps.load(Ordering::Relaxed);
        out
    }

    /// Resets the hit/miss/eviction counters (the interned arena is kept).
    pub fn reset_stats(&self) {
        for shard in &self.inner.shards {
            shard.lock().unwrap().counts = ShardCounts::default();
        }
        self.inner.shadow_steps.store(0, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Resource governor
    // ------------------------------------------------------------------

    /// Recomputes the `governed` fast gate from the armed state. Called
    /// after every arm/disarm mutation.
    fn update_governed(&self) {
        let i = &self.inner;
        let on = i.fuel.load(Ordering::Relaxed) != u64::MAX
            || i.deadline_us.load(Ordering::Relaxed) != u64::MAX
            || i.cancel_armed.load(Ordering::Relaxed)
            || i.inject_armed.load(Ordering::Relaxed)
            || i.tripped.load(Ordering::Relaxed);
        i.governed.store(on, Ordering::Release);
    }

    /// Arms a compile [`Budget`] on this context. The deadline clock
    /// starts now; op fuel is set to the budget's quota; the exactness
    /// limits (negation pieces, subsumption pieces, stride fuel) replace
    /// the previous values. Any earlier trip is cleared.
    pub fn set_budget(&self, b: &Budget) {
        let i = &self.inner;
        i.tripped.store(false, Ordering::Relaxed);
        i.trip_code.store(0, Ordering::Relaxed);
        i.fuel
            .store(b.op_fuel.unwrap_or(u64::MAX), Ordering::Relaxed);
        let deadline = b.deadline_ms.map_or(u64::MAX, |ms| {
            let at = anchor().elapsed() + Duration::from_millis(ms);
            u64::try_from(at.as_micros()).unwrap_or(u64::MAX)
        });
        i.deadline_us.store(deadline, Ordering::Relaxed);
        // Memoized negation/elimination results depend on the exactness
        // limits (a negation that is inexact under a tight piece cap may
        // be exact under the default), so changing any limit flushes the
        // memo tables — otherwise a stale `InexactNegation` could outlive
        // the budget that caused it.
        let limits_changed = i
            .max_negation_pieces
            .swap(b.max_negation_pieces, Ordering::Relaxed)
            != b.max_negation_pieces
            || i.subsume_negation_pieces
                .swap(b.subsume_negation_pieces, Ordering::Relaxed)
                != b.subsume_negation_pieces
            || i.stride_fuel.swap(b.stride_fuel, Ordering::Relaxed) != b.stride_fuel;
        if limits_changed {
            self.flush_memo_tables();
        }
        self.update_governed();
    }

    /// Drops every memoized result (the interned arena and the counters
    /// are kept). Used when the exactness limits change.
    fn flush_memo_tables(&self) {
        for shard in &self.inner.shards {
            let mut s = shard.lock().unwrap();
            s.sat.clear();
            s.eliminate.clear();
            s.negate.clear();
            s.gist.clear();
            s.simplify.clear();
        }
    }

    /// Disarms the budget: unlimited fuel, no deadline, default limits,
    /// trip state cleared. Cancel token and injection plan are unaffected.
    pub fn clear_budget(&self) {
        self.set_budget(&Budget::default());
    }

    /// Arms (or with `None`, disarms) a cancellation token. Once the token
    /// is [cancelled](CancelToken::cancel), fallible governed operations
    /// return [`OmegaError::Cancelled`] and [`Context::check_cancelled`]
    /// fails at the driver's checkpoints.
    pub fn set_cancel_token(&self, t: Option<CancelToken>) {
        let i = &self.inner;
        let armed = t.is_some();
        *i.cancel.lock().unwrap() = t;
        i.cancel_armed.store(armed, Ordering::Release);
        self.update_governed();
    }

    /// Arms (or with `None`, disarms) a deterministic fault-injection
    /// plan. Per-site hit counters are reset on every call.
    pub fn set_inject(&self, p: Option<InjectPlan>) {
        let i = &self.inner;
        let armed = p.is_some();
        {
            let mut st = i.inject.lock().unwrap();
            st.plan = p;
            st.counts.clear();
            st.fired = 0;
        }
        i.inject_armed.store(armed, Ordering::Release);
        self.update_governed();
    }

    /// True once the budget has tripped (deadline passed, fuel spent, or
    /// an injected exhaustion). Sticky until the next [`Context::set_budget`].
    ///
    /// Reports the *merged* view: the context-global governor or, when a
    /// [`RequestGovernor`] is armed on the calling thread, that request's
    /// governor — so degradation sites keep working unchanged under
    /// per-request governance.
    pub fn budget_tripped(&self) -> bool {
        if current_request_governor().is_some_and(|g| g.tripped()) {
            return true;
        }
        self.inner.tripped.load(Ordering::Relaxed)
    }

    /// Governor counters: ops charged, ops answered conservatively after a
    /// trip, and the trip reason if any.
    ///
    /// Like [`budget_tripped`](Self::budget_tripped) this merges the
    /// context-global counters with the thread's armed [`RequestGovernor`]
    /// (scoped counters are summed in; a scoped trip reason wins).
    pub fn governor_stats(&self) -> GovernorStats {
        let global = GovernorStats {
            ops_charged: self.inner.charged.load(Ordering::Relaxed),
            ops_degraded: self.inner.degraded.load(Ordering::Relaxed),
            tripped: trip_reason(self.inner.trip_code.load(Ordering::Relaxed)),
        };
        match current_request_governor() {
            Some(gov) => {
                let scoped = gov.stats();
                GovernorStats {
                    ops_charged: global.ops_charged + scoped.ops_charged,
                    ops_degraded: global.ops_degraded + scoped.ops_degraded,
                    tripped: scoped.tripped.or(global.tripped),
                }
            }
            None => global,
        }
    }

    /// How many times the armed injection plan has fired.
    pub fn inject_fired(&self) -> u64 {
        if !self.inner.inject_armed.load(Ordering::Relaxed) {
            return 0;
        }
        self.inner.inject.lock().unwrap().fired
    }

    /// Current exact-negation piece cap (see [`Budget::max_negation_pieces`]).
    /// A thread-armed [`RequestGovernor`] overrides the context-global value.
    pub fn max_negation_pieces(&self) -> usize {
        match current_request_governor() {
            Some(gov) => gov.max_negation_pieces(),
            None => self.inner.max_negation_pieces.load(Ordering::Relaxed),
        }
    }

    /// Current subsumption piece cap (see [`Budget::subsume_negation_pieces`]).
    /// A thread-armed [`RequestGovernor`] overrides the context-global value.
    pub fn subsume_negation_pieces(&self) -> usize {
        match current_request_governor() {
            Some(gov) => gov.subsume_negation_pieces(),
            None => self.inner.subsume_negation_pieces.load(Ordering::Relaxed),
        }
    }

    /// Current stride-form rewrite fuel (see [`Budget::stride_fuel`]).
    /// A thread-armed [`RequestGovernor`] overrides the context-global value.
    pub fn stride_fuel(&self) -> u32 {
        match current_request_governor() {
            Some(gov) => gov.stride_fuel(),
            None => self.inner.stride_fuel.load(Ordering::Relaxed),
        }
    }

    /// Explicit cancellation checkpoint: `Err(Cancelled)` once the armed
    /// token has tripped. The driver calls this between phases and at nest
    /// entry so cancellation is prompt even when the set operations in
    /// flight are the infallible ones (sat/gist/simplify) that cannot
    /// propagate an error.
    pub fn check_cancelled(&self) -> Result<(), OmegaError> {
        if current_request_governor()
            .is_some_and(|g| g.cancel_token().is_some_and(CancelToken::is_cancelled))
        {
            return Err(OmegaError::Cancelled);
        }
        if !self.inner.cancel_armed.load(Ordering::Relaxed) {
            return Ok(());
        }
        let cancelled = self
            .inner
            .cancel
            .lock()
            .unwrap()
            .as_ref()
            .is_some_and(CancelToken::is_cancelled);
        if cancelled {
            Err(OmegaError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Trips the budget with the given reason code (sticky).
    fn trip(&self, code: u8) {
        let i = &self.inner;
        // First tripper wins the reason; later trips keep it.
        let _ = i
            .trip_code
            .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
        i.tripped.store(true, Ordering::Relaxed);
        i.governed.store(true, Ordering::Release);
    }

    /// Charges one governed operation against the budget. `Ok(())` means
    /// proceed; `Err` means the op must not run: the fallible memoized
    /// operations propagate the error (uncached — budget errors must never
    /// be memoized), the infallible ones substitute a sound conservative
    /// answer. The ungoverned fast path is a single relaxed load.
    pub(crate) fn charge(&self, op: &'static str) -> Result<(), OmegaError> {
        if !self.inner.governed.load(Ordering::Relaxed) && !request_governor_armed() {
            return Ok(());
        }
        self.charge_slow(op)
    }

    #[cold]
    fn charge_slow(&self, op: &'static str) -> Result<(), OmegaError> {
        // A thread-armed request governor takes over budget enforcement;
        // context-global fault injection (and a global trip it causes)
        // still applies so chaos plans compose with per-request budgets.
        if let Some(gov) = current_request_governor() {
            let grace = in_grace();
            self.check_cancelled()?;
            if !grace {
                if self.inner.inject_armed.load(Ordering::Relaxed) {
                    self.inject_fire(op)?;
                }
                if self.inner.tripped.load(Ordering::Relaxed) {
                    self.inner.degraded.fetch_add(1, Ordering::Relaxed);
                    let code = self.inner.trip_code.load(Ordering::Relaxed);
                    return Err(OmegaError::BudgetExceeded(
                        trip_reason(code).unwrap_or("budget"),
                    ));
                }
            }
            return gov.charge(grace);
        }
        let i = &self.inner;
        self.check_cancelled()?;
        if in_grace() {
            return Ok(());
        }
        if i.inject_armed.load(Ordering::Relaxed) {
            self.inject_fire(op)?;
        }
        i.charged.fetch_add(1, Ordering::Relaxed);
        if !i.tripped.load(Ordering::Relaxed) {
            // Spend fuel (u64::MAX = unlimited; fetch_update avoids wrap).
            let fuel = i.fuel.load(Ordering::Relaxed);
            if fuel != u64::MAX {
                let spent = i
                    .fuel
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| f.checked_sub(1));
                if spent.is_err() {
                    self.trip(TRIP_FUEL);
                }
            }
            let deadline = i.deadline_us.load(Ordering::Relaxed);
            if deadline != u64::MAX && now_us() > deadline {
                self.trip(TRIP_DEADLINE);
            }
        }
        if i.tripped.load(Ordering::Relaxed) {
            i.degraded.fetch_add(1, Ordering::Relaxed);
            let reason = trip_reason(i.trip_code.load(Ordering::Relaxed)).unwrap_or("budget");
            return Err(OmegaError::BudgetExceeded(reason));
        }
        Ok(())
    }

    /// Fault-injection checkpoint for a named site. Suspended inside a
    /// [`governor_grace`] scope so the degraded rebuild that follows an
    /// injected fault cannot be re-injected into an escalation loop.
    /// The memoized Omega
    /// operations pass through here via [`Context::charge`]; the host
    /// compiler calls it directly at its own sites (`"comm_sets"`,
    /// `"nest"`). No locks are held when an injected panic unwinds.
    pub fn inject_check(&self, site: &'static str) -> Result<(), OmegaError> {
        if !self.inner.inject_armed.load(Ordering::Relaxed) || in_grace() {
            return Ok(());
        }
        self.inject_fire(site)
    }

    fn inject_fire(&self, site: &'static str) -> Result<(), OmegaError> {
        let action = {
            let mut st = self.inner.inject.lock().unwrap();
            let Some(plan) = st.plan.clone() else {
                return Ok(());
            };
            let count = st.counts.entry(site).or_insert(0);
            let n = *count;
            *count += 1;
            if !plan.should_fire(site, n) {
                return Ok(());
            }
            st.fired += 1;
            plan.action
            // Guard drops here: injected panics never poison the state.
        };
        match action {
            FaultAction::Error => Err(OmegaError::InexactNegation),
            FaultAction::Panic => panic!("injected panic at site {site}"),
            FaultAction::ExhaustBudget => {
                self.trip(TRIP_INJECTED);
                self.inner.degraded.fetch_add(1, Ordering::Relaxed);
                Err(OmegaError::BudgetExceeded("injected"))
            }
        }
    }

    // ------------------------------------------------------------------
    // Construction entry points
    // ------------------------------------------------------------------

    /// Parses a relation in Omega syntax and attaches this context.
    ///
    /// This is the non-panicking replacement for the `FromStr` entry
    /// points: every failure (syntax, arity, coefficient overflow) is an
    /// [`OmegaError`] carrying the source offset.
    pub fn parse_relation(&self, input: &str) -> Result<Relation, OmegaError> {
        let rel = crate::parse::parse_relation(input)?;
        Ok(rel.with_context(self))
    }

    /// Parses a set in Omega syntax and attaches this context.
    pub fn parse_set(&self, input: &str) -> Result<Set, OmegaError> {
        let rel = self.parse_relation(input)?;
        if rel.n_out() != 0 {
            return Err(OmegaError::Parse(crate::parse::ParseError::expected_set()));
        }
        Ok(Set::from_relation(rel))
    }

    /// The universe set of the given arity, attached to this context.
    pub fn universe_set(&self, arity: u32) -> Set {
        Set::from_relation(Relation::universe(arity, 0).with_context(self))
    }

    /// The empty set of the given arity, attached to this context.
    pub fn empty_set(&self, arity: u32) -> Set {
        Set::from_relation(Relation::empty(arity, 0).with_context(self))
    }

    /// The universe relation, attached to this context.
    pub fn universe_relation(&self, n_in: u32, n_out: u32) -> Relation {
        Relation::universe(n_in, n_out).with_context(self)
    }

    /// The empty relation, attached to this context.
    pub fn empty_relation(&self, n_in: u32, n_out: u32) -> Relation {
        Relation::empty(n_in, n_out).with_context(self)
    }

    /// Starts a fluent [`SetBuilder`] for a set of the given arity.
    pub fn set(&self, arity: u32) -> SetBuilder {
        SetBuilder::new(self.clone(), arity)
    }

    /// Starts a fluent [`RelationBuilder`] for a relation.
    pub fn relation(&self, n_in: u32, n_out: u32) -> RelationBuilder {
        RelationBuilder::new(self.clone(), n_in, n_out)
    }

    /// Exact negation of a conjunct, memoized (the `Context`-threaded form
    /// of the deprecated free function `ops::negate_conjunct`).
    pub fn negate_conjunct(&self, c: &Conjunct) -> Result<Vec<Conjunct>, OmegaError> {
        crate::ops::negate_conjunct_in(c, Some(self))
    }

    /// Stride-form rewrite of a conjunct (the `Context`-threaded form of
    /// the deprecated free function `ops::to_stride_form`).
    pub fn to_stride_form(&self, c: Conjunct) -> Result<Vec<Conjunct>, OmegaError> {
        crate::ops::to_stride_form_in(c, Some(self))
    }

    // ------------------------------------------------------------------
    // Interning
    // ------------------------------------------------------------------

    /// Hash-conses a conjunct, returning its interned id. Conjuncts with
    /// the same [`Conjunct::canonical`] form — same constraints up to
    /// order, repetition, scaling, and slack constants — share one id.
    pub fn intern_conjunct(&self, c: &Conjunct) -> u32 {
        self.intern_conjunct_key(c)
    }

    /// Interns the canonical form of `c`, borrowing `c` directly when it
    /// is already normalized (the common case on probe paths: producers
    /// normalize once at construction) instead of cloning per probe.
    fn intern_conjunct_key(&self, c: &Conjunct) -> Id {
        if c.is_normalized() {
            self.intern_canonical(c)
        } else {
            self.intern_canonical(&c.canonical())
        }
    }

    /// Interns an already-canonical conjunct (locks exactly one shard).
    fn intern_canonical(&self, cc: &Conjunct) -> Id {
        let s = shard_of(cc);
        let mut shard = self.inner.shards[s].lock().unwrap();
        Self::intern_in(&mut shard.conjuncts, cc, s)
    }

    /// Hash-conses a linear expression, returning its interned id.
    pub fn intern_expr(&self, e: &LinExpr) -> u32 {
        let s = shard_of(e);
        let mut shard = self.inner.shards[s].lock().unwrap();
        Self::intern_in(&mut shard.exprs, e, s)
    }

    /// Interns `k` into one shard's slice of an interner. The id encodes
    /// the shard in its low bits (`id = local * SHARDS + shard`), so ids
    /// are globally unique and `id % SHARDS` recovers the owner.
    fn intern_in<K: Clone + Eq + Hash>(map: &mut HashMap<K, Id>, k: &K, shard: usize) -> Id {
        if let Some(&id) = map.get(k) {
            return id;
        }
        let id = (map.len() * SHARDS + shard) as Id;
        map.insert(k.clone(), id);
        id
    }

    // ------------------------------------------------------------------
    // Memoized operations
    // ------------------------------------------------------------------
    //
    // Lock discipline: at most one shard lock is held at a time, and no
    // lock is held across `compute`: intern + probe under the key's shard
    // lock, drop it, run the real computation (which may itself recurse
    // into the cache), then re-lock that shard to insert. Single-threaded
    // compilations never duplicate work; concurrent ones at worst compute
    // an entry twice.

    /// Memoized satisfiability, exact or failed: the governor's refusal
    /// propagates — from the charge here or, as `compute`'s `Err`, from any
    /// operation inside the decision — and is never cached. A verdict
    /// reached after a refusal is not a property of the conjunct, and a
    /// long-lived context would keep answering it after the budget that
    /// caused it is gone. (`compute`'s conservative `Ok(true)` on overflow
    /// or its fuel cap *is* such a property and is cached.)
    pub(crate) fn cached_sat_strict(
        &self,
        c: &Conjunct,
        compute: impl FnOnce() -> Result<bool, OmegaError>,
    ) -> Result<bool, OmegaError> {
        let _t = self.op_trace("satisfiability", conjunct_size(c));
        self.charge("sat")?;
        if !self.is_enabled() || self.memo_bypassed() {
            return compute();
        }
        let (s, id) = {
            // Borrow `c` as its own canonical key when already
            // normalized; only un-normalized probes pay for a copy.
            let tmp;
            let cc: &Conjunct = if c.is_normalized() {
                c
            } else {
                tmp = c.canonical();
                &tmp
            };
            let s = shard_of(cc);
            let mut shard = self.inner.shards[s].lock().unwrap();
            let sh = &mut *shard;
            let id = Self::intern_in(&mut sh.conjuncts, cc, s);
            if let Some(v) = sh.sat.get(&id, &mut sh.counts.sat) {
                return Ok(v);
            }
            (s, id)
        };
        let t0 = Instant::now();
        let v = compute()?;
        let cost_us = elapsed_us(t0);
        let cap = self.shard_cap();
        let mut shard = self.inner.shards[s].lock().unwrap();
        let sh = &mut *shard;
        sh.sat.insert(id, v, cost_us, cap, &mut sh.counts.sat);
        Ok(v)
    }

    /// Governs and samples the satisfiability loop's deletion of a
    /// variable bounded on one side only. No combination is formed, so
    /// nothing is counted; the charge keeps op fuel, deadlines,
    /// cancellation and the `eliminate` injection site live inside long
    /// decisions. The sample closes when the returned guard drops.
    pub(crate) fn one_sided_drop(&self, c: &Conjunct) -> Result<Option<OpTrace>, OmegaError> {
        let t = self.op_trace("fme projection", conjunct_size(c));
        self.charge("eliminate")?;
        Ok(t)
    }

    /// Governs, samples and counts the satisfiability loop's shadow step:
    /// a Fourier–Motzkin projection like any other — one `eliminate` miss
    /// — except that its result (the real and dark shadows) is consumed on
    /// the spot and not memoized; the sub-questions it raises are.
    pub(crate) fn shadow_step(&self, c: &Conjunct) -> Result<Option<OpTrace>, OmegaError> {
        let t = self.one_sided_drop(c)?;
        if self.is_enabled() && !self.memo_bypassed() {
            self.inner.shadow_steps.fetch_add(1, Ordering::Relaxed);
        }
        Ok(t)
    }

    pub(crate) fn cached_eliminate(
        &self,
        c: &Conjunct,
        v: Var,
        compute: impl FnOnce() -> Result<Vec<Conjunct>, OmegaError>,
    ) -> Result<Vec<Conjunct>, OmegaError> {
        let _t = self.op_trace("fme projection", conjunct_size(c));
        // Budget/cancel errors propagate *uncached*: memoizing one would
        // poison a long-lived context past the end of the budgeted
        // compilation.
        self.charge("eliminate")?;
        if !self.is_enabled() || self.memo_bypassed() {
            return compute();
        }
        let (s, id) = {
            let tmp;
            let cc: &Conjunct = if c.is_normalized() {
                c
            } else {
                tmp = c.canonical();
                &tmp
            };
            let s = shard_of(cc);
            let mut shard = self.inner.shards[s].lock().unwrap();
            let sh = &mut *shard;
            let id = Self::intern_in(&mut sh.conjuncts, cc, s);
            if let Some(r) = sh.eliminate.get(&(id, v), &mut sh.counts.eliminate) {
                return r;
            }
            (s, id)
        };
        let t0 = Instant::now();
        let r = compute();
        let cost_us = elapsed_us(t0);
        let cap = self.shard_cap();
        let mut shard = self.inner.shards[s].lock().unwrap();
        let sh = &mut *shard;
        sh.eliminate
            .insert((id, v), r.clone(), cost_us, cap, &mut sh.counts.eliminate);
        r
    }

    pub(crate) fn cached_negate(
        &self,
        c: &Conjunct,
        compute: impl FnOnce() -> Result<Vec<Conjunct>, OmegaError>,
    ) -> Result<Vec<Conjunct>, OmegaError> {
        let _t = self.op_trace("negation", conjunct_size(c));
        self.charge("negate")?;
        if !self.is_enabled() || self.memo_bypassed() {
            return compute();
        }
        let (s, id) = {
            let tmp;
            let cc: &Conjunct = if c.is_normalized() {
                c
            } else {
                tmp = c.canonical();
                &tmp
            };
            let s = shard_of(cc);
            let mut shard = self.inner.shards[s].lock().unwrap();
            let sh = &mut *shard;
            let id = Self::intern_in(&mut sh.conjuncts, cc, s);
            if let Some(r) = sh.negate.get(&id, &mut sh.counts.negate) {
                return r;
            }
            (s, id)
        };
        let t0 = Instant::now();
        let r = compute();
        let cost_us = elapsed_us(t0);
        let cap = self.shard_cap();
        let mut shard = self.inner.shards[s].lock().unwrap();
        let sh = &mut *shard;
        sh.negate
            .insert(id, r.clone(), cost_us, cap, &mut sh.counts.negate);
        r
    }

    pub(crate) fn cached_gist(
        &self,
        c: &Conjunct,
        given: &Conjunct,
        compute: impl FnOnce() -> Conjunct,
    ) -> Conjunct {
        let _t = self.op_trace("gist", conjunct_size(c) + conjunct_size(given));
        // Gist is a pure simplification: returning the input unchanged is
        // always sound, so a tripped budget degrades to the identity.
        if self.charge("gist").is_err() {
            return c.clone();
        }
        if !self.is_enabled() || self.memo_bypassed() {
            return compute();
        }
        // The two operands may live in different shards: intern each under
        // its own lock (sequentially — never nested), then probe the memo
        // table in the shard of `a`.
        let (gs, key) = {
            let a = self.intern_conjunct_key(c);
            let b = self.intern_conjunct_key(given);
            let gs = shard_of_id(a);
            let mut shard = self.inner.shards[gs].lock().unwrap();
            let sh = &mut *shard;
            if let Some(r) = sh.gist.get(&(a, b), &mut sh.counts.gist) {
                return r;
            }
            (gs, (a, b))
        };
        let t0 = Instant::now();
        let r = compute();
        let cost_us = elapsed_us(t0);
        let cap = self.shard_cap();
        let mut shard = self.inner.shards[gs].lock().unwrap();
        let sh = &mut *shard;
        sh.gist
            .insert(key, r.clone(), cost_us, cap, &mut sh.counts.gist);
        r
    }

    pub(crate) fn cached_simplify(
        &self,
        conjuncts: &[Conjunct],
        compute: impl FnOnce() -> Vec<Conjunct>,
    ) -> Vec<Conjunct> {
        let _t = self.op_trace("simplify", conjuncts.iter().map(conjunct_size).sum());
        // Like gist: identity is sound, so degrade to the input list.
        if self.charge("simplify").is_err() {
            return conjuncts.to_vec();
        }
        if !self.is_enabled() || self.memo_bypassed() {
            return compute();
        }
        let (ss, key) = {
            let key: Vec<Id> = conjuncts
                .iter()
                .map(|c| self.intern_conjunct_key(c))
                .collect();
            let ss = shard_of(&key);
            let mut shard = self.inner.shards[ss].lock().unwrap();
            let sh = &mut *shard;
            if let Some(r) = sh.simplify.get(&key, &mut sh.counts.simplify) {
                return r;
            }
            (ss, key)
        };
        let t0 = Instant::now();
        let r = compute();
        let cost_us = elapsed_us(t0);
        let cap = self.shard_cap();
        let mut shard = self.inner.shards[ss].lock().unwrap();
        let sh = &mut *shard;
        sh.simplify
            .insert(key, r.clone(), cost_us, cap, &mut sh.counts.simplify);
        r
    }
}

/// Picks the context shared by a binary operation's operands: the left
/// operand's context wins; otherwise the right's.
pub(crate) fn join(a: Option<&Context>, b: Option<&Context>) -> Option<Context> {
    a.or(b).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let ctx = Context::new();
        let mut c = Conjunct::new();
        c.add_geq(LinExpr::var(Var::In(0)));
        let id1 = ctx.intern_conjunct(&c);
        let id2 = ctx.intern_conjunct(&c.clone());
        assert_eq!(id1, id2);
        let mut d = c.clone();
        d.add_geq(LinExpr::var(Var::In(1)));
        assert_ne!(ctx.intern_conjunct(&d), id1);
        assert_eq!(ctx.stats().interned_conjuncts, 2);
    }

    #[test]
    fn ids_encode_their_shard() {
        let ctx = Context::new();
        for i in 0..64 {
            let mut c = Conjunct::new();
            c.add_geq(LinExpr::var(Var::In(i)));
            let id = ctx.intern_conjunct(&c);
            assert_eq!(shard_of_id(id), shard_of(&c.canonical()));
        }
        assert_eq!(ctx.stats().interned_conjuncts, 64);
    }

    #[test]
    fn sat_cache_hits_on_repeat() {
        let ctx = Context::new();
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        assert!(!s.is_empty());
        let before = ctx.stats();
        assert!(!s.is_empty());
        let after = ctx.stats();
        assert!(
            after.sat.hits > before.sat.hits,
            "second emptiness test must hit"
        );
    }

    #[test]
    fn disabled_context_never_hits() {
        let ctx = Context::disabled();
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        assert!(!s.is_empty());
        assert!(!s.is_empty());
        let stats = ctx.stats();
        assert_eq!(stats.total_hits(), 0);
        assert_eq!(stats.total_misses(), 0);
    }

    #[test]
    fn concurrent_clients_share_one_arena() {
        // Hammer one context from several threads; every thread computes
        // the same results it would alone, and the merged counters add up.
        let ctx = Context::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let ctx = ctx.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        let s = ctx
                            .parse_set(&format!("{{[i] : {} <= i <= {}}}", t, t + i))
                            .unwrap();
                        assert!(!s.is_empty());
                        let e = ctx
                            .parse_set(&format!("{{[i] : {} <= i <= {}}}", i + 1, i))
                            .unwrap();
                        assert!(e.is_empty());
                    }
                });
            }
        });
        let stats = ctx.stats();
        assert!(stats.total_misses() > 0);
        assert!(stats.interned_conjuncts > 0);
        // Re-running the same queries on the quiesced context now hits.
        let before = ctx.stats();
        let s = ctx.parse_set("{[i] : 0 <= i <= 0}").unwrap();
        assert!(!s.is_empty());
        let after = ctx.stats();
        assert!(after.total_hits() > before.total_hits());
    }

    #[test]
    fn collector_records_set_ops_on_open_span() {
        let obs = Collector::new();
        let ctx = Context::new();
        ctx.set_collector(Some(obs.clone()));
        let span = obs.begin("analysis", "phase");
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        assert!(!s.is_empty());
        assert!(!s.is_empty()); // cache hit still counts as a call
        obs.end(span);
        let t = obs.trace();
        let i = t.find("analysis").unwrap();
        let sat = t.nodes[i].ops.get("satisfiability").expect("sat recorded");
        assert!(sat.calls >= 2);
        assert!(sat.sizes.count() == sat.calls);

        // Detaching stops recording.
        ctx.set_collector(None);
        let before = obs.len();
        let _ = s.is_empty();
        assert_eq!(obs.len(), before);
    }

    #[test]
    fn disabled_cache_still_records_set_ops() {
        let obs = Collector::new();
        let ctx = Context::disabled();
        ctx.set_collector(Some(obs.clone()));
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        assert!(!s.is_empty());
        let ops = obs.trace().total_ops();
        assert!(ops.get("satisfiability").map_or(0, |o| o.calls) > 0);
        assert_eq!(ctx.stats().total_misses(), 0, "cache untouched");
    }

    #[test]
    fn stats_display_is_humane() {
        let ctx = Context::new();
        let txt = ctx.stats().to_string();
        assert!(txt.contains("hit rate"));
    }

    #[test]
    fn ungoverned_context_charges_nothing() {
        let ctx = Context::new();
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        assert!(!s.is_empty());
        assert_eq!(ctx.governor_stats(), GovernorStats::default());
    }

    #[test]
    fn op_fuel_trips_and_degrades_soundly() {
        let ctx = Context::new();
        ctx.set_budget(&Budget::new().op_fuel(1));
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        let t = ctx.parse_set("{[i] : 3 <= i <= 30}").unwrap();
        // Burn far more than one op; everything must still terminate and
        // the conservative answers must be sound (non-empty says non-empty).
        assert!(!s.is_empty());
        assert!(!s.intersection(&t).is_empty());
        assert!(ctx.budget_tripped());
        let g = ctx.governor_stats();
        assert_eq!(g.tripped, Some("op fuel"));
        assert!(g.ops_degraded > 0);
        // Fallible ops now surface the typed error.
        let err = s.try_subtract(&t).unwrap_err();
        assert!(matches!(err, OmegaError::BudgetExceeded("op fuel")));
        // Re-arming clears the trip.
        ctx.clear_budget();
        assert!(!ctx.budget_tripped());
        assert!(s.try_subtract(&t).is_ok());
    }

    #[test]
    fn expired_deadline_trips() {
        let ctx = Context::new();
        ctx.set_budget(&Budget::new().deadline_ms(0));
        std::thread::sleep(Duration::from_millis(2));
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        assert!(!s.is_empty()); // degraded-but-sound
        assert!(!s.is_empty());
        assert!(ctx.budget_tripped());
        assert_eq!(ctx.governor_stats().tripped, Some("deadline"));
    }

    #[test]
    fn budget_errors_are_never_memoized() {
        let ctx = Context::new();
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        let t = ctx.parse_set("{[i] : 3 <= i <= 30}").unwrap();
        ctx.set_budget(&Budget::new().op_fuel(0));
        assert!(s.try_subtract(&t).is_err());
        ctx.clear_budget();
        // The same structural query must now succeed from a clean slate.
        let d = s.try_subtract(&t).unwrap();
        assert!(d.contains(&[2], &[]));
        assert!(!d.contains(&[3], &[]));
    }

    #[test]
    fn grace_scope_suspends_trip_but_not_cancellation() {
        let ctx = Context::new();
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        let t = ctx.parse_set("{[i] : 3 <= i <= 30}").unwrap();
        ctx.set_budget(&Budget::new().op_fuel(0));
        assert!(s.try_subtract(&t).is_err());
        assert!(ctx.budget_tripped());
        {
            let _grace = governor_grace();
            // Inside the grace scope the tripped budget no longer blocks
            // the set algebra the degraded rebuild needs...
            let d = s.try_subtract(&t).unwrap();
            assert!(d.contains(&[2], &[]));
            // ...but cancellation still aborts.
            let token = CancelToken::new();
            ctx.set_cancel_token(Some(token.clone()));
            token.cancel();
            assert!(matches!(s.try_subtract(&t), Err(OmegaError::Cancelled)));
            ctx.set_cancel_token(None);
        }
        // Enforcement resumes once the guard drops.
        assert!(matches!(
            s.try_subtract(&t),
            Err(OmegaError::BudgetExceeded(_))
        ));
    }

    #[test]
    fn cancel_token_aborts_fallible_ops() {
        let ctx = Context::new();
        let token = CancelToken::new();
        ctx.set_cancel_token(Some(token.clone()));
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        let t = ctx.parse_set("{[i] : 3 <= i <= 30}").unwrap();
        assert!(s.try_subtract(&t).is_ok());
        assert!(ctx.check_cancelled().is_ok());
        token.cancel();
        assert_eq!(ctx.check_cancelled(), Err(OmegaError::Cancelled));
        assert!(matches!(s.try_subtract(&t), Err(OmegaError::Cancelled)));
        ctx.set_cancel_token(None);
        assert!(s.try_subtract(&t).is_ok());
    }

    #[test]
    fn configurable_limits_reach_the_ops() {
        let ctx = Context::new();
        assert_eq!(ctx.max_negation_pieces(), 10_000);
        assert_eq!(ctx.subsume_negation_pieces(), 64);
        assert_eq!(ctx.stride_fuel(), 500);
        // A piece cap of zero makes any non-trivial negation inexact.
        ctx.set_budget(&Budget::new().max_negation_pieces(0));
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        let t = ctx.parse_set("{[i] : 3 <= i <= 5}").unwrap();
        assert!(matches!(
            s.try_subtract(&t),
            Err(OmegaError::InexactNegation)
        ));
        ctx.clear_budget();
        assert!(s.try_subtract(&t).is_ok());
    }

    #[test]
    fn injected_errors_fire_deterministically() {
        use crate::inject::{FaultAction, InjectPlan};
        let run = |seed: u64| -> (bool, u64) {
            let ctx = Context::new();
            ctx.set_inject(Some(InjectPlan::new(seed, 3, FaultAction::Error)));
            let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
            let t = ctx.parse_set("{[i] : 3 <= i <= 30}").unwrap();
            let r = s.try_subtract(&t).is_ok();
            (r, ctx.inject_fired())
        };
        let (a_ok, a_fired) = run(42);
        let (b_ok, b_fired) = run(42);
        assert_eq!(a_ok, b_ok);
        assert_eq!(a_fired, b_fired);
    }

    #[test]
    fn injected_budget_exhaustion_trips_governor() {
        use crate::inject::{FaultAction, InjectPlan};
        let ctx = Context::new();
        ctx.set_inject(Some(
            InjectPlan::new(7, 1, FaultAction::ExhaustBudget).at_site("eliminate"),
        ));
        let s = ctx
            .parse_set("{[i] : exists(a : i = 2a) && 0 <= i <= 10}")
            .unwrap();
        let t = ctx.parse_set("{[i] : 3 <= i <= 30}").unwrap();
        let _ = s.try_subtract(&t);
        assert!(ctx.budget_tripped());
        assert_eq!(ctx.governor_stats().tripped, Some("injected"));
    }

    #[test]
    fn injected_panics_unwind_cleanly() {
        use crate::inject::{FaultAction, InjectPlan};
        let ctx = Context::new();
        ctx.set_inject(Some(
            InjectPlan::new(9, 1, FaultAction::Panic).at_site("sat"),
        ));
        let s = ctx.parse_set("{[i] : 1 <= i <= 10}").unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.is_empty()));
        assert!(r.is_err(), "period-1 sat panic plan must fire");
        // The context is not poisoned: disarm and keep using it.
        ctx.set_inject(None);
        assert!(!s.is_empty());
        assert!(ctx.stats().total_misses() > 0);
    }
}
