//! A shared Omega [`Context`]: hash-consing arena + memoization caches.
//!
//! The dHPF equation pipeline (Fig. 3 communication sets, Fig. 4 loop
//! splitting, Fig. 5 active virtual processors) re-derives the same layout
//! and iteration-space conjuncts at every statement group, so the expensive
//! per-conjunct operations — integer satisfiability, Fourier–Motzkin
//! projection, exact negation, gist — are recomputed many times over
//! structurally identical inputs. A `Context` hash-conses [`Conjunct`]s
//! into interned ids and memoizes those operations in per-operation caches
//! keyed by the interned ids, with hit/miss/eviction counters that the
//! compiler driver surfaces next to its Table-1 phase timers.
//!
//! Sets and relations carry no context. Every set operation runs in
//! [`Context::current`]: the context armed on the calling thread with
//! [`Context::arm_on_thread`], or, where nothing is armed (tests,
//! examples, doc-tests), a lazily created context private to the thread.
//! So every operation is memoized, charged and sampled; there is no
//! context-less path. The compiler driver arms the request's context on
//! the thread that compiles and re-arms it on every worker task, beside
//! the request's [`RequestGovernor`] and trace
//! collector. Budgets and fault plans are not context state; they belong
//! to that governor, which every operation here charges.
//!
//! A `Context` is an `Arc`-shared handle: cloning it is cheap and all
//! clones share one arena.
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
//! use dhpf_omega::{Context, Relation, Set};
//!
//! let ctx = Context::new();
//! let _armed = ctx.arm_on_thread();
//! let layout: Relation = "{[p] -> [a] : 25p+1 <= a <= 25p+25 && 0 <= p <= 3}".parse()?;
//! let iters: Set = "{[i] : 1 <= i <= N}".parse()?;
//! let owned = layout.apply(&iters)?; // cached ops record hits/misses
//! assert!(!owned.is_empty());
//! assert!(ctx.stats().total_misses() > 0);
//! # Ok::<(), dhpf_omega::OmegaError>(())
//! ```

use crate::budget::{request_governor_armed, GovernorStats, RequestGovernor};
use crate::conjunct::Conjunct;
use crate::var::Var;
use crate::OmegaError;
use dhpf_obs::Collector;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default maximum total entries per memo table (summed across shards).
/// Keeps long compilations bounded; one compilation of the paper's
/// benchmarks stays under this (SP-sym's FME table peaks at ~150k entries,
/// so the cap must exceed that or the warm cache is churned
/// mid-compilation). A serving deployment picks its own bound with
/// [`Context::with_capacity`].
pub const DEFAULT_CACHE_CAP: usize = 1 << 19;

/// Number of lock stripes in the arena. A power of two so the shard of an
/// interned id is `id % SHARDS` (the id encodes its shard in the low bits).
pub const SHARDS: usize = 16;

/// Interned id of a hash-consed conjunct. The low `log2(SHARDS)` bits
/// identify the owning shard.
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

/// A size-bounded memo table: an insert into a full table first evicts
/// an arbitrary resident entry. No scoring policy: no perf-ledger
/// workload ever evicts (`omega.evictions` is 0 on all four), so a policy
/// could not show what it buys; the bound caps a long-lived context.
///
/// A table carries its operation's hit/miss/eviction counters: plain
/// integers mutated under the shard lock, cheaper than shared atomics (no
/// cross-shard cache-line ping-pong), merged into a [`CacheStats`] on read.
struct MemoTable<K, V> {
    map: HashMap<K, V>,
    counts: OpCounts,
}

impl<K, V> Default for MemoTable<K, V> {
    fn default() -> Self {
        MemoTable {
            map: HashMap::new(),
            counts: OpCounts::default(),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> MemoTable<K, V> {
    /// Cache probe, counted as a hit or a miss.
    fn get(&mut self, k: &K) -> Option<V> {
        let hit = self.map.get(k).cloned();
        match hit {
            Some(_) => self.counts.hits += 1,
            None => self.counts.misses += 1,
        }
        hit
    }

    /// Inserts a computed result, first evicting resident entries until
    /// the table is under its capacity bound.
    fn insert(&mut self, k: K, v: V, cap: usize) {
        while self.map.len() >= cap.max(1) {
            let Some(victim) = self.map.keys().next().cloned() else {
                break;
            };
            self.map.remove(&victim);
            self.counts.evictions += 1;
        }
        self.map.insert(k, v);
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// One lock stripe of the arena: an interner slice plus one memo table per
/// operation. A conjunct's per-conjunct memo entries (sat / eliminate /
/// negate) live in the same shard as the conjunct itself, so the hot path
/// interns and probes under a single lock acquisition.
#[derive(Default)]
struct Shard {
    /// Hash-consed conjuncts owned by this shard: structural value → id.
    /// The id is the key of every per-conjunct memo table, so a conjunct
    /// is hashed in full at most once per distinct structure.
    conjuncts: HashMap<Conjunct, Id>,
    sat: MemoTable<Id, Result<bool, OmegaError>>,
    eliminate: MemoTable<(Id, Var), Result<Vec<Conjunct>, OmegaError>>,
    negate: MemoTable<Id, Result<Vec<Conjunct>, OmegaError>>,
    /// Keyed `(a, b)`; stored in the shard of `a`.
    gist: MemoTable<(Id, Id), Conjunct>,
    /// Keyed by the interned conjunct list; stored in the shard selected
    /// by the hash of that id list.
    simplify: MemoTable<Vec<Id>, Vec<Conjunct>>,
}

impl Shard {
    fn stats(&self) -> CacheStats {
        CacheStats {
            sat: self.sat.counts,
            eliminate: self.eliminate.counts,
            negate: self.negate.counts,
            gist: self.gist.counts,
            simplify: self.simplify.counts,
            interned_conjuncts: self.conjuncts.len() as u64,
        }
    }
}

thread_local! {
    /// The context armed on the current thread (see
    /// [`Context::arm_on_thread`]).
    static ARMED: RefCell<Option<Context>> = const { RefCell::new(None) };
    /// What [`Context::current`] answers while nothing is armed.
    static THREAD_DEFAULT: Context = Context::new();
    /// Nesting depth of [`governor_grace`] scopes on the current thread.
    static GRACE_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    /// Operations refused on the current thread so far, by the governor or
    /// by an injected fault: what [`Context::memo`] compares around a
    /// computation to learn whether anything nested inside it was refused.
    static REFUSALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Suspends budget enforcement and fault injection on the *current thread*
/// until the returned guard drops.
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

fn refusals_on_thread() -> u64 {
    REFUSALS.with(std::cell::Cell::get)
}

struct Inner {
    /// Memo-entry bound per operation table and shard: the capacity given
    /// to [`Context::with_capacity`] divided evenly across the shards.
    shard_cap: usize,
    /// Shadow steps of the satisfiability loop ([`Context::shadow_step`]):
    /// projections that are counted but not memoized, so they belong to no
    /// shard. Reported as `eliminate` misses.
    shadow_steps: AtomicU64,
    shards: [Mutex<Shard>; SHARDS],
}

/// RAII sample of one set operation: on drop, records the call (count,
/// duration, input-size histogram) on the innermost open span of the
/// collector armed on the calling thread. Declared *first* in each
/// memoized operation so it drops *last* — after any shard `MutexGuard` —
/// keeping the collector's lock disjoint from the shard locks.
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

/// Deterministic shard index for a hashable key. `DefaultHasher::new()`
/// uses fixed keys, so the mapping is stable across runs and threads —
/// interned ids never depend on scheduling.
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
/// one per compilation (or one long-lived one, handed to every
/// `dhpf_core::compile_request`), arm it on the threads doing the work,
/// and every set operation there reuses previously computed
/// satisfiability tests, projections, negations, gists and
/// simplifications. The context is `Send + Sync`: the parallel driver
/// shares one across worker threads.
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
            .field("stats", &self.stats())
            .finish()
    }
}

impl Context {
    /// A fresh context with the default cache capacity
    /// ([`DEFAULT_CACHE_CAP`]).
    pub fn new() -> Self {
        Context::with_capacity(DEFAULT_CACHE_CAP)
    }

    /// A fresh context whose memo tables are bounded at `capacity` total
    /// entries per operation table, summed across shards. Long-running
    /// servers pick this to bound resident memory. When a table is full,
    /// inserting a new result evicts an arbitrary resident entry; a
    /// capacity below [`SHARDS`] is clamped to one entry per shard.
    pub fn with_capacity(capacity: usize) -> Self {
        Context {
            inner: Arc::new(Inner {
                shard_cap: (capacity / SHARDS).max(1),
                shadow_steps: AtomicU64::new(0),
                shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            }),
        }
    }

    /// Arms this context on the calling thread until the guard drops:
    /// every set operation the thread runs meanwhile is memoized, counted
    /// and fault-injected here. Nested arming restores the previous
    /// context on drop, so scopes compose; the same context may be armed
    /// on many threads at once.
    #[must_use = "the context is disarmed when the guard drops"]
    pub fn arm_on_thread(&self) -> ContextGuard {
        ContextGuard {
            prev: ARMED.with(|a| a.borrow_mut().replace(self.clone())),
        }
    }

    /// The context set operations on the calling thread run in: the one
    /// armed there, else the thread's own, created on first use.
    pub fn current() -> Context {
        ARMED
            .with(|a| a.borrow().clone())
            .unwrap_or_else(|| THREAD_DEFAULT.with(Context::clone))
    }

    /// Total memoized entries currently resident, summed over the five
    /// operation tables and all shards — the quantity
    /// [`with_capacity`](Self::with_capacity) bounds per table.
    pub fn memo_entries(&self) -> u64 {
        self.memo_occupancy().iter().map(|&(_, n)| n).sum()
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

    /// Starts an RAII op sample if a collector is armed on the calling
    /// thread (the request's, not the shared context's). Every memoizable
    /// set operation, hit or miss, is sampled; untraced, this is one
    /// thread-local read and no allocation.
    fn op_trace(&self, op: &'static str, size: u64) -> Option<OpTrace> {
        let obs = Collector::current()?;
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

    // ------------------------------------------------------------------
    // The calling thread's governor
    // ------------------------------------------------------------------
    //
    // The accessors below read the `RequestGovernor` armed on the calling
    // thread; with none armed they report an unlimited, untripped budget
    // and no fault plan.

    /// True once the calling thread's governor has tripped (deadline
    /// passed, fuel spent, or an injected exhaustion). Sticky for the life
    /// of that governor.
    pub fn budget_tripped(&self) -> bool {
        RequestGovernor::current().is_some_and(|g| g.tripped())
    }

    /// The calling thread's governor counters: ops charged, ops refused
    /// after a trip, and the trip reason if any.
    pub fn governor_stats(&self) -> GovernorStats {
        RequestGovernor::current().map_or_else(GovernorStats::default, |g| g.stats())
    }

    /// Charges one governed operation against the thread's governor.
    /// `Ok(())` means proceed; `Err` means the op must not run: the
    /// fallible memoized operations propagate the error, the infallible
    /// ones substitute a sound conservative answer. With no governor armed
    /// this is one thread-local read.
    pub(crate) fn charge(&self, op: &'static str) -> Result<(), OmegaError> {
        if !request_governor_armed() {
            return Ok(());
        }
        self.charge_slow(op)
    }

    /// A grace scope suspends injection and the budget; an injected fault
    /// pre-empts the charge it interrupts. Every refusal is noted for
    /// [`memo`](Self::memo).
    #[cold]
    fn charge_slow(&self, op: &'static str) -> Result<(), OmegaError> {
        let admitted = match RequestGovernor::current() {
            Some(g) if !in_grace() => g.inject_check(op).and_then(|()| g.charge()),
            _ => Ok(()),
        };
        if admitted.is_err() {
            REFUSALS.with(|n| n.set(n.get() + 1));
        }
        admitted
    }

    /// Fault-injection checkpoint for a named site, against the fault
    /// plan of the calling thread's governor. Suspended inside a
    /// [`governor_grace`] scope so the degraded rebuild that follows an
    /// injected fault cannot be re-injected into an escalation loop.
    /// The memoized Omega operations pass through here via
    /// `Context::charge`; the host compiler calls it directly at its own
    /// sites (`"comm_sets"`, `"nest"`).
    pub fn inject_check(&self, site: &'static str) -> Result<(), OmegaError> {
        match RequestGovernor::current() {
            Some(g) if !in_grace() => g.inject_check(site),
            _ => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Interning
    // ------------------------------------------------------------------

    /// Hash-conses a conjunct, returning its interned id. Conjuncts with
    /// the same [`Conjunct::canonical`] form — same constraints up to
    /// order, repetition, scaling, and slack constants — share one id.
    /// Locks exactly one shard.
    pub fn intern_conjunct(&self, c: &Conjunct) -> u32 {
        let cc = canonical_of(c);
        let s = shard_of(&*cc);
        let mut shard = self.inner.shards[s].lock().unwrap();
        Self::intern_in(&mut shard.conjuncts, &cc, s)
    }

    /// Interns `k` into one shard's slice of the interner. The id encodes
    /// the shard in its low bits (`id = local * SHARDS + shard`), so ids
    /// are globally unique and `id % SHARDS` recovers the owner.
    fn intern_in(map: &mut HashMap<Conjunct, Id>, k: &Conjunct, shard: usize) -> Id {
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

    /// The one memo routine: build the key and probe `table` in shard `s`
    /// under a single lock acquisition, and on a miss drop the lock, run
    /// `compute` (which may itself recurse into the cache), then re-lock
    /// that shard to insert. At most one shard lock is held at a time and
    /// none across `compute`, so single-threaded compilations never
    /// duplicate work and concurrent ones at worst compute an entry twice.
    ///
    /// One rule, stated once: a result computed while any operation nested
    /// inside `compute` was refused — by the governor (`BudgetExceeded`)
    /// or by an injected fault — is returned and never inserted, whether
    /// the refusal came back as `compute`'s `Err` or was absorbed into a
    /// conservative answer on the way (an emptiness test that degraded to
    /// "non-empty", a simplification that gave up). Such a result says
    /// nothing about the key, and a long-lived context would keep
    /// answering it after the request that caused it is gone. Every
    /// other result is a property of the key and is memoized, an `Err`
    /// included (`InexactNegation`, `Overflow`), so a retried operation
    /// stays cheap.
    fn memo<K: Eq + Hash + Clone, V: Clone>(
        &self,
        s: usize,
        key: impl FnOnce(&mut Shard) -> K,
        table: fn(&mut Shard) -> &mut MemoTable<K, V>,
        compute: impl FnOnce() -> V,
    ) -> V {
        let key = {
            let mut shard = self.inner.shards[s].lock().unwrap();
            let key = key(&mut shard);
            if let Some(r) = table(&mut shard).get(&key) {
                return r;
            }
            key
        };
        let refusals = refusals_on_thread();
        let r = compute();
        if refusals_on_thread() != refusals {
            return r;
        }
        let mut shard = self.inner.shards[s].lock().unwrap();
        table(&mut shard).insert(key, r.clone(), self.inner.shard_cap);
        r
    }

    /// A fallible per-conjunct operation, sampled as `label` and charged
    /// at `site`: a refused charge propagates before anything is
    /// interned. Its table lives in the shard that owns the conjunct, so
    /// interning and the probe share one lock acquisition.
    fn memo_conjunct<K: Eq + Hash + Clone, T: Clone>(
        &self,
        (label, site): (&'static str, &'static str),
        c: &Conjunct,
        key: impl FnOnce(Id) -> K,
        table: fn(&mut Shard) -> &mut MemoTable<K, Result<T, OmegaError>>,
        compute: impl FnOnce() -> Result<T, OmegaError>,
    ) -> Result<T, OmegaError> {
        let _t = self.op_trace(label, conjunct_size(c));
        self.charge(site)?;
        let cc = canonical_of(c);
        let s = shard_of(&*cc);
        let id = |sh: &mut Shard| key(Self::intern_in(&mut sh.conjuncts, &cc, s));
        self.memo(s, id, table, compute)
    }

    /// Memoized satisfiability, exact or failed: `compute`'s conservative
    /// `Ok(true)` on overflow or its fuel cap is a property of the
    /// conjunct and is cached; its `Err` is a governor refusal somewhere
    /// inside the decision, and no verdict was reached.
    pub(crate) fn cached_sat_strict(
        &self,
        c: &Conjunct,
        compute: impl FnOnce() -> Result<bool, OmegaError>,
    ) -> Result<bool, OmegaError> {
        let op = ("satisfiability", "sat");
        self.memo_conjunct(op, c, |id| id, |sh| &mut sh.sat, compute)
    }

    /// Governs and samples the satisfiability loop's deletion of a
    /// variable bounded on one side only. No combination is formed, so
    /// nothing is counted; the charge keeps op fuel, deadlines and the
    /// `eliminate` injection site live inside long decisions. The sample
    /// closes when the returned guard drops.
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
        self.inner.shadow_steps.fetch_add(1, Ordering::Relaxed);
        Ok(t)
    }

    pub(crate) fn cached_eliminate(
        &self,
        c: &Conjunct,
        v: Var,
        compute: impl FnOnce() -> Result<Vec<Conjunct>, OmegaError>,
    ) -> Result<Vec<Conjunct>, OmegaError> {
        let op = ("fme projection", "eliminate");
        self.memo_conjunct(op, c, |id| (id, v), |sh| &mut sh.eliminate, compute)
    }

    pub(crate) fn cached_negate(
        &self,
        c: &Conjunct,
        compute: impl FnOnce() -> Result<Vec<Conjunct>, OmegaError>,
    ) -> Result<Vec<Conjunct>, OmegaError> {
        let op = ("negation", "negate");
        self.memo_conjunct(op, c, |id| id, |sh| &mut sh.negate, compute)
    }

    /// Gist is a pure simplification: returning the input unchanged is
    /// always sound, so a refused charge degrades to the identity.
    pub(crate) fn cached_gist(
        &self,
        c: &Conjunct,
        given: &Conjunct,
        compute: impl FnOnce() -> Conjunct,
    ) -> Conjunct {
        let _t = self.op_trace("gist", conjunct_size(c) + conjunct_size(given));
        if self.charge("gist").is_err() {
            return c.clone();
        }
        // The operands may live in different shards: intern each under its
        // own lock, then probe in the shard of `a`.
        let a = self.intern_conjunct(c);
        let b = self.intern_conjunct(given);
        self.memo(shard_of_id(a), |_| (a, b), |sh| &mut sh.gist, compute)
    }

    /// Like gist: identity is sound, so a refused charge degrades to the
    /// input list.
    pub(crate) fn cached_simplify(
        &self,
        conjuncts: &[Conjunct],
        compute: impl FnOnce() -> Vec<Conjunct>,
    ) -> Vec<Conjunct> {
        let _t = self.op_trace("simplify", conjuncts.iter().map(conjunct_size).sum());
        if self.charge("simplify").is_err() {
            return conjuncts.to_vec();
        }
        let key: Vec<Id> = conjuncts.iter().map(|c| self.intern_conjunct(c)).collect();
        self.memo(shard_of(&key), |_| key, |sh| &mut sh.simplify, compute)
    }
}

/// `c` as its own canonical key when already normalized (the common case
/// on probe paths: producers normalize once at construction); only
/// un-normalized probes pay for a copy.
fn canonical_of(c: &Conjunct) -> Cow<'_, Conjunct> {
    if c.is_normalized() {
        Cow::Borrowed(c)
    } else {
        Cow::Owned(c.canonical())
    }
}

/// RAII scope of [`Context::arm_on_thread`]: restores the previously
/// armed context (or none) on drop.
pub struct ContextGuard {
    prev: Option<Context>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        ARMED.with(|a| *a.borrow_mut() = self.prev.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, RequestGovernor};
    use crate::inject::{FaultAction, InjectPlan};
    use crate::linexpr::LinExpr;
    use crate::set::Set;
    use std::time::Duration;

    fn set(s: &str) -> Set {
        s.parse().unwrap()
    }

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
    fn armed_context_receives_the_threads_operations() {
        let (outer, inner) = (Context::new(), Context::new());
        let s = set("{[i] : 1 <= i <= 10}");
        assert!(!s.is_empty()); // the thread's own context
        assert_eq!(outer.stats().total_misses(), 0);
        let _outer = outer.arm_on_thread();
        {
            let _inner = inner.arm_on_thread();
            assert!(!s.is_empty());
        }
        assert_eq!(inner.stats().sat.misses, 1);
        // Disarming the inner scope restores the outer context.
        assert!(!s.is_empty());
        assert_eq!(outer.stats().sat.misses, 1);
        // Other threads keep their own.
        std::thread::scope(|sc| {
            sc.spawn(|| assert!(!s.is_empty()));
        });
        assert_eq!(outer.stats().sat.misses + inner.stats().sat.misses, 2);
    }

    #[test]
    fn sat_cache_hits_on_repeat() {
        let ctx = Context::new();
        let _armed = ctx.arm_on_thread();
        let s = set("{[i] : 1 <= i <= 10}");
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
    fn concurrent_clients_share_one_arena() {
        // Hammer one context from several threads; every thread computes
        // the same results it would alone, and the merged counters add up.
        let ctx = Context::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let ctx = ctx.clone();
                scope.spawn(move || {
                    let _armed = ctx.arm_on_thread();
                    for i in 0..50 {
                        let s = set(&format!("{{[i] : {} <= i <= {}}}", t, t + i));
                        assert!(!s.is_empty());
                        let e = set(&format!("{{[i] : {} <= i <= {}}}", i + 1, i));
                        assert!(e.is_empty());
                    }
                });
            }
        });
        let stats = ctx.stats();
        assert!(stats.total_misses() > 0);
        assert!(stats.interned_conjuncts > 0);
        // Re-running the same queries on the quiesced context now hits.
        let _armed = ctx.arm_on_thread();
        let before = ctx.stats();
        let s = set("{[i] : 0 <= i <= 0}");
        assert!(!s.is_empty());
        let after = ctx.stats();
        assert!(after.total_hits() > before.total_hits());
    }

    #[test]
    fn collector_records_set_ops_on_open_span() {
        let obs = Collector::new();
        let armed = obs.arm_on_thread();
        let span = obs.begin("analysis", "phase");
        let s = set("{[i] : 1 <= i <= 10}");
        assert!(!s.is_empty());
        // A cache hit still counts as a call; another thread records
        // nothing here.
        assert!(!s.is_empty());
        std::thread::scope(|sc| {
            sc.spawn(|| assert!(!s.is_empty()));
        });
        obs.end(span);
        let calls = |t: &dhpf_obs::Trace| t.total_ops()["satisfiability"].calls;
        let t = obs.trace();
        let sat = &t.nodes[t.find("analysis").unwrap()].ops["satisfiability"];
        assert_eq!(sat.calls, calls(&t));
        assert!(sat.calls >= 2 && sat.sizes.count() == sat.calls);
        // Disarming stops recording.
        drop(armed);
        let _ = s.is_empty();
        assert_eq!(calls(&obs.trace()), sat.calls);
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
        let s = set("{[i] : 1 <= i <= 10}");
        assert!(!s.is_empty());
        assert_eq!(ctx.governor_stats(), GovernorStats::default());
    }

    #[test]
    fn op_fuel_trips_and_degrades_soundly() {
        let ctx = Context::new();
        let armed = RequestGovernor::new(&Budget::new().op_fuel(1), None).arm_on_thread();
        let s = set("{[i] : 1 <= i <= 10}");
        let t = set("{[i] : 3 <= i <= 30}");
        // Burn far more than one op; everything must still terminate and
        // the conservative answers must be sound (non-empty says non-empty).
        assert!(!s.is_empty());
        assert!(!s.intersection(&t).is_empty());
        assert!(ctx.budget_tripped());
        let g = ctx.governor_stats();
        assert_eq!(g.tripped, Some("op fuel"));
        assert!(g.ops_degraded > 0);
        // Fallible ops now surface the typed error.
        let err = s.subtract(&t).unwrap_err();
        assert!(matches!(err, OmegaError::BudgetExceeded("op fuel")));
        // The trip dies with the governor that took it.
        drop(armed);
        assert!(!ctx.budget_tripped());
        assert!(s.subtract(&t).is_ok());
    }

    #[test]
    fn expired_deadline_trips() {
        let ctx = Context::new();
        let _armed = RequestGovernor::new(&Budget::new().deadline_ms(0), None).arm_on_thread();
        std::thread::sleep(Duration::from_millis(2));
        let s = set("{[i] : 1 <= i <= 10}");
        assert!(!s.is_empty()); // degraded-but-sound
        assert!(!s.is_empty());
        assert!(ctx.budget_tripped());
        assert_eq!(ctx.governor_stats().tripped, Some("deadline"));
    }

    #[test]
    fn budget_errors_are_never_memoized() {
        let _ctx = Context::new().arm_on_thread();
        let s = set("{[i] : 1 <= i <= 10}");
        let t = set("{[i] : 3 <= i <= 30}");
        let armed = RequestGovernor::new(&Budget::new().op_fuel(0), None).arm_on_thread();
        assert!(s.subtract(&t).is_err());
        drop(armed);
        // The same structural query must now succeed from a clean slate.
        let d = s.subtract(&t).unwrap();
        assert!(d.contains(&[2], &[]));
        assert!(!d.contains(&[3], &[]));
    }

    #[test]
    fn grace_scope_suspends_trip_but_not_cancellation() {
        let ctx = Context::new();
        let s = set("{[i] : 1 <= i <= 10}");
        let t = set("{[i] : 3 <= i <= 30}");
        let budget = Budget::new().op_fuel(0);
        let _armed = RequestGovernor::new(&budget, None).arm_on_thread();
        assert!(s.subtract(&t).is_err());
        assert!(ctx.budget_tripped());
        {
            let _grace = governor_grace();
            // Inside the grace scope the tripped budget no longer blocks
            // the set algebra the degraded rebuild needs...
            let d = s.subtract(&t).unwrap();
            assert!(d.contains(&[2], &[]));
        }
        // Enforcement resumes once the guard drops.
        assert!(matches!(s.subtract(&t), Err(OmegaError::BudgetExceeded(_))));
    }

    #[test]
    fn injected_errors_fire_deterministically() {
        let run = |seed: u64| -> (bool, u64) {
            let _ctx = Context::new().arm_on_thread();
            let plan = InjectPlan::new(seed, 3, FaultAction::Error);
            let gov = RequestGovernor::new(&Budget::new(), Some(plan));
            let _armed = gov.arm_on_thread();
            let s = set("{[i] : 1 <= i <= 10}");
            let t = set("{[i] : 3 <= i <= 30}");
            let r = s.subtract(&t).is_ok();
            (r, gov.injected_faults())
        };
        let (a_ok, a_fired) = run(42);
        let (b_ok, b_fired) = run(42);
        assert_eq!(a_ok, b_ok);
        assert_eq!(a_fired, b_fired);
    }

    #[test]
    fn injected_budget_exhaustion_trips_governor() {
        let ctx = Context::new();
        let _cx = ctx.arm_on_thread();
        let plan = InjectPlan::new(7, 1, FaultAction::ExhaustBudget).at_site("eliminate");
        let _armed = RequestGovernor::new(&Budget::new(), Some(plan)).arm_on_thread();
        let s = set("{[i] : exists(a : i = 2a) && 0 <= i <= 10}");
        let t = set("{[i] : 3 <= i <= 30}");
        let _ = s.subtract(&t);
        assert!(ctx.budget_tripped());
        assert_eq!(ctx.governor_stats().tripped, Some("injected"));
    }

    #[test]
    fn injected_panics_unwind_cleanly() {
        let ctx = Context::new();
        let _cx = ctx.arm_on_thread();
        let plan = InjectPlan::new(9, 1, FaultAction::Panic).at_site("sat");
        let armed = RequestGovernor::new(&Budget::new(), Some(plan)).arm_on_thread();
        let s = set("{[i] : 1 <= i <= 10}");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.is_empty()));
        assert!(r.is_err(), "period-1 sat panic plan must fire");
        // The context is not poisoned: disarm and keep using it.
        drop(armed);
        assert!(!s.is_empty());
        assert!(ctx.stats().total_misses() > 0);
    }
}
