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
//! Sets and relations carry no context. Each thread has one slot, armed
//! with a [`Request`]: the context a request's set operations memoize
//! into, the [`RequestGovernor`] they charge and the [`Collector`] they
//! are sampled into. Every memoized operation reads that slot once, by
//! reference, so a memo hit moves no reference count. Where nothing is
//! armed (tests, examples, doc-tests) operations run in a lazily created
//! context private to the thread, ungoverned and unsampled; there is no
//! context-less path. The compiler driver arms the request on the thread
//! that compiles and re-arms it on every worker task.
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
//! use dhpf_omega::{Context, Relation, Request, Set};
//!
//! let ctx = Context::new();
//! let _armed = Request::new(&ctx, None, None).arm();
//! let layout: Relation = "{[p] -> [a] : 25p+1 <= a <= 25p+25 && 0 <= p <= 3}".parse()?;
//! let iters: Set = "{[i] : 1 <= i <= N}".parse()?;
//! let owned = layout.apply(&iters)?; // cached ops record hits/misses
//! assert!(!owned.is_empty());
//! assert!(ctx.stats().total_misses() > 0);
//! # Ok::<(), dhpf_omega::OmegaError>(())
//! ```

use crate::budget::RequestGovernor;
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
    /// The request armed on the current thread (see [`Request::arm`]).
    static ARMED: RefCell<Option<Request>> = const { RefCell::new(None) };
    /// What set operations run in while nothing is armed.
    static THREAD_DEFAULT: Request = Request::new(&Context::new(), None, None);
    /// Nesting depth of [`governor_grace`] scopes on the current thread.
    static GRACE_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    /// Operations refused on the current thread so far, by the governor or
    /// by an injected fault: what [`Context::memo`] compares around a
    /// computation to learn whether anything nested inside it was refused.
    static REFUSALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One request's state on the threads working for it: the [`Context`]
/// its set operations memoize into, and optionally the
/// [`RequestGovernor`] they charge and the [`Collector`] they are sampled
/// into.
///
/// [`arm`](Self::arm) puts it in the calling thread's one slot until the
/// guard drops. To run part of the request on another thread, arm the
/// same `Request` (or a clone) there: every thread then memoizes into one
/// arena, spends from one fuel pool, observes one deadline, advances one
/// fault plan and samples into one trace. Nothing is inherited: a thread
/// that arms nothing runs in its own default context.
#[derive(Clone)]
pub struct Request {
    ctx: Context,
    governor: Option<RequestGovernor>,
    sampling: Option<Collector>,
}

impl Request {
    /// The request state `ctx`, `governor` and `sampling` make up.
    pub fn new(
        ctx: &Context,
        governor: Option<&RequestGovernor>,
        sampling: Option<&Collector>,
    ) -> Self {
        Request {
            ctx: ctx.clone(),
            governor: governor.cloned(),
            sampling: sampling.cloned(),
        }
    }

    /// Arms this request on the calling thread until the guard drops.
    /// Context, governor and collector are armed and restored together:
    /// a nested arming replaces all three, and its guard brings back the
    /// previous request (or none) whole.
    #[must_use = "the request is disarmed when the guard drops"]
    pub fn arm(&self) -> RequestGuard {
        RequestGuard {
            prev: ARMED.with(|a| a.borrow_mut().replace(self.clone())),
        }
    }
}

/// RAII scope of [`Request::arm`]: restores the previously armed request
/// (or none) on drop. Guards must drop in reverse order of arming.
pub struct RequestGuard {
    prev: Option<Request>,
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        ARMED.with(|a| *a.borrow_mut() = self.prev.take());
    }
}

/// Runs `f` on the request armed on the calling thread, else on the
/// thread's default: one thread-local read and a borrow, so no reference
/// count moves. Operations nested inside `f` borrow the slot again; none
/// of them arms a request.
pub(crate) fn with_request<R>(f: impl FnOnce(&Request) -> R) -> R {
    ARMED.with(|a| match &*a.borrow() {
        Some(r) => f(r),
        None => THREAD_DEFAULT.with(f),
    })
}

/// Fault-injection checkpoint for a named site, against the fault plan of
/// the governor armed on the calling thread. Suspended inside a
/// [`governor_grace`] scope so the degraded rebuild that follows an
/// injected fault cannot be re-injected into an escalation loop. The
/// memoized Omega operations pass through the same check when they
/// charge; the host compiler calls this at its own sites (`"comm_sets"`,
/// `"nest"`).
///
/// # Errors
///
/// The fault the plan fires at this arrival, if any.
pub fn inject_check(site: &'static str) -> Result<(), OmegaError> {
    with_request(|r| match &r.governor {
        Some(g) if !in_grace() => g.inject_check(site),
        _ => Ok(()),
    })
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
    /// Shadow steps of the satisfiability loop ([`Request::shadow_step`]):
    /// projections that are counted but not memoized, so they belong to no
    /// shard. Reported as `eliminate` misses.
    shadow_steps: AtomicU64,
    shards: [Mutex<Shard>; SHARDS],
}

/// RAII sample of one set operation: on drop, records the call (count,
/// duration, input-size histogram) on the innermost open span of the
/// request's collector. Declared *first* in each memoized operation so it
/// drops *last* — after any shard `MutexGuard` — keeping the collector's
/// lock disjoint from the shard locks.
pub(crate) struct OpTrace<'a> {
    obs: &'a Collector,
    op: &'static str,
    size: u64,
    t0: Instant,
}

impl Drop for OpTrace<'_> {
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
}

impl Request {
    /// Starts an RAII op sample if the request samples. Every memoizable
    /// set operation, hit or miss, is sampled; unsampled, this is one
    /// branch and no allocation.
    fn op_trace(&self, op: &'static str, size: u64) -> Option<OpTrace<'_>> {
        Some(OpTrace {
            obs: self.sampling.as_ref()?,
            op,
            size,
            t0: Instant::now(),
        })
    }

    /// Charges one governed operation against the request's governor.
    /// `Ok(())` means proceed; `Err` means the op must not run: the
    /// fallible memoized operations propagate the error, the infallible
    /// ones substitute a sound conservative answer. Ungoverned, this is
    /// one branch.
    fn charge(&self, op: &'static str) -> Result<(), OmegaError> {
        match &self.governor {
            Some(g) => charge_governed(g, op),
            None => Ok(()),
        }
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
        let id = |sh: &mut Shard| key(Context::intern_in(&mut sh.conjuncts, &cc, s));
        self.ctx.memo(s, id, table, compute)
    }

    /// Governs and samples the satisfiability loop's deletion of a
    /// variable bounded on one side only. No combination is formed, so
    /// nothing is counted; the charge keeps op fuel, deadlines and the
    /// `eliminate` injection site live inside long decisions. The sample
    /// closes when the returned guard drops.
    pub(crate) fn one_sided_drop(&self, c: &Conjunct) -> Result<Option<OpTrace<'_>>, OmegaError> {
        let t = self.op_trace("fme projection", conjunct_size(c));
        self.charge("eliminate")?;
        Ok(t)
    }

    /// Governs, samples and counts the satisfiability loop's shadow step:
    /// a Fourier–Motzkin projection like any other — one `eliminate` miss
    /// — except that its result (the real and dark shadows) is consumed on
    /// the spot and not memoized; the sub-questions it raises are.
    pub(crate) fn shadow_step(&self, c: &Conjunct) -> Result<Option<OpTrace<'_>>, OmegaError> {
        let t = self.one_sided_drop(c)?;
        self.ctx.inner.shadow_steps.fetch_add(1, Ordering::Relaxed);
        Ok(t)
    }
}

/// A grace scope suspends injection and the budget; an injected fault
/// pre-empts the charge it interrupts. Every refusal is noted for
/// [`Context::memo`].
#[cold]
fn charge_governed(g: &RequestGovernor, op: &'static str) -> Result<(), OmegaError> {
    if in_grace() {
        return Ok(());
    }
    let admitted = g.inject_check(op).and_then(|()| g.charge());
    if admitted.is_err() {
        REFUSALS.with(|n| n.set(n.get() + 1));
    }
    admitted
}

/// Memoized satisfiability, exact or failed: `compute`'s conservative
/// `Ok(true)` on overflow or its fuel cap is a property of the conjunct
/// and is cached; its `Err` is a governor refusal somewhere inside the
/// decision, and no verdict was reached.
pub(crate) fn cached_sat_strict(
    c: &Conjunct,
    compute: impl FnOnce() -> Result<bool, OmegaError>,
) -> Result<bool, OmegaError> {
    let op = ("satisfiability", "sat");
    with_request(|r| r.memo_conjunct(op, c, |id| id, |sh| &mut sh.sat, compute))
}

pub(crate) fn cached_eliminate(
    c: &Conjunct,
    v: Var,
    compute: impl FnOnce() -> Result<Vec<Conjunct>, OmegaError>,
) -> Result<Vec<Conjunct>, OmegaError> {
    let op = ("fme projection", "eliminate");
    with_request(|r| r.memo_conjunct(op, c, |id| (id, v), |sh| &mut sh.eliminate, compute))
}

pub(crate) fn cached_negate(
    c: &Conjunct,
    compute: impl FnOnce() -> Result<Vec<Conjunct>, OmegaError>,
) -> Result<Vec<Conjunct>, OmegaError> {
    let op = ("negation", "negate");
    with_request(|r| r.memo_conjunct(op, c, |id| id, |sh| &mut sh.negate, compute))
}

/// Gist is a pure simplification: returning the input unchanged is
/// always sound, so a refused charge degrades to the identity.
pub(crate) fn cached_gist(
    c: &Conjunct,
    given: &Conjunct,
    compute: impl FnOnce() -> Conjunct,
) -> Conjunct {
    with_request(|r| {
        let _t = r.op_trace("gist", conjunct_size(c) + conjunct_size(given));
        if r.charge("gist").is_err() {
            return c.clone();
        }
        // The operands may live in different shards: intern each under its
        // own lock, then probe in the shard of `a`.
        let a = r.ctx.intern_conjunct(c);
        let b = r.ctx.intern_conjunct(given);
        r.ctx
            .memo(shard_of_id(a), |_| (a, b), |sh| &mut sh.gist, compute)
    })
}

/// Like gist: identity is sound, so a refused charge degrades to the
/// input list.
pub(crate) fn cached_simplify(
    conjuncts: &[Conjunct],
    compute: impl FnOnce() -> Vec<Conjunct>,
) -> Vec<Conjunct> {
    with_request(|r| {
        let _t = r.op_trace("simplify", conjuncts.iter().map(conjunct_size).sum());
        if r.charge("simplify").is_err() {
            return conjuncts.to_vec();
        }
        let key: Vec<Id> = conjuncts.iter().map(|c| r.ctx.intern_conjunct(c)).collect();
        r.ctx
            .memo(shard_of(&key), |_| key, |sh| &mut sh.simplify, compute)
    })
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

    /// `ctx` armed alone: memoized, but neither governed nor sampled.
    fn arm(ctx: &Context) -> RequestGuard {
        Request::new(ctx, None, None).arm()
    }

    /// `ctx` armed under `governor`.
    fn arm_governed(ctx: &Context, governor: &RequestGovernor) -> RequestGuard {
        Request::new(ctx, Some(governor), None).arm()
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
        let _outer = arm(&outer);
        {
            let _inner = arm(&inner);
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
    fn armed_request_nests_and_reverts_whole() {
        // Each request carries its own context, governor and collector.
        let member = || {
            let gov = RequestGovernor::new(&Budget::new(), None);
            (Context::new(), gov, dhpf_obs::Collector::new())
        };
        let (outer, inner) = (member(), member());
        let request = |(ctx, gov, obs): &(Context, RequestGovernor, dhpf_obs::Collector)| {
            Request::new(ctx, Some(gov), Some(obs))
        };
        // What one request has seen: sat misses, charges, sampled sats.
        let seen = |(ctx, gov, obs): &(Context, RequestGovernor, dhpf_obs::Collector)| {
            let sampled = obs
                .trace()
                .total_ops()
                .get("satisfiability")
                .map_or(0, |o| o.calls);
            (ctx.stats().sat.misses, gov.stats().ops_charged, sampled)
        };
        let grew = |from: (u64, u64, u64), to: (u64, u64, u64)| {
            to.0 > from.0 && to.1 > from.1 && to.2 > from.2
        };
        let (a, b) = (set("{[i] : 1 <= i <= 10}"), set("{[i] : 2 <= i <= 20}"));
        let _outer = request(&outer).arm();
        assert!(!a.is_empty());
        let outer_seen = seen(&outer);
        assert!(grew((0, 0, 0), outer_seen));
        let inner_seen = {
            let _inner = request(&inner).arm();
            assert!(!b.is_empty());
            // Inside the nest only the inner request memoizes, charges
            // and samples.
            assert_eq!(seen(&outer), outer_seen);
            seen(&inner)
        };
        assert!(grew((0, 0, 0), inner_seen));
        // The inner guard brings back all three of the outer request's.
        assert!(!b.is_empty());
        let outer_seen2 = seen(&outer);
        assert!(grew(outer_seen, outer_seen2));
        assert_eq!(seen(&inner), inner_seen);
        // A spawned thread inherits nothing: it runs in its own default.
        std::thread::scope(|sc| {
            sc.spawn(|| assert!(!a.is_empty() && !b.is_empty()));
        });
        assert_eq!(seen(&outer), outer_seen2);
        assert_eq!(seen(&inner), inner_seen);
    }

    #[test]
    fn sat_cache_hits_on_repeat() {
        let ctx = Context::new();
        let _armed = arm(&ctx);
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
                    let _armed = arm(&ctx);
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
        let _armed = arm(&ctx);
        let before = ctx.stats();
        let s = set("{[i] : 0 <= i <= 0}");
        assert!(!s.is_empty());
        let after = ctx.stats();
        assert!(after.total_hits() > before.total_hits());
    }

    #[test]
    fn collector_records_set_ops_on_open_span() {
        let obs = Collector::new();
        let armed = Request::new(&Context::new(), None, Some(&obs)).arm();
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
    fn op_fuel_trips_and_degrades_soundly() {
        let gov = RequestGovernor::new(&Budget::new().op_fuel(1), None);
        let armed = arm_governed(&Context::new(), &gov);
        let s = set("{[i] : 1 <= i <= 10}");
        let t = set("{[i] : 3 <= i <= 30}");
        // Burn far more than one op; everything must still terminate and
        // the conservative answers must be sound (non-empty says non-empty).
        assert!(!s.is_empty());
        assert!(!s.intersection(&t).is_empty());
        assert!(gov.tripped());
        let g = gov.stats();
        assert_eq!(g.tripped, Some("op fuel"));
        assert!(g.ops_degraded > 0);
        // Fallible ops now surface the typed error.
        let err = s.subtract(&t).unwrap_err();
        assert!(matches!(err, OmegaError::BudgetExceeded("op fuel")));
        // The trip stays with the request that took it.
        drop(armed);
        assert!(s.subtract(&t).is_ok());
    }

    #[test]
    fn expired_deadline_trips() {
        let gov = RequestGovernor::new(&Budget::new().deadline_ms(0), None);
        let _armed = arm_governed(&Context::new(), &gov);
        std::thread::sleep(Duration::from_millis(2));
        let s = set("{[i] : 1 <= i <= 10}");
        assert!(!s.is_empty()); // degraded-but-sound
        assert!(!s.is_empty());
        assert!(gov.tripped());
        assert_eq!(gov.stats().tripped, Some("deadline"));
    }

    #[test]
    fn budget_errors_are_never_memoized() {
        let ctx = Context::new();
        let _ctx = arm(&ctx);
        let s = set("{[i] : 1 <= i <= 10}");
        let t = set("{[i] : 3 <= i <= 30}");
        let gov = RequestGovernor::new(&Budget::new().op_fuel(0), None);
        let armed = arm_governed(&ctx, &gov);
        assert!(s.subtract(&t).is_err());
        drop(armed);
        // The same structural query must now succeed from a clean slate.
        let d = s.subtract(&t).unwrap();
        assert!(d.contains(&[2], &[]));
        assert!(!d.contains(&[3], &[]));
    }

    #[test]
    fn grace_scope_suspends_trip_but_not_cancellation() {
        let s = set("{[i] : 1 <= i <= 10}");
        let t = set("{[i] : 3 <= i <= 30}");
        let gov = RequestGovernor::new(&Budget::new().op_fuel(0), None);
        let _armed = arm_governed(&Context::new(), &gov);
        assert!(s.subtract(&t).is_err());
        assert!(gov.tripped());
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
            let plan = InjectPlan::new(seed, 3, FaultAction::Error);
            let gov = RequestGovernor::new(&Budget::new(), Some(plan));
            let _armed = arm_governed(&Context::new(), &gov);
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
        let plan = InjectPlan::new(7, 1, FaultAction::ExhaustBudget).at_site("eliminate");
        let gov = RequestGovernor::new(&Budget::new(), Some(plan));
        let _armed = arm_governed(&Context::new(), &gov);
        let s = set("{[i] : exists(a : i = 2a) && 0 <= i <= 10}");
        let t = set("{[i] : 3 <= i <= 30}");
        let _ = s.subtract(&t);
        assert!(gov.tripped());
        assert_eq!(gov.stats().tripped, Some("injected"));
    }

    #[test]
    fn injected_panics_unwind_cleanly() {
        let ctx = Context::new();
        let _cx = arm(&ctx);
        let plan = InjectPlan::new(9, 1, FaultAction::Panic).at_site("sat");
        let gov = RequestGovernor::new(&Budget::new(), Some(plan));
        let armed = arm_governed(&ctx, &gov);
        let s = set("{[i] : 1 <= i <= 10}");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.is_empty()));
        assert!(r.is_err(), "period-1 sat panic plan must fire");
        // The context is not poisoned: disarm and keep using it.
        drop(armed);
        assert!(!s.is_empty());
        assert!(ctx.stats().total_misses() > 0);
    }
}
