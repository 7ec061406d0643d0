//! SPMD program synthesis: partitioned loop nests, communication events,
//! loop splitting, and reductions, assembled into an executable per-rank
//! program (interpreted by `dhpf-sim`).
//!
//! One route leads from an analyzed unit to its [`SpmdProgram`]:
//! `plan_items` (the unit's item skeleton, nest bodies factored out) →
//! `build_nest` per nest (standalone; the exact path is `plan_events` →
//! `materialize_events` → `schedule_nest`, Figures 2–4, inside the
//! degradation ladder) → `assemble_spmd`. The driver schedules the nests;
//! nothing here depends on the order they are built in.

use crate::comm::{comm_sets, swap_partner_and_myid, CommRef};
use crate::cp::{cp_map_at_level, myid_set, proc_rank_of, slice_context};
use crate::dependence::{carried_level, placement_level};
use crate::inplace::{contiguity, Contiguity};
use crate::ir::{collect_in, ArrayRef, Reduction, StmtInfo};
use crate::layout::{Layout, ProcCoord};
use crate::split::{split_sets, SplitSets};
use dhpf_codegen::{codegen, Code, CodegenOptions, Mapping, StmtId};
use dhpf_hpf::{Affine, Analysis, Expr, Stmt, StmtKind, TypeName};
use dhpf_obs::Collector;
use dhpf_omega::{Relation, Set, Var};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from SPMD synthesis.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum CompileError {
    /// Frontend error.
    Frontend(dhpf_hpf::HpfError),
    /// A construct the SPMD generator does not support.
    Unsupported(String),
    /// Loop synthesis failed.
    Codegen(dhpf_codegen::CodegenError),
    /// A set-algebra operation hit an exactness limit (inexact negation,
    /// coefficient overflow, …) while analyzing the program.
    SetAlgebra(dhpf_omega::OmegaError),
    /// The compile budget (deadline or op fuel) was exhausted and the
    /// failing construct had no sound conservative fallback. The payload
    /// names the exhausted resource.
    Budget(&'static str),
    /// The compilation was cancelled through its
    /// [`CancelToken`](dhpf_omega::CancelToken). Cancellation never
    /// degrades: it is always surfaced as this error.
    Cancelled,
    /// A compiler task panicked; the payload is the panic message. The
    /// panic was contained by the driver's isolation boundary — sibling
    /// tasks ran to completion and no lock was poisoned.
    Internal(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Frontend(e) => write!(f, "{e}"),
            CompileError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
            CompileError::Codegen(e) => write!(f, "code generation failed: {e}"),
            CompileError::SetAlgebra(e) => write!(f, "set algebra failed: {e}"),
            CompileError::Budget(what) => write!(f, "compile budget exceeded: {what}"),
            CompileError::Cancelled => write!(f, "compilation cancelled"),
            CompileError::Internal(m) => write!(f, "internal compiler error: {m}"),
        }
    }
}

impl CompileError {
    /// The stable machine-readable [`ErrorCode`](dhpf_omega::ErrorCode) of
    /// this error — the code `dhpf-serve` serializes and tests assert on,
    /// shared with [`OmegaError::code`](dhpf_omega::OmegaError::code).
    pub fn code(&self) -> dhpf_omega::ErrorCode {
        match self {
            CompileError::Frontend(_) => dhpf_omega::ErrorCode::Frontend,
            CompileError::Unsupported(_) => dhpf_omega::ErrorCode::Unsupported,
            CompileError::Codegen(_) => dhpf_omega::ErrorCode::Codegen,
            CompileError::SetAlgebra(e) => e.code(),
            CompileError::Budget(_) => dhpf_omega::ErrorCode::Budget,
            CompileError::Cancelled => dhpf_omega::ErrorCode::Cancelled,
            CompileError::Internal(_) => dhpf_omega::ErrorCode::Internal,
        }
    }
}

impl std::error::Error for CompileError {}

impl From<dhpf_hpf::HpfError> for CompileError {
    fn from(e: dhpf_hpf::HpfError) -> Self {
        CompileError::Frontend(e)
    }
}

impl From<dhpf_codegen::CodegenError> for CompileError {
    fn from(e: dhpf_codegen::CodegenError) -> Self {
        CompileError::Codegen(e)
    }
}

impl From<dhpf_omega::OmegaError> for CompileError {
    fn from(e: dhpf_omega::OmegaError) -> Self {
        match e {
            dhpf_omega::OmegaError::Cancelled => CompileError::Cancelled,
            dhpf_omega::OmegaError::BudgetExceeded(what) => CompileError::Budget(what),
            e => CompileError::SetAlgebra(e),
        }
    }
}

/// True for errors the driver may absorb by falling back to a sound
/// conservative construct: exactness failures and budget exhaustion.
/// Cancellation and structural errors (unsupported constructs, panics)
/// always abort.
pub(crate) fn degradable(e: &CompileError) -> bool {
    matches!(
        e,
        CompileError::SetAlgebra(_) | CompileError::Budget(_) | CompileError::Codegen(_)
    )
}

/// One compiled assignment statement.
#[derive(Clone, Debug)]
pub struct CompiledStmt {
    /// Target name (array or scalar).
    pub lhs: String,
    /// LHS subscripts (empty for scalars).
    pub subs: Vec<Expr>,
    /// Right-hand side.
    pub rhs: Expr,
    /// Enclosing IF conditions (all must hold).
    pub guards: Vec<Expr>,
    /// Floating-point operation count (for the machine model).
    pub cost: u64,
}

/// Operations referenced by `Code::Stmt` ids inside a nest.
#[derive(Clone, Debug)]
pub enum NestOp {
    /// Execute an assignment instance.
    Assign(CompiledStmt),
    /// Pack and send all messages of a communication event.
    CommSend(usize),
    /// Receive and unpack all messages of a communication event.
    CommRecv(usize),
}

/// A communication event: what `myid` sends and receives.
#[derive(Clone, Debug)]
pub struct CommEvent {
    /// Event id (message tag).
    pub id: usize,
    /// The communicated array.
    pub array: String,
    /// Code enumerating `SendCommMap(m)` over `[q1..qr, d1..dk]`.
    pub send_code: Code,
    /// Code enumerating `RecvCommMap(m)` over `[q1..qr, d1..dk]`.
    pub recv_code: Code,
    /// Processor-space rank.
    pub proc_rank: u32,
    /// Array rank.
    pub data_rank: u32,
    /// True if §3.3 proved the messages contiguous (in-place eligible:
    /// the simulator charges no pack/unpack copy cost).
    pub contiguous: bool,
    /// Loop level the event was vectorized to (0 = out of the whole nest).
    pub level: u32,
}

/// A partitioned loop nest with embedded communication markers.
#[derive(Clone, Debug)]
pub struct NestItem {
    /// The generated code; `Stmt(id)` indexes into `ops`.
    pub code: Code,
    /// Operation table.
    pub ops: Vec<NestOp>,
    /// Reductions to combine after the nest (scalar, op).
    pub reductions: Vec<Reduction>,
    /// True if Figure-4 loop splitting restructured this nest.
    pub split: bool,
}

/// One element of the SPMD program.
#[derive(Clone, Debug)]
pub enum SpmdItem {
    /// A statement replicated on every rank (`read`, `print`, pure-scalar
    /// assignments and IFs).
    Serial(Stmt),
    /// A replicated (time-step) loop whose body is more items.
    SerialLoop {
        /// Loop variable (bound in every rank's environment).
        var: String,
        /// Lower bound.
        lo: Expr,
        /// Upper bound.
        hi: Expr,
        /// Step, when the source gives one (1 otherwise; may be negative).
        step: Option<Expr>,
        /// Body items.
        body: Vec<SpmdItem>,
    },
    /// A partitioned nest.
    Nest(NestItem),
}

/// Per-dimension processor grid specification.
#[derive(Clone, Debug)]
pub struct ProcDimSpec {
    /// The dimension's realization.
    pub coord: ProcCoord,
    /// Distributed template extent (needed to compute block sizes for
    /// symbolic distributions).
    pub extent: Option<Affine>,
}

/// Array allocation info.
#[derive(Clone, Debug)]
pub struct ArraySpec {
    /// Per-dimension `(lower, upper)` bounds.
    pub dims: Vec<(Affine, Affine)>,
    /// Element type.
    pub ty: TypeName,
    /// Code enumerating the locally-owned index set (for result gathering);
    /// `None` for replicated arrays.
    pub owned_code: Option<Code>,
}

/// The compiled SPMD program.
#[derive(Clone, Debug)]
pub struct SpmdProgram {
    /// Program name.
    pub name: String,
    /// Processor grid dimensions.
    pub proc_dims: Vec<ProcDimSpec>,
    /// Array allocations.
    pub arrays: BTreeMap<String, ArraySpec>,
    /// Runtime input scalars (from `read`).
    pub inputs: Vec<String>,
    /// The program body.
    pub items: Vec<SpmdItem>,
    /// All communication events (indexed by [`CommEvent::id`]).
    pub events: Vec<CommEvent>,
}

/// One recorded graceful degradation: where the exact analysis gave up,
/// why, and which sound conservative construct replaced it. Collected in
/// [`SpmdStats::degradations`] in serial nest order (the parallel driver
/// reconciles to the same order), so the list is deterministic for a given
/// program, options, and fault plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Degradation {
    /// The construct that degraded: `"split"` (Figure-4 loop splitting
    /// abandoned), `"comm_sets"` (one event fell back to the conservative
    /// full exchange), or `"nest"` (the whole nest was replicated).
    pub site: &'static str,
    /// The affected array, when the degradation is array-scoped.
    pub array: Option<String>,
    /// The error that triggered the fallback.
    pub reason: String,
    /// What the compiler did instead.
    pub action: &'static str,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.site)?;
        if let Some(a) = &self.array {
            write!(f, "({a})")?;
        }
        write!(f, ": {} — {}", self.reason, self.action)
    }
}

/// Statistics gathered during synthesis (feeds the Table 1 harness).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpmdStats {
    /// Number of communication events generated.
    pub comm_events: usize,
    /// Events vectorized out of the full nest.
    pub fully_vectorized: usize,
    /// Events proven contiguous (§3.3).
    pub contiguous_events: usize,
    /// Nests restructured by loop splitting.
    pub split_nests: usize,
    /// Coalesced reference groups (more than one reference per event).
    pub coalesced_groups: usize,
    /// Graceful degradations taken, in serial nest order. Empty means the
    /// whole program compiled exactly.
    pub degradations: Vec<Degradation>,
}

/// Options for SPMD synthesis.
#[derive(Clone, Debug)]
pub struct SpmdOptions {
    /// Apply Figure-4 loop splitting for communication overlap.
    pub loop_splitting: bool,
}

impl Default for SpmdOptions {
    fn default() -> Self {
        SpmdOptions {
            loop_splitting: true,
        }
    }
}

/// Context of one nest's synthesis. A `Synth` is always per nest: it owns
/// the nest's communication events (ids local, counted from 0) and its
/// statistics, so nests can be synthesized in any order on any thread and
/// reconciled afterwards.
struct Synth<'a> {
    analysis: &'a Analysis,
    layouts: &'a BTreeMap<String, Layout>,
    opts: &'a SpmdOptions,
    events: Vec<CommEvent>,
    stats: SpmdStats,
    /// The compilation's span tree, which Table 1 is read from.
    obs: &'a Collector,
}

impl Synth<'_> {
    /// Runs `f` inside the phase span `name`.
    fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let _phase = self.obs.guard(name, "phase");
        f(self)
    }

    /// Records one graceful degradation.
    fn degrade(
        &mut self,
        site: &'static str,
        array: Option<&str>,
        reason: &dyn fmt::Display,
        action: &'static str,
    ) {
        self.stats.degradations.push(Degradation {
            site,
            array: array.map(str::to_string),
            reason: reason.to_string(),
            action,
        });
    }
}

/// Assembles the unit-level program around already-built items: processor
/// grid, array allocations (with owned-set enumeration code), inputs.
fn finish_program(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    items: Vec<SpmdItem>,
    events: Vec<CommEvent>,
) -> Result<SpmdProgram, CompileError> {
    // Unit assembly is *structural*: owned-set enumeration per declared
    // array, grid and input collection — bounded work proportional to the
    // declarations, with no sound fallback (a program without its
    // allocation code is not a program). The budget governs analysis and
    // per-nest synthesis, not this epilogue, so it runs in a governor
    // grace scope: a tripped budget cannot fail it, and injection skips
    // it (cancellation stays live).
    let _grace = dhpf_omega::governor_grace();
    // Processor grid: from the distributed layouts (all share one arrangement).
    let proc_dims = grid_of(analysis, layouts);
    // Arrays.
    let mut arrays = BTreeMap::new();
    for (name, info) in &analysis.arrays {
        let layout = &layouts[name];
        let owned_code = if layout.replicated {
            None
        } else {
            let owned = layout.rel.apply(&myid_set(layout.proc_rank()))?;
            let names: Vec<String> = (0..info.dims.len())
                .map(|d| format!("d{}", d + 1))
                .collect();
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            Some(dhpf_codegen::codegen_set(
                &owned,
                StmtId(0),
                &name_refs,
                &CodegenOptions::default(),
            )?)
        };
        arrays.insert(
            name.clone(),
            ArraySpec {
                dims: info.dims.clone(),
                ty: info.ty,
                owned_code,
            },
        );
    }
    let mut inputs = Vec::new();
    collect_inputs(&analysis.unit.body, &mut inputs);
    Ok(SpmdProgram {
        name: analysis.unit.name.clone(),
        proc_dims,
        arrays,
        inputs,
        items,
        events,
    })
}

fn grid_of(analysis: &Analysis, layouts: &BTreeMap<String, Layout>) -> Vec<ProcDimSpec> {
    // Find a non-replicated layout and take its coordinate structure,
    // pairing each processor dimension with its template extent.
    for (aname, l) in layouts {
        if l.replicated {
            continue;
        }
        let info = &analysis.arrays[aname];
        let Some(align) = &info.align else { continue };
        let Some(t) = analysis.templates.get(&align.template) else {
            continue;
        };
        let Some(dist) = &t.dist else { continue };
        let mut out = Vec::new();
        let mut pdim = 0;
        for (tdim, f) in dist.formats.iter().enumerate() {
            if matches!(f, dhpf_hpf::DistFormat::Star) {
                continue;
            }
            out.push(ProcDimSpec {
                coord: l.coords[pdim].clone(),
                extent: Some(t.extents[tdim].clone()),
            });
            pdim += 1;
        }
        return out;
    }
    vec![ProcDimSpec {
        coord: ProcCoord::Physical { count: 1 },
        extent: None,
    }]
}

fn collect_inputs(body: &[Stmt], out: &mut Vec<String>) {
    for s in body {
        match &s.kind {
            StmtKind::Read { vars } => out.extend(vars.iter().cloned()),
            StmtKind::Do { body, .. } => collect_inputs(body, out),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                collect_inputs(then_body, out);
                collect_inputs(else_body, out);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Unit synthesis: plan → build each nest standalone → assemble
// ---------------------------------------------------------------------------
//
// One route leads from an analyzed unit to its `SpmdProgram`, at every
// thread count: (1) *plan* the item skeleton up front (`plan_items`, a
// pure structural pass over the AST that holds the only unit-body
// dispatch), (2) build each extracted nest *standalone* (`build_nest`)
// with local event ids counted from 0, and (3) *assemble*
// (`assemble_spmd`): walk the skeleton in order, offsetting each nest's
// event ids by the running total, so the numbering follows source order
// whatever order the nests were built in. Synthesis statistics are per
// nest and additive. The driver runs every (2) on one ordered parallel
// map, then (3) per unit on the calling thread; `threads` only decides
// how many workers run the map.

/// Skeleton of a unit's item list with nest bodies factored out by index.
pub(crate) enum ItemSkel {
    /// A replicated statement.
    Serial(Stmt),
    /// A replicated loop over more skeleton items.
    SerialLoop {
        /// Loop variable.
        var: String,
        /// Lower bound.
        lo: Expr,
        /// Upper bound.
        hi: Expr,
        /// Step, when the source gives one.
        step: Option<Expr>,
        /// Body skeleton.
        body: Vec<ItemSkel>,
    },
    /// The `i`-th extracted nest body (index into [`UnitPlan::nests`]).
    Nest(usize),
}

/// A planned unit: the item skeleton plus the extracted nest bodies, each
/// of which can be synthesized independently.
pub(crate) struct UnitPlan {
    /// Item structure, with nests by index.
    pub skel: Vec<ItemSkel>,
    /// Nest bodies, in source traversal order.
    pub nests: Vec<Vec<Stmt>>,
}

/// Plans a unit's items without doing any set algebra: replicated
/// statements stay in the skeleton, consecutive nest-able statements and
/// each parallel `DO`/array `IF` become one nest body.
///
/// # Errors
///
/// Returns [`CompileError::Unsupported`] for constructs outside the SPMD
/// subset (subroutine calls), before any nest of the unit is built.
pub(crate) fn plan_items(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
) -> Result<UnitPlan, CompileError> {
    let mut nests = Vec::new();
    let skel = plan_body(analysis, layouts, &analysis.unit.body, &mut nests)?;
    Ok(UnitPlan { skel, nests })
}

fn plan_body(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    body: &[Stmt],
    nests: &mut Vec<Vec<Stmt>>,
) -> Result<Vec<ItemSkel>, CompileError> {
    fn flush(pending: &mut Vec<Stmt>, items: &mut Vec<ItemSkel>, nests: &mut Vec<Vec<Stmt>>) {
        if !pending.is_empty() {
            items.push(ItemSkel::Nest(nests.len()));
            nests.push(std::mem::take(pending));
        }
    }
    let mut items = Vec::new();
    let mut pending: Vec<Stmt> = Vec::new(); // consecutive nest-able stmts
    for s in body {
        match &s.kind {
            StmtKind::Read { .. } | StmtKind::Print { .. } => {
                flush(&mut pending, &mut items, nests);
                items.push(ItemSkel::Serial(s.clone()));
            }
            StmtKind::Call { name, .. } => {
                return Err(CompileError::Unsupported(format!(
                    "call to '{name}' (inline subroutines before SPMD synthesis)"
                )));
            }
            StmtKind::Assign { name, rhs, .. } => {
                if !analysis.is_array(name) && !reads_distributed_array(analysis, layouts, rhs) {
                    // Pure scalar statement: replicated.
                    flush(&mut pending, &mut items, nests);
                    items.push(ItemSkel::Serial(s.clone()));
                } else {
                    pending.push(s.clone());
                }
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                flush(&mut pending, &mut items, nests);
                if is_pure_scalar_block(analysis, layouts, then_body)
                    && is_pure_scalar_block(analysis, layouts, else_body)
                {
                    items.push(ItemSkel::Serial(s.clone()));
                } else {
                    // An IF with array assignments forms its own nest; do
                    // not fuse with neighbouring statements.
                    items.push(ItemSkel::Nest(nests.len()));
                    nests.push(vec![s.clone()]);
                }
            }
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body: do_body,
            } => {
                flush(&mut pending, &mut items, nests);
                if is_serial_loop(analysis, layouts, var, do_body) {
                    let inner = plan_body(analysis, layouts, do_body, nests)?;
                    items.push(ItemSkel::SerialLoop {
                        var: var.clone(),
                        lo: lo.clone(),
                        hi: hi.clone(),
                        step: step.clone(),
                        body: inner,
                    });
                } else {
                    // Each parallel DO nest stands alone: fusing separate
                    // source loops could violate dependences.
                    items.push(ItemSkel::Nest(nests.len()));
                    nests.push(vec![s.clone()]);
                }
            }
        }
    }
    flush(&mut pending, &mut items, nests);
    Ok(items)
}

/// Output of one nest's synthesis: the nest item with event ids local to
/// the nest (counted from 0), the events themselves, and the statistics
/// the nest accumulated.
pub(crate) struct NestOut {
    /// The synthesized nest.
    pub item: NestItem,
    /// The nest's communication events, ids local (0-based).
    pub events: Vec<CommEvent>,
    /// Synthesis statistics for this nest alone.
    pub stats: SpmdStats,
}

/// Synthesizes one planned nest in isolation (safe to run on a worker
/// thread that has the request's `Context` armed), with the degradation
/// ladder of DESIGN.md §12 wrapped around the exact path:
///
/// - rung 0 (in [`schedule_nest`]): Figure-4 loop splitting fails → keep
///   the exact events, emit the unsplit schedule;
/// - rung 1 (in [`materialize_events`]): a level-0 read event's Figure-3
///   equations fail → substitute the conservative full exchange for that
///   event only;
/// - rung 2 (here): anything else degradable fails → drop whatever the
///   exact attempt accumulated and rebuild the nest *replicated*, with
///   conservative pre-refresh events.
///
/// Cancellation is checked at entry (nests are the driver's unit of
/// progress) and is never absorbed by the ladder. The nest's phases are
/// spans in `obs`, under whatever span the calling thread has open (the
/// driver's task span for this nest).
///
/// A nest that assigns a scalar its generated code mentions is refused
/// with [`CompileError::Unsupported`]: guard lifting evaluates a merged or
/// hoisted guard once for statements it was re-evaluated between, which is
/// exact only when no statement assigns what the guard reads.
pub(crate) fn build_nest(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    opts: &SpmdOptions,
    body: &[Stmt],
    obs: &Collector,
) -> Result<NestOut, CompileError> {
    let mut synth = Synth {
        analysis,
        layouts,
        opts,
        events: Vec::new(),
        stats: SpmdStats::default(),
        obs,
    };
    let item = nest_ladder(&mut synth, body)?;
    for op in &item.ops {
        if let NestOp::Assign(cs) = op {
            if item.code.mentions(&cs.lhs) {
                return Err(CompileError::Unsupported(format!(
                    "a nest assigns '{}', which its loop bounds or guards read",
                    cs.lhs
                )));
            }
        }
    }
    Ok(NestOut {
        item,
        events: synth.events,
        stats: synth.stats,
    })
}

fn nest_ladder(synth: &mut Synth, body: &[Stmt]) -> Result<NestItem, CompileError> {
    // Cancellation aborts (it is not degradable); an injected nest fault
    // counts as the exact attempt failing.
    let cx = dhpf_omega::Context::current();
    let gate = cx.check_cancelled().and_then(|()| cx.inject_check("nest"));
    let attempt = match gate {
        Ok(()) => build_nest_exact(synth, body),
        Err(e) => Err(e.into()),
    };
    match attempt {
        Err(e) if degradable(&e) => {
            // Drop everything the failed exact attempt accumulated
            // (half-built events, stats — including rung-0/1 records of
            // abandoned work) so the replicated rebuild starts clean.
            synth.events.clear();
            synth.stats = SpmdStats::default();
            synth.degrade(
                "nest",
                None,
                &e,
                "replicated nest with conservative refresh",
            );
            build_nest_replicated(synth, body)
        }
        r => r,
    }
}

/// Assembles standalone nest outputs (in plan order) back into a unit
/// program: each nest's local event ids are shifted by the number of
/// events in all earlier nests, and the `CommSend`/`CommRecv` op references
/// inside the nest are rewritten to match. Returns the program and the
/// summed statistics.
pub(crate) fn assemble_spmd(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    skel: &[ItemSkel],
    nest_outs: Vec<NestOut>,
) -> Result<(SpmdProgram, SpmdStats), CompileError> {
    let mut events: Vec<CommEvent> = Vec::new();
    let mut stats = SpmdStats::default();
    let mut nest_items: Vec<Option<NestItem>> = Vec::with_capacity(nest_outs.len());
    for out in nest_outs {
        let offset = events.len();
        let mut item = out.item;
        for op in &mut item.ops {
            match op {
                NestOp::CommSend(e) | NestOp::CommRecv(e) => *e += offset,
                NestOp::Assign(_) => {}
            }
        }
        for mut ev in out.events {
            ev.id += offset;
            events.push(ev);
        }
        stats.comm_events += out.stats.comm_events;
        stats.fully_vectorized += out.stats.fully_vectorized;
        stats.contiguous_events += out.stats.contiguous_events;
        stats.split_nests += out.stats.split_nests;
        stats.coalesced_groups += out.stats.coalesced_groups;
        // Degradations concatenate in plan order, so the list (and thus
        // the whole stats value) is independent of the build schedule.
        stats.degradations.extend(out.stats.degradations);
        nest_items.push(Some(item));
    }
    fn realize(skel: &[ItemSkel], nests: &mut [Option<NestItem>]) -> Vec<SpmdItem> {
        skel.iter()
            .map(|s| match s {
                ItemSkel::Serial(stmt) => SpmdItem::Serial(stmt.clone()),
                ItemSkel::SerialLoop {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => SpmdItem::SerialLoop {
                    var: var.clone(),
                    lo: lo.clone(),
                    hi: hi.clone(),
                    step: step.clone(),
                    body: realize(body, nests),
                },
                // Cannot fire: `plan_body` hands out each nest index once,
                // and the caller passes one output per planned nest.
                ItemSkel::Nest(i) => {
                    SpmdItem::Nest(nests[*i].take().expect("each nest realized once"))
                }
            })
            .collect()
    }
    let items = realize(skel, &mut nest_items);
    let program = finish_program(analysis, layouts, items, events)?;
    Ok((program, stats))
}

fn reads_distributed_array(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    e: &Expr,
) -> bool {
    match e {
        Expr::Ref(name, args) => {
            (analysis.is_array(name) && !layouts[name].replicated)
                || args
                    .iter()
                    .any(|a| reads_distributed_array(analysis, layouts, a))
        }
        Expr::Bin(_, a, b) => {
            reads_distributed_array(analysis, layouts, a)
                || reads_distributed_array(analysis, layouts, b)
        }
        Expr::Un(_, a) => reads_distributed_array(analysis, layouts, a),
        _ => false,
    }
}

fn is_pure_scalar_block(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    body: &[Stmt],
) -> bool {
    body.iter().all(|s| match &s.kind {
        StmtKind::Assign { name, rhs, .. } => {
            !analysis.is_array(name) && !reads_distributed_array(analysis, layouts, rhs)
        }
        StmtKind::Print { .. } => true,
        StmtKind::If {
            then_body,
            else_body,
            ..
        } => {
            is_pure_scalar_block(analysis, layouts, then_body)
                && is_pure_scalar_block(analysis, layouts, else_body)
        }
        _ => false,
    })
}

/// A DO loop is *serial* (replicated, e.g. a time-step or convergence loop)
/// when its index never appears in a subscript of a distributed array.
fn is_serial_loop(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    var: &str,
    body: &[Stmt],
) -> bool {
    !var_in_distributed_subscript(analysis, layouts, var, body)
}

fn var_in_distributed_subscript(
    analysis: &Analysis,
    layouts: &BTreeMap<String, Layout>,
    var: &str,
    body: &[Stmt],
) -> bool {
    fn expr_has_var_subscript(
        analysis: &Analysis,
        layouts: &BTreeMap<String, Layout>,
        var: &str,
        e: &Expr,
    ) -> bool {
        match e {
            Expr::Ref(name, args) => {
                let in_sub = analysis.is_array(name)
                    && !layouts[name].replicated
                    && args.iter().any(|a| mentions_var(a, var));
                in_sub
                    || args
                        .iter()
                        .any(|a| expr_has_var_subscript(analysis, layouts, var, a))
            }
            Expr::Bin(_, a, b) => {
                expr_has_var_subscript(analysis, layouts, var, a)
                    || expr_has_var_subscript(analysis, layouts, var, b)
            }
            Expr::Un(_, a) => expr_has_var_subscript(analysis, layouts, var, a),
            _ => false,
        }
    }
    fn mentions_var(e: &Expr, var: &str) -> bool {
        match e {
            Expr::Var(v) => v == var,
            Expr::Ref(_, args) => args.iter().any(|a| mentions_var(a, var)),
            Expr::Bin(_, a, b) => mentions_var(a, var) || mentions_var(b, var),
            Expr::Un(_, a) => mentions_var(a, var),
            _ => false,
        }
    }
    body.iter().any(|s| match &s.kind {
        StmtKind::Assign {
            name, subs, rhs, ..
        } => {
            let lhs_hit = analysis.is_array(name)
                && !layouts[name].replicated
                && subs.iter().any(|a| mentions_var(a, var));
            lhs_hit || expr_has_var_subscript(analysis, layouts, var, rhs)
        }
        StmtKind::Do { body, .. } => var_in_distributed_subscript(analysis, layouts, var, body),
        StmtKind::If {
            then_body,
            else_body,
            ..
        } => {
            var_in_distributed_subscript(analysis, layouts, var, then_body)
                || var_in_distributed_subscript(analysis, layouts, var, else_body)
        }
        _ => false,
    })
}

// ---------------------------------------------------------------------------
// Nest synthesis
// ---------------------------------------------------------------------------

/// Statement groups: consecutive statements with identical loop nests, as
/// indices into `stmts`. One `codegen` call per group keeps statement
/// order.
fn statement_groups(stmts: &[StmtInfo]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (k, s) in stmts.iter().enumerate() {
        match groups.last_mut() {
            Some(g) if stmts[g[0]].ctx.vars == s.ctx.vars => g.push(k),
            _ => groups.push(vec![k]),
        }
    }
    groups
}

/// The operation table and code chunks of a nest under construction.
#[derive(Default)]
struct NestCode {
    ops: Vec<NestOp>,
    chunks: Vec<Code>,
}

impl NestCode {
    /// Registers `op`, returning the id a `Code::Stmt` refers to it by.
    fn op(&mut self, op: NestOp) -> StmtId {
        self.ops.push(op);
        StmtId(self.ops.len() - 1)
    }

    /// Registers `op` and emits it at the current position.
    fn emit(&mut self, op: NestOp) {
        let id = self.op(op);
        self.chunks.push(Code::Stmt(id));
    }

    /// Emits the send of `event` immediately followed by its receive.
    fn exchange(&mut self, event: usize) {
        self.emit(NestOp::CommSend(event));
        self.emit(NestOp::CommRecv(event));
    }

    fn finish(self, reductions: Vec<Reduction>, split: bool) -> NestItem {
        NestItem {
            code: Code::Seq(self.chunks),
            ops: self.ops,
            reductions,
            split,
        }
    }
}

/// The rung-2 fallback: the whole nest is *replicated*. Every distributed
/// array the nest references is first refreshed with a conservative full
/// exchange (each rank receives every other rank's owned section, making
/// all copies owner-current); then every rank executes the full iteration
/// set with no partitioning, in original statement order. Reductions are
/// dropped from the item: each rank computes the complete value locally,
/// so combining partials would over-count. After the nest every rank's
/// copy of each written array is identical and owner-current, so later
/// exact nests — and the simulator's owned-region result gathering — stay
/// correct.
fn build_nest_replicated(synth: &mut Synth, body: &[Stmt]) -> Result<NestItem, CompileError> {
    // The rebuild runs in a governor grace scope: it executes precisely
    // when the budget has tripped or a fault fired, and its own (cheap,
    // bounded) set algebra and codegen must not re-fail. Cancellation
    // stays live inside the scope.
    let _grace = dhpf_omega::governor_grace();
    let stmts = collect_in(synth.analysis, body);
    let layouts = synth.layouts;
    let mut out = NestCode::default();
    // Refresh every distributed array the nest references, in sorted
    // order for determinism.
    let arrays: std::collections::BTreeSet<&str> = stmts
        .iter()
        .flat_map(|s| s.reads.iter().chain(&s.lhs))
        .filter(|r| layouts.get(&r.array).is_some_and(|l| !l.replicated))
        .map(|r| r.array.as_str())
        .collect();
    for array in arrays {
        let sets = crate::comm::conservative_comm_sets(&layouts[array])?;
        if sets.recv_map.is_empty() {
            continue; // single-rank grid: nothing to refresh
        }
        let id = push_event(synth, array, &sets.send_map, &sets.recv_map, 0)?;
        out.exchange(id);
    }
    // Full-iteration code, group by group as on the exact path.
    for g in statement_groups(&stmts) {
        let names: Vec<&str> = stmts[g[0]].ctx.vars.iter().map(String::as_str).collect();
        let mappings: Vec<Mapping> = g
            .iter()
            .map(|&k| Mapping {
                stmt: out.op(NestOp::Assign(compile_stmt(&stmts[k]))),
                space: stmts[k].ctx.iteration_set(),
            })
            .collect();
        let code = synth.time("mult mappings code generation", |_| {
            codegen(&mappings, &names, &CodegenOptions::default())
        })?;
        out.chunks.push(code);
    }
    Ok(out.finish(Vec::new(), false))
}

/// What the three steps of the exact path share about one nest, computed
/// once.
struct NestPlan {
    stmts: Vec<StmtInfo>,
    /// Statement groups (see [`statement_groups`]) …
    groups: Vec<Vec<usize>>,
    /// … and the group each statement belongs to.
    group_of: Vec<usize>,
    /// All array writes in the nest, by statement index (for
    /// dependence-based placement).
    writes: Vec<(usize, ArrayRef)>,
    /// Each statement's `CPMap` over its full loop nest (§3.1) …
    cp0: Vec<Relation>,
    /// … and the iterations `myid` executes under it, `CPMap({myid})`.
    mine: Vec<Set>,
}

impl NestPlan {
    fn new(synth: &mut Synth, body: &[Stmt]) -> Result<NestPlan, CompileError> {
        let stmts = collect_in(synth.analysis, body);
        let groups = statement_groups(&stmts);
        let mut group_of = vec![0; stmts.len()];
        for (gi, g) in groups.iter().enumerate() {
            for &k in g {
                group_of[k] = gi;
            }
        }
        let writes = stmts
            .iter()
            .enumerate()
            .filter_map(|(k, s)| s.lhs.clone().map(|l| (k, l)))
            .collect();
        let (cp0, mine) = synth
            .time("partitioning computation", |sy| {
                stmts
                    .iter()
                    .map(|s| {
                        let (cp, _) = cp_map_at_level(s, sy.layouts, 0)?;
                        let mine = cp.apply(&myid_set(proc_rank_of(s, sy.layouts)))?;
                        Ok((cp, mine))
                    })
                    .collect::<Result<Vec<_>, dhpf_omega::OmegaError>>()
            })?
            .into_iter()
            .unzip();
        Ok(NestPlan {
            stmts,
            groups,
            group_of,
            writes,
            cp0,
            mine,
        })
    }

    /// Statement `k`'s `CPMap` at `level`: outer loop variables symbolic
    /// (Figure 3, equation 1). Level 0 is the map held in the plan.
    fn cp_at(&self, synth: &mut Synth, k: usize, level: u32) -> Result<Relation, CompileError> {
        if level == 0 {
            return Ok(self.cp0[k].clone());
        }
        let (cp, _) = synth.time("partitioning computation", |sy| {
            cp_map_at_level(&self.stmts[k], sy.layouts, level)
        })?;
        Ok(cp)
    }
}

/// One planned communication event: the coalesced references to one array
/// at one placement level.
struct EventPlan {
    array: String,
    /// Non-local *writes*, sent to their owners after the nest; otherwise
    /// potentially non-local reads.
    is_write: bool,
    /// Placement level (0 = vectorized out of the whole nest).
    level: u32,
    /// Statement group of the first reference.
    group: usize,
    refs: Vec<CommRef>,
    /// The `(statement, read)` behind each of `refs` (reads only).
    sources: Vec<(usize, usize)>,
}

/// A materialized event and where the schedule places it.
struct BuiltEvent {
    event: usize,
    level: u32,
    group: usize,
    is_write: bool,
}

fn build_nest_exact(synth: &mut Synth, body: &[Stmt]) -> Result<NestItem, CompileError> {
    let np = NestPlan::new(synth, body)?;
    let plans = plan_events(synth, &np)?;
    let built = materialize_events(synth, &np, &plans)?;
    schedule_nest(synth, &np, &built)
}

/// §3.1 / Figure 2: finds the potentially non-local references, the loop
/// level each one's communication can be placed at, and its `CPMap` at
/// that level; references to one array at one level coalesce into one
/// plan (level-0 plans across statement groups, pipelined ones within
/// their group's loop). Plans come back in coalescing-key order.
fn plan_events(synth: &mut Synth, np: &NestPlan) -> Result<Vec<EventPlan>, CompileError> {
    type Plans = BTreeMap<(String, bool, u32, usize), EventPlan>;
    fn plan_for<'p>(
        plans: &'p mut Plans,
        array: &str,
        is_write: bool,
        level: u32,
        group: usize,
    ) -> &'p mut EventPlan {
        let key_group = if level > 0 { group } else { usize::MAX };
        plans
            .entry((array.to_string(), is_write, level, key_group))
            .or_insert_with(|| EventPlan {
                array: array.to_string(),
                is_write,
                level,
                group,
                refs: Vec::new(),
                sources: Vec::new(),
            })
    }
    let mut plans = Plans::new();
    for (k, s) in np.stmts.iter().enumerate() {
        for (ri, r) in s.reads.iter().enumerate() {
            if synth.layouts.get(&r.array).is_none_or(|l| l.replicated) {
                continue;
            }
            // Owner-computes self-reference: a read identical to the sole
            // ON_HOME term is local by definition (the paper's "early
            // phases identify potentially non-local references").
            if s.on_home.len() == 1 && s.on_home[0].array == r.array && s.on_home[0].subs == r.subs
            {
                continue;
            }
            let same_array = |w: &(usize, ArrayRef)| w.1.array == r.array;
            let same_ctx = |w: &(usize, ArrayRef)| np.stmts[w.0].ctx.vars == s.ctx.vars;
            let same_ctx_writes: Vec<&ArrayRef> = np
                .writes
                .iter()
                .filter(|w| same_array(w) && same_ctx(w))
                .map(|(_, w)| w)
                .collect();
            let mut level = synth.time("communication placement", |_| {
                placement_level(r, &same_ctx_writes, &s.ctx)
            })?;
            // Cross-context writes to the same array force conservative
            // placement inside the whole nest for safety.
            if np.writes.iter().any(|w| same_array(w) && !same_ctx(w)) {
                level = s.ctx.depth();
            }
            let cp_map = np.cp_at(synth, k, level)?;
            let plan = plan_for(&mut plans, &r.array, false, level, np.group_of[k]);
            plan.refs.push(CommRef {
                cp_map,
                ref_map: r.ref_map(&slice_context(&s.ctx, level)),
            });
            plan.sources.push((k, ri));
        }
        // Non-local writes (CP differs from owner of the LHS).
        if let Some(l) = &s.lhs {
            let owner_differs = s
                .on_home
                .iter()
                .any(|oh| oh.array != l.array || oh.subs != l.subs);
            if !synth.layouts[&l.array].replicated && owner_differs {
                plan_for(&mut plans, &l.array, true, 0, np.group_of[k])
                    .refs
                    .push(CommRef {
                        cp_map: np.cp0[k].clone(),
                        ref_map: l.ref_map(&s.ctx),
                    });
            }
        }
    }
    Ok(plans.into_values().collect())
}

/// Figure 3: evaluates `comm_sets` for every plan and registers the events
/// that move data — one event before (reads) or after (writes) the nest
/// for a level-0 plan, a pre-nest + in-loop pair for a pipelined one.
fn materialize_events(
    synth: &mut Synth,
    np: &NestPlan,
    plans: &[EventPlan],
) -> Result<Vec<BuiltEvent>, CompileError> {
    let mut built: Vec<BuiltEvent> = Vec::new();
    for plan in plans {
        let layout = &synth.layouts[&plan.array];
        let sets = match synth.time("communication generation", |_| {
            if plan.is_write {
                comm_sets(&[], &plan.refs, layout)
            } else {
                comm_sets(&plan.refs, &[], layout)
            }
        }) {
            Ok(sets) => sets,
            // Rung 1: a level-0 read exchange has a sound in-place
            // fallback — the conservative full exchange delivers a
            // superset of the data the exact event would have moved,
            // before the nest runs. Non-local writes and pipelined
            // placements have no such event-local fallback (a full
            // exchange would push stale copies over owner data or break
            // the send/recv pairing inside the loop), so they escalate
            // to the nest-level rung in `nest_ladder`. Cancellation is
            // never absorbed.
            Err(e)
                if !plan.is_write
                    && plan.level == 0
                    && !matches!(e, dhpf_omega::OmegaError::Cancelled) =>
            {
                synth.degrade(
                    "comm_sets",
                    Some(&plan.array),
                    &e,
                    "conservative full exchange",
                );
                crate::comm::conservative_comm_sets(layout)?
            }
            Err(e) => return Err(e.into()),
        };
        // An event is needed only if some processor touches *non-local*
        // data. With the virtual-processor layouts a write event's maps
        // can be spuriously non-empty: fictitious VPs overlap every real
        // one, so a real VP writing its own data writes a fictitious VP's
        // data too (`LocalCommMap_write`), and the send map, the recv map
        // renamed, follows. So emptiness is judged on the non-local data
        // sets: `m` is symbolic, so emptiness here means "empty for every
        // processor". Non-local data that no processor owns moves nowhere:
        // SP reads `u(i+1)` up to `i = n - 1` with `n` read at run time, so
        // index 35 of a 34-element dimension is non-local, yet its receive
        // map simplifies to no conjuncts. Such an event is dead too.
        let needed = if plan.is_write {
            !sets.nl_write_data.is_empty()
        } else {
            !sets.nl_read_data.is_empty()
        } && !sets.recv_map.conjuncts().is_empty();
        if !needed {
            continue;
        }
        if plan.refs.len() > 1 {
            synth.stats.coalesced_groups += 1;
        }
        if plan.level > 0 {
            pipelined_events(synth, np, plan, &sets, &mut built)?;
            continue;
        }
        // Vectorized out of the whole nest: one pre-/post-nest event.
        let event = push_event(synth, &plan.array, &sets.send_map, &sets.recv_map, 0)?;
        if !plan.is_write {
            synth.stats.fully_vectorized += 1;
        }
        built.push(BuiltEvent {
            event,
            level: 0,
            group: plan.group,
            is_write: plan.is_write,
        });
    }
    Ok(built)
}

/// Pipelined placement inside loop `plan.level`. The *receive* happens at
/// the consumer's iteration (`sets`, the level-l maps, are parameterized
/// by the outer loop variables), but the matching *send* must be driven by
/// the PRODUCER's own iteration: a processor sends boundary data right
/// after producing it. Data never written inside the nest is exchanged
/// once, before the nest.
fn pipelined_events(
    synth: &mut Synth,
    np: &NestPlan,
    plan: &EventPlan,
    sets: &crate::comm::CommSets,
    built: &mut Vec<BuiltEvent>,
) -> Result<(), CompileError> {
    let layout = &synth.layouts[&plan.array];
    let ctx = &np.stmts[np.groups[plan.group][0]].ctx;
    let array_writes = || np.writes.iter().filter(|(_, w)| w.array == plan.array);
    // `comm_code` wants simplified maps, and a `restrict_range` result is
    // not: its raw conjuncts can leave a loop level unbounded. Both maps
    // reach `push` simplified.
    let mut push = |synth: &mut Synth, send: Relation, recv: Relation, level: u32| {
        if !recv.is_empty() {
            built.push(BuiltEvent {
                event: push_event(synth, &plan.array, &send, &recv, level)?,
                level,
                group: plan.group,
                is_write: false,
            });
        }
        Ok::<(), CompileError>(())
    };
    // All data of this array written anywhere in the nest.
    let mut written = Set::empty(layout.rel.n_out());
    for (wk, w) in array_writes() {
        let wctx = &np.stmts[*wk].ctx;
        written = written.union(&w.ref_map(wctx).apply(&wctx.iteration_set())?);
    }
    written.simplify();
    let unwritten = array_index_set(synth.analysis, &plan.array).subtract(&written)?;
    // Fully-vectorized maps for this plan's own references (no
    // consumer-iteration parameters): they drive the producer-side send
    // schedule.
    let refs0: Vec<CommRef> = plan
        .sources
        .iter()
        .map(|&(k, ri)| CommRef {
            cp_map: np.cp0[k].clone(),
            ref_map: np.stmts[k].reads[ri].ref_map(&np.stmts[k].ctx),
        })
        .collect();
    let sets0 = synth.time("communication generation", |_| {
        comm_sets(&refs0, &[], layout)
    })?;
    // Pre-nest exchange of never-written data. `unwritten` does not
    // mention `m`, so restricting the range commutes with the partner /
    // `myid` rename: the send map is the simplified receive map renamed.
    let mut pre_recv = sets0.recv_map.restrict_range(&unwritten);
    synth.time("communication generation", |_| pre_recv.simplify());
    let pre_send = swap_partner_and_myid(&pre_recv);
    push(synth, pre_send, pre_recv, 0)?;
    // In-loop event: receive what this iteration consumes (written data
    // only); send what this iteration just produced and someone else
    // will consume.
    let mut w_cur = Set::empty(layout.rel.n_out());
    for (wk, w) in array_writes().filter(|(wk, _)| np.stmts[*wk].ctx.vars == ctx.vars) {
        let my_inner = np
            .cp_at(synth, *wk, plan.level)?
            .apply(&myid_set(layout.proc_rank()))?;
        let rm = w.ref_map(&slice_context(&np.stmts[*wk].ctx, plan.level));
        w_cur = w_cur.union(&rm.apply(&my_inner)?);
    }
    w_cur.simplify();
    // The level-l receive map and the level-0 send map are not a rename
    // pair, so each is simplified on its own.
    let mut in_send = sets0.send_map.restrict_range(&w_cur);
    let mut in_recv = sets.recv_map.restrict_range(&written);
    synth.time("communication generation", |_| {
        in_send.simplify();
        in_recv.simplify();
    });
    push(synth, in_send, in_recv, plan.level)
}

/// Figure 4 requires "no dependences that prevent iteration reordering":
/// no write in the nest is loop-carried into a read of the same array in
/// the same loop context.
fn reorder_safe(np: &NestPlan) -> Result<bool, CompileError> {
    for s in &np.stmts {
        for r in &s.reads {
            for (wk, w) in &np.writes {
                if w.array == r.array
                    && np.stmts[*wk].ctx.vars == s.ctx.vars
                    && carried_level(w, r, &s.ctx)?.is_some()
                {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

/// The Figure-4 sections of a single-group nest, or `None` when a
/// dependence forbids reordering or its statements do not share one
/// partition (the sections are computed once for the whole group).
fn split_sections(synth: &mut Synth, np: &NestPlan) -> Result<Option<SplitSets>, CompileError> {
    if !reorder_safe(np)? {
        return Ok(None);
    }
    for mine in &np.mine[1..] {
        if !mine.equal(&np.mine[0])? {
            return Ok(None);
        }
    }
    // Sections intersected across every statement's references.
    let layouts = synth.layouts;
    let reads: Vec<(Relation, &Layout)> = np
        .stmts
        .iter()
        .flat_map(|s| s.reads.iter().map(move |r| (s, r)))
        .filter(|(_, r)| !layouts[&r.array].replicated)
        .map(|(s, r)| (r.ref_map(&s.ctx), &layouts[&r.array]))
        .collect();
    let read_pairs: Vec<(&Relation, &Layout)> = reads.iter().map(|(m, l)| (m, *l)).collect();
    let sections = synth.time("loop splitting", |_| {
        split_sets(&np.mine[0], &read_pairs, &[])
    })?;
    Ok(Some(sections))
}

/// Figure 4: orders the nest's code and events. A nest that qualifies is
/// *split* — send, compute the local section, receive, compute the
/// non-local sections; any other gets the plain schedule — level-0 read
/// exchanges, the partitioned groups with pipelined events injected at
/// their loop level, then the write exchanges.
fn schedule_nest(
    synth: &mut Synth,
    np: &NestPlan,
    built: &[BuiltEvent],
) -> Result<NestItem, CompileError> {
    let level0_reads: Vec<usize> = built
        .iter()
        .filter(|b| b.level == 0 && !b.is_write)
        .map(|b| b.event)
        .collect();
    // Splitting needs a single statement group, no communication but
    // level-0 reads (the split schedule places nothing else), no
    // reduction, and freedom to reorder iterations (`split_sections`
    // checks the last).
    let try_split = synth.opts.loop_splitting
        && np.groups.len() == 1
        && !level0_reads.is_empty()
        && level0_reads.len() == built.len()
        && np.stmts.iter().all(|s| s.reduction.is_none());
    // Rung 0: a degradable failure anywhere in the Figure-4 analysis
    // abandons splitting for this nest (the exact events stay; only the
    // schedule overlap is lost) instead of failing the nest.
    let sections = match try_split.then(|| split_sections(synth, np)) {
        None => None,
        Some(Ok(sections)) => sections,
        Some(Err(e)) if degradable(&e) => {
            synth.degrade("split", None, &e, "unsplit schedule");
            None
        }
        Some(Err(e)) => return Err(e),
    };
    let mut out = NestCode::default();
    if let Some(sections) = &sections {
        // Figure 4(b) without non-local writes.
        let names: Vec<&str> = np.stmts[0].ctx.vars.iter().map(String::as_str).collect();
        let stmt_ops: Vec<StmtId> = np
            .stmts
            .iter()
            .map(|s| out.op(NestOp::Assign(compile_stmt(s))))
            .collect();
        let mut gen = |space: &Set| {
            let mappings: Vec<Mapping> = stmt_ops
                .iter()
                .map(|&stmt| Mapping {
                    stmt,
                    space: space.clone(),
                })
                .collect();
            // Splitting already established that iterations may be
            // reordered, so disjoint section pieces become independent
            // loop nests (no per-iteration membership guards).
            let opts = CodegenOptions {
                sequential_pieces: true,
            };
            synth.time("mult mappings code generation", |_| {
                codegen(&mappings, &names, &opts)
            })
        };
        let local_code = gen(&sections.local)?;
        let nl_code = gen(&sections.nl_ro.union(&sections.nl_wo).union(&sections.nl_rw))?;
        for &ev in &level0_reads {
            out.emit(NestOp::CommSend(ev));
        }
        out.chunks.push(local_code);
        for &ev in &level0_reads {
            out.emit(NestOp::CommRecv(ev));
        }
        out.chunks.push(nl_code);
        synth.stats.split_nests += 1;
    } else {
        for &ev in &level0_reads {
            out.exchange(ev);
        }
        for (gidx, g) in np.groups.iter().enumerate() {
            let names: Vec<&str> = np.stmts[g[0]].ctx.vars.iter().map(String::as_str).collect();
            let mappings: Vec<Mapping> = g
                .iter()
                .map(|&k| {
                    let mut space = np.mine[k].clone();
                    synth.time("loop bounds reduction", |_| space.simplify());
                    Mapping {
                        stmt: out.op(NestOp::Assign(compile_stmt(&np.stmts[k]))),
                        space,
                    }
                })
                .collect();
            let mut code = synth.time("mult mappings code generation", |_| {
                codegen(&mappings, &names, &CodegenOptions::default())
            })?;
            // Inject inner-level communication (pipelines) into this group.
            for b in built.iter().filter(|b| b.level > 0 && b.group == gidx) {
                let send = out.op(NestOp::CommSend(b.event));
                let recv = out.op(NestOp::CommRecv(b.event));
                code = inject_at_level(
                    code,
                    b.level,
                    vec![Code::Stmt(recv)],
                    vec![Code::Stmt(send)],
                );
            }
            out.chunks.push(code);
        }
        // Post-nest write events (send our non-local writes to owners).
        for b in built.iter().filter(|b| b.is_write) {
            out.exchange(b.event);
        }
    }
    let mut reductions: Vec<Reduction> = Vec::new();
    for r in np.stmts.iter().filter_map(|s| s.reduction.as_ref()) {
        if !reductions.contains(r) {
            reductions.push(r.clone());
        }
    }
    Ok(out.finish(reductions, sections.is_some()))
}

/// Builds a [`CommEvent`] from send/recv maps and registers it.
fn push_event(
    synth: &mut Synth,
    array: &str,
    send_map: &Relation,
    recv_map: &Relation,
    level: u32,
) -> Result<usize, CompileError> {
    synth.time("communication generation", |sy| {
        push_event_inner(sy, array, send_map, recv_map, level)
    })
}

fn push_event_inner(
    synth: &mut Synth,
    array: &str,
    send_map: &Relation,
    recv_map: &Relation,
    level: u32,
) -> Result<usize, CompileError> {
    let layout = &synth.layouts[array];
    let local = array_index_set(synth.analysis, array);
    // The received data set feeds only the §3.3 test, so its cost is
    // the test's cost. A runtime verdict counts as not contiguous: the
    // message is sent buffered.
    let contiguous = synth.time("check if msg is contiguous", |_| {
        let recv_data = recv_map.range()?;
        Ok::<_, CompileError>(matches!(
            contiguity(&recv_data, &local),
            Contiguity::Contiguous
        ))
    })?;
    if contiguous {
        synth.stats.contiguous_events += 1;
    }
    let id = synth.events.len();
    let send_code = synth.time("loops over comm partners", |_| comm_code(send_map))?;
    let recv_code = synth.time("loops over comm partners", |_| comm_code(recv_map))?;
    synth.events.push(CommEvent {
        id,
        array: array.to_string(),
        send_code,
        recv_code,
        proc_rank: layout.proc_rank(),
        data_rank: layout.rel.n_out(),
        contiguous,
        level,
    });
    synth.stats.comm_events += 1;
    Ok(id)
}

/// Compiles one statement for the executor.
fn compile_stmt(s: &StmtInfo) -> CompiledStmt {
    let StmtKind::Assign {
        name, subs, rhs, ..
    } = &s.stmt.kind
    else {
        unreachable!("nest statements are assignments");
    };
    CompiledStmt {
        lhs: name.clone(),
        subs: subs.clone(),
        rhs: rhs.clone(),
        guards: s.guards.clone(),
        cost: count_ops(rhs),
    }
}

fn count_ops(e: &Expr) -> u64 {
    match e {
        Expr::Bin(_, a, b) => 1 + count_ops(a) + count_ops(b),
        Expr::Un(_, a) => count_ops(a),
        Expr::Ref(_, args) => args.iter().map(count_ops).sum::<u64>() + 1,
        _ => 0,
    }
}

/// The full local index set of an array, as a [`Set`].
fn array_index_set(analysis: &Analysis, array: &str) -> Set {
    let info = &analysis.arrays[array];
    let rank = info.dims.len() as u32;
    let mut rel = Relation::universe(rank, 0);
    let mut c = dhpf_omega::Conjunct::new();
    for (d, (lo, hi)) in info.dims.iter().enumerate() {
        let v = dhpf_omega::LinExpr::var(Var::In(d as u32));
        let lo_e = crate::ir::affine_to_lin(lo, &[], &mut rel);
        let hi_e = crate::ir::affine_to_lin(hi, &[], &mut rel);
        c.add_geq(v.clone() - lo_e);
        c.add_geq(hi_e - v);
    }
    rel.conjuncts_mut().clear();
    rel.add_conjunct(c);
    Set::from_relation(rel)
}

/// Generates enumeration code for a comm map `[q1..qr] -> [d1..dk]`.
///
/// `map` must already be simplified: each of its conjuncts becomes its
/// own loop nest (a cover, [`dhpf_codegen::codegen_cover`]) with tight
/// bounds and no membership guards, so enumeration costs what the message
/// costs. Overlapping conjuncts visit a tuple more than once, and the
/// nests run one after another, not in `(q, d)` order; the executor sorts
/// and deduplicates each partner's tuples, so sender and receiver agree on
/// the payload whatever shape either map's code has.
fn comm_code(map: &Relation) -> Result<Code, CompileError> {
    let r = map.n_in();
    let k = map.n_out();
    let mut names: Vec<String> = (0..r).map(|d| format!("q{}", d + 1)).collect();
    names.extend((0..k).map(|d| format!("d{}", d + 1)));
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    Ok(dhpf_codegen::codegen_cover(
        &rel_to_set(map),
        StmtId(0),
        &name_refs,
    )?)
}

/// Flattens a relation into a set over `[in..., out...]`.
pub fn rel_to_set(rel: &Relation) -> Set {
    let n_in = rel.n_in();
    let n_out = rel.n_out();
    let mut out = Relation::universe(n_in + n_out, 0);
    for p in rel.params() {
        out.ensure_param(p);
    }
    let conjs: Vec<_> = rel
        .conjuncts()
        .iter()
        .map(|c| {
            c.rename(|v| match v {
                Var::Out(j) => Var::In(n_in + j),
                v => v,
            })
        })
        .collect();
    *out.conjuncts_mut() = conjs;
    Set::from_relation(out)
}

/// Inserts `pre`/`post` code around the body of the `level`-th nested loop
/// (1-based: `level = 1` is inside the outermost loop).
fn inject_at_level(code: Code, level: u32, pre: Vec<Code>, post: Vec<Code>) -> Code {
    fn go(code: Code, remaining: u32, pre: &[Code], post: &[Code]) -> Code {
        match code {
            Code::Loop {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                if remaining == 1 {
                    let mut seq = pre.to_vec();
                    seq.push(*body);
                    seq.extend(post.to_vec());
                    Code::Loop {
                        var,
                        lo,
                        hi,
                        step,
                        body: Box::new(Code::Seq(seq)),
                    }
                } else {
                    Code::Loop {
                        var,
                        lo,
                        hi,
                        step,
                        body: Box::new(go(*body, remaining - 1, pre, post)),
                    }
                }
            }
            Code::Seq(cs) => Code::Seq(
                cs.into_iter()
                    .map(|c| go(c, remaining, pre, post))
                    .collect(),
            ),
            Code::If { cond, body } => Code::If {
                cond,
                body: Box::new(go(*body, remaining, pre, post)),
            },
            other => other,
        }
    }
    go(code, level, &pre, &post)
}
