//! End-to-end compilation driver with phase instrumentation (Table 1).
//!
//! One pipeline at every thread count, on one parallel primitive
//! (`parallel::ordered_map`): program units are analyzed in parallel,
//! interprocedural layout collection and nest planning run in unit order
//! on the calling thread (with the request's Omega [`Context`] armed), the
//! per-nest synthesis tasks of every unit run in parallel, and each unit
//! is then assembled from its nests in unit order on the calling thread.
//! [`CompileOptions::threads`] only sets how many workers run the maps:
//! with one, everything runs on the calling thread in task order (a
//! single-unit program executes layout → nests in source order →
//! assembly). Communication-event ids are local to a nest and renumbered
//! in source order during assembly (`spmd::assemble_spmd`), so the
//! compiled program does not depend on the schedule.

use crate::layout::{build_layouts, Layout};
use crate::parallel::{ordered_map, panic_message};
use crate::phases::PhaseTimers;
use crate::spmd::{
    assemble_spmd, build_nest, plan_items, CompileError, NestOut, SpmdOptions, SpmdProgram,
    SpmdStats, UnitPlan,
};
use dhpf_hpf::{analyze, parse, Analysis};
use dhpf_obs::{Collector, SpanId};
use dhpf_omega::{
    Budget, CacheStats, Context, ErrorCode, GovernorStats, InjectPlan, Request, RequestGovernor,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Options controlling compilation.
///
/// Construct with the fluent builder — the struct is `#[non_exhaustive]`,
/// so new knobs can be added without breaking callers:
///
/// ```
/// use dhpf_core::CompileOptions;
/// let opts = CompileOptions::new().threads(4).loop_splitting(false);
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct CompileOptions {
    /// SPMD synthesis options.
    pub spmd: SpmdOptions,
    /// Structured trace collector. When set, the compilation records a
    /// span tree (one `"compile"` root, one span per phase) with per-span
    /// Omega set-operation samples; export it with `dhpf_obs::export`.
    /// Tracing observes the compilation without perturbing it: the
    /// produced [`SpmdProgram`] is identical with or without a collector.
    pub trace: Option<Collector>,
    /// Worker threads for the pipeline's tasks — a pure scheduling
    /// parameter. `1` (the default) runs every task on the calling thread,
    /// in source order; larger values analyze units and synthesize loop
    /// nests concurrently on a scoped pool. The compiled program is
    /// bit-identical at every thread count.
    pub threads: usize,
    /// Resource budget for the compilation: wall-clock deadline and
    /// Omega-op fuel. When a deadline or fuel limit trips mid-compile, the
    /// driver *degrades* per nest (conservative communication, replicated
    /// nests — see
    /// [`SpmdStats::degradations`](crate::SpmdStats)) instead of hanging
    /// or crashing; only constructs with no sound fallback surface
    /// [`CompileError::Budget`]. The default is unlimited.
    pub budget: Budget,
    /// Deterministic fault-injection plan (test/chaos harnesses only):
    /// forces errors, panics, or budget exhaustion at named sites of this
    /// compilation alone.
    pub inject: Option<InjectPlan>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            spmd: SpmdOptions::default(),
            trace: None,
            threads: 1,
            budget: Budget::default(),
            inject: None,
        }
    }
}

impl CompileOptions {
    /// Default options: one thread, untraced, loop splitting on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Attaches a structured trace collector.
    pub fn trace(mut self, c: Collector) -> Self {
        self.trace = Some(c);
        self
    }

    /// Enables or disables Figure-4 loop splitting.
    pub fn loop_splitting(mut self, on: bool) -> Self {
        self.spmd.loop_splitting = on;
        self
    }

    /// Sets the full resource [`Budget`].
    pub fn budget(mut self, b: Budget) -> Self {
        self.budget = b;
        self
    }

    /// Sets a wall-clock deadline in milliseconds (shorthand for
    /// `budget(Budget::new().deadline_ms(ms))` composed with the current
    /// budget).
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.budget.deadline_ms = Some(ms);
        self
    }

    /// Caps the number of governed Omega operations.
    pub fn op_fuel(mut self, ops: u64) -> Self {
        self.budget.op_fuel = Some(ops);
        self
    }

    /// Arms a deterministic fault-injection plan.
    pub fn inject(mut self, plan: InjectPlan) -> Self {
        self.inject = Some(plan);
        self
    }
}

/// The result of compiling an HPF program.
#[derive(Debug)]
pub struct Compiled {
    /// The executable SPMD program for the main unit.
    pub program: SpmdProgram,
    /// The semantic analysis (needed by the serial reference interpreter).
    pub analysis: Analysis,
    /// Phase timing and synthesis statistics.
    pub report: CompileReport,
}

/// Compilation statistics: timing rows and synthesis counts.
#[derive(Debug)]
pub struct CompileReport {
    /// The rows of Table 1, read off this compile's span subtree.
    pub timers: PhaseTimers,
    /// Synthesis statistics.
    pub stats: SpmdStats,
    /// Number of program units compiled.
    pub units: usize,
    /// Omega-context cache counters: *cumulative* over the life of the
    /// context the request compiled on.
    pub cache: CacheStats,
    /// This compilation's governor counters: ops charged against the
    /// budget, ops answered conservatively after a trip, and the trip
    /// reason (if any). Zeros when the request armed no governor.
    pub governor: GovernorStats,
    /// How many times the armed fault-injection plan fired (0 without a
    /// plan). `degradations()` is non-empty exactly when injected or
    /// organic failures forced a fallback.
    pub injected_faults: u64,
}

impl CompileReport {
    /// The graceful degradations taken during synthesis, in serial nest
    /// order. Empty means every nest compiled exactly; entries describe
    /// which conservative construct replaced what, and why.
    pub fn degradations(&self) -> &[crate::spmd::Degradation] {
        &self.stats.degradations
    }
}

/// Artifacts a [`CompileRequest`] wants back beyond the report: each flag
/// adds an optional field to the [`CompileResponse`], and nothing is
/// rendered unless asked for (a serving tier shouldn't pay to pretty-print
/// code the client will discard).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct Artifacts {
    /// Render the compiled SPMD program as a code listing
    /// ([`CompileResponse::code`]).
    pub code: bool,
    /// Include per-phase timing rows ([`CompileResponse::timing`]).
    pub timing: bool,
    /// Capture a span tree for this request and return it as single-line
    /// JSON ([`CompileResponse::trace`]). When [`CompileOptions::trace`]
    /// already carries a collector it is reused (and will contain
    /// whatever else the caller recorded into it); otherwise a fresh
    /// per-request collector is attached for the duration of the
    /// compilation.
    pub trace: bool,
}

/// One compilation request: the unit of work of the `dhpf-serve` protocol
/// and the value [`compile`] is a thin wrapper over.
///
/// ```
/// use dhpf_core::{process_request, CompileRequest};
/// use dhpf_omega::Context;
///
/// let ctx = Context::new();
/// let req = CompileRequest::new("program p\nreal a(8)\na(1) = 0.0\nend\n").code(true);
/// let resp = process_request(&ctx, &req);
/// assert!(resp.error.is_none());
/// assert!(resp.code.is_some());
/// ```
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct CompileRequest {
    /// The HPF source text to compile.
    pub source: String,
    /// Compilation options (threads, budget, tracing, …).
    pub options: CompileOptions,
    /// Which optional artifacts to materialize in the response.
    pub artifacts: Artifacts,
}

impl CompileRequest {
    /// A request with default options and no optional artifacts.
    pub fn new(source: impl Into<String>) -> Self {
        CompileRequest {
            source: source.into(),
            options: CompileOptions::default(),
            artifacts: Artifacts::default(),
        }
    }

    /// Replaces the compilation options.
    #[must_use]
    pub fn options(mut self, opts: CompileOptions) -> Self {
        self.options = opts;
        self
    }

    /// Requests (or drops) the rendered code listing.
    #[must_use]
    pub fn code(mut self, on: bool) -> Self {
        self.artifacts.code = on;
        self
    }

    /// Requests (or drops) the per-phase timing rows.
    #[must_use]
    pub fn timing(mut self, on: bool) -> Self {
        self.artifacts.timing = on;
        self
    }

    /// Requests (or drops) the per-request span tree.
    #[must_use]
    pub fn trace(mut self, on: bool) -> Self {
        self.artifacts.trace = on;
        self
    }
}

/// A typed, wire-serializable error: the stable [`ErrorCode`] plus the
/// human-readable message. What [`CompileResponse`] carries instead of a
/// `CompileError`, and what `dhpf-serve` puts on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// The stable machine-readable code (assert on this, not `message`).
    pub code: ErrorCode,
    /// Human-readable detail for logs and interactive clients.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// The flattened, wire-shaped result of one [`CompileRequest`]: everything
/// a serving client needs, with no internal compiler types that cannot
/// round-trip a protocol boundary. Produced by [`process_request`].
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct CompileResponse {
    /// `None` on success; the typed failure otherwise. All count fields
    /// are zero on error.
    pub error: Option<WireError>,
    /// Program units compiled.
    pub units: usize,
    /// Communication events synthesized for the main unit.
    pub comm_events: usize,
    /// Graceful degradations taken, in serial nest order (empty = exact).
    pub degradations: Vec<crate::spmd::Degradation>,
    /// Memo-cache hits gained during this request alone — nonzero on a
    /// warm repeat. The serving context's cumulative counters are not
    /// part of a response: they describe the context, not the request
    /// (read them off [`Context::stats`]).
    pub cache_hits_delta: u64,
    /// Governor counters observed by this request (zeros when ungoverned
    /// or failed before synthesis).
    pub governor: GovernorStats,
    /// Wall-clock time spent compiling, in milliseconds.
    pub compile_ms: u64,
    /// Rendered SPMD code listing ([`Artifacts::code`]).
    pub code: Option<String>,
    /// Per-phase rows as `(name, milliseconds)` ([`Artifacts::timing`]).
    pub timing: Option<Vec<(String, f64)>>,
    /// Single-line span-tree JSON ([`Artifacts::trace`]): the full
    /// structured trace of this compilation, schema-checked by
    /// `dhpf_obs::export::validate_span_tree`. Present on error responses
    /// too — a trace of a failed compilation is exactly what a latency
    /// investigation wants.
    pub trace: Option<String>,
}

/// Compiles one [`CompileRequest`] on a caller-provided context, returning
/// the full [`Compiled`] value (program + analysis + report). This is the
/// one context-taking entry point: a long-lived sharded context (and its
/// warm memo tables) can serve many compilations — e.g. a compile server
/// handling concurrent requests — and [`CompileReport::cache`] reports the
/// context's *cumulative* totals. [`compile`] wraps it with a fresh
/// context; [`process_request`] flattens its result for the wire.
///
/// # Errors
///
/// Returns [`CompileError`] for frontend, semantic, or synthesis failures.
pub fn compile_request(ctx: &Context, req: &CompileRequest) -> Result<Compiled, CompileError> {
    compile_impl(ctx, &req.source, &req.options)
}

/// Runs one request end to end and flattens the outcome into a
/// [`CompileResponse`]: errors become [`WireError`]s (never `Err`), cache
/// deltas are measured around the compilation, and optional artifacts are
/// rendered only when requested.
pub fn process_request(ctx: &Context, req: &CompileRequest) -> CompileResponse {
    let before_hits = ctx.stats().total_hits();
    let t0 = Instant::now();
    // Trace capture: reuse the caller's collector when one is attached
    // (coalesced followers then share the leader's spans); otherwise
    // attach a fresh per-request collector for the duration of the call.
    let mut opts = req.options.clone();
    if req.artifacts.trace {
        opts.trace.get_or_insert_with(Collector::new);
    }
    let collector = opts.trace.clone().filter(|_| req.artifacts.trace);
    let result = compile_impl(ctx, &req.source, &opts);
    let compile_ms = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
    let cache_hits_delta = ctx.stats().total_hits().saturating_sub(before_hits);
    let trace = collector.map(|c| dhpf_obs::export::span_tree_json(&c.trace()));
    match result {
        Ok(c) => CompileResponse {
            error: None,
            units: c.report.units,
            comm_events: c.report.stats.comm_events,
            degradations: c.report.stats.degradations.clone(),
            cache_hits_delta,
            governor: c.report.governor,
            compile_ms,
            code: req
                .artifacts
                .code
                .then(|| crate::render::render_program(&c.program)),
            timing: req.artifacts.timing.then(|| {
                c.report
                    .timers
                    .rows()
                    .into_iter()
                    .map(|(name, d, _)| (name, d.as_secs_f64() * 1e3))
                    .collect()
            }),
            trace,
        },
        Err(e) => CompileResponse {
            error: Some(WireError {
                code: e.code(),
                message: e.to_string(),
            }),
            units: 0,
            comm_events: 0,
            degradations: Vec::new(),
            cache_hits_delta,
            governor: GovernorStats::default(),
            compile_ms,
            code: None,
            timing: None,
            trace,
        },
    }
}

/// Compiles HPF source text into an SPMD program.
///
/// Multi-unit files are supported: every unit is analyzed (the paper's
/// "interprocedural analysis" phase collects layouts across units), and the
/// main program unit is synthesized.
///
/// # Errors
///
/// Returns [`CompileError`] for frontend, semantic, or synthesis failures.
pub fn compile(src: &str, opts: &CompileOptions) -> Result<Compiled, CompileError> {
    // One hash-consing/memoization arena per compilation.
    compile_impl(&Context::new(), src, opts)
}

fn compile_impl(ctx: &Context, src: &str, opts: &CompileOptions) -> Result<Compiled, CompileError> {
    // The budget and the fault plan are enforced by a *request-scoped*
    // governor, not by the context: a long-lived serving context compiles
    // many concurrent requests, and none of them may trip or fault another.
    let governed = opts.budget != Budget::default() || opts.inject.is_some();
    let scoped = governed.then(|| RequestGovernor::new(&opts.budget, opts.inject.clone()));
    // Every set operation of the request runs in its context, charges its
    // governor and samples into its collector: all three are armed on this
    // thread here, and re-armed together on every task (`Tasks::run`).
    let request = Request::new(ctx, scoped.as_ref(), opts.trace.as_ref());
    let _armed = request.arm();
    // The isolation boundary: a panic anywhere in the pipeline (organic or
    // injected) becomes a typed `CompileError::Internal` instead of
    // unwinding into the caller. Nest and assembly tasks are additionally
    // caught one by one (`Tasks::run`), so one bad nest cannot take down
    // siblings; this outer catch covers the orchestration code itself.
    let mut compiled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        compile_inner(ctx, &request, src, opts)
    }))
    .unwrap_or_else(|payload| Err(CompileError::Internal(panic_message(payload))))?;
    if let Some(g) = &scoped {
        compiled.report.governor = g.stats();
        compiled.report.injected_faults = g.injected_faults();
    }
    Ok(compiled)
}

fn compile_inner(
    ctx: &Context,
    request: &Request,
    src: &str,
    opts: &CompileOptions,
) -> Result<Compiled, CompileError> {
    // Every phase is recorded once, as a span under one "compile" root in
    // the caller's collector or a private one; Table 1 is read off that
    // subtree, and set-op samples land on the innermost phase span.
    let obs = opts.trace.clone().unwrap_or_default();
    let root = obs.guard("compile", "compile");
    let prog = obs.span("parsing", "phase", || parse(src))?;
    if prog.units.is_empty() {
        return Err(CompileError::Unsupported("no program units".to_string()));
    }
    // "Interprocedural analysis": analyze every unit; directives of the
    // main unit drive synthesis (dHPF propagates layouts across calls).
    let analyses = obs.span("interprocedural analysis", "phase", || {
        ordered_map(opts.threads, prog.units.len(), |i| analyze(&prog.units[i]))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
    })?;
    let units = analyses.len();
    let main_idx = prog.units.iter().position(|u| u.is_program).unwrap_or(0);
    let (program, stats) = {
        let phase = obs.guard("module compilation", "phase");
        compile_units(request, &analyses, main_idx, opts, &obs, phase.id())
    }?;
    // Generated code is simplified during synthesis; this phase is kept as
    // a named row for Table 1 parity.
    obs.span("opt of generated code", "phase", || {});
    let cache = ctx.stats();
    let id = root.id();
    obs.counter_on(id, "units", units as i64);
    obs.counter_on(id, "comm events", stats.comm_events as i64);
    obs.counter_on(id, "degradations", stats.degradations.len() as i64);
    drop(root);
    let timers = PhaseTimers::from_trace(&obs.subtree(id));
    Ok(Compiled {
        program,
        analysis: analyses
            .into_iter()
            .nth(main_idx)
            .ok_or_else(|| CompileError::Unsupported("main unit analysis missing".to_string()))?,
        report: CompileReport {
            timers,
            stats,
            units,
            cache,
            governor: GovernorStats::default(),
            injected_faults: 0,
        },
    })
}

/// A unit whose body planned: what its nest and assembly tasks work from.
struct PlannedUnit<'a> {
    /// Index into the program's unit list.
    index: usize,
    analysis: &'a Analysis,
    layouts: BTreeMap<String, Layout>,
    plan: UnitPlan,
}

/// What every task of the "module compilation" phase runs under.
struct Tasks<'a> {
    /// The request, re-armed on whichever thread runs a task: workers
    /// memoize into the same arena, spend from the same fuel pool, observe
    /// the same deadline, advance the same fault plan and sample into the
    /// same trace.
    request: &'a Request,
    obs: &'a Collector,
    module: SpanId,
}

impl Tasks<'_> {
    /// Runs task `id` as a `"task"` span named `name` under the module
    /// phase, carrying its id. A panic in `body` is contained here and
    /// becomes the task's [`CompileError::Internal`].
    fn run<T>(
        &self,
        id: usize,
        name: &str,
        body: impl FnOnce() -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        let _armed = self.request.arm();
        let span = self.obs.guard_child_of(self.module, name, "task");
        self.obs.counter_on(span.id(), "task", id as i64);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
            .unwrap_or_else(|payload| Err(CompileError::Internal(panic_message(payload))))
    }
}

/// The "module compilation" phase. Every unit goes through layout
/// construction and planning, in unit order on the calling thread. The
/// nests of the units that plan (no unsupported construct) then run as
/// tasks `0..n` on `opts.threads` workers (`ordered_map`), and each
/// planned unit is assembled from its nests' results in unit order on the
/// calling thread, as task `n + i`. Every task is a `"task"` span under
/// `module` carrying its task id, so the outcome — program, statistics,
/// Table 1, which error wins (the first in nest order) — does not depend
/// on the schedule. Only the main unit's program is retained, matching
/// how the paper reports whole-module times.
fn compile_units(
    request: &Request,
    analyses: &[Analysis],
    main_idx: usize,
    opts: &CompileOptions,
    obs: &Collector,
    module: SpanId,
) -> Result<(SpmdProgram, SpmdStats), CompileError> {
    let mut planned: Vec<PlannedUnit> = Vec::new();
    for (index, analysis) in analyses.iter().enumerate() {
        let layouts = obs.span("layout construction", "phase", || build_layouts(analysis));
        match plan_items(analysis, &layouts) {
            Ok(plan) => planned.push(PlannedUnit {
                index,
                analysis,
                layouts,
                plan,
            }),
            Err(e) if index == main_idx => return Err(e),
            Err(_) => {} // non-main unit with unsupported constructs
        }
    }
    let nests: Vec<(&PlannedUnit, usize)> = planned
        .iter()
        .flat_map(|u| (0..u.plan.nests.len()).map(move |nest| (u, nest)))
        .collect();
    let tasks = Tasks {
        request,
        obs,
        module,
    };
    let mut outs = ordered_map(opts.threads, nests.len(), |task| {
        let (unit, nest) = nests[task];
        tasks.run(task, &format!("nest {}.{nest}", unit.index), || {
            build_nest(
                unit.analysis,
                &unit.layouts,
                &opts.spmd,
                &unit.plan.nests[nest],
                obs,
            )
        })
    })
    .into_iter();
    let mut main = None;
    for (i, unit) in planned.iter().enumerate() {
        let unit_outs: Vec<_> = outs.by_ref().take(unit.plan.nests.len()).collect();
        let name = format!("unit {} assembly", unit.index);
        let res = tasks.run(nests.len() + i, &name, || {
            // Collecting stops at the first error: the lowest nest index,
            // the one a source-order pass would hit first.
            let unit_outs = unit_outs.into_iter().collect::<Result<Vec<NestOut>, _>>()?;
            assemble_spmd(unit.analysis, &unit.layouts, &unit.plan.skel, unit_outs)
        });
        // Only the main unit must synthesize.
        if unit.index == main_idx {
            main = Some(res);
        }
    }
    main.unwrap_or_else(|| {
        Err(CompileError::Unsupported(
            "no compilable main unit in the program".to_string(),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const JACOBI: &str = "
program jacobi
real a(64,64), b(64,64)
integer iter
!HPF$ processors p(4)
!HPF$ template t(64,64)
!HPF$ align a(i,j) with t(i,j)
!HPF$ align b(i,j) with t(i,j)
!HPF$ distribute t(block,*) onto p
do iter = 1, 3
  do i = 2, 63
    do j = 2, 63
      a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))
    enddo
  enddo
  do i = 2, 63
    do j = 2, 63
      b(i,j) = a(i,j)
    enddo
  enddo
enddo
end
";

    #[test]
    fn compiles_jacobi() {
        let c = compile(JACOBI, &CompileOptions::default()).unwrap();
        // Time loop is serial; two nests inside.
        assert_eq!(c.program.items.len(), 1);
        match &c.program.items[0] {
            crate::spmd::SpmdItem::SerialLoop { var, body, .. } => {
                assert_eq!(var, "iter");
                assert_eq!(body.len(), 2);
            }
            other => panic!("expected serial time loop, got {other:?}"),
        }
        // One communication event: the stencil read of b (a's copy-back
        // nest reads a, which is perfectly aligned: no event).
        assert_eq!(c.report.stats.comm_events, 1);
        assert!(c.report.timers.total().as_nanos() > 0);
    }

    /// Guard lifting merges `if (m1 - 1 >= 0)` over the two array
    /// statements; were `m1` assigned between them, the merged guard would
    /// read a stale value. A nest that assigns a name its bounds or guards
    /// read is refused instead.
    #[test]
    fn nest_assigning_a_name_its_guard_reads_is_refused() {
        let src = |assign: &str| {
            format!(
                "
program p
integer m1
real a(16), b(16)
!HPF$ processors pr(number_of_processors())
!HPF$ template t(16)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto pr
do i = 1, 16
  a(i) = b(i)
  {assign}
  b(i) = 2.0
enddo
end
"
            )
        };
        let ok = compile(&src("a(i) = 1.0"), &CompileOptions::default()).unwrap();
        let guards = crate::render_program(&ok.program)
            .matches("if (m1 - 1 >= 0)")
            .count();
        assert_eq!(guards, 1, "the statements share one guard");
        for assign in ["m1 = 3", "i = 3"] {
            match compile(&src(assign), &CompileOptions::default()) {
                Err(CompileError::Unsupported(m)) => {
                    let name = &assign[..assign.find(' ').unwrap()];
                    assert!(m.contains(&format!("'{name}'")), "{assign}: {m}");
                }
                other => panic!("{assign}: want Unsupported, got {other:?}"),
            }
        }
    }

    /// A source scalar named like a variable the generated code binds on
    /// every rank would share that variable's slot: `m1 = 1` outside any
    /// nest moved every rank to grid position 1, and the simulator left
    /// `a(9..16)` unwritten at two ranks without an error. Each such name
    /// is refused at compile time.
    #[test]
    fn scalar_named_like_a_generated_variable_is_refused() {
        for name in ["m1", "np1", "bs1", "q1", "d1"] {
            let src = format!(
                "
program p
integer {name}
real a(16)
!HPF$ processors pr(number_of_processors())
!HPF$ template t(16)
!HPF$ align a(i) with t(i)
!HPF$ distribute t(block) onto pr
{name} = 1
do i = 1, 16
  a(i) = i * 1.0
enddo
end
"
            );
            match compile(&src, &CompileOptions::default()) {
                Err(CompileError::Unsupported(m)) => {
                    assert!(m.contains(&format!("'{name}'")), "{name}: {m}");
                }
                other => panic!("{name}: want Unsupported, got {other:?}"),
            }
        }
    }

    #[test]
    fn phase_rows_present() {
        let c = compile(JACOBI, &CompileOptions::default()).unwrap();
        let rows = c.report.timers.rows();
        let names: Vec<&str> = rows.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(names.contains(&"module compilation"));
        assert!(names.contains(&"communication generation"));
        assert!(names.contains(&"mult mappings code generation"));
    }

    #[test]
    fn parallel_compile_matches_serial() {
        let serial = compile(JACOBI, &CompileOptions::new()).unwrap();
        let parallel = compile(JACOBI, &CompileOptions::new().threads(4)).unwrap();
        assert_eq!(
            format!("{:?}", serial.program),
            format!("{:?}", parallel.program)
        );
        assert_eq!(serial.report.stats, parallel.report.stats);
        // Phase rows reconcile: same names, same structure.
        for (name, _, _) in serial.report.timers.rows() {
            assert!(
                parallel.report.timers.phase(&name) > std::time::Duration::ZERO
                    || name == "opt of generated code"
            );
        }
    }

    #[test]
    fn compile_request_reuses_one_context() {
        let ctx = Context::new();
        let req = CompileRequest::new(JACOBI);
        let a = compile_request(&ctx, &req).unwrap();
        let b = compile_request(&ctx, &req).unwrap();
        assert_eq!(format!("{:?}", a.program), format!("{:?}", b.program));
        // The second compilation hits the warm memo tables.
        assert!(b.report.cache.total_hits() > a.report.cache.total_hits());
    }
}
