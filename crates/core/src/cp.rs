//! Computation partitionings: the general ON_HOME model (paper §3.1).
//!
//! `CPMap = ∪_j (Layout_Aj ∘ RefMap_j⁻¹) ∩range loop` — an explicit integer
//! tuple mapping from processors to the statement instances they execute.

use crate::ir::{ArrayRef, LoopContext, StmtInfo};
use crate::layout::Layout;
use dhpf_omega::{LinExpr, OmegaError, Relation, Set, Var};
use std::collections::BTreeMap;

/// The singleton processor set `{ [p1..pr] : p_d = m_d }` for the
/// representative processor `myid`, whose coordinates are the symbolic
/// parameters `m1..mr`.
pub fn myid_set(proc_rank: u32) -> Set {
    let mut rel = Relation::universe(proc_rank, 0)
        .with_in_names((0..proc_rank).map(|d| format!("p{}", d + 1)));
    let mut c = dhpf_omega::Conjunct::new();
    for d in 0..proc_rank {
        let m = rel.ensure_param(&format!("m{}", d + 1));
        c.add_eq(LinExpr::var(Var::In(d)) - LinExpr::var(Var::Param(m)));
    }
    rel.conjuncts_mut().clear();
    rel.add_conjunct(c);
    Set::from_relation(rel)
}

/// Computes the statement's `CPMap: proc -> loop` at a given loop level:
/// loop variables outside `level..` are treated as symbolic (they become
/// parameters named after the loop variable), which is how communication
/// hoisted to an intermediate level sees the iteration space (Figure 3,
/// equation 1).
///
/// Returns the CPMap and the inner [`LoopContext`] it ranges over.
///
/// # Errors
///
/// Returns the [`OmegaError`] of a refused or overflowing composition.
pub fn cp_map_at_level(
    stmt: &StmtInfo,
    layouts: &BTreeMap<String, Layout>,
    level: u32,
) -> Result<(Relation, LoopContext), OmegaError> {
    let inner = slice_context(&stmt.ctx, level);
    let loop_set = inner.iteration_set();
    let proc_rank = proc_rank_of(stmt, layouts);
    let mut acc: Option<Relation> = None;
    for oh in effective_on_home(stmt, layouts) {
        let layout = &layouts[&oh.array];
        if layout.replicated {
            continue;
        }
        let refmap = ref_map_in(&oh, &inner);
        // Layout: proc -> data; RefMap⁻¹: data -> loop.
        let term = layout.rel.then(&refmap.inverse())?;
        acc = Some(match acc {
            None => term,
            Some(a) => a.union(&term),
        });
    }
    let cp = match acc {
        Some(a) => a.restrict_range(&loop_set),
        None => {
            // Fully replicated statement: every processor runs it.
            Relation::universe(proc_rank, inner.depth()).restrict_range(&loop_set)
        }
    };
    Ok((cp, inner))
}

/// The statement's `CPMap: proc -> loop` over its full loop nest.
///
/// # Errors
///
/// See [`cp_map_at_level`].
pub fn cp_map(stmt: &StmtInfo, layouts: &BTreeMap<String, Layout>) -> Result<Relation, OmegaError> {
    Ok(cp_map_at_level(stmt, layouts, 0)?.0)
}

/// ON_HOME terms actually used for partitioning: the declared terms, or the
/// LHS by default; scalar reductions partition on their first distributed
/// read so each processor reduces its local section.
pub fn effective_on_home(stmt: &StmtInfo, layouts: &BTreeMap<String, Layout>) -> Vec<ArrayRef> {
    let declared: Vec<ArrayRef> = stmt
        .on_home
        .iter()
        .filter(|r| layouts.contains_key(&r.array))
        .cloned()
        .collect();
    let usable: Vec<ArrayRef> = declared
        .into_iter()
        .filter(|r| !layouts[&r.array].replicated)
        .collect();
    if !usable.is_empty() {
        return usable;
    }
    if stmt.reduction.is_some() {
        if let Some(r) = stmt
            .reads
            .iter()
            .find(|r| layouts.get(&r.array).is_some_and(|l| !l.replicated))
        {
            return vec![r.clone()];
        }
    }
    Vec::new()
}

/// Processor-space rank relevant to this statement.
pub fn proc_rank_of(stmt: &StmtInfo, layouts: &BTreeMap<String, Layout>) -> u32 {
    for r in stmt
        .on_home
        .iter()
        .chain(stmt.lhs.iter())
        .chain(stmt.reads.iter())
    {
        if let Some(l) = layouts.get(&r.array) {
            if !l.replicated {
                return l.proc_rank();
            }
        }
    }
    layouts.values().map(Layout::proc_rank).max().unwrap_or(1)
}

/// Restricts a loop context to the loops at `level..`, turning outer loop
/// variables into free symbols.
pub fn slice_context(ctx: &LoopContext, level: u32) -> LoopContext {
    LoopContext {
        vars: ctx.vars[level as usize..].to_vec(),
        bounds: ctx.bounds[level as usize..].to_vec(),
    }
}

/// `RefMap` for a reference within an explicit (possibly sliced) context.
pub fn ref_map_in(r: &ArrayRef, ctx: &LoopContext) -> Relation {
    r.ref_map(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::collect_statements;
    use crate::layout::build_layouts;
    use dhpf_hpf::{analyze, parse};

    const FIG2: &str = "
program fig2
real a(0:99,100), b(100,100)
integer n
!HPF$ processors p(4)
!HPF$ template t(100,100)
!HPF$ align a(i,j) with t(i+1,j)
!HPF$ align b(i,j) with t(*,i)
!HPF$ distribute t(*,block) onto p
read *, n
do i = 1, n
  do j = 2, n+1
!HPF$ on_home b(j-1,i)
    a(i,j) = b(j-1,i)
  enddo
enddo
end
";

    #[test]
    fn figure2_cpmap() {
        // Paper: CPMap = {[p] -> [l1,l2] : 1 <= l1 <= min(N,100) &&
        //                 max(2, 25p+2) <= l2 <= min(N+1, 101, 25p+26)}
        // (0-based p). ON_HOME B(j-1,i): owner of b(j-1,i) has 25p+1 <= j-1
        // <= 25p+25.
        let prog = parse(FIG2).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let stmts = collect_statements(&a);
        let cp = cp_map(&stmts[0], &layouts).unwrap();
        let n = [("n", 60i64)];
        // p=0 executes j in [2, 26]
        assert!(cp.contains_pair(&[0], &[1, 2], &n));
        assert!(cp.contains_pair(&[0], &[1, 26], &n));
        assert!(!cp.contains_pair(&[0], &[1, 27], &n));
        // p=1 executes j in [27, 51]
        assert!(cp.contains_pair(&[1], &[5, 27], &n));
        assert!(cp.contains_pair(&[1], &[60, 51], &n));
        assert!(!cp.contains_pair(&[1], &[5, 52], &n));
        // l2 bounded by n+1 = 61
        assert!(cp.contains_pair(&[2], &[3, 52], &n));
        assert!(cp.contains_pair(&[2], &[3, 61], &n));
        assert!(!cp.contains_pair(&[2], &[3, 62], &n));
        // l1 bounded by n
        assert!(!cp.contains_pair(&[1], &[61, 30], &n));
    }

    #[test]
    fn my_iterations_from_cpmap() {
        let prog = parse(FIG2).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let stmts = collect_statements(&a);
        let cp = cp_map(&stmts[0], &layouts).unwrap();
        let mine = cp.apply(&myid_set(1)).unwrap();
        // With m1 = 1, n = 60: iterations i in [1,60], j in [27,51].
        let params = [("m1", 1i64), ("n", 60)];
        assert!(mine.contains(&[1, 27], &params));
        assert!(mine.contains(&[60, 51], &params));
        assert!(!mine.contains(&[1, 26], &params));
        assert!(!mine.contains(&[1, 52], &params));
    }

    #[test]
    fn cp_map_at_inner_level_parameterizes_outer() {
        let prog = parse(FIG2).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let stmts = collect_statements(&a);
        let (cp, inner) = cp_map_at_level(&stmts[0], &layouts, 1).unwrap();
        assert_eq!(inner.vars, vec!["j".to_string()]);
        // Outer loop i becomes a parameter; it does not affect ownership here.
        let params = [("n", 60i64), ("i", 3)];
        assert!(cp.contains_pair(&[0], &[2], &params));
        assert!(!cp.contains_pair(&[0], &[27], &params));
    }
}
