//! Array dependence testing with integer sets (Pugh-style), used to choose
//! legal communication placement levels (message vectorization).

use crate::ir::{ArrayRef, LoopContext};
use dhpf_omega::{LinExpr, OmegaError, Relation, Var};

/// The deepest loop level that carries a true dependence from `write` to
/// `read` within `ctx`, or `None` if no loop-carried dependence exists.
///
/// A dependence is carried at level `d` when some write instance `iw` and
/// read instance `ir` touch the same element with `iw` and `ir` equal in
/// dimensions `0..d` and `iw[d] < ir[d]`.
///
/// # Errors
///
/// Returns the [`OmegaError`] of a refused or overflowing composition.
pub fn carried_level(
    write: &ArrayRef,
    read: &ArrayRef,
    ctx: &LoopContext,
) -> Result<Option<u32>, OmegaError> {
    if write.array != read.array {
        return Ok(None);
    }
    let depth = ctx.depth();
    let w = write.ref_map(ctx);
    let r = read.ref_map(ctx);
    // Same-element relation: { [iw] -> [ir] : write(iw) = read(ir) }.
    let same = w.then(&r.inverse())?;
    // Restrict both sides to the iteration space.
    let iters = ctx.iteration_set();
    let same = same.restrict_domain(&iters).restrict_range(&iters);
    let mut deepest = None;
    for d in (0..depth).rev() {
        let order = lex_before_at(depth, d);
        if same.intersection(&order).is_satisfiable() {
            deepest = Some(d);
            break;
        }
    }
    Ok(deepest)
}

/// The relation `{ [iw] -> [ir] : iw[0..d] = ir[0..d] && iw[d] < ir[d] }`.
fn lex_before_at(depth: u32, d: u32) -> Relation {
    let mut rel = Relation::universe(depth, depth);
    let mut c = dhpf_omega::Conjunct::new();
    for k in 0..d {
        c.add_eq(LinExpr::var(Var::In(k)) - LinExpr::var(Var::Out(k)));
    }
    c.add_geq(LinExpr::var(Var::Out(d)) - LinExpr::var(Var::In(d)) - LinExpr::constant(1));
    rel.conjuncts_mut().clear();
    rel.add_conjunct(c);
    rel
}

/// Chooses the outermost legal communication placement level for `read`
/// given all `writes` to the same array in the nest: communication may be
/// hoisted out of every loop that carries no true dependence into the read.
///
/// Returns a level in `0..=depth`: `0` hoists out of the whole nest; level
/// `l` places communication just inside loop `l-1`.
///
/// # Errors
///
/// See [`carried_level`].
pub fn placement_level(
    read: &ArrayRef,
    writes: &[&ArrayRef],
    ctx: &LoopContext,
) -> Result<u32, OmegaError> {
    let mut level = 0;
    for w in writes {
        if w.array != read.array {
            continue;
        }
        if let Some(d) = carried_level(w, read, ctx)? {
            level = level.max(d + 1);
        } else {
            // A loop-independent dependence (same iteration) still forbids
            // hoisting if the write can produce what the read consumes;
            // check same-iteration overlap.
            let same_iter = same_iteration_overlap(w, read, ctx)?;
            if same_iter {
                level = level.max(ctx.depth());
            }
        }
    }
    Ok(level)
}

fn same_iteration_overlap(
    write: &ArrayRef,
    read: &ArrayRef,
    ctx: &LoopContext,
) -> Result<bool, OmegaError> {
    let w = write.ref_map(ctx);
    let r = read.ref_map(ctx);
    let same = w.then(&r.inverse())?;
    let iters = ctx.iteration_set();
    let same = same.restrict_domain(&iters).restrict_range(&iters);
    // identity on all dims
    let depth = ctx.depth();
    let mut rel = Relation::universe(depth, depth);
    let mut c = dhpf_omega::Conjunct::new();
    for k in 0..depth {
        c.add_eq(LinExpr::var(Var::In(k)) - LinExpr::var(Var::Out(k)));
    }
    rel.conjuncts_mut().clear();
    rel.add_conjunct(c);
    Ok(same.intersection(&rel).is_satisfiable())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::collect_statements;
    use dhpf_hpf::{analyze, parse};

    fn stmts_of(src: &str) -> Vec<crate::ir::StmtInfo> {
        let prog = parse(src).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        collect_statements(&a)
    }

    #[test]
    fn stencil_from_other_array_has_no_dependence() {
        let s = stmts_of(
            "
program t
real a(64,64), b(64,64)
do i = 2, 63
  do j = 2, 63
    a(i,j) = b(i-1,j) + b(i+1,j)
  enddo
enddo
end
",
        );
        let w = s[0].lhs.as_ref().unwrap();
        for r in &s[0].reads {
            assert_eq!(carried_level(w, r, &s[0].ctx).unwrap(), None);
            assert_eq!(placement_level(r, &[w], &s[0].ctx).unwrap(), 0);
        }
    }

    #[test]
    fn pipeline_dependence_carried_at_outer_level() {
        let s = stmts_of(
            "
program t
real a(64,64)
do i = 2, 64
  do j = 1, 64
    a(i,j) = a(i-1,j)
  enddo
enddo
end
",
        );
        let w = s[0].lhs.as_ref().unwrap();
        let r = &s[0].reads[0];
        assert_eq!(carried_level(w, r, &s[0].ctx).unwrap(), Some(0));
        // Communication must stay inside the i loop: level 1.
        assert_eq!(placement_level(r, &[w], &s[0].ctx).unwrap(), 1);
    }

    #[test]
    fn inner_loop_dependence() {
        let s = stmts_of(
            "
program t
real a(64,64)
do i = 1, 64
  do j = 2, 64
    a(i,j) = a(i,j-1)
  enddo
enddo
end
",
        );
        let w = s[0].lhs.as_ref().unwrap();
        let r = &s[0].reads[0];
        assert_eq!(carried_level(w, r, &s[0].ctx).unwrap(), Some(1));
        assert_eq!(placement_level(r, &[w], &s[0].ctx).unwrap(), 2);
    }

    #[test]
    fn same_iteration_read_write() {
        let s = stmts_of(
            "
program t
real a(64)
do i = 1, 64
  a(i) = a(i) + 1.0
enddo
end
",
        );
        let w = s[0].lhs.as_ref().unwrap();
        let r = &s[0].reads[0];
        assert_eq!(carried_level(w, r, &s[0].ctx).unwrap(), None);
        // Same-iteration overlap forbids hoisting entirely... but the data
        // is local under owner-computes, so no communication results anyway.
        assert_eq!(placement_level(r, &[w], &s[0].ctx).unwrap(), 1);
    }

    #[test]
    fn anti_direction_is_not_a_true_dependence_carrier_here() {
        // a(i) = a(i+1): the read at iteration i is of an element written at
        // iteration i+1 — the write happens *after*, so no w->r carried dep.
        let s = stmts_of(
            "
program t
real a(64)
do i = 1, 63
  a(i) = a(i+1)
enddo
end
",
        );
        let w = s[0].lhs.as_ref().unwrap();
        let r = &s[0].reads[0];
        assert_eq!(carried_level(w, r, &s[0].ctx).unwrap(), None);
    }
}
