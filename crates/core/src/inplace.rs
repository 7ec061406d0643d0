//! In-place communication recognition (paper §3.3).
//!
//! FORTRAN arrays are column-major, so a communication set `C` over an
//! `n`-dimensional array `A` is contiguous iff there is a `k` such that the
//! set spans the full array range in dimensions `1..k`, is convex in
//! dimension `k`, and is a singleton in dimensions `k+1..n`. Each test
//! reduces to a satisfiability question. The per-dimension tests read only
//! projections, so a set must also be the product of its projections: a
//! diagonal or a triangle passes them with holes between its elements.
//! Whatever cannot be proven at compile time gets a runtime verdict with
//! its reason. The simulator scans every message when it is sent
//! (`dhpf-sim`'s `comm_send`): its sorted offsets are contiguous exactly
//! when the last minus the first is the count minus one.
//!
//! Most projections `C<d>` are one conjunct with no existentials: for
//! fixed parameters, the values of `x = C<d>` are the integers satisfying a
//! few constraints `a·x + f ≥ 0` and `a·x + f = 0`. Three facts are read
//! off those constraints, with no set operation:
//!
//! - **Convex.** Each inequality bounds `x` on one side (or not at all),
//!   so the solutions are an integer interval: no hole is possible, which
//!   is what `IsConvex` would prove.
//! - **Singleton.** An equality with a nonzero coefficient on `x` admits
//!   at most one `x` for each parameter value — `IsSingleton`'s claim.
//! - **Does not span.** When `C<d>` is such a singleton and the array's
//!   extent in dimension `d` is constant with `lo < hi`, `A<d>` has at
//!   least two elements for every parameter value and `C<d>` at most one,
//!   so the two are never equal.
//!
//! Every other projection goes through the general tests
//! ([`Set::equal`], [`Set::is_convex_1d`], [`Set::is_singleton_1d`]).

use dhpf_omega::num::{ceil_div, floor_div};
use dhpf_omega::{Conjunct, LinExpr, OmegaError, Relation, Set, Var};

/// Verdict of the contiguity analysis.
#[derive(Clone, Debug, PartialEq)]
pub enum Contiguity {
    /// Proven contiguous for all parameter values: data can be sent and
    /// received in place.
    Contiguous,
    /// Proven non-contiguous for all parameter values.
    NotContiguous,
    /// Undetermined at compile time, for the stated reason. As in the
    /// paper, the message is scanned at run time: the simulator sends it
    /// in place when its offsets are consecutive, else buffered.
    Runtime(String),
}

/// Decides whether `comm` (a set over array index space) is a contiguous
/// column-major section of an array with local index set `local`.
///
/// Both sets must have the same arity. Per the paper's implementation note,
/// the compile-time test applies to single-conjunct communication sets;
/// multi-conjunct sets fall back to a runtime check.
///
/// # Panics
///
/// Panics if the arities differ.
pub fn contiguity(comm: &Set, local: &Set) -> Contiguity {
    assert_eq!(comm.arity(), local.arity(), "contiguity: arity mismatch");
    let n = comm.arity();
    if comm.is_empty() {
        return Contiguity::Contiguous;
    }
    if comm.as_relation().conjuncts().len() > 1 {
        return Contiguity::Runtime("multi-conjunct communication set".to_string());
    }
    // Single scan, leftmost dimension first: find the first dimension k
    // where C<k> != A<k>; then C<k> must be convex and all later dimensions
    // singletons. Each dimension is projected once.
    let mut first_short = None;
    let mut proj = Vec::with_capacity(n as usize);
    for d in 0..n {
        let spans_dim = comm
            .project_onto(&[d])
            .and_then(|cd| Ok((spans(&cd, local, d)?, cd)));
        match spans_dim {
            Ok((true, cd)) => proj.push(cd),
            Ok((false, cd)) => {
                first_short = Some((d, cd));
                break;
            }
            // Comparison hit an exactness limit or a governor refusal:
            // undecided at compile time, so defer to a runtime scan.
            Err(e) => {
                return Contiguity::Runtime(format!("dimension {d} span comparison inexact: {e}"))
            }
        }
    }
    let Some((k, ck)) = first_short else {
        // Spans the whole array in every dimension.
        return product_verdict(comm, &proj);
    };
    match is_convex(&ck) {
        Ok(true) => {}
        Ok(false) => {
            // A hole is *provable* (the hole formula is satisfiable); it may
            // still be parameter-dependent, so fall back to a runtime scan
            // when symbolic parameters are involved.
            if comm.as_relation().params().is_empty() {
                return Contiguity::NotContiguous;
            }
            return Contiguity::Runtime(format!("dimension {k} convexity depends on parameters"));
        }
        // The compile-time test hit an exactness limit (inexact negation):
        // the paper's §3.3 runtime scan decides instead of aborting.
        Err(e) => {
            return Contiguity::Runtime(format!(
                "dimension {k} convexity undecidable at compile time: {e}"
            ));
        }
    }
    proj.push(ck);
    for d in (k + 1)..n {
        match comm
            .project_onto(&[d])
            .and_then(|cd| Ok((is_singleton(&cd)?, cd)))
        {
            Ok((true, cd)) => proj.push(cd),
            Ok((false, _)) => {
                if comm.as_relation().params().is_empty() {
                    return Contiguity::NotContiguous;
                }
                return Contiguity::Runtime(format!(
                    "dimension {d} singleton test depends on parameters"
                ));
            }
            Err(e) => {
                return Contiguity::Runtime(format!(
                    "dimension {d} singleton test undecidable at compile time: {e}"
                ));
            }
        }
    }
    product_verdict(comm, &proj)
}

/// The verdict on a set whose projections `proj` (one per dimension)
/// passed the per-dimension tests. Those tests read projections only, so
/// they describe the product of the projections; `comm` is contiguous
/// when it is that product. A set whose dimensions are coupled — a
/// diagonal, or a triangle whose projections are intervals — has the same
/// projections with holes between its elements, and is left to the
/// run-time scan.
fn product_verdict(comm: &Set, proj: &[Set]) -> Contiguity {
    let n = comm.arity();
    let product = proj
        .iter()
        .zip(0..)
        .map(|(cd, d)| lift(cd, n, d))
        .fold(Set::universe(n), |acc, cd| acc.intersection(&cd));
    match product.subtract(comm) {
        Ok(rest) if rest.is_empty() => Contiguity::Contiguous,
        Ok(_) => Contiguity::Runtime("not the product of its projections".to_string()),
        Err(e) => Contiguity::Runtime(format!("product test inexact: {e}")),
    }
}

/// `{x : x_d ∈ C<d>}`: the 1-D projection `cd` as a set over all `n`
/// dimensions.
fn lift(cd: &Set, n: u32, d: u32) -> Set {
    let mut rel = Relation::universe(n, 0);
    // Parameter lists are kept sorted, so the indices carry over.
    for p in cd.as_relation().params() {
        rel.ensure_param(p);
    }
    *rel.conjuncts_mut() = cd
        .as_relation()
        .conjuncts()
        .iter()
        .map(|c| c.rename(|v| if v == Var::In(0) { Var::In(d) } else { v }))
        .collect();
    Set::from_relation(rel)
}

/// The projection's one conjunct, when it has no existentials: then the
/// facts in the module doc can be read off its constraints.
fn interval(cd: &Set) -> Option<&Conjunct> {
    match cd.as_relation().conjuncts() {
        [c] if c.n_exist() == 0 => Some(c),
        _ => None,
    }
}

/// An equality with a nonzero coefficient on the projected dimension.
fn pinned(c: &Conjunct) -> bool {
    c.eqs().iter().any(|e| e.coeff(Var::In(0)) != 0)
}

/// `C<d> = A<d>` for every parameter value.
fn spans(cd: &Set, local: &Set, d: u32) -> Result<bool, OmegaError> {
    if interval(cd).is_some_and(pinned) && constant_extent(local, d).is_some_and(|(lo, hi)| lo < hi)
    {
        return Ok(false);
    }
    cd.equal(&local.project_onto(&[d])?)
}

/// `IsConvex(C<d>)`.
fn is_convex(cd: &Set) -> Result<bool, OmegaError> {
    if interval(cd).is_some() {
        return Ok(true);
    }
    cd.is_convex_1d()
}

/// `IsSingleton(C<d>)`.
fn is_singleton(cd: &Set) -> Result<bool, OmegaError> {
    if interval(cd).is_some_and(pinned) {
        return Ok(true);
    }
    cd.is_singleton_1d()
}

/// The extent `lo..=hi` of dimension `d` of `local`, when `local` is a
/// non-empty constant box: one conjunct, no existentials, and every
/// constraint bounds a single dimension by a constant. Its projection onto
/// `d` is then exactly `lo..=hi` for every parameter value.
fn constant_extent(local: &Set, d: u32) -> Option<(i64, i64)> {
    let [c] = local.as_relation().conjuncts() else {
        return None;
    };
    if c.n_exist() != 0 {
        return None;
    }
    let n = local.arity() as usize;
    let mut lo = vec![i64::MIN; n];
    let mut hi = vec![i64::MAX; n];
    // `a·x - b` with `x` one dimension: `= 0` pins `x`, `>= 0` bounds it
    // on one side.
    let one_dim = |e: &LinExpr| match (e.n_terms(), e.terms().next()) {
        (1, Some((Var::In(v), a))) => Some((v as usize, a, e.constant_term().checked_neg()?)),
        _ => None,
    };
    for e in c.eqs() {
        let (v, a, b) = one_dim(e)?;
        if b.checked_rem(a)? != 0 {
            return None;
        }
        lo[v] = lo[v].max(b / a);
        hi[v] = hi[v].min(b / a);
    }
    for e in c.geqs() {
        let (v, a, b) = one_dim(e)?;
        if a > 0 {
            lo[v] = lo[v].max(ceil_div(b, a));
        } else {
            hi[v] = hi[v].min(floor_div(b, a));
        }
    }
    let non_empty = (0..n).all(|v| lo[v] > i64::MIN && hi[v] < i64::MAX && lo[v] <= hi[v]);
    non_empty.then(|| (lo[d as usize], hi[d as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(s: &str) -> Set {
        s.parse().unwrap()
    }

    #[test]
    fn full_column_is_contiguous() {
        // A is 10x10; C is all of column 4.
        let local = set("{[i,j] : 1 <= i <= 10 && 1 <= j <= 10}");
        let comm = set("{[i,j] : 1 <= i <= 10 && j = 4}");
        assert_eq!(contiguity(&comm, &local), Contiguity::Contiguous);
    }

    #[test]
    fn column_range_is_contiguous() {
        // Full columns 4..6: spans dim 1 fully, convex in dim 2.
        let local = set("{[i,j] : 1 <= i <= 10 && 1 <= j <= 10}");
        let comm = set("{[i,j] : 1 <= i <= 10 && 4 <= j <= 6}");
        assert_eq!(contiguity(&comm, &local), Contiguity::Contiguous);
    }

    #[test]
    fn partial_column_single_j_is_contiguous() {
        // Rows 3..7 of a single column: convex in dim 1, singleton dim 2.
        let local = set("{[i,j] : 1 <= i <= 10 && 1 <= j <= 10}");
        let comm = set("{[i,j] : 3 <= i <= 7 && j = 4}");
        assert_eq!(contiguity(&comm, &local), Contiguity::Contiguous);
    }

    #[test]
    fn row_slice_is_not_contiguous() {
        // One row across several columns: dim 1 is a singleton != A<1>,
        // then dim 2 spans 4..6 — not a singleton => not contiguous.
        let local = set("{[i,j] : 1 <= i <= 10 && 1 <= j <= 10}");
        let comm = set("{[i,j] : i = 2 && 4 <= j <= 6}");
        assert_eq!(contiguity(&comm, &local), Contiguity::NotContiguous);
    }

    #[test]
    fn partial_rows_over_multiple_columns_not_contiguous() {
        let local = set("{[i,j] : 1 <= i <= 10 && 1 <= j <= 10}");
        let comm = set("{[i,j] : 3 <= i <= 7 && 4 <= j <= 6}");
        assert_eq!(contiguity(&comm, &local), Contiguity::NotContiguous);
    }

    #[test]
    fn strided_dimension_not_contiguous() {
        let local = set("{[i] : 1 <= i <= 10}");
        let comm = set("{[i] : 1 <= i <= 9 && exists(a : i = 2a + 1)}");
        assert_eq!(contiguity(&comm, &local), Contiguity::NotContiguous);
    }

    #[test]
    fn whole_array_contiguous() {
        let local = set("{[i,j] : 1 <= i <= 10 && 1 <= j <= 10}");
        assert_eq!(contiguity(&local, &local), Contiguity::Contiguous);
    }

    #[test]
    fn empty_comm_contiguous() {
        let local = set("{[i] : 1 <= i <= 10}");
        let comm = Set::empty(1);
        assert_eq!(contiguity(&comm, &local), Contiguity::Contiguous);
    }

    #[test]
    fn symbolic_column_is_contiguous_for_all_params() {
        // Column j = c of an N x M array: provable for every N, M, c in range.
        let local = set("{[i,j] : 1 <= i <= N && 1 <= j <= M}");
        let comm = set("{[i,j] : 1 <= i <= N && j = c && 1 <= c <= M}");
        assert_eq!(contiguity(&comm, &local), Contiguity::Contiguous);
    }

    #[test]
    fn symbolic_undecided_goes_to_runtime() {
        // Rows 1..K of columns 4..6: contiguity depends on K = N.
        let local = set("{[i,j] : 1 <= i <= N && 1 <= j <= 10}");
        let comm = set("{[i,j] : 1 <= i <= K && 4 <= j <= 6 && 1 <= K <= N}");
        match contiguity(&comm, &local) {
            Contiguity::Runtime(_) => {}
            other => panic!("expected runtime check, got {other:?}"),
        }
    }

    /// Set operations (memo hits and misses) run on this thread while `f` runs.
    fn ops_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let ctx = dhpf_omega::Context::new();
        let _c = dhpf_omega::Request::new(&ctx, None, None).arm();
        let count = || {
            let s = ctx.stats();
            s.total_hits() + s.total_misses()
        };
        let before = count();
        let out = f();
        (out, count() - before)
    }

    #[test]
    fn pinned_dimension_under_parameters_is_a_singleton_by_its_equality() {
        // Column j = c of a 10 x 10 array, rows 1..N: dimension 1 is pinned
        // by `j = c` whatever N and c are.
        let local = set("{[i,j] : 1 <= i <= 10 && 1 <= j <= 10}");
        let comm = set("{[i,j] : 1 <= i <= N && j = c && 1 <= c <= 10}");
        let cj = comm.project_onto(&[1]).unwrap();
        assert!(interval(&cj).is_some_and(pinned));
        let (single, ops) = ops_during(|| is_singleton(&cj));
        assert_eq!((single.unwrap(), ops), (true, 0));
        assert!(cj.is_singleton_1d().unwrap());
        // Rows 1..N are an interval: convex without a set operation.
        let ci = comm.project_onto(&[0]).unwrap();
        let (convex, ops) = ops_during(|| is_convex(&ci));
        assert_eq!((convex.unwrap(), ops), (true, 0));
        assert!(ci.is_convex_1d().unwrap());
        assert_eq!(contiguity(&comm, &local), Contiguity::Contiguous);
    }

    #[test]
    fn singleton_refutes_a_span_over_a_constant_extent() {
        // Row 3 of a 10 x 10 array: dimension 0 holds one index, the array
        // ten, so it does not span — decided without the `equal`.
        let local = set("{[i,j] : 1 <= i <= 10 && 1 <= j <= 10}");
        let comm = set("{[i,j] : i = 3 && 1 <= j <= 10}");
        let ci = comm.project_onto(&[0]).unwrap();
        assert_eq!(constant_extent(&local, 0), Some((1, 10)));
        let (spanned, ops) = ops_during(|| spans(&ci, &local, 0));
        assert_eq!((spanned.unwrap(), ops), (false, 0));
        assert!(!ci.equal(&local.project_onto(&[0]).unwrap()).unwrap());
        assert_eq!(contiguity(&comm, &local), Contiguity::NotContiguous);
        // A one-element extent is spanned by a singleton: the fast path
        // must not refute it.
        let thin = set("{[i,j] : i = 1 && 1 <= j <= 10}");
        assert_eq!(constant_extent(&thin, 0), Some((1, 1)));
        assert!(spans(&ci, &thin, 0).is_ok_and(|s| !s));
        let c1 = set("{[i,j] : i = 1 && j = 4}").project_onto(&[0]).unwrap();
        assert!(spans(&c1, &thin, 0).unwrap());
        // A symbolic extent has no constant bounds.
        let sym = set("{[i,j] : 1 <= i <= N && 1 <= j <= 10}");
        assert_eq!(constant_extent(&sym, 0), None);
    }

    #[test]
    fn stride_set_takes_the_full_test() {
        // Odd indices: the projection keeps its existential, so neither
        // fact is read off the constraints and `is_convex_1d` finds the
        // holes.
        let comm = set("{[i] : 1 <= i <= 9 && exists(a : i = 2a + 1)}");
        let ci = comm.project_onto(&[0]).unwrap();
        assert!(interval(&ci).is_none());
        let (convex, ops) = ops_during(|| is_convex(&ci));
        assert!(!convex.unwrap());
        assert!(ops > 0, "the stride set must reach the general test");
        let (single, ops) = ops_during(|| is_singleton(&ci));
        assert!(!single.unwrap());
        assert!(ops > 0);
    }

    #[test]
    fn coupled_dimensions_go_to_runtime() {
        // A diagonal spans both dimensions and a triangle's projections
        // are intervals, so both pass the per-dimension tests; neither is
        // the product of its projections, and each has a hole in memory
        // order ((2,1) for the diagonal, (2,1) below the triangle).
        let local = set("{[i,j] : 1 <= i <= 2 && 1 <= j <= 2}");
        for comm in [
            "{[i,j] : 1 <= i <= 2 && j = i}",
            "{[i,j] : 1 <= i && i <= j && j <= 2}",
        ] {
            assert_eq!(
                contiguity(&set(comm), &local),
                Contiguity::Runtime("not the product of its projections".to_string())
            );
        }
        // One dimension's bounds may name parameters: still a product.
        let local = set("{[i,j] : 1 <= i <= N && 1 <= j <= 2}");
        let column = set("{[i,j] : 1 <= i <= N && j = c && 1 <= c <= 2}");
        assert_eq!(contiguity(&column, &local), Contiguity::Contiguous);
    }

    #[test]
    fn multi_conjunct_falls_back_to_runtime() {
        let local = set("{[i] : 1 <= i <= 10}");
        let comm = set("{[i] : 1 <= i <= 3 || 5 <= i <= 7}");
        assert!(matches!(contiguity(&comm, &local), Contiguity::Runtime(_)));
    }
}
