//! In-place communication recognition (paper §3.3).
//!
//! FORTRAN arrays are column-major, so a communication set `C` over an
//! `n`-dimensional array `A` is contiguous iff there is a `k` such that the
//! set spans the full array range in dimensions `1..k`, is convex in
//! dimension `k`, and is a singleton in dimensions `k+1..n`. Each test
//! reduces to a satisfiability question; whatever cannot be proven at
//! compile time gets a runtime verdict with its reason. The paper scans
//! such a message at runtime; here nothing does, so it is sent buffered.

use dhpf_omega::Set;

/// Verdict of the contiguity analysis.
#[derive(Clone, Debug, PartialEq)]
pub enum Contiguity {
    /// Proven contiguous for all parameter values: data can be sent and
    /// received in place.
    Contiguous,
    /// Proven non-contiguous for all parameter values.
    NotContiguous,
    /// Undetermined at compile time, for the stated reason. The paper
    /// scans such a message at runtime; here the compiler treats the event
    /// as not contiguous (a buffered send).
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
    // singletons.
    let mut k = n;
    for d in 0..n {
        let spans_dim = comm
            .project_onto(&[d])
            .and_then(|cd| cd.equal(&local.project_onto(&[d])?));
        match spans_dim {
            Ok(true) => {}
            Ok(false) => {
                k = d;
                break;
            }
            // Comparison hit an exactness limit or a governor refusal:
            // undecided at compile time, so defer to a runtime scan.
            Err(e) => {
                return Contiguity::Runtime(format!("dimension {d} span comparison inexact: {e}"))
            }
        }
    }
    if k == n {
        // Spans the whole array: contiguous.
        return Contiguity::Contiguous;
    }
    match comm.project_onto(&[k]).and_then(|ck| ck.is_convex_1d()) {
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
    for d in (k + 1)..n {
        match comm.project_onto(&[d]).and_then(|cd| cd.is_singleton_1d()) {
            Ok(true) => {}
            Ok(false) => {
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
    Contiguity::Contiguous
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

    #[test]
    fn multi_conjunct_falls_back_to_runtime() {
        let local = set("{[i] : 1 <= i <= 10}");
        let comm = set("{[i] : 1 <= i <= 3 || 5 <= i <= 7}");
        assert!(matches!(contiguity(&comm, &local), Contiguity::Runtime(_)));
    }
}
