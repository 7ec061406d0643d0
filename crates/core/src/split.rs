//! Loop splitting (non-local index-set splitting), Figure 4.
//!
//! Splits the iterations of a partitioned loop nest into four sections:
//! those touching only local data (`local`), and those reading / writing /
//! both reading-and-writing non-local data (`nl_ro`, `nl_wo`, `nl_rw`),
//! enabling communication–computation overlap and check-free local buffer
//! access (paper §3.4).
//!
//! A reference's local iterations are the paper's
//! `RefMap⁻¹(localDataAccessed)`, which is one inverse image:
//! `CPIters ∩ RefMap_r⁻¹(Layout({m}))`. The identity rests on `RefMap_r`
//! being single-valued at its statement's full loop context — one
//! iteration touches one element — so an iteration whose element `m` owns
//! touches no element `m` does not own, and nothing is left to subtract.
//! Ownership need not be single-valued: on an array aligned with `*`,
//! `Layout({m})` holds every element of which `m` owns a copy, so "local"
//! means "`m` owns a copy", matching `NLDataAccessed` in `comm_sets`
//! (`DataAccessed({m}) − Layout({m})`).

use crate::cp::myid_set;
use crate::layout::Layout;
use dhpf_omega::{OmegaError, Relation, Set};

/// The four iteration sections of Figure 4(a), over the loop tuple, with
/// `m1..mr` (myid) as symbolic parameters.
#[derive(Clone, Debug)]
pub struct SplitSets {
    /// Iterations accessing only local data.
    pub local: Set,
    /// Iterations that only *read* non-local data.
    pub nl_ro: Set,
    /// Iterations that only *write* non-local data.
    pub nl_wo: Set,
    /// Iterations that both read and write non-local data.
    pub nl_rw: Set,
}

/// Computes the Figure 4(a) iteration sections for one statement group.
///
/// Each entry of `reads`/`writes` pairs a reference map (`loop -> data`,
/// at the statement's full loop context) with its array's layout;
/// `cp_iter_set` is `CPMap({m})`, the group's partitioned iteration set.
/// The iterations local to one reference are
/// `RefMap_r⁻¹(Layout({m}))`, intersected across the references into an
/// accumulator that starts at `cp_iter_set`.
///
/// # Errors
///
/// Returns the underlying [`OmegaError`] when an image or set difference
/// hits an exactness limit (inexact negation or coefficient overflow) or
/// is refused by the governor.
///
/// # Panics
///
/// Panics if set arities are inconsistent (a compiler-internal error).
pub fn split_sets(
    cp_iter_set: &Set,
    reads: &[(&Relation, &Layout)],
    writes: &[(&Relation, &Layout)],
) -> Result<SplitSets, OmegaError> {
    // localIters_r = RefMap_r⁻¹(Layout_r({m})); we intersect across
    // references first (the paper's reformulation to limit disjunctions).
    let local_iters = |refs: &[(&Relation, &Layout)]| -> Result<Set, OmegaError> {
        let mut acc = cp_iter_set.clone();
        for (ref_map, layout) in refs {
            let owned = layout.rel.apply(&myid_set(layout.proc_rank()))?;
            acc = acc.intersection(&ref_map.apply_inverse(&owned)?);
        }
        Ok(acc)
    };
    let local_read = local_iters(reads)?;
    let local_write = local_iters(writes)?;
    let nl_read = cp_iter_set.subtract(&local_read)?;
    let nl_write = cp_iter_set.subtract(&local_write)?;
    let nl_rw = nl_read.intersection(&nl_write);
    let nl_ro = nl_read.subtract(&nl_write)?;
    let nl_wo = nl_write.subtract(&nl_read)?;
    let mut local = local_read.intersection(&local_write);
    local.simplify();
    Ok(SplitSets {
        local,
        nl_ro,
        nl_wo,
        nl_rw,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommRef;
    use crate::cp::cp_map;
    use crate::ir::collect_statements;
    use crate::layout::build_layouts;
    use dhpf_hpf::{analyze, parse};

    const SHIFT: &str = "
program shift
real a(100), b(100)
!HPF$ processors p(4)
!HPF$ template t(100)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto p
do i = 1, 99
  a(i) = b(i+1)
enddo
end
";

    #[test]
    fn shift_splits_off_last_local_iteration() {
        let prog = parse(SHIFT).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let stmts = collect_statements(&a);
        let cp = cp_map(&stmts[0], &layouts).unwrap();
        let mine = cp.apply(&myid_set(1)).unwrap();
        let rref = CommRef {
            cp_map: cp.clone(),
            ref_map: stmts[0].reads[0].ref_map(&stmts[0].ctx),
        };
        let wref = CommRef {
            cp_map: cp.clone(),
            ref_map: stmts[0].lhs.as_ref().unwrap().ref_map(&stmts[0].ctx),
        };
        let s = split_sets(
            &mine,
            &[(&rref.ref_map, &layouts["b"])],
            &[(&wref.ref_map, &layouts["a"])],
        )
        .unwrap();
        // m=0 computes i in [1,25]; i=25 reads b[26] (non-local, read-only);
        // writes a(i) always local.
        let m0 = [("m1", 0i64)];
        for i in 1..=24i64 {
            assert!(s.local.contains(&[i], &m0), "i = {i} should be local");
        }
        assert!(!s.local.contains(&[25], &m0));
        assert!(s.nl_ro.contains(&[25], &m0));
        assert!(!s.nl_ro.contains(&[24], &m0));
        assert!(s.nl_wo.as_relation().is_empty());
        assert!(s.nl_rw.as_relation().is_empty());
        // Last processor m=3 computes i in [76,99], all local.
        let m3 = [("m1", 3i64)];
        assert!(s.local.contains(&[99], &m3));
        assert!(!s.nl_ro.contains(&[99], &m3));
    }

    #[test]
    fn sections_partition_the_iteration_set() {
        let prog = parse(SHIFT).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let stmts = collect_statements(&a);
        let cp = cp_map(&stmts[0], &layouts).unwrap();
        let mine = cp.apply(&myid_set(1)).unwrap();
        let rref = CommRef {
            cp_map: cp.clone(),
            ref_map: stmts[0].reads[0].ref_map(&stmts[0].ctx),
        };
        let s = split_sets(&mine, &[(&rref.ref_map, &layouts["b"])], &[]).unwrap();
        // local ∪ nl_ro ∪ nl_wo ∪ nl_rw == cpIterSet, pairwise disjoint.
        let u = s.local.union(&s.nl_ro).union(&s.nl_wo).union(&s.nl_rw);
        assert!(u.equal(&mine).unwrap());
        assert!(s.local.intersection(&s.nl_ro).as_relation().is_empty());
        assert!(s.local.intersection(&s.nl_rw).as_relation().is_empty());
        assert!(s.nl_ro.intersection(&s.nl_wo).as_relation().is_empty());
    }
}
