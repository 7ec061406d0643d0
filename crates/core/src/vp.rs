//! Active virtual-processor sets (paper §4.1, Figure 5).
//!
//! For symbolic distribution parameters the layout maps *virtual*
//! processors to data. Not every VP owned by a physical processor is active
//! in a given computation or communication; these equations compute the
//! active sets, from which code generation restricts VP loops and
//! eliminates runtime checks.

use crate::comm::CommRef;
use crate::layout::Layout;
use dhpf_omega::{Relation, Set};

/// The active-VP sets of Figure 5(a) for one logical communication event.
#[derive(Clone, Debug)]
pub struct ActiveVpSets {
    /// VPs that execute any iteration (`busyVPSet = Domain(CPMap)`).
    pub busy: Set,
    /// VPs that must send data.
    pub active_send: Set,
    /// VPs that must receive data.
    pub active_recv: Set,
}

/// Computes `busyVPSet`, `activeSendVPSet`, and `activeRecvVPSet`.
///
/// `reads` and `writes` are the event's references (as in
/// [`comm_sets`](crate::comm::comm_sets)); `layout` the referenced array's.
///
/// # Errors
///
/// Returns [`dhpf_omega::OmegaError`] when a composition, projection or the
/// non-local-data subtraction hits an exactness limit (inexact negation of
/// an existential system) or is refused by the governor.
pub fn active_vp_sets(
    reads: &[CommRef],
    writes: &[CommRef],
    layout: &Layout,
) -> Result<ActiveVpSets, dhpf_omega::OmegaError> {
    let proc_rank = layout.proc_rank();
    // busyVPSet = ∪ Domain(CPMap_r).
    let mut busy = Set::empty(proc_rank);
    for r in reads.iter().chain(writes) {
        busy = busy.union(&r.cp_map.domain()?);
    }
    busy.simplify();

    // NLDataAccessed_t = DataAccessed_t - Layout (as a map proc -> data).
    let nl_map = |refs: &[CommRef]| -> Result<Relation, dhpf_omega::OmegaError> {
        let mut acc = Relation::empty(proc_rank, layout.rel.n_out());
        for r in refs {
            acc = acc.union(&r.cp_map.then(&r.ref_map)?);
        }
        acc.subtract(&layout.rel)
    };
    let nl_read = nl_map(reads)?;
    let nl_write = nl_map(writes)?;

    let vps_involved = |nl: &Relation| -> Result<(Set, Set), dhpf_omega::OmegaError> {
        // allNLDataSet = NLDataAccessed(busyVPSet)
        let all_nl = nl.apply(&busy)?;
        // vpsThatOwnNLData = Layout⁻¹(allNLDataSet)
        let own = layout.rel.apply_inverse(&all_nl)?;
        // vpsThatAccessNLData = Domain(NLDataAccessed)
        let access = nl.domain()?;
        Ok((own, access))
    };
    let (own_r, access_r) = vps_involved(&nl_read)?;
    let (own_w, access_w) = vps_involved(&nl_write)?;
    let mut active_send = own_r.union(&access_w);
    let mut active_recv = access_r.union(&own_w);
    active_send.simplify();
    active_recv.simplify();
    Ok(ActiveVpSets {
        busy,
        active_send,
        active_recv,
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

    /// The paper's Figure 5(b) Gaussian-elimination loop:
    /// A(i,j) = ... + A(PIVOT, j) on a (cyclic, cyclic) layout with a
    /// symbolic processor count (so VPs are the template cells).
    const GAUSS: &str = "
program gauss
real a(100,100)
integer pivot
!HPF$ processors pa(number_of_processors(), number_of_processors())
!HPF$ template t(100,100)
!HPF$ align a(i,j) with t(i,j)
!HPF$ distribute t(cyclic,cyclic) onto pa
read *, pivot
do i = 1, 100
  do j = 1, 100
    if (i > pivot .and. j > pivot) then
      a(i,j) = a(i,j) + a(pivot,j)
    endif
  enddo
enddo
end
";

    /// Builds the Figure 5 inputs manually with the guard folded into the
    /// loop bounds (our IF statements don't constrain iteration sets).
    fn gauss_sets() -> ActiveVpSets {
        let src = GAUSS.replace("do i = 1, 100", "do i = pivot + 1, 100");
        let src = src.replace("do j = 1, 100", "do j = pivot + 1, 100");
        let src = src.replace("if (i > pivot .and. j > pivot) then", "if (i > 0) then");
        let prog = parse(&src).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let stmts = collect_statements(&a);
        let stmt = &stmts[0];
        let cp = cp_map(stmt, &layouts).unwrap();
        // The potentially non-local read is A(pivot, j).
        let pivot_read = stmt
            .reads
            .iter()
            .find(|r| r.subs[0].terms.iter().any(|(n, _)| n == "pivot"))
            .expect("pivot read");
        let rref = CommRef {
            cp_map: cp.clone(),
            ref_map: pivot_read.ref_map(&stmt.ctx),
        };
        active_vp_sets(&[rref], &[], &layouts["a"]).unwrap()
    }

    #[test]
    fn gauss_busy_vps_are_lower_right_block() {
        let s = gauss_sets();
        let p = [("pivot", 40i64)];
        // busyVPSet = {[v1,v2] : PIVOT < v1, v2 <= 100}
        assert!(s.busy.contains(&[41, 41], &p));
        assert!(s.busy.contains(&[100, 100], &p));
        assert!(!s.busy.contains(&[40, 41], &p));
        assert!(!s.busy.contains(&[41, 40], &p));
    }

    #[test]
    fn gauss_senders_are_pivot_row() {
        let s = gauss_sets();
        let p = [("pivot", 40i64)];
        // activeSendVPSet = {[v1,v2] : v1 = PIVOT && PIVOT < v2 <= 100}
        assert!(s.active_send.contains(&[40, 41], &p));
        assert!(s.active_send.contains(&[40, 100], &p));
        assert!(!s.active_send.contains(&[41, 41], &p));
        assert!(!s.active_send.contains(&[40, 40], &p));
    }

    #[test]
    fn gauss_receivers_are_all_busy_vps() {
        let s = gauss_sets();
        let p = [("pivot", 40i64)];
        assert!(s.active_recv.contains(&[41, 41], &p));
        assert!(s.active_recv.contains(&[100, 42], &p));
        assert!(!s.active_recv.contains(&[40, 41], &p));
        // activeRecvVPSet = busyVPSet for this example.
        assert!(s.active_recv.equal(&s.busy).unwrap());
    }
}
