//! Communication analysis: the Figure 3 equations.
//!
//! For each logical communication event (a coalesced set of references to
//! one array, vectorized to some loop level) this module computes, for the
//! representative processor `m = myid` (symbolic parameters `m1..mr`):
//!
//! - `DataAccessed_t` — all data accessed by each processor,
//! - `nlDataSet_t(m)` — the off-processor data `m` references,
//! - `NLCommMap_read(m)` / `LocalCommMap_write(m)`,
//! - `RecvCommMap(m)` and `SendCommMap(m)`.
//!
//! Figure 3 states the two maps as separate equations, but they are one
//! relation read from its two ends: what `m` sends to `p` is what `p`
//! receives from `m`. So only `RecvCommMap` is built and simplified, and
//! `SendCommMap(m) = RecvCommMap(p)[p := m]` — the partner input and the
//! `myid` parameter exchanged by a rename, with no set operation. The
//! send/recv pairing the simulator checks then holds by construction, for
//! any layout: the two-sided `LocalCommMap_read ∪ NLCommMap_write` agrees
//! with the rename only where each element has one owner, and on a
//! replicated (`*`-aligned) layout it also sends data the partner owns.
//!
//! For reads, `DataAccessed` is only ever applied to `{m}`, and
//! `(CPMap ∘ RefMap)({m}) = RefMap(CPMap({m}))`: the data `m` reads is the
//! image of its own iterations. So a read's `nlDataSet(m)` is two images
//! and one subtraction, and the proc → data composition is never built.
//! Writes still compose it: `LocalCommMap_write` asks which *other*
//! processor `p` writes data `m` owns, so it needs the writer free.

use crate::cp::myid_set;
use crate::layout::Layout;
use dhpf_omega::{Conjunct, LinExpr, OmegaError, Relation, Set, Var};

/// One reference participating in a communication event: its `CPMap`
/// (proc → loop) and `RefMap` (loop → data), both at the event's level.
#[derive(Clone, Debug)]
pub struct CommRef {
    /// Computation partitioning of the referencing statement.
    pub cp_map: Relation,
    /// The reference mapping.
    pub ref_map: Relation,
}

/// The communication sets of one logical event (Figure 3 outputs).
#[derive(Clone, Debug)]
pub struct CommSets {
    /// Data that `m` accesses but does not own (`nlDataSet_read(m)`).
    pub nl_read_data: Set,
    /// Data that `m` writes but does not own.
    pub nl_write_data: Set,
    /// `SendCommMap(m)`: partner `p` → data `m` must send to `p`.
    pub send_map: Relation,
    /// `RecvCommMap(m)`: partner `p` → data `m` must receive from `p`.
    pub recv_map: Relation,
}

impl CommSets {
    /// True if no data moves at all.
    pub fn is_empty(&self) -> bool {
        self.send_map.is_empty() && self.recv_map.is_empty()
    }
}

/// Computes the Figure 3 communication sets for one coalesced event.
///
/// `reads`/`writes` are the potentially non-local references (their unions
/// implement message coalescing); `layout` is the referenced array's layout.
///
/// A read's non-local data is `(∪_r RefMap_r(CPMap_r({m}))) − Layout({m})`,
/// the image of `m`'s own iterations less what `m` owns: equal to
/// `DataAccessed_read({m}) − Layout({m})`, without composing
/// `CPMap ∘ RefMap`. Only the writes compose it, because
/// `LocalCommMap_write` ranges over every writer `p`.
///
/// The equations build `recv_map = NLCommMap_read ∪ LocalCommMap_write`;
/// `send_map` is `recv_map` with each partner coordinate `p_d` and `m_d`
/// exchanged, so `send_map` at `m = a`, partner `b` is exactly `recv_map`
/// at `m = b`, partner `a`. No argument about ownership is needed for that
/// pairing: where an element has several owners (a `*` alignment, or the
/// overlapping virtual processors of a symbolic BLOCK layout) each receiver
/// names the partners it reads from, and exactly those partners send.
/// Loop variables left symbolic above the event's level are the
/// receiver's iteration on both sides.
///
/// # Errors
///
/// Returns the underlying [`OmegaError`] when a composition or set
/// difference hits an exactness limit (inexact negation or coefficient
/// overflow) or is refused by the governor; callers surface it as a
/// compile diagnostic or degrade the event.
///
/// # Panics
///
/// Panics if the references' processor/data arities disagree with the
/// layout's.
pub fn comm_sets(
    reads: &[CommRef],
    writes: &[CommRef],
    layout: &Layout,
) -> Result<CommSets, OmegaError> {
    dhpf_omega::inject_check("comm_sets")?;
    let proc_rank = layout.proc_rank();
    let me = myid_set(proc_rank);
    let owned_by_m = layout.rel.apply(&me)?;
    let others = Set::universe(proc_rank).subtract(&me)?;

    // Steps 2-3 for reads (per §5):
    // nlDataSet_read(m) = (∪_r RefMap_r(CPMap_r({m}))) - Layout({m}).
    let mut read_data: Option<Set> = None;
    for r in reads {
        let term = r.ref_map.apply(&r.cp_map.apply(&me)?)?;
        read_data = Some(match read_data {
            None => term,
            Some(a) => a.union(&term),
        });
    }
    let nl_read_data = match read_data {
        Some(d) => d.subtract(&owned_by_m)?,
        None => Set::empty(layout.rel.n_out()),
    };
    // Steps 2-3 for writes: DataAccessed_write = ∪_w CPMap_w ∘ RefMap_w
    // (proc -> data), whole for LocalCommMap_write below.
    let mut data_write: Option<Relation> = None;
    for w in writes {
        let term = w.cp_map.then(&w.ref_map)?;
        data_write = Some(match data_write {
            None => term,
            Some(a) => a.union(&term),
        });
    }
    let nl_write_data = match &data_write {
        Some(rel) => rel.apply(&me)?.subtract(&owned_by_m)?,
        None => Set::empty(layout.rel.n_out()),
    };

    // Steps 4-5. NLCommMap_t(m) = Layout ∩range nlDataSet_t(m):
    // the owner q of each non-local element m reads.
    let nl_read = layout
        .rel
        .restrict_range(&nl_read_data)
        .restrict_domain(&others);
    // LocalCommMap_t(m) = DataAccessed_t ∩range Layout({m}): the data owned
    // by m that each other processor p writes.
    let local_write = match &data_write {
        Some(rel) => rel.restrict_range(&owned_by_m).restrict_domain(&others),
        None => Relation::empty(proc_rank, layout.rel.n_out()),
    };

    // Step 7, then step 6 as its rename: SendCommMap(m) = RecvCommMap(p)[p := m].
    let mut recv_map = nl_read.union(&local_write);
    recv_map.simplify();
    let send_map = swap_partner_and_myid(&recv_map);
    Ok(CommSets {
        nl_read_data,
        nl_write_data,
        send_map,
        recv_map,
    })
}

/// `rel` with each partner input `In(d)` exchanged for the parameter
/// `m{d+1}` — the way [`Relation::inverse`] exchanges inputs and outputs.
/// A rename, not a set operation: the result denotes the same tuples seen
/// from the other end of each pair, and a cheap cleanup is all it needs.
pub(crate) fn swap_partner_and_myid(rel: &Relation) -> Relation {
    let mut out = rel.clone();
    let names: Vec<String> = (0..rel.n_in()).map(|d| format!("m{}", d + 1)).collect();
    for name in &names {
        out.ensure_param(name);
    }
    // Indices are read after every insertion: registering a parameter
    // shifts the ones sorted after it.
    let m: Vec<u32> = names.iter().map(|n| out.ensure_param(n)).collect();
    let swap = |v: Var| match v {
        Var::In(d) => Var::Param(m[d as usize]),
        Var::Param(i) => m
            .iter()
            .position(|&x| x == i)
            .map_or(v, |d| Var::In(d as u32)),
        v => v,
    };
    for c in out.conjuncts_mut() {
        *c = c.rename(swap);
    }
    out.simplify_cheap();
    out
}

/// The complement of [`myid_set`] within the layout's processor domain,
/// built syntactically — no set subtraction, so it stays constructible
/// after the compile budget has tripped. The pieces (coordinates agree
/// below dimension `d`, differ at `d`) are pairwise disjoint, which keeps
/// the disjoint-form pass in code generation from having to subtract them.
fn others_set(proc_rank: u32, layout: &Layout) -> Result<Set, OmegaError> {
    let mut rel =
        Relation::empty(proc_rank, 0).with_in_names((0..proc_rank).map(|d| format!("p{}", d + 1)));
    let params: Vec<u32> = (0..proc_rank)
        .map(|d| rel.ensure_param(&format!("m{}", d + 1)))
        .collect();
    for d in 0..proc_rank as usize {
        for side in [-1i64, 1] {
            let mut c = Conjunct::new();
            for (e, &m) in params.iter().enumerate().take(d) {
                c.add_eq(LinExpr::var(Var::In(e as u32)) - LinExpr::var(Var::Param(m)));
            }
            // side = -1: p_d <= m_d - 1;  side = +1: p_d >= m_d + 1.
            let p = LinExpr::var(Var::In(d as u32));
            let m = LinExpr::var(Var::Param(params[d]));
            let mut g = if side < 0 { m - p } else { p - m };
            g.add_constant(-1);
            c.add_geq(g);
            rel.add_conjunct(c);
        }
    }
    Ok(Set::from_relation(rel).intersection(&layout.rel.domain()?))
}

/// A sound, always-available over-approximation of [`comm_sets`]: the full
/// exchange. Every processor sends its entire owned section of the array
/// to every other processor and symmetrically receives every other
/// processor's owned section, making each rank's copy owner-current.
///
/// Unlike the exact Figure 3 equations this needs no set difference (the
/// complement of `myid` is built syntactically) and runs in a grace scope,
/// so it cannot fail with an exactness or budget error — it is the event
/// the driver degrades to when the exact analysis gives up.
/// `nl_write_data` is empty: the conservative event only *refreshes* reads
/// from owners; non-local writes degrade at the nest level, where ownership
/// of the written data is re-established by replicating the computation.
///
/// # Errors
///
/// [`OmegaError::Overflow`] if composing the layout overflows `i64`
/// coefficients. The grace scope suspends every governor refusal and no
/// set difference is formed, so neither a budget nor an exactness error
/// can arise.
pub fn conservative_comm_sets(layout: &Layout) -> Result<CommSets, OmegaError> {
    // Self-contained grace scope: the compositions below go through the
    // governed memoized operations, and this function is called precisely
    // when the budget has already tripped.
    let _grace = dhpf_omega::governor_grace();
    let proc_rank = layout.proc_rank();
    let data_rank = layout.rel.n_out();
    let me = myid_set(proc_rank);
    let owned_by_m = layout.rel.apply(&me)?;
    let others = others_set(proc_rank, layout)?;

    // Send: to each partner p != m, everything m owns. Receive: from each
    // partner p != m, everything p owns (the layout restricted to p) — the
    // exact dual of the send side, as the rank-expanded message pairing
    // requires.
    let all = Relation::universe(proc_rank, data_rank)
        .with_in_names((0..proc_rank).map(|d| format!("p{}", d + 1)));
    let mut send_map = all.restrict_domain(&others).restrict_range(&owned_by_m);
    let mut recv_map = layout.rel.restrict_domain(&others);
    send_map.simplify();
    recv_map.simplify();
    Ok(CommSets {
        nl_read_data: recv_map.range()?,
        nl_write_data: Set::empty(data_rank),
        send_map,
        recv_map,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::{cp_map, cp_map_at_level, ref_map_in, slice_context};
    use crate::ir::collect_statements;
    use crate::layout::build_layouts;
    use dhpf_hpf::{analyze, parse};

    /// 1-D shift on a BLOCK distribution: the classic nearest-neighbour
    /// exchange. a(i) = b(i+1) with both block-distributed: each processor
    /// needs the first element of its right neighbour's block.
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
    fn shift_communication() {
        let prog = parse(SHIFT).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let stmts = collect_statements(&a);
        let cp = cp_map(&stmts[0], &layouts).unwrap();
        let rm = stmts[0].reads[0].ref_map(&stmts[0].ctx);
        let sets = comm_sets(
            &[CommRef {
                cp_map: cp,
                ref_map: rm,
            }],
            &[],
            &layouts["b"],
        )
        .unwrap();
        // m = 0 owns b[1..25], computes i in [1,25], reads b[2..26]:
        // needs b[26] from p=1.
        let m0 = [("m1", 0i64)];
        assert!(sets.nl_read_data.contains(&[26], &m0));
        assert!(!sets.nl_read_data.contains(&[25], &m0));
        assert!(!sets.nl_read_data.contains(&[27], &m0));
        // RecvCommMap: receive b[26] from partner 1.
        assert!(sets.recv_map.contains_pair(&[1], &[26], &m0));
        assert!(!sets.recv_map.contains_pair(&[2], &[51], &m0));
        // SendCommMap for m = 1: send b[26] to partner 0.
        let m1 = [("m1", 1i64)];
        assert!(sets.send_map.contains_pair(&[0], &[26], &m1));
        assert!(!sets.send_map.contains_pair(&[0], &[27], &m1));
        // Last processor owns b[76..100]; p=2 (computing i in [51,75])
        // reads b[76], so m=3 sends exactly that element left.
        let m3 = [("m1", 3i64)];
        assert!(sets.send_map.contains_pair(&[2], &[76], &m3));
        assert!(!sets.send_map.contains_pair(&[2], &[77], &m3));
        // ... but m=3 receives nothing (it reads b[77..100], all owned).
        for q in 0..4i64 {
            for x in 1..=100i64 {
                assert!(
                    !sets.recv_map.contains_pair(&[q], &[x], &m3),
                    "m=3 should receive nothing, got b[{x}] from {q}"
                );
            }
        }
    }

    #[test]
    fn conservative_full_exchange_is_dual_and_owner_current() {
        let prog = parse(SHIFT).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let sets = conservative_comm_sets(&layouts["b"]).unwrap();
        let m0 = [("m1", 0i64)];
        // m=0 owns b[1..25]: it sends exactly that section to every other
        // rank in the grid, and never to itself or outside the grid.
        for q in 1..4i64 {
            assert!(sets.send_map.contains_pair(&[q], &[1], &m0));
            assert!(sets.send_map.contains_pair(&[q], &[25], &m0));
            assert!(!sets.send_map.contains_pair(&[q], &[26], &m0));
        }
        assert!(!sets.send_map.contains_pair(&[0], &[1], &m0));
        assert!(!sets.send_map.contains_pair(&[4], &[1], &m0));
        // ...and receives each partner's owned section — the exact dual.
        assert!(sets.recv_map.contains_pair(&[1], &[26], &m0));
        assert!(sets.recv_map.contains_pair(&[3], &[100], &m0));
        assert!(!sets.recv_map.contains_pair(&[1], &[51], &m0));
        assert!(!sets.recv_map.contains_pair(&[0], &[1], &m0));
        assert!(sets.nl_write_data.is_empty());
    }

    #[test]
    fn conservative_sets_survive_a_tripped_budget() {
        let prog = parse(SHIFT).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let budget = dhpf_omega::Budget::new().op_fuel(0);
        let gov = dhpf_omega::RequestGovernor::new(&budget, None);
        let ctx = dhpf_omega::Context::new();
        let armed = dhpf_omega::Request::new(&ctx, Some(&gov), None).arm();
        // Trip the governor, then demand the fallback: it must still be
        // exact (grace scope), not merely non-panicking.
        let probe: Set = "{[i] : 1 <= i <= 2}".parse().unwrap();
        assert!(probe.subtract(&probe).is_err());
        assert!(gov.tripped());
        let sets = conservative_comm_sets(&layouts["b"]).unwrap();
        // Membership checks go through governed satisfiability, which
        // degrades to "maybe" while tripped — drop the governor so the
        // assertions below are exact.
        drop(armed);
        let m0 = [("m1", 0i64)];
        assert!(sets.send_map.contains_pair(&[1], &[25], &m0));
        assert!(!sets.send_map.contains_pair(&[1], &[26], &m0));
        assert!(sets.recv_map.contains_pair(&[3], &[76], &m0));
    }

    #[test]
    fn no_communication_when_aligned() {
        // a(i) = b(i): identical layouts, no data moves.
        let src = "
program aligned
real a(100), b(100)
!HPF$ processors p(4)
!HPF$ template t(100)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto p
do i = 1, 100
  a(i) = b(i)
enddo
end
";
        let prog = parse(src).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let stmts = collect_statements(&a);
        let cp = cp_map(&stmts[0], &layouts).unwrap();
        let rm = stmts[0].reads[0].ref_map(&stmts[0].ctx);
        let sets = comm_sets(
            &[CommRef {
                cp_map: cp,
                ref_map: rm,
            }],
            &[],
            &layouts["b"],
        )
        .unwrap();
        assert!(sets.is_empty());
    }

    #[test]
    fn coalescing_unions_two_references() {
        // a(i) = b(i+1) + b(i+2): coalesced event needs b[B+1..B+2] once.
        let src = "
program coalesce
real a(100), b(100)
!HPF$ processors p(4)
!HPF$ template t(100)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto p
do i = 1, 98
  a(i) = b(i+1) + b(i+2)
enddo
end
";
        let prog = parse(src).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let stmts = collect_statements(&a);
        let cp = cp_map(&stmts[0], &layouts).unwrap();
        let refs: Vec<CommRef> = stmts[0]
            .reads
            .iter()
            .map(|r| CommRef {
                cp_map: cp.clone(),
                ref_map: r.ref_map(&stmts[0].ctx),
            })
            .collect();
        let sets = comm_sets(&refs, &[], &layouts["b"]).unwrap();
        let m0 = [("m1", 0i64)];
        // m=0 computes i in [1,25]; reads b[2..27]; owns b[1..25]:
        // needs b[26], b[27] from p=1 — one coalesced message.
        assert!(sets.recv_map.contains_pair(&[1], &[26], &m0));
        assert!(sets.recv_map.contains_pair(&[1], &[27], &m0));
        assert!(!sets.recv_map.contains_pair(&[1], &[28], &m0));
    }

    #[test]
    fn non_local_writes_are_sent_to_owner() {
        // ON_HOME b(i): the *write* to a(i+1) can be non-local.
        let src = "
program nlwrite
real a(100), b(100)
!HPF$ processors p(4)
!HPF$ template t(100)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto p
do i = 1, 99
!HPF$ on_home b(i)
  a(i+1) = b(i)
enddo
end
";
        let prog = parse(src).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let stmts = collect_statements(&a);
        let cp = cp_map(&stmts[0], &layouts).unwrap();
        let wref = CommRef {
            cp_map: cp,
            ref_map: stmts[0].lhs.as_ref().unwrap().ref_map(&stmts[0].ctx),
        };
        let sets = comm_sets(&[], &[wref], &layouts["a"]).unwrap();
        // m=0 computes i in [1,25], writes a[2..26]; owns a[1..25]:
        // must SEND a[26] to its owner p=1.
        let m0 = [("m1", 0i64)];
        assert!(sets.nl_write_data.contains(&[26], &m0));
        assert!(sets.send_map.contains_pair(&[1], &[26], &m0));
        // And p=1 receives a[26] from p=0.
        let m1 = [("m1", 1i64)];
        assert!(sets.recv_map.contains_pair(&[0], &[26], &m1));
    }

    #[test]
    fn pipeline_comm_at_inner_level() {
        // Loop-carried use: a(i,j) = a(i-1,j) with (block, *) distribution;
        // communication placed inside the i loop moves one row boundary cell
        // per outer iteration.
        let src = "
program pipe
real a(64,64)
!HPF$ processors p(4)
!HPF$ template t(64,64)
!HPF$ align a(i,j) with t(i,j)
!HPF$ distribute t(block,*) onto p
do i = 2, 64
  do j = 1, 64
    a(i,j) = a(i-1,j)
  enddo
enddo
end
";
        let prog = parse(src).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let stmts = collect_statements(&a);
        // Vectorize only out of the j loop (level 1): i stays symbolic.
        let (cp, inner) = cp_map_at_level(&stmts[0], &layouts, 1).unwrap();
        let rm = ref_map_in(&stmts[0].reads[0], &slice_context(&stmts[0].ctx, 1));
        let sets = comm_sets(
            &[CommRef {
                cp_map: cp,
                ref_map: rm,
            }],
            &[],
            &layouts["a"],
        )
        .unwrap();
        assert_eq!(inner.vars, vec!["j".to_string()]);
        // With B = 16: m=1 owns rows 17..32. At i = 17 it reads row 16
        // (owned by p=0) for all j.
        let p = [("m1", 1i64), ("i", 17)];
        assert!(sets.recv_map.contains_pair(&[0], &[16, 1], &p));
        assert!(sets.recv_map.contains_pair(&[0], &[16, 64], &p));
        // At i = 18 the read row 17 is local: no communication.
        let p2 = [("m1", 1i64), ("i", 18)];
        assert!(!sets.recv_map.contains_pair(&[0], &[17, 1], &p2));
    }
}
