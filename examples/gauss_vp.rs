//! Reproduces the paper's Figure 5: active virtual processors for the
//! Gaussian-elimination loop on a (CYCLIC, CYCLIC) layout with a symbolic
//! number of processors.
//!
//! Run with: `cargo run --example gauss_vp`

use dhpf::core::{active_vp_sets, build_layouts, collect_statements, cp_map, CommRef};
use dhpf::hpf::{analyze, parse};

// The paper's Figure 5(b), with the guard folded into the loop bounds
// (dHPF folds IF conditions into iteration sets; our frontend keeps
// conditions as runtime guards, so the bounds carry the PIVOT constraint).
const SRC: &str = "
program gauss
real a(100,100)
integer pivot
!HPF$ processors pa(number_of_processors(), number_of_processors())
!HPF$ template t(100,100)
!HPF$ align a(i,j) with t(i,j)
!HPF$ distribute t(cyclic,cyclic) onto pa
read *, pivot
do i = pivot + 1, 100
  do j = pivot + 1, 100
    a(i,j) = a(i,j) + a(pivot,j)
  enddo
enddo
end
";

fn main() -> Result<(), dhpf::omega::OmegaError> {
    let prog = parse(SRC).expect("parse");
    let analysis = analyze(&prog.units[0]).expect("analyze");
    let layouts = build_layouts(&analysis);
    let stmts = collect_statements(&analysis);
    let s = &stmts[0];
    let cp = cp_map(s, &layouts)?;

    // The potentially non-local read is A(PIVOT, j).
    let pivot_read = s
        .reads
        .iter()
        .find(|r| r.subs[0].terms.iter().any(|(n, _)| n == "pivot"))
        .expect("pivot-row read");
    let rref = CommRef {
        cp_map: cp.clone(),
        ref_map: pivot_read.ref_map(&s.ctx),
    };
    let sets = active_vp_sets(&[rref], &[], &layouts["a"]).expect("exact VP sets");

    println!("== Figure 5: active virtual processors for the Gauss loop ==\n");
    println!("busyVPSet       = {}\n", sets.busy);
    println!("activeSendVPSet = {}\n", sets.active_send);
    println!("activeRecvVPSet = {}\n", sets.active_recv);

    // The paper's results, checked pointwise with PIVOT = 40:
    //   busyVPSet        = {[v1,v2] : PIVOT <  v1,v2 <= 100}
    //   activeSendVPSet  = {[v1,v2] : v1 = PIVOT && PIVOT < v2 <= 100}
    //   activeRecvVPSet  = busyVPSet
    let p = [("pivot", 40i64)];
    assert!(sets.busy.contains(&[41, 41], &p));
    assert!(!sets.busy.contains(&[40, 41], &p));
    assert!(sets.active_send.contains(&[40, 41], &p));
    assert!(!sets.active_send.contains(&[41, 41], &p));
    assert!(sets.active_recv.equal(&sets.busy)?);
    println!("All Figure 5 membership checks passed:");
    println!("  - only VPs in the lower-right submatrix are busy;");
    println!("  - only VPs owning the pivot row send;");
    println!("  - every busy VP receives.");
    Ok(())
}
