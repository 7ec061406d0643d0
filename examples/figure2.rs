//! Reproduces the paper's Figure 2: construction of the primitive sets and
//! mappings (`Align`, `Dist`, `Layout`, `loop`, `RefMap`, `CPMap`) for the
//! example HPF fragment, and checks them against the published formulas.
//!
//! Run with: `cargo run --example figure2`

use dhpf::core::{build_layouts, collect_statements, cp_map};
use dhpf::hpf::{analyze, parse};
use dhpf_omega::{Context, Request, Set};

const SRC: &str = "
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

fn main() -> Result<(), dhpf::omega::OmegaError> {
    let prog = parse(SRC).expect("parse");
    let analysis = analyze(&prog.units[0]).expect("analyze");
    // One Omega context, armed on this thread: every set operation below
    // reuses its hash-consed conjuncts and memoized simplifications.
    let ctx = Context::new();
    let _armed = Request::new(&ctx, None, None).arm();
    let layouts = build_layouts(&analysis);
    let stmts = collect_statements(&analysis);
    let s = &stmts[0];

    println!("== Figure 2: primitive sets and mappings ==\n");

    // proc, 0-based.
    let proc: Set = "{[p] : 0 <= p <= 3}".parse()?;
    println!("proc  = {proc}  (0-based in this implementation)\n");
    assert!(proc.contains(&[3], &[]) && !proc.contains(&[4], &[]));

    // Layout_A: the paper's
    //   {[p] -> [a1,a2] : max(25p+1,1) <= a2 <= min(25p+25,100), 0 <= a1 <= 99}
    // (t2 = a2 after align A(i,j) -> T(i+1,j), distribute (*, BLOCK)).
    println!("Layout_A = {}\n", layouts["a"].rel);
    let la = &layouts["a"].rel;
    assert!(la.contains_pair(&[1], &[0, 26], &[]));
    assert!(!la.contains_pair(&[1], &[0, 25], &[]));
    assert!(!la.contains_pair(&[1], &[0, 51], &[]));

    // Layout_B: align B(i,j) -> T(*, i):
    //   {[p] -> [b1,b2] : max(25p+1,1) <= b1 <= min(25p+25,100)}
    println!("Layout_B = {}\n", layouts["b"].rel);
    let lb = &layouts["b"].rel;
    assert!(lb.contains_pair(&[2], &[51, 1], &[]));
    assert!(!lb.contains_pair(&[2], &[76, 1], &[]));

    // loop = {[l1,l2] : 1 <= l1 <= N && 2 <= l2 <= N+1}
    let loop_set = s.ctx.iteration_set();
    println!("loop  = {loop_set}\n");
    assert!(loop_set.contains(&[1, 2], &[("n", 60)]));
    assert!(!loop_set.contains(&[0, 2], &[("n", 60)]));
    assert!(loop_set.contains(&[60, 61], &[("n", 60)]));

    // CPRef/RefMap of the ON_HOME term B(j-1, i):
    //   {[l1,l2] -> [b1,b2] : b1 = l2 - 1 && b2 = l1}
    let refmap = s.on_home[0].ref_map(&s.ctx);
    println!("RefMap(B(j-1,i)) = {refmap}\n");
    assert!(refmap.contains_pair(&[3, 7], &[6, 3], &[]));

    // CPMap = Layout_B ∘ RefMap⁻¹ ∩range loop; the paper's result:
    //   {[p] -> [l1,l2] : 1 <= l1 <= min(N,100) &&
    //                     max(2, 25p+2) <= l2 <= min(N+1, 101, 25p+26)}
    let cp = cp_map(s, &layouts)?;
    println!("CPMap = {cp}\n");
    let n = [("n", 60i64)];
    assert!(cp.contains_pair(&[0], &[1, 2], &n));
    assert!(cp.contains_pair(&[0], &[1, 26], &n));
    assert!(!cp.contains_pair(&[0], &[1, 27], &n));
    assert!(cp.contains_pair(&[1], &[60, 51], &n));
    assert!(!cp.contains_pair(&[1], &[60, 52], &n));
    assert!(!cp.contains_pair(&[1], &[61, 51], &n));

    println!("All Figure 2 membership checks passed.");
    let stats = ctx.stats();
    println!(
        "omega cache: {} hits / {} misses ({} conjuncts interned)",
        stats.total_hits(),
        stats.total_misses(),
        stats.interned_conjuncts
    );
    Ok(())
}
