//! The locality filter against the Figure 3 equations.
//!
//! `plan_events` drops a read before `comm_sets` runs when
//! [`is_local_read`] finds that the read and every effective ON_HOME term
//! of its statement touch the same cells of the same template. The
//! equation stays the oracle here:
//!
//! - for every statement read of the five shipped programs that the
//!   filter drops, `comm_sets` on that read alone, at every level the
//!   statement's CP map can be taken at (the level `plan_events` places it
//!   at among them), yields an event `materialize_events` drops: its
//!   non-local data is empty, or its receive map has no conjuncts;
//! - every program has a dropped read and a live event, so the check is
//!   not made on nothing;
//! - small units pin the cases the filter must leave to the equations
//!   (`*`-aligned reads and homes, two templates, two homes of which one
//!   matches, no effective home) and the ones it decides (CYCLIC and
//!   symbolic-P BLOCK), each beside what `comm_sets` says.

use dhpf_core::cp::{effective_on_home, slice_context};
use dhpf_core::layout::is_local_read;
use dhpf_core::{
    build_layouts, collect_statements, comm_sets, compile, cp_map_at_level, CommRef, CommSets,
    CompileOptions,
};
use dhpf_hpf::{analyze, parse};

const JACOBI: &str = include_str!("../../../benchmarks/jacobi.hpf");
const TOMCATV: &str = include_str!("../../../benchmarks/tomcatv.hpf");
const ERLEBACHER: &str = include_str!("../../../benchmarks/erlebacher.hpf");
const SP: &str = include_str!("../../../benchmarks/sp.hpf");

/// What `materialize_events` keeps: some processor reads non-local data
/// that some processor owns.
fn moves_data(sets: &CommSets) -> bool {
    !sets.nl_read_data.is_empty() && !sets.recv_map.conjuncts().is_empty()
}

/// One verdict per distributed statement read of `src`'s first unit, in
/// source order: the array read, the filter's answer, and whether
/// `comm_sets` on the read alone moves data at some level.
fn verdicts(src: &str) -> Vec<(String, bool, bool)> {
    let ast = parse(src).unwrap();
    let a = analyze(&ast.units[0]).unwrap();
    let layouts = build_layouts(&a);
    let mut out = Vec::new();
    for s in collect_statements(&a) {
        let homes = effective_on_home(&s, &layouts);
        for r in s.reads.iter().filter(|r| !layouts[&r.array].replicated) {
            let mut traffic = false;
            for level in 0..=s.ctx.depth() {
                let Ok((cp_map, _)) = cp_map_at_level(&s, &layouts, level) else {
                    continue;
                };
                let read = CommRef {
                    cp_map,
                    ref_map: r.ref_map(&slice_context(&s.ctx, level)),
                };
                let sets = comm_sets(&[read], &[], &layouts[&r.array]).unwrap();
                traffic |= moves_data(&sets);
            }
            out.push((r.array.clone(), is_local_read(&a, r, &homes), traffic));
        }
    }
    out
}

/// Every read the filter drops moves no data by the equation, and the
/// program has a dropped read and a live event.
fn check_program(name: &str, src: &str) {
    let verdicts = verdicts(src);
    let mut dropped = 0;
    for (k, (array, local, traffic)) in verdicts.iter().enumerate() {
        assert!(
            !(*local && *traffic),
            "{name}: read {k} of {array} is dropped as local, but comm_sets moves data for it"
        );
        dropped += usize::from(*local);
    }
    assert!(dropped > 0, "{name}: the filter drops no read");
    let stats = compile(src, &CompileOptions::default())
        .unwrap()
        .report
        .stats;
    assert!(stats.local_reads > 0, "{name}: plan_events drops no read");
    assert!(stats.comm_events > 0, "{name}: no live event");
}

#[test]
fn jacobi_local_reads_have_no_traffic() {
    check_program("JACOBI", JACOBI);
}

#[test]
fn tomcatv_local_reads_have_no_traffic() {
    check_program("TOMCATV", TOMCATV);
}

#[test]
fn erlebacher_local_reads_have_no_traffic() {
    check_program("ERLEBACHER", ERLEBACHER);
}

#[test]
fn sp4_local_reads_have_no_traffic() {
    check_program("SP-4", SP);
}

#[test]
fn sp_sym_local_reads_have_no_traffic() {
    check_program(
        "SP-sym",
        &SP.replace(
            "!HPF$ processors p(2, 2)",
            "!HPF$ processors p(2, number_of_processors())",
        ),
    );
}

/// `src`'s verdicts are `want`, as `(array, filter, equation)` rows.
fn assert_verdicts(src: &str, want: &[(&str, bool, bool)]) {
    let got = verdicts(src);
    let got: Vec<(&str, bool, bool)> = got.iter().map(|(a, l, t)| (a.as_str(), *l, *t)).collect();
    assert_eq!(got, want);
}

/// A read `b(i)` of an array aligned `t(i,*)` on a BLOCK×BLOCK template
/// has no single cell on the second dimension: left to the equation,
/// which finds it local. Its `*`-aligned home in the second nest is left
/// alone too, and the equation finds traffic: every column runs `b(i+1)
/// = a(i,1)`, and only the first owns `a(i,1)`.
#[test]
fn star_aligned_read_and_home_are_undecided() {
    let src = "
program star
real a(16,16), b(16)
!HPF$ processors p(2,2)
!HPF$ template t(16,16)
!HPF$ align a(i,j) with t(i,j)
!HPF$ align b(i) with t(i,*)
!HPF$ distribute t(block,block) onto p
do i = 1, 16
  do j = 1, 16
    a(i,j) = b(i) + j
  enddo
enddo
do i = 1, 15
  b(i+1) = a(i+1,1)
enddo
end
";
    assert_verdicts(src, &[("b", false, false), ("a", false, true)]);
}

/// Two templates distributed alike put `a(i)` and `b(i)` on the same
/// processor, but the filter compares cells of one template only.
#[test]
fn two_templates_are_undecided() {
    let src = "
program two
real a(16), b(16)
!HPF$ processors p(4)
!HPF$ template t(16)
!HPF$ template u(16)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with u(i)
!HPF$ distribute t(block) onto p
!HPF$ distribute u(block) onto p
do i = 1, 16
  a(i) = b(i)
enddo
end
";
    assert_verdicts(src, &[("b", false, false)]);
}

/// CYCLIC: `b(i)` on the home of `a(i)` is decided local, `b(i+1)` is
/// left to the equation, which finds traffic.
#[test]
fn cyclic_is_decided() {
    let src = "
program cyc
real a(32), b(32)
!HPF$ processors p(4)
!HPF$ template t(32)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(cyclic) onto p
do i = 1, 31
  a(i) = b(i+1) + b(i)
enddo
end
";
    assert_verdicts(src, &[("b", false, true), ("b", true, false)]);
}

/// BLOCK over a symbolic processor count (the §4.1 VP model): an offset
/// alignment still names one cell, so `b(i)` aligned `t(i+1)` on the home
/// of `a(i+1)` aligned `t(i)` is decided local.
#[test]
fn symbolic_block_is_decided() {
    let src = "
program vp
real a(32), b(32)
!HPF$ processors p(number_of_processors())
!HPF$ template t(33)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i+1)
!HPF$ distribute t(block) onto p
do i = 1, 31
  a(i+1) = b(i) + b(i+1)
enddo
end
";
    assert_verdicts(src, &[("b", true, false), ("b", false, true)]);
}

/// With two ON_HOME terms the statement runs on both homes; a read that
/// matches one of them is not local to the other's owner.
#[test]
fn one_of_two_homes_matching_is_undecided() {
    let src = "
program homes
real a(16), b(16)
!HPF$ processors p(4)
!HPF$ template t(16)
!HPF$ align a(i) with t(i)
!HPF$ align b(i) with t(i)
!HPF$ distribute t(block) onto p
do i = 1, 15
!HPF$ on_home a(i), a(i+1)
  b(i) = a(i)
enddo
end
";
    assert_verdicts(src, &[("a", false, true)]);
}

/// A statement whose only home is a replicated array runs everywhere: it
/// has no effective home, so nothing it reads is decided local.
#[test]
fn no_effective_home_is_undecided() {
    let src = "
program rep
real a(16), c(16)
!HPF$ processors p(4)
!HPF$ template t(16)
!HPF$ align a(i) with t(i)
!HPF$ distribute t(block) onto p
do i = 1, 16
  c(i) = a(i)
enddo
end
";
    assert_verdicts(src, &[("a", false, true)]);
}
