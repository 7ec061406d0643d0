//! `nlDataSet_read(m)` is the image of `m`'s own iterations.
//!
//! `comm_sets` computes a read event's non-local data as
//! `(∪_r RefMap_r(CPMap_r({m}))) − Layout({m})`, and never builds the
//! proc → data relation `CPMap ∘ RefMap` for reads. This suite keeps the
//! composed form, `(∪_r CPMap_r ∘ RefMap_r)({m}) − Layout({m})`, and checks
//! the two against each other for every statement read of the five
//! shipped programs and of a `*`-aligned and a CYCLIC program, at level 0
//! and at every level the statement's CP map can be taken at:
//!
//! - for each reference alone, the two sets are equal;
//! - for each statement's reads of one array, coalesced into one event,
//!   the two unions are equal;
//! - some reference of every program reads non-local data, so the
//!   comparison is not made on empty sets alone.

use dhpf_core::cp::slice_context;
use dhpf_core::{
    build_layouts, collect_statements, comm_sets, cp_map_at_level, myid_set, CommRef, Layout,
};
use dhpf_hpf::{analyze, parse};
use dhpf_omega::{OmegaError, Relation, Set};
use std::collections::{BTreeMap, HashSet};

const JACOBI: &str = include_str!("../../../benchmarks/jacobi.hpf");
const TOMCATV: &str = include_str!("../../../benchmarks/tomcatv.hpf");
const ERLEBACHER: &str = include_str!("../../../benchmarks/erlebacher.hpf");
const SP: &str = include_str!("../../../benchmarks/sp.hpf");

/// Figure 3's read side through the composed relation: `DataAccessed` as
/// proc → data, applied to `{m}`, less what `m` owns.
fn composed_nl_read(reads: &[CommRef], layout: &Layout) -> Result<Set, OmegaError> {
    let me = myid_set(layout.proc_rank());
    let owned_by_m = layout.rel.apply(&me)?;
    let mut accessed = Relation::empty(layout.proc_rank(), layout.rel.n_out());
    for r in reads {
        accessed = accessed.union(&r.cp_map.then(&r.ref_map)?);
    }
    accessed.apply(&me)?.subtract(&owned_by_m)
}

/// `comm_sets`' `nl_read_data` for `reads` equals the composed form.
/// Returns whether the references read non-local data.
fn check_reads(what: &str, reads: &[CommRef], layout: &Layout) -> bool {
    let sets = comm_sets(reads, &[], layout).unwrap();
    let paper = composed_nl_read(reads, layout).unwrap();
    assert!(
        sets.nl_read_data.equal(&paper).unwrap(),
        "{what}: image-form nlDataSet\n  {}\ndiffers from the composed one\n  {paper}",
        sets.nl_read_data
    );
    !paper.is_empty()
}

/// Checks every statement read of `src`, alone and coalesced per array.
fn check_program(name: &str, src: &str) {
    let ast = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let a = analyze(&ast.units[0]).unwrap_or_else(|e| panic!("{name}: {e}"));
    let layouts = build_layouts(&a);
    let stmts = collect_statements(&a);
    let mut seen = HashSet::new();
    let mut non_local = 0usize;
    for (k, s) in stmts.iter().enumerate() {
        for level in 0..=s.ctx.depth() {
            let Ok((cp_map, _)) = cp_map_at_level(s, &layouts, level) else {
                continue;
            };
            let inner = slice_context(&s.ctx, level);
            let mut by_array: BTreeMap<&str, Vec<CommRef>> = BTreeMap::new();
            for r in s.reads.iter().filter(|r| !layouts[&r.array].replicated) {
                let cr = CommRef {
                    cp_map: cp_map.clone(),
                    ref_map: r.ref_map(&inner),
                };
                let key = format!("{} {} {}", r.array, cr.cp_map, cr.ref_map);
                if seen.insert(key) {
                    let what = format!(
                        "{name}: statement {k}, read {}({:?}) at level {level}",
                        r.array, r.subs
                    );
                    let layout = &layouts[&r.array];
                    non_local += usize::from(check_reads(&what, std::slice::from_ref(&cr), layout));
                }
                by_array.entry(&r.array).or_default().push(cr);
            }
            for (array, refs) in by_array.iter().filter(|(_, refs)| refs.len() > 1) {
                let what = format!(
                    "{name}: statement {k}, {} reads of {array} coalesced at level {level}",
                    refs.len()
                );
                check_reads(&what, refs, &layouts[*array]);
            }
        }
    }
    assert!(non_local > 0, "{name}: no read is non-local");
}

#[test]
fn jacobi_nl_data_is_image() {
    check_program("JACOBI", JACOBI);
}

#[test]
fn tomcatv_nl_data_is_image() {
    check_program("TOMCATV", TOMCATV);
}

#[test]
fn erlebacher_nl_data_is_image() {
    check_program("ERLEBACHER", ERLEBACHER);
}

#[test]
fn sp4_nl_data_is_image() {
    check_program("SP-4", SP);
}

#[test]
fn sp_sym_nl_data_is_image() {
    check_program(
        "SP-sym",
        &SP.replace(
            "!HPF$ processors p(2, 2)",
            "!HPF$ processors p(2, number_of_processors())",
        ),
    );
}

/// A vector aligned with `*` has one owner per processor column: an
/// element is non-local to `m` only when `m` owns no copy of it.
#[test]
fn star_aligned_nl_data_is_image() {
    check_program(
        "STAR",
        "
program star
real a(16,16), b(16)
!HPF$ processors p(2,2)
!HPF$ template t(16,16)
!HPF$ align a(i,j) with t(i,j)
!HPF$ align b(i) with t(i,*)
!HPF$ distribute t(block,block) onto p
do i = 1, 15
  do j = 1, 16
    a(i,j) = b(i+1) + j
  enddo
enddo
do i = 1, 15
  b(i+1) = a(i,1)
enddo
end
",
    );
}

#[test]
fn cyclic_nl_data_is_image() {
    check_program(
        "CYCLIC",
        "
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
",
    );
}
