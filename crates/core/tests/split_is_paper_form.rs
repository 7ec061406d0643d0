//! Figure 4's local iterations are one inverse image.
//!
//! `split_sets` computes a reference's local iterations in the paper's
//! form, `CPIters ∩ RefMap_r⁻¹(Layout({m}))`. This suite keeps the
//! two-image-and-difference form,
//! `RefMap_r⁻¹(DA ∩ owned) − RefMap_r⁻¹(DA − owned)` with
//! `DA = RefMap_r(CPIters)`, and checks the one against the other for
//! every statement of the five shipped programs and of a `*`-aligned and a
//! CYCLIC program:
//!
//! - for each reference alone, passed as a read and as a write, the two
//!   `local` sets are equal;
//! - for each statement, with its reads and its LHS as the write, the two
//!   `local` sets are equal and the four sections partition its
//!   iterations;
//! - some reference of every program has a non-empty non-local part, so
//!   the comparison is not made on empty differences alone.

use dhpf_core::cp::proc_rank_of;
use dhpf_core::{
    build_layouts, collect_statements, cp_map, myid_set, split_sets, ArrayRef, Layout, StmtInfo,
};
use dhpf_hpf::{analyze, parse};
use dhpf_omega::{OmegaError, Relation, Set};
use std::collections::BTreeMap;

const JACOBI: &str = include_str!("../../../benchmarks/jacobi.hpf");
const TOMCATV: &str = include_str!("../../../benchmarks/tomcatv.hpf");
const ERLEBACHER: &str = include_str!("../../../benchmarks/erlebacher.hpf");
const SP: &str = include_str!("../../../benchmarks/sp.hpf");

/// A reference's local iterations as two images and a difference: the
/// iterations reaching owned data, less those reaching data not owned,
/// intersected across `refs` and with `cp_iter_set`.
fn two_image_local(cp_iter_set: &Set, refs: &[(&Relation, &Layout)]) -> Result<Set, OmegaError> {
    let mut acc = cp_iter_set.clone();
    for (ref_map, layout) in refs {
        let owned = layout.rel.apply(&myid_set(layout.proc_rank()))?;
        let data_accessed = ref_map.apply(cp_iter_set)?;
        let local_data = data_accessed.intersection(&owned);
        let nl_data = data_accessed.subtract(&owned)?;
        let li = ref_map
            .apply_inverse(&local_data)?
            .subtract(&ref_map.apply_inverse(&nl_data)?)?;
        acc = acc.intersection(&li);
    }
    Ok(acc.intersection(cp_iter_set))
}

/// `split_sets`' `local` for `refs` as reads equals the two-image form.
/// Returns whether the references have a non-local part.
fn check_local(what: &str, mine: &Set, refs: &[(&Relation, &Layout)]) -> bool {
    let split = split_sets(mine, refs, &[]).unwrap();
    let paper = two_image_local(mine, refs).unwrap();
    assert!(
        split.local.equal(&paper).unwrap(),
        "{what}: one-image local\n  {}\ndiffers from the two-image one\n  {paper}",
        split.local
    );
    // The write side runs the same accumulator.
    let as_write = split_sets(mine, &[], refs).unwrap();
    assert!(
        as_write.local.equal(&paper).unwrap(),
        "{what}: local as a write\n  {}\ndiffers from the two-image one\n  {paper}",
        as_write.local
    );
    !mine.subtract(&paper).unwrap().is_empty()
}

/// A statement's `local`, with its reads and its write, equals the
/// two-image form, and its four sections partition `mine`.
fn check_statement(
    what: &str,
    mine: &Set,
    reads: &[(&Relation, &Layout)],
    writes: &[(&Relation, &Layout)],
) {
    let s = split_sets(mine, reads, writes).unwrap();
    let paper = two_image_local(mine, reads)
        .unwrap()
        .intersection(&two_image_local(mine, writes).unwrap());
    assert!(
        s.local.equal(&paper).unwrap(),
        "{what}: one-image local\n  {}\ndiffers from the two-image one\n  {paper}",
        s.local
    );
    let sections = [
        ("local", &s.local),
        ("nl_ro", &s.nl_ro),
        ("nl_wo", &s.nl_wo),
        ("nl_rw", &s.nl_rw),
    ];
    let union = s.local.union(&s.nl_ro).union(&s.nl_wo).union(&s.nl_rw);
    assert!(
        union.equal(mine).unwrap(),
        "{what}: the sections' union {union} is not the iteration set {mine}"
    );
    for (i, (a, sa)) in sections.iter().enumerate() {
        for (b, sb) in &sections[i + 1..] {
            let both = sa.intersection(sb);
            assert!(both.is_empty(), "{what}: {a} and {b} share {both}");
        }
    }
}

/// The statement's reference maps at its full loop context, paired with
/// their layouts, for the references to arrays that are not replicated.
fn pairs<'a>(
    s: &StmtInfo,
    refs: impl Iterator<Item = &'a ArrayRef>,
    layouts: &'a BTreeMap<String, Layout>,
) -> Vec<(Relation, &'a Layout)> {
    refs.map(|r| (r, &layouts[&r.array]))
        .filter(|(_, l)| !l.replicated)
        .map(|(r, l)| (r.ref_map(&s.ctx), l))
        .collect()
}

fn borrowed<'a>(pairs: &'a [(Relation, &'a Layout)]) -> Vec<(&'a Relation, &'a Layout)> {
    pairs.iter().map(|(m, l)| (m, *l)).collect()
}

/// Checks every statement of `src`.
fn check_program(name: &str, src: &str) {
    let ast = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let a = analyze(&ast.units[0]).unwrap_or_else(|e| panic!("{name}: {e}"));
    let layouts = build_layouts(&a);
    let stmts = collect_statements(&a);
    let mut non_local = 0usize;
    for (k, s) in stmts.iter().enumerate() {
        let cp = cp_map(s, &layouts).unwrap();
        let mine = cp.apply(&myid_set(proc_rank_of(s, &layouts))).unwrap();
        let reads = pairs(s, s.reads.iter(), &layouts);
        let writes = pairs(s, s.lhs.iter(), &layouts);
        let what = format!("{name}: statement {k}");
        for (ref_map, layout) in reads.iter().chain(&writes) {
            let what = format!("{what}, reference {ref_map}");
            non_local += usize::from(check_local(&what, &mine, &[(ref_map, layout)]));
        }
        check_statement(&what, &mine, &borrowed(&reads), &borrowed(&writes));
    }
    assert!(non_local > 0, "{name}: no reference has a non-local part");
}

#[test]
fn jacobi_split_is_paper_form() {
    check_program("JACOBI", JACOBI);
}

#[test]
fn tomcatv_split_is_paper_form() {
    check_program("TOMCATV", TOMCATV);
}

#[test]
fn erlebacher_split_is_paper_form() {
    check_program("ERLEBACHER", ERLEBACHER);
}

#[test]
fn sp4_split_is_paper_form() {
    check_program("SP-4", SP);
}

#[test]
fn sp_sym_split_is_paper_form() {
    check_program(
        "SP-sym",
        &SP.replace(
            "!HPF$ processors p(2, 2)",
            "!HPF$ processors p(2, number_of_processors())",
        ),
    );
}

/// A vector aligned with `*` has one owner per processor column: its
/// local iterations are those whose element `m` owns a copy of.
#[test]
fn star_aligned_split_is_paper_form() {
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
fn cyclic_split_is_paper_form() {
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
  a(i) = b(i+1)
enddo
end
",
    );
}
