//! Data layouts: `Layout: proc_k -> data_k` relations from ALIGN/DISTRIBUTE
//! directives, including the optimized virtual-processor model for symbolic
//! distribution parameters (paper §4.1).

use crate::ir::{affine_to_lin, ArrayRef};
use dhpf_hpf::{Affine, AlignMap, Analysis, DistFormat, ProcDim};
use dhpf_omega::{Conjunct, LinExpr, Relation, Var};

/// How one processor dimension is realized.
#[derive(Clone, Debug, PartialEq)]
pub enum ProcCoord {
    /// A physical processor dimension with a known extent; indices `0..count`.
    Physical {
        /// Number of processors.
        count: i64,
    },
    /// Virtual processors for a BLOCK distribution with symbolic parameters:
    /// VP `v` owns template cells `[v, v + B - 1]`; physical processor `m`
    /// (0-based) is VP `v = B*m + 1`. `B` is the named block-size parameter.
    BlockVp {
        /// Name of the symbolic block-size parameter.
        bsize: String,
        /// Name of the symbolic processor-count parameter.
        nproc: String,
    },
    /// Virtual processors for a CYCLIC distribution with a symbolic count:
    /// one VP per template cell; physical processor = `(v - 1) mod P`.
    CyclicVp {
        /// Name of the symbolic processor-count parameter.
        nproc: String,
    },
    /// Virtual processors for CYCLIC(K) with symbolic count: VP `v` owns
    /// template cells `[k(v-1)+1, k(v-1)+k]`; physical = `(v - 1) mod P`.
    CyclicKVp {
        /// Block factor `k`.
        k: i64,
        /// Name of the symbolic processor-count parameter.
        nproc: String,
    },
}

/// The layout of one array: which (possibly virtual) processor owns which
/// elements.
#[derive(Clone, Debug)]
pub struct Layout {
    /// Processor array name ("" for replicated data).
    pub proc_array: String,
    /// Realization of each processor dimension.
    pub coords: Vec<ProcCoord>,
    /// The relation `[p1..pr] -> [a1..ak]`.
    pub rel: Relation,
    /// True if the array is replicated (owned by every processor).
    pub replicated: bool,
}

impl Layout {
    /// Processor-space rank.
    pub fn proc_rank(&self) -> u32 {
        self.coords.len() as u32
    }
}

/// Builds the [`Layout`] for every array of the unit.
///
/// Arrays without an `ALIGN` to a distributed template are replicated.
/// Every template distributed onto the same processor arrangement shares
/// parameter names (`np<d>` for symbolic counts, `bs_<template><d>` for
/// symbolic block sizes) so that layouts compose in one space.
pub fn build_layouts(a: &Analysis) -> std::collections::BTreeMap<String, Layout> {
    a.arrays
        .iter()
        .map(|(name, info)| (name.clone(), build_layout(a, name, info)))
        .collect()
}

fn replicated_layout(a: &Analysis, info: &dhpf_hpf::ArrayInfo, proc_rank: u32) -> Layout {
    let rank = info.dims.len() as u32;
    let mut rel = Relation::universe(proc_rank, rank);
    let mut c = Conjunct::new();
    add_array_bounds(a, info, &mut rel, &mut c);
    rel.conjuncts_mut().clear();
    rel.add_conjunct(c);
    Layout {
        proc_array: String::new(),
        coords: (0..proc_rank)
            .map(|_| ProcCoord::Physical { count: 1 })
            .collect(),
        rel,
        replicated: true,
    }
}

fn add_array_bounds(
    _a: &Analysis,
    info: &dhpf_hpf::ArrayInfo,
    rel: &mut Relation,
    c: &mut Conjunct,
) {
    for (d, (lo, hi)) in info.dims.iter().enumerate() {
        let v = LinExpr::var(Var::Out(d as u32));
        let lo_e = affine_to_lin(lo, &[], rel);
        let hi_e = affine_to_lin(hi, &[], rel);
        c.add_geq(v.clone() - lo_e);
        c.add_geq(hi_e - v);
    }
}

fn build_layout(a: &Analysis, _name: &str, info: &dhpf_hpf::ArrayInfo) -> Layout {
    // Resolve array -> template -> distribution.
    let Some(align) = &info.align else {
        return replicated_layout(a, info, default_proc_rank(a));
    };
    let Some(template) = a.templates.get(&align.template) else {
        return replicated_layout(a, info, default_proc_rank(a));
    };
    let Some(dist) = &template.dist else {
        return replicated_layout(a, info, default_proc_rank(a));
    };
    let proc = &a.procs[&dist.onto];
    let proc_rank = proc.dims.len() as u32;
    let rank = info.dims.len() as u32;
    let mut rel = Relation::universe(proc_rank, rank)
        .with_in_names((0..proc_rank).map(|d| format!("p{}", d + 1)))
        .with_out_names((0..rank).map(|d| format!("a{}", d + 1)));
    let mut c = Conjunct::new();
    add_array_bounds(a, info, &mut rel, &mut c);
    let mut coords = Vec::new();
    // Walk template dimensions; each non-star distributed dim consumes the
    // next processor dimension.
    let mut pdim = 0u32;
    for (tdim, fmt) in dist.formats.iter().enumerate() {
        // Template index expression for this dim (an existential or an
        // affine function of the data indices).
        let t_expr: LinExpr = match &align.subs[tdim] {
            AlignMap::Affine { coeffs, constant } => {
                let mut e = LinExpr::constant(*constant);
                for (d, k) in coeffs.iter().enumerate() {
                    e.add_term(Var::Out(d as u32), *k);
                }
                e
            }
            AlignMap::Star => {
                // Free template coordinate within its extent.
                let alpha = c.fresh_exist();
                let ext = affine_to_lin(&template.extents[tdim], &[], &mut rel);
                c.add_geq(LinExpr::var(alpha) - LinExpr::constant(1));
                c.add_geq(ext - LinExpr::var(alpha));
                LinExpr::var(alpha)
            }
        };
        if matches!(fmt, DistFormat::Star) {
            // Not distributed: constrain only to template range (implied by
            // array bounds for affine aligns; nothing to add).
            continue;
        }
        let p = LinExpr::var(Var::In(pdim));
        let extent = template.extents[tdim].clone();
        let ext_const = extent.as_const();
        let known = match proc.dims[pdim as usize] {
            ProcDim::Known(n) => Some(n),
            ProcDim::Symbolic => None,
        };
        let coord = match (fmt, known, ext_const) {
            (DistFormat::Block, Some(np), Some(n)) => {
                // Physical block: B = ceil(N/P); B*p + 1 <= t <= B*p + B.
                let b = (n + np - 1) / np;
                c.add_geq(t_expr.clone() - p.scaled(b) - LinExpr::constant(1));
                c.add_geq(p.scaled(b) + LinExpr::constant(b) - t_expr.clone());
                c.add_geq(p.clone());
                c.add_geq(LinExpr::constant(np - 1) - p.clone());
                ProcCoord::Physical { count: np }
            }
            (DistFormat::Block, _, _) => {
                // Virtual block: v <= t <= v + B - 1, 1 <= v <= N.
                let bs = format!("bs{}", pdim + 1);
                let npn = format!("np{}", pdim + 1);
                let b = rel.param_var(&bs);
                let ext = affine_to_lin(&extent, &[], &mut rel);
                c.add_geq(t_expr.clone() - p.clone());
                c.add_geq(p.clone() + b - LinExpr::constant(1) - t_expr.clone());
                c.add_geq(p.clone() - LinExpr::constant(1));
                c.add_geq(ext - p.clone());
                ProcCoord::BlockVp {
                    bsize: bs,
                    nproc: npn,
                }
            }
            (DistFormat::Cyclic, Some(np), _) => {
                // t - 1 ≡ p (mod P), 0 <= p < P.
                c.add_stride(t_expr.clone() - LinExpr::constant(1) - p.clone(), np);
                c.add_geq(p.clone());
                c.add_geq(LinExpr::constant(np - 1) - p.clone());
                ProcCoord::Physical { count: np }
            }
            (DistFormat::Cyclic, None, _) => {
                // One VP per template cell: v = t.
                let npn = format!("np{}", pdim + 1);
                rel.ensure_param(&npn);
                c.add_eq(t_expr.clone() - p.clone());
                ProcCoord::CyclicVp { nproc: npn }
            }
            (DistFormat::CyclicK(k), Some(np), _) => {
                // exists a, r: t - 1 = k*P*a + k*p + r, 0 <= r < k.
                let alpha = c.fresh_exist();
                let r = c.fresh_exist();
                c.add_eq(
                    t_expr.clone()
                        - LinExpr::constant(1)
                        - LinExpr::term(alpha, k * np)
                        - p.scaled(*k)
                        - LinExpr::var(r),
                );
                c.add_geq(LinExpr::var(r));
                c.add_geq(LinExpr::constant(k - 1) - LinExpr::var(r));
                c.add_geq(LinExpr::var(alpha));
                c.add_geq(p.clone());
                c.add_geq(LinExpr::constant(np - 1) - p.clone());
                ProcCoord::Physical { count: np }
            }
            (DistFormat::CyclicK(k), None, _) => {
                // VP v owns cells [k(v-1)+1, kv].
                let npn = format!("np{}", pdim + 1);
                rel.ensure_param(&npn);
                c.add_geq(t_expr.clone() - p.scaled(*k) + LinExpr::constant(*k - 1));
                c.add_geq(p.scaled(*k) - t_expr.clone());
                c.add_geq(p.clone() - LinExpr::constant(1));
                ProcCoord::CyclicKVp { k: *k, nproc: npn }
            }
            (DistFormat::Star, _, _) => unreachable!(),
        };
        coords.push(coord);
        pdim += 1;
    }
    rel.conjuncts_mut().clear();
    rel.add_conjunct(c);
    Layout {
        proc_array: dist.onto.clone(),
        coords,
        rel,
        replicated: false,
    }
}

/// The template cells a reference touches, read off its array's `ALIGN`:
/// the template, and on each *distributed* template dimension, in order,
/// the cell `constant + Σ coeffs[d]·subs[d]` as an affine form of the
/// reference's loop variables and symbols. `None` when the array is not
/// aligned to a distributed template or is `*`-aligned on a distributed
/// dimension (it then has no single cell there).
fn home_cells<'a>(a: &'a Analysis, r: &ArrayRef) -> Option<(&'a str, Vec<Affine>)> {
    let align = a.arrays.get(&r.array)?.align.as_ref()?;
    let dist = a.templates.get(&align.template)?.dist.as_ref()?;
    let cells = dist
        .formats
        .iter()
        .zip(&align.subs)
        .filter(|(fmt, _)| !matches!(fmt, DistFormat::Star))
        .map(|(_, map)| match map {
            AlignMap::Affine { coeffs, constant } => Some(
                coeffs
                    .iter()
                    .zip(&r.subs)
                    .fold(Affine::constant(*constant), |cell, (k, s)| {
                        cell.add_scaled(s, *k)
                    }),
            ),
            AlignMap::Star => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some((&align.template, cells))
}

/// The syntactic locality test run before the Figure 3 equations: `read`
/// is local to every processor that executes its statement when the
/// statement has an effective ON_HOME term (`homes`, see
/// [`crate::cp::effective_on_home`]) and the read and every term touch the
/// same cells of the same template. A template cell has one set of
/// owners, so the element read lives where the statement runs.
/// `false` means undecided, not non-local: the equations decide those.
pub fn is_local_read(a: &Analysis, read: &ArrayRef, homes: &[ArrayRef]) -> bool {
    let Some(cells) = home_cells(a, read) else {
        return false;
    };
    !homes.is_empty()
        && homes
            .iter()
            .all(|h| home_cells(a, h).is_some_and(|c| c == cells))
}

/// Rank of the (single) processor arrangement of the unit, defaulting to 1.
pub fn default_proc_rank(a: &Analysis) -> u32 {
    a.procs
        .values()
        .map(|p| p.dims.len() as u32)
        .max()
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhpf_hpf::{analyze, parse};

    const FIG2: &str = "
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
    a(i,j) = b(j-1,i)
  enddo
enddo
end
";

    #[test]
    fn figure2_layout_a() {
        // Layout_A = {[p] -> [a1,a2] : max(25p-1, 0) <= a1 <= min(25p+23, 99), ...}
        // Template dim 2 (distributed BLOCK on 4 procs, extent 100): B = 25,
        // t2 = a2 (align A(i,j) -> t(i+1,j)): so 25p+1 <= a2 <= 25p+25.
        let prog = parse(FIG2).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let la = &layouts["a"];
        assert!(!la.replicated);
        assert_eq!(la.coords, vec![ProcCoord::Physical { count: 4 }]);
        // Processor 1 owns a2 in [26, 50] (a1 spans full 0..99).
        assert!(la.rel.contains_pair(&[1], &[0, 26], &[]));
        assert!(la.rel.contains_pair(&[1], &[99, 50], &[]));
        assert!(!la.rel.contains_pair(&[1], &[0, 25], &[]));
        assert!(!la.rel.contains_pair(&[1], &[0, 51], &[]));
        // Paper: Layout_A(p) = { max(25p+1,1) <= a2 <= min(25p+25, 100) } with
        // 0-based p. Check p = 0 and p = 3 edges.
        assert!(la.rel.contains_pair(&[0], &[5, 1], &[]));
        assert!(la.rel.contains_pair(&[3], &[5, 100], &[]));
        assert!(!la.rel.contains_pair(&[4], &[5, 100], &[]));
    }

    #[test]
    fn figure2_layout_b_star_alignment() {
        // B(i,j) aligned with t(*, i): owner of b depends only on b1 (= i);
        // 25p+1 <= b1 <= 25p+25.
        let prog = parse(FIG2).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let lb = &layouts["b"];
        assert!(lb.rel.contains_pair(&[2], &[51, 1], &[]));
        assert!(lb.rel.contains_pair(&[2], &[75, 100], &[]));
        assert!(!lb.rel.contains_pair(&[2], &[76, 1], &[]));
    }

    #[test]
    fn symbolic_block_uses_vp_model() {
        let src = "
program s
real a(100)
!HPF$ processors q(number_of_processors())
!HPF$ template t(100)
!HPF$ align a(i) with t(i)
!HPF$ distribute t(block) onto q
a(1) = 0.0
end
";
        let prog = parse(src).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let la = &layouts["a"];
        assert!(matches!(&la.coords[0], ProcCoord::BlockVp { .. }));
        // With B = 25 bound: VP v owns [v, v+24]; physical m=1 is v=26.
        assert!(la
            .rel
            .contains_pair(&[26], &[26], &[("bs1", 25), ("np1", 4)]));
        assert!(la
            .rel
            .contains_pair(&[26], &[50], &[("bs1", 25), ("np1", 4)]));
        assert!(!la
            .rel
            .contains_pair(&[26], &[51], &[("bs1", 25), ("np1", 4)]));
    }

    #[test]
    fn cyclic_layout() {
        let src = "
program s
real a(16)
!HPF$ processors q(4)
!HPF$ template t(16)
!HPF$ align a(i) with t(i)
!HPF$ distribute t(cyclic) onto q
a(1) = 0.0
end
";
        let prog = parse(src).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let layouts = build_layouts(&a);
        let la = &layouts["a"];
        // proc 1 owns 2, 6, 10, 14 (1-based template, 0-based procs).
        for x in 1..=16i64 {
            let owned = la.rel.contains_pair(&[1], &[x], &[]);
            assert_eq!(owned, (x - 1).rem_euclid(4) == 1, "x = {x}");
        }
    }

    #[test]
    fn cyclic_k_layout() {
        let src = "
program s
real a(16)
!HPF$ processors q(2)
!HPF$ template t(16)
!HPF$ align a(i) with t(i)
!HPF$ distribute t(cyclic(3)) onto q
a(1) = 0.0
end
";
        let prog = parse(src).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let la = &build_layouts(&a)["a"].clone();
        // blocks of 3 dealt round-robin to 2 procs:
        // proc0: 1-3, 7-9, 13-15; proc1: 4-6, 10-12, 16.
        for x in 1..=16i64 {
            let owned0 = la.rel.contains_pair(&[0], &[x], &[]);
            let blk = (x - 1) / 3;
            assert_eq!(owned0, blk % 2 == 0, "x = {x}");
        }
    }

    #[test]
    fn unaligned_array_is_replicated() {
        let src = "
program s
real a(10)
a(1) = 0.0
end
";
        let prog = parse(src).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let la = &build_layouts(&a)["a"];
        assert!(la.replicated);
    }
}
