//! `SendCommMap` is `RecvCommMap` renamed.
//!
//! `comm_sets` builds only the receive side of Figure 3 and derives the
//! send side by exchanging the partner coordinates with `myid`. This suite
//! keeps the paper's two-sided send equation,
//! `SendCommMap(m) = LocalCommMap_read(m) ∪ NLCommMap_write(m)`, and checks
//! the rename against it for every statement reference of the five
//! shipped programs, at level 0 and at every level a reference can be
//! vectorized to:
//!
//! - on physical layouts, where every element has one owner, the two maps
//!   are equal as relations;
//! - on virtual-processor (symbolic BLOCK) layouts, fictitious VPs overlap
//!   real ones, so the two forms legitimately differ on fictitious
//!   partners; with the block size and processor count bound they must
//!   agree for every pair of real VPs, and at level 0 element by element;
//! - everywhere, `send_map` at `m = a`, partner `b` is `recv_map` at
//!   `m = b`, partner `a`.

use dhpf_core::cp::slice_context;
use dhpf_core::{
    build_layouts, collect_statements, comm_sets, cp_map_at_level, myid_set, CommRef, Layout,
    ProcCoord,
};
use dhpf_hpf::{analyze, parse};
use dhpf_omega::{OmegaError, Relation, Set};
use std::collections::HashSet;

const JACOBI: &str = include_str!("../../../benchmarks/jacobi.hpf");
const TOMCATV: &str = include_str!("../../../benchmarks/tomcatv.hpf");
const ERLEBACHER: &str = include_str!("../../../benchmarks/erlebacher.hpf");
const SP: &str = include_str!("../../../benchmarks/sp.hpf");

/// Figure 3's send equation, evaluated apart from the receive side.
fn two_sided_send(
    reads: &[CommRef],
    writes: &[CommRef],
    layout: &Layout,
) -> Result<Relation, OmegaError> {
    let proc_rank = layout.proc_rank();
    let me = myid_set(proc_rank);
    let owned_by_m = layout.rel.apply(&me)?;
    let others = Set::universe(proc_rank).subtract(&me)?;
    let data_rank = layout.rel.n_out();
    let mut send = Relation::empty(proc_rank, data_rank);
    // LocalCommMap_read(m): the data owned by m that each other p reads.
    for r in reads {
        let accessed = r.cp_map.then(&r.ref_map)?;
        send = send.union(
            &accessed
                .restrict_range(&owned_by_m)
                .restrict_domain(&others),
        );
    }
    // NLCommMap_write(m): the owner q of each non-local element m writes.
    for w in writes {
        let written = w.cp_map.then(&w.ref_map)?.apply(&me)?;
        let nl = written.subtract(&owned_by_m)?;
        send = send.union(&layout.rel.restrict_range(&nl).restrict_domain(&others));
    }
    send.simplify();
    Ok(send)
}

/// One program under test and the values that make its VP layouts
/// concrete: the processor count per symbolic dimension and every runtime
/// scalar the sets mention.
struct Program {
    name: &'static str,
    src: String,
    /// `(dimension, processor count, block size)` for each `BlockVp`
    /// dimension; the block size is the template extent over the count,
    /// rounded up, as the simulator binds it.
    vp: &'static [(usize, i64, i64)],
    scalars: &'static [(&'static str, i64)],
}

/// The data `map` pairs `me` with `partner`, with every parameter in
/// `bind` fixed. Loop variables above the event's level stay symbolic.
fn pair_data(map: &Relation, me: &[i64], partner: &[i64], bind: &[(String, i64)]) -> Set {
    let coords: Vec<String> = (0..partner.len()).map(|d| format!("p{d}")).collect();
    let eqs: Vec<String> = coords
        .iter()
        .zip(partner)
        .map(|(p, v)| format!("{p} = {v}"))
        .collect();
    let point: Set = format!("{{[{}] : {}}}", coords.join(","), eqs.join(" && "))
        .parse()
        .expect("partner point");
    let mut rel = map.restrict_domain(&point);
    for (d, &v) in me.iter().enumerate() {
        rel = rel.specialize_param(&format!("m{}", d + 1), v);
    }
    for (name, v) in bind {
        rel = rel.specialize_param(name, *v);
    }
    let mut data = rel.range().expect("range of a bound map");
    data.simplify();
    data
}

/// The processors a layout's grid really has, as `myid` values, and the
/// parameter bindings that make the layout concrete.
fn real_procs(layout: &Layout, prog: &Program) -> (Vec<Vec<i64>>, Vec<(String, i64)>) {
    let mut bind: Vec<(String, i64)> = prog
        .scalars
        .iter()
        .map(|&(k, v)| (k.to_string(), v))
        .collect();
    let mut axes: Vec<Vec<i64>> = Vec::new();
    for (d, coord) in layout.coords.iter().enumerate() {
        axes.push(match coord {
            ProcCoord::Physical { count } => (0..*count).collect(),
            ProcCoord::BlockVp { bsize, nproc } => {
                let &(_, np, bs) = prog
                    .vp
                    .iter()
                    .find(|&&(pd, _, _)| pd == d)
                    .unwrap_or_else(|| panic!("{}: no processor count for dim {d}", prog.name));
                bind.push((bsize.clone(), bs));
                bind.push((nproc.clone(), np));
                (0..np).map(|k| bs * k + 1).collect()
            }
            other => panic!("{}: {other:?} is not exercised", prog.name),
        });
    }
    let mut procs = vec![Vec::new()];
    for axis in &axes {
        procs = procs
            .iter()
            .flat_map(|p| {
                axis.iter().map(move |&v| {
                    let mut q = p.clone();
                    q.push(v);
                    q
                })
            })
            .collect();
    }
    (procs, bind)
}

fn check_program(prog: &Program) {
    let ast = parse(&prog.src).unwrap_or_else(|e| panic!("{}: {e}", prog.name));
    let a = analyze(&ast.units[0]).unwrap_or_else(|e| panic!("{}: {e}", prog.name));
    let layouts = build_layouts(&a);
    let stmts = collect_statements(&a);
    let mut seen = HashSet::new();
    // Non-vacuity: real pairs that exchange data, and elements compared
    // one by one.
    let (mut moving, mut elements) = (0usize, 0usize);
    for s in &stmts {
        let refs = s
            .reads
            .iter()
            .map(|r| (r, false))
            .chain(s.lhs.iter().map(|l| (l, true)));
        for (r, is_write) in refs {
            let layout = &layouts[&r.array];
            if layout.replicated {
                continue;
            }
            for level in 0..=s.ctx.depth() {
                let (cp_map, _) = cp_map_at_level(s, &layouts, level).unwrap();
                let ref_map = r.ref_map(&slice_context(&s.ctx, level));
                let key = format!("{} {is_write} {cp_map} {ref_map}", r.array);
                if !seen.insert(key) {
                    continue;
                }
                let what = format!(
                    "{}: {} {}({:?}) at level {level}",
                    prog.name,
                    if is_write { "write" } else { "read" },
                    r.array,
                    r.subs
                );
                let cr = [CommRef { cp_map, ref_map }];
                let (reads, writes): (&[CommRef], &[CommRef]) =
                    if is_write { (&[], &cr) } else { (&cr, &[]) };
                let sets = comm_sets(reads, writes, layout).unwrap();
                let two_sided = two_sided_send(reads, writes, layout).unwrap();
                let physical = layout
                    .coords
                    .iter()
                    .all(|c| matches!(c, ProcCoord::Physical { .. }));
                if physical {
                    assert!(
                        sets.send_map.equal(&two_sided).unwrap(),
                        "{what}: renamed send map\n  {}\ndiffers from the two-sided one\n  {two_sided}",
                        sets.send_map
                    );
                }
                let (procs, bind) = real_procs(layout, prog);
                for me in &procs {
                    for partner in procs.iter().filter(|&p| p != me) {
                        let sent = pair_data(&sets.send_map, me, partner, &bind);
                        let received = pair_data(&sets.recv_map, partner, me, &bind);
                        assert!(
                            sent.equal(&received).unwrap(),
                            "{what}: {me:?} sends {sent} to {partner:?}, which receives {received}"
                        );
                        moving += usize::from(!sent.is_empty());
                        if physical {
                            continue;
                        }
                        let paper = pair_data(&two_sided, me, partner, &bind);
                        assert!(
                            sent.equal(&paper).unwrap(),
                            "{what}: {me:?} -> {partner:?}: renamed {sent}, two-sided {paper}"
                        );
                        if sent.as_relation().params().is_empty() {
                            let got = sent.enumerate(&[]).unwrap();
                            assert_eq!(
                                got,
                                paper.enumerate(&[]).unwrap(),
                                "{what}: {me:?} -> {partner:?} enumerates differently"
                            );
                            elements += got.len();
                        }
                    }
                }
            }
        }
    }
    assert!(moving > 0, "{}: no real pair exchanges data", prog.name);
    assert!(
        prog.vp.is_empty() || elements > 0,
        "{}: no element was enumerated",
        prog.name
    );
}

#[test]
fn jacobi_send_is_recv_renamed() {
    check_program(&Program {
        name: "JACOBI",
        src: JACOBI.to_string(),
        vp: &[(1, 2, 64)],
        scalars: &[("niter", 2)],
    });
}

#[test]
fn tomcatv_send_is_recv_renamed() {
    check_program(&Program {
        name: "TOMCATV",
        src: TOMCATV.to_string(),
        vp: &[(0, 3, 86)],
        scalars: &[("niter", 2)],
    });
}

#[test]
fn erlebacher_send_is_recv_renamed() {
    check_program(&Program {
        name: "ERLEBACHER",
        src: ERLEBACHER.to_string(),
        vp: &[(0, 3, 11)],
        scalars: &[],
    });
}

#[test]
fn sp4_send_is_recv_renamed() {
    check_program(&Program {
        name: "SP-4",
        src: SP.to_string(),
        vp: &[],
        scalars: &[("n", 34), ("niter", 2)],
    });
}

#[test]
fn sp_sym_send_is_recv_renamed() {
    check_program(&Program {
        name: "SP-sym",
        src: SP.replace(
            "!HPF$ processors p(2, 2)",
            "!HPF$ processors p(2, number_of_processors())",
        ),
        vp: &[(1, 2, 17)],
        scalars: &[("n", 34), ("niter", 2)],
    });
}
