//! Generated loop nests must enumerate exactly the tuples of the input
//! sets, in lexicographic order, with same-tuple statements in source order.
//! With `sequential_pieces` each disjoint piece is its own loop nest, so
//! only the enumerated *set* is pinned: every tuple exactly once.
//! `codegen_cover` pins less again: every tuple at least once, and every
//! visit a member of the set.

use dhpf_codegen::{
    codegen, codegen_cover, codegen_set, Code, CodegenOptions, Env, Mapping, StmtId,
};
use dhpf_omega::testing::Rng;
use dhpf_omega::Set;

fn run(code: &Code, params: &[(&str, i64)]) -> Vec<(usize, Vec<i64>)> {
    run_named(code, params, &["i", "j"])
}

/// Runs `code` by name with `params` bound, and records each statement
/// instance with the bound values of `names`.
fn run_named(code: &Code, params: &[(&str, i64)], names: &[&str]) -> Vec<(usize, Vec<i64>)> {
    fn walk(code: &Code, env: &mut Env, names: &[&str], out: &mut Vec<(usize, Vec<i64>)>) {
        match code {
            Code::Seq(cs) => cs.iter().for_each(|c| walk(c, env, names, out)),
            Code::Loop {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let (lo, hi) = (lo.eval(env).unwrap(), hi.eval(env).unwrap());
                for x in (lo..=hi).step_by(*step as usize) {
                    env.insert(var.clone(), x);
                    walk(body, env, names, out);
                }
                env.remove(var);
            }
            Code::If { cond, body } => {
                if cond.eval(env).unwrap() {
                    walk(body, env, names, out);
                }
            }
            Code::Stmt(id) => {
                let tuple = names.iter().filter_map(|n| env.get(*n).copied());
                out.push((id.0, tuple.collect()));
            }
        }
    }
    let mut env: Env = params.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    let mut out = Vec::new();
    walk(code, &mut env, names, &mut out);
    out
}

/// Checks the code generated for `s` in both modes against
/// `Set::enumerate`: the shared nest in lexicographic order, and the
/// per-piece nests (sorted) with each tuple exactly once.
fn expect_enumeration(s: &Set, params: &[(&str, i64)], names: &[&str], what: &str) {
    let mut want = s.enumerate(params).unwrap();
    want.sort();
    for sequential_pieces in [false, true] {
        let opts = CodegenOptions { sequential_pieces };
        let code = codegen_set(s, StmtId(0), names, &opts).unwrap();
        let mut got: Vec<Vec<i64>> = run_named(&code, params, names)
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        if sequential_pieces {
            got.sort();
        }
        assert_eq!(
            got, want,
            "{what} params {params:?} sequential_pieces={sequential_pieces}"
        );
    }
}

/// Checks `codegen_cover` on `s` (simplified first, as the contract asks)
/// against `Set::enumerate`: every visit is a member, and the visits,
/// sorted and deduplicated, are the whole set.
fn expect_cover(s: &Set, params: &[(&str, i64)], names: &[&str], what: &str) {
    let mut want = s.enumerate(params).unwrap();
    want.sort();
    let mut simplified = s.clone();
    simplified.simplify();
    let code = codegen_cover(&simplified, StmtId(0), names).unwrap();
    let mut got: Vec<Vec<i64>> = run_named(&code, params, names)
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    for t in &got {
        assert!(s.contains(t, params), "{what}: visited non-member {t:?}");
    }
    got.sort();
    got.dedup();
    assert_eq!(got, want, "{what} params {params:?} cover");
}

fn expect_set(src: &str, params: &[(&str, i64)], names: &[&str]) {
    let s: Set = src.parse().unwrap();
    expect_enumeration(&s, params, names, &format!("set {src}"));
}

#[test]
fn triangular_space() {
    expect_set(
        "{[i,j] : 1 <= i <= N && i <= j <= N}",
        &[("N", 5)],
        &["i", "j"],
    );
}

#[test]
fn union_of_disjoint_boxes() {
    expect_set("{[i] : 1 <= i <= 3 || 7 <= i <= 9}", &[], &["i"]);
}

#[test]
fn overlapping_union_not_double_counted() {
    expect_set("{[i] : 1 <= i <= 6 || 4 <= i <= 9}", &[], &["i"]);
}

#[test]
fn strided_space_uses_step_or_guard() {
    expect_set(
        "{[i] : 1 <= i <= 20 && exists(a : i = 3a + 2)}",
        &[],
        &["i"],
    );
}

#[test]
fn block_distribution_space() {
    // Iterations owned by processor p of a BLOCK(25) distribution.
    expect_set(
        "{[i] : 25p + 1 <= i <= 25p + 25 && 1 <= i <= N}",
        &[("p", 2), ("N", 60)],
        &["i"],
    );
}

#[test]
fn cyclic_distribution_space() {
    // i ≡ p (mod 4), symbolic in nothing else.
    expect_set(
        "{[i] : 0 <= i <= 30 && exists(a : i = 4a + p)}",
        &[("p", 3)],
        &["i"],
    );
}

#[test]
fn cover_of_overlapping_union() {
    let s: Set = "{[i] : 1 <= i <= 6 || 4 <= i <= 9}".parse().unwrap();
    expect_cover(&s, &[], &["i"], "overlapping union");
    // No disjointness pass: 4..=6 lies in both conjuncts and is visited
    // twice.
    let code = codegen_cover(&s, StmtId(0), &["i"]).unwrap();
    assert_eq!(run(&code, &[]).len(), 12);
}

#[test]
fn cover_of_stencil_shift_union() {
    // A comm-map shape: partner q's block [4q, 4q+3] extended by one
    // element to the right in one conjunct and to the left in the other,
    // clipped to the array [0, N]. The two overlap on the whole block.
    let s: Set = "{[q,d] : 0 <= q <= 3 && 4q <= d <= 4q + 4 && d <= N \
                  || 0 <= q <= 3 && 4q - 1 <= d <= 4q + 3 && 0 <= d}"
        .parse()
        .unwrap();
    for n in [0, 7, 14, 20] {
        expect_cover(&s, &[("N", n)], &["q", "d"], "stencil shift");
    }
}

#[test]
fn cover_of_stride_set() {
    let s: Set = "{[i] : 1 <= i <= 20 && exists(a : i = 3a + 2) || 5 <= i <= 8}"
        .parse()
        .unwrap();
    expect_cover(&s, &[], &["i"], "stride set");
}

#[test]
fn cover_of_empty_set_visits_nothing() {
    let s: Set = "{[i] : 1 <= i && i <= 0}".parse().unwrap();
    expect_cover(&s, &[], &["i"], "empty set");
}

#[test]
fn equality_defined_dimension() {
    expect_set("{[i,j] : 1 <= i <= 8 && j = 2i + 1}", &[], &["i", "j"]);
}

#[test]
fn empty_space_generates_no_statements() {
    let s: Set = "{[i] : 1 <= i && i <= 0}".parse().unwrap();
    let code = codegen_set(&s, StmtId(0), &["i"], &CodegenOptions::default()).unwrap();
    assert!(run(&code, &[]).is_empty());
}

#[test]
fn multi_statement_lexicographic_interleaving() {
    // S0 over [2,5], S1 over [4,8]: within the shared range, S0 precedes S1
    // at each tuple; overall order is lexicographic on the tuple.
    let a: Set = "{[i] : 2 <= i <= 5}".parse().unwrap();
    let b: Set = "{[i] : 4 <= i <= 8}".parse().unwrap();
    let code = codegen(
        &[
            Mapping {
                stmt: StmtId(0),
                space: a,
            },
            Mapping {
                stmt: StmtId(1),
                space: b,
            },
        ],
        &["i"],
        &CodegenOptions::default(),
    )
    .unwrap();
    let got = run(&code, &[]);
    let mut want = Vec::new();
    for i in 2..=8i64 {
        if (2..=5).contains(&i) {
            want.push((0usize, vec![i]));
        }
        if (4..=8).contains(&i) {
            want.push((1usize, vec![i]));
        }
    }
    assert_eq!(got, want);
}

#[test]
fn multi_statement_2d() {
    let a: Set = "{[i,j] : 1 <= i <= 3 && 1 <= j <= 2}".parse().unwrap();
    let b: Set = "{[i,j] : 2 <= i <= 4 && 2 <= j <= 3}".parse().unwrap();
    let code = codegen(
        &[
            Mapping {
                stmt: StmtId(0),
                space: a.clone(),
            },
            Mapping {
                stmt: StmtId(1),
                space: b.clone(),
            },
        ],
        &["i", "j"],
        &CodegenOptions::default(),
    )
    .unwrap();
    let got = run(&code, &[]);
    // Build the expected lexicographic interleaving.
    let mut want = Vec::new();
    for i in 1..=4i64 {
        for j in 1..=3i64 {
            if a.contains(&[i, j], &[]) {
                want.push((0usize, vec![i, j]));
            }
            if b.contains(&[i, j], &[]) {
                want.push((1usize, vec![i, j]));
            }
        }
    }
    assert_eq!(got, want);
}

#[test]
fn symbolic_bounds_emit_min_max() {
    let s: Set = "{[i] : 1 <= i <= N && i <= M}".parse().unwrap();
    let code = codegen_set(&s, StmtId(0), &["i"], &CodegenOptions::default()).unwrap();
    for n in 0..6i64 {
        for m in 0..6i64 {
            let got: Vec<i64> = run(&code, &[("N", n), ("M", m)])
                .into_iter()
                .map(|(_, t)| t[0])
                .collect();
            let want: Vec<i64> = (1..=n.min(m)).collect();
            assert_eq!(got, want, "N={n} M={m}");
        }
    }
}

#[test]
fn random_1d_unions_enumerate_exactly() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed);
        let n_ranges = rng.range(1, 3) as usize;
        let mut parts: Vec<String> = (0..n_ranges)
            .map(|_| {
                let a = rng.range(0, 11);
                let b = rng.range(0, 11);
                format!("{} <= i <= {}", a.min(b), a.max(b))
            })
            .collect();
        if rng.chance(1, 2) {
            let m = rng.range(2, 3);
            let r = rng.range(0, 1) % m;
            parts[0] = format!("{} && exists(q : i = {}q + {})", parts[0], m, r);
        }
        let src = format!("{{[i] : {}}}", parts.join(" || "));
        let s: Set = src.parse().unwrap();
        expect_enumeration(&s, &[], &["i"], &format!("seed {seed} source {src}"));
        expect_cover(&s, &[], &["i"], &format!("seed {seed} source {src}"));
    }
}

#[test]
fn random_2d_spaces_enumerate_exactly() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed);
        let (i0, i1) = (rng.range(0, 7), rng.range(0, 7));
        let (j0, j1) = (rng.range(0, 7), rng.range(0, 7));
        let mut src = format!(
            "{{[i,j] : {} <= i <= {} && {} <= j <= {}",
            i0.min(i1),
            i0.max(i1),
            j0.min(j1),
            j0.max(j1)
        );
        if rng.chance(1, 2) {
            src.push_str(" && i <= j");
        }
        // A second, possibly overlapping box makes a multi-piece space.
        if rng.chance(1, 2) {
            let (i0, i1) = (rng.range(0, 7), rng.range(0, 7));
            let (j0, j1) = (rng.range(0, 7), rng.range(0, 7));
            src.push_str(&format!(
                " || {} <= i <= {} && {} <= j <= {}",
                i0.min(i1),
                i0.max(i1),
                j0.min(j1),
                j0.max(j1)
            ));
        }
        src.push('}');
        let s: Set = src.parse().unwrap();
        expect_enumeration(&s, &[], &["i", "j"], &format!("seed {seed} source {src}"));
        expect_cover(&s, &[], &["i", "j"], &format!("seed {seed} source {src}"));
    }
}
