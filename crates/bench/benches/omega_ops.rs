//! Microbenchmarks of the integer-set substrate: the operations that
//! dominate the compiler's analysis time (intersection, difference,
//! satisfiability, composition) on representative HPF constraint systems.
//!
//! Run with `cargo bench -p dhpf-bench --bench omega_ops`.

use dhpf_bench::timing::bench;
use dhpf_omega::{Relation, Set};
use std::hint::black_box;

fn block_layout() -> Relation {
    "{[p] -> [a] : 25p + 1 <= a <= 25p + 25 && 1 <= a <= 100 && 0 <= p <= 3}"
        .parse()
        .unwrap()
}

fn vp_layout() -> Relation {
    "{[v] -> [a] : v <= a <= v + bs - 1 && 1 <= a <= n && 1 <= v <= n}"
        .parse()
        .unwrap()
}

fn main() {
    let iter: Set = "{[i] : 1 <= i <= n}".parse().unwrap();
    let refmap: Relation = "{[i] -> [a] : a = i + 1}".parse().unwrap();
    let me: Set = "{[p] : p = m}".parse().unwrap();

    {
        let layout = block_layout();
        bench("compose refmap with block layout", 200, || {
            black_box(refmap.then(&layout.inverse()).unwrap())
        });
    }

    {
        let layout = block_layout();
        let cp = layout.restrict_range(&refmap.restrict_domain(&iter).range().unwrap());
        bench("apply + subtract (nl data set, fixed P)", 100, || {
            let accessed = cp.apply(&me).unwrap();
            let owned = layout.apply(&me).unwrap();
            black_box(accessed.subtract(&owned).unwrap())
        });
    }

    {
        let layout = vp_layout();
        let cp = layout.restrict_range(&refmap.restrict_domain(&iter).range().unwrap());
        bench("apply + subtract (nl data set, symbolic P)", 100, || {
            let accessed = cp.apply(&me).unwrap();
            let owned = layout.apply(&me).unwrap();
            black_box(accessed.subtract(&owned).unwrap())
        });
    }

    {
        let s: Set = "{[i] : 1 <= i <= 1000 && exists(a : i = 7a + 3) && exists(b : i = 5b + 2)}"
            .parse()
            .unwrap();
        bench("satisfiability with strides", 200, || {
            black_box(s.as_relation().is_satisfiable())
        });
    }

    {
        let a: Set = "{[i] : 1 <= i <= n && exists(q : i = 4q + 1)}"
            .parse()
            .unwrap();
        let bs: Set = "{[i] : 1 <= i <= n}".parse().unwrap();
        bench("emptiness of aligned difference", 200, || {
            black_box(a.subtract(&bs).unwrap().is_empty())
        });
    }
}
