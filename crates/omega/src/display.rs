//! Pretty-printing of sets and relations in Omega syntax.

use crate::conjunct::Conjunct;
use crate::linexpr::LinExpr;
use crate::relation::Relation;
use crate::set::Set;
use crate::var::Var;
use std::fmt;

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        write_tuple(f, self.n_in(), &self.in_names, "i")?;
        if self.n_out() > 0 || !self.out_names.is_empty() {
            write!(f, " -> ")?;
            write_tuple(f, self.n_out(), &self.out_names, "o")?;
        }
        if self.conjuncts().is_empty() {
            write!(f, " : FALSE")?;
        } else {
            let all_universe = self.conjuncts().iter().all(|c| c.is_universe());
            if !all_universe {
                write!(f, " : ")?;
                for (k, c) in self.conjuncts().iter().enumerate() {
                    if k > 0 {
                        write!(f, " || ")?;
                    }
                    write_conjunct(f, c, self)?;
                }
            }
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_relation().fmt(f)
    }
}

fn write_tuple(f: &mut fmt::Formatter<'_>, n: u32, names: &[String], prefix: &str) -> fmt::Result {
    write!(f, "[")?;
    for k in 0..n {
        if k > 0 {
            write!(f, ",")?;
        }
        match names.get(k as usize) {
            Some(name) => write!(f, "{name}")?,
            None => write!(f, "{prefix}{k}")?,
        }
    }
    write!(f, "]")
}

fn var_name(v: Var, rel: &Relation) -> String {
    match v {
        Var::Param(i) => rel
            .params()
            .get(i as usize)
            .cloned()
            .unwrap_or_else(|| format!("P{i}")),
        Var::In(i) => rel
            .in_names
            .get(i as usize)
            .cloned()
            .unwrap_or_else(|| format!("i{i}")),
        Var::Out(i) => rel
            .out_names
            .get(i as usize)
            .cloned()
            .unwrap_or_else(|| format!("o{i}")),
        Var::Exist(i) => format!("a{i}"),
    }
}

fn write_conjunct(f: &mut fmt::Formatter<'_>, c: &Conjunct, rel: &Relation) -> fmt::Result {
    let used_exists: Vec<u32> = (0..c.n_exist())
        .filter(|&i| c.mentions(Var::Exist(i)))
        .collect();
    if !used_exists.is_empty() {
        write!(f, "exists(")?;
        for (k, i) in used_exists.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "a{i}")?;
        }
        write!(f, ": ")?;
    }
    let mut first = true;
    if c.is_universe() {
        write!(f, "TRUE")?;
        first = false;
    }
    for e in c.eqs() {
        if !first {
            write!(f, " && ")?;
        }
        first = false;
        write_cmp(f, e, "=", rel)?;
    }
    for e in c.geqs() {
        if !first {
            write!(f, " && ")?;
        }
        first = false;
        write_cmp(f, e, ">=", rel)?;
    }
    if !used_exists.is_empty() {
        write!(f, ")")?;
    }
    Ok(())
}

/// Writes `e op 0` in the friendlier split form `pos op neg`.
fn write_cmp(f: &mut fmt::Formatter<'_>, e: &LinExpr, op: &str, rel: &Relation) -> fmt::Result {
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for (v, c) in e.terms() {
        if c > 0 {
            pos.push((var_name(v, rel), c));
        } else {
            neg.push((var_name(v, rel), -c));
        }
    }
    let k = e.constant_term();
    let write_side =
        |f: &mut fmt::Formatter<'_>, terms: &[(String, i64)], konst: i64| -> fmt::Result {
            let mut first = true;
            for (name, c) in terms {
                if !first {
                    write!(f, " + ")?;
                }
                first = false;
                if *c == 1 {
                    write!(f, "{name}")?;
                } else {
                    write!(f, "{c}{name}")?;
                }
            }
            if konst != 0 || first {
                if !first {
                    write!(f, " + ")?;
                }
                write!(f, "{konst}")?;
            }
            Ok(())
        };
    write_side(f, &pos, if k > 0 { k } else { 0 })?;
    write!(f, " {op} ")?;
    write_side(f, &neg, if k < 0 { -k } else { 0 })
}

#[cfg(test)]
mod tests {
    use crate::{Relation, Set};

    #[test]
    fn roundtrip_display_parse() {
        let inputs = [
            "{[i] : 1 <= i <= 10}",
            "{[i,j] -> [p] : 25p <= j && j <= 25p + 24 && 1 <= i <= N}",
            "{[i] : 1 <= i <= 3 || 7 <= i <= 9}",
            "{[i] : exists(a : i = 4a + 1) && 0 <= i <= 20}",
        ];
        for src in inputs {
            let r: Relation = src.parse().unwrap();
            let printed = r.to_string();
            let back: Relation = printed.parse().unwrap_or_else(|e| {
                panic!("reparse of {printed:?} failed: {e}");
            });
            assert!(
                r.equal(&back).unwrap(),
                "display/parse roundtrip changed meaning: {src} -> {printed}"
            );
        }
    }

    #[test]
    fn displays_names() {
        let s: Set = "{[i,j] : i <= j}".parse().unwrap();
        let txt = s.to_string();
        assert!(txt.contains("[i,j]"), "{txt}");
        assert!(
            txt.contains("i <= j") || txt.contains("j >= i") || txt.contains(">="),
            "{txt}"
        );
    }

    #[test]
    fn empty_and_universe_render() {
        let e = Set::empty(1);
        assert!(e.to_string().contains("FALSE"));
        let u = Set::universe(2);
        assert_eq!(u.to_string(), "{[i0,i1]}");
    }
}
