//! Pseudo-Fortran emission of generated code, for inspection and examples.

use crate::ast::{Code, StmtId};
use std::fmt::Write as _;

/// Renders `code` as indented pseudo-Fortran.
///
/// `stmt_text` maps each [`StmtId`] to its source text.
///
/// # Examples
///
/// ```
/// use dhpf_codegen::{codegen_set, CodegenOptions, StmtId, emit_fortran};
/// use dhpf_omega::Set;
///
/// let s: Set = "{[i] : 1 <= i <= N}".parse().unwrap();
/// let code = codegen_set(&s, StmtId(0), &["i"], &CodegenOptions::default()).unwrap();
/// let text = emit_fortran(&code, &|_| "A(i) = 0".to_string());
/// assert!(text.contains("do i = 1, N"));
/// ```
pub fn emit_fortran(code: &Code, stmt_text: &dyn Fn(StmtId) -> String) -> String {
    let mut out = String::new();
    emit(code, stmt_text, 0, &mut out);
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn emit(code: &Code, stmt_text: &dyn Fn(StmtId) -> String, depth: usize, out: &mut String) {
    match code {
        Code::Seq(cs) => {
            for c in cs {
                emit(c, stmt_text, depth, out);
            }
        }
        Code::Loop {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            indent(out, depth);
            if *step == 1 {
                let _ = writeln!(out, "do {var} = {lo}, {hi}");
            } else {
                let _ = writeln!(out, "do {var} = {lo}, {hi}, {step}");
            }
            emit(body, stmt_text, depth + 1, out);
            indent(out, depth);
            out.push_str("end do\n");
        }
        Code::If { cond, body } => {
            indent(out, depth);
            let _ = writeln!(out, "if ({cond}) then");
            emit(body, stmt_text, depth + 1, out);
            indent(out, depth);
            out.push_str("end if\n");
        }
        Code::Stmt(id) => {
            indent(out, depth);
            let _ = writeln!(out, "{}", stmt_text(*id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Code, StmtId};
    use crate::expr::{Cond, Expr};

    #[test]
    fn emits_nested_structure() {
        let code = Code::Loop {
            var: "i".into(),
            lo: Expr::Const(1),
            hi: Expr::Var("N".into()),
            step: 2,
            body: Box::new(Code::If {
                cond: Cond::Geq(Expr::Var("i".into()), Expr::Const(3)),
                body: Box::new(Code::Seq(vec![
                    Code::Stmt(StmtId(0)),
                    Code::Stmt(StmtId(1)),
                ])),
            }),
        };
        let txt = emit_fortran(&code, &|id| format!("call work({})", id.0));
        let expect =
            "do i = 1, N, 2\n  if (i >= 3) then\n    call work(0)\n    call work(1)\n  end if\nend do\n";
        assert_eq!(txt, expect);
    }
}
