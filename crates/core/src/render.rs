//! Renders a compiled [`SpmdProgram`] as a readable pseudo-Fortran rank
//! program: the `code` artifact of a [`CompileRequest`](crate::CompileRequest).
//!
//! The listing is what one rank executes — partitioned nests come out as
//! the generated loop/guard structure (via `dhpf_codegen::emit_fortran`)
//! with communication events as `call comm_send/comm_recv` markers, serial
//! statements and time loops are unparsed back to source form, and a
//! trailing appendix describes each communication event. It is meant for
//! human inspection and golden-file diffs, not recompilation.

use crate::spmd::{NestItem, NestOp, SpmdItem, SpmdProgram};
use dhpf_codegen::emit_fortran;
use dhpf_hpf::{expr_str, stmt_str};
use std::fmt::Write as _;

/// Renders the whole program as indented pseudo-Fortran.
pub fn render_program(p: &SpmdProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "! SPMD rank program: {}", p.name);
    let dims: Vec<String> = p
        .proc_dims
        .iter()
        .map(|d| match &d.coord {
            crate::layout::ProcCoord::Physical { count } => count.to_string(),
            other => format!("{other:?}"),
        })
        .collect();
    if !dims.is_empty() {
        let _ = writeln!(out, "! processors: ({})", dims.join(", "));
    }
    for (name, spec) in &p.arrays {
        let ds: Vec<String> = spec
            .dims
            .iter()
            .map(|(lo, hi)| format!("{}:{}", affine_str(lo), affine_str(hi)))
            .collect();
        let local = if spec.owned_code.is_some() {
            "distributed"
        } else {
            "replicated"
        };
        let _ = writeln!(out, "! array {name}({}) — {local}", ds.join(", "));
    }
    if !p.inputs.is_empty() {
        let _ = writeln!(out, "! inputs: {}", p.inputs.join(", "));
    }
    for item in &p.items {
        render_item(item, 0, &mut out);
    }
    if !p.events.is_empty() {
        out.push_str("!\n! communication events:\n");
        for e in &p.events {
            let _ = writeln!(
                out,
                "!   event {}: array {}, level {}, {}",
                e.id,
                e.array,
                e.level,
                if e.contiguous {
                    "contiguous (in-place)"
                } else {
                    "packed"
                }
            );
        }
    }
    out
}

fn affine_str(a: &dhpf_hpf::Affine) -> String {
    let mut s = String::new();
    for (name, coef) in &a.terms {
        match *coef {
            1 if s.is_empty() => s.push_str(name),
            1 => {
                let _ = write!(s, " + {name}");
            }
            -1 => {
                let _ = write!(s, "{}{name}", if s.is_empty() { "-" } else { " - " });
            }
            c if s.is_empty() => {
                let _ = write!(s, "{c}*{name}");
            }
            c if c < 0 => {
                let _ = write!(s, " - {}*{name}", -c);
            }
            c => {
                let _ = write!(s, " + {c}*{name}");
            }
        }
    }
    if s.is_empty() {
        return a.constant.to_string();
    }
    match a.constant {
        0 => {}
        c if c < 0 => {
            let _ = write!(s, " - {}", -c);
        }
        c => {
            let _ = write!(s, " + {c}");
        }
    }
    s
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_item(item: &SpmdItem, depth: usize, out: &mut String) {
    match item {
        SpmdItem::Serial(s) => out.push_str(&stmt_str(s, depth)),
        SpmdItem::SerialLoop {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            indent(out, depth);
            let _ = write!(out, "do {var} = {}, {}", expr_str(lo), expr_str(hi));
            if let Some(step) = step {
                let _ = write!(out, ", {}", expr_str(step));
            }
            out.push('\n');
            for b in body {
                render_item(b, depth + 1, out);
            }
            indent(out, depth);
            out.push_str("enddo\n");
        }
        SpmdItem::Nest(nest) => render_nest(nest, depth, out),
    }
}

fn render_nest(nest: &NestItem, depth: usize, out: &mut String) {
    let text = emit_fortran(&nest.code, &|id| nest_op_text(nest, id.0));
    for line in text.lines() {
        indent(out, depth);
        out.push_str(line);
        out.push('\n');
    }
    for r in &nest.reductions {
        indent(out, depth);
        let _ = writeln!(out, "call reduce_{:?}({})", r.op, r.scalar);
    }
}

fn nest_op_text(nest: &NestItem, id: usize) -> String {
    match nest.ops.get(id) {
        Some(NestOp::Assign(s)) => {
            let target = if s.subs.is_empty() {
                s.lhs.clone()
            } else {
                let subs: Vec<String> = s.subs.iter().map(expr_str).collect();
                format!("{}({})", s.lhs, subs.join(","))
            };
            let body = format!("{target} = {}", expr_str(&s.rhs));
            if s.guards.is_empty() {
                body
            } else {
                let gs: Vec<String> = s.guards.iter().map(expr_str).collect();
                format!("if ({}) {body}", gs.join(" .and. "))
            }
        }
        Some(NestOp::CommSend(e)) => format!("call comm_send({e})"),
        Some(NestOp::CommRecv(e)) => format!("call comm_recv({e})"),
        None => format!("! unknown op {id}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile, CompileOptions};

    const JACOBI: &str = "
program jacobi
real a(64,64), b(64,64)
integer iter
!HPF$ processors p(4)
!HPF$ template t(64,64)
!HPF$ align a(i,j) with t(i,j)
!HPF$ align b(i,j) with t(i,j)
!HPF$ distribute t(block,*) onto p
do iter = 1, 3
  do i = 2, 63
    do j = 2, 63
      a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))
    enddo
  enddo
enddo
end
";

    #[test]
    fn renders_nests_comm_and_structure() {
        let c = compile(JACOBI, &CompileOptions::default()).unwrap();
        let text = render_program(&c.program);
        assert!(text.contains("! SPMD rank program: jacobi"), "{text}");
        assert!(text.contains("do iter = 1, 3"), "{text}");
        assert!(text.contains("call comm_send(0)"), "{text}");
        assert!(text.contains("call comm_recv(0)"), "{text}");
        assert!(text.contains("a(i,j) ="), "{text}");
        assert!(text.contains("! communication events:"), "{text}");
    }

    #[test]
    fn renders_a_serial_loop_step_only_when_given() {
        let src = JACOBI.replace("do iter = 1, 3", "do iter = 3, 1, -1");
        let c = compile(&src, &CompileOptions::default()).unwrap();
        let text = render_program(&c.program);
        assert!(text.contains("do iter = 3, 1, -1\n"), "{text}");
        let c = compile(JACOBI, &CompileOptions::default()).unwrap();
        assert!(render_program(&c.program).contains("do iter = 1, 3\n"));
    }
}
