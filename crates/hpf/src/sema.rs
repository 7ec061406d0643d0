//! Semantic analysis: symbol tables, directive resolution, and affine
//! subscript extraction for the compiler core.

use crate::ast::*;
use crate::error::HpfError;
use std::collections::BTreeMap;

/// An affine integer expression over *named* variables (loop indices and
/// symbolic integer scalars), as extracted from source expressions.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Affine {
    /// `(variable name, coefficient)` pairs, no duplicates, sorted.
    pub terms: Vec<(String, i64)>,
    /// Constant term.
    pub constant: i64,
}

impl Affine {
    /// The constant affine expression.
    pub fn constant(c: i64) -> Affine {
        Affine {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The single-variable affine expression `v`.
    pub fn var(name: &str) -> Affine {
        Affine {
            terms: vec![(name.to_string(), 1)],
            constant: 0,
        }
    }

    /// Adds `k * name` in place.
    pub fn add_term(&mut self, name: &str, k: i64) {
        if k == 0 {
            return;
        }
        match self.terms.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => {
                self.terms[i].1 += k;
                if self.terms[i].1 == 0 {
                    self.terms.remove(i);
                }
            }
            Err(i) => self.terms.insert(i, (name.to_string(), k)),
        }
    }

    /// Returns `self + k * other`.
    pub fn add_scaled(&self, other: &Affine, k: i64) -> Affine {
        let mut out = self.clone();
        for (n, c) in &other.terms {
            out.add_term(n, c * k);
        }
        out.constant += other.constant * k;
        out
    }

    /// Folds to a constant if variable-free.
    pub fn as_const(&self) -> Option<i64> {
        if self.terms.is_empty() {
            Some(self.constant)
        } else {
            None
        }
    }
}

/// Information about a declared array.
#[derive(Clone, Debug)]
pub struct ArrayInfo {
    /// Element type.
    pub ty: TypeName,
    /// Per-dimension `(lower, upper)` bounds, affine over symbolic scalars.
    pub dims: Vec<(Affine, Affine)>,
    /// Alignment with a template, if any.
    pub align: Option<AlignInfo>,
}

/// A resolved `ALIGN` directive for one array.
#[derive(Clone, Debug)]
pub struct AlignInfo {
    /// Target template name.
    pub template: String,
    /// One entry per template dimension.
    pub subs: Vec<AlignMap>,
}

/// How one template dimension relates to the array's dimensions.
#[derive(Clone, Debug, PartialEq)]
pub enum AlignMap {
    /// `Σ coeffs[d] * array_index[d] + constant` (affine in array indices).
    Affine {
        /// Coefficient per array dimension.
        coeffs: Vec<i64>,
        /// Constant offset.
        constant: i64,
    },
    /// `*` — the array is replicated along this template dimension.
    Star,
}

/// Information about a template.
#[derive(Clone, Debug)]
pub struct TemplateInfo {
    /// Extent (size) per dimension; lower bound is 1.
    pub extents: Vec<Affine>,
    /// Its distribution, if the template is distributed.
    pub dist: Option<DistInfo>,
}

/// A resolved `DISTRIBUTE` directive.
#[derive(Clone, Debug)]
pub struct DistInfo {
    /// Target processor array.
    pub onto: String,
    /// Format per template dimension (`Star` dims are not distributed).
    pub formats: Vec<DistFormat>,
}

/// One processor-array dimension extent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcDim {
    /// Known constant number of processors.
    Known(i64),
    /// Symbolic (unknown at compile time).
    Symbolic,
}

/// Information about a processor array.
#[derive(Clone, Debug)]
pub struct ProcInfo {
    /// Extents per dimension.
    pub dims: Vec<ProcDim>,
}

/// Kind of a scalar variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalarKind {
    /// Compile-time constant (from `parameter`).
    Constant(i64),
    /// Runtime input (from `read`) or dummy argument: symbolic.
    Symbolic,
    /// Ordinary local scalar.
    Local,
}

/// Information about a scalar.
#[derive(Clone, Debug)]
pub struct ScalarInfo {
    /// Element type.
    pub ty: TypeName,
    /// How the scalar behaves for analysis.
    pub kind: ScalarKind,
}

/// The analyzed form of one program unit.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The unit's AST (with directives stripped of ON_HOME).
    pub unit: Unit,
    /// Declared arrays.
    pub arrays: BTreeMap<String, ArrayInfo>,
    /// Declared scalars.
    pub scalars: BTreeMap<String, ScalarInfo>,
    /// Templates.
    pub templates: BTreeMap<String, TemplateInfo>,
    /// Processor arrays.
    pub procs: BTreeMap<String, ProcInfo>,
}

impl Analysis {
    /// Extracts an affine form of `expr` in terms of loop variables and
    /// symbolic scalars, folding `parameter` constants.
    ///
    /// `loop_vars` are the names currently bound by enclosing DO loops.
    /// Returns `None` for non-affine expressions.
    pub fn affine_of(&self, expr: &Expr, loop_vars: &[String]) -> Option<Affine> {
        match expr {
            Expr::Int(v) => Some(Affine::constant(*v)),
            Expr::Real(_) => None,
            Expr::Var(name) => {
                if loop_vars.contains(name) {
                    return Some(Affine::var(name));
                }
                match self.scalars.get(name).map(|s| s.kind) {
                    Some(ScalarKind::Constant(v)) => Some(Affine::constant(v)),
                    Some(ScalarKind::Symbolic) => Some(Affine::var(name)),
                    // A declared local integer scalar may be mutated at any
                    // point, so it is not a safe symbol.
                    Some(ScalarKind::Local) => None,
                    // An undeclared name is an implicitly-typed integer; the
                    // relevant case is the index of an enclosing *serial*
                    // loop (e.g. a time-step loop), which behaves as a
                    // symbolic constant within the nest being analyzed.
                    None => Some(Affine::var(name)),
                }
            }
            Expr::Un(UnOp::Neg, e) => {
                let a = self.affine_of(e, loop_vars)?;
                Some(Affine::constant(0).add_scaled(&a, -1))
            }
            Expr::Bin(op, a, b) => {
                let (fa, fb) = (self.affine_of(a, loop_vars), self.affine_of(b, loop_vars));
                match op {
                    BinOp::Add => Some(fa?.add_scaled(&fb?, 1)),
                    BinOp::Sub => Some(fa?.add_scaled(&fb?, -1)),
                    BinOp::Mul => {
                        let (fa, fb) = (fa?, fb?);
                        if let Some(k) = fa.as_const() {
                            Some(Affine::constant(0).add_scaled(&fb, k))
                        } else {
                            fb.as_const()
                                .map(|k| Affine::constant(0).add_scaled(&fa, k))
                        }
                    }
                    BinOp::Div => {
                        let (fa, fb) = (fa?, fb?);
                        let k = fb.as_const()?;
                        let c = fa.as_const()?;
                        if k != 0 && c % k == 0 {
                            Some(Affine::constant(c / k))
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// True if `name` is a declared array.
    pub fn is_array(&self, name: &str) -> bool {
        self.arrays.contains_key(name)
    }
}

/// Analyzes one program unit.
///
/// # Errors
///
/// Returns an [`HpfError`] for undeclared arrays in directives, arity
/// mismatches between arrays/templates/processors, or non-affine `ALIGN`
/// subscripts.
pub fn analyze(unit: &Unit) -> Result<Analysis, HpfError> {
    let span = unit.body.first().map(|s| s.span).unwrap_or_default();
    let mut a = Analysis {
        unit: unit.clone(),
        arrays: BTreeMap::new(),
        scalars: BTreeMap::new(),
        templates: BTreeMap::new(),
        procs: BTreeMap::new(),
    };
    // Parameter constants first.
    let mut consts: BTreeMap<String, i64> = BTreeMap::new();
    for p in &unit.params {
        let v = fold_const(&p.value, &consts).ok_or_else(|| {
            HpfError::sema(span, format!("parameter '{}' is not a constant", p.name))
        })?;
        consts.insert(p.name.clone(), v);
    }
    // Variables read at runtime are symbolic.
    let mut symbolic: Vec<String> = unit.args.clone();
    collect_read_vars(&unit.body, &mut symbolic);
    // Declarations.
    for d in &unit.decls {
        for e in &d.entities {
            if e.dims.is_empty() {
                let kind = if let Some(v) = consts.get(&e.name) {
                    ScalarKind::Constant(*v)
                } else if symbolic.contains(&e.name) {
                    ScalarKind::Symbolic
                } else {
                    ScalarKind::Local
                };
                a.scalars
                    .insert(e.name.clone(), ScalarInfo { ty: d.ty, kind });
            } else {
                let mut dims = Vec::new();
                for (lb, ub) in &e.dims {
                    let lo = match lb {
                        Some(e) => affine_spec(e, &consts, &symbolic)
                            .ok_or_else(|| HpfError::sema(span, "array bound is not affine"))?,
                        None => Affine::constant(1),
                    };
                    let hi = affine_spec(ub, &consts, &symbolic)
                        .ok_or_else(|| HpfError::sema(span, "array bound is not affine"))?;
                    dims.push((lo, hi));
                }
                a.arrays.insert(
                    e.name.clone(),
                    ArrayInfo {
                        ty: d.ty,
                        dims,
                        align: None,
                    },
                );
            }
        }
    }
    // Directives.
    for dir in &unit.directives {
        match dir {
            Directive::Processors { name, extents } => {
                let dims = extents
                    .iter()
                    .map(|e| match e {
                        ProcExtent::Lit(v) => ProcDim::Known(*v),
                        ProcExtent::Sym(e) => match fold_const(e, &consts) {
                            Some(v) => ProcDim::Known(v),
                            None => ProcDim::Symbolic,
                        },
                    })
                    .collect();
                a.procs.insert(name.clone(), ProcInfo { dims });
            }
            Directive::Template { name, extents } => {
                let ex = extents
                    .iter()
                    .map(|e| {
                        affine_spec(e, &consts, &symbolic)
                            .ok_or_else(|| HpfError::sema(span, "template extent is not affine"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                a.templates.insert(
                    name.clone(),
                    TemplateInfo {
                        extents: ex,
                        dist: None,
                    },
                );
            }
            Directive::Align {
                array,
                dummies,
                target,
                subs,
            } => {
                let rank = a
                    .arrays
                    .get(array)
                    .ok_or_else(|| {
                        HpfError::sema(span, format!("align of undeclared array '{array}'"))
                    })?
                    .dims
                    .len();
                if dummies.len() != rank {
                    return Err(HpfError::sema(
                        span,
                        format!("align dummies of '{array}' do not match its rank {rank}"),
                    ));
                }
                let mut maps = Vec::new();
                for s in subs {
                    match s {
                        AlignSub::Star => maps.push(AlignMap::Star),
                        AlignSub::Expr(e) => {
                            let af = affine_in_dummies(e, dummies, &consts).ok_or_else(|| {
                                HpfError::sema(
                                    span,
                                    format!("align subscript for '{array}' is not affine"),
                                )
                            })?;
                            maps.push(af);
                        }
                    }
                }
                if let Some(info) = a.arrays.get_mut(array) {
                    info.align = Some(AlignInfo {
                        template: target.clone(),
                        subs: maps,
                    });
                }
            }
            Directive::Distribute {
                template,
                formats,
                onto,
            } => {
                let t = a.templates.get_mut(template).ok_or_else(|| {
                    HpfError::sema(span, format!("distribute of unknown template '{template}'"))
                })?;
                if formats.len() != t.extents.len() {
                    return Err(HpfError::sema(
                        span,
                        format!(
                            "distribute formats ({}) do not match template rank ({})",
                            formats.len(),
                            t.extents.len()
                        ),
                    ));
                }
                t.dist = Some(DistInfo {
                    onto: onto.clone(),
                    formats: formats.clone(),
                });
            }
            Directive::OnHome { .. } => {}
        }
    }
    // Validate distributions against processor arrays.
    for (tname, t) in &a.templates {
        if let Some(dist) = &t.dist {
            let p = a.procs.get(&dist.onto).ok_or_else(|| {
                HpfError::sema(
                    span,
                    format!(
                        "template '{tname}' distributed onto unknown '{}'",
                        dist.onto
                    ),
                )
            })?;
            let dist_dims = dist
                .formats
                .iter()
                .filter(|f| !matches!(f, DistFormat::Star))
                .count();
            if dist_dims != p.dims.len() {
                return Err(HpfError::sema(
                    span,
                    format!(
                        "template '{tname}': {dist_dims} distributed dims but '{}' has rank {}",
                        dist.onto,
                        p.dims.len()
                    ),
                ));
            }
        }
    }
    Ok(a)
}

fn collect_read_vars(body: &[Stmt], out: &mut Vec<String>) {
    for s in body {
        match &s.kind {
            StmtKind::Read { vars } => out.extend(vars.iter().cloned()),
            StmtKind::Do { body, .. } => collect_read_vars(body, out),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                collect_read_vars(then_body, out);
                collect_read_vars(else_body, out);
            }
            _ => {}
        }
    }
}

fn fold_const(e: &Expr, consts: &BTreeMap<String, i64>) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Var(n) => consts.get(n).copied(),
        Expr::Un(UnOp::Neg, e) => fold_const(e, consts).map(|v| -v),
        Expr::Bin(op, a, b) => {
            let (a, b) = (fold_const(a, consts)?, fold_const(b, consts)?);
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a.checked_div(b)?,
                _ => return None,
            })
        }
        _ => None,
    }
}

/// Affine form of a specification expression over symbolic scalars only.
fn affine_spec(e: &Expr, consts: &BTreeMap<String, i64>, symbolic: &[String]) -> Option<Affine> {
    match e {
        Expr::Int(v) => Some(Affine::constant(*v)),
        Expr::Var(n) => {
            if let Some(v) = consts.get(n) {
                Some(Affine::constant(*v))
            } else if symbolic.contains(n) {
                Some(Affine::var(n))
            } else {
                // Unknown name in a spec expr: treat as symbolic.
                Some(Affine::var(n))
            }
        }
        Expr::Un(UnOp::Neg, e) => {
            let a = affine_spec(e, consts, symbolic)?;
            Some(Affine::constant(0).add_scaled(&a, -1))
        }
        Expr::Bin(op, a, b) => {
            let fa = affine_spec(a, consts, symbolic)?;
            let fb = affine_spec(b, consts, symbolic)?;
            match op {
                BinOp::Add => Some(fa.add_scaled(&fb, 1)),
                BinOp::Sub => Some(fa.add_scaled(&fb, -1)),
                BinOp::Mul => {
                    if let Some(k) = fa.as_const() {
                        Some(Affine::constant(0).add_scaled(&fb, k))
                    } else {
                        fb.as_const()
                            .map(|k| Affine::constant(0).add_scaled(&fa, k))
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Affine form `Σ c_d * dummy_d + k` of an align subscript.
fn affine_in_dummies(
    e: &Expr,
    dummies: &[String],
    consts: &BTreeMap<String, i64>,
) -> Option<AlignMap> {
    let af = affine_spec(e, consts, dummies)?;
    let mut coeffs = vec![0i64; dummies.len()];
    for (name, c) in &af.terms {
        let d = dummies.iter().position(|x| x == name)?;
        coeffs[d] = *c;
    }
    Some(AlignMap::Affine {
        coeffs,
        constant: af.constant,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

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
!HPF$ on_home b(j-1,i)
    a(i,j) = b(j-1,i)
  enddo
enddo
end
";

    #[test]
    fn analyze_figure2_program() {
        let prog = parse(FIG2).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        assert_eq!(a.arrays.len(), 2);
        assert_eq!(a.arrays["a"].dims[0].0.as_const(), Some(0));
        assert_eq!(a.arrays["a"].dims[0].1.as_const(), Some(99));
        let al = a.arrays["a"].align.as_ref().unwrap();
        assert_eq!(al.template, "t");
        assert_eq!(
            al.subs[0],
            AlignMap::Affine {
                coeffs: vec![1, 0],
                constant: 1
            }
        );
        let bl = a.arrays["b"].align.as_ref().unwrap();
        assert_eq!(bl.subs[0], AlignMap::Star);
        assert_eq!(
            bl.subs[1],
            AlignMap::Affine {
                coeffs: vec![1, 0],
                constant: 0
            }
        );
        let t = &a.templates["t"];
        let d = t.dist.as_ref().unwrap();
        assert_eq!(d.formats, vec![DistFormat::Star, DistFormat::Block]);
        assert_eq!(a.procs["p"].dims, vec![ProcDim::Known(4)]);
        assert_eq!(a.scalars["n"].kind, ScalarKind::Symbolic);
    }

    #[test]
    fn on_home_attaches_to_statement() {
        let prog = parse(FIG2).unwrap();
        let unit = &prog.units[0];
        // find the assignment
        fn find_assign(body: &[Stmt]) -> Option<&StmtKind> {
            for s in body {
                match &s.kind {
                    StmtKind::Assign { .. } => return Some(&s.kind),
                    StmtKind::Do { body, .. } => {
                        if let Some(k) = find_assign(body) {
                            return Some(k);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        let k = find_assign(&unit.body).unwrap();
        match k {
            StmtKind::Assign { on_home, .. } => {
                let refs = on_home.as_ref().unwrap();
                assert_eq!(refs[0].0, "b");
                assert_eq!(refs[0].1.len(), 2);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn affine_extraction() {
        let prog = parse(FIG2).unwrap();
        let a = analyze(&prog.units[0]).unwrap();
        let loop_vars = vec!["i".to_string(), "j".to_string()];
        // j - 1 is affine
        let e = Expr::Bin(
            BinOp::Sub,
            Box::new(Expr::Var("j".into())),
            Box::new(Expr::Int(1)),
        );
        let af = a.affine_of(&e, &loop_vars).unwrap();
        assert_eq!(af.terms, vec![("j".to_string(), 1)]);
        assert_eq!(af.constant, -1);
        // n + 1 is affine via the symbolic scalar n
        let e2 = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Var("n".into())),
            Box::new(Expr::Int(1)),
        );
        let af2 = a.affine_of(&e2, &loop_vars).unwrap();
        assert_eq!(af2.terms, vec![("n".to_string(), 1)]);
        // i * j is not affine
        let e3 = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::Var("i".into())),
            Box::new(Expr::Var("j".into())),
        );
        assert!(a.affine_of(&e3, &loop_vars).is_none());
    }

    #[test]
    fn symbolic_processors() {
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
        assert_eq!(a.procs["q"].dims, vec![ProcDim::Symbolic]);
    }

    #[test]
    fn errors_on_bad_directives() {
        let src = "
program s
real a(100)
!HPF$ template t(100)
!HPF$ distribute t(block,block) onto q
a(1) = 0.0
end
";
        let prog = parse(src).unwrap();
        assert!(analyze(&prog.units[0]).is_err());
    }
}
