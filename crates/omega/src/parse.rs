//! A parser for the Omega-library textual syntax for sets and relations.
//!
//! The grammar accepted is a practical subset of the Omega calculator's:
//!
//! ```text
//! relation := '{' tuple ('->' tuple)? (':' formula)? '}'
//! tuple    := '[' ident (',' ident)* ']'   |   '[' ']'
//! formula  := clause ('||' clause)*                 -- union of conjuncts
//! clause   := atom ('&&' atom)*
//! atom     := 'exists' '(' ident+ ':' clause ')'    -- existentials
//!           | expr (relop expr)+                    -- comparison chains
//! relop    := '=' '==' '<=' '<' '>=' '>'
//! expr     := linear integer expression; juxtaposition multiplies (2i)
//! ```
//!
//! Identifiers not bound by a tuple or an `exists` are symbolic parameters.

use crate::conjunct::{Conjunct, Normalized};
use crate::linexpr::LinExpr;
use crate::relation::Relation;
use crate::set::Set;
use crate::var::Var;
use std::fmt;
use std::str::FromStr;

/// Error produced when parsing a set or relation from text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    message: String,
    offset: usize,
}

impl ParseError {
    fn new(message: impl Into<String>, offset: usize) -> Self {
        ParseError {
            message: message.into(),
            offset,
        }
    }

    /// Byte offset in the input at which the error was detected.
    pub fn offset(&self) -> usize {
        self.offset
    }

    pub(crate) fn expected_set() -> Self {
        ParseError::new("expected a set, found a relation (`->` tuple)", 0)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at offset {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Sym(&'static str),
}

fn lex(s: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let b = s.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        if c.is_ascii_alphabetic() || c == '_' {
            let mut j = i;
            while j < b.len()
                && ((b[j] as char).is_ascii_alphanumeric() || b[j] == b'_' || b[j] == b'\'')
            {
                j += 1;
            }
            out.push((Tok::Ident(s[i..j].to_string()), start));
            i = j;
        } else if c.is_ascii_digit() {
            let mut j = i;
            while j < b.len() && (b[j] as char).is_ascii_digit() {
                j += 1;
            }
            let v: i64 = s[i..j]
                .parse()
                .map_err(|_| ParseError::new("integer literal too large", start))?;
            out.push((Tok::Int(v), start));
            i = j;
        } else {
            let two = if i + 1 < b.len() { &s[i..i + 2] } else { "" };
            let sym: &'static str = match two {
                "->" => "->",
                "&&" => "&&",
                "||" => "||",
                "<=" => "<=",
                ">=" => ">=",
                "==" => "=",
                _ => match c {
                    '{' => "{",
                    '}' => "}",
                    '[' => "[",
                    ']' => "]",
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    ':' => ":",
                    '+' => "+",
                    '-' => "-",
                    '*' => "*",
                    '=' => "=",
                    '<' => "<",
                    '>' => ">",
                    _ => return Err(ParseError::new(format!("unexpected character '{c}'"), i)),
                },
            };
            i += sym.len();
            out.push((Tok::Sym(sym), start));
        }
    }
    Ok(out)
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    in_names: Vec<String>,
    out_names: Vec<String>,
    params: Vec<String>,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|&(_, o)| o)
            .unwrap_or(usize::MAX)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn eat(&mut self, sym: &str) -> bool {
        if self.peek() == Some(&Tok::Sym(leak(sym))) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, sym: &str) -> Result<(), ParseError> {
        if self.eat(sym) {
            Ok(())
        } else {
            Err(ParseError::new(format!("expected '{sym}'"), self.offset()))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let off = self.offset();
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => Err(ParseError::new("expected identifier", off)),
        }
    }

    fn tuple(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect("[")?;
        let mut names = Vec::new();
        if !self.eat("]") {
            loop {
                names.push(self.ident()?);
                if self.eat("]") {
                    break;
                }
                self.expect(",")?;
            }
        }
        Ok(names)
    }

    fn resolve(&mut self, name: &str, exists: &[(String, Var)]) -> Var {
        if let Some((_, v)) = exists.iter().rev().find(|(n, _)| n == name) {
            return *v;
        }
        if let Some(i) = self.in_names.iter().position(|n| n == name) {
            return Var::In(i as u32);
        }
        if let Some(i) = self.out_names.iter().position(|n| n == name) {
            return Var::Out(i as u32);
        }
        if let Some(i) = self.params.iter().position(|n| n == name) {
            return Var::Param(i as u32);
        }
        self.params.push(name.to_string());
        Var::Param(self.params.len() as u32 - 1)
    }

    fn formula(&mut self, rel: &mut Vec<Conjunct>) -> Result<(), ParseError> {
        loop {
            let mut c = Conjunct::new();
            let mut exists = Vec::new();
            self.clause(&mut c, &mut exists)?;
            rel.push(c);
            if !self.eat("||") {
                break;
            }
        }
        Ok(())
    }

    fn clause(
        &mut self,
        c: &mut Conjunct,
        exists: &mut Vec<(String, Var)>,
    ) -> Result<(), ParseError> {
        loop {
            self.atom(c, exists)?;
            if !self.eat("&&") {
                break;
            }
        }
        Ok(())
    }

    fn atom(
        &mut self,
        c: &mut Conjunct,
        exists: &mut Vec<(String, Var)>,
    ) -> Result<(), ParseError> {
        if let Some(Tok::Ident(id)) = self.peek() {
            // `TRUE` / `FALSE` are printed by `Display` for the empty
            // conjunct and the empty union; accept them back for roundtrip.
            if id == "TRUE" {
                self.pos += 1;
                return Ok(());
            }
            if id == "FALSE" {
                self.pos += 1;
                c.add_geq(LinExpr::constant(-1));
                return Ok(());
            }
            if id == "exists" {
                self.pos += 1;
                self.expect("(")?;
                let depth = exists.len();
                loop {
                    let name = self.ident()?;
                    exists.push((name, c.fresh_exist()));
                    if self.eat(":") {
                        break;
                    }
                    self.expect(",")?;
                }
                self.clause(c, exists)?;
                self.expect(")")?;
                exists.truncate(depth);
                return Ok(());
            }
        }
        // Comparison chain.
        let mut lhs = self.expr(c, exists)?;
        let mut any = false;
        while let Some(Tok::Sym(s @ ("=" | "<=" | "<" | ">=" | ">"))) = self.peek() {
            let op = *s;
            let off = self.offset();
            self.pos += 1;
            let rhs = self.expr(c, exists)?;
            any = true;
            let overflow = |_| ParseError::new("coefficient overflow", off);
            match op {
                "=" => c.add_eq(lhs.try_sub(&rhs).map_err(overflow)?),
                "<=" => c.add_geq(rhs.try_sub(&lhs).map_err(overflow)?),
                "<" => {
                    let mut e = rhs.try_sub(&lhs).map_err(overflow)?;
                    e.try_add_constant(-1).map_err(overflow)?;
                    c.add_geq(e);
                }
                ">=" => c.add_geq(lhs.try_sub(&rhs).map_err(overflow)?),
                ">" => {
                    let mut e = lhs.try_sub(&rhs).map_err(overflow)?;
                    e.try_add_constant(-1).map_err(overflow)?;
                    c.add_geq(e);
                }
                _ => unreachable!(),
            }
            lhs = rhs;
        }
        if !any {
            return Err(ParseError::new(
                "expected comparison operator",
                self.offset(),
            ));
        }
        Ok(())
    }

    fn expr(&mut self, c: &mut Conjunct, exists: &[(String, Var)]) -> Result<LinExpr, ParseError> {
        let mut e = self.term(c, exists)?;
        loop {
            let off = self.offset();
            let overflow = |_| ParseError::new("coefficient overflow", off);
            if self.eat("+") {
                let t = self.term(c, exists)?;
                e.try_add_scaled(&t, 1).map_err(overflow)?;
            } else if self.eat("-") {
                let t = self.term(c, exists)?;
                e.try_add_scaled(&t, -1).map_err(overflow)?;
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn term(&mut self, c: &mut Conjunct, exists: &[(String, Var)]) -> Result<LinExpr, ParseError> {
        let mut e = self.factor(c, exists)?;
        loop {
            let juxtaposed = matches!(self.peek(), Some(Tok::Ident(id)) if id != "exists")
                || self.peek() == Some(&Tok::Sym("("));
            if self.eat("*") || juxtaposed {
                let off = self.offset();
                let f = self.factor(c, exists)?;
                e = lin_mul(&e, &f)
                    .map_err(|_| ParseError::new("coefficient overflow", off))?
                    .ok_or_else(|| ParseError::new("nonlinear product", off))?;
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn factor(
        &mut self,
        c: &mut Conjunct,
        exists: &[(String, Var)],
    ) -> Result<LinExpr, ParseError> {
        let off = self.offset();
        match self.bump() {
            Some(Tok::Int(v)) => Ok(LinExpr::constant(v)),
            Some(Tok::Ident(name)) => Ok(LinExpr::var(self.resolve(&name, exists))),
            Some(Tok::Sym("-")) => {
                let f = self.factor(c, exists)?;
                f.try_negated()
                    .map_err(|_| ParseError::new("coefficient overflow", off))
            }
            Some(Tok::Sym("(")) => {
                let e = self.expr(c, exists)?;
                self.expect(")")?;
                Ok(e)
            }
            _ => Err(ParseError::new("expected expression", off)),
        }
    }
}

/// Product of two linear expressions; `Ok(None)` if both are non-constant,
/// `Err` if the coefficient arithmetic overflows.
fn lin_mul(a: &LinExpr, b: &LinExpr) -> Result<Option<LinExpr>, crate::OmegaError> {
    if a.is_constant() {
        b.try_scaled(a.constant_term()).map(Some)
    } else if b.is_constant() {
        a.try_scaled(b.constant_term()).map(Some)
    } else {
        Ok(None)
    }
}

fn leak(s: &str) -> &'static str {
    // Only called with the fixed symbol strings of this module.
    match s {
        "->" => "->",
        "&&" => "&&",
        "||" => "||",
        "<=" => "<=",
        ">=" => ">=",
        "{" => "{",
        "}" => "}",
        "[" => "[",
        "]" => "]",
        "(" => "(",
        ")" => ")",
        "," => ",",
        ":" => ":",
        "+" => "+",
        "-" => "-",
        "*" => "*",
        "=" => "=",
        "<" => "<",
        ">" => ">",
        _ => unreachable!("unknown symbol {s}"),
    }
}

pub(crate) fn parse_relation(input: &str) -> Result<Relation, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        in_names: Vec::new(),
        out_names: Vec::new(),
        params: Vec::new(),
    };
    p.expect("{")?;
    p.in_names = p.tuple()?;
    if p.eat("->") {
        p.out_names = p.tuple()?;
    }
    let mut conjuncts = Vec::new();
    if p.eat(":") {
        p.formula(&mut conjuncts)?;
    } else {
        conjuncts.push(Conjunct::new());
    }
    p.expect("}")?;
    if p.pos != p.toks.len() {
        return Err(ParseError::new("trailing input", p.offset()));
    }
    // Re-map parameters from appearance order to sorted order.
    let mut sorted = p.params.clone();
    sorted.sort();
    sorted.dedup();
    let remap: Vec<u32> = p
        .params
        .iter()
        .map(|n| sorted.iter().position(|m| m == n).unwrap() as u32)
        .collect();
    let mut rel = Relation::universe(p.in_names.len() as u32, p.out_names.len() as u32)
        .with_in_names(p.in_names.clone())
        .with_out_names(p.out_names.clone());
    for name in &sorted {
        rel.ensure_param(name);
    }
    rel.conjuncts_mut().clear();
    for c in conjuncts {
        let mut c = c.rename(|v| match v {
            Var::Param(i) => Var::Param(remap[i as usize]),
            v => v,
        });
        // `normalize` strips constant atoms, so its verdict must be
        // honored here: a contradictory conjunct (`FALSE`, `1 = 0`, …)
        // contributes nothing to the union rather than collapsing to the
        // universe conjunct.
        if c.normalize() != Normalized::False {
            rel.add_conjunct(c);
        }
    }
    Ok(rel)
}

impl FromStr for Relation {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_relation(s)
    }
}

impl FromStr for Set {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rel = parse_relation(s)?;
        if rel.n_out() != 0 {
            return Err(ParseError::expected_set());
        }
        Ok(Set::from_relation(rel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_set() {
        let s: Set = "{[i] : 1 <= i <= 10}".parse().unwrap();
        assert!(s.contains(&[1], &[]));
        assert!(s.contains(&[10], &[]));
        assert!(!s.contains(&[11], &[]));
    }

    #[test]
    fn parse_relation_with_params() {
        let r: Relation = "{[i,j] -> [p] : 25p <= j - 1 && j - 1 <= 25p + 24 && 1 <= i <= N}"
            .parse()
            .unwrap();
        assert_eq!(r.n_in(), 2);
        assert_eq!(r.n_out(), 1);
        assert_eq!(r.params(), &["N".to_string()]);
        assert!(r.contains_pair(&[1, 26], &[1], &[("N", 5)]));
        assert!(!r.contains_pair(&[1, 26], &[0], &[("N", 5)]));
    }

    #[test]
    fn parse_union() {
        let s: Set = "{[i] : 1 <= i <= 3 || 7 <= i <= 9}".parse().unwrap();
        assert!(s.contains(&[2], &[]));
        assert!(!s.contains(&[5], &[]));
        assert!(s.contains(&[8], &[]));
    }

    #[test]
    fn parse_exists() {
        let s: Set = "{[i] : exists(a : i = 4a + 1) && 0 <= i <= 20}"
            .parse()
            .unwrap();
        let pts = s.enumerate(&[]).unwrap();
        assert_eq!(pts, vec![vec![1], vec![5], vec![9], vec![13], vec![17]]);
    }

    #[test]
    fn parse_nested_exists_and_juxtaposition() {
        let s: Set = "{[i] : exists(a, b : i = 2a && i = 3b)}".parse().unwrap();
        assert!(s.contains(&[6], &[]));
        assert!(!s.contains(&[4], &[]));
    }

    #[test]
    fn parse_chain_comparisons() {
        let s: Set = "{[i,j] : 1 <= i < j <= 5}".parse().unwrap();
        assert!(s.contains(&[1, 2], &[]));
        assert!(!s.contains(&[2, 2], &[]));
        assert!(s.contains(&[4, 5], &[]));
    }

    #[test]
    fn parse_parenthesized_and_negative() {
        let s: Set = "{[i] : i = -(2 + 3) + 2 * (4 - 1)}".parse().unwrap();
        assert!(s.contains(&[1], &[]));
    }

    #[test]
    fn parse_empty_tuple() {
        let s: Set = "{[] : N >= 1}".parse().unwrap();
        assert_eq!(s.arity(), 0);
    }

    #[test]
    fn parse_errors_are_positioned() {
        let err = "{[i] : i ^ 2}".parse::<Set>().unwrap_err();
        assert!(err.offset() > 0);
        assert!("{[i] : i * j}".parse::<Set>().is_err(), "nonlinear");
        assert!("{[i] : }".parse::<Set>().is_err());
        assert!("{[i] : 1 <= i".parse::<Set>().is_err());
    }

    #[test]
    fn set_rejects_relation_syntax() {
        assert!("{[i] -> [j] : j = i}".parse::<Set>().is_err());
    }
}
