//! # dhpf-omega — symbolic integer tuple sets and relations
//!
//! A from-scratch reimplementation of the integer-set substrate used by the
//! Rice dHPF compiler (Adve & Mellor-Crummey, PLDI 1998): sets and relations
//! of integer tuples described by Presburger formulas, with the operation
//! vocabulary the paper's equational framework relies on — union,
//! intersection, difference, composition, domain, range, restriction,
//! projection, and gist — all *exact* over the integers.
//!
//! The algorithms follow Pugh's Omega test: equality elimination with
//! symmetric-modulus coefficient reduction, and integer Fourier–Motzkin
//! elimination with dark shadow and splinter sets so that projections of
//! non-unit-coefficient systems (e.g. block data distributions `B·p ≤ a`)
//! remain exact.
//!
//! ## Quick start
//!
//! ```
//! use dhpf_omega::{Relation, Set};
//!
//! // The layout of a BLOCK(25)-distributed array on 4 processors.
//! let layout: Relation = "{[p] -> [a] : 25p <= a <= 25p + 24 && 0 <= p <= 3}".parse()?;
//! // The data referenced by iterations of a loop.
//! let refmap: Relation = "{[i] -> [a] : a = i + 1 && 1 <= i <= N}".parse()?;
//!
//! // Which processor executes which iteration under owner-computes?
//! let cpmap = refmap.then(&layout.inverse())?;
//! assert!(cpmap.contains_pair(&[30], &[1], &[("N", 90)]));
//!
//! // Sets support exact difference, emptiness, and membership.
//! let s: Set = "{[i] : 1 <= i <= N}".parse()?;
//! let t: Set = "{[i] : 5 <= i}".parse()?;
//! let d = s.subtract(&t)?;
//! assert!(d.contains(&[4], &[("N", 10)]));
//! assert!(!d.contains(&[5], &[("N", 10)]));
//! # Ok::<(), dhpf_omega::OmegaError>(())
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod conjunct;
pub mod context;
pub mod display;
pub mod inject;
pub mod linexpr;
pub mod num;
pub mod ops;
pub mod oracle;
pub mod parse;
pub mod relation;
pub mod set;
pub mod testing;
pub mod var;

pub use budget::{Budget, GovernorStats, RequestGovernor};
pub use conjunct::{Conjunct, Normalized};
pub use context::{
    governor_grace, inject_check, CacheStats, Context, GraceGuard, OpCounts, Request, RequestGuard,
    DEFAULT_CACHE_CAP,
};
pub use inject::{FaultAction, InjectPlan};
pub use linexpr::LinExpr;
pub use ops::{negate_conjunct, to_stride_form};
pub use parse::ParseError;
pub use relation::Relation;
pub use set::Set;
pub use var::{Var, VarNames};

use std::fmt;

/// Errors reported by set operations and fallible constructors.
///
/// Every fallible public entry point of this crate — parsing, enumeration,
/// exact negation, projection — reports through this one enum,
/// so malformed input surfaces as an `Err`, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum OmegaError {
    /// A conjunct's existential system could not be negated exactly
    /// (needed by difference/subset/equality tests).
    InexactNegation,
    /// Enumeration was requested for a set with no constant bounds.
    Unbounded,
    /// The Omega-syntax parser rejected the input; the payload carries the
    /// message and source offset.
    Parse(ParseError),
    /// Coefficient arithmetic overflowed `i64` while building or combining
    /// constraints; the payload names the failing operation.
    Overflow(&'static str),
    /// An operation restricted to a specific tuple arity (the §3.3 1-D
    /// contiguity tests) was applied to a set of a different arity; the
    /// payload names the operation.
    Arity(&'static str),
    /// The compile [`Budget`] of the armed [`RequestGovernor`] was exhausted
    /// (deadline passed or op fuel spent); the payload names the resource.
    /// The driver treats this like inexactness: degrade, don't die.
    BudgetExceeded(&'static str),
}

/// Stable, machine-readable error codes shared by every error surface in
/// the workspace — [`OmegaError`] here, `CompileError` in `dhpf-core`, and
/// the `dhpf-serve` wire protocol all map onto this one vocabulary via a
/// `code()` method.
///
/// The string form ([`ErrorCode::as_str`]) is the wire contract: it is
/// what `dhpf-serve` serializes in error responses and what tests assert
/// on, replacing fragile string-matching against `Display` output. An
/// existing code never changes meaning or spelling; a code that nothing
/// can produce any more is removed, not kept as a dead spelling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorCode {
    /// Malformed Omega-syntax input (`E_PARSE`).
    Parse,
    /// HPF frontend (lexer/parser/semantic) failure (`E_FRONTEND`).
    Frontend,
    /// A construct the compiler does not support (`E_UNSUPPORTED`).
    Unsupported,
    /// Loop-synthesis / code-generation failure (`E_CODEGEN`).
    Codegen,
    /// A set-algebra exactness limit was hit (`E_SET_ALGEBRA`).
    SetAlgebra,
    /// Coefficient arithmetic overflowed `i64` (`E_OVERFLOW`).
    Overflow,
    /// Enumeration of a set with no constant bounds (`E_UNBOUNDED`).
    Unbounded,
    /// An arity-restricted operation got the wrong arity (`E_ARITY`).
    Arity,
    /// The compile budget (deadline/fuel) was exhausted (`E_BUDGET`).
    Budget,
    /// A contained panic / internal invariant failure (`E_INTERNAL`).
    Internal,
    /// A malformed request at the wire-protocol layer (`E_PROTOCOL`).
    Protocol,
}

impl ErrorCode {
    /// Every defined code, in declaration order. Metric exporters
    /// pre-register one error counter per code from this list, and lint
    /// tools use it to reject unknown `E_*` spellings.
    pub const ALL: &'static [ErrorCode] = &[
        ErrorCode::Parse,
        ErrorCode::Frontend,
        ErrorCode::Unsupported,
        ErrorCode::Codegen,
        ErrorCode::SetAlgebra,
        ErrorCode::Overflow,
        ErrorCode::Unbounded,
        ErrorCode::Arity,
        ErrorCode::Budget,
        ErrorCode::Internal,
        ErrorCode::Protocol,
    ];

    /// The stable wire spelling of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "E_PARSE",
            ErrorCode::Frontend => "E_FRONTEND",
            ErrorCode::Unsupported => "E_UNSUPPORTED",
            ErrorCode::Codegen => "E_CODEGEN",
            ErrorCode::SetAlgebra => "E_SET_ALGEBRA",
            ErrorCode::Overflow => "E_OVERFLOW",
            ErrorCode::Unbounded => "E_UNBOUNDED",
            ErrorCode::Arity => "E_ARITY",
            ErrorCode::Budget => "E_BUDGET",
            ErrorCode::Internal => "E_INTERNAL",
            ErrorCode::Protocol => "E_PROTOCOL",
        }
    }

    /// Parses a wire spelling back to the code (`None` for unknown text),
    /// so clients can round-trip responses without string comparisons.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "E_PARSE" => ErrorCode::Parse,
            "E_FRONTEND" => ErrorCode::Frontend,
            "E_UNSUPPORTED" => ErrorCode::Unsupported,
            "E_CODEGEN" => ErrorCode::Codegen,
            "E_SET_ALGEBRA" => ErrorCode::SetAlgebra,
            "E_OVERFLOW" => ErrorCode::Overflow,
            "E_UNBOUNDED" => ErrorCode::Unbounded,
            "E_ARITY" => ErrorCode::Arity,
            "E_BUDGET" => ErrorCode::Budget,
            "E_INTERNAL" => ErrorCode::Internal,
            "E_PROTOCOL" => ErrorCode::Protocol,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl OmegaError {
    /// The stable machine-readable [`ErrorCode`] of this error.
    pub fn code(&self) -> ErrorCode {
        match self {
            OmegaError::InexactNegation => ErrorCode::SetAlgebra,
            OmegaError::Unbounded => ErrorCode::Unbounded,
            OmegaError::Parse(_) => ErrorCode::Parse,
            OmegaError::Overflow(_) => ErrorCode::Overflow,
            OmegaError::Arity(_) => ErrorCode::Arity,
            OmegaError::BudgetExceeded(_) => ErrorCode::Budget,
        }
    }
}

impl fmt::Display for OmegaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmegaError::InexactNegation => {
                write!(f, "existential system cannot be negated exactly")
            }
            OmegaError::Unbounded => write!(f, "set has no constant bounds to enumerate"),
            OmegaError::Parse(e) => write!(f, "{e}"),
            OmegaError::Overflow(op) => write!(f, "integer overflow in {op}"),
            OmegaError::Arity(op) => write!(f, "{op} requires a 1-D set"),
            OmegaError::BudgetExceeded(what) => write!(f, "compile budget exceeded: {what}"),
        }
    }
}

impl std::error::Error for OmegaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OmegaError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for OmegaError {
    fn from(e: ParseError) -> Self {
        OmegaError::Parse(e)
    }
}
