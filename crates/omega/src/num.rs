//! Checked integer arithmetic helpers used throughout the set library.
//!
//! All coefficient arithmetic in this crate is performed on `i64` values via
//! these helpers so that silent wraparound can never corrupt a set. Overflow
//! aborts with a panic that names the operation; the constraint systems
//! produced by a data-parallel compiler keep coefficients tiny, so in
//! practice these panics indicate a logic error, not a capacity limit.

/// Greatest common divisor of the absolute values of `a` and `b`.
///
/// `gcd(0, 0)` is defined as `0` so it can be folded over a coefficient list.
///
/// # Examples
///
/// ```
/// use dhpf_omega::num::gcd;
/// assert_eq!(gcd(12, -18), 6);
/// assert_eq!(gcd(0, 5), 5);
/// assert_eq!(gcd(0, 0), 0);
/// ```
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a as i64
}

/// Least common multiple of the absolute values of `a` and `b`.
///
/// # Panics
///
/// Panics if the result overflows `i64`.
///
/// # Examples
///
/// ```
/// use dhpf_omega::num::lcm;
/// assert_eq!(lcm(4, 6), 12);
/// ```
pub fn lcm(a: i64, b: i64) -> i64 {
    if a == 0 || b == 0 {
        return 0;
    }
    mul(a / gcd(a, b), b).abs()
}

/// Floor division: the greatest integer `q` such that `q * b <= a`.
///
/// # Panics
///
/// Panics if `b == 0`.
///
/// # Examples
///
/// ```
/// use dhpf_omega::num::floor_div;
/// assert_eq!(floor_div(7, 2), 3);
/// assert_eq!(floor_div(-7, 2), -4);
/// ```
pub fn floor_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division: the least integer `q` such that `q * b >= a`.
///
/// # Panics
///
/// Panics if `b == 0`.
///
/// # Examples
///
/// ```
/// use dhpf_omega::num::ceil_div;
/// assert_eq!(ceil_div(7, 2), 4);
/// assert_eq!(ceil_div(-7, 2), -3);
/// ```
pub fn ceil_div(a: i64, b: i64) -> i64 {
    -floor_div(-a, b)
}

/// Mathematical modulus: `a - floor_div(a, b) * b`, always in `0..|b|`.
///
/// # Panics
///
/// Panics if `b == 0`.
pub fn modulo(a: i64, b: i64) -> i64 {
    a - floor_div(a, b) * b
}

/// Checked multiplication returning [`OmegaError::Overflow`](crate::OmegaError::Overflow) on overflow.
///
/// This is the fallible path used by the parser and the builder API so
/// malformed or adversarial inputs surface as errors, never panics.
pub fn try_mul(a: i64, b: i64) -> Result<i64, crate::OmegaError> {
    a.checked_mul(b)
        .ok_or(crate::OmegaError::Overflow("multiplication"))
}

/// Checked addition returning [`OmegaError::Overflow`](crate::OmegaError::Overflow) on overflow.
pub fn try_add(a: i64, b: i64) -> Result<i64, crate::OmegaError> {
    a.checked_add(b)
        .ok_or(crate::OmegaError::Overflow("addition"))
}

/// Checked subtraction returning [`OmegaError::Overflow`](crate::OmegaError::Overflow) on overflow.
pub fn try_sub(a: i64, b: i64) -> Result<i64, crate::OmegaError> {
    a.checked_sub(b)
        .ok_or(crate::OmegaError::Overflow("subtraction"))
}

/// Checked multiplication.
///
/// # Panics
///
/// Panics on overflow.
pub fn mul(a: i64, b: i64) -> i64 {
    try_mul(a, b).unwrap_or_else(|_| panic!("integer overflow in {a} * {b}"))
}

/// Checked addition.
///
/// # Panics
///
/// Panics on overflow.
pub fn add(a: i64, b: i64) -> i64 {
    try_add(a, b).unwrap_or_else(|_| panic!("integer overflow in {a} + {b}"))
}

/// Checked subtraction.
///
/// # Panics
///
/// Panics on overflow.
pub fn sub(a: i64, b: i64) -> i64 {
    try_sub(a, b).unwrap_or_else(|_| panic!("integer overflow in {a} - {b}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(12, -18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, -9), 9);
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
        assert_eq!(lcm(-4, 6), 12);
    }

    #[test]
    fn floor_ceil_div() {
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(floor_div(-7, 2), -4);
        assert_eq!(floor_div(7, -2), -4);
        assert_eq!(floor_div(-7, -2), 3);
        assert_eq!(ceil_div(7, 2), 4);
        assert_eq!(ceil_div(-7, 2), -3);
        assert_eq!(ceil_div(6, 2), 3);
    }

    #[test]
    fn modulo_is_nonnegative_for_positive_modulus() {
        assert_eq!(modulo(7, 3), 1);
        assert_eq!(modulo(-7, 3), 2);
        assert_eq!(modulo(-6, 3), 0);
    }

    #[test]
    #[should_panic(expected = "integer overflow")]
    fn mul_overflow_panics() {
        mul(i64::MAX, 2);
    }
}
