//! Dense vector kernels.
//!
//! Everything in this crate reduces to these few operations; keeping them in
//! one place makes the numerical code above read like the math it
//! implements. All kernels are plain loops — LLVM vectorizes them, and at
//! the paper's problem sizes (n ≈ 10³) they are nowhere near hot enough to
//! justify unsafe SIMD.

/// Dot product `xᵀy`.
///
/// # Panics
///
/// Panics when lengths differ (debug and release: a silent truncation here
/// corrupts eigensolves in ways that are very hard to trace).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← y + a·x`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `x ← a·x`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= a;
    }
}

/// Normalizes `x` to unit 2-norm in place; returns the original norm.
/// A zero vector is left untouched (returns 0.0).
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Removes from `x` its component along (unit-norm) `q`: `x ← x − (qᵀx)·q`.
pub fn orthogonalize_against(x: &mut [f64], q: &[f64]) {
    let c = dot(q, x);
    axpy(-c, q, x);
}

/// `x − y` as a new vector.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm(&[]), 0.0);
    }

    #[test]
    fn axpy_updates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn normalize_unit() {
        let mut x = vec![0.0, 3.0, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-15);
        assert!((norm(&x) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_noop() {
        let mut x = vec![0.0, 0.0];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn orthogonalization() {
        let q = {
            let mut q = vec![1.0, 1.0];
            normalize(&mut q);
            q
        };
        let mut x = vec![2.0, 0.0];
        orthogonalize_against(&mut x, &q);
        assert!(dot(&x, &q).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
