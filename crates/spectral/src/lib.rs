//! # ff-spectral — spectral graph partitioning (Chaco-style)
//!
//! Implements §2.1 of the paper:
//!
//! * [`laplacian`](mod@laplacian) — assembly of the combinatorial Laplacian
//!   `L = D − W`, whose low eigenvectors the spectral rows split along,
//! * [`fiedler`] — the Fiedler vector via either **Lanczos** or
//!   **RQI/SYMMLQ** (the paper's `Lanc` and `RQI` rows),
//! * [`bisect`] — median-split spectral bisection and recursive bisection
//!   to arbitrary k, with optional KL refinement at every level,
//! * [`octa`] — spectral quadrisection/octasection from 2–3 eigenvectors
//!   (Hendrickson–Leland multidimensional partitioning, the `Oct` rows),
//! * [`linear`] — the **Linear** baseline: vertex-index-order splits
//!   (Chaco's trivial scheme), with the same optional KL refinement.

pub mod bisect;
pub mod fiedler;
pub mod laplacian;
pub mod linear;
pub mod octa;

pub use bisect::{recursive_bisection, spectral_partition, RefineMethod, SpectralConfig};
pub use fiedler::{fiedler_vector, smallest_nontrivial_eigenvectors, SpectralSolver};
pub use laplacian::laplacian;
pub use linear::{linear_partition, LinearMode};
pub use octa::spectral_section;

/// How many parts each spectral division step produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SectionMode {
    /// One eigenvector, two parts per step.
    Bisection,
    /// Three eigenvectors, eight parts per step.
    Octasection,
}
