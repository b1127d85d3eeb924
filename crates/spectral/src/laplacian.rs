//! Laplacian matrix assembly.

use ff_graph::Graph;
use ff_linalg::CsrMatrix;

/// The combinatorial Laplacian `L = D − W` of `g`, where `D` is the
/// diagonal of weighted degrees and `W` the weighted adjacency matrix.
/// For a connected graph, `L` is PSD with a one-dimensional kernel spanned
/// by the constant vector; its second eigenpair is the Fiedler pair the
/// Cut-criterion spectral method uses.
pub fn laplacian(g: &Graph) -> CsrMatrix {
    let n = g.num_vertices();
    let mut triplets = Vec::with_capacity(2 * g.num_edges() + n);
    for v in g.vertices() {
        triplets.push((v as usize, v as usize, g.degree_weight(v)));
        for (u, w) in g.edges_of(v) {
            triplets.push((v as usize, u as usize, -w));
        }
    }
    CsrMatrix::from_triplets(n, &triplets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_graph::generators::{path, random_geometric};
    use ff_linalg::LinearOperator;

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let g = random_geometric(40, 0.3, 3);
        let l = laplacian(&g);
        let ones = vec![1.0; 40];
        let mut y = vec![0.0; 40];
        l.apply(&ones, &mut y);
        assert!(y.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn laplacian_is_symmetric() {
        let g = random_geometric(30, 0.35, 5);
        assert!(laplacian(&g).is_symmetric());
    }

    #[test]
    fn laplacian_entries_of_path() {
        let g = path(3);
        let l = laplacian(&g);
        assert_eq!(l.get(0, 0), 1.0);
        assert_eq!(l.get(1, 1), 2.0);
        assert_eq!(l.get(0, 1), -1.0);
        assert_eq!(l.get(0, 2), 0.0);
    }
}
