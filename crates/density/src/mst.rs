//! Minimum spanning tree of the mutual-reachability graph.
//!
//! The single-linkage hierarchy over mutual-reachability distances — the
//! density hierarchy behind OPTICSDend/HDBSCAN — is fully determined by the
//! MST of the complete mutual-reachability graph.  Prim's algorithm reads
//! the weights through [`MutualReachability`], one row of the pairwise
//! matrix and its core distances per step, so no second `n × n` matrix is
//! built; it is `O(n²)`, which is appropriate for the data sizes of the
//! paper (≤ 351 objects per set).  With `MinPts` 1 every core distance is
//! zero and the weights are the plain distances.

use crate::core_distance::MutualReachability;

/// An edge of the spanning tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// Edge weight (mutual reachability distance).
    pub weight: f64,
}

/// Computes a minimum spanning tree of the complete mutual-reachability
/// graph, using Prim's algorithm.  Returns `n − 1` edges (an empty vector
/// for `n ≤ 1`).
pub fn minimum_spanning_tree(weights: &MutualReachability) -> Vec<Edge> {
    let n = weights.n_objects();
    if n <= 1 {
        return Vec::new();
    }
    let mut in_tree = vec![false; n];
    let mut best_dist = vec![f64::INFINITY; n];
    let mut best_from = vec![0usize; n];
    let mut edges = Vec::with_capacity(n - 1);

    in_tree[0] = true;
    for (j, w) in weights.weights_from(0).enumerate().skip(1) {
        best_dist[j] = w;
    }

    for _ in 1..n {
        // pick the closest vertex outside the tree
        let mut v = usize::MAX;
        let mut v_dist = f64::INFINITY;
        for j in 0..n {
            if !in_tree[j] && best_dist[j] < v_dist {
                v_dist = best_dist[j];
                v = j;
            }
        }
        // If the graph were disconnected (cannot happen for a distance
        // matrix), fall back to any remaining vertex.
        if v == usize::MAX {
            v = (0..n).find(|&j| !in_tree[j]).expect("vertex remains");
            v_dist = weights.weights_from(best_from[v]).nth(v).expect("v < n");
        }
        in_tree[v] = true;
        edges.push(Edge {
            a: best_from[v],
            b: v,
            weight: v_dist,
        });
        for (j, w) in weights.weights_from(v).enumerate() {
            if !in_tree[j] && w < best_dist[j] {
                best_dist[j] = w;
                best_from[j] = v;
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_distance::mutual_reachability_from_pairwise;
    use cvcp_data::distance::{pairwise_matrix, Euclidean};
    use cvcp_data::DataMatrix;

    /// The MST over plain distances: MinPts 1, where every core distance
    /// is zero.
    fn distance_mst(data: &DataMatrix) -> Vec<Edge> {
        let dist = pairwise_matrix(data, &Euclidean);
        minimum_spanning_tree(&mutual_reachability_from_pairwise(&dist, 1))
    }

    #[test]
    fn mst_of_line_graph() {
        // 0 -1- 1 -1- 2 -8- 3 : MST total = 10
        let data = DataMatrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![10.0]]);
        let mst = distance_mst(&data);
        assert_eq!(mst.len(), 3);
        let total: f64 = mst.iter().map(|e| e.weight).sum();
        assert!((total - 10.0).abs() < 1e-12);
    }

    #[test]
    fn mst_is_spanning_and_acyclic() {
        let data = DataMatrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![5.0, 5.0],
            vec![5.0, 6.0],
            vec![6.0, 5.0],
        ]);
        let mst = distance_mst(&data);
        assert_eq!(mst.len(), 5);
        // spanning: union-find over edges connects all vertices
        let mut uf = cvcp_constraints::UnionFind::new(6);
        for e in &mst {
            assert!(uf.union(e.a, e.b), "MST must not contain a cycle");
        }
        assert_eq!(uf.n_components(), 1);
    }

    #[test]
    fn mst_weight_is_minimal_versus_star() {
        // For 3 equidistant-ish points the MST weight must not exceed any
        // spanning star.
        let data = DataMatrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 0.0], vec![0.0, 4.0]]);
        let mst = distance_mst(&data);
        let mst_total: f64 = mst.iter().map(|e| e.weight).sum();
        // possible spanning trees: {3,4}=7, {3,5}=8, {4,5}=9
        assert!((mst_total - 7.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_sizes() {
        assert!(distance_mst(&DataMatrix::zeros(0, 1)).is_empty());
        assert!(distance_mst(&DataMatrix::from_rows(&[vec![0.0]])).is_empty());
        let mst = distance_mst(&DataMatrix::from_rows(&[vec![0.0], vec![2.5]]));
        assert_eq!(mst.len(), 1);
        assert_eq!(mst[0].weight, 2.5);
    }

    #[test]
    fn mutual_reachability_mst_uses_core_distances() {
        // With a large MinPts the core distances dominate, so every edge
        // weight is at least the largest pairwise-neighbour distance.
        let data = DataMatrix::from_rows(&[vec![0.0], vec![0.1], vec![0.2], vec![10.0]]);
        let dist = pairwise_matrix(&data, &Euclidean);
        let mst = minimum_spanning_tree(&mutual_reachability_from_pairwise(&dist, 4));
        for e in &mst {
            assert!(e.weight >= 9.8);
        }
    }
}
