//! The density dendrogram ("OPTICSDend").
//!
//! The dendrogram is the single-linkage hierarchy over mutual-reachability
//! distances.  It can be built in two equivalent ways:
//!
//! * from the MST of the mutual-reachability graph, by merging components in
//!   order of increasing edge weight ([`Dendrogram::from_mst`]);
//! * from an OPTICS reachability plot, by merging the blocks separated by
//!   each reachability value in increasing order
//!   ([`Dendrogram::from_optics`]).
//!
//! Both constructions produce the same merge heights; the test-suite checks
//! this equivalence, which is the sense in which the hierarchy is "the
//! dendrogram of OPTICS" (Campello et al. 2013, Sander et al. 2003).

use crate::mst::Edge;
use crate::optics::OpticsOrdering;
use cvcp_constraints::UnionFind;
use cvcp_data::Partition;

/// One agglomerative merge.  Node ids `0..n` are leaves (objects); the merge
/// with index `i` creates node `n + i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// Left child node id.
    pub left: usize,
    /// Right child node id.
    pub right: usize,
    /// Height (mutual-reachability distance) of the merge.
    pub height: f64,
    /// Number of leaves under the new node.
    pub size: usize,
}

/// A single-linkage dendrogram over `n_leaves` objects.
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    n_leaves: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Builds the dendrogram from MST edges (weights = mutual-reachability
    /// distances).  The edges need not be sorted.
    pub fn from_mst(n_leaves: usize, edges: &[Edge]) -> Self {
        let mut sorted: Vec<Edge> = edges.to_vec();
        sorted.sort_by(|a, b| a.weight.partial_cmp(&b.weight).expect("finite weights"));

        let mut uf = UnionFind::new(n_leaves);
        // For each union-find root, remember the dendrogram node currently
        // representing that component.
        let mut node_of_root: Vec<usize> = (0..n_leaves).collect();
        let mut size_of_node: Vec<usize> = vec![1; n_leaves];
        let mut merges = Vec::with_capacity(edges.len());

        for e in sorted {
            let ra = uf.find(e.a);
            let rb = uf.find(e.b);
            if ra == rb {
                continue; // parallel edge (cannot happen for a true MST)
            }
            let left = node_of_root[ra];
            let right = node_of_root[rb];
            let new_id = n_leaves + merges.len();
            let size = size_of_node[left] + size_of_node[right];
            merges.push(Merge {
                left,
                right,
                height: e.weight,
                size,
            });
            size_of_node.push(size);
            uf.union(ra, rb);
            let new_root = uf.find(ra);
            if node_of_root.len() <= new_root {
                node_of_root.resize(new_root + 1, 0);
            }
            node_of_root[new_root] = new_id;
        }

        Self { n_leaves, merges }
    }

    /// Builds the dendrogram from an OPTICS reachability plot: positions
    /// `1..n` of the plot are merged in order of increasing reachability,
    /// each merge joining the component left of the position with the
    /// component containing the position.
    pub fn from_optics(optics: &OpticsOrdering) -> Self {
        let order = optics.order();
        let plot = optics.reachability_plot();
        let n = order.len();
        if n == 0 {
            return Self {
                n_leaves: 0,
                merges: Vec::new(),
            };
        }
        // Build pseudo-MST edges: position i (> 0) connects order[i-1] and
        // order[i] at height = reachability[i].  For an OPTICS run with
        // ε = ∞ this produces the same single-linkage hierarchy as the
        // mutual-reachability MST (reachability values are the MST edge
        // weights in Prim order).
        let mut edges = Vec::with_capacity(n.saturating_sub(1));
        for i in 1..n {
            let w = if plot[i].is_finite() {
                plot[i]
            } else {
                f64::MAX
            };
            edges.push(Edge {
                a: order[i - 1],
                b: order[i],
                weight: w,
            });
        }
        Self::from_mst(n, &edges)
    }

    /// Number of leaf objects.
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// The merges in order of creation (non-decreasing height).
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Total number of nodes (leaves + internal).
    pub fn n_nodes(&self) -> usize {
        self.n_leaves + self.merges.len()
    }

    /// The root node id (the last merge), or the single leaf for `n = 1`.
    ///
    /// # Panics
    ///
    /// Panics for an empty dendrogram.
    pub fn root(&self) -> usize {
        assert!(self.n_leaves > 0, "empty dendrogram has no root");
        if self.merges.is_empty() {
            0
        } else {
            self.n_leaves + self.merges.len() - 1
        }
    }

    /// Children of an internal node (`None` for leaves).
    pub fn children(&self, node: usize) -> Option<(usize, usize)> {
        if node < self.n_leaves {
            None
        } else {
            let m = &self.merges[node - self.n_leaves];
            Some((m.left, m.right))
        }
    }

    /// The height at which `node` was created (0 for leaves).
    pub fn height_of(&self, node: usize) -> f64 {
        if node < self.n_leaves {
            0.0
        } else {
            self.merges[node - self.n_leaves].height
        }
    }

    /// Number of leaves under `node`.
    pub fn size_of(&self, node: usize) -> usize {
        if node < self.n_leaves {
            1
        } else {
            self.merges[node - self.n_leaves].size
        }
    }

    /// All leaf objects under `node`.
    pub fn leaves_of(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(x) = stack.pop() {
            if x < self.n_leaves {
                out.push(x);
            } else {
                let m = &self.merges[x - self.n_leaves];
                stack.push(m.left);
                stack.push(m.right);
            }
        }
        out.sort_unstable();
        out
    }

    /// Cuts the dendrogram at `height`: merges with height strictly greater
    /// than `height` are undone, and each remaining connected component with
    /// at least `min_size` objects becomes a cluster (smaller components are
    /// noise).
    pub fn cut(&self, height: f64, min_size: usize) -> Partition {
        let mut uf = UnionFind::new(self.n_leaves);
        // replay merges up to the height
        let mut stack_sizes: Vec<usize> = Vec::new();
        let _ = &mut stack_sizes;
        for m in &self.merges {
            if m.height <= height {
                // merge the representative leaves of both children
                let la = self.any_leaf_of(m.left);
                let lb = self.any_leaf_of(m.right);
                uf.union(la, lb);
            }
        }
        let labels = uf.component_labels();
        // count component sizes
        let n_comp = labels.iter().copied().max().map_or(0, |m| m + 1);
        let mut sizes = vec![0usize; n_comp];
        for &l in &labels {
            sizes[l] += 1;
        }
        let assignment: Vec<Option<usize>> = labels
            .iter()
            .map(|&l| (sizes[l] >= min_size.max(1)).then_some(l))
            .collect();
        Partition::from_optional_ids(&assignment).compact()
    }

    /// Any single leaf under `node` (used to address union-find components).
    fn any_leaf_of(&self, node: usize) -> usize {
        let mut x = node;
        while x >= self.n_leaves {
            x = self.merges[x - self.n_leaves].left;
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_distance::mutual_reachability_from_pairwise;
    use crate::mst::minimum_spanning_tree;
    use cvcp_data::distance::{pairwise_matrix, Euclidean};
    use cvcp_data::rng::SeededRng;
    use cvcp_data::synthetic::separated_blobs;
    use cvcp_data::DataMatrix;

    fn line() -> DataMatrix {
        DataMatrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![10.0]])
    }

    #[test]
    fn merge_heights_are_monotone() {
        let mrd = mutual_reachability_from_pairwise(&pairwise_matrix(&line(), &Euclidean), 2);
        let mst = minimum_spanning_tree(&mrd);
        let dend = Dendrogram::from_mst(4, &mst);
        assert_eq!(dend.merges().len(), 3);
        for w in dend.merges().windows(2) {
            assert!(w[0].height <= w[1].height + 1e-12);
        }
        assert_eq!(dend.size_of(dend.root()), 4);
    }

    #[test]
    fn leaves_of_root_is_everything() {
        let mrd = mutual_reachability_from_pairwise(&pairwise_matrix(&line(), &Euclidean), 2);
        let mst = minimum_spanning_tree(&mrd);
        let dend = Dendrogram::from_mst(4, &mst);
        assert_eq!(dend.leaves_of(dend.root()), vec![0, 1, 2, 3]);
        assert_eq!(dend.leaves_of(2), vec![2]);
    }

    #[test]
    fn cut_separates_blobs() {
        let mut rng = SeededRng::new(1);
        let ds = separated_blobs(3, 20, 2, 20.0, &mut rng);
        let mrd = mutual_reachability_from_pairwise(&pairwise_matrix(ds.matrix(), &Euclidean), 4);
        let mst = minimum_spanning_tree(&mrd);
        let dend = Dendrogram::from_mst(ds.len(), &mst);
        let partition = dend.cut(5.0, 4);
        assert_eq!(partition.n_clusters(), 3);
        let ari = cvcp_metrics::adjusted_rand_index(&partition, ds.labels());
        assert!(ari > 0.95, "ARI = {ari}");
    }

    #[test]
    fn cut_at_zero_makes_everything_noise_for_min_size_two() {
        let mrd = mutual_reachability_from_pairwise(&pairwise_matrix(&line(), &Euclidean), 1);
        let mst = minimum_spanning_tree(&mrd);
        let dend = Dendrogram::from_mst(4, &mst);
        let p = dend.cut(0.0, 2);
        assert_eq!(p.n_clusters(), 0);
        assert_eq!(p.n_noise(), 4);
    }

    #[test]
    fn cut_above_max_height_is_single_cluster() {
        let mrd = mutual_reachability_from_pairwise(&pairwise_matrix(&line(), &Euclidean), 2);
        let mst = minimum_spanning_tree(&mrd);
        let dend = Dendrogram::from_mst(4, &mst);
        let p = dend.cut(f64::MAX, 1);
        assert_eq!(p.n_clusters(), 1);
        assert_eq!(p.n_noise(), 0);
    }

    #[test]
    fn optics_and_mst_dendrograms_cut_to_the_same_clusters() {
        // The OPTICS reachability plot uses the asymmetric reachability
        // max(core(p), d(p, o)) while the mutual-reachability MST uses the
        // symmetric max(core(p), core(o), d(p, o)); the hierarchies are not
        // bit-identical but cut to the same clusters on separable data.
        let mut rng = SeededRng::new(2);
        let ds = separated_blobs(3, 15, 3, 12.0, &mut rng);
        let min_pts = 4;
        let mrd =
            mutual_reachability_from_pairwise(&pairwise_matrix(ds.matrix(), &Euclidean), min_pts);
        let mst = minimum_spanning_tree(&mrd);
        let from_mst = Dendrogram::from_mst(ds.len(), &mst);
        let optics = OpticsOrdering::run(ds.matrix(), &Euclidean, min_pts);
        let from_optics = Dendrogram::from_optics(&optics);
        let p1 = from_mst.cut(5.0, min_pts);
        let p2 = from_optics.cut(5.0, min_pts);
        assert_eq!(p1.n_clusters(), 3);
        assert_eq!(p2.n_clusters(), 3);
        let agreement = cvcp_metrics::adjusted_rand_index(&p1, ds.labels())
            .min(cvcp_metrics::adjusted_rand_index(&p2, ds.labels()));
        assert!(agreement > 0.95, "agreement = {agreement}");
    }

    #[test]
    fn children_and_heights_consistent() {
        let mrd = mutual_reachability_from_pairwise(&pairwise_matrix(&line(), &Euclidean), 1);
        let mst = minimum_spanning_tree(&mrd);
        let dend = Dendrogram::from_mst(4, &mst);
        let root = dend.root();
        let (l, r) = dend.children(root).unwrap();
        assert!(dend.height_of(l) <= dend.height_of(root));
        assert!(dend.height_of(r) <= dend.height_of(root));
        assert_eq!(dend.size_of(l) + dend.size_of(r), 4);
        assert!(dend.children(0).is_none());
    }

    #[test]
    fn single_and_empty_input() {
        let dend = Dendrogram::from_mst(1, &[]);
        assert_eq!(dend.root(), 0);
        assert_eq!(dend.leaves_of(0), vec![0]);
        let p = dend.cut(1.0, 1);
        assert_eq!(p.n_clusters(), 1);
    }
}
