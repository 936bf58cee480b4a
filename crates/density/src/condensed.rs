//! The condensed cluster tree.
//!
//! The raw dendrogram contains one merge per object; most of those merges are
//! "spurious" — a large cluster absorbing one or two points.  The condensed
//! tree keeps only the splits in which *both* sides reach a minimum cluster
//! size; points on smaller sides simply "fall out" of their cluster at the
//! corresponding density level.  Every node of the condensed tree is a
//! candidate cluster for FOSC, annotated with its member objects, its birth /
//! death density levels (λ = 1/height) and its HDBSCAN-style stability.

use crate::dendrogram::Dendrogram;

/// One candidate cluster of the condensed tree.
#[derive(Debug, Clone, PartialEq)]
pub struct CondensedNode {
    /// Node id within the tree (0 is the root).
    pub id: usize,
    /// Parent cluster id (`None` for the root).
    pub parent: Option<usize>,
    /// Child cluster ids (empty for tree leaves).
    pub children: Vec<usize>,
    /// Density level at which the cluster appears (λ = 1 / merge height of
    /// the dendrogram edge that created it; 0 for the root).
    pub birth_lambda: f64,
    /// Density level at which the cluster disappears (splits into child
    /// clusters or dissolves completely).
    pub death_lambda: f64,
    /// All objects contained in the cluster (the leaves of the dendrogram
    /// subtree rooted at the cluster's birth node).
    pub members: Vec<usize>,
    /// HDBSCAN stability: Σ_p (λ_p − λ_birth) over the members, where λ_p is
    /// the level at which object p leaves the cluster.
    pub stability: f64,
}

impl CondensedNode {
    /// Number of member objects.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// `true` when this node has no child clusters.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The condensed cluster tree extracted from a dendrogram for a given
/// minimum cluster size.
#[derive(Debug, Clone, PartialEq)]
pub struct CondensedTree {
    nodes: Vec<CondensedNode>,
    min_cluster_size: usize,
    n_objects: usize,
}

impl CondensedTree {
    /// Builds the condensed tree from `dendrogram` with the given minimum
    /// cluster size (clusters smaller than this are never candidates).
    ///
    /// # Panics
    ///
    /// Panics if `min_cluster_size < 2` or the dendrogram is empty.
    pub fn build(dendrogram: &Dendrogram, min_cluster_size: usize) -> Self {
        assert!(
            min_cluster_size >= 2,
            "minimum cluster size must be at least 2"
        );
        assert!(dendrogram.n_leaves() > 0, "empty dendrogram");
        let n = dendrogram.n_leaves();

        let mut nodes: Vec<CondensedNode> = Vec::new();
        // root cluster contains everything; birth at λ = 0
        nodes.push(CondensedNode {
            id: 0,
            parent: None,
            children: Vec::new(),
            birth_lambda: 0.0,
            death_lambda: f64::INFINITY,
            members: dendrogram.leaves_of(dendrogram.root()),
            stability: 0.0,
        });

        // Stack of (dendrogram node, condensed cluster id currently owning it).
        let mut stack: Vec<(usize, usize)> = vec![(dendrogram.root(), 0)];
        // λ at which each member leaves its owning cluster (for stability).
        let mut leave_lambda: Vec<Vec<(usize, f64)>> = vec![Vec::new()];

        while let Some((dnode, cluster)) = stack.pop() {
            let Some((left, right)) = dendrogram.children(dnode) else {
                // A single leaf reached without ever splitting: it leaves the
                // cluster at λ = ∞ conceptually; cap at the cluster's own
                // birth so stability stays finite.  (Only happens for tiny
                // data sets.)
                continue;
            };
            let height = dendrogram.height_of(dnode);
            let lambda = if height > 0.0 { 1.0 / height } else { f64::MAX };
            let size_left = dendrogram.size_of(left);
            let size_right = dendrogram.size_of(right);
            let big_left = size_left >= min_cluster_size;
            let big_right = size_right >= min_cluster_size;

            if big_left && big_right {
                // True split: two new candidate clusters are born.
                for child in [left, right] {
                    let id = nodes.len();
                    nodes.push(CondensedNode {
                        id,
                        parent: Some(cluster),
                        children: Vec::new(),
                        birth_lambda: lambda,
                        death_lambda: f64::INFINITY,
                        members: dendrogram.leaves_of(child),
                        stability: 0.0,
                    });
                    leave_lambda.push(Vec::new());
                    nodes[cluster].children.push(id);
                    stack.push((child, id));
                }
                // Members of the parent all leave it at this λ.
                if nodes[cluster].death_lambda.is_infinite() {
                    nodes[cluster].death_lambda = lambda;
                }
                for &m in &nodes[cluster].members {
                    leave_lambda[cluster].push((m, lambda));
                }
            } else if big_left || big_right {
                // The big side keeps the cluster identity; the small side
                // falls out at this λ.
                let (keep, fall) = if big_left {
                    (left, right)
                } else {
                    (right, left)
                };
                for m in dendrogram.leaves_of(fall) {
                    leave_lambda[cluster].push((m, lambda));
                }
                stack.push((keep, cluster));
            } else {
                // Both sides are too small: the whole cluster dissolves here.
                if nodes[cluster].death_lambda.is_infinite() {
                    nodes[cluster].death_lambda = lambda;
                }
                for m in dendrogram.leaves_of(dnode) {
                    leave_lambda[cluster].push((m, lambda));
                }
            }
        }

        // Finalise stability and death levels.
        for (id, node) in nodes.iter_mut().enumerate() {
            if node.death_lambda.is_infinite() {
                // Never split nor dissolved explicitly (e.g. a leaf cluster
                // whose members all left via fall-out): use the maximum
                // leave λ, or the birth λ when nothing was recorded.
                node.death_lambda = leave_lambda[id]
                    .iter()
                    .map(|&(_, l)| l)
                    .fold(node.birth_lambda, f64::max);
            }
            // BTreeMap, not HashMap: this map is lookup-only today, but a
            // hash map in a result path is one refactor away from an
            // iteration-order dependency (cvcp-analysis rule D1 forbids it
            // in this crate).
            let mut leave_of: std::collections::BTreeMap<usize, f64> =
                std::collections::BTreeMap::new();
            for &(m, l) in &leave_lambda[id] {
                let entry = leave_of.entry(m).or_insert(l);
                if l < *entry {
                    *entry = l;
                }
            }
            let birth = node.birth_lambda;
            node.stability = node
                .members
                .iter()
                .map(|m| {
                    let lp = leave_of.get(m).copied().unwrap_or(node.death_lambda);
                    let lp = if lp.is_finite() {
                        lp
                    } else {
                        node.death_lambda
                    };
                    (lp - birth).max(0.0)
                })
                .sum();
        }

        Self {
            nodes,
            min_cluster_size,
            n_objects: n,
        }
    }

    /// All nodes, indexed by id (node 0 is the root).
    pub fn nodes(&self) -> &[CondensedNode] {
        &self.nodes
    }

    /// The root node.
    pub fn root(&self) -> &CondensedNode {
        &self.nodes[0]
    }

    /// A node by id.
    pub fn node(&self, id: usize) -> &CondensedNode {
        &self.nodes[id]
    }

    /// Number of candidate clusters excluding the root.
    pub fn n_candidates(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// The minimum cluster size used to build the tree.
    pub fn min_cluster_size(&self) -> usize {
        self.min_cluster_size
    }

    /// Number of objects in the underlying data set.
    pub fn n_objects(&self) -> usize {
        self.n_objects
    }
}

impl cvcp_engine::ArtifactSize for CondensedTree {
    fn artifact_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .nodes
                .iter()
                .map(|node| {
                    std::mem::size_of::<CondensedNode>()
                        + (node.children.len() + node.members.len()) * std::mem::size_of::<usize>()
                })
                .sum::<usize>()
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

    fn tree_for_blobs(
        k: usize,
        per: usize,
        sep: f64,
        min_pts: usize,
        seed: u64,
    ) -> (CondensedTree, cvcp_data::Dataset) {
        let mut rng = SeededRng::new(seed);
        let ds = separated_blobs(k, per, 2, sep, &mut rng);
        let dist = pairwise_matrix(ds.matrix(), &Euclidean);
        let mst = minimum_spanning_tree(&mutual_reachability_from_pairwise(&dist, min_pts));
        let dend = Dendrogram::from_mst(ds.len(), &mst);
        (CondensedTree::build(&dend, min_pts), ds)
    }

    #[test]
    fn root_contains_all_objects() {
        let (tree, ds) = tree_for_blobs(3, 20, 15.0, 5, 1);
        assert_eq!(tree.root().members.len(), ds.len());
        assert_eq!(tree.root().birth_lambda, 0.0);
        assert_eq!(tree.n_objects(), ds.len());
    }

    #[test]
    fn three_blobs_produce_at_least_three_leaf_clusters() {
        let (tree, ds) = tree_for_blobs(3, 20, 15.0, 5, 3);
        let leaves: Vec<&CondensedNode> = tree
            .nodes()
            .iter()
            .filter(|n| n.is_leaf() && n.id != 0)
            .collect();
        assert!(leaves.len() >= 3, "got {} leaf clusters", leaves.len());
        // the three largest leaf clusters should correspond to the blobs
        let mut sizes: Vec<usize> = leaves.iter().map(|n| n.size()).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        assert!(sizes[2] >= 15, "blob clusters too small: {sizes:?}");
        // and each is class-pure
        for leaf in leaves.iter().filter(|n| n.size() >= 15) {
            let classes: std::collections::BTreeSet<usize> =
                leaf.members.iter().map(|&m| ds.labels()[m]).collect();
            assert_eq!(classes.len(), 1, "leaf cluster mixes classes");
        }
    }

    #[test]
    fn children_are_subsets_of_parents() {
        let (tree, _) = tree_for_blobs(4, 15, 12.0, 4, 3);
        for node in tree.nodes() {
            for &c in &node.children {
                let child = tree.node(c);
                assert_eq!(child.parent, Some(node.id));
                let parent_set: std::collections::BTreeSet<usize> =
                    node.members.iter().copied().collect();
                assert!(child.members.iter().all(|m| parent_set.contains(m)));
                assert!(child.birth_lambda >= node.birth_lambda);
            }
        }
    }

    #[test]
    fn sibling_clusters_are_disjoint() {
        let (tree, _) = tree_for_blobs(3, 20, 15.0, 5, 4);
        for node in tree.nodes() {
            if node.children.len() == 2 {
                let a: std::collections::BTreeSet<usize> = tree
                    .node(node.children[0])
                    .members
                    .iter()
                    .copied()
                    .collect();
                let b: std::collections::BTreeSet<usize> = tree
                    .node(node.children[1])
                    .members
                    .iter()
                    .copied()
                    .collect();
                assert!(a.is_disjoint(&b));
            }
        }
    }

    #[test]
    fn candidate_clusters_respect_min_size() {
        let (tree, _) = tree_for_blobs(3, 20, 15.0, 6, 5);
        for node in tree.nodes().iter().skip(1) {
            assert!(
                node.size() >= tree.min_cluster_size(),
                "cluster {} has only {} members",
                node.id,
                node.size()
            );
        }
    }

    #[test]
    fn stability_is_non_negative_and_finite() {
        let (tree, _) = tree_for_blobs(3, 20, 10.0, 5, 6);
        for node in tree.nodes() {
            assert!(node.stability.is_finite(), "stability must be finite");
            assert!(node.stability >= 0.0);
            assert!(node.death_lambda >= node.birth_lambda);
        }
    }

    #[test]
    fn blob_clusters_are_more_stable_than_the_root() {
        let (tree, _) = tree_for_blobs(3, 25, 20.0, 5, 7);
        let root_stability = tree.root().stability;
        let best_child = tree
            .nodes()
            .iter()
            .skip(1)
            .map(|n| n.stability)
            .fold(0.0f64, f64::max);
        assert!(
            best_child > root_stability,
            "blob cluster stability {best_child} should exceed root {root_stability}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn min_cluster_size_one_rejected() {
        let (_, ds) = tree_for_blobs(2, 10, 10.0, 3, 8);
        let dist = pairwise_matrix(ds.matrix(), &Euclidean);
        let mst = minimum_spanning_tree(&mutual_reachability_from_pairwise(&dist, 3));
        let dend = Dendrogram::from_mst(ds.len(), &mst);
        let _ = CondensedTree::build(&dend, 1);
    }

    /// Regression pin for the D1 fix: `CondensedTree::build` used to hold
    /// its per-node `leave_of` map in a `HashMap`.  The map is lookup-only,
    /// so swapping it for a `BTreeMap` must be bit-identical — this pins the
    /// exact stability bits for a fixed input so any future change that
    /// makes stabilities depend on map iteration order fails loudly.
    #[test]
    fn stability_bits_are_pinned_for_a_fixed_input() {
        let (tree, _) = tree_for_blobs(3, 20, 15.0, 5, 7);
        assert_eq!(tree.nodes().len(), 5);
        let checksum = tree
            .nodes()
            .iter()
            .fold(0u64, |acc, n| acc.rotate_left(7) ^ n.stability.to_bits());
        assert_eq!(
            checksum, 0x278f74928187085e,
            "stability bits drifted — result-path determinism regression"
        );
    }
}
