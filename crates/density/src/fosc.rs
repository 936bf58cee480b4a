//! FOSC — the Framework for Optimal Selection of Clusters from hierarchies
//! (Campello, Moulavi, Zimek & Sander, DMKD 2013; reference \[10\] of the CVCP
//! paper).
//!
//! Given the condensed cluster tree, FOSC selects the non-overlapping set of
//! clusters (an antichain of the tree, excluding the root) that maximises the
//! sum of a per-cluster quality measure, by a single bottom-up dynamic
//! programming pass:
//!
//! ```text
//! V(C) = max( q(C), Σ_{child} V(child) )
//! ```
//!
//! Two quality measures are provided:
//!
//! * **Unsupervised**: the HDBSCAN cluster stability (excess of mass).
//! * **Semi-supervised**: the constraint-satisfaction credit of the cluster —
//!   each object `x ∈ C` that appears in a constraint `(x, y)` contributes
//!   ½ if the constraint is satisfied assuming `C` is selected (must-link
//!   satisfied iff `y ∈ C`; cannot-link satisfied iff `y ∉ C`).  Objects left
//!   as noise contribute nothing.  This is exactly the decomposable objective
//!   of Campello et al. that makes the DP optimal.
//!
//! The semi-supervised objective can optionally use stability as a
//! tie-breaker (scaled so it never overrides a constraint-credit difference),
//! which resolves the selection in subtrees not touched by any constraint —
//! the behaviour used by FOSC-OPTICSDend in this suite.
//!
//! Every node's quality is computed in one pass before the DP.  The
//! tiebreak's maximum stability is taken once per extraction, and a node's
//! members are marked in one reused `Vec<bool>` mask, which the constraint
//! scan reads and which is cleared again before the next node.  Both are
//! bit-identical to re-taking the maximum and building a set of members for
//! each node: the maximum is the same fold over the same nodes, the mask
//! answers every membership query as the set would, and the scan adds each
//! node's credits in constraint order as before.  The credits are multiples
//! of ½, so their sum would be exact in any order anyway.

use crate::condensed::CondensedTree;
use cvcp_constraints::{ConstraintKind, ConstraintSet};
use cvcp_data::Partition;

/// The per-cluster quality measure optimised by FOSC.
#[derive(Debug, Clone, PartialEq)]
pub enum ExtractionObjective {
    /// Unsupervised extraction by cluster stability (HDBSCAN*).
    Stability,
    /// Semi-supervised extraction by constraint satisfaction.
    ConstraintSatisfaction {
        /// Constraints guiding the extraction.
        constraints: ConstraintSet,
        /// When `true`, cluster stability (normalised to be strictly smaller
        /// than any ½-credit difference) breaks ties between selections with
        /// equal constraint credit.
        stability_tiebreak: bool,
    },
}

/// The result of a FOSC extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct FoscSelection {
    /// Ids (into the condensed tree) of the selected clusters.
    pub selected: Vec<usize>,
    /// The resulting flat partition (unselected objects are noise).
    pub partition: Partition,
    /// Total objective value of the selection.
    pub total_value: f64,
}

/// Runs the FOSC dynamic program on `tree` and returns the optimal selection.
///
/// The root (the all-data cluster) is never selected unless it has no child
/// clusters at all (degenerate trees), in which case selecting it is the only
/// non-trivial answer.
pub fn extract_clusters(tree: &CondensedTree, objective: &ExtractionObjective) -> FoscSelection {
    let n_nodes = tree.nodes().len();
    let qualities = node_qualities(tree, objective);

    // Bottom-up DP.  Nodes are indexed so that parents have smaller ids than
    // children (the builder pushes children after parents), so iterating in
    // reverse id order visits children before parents.
    let mut value = vec![0.0f64; n_nodes];
    let mut keep = vec![false; n_nodes]; // true = select this node, false = defer to children
    for id in (0..n_nodes).rev() {
        let node = tree.node(id);
        let children_value: f64 = node.children.iter().map(|&c| value[c]).sum();
        let own = qualities[id];
        if node.id == 0 {
            // the root is not selectable (unless childless, handled below)
            value[id] = children_value;
            keep[id] = false;
        } else if node.is_leaf() || own >= children_value {
            value[id] = own;
            keep[id] = true;
        } else {
            value[id] = children_value;
            keep[id] = false;
        }
    }

    // Walk down from the root collecting the highest kept nodes.
    let mut selected = Vec::new();
    let mut stack: Vec<usize> = tree.root().children.clone();
    while let Some(id) = stack.pop() {
        if keep[id] {
            selected.push(id);
        } else {
            stack.extend(tree.node(id).children.iter().copied());
        }
    }
    selected.sort_unstable();

    // Degenerate case: no candidate clusters below the root at all.
    if selected.is_empty() && tree.root().children.is_empty() {
        selected.push(0);
    }

    // Materialise the flat partition.
    let mut assignment: Vec<Option<usize>> = vec![None; tree.n_objects()];
    for (cluster_idx, &id) in selected.iter().enumerate() {
        for &m in &tree.node(id).members {
            assignment[m] = Some(cluster_idx);
        }
    }
    let total_value = selected.iter().map(|&id| qualities[id]).sum();

    FoscSelection {
        partition: Partition::from_optional_ids(&assignment),
        selected,
        total_value,
    }
}

/// The quality of every candidate cluster under the chosen objective,
/// indexed by node id, in one pass over the nodes.
fn node_qualities(tree: &CondensedTree, objective: &ExtractionObjective) -> Vec<f64> {
    let nodes = tree.nodes();
    let (constraints, stability_tiebreak) = match objective {
        ExtractionObjective::Stability => return nodes.iter().map(|n| n.stability).collect(),
        ExtractionObjective::ConstraintSatisfaction {
            constraints,
            stability_tiebreak,
        } => (constraints, *stability_tiebreak),
    };
    // Normalise stability into [0, ε) with ε strictly below the smallest
    // possible credit difference (½), so it only breaks exact ties in
    // constraint credit.
    let max_stab = nodes
        .iter()
        .map(|n| n.stability)
        .fold(0.0, f64::max)
        .max(1e-12);
    // Sized for both index spaces: a constraint endpoint the tree does not
    // hold reads as outside every cluster.
    let mut member = vec![false; tree.n_objects().max(constraints.n_objects())];
    nodes
        .iter()
        .map(|node| {
            let credit = constraint_credit(&node.members, constraints, &mut member);
            if stability_tiebreak {
                credit + 0.2499 * (node.stability / max_stab)
            } else {
                credit
            }
        })
        .collect()
}

/// The constraint-satisfaction credit of the cluster with these `members`:
/// ½ per constraint endpoint inside the cluster whose constraint is
/// satisfied when the cluster is part of the solution.  `member` is an
/// all-`false` mask over the objects, returned all-`false`.
fn constraint_credit(members: &[usize], constraints: &ConstraintSet, member: &mut [bool]) -> f64 {
    if constraints.is_empty() {
        return 0.0;
    }
    for &m in members {
        member[m] = true;
    }
    let mut credit = 0.0;
    for c in constraints.iter() {
        let a_in = member[c.a];
        let b_in = member[c.b];
        match c.kind {
            ConstraintKind::MustLink => {
                // satisfied only when both endpoints are in the cluster
                if a_in && b_in {
                    credit += 1.0;
                }
            }
            ConstraintKind::CannotLink => {
                // each endpoint inside the cluster earns ½ when its partner
                // is outside
                if a_in && !b_in {
                    credit += 0.5;
                }
                if b_in && !a_in {
                    credit += 0.5;
                }
            }
        }
    }
    for &m in members {
        member[m] = false;
    }
    credit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_distance::mutual_reachability_from_pairwise;
    use crate::dendrogram::Dendrogram;
    use crate::mst::minimum_spanning_tree;
    use cvcp_data::distance::{pairwise_matrix, Euclidean};
    use cvcp_data::rng::SeededRng;
    use cvcp_data::synthetic::separated_blobs;
    use cvcp_data::Dataset;
    use cvcp_metrics::adjusted_rand_index;

    fn tree_for(ds: &Dataset, min_pts: usize) -> CondensedTree {
        let dist = pairwise_matrix(ds.matrix(), &Euclidean);
        let mst = minimum_spanning_tree(&mutual_reachability_from_pairwise(&dist, min_pts));
        let dend = Dendrogram::from_mst(ds.len(), &mst);
        CondensedTree::build(&dend, min_pts)
    }

    #[test]
    fn stability_extraction_recovers_blobs() {
        let mut rng = SeededRng::new(1);
        let ds = separated_blobs(3, 25, 2, 15.0, &mut rng);
        let tree = tree_for(&ds, 5);
        let sel = extract_clusters(&tree, &ExtractionObjective::Stability);
        assert_eq!(sel.selected.len(), 3, "selected {:?}", sel.selected);
        let ari = adjusted_rand_index(&sel.partition, ds.labels());
        assert!(ari > 0.9, "ARI = {ari}");
    }

    #[test]
    fn selection_is_an_antichain() {
        let mut rng = SeededRng::new(2);
        let ds = separated_blobs(4, 20, 3, 10.0, &mut rng);
        let tree = tree_for(&ds, 4);
        let sel = extract_clusters(&tree, &ExtractionObjective::Stability);
        // no selected cluster is an ancestor of another
        for &a in &sel.selected {
            for &b in &sel.selected {
                if a == b {
                    continue;
                }
                let mut cur = tree.node(b).parent;
                while let Some(p) = cur {
                    assert_ne!(p, a, "cluster {a} is an ancestor of {b}");
                    cur = tree.node(p).parent;
                }
            }
        }
    }

    #[test]
    fn dp_value_is_at_least_any_single_cluster() {
        let mut rng = SeededRng::new(3);
        let ds = separated_blobs(3, 20, 2, 12.0, &mut rng);
        let tree = tree_for(&ds, 5);
        let sel = extract_clusters(&tree, &ExtractionObjective::Stability);
        for node in tree.nodes().iter().skip(1) {
            assert!(
                sel.total_value >= node.stability - 1e-9,
                "DP value {} below single-cluster stability {}",
                sel.total_value,
                node.stability
            );
        }
    }

    #[test]
    fn constraints_can_force_coarser_clustering() {
        // Two tight sub-blobs close together plus one far blob.  Unsupervised
        // stability tends to split the two close sub-blobs; must-link
        // constraints between them should force FOSC to keep them merged.
        let mut rng = SeededRng::new(4);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let _ = i;
            rows.push(vec![rng.normal(0.0, 0.3), rng.normal(0.0, 0.3)]);
            labels.push(0usize);
        }
        for _ in 0..20 {
            rows.push(vec![rng.normal(3.0, 0.3), rng.normal(0.0, 0.3)]);
            labels.push(0usize);
        }
        for _ in 0..20 {
            rows.push(vec![rng.normal(30.0, 0.3), rng.normal(0.0, 0.3)]);
            labels.push(1usize);
        }
        let ds = Dataset::new(
            "two_sub_blobs",
            cvcp_data::DataMatrix::from_rows(&rows),
            labels,
        );
        let tree = tree_for(&ds, 4);

        // Constraints from the ground truth: the two sub-blobs must link.
        let mut constraints = ConstraintSet::new(ds.len());
        for i in 0..6 {
            constraints.add_must_link(i, 20 + i); // across the two sub-blobs
            constraints.add_cannot_link(i, 40 + i);
        }
        let ss = extract_clusters(
            &tree,
            &ExtractionObjective::ConstraintSatisfaction {
                constraints: constraints.clone(),
                stability_tiebreak: true,
            },
        );
        let ari_ss = adjusted_rand_index(&ss.partition, ds.labels());
        assert!(ari_ss > 0.9, "semi-supervised ARI = {ari_ss}");
        // every must-link is satisfied
        for c in constraints.iter() {
            if c.kind == ConstraintKind::MustLink {
                assert!(ss.partition.same_cluster(c.a, c.b));
            } else {
                assert!(!ss.partition.same_cluster(c.a, c.b));
            }
        }
    }

    #[test]
    fn empty_constraints_with_tiebreak_behave_like_stability() {
        let mut rng = SeededRng::new(5);
        let ds = separated_blobs(3, 20, 2, 15.0, &mut rng);
        let tree = tree_for(&ds, 5);
        let stab = extract_clusters(&tree, &ExtractionObjective::Stability);
        let ss = extract_clusters(
            &tree,
            &ExtractionObjective::ConstraintSatisfaction {
                constraints: ConstraintSet::new(ds.len()),
                stability_tiebreak: true,
            },
        );
        assert_eq!(stab.selected, ss.selected);
    }

    #[test]
    fn root_is_not_selected_when_children_exist() {
        let mut rng = SeededRng::new(6);
        let ds = separated_blobs(2, 20, 2, 12.0, &mut rng);
        let tree = tree_for(&ds, 4);
        let sel = extract_clusters(&tree, &ExtractionObjective::Stability);
        assert!(!sel.selected.contains(&0));
    }

    #[test]
    fn noise_objects_are_unassigned() {
        let mut rng = SeededRng::new(13);
        let base = separated_blobs(2, 25, 2, 20.0, &mut rng);
        let ds = cvcp_data::synthetic::with_uniform_noise(&base, 6, 0.4, &mut rng);
        let tree = tree_for(&ds, 5);
        let sel = extract_clusters(&tree, &ExtractionObjective::Stability);
        assert!(sel.partition.n_noise() > 0, "expected some noise objects");
        assert!(sel.partition.n_clusters() >= 2);
    }

    /// Pure constraint credit (no stability tiebreak) of every node, through
    /// the production quality pass.
    fn credits(tree: &CondensedTree, constraints: &ConstraintSet) -> Vec<f64> {
        node_qualities(
            tree,
            &ExtractionObjective::ConstraintSatisfaction {
                constraints: constraints.clone(),
                stability_tiebreak: false,
            },
        )
    }

    #[test]
    fn constraint_credit_counts_half_per_endpoint() {
        let mut rng = SeededRng::new(8);
        let ds = separated_blobs(2, 10, 2, 15.0, &mut rng);
        let tree = tree_for(&ds, 3);
        // pick one leaf cluster and craft constraints around it
        let leaf = tree
            .nodes()
            .iter()
            .find(|n| n.id != 0 && n.is_leaf())
            .expect("leaf cluster");
        let inside = leaf.members[0];
        let inside2 = leaf.members[1];
        let outside = (0..ds.len())
            .find(|i| !leaf.members.contains(i))
            .expect("outside object");
        let mut cs = ConstraintSet::new(ds.len());
        cs.add_must_link(inside, inside2); // satisfied -> 1.0
        cs.add_cannot_link(inside, outside); // half credit -> 0.5
        let q = credits(&tree, &cs)[leaf.id];
        assert!((q - 1.5).abs() < 1e-12, "credit = {q}");
    }

    /// Regression pin for the D1 fix: the constraint credit used to collect
    /// cluster members into a `HashSet`.  Membership tests are order-free,
    /// so any other membership structure must be bit-identical — this
    /// checks the production credit against an order-insensitive `HashSet`
    /// reference for every candidate cluster, requiring exact `f64` bit
    /// equality.
    #[test]
    fn constraint_credit_matches_a_hash_set_reference_bit_for_bit() {
        use std::collections::HashSet;
        let mut rng = SeededRng::new(9);
        let ds = separated_blobs(3, 15, 2, 12.0, &mut rng);
        let tree = tree_for(&ds, 4);
        let mut cs = ConstraintSet::new(ds.len());
        for i in 0..ds.len() {
            let j = (i * 7 + 3) % ds.len();
            if i == j {
                continue;
            }
            if ds.labels()[i] == ds.labels()[j] {
                cs.add_must_link(i, j);
            } else {
                cs.add_cannot_link(i, j);
            }
        }
        let reference = |id: usize| -> f64 {
            let members: HashSet<usize> = tree.node(id).members.iter().copied().collect();
            let mut credit = 0.0;
            for c in cs.iter() {
                let (a_in, b_in) = (members.contains(&c.a), members.contains(&c.b));
                match c.kind {
                    ConstraintKind::MustLink => {
                        if a_in && b_in {
                            credit += 1.0;
                        }
                    }
                    ConstraintKind::CannotLink => {
                        if a_in && !b_in {
                            credit += 0.5;
                        }
                        if b_in && !a_in {
                            credit += 0.5;
                        }
                    }
                }
            }
            credit
        };
        let got = credits(&tree, &cs);
        for node in tree.nodes() {
            assert_eq!(
                got[node.id].to_bits(),
                reference(node.id).to_bits(),
                "credit bits differ for cluster {}",
                node.id
            );
        }
    }

    /// The per-node quality as it was computed before the quality pass:
    /// the maximum stability re-taken for every node and a `BTreeSet` of the
    /// node's members built for every credit.  Kept as the reference the
    /// production pass must match bit for bit.
    fn reference_quality(tree: &CondensedTree, id: usize, objective: &ExtractionObjective) -> f64 {
        match objective {
            ExtractionObjective::Stability => tree.node(id).stability,
            ExtractionObjective::ConstraintSatisfaction {
                constraints,
                stability_tiebreak,
            } => {
                let credit = reference_credit(tree, id, constraints);
                if *stability_tiebreak {
                    let max_stab: f64 = tree
                        .nodes()
                        .iter()
                        .map(|n| n.stability)
                        .fold(0.0, f64::max)
                        .max(1e-12);
                    credit + 0.2499 * (tree.node(id).stability / max_stab)
                } else {
                    credit
                }
            }
        }
    }

    fn reference_credit(tree: &CondensedTree, id: usize, constraints: &ConstraintSet) -> f64 {
        if constraints.is_empty() {
            return 0.0;
        }
        let members: std::collections::BTreeSet<usize> =
            tree.node(id).members.iter().copied().collect();
        let mut credit = 0.0;
        for c in constraints.iter() {
            let a_in = members.contains(&c.a);
            let b_in = members.contains(&c.b);
            match c.kind {
                ConstraintKind::MustLink => {
                    if a_in && b_in {
                        credit += 1.0;
                    }
                }
                ConstraintKind::CannotLink => {
                    if a_in && !b_in {
                        credit += 0.5;
                    }
                    if b_in && !a_in {
                        credit += 0.5;
                    }
                }
            }
        }
        credit
    }

    /// Random constraints over `0..n_objects`: about `per_object` per object,
    /// must-link with probability one half.
    fn random_constraints(
        n_objects: usize,
        per_object: usize,
        rng: &mut SeededRng,
    ) -> ConstraintSet {
        let mut cs = ConstraintSet::new(n_objects);
        for _ in 0..n_objects * per_object {
            let (a, b) = (rng.index(n_objects), rng.index(n_objects));
            if a == b {
                continue;
            }
            if rng.bernoulli(0.5) {
                cs.add_must_link(a, b);
            } else {
                cs.add_cannot_link(a, b);
            }
        }
        cs
    }

    #[test]
    fn qualities_match_the_per_node_reference_bit_for_bit() {
        let mut rng = SeededRng::new(21);
        for case in 0..40 {
            // Points on a coarse grid: ties and duplicates are common.
            let n = 4 + rng.index(40);
            let dims = 1 + rng.index(3);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dims).map(|_| rng.index(6) as f64).collect())
                .collect();
            let ds = Dataset::new("grid", cvcp_data::DataMatrix::from_rows(&rows), vec![0; n]);
            let tree = tree_for(&ds, 2 + rng.index(4));
            // Every fourth set spans more objects than the tree holds, with
            // endpoints beyond the tree: they read as outside every node.
            let n_objects = if case % 4 == 3 {
                n + 1 + rng.index(8)
            } else {
                n
            };
            let cs = random_constraints(n_objects, 1 + rng.index(4), &mut rng);
            let objectives = [
                ExtractionObjective::Stability,
                ExtractionObjective::ConstraintSatisfaction {
                    constraints: cs.clone(),
                    stability_tiebreak: false,
                },
                ExtractionObjective::ConstraintSatisfaction {
                    constraints: cs,
                    stability_tiebreak: true,
                },
                ExtractionObjective::ConstraintSatisfaction {
                    constraints: ConstraintSet::new(n_objects),
                    stability_tiebreak: true,
                },
            ];
            for objective in &objectives {
                let got = node_qualities(&tree, objective);
                assert_eq!(got.len(), tree.nodes().len());
                for node in tree.nodes() {
                    let expected = reference_quality(&tree, node.id, objective);
                    assert_eq!(
                        got[node.id].to_bits(),
                        expected.to_bits(),
                        "case {case}, node {}: {} vs reference {expected} under {objective:?}",
                        node.id,
                        got[node.id]
                    );
                }
            }
        }
    }
}
