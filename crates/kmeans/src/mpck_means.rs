//! MPCKMeans — Metric Pairwise Constrained K-Means (Bilenko, Basu & Mooney,
//! ICML 2004).
//!
//! The semi-supervised partitional clustering algorithm evaluated by the CVCP
//! paper.  It integrates constraints and metric learning in an EM-style loop:
//!
//! * **Initialisation**: cluster centroids are seeded from the must-link
//!   neighbourhood sets (transitive closure of the must-links), topped up /
//!   reduced via weighted farthest-first traversal
//!   ([`crate::init::neighborhood_candidates`] +
//!   [`crate::init::centroids_from_candidates`]).
//! * **E-step**: objects are assigned greedily, in random order, to the
//!   cluster minimising their contribution to the objective: the metric
//!   distance to the centroid, minus the metric's log-determinant, plus
//!   penalties for must-link / cannot-link violations with respect to the
//!   objects assigned earlier in the pass.
//! * **M-step**: centroids are recomputed, and each cluster's *diagonal*
//!   Mahalanobis metric `A_h` is re-estimated from the within-cluster scatter
//!   plus the scatter of violated constraints involving that cluster.
//!
//! The objective minimised is
//!
//! ```text
//!   Σ_x ( ‖x − μ_{l_x}‖²_{A_{l_x}} − log det A_{l_x} )
//! + Σ_{(i,j)∈ML, l_i≠l_j} w  · ½ ( f_ML^{A_{l_i}}(i,j) + f_ML^{A_{l_j}}(i,j) )
//! + Σ_{(i,j)∈CL, l_i=l_j} w̄ · f_CL^{A_{l_i}}(i,j)
//! ```
//!
//! with `f_ML(i,j) = ‖x_i − x_j‖²_A` and
//! `f_CL(i,j) = d_max²_A − ‖x_i − x_j‖²_A` (violating a cannot-link between
//! close objects is penalised more).
//!
//! The fit's state is flat: row `c` of a k × d [`DataMatrix`] is cluster
//! `c`'s centroid or metric.  It reads the data dimension-major from the
//! matrix's memoised [`DataMatrix::column_view`], which also holds the
//! column bounds behind the cannot-link offset, and keeps two tables:
//!
//! * the k × n distance table, row `c` holding every object's
//!   `‖x_i − μ_c‖²_{A_c}` (`objective::fill_distances`);
//! * the k × |ML| must-link pair table, row `c` holding every must-link
//!   pair's `‖x_a − x_b‖²_{A_c}` (`PairTable`), filled from the pairs'
//!   differences copied dimension-major once per fit.
//!
//! Both fills run the entries as their inner, vectorised loop, and each
//! entry sums its dimensions in ascending order from `0.0`, exactly as
//! `weighted_sq_dist` does, so it is bit-identical to it.  The tables
//! filled after an iteration's M-step serve that iteration's objective
//! (`dist[c_i][i]` and the violated must-links' pair distances) and the
//! next iteration's E-step; the empty-cluster reseed reads the distance
//! table of the centroids the E-step used (`dist[next_i][i]`).
//!
//! **What an iteration recomputes.**  After the reseed, a cluster counts as
//! changed when an object entered or left it; before the first iteration
//! every cluster does.  Only the changed clusters get new centroid sums,
//! metric scatter and metric terms, and new rows in both tables.  A
//! cluster whose members stayed put would get the same bits again: its
//! centroid sums the same rows in the same order, and its metric sums the
//! same scatter plus the same violated constraints, those with one end
//! (must-links) or both ends (cannot-links) among its members, in the same
//! order.  The M-step sums add each object's row element-wise into its
//! cluster's row of a k × d buffer, in row order and with the association
//! of the nested loops they replaced.
//!
//! **The E-step** runs in two parts.  An object without any constraint
//! costs its centroid term alone, `dist[c][i] − log det A_c`, whatever was
//! assigned before it, so one pass over the distance table, cluster by
//! cluster, takes every such object's strict-`<`, first-wins argmin.
//! Then the greedy walk visits the constrained objects in the shuffled
//! order (the whole order is still shuffled, so the RNG draws are the
//! same).  It produces an object's k costs neighbour by neighbour rather
//! than cluster by cluster: every cluster's centroid term from the table,
//! then one walk over the object's already-assigned must-link partners,
//! which reads the pair's distances from the pair table and adds the
//! must-link term to every cluster but the partner's, and finally one walk
//! over its already-assigned cannot-link partners, which adds the
//! cannot-link term to the partner's cluster alone.  Each cluster's cost
//! therefore receives the same terms in the same order as a rescan of every
//! partner for each cluster in turn, so every cost, and with the
//! strict-`<`, first-wins argmin every assignment, is bit-identical to that
//! loop.  The partners come from a flat per-fit index that lists them, with
//! their pair's index, in constraint order.

use crate::init::{centroids_from_candidates, neighborhood_candidates};
use crate::objective::{fill_distance_row, fill_distances, recompute_centroids, weighted_sq_dist};
use cvcp_constraints::closure::transitive_closure;
use cvcp_constraints::{Constraint, ConstraintKind, ConstraintSet};
use cvcp_data::rng::SeededRng;
use cvcp_data::{ColumnView, DataMatrix, Partition};
use cvcp_engine::ArtifactSize;

/// The `k`-invariant seeding structures of an MPCKMeans run: the (optionally
/// transitively closed) working constraint set and the must-link
/// neighbourhood centroid candidates.
///
/// Both depend only on the data and the constraint realisation, so one
/// seeding serves every cluster count of a parameter sweep — this is the
/// artifact the engine's cache shares across the CVCP grid (keyed by
/// `ArtifactKey::MpckSeeding`).
#[derive(Debug, Clone, PartialEq)]
pub struct MpckSeeding {
    /// The working constraint set (the transitive closure of the input when
    /// `use_closure` was requested, the input itself otherwise).
    pub working: ConstraintSet,
    /// Must-link neighbourhood centroids and sizes
    /// (see [`neighborhood_candidates`]).
    pub candidates: Vec<(Vec<f64>, usize)>,
}

impl MpckSeeding {
    /// Computes the seeding structures for `data` and `constraints`.
    ///
    /// `use_closure` must match the [`MpckMeans::use_closure`] flag of the
    /// configuration the seeding will be used with.
    pub fn compute(data: &DataMatrix, constraints: &ConstraintSet, use_closure: bool) -> Self {
        let working = if use_closure {
            transitive_closure(constraints)
        } else {
            constraints.clone()
        };
        let candidates = neighborhood_candidates(data, &working);
        Self {
            working,
            candidates,
        }
    }
}

impl ArtifactSize for MpckSeeding {
    fn artifact_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.working.len() * std::mem::size_of::<Constraint>()
            + self
                .candidates
                .iter()
                .map(|(centroid, _)| std::mem::size_of::<(Vec<f64>, usize)>() + centroid.len() * 8)
                .sum::<usize>()
    }
}

/// Configuration for MPCKMeans.
#[derive(Debug, Clone)]
pub struct MpckMeans {
    /// Number of clusters (the parameter CVCP selects).
    pub k: usize,
    /// Weight `w` of a must-link violation.
    pub must_link_weight: f64,
    /// Weight `w̄` of a cannot-link violation.
    pub cannot_link_weight: f64,
    /// Maximum number of EM iterations.
    pub max_iter: usize,
    /// Whether per-cluster diagonal metrics are learned (disable to obtain
    /// PCKMeans behaviour).
    pub learn_metric: bool,
    /// Lower clamp applied to learned metric weights (numerical safety).
    pub min_weight: f64,
    /// Upper clamp applied to learned metric weights.
    pub max_weight: f64,
    /// Whether to take the transitive closure of the must-link constraints
    /// before clustering (the original algorithm does).
    pub use_closure: bool,
}

/// Result of an MPCKMeans run.
#[derive(Debug, Clone)]
pub struct MpckMeansResult {
    /// Final cluster assignment (no noise objects).
    pub partition: Partition,
    /// Final centroids, one row per cluster (k × d).
    pub centroids: DataMatrix,
    /// Final per-cluster diagonal metric weights, one row per cluster
    /// (k × d).
    pub metrics: DataMatrix,
    /// Final objective value.
    pub objective: f64,
    /// Number of EM iterations executed.
    pub iterations: usize,
    /// Number of constraint violations in the final assignment.
    pub violations: usize,
}

impl MpckMeans {
    /// Creates an MPCKMeans configuration with this crate's defaults:
    /// violation weights 1, at most 50 EM iterations, metric learning and
    /// the must-link closure enabled, metric weights clamped to
    /// `[1e-3, 1e3]`.
    ///
    /// The suite's experiments and served selections build MPCKMeans from
    /// `cvcp_core::MpckMethod::default()` instead, which keeps the weights
    /// and metric learning but caps EM at **30** iterations
    /// ([`Self::with_max_iter`]).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            must_link_weight: 1.0,
            cannot_link_weight: 1.0,
            max_iter: 50,
            learn_metric: true,
            min_weight: 1e-3,
            max_weight: 1e3,
            use_closure: true,
        }
    }

    /// Sets the constraint-violation weights.
    pub fn with_weights(mut self, must_link: f64, cannot_link: f64) -> Self {
        self.must_link_weight = must_link;
        self.cannot_link_weight = cannot_link;
        self
    }

    /// Enables or disables metric learning.
    pub fn with_metric_learning(mut self, enabled: bool) -> Self {
        self.learn_metric = enabled;
        self
    }

    /// Sets the maximum number of EM iterations.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter.max(1);
        self
    }

    /// Runs MPCKMeans on `data` with the given constraints.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or larger than the number of objects.
    pub fn fit(
        &self,
        data: &DataMatrix,
        constraints: &ConstraintSet,
        rng: &mut SeededRng,
    ) -> MpckMeansResult {
        let seeding = MpckSeeding::compute(data, constraints, self.use_closure);
        self.fit_seeded(data, &seeding, rng)
    }

    /// Runs MPCKMeans on precomputed seeding structures — **bit-identical**
    /// to [`Self::fit`] when `seeding` was computed from the same data and
    /// constraints with a matching `use_closure` flag.  This is the entry
    /// point of the cache-aware path: one [`MpckSeeding`] is shared by every
    /// `k` of a parameter sweep.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or larger than the number of objects.
    pub fn fit_seeded(
        &self,
        data: &DataMatrix,
        seeding: &MpckSeeding,
        rng: &mut SeededRng,
    ) -> MpckMeansResult {
        let n = data.n_rows();
        let dims = data.n_cols();
        assert!(
            self.k >= 1 && self.k <= n,
            "k = {} invalid for {n} objects",
            self.k
        );

        let (ml_pairs, cl_pairs) = constraint_pairs(&seeding.working);
        let ml_of = Neighbours::from_pairs(n, &ml_pairs);
        let cl_of = Neighbours::from_pairs(n, &cl_pairs);

        // Row c of the k × d centroids and metrics is cluster c's, row c of
        // the k × n table `dist` holds every object's distance to it, and
        // row c of the must-link pair table every must-link's distance
        // under its metric.
        let mut centroids = DataMatrix::from_rows(&centroids_from_candidates(
            data,
            seeding.candidates.clone(),
            self.k,
            rng,
        ));
        let mut metrics = DataMatrix::from_flat(vec![1.0; self.k * dims], self.k, dims);
        let mut assignment: Vec<usize> = vec![0; n];
        let mut objective = f64::INFINITY;
        let mut iterations = 0;

        // A cluster changed when an object entered or left it; every
        // cluster counts as changed before the first iteration.
        let mut changed = vec![true; self.k];
        let columns = data.column_view();
        let (mins, maxs) = (columns.mins(), columns.maxs());
        let mut terms = MetricTerms::of(&metrics, mins, maxs);
        let mut dist = DataMatrix::zeros(self.k, n);
        fill_distances(columns, &centroids, &metrics, &changed, &mut dist);
        let mut pair_dist = PairTable::new(columns, &ml_pairs, self.k);
        pair_dist.fill(&metrics, &changed);

        // Buffers reused across EM iterations: the visiting order, the
        // E-step's partial assignment of the constrained objects, its
        // least costs so far and k-length costs, the complete assignment
        // and the cluster sizes.
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut assigned: Vec<Option<usize>> = vec![None; n];
        let mut least = vec![0.0f64; n];
        let mut costs = vec![0.0f64; self.k];
        let mut next: Vec<usize> = vec![0; n];
        let mut counts = vec![0usize; self.k];

        for it in 0..self.max_iter {
            iterations = it + 1;

            // ---------------- E-step: greedy ordered assignment ----------------
            order.clear();
            order.extend(0..n);
            rng.shuffle(&mut order);
            EStep {
                data,
                dist: &dist,
                pair_dist: &pair_dist,
                metrics: &metrics,
                terms: &terms,
                ml_of: &ml_of,
                cl_of: &cl_of,
                must_link_weight: self.must_link_weight,
                cannot_link_weight: self.cannot_link_weight,
            }
            .assign(&order, &mut assigned, &mut least, &mut costs, &mut next);
            counts.fill(0);
            for &c in &next {
                counts[c] += 1;
            }

            reseed_empty(&dist, &mut counts, &mut next);
            if it > 0 {
                changed.fill(false);
                for (&was, &now) in assignment.iter().zip(&next) {
                    if was != now {
                        changed[was] = true;
                        changed[now] = true;
                    }
                }
            }

            // ------ M-step: the changed clusters' centroids and metrics ------
            // A cluster whose members stayed put keeps its centroid, its
            // metric (whose violated constraints are the pairs with one or
            // both ends among its members) and its rows of both tables.
            recompute_centroids(data, &next, &counts, &changed, &mut centroids);
            if self.learn_metric {
                self.update_metrics(
                    data,
                    &next,
                    &counts,
                    &changed,
                    &centroids,
                    &ml_pairs,
                    &cl_pairs,
                    mins,
                    maxs,
                    &mut metrics,
                );
                terms.update(&metrics, mins, maxs, &changed);
                pair_dist.fill(&metrics, &changed);
            }
            // These tables serve the objective below and the next E-step.
            fill_distances(columns, &centroids, &metrics, &changed, &mut dist);

            // ---------------- Objective & convergence ----------------
            let new_objective = self.objective(
                data, &next, &dist, &pair_dist, &metrics, &ml_pairs, &cl_pairs, &terms,
            );
            let converged = next == assignment
                || (objective - new_objective).abs() <= 1e-9 * objective.abs().max(1.0);
            std::mem::swap(&mut assignment, &mut next);
            objective = new_objective;
            if converged && it > 0 {
                break;
            }
        }

        let violations = ml_pairs
            .iter()
            .filter(|&&(a, b)| assignment[a] != assignment[b])
            .count()
            + cl_pairs
                .iter()
                .filter(|&&(a, b)| assignment[a] == assignment[b])
                .count();

        MpckMeansResult {
            partition: Partition::from_cluster_ids(&assignment),
            centroids,
            metrics,
            objective,
            iterations,
            violations,
        }
    }

    /// Re-estimates the diagonal metric weights of the `changed` clusters,
    /// rows of the k × d `metrics`, from an assignment whose cluster sizes
    /// are `counts`.  Every other row is left as it is.
    ///
    /// For cluster `h` and dimension `d`:
    /// `a_{h,d} = N_h / ( Σ_{x∈h}(x_d−μ_d)² + ½ w Σ_{violated ML touching h}(x_i,d−x_j,d)²
    ///                   + w̄ Σ_{violated CL inside h} (range_d² − (x_i,d−x_j,d)²) )`,
    /// clamped to `[min_weight, max_weight]`.
    #[allow(clippy::too_many_arguments)]
    fn update_metrics(
        &self,
        data: &DataMatrix,
        assignment: &[usize],
        counts: &[usize],
        changed: &[bool],
        centroids: &DataMatrix,
        ml_pairs: &[(usize, usize)],
        cl_pairs: &[(usize, usize)],
        mins: &[f64],
        maxs: &[f64],
        metrics: &mut DataMatrix,
    ) {
        let mut scatter = DataMatrix::zeros(metrics.n_rows(), metrics.n_cols());
        for (i, &c) in assignment.iter().enumerate() {
            if !changed[c] {
                continue;
            }
            let sums = scatter.row_mut(c).iter_mut();
            for ((sum, x), mu) in sums.zip(data.row(i)).zip(centroids.row(c)) {
                let diff = x - mu;
                *sum += diff * diff;
            }
        }
        // Violated must-links contribute half their scatter to both clusters.
        for &(a, b) in ml_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca != cb {
                for c in [ca, cb].into_iter().filter(|&c| changed[c]) {
                    let sums = scatter.row_mut(c).iter_mut();
                    for ((sum, x), y) in sums.zip(data.row(a)).zip(data.row(b)) {
                        let diff = x - y;
                        *sum += 0.5 * self.must_link_weight * diff * diff;
                    }
                }
            }
        }
        // Violated cannot-links contribute (range² − diff²) to their cluster.
        for &(a, b) in cl_pairs {
            let c = assignment[a];
            if c == assignment[b] && changed[c] {
                let sums = scatter.row_mut(c).iter_mut().zip(mins.iter().zip(maxs));
                for (((sum, (lo, hi)), x), y) in sums.zip(data.row(a)).zip(data.row(b)) {
                    let diff = x - y;
                    let range = hi - lo;
                    *sum += self.cannot_link_weight * (range * range - diff * diff).max(0.0);
                }
            }
        }

        for (c, &count) in counts.iter().enumerate() {
            if count == 0 || !changed[c] {
                continue;
            }
            for (w, sum) in metrics.row_mut(c).iter_mut().zip(scatter.row(c)) {
                *w = (count as f64 / sum.max(1e-12)).clamp(self.min_weight, self.max_weight);
            }
        }
    }

    /// Evaluates the full MPCKMeans objective for a given state: `dist`
    /// and `pair_dist` must be the distance and must-link pair tables of
    /// the state's centroids and `metrics`, and `terms` must hold the
    /// per-cluster terms of `metrics`.
    #[allow(clippy::too_many_arguments)]
    fn objective(
        &self,
        data: &DataMatrix,
        assignment: &[usize],
        dist: &DataMatrix,
        pair_dist: &PairTable,
        metrics: &DataMatrix,
        ml_pairs: &[(usize, usize)],
        cl_pairs: &[(usize, usize)],
        terms: &MetricTerms,
    ) -> f64 {
        let mut obj = 0.0;
        for (i, &c) in assignment.iter().enumerate() {
            obj += dist.get(c, i) - terms.log_det[c];
        }
        for (p, &(a, b)) in ml_pairs.iter().enumerate() {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca != cb {
                let f = 0.5 * (pair_dist.get(ca, p) + pair_dist.get(cb, p));
                obj += self.must_link_weight * f;
            }
        }
        for &(a, b) in cl_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca == cb {
                let f = terms.cl_offset[ca]
                    - weighted_sq_dist(data.row(a), data.row(b), metrics.row(ca));
                obj += self.cannot_link_weight * f.max(0.0);
            }
        }
        obj
    }
}

/// What one greedy E-step reads besides the assignment it builds: the data,
/// the distance and must-link pair tables of the current centroids and
/// metrics, the metrics with their per-cluster terms, each object's
/// constraint neighbours and the violation weights.
struct EStep<'a> {
    data: &'a DataMatrix,
    /// Row `c` holds every object's distance to centroid `c`.
    dist: &'a DataMatrix,
    pair_dist: &'a PairTable,
    metrics: &'a DataMatrix,
    terms: &'a MetricTerms,
    ml_of: &'a Neighbours,
    cl_of: &'a Neighbours,
    must_link_weight: f64,
    cannot_link_weight: f64,
}

impl EStep<'_> {
    /// The greedy ordered assignment, into `next`: each object of `order`
    /// goes to the cluster of least cost given the objects assigned before
    /// it, the lowest cluster index winning exact ties.
    ///
    /// It runs in two parts.  An object without constraints costs its
    /// centroid term alone, whoever came before it, so one pass over the
    /// table, cluster by cluster, takes every object's argmin of
    /// `dist[c][i] − log det A_c`, with the same strict `<` (`least` holds
    /// the running minima).  Then the greedy walk visits only the
    /// constrained objects, in `order`: their costs read only constrained
    /// partners, so skipping the others changes no cost.  `assigned` holds
    /// the walk's partial assignment and `costs` is a k-length buffer.
    fn assign(
        &self,
        order: &[usize],
        assigned: &mut [Option<usize>],
        least: &mut [f64],
        costs: &mut [f64],
        next: &mut [usize],
    ) {
        least.fill(f64::INFINITY);
        next.fill(0);
        for (c, (dist, log_det)) in self.dist.rows().zip(&self.terms.log_det).enumerate() {
            for ((best_cost, best_c), d) in least.iter_mut().zip(next.iter_mut()).zip(dist) {
                let cost = d - log_det;
                if cost < *best_cost {
                    *best_cost = cost;
                    *best_c = c;
                }
            }
        }

        assigned.fill(None);
        for &i in order {
            if self.ml_of.of(i).is_empty() && self.cl_of.of(i).is_empty() {
                continue;
            }
            self.costs(i, assigned, costs);
            let mut best_c = 0usize;
            let mut best_cost = f64::INFINITY;
            for (c, &cost) in costs.iter().enumerate() {
                if cost < best_cost {
                    best_cost = cost;
                    best_c = c;
                }
            }
            assigned[i] = Some(best_c);
            next[i] = best_c;
        }
    }

    /// Object `i`'s cost for each cluster `c`: the metric distance to the
    /// centroid minus the log-determinant, plus the penalties of the
    /// must-links and cannot-links that assigning `i` to `c` would violate
    /// against the objects already `assigned`.
    ///
    /// The terms are produced neighbour by neighbour: one walk over `i`'s
    /// assigned must-link partners adds a term to every cluster but the
    /// partner's, reading the pair's distances from the pair table, and
    /// one walk over its assigned cannot-link partners adds a term to the
    /// partner's cluster alone.  Each cluster's cost still receives its
    /// terms in the order a cluster-by-cluster rescan would add them, so
    /// the costs are bit-identical to it.
    fn costs(&self, i: usize, assigned: &[Option<usize>], costs: &mut [f64]) {
        let row = self.data.row(i);
        for ((cost, dist), log_det) in costs
            .iter_mut()
            .zip(self.dist.rows())
            .zip(&self.terms.log_det)
        {
            *cost = dist[i] - log_det;
        }
        for &(j, p) in self.ml_of.of(i) {
            if let Some(cj) = assigned[j] {
                let f_there = self.pair_dist.get(cj, p);
                for (c, cost) in costs.iter_mut().enumerate() {
                    if c != cj {
                        let f_here = self.pair_dist.get(c, p);
                        *cost += self.must_link_weight * 0.5 * (f_here + f_there);
                    }
                }
            }
        }
        for &(j, _) in self.cl_of.of(i) {
            if let Some(cj) = assigned[j] {
                let f = self.terms.cl_offset[cj]
                    - weighted_sq_dist(row, self.data.row(j), self.metrics.row(cj));
                costs[cj] += self.cannot_link_weight * f.max(0.0);
            }
        }
    }
}

/// The fit's must-link pair table: row `c` holds every must-link's metric
/// distance under cluster `c`'s metric, `‖x_a − x_b‖²_{A_c}` for the pair
/// `(a, b)`.
///
/// It is filled from the pairs' differences `x_a − x_b`, taken once per
/// fit and held dimension-major, as their distance from the origin
/// (`x − 0.0` is `x` exactly), with the pairs as the vectorised inner loop.
/// Each entry is bit-identical to `weighted_sq_dist(x_a, x_b, A_c)`, and
/// also to `weighted_sq_dist(x_b, x_a, A_c)`: negating a difference
/// changes no bit of `w · d · d`.
struct PairTable {
    /// Row `d` holds every pair's difference in dimension `d`.
    diffs: DataMatrix,
    origin: Vec<f64>,
    dist: DataMatrix,
}

impl PairTable {
    /// An unfilled table of `pairs` for `k` clusters.
    fn new(columns: &ColumnView, pairs: &[(usize, usize)], k: usize) -> Self {
        let dims = columns.mins().len();
        let mut diffs = DataMatrix::zeros(dims, pairs.len());
        for (d, column) in columns.columns().enumerate() {
            for (diff, &(a, b)) in diffs.row_mut(d).iter_mut().zip(pairs) {
                *diff = column[a] - column[b];
            }
        }
        Self {
            diffs,
            origin: vec![0.0; dims],
            dist: DataMatrix::zeros(k, pairs.len()),
        }
    }

    /// Refills the rows of the `changed` clusters from the k × d `metrics`.
    fn fill(&mut self, metrics: &DataMatrix, changed: &[bool]) {
        for c in (0..self.dist.n_rows()).filter(|&c| changed[c]) {
            fill_distance_row(
                self.diffs.rows(),
                &self.origin,
                metrics.row(c),
                self.dist.row_mut(c),
            );
        }
    }

    /// Pair `p`'s distance under cluster `c`'s metric.
    fn get(&self, c: usize, p: usize) -> f64 {
        self.dist.get(c, p)
    }
}

/// Re-seeds each empty cluster with the object farthest from its own
/// centroid, updating the assignment `next` and its cluster sizes `counts`.
/// `dist` is the distance table the E-step read.
fn reseed_empty(dist: &DataMatrix, counts: &mut [usize], next: &mut [usize]) {
    let n = next.len();
    for c in 0..counts.len() {
        if counts[c] == 0 {
            let (far, _) = (0..n)
                .map(|i| (i, dist.get(next[i], i)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .expect("non-empty data");
            counts[next[far]] -= 1;
            counts[c] += 1;
            next[far] = c;
        }
    }
}

/// Constraint pairs `(a, b)`, `a < b`.
type Pairs = Vec<(usize, usize)>;

/// The must-link and cannot-link pairs of `working`, in constraint order.
fn constraint_pairs(working: &ConstraintSet) -> (Pairs, Pairs) {
    let mut ml_pairs = Vec::new();
    let mut cl_pairs = Vec::new();
    for c in working.iter() {
        match c.kind {
            ConstraintKind::MustLink => ml_pairs.push((c.a, c.b)),
            ConstraintKind::CannotLink => cl_pairs.push((c.a, c.b)),
        }
    }
    (ml_pairs, cl_pairs)
}

/// Each object's partners under one kind of constraint, flat: object `i`'s
/// partners are `partners[start[i]..start[i + 1]]`, each with the index of
/// the pair it comes from, in pair order.
struct Neighbours {
    start: Vec<usize>,
    partners: Vec<(usize, usize)>,
}

impl Neighbours {
    /// Indexes `pairs` over objects `0..n`.
    fn from_pairs(n: usize, pairs: &[(usize, usize)]) -> Self {
        let mut start = vec![0usize; n + 1];
        for &(a, b) in pairs {
            start[a + 1] += 1;
            start[b + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut partners = vec![(0usize, 0usize); 2 * pairs.len()];
        for (p, &(a, b)) in pairs.iter().enumerate() {
            partners[fill[a]] = (b, p);
            fill[a] += 1;
            partners[fill[b]] = (a, p);
            fill[b] += 1;
        }
        Self { start, partners }
    }

    /// Object `i`'s partners, as `(partner, pair index)`.
    fn of(&self, i: usize) -> &[(usize, usize)] {
        &self.partners[self.start[i]..self.start[i + 1]]
    }
}

/// The terms of the objective that depend on a cluster's metric alone.
/// Metrics change only in the M-step, so `fit_seeded` updates these once
/// per EM iteration, for the changed clusters, rather than once per
/// (object × cluster) pair.
struct MetricTerms {
    /// `log det A_h` per cluster.
    log_det: Vec<f64>,
    /// The f_CL offset `d_max²_{A_h}` per cluster.
    cl_offset: Vec<f64>,
}

impl MetricTerms {
    /// The terms of each row of the k × d `metrics`.
    fn of(metrics: &DataMatrix, mins: &[f64], maxs: &[f64]) -> Self {
        let rows = || (0..metrics.n_rows()).map(|c| metrics.row(c));
        Self {
            log_det: rows().map(log_det).collect(),
            cl_offset: rows().map(|w| diameter_sq(w, mins, maxs)).collect(),
        }
    }

    /// Recomputes the terms of the `changed` rows of `metrics`.
    fn update(&mut self, metrics: &DataMatrix, mins: &[f64], maxs: &[f64], changed: &[bool]) {
        for c in (0..metrics.n_rows()).filter(|&c| changed[c]) {
            self.log_det[c] = log_det(metrics.row(c));
            self.cl_offset[c] = diameter_sq(metrics.row(c), mins, maxs);
        }
    }
}

/// Sum of log weights (log-determinant of the diagonal metric).
fn log_det(weights: &[f64]) -> f64 {
    weights.iter().map(|w| w.max(1e-12).ln()).sum()
}

/// The f_CL offset: the squared diameter of the data bounding box
/// (`mins`, `maxs`) under the metric `weights`.  The maximum squared
/// pairwise distance per metric is expensive to track exactly; the box
/// diameter preserves the "close violated cannot-links cost more"
/// behaviour.
fn diameter_sq(weights: &[f64], mins: &[f64], maxs: &[f64]) -> f64 {
    mins.iter()
        .zip(maxs)
        .zip(weights)
        .map(|((lo, hi), w)| {
            let d = hi - lo;
            w * d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::neighborhood_candidates;
    use cvcp_constraints::generate::constraint_pool;
    use cvcp_data::synthetic::{gaussian_mixture, separated_blobs, ClusterSpec};
    use cvcp_metrics::{adjusted_rand_index, constraint_fmeasure};

    /// The E-step cost loop as `fit_seeded` ran it before the
    /// neighbour-major rewrite and the distance table: cluster by cluster,
    /// each centroid term computed with `weighted_sq_dist` from the nested
    /// centroids and metrics, each cluster rescanning every constraint
    /// neighbour of the object.  Kept as the reference the production
    /// costs must match bit for bit.
    fn reference_costs(
        inst: &Instance,
        ml_of: &[Vec<usize>],
        cl_of: &[Vec<usize>],
        i: usize,
        assigned: &[Option<usize>],
    ) -> Vec<f64> {
        let row = inst.data.row(i);
        let (must_link_weight, cannot_link_weight) = inst.weights;
        (0..inst.centroids.len())
            .map(|c| {
                let w = &inst.metrics[c];
                let mut cost = weighted_sq_dist(row, &inst.centroids[c], w) - inst.terms.log_det[c];
                for &j in &ml_of[i] {
                    if let Some(cj) = assigned[j] {
                        if cj != c {
                            let f_here = weighted_sq_dist(row, inst.data.row(j), w);
                            let f_there =
                                weighted_sq_dist(row, inst.data.row(j), &inst.metrics[cj]);
                            cost += must_link_weight * 0.5 * (f_here + f_there);
                        }
                    }
                }
                for &j in &cl_of[i] {
                    if let Some(cj) = assigned[j] {
                        if cj == c {
                            let f = inst.terms.cl_offset[c]
                                - weighted_sq_dist(row, inst.data.row(j), w);
                            cost += cannot_link_weight * f.max(0.0);
                        }
                    }
                }
                cost
            })
            .collect()
    }

    /// The reference greedy pass: reference costs, strict `<`, first wins,
    /// over the whole order.  Also returns which objects met an exact tie
    /// for the least cost.
    fn reference_assign(
        inst: &Instance,
        ml_of: &[Vec<usize>],
        cl_of: &[Vec<usize>],
        order: &[usize],
    ) -> (Vec<Option<usize>>, Vec<bool>) {
        let mut assigned = vec![None; inst.data.n_rows()];
        let mut tied = vec![false; inst.data.n_rows()];
        for &i in order {
            let costs = reference_costs(inst, ml_of, cl_of, i, &assigned);
            let mut best_c = 0usize;
            let mut best_cost = f64::INFINITY;
            for (c, &cost) in costs.iter().enumerate() {
                if cost < best_cost {
                    best_cost = cost;
                    best_c = c;
                }
            }
            tied[i] = costs.iter().filter(|&&cost| cost == best_cost).count() > 1;
            assigned[i] = Some(best_c);
        }
        (assigned, tied)
    }

    /// Each object's must-link and cannot-link partners, one `Vec` per
    /// object in constraint order, as `fit_seeded` indexed them before the
    /// flat index.
    fn neighbour_lists(n: usize, working: &ConstraintSet) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let mut ml_of = vec![Vec::new(); n];
        let mut cl_of = vec![Vec::new(); n];
        for c in working.iter() {
            let lists = match c.kind {
                ConstraintKind::MustLink => &mut ml_of,
                ConstraintKind::CannotLink => &mut cl_of,
            };
            lists[c.a].push(c.b);
            lists[c.b].push(c.a);
        }
        (ml_of, cl_of)
    }

    /// A random E-step input: rows on a coarse grid or, half the time,
    /// uniform (whose sums depend on their order) with an exact duplicate,
    /// a dense transitively closed constraint set, random centroids and
    /// metrics of which two clusters are exact copies (so that exact cost
    /// ties exercise the first-wins argmin) and random violation weights.
    /// The references read the nested centroids and metrics; the fit's own
    /// functions read the same metrics flat, with their terms, the distance
    /// table and the must-link pair table filled from them as the fit
    /// fills them.
    struct Instance {
        data: DataMatrix,
        working: ConstraintSet,
        centroids: Vec<Vec<f64>>,
        metrics: Vec<Vec<f64>>,
        flat_metrics: DataMatrix,
        terms: MetricTerms,
        dist: DataMatrix,
        pair_dist: PairTable,
        weights: (f64, f64),
    }

    impl Instance {
        fn random(rng: &mut SeededRng) -> Self {
            let n = 6 + rng.index(30);
            let dims = 1 + rng.index(40);
            let k = 1 + rng.index(17);
            let on_grid = rng.bernoulli(0.5);
            let mut rows: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..dims)
                        .map(|_| match on_grid {
                            true => rng.index(4) as f64 * 0.5,
                            false => rng.uniform_in(0.0, 1.5),
                        })
                        .collect()
                })
                .collect();
            rows[n - 1] = rows[0].clone();
            let data = DataMatrix::from_rows(&rows);
            let classes: Vec<usize> = (0..n).map(|_| rng.index(3)).collect();
            let pool = constraint_pool(&classes, rng.uniform_in(0.3, 1.0), 1, rng);
            let working = MpckSeeding::compute(&data, &pool, true).working;
            let mut centroids: Vec<Vec<f64>> = (0..k)
                .map(|_| (0..dims).map(|_| rng.uniform_in(0.0, 1.5)).collect())
                .collect();
            let mut metrics: Vec<Vec<f64>> = (0..k)
                .map(|_| (0..dims).map(|_| rng.uniform_in(0.1, 3.0)).collect())
                .collect();
            if k >= 2 {
                let (a, b) = (rng.index(k), rng.index(k));
                centroids[b] = centroids[a].clone();
                metrics[b] = metrics[a].clone();
            }
            let weights = (rng.uniform_in(0.25, 4.0), rng.uniform_in(0.25, 4.0));
            Self::new(data, working, centroids, metrics, weights)
        }

        /// The instance of one state: its metric terms and its whole
        /// distance and pair tables computed from the nested centroids and
        /// metrics.
        fn new(
            data: DataMatrix,
            working: ConstraintSet,
            centroids: Vec<Vec<f64>>,
            metrics: Vec<Vec<f64>>,
            weights: (f64, f64),
        ) -> Self {
            let k = centroids.len();
            let (mins, maxs) = data.column_min_max();
            let flat_metrics = DataMatrix::from_rows(&metrics);
            let terms = MetricTerms::of(&flat_metrics, &mins, &maxs);
            let mut dist = DataMatrix::zeros(k, data.n_rows());
            let flat_centroids = DataMatrix::from_rows(&centroids);
            let every = vec![true; k];
            let columns = data.column_view();
            fill_distances(columns, &flat_centroids, &flat_metrics, &every, &mut dist);
            let mut pair_dist = PairTable::new(columns, &constraint_pairs(&working).0, k);
            pair_dist.fill(&flat_metrics, &every);
            Self {
                data,
                working,
                centroids,
                metrics,
                flat_metrics,
                terms,
                dist,
                pair_dist,
                weights,
            }
        }

        /// The production neighbour index of the working set.
        fn neighbours(&self) -> (Neighbours, Neighbours) {
            let (ml_pairs, cl_pairs) = constraint_pairs(&self.working);
            let n = self.data.n_rows();
            (
                Neighbours::from_pairs(n, &ml_pairs),
                Neighbours::from_pairs(n, &cl_pairs),
            )
        }

        fn step<'a>(&'a self, ml_of: &'a Neighbours, cl_of: &'a Neighbours) -> EStep<'a> {
            EStep {
                data: &self.data,
                dist: &self.dist,
                pair_dist: &self.pair_dist,
                metrics: &self.flat_metrics,
                terms: &self.terms,
                ml_of,
                cl_of,
                must_link_weight: self.weights.0,
                cannot_link_weight: self.weights.1,
            }
        }
    }

    #[test]
    fn e_step_costs_match_the_cluster_major_reference_bit_for_bit() {
        let mut rng = SeededRng::new(31);
        for case in 0..150 {
            let inst = Instance::random(&mut rng);
            let n = inst.data.n_rows();
            let (ml_of, cl_of) = neighbour_lists(n, &inst.working);
            let index = inst.neighbours();
            let step = inst.step(&index.0, &index.1);
            let mut costs = vec![f64::NAN; inst.centroids.len()];
            for _ in 0..4 {
                let share = rng.uniform();
                let assigned: Vec<Option<usize>> = (0..n)
                    .map(|_| {
                        rng.bernoulli(share)
                            .then(|| rng.index(inst.centroids.len()))
                    })
                    .collect();
                for i in 0..n {
                    step.costs(i, &assigned, &mut costs);
                    let expected = reference_costs(&inst, &ml_of, &cl_of, i, &assigned);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&costs),
                        bits(&expected),
                        "case {case}, object {i}: {costs:?} vs reference {expected:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn greedy_pass_matches_the_cluster_major_reference() {
        let mut rng = SeededRng::new(32);
        // Objects that met an exact tie for the least cost, without and
        // with constraints.
        let mut ties = [0usize; 2];
        for case in 0..150 {
            let inst = Instance::random(&mut rng);
            let n = inst.data.n_rows();
            let (ml_of, cl_of) = neighbour_lists(n, &inst.working);
            let index = inst.neighbours();
            let step = inst.step(&index.0, &index.1);
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            let mut assigned = vec![Some(usize::MAX); n];
            let mut least = vec![f64::NAN; n];
            let mut costs = vec![f64::NAN; inst.centroids.len()];
            let mut next = vec![usize::MAX; n];
            step.assign(&order, &mut assigned, &mut least, &mut costs, &mut next);
            let (expected, tied) = reference_assign(&inst, &ml_of, &cl_of, &order);
            let expected: Vec<usize> = expected.iter().map(|a| a.expect("assigned")).collect();
            assert_eq!(next, expected, "case {case}");
            for i in (0..n).filter(|&i| tied[i]) {
                ties[usize::from(!ml_of[i].is_empty() || !cl_of[i].is_empty())] += 1;
            }
        }
        assert!(
            ties.iter().all(|&t| t > 0),
            "ties without / with constraints: {ties:?}"
        );
    }

    /// `recompute_centroids` as it was before the fit's state became flat:
    /// one nested `Vec` of sums per cluster.
    fn reference_recompute_centroids(
        data: &DataMatrix,
        assignment: &[usize],
        centroids: &mut [Vec<f64>],
    ) {
        let k = centroids.len();
        let dims = data.n_cols();
        let mut sums = vec![vec![0.0; dims]; k];
        let mut counts = vec![0usize; k];
        for (i, &c) in assignment.iter().enumerate() {
            counts[c] += 1;
            for (j, v) in data.row(i).iter().enumerate() {
                sums[c][j] += v;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for j in 0..dims {
                    centroids[c][j] = sums[c][j] / counts[c] as f64;
                }
            }
        }
    }

    /// `MpckMeans::update_metrics` as it was before the fit's state became
    /// flat: nested per-cluster scatter rows, indexed per dimension.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    fn reference_update_metrics(
        mpck: &MpckMeans,
        data: &DataMatrix,
        assignment: &[usize],
        centroids: &[Vec<f64>],
        ml_pairs: &[(usize, usize)],
        cl_pairs: &[(usize, usize)],
        mins: &[f64],
        maxs: &[f64],
        metrics: &mut [Vec<f64>],
    ) {
        let dims = data.n_cols();
        let k = centroids.len();
        let mut scatter = vec![vec![0.0f64; dims]; k];
        let mut counts = vec![0usize; k];
        for (i, &c) in assignment.iter().enumerate() {
            counts[c] += 1;
            let row = data.row(i);
            for d in 0..dims {
                let diff = row[d] - centroids[c][d];
                scatter[c][d] += diff * diff;
            }
        }
        for &(a, b) in ml_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca != cb {
                let (ra, rb) = (data.row(a), data.row(b));
                for d in 0..dims {
                    let diff = ra[d] - rb[d];
                    let v = 0.5 * mpck.must_link_weight * diff * diff;
                    scatter[ca][d] += v;
                    scatter[cb][d] += v;
                }
            }
        }
        for &(a, b) in cl_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca == cb {
                let (ra, rb) = (data.row(a), data.row(b));
                for d in 0..dims {
                    let diff = ra[d] - rb[d];
                    let range = maxs[d] - mins[d];
                    let v = mpck.cannot_link_weight * (range * range - diff * diff).max(0.0);
                    scatter[ca][d] += v;
                }
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                continue;
            }
            for d in 0..dims {
                let denom = scatter[c][d].max(1e-12);
                metrics[c][d] = (counts[c] as f64 / denom).clamp(mpck.min_weight, mpck.max_weight);
            }
        }
    }

    /// The objective as `fit_seeded` evaluated it before the distance
    /// table: every row's centroid term computed with `weighted_sq_dist`
    /// from the nested centroids and metrics.
    #[allow(clippy::too_many_arguments)]
    fn reference_objective(
        mpck: &MpckMeans,
        data: &DataMatrix,
        assignment: &[usize],
        centroids: &[Vec<f64>],
        metrics: &[Vec<f64>],
        ml_pairs: &[(usize, usize)],
        cl_pairs: &[(usize, usize)],
        mins: &[f64],
        maxs: &[f64],
    ) -> f64 {
        let mut obj = 0.0;
        for (i, &c) in assignment.iter().enumerate() {
            obj += weighted_sq_dist(data.row(i), &centroids[c], &metrics[c]) - log_det(&metrics[c]);
        }
        for &(a, b) in ml_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca != cb {
                let f = 0.5
                    * (weighted_sq_dist(data.row(a), data.row(b), &metrics[ca])
                        + weighted_sq_dist(data.row(a), data.row(b), &metrics[cb]));
                obj += mpck.must_link_weight * f;
            }
        }
        for &(a, b) in cl_pairs {
            let (ca, cb) = (assignment[a], assignment[b]);
            if ca == cb {
                let f = diameter_sq(&metrics[ca], mins, maxs)
                    - weighted_sq_dist(data.row(a), data.row(b), &metrics[ca]);
                obj += mpck.cannot_link_weight * f.max(0.0);
            }
        }
        obj
    }

    /// The empty-cluster reseed as `fit_seeded` ran it before the distance
    /// table: each object's distance to its own centroid computed with
    /// `weighted_sq_dist`.
    fn reference_reseed(
        data: &DataMatrix,
        centroids: &[Vec<f64>],
        metrics: &[Vec<f64>],
        counts: &mut [usize],
        next: &mut [usize],
    ) {
        let n = next.len();
        for c in 0..counts.len() {
            if counts[c] == 0 {
                let (far, _) = (0..n)
                    .map(|i| {
                        (
                            i,
                            weighted_sq_dist(data.row(i), &centroids[next[i]], &metrics[next[i]]),
                        )
                    })
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                    .expect("non-empty data");
                counts[next[far]] -= 1;
                counts[c] += 1;
                next[far] = c;
            }
        }
    }

    /// The centroids, metrics and objective after one M-step on `next`,
    /// whose cluster sizes are `counts`, from the instance's state, through
    /// the fit's own functions.
    fn m_step(
        mpck: &MpckMeans,
        inst: &Instance,
        next: &[usize],
        counts: &[usize],
    ) -> (DataMatrix, DataMatrix, f64) {
        let data = &inst.data;
        let (ml_pairs, cl_pairs) = constraint_pairs(&inst.working);
        let (mins, maxs) = data.column_min_max();
        let mut centroids = DataMatrix::from_rows(&inst.centroids);
        let mut metrics = inst.flat_metrics.clone();
        let every = vec![true; counts.len()];
        recompute_centroids(data, next, counts, &every, &mut centroids);
        if mpck.learn_metric {
            mpck.update_metrics(
                data,
                next,
                counts,
                &every,
                &centroids,
                &ml_pairs,
                &cl_pairs,
                &mins,
                &maxs,
                &mut metrics,
            );
        }
        let terms = MetricTerms::of(&metrics, &mins, &maxs);
        let mut dist = DataMatrix::zeros(centroids.n_rows(), data.n_rows());
        fill_distances(data.column_view(), &centroids, &metrics, &every, &mut dist);
        let mut pair_dist = PairTable::new(data.column_view(), &ml_pairs, counts.len());
        pair_dist.fill(&metrics, &every);
        let objective = mpck.objective(
            data, next, &dist, &pair_dist, &metrics, &ml_pairs, &cl_pairs, &terms,
        );
        (centroids, metrics, objective)
    }

    /// The same M-step and objective through the nested references.
    fn reference_m_step(
        mpck: &MpckMeans,
        inst: &Instance,
        next: &[usize],
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>, f64) {
        let data = &inst.data;
        let (ml_pairs, cl_pairs) = constraint_pairs(&inst.working);
        let (mins, maxs) = data.column_min_max();
        let mut centroids = inst.centroids.clone();
        let mut metrics = inst.metrics.clone();
        reference_recompute_centroids(data, next, &mut centroids);
        if mpck.learn_metric {
            reference_update_metrics(
                mpck,
                data,
                next,
                &centroids,
                &ml_pairs,
                &cl_pairs,
                &mins,
                &maxs,
                &mut metrics,
            );
        }
        let objective = reference_objective(
            mpck, data, next, &centroids, &metrics, &ml_pairs, &cl_pairs, &mins, &maxs,
        );
        (centroids, metrics, objective)
    }

    #[test]
    fn m_step_reseed_and_objective_match_the_nested_references_bit_for_bit() {
        let bits = |m: &DataMatrix| -> Vec<Vec<u64>> {
            m.rows()
                .map(|r| r.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let nested = |rows: &[Vec<f64>]| bits(&DataMatrix::from_rows(rows));
        let mut rng = SeededRng::new(33);
        let (mut emptied, mut ml_violated, mut cl_violated) = (0usize, 0usize, 0usize);
        let mut learned = [0usize; 2];
        for case in 0..150 {
            let inst = Instance::random(&mut rng);
            let (n, k) = (inst.data.n_rows(), inst.centroids.len());
            // An assignment over a random subset of the clusters, so that
            // most cases leave some clusters empty.
            let mut open: Vec<usize> = (0..k).filter(|_| rng.bernoulli(0.6)).collect();
            if open.is_empty() {
                open.push(rng.index(k));
            }
            let next: Vec<usize> = (0..n).map(|_| open[rng.index(open.len())]).collect();
            let mut counts = vec![0usize; k];
            for &c in &next {
                counts[c] += 1;
            }
            let (ml_pairs, cl_pairs) = constraint_pairs(&inst.working);
            emptied += counts.iter().filter(|&&count| count == 0).count();
            ml_violated += ml_pairs
                .iter()
                .filter(|&&(a, b)| next[a] != next[b])
                .count();
            cl_violated += cl_pairs
                .iter()
                .filter(|&&(a, b)| next[a] == next[b])
                .count();

            let mut got = (counts.clone(), next.clone());
            reseed_empty(&inst.dist, &mut got.0, &mut got.1);
            let mut expected = (counts.clone(), next.clone());
            reference_reseed(
                &inst.data,
                &inst.centroids,
                &inst.metrics,
                &mut expected.0,
                &mut expected.1,
            );
            assert_eq!(got, expected, "case {case}: reseed");

            let mpck = MpckMeans::new(k)
                .with_weights(inst.weights.0, inst.weights.1)
                .with_metric_learning(rng.bernoulli(0.5));
            learned[usize::from(mpck.learn_metric)] += 1;
            let got = m_step(&mpck, &inst, &next, &counts);
            let expected = reference_m_step(&mpck, &inst, &next);
            assert_eq!(bits(&got.0), nested(&expected.0), "case {case}: centroids");
            assert_eq!(bits(&got.1), nested(&expected.1), "case {case}: metrics");
            assert_eq!(
                got.2.to_bits(),
                expected.2.to_bits(),
                "case {case}: objective {} vs reference {}",
                got.2,
                expected.2
            );
        }
        assert!(emptied > 0, "no empty cluster was exercised");
        assert!(ml_violated > 0 && cl_violated > 0, "no violated constraint");
        assert!(learned.iter().all(|&cases| cases > 0), "{learned:?}");
    }

    /// What the whole-fit reference met over its fits.
    #[derive(Default)]
    struct FitEvents {
        /// Clusters whose members stayed put in an iteration after the
        /// first in which some other cluster gained or lost an object.
        unchanged: usize,
        /// Clusters the E-step left empty.
        reseeded: usize,
        /// Objects without any constraint.
        unconstrained: usize,
        /// Must-links and cannot-links violated by an iteration's
        /// assignment.
        ml_violated: usize,
        cl_violated: usize,
        /// Fits without and with metric learning.
        learned: [usize; 2],
    }

    /// `fit_seeded` as it ran before it recomputed only what an iteration
    /// changed: every EM iteration builds the whole state (every metric
    /// term and the whole distance table), runs `reference_assign` over
    /// the whole shuffled order, then `reference_reseed`,
    /// `reference_recompute_centroids`, `reference_update_metrics` and
    /// `reference_objective`, with the fit's initialisation, RNG draws and
    /// convergence test.
    fn reference_fit(
        mpck: &MpckMeans,
        data: &DataMatrix,
        seeding: &MpckSeeding,
        rng: &mut SeededRng,
        events: &mut FitEvents,
    ) -> MpckMeansResult {
        let (n, dims, k) = (data.n_rows(), data.n_cols(), mpck.k);
        let (ml_pairs, cl_pairs) = constraint_pairs(&seeding.working);
        let (ml_of, cl_of) = neighbour_lists(n, &seeding.working);
        let (mins, maxs) = data.column_min_max();
        events.learned[usize::from(mpck.learn_metric)] += 1;
        events.unconstrained += (0..n)
            .filter(|&i| ml_of[i].is_empty() && cl_of[i].is_empty())
            .count();
        let mut centroids = centroids_from_candidates(data, seeding.candidates.clone(), k, rng);
        let mut metrics = vec![vec![1.0; dims]; k];
        let mut assignment = vec![0usize; n];
        let mut objective = f64::INFINITY;
        let mut iterations = 0;
        for it in 0..mpck.max_iter {
            iterations = it + 1;
            let inst = Instance::new(
                data.clone(),
                seeding.working.clone(),
                centroids.clone(),
                metrics.clone(),
                (mpck.must_link_weight, mpck.cannot_link_weight),
            );
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            let (assigned, _) = reference_assign(&inst, &ml_of, &cl_of, &order);
            let mut next: Vec<usize> = assigned.iter().map(|a| a.expect("assigned")).collect();
            let mut counts = vec![0usize; k];
            for &c in &next {
                counts[c] += 1;
            }
            events.reseeded += counts.iter().filter(|&&count| count == 0).count();
            reference_reseed(data, &centroids, &metrics, &mut counts, &mut next);
            if it > 0 && next != assignment {
                let mut moved = vec![false; k];
                for (&was, &now) in assignment.iter().zip(&next) {
                    if was != now {
                        moved[was] = true;
                        moved[now] = true;
                    }
                }
                events.unchanged += moved.iter().filter(|&&m| !m).count();
            }
            events.ml_violated += ml_pairs
                .iter()
                .filter(|&&(a, b)| next[a] != next[b])
                .count();
            events.cl_violated += cl_pairs
                .iter()
                .filter(|&&(a, b)| next[a] == next[b])
                .count();
            reference_recompute_centroids(data, &next, &mut centroids);
            if mpck.learn_metric {
                reference_update_metrics(
                    mpck,
                    data,
                    &next,
                    &centroids,
                    &ml_pairs,
                    &cl_pairs,
                    &mins,
                    &maxs,
                    &mut metrics,
                );
            }
            let new_objective = reference_objective(
                mpck, data, &next, &centroids, &metrics, &ml_pairs, &cl_pairs, &mins, &maxs,
            );
            let converged = next == assignment
                || (objective - new_objective).abs() <= 1e-9 * objective.abs().max(1.0);
            assignment = next;
            objective = new_objective;
            if converged && it > 0 {
                break;
            }
        }
        let violations = ml_pairs
            .iter()
            .filter(|&&(a, b)| assignment[a] != assignment[b])
            .count()
            + cl_pairs
                .iter()
                .filter(|&&(a, b)| assignment[a] == assignment[b])
                .count();
        MpckMeansResult {
            partition: Partition::from_cluster_ids(&assignment),
            centroids: DataMatrix::from_rows(&centroids),
            metrics: DataMatrix::from_rows(&metrics),
            objective,
            iterations,
            violations,
        }
    }

    #[test]
    fn fit_matches_the_recompute_everything_reference_bit_for_bit() {
        let bits = |m: &DataMatrix| -> Vec<Vec<u64>> {
            m.rows()
                .map(|r| r.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let mut rng = SeededRng::new(34);
        let mut events = FitEvents::default();
        for case in 0..120 {
            let inst = Instance::random(&mut rng);
            let k = inst.centroids.len().min(inst.data.n_rows());
            let seeding = MpckSeeding {
                candidates: neighborhood_candidates(&inst.data, &inst.working),
                working: inst.working.clone(),
            };
            let mpck = MpckMeans::new(k)
                .with_weights(inst.weights.0, inst.weights.1)
                .with_metric_learning(rng.bernoulli(0.5));
            let seed = rng.next_u64();
            let got = mpck.fit_seeded(&inst.data, &seeding, &mut SeededRng::new(seed));
            let expected = reference_fit(
                &mpck,
                &inst.data,
                &seeding,
                &mut SeededRng::new(seed),
                &mut events,
            );
            assert_eq!(got.partition, expected.partition, "case {case}: partition");
            assert_eq!(
                bits(&got.centroids),
                bits(&expected.centroids),
                "case {case}: centroids"
            );
            assert_eq!(
                bits(&got.metrics),
                bits(&expected.metrics),
                "case {case}: metrics"
            );
            assert_eq!(
                got.objective.to_bits(),
                expected.objective.to_bits(),
                "case {case}: objective {} vs reference {}",
                got.objective,
                expected.objective
            );
            assert_eq!(got.iterations, expected.iterations, "case {case}");
            assert_eq!(got.violations, expected.violations, "case {case}");
        }
        let FitEvents {
            unchanged,
            reseeded,
            unconstrained,
            ml_violated,
            cl_violated,
            learned,
        } = events;
        assert!(unchanged > 0, "no iteration left a cluster unchanged");
        assert!(reseeded > 0, "no empty cluster was reseeded");
        assert!(unconstrained > 0, "no unconstrained object");
        assert!(ml_violated > 0 && cl_violated > 0, "no violated constraint");
        assert!(learned.iter().all(|&fits| fits > 0), "{learned:?}");
    }

    #[test]
    fn recovers_separated_blobs_without_constraints() {
        let mut rng = SeededRng::new(1);
        let ds = separated_blobs(3, 25, 4, 10.0, &mut rng);
        let result = MpckMeans::new(3).fit(ds.matrix(), &ConstraintSet::new(ds.len()), &mut rng);
        let ari = adjusted_rand_index(&result.partition, ds.labels());
        assert!(ari > 0.9, "ARI = {ari}");
        assert_eq!(result.partition.n_noise(), 0);
        assert_eq!(result.violations, 0);
    }

    #[test]
    fn constraints_improve_overlapping_clusters() {
        // Two overlapping clusters: constraints should push the solution
        // towards the ground truth.
        let specs = vec![
            ClusterSpec::spherical(vec![0.0, 0.0], 1.4, 40),
            ClusterSpec::spherical(vec![2.2, 0.0], 1.4, 40),
        ];
        let mut scores_with = Vec::new();
        let mut scores_without = Vec::new();
        for seed in 0..5u64 {
            let mut rng = SeededRng::new(seed);
            let ds = gaussian_mixture(&specs, &mut rng);
            let pool = constraint_pool(ds.labels(), 0.4, 2, &mut rng);
            let with = MpckMeans::new(2).fit(ds.matrix(), &pool, &mut rng);
            let without =
                MpckMeans::new(2).fit(ds.matrix(), &ConstraintSet::new(ds.len()), &mut rng);
            scores_with.push(adjusted_rand_index(&with.partition, ds.labels()));
            scores_without.push(adjusted_rand_index(&without.partition, ds.labels()));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&scores_with) >= mean(&scores_without) - 0.02,
            "with constraints {:?} vs without {:?}",
            scores_with,
            scores_without
        );
    }

    #[test]
    fn satisfies_most_constraints_on_easy_data() {
        let mut rng = SeededRng::new(3);
        let ds = separated_blobs(3, 20, 3, 9.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.4, 2, &mut rng);
        let result = MpckMeans::new(3).fit(ds.matrix(), &pool, &mut rng);
        let f = constraint_fmeasure(&result.partition, &pool);
        assert!(f > 0.9, "constraint F-measure = {f}");
    }

    #[test]
    fn produces_exactly_k_or_fewer_clusters() {
        let mut rng = SeededRng::new(4);
        let ds = separated_blobs(2, 20, 3, 8.0, &mut rng);
        for k in [1usize, 2, 3, 5, 8] {
            let result =
                MpckMeans::new(k).fit(ds.matrix(), &ConstraintSet::new(ds.len()), &mut rng);
            assert!(result.partition.n_clusters() <= k);
            assert!(result.partition.n_clusters() >= 1);
            assert_eq!(result.partition.len(), ds.len());
        }
    }

    #[test]
    fn metric_learning_adapts_to_feature_scales() {
        // One informative dimension, one heavily scaled noise dimension:
        // with metric learning the noise dimension should receive a much
        // smaller weight than the informative one within each cluster.
        let mut specs = Vec::new();
        for &c in &[0.0f64, 8.0] {
            specs.push(ClusterSpec {
                center: vec![c, 0.0],
                std_devs: vec![0.5, 25.0],
                size: 40,
                elongation: 0.0,
            });
        }
        let mut rng = SeededRng::new(5);
        let ds = gaussian_mixture(&specs, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.3, 2, &mut rng);
        let result = MpckMeans::new(2).fit(ds.matrix(), &pool, &mut rng);
        for m in result.metrics.rows() {
            assert!(
                m[0] > m[1],
                "informative dimension should get larger weight: {m:?}"
            );
        }
    }

    #[test]
    fn shared_seeding_is_bit_identical_across_k() {
        // One MpckSeeding serves every k of a parameter sweep and must
        // reproduce the direct fit exactly (the cache trades time, never
        // results).
        let mut rng = SeededRng::new(10);
        let ds = separated_blobs(3, 15, 3, 9.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.3, 2, &mut rng);
        let seeding = MpckSeeding::compute(ds.matrix(), &pool, true);
        assert!(seeding.artifact_bytes() > 0);
        for k in [2usize, 3, 5] {
            let direct = MpckMeans::new(k).fit(ds.matrix(), &pool, &mut SeededRng::new(77));
            let seeded =
                MpckMeans::new(k).fit_seeded(ds.matrix(), &seeding, &mut SeededRng::new(77));
            assert_eq!(direct.partition, seeded.partition);
            assert_eq!(direct.objective, seeded.objective);
            assert_eq!(direct.centroids, seeded.centroids);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = SeededRng::new(6);
        let ds = separated_blobs(3, 15, 3, 9.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.3, 2, &mut rng);
        let a = MpckMeans::new(3).fit(ds.matrix(), &pool, &mut SeededRng::new(9));
        let b = MpckMeans::new(3).fit(ds.matrix(), &pool, &mut SeededRng::new(9));
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.objective, b.objective);
    }

    #[test]
    fn disabling_metric_learning_keeps_unit_weights() {
        let mut rng = SeededRng::new(7);
        let ds = separated_blobs(2, 15, 3, 8.0, &mut rng);
        let pool = constraint_pool(ds.labels(), 0.3, 2, &mut rng);
        let result =
            MpckMeans::new(2)
                .with_metric_learning(false)
                .fit(ds.matrix(), &pool, &mut rng);
        for m in result.metrics.rows() {
            assert!(m.iter().all(|&w| (w - 1.0).abs() < 1e-12));
        }
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn k_zero_panics() {
        let data = DataMatrix::from_rows(&[vec![0.0], vec![1.0]]);
        let mut rng = SeededRng::new(8);
        let _ = MpckMeans::new(0).fit(&data, &ConstraintSet::new(2), &mut rng);
    }

    #[test]
    fn k_one_puts_everything_together() {
        let mut rng = SeededRng::new(9);
        let ds = separated_blobs(2, 10, 2, 8.0, &mut rng);
        let result = MpckMeans::new(1).fit(ds.matrix(), &ConstraintSet::new(ds.len()), &mut rng);
        assert_eq!(result.partition.n_clusters(), 1);
    }
}
