//! Replica of the ALOI "k5" image-collection benchmark.
//!
//! The paper uses the image collections of Horta & Campello (2012), built
//! from the Amsterdam Library of Object Images: the *k5* collection consists
//! of 100 independent data sets, each containing 125 objects described by 144
//! colour-moment attributes, sampled from 5 randomly chosen image categories
//! (25 objects per category).
//!
//! The original images are not available offline, so this module generates a
//! synthetic collection with the same layout: 100 data sets × 125 objects ×
//! 144 dimensions × 5 balanced classes.  Each data set draws its own class
//! prototypes, separations, anisotropies and elongations, so the *collection*
//! exhibits the spread of difficulty that the paper's box plots (Figs. 9–12)
//! summarise.  Cluster structure is predominantly recoverable by density-based
//! clustering and partially by k-means — consistent with the paper's observed
//! quality ranges (Overall F-measure roughly 0.5–1.0 for FOSC-OPTICSDend and
//! 0.4–0.8 for MPCKMeans).

use crate::dataset::Dataset;
use crate::rng::SeededRng;
use crate::synthetic::{gaussian_mixture, rename, ClusterSpec};

/// Number of data sets in the ALOI k5 collection.
pub const ALOI_COLLECTION_SIZE: usize = 100;
/// Number of classes per ALOI k5 data set.
pub const ALOI_CLASSES: usize = 5;
/// Number of objects per class in an ALOI k5 data set.
pub const ALOI_OBJECTS_PER_CLASS: usize = 25;
/// Dimensionality (colour-moment descriptor length) of ALOI objects.
pub const ALOI_DIMS: usize = 144;

/// Generates a single ALOI-k5-like data set.
///
/// `index` selects the data set within the collection (0..100 in the paper's
/// setting, but any value is accepted); together with `seed` it fully
/// determines the data.
pub fn aloi_k5_dataset(seed: u64, index: usize) -> Dataset {
    generate(seed, index, ALOI_CLASSES, ALOI_OBJECTS_PER_CLASS, ALOI_DIMS)
}

/// Generates the full ALOI-k5-like collection (100 data sets).
pub fn aloi_k5_collection(seed: u64) -> Vec<Dataset> {
    aloi_k5_collection_of_size(seed, ALOI_COLLECTION_SIZE)
}

/// Generates the first `size` data sets of the collection (useful for quick
/// experiment modes; the paper uses the full 100).
pub fn aloi_k5_collection_of_size(seed: u64, size: usize) -> Vec<Dataset> {
    (0..size).map(|i| aloi_k5_dataset(seed, i)).collect()
}

/// Generates an ALOI-like data set with custom layout (used by tests and by
/// the `k2`–`k4` collections of Horta & Campello, which the paper mentions
/// but does not evaluate on).
pub fn generate(
    seed: u64,
    index: usize,
    n_classes: usize,
    per_class: usize,
    dims: usize,
) -> Dataset {
    assert!(n_classes >= 1 && per_class >= 1 && dims >= 1);
    // Wrapping, so that every `usize` index names a data set (an index
    // from 6,949,403,067 on overflows the product).
    let mix = (index as u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(0xA101);
    let mut rng = SeededRng::new(seed ^ mix);

    // Per-data-set difficulty knobs: how far apart the class prototypes are,
    // how anisotropic each class is, and how many classes are "hard"
    // (close to another class).  The separation is expressed relative to
    // √dims because within-cluster distances concentrate around
    // √(2·dims)·σ in high dimensions — without this scaling the classes
    // would be inseparable at 144 attributes.  The ranges are chosen so the
    // collection spans easy to moderately hard sets.
    let separation = rng.uniform_in(0.7, 1.6) * (dims as f64).sqrt();
    // At least one pair of classes is pulled together, so every data set has
    // some overlap and the clustering quality genuinely depends on MinPts.
    let n_hard_pairs = 1 + rng.index(2); // 1 or 2 pairs of classes pulled together

    // Prototype directions: random unit vectors scaled by the separation.
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        let mut c: Vec<f64> = (0..dims).map(|_| rng.standard_normal()).collect();
        let norm: f64 = c.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
        for v in &mut c {
            *v = *v / norm * separation;
        }
        centers.push(c);
    }
    // Pull some pairs of prototypes together to create overlapping classes.
    for p in 0..n_hard_pairs {
        if n_classes < 2 {
            break;
        }
        let a = (2 * p) % n_classes;
        let b = (2 * p + 1) % n_classes;
        if a == b {
            continue;
        }
        let (left, right) = if a < b {
            let (l, r) = centers.split_at_mut(b);
            (&mut l[a], &mut r[0])
        } else {
            let (l, r) = centers.split_at_mut(a);
            (&mut r[0], &mut l[b])
        };
        for j in 0..dims {
            let mid = 0.5 * (left[j] + right[j]);
            left[j] = mid + 0.40 * (left[j] - mid);
            right[j] = mid + 0.40 * (right[j] - mid);
        }
    }

    let specs: Vec<ClusterSpec> = centers
        .into_iter()
        .map(|center| {
            let base_std = rng.uniform_in(0.7, 1.3);
            let std_devs: Vec<f64> = (0..dims)
                .map(|_| base_std * rng.uniform_in(0.6, 1.4))
                .collect();
            ClusterSpec {
                center,
                std_devs,
                size: per_class,
                elongation: rng.uniform_in(0.0, 1.5),
            }
        })
        .collect();

    let ds = gaussian_mixture(&specs, &mut rng);
    // Push a small fraction of each class away from its centroid ("imaging
    // outliers"): these objects thin out the local density, so the choice of
    // MinPts visibly affects the achievable quality — as it does on the real
    // image collections.
    let ds = add_class_outliers(ds, 0.10, 2.2, &mut rng);
    rename(ds, format!("aloi_k{n_classes}_{index:03}"))
}

/// Moves a random `fraction` of the objects of each class away from their
/// class centroid by the given `factor` (> 1 stretches outwards).
fn add_class_outliers(ds: Dataset, fraction: f64, factor: f64, rng: &mut SeededRng) -> Dataset {
    let members = ds.class_members();
    let dims = ds.dims();
    let mut matrix = ds.matrix().clone();
    for class_members in &members {
        if class_members.is_empty() {
            continue;
        }
        // class centroid
        let mut centroid = vec![0.0; dims];
        for &i in class_members {
            for (j, v) in ds.matrix().row(i).iter().enumerate() {
                centroid[j] += v;
            }
        }
        for v in &mut centroid {
            *v /= class_members.len() as f64;
        }
        for &i in class_members {
            if rng.bernoulli(fraction) {
                let row = matrix.row_mut(i);
                for j in 0..dims {
                    row[j] = centroid[j] + factor * (row[j] - centroid[j]);
                }
            }
        }
    }
    Dataset::new(ds.name().to_string(), matrix, ds.labels().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_dataset_shape() {
        let ds = aloi_k5_dataset(1, 0);
        assert_eq!(ds.len(), 125);
        assert_eq!(ds.dims(), 144);
        assert_eq!(ds.n_classes(), 5);
        assert_eq!(ds.class_counts(), vec![25; 5]);
        assert!(ds.matrix().all_finite());
    }

    #[test]
    fn collection_of_size_layout_and_names() {
        let collection = aloi_k5_collection_of_size(1, 7);
        assert_eq!(collection.len(), 7);
        assert_eq!(collection[0].name(), "aloi_k5_000");
        assert_eq!(collection[6].name(), "aloi_k5_006");
        for ds in &collection {
            assert_eq!(ds.len(), 125);
            assert_eq!(ds.n_classes(), 5);
        }
    }

    #[test]
    fn datasets_differ_across_indices() {
        let a = aloi_k5_dataset(1, 0);
        let b = aloi_k5_dataset(1, 1);
        assert_ne!(a.matrix(), b.matrix());
    }

    #[test]
    fn datasets_deterministic_per_seed_and_index() {
        assert_eq!(aloi_k5_dataset(4, 3), aloi_k5_dataset(4, 3));
        assert_ne!(
            aloi_k5_dataset(4, 3).matrix(),
            aloi_k5_dataset(5, 3).matrix()
        );
    }

    #[test]
    fn custom_generate_layout() {
        let ds = generate(9, 0, 3, 10, 16);
        assert_eq!(ds.len(), 30);
        assert_eq!(ds.dims(), 16);
        assert_eq!(ds.n_classes(), 3);
    }

    #[test]
    fn difficulty_varies_across_collection() {
        // Not every data set should be equally easy: the minimum pairwise
        // centroid distance should vary noticeably across the collection.
        let collection = aloi_k5_collection_of_size(2, 10);
        let mut min_dists = Vec::new();
        for ds in &collection {
            let members = ds.class_members();
            let centroids: Vec<Vec<f64>> = members
                .iter()
                .map(|idx| {
                    let mut c = vec![0.0; ds.dims()];
                    for &i in idx {
                        for (j, v) in ds.matrix().row(i).iter().enumerate() {
                            c[j] += v;
                        }
                    }
                    for v in &mut c {
                        *v /= idx.len() as f64;
                    }
                    c
                })
                .collect();
            let mut min_d = f64::MAX;
            for a in 0..centroids.len() {
                for b in (a + 1)..centroids.len() {
                    let d: f64 = centroids[a]
                        .iter()
                        .zip(&centroids[b])
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum::<f64>()
                        .sqrt();
                    min_d = min_d.min(d);
                }
            }
            min_dists.push(min_d);
        }
        let max = min_dists.iter().cloned().fold(f64::MIN, f64::max);
        let min = min_dists.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max > min * 1.3,
            "difficulty should vary: min={min}, max={max}"
        );
    }
}
