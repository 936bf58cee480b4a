//! Synthetic replicas of the data sets used in the CVCP paper.
//!
//! The paper evaluates on the ALOI image collection (see [`crate::aloi`]),
//! five UCI data sets (Iris, Wine, Ionosphere, Ecoli) and the Zyeast
//! gene-expression data.  None of these files can be downloaded in this
//! offline reproduction, so each is replaced by a generator that matches the
//! original's *structural* characteristics: number of objects, feature
//! dimensionality, number of classes, class-size distribution, and roughly
//! the degree of class overlap / non-globular structure that drives the
//! paper's findings (density-based clustering outperforming MPCKMeans on most
//! sets, mixed correlation behaviour for MPCKMeans on the harder sets).
//!
//! See `DESIGN.md` §3 for the substitution table and rationale.

use crate::dataset::Dataset;
use crate::rng::SeededRng;
use crate::synthetic::{gaussian_mixture, rename, waveform_profiles, ClusterSpec};

/// Replica of the UCI *Iris* data set: 150 objects, 4 attributes, 3 classes
/// of 50.  One class is well separated; the other two overlap.
pub fn iris_like(seed: u64) -> Dataset {
    let mut rng = SeededRng::new(seed ^ 0x1815);
    let specs = vec![
        // setosa-like: compact and far from the others
        ClusterSpec {
            center: vec![5.0, 3.4, 1.5, 0.25],
            std_devs: vec![0.35, 0.38, 0.17, 0.10],
            size: 50,
            elongation: 0.0,
        },
        // versicolor-like
        ClusterSpec {
            center: vec![5.9, 2.8, 4.3, 1.3],
            std_devs: vec![0.51, 0.31, 0.47, 0.20],
            size: 50,
            elongation: 0.3,
        },
        // virginica-like: overlaps versicolor
        ClusterSpec {
            center: vec![6.6, 3.0, 5.5, 2.0],
            std_devs: vec![0.63, 0.32, 0.55, 0.27],
            size: 50,
            elongation: 0.3,
        },
    ];
    rename(gaussian_mixture(&specs, &mut rng), "iris_like")
}

/// Replica of the UCI *Wine* data set: 178 objects, 13 attributes, 3 classes
/// of sizes 59 / 71 / 48 with moderate overlap and widely differing feature
/// scales (the replica is usually z-scored before clustering, as the original
/// is in practice).
pub fn wine_like(seed: u64) -> Dataset {
    let mut rng = SeededRng::new(seed ^ 0x817E);
    let dims = 13;
    // Feature scales spanning orders of magnitude, like the original
    // (alcohol ~13, proline ~750, ...).
    let scales: Vec<f64> = (0..dims)
        .map(|j| match j % 5 {
            0 => 1.0,
            1 => 2.5,
            2 => 20.0,
            3 => 100.0,
            _ => 750.0,
        })
        .collect();
    let mut make_center = |shift: f64| -> Vec<f64> {
        (0..dims)
            .map(|j| (shift + rng.uniform_in(-0.4, 0.4)) * scales[j])
            .collect()
    };
    let c0 = make_center(1.0);
    let c1 = make_center(1.6);
    let c2 = make_center(2.3);
    let specs = vec![
        ClusterSpec {
            center: c0,
            std_devs: scales.iter().map(|s| 0.28 * s).collect(),
            size: 59,
            elongation: 0.0,
        },
        ClusterSpec {
            center: c1,
            std_devs: scales.iter().map(|s| 0.33 * s).collect(),
            size: 71,
            elongation: 0.0,
        },
        ClusterSpec {
            center: c2,
            std_devs: scales.iter().map(|s| 0.30 * s).collect(),
            size: 48,
            elongation: 0.0,
        },
    ];
    rename(gaussian_mixture(&specs, &mut rng), "wine_like")
}

/// Replica of the UCI *Ionosphere* data set: 351 objects, 34 attributes, two
/// imbalanced classes (225 "good" / 126 "bad").  The "bad" class is diffuse
/// and partly surrounds the "good" class, which makes the set noisy and only
/// partially separable — as in the original, absolute clustering quality
/// stays moderate.
pub fn ionosphere_like(seed: u64) -> Dataset {
    let mut rng = SeededRng::new(seed ^ 0x10_0F);
    let dims = 34;
    let good_center: Vec<f64> = (0..dims)
        .map(|j| if j % 2 == 0 { 0.8 } else { 0.1 })
        .collect();
    let bad_center: Vec<f64> = (0..dims)
        .map(|j| if j % 2 == 0 { 0.3 } else { -0.1 })
        .collect();
    let specs = vec![
        // "good": tighter core
        ClusterSpec {
            center: good_center,
            std_devs: vec![0.35; dims],
            size: 225,
            elongation: 0.4,
        },
        // "bad": broad, noisy, overlapping cloud
        ClusterSpec {
            center: bad_center,
            std_devs: vec![0.85; dims],
            size: 126,
            elongation: 1.2,
        },
    ];
    rename(gaussian_mixture(&specs, &mut rng), "ionosphere_like")
}

/// Replica of the UCI *Ecoli* data set: 336 objects, 7 attributes, 8 classes
/// with a highly skewed size distribution (143/77/52/35/20/5/2/2).  The tiny
/// classes overlap larger ones, which caps achievable clustering quality —
/// mirroring the moderate Overall F-measures the paper reports.
pub fn ecoli_like(seed: u64) -> Dataset {
    let mut rng = SeededRng::new(seed ^ 0x000E_C011);
    let dims = 7;
    let sizes = [143usize, 77, 52, 35, 20, 5, 2, 2];
    // Major classes get reasonably separated centres; minor classes are placed
    // close to (between) the majors so they are genuinely hard to recover.
    let base_centers: Vec<Vec<f64>> = vec![
        vec![0.35, 0.40, 0.48, 0.50, 0.45, 0.30, 0.35],
        vec![0.65, 0.55, 0.48, 0.50, 0.55, 0.70, 0.70],
        vec![0.45, 0.48, 0.50, 0.50, 0.60, 0.75, 0.40],
        vec![0.70, 0.70, 0.48, 0.50, 0.40, 0.35, 0.75],
        vec![0.55, 0.45, 0.52, 0.50, 0.70, 0.50, 0.55],
        vec![0.50, 0.52, 0.49, 0.50, 0.50, 0.55, 0.50],
        vec![0.42, 0.47, 0.50, 0.50, 0.52, 0.45, 0.45],
        vec![0.60, 0.58, 0.49, 0.50, 0.48, 0.60, 0.62],
    ];
    let specs: Vec<ClusterSpec> = sizes
        .iter()
        .zip(base_centers)
        .enumerate()
        .map(|(i, (&size, center))| ClusterSpec {
            center,
            std_devs: vec![if i < 4 { 0.07 } else { 0.10 }; dims],
            size,
            elongation: if i % 3 == 0 { 0.08 } else { 0.0 },
        })
        .collect();
    rename(gaussian_mixture(&specs, &mut rng), "ecoli_like")
}

/// Replica of the *Zyeast* gene-expression data: 205 objects (genes), 20
/// attributes (conditions), 4 classes.  Objects are noisy copies of smooth
/// phase-shifted waveforms, giving elongated, non-globular clusters on which
/// density-based clustering does very well and k-means does not — matching
/// the paper's strongly diverging results on this set.
pub fn zyeast_like(seed: u64) -> Dataset {
    let mut rng = SeededRng::new(seed ^ 0x0007_EA57);
    let ds = waveform_profiles(&[70, 58, 45, 32], 20, 0.38, &mut rng);
    rename(ds, "zyeast_like")
}

/// The standard evaluation corpus of the paper minus the ALOI collection:
/// Iris, Wine, Ionosphere, Ecoli and Zyeast replicas, in the order used in
/// the paper's tables.
pub fn uci_corpus(seed: u64) -> Vec<Dataset> {
    vec![
        iris_like(seed),
        wine_like(seed),
        ionosphere_like(seed),
        ecoli_like(seed),
        zyeast_like(seed),
    ]
}

/// The names resolvable by [`replica_by_name`], in the paper's table order
/// (the ALOI collection is addressed as `aloi` or `aloi:<index>`).
pub const REPLICA_NAMES: [&str; 6] = [
    "iris_like",
    "wine_like",
    "ionosphere_like",
    "ecoli_like",
    "zyeast_like",
    "aloi",
];

/// The data set a replica name resolves to: one of the five UCI-style
/// replicas or a member of the ALOI k5 collection.  With a seed it
/// determines the replica's content, and every spelling of one data set
/// (`aloi`, `aloi:0`, `aloi:00`, `aloi:+0`) parses to the same id, so it
/// can key a stored replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaId {
    /// [`iris_like`].
    IrisLike,
    /// [`wine_like`].
    WineLike,
    /// [`ionosphere_like`].
    IonosphereLike,
    /// [`ecoli_like`].
    EcoliLike,
    /// [`zyeast_like`].
    ZyeastLike,
    /// The ALOI k5 data set at this index ([`crate::aloi::aloi_k5_dataset`]).
    Aloi(usize),
}

impl ReplicaId {
    /// Parses a replica name without generating anything; `None` for an
    /// unknown name or a malformed `aloi:` index.
    pub fn parse(name: &str) -> Option<ReplicaId> {
        Some(match name {
            "iris_like" => ReplicaId::IrisLike,
            "wine_like" => ReplicaId::WineLike,
            "ionosphere_like" => ReplicaId::IonosphereLike,
            "ecoli_like" => ReplicaId::EcoliLike,
            "zyeast_like" => ReplicaId::ZyeastLike,
            "aloi" => ReplicaId::Aloi(0),
            _ => ReplicaId::Aloi(name.strip_prefix("aloi:")?.parse().ok()?),
        })
    }

    /// Generates the replica; deterministic in `(self, seed)`.
    pub fn generate(self, seed: u64) -> Dataset {
        match self {
            ReplicaId::IrisLike => iris_like(seed),
            ReplicaId::WineLike => wine_like(seed),
            ReplicaId::IonosphereLike => ionosphere_like(seed),
            ReplicaId::EcoliLike => ecoli_like(seed),
            ReplicaId::ZyeastLike => zyeast_like(seed),
            ReplicaId::Aloi(index) => crate::aloi::aloi_k5_dataset(seed, index),
        }
    }
}

/// `true` when [`replica_by_name`] would resolve `name` — a cheap,
/// generation-free admission check (validating a network request must not
/// cost a full replica generation).
pub fn replica_name_is_known(name: &str) -> bool {
    ReplicaId::parse(name).is_some()
}

/// Resolves a data-set replica by name — the registry behind network
/// requests that reference their data set as a string.
///
/// Accepted names are the five UCI-style replicas ([`REPLICA_NAMES`]),
/// `aloi` (the first data set of the ALOI k5 collection) and
/// `aloi:<index>` for a specific member of the collection.  Unknown names
/// (and malformed `aloi:` indices) return `None`.  Resolution is
/// deterministic in `(name, seed)`.
pub fn replica_by_name(name: &str, seed: u64) -> Option<Dataset> {
    ReplicaId::parse(name).map(|id| id.generate(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iris_like_shape() {
        let ds = iris_like(0);
        assert_eq!(ds.len(), 150);
        assert_eq!(ds.dims(), 4);
        assert_eq!(ds.class_counts(), vec![50, 50, 50]);
        assert!(ds.matrix().all_finite());
    }

    #[test]
    fn wine_like_shape() {
        let ds = wine_like(0);
        assert_eq!(ds.len(), 178);
        assert_eq!(ds.dims(), 13);
        let mut counts = ds.class_counts();
        counts.sort_unstable();
        assert_eq!(counts, vec![48, 59, 71]);
    }

    #[test]
    fn ionosphere_like_shape() {
        let ds = ionosphere_like(0);
        assert_eq!(ds.len(), 351);
        assert_eq!(ds.dims(), 34);
        let mut counts = ds.class_counts();
        counts.sort_unstable();
        assert_eq!(counts, vec![126, 225]);
    }

    #[test]
    fn ecoli_like_shape() {
        let ds = ecoli_like(0);
        assert_eq!(ds.len(), 336);
        assert_eq!(ds.dims(), 7);
        assert_eq!(ds.n_classes(), 8);
        let mut counts = ds.class_counts();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(counts, vec![143, 77, 52, 35, 20, 5, 2, 2]);
    }

    #[test]
    fn zyeast_like_shape() {
        let ds = zyeast_like(0);
        assert_eq!(ds.len(), 205);
        assert_eq!(ds.dims(), 20);
        assert_eq!(ds.n_classes(), 4);
    }

    #[test]
    fn replicas_are_deterministic_per_seed() {
        assert_eq!(iris_like(5), iris_like(5));
        assert_ne!(iris_like(5).matrix(), iris_like(6).matrix());
        assert_eq!(zyeast_like(9), zyeast_like(9));
    }

    #[test]
    fn uci_corpus_has_five_sets_in_paper_order() {
        let corpus = uci_corpus(1);
        let names: Vec<&str> = corpus.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec![
                "iris_like",
                "wine_like",
                "ionosphere_like",
                "ecoli_like",
                "zyeast_like"
            ]
        );
    }

    #[test]
    fn replica_registry_resolves_every_published_name() {
        for name in REPLICA_NAMES {
            let ds = replica_by_name(name, 7).expect("published name resolves");
            assert!(!ds.is_empty(), "{name} is non-empty");
        }
        // by-name resolution matches the direct constructors bit-for-bit
        assert_eq!(replica_by_name("iris_like", 3).unwrap(), iris_like(3));
        assert_eq!(
            replica_by_name("aloi", 3).unwrap(),
            crate::aloi::aloi_k5_dataset(3, 0)
        );
        assert_eq!(
            replica_by_name("aloi:17", 3).unwrap(),
            crate::aloi::aloi_k5_dataset(3, 17)
        );
    }

    #[test]
    fn replica_registry_rejects_unknown_names() {
        for bad in [
            "",
            "iris",
            "Iris_like",
            "aloi:",
            "aloi:x",
            "aloi:-1",
            "aloi:1.5",
        ] {
            assert!(
                replica_by_name(bad, 1).is_none(),
                "{bad:?} must not resolve"
            );
            assert!(!replica_name_is_known(bad), "{bad:?} must not be known");
        }
    }

    #[test]
    fn name_check_agrees_with_resolution() {
        // From index 6,949,403,067 on, the index times the ALOI generator's
        // seed multiplier exceeds u64: the mix must wrap, not panic.
        let names = ["aloi:42", "aloi:6949403067", "aloi:18446744073709551615"];
        for name in REPLICA_NAMES.into_iter().chain(names) {
            assert!(replica_name_is_known(name));
            assert!(replica_by_name(name, 1).is_some());
        }
    }

    #[test]
    fn names_share_an_id_exactly_when_they_name_one_data_set() {
        let aliases = ["aloi:0", "aloi:00", "aloi:+0", "aloi:1", "aloi:01"];
        let names: Vec<&str> = REPLICA_NAMES
            .into_iter()
            .chain(aliases)
            .chain(["aloi:18446744073709551615"])
            .collect();
        let resolved: Vec<(ReplicaId, Dataset)> = names
            .iter()
            .map(|name| {
                let id = ReplicaId::parse(name).expect("known name");
                (id, replica_by_name(name, 3).expect("known name"))
            })
            .collect();
        for (a, (id_a, data_a)) in names.iter().zip(&resolved) {
            for (b, (id_b, data_b)) in names.iter().zip(&resolved) {
                assert_eq!(id_a == id_b, data_a == data_b, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn wine_like_feature_scales_vary() {
        let ds = wine_like(0);
        let vars = ds.matrix().column_variances();
        let max = vars.iter().cloned().fold(f64::MIN, f64::max);
        let min = vars.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 100.0, "expected wide spread of feature scales");
    }

    #[test]
    fn iris_like_one_class_is_separable() {
        // Class 0 (setosa-like) should be far from classes 1 and 2 in feature
        // space: its centroid distance to others exceeds within-class spread.
        let ds = iris_like(3);
        let members = ds.class_members();
        let centroid = |idx: &Vec<usize>| -> Vec<f64> {
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
        };
        let c0 = centroid(&members[0]);
        let c1 = centroid(&members[1]);
        let dist: f64 = c0
            .iter()
            .zip(&c1)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(
            dist > 2.0,
            "setosa-like class should be well separated, dist={dist}"
        );
    }
}
