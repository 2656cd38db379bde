//! Synthetic datasets.
//!
//! The performance experiments of the paper only need layer shapes, but the
//! Figure 9 device-variation experiment needs a network with a *real*
//! accuracy to degrade. Since ImageNet training is far outside the scope of a
//! simulator repository, we substitute small synthetic classification
//! problems (documented in DESIGN.md): Gaussian blobs, which a small MLP
//! learns to high accuracy and which expose the same relative degradation
//! between the splice and add weight representations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A labelled classification dataset with dense feature vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature vectors, one per sample.
    pub samples: Vec<Vec<f32>>,
    /// Class labels, one per sample.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Split into a training set and a test set; roughly `train_fraction` of
    /// the samples go to the former. The assignment is a deterministic hash
    /// of the sample index, so it is reproducible and does not systematically
    /// favour any class regardless of how the samples are ordered.
    pub fn split(&self, train_fraction: f64) -> (Dataset, Dataset) {
        let threshold = (train_fraction.clamp(0.0, 1.0) * 1000.0) as usize;
        let mut train = Dataset {
            samples: vec![],
            labels: vec![],
            classes: self.classes,
        };
        let mut test = Dataset {
            samples: vec![],
            labels: vec![],
            classes: self.classes,
        };
        for (i, (x, y)) in self.samples.iter().zip(&self.labels).enumerate() {
            // Multiplicative hash spread over [0, 1000).
            let bucket = (i.wrapping_mul(2_654_435_761)) % 1000;
            if bucket < threshold {
                train.samples.push(x.clone());
                train.labels.push(*y);
            } else {
                test.samples.push(x.clone());
                test.labels.push(*y);
            }
        }
        (train, test)
    }

    /// Generate isotropic Gaussian blobs, one cluster per class, in a
    /// `features`-dimensional cube.
    pub fn gaussian_blobs(
        classes: usize,
        samples_per_class: usize,
        features: usize,
        noise: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f64>> = (0..classes)
            .map(|_| (0..features).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let mut samples = Vec::with_capacity(classes * samples_per_class);
        let mut labels = Vec::with_capacity(classes * samples_per_class);
        for (label, center) in centers.iter().enumerate() {
            for _ in 0..samples_per_class {
                let point: Vec<f32> = center
                    .iter()
                    .map(|c| (c + rng.gen_range(-noise..noise)) as f32)
                    .collect();
                samples.push(point);
                labels.push(label);
            }
        }
        // Interleave the classes so that sequential splits stay balanced.
        let mut order: Vec<usize> = (0..samples.len()).collect();
        order.sort_by_key(|&i| (i % samples_per_class, i / samples_per_class));
        Dataset {
            samples: order.iter().map(|&i| samples[i].clone()).collect(),
            labels: order.iter().map(|&i| labels[i]).collect(),
            classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Dataset {
        /// Number of features per sample.
        pub(crate) fn features(&self) -> usize {
            self.samples.first().map_or(0, Vec::len)
        }
    }

    #[test]
    fn blobs_have_requested_dimensions() {
        let d = Dataset::gaussian_blobs(4, 50, 8, 0.2, 1);
        assert_eq!(d.len(), 200);
        assert_eq!(d.features(), 8);
        assert_eq!(d.classes, 4);
        assert!(d.labels.iter().all(|&l| l < 4));
    }

    #[test]
    fn blobs_are_deterministic_for_a_seed() {
        let a = Dataset::gaussian_blobs(3, 10, 4, 0.1, 7);
        let b = Dataset::gaussian_blobs(3, 10, 4, 0.1, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::gaussian_blobs(3, 10, 4, 0.1, 7);
        let b = Dataset::gaussian_blobs(3, 10, 4, 0.1, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = Dataset::gaussian_blobs(4, 50, 8, 0.2, 1);
        let (train, test) = d.split(0.8);
        assert_eq!(train.len() + test.len(), d.len());
        assert!(!test.is_empty());
        assert!(train.len() > test.len());
    }

    #[test]
    fn split_keeps_both_halves_multi_class() {
        let d = Dataset::gaussian_blobs(4, 50, 8, 0.2, 1);
        let (train, test) = d.split(0.75);
        let distinct = |labels: &[usize]| {
            let mut v: Vec<usize> = labels.to_vec();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert_eq!(distinct(&train.labels), 4);
        assert_eq!(distinct(&test.labels), 4);
    }
}
