//! The traffic-matrix type.
//!
//! A [`TrafficMatrix`] is a symmetric matrix of non-negative pair weights
//! with a zero diagonal, backed by the flat row-major
//! [`DistMatrix`](cisp_graph::DistMatrix) engine shared with the designer.
//! Weights are relative (the design optimises per unit traffic);
//! [`TrafficMatrix::scaled_to_gbps`] converts them into absolute per-pair
//! demands for capacity planning and packet simulation.

use cisp_graph::{pair_indices, DistMatrix};

/// A symmetric traffic matrix over `n` sites.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMatrix {
    weights: DistMatrix,
}

impl TrafficMatrix {
    /// Build from a full nested matrix; it is symmetrised (averaging the two
    /// triangles) and the diagonal is zeroed.
    pub fn from_matrix(weights: Vec<Vec<f64>>) -> Self {
        Self::from_dist_matrix(DistMatrix::from_nested(weights))
    }

    /// Build from a flat matrix; it is symmetrised (averaging the two
    /// triangles) and the diagonal is zeroed.
    pub fn from_dist_matrix(weights: DistMatrix) -> Self {
        for &v in weights.as_slice() {
            assert!(v.is_finite() && v >= 0.0, "weights must be finite and ≥ 0");
        }
        let symmetric = DistMatrix::from_fn(weights.n(), |i, j| {
            if i == j {
                0.0
            } else {
                0.5 * (weights.get(i, j) + weights.get(j, i))
            }
        });
        Self { weights: symmetric }
    }

    /// An all-zero matrix over `n` sites.
    pub fn zeros(n: usize) -> Self {
        Self {
            weights: DistMatrix::zeros(n),
        }
    }

    /// A uniform matrix (weight 1 between every distinct pair).
    pub fn uniform(n: usize) -> Self {
        Self {
            weights: DistMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { 1.0 }),
        }
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.weights.n()
    }

    /// Weight of a pair.
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        self.weights.get(i, j)
    }

    /// Consume into the underlying matrix.
    pub fn into_matrix(self) -> DistMatrix {
        self.weights
    }

    /// Sum of weights over unordered pairs.
    pub fn total_weight(&self) -> f64 {
        self.weights.upper_triangle_sum()
    }

    /// Normalise so that the maximum pair weight is 1 (no-op for an all-zero
    /// matrix).
    pub(crate) fn normalized(&self) -> Self {
        let max = self.weights.max_value();
        if max <= 0.0 {
            return self.clone();
        }
        let mut weights = self.weights.clone();
        weights.map_in_place(|v| v / max);
        Self { weights }
    }

    /// Scale so the sum over unordered pairs equals `aggregate_gbps`,
    /// yielding absolute per-pair demands in Gbps.
    pub fn scaled_to_gbps(&self, aggregate_gbps: f64) -> DistMatrix {
        assert!(aggregate_gbps >= 0.0);
        let total = self.total_weight();
        assert!(total > 0.0, "cannot scale an all-zero traffic matrix");
        let factor = aggregate_gbps / total;
        let mut scaled = self.weights.clone();
        scaled.map_in_place(|v| v * factor);
        scaled
    }

    /// Weighted sum of several matrices over the same site set: the result is
    /// `Σ weight_k · normalise_to_unit_total(matrix_k)`, so the given weights
    /// are the *traffic shares* of each component (the 4:3:3 mixes of §6.4).
    pub fn mix(components: &[(f64, &TrafficMatrix)]) -> Self {
        assert!(!components.is_empty());
        let n = components[0].1.num_sites();
        for (share, m) in components {
            assert!(*share >= 0.0);
            assert_eq!(m.num_sites(), n, "mismatched site counts in mix");
        }
        let total_share: f64 = components.iter().map(|(s, _)| *s).sum();
        assert!(total_share > 0.0);
        let mut weights = DistMatrix::zeros(n);
        for (share, m) in components {
            let component_total = m.total_weight();
            if component_total <= 0.0 {
                continue;
            }
            let factor = share / total_share / component_total;
            for (i, j) in pair_indices(n) {
                let v = weights.get(i, j) + m.weights.get(i, j) * factor;
                weights.set_sym(i, j, v);
            }
        }
        Self { weights }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_matrix_symmetrises_and_zeroes_diagonal() {
        let m = TrafficMatrix::from_matrix(vec![
            vec![5.0, 2.0, 0.0],
            vec![4.0, 7.0, 1.0],
            vec![0.0, 3.0, 9.0],
        ]);
        assert_eq!(m.weight(0, 0), 0.0);
        assert_eq!(m.weight(1, 1), 0.0);
        assert_eq!(m.weight(0, 1), 3.0);
        assert_eq!(m.weight(1, 0), 3.0);
        assert_eq!(m.weight(1, 2), 2.0);
    }

    #[test]
    fn uniform_and_zeros() {
        let u = TrafficMatrix::uniform(4);
        assert_eq!(u.total_weight(), 6.0);
        let z = TrafficMatrix::zeros(4);
        assert_eq!(z.total_weight(), 0.0);
        assert_eq!(z.normalized().total_weight(), 0.0);
    }

    #[test]
    fn normalization_caps_max_at_one() {
        let m = TrafficMatrix::from_matrix(vec![
            vec![0.0, 10.0, 2.0],
            vec![10.0, 0.0, 5.0],
            vec![2.0, 5.0, 0.0],
        ])
        .normalized();
        assert!((m.weight(0, 1) - 1.0).abs() < 1e-12);
        assert!((m.weight(0, 2) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn scaling_hits_aggregate_and_preserves_ratios() {
        let m = TrafficMatrix::from_matrix(vec![
            vec![0.0, 1.0, 3.0],
            vec![1.0, 0.0, 0.0],
            vec![3.0, 0.0, 0.0],
        ]);
        let scaled = m.scaled_to_gbps(80.0);
        let total: f64 = scaled[0][1] + scaled[0][2] + scaled[1][2];
        assert!((total - 80.0).abs() < 1e-9);
        assert!((scaled[0][2] / scaled[0][1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn mix_respects_shares() {
        // Component A: all traffic on pair (0,1); component B: all on (1,2).
        let a = TrafficMatrix::from_matrix(vec![
            vec![0.0, 1.0, 0.0],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0],
        ]);
        let b = TrafficMatrix::from_matrix(vec![
            vec![0.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.0, 1.0, 0.0],
        ]);
        let mixed = TrafficMatrix::mix(&[(4.0, &a), (3.0, &b)]);
        let w01 = mixed.weight(0, 1);
        let w12 = mixed.weight(1, 2);
        assert!((w01 / w12 - 4.0 / 3.0).abs() < 1e-9);
        // Total weight is 1 (shares normalised).
        assert!((mixed.total_weight() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn symmetry_survives_mixing() {
        let a = TrafficMatrix::uniform(4);
        let b = TrafficMatrix::from_matrix(vec![
            vec![0.0, 2.0, 0.0, 1.0],
            vec![2.0, 0.0, 5.0, 0.0],
            vec![0.0, 5.0, 0.0, 3.0],
            vec![1.0, 0.0, 3.0, 0.0],
        ]);
        let mixed = TrafficMatrix::mix(&[(1.0, &a), (2.0, &b)]);
        assert!(mixed.weights.is_symmetric(1e-12));
    }

    #[test]
    #[should_panic]
    fn mix_rejects_mismatched_sizes() {
        let a = TrafficMatrix::uniform(3);
        let b = TrafficMatrix::uniform(4);
        TrafficMatrix::mix(&[(1.0, &a), (1.0, &b)]);
    }

    #[test]
    #[should_panic]
    fn from_matrix_rejects_negative_weights() {
        TrafficMatrix::from_matrix(vec![vec![0.0, -1.0], vec![-1.0, 0.0]]);
    }

    #[test]
    #[should_panic]
    fn scaling_zero_matrix_panics() {
        TrafficMatrix::zeros(3).scaled_to_gbps(10.0);
    }
}
