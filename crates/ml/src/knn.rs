//! k-nearest-neighbors classifier (brute force, Euclidean distance).
//!
//! The paper's KNN (§4.4). Operates on the standardized feature matrix the
//! [`crate::Featurizer`] produces, so Euclidean distance is meaningful
//! across mixed numeric/one-hot features.
//!
//! The distance scan uses the norm decomposition
//! `‖a − xᵢ‖² = ‖a‖² + ‖xᵢ‖² − 2·a·xᵢ` (DESIGN.md §12): train-row norms are
//! computed once per predict pass, the cross terms for a block of test
//! rows come from one cache-blocked [`kernels::matmul`] against the
//! transposed training matrix (throughput-bound element-wise axpy instead
//! of `n_train · n_test` tiny latency-chained dot calls), and the k
//! nearest are selected by an unsorted worst-tracking scan. Every step is
//! fixed-order, so predictions are deterministic, including how distance
//! ties at the k-boundary are broken.

use crate::model::Classifier;
use crate::{kernels, Matrix};
use rand::RngCore;

/// KNN hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnnParams {
    /// Number of neighbors.
    pub k: usize,
}

impl Default for KnnParams {
    fn default() -> Self {
        KnnParams { k: 5 }
    }
}

/// Brute-force KNN. `fit` memorizes the training set; `predict_row` scans
/// all training rows, keeps the `k` nearest, and majority-votes (ties break
/// toward the smaller class code, matching scikit-learn's behaviour for
/// `uniform` weights).
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    params: KnnParams,
    train_x: Option<Matrix>,
    train_y: Vec<u32>,
    n_classes: usize,
}

impl KnnClassifier {
    /// Build with hyperparameters.
    pub fn new(params: KnnParams) -> Self {
        assert!(params.k > 0, "k must be at least 1");
        KnnClassifier { params, train_x: None, train_y: Vec::new(), n_classes: 0 }
    }

    /// The effective `k` (clamped to the training-set size at predict time).
    pub fn k(&self) -> usize {
        self.params.k
    }

    /// Majority-vote over `best` into `votes` (ties break toward the
    /// smaller class code).
    fn majority(&self, best: &[(f64, u32)], votes: &mut Vec<usize>) -> u32 {
        votes.clear();
        votes.resize(self.n_classes, 0);
        for &(_, label) in best {
            votes[label as usize] += 1;
        }
        let mut winner = 0usize;
        for (c, &v) in votes.iter().enumerate().skip(1) {
            if v > votes[winner] {
                winner = c;
            }
        }
        winner as u32
    }

    /// The fitted training matrix; predicting before `fit` is a caller
    /// bug (`predict_before_fit_panics` pins the message).
    fn fitted(&self) -> &Matrix {
        self.train_x.as_ref().expect("predict called before fit")
    }

    /// Squared norm of every training row — the amortized half of the
    /// norm decomposition.
    fn train_norms(&self) -> Vec<f64> {
        let x = self.fitted();
        (0..x.nrows()).map(|i| kernels::dot(x.row(i), x.row(i))).collect()
    }

    /// Column-major (transposed) copy of the training matrix, the `b`
    /// operand of the cross-term [`kernels::matmul`].
    fn transposed_train(&self) -> Vec<f64> {
        let x = self.fitted();
        let (n, d) = (x.nrows(), x.ncols());
        let mut t = vec![0.0; n * d];
        for i in 0..n {
            for (j, &v) in x.row(i).iter().enumerate() {
                t[j * n + i] = v;
            }
        }
        t
    }

    /// Deterministic unsorted top-k over one distance row: keep the `k`
    /// smallest seen so far, tracking the index of the current worst; a
    /// strictly smaller distance overwrites the worst, then the worst is
    /// re-scanned (first index wins ties). A tie with the worst is not
    /// admitted, so the earlier training row keeps its place.
    fn top_k_scan(dists: &[f64], labels: &[u32], k: usize, best: &mut Vec<(f64, u32)>) {
        best.clear();
        // The worst entry's (value, index) live in registers: the re-scan
        // after an admission would otherwise reload `best[worst].0` every
        // iteration, a loop-carried load chain that dominates at larger k.
        let (mut wv, mut wi) = (f64::NEG_INFINITY, 0usize);
        let fill = k.min(dists.len());
        for i in 0..fill {
            let d = dists[i];
            if d > wv {
                wv = d;
                wi = i;
            }
            best.push((d, labels[i]));
        }
        for i in fill..dists.len() {
            let d = dists[i];
            if d < wv {
                best[wi] = (d, labels[i]);
                wv = best[0].0;
                wi = 0;
                for (j, &(bd, _)) in best.iter().enumerate().skip(1) {
                    if bd > wv {
                        wv = bd;
                        wi = j;
                    }
                }
            }
        }
    }

    /// Vote for one test row, given its matmul cross-term row.
    /// `dists` is a caller-provided `n_train` scratch buffer.
    fn vote_decomposed(
        &self,
        rn: f64,
        norms: &[f64],
        cross: &[f64],
        dists: &mut [f64],
        best: &mut Vec<(f64, u32)>,
        votes: &mut Vec<usize>,
    ) -> u32 {
        let k = self.params.k.min(norms.len());
        for ((di, &ni), &ci) in dists.iter_mut().zip(norms).zip(cross) {
            *di = (rn + ni) - 2.0 * ci;
        }
        Self::top_k_scan(dists, &self.train_y, k, best);
        self.majority(best, votes)
    }
}

/// Test rows per cross-term [`kernels::matmul`] block: bounds the
/// `block × n_train` cross buffer while amortizing the blocked product.
const KNN_BLOCK: usize = 64;

impl Default for KnnClassifier {
    fn default() -> Self {
        Self::new(KnnParams::default())
    }
}

impl Classifier for KnnClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u32], n_classes: usize, _rng: &mut dyn RngCore) {
        assert_eq!(x.nrows(), y.len(), "rows and labels must align");
        assert!(x.nrows() > 0, "cannot fit on empty data");
        self.train_x = Some(x.clone());
        self.train_y = y.to_vec();
        self.n_classes = n_classes.max(1);
    }

    fn predict_row(&self, row: &[f64]) -> u32 {
        let mut best = Vec::with_capacity(self.params.k + 1);
        let mut votes = Vec::with_capacity(self.n_classes);
        // One-row block of the batched path: matmul's per-cell order is
        // m-invariant, so this matches `predict` exactly.
        let norms = self.train_norms();
        let xt = self.transposed_train();
        let n = norms.len();
        let mut cross = vec![0.0; n];
        kernels::matmul(row, 1, row.len(), &xt, n, &mut cross);
        let rn = kernels::dot(row, row);
        let mut dists = vec![0.0; n];
        self.vote_decomposed(rn, &norms, &cross, &mut dists, &mut best, &mut votes)
    }

    fn predict(&self, x: &Matrix) -> Vec<u32> {
        // One set of buffers for the whole test set; the distance scan per
        // row reuses them instead of allocating (the KNN workloads in the
        // session loop predict a few thousand rows per candidate).
        let mut best = Vec::with_capacity(self.params.k + 1);
        let mut votes = Vec::with_capacity(self.n_classes);
        let mut out = Vec::with_capacity(x.nrows());
        // Train norms and the transposed training matrix amortize over the
        // whole test set; cross terms stream through one matmul per
        // KNN_BLOCK test rows.
        let norms = self.train_norms();
        let xt = self.transposed_train();
        let (n, d) = (norms.len(), x.ncols());
        let mut cross = vec![0.0; KNN_BLOCK * n];
        let mut dists = vec![0.0; n];
        let mut i0 = 0;
        while i0 < x.nrows() {
            let i1 = (i0 + KNN_BLOCK).min(x.nrows());
            let rows = i1 - i0;
            let block = &x.as_slice()[i0 * d..i1 * d];
            kernels::matmul(block, rows, d, &xt, n, &mut cross[..rows * n]);
            for i in 0..rows {
                let rn = kernels::dot(x.row(i0 + i), x.row(i0 + i));
                out.push(self.vote_decomposed(
                    rn,
                    &norms,
                    &cross[i * n..(i + 1) * n],
                    &mut dists,
                    &mut best,
                    &mut votes,
                ));
            }
            i0 = i1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid() -> (Matrix, Vec<u32>) {
        // Two tight clusters.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let c = i % 2;
            let base = if c == 0 { 0.0 } else { 10.0 };
            rows.push(vec![base + (i / 2) as f64 * 0.01, base]);
            labels.push(c as u32);
        }
        (Matrix::from_vecs(&rows), labels)
    }

    #[test]
    fn classifies_clusters_perfectly() {
        let (x, y) = grid();
        let mut knn = KnnClassifier::default();
        let mut rng = StdRng::seed_from_u64(0);
        knn.fit(&x, &y, 2, &mut rng);
        assert_eq!(knn.predict(&x), y);
        assert_eq!(knn.predict_row(&[0.5, 0.5]), 0);
        assert_eq!(knn.predict_row(&[9.5, 9.5]), 1);
    }

    #[test]
    fn k_one_memorizes() {
        let x = Matrix::from_vecs(&[vec![0.0], vec![1.0], vec![2.0]]);
        let y = vec![0, 1, 0];
        let mut knn = KnnClassifier::new(KnnParams { k: 1 });
        let mut rng = StdRng::seed_from_u64(0);
        knn.fit(&x, &y, 2, &mut rng);
        assert_eq!(knn.predict(&x), y);
    }

    #[test]
    fn k_larger_than_train_clamps() {
        let x = Matrix::from_vecs(&[vec![0.0], vec![1.0]]);
        let y = vec![0, 0];
        let mut knn = KnnClassifier::new(KnnParams { k: 99 });
        let mut rng = StdRng::seed_from_u64(0);
        knn.fit(&x, &y, 2, &mut rng);
        assert_eq!(knn.predict_row(&[5.0]), 0);
    }

    #[test]
    fn majority_vote_with_k3() {
        let x = Matrix::from_vecs(&[vec![0.0], vec![0.1], vec![0.2], vec![5.0]]);
        let y = vec![1, 1, 0, 0];
        let mut knn = KnnClassifier::new(KnnParams { k: 3 });
        let mut rng = StdRng::seed_from_u64(0);
        knn.fit(&x, &y, 2, &mut rng);
        // Neighbors of 0.05: {0.0:1, 0.1:1, 0.2:0} → majority 1.
        assert_eq!(knn.predict_row(&[0.05]), 1);
    }

    #[test]
    fn tie_breaks_to_lower_class() {
        let x = Matrix::from_vecs(&[vec![0.0], vec![1.0]]);
        let y = vec![1, 0];
        let mut knn = KnnClassifier::new(KnnParams { k: 2 });
        let mut rng = StdRng::seed_from_u64(0);
        knn.fit(&x, &y, 2, &mut rng);
        assert_eq!(knn.predict_row(&[0.5]), 0);
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn predict_before_fit_panics() {
        KnnClassifier::default().predict_row(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_rejected() {
        KnnClassifier::new(KnnParams { k: 0 });
    }
}
