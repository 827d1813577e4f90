//! COMET configuration.

use crate::cost::CostPolicy;
use comet_detect::DetectorConfig;
use comet_ml::{Metric, RandomSearch};

/// All knobs of a COMET run. Defaults follow the paper's experimental setup
/// (§4); the ablation benchmarks flip individual switches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CometConfig {
    /// Cleaning/pollution step as a fraction of the split size (§4.1: 1 %).
    pub step_frac: f64,
    /// How many *additional* pollution steps the Polluter probes (§3.1: 2).
    pub pollution_steps: usize,
    /// Random cell combinations per pollution level (§3.1: "multiple").
    pub n_combinations: usize,
    /// Prediction-accuracy metric (paper: F1).
    pub metric: Metric,
    /// Total cleaning budget in cost units (§4.2: 50).
    pub budget: f64,
    /// Cost policy.
    pub costs: CostPolicy,
    /// Credible-interval level for the Estimator's uncertainty.
    pub interval: f64,
    /// Polynomial degree of the Bayesian regression basis.
    pub blr_degree: usize,
    /// Hyperparameter search executed once per configuration (§4.4).
    pub search: RandomSearch,
    /// Seed for deterministic model evaluations.
    pub eval_seed: u64,
    /// Ablation: subtract the uncertainty in the score (paper: true).
    pub use_uncertainty: bool,
    /// Ablation: per-feature bias correction of predictions (paper: true).
    pub bias_correction: bool,
    /// Ablation: revert-and-buffer on F1 decrease (paper: true).
    pub revert_on_decrease: bool,
    /// Ablation: fallback strategy when no candidate is positive (paper: true).
    pub fallback: bool,
    /// Recommend and clean up to this many features per iteration (the
    /// paper's future-work extension, §6; 1 = the paper's step-by-step
    /// behaviour). Batches are accepted or reverted as a unit.
    pub batch_size: usize,
    /// How many times a failed candidate evaluation (panic, NaN loss,
    /// estimator error) is retried before the candidate is recorded as
    /// failed and skipped for the iteration.
    pub max_retries: usize,
    /// Detection-seeded mode: when set, candidate `(feature, error)` pairs
    /// come from a deterministic detector ensemble scanning the dirty
    /// frames instead of the JENGA provenance oracle (DESIGN.md §13). The
    /// detector configuration is part of the session identity: it is
    /// fingerprinted into checkpoint headers and a resume under a
    /// different configuration is refused. `None` = oracle mode (the
    /// paper's setup).
    pub detect: Option<DetectorConfig>,
    /// Rows per column segment (DESIGN.md §15). `0` = whole-column (one
    /// segment per column). Traces are bit-identical across segment sizes,
    /// but spill files, feature-block cache keys, and pollution clone
    /// granularity are per-segment, so the value is fingerprinted into
    /// checkpoint headers and a cross-segment-size resume is refused.
    pub segment_rows: usize,
}

impl Default for CometConfig {
    fn default() -> Self {
        CometConfig {
            step_frac: 0.01,
            pollution_steps: 2,
            n_combinations: 2,
            metric: Metric::F1,
            budget: 50.0,
            costs: CostPolicy::constant(),
            interval: 0.95,
            blr_degree: 1,
            search: RandomSearch::default(),
            eval_seed: 0x5EED,
            use_uncertainty: true,
            bias_correction: true,
            revert_on_decrease: true,
            fallback: true,
            batch_size: 1,
            max_retries: 1,
            detect: None,
            segment_rows: comet_frame::DEFAULT_SEGMENT_ROWS,
        }
    }
}

impl CometConfig {
    /// Validate invariant-critical fields.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.step_frac > 0.0 && self.step_frac <= 1.0) {
            return Err(format!("step_frac must be in (0,1], got {}", self.step_frac));
        }
        if self.pollution_steps == 0 {
            return Err("pollution_steps must be at least 1".into());
        }
        if self.n_combinations == 0 {
            return Err("n_combinations must be at least 1".into());
        }
        if !(self.interval > 0.0 && self.interval < 1.0) {
            return Err(format!("interval must be in (0,1), got {}", self.interval));
        }
        if self.budget < 0.0 {
            return Err("budget must be non-negative".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be at least 1".into());
        }
        if let Some(detect) = &self.detect {
            detect.validate().map_err(|e| format!("detect: {e}"))?;
        }
        Ok(())
    }

    /// Paper multi-error setup: multi-error cost policy, everything else
    /// default.
    pub fn multi_error() -> Self {
        CometConfig { costs: CostPolicy::paper_multi(), ..CometConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CometConfig::default();
        assert_eq!(c.step_frac, 0.01);
        assert_eq!(c.pollution_steps, 2);
        assert_eq!(c.budget, 50.0);
        assert_eq!(c.search.n_samples, 10);
        assert_eq!(c.max_retries, 1);
        assert!(c.use_uncertainty && c.bias_correction && c.revert_on_decrease && c.fallback);
        assert!(c.detect.is_none(), "the paper's setup is oracle mode");
        assert_eq!(c.segment_rows, comet_frame::DEFAULT_SEGMENT_ROWS);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_fields() {
        let bad = [
            CometConfig { step_frac: 0.0, ..CometConfig::default() },
            CometConfig { pollution_steps: 0, ..CometConfig::default() },
            CometConfig { n_combinations: 0, ..CometConfig::default() },
            CometConfig { interval: 1.0, ..CometConfig::default() },
            CometConfig { budget: -1.0, ..CometConfig::default() },
            CometConfig { batch_size: 0, ..CometConfig::default() },
            CometConfig {
                detect: Some(comet_detect::DetectorConfig {
                    knn_k: 0,
                    ..comet_detect::DetectorConfig::default()
                }),
                ..CometConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        }
    }

    #[test]
    fn multi_error_uses_paper_costs() {
        let c = CometConfig::multi_error();
        assert_eq!(c.costs, CostPolicy::paper_multi());
    }
}
