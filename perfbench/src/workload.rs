//! The three workloads: what data each one generates, and the session
//! configuration `comet recommend` / `comet serve` would run on it.

use comet_datasets::Dataset;
use comet_frame::{write_csv, DataFrame};
use comet_jenga::{inject, sample_rows, ErrorType};
use comet_ml::Algorithm;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// Session rng seed: the `comet recommend` / `comet client start` default.
/// The workload seed only shapes the generated CSVs.
pub const SESSION_SEED: u64 = 42;
/// Evaluation seed both front ends pass to `build_paired_env`.
pub const EVAL_SEED: u64 = 7;
/// Share of each feature's rows every listed error type is injected into.
pub const DIRT_LEVEL: f64 = 0.10;
/// Budget of every session, in the default constant-cost units.
pub const BUDGET: f64 = 5.0;
/// Cleaning step of served sessions (fixed by the daemon).
pub const SERVE_STEP: f64 = 0.01;
/// Concurrent load-generator clients on the serve workload.
pub const SERVE_CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OracleKnnEeg,
    DetectSvmChurn,
    ServeMixedCmc,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "oracle-knn-eeg" => Some(Workload::OracleKnnEeg),
            "detect-svm-churn" => Some(Workload::DetectSvmChurn),
            "serve-mixed-cmc" => Some(Workload::ServeMixedCmc),
            _ => None,
        }
    }

    pub fn dataset(self) -> Dataset {
        match self {
            Workload::OracleKnnEeg => Dataset::Eeg,
            Workload::DetectSvmChurn => Dataset::Churn,
            Workload::ServeMixedCmc => Dataset::Cmc,
        }
    }

    /// Rows of each generated pair; smoke mode shrinks every workload to a
    /// size that finishes in about a second.
    pub fn rows(self, smoke: bool) -> usize {
        match (self, smoke) {
            (_, true) => 300,
            (Workload::OracleKnnEeg, false) => 1_000,
            (Workload::DetectSvmChurn, false) => 500,
            (Workload::ServeMixedCmc, false) => 400,
        }
    }

    pub fn errors(self) -> &'static [ErrorType] {
        use ErrorType::*;
        match self {
            Workload::OracleKnnEeg => &[MissingValues, GaussianNoise, Scaling],
            Workload::DetectSvmChurn | Workload::ServeMixedCmc => {
                &[MissingValues, CategoricalShift, GaussianNoise]
            }
        }
    }

    /// Learners in the order sessions use them (serve cycles through them).
    pub fn algorithms(self) -> &'static [Algorithm] {
        match self {
            Workload::OracleKnnEeg => &[Algorithm::Knn],
            Workload::DetectSvmChurn => &[Algorithm::Svm],
            Workload::ServeMixedCmc => {
                &[Algorithm::Svm, Algorithm::LogReg, Algorithm::Knn, Algorithm::LinReg]
            }
        }
    }

    pub fn detect(self) -> bool {
        self == Workload::DetectSvmChurn
    }

    pub fn step(self) -> f64 {
        match self {
            Workload::OracleKnnEeg => 0.02,
            Workload::DetectSvmChurn => 0.05,
            Workload::ServeMixedCmc => SERVE_STEP,
        }
    }

    pub fn budget(self, smoke: bool) -> f64 {
        if smoke {
            3.0
        } else {
            BUDGET
        }
    }

    /// Candidate error types a session over this workload considers — the
    /// same choice `comet recommend` and the daemon make.
    pub fn session_errors(self) -> Vec<ErrorType> {
        if self.detect() {
            ErrorType::EXTENDED.to_vec()
        } else {
            ErrorType::ALL.to_vec()
        }
    }
}

/// Generate pair `index` of the workload from `seed` and write it as
/// `dirty{index}.csv` / `clean{index}.csv` under `dir`. Returns the label
/// column name.
pub fn write_pair(
    workload: Workload,
    seed: u64,
    index: usize,
    smoke: bool,
    dir: &Path,
) -> Result<String, String> {
    let pair_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index as u64);
    let mut rng = StdRng::seed_from_u64(pair_seed);
    let clean = workload.dataset().generate(Some(workload.rows(smoke)), &mut rng);
    let dirty = pollute(&clean, workload.errors(), &mut rng)?;
    let label = clean.label().map_err(|e| e.to_string())?.name().to_string();
    write_csv(&dirty, dir.join(format!("dirty{index}.csv"))).map_err(|e| e.to_string())?;
    write_csv(&clean, dir.join(format!("clean{index}.csv"))).map_err(|e| e.to_string())?;
    Ok(label)
}

/// Inject every applicable error type into `DIRT_LEVEL` of each feature's
/// rows (rows drawn independently per error type).
fn pollute(clean: &DataFrame, errors: &[ErrorType], rng: &mut StdRng) -> Result<DataFrame, String> {
    let mut dirty = clean.clone();
    let n = dirty.nrows();
    let k = (DIRT_LEVEL * n as f64).round() as usize;
    for col in dirty.feature_indices() {
        let kind = dirty.column(col).map_err(|e| e.to_string())?.kind();
        for &err in errors.iter().filter(|e| e.applicable(kind)) {
            let rows = sample_rows(n, k, rng);
            inject(&mut dirty, col, &rows, err, rng).map_err(|e| e.to_string())?;
        }
    }
    Ok(dirty)
}
