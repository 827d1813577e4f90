//! One cleaning session the way `comet recommend` runs it: read the CSV
//! pair, build the environment through `build_paired_env`, run
//! `CleaningSession::run`, and check the outcome.

use crate::workload::{Workload, EVAL_SEED, SERVE_STEP, SESSION_SEED};
use comet_core::{
    build_paired_env, CheckpointSpec, CleaningEnvironment, CleaningSession, CometConfig,
    SessionOutcome,
};
use comet_detect::DetectorConfig;
use comet_frame::{read_csv, DataFrame, DEFAULT_SEGMENT_ROWS};
use comet_ml::{Algorithm, HyperParams, RandomSearch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What a session is run on: one generated pair and one learner.
#[derive(Debug, Clone)]
pub struct SessionInput {
    pub workload: Workload,
    pub dir: PathBuf,
    pub pair: usize,
    pub label: String,
    pub algorithm: Algorithm,
    pub smoke: bool,
    /// Run the session as `comet serve` runs a manifest: the daemon fixes
    /// the cleaning step at `SERVE_STEP`.
    pub served: bool,
}

impl SessionInput {
    pub fn dirty_path(&self) -> PathBuf {
        self.dir.join(format!("dirty{}.csv", self.pair))
    }

    pub fn clean_path(&self) -> PathBuf {
        self.dir.join(format!("clean{}.csv", self.pair))
    }

    pub fn step(&self) -> f64 {
        if self.served {
            SERVE_STEP
        } else {
            self.workload.step()
        }
    }

    pub fn read_pair(&self) -> Result<(DataFrame, DataFrame), String> {
        let read = |p: &Path| read_csv(p, Some(&self.label)).map_err(|e| format!("{p:?}: {e}"));
        Ok((read(&self.dirty_path())?, read(&self.clean_path())?))
    }

    /// The session configuration: `CometConfig::default()` plus the
    /// workload's budget, step and candidate source.
    pub fn config(&self) -> CometConfig {
        CometConfig {
            budget: self.workload.budget(self.smoke),
            step_frac: self.step(),
            detect: self.workload.detect().then(DetectorConfig::default),
            ..CometConfig::default()
        }
    }

    /// `build_paired_env` with the arguments both front ends pass. Returns
    /// the environment and the session rng positioned after set-up.
    pub fn build_env(
        &self,
        dirty: DataFrame,
        clean: DataFrame,
    ) -> Result<(CleaningEnvironment, StdRng), String> {
        let mut rng = StdRng::seed_from_u64(SESSION_SEED);
        let env = build_paired_env(
            dirty,
            Some(clean),
            self.algorithm,
            self.step(),
            RandomSearch::default(),
            EVAL_SEED,
            DEFAULT_SEGMENT_ROWS,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        Ok((env, rng))
    }

    /// Run the session on a built environment; returns the outcome and the
    /// wall time of `CleaningSession::run`.
    pub fn run(
        &self,
        env: &mut CleaningEnvironment,
        rng: &mut StdRng,
        checkpoint: Option<PathBuf>,
    ) -> Result<(SessionOutcome, f64), String> {
        let mut session = CleaningSession::new(self.config(), self.workload.session_errors());
        if let Some(path) = checkpoint {
            session = session.with_checkpoint(CheckpointSpec { path, resume: false });
        }
        let started = Instant::now();
        let outcome = session.run(env, rng).map_err(|e| e.to_string())?;
        Ok((outcome, started.elapsed().as_secs_f64()))
    }
}

/// The trace as `comet recommend --trace` writes it, followed by comment
/// lines with the F1 values and failures it omits — the text two runs
/// must agree on byte for byte.
pub fn trace_text(outcome: &SessionOutcome, env: &CleaningEnvironment) -> String {
    let trace = &outcome.trace;
    let mut text = trace.to_csv(Some(env.train()));
    text.push_str(&format!(
        "# initial_f1={:?} final_f1={:?} fully_clean_f1={:?} failures={}\n",
        trace.initial_f1,
        trace.final_f1,
        trace.fully_clean_f1,
        trace.failures.len()
    ));
    for f in &trace.failures {
        text.push_str(&format!("# failure {} {} {:?} {}\n", f.iteration, f.col, f.err, f.reason));
    }
    text
}

/// The outcome checks that need the live environment: the budget was not
/// overspent, and re-evaluating the final state reproduces the last
/// accepted F1 bit for bit. Returns one message per violation.
pub fn check_outcome(
    outcome: &SessionOutcome,
    env: &CleaningEnvironment,
    budget: f64,
) -> Vec<String> {
    let mut problems = Vec::new();
    let spent: f64 = outcome.trace.records.iter().map(|r| r.cost).sum();
    if spent > budget + 1e-9 {
        problems.push(format!("spent {spent} of budget {budget}"));
    }
    match env.evaluate() {
        Ok(f1) if f1.to_bits() == outcome.trace.final_f1.to_bits() => {}
        Ok(f1) => problems.push(format!(
            "env.evaluate() = {f1:?} but the last accepted F1 is {:?}",
            outcome.trace.final_f1
        )),
        Err(e) => problems.push(format!("env.evaluate() failed: {e}")),
    }
    if !outcome.trace.failures.is_empty() {
        problems.push(format!("{} candidate estimates failed", outcome.trace.failures.len()));
    }
    if outcome.stop.is_some() {
        problems.push("session stopped early".into());
    }
    problems
}

/// Training work of a tuned model against the middle of the random-search
/// space. The SGD learners (svm, logreg, linreg) train 20, 40 or 60
/// epochs, and their fit time grows with the epochs; the tune picks the
/// epochs from the pair's contents. Every other learner counts 1.
/// `run.py` divides session times by this, so that a run's figure does
/// not hang on how many of its pairs happened to tune to 20 or 60 epochs.
pub fn work_scale(params: &HyperParams) -> f64 {
    let epochs = match params {
        HyperParams::Svm(p) => p.epochs,
        HyperParams::LogReg(p) => p.epochs,
        HyperParams::LinReg(p) => p.epochs,
        _ => return 1.0,
    };
    epochs as f64 / 40.0
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
