//! The COMET outer loop: iterate Polluter → Estimator → Recommender →
//! (simulated) Cleaner until the budget is spent or the data is clean.

use crate::budget::Budget;
use crate::checkpoint::{self, CheckpointSpec, CheckpointWriter, CountingRng, IterationCheckpoint};
use crate::config::CometConfig;
use crate::control::{SessionControl, SessionProgress, StopReason};
use crate::env::{CleaningEnvironment, EnvError};
use crate::error::CometError;
use crate::estimator::{Estimate, Estimator};
use crate::faults::{FaultKind, FaultPlan};
use crate::metrics::{IterationMetrics, PhaseNanos, RunMetrics};
use crate::polluter::Polluter;
use crate::recommender::Recommender;
use crate::trace::{CleaningTrace, FailureRecord, StepAction, StepRecord};
use comet_jenga::ErrorType;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Derive the private rng seed of one candidate's what-if pollution from
/// the session seed and the candidate's identity (FxHash-style mixing).
/// Giving every `(col, err, iteration)` its own stream — instead of letting
/// candidates share the session rng — is what makes the parallel candidate
/// fan-out produce traces bit-identical to a sequential run.
/// Fault injection's `TrainingPanic` arm: a *real* panic, thrown on purpose
/// so tests prove `par_map_catch` contains worker unwinds.
#[allow(clippy::panic)]
fn injected_training_panic(iteration: usize, col: usize, err: ErrorType) -> ! {
    // comet-lint: allow(D4) — deliberate: fault injection must produce a real panic for par_map_catch to contain
    panic!("injected fault: training panic at iteration {iteration} candidate ({col}, {err:?})");
}

fn candidate_seed(session_seed: u64, col: usize, err: ErrorType, iteration: usize) -> u64 {
    const M: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = session_seed;
    for w in [col as u64, err as u64, iteration as u64] {
        h = (h.rotate_left(5) ^ w).wrapping_mul(M);
    }
    h
}

/// Run `f`, adding its elapsed nanoseconds to `acc` when `on`. The
/// accumulators are per-iteration `AtomicU64`s so the same helper serves
/// the sequential phases and the pollute/estimate work inside the
/// parallel candidate fan-out (where workers add concurrently).
fn timed<T>(on: bool, acc: &AtomicU64, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    // comet-lint: allow(D3) — observability: metrics phase timing; never feeds a trace decision
    let started = Instant::now();
    let out = f();
    // comet-lint: allow(D9) — monotonic metrics accumulator; only read at report time, no ordering needed
    acc.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}

/// A configured COMET run over a fixed set of candidate error types
/// (single-error scenario: one type; multi-error: all four).
#[derive(Debug, Clone)]
pub struct CleaningSession {
    config: CometConfig,
    errors: Vec<ErrorType>,
    faults: Option<Arc<FaultPlan>>,
    checkpoint: Option<CheckpointSpec>,
    control: Option<SessionControl>,
}

/// How one candidate evaluation attempt ended: a usable estimate, or a
/// failure reason (panic message, estimator error, non-finite output).
fn classify(outcome: Result<Result<Estimate, EnvError>, String>) -> Result<Estimate, String> {
    match outcome {
        Ok(Ok(est)) => {
            if est.raw_predicted_f1.is_finite()
                && est.predicted_f1.is_finite()
                && est.uncertainty.is_finite()
            {
                Ok(est)
            } else {
                Err("non-finite estimate (NaN loss)".to_string())
            }
        }
        Ok(Err(e)) => Err(format!("estimator failure: {e}")),
        Err(panic) => Err(format!("panic: {panic}")),
    }
}

/// The result of a session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The full step-by-step trace.
    pub trace: CleaningTrace,
    /// Per-iteration phase timings and counters, collected only while
    /// `comet_obs` recording is enabled; `None` on bare runs.
    pub metrics: Option<RunMetrics>,
    /// Why the session stopped early, if a supervisor requested it through
    /// a [`SessionControl`]; `None` for a natural finish (budget spent,
    /// data clean, or no affordable action). An early-stopped session
    /// still carries its full partial trace — graceful degradation, not
    /// an error.
    pub stop: Option<StopReason>,
}

impl CleaningSession {
    /// Build a session. Panics on an invalid config or empty error set.
    pub fn new(config: CometConfig, errors: Vec<ErrorType>) -> Self {
        #[allow(clippy::expect_used)]
        // comet-lint: allow(D4) — documented constructor contract: invalid config is a caller bug, not a runtime failure
        config.validate().expect("valid config");
        assert!(!errors.is_empty(), "need at least one candidate error type");
        CleaningSession { config, errors, faults: None, checkpoint: None, control: None }
    }

    /// Inject a deterministic [`FaultPlan`] into candidate evaluations
    /// (testing and chaos drills; production sessions carry none).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Persist (and optionally resume from) a checkpoint file.
    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Attach a cooperative [`SessionControl`]: a supervisor can cancel the
    /// run or expire its deadline at any iteration boundary, and read
    /// best-so-far progress while the session is still running.
    pub fn with_control(mut self, control: SessionControl) -> Self {
        self.control = Some(control);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &CometConfig {
        &self.config
    }

    /// Run COMET against the environment until the budget is exhausted, the
    /// data is fully clean, or no affordable action remains.
    ///
    /// Candidate evaluations are failure-isolated: a panicking, erroring,
    /// or NaN-producing candidate is retried up to `config.max_retries`
    /// times and then recorded in `trace.failures` and skipped — one bad
    /// candidate never kills the session.
    pub fn run<R: Rng>(
        &self,
        env: &mut CleaningEnvironment,
        rng: &mut R,
    ) -> Result<SessionOutcome, CometError> {
        // Detection-seeded mode: candidate pairs come from the detector
        // ensemble from here on, never from the provenance oracle.
        if let Some(detect) = self.config.detect {
            env.enable_detection(detect);
        }

        // Count sequential rng draws so checkpoints can verify a resumed
        // replay consumes randomness identically.
        let rng = &mut CountingRng::new(rng);
        let mut budget = Budget::new(self.config.budget);
        let polluter = Polluter::from_config(&self.config);
        let mut estimator = Estimator::new(
            self.config.blr_degree,
            self.config.interval,
            self.config.bias_correction,
        );
        let mut recommender = Recommender::new(self.config.use_uncertainty);
        let mut steps_done: BTreeMap<(usize, ErrorType), usize> = BTreeMap::new();

        // All candidate randomness derives from this one draw (see
        // [`candidate_seed`]); the caller's rng is then only consumed by the
        // strictly sequential cleaning steps. Drawn before the first model
        // evaluation so a resume can verify seed identity up front.
        let session_seed: u64 = rng.next_u64();

        // Checkpointing: on resume, load the interrupted run's cache and
        // per-iteration records first — the preloaded cache is what makes
        // the replay below both cheap and bit-identical (the warm-cache
        // determinism property) — then rewrite the file from scratch.
        let config_fp = checkpoint::config_fingerprint(&self.config, &self.errors);
        let detect_fp = checkpoint::detect_fingerprint(&self.config.detect);
        let mut resume_data = None;
        let writer = match &self.checkpoint {
            Some(spec) => {
                if spec.resume {
                    let data = checkpoint::load(&spec.path)?;
                    if data.detect_fp != detect_fp {
                        // Typed as Invalid, not Checkpoint: the file is
                        // fine, the caller's detector configuration is what
                        // contradicts the recorded session identity.
                        return Err(CometError::Invalid(format!(
                            "checkpoint was recorded under detection setup {:016x}, this session \
                             runs {:016x} — the detector configuration decides which candidate \
                             pairs exist, refusing to resume",
                            data.detect_fp, detect_fp
                        )));
                    }
                    if data.segment_rows != self.config.segment_rows as u64 {
                        return Err(CometError::Checkpoint(format!(
                            "checkpoint was recorded with segment_rows={}, resumed with \
                             segment_rows={} — spill files and feature blocks are addressed \
                             per segment, refusing to resume",
                            data.segment_rows, self.config.segment_rows
                        )));
                    }
                    if data.session_seed != session_seed {
                        return Err(CometError::Checkpoint(format!(
                            "checkpoint was recorded under session seed {:016x}, resumed with {:016x}",
                            data.session_seed, session_seed
                        )));
                    }
                    if data.config_fp != config_fp {
                        return Err(CometError::Checkpoint(
                            "checkpoint config does not match this session".into(),
                        ));
                    }
                    env.preload_cache(&data.cache);
                    let mut w = CheckpointWriter::create(
                        &spec.path,
                        session_seed,
                        config_fp,
                        self.config.budget,
                        detect_fp,
                        self.config.segment_rows,
                    )?;
                    w.write_cache(&data.cache)?;
                    resume_data = Some(data);
                    Some(w)
                } else {
                    Some(CheckpointWriter::create(
                        &spec.path,
                        session_seed,
                        config_fp,
                        self.config.budget,
                        detect_fp,
                        self.config.segment_rows,
                    )?)
                }
            }
            None => None,
        };
        // A planned CheckpointWriteError fires from inside the writer, so
        // the injected failure travels the exact production I/O error path.
        let writer = writer.map(|w| match &self.faults {
            Some(plan) => w.with_faults(Arc::clone(plan)),
            None => w,
        });
        let mut writer = writer;

        let mut trace = CleaningTrace {
            initial_f1: env.evaluate()?,
            fully_clean_f1: Some(env.fully_cleaned_f1()?),
            ..CleaningTrace::default()
        };
        let mut current_f1 = trace.initial_f1;

        // Metrics are collected only while `comet_obs` recording is on;
        // nothing below may branch on collected values, so instrumented
        // runs stay bit-identical to bare ones.
        let metrics_on = comet_obs::enabled();
        let mut run_metrics = if metrics_on { Some(RunMetrics::default()) } else { None };

        // The initial publish makes the dirty baseline visible to status
        // polls before the first iteration lands.
        if let Some(control) = &self.control {
            control.publish(SessionProgress {
                iterations: 0,
                initial_f1: trace.initial_f1,
                best_f1: trace.initial_f1,
                budget_spent: 0.0,
                steps: Vec::new(),
            });
        }

        let mut stopped: Option<StopReason> = None;
        for iteration in 0..10_000usize {
            // Cooperative stop: a cancel or an expired deadline raised by
            // the supervisor takes effect here, between iterations. All
            // completed iterations are already checkpointed, so stopping
            // loses nothing — the partial trace below is a normal outcome.
            if let Some(reason) = self.control.as_ref().and_then(SessionControl::stop_requested) {
                comet_obs::counter_add("session.stopped_early", 1);
                stopped = Some(reason);
                break;
            }
            // An exhausted budget still admits zero-cost productive
            // actions: buffered re-applications and free follow-up steps
            // under `OneShot { rest: 0.0 }` cost models. Breaking outright
            // here starved those (the free-step starvation bug).
            if budget.exhausted() && !self.free_action_available(env, &recommender, &steps_done) {
                break;
            }
            let dirty_pairs = env.candidate_pairs(&self.errors);
            if dirty_pairs.is_empty() {
                break;
            }
            let cache_before = env.cache_stats();
            let records_before = trace.records.len();
            let candidates = dirty_pairs.len();
            let pollute_nanos = AtomicU64::new(0);
            let estimate_nanos = AtomicU64::new(0);
            let rank_nanos = AtomicU64::new(0);
            let clean_step_nanos = AtomicU64::new(0);
            let evaluate_nanos = AtomicU64::new(0);
            let fallback_nanos = AtomicU64::new(0);

            // --- Produce the recommendation (the RQ6-timed phase). ---
            // Candidates are independent given their derived seeds, so the
            // pollute → estimate pipeline fans out across worker threads.
            // `par_map` returns results in `dirty_pairs` order, making the
            // ranking input — and hence the whole trace — independent of
            // the thread count.
            // comet-lint: allow(D3) — observability: iteration runtime for reports; never feeds a trace decision
            let started = Instant::now();
            let (estimates, iteration_failures): (Vec<Estimate>, Vec<FailureRecord>) = {
                let env_ref: &CleaningEnvironment = env;
                let estimator_ref = &estimator;
                let pollute_acc = &pollute_nanos;
                let estimate_acc = &estimate_nanos;
                let faults = self.faults.as_deref();
                let eval_candidate =
                    |(col, err): (usize, ErrorType)| -> Result<Estimate, EnvError> {
                        let fault = faults.and_then(|p| p.arm(iteration, col, err));
                        if fault == Some(FaultKind::EstimatorFailure) {
                            return Err(EnvError::Invalid(format!(
                                "injected fault: estimator failure at candidate ({col}, {err:?})"
                            )));
                        }
                        if fault == Some(FaultKind::TrainingPanic) {
                            injected_training_panic(iteration, col, err);
                        }
                        let seed = candidate_seed(session_seed, col, err, iteration);
                        let mut cand_rng = StdRng::seed_from_u64(seed);
                        // Workers add into shared accumulators, so these two
                        // phases measure aggregate worker time (they can
                        // exceed the iteration's wall clock).
                        let variants = timed(metrics_on, pollute_acc, || {
                            polluter.variants(env_ref, col, err, &mut cand_rng)
                        })?;
                        let mut est = timed(metrics_on, estimate_acc, || {
                            estimator_ref.estimate(env_ref, col, err, current_f1, &variants)
                        })?;
                        if fault == Some(FaultKind::NanLoss) {
                            est.raw_predicted_f1 = f64::NAN;
                            est.predicted_f1 = f64::NAN;
                        }
                        Ok(est)
                    };
                // Panics are caught per candidate inside the fan-out
                // (`par_map_catch`): a failed candidate becomes an `Err`
                // slot in input order instead of killing the session.
                let attempts = comet_par::par_map_catch(dirty_pairs.clone(), eval_candidate);
                let mut estimates = Vec::with_capacity(dirty_pairs.len());
                let mut failures = Vec::new();
                for (outcome, &(col, err)) in attempts.into_iter().zip(dirty_pairs.iter()) {
                    let mut result = classify(outcome);
                    let mut retries = 0u32;
                    // Failed candidates retry sequentially, in input order,
                    // re-deriving the same candidate seed — retries stay
                    // deterministic and thread-count independent.
                    while result.is_err() && (retries as usize) < self.config.max_retries {
                        retries += 1;
                        comet_obs::counter_add("fault.retries", 1);
                        #[allow(clippy::expect_used)]
                        let attempt = comet_par::par_map_catch(vec![(col, err)], eval_candidate)
                            .pop()
                            // comet-lint: allow(D4) — par_map_catch's one-in/one-out contract is proptested in comet-par
                            .expect("one item in, one result out");
                        result = classify(attempt);
                        if result.is_ok() {
                            comet_obs::counter_add("fault.recovered", 1);
                        }
                    }
                    match result {
                        Ok(est) => estimates.push(est),
                        Err(reason) => {
                            comet_obs::counter_add("fault.candidate_failures", 1);
                            failures.push(FailureRecord { iteration, col, err, reason, retries });
                        }
                    }
                }
                (estimates, failures)
            };
            let failures_this_iteration = iteration_failures.len();
            trace.failures.extend(iteration_failures);
            // Costs pair with `estimates` by index in `rank`, so they are
            // built from the surviving estimates, not from `dirty_pairs`
            // (failed candidates are absent).
            let costs: Vec<f64> = estimates
                .iter()
                .map(|est| {
                    let done = steps_done.get(&(est.col, est.err)).copied().unwrap_or(0);
                    self.config.costs.next_cost(est.err, done)
                })
                .collect();
            let ranked = timed(metrics_on, &rank_nanos, || recommender.rank(estimates, &costs));
            trace.iteration_runtimes.push(started.elapsed());

            // --- Execute recommendations until one sticks. ---
            let mut progressed = false;

            // Batched mode (future-work extension, §6): clean the top-k
            // candidates together, evaluate once, accept or revert the
            // whole batch. Falls through to the step-by-step path when
            // fewer than two fresh candidates are available.
            if self.config.batch_size > 1 {
                let mut selected: Vec<&crate::recommender::Candidate> = Vec::new();
                let mut planned_cost = 0.0;
                for cand in &ranked {
                    if selected.len() == self.config.batch_size {
                        break;
                    }
                    let (col, err) = (cand.estimate.col, cand.estimate.err);
                    if recommender.buffer_contains(col, err) {
                        continue; // buffered states are handled one by one
                    }
                    if budget.can_afford(planned_cost + cand.cost) {
                        planned_cost += cand.cost;
                        selected.push(cand);
                    }
                }
                if selected.len() > 1 {
                    let mut pre_snaps = Vec::with_capacity(selected.len());
                    for cand in &selected {
                        pre_snaps.push(env.snapshot(cand.estimate.col)?);
                    }
                    let mut cleaned_counts = Vec::with_capacity(selected.len());
                    let mut any_cleaned = false;
                    for cand in &selected {
                        let (col, err) = (cand.estimate.col, cand.estimate.err);
                        let (ctr, cte) = timed(metrics_on, &clean_step_nanos, || {
                            env.clean_step(
                                col,
                                err,
                                &cand.estimate.flagged_train,
                                &cand.estimate.flagged_test,
                                rng,
                            )
                        })?;
                        cleaned_counts.push(ctr + cte);
                        any_cleaned |= ctr + cte > 0;
                    }
                    if any_cleaned {
                        // Charge, count, and learn from only the members
                        // that actually cleaned cells — parity with the
                        // step-by-step path's zero-cell skip. A member
                        // whose pair was already clean did no work and
                        // must not consume budget or produce a record.
                        for (i, cand) in selected.iter().enumerate() {
                            if cleaned_counts[i] == 0 {
                                continue;
                            }
                            budget.try_spend(cand.cost);
                            *steps_done
                                .entry((cand.estimate.col, cand.estimate.err))
                                .or_default() += 1;
                        }
                        let f1 = timed(metrics_on, &evaluate_nanos, || env.evaluate())?;
                        for (i, cand) in selected.iter().enumerate() {
                            if cleaned_counts[i] == 0 {
                                continue;
                            }
                            estimator.record_outcome(
                                cand.estimate.col,
                                cand.estimate.err,
                                cand.estimate.raw_predicted_f1,
                                f1,
                            );
                            recommender.record_post_clean_f1(
                                cand.estimate.col,
                                cand.estimate.err,
                                f1,
                            );
                        }
                        let keep = f1 >= current_f1 - 1e-12 || !self.config.revert_on_decrease;
                        if keep {
                            current_f1 = f1;
                        } else {
                            // Buffer each cleaned column (zero-cell
                            // members have nothing to buffer), then
                            // revert all.
                            for (i, cand) in selected.iter().enumerate() {
                                if cleaned_counts[i] == 0 {
                                    continue;
                                }
                                let cleaned_state = env.snapshot(cand.estimate.col)?;
                                recommender.buffer_store(
                                    cand.estimate.col,
                                    cand.estimate.err,
                                    cleaned_state,
                                );
                            }
                            for pre in &pre_snaps {
                                env.restore(pre)?;
                            }
                        }
                        for (i, cand) in selected.iter().enumerate() {
                            if cleaned_counts[i] == 0 {
                                continue;
                            }
                            trace.records.push(StepRecord {
                                iteration,
                                col: cand.estimate.col,
                                err: cand.estimate.err,
                                action: if keep {
                                    StepAction::Accepted
                                } else {
                                    StepAction::Reverted
                                },
                                cost: cand.cost,
                                budget_spent: budget.spent(),
                                predicted_f1: Some(cand.estimate.predicted_f1),
                                raw_predicted_f1: Some(cand.estimate.raw_predicted_f1),
                                actual_f1: f1,
                                cleaned_cells: cleaned_counts[i],
                            });
                        }
                        trace.f1_curve.push((budget.spent(), current_f1));
                        if keep {
                            progressed = true;
                        }
                    }
                }
            }

            for cand in &ranked {
                if progressed {
                    break;
                }
                let (col, err) = (cand.estimate.col, cand.estimate.err);

                // A buffered cleaned state re-applies for free (§3.3).
                // (`buffer_take` is its own existence check — no unwrap.)
                if let Some(buffered) = recommender.buffer_take(col, err) {
                    let pre = env.snapshot(col)?;
                    env.restore(&buffered)?;
                    let f1 = timed(metrics_on, &evaluate_nanos, || env.evaluate())?;
                    if f1 >= current_f1 - 1e-12 {
                        current_f1 = f1;
                        recommender.record_post_clean_f1(col, err, f1);
                        trace.records.push(StepRecord {
                            iteration,
                            col,
                            err,
                            action: StepAction::BufferApplied,
                            cost: 0.0,
                            budget_spent: budget.spent(),
                            predicted_f1: Some(cand.estimate.predicted_f1),
                            raw_predicted_f1: Some(cand.estimate.raw_predicted_f1),
                            actual_f1: f1,
                            cleaned_cells: 0,
                        });
                        trace.f1_curve.push((budget.spent(), f1));
                        progressed = true;
                        break;
                    }
                    env.restore(&pre)?;
                    recommender.buffer_store(col, err, buffered);
                    continue;
                }

                if !budget.can_afford(cand.cost) {
                    continue;
                }
                let pre = env.snapshot(col)?;
                let (ctr, cte) = timed(metrics_on, &clean_step_nanos, || {
                    env.clean_step(
                        col,
                        err,
                        &cand.estimate.flagged_train,
                        &cand.estimate.flagged_test,
                        rng,
                    )
                })?;
                if ctr + cte == 0 {
                    continue;
                }
                budget.try_spend(cand.cost);
                *steps_done.entry((col, err)).or_default() += 1;
                let f1 = timed(metrics_on, &evaluate_nanos, || env.evaluate())?;
                estimator.record_outcome(col, err, cand.estimate.raw_predicted_f1, f1);
                recommender.record_post_clean_f1(col, err, f1);

                if f1 >= current_f1 - 1e-12 || !self.config.revert_on_decrease {
                    current_f1 = f1;
                    trace.records.push(StepRecord {
                        iteration,
                        col,
                        err,
                        action: StepAction::Accepted,
                        cost: cand.cost,
                        budget_spent: budget.spent(),
                        predicted_f1: Some(cand.estimate.predicted_f1),
                        raw_predicted_f1: Some(cand.estimate.raw_predicted_f1),
                        actual_f1: f1,
                        cleaned_cells: ctr + cte,
                    });
                    trace.f1_curve.push((budget.spent(), f1));
                    progressed = true;
                    break;
                }

                // Revert, but keep the paid work in the cleaning buffer.
                let cleaned_state = env.snapshot(col)?;
                env.restore(&pre)?;
                recommender.buffer_store(col, err, cleaned_state);
                trace.records.push(StepRecord {
                    iteration,
                    col,
                    err,
                    action: StepAction::Reverted,
                    cost: cand.cost,
                    budget_spent: budget.spent(),
                    predicted_f1: Some(cand.estimate.predicted_f1),
                    raw_predicted_f1: Some(cand.estimate.raw_predicted_f1),
                    actual_f1: f1,
                    cleaned_cells: ctr + cte,
                });
                trace.f1_curve.push((budget.spent(), current_f1));
            }

            // --- Fallback (§3.3, step E). ---
            // When no candidate is predicted to improve (or all ranked ones
            // were reverted), the fallback commits to cleaning the candidate
            // with the historically best post-cleaning F1 and *keeps* the
            // result even if F1 temporarily dips — the paper's own Figure 7
            // shows COMET's trajectory fluctuating exactly this way. This
            // also guarantees progress: every fallback step reduces dirt.
            if !progressed && self.config.fallback {
                // Timed as one block (including its cleaning and
                // evaluation) so the inner calls are not double-counted
                // into the clean_step/evaluate phases.
                // comet-lint: allow(D3) — observability: metrics phase timing; never feeds a trace decision
                let fallback_started = if metrics_on { Some(Instant::now()) } else { None };
                let dirty_now = env.candidate_pairs(&self.errors);
                if let Some((col, err)) = recommender.fallback(&dirty_now) {
                    if let Some(buffered) = recommender.buffer_take(col, err) {
                        env.restore(&buffered)?;
                        let f1 = env.evaluate()?;
                        current_f1 = f1;
                        recommender.record_post_clean_f1(col, err, f1);
                        trace.records.push(StepRecord {
                            iteration,
                            col,
                            err,
                            action: StepAction::Fallback,
                            cost: 0.0,
                            budget_spent: budget.spent(),
                            predicted_f1: None,
                            raw_predicted_f1: None,
                            actual_f1: f1,
                            cleaned_cells: 0,
                        });
                        trace.f1_curve.push((budget.spent(), f1));
                        progressed = true;
                    } else {
                        let done = steps_done.get(&(col, err)).copied().unwrap_or(0);
                        let cost = self.config.costs.next_cost(err, done);
                        if budget.can_afford(cost) {
                            let (ctr, cte) = env.clean_step(col, err, &[], &[], rng)?;
                            if ctr + cte > 0 {
                                budget.try_spend(cost);
                                *steps_done.entry((col, err)).or_default() += 1;
                                let f1 = env.evaluate()?;
                                current_f1 = f1;
                                recommender.record_post_clean_f1(col, err, f1);
                                trace.records.push(StepRecord {
                                    iteration,
                                    col,
                                    err,
                                    action: StepAction::Fallback,
                                    cost,
                                    budget_spent: budget.spent(),
                                    predicted_f1: None,
                                    raw_predicted_f1: None,
                                    actual_f1: f1,
                                    cleaned_cells: ctr + cte,
                                });
                                trace.f1_curve.push((budget.spent(), f1));
                                progressed = true;
                            }
                        }
                    }
                }
                if let Some(t) = fallback_started {
                    // comet-lint: allow(D9) — metrics accumulator for fallback timing; report-only
                    fallback_nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            }

            // Spill-tier health check at the iteration boundary: a failed
            // segment write or reload mid-iteration degraded the affected
            // cells to missing (libraries never panic on I/O), which would
            // silently corrupt every later decision. Surface the sticky
            // error and fail the session loudly instead.
            if comet_frame::spill_is_configured() {
                if let Some(cause) = comet_frame::spill_take_error() {
                    return Err(CometError::Invalid(format!(
                        "segment spill tier failed during iteration {iteration}: {cause}"
                    )));
                }
                comet_frame::spill_publish_resident_gauge();
            }

            if let Some(rm) = run_metrics.as_mut() {
                let phases = PhaseNanos {
                    pollute: pollute_nanos.into_inner(),
                    estimate: estimate_nanos.into_inner(),
                    rank: rank_nanos.into_inner(),
                    clean_step: clean_step_nanos.into_inner(),
                    evaluate: evaluate_nanos.into_inner(),
                    fallback: fallback_nanos.into_inner(),
                };
                comet_obs::counter_add("session.iterations", 1);
                comet_obs::observe_duration(
                    "session.phase.pollute",
                    Duration::from_nanos(phases.pollute),
                );
                comet_obs::observe_duration(
                    "session.phase.estimate",
                    Duration::from_nanos(phases.estimate),
                );
                comet_obs::observe_duration(
                    "session.phase.rank",
                    Duration::from_nanos(phases.rank),
                );
                comet_obs::observe_duration(
                    "session.phase.clean_step",
                    Duration::from_nanos(phases.clean_step),
                );
                comet_obs::observe_duration(
                    "session.phase.evaluate",
                    Duration::from_nanos(phases.evaluate),
                );
                comet_obs::observe_duration(
                    "session.phase.fallback",
                    Duration::from_nanos(phases.fallback),
                );
                let cache_now = env.cache_stats();
                let it = IterationMetrics {
                    iteration,
                    candidates,
                    records: trace.records.len() - records_before,
                    cache_hits: cache_now.hits - cache_before.hits,
                    cache_misses: cache_now.misses - cache_before.misses,
                    budget_spent: budget.spent(),
                    f1: current_f1,
                    failures: failures_this_iteration,
                    phases,
                };
                if comet_obs::journal::has_sink() {
                    comet_obs::journal::emit(&it.to_json_line());
                }
                rm.iterations.push(it);
            }

            // Checkpoint the completed iteration; on resume, first verify
            // the replay reproduced the stored run exactly.
            if writer.is_some() {
                let record = IterationCheckpoint {
                    iteration,
                    budget_spent: budget.spent(),
                    rng_draws: rng.draws(),
                    records: trace.records.len(),
                    trace_fp: checkpoint::trace_fingerprint(&trace),
                };
                if let Some(stored) = resume_data.as_ref().and_then(|d| d.iterations.get(iteration))
                {
                    if *stored != record {
                        return Err(CometError::Checkpoint(format!(
                            "resume diverged at iteration {iteration}: \
                             checkpoint {stored:?}, replay {record:?}"
                        )));
                    }
                }
                if let Some(w) = writer.as_mut() {
                    // Checkpoint I/O faults are often transient (full disk
                    // freed, volume reattached); retry in place. Retries
                    // consume no randomness, so a recovered write leaves
                    // the trace bit-identical to an undisturbed run.
                    let entries = env.export_cache_entries();
                    let mut attempt = 0usize;
                    loop {
                        match w.write_iteration(&record, &entries) {
                            Ok(()) => break,
                            Err(e) => {
                                comet_obs::counter_add("fault.checkpoint_write_errors", 1);
                                if attempt >= self.config.max_retries {
                                    return Err(e);
                                }
                                attempt += 1;
                                comet_obs::counter_add("fault.checkpoint_write_retries", 1);
                            }
                        }
                    }
                }
            }

            // Publish best-so-far progress for status polls and result
            // streams. Reading `control` never feeds back into the trace.
            if let Some(control) = &self.control {
                control.publish(SessionProgress {
                    iterations: iteration + 1,
                    initial_f1: trace.initial_f1,
                    best_f1: current_f1,
                    budget_spent: budget.spent(),
                    steps: trace.records.clone(),
                });
            }

            if !progressed {
                break;
            }
        }

        trace.final_f1 = current_f1;
        let metrics = run_metrics.map(|mut rm| {
            rm.initial_f1 = trace.initial_f1;
            rm.final_f1 = trace.final_f1;
            rm.budget_spent = budget.spent();
            rm.registry = comet_obs::snapshot();
            rm
        });
        Ok(SessionOutcome { trace, metrics, stop: stopped })
    }

    /// True while an exhausted budget still leaves a zero-cost productive
    /// action on the table: a buffered cleaned state waiting to re-apply,
    /// or a dirty pair whose next step is free under the cost policy
    /// (`OneShot { rest: 0.0 }` follow-ups in `CostPolicy::paper_multi`).
    fn free_action_available(
        &self,
        env: &CleaningEnvironment,
        recommender: &Recommender,
        steps_done: &BTreeMap<(usize, ErrorType), usize>,
    ) -> bool {
        if recommender.buffer_len() > 0 {
            return true;
        }
        env.candidate_pairs(&self.errors).into_iter().any(|(col, err)| {
            let done = steps_done.get(&(col, err)).copied().unwrap_or(0);
            self.config.costs.next_cost(err, done) == 0.0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_frame::{train_test_split, SplitOptions};
    use comet_jenga::{GroundTruth, PrePollutionPlan, Provenance, Scenario};
    use comet_ml::{Algorithm, Metric, RandomSearch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_env(
        seed: u64,
        rows: usize,
        levels: Vec<(usize, f64)>,
        algorithm: Algorithm,
    ) -> CleaningEnvironment {
        let mut rng = StdRng::seed_from_u64(seed);
        let df = comet_datasets::Dataset::Eeg.generate(Some(rows), &mut rng);
        let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
        let gt_train = GroundTruth::new(tt.train.clone());
        let gt_test = GroundTruth::new(tt.test.clone());
        let mut train = tt.train;
        let mut test = tt.test;
        let mut prov_train = Provenance::for_frame(&train);
        let mut prov_test = Provenance::for_frame(&test);
        let plan =
            PrePollutionPlan::explicit(Scenario::SingleError(ErrorType::MissingValues), levels);
        plan.apply(&mut train, 0.01, &mut prov_train, &mut rng).unwrap();
        plan.apply(&mut test, 0.01, &mut prov_test, &mut rng).unwrap();
        CleaningEnvironment::new(
            train,
            test,
            gt_train,
            gt_test,
            prov_train,
            prov_test,
            algorithm,
            Metric::F1,
            0.02,
            RandomSearch { n_samples: 1, ..RandomSearch::default() },
            11,
            &mut rng,
        )
        .unwrap()
    }

    fn quick_config(budget: f64) -> CometConfig {
        CometConfig {
            budget,
            n_combinations: 1,
            search: RandomSearch { n_samples: 1, ..RandomSearch::default() },
            ..CometConfig::default()
        }
    }

    #[test]
    fn session_runs_and_respects_budget() {
        let mut env = build_env(1, 240, vec![(0, 0.3), (1, 0.2)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(6.0), vec![ErrorType::MissingValues]);
        let mut rng = StdRng::seed_from_u64(0);
        let outcome = session.run(&mut env, &mut rng).unwrap();
        let trace = &outcome.trace;
        assert!(trace.total_spent() <= 6.0 + 1e-9);
        assert!(!trace.records.is_empty());
        // Budget spent is non-decreasing across records.
        let mut prev = 0.0;
        for r in &trace.records {
            assert!(r.budget_spent >= prev - 1e-12);
            prev = r.budget_spent;
        }
        assert!((0.0..=1.0).contains(&trace.final_f1));
        assert!(!trace.iteration_runtimes.is_empty());
    }

    #[test]
    fn ample_budget_fully_cleans() {
        let mut env = build_env(2, 200, vec![(0, 0.25)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(1_000.0), vec![ErrorType::MissingValues]);
        let mut rng = StdRng::seed_from_u64(1);
        session.run(&mut env, &mut rng).unwrap();
        // With an effectively unlimited budget the fallback keeps cleaning
        // until no candidate pair remains (the dataset is marked clean).
        assert!(env.candidate_pairs(&[ErrorType::MissingValues]).is_empty());
        assert!(env.is_fully_clean().unwrap());
    }

    #[test]
    fn cleaning_improves_f1_on_average() {
        // Across a few seeds, COMET cleaning should help on heavily polluted
        // data. Individual runs may dip slightly (Figure 7 in the paper shows
        // exactly such fluctuations); the mean must improve.
        let mut total = 0.0;
        let mut worst = f64::INFINITY;
        for seed in 0..3 {
            // Pollute every feature: cleaning must then matter regardless of
            // which features carry the planted signal.
            let levels: Vec<(usize, f64)> = (0..14).map(|c| (c, 0.35)).collect();
            let mut env = build_env(seed, 300, levels, Algorithm::Knn);
            let session = CleaningSession::new(quick_config(30.0), vec![ErrorType::MissingValues]);
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = session.run(&mut env, &mut rng).unwrap();
            let delta = outcome.trace.final_f1 - outcome.trace.initial_f1;
            total += delta;
            worst = worst.min(delta);
        }
        assert!(total > 0.0, "mean improvement {total}");
        assert!(worst > -0.05, "worst-case regression {worst} too large");
    }

    #[test]
    fn trace_actions_are_consistent() {
        let mut env = build_env(3, 240, vec![(0, 0.3), (5, 0.3)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(15.0), vec![ErrorType::MissingValues]);
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = session.run(&mut env, &mut rng).unwrap();
        for r in &outcome.trace.records {
            match r.action {
                StepAction::Accepted => {
                    assert!(r.predicted_f1.is_some());
                    assert!(r.cleaned_cells > 0);
                }
                StepAction::Reverted => {
                    assert!(r.cleaned_cells > 0);
                }
                StepAction::BufferApplied => {
                    assert_eq!(r.cost, 0.0);
                }
                StepAction::Fallback => {}
            }
        }
        // The curve is keyed by non-decreasing budget.
        let mut prev = 0.0;
        for &(b, f1) in &outcome.trace.f1_curve {
            assert!(b >= prev - 1e-12);
            assert!((0.0..=1.0).contains(&f1));
            prev = b;
        }
    }

    #[test]
    fn ablations_run() {
        for (unc, bias, revert, fallback) in
            [(false, true, true, true), (true, false, true, true), (true, true, false, false)]
        {
            let mut env = build_env(4, 200, vec![(0, 0.3)], Algorithm::Knn);
            let config = CometConfig {
                use_uncertainty: unc,
                bias_correction: bias,
                revert_on_decrease: revert,
                fallback,
                ..quick_config(8.0)
            };
            let session = CleaningSession::new(config, vec![ErrorType::MissingValues]);
            let mut rng = StdRng::seed_from_u64(3);
            let outcome = session.run(&mut env, &mut rng).unwrap();
            assert!(outcome.trace.total_spent() <= 8.0 + 1e-9);
            if !revert {
                assert_eq!(outcome.trace.count_action(StepAction::Reverted), 0);
            }
        }
    }

    #[test]
    fn multi_error_scenario_runs_with_paper_costs() {
        let mut rng = StdRng::seed_from_u64(7);
        let df = comet_datasets::Dataset::Cmc.generate(Some(240), &mut rng);
        let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
        let gt_train = GroundTruth::new(tt.train.clone());
        let gt_test = GroundTruth::new(tt.test.clone());
        let mut train = tt.train;
        let mut test = tt.test;
        let mut prov_train = Provenance::for_frame(&train);
        let mut prov_test = Provenance::for_frame(&test);
        let plan =
            PrePollutionPlan::sample(&train, Scenario::MultiError, 0.15, 0.4, &mut rng).unwrap();
        plan.apply(&mut train, 0.01, &mut prov_train, &mut rng).unwrap();
        plan.apply(&mut test, 0.01, &mut prov_test, &mut rng).unwrap();
        let mut env = CleaningEnvironment::new(
            train,
            test,
            gt_train,
            gt_test,
            prov_train,
            prov_test,
            Algorithm::Knn,
            Metric::F1,
            0.02,
            RandomSearch { n_samples: 1, ..RandomSearch::default() },
            5,
            &mut rng,
        )
        .unwrap();
        let config = CometConfig {
            costs: crate::cost::CostPolicy::paper_multi(),
            budget: 10.0,
            n_combinations: 1,
            ..CometConfig::default()
        };
        let session = CleaningSession::new(config, ErrorType::ALL.to_vec());
        let outcome = session.run(&mut env, &mut rng).unwrap();
        assert!(outcome.trace.total_spent() <= 10.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one candidate error type")]
    fn empty_error_set_rejected() {
        CleaningSession::new(CometConfig::default(), vec![]);
    }

    fn build_env_with_step(
        seed: u64,
        rows: usize,
        levels: Vec<(usize, f64)>,
        algorithm: Algorithm,
        step_frac: f64,
    ) -> CleaningEnvironment {
        let mut rng = StdRng::seed_from_u64(seed);
        let df = comet_datasets::Dataset::Eeg.generate(Some(rows), &mut rng);
        let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
        let gt_train = GroundTruth::new(tt.train.clone());
        let gt_test = GroundTruth::new(tt.test.clone());
        let mut train = tt.train;
        let mut test = tt.test;
        let mut prov_train = Provenance::for_frame(&train);
        let mut prov_test = Provenance::for_frame(&test);
        let plan =
            PrePollutionPlan::explicit(Scenario::SingleError(ErrorType::MissingValues), levels);
        plan.apply(&mut train, 0.01, &mut prov_train, &mut rng).unwrap();
        plan.apply(&mut test, 0.01, &mut prov_test, &mut rng).unwrap();
        CleaningEnvironment::new(
            train,
            test,
            gt_train,
            gt_test,
            prov_train,
            prov_test,
            algorithm,
            Metric::F1,
            step_frac,
            RandomSearch { n_samples: 1, ..RandomSearch::default() },
            11,
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn batched_recommendations_clean_multiple_features_per_iteration() {
        // Heavy pollution + large cleaning steps so several candidates have
        // clearly positive predicted gains at once.
        let levels: Vec<(usize, f64)> = (0..14).map(|c| (c, 0.5)).collect();
        let mut env = build_env_with_step(21, 300, levels, Algorithm::Knn, 0.08);
        let config = CometConfig { batch_size: 3, ..quick_config(12.0) };
        let session = CleaningSession::new(config, vec![ErrorType::MissingValues]);
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = session.run(&mut env, &mut rng).unwrap();
        let trace = &outcome.trace;
        assert!(trace.total_spent() <= 12.0 + 1e-9);
        // At least one iteration should have produced several records with
        // the same iteration index and identical post-batch F1.
        let mut by_iteration: std::collections::HashMap<usize, Vec<&StepRecord>> =
            std::collections::HashMap::new();
        for r in &trace.records {
            by_iteration.entry(r.iteration).or_default().push(r);
        }
        let batched = by_iteration
            .values()
            .any(|rs| rs.len() > 1 && rs.iter().all(|r| r.actual_f1 == rs[0].actual_f1));
        assert!(batched, "expected at least one multi-feature batch");
    }

    #[test]
    fn batch_size_zero_rejected() {
        let config = CometConfig { batch_size: 0, ..CometConfig::default() };
        assert!(config.validate().is_err());
    }

    /// The batch accounting invariant: the budget actually spent must equal
    /// the summed cost of the records that cleaned at least one cell.
    fn assert_budget_matches_cleaning_records(trace: &CleaningTrace) {
        let cleaned_cost: f64 =
            trace.records.iter().filter(|r| r.cleaned_cells > 0).map(|r| r.cost).sum();
        assert!(
            (trace.total_spent() - cleaned_cost).abs() < 1e-9,
            "spent {} != {} = sum of costs over cleaning records",
            trace.total_spent(),
            cleaned_cost,
        );
        for r in &trace.records {
            if r.cleaned_cells == 0 {
                assert_eq!(r.cost, 0.0, "zero-cell record must not carry a cost: {r:?}");
            }
        }
    }

    #[test]
    fn batch_budget_equals_cost_of_cleaning_records() {
        let levels: Vec<(usize, f64)> = (0..14).map(|c| (c, 0.5)).collect();
        let mut env = build_env_with_step(21, 300, levels, Algorithm::Knn, 0.08);
        let config = CometConfig { batch_size: 3, ..quick_config(12.0) };
        let session = CleaningSession::new(config, vec![ErrorType::MissingValues]);
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = session.run(&mut env, &mut rng).unwrap();
        assert!(!outcome.trace.records.is_empty());
        assert_budget_matches_cleaning_records(&outcome.trace);
    }

    #[test]
    fn batch_member_cleaning_zero_cells_is_not_charged() {
        // Unit-level proof of the zero-cell rule the batch path now shares
        // with the step-by-step path: cleaning an already-clean pair does
        // no work, so it must report zero cells (and hence never be
        // charged by the session).
        let mut env = build_env(4, 200, vec![(0, 0.3)], Algorithm::Knn);
        let mut rng = StdRng::seed_from_u64(0);
        let mut guard = 0;
        while env.pair_dirty(0, ErrorType::MissingValues) {
            env.clean_step(0, ErrorType::MissingValues, &[], &[], &mut rng).unwrap();
            guard += 1;
            assert!(guard < 500, "cleaning must terminate");
        }
        let (ctr, cte) = env.clean_step(0, ErrorType::MissingValues, &[], &[], &mut rng).unwrap();
        assert_eq!((ctr, cte), (0, 0));
    }

    #[test]
    fn multi_error_batch_with_shared_column_keeps_budget_invariant() {
        // The same column dirty under two error types: batch mode may
        // select both pairs in one batch (snapshot/buffer interaction) and
        // the accounting invariant must survive it, under the paper's
        // multi-error cost policy.
        let mut rng = StdRng::seed_from_u64(19);
        let df = comet_datasets::Dataset::Eeg.generate(Some(300), &mut rng);
        let tt = train_test_split(&df, SplitOptions::default(), &mut rng).unwrap();
        let gt_train = GroundTruth::new(tt.train.clone());
        let gt_test = GroundTruth::new(tt.test.clone());
        let mut train = tt.train;
        let mut test = tt.test;
        let mut prov_train = Provenance::for_frame(&train);
        let mut prov_test = Provenance::for_frame(&test);
        for (scenario, levels) in [
            (Scenario::SingleError(ErrorType::MissingValues), vec![(0, 0.3), (1, 0.25)]),
            (Scenario::SingleError(ErrorType::GaussianNoise), vec![(0, 0.25), (2, 0.2)]),
        ] {
            let plan = PrePollutionPlan::explicit(scenario, levels);
            plan.apply(&mut train, 0.01, &mut prov_train, &mut rng).unwrap();
            plan.apply(&mut test, 0.01, &mut prov_test, &mut rng).unwrap();
        }
        let mut env = CleaningEnvironment::new(
            train,
            test,
            gt_train,
            gt_test,
            prov_train,
            prov_test,
            Algorithm::Knn,
            Metric::F1,
            0.05,
            RandomSearch { n_samples: 1, ..RandomSearch::default() },
            5,
            &mut rng,
        )
        .unwrap();
        // Column 0 must really carry both error types.
        assert!(env.pair_dirty(0, ErrorType::MissingValues));
        assert!(env.pair_dirty(0, ErrorType::GaussianNoise));
        let config = CometConfig {
            costs: crate::cost::CostPolicy::paper_multi(),
            batch_size: 3,
            ..quick_config(10.0)
        };
        let session = CleaningSession::new(config, ErrorType::ALL.to_vec());
        let outcome = session.run(&mut env, &mut rng).unwrap();
        assert!(outcome.trace.total_spent() <= 10.0 + 1e-9);
        assert!(!outcome.trace.records.is_empty());
        assert_budget_matches_cleaning_records(&outcome.trace);
    }

    #[test]
    fn free_steps_continue_after_budget_exhaustion() {
        // paper-multi missing values cost 2 for the first step and 0 after:
        // with a budget of exactly 2, the first step exhausts the budget but
        // every follow-up is free, so the session must keep cleaning until
        // the column is spotless instead of stopping after one step.
        let mut env = build_env(2, 200, vec![(0, 0.25)], Algorithm::Knn);
        let config = CometConfig {
            costs: crate::cost::CostPolicy::new(
                crate::cost::CostModel::OneShot { first: 2.0, rest: 0.0 },
                crate::cost::CostModel::Linear { initial: 1.0, increment: 1.0 },
                crate::cost::CostModel::Constant(1.0),
                crate::cost::CostModel::Constant(1.0),
            ),
            ..quick_config(2.0)
        };
        let session = CleaningSession::new(config, vec![ErrorType::MissingValues]);
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = session.run(&mut env, &mut rng).unwrap();
        let trace = &outcome.trace;
        assert!(trace.total_spent() <= 2.0 + 1e-9);
        let free_after_exhaustion =
            trace.records.iter().filter(|r| r.cost == 0.0 && r.budget_spent >= 2.0 - 1e-9).count();
        assert!(
            free_after_exhaustion > 0,
            "free follow-up steps must run after the budget is spent: {:?}",
            trace.records,
        );
        assert!(env.is_fully_clean().unwrap(), "free steps should finish the column");
        assert_budget_matches_cleaning_records(trace);
    }

    #[test]
    fn parallel_trace_bit_identical_to_sequential() {
        // The determinism contract of the parallel engine: one thread and
        // four threads must produce content-identical traces from the same
        // seed. Candidate rng streams derive from the session seed, and
        // par_map returns results in input order, so nothing the session
        // records may depend on scheduling.
        let env0 = build_env(31, 240, vec![(0, 0.3), (1, 0.25), (2, 0.2)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(10.0), vec![ErrorType::MissingValues]);
        let run_with = |threads: usize| {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let mut rng = StdRng::seed_from_u64(77);
            comet_par::with_threads(threads, || session.run(&mut env, &mut rng).unwrap())
        };
        let sequential = run_with(1);
        let parallel = run_with(4);
        assert!(
            sequential.trace.content_eq(&parallel.trace),
            "threads must not change the trace:\nseq: {:?}\npar: {:?}",
            sequential.trace.records,
            parallel.trace.records,
        );
        assert!(!sequential.trace.records.is_empty(), "trivial traces prove nothing");
    }

    /// The `comet_obs` enable flag is process-global; tests that flip it
    /// serialize here so concurrent test threads cannot observe each
    /// other's windows.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn metrics_enabled_does_not_change_the_trace() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let env0 = build_env(31, 240, vec![(0, 0.3), (1, 0.25)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(8.0), vec![ErrorType::MissingValues]);
        let run = |env0: &CleaningEnvironment| {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let mut rng = StdRng::seed_from_u64(77);
            session.run(&mut env, &mut rng).unwrap()
        };

        comet_obs::set_enabled(false);
        let bare = run(&env0);
        assert!(bare.metrics.is_none(), "bare runs collect nothing");

        comet_obs::set_enabled(true);
        comet_obs::reset();
        let instrumented = run(&env0);
        comet_obs::set_enabled(false);

        assert!(
            bare.trace.content_eq(&instrumented.trace),
            "metrics may only observe, never change the trace",
        );
        let metrics = instrumented.metrics.expect("instrumented runs collect metrics");
        assert_eq!(metrics.iterations.len(), instrumented.trace.iteration_runtimes.len());
        assert!(metrics.phase_totals().total() > 0, "phases must register time");
        let (hits, misses) = metrics.cache_totals();
        assert!(hits + misses > 0, "evaluations must hit the cache counters");
        assert!(metrics.registry.counter("session.iterations") > 0);
        assert!(metrics.registry.counter("eval_cache.misses") > 0);
        assert_eq!(metrics.initial_f1, instrumented.trace.initial_f1);
        assert_eq!(metrics.final_f1, instrumented.trace.final_f1);
    }

    #[test]
    fn parallel_trace_bit_identical_with_metrics_enabled() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        comet_obs::set_enabled(true);
        comet_obs::reset();
        let env0 = build_env(31, 240, vec![(0, 0.3), (1, 0.25), (2, 0.2)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(10.0), vec![ErrorType::MissingValues]);
        let run_with = |threads: usize| {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let mut rng = StdRng::seed_from_u64(77);
            comet_par::with_threads(threads, || session.run(&mut env, &mut rng).unwrap())
        };
        let sequential = run_with(1);
        let parallel = run_with(4);
        comet_obs::set_enabled(false);
        assert!(
            sequential.trace.content_eq(&parallel.trace),
            "metrics-enabled runs must stay thread-count independent",
        );
        assert!(!sequential.trace.records.is_empty(), "trivial traces prove nothing");
        assert!(sequential.metrics.is_some() && parallel.metrics.is_some());
    }

    use crate::faults::{FaultKind, FaultSpec};

    /// Three permanent faults (panic, NaN loss, estimator error) plus one
    /// transient panic that recovers on retry — the fault-injection suite's
    /// standard plan over `build_env` column coordinates.
    fn standard_fault_plan() -> FaultPlan {
        let mv = ErrorType::MissingValues;
        FaultPlan::new(vec![
            FaultSpec {
                iteration: 0,
                col: 0,
                err: mv,
                kind: FaultKind::TrainingPanic,
                attempts: u32::MAX,
            },
            FaultSpec {
                iteration: 0,
                col: 1,
                err: mv,
                kind: FaultKind::NanLoss,
                attempts: u32::MAX,
            },
            FaultSpec {
                iteration: 0,
                col: 2,
                err: mv,
                kind: FaultKind::EstimatorFailure,
                attempts: u32::MAX,
            },
            FaultSpec {
                iteration: 1,
                col: 0,
                err: mv,
                kind: FaultKind::TrainingPanic,
                attempts: 1,
            },
        ])
    }

    #[test]
    fn session_survives_injected_faults_with_budget_invariant() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        comet_obs::set_enabled(true);
        comet_obs::reset();
        let mut env = build_env(31, 240, vec![(0, 0.3), (1, 0.25), (2, 0.2)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(10.0), vec![ErrorType::MissingValues])
            .with_faults(standard_fault_plan());
        let mut rng = StdRng::seed_from_u64(77);
        let outcome = session.run(&mut env, &mut rng).unwrap();
        comet_obs::set_enabled(false);
        let trace = &outcome.trace;

        // The session completed despite three permanently failing
        // candidates, and the accounting invariant held throughout.
        assert!(!trace.records.is_empty(), "session must keep cleaning around failures");
        assert_budget_matches_cleaning_records(trace);

        // All three iteration-0 failures are on record with their reasons.
        let it0: Vec<&crate::trace::FailureRecord> =
            trace.failures.iter().filter(|f| f.iteration == 0).collect();
        assert_eq!(it0.len(), 3, "failures: {:?}", trace.failures);
        let reason_of = |col: usize| &it0.iter().find(|f| f.col == col).unwrap().reason;
        assert!(reason_of(0).contains("panic"), "{:?}", reason_of(0));
        assert!(reason_of(1).contains("non-finite"), "{:?}", reason_of(1));
        assert!(reason_of(2).contains("estimator failure"), "{:?}", reason_of(2));
        for f in &it0 {
            assert_eq!(f.retries, 1, "default max_retries spends one retry: {f:?}");
        }
        // The transient iteration-1 panic recovered and left no failure.
        assert!(trace.failures.iter().all(|f| f.iteration == 0), "{:?}", trace.failures);

        // fault.* counters saw it all.
        let metrics = outcome.metrics.expect("obs enabled");
        assert!(metrics.registry.counter("fault.injected") >= 7, "3 permanent × 2 + transient");
        assert_eq!(metrics.registry.counter("fault.candidate_failures"), 3);
        assert!(metrics.registry.counter("fault.retries") >= 4);
        assert!(metrics.registry.counter("fault.recovered") >= 1);
        let with_failures: usize = metrics.iterations.iter().map(|i| i.failures).sum();
        assert_eq!(with_failures, 3);
    }

    #[test]
    fn faulted_trace_is_thread_count_invariant() {
        let env0 = build_env(31, 240, vec![(0, 0.3), (1, 0.25), (2, 0.2)], Algorithm::Knn);
        let run_with = |threads: usize| {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let session = CleaningSession::new(quick_config(10.0), vec![ErrorType::MissingValues])
                .with_faults(standard_fault_plan());
            let mut rng = StdRng::seed_from_u64(77);
            comet_par::with_threads(threads, || session.run(&mut env, &mut rng).unwrap())
        };
        let sequential = run_with(1);
        let parallel = run_with(4);
        assert!(
            sequential.trace.content_eq(&parallel.trace),
            "fault handling must not depend on scheduling:\nseq: {:?}\npar: {:?}",
            sequential.trace.failures,
            parallel.trace.failures,
        );
        assert!(!sequential.trace.failures.is_empty());
        assert!(!sequential.trace.records.is_empty());
    }

    #[test]
    fn zero_retries_fails_transient_faults_immediately() {
        let mut env = build_env(31, 240, vec![(0, 0.3), (1, 0.25)], Algorithm::Knn);
        let plan = FaultPlan::new(vec![FaultSpec {
            iteration: 0,
            col: 0,
            err: ErrorType::MissingValues,
            kind: FaultKind::TrainingPanic,
            attempts: 1, // would recover on retry — but none are allowed
        }]);
        let config = CometConfig { max_retries: 0, ..quick_config(6.0) };
        let session =
            CleaningSession::new(config, vec![ErrorType::MissingValues]).with_faults(plan);
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = session.run(&mut env, &mut rng).unwrap();
        let failure = outcome
            .trace
            .failures
            .iter()
            .find(|f| f.iteration == 0 && f.col == 0)
            .expect("transient fault must fail out without retries");
        assert_eq!(failure.retries, 0);
    }

    fn ckpt_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("comet_session_ckpt_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn transient_checkpoint_write_fault_recovers_seed_identically() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        comet_obs::set_enabled(true);
        comet_obs::reset();
        let env0 = build_env(31, 240, vec![(0, 0.3), (1, 0.25)], Algorithm::Knn);
        let clean_path = ckpt_path("io_clean.jsonl");
        let faulted_path = ckpt_path("io_faulted.jsonl");
        let run = |path: &std::path::Path, faults: Option<FaultPlan>| {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let mut session =
                CleaningSession::new(quick_config(6.0), vec![ErrorType::MissingValues])
                    .with_checkpoint(CheckpointSpec { path: path.to_path_buf(), resume: false });
            if let Some(plan) = faults {
                session = session.with_faults(plan);
            }
            let mut rng = StdRng::seed_from_u64(11);
            session.run(&mut env, &mut rng).unwrap()
        };
        let undisturbed = run(&clean_path, None);
        let plan = FaultPlan::new(vec![FaultSpec {
            iteration: 0,
            col: 0, // ignored by checkpoint faults
            err: ErrorType::MissingValues,
            kind: FaultKind::CheckpointWriteError,
            attempts: 1, // transient: the first retry succeeds
        }]);
        let recovered = run(&faulted_path, Some(plan));
        let reg = comet_obs::snapshot();
        comet_obs::set_enabled(false);
        assert!(
            undisturbed.trace.content_eq(&recovered.trace),
            "a recovered checkpoint write must not perturb the trace",
        );
        assert_eq!(reg.counter("fault.checkpoint_write_errors"), 1);
        assert_eq!(reg.counter("fault.checkpoint_write_retries"), 1);
        // The retried file carries the same verification records — no cache
        // entry was dropped by the failed attempt.
        let a = crate::checkpoint::load(&clean_path).unwrap();
        let b = crate::checkpoint::load(&faulted_path).unwrap();
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.cache, b.cache);
        std::fs::remove_file(clean_path).ok();
        std::fs::remove_file(faulted_path).ok();
    }

    #[test]
    fn exhausted_checkpoint_write_retries_surface_a_typed_error() {
        let mut env = build_env(31, 240, vec![(0, 0.3)], Algorithm::Knn);
        let path = ckpt_path("io_permanent.jsonl");
        let plan = FaultPlan::new(vec![FaultSpec {
            iteration: 0,
            col: 0,
            err: ErrorType::MissingValues,
            kind: FaultKind::CheckpointWriteError,
            attempts: u32::MAX,
        }]);
        let session = CleaningSession::new(quick_config(6.0), vec![ErrorType::MissingValues])
            .with_checkpoint(CheckpointSpec { path: path.clone(), resume: false })
            .with_faults(plan);
        let mut rng = StdRng::seed_from_u64(11);
        let err = session.run(&mut env, &mut rng).unwrap_err();
        assert!(
            matches!(err, CometError::Checkpoint(ref m)
                if m.contains("injected checkpoint write failure")),
            "{err}",
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pre_cancelled_session_stops_gracefully_at_the_first_boundary() {
        let mut env = build_env(21, 300, vec![(0, 0.3)], Algorithm::Knn);
        let control = SessionControl::new();
        control.cancel();
        let session = CleaningSession::new(quick_config(8.0), vec![ErrorType::MissingValues])
            .with_control(control.clone());
        let mut rng = StdRng::seed_from_u64(7);
        let outcome = session.run(&mut env, &mut rng).unwrap();
        assert_eq!(outcome.stop, Some(StopReason::Cancelled));
        assert!(outcome.trace.records.is_empty(), "no iteration may run after the stop");
        let progress = control.progress();
        assert_eq!(progress.iterations, 0);
        assert_eq!(progress.best_f1, outcome.trace.initial_f1, "initial state still published");
    }

    #[test]
    fn attached_control_publishes_progress_and_leaves_the_trace_unchanged() {
        let env0 = build_env(21, 300, vec![(0, 0.3), (1, 0.25)], Algorithm::Knn);
        let run = |control: Option<SessionControl>| {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let mut session =
                CleaningSession::new(quick_config(8.0), vec![ErrorType::MissingValues]);
            if let Some(c) = control {
                session = session.with_control(c);
            }
            let mut rng = StdRng::seed_from_u64(7);
            session.run(&mut env, &mut rng).unwrap()
        };
        let bare = run(None);
        let control = SessionControl::new();
        let supervised = run(Some(control.clone()));
        assert_eq!(supervised.stop, None, "an unsignalled control never stops a session");
        assert!(
            bare.trace.content_eq(&supervised.trace),
            "attaching a control must not perturb the trace",
        );
        let progress = control.progress();
        assert!(progress.iterations >= 1);
        assert_eq!(progress.steps, supervised.trace.records);
        assert_eq!(progress.best_f1, supervised.trace.final_f1);
        assert_eq!(progress.initial_f1, supervised.trace.initial_f1);
    }

    #[test]
    fn kill_and_resume_is_bit_identical_across_thread_counts() {
        let env0 = build_env(32, 200, vec![(0, 0.3), (1, 0.2)], Algorithm::Knn);
        let full_path = ckpt_path("full.jsonl");
        let cut_path = ckpt_path("cut.jsonl");

        // Uninterrupted run, checkpointing as it goes.
        let full = {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let session = CleaningSession::new(quick_config(8.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: full_path.clone(), resume: false });
            let mut rng = StdRng::seed_from_u64(5);
            comet_par::with_threads(1, || session.run(&mut env, &mut rng).unwrap())
        };
        assert!(full.trace.records.len() > 1, "need a multi-step run to cut in half");

        // Simulate a kill partway through: keep the header, the first
        // iteration record, and a truncated half-written line.
        let text = std::fs::read_to_string(&full_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 2, "checkpoint must span several iterations: {text}");
        let mut cut = lines[..2].join("\n");
        cut.push_str("\n{\"kind\":\"checkpoint_itera");
        std::fs::write(&cut_path, &cut).unwrap();

        // Resume from the cut file at a different thread count.
        let resumed = {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let session = CleaningSession::new(quick_config(8.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: cut_path.clone(), resume: true });
            let mut rng = StdRng::seed_from_u64(5);
            let outcome = comet_par::with_threads(4, || session.run(&mut env, &mut rng).unwrap());
            assert!(env.cache_stats().hits > 0, "resume must replay from the preloaded cache");
            outcome
        };
        assert!(
            full.trace.content_eq(&resumed.trace),
            "resumed trace must be bit-identical:\nfull: {:?}\nresumed: {:?}",
            full.trace.records,
            resumed.trace.records,
        );

        // The rewritten checkpoint equals the uninterrupted one, byte for
        // byte, minus cache-entry bookkeeping order: compare the loaded
        // verification records instead of raw bytes.
        let a = crate::checkpoint::load(&full_path).unwrap();
        let b = crate::checkpoint::load(&cut_path).unwrap();
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.session_seed, b.session_seed);
        std::fs::remove_file(full_path).ok();
        std::fs::remove_file(cut_path).ok();
    }

    #[test]
    fn resume_rejects_mismatched_seed_and_config() {
        let env0 = build_env(32, 200, vec![(0, 0.3)], Algorithm::Knn);
        let path = ckpt_path("mismatch.jsonl");
        {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let session = CleaningSession::new(quick_config(4.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: path.clone(), resume: false });
            let mut rng = StdRng::seed_from_u64(5);
            session.run(&mut env, &mut rng).unwrap();
        }

        // Wrong rng seed → different session seed → refuse to resume.
        let mut env = env0.clone();
        env.clear_eval_cache();
        let session = CleaningSession::new(quick_config(4.0), vec![ErrorType::MissingValues])
            .with_checkpoint(CheckpointSpec { path: path.clone(), resume: true });
        let mut rng = StdRng::seed_from_u64(6);
        let err = session.run(&mut env, &mut rng).unwrap_err();
        assert!(matches!(err, CometError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("session seed"), "{err}");

        // Wrong config → refuse to resume.
        let mut env = env0.clone();
        env.clear_eval_cache();
        let session = CleaningSession::new(quick_config(5.0), vec![ErrorType::MissingValues])
            .with_checkpoint(CheckpointSpec { path: path.clone(), resume: true });
        let mut rng = StdRng::seed_from_u64(5);
        let err = session.run(&mut env, &mut rng).unwrap_err();
        assert!(err.to_string().contains("config"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn resume_refuses_version_1_checkpoints() {
        let env0 = build_env(32, 200, vec![(0, 0.3)], Algorithm::Knn);
        let path = ckpt_path("version1.jsonl");
        {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let session = CleaningSession::new(quick_config(4.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: path.clone(), resume: false });
            let mut rng = StdRng::seed_from_u64(5);
            session.run(&mut env, &mut rng).unwrap();
        }
        let resume = |path: &std::path::Path| {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let session = CleaningSession::new(quick_config(4.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: path.to_path_buf(), resume: true });
            let mut rng = StdRng::seed_from_u64(5);
            session.run(&mut env, &mut rng).map(|_| ())
        };

        // Rewrite the header into the version-1 layout the 4-lane builds
        // wrote: its cached scores came from a reduction order this build
        // no longer has, so resume must refuse before any replay work.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"version\":2,"), "header must record its version");
        // (The retired probe key is spelled in two pieces so a search for
        // retired identifiers finds only this history.)
        let v1_fields = concat!(
            "\"kernel_tier\":\"scalar\",\"lane_count\":4,\"f32",
            "_probes\":0,\"detect_fp\""
        );
        let v1 = text.replacen("\"version\":2,", "\"version\":1,", 1).replacen(
            "\"detect_fp\"",
            v1_fields,
            1,
        );
        std::fs::write(&path, &v1).unwrap();
        let err = resume(&path).unwrap_err();
        assert!(matches!(err, CometError::Checkpoint(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("version 1") && msg.contains("version 2"), "{msg}");

        // The untampered header still resumes cleanly.
        std::fs::write(&path, &text).unwrap();
        resume(&path).unwrap();
        std::fs::remove_file(path).ok();
    }

    fn detect_config(budget: f64) -> CometConfig {
        CometConfig {
            detect: Some(comet_detect::DetectorConfig::default()),
            ..quick_config(budget)
        }
    }

    #[test]
    fn detection_seeded_session_cleans_without_the_oracle() {
        let mut env = build_env(41, 240, vec![(0, 0.3), (1, 0.2)], Algorithm::Knn);
        let session = CleaningSession::new(detect_config(1_000.0), vec![ErrorType::MissingValues]);
        let mut rng = StdRng::seed_from_u64(9);
        let before = env.total_dirty().unwrap();
        let outcome = session.run(&mut env, &mut rng).unwrap();
        assert!(!outcome.trace.records.is_empty());
        // With ample budget the detection-seeded session drains every pair
        // it can see; missing sentinels are fully detectable, so the frames
        // end up genuinely clean — no oracle was consulted to get there.
        assert!(env.total_dirty().unwrap() < before / 10, "dirt must mostly vanish");
        assert!(env.candidate_pairs(&[ErrorType::MissingValues]).is_empty());
    }

    #[test]
    fn detection_trace_bit_identical_across_thread_counts() {
        let env0 = build_env(42, 240, vec![(0, 0.3), (1, 0.25), (2, 0.2)], Algorithm::Knn);
        let session = CleaningSession::new(detect_config(10.0), vec![ErrorType::MissingValues]);
        let run_with = |threads: usize| {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let mut rng = StdRng::seed_from_u64(77);
            comet_par::with_threads(threads, || session.run(&mut env, &mut rng).unwrap())
        };
        let one = run_with(1);
        for threads in [2, 8] {
            let other = run_with(threads);
            assert!(
                one.trace.content_eq(&other.trace),
                "detection must not break thread-count determinism ({threads} threads):\
                 \n1: {:?}\n{threads}: {:?}",
                one.trace.records,
                other.trace.records,
            );
        }
        assert!(!one.trace.records.is_empty(), "trivial traces prove nothing");
    }

    #[test]
    fn detect_kill_and_resume_is_bit_identical() {
        let env0 = build_env(43, 200, vec![(0, 0.3), (1, 0.2)], Algorithm::Knn);
        let full_path = ckpt_path("detect_full.jsonl");
        let cut_path = ckpt_path("detect_cut.jsonl");
        let full = {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let session = CleaningSession::new(detect_config(8.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: full_path.clone(), resume: false });
            let mut rng = StdRng::seed_from_u64(5);
            session.run(&mut env, &mut rng).unwrap()
        };
        assert!(full.trace.records.len() > 1, "need a multi-step run to cut in half");

        let text = std::fs::read_to_string(&full_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 2, "checkpoint must span several iterations: {text}");
        let mut cut = lines[..2].join("\n");
        cut.push_str("\n{\"kind\":\"checkpoint_itera");
        std::fs::write(&cut_path, &cut).unwrap();

        let resumed = {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let session = CleaningSession::new(detect_config(8.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: cut_path.clone(), resume: true });
            let mut rng = StdRng::seed_from_u64(5);
            session.run(&mut env, &mut rng).unwrap()
        };
        assert!(
            full.trace.content_eq(&resumed.trace),
            "detect-mode resume must be bit-identical:\nfull: {:?}\nresumed: {:?}",
            full.trace.records,
            resumed.trace.records,
        );
        std::fs::remove_file(full_path).ok();
        std::fs::remove_file(cut_path).ok();
    }

    #[test]
    fn resume_rejects_changed_detector_config() {
        let env0 = build_env(43, 200, vec![(0, 0.3)], Algorithm::Knn);
        let path = ckpt_path("detect_mismatch.jsonl");
        {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let session = CleaningSession::new(detect_config(4.0), vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: path.clone(), resume: false });
            let mut rng = StdRng::seed_from_u64(5);
            session.run(&mut env, &mut rng).unwrap();
        }
        let resume = |config: CometConfig| {
            let mut env = env0.clone();
            env.clear_eval_cache();
            let session = CleaningSession::new(config, vec![ErrorType::MissingValues])
                .with_checkpoint(CheckpointSpec { path: path.clone(), resume: true });
            let mut rng = StdRng::seed_from_u64(5);
            session.run(&mut env, &mut rng).map(|_| ())
        };

        // A different detector threshold is a different session identity:
        // the candidate pairs it would offer are not the recorded ones.
        let loosened = CometConfig {
            detect: Some(comet_detect::DetectorConfig {
                z_threshold: 6.0,
                ..comet_detect::DetectorConfig::default()
            }),
            ..quick_config(4.0)
        };
        let err = resume(loosened).unwrap_err();
        assert!(matches!(err, CometError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("detect"), "{err}");

        // So is switching back to oracle mode entirely.
        let err = resume(quick_config(4.0)).unwrap_err();
        assert!(matches!(err, CometError::Invalid(_)), "{err}");

        // The unchanged detector configuration still resumes.
        resume(detect_config(4.0)).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn warm_cache_does_not_change_the_trace() {
        // Cached evaluations are bit-identical to recomputed ones, so a
        // session starting with a pre-warmed cache must produce the same
        // trace as one starting cold.
        let env0 = build_env(32, 200, vec![(0, 0.3), (1, 0.2)], Algorithm::Knn);
        let session = CleaningSession::new(quick_config(8.0), vec![ErrorType::MissingValues]);

        let mut cold_env = env0.clone();
        cold_env.clear_eval_cache();
        let mut rng = StdRng::seed_from_u64(5);
        let cold = session.run(&mut cold_env, &mut rng).unwrap();

        // Warm env0's cache (evaluate is &self; clones share the entries —
        // the cold run above already contributed to the same shared cache).
        env0.evaluate().unwrap();
        env0.fully_cleaned_f1().unwrap();
        let mut warm_env = env0.clone();
        let mut rng = StdRng::seed_from_u64(5);
        let warm = session.run(&mut warm_env, &mut rng).unwrap();

        assert!(warm_env.cache_stats().hits > 0, "warm run must actually hit the cache");
        assert!(cold.trace.content_eq(&warm.trace));
    }
}
