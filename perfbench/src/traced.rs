//! The traced run: per-layer numbers, measured from the outside by timing
//! calls into each layer's public functions.
//!
//! 1. Set-up, decomposed: `read_csv`, then the steps of
//!    `build_paired_env` with `CleaningEnvironment::new` (the one-time
//!    hyperparameter tune) timed on its own.
//! 2. Iteration 0 replayed against a cold evaluation cache: candidate
//!    pairs, polluted variants, the estimate, every `evaluate_frames` call,
//!    and each call re-executed as featurize → fit → predict → metric
//!    through comet-ml. The re-execution must reproduce the score bit for
//!    bit or the run aborts (the replay guard).
//! 3. Each detector alone, via `comet_detect::detect`.
//! 4. The session on fresh environments, untraced, with `comet_obs`
//!    recording on (`RunMetrics`), and with a checkpoint file, twice each.
//!    All traces must be identical.

use crate::session::{self, SessionInput};
use crate::spans::Spans;
use crate::workload::EVAL_SEED;
use crate::Flags;
use comet_bayes::{BayesianLinearRegression, BlrConfig};
use comet_core::{
    derive_provenance, CleaningEnvironment, Estimator, Polluter, RunMetrics, StepAction,
};
use comet_detect::{DetectorConfig, DetectorKind, DetectorSet};
use comet_frame::{train_test_split, DataFrame, SplitOptions, DEFAULT_SEGMENT_ROWS};
use comet_jenga::{ErrorType, GroundTruth};
use comet_ml::{FeatureCache, Featurizer, Metric, RandomSearch};
use comet_obs::json::JsonObject;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Per-candidate seed derivation of `CleaningSession::run` (session.rs),
/// repeated here so the replay pollutes exactly the cells iteration 0 of
/// the session pollutes.
fn candidate_seed(session_seed: u64, col: usize, err: ErrorType, iteration: usize) -> u64 {
    const M: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = session_seed;
    for w in [col as u64, err as u64, iteration as u64] {
        h = (h.rotate_left(5) ^ w).wrapping_mul(M);
    }
    h
}

pub fn cmd_trace(input: &SessionInput, flags: &Flags) -> Result<String, String> {
    let run_id = flags.get("run-id").cloned().unwrap_or_else(|| "trace".into());
    let mut spans = Spans::new(&run_id);
    let mut out = JsonObject::new();

    // --- 1. set-up, decomposed ---
    let setup = spans.open("setup", None);
    let (dirty, clean) = spans.time("frame.read_csv", Some(setup), || input.read_pair())?;
    let (mut env, mut rng) =
        build_env_decomposed(input, dirty.clone(), clean.clone(), &mut spans, setup)?;
    spans.close(setup);
    out.field_f64("frame.read_csv_s", spans.total("frame.read_csv"))
        .field_f64("env.new_s", spans.total("env.new"));

    // --- 2. iteration-0 replay ---
    let detect_call_s = replay_iteration0(input, &mut env, &mut rng, &mut spans)?;
    for name in [
        "env.candidate_pairs",
        "polluter.variants",
        "estimator.estimate",
        "env.evaluate_frames",
        "featurize.fit",
        "featurize.transform",
        "model.fit",
        "model.predict",
        "metric.eval",
        "bayes.fit",
    ] {
        out.field_f64(&format!("{name}_s"), spans.total(name));
    }

    // --- 3. detectors, one at a time ---
    let detectors = spans.open("detect", None);
    for kind in DetectorKind::ALL {
        let config =
            DetectorConfig { enabled: DetectorSet::none().with(kind), ..DetectorConfig::default() };
        let mut secs = Vec::new();
        for _ in 0..3 {
            let id = spans.open(kind.name(), Some(detectors));
            comet_detect::detect(env.train(), &config).map_err(|e| e.to_string())?;
            comet_detect::detect(env.test(), &config).map_err(|e| e.to_string())?;
            spans.close(id);
            secs.push(spans.seconds(id));
        }
        secs.sort_by(f64::total_cmp);
        out.field_f64(&format!("detect.{}_s", kind.name()), secs[1]);
    }
    spans.close(detectors);

    // --- 4. the session: untraced, recorded, checkpointed ---
    // Two rounds, the second in mirrored order, so a drift in the host's
    // speed lands on all three variants alike.
    let mut problems = Vec::new();
    let budget = input.config().budget;
    let ckpt = input.dir.join("trace-session.ckpt.jsonl");
    let mut walls = [Vec::new(), Vec::new(), Vec::new()];
    let mut trace_a = None;
    let mut recorded = None;
    let mut ckpt_bytes = 0;
    let names = ["session.untraced", "session.recorded", "session.checkpointed"];
    for order in [[0, 1, 2], [2, 1, 0]] {
        for variant in order {
            let name = names[variant];
            let (mut env_s, mut rng_s) = input.build_env(dirty.clone(), clean.clone())?;
            let checkpoint = (variant == 2).then(|| ckpt.clone());
            comet_obs::reset();
            comet_obs::set_enabled(variant == 1);
            let id = spans.open(name, None);
            let result = input.run(&mut env_s, &mut rng_s, checkpoint);
            spans.close(id);
            comet_obs::set_enabled(false);
            let (outcome, wall) = result?;
            walls[variant].push(wall);
            let text = session::trace_text(&outcome, &env_s);
            match &trace_a {
                None => {
                    problems.extend(session::check_outcome(&outcome, &env_s, budget));
                    trace_a = Some(text);
                }
                Some(first) if *first != text => {
                    problems.push(format!("{name} changed the trace"));
                }
                Some(_) => {}
            }
            if variant == 1 && recorded.is_none() {
                recorded = Some((outcome, env_s, wall));
            } else if variant == 2 {
                ckpt_bytes = std::fs::metadata(&ckpt).map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    let trace_a = trace_a.unwrap_or_default();
    let (outcome_b, env_b, wall_b) = recorded.ok_or("no recorded session")?;
    let metrics = outcome_b.metrics.clone().ok_or("recorded session returned no RunMetrics")?;
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let (wall_a, wall_r, wall_c) = (mean(&walls[0]), mean(&walls[1]), mean(&walls[2]));

    // Session layer, from the public RunMetrics of the recorded run.
    let phases = metrics.phase_totals();
    for (name, nanos) in phases.named() {
        out.field_f64(&format!("session.phase.{name}_s"), nanos as f64 / 1e9);
    }
    let iterations = outcome_b.trace.iteration_runtimes.len();
    let recommend_s: f64 = outcome_b.trace.iteration_runtimes.iter().map(|d| d.as_secs_f64()).sum();
    // Wall time the phases cover: the fan-out + ranking of each iteration
    // (iteration_runtimes) plus the sequential phases after it.
    let phase_wall =
        recommend_s + (phases.clean_step + phases.evaluate + phases.fallback) as f64 / 1e9;
    // Detection runs inside `candidate_pairs` at the top of an iteration,
    // outside every phase, and only when the frames changed since the last
    // call (reports are memoized by content): once for the initial state
    // and once after every iteration that kept a step.
    let detect_s = if input.workload.detect() {
        let kept = kept_iterations(&outcome_b.trace);
        (1 + kept) as f64 * detect_call_s
    } else {
        0.0
    };
    let threads = comet_par::max_threads() as f64;
    let fanout_wall = recommend_s - phases.rank as f64 / 1e9;
    let utilization = if fanout_wall > 0.0 {
        (phases.pollute + phases.estimate) as f64 / 1e9 / (fanout_wall * threads)
    } else {
        0.0
    };
    out.field_u64("session.iterations", iterations as u64)
        .field_f64("session.wall_s", wall_a)
        .field_f64("session.unattributed_s", wall_b - phase_wall)
        .field_f64("session.detect_s", detect_s)
        .field_f64("session.attributed_frac", (phase_wall + detect_s) / wall_b)
        .field_f64(
            "session.f1_gain_pt",
            100.0 * (outcome_b.trace.final_f1 - outcome_b.trace.initial_f1),
        )
        .field_f64("par.utilization", utilization)
        .field_f64("trace.overhead_frac", (wall_r - wall_a) / wall_a)
        .field_f64("checkpoint.overhead_s", wall_c - wall_a)
        .field_f64("checkpoint.bytes_per_iteration", ckpt_bytes as f64 / iterations.max(1) as f64);
    counts(&mut out, &env_b, &metrics);

    if let Some(path) = flags.get("trace-out") {
        std::fs::write(path, &trace_a).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = flags.get("spans-out") {
        std::fs::write(path, spans.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }
    out.field_raw("problems", &crate::json_strings(&problems))
        .field_raw("shares", &shares(&spans, wall_b, phase_wall, detect_s));
    Ok(out.finish())
}

/// `build_paired_env`, step by step, so `CleaningEnvironment::new` (the
/// one-time hyperparameter tune) gets a span of its own. It consumes the
/// session rng exactly as `build_paired_env` does, so the replay draws the
/// session seed iteration 0 of the real session draws.
fn build_env_decomposed(
    input: &SessionInput,
    dirty: DataFrame,
    clean: DataFrame,
    spans: &mut Spans,
    parent: usize,
) -> Result<(CleaningEnvironment, StdRng), String> {
    let e = |e: comet_frame::FrameError| e.to_string();
    let mut rng = StdRng::seed_from_u64(crate::workload::SESSION_SEED);
    let split = spans.open("env.split", Some(parent));
    let dirty = dirty.resegment(DEFAULT_SEGMENT_ROWS).map_err(e)?;
    let clean = clean.resegment(DEFAULT_SEGMENT_ROWS).map_err(e)?;
    let tt = train_test_split(&clean, SplitOptions::default(), &mut rng).map_err(e)?;
    let dirty_train = dirty.take(&tt.train_rows).map_err(e)?;
    let dirty_test = dirty.take(&tt.test_rows).map_err(e)?;
    let gt_train = GroundTruth::new(tt.train);
    let gt_test = GroundTruth::new(tt.test);
    let prov_train = derive_provenance(&dirty_train, &gt_train).map_err(|e| e.to_string())?;
    let prov_test = derive_provenance(&dirty_test, &gt_test).map_err(|e| e.to_string())?;
    spans.close(split);
    let env = spans.time("env.new", Some(parent), || {
        CleaningEnvironment::new(
            dirty_train,
            dirty_test,
            gt_train,
            gt_test,
            prov_train,
            prov_test,
            input.algorithm,
            Metric::F1,
            input.step(),
            RandomSearch::default(),
            EVAL_SEED,
            &mut rng,
        )
    });
    Ok((env.map_err(|e| e.to_string())?, rng))
}

/// Replay iteration 0 sequentially, one span per call. Returns the
/// seconds of one cold `candidate_pairs` call.
fn replay_iteration0(
    input: &SessionInput,
    env: &mut CleaningEnvironment,
    rng: &mut StdRng,
    spans: &mut Spans,
) -> Result<f64, String> {
    let config = input.config();
    if let Some(detect) = config.detect {
        env.enable_detection(detect);
    }
    let session_seed = rng.next_u64();
    let polluter = Polluter::from_config(&config);
    let estimator = Estimator::new(config.blr_degree, config.interval, config.bias_correction);
    let blr =
        BlrConfig { degree: config.blr_degree, interval: config.interval, ..BlrConfig::default() };
    env.clear_eval_cache();
    // A private feature cache warmed like the environment's own (which
    // `CleaningEnvironment::new` warms on the training split), so the
    // re-executed featurization hits and misses the way the real one does.
    let feats = FeatureCache::new();
    let warm = Featurizer::fit_cached(env.train(), &feats).map_err(|e| e.to_string())?;
    warm.transform_with(env.train(), Some(&feats), Vec::new()).map_err(|e| e.to_string())?;

    let root = spans.open("replay.iteration0", None);
    let id = spans.open("env.candidate_pairs", Some(root));
    let pairs = env.candidate_pairs(&input.workload.session_errors());
    spans.close(id);
    let detect_call_s = spans.seconds(id);
    let current_f1 = spans
        .time("env.evaluate_frames", Some(root), || env.evaluate())
        .map_err(|e| e.to_string())?;
    for &(col, err) in &pairs {
        let cand = spans.open("replay.candidate", Some(root));
        let mut cand_rng = StdRng::seed_from_u64(candidate_seed(session_seed, col, err, 0));
        let variants = spans
            .time("polluter.variants", Some(cand), || {
                polluter.variants(env, col, err, &mut cand_rng)
            })
            .map_err(|e| e.to_string())?;
        let est = spans
            .time("estimator.estimate", Some(cand), || {
                estimator.estimate(env, col, err, current_f1, &variants)
            })
            .map_err(|e| e.to_string())?;
        let (xs, ys): (Vec<f64>, Vec<f64>) = est.points.iter().copied().unzip();
        spans
            .time("bayes.fit", Some(cand), || {
                BayesianLinearRegression::new(blr).fit(&xs, &ys).map(|_| ())
            })
            .map_err(|e| format!("bayes fit: {e}"))?;
        // The estimate filled the cache; evaluate every variant again cold.
        env.clear_eval_cache();
        for v in &variants {
            let score = spans
                .time("env.evaluate_frames", Some(cand), || env.evaluate_frames(&v.train, &v.test))
                .map_err(|e| e.to_string())?;
            let outside = decomposed_score(env, &v.train, &v.test, &feats, spans, cand)?;
            if outside.to_bits() != score.to_bits() {
                return Err(format!(
                    "replay guard: featurize→fit→predict→metric gives {outside:?} but \
                     evaluate_frames gives {score:?} for ({col}, {err:?}) variant {}/{}",
                    v.combination, v.steps
                ));
            }
        }
        spans.close(cand);
    }
    spans.close(root);
    Ok(detect_call_s)
}

/// `evaluate_frames` re-executed through public comet-ml calls.
fn decomposed_score(
    env: &CleaningEnvironment,
    train: &DataFrame,
    test: &DataFrame,
    feats: &FeatureCache,
    spans: &mut Spans,
    parent: usize,
) -> Result<f64, String> {
    let e = |e: comet_frame::FrameError| e.to_string();
    let featurizer = spans
        .time("featurize.fit", Some(parent), || Featurizer::fit_cached(train, feats))
        .map_err(e)?;
    let (xtr, xte) = spans
        .time("featurize.transform", Some(parent), || {
            Ok::<_, comet_frame::FrameError>((
                featurizer.transform_with(train, Some(feats), Vec::new())?,
                featurizer.transform_with(test, Some(feats), Vec::new())?,
            ))
        })
        .map_err(e)?;
    let ytr = train.label_codes().map_err(e)?;
    let yte = test.label_codes().map_err(e)?;
    let mut model = env.model().params.build();
    let mut rng = StdRng::seed_from_u64(EVAL_SEED);
    spans.time("model.fit", Some(parent), || model.fit(&xtr, &ytr, env.n_classes(), &mut rng));
    let pred = spans.time("model.predict", Some(parent), || model.predict(&xte));
    Ok(spans.time("metric.eval", Some(parent), || env.metric().eval(&yte, &pred, env.n_classes())))
}

/// Iterations that ended with the frames changed: a step was kept.
fn kept_iterations(trace: &comet_core::CleaningTrace) -> usize {
    let mut kept: Vec<usize> = trace
        .records
        .iter()
        .filter(|r| r.action != StepAction::Reverted)
        .map(|r| r.iteration)
        .collect();
    kept.dedup();
    kept.len()
}

/// Exact counts of the recorded session.
fn counts(out: &mut JsonObject, env: &CleaningEnvironment, metrics: &RunMetrics) {
    let cache = env.cache_stats();
    let feats = env.feature_cache_stats();
    let lookups = feats.block_hits + feats.block_misses;
    out.field_u64("env.model_evals", cache.misses)
        .field_f64("env.eval_cache_hit_rate", cache.hit_rate())
        .field_f64(
            "featurize.block_hit_rate",
            if lookups == 0 { 0.0 } else { feats.block_hits as f64 / lookups as f64 },
        )
        .field_u64("estimator.variant_evals", metrics.registry.counter("estimator.variant_evals"));
}

/// The share table: each replayed layer's time as a share of its parent,
/// and the session's wall time split into phases, detection and the rest.
fn shares(spans: &Spans, wall: f64, phase_wall: f64, detect_s: f64) -> String {
    let frac = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let cand = spans.total("polluter.variants") + spans.total("estimator.estimate");
    let eval = spans.total("env.evaluate_frames");
    let mut obj = JsonObject::new();
    obj.field_f64("session.phases/session", frac(phase_wall, wall))
        .field_f64("session.detect/session", frac(detect_s, wall))
        .field_f64("session.unattributed/session", frac(wall - phase_wall - detect_s, wall))
        .field_f64("polluter.variants/candidate", frac(spans.total("polluter.variants"), cand))
        .field_f64("estimator.estimate/candidate", frac(spans.total("estimator.estimate"), cand))
        .field_f64(
            "bayes.fit/estimator.estimate",
            frac(spans.total("bayes.fit"), spans.total("estimator.estimate")),
        );
    for child in
        ["featurize.fit", "featurize.transform", "model.fit", "model.predict", "metric.eval"]
    {
        obj.field_f64(&format!("{child}/env.evaluate_frames"), frac(spans.total(child), eval));
    }
    obj.finish()
}
