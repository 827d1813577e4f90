//! Hot-path benchmark: cold vs warm per-candidate evaluation, emitting
//! `BENCH_hotpath.json` plus a JSONL metrics journal so CI can smoke-test
//! both the speedup and the journal format.
//!
//! **Workload.** The PR 1 speedup workload (Eeg + Churn, KNN, pre-polluted
//! missing values): every dirty `(feature, error)` pair is expanded by the
//! Polluter into its candidate variants, and the bin times
//! `evaluate_frames` over all of them — the exact call the Estimator's
//! inner loop makes hundreds of times per session.
//!
//! **Modes**, timed over the identical candidate list:
//!
//! * `cold` — the pre-PR path: feature caching disabled, evaluation cache
//!   wiped before every call, scratch pool emptied. Every evaluation pays
//!   full featurizer fit + transform + model training.
//! * `warm` — the shipped steady state: both caches primed by one
//!   untimed pass, so repeat evaluations of content-identical states are
//!   answered from the evaluation cache.
//! * `warm_novel` — the evaluation cache is wiped but the column-block
//!   featurization cache stays warm: what a *new* candidate costs, i.e.
//!   model training plus one column's re-featurization.
//!
//! A cell where `warm_novel` is *slower* than cold is a regression, not a
//! data point: it is flagged (`novel_regression: true`), warned about on
//! stderr, and excluded from `mean_novel_speedup` rather than silently
//! averaged in. All three modes must produce bit-identical score
//! vectors; a seeded session is also replayed at 1/2/8 threads and
//! re-run to confirm traces stay content-identical.

use comet_bench::{build_prepolluted_env, comet_config, ExperimentOpts};
use comet_core::{CleaningEnvironment, CleaningSession, CostPolicy, Polluter};
use comet_datasets::Dataset;
use comet_jenga::{ErrorType, Scenario};
use comet_ml::Algorithm;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Pollution steps × combinations per candidate pair (the session default).
const POLLUTER: (usize, usize) = (2, 2);

struct Cell {
    dataset: String,
    setting: usize,
    candidates: usize,
    cold_ms: f64,
    warm_ms: f64,
    warm_novel_ms: f64,
    warm_speedup: f64,
    novel_speedup: f64,
    novel_regression: bool,
    block_hits: u64,
    block_misses: u64,
    scratch_reuse: u64,
    identical_scores: bool,
    deterministic_traces: bool,
}

/// The candidate frame pairs one Estimator sweep evaluates.
fn candidate_frames(
    env: &CleaningEnvironment,
    errors: &[ErrorType],
    seed: u64,
) -> Vec<(comet_frame::DataFrame, comet_frame::DataFrame)> {
    let polluter = Polluter::new(POLLUTER.0, POLLUTER.1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for (col, err) in env.candidate_pairs(errors) {
        let variants = polluter.variants(env, col, err, &mut rng).expect("polluter variants");
        out.extend(variants.into_iter().map(|v| (v.train, v.test)));
    }
    out
}

/// Time one pass over every candidate. `cold` wipes both caches and the
/// scratch pool before *each* evaluation, reproducing the pre-PR per-call
/// cost; otherwise caches persist across calls. Goes through
/// `evaluate_frames` — the Estimator's actual inner call.
fn pass(
    env: &CleaningEnvironment,
    candidates: &[(comet_frame::DataFrame, comet_frame::DataFrame)],
    cold: bool,
) -> (f64, Vec<f64>) {
    let start = Instant::now();
    let scores = candidates
        .iter()
        .map(|(train, test)| {
            if cold {
                env.clear_eval_cache();
                env.clear_feature_cache();
                comet_ml::scratch::clear();
            }
            env.evaluate_frames(train, test).expect("candidate evaluation")
        })
        .collect();
    (start.elapsed().as_secs_f64() * 1e3, scores)
}

/// Replay a seeded session at several thread counts plus one repeat;
/// true when every trace is content-identical.
fn traces_deterministic(base: &CleaningEnvironment, session: &CleaningSession, seed: u64) -> bool {
    let run = |threads: usize| {
        comet_par::with_threads(threads, || {
            let mut env = base.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            session.run(&mut env, &mut rng).expect("session run").trace
        })
    };
    let reference = run(1);
    [run(2), run(8), run(1)].iter().all(|t| t.content_eq(&reference))
}

fn json_cell(c: &Cell) -> String {
    format!(
        "    {{\"dataset\": \"{}\", \"setting\": {}, \"candidates\": {}, \"cold_ms\": {:.1}, \"warm_ms\": {:.1}, \"warm_novel_ms\": {:.1}, \
         \"warm_speedup\": {:.2}, \"novel_speedup\": {:.2}, \"novel_regression\": {}, \
         \"block_hits\": {}, \"block_misses\": {}, \"scratch_reuse\": {}, \
         \"identical_scores\": {}, \"deterministic_traces\": {}}}",
        c.dataset,
        c.setting,
        c.candidates,
        c.cold_ms,
        c.warm_ms,
        c.warm_novel_ms,
        c.warm_speedup,
        c.novel_speedup,
        c.novel_regression,
        c.block_hits,
        c.block_misses,
        c.scratch_reuse,
        c.identical_scores,
        c.deterministic_traces,
    )
}

fn main() {
    let opts = ExperimentOpts::from_env();
    let algorithm = opts.algorithm_or(Algorithm::Knn);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    comet_obs::reset();
    comet_obs::set_enabled(true);
    println!(
        "hotpath: per-candidate evaluate, cold (no caches) vs warm (both caches) vs warm_novel \
         (block cache only), host parallelism {host}\n",
    );

    let mut cells: Vec<Cell> = Vec::new();
    let mut journal_lines: Vec<String> = Vec::new();
    for dataset in [Dataset::Eeg, Dataset::Churn] {
        for setting in 0..opts.settings {
            let setup = build_prepolluted_env(
                dataset,
                algorithm,
                Scenario::SingleError(ErrorType::MissingValues),
                setting,
                &opts,
            )
            .unwrap_or_else(|e| panic!("{dataset}: {e}"));
            let seed = opts.child_seed("hotpath", setting as u64);
            let candidates = candidate_frames(&setup.env, &setup.errors, seed);
            assert!(!candidates.is_empty(), "workload produced no candidates");

            // Cold: pre-PR path on a handle with feature caching off.
            let mut cold_env = setup.env.clone();
            cold_env.set_feature_caching(false);
            let (cold_ms, cold_scores) = pass(&cold_env, &candidates, true);

            // Prime, then measure warm (eval-cache steady state).
            let warm_env = setup.env.clone();
            warm_env.clear_eval_cache();
            warm_env.clear_feature_cache();
            pass(&warm_env, &candidates, false);
            let (warm_ms, warm_scores) = pass(&warm_env, &candidates, false);

            // Novel candidates: eval cache cold, block cache warm.
            warm_env.clear_eval_cache();
            let before = comet_obs::snapshot();
            let (warm_novel_ms, novel_scores) = pass(&warm_env, &candidates, false);
            let after = comet_obs::snapshot();

            let identical_scores = cold_scores
                .iter()
                .zip(&warm_scores)
                .zip(&novel_scores)
                .all(|((c, w), n)| c.to_bits() == w.to_bits() && c.to_bits() == n.to_bits());
            let config = comet_config(&opts, CostPolicy::constant());
            let session = CleaningSession::new(config, setup.errors.clone());
            let deterministic_traces = traces_deterministic(&setup.env, &session, seed);

            let novel_speedup = cold_ms / warm_novel_ms;
            let novel_regression = novel_speedup < 1.0;
            let cell = Cell {
                dataset: dataset.spec().name.to_lowercase().replace('-', ""),
                setting,
                candidates: candidates.len(),
                cold_ms,
                warm_ms,
                warm_novel_ms,
                warm_speedup: cold_ms / warm_ms,
                novel_speedup,
                novel_regression,
                block_hits: after.counter("featurize.block_hits")
                    - before.counter("featurize.block_hits"),
                block_misses: after.counter("featurize.block_misses")
                    - before.counter("featurize.block_misses"),
                scratch_reuse: after.counter("alloc.scratch_reuse")
                    - before.counter("alloc.scratch_reuse"),
                identical_scores,
                deterministic_traces,
            };
            println!(
                "{:>8} setting {}: {:>3} candidates  cold {:>8.1} ms  warm \
                 {:>7.1} ms ({:.1}x)  novel {:>8.1} ms ({:.1}x)  identical {}  \
                 deterministic {}",
                cell.dataset,
                setting,
                cell.candidates,
                cell.cold_ms,
                cell.warm_ms,
                cell.warm_speedup,
                cell.warm_novel_ms,
                cell.novel_speedup,
                cell.identical_scores,
                cell.deterministic_traces,
            );
            if novel_regression {
                eprintln!(
                    "WARNING: {} setting {}: warm_novel ({:.1} ms) is slower than cold \
                     ({:.1} ms); flagged and excluded from mean_novel_speedup",
                    cell.dataset, setting, warm_novel_ms, cold_ms,
                );
            }
            journal_lines.push(format!(
                "{{\"record\": \"hotpath_cell\", {}}}",
                json_cell(&cell).trim_start().trim_start_matches('{').trim_end_matches('}')
            ));
            cells.push(cell);
        }
    }
    comet_obs::set_enabled(false);

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let warm = cells.iter().map(|c| c.warm_speedup).collect::<Vec<_>>();
    let mean_warm = mean(&warm);
    let min_warm = warm.iter().copied().fold(f64::INFINITY, f64::min);
    // Regressed cells are flagged above, not averaged into the mean.
    let novel_ok =
        cells.iter().filter(|c| !c.novel_regression).map(|c| c.novel_speedup).collect::<Vec<_>>();
    let mean_novel = if novel_ok.is_empty() { 0.0 } else { mean(&novel_ok) };
    let novel_regressions = cells.iter().filter(|c| c.novel_regression).count();
    let all_identical = cells.iter().all(|c| c.identical_scores);
    let all_deterministic = cells.iter().all(|c| c.deterministic_traces);

    let rows = cells.iter().map(json_cell).collect::<Vec<_>>().join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"evaluation_hot_path\",\n  \"workload\": \"per-candidate \
         evaluate_frames over Polluter variants ({algorithm}; cold = no caches + full refit, \
         warm = eval + block caches primed, warm_novel = block cache only)\",\n  \"host_parallelism\": {host},\n  \"rows\": {rows_opt},\n  \
         \"budget\": {budget},\n  \"results\": [\n{rows}\n  ],\n  \"summary\": \
         {{\"mean_warm_speedup\": {mean_warm:.2}, \"min_warm_speedup\": {min_warm:.2}, \
         \"mean_novel_speedup\": {mean_novel:.2}, \"novel_regressions\": {novel_regressions}, \
         \"all_scores_identical\": {all_identical}, \"all_traces_deterministic\": \
         {all_deterministic}}}\n}}\n",
        rows_opt = opts.rows.map_or("null".into(), |r| r.to_string()),
        budget = opts.budget,
    );
    std::fs::create_dir_all(&opts.out_dir).expect("create output directory");
    let path = format!("{}/BENCH_hotpath.json", opts.out_dir);
    std::fs::write(&path, &json).expect("write BENCH_hotpath.json");

    journal_lines.push(format!(
        "{{\"record\": \"hotpath_summary\", \"mean_warm_speedup\": {mean_warm:.2}, \
         \"min_warm_speedup\": {min_warm:.2}, \"mean_novel_speedup\": {mean_novel:.2}, \
         \"novel_regressions\": {novel_regressions}, \"all_scores_identical\": {all_identical}, \
         \"all_traces_deterministic\": {all_deterministic}}}"
    ));
    let journal_path = format!("{}/hotpath_metrics.jsonl", opts.out_dir);
    std::fs::write(&journal_path, journal_lines.join("\n") + "\n")
        .expect("write hotpath metrics journal");

    println!(
        "\nmean warm speedup {mean_warm:.2}x (min {min_warm:.2}x), mean novel speedup \
         {mean_novel:.2}x ({novel_regressions} regression(s) excluded), scores identical: \
         {all_identical}, traces deterministic: {all_deterministic}\nwrote {path} and \
         {journal_path}",
    );
    if !all_identical {
        eprintln!("ERROR: cached evaluation scores diverged from the cold path");
        std::process::exit(1);
    }
    if !all_deterministic {
        eprintln!("ERROR: session traces diverged across thread counts or re-runs");
        std::process::exit(1);
    }
}
