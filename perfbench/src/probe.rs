//! Host-speed probe: a fixed amount of work that calls no code of the
//! program, timed at the same thread count as the sessions.
//!
//! The benchmark runs on a shared host whose speed wanders by a fifth or
//! more over minutes, for every run in the same direction at once. `run.py`
//! times this probe between the sessions of a run and divides the run's
//! time metrics by the probe's slowdown against `PROBE_REF_S` in `run.py`.
//! The probe's work never changes with the program, so a change to the
//! program still moves every time metric by its full amount.

use comet_obs::json::JsonObject;
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 2_000;
const COLS: usize = 32;
const EPOCHS: usize = 200;

/// `--reps` timings of the probe; reports their median in seconds.
pub fn cmd_probe(flags: &crate::Flags) -> Result<String, String> {
    let reps: usize = crate::flag_num(flags, "reps", 5)?;
    if reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    let threads = comet_par::max_threads();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    scope.spawn(move || black_box(sgd(t as u64)));
                }
            });
            started.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let mut out = JsonObject::new();
    out.field_f64("probe_s", times[reps / 2]);
    Ok(out.finish())
}

/// Hinge-loss SGD over a fixed dense matrix, the inner loop the SVM
/// workload spends its time in.
fn sgd(seed: u64) -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let x: Vec<f64> = (0..ROWS * COLS).map(|_| next()).collect();
    let y: Vec<f64> = (0..ROWS).map(|_| if next() > 0.0 { 1.0 } else { -1.0 }).collect();
    let mut w = vec![0.0; COLS];
    for epoch in 0..EPOCHS {
        let rate = 0.1 / (1.0 + epoch as f64);
        for (row, &label) in x.chunks_exact(COLS).zip(&y) {
            let margin = label * row.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>();
            for (wi, &xi) in w.iter_mut().zip(row) {
                *wi *= 1.0 - rate * 1e-4;
                if margin < 1.0 {
                    *wi += rate * label * xi;
                }
            }
        }
    }
    w.iter().sum()
}
