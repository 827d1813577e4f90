//! Worker binary of the end-to-end benchmark. `perfbench/run.py` drives
//! it; every subcommand prints one JSON object on its last stdout line.
//!
//! ```text
//! perfbench gen        --workload W --seed N --dir D [--pair I] [--smoke]
//! perfbench session    --workload W --dir D --label L [--pair I] [--algo A]
//!                      [--served] [--smoke] [--trace-out F]
//! perfbench trace      --workload W --dir D --label L [--smoke] [--run-id ID]
//!                      [--spans-out F] [--trace-out F]
//! perfbench serve-load --workload W --dir D --label L --port P --seed N
//!                      --cycles C [--smoke] [--stats]
//! perfbench probe      [--reps R]
//! ```

mod probe;
mod serve_load;
mod session;
mod spans;
mod traced;
mod workload;

use comet_ml::Algorithm;
use comet_obs::json::JsonObject;
use session::SessionInput;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: perfbench gen|session|trace|serve-load|probe ...");
        return ExitCode::from(2);
    };
    let result = parse_flags(rest).and_then(|flags| match cmd.as_str() {
        "gen" => cmd_gen(&flags),
        "session" => cmd_session(&flags),
        "trace" => traced::cmd_trace(&input_of(&flags)?, &flags),
        "serve-load" => serve_load::cmd_serve_load(&input_of(&flags)?, &flags),
        "probe" => probe::cmd_probe(&flags),
        other => Err(format!("unknown subcommand {other:?}")),
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

pub type Flags = BTreeMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let name = arg.strip_prefix("--").ok_or_else(|| format!("expected --flag, got {arg:?}"))?;
        let value = match iter.peek() {
            Some(v) if !v.starts_with("--") => iter.next().cloned().unwrap_or_default(),
            _ => String::new(),
        };
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

pub fn flag<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags.get(name).map(String::as_str).ok_or_else(|| format!("missing --{name}"))
}

pub fn flag_num<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    flags.get(name).map_or(Ok(default), |v| v.parse().map_err(|_| format!("bad --{name} {v:?}")))
}

fn workload_of(flags: &Flags) -> Result<Workload, String> {
    let name = flag(flags, "workload")?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn input_of(flags: &Flags) -> Result<SessionInput, String> {
    let workload = workload_of(flags)?;
    let algorithm = match flags.get("algo") {
        Some(name) => Algorithm::parse(name).ok_or_else(|| format!("unknown --algo {name:?}"))?,
        None => workload.algorithms()[0],
    };
    Ok(SessionInput {
        workload,
        dir: PathBuf::from(flag(flags, "dir")?),
        pair: flag_num(flags, "pair", 0usize)?,
        label: flag(flags, "label")?.to_string(),
        algorithm,
        smoke: flags.contains_key("smoke"),
        served: flags.contains_key("served"),
    })
}

/// Write CSV pair `--pair` of the workload; reports the label column.
fn cmd_gen(flags: &Flags) -> Result<String, String> {
    let workload = workload_of(flags)?;
    let seed: u64 = flag_num(flags, "seed", 1)?;
    let pair: usize = flag_num(flags, "pair", 0)?;
    let dir = PathBuf::from(flag(flags, "dir")?);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir:?}: {e}"))?;
    let label = workload::write_pair(workload, seed, pair, flags.contains_key("smoke"), &dir)?;
    let mut out = JsonObject::new();
    out.field_str("label", &label);
    Ok(out.finish())
}

/// One untraced session in this (fresh) process: set-up and session wall
/// time, peak RSS, quality, and the outcome checks.
fn cmd_session(flags: &Flags) -> Result<String, String> {
    let input = input_of(flags)?;
    let started = Instant::now();
    let (dirty, clean) = input.read_pair()?;
    let (mut env, mut rng) = input.build_env(dirty, clean)?;
    let setup_s = started.elapsed().as_secs_f64();
    let (outcome, session_s) = input.run(&mut env, &mut rng, None)?;
    let problems = session::check_outcome(&outcome, &env, input.config().budget);
    if let Some(path) = flags.get("trace-out") {
        std::fs::write(path, session::trace_text(&outcome, &env))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let trace = &outcome.trace;
    let mut out = JsonObject::new();
    out.field_f64("setup_s", setup_s)
        .field_f64("session_s", session_s)
        .field_u64("iterations", trace.iteration_runtimes.len() as u64)
        .field_u64("model_evals", env.cache_stats().misses)
        .field_f64("initial_f1", trace.initial_f1)
        .field_f64("final_f1", trace.final_f1)
        .field_f64("peak_rss_mb", session::peak_rss_mb())
        .field_str("tuned", &format!("{:?}", env.model().params))
        .field_f64("work_scale", session::work_scale(&env.model().params))
        .field_raw("problems", &json_strings(&problems));
    Ok(out.finish())
}

/// Encode strings as a JSON array.
pub fn json_strings(items: &[String]) -> String {
    comet_obs::json::JsonValue::Arr(
        items.iter().cloned().map(comet_obs::json::JsonValue::Str).collect(),
    )
    .to_string()
}
