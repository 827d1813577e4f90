//! Workspace-level dataflow tests: the D7 mutation drill (delete any single
//! fingerprint ingredient from the *real* checkpoint code → the lint must
//! fail), D8 taint properties of the real workspace against the crate list
//! the rules used to hard-code, fixture-driven root detection, and the
//! machine-readable JSON rendering.

use comet_lint::graph::compute_taint;
use comet_lint::rules::{Rule, ScannedFile};
use comet_lint::{file_context, lint_files, load_allowlist, render_json, workspace_sources};
use std::path::Path;

/// The trace-affecting crate list that was hard-coded in the rules module
/// before D8 computed it from the use graph. The computed set must stay a
/// superset: taint can only be discovered, never silently lost.
const OLD_HARDCODED_LIST: [&str; 7] =
    ["core", "ml", "bayes", "jenga", "baselines", "frame", "detect"];

/// Every session-identity ingredient the checkpoint header writes. The
/// mutation drill deletes each one's builder line in turn.
const HEADER_KEYS: [&str; 5] =
    ["session_seed", "config_fp", "budget_total", "detect_fp", "segment_rows"];

const CHECKPOINT: &str = "crates/core/src/checkpoint.rs";

fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

/// Scan the real workspace, applying `mutate` to the file at `target`
/// (repo-relative). `mutate` is the identity check when `target` is empty.
fn scanned_workspace(target: &str, mutate: impl Fn(&str) -> String) -> Vec<ScannedFile> {
    let root = repo_root();
    let sources = workspace_sources(&root).unwrap();
    sources
        .iter()
        .map(|rel| {
            let ctx = file_context(rel);
            let src = std::fs::read_to_string(root.join(rel)).unwrap();
            let src = if ctx.path == target { mutate(&src) } else { src };
            ScannedFile::new(ctx, src.as_bytes())
        })
        .collect()
}

fn real_allowlist() -> comet_lint::config::Allowlist {
    load_allowlist(&repo_root().join("lint.toml")).unwrap()
}

/// Delete the first line containing both `field_` and the quoted key —
/// exactly the builder's write of that header field (the loader reads the
/// key through `get*`, never `field_*`).
fn without_builder_line(src: &str, key: &str) -> String {
    let needle = format!("\"{key}\"");
    let mut removed = false;
    let kept: Vec<&str> = src
        .lines()
        .filter(|l| {
            if !removed && l.contains("field_") && l.contains(&needle) {
                removed = true;
                return false;
            }
            true
        })
        .collect();
    assert!(removed, "no builder line found for header key `{key}` — did the builder move?");
    kept.join("\n")
}

// --- the mutation drill: the lint is only trustworthy if it actually
// --- fails when a fingerprint ingredient disappears ---

#[test]
fn deleting_any_single_header_ingredient_fails_the_lint() {
    let allow = real_allowlist();
    for key in HEADER_KEYS {
        let files = scanned_workspace(CHECKPOINT, |src| without_builder_line(src, key));
        let report = lint_files(&files, &allow);
        assert!(
            !report.is_clean(),
            "deleting the `{key}` builder line must fail the lint, but it stayed clean"
        );
        assert!(
            report.findings.iter().any(|f| f.rule == Rule::D7 && f.message.contains(key)),
            "no D7 finding names `{key}`: {:#?}",
            report.findings
        );
    }
}

#[test]
fn dropping_the_config_debug_capture_fails_the_lint() {
    let allow = real_allowlist();
    let files = scanned_workspace(CHECKPOINT, |src| {
        let mutated = src.replace("{config:?}|", "");
        assert_ne!(mutated, src, "config_fingerprint no longer captures `{{config:?}}`");
        mutated
    });
    let report = lint_files(&files, &allow);
    assert!(!report.is_clean(), "dropping the config capture must fail the lint");
    let uncovered = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::D7 && f.file == "crates/core/src/config.rs")
        .count();
    // Every CometConfig field loses coverage at once.
    assert!(uncovered >= 5, "expected many uncovered fields, got {uncovered}");
}

#[test]
fn the_unmutated_workspace_is_clean() {
    let files = scanned_workspace("", |s| s.to_string());
    let report = lint_files(&files, &real_allowlist());
    assert!(report.is_clean(), "errors: {:#?}", report.evaluation.errors);
}

// --- D8 on the real workspace ---

#[test]
fn computed_taint_is_a_superset_of_the_old_hardcoded_list() {
    let files = scanned_workspace("", |s| s.to_string());
    let report = lint_files(&files, &real_allowlist());
    for name in OLD_HARDCODED_LIST {
        assert!(
            report.taint.reachable.contains(name),
            "`{name}` was in the old hard-coded trace-affecting list but is not \
             reachable from the computed roots: {:?}",
            report.taint.reachable
        );
    }
    assert!(report.taint.roots.contains("core"), "roots: {:?}", report.taint.roots);
    // The observability layer is reachable but audited out via [[exempt]].
    assert!(report.taint.reachable.contains("obs"));
    assert!(!report.taint.trace_affecting.contains("obs"));
}

#[test]
fn the_hardcoded_trace_list_stays_deleted() {
    let src = std::fs::read_to_string(repo_root().join("crates/lint/src/rules.rs")).unwrap();
    assert!(
        !src.contains(concat!("TRACE_", "AFFECTING")),
        "the hard-coded trace-affecting crate list must stay deleted from the \
         rules module; D8 computes the set from the use graph"
    );
}

// --- D8 fixtures: root detection TP/TN ---

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn scan_fixture_as(name: &str, path: &str) -> ScannedFile {
    ScannedFile::new(file_context(Path::new(path)), &fixture(name))
}

#[test]
fn step_record_construction_marks_a_root_crate() {
    let files = vec![scan_fixture_as("tp_d8.rs", "crates/baselines/src/fixture.rs")];
    let taint = compute_taint(&files, &[]);
    assert!(taint.roots.contains("baselines"), "roots: {:?}", taint.roots);
}

#[test]
fn step_record_construction_in_tests_is_not_a_root() {
    let files = vec![scan_fixture_as("tn_d8.rs", "crates/baselines/src/fixture.rs")];
    let taint = compute_taint(&files, &[]);
    assert!(taint.roots.is_empty(), "roots: {:?}", taint.roots);
    // An empty workspace with no roots is a self-check error, not silence.
    assert!(taint.errors.iter().any(|e| e.contains("no trace-writing roots")));
}

// --- machine-readable output ---

#[test]
fn json_rendering_of_the_real_workspace_is_clean_and_complete() {
    let files = scanned_workspace("", |s| s.to_string());
    let report = lint_files(&files, &real_allowlist());
    let json = render_json(&report);
    assert!(json.contains("\"clean\": true"), "{json}");
    assert!(json.contains("\"errors\": [\n  ]") || json.contains("\"errors\": []"), "{json}");
    assert!(json.contains("\"trace_affecting\": ["));
    // Allowlisted debt is reported, flagged allowed — not hidden.
    assert!(json.contains("\"allowed\": true"), "{json}");
    assert!(!json.contains("\"allowed\": false"), "unallowed finding in a clean run: {json}");
}

#[test]
fn json_rendering_of_a_mutated_workspace_reports_the_break() {
    let files = scanned_workspace(CHECKPOINT, |src| without_builder_line(src, "session_seed"));
    let report = lint_files(&files, &real_allowlist());
    let json = render_json(&report);
    assert!(json.contains("\"clean\": false"), "{json}");
    assert!(json.contains("session_seed"), "{json}");
    assert!(json.contains("\"allowed\": false"), "{json}");
}
