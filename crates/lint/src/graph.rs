//! Workspace-level dataflow analyses over the parsed item graph.
//!
//! Two passes live here, both consuming the [`crate::rules::ScannedFile`]
//! set the pipeline builds once per run:
//!
//! * **D8 trace-taint reachability** ([`compute_taint`]): find the crates
//!   that *define or write* the trace machinery (the roots), then close
//!   over the use/call graph — a root's code calls into everything it
//!   references, so every crate reachable from a root participates in
//!   producing the trace. The resulting set feeds the D1–D3 gates in
//!   [`crate::rules`]; there is no hard-coded crate list anywhere.
//!   `[[exempt]]` entries in `lint.toml` carve out audited leaves (the
//!   observability layer, whose output never feeds trace decisions) and
//!   fail as stale the day they stop being reachable.
//!
//! * **D7 fingerprint coverage** ([`fingerprint_coverage`]): prove that
//!   every `CometConfig`/`DetectorConfig` field flows into its checkpoint
//!   fingerprint, that every checkpoint header builder parameter flows
//!   into a written header field, and that the header keys the builder
//!   writes round-trip through the loader. Trace-affecting knobs (the
//!   detector config, the segment size) were each hand-threaded through
//!   the fingerprint; D7 mechanizes the "did you forget one?" review.

use crate::config::ExemptEntry;
use crate::parse::{
    format_captures, ident_at, is_punct, literal_at, literal_inner, matching, Item, ItemKind,
};
use crate::rules::{Finding, PragmaKind, Rule, ScannedFile};
use std::collections::{BTreeMap, BTreeSet};

/// Structs whose *definition* marks a crate as a trace-writing root: the
/// trace record store, the checkpoint emitter, and the recommender whose
/// ranking the trace records.
const TRACE_DEFS: [&str; 3] = ["CleaningTrace", "CheckpointWriter", "Recommender"];

/// Record types whose *construction* (`StepRecord { .. }`) marks a crate
/// as trace-writing even when the types are defined elsewhere (the
/// baseline strategies build their own step records).
const TRACE_WRITES: [&str; 2] = ["StepRecord", "FailureRecord"];

/// The D8 taint computation's result.
#[derive(Debug, Default)]
pub struct Taint {
    /// Crates that define or write the trace machinery.
    pub roots: BTreeSet<String>,
    /// Use-graph closure of the roots, before `[[exempt]]` subtraction.
    pub reachable: BTreeSet<String>,
    /// `reachable` minus the audited `[[exempt]]` crates — what D1–D3
    /// gate on.
    pub trace_affecting: BTreeSet<String>,
    /// Self-check and exemption-staleness errors (nonzero exit).
    pub errors: Vec<String>,
}

/// Compute the trace-affecting crate set from the scanned workspace.
pub fn compute_taint(files: &[ScannedFile], exempt: &[ExemptEntry]) -> Taint {
    let mut taint = Taint::default();
    let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let known: BTreeSet<&str> = files.iter().map(|f| f.ctx.crate_name.as_str()).collect();
    for file in files {
        if file.ctx.is_test_file() {
            continue; // dev-only edges are not trace-affecting
        }
        let crate_name = file.ctx.crate_name.as_str();
        edges.entry(crate_name).or_default().extend(
            file.parsed.crate_refs.iter().map(String::as_str).filter(|r| known.contains(r)),
        );
        if is_root_file(file) {
            taint.roots.insert(crate_name.to_string());
        }
    }
    // BFS: a root's code calls into everything it references.
    let mut queue: Vec<&str> = taint.roots.iter().map(String::as_str).collect();
    let mut reachable: BTreeSet<&str> = queue.iter().copied().collect();
    while let Some(c) = queue.pop() {
        for &dep in edges.get(c).into_iter().flatten() {
            if reachable.insert(dep) {
                queue.push(dep);
            }
        }
    }
    taint.reachable = reachable.iter().map(|s| s.to_string()).collect();
    if taint.roots.is_empty() {
        taint.errors.push(
            "D8: no trace-writing roots found — the workspace defines none of \
             CleaningTrace/CheckpointWriter/Recommender and constructs no step \
             records; the taint analysis targets have moved"
                .to_string(),
        );
    }
    taint.trace_affecting = taint.reachable.clone();
    for e in exempt {
        if !taint.reachable.contains(&e.name) {
            taint.errors.push(format!(
                "lint.toml: stale [[exempt]] entry — crate `{}` is not reachable from \
                 the trace-writing roots; remove the entry",
                e.name
            ));
            continue;
        }
        taint.trace_affecting.remove(&e.name);
    }
    taint
}

fn is_root_file(file: &ScannedFile) -> bool {
    let defines = file.parsed.items.iter().any(|i| {
        matches!(i.kind, ItemKind::Struct { .. }) && TRACE_DEFS.contains(&i.name.as_str())
    });
    if defines {
        return true;
    }
    // `StepRecord { .. }` construction: the ident followed by `{`, not
    // preceded by `struct`/`impl`/`for` (those are definitions/headers).
    let ts = &file.lexed.tokens;
    for k in 0..ts.len() {
        let Some(id) = ident_at(ts, k) else { continue };
        if !TRACE_WRITES.contains(&id) || !is_punct(ts, k + 1, b'{') || file.in_test(k) {
            continue;
        }
        let prev = k.checked_sub(1).and_then(|p| ident_at(ts, p));
        if !matches!(prev, Some("struct" | "impl" | "for" | "enum" | "union")) {
            return true;
        }
    }
    false
}

/// Where each fingerprinted config struct and its fingerprint fn live.
struct FieldSpec {
    struct_file: &'static str,
    struct_name: &'static str,
    fp_file: &'static str,
    fp_fn: &'static str,
    /// The fingerprint fn's parameter holding the struct.
    param: &'static str,
}

const FIELD_SPECS: [FieldSpec; 2] = [
    FieldSpec {
        struct_file: "crates/core/src/config.rs",
        struct_name: "CometConfig",
        fp_file: "crates/core/src/checkpoint.rs",
        fp_fn: "config_fingerprint",
        param: "config",
    },
    FieldSpec {
        struct_file: "crates/detect/src/config.rs",
        struct_name: "DetectorConfig",
        fp_file: "crates/core/src/checkpoint.rs",
        fp_fn: "detect_fingerprint",
        param: "detect",
    },
];

const HEADER_FILE: &str = "crates/core/src/checkpoint.rs";
const HEADER_OWNER: &str = "CheckpointWriter";
const HEADER_BUILDER: &str = "create";
const HEADER_LOADER: &str = "load";
/// The loader's match-arm discriminant for header records.
const HEADER_ARM_KEY: &str = "checkpoint_header";
/// Record-envelope keys, not session identity.
const ENVELOPE_KEYS: [&str; 2] = ["kind", "version"];
/// Builder parameters that are plumbing, not fingerprint ingredients.
const BUILDER_SKIP_PARAMS: [&str; 1] = ["path"];
/// The JSON builder methods that write one header field each.
const FIELD_CALLS: [&str; 4] = ["field_str", "field_u64", "field_f64", "field_raw"];
/// The accessors the loader reads header fields through.
const GET_CALLS: [&str; 3] = ["get", "get_hex", "get_f64"];

/// The D7 analysis result.
#[derive(Debug, Default)]
pub struct FingerprintCoverage {
    pub findings: Vec<Finding>,
    /// `(file, pragma first_line)` of every `nofp` pragma that excused an
    /// uncovered field — any other `nofp` pragma is stale.
    pub credited_nofp: BTreeSet<(String, u32)>,
}

/// Run the three D7 sub-checks over the scanned workspace.
pub fn fingerprint_coverage(files: &[ScannedFile]) -> FingerprintCoverage {
    let mut out = FingerprintCoverage::default();
    for spec in &FIELD_SPECS {
        check_field_coverage(files, spec, &mut out);
    }
    check_header_builder(files, &mut out);
    out
}

fn find_file<'a>(files: &'a [ScannedFile], path: &str) -> Option<&'a ScannedFile> {
    files.iter().find(|f| f.ctx.path == path)
}

fn find_fn<'a>(file: &'a ScannedFile, name: &str, owner: Option<&str>) -> Option<&'a Item> {
    file.parsed.items.iter().find(|i| {
        i.name == name
            && matches!(i.kind, ItemKind::Fn { .. })
            && match owner {
                Some(o) => i.owner.as_deref() == Some(o),
                None => true,
            }
    })
}

fn missing(out: &mut FingerprintCoverage, file: &str, what: &str) {
    out.findings.push(Finding {
        rule: Rule::D7,
        file: file.to_string(),
        line: 1,
        col: 1,
        message: format!(
            "{what} not found — the fingerprint-coverage targets moved; update the \
             D7 specs in comet-lint's graph module"
        ),
    });
}

/// Sub-check 1: every field of `spec.struct_name` must flow into
/// `spec.fp_fn` — either the fn consumes the whole struct (Debug-derived
/// fingerprints pass the param to a format capture) or it mentions
/// `param.field`. Uncovered fields need a `nofp` pragma at the field.
fn check_field_coverage(files: &[ScannedFile], spec: &FieldSpec, out: &mut FingerprintCoverage) {
    let Some(struct_file) = find_file(files, spec.struct_file) else {
        missing(out, spec.struct_file, &format!("struct file for `{}`", spec.struct_name));
        return;
    };
    let Some(ItemKind::Struct { fields }) = struct_file
        .parsed
        .items
        .iter()
        .find(|i| i.name == spec.struct_name && matches!(i.kind, ItemKind::Struct { .. }))
        .map(|i| &i.kind)
    else {
        missing(out, spec.struct_file, &format!("struct `{}`", spec.struct_name));
        return;
    };
    let Some(fp_file) = find_file(files, spec.fp_file) else {
        missing(out, spec.fp_file, &format!("fingerprint file for `{}`", spec.fp_fn));
        return;
    };
    let Some(fp_fn) = find_fn(fp_file, spec.fp_fn, None) else {
        missing(out, spec.fp_file, &format!("fingerprint fn `{}`", spec.fp_fn));
        return;
    };
    let ItemKind::Fn { body: Some((open, close)), .. } = fp_fn.kind else {
        missing(out, spec.fp_file, &format!("body of fingerprint fn `{}`", spec.fp_fn));
        return;
    };
    let ts = &fp_file.lexed.tokens;
    // What the fingerprint body "uses": idents, plus idents captured by
    // format strings (`"{config:?}"` uses `config`).
    let mut whole_use = false;
    let mut field_access: BTreeSet<&str> = BTreeSet::new();
    for k in open..=close {
        if let Some(id) = ident_at(ts, k) {
            if id == spec.param {
                if is_punct(ts, k + 1, b'.') {
                    if let Some(f) = ident_at(ts, k + 2) {
                        field_access.insert(f);
                    }
                } else {
                    whole_use = true;
                }
            }
        } else if let Some(lit) = literal_at(ts, k) {
            for cap in format_captures(lit) {
                if cap == spec.param {
                    whole_use = true;
                }
            }
        }
    }
    for field in fields {
        if whole_use || field_access.contains(field.name.as_str()) {
            continue;
        }
        let excuse = struct_file
            .pragmas
            .iter()
            .find(|p| p.kind == PragmaKind::NoFp && p.covers_line(field.line));
        if let Some(p) = excuse {
            out.credited_nofp.insert((struct_file.ctx.path.clone(), p.first_line));
            continue;
        }
        out.findings.push(Finding {
            rule: Rule::D7,
            file: struct_file.ctx.path.clone(),
            line: field.line,
            col: 1,
            message: format!(
                "`{}.{}` does not flow into `{}` — a knob the fingerprint misses \
                 breaks resume determinism silently; fingerprint it or annotate the \
                 field with a `nofp` pragma stating why it cannot affect the trace",
                spec.struct_name, field.name, spec.fp_fn
            ),
        });
    }
}

/// Sub-checks 2+3: every non-plumbing parameter of the checkpoint header
/// builder must appear in a written header field, and the keys the
/// builder writes must equal the keys the loader reads back.
fn check_header_builder(files: &[ScannedFile], out: &mut FingerprintCoverage) {
    let Some(file) = find_file(files, HEADER_FILE) else {
        missing(out, HEADER_FILE, "checkpoint header file");
        return;
    };
    let Some(builder) = find_fn(file, HEADER_BUILDER, Some(HEADER_OWNER)) else {
        missing(out, HEADER_FILE, &format!("header builder `{HEADER_OWNER}::{HEADER_BUILDER}`"));
        return;
    };
    let ItemKind::Fn { params, body: Some((open, close)) } = &builder.kind else {
        missing(out, HEADER_FILE, "header builder body");
        return;
    };
    let ts = &file.lexed.tokens;
    let mut written_keys: BTreeSet<String> = BTreeSet::new();
    let mut ingredient_idents: BTreeSet<&str> = BTreeSet::new();
    let mut k = *open;
    while k <= *close {
        let is_field_call = matches!(ident_at(ts, k), Some(id) if FIELD_CALLS.contains(&id))
            && is_punct(ts, k + 1, b'(');
        if !is_field_call {
            k += 1;
            continue;
        }
        let Some(args_close) = matching(ts, k + 1, b'(', b')') else {
            k += 1;
            continue;
        };
        let mut key = None;
        for j in k + 2..args_close {
            if key.is_none() {
                if let Some(lit) = literal_at(ts, j) {
                    key = Some(literal_inner(lit).to_string());
                    continue;
                }
            }
            if let Some(id) = ident_at(ts, j) {
                ingredient_idents.insert(id);
            }
        }
        if let Some(key) = key {
            if !ENVELOPE_KEYS.contains(&key.as_str()) {
                written_keys.insert(key);
            }
        }
        k = args_close + 1;
    }
    for param in params {
        if BUILDER_SKIP_PARAMS.contains(&param.as_str()) {
            continue;
        }
        if !ingredient_idents.contains(param.as_str()) {
            out.findings.push(Finding {
                rule: Rule::D7,
                file: file.ctx.path.clone(),
                line: builder.line,
                col: 1,
                message: format!(
                    "header builder parameter `{param}` does not flow into any written \
                     header field — a session identity input the header misses breaks \
                     resume determinism silently"
                ),
            });
        }
    }
    // The loader side: keys read inside the `checkpoint_header` match arm.
    let Some(loader) = find_fn(file, HEADER_LOADER, None) else {
        missing(out, HEADER_FILE, &format!("header loader `{HEADER_LOADER}`"));
        return;
    };
    let ItemKind::Fn { body: Some((lopen, lclose)), .. } = loader.kind else {
        missing(out, HEADER_FILE, "header loader body");
        return;
    };
    let arm_key = (lopen..=lclose).find(|&j| {
        literal_at(ts, j).is_some_and(|l| literal_inner(l) == HEADER_ARM_KEY)
            // The *arm* pattern `Some("checkpoint_header") => {`, not the
            // builder-side or comparison uses: the literal is followed by
            // `)` `=` `>`.
            && is_punct(ts, j + 1, b')')
            && is_punct(ts, j + 2, b'=')
            && is_punct(ts, j + 3, b'>')
    });
    let Some(arm_key) = arm_key else {
        missing(out, HEADER_FILE, &format!("loader match arm for \"{HEADER_ARM_KEY}\""));
        return;
    };
    let Some(arm_open) = (arm_key..=lclose).find(|&j| is_punct(ts, j, b'{')) else {
        missing(out, HEADER_FILE, "loader header-arm body");
        return;
    };
    let Some(arm_close) = matching(ts, arm_open, b'{', b'}') else {
        missing(out, HEADER_FILE, "loader header-arm body");
        return;
    };
    let mut read_keys: BTreeSet<String> = BTreeSet::new();
    let mut k = arm_open;
    while k <= arm_close {
        let is_get = matches!(ident_at(ts, k), Some(id) if GET_CALLS.contains(&id))
            && is_punct(ts, k + 1, b'(');
        if !is_get {
            k += 1;
            continue;
        }
        let Some(args_close) = matching(ts, k + 1, b'(', b')') else {
            k += 1;
            continue;
        };
        if let Some(lit) = (k + 2..args_close).find_map(|j| literal_at(ts, j)) {
            let key = literal_inner(lit);
            if !ENVELOPE_KEYS.contains(&key) {
                read_keys.insert(key.to_string());
            }
        }
        k = args_close + 1;
    }
    for key in written_keys.difference(&read_keys) {
        out.findings.push(Finding {
            rule: Rule::D7,
            file: file.ctx.path.clone(),
            line: loader.line,
            col: 1,
            message: format!(
                "header key `{key}` is written by `{HEADER_OWNER}::{HEADER_BUILDER}` but \
                 never read back in `{HEADER_LOADER}` — resume silently ignores it"
            ),
        });
    }
    for key in read_keys.difference(&written_keys) {
        out.findings.push(Finding {
            rule: Rule::D7,
            file: file.ctx.path.clone(),
            line: builder.line,
            col: 1,
            message: format!(
                "header key `{key}` is read by `{HEADER_LOADER}` but never written by \
                 `{HEADER_OWNER}::{HEADER_BUILDER}` — resume always takes its fallback"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileContext;

    fn scanned(path: &str, src: &str) -> ScannedFile {
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|p| p.split('/').next())
            .unwrap_or("comet")
            .to_string();
        ScannedFile::new(FileContext { path: path.to_string(), crate_name }, src.as_bytes())
    }

    #[test]
    fn taint_closes_over_the_use_graph_from_roots() {
        let files = vec![
            scanned("crates/core/src/trace.rs", "pub struct CleaningTrace { pub n: usize }"),
            scanned("crates/core/src/lib.rs", "use comet_ml::Model; use comet_obs::Counter;"),
            scanned("crates/ml/src/lib.rs", "use comet_frame::Frame;"),
            scanned("crates/frame/src/lib.rs", "pub struct Frame;"),
            scanned("crates/obs/src/lib.rs", "pub struct Counter;"),
            scanned("crates/serve/src/lib.rs", "use comet_core::Session;"),
        ];
        let t = compute_taint(&files, &[]);
        assert_eq!(t.roots, ["core"].map(String::from).into());
        // core -> {ml, obs}, ml -> frame; serve *uses* core but nothing
        // trace-writing reaches serve.
        let want: BTreeSet<String> = ["core", "ml", "obs", "frame"].map(String::from).into();
        assert_eq!(t.reachable, want);
        assert!(!t.reachable.contains("serve"));
        assert!(t.errors.is_empty(), "{:?}", t.errors);
    }

    #[test]
    fn step_record_construction_is_a_root_but_tests_are_not() {
        let files = vec![
            scanned(
                "crates/baselines/src/cl.rs",
                "fn rec() { let r = StepRecord { iteration: 0 }; }",
            ),
            scanned(
                "crates/bench/src/lib.rs",
                "#[cfg(test)]\nmod t { fn rec() { let r = StepRecord { iteration: 0 }; } }",
            ),
        ];
        let t = compute_taint(&files, &[]);
        assert_eq!(t.roots, ["baselines"].map(String::from).into());
    }

    #[test]
    fn exemption_subtracts_and_goes_stale_when_unreachable() {
        let files = vec![
            scanned("crates/core/src/trace.rs", "pub struct CleaningTrace;\nuse comet_obs::C;"),
            scanned("crates/obs/src/lib.rs", "pub struct C;"),
        ];
        let exempt = vec![ExemptEntry { name: "obs".into(), reason: "audited counters".into() }];
        let t = compute_taint(&files, &exempt);
        assert!(t.reachable.contains("obs"));
        assert!(!t.trace_affecting.contains("obs"));
        assert!(t.errors.is_empty());
        // Same exemption without the edge: stale.
        let files = vec![scanned("crates/core/src/trace.rs", "pub struct CleaningTrace;")];
        let t = compute_taint(&files, &exempt);
        assert_eq!(t.errors.len(), 1);
        assert!(t.errors[0].contains("stale"), "{}", t.errors[0]);
    }

    #[test]
    fn no_roots_is_a_self_check_error() {
        let files = vec![scanned("crates/obs/src/lib.rs", "pub struct C;")];
        let t = compute_taint(&files, &[]);
        assert_eq!(t.errors.len(), 1);
        assert!(t.errors[0].contains("no trace-writing roots"), "{}", t.errors[0]);
    }

    const CONFIG_SRC: &str =
        "pub struct CometConfig {\n    pub budget: f64,\n    pub segment_rows: usize,\n}";
    const DETECT_SRC: &str = "pub struct DetectorConfig {\n    pub knn_k: usize,\n}";

    fn d7_files(fp_body: &str) -> Vec<ScannedFile> {
        let checkpoint = format!(
            "pub(crate) fn config_fingerprint(config: &CometConfig, errors: &[ErrorType]) -> u64 {{\n    {fp_body}\n}}\n\
             pub(crate) fn detect_fingerprint(detect: &Option<DetectorConfig>) -> u64 {{\n    mix_bytes(0xDE, format!(\"{{detect:?}}\").as_bytes())\n}}\n\
             impl CheckpointWriter {{\n    pub fn create(path: &Path, seed: u64) -> Result<Self, E> {{\n        obj.field_str(\"kind\", \"checkpoint_header\").field_str(\"seed\", &hex(seed));\n        Ok(w)\n    }}\n}}\n\
             pub(crate) fn load(path: &Path) -> Result<Data, E> {{\n    match value.get(\"kind\") {{\n        Some(\"checkpoint_header\") => {{\n            data.seed = get_hex(&value, \"seed\")?;\n        }}\n        _ => {{}}\n    }}\n    Ok(data)\n}}"
        );
        vec![
            scanned("crates/core/src/config.rs", CONFIG_SRC),
            scanned("crates/detect/src/config.rs", DETECT_SRC),
            scanned("crates/core/src/checkpoint.rs", &checkpoint),
        ]
    }

    #[test]
    fn whole_struct_debug_capture_covers_every_field() {
        let files = d7_files("mix_bytes(0xC0, format!(\"{config:?}|{errors:?}\").as_bytes())");
        let cov = fingerprint_coverage(&files);
        assert!(cov.findings.is_empty(), "{:?}", cov.findings);
    }

    #[test]
    fn dropping_the_capture_uncovers_all_fields() {
        let files = d7_files("mix_bytes(0xC0, format!(\"{errors:?}\").as_bytes())");
        let cov = fingerprint_coverage(&files);
        let fields: Vec<&str> = cov
            .findings
            .iter()
            .filter(|f| f.file == "crates/core/src/config.rs")
            .map(|f| f.message.split('`').nth(1).unwrap_or(""))
            .collect();
        assert_eq!(fields, ["CometConfig.budget", "CometConfig.segment_rows"]);
    }

    #[test]
    fn per_field_mixing_covers_exactly_the_mixed_fields() {
        let files = d7_files("mix(mix(0, config.budget.to_bits()), errors.len() as u64)");
        let cov = fingerprint_coverage(&files);
        let msgs: Vec<&str> = cov.findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("CometConfig.segment_rows"));
    }

    #[test]
    fn nofp_pragma_excuses_a_field_and_is_credited() {
        let config = "pub struct CometConfig {\n    pub budget: f64,\n    // comet-lint: nofp — label only, never read by the session\n    pub label: String,\n}";
        let mut files = d7_files("mix(0, config.budget.to_bits()) ^ errors.len() as u64");
        files[0] = scanned("crates/core/src/config.rs", config);
        let cov = fingerprint_coverage(&files);
        assert!(cov.findings.is_empty(), "{:?}", cov.findings);
        assert_eq!(cov.credited_nofp, [("crates/core/src/config.rs".to_string(), 3u32)].into());
    }

    #[test]
    fn builder_param_and_key_roundtrip_mismatches_are_findings() {
        // `tier` never written; `lane` written but never read; `extra`
        // read but never written.
        let checkpoint = "impl CheckpointWriter {\n    pub fn create(path: &Path, seed: u64, tier: u8) -> Result<Self, E> {\n        obj.field_str(\"kind\", \"h\").field_str(\"seed\", &hex(seed)).field_u64(\"lane\", 8);\n        Ok(w)\n    }\n}\nfn load(path: &Path) -> Result<Data, E> {\n    match value.get(\"kind\") {\n        Some(\"checkpoint_header\") => {\n            data.seed = get_hex(&value, \"seed\")?;\n            data.extra = get_f64(&value, \"extra\")?;\n        }\n        _ => {}\n    }\n    Ok(data)\n}";
        let files = vec![scanned("crates/core/src/checkpoint.rs", checkpoint)];
        let cov = fingerprint_coverage(&files);
        let header: Vec<&str> = cov
            .findings
            .iter()
            .filter(|f| f.file == "crates/core/src/checkpoint.rs")
            .map(|f| f.message.as_str())
            .collect();
        assert!(header.iter().any(|m| m.contains("`tier`")), "{header:?}");
        assert!(header.iter().any(|m| m.contains("`lane`")), "{header:?}");
        assert!(header.iter().any(|m| m.contains("`extra`")), "{header:?}");
    }

    #[test]
    fn missing_targets_are_findings_not_silence() {
        let cov = fingerprint_coverage(&[]);
        assert!(!cov.findings.is_empty());
        assert!(cov.findings.iter().all(|f| f.rule == Rule::D7));
    }
}
