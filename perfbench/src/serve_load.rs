//! Closed-loop load generator for a running `comet serve` daemon.
//!
//! `SERVE_CLIENTS` client threads, one connection each. Every cycle, a
//! client generates a fresh pair of the workload (client `c`, cycle `i`:
//! pair `i * SERVE_CLIENTS + c`), uploads it, and runs one session per
//! learner of the workload on it, back to back: send `start`, poll
//! `status` until the session is done, start the next. The clients start
//! together once every first upload is in, and each runs `--cycles`
//! cycles, so every run serves the same pairs and every learner equally
//! often. With `--cycles 0` the clients only make their first upload.

use crate::session::SessionInput;
use crate::workload::{self, SERVE_CLIENTS, SESSION_SEED};
use crate::{flag, flag_num, Flags};
use comet_obs::json::{JsonObject, JsonValue};
use comet_serve::protocol::Response;
use comet_serve::Client;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Status poll period while a session runs.
const POLL: Duration = Duration::from_millis(10);
/// Retries of an admission rejection before the session counts as failed.
const MAX_REJECTIONS: usize = 50;

struct Served {
    client: usize,
    pair: usize,
    algo: &'static str,
    id: String,
    status: String,
    iterations: u64,
    start_ack_s: f64,
    queue_wait_s: f64,
    turnaround_s: f64,
    rejections: usize,
}

struct ClientReport {
    upload_s: Vec<f64>,
    served: Vec<Served>,
    /// Uploads and sessions that failed before they had a session id.
    failures: Vec<String>,
}

pub fn cmd_serve_load(input: &SessionInput, flags: &Flags) -> Result<String, String> {
    let port: u16 = flag(flags, "port")?.parse().map_err(|e| format!("--port: {e}"))?;
    let cycles: usize = flag_num(flags, "cycles", 1)?;
    let seed: u64 = flag_num(flags, "seed", 1)?;
    let started = Instant::now();
    let uploaded = Barrier::new(SERVE_CLIENTS + 1);
    let mut uploads_s = 0.0;
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|c| {
                let uploaded = &uploaded;
                scope.spawn(move || run_client(input, seed, port, c, cycles, uploaded))
            })
            .collect();
        uploaded.wait();
        uploads_s = started.elapsed().as_secs_f64();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientReport {
                    upload_s: Vec::new(),
                    served: Vec::new(),
                    failures: vec!["client thread panicked".into()],
                })
            })
            .collect()
    });
    let load_s = started.elapsed().as_secs_f64() - uploads_s;

    let mut out = JsonObject::new();
    out.field_f64("uploads_s", uploads_s).field_f64("load_s", load_s);
    let uploads: Vec<f64> = reports.iter().flat_map(|r| r.upload_s.iter().copied()).collect();
    out.field_raw("upload_s", &comet_obs::json::array_f64(&uploads));
    let sessions: Vec<String> = reports
        .iter()
        .flat_map(|r| &r.served)
        .map(|s| {
            let mut o = JsonObject::new();
            o.field_u64("client", s.client as u64)
                .field_u64("pair", s.pair as u64)
                .field_str("algo", s.algo)
                .field_str("id", &s.id)
                .field_str("status", &s.status)
                .field_u64("iterations", s.iterations)
                .field_f64("start_ack_s", s.start_ack_s)
                .field_f64("queue_wait_s", s.queue_wait_s)
                .field_f64("turnaround_s", s.turnaround_s)
                .field_u64("rejections", s.rejections as u64);
            o.finish()
        })
        .collect();
    out.field_raw("sessions", &format!("[{}]", sessions.join(",")));
    let failures: Vec<String> = reports.iter().flat_map(|r| r.failures.iter().cloned()).collect();
    out.field_raw("failures", &crate::json_strings(&failures));
    if flags.contains_key("stats") {
        let mut client = Client::connect(port).map_err(|e| format!("connect: {e}"))?;
        let stats = client.request_ok(r#"{"cmd":"stats"}"#).map_err(|e| e.to_string())?;
        out.field_raw("stats", &stats.to_string());
    }
    Ok(out.finish())
}

fn run_client(
    input: &SessionInput,
    seed: u64,
    port: u16,
    c: usize,
    cycles: usize,
    uploaded: &Barrier,
) -> ClientReport {
    let mut report =
        ClientReport { upload_s: Vec::new(), served: Vec::new(), failures: Vec::new() };
    let mut client = Client::connect(port).map_err(|e| format!("connect: {e}"));
    let algos = input.workload.algorithms();
    for cycle in 0..cycles.max(1) {
        let pair = cycle * SERVE_CLIENTS + c;
        let datasets = match client.as_mut() {
            Ok(client) => upload_pair(input, seed, pair, client, &mut report.upload_s),
            Err(e) => Err(e.clone()),
        };
        if cycle == 0 {
            uploaded.wait();
        }
        let (dirty, clean) = match datasets {
            Ok(d) => d,
            Err(e) => {
                report.failures.push(e);
                break;
            }
        };
        if cycle == cycles {
            break;
        }
        let Ok(client) = client.as_mut() else { break };
        for algo in algos.iter().map(|a| a.name()) {
            let mut req = JsonObject::new();
            req.field_str("cmd", "start")
                .field_str("dirty", &dirty)
                .field_str("clean", &clean)
                .field_str("label", &input.label)
                .field_str("algo", algo)
                .field_f64("budget", input.config().budget)
                .field_u64("seed", SESSION_SEED)
                .field_str("tenant", &format!("client{c}"));
            if input.workload.detect() {
                req.field_raw("detect", "true");
            }
            match serve_one(client, &req.finish()) {
                Ok(mut s) => {
                    s.client = c;
                    s.pair = pair;
                    s.algo = algo;
                    report.served.push(s);
                }
                Err(e) => report.failures.push(format!("{algo} session: {e}")),
            }
        }
    }
    report
}

/// Generate pair `pair` of the workload and upload both files; returns
/// the (dirty, clean) dataset fingerprints.
fn upload_pair(
    input: &SessionInput,
    seed: u64,
    pair: usize,
    client: &mut Client,
    upload_s: &mut Vec<f64>,
) -> Result<(String, String), String> {
    workload::write_pair(input.workload, seed, pair, input.smoke, &input.dir)?;
    let pair_input = SessionInput { pair, ..input.clone() };
    let mut upload = |path: std::path::PathBuf| -> Result<String, String> {
        let csv = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
        let mut req = JsonObject::new();
        req.field_str("cmd", "upload").field_str("csv", &csv);
        let t = Instant::now();
        let resp = client.request_ok(&req.finish()).map_err(|e| format!("upload: {e}"))?;
        upload_s.push(t.elapsed().as_secs_f64());
        resp.get("dataset")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| "upload response without dataset".to_string())
    };
    Ok((upload(pair_input.dirty_path())?, upload(pair_input.clean_path())?))
}

/// Start one session and poll it to the end.
fn serve_one(client: &mut Client, start: &str) -> Result<Served, String> {
    let sent = Instant::now();
    let mut rejections = 0usize;
    let ack = loop {
        match client.request(start).map_err(|e| e.to_string())? {
            Response::Ok(v) => break v,
            Response::Err(e) if e.retryable && rejections < MAX_REJECTIONS => {
                rejections += 1;
                std::thread::sleep(Duration::from_millis(e.backoff_ms.unwrap_or(100)));
            }
            Response::Err(e) => return Err(e.to_string()),
        }
    };
    let start_ack_s = sent.elapsed().as_secs_f64();
    let id = ack.get("session").and_then(JsonValue::as_str).ok_or("start ack without id")?;
    let mut status_req = JsonObject::new();
    status_req.field_str("cmd", "status").field_str("session", id);
    let status_req = status_req.finish();
    let mut running_at = None;
    loop {
        let st = client.request_ok(&status_req).map_err(|e| e.to_string())?;
        let status = st.get("status").and_then(JsonValue::as_str).unwrap_or("").to_string();
        let now = sent.elapsed().as_secs_f64();
        if status != "queued" && running_at.is_none() {
            running_at = Some(now);
        }
        if matches!(status.as_str(), "done" | "failed" | "stopped") {
            return Ok(Served {
                client: 0,
                pair: 0,
                algo: "",
                id: id.to_string(),
                status,
                iterations: st.get("iterations").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64,
                start_ack_s,
                queue_wait_s: running_at.unwrap_or(now) - start_ack_s,
                turnaround_s: now,
                rejections,
            });
        }
        std::thread::sleep(POLL);
    }
}
