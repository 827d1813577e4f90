//! Wire-path regression tests for the session daemon: request latency on
//! one connection, large uploads, and JSON string parsing time. Each
//! guards a protocol cost that has nothing to do with cleaning — Nagle's
//! algorithm meeting delayed ACKs (about 40 ms per frame) and a string
//! parser that was quadratic in the string length.

use comet_obs::json::{self, JsonObject, JsonValue};
use comet_serve::protocol::{kind, Response};
use comet_serve::{Client, Daemon, ServeConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comet_serve_wire_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_daemon(root: &Path) -> Daemon {
    Daemon::start(ServeConfig {
        root: root.to_path_buf(),
        workers: 1,
        port: 0,
        report_every: Duration::from_secs(3600),
        ..ServeConfig::default()
    })
    .unwrap()
}

fn stop(daemon: Daemon) {
    daemon.request_drain();
    daemon.join();
}

#[test]
fn sequential_requests_on_one_connection_are_not_delayed() {
    let root = temp_root("latency");
    let daemon = start_daemon(&root);
    let mut client = Client::connect(daemon.port()).unwrap();
    let started = Instant::now();
    for i in 0..100 {
        let pong = client.request_ok("{\"cmd\":\"ping\"}").unwrap();
        assert_eq!(pong.get("pong"), Some(&JsonValue::Bool(true)), "ping {i}");
        match client.request("{\"cmd\":\"status\",\"session\":\"s99999999\"}").unwrap() {
            Response::Err(e) => assert_eq!(e.kind, kind::NOT_FOUND, "status {i}"),
            Response::Ok(v) => panic!("status {i} of an unknown session answered ok: {v}"),
        }
    }
    let elapsed = started.elapsed();
    // Two writes per frame with Nagle on cost ~80 ms per round trip,
    // ~16 s for these 200; one write per frame with TCP_NODELAY is
    // well under a millisecond each.
    assert!(elapsed < Duration::from_secs(2), "200 round trips took {elapsed:?}");
    drop(client);
    stop(daemon);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn large_upload_is_stored_byte_equal() {
    let mut csv = String::from("a,b,c,d,e,y\n");
    let mut i = 0u64;
    while csv.len() < 2 << 20 {
        for k in 1..=5u64 {
            let v = ((i * 2_654_435_761 + k * 40_503) % 100_003) as f64 / 97.0 - 500.0;
            csv.push_str(&format!("{v:.5},"));
        }
        csv.push_str(&format!("{}\n", i % 3));
        i += 1;
    }
    let root = temp_root("upload");
    let daemon = start_daemon(&root);
    let mut client = Client::connect(daemon.port()).unwrap();
    let mut request = JsonObject::new();
    request.field_str("cmd", "upload").field_str("csv", &csv);
    let started = Instant::now();
    let response = client.request_ok(&request.finish()).unwrap();
    let elapsed = started.elapsed();
    let fp = response.get("dataset").and_then(JsonValue::as_str).unwrap().to_string();
    assert_eq!(fp, comet_serve::store::fingerprint(csv.as_bytes()));
    let stored = std::fs::read(root.join("datasets").join(format!("{fp}.csv"))).unwrap();
    assert!(stored == csv.as_bytes(), "stored dataset differs from the upload");
    assert!(elapsed < Duration::from_secs(10), "a 2 MB upload took {elapsed:?}");
    drop(client);
    stop(daemon);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn long_json_strings_round_trip_in_linear_time() {
    let mut s = String::new();
    while s.len() < 4 << 20 {
        s.push_str("-12.5,3.25,x\\y,\"quoted\",héllo 世界\n");
    }
    let mut doc = JsonObject::new();
    doc.field_str("cmd", "upload").field_str("csv", &s);
    let text = doc.finish();
    let started = Instant::now();
    let parsed = json::parse(&text).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(parsed.get("csv").and_then(JsonValue::as_str), Some(s.as_str()));
    assert!(elapsed < Duration::from_secs(1), "parsing a 4 MB string took {elapsed:?}");
}
