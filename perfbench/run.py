#!/usr/bin/env python3
"""End-to-end COMET benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout of the repository. Builds the benchmark
worker (perfbench/, its own cargo package) and the `comet` binary in
release mode, generates the workload's CSV inputs from --seed, measures,
checks every output, and prints one JSON object as the last line of
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, from untraced runs only.
--trace 1 reports the per-layer metrics of a separate traced run.
See perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import json
import math
import os
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import time

WORKLOADS = ("oracle-knn-eeg", "detect-svm-churn", "serve-mixed-cmc")
THREADS = 2  # host parallelism of every measured process (COMET_THREADS)
SERVE_SETUPS = 3  # daemon start + uploads, repeated; setup_s is the median
# --seconds sizes the work of a run, which is then the same on every
# commit: sessions (knn, svm) or cycles per serve client. At these rates a
# run measures about --seconds on a 2-vCPU host.
SESSIONS_PER_S = 1.5
SERVE_CYCLE_S = 3.0
DEADLINE_S = 170  # every run ends within this many seconds after the build
# Median time of the host-speed probe (src/probe.rs) on the 2-vCPU host the
# bounds were set on. Time metrics are reported at that host speed: each
# is multiplied by PROBE_REF_S / the run's median probe time.
PROBE_REF_S = 0.0155


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class Bench:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.smoke = ["--smoke"] if args.smoke else []
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        self.target = os.path.join(root, target)
        self.worker = os.path.join(self.target, "release", "comet-perfbench")
        self.comet = os.path.join(self.target, "release", "comet")
        self.work = os.path.join(
            self.target, "perfbench", "%s-%d-%d" % (args.workload, args.seed, os.getpid())
        )
        self.env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        # The default CometConfig: scalar kernels, whatever the caller's
        # shell says.
        self.env.pop("COMET_KERNELS", None)
        self.env.pop("COMET_THREADS", None)
        self.deadline = None
        self.problems = []
        self.label = None
        self.probes = []

    # ---- processes -------------------------------------------------------

    def remaining(self):
        return max(5.0, self.deadline - time.monotonic())

    def build(self):
        for cmd in (
            ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
            ["cargo", "build", "--release", "--offline", "--bin", "comet"],
        ):
            subprocess.run(cmd, cwd=self.root, env=self.env, stdout=sys.stderr, check=True)

    def worker_env(self, threads):
        return dict(self.env, COMET_THREADS=str(threads))

    def worker_args(self, cmd, *args):
        return [self.worker, cmd, "--workload", self.args.workload, "--dir", self.work] + list(args)

    def run_worker(self, cmd, *args):
        """Run one worker process to completion; its last stdout line is JSON."""
        p = subprocess.run(
            self.worker_args(cmd, *args),
            env=self.worker_env(THREADS),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=self.remaining(),
        )
        if p.returncode != 0:
            raise RuntimeError("worker %s failed: %s" % (cmd, p.stderr.strip()[-2000:]))
        return json.loads(p.stdout.strip().splitlines()[-1])

    def probe(self):
        """Time the host-speed probe once, between measured work."""
        self.probes.append(self.run_worker("probe", "--reps", "5")["probe_s"])

    def at_host_speed(self, metrics):
        """Scale the time metrics to the host speed PROBE_REF_S stands for.

        The host's speed drifts by a fifth and more over minutes, the same
        way for the probe and the program; the probe's own work never
        changes, so a change to the program moves the scaled figures as
        much as the raw ones. Returns the raw figures and the probe times,
        for the summary.
        """
        raw = {k: metrics[k] for k in ("recommendation_s", "model_eval_ms", "setup_s")}
        slowdown = statistics.median(self.probes) / PROBE_REF_S
        for k, v in raw.items():
            metrics[k] = v / slowdown
        return {"raw": raw, "probe_s": self.probes, "host_slowdown": slowdown}

    def gen(self, pair):
        out = self.run_worker("gen", "--seed", str(self.args.seed), "--pair", str(pair), *self.smoke)
        self.label = out["label"]

    def references(self, jobs):
        """In-process traces at COMET_THREADS=1, two processes at a time.

        jobs: list of (name, extra args). Returns {name: (json, trace text)}.
        """
        out = {}
        pending = list(jobs)
        while pending:
            batch, pending = pending[:THREADS], pending[THREADS:]
            procs = []
            for name, extra in batch:
                path = os.path.join(self.work, "ref-%s.csv" % name)
                args = self.worker_args(
                    "session", "--label", self.label, "--trace-out", path, *extra, *self.smoke
                )
                procs.append((name, path, subprocess.Popen(
                    args, env=self.worker_env(1), stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True)))
            for name, path, proc in procs:
                try:
                    stdout, stderr = proc.communicate(timeout=self.remaining())
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate()
                    self.problems.append("reference %s timed out" % name)
                    continue
                if proc.returncode != 0:
                    self.problems.append("reference %s failed: %s" % (name, stderr.strip()[-500:]))
                    continue
                result = json.loads(stdout.strip().splitlines()[-1])
                for p in result["problems"]:
                    self.problems.append("reference %s: %s" % (name, p))
                out[name] = (result, read(path))
        return out

    # ---- the daemon --------------------------------------------------------

    def start_daemon(self, store, metrics_out=None):
        port_file = store + ".port"
        cmd = [self.comet, "serve", "--root", store, "--workers", "2", "--port-file", port_file]
        if metrics_out:
            cmd += ["--metrics-out", metrics_out]
        log_file = open(store + ".log", "w")
        started = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.worker_env(THREADS), stdout=log_file,
                                stderr=subprocess.STDOUT)
        log_file.close()
        while True:
            if proc.poll() is not None:
                raise RuntimeError("comet serve exited with %s" % proc.returncode)
            if time.monotonic() - started > 30:
                stop(proc)
                raise RuntimeError("comet serve did not become ready")
            text = read(port_file) if os.path.exists(port_file) else ""
            if text.endswith("\n"):
                port = int(text)
                try:
                    if request(port, {"cmd": "ping"}).get("ok"):
                        return proc, port, time.monotonic() - started
                except OSError:
                    pass
            time.sleep(0.002)

    def drain(self, proc, port):
        try:
            request(port, {"cmd": "drain"})
            proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.problems.append("daemon did not drain")
        stop(proc)

    def serve_phase(self, cycles, stats, index):
        """Start a daemon, upload, run the closed loop, drain.

        Returns (ready_s, load json, daemon VmHWM MiB, store dir).
        """
        store = os.path.join(self.work, "store%d" % index)
        metrics = os.path.join(self.work, "serve%d.jsonl" % index) if stats else None
        proc, port, ready_s = self.start_daemon(store, metrics)
        try:
            args = ["--label", self.label, "--port", str(port), "--cycles", str(cycles),
                    "--seed", str(self.args.seed)]
            load = self.run_worker("serve-load", *args, *(["--stats"] if stats else []), *self.smoke)
            rss = vm_hwm_mb(proc.pid)
        finally:
            self.drain(proc, port)
        self.problems.extend("serve: %s" % f for f in load["failures"])
        self.problems.extend("serve: session %s ended %s" % (s["id"], s["status"])
                             for s in load["sessions"] if s["status"] != "done")
        return ready_s, load, rss, store

    def check_served(self, load, store):
        """Every served trace must equal the in-process trace of its manifest.

        Returns {(pair, algo): reference json}.
        """
        keys = sorted({(s["pair"], s["algo"]) for s in load["sessions"]})
        jobs = [("served-%d-%s" % k, ["--served", "--pair", str(k[0]), "--algo", k[1]]) for k in keys]
        refs = self.references(jobs)
        by_key = {}
        for k in keys:
            name = "served-%d-%s" % k
            if name in refs:
                by_key[k] = refs[name]
        for s in load["sessions"]:
            ref = by_key.get((s["pair"], s["algo"]))
            path = os.path.join(store, "sessions", s["id"], "trace.csv")
            served = read(path) if os.path.exists(path) else None
            if ref is None or served is None or served != strip_comments(ref[1]):
                s["mismatch"] = True
                self.problems.append("served trace %s (%s) differs from the in-process trace"
                                     % (s["id"], s["algo"]))
        return {k: v[0] for k, v in by_key.items()}

    # ---- workloads -----------------------------------------------------------

    def serve_cycles(self):
        return max(1, round(self.args.seconds / SERVE_CYCLE_S))

    def untraced_sessions(self):
        """Session processes back to back, one fresh pair each."""
        results = []
        for pair in range(max(1, round(self.args.seconds * SESSIONS_PER_S))):
            self.probe()
            self.gen(pair)
            trace = os.path.join(self.work, "run-%d.csv" % pair)
            try:
                r = self.run_worker("session", "--label", self.label, "--pair", str(pair),
                                    "--trace-out", trace, *self.smoke)
                r["trace"] = read(trace)
            except (RuntimeError, subprocess.TimeoutExpired) as e:
                r = {"error": str(e)}
                self.problems.append(str(e))
            results.append(r)
            if time.monotonic() > self.deadline - 60:
                break
        self.probe()
        refs = self.references([("pair%d" % i, ["--pair", str(i)]) for i in range(len(results))])
        failed = 0
        for i, r in enumerate(results):
            bad = "error" in r or r["problems"]
            ref = refs.get("pair%d" % i)
            if not bad and (ref is None or ref[1] != r["trace"]):
                self.problems.append("pair %d: trace differs from the COMET_THREADS=1 reference" % i)
                bad = True
            self.problems.extend("pair %d: %s" % (i, p) for p in r.get("problems", []))
            failed += bool(bad)
        ok = [r for r in results if "error" not in r]
        if not ok:
            raise RuntimeError("no session completed")
        # Per-session ratios, then the median over the run's sessions: one
        # pair whose tuned model trains unusually long or short does not
        # move the run's figure. Session times count at the middle of the
        # tune's epoch range (work_scale in session.rs): which epochs each
        # pair tunes to is a property of the generated data, not of the
        # program's speed.
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in ok),
            "recommendation_s": statistics.median(
                r["session_s"] / r["work_scale"] / r["iterations"] for r in ok),
            "model_eval_ms": statistics.median(
                1000 * r["session_s"] / r["work_scale"] / r["model_evals"] for r in ok),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in ok),
        }
        summary = {
            "sessions": len(results),
            "session_s": [r.get("session_s") for r in results],
            "iterations": [r.get("iterations") for r in results],
            "model_evals": [r.get("model_evals") for r in results],
            "tuned": [r.get("tuned") for r in results],
            "work_scale": [r.get("work_scale") for r in results],
            "f1_gain_pt": [100 * (r["final_f1"] - r["initial_f1"]) for r in ok],
        }
        summary.update(self.at_host_speed(metrics))
        return metrics, len(results), failed, summary

    def untraced_serve(self):
        setups = []
        main = None
        for i in range(SERVE_SETUPS):
            cycles = self.serve_cycles() if i == 0 else 0
            self.probe()
            ready_s, load, rss, store = self.serve_phase(cycles, False, i)
            self.probe()
            setups.append(ready_s + load["uploads_s"])
            if i == 0:
                main = (load, rss, store)
        load, rss, store = main
        refs = self.check_served(load, store)
        sessions = load["sessions"]
        if not sessions:
            raise RuntimeError("no session was served")
        done = [s for s in sessions if (s["pair"], s["algo"]) in refs and s["iterations"] > 0]
        if not done:
            raise RuntimeError("no served session has a reference")
        # Median per learner, then the geometric mean over the learners:
        # each learner weighs the same however its tuned model turns out.
        # Turnarounds count at the middle of the tune's epoch range, as in
        # untraced_sessions.
        def scaled(s):
            return s["turnaround_s"] / refs[(s["pair"], s["algo"])]["work_scale"]

        metrics = {
            "setup_s": statistics.median(setups),
            "recommendation_s": per_learner(done, lambda s: scaled(s) / s["iterations"]),
            "model_eval_ms": per_learner(
                done, lambda s: 1000 * scaled(s) / refs[(s["pair"], s["algo"])]["model_evals"]),
            "peak_rss_mb": rss,
        }
        attempted, failed = served_counts(load)
        summary = serve_summary(load)
        summary["setups_s"] = setups
        summary.update(self.at_host_speed(metrics))
        return metrics, attempted, failed, summary

    def traced(self):
        w = self.args.workload
        self.gen(0)
        served_args = ["--served", "--algo", "svm"] if w == "serve-mixed-cmc" else []
        trace = os.path.join(self.work, "traced.csv")
        spans = os.path.join(self.target, "perfbench", "spans-%s.jsonl" % w)
        layer = self.run_worker(
            "trace", "--label", self.label, "--run-id", "%s-%d" % (w, self.args.seed),
            "--trace-out", trace, "--spans-out", spans, *served_args, *self.smoke)
        self.problems.extend("traced session: %s" % p for p in layer.pop("problems"))
        shares = layer.pop("shares")
        ref = self.references([("traced", served_args)]).get("traced")
        attempted, failed = 1, 0
        if ref is None or ref[1] != read(trace):
            self.problems.append("traced run's trace differs from the COMET_THREADS=1 reference")
            failed = 1

        ready_s, load, _, store = self.serve_phase(self.serve_cycles(), True, 0)
        self.check_served(load, store)
        sessions = load["sessions"]
        stats = load["stats"]["metrics"]
        runtime = stats["histograms"].get("serve.session_runtime", {})
        summary = serve_summary(load)
        layer.update({
            "serve.ready_s": ready_s,
            "serve.upload_ms": 1000 * statistics.median(load["upload_s"]),
            "serve.start_ack_ms": 1000 * statistics.median(s["start_ack_s"] for s in sessions),
            "serve.queue_wait_s": statistics.median(s["queue_wait_s"] for s in sessions),
            "serve.run_s": runtime.get("mean", 0.0),
            "serve.admission_rejections": stats["counters"].get("serve.admission_rejections", 0),
            "serve.turnaround_p50_s": summary["turnaround_p50_s"],
            "serve.sessions_per_min": summary["sessions_per_min"],
        })
        served_attempted, served_failed = served_counts(load)
        attempted += served_attempted
        failed += served_failed
        return layer, attempted, failed, {"shares": shares, "serve": summary, "spans": spans}

    def run(self):
        os.makedirs(self.work, exist_ok=True)
        self.deadline = time.monotonic() + DEADLINE_S
        if self.args.trace:
            return self.traced()
        if self.args.workload == "serve-mixed-cmc":
            self.gen(0)  # the label; the load generator writes its own pairs
            return self.untraced_serve()
        return self.untraced_sessions()


# ---- helpers ---------------------------------------------------------------


def read(path):
    with open(path) as f:
        return f.read()


def strip_comments(text):
    return "".join(line for line in text.splitlines(True) if not line.startswith("#"))


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def request(port, obj):
    """One request over the daemon's length-prefixed JSON protocol."""
    payload = json.dumps(obj).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(struct.pack(">I", len(payload)) + payload)
        header = recv_exact(s, 4)
        return json.loads(recv_exact(s, struct.unpack(">I", header)[0]))


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise OSError("connection closed")
        buf += chunk
    return buf


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


def per_learner(sessions, value):
    by_algo = {}
    for s in sessions:
        by_algo.setdefault(s["algo"], []).append(value(s))
    logs = [math.log(statistics.median(v)) for v in by_algo.values()]
    return math.exp(sum(logs) / len(logs))


def served_counts(load):
    """(attempted, failed): sessions plus requests that never got a session."""
    sessions = load["sessions"]
    failed = sum(1 for s in sessions if s["status"] != "done" or s.get("mismatch"))
    return len(sessions) + len(load["failures"]), failed + len(load["failures"])


def serve_summary(load):
    sessions = load["sessions"]
    turnaround = sorted(s["turnaround_s"] for s in sessions)
    n = len(turnaround)
    # The highest percentile with at least ten samples beyond it.
    tail = None
    if n > 10:
        pct = int(100 * (n - 10) / n)
        tail = {"percentile": pct, "value_s": turnaround[max(0, -(-pct * n // 100) - 1)]}
    return {
        "sessions": n,
        "turnaround_p50_s": statistics.median(turnaround) if turnaround else 0.0,
        "turnaround_tail": tail,
        "sessions_per_min": 60.0 * n / load["load_s"] if load["load_s"] > 0 else 0.0,
        "algos": [s["algo"] for s in sessions],
        "turnaround_s": [s["turnaround_s"] for s in sessions],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, for the self-test")
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, needed)):
            log("perfbench: %s not found; run from the root of a repository checkout" % needed)
            return 2

    bench = Bench(args, root)
    try:
        bench.build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    try:
        values, attempted, failed, summary = bench.run()
        # Exactly the metrics BENCHMARK.json declares for this kind of run,
        # with its units.
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
        if not all(math.isfinite(m["value"]) for m in metrics.values()):
            raise ValueError("non-finite metric: %s" % metrics)
    except (OSError, RuntimeError, KeyError, ValueError, ZeroDivisionError,
            statistics.StatisticsError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    for p in bench.problems:
        log("perfbench: check failed: %s" % p)
    summary.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "comet_threads": THREADS, "nproc": os.cpu_count(), "problems": bench.problems,
    })
    report = os.path.join(bench.target, "perfbench", "report-%s-%d.json" % (args.workload, args.trace))
    with open(report, "w") as f:
        json.dump({"summary": summary, "metrics": metrics}, f, indent=1)
    log("perfbench: %s" % json.dumps(summary))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
