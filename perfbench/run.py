#!/usr/bin/env python3
"""Repository benchmark: one command per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --sensitivity        # the two sensitivity checks

Run from the repository root. The first run builds the perfbench binary and
prim_serve from the checkout's sources into .bench_build (or
$CARGO_TARGET_DIR when set). Build output goes to stderr; the last line of
stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics. Any correctness mismatch sets "correct" to
false and the exit code to 1. See perfbench/README.md for every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                        os.path.join(REPO, ".bench_build"))
PERFBENCH = os.path.join(BUILD, "perfbench")
PRIM_SERVE = os.path.join(BUILD, "prim", "src", "serve", "prim_serve")
NPROC = len(os.sched_getaffinity(0))

# train_full (full-batch Trainer::Fit on train_sampled's graph) is not a
# workload: its epoch time swung too far between runs (README.md, "Measured
# steadiness"). The sensitivity check still runs it.
WORKLOADS = ("train_sampled", "serve_read", "serve_churn")
SERVE_RATE = {"serve_read": 8000.0, "serve_churn": 2000.0}
SERVE_THREADS = 2          # 4 would oversubscribe 4 cores with the generator.
SERVE_CACHE = 4096
SERVER_LAUNCHES = 5        # setup_s is the median over these launches.
MIN_TRAIN_PROCS = 7        # Fresh trainer processes per run, at least.
# Timed epochs per thread count in one process. Few, so a run holds many
# processes; the traced process times more, for steadier layer medians.
TRAIN_EPOCHS = {"train_full": 2, "train_sampled": 1}
TRACE_EPOCHS = 3
TIMEOUT_S = 150

# Every workload prints every end-to-end metric, so each one must mean
# something, and never read 0, in all of them. cpu_cost_ms is the single-core
# cost of one unit of a workload's work: the 1-thread epoch of a trainer,
# the server's CPU time per answered request. Epoch time at nproc threads and
# request latencies swing with host noise on a shared VM, so they are
# reported by the traced run instead (README.md, "Why these are not gated").
END_TO_END = ("setup_s", "peak_rss_mb", "cpu_cost_ms")
COST_SOURCE = {"train_sampled": "train.epoch_ms_1t",
               "serve_read": "serve.cpu_us_per_req", "serve_churn": "serve.cpu_us_per_req"}

OPS = ("FusedGammaSegSum", "FusedAttnScore", "MatMul", "FusedEdgeDot",
       "SegmentSoftmax", "Tanh")
PER_LAYER = (
    ["common.cpu_per_wall", "nn.forward_ms", "nn.loss_ms", "nn.backward_ms",
     "nn.optimizer_ms"]
    + [f"nn.op.{op}.{k}" for op in OPS for k in ("fwd_ms", "bwd_ms", "calls")]
    + ["train.epoch_ms", "train.epoch_ms_1t", "serve.p50_ms", "serve.cpu_us_per_req",
       "mutate.visible_p50_ms", "mutate.visible_p99_ms",
       "nn.gflop_per_epoch", "nn.gb_moved_per_epoch", "nn.minflt_per_epoch",
       "models.encode_ms", "models.score_ms", "train.assemble_ms",
       "sample.sample_ms", "sample.view_ms", "sample.nodes_per_batch",
       "sample.edges_per_batch", "io.load_ms", "io.checkpoint_mb",
       "serve.handle_classify_us", "serve.handle_topk_us", "serve.topk_hit_ratio",
       "serve.singleflight_waits", "serve.handle_mutation_us", "serve.apply_us",
       "serve.compact_ms", "serve.compactions", "serve.overlay_pois",
       "serve.overlay_edges", "serve.cpu_user_us_per_req",
       "serve.cpu_sys_us_per_req", "serve.ctx_switches_per_req",
       "serve.transport_us", "serve.p99_ms", "serve.p999_ms",
       "serve.read_p50_ms_churn", "serve.samples", "net.busy", "net.deadline",
       "geo.radius_query_us", "geo.candidates_per_topk",
       "gen.ok", "gen.err_busy", "gen.err_deadline", "gen.err_other",
       "gen.transport_fail", "gen.late_p99_ms", "gen.late_max_ms",
       "host.calib_ms", "host.pause_ms_per_s", "trace.overhead_ratio",
       "trace.coverage"])

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MiB", "cpu_cost_ms": "ms",
    "train.epoch_ms": "ms",
    "train.epoch_ms_1t": "ms", "serve.p50_ms": "ms",
    "serve.cpu_us_per_req": "us", "mutate.visible_p50_ms": "ms",
    "common.cpu_per_wall": "ratio", "nn.gflop_per_epoch": "GFLOP",
    "nn.gb_moved_per_epoch": "GB", "nn.minflt_per_epoch": "count",
    "sample.nodes_per_batch": "count", "sample.edges_per_batch": "count",
    "io.checkpoint_mb": "MiB", "serve.topk_hit_ratio": "ratio",
    "serve.ctx_switches_per_req": "count", "serve.cpu_user_us_per_req": "us",
    "serve.cpu_sys_us_per_req": "us", "host.pause_ms_per_s": "ms/s",
    "trace.overhead_ratio": "ratio", "trace.coverage": "ratio",
    "geo.candidates_per_topk": "count",
}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in ((".calls", "count"), ("_ms", "ms"), ("_us", "us")):
        if name.endswith(suffix):
            return unit
    return "count"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """Anything that stops the run before a result exists."""


# --- Build -------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        raise BenchError("no program sources next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    run_quiet(["cmake", "--build", BUILD, "-j", str(NPROC)])


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=900, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} failed ({proc.returncode})")


def source_digest():
    """Hash of the program and benchmark sources: names the fixture."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(REPO, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, REPO).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


# --- Child processes -----------------------------------------------------------

def run_json(cmd, env=None):
    """Runs a perfbench subcommand and returns its JSON line."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=TIMEOUT_S, env=env, check=False, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd[:2])} exited {proc.returncode}")
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values)


def train_workload(name, seed, seconds, trace, env=None):
    """Fresh trainer processes until `seconds` have passed (at least
    MIN_TRAIN_PROCS); the epoch metrics are medians of per-process medians,
    because epoch time moves with host noise from one process to the next
    but stays within a few percent inside one."""
    mode = "full" if name == "train_full" else "sampled"
    base = [PERFBENCH, "train", "--mode", mode, "--seed", str(seed),
            "--threads", str(NPROC)]
    runs, t0 = [], time.monotonic()
    while len(runs) < MIN_TRAIN_PROCS or time.monotonic() - t0 < seconds:
        runs.append(run_json(base + ["--epochs", str(TRAIN_EPOCHS[name]),
                                     "--trace", "0"], env))
    traced = run_json(base + ["--epochs", str(TRACE_EPOCHS), "--trace", "1"],
                      env) if trace else None

    errors = []
    everyone = runs + ([traced] if traced else [])
    ref = runs[0]["loss_bits"]  # The traced process runs more epochs.
    if any(r["loss_bits"][:len(ref)] != ref for r in everyone):
        errors.append("loss curves differ between processes")
    if not all(r["loss_bitwise_1t"] for r in everyone):
        errors.append(f"loss curve at {NPROC} threads differs from 1 thread")
    if traced and not traced["replica_loss_match"]:
        errors.append("traced replica loss differs from Fit's loss")
    epochs = len(runs) * (TRAIN_EPOCHS[name] * 2)
    metrics = {
        "setup_s": median([r["setup_s"] for r in runs]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
        "train.epoch_ms": median([median(r["epoch_ms"]) for r in runs]),
        "train.epoch_ms_1t": median([median(r["epoch_ms_1t"]) for r in runs]),
        "loss_bits": runs[0]["loss_bits"],
    }
    if traced:
        metrics.update({k: v for k, v in traced.items() if k in PER_LAYER})
        metrics["trace.overhead_ratio"] = (
            traced["trace.epoch_ms"] / median(traced["epoch_ms"]))
    return metrics, epochs, 0, errors


def fixture():
    """The serving checkpoint, built once per source tree in its own
    process (its time and memory stay out of setup_s and peak_rss_mb).
    The checkpoint is written atomically, so an existing file is whole."""
    fixture_dir = os.path.join(BUILD, "fixture")
    path = os.path.join(fixture_dir, f"serve-{source_digest()}.ckpt")
    if not os.path.isfile(path):
        shutil.rmtree(fixture_dir, ignore_errors=True)
        os.makedirs(fixture_dir)
        log(f"built the serving fixture: {run_json([PERFBENCH, 'fixture', '--out', path])}")
    return path


class Server:
    """A prim_serve child process; setup_s is exec until listening."""

    def __init__(self, checkpoint, extra):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [PRIM_SERVE, "--checkpoint", checkpoint, "--port", "0",
             "--serve-threads", str(SERVE_THREADS), "--cache", str(SERVE_CACHE)]
            + extra, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self.port = None
        for line in self.proc.stderr:
            if "listening on" in line:
                self.port = int(line.split("listening on ")[1].split()[0]
                                .rsplit(":", 1)[1])
                break
        self.setup_s = time.perf_counter() - t0
        if self.port is None:
            self.stop()
            raise BenchError("prim_serve did not start")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


def serve_workload(name, seed, seconds, trace, rate=None, extra=()):
    checkpoint = fixture()
    setups, server = [], None
    try:
        for _ in range(SERVER_LAUNCHES):
            if server:
                server.stop()
            server = Server(checkpoint, list(extra))
            setups.append(server.setup_s)
        out = run_json([PERFBENCH, "load", "--port", str(server.port),
                        "--pid", str(server.proc.pid),
                        "--workload", "read" if name == "serve_read" else "churn",
                        "--rate", str(rate or SERVE_RATE[name]),
                        "--seconds", str(seconds),
                        "--seed", str(seed), "--checkpoint", checkpoint,
                        "--trace", "1" if trace else "0"])
        rss = server.peak_rss_mb()
    finally:
        if server:
            server.stop()

    errors = []
    if not out["stats_ok"]:
        errors.append("STATS did not answer OK")
    if out["gen.err_other"]:
        errors.append(f"{out['gen.err_other']:.0f} requests answered ERR")
    if out["sample_mismatches"]:
        errors.append(f"{out['sample_mismatches']:.0f} of {out['sample_checked']:.0f} "
                      "sampled responses differ from in-process HandleRequestLine")
    if name == "serve_read" and out["sample_checked"] < 100:
        errors.append("too few responses sampled for the byte-equality check")
    if out["readback_mismatches"]:
        errors.append(f"{out['readback_mismatches']:.0f} acknowledged mutations "
                      "not visible to a following CLASSIFY")
    if name == "serve_churn" and out["readbacks"] < 100:
        errors.append("too few mutations read back")
    metrics = dict(out)
    metrics.update({
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "serve.p50_ms": out["read_p50_ms"] if name == "serve_read" else 0.0,
        "serve.p99_ms": out["read_p99_ms"],
        "serve.p999_ms": out["read_p999_ms"],
        "serve.samples": out["read_samples"],
        "serve.read_p50_ms_churn": out["read_p50_ms"] if name == "serve_churn" else 0.0,
        "io.checkpoint_mb": os.path.getsize(checkpoint) / 2**20,
    })
    return metrics, int(out["attempted"]), int(out["failed"]), errors


def run_workload(name, seed, seconds, trace):
    calib = run_json([PERFBENCH, "calib"]) if trace else {}
    if name.startswith("train"):
        metrics, attempted, failed, errors = train_workload(name, seed, seconds, trace)
    else:
        metrics, attempted, failed, errors = serve_workload(name, seed, seconds, trace)
    for k, v in calib.items():
        metrics.setdefault(k, v)
    cost = metrics[COST_SOURCE[name]]
    metrics["cpu_cost_ms"] = cost / 1e3 if name.startswith("serve") else cost
    wanted = PER_LAYER if trace else END_TO_END
    result = {}
    for key in wanted:
        value = metrics.get(key, 0.0)  # A layer the workload bypasses reads 0.
        result[key] = {"value": float(value), "unit": unit_of(key)}
    return {"correct": not errors, "attempted": max(1, attempted),
            "failed": failed, "metrics": result}, errors


# --- Sensitivity checks --------------------------------------------------------

def sensitivity(seed):
    """Checks that the metrics move when the program is made slower through
    switches the program already has, and stay put where they should."""
    report, ok = {}, True
    # --slow-ms 1 sleeps 1 ms in the handler: latency rises by a millisecond
    # and CPU per request barely moves, because sleeping costs no CPU.
    base, _, _, e1 = serve_workload("serve_read", seed, 10, False, rate=500.0)
    slow, _, _, e2 = serve_workload("serve_read", seed, 10, False, rate=500.0,
                                    extra=("--slow-ms", "1"))
    p50_rise_ms = slow["serve.p50_ms"] - base["serve.p50_ms"]
    cpu_rise_us = slow["serve.cpu_us_per_req"] - base["serve.cpu_us_per_req"]
    report["slow_ms_1"] = {"p50_rise_ms": p50_rise_ms, "cpu_rise_us": cpu_rise_us,
                           "cpu_us_per_req": base["serve.cpu_us_per_req"]}
    ok &= not e1 and not e2 and p50_rise_ms >= 1.0
    ok &= abs(cpu_rise_us) < 0.05 * p50_rise_ms * 1e3

    # The scalar kernel table is bitwise equal to AVX2 and several times
    # slower on one thread.
    env = dict(os.environ)
    fast, _, _, e3 = train_workload("train_full", seed, 0, False)
    env["PRIM_SIMD"] = "scalar"
    scalar, _, _, e4 = train_workload("train_full", seed, 0, False, env=env)
    ratio = scalar["train.epoch_ms_1t"] / fast["train.epoch_ms_1t"]
    same = scalar["loss_bits"] == fast["loss_bits"]
    report["simd_scalar"] = {"epoch_ms_1t_ratio": ratio, "loss_bitwise_equal": same}
    ok &= not e3 and not e4 and ratio > 1.5 and same
    report["pass"] = bool(ok)
    print(json.dumps(report))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sensitivity", action="store_true")
    args = parser.parse_args()
    if not args.sensitivity and not args.workload:
        parser.error("--workload is required")
    try:
        build()
        if args.sensitivity:
            return sensitivity(args.seed)
        result, errors = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log(f"error: {e}")
        return 1
    for e in errors:
        log(f"correctness: {e}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
