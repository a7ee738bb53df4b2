#!/usr/bin/env python3
"""Build and run the CliZ end-to-end benchmark (see e2e_bench/README.md).

Run from the repository root:

  python3 e2e_bench/run.py --workload ensemble_archive --seed 1 --seconds 40 --trace 0
  python3 e2e_bench/run.py --smoke
  python3 e2e_bench/run.py --spread 10 --workload tiled_windows --seconds 40

The first call configures and builds e2e_bench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls only re-run the incremental build. A measuring run's last stdout line
is the driver's result JSON. --smoke runs every workload at a tiny size in
both trace modes and checks that every metric of BENCHMARK.json is reported
with its unit and that no operation failed. --spread runs one seed after
another and prints each end-to-end metric's median and quartile spread.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ["ensemble_archive", "tiled_windows"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures once, then builds incrementally; returns the driver path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: no library sources at ./src; run from the repository root")
        sys.exit(1)
    out = build_root() / "e2e"
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit(1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(out), "--target", "cliz_e2e", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit(1)
    return out / "cliz_e2e"


def source_stamp():
    """Commit when run inside a git checkout, plus a digest of the sources."""
    commit = "none"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                            "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    for d in (ROOT / "src", BENCH_DIR):
        for p in sorted(d.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return f"{commit}+src:{h.hexdigest()[:12]}"


def driver_cmd(exe, workload, seed, seconds, trace, scale=None):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(build_root() / "work"), "--commit", source_stamp()]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    return cmd


def run_captured(cmd):
    """Runs the driver to completion; returns (exit code, stdout lines)."""
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: driver timed out")
        return 1, []
    return r.returncode, r.stdout.splitlines()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def smoke(exe):
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            rc, lines = run_captured(driver_cmd(exe, w, 1, 1, trace, 0.12))
            res = json.loads(lines[-1]) if rc == 0 and lines else None
            problems = []
            if res is None:
                problems.append(f"exit code {rc}, no result")
            else:
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                want = expected_metrics(trace)
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in want if k in got and got[k] != want[k])
                if missing:
                    problems.append(f"missing {missing}")
                if extra:
                    problems.append(f"unexpected {extra}")
                if units:
                    problems.append(f"unit mismatch {units}")
                if res["failed"] != 0 or not res["correct"]:
                    problems.append(f"fail_frac {res['failed']}/{res['attempted']}")
            ok &= not problems
            log(f"smoke {w} trace={trace}: " + ("; ".join(problems) or "ok"))
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def spread(exe, workloads, seeds, seconds):
    bounds = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in bounds}
    report = {}
    for w in workloads:
        values = {}
        for seed in seeds:
            rc, lines = run_captured(driver_cmd(exe, w, seed, seconds, 0))
            if rc != 0 or not lines:
                log(f"{w} seed {seed}: exit code {rc}")
                return 1
            res = json.loads(lines[-1])
            log(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()))
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        report[w] = {}
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            frac = (q3 - q1) / med if med else float("inf")
            report[w][k] = {"median": med, "iqr_frac": frac,
                            "bound": bounds.get(k), "n": len(vals)}
            log(f"  {w:17s} {k:16s} median {med:10.4f}  iqr/median "
                f"{frac:.4f}  bound {bounds.get(k)}")
    print(json.dumps(report))
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spread", type=int, metavar="N_SEEDS")
    a = ap.parse_args()

    exe = build()
    if a.smoke:
        return smoke(exe)
    if a.spread:
        ws = [a.workload] if a.workload else WORKLOADS
        return spread(exe, ws, range(a.seed, a.seed + a.spread), a.seconds)
    if a.workload is None:
        ap.error("--workload is required")
    try:
        return subprocess.run(driver_cmd(exe, a.workload, a.seed, a.seconds,
                                         a.trace),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("run.py: driver timed out")
        return 1


if __name__ == "__main__":
    sys.exit(main())
