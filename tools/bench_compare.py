#!/usr/bin/env python3
"""Compare a google-benchmark JSON report against a committed baseline.

Usage:
  bench_codec_speed --benchmark_format=json > run.json
  tools/bench_compare.py run.json BENCH_codec_speed.json          # compare
  tools/bench_compare.py run.json BENCH_codec_speed.json --write-baseline

Comparison is on bytes_per_second (throughput) when a benchmark reports
it, falling back to real_time (lower is better). A benchmark regresses
when its throughput drops more than --threshold (default 0.20) below the
baseline. Benchmarks present on only one side are reported but never
fail the run, so the baseline does not have to be regenerated for every
added bench.

The committed baseline is a trimmed map (name -> metrics), not the full
google-benchmark report, so diffs stay readable. --write-baseline
accepts either format and writes the trimmed one.

Exit status: 0 ok, 1 regression(s), 2 usage/input error.
"""

import argparse
import json
import sys


def load_benchmarks(path):
    """Returns {name: {"bytes_per_second": float|None, "real_time": float}}.

    Accepts a full google-benchmark JSON report or an already-trimmed
    baseline map.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)

    if isinstance(doc, dict) and "benchmarks" in doc:
        entries = doc["benchmarks"]
        out = {}
        for b in entries:
            # Skip aggregate rows (mean/median/stddev of repetitions).
            if b.get("run_type") == "aggregate":
                continue
            entry = {
                "bytes_per_second": b.get("bytes_per_second"),
                "real_time": b.get("real_time"),
                "time_unit": b.get("time_unit", "ns"),
            }
            # The backend A/B benches report compressed ratio as a counter;
            # keep it so the committed baseline documents the size trade.
            if b.get("ratio") is not None:
                entry["ratio"] = b["ratio"]
            # The region-decode benches report the fraction of the frame's
            # compressed bytes a window read actually touched.
            if b.get("bytes_touched_ratio") is not None:
                entry["bytes_touched_ratio"] = b["bytes_touched_ratio"]
            out[b["name"]] = entry
        return out
    if isinstance(doc, dict):
        return doc
    print(f"bench_compare: {path} is not a benchmark report", file=sys.stderr)
    sys.exit(2)


def backend_summary(run):
    """Per-backend throughput diffs within one run.

    Groups benchmarks named ``predictor_backend/<name>[/op]``,
    ``entropy_backend/<name>[/op]``, and ``lossless_backend/<name>`` and
    prints each backend's throughput relative to the stage's default
    (interp / huffman / lz), so the backend trade is visible without
    cross-referencing absolute numbers. Informational only — never fails
    the run.
    """
    defaults = {
        "predictor_backend": "interp",
        "entropy_backend": "huffman",
        "lossless_backend": "lz",
    }
    groups = {}
    for name, metrics in run.items():
        parts = name.split("/")
        if parts[0] not in defaults or len(parts) < 2:
            continue
        if not metrics.get("bytes_per_second"):
            continue
        op = "/".join(parts[2:])  # "" for single-op groups like lossless
        groups.setdefault((parts[0], op), {})[parts[1]] = (
            metrics["bytes_per_second"],
            metrics.get("ratio"),
        )

    if not groups:
        return
    print("\nper-backend throughput (relative to the stage default):")
    for (stage, op), backends in sorted(groups.items()):
        base = backends.get(defaults[stage], (None, None))[0]
        label = f"{stage}{'/' + op if op else ''}"
        for backend, (bps, ratio) in sorted(backends.items()):
            rel = f"{bps / base:5.2f}x" if base else "    -"
            cr = f"  CR {ratio:6.2f}" if ratio else ""
            print(
                f"  {label:<34} {backend:<10} {bps / 1e6:10.1f}MB/s  "
                f"{rel}{cr}"
            )


def kernel_summary(run):
    """Per-tier speedups of the predict/quantize kernel substrate.

    Groups benchmarks named ``predict_quantize_kernel/<type>/<tier>`` and
    prints each tier's throughput relative to the scalar reference of the
    same sample type, so the SIMD win (and any tier that fails to beat
    scalar on this host) is visible at a glance. Informational only —
    never fails the run.
    """
    groups = {}
    for name, metrics in run.items():
        parts = name.split("/")
        if parts[0] != "predict_quantize_kernel" or len(parts) != 3:
            continue
        if not metrics.get("bytes_per_second"):
            continue
        groups.setdefault(parts[1], {})[parts[2]] = metrics["bytes_per_second"]

    if not groups:
        return
    tier_order = {"scalar": 0, "avx2": 1}
    print("\npredict/quantize kernel tiers (speedup vs scalar):")
    for dtype, tiers in sorted(groups.items()):
        base = tiers.get("scalar")
        for tier, bps in sorted(
            tiers.items(), key=lambda kv: tier_order.get(kv[0], 99)
        ):
            rel = f"{bps / base:5.2f}x" if base else "    -"
            print(
                f"  {dtype:<5} {tier:<8} {bps / 1e6:10.1f}MB/s  {rel}"
            )


def region_summary(run):
    """Window-read cost relative to the full-frame decode.

    Groups benchmarks named ``region_decode/<window>`` and prints each
    window's wall-clock and compressed-bytes-touched ratio relative to
    ``region_decode/full`` — the random-access win (or its absence) at a
    glance. Informational only — never fails the run.
    """
    group = {}
    for name, metrics in run.items():
        parts = name.split("/")
        if parts[0] != "region_decode" or len(parts) != 2:
            continue
        if not metrics.get("real_time"):
            continue
        group[parts[1]] = metrics

    full = group.get("full")
    if not group or not full:
        return
    print("\nregion decode vs full decode:")
    for window, m in sorted(group.items()):
        t = m["real_time"]
        rel = f"{t / full['real_time']:8.2%}"
        btr = m.get("bytes_touched_ratio")
        btxt = f"  bytes touched {btr:8.2%}" if btr is not None else ""
        print(
            f"  {window:<18} {t:10.3g}{m.get('time_unit', '')}  "
            f"time vs full {rel}{btxt}"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("run", help="fresh google-benchmark JSON report")
    ap.add_argument("baseline", help="committed baseline JSON")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="allowed fractional throughput drop before failing "
        "(default 0.20; CI uses a looser value for shared runners)",
    )
    ap.add_argument(
        "--write-baseline",
        action="store_true",
        help="trim the run report and overwrite the baseline file",
    )
    args = ap.parse_args()

    run = load_benchmarks(args.run)
    if not run:
        print("bench_compare: run report has no benchmarks", file=sys.stderr)
        return 2

    if args.write_baseline:
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(run, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"bench_compare: wrote {len(run)} baselines to {args.baseline}")
        return 0

    base = load_benchmarks(args.baseline)
    if not base:
        print(
            f"bench_compare: baseline {args.baseline} is empty — "
            "regenerate it with --write-baseline",
            file=sys.stderr,
        )
        return 2

    regressions = []
    width = max(len(n) for n in sorted(set(run) | set(base)))
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'run':>12}  change")
    for name in sorted(set(run) | set(base)):
        if name not in run:
            print(f"{name:<{width}}  {'-':>12}  {'-':>12}  missing from run")
            continue
        if name not in base:
            print(f"{name:<{width}}  {'-':>12}  {'-':>12}  new (no baseline)")
            continue
        r, b = run[name], base[name]
        if r.get("bytes_per_second") and b.get("bytes_per_second"):
            # Throughput: higher is better.
            new, old = r["bytes_per_second"], b["bytes_per_second"]
            change = new / old - 1.0
            fmt = lambda v: f"{v / 1e6:.1f}MB/s"  # noqa: E731
            regressed = change < -args.threshold
        elif r.get("real_time") and b.get("real_time"):
            # Wall time: lower is better.
            new, old = r["real_time"], b["real_time"]
            change = old / new - 1.0
            fmt = lambda v: f"{v:.3g}{r.get('time_unit', '')}"  # noqa: E731
            regressed = change < -args.threshold
        else:
            print(f"{name:<{width}}  {'-':>12}  {'-':>12}  no common metric")
            continue
        mark = "  REGRESSED" if regressed else ""
        print(
            f"{name:<{width}}  {fmt(old):>12}  {fmt(new):>12}  "
            f"{change:+.1%}{mark}"
        )
        if regressed:
            regressions.append(name)

    backend_summary(run)
    kernel_summary(run)
    region_summary(run)

    if regressions:
        print(
            f"\nbench_compare: {len(regressions)} regression(s) beyond "
            f"{args.threshold:.0%}: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    print("\nbench_compare: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
