"""Benchmark of the cartancover package: one workload per invocation.

    python3 bench/run.py --workload roundtrip|cover_build|factor --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. The inputs come from ``--seed`` (workloads.py) and are
written to ``.bench_out`` before any timing. The requests then run in a
fresh interpreter (worker.py), and every output is checked against the
benchmark's own oracles.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from speed import REFERENCE_S, scale  # noqa: E402
from workloads import BATCHES, CHECKS  # noqa: E402

# per-request wall-clock cap, for a request that hangs; the slowest request
# took 1.1 s in a slow spell of the machine, and a slow spell must never
# fail a request
CAP_S = 10.0
# the whole invocation must end within 180 s
DEADLINE_S = 170.0


def percentile_ms(times, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of ``times`` (s), in ms.

    A mean of all order statistics, the i-th weighted by the probability
    that a Beta((n + 1) q, (n + 1) (1 - q)) variable falls in
    [(i - 1) / n, i / n]. Request times step between request classes, and
    a single order statistic moves by a step when a few requests change
    sides; this mean moves smoothly. A capped or raised request counts as
    the cap.
    """
    ranked = sorted(min(t, CAP_S) for t in times)
    n = len(ranked)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    # Simpson's rule on each [(i - 1) / n, i / n]; the sum is normalised
    # to remove the integration error
    weights = [
        density(i / n) + 4 * density((i + 0.5) / n) + density((i + 1) / n) for i in range(n)
    ]
    return 1000.0 * sum(w * t for w, t in zip(weights, ranked)) / sum(weights)


def verdicts(workload: str, batch, result):
    """Per record: whether its output agrees with the oracle."""
    check = CHECKS[workload]
    per_request = {int(k): check(batch[int(k)], out) for k, out in result["outputs"].items()}
    changed = set(result["changed"])
    return [
        index not in changed and per_request[index]
        for index, *_timing in result["records"]
    ]


def end_to_end(result, checked) -> dict:
    """Times are scaled to the reference speed (speed.py); each request
    counts once, at the median of its runs. Set-up time is the median of
    its samples, scaled by the run's median kernel time."""
    samples = result["speed"]
    runs = {}
    for (index, wall, cpu, status, start), agrees in zip(result["records"], checked):
        if status == "capped":
            # the cap is a wall-clock limit, not work: it counts as is
            wall_f = cpu_f = 1.0
            wall = cpu = CAP_S
        else:
            wall_f, cpu_f = scale(samples, start)
        runs.setdefault(index, []).append((wall * wall_f, cpu * cpu_f, status == "done", agrees))
    walls, cpus, ranked, agreeing = [], [], [], 0
    for execs in runs.values():
        wall = statistics.median(e[0] for e in execs)
        walls.append(wall)
        cpus.append(statistics.median(e[1] for e in execs))
        ranked.append(wall if all(e[2] for e in execs) else math.inf)
        agreeing += all(e[3] for e in execs)
    # one factor for the whole run: the kernel sample next to a short import
    # is noisier than the import itself
    setup_f = REFERENCE_S / statistics.median(s[1] for s in samples)
    setup = [seconds * setup_f for seconds in result["setup"]]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "instances_per_s": (agreeing / sum(walls), "1/s"),
        "latency_p50_ms": (percentile_ms(ranked, 0.5), "ms"),
        "latency_p90_ms": (percentile_ms(ranked, 0.9), "ms"),
        "cpu_ms_per_instance": (1000.0 * sum(cpus) / len(cpus), "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def per_layer(batch, result) -> dict:
    """Counts and times of the traced pass, and ratios with their bases."""
    requests = len(batch)
    # each request ran untraced and, unless it hit the cap, traced right after
    records = result["records"]
    plain_s = traced_s = 0.0
    for plain, traced in zip(records, records[1:]):
        if plain[0] == traced[0] and plain[3] == traced[3] == "done":
            plain_s += plain[1]
            traced_s += traced[1]
    layers = result["layers"]
    fibers = sum(req["vertices"] for req in batch)
    roundtrips = layers["covers.cover_roundtrip.calls"]
    metrics = {}
    for name, value in layers.items():
        metrics[name] = {"value": value, "unit": "count" if name.endswith(".calls") else "ms"}
    ratios = {
        "cartan.classify_per_fiber": layers["cartan.classify_subspace.calls"] / fibers,
        "covers.iso_candidates_per_roundtrip": (
            result["items"]["covers.cover_isomorphisms"] / roundtrips if roundtrips else 0.0
        ),
        "linalg.matrices_per_request": layers["linalg.Matrix.new.calls"] / requests,
        "factorization.systems_per_request": (
            result["items"]["factorization.block_systems"] / requests
        ),
        "tracing.overhead_frac": traced_s / plain_s - 1.0,
    }
    for name, value in ratios.items():
        metrics[name] = {"value": value, "unit": "ratio"}
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BATCHES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    began = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "cartancover", "cli.py")):
        print(f"error: no package source at {SRC}/cartancover", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    batch = BATCHES[args.workload](args.seed, out_dir)
    batch_path = os.path.join(out_dir, "batch.json")
    with open(batch_path, "w", encoding="utf-8") as fh:
        json.dump([{k: v for k, v in req.items() if k != "expect"} for req in batch], fh)

    result_path = os.path.join(out_dir, "result.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--batch", batch_path, "--out", result_path,
        "--src", SRC, "--seconds", str(args.seconds), "--cap", str(CAP_S),
        "--trace", str(args.trace), "--spans", os.path.join(out_dir, "spans.tsv.gz"),
    ]
    try:
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=DEADLINE_S - (time.perf_counter() - began))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    checked = verdicts(args.workload, batch, result)
    failed = checked.count(False)
    if args.trace:
        metrics = per_layer(batch, result)
    else:
        metrics = end_to_end(result, checked)
    print(f"{args.workload} seed {args.seed}: {len(checked)} runs of requests, "
          f"{failed} disagree with the oracle")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
