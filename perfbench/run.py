"""The feitlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (perfbench/workloads.py):

* oracle_corpus: ``verify <spec> --json`` for the 21 groups of the bundled
  corpus in seeded order, oracle at its default bound.  The only traffic
  that runs ``brauer`` and the subgroup and linear-character enumeration.
* feit_scan: ``feit <spec> --all --json`` for one spec drawn from each of 22
  cost-matched twins of groups of order 25..720.  Every table is built once;
  no reuse, no oracle.
* point_queries: 90 ``s <spec> --chi i --n n --json`` requests, specs
  Zipf-drawn over 8 small groups, (i, n) uniform over the valid pairs.
  Read-mostly traffic in which a few tables are rebuilt over and over.

Each workload is a closed loop with one client: sequential in-process
``feitlab.cli.main`` calls with stdout captured.  A pass runs one workload's
requests in a fresh child interpreter (cold caches, no
FEITLAB_ORACLE_BOUND, fixed PYTHONHASHSEED), one child at a time.  A run
repeats passes, each with its own seeded requests, until ``--seconds`` have
passed and at least two passes are done; it also starts a few children that
stop after set-up.  Every output is checked against references.json.

With ``--trace 0`` it prints the end-to-end metrics: set-up time (child
start to first request, median over all children), pass wall time (median),
request latency median and tail, and peak RSS (median over passes).

Times are speed-calibrated: each child samples the speed of its core every
20 ms (child.py), and each time is scaled by REFERENCE_SAMPLE_S over the
mean of the samples taken within SCALE_WINDOW_S of it, i.e. reported in
seconds at a fixed reference speed.  On a shared 2-core host the raw wall
time of a run swings by 25% (IQR over median) from minute to minute, the
calibrated one by about 4%; the raw medians are printed too.  With
``--trace 1`` it runs pass 0 once untraced and once traced (tracer.py) and
prints the per-layer metrics (raw seconds, exact counts) and the tracing
overhead; spans go to perfbench/out/.  The last line of stdout is one JSON object with the
metrics, the attempted and failed request counts, and whether all outputs
were correct.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import normalize, request_key  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCES = HERE / "references.json"
OUT_DIR = HERE / "out"
MIN_PASSES = 2
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170
# mean time of child.speed_sample on an idle 2.1 GHz Xeon core
REFERENCE_SAMPLE_S = 2.0e-4
SCALE_WINDOW_S = 0.25
# percentiles tried for the tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name (tracer.Tracer.metrics)."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to a failed request)."""


def child_env() -> dict:
    env = dict(os.environ)
    # brauer.resolve_oracle_bound reads it; an exported value would change
    # oracle_corpus behind the benchmark's back
    env.pop("FEITLAB_ORACLE_BOUND", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cfg: dict) -> dict:
    """Run one child to completion; returns its report plus its set-up time."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child {cfg} ran over {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"child {cfg} exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["raw_setup_s"] = report["first"] - spawned
    report["setup_s"] = report["raw_setup_s"] * scale(report, spawned, report["first"])
    return report


def scale(report: dict, start: float, end: float) -> float:
    """Reference speed over the core's speed around [start, end]."""
    samples = report["samples"]
    times = [t for t, _ in samples]
    lo = bisect.bisect_left(times, start - SCALE_WINDOW_S)
    hi = bisect.bisect_right(times, end + SCALE_WINDOW_S)
    near = [d for _, d in samples[lo:hi]] or [d for _, d in samples]
    return REFERENCE_SAMPLE_S / statistics.fmean(near)


def wall(report: dict) -> float:
    return report["wall_s"] * scale(report, report["first"], report["first"] + report["wall_s"])


def latencies(report: dict) -> list:
    return [secs * scale(report, start, start + secs)
            for _, start, _, _, secs in report["requests"]]


def check(report: dict, refs: dict) -> int:
    """Number of requests whose exit code or output differs from the reference."""
    failed = 0
    for argv, _, rc, text, _ in report["requests"]:
        ref = refs.get(request_key(argv))
        if ref is None or rc != ref["exit"] or normalize(text) != ref["output"]:
            failed += 1
    return failed


def tail(latencies: list) -> tuple:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, by nearest rank; the median when there are too few."""
    xs = sorted(latencies)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * len(xs))
        if len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return 50.0, statistics.median(xs)


def measured_run(args, refs) -> dict:
    base = {"workload": args.workload, "seed": args.seed, "limit": args.limit,
            "trace": False, "spans_path": None}
    children = [spawn({**base, "pass": 0, "probe": True}) for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
        passes.append(spawn({**base, "pass": len(passes), "probe": False}))
    children += passes
    setups = [c["setup_s"] for c in children]
    lats = [x for p in passes for x in latencies(p)]
    pct, tail_s = tail(lats)
    attempted = len(lats)
    failed = sum(check(p, refs) for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(wall(p) for p in passes),
        "latency_p50_ms": statistics.median(lats) * 1000,
        "latency_tail_ms": tail_s * 1000,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = [
        f"passes: {len(passes)}, requests: {attempted}, set-up samples: {len(setups)}",
        f"latency_tail_ms is p{pct:g} of {attempted} samples",
        f"raw medians: setup {statistics.median(c['raw_setup_s'] for c in children):.4f} s,"
        f" wall {statistics.median(p['wall_s'] for p in passes):.4f} s",
        f"fail_ratio = {failed / attempted:g} ({failed}/{attempted})",
    ]
    return {"metrics": metrics, "units": END_TO_END_UNITS, "attempted": attempted,
            "failed": failed, "notes": notes}


def traced_run(args, refs) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    base = {"workload": args.workload, "seed": args.seed, "limit": args.limit,
            "pass": 0, "probe": False, "spans_path": str(spans_path)}
    plain = spawn({**base, "trace": False})
    traced = spawn({**base, "trace": True})
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = wall(traced) / wall(plain)
    attempted = len(plain["requests"]) + len(traced["requests"])
    failed = check(plain, refs) + check(traced, refs)
    covered = sum(v for k, v in traced["layers"].items() if k.endswith("_s"))
    notes = [
        f"untraced wall {plain['wall_s']:.3f} s, traced wall {traced['wall_s']:.3f} s",
        f"self times cover {covered / traced['wall_s']:.1%} of the traced wall time",
        f"{traced['spans']} spans written to {spans_path.relative_to(ROOT)}",
        f"fail_ratio = {failed / attempted:g} ({failed}/{attempted})",
    ]
    units = {name: layer_unit(name) for name in metrics}
    return {"metrics": metrics, "units": units, "attempted": attempted,
            "failed": failed, "notes": notes}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="feitlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=0,
                        help="requests per pass, 0 for all (self-test only)")
    parser.add_argument("--references", default=str(REFERENCES),
                        help="reference answers (self-test only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "feitlab" / "cli.py").is_file():
        print(f"error: no feitlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads(Path(args.references).read_text())
    try:
        result = (traced_run if args.trace else measured_run)(args, refs)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in result["notes"]:
        print(f"  {note}")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {result['units'][name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
