"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload, with two requests per pass: the untraced and the traced
run print every metric BENCHMARK.json names, with its unit, and report no
failure; and a run against references in which one answer was corrupted
reports a failed request (fail_ratio > 0).
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import request_key  # noqa: E402
from workloads import WORKLOADS, requests  # noqa: E402

SEED = 1
LIMIT = 2


def bench(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--limit", str(LIMIT), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(workload: str, result: dict, declared: list) -> None:
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            raise AssertionError(f"{workload}: {metric['name']} missing or mis-unit: {got}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] > 0):
        raise AssertionError(f"{workload}: unexpected failures {result}")


def corrupt(argv: list, output) -> None:
    """Put a wrong invariant value into one recorded answer, in place."""
    if argv[0] == "s":
        output["S"] += 1
    elif argv[0] == "feit":
        output[0]["F"] += 1
    else:
        output["invariants"][0]["S"] += 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((HERE / "references.json").read_text())
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for workload in sorted(WORKLOADS):
        assert_metrics(workload, bench(workload, 0), spec["end_to_end"])
        assert_metrics(workload, bench(workload, 1), spec["per_layer"])

        bad = copy.deepcopy(refs)
        argv = requests(workload, SEED, 0)[0]
        corrupt(argv, bad[request_key(argv)]["output"])
        path = out / f"corrupted-{workload}.json"
        path.write_text(json.dumps(bad))
        result = bench(workload, 0, "--references", str(path))
        if not (result["failed"] > 0 and not result["correct"]):
            raise AssertionError(f"{workload}: corrupted reference not caught {result}")
        print(f"{workload}: metrics and units ok; corrupted reference caught"
              f" (fail_ratio {result['failed'] / result['attempted']:g})", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
