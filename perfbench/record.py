"""Record the reference answers every workload is checked against.

Runs each request any seed can generate once, in-process, and stores its
exit code and its JSON output (without the run-dependent keys) in
``references.json``.  Before writing, the answers are cross-checked against
facts that do not come from the fast route under test:

* the brute-force oracle (``brauer.invariant_via_coefficients``) for every
  group of order <= 60, at every divisor n of the exponent;
* S(chi, 1) equals the degree of chi;
* every conductor indicator F is positive (Feit's conjecture holds for all
  of these groups), and every request exits with 0.

Usage, from the repository root:  python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from common import call, normalize, request_key  # noqa: E402
from feitlab import brauer, cli  # noqa: E402
from feitlab.chartab import compute_table  # noqa: E402
from feitlab.groups import from_spec  # noqa: E402
from workloads import POINT_GROUPS, all_requests  # noqa: E402

REFERENCES = HERE / "references.json"
ORACLE_LIMIT = brauer.HARD_ORACLE_CAP


def _claims(argv, output):
    """(spec, chi, n, S) facts and F values claimed by one output."""
    spec = argv[1]
    s_facts, f_values = [], []
    if argv[0] == "s":
        s_facts.append((spec, output["chi_index"], output["n"], output["S"]))
    elif argv[0] == "feit":
        for rep in output:
            s_facts.append((spec, rep["chi_index"], rep["conductor"], rep["F"]))
            f_values.append(rep["F"])
    elif argv[0] == "verify":
        for inv in output["invariants"]:
            s_facts.append((spec, inv["chi_index"], inv["n"], inv["S"]))
        f_values.extend(rep["F"] for rep in output["feit"])
        if not output["all_passed"]:
            raise SystemExit(f"{spec}: verify reports failed checks")
    return s_facts, f_values


def cross_check(refs):
    tables, combs = {}, {}
    oracle_checked = 0
    for key, ref in refs.items():
        argv = key.split(" ")
        if ref["exit"] != 0:
            raise SystemExit(f"{key}: exit code {ref['exit']}")
        s_facts, f_values = _claims(argv, ref["output"])
        if any(f <= 0 for f in f_values):
            raise SystemExit(f"{key}: a conductor indicator is not positive")
        for spec, i, n, value in s_facts:
            if spec not in tables:
                print(f"  cross-checking {spec}", flush=True)
                tables[spec] = compute_table(from_spec(spec), name=spec)
            table = tables[spec]
            if n == 1 and value != table.degree(i):
                raise SystemExit(f"{key}: S(chi {i}, 1) = {value} is not the degree")
            if table.order <= ORACLE_LIMIT:
                if (spec, i) not in combs:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        combs[spec, i] = brauer.induction_by_chains(
                            table, i, bound=ORACLE_LIMIT
                        )
                slow = brauer.invariant_via_coefficients(
                    table, i, n, comb=combs[spec, i]
                )
                if slow != value:
                    raise SystemExit(
                        f"{key}: chi {i}, n {n}: oracle says {slow}, output {value}"
                    )
                oracle_checked += 1
    for spec, nclasses, exponent in POINT_GROUPS:
        table = tables.get(spec) or compute_table(from_spec(spec), name=spec)
        if (table.num_classes, table.exponent) != (nclasses, exponent):
            raise SystemExit(f"{spec}: POINT_GROUPS entry is stale")
    return oracle_checked


def main() -> int:
    refs = {}
    for workload, reqs in all_requests().items():
        start = time.monotonic()
        for argv in reqs:
            rc, text, _ = call(cli.main, argv)
            refs[request_key(argv)] = {"exit": rc, "output": normalize(text)}
        print(f"{workload}: {len(reqs)} requests in {time.monotonic() - start:.1f} s",
              flush=True)
    checked = cross_check(refs)
    print(f"cross-checked {checked} invariant values against the oracle")
    lines = [
        f" {json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}"
        for k, v in sorted(refs.items())
    ]
    REFERENCES.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(refs)} references to {REFERENCES.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
