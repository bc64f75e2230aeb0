"""The benchmark's tracer (``perfbench/tracer.py``) wraps feitlab's functions
and the methods it names on ``PermGroup``, ``Subgroup``, ``CharacterTable``,
``Cyclotomic`` and ``RootOfUnity``, and binds the signature of
``adams.eigenvalue_multiplicities``.  Installing it in a fresh interpreter
and sending a few traced requests shows a renamed or deleted name here,
without a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import tracer
t = tracer.Tracer()
tracer.install(t)
from feitlab import adams, brauer, chartab, cli, groups
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "sym:3", "--json"]) == 0
table = chartab.compute_table(groups.from_spec("cyclic:4"))
assert adams.eigenvalue_multiplicities(table, table.trivial_index, 2) == (1, 0, 0, 0)
# verify restricts every row at once (brauer.restriction_failure); one
# combination restricted on its own reaches restrict_combination
comb = brauer.induction_by_chains(table, 1)
assert brauer.restrict_combination(comb, table.group.all_subgroups()[1]).coefficients
print(json.dumps(t.metrics()))
"""


def test_tracer_installs_and_traces_every_layer():
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # trace.overhead_ratio is the harness's, from a traced and an untraced run
    missing = [
        m["name"] for m in declared
        if m["name"] != "trace.overhead_ratio" and m["name"] not in metrics
    ]
    assert not missing, missing
    assert metrics["adams.eigen_calls"] == 1
    assert metrics["chartab.compute_table_calls"] == 2
    assert metrics["groups.subgroups_count"] > 0
    for key in ("brauer.induction_s", "brauer.restrict_s", "brauer.context_s",
                "groups.classes_s", "cyclo.self_s"):
        assert metrics[key] > 0, key
