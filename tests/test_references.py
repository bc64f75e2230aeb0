"""Every request that the benchmark can send, replayed in one process
against the answers recorded in ``perfbench/references.json``.

The benchmark's helpers are loaded by file path, so that ``perfbench`` is
never put on ``sys.path`` for the other tests."""

import importlib.util
import json
from itertools import chain
from pathlib import Path

from feitlab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_request_gives_its_recorded_answer(monkeypatch):
    # the benchmark runs its requests without an exported oracle bound
    monkeypatch.delenv("FEITLAB_ORACLE_BOUND", raising=False)
    common, workloads = load("common"), load("workloads")
    refs = json.loads((PERFBENCH / "references.json").read_text())
    keys, wrong = set(), []
    for argv in chain.from_iterable(workloads.all_requests().values()):
        key = common.request_key(argv)
        keys.add(key)
        rc, text, _ = common.call(cli.main, argv)
        if rc != refs[key]["exit"] or common.normalize(text) != refs[key]["output"]:
            wrong.append(key)
    assert keys == set(refs)
    assert not wrong, wrong
