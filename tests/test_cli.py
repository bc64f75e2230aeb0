import json
import math
import os
import random
import re
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import feitlab

from feitlab import adams, cli, runner
from feitlab.chartab import compute_table, load_table
from feitlab.groups import from_spec, spec_order
from bundled_corpus import CORPUS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_text(capsys):
    code, out, _ = run_cli(capsys, "table", "sym:3")
    assert code == 0
    assert "order 6" in out
    degrees = sorted(
        int(line.split()[1]) for line in out.splitlines() if line.strip().startswith("X")
    )
    assert degrees == [1, 1, 2]


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table", "cyclic:5", "--json")
    assert code == 0
    table = load_table(out)
    assert table.order == 5 and table.num_classes == 5


def test_table_perm_spec(capsys):
    code, out, _ = run_cli(capsys, "table", "perm:[(1,2,3,4,5),(1,2)]")
    assert code == 0
    degrees = sorted(
        int(line.split()[1]) for line in out.splitlines() if line.strip().startswith("X")
    )
    assert degrees == [1, 1, 4, 4, 5, 5, 6]


def test_s_command(capsys):
    code, out, _ = run_cli(capsys, "s", "cyclic:5", "--chi", "1", "--n", "5")
    assert code == 0
    assert "S = 1" in out

    code, out, _ = run_cli(capsys, "s", "sym:3", "--chi", "0", "--n", "1")
    assert code == 0
    assert "S = 1" in out

    chi2 = 2  # the degree-2 character sorts last
    code, out, _ = run_cli(capsys, "s", "sym:3", "--chi", str(chi2), "--n", "6")
    assert code == 0
    assert "S = 0" in out and "witness: none" in out


@pytest.mark.parametrize("argv, named", [
    ([], ["no command"]),
    (["sum", "sym:3"], ["unknown command 'sum'"]),
    (["s", "--chi", "0", "--n", "1"], ["s:", "group"]),
    (["s", "sym:3", "--chi", "0", "--n", "1", "extra"], ["s:", "'extra'"]),
    (["s", "sym:3", "--chi", "0", "--n", "1", "--bogus"], ["s:", "--bogus"]),
    (["s", "sym:3", "--=0", "--n", "1"], ["s:", "ambiguous", "--chi", "--n"]),
    (["s", "sym:3", "--chi", "0", "--n"], ["s:", "--n"]),
    (["s", "sym:3", "--chi", "one", "--n", "1"], ["s:", "--chi", "'one'"]),
    (["corpus", "f", "--format", "xml"], ["corpus:", "--format", "'xml'"]),
    (["s", "sym:3", "--n", "1"], ["s:", "--chi"]),
    (["table", "sym:3", "--json=1"], ["table:", "--json"]),
    (["feit", "sym:3", "--all", "--chi", "1"], ["feit:", "--all", "--chi"]),
])
def test_usage_errors_return_2_naming_the_command_and_option(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and all(n in err for n in named), err


def test_option_spellings_print_the_same(capsys):
    want = run_cli(capsys, "s", "sym:3", "--chi", "1", "--n", "2", "--json")
    assert want[0] == 0
    for argv in (["s", "sym:3", "--chi=1", "--n=2", "--json"],
                 ["s", "sym:3", "--ch", "1", "--n", "2", "--js"],
                 ["s", "--json", "--n", "2", "sym:3", "--chi", "1"]):
        assert run_cli(capsys, *argv) == want, argv


def test_help_lists_the_commands_and_their_options(capsys):
    for argv in (["--help"], ["-h"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert all(f"  {name} " in out for name in cli.COMMANDS), out
    assert list(cli.COMMANDS) == ["table", "s", "feit", "verify", "corpus"]
    code, out, err = run_cli(capsys, "s", "--help")
    assert code == 0 and err == ""
    assert "--chi CHI" in out and "--n N" in out


def test_s_rejects_non_divisor(capsys):
    code, _, err = run_cli(capsys, "s", "sym:3", "--chi", "0", "--n", "4")
    assert code == 2
    assert "divide the exponent" in err


def test_s_rejects_zero_n(capsys):
    code, _, err = run_cli(capsys, "s", "sym:3", "--chi", "0", "--n", "0")
    assert code == 2
    assert "must be positive" in err and "ZeroDivisionError" not in err


def test_feit_rejects_negative_chi(capsys):
    code, out, err = run_cli(capsys, "feit", "sym:3", "--chi", "-1")
    assert code == 2
    assert "chi must be in 0..2" in err and out == ""


def test_s_rejects_chi_past_the_end(capsys):
    code, out, err = run_cli(capsys, "s", "sym:3", "--chi", "7", "--n", "1")
    assert code == 2
    assert "chi must be in 0..2" in err and out == ""


def test_feit_rejects_chi_past_the_end(capsys):
    code, _, err = run_cli(capsys, "feit", "sym:3", "--chi", "9")
    assert code == 2
    assert "chi must be in 0..2" in err and "IndexError" not in err


def test_perm_point_above_the_bound_is_a_usage_error(capsys, monkeypatch):
    def build(*args):
        raise AssertionError("a permutation was built")

    monkeypatch.setattr(feitlab.groups, "perm_from_cycles", build)
    code, out, err = run_cli(capsys, "table", "perm:[(1,10081)]")
    assert code == 2 and out == ""
    assert "malformed group spec" in err and "10080" in err


def test_perm_point_too_long_to_read_is_a_usage_error(capsys):
    # int() refuses a string of more than 4300 digits with a ValueError
    code, out, err = run_cli(capsys, "table", "perm:[(1," + "9" * 5000 + ")]")
    assert code == 2 and out == ""
    assert "malformed group spec" in err and "ValueError" not in err


def test_a_table_above_the_bound_is_refused_before_its_group_is_built(
    capsys, monkeypatch
):
    def enumerate_elements(*args, **kwargs):
        raise AssertionError("the group was enumerated")

    monkeypatch.setattr(feitlab.groups, "_closure", enumerate_elements)
    # disjoint cycles name the order of their group
    for spec in ("cyclic:4000", "perm:[(" + ",".join(map(str, range(1, 4001))) + ")]"):
        code, out, err = run_cli(capsys, "s", spec, "--chi", "0", "--n", "1")
        assert code == 1 and out == ""
        assert "table computation needs order <= 2000, group has 4000" in err


def test_an_unreadable_table_file_is_a_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "table", str(tmp_path))
    assert code == 2 and out == ""
    assert str(tmp_path) in err and "cannot read the table file" in err


def test_importing_the_cli_imports_no_multiprocessing():
    # only `corpus --jobs N` with N > 1 starts a pool
    probe = "import sys, feitlab.cli; print('multiprocessing' in sys.modules)"
    src = str(Path(feitlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        timeout=60, check=True,
    ).stdout
    assert out.strip() == "False"


def _run_fresh(probe: str) -> str:
    """The stdout of ``probe`` run in a fresh interpreter on this package."""
    src = str(Path(feitlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    ).stdout


IMPORT_PROBE = """
import contextlib, io, sys
import feitlab.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {argvs!r}:
        assert feitlab.cli.main(argv) == 0, argv
print(sorted(m for m in {names!r} if m in sys.modules))
"""


def test_commands_import_only_what_they_run():
    # table, s and feit never run the oracle, a dataclass, a timestamp or a
    # csv report, so a process that serves only them compiles none of these
    names = ["feitlab.brauer", "dataclasses", "datetime", "csv", "multiprocessing",
             "argparse", "gettext"]
    queries = [["s", "sym:3", "--chi", "2", "--n", "3", "--json"],
               ["feit", "dihedral:8", "--all", "--json"], ["table", "sym:3"]]
    out = _run_fresh(IMPORT_PROBE.format(argvs=queries, names=names))
    assert out.strip() == "[]"
    out = _run_fresh(IMPORT_PROBE.format(argvs=[["verify", "sym:3"]], names=names))
    assert out.strip() == "['feitlab.brauer']"


def test_package_serves_the_oracle_names_on_first_use():
    probe = """
import sys
import feitlab
assert "feitlab.brauer" not in sys.modules
ns = {}
exec("from feitlab import *", ns)
from feitlab import brauer
lazy = [n for n in feitlab.__all__ if n not in vars(feitlab)]
print(sorted(set(feitlab.__all__) - set(ns)), len(lazy))
print(all(ns[n] is getattr(brauer, n) is getattr(feitlab, n) for n in lazy))
print(set(lazy) <= set(dir(feitlab)), set(feitlab.__all__) <= set(dir(feitlab)))
try:
    feitlab.no_such_name
except AttributeError as exc:
    print(exc)
"""
    lines = _run_fresh(probe).splitlines()
    assert lines == [
        "[] 10", "True", "True True",
        "module 'feitlab' has no attribute 'no_such_name'",
    ]


def test_timestamp_is_iso_utc():
    stamp = cli._timestamp()
    assert stamp.endswith("+00:00")
    parsed = datetime.fromisoformat(stamp)
    assert parsed.utcoffset() == timedelta(0)
    assert abs((datetime.now(timezone.utc) - parsed).total_seconds()) < 60


def test_s_json(capsys):
    code, out, _ = run_cli(capsys, "s", "cyclic:4", "--chi", "0", "--n", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"chi_index", "n", "S", "witness", "summands"}


def test_feit_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "feit", "sym:4", "--all")
    assert code == 0
    assert out.count("F = ") == 5

    code, out, _ = run_cli(capsys, "feit", "cyclic:12", "--all", "--json")
    assert code == 0
    doc = json.loads(out)
    assert all(rec["F"] == 1 for rec in doc)

    code, out, _ = run_cli(capsys, "feit", "alt:5")
    assert code == 0


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "sym:3")
    assert code == 0
    assert "FAIL" not in out

    code, out, _ = run_cli(capsys, "verify", "cyclic:8")
    assert code == 0

    # oracle sections are skipped above the bound, with a notice
    code, out, _ = run_cli(capsys, "verify", "sym:5")
    assert code == 0
    assert "SKIP oracle_suite" in out


def test_verify_raised_bound_runs_oracle(capsys):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = run_cli(capsys, "verify", "alt:5", "--oracle-bound", "60")
    assert code == 0
    assert "SKIP oracle_suite" not in out
    assert "PASS restriction_naturality" in out


def test_raised_oracle_bound_warns_once_per_verify(capsys):
    # one warning where verify resolves the bound, none from the oracle's
    # own entry points that it calls
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, "verify", "alt:4", "--oracle-bound", "25")
    assert code == 0 and "PASS restriction_naturality" in out
    raised = [w for w in caught if issubclass(w.category, UserWarning)]
    assert len(raised) == 1, [str(w.message) for w in raised]
    assert "oracle bound raised to 25" in str(raised[0].message)


def test_oracle_bound_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FEITLAB_ORACLE_BOUND", "4")
    code, out, _ = run_cli(capsys, "verify", "sym:3")
    assert code == 0
    assert "SKIP oracle_suite" in out and "exceeds oracle bound 4" in out


def test_bad_oracle_bounds_are_usage_errors(tmp_path, capsys, monkeypatch):
    # refused with exit 2 before any table is built, naming the option or
    # the variable the bound came from
    def no_table(entry):
        raise AssertionError("table built before the bound was checked")

    monkeypatch.setattr(runner, "resolve_input", no_table)
    for bound in ("100", "-1", "0"):
        code, out, err = run_cli(capsys, "verify", "sym:3", "--oracle-bound", bound)
        assert code == 2 and out == "", bound
        assert f"--oracle-bound {bound}" in err, err
    assert "hard cap 60" in run_cli(
        capsys, "verify", "sym:3", "--oracle-bound", "100")[2]

    cfile = tmp_path / "corpus.json"
    cfile.write_text(json.dumps({"entries": ["sym:3"], "oracle_bound": 100}))
    code, _, err = run_cli(capsys, "corpus", str(cfile))
    assert code == 2 and "oracle_bound" in err and "100" in err

    for value, why in (("abc", "not an integer"), ("61", "hard cap 60")):
        monkeypatch.setenv("FEITLAB_ORACLE_BOUND", value)
        code, _, err = run_cli(capsys, "verify", "sym:3")
        assert code == 2 and "FEITLAB_ORACLE_BOUND" in err and why in err, err


def test_malformed_corpus_files_are_usage_errors(tmp_path, capsys, monkeypatch):
    # refused with exit 2, naming the file, before any entry runs
    def no_entry(payload):
        raise AssertionError("an entry ran before the corpus file was checked")

    monkeypatch.setattr(cli, "_corpus_worker", no_entry)
    cases = [
        (None, "cannot read"),
        ("{not json", "not valid JSON"),
        ("[]", "JSON object"),
        (json.dumps({"format": "json"}), "entries"),
        (json.dumps({"entries": "cyclic:3"}), "entries"),
        (json.dumps({"entries": [3]}), "entries"),
        (json.dumps({"entries": ["cyclic:3"], "format": "xml"}), "'xml'"),
    ]
    for k, (text, why) in enumerate(cases):
        cfile = tmp_path / f"corpus{k}.json"
        if text is not None:
            cfile.write_text(text)
        code, out, err = run_cli(capsys, "corpus", str(cfile))
        assert code == 2 and out == "", (text, err)
        assert str(cfile) in err and why in err, (text, err)


def test_verify_json_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "verify", "quaternion:8", "--json")
    code2, out2, _ = run_cli(capsys, "verify", "quaternion:8", "--json")
    assert code == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    for doc in (doc1, doc2):
        doc.pop("generated_at")
        doc.pop("elapsed_seconds")
    assert doc1 == doc2


def test_verify_loaded_table(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "table", "dihedral:8", "--json")
    path = tmp_path / "d8.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "SKIP" in out  # no group attached: oracle + regular-character skip


def test_verify_refuses_integer_fields_written_as_other_json(tmp_path, capsys):
    # read by int(), an order of 6.9, a size of "3" and a power-map target
    # of 2.5 would be 6, 3 and 2, and the file would pass every check
    code, out, _ = run_cli(capsys, "table", "sym:3", "--json")
    doc = json.loads(out)
    doc["order"] = 6.9
    doc["classes"][1]["size"] = "3"
    doc["classes"][2]["powermap"]["2"] = 2.5
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(doc))
    for argv in (("verify", str(path)), ("s", str(path), "--chi", "0", "--n", "2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "TableFormatError" in err and "order must be a JSON integer, got 6.9" in err


def test_s_on_a_loaded_table_matches_the_spec(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "table", "dihedral:120", "--json")
    path = tmp_path / "d120.json"
    path.write_text(out)
    args = ("--chi", "1", "--n", "2", "--json")
    code, loaded, _ = run_cli(capsys, "s", str(path), *args)
    assert code == 0
    assert loaded == run_cli(capsys, "s", "dihedral:120", *args)[1]


def test_corpus_run(tmp_path, capsys):
    corpus = {
        "entries": ["cyclic:6", "sym:3"],
        "oracle_bound": 24,
        "format": "json",
    }
    cfile = tmp_path / "corpus.json"
    cfile.write_text(json.dumps(corpus))
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "corpus", str(cfile), "--output", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert [r["entry"] for r in doc["entries"]] == ["cyclic:6", "sym:3"]
    assert doc["failures"] == [] and doc["counterexample_candidates"] == []


def test_corpus_error_isolation(tmp_path, capsys):
    bad_table = tmp_path / "broken.json"
    bad_table.write_text("{not json")
    corpus = {"entries": [str(bad_table), "cyclic:3"], "format": "json"}
    cfile = tmp_path / "corpus.json"
    cfile.write_text(json.dumps(corpus))
    code, out, _ = run_cli(capsys, "corpus", str(cfile))
    assert code == 1
    doc = json.loads(out)
    assert doc["failures"] == [str(bad_table)]
    entries = {r["entry"]: r for r in doc["entries"]}
    assert "error" in entries[str(bad_table)]
    assert entries["cyclic:3"]["all_passed"]


def test_corpus_empty(tmp_path, capsys):
    cfile = tmp_path / "corpus.json"
    cfile.write_text(json.dumps({"entries": [], "format": "json"}))
    code, out, _ = run_cli(capsys, "corpus", str(cfile))
    assert code == 0
    assert json.loads(out)["entries"] == []


def test_corpus_csv(tmp_path, capsys):
    cfile = tmp_path / "corpus.json"
    cfile.write_text(json.dumps({"entries": ["sym:3", "cyclic:8"], "format": "csv"}))
    code, out, _ = run_cli(capsys, "corpus", str(cfile))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(runner.CSV_COLUMNS)
    assert len(lines) == 1 + 3 + 8  # header + one row per irreducible
    # every cell, against the indicators computed afresh
    expect = []
    for spec in ("sym:3", "cyclic:8"):
        t = compute_table(from_spec(spec), name=spec)
        for i in range(t.num_classes):
            rep = adams.feit_indicator(t, i)
            c = j = order = ""
            if rep.witness is not None:
                c, j = rep.witness
                order = t.classes[c].rep_order // math.gcd(t.classes[c].rep_order, j)
            cells = (spec, t.order, i, t.degree(i), rep.conductor, rep.value,
                     c, order, True, True)
            expect.append(",".join(str(x) for x in cells))
    assert lines[1:] == expect


def test_corpus_jobs(tmp_path, capsys):
    cfile = tmp_path / "corpus.json"
    cfile.write_text(json.dumps({"entries": ["cyclic:4", "cyclic:5"], "format": "json"}))
    code, out, _ = run_cli(capsys, "corpus", str(cfile), "--jobs", "2")
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_corpus_jobs_below_one_are_usage_errors(tmp_path, capsys, monkeypatch):
    def no_entry(payload):
        raise AssertionError("an entry ran before --jobs was checked")

    monkeypatch.setattr(cli, "_corpus_worker", no_entry)
    cfile = tmp_path / "corpus.json"
    cfile.write_text(json.dumps({"entries": ["cyclic:4", "cyclic:5"]}))
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, "corpus", str(cfile), "--jobs", jobs)
        assert code == 2 and out == "", err
        assert f"--jobs {jobs}" in err, err


def test_corpus_pool_is_no_larger_than_the_entries_or_the_cores(
        tmp_path, capsys, monkeypatch):
    # a stub pool records its size and maps in this process: no worker starts
    import concurrent.futures

    sizes = []

    class StubPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
    for entries, cores, want in ((["cyclic:4", "cyclic:5"], 8, [2]),
                                 (["cyclic:2", "cyclic:3", "cyclic:4"], 2, [2]),
                                 (["cyclic:4", "cyclic:5"], 1, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        cfile = tmp_path / "corpus.json"
        cfile.write_text(json.dumps({"entries": entries}))
        sizes.clear()
        code, out, _ = run_cli(capsys, "corpus", str(cfile), "--jobs", "100000")
        assert code == 0 and json.loads(out)["failures"] == []
        assert sizes == want, (entries, cores)


def test_corpus_determinism(tmp_path, capsys):
    cfile = tmp_path / "corpus.json"
    cfile.write_text(json.dumps({"entries": ["sym:3", "cyclic:8"], "format": "json"}))
    code1, out1, _ = run_cli(capsys, "corpus", str(cfile))
    code2, out2, _ = run_cli(capsys, "corpus", str(cfile))
    assert code1 == code2 == 0
    scrub = lambda s: re.sub(r'"(generated_at|elapsed_seconds)": [^,\n]*', "", s)
    assert scrub(out1) == scrub(out2)


def test_one_process_matches_fresh_processes(capsys):
    # main reuses one parser across calls; each call must still behave as a
    # fresh `python -m feitlab.cli` run, a usage error in between included
    requests = [
        ["s", "sym:3", "--chi", "1", "--n", "2"],
        ["s", "sym:3", "--chi", "7", "--n", "1"],
        ["feit", "dihedral:8"],
        ["verify", "sym:3"],
    ]
    src = str(Path(feitlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    codes = []
    for argv in requests:
        got = run_cli(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "feitlab.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(got[0])
    assert codes == [0, 2, 0, 0]


def _count_builds(monkeypatch):
    built = []

    def counted(group, *args, **kwargs):
        built.append(group.name)
        return compute_table(group, *args, **kwargs)

    monkeypatch.setattr(runner, "compute_table", counted)
    return built


def test_a_spec_table_is_built_once_per_process(capsys, monkeypatch):
    built, parsed = _count_builds(monkeypatch), []
    parse = feitlab.groups._parse_spec
    monkeypatch.setattr(feitlab.groups, "_parse_spec",
                        lambda spec: parsed.append(spec) or parse(spec))
    first = runner.resolve_input("sym:4")
    assert runner.resolve_input("sym:4") is first
    assert first.name == "sym:4" and built == ["sym:4"] and parsed == ["sym:4"]
    # requests on the spec read the same table and print the same
    args = ("s", "sym:4", "--chi", "3", "--n", "2", "--json")
    assert run_cli(capsys, *args) == run_cli(capsys, *args)
    assert built == ["sym:4"]


def test_failed_specs_are_not_kept(capsys):
    runner.resolve_input("cyclic:3")
    for _ in range(3):
        code, _, err = run_cli(capsys, "s", "nonsense:1", "--chi", "0", "--n", "1")
        assert code == 2 and "unknown group spec" in err
        code, _, err = run_cli(capsys, "s", "cyclic:3000", "--chi", "0", "--n", "1")
        assert code == 1 and "BoundExceeded" in err
        assert runner._spec_table.cache_info().currsize == 1


def test_factor_tables_are_not_kept():
    # only the product's own table is kept: its factors' tables are built
    # for it and dropped
    runner.resolve_input("product:alt:4,cyclic:3")
    assert runner._spec_table.cache_info().currsize == 1


def test_a_table_file_is_read_on_every_request(tmp_path, capsys):
    path = tmp_path / "table.json"
    args = ("--chi", "1", "--n", "2", "--json")
    outs = []
    for spec in ("cyclic:4", "sym:3"):
        path.write_text(run_cli(capsys, "table", spec, "--json")[1])
        outs.append(run_cli(capsys, "s", spec, *args))
        assert run_cli(capsys, "s", str(path), *args) == outs[-1], spec
    assert outs[0] != outs[1]
    assert runner._spec_table.cache_info().currsize == 2


def test_the_table_cache_is_bounded(monkeypatch):
    built = _count_builds(monkeypatch)
    size = runner.TABLE_CACHE_SIZE
    specs = [f"cyclic:{n}" for n in range(1, size + 3)]
    for spec in specs:
        runner.resolve_input(spec)
    info = runner._spec_table.cache_info()
    assert info.maxsize == info.currsize == size
    # the least recent spec was dropped and is built again; the most recent stayed
    runner.resolve_input(specs[-1])
    runner.resolve_input(specs[0])
    assert built == specs + specs[:1]


def test_verify_drops_the_oracle_context_of_a_kept_table(capsys):
    # the context serves one verification; the kept table's group must not
    # carry it into later requests
    assert run_cli(capsys, "verify", "dihedral:8")[0] == 0
    assert runner.resolve_input("dihedral:8").group.oracle_context is None


def test_mixed_requests_match_a_cold_cache(capsys):
    # every request on a warm cache prints what it prints alone on a cold
    # one; verify leaves the subgroup lattice and element tables on the
    # group of its kept table, which an s on the same spec then shares
    rng = random.Random(13)
    head = [["verify", "sym:3"], ["s", "sym:3", "--chi", "2", "--n", "3", "--json"]]
    rest = [
        ["verify", "dihedral:8"], ["verify", "cyclic:6", "--json"],
        ["feit", "dihedral:8", "--json"], ["feit", "alt:4"],
        ["s", "dihedral:8", "--chi", "4", "--n", "2"],
        ["s", "alt:4", "--chi", "9", "--n", "1"],
        ["s", "nonsense:1", "--chi", "0", "--n", "1"],
    ]
    rest += [["s", f"cyclic:{n}", "--chi", "1", "--n", str(n), "--json"]
             for n in range(2, runner.TABLE_CACHE_SIZE + 2)]
    rest += rest[:6]
    rng.shuffle(rest)
    requests = head + rest

    def scrub(text):
        return re.sub(r'"(generated_at|elapsed_seconds)": [^,\n]*', "", text)

    cold = []
    for argv in requests:
        runner._spec_table.cache_clear()
        code, out, err = run_cli(capsys, *argv)
        cold.append((code, scrub(out), err))
    runner._spec_table.cache_clear()
    for argv, want in zip(requests, cold):
        code, out, err = run_cli(capsys, *argv)
        assert (code, scrub(out), err) == want, argv
    assert runner._spec_table.cache_info().hits > 0
    assert {c[0] for c in cold} == {0, 2}


def test_unknown_spec_is_error(capsys):
    code, _, err = run_cli(capsys, "table", "nonsense:1")
    assert code == 2
    assert "error" in err


def test_malformed_elementary_spec_names_the_form(capsys):
    for spec in ("elementary:2", "elementary:2,x"):
        code, _, err = run_cli(capsys, "table", spec)
        assert code == 2
        assert "elementary:p,k" in err and "unpack" not in err


def test_malformed_product_factor_is_named(capsys):
    cases = {
        "product:": "factor 1 is empty",
        "product:,cyclic:2": "factor 1 is empty",
        "product:cyclic:2,foo:3": "factor 2 ('foo:3'): unknown group spec 'foo:3'",
    }
    for spec, why in cases.items():
        code, out, err = run_cli(capsys, "feit", spec)
        assert code == 2 and out == "", spec
        assert f"malformed group spec {spec!r}: {why}" in err, spec


def test_feit_zero_exit_code(capsys, monkeypatch):
    # a vanishing indicator is a reportable finding with its own exit code,
    # distinct from internal errors; none occurs on real tables, so stub one
    from feitlab.adams import FeitReport

    def fake_indicator(table, chi):
        return FeitReport(chi if isinstance(chi, int) else None, 1, 0, None)

    monkeypatch.setattr(cli.adams, "feit_indicator", fake_indicator)
    code, out, _ = run_cli(capsys, "feit", "cyclic:2", "--all")
    assert code == 3
    assert "counterexample candidate" in out


def test_verify_counterexample_exit_code(capsys, monkeypatch):
    from feitlab.adams import FeitReport

    def fake_indicator(table, chi):
        return FeitReport(chi if isinstance(chi, int) else None, 1, 0, None)

    monkeypatch.setattr(runner.adams, "feit_indicator", fake_indicator)
    code, out, _ = run_cli(capsys, "verify", "cyclic:2")
    assert code == 3
    assert "counterexample" in out


def test_bundled_corpus_exists():
    assert runner.BUNDLED_CORPUS.exists()
    assert len(set(CORPUS)) == len(CORPUS) == 21
    assert all(spec_order(spec) <= 24 for spec in CORPUS)


def test_bundled_corpus_runs_clean(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "corpus", str(runner.BUNDLED_CORPUS), "--output", str(out_path)
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["failures"] == []
    assert doc["counterexample_candidates"] == []
    assert len(doc["entries"]) == len(CORPUS)
    assert all(r["all_passed"] for r in doc["entries"])
