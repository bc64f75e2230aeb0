import json
import os
import re
import subprocess
import sys
from pathlib import Path

import feitlab

from feitlab import cli, runner
from feitlab.chartab import load_table


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
    cfile.write_text(json.dumps({"entries": ["sym:3"], "format": "csv"}))
    code, out, _ = run_cli(capsys, "corpus", str(cfile))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(runner.CSV_COLUMNS)
    assert len(lines) == 4  # header + one row per irreducible


def test_corpus_jobs(tmp_path, capsys):
    cfile = tmp_path / "corpus.json"
    cfile.write_text(json.dumps({"entries": ["cyclic:4", "cyclic:5"], "format": "json"}))
    code, out, _ = run_cli(capsys, "corpus", str(cfile), "--jobs", "2")
    assert code == 0
    assert json.loads(out)["failures"] == []


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


def test_unknown_spec_is_error(capsys):
    code, _, err = run_cli(capsys, "table", "nonsense:1")
    assert code == 2
    assert "error" in err


def test_malformed_elementary_spec_names_the_form(capsys):
    for spec in ("elementary:2", "elementary:2,x"):
        code, _, err = run_cli(capsys, "table", spec)
        assert code == 2
        assert "elementary:p,k" in err and "unpack" not in err


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
    doc = json.loads(runner.BUNDLED_CORPUS.read_text())
    assert doc["entries"] == list(runner.C_SMALL)


def test_bundled_corpus_runs_clean(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "corpus", str(runner.BUNDLED_CORPUS), "--output", str(out_path)
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["failures"] == []
    assert doc["counterexample_candidates"] == []
    assert len(doc["entries"]) == len(runner.C_SMALL)
    assert all(r["all_passed"] for r in doc["entries"])
