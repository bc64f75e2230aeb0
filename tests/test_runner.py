"""The records that ``verify_table`` keeps of a failing check: each names
the last failure it saw."""

import itertools

import pytest

from feitlab import adams, brauer, runner
from feitlab.chartab import compute_table
from feitlab.cyclo import Cyclotomic
from feitlab.errors import TableFormatError
from feitlab.groups import from_spec

# below the order of sym:3: the oracle's checks are skipped
NO_ORACLE = 1


@pytest.fixture
def sym3():
    return compute_table(from_spec("sym:3"), name="sym:3")


def record(report, name):
    (rec,) = [c for c in report["checks"] if c["name"] == name]
    return rec


def test_table_integrity_reports_the_load_error(sym3, monkeypatch):
    def refuse(blob):
        raise TableFormatError("row 2 is not a character")

    monkeypatch.setattr(runner, "load_table", refuse)
    report = runner.verify_table(sym3, NO_ORACLE)
    assert record(report, "table_integrity") == {
        "name": "table_integrity", "passed": False, "detail": "row 2 is not a character"}
    assert not report["all_passed"]


def test_table_integrity_reports_an_unstable_round_trip(sym3, monkeypatch):
    count = itertools.count()
    monkeypatch.setattr(runner, "save_table", lambda table: b"%d" % next(count))
    monkeypatch.setattr(runner, "load_table", lambda blob: sym3)
    rec = record(runner.verify_table(sym3, NO_ORACLE), "table_integrity")
    assert not rec["passed"]
    assert rec["detail"] == "serialization round trip is not byte-stable"


def test_theorem_check_names_the_last_failing_point(sym3, monkeypatch):
    real = adams.verify_invariant
    bad = {(0, 1), (1, 2)}

    def flawed(table, i, n):
        chk = real(table, i, n)
        return chk._replace(nonnegative=False) if (i, n) in bad else chk

    monkeypatch.setattr(adams, "verify_invariant", flawed)
    rec = record(runner.verify_table(sym3, NO_ORACLE), "theorem_nonneg_witness")
    last = real(sym3, 1, 2)
    assert not rec["passed"]
    assert rec["detail"] == f"chi 1, n 2: value {last.value}, witness {last.witness}"


def test_example_linear_reports_a_non_root_value(sym3, monkeypatch):
    monkeypatch.setattr(Cyclotomic, "as_root_of_unity", lambda self: None)
    rec = record(runner.verify_table(sym3, NO_ORACLE), "example_linear")
    # rows 0 and 1 of sym:3 are its linear characters
    assert rec == {"name": "example_linear", "passed": False,
                   "detail": "chi 1 has a non-root value"}


def test_max_sets_names_the_last_failing_row(sym3, monkeypatch):
    real = brauer.check_max_sets

    def flawed(table, i, bound=None):
        chk = real(table, i, bound)
        return chk._replace(support_contained=False) if i in (0, 1) else chk

    monkeypatch.setattr(brauer, "check_max_sets", flawed)
    report = runner.verify_table(sym3)
    assert report["oracle_checked"]
    assert record(report, "max_sets") == {"name": "max_sets", "passed": False, "detail": "chi 1"}
    assert not report["all_passed"]
