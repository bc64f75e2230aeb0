"""The records that ``verify_table`` keeps of a failing check: each names
the last failure it saw."""

import itertools

import pytest

from feitlab import adams, brauer, runner
from feitlab.chartab import compute_table
from feitlab.errors import TableFormatError
from feitlab.groups import MonomialPair, from_spec

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


def flip(monkeypatch, point, change):
    """Patch ``adams.verify_invariant`` so that S at ``point`` = (i, n)
    reads ``change(S)``."""
    real = adams.verify_invariant

    def flawed(table, i, n):
        chk = real(table, i, n)
        return chk._replace(value=change(chk.value)) if (i, n) == point else chk

    monkeypatch.setattr(adams, "verify_invariant", flawed)


def test_example_linear_names_a_wrong_value(sym3, monkeypatch):
    # rows 0 and 1 of sym:3 are its linear characters: the sign, of order 2,
    # and the trivial character
    flip(monkeypatch, (0, 2), lambda s: 1 - s)
    rec = record(runner.verify_table(sym3, NO_ORACLE), "example_linear")
    assert rec == {"name": "example_linear", "passed": False, "detail": "chi 0, n 2: got 0"}


def test_example_regular_names_n_got_and_census(sym3, monkeypatch):
    # the two 3-cycles are the elements of order 3, and S(chi, 3) is 0, 0
    # and 1 on the rows of degrees 1, 1 and 2: the trivial row's S one too
    # high makes the regular character's 3
    flip(monkeypatch, (1, 3), lambda s: s + 1)
    rec = record(runner.verify_table(sym3, NO_ORACLE), "example_regular")
    assert rec == {"name": "example_regular", "passed": False, "detail": "n 3: got 3, census 2"}


def test_a_zero_indicator_is_a_counterexample_candidate(sym3, monkeypatch):
    # every row of sym:3 is rational, so its conductor is 1
    assert sym3.conductors[2] == 1
    flip(monkeypatch, (2, 1), lambda s: 0)
    report = runner.verify_table(sym3, NO_ORACLE)
    assert report["counterexample_candidates"] == [
        {"chi_index": 2, "conductor": 1, "F": 0, "witness": None}]
    assert [rep["F"] for rep in report["feit"]] == [1, 1, 0]


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


def perturb(monkeypatch, i, pair):
    """Patch ``brauer.induction_by_chains`` so that row i's canonical
    induction coefficient at ``pair`` reads one more."""
    real = brauer.induction_by_chains

    def flawed(table, chi, bound=None, sub=None):
        comb = real(table, chi, bound, sub)
        if chi == i:
            comb = comb + brauer.PairCombination(comb.group_key, {pair: 1})
        return comb

    monkeypatch.setattr(brauer, "induction_by_chains", flawed)


def test_normalization_names_the_row_and_the_order_of_a_wrong_coefficient(sym3, monkeypatch):
    # the coefficient of (G, phi) is <chi, phi> for a linear phi of G: row
    # 1, the trivial character, one too high at the sign, of order 2
    whole = sym3.group.whole_subgroup()
    sign = next(phi for phi in whole.linear_characters() if phi.order == 2)
    perturb(monkeypatch, 1, MonomialPair(whole, sign))
    report = runner.verify_table(sym3)
    assert report["oracle_checked"]
    assert record(report, "normalization") == {
        "name": "normalization", "passed": False, "detail": "chi 1, order-2 character"}


def test_normalization_fails_on_an_irrational_sum(sym3, monkeypatch):
    # the group-ring sum of <chi, phi> with its z coordinate moved is
    # irrational, so it equals no integer coefficient, although its
    # constant coordinate is unchanged; the last row and character fail last
    real = runner._group_ring_sum

    def irrational(level, terms):
        sums = real(level, terms)
        sums[1] += 1
        return sums

    monkeypatch.setattr(runner, "_group_ring_sum", irrational)
    report = runner.verify_table(sym3)
    assert record(report, "normalization") == {
        "name": "normalization", "passed": False, "detail": "chi 2, order-2 character"}


def test_section_property_names_a_row_whose_combination_is_wrong(sym3, monkeypatch):
    # one more (1, 1) in row 2's combination adds the regular character,
    # which is 0 off the identity: the induced row is wrong at class 0 only
    trivial = sym3.group.subgroup([sym3.group.identity])
    perturb(monkeypatch, 2, MonomialPair(trivial, trivial.linear_characters()[0]))
    report = runner.verify_table(sym3)
    assert record(report, "section_property") == {
        "name": "section_property", "passed": False, "detail": "chi 2"}
    assert record(report, "normalization")["passed"]


def test_section_property_reads_the_denominator(sym3, monkeypatch):
    # an induced value with a row's numerators over 2 is not the row's
    # value: halving the odd degrees breaks the two linear rows, 0 and 1
    real = brauer.induced_character

    def halved(table, comb):
        func = real(table, comb)
        d = func.values[0]
        return func if d.nums[0] % 2 == 0 else table.class_function((d / 2, *func.values[1:]))

    monkeypatch.setattr(brauer, "induced_character", halved)
    assert record(runner.verify_table(sym3), "section_property") == {
        "name": "section_property", "passed": False, "detail": "chi 1"}
