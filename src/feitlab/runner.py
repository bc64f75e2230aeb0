"""Named verification bundles over a single table, and the bundled corpora.

Each check is a named pass/fail record so the command line can print one
line per check and a corpus run can aggregate them.  The oracle section is
gated on the group order and skipped (with notice) when out of bounds.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from . import adams, numth
from .chartab import (
    CharacterTable, _group_ring_sum, _value_terms, check_table_bound, compute_table, load_table,
    save_table,
)
from .cyclo import _make
from .errors import TableFormatError
from .groups import SPEC_HEADS, from_spec, perm_order, spec_order

C_SMALL: Tuple[str, ...] = tuple(
    [f"cyclic:{n}" for n in range(1, 13)]
    + [
        "product:cyclic:2,cyclic:2",
        "product:cyclic:2,cyclic:4",
        "sym:3",
        "dihedral:8",
        "quaternion:8",
        "dihedral:12",
        "alt:4",
        "sl2:3",
        "sym:4",
    ]
)

C_BIG: Tuple[str, ...] = tuple(
    list(C_SMALL)
    + ["sym:5", "alt:5"]
    + [
        f"dihedral:{2 * n}"
        for n in range(1, 16)
        if f"dihedral:{2 * n}" not in C_SMALL
    ]
    + ["extraspecial:27"]
)

BUNDLED_CORPUS = Path(__file__).parent / "data" / "corpus_small.json"


def looks_like_spec(entry: str) -> bool:
    head = entry.split(":", 1)[0]
    return head in SPEC_HEADS


# Spec tables kept per process.  The bound is set by memory, not by how
# many groups a client asks about: the most recent tables are retained
# whether or not they are asked for again, so a scan that never repeats a
# group pays for all of them.  Under tracemalloc a retained table with its
# group holds 11 KiB (dihedral:12) to 320 KiB (sl2:7); `verify` drops the
# oracle's context, 300 KiB more on sym:4, when it is done.  Eight keeps
# the cost under 1 MB when nothing is reused: they raise the peak RSS of a
# process running one `feit --all` pass over groups of order 25..720 from
# about 21.7 to 22.6 MB, where sixteen reach 22.9 MB.
TABLE_CACHE_SIZE = 8


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _spec_table(entry: str) -> CharacterTable:
    """The table of a spec, built once per process while it stays among
    the most recent ``TABLE_CACHE_SIZE``.  It is keyed by the spec string,
    so it carries the name it was asked for; a spec that fails raises and
    is not kept.  A spec whose order is known in advance and is above the
    table bound is refused before its group is built."""
    order = spec_order(entry)
    if order is not None:
        check_table_bound(order)
    return compute_table(from_spec(entry), name=entry)


def resolve_input(entry: str) -> CharacterTable:
    """A corpus entry is either a group-spec string or a table file path.
    An entry that is neither a bundled spec form nor an existing file is
    read as a spec, so that ``from_spec`` rejects it (SpecError).  Spec
    tables come from ``_spec_table`` and are shared by every caller that
    asks for the same spec, so they are read, never modified; a file is
    read and validated on every call."""
    path = Path(entry)
    if looks_like_spec(entry) or not path.exists():
        return _spec_table(entry)
    return load_table(path.read_bytes())


def _check(checks: List[dict], name: str, passed: bool, detail: str = ""):
    checks.append({"name": name, "passed": bool(passed), "detail": detail})


def verify_table(table: CharacterTable, oracle_bound: Optional[int] = None) -> Dict:
    """Run every module's invariants against one table.  Returns a report
    with one record per named check, the per-(chi, n) invariant values, and
    the per-chi conductor indicators.  The oracle's context built for the
    checks is dropped from the table when they are done."""
    # the oracle is imported where it is run: no other command compiles it
    from . import brauer

    start = time.monotonic()
    checks: List[dict] = []
    skipped: List[dict] = []
    e = table.exponent
    divisors_e = numth.divisors(e)
    nchi = table.num_classes

    try:
        # load_table validates the serialized table
        blob = save_table(table)
        stable = save_table(load_table(blob)) == blob
        _check(checks, "table_integrity", stable,
               "" if stable else "serialization round trip is not byte-stable")
    except TableFormatError as exc:
        _check(checks, "table_integrity", False, str(exc))

    invariants: List[dict] = []
    # S(chi_i, n), read by the checks below, each against its own expectation
    values: Dict[Tuple[int, int], int] = {}
    theorem_ok = True
    detail = ""
    for i in range(nchi):
        for n in divisors_e:
            chk = adams.verify_invariant(table, i, n)
            values[i, n] = chk.value
            if not chk.passed:
                theorem_ok = False
                detail = f"chi {i}, n {n}: value {chk.value}, witness {chk.witness}"
            invariants.append(
                {
                    "chi_index": i,
                    "n": n,
                    "S": chk.value,
                    "witness": list(chk.witness) if chk.witness else None,
                }
            )
    _check(checks, "theorem_nonneg_witness", theorem_ok, detail)

    triv = table.trivial_index
    ok = all(values[triv, n] == (1 if n == 1 else 0) for n in divisors_e)
    _check(checks, "example_trivial", ok)

    ok, detail = True, ""
    for i in range(nchi):
        if table.degree(i) != 1:
            continue
        orders = []
        for v in table.irreducibles[i]:
            root = v.as_root_of_unity()
            if root is None:
                ok, detail = False, f"chi {i} has a non-root value"
                break
            orders.append(root.order)
        else:
            o = math.lcm(*orders)
            for n in divisors_e:
                got = values[i, n]
                if got != (1 if o % n == 0 else 0):
                    ok, detail = False, f"chi {i}, n {n}: got {got}"
    _check(checks, "example_linear", ok, detail)

    if table.group is not None:
        reg = table.regular_character()
        orders = Counter(perm_order(x) for x in table.group.elements)
        _check_all(checks, "example_regular", (
            f"n {n}: got {got}, census {census}" for n in divisors_e
            if (got := adams.invariant(table, reg, n).value)
            != (census := sum(k for o, k in orders.items() if o % n == 0))))
    else:
        skipped.append({"name": "example_regular", "reason": "no group attached"})

    ok = all(values[i, 1] == table.degree(i) for i in range(nchi))
    _check(checks, "example_degree", ok)

    feit_reports = []
    for i in range(nchi):
        rep = adams.feit_indicator(table, i)
        feit_reports.append(rep.to_json())

    oracle_checked = False
    limit = brauer.resolve_oracle_bound(oracle_bound)
    if table.group is None:
        skipped.append({"name": "oracle_suite", "reason": "no group attached"})
    elif table.order > limit:
        skipped.append(
            {
                "name": "oracle_suite",
                "reason": f"group order {table.order} exceeds oracle bound {limit}",
            }
        )
    else:
        oracle_checked = True
        try:
            _oracle_checks(table, oracle_bound, checks, values)
        finally:
            # the poset serves this verification only, and a spec table
            # outlives the request in the table cache
            table.oracle_context = None

    all_passed = all(c["passed"] for c in checks)
    return {
        "group": table.name,
        "order": table.order,
        "exponent": e,
        "oracle_checked": oracle_checked,
        "checks": checks,
        "skipped": skipped,
        "invariants": invariants,
        "feit": feit_reports,
        "counterexample_candidates": [
            rep for rep in feit_reports if rep["F"] == 0
        ],
        "all_passed": all_passed,
        "elapsed_seconds": round(time.monotonic() - start, 3),
    }


def _check_all(checks: List[dict], name: str, failures: Iterable[str]) -> None:
    """The record of a check that fails at each detail ``failures`` yields
    (the last one is reported) and passes if it yields none."""
    detail = None
    for detail in failures:
        pass
    _check(checks, name, detail is None, detail or "")


def _oracle_checks(table: CharacterTable, bound: Optional[int], checks: List[dict], values):
    """The oracle's checks; ``values`` holds S(chi_i, n) of the Adams route."""
    from . import brauer

    group, e, nchi = table.group, table.exponent, table.num_classes
    points = [(i, n) for i in range(nchi) for n in numth.divisors(e)]
    combs = [brauer.induction_by_chains(table, i, bound) for i in range(nchi)]
    _check_all(checks, "chain_formula_agreement", (
        f"chi {i}" for i, comb in enumerate(combs)
        if comb != brauer.induction_by_orbit_chains(table, i, bound)))
    _check_all(checks, "section_property", (
        f"chi {i}" for i, comb in enumerate(combs)
        if brauer.induced_character(table, comb) != table.irreducible(i)))

    # <chi_i, phi> for the linear characters phi of the group, from the
    # rows' value terms and phi's exponents at the class representatives
    whole = group.whole_subgroup()
    level = math.lcm(e, *(v.level for row in table.irreducibles for v in row))
    rows = [_value_terms(row, level) for row in table.irreducibles]
    sizes = [cls.size for cls in table.classes]
    lins = [
        (brauer.MonomialPair(whole, phi),
         [((phi.exponents[group.index[x]] * (level // phi.order), 1),) for x in table.class_reps])
        for phi in whole.linear_characters()
    ]
    _check_all(checks, "normalization", (
        f"chi {i}, order-{pair.character.order} character"
        for pair, lin in lins for i, (terms, den) in enumerate(rows)
        if combs[i].coefficient(pair)
        != _make(level, _group_ring_sum(level, zip(sizes, terms, lin)), table.order * den)))

    failure = brauer.restriction_failure(table, bound)
    _check_all(checks, "restriction_naturality", [
        f"chi {failure[0]}, subgroup of order {failure[1].order}"] if failure else [])
    _check_all(checks, "route_equivalence", (
        f"chi {i}, n {n}: {slow} vs {values[i, n]}" for i, n in points
        if (slow := brauer.invariant_via_coefficients(table, i, n, comb=combs[i])) != values[i, n]))
    identities = brauer.adams_identity_checks(table, combs)
    _check_all(checks, "adams_coefficient_identity", (
        f"chi {i}, n {n}" for i, n in points if not identities[i, n].passed))

    ok, detail = True, ""
    strict: List[str] = []
    for i in range(nchi):
        chk = brauer.check_max_sets(table, i, bound)
        if not chk.passed:
            ok, detail = False, f"chi {i}"
        if chk.strictly_smaller:
            strict.append(f"chi {i}")
    _check(checks, "max_sets", ok,
           detail or (f"strict inclusion at {strict[0]}" if strict else ""))

    _check_all(checks, "equivalences", (
        f"chi {i}, n {n}" for i, n in points
        if not brauer.check_equivalences(table, i, n, bound).passed))


def feit_rows(table: CharacterTable, report: Dict) -> List[dict]:
    """Per-irreducible conductor-indicator rows for reports and CSV, from
    the Feit reports and the outcome of ``verify_table``."""
    rows = []
    for rep in report["feit"]:
        i = rep["chi_index"]
        witness_class = witness_order = None
        if rep["witness"] is not None:
            c, j = rep["witness"]
            t = table.classes[c].rep_order
            witness_class, witness_order = c, t // math.gcd(t, j)
        rows.append(
            {
                "group": table.name,
                "order": table.order,
                "chi_index": i,
                "degree": table.degree(i),
                "conductor": rep["conductor"],
                "S_at_conductor": rep["F"],
                "witness_class": witness_class,
                "witness_order": witness_order,
                "oracle_checked": report["oracle_checked"],
                "all_checks_passed": report["all_passed"],
            }
        )
    return rows


CSV_COLUMNS = (
    "group", "order", "chi_index", "degree", "conductor", "S_at_conductor",
    "witness_class", "witness_order", "oracle_checked", "all_checks_passed",
)


def run_entry(entry: str, oracle_bound: Optional[int] = None) -> Dict:
    """Verify + conductor indicators for one corpus entry; errors are
    captured in the report rather than raised."""
    try:
        table = resolve_input(entry)
        report = verify_table(table, oracle_bound)
        report["entry"] = entry
        report["rows"] = feit_rows(table, report)
        return report
    except Exception as exc:  # noqa: BLE001 - per-entry isolation is the contract
        return {
            "entry": entry,
            "error": f"{type(exc).__name__}: {exc}",
            "all_passed": False,
            "checks": [],
            "skipped": [],
            "rows": [],
            "counterexample_candidates": [],
        }
