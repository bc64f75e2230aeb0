"""Named verification bundles over a single table, and the bundled corpora.

Each check is a named pass/fail record so the command line can print one
line per check and a corpus run can aggregate them.  The oracle section is
gated on the group order and skipped (with notice) when out of bounds.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import adams, brauer, numth
from .chartab import (
    CharacterTable,
    compute_table,
    inner_product,
    load_table,
    save_table,
)
from .errors import TableFormatError
from .groups import from_spec, perm_order

_SPEC_HEADS = (
    "cyclic", "sym", "alt", "dihedral", "quaternion", "sl2",
    "elementary", "extraspecial", "perm", "product",
)

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
    return head in _SPEC_HEADS


def resolve_input(entry: str) -> CharacterTable:
    """A corpus entry is either a group-spec string or a table file path.
    An entry that is neither a bundled spec form nor an existing file is
    read as a spec, so that ``from_spec`` rejects it (SpecError)."""
    path = Path(entry)
    if looks_like_spec(entry) or not path.exists():
        return compute_table(from_spec(entry), name=entry)
    return load_table(path.read_bytes())


def _check(checks: List[dict], name: str, passed: bool, detail: str = ""):
    checks.append({"name": name, "passed": bool(passed), "detail": detail})


def verify_table(table: CharacterTable, oracle_bound: Optional[int] = None) -> Dict:
    """Run every module's invariants against one table.  Returns a report
    with one record per named check, the per-(chi, n) invariant values, and
    the per-chi conductor indicators."""
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
    theorem_ok = True
    detail = ""
    for i in range(nchi):
        for n in divisors_e:
            chk = adams.verify_invariant(table, i, n)
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
    ok = all(
        adams.invariant(table, triv, n).value == (1 if n == 1 else 0)
        for n in divisors_e
    )
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
                got = adams.invariant(table, i, n).value
                if got != (1 if o % n == 0 else 0):
                    ok, detail = False, f"chi {i}, n {n}: got {got}"
    _check(checks, "example_linear", ok, detail)

    ok, detail = True, ""
    if table.group is not None:
        reg = table.regular_character()
        for n in divisors_e:
            census = sum(
                1 for x in table.group.elements if perm_order(x) % n == 0
            )
            got = adams.invariant(table, reg, n).value
            if got != census:
                ok, detail = False, f"n {n}: got {got}, census {census}"
        _check(checks, "example_regular", ok, detail)
    else:
        skipped.append({"name": "example_regular", "reason": "no group attached"})

    ok = all(
        adams.invariant(table, i, 1).value == table.degree(i) for i in range(nchi)
    )
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
        _oracle_checks(table, oracle_bound, checks)

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


def _oracle_checks(table: CharacterTable, bound: Optional[int], checks: List[dict]):
    group = table.group
    e = table.exponent
    divisors_e = numth.divisors(e)
    nchi = table.num_classes
    combs = {}

    ok, detail = True, ""
    for i in range(nchi):
        combs[i] = brauer.induction_by_chains(table, i, bound)
        if combs[i] != brauer.induction_by_orbit_chains(table, i, bound):
            ok, detail = False, f"chi {i}"
    _check(checks, "chain_formula_agreement", ok, detail)

    ok, detail = True, ""
    for i in range(nchi):
        if brauer.induced_character(table, combs[i]) != table.irreducible(i):
            ok, detail = False, f"chi {i}"
    _check(checks, "section_property", ok, detail)

    ok, detail = True, ""
    whole = group.whole_subgroup()
    for i in range(nchi):
        chi = table.irreducible(i)
        for phi in whole.linear_characters():
            pair = brauer.MonomialPair(whole, phi)
            lin = table.class_function(
                [phi.cyclotomic_value(rep) for rep in table.class_reps]
            )
            if combs[i].coefficient(pair) != inner_product(chi, lin):
                ok, detail = False, f"chi {i}, order-{phi.order} character"
    _check(checks, "normalization", ok, detail)

    ok, detail = True, ""
    for i in range(nchi):
        chi_values = brauer.element_values(table, i)
        for u in group.all_subgroups():
            down = brauer.restrict_combination(combs[i], u, bound)
            sub_values = {x: chi_values[x] for x in u.elements}
            direct = brauer.induction_by_chains_values(
                u.as_group(), sub_values, bound
            )
            if down != direct:
                ok, detail = False, f"chi {i}, subgroup of order {u.order}"
    _check(checks, "restriction_naturality", ok, detail)

    ok, detail = True, ""
    for i in range(nchi):
        for n in divisors_e:
            slow = brauer.invariant_via_coefficients(table, i, n, comb=combs[i])
            fast = adams.invariant(table, i, n).value
            if slow != fast:
                ok, detail = False, f"chi {i}, n {n}: {slow} vs {fast}"
    _check(checks, "route_equivalence", ok, detail)

    ok, detail = True, ""
    for i in range(nchi):
        for n in divisors_e:
            if not brauer.adams_identity_check(table, i, n, comb=combs[i]).passed:
                ok, detail = False, f"chi {i}, n {n}"
    _check(checks, "adams_coefficient_identity", ok, detail)

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

    ok, detail = True, ""
    for i in range(nchi):
        for n in divisors_e:
            if not brauer.check_equivalences(table, i, n, bound).passed:
                ok, detail = False, f"chi {i}, n {n}"
    _check(checks, "equivalences", ok, detail)


def feit_rows(table: CharacterTable) -> List[dict]:
    """Per-irreducible conductor-indicator rows for reports and CSV."""
    rows = []
    for i in range(table.num_classes):
        rep = adams.feit_indicator(table, i)
        witness_class = witness_order = None
        if rep.witness is not None:
            c, j = rep.witness
            t = table.classes[c].rep_order
            witness_class, witness_order = c, t // math.gcd(t, j)
        rows.append(
            {
                "group": table.name,
                "order": table.order,
                "chi_index": i,
                "degree": table.degree(i),
                "conductor": rep.conductor,
                "S_at_conductor": rep.value,
                "witness_class": witness_class,
                "witness_order": witness_order,
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
        report["rows"] = [
            {
                **row,
                "oracle_checked": report["oracle_checked"],
                "all_checks_passed": report["all_passed"],
            }
            for row in feit_rows(table)
        ]
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
