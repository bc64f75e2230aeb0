"""Named verification bundles over a single table, and the bundled corpus.

Each check is a named pass/fail record so the command line can print one
line per check and a corpus run can aggregate them.  The oracle section is
gated on the group order and skipped (with notice) when out of bounds.
"""

from __future__ import annotations

import json
import math
import time
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

from . import adams, numth
from .chartab import (
    CharacterTable, _group_ring_sum, _table_document, _value_terms, check_table_bound,
    compute_table, load_table,
)
from .cyclo import _make
from .errors import TableFormatError, UsageError
from .groups import SPEC_HEADS, admitted_spec

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
    build, order = admitted_spec(entry)
    if order is not None:
        check_table_bound(order)
    return compute_table(build(), name=entry)


def resolve_input(entry: str) -> CharacterTable:
    """A corpus entry is either a group-spec string or a table file path.
    An entry that is neither a bundled spec form nor an existing file is
    read as a spec, so that ``from_spec`` rejects it (SpecError).  Spec
    tables come from ``_spec_table`` and are shared by every caller that
    asks for the same spec, so they are read, never modified; a file is
    read and validated on every call; one that cannot be read is a
    UsageError naming it."""
    if looks_like_spec(entry) or not (path := Path(entry)).exists():
        return _spec_table(entry)
    try:
        return load_table(path.read_bytes())
    except OSError as exc:
        raise UsageError(f"{entry}: cannot read the table file: {exc.strerror}") from None


def _check(checks: List[dict], name: str, failures: Iterable[str], note: str = "") -> None:
    """Record the check ``name``: it fails at each detail ``failures``
    yields (the last one is reported) and passes, with ``note``, if it
    yields none."""
    detail = None
    for detail in failures:
        pass
    checks.append({"name": name, "passed": detail is None,
                   "detail": note if detail is None else detail})


def _integrity_failures(table: CharacterTable) -> Iterator[str]:
    """The table written in the interchange format loads (``load_table``'s
    full validation: the power map, the multiplicity transform and the Gram
    pass) and is written back to the same text.  The text is the compact
    JSON of the table's document, which the C encoder writes; ``save_table``
    writes the same document with an indent."""
    try:
        text = json.dumps(_table_document(table))
        loaded = load_table(text)
        # the indented bytes of save_table hold the same tokens in the same
        # order as this text, and the whitespace between them is fixed by the
        # document's structure, so one is stable exactly when the other is
        if json.dumps(_table_document(loaded)) != text:
            yield "serialization round trip is not byte-stable"
    except TableFormatError as exc:
        yield str(exc)


def _linear_failures(table: CharacterTable, values, divisors_e) -> Iterator[str]:
    """S(chi, n) of a linear chi is 1 if n divides the order of chi, else 0."""
    for i in range(table.num_classes):
        if table.degree(i) != 1:
            continue
        roots = [v.as_root_of_unity() for v in table.irreducibles[i]]
        if any(root is None for root in roots):
            yield f"chi {i} has a non-root value"
            continue
        o = math.lcm(*(root.order for root in roots))
        for n in divisors_e:
            if values[i, n] != int(o % n == 0):
                yield f"chi {i}, n {n}: got {values[i, n]}"


def verify_table(table: CharacterTable, oracle_bound: Optional[int] = None) -> Dict:
    """Run every module's invariants against one table.  Returns a report
    with one record per named check, the per-(chi, n) invariant values, and
    the per-chi conductor indicators.  The oracle's context built for the
    checks is dropped from the table when they are done."""
    start = time.monotonic()
    checks: List[dict] = []
    skipped: List[dict] = []
    e = table.exponent
    divisors_e = numth.divisors(e)
    nchi = table.num_classes

    _check(checks, "table_integrity", _integrity_failures(table))

    results = {(i, n): adams.verify_invariant(table, i, n) for i in range(nchi) for n in divisors_e}
    _check(checks, "theorem_nonneg_witness", (
        f"chi {i}, n {n}: value {chk.value}, witness {chk.witness}"
        for (i, n), chk in results.items() if not chk.passed))
    # S(chi_i, n), read by the checks below, each against its own expectation
    values = {key: chk.value for key, chk in results.items()}
    triv = table.trivial_index
    _check(checks, "example_trivial", (
        f"n {n}: got {values[triv, n]}" for n in divisors_e if values[triv, n] != int(n == 1)))
    _check(checks, "example_linear", _linear_failures(table, values, divisors_e))

    if table.group is not None:
        reg = table.regular_character()
        classes = table.group.conjugacy_classes()
        _check(checks, "example_regular", (
            f"n {n}: got {got}, census {census}" for n in divisors_e
            if (got := adams.invariant(table, reg, n).value)
            != (census := sum(c.size for c in classes if c.element_order % n == 0))))
    else:
        skipped.append({"name": "example_regular", "reason": "no group attached"})

    _check(checks, "example_degree", (
        f"chi {i}: got {values[i, 1]}" for i in range(nchi) if values[i, 1] != table.degree(i)))
    feit_reports = [adams.feit_indicator(table, i).to_json() for i in range(nchi)]
    try:
        oracle_checked = _oracle_checks(table, oracle_bound, checks, skipped, values)
    finally:
        # the poset serves this verification only, and a spec table
        # outlives the request in the table cache
        table.oracle_context = None

    return {
        "group": table.name,
        "order": table.order,
        "exponent": e,
        "oracle_checked": oracle_checked,
        "checks": checks,
        "skipped": skipped,
        "invariants": [
            {"chi_index": i, "n": n, "S": chk.value,
             "witness": list(chk.witness) if chk.witness else None}
            for (i, n), chk in results.items()
        ],
        "feit": feit_reports,
        "counterexample_candidates": [rep for rep in feit_reports if rep["F"] == 0],
        "all_passed": all(c["passed"] for c in checks),
        "elapsed_seconds": round(time.monotonic() - start, 3),
    }


def _oracle_checks(table: CharacterTable, oracle_bound: Optional[int], checks: List[dict],
                   skipped: List[dict], values) -> bool:
    """The oracle's checks, or the notice that they are skipped; ``values``
    holds S(chi_i, n) of the Adams route.  True if they ran."""
    # the oracle is imported where it is run: no other command compiles it
    from . import brauer

    limit = brauer.resolve_oracle_bound(oracle_bound)
    if table.group is None or table.order > limit:
        reason = ("no group attached" if table.group is None
                  else f"group order {table.order} exceeds oracle bound {limit}")
        skipped.append({"name": "oracle_suite", "reason": reason})
        return False

    group, e, nchi = table.group, table.exponent, table.num_classes
    points = [(i, n) for i in range(nchi) for n in numth.divisors(e)]
    combs = [brauer.induction_by_chains(table, i, limit) for i in range(nchi)]
    _check(checks, "chain_formula_agreement", (
        f"chi {i}" for i, comb in enumerate(combs)
        if comb != brauer.induction_by_orbit_chains(table, i, limit)))
    _check(checks, "section_property", (
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
    _check(checks, "normalization", (
        f"chi {i}, order-{pair.character.order} character"
        for pair, lin in lins for i, (terms, den) in enumerate(rows)
        if combs[i].coefficient(pair)
        != _make(level, _group_ring_sum(level, zip(sizes, terms, lin)), table.order * den)))

    failure = brauer.restriction_failure(table, limit)
    _check(checks, "restriction_naturality", [
        f"chi {failure[0]}, subgroup of order {failure[1].order}"] if failure else [])
    _check(checks, "route_equivalence", (
        f"chi {i}, n {n}: {slow} vs {values[i, n]}" for i, n in points
        if (slow := brauer.invariant_via_coefficients(table, i, n, comb=combs[i])) != values[i, n]))
    identities = brauer.adams_identity_checks(table, combs)
    _check(checks, "adams_coefficient_identity", (
        f"chi {i}, n {n}" for i, n in points if not identities[i, n].passed))

    max_sets = [brauer.check_max_sets(table, i, limit) for i in range(nchi)]
    strict = next((i for i, chk in enumerate(max_sets) if chk.strictly_smaller), None)
    _check(checks, "max_sets", (f"chi {i}" for i, chk in enumerate(max_sets) if not chk.passed),
           "" if strict is None else f"strict inclusion at chi {strict}")
    _check(checks, "equivalences", (
        f"chi {i}, n {n}" for i, n in points
        if not brauer.check_equivalences(table, i, n, limit).passed))
    return True


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
