"""Named verification bundles over a single table, and the bundled corpus.

Each check is a named pass/fail record so the command line can print one
line per check and a corpus run can aggregate them.  The oracle section is
gated on the group order and skipped (with notice) when out of bounds.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

from . import adams, numth
from .chartab import (
    CharacterTable, _group_ring_sum, _integral_sum, _value_terms, check_table_bound,
    compute_table, load_table, save_table,
)
from .cyclo import _mapped
from .errors import TableFormatError, UsageError
from .groups import SPEC_HEADS, admitted_spec

BUNDLED_CORPUS = Path(__file__).parent / "data" / "corpus_small.json"


def looks_like_spec(entry: str) -> bool:
    head = entry.split(":", 1)[0]
    return head in SPEC_HEADS


# Spec tables kept per process.  The bound is set by memory, not by how
# many groups a client asks about: the most recent tables are retained
# whether or not they are asked for again, so a scan that never repeats a
# group pays for all of them.  Under tracemalloc a kept table with its
# group retains 14 KiB (dihedral:12) to 238 KiB (sl2:7) as built, with no
# values formed; 22 to 278 KiB after an invariant of every row at every
# divisor, which fills its traces, conductors, Adams terms and class
# weights; and 29 to 299 KiB after one `verify`, which also forms its
# values and the group's multiplication table (sym:4: 17, 29 and 41
# KiB).  `verify` drops the oracle's context when it is done; its peak on
# sym:4, table build included, is 377 KiB.  Eight keeps the cost under
# 1 MB when nothing is reused: they raise the peak RSS of a process
# running one `feit --all` pass over the 44 groups of order 25..720 from
# about 18.3 to 18.6 MB, where sixteen reach 19.0 MB (Python 3.11, x86).
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
    read as a spec, so that ``from_spec`` rejects it (SpecError), and so is
    an empty or blank one, which ``Path`` would read as ``.``.  A spec is
    stripped of surrounding whitespace, and its table comes from
    ``_spec_table`` under the stripped spec, which names it; it is shared
    by every caller that asks for the same spec, so it is read, never
    modified.  A file is read and validated on every call; one that cannot
    be read is a UsageError naming it."""
    if looks_like_spec(entry) or not entry.strip() or not (path := Path(entry)).exists():
        return _spec_table(entry.strip())
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
    """The table's ``save_table`` bytes load (``load_table``'s full
    validation: the power map, the multiplicity transform and the Gram pass)
    and save back to the same bytes."""
    try:
        data = save_table(table)
        if save_table(load_table(data)) != data:
            yield "serialization round trip is not byte-stable"
    except TableFormatError as exc:
        yield str(exc)


def _linear_failures(table: CharacterTable, values, divisors_e) -> Iterator[str]:
    """S(chi, n) of a linear chi is 1 if n divides the order of chi, else 0.
    Each vector of a linear row is a unit vector, at the exponent j of its
    value zeta_t^j, whose order is t / gcd(t, j)."""
    for i in range(table.num_classes):
        if table.degree(i) != 1:
            continue
        o = math.lcm(*(len(vec) // math.gcd(len(vec), vec.index(1)) for vec in table.eigen[i]))
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

    # S is linear in chi, and the regular character is sum_i chi_i(1) chi_i
    degrees = [table.degree(i) for i in range(nchi)]
    _check(checks, "example_regular", (
        f"n {n}: got {got}, census {census}" for n in divisors_e
        if (got := sum(d * values[i, n] for i, d in enumerate(degrees)))
        != (census := sum(cls.size for cls in table.classes if cls.rep_order % n == 0))))
    _check(checks, "example_degree", (
        f"chi {i}: got {values[i, 1]}" for i, d in enumerate(degrees) if values[i, 1] != d))
    feit_reports = [
        adams.FeitReport(i, c, chk.value, chk.witness if chk.value > 0 else None).to_json()
        for i, c in enumerate(table.conductors) for chk in (results[i, c],)]
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
    # induced_character's values sit at level e, in lowest terms, so each
    # equals its row's value exactly when it has denominator 1 and the
    # level-e coordinates of the row's vector there, formed once per
    # distinct vector
    coords = [tuple(_mapped(e, vec, e // len(vec))) for vec in table.vectors]
    _check(checks, "section_property", (
        f"chi {i}" for i, comb in enumerate(combs)
        if any(v.den != 1 or v.nums != coords[p] for v, p in zip(
            brauer.induced_character(table, comb).values, table.positions[i]))))

    # <chi_i, phi> for the linear characters phi of the group, from the
    # rows' value terms and phi's exponents at the class representatives,
    # read as an integer (None if it is not one)
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
        != _integral_sum(_group_ring_sum(level, zip(sizes, terms, lin)), table.order * den)))

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
