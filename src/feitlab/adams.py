"""Adams operations on class functions and the alternating-sum invariant.

The central quantity is the multiplicity of the trivial character in the
signed sum, over subsets of the primes of n, of Adams operations of a
character at blended moduli.  It is a non-negative integer, positive
exactly when some representing matrix has an eigenvalue of order n, and at
n = conductor it decides the conjecture the toolkit exists to probe.

The signed sum depends only on the table and n, so S is one integer
pairing, S = sum_rho (-1)^|rho| W_{m_rho} . T / (|G| phi(e)) over the
subsets rho of the primes of n: W_m[k] is the total size of the classes
whose m-th power lies in class k, and T[k] the trace to Q, from the level
of the exponent e, of chi at class k, as <psi^m chi, 1> is rational and so
equal to its average over the Galois group of that field.  The table holds
each n's terms (``CharacterTable.adams_terms``, sharing one W_m per
modulus m) and, per distinct multiplicity vector, the least exponent of
each eigenvalue order it counts (``CharacterTable.eigen_orders``), from
which the witness of S > 0 is read.  A row's invariant and indicator read
none of the table's values.
"""

from __future__ import annotations

from operator import mul
from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple, Union

from . import numth
from .chartab import CharacterTable, ClassFunction, _eigen_orders, integral_inner_product
from .errors import ConsistencyError, UsageError

ChiLike = Union[int, ClassFunction]


def _check_positive(n: int) -> None:
    """UsageError unless n, an eigenvalue order, is positive."""
    if n < 1:
        raise UsageError(f"n = {n} must be positive")


def _check_divisor(table: CharacterTable, n: int) -> None:
    """UsageError unless n is a positive divisor of the table's exponent."""
    e = table.exponent
    if n < 1 or e % n:
        raise UsageError(
            f"n = {n} must be positive and divide the exponent {e} of {table.name}")


def _as_class_function(
    table: CharacterTable, chi: ChiLike
) -> Tuple[Optional[ClassFunction], Optional[int]]:
    """(None, i) for a row index i; else chi and its index among the rows,
    or None if it is no row."""
    if isinstance(chi, int):
        if not 0 <= chi < table.num_classes:
            raise UsageError(f"chi must be in 0..{table.num_classes - 1}")
        return None, chi
    if chi.table is not table:
        raise ValueError("class function belongs to a different table")
    for i, row in enumerate(table.irreducibles):
        if all(a == b for a, b in zip(row, chi.values)):
            return chi, i
    return chi, None


def _coords(table: CharacterTable, chi: ClassFunction) -> Tuple[Tuple[int, int], ...]:
    """chi's coordinates on the rows, as the pairs (a, i) with
    a = <chi, chi_i> nonzero, which must be integers.  They are kept on chi
    (``ClassFunction.coords``), so each class function is decomposed once."""
    if chi.coords is None:
        chi.coords = tuple(
            (a, i) for i in range(table.num_classes)
            if (a := integral_inner_product(chi, table.irreducible(i))))
    return chi.coords


def _eigen_vectors(table: CharacterTable, chi: Optional[ClassFunction], idx: Optional[int]):
    """Eigenvalue multiplicity vectors of chi at every class: the table's own
    for a row; for any other virtual character, the combination of the rows'
    vectors with its coordinates (``_coords``)."""
    if idx is not None:
        return table.eigen[idx]
    coords = _coords(table, chi)
    return tuple(
        tuple(sum(a * table.eigen[i][c][j] for a, i in coords) for j in range(t))
        for c, t in enumerate(cls.rep_order for cls in table.classes)
    )


def _witness(
    table: CharacterTable, chi: Optional[ClassFunction], idx: Optional[int], n: int
) -> Optional[Tuple[int, int]]:
    """First (class, exponent) in table order whose eigenvalue has order
    exactly n with positive multiplicity, if any: read from the eigenvalue
    orders of a row's distinct vectors through its positions
    (``CharacterTable.eigen_orders``), and from those of any other class
    function's combined vectors (``_eigen_vectors``)."""
    if idx is not None:
        orders, keys = table.eigen_orders, table.positions[idx]
    else:
        orders, keys = _eigen_orders, _eigen_vectors(table, chi, idx)
    for c, (cls, key) in enumerate(zip(table.classes, keys)):
        if cls.rep_order % n == 0 and (j := orders(key).get(n)) is not None:
            return (c, j)
    return None


def adams_operation(table: CharacterTable, chi: ChiLike, m: int) -> ClassFunction:
    """The class function g -> chi(g^m)."""
    func, idx = _as_class_function(table, chi)
    values = table.irreducibles[idx] if func is None else func.values
    return ClassFunction(
        table, tuple(values[table.class_of_power(c, m)] for c in range(table.num_classes)))


class InvariantReport(NamedTuple):
    """Value and audit trail of the alternating Adams invariant at n."""

    chi_index: Optional[int]
    n: int
    value: int
    witness: Optional[Tuple[int, int]]
    summands: Dict[FrozenSet[int], int]
    # the JSON label of each subset of ``summands``, in its order
    # (``AdamsTerms.labels``)
    labels: Tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "chi_index": self.chi_index,
            "n": self.n,
            "S": self.value,
            "witness": list(self.witness) if self.witness else None,
            "summands": dict(zip(self.labels, self.summands.values())),
        }


class FeitReport(NamedTuple):
    """The invariant evaluated at the character's conductor."""

    chi_index: Optional[int]
    conductor: int
    value: int
    witness: Optional[Tuple[int, int]]

    def to_json(self) -> dict:
        return {
            "chi_index": self.chi_index,
            "conductor": self.conductor,
            "F": self.value,
            "witness": list(self.witness) if self.witness else None,
        }


def invariant(table: CharacterTable, chi: ChiLike, n: int) -> InvariantReport:
    """S(G, chi, n) at a divisor n of the exponent, with the per-subset
    multiplicities of the signed sum: each W_m of ``table.adams_terms(n)``
    paired with chi's trace vector (a row's ``traces``, else the
    combination of the rows' with its coordinates, ``_coords``) and checked
    to be integral."""
    chi, idx = _as_class_function(table, chi)
    _check_divisor(table, n)
    if idx is not None:
        traces = table.traces[idx]
    else:
        coords = _coords(table, chi)
        traces = [sum(a * table.traces[i][k] for a, i in coords)
                  for k in range(table.num_classes)]
    scale = table.order * numth.totient(table.exponent)
    terms = table.adams_terms(n)
    summands: Dict[FrozenSet[int], int] = {}
    total = 0
    for rho, sign, m, weights in zip(terms.subsets, terms.signs, terms.moduli, terms.weights):
        mult, r = divmod(sum(map(mul, weights, traces)), scale)
        if r:
            raise ConsistencyError(f"trivial multiplicity of the {m}-th Adams"
                                   f" operation on {table.name} is not integral")
        summands[rho] = mult
        total += sign * mult
    witness = _witness(table, chi, idx, n) if total > 0 else None
    return InvariantReport(idx, n, total, witness, summands, terms.labels)


def alternating_adams_character(table: CharacterTable, chi: ChiLike, n: int) -> ClassFunction:
    """The signed sum of Adams operations whose trivial-character multiplicity
    is the invariant (a virtual character, not a genuine one in general)."""
    _as_class_function(table, chi)  # rejects a bad row or another table's function
    _check_divisor(table, n)
    acc = table.class_function((0,) * table.num_classes)
    terms = table.adams_terms(n)
    for sign, m in zip(terms.signs, terms.moduli):
        term = adams_operation(table, chi, m)
        acc = acc + term if sign > 0 else acc - term
    return acc


def eigenvalue_multiplicities(table: CharacterTable, chi: ChiLike, c: int) -> Tuple[int, ...]:
    """Multiplicity of each power of a primitive t-th root of unity among the
    eigenvalues of a representing matrix at class c (t = representative
    order), read from the rows' vectors (``_eigen_vectors``); chi must be a
    character."""
    chi, idx = _as_class_function(table, chi)
    if not 0 <= c < table.num_classes:
        raise UsageError(f"class c must be in 0..{table.num_classes - 1}")
    out = _eigen_vectors(table, chi, idx)[c]
    where = f"class {c} of {table.name} for " + (
        f"character {idx}" if idx is not None else "a class function"
    )
    if any(m < 0 for m in out):
        raise ConsistencyError(f"negative eigenvalue multiplicity at {where}: {out}")
    total = sum(out)
    degree = chi.values[0].as_integer() if idx is None else table.degree(idx)
    if degree is None or total != degree:
        raise ConsistencyError(
            f"eigenvalue multiplicities at {where} sum to {total}, not the degree"
        )
    return out


def eigenvalue_order_witness(
    table: CharacterTable, chi: ChiLike, n: int
) -> Optional[Tuple[int, int]]:
    """First (class, exponent) in table order whose eigenvalue has order
    exactly n with positive multiplicity, if any."""
    chi, idx = _as_class_function(table, chi)
    _check_positive(n)
    return _witness(table, chi, idx, n)


def feit_indicator(table: CharacterTable, chi: ChiLike) -> FeitReport:
    """The invariant at the conductor of an irreducible character: positive
    exactly when the conjecture holds for this character.  The irreducible
    characters are the rows of the table; any other class function is
    rejected."""
    _, idx = _as_class_function(table, chi)
    if idx is None:  # the rows are the irreducibles, as _validate proved
        raise ValueError("the character is not irreducible")
    c = table.conductors[idx]
    rep = invariant(table, idx, c)
    return FeitReport(idx, c, rep.value, rep.witness)


class TheoremCheck(NamedTuple):
    """Outcome of the non-negativity and witness-equivalence test."""

    chi_index: Optional[int]
    n: int
    value: int
    witness: Optional[Tuple[int, int]]
    nonnegative: bool
    witness_equivalent: bool

    @property
    def passed(self) -> bool:
        return self.nonnegative and self.witness_equivalent


def verify_invariant(table: CharacterTable, chi: ChiLike, n: int) -> TheoremCheck:
    """Check that the invariant is non-negative and positive exactly when an
    eigenvalue-order witness exists.  A failure here is a reportable
    counterexample to the implementation, so nothing is raised."""
    rep = invariant(table, chi, n)
    witness = rep.witness if rep.value > 0 else eigenvalue_order_witness(table, chi, n)
    return TheoremCheck(
        rep.chi_index,
        n,
        rep.value,
        witness,
        nonnegative=rep.value >= 0,
        witness_equivalent=(rep.value > 0) == (witness is not None),
    )
