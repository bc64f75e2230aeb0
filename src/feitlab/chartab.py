"""Character tables: exact computation for small groups, JSON ingest with
full validation, inner products, Galois conjugation, conductors, power
maps on classes and eigenvalue multiplicities.

Tables are computed entirely in exact arithmetic.  A direct product that
``groups.direct_product`` built (a product: or elementary: spec) takes its
rows from its factors' rows, built once per distinct factor by the same
two routes and never made into tables of their own: the irreducibles
of G x H are the products chi x psi, a class of G x H is the tuple of the
factor classes its representative splits into, and a product row's
multiplicity vector at a class is the convolution of its factors' vectors
there, formed once per distinct tuple of factor vectors.  Every other
group takes the Burnside-Dixon-Schneider splitting modulo a prime
p = 1 (mod exponent) with p > 2*sqrt(|G|), and the resulting residue
values are lifted to exact cyclotomic numbers through the
eigenvalue-multiplicity transform, which is known to produce small
non-negative integers.  Each group fact is computed once: one power map
per class (the class of every power of its representative, which also
gives the inverse classes), and the class-sum constants of a class, as
its nonzero entries, only when the splitting reaches it, from one element
of the class and one row of the group's products (``_class_sum_columns``).
The splitting cuts one vector, the unit vector at class 0, into parts,
one per common eigenvector of the class sums.  Each part is one vector.
A class sum K splits a part E by the roots of the minimal polynomial m of
K on E (``_minimal_polynomial``, an elimination over the Krylov vectors
E, KE, K^2 E, ...), each root lam giving the part (m / (x - lam))(K) E;
a part with m of degree 1 stays whole.  Root classes are read first, by
element order, high to low, as they split most.  The multiplicity
transform (``_eigen_from_residues``) runs only at root classes
(``_root_sources``: taken by element order, high to low, each class not
yet reached as a power rep_k0^a of an earlier one), and on all rows at
once, their residues at a class packed into one integer.  A power class
of order t = t0/g, g = gcd(t0, a), reads its vector from its root's by
j -> j (a/g) mod t, and is checked against its own residue.  Floating
point never occurs.

Every table is built complete, with its power map and multiplicities.  A
computed table takes them from its group.  A table has one serialization,
the compact JSON of its document (``save_table``), in which a class's
power map is held only at the primes of the exponent, and each distinct
vector's value is written once.  ``load_table`` parses and checks each
distinct value of the document once, and derives the rest, in order: each
value placed at its class's level t, the power map one Galois orbit of
classes at a time, by increasing order (a non-unit power rep^a is read from the row of the
class of rep^q, q the least prime dividing gcd(a, t), which the stored
prime power map names; for a class c not yet reached and each unit u mod
t, the class of rep^u is the one whose column is sigma_u of c's, and each
class of that orbit reads its unit powers from those matches), the
multiplicities by the same transform, from its values reduced mod the same
p (``_evaluate``, the one evaluation mod p of values, vectors and Gram
codes), each vector then checked to give back its value exactly, and each
stored prime power map checked against the derived map; a value shared by
several cells is placed, evaluated and checked once.

A table is its index.  The transform (``_eigen_from_residues``) and a
product's convolution (``_product_rows``) place each multiplicity vector
among the distinct ones as they yield it, and a row is its degree and the
position of each class's vector among them.  A table is built from that
index and forms nothing else at build: its values, one per distinct
vector, and its per-cell tuples of those values and of the vectors are
formed the first time they are read, which no indicator or invariant
does.  Every other fact of a vector alone is computed once per distinct
vector, into a list read by position: its sort coordinates, its Gram
codes, its conductor, its trace and its eigenvalue orders.  The class
weights W_m are formed once per modulus m, the first time any n's Adams
terms or ``class_weights`` ask for them.  A class function other than a
row holds its integer coordinates on the rows, and its traces and vectors
are those combinations of the rows'.

Both routes give the index and the rows, as degrees and positions
(``_rows``); the row sort, the table and the validation that follow are one path
(``compute_table``), taken once per table over the group's own classes and
power map, so a product's table is the one the splitting gives.  Every
table, computed or loaded, is validated in integers from its
multiplicities, in one Gram pass (``_validate``) that evaluates each
distinct vector once at w, a root of unity of order e (the exponent)
modulo a prime p = 1 (mod e) above |G| (D^2 + 1), D the largest degree,
as the transform evaluates values at one modulo its own prime
(``_root_of_unity`` chooses both), so that each pair of rows is one sum
of integer products per class (``_gram_codes``).  Those residues are
exact once the rows are checked to be Galois-stable (``_galois_stable``):
p splits completely in Z[zeta_e], so a sum that vanishes at every
conjugate of w is 0 or of norm at least p^phi(e).  Schur inner products
are an integer group-ring sum over the values' numerators.  Errors
raised while a table is built name the group and, where there is one,
the class and the row.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from functools import cached_property, reduce
from operator import getitem, mul
from typing import (Dict, FrozenSet, List, Mapping, NamedTuple, NoReturn, Optional,
                    Sequence, Tuple)

from . import numth
from .cyclo import Cyclotomic, _make, _mapped, units
from .errors import BoundExceeded, ConsistencyError, TableFormatError
from .groups import DEFAULT_ORDER_BOUND, PermGroup, Perm, inverse, right_action

DEFAULT_TABLE_BOUND = 2000

# the distinct multiplicity vectors of a table
Vectors = Tuple[Tuple[int, ...], ...]
# rows of multiplicity vectors indexed: the distinct vectors, and per row
# the position of each class's vector among them
Index = Tuple[Vectors, Tuple[Tuple[int, ...], ...]]
# a row of a table as it is built: its degree and the positions of its
# multiplicity vectors among the distinct ones
Row = Tuple[int, Tuple[int, ...]]


class ClassData:
    """Per-class table data: representative order and size."""

    __slots__ = ("rep_order", "size")

    def __init__(self, rep_order: int, size: int):
        self.rep_order = rep_order
        self.size = size

    def __repr__(self):
        return f"ClassData(order={self.rep_order}, size={self.size})"


class ClassFunction:
    """A vector of exact cyclotomic values indexed by conjugacy classes, and
    once ``adams`` has decomposed it, ``coords``: its integer coordinates
    on the rows, as the pairs (a, i) with a = <chi, chi_i> nonzero.  Its
    trace and multiplicity vectors are those combinations of the rows'."""

    __slots__ = ("table", "values", "coords")

    def __init__(self, table: "CharacterTable", values: Sequence):
        vals = tuple(
            v if isinstance(v, Cyclotomic) else Cyclotomic.rational(v)
            for v in values
        )
        if len(vals) != len(table.classes):
            raise ValueError("one value per conjugacy class required")
        self.table = table
        self.values = vals
        self.coords = None

    def __getitem__(self, c: int) -> Cyclotomic:
        return self.values[c]

    def _check_same_table(self, other: "ClassFunction"):
        if self.table is not other.table:
            raise ValueError("class functions belong to different tables")

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check_same_table(other)
        return ClassFunction(
            self.table, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        self._check_same_table(other)
        return ClassFunction(
            self.table, tuple(a - b for a, b in zip(self.values, other.values))
        )

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._check_same_table(other)
            return ClassFunction(
                self.table,
                tuple(a * b for a, b in zip(self.values, other.values)),
            )
        return ClassFunction(self.table, tuple(v * other for v in self.values))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.table is other.table and all(
            a == b for a, b in zip(self.values, other.values)
        )

    __hash__ = None

    def galois(self, k: int) -> "ClassFunction":
        if math.gcd(k, self.table.exponent) != 1:
            raise ValueError(
                f"{k} is not coprime to the exponent {self.table.exponent}"
            )
        # values live at levels dividing the exponent, so k stays coprime
        return ClassFunction(self.table, tuple(v.galois(k) for v in self.values))

    def conjugate(self) -> "ClassFunction":
        return self.galois(-1)

    def degree(self) -> Cyclotomic:
        return self.values[0]

    def __repr__(self):
        return f"ClassFunction({list(self.values)!r})"


class AdamsTerms(NamedTuple):
    """The signed sum of Adams operations at one n, an entry per subset rho
    of the primes of n, in the order of ``numth.prime_subsets``: its sign
    (-1)^|rho|, its modulus m_rho (``numth.subset_modulus``), the class
    weights W_{m_rho} over every class, to pair with a trace vector, and
    its JSON label (its primes ascending, as "2,5")."""

    subsets: Tuple[FrozenSet[int], ...]
    signs: Tuple[int, ...]
    moduli: Tuple[int, ...]
    weights: Tuple[Tuple[int, ...], ...]
    labels: Tuple[str, ...]


class CharacterTable:
    """Conjugacy-class data plus the full matrix of irreducible characters,
    built complete from its power map and its multiplicity vectors, given at
    construction by ``compute_table`` from the group's splitting and by
    ``load_table`` from the document, which derives them.

    Tables computed from a group keep a reference to it (the class
    representatives, read from its classes, and the element-to-class map),
    which the brute-force induction machinery requires; tables loaded from
    JSON have table data only, and no ``class_reps``.

    ``eigen[i][c][j]`` is the multiplicity of zeta_t^j, t the order of class
    c, among the eigenvalues of a representation affording character i at
    class c.  ``power_map[c][a]`` is the class of rep(c)^a for a below t.

    A table is its index, formed where its vectors were made, and forms
    nothing else as it is built: ``vectors`` holds each distinct vector
    once, and ``positions[i][c]`` names the one at row i and class c.  The
    value each vector gives (``values``), and ``irreducibles`` and
    ``eigen``, the tuples of those shared objects read through
    ``positions``, are formed the first time they are read, by a table's
    serialization, its checks, the oracle or a printout; ``degree`` reads
    the vectors.  Every other per-vector fact (a Gram code, a conductor, a
    trace) is computed once per distinct vector into a list read by
    position.

    ``adams.invariant`` pairs the class weights, signs, moduli and JSON
    labels of each n (``adams_terms``) with each row's trace vector
    (``traces``), both kept, and reads its witness from each distinct
    vector's eigenvalue orders (``eigen_orders``), each formed the first
    time a witness asks for it.  Each W_m is formed once per modulus m and
    kept (``_weights``), shared by every n whose terms hold it and by
    ``class_weights``.
    """

    def __init__(
        self,
        name: str,
        order: int,
        exponent: int,
        classes: Sequence[ClassData],
        power_map: Sequence[Sequence[int]],
        index: Index,
        group: Optional[PermGroup] = None,
    ):
        self.name = name
        self.order = order
        self.exponent = exponent
        self.classes = tuple(classes)
        self.power_map = tuple(tuple(row) for row in power_map)
        self.vectors, self.positions = index
        self.group = group
        self.class_reps = (None if group is None
                           else tuple(c.rep for c in group.conjugacy_classes()))
        self._weights_at: Dict[int, Tuple[int, ...]] = {}
        self._adams_terms: Dict[int, AdamsTerms] = {}
        self._eigen_orders: List[Optional[Dict[int, int]]] = [None] * len(self.vectors)
        # the oracle's MonomialContext of the group once it has served this
        # table (brauer owns its contents; the group refers to it weakly);
        # runner.verify_table drops it when its checks are done
        self.oracle_context = None

    def __repr__(self):
        return (
            f"CharacterTable({self.name}, order={self.order},"
            f" classes={len(self.classes)})"
        )

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @cached_property
    def values(self) -> Tuple[Cyclotomic, ...]:
        """The value each distinct vector gives (``_vector_value``), one per
        vector, formed the first time they are read."""
        return tuple([_vector_value(vec) for vec in self.vectors])

    @cached_property
    def irreducibles(self) -> Tuple[Tuple[Cyclotomic, ...], ...]:
        """Per row and per class, its value: ``values`` read through
        ``positions``, formed the first time they are read."""
        values = self.values
        return tuple(tuple(map(values.__getitem__, row)) for row in self.positions)

    @cached_property
    def eigen(self) -> Tuple[Vectors, ...]:
        """Per row and per class, its multiplicity vector: ``vectors`` read
        through ``positions``, formed the first time they are read."""
        return tuple(tuple(map(self.vectors.__getitem__, row)) for row in self.positions)

    @cached_property
    def traces(self) -> Tuple[Tuple[int, ...], ...]:
        """Per row and per class, the trace to Q, from the level-e field (e
        the exponent), of the value its multiplicity vector gives: zeta_t^j,
        t = len(vec), traces to mobius(k) * totient(e) / totient(k),
        k = t / gcd(t, j), each distinct vector traced once."""
        e = self.exponent
        roots = {t: [numth.trace_root_of_unity(t // math.gcd(t, j), e) for j in range(t)]
                 for t in {cls.rep_order for cls in self.classes}}
        traced = [sum(map(mul, vec, roots[len(vec)])) for vec in self.vectors]
        return tuple(tuple(map(traced.__getitem__, row)) for row in self.positions)

    @cached_property
    def conductors(self) -> Tuple[int, ...]:
        """Per row, ``conductor`` of its values read from its multiplicity
        vectors: the lcm of the conductors of its vectors
        (``_vector_conductor``), each distinct vector searched once.  A row
        is fixed by a Galois exponent exactly when each of its vectors is,
        and the n for which every unit k = 1 (mod n) fixes one vector are the
        multiples of the least."""
        found = [_vector_conductor(vec) for vec in self.vectors]
        return tuple(math.lcm(*map(found.__getitem__, row)) for row in self.positions)

    def _weights(self, m: int) -> Tuple[int, ...]:
        """W_m over the classes (``_class_weights``), formed the first time
        any n's terms or ``class_weights`` ask for it, and kept."""
        found = self._weights_at.get(m)
        if found is None:
            found = self._weights_at[m] = _class_weights(self.classes, self.power_map, m)
        return found

    def class_weights(self, m: int) -> Tuple[Tuple[int, int], ...]:
        """W_m as its nonzero entries (k, W_m[k])."""
        return tuple((k, x) for k, x in enumerate(self._weights(m)) if x)

    def adams_terms(self, n: int) -> AdamsTerms:
        """The Adams combination of ``adams.invariant`` at n, a divisor of
        the exponent e, built once per n by doubling over the primes of n,
        ascending: the subsets with prime p are those without it, in order,
        each with p added, its sign negated, its label extended by p, and
        its modulus divided by p^(v_p(e) - v_p(n) + 1), which keeps
        p^(v_p(n) - 1) of e at p (``numth.subset_modulus``)."""
        terms = self._adams_terms.get(n)
        if terms is None:
            e = self.exponent
            if n < 1 or e % n:
                raise ValueError(f"{n} does not divide {e}")
            at_e = dict(numth.prime_factorization(e))
            subsets, signs, moduli, labels = [frozenset()], [1], [e], [""]
            for p, k in numth.prime_factorization(n):
                cut = p ** (at_e[p] - k + 1)
                subsets += [rho | {p} for rho in subsets]
                signs += [-sign for sign in signs]
                moduli += [m // cut for m in moduli]
                labels += [f"{label},{p}" if label else str(p) for label in labels]
            terms = self._adams_terms[n] = AdamsTerms(
                tuple(subsets), tuple(signs), tuple(moduli),
                tuple(map(self._weights, moduli)), tuple(labels))
        return terms

    def eigen_orders(self, p: int) -> Dict[int, int]:
        """The eigenvalue orders of the distinct vector at position p
        (``_eigen_orders``), formed the first time they are asked for."""
        found = self._eigen_orders[p]
        if found is None:
            found = self._eigen_orders[p] = _eigen_orders(self.vectors[p])
        return found

    def degree(self, i: int) -> int:
        """The one entry of row i's vector at the identity, class 0."""
        (d,) = self.vectors[self.positions[i][0]]
        if d < 1:
            raise ConsistencyError(
                f"character {i} of {self.name} has invalid degree {d}"
            )
        return d

    def irreducible(self, i: int) -> ClassFunction:
        return ClassFunction(self, self.irreducibles[i])

    def class_function(self, values: Sequence) -> ClassFunction:
        return ClassFunction(self, values)

    def trivial_character(self) -> ClassFunction:
        return ClassFunction(self, (1,) * self.num_classes)

    @property
    def trivial_index(self) -> int:
        """The first row whose vectors are all the unit vector at exponent 0."""
        units = {p for p, vec in enumerate(self.vectors) if vec[0] == 1 and not any(vec[1:])}
        for i, row in enumerate(self.positions):
            if units.issuperset(row):
                return i
        raise ConsistencyError(f"table {self.name} has no trivial character")

    def regular_character(self) -> ClassFunction:
        """The character of the regular representation."""
        return ClassFunction(self, (self.order,) + (0,) * (self.num_classes - 1))

    def class_of_power(self, c: int, m: int) -> int:
        """Class of rep(c)^m, read from the power map."""
        return self.power_map[c][m % self.classes[c].rep_order]


def inner_product(a: ClassFunction, b: ClassFunction) -> Cyclotomic:
    """Schur inner product: average of a * conjugate(b) weighted by class
    sizes, as a group-ring sum at the lcm of the exponent and the values'
    levels.  Rational (indeed integral) whenever a and b are characters."""
    a._check_same_table(b)
    table = a.table
    level = math.lcm(table.exponent, *(v.level for v in a.values + b.values))
    us, da = _value_terms(a.values, level)
    vs, db = _value_terms(b.values, level)
    sizes = (cls.size for cls in table.classes)
    return _make(level, _group_ring_sum(level, zip(sizes, us, vs)), table.order * da * db)


def integral_inner_product(a: ClassFunction, b: ClassFunction) -> int:
    """``inner_product`` of two virtual characters, which is an integer."""
    prod = inner_product(a, b)
    v = prod.as_integer()
    if v is None:
        raise ConsistencyError(
            f"inner product of class functions of {a.table.name} is {prod!r},"
            f" not an integer: they are not both virtual characters"
        )
    return v


def _gram_codes(table: CharacterTable) -> Tuple[int, List[int], List[int]]:
    """The Gram pass in integers: p and, per distinct vector of the table,
    its codes u = P(w) and v = P(w^-1) mod p (``_evaluate``), where P is
    the vector's value as a polynomial in zeta_e (e the exponent) and w a
    root of unity of order e mod p, p the least prime = 1 (mod e) above
    |G| (D^2 + 1), D the largest l1 norm of a vector, which on a table's
    own vectors is its largest degree (``_root_of_unity``).  So, with
    k_i(c) the position of row i's vector at class c,
    sum_c |C_c| u[k_i(c)] v[k_j(c)] is, mod p, the image under
    zeta_e -> w of the group-ring sum S = |G| <chi_i, chi_j> that
    ``_group_ring_sum`` would form.

    A nonzero residue S - m (m = |G| on the diagonal, else 0) proves
    S != m.  Zero residues decide S = m on a Galois-stable row set (which
    ``_validate`` checks): the residues make the rows distinct, as p > |G|,
    and sigma_k of a pair of rows is then a pair of rows, equal exactly
    when the two are, so S - m vanishes at w^k for every unit k mod e, and
    lies in p Z[zeta_e], as p splits completely there (L. Washington,
    Introduction to Cyclotomic Fields, Thm 2.13).  Each embedding of a
    value has absolute value at most its vector's l1 norm, so
    |sigma(S - m)| <= |G| (D^2 + 1) < p, while a nonzero element of
    p Z[zeta_e] has a norm of absolute value at least p^phi(e)."""
    e = table.exponent
    d = max(sum(map(abs, vec)) for vec in table.vectors)
    p, z_pow = _root_of_unity(e, table.order * (d * d + 1))
    us = [_evaluate(vec, e // len(vec), p, z_pow) for vec in table.vectors]
    vs = [_evaluate(vec, -(e // len(vec)), p, z_pow) for vec in table.vectors]
    return p, us, vs


def _value_terms(values: Sequence[Cyclotomic], level: int):
    """Each value's numerators over the lcm of the values' denominators, as
    (exponent at the level, numerator), and that lcm."""
    den = math.lcm(*(v.den for v in values))
    return [
        [(i * (level // v.level), x * (den // v.den)) for i, x in enumerate(v.nums) if x]
        for v in values
    ], den


def _group_ring_sum(level: int, terms) -> List[int]:
    """sum of w u conj(v) over the (w, u, v) in ``terms``, u and v given by
    (exponent, coefficient) terms at the level, on its power basis: terms
    (x, m) and (y, n) meet at z^(x - y), in integers, and the sum is reduced
    once, exactly, so an irrational sum is seen as one.  The Schur inner
    product and the oracle's multiplicities and induced characters are all
    such sums; the Gram pass checks the same sums by ``_gram_codes``."""
    acc = [0] * level
    for w, u, v in terms:
        for x, m in u:
            wm = w * m
            for y, n in v:
                acc[(x - y) % level] += wm * n
    return _mapped(level, acc, 1)


def _integral_sum(sums: Sequence[int], den: int) -> Optional[int]:
    """A group-ring sum over ``den`` read as an integer: its constant
    power-basis coordinate over den, or None unless den divides it and
    every other coordinate is 0."""
    q, r = divmod(sums[0], den)
    return None if r or any(sums[1:]) else q


def _class_weights(classes: Sequence[ClassData], power_map: Sequence[Sequence[int]],
                   m: int) -> Tuple[int, ...]:
    """W_m over the classes: W_m[k] is the total size of the classes whose
    m-th power lies in class k."""
    acc = [0] * len(classes)
    for cls, powers in zip(classes, power_map):
        acc[powers[m % cls.rep_order]] += cls.size
    return tuple(acc)


def _vector_value(vec: Tuple[int, ...]) -> Cyclotomic:
    """The value a multiplicity vector gives, sum_j vec[j] zeta_t^j, at its
    class's level t = len(vec)."""
    t = len(vec)
    return _make(t, _mapped(t, vec, 1))


def _eigen_orders(vec: Sequence[int]) -> Dict[int, int]:
    """{k: j} for each order k of an eigenvalue that a multiplicity vector
    counts with positive multiplicity, j the least exponent of zeta_t^j,
    t = len(vec), of order k = t / gcd(t, j)."""
    t = len(vec)
    out: Dict[int, int] = {}
    for j, mult in enumerate(vec):
        if mult > 0:
            out.setdefault(t // math.gcd(t, j), j)
    return out


def _vector_conductor(vec: Tuple[int, ...]) -> int:
    """The least divisor n of t = len(vec) such that every unit k = 1
    (mod n) fixes the vector under j -> j k (mod t), i.e. the multiset of
    eigenvalues it counts.  Units mod t stand for those mod the exponent,
    which map onto them; n divides t, since n = t works.  Each unit is
    tested at most once, however many divisors it is 1 modulo."""
    t = len(vec)
    ks = units(t)
    moves: Dict[int, bool] = {}
    for n in numth.divisors(t):
        for k in ks:
            if k != 1 and (k - 1) % n == 0:
                if k not in moves:
                    moves[k] = any(vec[j * k % t] != m for j, m in enumerate(vec))
                if moves[k]:
                    break
        else:
            return n
    raise ConsistencyError("conductor search failed")  # unreachable: n = t works


def galois_conjugate(chi: ClassFunction, k: int) -> ClassFunction:
    """Apply a Galois automorphism to every value of a class function."""
    return chi.galois(k)


def conductor(chi: ClassFunction) -> int:
    """Smallest divisor n of the exponent such that every Galois exponent
    congruent to 1 mod n fixes the character values."""
    e = chi.table.exponent
    for n in numth.divisors(e):
        if all(
            chi.galois(k) == chi
            for k in units(e)
            if (k - 1) % n == 0 and k != 1
        ):
            return n
    raise ConsistencyError("conductor search failed")  # unreachable: n = e works


# ---------------------------------------------------------------------------
# exact table computation


def _root_of_unity(e: int, floor: int) -> Tuple[int, List[int]]:
    """The least prime p = 1 (mod e) above floor, and the powers w^a,
    0 <= a < e, of a root of unity w of order e mod p: the one evaluation
    of zeta_e that the transform (floor 2 sqrt|G|) and the Gram pass
    (``_gram_codes``) share."""
    p = floor + 1 + -floor % e
    while not numth.is_prime(p):
        p += e
    primes = [q for q, _ in numth.prime_factorization(e)]
    w = next(w for w in (pow(g, (p - 1) // e, p) for g in range(1, p))
             if all(pow(w, e // q, p) != 1 for q in primes))
    z_pow = [1] * e
    for a in range(1, e):
        z_pow[a] = z_pow[a - 1] * w % p
    return p, z_pow


def _minimal_polynomial(
    apply, vec: List[int], p: int
) -> Tuple[List[int], List[List[int]]]:
    """The monic minimal polynomial m of a linear map K (``apply``) on a
    vector over the field with p elements, its entries reduced mod p, in
    ascending coefficients, and the Krylov vectors vec, K vec, ...,
    K^(d-1) vec, d = deg m.  Each Krylov vector is eliminated against the
    earlier ones as it is made, carrying its combination of them; the first
    that depends on them gives m."""
    krylov: List[List[int]] = []
    # (pivot column, reduced vector, 1 there, its combination of the Krylov vectors)
    echelon: List[Tuple[int, List[int], List[int]]] = []
    v = vec
    while True:
        res, comb = v, [0] * len(krylov) + [1]
        for c, row, row_comb in echelon:
            f = res[c]
            if f:
                res = [(a - f * b) % p for a, b in zip(res, row)]
                for j, x in enumerate(row_comb):
                    comb[j] = (comb[j] - f * x) % p
        c = next((c for c, x in enumerate(res) if x), None)
        if c is None:
            return comb, krylov
        inv = pow(res[c], p - 2, p)
        echelon.append((c, [x * inv % p for x in res], [x * inv % p for x in comb]))
        krylov.append(v)
        v = apply(v)


def _evaluate(nums: Sequence[int], step: int, p: int, z_pow: Sequence[int]) -> int:
    """sum_i nums[i] w^(i step) mod p, z_pow the powers of w, a root of
    unity of order e = len(z_pow) mod p (``_root_of_unity``): the image
    under zeta_e -> w of sum_i nums[i] zeta_t^i, t = e/step, which is a
    value's numerators at its level t, or a multiplicity vector of length t,
    and with the step negated, of its complex conjugate.  The one
    evaluation of the loaded values, the transform's pushed vectors and the
    Gram codes."""
    e = len(z_pow)
    return sum(x * z_pow[i * step % e] for i, x in enumerate(nums) if x) % p


def _power_vector(vec: Sequence[int], a: int) -> Tuple[int, ...]:
    """Eigenvalue multiplicities at g^a from those at g, g of order
    t = len(vec): zeta_t^j becomes zeta_t^(j a) = zeta_u^(j a/c), where
    c = gcd(t, a) and u = t/c is the order of g^a."""
    t = len(vec)
    c = math.gcd(t, a)
    u, b = t // c, a // c
    out = [0] * u
    for j, m in enumerate(vec):
        if m:
            out[j * b % u] += m
    return tuple(out)


def _root_sources(orders: Sequence[int],
                  powmap: Sequence[Sequence[int]]) -> List[Tuple[int, int]]:
    """source[k] = (k0, a): class k is the class of rep_k0^a, k0 its root
    class.  ``powmap[k][a]`` is the class of rep_k^a.  The root classes are
    taken by element order, high to low, each class not yet reached as a
    power of an earlier one; a root is its own source, at power 1."""
    source: List[Optional[Tuple[int, int]]] = [None] * len(orders)
    for k0 in sorted(range(len(orders)), key=orders.__getitem__, reverse=True):
        if source[k0] is None:
            for a, k in enumerate(powmap[k0]):
                if source[k] is None:
                    source[k] = (k0, a)
    return source


def _eigen_from_residues(
    orders: Sequence[int],
    powmap: Sequence[Sequence[int]],
    source: Sequence[Tuple[int, int]],
    p: int,
    z_pow: Sequence[int],
    rows: Sequence[Tuple[int, Sequence[int]]],
    label: str,
    noun: str,
) -> Index:
    """Eigenvalue multiplicity vectors of each row, given as its degree and
    its class values mod p under zeta_e -> w (e = len(z_pow) the exponent,
    the lcm of the class orders, and z_pow the powers of w, a root of unity
    of order e mod p, from ``_root_of_unity``), as an index formed as they
    are made: the distinct vectors, and per row the position of each
    class's vector among them.
    ``powmap[k][a]`` is the class of rep_k^a, and ``source[k]`` names
    its root class and power (``_root_sources``).  Errors name row s as
    "{noun} s of {label}".

    The multiplicities at a power rep_k0^a of a class are those at k0
    pushed forward (``_power_vector``), so the transform runs only at root
    classes.  Each pushed vector is checked against the residue of its own
    class, and each power class's power map against its root's."""
    r = len(orders)
    e = len(z_pow)
    for k, (k0, a) in enumerate(source):
        if any(c != powmap[k0][a * b % orders[k0]] for b, c in enumerate(powmap[k])):
            raise ConsistencyError(
                f"power map of class {k} disagrees with its root class {k0}"
                f" (power {a}) of {label}"
            )
    roots = [k for k, (k0, _) in enumerate(source) if k0 == k]

    # The DFT at a root k of order t, as a map from class values: m_j is
    # the sum over the classes c among its powers of vals[c] times
    # dft[k][j][c] = (1/t) sum of z_t^(-j a) over the a with rep_k^a in c,
    # z_t = w^(e/t).  It does not depend on the row.
    dft = {}
    for k in roots:
        t, step = orders[k], e // orders[k]
        inv_t = pow(t, p - 2, p)
        dft[k] = []
        for j in range(t):
            coef: Dict[int, int] = {}
            for a, c in enumerate(powmap[k]):
                coef[c] = coef.get(c, 0) + z_pow[-j * a * step % e]
            dft[k].append([(c, x * inv_t % p) for c, x in coef.items()])

    # The transform runs on every row at once: a class's residues, one
    # slot of `size` bytes per row, are packed into one integer, so that a
    # multiplicity m_j of all rows is one sum of products, and each row's
    # reads back from its slot.  A slot holds at most t (p - 1)^2.
    size = (max(orders) * (p - 1) ** 2).bit_length() // 8 + 1
    packed = [
        int.from_bytes(b"".join((vals[c] % p).to_bytes(size, "little") for _, vals in rows),
                       "little")
        for c in range(r)
    ]
    width = size * len(rows)
    mults_at: Dict[int, List[Tuple[int, ...]]] = {}
    for k in roots:
        per_j = []
        for col in dft[k]:
            buf = sum(packed[c] * x for c, x in col).to_bytes(width, "little")
            per_j.append([int.from_bytes(buf[i:i + size], "little") % p
                          for i in range(0, width, size)])
        mults_at[k] = list(zip(*per_j))

    # a power class reads its vector from its root's
    index: Dict[Tuple[int, ...], int] = {}
    positions = []
    for s, (deg, vals_mod) in enumerate(rows):
        where = f"{noun} {s} of {label}"
        cells = [0] * r
        for k in roots:
            mults = mults_at[k][s]
            if max(mults) > deg:
                j = next(j for j, m_j in enumerate(mults) if m_j > deg)
                raise ConsistencyError(
                    f"eigenvalue multiplicity exceeds the degree at class"
                    f" {k}, exponent {j}, {where}"
                )
            if sum(mults) != deg:
                raise ConsistencyError(
                    f"eigenvalue multiplicities do not sum up at class {k}, {where}"
                )
            cells[k] = index.setdefault(mults, len(index))
        for k, (k0, a) in enumerate(source):
            if k0 == k:
                continue
            vec = _power_vector(mults_at[k0][s], a)
            if _evaluate(vec, e // len(vec), p, z_pow) != vals_mod[k]:
                raise ConsistencyError(
                    f"power class {k} disagrees with its root class {k0}"
                    f" (power {a}) at {where}"
                )
            cells[k] = index.setdefault(vec, len(index))
        positions.append(tuple(cells))
    return tuple(index), tuple(positions)


def check_table_bound(order: int, bound: int = DEFAULT_TABLE_BOUND) -> None:
    """BoundExceeded if ``compute_table`` refuses a group of this order; a
    caller that knows the order in advance asks before building the group."""
    if order > bound:
        raise BoundExceeded(
            f"table computation needs order <= {bound}, group has {order}"
        )


def _class_sum_columns(group: PermGroup, i: int, label: str) -> List[Tuple[Tuple[int, int], ...]]:
    """Column k of the matrix of the class sum of class i, as its nonzero
    entries (j, a_ijk): a_ijk counts the x in class i with x^-1 rep_k in
    class j.  Read from one element: with x0 the representative of class i,
    |C_k| a_ijk = |C_i| #{g in C_k : x0^-1 g in C_j}, since conjugating x0
    to any other x in C_i permutes the g in C_k and keeps the classes; the
    products x0^-1 g come from one ``left_row``."""
    classes = group.conjugacy_classes()
    cls_of = group.class_of
    row = group.left_row(group.index[inverse(classes[i].rep)])
    r = len(classes)
    # the class pair (k, j) counted as the one integer k r + j
    counts = Counter([k * r + cls_of[y] for k, y in zip(cls_of, row)])
    cols: List[List[Tuple[int, int]]] = [[] for _ in classes]
    size_i = classes[i].size
    for kj, n in counts.items():
        k, j = divmod(kj, r)
        a, rest = divmod(size_i * n, classes[k].size)
        if rest:
            raise ConsistencyError(
                f"class-sum constant of classes {i}, {j} at class {k} of {label}"
                f" is not an integer"
            )
        cols[k].append((j, a))
    return [tuple(col) for col in cols]


def _split_rows(group: PermGroup, label: str,
                powmap: Sequence[Sequence[int]]) -> Tuple[Vectors, List[Row]]:
    """The distinct multiplicity vectors of the table of a group and each of
    its rows, in no particular order, as its degree and the positions of
    its vectors among them, by the Burnside-Dixon-Schneider splitting modulo
    p and the multiplicity transform, which forms that index.

    The splitting holds parts of the unit vector at class 0, whose
    components along the central characters omega_chi (the common
    eigenvectors of the class sums, on these coordinates) are
    chi(1)^2/|G|, none 0 mod p; its r final parts are multiples of the
    omega_chi.  p does not divide |G|, so each minimal polynomial splits
    over F_p into distinct linear factors.  The class sums are read root
    classes first, by element order, high to low, then the rest by index,
    until there are r parts.  Each final part is checked to be an
    eigenvector of every class sum read before the one that made it."""
    classes = group.conjugacy_classes()
    sizes = [c.size for c in classes]
    orders = [c.element_order for c in classes]
    r = len(classes)
    n_order = group.order
    e = group.exponent()
    inv_class = [pm[-1] for pm in powmap]

    def image(cols, vec: List[int]) -> List[int]:
        out = [0] * r
        for k, x in enumerate(vec):
            if x:
                for j, n in cols[k]:
                    out[j] += n * x
        return [v % p for v in out]

    p, z_pow = _root_of_unity(e, 2 * math.isqrt(n_order) + 1)
    source = _root_sources(orders, powmap)

    # each part remembers the number of class sums read before the one
    # that made it; root lam of m gives the part (m / (x - lam))(K) E,
    # read from the Krylov vectors of E
    root_classes = sorted((k for k, (k0, _) in enumerate(source) if k0 == k and k),
                          key=orders.__getitem__, reverse=True)
    reading = root_classes + [i for i in range(1, r) if source[i][0] != i]
    parts = [([int(k == 0) for k in range(r)], 0)]
    read = []
    for i in reading:
        if len(parts) >= r:
            break
        cols = _class_sum_columns(group, i, label)
        read.append((i, cols))
        new_parts = []
        for vec, made in parts:
            poly, krylov = _minimal_polynomial(lambda v: image(cols, v), vec, p)
            d = len(krylov)
            if d == 1:  # an eigenvector: no split here
                new_parts.append((vec, made))
                continue
            lams = []
            for lam in range(p):
                at_lam = 0
                for coef in reversed(poly):
                    at_lam = (at_lam * lam + coef) % p
                if not at_lam:
                    lams.append(lam)
                    if len(lams) == d:
                        break
            if len(lams) != d:
                raise ConsistencyError(
                    f"class-sum matrix failed to split at class {i} of {label}:"
                    f" {len(lams)} roots of a minimal polynomial of degree {d}"
                )
            columns = list(zip(*krylov))
            for lam in lams:
                # the quotient m / (x - lam), by synthetic division
                quot, acc = [0] * d, 0
                for j in range(d, 0, -1):
                    quot[j - 1] = acc = (poly[j] + lam * acc) % p
                new_parts.append(([sum(map(mul, quot, col)) % p for col in columns],
                                  len(read) - 1))
        parts = new_parts
    if len(parts) != r:
        raise ConsistencyError(
            f"the splitting gave {len(parts)} parts for {r} classes of {label}"
        )
    # a part is an eigenvector of the class sum that made it, and of every
    # later one, which either left it whole or split it; the class sums
    # read before are checked here
    for vec, made in parts:
        for i, cols in read[:made]:
            if len(_minimal_polynomial(lambda v: image(cols, v), vec, p)[1]) != 1:
                raise ConsistencyError(
                    f"vector left the invariant subspace at class {i} of {label}"
                )

    inv_sizes = [pow(s, p - 2, p) for s in sizes]
    residues = []
    for s, (v, _) in enumerate(parts):
        where = f"unsorted row {s} of {label}"
        if v[0] % p == 0:
            raise ConsistencyError(
                f"eigenvector vanishes on the identity class at {where}"
            )
        norm = pow(v[0], p - 2, p)
        v = [x * norm % p for x in v]
        denom = sum(v[k] * v[inv_class[k]] * inv_sizes[k] for k in range(r)) % p
        if denom == 0:
            raise ConsistencyError(f"degree denominator vanished at {where}")
        deg_sq = n_order * pow(denom, p - 2, p) % p
        deg = next(
            (d for d in range(1, math.isqrt(n_order) + 1) if d * d % p == deg_sq),
            None,
        )
        if deg is None:
            raise ConsistencyError(
                f"no integral degree matches the residue at {where}"
            )
        residues.append((deg, [deg * v[k] * inv_sizes[k] % p for k in range(r)]))
    vectors, positions = _eigen_from_residues(
        orders, powmap, source, p, z_pow, residues, label, "unsorted row"
    )
    return vectors, [(deg, cells) for (deg, _), cells in zip(residues, positions)]


def _convolve(u: Tuple[int, ...], v: Tuple[int, ...]) -> Tuple[int, ...]:
    """Eigenvalue multiplicities of a tensor product from those of its
    factors, at elements of orders a = len(u) and b = len(v): zeta_a^j
    times zeta_b^k is zeta_t^(j t/a + k t/b), t = lcm(a, b)."""
    a, b = len(u), len(v)
    t = math.lcm(a, b)
    sa, sb = t // a, t // b
    out = [0] * t
    for j, m in enumerate(u):
        if m:
            for k, n in enumerate(v):
                if n:
                    out[(j * sa + k * sb) % t] += m * n
    return tuple(out)


def _product_rows(group: PermGroup) -> Tuple[Vectors, List[Row]]:
    """The distinct multiplicity vectors of the table of a direct product
    and each of its rows, as ``_split_rows`` gives them, from its factors'
    vectors and rows, each from ``_rows``.  The irreducibles of G x H are
    the products chi x psi (Isaacs, Character Theory of Finite Groups,
    Thm 4.21).  A class is the tuple of factor classes that its
    representative splits into across the factors' points, and the
    eigenvalues of chi x psi at (g, h) are the products of those of chi at
    g and psi at h, so its vector is the convolution of theirs, formed and
    placed in the product's index once per distinct tuple of the factor
    vectors' positions.  Factors with the same degree and generators, as
    those of an elementary abelian group, are taken as one group, with one
    index and one set of rows."""
    same: Dict[Tuple[int, Tuple[Perm, ...]], PermGroup] = {}
    factors = [same.setdefault((f.degree, f.generators), f) for f in group.factors]
    built = {id(f): _rows(f, f.name)[1:] for f in same.values()}
    factor_vectors, factor_rows = zip(*(built[id(f)] for f in factors))
    splits = []
    for ck in group.conjugacy_classes():
        split, off = [], 0
        for f in factors:
            part = tuple(x - off for x in ck.rep[off:off + f.degree])
            split.append(f.class_of[f.index[part]])
            off += f.degree
        splits.append(split)
    # conv maps a tuple of factor positions to the product's position
    index: Dict[Tuple[int, ...], int] = {}
    conv: Dict[Tuple[int, ...], int] = {}
    rows = []
    for combo in itertools.product(*factor_rows):
        factor_cells = [cells for _, cells in combo]
        cells = []
        for split in splits:
            key = tuple(map(getitem, factor_cells, split))
            pos = conv.get(key)
            if pos is None:
                vec = reduce(_convolve, map(getitem, factor_vectors, key))
                pos = conv[key] = index.setdefault(vec, len(index))
            cells.append(pos)
        rows.append((math.prod(deg for deg, _ in combo), tuple(cells)))
    return tuple(index), rows


def _rows(group: PermGroup, label: str) -> Tuple[List[Tuple[int, ...]], Vectors, List[Row]]:
    """The class power map of a group, the distinct multiplicity vectors of
    its table and each of its rows, in no particular order, as its degree
    and the positions of its vectors among them, the index formed as the
    vectors are made: of a direct product that ``groups.direct_product``
    built, from its factors' rows (``_product_rows``), and of any other
    group by the modular splitting (``_split_rows``)."""
    cls_of, index = group.class_of, group.index
    # powmap[k][a]: the class of rep_k^a, for a below the order of class k
    # (class 0 is the identity class)
    powmap = []
    for ck in group.conjugacy_classes():
        x, row, act = ck.rep, [0], right_action(ck.rep)
        for _ in range(1, ck.element_order):
            row.append(cls_of[index[x]])
            x = act(x)
        powmap.append(tuple(row))
    if group.factors:
        return (powmap, *_product_rows(group))
    return (powmap, *_split_rows(group, label, powmap))


def compute_table(
    group: PermGroup,
    name: Optional[str] = None,
    bound: int = DEFAULT_TABLE_BOUND,
) -> CharacterTable:
    """Exact character table of a small permutation group, from its rows as
    ``_rows`` gives them, as degrees and positions in its index, whichever
    route built them: the row order, the table built from that index and
    the one validation are shared."""
    check_table_bound(group.order, bound)
    label = name or group.name
    powmap, vectors, rows = _rows(group, label)
    e = group.exponent()

    if sum(deg * deg for deg, _ in rows) != group.order:
        raise ConsistencyError(
            f"degree squares do not sum to the group order of {label}"
        )

    # Rows sort on the degree, then on each value's power-basis coordinates
    # at level e (character values have denominator 1).
    coords = [_mapped(e, vec, e // len(vec)) for vec in vectors]
    positions = tuple(cells for _, cells in sorted(rows, key=lambda row: (
        row[0], [coords[k] for k in row[1]]
    )))

    table = CharacterTable(
        label,
        group.order,
        e,
        [ClassData(c.element_order, c.size) for c in group.conjugacy_classes()],
        powmap,
        (vectors, positions),
        group=group,
    )
    _validate(table)
    return table


# ---------------------------------------------------------------------------
# validation and serialization


def _fail(name: str, check: str) -> NoReturn:
    raise TableFormatError(f"table validation failed for {name}: {check}")


def _validate(table: CharacterTable) -> None:
    """The one Gram pass every table gets: its rows are orthonormal, decided
    in integers from its multiplicity vectors, by their residues at one root
    of unity mod p (``_gram_codes``, one pair of codes per distinct vector,
    read through the positions) and then the rows' Galois stability
    (``_galois_stable``), which makes those residues exact.  A vector that
    gives back its value (as ``compute_table`` builds them and
    ``load_table`` checks them) makes this the orthonormality of the
    values."""
    # |G| <chi_i, chi_j> as one residue per pair: a sum of one integer
    # product per class of the codes of the two rows' vectors there
    # (``_gram_codes``), read through the positions.  The v of all rows are
    # packed per class, one slot of `size` bytes a row, each v rendered to
    # bytes once, so that row i meets every row in one sum; a slot holds at
    # most sum_c |C_c| (p - 1)^2 = |G| (p - 1)^2.
    p, us, vs = _gram_codes(table)
    n = table.order
    r = len(table.positions)
    size = (n * (p - 1) ** 2).bit_length() // 8 + 1
    vbytes = [v.to_bytes(size, "little") for v in vs]
    packed = [int.from_bytes(b"".join(map(vbytes.__getitem__, col)), "little")
              for col in zip(*table.positions)]
    sizes = [cls.size for cls in table.classes]
    for i, row in enumerate(table.positions):
        buf = sum(size_c * us[k] * x for size_c, k, x in zip(sizes, row, packed)).to_bytes(
            size * r, "little")
        if (int.from_bytes(buf[i * size:(i + 1) * size], "little") - n) % p:
            _fail(table.name, f"row orthogonality of characters {i} and {i}")
        for j in range(i + 1, r):
            if int.from_bytes(buf[j * size:(j + 1) * size], "little") % p:
                _fail(table.name, f"row orthogonality of characters {i} and {j}")
    if not _galois_stable(table):
        _fail(table.name, "Galois stability: a Galois conjugate of a row is not a row")
    # Column orthogonality needs no check of its own: the table is square, so
    # with D the diagonal of class sizes, X D X* = |G| I makes X invertible
    # and forces X* X = |G| D^-1.


def _galois_stable(table: CharacterTable) -> bool:
    """Whether sigma_k of each row is a row, for every unit k mod the
    exponent: each distinct vector is mapped by j -> j k mod t, for each
    generator k of the units (``_unit_generators``), unless k = 1 (mod t),
    and each row's image looked up among the rows' positions.  A genuine
    table is stable."""
    at = {vec: k for k, vec in enumerate(table.vectors)}
    rows = set(table.positions)
    for k in _unit_generators(table.exponent):
        image = [at.get(_power_vector(vec, k)) if k % len(vec) > 1 else pos
                 for pos, vec in enumerate(table.vectors)]
        if any(tuple(map(image.__getitem__, row)) not in rows for row in table.positions):
            return False
    return True


def save_table(table: CharacterTable) -> bytes:
    """Serialize to the interchange JSON format: the table's document as
    compact JSON, one line, in deterministic bytes.  A class's power map is
    written at each prime q of the exponent, as the class of rep^q.  Each
    distinct vector's value is written to JSON once and read by position."""
    primes = [q for q, _ in numth.prime_factorization(table.exponent)]
    written = [v.to_json() for v in table.values]
    return json.dumps({
        "name": table.name,
        "order": table.order,
        "exponent": table.exponent,
        "classes": [
            {
                "rep_order": c.rep_order,
                "size": c.size,
                "powermap": {str(q): powers[q % c.rep_order] for q in primes},
            }
            for c, powers in zip(table.classes, table.power_map)
        ],
        "irreducibles": [
            [written[p] for p in row] for row in table.positions
        ],
    }).encode("utf-8")


def load_table(data) -> CharacterTable:
    """Parse a serialized character table and build it complete, with full
    validation (``_loaded_table``).  Nothing is converted: the name must be
    a string, every integer field a JSON integer (not a float, string or
    bool), each power-map key a prime written as ``save_table`` writes it,
    in decimal digits, and each value a JSON integer or {level, terms} with
    every term's denominator 1."""
    if isinstance(data, (bytes, str)):
        try:
            doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
        except ValueError as exc:  # not JSON, or bytes that are not UTF-8
            raise TableFormatError(f"invalid JSON: {exc}") from None
    else:
        doc = data
    try:
        name = doc["name"]
        if not isinstance(name, str):
            raise TableFormatError(
                f"malformed table document: name must be a JSON string, got {name!r}")
        malformed = f"malformed table document for {name}"

        def integer(x, field: str) -> int:
            if type(x) is not int:
                raise TableFormatError(
                    f"{malformed}: {field} must be a JSON integer, got {x!r}")
            return x

        order = integer(doc["order"], "order")
        exponent = integer(doc["exponent"], "exponent")
        # every group the toolkit builds is within the bound; refused here,
        # before a value or a reduction table at a larger level is built
        if order > DEFAULT_ORDER_BOUND:
            _fail(name, f"order {order} exceeds the bound {DEFAULT_ORDER_BOUND}")
        classes, prime_maps = [], []
        for idx, c in enumerate(doc["classes"]):
            maps = {}
            for key, tgt in c["powermap"].items():
                if not (isinstance(key, str) and key.isascii() and key.isdigit()
                        and str(int(key)) == key):
                    raise TableFormatError(
                        f"{malformed}: power map key {key!r} of class {idx} must"
                        f" be a prime in decimal digits")
                maps[int(key)] = integer(tgt, f"power map of class {idx} at {key}")
            classes.append(ClassData(integer(c["rep_order"], f"rep_order of class {idx}"),
                                     integer(c["size"], f"size of class {idx}")))
            prime_maps.append(maps)
        irreducibles = []
        # each distinct value is parsed and checked once, at its first cell;
        # a cell whose value has no key is parsed on its own
        parsed: Dict[object, Cyclotomic] = {}
        for i, row in enumerate(doc["irreducibles"]):
            values = []
            for c, v in enumerate(row):
                key = _value_key(v)
                value = parsed.get(key) if key is not None else None
                if value is None:
                    if isinstance(v, dict) and type(level := v["level"]) is int \
                            and level > DEFAULT_ORDER_BOUND:
                        _fail(name, f"level {level} of character {i} at class {c} exceeds"
                                    f" the bound {DEFAULT_ORDER_BOUND}")
                    try:
                        value = Cyclotomic.from_json(v)
                        # a character value is an algebraic integer, and
                        # ``save_table`` writes its power-basis coordinates
                        if isinstance(v, str) or (isinstance(v, dict) and any(
                                den != 1 for _, _, den in v["terms"])):
                            raise ValueError(f"a value must be a JSON integer or terms"
                                             f" of denominator 1, got {v!r}")
                    except ValueError as exc:
                        raise TableFormatError(
                            f"{malformed}: value of character {i} at class {c}: {exc}") from None
                    if key is not None:
                        parsed[key] = value
                values.append(value)
            irreducibles.append(values)
    except TableFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise TableFormatError(f"malformed table document: {exc}") from None
    return _loaded_table(name, order, exponent, classes, prime_maps, irreducibles)


def _value_key(v) -> Optional[object]:
    """The key under which equal document values are parsed once: a JSON
    integer, or (level, terms) of a {level, terms} value whose level and
    term entries are all JSON integers; None for any other value.  Only
    exact ints make keys, since 1, 1.0 and true are equal and hash alike,
    and a float or bool entry must be refused at its own cell."""
    if type(v) is int:
        return v
    if type(v) is dict and type(level := v.get("level")) is int \
            and type(terms := v.get("terms")) is list \
            and all(type(term) is list and len(term) == 3
                    and type(term[0]) is int and type(term[1]) is int and type(term[2]) is int
                    for term in terms):
        return level, tuple(map(tuple, terms))
    return None


def _loaded_table(
    name: str,
    order: int,
    exponent: int,
    classes: List[ClassData],
    prime_maps: List[Dict[int, int]],
    irreducibles: List[List[Cyclotomic]],
) -> CharacterTable:
    """A table built complete from a parsed document, in this order: the
    document's checks on its class structure and degrees; each value placed
    at its class's level; the power map (``_derived_power_map``); the
    multiplicity vectors, by the transform that ``compute_table`` runs, from
    the values mod the same p; the table, built from that index; each of its
    values checked to give back the document's exactly; each stored prime
    power map checked against the derived map; and its Gram pass
    (``_validate``)."""
    def fail(check: str) -> NoReturn:
        _fail(name, check)

    if order < 1 or exponent < 1:
        fail("positive order and exponent")
    if not classes:
        fail("at least one conjugacy class")
    if classes[0].rep_order != 1 or classes[0].size != 1:
        fail("class 0 must be the identity class")
    if sum(c.size for c in classes) != order:
        fail("class sizes must sum to the group order")
    for idx, c in enumerate(classes[1:], 1):
        if c.size < 1 or order % c.size:
            fail(f"size of class {idx} must divide the group order")
        if c.rep_order < 2:
            fail(f"representative order of class {idx} must be above 1, as only"
                 f" class 0 is the identity class")
        # the centralizer, of order |G| / size, contains the representative
        if order // c.size % c.rep_order:
            fail(f"representative order of class {idx} must divide its"
                 f" centralizer order")
    if reduce(math.lcm, (c.rep_order for c in classes), 1) != exponent:
        fail("exponent must be the lcm of the representative orders")
    primes = [q for q, _ in numth.prime_factorization(exponent)]
    for idx, (c, maps) in enumerate(zip(classes, prime_maps)):
        if set(maps) != set(primes):
            fail(f"class {idx} must carry a power map for every prime "
                 f"dividing the exponent")
        for q, tgt in maps.items():
            if not 0 <= tgt < len(classes):
                fail(f"power map of class {idx} at {q} is out of range")
            want = c.rep_order // math.gcd(c.rep_order, q)
            if classes[tgt].rep_order != want:
                fail(
                    f"power map of class {idx} at {q} lands on a class of the"
                    f" wrong order"
                )
    if len(irreducibles) != len(classes):
        fail("need as many irreducible characters as classes")
    degs = []
    for i, row in enumerate(irreducibles):
        if len(row) != len(classes):
            fail(f"character {i} has the wrong number of values")
        d = row[0].as_integer()
        if d is None or d < 1:
            fail(f"character {i} must have a positive integral degree")
        degs.append(d)
    if sum(d * d for d in degs) != order:
        fail("degree squares must sum to the group order")

    # every character value at a class of order t lies in Q(zeta_t); each
    # value is placed at level t, where ``compute_table`` puts it, so that
    # ``save_table`` writes the computed table's bytes back, and the power
    # map's column match is exact.  A value shared by several cells (as
    # ``load_table`` parses each distinct one once) is placed once per level.
    orders = [c.rep_order for c in classes]
    placed: Dict[Tuple[int, int], Cyclotomic] = {}
    rows = []
    for i, row in enumerate(irreducibles):
        rows.append([])
        for c, (t, v) in enumerate(zip(orders, row)):
            if v.level != t:
                w = placed.get((id(v), t))
                if w is None:
                    try:
                        w = placed[id(v), t] = v.at_level(t)
                    except ValueError:
                        fail(f"value of character {i} at class {c} is not in the"
                             f" level-{t} field")
                v = w
            rows[-1].append(v)

    try:
        power_map = _derived_power_map(name, orders, prime_maps, rows)
        p, z_pow = _root_of_unity(exponent, 2 * math.isqrt(order) + 1)
        # every value has denominator 1 (``load_table``), and sits at level
        # t; each distinct object is evaluated once
        evaluated: Dict[int, int] = {}
        for row in rows:
            for v in row:
                if id(v) not in evaluated:
                    evaluated[id(v)] = _evaluate(v.nums, exponent // v.level, p, z_pow)
        residues = [(d, [evaluated[id(v)] for v in row]) for d, row in zip(degs, rows)]
        vectors, positions = _eigen_from_residues(
            orders, power_map, _root_sources(orders, power_map), p, z_pow, residues,
            name, "character")
    except ConsistencyError as exc:
        fail(str(exc))
    table = CharacterTable(name, order, exponent, classes, power_map, (vectors, positions))
    # the transform saw the values only mod p; the value of each distinct
    # vector, formed once as the table is built, must give back the
    # document's value exactly, checked once per pair of shared objects
    checked = set()
    for i, (row, got) in enumerate(zip(rows, table.irreducibles)):
        for c, (v, w) in enumerate(zip(row, got)):
            if (id(v), id(w)) in checked:
                continue
            checked.add((id(v), id(w)))
            if w != v:
                fail(f"eigenvalue multiplicities {table.eigen[i][c]} do not give back the"
                     f" value {v!r} of character {i} of {name} at class {c}")
    # the derived power map reads a class's prime power maps only at the
    # primes dividing its order; each must agree with it
    for idx, (t, maps, powers) in enumerate(zip(orders, prime_maps, power_map)):
        for q, tgt in maps.items():
            if powers[q % t] != tgt:
                fail(f"power map of class {idx} at {q} disagrees with the power map"
                     f" derived from the prime power maps, which gives class"
                     f" {powers[q % t]}")
    _validate(table)
    return table


def _derived_power_map(
    name: str,
    orders: Sequence[int],
    prime_maps: Sequence[Mapping[int, int]],
    rows: Sequence[Sequence[Cyclotomic]],
) -> List[Tuple[int, ...]]:
    """A loaded table's power map, one Galois orbit of classes at a time,
    by increasing order.  For a below t and class c of order t, rep^a with
    q the least prime dividing gcd(a, t) is (rep^q)^(a/q), read from the
    already built row of the class that the stored prime power map at q
    names.  The unit powers come from one column match per class c of order
    t not yet reached and per unit u mod t other than 1: sigma_u of column
    c is the column of the class of rep^u (``_galois_class``; Isaacs,
    Character Theory of Finite Groups, sigma_u(chi(g)) = chi(g^u)).  Those
    classes are c's orbit, and the class cv of rep^v reads its unit powers
    from the same matches: its a-th is the class of rep^(a v).  The
    columns of one order are first checked to be distinct, as the match of
    rep^1 finds its own class only; then each entry is the one class whose
    column is sigma_(a v) of c's, exactly.  A rational column is fixed by
    every sigma_u, so its class is its own orbit and is matched against no
    column.  The stored prime power maps at
    the units are never read here; ``_loaded_table`` checks them against
    this map."""
    columns: Dict[tuple, List[int]] = {}
    for c, (t, column) in enumerate(zip(orders, zip(*rows))):
        columns.setdefault((t, tuple((v.nums, v.den) for v in column)), []).append(c)
    for twins in columns.values():
        if len(twins) > 1:
            raise ConsistencyError(
                f"power map match failed for class {twins[0]}, exponent 1,"
                f" of {name}: {len(twins)} matching classes"
            )
    out: List[Tuple[int, ...]] = [()] * len(orders)
    for c in sorted(range(len(orders)), key=orders.__getitem__):
        if out[c]:
            continue
        t = orders[c]
        # unit[u] is the class of rep^u; a rational column is its own
        # image under every unit, and so names its own class
        rational = all(row[c].is_rational() for row in rows)
        unit = {u: c if rational or u == 1 % t
                else _galois_class(c, u, name, t, rows, columns)
                for u in units(t)}
        primes = [q for q, _ in numth.prime_factorization(t)]
        for v, cv in unit.items():
            if not out[cv]:
                row = [0] * t
                for a in range(1, t):
                    q = next((q for q in primes if a % q == 0), None)
                    row[a] = unit[a * v % t] if q is None else out[prime_maps[cv][q]][a // q]
                out[cv] = tuple(row)
    return out


def _unit_generators(t: int) -> List[int]:
    """Generators of the units mod t, each the least unit that those before
    it do not generate: the Galois exponents ``_galois_stable`` maps the
    vectors by."""
    gens: List[int] = []
    reached = {1 % t}
    for a in units(t):
        if a not in reached:
            gens.append(a)
            # the cosets of the units reached so far by the powers of a
            grown, power = set(reached), a
            while power not in reached:
                grown.update(x * power % t for x in reached)
                power = power * a % t
            reached = grown
    return gens


def _galois_class(c: int, k: int, name: str, t: int, rows, columns) -> int:
    """The class of rep(c)^k, k a unit mod the order t of class c: the one
    column of order t among ``columns`` (the classes with each column, keyed
    by their order and the column's values) equal to sigma_k of column c.
    The match is exact, as each value is placed at its class's level t,
    where the power basis writes it one way.  ``_derived_power_map`` makes
    it once per (first class of a Galois orbit of more than one class, unit
    other than 1)."""
    image = (row[c].galois(k) for row in rows)
    matches = columns.get((t, tuple((w.nums, w.den) for w in image)), ())
    if len(matches) != 1:
        raise ConsistencyError(
            f"power map match failed for class {c}, exponent {k},"
            f" of {name}: {len(matches)} matching classes"
        )
    return matches[0]
