"""Character tables: exact computation for small groups, JSON ingest with
full validation, inner products, Galois conjugation, conductors, power
maps on classes and eigenvalue multiplicities.

Tables are computed entirely in exact arithmetic by the Burnside-Dixon-
Schneider splitting: the common eigenspaces of the class-sum matrices are
split modulo a prime p = 1 (mod exponent) with p > 2*sqrt(|G|), and the
resulting residue values are lifted to exact cyclotomic numbers through the
eigenvalue-multiplicity transform, which is known to produce small
non-negative integers.  Each group fact is computed once: one power map
per class (the class of every power of its representative, which also
gives the inverse classes and the prime power maps), the class-sum
constants of a class, as its nonzero entries, only when the splitting
reaches it, one row reduction per eigenspace for the coordinates of all
its basis images, the eigenvalues of each restricted class-sum matrix as
the roots over F_p of its characteristic polynomial, and one cyclotomic
value per distinct multiplicity vector.  The multiplicity transform
(``_eigen_from_residues``) runs only at root classes: taken by element
order, high to low, each class not yet reached as a power rep_k0^a of an
earlier one.  A power class of order t = t0/g, g = gcd(t0, a), reads its
vector from its root's by j -> j (a/g) mod t, and is checked against its
own residue.  A computed table keeps its power map and multiplicities; a
table loaded from JSON derives them while it is validated, the power map
from its prime power maps and the multiplicities by the same transform,
from its values reduced mod the same p, each vector then checked to give
back its value exactly.  Floating point never occurs.

Every table is validated in integers from its multiplicities, in one Gram
pass over sparse class vectors built once per row; Schur inner products are
the same integer group-ring sum over the values' numerators.  Errors raised while a
table is built name the group and, where there is one, the class and the
row.
"""

from __future__ import annotations

import json
import math
from functools import cached_property, reduce
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import numth
from .cyclo import Cyclotomic, _make, _mapped, units
from .errors import BoundExceeded, ConsistencyError, TableFormatError
from .groups import DEFAULT_ORDER_BOUND, PermGroup, Perm, compose, inverse

DEFAULT_TABLE_BOUND = 2000


class ClassData:
    """Per-class table data: representative order, size, prime power maps."""

    __slots__ = ("rep_order", "size", "power_maps")

    def __init__(self, rep_order: int, size: int, power_maps: Mapping[int, int]):
        self.rep_order = rep_order
        self.size = size
        self.power_maps = dict(power_maps)

    def __repr__(self):
        return f"ClassData(order={self.rep_order}, size={self.size})"


class ClassFunction:
    """A vector of exact cyclotomic values indexed by conjugacy classes, and
    its eigenvalue multiplicity vectors once ``adams`` has combined them."""

    __slots__ = ("table", "values", "eigen")

    def __init__(self, table: "CharacterTable", values: Sequence):
        vals = tuple(
            v if isinstance(v, Cyclotomic) else Cyclotomic.rational(v)
            for v in values
        )
        if len(vals) != len(table.classes):
            raise ValueError("one value per conjugacy class required")
        self.table = table
        self.values = vals
        self.eigen = None

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


class CharacterTable:
    """Conjugacy-class data plus the full matrix of irreducible characters.

    Tables computed from a group keep a reference to it (class
    representatives and the element-to-class map), which the brute-force
    induction machinery requires; tables loaded from JSON have table data
    only.

    ``eigen[i][c][j]`` is the multiplicity of zeta_t^j, t the order of class
    c, among the eigenvalues of a representation affording character i at
    class c.  ``compute_table`` stores the vectors its splitting produced;
    ``load_table`` derives them while it validates the table, by the same
    modular transform from its values mod p, and checks that each vector
    gives back its value exactly.

    ``power_map[c][a]`` is the class of rep(c)^a for a below the order of
    class c.  ``compute_table`` stores the map it built from the
    representatives; ``load_table`` derives it from the prime power maps.
    """

    def __init__(
        self,
        name: str,
        order: int,
        exponent: int,
        classes: Sequence[ClassData],
        irreducibles: Sequence[Sequence[Cyclotomic]],
        group: Optional[PermGroup] = None,
        class_reps: Optional[Sequence[Perm]] = None,
    ):
        self.name = name
        self.order = order
        self.exponent = exponent
        self.classes = tuple(classes)
        self.irreducibles = tuple(tuple(row) for row in irreducibles)
        self.group = group
        self.class_reps = tuple(class_reps) if class_reps is not None else None
        self._eigen: Optional[Tuple[Tuple[Tuple[int, ...], ...], ...]] = None
        self._power_map: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __repr__(self):
        return (
            f"CharacterTable({self.name}, order={self.order},"
            f" classes={len(self.classes)})"
        )

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def eigen(self) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        if self._eigen is None:
            e = self.exponent
            p = _choose_prime(self.order, e)
            z_e = pow(_primitive_root(p), (p - 1) // e, p)
            orders = [cls.rep_order for cls in self.classes]
            rows = [
                (self.degree(i), [_residue(v, e, p, z_e) for v in row])
                for i, row in enumerate(self.irreducibles)
            ]
            eigen = _eigen_from_residues(
                orders, self.power_map, p, z_e, rows, self.name, "character"
            )
            # the transform saw the values only mod p
            values: Dict[Tuple[int, Tuple[int, ...]], Cyclotomic] = {}
            for i, (row, vectors) in enumerate(zip(self.irreducibles, eigen)):
                for c, (t, v, vec) in enumerate(zip(orders, row, vectors)):
                    if (t, vec) not in values:
                        values[t, vec] = Cyclotomic.from_terms(t, enumerate(vec))
                    if values[t, vec] != v:
                        raise ConsistencyError(
                            f"eigenvalue multiplicities {vec} do not give back"
                            f" the value {v!r} of character {i} of {self.name}"
                            f" at class {c}"
                        )
            self._eigen = tuple(eigen)
        return self._eigen

    def degree(self, i: int) -> int:
        d = self.irreducibles[i][0].as_integer()
        if d is None or d < 1:
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
        for i, row in enumerate(self.irreducibles):
            if all(v == 1 for v in row):
                return i
        raise ConsistencyError(f"table {self.name} has no trivial character")

    def regular_character(self) -> ClassFunction:
        """The character of the regular representation."""
        return ClassFunction(self, (self.order,) + (0,) * (self.num_classes - 1))

    @property
    def power_map(self) -> Tuple[Tuple[int, ...], ...]:
        if self._power_map is None:
            galois: Dict[Tuple[int, int], int] = {}
            self._power_map = tuple(
                tuple(self._walk_power(c, a, galois) for a in range(cls.rep_order))
                for c, cls in enumerate(self.classes)
            )
        return self._power_map

    def class_of_power(self, c: int, m: int) -> int:
        """Class of rep(c)^m, read from the power map."""
        return self.power_map[c][m % self.classes[c].rep_order]

    def _walk_power(self, c: int, m: int, galois: Dict[Tuple[int, int], int]) -> int:
        """Class of rep(c)^m from the stored prime power maps; the part of
        m coprime to the exponent acts through Galois column matching,
        each (class, exponent) pair matched once and kept in ``galois``."""
        e = self.exponent
        m %= e
        if m == 0:
            return 0
        cur = c
        residual = 1
        for q, v in numth.prime_factorization(m):
            if e % q == 0:
                for _ in range(v):
                    cur = self.classes[cur].power_maps[q]
            else:
                residual = residual * q**v % e
        if residual != 1:
            if (cur, residual) not in galois:
                galois[cur, residual] = self._galois_class(cur, residual)
            cur = galois[cur, residual]
        return cur

    @cached_property
    def _columns(self) -> Dict[tuple, List[int]]:
        """The classes with each column, keyed by the column's ``row_key``."""
        out: Dict[tuple, List[int]] = {}
        for c, column in enumerate(zip(*self.irreducibles)):
            out.setdefault(self.row_key(column), []).append(c)
        return out

    def _galois_class(self, c: int, k: int) -> int:
        target = self.row_key([row[c].galois(k) for row in self.irreducibles])
        matches = self._columns.get(target, ())
        if len(matches) != 1:
            raise ConsistencyError(
                f"power map match failed for class {c}, exponent {k},"
                f" of {self.name}: {len(matches)} matching classes"
            )
        return matches[0]

    def row_key(self, row: Sequence[Cyclotomic]) -> tuple:
        return tuple(
            (w.nums, w.den) for w in (v.at_level(self.exponent) for v in row)
        )


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


def _level_terms(table: CharacterTable, vectors) -> List[List[Tuple[int, int]]]:
    """Per class, the eigenvalues of a class function with a nonzero
    multiplicity, as (exponent at level e, multiplicity)."""
    e = table.exponent
    out = []
    for cls, vec in zip(table.classes, vectors):
        step = e // cls.rep_order
        out.append([(j * step, m) for j, m in enumerate(vec) if m])
    return out


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
    once, exactly, so an irrational sum is seen as one.  The Gram pass, the
    Schur inner product and the oracle's multiplicities and induced
    characters are all such sums."""
    acc = [0] * level
    for w, u, v in terms:
        for x, m in u:
            wm = w * m
            for y, n in v:
                acc[(x - y) % level] += wm * n
    return _mapped(level, acc, 1)


def _row_conductor(table: CharacterTable, i: int) -> int:
    """``conductor`` of row i from its eigenvalue multiplicities: the least
    divisor n of the exponent such that every unit k = 1 (mod n) fixes each
    class's vector under j -> j k (mod t)."""
    e = table.exponent
    columns = [(cls.rep_order, vec) for cls, vec in zip(table.classes, table.eigen[i])]
    for n in numth.divisors(e):
        if all(
            vec[j * k % t] == m
            for k in units(e)
            if (k - 1) % n == 0 and k != 1
            for t, vec in columns
            for j, m in enumerate(vec)
        ):
            return n
    raise ConsistencyError("conductor search failed")  # unreachable: n = e works


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


def _primitive_root(p: int) -> int:
    fact = [q for q, _ in numth.prime_factorization(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fact):
            return g
    raise ConsistencyError(f"no primitive root modulo {p}")


def _choose_prime(order: int, exponent: int) -> int:
    floor = 2 * math.isqrt(order) + 1
    p = exponent + 1
    while p <= floor or not numth.is_prime(p):
        p += exponent
    return p


def _row_reduce_mod(m: List[List[int]], ncols: int, p: int) -> List[int]:
    """Bring the rows of m to reduced echelon form over the field with p
    elements, in place, pivoting on the first ncols columns only.  Returns
    the pivot columns; pivot row k holds the pivot in column pivots[k]."""
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def _nullspace_mod(mat: List[List[int]], p: int) -> List[List[int]]:
    """Basis of the kernel of a square matrix over the field with p elements."""
    n = len(mat)
    m = [row[:] for row in mat]
    pivots = _row_reduce_mod(m, n, p)
    basis = []
    pivot_set = set(pivots)
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [0] * n
        vec[free] = 1
        for row_i, c in enumerate(pivots):
            vec[c] = (-m[row_i][free]) % p
        basis.append(vec)
    return basis


def _coords_in_basis(
    basis: List[List[int]], images: List[List[int]], p: int, where: str
) -> List[List[int]]:
    """Coordinates of the images in the span of the given independent
    vectors, as the matrix whose column j holds those of image j, by one row
    reduction of the basis augmented with every image."""
    d = len(basis)
    aug = [
        [b[i] for b in basis] + [w[i] for w in images] for i in range(len(basis[0]))
    ]
    if len(_row_reduce_mod(aug, d, p)) != d:
        raise ConsistencyError(f"dependent basis in eigenspace splitting at {where}")
    if any(v % p for row in aug[d:] for v in row[d:]):
        raise ConsistencyError(f"vector left the invariant subspace at {where}")
    return [row[d:] for row in aug[:d]]


def _charpoly_mod(mat: List[List[int]], p: int) -> List[int]:
    """Characteristic polynomial det(x I - mat) of a square matrix over the
    field with p elements, ascending coefficients (monic of degree n), by
    reduction to upper Hessenberg form."""
    n = len(mat)
    h = [[v % p for v in row] for row in mat]
    for c in range(n - 2):
        piv = next((i for i in range(c + 1, n) if h[i][c]), None)
        if piv is None:
            continue
        if piv != c + 1:
            h[piv], h[c + 1] = h[c + 1], h[piv]
            for row in h:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        inv = pow(h[c + 1][c], p - 2, p)
        for i in range(c + 2, n):
            f = h[i][c] * inv % p
            if f:
                # row i -= f row c+1, then column c+1 += f column i: a similarity
                h[i] = [(a - f * b) % p for a, b in zip(h[i], h[c + 1])]
                for row in h:
                    row[c + 1] = (row[c + 1] + f * row[i]) % p
    # polys[k] is the characteristic polynomial of the leading k x k block
    polys = [[1]]
    for k in range(n):
        nxt = [0] + polys[k]
        for d, a in enumerate(polys[k]):
            nxt[d] = (nxt[d] - h[k][k] * a) % p
        prod = 1
        for i in range(k - 1, -1, -1):
            prod = prod * h[i + 1][i] % p
            coef = h[i][k] * prod % p
            if coef:
                for d, a in enumerate(polys[i]):
                    nxt[d] = (nxt[d] - coef * a) % p
        polys.append(nxt)
    return polys[n]


def _residue(v: Cyclotomic, e: int, p: int, z_e: int) -> int:
    """The image of v, at a level dividing e, mod p under zeta_e -> z_e, a
    root of unity of order e mod p; a denominator divisible by p maps to 0."""
    z = pow(z_e, e // v.level, p)
    acc = 0
    for x in reversed(v.nums):
        acc = (acc * z + x) % p
    return acc * pow(v.den, p - 2, p) % p


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


def _eigen_from_residues(
    orders: Sequence[int],
    powmap: Sequence[Sequence[int]],
    p: int,
    z_e: int,
    rows: Sequence[Tuple[int, Sequence[int]]],
    label: str,
    noun: str,
) -> List[Tuple[Tuple[int, ...], ...]]:
    """Eigenvalue multiplicity vectors of each row, given as its degree and
    its class values mod p under zeta_e -> z_e (e the exponent, the lcm of
    the class orders); ``powmap[k][a]`` is the class of rep_k^a.  Errors
    name row s as "{noun} s of {label}".

    The multiplicities at a power rep_k0^a of a class are those at k0
    pushed forward (``_power_vector``), so the transform runs only at root
    classes: taken by order, high to low, each class not yet reached as a
    power of an earlier one.  Each pushed vector is checked against the
    residue of its own class, and each power class's power map against its
    root's."""
    r = len(orders)
    e = math.lcm(*orders)
    # source[k] = (k0, a) names the root and power
    source: List[Optional[Tuple[int, int]]] = [None] * r
    for k0 in sorted(range(r), key=orders.__getitem__, reverse=True):
        if source[k0] is None:
            for a, k in enumerate(powmap[k0]):
                if source[k] is None:
                    source[k] = (k0, a)
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
    # z_t = z_e^(e/t).  It does not depend on the row.
    z_pow = [1] * e
    for a in range(1, e):
        z_pow[a] = z_pow[a - 1] * z_e % p
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

    out = []
    for s, (deg, vals_mod) in enumerate(rows):
        where = f"{noun} {s} of {label}"
        eigen: List[Tuple[int, ...]] = [()] * r
        for k in roots:
            mults = []
            for j, col in enumerate(dft[k]):
                m_j = sum(vals_mod[c] * x for c, x in col) % p
                if m_j > deg:
                    raise ConsistencyError(
                        f"eigenvalue multiplicity exceeds the degree at class"
                        f" {k}, exponent {j}, {where}"
                    )
                mults.append(m_j)
            if sum(mults) != deg:
                raise ConsistencyError(
                    f"eigenvalue multiplicities do not sum up at class {k}, {where}"
                )
            eigen[k] = tuple(mults)
        for k, (k0, a) in enumerate(source):
            if k0 == k:
                continue
            vec = _power_vector(eigen[k0], a)
            step = e // len(vec)
            if sum(m * z_pow[j * step] for j, m in enumerate(vec)) % p != vals_mod[k]:
                raise ConsistencyError(
                    f"power class {k} disagrees with its root class {k0}"
                    f" (power {a}) at {where}"
                )
            eigen[k] = vec
        out.append(tuple(eigen))
    return out


def compute_table(
    group: PermGroup,
    name: Optional[str] = None,
    bound: int = DEFAULT_TABLE_BOUND,
) -> CharacterTable:
    """Exact character table of a small permutation group."""
    if group.order > bound:
        raise BoundExceeded(
            f"table computation needs order <= {bound}, group has {group.order}"
        )
    label = name or group.name
    classes = group.conjugacy_classes()
    r = len(classes)
    n_order = group.order
    e = group.exponent()
    cls_of = group.class_index
    sizes = [c.size for c in classes]
    orders = [c.element_order for c in classes]

    # powmap[k][a]: the class of rep_k^a, for a below the order of class k
    # (class 0 is the identity class)
    powmap = []
    for ck in classes:
        x, row = ck.rep, [0]
        for _ in range(1, ck.element_order):
            row.append(cls_of(x))
            x = compose(x, ck.rep)
        powmap.append(tuple(row))
    inv_class = [pm[-1] for pm in powmap]

    def class_sum_columns(i: int) -> List[Tuple[Tuple[int, int], ...]]:
        # column k of the class-sum matrix of class i as its nonzero entries
        # (j, n): n counts the x in class i with x^-1 * rep_k in class j
        inverses = [inverse(x) for x in classes[i].elements]
        cols = []
        for ck in classes:
            counts: Dict[int, int] = {}
            for y in inverses:
                j = cls_of(compose(y, ck.rep))
                counts[j] = counts.get(j, 0) + 1
            cols.append(tuple(counts.items()))
        return cols

    def image(cols, vec: List[int]) -> List[int]:
        out = [0] * r
        for k, x in enumerate(vec):
            if x:
                for j, n in cols[k]:
                    out[j] += n * x
        return [v % p for v in out]

    p = _choose_prime(n_order, e)
    w = _primitive_root(p)
    z_e = pow(w, (p - 1) // e, p)

    # split the common eigenspaces of the class-sum matrices over F_p
    spaces: List[List[List[int]]] = [
        [[int(i == j) for j in range(r)] for i in range(r)]
    ]
    for i in range(1, r):
        if all(len(s) == 1 for s in spaces):
            break
        cols = class_sum_columns(i)
        where = f"class {i} of {label}"
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            d = len(basis)
            small = _coords_in_basis(
                basis, [image(cols, b) for b in basis], p, where
            )
            poly = _charpoly_mod(small, p)
            found = 0
            for lam in range(p):
                at_lam = 0
                for coef in reversed(poly):
                    at_lam = (at_lam * lam + coef) % p
                if at_lam:
                    continue
                shifted = [
                    [(small[a][b2] - (lam if a == b2 else 0)) % p for b2 in range(d)]
                    for a in range(d)
                ]
                kernel = _nullspace_mod(shifted, p)
                sub = []
                for vec in kernel:
                    amb = [0] * r
                    for x, b in zip(vec, basis):
                        if x:
                            amb = [u + x * y for u, y in zip(amb, b)]
                    sub.append([u % p for u in amb])
                new_spaces.append(sub)
                found += len(kernel)
                if found == d:
                    break
            if found != d:
                raise ConsistencyError(
                    f"class-sum matrix failed to split at {where}:"
                    f" eigenspaces of dimension {found} in a space of {d}"
                )
        spaces = new_spaces
    if any(len(s) != 1 for s in spaces):
        raise ConsistencyError(f"common eigenspaces did not become lines for {label}")

    inv_sizes = [pow(s, p - 2, p) for s in sizes]
    residues = []
    for s, basis in enumerate(spaces):
        where = f"unsorted row {s} of {label}"
        v = basis[0]
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
    eigens = _eigen_from_residues(
        orders, powmap, p, z_e, residues, label, "unsorted row"
    )
    rows = [(deg, eigen) for (deg, _), eigen in zip(residues, eigens)]

    if sum(deg * deg for deg, _ in rows) != n_order:
        raise ConsistencyError(
            f"degree squares do not sum to the group order of {label}"
        )

    # one value per distinct (order, vector), shared by the rows holding it
    values = {}
    for _, eigen in rows:
        for key in zip(orders, eigen):
            if key not in values:
                values[key] = Cyclotomic.from_terms(key[0], enumerate(key[1]))
    # Rows sort on the degree, then on each value's power-basis coordinates
    # at level e (character values have denominator 1).
    coords = {key: v.at_level(e).nums for key, v in values.items()}
    rows.sort(key=lambda row: (
        row[0], tuple(coords[key] for key in zip(orders, row[1]))
    ))

    table = CharacterTable(
        name or group.name,
        n_order,
        e,
        [
            ClassData(
                t,
                size,
                {q: pm[q % t] for q, _ in numth.prime_factorization(e)},
            )
            for t, size, pm in zip(orders, sizes, powmap)
        ],
        [[values[t, vec] for t, vec in zip(orders, eigen)] for _, eigen in rows],
        group=group,
        class_reps=[c.rep for c in classes],
    )
    table._eigen = tuple(eigen for _, eigen in rows)
    table._power_map = tuple(powmap)
    _validate(table)
    return table


# ---------------------------------------------------------------------------
# validation and serialization


def _validate(table: CharacterTable) -> None:
    def fail(check: str):
        raise TableFormatError(f"table validation failed for {table.name}: {check}")

    if table.order < 1 or table.exponent < 1:
        fail("positive order and exponent")
    if not table.classes:
        fail("at least one conjugacy class")
    if table.classes[0].rep_order != 1 or table.classes[0].size != 1:
        fail("class 0 must be the identity class")
    if sum(c.size for c in table.classes) != table.order:
        fail("class sizes must sum to the group order")
    for idx, c in enumerate(table.classes[1:], 1):
        if c.size < 1 or table.order % c.size:
            fail(f"size of class {idx} must divide the group order")
        if c.rep_order < 2:
            fail(f"representative order of class {idx} must be above 1, as only"
                 f" class 0 is the identity class")
        # the centralizer, of order |G| / size, contains the representative
        if table.order // c.size % c.rep_order:
            fail(f"representative order of class {idx} must divide its"
                 f" centralizer order")
    if reduce(math.lcm, (c.rep_order for c in table.classes), 1) != table.exponent:
        fail("exponent must be the lcm of the representative orders")
    primes = [q for q, _ in numth.prime_factorization(table.exponent)]
    for idx, c in enumerate(table.classes):
        if set(c.power_maps) != set(primes):
            fail(f"class {idx} must carry a power map for every prime "
                 f"dividing the exponent")
        for q, tgt in c.power_maps.items():
            if not 0 <= tgt < len(table.classes):
                fail(f"power map of class {idx} at {q} is out of range")
            want = c.rep_order // math.gcd(c.rep_order, q)
            if table.classes[tgt].rep_order != want:
                fail(
                    f"power map of class {idx} at {q} lands on a class of the"
                    f" wrong order"
                )
    if len(table.irreducibles) != len(table.classes):
        fail("need as many irreducible characters as classes")
    degs = []
    for i, row in enumerate(table.irreducibles):
        if len(row) != len(table.classes):
            fail(f"character {i} has the wrong number of values")
        d = row[0].as_integer()
        if d is None or d < 1:
            fail(f"character {i} must have a positive integral degree")
        degs.append(d)
    if sum(d * d for d in degs) != table.order:
        fail("degree squares must sum to the group order")
    # every character value at a class of order t lies in Q(zeta_t); each
    # value is stored at level t, where ``compute_table`` puts it, so that
    # ``save_table`` writes the computed table's bytes back
    e = table.exponent
    rows = []
    for i, row in enumerate(table.irreducibles):
        rows.append([])
        for c, v in enumerate(row):
            t = table.classes[c].rep_order
            if v.level != t:
                try:
                    v = v.at_level(t)
                except ValueError:
                    fail(f"value of character {i} at class {c} is not in the"
                         f" level-{t} field")
            rows[-1].append(v)
    table.irreducibles = tuple(tuple(row) for row in rows)
    # a loaded table derives its power map and multiplicities here, each
    # vector checked to give back its value exactly, so that the integer
    # Gram pass below decides orthonormality of the values as given
    try:
        eigen = table.eigen
    except ConsistencyError as exc:
        fail(str(exc))
    # one pass over sparse class vectors, built once per row: |G| <u, v>
    sizes = [cls.size for cls in table.classes]
    terms = [_level_terms(table, row) for row in eigen]
    r = len(terms)
    for i in range(r):
        for j in range(i, r):
            got = _group_ring_sum(e, zip(sizes, terms[i], terms[j]))
            if got[0] != (table.order if i == j else 0) or any(got[1:]):
                fail(f"row orthogonality of characters {i} and {j}")
    # Column orthogonality needs no check of its own: the table is square, so
    # with D the diagonal of class sizes, X D X* = |G| I makes X invertible
    # and forces X* X = |G| D^-1.


def save_table(table: CharacterTable) -> bytes:
    """Serialize to the interchange JSON format (deterministic bytes)."""
    doc = {
        "name": table.name,
        "order": table.order,
        "exponent": table.exponent,
        "classes": [
            {
                "rep_order": c.rep_order,
                "size": c.size,
                "powermap": {
                    str(q): c.power_maps[q] for q in sorted(c.power_maps)
                },
            }
            for c in table.classes
        ],
        "irreducibles": [
            [v.to_json() for v in row] for row in table.irreducibles
        ],
    }
    return json.dumps(doc, indent=1).encode("utf-8")


def load_table(data) -> CharacterTable:
    """Parse and fully validate a serialized character table."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if isinstance(data, str):
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as exc:
            raise TableFormatError(f"invalid JSON: {exc}") from None
    else:
        doc = data
    try:
        name, order = str(doc["name"]), int(doc["order"])
        # every group the toolkit builds is within the bound; refused here,
        # before a value or a reduction table at a larger level is built
        if order > DEFAULT_ORDER_BOUND:
            raise TableFormatError(
                f"table validation failed for {name}: order {order} exceeds"
                f" the bound {DEFAULT_ORDER_BOUND}"
            )
        for i, row in enumerate(doc["irreducibles"]):
            for c, v in enumerate(row):
                if isinstance(v, dict) and v["level"] > DEFAULT_ORDER_BOUND:
                    raise TableFormatError(
                        f"table validation failed for {name}: level {v['level']}"
                        f" of character {i} at class {c} exceeds the bound"
                        f" {DEFAULT_ORDER_BOUND}"
                    )
        classes = [
            ClassData(
                int(c["rep_order"]),
                int(c["size"]),
                {int(q): int(t) for q, t in c["powermap"].items()},
            )
            for c in doc["classes"]
        ]
        irreducibles = [
            [Cyclotomic.from_json(v) for v in row] for row in doc["irreducibles"]
        ]
        table = CharacterTable(name, order, int(doc["exponent"]), classes, irreducibles)
    except TableFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise TableFormatError(f"malformed table document: {exc}") from None
    _validate(table)
    return table
