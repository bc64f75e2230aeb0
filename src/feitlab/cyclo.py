"""Exact arithmetic in cyclotomic fields.

Values live in the field generated by a primitive e-th root of unity for a
"level" e, represented on the power basis 1, z, ..., z^(phi(e)-1) as a tuple
of integer numerators over one positive common denominator, reduced modulo
the e-th cyclotomic polynomial and kept in lowest terms (the gcd of the
numerators and the denominator is 1).  The representation at a fixed level
is canonical, so equality at a common level is a comparison of numerators
and denominators; mixed-level operations promote to the lcm level.  All
arithmetic runs on integers, the projection to a divisor level included: it
selects the numerators of the intermediate field and takes the relative
trace to the divisor level, with no linear system solved.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from . import numth
from .errors import ConsistencyError

Rational = Union[int, Fraction]
# a sparse row: the basis indices with a nonzero coefficient, and those
# coefficients
SparseRow = Tuple[Tuple[int, ...], Tuple[int, ...]]


def cyclotomic_polynomial(e: int) -> Tuple[int, ...]:
    """Coefficients (ascending) of the e-th cyclotomic polynomial, computed
    as the product over d | e of (x^d - 1)^mobius(e/d): multiplications by
    the binomials first, then exact divisions by them."""
    if e < 1:
        raise ValueError(f"positive level required, got {e}")
    poly = [1]
    signs = [(d, numth.mobius(e // d)) for d in numth.divisors(e)]
    for d, mu in signs:
        if mu == 1:  # times x^d - 1
            poly = [(poly[i - d] if i >= d else 0) - (poly[i] if i < len(poly) else 0)
                    for i in range(len(poly) + d)]
    for d, mu in signs:
        if mu == -1:  # divided by x^d - 1: poly[i] = quot[i - d] - quot[i]
            quot: List[int] = []
            for i in range(len(poly) - d):
                quot.append((quot[i - d] if i >= d else 0) - poly[i])
            rest = [quot[i - d] if i >= d else 0 for i in range(len(quot), len(poly))]
            if rest != poly[len(quot):]:
                raise ConsistencyError("nonzero remainder in cyclotomic division")
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def units(e: int) -> Tuple[int, ...]:
    """Residues coprime to e (the Galois exponents at level e)."""
    return tuple(k for k in range(max(e, 1)) if math.gcd(k, e) == 1)


@lru_cache(maxsize=None)
def _reduction_table(e: int) -> Tuple[int, Tuple[SparseRow, ...]]:
    """The dimension phi(e) of the level-e field, and the monomial z^i
    expressed on its power basis, as a sparse row, for every exponent
    0 <= i < e.  The arithmetic reads the dimension here, next to the rows
    it indexes, rather than calling totient once per operation.

    The rows are the sparse index maps of every level change and Galois
    map: row i * step of the level-(e * step) table embeds z^i of level e,
    and row i * k mod e applies z -> z^k.  A product's exponents k < 2e use
    row k mod e, since the e-th cyclotomic polynomial divides x^e - 1."""
    phi = numth.totient(e)
    poly = cyclotomic_polynomial(e)
    tail = tuple(-c for c in poly[:phi])  # z^phi on the basis
    rows: List[SparseRow] = [((i,), (1,)) for i in range(phi)]
    dense = [0] * phi
    dense[-1] = 1  # z^(phi-1)
    for _ in range(phi, e):
        carry = dense[-1]
        dense = [0] + dense[:-1]
        if carry:
            dense = [s + carry * t for s, t in zip(dense, tail)]
        rows.append((
            tuple(j for j, c in enumerate(dense) if c),
            tuple(c for c in dense if c),
        ))
    return phi, tuple(rows)


def _monomial_traces(e: int) -> Tuple[int, ...]:
    """Trace to the rationals of each basis monomial at level e, by literal
    summation of all Galois images (no closed form used)."""
    phi, red = _reduction_table(e)
    out = []
    for i in range(phi):
        total = 0
        for k in units(e):
            idx, val = red[(i * k) % e]
            if idx[0] == 0:
                total += val[0]
        out.append(total)
    return tuple(out)


def _over_common_den(coeffs: Sequence[Rational]) -> Tuple[Tuple[int, ...], int]:
    """Integer numerators over the least common denominator of the
    coefficients; their gcd with that denominator is 1."""
    if all(type(c) is int for c in coeffs):
        return tuple(coeffs), 1
    fracs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(q.denominator for q in fracs))
    return tuple(q.numerator * (den // q.denominator) for q in fracs), den


def _make(level: int, nums: Sequence[int], den: int = 1) -> "Cyclotomic":
    """A Cyclotomic from integer numerators over a positive denominator,
    brought to lowest terms."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    out = object.__new__(Cyclotomic)
    out.level = level
    out.nums = tuple(nums)
    out.den = den
    return out


def _mapped(level: int, nums: Sequence[int], step: int) -> List[int]:
    """sum_i nums[i] z^(i * step) at the level, on its power basis: an
    embedding for step = big level / small level, a Galois map for a unit
    step, a reduction of exponents for step 1."""
    phi, rows = _reduction_table(level)
    out = [0] * phi
    for i, x in enumerate(nums):
        if x:
            idx, val = rows[(i * step) % level]
            for j, r in zip(idx, val):
                out[j] += x * r
    return out


class Cyclotomic:
    """An exact element of the cyclotomic field at a fixed level: the value
    sum_i nums[i] z^i / den."""

    __slots__ = ("level", "nums", "den")

    def __init__(self, level: int, coeffs: Iterable[Rational]):
        coeffs = tuple(coeffs)
        if level < 1 or len(coeffs) != numth.totient(level):
            raise ValueError(
                f"need exactly totient({level}) coefficients, got {len(coeffs)}"
            )
        self.level = level
        self.nums, self.den = _over_common_den(coeffs)

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    @staticmethod
    def rational(q: Rational) -> "Cyclotomic":
        if type(q) is int:
            return _make(1, (q,))
        q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    @staticmethod
    def from_terms(level: int, terms: Iterable[Tuple[int, Rational]]) -> "Cyclotomic":
        """Sum of coeff * z^exp at the given level."""
        if level < 1:
            raise ValueError(f"positive level required, got {level}")
        acc: List[Rational] = [0] * level
        for exp, c in terms:
            acc[exp % level] += c
        nums, den = _over_common_den(acc)
        return _make(level, _mapped(level, nums, 1), den)

    # -- level handling -------------------------------------------------

    def _embedded(self, level: int) -> "Cyclotomic":
        """Rewrite at a multiple of the value's level."""
        if level == self.level:
            return self
        return _make(level, _mapped(level, self.nums, level // self.level), self.den)

    def _projected(self, level: int) -> "Cyclotomic":
        """Rewrite at a divisor level; fails if the value is not there.

        Let L be the value's level, M = lcm(level, rad L) and s = L / M.  As
        z_L^(q s + r) = z_M^q z_L^r and the z_L^r (r < s) are a basis over
        the level-M field, the value's level-M numerators are those at the
        multiples of s.  M = level * m with m squarefree and coprime to the
        level, and z_M = z_level^a z_m^b with a = m^-1 mod level, so the
        average of z_M^i over the Galois group of level M over the level is
        z_level^(i a) times the rational trace of a root of unity of order
        m / gcd(m, i), over phi(m).  The value is in the level field iff
        that average, embedded back, is the value."""
        big = self.level
        if level == big:
            return self
        mid = math.lcm(level, big // numth.radical_quotient(big))
        m = mid // level
        a = pow(m, -1, level)
        acc = [0] * level
        for i, x in enumerate(self.nums[::big // mid]):
            if x:
                acc[i * a % level] += x * numth.trace_root_of_unity(m // math.gcd(m, i), m)
        out = _make(level, _mapped(level, acc, 1), self.den * numth.totient(m))
        back = out._embedded(big)
        if back.den != self.den or back.nums != self.nums:
            raise ValueError(f"value is not contained in the level-{level} field")
        return out

    def at_level(self, level: int) -> "Cyclotomic":
        """The same value re-expressed at another level: projected to the
        gcd of the two levels, where Q(zeta_L) meets the other field, then
        embedded."""
        return self._projected(math.gcd(self.level, level))._embedded(level)

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic"):
        if a.level == b.level:
            return a, b
        lev = math.lcm(a.level, b.level)
        return a._embedded(lev), b._embedded(lev)

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(x) -> Optional["Cyclotomic"]:
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.rational(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(self, other)
        if a.den == b.den:
            return _make(a.level, tuple(map(add, a.nums, b.nums)), a.den)
        den = math.lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        return _make(a.level, [x * fa + y * fb for x, y in zip(a.nums, b.nums)], den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.level, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
            return _make(self.level, [x * num for x in self.nums], self.den * den)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        # both operands' basis indices become exponents at the lcm level e;
        # the product's exponents stay below 2e and are reduced once
        la, lb = self.level, other.level
        e = la if la == lb else math.lcm(la, lb)
        sa, sb = e // la, e // lb
        xs = [(i * sa, x) for i, x in enumerate(self.nums) if x]
        ys = [(j * sb, y) for j, y in enumerate(other.nums) if y]
        acc = [0] * (xs[-1][0] + ys[-1][0] + 1 if xs and ys else 0)
        for i, x in xs:
            for j, y in ys:
                acc[i + j] += x * y
        return _make(e, _mapped(e, acc, 1), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not supported")
        out = Cyclotomic.rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(self, other)
        return a.den == b.den and a.nums == b.nums

    __hash__ = None  # cross-level equality makes hashing unsafe

    def __bool__(self):
        return any(self.nums)

    def __repr__(self):
        if not self:
            return "Cyc(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                z = f"z{self.level}" + (f"^{i}" if i > 1 else "")
                parts.append(z if c == 1 else f"{c}*{z}")
        return "Cyc(" + " + ".join(parts) + ")"

    # -- Galois theory ----------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Apply the field automorphism sending z to z^k (k coprime to level)."""
        e = self.level
        if math.gcd(k, e) != 1:
            raise ValueError(f"{k} is not coprime to the level {e}")
        return _make(e, _mapped(e, self.nums, k), self.den)

    def conjugate(self) -> "Cyclotomic":
        return self.galois(-1)

    def rational_trace(self) -> Fraction:
        """Sum of all Galois images, as a rational."""
        tr = _monomial_traces(self.level)
        return Fraction(sum(x * t for x, t in zip(self.nums, tr)), self.den)

    # -- predicates / conversions ----------------------------------------

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Optional[Fraction]:
        return Fraction(self.nums[0], self.den) if self.is_rational() else None

    def as_integer(self) -> Optional[int]:
        # in lowest terms, a rational value is an integer iff den is 1
        if self.den != 1 or any(self.nums[1:]):
            return None
        return self.nums[0]

    def as_root_of_unity(self) -> Optional["RootOfUnity"]:
        """Return the root of unity equal to this value, if there is one.
        Every root of unity of the level-e field is +z^k or -z^k, k < e, so
        the value is one exactly when it is integral and its numerators are
        a row of the level's reduction table or that row negated."""
        if self.den != 1:
            return None
        e, nums = self.level, self.nums
        idx = tuple(i for i, x in enumerate(nums) if x)
        val = tuple(nums[i] for i in idx)
        neg = tuple(-x for x in val)
        for k, (ridx, rval) in enumerate(_reduction_table(e)[1]):
            if ridx == idx:
                if rval == val:
                    return RootOfUnity(e, k)
                if rval == neg:
                    return RootOfUnity(2 * e, 2 * k + e)
        return None

    # -- serialization -----------------------------------------------------

    def to_json(self):
        """Wire form: a bare int, a "num/den" string, or {level, terms}."""
        den = self.den
        if self.is_rational():
            num = self.nums[0]
            return num if den == 1 else f"{num}/{den}"
        terms = []
        for i, x in enumerate(self.nums):
            if x:
                g = math.gcd(x, den)
                terms.append([i, x // g, den // g])
        return {"level": self.level, "terms": terms}

    @staticmethod
    def from_json(data) -> "Cyclotomic":
        if isinstance(data, bool):
            raise ValueError("boolean is not a valid cyclotomic value")
        if isinstance(data, int):
            return Cyclotomic.rational(data)
        if isinstance(data, str):
            num, _, den = data.partition("/")
            terms = [(0, int(num), int(den or 1))]
            level = 1
        elif isinstance(data, dict):
            level = data["level"]
            if type(level) is not int:
                raise ValueError(f"level must be a JSON integer, got {level!r}")
            if level < 1:
                raise ValueError(f"positive level required, got {level}")
            terms = [(e, num, den) for e, num, den in data["terms"]]
            if {type(x) for term in terms for x in term} - {int}:
                raise ValueError(f"terms must be JSON integers, got {data['terms']!r}")
        else:
            raise ValueError(f"unrecognized cyclotomic value {data!r}")
        # integer numerators over the lcm of the (signed) term denominators
        common = math.lcm(*(den for _, _, den in terms))
        if common == 0:
            raise ValueError("zero denominator in a cyclotomic value")
        acc = [0] * level
        for e, num, den in terms:
            acc[e % level] += num * (common // den)
        return _make(level, _mapped(level, acc, 1), common)


def zeta(e: int, k: int = 1) -> Cyclotomic:
    """The k-th power of a fixed primitive e-th root of unity."""
    phi, rows = _reduction_table(e)
    idx, val = rows[k % e]
    nums = [0] * phi
    for j, r in zip(idx, val):
        nums[j] = r
    return _make(e, nums)


def rational(q: Rational) -> Cyclotomic:
    return Cyclotomic.rational(q)


class RootOfUnity:
    """A root of unity in canonical form: level is its exact order and the
    exponent is coprime to it (so order == level always).  Immutable."""

    __slots__ = ("level", "exponent")

    def __init__(self, level: int, exponent: int):
        if level < 1:
            raise ValueError(f"positive level required, got {level}")
        k = exponent % level
        g = math.gcd(k, level) if k else level
        e = level // g
        object.__setattr__(self, "level", e)
        object.__setattr__(self, "exponent", (k // g) % e if e > 1 else 0)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return RootOfUnity, (self.level, self.exponent)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.level, self.exponent) == (other.level, other.exponent)

    def __hash__(self):
        return hash((self.level, self.exponent))

    def __repr__(self):
        return f"RootOfUnity(level={self.level!r}, exponent={self.exponent!r})"

    @property
    def order(self) -> int:
        return self.level

    def power(self, m: int) -> "RootOfUnity":
        return RootOfUnity(self.level, self.exponent * m)

    def inverse(self) -> "RootOfUnity":
        return self.power(-1)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        lev = math.lcm(self.level, other.level)
        exp = self.exponent * (lev // self.level) + other.exponent * (lev // other.level)
        return RootOfUnity(lev, exp)

    def to_cyclotomic(self) -> Cyclotomic:
        return zeta(self.level, self.exponent)
