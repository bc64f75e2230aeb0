"""Finite permutation groups: enumeration, conjugacy classes, the indexed
form of a group, the full subgroup lattice, linear characters of
subgroups, and monomial pairs.

Permutations are tuples of images of 0..degree-1; the product a * b is
function composition (b first), so conjugation relabels points the usual
way.  This module is the one place that numbers a group's elements: in
sorted order, 0..|G|-1.  The enumeration keeps, for each generator g, the
table x -> x*g on those numbers, and its search tree; every product the
table build needs is read from them (``PermGroup.left_row``), conjugacy
classes included; only the powers of class representatives are formed as
tuples.  The full multiplication and inverse tables are built on first
use, for the subgroup lattice and the oracle.  Subgroups are bitmasks over
the numbers, and linear characters are exponent tuples over a subgroup's
members in increasing order; the oracle in ``brauer`` reads them as they
are.  Groups are immutable once built; every cached query is pure, so
concurrent reads are safe.
"""

from __future__ import annotations

import itertools
import math
import re
import weakref
from bisect import bisect_left
from functools import cached_property, reduce
from operator import itemgetter
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from . import numth
from .cyclo import RootOfUnity
from .errors import BoundExceeded, SpecError

Perm = Tuple[int, ...]

DEFAULT_ORDER_BOUND = 10080
DEFAULT_SUBGROUP_BOUND = 60


# ---------------------------------------------------------------------------
# permutation helpers


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def compose(a: Perm, b: Perm) -> Perm:
    """The product a*b acting as functions: (a*b)(x) = a(b(x))."""
    return tuple(a[x] for x in b)


def inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def perm_power(a: Perm, m: int) -> Perm:
    if m < 0:
        return perm_power(inverse(a), -m)
    out = identity_perm(len(a))
    base = a
    while m:
        if m & 1:
            out = compose(out, base)
        base = compose(base, base)
        m >>= 1
    return out


def right_action(g: Perm) -> Callable[[Perm], Perm]:
    """x -> x*g, the same as ``compose(x, g)``, as one C-level item lookup
    per point."""
    return itemgetter(*g) if len(g) > 1 else (lambda x: (x[g[0]],))


def perm_order(a: Perm) -> int:
    n = 1
    x = a
    ident = identity_perm(len(a))
    act = right_action(a)
    while x != ident:
        x = act(x)
        n += 1
    return n


def cycle_notation(a: Perm) -> str:
    seen = set()
    parts = []
    for i in range(len(a)):
        if i in seen or a[i] == i:
            continue
        cyc = [i]
        j = a[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = a[j]
        parts.append("(" + ",".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def perm_from_cycles(cycles: Sequence[Sequence[int]], degree: int) -> Perm:
    """Build a permutation of 0..degree-1 from 1-based disjoint-ish cycles."""
    out = list(range(degree))
    for cyc in cycles:
        pts = [c - 1 for c in cyc]
        if any(p < 0 or p >= degree for p in pts):
            raise ValueError(f"cycle {cyc} exceeds degree {degree}")
        src = list(pts)
        for a, b in zip(src, src[1:] + src[:1]):
            out[a] = b
    return tuple(out)


def _closure(
    degree: int, gens: Sequence[Perm], bound: Optional[int] = None
) -> Tuple[Tuple[Perm, ...], Dict[Perm, int], List[List[int]], List[Tuple[int, int, int]]]:
    """The group the permutations ``gens`` generate, by a breadth-first
    search from the identity that forms x*g for every element x and
    generator g, and keeps what it forms.  Returns the elements in sorted
    order, the number of each (its place there), the right-multiplication
    table of each generator, ``right[s][x]`` = the number of x*gens[s], and
    the search tree as (x, p, s) with x = p*gens[s], parents before
    children.  BoundExceeded as soon as more than ``bound`` elements are
    found."""
    ident = identity_perm(degree)
    found = {ident: 0}
    elems = [ident]
    acts = [right_action(g) for g in gens]
    right: List[List[int]] = [[] for _ in gens]
    tree = []
    for x, perm in enumerate(elems):
        for s, act in enumerate(acts):
            y = act(perm)
            z = found.get(y)
            if z is None:
                z = found[y] = len(elems)
                elems.append(y)
                tree.append((z, x, s))
                if bound is not None and len(elems) > bound:
                    raise BoundExceeded(f"group order exceeds the bound {bound}")
            right[s].append(z)
    # renumber in sorted order; the identity stays 0
    order = sorted(range(len(elems)), key=elems.__getitem__)
    rank = [0] * len(elems)
    for new, old in enumerate(order):
        rank[old] = new
    for perm, old in found.items():
        found[perm] = rank[old]
    return (
        tuple(elems[old] for old in order),
        found,
        [[rank[row[old]] for old in order] for row in right],
        [(rank[x], rank[p], s) for x, p, s in tree],
    )


# ---------------------------------------------------------------------------
# groups


class ConjugacyClass:
    """One conjugacy class: the numbers of its members in increasing order,
    and the least member, which represents it."""

    __slots__ = ("rep", "element_order", "size", "members")

    def __init__(self, elements: Sequence[Perm], members: Iterable[int]):
        self.members = tuple(sorted(members))
        self.rep = elements[self.members[0]]
        self.size = len(self.members)
        self.element_order = perm_order(self.rep)

    def __repr__(self):
        return (
            f"ConjugacyClass({cycle_notation(self.rep)}, size={self.size},"
            f" order={self.element_order})"
        )


class PermGroup:
    """A finite permutation group given by generators, fully enumerated at
    construction time.

    Its elements are numbered 0..|G|-1 in the order of ``elements``, which
    is sorted, so the identity is 0 and index order is element order.  The
    enumeration keeps the right-multiplication table of each generator and
    its search tree, which give ``left_row``: the products h*x of one
    element with all.  Conjugacy classes and the class sums of ``chartab``
    are read from them.  The full multiplication and inverse tables are
    built on first use; only the subgroup lattice and the oracle need them,
    and both are bounded in the group order.

    ``factors`` is empty, except on a group that ``direct_product`` built:
    there it holds the factor groups, each acting on its own block of
    points in turn, from which ``chartab`` builds the table."""

    def __init__(
        self,
        generators: Sequence[Perm],
        degree: Optional[int] = None,
        name: Optional[str] = None,
        order_bound: int = DEFAULT_ORDER_BOUND,
    ):
        gens = [tuple(g) for g in generators]
        if degree is None:
            if not gens:
                raise ValueError("need a degree or at least one generator")
            degree = len(gens[0])
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise ValueError(f"{g} is not a permutation of 0..{degree - 1}")
        self.degree = degree
        self.generators = tuple(dict.fromkeys(g for g in gens))
        self.name = name or "group"
        # index: the number of each element, its place in ``elements``
        self.elements, self.index, self._right, self._tree = _closure(
            degree, self.generators, order_bound
        )
        self.order = len(self.elements)
        self.identity = identity_perm(degree)
        self._classes: Optional[Tuple[ConjugacyClass, ...]] = None
        self._class_of: Optional[Tuple[int, ...]] = None
        self._oracle_context: Optional[weakref.ref] = None
        self.factors: Tuple[PermGroup, ...] = ()

    @property
    def oracle_context(self):
        """The oracle's MonomialContext of this group (brauer owns its
        contents) while something else holds it, else None.  The group
        refers to it weakly: the context refers to the group, and the
        tables it serves hold it."""
        ref = self._oracle_context
        return None if ref is None else ref()

    @oracle_context.setter
    def oracle_context(self, ctx) -> None:
        self._oracle_context = weakref.ref(ctx)

    def __repr__(self):
        return f"PermGroup({self.name}, order={self.order}, degree={self.degree})"

    def __contains__(self, g: Perm) -> bool:
        return g in self.index

    def left_row(self, h: int) -> List[int]:
        """``left_row(h)[x]``: the number of h*x, for every element x, by one
        lookup per element along the search tree: x = p*g gives
        h*x = (h*p)*g."""
        row = [0] * self.order
        row[0] = h
        right = self._right
        for x, p, s in self._tree:
            row[x] = right[s][row[p]]
        return row

    @cached_property
    def mul(self) -> Tuple[Tuple[int, ...], ...]:
        """``mul[a][b]``: the number of the product of elements a and b."""
        return tuple(tuple(self.left_row(a)) for a in range(self.order))

    @cached_property
    def inv(self) -> Tuple[int, ...]:
        """``inv[a]``: the number of the inverse of element a."""
        return tuple(row.index(0) for row in self.mul)

    def _join(self, mask: int, members: Sequence[int], gens: Sequence[int]) -> int:
        """The bitmask of the subgroup generated by ``gens``, given a
        subgroup of it by its ``mask`` and ``members``: the union of the left
        cosets of that subgroup which the generators reach from it."""
        mul = self.mul
        reps = [0]
        for r in reps:
            for g in gens:
                y = mul[g][r]
                if not mask >> y & 1:
                    row = mul[y]
                    for m in members:
                        mask |= 1 << row[m]
                    reps.append(y)
        return mask

    def conjugacy_classes(self) -> Tuple[ConjugacyClass, ...]:
        """The classes, sorted by element order, size and representative:
        the orbits of conjugation by the generators, y -> g^-1 y g read as
        (g^-1 y) g from ``left_row`` and the table of g."""
        if self._classes is None:
            n = self.order
            conj = [
                [right[y] for y in self.left_row(self.index[inverse(g)])]
                for g, right in zip(self.generators, self._right)
            ]
            classes = [
                ConjugacyClass(self.elements, orbit) for orbit in index_orbits(conj, range(n), n)
            ]
            classes.sort(key=lambda c: (c.element_order, c.size, c.rep))
            class_of = [0] * n
            for i, c in enumerate(classes):
                for x in c.members:
                    class_of[x] = i
            self._classes, self._class_of = tuple(classes), tuple(class_of)
        return self._classes

    @property
    def class_of(self) -> Tuple[int, ...]:
        """``class_of[x]``: the class of element number x."""
        self.conjugacy_classes()
        return self._class_of

    def class_index(self, g: Perm) -> int:
        return self.class_of[self.index[g]]

    def exponent(self) -> int:
        return reduce(
            math.lcm, (c.element_order for c in self.conjugacy_classes()), 1
        )

    def class_power_map(self, m: int) -> Tuple[int, ...]:
        """Class index of rep^m for each class."""
        classes = self.conjugacy_classes()
        return tuple(
            self.class_index(perm_power(c.rep, m)) for c in classes
        )

    def subgroup(self, elements: Iterable[Perm]) -> "Subgroup":
        """The subgroup with these elements; ValueError unless they form one."""
        try:
            members = sorted({self.index[g] for g in elements})
        except KeyError:
            raise ValueError("elements do not belong to the parent group") from None
        mask = sum(1 << x for x in members)
        if self._join(1, (0,), members) != mask:
            raise ValueError("elements are not closed under products")
        return Subgroup(self, mask, members[1:])

    def whole_subgroup(self) -> "Subgroup":
        return Subgroup(
            self, (1 << self.order) - 1, [self.index[g] for g in self.generators]
        )

    def all_subgroups(self, bound: int = DEFAULT_SUBGROUP_BOUND) -> Tuple["Subgroup", ...]:
        """Every subgroup, sorted by order and then by elements.  Each
        subgroup found is joined with each cyclic subgroup of prime-power
        order until nothing new appears.  A finite group is generated by its
        elements of prime-power order, so this reaches every subgroup, the
        perfect ones included.  The lattice is enumerated on every call; a
        group keeps no Subgroup, which refers to it."""
        if self.order > bound:
            raise BoundExceeded(
                f"subgroup enumeration needs order <= {bound}, group has {self.order}"
            )
        mul = self.mul
        cyclic: Dict[int, int] = {}  # <x> -> its least generator x
        for x in range(1, self.order):
            mask, y, o = 1, x, 1
            while y:
                mask |= 1 << y
                y = mul[y][x]
                o += 1
            if len(numth.prime_factorization(o)) == 1:
                cyclic.setdefault(mask, x)
        found = {1: Subgroup(self, 1, ())}
        queue = list(found.values())
        for h in queue:
            for c, x in cyclic.items():
                if c & ~h.mask:
                    gens = h.gens + (x,)
                    k = self._join(h.mask, h.members, gens)
                    if k not in found:
                        found[k] = Subgroup(self, k, gens)
                        queue.append(found[k])
        queue.sort(key=lambda s: (s.order, s.members))
        return tuple(queue)


def index_orbits(rows: Sequence[Sequence[int]], points: Iterable[int], size: int) -> List[list]:
    """The orbits of the group that the index permutations ``rows`` of
    0..size-1 generate, on a set of ``points`` it maps to itself: one orbit
    per point not in an earlier orbit, led by that point."""
    seen = bytearray(size)
    out = []
    for x in points:
        if seen[x]:
            continue
        seen[x] = 1
        orbit = [x]
        for y in orbit:
            for row in rows:
                z = row[y]
                if not seen[z]:
                    seen[z] = 1
                    orbit.append(z)
        out.append(orbit)
    return out


def _bits(mask: int) -> Tuple[int, ...]:
    """The positions of the set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Subgroup:
    """A subgroup of a fixed parent group: the bitmask of its element
    numbers, and the element numbers it was generated from."""

    __slots__ = ("parent", "mask", "gens", "members", "order", "_elements")

    def __init__(self, parent: PermGroup, mask: int, gens: Iterable[int]):
        self.parent = parent
        self.mask = mask
        self.gens = tuple(gens)
        # the element numbers, in increasing order
        self.members = _bits(mask)
        self.order = len(self.members)
        self._elements: Optional[Tuple[Perm, ...]] = None

    @property
    def elements(self) -> Tuple[Perm, ...]:
        """The elements, in increasing order (the order of their numbers)."""
        if self._elements is None:
            elems = self.parent.elements
            self._elements = tuple(elems[x] for x in self.members)
        return self._elements

    def __contains__(self, g: Perm) -> bool:
        x = self.parent.index.get(g)
        return x is not None and bool(self.mask >> x & 1)

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self is other or self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name})"

    def as_group(self) -> PermGroup:
        """A standalone group (same degree, same elements), generated by the
        elements this subgroup was generated from, built on every call."""
        elems = self.parent.elements
        gens = [elems[x] for x in self.gens] or [self.parent.identity]
        return PermGroup(
            gens, degree=self.parent.degree, name=f"{self.parent.name}-sub{self.order}"
        )

    def linear_characters(self) -> Tuple["LinearChar", ...]:
        """All homomorphisms into the roots of unity, sorted by order and
        exponents, built on every call.

        They are trivial on the commutator subgroup D, which the commutators
        of the members with the generators generate.  They are built up
        along D < <D, g_1> < <D, g_1, g_2> < ... < H: if g^r is the least
        power of g in the last step K, each character of K extends in r
        ways, by the r-th roots of its value at g^r, with exponents at level
        |H : D|."""
        G = self.parent
        mul, inv = G.mul, G.inv
        derived = Subgroup(G, 1, ())
        for a in self.members:
            for g in self.gens:
                c = mul[mul[a][g]][inv[mul[g][a]]]
                if not derived.mask >> c & 1:
                    gens = derived.gens + (c,)
                    derived = Subgroup(G, G._join(derived.mask, derived.members, gens), gens)
        level = self.order // derived.order
        elems, mask = list(derived.members), derived.mask
        chars = [[0] * len(elems)]  # exponents at level, on elems
        for g in self.gens:
            powers, y = [0], g
            while not mask >> y & 1:
                powers.append(y)
                y = mul[y][g]
            r, at = len(powers), elems.index(y)
            elems = [mul[k][p] for p in powers for k in elems]
            mask = sum(1 << x for x in elems)
            chars = [
                [(e + j * w) % level for j in range(r) for e in chi]
                for chi in chars
                for w in ((chi[at] + s * level) // r for s in range(r))
            ]
        place = sorted(range(len(elems)), key=elems.__getitem__)
        return tuple(sorted(
            (LinearChar(self, level, [chi[t] for t in place]) for chi in chars),
            key=lambda phi: (phi.order, phi.exponents),
        ))


class LinearChar:
    """A degree-one character of a subgroup: its order o, and the exponent k
    of its value zeta_o^k at each member of the subgroup, in increasing
    order of the members."""

    __slots__ = ("domain", "order", "exponents")

    def __init__(self, domain: Subgroup, level: int, exponents: Sequence[int]):
        if len(exponents) != domain.order:
            raise ValueError("character must be defined on the whole subgroup")
        g = math.gcd(level, *exponents)
        self.domain = domain
        self.order = level // g
        self.exponents = tuple(e // g % self.order for e in exponents)

    def _exponent(self, g: Perm) -> int:
        members = self.domain.members
        x = self.domain.parent.index[g]
        t = bisect_left(members, x)
        if t == len(members) or members[t] != x:
            raise KeyError(g)
        return self.exponents[t]

    def value(self, g: Perm) -> RootOfUnity:
        return RootOfUnity(self.order, self._exponent(g))

    def key(self) -> tuple:
        return (self.domain.order, self.domain.elements, self.order, self.exponents)

    def __mul__(self, other: "LinearChar") -> "LinearChar":
        if self.domain != other.domain:
            raise ValueError("pointwise product needs equal domains")
        level = math.lcm(self.order, other.order)
        a, b = level // self.order, level // other.order
        return LinearChar(
            self.domain, level,
            [x * a + y * b for x, y in zip(self.exponents, other.exponents)],
        )

    def __eq__(self, other):
        if not isinstance(other, LinearChar):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"LinearChar(order={self.order} on subgroup of order {self.domain.order})"


class MonomialPair:
    """A subgroup together with one of its linear characters, keyed by
    ``key()``: the subgroup's order and elements, then the character's
    order and exponents."""

    __slots__ = ("subgroup", "character", "_key")

    def __init__(self, subgroup: Subgroup, character: LinearChar):
        if character.domain != subgroup:
            raise ValueError("character is not defined on the given subgroup")
        self.subgroup = subgroup
        self.character = character
        self._key = None

    def key(self) -> tuple:
        if self._key is None:
            self._key = self.character.key()
        return self._key

    def __eq__(self, other):
        if not isinstance(other, MonomialPair):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (
            f"MonomialPair(|H|={self.subgroup.order},"
            f" o(phi)={self.character.order})"
        )


# ---------------------------------------------------------------------------
# presets and the group-spec grammar


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    if n == 1:
        return PermGroup([], degree=1, name="cyclic:1")
    gen = tuple((i + 1) % n for i in range(n))
    return PermGroup([gen], name=f"cyclic:{n}")


def symmetric(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("symmetric group needs n >= 1")
    if n == 1:
        return PermGroup([], degree=1, name="sym:1")
    cycle = tuple((i + 1) % n for i in range(n))
    swap = perm_from_cycles([(1, 2)], n)
    return PermGroup([swap, cycle], name=f"sym:{n}")


def alternating(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("alternating group needs n >= 1")
    if n <= 2:
        return PermGroup([], degree=max(n, 1), name=f"alt:{n}")
    three = perm_from_cycles([(1, 2, 3)], n)
    if n == 3:
        return PermGroup([three], name="alt:3")
    if n % 2:
        big = tuple((i + 1) % n for i in range(n))
    else:
        big = perm_from_cycles([tuple(range(2, n + 1))], n)
    return PermGroup([three, big], name=f"alt:{n}")


def dihedral(order: int) -> PermGroup:
    """Dihedral group of the given (even) order, acting on the n-gon."""
    if order < 2 or order % 2:
        raise ValueError("dihedral groups here have even order >= 2")
    n = order // 2
    if n == 1:
        return PermGroup([(1, 0)], name="dihedral:2")
    if n == 2:
        return PermGroup([(1, 0, 2, 3), (0, 1, 3, 2)], name="dihedral:4")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return PermGroup([rot, ref], name=f"dihedral:{order}")


def quaternion() -> PermGroup:
    """The quaternion group of order 8, via its left-regular action."""
    # elements (s, u): sign s in {0,1}, axis u in 0..3 for 1, i, j, k
    axis_mul = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
        (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
        (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
    }
    elems = [(s, u) for s in (0, 1) for u in range(4)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        flip, axis = axis_mul[(x[1], y[1])]
        return ((x[0] + y[0] + flip) % 2, axis)

    gens = []
    for gen in ((0, 1), (0, 2)):  # i and j
        gens.append(tuple(index[mul(gen, e)] for e in elems))
    return PermGroup(gens, name="quaternion:8")


def elementary_abelian(p: int, k: int) -> PermGroup:
    if not numth.is_prime(p) or k < 1:
        raise ValueError("need a prime p and k >= 1")
    return direct_product(*(cyclic(p) for _ in range(k)), name=f"elementary:{p},{k}")


def special_linear_2(p: int) -> PermGroup:
    """SL(2, p) acting on the nonzero vectors of its natural plane."""
    if not numth.is_prime(p) or p > 7:
        raise ValueError("only small primes are supported")
    points = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(points)}
    s = tuple(index[(-b % p, a)] for a, b in points)
    t = tuple(index[((a + b) % p, b)] for a, b in points)
    return PermGroup([s, t], name=f"sl2:{p}")


def extraspecial_27() -> PermGroup:
    """The extraspecial group of order 27 and exponent 3 (upper unitriangular
    3x3 matrices over the field with three elements), via its regular action."""
    elems = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        return ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3, (x[2] + y[2] + x[0] * y[1]) % 3)

    gens = []
    for gen in ((1, 0, 0), (0, 1, 0)):
        gens.append(tuple(index[mul(gen, e)] for e in elems))
    return PermGroup(gens, name="extraspecial:27")


def direct_product(*factors: PermGroup, name: Optional[str] = None) -> PermGroup:
    """The direct product, each factor acting on its own block of points in
    turn; the group keeps the factors as ``factors``."""
    if not factors:
        raise ValueError("need at least one factor")
    degree = sum(f.degree for f in factors)
    gens: List[Perm] = []
    offset = 0
    for f in factors:
        before = tuple(range(offset))
        after = tuple(range(offset + f.degree, degree))
        for g in f.generators:
            gens.append(before + tuple(x + offset for x in g) + after)
        offset += f.degree
    label = name or "product:" + ",".join(f.name for f in factors)
    group = PermGroup(gens, degree=degree, name=label)
    group.factors = tuple(factors)
    return group


_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)")
# a perm: spec's arguments, whole: a bracketed list of cycles, separated by
# commas, with whitespace allowed between the tokens
_CYCLES_RE = re.compile(rf"\s*\[\s*{_CYCLE_RE.pattern}(?:\s*,\s*{_CYCLE_RE.pattern})*\s*\]\s*")
# the heads ``_parse_spec`` accepts; a string with another head is not a spec
SPEC_HEADS = (
    "cyclic", "sym", "alt", "dihedral", "quaternion", "sl2",
    "elementary", "extraspecial", "perm", "product",
)


def from_spec(spec: str) -> PermGroup:
    """Parse the group-spec grammar: cyclic:12, sym:4, alt:5, dihedral:8,
    quaternion:8, sl2:3, elementary:3,2, extraspecial:27,
    perm:[(1,2),(1,2,3)], product:sym:3,cyclic:2.

    Raises SpecError for an unknown or malformed spec, and BoundExceeded,
    before building anything, when the order the spec names exceeds
    DEFAULT_ORDER_BOUND.  A perm: spec whose cycles share a point names no
    order in advance; its enumeration stops at the bound instead, and a
    point above the bound is a malformed spec."""
    return admitted_spec(spec)[0]()


def spec_order(spec: str) -> Optional[int]:
    """The order of the group a spec names, worked out from the spec alone
    (None where a perm: spec whose cycles share a point is involved), so
    that a caller can refuse a group before it is built.  Raises as
    ``from_spec`` does."""
    return admitted_spec(spec)[1]


def admitted_spec(spec: str) -> Tuple[Callable[[], PermGroup], Optional[int]]:
    """A builder for the group a spec names and its ``spec_order``, from one
    parse of the spec.  Raises as ``from_spec`` does."""
    build, order = _parse_spec(spec.strip())
    if order is not None and order > DEFAULT_ORDER_BOUND:
        raise BoundExceeded(
            f"group spec {spec!r} names a group of order above the bound"
            f" {DEFAULT_ORDER_BOUND}"
        )
    return build, order


def _decimal(x: str) -> int:
    """x read as an integer, only if it is written as ``str`` writes one: in
    ASCII digits after an optional minus sign, with no plus sign, leading
    zero, underscore or space.  ValueError otherwise, as for a number too
    long for ``int`` to read."""
    if not x.isascii() or str(n := int(x)) != x:
        raise ValueError(f"{x!r} is not an integer in decimal digits")
    return n


def _capped_product(factors: Iterable[int]) -> int:
    """The product of positive integers, or DEFAULT_ORDER_BOUND + 1 as soon
    as it exceeds the bound (so that sym:100000 costs nothing)."""
    out = 1
    for f in factors:
        out *= f
        if out > DEFAULT_ORDER_BOUND:
            return DEFAULT_ORDER_BOUND + 1
    return out


def _parse_spec(spec: str) -> Tuple[Callable[[], PermGroup], Optional[int]]:
    """A builder for the group a spec names, and the group's order worked out
    from the spec alone (capped by ``_capped_product``; None where a perm:
    spec whose cycles share a point is involved)."""
    head, sep, rest = spec.partition(":")
    if not sep:
        raise SpecError(
            f"malformed group spec {spec!r}: expected head:arguments, as in cyclic:12"
        )

    def args(form: str, count: int = 1) -> List[int]:
        try:
            vals = [_decimal(x) for x in rest.split(",")]
        except ValueError:  # an argument that is not a decimal integer
            vals = []
        if len(vals) != count:
            raise SpecError(
                f"malformed group spec {spec!r}: expected {form} with integer"
                f" {'arguments' if count > 1 else 'argument'} in decimal digits"
            )
        return vals

    def check(ok: bool, why: str) -> None:
        if not ok:
            raise SpecError(f"malformed group spec {spec!r}: {why}")

    if head == "cyclic":
        (n,) = args("cyclic:n")
        check(n >= 1, "cyclic group needs n >= 1")
        return (lambda: cyclic(n)), n
    if head == "sym":
        (n,) = args("sym:n")
        check(n >= 1, "symmetric group needs n >= 1")
        return (lambda: symmetric(n)), _capped_product(range(2, n + 1))
    if head == "alt":
        (n,) = args("alt:n")
        check(n >= 1, "alternating group needs n >= 1")
        return (lambda: alternating(n)), _capped_product(range(3, n + 1))
    if head == "dihedral":
        (n,) = args("dihedral:n")
        check(n >= 2 and n % 2 == 0, "dihedral groups here have even order >= 2")
        return (lambda: dihedral(n)), n
    if head == "quaternion":
        check(args("quaternion:8") == [8],
              "only the order-8 quaternion group is bundled")
        return quaternion, 8
    if head == "sl2":
        (q,) = args("sl2:p")
        check(numth.is_prime(q) and q <= 7, "only small primes are supported")
        return (lambda: special_linear_2(q)), q * (q * q - 1)
    if head == "elementary":
        q, k = args("elementary:p,k", 2)
        check(numth.is_prime(q) and k >= 1, "need a prime p and k >= 1")
        order = _capped_product(itertools.repeat(q, k))
        return (lambda: elementary_abelian(q, k)), order
    if head == "extraspecial":
        check(args("extraspecial:27") == [27],
              "only the order-27 extraspecial preset is bundled")
        return extraspecial_27, 27
    if head == "perm":
        points = (f"cycles need distinct points in 1..{DEFAULT_ORDER_BOUND},"
                  f" in decimal digits")
        check(_CYCLES_RE.fullmatch(rest) is not None,
              "expected a bracketed list of cycles separated by commas,"
              " as in perm:[(1,2),(1,2,3)]")
        try:
            cycles = [
                tuple(_decimal(x.strip()) for x in m.group(1).split(","))
                for m in _CYCLE_RE.finditer(rest)
            ]
        except ValueError:  # a point not in decimal digits, or too long to read
            raise SpecError(f"malformed group spec {spec!r}: {points}") from None
        # a point above the bound names a degree no bundled group reaches,
        # refused before a permutation of that degree is built
        check(all(min(c) >= 1 and max(c) <= DEFAULT_ORDER_BOUND and len(set(c)) == len(c)
                  for c in cycles),
              points)
        degree = max(max(c) for c in cycles)
        gens = [perm_from_cycles([c], degree) for c in cycles]
        # disjoint cycles generate the direct product of their cyclic groups
        disjoint = sum(map(len, cycles)) == len(set().union(*cycles))
        order = _capped_product(len(c) for c in cycles) if disjoint else None
        return (lambda: PermGroup(gens, degree=degree, name=spec)), order
    if head == "product":
        parts = []
        for k, factor in enumerate(_split_product(rest), 1):
            factor = factor.strip()
            check(bool(factor), f"factor {k} is empty")
            try:
                parts.append(_parse_spec(factor))
            except SpecError as exc:
                raise SpecError(
                    f"malformed group spec {spec!r}: factor {k} ({factor!r}): {exc}"
                ) from None
        orders = [order for _, order in parts]
        return (
            lambda: direct_product(*(build() for build, _ in parts), name=spec),
            None if None in orders else _capped_product(orders),
        )
    raise SpecError(f"unknown group spec {spec!r}")


def _split_product(rest: str) -> List[str]:
    """Split "sym:3,cyclic:2,elementary:2,2" into complete factor specs; a
    chunk without a colon is an argument continuation of the previous one."""
    out: List[str] = []
    for chunk in rest.split(","):
        if ":" in chunk or not out:
            out.append(chunk)
        else:
            out[-1] += "," + chunk
    return out
