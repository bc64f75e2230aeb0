"""Finite permutation groups: enumeration, conjugacy classes, the full
subgroup lattice, linear characters of subgroups, and monomial pairs.

Permutations are tuples of images of 0..degree-1; the product a * b is
function composition (b first), so conjugation relabels points the usual
way.  Groups are immutable once built; every cached query is pure, so
concurrent reads are safe.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import reduce
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from . import numth
from .cyclo import Cyclotomic, RootOfUnity, zeta
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


def perm_order(a: Perm) -> int:
    n = 1
    x = a
    ident = identity_perm(len(a))
    while x != ident:
        x = compose(x, a)
        n += 1
    return n


def conjugate_perm(g: Perm, h: Perm) -> Perm:
    """g * h * g^-1."""
    return compose(compose(g, h), inverse(g))


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


def _closure(degree: int, seed: Iterable[Perm], bound: Optional[int] = None) -> FrozenSet[Perm]:
    """Closure of a set of permutations under products (BFS)."""
    gens = [g for g in seed if g != identity_perm(degree)]
    found = {identity_perm(degree)}
    frontier = []
    for g in gens:
        if g not in found:
            found.add(g)
            frontier.append(g)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in found:
                    found.add(y)
                    nxt.append(y)
                    if bound is not None and len(found) > bound:
                        raise BoundExceeded(
                            f"group order exceeds the bound {bound}"
                        )
        frontier = nxt
    return frozenset(found)


# ---------------------------------------------------------------------------
# groups


class ConjugacyClass:
    """One conjugacy class: the lexicographically least member represents it."""

    __slots__ = ("rep", "element_order", "size", "elements")

    def __init__(self, elements: Iterable[Perm]):
        elems = tuple(sorted(elements))
        self.elements = elems
        self.rep = elems[0]
        self.size = len(elems)
        self.element_order = perm_order(self.rep)

    def __repr__(self):
        return (
            f"ConjugacyClass({cycle_notation(self.rep)}, size={self.size},"
            f" order={self.element_order})"
        )


class PermGroup:
    """A finite permutation group given by generators, fully enumerated at
    construction time."""

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
        self._element_set = _closure(degree, self.generators, order_bound)
        self.elements: Tuple[Perm, ...] = tuple(sorted(self._element_set))
        self.order = len(self.elements)
        self.identity = identity_perm(degree)
        self._classes: Optional[Tuple[ConjugacyClass, ...]] = None
        self._class_of: Optional[Dict[Perm, int]] = None
        self._subgroups: Optional[Tuple["Subgroup", ...]] = None
        # the subgroup of a larger group this group was promoted from by
        # Subgroup.as_group, so that the oracle can serve it from the larger
        # group's monomial poset; None for a group built from generators
        self.ambient: Optional["Subgroup"] = None
        # the oracle's MonomialContext of this group once built (brauer
        # owns its contents); it lives and dies with the group
        self.oracle_context = None

    def __repr__(self):
        return f"PermGroup({self.name}, order={self.order}, degree={self.degree})"

    def __contains__(self, g: Perm) -> bool:
        return g in self._element_set

    def conjugacy_classes(self) -> Tuple[ConjugacyClass, ...]:
        if self._classes is None:
            seen = set()
            classes = []
            gens = self.generators or (self.identity,)
            for x in self.elements:
                if x in seen:
                    continue
                orbit = {x}
                frontier = [x]
                while frontier:
                    y = frontier.pop()
                    for g in gens:
                        z = conjugate_perm(g, y)
                        if z not in orbit:
                            orbit.add(z)
                            frontier.append(z)
                seen |= orbit
                classes.append(ConjugacyClass(orbit))
            classes.sort(key=lambda c: (c.element_order, c.size, c.rep))
            self._classes = tuple(classes)
            self._class_of = {
                g: i for i, c in enumerate(classes) for g in c.elements
            }
        return self._classes

    def class_index(self, g: Perm) -> int:
        self.conjugacy_classes()
        return self._class_of[g]

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

    def subgroup(self, elements: Iterable[Perm], validate: bool = True) -> "Subgroup":
        return Subgroup(self, frozenset(elements), validate=validate)

    def trivial_subgroup(self) -> "Subgroup":
        return self.subgroup([self.identity], validate=False)

    def whole_subgroup(self) -> "Subgroup":
        return self.subgroup(self.elements, validate=False)

    def all_subgroups(self, bound: int = DEFAULT_SUBGROUP_BOUND) -> Tuple["Subgroup", ...]:
        """Every subgroup, by extending known subgroups with prime-order
        cosets inside their normalizers (plus the whole group, which extension
        from below cannot reach when it is perfect)."""
        if self.order > bound:
            raise BoundExceeded(
                f"subgroup enumeration needs order <= {bound}, group has {self.order}"
            )
        if self._subgroups is not None:
            return self._subgroups
        trivial = frozenset([self.identity])
        found: Dict[FrozenSet[Perm], None] = {trivial: None}
        queue = [trivial]
        while queue:
            h = queue.pop()
            normalizer = [
                g
                for g in self.elements
                if all(conjugate_perm(g, x) in h for x in h)
            ]
            for g in normalizer:
                if g in h:
                    continue
                m = 1
                x = g
                while x not in h:
                    x = compose(x, g)
                    m += 1
                if not numth.is_prime(m):
                    continue
                k = _closure(self.degree, set(h) | {g})
                if k not in found:
                    found[k] = None
                    queue.append(k)
        found[self._element_set] = None
        subs = [Subgroup(self, s, validate=False) for s in found]
        subs.sort(key=lambda s: (s.order, s.sorted_elements))
        self._subgroups = tuple(subs)
        return self._subgroups


class Subgroup:
    """A subgroup of a fixed parent group, stored as its full element set."""

    __slots__ = ("parent", "elements", "_sorted", "_as_group", "_linear")

    def __init__(self, parent: PermGroup, elements: FrozenSet[Perm], validate: bool = True):
        self.parent = parent
        self.elements = frozenset(elements)
        self._sorted: Optional[Tuple[Perm, ...]] = None
        self._as_group: Optional[PermGroup] = None
        self._linear: Optional[Tuple["LinearChar", ...]] = None
        if validate:
            if not self.elements <= parent._element_set:
                raise ValueError("elements do not belong to the parent group")
            if parent.identity not in self.elements:
                raise ValueError("subgroup must contain the identity")
            for a in self.elements:
                if inverse(a) not in self.elements:
                    raise ValueError("subgroup is not closed under inverses")
                for b in self.elements:
                    if compose(a, b) not in self.elements:
                        raise ValueError("subgroup is not closed under products")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def sorted_elements(self) -> Tuple[Perm, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.elements))
        return self._sorted

    def __contains__(self, g: Perm) -> bool:
        return g in self.elements

    def __le__(self, other: "Subgroup") -> bool:
        return self.elements <= other.elements

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name})"

    def conjugate(self, g: Perm) -> "Subgroup":
        return Subgroup(
            self.parent,
            frozenset(conjugate_perm(g, h) for h in self.elements),
            validate=False,
        )

    def is_cyclic(self) -> bool:
        return any(perm_order(g) == self.order for g in self.elements)

    def generating_set(self) -> Tuple[Perm, ...]:
        gens: List[Perm] = []
        have = {self.parent.identity}
        for g in self.sorted_elements:
            if g not in have:
                gens.append(g)
                have = set(_closure(self.parent.degree, gens))
                if len(have) == self.order:
                    break
        return tuple(gens)

    def as_group(self) -> PermGroup:
        """Promote to a standalone group (same degree, same elements)."""
        if self._as_group is None:
            gens = self.generating_set() or (self.parent.identity,)
            self._as_group = PermGroup(
                gens, degree=self.parent.degree, name=f"{self.parent.name}-sub{self.order}"
            )
            self._as_group.ambient = self
        return self._as_group

    def derived_elements(self) -> FrozenSet[Perm]:
        comms = {
            compose(compose(a, b), inverse(compose(b, a)))
            for a in self.elements
            for b in self.elements
        }
        return _closure(self.parent.degree, comms)

    def linear_characters(self) -> Tuple["LinearChar", ...]:
        """All homomorphisms into the roots of unity, built from a cyclic
        decomposition of the abelianization."""
        if self._linear is not None:
            return self._linear
        derived = self.derived_elements()
        coset_rep: Dict[Perm, Perm] = {}
        for h in self.sorted_elements:
            if h not in coset_rep:
                coset = sorted(compose(h, d) for d in derived)
                rep = coset[0]
                for x in coset:
                    coset_rep[x] = rep
        reps = sorted(set(coset_rep.values()))

        def mul(a: Perm, b: Perm) -> Perm:
            return coset_rep[compose(a, b)]

        basis, dlog = _decompose_abelian(reps, mul, coset_rep[self.parent.identity])
        orders = [o for _, o in basis]
        level = reduce(math.lcm, orders, 1)
        chars = []
        for js in itertools.product(*(range(o) for o in orders)):
            exps = {}
            for h in self.sorted_elements:
                e = dlog[coset_rep[h]]
                exps[h] = (
                    sum(j * ei * (level // o) for j, ei, o in zip(js, e, orders))
                    % level
                )
            chars.append(LinearChar(self, level, exps))
        chars.sort(key=lambda c: c.key()[2:])
        self._linear = tuple(chars)
        return self._linear


def _decompose_abelian(elements, mul, ident):
    """Split a finite abelian group into cyclic factors.

    Returns (basis, dlog) where basis is [(generator, order), ...] and dlog
    maps each element to its exponent tuple on the basis.
    """
    if len(elements) == 1:
        return [], {ident: ()}

    def elem_order(a):
        n, x = 1, a
        while x != ident:
            x = mul(x, a)
            n += 1
        return n

    orders = {a: elem_order(a) for a in elements}
    max_order = max(orders.values())
    a = min(x for x, o in orders.items() if o == max_order)
    powers = {}
    x, i = ident, 0
    while True:
        powers[x] = i
        x = mul(x, a)
        i += 1
        if x == ident:
            break

    # quotient by <a>, with minimal coset members as tokens
    token_of: Dict[object, object] = {}
    for x in sorted(elements):
        if x not in token_of:
            coset = sorted(mul(x, p) for p in _iterate_powers(a, mul, ident))
            for y in coset:
                token_of[y] = coset[0]
    tokens = sorted(set(token_of.values()))

    def qmul(t1, t2):
        return token_of[mul(t1, t2)]

    qbasis, _ = _decompose_abelian(tokens, qmul, token_of[ident])

    basis = [(a, max_order)]
    for t, r in qbasis:
        b = t
        br = _power_via(b, r, mul, ident)
        s = powers[br]  # b^r lands inside <a>
        if s % r != 0:
            raise RuntimeError("abelian decomposition: maximal order violated")
        shift = _power_via(a, (max_order - s // r) % max_order, mul, ident)
        basis.append((mul(b, shift), r))

    dlog = {}
    ranges = [range(o) for _, o in basis]
    for exps in itertools.product(*ranges):
        x = ident
        for (g, _), e in zip(basis, exps):
            x = mul(x, _power_via(g, e, mul, ident))
        if x in dlog:
            raise RuntimeError("abelian decomposition is not direct")
        dlog[x] = exps
    if len(dlog) != len(elements):
        raise RuntimeError("abelian decomposition misses elements")
    return basis, dlog


def _iterate_powers(a, mul, ident):
    out = [ident]
    x = mul(ident, a)
    while x != ident:
        out.append(x)
        x = mul(x, a)
    return out


def _power_via(g, e, mul, ident):
    x = ident
    for _ in range(e):
        x = mul(x, g)
    return x


class LinearChar:
    """A degree-one character of a subgroup, stored as root-of-unity
    exponents at level equal to the character's order."""

    __slots__ = ("domain", "order", "exponents")

    def __init__(self, domain: Subgroup, level: int, exponents: Mapping[Perm, int]):
        g = level
        for e in exponents.values():
            g = math.gcd(g, e)
        order = level // g if g else 1
        self.domain = domain
        self.order = order
        self.exponents = {
            h: (e // g) % order if order > 1 else 0 for h, e in exponents.items()
        }
        if set(self.exponents) != set(domain.elements):
            raise ValueError("character must be defined on the whole subgroup")

    def value(self, g: Perm) -> RootOfUnity:
        return RootOfUnity(self.order, self.exponents[g])

    def cyclotomic_value(self, g: Perm) -> Cyclotomic:
        return zeta(self.order, self.exponents[g])

    def key(self) -> tuple:
        dom = self.domain.sorted_elements
        return (self.domain.order, dom, self.order, tuple(self.exponents[h] for h in dom))

    def is_trivial(self) -> bool:
        return self.order == 1

    def restrict(self, sub: Subgroup) -> "LinearChar":
        if not sub.elements <= self.domain.elements:
            raise ValueError("can only restrict to a smaller subgroup")
        return LinearChar(sub, self.order, {h: self.exponents[h] for h in sub.elements})

    def conjugate(self, g: Perm) -> "LinearChar":
        """h -> phi(g^-1 h g) on the conjugate subgroup, its exponent keys."""
        g_inv = inverse(g)
        exps = {
            compose(compose(g, h), g_inv): e for h, e in self.exponents.items()
        }
        dom = Subgroup(self.domain.parent, frozenset(exps), validate=False)
        return LinearChar(dom, self.order, exps)

    def __mul__(self, other: "LinearChar") -> "LinearChar":
        if self.domain.elements != other.domain.elements:
            raise ValueError("pointwise product needs equal domains")
        level = math.lcm(self.order, other.order)
        exps = {
            h: self.exponents[h] * (level // self.order)
            + other.exponents[h] * (level // other.order)
            for h in self.exponents
        }
        return LinearChar(self.domain, level, exps)

    def __eq__(self, other):
        if not isinstance(other, LinearChar):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"LinearChar(order={self.order} on subgroup of order {self.domain.order})"


class MonomialPair:
    """A subgroup together with one of its linear characters, ordered by
    "subgroup contained and character restricts"."""

    __slots__ = ("subgroup", "character", "_key")

    def __init__(self, subgroup: Subgroup, character: LinearChar):
        if character.domain.elements != subgroup.elements:
            raise ValueError("character is not defined on the given subgroup")
        self.subgroup = subgroup
        self.character = character
        self._key = None

    def key(self) -> tuple:
        if self._key is None:
            dom = self.subgroup.sorted_elements
            self._key = (
                self.subgroup.order,
                dom,
                self.character.order,
                tuple(self.character.exponents[h] for h in dom),
            )
        return self._key

    def __eq__(self, other):
        if not isinstance(other, MonomialPair):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __le__(self, other: "MonomialPair") -> bool:
        if not self.subgroup.elements <= other.subgroup.elements:
            return False
        return all(
            other.character.value(h) == self.character.value(h)
            for h in self.subgroup.elements
        )

    def __lt__(self, other: "MonomialPair") -> bool:
        return self.subgroup.order < other.subgroup.order and self <= other

    def conjugate(self, g: Perm) -> "MonomialPair":
        phi = self.character.conjugate(g)
        return MonomialPair(phi.domain, phi)

    def __repr__(self):
        return (
            f"MonomialPair(|H|={self.subgroup.order},"
            f" o(phi)={self.character.order})"
        )


def conjugate_pair(g: Perm, pair: MonomialPair) -> MonomialPair:
    """The action of a group element on a monomial pair."""
    return pair.conjugate(g)


def restrict_linear(pair: MonomialPair, sub: Subgroup) -> LinearChar:
    """Restrict the pair's character to a smaller subgroup."""
    return pair.character.restrict(sub)


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
    table = {}
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
    return PermGroup(gens, degree=degree, name=label)


_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)")


def from_spec(spec: str) -> PermGroup:
    """Parse the group-spec grammar: cyclic:12, sym:4, alt:5, dihedral:8,
    quaternion:8, sl2:3, elementary:3,2, extraspecial:27,
    perm:[(1,2),(1,2,3)], product:sym:3,cyclic:2.

    Raises SpecError for an unknown or malformed spec, and BoundExceeded,
    before building anything, when the order the spec names exceeds
    DEFAULT_ORDER_BOUND.  A perm: spec (alone or as a factor) names no order
    in advance; its enumeration stops at the bound instead."""
    build, order = _parse_spec(spec.strip())
    if order is not None and order > DEFAULT_ORDER_BOUND:
        raise BoundExceeded(
            f"group spec {spec!r} names a group of order above the bound"
            f" {DEFAULT_ORDER_BOUND}"
        )
    return build()


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
    spec is involved)."""
    head, sep, rest = spec.partition(":")
    if not sep:
        raise SpecError(
            f"malformed group spec {spec!r}: expected head:arguments, as in cyclic:12"
        )

    def args(form: str, count: int = 1) -> List[int]:
        try:
            vals = [int(x) for x in rest.split(",")]
        except ValueError:  # a non-integer argument
            vals = []
        if len(vals) != count:
            raise SpecError(
                f"malformed group spec {spec!r}: expected {form} with integer"
                f" {'arguments' if count > 1 else 'argument'}"
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
        cycles = [
            tuple(int(x) for x in m.group(1).split(","))
            for m in _CYCLE_RE.finditer(rest)
        ]
        check(bool(cycles), "no cycles found")
        check(all(min(c) >= 1 and len(set(c)) == len(c) for c in cycles),
              "cycles need distinct points numbered from 1")
        degree = max(max(c) for c in cycles)
        gens = [perm_from_cycles([c], degree) for c in cycles]
        return (lambda: PermGroup(gens, degree=degree, name=spec)), None
    if head == "product":
        parts = [_parse_spec(f.strip()) for f in _split_product(rest)]
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
