"""Brute-force route through the monomial poset.

Everything here enumerates explicitly: all (subgroup, linear character)
pairs, all strict chains between them, all orbits of pairs and of chains.
The canonical induction coefficients are then exact integer data, and the
fast Adams-route invariant can be cross-checked coefficient by
coefficient.  Multiplicities and induced characters are both read from
each pair's class counts and the table's values, never from the Adams
route.  Deliberately trades speed for transparency; bounded to small groups.
"""

from __future__ import annotations

import os
import warnings
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from .adams import ChiLike, _as_class_function, adams_operation
from .chartab import CharacterTable, ClassFunction, integral_inner_product
from .cyclo import Cyclotomic
from .errors import BoundExceeded, ConsistencyError
from .groups import (
    LinearChar,
    MonomialPair,
    Perm,
    PermGroup,
    Subgroup,
    compose,
    conjugate_perm,
    inverse,
)

DEFAULT_ORACLE_BOUND = 24
HARD_ORACLE_CAP = 60
ENV_ORACLE_BOUND = "FEITLAB_ORACLE_BOUND"


def resolve_oracle_bound(bound: Optional[int] = None) -> int:
    if bound is None:
        bound = int(os.environ.get(ENV_ORACLE_BOUND, DEFAULT_ORACLE_BOUND))
    if bound > HARD_ORACLE_CAP:
        raise ValueError(
            f"oracle bound {bound} exceeds the hard cap {HARD_ORACLE_CAP}"
        )
    if bound > DEFAULT_ORACLE_BOUND:
        warnings.warn(
            f"oracle bound raised to {bound}; chain enumeration grows steeply",
            stacklevel=3,
        )
    return bound


def class_counts(group: PermGroup, pair: MonomialPair) -> Dict[int, Dict[int, int]]:
    """N[c][k]: the number of elements of the pair's subgroup that lie in
    class c of the group and have character exponent k."""
    counts: Dict[int, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for h, k in pair.character.exponents.items():
        counts[group.class_index(h)][k] += 1
    return counts


class MonomialContext:
    """Per-group cache: the monomial poset, its conjugation action, orbits,
    the signed chain counts both over all chains and over orbit
    representatives of chains, and the multiplicity of every pair in each
    class function it has been asked about."""

    def __init__(self, group: PermGroup):
        self.group = group
        subs = group.all_subgroups()
        pairs: List[MonomialPair] = [
            MonomialPair(h, phi) for h in subs for phi in h.linear_characters()
        ]
        pairs.sort(key=lambda p: p.key())
        self.pairs = tuple(pairs)
        self.index = {p.key(): i for i, p in enumerate(pairs)}
        self.orders = tuple(p.character.order for p in pairs)

        npairs = len(pairs)
        above: List[List[int]] = [[] for _ in range(npairs)]
        for i, p in enumerate(pairs):
            for j, q in enumerate(pairs):
                if q.subgroup.order > p.subgroup.order and p <= q:
                    above[i].append(j)
        self.above = tuple(tuple(a) for a in above)

        act: List[Tuple[int, ...]] = []
        for g in group.elements:
            act.append(
                tuple(self.index[p.conjugate(g).key()] for p in pairs)
            )
        self.act = tuple(act)

        orbit_rep = list(range(npairs))
        for i in range(npairs):
            members = {row[i] for row in act}
            rep = min(members)
            for m in members:
                orbit_rep[m] = min(orbit_rep[m], rep)
        self.orbit_rep = tuple(orbit_rep)
        self.orbit_size = {
            rep: sum(1 for i in range(npairs) if orbit_rep[i] == rep)
            for rep in set(orbit_rep)
        }

        chain_weight: Dict[Tuple[int, int], int] = defaultdict(int)
        orbit_weight: Dict[Tuple[int, int], int] = defaultdict(int)
        seen_orbits: Set[Tuple[int, ...]] = set()
        chain: List[int] = []

        def dfs(top: int, sign: int):
            chain.append(top)
            start = chain[0]
            chain_weight[(start, top)] += sign
            tup = tuple(chain)
            canon = min(tuple(row[i] for i in tup) for row in self.act)
            if canon not in seen_orbits:
                seen_orbits.add(canon)
                orbit_weight[(orbit_rep[canon[0]], orbit_rep[canon[-1]])] += sign
            for nxt in self.above[top]:
                dfs(nxt, -sign)
            chain.pop()

        for start in range(npairs):
            dfs(start, 1)
        self.chain_weight = dict(chain_weight)
        self.orbit_chain_weight = dict(orbit_weight)
        self._multiplicities: Dict[tuple, Tuple[int, ...]] = {}

    @cached_property
    def cyclic(self) -> Tuple[bool, ...]:
        """Whether each pair's subgroup is cyclic, computed on first use."""
        return tuple(p.subgroup.is_cyclic() for p in self.pairs)

    @cached_property
    def _restriction_sums(self) -> Tuple[Tuple[Tuple[int, Cyclotomic], ...], ...]:
        """For every pair of order o, the sums sum_k N[c][k] z_o^-k over the
        classes c that meet its subgroup."""
        return tuple(
            tuple(
                (c, Cyclotomic.from_terms(
                    p.character.order, [(-k, n) for k, n in row.items()]
                ))
                for c, row in class_counts(self.group, p).items()
            )
            for p in self.pairs
        )

    def multiplicities(self, values: Mapping[Perm, Cyclotomic]) -> Tuple[int, ...]:
        """<chi|_H, phi> for every pair (H, phi), with chi the class function
        given by its element values; computed once per class function."""
        group = self.group
        classes = group.conjugacy_classes()
        row = [values[cls.rep] for cls in classes]
        if any(values[x] != v for cls, v in zip(classes, row) for x in cls.elements):
            raise ValueError(f"values are not constant on the classes of {group.name}")
        key = tuple((v.level, v.nums, v.den) for v in row)
        if key not in self._multiplicities:
            mults = []
            for pair, sums in zip(self.pairs, self._restriction_sums):
                acc = Cyclotomic.rational(0)
                for c, s in sums:
                    acc = acc + row[c] * s
                m = acc / pair.subgroup.order
                mults.append(m.as_integer())
                if mults[-1] is None:
                    raise ConsistencyError(
                        f"non-integral character multiplicity {m} at {pair!r}"
                        f" of {group.name}"
                    )
            self._multiplicities[key] = tuple(mults)
        return self._multiplicities[key]

    def orbit_of(self, pair: MonomialPair) -> Tuple[MonomialPair, int, int]:
        """Canonical representative, orbit size, and stabilizer size."""
        i = self.index[pair.key()]
        rep = self.orbit_rep[i]
        size = self.orbit_size[rep]
        return self.pairs[rep], size, self.group.order // size


_CONTEXT_CACHE: Dict[Tuple[int, Tuple[Perm, ...]], MonomialContext] = {}


def monomial_context(group: PermGroup, bound: Optional[int] = None) -> MonomialContext:
    limit = resolve_oracle_bound(bound)
    if group.order > limit:
        raise BoundExceeded(
            f"oracle route needs order <= {limit}, group has {group.order}"
        )
    key = (group.degree, group.elements)
    ctx = _CONTEXT_CACHE.get(key)
    if ctx is None:
        ctx = MonomialContext(group)
        _CONTEXT_CACHE[key] = ctx
    return ctx


def monomial_pairs(group: PermGroup, bound: Optional[int] = None) -> Tuple[MonomialPair, ...]:
    """The full monomial poset of the group."""
    return monomial_context(group, bound).pairs


class PairCombination:
    """An integer combination of orbits of monomial pairs, keyed by the
    canonical orbit representatives."""

    def __init__(self, group_key, coefficients: Mapping[MonomialPair, int]):
        self.group_key = group_key
        self.coefficients = {p: c for p, c in coefficients.items() if c}

    @staticmethod
    def zero(group_key) -> "PairCombination":
        return PairCombination(group_key, {})

    def coefficient(self, pair: MonomialPair) -> int:
        return self.coefficients.get(pair, 0)

    def __eq__(self, other):
        if not isinstance(other, PairCombination):
            return NotImplemented
        return (
            self.group_key == other.group_key
            and self.coefficients == other.coefficients
        )

    __hash__ = None

    def __add__(self, other: "PairCombination") -> "PairCombination":
        if self.group_key != other.group_key:
            raise ValueError("combinations live over different groups")
        out = dict(self.coefficients)
        for p, c in other.coefficients.items():
            out[p] = out.get(p, 0) + c
        return PairCombination(self.group_key, out)

    def __sub__(self, other: "PairCombination") -> "PairCombination":
        return self + other.scale(-1)

    def scale(self, c: int) -> "PairCombination":
        return PairCombination(
            self.group_key, {p: c * v for p, v in self.coefficients.items()}
        )

    def order_filtered_sum(self, n: int, multiples: bool = True) -> int:
        """Sum of coefficients over orbits whose character order is a
        multiple of n (or a divisor of n, with multiples=False)."""
        total = 0
        for p, c in self.coefficients.items():
            o = p.character.order
            if (o % n == 0) if multiples else (n % o == 0):
                total += c
        return total

    def to_json(self) -> list:
        records = []
        for p in sorted(self.coefficients, key=lambda p: p.key()):
            dom = p.subgroup.sorted_elements
            records.append(
                {
                    "subgroup": [list(g) for g in dom],
                    "phi": [
                        [p.character.order, p.character.exponents[g]] for g in dom
                    ],
                    "coefficient": self.coefficients[p],
                }
            )
        return records

    def __repr__(self):
        parts = [
            f"{c} * [H{p.subgroup.order}, o{p.character.order}]"
            for p, c in sorted(
                self.coefficients.items(), key=lambda item: item[0].key()
            )
        ]
        return "PairCombination(" + " + ".join(parts) + ")" if parts else "PairCombination(0)"


def _group_key(group: PermGroup):
    return (group.degree, group.elements)


def element_values(table: CharacterTable, chi: ChiLike) -> Dict[Perm, Cyclotomic]:
    """A class function as an explicit element-to-value map (needs a
    group-backed table)."""
    chi, _ = _as_class_function(table, chi)
    if table.group is None:
        raise ValueError("a group-backed table is required for the oracle route")
    g = table.group
    return {x: chi.values[g.class_index(x)] for x in g.elements}


def induction_by_chains(
    table: CharacterTable, chi: ChiLike, bound: Optional[int] = None
) -> PairCombination:
    """Canonical induction coefficients through the sum over all chains,
    weighted by the bottom subgroup order and divided by the group order."""
    values = element_values(table, chi)
    return induction_by_chains_values(table.group, values, bound)


def induction_by_chains_values(
    group: PermGroup, values: Mapping[Perm, Cyclotomic], bound: Optional[int] = None
) -> PairCombination:
    ctx = monomial_context(group, bound)
    mult = ctx.multiplicities(values)
    acc: Dict[int, int] = defaultdict(int)
    for (i0, top), w in ctx.chain_weight.items():
        if w and mult[top]:
            acc[ctx.orbit_rep[i0]] += w * ctx.pairs[i0].subgroup.order * mult[top]
    coeffs: Dict[MonomialPair, int] = {}
    for rep, raw in acc.items():
        q, r = divmod(raw, group.order)
        if r:
            raise ConsistencyError(
                f"chain sum produced a coefficient not divisible by the group"
                f" order {group.order} at the orbit of {ctx.pairs[rep]!r}"
                f" of {ctx.group.name}"
            )
        if q:
            coeffs[ctx.pairs[rep]] = q
    return PairCombination(_group_key(group), coeffs)


def induction_by_orbit_chains(
    table: CharacterTable, chi: ChiLike, bound: Optional[int] = None
) -> PairCombination:
    """The same coefficients through the sum over orbit representatives of
    chains (no division by the group order; equality with the all-chains
    formula is non-obvious, and the tests exercise it on the whole corpus)."""
    values = element_values(table, chi)
    return induction_by_orbit_chains_values(table.group, values, bound)


def induction_by_orbit_chains_values(
    group: PermGroup, values: Mapping[Perm, Cyclotomic], bound: Optional[int] = None
) -> PairCombination:
    ctx = monomial_context(group, bound)
    mult = ctx.multiplicities(values)
    acc: Dict[int, int] = defaultdict(int)
    for (rep0, rep_top), w in ctx.orbit_chain_weight.items():
        if w and mult[rep_top]:
            acc[rep0] += w * mult[rep_top]
    coeffs = {ctx.pairs[rep]: c for rep, c in acc.items() if c}
    return PairCombination(_group_key(group), coeffs)


def induced_character(table: CharacterTable, comb: PairCombination) -> ClassFunction:
    """Map a combination of pair orbits to the corresponding integer
    combination of induced characters: at a class c,
    Ind phi = |G| / (|H| |c|) sum_k N[c][k] z_o^k."""
    if table.group is None:
        raise ValueError("a group-backed table is required for induction")
    group = table.group
    if comb.group_key != _group_key(group):
        raise ValueError("combination lives over a different group")
    column = {group.class_index(z): ci for ci, z in enumerate(table.class_reps)}
    out = [Cyclotomic.rational(0) for _ in table.class_reps]
    for pair, coeff in comb.coefficients.items():
        o = pair.character.order
        weight = Fraction(coeff * group.order, pair.subgroup.order)
        for c, row in class_counts(group, pair).items():
            ci = column[c]
            value = Cyclotomic.from_terms(o, row.items())
            out[ci] = out[ci] + value * (weight / table.classes[ci].size)
    return ClassFunction(table, out)


def restrict_combination(
    comb: PairCombination, sub: Subgroup, bound: Optional[int] = None
) -> PairCombination:
    """Push a combination down to a subgroup through the double-coset sum."""
    group = sub.parent
    if comb.group_key != _group_key(group):
        raise ValueError("combination lives over a different group")
    sub_group = sub.as_group()
    ctx_u = monomial_context(sub_group, bound)
    acc: Dict[MonomialPair, int] = defaultdict(int)
    for pair, c in comb.coefficients.items():
        h_elems = pair.subgroup.elements
        seen: Set[Perm] = set()
        for g in group.elements:
            if g in seen:
                continue
            # mark the whole double coset U g H
            for u in sub.elements:
                ug = compose(u, g)
                for h in h_elems:
                    seen.add(compose(ug, h))
            g_inv = inverse(g)
            conj_h = {conjugate_perm(g, h) for h in h_elems}
            k_elems = sub.elements & conj_h
            exps = {
                x: pair.character.exponents[conjugate_perm(g_inv, x)]
                for x in k_elems
            }
            k_sub = Subgroup(sub_group, k_elems, validate=False)
            psi = LinearChar(k_sub, pair.character.order, exps)
            rep, _, _ = ctx_u.orbit_of(MonomialPair(k_sub, psi))
            acc[rep] += c
    return PairCombination(_group_key(sub_group), acc)


def invariant_via_coefficients(
    table: CharacterTable,
    chi: ChiLike,
    n: int,
    comb: Optional[PairCombination] = None,
    bound: Optional[int] = None,
) -> int:
    """The literal definition of the invariant: the sum of the canonical
    induction coefficients over orbits whose character order n divides.
    Valid for any positive n, not only divisors of the exponent."""
    if n < 1:
        raise ValueError("n must be positive")
    if comb is None:
        comb = induction_by_chains(table, chi, bound)
    return comb.order_filtered_sum(n, multiples=True)


@dataclass
class IdentityCheck:
    """Coefficient sum over pairs killed by n versus the Adams multiplicity."""

    n: int
    coefficient_sum: int
    adams_multiplicity: int

    @property
    def passed(self) -> bool:
        return self.coefficient_sum == self.adams_multiplicity


def adams_identity_check(
    table: CharacterTable,
    chi: ChiLike,
    n: int,
    comb: Optional[PairCombination] = None,
    bound: Optional[int] = None,
) -> IdentityCheck:
    """Check that the coefficients of pairs whose character has order
    dividing n sum to the multiplicity of the trivial character in the n-th
    Adams operation."""
    if comb is None:
        comb = induction_by_chains(table, chi, bound)
    lhs = comb.order_filtered_sum(n, multiples=False)
    rhs = integral_inner_product(
        adams_operation(table, chi, n), table.trivial_character()
    )
    return IdentityCheck(n, lhs, rhs)


@dataclass
class MaxSetsCheck:
    """Comparison of the constituent poset against the support of the
    canonical induction coefficients."""

    constituent_pairs: FrozenSet[MonomialPair]
    support_pairs: FrozenSet[MonomialPair]
    max_constituent: FrozenSet[MonomialPair]
    max_support: FrozenSet[MonomialPair]
    support_contained: bool
    max_equal: bool
    strictly_smaller: bool

    @property
    def passed(self) -> bool:
        return self.support_contained and self.max_equal


def _poset_data(table: CharacterTable, chi: ChiLike, bound: Optional[int]):
    """The context and four flags per pair: constituent of chi, in the
    coefficient support, and maximal among the pairs with each flag."""
    values = element_values(table, chi)
    ctx = monomial_context(table.group, bound)
    comb = induction_by_chains_values(table.group, values, bound)
    support_reps = {ctx.index[p.key()] for p in comb.coefficients}
    in_m = [m > 0 for m in ctx.multiplicities(values)]
    in_mt = [ctx.orbit_rep[i] in support_reps for i in range(len(ctx.pairs))]

    def maximal(flags: Sequence[bool]) -> List[bool]:
        return [
            ok and not any(flags[j] for j in ctx.above[i])
            for i, ok in enumerate(flags)
        ]

    return ctx, in_m, in_mt, maximal(in_m), maximal(in_mt)


def check_max_sets(
    table: CharacterTable, chi: ChiLike, bound: Optional[int] = None
) -> MaxSetsCheck:
    ctx, *flags = _poset_data(table, chi, bound)
    m_set, mt_set, max_m, max_mt = (
        {i for i, ok in enumerate(f) if ok} for f in flags
    )
    return MaxSetsCheck(
        constituent_pairs=frozenset(ctx.pairs[i] for i in m_set),
        support_pairs=frozenset(ctx.pairs[i] for i in mt_set),
        max_constituent=frozenset(ctx.pairs[i] for i in max_m),
        max_support=frozenset(ctx.pairs[i] for i in max_mt),
        support_contained=mt_set <= m_set,
        max_equal=max_m == max_mt,
        strictly_smaller=mt_set < m_set,
    )


@dataclass
class EquivalenceCheck:
    """The seven pairwise-equivalent existence statements at a given n."""

    n: int
    any_constituent: bool            # some constituent pair with n | order
    max_constituent: bool            # ... maximal such
    any_support: bool                # some nonzero-coefficient pair
    max_support: bool                # ... maximal such
    cyclic_constituent: bool         # constituent pair with cyclic subgroup
    exact_constituent: bool          # constituent pair with order exactly n
    exact_cyclic_constituent: bool   # cyclic subgroup and order exactly n

    @property
    def flags(self) -> Tuple[bool, ...]:
        return (
            self.any_constituent,
            self.max_constituent,
            self.any_support,
            self.max_support,
            self.cyclic_constituent,
            self.exact_constituent,
            self.exact_cyclic_constituent,
        )

    @property
    def passed(self) -> bool:
        return len(set(self.flags)) == 1


def check_equivalences(
    table: CharacterTable, chi: ChiLike, n: int, bound: Optional[int] = None
) -> EquivalenceCheck:
    ctx, in_m, in_mt, max_m, max_mt = _poset_data(table, chi, bound)
    orders, cyclic = ctx.orders, ctx.cyclic
    idx = range(len(ctx.pairs))
    return EquivalenceCheck(
        n=n,
        any_constituent=any(in_m[i] and orders[i] % n == 0 for i in idx),
        max_constituent=any(max_m[i] and orders[i] % n == 0 for i in idx),
        any_support=any(in_mt[i] and orders[i] % n == 0 for i in idx),
        max_support=any(max_mt[i] and orders[i] % n == 0 for i in idx),
        cyclic_constituent=any(
            in_m[i] and cyclic[i] and orders[i] % n == 0 for i in idx
        ),
        exact_constituent=any(in_m[i] and orders[i] == n for i in idx),
        exact_cyclic_constituent=any(
            in_m[i] and cyclic[i] and orders[i] == n for i in idx
        ),
    )
