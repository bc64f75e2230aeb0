"""Brute-force route through the monomial poset.

Everything here is exact and explicit: all (subgroup, linear character)
pairs, the conjugation action on them, and their orbits.  The signed chain
counts of the canonical induction formula (R. Boltje, "A canonical Brauer
induction formula", Asterisque 181-182, 1990) are P. Hall's Moebius
function of the poset ("The Eulerian functions of a group", 1936),
computed by Hall's recursion over intervals; the signed counts of chain
orbits follow by Burnside's lemma from the Moebius functions of the
fixed-point subposets.  The canonical induction coefficients are then
exact integer data, and the fast Adams-route invariant can be
cross-checked coefficient by coefficient.  Multiplicities and induced
characters are both read from each pair's class counts and the table's
values, as integer group-ring sums, never from the Adams route.  Bounded to
small groups (order <= 60).  The poset reads the indexed form of its group
from ``groups``: elements numbered 0..|G|-1 with their multiplication and
inverse tables, subgroups as bitmasks, and characters as exponent tuples
over their members; conjugation is an index permutation of the pairs.  A
character enters only as its class row.  Its restriction to a subgroup U is
served by ``sub=U``: U's poset is the down-set of the group's, and it reads
the group's row through the group's classes.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .adams import ChiLike, _as_class_function, _check_positive, _row_index, adams_operation
from .chartab import (
    CharacterTable, ClassFunction, _group_ring_sum, _value_terms, integral_inner_product,
)
from .cyclo import Cyclotomic, _make
from .errors import BoundExceeded, ConsistencyError, UsageError
from .groups import DEFAULT_SUBGROUP_BOUND, MonomialPair, PermGroup, Subgroup

DEFAULT_ORACLE_BOUND = 24
# the oracle enumerates every subgroup, so it reaches as far as the lattice
HARD_ORACLE_CAP = DEFAULT_SUBGROUP_BOUND
ENV_ORACLE_BOUND = "FEITLAB_ORACLE_BOUND"


def check_oracle_bound(bound: Optional[int] = None, label: str = "oracle bound") -> int:
    """The oracle's order bound: ``bound``, or else the environment variable,
    or else the default.  Raises UsageError, naming ``label`` or the
    variable, unless it is an integer in 1..HARD_ORACLE_CAP."""
    shown = f"{label} {bound!r}"
    if bound is None:
        raw = os.environ.get(ENV_ORACLE_BOUND)
        if raw is None:
            return DEFAULT_ORACLE_BOUND
        shown = f"{ENV_ORACLE_BOUND}={raw!r}"
        try:
            bound = int(raw)
        except ValueError:
            raise UsageError(f"{shown} is not an integer") from None
    if isinstance(bound, bool) or not isinstance(bound, int):
        raise UsageError(f"{shown} is not an integer")
    if bound < 1:
        raise UsageError(f"{shown} must be at least 1")
    if bound > HARD_ORACLE_CAP:
        raise UsageError(f"{shown} exceeds the hard cap {HARD_ORACLE_CAP}")
    return bound


def resolve_oracle_bound(bound: Optional[int] = None) -> int:
    bound = check_oracle_bound(bound)
    if bound > DEFAULT_ORACLE_BOUND:
        warnings.warn(
            f"oracle bound raised to {bound}; the monomial poset grows steeply",
            stacklevel=3,
        )
    return bound


def _mobius(subs: Sequence[int], masks: Sequence[int]) -> Dict[int, List[Tuple[int, int]]]:
    """Hall's recursion mu(k, k) = 1, mu(k, s) = -sum_{k <= l < s} mu(k, l)
    on the subposet ``subs`` of the subgroup lattice (subgroup ids, in
    increasing order, with ``masks`` their element bitmasks): for every s,
    the (k, mu(k, s)) with k <= s and mu(k, s) nonzero."""
    out: Dict[int, List[Tuple[int, int]]] = {s: [] for s in subs}
    for a, k in enumerate(subs):
        mk = masks[k]
        nonzero = [(mk, 1)]  # (mask of l, mu(k, l)) over the l reached so far
        out[k].append((k, 1))
        for s in subs[a + 1:]:
            ms = masks[s]
            if mk & ms != mk:
                continue
            w = -sum(m for ml, m in nonzero if ml & ms == ml)
            if w:
                nonzero.append((ms, w))
                out[s].append((k, w))
    return out


def _count_terms(
    cls: Sequence[int], members: Sequence[int], exps: Sequence[int], step: int
) -> Tuple[Tuple[int, tuple], ...]:
    """A pair's class counts as group-ring terms at the level o step, o its
    character's order: (c, ((k step, N[c][k]), ...)) with N[c][k] the number
    of its subgroup's members (element numbers) x in class c = cls[x] with
    character exponent k."""
    out: Dict[int, Dict[int, int]] = {}
    for x, k in zip(members, exps):
        row = out.setdefault(cls[x], {})
        row[k * step] = row.get(k * step, 0) + 1
    return tuple((c, tuple(row.items())) for c, row in out.items())


class _IndexedPoset:
    """The monomial poset of one group, on the group's indexed form.

    Subgroups are in the order of ``all_subgroups``; pairs are the subgroup
    id, the character order and its exponents on the subgroup's members,
    sorted like ``MonomialPair.key()``.  Shared by the context of the group
    and by the contexts of its subgroups, which are down-sets of it."""

    def __init__(self, group: PermGroup):
        self.index, self.mul = group.index, group.mul
        self.subgroups = group.all_subgroups()
        self.masks = tuple(h.mask for h in self.subgroups)
        self.sid = {m: s for s, m in enumerate(self.masks)}
        self.members = tuple(h.members for h in self.subgroups)
        place = [{x: t for t, x in enumerate(mem)} for mem in self.members]

        pairs: List[MonomialPair] = []
        self.psub: List[int] = []
        self.chars_of: List[Tuple[int, ...]] = []
        char_index: List[Dict[Tuple[int, Tuple[int, ...]], int]] = []
        for s, h in enumerate(self.subgroups):
            start = len(pairs)
            char_index.append({})
            for phi in h.linear_characters():
                char_index[s][(phi.order, phi.exponents)] = len(pairs)
                pairs.append(MonomialPair(h, phi))
                self.psub.append(s)
            self.chars_of.append(tuple(range(start, len(pairs))))
        self.pairs = tuple(pairs)
        self.orders = tuple(p.character.order for p in pairs)
        self.pexps = tuple(p.character.exponents for p in pairs)

        # restrict[j][k]: the pair that pair j restricts to on subgroup k
        self.restrict: List[Dict[int, int]] = [{} for _ in pairs]
        for s, ms in enumerate(self.masks):
            for k in range(s + 1):
                if self.masks[k] | ms != ms:
                    continue
                at = [place[s][x] for x in self.members[k]]
                for j in self.chars_of[s]:
                    o, exps = self.orders[j], self.pexps[j]
                    r = [exps[t] for t in at]
                    d = math.gcd(o, *r)
                    key = (o // d, tuple(x // d for x in r))
                    self.restrict[j][k] = char_index[k][key]

        # below[j]: the (i, mu(i, j)) with i <= j and mu nonzero; the
        # interval under j is the subgroup lattice under its subgroup
        mobius = _mobius(range(len(self.masks)), self.masks)
        self.below = tuple(
            tuple((self.restrict[j][k], w) for k, w in mobius[self.psub[j]])
            for j in range(len(pairs))
        )

        # act[g][j]: the pair g p_j g^-1, from the generators' rows and
        # c_{ga} = c_g c_a over the multiplication table
        mul, inv, n = self.mul, group.inv, group.order
        gen_rows = []
        for gen in group.generators:
            g = self.index[gen]
            conj = [mul[mul[g][x]][inv[g]] for x in range(n)]
            back = [mul[mul[inv[g]][x]][g] for x in range(n)]
            row = [0] * len(pairs)
            for s, mem in enumerate(self.members):
                s2 = self.sid[sum(1 << conj[x] for x in mem)]
                src = [place[s][back[y]] for y in self.members[s2]]
                for j in self.chars_of[s]:
                    exps = self.pexps[j]
                    row[j] = char_index[s2][(self.orders[j], tuple(exps[t] for t in src))]
            gen_rows.append((g, row))
        act: List[Optional[Tuple[int, ...]]] = [None] * n
        act[0] = tuple(range(len(pairs)))
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                row_a = act[a]
                for g, row_g in gen_rows:
                    b = mul[g][a]
                    if act[b] is None:
                        act[b] = tuple([row_g[j] for j in row_a])
                        nxt.append(b)
            frontier = nxt
        self.act = tuple(act)

        # cls[x]: the class of element x; meets[s]: the classes subgroup s
        # meets.  Every context on the poset reads rows over these classes:
        # <chi|_H, phi> does not depend on whose classes sort H's elements.
        self.cls = group.class_of
        self.meets = tuple(
            tuple(sorted({self.cls[x] for x in mem})) for mem in self.members
        )
        self.exponent = group.exponent()
        self._counts: Dict[int, Dict[int, Tuple[Tuple[int, tuple], ...]]] = {}
        # the multiplicities of each subgroup's characters in each class
        # function, keyed by the function's values on the classes the
        # subgroup meets; shared by every context on this poset
        self.mult_memo: Dict[tuple, Tuple[int, ...]] = {}

    @cached_property
    def cyclic(self) -> Tuple[bool, ...]:
        return tuple(h.is_cyclic() for h in self.subgroups)

    def counts(self, j: int, level: int) -> Tuple[Tuple[int, tuple], ...]:
        """(c, terms) over the classes c that pair j's subgroup meets, with
        the terms (k level/o, N[c][k]) of its class counts at a multiple of
        the character order o; built on first use."""
        memo = self._counts.setdefault(level, {})
        out = memo.get(j)
        if out is None:
            out = memo[j] = _count_terms(
                self.cls, self.members[self.psub[j]], self.pexps[j], level // self.orders[j]
            )
        return out


class MonomialContext:
    """The monomial poset of one group with its conjugation action, orbits,
    Moebius function (the signed chain counts) and the signed counts of
    chain orbits, and the multiplicity of every pair in a class function.

    Built on the indexed poset of the group itself, or, for a subgroup U of
    a larger group G, on G's poset: U's poset is the down-set of the pairs
    (H, phi) with H <= U, the Moebius function of an interval depends only
    on the interval, and only U's orbits and orbit weights are new."""

    def __init__(self, group: PermGroup, poset: Optional[_IndexedPoset] = None):
        self.group = group
        self.poset = P = poset or _IndexedPoset(group)
        # the group's elements, in the numbering of the poset's group
        umask = sum(1 << P.index[x] for x in group.elements)
        self._subs = tuple(s for s, m in enumerate(P.masks) if m | umask == umask)
        glob = tuple(j for s in self._subs for j in P.chars_of[s])
        self._glob = glob
        self.pairs = tuple(P.pairs[j] for j in glob)
        self.orders = tuple(P.orders[j] for j in glob)
        if len(glob) == len(P.pairs):
            self._local: Mapping[int, int] = range(len(glob))
        else:
            self._local = {j: a for a, j in enumerate(glob)}

        # the orbits, by a search over the action of the group's generators;
        # glob is increasing, so a pair in no orbit yet is its orbit's least
        loc = self._local
        gen_rows = [P.act[P.index[x]] for x in group.generators]
        orbit_rep: List[int] = [-1] * len(glob)
        self.orbit_size: Dict[int, int] = {}
        for a, j in enumerate(glob):
            if orbit_rep[a] < 0:
                orbit, seen = [j], {j}
                for y in orbit:
                    for row in gen_rows:
                        z = row[y]
                        if z not in seen:
                            seen.add(z)
                            orbit.append(z)
                for z in orbit:
                    orbit_rep[loc[z]] = a
                self.orbit_size[a] = len(orbit)
        self.orbit_rep = tuple(orbit_rep)
        self._down_sets: Dict[int, MonomialContext] = {}
        # _poset_data's flags, per class function given by its class values
        self._flags: Dict[tuple, Tuple[List[bool], ...]] = {}

    def down_set(self, sub: Subgroup) -> "MonomialContext":
        """The context of a subgroup of the poset's group, as a down-set of
        the same poset; owned by this context."""
        ctx = self._down_sets.get(sub.mask)
        if ctx is None:
            ctx = self._down_sets[sub.mask] = MonomialContext(sub.as_group(), self.poset)
        return ctx

    @cached_property
    def index(self) -> Dict[tuple, int]:
        return {p.key(): i for i, p in enumerate(self.pairs)}

    @cached_property
    def above(self) -> Tuple[Tuple[int, ...], ...]:
        """For every pair, the pairs over a strictly larger subgroup that
        restrict to it, in increasing order."""
        P, loc = self.poset, self._local
        out: List[List[int]] = [[] for _ in self._glob]
        for a, j in enumerate(self._glob):
            s = P.psub[j]
            for k, i in P.restrict[j].items():
                if k != s:
                    out[loc[i]].append(a)
        return tuple(tuple(x) for x in out)

    @cached_property
    def below(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """For every pair q, the (p, mu(p, q)) with p <= q and mu nonzero."""
        P, loc = self.poset, self._local
        if isinstance(loc, range):
            return P.below
        return tuple(
            tuple((loc[i], w) for i, w in P.below[j]) for j in self._glob
        )

    @cached_property
    def chain_weight(self) -> Dict[Tuple[int, int], int]:
        """mu(p, q), the signed count of strict chains from p up to q, for
        every p <= q where it is nonzero."""
        return {(i, j): w for j, low in enumerate(self.below) for i, w in low}

    @cached_property
    def orbit_chain_weight(self) -> Dict[Tuple[int, int], int]:
        """The signed count of G-orbits of chains, by the orbit
        representatives of their bottom and top, where it is nonzero.  By
        Burnside it is (1/|G|) sum over g of the Moebius function of the
        pairs fixed by g, one g per class weighted by the class size.  For
        fixed q = (H, phi), the fixed pairs under q are the restrictions of
        phi to the g-invariant subgroups of H."""
        P, glob, loc, rep = self.poset, self._glob, self._local, self.orbit_rep
        weight: Dict[Tuple[int, ...], int] = defaultdict(int)
        for cls in self.group.conjugacy_classes():
            row = P.act[P.index[cls.rep]]
            weight[tuple(a for a, j in enumerate(glob) if row[j] == j)] += cls.size
        raw: Dict[Tuple[int, int], int] = defaultdict(int)
        for fixed, size in weight.items():
            if len(fixed) == len(glob):
                below = self.below
            else:
                mob = _mobius(sorted({P.psub[glob[a]] for a in fixed}), P.masks)
                below = {
                    a: [(loc[P.restrict[glob[a]][k]], w) for k, w in mob[P.psub[glob[a]]]]
                    for a in fixed
                }
            for a in fixed:
                for i, w in below[a]:
                    raw[(rep[i], rep[a])] += size * w
        out = {}
        for key, total in raw.items():
            q, r = divmod(total, self.group.order)
            if r:
                raise ConsistencyError(
                    f"Burnside sum {total} over the chains from the orbit of"
                    f" {self.pairs[key[0]]!r} to that of {self.pairs[key[1]]!r}"
                    f" is not divisible by the order of {self.group.name}"
                )
            if q:
                out[key] = q
        return out

    @cached_property
    def cyclic(self) -> Tuple[bool, ...]:
        """Whether each pair's subgroup is cyclic, computed on first use."""
        cyc = self.poset.cyclic
        return tuple(cyc[self.poset.psub[j]] for j in self._glob)

    def _multiplicity(self, j: int, terms: Sequence[list], level: int, den: int) -> int:
        """<chi|_H, phi> for the poset's pair j, as the group-ring sum
        sum_c chi(c) sum_k N[c][k] z_o^-k over the classes H meets, of chi's
        terms (numerators over den) at the level, over den |H|."""
        P = self.poset
        sums = _group_ring_sum(level, ((1, terms[c], n) for c, n in P.counts(j, level)))
        den *= len(P.members[P.psub[j]])
        out, r = divmod(sums[0], den)
        if r or any(sums[1:]):
            raise ConsistencyError(
                f"non-integral character multiplicity {_make(level, sums, den)}"
                f" at {P.pairs[j]!r} of {self.group.name}"
            )
        return out

    def multiplicities(self, row: Sequence[Cyclotomic]) -> Tuple[int, ...]:
        """<chi|_H, phi> for every pair (H, phi), with chi the class function
        given by its row over the classes of the poset's group (for a
        down-set, the larger group's).  The poset keeps them per subgroup and
        per values on the classes it meets, so each is computed once for all
        the contexts on the poset."""
        keys = [(v.level, v.nums, v.den) for v in row]
        P = self.poset
        memo, meets = P.mult_memo, P.meets
        out: List[int] = []
        terms = None  # chi's terms, built at the first subgroup not memoized
        for s in self._subs:
            key = (s, tuple([keys[c] for c in meets[s]]))
            mults = memo.get(key)
            if mults is None:
                if terms is None:
                    level = math.lcm(P.exponent, *(v.level for v in row))
                    terms, den = _value_terms(row, level)
                mults = memo[key] = tuple(
                    self._multiplicity(j, terms, level, den) for j in P.chars_of[s]
                )
            out.extend(mults)
        return tuple(out)

    def orbit_of(self, pair: MonomialPair) -> Tuple[MonomialPair, int, int]:
        """Canonical representative, orbit size, and stabilizer size."""
        i = self.index[pair.key()]
        rep = self.orbit_rep[i]
        size = self.orbit_size[rep]
        return self.pairs[rep], size, self.group.order // size


def monomial_context(group: PermGroup, bound: Optional[int] = None) -> MonomialContext:
    """The group's context, built once and kept on the group.  The bound is
    checked without a warning: ``runner.verify_table`` warns once where it
    resolves the bound for a whole verification."""
    return _context(group, check_oracle_bound(bound))


def _context(group: PermGroup, limit: int) -> MonomialContext:
    if group.order > limit:
        raise BoundExceeded(
            f"oracle route needs order <= {limit}, {group.name} has order {group.order}"
        )
    if group.oracle_context is None:
        group.oracle_context = MonomialContext(group)
    return group.oracle_context


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
            records.append(
                {
                    "subgroup": [list(g) for g in p.subgroup.elements],
                    "phi": [[p.character.order, k] for k in p.character.exponents],
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


def _oracle_input(
    table: CharacterTable, chi: ChiLike, bound: Optional[int], sub: Optional[Subgroup]
) -> Tuple[MonomialContext, Tuple[Cyclotomic, ...]]:
    """The context that serves chi, or its restriction to the subgroup
    ``sub`` of the table's group (a down-set of the group's context), and
    chi's class row, which every context on the group's poset reads: a
    group-backed table's classes are its group's, in order."""
    if isinstance(chi, int):
        row = table.irreducibles[_row_index(table, chi)]
    else:
        row = _as_class_function(table, chi)[0].values
    group = table.group
    if group is None:
        raise ValueError("a group-backed table is required for the oracle route")
    ctx = monomial_context(group, bound)
    if sub is not None:
        if _group_key(sub.parent) != _group_key(group):
            raise ValueError(f"the subgroup is not a subgroup of {group.name}")
        ctx = ctx.down_set(sub)
    return ctx, row


def induction_by_chains(
    table: CharacterTable, chi: ChiLike, bound: Optional[int] = None,
    sub: Optional[Subgroup] = None,
) -> PairCombination:
    """Canonical induction coefficients of chi, or of its restriction to the
    subgroup ``sub``, through the sum over all chains, weighted by the bottom
    subgroup order and divided by the group order."""
    ctx, row = _oracle_input(table, chi, bound, sub)
    order, below, rep, pairs = ctx.group.order, ctx.below, ctx.orbit_rep, ctx.pairs
    acc: Dict[int, int] = defaultdict(int)
    for top, m in enumerate(ctx.multiplicities(row)):
        if m:
            for i0, w in below[top]:
                acc[rep[i0]] += w * pairs[i0].subgroup.order * m
    coeffs: Dict[MonomialPair, int] = {}
    for rep, raw in acc.items():
        q, r = divmod(raw, order)
        if r:
            raise ConsistencyError(
                f"chain sum produced a coefficient not divisible by the group"
                f" order {order} at the orbit of {ctx.pairs[rep]!r}"
                f" of {ctx.group.name}"
            )
        if q:
            coeffs[ctx.pairs[rep]] = q
    return PairCombination(_group_key(ctx.group), coeffs)


def induction_by_orbit_chains(
    table: CharacterTable, chi: ChiLike, bound: Optional[int] = None
) -> PairCombination:
    """The same coefficients through the sum over orbit representatives of
    chains (no division by the group order; equality with the all-chains
    formula is non-obvious, and the tests exercise it on the whole corpus)."""
    ctx, row = _oracle_input(table, chi, bound, None)
    mult = ctx.multiplicities(row)
    acc: Dict[int, int] = defaultdict(int)
    for (rep0, rep_top), w in ctx.orbit_chain_weight.items():
        if w and mult[rep_top]:
            acc[rep0] += w * mult[rep_top]
    coeffs = {ctx.pairs[rep]: c for rep, c in acc.items() if c}
    return PairCombination(_group_key(ctx.group), coeffs)


def induced_character(table: CharacterTable, comb: PairCombination) -> ClassFunction:
    """Map a combination of pair orbits to the corresponding integer
    combination of induced characters: at a class c,
    Ind phi = |G| / (|H| |c|) sum_k N[c][k] z_o^k."""
    if table.group is None:
        raise ValueError("a group-backed table is required for induction")
    group = table.group
    if comb.group_key != _group_key(group):
        raise ValueError("combination lives over a different group")
    # the members are numbered like the group's elements: the group key is
    # the sorted elements
    cls = group.class_of
    e = table.exponent
    sums: List[list] = [[] for _ in table.classes]
    for pair, coeff in comb.coefficients.items():
        w, phi = coeff * (group.order // pair.subgroup.order), pair.character
        for c, terms in _count_terms(cls, pair.subgroup.members, phi.exponents, e // phi.order):
            sums[c].append((w, terms, ((0, 1),)))
    return ClassFunction(table, [
        _make(e, _group_ring_sum(e, s), data.size) for s, data in zip(sums, table.classes)
    ])


def restrict_combination(
    comb: PairCombination, sub: Subgroup, bound: Optional[int] = None
) -> PairCombination:
    """Push a combination down to a subgroup through the double-coset sum:
    [H, phi] restricts to the sum over the double cosets U g H of the pairs
    (U n gHg^-1, phi^g restricted), each counted by its orbit under U."""
    group = sub.parent
    if comb.group_key != _group_key(group):
        raise ValueError("combination lives over a different group")
    # the group's own context: its pairs are the poset's, in order
    ctx = monomial_context(group, bound)
    down, P = ctx.down_set(sub), ctx.poset
    mul = P.mul
    acc: Dict[MonomialPair, int] = defaultdict(int)
    for pair, c in comb.coefficients.items():
        j = ctx.index[pair.key()]
        h_elems = P.members[P.psub[j]]
        seen = bytearray(len(mul))
        for g in range(len(mul)):
            if seen[g]:
                continue
            # mark the whole double coset U g H
            for u in sub.members:
                row = mul[mul[u][g]]
                for h in h_elems:
                    seen[row[h]] = 1
            jg = P.act[g][j]
            i = P.restrict[jg][P.sid[sub.mask & P.masks[P.psub[jg]]]]
            acc[down.pairs[down.orbit_rep[down._local[i]]]] += c
    return PairCombination(_group_key(down.group), acc)


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
    coefficient support, and maximal among the pairs with each flag.  The
    context keeps the flags of each class function, which
    ``check_equivalences`` reads at every n."""
    ctx, row = _oracle_input(table, chi, bound, None)
    key = tuple((v.level, v.nums, v.den) for v in row)
    flags = ctx._flags.get(key)
    if flags is None:
        comb = induction_by_chains(table, chi, bound)
        support_reps = {ctx.index[p.key()] for p in comb.coefficients}
        in_m = [m > 0 for m in ctx.multiplicities(row)]
        in_mt = [ctx.orbit_rep[i] in support_reps for i in range(len(ctx.pairs))]

        def maximal(flags: Sequence[bool]) -> List[bool]:
            return [
                ok and not any(flags[j] for j in ctx.above[i])
                for i, ok in enumerate(flags)
            ]

        flags = ctx._flags[key] = (in_m, in_mt, maximal(in_m), maximal(in_mt))
    return (ctx, *flags)


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
    _check_positive(n)
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
