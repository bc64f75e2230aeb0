"""Brute-force route through the monomial poset.

Everything here is exact and explicit: all (subgroup, linear character)
pairs, the conjugation action on them, and their orbits.  The signed chain
counts of the canonical induction formula (R. Boltje, "A canonical Brauer
induction formula", Asterisque 181-182, 1990) are P. Hall's Moebius
function of the poset ("The Eulerian functions of a group", 1936),
computed by Hall's recursion over intervals; the signed counts of chain
orbits follow by Burnside's lemma from the Moebius functions of the
fixed-point subposets.  Multiplicities and induced characters are read
from each pair's class counts and the table's values, as integer
group-ring sums, never from the Adams route.  A table's rows are served at
once: their multiplicities on every pair (M, once per table), their
coefficients on a context (A, the chain sums of M's columns) and, for a
subgroup U, each orbit's restriction to U-orbits by double cosets (R), so
that restriction is checked as R A_G == A_U.  Bounded to small groups
(order <= 60).  The poset reads the indexed form of its group from
``groups``: elements numbered 0..|G|-1 with their multiplication and
inverse tables, subgroups as bitmasks, and characters as exponent tuples
over their members; conjugation is an index permutation of the pairs.  A
character enters only as its class row; U's poset is the down-set of the
group's, and it reads the group's rows through the group's classes.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import defaultdict
from functools import cached_property
from typing import (
    Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

from . import numth
from .adams import ChiLike, _as_class_function, _check_positive, adams_operation
from .chartab import (
    CharacterTable, ClassFunction, _group_ring_sum, _integral_sum, _value_terms,
    integral_inner_product,
)
from .cyclo import Cyclotomic, _make
from .errors import BoundExceeded, ConsistencyError, UsageError
from .groups import DEFAULT_SUBGROUP_BOUND, MonomialPair, PermGroup, Subgroup, index_orbits

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

        # cls[x]: the class of element x.  Every context on the poset reads
        # rows over these classes: <chi|_H, phi> does not depend on whose
        # classes sort H's elements.
        self.cls = group.class_of
        self.exponent = group.exponent()
        self._counts: Dict[int, Dict[int, Tuple[Tuple[int, tuple], ...]]] = {}
        # M of the last table served: its rows, and their multiplicities on
        # every pair, read by every context on the poset
        self.mults: Tuple[Optional[tuple], Tuple[Tuple[int, ...], ...]] = (None, ())

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
    chain orbits, the multiplicity of every pair in a class function, and
    the coefficients (A) and the flags of the rows of the last table served.

    Built on the indexed poset of a group itself, or, for a subgroup U of
    a larger group G (a ``Subgroup``, whose members and generators are
    numbered as G's elements), on G's poset: U's poset is the down-set of
    the pairs (H, phi) with H <= U, the Moebius function of an interval
    depends only on the interval, and only U's orbits and orbit weights are
    new."""

    def __init__(self, group: Union[PermGroup, Subgroup],
                 poset: Optional[_IndexedPoset] = None):
        """The context of a group, on a poset of its own, or of a subgroup of
        the group of ``poset``, on that poset."""
        self.group = group
        if isinstance(group, Subgroup):
            self.poset = P = poset
            self.name = f"{group.parent.name}-sub{group.order}"
            self._members, self._mask, gens = group.members, group.mask, group.gens
        else:
            self.poset = P = _IndexedPoset(group)
            self.name = group.name
            # the poset numbers the group's own elements
            self._members = tuple(range(group.order))
            self._mask = (1 << group.order) - 1
            gens = [P.index[x] for x in group.generators]
        umask = self._mask
        subs = (s for s, m in enumerate(P.masks) if m | umask == umask)
        self._glob = glob = tuple(j for s in subs for j in P.chars_of[s])
        self.pairs = tuple(P.pairs[j] for j in glob)
        self.orders = tuple(P.orders[j] for j in glob)
        if len(glob) == len(P.pairs):
            self._local: Mapping[int, int] = range(len(glob))
        else:
            self._local = {j: a for a, j in enumerate(glob)}

        # the orbits under the action of the group's generators; glob is
        # increasing, so each orbit is led by its least pair
        loc = self._local
        gen_rows = [P.act[g] for g in gens]
        orbit_rep: List[int] = [-1] * len(glob)
        self.orbit_size: Dict[int, int] = {}
        for orbit in index_orbits(gen_rows, glob, len(P.pairs)):
            a = loc[orbit[0]]
            for z in orbit:
                orbit_rep[loc[z]] = a
            self.orbit_size[a] = len(orbit)
        self.orbit_rep = tuple(orbit_rep)
        self._down_sets: Dict[int, MonomialContext] = {}
        # the rows of the last table served, their M and A, and their flags
        # by row; on a down-set, the double coset representatives by subgroup
        self._rows, self._mults, self._coeffs, self._flags = None, (), (), {}
        self._cosets: Dict[int, List[int]] = {}

    def down_set(self, sub: Subgroup) -> "MonomialContext":
        """The context of a subgroup, as a down-set of the poset; kept here."""
        ctx = self._down_sets.get(sub.mask)
        if ctx is None:
            ctx = self._down_sets[sub.mask] = MonomialContext(sub, self.poset)
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
    def orbit_chain_weight(self) -> Dict[Tuple[int, int], int]:
        """The signed count of G-orbits of chains, by the orbit
        representatives of their bottom and top, where it is nonzero.  By
        Burnside it is (1/|G|) sum over g of the Moebius function of the
        pairs fixed by g, one g per class weighted by the class size.  For
        fixed q = (H, phi), the fixed pairs under q are the restrictions of
        phi to the g-invariant subgroups of H."""
        P, glob, loc, rep, group = self.poset, self._glob, self._local, self.orbit_rep, self.group
        if isinstance(group, Subgroup):
            # U's classes: the orbits of conjugation by its generators on
            # its members
            mul, inv, n = P.mul, group.parent.inv, len(P.mul)
            conj = [[mul[mul[inv[g]][x]][g] for x in range(n)] for g in group.gens]
            classes = [(orbit[0], len(orbit)) for orbit in index_orbits(conj, group.members, n)]
        else:
            classes = [(P.index[cls.rep], cls.size) for cls in group.conjugacy_classes()]
        weight: Dict[Tuple[int, ...], int] = defaultdict(int)
        for x, size in classes:
            row = P.act[x]
            weight[tuple(a for a, j in enumerate(glob) if row[j] == j)] += size
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
            q, r = divmod(total, group.order)
            if r:
                raise ConsistencyError(
                    f"Burnside sum {total} over the chains from the orbit of"
                    f" {self.pairs[key[0]]!r} to that of {self.pairs[key[1]]!r}"
                    f" is not divisible by the order of {self.name}"
                )
            if q:
                out[key] = q
        return out

    @cached_property
    def cyclic(self) -> Tuple[bool, ...]:
        """Whether each pair's subgroup H is cyclic: some linear character
        of H has order |H|."""
        P = self.poset
        cyc = [max(P.orders[j] for j in chars) == len(mem)
               for chars, mem in zip(P.chars_of, P.members)]
        return tuple(cyc[P.psub[j]] for j in self._glob)

    def _multiplicity(self, j: int, terms: Sequence[list], level: int, den: int) -> int:
        """<chi|_H, phi> for the poset's pair j, as the group-ring sum
        sum_c chi(c) sum_k N[c][k] z_o^-k over the classes H meets, of chi's
        terms (numerators over den) at the level, over den |H|."""
        P = self.poset
        sums = _group_ring_sum(level, ((1, terms[c], n) for c, n in P.counts(j, level)))
        den *= len(P.members[P.psub[j]])
        out = _integral_sum(sums, den)
        if out is None:
            raise ConsistencyError(f"non-integral character multiplicity {_make(level, sums, den)}"
                                   f" at {P.pairs[j]!r} of {self.name}")
        return out

    def multiplicities(self, row: Sequence[Cyclotomic]) -> Tuple[int, ...]:
        """<chi|_H, phi> for every pair (H, phi), with chi the class function
        given by its row over the classes of the poset's group (for a
        down-set, the larger group's)."""
        level = math.lcm(self.poset.exponent, *(v.level for v in row))
        terms, den = _value_terms(row, level)
        return tuple([self._multiplicity(j, terms, level, den) for j in self._glob])

    def _table_multiplicities(self, rows: Tuple[tuple, ...]) -> Tuple[Tuple[int, ...], ...]:
        """M: every row's multiplicity on every pair of the poset; rows that
        agree on the classes a subgroup meets share its characters' ones."""
        P = self.poset
        level = math.lcm(P.exponent, *(v.level for row in rows for v in row))
        ids: Dict[tuple, int] = {}  # (row's den, value's terms) -> a small id
        data = []
        for row in rows:
            terms, den = _value_terms(row, level)
            data.append((terms, den, [ids.setdefault((den, *t), len(ids)) for t in terms]))
        out: List[List[int]] = [[] for _ in rows]
        for chars in P.chars_of:
            met = [c for c, _ in P.counts(chars[0], level)]
            done: Dict[tuple, List[int]] = {}
            for i, (terms, den, vid) in enumerate(data):
                key = tuple([vid[c] for c in met])
                if key not in done:
                    done[key] = [self._multiplicity(j, terms, level, den) for j in chars]
                out[i] += done[key]
        return tuple(map(tuple, out))

    def coefficients(self, mults: Sequence[int]) -> Dict[int, int]:
        """The canonical induction coefficients of the class function with
        these multiplicities, by orbit representative: the sum over all
        chains, of mu(p, q) m(q) |H_p| at the bottom p, divided by the group
        order entry by entry."""
        below, at = self.below, defaultdict(int)
        for top, m in enumerate(mults):
            if m:
                for i, w in below[top]:
                    at[i] += w * m
        P, glob, rep, acc = self.poset, self._glob, self.orbit_rep, defaultdict(int)
        for i, raw in at.items():
            acc[rep[i]] += raw * len(P.members[P.psub[glob[i]]])
        order, out = self.group.order, {}
        for r, raw in acc.items():
            q, rem = divmod(raw, order)
            if rem:
                raise ConsistencyError(f"chain sum produced a coefficient not divisible by the"
                                       f" group order {order} at the orbit of {self.pairs[r]!r}"
                                       f" of {self.name}")
            if q:
                out[r] = q
        return out

    def rows_data(self, rows: Tuple[tuple, ...]) -> Tuple[tuple, Tuple[Dict[int, int], ...]]:
        """M and A for the rows of a table of the poset's group: each row's
        multiplicities on this context's pairs (from the poset's M) and A."""
        if self._rows is not rows:
            P, glob = self.poset, self._glob
            if P.mults[0] is not rows:
                P.mults = (rows, self._table_multiplicities(rows))
            self._mults = tuple(tuple([m[j] for j in glob]) for m in P.mults[1])
            # rows with the same multiplicities here have the same A
            coeffs = {m: self.coefficients(m) for m in set(self._mults)}
            self._coeffs = tuple(coeffs[m] for m in self._mults)
            self._rows, self._flags = rows, {}
        return self._mults, self._coeffs

    def restricted(self, j: int) -> Dict[int, int]:
        """A row of R, on the down-set of a subgroup U: the (U n gHg^-1,
        phi^g restricted) of the double cosets U g H, for the poset's pair
        j = (H, phi), counted by their U-orbit representatives."""
        P, s = self.poset, self.poset.psub[j]
        reps = self._cosets.get(s)
        if reps is None:
            mul, h_elems, seen = P.mul, P.members[s], set()
            reps = self._cosets[s] = []
            for g in range(len(mul)):
                if g not in seen:
                    reps.append(g)
                    seen.update(mul[mul[u][g]][h] for u in self._members for h in h_elems)
        acc: Dict[int, int] = defaultdict(int)
        for g in reps:
            jg = P.act[g][j]
            i = P.restrict[jg][P.sid[self._mask & P.masks[P.psub[jg]]]]
            acc[self.orbit_rep[self._local[i]]] += 1
        return dict(acc)

    def restrict(self, col: Mapping[int, int]) -> Dict[int, int]:
        """R applied to a column, on a down-set: the combination of the
        poset's pairs ``col`` restricted to this context's orbits."""
        acc: Dict[int, int] = defaultdict(int)
        for j, c in col.items():
            for r, k in self.restricted(j).items():
                acc[r] += c * k
        return {r: c for r, c in acc.items() if c}


def monomial_context(group: PermGroup, bound: Optional[int] = None) -> MonomialContext:
    """The group's context, kept while a table it serves holds it.  The bound
    is checked without a warning: ``runner.verify_table`` warns once where it
    resolves the bound for a whole verification."""
    limit = check_oracle_bound(bound)
    if group.order > limit:
        raise BoundExceeded(
            f"oracle route needs order <= {limit}, {group.name} has order {group.order}"
        )
    ctx = group.oracle_context
    if ctx is None:
        ctx = group.oracle_context = MonomialContext(group)
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

    def coefficient(self, pair: MonomialPair) -> int:
        return self.coefficients.get(pair, 0)

    def __eq__(self, other):
        if not isinstance(other, PairCombination):
            return NotImplemented
        return (self.group_key, self.coefficients) == (other.group_key, other.coefficients)

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
        return PairCombination(self.group_key, {p: c * v for p, v in self.coefficients.items()})

    def order_filtered_sum(self, n: int, multiples: bool = True) -> int:
        """Sum of coefficients over orbits whose character order is a
        multiple of n (or a divisor of n, with multiples=False)."""
        return sum(c for p, c in self.coefficients.items()
                   if (p.character.order % n if multiples else n % p.character.order) == 0)

    def to_json(self) -> list:
        return [
            {
                "subgroup": [list(g) for g in p.subgroup.elements],
                "phi": [[p.character.order, k] for k in p.character.exponents],
                "coefficient": self.coefficients[p],
            }
            for p in sorted(self.coefficients, key=lambda p: p.key())
        ]

    def __repr__(self):
        parts = [
            f"{c} * [H{p.subgroup.order}, o{p.character.order}]"
            for p, c in sorted(self.coefficients.items(), key=lambda item: item[0].key())
        ]
        return "PairCombination(" + " + ".join(parts) + ")" if parts else "PairCombination(0)"


def _group_key(group: Union[PermGroup, Subgroup]):
    """A group's degree and elements; a subgroup's are those of the group
    that its elements form."""
    degree = group.parent.degree if isinstance(group, Subgroup) else group.degree
    return (degree, group.elements)


def _oracle_input(
    table: CharacterTable, chi: ChiLike, bound: Optional[int], sub: Optional[Subgroup]
) -> Tuple[MonomialContext, Optional[int], Sequence[int], Dict[int, int]]:
    """The context that serves chi, or its restriction to the subgroup
    ``sub`` (a down-set of the group's context, which the table holds),
    chi's index among the table's rows or None, and chi's multiplicities
    and coefficients there: a row's columns of M and A, or else those of
    chi's class row (a group-backed table's classes are its group's)."""
    func, idx = _as_class_function(table, chi)
    group = table.group
    if group is None:
        raise ValueError("a group-backed table is required for the oracle route")
    ctx = table.oracle_context = monomial_context(group, bound)
    if sub is not None:
        if _group_key(sub.parent) != _group_key(group):
            raise ValueError(f"the subgroup is not a subgroup of {group.name}")
        ctx = ctx.down_set(sub)
    if idx is None:
        mults = ctx.multiplicities(func.values)
        return ctx, idx, mults, ctx.coefficients(mults)
    mults, coeffs = ctx.rows_data(table.irreducibles)
    return ctx, idx, mults[idx], coeffs[idx]


def induction_by_chains(
    table: CharacterTable, chi: ChiLike, bound: Optional[int] = None,
    sub: Optional[Subgroup] = None,
) -> PairCombination:
    """Canonical induction coefficients of chi, or of its restriction to the
    subgroup ``sub``, through the sum over all chains, weighted by the bottom
    subgroup order and divided by the group order."""
    ctx, _, _, coeffs = _oracle_input(table, chi, bound, sub)
    return PairCombination(_group_key(ctx.group), {ctx.pairs[r]: c for r, c in coeffs.items()})


def induction_by_orbit_chains(
    table: CharacterTable, chi: ChiLike, bound: Optional[int] = None
) -> PairCombination:
    """The same coefficients through the sum over orbit representatives of
    chains (no division by the group order; equality with the all-chains
    formula is non-obvious, and the tests exercise it on the whole corpus)."""
    ctx, _, mult, _ = _oracle_input(table, chi, bound, None)
    acc: Dict[int, int] = defaultdict(int)
    for (rep0, top), w in ctx.orbit_chain_weight.items():
        acc[rep0] += w * mult[top]
    return PairCombination(_group_key(ctx.group), {ctx.pairs[rep]: c for rep, c in acc.items()})


def induced_character(table: CharacterTable, comb: PairCombination) -> ClassFunction:
    """Map a combination of pair orbits to the corresponding integer
    combination of induced characters: at a class c,
    Ind phi = |G| / (|H| |c|) sum_k N[c][k] z_o^k, each value at the
    exponent's level."""
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
    down = ctx.down_set(sub)
    col = down.restrict({ctx.index[p.key()]: c for p, c in comb.coefficients.items()})
    return PairCombination(_group_key(down.group), {down.pairs[r]: c for r, c in col.items()})


def restriction_failure(
    table: CharacterTable, bound: Optional[int] = None
) -> Optional[Tuple[int, Subgroup]]:
    """The first row of the table and subgroup U at which the row's
    coefficients restricted to U (R A_G) differ from its coefficients on
    U's down-set (A_U), or None."""
    ctx, rows = _oracle_input(table, 0, bound, None)[0], table.irreducibles
    coeffs = ctx.rows_data(rows)[1]
    for sub in ctx.poset.subgroups:
        # a down-set of its own, dropped with its A_U and R_U once U is done
        down = MonomialContext(sub, ctx.poset)
        for i, (col, expect) in enumerate(zip(coeffs, down.rows_data(rows)[1])):
            if down.restrict(col) != expect:
                return i, sub
    return None


def invariant_via_coefficients(
    table: CharacterTable, chi: ChiLike, n: int, comb: Optional[PairCombination] = None,
    bound: Optional[int] = None,
) -> int:
    """The literal definition of the invariant: the sum of the canonical
    induction coefficients over orbits whose character order n divides.
    Valid for any positive n, not only divisors of the exponent."""
    _check_positive(n)
    if comb is None:
        comb = induction_by_chains(table, chi, bound)
    return comb.order_filtered_sum(n, multiples=True)


class IdentityCheck(NamedTuple):
    """Coefficient sum over pairs killed by n versus the Adams multiplicity."""

    n: int
    coefficient_sum: int
    adams_multiplicity: int

    @property
    def passed(self) -> bool:
        return self.coefficient_sum == self.adams_multiplicity


def adams_identity_check(
    table: CharacterTable, chi: ChiLike, n: int, comb: Optional[PairCombination] = None,
    bound: Optional[int] = None,
) -> IdentityCheck:
    """Check that the coefficients of pairs whose character has order
    dividing n sum to the multiplicity of the trivial character in the n-th
    Adams operation."""
    _check_positive(n)
    if comb is None:
        comb = induction_by_chains(table, chi, bound)
    lhs = comb.order_filtered_sum(n, multiples=False)
    rhs = integral_inner_product(
        adams_operation(table, chi, n), table.trivial_character()
    )
    return IdentityCheck(n, lhs, rhs)


def adams_identity_checks(
    table: CharacterTable, combs: Sequence[PairCombination]
) -> Dict[Tuple[int, int], IdentityCheck]:
    """``adams_identity_check`` of every row i, with combs[i] its
    coefficients, at every divisor n of the exponent, keyed by (i, n).  The
    Adams side is <psi^n chi_i, 1> = sum_k W_n[k] chi_i(k) / |G|, with the
    table's class weights W_n (``CharacterTable.class_weights``), as one
    group-ring sum of the values per (i, n)."""
    level = math.lcm(table.exponent, *(v.level for row in table.irreducibles for v in row))
    weights = [(n, table.class_weights(n)) for n in numth.divisors(table.exponent)]
    out: Dict[Tuple[int, int], IdentityCheck] = {}
    for i, (row, comb) in enumerate(zip(table.irreducibles, combs)):
        terms, den = _value_terms(row, level)
        for n, w in weights:
            sums = _group_ring_sum(level, [(x, terms[k], ((0, 1),)) for k, x in w])
            rhs = _integral_sum(sums, table.order * den)
            if rhs is None:
                raise ConsistencyError(
                    f"<psi^{n} chi_{i}, 1> = {_make(level, sums, table.order * den)!r}"
                    f" on {table.name} is not integral")
            out[i, n] = IdentityCheck(n, comb.order_filtered_sum(n, multiples=False), rhs)
    return out


class MaxSetsCheck(NamedTuple):
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
    """The context, four flags per pair (constituent of chi, in the
    coefficient support, and maximal among the pairs with each flag) and the
    character orders of the flagged pairs, per flag and then for the
    constituents over cyclic subgroups, which ``check_equivalences`` reads
    at every n.  The context keeps them for each row of its table."""
    ctx, idx, mults, coeffs = _oracle_input(table, chi, bound, None)
    flags = ctx._flags.get(idx)
    if flags is None:
        in_m = [m > 0 for m in mults]
        in_mt = [r in coeffs for r in ctx.orbit_rep]

        def maximal(f: Sequence[bool]) -> List[bool]:
            return [ok and not any(f[j] for j in ctx.above[i]) for i, ok in enumerate(f)]

        flags = (in_m, in_mt, maximal(in_m), maximal(in_mt))
        orders = [frozenset(o for o, ok in zip(ctx.orders, f) if ok) for f in flags]
        orders.append(frozenset(o for o, ok, c in zip(ctx.orders, in_m, ctx.cyclic) if ok and c))
        flags = (*flags, orders)
        if idx is not None:
            ctx._flags[idx] = flags
    return ctx, flags


def check_max_sets(
    table: CharacterTable, chi: ChiLike, bound: Optional[int] = None
) -> MaxSetsCheck:
    ctx, (*flags, _) = _poset_data(table, chi, bound)
    m_set, mt_set, max_m, max_mt = (
        frozenset(p for p, ok in zip(ctx.pairs, f) if ok) for f in flags
    )
    return MaxSetsCheck(
        m_set, mt_set, max_m, max_mt, mt_set <= m_set, max_m == max_mt, mt_set < m_set
    )


class EquivalenceCheck(NamedTuple):
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
        return self[1:]  # the fields after n

    @property
    def passed(self) -> bool:
        return len(set(self.flags)) == 1


def check_equivalences(
    table: CharacterTable, chi: ChiLike, n: int, bound: Optional[int] = None
) -> EquivalenceCheck:
    _check_positive(n)
    # the orders of the pairs in M, in the support, maximal in each, and
    # in M over a cyclic subgroup
    orders = _poset_data(table, chi, bound)[1][-1]
    m, mt, max_m, max_mt, cyc = (any(o % n == 0 for o in f) for f in orders)
    return EquivalenceCheck(n, m, max_m, mt, max_mt, cyc, n in orders[0], n in orders[4])
