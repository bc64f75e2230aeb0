import functools
import gc
import warnings
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from feitlab import adams, brauer, chartab, groups, numth
from feitlab.brauer import (
    MonomialContext,
    PairCombination,
    adams_identity_check,
    check_equivalences,
    check_max_sets,
    induced_character,
    induction_by_chains,
    induction_by_orbit_chains,
    invariant_via_coefficients,
    monomial_context,
    monomial_pairs,
    restrict_combination,
)
from feitlab.chartab import compute_table, inner_product
from feitlab.cyclo import Cyclotomic, zeta
from feitlab.errors import BoundExceeded, ConsistencyError
from feitlab.groups import LinearChar, MonomialPair, compose, inverse, perm_order
from bundled_corpus import CORPUS
from group_references import (
    conjugate_pair, conjugate_perm, cyclotomic_inner_product, pair_le,
)
from oracle_references import chain_sum, walk_restriction


def table(spec):
    return compute_table(groups.from_spec(spec))


def test_monomial_poset_sizes():
    assert len(monomial_pairs(groups.cyclic(1))) == 1
    assert len(monomial_pairs(groups.cyclic(2))) == 3
    # total count is the sum of abelianization sizes over all subgroups
    for spec in ("sym:3", "alt:4", "quaternion:8", "dihedral:12"):
        g = groups.from_spec(spec)
        expect = sum(
            len(h.linear_characters()) for h in g.all_subgroups()
        )
        assert len(monomial_pairs(g)) == expect
    assert len(monomial_pairs(groups.symmetric(3))) == 12


def test_monomial_poset_conjugation_is_poset_automorphism():
    g = groups.symmetric(3)
    ctx = monomial_context(g)
    for gi, row in enumerate(ctx.poset.act):
        for i, p in enumerate(ctx.pairs):
            for j in ctx.above[i]:
                assert row[j] in ctx.above[row[i]]


def _chain_weights(ctx):
    """mu(p, q), the signed count of strict chains from p up to q, keyed
    (p, q) where it is nonzero, read from the context's ``below``."""
    return {(i, j): w for j, low in enumerate(ctx.below) for i, w in low}


def test_chain_weights_conjugation_invariant():
    # relabelling every chain by a fixed group element leaves the signed
    # chain-count table unchanged, so coefficients are orbit data
    for spec in ("sym:3", "alt:4"):
        g = groups.from_spec(spec)
        ctx = monomial_context(g)
        weights = _chain_weights(ctx)
        for row in ctx.poset.act:
            moved = {}
            for (a, b), w in weights.items():
                key = (row[a], row[b])
                moved[key] = moved.get(key, 0) + w
            assert {k: v for k, v in moved.items() if v} == \
                {k: v for k, v in weights.items() if v}


def test_cyclic_subgroups_are_read_from_character_orders(monkeypatch):
    # H is cyclic iff some linear character of H has order |H|, against an
    # element of order |H|, on every subgroup of the corpus groups and of
    # sym:5, whose lattice is past the default bound
    lattice = groups.PermGroup.all_subgroups
    monkeypatch.setattr(groups.PermGroup, "all_subgroups",
                        functools.partialmethod(lattice, bound=120))
    for spec in CORPUS + ("sym:5",):
        ctx = MonomialContext(groups.from_spec(spec))
        flags = {}
        for pair, flag in zip(ctx.pairs, ctx.cyclic):
            assert flags.setdefault(pair.subgroup.mask, flag) == flag, spec
        assert len(flags) == len(ctx.poset.subgroups), spec
        for h in ctx.poset.subgroups:
            assert flags[h.mask] == any(perm_order(g) == h.order for g in h.elements), \
                (spec, h.order)


def test_oracle_bound():
    with pytest.raises(BoundExceeded):
        monomial_context(groups.symmetric(4), bound=20)
    with pytest.raises(ValueError):
        brauer.resolve_oracle_bound(100)
    with pytest.warns(UserWarning):
        assert brauer.resolve_oracle_bound(60) == 60


def orbit_of(ctx, pair):
    """The canonical representative of a pair's orbit in the context, the
    orbit's size and the pair's stabilizer's order."""
    rep = ctx.orbit_rep[ctx.index[pair.key()]]
    size = ctx.orbit_size[rep]
    return ctx.pairs[rep], size, ctx.group.order // size


def test_orbit_of():
    g = groups.symmetric(3)
    ctx = monomial_context(g)
    whole = g.whole_subgroup()
    triv_pair = MonomialPair(
        whole, next(c for c in whole.linear_characters() if c.order == 1)
    )
    rep, size, stab = orbit_of(ctx, triv_pair)
    assert rep == triv_pair and size == 1 and stab == 6

    swap = groups.perm_from_cycles([(1, 2)], 3)
    h = g.subgroup([g.identity, swap])
    sign = next(c for c in h.linear_characters() if c.order == 2)
    rep, size, stab = orbit_of(ctx, MonomialPair(h, sign))
    assert size == 3 and stab == 2
    assert size * stab == g.order

    for p in ctx.pairs:
        _, size, stab = orbit_of(ctx, p)
        assert size * stab == g.order


def test_induction_linear_characters():
    # a linear character induces to exactly its own whole-group pair
    for spec in ("sym:3", "cyclic:6", "quaternion:8", "alt:4"):
        t = table(spec)
        g = t.group
        whole = g.whole_subgroup()
        for i in range(t.num_classes):
            if t.degree(i) != 1:
                continue
            comb = induction_by_chains(t, i)
            assert len(comb.coefficients) == 1
            ((pair, coeff),) = comb.coefficients.items()
            assert coeff == 1
            assert pair.subgroup.order == g.order
            expected_values = {
                h: t.irreducibles[i][g.class_index(h)] for h in g.elements
            }
            assert all(
                pair.character.value(h).to_cyclotomic() == expected_values[h]
                for h in g.elements
            )


def test_chain_and_orbit_chain_formulas_agree():
    for spec in ("sym:3", "cyclic:12", "quaternion:8", "alt:4", "dihedral:12"):
        t = table(spec)
        for i in range(t.num_classes):
            assert induction_by_chains(t, i) == induction_by_orbit_chains(t, i)


def test_section_property():
    # inducing back the canonical coefficients recovers the character
    for spec in ("sym:3", "quaternion:8", "alt:4", "cyclic:12", "sym:4"):
        t = table(spec)
        for i in range(t.num_classes):
            comb = induction_by_chains(t, i)
            assert induced_character(t, comb) == t.irreducible(i)


def test_normalization_projection():
    # the coefficient of a whole-group pair is the inner product with that
    # linear character
    for spec in ("sym:3", "sym:4", "dihedral:8", "sl2:3"):
        t = table(spec)
        g = t.group
        whole = g.whole_subgroup()
        for i in range(t.num_classes):
            comb = induction_by_chains(t, i)
            chi = t.irreducible(i)
            for phi in whole.linear_characters():
                pair = MonomialPair(whole, phi)
                lin = t.class_function(
                    [phi.value(rep).to_cyclotomic() for rep in t.class_reps]
                )
                expect = inner_product(chi, lin)
                assert comb.coefficient(pair) == expect


def test_induced_character_examples():
    t = table("sym:3")
    g = t.group
    ctx = monomial_context(g)

    # the trivial pair of the trivial subgroup induces the regular character
    trivial_sub = g.all_subgroups()[0]
    triv_pair = MonomialPair(trivial_sub, trivial_sub.linear_characters()[0])
    comb = PairCombination(brauer._group_key(g), {orbit_of(ctx, triv_pair)[0]: 1})
    assert induced_character(t, comb) == t.regular_character()

    # the trivial character of the rotation subgroup induces 1 + sign
    a3 = next(s for s in g.all_subgroups() if s.order == 3)
    pair = MonomialPair(a3, next(c for c in a3.linear_characters() if c.order == 1))
    comb = PairCombination(brauer._group_key(g), {orbit_of(ctx, pair)[0]: 1})
    induced = induced_character(t, comb)
    linear_rows = [t.irreducible(i) for i in range(3) if t.degree(i) == 1]
    assert induced == linear_rows[0] + linear_rows[1]


def test_induced_character_needs_no_context():
    # induction reads only the pair and the group's classes: a combination
    # built by hand over a group above the oracle's cap induces, and no
    # monomial poset is built for it
    t = table("dihedral:64")
    g = t.group
    assert g.order > brauer.HARD_ORACLE_CAP
    key = brauer._group_key(g)
    for h, expect in (
        (g.subgroup([g.identity]), t.regular_character()),
        (g.whole_subgroup(), t.trivial_character()),
    ):
        pair = MonomialPair(h, h.linear_characters()[0])
        assert induced_character(t, PairCombination(key, {pair: 1})) == expect
    assert g.oracle_context is None


def test_restriction_to_whole_group_and_trivial():
    t = table("sym:3")
    g = t.group
    chi2 = next(i for i in range(3) if t.degree(i) == 2)
    comb = induction_by_chains(t, chi2)

    down_same = restrict_combination(comb, g.whole_subgroup())
    # restricting to the whole group is the identity (keys live over the
    # promoted copy, so compare canonical serializations)
    assert down_same.to_json() == comb.to_json()

    trivial = g.all_subgroups()[0]
    down = restrict_combination(comb, trivial)
    ((pair, coeff),) = down.coefficients.items()
    assert pair.subgroup.order == 1
    # every pair orbit contributes [G : H] copies of the trivial pair
    expect = sum(
        c * (g.order // p.subgroup.order) for p, c in comb.coefficients.items()
    )
    assert coeff == expect


def test_restriction_trivial_subgroup_coefficient():
    # restricting [H, phi] to the trivial group gives [G : H] trivial pairs
    t = table("alt:4")
    g = t.group
    for i in range(t.num_classes):
        comb = induction_by_chains(t, i)
        down = restrict_combination(comb, g.all_subgroups()[0])
        if not comb.coefficients:
            assert not down.coefficients
            continue
        ((_, coeff),) = down.coefficients.items()
        expect = sum(
            c * (g.order // p.subgroup.order)
            for p, c in comb.coefficients.items()
        )
        assert coeff == expect


def test_restriction_naturality():
    # restriction of the canonical coefficients equals the canonical
    # coefficients of the restricted character, for every subgroup
    for spec in ("sym:3", "quaternion:8", "alt:4", "cyclic:12"):
        t = table(spec)
        g = t.group
        for i in range(t.num_classes):
            comb = induction_by_chains(t, i)
            for u in g.all_subgroups():
                down = restrict_combination(comb, u)
                direct = induction_by_chains(t, i, sub=u)
                assert down == direct


def test_invariant_route_equivalence():
    for spec in ("sym:3", "quaternion:8", "alt:4", "cyclic:12", "dihedral:12"):
        t = table(spec)
        for i in range(t.num_classes):
            comb = induction_by_chains(t, i)
            for n in numth.divisors(t.exponent):
                slow = invariant_via_coefficients(t, i, n, comb=comb)
                fast = adams.invariant(t, i, n).value
                assert slow == fast


def test_route_equivalence_virtual_characters():
    # both routes are additive, so they agree on arbitrary integer
    # combinations of irreducibles (not only genuine characters)
    import random

    rng = random.Random(31)
    for spec in ("sym:3", "alt:4", "quaternion:8"):
        t = table(spec)
        rows = [t.irreducible(i) for i in range(t.num_classes)]
        for _ in range(4):
            coeffs = [rng.randrange(-2, 3) for _ in rows]
            virt = t.class_function((0,) * t.num_classes)
            for c, row in zip(coeffs, rows):
                virt = virt + c * row
            comb = induction_by_chains(t, virt)
            assert comb == induction_by_orbit_chains(t, virt)
            assert induced_character(t, comb) == virt
            # the signed coefficient sum is linear in the character
            for n in numth.divisors(t.exponent):
                slow = comb.order_filtered_sum(n, multiples=True)
                fast = sum(
                    c * adams.invariant(t, i, n).value
                    for i, c in enumerate(coeffs)
                )
                assert slow == fast, (spec, coeffs, n)


def test_invariant_via_coefficients_any_n():
    # the coefficient sum parses for n not dividing the exponent: the filter
    # is empty there, so the sum vanishes
    t = table("sym:3")
    for i in range(3):
        assert invariant_via_coefficients(t, i, 5) == 0
        assert invariant_via_coefficients(t, i, 4) == 0


def test_adams_coefficient_identity():
    for spec in ("sym:3", "alt:4", "quaternion:8", "cyclic:12"):
        t = table(spec)
        for i in range(t.num_classes):
            comb = induction_by_chains(t, i)
            for n in numth.divisors(t.exponent):
                chk = adams_identity_check(t, i, n, comb=comb)
                assert chk.passed
            # n = exponent: every pair order divides, so the sum is the degree
            top = adams_identity_check(t, i, t.exponent, comb=comb)
            assert top.coefficient_sum == t.degree(i)
            # n = 1: only trivial-character pairs survive
            one = adams_identity_check(t, i, 1, comb=comb)
            assert one.adams_multiplicity == inner_product(
                t.irreducible(i), t.trivial_character()
            )


def test_table_identity_pass_matches_the_per_call_check_over_corpus():
    for spec in CORPUS:
        t = table(spec)
        combs = [induction_by_chains(t, i) for i in range(t.num_classes)]
        got = brauer.adams_identity_checks(t, combs)
        points = [(i, n) for i in range(t.num_classes) for n in numth.divisors(t.exponent)]
        assert list(got) == points, spec
        for i, n in points:
            assert got[i, n] == adams_identity_check(t, i, n, comb=combs[i]), (spec, i, n)


def test_check_max_sets():
    t = table("sym:3")
    # for a linear character both maxima are the whole-group pair
    for i in range(3):
        chk = check_max_sets(t, i)
        assert chk.passed
        if t.degree(i) == 1:
            assert len(chk.max_constituent) == 1
            ((pair),) = chk.max_constituent
            assert pair.subgroup.order == 6
            # the support misses the restrictions below the top pair
            assert chk.strictly_smaller

    # smallest strict-inclusion instance: the trivial character of C2 has
    # the trivial pair as constituent but not in the coefficient support
    c2 = table("cyclic:2")
    chk = check_max_sets(c2, c2.trivial_index)
    assert chk.passed and chk.strictly_smaller
    assert len(chk.support_pairs) == 1 and len(chk.constituent_pairs) == 2


def test_check_equivalences():
    t = table("sym:3")
    triv = t.trivial_index
    all_true = check_equivalences(t, triv, 1)
    assert all_true.passed and all(all_true.flags)
    all_false = check_equivalences(t, triv, 2)
    assert all_false.passed and not any(all_false.flags)

    for spec in ("sym:3", "quaternion:8", "alt:4"):
        tt = table(spec)
        for i in range(tt.num_classes):
            for n in numth.divisors(tt.exponent):
                assert check_equivalences(tt, i, n).passed


def test_equivalence_flags_are_the_fields_after_n_in_order():
    chk = brauer.EquivalenceCheck(6, True, False, True, False, False, True, False)
    assert chk.flags == (True, False, True, False, False, True, False)
    assert chk.flags == tuple(getattr(chk, f) for f in chk._fields[1:])
    assert not chk.passed
    assert brauer.EquivalenceCheck(2, *[False] * 7).passed


def test_pair_combination_arithmetic_and_json():
    t = table("sym:3")
    a = induction_by_chains(t, 0)
    b = induction_by_chains(t, 1)
    s = a + b
    assert s - b == a
    assert a.scale(0) == PairCombination(a.group_key, {})
    blob = a.to_json()
    assert all(
        set(rec) == {"subgroup", "phi", "coefficient"} for rec in blob
    )


def _element_values(group, row):
    """A class row as an element-to-value map, for the element-level
    references."""
    return {x: row[group.class_index(x)] for x in group.elements}


def _reference_multiplicity(values, pair):
    """<chi|_H, phi> element by element: (1/|H|) sum_h chi(h) phi(h)^-1."""
    o = pair.character.order
    acc = Cyclotomic.rational(0)
    for h, k in zip(pair.subgroup.elements, pair.character.exponents):
        acc = acc + values[h] * zeta(o, -k)
    return (acc / pair.subgroup.order).as_integer()


def _reference_induced(t, pair):
    """Ind_H^G phi element by element: (1/|H|) sum_x phi(x^-1 z x) at every
    class representative z."""
    o = pair.character.order
    exps = dict(zip(pair.subgroup.elements, pair.character.exponents))
    out = []
    for z in t.class_reps:
        acc = Cyclotomic.rational(0)
        for x in t.group.elements:
            y = conjugate_perm(inverse(x), z)
            if y in exps:
                acc = acc + zeta(o, exps[y])
        out.append(acc / pair.subgroup.order)
    return t.class_function(out)


def test_class_counts_match_element_loops_over_corpus():
    # multiplicities and induced characters read from the per-pair class
    # counts agree with the element-by-element definitions on every bundled
    # corpus group
    for spec in CORPUS:
        t = compute_table(groups.from_spec(spec), name=spec)
        g = t.group
        ctx = monomial_context(g)
        rows = [t.irreducible(i) for i in range(t.num_classes)]
        virtual = t.class_function((0,) * t.num_classes)
        for i, row in enumerate(rows):
            virtual = virtual + (i + 1) * (-1) ** i * row
        for chi in rows + [virtual, t.regular_character()]:
            values = _element_values(g, chi.values)
            expect = tuple(_reference_multiplicity(values, p) for p in ctx.pairs)
            assert None not in expect
            assert ctx.multiplicities(chi.values) == expect, spec
        key = brauer._group_key(g)
        for p in ctx.pairs:
            comb = PairCombination(key, {p: 1})
            assert induced_character(t, comb) == _reference_induced(t, p), spec


def test_multiplicities_over_denominators_and_levels_off_the_exponent():
    # a row with a denominator and a fifth root of unity on the classes a
    # subgroup U does not meet: U's multiplicities read only the classes it
    # meets, so they stay integral and agree with the element loop, while
    # the sum runs over numerators at a level off the exponent
    for spec in CORPUS:
        t = compute_table(groups.from_spec(spec), name=spec)
        g = t.group
        ctx = monomial_context(g)
        for u in g.all_subgroups():
            met = {g.class_index(x) for x in u.elements}
            if len(met) == t.num_classes:
                continue
            for i in range(t.num_classes):
                row = [
                    v if c in met else v + Fraction(1, 2) + zeta(5, c) / 3
                    for c, v in enumerate(t.irreducibles[i])
                ]
                down = ctx.down_set(u)
                values = _element_values(g, row)
                expect = tuple(_reference_multiplicity(values, p) for p in down.pairs)
                assert None not in expect
                assert down.multiplicities(row) == expect, (spec, u.order, i)


def test_induced_combinations_match_element_loops():
    # a combination of every pair with signed coefficients: the per-class
    # integer sums over all pairs, reduced once, against the sum of the
    # element-level references
    for spec in ("sym:3", "dihedral:8", "quaternion:8", "alt:4", "cyclic:12"):
        t = compute_table(groups.from_spec(spec), name=spec)
        ctx = monomial_context(t.group)
        coeffs = {p: k % 5 - 2 for k, p in enumerate(ctx.pairs)}
        expect = t.class_function((0,) * t.num_classes)
        for p, c in coeffs.items():
            expect = expect + c * _reference_induced(t, p)
        comb = PairCombination(brauer._group_key(t.group), coeffs)
        assert induced_character(t, comb) == expect, spec


def test_oracle_sums_make_no_cyclotomic_products(monkeypatch):
    # multiplicities, inner products and induced characters are integer
    # group-ring sums: no Cyclotomic product or sum may creep back in
    calls = Counter()

    def counting(name):
        raw = vars(Cyclotomic)[name]

        def wrapped(self, other):
            calls[name] += 1
            return raw(self, other)
        return wrapped

    for spec in ("sym:4", "sl2:3"):
        t = compute_table(groups.from_spec(spec), name=spec)
        rows = [t.irreducible(i) for i in range(t.num_classes)]
        virtual = rows[0] - 2 * rows[-1]
        halves = t.class_function([v / 2 for v in rows[-1].values])
        funcs = rows + [virtual, halves, t.regular_character()]
        ctx = monomial_context(t.group)
        with monkeypatch.context() as patch:
            for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
                patch.setattr(Cyclotomic, name, counting(name))
            mults = [ctx.multiplicities(f.values) for f in rows + [virtual]]
            products = [[inner_product(a, b) for b in funcs] for a in funcs]
            combs = [induction_by_chains(t, i) for i in range(t.num_classes)]
            induced = [induced_character(t, comb) for comb in combs]
            assert not calls, (spec, calls)
            zeta(3) * zeta(3) + 1  # the counters see a cyclotomic product
            assert calls == Counter({"__mul__": 1, "__add__": 1})
            calls.clear()
        assert induced == rows
        for f, got in zip(rows + [virtual], mults):
            values = _element_values(t.group, f.values)
            assert got == tuple(_reference_multiplicity(values, p) for p in ctx.pairs)
        for i, a in enumerate(funcs):
            for j, b in enumerate(funcs):
                assert products[i][j] == cyclotomic_inner_product(a, b), spec


def test_oracle_errors_name_group_and_pair():
    t = compute_table(groups.from_spec("sym:3"), name="sym:3")
    half = t.class_function([Fraction(1, 2)] * t.num_classes)
    with pytest.raises(ConsistencyError) as err:
        induction_by_chains(t, half)
    msg = str(err.value)
    assert "non-integral" in msg and "sym:3" in msg
    assert "|H|=1" in msg and "o(phi)=1" in msg


def test_multiplicity_memo_keys_on_level_and_denominator():
    # values with the same numerators at another level, or over another
    # denominator, are other class functions and must miss the memo
    t = table("cyclic:3")
    ctx = monomial_context(t.group)
    i = next(i for i in range(3) if not t.irreducible(i)[1].is_rational())
    chi = [v.at_level(3) for v in t.irreducibles[i]]
    values = _element_values(t.group, chi)
    expect = tuple(_reference_multiplicity(values, p) for p in ctx.pairs)
    assert ctx.multiplicities(chi) == expect
    for other in (
        [Cyclotomic(6, v.nums) for v in chi],
        [v / 2 for v in chi],
    ):
        with pytest.raises(ConsistencyError):
            ctx.multiplicities(other)
    assert ctx.multiplicities(chi) == expect


def test_context_errors_name_the_group_passed_in():
    # the oracle's errors name the group they were asked about, also when a
    # group with the same degree and elements has been seen before: sym:3's
    # order-3 subgroup, as a group of its own, has cyclic:3's elements
    g = groups.from_spec("sym:3")
    for u in g.all_subgroups():
        ut = compute_table(u.as_group())
        induction_by_chains(ut, ut.trivial_character())
    c3 = compute_table(groups.from_spec("cyclic:3"), name="cyclic:3")
    half = c3.class_function([Fraction(1, 2)] * c3.num_classes)
    with pytest.raises(ConsistencyError) as err:
        induction_by_chains(c3, half)
    assert "of cyclic:3" in str(err.value) and "sym:3" not in str(err.value)


class _LiteralContext:
    """The element-level monomial poset, kept as a test-only reference:
    pairs compared pairwise with ``pair_le``, the action by
    ``conjugate_pair`` and ``key()``, and the chain weights and
    chain-orbit weights by enumerating every strict chain (zeros dropped)."""

    def __init__(self, group):
        pairs = sorted(
            (MonomialPair(h, phi) for h in group.all_subgroups()
             for phi in h.linear_characters()),
            key=lambda p: p.key(),
        )
        self.pairs = pairs
        self.index = {p.key(): i for i, p in enumerate(pairs)}
        self.above = tuple(
            tuple(j for j, q in enumerate(pairs)
                  if q.subgroup.order > p.subgroup.order and pair_le(p, q))
            for p in pairs
        )
        self.act = tuple(
            tuple(self.index[conjugate_pair(g, p).key()] for p in pairs)
            for g in group.elements
        )
        self.orbit_rep = tuple(
            min(row[i] for row in self.act) for i in range(len(pairs))
        )
        self.orbit_size = dict(Counter(self.orbit_rep))

        chain_weight, orbit_weight = Counter(), Counter()
        seen_orbits = set()
        chain = []

        def dfs(top, sign):
            chain.append(top)
            chain_weight[(chain[0], top)] += sign
            canon = min(tuple(row[i] for i in chain) for row in self.act)
            if canon not in seen_orbits:
                seen_orbits.add(canon)
                key = (self.orbit_rep[canon[0]], self.orbit_rep[canon[-1]])
                orbit_weight[key] += sign
            for nxt in self.above[top]:
                dfs(nxt, -sign)
            chain.pop()

        for start in range(len(pairs)):
            dfs(start, 1)
        self.chain_weight = {k: w for k, w in chain_weight.items() if w}
        self.orbit_chain_weight = {k: w for k, w in orbit_weight.items() if w}


def test_chain_weights_hall_and_burnside_match_chain_enumeration():
    # three ways to the same numbers on every bundled corpus group: strict
    # chains enumerated one by one, Hall's recursion for the Moebius
    # function, and Burnside over the fixed-point subposets for the orbits
    for spec in CORPUS:
        g = groups.from_spec(spec)
        ctx = MonomialContext(g)
        ref = _LiteralContext(g)
        assert [p.key() for p in ctx.pairs] == [p.key() for p in ref.pairs], spec
        assert ctx.above == ref.above, spec
        assert ctx.poset.act == ref.act, spec
        assert ctx.orbit_rep == ref.orbit_rep, spec
        assert ctx.orbit_size == ref.orbit_size, spec
        assert _chain_weights(ctx) == ref.chain_weight, spec
        assert ctx.orbit_chain_weight == ref.orbit_chain_weight, spec


def _action_rows(ctx):
    """act[x][a]: the pair x p_a x^-1 in the context's own numbering, for
    the elements x of the context's group in increasing order, read off the
    rows of the poset's group."""
    P, glob = ctx.poset, ctx._glob
    local = {j: a for a, j in enumerate(glob)}
    return tuple(
        tuple(local[P.act[P.index[x]][j]] for j in glob)
        for x in ctx.group.elements
    )


def _reference_restrict(comb, sub, lit):
    """Restriction element by element: mark each double coset U g H with
    ``compose``, build U n gHg^-1 and its character as a Subgroup and a
    LinearChar, and find its orbit by key in ``lit``, the literal poset of
    U."""
    group = sub.parent
    sub_group = sub.as_group()
    acc = Counter()
    for pair, c in comb.coefficients.items():
        h_elems = pair.subgroup.elements
        h_exps = dict(zip(h_elems, pair.character.exponents))
        seen = set()
        for g in group.elements:
            if g in seen:
                continue
            for u in sub.elements:
                ug = compose(u, g)
                for h in h_elems:
                    seen.add(compose(ug, h))
            g_inv = inverse(g)
            k_elems = set(sub.elements) & {conjugate_perm(g, h) for h in h_elems}
            k_sub = sub_group.subgroup(k_elems)
            psi = LinearChar(
                k_sub, pair.character.order,
                [h_exps[conjugate_perm(g_inv, x)] for x in k_sub.elements],
            )
            rep = lit.orbit_rep[lit.index[MonomialPair(k_sub, psi).key()]]
            acc[lit.pairs[rep]] += c
    return PairCombination(brauer._group_key(sub_group), acc)


def test_indexed_restriction_matches_element_loop_over_corpus():
    for spec in CORPUS:
        t = compute_table(groups.from_spec(spec), name=spec)
        combs = [induction_by_chains(t, i) for i in range(t.num_classes)]
        for u in t.group.all_subgroups():
            lit = _LiteralContext(u.as_group())
            for i, comb in enumerate(combs):
                assert restrict_combination(comb, u) == \
                    _reference_restrict(comb, u, lit), (spec, i, u.order)


def test_down_set_context_equals_standalone_context():
    # a down-set reads the larger group's rows through that group's classes,
    # the standalone context the restricted rows through the subgroup's own
    for spec in ("sym:4", "sl2:3", "dihedral:12"):
        t = compute_table(groups.from_spec(spec), name=spec)
        g = t.group
        ctx = monomial_context(g)
        for u in g.all_subgroups():
            down = ctx.down_set(u)
            assert down is ctx.down_set(u) and down.poset is ctx.poset
            alone = MonomialContext(u.as_group())
            assert alone.poset is not ctx.poset
            for row in t.irreducibles:
                restricted = [
                    row[g.class_index(cls.rep)]
                    for cls in alone.group.conjugacy_classes()
                ]
                assert down.multiplicities(row) == \
                    alone.multiplicities(restricted), (spec, u.order)
            assert [p.key() for p in down.pairs] == \
                [p.key() for p in alone.pairs], (spec, u.order)
            assert _chain_weights(down) == _chain_weights(alone), (spec, u.order)
            assert down.orbit_rep == alone.orbit_rep, (spec, u.order)
            assert down.orbit_size == alone.orbit_size, (spec, u.order)
            assert _action_rows(down) == alone.poset.act
            assert down.above == alone.above
            assert down.orbit_chain_weight == alone.orbit_chain_weight


def test_oracle_reaches_order_32_poset():
    # 819 pairs: chain enumeration took seconds here; Hall's recursion does not
    t = table("product:elementary:2,3,cyclic:4")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ctx = monomial_context(t.group, bound=60)
        assert len(ctx.pairs) == 819
        i = next(i for i in range(t.num_classes) if t.irreducible(i)[1] != 1)
        comb = induction_by_chains(t, i, bound=60)
    for n in numth.divisors(t.exponent):
        assert invariant_via_coefficients(t, i, n, comb=comb) == \
            adams.invariant(t, i, n).value, n


def test_table_data_matches_one_row_at_a_time_over_corpus():
    # A's columns against each row's own chain sum, on the group and on
    # every subgroup's down-set, and R against the double cosets walked
    # again for each pair: for the rows' combinations and for one with
    # every pair of the poset, representatives or not
    for spec in CORPUS:
        t = compute_table(groups.from_spec(spec), name=spec)
        combs = [induction_by_chains(t, i) for i in range(t.num_classes)]
        ctx = monomial_context(t.group)
        every = PairCombination(
            brauer._group_key(t.group), {p: k % 5 - 2 for k, p in enumerate(ctx.pairs)})
        for i, comb in enumerate(combs):
            assert comb == chain_sum(t, i), (spec, i)
        for u in t.group.all_subgroups():
            for i, comb in enumerate(combs):
                assert induction_by_chains(t, i, sub=u) == chain_sum(t, i, u), (spec, i, u.order)
                assert restrict_combination(comb, u) == walk_restriction(comb, u), \
                    (spec, i, u.order)
            assert restrict_combination(every, u) == walk_restriction(every, u), (spec, u.order)


def test_restriction_check_names_the_first_failing_row_and_subgroup(monkeypatch):
    t = table("sym:4")
    assert brauer.restriction_failure(t) is None
    # one double coset too many in R for the subgroups of order 2 (the
    # first after the trivial one), in every row's restriction
    restricted = MonomialContext.restricted

    def skewed(self, j):
        out = dict(restricted(self, j))
        if self.group.order == 2:
            out[next(iter(out))] += 1
        return out

    monkeypatch.setattr(MonomialContext, "restricted", skewed)
    i, sub = brauer.restriction_failure(t)
    assert (i, sub.order) == (0, 2)


def test_group_freed_without_the_cycle_collector():
    # the oracle leaves nothing on the group that refers back to it: the
    # table holds the context, the group refers to it weakly, and neither
    # the group nor its subgroups keep the lattice or the linear characters
    gc.disable()
    try:
        t = compute_table(groups.from_spec("sym:4"))
        induction_by_chains(t, 1)
        ref = weakref.ref(t.group)
        del t
        assert ref() is None
    finally:
        gc.enable()
