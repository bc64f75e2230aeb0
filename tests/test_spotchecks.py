"""Targeted oracle spot checks above the default bound.

The everyday oracle corpus stops at order 24; these runs push the
brute-force machinery to the hard cap on one order-60 group to make sure
nothing silently depends on smallness.
"""

import warnings

import pytest

from feitlab import adams, brauer, numth
from feitlab.chartab import compute_table
from feitlab.groups import alternating
from oracle_references import chain_sum, walk_restriction


@pytest.fixture(scope="module")
def alt5_table():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return compute_table(alternating(5))


@pytest.fixture(scope="module")
def alt5_combs(alt5_table):
    t = alt5_table
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [
            brauer.induction_by_chains(t, i, bound=60)
            for i in range(t.num_classes)
        ]


def test_alt5_subgroup_lattice(alt5_table):
    g = alt5_table.group
    subs = g.all_subgroups()
    assert len(subs) == 59
    by_order = {}
    for s in subs:
        by_order[s.order] = by_order.get(s.order, 0) + 1
    assert by_order == {1: 1, 2: 15, 3: 10, 4: 5, 5: 6, 6: 10, 10: 6, 12: 5, 60: 1}


def test_alt5_monomial_poset_size(alt5_table):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ctx = brauer.monomial_context(alt5_table.group, bound=60)
    expect = sum(
        len(h.linear_characters()) for h in alt5_table.group.all_subgroups()
    )
    assert len(ctx.pairs) == expect == 159


def test_alt5_oracle_identities(alt5_table, alt5_combs):
    t = alt5_table
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, comb in enumerate(alt5_combs):
            assert comb == brauer.induction_by_orbit_chains(t, i, bound=60)
            assert brauer.induced_character(t, comb) == t.irreducible(i)
            for n in numth.divisors(t.exponent):
                slow = brauer.invariant_via_coefficients(t, i, n, comb=comb)
                assert slow == adams.invariant(t, i, n).value


def test_alt5_restriction_naturality(alt5_table, alt5_combs):
    t = alt5_table
    g = t.group
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, comb in enumerate(alt5_combs):
            for u in g.all_subgroups():
                down = brauer.restrict_combination(comb, u, bound=60)
                direct = brauer.induction_by_chains(t, i, bound=60, sub=u)
                assert down == direct, (i, u.order)


def test_alt5_table_data_matches_one_row_at_a_time(alt5_table, alt5_combs):
    # A's columns, on the group and on every subgroup's down-set, against
    # each row's own chain sum, and R against the double cosets walked
    # again for each pair
    t = alt5_table
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, comb in enumerate(alt5_combs):
            assert comb == chain_sum(t, i, bound=60), i
            for u in t.group.all_subgroups():
                assert brauer.induction_by_chains(t, i, bound=60, sub=u) == \
                    chain_sum(t, i, u, bound=60), (i, u.order)
                assert brauer.restrict_combination(comb, u, bound=60) == \
                    walk_restriction(comb, u, bound=60), (i, u.order)


def test_alt5_poset_propositions(alt5_table):
    t = alt5_table
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(t.num_classes):
            chk = brauer.check_max_sets(t, i, bound=60)
            assert chk.passed, i
            for n in numth.divisors(t.exponent):
                assert brauer.check_equivalences(t, i, n, bound=60).passed, (i, n)
