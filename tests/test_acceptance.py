"""Acceptance suite: one test per criterion, printing one line each.

All equalities asserted here are exact; there are no tolerances anywhere.
Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import math
import random
import time

import pytest

from feitlab import adams, cli
from feitlab.brauer import (
    check_equivalences,
    check_max_sets,
    induced_character,
    induction_by_chains,
    induction_by_orbit_chains,
    invariant_via_coefficients,
    restrict_combination,
)
from feitlab.chartab import (
    _validate,
    compute_table,
    conductor,
    inner_product,
    load_table,
    save_table,
)
from feitlab.cyclo import Cyclotomic, RootOfUnity, zeta
from feitlab.groups import MonomialPair, from_spec, perm_order
from feitlab.numth import divisors, mobius, totient, trace_root_of_unity
from adams_references import scan_witness
from bundled_corpus import ACCEPTANCE, CORPUS, FEIT_POOL
from numth_identities import (
    DivisorFunction,
    alternating_trace_closed_form,
    alternating_trace_direct,
    alternating_upper_sum,
    split_primes,
)

C_SMALL = CORPUS
C_BIG = ACCEPTANCE


def _report(k, label, start):
    print(f"ACCEPTANCE {k} ({label}): PASS in {time.monotonic() - start:.1f}s")


@pytest.fixture(scope="module")
def small_tables():
    return {spec: compute_table(from_spec(spec), name=spec) for spec in C_SMALL}


@pytest.fixture(scope="module")
def big_tables(small_tables):
    out = dict(small_tables)
    for spec in C_BIG:
        if spec not in out:
            out[spec] = compute_table(from_spec(spec), name=spec)
    return out


@pytest.fixture(scope="module")
def small_combs(small_tables):
    return {
        (spec, i): induction_by_chains(t, i)
        for spec, t in small_tables.items()
        for i in range(t.num_classes)
    }


def test_criterion_1_oracle_corpus(small_tables, small_combs):
    start = time.monotonic()
    for spec, t in small_tables.items():
        g = t.group
        whole = g.whole_subgroup()
        subgroups = g.all_subgroups()
        for i in range(t.num_classes):
            comb = small_combs[(spec, i)]
            # the two explicit chain formulas agree
            assert comb == induction_by_orbit_chains(t, i), (spec, i)
            # inducing the coefficients back recovers the character exactly
            assert induced_character(t, comb) == t.irreducible(i), (spec, i)
            # normalization: whole-group coefficients are plain inner products
            chi = t.irreducible(i)
            for phi in whole.linear_characters():
                lin = t.class_function(
                    [phi.value(rep).to_cyclotomic() for rep in t.class_reps]
                )
                assert comb.coefficient(MonomialPair(whole, phi)) == \
                    inner_product(chi, lin), (spec, i, phi.order)
            # restriction naturality for every subgroup
            for u in subgroups:
                down = restrict_combination(comb, u)
                direct = induction_by_chains(t, i, sub=u)
                assert down == direct, (spec, i, u.order)
    _report(1, "oracle corpus identities", start)


def test_criterion_2_route_equivalence(small_tables, small_combs):
    start = time.monotonic()
    for spec, t in small_tables.items():
        for i in range(t.num_classes):
            comb = small_combs[(spec, i)]
            for n in divisors(t.exponent):
                slow = invariant_via_coefficients(t, i, n, comb=comb)
                fast = adams.invariant(t, i, n).value
                assert slow == fast, (spec, i, n, slow, fast)
    _report(2, "coefficient route equals Adams route", start)


def test_criterion_3_nonnegativity_and_witness(big_tables):
    start = time.monotonic()
    for spec, t in big_tables.items():
        for i in range(t.num_classes):
            for n in divisors(t.exponent):
                chk = adams.verify_invariant(t, i, n)
                assert chk.nonnegative, (spec, i, n, chk.value)
                assert chk.witness_equivalent, (spec, i, n, chk.value, chk.witness)
    _report(3, "non-negativity and eigenvalue-order witness", start)


def test_witness_reads_each_vectors_eigenvalue_orders(big_tables):
    # the witness, read from each distinct vector's eigenvalue orders, is
    # the scan of every entry of every class's vector, for every row and
    # every n up to e + 1 and 2e (the exponent e's divisors and some
    # non-divisors), alone and as the witness of a positive S
    assert set(CORPUS) <= set(big_tables)
    for spec, t in big_tables.items():
        e = t.exponent
        for i in range(t.num_classes):
            for n in (*range(1, e + 2), 2 * e):
                want = scan_witness(t, t.eigen[i], n)
                assert adams.eigenvalue_order_witness(t, i, n) == want, (spec, i, n)
                if e % n == 0:
                    rep = adams.invariant(t, i, n)
                    assert rep.witness == (want if rep.value > 0 else None), (spec, i, n)


def test_criterion_4_special_characters(big_tables):
    start = time.monotonic()
    for spec, t in big_tables.items():
        ds = divisors(t.exponent)
        # (a) trivial character: 1 exactly at n = 1
        triv = t.trivial_index
        for n in ds:
            assert adams.invariant(t, triv, n).value == (1 if n == 1 else 0), (spec, n)
        # (b) linear characters: 1 exactly when n divides the order
        for i in range(t.num_classes):
            if t.degree(i) != 1:
                continue
            o = math.lcm(*(v.as_root_of_unity().order for v in t.irreducibles[i]))
            for n in ds:
                assert adams.invariant(t, i, n).value == (1 if o % n == 0 else 0), \
                    (spec, i, n)
        # (c) regular character counts elements whose order n divides
        reg = t.regular_character()
        for n in ds:
            census = sum(1 for x in t.group.elements if perm_order(x) % n == 0)
            assert adams.invariant(t, reg, n).value == census, (spec, n)
        # (d) at n = 1 the invariant is the degree
        for i in range(t.num_classes):
            assert adams.invariant(t, i, 1).value == t.degree(i), (spec, i)
    _report(4, "closed-form special values", start)


def _root_by_products(v):
    """``Cyclotomic.as_root_of_unity`` by cyclotomic products, as it was
    computed before the match against the reduction table: |v|^2 = 1, then
    v = +-zeta_e^k for the first k < e that matches."""
    if v * v.conjugate() != 1:
        return None
    e = v.level
    for k in range(e):
        cand = zeta(e, k)
        if v == cand:
            return RootOfUnity(e, k)
        if v == -cand:
            return RootOfUnity(2, 1) * RootOfUnity(e, k)
    return None


def test_root_of_unity_match_agrees_with_products_on_big_tables(big_tables):
    # every value of the big tables, and the same values negated and
    # halved (roots, sums of roots, integers, and non-integral values)
    seen = {}
    for t in big_tables.values():
        for row in t.irreducibles:
            for v in row:
                for w in (v, -v, v / 2):
                    seen.setdefault((w.level, w.nums, w.den), w)
    assert sum(_root_by_products(v) is not None for v in seen.values()) > 100
    for v in seen.values():
        assert v.as_root_of_unity() == _root_by_products(v), v


def test_criterion_5_prime_cyclic_virtual_character(big_tables):
    start = time.monotonic()
    for p in (2, 3, 5, 7):
        t = big_tables[f"cyclic:{p}"]
        for i in range(t.num_classes):
            orders = [v.as_root_of_unity().order for v in t.irreducibles[i]]
            if max(orders) != p:
                continue  # trivial character
            chi = t.irreducible(i)
            virt = adams.alternating_adams_character(t, i, p)
            assert virt == t.trivial_character() - chi, (p, i)
            assert adams.invariant(t, i, p).value == 1, (p, i)
    _report(5, "prime-cyclic virtual character", start)


def test_criterion_6_conductor_indicator_positive(big_tables, capsys):
    start = time.monotonic()
    for spec, t in big_tables.items():
        for i in range(t.num_classes):
            rep = adams.feit_indicator(t, i)
            assert rep.value > 0, (spec, i, rep.conductor)
    # the CLI agrees and exits 0
    for spec in ("sym:4", "alt:5", "sym:5", "cyclic:12", "extraspecial:27"):
        assert cli.main(["feit", spec, "--all"]) == 0, spec
    capsys.readouterr()
    _report(6, "conductor indicator positive on the corpus", start)


def test_criterion_7_lemma_suite():
    start = time.monotonic()

    # divisor-lattice identity on 1000 random integer-valued functions
    rng = random.Random(20260808)
    moduli = [7560, 9240] + [rng.randrange(1, 10001) for _ in range(998)]
    for n_mod in moduli:
        f = DivisorFunction(
            n_mod, {d: rng.randrange(-99, 100) for d in divisors(n_mod)}
        )
        for n in divisors(n_mod):
            assert alternating_upper_sum(f, n) == f.upper_sum(n), (n_mod, n)

    # trace formula against the literal Galois sum, k | n <= 360
    for n in range(1, 361):
        for k in divisors(n):
            counts = {}
            for j in range(n):
                if math.gcd(j, n) == 1:
                    e = j % k
                    counts[e] = counts.get(e, 0) + 1
            direct = Cyclotomic.from_terms(k, counts.items()).as_rational()
            assert direct is not None, (k, n)
            assert direct == trace_root_of_unity(k, n), (k, n)
            assert direct == mobius(k) * totient(n) // totient(k), (k, n)

    # the closed form of the signed double sum against direct summation,
    # including the zero-iff dichotomy
    for big_n in range(1, 61):
        for n in divisors(big_n):
            for t in divisors(big_n):
                for o in divisors(math.gcd(t, big_n)):
                    closed = alternating_trace_closed_form(big_n, n, t, o)
                    direct = alternating_trace_direct(big_n, n, t, zeta(o))
                    assert closed == direct, (big_n, n, t, o)
                    assert closed >= 0, (big_n, n, t, o)
                    rho0, _ = split_primes(n, o)
                    assert (closed == 0) == bool(rho0), (big_n, n, t, o)
    _report(7, "number-theoretic lemma suite", start)


def test_criterion_8_poset_propositions(small_tables):
    start = time.monotonic()
    strict_instances = []
    for spec, t in small_tables.items():
        for i in range(t.num_classes):
            chk = check_max_sets(t, i)
            assert chk.support_contained, (spec, i)
            assert chk.max_equal, (spec, i)
            if chk.strictly_smaller:
                strict_instances.append((t.order, spec, i))
            for n in divisors(t.exponent):
                eq = check_equivalences(t, i, n)
                assert eq.passed, (spec, i, n, eq.flags)
    assert strict_instances, "no strict support inclusion found in the corpus"
    smallest = min(strict_instances)
    print(
        f"  strict support inclusion: group {smallest[1]},"
        f" chi {smallest[2]} (order {smallest[0]});"
        f" {len(strict_instances)} instances in the corpus"
    )
    _report(8, "maximal-pair and equivalence propositions", start)


def test_criterion_9_table_integrity(big_tables):
    start = time.monotonic()
    for spec, t in big_tables.items():
        _validate(t)  # the Gram pass: row orthogonality
        blob = save_table(t)
        again = load_table(blob)
        assert save_table(again) == blob, spec
    _report(9, "table integrity and byte-stable serialization", start)


def test_criterion_10_feit_element_order_consequence():
    # F = S(G, chi, c(chi)) > 0 gives an eigenvalue of order c(chi) at some
    # element, whose order is then a multiple of c(chi).  c(chi) is the
    # Galois search on the values and the orders are the group's classes',
    # so neither reads the multiplicity vectors that F comes from.
    start = time.monotonic()
    rows = positive = 0
    for spec in dict.fromkeys(CORPUS + FEIT_POOL):
        group = from_spec(spec)
        t = compute_table(group, name=spec)
        orders = {cls.element_order for cls in group.conjugacy_classes()}
        for i in range(t.num_classes):
            n = conductor(t.irreducible(i))
            if adams.invariant(t, i, n).value > 0:
                positive += 1
                assert any(o % n == 0 for o in orders), (spec, i, n)
        rows += t.num_classes
    assert positive == rows  # F > 0 on every row, so no row goes unchecked
    _report(10, "Feit's element-order consequence on the corpus and the feit pool", start)


def _cycle_lengths(perm):
    """The lengths of the cycles of a permutation, fixed points included."""
    seen, out = set(), []
    for x in range(len(perm)):
        if x not in seen:
            y, n = perm[x], 1
            while y != x:
                seen.add(y)
                y, n = perm[y], n + 1
            out.append(n)
    return out


def test_criterion_11_permutation_character_witness(big_tables):
    # For the spec's own action on points, pi(g) = fix(g), and S(G, pi, n)
    # > 0 iff some g has a cycle whose length n divides.  The cycles are
    # read from the class representatives, so the witness reads neither the
    # table's values nor its multiplicity vectors.
    start = time.monotonic()
    pairs = positive = 0
    for spec in dict.fromkeys(tuple(big_tables) + FEIT_POOL):
        t = big_tables.get(spec) or compute_table(from_spec(spec), name=spec)
        cycles = [_cycle_lengths(rep) for rep in t.class_reps]
        pi = t.class_function([c.count(1) for c in cycles])
        for n in divisors(t.exponent):
            value = adams.invariant(t, pi, n).value
            assert value >= 0, (spec, n, value)
            witness = any(length % n == 0 for c in cycles for length in c)
            assert (value > 0) == witness, (spec, n, value)
            pairs += 1
            positive += value > 0
    assert 0 < positive < pairs  # both sides of the equivalence are reached
    _report(11, f"permutation character witness, {positive} of {pairs} (spec, n) positive",
            start)
