import math
import random
from fractions import Fraction
from operator import sub

import pytest

from feitlab import adams, brauer, chartab, groups, numth
from feitlab.adams import (
    adams_operation,
    alternating_adams_character,
    eigenvalue_multiplicities,
    eigenvalue_order_witness,
    feit_indicator,
    invariant,
    verify_invariant,
)
from feitlab.chartab import (
    compute_table,
    conductor,
    integral_inner_product,
    load_table,
    save_table,
)
from feitlab.cyclo import zeta
from feitlab.errors import ConsistencyError, UsageError
from adams_references import scan_witness
from bundled_corpus import CORPUS


def table(spec):
    return compute_table(groups.from_spec(spec))


def linear_indices(t):
    return [i for i in range(t.num_classes) if t.degree(i) == 1]


def char_order(t, i):
    """Order of a linear character = lcm of the orders of its values."""
    orders = []
    for v in t.irreducibles[i]:
        root = v.as_root_of_unity()
        assert root is not None
        orders.append(root.order)
    return math.lcm(*orders)


def test_adams_identity_and_exponent():
    t = table("sym:3")
    chi = t.irreducible(2)
    assert adams_operation(t, chi, 1) == chi
    top = adams_operation(t, chi, t.exponent)
    assert all(v == chi.values[0] for v in top.values)
    triv = t.trivial_character()
    for k in (2, 3, 5, 7):
        assert adams_operation(t, triv, k) == triv


def test_adams_ring_homomorphism():
    for spec in ("sym:3", "quaternion:8", "dihedral:12"):
        t = table(spec)
        rows = [t.irreducible(i) for i in range(t.num_classes)]
        for m in (2, 3):
            for a in rows[:3]:
                for b in rows[:3]:
                    lhs = adams_operation(t, a * b, m)
                    rhs = adams_operation(t, a, m) * adams_operation(t, b, m)
                    assert lhs == rhs


def test_adams_multiplicativity():
    for spec in ("sym:4", "cyclic:12"):
        t = table(spec)
        for i in range(t.num_classes):
            chi = t.irreducible(i)
            for a in (2, 3, 4):
                for b in (2, 5):
                    assert adams_operation(t, adams_operation(t, chi, b), a) == \
                        adams_operation(t, chi, a * b)


def test_invariant_trivial_character():
    for spec in ("sym:3", "alt:4", "cyclic:12"):
        t = table(spec)
        triv = t.trivial_index
        for n in numth.divisors(t.exponent):
            rep = invariant(t, triv, n)
            assert rep.value == (1 if n == 1 else 0)


def test_invariant_rejects_bad_n():
    t = table("sym:3")
    with pytest.raises(ValueError):
        invariant(t, 0, 4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        invariant(t, 0, 0)


@pytest.mark.parametrize("chi", [-1, 3])
def test_library_calls_refuse_a_chi_outside_the_rows(chi):
    t = table("sym:3")
    calls = [
        lambda: invariant(t, chi, 1),
        lambda: feit_indicator(t, chi),
        lambda: eigenvalue_multiplicities(t, chi, 0),
        lambda: brauer.induction_by_chains(t, chi),
        lambda: brauer.check_equivalences(t, chi, 1),
    ]
    for call in calls:
        with pytest.raises(UsageError, match=r"^chi must be in 0\.\.2$"):
            call()


def test_witness_and_equivalences_refuse_a_non_positive_n():
    t = table("sym:3")
    for call in (
        lambda: eigenvalue_order_witness(t, 0, 0),
        lambda: brauer.check_equivalences(t, 0, 0),
        lambda: eigenvalue_order_witness(t, 0, -2),
    ):
        with pytest.raises(UsageError, match=r"^n = -?\d+ must be positive$"):
            call()


@pytest.mark.parametrize("n", [0, -1])
def test_oracle_coefficient_sums_refuse_a_non_positive_n(n):
    # the identity check used to pass at n = 0, and the coefficient route
    # raised a bare ValueError
    t = table("sym:3")
    for call in (
        lambda: brauer.invariant_via_coefficients(t, 0, n),
        lambda: brauer.adams_identity_check(t, 0, n),
    ):
        with pytest.raises(UsageError, match=rf"^n = {n} must be positive$"):
            call()


@pytest.mark.parametrize("c", [5, -9, -1, 3])
def test_eigenvalue_multiplicities_refuse_a_class_outside_the_table(c):
    # -1 used to read the last class silently
    t = table("sym:3")
    with pytest.raises(UsageError, match=r"^class c must be in 0\.\.2$"):
        eigenvalue_multiplicities(t, 0, c)


def test_alternating_adams_character_refuses_a_non_divisor():
    t = table("sym:3")
    with pytest.raises(UsageError, match="n = 4 must be positive and divide the exponent 6"):
        alternating_adams_character(t, 0, 4)


def test_invariant_linear_characters():
    for spec in ("cyclic:12", "dihedral:8", "quaternion:8", "sl2:3"):
        t = table(spec)
        for i in linear_indices(t):
            o = char_order(t, i)
            for n in numth.divisors(t.exponent):
                rep = invariant(t, i, n)
                assert rep.value == (1 if o % n == 0 else 0)


def test_invariant_regular_character():
    for spec in ("sym:3", "quaternion:8", "alt:4"):
        g = groups.from_spec(spec)
        t = compute_table(g)
        reg = t.regular_character()
        for n in numth.divisors(t.exponent):
            census = sum(
                1 for x in g.elements if groups.perm_order(x) % n == 0
            )
            assert invariant(t, reg, n).value == census


def test_invariant_degree_at_one():
    for spec in ("sym:4", "sl2:3", "dihedral:12"):
        t = table(spec)
        for i in range(t.num_classes):
            assert invariant(t, i, 1).value == t.degree(i)


def test_invariant_cyclic_prime_virtual_character():
    # faithful character of a prime-order cyclic group at n = p: the signed
    # Adams sum is trivial-minus-chi and the invariant is 1
    for p in (2, 3, 5, 7):
        t = table(f"cyclic:{p}")
        for i in range(t.num_classes):
            if char_order(t, i) != p:
                continue
            chi = t.irreducible(i)
            virt = alternating_adams_character(t, chi, p)
            assert virt == t.trivial_character() - chi
            assert invariant(t, i, p).value == 1


def test_invariant_report_consistency():
    t = table("sym:4")
    for i in range(t.num_classes):
        for n in numth.divisors(t.exponent):
            rep = invariant(t, i, n)
            signed = sum(
                (-1 if len(rho) % 2 else 1) * v for rho, v in rep.summands.items()
            )
            assert signed == rep.value
            assert (rep.witness is not None) == (rep.value > 0)
            blob = rep.to_json()
            assert blob["S"] == rep.value and blob["n"] == n


def test_eigenvalue_multiplicities():
    t = table("sym:3")
    chi2 = next(i for i in range(3) if t.degree(i) == 2)
    ident = eigenvalue_multiplicities(t, chi2, 0)
    assert ident == (2,)
    three = next(c for c in range(3) if t.classes[c].rep_order == 3)
    assert eigenvalue_multiplicities(t, chi2, three) == (0, 1, 1)
    # linear characters concentrate in a single exponent
    for i in linear_indices(t):
        for c in range(t.num_classes):
            mults = eigenvalue_multiplicities(t, i, c)
            assert sum(mults) == 1


def test_eigenvalue_witness():
    t = table("sym:3")
    triv = t.trivial_index
    assert eigenvalue_order_witness(t, triv, 1) == (0, 0)
    assert eigenvalue_order_witness(t, triv, 2) is None
    c4 = table("cyclic:4")
    faithful = next(i for i in range(4) if char_order(c4, i) == 4)
    witness = eigenvalue_order_witness(c4, faithful, 4)
    assert witness is not None
    c, j = witness
    t_ord = c4.classes[c].rep_order
    assert t_ord // math.gcd(t_ord, j) == 4


def test_feit_indicator_linear():
    for spec in ("cyclic:12", "dihedral:8", "sl2:3"):
        t = table(spec)
        for i in linear_indices(t):
            rep = feit_indicator(t, i)
            assert rep.value == 1
            blob = rep.to_json()
            assert blob["F"] == 1 and blob["conductor"] == rep.conductor


def test_feit_indicator_rational_irreducible():
    t = table("sym:4")
    for i in range(t.num_classes):
        rep = feit_indicator(t, i)
        assert rep.conductor == 1
        assert rep.value == t.degree(i)


def test_feit_indicator_rejects_reducible():
    t = table("sym:3")
    with pytest.raises(ValueError):
        feit_indicator(t, t.regular_character())


def test_feit_indicator_rejects_non_characters_of_norm_one():
    # both have <chi, chi> = 1 but are not characters, let alone rows
    t = table("cyclic:3")
    chi = next(i for i in range(3) if char_order(t, i) == 3)
    for bad in (-1 * t.irreducible(chi), zeta(3, 1) * t.irreducible(chi)):
        with pytest.raises(ValueError, match="not irreducible"):
            feit_indicator(t, bad)
    assert feit_indicator(t, t.irreducible(chi)).chi_index == chi


def test_verify_invariant_exhaustive_small():
    rng = random.Random(11)
    for spec in ("sym:3", "quaternion:8", "alt:4", "cyclic:12"):
        t = table(spec)
        rows = [t.irreducible(i) for i in range(t.num_classes)]
        combos = list(range(t.num_classes))
        for n in numth.divisors(t.exponent):
            for i in combos:
                assert verify_invariant(t, i, n).passed
            # random non-negative integer combinations stay in the theorem
            coeffs = [rng.randrange(0, 3) for _ in rows]
            if not any(coeffs):
                coeffs[0] = 1
            mixed = t.class_function((0,) * t.num_classes)
            for c, row in zip(coeffs, rows):
                mixed = mixed + c * row
            assert verify_invariant(t, mixed, n).passed


def reference_summand(t, vectors, m):
    """<psi^m chi, 1> by the per-(vector, m) trace formula, from chi's
    multiplicity vectors: each eigenvalue zeta_t^j at a class of order t
    becomes zeta_t^(j m), which traces from the exponent's level as a root
    of unity of order t / gcd(t, j m)."""
    e = t.exponent
    total = sum(
        cls.size * mult * numth.trace_root_of_unity(len(vec) // math.gcd(len(vec), j * m), e)
        for cls, vec in zip(t.classes, vectors)
        for j, mult in enumerate(vec)
        if mult
    )
    q, r = divmod(total, t.order * numth.totient(e))
    assert r == 0, (t.name, m)
    return q


# a handful of the groups of order 25..720 that the feit_scan benchmark
# draws from: products, an extraspecial group and exponents up to 60
FEIT_SPECS = ("dihedral:60", "product:sl2:3,cyclic:4", "product:alt:5,cyclic:3",
              "extraspecial:27", "sym:6")


def test_integer_summands_match_cyclotomic_adams_over_corpus():
    # every summand of the pairing W_m . T equals the per-(vector, m) trace
    # formula and the trivial multiplicity of the cyclotomic Adams
    # operation, for a computed table and for its loaded copy (whose power
    # map and vectors are derived), on the rows, the regular character and a
    # virtual character; the eigenvalue multiplicities kept from the modular
    # splitting equal the transform of the loaded values
    for spec in CORPUS + FEIT_SPECS:
        computed = table(spec)
        copy = load_table(save_table(computed))
        assert copy.eigen == computed.eigen, spec
        for t in (computed, copy):
            triv = t.trivial_character()
            e = t.exponent
            virt = 2 * t.irreducible(t.num_classes - 1) - triv
            chis = list(range(t.num_classes)) + [t.regular_character(), virt]
            for chi in chis:
                vectors = adams._eigen_vectors(t, *adams._as_class_function(t, chi))
                for n in numth.divisors(e):
                    rep = invariant(t, chi, n)
                    for rho, got in rep.summands.items():
                        m = numth.subset_modulus(n, e, rho)
                        want = integral_inner_product(adams_operation(t, chi, m), triv)
                        ref = reference_summand(t, vectors, m)
                        assert got == want == ref, (spec, chi, n, sorted(rho))


def test_invariant_of_virtual_character():
    # the integer route is linear, so a virtual character with negative
    # eigenvalue multiplicities still gets its invariant and witness
    t = table("cyclic:5")
    chi = next(i for i in range(5) if char_order(t, i) == 5)
    triv = t.trivial_character()
    virt = 2 * t.irreducible(chi) - triv
    rep = invariant(t, virt, 5)
    assert rep.value == 2 * invariant(t, chi, 5).value - invariant(t, t.trivial_index, 5).value
    assert rep.value == 2
    assert rep.witness == eigenvalue_order_witness(t, chi, 5)
    assert invariant(t, triv - t.irreducible(chi), 5).value == -1


def test_witness_of_a_virtual_character_reads_its_positive_multiplicities():
    # chi_1 - chi_2 on sym:4 has negative eigenvalue multiplicities; its
    # witness is read from its combined vectors' positive entries alone, as
    # the scan of every entry reads it, at divisors and non-divisors of the
    # exponent alike
    t = table("sym:4")
    virt = t.irreducible(1) - t.irreducible(2)
    vectors = [tuple(map(sub, a, b)) for a, b in zip(t.eigen[1], t.eigen[2])]
    assert any(m < 0 for vec in vectors for m in vec)
    found = []
    for n in (*range(1, t.exponent + 2), 2 * t.exponent):
        want = scan_witness(t, vectors, n)
        assert eigenvalue_order_witness(t, virt, n) == want, n
        found.append(want)
    assert any(found) and not all(found)


def test_eigenvalue_multiplicities_rejects_non_characters():
    t = table("cyclic:3")
    chi = next(i for i in range(3) if char_order(t, i) == 3)
    with pytest.raises(ConsistencyError):
        eigenvalue_multiplicities(t, t.trivial_character() - t.irreducible(chi), 1)
    half = t.class_function([Fraction(1, 2)] * 3)
    with pytest.raises(ConsistencyError):
        eigenvalue_multiplicities(t, half, 1)


def test_non_characters_are_rejected_with_the_table_name():
    t = table("cyclic:3")
    chi = next(i for i in range(3) if char_order(t, i) == 3)
    with pytest.raises(ConsistencyError, match="cyclic:3"):
        eigenvalue_multiplicities(t, t.trivial_character() - t.irreducible(chi), 1)
    half = t.class_function([Fraction(1, 2)] * 3)
    with pytest.raises(ConsistencyError, match="cyclic:3"):
        eigenvalue_multiplicities(t, half, 1)
    with pytest.raises(ConsistencyError, match="cyclic:3"):
        invariant(t, half, 3)


def test_invariant_refuses_a_non_integral_trivial_multiplicity():
    # a trace vector off by one at the identity leaves the pairing of the
    # 6-th Adams operation (n = 1 on sym:3, W_6 = (|G|, 0, 0)) short of a
    # multiple of |G| phi(e)
    t = table("sym:3")
    traces = [list(row) for row in t.traces]
    traces[0][0] += 1
    t.traces = tuple(map(tuple, traces))
    with pytest.raises(ConsistencyError) as err:
        invariant(t, 0, 1)
    assert str(err.value) == \
        "trivial multiplicity of the 6-th Adams operation on sym:3 is not integral"


def test_a_class_function_is_decomposed_once(monkeypatch):
    # a class function's coordinates on the rows are kept on it, so the
    # invariant at every n and the multiplicities at every class take one
    # inner product per row between them (on the trivial group the regular
    # character is the one row, and is not decomposed at all)
    calls = []
    pair = adams.integral_inner_product

    def counted(a, b):
        calls.append((a, b))
        return pair(a, b)

    monkeypatch.setattr(adams, "integral_inner_product", counted)
    for spec in CORPUS:
        if spec == "cyclic:1":
            continue
        t = table(spec)
        reg = t.regular_character()
        calls.clear()
        for n in numth.divisors(t.exponent):
            invariant(t, reg, n)
        for c in range(t.num_classes):
            eigenvalue_multiplicities(t, reg, c)
        assert len(calls) == t.num_classes, spec
        assert reg.coords == tuple((t.degree(i), i) for i in range(t.num_classes)), spec
