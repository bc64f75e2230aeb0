import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from feitlab import numth
from feitlab.cyclo import (
    Cyclotomic,
    RootOfUnity,
    cyclotomic_polynomial,
    rational,
    units,
    zeta,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree is the totient
    for e in range(1, 80):
        assert len(cyclotomic_polynomial(e)) == numth.totient(e) + 1


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def test_cyclotomic_polynomials_multiply_to_binomials():
    # x^e - 1 is the product of the d-th cyclotomic polynomials over d | e
    for e in range(1, 241):
        prod = [1]
        for d in numth.divisors(e):
            prod = _poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (e - 1) + [1], e
    # the first cyclotomic polynomial with a coefficient other than 0, +-1
    phi105 = cyclotomic_polynomial(105)
    assert min(phi105) == -2 and [i for i, c in enumerate(phi105) if c == -2] == [7, 41]
    assert all(abs(c) <= 1 for e in range(1, 105) for c in cyclotomic_polynomial(e))


def test_basic_arithmetic():
    z3 = zeta(3)
    assert z3 + z3 * z3 == -1
    assert 3 - z3 == 4 + z3 * z3
    z4 = zeta(4)
    assert z4 * z4 == -1
    a = zeta(5) + 2
    assert a + 0 == a
    assert a * 1 == a
    assert (a - a) == 0
    assert zeta(8) ** 8 == 1
    assert zeta(7) ** 3 == zeta(7, 3)


def test_mixed_level_arithmetic():
    # z6^2 is a primitive cube root
    assert zeta(6) ** 2 == zeta(3)
    assert zeta(6) * zeta(2) == zeta(3, 2)
    total = sum((zeta(5, k) for k in range(1, 5)), rational(0))
    assert total == -1


def test_level_round_trip():
    a = zeta(6) + Fraction(1, 2)
    for m in (2, 3, 5):
        up = a.at_level(6 * m)
        assert up == a
        back = up.at_level(6)
        assert back.level == 6 and back.coeffs == a.coeffs
    with pytest.raises(ValueError):
        zeta(5).at_level(3)


def test_galois():
    assert zeta(5).galois(2) == zeta(5, 2)
    assert rational(Fraction(3, 7)).galois(5) == Fraction(3, 7)
    a = zeta(12) + 3
    k, kp = 5, 7
    assert a.galois(k).galois(kp) == a.galois(k * kp % 12)
    with pytest.raises(ValueError):
        zeta(12).galois(4)


def test_trace():
    assert zeta(12, 3).rational_trace() == 0  # order-4 root at level 12
    assert rational(5).rational_trace() == 5
    q = Fraction(2, 3)
    assert (zeta(12) * 0 + q).rational_trace() == numth.totient(12) * q
    for p in (2, 3, 5, 7):
        assert zeta(p).rational_trace() == -1


def test_trace_formula_exhaustive_small():
    # trace of any root of unity at any level agrees with the closed form
    for n in range(1, 61):
        for k in numth.divisors(n):
            root = zeta(n, n // k)
            expect = Fraction(
                numth.mobius(k) * numth.totient(n), numth.totient(k)
            )
            assert root.rational_trace() == expect


def test_as_root_of_unity():
    assert rational(1).as_root_of_unity() == RootOfUnity(1, 0)
    assert rational(-1).as_root_of_unity() == RootOfUnity(2, 1)
    # 1 + z3 is a primitive 6th root of unity (it is -z3^2)
    got = (zeta(3) + 1).as_root_of_unity()
    assert got is not None and got.order == 6
    assert got.to_cyclotomic() == zeta(3) + 1
    assert (zeta(3) + 2).as_root_of_unity() is None
    assert rational(2).as_root_of_unity() is None
    assert (zeta(5) + zeta(5, 4)).as_root_of_unity() is None


def test_root_of_unity_canonical():
    assert RootOfUnity(6, 2) == RootOfUnity(3, 1)
    assert RootOfUnity(6, 0) == RootOfUnity(1, 0)
    assert RootOfUnity(4, 6) == RootOfUnity(2, 1)
    r = RootOfUnity(12, 5)
    assert r.order == 12
    assert r.power(12) == RootOfUnity(1, 0)
    assert r * r.inverse() == RootOfUnity(1, 0)


def test_root_of_unity_is_an_immutable_value():
    r = RootOfUnity(4, 6)
    assert (r.level, r.exponent) == (2, 1)
    assert r == RootOfUnity(2, 1) and hash(r) == hash(RootOfUnity(2, -1))
    assert len({RootOfUnity(6, 2), RootOfUnity(3, 1), RootOfUnity(9, 3)}) == 1
    assert r != RootOfUnity(2, 0) and r != (2, 1)
    assert repr(RootOfUnity(12, 17)) == "RootOfUnity(level=12, exponent=5)"
    with pytest.raises(AttributeError):
        r.level = 3
    with pytest.raises(AttributeError):
        del r.exponent
    assert r == RootOfUnity(2, 1) == pickle.loads(pickle.dumps(r))
    with pytest.raises(ValueError):
        RootOfUnity(0, 1)


@given(st.integers(min_value=1, max_value=48), st.integers(min_value=0, max_value=96))
def test_root_power_orders(e, k):
    r = RootOfUnity(e, k)
    for m in (2, 3, 5):
        assert r.power(m).order == r.order // math.gcd(r.order, m)


@given(
    st.integers(min_value=1, max_value=36),
    st.integers(min_value=0, max_value=36),
    st.integers(min_value=1, max_value=36),
    st.integers(min_value=0, max_value=36),
)
def test_root_products_match_cyclotomic(e1, k1, e2, k2):
    a, b = RootOfUnity(e1, k1), RootOfUnity(e2, k2)
    assert (a * b).to_cyclotomic() == a.to_cyclotomic() * b.to_cyclotomic()


def test_units_edge_cases():
    assert units(1) == (0,)
    assert units(2) == (1,)
    assert units(12) == (1, 5, 7, 11)


def _random_cyclotomic(draw, level):
    phi = numth.totient(level)
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            min_size=phi,
            max_size=phi,
        )
    )
    return Cyclotomic(level, coeffs)


@st.composite
def cyclotomics(draw):
    level = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
    return _random_cyclotomic(draw, level)


@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(cyclotomics(), cyclotomics())
def test_galois_is_ring_automorphism(a, b):
    lev = math.lcm(a.level, b.level)
    for k in units(lev):
        assert (a + b).at_level(lev).galois(k) == \
            a.at_level(lev).galois(k) + b.at_level(lev).galois(k)
        assert (a * b).at_level(lev).galois(k) == \
            a.at_level(lev).galois(k) * b.at_level(lev).galois(k)


@given(cyclotomics())
def test_trace_is_galois_invariant(a):
    for k in units(a.level):
        assert a.galois(k).rational_trace() == a.rational_trace()


def test_serialization_round_trip():
    values = [
        rational(7),
        rational(Fraction(-3, 4)),
        zeta(12) + Fraction(1, 2),
        zeta(9, 2) - zeta(9, 5) * Fraction(2, 3),
        rational(0),
    ]
    for v in values:
        again = Cyclotomic.from_json(v.to_json())
        assert again == v
    assert rational(7).to_json() == 7
    assert rational(Fraction(-3, 4)).to_json() == "-3/4"
    blob = (zeta(12) + 1).to_json()
    assert blob["level"] == 12 and all(len(t) == 3 for t in blob["terms"])


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        Cyclotomic.from_json(True)
    with pytest.raises(ValueError):
        Cyclotomic.from_json([1, 2])
    with pytest.raises(ValueError):
        Cyclotomic.from_json("1/0")
    with pytest.raises(ValueError):
        Cyclotomic.from_json({"level": 3, "terms": [[1, 1, 0]]})


def test_from_json_reads_signed_denominators_and_repeated_exponents():
    assert Cyclotomic.from_json("3/-6") == rational(Fraction(-1, 2))
    assert Cyclotomic.from_json("-4") == rational(-4)
    got = Cyclotomic.from_json({"level": 3, "terms": [[1, 1, -2], [2, 1, 3], [4, 1, 6]]})
    assert got == zeta(3) * Fraction(-1, 3) + zeta(3, 2) / 3
    assert got.den == 3
    # z_4^2 = -1 is reduced on the level-4 basis, in lowest terms
    got = Cyclotomic.from_json({"level": 4, "terms": [[2, 2, 4], [0, 1, -1]]})
    assert got == rational(Fraction(-3, 2)) and (got.level, got.den) == (4, 2)


# -- a Fraction reference: sums of monomials reduced by long division by the
# cyclotomic polynomial.  It shares only cyclotomic_polynomial with the
# integer representation, and that is checked on its own above


def _ref_reduce(level, terms):
    """sum c * z^exp on the level's power basis, as Fractions."""
    mod = cyclotomic_polynomial(level)
    phi = len(mod) - 1
    low = [(j, m) for j, m in enumerate(mod[:phi]) if m]
    poly = [Fraction(0)] * max(phi, 1 + max((exp for exp, _ in terms), default=0))
    for exp, c in terms:
        poly[exp] += c
    for k in range(len(poly) - 1, phi - 1, -1):
        c = poly[k]
        if c:
            for j, m in low:
                poly[k - phi + j] -= c * m
    return tuple(poly[:phi])


def _ref_mul(level, x, y):
    return _ref_reduce(level, [
        (i + j, a * b) for i, a in enumerate(x) if a for j, b in enumerate(y) if b
    ])


def _ref_galois(level, x, k):
    return _ref_reduce(level, [(i * k % level, a) for i, a in enumerate(x) if a])


def _ref_embed(small, big, x):
    step = big // small
    return _ref_reduce(big, [(i * step, a) for i, a in enumerate(x) if a])


def _ref_trace(level, x):
    # Ramanujan's sum: z^i has order o = level / gcd(i, level), and trace
    # mobius(o) * phi(level) / phi(o)
    total = Fraction(0)
    for i, a in enumerate(x):
        o = level // math.gcd(i, level)
        total += a * Fraction(numth.mobius(o) * numth.totient(level), numth.totient(o))
    return total


def _random_coeffs(rng, level, density=1.0):
    return [
        Fraction(rng.randint(-3, 3), rng.randint(1, 6)) if rng.random() < density
        else Fraction(0)
        for _ in range(numth.totient(level))
    ]


def _assert_canonical(v):
    assert all(type(x) is int for x in v.nums) and type(v.den) is int
    assert v.den > 0 and math.gcd(v.den, *v.nums) == 1
    assert len(v.nums) == numth.totient(v.level)


# (level, density of the random elements, how many elements to draw); the
# reference takes about a second per element at level 805
REFERENCE_LEVELS = ((1, 1.0, 3), (2, 1.0, 3), (3, 1.0, 3), (12, 1.0, 3),
                    (35, 1.0, 3), (120, 1.0, 3), (805, 0.03, 1))


def test_arithmetic_matches_fraction_reference():
    rng = random.Random(805)
    for level, density, draws in REFERENCE_LEVELS:
        for _ in range(draws):
            x = _random_coeffs(rng, level, density)
            y = _random_coeffs(rng, level, density)
            a, b = Cyclotomic(level, x), Cyclotomic(level, y)
            assert a.coeffs == tuple(x)
            assert (a + b).coeffs == tuple(p + q for p, q in zip(x, y))
            assert (a - b).coeffs == tuple(p - q for p, q in zip(x, y))
            assert (a * b).coeffs == _ref_mul(level, x, y)
            assert (a * Fraction(-5, 4)).coeffs == tuple(p * Fraction(-5, 4) for p in x)
            for k in rng.sample(units(level), min(2, len(units(level)))):
                assert a.galois(k).coeffs == _ref_galois(level, x, k)
            assert a.conjugate().coeffs == _ref_galois(level, x, -1)
            assert a.rational_trace() == _ref_trace(level, x)
            # terms mixing int and Fraction coefficients, ints after Fractions
            terms = [(rng.randrange(3 * level), rng.choice((c, 1 + int(6 * c))))
                     for c in x]
            mixed = Cyclotomic.from_terms(level, terms)
            assert mixed.coeffs == _ref_reduce(level, [(e % level, c) for e, c in terms])
            _assert_canonical(mixed)
            for v in (a, b, a + b, a - b, a * b, a - a, a * 0, a.galois(-1)):
                _assert_canonical(v)


def test_level_changes_match_fraction_reference():
    rng = random.Random(120)
    for small, big in ((1, 12), (3, 12), (12, 120), (8, 120), (35, 805), (23, 805)):
        x = _random_coeffs(rng, small)
        a = Cyclotomic(small, x)
        up = a.at_level(big)
        assert up.coeffs == _ref_embed(small, big, x)
        _assert_canonical(up)
        back = Cyclotomic(big, _ref_embed(small, big, x)).at_level(small)
        assert back.coeffs == tuple(x)
        _assert_canonical(back)
    with pytest.raises(ValueError):
        zeta(805).at_level(35)
    with pytest.raises(ValueError):
        (zeta(120) + Fraction(1, 3)).at_level(12)
    # every divisor level: a value of the small field, and its generator,
    # written at the big level by the reference, project back; the big
    # level's generator is in no smaller field but the one of half an odd
    # level's double, which is the same field
    for big in range(1, 121):
        for small in numth.divisors(big):
            for x in (_random_coeffs(rng, small, 0.5), zeta(small).coeffs):
                back = Cyclotomic(big, _ref_embed(small, big, x)).at_level(small)
                assert back.coeffs == tuple(x)
                _assert_canonical(back)
            if small < big and not (big % 4 == 2 and 2 * small == big):
                with pytest.raises(ValueError):
                    zeta(big).at_level(small)
    # a level that does not divide: the value passes through the gcd level
    for src, dst in ((12, 18), (35, 21)):
        g = math.gcd(src, dst)
        x = _random_coeffs(rng, g)
        moved = Cyclotomic(src, _ref_embed(g, src, x)).at_level(dst)
        assert moved.coeffs == _ref_embed(g, dst, x)
        _assert_canonical(moved)
        with pytest.raises(ValueError):
            zeta(src).at_level(dst)


def test_equal_values_share_one_representation():
    rng = random.Random(6)
    for level in (1, 4, 12, 35, 120):
        a, b, c = (Cyclotomic(level, _random_coeffs(rng, level)) for _ in range(3))
        k1, k2 = units(level)[-1], units(level)[len(units(level)) // 2]
        pairs = [
            ((a * b) * c, a * (b * c)),
            ((a + b) - b, a),
            (a * b + a * c, a * (b + c)),
            (a.galois(k1).galois(k2), a.galois(k1 * k2 % level)),
            (a * Fraction(3, 7) * Fraction(7, 3), a),
            (Cyclotomic.from_terms(level, enumerate(a.coeffs)), a),
            (Cyclotomic.from_json(a.to_json()), a),
            (a.at_level(2 * level).at_level(level), a),
        ]
        for u, v in pairs:
            assert u.level == v.level == level
            assert (u.nums, u.den) == (v.nums, v.den)
            _assert_canonical(u)
    mixed = Cyclotomic.from_terms(3, [(0, Fraction(1, 2)), (1, 1)])
    assert (mixed.nums, mixed.den) == ((1, 2), 2)
    assert mixed == Cyclotomic(3, [Fraction(1, 2), 1])
    half = Cyclotomic(3, [Fraction(1, 2), Fraction(-1, 2)])
    assert (half.nums, half.den) == ((1, -1), 2)
    assert ((half * 2).nums, (half * 2).den) == ((1, -1), 1)
    assert ((half - half).nums, (half - half).den) == ((0, 0), 1)
    with pytest.raises(ValueError, match=r"need exactly totient\(3\) coefficients"):
        Cyclotomic(3, [Fraction(1, 2)])


def test_level_805_root_product():
    # the product that used to take about half a second, against the
    # 200 ms deadline of test_root_products_match_cyclotomic
    a, b = RootOfUnity(35, 23), RootOfUnity(23, 16)
    prod = a.to_cyclotomic() * b.to_cyclotomic()
    assert prod.level == 805
    assert prod == (a * b).to_cyclotomic()
    assert prod.coeffs == _ref_reduce(805, [((23 * 23 + 16 * 35) % 805, Fraction(1))])
