import math
import random

import pytest
from hypothesis import given, strategies as st

from feitlab import numth
from feitlab.numth import (
    divisors,
    mobius,
    p_part,
    prime_set,
    radical_quotient,
    subset_modulus,
    totient,
    trace_root_of_unity,
)
from numth_identities import (
    DivisorFunction,
    alternating_trace_closed_form,
    alternating_trace_direct,
    alternating_upper_sum,
    split_primes,
)


def test_divisors_basic():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert len(divisors(60)) == 12


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1


def test_mobius_recursion():
    # mu(1) = 1 and the divisor sums of mu vanish beyond 1
    for n in range(2, 10001):
        assert sum(mobius(d) for d in divisors(n)) == 0


def test_totient():
    assert totient(1) == 1
    assert totient(12) == 4
    for p in (2, 3, 5, 7, 11, 13):
        assert totient(p) == p - 1


@given(st.integers(min_value=1, max_value=5000))
def test_totient_divisor_sum(n):
    assert sum(totient(d) for d in divisors(n)) == n


def test_p_part():
    assert p_part(12, {2}) == 4
    assert p_part(12, set()) == 1
    assert p_part(12, {2, 3}) == 12
    with pytest.raises(ValueError):
        p_part(12, {4})


@given(st.integers(min_value=1, max_value=10000))
def test_p_part_complement(n):
    for primes in ({2}, {3}, {2, 5}, prime_set(n)):
        assert p_part(n, primes) * numth.coprime_part(n, primes) == n


def test_radical_quotient():
    assert radical_quotient(1) == 1
    assert radical_quotient(12) == 2
    assert radical_quotient(30) == 1
    assert radical_quotient(8) == 4


def test_subset_modulus():
    assert subset_modulus(2, 12, set()) == 12
    assert subset_modulus(2, 12, {2}) == 3  # reduced 2-part 1 times odd part 3
    for p in (2, 3, 5, 7):
        assert subset_modulus(p, p, {p}) == 1
    with pytest.raises(ValueError):
        subset_modulus(5, 12, set())
    with pytest.raises(ValueError):
        subset_modulus(2, 12, {3})
    with pytest.raises(ValueError, match="4 is not prime"):
        subset_modulus(12, 12, {4})


def test_subset_modulus_divides():
    # the modulus is the largest divisor of n / rad(n) supported on rho
    # times the largest divisor of big_n prime to rho, found by search
    for big_n in (12, 36, 60, 360, 1320):
        for n in divisors(big_n):
            reduced = radical_quotient(n)
            for rho in numth.prime_subsets(n):
                m = subset_modulus(n, big_n, rho)
                assert big_n % m == 0
                keep = max(d for d in divisors(reduced) if prime_set(d) <= rho)
                rest = max(d for d in divisors(big_n) if not prime_set(d) & rho)
                assert m == keep * rest, (n, big_n, sorted(rho))


def test_divisor_function_validation():
    with pytest.raises(ValueError):
        DivisorFunction(12, {1: 1})
    f = DivisorFunction.indicator(12, 6)
    assert f[6] == 1 and f[4] == 0


def test_alternating_upper_sum_indicator():
    f = DivisorFunction.indicator(12, 6)
    assert alternating_upper_sum(f, 2) == 1  # 2 | 6
    assert alternating_upper_sum(f, 4) == 0  # 4 does not divide 6
    g = DivisorFunction(12, {d: d * d - 7 for d in divisors(12)})
    assert alternating_upper_sum(g, 1) == sum(g[d] for d in divisors(12))


def test_alternating_upper_sum_random():
    rng = random.Random(7)
    for _ in range(300):
        n_mod = rng.randrange(1, 10000)
        f = DivisorFunction(
            n_mod, {d: rng.randrange(-50, 50) for d in divisors(n_mod)}
        )
        for n in divisors(n_mod):
            assert alternating_upper_sum(f, n) == f.upper_sum(n)


def test_trace_root_of_unity():
    assert trace_root_of_unity(1, 12) == 4
    for p in (2, 3, 5, 7):
        assert trace_root_of_unity(p, p) == -1
    assert trace_root_of_unity(4, 12) == 0
    with pytest.raises(ValueError):
        trace_root_of_unity(5, 12)


def test_alternating_trace_closed_form_zero_case():
    # valuation of the root order at 2 falls short of n, so the sum is 0
    assert alternating_trace_closed_form(4, 2, 2, 1) == 0


def test_alternating_trace_closed_form_trivial_n():
    for t in (1, 2, 3, 6):
        assert alternating_trace_closed_form(6, 1, t, 1) == totient(t)


def test_alternating_trace_direct_small():
    from feitlab import cyclo

    # order-2 root with n = t = big_n = 2: subsets give 1 - (-1) = 2
    val = alternating_trace_direct(2, 2, 2, cyclo.zeta(2))
    assert val == 2
    assert alternating_trace_closed_form(2, 2, 2, 2) == 2
    # rational input of order 1
    assert alternating_trace_direct(6, 1, 6, cyclo.rational(1)) == totient(6)
    with pytest.raises(ValueError):
        alternating_trace_direct(4, 2, 2, cyclo.rational(2))


def test_alternating_trace_agreement_small():
    from feitlab import cyclo

    for big_n in range(1, 25):
        for n in divisors(big_n):
            for t in divisors(big_n):
                for o in divisors(math.gcd(t, big_n)):
                    closed = alternating_trace_closed_form(big_n, n, t, o)
                    direct = alternating_trace_direct(big_n, n, t, cyclo.zeta(o))
                    assert closed == direct
                    assert closed >= 0
                    rho0, _ = split_primes(n, o)
                    assert (closed == 0) == bool(rho0)
