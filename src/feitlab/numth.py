"""Divisor-lattice transforms and multiplicative arithmetic.

All functions are pure and exact (integers and Fractions, no floats).
The two "alternating" evaluators at the bottom each come with an
independent brute-force counterpart used by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

from .errors import ConsistencyError


@lru_cache(maxsize=None)
def prime_factorization(n: int) -> Tuple[Tuple[int, int], ...]:
    """Return ((p, multiplicity), ...) with p ascending, by trial division."""
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def divisors(n: int) -> Tuple[int, ...]:
    """All positive divisors of n, strictly increasing."""
    ds = [1]
    for p, e in prime_factorization(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return tuple(sorted(ds))


def prime_set(n: int) -> FrozenSet[int]:
    """The set of prime divisors of n."""
    return frozenset(p for p, _ in prime_factorization(n))


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factorization(n) == ((n, 1),)


def check_primes(primes: Iterable[int]) -> FrozenSet[int]:
    """Validate an iterable of primes and return it as a frozenset."""
    ps = frozenset(primes)
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    return ps


def valuation(n: int, p: int) -> int:
    """The exponent of the prime p in n."""
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def mobius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^(#prime factors)."""
    fact = prime_factorization(n)
    if any(e > 1 for _, e in fact):
        return 0
    return -1 if len(fact) % 2 else 1


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    """Euler totient |(Z/nZ)^x|, computed once per n."""
    t = n
    for p, _ in prime_factorization(n):
        t = t // p * (p - 1)
    return t


def p_part(n: int, primes: Iterable[int]) -> int:
    """The largest divisor of n supported on the given prime set."""
    ps = check_primes(primes)
    out = 1
    for p, e in prime_factorization(n):
        if p in ps:
            out *= p**e
    return out


def coprime_part(n: int, primes: Iterable[int]) -> int:
    """The largest divisor of n coprime to the given prime set."""
    return n // p_part(n, primes)


def radical_quotient(n: int) -> int:
    """n divided by its squarefree radical (the product of its primes)."""
    out = n
    for p, _ in prime_factorization(n):
        out //= p
    return out


def subset_modulus(n: int, big_n: int, rho: Iterable[int]) -> int:
    """For rho a subset of the primes of n, the blended modulus that keeps
    the reduced part of n at the primes of rho and all of big_n elsewhere.

    Requires n | big_n.  The result is always a divisor of big_n.
    """
    rho = check_primes(rho)
    if big_n % n != 0:
        raise ValueError(f"{n} does not divide {big_n}")
    if not rho <= prime_set(n):
        raise ValueError(f"{sorted(rho)} is not a subset of the primes of {n}")
    return p_part(radical_quotient(n), rho) * coprime_part(big_n, rho)


def prime_subsets(n: int) -> Tuple[FrozenSet[int], ...]:
    """All subsets of the prime divisors of n, by binary counter over the
    ascending prime list (deterministic order, empty set first)."""
    primes = sorted(prime_set(n))
    out = []
    for mask in range(1 << len(primes)):
        out.append(frozenset(p for i, p in enumerate(primes) if mask >> i & 1))
    return tuple(out)


@dataclass(frozen=True)
class DivisorFunction:
    """An integer-valued function on the divisor lattice of a fixed modulus."""

    modulus: int
    values: Mapping[int, int]

    def __post_init__(self):
        want = set(divisors(self.modulus))
        got = set(self.values)
        if got != want:
            raise ValueError(
                f"value keys must be exactly the divisors of {self.modulus}"
            )
        object.__setattr__(self, "values", dict(self.values))

    @staticmethod
    def indicator(modulus: int, at: int) -> "DivisorFunction":
        return DivisorFunction(
            modulus, {d: int(d == at) for d in divisors(modulus)}
        )

    def __getitem__(self, d: int) -> int:
        return self.values[d]

    def lower_sum(self, n: int) -> int:
        """Sum of f over the divisors of n."""
        if self.modulus % n != 0:
            raise ValueError(f"{n} does not divide {self.modulus}")
        return sum(self.values[d] for d in divisors(n))

    def upper_sum(self, n: int) -> int:
        """Sum of f over the multiples of n, by direct enumeration."""
        if self.modulus % n != 0:
            raise ValueError(f"{n} does not divide {self.modulus}")
        return sum(v for d, v in self.values.items() if d % n == 0)


def alternating_upper_sum(f: DivisorFunction, n: int) -> int:
    """The multiples-sum of f at n computed from lower sums only, via the
    signed sum over prime subsets of n.  Must agree with f.upper_sum(n)."""
    if f.modulus % n != 0:
        raise ValueError(f"{n} does not divide {f.modulus}")
    total = 0
    for rho in prime_subsets(n):
        sign = -1 if len(rho) % 2 else 1
        total += sign * f.lower_sum(subset_modulus(n, f.modulus, rho))
    return total


def trace_root_of_unity(k: int, n: int) -> int:
    """Trace down to the rationals, from level n, of a root of unity of
    order k | n: mobius(k) * totient(n) / totient(k)."""
    if n % k != 0:
        raise ValueError(f"{k} does not divide {n}")
    q, r = divmod(totient(n), totient(k))
    if r:
        raise ConsistencyError(f"totient({k}) should divide totient({n})")
    return mobius(k) * q


def _split_primes(n: int, zeta_order: int):
    """Partition the primes of n by comparing their valuation in the root
    order against their valuation in n (strictly smaller vs equal)."""
    rho0, rho1 = set(), set()
    for p in prime_set(n):
        vo, vn = valuation(zeta_order, p), valuation(n, p)
        if vo < vn:
            rho0.add(p)
        elif vo == vn:
            rho1.add(p)
    return frozenset(rho0), frozenset(rho1)


def _check_trace_args(big_n: int, n: int, t: int, zeta_order: int) -> None:
    if big_n % n != 0:
        raise ValueError(f"{n} does not divide {big_n}")
    if big_n % t != 0:
        raise ValueError(f"{t} does not divide {big_n}")
    if math.gcd(t, big_n) % zeta_order != 0:
        raise ValueError(
            f"root order {zeta_order} does not divide gcd({t}, {big_n})"
        )


def alternating_trace_closed_form(
    big_n: int, n: int, t: int, zeta_order: int
) -> int:
    """Closed form for the signed double sum over prime subsets of n and
    units mod t of powers of a root of unity of the given order.

    Returns 0 when some prime of n exceeds the root order's valuation, else
    the sum over subsets of the critical primes of totient(t)/prod(p-1).
    The value is always a non-negative integer.
    """
    _check_trace_args(big_n, n, t, zeta_order)
    rho0, rho1 = _split_primes(n, zeta_order)
    if rho0:
        return 0
    total = Fraction(0)
    phi_t = totient(t)
    for mask_primes in prime_subsets(math.prod(sorted(rho1)) if rho1 else 1):
        denom = math.prod((p - 1) for p in mask_primes) if mask_primes else 1
        total += Fraction(phi_t, denom)
    if total.denominator != 1:
        raise ConsistencyError(f"non-integral alternating trace sum {total}")
    if total < 0:
        raise ConsistencyError(f"negative alternating trace sum {total}")
    return int(total)


def alternating_trace_direct(big_n: int, n: int, t: int, zeta) -> int:
    """The same signed double sum evaluated literally in exact cyclotomic
    arithmetic.  zeta must be a root of unity of order dividing gcd(t, big_n).
    """
    from . import cyclo  # deferred: cyclo imports numth

    if isinstance(zeta, cyclo.RootOfUnity):
        root = zeta
    elif isinstance(zeta, cyclo.Cyclotomic):
        root = zeta.as_root_of_unity()
    else:
        raise ValueError(f"expected a cyclotomic value, got {type(zeta).__name__}")
    if root is None:
        raise ValueError("zeta is not a root of unity")
    o = root.order
    _check_trace_args(big_n, n, t, o)
    counts: Dict[int, int] = {}
    for rho in prime_subsets(n):
        sign = -1 if len(rho) % 2 else 1
        m = subset_modulus(n, big_n, rho)
        for k in cyclo.units(t):
            exp = (root.exponent * k * m) % o if o > 1 else 0
            counts[exp] = counts.get(exp, 0) + sign
    value = cyclo.Cyclotomic.from_terms(o, counts.items())
    q = value.as_rational()
    if q is None or q.denominator != 1:
        raise ConsistencyError(f"alternating trace sum {value!r} is not an integer")
    return int(q)
