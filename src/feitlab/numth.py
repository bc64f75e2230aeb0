"""Divisors, prime parts and multiplicative arithmetic.

All functions are pure and exact (integers, no floats).
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Iterable, Tuple

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
    the reduced part of n at the primes of rho and all of big_n elsewhere:
    the product over the primes p of big_n of p^(v_p(n) - 1) for p in rho,
    and of p^v_p(big_n) otherwise.

    Requires n | big_n.  The result is always a divisor of big_n.
    """
    rho = frozenset(rho)
    if big_n % n != 0:
        raise ValueError(f"{n} does not divide {big_n}")
    reduced = {p: k - 1 for p, k in prime_factorization(n)}
    if not rho <= reduced.keys():
        check_primes(rho)  # a non-prime is refused as one
        raise ValueError(f"{sorted(rho)} is not a subset of the primes of {n}")
    out = 1
    for p, k in prime_factorization(big_n):
        out *= p ** (reduced[p] if p in rho else k)
    return out


def prime_subsets(n: int) -> Tuple[FrozenSet[int], ...]:
    """All subsets of the prime divisors of n, by binary counter over the
    ascending prime list (deterministic order, empty set first): the
    subsets with the i-th prime are those without it, in order, each with
    it added."""
    out = [frozenset()]
    for p, _ in prime_factorization(n):
        out += [rho | {p} for rho in out]
    return tuple(out)


def trace_root_of_unity(k: int, n: int) -> int:
    """Trace down to the rationals, from level n, of a root of unity of
    order k | n: mobius(k) * totient(n) / totient(k)."""
    if n % k != 0:
        raise ValueError(f"{k} does not divide {n}")
    q, r = divmod(totient(n), totient(k))
    if r:
        raise ConsistencyError(f"totient({k}) should divide totient({n})")
    return mobius(k) * q
