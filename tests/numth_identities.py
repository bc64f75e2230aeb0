"""The paper's number-theoretic identities, kept in tests only: the
alternating multiples-sum over a divisor lattice, and the signed double sum
of root-of-unity powers in closed form and evaluated literally.  The
package computes S by neither; the tests check each identity against its
brute-force counterpart."""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping

from feitlab import cyclo
from feitlab.errors import ConsistencyError
from feitlab.numth import divisors, prime_set, prime_subsets, subset_modulus, totient


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


def valuation(n: int, p: int) -> int:
    """The exponent of the prime p in n."""
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def split_primes(n: int, zeta_order: int):
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
    rho0, rho1 = split_primes(n, zeta_order)
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
