"""The witness's former per-request scan, kept in tests only as the
reference for the eigenvalue orders read once per distinct vector
(``CharacterTable.eigen_orders``): every entry of every class's
multiplicity vector, with a gcd per entry."""

import math


def scan_witness(table, vectors, n):
    """First (class, exponent) in table order whose eigenvalue has order
    exactly n with positive multiplicity in ``vectors``, one per class."""
    for c, (cls, vec) in enumerate(zip(table.classes, vectors)):
        t = cls.rep_order
        if t % n == 0:
            for j, mult in enumerate(vec):
                if mult > 0 and t // math.gcd(t, j) == n:
                    return (c, j)
    return None
