"""Workload pools and the seeded request generators.

Every request is an argv list for ``feitlab.cli.main``.  The requests of a
pass depend only on (workload, seed, pass index), never on the program, so
the benchmark and the program under test cannot drift apart.  A pass is one
fresh child interpreter running its requests in order (one closed-loop
client); a run is as many passes as fit in ``--seconds``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

# Seed that no tuning of the benchmark or of the program looked at; a claimed
# gain is re-checked on it.
HELD_OUT_SEED = 90210

# oracle_corpus: the entries of the bundled src/feitlab/data/corpus_small.json
# (all 21 groups of order <= 24), copied so that the workload stays fixed
CORPUS_ENTRIES: Tuple[str, ...] = (
    "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
    "cyclic:7", "cyclic:8", "cyclic:9", "cyclic:10", "cyclic:11", "cyclic:12",
    "product:cyclic:2,cyclic:2", "product:cyclic:2,cyclic:4", "sym:3",
    "dihedral:8", "quaternion:8", "dihedral:12", "alt:4", "sl2:3", "sym:4",
)

# feit_scan: groups of order 25..720, above the oracle bound of 24, in twins
# of near-equal `feit --all` cost (within about 0.1 s on a 2-core x86 box).
# A pass draws one spec from each twin, so draws vary with the seed while
# the work of a pass stays nearly the same.
FEIT_TWINS: Tuple[Tuple[str, str], ...] = (
    ("dihedral:60", "dihedral:50"),
    ("product:sl2:3,cyclic:4", "dihedral:54"),
    ("dihedral:56", "elementary:5,2"),
    ("elementary:3,3", "dihedral:52"),
    ("dihedral:42", "dihedral:48"),
    ("product:sym:4,cyclic:4", "dihedral:40"),
    ("product:sl2:3,cyclic:3", "dihedral:44"),
    ("product:sym:3,cyclic:5", "product:alt:5,cyclic:3"),
    ("sl2:7", "product:dihedral:10,cyclic:3"),
    ("product:alt:4,cyclic:4", "product:quaternion:8,cyclic:4"),
    ("dihedral:30", "product:dihedral:8,cyclic:4"),
    ("product:alt:4,alt:4", "product:sym:3,cyclic:6"),
    ("product:sym:3,sym:4", "product:sym:5,cyclic:2"),
    ("product:sym:4,cyclic:3", "product:sl2:3,cyclic:2"),
    ("dihedral:36", "sym:6"),
    ("product:alt:5,cyclic:2", "sl2:5"),
    ("product:alt:4,cyclic:3", "product:sym:3,alt:4"),
    ("extraspecial:27", "alt:6"),
    ("product:sym:4,cyclic:2", "sym:5"),
    ("product:sym:3,sym:3", "alt:5"),
    ("dihedral:32", "product:quaternion:8,sym:3"),
    ("dihedral:28", "product:cyclic:2,dihedral:16"),
)

# point_queries: (spec, number of classes, exponent), most popular first.
# The class count and exponent fix the valid (chi, n) pairs without asking
# the program; record.py checks them against it.
POINT_GROUPS: Tuple[Tuple[str, int, int], ...] = (
    ("sym:4", 5, 12),
    ("sl2:3", 7, 12),
    ("dihedral:12", 6, 6),
    ("extraspecial:27", 11, 3),
    ("alt:5", 5, 30),
    ("sym:5", 7, 60),
    ("product:alt:4,cyclic:3", 12, 6),
    ("dihedral:30", 9, 30),
)
ZIPF_EXPONENT = 1.0
POINT_REQUESTS_PER_PASS = 90


def divisors(n: int) -> List[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def point_pairs(nclasses: int, exponent: int) -> List[Tuple[int, int]]:
    return [(i, n) for i in range(nclasses) for n in divisors(exponent)]


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    # string seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{pass_index}")


def oracle_corpus(seed: int, pass_index: int) -> List[List[str]]:
    specs = list(CORPUS_ENTRIES)
    _rng("oracle_corpus", seed, pass_index).shuffle(specs)
    return [["verify", s, "--json"] for s in specs]


def feit_scan(seed: int, pass_index: int) -> List[List[str]]:
    # passes 2k and 2k+1 draw opposite members of every twin, so each two
    # passes of a run scan the whole pool once and the seed moves only
    # which pass gets which member, and the order
    draw = _rng("feit_scan", seed, pass_index // 2)
    specs = [twin[(draw.random() < 0.5) ^ (pass_index % 2)] for twin in FEIT_TWINS]
    _rng("feit_scan", seed, pass_index).shuffle(specs)
    return [["feit", s, "--all", "--json"] for s in specs]


def zipf_counts(total: int) -> List[int]:
    """Requests per POINT_GROUPS entry in one pass: Zipf-proportional shares
    of ``total``, rounded by largest remainder.  Fixed counts rather than
    independent draws keep the mix, and so the work of a pass, the same for
    every seed; the seed moves the order and the (chi, n) pairs."""
    weights = [1.0 / rank ** ZIPF_EXPONENT for rank in range(1, len(POINT_GROUPS) + 1)]
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(len(shares)), key=lambda k: counts[k] - shares[k])
    for k in by_remainder[: total - sum(counts)]:
        counts[k] += 1
    return counts


def point_queries(seed: int, pass_index: int) -> List[List[str]]:
    rng = _rng("point_queries", seed, pass_index)
    specs = [
        group
        for group, count in zip(POINT_GROUPS, zipf_counts(POINT_REQUESTS_PER_PASS))
        for _ in range(count)
    ]
    rng.shuffle(specs)
    out = []
    for spec, nclasses, exponent in specs:
        i, n = rng.choice(point_pairs(nclasses, exponent))
        out.append(["s", spec, "--chi", str(i), "--n", str(n), "--json"])
    return out


WORKLOADS = {
    "oracle_corpus": oracle_corpus,
    "feit_scan": feit_scan,
    "point_queries": point_queries,
}


def requests(workload: str, seed: int, pass_index: int) -> List[List[str]]:
    return WORKLOADS[workload](seed, pass_index)


def all_requests() -> Dict[str, List[List[str]]]:
    """Every request any seed can generate, per workload (for record.py)."""
    return {
        "oracle_corpus": [["verify", s, "--json"] for s in CORPUS_ENTRIES],
        "feit_scan": [
            ["feit", s, "--all", "--json"] for twin in FEIT_TWINS for s in twin
        ],
        "point_queries": [
            ["s", spec, "--chi", str(i), "--n", str(n), "--json"]
            for spec, nclasses, exponent in POINT_GROUPS
            for i, n in point_pairs(nclasses, exponent)
        ],
    }
