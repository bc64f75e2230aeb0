"""The specs the tests run over: those of the bundled corpus file, read
once, and the feit_scan benchmark's pool."""

import json

from feitlab import runner

CORPUS = tuple(json.loads(runner.BUNDLED_CORPUS.read_text())["entries"])

# the groups of order 25..720 that the feit_scan benchmark draws from (its
# cost-matched twins, perfbench/workloads.py)
FEIT_POOL = (
    "dihedral:60", "dihedral:50", "product:sl2:3,cyclic:4", "dihedral:54",
    "dihedral:56", "elementary:5,2", "elementary:3,3", "dihedral:52",
    "dihedral:42", "dihedral:48", "product:sym:4,cyclic:4", "dihedral:40",
    "product:sl2:3,cyclic:3", "dihedral:44", "product:sym:3,cyclic:5",
    "product:alt:5,cyclic:3", "sl2:7", "product:dihedral:10,cyclic:3",
    "product:alt:4,cyclic:4", "product:quaternion:8,cyclic:4", "dihedral:30",
    "product:dihedral:8,cyclic:4", "product:alt:4,alt:4",
    "product:sym:3,cyclic:6", "product:sym:3,sym:4", "product:sym:5,cyclic:2",
    "product:sym:4,cyclic:3", "product:sl2:3,cyclic:2", "dihedral:36",
    "sym:6", "product:alt:5,cyclic:2", "sl2:5", "product:alt:4,cyclic:3",
    "product:sym:3,alt:4", "extraspecial:27", "alt:6",
    "product:sym:4,cyclic:2", "sym:5", "product:sym:3,sym:3", "alt:5",
    "dihedral:32", "product:quaternion:8,sym:3", "dihedral:28",
    "product:cyclic:2,dihedral:16",
)
