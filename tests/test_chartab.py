import json
import random

import pytest

from feitlab import chartab, groups, numth, runner
from feitlab.chartab import (
    compute_table,
    conductor,
    galois_conjugate,
    inner_product,
    load_table,
    save_table,
)
from feitlab.cyclo import Cyclotomic, zeta
from feitlab.errors import BoundExceeded, TableFormatError


def table(spec):
    return compute_table(groups.from_spec(spec))


def test_cyclic_tables():
    for n in (1, 2, 3, 5, 8, 12):
        t = table(f"cyclic:{n}")
        assert t.num_classes == n
        assert all(t.degree(i) == 1 for i in range(n))
        # the value set of each character is a full orbit of roots of unity
        for i in range(n):
            row = t.irreducibles[i]
            assert all((v * v.conjugate()) == 1 for v in row)


def test_cyclic_table_rows_are_power_characters():
    # the rows of a cyclic table are exactly the characters x^a -> z^(j*a)
    n = 6
    t = table(f"cyclic:{n}")
    g = t.group
    gen = next(x for x in g.elements if groups.perm_order(x) == n)
    log = {groups.perm_power(gen, a): a for a in range(n)}
    expected = set()
    for j in range(n):
        row = tuple(
            zeta(n, j * log[rep]).at_level(n).coeffs for rep in t.class_reps
        )
        expected.add(row)
    got = {tuple(v.at_level(n).coeffs for v in row) for row in t.irreducibles}
    assert got == expected


def test_sym3_table():
    t = table("sym:3")
    assert sorted(t.degree(i) for i in range(3)) == [1, 1, 2]
    chi2 = next(i for i in range(3) if t.degree(i) == 2)
    three_cycle = next(
        c for c in range(3) if t.classes[c].rep_order == 3
    )
    assert t.irreducibles[chi2][three_cycle] == -1


def test_sym3_table_golden():
    # the full matrix is forced: columns ordered identity, order-2, order-3
    t = table("sym:3")
    assert [(c.rep_order, c.size) for c in t.classes] == [(1, 1), (2, 3), (3, 2)]
    matrix = {
        tuple(int(v.as_rational()) for v in row) for row in t.irreducibles
    }
    assert matrix == {(1, 1, 1), (1, -1, 1), (2, 0, -1)}


def test_sym4_table_rational():
    t = table("sym:4")
    assert sorted(t.degree(i) for i in range(5)) == [1, 1, 2, 3, 3]
    for row in t.irreducibles:
        assert all(v.is_rational() for v in row)


def test_alt5_table():
    t = table("alt:5")
    assert sorted(t.degree(i) for i in range(5)) == [1, 3, 3, 4, 5]
    # the degree-3 characters are irrational (golden-ratio values)
    irrational_rows = [
        i
        for i in range(5)
        if not all(v.is_rational() for v in t.irreducibles[i])
    ]
    assert sorted(t.degree(i) for i in irrational_rows) == [3, 3]


def test_sym5_table():
    t = table("perm:[(1,2,3,4,5),(1,2)]")
    assert sorted(t.degree(i) for i in range(7)) == [1, 1, 4, 4, 5, 5, 6]


def test_quaternion_vs_dihedral_tables():
    q = table("quaternion:8")
    d = table("dihedral:8")
    assert sorted(q.degree(i) for i in range(5)) == [1, 1, 1, 1, 2]
    assert sorted(d.degree(i) for i in range(5)) == [1, 1, 1, 1, 2]


def test_inner_products():
    t = table("sym:3")
    for i in range(3):
        for j in range(3):
            got = inner_product(t.irreducible(i), t.irreducible(j))
            assert got == (1 if i == j else 0)
    assert inner_product(t.regular_character(), t.trivial_character()) == 1
    other = table("cyclic:2")
    with pytest.raises(ValueError):
        inner_product(t.trivial_character(), other.trivial_character())


def test_values_live_at_class_order_level():
    t = table("alt:4")
    for row in t.irreducibles:
        for c, v in enumerate(row):
            v.at_level(t.classes[c].rep_order)  # must not raise


def test_galois_conjugate():
    t = table("alt:5")
    rows = [t.irreducible(i) for i in range(5)]
    assert galois_conjugate(rows[0], 1) == rows[0]
    rational_rows = [r for r in rows if all(v.is_rational() for v in r.values)]
    for r in rational_rows:
        assert galois_conjugate(r, 7) == r
    # squaring the fifth roots of unity swaps the two degree-3 rows; at
    # exponent level 30 that automorphism is k = 7 (7 = 2 mod 5, coprime to 30)
    deg3 = [i for i in range(5) if t.degree(i) == 3]
    a, b = (t.irreducible(i) for i in deg3)
    assert galois_conjugate(a, 7) == b and galois_conjugate(b, 7) == a
    with pytest.raises(ValueError):
        galois_conjugate(rows[0], 2 * t.exponent)


def test_galois_permutes_rows():
    for spec in ("cyclic:12", "sl2:3", "dihedral:12"):
        t = table(spec)
        keys = {t.row_key(row) for row in t.irreducibles}
        from feitlab.cyclo import units

        for k in units(t.exponent):
            moved = {
                t.row_key([v.galois(k) for v in row]) for row in t.irreducibles
            }
            assert moved == keys


def test_conductor():
    c5 = table("cyclic:5")
    assert conductor(c5.trivial_character()) == 1
    faithful = [
        i for i in range(5)
        if (c5.irreducibles[i][1].as_root_of_unity() or zeta(1).as_root_of_unity()).order == 5
    ]
    for i in faithful:
        assert conductor(c5.irreducible(i)) == 5

    s4 = table("sym:4")
    for i in range(s4.num_classes):
        assert conductor(s4.irreducible(i)) == 1

    # order-2 linear characters have rational values, hence conductor 1
    c2 = table("cyclic:2")
    for i in range(2):
        assert conductor(c2.irreducible(i)) == 1

    q8 = table("quaternion:8")
    for i in range(5):
        assert conductor(q8.irreducible(i)) == 1  # all rows rational

    c8 = table("cyclic:8")
    faithful8 = [
        i for i in range(8) if conductor(c8.irreducible(i)) == 8
    ]
    assert len(faithful8) == numth.totient(8)


def test_conductor_divides_exponent_and_galois_invariant():
    from feitlab.cyclo import units

    for spec in ("cyclic:12", "dihedral:12", "sl2:3"):
        t = table(spec)
        for i in range(t.num_classes):
            chi = t.irreducible(i)
            c = conductor(chi)
            assert t.exponent % c == 0
            for k in units(t.exponent):
                assert conductor(galois_conjugate(chi, k)) == c


def test_class_of_power():
    for spec in ("sym:3", "cyclic:12", "sl2:3", "dihedral:12", "quaternion:8"):
        t = table(spec)
        g = t.group
        e = t.exponent
        n = t.num_classes
        assert [t.class_of_power(c, 1) for c in range(n)] == list(range(n))
        assert all(t.class_of_power(c, e) == 0 for c in range(n))
        # consistency with the group-level power map, including exponents
        # coprime to e (the Galois-matching path)
        for m in range(2 * e):
            assert [t.class_of_power(c, m) for c in range(n)] == list(
                g.class_power_map(m)
            )
        for c in range(n):
            for a in (2, 3, 5):
                for b in (3, 7):
                    assert t.class_of_power(t.class_of_power(c, a), b) == \
                        t.class_of_power(c, a * b)
                    assert t.class_of_power(c, a) == t.class_of_power(c, a + e)


def test_table_bound():
    with pytest.raises(BoundExceeded):
        compute_table(groups.symmetric(5), bound=100)


def test_save_load_round_trip():
    for spec in ("sym:3", "cyclic:12", "alt:5", "quaternion:8"):
        t = table(spec)
        blob = save_table(t)
        again = load_table(blob)
        assert save_table(again) == blob
        assert again.order == t.order and again.exponent == t.exponent
        for r1, r2 in zip(t.irreducibles, again.irreducibles):
            assert all(a == b for a, b in zip(r1, r2))
        # loaded tables still answer power-map queries
        for c in range(t.num_classes):
            assert again.class_of_power(c, 5) == t.class_of_power(c, 5)


def test_load_rejects_missing_powermap():
    t = table("sym:3")
    doc = json.loads(save_table(t))
    del doc["classes"][1]["powermap"]["2"]
    with pytest.raises(TableFormatError):
        load_table(json.dumps(doc))


def test_load_rejects_tampered_value():
    t = table("sym:3")
    doc = json.loads(save_table(t))
    doc["irreducibles"][2][1] = 5
    with pytest.raises(TableFormatError) as err:
        load_table(json.dumps(doc))
    assert "orthogonality" in str(err.value)


def test_load_rejects_garbage():
    with pytest.raises(TableFormatError):
        load_table(b"not json at all")
    with pytest.raises(TableFormatError):
        load_table(json.dumps({"name": "x"}))


def _tamper(mutate):
    doc = json.loads(save_table(compute_table(groups.symmetric(3))))
    mutate(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(order=7), "sum to the group order"),
        (lambda d: d.update(exponent=12), "lcm"),
        (lambda d: d["classes"][0].update(size=2), "identity class"),
        (lambda d: d["classes"].__setitem__(0, d["classes"][2]), "identity class"),
        (lambda d: d["classes"][1]["powermap"].update({"2": 99}), "out of range"),
        (lambda d: d["classes"][1]["powermap"].update({"2": 1}), "wrong order"),
        (lambda d: d["irreducibles"][0].__setitem__(0, -1), "degree"),
        (lambda d: d["irreducibles"].pop(), "as many irreducible"),
        (lambda d: d["irreducibles"][1].pop(), "wrong number of values"),
    ],
)
def test_load_names_the_failed_check(mutate, fragment):
    with pytest.raises(TableFormatError) as err:
        load_table(_tamper(mutate))
    assert fragment in str(err.value)


def test_regular_character_decomposition():
    t = table("sym:3")
    reg = t.regular_character()
    for i in range(3):
        assert inner_product(reg, t.irreducible(i)) == t.degree(i)


def test_regular_character_vectors_match_the_transform():
    # the degree-weighted sum of the row vectors is the transform of the
    # regular character's values: |G|/t at every exponent
    for spec in runner.C_SMALL:
        t = table(spec)
        reg = t.regular_character()
        for c, cls in enumerate(t.classes):
            t_c = cls.rep_order
            want = chartab.eigenvalue_dft(reg, c)
            assert reg.eigen[c] == want == (t.order // t_c,) * t_c, (spec, c)


# the groups of order 25..720 that the feit_scan benchmark draws from
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


def test_integer_row_routes_match_cyclotomic():
    # the integer pair routine is |G| times the Schur inner product, and the
    # row conductor read from the vectors is the Galois search on the values
    for spec in runner.C_SMALL + FEIT_POOL:
        t = table(spec)
        rows = [t.irreducible(i) for i in range(t.num_classes)]
        for i in range(t.num_classes):
            for j in range(i, t.num_classes):
                got = chartab._scaled_inner_product(t, t.eigen[i], t.eigen[j])
                want = t.order * inner_product(rows[i], rows[j])
                assert Cyclotomic(t.exponent, got) == want, (spec, i, j)
            assert chartab._row_conductor(t, i) == conductor(rows[i]), (spec, i)


def test_scaled_inner_product_of_arbitrary_vectors():
    # integer vectors stand for arbitrary class functions, whose inner
    # products need not be rational; the routine must stay exact there
    rng = random.Random(5)
    for spec in ("cyclic:5", "sl2:3", "alt:5", "dihedral:12"):
        t = table(spec)
        for _ in range(20):
            u, v = (
                tuple(
                    tuple(rng.randrange(-2, 3) for _ in range(cls.rep_order))
                    for cls in t.classes
                )
                for _ in range(2)
            )
            a, b = (
                t.class_function(
                    [Cyclotomic.from_terms(cls.rep_order, enumerate(vec))
                     for cls, vec in zip(t.classes, w)]
                )
                for w in (u, v)
            )
            got = Cyclotomic(t.exponent, chartab._scaled_inner_product(t, u, v))
            assert got == t.order * inner_product(a, b), spec


def _with_vector(t, eigen, i, c, vec):
    """t holding eigen with the vector of row i at class c replaced."""
    t._eigen = tuple(
        tuple(vec if (i2, c2) == (i, c) else v for c2, v in enumerate(row))
        for i2, row in enumerate(eigen)
    )
    return t


def test_validate_catches_swapped_multiplicities():
    # swapping two unequal entries of one stored vector changes one value
    # of one row, which row orthogonality must then reject
    caught = 0
    for spec in ("sym:3", "cyclic:4", "quaternion:8", "alt:4", "sl2:3", "alt:5"):
        t = table(spec)
        eigen = t.eigen
        for i, row in enumerate(eigen):
            for c, vec in enumerate(row):
                pair = next(
                    ((a, b) for a in range(len(vec)) for b in range(a)
                     if vec[a] != vec[b]),
                    None,
                )
                if pair is None:
                    continue
                a, b = pair
                bad = list(vec)
                bad[a], bad[b] = bad[b], bad[a]
                with pytest.raises(TableFormatError, match="row orthogonality"):
                    chartab._validate(_with_vector(t, eigen, i, c, tuple(bad)))
                caught += 1
        t._eigen = eigen
        chartab._validate(t)
    assert caught > 50


def test_validate_rejects_irrational_inner_products():
    # on dihedral:12 a few moves of one eigenvalue leave the first power-basis
    # coordinate of every inner product right, so only its other
    # coordinates reveal the change: every move must still be rejected
    t = table("dihedral:12")
    eigen = t.eigen
    irrational_only = 0
    for i, row in enumerate(eigen):
        for c, vec in enumerate(row):
            for a in range(len(vec)):
                for b in range(len(vec)):
                    if a == b or not vec[a]:
                        continue
                    bad = list(vec)
                    bad[a] -= 1
                    bad[b] += 1
                    _with_vector(t, eigen, i, c, tuple(bad))
                    if all(
                        chartab._scaled_inner_product(t, t.eigen[i], t.eigen[j])[0]
                        == (t.order if i == j else 0)
                        for j in range(t.num_classes)
                    ):
                        irrational_only += 1
                    with pytest.raises(TableFormatError, match="row orthogonality"):
                        chartab._validate(t)
    assert irrational_only > 0
