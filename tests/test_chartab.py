import hashlib
import json
import random

import pytest

from feitlab import adams, chartab, cyclo, groups, numth, runner
from feitlab.chartab import (
    compute_table,
    conductor,
    galois_conjugate,
    inner_product,
    load_table,
    save_table,
)
from feitlab.cyclo import Cyclotomic, zeta
from feitlab.errors import BoundExceeded, ConsistencyError, TableFormatError


def table(spec):
    return compute_table(groups.from_spec(spec))


def _eigenvalue_dft(chi, c):
    """Multiplicity of each power zeta_t^j (t the order of class c) in the
    class function, by the inverse discrete Fourier transform of its values
    on the powers of the class, in cyclotomic arithmetic: the reference the
    modular transform of ``chartab`` is compared against."""
    table = chi.table
    t = table.classes[c].rep_order
    powers = [chi.values[k] for k in table.power_map[c]]
    out = []
    for j in range(t):
        acc = Cyclotomic.rational(0)
        for a in range(t):
            acc = acc + powers[a] * zeta(t, -j * a)
        m = (acc / t).as_integer()
        if m is None:
            raise ConsistencyError(
                f"eigenvalue multiplicity at class {c}, exponent {j} is {acc / t!r}"
            )
        out.append(m)
    return tuple(out)


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
    # 5 is no sum of two square roots of unity, so deriving the vectors
    # finds it; the trivial row replaced by the sign row is a genuine
    # character of the right degree, so only row orthogonality finds that
    t = table("sym:3")
    doc = json.loads(save_table(t))
    doc["irreducibles"][2][1] = 5
    with pytest.raises(TableFormatError) as err:
        load_table(json.dumps(doc))
    assert "character 2 of sym:3" in str(err.value)
    doc = json.loads(save_table(t))
    doc["irreducibles"][1] = doc["irreducibles"][0]
    with pytest.raises(TableFormatError) as err:
        load_table(json.dumps(doc))
    assert "row orthogonality" in str(err.value)


def test_load_rejects_a_value_outside_the_exponent_field():
    doc = json.loads(save_table(table("cyclic:3")))
    doc["irreducibles"][1][1] = {"level": 5, "terms": [[1, 1, 1]]}
    with pytest.raises(TableFormatError) as err:
        load_table(json.dumps(doc))
    assert "character 1 at class 1 is not in the level-3 field" in str(err.value)


def _cyclotomic_orthonormal(t):
    """Row orthonormality of a table's values by cyclotomic inner products:
    the reference the integer Gram pass of ``_validate`` is checked
    against."""
    rows = [t.irreducible(i) for i in range(t.num_classes)]
    return all(
        inner_product(rows[i], rows[j]) == (1 if i == j else 0)
        for i in range(len(rows))
        for j in range(i, len(rows))
    )


VALUE_TAMPERS = (
    lambda t, i, c: -t.irreducibles[i][c],
    lambda t, i, c: t.irreducibles[i][c] + 1,
    lambda t, i, c: t.irreducibles[i][c].conjugate(),
    lambda t, i, c: t.irreducibles[i][c] * zeta(t.classes[c].rep_order, 1),
    lambda t, i, c: t.irreducibles[(i + 1) % t.num_classes][c],
    lambda t, i, c: t.irreducibles[i][-c],
    # the same residue mod the transform's prime: only the give-back of the
    # derived vectors tells
    lambda t, i, c: t.irreducibles[i][c] + chartab._choose_prime(t.order, t.exponent),
)


def test_load_rejects_every_table_the_cyclotomic_check_rejects():
    # one value changed at a time: whenever the reference finds the rows
    # not orthonormal, load_table refuses the table
    rejected = 0
    for spec in runner.C_SMALL:
        t = table(spec)
        r = t.num_classes
        for i in sorted({0, r // 2, r - 1}):
            for c in sorted({1, r // 2, r - 1} - {0}) if r > 1 else ():
                for tamper in VALUE_TAMPERS:
                    rows = [list(row) for row in t.irreducibles]
                    rows[i][c] = tamper(t, i, c)
                    bad = chartab.CharacterTable(
                        spec, t.order, t.exponent, t.classes, rows
                    )
                    if _cyclotomic_orthonormal(bad):
                        continue
                    doc = json.loads(save_table(t))
                    doc["irreducibles"][i][c] = rows[i][c].to_json()
                    with pytest.raises(TableFormatError, match=spec):
                        load_table(json.dumps(doc))
                    rejected += 1
    assert rejected > 700


@pytest.mark.parametrize(
    "doc, fragment",
    [
        # a class of order 100003 in a group of order 2
        ({"name": "x", "order": 2, "exponent": 100003,
          "classes": [{"rep_order": 1, "size": 1, "powermap": {"100003": 0}},
                      {"rep_order": 100003, "size": 1, "powermap": {"100003": 0}}],
          "irreducibles": [[1, 1], [1, -1]]},
         "representative order of class 1 must divide its centralizer order"),
        ({"name": "x", "order": 3, "exponent": 1,
          "classes": [{"rep_order": 1, "size": 1, "powermap": {}},
                      {"rep_order": 1, "size": 2, "powermap": {}}],
          "irreducibles": [[1, 1], [1, 1]]},
         "size of class 1 must divide the group order"),
        ({"name": "x", "order": 2, "exponent": 1,
          "classes": [{"rep_order": 1, "size": 1, "powermap": {}},
                      {"rep_order": 1, "size": 1, "powermap": {}}],
          "irreducibles": [[1, 1], [1, -1]]},
         "representative order of class 1 must be above 1"),
        ({"name": "x", "order": 10**6, "exponent": 1,
          "classes": [{"rep_order": 1, "size": 1, "powermap": {}}],
          "irreducibles": [[1]]},
         "order 1000000 exceeds the bound 10080"),
        ({"name": "x", "order": 1, "exponent": 1,
          "classes": [{"rep_order": 1, "size": 1, "powermap": {}}],
          "irreducibles": [[{"level": 10**6, "terms": [[0, 1, 1]]}]]},
         "level 1000000 of character 0 at class 0 exceeds the bound 10080"),
        # a rational value written at level 10069 in a table of exponent 2
        ({"name": "x", "order": 2, "exponent": 2,
          "classes": [{"rep_order": 1, "size": 1, "powermap": {"2": 0}},
                      {"rep_order": 2, "size": 1, "powermap": {"2": 0}}],
          "irreducibles": [[1, 1], [1, {"level": 10069, "terms": [[0, -1, 1]]}]]},
         "level 10069 of character 1 at class 1 and the exponent 2 have an lcm"),
    ],
)
def test_load_refuses_impossible_documents_before_building_them(
    doc, fragment, monkeypatch
):
    def no_large_level(e):
        assert e <= groups.DEFAULT_ORDER_BOUND, e
        return reduction_table(e)

    reduction_table = chartab._reduction_table
    monkeypatch.setattr(chartab, "_reduction_table", no_large_level)
    monkeypatch.setattr(cyclo, "_reduction_table", no_large_level)
    with pytest.raises(TableFormatError, match=fragment):
        load_table(json.dumps(doc))


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
            want = _eigenvalue_dft(reg, c)
            got = adams.eigenvalue_multiplicities(t, reg, c)
            assert got == want == (t.order // t_c,) * t_c, (spec, c)


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


# SHA-256 of save_table(t) and of repr(t.eigen) for every bundled group and
# every feit_scan pool group, recorded from the earlier compute_table (power
# classes recomputed per row, every structure constant built up front, a
# nullspace per field element): any change of row order, of a value or of
# its level fails here.
GOLDEN_TABLES = {
    "cyclic:1": (
        "08b4d8d6998861fa2be3d867a3adefe29e8679109affd81e89631cd03bc9c2ad",
        "643db1aa8c053beb7cf53628a5c9fb00f73b4113557f1d9b0cf1fead35919eb0",
    ),
    "cyclic:2": (
        "993a23d5a89bc530f492791dd5218bad37f81748acd4a5d09ff4a79a748d09f1",
        "5d03ed48c06129c7a78ca1d9d318a6f96062e431fe450de860a545aff5b845d5",
    ),
    "cyclic:3": (
        "fecc4dddce33821ef6d624065def18cc0eecc133b2cf71c60ad2258c230e06bf",
        "7628c16dc6af48cbc1dc2665c243af908eabd9e3af0610cefc91e0613f142154",
    ),
    "cyclic:4": (
        "ed1c648656baaa955988e8d997a5db2000fff2dd1fff00efe2bd5f361be9aa34",
        "21e1f4a0b03d0892c2eac8654739e79ede29422779b040a5c49208b6cbd9a747",
    ),
    "cyclic:5": (
        "66555ec4a65a22a7db923547e1538880ec577b725b21dd3e56560f733b8e6cc9",
        "29d80e7281fbfffce512450e1649acab18f1284edeee50b6c6fd3b1150d4b56f",
    ),
    "cyclic:6": (
        "ffee3b5f3171a3a9c442a8a0a88edce139e70ec2f25b66274fd606aadafa18ea",
        "0f744a8bf8120f85e619b27320ee92687ea5f2f3ee12648f9eed9af6c05735e9",
    ),
    "cyclic:7": (
        "f94c61c6051a6c64bea29052e837eea00610a9054f9b7e719bbe0ecde284445e",
        "dae853380bbe712b2d62b8a21c7b0629df09976c94692a06824e4da39b0d451d",
    ),
    "cyclic:8": (
        "10cb37922c459d1a9f3676f33ca5018147752a7a95046ac469c2ce1f91a76e6e",
        "7b1f8ef8930a7522c8e05281c3c7d8746c78adbe1a9ca4544641fe20d8a30a22",
    ),
    "cyclic:9": (
        "970e8465d51f09f8c70c69d8d3337663122f606f44f7d9f975ee40ae26877782",
        "9f4cee2b33f363528f3f08c922058ce2adf641475267e5d36c4a558b755a31d7",
    ),
    "cyclic:10": (
        "191e9dc596417e15107ec347ec67bff7a38343df022b4a0f6f672f360c8d4011",
        "c85a9f98f635bcb824c1750d5bf5502b47c6a71eaba48040e211601c9c444a4d",
    ),
    "cyclic:11": (
        "f776fc6d17fba71644a92c402e108bbe2a2b398f067d17444e9a87359eca06bb",
        "56fcf7101af4e7aec7de85cae58e4f967458db71c272881a81548fd11f0b60da",
    ),
    "cyclic:12": (
        "3384807a8a2ebf7e428adc97f2c50191ecad4e6a178bc4637526beba6e9ed32c",
        "6c84929f8080f89addd96ffb8ab5e013cdb7e2729f4983eca0d51a7858221aaa",
    ),
    "product:cyclic:2,cyclic:2": (
        "84787b4973f4f4f8a1fe32a76eebd85cab1c370a93099a5f2d6e8025284cdb6e",
        "f710e122a1a8ae344b7c68c3b0d6250e3651cfa8559a32770163912c843d562a",
    ),
    "product:cyclic:2,cyclic:4": (
        "4a5a4347c55f486d9869410c314d3917ad54433e86711c3130fb459da2825a26",
        "b9a95ceb770487ae89f61926865040cf93734deaf20b00fe808e959e418dc7b3",
    ),
    "sym:3": (
        "7fa67fc03a1b3248473bec9fac392cda72996d857f5f30e067bda48cdd9be875",
        "92cc2d6923166f1195d59facdae337cbcd9d05ebd4fbf994fe0b69a761543088",
    ),
    "dihedral:8": (
        "4d787fc5ff540addfb331b15aef47abcc46ec52535f4d13fd309b036214914ec",
        "d9ed53def1eab4c3ec1442fa1045053c734546b1675fc33b84a33ce92fbf1be5",
    ),
    "quaternion:8": (
        "1bf1788185e6eaee717f36827e38d328b2463fb1af421d9c83bead201548eb4d",
        "11c33c7d784aaea957e8610a8631bbdb1057e1eaa535c4e4ebea187b4612e978",
    ),
    "dihedral:12": (
        "4b38e45f2fbf60387439612dc9e2c7599ba255c462eca6e8be8c3c81a2f77748",
        "2067a34cae341fe8782dc291db323866c66ea6149459794d6fbe40e9378d3e9d",
    ),
    "alt:4": (
        "475d7bbb8944de47c5c34b70fe46d40fb9abbddf0599223722e87859682b80ec",
        "03017395a011189c27414570c6fc83d73fb21c72a1e9248960b0205387d8221e",
    ),
    "sl2:3": (
        "4c3bc99edd3a82d885912cecdb8a65d05932c3a008b118820fdf2292cbbbdb59",
        "ec8e8b7e3757a2eb4cfd853d79c865414d59d9684629ae154840059b1251f8d9",
    ),
    "sym:4": (
        "550a0fe34738c1c35ecddba53bbcf591afcc3107eb3777fa94bff488dc19f0a3",
        "0b341596f156aa0235ef8487424cc3acbb57ac96a14721bc0c35c1cbcd36289e",
    ),
    "dihedral:60": (
        "b0519be320b61714a6298963cb41d5fbcbab246396ec27a42e1c2c105d222b84",
        "dc9eb64a429829997c77e05e76ca1bbb77f70e2cca9e308e0f2a8fbaf9925193",
    ),
    "dihedral:50": (
        "767474ec703385b2376fc54fa7435ed19e5e93543463021306763e2f8088d489",
        "800388f8a1cfd8c1fd4461efb9c2b6874f4809adb226f9f560431f24c4a107e5",
    ),
    "product:sl2:3,cyclic:4": (
        "e51f99230c66294e69ba2522e3bd361160ea62407a39d5fb48776c4933ef413a",
        "69417ec19625f940fe3a1cf8c6bf60f17c2fe5c4cdbc80430a33204c02d07b27",
    ),
    "dihedral:54": (
        "21b6f637687f9db1584201ab8a3642b2862db1bb6cdbf6e5e8a7e8c843536217",
        "2be8b51f4a9d0ee3da2b5a19f78d9223cd1c8a9ea77d5e44e6b6cfd14370b809",
    ),
    "dihedral:56": (
        "c041ce0d177afb4beb20e68f20c5229c8487c8409f9cfeafee4be9ca6d7cf70b",
        "e86756f329186c493b61046b34cc3d8ddd8811be6e60bf374f066992b9aaffef",
    ),
    "elementary:5,2": (
        "00deca07567502c81d49375327c4e762b9fb712376516a5674d113fbf8890702",
        "4089e967959a5fe9fa34cdcdbb8191dbbdf38804dd793f4011dcab079da86821",
    ),
    "elementary:3,3": (
        "64a7666f48172e7d14941f0462cdbe32fac92c1b55f4749b168608f83d0529d0",
        "882008da8b4498af9f04e678057d3b08cc7adcd3615e5b328d75bfac4ab26fe8",
    ),
    "dihedral:52": (
        "72260d02f5fa39aeed54ab83f2e1d5aba416642c16f3840a81f29b0b43a3e22c",
        "4a037f439cb2158a2e40d0775f030bd76bb5bbd9dd63fd7ace8f234783843a3b",
    ),
    "dihedral:42": (
        "23ddd7763ec559b4aab2a1384b59935db475fdcabe4af44f91c87aed6bb7ff91",
        "15a75788568c8039924ebba930514bae7145f695f533737781c95a264f830f72",
    ),
    "dihedral:48": (
        "c7876a3ef9b80a0af8b3ad3beff35c91bf4571394d5c7eab0f9563d472816e7d",
        "3d3385b3287a7bf1ff9880f5f9fa9e5935d4c1dc0cf25f7f7262d4f2d616157b",
    ),
    "product:sym:4,cyclic:4": (
        "539db18c9c95a3f6ab4c7750419a51701ab959d1a2e077d0afb3a1385729465b",
        "95a59539471c47781625209ed6326c109cf14d5745d100ad582bdf7ffb39f8ab",
    ),
    "dihedral:40": (
        "66973bc81b6a03c6a7ce78f857f311780d8ab8e31c6569d0065405599e93f57c",
        "f32f60d8fb56a31c7b75b35dda85a51fc7e611672dd988c0ec22db1db2047c37",
    ),
    "product:sl2:3,cyclic:3": (
        "710caf8e1a4ab39f796c891e753ac45ed30c8f1a88a78e057d0a0e58fdf93845",
        "61dde11508fbd989dfac42946867728741cd43d01699a393a13d72ba3e0a4798",
    ),
    "dihedral:44": (
        "8c1ea453bb7fad2ba5b224b5093c84b2ddedddf7e56a3e6f501a670d824a46ca",
        "39f0a5cf0272db43634b467fcdc6ca90af4524a3f99a1328125ec3faf70f1266",
    ),
    "product:sym:3,cyclic:5": (
        "f46782d113460ffcb042dc3daf18046e3921e6efad331c147a45b0cbe01db723",
        "ae5e123f97ffb7e3da385f7c17b90dd3eb284565519bd49470ee838e6c310088",
    ),
    "product:alt:5,cyclic:3": (
        "4312afd97657f7b700556bd4407fbb87bc26e9a64f462b9ec79b9098e6ce3c74",
        "8b81ad8205cb74f4c3fe6b4b9159c6fec13ac28f2bbb2d8d9fa50f1103b41004",
    ),
    "sl2:7": (
        "8bbad82684bedf7c0f21df8a82de75161caa34dbf081070d5888f71b71cc03a5",
        "346604abeee3c21b3d822a3a63774f47ef438a1e2fd4b04c0bcfbfe84af32d7c",
    ),
    "product:dihedral:10,cyclic:3": (
        "65a8089f719ec113c3672bcee96bb1a305da778c515d7f94e4f1559251cc6091",
        "fad38351d8bc49946750cdb2867164eee62a81b1ce72882e71dfb332c6cf8265",
    ),
    "product:alt:4,cyclic:4": (
        "1e3f22366f77eea3e1e60388fb2d6dfc5bf1e323c8bb92f8e1fb910fb49d76f4",
        "ae81674fdec51707cddfee2d74c0f57cbfc46b4f5a6b77d6b5a27ffa326f2897",
    ),
    "product:quaternion:8,cyclic:4": (
        "f1ee5e3e6b89683ce7c0d43832e8e666e381a9e20b2de3492d81f35e1f925c12",
        "0f930ce0753775880980097fe8626a6e97971dba26da050bc94f88c577c61e6a",
    ),
    "dihedral:30": (
        "dfc2ab7fc367424173fdb4eab0cf76465366e1e5ef6bd0dab81eebc187e28715",
        "6eb49804d3778acfc0b0cc9e02a52a98a4738256d1883bb7d8bb7b520b290f9c",
    ),
    "product:dihedral:8,cyclic:4": (
        "b9b3a5ee4cfaf748dd4b6c5c0c34423c15edc4222b6337c03f1ec0500ffb7cc9",
        "39a2990d10363b30b86a5fb0595ff53683f34a42ff42e7c1502389a4558041d4",
    ),
    "product:alt:4,alt:4": (
        "181a5bf0858a0e8c4960b197c6f357927a51155d6b8a28d4734ca32e446e48b1",
        "f3956868b7c50e2e990780cf4619ca2efed5bce55f6f263157c4354cb42ea08c",
    ),
    "product:sym:3,cyclic:6": (
        "ecc69998dc36fdcc4885430977b9f7477bb0de2a84b0aaba1667b49a169f3340",
        "eaa3be74aac8a2daf3cb434a7e3fe7dfb6647351bb80a9da34c5096fadf767c4",
    ),
    "product:sym:3,sym:4": (
        "4a07790e4b06e222272cf3d1a4447feb78505bf638b9544421083727af25e0b8",
        "cbe8d89884105ff4ad5c2380ba9c6e501ccd83d605ce7b1f095a154153a78938",
    ),
    "product:sym:5,cyclic:2": (
        "148cfba00e878dcf384b4045c716b247f61dc1fb1da044bb318b07298c8aa349",
        "393e73a838cb0f960d96899727e2d9428c3bfdbe3a63e57f43d1ee87a0531720",
    ),
    "product:sym:4,cyclic:3": (
        "2f1e765320e9eff8d3cd32e2f569f278fd7c497ee1f816dec0fbeeb83535cbe1",
        "29cb91240881ec857b21c7b366548743e9d7d51812065450a9786785e968d4d1",
    ),
    "product:sl2:3,cyclic:2": (
        "3493163e3faf3fee27cc71b6db90b5252398d6d60394b1984662562177670ce3",
        "0a239dc7fbfac117525eb2cfe9413dde1c53718569be32a0b13c318bd5cf86f1",
    ),
    "dihedral:36": (
        "37f8b918de27be4d0d53c2a08e1fc9cfaee380d2ac4e5fc748e022cb0cc30db4",
        "993552999efb2dbf56edfcab6035d57d752c37a8b84cbe16a868d7c6a958f9fa",
    ),
    "sym:6": (
        "c8795a7001c8e573243c305e752fc2605eefca34d2625b2c1349ec20dd098c77",
        "3cc84c33564442caff90aec957ac26c7a186486ac3b2f4093d80b97c1642f82c",
    ),
    "product:alt:5,cyclic:2": (
        "1981f7a38171f792e9911911c1e19c41e92bb910e30cf3528d13d2d03557750b",
        "3446e559a7abda9283bfe2fc4f93da40b8f6643dd285d7fb33439ac424544b10",
    ),
    "sl2:5": (
        "082c0037eba0f95c19e76b58eb0f4f27c4188b38762a67225af04a58593797b3",
        "3483834ade62306faca0280dcac55415fe269808192c48a9b1d1e6a6e659acda",
    ),
    "product:alt:4,cyclic:3": (
        "2afe24d0462603b8b9ac40597966fa625e29143256c53bdeb8c49097e352d77f",
        "c6438a0288aeea5cfe39680f88ae0970812ad3e12bdbf58ab9781fd4017a504f",
    ),
    "product:sym:3,alt:4": (
        "a799dfcc32e9ac5c5fc09f0727dbbe8bf847041d17bab63544fb8e960af20314",
        "3906081dad0c66903d30b43f29b4f7bc7a11eda692cec83e5ca72697d3a57fa7",
    ),
    "extraspecial:27": (
        "9f7e89e761ff8c6314df2f95d08dc5e0bb09dabb1c5ee57daa889f4944bdf78b",
        "968656f8cb40ef4c1e3e36cdd241ee41e93c49020f51c0634e5a313d556eaa12",
    ),
    "alt:6": (
        "41f1bf4539eb642b444bf99f7829dfc2aa0b9ea5ab0f7eb76181e4505417c603",
        "8b9eac83ff3b5e12062aeb302f8aac7c2b21850f1e1e972e020279eae79505de",
    ),
    "product:sym:4,cyclic:2": (
        "dc13e175d3fbed928839bec0bf1574ce183796f94dfbe6eda3dbdfa6d025d95b",
        "d02bb8a457b7de47c738624a07bfec544a431b0dab299bacdb816e28445ba017",
    ),
    "sym:5": (
        "93b37161226b4ad2048b24f99d86cd48f3517e9173523b7a52ddfc4662ba1867",
        "90e6334a799d9915671fe685e23460269e73c202ae641df92ae0896af56f3e1c",
    ),
    "product:sym:3,sym:3": (
        "ed3eb526a128bbda682f3465a73a925630c29a1e5309108cb44bea7130c9e52e",
        "832ae0ca1c1e52a0adcff4c94e937cbddf3c85630efdc65900157107a5d99073",
    ),
    "alt:5": (
        "7d50b86f7ecc43d5382050cb3f7ce721ae7e05eea02d50edf76aa9719c3ffb5a",
        "c8cbcab24c34d08b7f99a26529d831c586896fc895b5c697648ecb723b14d5bf",
    ),
    "dihedral:32": (
        "5cd226b51d58b66ff4d99c09596cfc6e69d1b22e87cc35e79577d45219c6a384",
        "5f1b6e8119fe9ad3000cde67e193c0cb5b30253b337a7a412830cc96f343f33c",
    ),
    "product:quaternion:8,sym:3": (
        "9c6f73b3d0a942b5cfe8a237e71473ec4497f616334e037e7c335f93851d44eb",
        "6d523351d90bb707db88c2a6ede77a5747b2190976a0c0272b92b4de11e5d479",
    ),
    "dihedral:28": (
        "7ea19730194c283d2edf3ed7b28064f6023e8e2505202766a087240a4f6d60cb",
        "0dea5b293a6c44a7990742ece886f8362798b058d7de53a56a15001546f8d9d0",
    ),
    "product:cyclic:2,dihedral:16": (
        "265eeb4f7fb6ab4f568548ca838677857676867714c1d5227033d8c852806b77",
        "6a26cedba064fe8cf9ea493666f24c811183c282dc33fa260ab9c8141ea262e0",
    ),
}


def test_tables_match_recorded_hashes():
    assert set(GOLDEN_TABLES) == set(runner.C_SMALL + FEIT_POOL)
    for spec, (table_hash, eigen_hash) in GOLDEN_TABLES.items():
        t = table(spec)
        assert hashlib.sha256(save_table(t)).hexdigest() == table_hash, spec
        assert hashlib.sha256(repr(t.eigen).encode()).hexdigest() == eigen_hash, spec


def test_power_map_is_kept_and_derived_for_loaded_tables():
    # a computed table keeps the map it built from the representatives; a
    # loaded one derives the same map from its prime power maps
    for spec in runner.C_SMALL:
        t = table(spec)
        loaded = load_table(save_table(t))
        assert loaded.power_map == t.power_map, spec
        for a in range(t.exponent):
            want = list(t.group.class_power_map(a))
            assert [
                pm[a % cls.rep_order] for pm, cls in zip(t.power_map, t.classes)
            ] == want, (spec, a)
            assert [loaded.class_of_power(c, a) for c in range(t.num_classes)] \
                == want, (spec, a)


def _at(poly, lam, p):
    out = 0
    for coef in reversed(poly):
        out = (out * lam + coef) % p
    return out


def test_charpoly_roots_are_the_eigenvalues():
    rng = random.Random(11)
    primes = sorted({
        chartab._choose_prime(g.order, g.exponent())
        for g in map(groups.from_spec, FEIT_POOL[:12])
    })
    cases = []
    for p in primes:
        for d in range(1, 9):
            cases.append(([[rng.randrange(p) for _ in range(d)] for _ in range(d)], p))
            # a sparse matrix, with zero pivots in its Hessenberg reduction
            cases.append(([[rng.choice((0, 0, 1, p - 1)) for _ in range(d)]
                           for _ in range(d)], p))
        cases.append(([[0] * 3 for _ in range(3)], p))
        cases.append(([[5 if i == j else 0 for j in range(4)] for i in range(4)], p))
        cases.append(([[rng.randrange(p)]], p))
        # a Jordan block: one root, a one-dimensional eigenspace
        cases.append(([[2, 1, 0], [0, 2, 1], [0, 0, 2]], p))
    for mat, p in cases:
        d = len(mat)
        poly = chartab._charpoly_mod(mat, p)
        assert len(poly) == d + 1 and poly[-1] == 1, (mat, p)
        for lam in range(p):
            shifted = [
                [(v - (lam if a == b else 0)) % p for b, v in enumerate(row)]
                for a, row in enumerate(mat)
            ]
            assert (_at(poly, lam, p) == 0) == bool(
                chartab._nullspace_mod(shifted, p)
            ), (mat, p, lam)


def test_split_fails_when_a_root_is_missed(monkeypatch):
    charpoly = chartab._charpoly_mod

    def drop_least_root(mat, p):
        poly = charpoly(mat, p)
        lam = next(x for x in range(p) if _at(poly, x, p) == 0)
        while _at(poly, lam, p) == 0:  # divide out every factor x - lam
            desc = poly[::-1]
            quot = [desc[0]]
            for coef in desc[1:-1]:
                quot.append((coef + lam * quot[-1]) % p)
            poly = quot[::-1]
        return poly

    monkeypatch.setattr(chartab, "_charpoly_mod", drop_least_root)
    with pytest.raises(ConsistencyError, match="class-sum matrix failed to split") \
            as err:
        compute_table(groups.symmetric(3))
    assert "of sym:3" in str(err.value) and "class 1" in str(err.value)


# groups outside GOLDEN_TABLES with most classes powers of a few classes of
# higher order, so most of their stored vectors are pushed forward from
# another class's vector rather than transformed on their own
PUSHED_FORWARD = ("cyclic:60", "elementary:2,6", "dihedral:120",
                  "product:sym:5,cyclic:4")


def test_pushed_forward_vectors_match_the_transform():
    # every stored vector is the cyclotomic transform of its row's values
    # on the powers of its class; the transform is a function of those
    # values, so it runs once per distinct tuple of them
    for spec in PUSHED_FORWARD:
        t = table(spec)
        done = {}
        for i, row in enumerate(t.irreducibles):
            for c, powers in enumerate(t.power_map):
                key = t.row_key([row[k] for k in powers])
                if key not in done:
                    done[key] = _eigenvalue_dft(t.irreducible(i), c)
                assert t.eigen[i][c] == done[key], (spec, i, c)
        chartab._validate(t)


def test_loaded_tables_derive_the_stored_vectors():
    # a loaded table runs the modular transform on its values mod p and
    # lifts every vector back to its value; it must land on the vectors the
    # splitting stored, pushed-forward classes included
    for spec in PUSHED_FORWARD:
        t = table(spec)
        assert load_table(save_table(t)).eigen == t.eigen, spec


def test_loaded_values_at_a_level_off_the_exponent():
    # the JSON format takes a value at any level; one whose level does not
    # divide the exponent is reduced mod p from its exponent-level form
    t = table("cyclic:3")
    doc = json.loads(save_table(t))

    def at_level_15(v):
        terms = [[0, v, 1]] if isinstance(v, int) else v["terms"]
        return {"level": 15, "terms": [[5 * i, num, den] for i, num, den in terms]}

    doc["irreducibles"] = [[at_level_15(v) for v in row] for row in doc["irreducibles"]]
    loaded = load_table(json.dumps(doc))
    assert {v.level for row in loaded.irreducibles for v in row} == {15}
    assert loaded.eigen == t.eigen


def test_loaded_values_at_a_level_sharing_a_galois_exponent():
    # zeta_3 written at level 6: the power map's Galois exponent 2 is a
    # unit mod 3 but not mod 6, so it acts at level 6 as 5 = 2 (mod 3)
    t = table("cyclic:3")
    doc = json.loads(save_table(t))

    def at_level_6(v):
        terms = [[0, v, 1]] if isinstance(v, int) else v["terms"]
        return {"level": 6, "terms": [[2 * i, num, den] for i, num, den in terms]}

    doc["irreducibles"] = [[at_level_6(v) for v in row] for row in doc["irreducibles"]]
    loaded = load_table(json.dumps(doc))
    assert {v.level for row in loaded.irreducibles for v in row} == {6}
    assert loaded.power_map == t.power_map
    assert loaded.eigen == t.eigen


@pytest.mark.parametrize("pick", [0, -1])
def test_loaded_power_map_is_checked_by_the_transform(pick):
    # an order-9 class whose 3-power is moved to the other order-3 class
    # keeps the orders right; deriving the vectors at load finds it, whether
    # the class is the root the transform runs at or one of the power
    # classes that read their vectors from it
    doc = json.loads(save_table(table("cyclic:9")))
    order9 = [k for k, c in enumerate(doc["classes"]) if c["rep_order"] == 9]
    order3 = [k for k, c in enumerate(doc["classes"]) if c["rep_order"] == 3]
    pm = doc["classes"][order9[pick]]["powermap"]
    pm["3"] = next(k for k in order3 if k != pm["3"])
    with pytest.raises(TableFormatError, match="cyclic:9"):
        load_table(json.dumps(doc))


def test_power_class_is_checked_against_its_own_values(monkeypatch):
    # a vector pushed forward to the wrong exponents still sums to the
    # degree; only its residue at the power class reveals it
    push = chartab._power_vector

    def shifted(vec, a):
        out = push(vec, a)
        return out[-1:] + out[:-1]

    monkeypatch.setattr(chartab, "_power_vector", shifted)
    with pytest.raises(ConsistencyError, match="disagrees with its root class") \
            as err:
        compute_table(groups.cyclic(4))
    assert "of cyclic:4" in str(err.value)


def test_validate_checks_every_row_norm():
    # a row's vectors doubled keep it orthogonal to every other row and its
    # values and degree untouched: only its own norm, 4 instead of 1, tells
    for spec in ("sym:3", "quaternion:8", "alt:5"):
        t = table(spec)
        eigen = t.eigen
        for i, row in enumerate(eigen):
            t._eigen = eigen[:i] + (tuple(tuple(2 * m for m in vec) for vec in row),) \
                + eigen[i + 1:]
            with pytest.raises(TableFormatError,
                               match=f"row orthogonality of characters {i} and {i}"):
                chartab._validate(t)
        t._eigen = eigen
        chartab._validate(t)
