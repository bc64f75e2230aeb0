import hashlib
import json
import math
import random
from fractions import Fraction
from operator import mul

import pytest

from feitlab import adams, chartab, cli, cyclo, groups, numth, runner
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
from bundled_corpus import ACCEPTANCE, CORPUS, FEIT_POOL, POINT_SPECS
from group_references import (
    class_sum_columns, cyclotomic_inner_product, tuple_conjugacy_classes,
)


def table(spec):
    return compute_table(groups.from_spec(spec))


def _row_key(t, row):
    """A row of values as a key, each value written at the table's exponent
    level."""
    return tuple((w.nums, w.den) for w in (v.at_level(t.exponent) for v in row))


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


def _hand_built(t):
    """Class functions beside the rows: a virtual character, the regular
    character, functions with denominators, and values at levels off the
    exponent (a fifth and a seventh root of unity)."""
    r = t.num_classes
    rows = [t.irreducible(i) for i in range(r)]
    virtual = t.class_function((0,) * r)
    for i, row in enumerate(rows):
        virtual = virtual + (i + 1) * (-1) ** i * row
    halves = t.class_function([v / 2 for v in virtual.values])
    thirds = t.class_function(
        [v / 3 + Fraction(1, 2) * (c % 2) for c, v in enumerate(rows[-1].values)]
    )
    off = t.class_function(
        [v + zeta(5, c) for c, v in enumerate(rows[0].values)]
    )
    mixed = t.class_function(
        [zeta(7, 2 * c) / 2 - v for c, v in enumerate(rows[-1].values)]
    )
    return rows + [virtual, t.regular_character(), halves, thirds, off, mixed]


def test_inner_product_matches_cyclotomic_reference():
    # the integer group-ring sum gives the value of the cyclotomic products
    # exactly, rational or not, also over denominators and off the exponent
    for spec in CORPUS:
        t = table(spec)
        funcs = _hand_built(t)
        for a in funcs:
            for b in funcs:
                assert inner_product(a, b) == cyclotomic_inner_product(a, b), spec


def test_inner_product_of_a_fifth_root_on_sym3():
    t = table("sym:3")
    f = t.class_function([zeta(5), 0, 0])
    assert inner_product(f, f) == Fraction(1, 6)
    got = inner_product(f, t.trivial_character())
    assert got == zeta(5) / 6 and not got.is_rational()


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
    # complex conjugation is k = -1; of cyclic:4's rows, only the two of
    # order at most 2 are real
    c4 = table("cyclic:4")
    real = 0
    for chi in map(c4.irreducible, range(4)):
        bar = chi.conjugate()
        assert bar == galois_conjugate(chi, -1)
        assert bar.values == tuple(v.conjugate() for v in chi.values)
        real += bar == chi
    assert real == 2


def test_galois_permutes_rows():
    for spec in ("cyclic:12", "sl2:3", "dihedral:12"):
        t = table(spec)
        keys = {_row_key(t, row) for row in t.irreducibles}
        from feitlab.cyclo import units

        for k in units(t.exponent):
            moved = {
                _row_key(t, [v.galois(k) for v in row]) for row in t.irreducibles
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


def _cyclotomic_orthonormal(t, values):
    """Orthonormality of rows of values on the classes of t, as class
    functions, by cyclotomic inner products: the reference the integer Gram
    pass of ``_validate`` is checked against."""
    rows = [t.class_function(row) for row in values]
    return all(
        cyclotomic_inner_product(rows[i], rows[j]) == (1 if i == j else 0)
        for i in range(len(rows))
        for j in range(i, len(rows))
    )


def _transform_prime(order, exponent):
    """The prime of the splitting and the multiplicity transform."""
    return chartab._root_of_unity(exponent, 2 * math.isqrt(order) + 1)[0]


VALUE_TAMPERS = (
    lambda t, i, c: -t.irreducibles[i][c],
    lambda t, i, c: t.irreducibles[i][c] + 1,
    lambda t, i, c: t.irreducibles[i][c].conjugate(),
    lambda t, i, c: t.irreducibles[i][c] * zeta(t.classes[c].rep_order, 1),
    lambda t, i, c: t.irreducibles[(i + 1) % t.num_classes][c],
    lambda t, i, c: t.irreducibles[i][-c],
    # the same residue mod the transform's prime: only the give-back of the
    # derived vectors tells
    lambda t, i, c: t.irreducibles[i][c] + _transform_prime(t.order, t.exponent),
)


def test_load_rejects_every_table_the_cyclotomic_check_rejects():
    # one value changed at a time: whenever the reference finds the rows
    # not orthonormal, load_table refuses the table
    rejected = 0
    for spec in CORPUS:
        t = table(spec)
        r = t.num_classes
        for i in sorted({0, r // 2, r - 1}):
            for c in sorted({1, r // 2, r - 1} - {0}) if r > 1 else ():
                for tamper in VALUE_TAMPERS:
                    rows = [list(row) for row in t.irreducibles]
                    rows[i][c] = tamper(t, i, c)
                    if _cyclotomic_orthonormal(t, rows):
                        continue
                    doc = json.loads(save_table(t))
                    doc["irreducibles"][i][c] = rows[i][c].to_json()
                    with pytest.raises(TableFormatError, match=spec):
                        load_table(json.dumps(doc))
                    rejected += 1
    assert rejected > 700


@pytest.fixture
def no_large_level(monkeypatch):
    """Fail any reduction table above the order bound while the test runs;
    chartab reaches the reduction tables only through cyclo."""
    reduction_table = cyclo._reduction_table

    def guarded(e):
        assert e <= groups.DEFAULT_ORDER_BOUND, e
        return reduction_table(e)

    monkeypatch.setattr(cyclo, "_reduction_table", guarded)


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
    ],
)
def test_load_refuses_impossible_documents_before_building_them(
    doc, fragment, no_large_level
):
    with pytest.raises(TableFormatError, match=fragment):
        load_table(json.dumps(doc))


def test_load_reads_a_value_written_far_above_the_exponent(no_large_level):
    # a rational value written at level 10069 in a table of exponent 2: its
    # own level is within the bound, and its projection builds none above it
    doc = {"name": "x", "order": 2, "exponent": 2,
           "classes": [{"rep_order": 1, "size": 1, "powermap": {"2": 0}},
                       {"rep_order": 2, "size": 1, "powermap": {"2": 0}}],
           "irreducibles": [[1, {"level": 10069, "terms": [[0, -1, 1]]}], [1, 1]]}
    loaded = load_table(json.dumps(doc))
    assert loaded.irreducibles == table("cyclic:2").irreducibles


def test_load_rejects_garbage():
    with pytest.raises(TableFormatError):
        load_table(b"not json at all")
    with pytest.raises(TableFormatError):
        load_table(json.dumps({"name": "x"}))
    with pytest.raises(TableFormatError, match="invalid JSON"):
        load_table(b"\x80abc")
    with pytest.raises(TableFormatError, match="malformed table document"):
        load_table(_tamper(lambda d: d["classes"][1].__setitem__("powermap", [1])))
    # a zero denominator, in a rational value and in a term
    for bad in ("1/0", {"level": 3, "terms": [[1, 1, 0]]}):
        with pytest.raises(TableFormatError, match="malformed table document"):
            load_table(_tamper(lambda d: d["irreducibles"][1].__setitem__(1, bad)))


@pytest.mark.parametrize(
    "bad", [" 1", "+1", "1_0/1_0", "3/3", "1", {"level": 1, "terms": [[0, 2, 2]]}]
)
def test_load_reads_a_value_only_as_an_algebraic_integer(bad):
    # the value 1 of character 1 at class 1 of sym:3, written as a string or
    # as a term of denominator 2: save_table writes neither
    with pytest.raises(
        TableFormatError,
        match="malformed table document for sym:3: value of character 1 at class 1: ",
    ):
        load_table(_tamper(lambda d: d["irreducibles"][1].__setitem__(1, bad)))


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
        (lambda d: d["irreducibles"][1].__setitem__(2, 3),
         "eigenvalue multiplicity exceeds the degree at class 2, exponent 1, character 1 of sym:3"),
        # -1 + 7, 7 the transform's prime: the same residue, so only the
        # give-back of the derived vector tells
        (lambda d: d["irreducibles"][0].__setitem__(1, 6),
         "eigenvalue multiplicities (0, 1) do not give back the value Cyc(6) of character 0"
         " of sym:3 at class 1"),
        (lambda d: d.update(name=[1]), "name must be a JSON string, got [1]"),
        (lambda d: d.update(name=True), "name must be a JSON string, got True"),
    ] + [
        # a power-map key is read only as save_table writes its prime
        (lambda d, key=key: d["classes"][1]["powermap"].update({key: 0}),
         f"power map key {key!r} of class 1 must be a prime in decimal digits")
        for key in (" 2", "2 ", "02", "+2", "2.0", "\u0662", "two")
    ],
)
def test_load_names_the_failed_check(mutate, fragment):
    with pytest.raises(TableFormatError) as err:
        load_table(_tamper(mutate))
    assert fragment in str(err.value)


# each integer field of the format: the spec whose document has it, the
# place of the field in that document, and the words that name it
INTEGER_FIELDS = [
    ("sym:3", lambda d: (d, "order"), "order"),
    ("sym:3", lambda d: (d, "exponent"), "exponent"),
    ("sym:3", lambda d: (d["classes"][1], "rep_order"), "rep_order of class 1"),
    ("sym:3", lambda d: (d["classes"][1], "size"), "size of class 1"),
    ("sym:3", lambda d: (d["classes"][1]["powermap"], "3"), "power map of class 1 at 3"),
    ("sym:3", lambda d: (d["classes"][2]["powermap"], "2"), "power map of class 2 at 2"),
    ("cyclic:3", lambda d: (d["irreducibles"][1][1], "level"),
     "value of character 1 at class 1: level"),
] + [
    ("cyclic:3", lambda d, k=k: (d["irreducibles"][0][1]["terms"][1], k),
     "value of character 0 at class 1: terms")
    for k in range(3)
] + [
    # cells (1, 1) of cyclic:3, above, and (1, 2) repeat the valid values of
    # cells (0, 2) and (0, 1), and a float or bool entry equals the int it
    # replaces, so these are refused at their own cells only if a value
    # parsed once is reused for exact ints alone
    ("cyclic:3", lambda d, k=k: (d["irreducibles"][1][2]["terms"][0], k),
     "value of character 1 at class 2: terms")
    for k in range(3)
]


@pytest.mark.parametrize("spec, place, field", INTEGER_FIELDS,
                         ids=[f"{field}-{k}" for k, (_, _, field) in enumerate(INTEGER_FIELDS)])
@pytest.mark.parametrize("form", [float, lambda v: v + 0.5, str, bool],
                         ids=["float", "fraction", "string", "bool"])
def test_load_refuses_an_integer_field_that_is_not_a_json_integer(spec, place, field, form):
    # a float, a numeric string or a bool in an integer field is refused,
    # not truncated or converted; the error names the field
    doc = json.loads(save_table(table(spec)))
    where, key = place(doc)
    assert type(where[key]) is int
    where[key] = form(where[key])
    with pytest.raises(TableFormatError,
                       match=f"malformed table document for {spec}: {field}"):
        load_table(json.dumps(doc))


def test_load_guard_cases_repeat_an_earlier_valid_value():
    doc = json.loads(save_table(table("cyclic:3")))
    rows = doc["irreducibles"]
    assert rows[1][1] == rows[0][2] and rows[1][2] == rows[0][1]
    assert all(isinstance(v, dict) for v in (rows[0][1], rows[0][2]))


@pytest.mark.parametrize("spec", ["cyclic:12", "elementary:2,4"])
def test_load_parses_each_distinct_value_once(spec, monkeypatch):
    blob = save_table(table(spec))
    distinct = {json.dumps(v) for row in json.loads(blob)["irreducibles"] for v in row}
    calls = []
    real = Cyclotomic.from_json

    def counted(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(Cyclotomic, "from_json", staticmethod(counted))
    assert save_table(load_table(blob)) == blob
    assert len(calls) == len(distinct)


# the corpus's tables and five of the feit pool's, among them products, an
# elementary group and sym:6, the pool's largest
COMPACT_SPECS = CORPUS + ("product:sl2:3,cyclic:4", "elementary:5,2", "sym:6",
                          "product:alt:5,cyclic:3", "extraspecial:27")


def test_compact_round_trip_is_the_saved_round_trip():
    # save_table writes the one, compact serialization that verify's
    # table_integrity round-trips: its bytes load to a table that saves to
    # them, also with every value written at the exponent's level, since
    # load_table places each value at its class's level
    for spec in COMPACT_SPECS:
        t = table(spec)
        blob = save_table(t)
        assert save_table(load_table(blob)) == blob, spec
        doc = json.loads(blob)
        doc["irreducibles"] = [[v.at_level(t.exponent).to_json() for v in row]
                               for row in t.irreducibles]
        assert save_table(load_table(json.dumps(doc))) == blob, spec


def test_regular_character_decomposition():
    t = table("sym:3")
    reg = t.regular_character()
    for i in range(3):
        assert inner_product(reg, t.irreducible(i)) == t.degree(i)


def test_regular_character_vectors_match_the_transform():
    # the degree-weighted sum of the row vectors is the transform of the
    # regular character's values: |G|/t at every exponent
    for spec in CORPUS:
        t = table(spec)
        reg = t.regular_character()
        for c, cls in enumerate(t.classes):
            t_c = cls.rep_order
            want = _eigenvalue_dft(reg, c)
            got = adams.eigenvalue_multiplicities(t, reg, c)
            assert got == want == (t.order // t_c,) * t_c, (spec, c)


def test_classes_from_generator_tables_match_tuple_conjugation():
    for spec in CORPUS + FEIT_POOL:
        g = groups.from_spec(spec)
        got = [tuple(g.elements[x] for x in c.members) for c in g.conjugacy_classes()]
        assert got == tuple_conjugacy_classes(g), spec
        assert [c.rep for c in g.conjugacy_classes()] == [c[0] for c in got], spec


def test_class_sums_from_one_element_match_the_whole_class():
    for spec in CORPUS + FEIT_POOL:
        g = groups.from_spec(spec)
        for i in range(len(g.conjugacy_classes())):
            got = [dict(col) for col in chartab._class_sum_columns(g, i, spec)]
            assert got == class_sum_columns(g, i), (spec, i)


def test_left_rows_are_the_products():
    for spec in ("sym:4", "product:sym:3,cyclic:5", "quaternion:8", "cyclic:1"):
        g = groups.from_spec(spec)
        for h in range(g.order):
            want = [g.index[groups.compose(g.elements[h], x)] for x in g.elements]
            assert g.left_row(h) == want, (spec, h)


def test_table_routes_build_no_multiplication_table():
    # the element tables serve the subgroup lattice and the oracle; what
    # `feit` and `s` run never builds them, up to sym:6 in the feit pool
    for spec in ("sym:6", "product:alt:5,cyclic:3", "dihedral:60"):
        t = runner.resolve_input(spec)
        for i in range(t.num_classes):
            adams.feit_indicator(t, i)
            adams.invariant(t, i, t.exponent)
        assert not {"mul", "inv"} & set(vars(t.group)), spec


def _level_terms(t, vectors):
    """Per class, the (exponent at level e, multiplicity) terms of a vector."""
    return [
        [(j * (t.exponent // cls.rep_order), m) for j, m in enumerate(vec) if m]
        for cls, vec in zip(t.classes, vectors)
    ]


def _scaled_inner_product(t, u, v):
    """|G| * <u, v> from eigenvalue multiplicity vectors, in integers, on
    the power basis at the exponent: the sum the Gram pass of ``_validate``
    checks."""
    us, vs = _level_terms(t, u), _level_terms(t, v)
    sizes = [cls.size for cls in t.classes]
    return chartab._group_ring_sum(t.exponent, zip(sizes, us, vs))


def test_integer_row_routes_match_cyclotomic():
    # the integer pair routine is |G| times the Schur inner product, and the
    # row conductor read from the vectors is the Galois search on the values
    for spec in CORPUS + FEIT_POOL:
        t = table(spec)
        rows = [t.irreducible(i) for i in range(t.num_classes)]
        for i in range(t.num_classes):
            for j in range(i, t.num_classes):
                got = _scaled_inner_product(t, t.eigen[i], t.eigen[j])
                want = t.order * cyclotomic_inner_product(rows[i], rows[j])
                assert Cyclotomic(t.exponent, got) == want, (spec, i, j)
            assert t.conductors[i] == conductor(rows[i]), (spec, i)


def test_tables_index_each_distinct_vector_once(monkeypatch):
    # computed and loaded tables alike are built from the index that their
    # transform or convolution formed: it holds each distinct vector once,
    # every cell holds the index's own vector object and one value object
    # per distinct vector, and the conductors search each distinct vector
    # once
    searched = []
    search = chartab._vector_conductor

    def counted(vec):
        searched.append(vec)
        return search(vec)

    monkeypatch.setattr(chartab, "_vector_conductor", counted)
    for spec in CORPUS + FEIT_POOL:
        computed = table(spec)
        for t in (computed, load_table(save_table(computed))):
            assert len(set(t.vectors)) == len(t.vectors), spec
            assert set(t.vectors) == {vec for row in t.eigen for vec in row}, spec
            assert len(t.positions) == len(t.eigen), spec
            values = {}
            for i, cells in enumerate(t.positions):
                for c, k in enumerate(cells):
                    assert t.eigen[i][c] is t.vectors[t.positions[i][c]], (spec, i, c)
                    value = t.irreducibles[i][c]
                    assert values.setdefault(k, value) is value, (spec, i, c)
            searched.clear()
            assert len(t.conductors) == t.num_classes
            assert sorted(searched) == sorted(t.vectors), spec


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
            got = Cyclotomic(t.exponent, _scaled_inner_product(t, u, v))
            assert got == t.order * cyclotomic_inner_product(a, b), spec


def _galois_image(row, k):
    """sigma_k of a row of multiplicity vectors, k a unit mod the exponent:
    at a class of order t, the multiplicity of zeta_t^j moves to
    zeta_t^(j k)."""
    out = []
    for vec in row:
        moved = [0] * len(vec)
        for j, m in enumerate(vec):
            moved[j * k % len(vec)] = m
        out.append(tuple(moved))
    return tuple(out)


def test_gram_codes_decide_the_group_ring_sums():
    # on every set of rows, a pair's residue is |G| on the diagonal and 0
    # off it whenever its group-ring sum is: on table rows, on rows with one
    # eigenvalue moved (some sums are then off only in their irrational
    # coordinates) and on signed random vectors.  The converse holds on a
    # Galois-stable set of non-negative vectors (the table's rows with a few
    # moved rows and all their Galois images): a pair whose residue is right
    # at each of its conjugate pairs has the right group-ring sum.
    rng = random.Random(7)
    decided = 0
    for spec in ("cyclic:5", "dihedral:12", "sl2:3", "alt:5", "sym:5", "elementary:3,3"):
        t = table(spec)
        rows = list(t.eigen)
        r = t.num_classes
        moved = []
        for _ in range(10):
            i, c = rng.randrange(r), rng.randrange(1, r)
            vec = list(rows[i][c])
            vec[rng.choice([k for k, m in enumerate(vec) if m])] -= 1
            vec[rng.randrange(len(vec))] += 1
            moved.append(rows[i][:c] + (tuple(vec),) + rows[i][c + 1:])
        signed = [
            tuple(tuple(rng.randrange(-2, 3) for _ in range(cls.rep_order))
                  for cls in t.classes)
            for _ in range(5)
        ]
        units = cyclo.units(t.exponent)
        stable = list(dict.fromkeys(
            rows + [_galois_image(row, k) for row in moved[:3] for k in units]))
        sizes = [cls.size for cls in t.classes]
        for subset in (rows + moved + signed, stable):
            built = _with_eigen(t, subset)
            p, ucodes, vcodes = chartab._gram_codes(built)
            # per row and class, |C_c| u and v of the vector there
            us = [[size * ucodes[k] for size, k in zip(sizes, row)] for row in built.positions]
            vs = [[vcodes[k] for k in row] for row in built.positions]
            # on the stable set, per unit k, the position of sigma_k of each row
            at = {row: x for x, row in enumerate(subset)}
            images = ([[at[_galois_image(row, k)] for row in subset] for k in units]
                      if subset is stable else [])
            for x, u in enumerate(subset):
                for y, v in enumerate(subset):
                    got = _scaled_inner_product(t, u, v)
                    for m in (0, t.order):
                        exact = got == [m] + [0] * (len(got) - 1)
                        if exact:
                            assert (sum(map(mul, us[x], vs[y])) - m) % p == 0, (spec, x, y, m)
                        if images and all((sum(map(mul, us[im[x]], vs[im[y]])) - m) % p == 0
                                          for im in images):
                            assert exact, (spec, x, y, m)
                            decided += 1
    assert decided > 100


def test_root_of_unity_is_the_least_prime_and_a_root_of_order_e():
    for e, floor in ((1, 3), (2, 512), (12, 5), (60, 4440), (420, 6179460), (240, 3)):
        p, z_pow = chartab._root_of_unity(e, floor)
        assert p > floor and p % e == 1 % e and numth.is_prime(p), (e, floor)
        assert not any(numth.is_prime(q) for q in range(floor + 1, p) if q % e == 1 % e)
        assert len(z_pow) == e and z_pow == [pow(z_pow[1 % e], a, p) for a in range(e)]
        assert len(set(z_pow)) == e and pow(z_pow[1 % e], e, p) == 1, (e, floor)


def test_gram_prime_exceeds_the_norm_bound():
    # zero residues decide a group-ring sum only when p > |G| (D^2 + 1), D
    # the largest degree; a Gram prime at or below that bound fails here
    for spec in CORPUS + FEIT_POOL:
        t = table(spec)
        p = chartab._gram_codes(t)[0]
        d = max(t.degree(i) for i in range(t.num_classes))
        assert numth.is_prime(p) and p % t.exponent == 1 % t.exponent, spec
        assert p > t.order * (d * d + 1), (spec, p)


def test_rows_are_galois_stable():
    for spec in CORPUS + FEIT_POOL:
        t = table(spec)
        assert chartab._galois_stable(t), spec
    # cyclic:3 with chi-bar replaced by chi: sigma_2 of chi is no row
    t = table("cyclic:3")
    chi = next(i for i in range(3) if i != t.trivial_index)
    assert not chartab._galois_stable(
        _with_eigen(t, (t.eigen[t.trivial_index], t.eigen[chi], t.eigen[chi])))


def test_validate_refuses_an_unstable_row_set_whose_residues_pass():
    # a degree-2 row of sl2:3 with irrational values has the eigenvalues i
    # and -i at the class of order 4; 1 and -1 give the same value 0, so
    # every residue (every group-ring sum, indeed) stays right, but the
    # conjugate row keeps i and -i, and the moved row's conjugate is no row
    t = table("sl2:3")
    i, c = next((i, c) for i, row in enumerate(t.eigen) for c, vec in enumerate(row)
                if vec == (0, 1, 0, 1) and t.conductors[i] > 1)
    moved = _with_vector(t, t.eigen, i, c, (1, 0, 1, 0))
    assert _cyclotomic_orthonormal(t, moved.irreducibles)
    with pytest.raises(TableFormatError, match="for sl2:3: Galois stability"):
        chartab._validate(moved)


def _indexed(rows):
    """The index of rows of multiplicity vectors, as the transform forms
    it: the distinct vectors in order of first appearance, and per row the
    position of each of its vectors among them."""
    seen = {}
    positions = tuple(tuple(seen.setdefault(vec, len(seen)) for vec in row) for row in rows)
    return tuple(seen), positions


def _with_eigen(t, eigen):
    """A table with the classes and power map of t, built from the index of
    the multiplicity vectors eigen (one row of vectors per row of eigen)."""
    return chartab.CharacterTable(
        t.name, t.order, t.exponent, t.classes, t.power_map, _indexed(eigen)
    )


def _with_vector(t, eigen, i, c, vec):
    """A table like t holding eigen with the vector of row i at class c
    replaced."""
    return _with_eigen(t, tuple(
        tuple(vec if (i2, c2) == (i, c) else v for c2, v in enumerate(row))
        for i2, row in enumerate(eigen)
    ))


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
                    moved = _with_vector(t, eigen, i, c, tuple(bad))
                    if all(
                        _scaled_inner_product(t, moved.eigen[i], moved.eigen[j])[0]
                        == (t.order if i == j else 0)
                        for j in range(t.num_classes)
                    ):
                        irrational_only += 1
                    with pytest.raises(TableFormatError, match="row orthogonality"):
                        chartab._validate(moved)
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
    assert set(GOLDEN_TABLES) == set(CORPUS + FEIT_POOL)
    for spec, (table_hash, eigen_hash) in GOLDEN_TABLES.items():
        t = table(spec)
        # the hashes were recorded over the document written with indent=1;
        # re-indenting the compact bytes shows the content is unchanged
        blob = json.dumps(json.loads(save_table(t)), indent=1).encode()
        assert hashlib.sha256(blob).hexdigest() == table_hash, spec
        assert hashlib.sha256(repr(t.eigen).encode()).hexdigest() == eigen_hash, spec


def test_power_map_is_kept_and_derived_for_loaded_tables():
    # a computed table keeps the map it built from the representatives; a
    # loaded one derives the same map from its prime power maps, here also
    # on every feit-pool table (exponents up to 168)
    for spec in CORPUS + FEIT_POOL:
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


def _orbit_matches(t):
    """The (class, unit) column matches a loaded power map makes: per Galois
    orbit of classes (the classes of a class's unit powers, read from the
    computed map), its first class c and each unit u other than 1 mod the
    order of c, unless c's column is rational, as it is then its own image
    under every unit."""
    out = []
    for c, (cls, powers) in enumerate(zip(t.classes, t.power_map)):
        ks = cyclo.units(cls.rep_order)
        rational = all(row[c].is_rational() for row in t.irreducibles)
        if c == min(powers[u] for u in ks) and not rational:
            out.extend((c, u) for u in ks if u != 1 % cls.rep_order)
    return out


def test_derived_power_map_matches_each_galois_image_once(monkeypatch):
    # the unit powers are matched once per Galois orbit of classes, and
    # every class of an orbit reads its own from its first class's matches:
    # no (class, exponent) is matched twice, and no other is matched.
    # cyclic:120 has one orbit per order (16 divisors); on sym:5, whose
    # classes are rational, each class is an orbit of its own, and no
    # column is matched
    asked = []
    match = chartab._galois_class

    def counted(c, k, *rest):
        asked.append((c, k))
        return match(c, k, *rest)

    monkeypatch.setattr(chartab, "_galois_class", counted)
    orbits, matched = {}, {}
    for spec in CORPUS + FEIT_POOL + ("cyclic:120", "sym:5", "product:cyclic:8,cyclic:15"):
        t = table(spec)
        asked.clear()
        assert load_table(save_table(t)).power_map == t.power_map, spec
        assert sorted(asked) == sorted(_orbit_matches(t)), spec
        matched[spec] = len(asked)
        orbits[spec] = len({min(powers[u] for u in cyclo.units(len(powers)))
                            for powers in t.power_map})
    assert orbits["cyclic:120"] == 16 and orbits["sym:5"] == 7
    assert matched["sym:5"] == 0 and matched["cyclic:120"] > 0


def test_adams_terms_hold_dense_class_weights_and_labels():
    # at every n dividing the exponent, each subset rho of the primes of n
    # holds what the per-subset definition gives: its sign (-1)^|rho|, its
    # modulus m (``numth.subset_modulus``), W_m over every class, which
    # expands ``class_weights(m)`` and sums the sizes of the classes whose
    # m-th power is each class, and its JSON label, in the order of
    # ``numth.prime_subsets``; each n's terms are built once
    for spec in dict.fromkeys(FEIT_POOL + CORPUS + POINT_SPECS + ("cyclic:120",)):
        t = table(spec)
        e = t.exponent
        for n in numth.divisors(e):
            terms = t.adams_terms(n)
            assert terms.subsets == numth.prime_subsets(n), (spec, n)
            for rho, sign, m, weights, label in zip(*terms):
                assert sign == (-1) ** len(rho), (spec, n, rho)
                assert m == numth.subset_modulus(n, e, rho), (spec, n, rho)
                assert len(weights) == t.num_classes
                assert tuple((k, x) for k, x in enumerate(weights) if x) == t.class_weights(m)
                assert list(weights) == [
                    sum(cls.size for c, cls in enumerate(t.classes) if t.class_of_power(c, m) == k)
                    for k in range(t.num_classes)], (spec, n, rho)
                assert label == ",".join(map(str, sorted(rho))), (spec, n, rho)
            assert t.adams_terms(n) is terms
    assert table("alt:5").adams_terms(30).labels[-1] == "2,3,5"
    # a non-divisor of the exponent has no terms
    with pytest.raises(ValueError, match="4 does not divide 6"):
        table("sym:3").adams_terms(4)


def test_class_weights_formed_once_per_modulus(monkeypatch):
    # W_m is formed once per distinct modulus of a table, whichever n's
    # terms or ``class_weights`` ask for it first: every divisor of the
    # exponent is a modulus, 12 on sym:5 and 8 on alt:5, and the terms of
    # every n and ``class_weights`` (which the oracle's Adams identity
    # reads) share the one stored W_m
    formed = []
    form = chartab._class_weights

    def counted(classes, power_map, m):
        formed.append(m)
        return form(classes, power_map, m)

    monkeypatch.setattr(chartab, "_class_weights", counted)
    for spec, moduli in (("sym:5", 12), ("alt:5", 8)):
        t = table(spec)
        formed.clear()
        stored = {}
        for n in numth.divisors(t.exponent):
            terms = t.adams_terms(n)
            for m, weights in zip(terms.moduli, terms.weights):
                assert stored.setdefault(m, weights) is weights, (spec, n, m)
        for m in numth.divisors(t.exponent):
            assert t.class_weights(m) == tuple(
                (k, x) for k, x in enumerate(stored[m]) if x), (spec, m)
        assert sorted(formed) == sorted(stored) == list(numth.divisors(t.exponent)), spec
        assert len(formed) == moduli, spec


def test_request_path_forms_no_values():
    # the indicators and the invariants read the vectors, their traces,
    # conductors and eigenvalue orders, and W_m: after ``feit_indicator``
    # on every row and ``invariant`` of every row at every divisor, a
    # computed table still holds no values and no per-cell tuples, and
    # neither does the spec table an ``s`` request answered from.  Once
    # formed, each row's value at class 0 is its degree, an integer
    lazy = {"values", "irreducibles", "eigen"}
    for spec in ACCEPTANCE:
        t = table(spec)
        for i in range(t.num_classes):
            adams.feit_indicator(t, i)
            for n in numth.divisors(t.exponent):
                adams.invariant(t, i, n)
        assert not lazy & set(vars(t)), spec
        for i, row in enumerate(t.irreducibles):
            d = t.degree(i)
            assert type(d) is int and row[0].as_integer() == d, (spec, i)
            assert t.eigen[i][0] == (d,), (spec, i)
        assert lazy <= set(vars(t)), spec
    for spec in POINT_SPECS:
        assert cli.main(["s", spec, "--chi", "1", "--n", "1", "--json"]) == 0
        assert cli.main(["s", spec, "--chi", "1", "--n", "1"]) == 0
        assert not lazy & set(vars(runner.resolve_input(spec))), spec


def test_derived_power_map_refuses_equal_columns():
    # a Galois image is looked up among the columns; with two equal columns
    # the lookup is ambiguous, and the error names the table
    doc = json.loads(save_table(table("cyclic:5")))
    doc["name"] = "twin-columns"
    for row in doc["irreducibles"]:
        row[4] = row[3]
    with pytest.raises(
        TableFormatError,
        match=r"power map match failed for class \d, exponent \d, of twin-columns:"
              r" 2 matching classes",
    ):
        load_table(json.dumps(doc))


def _at(poly, lam, p):
    out = 0
    for coef in reversed(poly):
        out = (out * lam + coef) % p
    return out


def _rank_mod(vectors, p):
    """Rank over the field with p elements, by plain Gaussian elimination."""
    rows = [[x % p for x in v] for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                f = row[c] * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


def _inverse_mod(mat, p):
    """Inverse of an invertible square matrix mod p, by Gauss-Jordan."""
    d = len(mat)
    aug = [[x % p for x in row] + [int(i == j) for j in range(d)]
           for i, row in enumerate(mat)]
    for c in range(d):
        piv = next(i for i in range(c, d) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], p - 2, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for i in range(d):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], aug[c])]
    return [row[d:] for row in aug]


def _mat_vec(mat, vec, p):
    return [sum(map(mul, row, vec)) % p for row in mat]


def test_minimal_polynomial_of_a_diagonalizable_map():
    # A = P D P^-1 over the splitting's primes, D with repeated entries,
    # applied to vectors P w: the minimal polynomial of A on P w has one
    # root per distinct entry of D at which w is nonzero
    rng = random.Random(11)
    primes = sorted({
        _transform_prime(g.order, g.exponent())
        for g in map(groups.from_spec, FEIT_POOL[:12])
    })
    for p in primes:
        for d in range(1, 9):
            while True:
                pmat = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
                if _rank_mod(pmat, p) == d:
                    break
            pinv = _inverse_mod(pmat, p)
            diag = [rng.choice((0, 1, 2, p - 1, rng.randrange(p))) for _ in range(d)]
            a = [[sum(pmat[i][k] * diag[k] * pinv[k][j] for k in range(d)) % p
                  for j in range(d)] for i in range(d)]
            for w in ([rng.randrange(p) for _ in range(d)],
                      [rng.choice((0, 0, rng.randrange(1, p))) for _ in range(d)],
                      [0] * d):
                vec = _mat_vec(pmat, w, p)
                poly, krylov = chartab._minimal_polynomial(
                    lambda v: _mat_vec(a, v, p), vec, p)
                deg = len(poly) - 1
                where = (p, a, vec)
                assert poly[-1] == 1 and len(krylov) == deg, where
                powers = [vec]
                for _ in range(d):
                    powers.append(_mat_vec(a, powers[-1], p))
                assert krylov == powers[:deg], where
                assert [sum(c * v[k] for c, v in zip(poly, powers)) % p
                        for k in range(d)] == [0] * d, where
                # the least degree: the rank of the whole Krylov sequence
                assert deg == _rank_mod(powers, p), where
                # distinct roots, in F_p: the entries of D that w reaches
                roots = {lam for lam in range(p) if _at(poly, lam, p) == 0}
                assert roots == {lam for lam, x in zip(diag, w) if x}, where
                assert len(roots) == deg, where


def test_split_fails_when_a_root_is_missed(monkeypatch):
    minimal_polynomial = chartab._minimal_polynomial

    def drop_least_root(apply, vec, p):
        poly, krylov = minimal_polynomial(apply, vec, p)
        if len(poly) > 2:  # divide out the factor x - lam of the least root
            lam = next(x for x in range(p) if _at(poly, x, p) == 0)
            desc = poly[::-1]
            quot = [desc[0]]
            for coef in desc[1:-1]:
                quot.append((coef + lam * quot[-1]) % p)
            poly = quot[::-1]
        return poly, krylov

    monkeypatch.setattr(chartab, "_minimal_polynomial", drop_least_root)
    # sym:3 reads its root class of highest order first, the 3-cycles
    with pytest.raises(ConsistencyError,
                       match="class-sum matrix failed to split at class 2 of sym:3"):
        compute_table(groups.symmetric(3))


def _moved_in_read(monkeypatch, which):
    """Move one constant of the class sum read ``which``-th to the wrong
    class: the matrix is still one, but no longer commutes with the others."""
    columns = chartab._class_sum_columns
    calls = []

    def moved(group, i, label):
        cols = columns(group, i, label)
        calls.append(i)
        if len(calls) == which:
            k = next(k for k, col in enumerate(cols) if col)
            (j, a), *rest = cols[k]
            cols = cols[:k] + [(((j + 1) % len(cols), a), *rest)] + cols[k + 1:]
        return cols

    monkeypatch.setattr(chartab, "_class_sum_columns", moved)


def test_split_checks_that_a_space_stays_invariant(monkeypatch):
    # dihedral:12 reads class 5 (the rotations of order 6), then class 2; a
    # part that class 2 splits off must stay an eigenvector of the
    # corrupted class 5, which it does not
    _moved_in_read(monkeypatch, 1)
    with pytest.raises(ConsistencyError,
                       match="vector left the invariant subspace at class 5 of dihedral:12"):
        compute_table(groups.from_spec("dihedral:12"))
    # the same corruption in the second class sum read gives a minimal
    # polynomial that does not split over F_p
    monkeypatch.undo()
    _moved_in_read(monkeypatch, 2)
    with pytest.raises(ConsistencyError,
                       match="class-sum matrix failed to split at class 2 of dihedral:12"):
        compute_table(groups.from_spec("dihedral:12"))


def test_split_reads_root_classes_first(monkeypatch):
    # root classes by element order, high to low: dihedral:60 and sl2:7
    # split completely after two class sums each
    columns = chartab._class_sum_columns
    calls = []

    def counted(group, i, label):
        calls.append(i)
        return columns(group, i, label)

    monkeypatch.setattr(chartab, "_class_sum_columns", counted)
    for spec in ("dihedral:60", "sl2:7"):
        calls.clear()
        g = groups.from_spec(spec)
        compute_table(g, spec)
        orders = [c.element_order for c in g.conjugacy_classes()]
        assert len(calls) == 2, (spec, calls)
        assert orders[calls[0]] == max(orders), (spec, calls)


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
                key = _row_key(t, [row[k] for k in powers])
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
        loaded = load_table(save_table(t))
        assert loaded.power_map == t.power_map, spec
        assert loaded.eigen == t.eigen, spec


def _levels(t):
    return [[v.level for v in row] for row in t.irreducibles]


def test_loaded_values_at_a_level_off_the_exponent():
    # the JSON format takes a value at any level; a value at a class of
    # order t is stored at level t when it is loaded, as computed
    t = table("cyclic:3")
    doc = json.loads(save_table(t))

    def at_level_15(v):
        terms = [[0, v, 1]] if isinstance(v, int) else v["terms"]
        return {"level": 15, "terms": [[5 * i, num, den] for i, num, den in terms]}

    doc["irreducibles"] = [[at_level_15(v) for v in row] for row in doc["irreducibles"]]
    loaded = load_table(json.dumps(doc))
    assert _levels(loaded) == _levels(t) == [[1, 3, 3]] * 3
    assert loaded.eigen == t.eigen
    assert save_table(loaded) == save_table(t)


def test_round_trip_of_values_written_above_the_exponent():
    # cyclic:30 written at level 210: every value is stored at the order of
    # its class, so the round trip writes the computed table's bytes
    t = table("cyclic:30")
    blob = save_table(t)
    doc = json.loads(blob)

    def at_level_210(v):
        if not isinstance(v, dict):
            return v
        step = 210 // v["level"]
        return {"level": 210, "terms": [[step * i, n, d] for i, n, d in v["terms"]]}

    doc["irreducibles"] = [[at_level_210(v) for v in row] for row in doc["irreducibles"]]
    loaded = load_table(json.dumps(doc))
    assert _levels(loaded) == _levels(t)
    assert save_table(loaded) == blob


def test_loaded_values_at_a_level_sharing_a_galois_exponent():
    # zeta_3 written at level 6: the Galois exponent 2 is a unit mod 3 but
    # not mod 6, so the values must not stay at level 6, where the power
    # map, galois(2) and the conductor search would apply it
    t = table("cyclic:3")
    doc = json.loads(save_table(t))

    def at_level_6(v):
        terms = [[0, v, 1]] if isinstance(v, int) else v["terms"]
        return {"level": 6, "terms": [[2 * i, num, den] for i, num, den in terms]}

    doc["irreducibles"] = [[at_level_6(v) for v in row] for row in doc["irreducibles"]]
    loaded = load_table(json.dumps(doc))
    assert _levels(loaded) == _levels(t) == [[1, 3, 3]] * 3
    assert loaded.power_map == t.power_map
    assert conductor(loaded.irreducible(1)) == 3
    for i in range(3):
        assert conductor(loaded.irreducible(i)) == conductor(t.irreducible(i))
        assert list(loaded.irreducible(i).galois(2).values) == \
            list(t.irreducible(i).galois(2).values)
    assert save_table(loaded) == save_table(t)
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


def test_load_rejects_a_prime_power_map_it_never_reads():
    # the cube of dihedral:12's central involution is itself; moved to the
    # other class of order 2, the entry is never read by the derived power
    # map, so only comparing it with that map finds it
    doc = json.loads(save_table(table("dihedral:12")))
    assert [c["rep_order"] for c in doc["classes"][1:3]] == [2, 2]
    assert doc["classes"][1]["powermap"]["3"] == 1
    doc["classes"][1]["powermap"]["3"] = 2
    with pytest.raises(TableFormatError,
                       match="dihedral:12: power map of class 1 at 3 disagrees"):
        load_table(json.dumps(doc))


def test_every_same_order_power_map_corruption_is_refused():
    # every prime power-map entry of a corpus table moved to another class
    # of the same order passes the order checks; the table is refused
    # whether or not the derived power map reads the entry
    for spec in CORPUS:
        doc = json.loads(save_table(table(spec)))
        classes = doc["classes"]
        for c, cls in enumerate(classes):
            for q, tgt in cls["powermap"].items():
                for other, cls2 in enumerate(classes):
                    if other == tgt or cls2["rep_order"] != classes[tgt]["rep_order"]:
                        continue
                    cls["powermap"][q] = other
                    with pytest.raises(TableFormatError, match=spec):
                        load_table(json.dumps(doc))
                    cls["powermap"][q] = tgt


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
            doubled = _with_eigen(t, eigen[:i] + (tuple(tuple(2 * m for m in vec) for vec in row),)
                                  + eigen[i + 1:])
            with pytest.raises(TableFormatError,
                               match=f"row orthogonality of characters {i} and {i}"):
                chartab._validate(doubled)
        chartab._validate(t)


# product and elementary specs: the bundled corpus's and the feit pool's,
# with a trivial factor, one factor, three factors, a factor that is itself
# a product of equal factors (elementary:3,3 is also in the pool) and two
# distinct factors of equal degree and order
PRODUCT_SPECS = tuple(
    spec for spec in dict.fromkeys(
        CORPUS + FEIT_POOL + ("product:cyclic:1,sym:3", "product:cyclic:2", "elementary:3,3",
                              "product:elementary:2,2,cyclic:3", "product:cyclic:4,dihedral:4")
    )
    if spec.startswith(("product:", "elementary:"))
)


def test_product_tables_match_the_splitting():
    # the same group rebuilt from its generators has no factors, so its
    # table comes from the splitting
    for spec in PRODUCT_SPECS:
        g = groups.from_spec(spec)
        assert g.factors and g.order == math.prod(f.order for f in g.factors), spec
        h = groups.PermGroup(g.generators, degree=g.degree, name=g.name)
        assert h.factors == ()
        got, want = compute_table(g), compute_table(h)
        assert save_table(got) == save_table(want), spec
        assert got.eigen == want.eigen, spec
        assert got.power_map == want.power_map, spec


def _rotated_somewhere(vectors, rows):
    """The index and rows with the first cell whose vector moves under a
    rotation of its exponents given that vector rotated, as a new distinct
    vector: one multiplicity moved, the sums kept."""
    rows = [(deg, list(cells)) for deg, cells in rows]
    i, c = next((i, c) for i, (_, cells) in enumerate(rows) for c, k in enumerate(cells)
                if vectors[k][-1:] + vectors[k][:-1] != vectors[k])
    vec = vectors[rows[i][1][c]]
    rows[i][1][c] = len(vectors)
    return vectors + (vec[-1:] + vec[:-1],), [(deg, tuple(cells)) for deg, cells in rows]


@pytest.mark.parametrize("factor", ["alt:4", "cyclic:3"])
def test_a_wrong_factor_vector_fails_the_product_table(monkeypatch, factor):
    rows_of = chartab._rows

    def perturbed(group, label):
        powmap, vectors, rows = rows_of(group, label)
        if group.name == factor:
            vectors, rows = _rotated_somewhere(vectors, rows)
        return powmap, vectors, rows

    monkeypatch.setattr(chartab, "_rows", perturbed)
    with pytest.raises((TableFormatError, ConsistencyError),
                       match="product:alt:4,cyclic:3"):
        compute_table(groups.from_spec("product:alt:4,cyclic:3"))


def test_equal_factors_share_one_table(monkeypatch):
    rows_of = chartab._rows
    built = []

    def counted(group, label):
        built.append(group.name)
        return rows_of(group, label)

    monkeypatch.setattr(chartab, "_rows", counted)
    for spec, factors in (("elementary:3,3", ["cyclic:3"]),
                          ("product:sym:3,cyclic:2,sym:3", ["sym:3", "cyclic:2"])):
        built.clear()
        compute_table(groups.from_spec(spec))
        # the product's own rows first, then each distinct factor's once
        assert built == [spec] + factors, spec


def test_a_product_table_runs_one_gram_pass(monkeypatch):
    validate = chartab._validate
    validated = []

    def counted(table):
        validated.append(table.name)
        validate(table)

    monkeypatch.setattr(chartab, "_validate", counted)
    for spec in ("product:alt:4,cyclic:3", "elementary:3,3"):
        validated.clear()
        compute_table(groups.from_spec(spec))
        assert validated == [spec], spec
