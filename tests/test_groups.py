import pytest

from feitlab import groups
from feitlab.errors import BoundExceeded, SpecError
from feitlab.groups import (
    MonomialPair,
    PermGroup,
    alternating,
    compose,
    cyclic,
    dihedral,
    direct_product,
    from_spec,
    inverse,
    perm_from_cycles,
    perm_order,
    quaternion,
    special_linear_2,
    symmetric,
)
from bundled_corpus import CORPUS
from group_references import (
    as_group,
    closure_subgroups,
    conjugate_pair,
    conjugate_perm,
    derived_elements,
    pair_le,
    restrict,
)


def test_perm_helpers():
    p = perm_from_cycles([(1, 2, 3)], 4)
    assert p == (1, 2, 0, 3)
    assert perm_order(p) == 3
    assert compose(p, inverse(p)) == (0, 1, 2, 3)
    assert groups.cycle_notation(p) == "(1,2,3)"


def test_enumeration_sizes():
    assert cyclic(1).order == 1
    assert symmetric(3).order == 6
    assert alternating(5).order == 60
    assert symmetric(4).order == 24
    assert quaternion().order == 8
    assert special_linear_2(3).order == 24
    assert dihedral(12).order == 12
    assert groups.extraspecial_27().order == 27
    assert direct_product(cyclic(2), cyclic(4)).order == 8


def test_enumeration_bound():
    with pytest.raises(BoundExceeded):
        PermGroup(symmetric(5).generators, order_bound=100)


def test_conjugacy_classes():
    s3 = symmetric(3)
    sizes = sorted(c.size for c in s3.conjugacy_classes())
    assert sizes == [1, 2, 3]
    assert s3.conjugacy_classes()[0].rep == s3.identity

    c4 = cyclic(4)
    assert [c.size for c in c4.conjugacy_classes()] == [1, 1, 1, 1]

    q8 = quaternion()
    assert len(q8.conjugacy_classes()) == 5

    # partition property
    for g in (s3, q8, alternating(4)):
        assert sum(c.size for c in g.conjugacy_classes()) == g.order


def test_exponent():
    assert symmetric(3).exponent() == 6
    assert quaternion().exponent() == 4
    assert alternating(5).exponent() == 30
    assert groups.extraspecial_27().exponent() == 3


def test_class_power_map():
    s3 = symmetric(3)
    n = len(s3.conjugacy_classes())
    assert s3.class_power_map(1) == tuple(range(n))
    assert s3.class_power_map(s3.exponent()) == (0,) * n
    # squaring kills the transposition class
    transposition = next(
        i for i, c in enumerate(s3.conjugacy_classes()) if c.element_order == 2
    )
    assert s3.class_power_map(2)[transposition] == 0

    for g in (s3, quaternion(), cyclic(12)):
        e = g.exponent()
        for a in (2, 3, 5):
            for b in (2, 7):
                lhs = g.class_power_map(a * b)
                via = [g.class_power_map(a)[i] for i in g.class_power_map(b)]
                assert list(lhs) == via
                assert g.class_power_map(a) == g.class_power_map(a + e)


def test_all_subgroups_counts():
    assert len(symmetric(3).all_subgroups()) == 6
    for p in (2, 3, 5, 7):
        assert len(cyclic(p).all_subgroups()) == 2
    assert len(alternating(4).all_subgroups()) == 10
    assert len(symmetric(4).all_subgroups()) == 30
    assert len(quaternion().all_subgroups()) == 6
    assert len(alternating(5).all_subgroups()) == 59


def test_all_subgroups_reach_perfect_subgroups():
    # the first lattices with a non-solvable proper subgroup: alt:5 in
    # sym:5 (missed by extending subgroups inside their normalizers, which
    # found 155) and SL(2,5)'s own perfect top; sym:5's count is OEIS
    # A005432, and both lattices equal the closure reference's, which takes
    # 12-17 s each and so is not run here
    assert len(symmetric(5).all_subgroups(bound=120)) == 156
    assert len(special_linear_2(5).all_subgroups(bound=120)) == 76
    alt5 = [s for s in symmetric(5).all_subgroups(bound=120) if s.order == 60]
    assert len(alt5) == 1
    with pytest.raises(BoundExceeded):
        symmetric(5).all_subgroups()


def test_all_subgroups_against_closure_oracle():
    for spec in CORPUS + ("alt:5",):
        g = from_spec(spec)
        subs, ref = g.all_subgroups(), closure_subgroups(g)
        assert {frozenset(s.elements) for s in subs} == ref, spec
        assert len(subs) == len(ref), spec
        # sorted by order, then by elements
        keys = [(s.order, s.elements) for s in subs]
        assert keys == sorted(keys), spec


def test_subgroups_lagrange_and_conjugation_closed():
    g = symmetric(4)
    subs = g.all_subgroups()
    sets = {frozenset(s.elements) for s in subs}
    for s in subs:
        assert g.order % s.order == 0
        again = g.subgroup(s.elements)
        assert again.mask == s.mask
        assert again == s and hash(again) == hash(s)
        whole = as_group(s)
        assert whole.elements == s.elements
        assert sum(x in s for x in g.elements) == sum(x in whole for x in g.elements) == s.order
        for x in g.generators:
            assert frozenset(conjugate_perm(x, h) for h in s.elements) in sets


def test_subgroup_validation():
    s3 = symmetric(3)
    with pytest.raises(ValueError):
        s3.subgroup([s3.identity, (1, 0, 2)][:1] + [(1, 2, 0)])  # not closed


def test_linear_characters_counts():
    assert len(symmetric(3).whole_subgroup().linear_characters()) == 2
    for n in (1, 2, 3, 4, 6, 12):
        chars = cyclic(n).whole_subgroup().linear_characters()
        assert len(chars) == n
        orders = sorted(c.order for c in chars)
        # one character of each order d | n, with totient(d) many of order d
        from feitlab import numth

        expect = sorted(
            d for d in numth.divisors(n) for _ in range(numth.totient(d))
        )
        assert orders == expect
    assert len(quaternion().whole_subgroup().linear_characters()) == 4
    assert len(alternating(4).whole_subgroup().linear_characters()) == 3


def test_linear_characters_are_homomorphisms():
    for g in (symmetric(3), quaternion(), dihedral(8), special_linear_2(3)):
        h = g.whole_subgroup()
        for phi in h.linear_characters():
            for a in list(h.elements)[:6]:
                for b in list(h.elements)[:6]:
                    assert phi.value(compose(a, b)) == phi.value(a) * phi.value(b)


def test_linear_characters_form_group():
    h = dihedral(8).whole_subgroup()
    chars = set(h.linear_characters())
    assert len(chars) == 4
    for a in chars:
        for b in chars:
            assert a * b in chars


def test_linear_character_count_is_abelianization_size():
    for g in (symmetric(4), quaternion(), special_linear_2(3), alternating(4)):
        for h in g.all_subgroups():
            assert len(h.linear_characters()) == h.order // len(derived_elements(h))


def test_char_order_divides_on_restriction():
    c4 = cyclic(4)
    whole = c4.whole_subgroup()
    sub2 = next(s for s in c4.all_subgroups() if s.order == 2)
    for phi in whole.linear_characters():
        psi = restrict(phi, sub2)
        assert phi.order % psi.order == 0
    faithful = next(c for c in whole.linear_characters() if c.order == 4)
    assert restrict(faithful, sub2).order == 2
    assert restrict(faithful, whole) == faithful
    trivial_sub = c4.all_subgroups()[0]
    assert restrict(faithful, trivial_sub).order == 1


def test_conjugate_pair():
    s3 = symmetric(3)
    swap12 = perm_from_cycles([(1, 2)], 3)
    swap23 = perm_from_cycles([(2, 3)], 3)
    rot = perm_from_cycles([(1, 2, 3)], 3)
    h = s3.subgroup([s3.identity, swap12])
    sign = next(c for c in h.linear_characters() if c.order == 2)
    pair = MonomialPair(h, sign)

    moved = conjugate_pair(rot, pair)
    assert moved.subgroup.elements == (s3.identity, swap23)
    assert moved.character.order == 2

    # identity acts trivially; action is compatible with products
    assert conjugate_pair(s3.identity, pair) == pair
    for g in s3.elements:
        for k in s3.elements:
            assert conjugate_pair(g, conjugate_pair(k, pair)) == conjugate_pair(
                compose(g, k), pair
            )

    # normalizing element with trivial character fixes the pair
    triv = next(c for c in h.linear_characters() if c.order == 1)
    assert conjugate_pair(swap12, MonomialPair(h, triv)) == MonomialPair(h, triv)


def test_restrict_linear_and_pair_order():
    c4 = cyclic(4)
    whole = c4.whole_subgroup()
    faithful = next(c for c in whole.linear_characters() if c.order == 4)
    sub2 = next(s for s in c4.all_subgroups() if s.order == 2)
    pair = MonomialPair(whole, faithful)
    assert restrict(faithful, sub2).order == 2
    small = MonomialPair(sub2, restrict(faithful, sub2))
    assert pair_le(small, pair)
    assert not pair_le(pair, small)


def test_pair_order_requires_restriction_match():
    c4 = cyclic(4)
    whole = c4.whole_subgroup()
    chars = whole.linear_characters()
    sub2 = next(s for s in c4.all_subgroups() if s.order == 2)
    faithful = next(c for c in chars if c.order == 4)
    trivial = next(c for c in chars if c.order == 1)
    below = MonomialPair(sub2, restrict(trivial, sub2))
    assert pair_le(below, MonomialPair(whole, trivial))
    assert not pair_le(below, MonomialPair(whole, faithful))


def test_from_spec():
    assert from_spec("cyclic:12").order == 12
    assert from_spec("sym:4").order == 24
    assert from_spec("dihedral:8").order == 8
    assert from_spec("perm:[(1,2),(1,2,3)]").order == 6
    assert from_spec("product:sym:3,cyclic:2").order == 12
    assert from_spec("product:cyclic:2,cyclic:4").order == 8
    assert from_spec("elementary:2,3").order == 8
    assert from_spec("sl2:3").order == 24
    assert from_spec("extraspecial:27").order == 27
    with pytest.raises(ValueError):
        from_spec("nonsense:1")
    with pytest.raises(ValueError):
        from_spec("sym4")


@pytest.mark.parametrize(
    "spec",
    ["sym4", "nonsense:1", "cyclic:0", "cyclic:x", "dihedral:7", "sl2:11",
     "quaternion:16", "elementary:4,2", "perm:[(0,1)]", "perm:[]",
     "product:sym:3,cyclic:-1",
     # integers must be written as str() writes them, in ASCII digits
     "cyclic:1_0", "sym:+3", "cyclic:02", "sym:\u0663", "elementary:3, 2",
     "perm:[(1,\u0662)]", "perm:[(1,2),(01,3)]", "product:sym:3,cyclic:+2",
     # a perm: spec is one bracketed list of cycles, separated by commas,
     # and nothing else: no junk between, before or after the cycles, no
     # missing brackets and no empty item
     "perm:[(1,2) junk (3,4)]", "perm:hello(1,2,3)", "perm:[(1,2)]x", "perm:(1,2)",
     "perm:[(1,2),,(3,4)]", "perm:[(1,2)(3,4)]"],
)
def test_from_spec_rejects_malformed_specs(spec):
    with pytest.raises(SpecError):
        from_spec(spec)


def test_negative_spec_arguments_keep_their_messages():
    for spec, why in (("cyclic:-1", "cyclic group needs n >= 1"),
                      ("sym:-3", "symmetric group needs n >= 1")):
        with pytest.raises(SpecError, match=why):
            from_spec(spec)


def test_spec_heads_are_the_heads_the_parser_reads():
    for head in groups.SPEC_HEADS:
        with pytest.raises(SpecError, match="malformed group spec"):
            from_spec(f"{head}:x")
    assert "nonsense" not in groups.SPEC_HEADS
    with pytest.raises(SpecError, match="unknown group spec"):
        from_spec("nonsense:x")


def test_perm_spec_points_stay_under_the_order_bound():
    assert from_spec("perm:[(1,10080)]").order == 2
    for spec in ("perm:[(1,10081)]", "product:cyclic:2,perm:[(1,2),(3,100000000)]"):
        with pytest.raises(SpecError, match=r"points in 1\.\.10080"):
            from_spec(spec)


def test_from_spec_rejects_large_orders_before_building(monkeypatch):
    def enumerate_elements(*args, **kwargs):
        raise AssertionError("the group was enumerated")

    monkeypatch.setattr(groups, "_closure", enumerate_elements)
    for spec in ("cyclic:12000", "sym:9", "product:sym:5,sym:5"):
        with pytest.raises(BoundExceeded):
            from_spec(spec)


def test_from_spec_admits_orders_up_to_the_bound(monkeypatch):
    class Enumerating(Exception):
        pass

    def enumerate_elements(*args, **kwargs):
        raise Enumerating

    # the prediction lets the largest admissible cyclic group through to
    # enumeration (stubbed out here: enumerating it costs seconds)
    monkeypatch.setattr(groups, "_closure", enumerate_elements)
    assert groups.DEFAULT_ORDER_BOUND == 10080
    with pytest.raises(Enumerating):
        from_spec("cyclic:10080")


def test_spec_order_is_the_order_without_building(monkeypatch):
    specs = ("cyclic:12", "sym:4", "alt:5", "dihedral:8", "quaternion:8", "sl2:3",
             "elementary:3,2", "extraspecial:27", "product:sym:3,cyclic:2")
    built = {spec: from_spec(spec).order for spec in specs}

    def enumerate_elements(*args, **kwargs):
        raise AssertionError("the group was enumerated")

    monkeypatch.setattr(groups, "_closure", enumerate_elements)
    assert {spec: groups.spec_order(spec) for spec in specs} == built
    assert groups.spec_order("cyclic:4000") == 4000
    # disjoint cycles generate the direct product of their cyclic groups
    assert groups.spec_order("product:cyclic:2,perm:[(1,2)]") == 4
    assert groups.spec_order("perm:[(1,2),(3,4,5)]") == 6
    assert groups.spec_order("perm:[(1,2),(2,3)]") is None
    with pytest.raises(BoundExceeded):
        groups.spec_order("sym:9")
    with pytest.raises(SpecError):
        groups.spec_order("cyclic:x")


def test_perm_spec_big():
    s5 = from_spec("perm:[(1,2,3,4,5),(1,2)]")
    assert s5.order == 120
    assert s5.exponent() == 60
