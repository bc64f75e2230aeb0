"""Element-level references for the indexed groups, kept in tests only: a
subgroup lattice, a commutator subgroup, conjugacy classes, class-sum
constants, and the restriction, conjugation and order of monomial pairs,
all on permutation tuples; and the Schur inner product in cyclotomic
arithmetic, the reference for the integer sums."""

from collections import Counter

from feitlab import groups
from feitlab.cyclo import Cyclotomic
from feitlab.groups import LinearChar, MonomialPair, compose, inverse, perm_order


def conjugate_perm(g, h):
    """g * h * g^-1."""
    return compose(compose(g, h), inverse(g))


def _closed(degree, seed):
    """The elements the permutations in ``seed`` generate, as a set."""
    return frozenset(groups._closure(degree, list(seed))[0])


def closure_subgroups(group):
    """Every subgroup as a frozenset of elements, by joining each subgroup
    found with each element until nothing new appears."""
    trivial = frozenset([group.identity])
    found = {trivial}
    queue = [trivial]
    while queue:
        h = queue.pop()
        for g in group.elements:
            if g in h:
                continue
            k = _closed(group.degree, set(h) | {g})
            if k not in found:
                found.add(k)
                queue.append(k)
    return found


def derived_elements(sub):
    """The commutator subgroup, closed from every commutator of two members."""
    comms = {
        compose(compose(a, b), inverse(compose(b, a)))
        for a in sub.elements
        for b in sub.elements
    }
    return _closed(sub.parent.degree, comms)


def tuple_conjugacy_classes(group):
    """The classes as tuples of elements in increasing order, in the order
    of ``conjugacy_classes``: the orbits of y -> g y g^-1 over the
    generators g, sorted by element order, size and least element."""
    seen, classes = set(), []
    for x in group.elements:
        if x in seen:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in group.generators:
                z = conjugate_perm(g, y)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (perm_order(c[0]), len(c), c[0]))
    return classes


def class_sum_columns(group, i):
    """Column k of the class-sum matrix of class i as {j: a_ijk}, a_ijk
    counted over the whole class: the x in class i with x^-1 rep_k in class
    j."""
    classes = group.conjugacy_classes()
    members = [group.elements[x] for x in classes[i].members]
    return [
        Counter(group.class_index(compose(inverse(x), ck.rep)) for x in members)
        for ck in classes
    ]


def restrict(phi, sub):
    """The restriction of a linear character to a subgroup of its domain."""
    exps = dict(zip(phi.domain.elements, phi.exponents))
    if not set(sub.elements) <= set(exps):
        raise ValueError("can only restrict to a smaller subgroup")
    return LinearChar(sub, phi.order, [exps[h] for h in sub.elements])


def conjugate_pair(g, pair):
    """g acting on a pair: h -> phi(g^-1 h g) on the conjugate subgroup."""
    exps = {
        conjugate_perm(g, h): e
        for h, e in zip(pair.subgroup.elements, pair.character.exponents)
    }
    sub = pair.subgroup.parent.subgroup(exps)
    return MonomialPair(
        sub, LinearChar(sub, pair.character.order, [exps[h] for h in sub.elements])
    )


def pair_le(p, q):
    """p <= q: p's subgroup lies in q's and q's character restricts to p's."""
    return set(p.subgroup.elements) <= set(q.subgroup.elements) and all(
        q.character.value(h) == p.character.value(h) for h in p.subgroup.elements
    )


def cyclotomic_inner_product(a, b):
    """<a, b> = (1/|G|) sum_c |c| a(c) conj(b(c)), one ``Cyclotomic``
    product and sum per class."""
    table = a.table
    total = Cyclotomic.rational(0)
    for cls, x, y in zip(table.classes, a.values, b.values):
        total = total + x * y.conjugate() * cls.size
    return total / table.order
