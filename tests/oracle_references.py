"""The oracle's former one-at-a-time paths, kept in tests only as
references for its per-table integer data (M, A and R in ``brauer``): the
canonical induction coefficients of one row by its own chain sum over the
Moebius weights, and the restriction of one combination by walking the
double cosets of each of its pairs again, marked element by element."""

from collections import defaultdict

from feitlab import brauer


def chain_sum(table, i, sub=None, bound=None):
    """Row i's coefficients on the group's context, or on the down-set of
    the subgroup ``sub``: its multiplicities, each pushed down every chain
    below its pair with the chain's weight mu times the bottom subgroup's
    order, and the sums divided by the group order."""
    ctx = brauer.monomial_context(table.group, bound)
    if sub is not None:
        ctx = ctx.down_set(sub)
    order, rep, pairs = ctx.group.order, ctx.orbit_rep, ctx.pairs
    acc = defaultdict(int)
    for top, m in enumerate(ctx.multiplicities(table.irreducibles[i])):
        if m:
            for i0, w in ctx.below[top]:
                acc[rep[i0]] += w * pairs[i0].subgroup.order * m
    coeffs = {}
    for r, raw in acc.items():
        q, rem = divmod(raw, order)
        assert rem == 0, (table.name, i, pairs[r])
        if q:
            coeffs[pairs[r]] = q
    return brauer.PairCombination(brauer._group_key(ctx.group), coeffs)


def walk_restriction(comb, sub, bound=None):
    """The combination restricted to the subgroup U = ``sub``: for each of
    its pairs (H, phi), every double coset U g H marked element by element,
    and the pair (U n gHg^-1, phi^g restricted) it gives found by its
    U-orbit."""
    ctx = brauer.monomial_context(sub.parent, bound)
    down, P = ctx.down_set(sub), ctx.poset
    mul = P.mul
    acc = defaultdict(int)
    for pair, c in comb.coefficients.items():
        j = ctx.index[pair.key()]
        h_elems = P.members[P.psub[j]]
        seen = bytearray(len(mul))
        for g in range(len(mul)):
            if seen[g]:
                continue
            for u in sub.members:
                row = mul[mul[u][g]]
                for h in h_elems:
                    seen[row[h]] = 1
            jg = P.act[g][j]
            i = P.restrict[jg][P.sid[sub.mask & P.masks[P.psub[jg]]]]
            acc[down.pairs[down.orbit_rep[down._local[i]]]] += c
    return brauer.PairCombination(brauer._group_key(down.group), acc)
