"""Reference copies of ray-class code that the package replaced: the
ray-character enumeration that field.quadratic_ray_characters replaced,
with the same basis of U/S but each character value found by a search over
the subsets of the basis (_coset_sign); and the unit discs of a ray
distribution one disc at a time, on QuadInts (ref_unit_discs). The tests
compare the characters, their order, tables and conductors, and the unit
groups and disc centres, against them."""

from math import gcd

from padicbianchi.field import (RayCharacter, ResidueRing, _exact_conductor,
                                one, units)


def ref_unit_discs(mu):
    """(units, centres) of the ray distribution mu as lists of int pairs:
    the units a mod g and, for each a and each unit j mod pi in that order,
    the centre B = b + g t of the disc, t = (j - b)/g mod pi, for the lift
    b = a + lift_offset * g. Over O_F by ResidueRing's QuadInt unit_elements,
    inverse and reduce; over Z (g an int) by ints."""
    g, pi, k = mu.g_mod, mu.pi, mu.lift_offset
    if isinstance(g, int):
        us = [a for a in range(g) if gcd(a, g) == 1]
        js = [j for j in range(pi) if gcd(j, pi) == 1]
        ginv = pow(g, -1, pi)
        return ([(a, 0) for a in us],
                [(a + g * k + g * ((j - a - g * k) * ginv % pi), 0)
                 for a in us for j in js])
    R = ResidueRing(pi)
    ginv = R.inverse(g)
    us = ResidueRing(g).unit_elements()
    centres = []
    for a in us:
        b = a + g * k
        for j in R.unit_elements():
            B = b + g * R.reduce((j - b) * ginv)
            centres.append((B.a, B.b))
    return [(a.a, a.b) for a in us], centres


def quadratic_ray_characters(c):
    """All characters of (O_F/c)^x of order <= 2 trivial on the unit group.

    Each returned character is annotated with its exact conductor.
    """
    ring = ResidueRing(c)
    us = ring.unit_elements()
    unit_imgs = [ring.reduce(u) for u in units(c.d)]
    # subgroup S generated by squares and global units; characters = homs of U/S
    gens = [ring.mul(u, u) for u in us] + unit_imgs
    S = {ring.reduce(one(c.d))}
    frontier = list(S)
    genset = set(gens)
    while frontier:
        x = frontier.pop()
        for g in genset:
            y = ring.mul(x, g)
            if y not in S:
                S.add(y)
                frontier.append(y)
    # coset decomposition of U by S
    cosets = []
    seen = set()
    for u in us:
        if u in seen:
            continue
        coset = {ring.mul(u, s) for s in S}
        seen |= coset
        cosets.append((u, coset))
    # U/S is elementary abelian 2-group; find a basis greedily
    basis = []
    span = {frozenset(cosets[0][1])} if cosets else set()
    coset_of = {}
    for rep, cs in cosets:
        for x in cs:
            coset_of[x] = rep
    id_rep = coset_of[ring.reduce(one(c.d))]
    span_reps = {id_rep}
    for rep, _ in cosets:
        if rep in span_reps:
            continue
        basis.append(rep)
        span_reps |= {coset_of[ring.mul(rep, x)] for x in list(span_reps)}
    chars = []
    for mask in range(1 << len(basis)):
        signs = {b: (-1 if (mask >> i) & 1 else 1) for i, b in enumerate(basis)}
        # extend multiplicatively over the whole unit group
        table = {}
        for u in us:
            # express coset_of[u] in the basis by brute-force search
            table[u] = _coset_sign(u, basis, signs, coset_of, ring, id_rep)
        cond = _exact_conductor(c, table, ring)
        chars.append(RayCharacter(c, table, cond))
    return chars


def _coset_sign(u, basis, signs, coset_of, ring, id_rep):
    # walk through subsets of the basis to find the expression of u's coset
    from itertools import combinations
    target = coset_of[u]
    if target == id_rep:
        return 1
    for r in range(1, len(basis) + 1):
        for combo in combinations(basis, r):
            prod = combo[0]
            for b in combo[1:]:
                prod = ring.mul(prod, b)
            if coset_of[prod] == target:
                s = 1
                for b in combo:
                    s *= signs[b]
                return s
    raise AssertionError("coset not spanned by basis")
