"""Reference copies of ray-class code that the package replaced: the
ray-character enumeration that field.quadratic_ray_characters replaced, on
QuadInt residues (residue_reference), with the same basis of U/S but each
character value found by a search over the subsets of the basis
(_coset_sign), and its conductor by reducing every unit of the table
(_exact_conductor); and the unit discs of a ray distribution one disc at a
time, on QuadInts (ref_unit_discs). The tests compare the characters,
their order, tables and conductors, and the unit groups and disc centres,
against them."""

from math import gcd

from residue_reference import mul, reduce, unit_elements
from padicbianchi.field import ResidueRing, _ideal_divisors, one, units


def ref_unit_discs(mu):
    """(units, centres) of the ray distribution mu as lists of int pairs:
    the units a mod g and, for each a and each unit j mod pi in that order,
    the centre B = b + g t of the disc, t = (j - b)/g mod pi, for the lift
    b = a + lift_offset * g. Over O_F by the QuadInt unit_elements and
    reduce and ResidueRing.inverse; over Z (g an int) by ints."""
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
    us = unit_elements(ResidueRing(g))
    centres = []
    for a in us:
        b = a + g * k
        for j in unit_elements(R):
            B = b + g * reduce(R, (j - b) * ginv)
            centres.append((B.a, B.b))
    return [(a.a, a.b) for a in us], centres


def quadratic_ray_characters(c):
    """All characters of (O_F/c)^x of order <= 2 trivial on the unit group.

    Each character is returned as the pair (table, conductor): a dict from
    each unit residue (a QuadInt) to its sign, and the exact conductor.
    """
    ring = ResidueRing(c)
    us = unit_elements(ring)
    unit_imgs = [reduce(ring, u) for u in units(c.d)]
    # subgroup S generated by squares and global units; characters = homs of U/S
    gens = [mul(ring, u, u) for u in us] + unit_imgs
    S = {reduce(ring, one(c.d))}
    frontier = list(S)
    genset = set(gens)
    while frontier:
        x = frontier.pop()
        for g in genset:
            y = mul(ring, x, g)
            if y not in S:
                S.add(y)
                frontier.append(y)
    # coset decomposition of U by S
    cosets = []
    seen = set()
    for u in us:
        if u in seen:
            continue
        coset = {mul(ring, u, s) for s in S}
        seen |= coset
        cosets.append((u, coset))
    # U/S is elementary abelian 2-group; find a basis greedily
    basis = []
    span = {frozenset(cosets[0][1])} if cosets else set()
    coset_of = {}
    for rep, cs in cosets:
        for x in cs:
            coset_of[x] = rep
    id_rep = coset_of[reduce(ring, one(c.d))]
    span_reps = {id_rep}
    for rep, _ in cosets:
        if rep in span_reps:
            continue
        basis.append(rep)
        span_reps |= {coset_of[mul(ring, rep, x)] for x in list(span_reps)}
    chars = []
    for mask in range(1 << len(basis)):
        signs = {b: (-1 if (mask >> i) & 1 else 1) for i, b in enumerate(basis)}
        # extend multiplicatively over the whole unit group
        table = {}
        for u in us:
            # express coset_of[u] in the basis by brute-force search
            table[u] = _coset_sign(u, basis, signs, coset_of, ring, id_rep)
        chars.append((table, _exact_conductor(c, table)))
    return chars


def _exact_conductor(modulus, table):
    best = modulus
    for g in _ideal_divisors(modulus):
        if abs(g.norm()) >= abs(best.norm()):
            continue
        sub = ResidueRing(g)
        ok = True
        vals = {}
        for u, v in table.items():
            key = reduce(sub, u)
            if key in vals and vals[key] != v:
                ok = False
                break
            vals[key] = v
        if ok:
            best = g
    return best


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
                prod = mul(ring, prod, b)
            if coset_of[prod] == target:
                s = 1
                for b in combo:
                    s *= signs[b]
                return s
    raise AssertionError("coset not spanned by basis")
