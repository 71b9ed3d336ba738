"""Reference copies of the QuadInt residue API that field.ResidueRing
replaced by residue codes: the residues and the units of O_F/(n) as
QuadInts in code order (elements, unit_elements), and reduction, product,
unit test and multiplicative order on QuadInts (reduce, mul, is_unit,
mult_order), the unit test by the scalar gcd of euclid_reference. Each
takes the ResidueRing whose QuadInt methods it replaces. The derived
quantities of an embedding datum (ref_embedding) run on them. The tests
compare the code API, the characters and the embedding data against
them."""

import euclid_reference
from padicbianchi.field import QuadInt, one


def elements(ring):
    for b in range(ring.h11):
        for a in range(ring.h00):
            yield QuadInt(a, b, ring.d)


def reduce(ring, x):
    if isinstance(x, int):
        x = QuadInt(x, 0, ring.d)
    return QuadInt(*ring.reduce_pair(x.a, x.b), ring.d)


def is_unit(ring, x):
    return euclid_reference.ref_gcd(x, ring.n).is_unit()


def unit_elements(ring):
    return [x for x in elements(ring) if is_unit(ring, x)]


def mul(ring, x, y):
    return reduce(ring, x * y)


def mult_order(ring, x):
    y = reduce(ring, x)
    if not is_unit(ring, y):
        raise ValueError("order of a non-unit")
    k, z = 1, y
    e = reduce(ring, one(ring.d))
    while z != e:
        z = mul(ring, z, y)
        k += 1
    return k


def ref_embedding(ring, pi, v):
    """(s', s, J) of the embedding datum (c, v) at the uniformizer pi, for
    ring = ResidueRing(c): the orders of pi and (twice) of pi^2, and the
    coset J_v = v<pi> as a dict from the QuadInt residue to its least
    exponent."""
    s_prime = mult_order(ring, pi)
    J = {}
    cur = reduce(ring, v)
    for j in range(s_prime):
        if cur not in J:
            J[cur] = j
        cur = reduce(ring, cur * pi)
    return s_prime, 2 * mult_order(ring, reduce(ring, pi * pi)), J
