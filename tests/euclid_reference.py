"""Reference copies of the Euclidean code that field's kernels replaced.
The QuadInt code: division with the four-point quotient scan, gcd, the
extended Euclid, the unit inverse, cusp normalisation, the
continued-fraction matrices, the CRT generators and the scalar generator
lift of P1, the floor-division lift of RationalP1, and the Manin rows and
U_p plan terms of a list of operators on normalised cusps. The scalar
int-pair decomposition (pair_cf, pair_path) that field.manin_pieces
stacks. The tests compare the kernels against them."""

from itertools import product
from math import gcd

import residue_reference as rref
from padicbianchi import field as fld
from padicbianchi.field import QuadInt, pair_divmod


def pair_cf(S, T, c):
    """Determinant-1 matrices g_i with sum {g_i 0 -> g_i oo} = {0 -> c}
    for an int cusp c = (num : den): Manin's trick via the Euclidean
    continued fraction of num/den, one path at a time on Python ints. For
    the cusp 0 the list is empty; for infinity it is [identity] (the base
    segment {0 -> oo} itself)."""
    na, nb, da, db = c
    if not (da or db):
        return [(1, 0, 0, 0, 0, 0, 1, 0)]
    if not (na or nb):
        return []
    # convergents p_k/q_k from p_{-1}/q_{-1} = 1/0 and p_{-2}/q_{-2} = 0/1;
    # [[p_k, p_{k-1}], [q_k, q_{k-1}]] has determinant (-1)^(k+1), so its
    # second column times that sign makes determinant 1
    p1a, p1b, q1a, q1b = 1, 0, 0, 0      # p_{k-1}, q_{k-1}
    p2a, p2b, q2a, q2b = 0, 0, 1, 0      # p_{k-2}, q_{k-2}
    mats = [(1, 0, 0, 0, 0, 0, 1, 0)]    # the k = -1 segment {0 -> oo}
    sign = -1
    while da or db:
        ka, kb, ra, rb = pair_divmod(S, T, na, nb, da, db)
        na, nb, da, db = da, db, ra, rb
        pa = ka * p1a + T * kb * p1b + p2a
        pb = ka * p1b + kb * p1a + S * kb * p1b + p2b
        qa = ka * q1a + T * kb * q1b + q2a
        qb = ka * q1b + kb * q1a + S * kb * q1b + q2b
        mats.append((pa, pb, sign * p1a, sign * p1b,
                     qa, qb, sign * q1a, sign * q1b))
        p2a, p2b, q2a, q2b = p1a, p1b, q1a, q1b
        p1a, p1b, q1a, q1b = pa, pb, qa, qb
        sign = -sign
    return mats


def pair_path(S, T, r, s):
    """List of (sign, g) with sum sign*{g 0 -> g oo} = {r -> s}, for int
    cusps r, s as in pair_cf: {0 -> s} - {0 -> r}. When neither cusp is 0
    both lists start with the base segment {0 -> oo}, and the two copies
    cancel, so neither is listed."""
    cf_s, cf_r = pair_cf(S, T, s), pair_cf(S, T, r)
    if cf_s and cf_r:
        cf_s, cf_r = cf_s[1:], cf_r[1:]
    return [(1, g) for g in cf_s] + [(-1, g) for g in cf_r]


def ref_divmod(x, y):
    n = y.norm()
    z = x * y.conj()
    fa, fb = z.a // n, z.b // n
    best = None
    for qa in (fa, fa + 1):
        for qb in (fb, fb + 1):
            q = QuadInt(qa, qb, x.d)
            r = x - q * y
            if best is None or r.norm() < best[1].norm():
                best = (q, r)
    assert best[1].norm() < n
    return best


def ref_gcd(x, y):
    while y:
        x, y = y, ref_divmod(x, y)[1]
    return x


def ref_xgcd(x, y):
    """(g, u, v) with u*x + v*y = g = ref_gcd(x, y), by the remainders of
    ref_divmod."""
    d = x.d
    r0, r1 = x, y
    s0, s1 = QuadInt(1, 0, d), QuadInt(0, 0, d)
    t0, t1 = QuadInt(0, 0, d), QuadInt(1, 0, d)
    while r1:
        q, r = ref_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def ref_unit_inverse(u):
    """The inverse of the unit u, found among the units of its field."""
    for v in fld.units(u.d):
        if u * v == 1:
            return v
    raise ValueError("%r is not a unit" % (u,))


def ref_reps(n):
    """The generators of P^1(O_F/n), n squarefree, in the order of P1: the
    CRT combinations of (0 : 1) and (1 : x) over the primes pi of n, by
    the idempotents m u/g, 1 mod pi and 0 mod m = n/pi, for the ref_xgcd
    u*m + v*pi = g; each (c : d) as the int row (c_a, c_b, d_a, d_b)."""
    d = n.d
    zero, one = QuadInt(0, 0, d), QuadInt(1, 0, d)
    primes = [pi for pi, _, _ in fld.factor_ideal(n)]
    ring = fld.ResidueRing(n)
    idempotents = []
    for pi in primes:
        m = ref_exact_div(n, pi)
        g, u, _ = ref_xgcd(m, pi)
        idempotents.append(m * u * ref_unit_inverse(g))

    def crt(residues):
        return rref.reduce(ring, sum((r * e for r, e in zip(residues,
                                                            idempotents)),
                                     zero))
    local = [[(zero, one)]
             + [(one, x) for x in rref.elements(fld.ResidueRing(pi))]
             for pi in primes]
    rows = [(crt([t[0] for t in combo]), crt([t[1] for t in combo]))
            for combo in product(*local)]
    return [(c.a, c.b, dd.a, dd.b) for c, dd in rows]


def ref_lift(p1, i):
    """The lift of generator i of the O_F layer p1 one at a time, by the
    scalar QuadInt gcd and extended Euclid (the code lift_rows runs in
    lockstep): the row (c : d), with c moved by the level until gcd(c, d)
    is a unit (at most 6 tries), completes to [[v/g, -u/g], [c, d]] for
    u*c + v*d = g."""
    ca, cb, da, db = p1.reps[i]
    c, dd = QuadInt(ca, cb, p1.d), QuadInt(da, db, p1.d)
    for _ in range(6):
        if ref_gcd(c, dd).is_unit():
            break
        c = c + p1.n
    else:
        raise AssertionError("could not lift %r" % ((c, dd),))
    gg, u, v = ref_xgcd(c, dd)
    ui = ref_unit_inverse(gg)
    return ((v * ui, (-u) * ui), (c, dd))


def ref_rational_lift(p1, i):
    """The lift of generator i of the Z layer p1 by the extended Euclid
    with floor quotients: the row (c : d), with c moved by N until
    gcd(c, d) = 1, completes to [[v, -u], [c, d]] for u*c + v*d = 1."""
    c, d = p1.reps[i]
    while gcd(c, d) != 1:
        c += p1.N
    r0, r1, u0, u1, v0, v1 = c, d, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    assert r0 == 1
    return ((v0, -u0), (c, d))


def ref_exact_div(x, y):
    q, r = ref_divmod(x, y)
    assert not r
    return q


def ref_cusp(num, den):
    """(num, den) divided by their gcd."""
    g = ref_gcd(num, den)
    return ref_exact_div(num, g), ref_exact_div(den, g)


def ref_moebius(mat, num, den):
    (a, b), (c, d) = mat
    return ref_cusp(a * num + b * den, c * num + d * den)


def ref_cf(num, den):
    """The continued-fraction matrices (pair_cf) of the normalised
    cusp (num : den)."""
    d = num.d
    zero, one = QuadInt(0, 0, d), QuadInt(1, 0, d)
    ident = ((one, zero), (zero, one))
    if not den:
        return [ident]
    if not num:
        return []
    quots = []
    while den:
        q, r = ref_divmod(num, den)
        quots.append(q)
        num, den = den, r
    pm2, qm2 = zero, one
    pm1, qm1 = one, zero
    mats = [ident]
    for q in quots:
        pk = q * pm1 + pm2
        qk = q * qm1 + qm2
        ui = ref_unit_inverse(pk * qm1 - pm1 * qk)
        mats.append(((pk, pm1 * ui), (qk, qm1 * ui)))
        pm2, qm2 = pm1, qm1
        pm1, qm1 = pk, qk
    return mats


def ref_adj(mat):
    """The adjugate: the inverse of a determinant-1 matrix."""
    (a, b), (c, d) = mat
    return ((d, -b), (-c, a))


def ref_path(r, s):
    """path_between of the normalised cusps r, s given as (num, den): the
    base segment that both lists start with when neither cusp is 0 cancels
    and is left out."""
    cf_s, cf_r = ref_cf(*s), ref_cf(*r)
    if cf_s and cf_r:
        cf_s, cf_r = cf_s[1:], cf_r[1:]
    return [(1, g) for g in cf_s] + [(-1, g) for g in cf_r]


def ref_generator_paths(p1, mats):
    """(i, delta, path) for each generator i of the O_F layer p1 and each
    delta in mats: the ref_path of the normalised cusps of
    {delta g_i 0 -> delta g_i oo}, g_i = p1.lift_matrix(i)."""
    d = p1.d
    zero, one = QuadInt(0, 0, d), QuadInt(1, 0, d)
    for i in range(len(p1)):
        g = p1.lift_matrix(i)
        r, s = ref_moebius(g, zero, one), ref_moebius(g, one, zero)
        for delta in mats:
            yield i, delta, ref_path(ref_moebius(delta, *r),
                                     ref_moebius(delta, *s))


def ref_path_rows(p1, mats, index):
    """ManinLayer.path_rows of the O_F layer p1, with index(c, d) the
    generator of a bottom row."""
    rows = [{} for _ in range(len(p1))]
    for i, _, path in ref_generator_paths(p1, mats):
        row = rows[i]
        for sign, h in path:
            j = index(*h[1])
            row[j] = row.get(j, 0) + sign
    return [{j: k for j, k in row.items() if k} for row in rows]


def ref_hecke_terms(p1, mats, index):
    """ManinLayer.hecke_terms of the O_F layer p1 as a list: each piece h
    of a generator path is h = gamma g_j, gamma = h adj(g_j), and gives
    the term (i, j, sign, adj(gamma) delta) as an 8-tuple."""
    out = []
    for i, delta, path in ref_generator_paths(p1, mats):
        for sign, h in path:
            j = index(*h[1])
            gamma = fld.mat_mul(h, ref_adj(p1.lift_matrix(j)))
            out.append((i, j, sign, fld.mat_pairs(
                fld.mat_mul(ref_adj(gamma), delta))))
    return out
