"""Reference copy of the QuadInt tree that btree's int-pair tree replaced:
a class of F_p / pi^a O_p turned back into an exact fraction (ufrac) and
re-canonicalised (uclass), with the pi-adic valuation by repeated exact
division by pi and the unit part inverted by the QuadInt extended Euclid
(ResidueRing.inverse). Children, parent, representatives, the action,
membership and the cusp-pair path all run on that round trip. Classes and
results are in btree's tuple form: a class is None or (e, w_a, w_b), a
vertex (a, u), an edge (flip, a, u). The tests compare the tree against
it."""

from padicbianchi import btree as bt
from padicbianchi.field import (QuadInt, ResidueRing, exact_div, mat_det,
                                mat_mul, one)


class RefTree:

    def __init__(self, prime_data):
        self.pd = prime_data
        self.pi = prime_data.pi
        self.d = self.pi.d
        self.residues = list(ResidueRing(self.pi).elements())

    def val(self, x):
        if not x:
            return bt.INF
        v = 0
        while True:
            try:
                x = exact_div(x, self.pi)
            except ValueError:
                return v
            v += 1

    def uclass(self, num, den, a):
        if not num:
            return None
        e = self.val(num) - self.val(den)
        if e >= a:
            return None
        nn = exact_div(num, self.pi ** self.val(num))
        dd = exact_div(den, self.pi ** self.val(den))
        R = ResidueRing(self.pi ** (a - e))
        w = R.reduce(nn * R.inverse(dd))
        return (e, w.a, w.b)

    def ufrac(self, u):
        """The class u as an exact fraction (num, den) over O_F."""
        if u is None:
            return QuadInt(0, 0, self.d), one(self.d)
        e, w = u[0], QuadInt(u[1], u[2], self.d)
        if e >= 0:
            return w * self.pi ** e, one(self.d)
        return w, self.pi ** (-e)

    def parent(self, a, u):
        return (a - 1, self.uclass(*self.ufrac(u), a - 1))

    def children(self, a, u):
        num, den = self.ufrac(u)
        out = []
        for r in self.residues:
            # u + r * pi^a, written over the denominator of u
            if a >= 0:
                nn, dd = num + r * self.pi ** a * den, den
            else:
                nn = num * self.pi ** (-a) + r * den
                dd = den * self.pi ** (-a)
            out.append((a + 1, self.uclass(nn, dd, a + 1)))
        return out

    def rep_matrix(self, flip, a, u):
        """gamma over O_F with (flip, a, u) = gamma e_*."""
        num, den = self.ufrac(u)
        m = max(0, -a, self.val(den))
        pim = self.pi ** m
        z = QuadInt(0, 0, self.d)
        g = ((self.pi ** (a + m), exact_div(num * pim, den)), (z, pim))
        if flip:
            g = mat_mul(g, ((z, -one(self.d)), (self.pi, z)))
        return g

    def edge_from_matrix(self, g):
        det = mat_det(g)
        if not det:
            raise ValueError("singular matrix does not act on the tree")
        (p, q), (r, s) = g
        vdet = self.val(det)
        vr, vs = self.val(r), self.val(s)
        if vr > vs:
            a = vdet - 2 * vs
            return (0, a, self.uclass(q, s, a))
        a = vdet + 1 - 2 * vr
        return (1, a, self.uclass(p, r, a))

    def act(self, gamma, flip, a, u):
        return self.edge_from_matrix(mat_mul(gamma,
                                             self.rep_matrix(flip, a, u)))

    def contains(self, flip, a, u, num, den):
        if not den:
            return flip == 1
        un, ud = self.ufrac(u)
        v = self.val(num * ud + un * den) - self.val(den) - self.val(ud)
        inside = v >= a
        return inside if flip == 0 else not inside

    def cusp_pair_path(self, c, v, j_lo, j_hi):
        return [(0, -j, self.uclass(v, c, -j)) for j in range(j_lo, j_hi + 1)]
