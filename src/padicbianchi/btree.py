"""The Bruhat-Tits tree of GL_2 over the completion at a prime.

Vertices are homothety classes of lattices; the standard vertex v_* is
[O + O] and the standard edge e_* points from v_* to [O + pi*O]. An edge
e = gamma * e_* carries the open set U(e) = gamma^{-1}(O) under the twisted
action [[a,b],[c,d]] . x = (b + d x)/(a + c x) of GL_2 on P^1.

Everything here reduces to exact ball arithmetic: the canonical form of an
edge is (flip, a, u mod pi^a), with representative [[pi^a, u], [0, 1]]
(right-multiplied by alpha = [[0,-1],[pi,0]] when flipped), and

    U(e) = -u + pi^a * O        (flip = 0, a ball)
    U(e) = complement of that   (flip = 1, contains infinity)

so equality, action, paths and membership are all decided by valuations
and residues. Both come from the norm, as in the completion (padic):
v_pi(x) = v_p(N(x)) / f, and a unit x is inverted mod pi^k as
conj(x) N(x)^-1 (PadicContext.inv). This holds because p does not split;
at a split prime N(x) counts the factors of pibar too, so Tree refuses
one, as the moment layers do (PrimeData.minpoly).
"""

from .field import (
    QuadInt,
    ResidueRing,
    exact_div,
    int_val,
    mat_det,
    mat_mul,
    one,
)

INF = 10**9  # valuation of zero


class Tree:
    """The tree T_p for the completion of the field at prime_data."""

    def __init__(self, prime_data):
        prime_data.minpoly()  # refuses a split prime
        self.pd = prime_data
        self.pi = prime_data.pi
        self.d = self.pi.d
        self.q = prime_data.norm
        self._rings = {}
        self.residues = list(ResidueRing(self.pi).elements())
        assert len(self.residues) == self.q

    def ring(self, n):
        if n not in self._rings:
            self._rings[n] = ResidueRing(self.pi ** n)
        return self._rings[n]

    def val(self, x):
        """pi-adic valuation of a QuadInt (INF for zero): v_p(N(x)) / f,
        since N(pi) = p^f and p does not split."""
        if not x:
            return INF
        return int_val(x.norm(), self.pd.p) // self.pd.f

    def uclass(self, num, den, a):
        """Canonical form of num/den in F_p / pi^a O_p as (e, w) with
        u = pi^e * w, w a canonical unit residue mod pi^(a-e); None for the
        zero class. The unit part of den is inverted as conj(x) N(x)^-1,
        with N(x)^-1 taken mod N(pi^(a-e)), which pi^(a-e) divides."""
        if not num:
            return None
        vn, vd = self.val(num), self.val(den)
        e = vn - vd
        if e >= a:
            return None
        nn = exact_div(num, self.pi ** vn)
        dd = exact_div(den, self.pi ** vd)
        R = self.ring(a - e)
        return (e, R.reduce(nn * dd.conj() * pow(dd.norm(), -1, R.size)))

    def ufrac(self, ucls):
        """The class (e, w) as an exact fraction (num, den) over O_F."""
        if ucls is None:
            return QuadInt(0, 0, self.d), one(self.d)
        e, w = ucls
        if e >= 0:
            return w * self.pi ** e, one(self.d)
        return w, self.pi ** (-e)

    # -- vertices ---------------------------------------------------------

    def standard_vertex(self):
        return Vertex(self, 0, None)

    def vertex(self, a, num, den):
        """The vertex whose lattice chain coordinate is the ball
        num/den + pi^a O."""
        return Vertex(self, a, self.uclass(num, den, a))

    # -- edges ------------------------------------------------------------

    def standard_edge(self):
        return Edge(self, 0, 0, None)

    def alpha(self):
        """A normalizer of the Iwahori with alpha e_* = reverse(e_*)."""
        z = QuadInt(0, 0, self.d)
        return ((z, -one(self.d)), (self.pi, z))

    def edge_from_matrix(self, g):
        """Canonical edge gamma * e_* for gamma = g (entries in O_F)."""
        det = mat_det(g)
        if not det:
            raise ValueError("singular matrix does not act on the tree")
        (p, q), (r, s) = g
        vdet = self.val(det)
        vr, vs = self.val(r), self.val(s)
        if vr > vs:
            a = vdet - 2 * vs
            return Edge(self, 0, a, self.uclass(q, s, a))
        a = vdet + 1 - 2 * vr
        return Edge(self, 1, a, self.uclass(p, r, a))


class Vertex:
    """Canonical form (a, u mod pi^a): the lattice class of
    [[pi^a, u], [0, 1]] applied to O + O."""

    __slots__ = ("tree", "a", "u", "_key")

    def __init__(self, tree, a, u):
        self.tree = tree
        self.a = a
        self.u = u
        self._key = (a, None if u is None else (u[0], u[1].a, u[1].b))

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Vertex) and self._key == other._key

    def __hash__(self):
        return hash(("v", self._key))

    def __repr__(self):
        n, d = self.tree.ufrac(self.u)
        return "Vertex(a=%d, u=%r/%r)" % (self.a, n, d)

    def parity(self):
        return self.a % 2

    def parent(self):
        num, den = self.tree.ufrac(self.u)
        return Vertex(self.tree, self.a - 1, self.tree.uclass(num, den, self.a - 1))

    def children(self):
        t = self.tree
        num, den = t.ufrac(self.u)
        out = []
        for r in t.residues:
            # u + r * pi^a, written over the denominator of u
            if self.a >= 0:
                nn = num + r * t.pi ** self.a * den
                dd = den
            else:
                nn = num * t.pi ** (-self.a) + r * den
                dd = den * t.pi ** (-self.a)
            out.append(Vertex(t, self.a + 1, t.uclass(nn, dd, self.a + 1)))
        return out


class Edge:
    """Canonical form (flip, a, u mod pi^a); see the module docstring."""

    __slots__ = ("tree", "flip", "a", "u", "_key")

    def __init__(self, tree, flip, a, u):
        self.tree = tree
        self.flip = flip
        self.a = a
        self.u = u
        self._key = (flip, a, None if u is None else (u[0], u[1].a, u[1].b))

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Edge) and self._key == other._key

    def __hash__(self):
        return hash(("e", self._key))

    def __repr__(self):
        n, d = self.tree.ufrac(self.u)
        return "Edge(flip=%d, a=%d, u=%r/%r)" % (self.flip, self.a, n, d)

    def parity(self):
        return (self.a + self.flip) % 2

    def reverse(self):
        return Edge(self.tree, 1 - self.flip, self.a, self.u)

    def source(self):
        v = Vertex(self.tree, self.a, self.u)
        return v if self.flip == 0 else v.parent()

    def target(self):
        v = Vertex(self.tree, self.a, self.u)
        return v.parent() if self.flip == 0 else v

    def rep_matrix(self):
        """A representative gamma over O_F with self = gamma e_* (up to the
        scalars, which act trivially); det is a unit times pi^(a + flip)."""
        t = self.tree
        num, den = t.ufrac(self.u)
        m = max(0, -self.a, t.val(den))
        pim = t.pi ** m
        z = QuadInt(0, 0, t.d)
        g = (
            (t.pi ** (self.a + m), exact_div(num * pim, den)),
            (z, pim),
        )
        if self.flip:
            g = mat_mul(g, t.alpha())
        return g

    def contains(self, num, den=None):
        """Membership of a cusp num/den (den None or 0 means infinity) in
        the open set U(self)."""
        t = self.tree
        if den is None or not den:
            return self.flip == 1
        un, ud = t.ufrac(self.u)
        v = t.val(num * ud + un * den) - t.val(den) - t.val(ud)
        inside = v >= self.a
        return inside if self.flip == 0 else not inside


def act(gamma, e):
    """The edge gamma * e. Parity flips when v(det gamma) is odd."""
    g = mat_mul(gamma, e.rep_matrix())
    out = e.tree.edge_from_matrix(g)
    return out


def neighbors_with_target(v):
    """The N(p) + 1 edges pointing into v: the reversed edge up to the
    parent first, then the q edges coming up from the children."""
    t = v.tree
    out = [Edge(t, 1, v.a, v.u)]
    for c in v.children():
        out.append(Edge(t, 0, c.a, c.u))
    return out


def cusp_pair_path(tree, c, v, j_lo, j_hi):
    """The edges e_j = gamma_j e_*, gamma_j = [[pi^-j, u],[0,1]] with
    u = v/c, for j_lo <= j <= j_hi. U(e_j) = {t : val(c t + v) >= -j}; the
    embedding matrix gamma_{c,v} shifts e_j to e_{j+s}. The caller's
    cocycle.EmbeddingDatum has checked that c is coprime to p and v a unit
    mod c."""
    out = []
    for j in range(j_lo, j_hi + 1):
        out.append(Edge(tree, 0, -j, tree.uclass(v, c, -j)))
    return out


def dot_neighborhood(tree, depth=3):
    """DOT description of the ball of the given radius around v_*."""
    if depth > 3:
        raise ValueError("depth at most 3")
    lines = ["graph btree {"]
    seen = {tree.standard_vertex().key(): 0}
    order = [tree.standard_vertex()]
    frontier = [tree.standard_vertex()]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for e in neighbors_with_target(v):
                w = e.source()
                if w.key() not in seen:
                    seen[w.key()] = len(seen)
                    order.append(w)
                    nxt.append(w)
                    lines.append("  v%d -- v%d;" % (seen[v.key()], seen[w.key()]))
        frontier = nxt
    for v in order:
        lines.append('  v%d [label="%d"];' % (seen[v.key()], v.parity()))
    lines.append("}")
    return "\n".join(lines)
