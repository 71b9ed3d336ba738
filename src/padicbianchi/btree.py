"""The Bruhat-Tits tree of GL_2 over the completion at a prime.

Vertices are homothety classes of lattices (Serre, Trees, ch. II.1); the
standard vertex v_* is [O + O] and the standard edge e_* points from v_* to
[O + pi*O]. An edge e = gamma * e_* carries the open set U(e) =
gamma^{-1}(O) under the twisted action [[a,b],[c,d]] . x = (b + d x)/(a + c x)
of GL_2 on P^1.

Everything here is exact ball arithmetic on the int pairs of field: a + b*w
is (a, b) and a matrix the 8-tuple of field.pair_mul. A class u of
F_p / pi^a O_p is None (the zero class) or the tuple (e, w_a, w_b) with
u = pi^e * w, e < a and w = w_a + w_b*w a unit residue mod pi^(a-e),
reduced (ResidueRing.reduce_pair). A vertex is the tuple Vertex(a, u), the
lattice class of [[pi^a, u], [0, 1]] applied to O + O, and an edge the tuple
Edge(flip, a, u), with representative [[pi^a, u], [0, 1]] (right-multiplied
by alpha = [[0,-1],[pi,0]] when flipped); their equality and hashing are
those of the tuples, and

    U(e) = -u + pi^a * O        (flip = 0, a ball)
    U(e) = complement of that   (flip = 1, contains infinity)

so equality, action, paths and membership are all decided by valuations
and residues. The children of (a, (e, w)) are (a + 1, (e, w + r*pi^(a-e)
mod pi^(a+1-e))) for the residues r mod pi, and the parent reduces w mod
pi^(a-1-e); neither needs an inverse. Valuations and inverses come from
the norm, as in the completion (padic): v_pi(x) = v_p(N(x)) / f, and a unit
x is inverted mod pi^k as conj(x) N(x)^-1 (PadicContext.inv). This holds
because p does not split; at a split prime N(x) counts the factors of pibar
too, so Tree refuses one, as the moment layers do (PrimeData.minpoly).
"""

from typing import NamedTuple, Optional

from .field import (
    ResidueRing,
    field_params,
    int_val,
    pair_exact_div,
    pair_mul,
    pair_norm,
    pair_prod,
)

INF = 10**9  # valuation of zero


class Vertex(NamedTuple):
    """The vertex (a, u); see the module docstring."""

    a: int
    u: Optional[tuple]

    def parity(self):
        return self.a % 2


class Edge(NamedTuple):
    """The edge (flip, a, u); see the module docstring."""

    flip: int
    a: int
    u: Optional[tuple]

    def parity(self):
        return (self.a + self.flip) % 2

    def reverse(self):
        return Edge(1 - self.flip, self.a, self.u)


class Tree:
    """The tree T_p for the completion of the field at prime_data."""

    def __init__(self, prime_data):
        prime_data.minpoly()  # refuses a split prime
        self.pd = prime_data
        _, self.S, self.T, _ = field_params(prime_data.pi.d)
        self.pi = (prime_data.pi.a, prime_data.pi.b)
        self.q = prime_data.norm
        self._pows = [(1, 0)]
        self._rings = {}
        R = self.ring(1)
        self.residues = [(c % R.h00, c // R.h00) for c in range(R.size)]

    def mul(self, x, y):
        return pair_prod(self.S, self.T, *x, *y)

    def pi_pow(self, k):
        """pi^k (k >= 0) as a pair."""
        while len(self._pows) <= k:
            self._pows.append(self.mul(self._pows[-1], self.pi))
        return self._pows[k]

    def ring(self, k):
        """O / pi^k, one per exponent k >= 1."""
        if k not in self._rings:
            self._rings[k] = ResidueRing(self.pd.pi ** k)
        return self._rings[k]

    def val(self, x):
        """pi-adic valuation of the pair x (INF for zero): v_p(N(x)) / f,
        since N(pi) = p^f and p does not split."""
        if not any(x):
            return INF
        return int_val(pair_norm(self.S, self.T, *x), self.pd.p) // self.pd.f

    def uclass(self, num, den, a):
        """The class of num/den (int pairs) in F_p / pi^a O_p: None or
        (e, w_a, w_b). The unit part of den is inverted as conj(x) N(x)^-1,
        with N(x)^-1 taken mod N(pi^(a-e)), which pi^(a-e) divides."""
        if not any(num):
            return None
        vn, vd = self.val(num), self.val(den)
        e = vn - vd
        if e >= a:
            return None
        S, T = self.S, self.T
        na, nb = pair_exact_div(S, T, *num, *self.pi_pow(vn))
        da, db = pair_exact_div(S, T, *den, *self.pi_pow(vd))
        R = self.ring(a - e)
        inv = pow(pair_norm(S, T, da, db), -1, R.size)
        wa, wb = pair_prod(S, T, na, nb, da + S * db, -db)
        return (e,) + R.reduce_pair(wa * inv, wb * inv)

    def standard_vertex(self):
        return Vertex(0, None)

    def parent(self, v):
        a, u = v
        if u is None or u[0] >= a - 1:
            return Vertex(a - 1, None)
        e, wa, wb = u
        return Vertex(a - 1, (e,) + self.ring(a - 1 - e).reduce_pair(wa, wb))

    def children(self, v):
        """The q children of v, in the order of the residues r mod pi. The
        zero class takes the rule at e = a and w = 0, and its child r = 0
        is the zero class again."""
        a, u = v
        e, wa, wb = (a, 0, 0) if u is None else u
        R, step = self.ring(a + 1 - e), self.pi_pow(a - e)
        out = []
        for r in self.residues:
            ra, rb = self.mul(r, step)
            w = R.reduce_pair(wa + ra, wb + rb)
            out.append(Vertex(a + 1, (e,) + w if any(w) else None))
        return out

    def standard_edge(self):
        return Edge(0, 0, None)

    def alpha(self):
        """A normalizer of the Iwahori with alpha e_* = reverse(e_*)."""
        return (0, 0, -1, 0) + self.pi + (0, 0)

    def source(self, e):
        v = Vertex(e.a, e.u)
        return v if e.flip == 0 else self.parent(v)

    def target(self, e):
        v = Vertex(e.a, e.u)
        return self.parent(v) if e.flip == 0 else v

    def neighbors_with_target(self, v):
        """The N(p) + 1 edges pointing into v: the reversed edge up to the
        parent first, then the q edges coming up from the children."""
        return [Edge(1, v.a, v.u)] + [Edge(0, c.a, c.u)
                                      for c in self.children(v)]

    def rep_row(self, edge):
        """A representative gamma = [[pi^(a+m), w pi^(e+m)], [0, pi^m]],
        m = max(0, -a, -e), with edge = gamma e_* (up to the scalars, which
        act trivially), as an 8-tuple, times alpha when flipped; det gamma
        is a unit times pi^(a + flip). The zero class has w = 0."""
        flip, a, u = edge
        e, wa, wb = u or (0, 0, 0)
        m = max(0, -a, -e)
        g = (self.pi_pow(a + m) + self.mul((wa, wb), self.pi_pow(e + m))
             + (0, 0) + self.pi_pow(m))
        return pair_mul(self.S, self.T, g, self.alpha()) if flip else g

    def edge_from_matrix(self, g):
        """Canonical edge gamma * e_* for the 8-tuple gamma = g."""
        p, q, r, s = g[0:2], g[2:4], g[4:6], g[6:8]
        (da, db), (ea, eb) = self.mul(p, s), self.mul(q, r)
        vdet = self.val((da - ea, db - eb))
        if vdet == INF:
            raise ValueError("singular matrix does not act on the tree")
        vr, vs = self.val(r), self.val(s)
        if vr > vs:
            a = vdet - 2 * vs
            return Edge(0, a, self.uclass(q, s, a))
        a = vdet + 1 - 2 * vr
        return Edge(1, a, self.uclass(p, r, a))

    def act(self, gamma, e):
        """The edge gamma * e (gamma an 8-tuple). Parity flips when
        v(det gamma) is odd."""
        return self.edge_from_matrix(
            pair_mul(self.S, self.T, gamma, self.rep_row(e)))

    def contains(self, edge, num, den=None):
        """Membership of a cusp num/den (int pairs; den None or 0 means
        infinity) in the open set U(edge): val(num/den + u) >= a, with
        u = pi^e w = (w pi^(e+k)) / pi^k, k = max(0, -e)."""
        flip, a, u = edge
        if den is None or not any(den):
            return flip == 1
        e, wa, wb = u or (0, 0, 0)
        k = max(0, -e)
        xa, xb = self.mul(num, self.pi_pow(k))
        ua, ub = self.mul(self.mul((wa, wb), self.pi_pow(e + k)), den)
        inside = self.val((xa + ua, xb + ub)) - self.val(den) - k >= a
        return inside if flip == 0 else not inside


def cusp_pair_path(tree, c, v, j_lo, j_hi):
    """The edges e_j = gamma_j e_*, gamma_j = [[pi^-j, u],[0,1]] with
    u = v/c (c and v int pairs), for j_lo <= j <= j_hi. U(e_j) =
    {t : val(c t + v) >= -j}; the embedding matrix gamma_{c,v} shifts e_j
    to e_{j+s}. The caller's cocycle.EmbeddingDatum has checked that c is
    coprime to p and v a unit mod c."""
    return [Edge(0, -j, tree.uclass(v, c, -j))
            for j in range(j_lo, j_hi + 1)]


def dot_neighborhood(tree, depth=3):
    """DOT description of the ball of the given radius around v_*."""
    if depth > 3:
        raise ValueError("depth at most 3")
    lines = ["graph btree {"]
    seen = {tree.standard_vertex(): 0}
    frontier = [tree.standard_vertex()]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for e in tree.neighbors_with_target(v):
                w = tree.source(e)
                if w not in seen:
                    seen[w] = len(seen)
                    nxt.append(w)
                    lines.append("  v%d -- v%d;" % (seen[v], seen[w]))
        frontier = nxt
    for v, k in seen.items():
        lines.append('  v%d [label="%d"];' % (k, v.parity()))
    lines.append("}")
    return "\n".join(lines)
