"""Tree cocycles and the L-invariant.

A p-new eigensymbol phi spreads out to a family kappa indexed by the edges
of the tree: kappa{r-s}(e, P) = omega^|gamma| (phi|gamma^{-1}){r-s}(P) for
e = gamma e_*. Harmonicity of kappa characterizes p-newness. The lifted
symbol Psi spreads out the same way to a system of edge distributions that
glue to a distribution mu on P^1 of the completion, against which one can
integrate log kernels (double integrals with endpoints in the unramified
quadratic extension of the completion). Both symbols are evaluated on the
same int paths of msymb.ManinLayer, which TreeFamily.paths makes from the
8-tuple edge reps of the int-pair tree (btree), a list of edges in one
ev_paths call: kappa as Fractions, the edge distributions as moment tables.
The balls of a list of edges are one stack on lfun's disc kernel.

Evaluating the resulting cocycles oc (counting) and lc (log) on embedding
data (c, v) gives two numbers per datum whose ratio lc/oc is the
L-invariant; it is independent of the datum because both classes live in a
one-dimensional eigenspace. The log in lc is the p-direction logarithm
l_p = log_p o N = log_iw(z) + log_iw(zbar) of lfun (p is not split, so the
p-direction is the cyclotomic one), which is what makes lc the p-direction
derivative of the p-adic L-function. For a base change with Tate period
q in Q_p, l_p(q) = log_p(q^2) over the edge count ord_pi(q) gives
2 log_p(q)/ord_p(q) at an inert p (ord_pi = ord_p) and log_p(q)/ord_p(q)
at a ramified p (ord_pi = 2 ord_p). The log_iw(z) half alone, the
one-variable normalisation, is reported next to it.

Everything here is for weight (0, 0), where the polynomial coefficients
P_{c,v} are constants.
"""

from fractions import Fraction

import numpy as np

from . import btree as bt
from . import lfun
from . import msymb as ms
from . import padic
from .field import (
    Cusp,
    QuadInt,
    ResidueRing,
    apply_moebius,
    cusp_infinity,
    default_embedding_data,
    exact_div,
    identity_mat,
    mat_pairs,
    one,
    pair_mul,
    units,
)
from .manin import adj_rows, int_rows, pair_mul_rows
from .ocsymb import honest_moment
from .padic import PadicStack


class ConsistencyError(RuntimeError):
    """The two evaluation routes of a cocycle disagree."""


class SupportError(ValueError):
    """Test function not integrable on the requested ball."""


class EmbeddingDatumError(ValueError):
    """An embedding datum (c, v) that the prime rules out: c zero or not
    coprime to p, or v not a unit mod c."""


class NonVanishingError(RuntimeError):
    """No embedding datum with a nonzero counting evaluation was found."""

    def __init__(self, tried):
        super().__init__("oc vanished on every tried datum: %r" % (tried,))
        self.tried = tried


class TreeFamily:
    """The edge-indexed family kappa attached to a symbol (and optionally
    its overconvergent lift, needed for distributions and log kernels).

    Flipped edges are represented by the flip-0 representative times the
    Atkin-Lehner matrix of the level, which keeps representatives inside
    the group the family is equivariant under."""

    def __init__(self, phi, prime_data, psi=None, omega=None):
        self.phi = phi
        self.pd = prime_data
        self.psi = psi
        self.tree = bt.Tree(prime_data)
        self.level = phi.level
        self.W = mat_pairs(ms.atkin_lehner_matrix(prime_data.pi, phi.level))
        if omega is None:
            om = phi.eigen.get("omega")
            omega = int(om) if om is not None else 1
        if omega not in (1, -1):
            raise ValueError("omega must be +-1")
        self.omega = omega
        self.pctx = psi.ctx.pctx if psi is not None else None
        self._ext2 = None
        self._mus = {}

    def mu(self, c):
        """The ray distribution of the lift at modulus c (lfun.build_mu_p),
        one per modulus. Its per-centre tables (total measures, full moment
        tables, log series) keep what the sums read, so that each disc is
        integrated once however many criteria and data sum over it."""
        key = (c.a, c.b)
        if key not in self._mus:
            self._mus[key] = lfun.build_mu_p(self.psi, c)
        return self._mus[key]

    @property
    def ext2(self):
        if self.pctx is None:
            return None
        if self._ext2 is None:
            self._ext2 = Ext2Context(self.pctx)
        return self._ext2

    def edge_rep(self, e):
        """The representative of the edge e as an 8-tuple: the rep_row of
        its flip-0 edge, times the Atkin-Lehner matrix W when e is flipped."""
        g = self.tree.rep_row(bt.Edge(0, e.a, e.u))
        return pair_mul(self.tree.S, self.tree.T, g, self.W) if e.flip else g

    def paths(self, reps, r, s):
        """The int paths {g^-1 r -> g^-1 s} for g in reps (the 8-tuple
        edge_rep of an edge), on which kappa and the edge distribution of
        the edge evaluate the symbol, as the rows of an (n, 8) int array:
        the columns of adj(g) [r s], not normalised (msymb.ManinLayer), in
        one pair_mul_rows over the reps."""
        p1 = self.phi.p1
        rs = int_rows([r.v[:2] + s.v[:2] + r.v[2:] + s.v[2:]], 8)
        h = pair_mul_rows(p1.S, p1.T, adj_rows(int_rows(reps, 8)), rs)
        return h[:, [0, 1, 4, 5, 2, 3, 6, 7]]

    def ev(self, edges, r, s):
        """kappa{r-s}(e) for each edge e of edges, as a list (weight (0,0):
        the polynomial is the constant 1), in one ev_paths call."""
        return self.ev_groups([(edges, r, s)])[0]

    def ev_groups(self, groups):
        """ev(edges, r, s) for each (edges, r, s) of groups, as a list of
        lists, in one ev_paths call."""
        values = iter(self.phi.ev_paths(np.concatenate(
            [self.paths([self.edge_rep(e) for e in edges], r, s)
             for edges, r, s in groups])))
        return [[self.omega ** e.parity() * next(values) for e in edges]
                for edges, _, _ in groups]

    def moments(self, reps, r, s):
        """The moment tables of the edge distributions Psi{r-s} of the
        edges whose edge_rep are reps, (len(reps), 2, M, M), in one
        ev_paths pass on their paths."""
        return self.psi.ev_paths(self.paths(reps, r, s))


def induced_old_symbol(phi_m, pi, level, scaled=False):
    """The level pi*m symbol induced from phi_m of level m via a degeneracy
    section (identity, or t -> pi t when scaled). Such symbols are p-old
    and fail the harmonicity check."""
    d = phi_m.d
    p1 = ms.P1(level)
    z = QuadInt(0, 0, d)
    mat = ((pi, z), (z, one(d))) if scaled else identity_mat(d)
    vals = ms.translated_sums(p1, [mat], phi_m)
    return ms.ModularSymbol(p1, vals, level, d)


def _sample_vertices(tree, count, seed):
    import random
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.randint(1, 3)
        num = (rng.randint(0, 10), rng.randint(0, 10))
        v = bt.Vertex(a, tree.uclass(num, (1, 0), a))
        if v not in out:
            out.append(v)
    return out


def harmonicity_check(fam):
    """The largest |sum of kappa| over the edges into v_* and 5 sampled
    vertices, for each of two test paths, as max_residual, and whether it
    is zero (harmonic), which holds iff the symbol is p-new."""
    tree = fam.tree
    d = fam.pd.pi.d
    vertices = [tree.standard_vertex()] + _sample_vertices(tree, 5, 5)
    paths = [
        (Cusp(QuadInt(2, 3, d), QuadInt(7, 0, d)), cusp_infinity(d)),
        (Cusp(QuadInt(1, 0, d), QuadInt(4, 5, d)),
         Cusp(QuadInt(0, 1, d), QuadInt(3, 0, d))),
    ]
    groups = [(tree.neighbors_with_target(v), r, s)
              for v in vertices for r, s in paths]
    worst = max(abs(sum(values)) for values in fam.ev_groups(groups))
    return {"max_residual": worst, "harmonic": worst == 0}


# ---------------------------------------------------------------------------
# edge distributions


def ball_children(tree, e):
    """The N(p) edges whose balls partition U(e)."""
    return [x for x in tree.neighbors_with_target(tree.source(e))
            if x != e.reverse()]


def full_cover(fam):
    """Edges whose balls partition the whole projective line."""
    return fam.tree.neighbors_with_target(fam.tree.standard_vertex())


def _balls(pctx, reps, bounded, log):
    """The centres -B/D and scales A/D of the balls of the edge reps
    [[A, B], [C, D]] (8-tuples) where bounded holds, as two stacks; 0 at
    full precision elsewhere. A stacked division shifts by one valuation,
    so the rows are divided in groups of one v(D), by pi^v and then by the
    unit D / pi^v: the element division x / D step for step, with its
    values, precisions and errors, which are recorded in log, one row per
    edge."""
    n, mod = len(reps), pctx.mod
    R = np.array([[x % mod for x in (-g[2], -g[3], g[0], g[1], g[6], g[7])]
                  for g in reps], dtype=pctx.dtype).reshape(n, 6)
    X = PadicStack.embed(pctx, R[:, [0, 2]], R[:, [1, 3]])
    D = PadicStack.embed(pctx, R[:, 4], R[:, 5])
    out = PadicStack.full(pctx, 0, (n, 2), pctx.cap)
    vD = D.val()
    errors = np.full(n, None, dtype=object)
    for v in np.unique(vD[bounded]).tolist():
        rows = np.flatnonzero(bounded & (vD == v))
        part = padic.StackLog(len(rows))
        x, d = (PadicStack(pctx, y.c0[rows], y.c1[rows], y.prec[rows], part)
                for y in (X, D))
        if v:
            pv = padic.ctx_uniformizer(pctx) ** v
            x, d = x / pv, d / pv
        out.put(rows, x * d.inverse()[:, None])
        errors[rows] = part.row_errors()
    log.record_rows(errors)
    return out[:, 0], out[:, 1]


def edge_integrals(fam, edges, r, s, zeta):
    """The integrals of the polynomial zeta = {(i, j): coeff} in (t, tbar)
    over the balls U(e) of edges against mu{r-s}, one PadicStack row per
    edge. The balls are one lfun.Discs stack, t = (-B + A w)/D with w in O
    on a flip-0 ball for edge_rep(e) = [[A, B], [C, D]] (_balls), and each
    monomial is one lfun._pair over all of them. An unbounded (flipped)
    ball, whose centre and scale are left 0, supports only constants. The
    first edge that fails raises its error."""
    if fam.psi is None:
        raise ValueError("family carries no overconvergent lift")
    pctx = fam.pctx
    zeta = {k: c for k, c in zeta.items() if c}
    reps = [fam.edge_rep(e) for e in edges]
    flipped = np.array([e.flip for e in edges], dtype=bool)
    log = padic.StackLog(len(edges))
    if any(k != (0, 0) for k in zeta):
        log.record(flipped, SupportError("nonconstant polynomial on an "
                                         "unbounded ball"))
    centre, scale = _balls(pctx, reps, ~flipped, log)
    log.check()
    moments = fam.moments(reps, r, s)
    discs = lfun.Discs(fam.psi.ctx, centre, scale,
                       lambda width, widthb: moments[:, :, :width, :widthb])
    total = discs.constant(0)[:, 0]
    for (i, j), c in zeta.items():
        total = total + lfun._pair(discs, discs.binomial(i) * c,
                                   discs.binomial(j).conj())
    discs.log.check()
    return total * PadicStack.of(pctx, [fam.omega ** e.parity()
                                        for e in edges])


# ---------------------------------------------------------------------------
# the quadratic extension of the completion and the log kernel


class Ext2Context:
    """K(sqrt(u)) for a nonsquare unit u of the (already quadratic,
    unramified) completion K: the home of the double-integral endpoints."""

    def __init__(self, pctx):
        if pctx.e != 1:
            raise NotImplementedError("double integrals need an unramified "
                                      "completion")
        self.pctx = pctx
        self.q = pctx.q
        self.sigma = self._nonsquare()
        self.conj_twist = self._conj_twist()

    def _nonsquare(self):
        pctx = self.pctx
        half = (self.q - 1) // 2
        for a in range(pctx.p):
            for b in range(pctx.p):
                t = pctx.elt(a, b)
                if t.val() > 0:
                    continue
                if (t ** half + pctx.one()).val() >= 1:
                    return t
        raise RuntimeError("no nonsquare unit found")

    def _conj_twist(self):
        """v with v^2 = conj(sigma)/sigma and v = sigma^((p-1)/2) mod p, so
        that conj(sqrt(sigma)) = v sqrt(sigma) extends the conjugation of
        the completion as the lift of the p-power Frobenius."""
        t = self.sigma.conj() / self.sigma
        v = self.sigma ** ((self.pctx.p - 1) // 2)
        for _ in range(self.pctx.cap.bit_length() + 1):
            if (v * v - t).is_zero():
                return v
            v = (v + t / v) / 2
        raise padic.PrecisionError("no square root of conj(sigma)/sigma")

    def elt(self, a, b=None):
        pctx = self.pctx
        if not isinstance(a, PadicStack):
            a = pctx.elt(a)
        if b is None:
            b = pctx.zero()
        elif not isinstance(b, PadicStack):
            b = pctx.elt(b)
        return Ext2(self, a, b)

    def zero(self):
        return self.elt(0, 0)

    def one(self):
        return self.elt(1, 0)

    def embed_pair(self, a, b):
        """The field element a + b*w."""
        return self.elt(self.pctx.elt(*self.pctx.embed_pair(a, b)))


class Ext2:
    """a + b*sqrt(sigma) with a, b in the completion."""

    __slots__ = ("ctx", "a", "b")

    def __init__(self, ctx, a, b):
        self.ctx = ctx
        self.a = a
        self.b = b

    def __repr__(self):
        return "Ext2(%r, %r)" % (self.a, self.b)

    def __add__(self, other):
        other = self._co(other)
        return Ext2(self.ctx, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        other = self._co(other)
        return Ext2(self.ctx, self.a - other.a, self.b - other.b)

    def __neg__(self):
        return Ext2(self.ctx, -self.a, -self.b)

    def _co(self, other):
        if isinstance(other, Ext2):
            return other
        return self.ctx.elt(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicStack)):
            return Ext2(self.ctx, self.a * other, self.b * other)
        return Ext2(self.ctx,
                    self.a * other.a + self.ctx.sigma * self.b * other.b,
                    self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def conj(self):
        """The conjugation of the completion, extended (see _conj_twist)."""
        return Ext2(self.ctx, self.a.conj(),
                    self.b.conj() * self.ctx.conj_twist)

    def inverse(self):
        n = self.a * self.a - self.ctx.sigma * self.b * self.b
        ni = n.inverse()
        return Ext2(self.ctx, self.a * ni, -(self.b * ni))

    def __truediv__(self, other):
        if isinstance(other, int):
            d = self.ctx.pctx.elt(other)
            return Ext2(self.ctx, self.a / d, self.b / d)
        return self * other.inverse()

    def __pow__(self, n):
        out = self.ctx.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def val(self):
        if self.a.is_zero():
            return self.b.val()
        if self.b.is_zero():
            return self.a.val()
        return min(self.a.val(), self.b.val())


def _strip_p(x, v):
    pw = x.ctx.pctx.elt(x.ctx.pctx.p) ** v
    return Ext2(x.ctx, x.a / pw, x.b / pw)


def ext2_ratio(num, den):
    """num/den in the integral model; needs val(num) >= val(den)."""
    v = den.val()
    if v:
        num, den = _strip_p(num, v), _strip_p(den, v)
    return num * den.inverse()


def ext2_log(x):
    """Iwasawa logarithm on the quadratic extension: kill the Teichmuller
    part by raising to the residue-field order minus one, take the series,
    divide back."""
    ctx = x.ctx
    pctx = ctx.pctx
    v = x.val()
    if v:
        x = _strip_p(x, v)
    n = ctx.q ** 2 - 1
    y = (x ** n) - ctx.one()
    total = ctx.zero()
    term = ctx.one()
    for k in range(1, pctx.M + pctx.M // 2 + 3):
        term = term * y
        piece = term / k
        total = total + (piece if k % 2 else -piece)
    return total / n


def twisted_moebius_ext2(ctx, g, x):
    """The action (b + d x)/(a + c x) used on the tree side, with matrix
    entries over O_F and x in the quadratic extension."""
    a, b, c, d = (ctx.embed_pair(x.a, x.b) for row in g for x in row)
    return ext2_ratio(b + d * x, a + c * x)


def double_integral(fam, x, y, r, s):
    """Integral of l_p((t - x)/(t - y)) against mu{r-s} over the whole
    projective line, both endpoints off the boundary. The kernel is the
    p-direction logarithm of lfun, l_p(u) = log(u) + log(conj(u)), with
    conj the conjugation extended to the quadratic extension. On each leaf
    ball (_log_leaves), whose moments come from one pass, the log series is
    paired with the moments mu(t^k) and its conjugate with mu(tbar^k)."""
    if fam.ext2 is None:
        raise ValueError("family carries no overconvergent lift")
    ctx = fam.ext2
    leaves = []
    for e in full_cover(fam):
        _log_leaves(fam, e, x, y, 4, leaves)
    moments = fam.moments([g for _, g, _ in leaves], r, s)
    total = ctx.zero()
    for (e, _, coefs), m in zip(leaves, moments):
        term = ctx.zero()
        for k, coef in enumerate(coefs):
            for (i, j), c in (((k, 0), coef), ((0, k), coef.conj())):
                term = term + c * honest_moment(fam.psi.ctx, m, i, j)
        total = total + fam.omega ** e.parity() * term
    return total


def _log_leaves(fam, e, x, y, depth, out):
    """Append to out (e', edge_rep(e'), coefs) for the balls U(e') under
    U(e), refined at most depth times, on which coefs is the series of the
    log kernel."""
    ctx = fam.ext2
    M = fam.psi.ctx.M
    g = fam.edge_rep(e)
    Ae, Be, Ce, De = (ctx.embed_pair(g[k], g[k + 1]) for k in (0, 2, 4, 6))
    # t = (-B + A w)/(D - C w): (t - x)/(t - y) becomes a ratio of two
    # functions c + l w, analytic on the ball when val(l/c) >= 1
    c1, l1 = -Be - x * De, Ae + x * Ce
    c2, l2 = -Be - y * De, Ae + y * Ce
    ok = (not c1.is_zero() and not c2.is_zero()
          and l1.val() - c1.val() >= 1 and l2.val() - c2.val() >= 1)
    if not ok:
        if depth == 0:
            raise padic.PrecisionError("log kernel not analytic at maximal "
                                       "refinement depth")
        for ch in ball_children(fam.tree, e):
            _log_leaves(fam, ch, x, y, depth - 1, out)
        return
    t1, t2 = ext2_ratio(l1, c1), ext2_ratio(l2, c2)
    coefs = [ext2_log(c1) - ext2_log(c2)]
    p1, p2 = ctx.one(), ctx.one()
    for k in range(1, M):
        p1, p2 = p1 * t1, p2 * t2
        coef = (p1 - p2) / k
        coefs.append(-coef if k % 2 == 0 else coef)
    out.append((e, g, coefs))


# ---------------------------------------------------------------------------
# embedding data and cocycle evaluations


class EmbeddingDatum:
    """The pair (c, v) with c coprime to p and v a unit mod c, together
    with the derived quantities: the orders s' (of pi) and s (twice the
    order of pi^2) in (O/c)^x, the multiplicity beta, the coset
    J_v = v<pi> as a dict from the residue code of a (ring.code) to its
    minimal exponent j(a), and the cycle matrix gamma_{c,v} fixing the
    cusps v/c and infinity."""

    def __init__(self, prime_data, c, v, omega):
        pi = prime_data.pi
        ring = ResidueRing(c) if c else None
        why = ("c must be nonzero" if not c
               else "c must be coprime to p" if not ring.is_unit(pi.a, pi.b)
               else "v must be a unit mod c" if not ring.is_unit(v.a, v.b)
               else None)
        if why:
            raise EmbeddingDatumError("embedding datum (c, v) = (%r, %r): %s"
                                      % (c, v, why))
        self.pd = prime_data
        self.c = c
        self.v = v
        self.omega = omega
        self.ring = ring
        step = ring.code(pi.a, pi.b)
        self.s_prime = ring.mult_order(pi.a, pi.b)
        self.s = 2 * ring.mult_order(*ring.pair(ring.mul(step, step)))
        if self.s == self.s_prime:
            self.beta = 1
        elif self.s == 2 * self.s_prime:
            self.beta = 2 if omega == 1 else 0
        else:
            raise RuntimeError("inconsistent orders")
        J = {}
        cur = ring.code(v.a, v.b)
        for j in range(self.s_prime):
            J.setdefault(cur, j)
            cur = ring.mul(cur, step)
        self.J = J
        self.d = pi.d

    def gamma(self):
        """Integral projective representative of the cycle matrix."""
        pi_s = self.pd.pi ** self.s
        u = exact_div((pi_s - one(self.d)) * self.v, self.c)
        z = QuadInt(0, 0, self.d)
        return ((one(self.d), u), (z, pi_s))

    def cusp(self):
        return Cusp(self.v, self.c)


def oc_tree_route(fam, datum, window=1):
    """Sum of kappa{v/c - infinity} over one period of the geodesic the
    cycle matrix translates along."""
    c, v = datum.c, datum.v
    edges = bt.cusp_pair_path(fam.tree, (c.a, c.b), (v.a, v.b),
                              window, window + datum.s - 1)
    r, s_inf = datum.cusp(), cusp_infinity(datum.d)
    return sum(fam.ev(edges, r, s_inf))


def oc_closed_route(fam, datum):
    """beta * sum over a in J_v of omega^{j(a)} phi{a/c - infinity}."""
    return oc_closed_routes(fam, [datum])[0]


def oc_closed_routes(fam, data):
    """oc_closed_route of each datum of data, as a list, from one ev_paths
    call on the paths {a/c - infinity} of all of them."""
    if not data:
        return []
    values = iter(fam.phi.ev_paths([d.ring.pair(a) + (d.c.a, d.c.b, 1, 0, 0, 0)
                                    for d in data for a in d.J]))
    return [d.beta * sum(fam.omega ** j * next(values) for j in d.J.values())
            for d in data]


def _lc_setup(fam, datum, mu):
    """The measure at modulus c and the disc weight (lfun.disc_sum)
    omega^{j(a)} on the blocks a in J_v and 0 elsewhere, read from a table
    per unit a (a row of mu.units()) by residue code, which J_v fills."""
    if datum.beta == 0:
        raise ValueError("beta = 0 datum")
    if fam.psi is None:
        raise ValueError("family carries no overconvergent lift")
    if mu is None:
        mu = fam.mu(datum.c)
    ring = mu.ring
    by_code = np.zeros(ring.size, dtype=np.int64)
    by_code[list(datum.J)] = np.power(fam.omega, list(datum.J.values()))
    units = mu.units()
    table = by_code[ring.code(units[:, 0], units[:, 1])]

    def weight(unit, centres):
        return table[unit]
    return mu, weight


def lc_halves(fam, datum, mu=None):
    """The log_iw(z) and log_iw(zbar) halves of the log cocycle lc at the
    datum, by the closed overconvergent form: beta * sum over a in J_v of
    omega^{j(a)} * (integral of the kernel over the unit part of the block
    of mu at a). lc is their sum, the p-direction logarithm
    l_p = log_iw(z) + log_iw(zbar) of lfun; the first half is lc in the
    one-variable log_iw normalisation."""
    mu, weight = _lc_setup(fam, datum, mu)
    return tuple(datum.beta * lfun.disc_sum(mu, weight, kern)
                 for kern in (lfun.disc_log_z, lfun.disc_log_zbar))


def lc_via_double_integral(fam, datum, tau):
    """Cross-check route for lc: the double integral from tau to
    gamma_{c,v} tau along {v/c - infinity}; tau-independent."""
    g = datum.gamma()
    gtau = twisted_moebius_ext2(fam.ext2, g, tau)
    return double_integral(fam, gtau, tau, datum.cusp(),
                           cusp_infinity(datum.d))


def coboundary_eval(sym, datum):
    """b(gamma_{c,v}){v/c - infinity} for the coboundary of any symbol:
    exactly zero because the cycle matrix fixes both cusps."""
    g = datum.gamma()
    r, s_inf = datum.cusp(), cusp_infinity(datum.d)
    gr, gs = apply_moebius(g, r), apply_moebius(g, s_inf)
    moved, path = sym.ev_paths([gr.v + gs.v, r.v + s_inf.v])
    return moved - path


def chi_weighted_oc(fam, chi):
    """Sum over units v mod c of chi(v) oc(c, v); equals s times the
    algebraic L-sum when chi(pi) = omega."""
    c = chi.modulus
    total = Fraction(0)
    for a, b in chi.ring.unit_pairs().tolist():
        datum = EmbeddingDatum(fam.pd, c, QuadInt(a, b, c.d), fam.omega)
        total += chi.table[chi.ring.code(a, b)] * oc_closed_route(fam, datum)
    return total


def chi_weighted_lc(fam, chi, mu=None):
    """Sum over units v mod c of chi(v) lc(c, v); equals s times the
    p-direction derivative of the p-adic L-function at chi."""
    c = chi.modulus
    if mu is None:
        mu = fam.mu(c)
    total = None
    for a, b in chi.ring.unit_pairs().tolist():
        lz, lzbar = lc_halves(
            fam, EmbeddingDatum(fam.pd, c, QuadInt(a, b, c.d), fam.omega), mu)
        term = chi.table[chi.ring.code(a, b)] * (lz + lzbar)
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# the L-invariant


class EvaluationCertificate:
    """Per-datum oc and lc values, their ratios, and the extracted
    L-invariant with its precision floor. The L-invariant is lc/oc with the
    p-direction logarithm l_p = log_iw(z) + log_iw(zbar); the log_iw(z)
    half over oc, the one-variable normalisation, is reported next to it.
    routes (not in to_json) holds (datum, tree, closed oc) per datum."""

    def __init__(self, entries, skipped, l_invariant, agreement, floor,
                 l_invariant_log_iw, routes):
        self.entries = entries
        self.skipped = skipped
        self.routes = routes
        self.l_invariant = l_invariant
        self.l_invariant_log_iw = l_invariant_log_iw
        self.agreement = agreement
        self.precision_floor = floor

    def to_json(self):
        return {
            "entries": self.entries,
            "skipped": self.skipped,
            "l_invariant": self.l_invariant.to_json(),
            "l_invariant_log_iw": self.l_invariant_log_iw.to_json(),
            "pairwise_agreement": self.agreement,
            "precision_floor": self.precision_floor,
        }


def l_invariant(fam, data=None):
    """Evaluate lc/oc on each embedding datum and certify agreement.

    data is a list of (c, v) pairs, by default those of
    field.default_embedding_data at p; a datum the prime rules out, or one
    that repeats an earlier one (c = u c' and v = u v' mod c for a unit u),
    raises EmbeddingDatumError before any is evaluated. beta = 0 and oc = 0 data
    are skipped with a note, and all-skipped raises NonVanishingError."""
    if fam.psi is None:
        raise ValueError("family carries no overconvergent lift")
    if data is None:
        data = default_embedding_data(fam.pd.p, fam.pd.pi.d)
    pctx = fam.pctx
    entries = []
    skipped = []
    routes = []
    ratios = []
    ratios_log_iw = []
    # every datum is checked before any is evaluated; a datum compared
    # with itself would inflate the agreement. (u c, u v) for a unit u is
    # the same datum (the cusp v/c), so the key takes the associate u c
    # least as an int pair
    checked, seen = [], {}
    for c, v in data:
        datum = EmbeddingDatum(fam.pd, c, v, fam.omega)
        u = min(units(c.d), key=lambda u: ((u * c).a, (u * c).b))
        key = ((u * c).a, (u * c).b, datum.ring.code((u * v).a, (u * v).b))
        if key in seen:
            raise EmbeddingDatumError(
                "embedding datum (c, v) = (%r, %r): repeats (%r, %r)"
                % ((c, v) + seen[key]))
        seen[key] = (c, v)
        checked.append(datum)
    closed = iter(oc_closed_routes(fam, [d for d in checked if d.beta]))
    for datum in checked:
        c, v = datum.c, datum.v
        tag = {"c": repr(c), "v": repr(v), "s": datum.s, "beta": datum.beta}
        if datum.beta == 0:
            skipped.append(dict(tag, reason="beta = 0"))
            continue
        ocv = next(closed)
        routes.append((datum, oc_tree_route(fam, datum), ocv))
        if routes[-1][1] != ocv:
            raise ConsistencyError("oc route mismatch at %r" % (tag,))
        if ocv == 0:
            skipped.append(dict(tag, reason="oc vanishes"))
            continue
        lz, lzbar = lc_halves(fam, datum)
        lcv = lz + lzbar
        ocp = pctx.from_rational(Fraction(ocv))
        ratio = lcv / ocp
        ratio_log_iw = lz / ocp
        ratios.append(ratio)
        ratios_log_iw.append(ratio_log_iw)
        entries.append(dict(tag, oc=str(ocv), lc=lcv.to_json(),
                            ratio=ratio.to_json(),
                            ratio_log_iw=ratio_log_iw.to_json()))
    if not ratios:
        raise NonVanishingError([e["c"] for e in skipped])
    agreement = min(r.prec for r in ratios)
    for i in range(len(ratios)):
        for j in range(i + 1, len(ratios)):
            diff = ratios[i] - ratios[j]
            if not diff.is_zero():
                agreement = min(agreement, diff.val())
    floor = min(r.prec for r in ratios)
    return EvaluationCertificate(entries, skipped, ratios[0], agreement,
                                 floor, ratios_log_iw[0], routes)
