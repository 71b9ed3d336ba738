"""The p-adic L-function of a small-slope eigensymbol.

The distribution mu_p on the ray class group of conductor g*p^infty is glued
from blocks mu'_a = [Psi | [[1,b],[0,g]]] {0 - infty}, one for each unit
a mod g (b a lift of a, (g) the modulus). Integration against a locally
analytic test function runs over the unit residue discs of O_p: the
restriction of a block to the disc around j is again a block, with one
uniformizer absorbed into the lower-right matrix entry and one factor of
1/lambda_p from the U_p eigen-relation. On each disc the integrand
<z zbar>^s * chi * (Teichmuller twist) is expanded as a convergent power
series in the disc coordinates z and zbar and paired with the two-variable
moments mu(z^i zbar^j) of the block.

A sum over discs (disc_sum) runs as stacked passes over all its weighted
discs at once. The unit groups and the disc centres are int pairs
(RayDistribution.units and unit_discs, on the residue rings' unit_pairs
and inverse_pairs), and one call weight(unit, centres) gives the weights
of all the discs: a character is read from its list by residue code, and a
Teichmuller factor is one stacked power. Each disc is integrated once per
distribution: what a kernel reads of a disc is kept in per-centre tables
of the distribution, each filled for the centres not yet in it in one
stacked pass, and a full table, once there, serves every narrower read of
its disc. The total measures
Psi{B/G -> infty}(1) (OverconvergentSymbol.ev_totals) serve the s = 0
kernel, which pairs moment (0, 0) alone and so needs no action matrix; the
lines, column 0 and row 0 of Psi{B/G -> infty}
(OverconvergentSymbol.ev_lines), serve the log kernels, which pair
log_iw(z) against the constant 1 in zbar and the reverse; the full moment
tables (OverconvergentSymbol.ev_paths) serve every wider pairing; all on
the int paths (B : G) -> (1 : 0), which no gcd normalises. The z-series of
log_iw(B + G z), which depends only on B and the scale G, serves the log
and <z zbar>^s kernels, with the first error of each row, which every sum
that reads the row records again. The disc kernel (disc_one, disc_log_z,
disc_log_zbar, disc_norm_power) is called once per sum with the stack of
discs (Discs): balls B + G O, whose pairing _pair reads only the moment
block it needs. The tree's edge distributions are Discs too
(cocycle.edge_integrals), so the package has one ball integral. The
z-series of log_iw(B + G z), of (B + G z)^i and of <B + G z>^s and the
pairing Sum F[i] Fb[j] mu(z^i zbar^j) (_pair) are padic.PadicStack arrays
over the discs (the moment layer's pctx), whose precision rules are those
of one element, the 0-d PadicStack, and in the association order of the
per-disc series, so each disc gets the value and precision it would get
alone. An error the one-disc code would raise is raised for the first disc
that meets one. The ray distribution takes its residue rings and
uniformizer from the symbol's Manin layer, and its paths are that layer's
int paths, so the one-variable measure of a classical symbol over Q is the
same class on the same disc loop.

The prime p is inert or ramified (the moment model has no split primes), so
p O_F is a power of the one prime above p and the p-direction is the
cyclotomic one. Its logarithm is l_p = log_p o N = log_iw(z) + log_iw(zbar):
the variable s enters as <z zbar>^s, and the derivative in the p-direction
inserts l_p(z). The two halves of that derivative are available separately;
the log_iw(z) half is the one-variable normalisation. The exceptional factors
Z_q(chi, r) = 1 - chi(q) N(q)^r / lambda_q are provided separately for
interpolation checks.
"""

from fractions import Fraction

import numpy as np

from .field import QuadInt, divides, pair_prod
from . import padic
from .padic import PadicStack, StackLog, select, stack


def _lambda_p(psi):
    lam = psi.eigen.get("lambda_p")
    if lam is None:
        raise ValueError("symbol carries no U_p eigenvalue")
    return Fraction(str(lam))


def _pair_of(x):
    """A ring element (QuadInt, or int over Z) as its int pair (a, b)."""
    return (x, 0) if isinstance(x, int) else (x.a, x.b)


class _CentreTable:
    """Rows keyed by the int pair of a disc centre, appended in stacked
    passes. The table keeps no fill function (one that closes over its
    distribution would make a reference cycle); take gets it each call."""

    def __init__(self):
        self.rows = {}
        self.arrays = None

    def take(self, keys, fill):
        """The rows of the centres keys, each array indexed by them, after
        one pass fill(todo) over the centres todo not yet in the table;
        fill returns a tuple of arrays with one row per centre of todo."""
        todo = [key for key in dict.fromkeys(keys) if key not in self.rows]
        if todo:
            new = fill(todo)
            self.arrays = new if self.arrays is None else tuple(
                np.concatenate(pair) for pair in zip(self.arrays, new))
            first = len(self.rows)
            for i, key in enumerate(todo):
                self.rows[key] = first + i
        rows = [self.rows[key] for key in keys]
        return tuple(a[rows] for a in self.arrays)


class RayDistribution:
    """mu_p at modulus (g): the symbol itself and lambda_p, from which the
    blocks mu'_a are integrated disc by disc (unit_discs, discs).
    lift_offset is the shift of the lifts b of a that unit_discs() uses.

    What depends on the ring comes from the symbol's Manin layer psi.p1:
    residue_ring(n) and uniformizer(pd); the paths {B/G -> infty} are the
    int paths of the layer. So the same class is the measure of a Bianchi
    symbol (msymb.P1, over O_F) and of a classical one (the Manin layer
    over Z).

    Every disc has the scale G = g * pi. What the discs integrated so far
    need is kept in four per-centre tables, keyed by the centre B and
    filled for the centres not yet in them in one stacked pass each: the
    total measures Psi{B/G - infty}(1) (OverconvergentSymbol.ev_totals, no
    action matrix), the lines of Psi{B/G - infty}, its column 0 and row 0
    (ev_lines, one plan per block of discs for both), the full moment
    tables (ev_paths), and the z-series of log_iw(B + G z) with the first
    error of each row. moments() reads a block from the full tables when
    they hold all its centres, and else from the narrowest table that
    serves it."""

    def __init__(self, psi, g_mod, lift_offset=0):
        self.psi = psi
        self.p1 = psi.p1
        self.g_mod = g_mod
        self.lift_offset = lift_offset
        self.ring = self.p1.residue_ring(g_mod)
        self.pi = self.p1.uniformizer(psi.ctx.pd)
        self.G = g_mod * self.pi
        self.lam = _lambda_p(psi)
        self.pctx = psi.ctx.pctx
        self._units = None
        self._discs = None
        self._totals = _CentreTable()
        self._lines = _CentreTable()
        self._tables = _CentreTable()
        self._logs = _CentreTable()

    def units(self):
        """The units a mod g as the rows of a (k, 2) int array of pairs, in
        residue code order (ResidueRing.unit_pairs)."""
        if self._units is None:
            self._units = self.ring.unit_pairs()
        return self._units

    def element(self, a, b=0):
        """The ring element of the int pair (a, b): a + b*w over O_F, the
        int a over Z."""
        g = self.g_mod
        return int(a) if isinstance(g, int) else QuadInt(int(a), int(b), g.d)

    def _scale(self, log=None):
        g0, g1 = _pair_of(self.G)
        return PadicStack.embed(self.pctx, [g0], [g1], log)

    def _paths(self, centres):
        """The int paths (B : G) -> (1 : 0) of ManinLayer, which no gcd
        normalises."""
        g0, g1 = _pair_of(self.G)
        return [((b0, b1, g0, g1), (1, 0, 0, 0)) for b0, b1 in centres]

    def moments(self, centres, width, widthb):
        """The moment block (len(centres), 2, width, widthb) of
        Psi{B/G - infty} for the centre pairs centres: from the full tables
        when the block is wider than a line or every centre is already
        there, and else a (1, 1) block from the table of total measures, a
        (width, 1) block from the columns and a (1, widthb) block from the
        rows. Each is the corner of the full table, whatever table it
        comes from."""
        psi, paths = self.psi, self._paths
        if min(width, widthb) > 1 or all(
                key in self._tables.rows for key in centres):
            (m,) = self._tables.take(
                centres, lambda todo: (psi.ev_paths(paths(todo)),))
            return m[:, :, :width, :widthb]
        if (width, widthb) == (1, 1):
            (m,) = self._totals.take(
                centres, lambda todo: (psi.ev_totals(paths(todo)),))
            return m[:, :, None, None]
        cols, rows = self._lines.take(
            centres, lambda todo: psi.ev_lines(paths(todo)))
        return cols[:, :, :width] if widthb == 1 else rows[:, :, :, :widthb]

    def _fill_logs(self, centres):
        """The z-series of log_iw(B + G z), (n, M), as (c0, c1, prec) and
        the first error of each row: log_iw(B) + log(1 + (G/B) z)."""
        log = StackLog(len(centres))
        centres = np.array(centres, dtype=np.int64).reshape(-1, 2)
        B = PadicStack.embed(self.pctx, centres[:, 0], centres[:, 1], log)
        t = self._scale(log) * B.inverse()
        out = [padic.log_iw_units(B)]
        tk = t
        for k in range(1, self.pctx.M):
            term = tk.div_int(k)
            out.append(-term if k % 2 == 0 else term)
            tk = tk * t
        L = stack(out)
        return L.c0, L.c1, L.prec, log.row_errors()

    def discs(self, centres):
        """The discs B + G O of the centre pairs centres ((n, 2) ints) as
        one stack, reading their moments and log series from the tables
        (filled as the kernel asks for them)."""
        keys = [tuple(c) for c in np.asarray(centres).tolist()]
        centres = np.asarray(centres, dtype=np.int64).reshape(-1, 2)
        return Discs(self.psi.ctx,
                     PadicStack.embed(self.pctx, centres[:, 0], centres[:, 1]),
                     self._scale(),
                     lambda width, widthb: self.moments(keys, width, widthb),
                     lambda: self._logs.take(keys, self._fill_logs))

    def unit_discs(self):
        """(unit, centres): for each pair (unit a mod g, unit disc j mod pi)
        in that order, the row of a in units() and the int pair of the
        centre B. The restriction of mu'_a to the disc j + pi O is
        lambda_p^{-1} * Psi{B/G - infty} paired against z -> h(B + G z),
        where B = a mod g, B = j mod pi and G = g pi; B is reached from the
        lift b = a + lift_offset * g as B = b + g t, t = (j - b)/g mod pi.
        All the pairs are one array pass on int pairs."""
        if self._discs is not None:
            return self._discs
        rpi = self.p1.residue_ring(self.pi)
        S, T = self.p1.S, self.p1.T
        g0, g1 = _pair_of(self.g_mod)
        (i0, i1), = rpi.inverse_pairs(np.array([[g0, g1]])).tolist()
        units, residues = self.units(), rpi.unit_pairs()
        k = self.lift_offset
        b0, b1 = units[:, :1] + g0 * k, units[:, 1:] + g1 * k
        # t = j/g - b/g mod pi, for every b (rows) and j (columns)
        j0, j1 = rpi.reduce_pair(*pair_prod(S, T, residues[:, 0],
                                            residues[:, 1], i0, i1))
        c0, c1 = rpi.reduce_pair(*pair_prod(S, T, b0, b1, i0, i1))
        t0, t1 = rpi.reduce_pair(j0 - c0, j1 - c1)
        d0, d1 = pair_prod(S, T, g0, g1, t0, t1)
        unit = np.repeat(np.arange(len(units)), len(residues))
        self._discs = (unit, np.stack([b0 + d0, b1 + d1], axis=-1)
                       .reshape(-1, 2))
        return self._discs


class Discs:
    """A stack of balls B + G O (discs of a ray distribution, or the balls
    of tree edges), each with the moments of a distribution in the ball
    coordinate z: the centres B (a PadicStack of n rows) and scales G (n
    rows, or one row for all), moments(width, widthb), the (n, 2, width,
    widthb) corner of the moment tables of the moment layer dctx that a
    pairing reads, and the StackLog in which the kernel's element
    operations record errors, one row per ball. A ray distribution's discs
    also read their log series from it (log_series)."""

    def __init__(self, dctx, centre, scale, moments, log_series=None):
        self.dctx = dctx
        self.ctx = dctx.pctx
        self.moments = moments
        self.log = StackLog(len(centre))
        self.centre, self.scale = (
            PadicStack(self.ctx, x.c0, x.c1, x.prec, self.log)
            for x in (centre, scale))
        self._log_series = log_series

    def __len__(self):
        return len(self.centre)

    def constant(self, value):
        """The int value at full precision on each disc, as a one-term
        series (n, 1)."""
        return PadicStack.full(self.ctx, value, (len(self), 1),
                               self.ctx.cap, self.log)

    def binomial(self, i):
        """The z-series of (B + G z)^i on each disc: (n, M), and the
        one-term (n, 1) for i = 0."""
        line = stack([self.centre, self.scale])
        F = self.constant(1)
        for _ in range(i):
            F = _ser_mul(F, line, self.ctx.M)
        return F

    def log_series(self):
        """The z-series of log_iw(B + G z) on each disc, (n, M), from the
        distribution's per-centre table; a disc whose series recorded an
        error records it here too."""
        c0, c1, prec, errors = self._log_series()
        self.log.record_rows(errors)
        return PadicStack(self.ctx, c0, c1, prec, self.log)


def build_mu_p(psi, g_mod, lift_offset=0):
    """The ray distribution at modulus (g_mod), which must be coprime to p.

    lift_offset shifts every lift b of a by that multiple of g_mod; the
    result is independent of it (a property of the construction)."""
    if not g_mod or divides(psi.ctx.pd.pi, g_mod):
        raise ValueError("modulus must be nonzero and coprime to p")
    return RayDistribution(psi, g_mod, lift_offset)


# ---------------------------------------------------------------------------
# stacked series: PadicStacks (n, width), one row per disc, truncated at M


def _ser_mul(F, G, M):
    """F * G truncated at M; the terms of a zero F[i] are skipped."""
    out = PadicStack.full(F.ctx, 0, (len(F), M), F.ctx.cap, F.log)
    live = ~F.is_zero()
    for i in range(min(F.shape[1], M)):
        width = min(G.shape[1], M - i)
        cols = slice(i, i + width)
        term = F[:, i:i + 1] * G[:, :width]
        out.put((slice(None), cols), out[:, cols] + term, live[:, i:i + 1])
    return out


def _ser_exp(P, M):
    """exp of a series with P[:, 0] = 0 and positive-valuation
    coefficients: out[n] = (Sum_k (k * P[k]) * out[n - k]) / n."""
    ctx = P.ctx
    kP = P * PadicStack.of(ctx, list(range(M)))
    out = [PadicStack.full(ctx, 1, (len(P),), ctx.cap, P.log)]
    for n in range(1, M):
        terms = kP[:, 1:n + 1] * stack(out[::-1])
        out.append(terms.sum(axis=1).div_int(n))
    return stack(out)


def _power_series(L, s, M):
    """exp(s * L) for a log series L: <B + G z>^s from log_iw(B + G z)."""
    ctx = L.ctx
    if not isinstance(s, PadicStack):
        s = ctx.elt(int(s))
    head = padic.padic_exp_stack(L[:, 0] * s)
    P = select(np.arange(L.shape[1]) == 0,
               PadicStack.full(ctx, 0, (1,), ctx.cap, None), L * s)
    return _ser_exp(P, M) * head[:, None]


def _chi_values(chi, centres):
    """chi at the int pairs centres ((n, 2)): one read of its table, a list
    indexed by residue code (the code method of chi.ring)."""
    return np.asarray(chi.table)[chi.ring.code(centres[:, 0], centres[:, 1])]


def _chi_weight(mu, chi, r=0):
    """The disc weights chi(B) * w_Tm(B)^r (both constant on the disc), 0
    where chi vanishes: ints for r = 0, and for r > 0 a PadicStack whose
    Teichmuller factor is one stacked power of the lifts of all the
    centres."""
    def weight(unit, centres):
        cv = np.ones(len(centres), dtype=np.int64) if chi is None \
            else _chi_values(chi, centres)
        if not r:
            return cv
        lifts = padic.teichmuller_units(PadicStack.embed(
            mu.pctx, centres[:, 0], centres[:, 1]))
        return lifts ** r * PadicStack.embed(mu.pctx, cv, 0 * cv)
    return weight


def disc_sum(mu, weight, on_disc):
    """lambda_p^{-1} * sum over the unit discs (a, B) of mu of
    weight * (integral over the disc). weight(unit, centres) is called once
    with the arrays of mu.unit_discs() (the row of a in mu.units() and the
    int pair of B, for every disc) and returns the weights of all the
    discs, as ints or as a PadicStack; the discs of weight 0 are skipped.
    The weighted discs run as one stack: what the kernel reads of them
    (their total measures, moment tables or log series) is filled in one
    pass per table for the discs not yet in it, and on_disc(mu, discs)
    returns the integrals of all of them (a PadicStack, one row per
    disc)."""
    pctx = mu.pctx
    unit, centres = mu.unit_discs()
    weights = weight(unit, centres)
    if not isinstance(weights, PadicStack):
        weights = PadicStack.embed(pctx, weights, 0 * weights)
    rows = np.flatnonzero(~weights.is_zero())
    total = pctx.zero()
    if len(rows):
        discs = mu.discs(centres[rows])
        values = on_disc(mu, discs)
        total = (values * weights[rows]).sum()
        discs.log.check()
    return pctx.from_rational(1 / mu.lam) * total


def _pair(discs, F, Fb=None):
    """Sum_{i,j} F[i] Fb[j] mu(z^i zbar^j) on each disc of discs,
    with honest per-moment precision p^(M - max(i, j)) and the grouping
    (F[i] * Fb[j]) * moment; terms with F[i] or Fb[j] zero are skipped.
    Fb = None is the constant 1 in zbar."""
    ctx = discs.ctx
    M = ctx.M
    if Fb is None:
        Fb = discs.constant(1)
    width, widthb = min(M, F.shape[1]), min(M, Fb.shape[1])
    m = discs.moments(width, widthb)
    prec = ctx.e * (M - discs.dctx.lag[:width, :widthb])
    mom = PadicStack(ctx, m[:, 0], m[:, 1],
                     np.broadcast_to(prec, m[:, 0].shape), discs.log)
    F, Fb = F[:, :width, None], Fb[:, None, :widthb]
    live = ~F.is_zero() & ~Fb.is_zero()
    return ((F * Fb) * mom).sum(axis=(1, 2), where=live)


def disc_one(mu, discs):
    """Integral of the constant 1 over each disc."""
    return _pair(discs, discs.constant(1))


def disc_log_z(mu, discs):
    """Integral of log_iw(z) over each disc: the log z half of l_p."""
    return _pair(discs, discs.log_series())


def disc_log_zbar(mu, discs):
    """Integral of log_iw(zbar) over each disc: the log zbar half of l_p."""
    return _pair(discs, discs.constant(1), discs.log_series().conj())


def disc_norm_power(s, terms=None):
    """The disc integral of <z zbar>^s = <z>^s <zbar>^s; terms optionally
    truncates both disc expansions (for remainder diagnostics). At the
    integer s = 0 the integrand is the constant 1 (disc_one)."""
    if terms is None and isinstance(s, int) and s == 0:
        return disc_one

    def on_disc(mu, discs):
        M = discs.ctx.M
        L = discs.log_series()
        F = _power_series(L, s, M)
        Fb = _power_series(L.conj(), s, M)
        if terms is not None:
            F, Fb = F[:, :terms], Fb[:, :terms]
        return _pair(discs, F, Fb)
    return on_disc


def _check_chi(mu, chi):
    if chi is None:
        return
    if not divides(chi.modulus, mu.g_mod * mu.pi):
        raise ValueError("character modulus must divide g * p "
                         "(deeper p-power conductors are unimplemented)")


def Lp_value(mu, chi=None, s=0, r=0, terms=None):
    """L_p(f, chi * w_Tm^r, s) = integral of <z zbar>^s chi(z) w_Tm(z)^r
    dmu_p, with s on the p-direction (here the cyclotomic) line.

    s may be an integer or an integral element of the completion; chi is a
    ray character of modulus dividing g * p (None means trivial); terms
    optionally truncates the disc expansions (for remainder diagnostics)."""
    _check_chi(mu, chi)
    return disc_sum(mu, _chi_weight(mu, chi, r), disc_norm_power(s, terms))


def Lp_derivative_halves(mu, chi=None, r=0):
    """The integrals of log_iw(z) and of log_iw(zbar) against
    chi * w_Tm^r dmu_p: the two halves of Lp_derivative_at. The first is
    the derivative in the log_iw(z) normalisation."""
    _check_chi(mu, chi)
    weight = _chi_weight(mu, chi, r)
    return (disc_sum(mu, weight, disc_log_z),
            disc_sum(mu, weight, disc_log_zbar))


def Lp_derivative_at(mu, chi=None, r=0):
    """The derivative of s -> L_p(f, chi * w_Tm^r, s) in the p-direction at
    s = k/2 = 0, computed by inserting l_p(z) = log_iw(z) + log_iw(zbar)
    into the integrand."""
    dz, dzbar = Lp_derivative_halves(mu, chi, r)
    return dz + dzbar


def Z_factor(chi, r, prime_data, lam, pctx):
    """Z_q(chi, r) = 1 - chi(q) N(q)^r / lambda_q; equals 1 when chi
    ramifies at q."""
    lam = Fraction(str(lam))
    if lam == 0:
        raise ValueError("Z-factor needs a nonzero Hecke eigenvalue")
    pi = prime_data.pi
    if chi is not None and divides(pi, chi.conductor):
        return pctx.one()
    if chi is not None and divides(pi, chi.modulus):
        raise ValueError("chi must be given on a modulus coprime to q "
                         "when its conductor is")
    cv = 1 if chi is None else chi(pi)
    return pctx.one() - pctx.from_rational(Fraction(cv * prime_data.norm ** r) / lam)
