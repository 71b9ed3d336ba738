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
moments mu(z^i zbar^j) of the block. The moments of all the discs of one
sum are computed up front in one stacked pass (disc_sum,
RayDistribution.fill_moments, OverconvergentSymbol.ev_paths). The ray
distribution takes its residue rings, uniformizer and cusps from the
symbol's Manin layer, so the one-variable measure of a classical symbol
over Q is the same class on the same disc loop.

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

from .field import divides
from . import padic
from .ocsymb import FiniteDistribution


def _lambda_p(psi):
    lam = psi.eigen.get("lambda_p")
    if lam is None:
        raise ValueError("symbol carries no U_p eigenvalue")
    return Fraction(str(lam))


class RayDistribution:
    """mu_p at modulus (g): the symbol itself and lambda_p, from which the
    blocks mu'_a are integrated disc by disc (unit_discs, raw_moments).
    lift_offset is the shift of the lifts b of a that unit_discs() uses.

    What depends on the ring comes from the symbol's Manin layer psi.p1:
    residue_ring(n), uniformizer(pd), cusp(B, G) and the cusp infinity.
    So the same class is the measure of a Bianchi symbol (msymb.P1, over
    O_F) and of a classical one (the Manin layer over Z)."""

    def __init__(self, psi, g_mod, lift_offset=0):
        self.psi = psi
        self.p1 = psi.p1
        self.g_mod = g_mod
        self.lift_offset = lift_offset
        self.ring = self.p1.residue_ring(g_mod)
        self.pi = self.p1.uniformizer(psi.ctx.pd)
        self.lam = _lambda_p(psi)
        self.pctx = psi.ctx.pctx
        self._raw = {}
        self._logs = {}
        self._discs = None

    def units(self):
        return self.ring.unit_elements()

    def raw_moments(self, B, G):
        """Psi{B/G - infty}, cached."""
        self.fill_moments([(B, G)])
        return self._raw[B, G]

    def fill_moments(self, discs):
        """Cache Psi{B/G - infty} for each (B, G) in discs not yet cached,
        in one stacked pass (OverconvergentSymbol.ev_paths)."""
        todo = [key for key in dict.fromkeys(discs) if key not in self._raw]
        if not todo:
            return
        p1 = self.p1
        tables = self.psi.ev_paths([(p1.cusp(B, G), p1.infinity)
                                    for B, G in todo])
        for key, m in zip(todo, tables):
            self._raw[key] = FiniteDistribution(self.psi.ctx, m)

    def log_series(self, B, G):
        """The z-series of log_iw(B + G z) on the disc, cached."""
        key = (B, G)
        if key not in self._logs:
            self._logs[key] = _log_series_on_disc(self.pctx, B, G,
                                                  self.psi.ctx.M)
        return self._logs[key]

    def unit_discs(self):
        """(a, B, G) for each pair (unit a mod g, unit disc j mod pi): the
        restriction of mu'_a to the disc j + pi O is
        lambda_p^{-1} * Psi{B/G - infty} paired against z -> h(B + G z),
        where B = a mod g, B = j mod pi and G = g pi; B is reached from
        the lift a + lift_offset * g."""
        if self._discs is not None:
            return self._discs
        pi = self.pi
        rpi = self.p1.residue_ring(pi)
        g = self.g_mod
        ginv = rpi.inverse(g)
        residues = rpi.unit_elements()
        G = g * pi
        out = []
        for a in self.units():
            b = a + g * self.lift_offset
            for j in residues:
                t = rpi.reduce((j - b) * ginv)
                out.append((a, b + g * t, G))
        self._discs = out
        return out


def build_mu_p(psi, g_mod, lift_offset=0):
    """The ray distribution at modulus (g_mod), which must be coprime to p.

    lift_offset shifts every lift b of a by that multiple of g_mod; the
    result is independent of it (a property of the construction)."""
    if not g_mod or divides(psi.ctx.pd.pi, g_mod):
        raise ValueError("modulus must be nonzero and coprime to p")
    return RayDistribution(psi, g_mod, lift_offset)


# ---------------------------------------------------------------------------
# series helpers (lists of PadicElements, truncated at length M)


def _ser_mul(F, G, M):
    pctx = F[0].ctx
    out = [pctx.zero() for _ in range(M)]
    for i, fi in enumerate(F):
        if fi.is_zero():
            continue
        for j, gj in enumerate(G):
            if i + j >= M:
                break
            out[i + j] = out[i + j] + fi * gj
    return out


def _ser_exp(P, M):
    """exp of a series with P[0] = 0 and positive-valuation coefficients."""
    pctx = P[0].ctx
    out = [pctx.one()] + [pctx.zero() for _ in range(M - 1)]
    for n in range(1, M):
        acc = pctx.zero()
        for k in range(1, n + 1):
            acc = acc + k * P[k] * out[n - k]
        out[n] = acc / n
    return out


def _log_series_on_disc(pctx, B, G, M):
    """log_iw(B + G z) as a z-series: log_iw(B) + log(1 + (G/B) z)."""
    Bp = pctx.embed(B)
    t = pctx.embed(G) / Bp
    out = [padic.log_iw(Bp)]
    tk = t
    for k in range(1, M):
        term = tk / k
        out.append(-term if k % 2 == 0 else term)
        tk = tk * t
    return out


def _power_series(L, s, M):
    """exp(s * L) for a log series L: <B + G z>^s from log_iw(B + G z)."""
    pctx = L[0].ctx
    if not isinstance(s, padic.PadicElement):
        s = pctx.elt(int(s))
    head = padic.padic_exp(s * L[0])
    P = [pctx.zero()] + [s * c for c in L[1:]]
    return [head * c for c in _ser_exp(P, M)]


def _chi_weight(mu, chi, r=0):
    """Disc weight chi(B) * w_Tm(B)^r (both constant on the disc), or 0
    where chi vanishes."""
    def weight(a, B):
        cv = 1 if chi is None else chi(B)
        if cv and r:
            # the Teichmuller character is constant on the disc
            return cv * padic.teichmuller(mu.pctx.embed(B)) ** r
        return cv
    return weight


def disc_sum(mu, weight, on_disc):
    """lambda_p^{-1} * sum over the unit discs (a, B, G) of mu of
    weight(a, B) * on_disc(mu, B, G); discs of weight 0 are skipped. The
    moments of all the weighted discs are filled first, in one stacked
    pass (mu.fill_moments)."""
    pctx = mu.pctx
    discs = []
    for a, B, G in mu.unit_discs():
        w = weight(a, B)
        if w:
            discs.append((w, B, G))
    mu.fill_moments([(B, G) for _, B, G in discs])
    total = pctx.zero()
    for w, B, G in discs:
        total = total + w * on_disc(mu, B, G)
    return pctx.from_rational(1 / mu.lam) * total


def _pair(mu, B, G, F, Fb=None):
    """Sum_{i,j} F[i] Fb[j] Psi{B/G - infty}(z^i zbar^j), with honest
    per-moment precision; Fb = None is the constant 1 in zbar."""
    pctx = mu.pctx
    fd = mu.raw_moments(B, G)
    M = mu.psi.ctx.M
    if Fb is None:
        Fb = [pctx.one()]
    total = pctx.zero()
    for i in range(min(M, len(F))):
        if F[i].is_zero():
            continue
        for j in range(min(M, len(Fb))):
            if Fb[j].is_zero():
                continue
            total = total + F[i] * Fb[j] * fd.honest_moment(i, j)
    return total


def disc_one(mu, B, G):
    """Integral of the constant 1 over the disc."""
    return _pair(mu, B, G, [mu.pctx.one()])


def disc_log_z(mu, B, G):
    """Integral of log_iw(z) over the disc: the log z half of l_p."""
    return _pair(mu, B, G, mu.log_series(B, G))


def disc_log_zbar(mu, B, G):
    """Integral of log_iw(zbar) over the disc: the log zbar half of l_p."""
    zbar = [c.conj() for c in mu.log_series(B, G)]
    return _pair(mu, B, G, [mu.pctx.one()], zbar)


def disc_norm_power(s, terms=None):
    """The disc integral of <z zbar>^s = <z>^s <zbar>^s; terms optionally
    truncates both disc expansions (for remainder diagnostics). At the
    integer s = 0 the integrand is the constant 1 (disc_one)."""
    if terms is None and isinstance(s, int) and s == 0:
        return disc_one

    def on_disc(mu, B, G):
        M = mu.psi.ctx.M
        L = mu.log_series(B, G)
        F = _power_series(L, s, M)
        Fb = _power_series([c.conj() for c in L], s, M)
        if terms is not None:
            F, Fb = F[:terms], Fb[:terms]
        return _pair(mu, B, G, F, Fb)
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


def restriction_consistency(mu, i_max=3):
    """Largest precision (capped at M) to which summing z^i over all the
    residue discs of O_p reproduces the global moments of the g = 1 block.

    This checks the U_p eigen-relation route used for unit restriction: the
    disc decomposition must recover mu(z^i) for polynomial test functions."""
    if mu.ring.size != 1:
        raise ValueError("consistency check runs at modulus (1)")
    p1, pi = mu.p1, mu.pi
    pctx = mu.pctx
    M = mu.psi.ctx.M
    lam_inv = pctx.from_rational(1 / mu.lam)
    base = mu.psi.ev(p1.zero, p1.infinity)
    worst = pctx.cap
    for i in range(i_max):
        total = pctx.zero()
        for j in p1.residue_ring(pi).elements():
            # series of (j + pi z)^i in z
            Bp, Gp = pctx.embed(j), pctx.embed(pi)
            F = [pctx.one()] + [pctx.zero()] * (M - 1)
            for _ in range(i):
                F = _ser_mul(F, [Bp, Gp] + [pctx.zero()] * (M - 2), M)
            total = total + _pair(mu, j, pi, F)
        diff = lam_inv * total - base.honest_moment(i, 0)
        if not diff.is_zero():
            worst = min(worst, diff.val())
    return worst
