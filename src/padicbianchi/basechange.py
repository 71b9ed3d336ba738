"""The classical side over Q and the base-change comparison.

Three ingredients live here. First, the Tate-period oracle: for an elliptic
curve with multiplicative reduction at p, the period q with j(q) = j(E) is
recovered by reverting the q-expansion of j, and log_iw(q)/ord_p(q) is the
classical L-invariant. Second, the classical side of the one-variable
overconvergent lift of the base-changed form ft. Its M-symbols run on the
shared Manin layer of msymb: RationalP1 is the layer over Z (reduction
mod N, Fraction cusps as real int cusps, paths on the Euclidean kernel of
field, the SL_2(Z) relations and Hecke coset reps), and msymb's
ModularSymbol, apply_hecke, relation solver and hecke_matrix_on do the
rest, as over O_F.
The moments live in ocsymb, the one moment layer of the package: a
one-variable distribution is the zbar-trivial column of a Bianchi moment
table, and the lift runs on the DistContext of F = Q(sqrt(-FIELD_D)) at p,
which must not split in F (the base-change setting). Integer matrices
enter that layer embedded in SL_2(O_F).
Third, the factorization check: the Bianchi p-adic L-function of lfun,
whose s-variable runs along the cyclotomic line (p is not split), factors as
the product of the two classical L-functions (trivial twist and the twist by
the quadratic character of the field), up to the unit #O^x/2 and period
units which the ratio-of-ratios comparison cancels. Both sides are
lfun.RayDistribution measures, integrated through lfun.disc_sum on the
stacked disc kernel of lfun: the classical one takes Z/n and p from
RationalP1 and runs on the int paths (B, 0, G, 0) -> (1, 0, 0, 0), and its
values lie in the same completion F_p as the Bianchi ones.
"""

from fractions import Fraction
from math import gcd

import numpy as np

from . import field as fld
from . import lfun
from . import msymb as ms
from . import ocsymb as oc
from . import padic
from .field import QuadInt


# F = Q(sqrt(-FIELD_D)) = Q(i), the field of the base-change comparison
FIELD_D = 1


# Weierstrass coefficients (a1, a2, a3, a4, a6) of the test curves
CURVES = {
    "11a": (0, -1, 1, -10, -20),
    "14a": (1, 0, 1, 4, -6),
}


def curve_invariants(coeffs):
    a1, a2, a3, a4, a6 = coeffs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    disc = (c4 ** 3 - c6 ** 2) // 1728
    return {"c4": c4, "c6": c6, "disc": disc, "j": Fraction(c4 ** 3, disc)}


def _sigma3(n):
    """The sum of the cubes of the divisors of n >= 1."""
    return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


def _j_times_q_series(n_terms):
    """Integer coefficients of q*j(q) = E4(q)^3 / prod (1 - q^n)^24."""
    e4 = [1] + [240 * _sigma3(n) for n in range(1, n_terms)]

    def ser_mul(f, g):
        out = [0] * n_terms
        for i, fi in enumerate(f):
            if not fi:
                continue
            for j in range(min(len(g), n_terms - i)):
                out[i + j] += fi * g[j]
        return out

    num = ser_mul(ser_mul(e4, e4), e4)
    den = [1] + [0] * (n_terms - 1)
    for k in range(1, n_terms):
        piece = [0] * n_terms
        piece[0] = 1
        piece[k] = -1
        for _ in range(24):
            den = ser_mul(den, piece)
    # power series reciprocal of den (den[0] = 1)
    rec = [1] + [0] * (n_terms - 1)
    for n in range(1, n_terms):
        rec[n] = -sum(den[k] * rec[n - k] for k in range(1, n + 1))
    return ser_mul(num, rec)


def tate_period(coeffs, p, M):
    """(q mod p^(M + v), v = ord_p(q)) with j(q) = j(E), for a curve with
    multiplicative reduction at p."""
    inv = curve_invariants(coeffs)
    if inv["disc"] % p:
        raise ValueError("good reduction at %d: no Tate period" % p)
    if inv["c4"] % p == 0:
        raise ValueError("additive reduction at %d: no Tate period" % p)
    j = inv["j"]
    v = fld.int_val(j.denominator, p)
    K = M + 2 * v
    mod = p ** K
    x = j.denominator * pow(j.numerator % mod, -1, mod) % mod
    n_terms = K // v + 2
    h = _j_times_q_series(n_terms)

    def h_at(q):
        acc = 0
        qq = 1
        for c in h:
            acc = (acc + c * qq) % mod
            qq = qq * q % mod
        return acc

    q = x
    for _ in range(K // v + 2):
        q = x * h_at(q) % mod
    assert q * j.numerator % mod == j.denominator * h_at(q) % mod, \
        "Tate period iteration did not converge"
    assert fld.int_val(q, p) == v
    return q % p ** (M + v), v


def classical_l_invariant(coeffs, p, M):
    """log_iw(q)/ord_p(q) of the Tate period, as an element of Q_p."""
    q, v = tate_period(coeffs, p, M)
    ctx = padic.Qp(p, M)
    unit = (q // p ** v) % ctx.mod
    return padic.log_iw(ctx.elt(unit)) / v


# ---------------------------------------------------------------------------
# classical modular symbols over Q (weight 2, level N)


class ZMod:
    """Z/n with the methods of field.ResidueRing that lfun's ray
    distribution and its characters use: an integer a is the pair (a, 0),
    and its residue code is a mod n."""

    def __init__(self, n):
        self.n = self.size = n

    def reduce_pair(self, a, b):
        """The residue of the pair (a, b) of the integer a (b is 0)."""
        return a % self.n, b

    def code(self, a, b):
        return a % self.n

    def unit_pairs(self):
        return np.array([(a, 0) for a in range(self.n) if gcd(a, self.n) == 1],
                        dtype=np.int64).reshape(-1, 2)

    def inverse_pairs(self, x):
        return np.array([(pow(a, -1, self.n), 0) for a in x[:, 0].tolist()],
                        dtype=np.int64).reshape(-1, 2)


class RationalP1(ms.ManinLayer):
    """P^1(Z/N) with canonical representatives: the Manin layer over Z.

    A caller's cusps are Fractions with None for infinity; below the
    symbol API a cusp x/y is the int cusp (x, 0, y, 0) of field, and paths
    decompose on its Euclidean kernel (manin.manin_pieces): for real
    arguments the quotient scan never picks a w-part, so every piece is in
    SL_2(Z). The layer's one key is an (N, N) array from (c mod N,
    d mod N) to the generator, filled orbit by orbit of the units at
    construction; piece_indices reads it. The generators are the
    least members of the orbits, lifted as the real rows (c, 0, d, 0) by
    the lockstep lift of the shared layer. Integer matrices enter the
    moment layer embedded in SL_2(O_F), as the 8-tuples of pairs(g). The
    ray distribution of lfun runs on Z/n (ZMod), the prime p and the int
    cusps (B, 0, G, 0)."""

    S, T = fld.field_params(FIELD_D)[1:3]
    residue_ring = ZMod

    @staticmethod
    def uniformizer(pd):
        return pd.p

    @staticmethod
    def cusp_pairs(x):
        """The Fraction x (None for infinity) as the int cusp of field."""
        if x is None:
            return (1, 0, 0, 0)
        return (x.numerator, 0, x.denominator, 0)

    def __init__(self, N):
        self.N = N
        self.modulus = (N, 0)
        units = [u for u in range(N) if gcd(u, N) == 1]
        # the scan meets each orbit of the units first at its least member,
        # which is the canonical representative
        self.reps = []
        self._table = np.full((N, N), -1, dtype=np.int64)
        for c in range(N):
            for d in range(N):
                if self._table[c, d] < 0 and gcd(gcd(c, d), N) == 1:
                    for u in units:
                        self._table[c * u % N, d * u % N] = len(self.reps)
                    self.reps.append((c, d))
        super().__init__()

    def rep_rows(self):
        return np.array([(c, 0, d, 0) for c, d in self.reps], dtype=np.int64)

    @staticmethod
    def matrix(g):
        return ((g[0], g[2]), (g[4], g[6]))

    def piece_indices(self, G):
        N = self.N
        return self._table[(G[:, 4] % N).astype(np.int64),
                           (G[:, 6] % N).astype(np.int64)]

    @staticmethod
    def pairs(g):
        """An integer matrix as an 8-tuple over O_F."""
        (a, b), (c, d) = g
        return (a, 0, b, 0, c, 0, d, 0)

    def hecke_reps(self, ell):
        reps = [((1, a), (0, ell)) for a in range(ell)]
        if self.N % ell:
            reps.append(((ell, 0), (0, 1)))
        return reps

    def relation_mats(self):
        # SL_2(Z) has the 2-term relation of S and the 3-term relation of
        # the order-3 rotation T; -1 acts trivially on P^1, so no unit one
        S = ((0, -1), (1, 0))
        T = ((0, -1), (1, -1))
        return S, [T], []


def build_rational_symbol_space(N):
    """(p1, basis) for weight-2 M-symbols at level N over Q."""
    p1 = RationalP1(N)
    return p1, ms.relation_basis(p1)


def apply_parity_involution(phi):
    """phi | diag(-1, 1): the M-symbol map (c : d) -> (-c : d)."""
    return phi.copy([phi.values[j]
                     for j in phi.p1.act(((-1, 0), (0, 1))).tolist()])


def find_rational_eigensymbols(N, p, helper=(2, -2)):
    """(plus, minus) eigensymbols at level N with the given helper Hecke
    eigenvalue, both normalized primitive, annotated with a_p."""
    from . import linalg as la
    p1, basis = build_rational_symbol_space(N)
    syms = [ms.ModularSymbol(p1, vec, N, None) for vec in basis]
    ell, lam = helper
    ker = la.eigenspace(ms.hecke_matrix_on(syms, ell), lam)
    if not ker:
        raise ValueError("no eigensymbol with T_%d = %d at level %d"
                         % (ell, lam, N))
    plus = minus = None
    for vec in ker:
        e = ms._combine(vec, syms)
        flip = apply_parity_involution(e)
        pe, me = e.add(flip), e.add(flip, -1)
        if plus is None and not pe.is_zero():
            plus = pe
        if minus is None and not me.is_zero():
            minus = me
    if plus is None or minus is None:
        raise ValueError("could not split parity eigensymbols")
    out = []
    for e in (plus, minus):
        e = e.normalize_integral(p)
        e.eigen = {"lambda_p": ms._ratio(ms.apply_hecke(e, p), e),
                   "helper": helper}
        out.append(e)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# one-variable overconvergent lifting


def lift_rational(phi, M, p):
    """One-variable overconvergent eigenlift of a rational eigensymbol with
    unit a_p; returns (symbol, certificate). The symbol's tables are the
    zbar-trivial column (2, M, 1) on the moment layer of F at p; its
    moments lie in Z_p, so their second coordinate is zero."""
    ctx = oc.DistContext(fld.split_prime(p, FIELD_D), M)
    u_op = oc.UOperator(ctx, phi.p1.hecke_terms(phi.p1.hecke_reps(p)[:p]))
    return oc.iterate_lift(phi, phi.level, u_op, 1, phi.eigen["lambda_p"],
                           M + 1)


# ---------------------------------------------------------------------------
# classical p-adic L-values


class QuadDirichletChar:
    """A real Dirichlet character: as field.RayCharacter, a list table
    indexed by residue code (n mod the modulus, on ZMod), 0 off the units."""

    def __init__(self, modulus, table):
        self.modulus = modulus
        self.table = table
        self.ring = ZMod(modulus)

    def __call__(self, n):
        return self.table[n % self.modulus]


def chi_minus4():
    return QuadDirichletChar(4, [0, 1, 0, -1])


def build_mu_rational(psi, m):
    """The measure of a rational eigensymbol at modulus m: the ray
    distribution of lfun on the layer over Z."""
    if m % psi.ctx.p == 0:
        raise ValueError("modulus must be coprime to p")
    return lfun.RayDistribution(psi, m)


def rational_kernel(s=0, insert_log=False):
    """The disc kernel of Lp_rational: the integral of <z>^s (times
    log_iw(z) with insert_log) over each disc of a one-variable measure."""
    def on_disc(mu, discs):
        M = discs.ctx.M
        L = discs.log_series()
        F = lfun._power_series(L, s, M)
        if insert_log:
            F = lfun._ser_mul(F, L, M)
        return lfun._pair(discs, F)
    return on_disc


def Lp_rational(mu, chi=None, s=0, insert_log=False):
    """L_p(ft, chi, s) = integral of <z>^s chi(z) against the measure;
    insert_log gives the derivative in s instead."""
    return lfun.disc_sum(mu, lfun._chi_weight(mu, chi),
                         rational_kernel(s, insert_log))


# ---------------------------------------------------------------------------
# the factorization check


UNIT_FACTOR = 2          # #O^x / 2 for the Gaussian integers


def factorization_check(mu, psi_plus, psi_minus, points=(1, 2), floor=5):
    """Compare the Bianchi L_p (whose s-variable runs along the cyclotomic
    line) against 2 * L_p(ft, s) * L_p(ft, chi_{-4}, s).

    Periods on both sides are pinned only up to units, so the check is the
    cross-multiplied ratio across two sample points (which cancels a single
    unknown scalar); the exceptional zero at s = 0 is checked to transfer.
    The report records everything."""
    chi = chi_minus4()
    mu_p = build_mu_rational(psi_plus, 1)
    mu_m = build_mu_rational(psi_minus, 4)
    report = {"points": list(points), "unit_factor": UNIT_FACTOR,
              "floor": floor}

    def sides(s):
        left = lfun.Lp_value(mu, s=s)
        right = UNIT_FACTOR * (Lp_rational(mu_p, None, s)
                               * Lp_rational(mu_m, chi, s))
        return left, right

    l0, r0 = sides(0)
    report["exceptional_transfer"] = {
        "left_zero": l0.is_zero(), "right_zero": r0.is_zero()}
    vals = {}
    for s in points:
        left, right = sides(s)
        vals[s] = (left, right)
        report.setdefault("samples", {})[str(s)] = {
            "left": left.to_json(), "right": right.to_json()}
    s1, s2 = points
    if vals[s1][0].is_zero() or vals[s2][0].is_zero():
        report["status"] = "inconclusive"
        report["cause"] = "sampled value vanishes; pick other points"
        return report
    cross = vals[s1][0] * vals[s2][1] - vals[s2][0] * vals[s1][1]
    ok = cross.is_zero() or cross.val() >= floor \
        + min(vals[s1][0].val() + vals[s2][1].val(),
              vals[s2][0].val() + vals[s1][1].val())
    report["cross_difference"] = cross.to_json()
    report["ratio_of_ratios_ok"] = bool(ok)
    # the single period scalar relating the two sides, for the record
    scal = vals[s1][1] / vals[s1][0] if vals[s1][0].is_unit() else None
    if scal is not None:
        report["period_unit"] = scal.to_json()
        report["normalization_discrepancy"] = not scal.is_unit()
    report["status"] = "ok" if ok else "mismatch"
    return report


# ---------------------------------------------------------------------------
# the ramified secondary run


def ramified_case_report(M=6):
    """Attempt the p = 2 (ramified in Q(i)) run with the base change of the
    conductor-14 curve; every stage is tried and the first failure is
    reported as a skip with its cause."""
    from . import cocycle as cc

    report = {"p": 2, "curve": "14a", "level": "(1+i)(7)", "M": M}
    stage = "classical L-invariant"
    try:
        clas = classical_l_invariant(CURVES["14a"], 2, M)
        report["classical_l_invariant"] = clas.to_json()
        stage = "prime data"
        pd = fld.split_prime(2, 1)
        level = QuadInt(7, 7, 1)     # (1+i)(7)
        stage = "eigensymbol"
        phi, _ = ms.find_new_eigensymbol(level, pd)
        stage = "overconvergent lift"
        psi, cert = oc.lift(phi, M, pd)
        if not cert["converged"]:
            raise RuntimeError("lift did not converge")
        stage = "harmonicity"
        fam = cc.TreeFamily(phi, pd, psi=psi)
        if not cc.harmonicity_check(fam)["harmonic"]:
            raise RuntimeError("lifted symbol is not p-new")
        # c = 4+i is the smallest modulus with a nonvanishing counting
        # cocycle for this form (oc = 0 at (3), (5), (11), (13))
        stage = "L-invariant (log kernel disc expansion)"
        data = [(QuadInt(4, 1, 1), QuadInt(1, 0, 1)),
                (QuadInt(4, 1, 1), QuadInt(2, 0, 1)),
                (QuadInt(4, 1, 1), QuadInt(1, 1, 1))]
        cert2 = cc.l_invariant(fam, data=data)
        report["l_invariant"] = cert2.l_invariant.to_json()
        stage = "factor comparison"
        diff = cert2.l_invariant - fam.pctx.elt(clas.c0, 0, 2 * clas.prec)
        report["factor_one_difference"] = diff.to_json()
        report["factor_one_holds"] = bool(diff.is_zero() or diff.val() >= 3)
        report["status"] = "ok"
    except Exception as exc:
        report["status"] = "skipped"
        report["stage"] = stage
        report["cause"] = "%s: %s" % (type(exc).__name__, exc)
    return report
