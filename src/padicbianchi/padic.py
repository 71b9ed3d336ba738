"""Fixed-precision arithmetic in Q_p and quadratic completions F_p.

Elements are stored on the basis {1, g} where g is either the field generator
w (inert case), the uniformizer pi (ramified case), or absent (base case).
Coefficients live mod p^M; each element carries its own absolute precision in
pi-adic digits so that every operation can report worst-case loss.

The Iwasawa logarithm (log_p(p) = 0), the Teichmuller character, and
<z>^s = exp(s log<z>) are provided, with explicit precision-loss deltas.
"""

from . import field as fld


class PrecisionError(ArithmeticError):
    pass


class PadicContext:
    """Q_p (ext_kind 'base') or a quadratic extension at precision p^M.

    minpoly = (S, T) means g^2 = S*g + T with S, T rational integers.
    """

    def __init__(self, p, M, ext_kind="base", minpoly=None, e=1, f=1,
                 embed_coeffs=None, extra_torsion=None):
        self.p = p
        self.M = M
        self.ext_kind = ext_kind
        self.e = e
        self.f = f
        self.q = p ** f                      # residue field size
        self.mod = p ** M
        self.cap = e * M                     # max pi-adic precision
        if ext_kind == "base":
            self.S, self.T = 0, 0
        else:
            self.S, self.T = minpoly
        # r_pe: smallest r with exp convergent on pi^r O (spec formula)
        self.r_pe = 1 if (p > 2 and e == 1) else e + 1
        self._embed_coeffs = embed_coeffs    # (a, b) coords of w_F on {1, g}
        self.extra_torsion = extra_torsion or []

    # -- element constructors ------------------------------------------------

    def elt(self, c0, c1=0, prec=None):
        return PadicElement(self, c0 % self.mod, c1 % self.mod,
                            self.cap if prec is None else min(prec, self.cap))

    def zero(self):
        return self.elt(0)

    def one(self):
        return self.elt(1)

    def gen(self):
        if self.ext_kind == "base":
            raise ValueError("base field has no generator")
        return self.elt(0, 1)

    def from_rational(self, fr):
        num, den = (fr.numerator, fr.denominator) if hasattr(fr, "numerator") \
            else (int(fr), 1)
        vd = 0
        while den % self.p == 0:
            den //= self.p
            vd += 1
        x = self.elt(num * pow(den, -1, self.mod))
        if vd:
            x = x / self.elt(self.p) ** vd
        return x

    def embed(self, z):
        """Embed a QuadInt (or int) of the matching field into this completion."""
        if isinstance(z, int):
            return self.elt(z)
        if self._embed_coeffs is None:
            raise ValueError("context has no field embedding")
        wa, wb = self._embed_coeffs
        return self.elt(z.a + z.b * wa, z.b * wb)

    def __repr__(self):
        return "PadicContext(p=%d, M=%d, %s)" % (self.p, self.M, self.ext_kind)


def Qp(p, M):
    return PadicContext(p, M)


def completion(prime_data, M):
    """The completion F_p of Q(sqrt(-d)) at the given prime, precision p^M."""
    pd = prime_data
    p = pd.p
    dd = pd.pi.d
    D, S, T, _ = fld.field_params(dd)
    if pd.kind == "inert":
        ctx = PadicContext(p, M, "inert", (S, T), e=1, f=2,
                           embed_coeffs=(0, 1))
        return ctx
    if pd.kind == "ramified":
        pi = pd.pi
        Spi, Tpi = pi.trace(), -pi.norm()    # pi^2 = Spi*pi + Tpi
        # w_F = (pi - u)/v where pi = u + v*w
        u, v = pi.a, pi.b
        vinv = pow(v, -1, p ** M) if v % p else None
        if vinv is None:
            raise ValueError("unexpected uniformizer shape")
        ctx = PadicContext(p, M, "ramified", (Spi, Tpi), e=2, f=1,
                           embed_coeffs=((-u * vinv) % p ** M, vinv))
        ctx.extra_torsion = _ramified_torsion(ctx, dd)
        return ctx
    # split: base field, embedding via a Hensel-lifted root of the minpoly
    root = _hensel_root(S, T, p, M, pd)
    return PadicContext(p, M, "base", embed_coeffs=(root, 0))


def _hensel_root(S, T, p, M, pd):
    # root of x^2 - S x - T congruent to w mod pi (pin the branch with pi)
    r0 = next(r for r in range(p) if (r * r - S * r - T) % p == 0)
    # choose the root compatible with pd.pi | (w - root)
    w = fld.omega(pd.pi.d)
    if not fld.divides(pd.pi, w - fld.QuadInt(r0, 0, pd.pi.d)):
        r0 = (S - r0) % p
    r = r0
    mod = p
    while mod < p ** M:
        mod = min(mod * mod, p ** M)
        f = (r * r - S * r - T) % mod
        df = (2 * r - S) % mod
        r = (r - f * pow(df, -1, mod)) % mod
    return r


def _ramified_torsion(ctx, d):
    # p-power roots of unity beyond mu_{q-1}: i for Q_2(i), zeta_3 for Q_3(zeta_3)
    if d == 1 and ctx.p == 2:
        i_elt = ctx.embed(fld.omega(1))
        return [i_elt, -i_elt, -ctx.one()]
    if d == 3 and ctx.p == 3:
        z3 = ctx.embed(fld.omega(3) - 1)     # zeta_3 = w - 1 for w = zeta_6
        out = []
        for a in range(1, 3):
            for s in (1, -1):
                out.append(s * z3 ** a)
        out.append(-ctx.one())
        return out
    if d == 2 and ctx.p == 2:
        return [-ctx.one()]
    return [-ctx.one()]


class PadicElement:
    """c0 + c1*g in the completion, with tracked absolute pi-adic precision."""

    __slots__ = ("ctx", "c0", "c1", "prec")

    def __init__(self, ctx, c0, c1, prec):
        self.ctx = ctx
        self.c0 = c0 % ctx.mod
        self.c1 = c1 % ctx.mod
        self.prec = prec

    def _coerce(self, other):
        if isinstance(other, PadicElement):
            if other.ctx is not self.ctx and (other.ctx.p != self.ctx.p
                                              or other.ctx.S != self.ctx.S
                                              or other.ctx.T != self.ctx.T):
                raise ValueError("mixed p-adic contexts")
            return other
        if isinstance(other, int):
            return self.ctx.elt(other)
        if hasattr(other, "numerator"):
            return self.ctx.from_rational(other)
        return NotImplemented

    # -- ring ops ------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PadicElement(self.ctx, self.c0 + o.c0, self.c1 + o.c1,
                            min(self.prec, o.prec))

    __radd__ = __add__

    def __neg__(self):
        return PadicElement(self.ctx, -self.c0, -self.c1, self.prec)

    def __sub__(self, other):
        o = self._coerce(other)
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        ctx = self.ctx
        a0, a1, b0, b1 = self.c0, self.c1, o.c0, o.c1
        c0 = a0 * b0 + ctx.T * a1 * b1
        c1 = a0 * b1 + a1 * b0 + ctx.S * a1 * b1
        prec = min(self.prec + o.val(), o.prec + self.val(), ctx.cap)
        return PadicElement(ctx, c0, c1, max(prec, 0))

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        r = PadicElement(self.ctx, 1, 0, self.prec if n else self.ctx.cap)
        x = self
        while n:
            if n & 1:
                r = r * x
            x = x * x
            n >>= 1
        return r

    def conj(self):
        """Nontrivial automorphism g -> S - g (identity on the base)."""
        ctx = self.ctx
        return PadicElement(ctx, self.c0 + ctx.S * self.c1, -self.c1, self.prec)

    def val(self):
        """pi-adic valuation, capped at the element's precision."""
        ctx = self.ctx
        v0 = _pval(self.c0, ctx.p, ctx.M)
        v1 = _pval(self.c1, ctx.p, ctx.M)
        if ctx.ext_kind == "ramified":
            v = min(2 * v0, 2 * v1 + 1)
        else:
            v = min(v0, v1)
        return min(v, self.prec)

    def is_zero(self):
        return self.val() >= self.prec

    def is_unit(self):
        return self.val() == 0

    def inverse(self):
        ctx = self.ctx
        if self.is_zero():
            raise ZeroDivisionError("inverting (p-adically) zero")
        if self.val() != 0:
            # only integral elements are representable, so 1/non-unit is not
            raise PrecisionError("inverse of a non-unit leaves the ring")
        n = (self * self.conj()).c0 % ctx.mod
        ninv = pow(n, -1, ctx.mod)
        co = self.conj()
        return PadicElement(ctx, co.c0 * ninv, co.c1 * ninv, self.prec)

    def __truediv__(self, other):
        """self / other. A divisor of valuation v is a unit times pi^v: both
        operands are divided by pi^v with exact shifts (_div_pi), each of
        which costs one pi-adic digit, and the quotient is the dividend
        times the inverse of the unit."""
        o = self._coerce(other)
        v = o.val()
        if v == 0:
            return self * o.inverse()
        x, y = self, o
        for _ in range(v):
            x, y = _div_pi(x, v), _div_pi(y, v)
        if x.prec <= 0 or y.prec <= 0:
            # no digit of the quotient survives the shifts
            raise PrecisionError("inexact division by pi^%d" % v)
        return x * y.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).is_zero()

    def reduce_prec(self, prec):
        ctx = self.ctx
        prec = min(prec, self.prec)
        pk = ctx.p ** _coeff_digits(ctx, prec)
        return PadicElement(ctx, self.c0 % pk, self.c1 % pk, prec)

    def to_json(self):
        return {"p": self.ctx.p, "ext_kind": self.ctx.ext_kind,
                "coeffs": [str(self.c0), str(self.c1)],
                "valuation": self.val() if not self.is_zero() else None,
                "precision": self.prec}

    def __repr__(self):
        if self.c1 == 0:
            return "%d + O(pi^%d)" % (self.c0, self.prec)
        return "%d + %d*g + O(pi^%d)" % (self.c0, self.c1, self.prec)


def _pval(n, p, M):
    n = n % p ** M
    if n == 0:
        return M
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _div_pi(x, v):
    """x / pi, exact: x / p on the basis {1, w} of Q_p or an unramified
    F_p; on the basis {1, pi} of a ramified one, with pi^2 = S*pi + T and
    T = -N(pi) = -p, x / pi = (c1 + (c0/p) S) + (-c0/p) pi. Raises
    PrecisionError (as a division by pi^v) when pi does not divide x."""
    ctx = x.ctx
    p = ctx.p
    if ctx.ext_kind == "ramified":
        if x.c0 % p:
            raise PrecisionError("inexact division by pi^%d" % v)
        q = x.c0 // p
        return PadicElement(ctx, x.c1 + q * ctx.S, -q, x.prec - 1)
    if x.c0 % p or x.c1 % p:
        raise PrecisionError("inexact division by pi^%d" % v)
    return PadicElement(ctx, x.c0 // p, x.c1 // p, x.prec - 1)


def _coeff_digits(ctx, piprec):
    # p-adic digits needed on coefficients for pi-adic precision piprec
    if ctx.ext_kind == "ramified":
        return (piprec + 1) // 2 + (piprec % 2)
    return piprec


def ctx_uniformizer(ctx):
    if ctx.ext_kind == "ramified":
        return ctx.gen()
    return ctx.elt(ctx.p)


# ---------------------------------------------------------------------------
# Teichmuller, Iwasawa logarithm, gauge powers


def teichmuller(x):
    """The unique (q-1)-st root of unity congruent to x mod pi."""
    if not x.is_unit():
        raise ValueError("Teichmuller character of a non-unit")
    ctx = x.ctx
    y = x
    for _ in range(ctx.cap + 2):
        z = y ** ctx.q
        if (z - y).is_zero():
            return z
        y = z
    return y


def torsion_split(x):
    """Write the unit x = zeta * <x> with <x> = 1 mod pi^{r_pe}; return both.

    zeta runs over Teichmuller lifts times the context's extra p-power torsion.
    Raises PrecisionError when no such splitting exists (e.g. Q_2(sqrt(-2))).
    """
    ctx = x.ctx
    t = teichmuller(x)
    cands = [t] + [t * z for z in ctx.extra_torsion]
    for zeta in cands:
        g = x * zeta.inverse()
        if (g - 1).val() >= ctx.r_pe:
            return zeta, g
    raise PrecisionError("unit has no torsion splitting mod pi^%d" % ctx.r_pe)


def _log_series(one_plus, target_prec):
    """log(x) for x = 1 mod pi^{r_pe}, by the usual series; returns (value, delta)."""
    ctx = one_plus.ctx
    y = one_plus - 1
    r = y.val()
    if r < ctx.r_pe and not y.is_zero():
        raise PrecisionError("log series outside its convergence domain")
    if y.is_zero():
        return ctx.zero().reduce_prec(target_prec), 0
    # number of terms: k*r - e*v_p(k) >= target for all omitted k
    kmax = 1
    while True:
        kmax += 1
        bound = kmax * r - ctx.e * _ilog(kmax, ctx.p)
        if bound >= target_prec or kmax > 8 * ctx.cap + 16:
            break
    total = ctx.zero()
    delta = 0
    yk = y
    for k in range(1, kmax + 1):
        contrib = yk / k
        # term k is known mod pi^{(k-1)r + prec - e v_p(k)}
        delta = max(delta, ctx.e * _pval(k, ctx.p, ctx.M) - (k - 1) * r)
        total = total - contrib if k % 2 == 0 else total + contrib
        yk = yk * y
    return total, max(0, delta)


def _ilog(k, p):
    t = 0
    while p ** (t + 1) <= k:
        t += 1
    return t


def log_iw(x, with_delta=False):
    """Iwasawa branch of log: log(p) = 0, log multiplicative, torsion killed."""
    if x.is_zero():
        raise ValueError("log of zero")
    ctx = x.ctx
    v = x.val()
    pi = ctx_uniformizer(ctx)
    u = x / pi ** v if v else x
    # log(pi): 0 unless ramified, where 2 log(pi) = log(pi^2/p) (log p = 0)
    if v and ctx.ext_kind == "ramified":
        eps = (pi * pi) / ctx.p
        lpi_twice, d0 = _log_unit(eps)
        lpi = lpi_twice / 2 if ctx.p != 2 else _halve(lpi_twice)
        base = v * lpi
    else:
        base = ctx.zero().reduce_prec(ctx.cap)
        d0 = 0
    lu, d1 = _log_unit(u)
    out = base + lu
    delta = max(d0, d1)
    return (out, delta) if with_delta else out


def _halve(x):
    ctx = x.ctx
    if ctx.p != 2:
        return x / 2
    if x.c0 % 2 or x.c1 % 2:
        raise PrecisionError("halving an odd 2-adic element")
    return PadicElement(ctx, x.c0 // 2, x.c1 // 2, x.prec - ctx.e)


def _log_unit(u):
    ctx = u.ctx
    try:
        _, g = torsion_split(u)
        return _log_series(g, g.prec)
    except PrecisionError:
        # fall back: log(u) = log(u^n)/n for n killing the class mod pi^r
        n = ctx.q - 1
        w = u ** n
        t = 0
        while (w - 1).val() < ctx.r_pe:
            w = w ** ctx.p
            n *= ctx.p
            t += 1
            if t > ctx.cap:
                raise PrecisionError("no power of the unit is 1 mod pi^r")
        val, d = _log_series(w, w.prec)
        loss = ctx.e * t
        res = val / (n // ctx.p ** t)
        for _ in range(t):
            res = _halve(res) if ctx.p == 2 else res / ctx.p
        return res, d + loss


def padic_exp(y):
    """exp on pi^{r_pe} O; domain error outside."""
    ctx = y.ctx
    if not y.is_zero() and y.val() < ctx.r_pe:
        raise PrecisionError("exp outside its convergence domain")
    total = ctx.one()
    term = ctx.one()
    k = 1
    while True:
        term = term * y / k
        if term.is_zero() or k > 4 * ctx.cap + 8:
            break
        total = total + term
        k += 1
    return total


def gauge(z):
    """<z> = z / (torsion part); congruent to 1 mod pi^{r_pe}."""
    _, g = torsion_split(z)
    return g


def gauge_power(z, s):
    """<z>^s = exp(s log <z>) for a unit z and s integral."""
    if not z.is_unit():
        raise ValueError("gauge power of a non-unit")
    g = gauge(z)
    lg, _ = _log_series(g, g.prec)
    if isinstance(s, int):
        s = z.ctx.elt(s)
    return padic_exp(s * lg)
