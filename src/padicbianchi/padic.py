"""Fixed-precision arithmetic in Q_p and quadratic completions F_p.

Elements are stored on the basis {1, g} where g is either the field generator
w (inert case), the uniformizer pi (ramified case), or absent (base case).
Coefficients live mod p^M; each element carries its own absolute precision in
pi-adic digits so that every operation can report worst-case loss.

The Iwasawa logarithm (log_p(p) = 0), the Teichmuller character, and
<z>^s = exp(s log<z>) are provided, with explicit precision-loss deltas.

PadicStack holds many elements at once, as coefficient arrays on the pair
arithmetic of the moment layer (ocsymb.DistContext), and applies the
precision rules of PadicElement element by element: mul gives
min(a.prec + v(b), b.prec + v(a), cap), add the min of the two precisions,
and a division by a non-unit shifts both operands by pi (_div_pi). Its
log_iw_units, padic_exp_stack and teichmuller_units are the stacked
log_iw, padic_exp and teichmuller, exact to the digit. Where the scalar
code would raise, a stack records the error against the element's row in
a StackLog, and StackLog.check raises the first row's.
"""

import numpy as np

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
        # residue_key -> (c0, c1) of the Teichmuller lift of the class,
        # filled on demand (teichmuller, teichmuller_units)
        self._teich = {}

    def residue_key(self, c0, c1):
        """An int naming the class of c0 + c1*g mod pi (ints or arrays)."""
        if self.ext_kind == "inert":
            return c0 % self.p + self.p * (c1 % self.p)
        return c0 % self.p

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

    __slots__ = ("ctx", "c0", "c1", "prec", "_v")

    def __init__(self, ctx, c0, c1, prec):
        self.ctx = ctx
        self.c0 = c0 % ctx.mod
        self.c1 = c1 % ctx.mod
        self.prec = prec
        self._v = None

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
        """pi-adic valuation, capped at the element's precision; computed
        once per element."""
        v = self._v
        if v is None:
            ctx = self.ctx
            v0 = _pval(self.c0, ctx.p, ctx.M)
            v1 = _pval(self.c1, ctx.p, ctx.M)
            if ctx.ext_kind == "ramified":
                v = min(2 * v0, 2 * v1 + 1)
            else:
                v = min(v0, v1)
            v = self._v = min(v, self.prec)
        return v

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
    """min(v_p(n), M) for 0 <= n < p^M."""
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
    """The unique (q-1)-st root of unity congruent to x mod pi. At full
    precision (prec == cap) the lift depends on the residue class alone
    and comes from the context's table; below it, its digits beyond prec
    depend on x."""
    if not x.is_unit():
        raise ValueError("Teichmuller character of a non-unit")
    ctx = x.ctx
    if x.prec != ctx.cap:
        return _teichmuller_iterate(x)
    key = ctx.residue_key(x.c0, x.c1)
    t = ctx._teich.get(key)
    if t is None:
        z = _teichmuller_iterate(x)
        t = ctx._teich[key] = (z.c0, z.c1)
    return PadicElement(ctx, t[0], t[1], ctx.cap)


def _teichmuller_iterate(x):
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
        delta = max(delta, ctx.e * _pval(k % ctx.mod, ctx.p, ctx.M)
                    - (k - 1) * r)
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


# ---------------------------------------------------------------------------
# stacks of elements


class StackLog:
    """What a stacked computation over rows (the first array axis) records
    in place of raising: the first error of each row, which is the error
    that row's scalar computation would raise first. check() raises the
    error of the first row that has one."""

    def __init__(self, rows):
        self.first = np.full(rows, -1)
        self.errors = []

    def record(self, fail, exc):
        fail = np.asarray(fail)
        rows = np.nonzero(fail.reshape(len(fail), -1).any(axis=1))[0]
        new = rows[self.first[rows] < 0]
        if len(new):
            self.first[new] = len(self.errors)
            self.errors.append(exc)

    def check(self):
        bad = np.nonzero(self.first >= 0)[0]
        if len(bad):
            raise self.errors[self.first[bad[0]]]


def _record(log, fail, exc):
    """Record exc against the rows where fail holds, or raise it at once
    when the stack has no log."""
    if not np.any(fail):
        return
    if log is None:
        raise exc
    log.record(fail, exc)


def _pval_array(c, powers, M):
    """min(v_p(c), M) elementwise for 0 <= c < p^M; powers[k] = p^k."""
    c = np.asarray(c)
    nonzero = (c != 0).astype(bool)
    v = np.where(nonzero, 0, M)
    x = c[nonzero]
    w = np.zeros(len(x), dtype=np.int64)
    for k in range(1, M):
        hit = (x % powers[k] == 0).astype(bool)
        if not hit.any():
            break
        w += hit
    v[nonzero] = w
    return v


class PadicStack:
    """Elements c0 + c1*g of one completion, as arrays of any one shape:
    coefficients mod p^M of the dtype of the pair arithmetic ar (an
    ocsymb.DistContext: mul, conj, inv, mod, dtype, powers, pctx) and an
    int array of precisions. Every operation applies the rule of the
    PadicElement operation to each element, so stack and scalar code agree
    in value and precision; int and PadicElement operands broadcast as
    constants. An operation that would raise for some elements records the
    error in log (see StackLog), or raises it when log is None."""

    __slots__ = ("ar", "c0", "c1", "prec", "log", "_v")

    def __init__(self, ar, c0, c1, prec, log=None):
        self.ar = ar
        self.c0 = c0
        self.c1 = c1
        self.prec = prec
        self.log = log
        self._v = None

    @classmethod
    def of(cls, ar, xs, log=None):
        """PadicElements or ints as a stack, shape (len(xs),); a single one
        as shape (1,)."""
        if not isinstance(xs, (list, tuple)):
            xs = [xs]
        pctx = ar.pctx
        xs = [pctx.elt(x) if isinstance(x, int) else x for x in xs]
        return cls(ar, np.array([x.c0 for x in xs], dtype=ar.dtype),
                   np.array([x.c1 for x in xs], dtype=ar.dtype),
                   np.array([x.prec for x in xs], dtype=np.int64), log)

    @classmethod
    def full(cls, ar, value, shape, prec, log=None):
        """The int value at precision prec (an int or an array) in every
        place of shape."""
        c0 = np.full(shape, value % ar.mod, dtype=ar.dtype)
        return cls(ar, c0, np.zeros(shape, dtype=ar.dtype),
                   np.broadcast_to(prec, shape).copy(), log)

    @classmethod
    def embed(cls, ar, a, b, log=None):
        """The elements a + b*w of the field (int arrays) at full precision."""
        c0, c1 = ar.embed_pair(np.asarray(a, dtype=ar.dtype),
                               np.asarray(b, dtype=ar.dtype))
        return cls(ar, c0, c1, np.full(np.shape(c0), ar.pctx.cap), log)

    def _coerce(self, other):
        if isinstance(other, PadicStack):
            return other
        return PadicStack.of(self.ar, other)

    def _new(self, other, c0, c1, prec):
        log = self.log if self.log is not None else other.log
        return PadicStack(self.ar, c0, c1, prec, log)

    @property
    def shape(self):
        return np.shape(self.c0)

    def __len__(self):
        return len(self.c0)

    def __getitem__(self, idx):
        out = PadicStack(self.ar, self.c0[idx], self.c1[idx], self.prec[idx],
                         self.log)
        if self._v is not None:
            out._v = self._v[idx]
        return out

    def put(self, idx, other, where=True):
        """Set the elements at idx to those of other where `where` holds."""
        for name in ("c0", "c1", "prec"):
            arr = getattr(self, name)
            arr[idx] = np.where(where, getattr(other, name), arr[idx])
        self._v = None

    def element(self, idx):
        """Element idx as a PadicElement."""
        return PadicElement(self.ar.pctx, int(self.c0[idx]),
                            int(self.c1[idx]), int(self.prec[idx]))

    # -- ring ops ------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        mod = self.ar.mod
        return self._new(o, (self.c0 + o.c0) % mod, (self.c1 + o.c1) % mod,
                         np.minimum(self.prec, o.prec))

    __radd__ = __add__

    def __neg__(self):
        mod = self.ar.mod
        out = PadicStack(self.ar, -self.c0 % mod, -self.c1 % mod, self.prec,
                         self.log)
        out._v = self._v
        return out

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
        c0, c1 = self.ar.mul(self.c0, self.c1, o.c0, o.c1)
        prec = np.minimum(np.minimum(self.prec + o.val(), o.prec + self.val()),
                          self.ar.pctx.cap)
        return self._new(o, c0, c1, np.maximum(prec, 0))

    __rmul__ = __mul__

    def __pow__(self, n):
        """Non-negative powers by the square-and-multiply of PadicElement."""
        r = PadicStack(self.ar, np.ones_like(self.c0), np.zeros_like(self.c1),
                       self.prec if n else np.full(self.shape,
                                                   self.ar.pctx.cap),
                       self.log)
        x = self
        while n:
            if n & 1:
                r = r * x
            x = x * x
            n >>= 1
        return r

    def conj(self):
        c0, c1 = self.ar.conj(self.c0, self.c1)
        out = PadicStack(self.ar, c0, c1, self.prec, self.log)
        out._v = self._v
        return out

    def val(self):
        """pi-adic valuations, capped at the precisions; computed once."""
        if self._v is None:
            ar = self.ar
            v0 = _pval_array(self.c0, ar.powers, ar.M)
            v1 = _pval_array(self.c1, ar.powers, ar.M)
            if ar.pctx.ext_kind == "ramified":
                v = np.minimum(2 * v0, 2 * v1 + 1)
            else:
                v = np.minimum(v0, v1)
            self._v = np.minimum(v, self.prec)
        return self._v

    def is_zero(self):
        return self.val() >= self.prec

    def inverse(self):
        zero = self.is_zero()
        _record(self.log, zero,
                ZeroDivisionError("inverting (p-adically) zero"))
        bad = zero | (self.val() != 0)
        _record(self.log, bad & ~zero,
                PrecisionError("inverse of a non-unit leaves the ring"))
        x0 = np.where(bad, 1, self.c0).astype(self.ar.dtype).ravel()
        x1 = np.where(bad, 0, self.c1).astype(self.ar.dtype).ravel()
        c0, c1 = self.ar.inv(x0, x1)
        return PadicStack(self.ar, c0.reshape(self.shape),
                          c1.reshape(self.shape), self.prec, self.log)

    def _div_pi(self):
        """(self / pi, where pi does not divide): PadicElement's _div_pi."""
        pctx, mod = self.ar.pctx, self.ar.mod
        p = pctx.p
        if pctx.ext_kind == "ramified":
            fail = self.c0 % p != 0
            q = self.c0 // p
            c0, c1 = (self.c1 + q * pctx.S) % mod, -q % mod
        else:
            fail = (self.c0 % p != 0) | (self.c1 % p != 0)
            c0, c1 = self.c0 // p, self.c1 // p
        return (PadicStack(self.ar, c0, c1, self.prec - 1, self.log),
                fail.astype(bool))

    def div_int(self, k, where=True):
        """self / k for an int k, as PadicElement.__truediv__ divides: a
        divisor of valuation v > 0 shifts both operands v times by pi.
        Errors are recorded only where `where` holds (the elements the
        scalar code divides)."""
        pctx = self.ar.pctx
        y = pctx.elt(k)
        v = y.val()
        x = self
        if v:
            fail = np.zeros(self.shape, dtype=bool)
            for _ in range(v):
                x, f = x._div_pi()
                fail |= f
                y = _div_pi(y, v)
            on = fail | (x.prec <= 0) | (y.prec <= 0)
            _record(self.log, on & where,
                    PrecisionError("inexact division by pi^%d" % v))
            if y.prec <= 0:
                return x
        return x * PadicStack.of(self.ar, y).inverse()

    # -- shape ---------------------------------------------------------------

    def sum(self, axis=None, where=True):
        """zero + the elements (where `where` holds) summed over axis; axis
        None sums all into a PadicElement."""
        ar = self.ar
        c0 = np.where(where, self.c0, 0).sum(axis=axis) % ar.mod
        c1 = np.where(where, self.c1, 0).sum(axis=axis) % ar.mod
        prec = np.min(np.broadcast_to(self.prec, np.broadcast(
            self.c0, where).shape), axis=axis, where=where,
            initial=ar.pctx.cap)
        if axis is None:
            return PadicElement(ar.pctx, int(c0), int(c1), int(prec))
        return PadicStack(ar, c0, c1, prec, self.log)


def select(mask, a, b):
    """Elementwise a where mask holds, else b."""
    return PadicStack(a.ar, np.where(mask, a.c0, b.c0),
                      np.where(mask, a.c1, b.c1),
                      np.where(mask, a.prec, b.prec),
                      a.log if a.log is not None else b.log)


def stack(items, axis=-1):
    """Stacks (or PadicElements) of one broadcast shape, joined on a new
    axis."""
    ar = next(x.ar for x in items if isinstance(x, PadicStack))
    items = [x if isinstance(x, PadicStack) else PadicStack.of(ar, x)
             for x in items]
    shape = np.broadcast_shapes(*(x.shape for x in items))
    parts = [np.stack([np.broadcast_to(getattr(x, name), shape)
                       for x in items], axis=axis)
             for name in ("c0", "c1", "prec")]
    log = next((x.log for x in items if x.log is not None), None)
    return PadicStack(ar, parts[0], parts[1], parts[2], log)


def teichmuller_units(x):
    """teichmuller() of each element of a stack of units at full precision,
    from the context's table. The classes not yet in the table are lifted
    at once, by the scalar iteration y -> y^q on one representative each:
    each step gains at least one digit on a unit at full precision, so
    within cap + 2 steps it settles on the lift of the class."""
    pctx = x.ar.pctx
    table = pctx._teich
    keys = pctx.residue_key(x.c0, x.c1).tolist()
    first = {}
    for i, key in enumerate(keys):
        if key not in table:
            first.setdefault(key, i)
    if first:
        y = x[np.array(list(first.values()))]
        for _ in range(pctx.cap + 2):
            z = y ** pctx.q
            settled = (z - y).is_zero().all()
            y = z
            if settled:
                break
        for key, c0, c1 in zip(first, y.c0.tolist(), y.c1.tolist()):
            table[key] = (c0, c1)
    t0, t1 = zip(*(table[key] for key in keys))
    return PadicStack(x.ar, np.array(t0, dtype=x.ar.dtype),
                      np.array(t1, dtype=x.ar.dtype),
                      np.full(len(keys), pctx.cap), x.log)


def _log_series_stack(one_plus, where):
    """The value of _log_series(x, x.prec) for each element x of one_plus
    where `where` holds: the series runs to each element's own kmax."""
    ar, ctx = one_plus.ar, one_plus.ar.pctx
    target = one_plus.prec
    y = one_plus - 1
    r, yz = y.val(), y.is_zero()
    on = where & ~yz
    outside = on & (r < ctx.r_pe)
    _record(y.log, outside,
            PrecisionError("log series outside its convergence domain"))
    on &= ~outside
    kmax = np.zeros(y.shape, dtype=np.int64)
    open_ = on.copy()
    K = 1
    while open_.any():
        K += 1
        stop = (K * r - ctx.e * _ilog(K, ctx.p) >= target) \
            | (K > 8 * ctx.cap + 16)
        kmax[open_ & stop] = K
        open_ &= ~stop
    total = PadicStack.full(ar, 0, y.shape, ctx.cap, y.log)
    yk = y
    for k in range(1, int(kmax.max(initial=0)) + 1):
        act = k <= kmax
        contrib = yk.div_int(k, where=act)
        total = select(act, total - contrib if k % 2 == 0
                       else total + contrib, total)
        yk = yk * y
    zero = PadicStack.full(ar, 0, y.shape, np.minimum(target, ctx.cap), y.log)
    return select(yz, zero, total)


def log_iw_units(x):
    """log_iw of each element of a stack of units at full precision: the
    torsion split by the Teichmuller table, then the log series to each
    element's own length. As in _log_unit, a unit without a torsion
    splitting, or whose series raises, takes the power fallback: the
    scalar log_iw, one by one."""
    ar, ctx = x.ar, x.ar.pctx
    t = teichmuller_units(x)
    found = np.zeros(x.shape, dtype=bool)
    g = x
    for zeta in [t] + [t * z for z in ctx.extra_torsion]:
        gz = x * zeta.inverse()
        ok = ~found & ((gz - 1).val() >= ctx.r_pe)
        g = select(ok, gz, g)
        found |= ok
    series = StackLog(len(x))
    g = PadicStack(ar, g.c0, g.c1, g.prec, series)
    # log_iw adds the zero log of pi^0 at full precision
    out = _log_series_stack(g, found) + 0
    out.log = x.log
    for i in np.nonzero(~found | (series.first >= 0))[0]:
        try:
            v = log_iw(x.element(i))
        except ArithmeticError as exc:
            _record(x.log, np.arange(len(x)) == i, exc)
            continue
        out.c0[i], out.c1[i], out.prec[i] = v.c0, v.c1, v.prec
        out._v = None
    return out


def padic_exp_stack(y):
    """padic_exp of each element; the series stops per element."""
    ar, ctx = y.ar, y.ar.pctx
    outside = ~y.is_zero() & (y.val() < ctx.r_pe)
    _record(y.log, outside,
            PrecisionError("exp outside its convergence domain"))
    total = PadicStack.full(ar, 1, y.shape, ctx.cap, y.log)
    term = total
    active = ~outside
    k = 1
    while active.any():
        term = (term * y).div_int(k, where=active)
        stop = term.is_zero() | (k > 4 * ctx.cap + 8)
        add = active & ~stop
        total = select(add, total + term, total)
        active = add
        k += 1
    return total
