"""The scalar p-adic element class that padic had before one element
became the 0-d PadicStack (PadicElement, with its own precision rules for
add, mul, pow, val, inverse and the pi-shift division), and a reference
copy of the series that padic computes on stacks (teichmuller_units,
log_iw_units, padic_exp_stack): the Teichmuller iteration, the torsion
split, the log series with its power fallback, exp and the gauge powers,
all on PadicElements, one element at a time. The tests compare the
stacked code against it element by element.

Two edits to the class: ints and Fractions coerce to PadicElements (elt,
from_rational), and so does a 0-d PadicStack (ref), so that an element of
padic entering an operation, or a series below, leaves as a
PadicElement. The pair arithmetic (mul, conj, inv, div_pi) is the
context's, as it was."""

import numpy as np

from padicbianchi import padic
from padicbianchi.field import int_val
from padicbianchi.padic import PrecisionError, _ilog, _pval


def elt(ctx, c0, c1=0, prec=None):
    return PadicElement(ctx, c0, c1,
                        ctx.cap if prec is None else min(prec, ctx.cap))


def ref(x):
    """The PadicElement of an element of padic (or of a PadicElement)."""
    return PadicElement(x.ctx, x.c0, x.c1, x.prec)


def from_rational(ctx, fr):
    num, den = (fr.numerator, fr.denominator) if hasattr(fr, "numerator") \
        else (int(fr), 1)
    vd = int_val(den, ctx.p)
    x = elt(ctx, num * pow(den // ctx.p ** vd, -1, ctx.mod))
    if vd:
        x = x / elt(ctx, ctx.p) ** vd
    return x


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
        if isinstance(other, padic.PadicStack) and not np.ndim(other.c0):
            return ref(other)
        if isinstance(other, int):
            return elt(self.ctx, other)
        if hasattr(other, "numerator"):
            return from_rational(self.ctx, other)
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
        c0, c1 = ctx.mul(self.c0, self.c1, o.c0, o.c1)
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
        return PadicElement(self.ctx, *self.ctx.conj(self.c0, self.c1),
                            self.prec)

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
        if self.is_zero():
            raise ZeroDivisionError("inverting (p-adically) zero")
        if self.val() != 0:
            # only integral elements are representable, so 1/non-unit is not
            raise PrecisionError("inverse of a non-unit leaves the ring")
        return PadicElement(self.ctx, *self.ctx.inv(self.c0, self.c1),
                            self.prec)

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

    def to_json(self):
        return {"p": self.ctx.p, "ext_kind": self.ctx.ext_kind,
                "coeffs": [str(self.c0), str(self.c1)],
                "valuation": self.val() if not self.is_zero() else None,
                "precision": self.prec}

    def __repr__(self):
        if self.c1 == 0:
            return "%d + O(pi^%d)" % (self.c0, self.prec)
        return "%d + %d*g + O(pi^%d)" % (self.c0, self.c1, self.prec)


def _div_pi(x, v):
    """x / pi (PadicContext.div_pi), one digit less precise. Raises
    PrecisionError (as a division by pi^v) when pi does not divide x."""
    c0, c1, fail = x.ctx.div_pi(x.c0, x.c1)
    if fail:
        raise PrecisionError("inexact division by pi^%d" % v)
    return PadicElement(x.ctx, c0, c1, x.prec - 1)


def teichmuller(x):
    """The unique (q-1)-st root of unity congruent to x mod pi. At full
    precision (prec == cap) the lift depends on the residue class alone;
    below it, its digits beyond prec depend on x. (The package reads the
    lift of a class from the context's table; this copy iterates every
    time, so that it does not share that table.)"""
    x = ref(x)
    if not x.is_unit():
        raise ValueError("Teichmuller character of a non-unit")
    return _teichmuller_iterate(x)


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
    cands = [t] + [t * ref(z) for z in ctx.extra_torsion]
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
        return elt(ctx, 0, 0, target_prec), 0
    # number of terms: k*r - e*v_p(k) >= target for all omitted k
    kmax = 1
    while True:
        kmax += 1
        bound = kmax * r - ctx.e * _ilog(kmax, ctx.p)
        if bound >= target_prec or kmax > 8 * ctx.cap + 16:
            break
    total = elt(ctx, 0)
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


def log_iw(x, with_delta=False):
    """Iwasawa branch of log: log(p) = 0, log multiplicative, torsion killed."""
    x = ref(x)
    if x.is_zero():
        raise ValueError("log of zero")
    ctx = x.ctx
    v = x.val()
    pi = ref(padic.ctx_uniformizer(ctx))
    u = x / pi ** v if v else x
    # log(pi): 0 unless ramified, where 2 log(pi) = log(pi^2/p) (log p = 0)
    if v and ctx.ext_kind == "ramified":
        eps = (pi * pi) / ctx.p
        lpi_twice, d0 = _log_unit(eps)
        lpi = lpi_twice / 2 if ctx.p != 2 else _halve(lpi_twice)
        base = v * lpi
    else:
        base = elt(ctx, 0, 0, ctx.cap)
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
    y = ref(y)
    ctx = y.ctx
    if not y.is_zero() and y.val() < ctx.r_pe:
        raise PrecisionError("exp outside its convergence domain")
    total = elt(ctx, 1)
    term = elt(ctx, 1)
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
    z = ref(z)
    if not z.is_unit():
        raise ValueError("gauge power of a non-unit")
    g = gauge(z)
    lg, _ = _log_series(g, g.prec)
    if isinstance(s, int):
        s = elt(z.ctx, s)
    return padic_exp(s * lg)
