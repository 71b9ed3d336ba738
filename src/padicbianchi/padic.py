"""Fixed-precision arithmetic in Q_p and quadratic completions F_p.

Elements are stored on the basis {1, g} where g is either the field generator
w (inert case), the uniformizer pi (ramified case), or absent (base case).
Coefficients live mod p^M; each element carries its own absolute precision in
pi-adic digits so that every operation can report worst-case loss.

The completion (PadicContext) owns the pair arithmetic (product,
conjugate, norm-inverse, the shift by pi) on ints or on numpy arrays of its
dtype; the moment layer (ocsymb.DistContext) runs on it too. PadicStack is
the one number class: an element is its 0-d case, with Python ints for
coefficients and precision, and a stack holds arrays of one shape. Each
precision rule is written once: mul gives min(a.prec + v(b), b.prec + v(a),
cap), add the min of the two precisions, and a division by a non-unit
shifts both operands by pi. Only four leaves ask whether an operand is an
array, so that an element op makes no NumPy round trip and stays in Python
ints: the minimum (_min), the coefficient valuation (_coeff_val), the
any-test of _record and the norm inverse (PadicContext.inv). Where an
element would raise, a stack records the error against its row in a
StackLog, and StackLog.check raises the first row's; with no StackLog, as
for an element, the error is raised at once.

The Teichmuller character, the Iwasawa logarithm (log_p(p) = 0) and exp
exist once, on stacks; the scalar log_iw is their one-element case
(_scalar) and adds the pi-power part of a non-unit.
"""

import operator

import numpy as np

from . import field as fld
from .field import PrecisionError


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
        # residue class mod pi -> (c0, c1) of its Teichmuller lift, filled
        # on demand (teichmuller_units)
        self._teich = {}
        # the inverses mod p of 0, 1, ..., p - 1 (0 for 0), made by the
        # first stacked inv
        self._inv_mod_p = None
        # whether ocsymb's moment products are exact in int64
        self.int64_safe = fld.int64_exact(p, M, self.S, self.T)
        self.dtype = np.int64 if self.int64_safe else object
        self.powers = np.array([p ** k for k in range(M + 1)],
                               dtype=self.dtype)

    # -- pair arithmetic: coefficient pairs mod p^M, ints or arrays ----------

    def embed_pair(self, a, b):
        """a + b*w of the field -> pair (c0, c1) in the {1, g} basis."""
        wa, wb = self._embed_coeffs
        return (a + b * wa) % self.mod, b * wb % self.mod

    def mul(self, x0, x1, y0, y1):
        mod = self.mod
        t = x1 * y1 % mod
        return ((x0 * y0 + self.T * t) % mod,
                (x0 * y1 + x1 * y0 + self.S * t) % mod)

    def conj(self, x0, x1):
        """The automorphism g -> S - g (the identity on the base)."""
        return (x0 + self.S * x1) % self.mod, (-x1) % self.mod

    def inv(self, x0, x1):
        """Inverses of unit pairs: conj(x) / N(x). Raises ValueError where
        x is not a unit. An array of norms N is inverted mod p from a table
        of the residues, and the inverse y lifted by Newton's step
        y -> y (2 - N y), which doubles its digits, to p^M; the products
        stay below p^2M, which the dtype holds (int64_exact)."""
        c0, c1 = self.conj(x0, x1)
        norm, _ = self.mul(x0, x1, c0, c1)
        mod = self.mod
        if isinstance(norm, np.ndarray):
            p = self.p
            residue = (norm % p).astype(np.int64)
            if not residue.all():
                raise ValueError("inverse of a non-unit")
            if self._inv_mod_p is None:
                self._inv_mod_p = np.array(
                    [0] + [pow(k, -1, p) for k in range(1, p)],
                    dtype=self.dtype)
            ninv = self._inv_mod_p[residue]
            digits = 1
            while digits < self.M:
                ninv = ninv * ((2 - norm * ninv) % mod) % mod
                digits *= 2
        else:
            ninv = pow(int(norm), -1, mod)
        return c0 * ninv % mod, c1 * ninv % mod

    def div_pi(self, c0, c1):
        """(c0 + c1*g) / pi as (c0, c1, fail), exact where pi divides and
        fail where it does not: x / p on the basis {1, w} of Q_p or an
        unramified F_p; on the basis {1, pi} of a ramified one, with
        pi^2 = S*pi + T and T = -N(pi) = -p,
        x / pi = (c1 + (c0/p) S) + (-c0/p) pi."""
        p = self.p
        if self.ext_kind == "ramified":
            q = c0 // p
            return (c1 + q * self.S) % self.mod, -q % self.mod, c0 % p != 0
        return c0 // p, c1 // p, (c0 % p != 0) | (c1 % p != 0)

    # -- element constructors ------------------------------------------------

    def elt(self, c0, c1=0, prec=None):
        return PadicStack(self, c0 % self.mod, c1 % self.mod,
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
        vd = fld.int_val(den, self.p)
        x = self.elt(num * pow(den // self.p ** vd, -1, self.mod))
        if vd:
            x = x / self.elt(self.p) ** vd
        return x

    def embed(self, z):
        """Embed a QuadInt (or int) of the matching field into this completion."""
        if isinstance(z, int):
            return self.elt(z)
        if self._embed_coeffs is None:
            raise ValueError("context has no field embedding")
        return self.elt(*self.embed_pair(z.a, z.b))

    def __repr__(self):
        return "PadicContext(p=%d, M=%d, %s)" % (self.p, self.M, self.ext_kind)


def Qp(p, M):
    return PadicContext(p, M)


def completion(prime_data, M):
    """The completion F_p of Q(sqrt(-d)) at the given prime, precision p^M.
    The prime must not split: F_p is then the one completion above p."""
    pd = prime_data
    p = pd.p
    minpoly = pd.minpoly()      # NotImplementedError at a split prime
    if pd.kind == "inert":
        return PadicContext(p, M, "inert", minpoly, e=1, f=2,
                            embed_coeffs=(0, 1))
    # ramified: g = pi, and w_F = (pi - u)/v where pi = u + v*w
    u, v = pd.pi.a, pd.pi.b
    vinv = pow(v, -1, p ** M) if v % p else None
    if vinv is None:
        raise ValueError("unexpected uniformizer shape")
    ctx = PadicContext(p, M, "ramified", minpoly, e=2, f=1,
                       embed_coeffs=((-u * vinv) % p ** M, vinv))
    ctx.extra_torsion = _ramified_torsion(ctx, pd.pi.d)
    return ctx


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
    return [-ctx.one()]


def _pval(n, p, M):
    """min(v_p(n), M) for 0 <= n < p^M (field.int_val)."""
    return fld.int_val(n, p) if n else M


def _ilog(k, p):
    t = 0
    while p ** (t + 1) <= k:
        t += 1
    return t


def ctx_uniformizer(ctx):
    if ctx.ext_kind == "ramified":
        return ctx.gen()
    return ctx.elt(ctx.p)


# ---------------------------------------------------------------------------
# the number class, and the leaves that tell an element from an array


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

    def row_errors(self):
        """The first error of each row, None where a row has none, as an
        object array (the form record_rows reads)."""
        out = np.full(len(self.first), None, dtype=object)
        for k in np.nonzero(self.first >= 0)[0].tolist():
            out[k] = self.errors[self.first[k]]
        return out

    def record_rows(self, errors):
        """Record errors[k] (an exception, or None) against row k."""
        errors = errors.tolist()
        for exc in {id(e): e for e in errors if e is not None}.values():
            self.record(np.array([e is exc for e in errors]), exc)


def _record(log, fail, exc):
    """Record exc against the rows where fail holds, or raise it at once
    when there is no log."""
    if not (fail.any() if isinstance(fail, np.ndarray) else fail):
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


def _min(a, b):
    """min(a, b) of ints; elementwise where either is an array."""
    if type(a) is int and type(b) is int:
        return a if a <= b else b
    return np.minimum(a, b)


def _coeff_val(c, ctx):
    """min(v_p(c), M) of a coefficient, an int or an array."""
    if isinstance(c, np.ndarray):
        return _pval_array(c, ctx.powers, ctx.M)
    return _pval(c, ctx.p, ctx.M)


class PadicStack:
    """Elements c0 + c1*g of one completion ctx, with their absolute
    pi-adic precisions: one element (the 0-d case) holds Python ints, and
    many hold arrays of any one shape (coefficients mod p^M of ctx.dtype
    and int precisions). Each operation is written once for both, on the
    pair arithmetic of ctx; ints, Fractions and elements broadcast as
    constants. An operation that would raise for some elements records
    the error in log (see StackLog), or raises it at once when log is
    None, as it always is for one element."""

    __slots__ = ("ctx", "c0", "c1", "prec", "log", "_v")

    def __init__(self, ctx, c0, c1, prec, log=None):
        self.ctx = ctx
        self.c0 = c0
        self.c1 = c1
        self.prec = prec
        self.log = log
        self._v = None

    @classmethod
    def of(cls, ctx, xs, log=None):
        """A list of elements or ints as a stack of shape (len(xs),)."""
        xs = [ctx.elt(x) if isinstance(x, int) else x for x in xs]
        return cls(ctx, np.array([x.c0 for x in xs], dtype=ctx.dtype),
                   np.array([x.c1 for x in xs], dtype=ctx.dtype),
                   np.array([x.prec for x in xs], dtype=np.int64), log)

    @classmethod
    def full(cls, ctx, value, shape, prec, log=None):
        """The int value at precision prec (an int or an array) in every
        place of shape."""
        c0 = np.full(shape, value % ctx.mod, dtype=ctx.dtype)
        return cls(ctx, c0, np.zeros(shape, dtype=ctx.dtype),
                   np.broadcast_to(prec, shape).copy(), log)

    @classmethod
    def embed(cls, ctx, a, b, log=None):
        """The elements a + b*w of the field (int arrays) at full precision."""
        c0, c1 = ctx.embed_pair(np.asarray(a, dtype=ctx.dtype),
                                np.asarray(b, dtype=ctx.dtype))
        return cls(ctx, c0, c1, np.full(np.shape(c0), ctx.cap), log)

    def _coerce(self, other):
        if isinstance(other, PadicStack):
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

    def _new(self, other, c0, c1, prec):
        log = self.log if self.log is not None else other.log
        return PadicStack(self.ctx, c0, c1, prec, log)

    @property
    def shape(self):
        return np.shape(self.c0)

    def __len__(self):
        return len(self.c0)

    def __getitem__(self, idx):
        out = PadicStack(self.ctx, self.c0[idx], self.c1[idx], self.prec[idx],
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
        """Element idx, the 0-d case."""
        return PadicStack(self.ctx, int(self.c0[idx]), int(self.c1[idx]),
                          int(self.prec[idx]))

    # -- ring ops ------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        mod = self.ctx.mod
        return self._new(o, (self.c0 + o.c0) % mod, (self.c1 + o.c1) % mod,
                         _min(self.prec, o.prec))

    __radd__ = __add__

    def __neg__(self):
        mod = self.ctx.mod
        out = PadicStack(self.ctx, -self.c0 % mod, -self.c1 % mod, self.prec,
                         self.log)
        out._v = self._v
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product, at precision min(a.prec + v(b), b.prec + v(a), cap)
        and at least 0, with its valuation min(v(a) + v(b), cap, prec) kept
        from the two valuations that the precision reads. Valuations add:
        O_F (x) Z_p is a DVR (completion refuses a split prime), so a
        product residue mod pi^cap has valuation min(v(a) + v(b), cap). The
        cap at prec commutes: where a factor's valuation is capped at its
        own precision, the sum is at or above the product's precision, and
        where the precision falls below 0 both read 0."""
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        ctx = self.ctx
        c0, c1 = ctx.mul(self.c0, self.c1, o.c0, o.c1)
        v, vo = self.val(), o.val()
        prec = _min(_min(self.prec + vo, o.prec + v), ctx.cap)
        val = _min(v + vo, prec)
        # max(prec, 0) and max(val, 0)
        out = self._new(o, c0, c1, prec - _min(prec, 0))
        out._v = val - _min(val, 0)
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        """Square and multiply from 1 at the precision of self (at full
        precision for n = 0); a negative n is the power -n of the
        inverse."""
        n = int(n)
        if n < 0:
            return self.inverse() ** -n
        r = PadicStack(self.ctx, self.c0 * 0 + 1, self.c1 * 0,
                       self.prec if n else self.prec * 0 + self.ctx.cap,
                       self.log)
        x = self
        while n:
            if n & 1:
                r = r * x
            n >>= 1
            if n:
                x = x * x
        return r

    def conj(self):
        """Nontrivial automorphism g -> S - g (identity on the base)."""
        c0, c1 = self.ctx.conj(self.c0, self.c1)
        out = PadicStack(self.ctx, c0, c1, self.prec, self.log)
        out._v = self._v
        return out

    def val(self):
        """pi-adic valuation, capped at the precision; computed once."""
        v = self._v
        if v is None:
            ctx = self.ctx
            v0, v1 = _coeff_val(self.c0, ctx), _coeff_val(self.c1, ctx)
            v = _min(2 * v0, 2 * v1 + 1) if ctx.ext_kind == "ramified" \
                else _min(v0, v1)
            v = self._v = _min(v, self.prec)
        return v

    def is_zero(self):
        return self.val() >= self.prec

    def is_unit(self):
        return self.val() == 0

    def inverse(self):
        """conj(x) / N(x) for a unit x. Zero records ZeroDivisionError,
        any other non-unit PrecisionError (only integral elements are
        representable); those elements invert 1 in their place."""
        v = self.val()
        zero = v >= self.prec
        _record(self.log, zero,
                ZeroDivisionError("inverting (p-adically) zero"))
        _record(self.log, (v != 0) & (v < self.prec),
                PrecisionError("inverse of a non-unit leaves the ring"))
        bad = zero | (v != 0)
        c0, c1 = self.ctx.inv(self.c0 + (1 - self.c0) * bad,
                              self.c1 * (1 - bad))
        return PadicStack(self.ctx, c0, c1, self.prec, self.log)

    def __truediv__(self, other, where=True):
        """self / other for a divisor of one valuation v (an element, an
        int or a Fraction), a unit times pi^v: both operands are divided v
        times by pi, each exact shift costing one digit, and the dividend
        is multiplied by the inverse of the unit. Where pi does not divide
        or no digit survives, PrecisionError is recorded where `where`
        holds (the elements the scalar code divides)."""
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        try:
            v = operator.index(o.val())
        except TypeError:
            raise TypeError("divisor with a valuation per row: a division "
                            "shifts by the one valuation of an element") \
                from None
        ctx, x = self.ctx, self
        if v:
            fail = False
            for _ in range(v):
                c0, c1, f = ctx.div_pi(x.c0, x.c1)
                x = PadicStack(ctx, c0, c1, x.prec - 1, x.log)
                fail = fail | f
                # exact: pi^v divides the divisor
                o = PadicStack(ctx, *ctx.div_pi(o.c0, o.c1)[:2], o.prec - 1)
            _record(x.log, (fail | (x.prec <= 0) | (o.prec <= 0)) & where,
                    PrecisionError("inexact division by pi^%d" % v))
            if o.prec <= 0:
                return x
        return x * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def div_int(self, k, where=True):
        """self / k for an int k, recording errors only where `where`
        holds."""
        return self.__truediv__(k, where)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).is_zero()

    # -- shape ---------------------------------------------------------------

    def sum(self, axis=None, where=True):
        """zero + the elements (where `where` holds) summed over axis; axis
        None sums all into one element."""
        ctx = self.ctx
        c0 = np.where(where, self.c0, 0).sum(axis=axis) % ctx.mod
        c1 = np.where(where, self.c1, 0).sum(axis=axis) % ctx.mod
        prec = np.min(np.broadcast_to(self.prec, np.broadcast(
            self.c0, where).shape), axis=axis, where=where,
            initial=ctx.cap)
        if axis is None:
            return PadicStack(ctx, int(c0), int(c1), int(prec))
        return PadicStack(ctx, c0, c1, prec, self.log)

    # -- one element ---------------------------------------------------------

    def to_json(self):
        return {"p": self.ctx.p, "ext_kind": self.ctx.ext_kind,
                "coeffs": [str(self.c0), str(self.c1)],
                "valuation": self.val() if not self.is_zero() else None,
                "precision": self.prec}

    def __repr__(self):
        if self.ctx.ext_kind == "base":
            return "%s + O(pi^%s)" % (self.c0, self.prec)
        return "%s + %s*g + O(pi^%s)" % (self.c0, self.c1, self.prec)


# one element is the 0-d PadicStack; perfbench/tracer.py wraps the number
# class's __mul__, __rmul__ and __truediv__ under this name
PadicElement = PadicStack


def select(mask, a, b):
    """Elementwise a where mask holds, else b."""
    return PadicStack(a.ctx, np.where(mask, a.c0, b.c0),
                      np.where(mask, a.c1, b.c1),
                      np.where(mask, a.prec, b.prec),
                      a.log if a.log is not None else b.log)


def stack(items, axis=-1):
    """Stacks (or elements) of one broadcast shape, joined on a new axis."""
    shape = np.broadcast_shapes(*(x.shape for x in items))
    parts = [np.stack([np.broadcast_to(getattr(x, name), shape)
                       for x in items], axis=axis)
             for name in ("c0", "c1", "prec")]
    log = next((x.log for x in items if x.log is not None), None)
    return PadicStack(items[0].ctx, parts[0], parts[1], parts[2], log)


# ---------------------------------------------------------------------------
# Teichmuller, Iwasawa logarithm and exp, on stacks


def teichmuller_units(x):
    """The unique (q-1)-st root of unity congruent mod pi to each element
    of a 1-d stack of units at full precision, from the context's table.
    The classes not yet in the table are lifted at once, by y -> y^q on one
    representative each: each step gains a digit, so within cap + 2 steps
    it settles. Below full precision it would settle early, on digits the
    element lacks: such elements record PrecisionError, non-units
    ValueError, and neither enters the table."""
    ctx = x.ctx
    nonunit = x.val() != 0
    _record(x.log, nonunit, ValueError("Teichmuller character of a non-unit"))
    low = ~nonunit & (x.prec < ctx.cap)
    _record(x.log, low, PrecisionError("Teichmuller lift of a unit below "
                                       "full precision"))
    ok = ~(nonunit | low)
    # the class mod pi: c0 mod p, and c1 mod p where g = w is a unit
    keys = x.c0 % ctx.p
    if ctx.ext_kind == "inert":
        keys = keys + ctx.p * (x.c1 % ctx.p)
    keys = keys.tolist()
    table = ctx._teich
    first = {}
    for i in np.nonzero(ok)[0].tolist():
        if keys[i] not in table:
            first.setdefault(keys[i], i)
    if first:
        y = x[np.array(list(first.values()))]
        for _ in range(ctx.cap + 2):
            z = y ** ctx.q
            settled = (z - y).is_zero().all()
            y = z
            if settled:
                break
        for key, c0, c1 in zip(first, y.c0.tolist(), y.c1.tolist()):
            table[key] = (c0, c1)
    t0, t1 = zip(*(table[key] if good else (1, 0)
                   for key, good in zip(keys, ok.tolist())))
    return PadicStack(ctx, np.array(t0, dtype=ctx.dtype),
                      np.array(t1, dtype=ctx.dtype),
                      np.full(len(keys), ctx.cap), x.log)


def _log_series_stack(one_plus, where):
    """log(x) by the usual series for each x = 1 mod pi^{r_pe} of one_plus
    where `where` holds, to each element's own number of terms."""
    ctx = one_plus.ctx
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
    total = PadicStack.full(ctx, 0, y.shape, ctx.cap, y.log)
    yk = y
    for k in range(1, int(kmax.max(initial=0)) + 1):
        act = k <= kmax
        contrib = yk.div_int(k, where=act)
        total = select(act, total - contrib if k % 2 == 0
                       else total + contrib, total)
        yk = yk * y
    zero = PadicStack.full(ctx, 0, y.shape, np.minimum(target, ctx.cap),
                           y.log)
    return select(yz, zero, total)


def _halve(x, where=True):
    """x / 2; at p = 2 the exact halving of both coefficients (x / p),
    which costs e digits."""
    ctx = x.ctx
    if ctx.p != 2:
        return x.div_int(2, where)
    odd = (x.c0 % 2 != 0) | (x.c1 % 2 != 0)
    _record(x.log, odd & where,
            PrecisionError("halving an odd 2-adic element"))
    return PadicStack(ctx, x.c0 // 2, x.c1 // 2, x.prec - ctx.e, x.log)


def _log_power(x, where):
    """log of each unit of x where `where` holds, by a power:
    log(u) = log(u^n) / n, with n = (q - 1) p^t for the least t such that
    u^n = 1 mod pi^{r_pe}. The series of u^n is divided by q - 1, then t
    times by p."""
    ctx = x.ctx
    w = x ** (ctx.q - 1)
    t = np.zeros(x.shape, dtype=np.int64)
    need = where & ((w - 1).val() < ctx.r_pe)
    while need.any():
        w = select(need, w ** ctx.p, w)
        t += need
        over = need & (t > ctx.cap)
        _record(x.log, over,
                PrecisionError("no power of the unit is 1 mod pi^r"))
        need &= ~over & ((w - 1).val() < ctx.r_pe)
    on = where & (t <= ctx.cap)
    out = _log_series_stack(w, on).div_int(ctx.q - 1, on)
    for j in range(int(t[on].max(initial=0))):
        step = on & (t > j)
        out = select(step, _halve(out, step) if ctx.p == 2
                     else out.div_int(ctx.p, step), out)
    return out


def log_iw_units(x):
    """log_iw of each element of a 1-d stack of units: the torsion part
    (the Teichmuller lift of the class, times extra p-power torsion) is
    split off and the log series runs on the rest. A unit with no such
    splitting (as in Q_2(sqrt(-2))), or whose series raises, takes the
    power fallback. Below full precision the lift of the class is split
    off all the same."""
    ctx = x.ctx
    _record(x.log, x.is_zero(), ValueError("log of zero"))
    t = teichmuller_units(PadicStack(ctx, x.c0, x.c1,
                                     np.full(x.shape, ctx.cap), x.log))
    found = np.zeros(x.shape, dtype=bool)
    g = x
    for zeta in [t] + [t * z for z in ctx.extra_torsion]:
        gz = x * zeta.inverse()
        ok = ~found & ((gz - 1).val() >= ctx.r_pe)
        g = select(ok, gz, g)
        found |= ok
    series = StackLog(len(x))
    out = _log_series_stack(PadicStack(ctx, g.c0, g.c1, g.prec, series),
                            found)
    out.log = x.log
    fallback = ~found | (series.first >= 0)
    if fallback.any():
        out = select(fallback, _log_power(x, fallback), out)
    # log_iw adds the zero log of pi^0 at full precision
    return out + 0


def padic_exp_stack(y):
    """exp on pi^{r_pe} O of each element; the series stops per element.
    Outside that domain an element records PrecisionError."""
    ctx = y.ctx
    outside = ~y.is_zero() & (y.val() < ctx.r_pe)
    _record(y.log, outside,
            PrecisionError("exp outside its convergence domain"))
    total = PadicStack.full(ctx, 1, y.shape, ctx.cap, y.log)
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


def _scalar(stacked, x):
    """The stacked operation on the element x alone; raises its error."""
    out = stacked(PadicStack.of(x.ctx, [x], StackLog(1)))
    out.log.check()
    return out.element(0)


def log_iw(x):
    """Iwasawa branch of log: log(p) = 0, log multiplicative, torsion
    killed. For x = pi^v u with u a unit this is v log(pi) + log_iw(u),
    where log(pi) is 0 unless p ramifies, and there
    2 log(pi) = log(pi^2 / p)."""
    if x.is_zero():
        raise ValueError("log of zero")
    ctx = x.ctx
    v = x.val()
    pi = ctx_uniformizer(ctx)
    u = x / pi ** v if v else x
    if not (v and ctx.ext_kind == "ramified"):
        return _scalar(log_iw_units, u)
    eps = (pi * pi) / ctx.p
    logs = log_iw_units(PadicStack.of(ctx, [eps, u], StackLog(2)))
    half = _halve(logs, np.array([True, False]))
    logs.log.check()
    return v * half.element(0) + logs.element(1)
