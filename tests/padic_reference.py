"""Reference copy of the scalar p-adic series that padic computes on stacks
(teichmuller_units, log_iw_units, padic_exp_stack): the Teichmuller
iteration, the torsion split, the log series with its power fallback, exp
and the gauge powers, all on PadicElements, one element at a time. The
tests compare the stacked code against it element by element."""

from padicbianchi.padic import (PadicElement, PrecisionError, _ilog, _pval,
                                ctx_uniformizer)


def teichmuller(x):
    """The unique (q-1)-st root of unity congruent to x mod pi. At full
    precision (prec == cap) the lift depends on the residue class alone;
    below it, its digits beyond prec depend on x. (The package reads the
    lift of a class from the context's table; this copy iterates every
    time, so that it does not share that table.)"""
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
        return ctx.elt(0, 0, target_prec), 0
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
        base = ctx.elt(0, 0, ctx.cap)
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
