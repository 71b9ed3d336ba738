"""Reference copy of the per-disc scalar series code that lfun's stacked disc
kernel replaced: the z-series of log_iw(B + G z), the series of
<B + G z>^s, series products and the pairing against one disc's moments,
all on PadicElements, one disc at a time, with the scalar log_iw and exp of
padic_reference. The tests compare the kernel against it row by row."""

import padic_reference as ref
from padicbianchi import padic
from padicbianchi.ocsymb import honest_moment


def ser_mul(F, G, M):
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


def ser_exp(P, M):
    """exp of a series with P[0] = 0 and positive-valuation coefficients."""
    pctx = P[0].ctx
    out = [pctx.one()] + [pctx.zero() for _ in range(M - 1)]
    for n in range(1, M):
        acc = pctx.zero()
        for k in range(1, n + 1):
            acc = acc + k * P[k] * out[n - k]
        out[n] = acc / n
    return out


def log_series_on_disc(pctx, B, G, M):
    """log_iw(B + G z) as a z-series: log_iw(B) + log(1 + (G/B) z)."""
    Bp = pctx.embed(B)
    t = pctx.embed(G) / Bp
    out = [ref.log_iw(Bp)]
    tk = t
    for k in range(1, M):
        term = tk / k
        out.append(-term if k % 2 == 0 else term)
        tk = tk * t
    return out


def power_series(L, s, M):
    """exp(s * L) for a log series L: <B + G z>^s from log_iw(B + G z)."""
    pctx = L[0].ctx
    if not isinstance(s, padic.PadicElement):
        s = pctx.elt(int(s))
    head = ref.padic_exp(s * L[0])
    P = [pctx.zero()] + [s * c for c in L[1:]]
    return [head * c for c in ser_exp(P, M)]


def pair(ctx, m, F, Fb=None):
    """Sum_{i,j} F[i] Fb[j] mu(z^i zbar^j) for the moment table m of one
    disc (of the moment layer ctx), with honest per-moment precision;
    Fb = None is the constant 1 in zbar."""
    pctx = ctx.pctx
    M = ctx.M
    if Fb is None:
        Fb = [pctx.one()]
    total = pctx.zero()
    for i in range(min(M, len(F))):
        if F[i].is_zero():
            continue
        for j in range(min(M, len(Fb))):
            if Fb[j].is_zero():
                continue
            total = total + F[i] * Fb[j] * honest_moment(ctx, m, i, j)
    return total


def disc_one(ctx, m, B, G):
    return pair(ctx, m, [ctx.pctx.one()])


def disc_log_z(ctx, m, B, G):
    return pair(ctx, m, log_series_on_disc(ctx.pctx, B, G, ctx.M))


def disc_log_zbar(ctx, m, B, G):
    L = log_series_on_disc(ctx.pctx, B, G, ctx.M)
    return pair(ctx, m, [ctx.pctx.one()], [c.conj() for c in L])


def disc_norm_power(ctx, m, B, G, s, terms=None):
    """The integral of <z zbar>^s over one disc."""
    M = ctx.M
    L = log_series_on_disc(ctx.pctx, B, G, M)
    F = power_series(L, s, M)
    Fb = power_series([c.conj() for c in L], s, M)
    if terms is not None:
        F, Fb = F[:terms], Fb[:terms]
    return pair(ctx, m, F, Fb)


def rational_on_disc(ctx, m, B, G, s, insert_log=False):
    """The integral of <z>^s (times log_iw(z) with insert_log) over one
    disc of a one-variable measure (basechange.Lp_rational)."""
    M = ctx.M
    L = log_series_on_disc(ctx.pctx, B, G, M)
    F = power_series(L, s, M)
    if insert_log:
        F = ser_mul(F, L, M)
    return pair(ctx, m, F)
