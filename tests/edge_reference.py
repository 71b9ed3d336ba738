"""Reference copy of the scalar edge integral that cocycle.edge_integrals
replaced: the binomial grid of a polynomial in (t, tbar) on one ball U(e),
expanded on PadicElements and paired with the moments of that edge alone.
Two edits: the moments of the edge come from psi.ev on the normalised
cusps g^-1 r and g^-1 s, the Cusp route (apply_moebius of adj(g)) that
TreeFamily.ev_dist (since deleted) evaluated, and g is the edge rep the
ball is built from (the 8-tuple of TreeFamily.edge_rep, turned back into
QuadInts here). TreeFamily.paths replaced that route with unnormalised
int paths; this file keeps the Cusp route. The tests compare
edge_integrals against it row by row."""

from math import comb

from padicbianchi.cocycle import SupportError
from padicbianchi.field import QuadInt, apply_moebius, pair_mat
from padicbianchi.ocsymb import honest_moment


def mat_adj(mat):
    """The adjugate, a scalar multiple of the inverse."""
    (a, b), (c, d) = mat
    return ((d, -b), (-c, a))


def cusp_path(g, r, s):
    """The path {g^-1 r -> g^-1 s} as normalised cusps, for the 8-tuple g
    (an edge_rep)."""
    adj = mat_adj(pair_mat(g, r.d))
    return apply_moebius(adj, r), apply_moebius(adj, s)


def edge_distribution(fam, e, r, s, zeta):
    """Integral of the polynomial zeta = {(i, j): coeff} in (t, tbar) over
    the ball U(e) against mu{r-s}.

    Only flip-0 balls (bounded) support nonconstant polynomials; on an
    unbounded ball a nonconstant polynomial has a pole at infinity."""
    if fam.psi is None:
        raise ValueError("family carries no overconvergent lift")
    pctx = fam.pctx
    M = fam.psi.ctx.M
    if e.flip and any(k != (0, 0) for k, c in zeta.items() if c):
        raise SupportError("nonconstant polynomial on an unbounded ball")
    g = fam.edge_rep(e)
    (A, B), (C, D) = pair_mat(g, fam.pd.pi.d)
    if e.flip == 0:
        # t = (-B + A w)/D on U(e), w running over the integers
        b0 = pctx.embed(QuadInt(0, 0, B.d) - B) / pctx.embed(D)
        g0 = pctx.embed(A) / pctx.embed(D)
    else:
        b0 = g0 = None
    grid = {}
    for (i, j), c in zeta.items():
        if not c:
            continue
        if e.flip:
            grid[(0, 0)] = grid.get((0, 0), pctx.zero()) + c * pctx.one()
            continue
        for a_ in range(min(i, M - 1) + 1):
            for b_ in range(min(j, M - 1) + 1):
                coef = c * comb(i, a_) * comb(j, b_)
                val = (b0 ** (i - a_)) * (g0 ** a_) \
                    * (b0.conj() ** (j - b_)) * (g0.conj() ** b_)
                key = (a_, b_)
                grid[key] = grid.get(key, pctx.zero()) + coef * val
    m = fam.psi.ev(*cusp_path(g, r, s))
    total = pctx.zero()
    for (i, j), c in grid.items():
        if c.is_zero():
            continue
        total = total + c * honest_moment(fam.psi.ctx, m, i, j)
    return fam.omega ** e.parity() * total
