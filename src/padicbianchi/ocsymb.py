"""Overconvergent modular symbols: finite approximation modules for the
distribution spaces in one and two variables, the weight action of
Sigma_0(p), the specialization map, and the lifting iteration. This is the
one moment layer of the package: the Bianchi lift and the one-variable lift
of a classical form over Q both run on it.

A distribution mu on O_F (x) Z_p is truncated to the moment table
m[i][j] = mu(z^i zbar^j), 0 <= i < M, 0 <= j < C, with moment (i, j)
meaningful mod p^(M - max(i,j)). Moments are elements c0 + c1*g of the
completion, stored as a pair of numpy arrays mod p^M (int64 within the
bound below), where g has minimal polynomial g^2 = S*g + T. The completion
is padic.completion, kept as DistContext.pctx: its basis {1, g}, S, T,
embedding of QuadInts and pair arithmetic (mul, conj, inv) are the ones
the moments use, so a moment pair (c0, c1) is the element
pctx.elt(c0, c1); honest_moment reads it at its honest precision. A
distribution is its (2, M, C) table and nothing else, and a symbol's values
are one (n_gen, 2, M, C) array. A Bianchi distribution has the square
table, C = M. A one-variable distribution has C = 1: the zbar-trivial
column mu(z^i zbar^0). A table has filtration >= f exactly
when every moment (i, j) is divisible by p^max(f - max(i, j), 0)
(filtration).

The semigroup Sigma_0(p) (a a unit, c = 0 mod pi) acts on test functions by
gamma . f(z) = f((b + d z)/(a + c z)); on the moment table this is
m -> A m conj(A)^T where A[i] holds the power series coefficients of
((b + d z)/(a + c z))^i, with the right factor cut to the table's C
columns. Row 0 of A is e_0, so the zbar-trivial column is closed under the
action and this cut is exact; for a rational matrix A is the one-variable
action matrix. U_p contracts the filtration, which is what makes the
lifting iteration converge.

One kernel computes the action matrices, action_matrices, for a batch of
matrices at once. Every moment transform runs on one merged plan of Manin
terms, UOperator: the terms with the same (dest, src, g) are merged and
the ones that cancel dropped, the action matrices A are kept once per
distinct g, and UOperator.apply computes each distinct (src, g) product
once, in slices sized by the tables they multiply, and adds it, times its
merged sign, to its rows by runs of equal dest. The plan stores A alone:
the right factor conj(A)^T is applied as conj(conj(Z) A^T). This serves
the U_p plan, the value of a symbol on a list of int paths (ev_paths, one
plan per block of CHUNK paths; a path is a pair of the int cusps of
msymb.ManinLayer, and ev takes a caller's cusps through the layer's
cusp_pairs), its column 0 and row 0 on such paths (ev_lines, one plan per
block applied to the two lines of the generators' tables: apply cuts A to
the table's rows as it cuts conj(A)^T to its columns, and both cuts are
exact for a line because row 0 of A is e_0) and the single action
sigma0_act, a one-term plan. The total measure, moment (0, 0), needs no
plan at all (ev_totals). At an inert prime the lift (iterate_lift) applies
U_p to tables that grow from 2 x 2 to M x M, and ends on the lift of the
full-size iteration. All moment products are exact: the arithmetic is
int64 where the completion's int64_safe proves that no intermediate
overflows, and Python integers (dtype object) otherwise.
"""

from fractions import Fraction

import numpy as np

from .field import mat_det, mat_pairs
from .manin import int_rows
from . import padic

# Matrices per batched action_matrices call, paths per merged plan of
# ev_paths and ev_lines and per decomposition of ev_totals, and (src, g)
# products on a line of the tables per slice of UOperator.apply, whose
# slices hold at most as many table entries as that (_budget): bounds
# their temporaries. One plan for all the paths of a warm `accept` on the
# reference configuration (p = 11, M = 8) shares a few more g, but raised
# its peak RSS by 14 %; blocks of 128 paths keep most of the sharing.
CHUNK = 128


class DistContext:
    """The moment layer at one (prime, M): the completion F_p at precision
    p^M (pctx, from padic.completion), whose pair arithmetic (mul, conj,
    inv, embed_pair, mod, dtype, powers) the moment tables run on, and the
    moment facts: lag[i, j] = max(i, j), the digits moment (i, j) lacks
    (filtration, honest_moment)."""

    def __init__(self, prime_data, M):
        self.pd = prime_data
        self.p = prime_data.p
        self.M = M
        self.pctx = padic.completion(prime_data, M)
        # lag[i, j] = max(i, j): moment (i, j) is meaningful mod p^(M - lag)
        self.lag = np.maximum.outer(np.arange(M), np.arange(M))


def filtration(ctx, m):
    """The filtration of moment tables m (..., 2, M, C) mod p^M: the largest
    f <= M such that every moment (i, j) is divisible by
    p^max(f - max(i, j), 0). The zero table has filtration M."""
    lag = ctx.lag[:, :m.shape[-1]]
    f = 0
    while f < ctx.M and not np.any(
            m % ctx.pctx.powers[np.maximum(f + 1 - lag, 0)]):
        f += 1
    return f


def honest_moment(ctx, m, i, j):
    """Moment (i, j) of the table m as an element of the completion
    ctx.pctx, at its honest precision p^(M - max(i, j))."""
    pctx = ctx.pctx
    return pctx.elt(int(m[0, i, j]), int(m[1, i, j]),
                    pctx.e * (ctx.M - max(i, j)))


def action_matrices(ctx, gs):
    """The moment transform pairs (A0, A1), each (N, M, M), of the N
    matrices gs = [[a, b], [c, d]] in Sigma_0(p), given as the rows of an
    (N, 8) int array of the 8-tuples of field.mat_pairs: row i of A[k]
    holds the power series coefficients of ((b + dz)/(a + cz))^i for
    gs[k], as pairs mod p^M of the completion's dtype. The entries are
    reduced mod p^M before one embed_pair call on all of them, which is
    then exact in that dtype.
    Membership in Sigma_0(p) is the caller's to check (action_matrix,
    sigma0_act); a non-unit a raises ValueError."""
    pctx = ctx.pctx
    M, mod, dt = ctx.M, pctx.mod, pctx.dtype
    G = ((gs.astype(object) if dt is object else gs) % mod).astype(dt)
    E0, E1 = pctx.embed_pair(G[:, 0::2], G[:, 1::2])
    (a0, b0, c0, d0), (a1, b1, c1, d1) = E0.T, E1.T
    n = len(G)
    # h[m] = a^{-1} (-c/a)^m, the series of 1/(a + cz)
    h0 = np.zeros((n, M), dtype=dt)
    h1 = np.zeros((n, M), dtype=dt)
    h0[:, 0], h1[:, 0] = pctx.inv(a0, a1)
    t0, t1 = pctx.mul(-c0 % mod, -c1 % mod, h0[:, 0], h1[:, 0])
    for m in range(1, M):
        h0[:, m], h1[:, m] = pctx.mul(h0[:, m - 1], h1[:, m - 1], t0, t1)
    # f = (b + dz)/(a + cz)
    f0, f1 = pctx.mul(b0[:, None], b1[:, None], h0, h1)
    g0, g1 = pctx.mul(d0[:, None], d1[:, None], h0[:, :-1], h1[:, :-1])
    f0[:, 1:] = (f0[:, 1:] + g0) % mod
    f1[:, 1:] = (f1[:, 1:] + g1) % mod
    # multiplying a truncated series by f is the Toeplitz matrix
    # F[s, t] = f[t - s] (zero below the diagonal)
    lag = np.arange(M)[None, :] - np.arange(M)[:, None]
    F0 = np.where(lag >= 0, f0[:, lag.clip(0)], 0)
    F1 = np.where(lag >= 0, f1[:, lag.clip(0)], 0)
    A0 = np.zeros((n, M, M), dtype=dt)
    A1 = np.zeros((n, M, M), dtype=dt)
    A0[:, 0, 0] = 1
    for i in range(1, M):
        A0[:, i:i + 1], A1[:, i:i + 1] = _mat_pair_mul(
            pctx, A0[:, i - 1:i], A1[:, i - 1:i], F0, F1)
    return A0, A1


def _check_sigma0(ctx, g):
    (a, b), (c, d) = g
    if not mat_det(g):
        raise ValueError("singular matrix")
    # p is not split, so pi is the only prime above p: pi | x iff p | N(x)
    if a.norm() % ctx.p == 0 or c.norm() % ctx.p:
        raise ValueError("matrix not in Sigma_0(p)")


def action_matrix(ctx, g):
    """The moment transform pair (A0, A1) for gamma in Sigma_0(p)."""
    _check_sigma0(ctx, g)
    A0, A1 = action_matrices(ctx, int_rows([mat_pairs(g)], 8))
    return A0[0], A1[0]


def _mat_pair_mul(pctx, X0, X1, Y0, Y1):
    """Products of matrices of pairs of the completion pctx."""
    mod = pctx.mod
    X1Y1 = X1 @ Y1 % mod
    Z0 = (X0 @ Y0 + pctx.T * X1Y1) % mod
    Z1 = (X0 @ Y1 + X1 @ Y0 + pctx.S * X1Y1) % mod
    return Z0, Z1


def sigma0_act(ctx, g, m):
    """m | gamma for a moment table m: pull back test functions through the
    twisted action. The right (zbar) factor is cut to the columns of m."""
    _check_sigma0(ctx, g)
    return UOperator(ctx, [(0, 0, 1, mat_pairs(g))]).apply(m[None])[0]


class OverconvergentSymbol:
    """Distribution-valued symbol on the M-symbol generators: values is the
    (n_gen, 2, M, C) array mod p^M of their moment tables."""

    def __init__(self, p1, ctx, level, values, eigen=None):
        self.p1 = p1
        self.ctx = ctx
        self.level = level
        self.values = values
        self.eigen = eigen or {}

    def ev(self, r, s):
        """Psi{r -> s} as a (2, M, C) table, for cusps r, s of the symbol's
        P^1 layer (Gamma-invariance plus the Manin decomposition of the
        path by that layer)."""
        cusp_pairs = self.p1.cusp_pairs
        return self.ev_paths([(cusp_pairs(r), cusp_pairs(s))])[0]

    def ev_paths(self, paths):
        """Psi on each int path (r, s) of paths (rows of 8 ints,
        msymb.ManinLayer), as one (len(paths), 2, M, C) array mod p^M. The
        paths run in blocks of CHUNK, one merged UOperator per block: a
        piece h = gamma g_idx of path k in the block is the plan term
        (k, idx, sign, gamma^-1) of ManinLayer.path_terms."""
        p1, ctx, values = self.p1, self.ctx, self.values
        out = np.zeros((len(paths),) + values.shape[1:], dtype=ctx.pctx.dtype)
        for lo in range(0, len(paths), CHUNK):
            block = out[lo:lo + CHUNK]
            block[:] = UOperator(ctx, p1.path_terms(
                paths[lo:lo + CHUNK])).apply(values, n_out=len(block))
        return out

    def ev_lines(self, paths):
        """Column 0 and row 0 of ev_paths on each int path of paths: the
        (len(paths), 2, M, 1) tables Psi{r -> s}(z^i) and the
        (len(paths), 2, 1, C) tables Psi{r -> s}(zbar^j), mod p^M. Row 0 of
        every action matrix A is e_0, so column 0 of A m conj(A)^T is
        A m[:, 0] and row 0 is m[0, :] conj(A)^T: one plan per block of
        CHUNK paths, as in ev_paths, applied to the two lines of the
        generators' tables (UOperator.apply cuts A to their rows and
        conj(A)^T to their columns). Each plan is dropped before the next
        is built."""
        p1, ctx, values = self.p1, self.ctx, self.values
        n, dt = len(paths), ctx.pctx.dtype
        col = np.zeros((n, 2, values.shape[-2], 1), dtype=dt)
        row = np.zeros((n, 2, 1, values.shape[-1]), dtype=dt)
        for lo in range(0, n, CHUNK):
            hi = min(lo + CHUNK, n)
            plan = UOperator(ctx, p1.path_terms(paths[lo:hi]))
            col[lo:hi] = plan.apply(values[..., :1], n_out=hi - lo)
            row[lo:hi] = plan.apply(values[:, :, :1], n_out=hi - lo)
            del plan
        return col, row

    def ev_totals(self, paths):
        """The total measure Psi{r -> s}(1), moment (0, 0) of ev_paths, on
        each int path of paths, as one (len(paths), 2) array mod p^M. Row 0
        of every action matrix A is e_0, and so is column 0 of the right
        factor conj(A)^T, so (A m conj(A)^T)[0, 0] = m[0, 0]: the pieces of
        the paths (ManinLayer.path_terms, in blocks of CHUNK paths) add the
        (0, 0) moments of their generators with their signs, and no action
        matrix is formed."""
        out = np.zeros((len(paths), 2), dtype=self.ctx.pctx.dtype)
        for lo in range(0, len(paths), CHUNK):
            terms = self.p1.path_terms(paths[lo:lo + CHUNK])
            np.add.at(out, lo + terms.dest,
                      terms.sign[:, None] * self.values[terms.src, :, 0, 0])
        return out % self.ctx.pctx.mod

    def filtration(self):
        return filtration(self.ctx, self.values)


def specialize(psi):
    """Moments at (i, j) <= k, here the (0,0) moments of the weight-2 case:
    an (n_gen, 2) array of pairs mod p^M."""
    return psi.values[:, :, 0, 0]


def specialize_matches(psi, phi):
    """Does specialize(psi) equal the classical symbol phi mod p^M?"""
    mod = psi.ctx.pctx.mod
    return all(c1 % mod == 0 and (c0 - val) % mod == 0
               for (c0, c1), val in zip(specialize(psi).tolist(), phi.values))


class UOperator:
    """A merged plan of Manin terms: the table-level U_p operator, or the
    value of a symbol on a block of paths.

    terms are (dest, src, sign, g), g an 8-tuple of field.mat_pairs: the
    piece contributes sign * (values[src] | g) to the image at dest. They
    come as the arrays of manin.ManinTerms (dest, src, sign and the
    (n, 8) g) from the shared Manin layer: ManinLayer.hecke_terms, over
    O_F for a Bianchi symbol (msymb.P1) and over Z for a rational one
    (basechange.RationalP1), or ManinLayer.path_terms of a block of paths
    (OverconvergentSymbol.ev_paths, dest the path). Any other iterable of
    term tuples is read into the same arrays.

    The signs of the terms with the same (dest, src, g) are summed, and
    the terms whose sum is zero are dropped. What is left is stored once
    per distinct g (_distinct_rows) and once per distinct
    (src, g) product:
    A0, A1          (n_g, M, M) the action matrices of the distinct g (the
                    right factor conj(A)^T is not stored: B0 and B1 derive
                    it when read);
    src, gi         (n_prod,) the generator and the g index of each product;
    block           the products per block: apply slices whole blocks;
    dest, sgn, prod (n_terms,) the image row, the merged sign and the
                    product of each term, by block and then by dest;
    run_start       (n_runs + 1,) the first term of each run of equal
                    (block, dest), then n_terms;
    block_runs      (n_blocks + 1,) the first run of each block, then
                    n_runs."""

    def __init__(self, ctx, terms):
        self.ctx = ctx
        if hasattr(terms, "g"):
            dest, src, sign, g = terms.dest, terms.src, terms.sign, terms.g
        else:
            terms = list(terms)
            dest, src, sign = (np.array([t[k] for t in terms], dtype=np.int64)
                               for k in range(3))
            g = int_rows([t[3] for t in terms], 8)
        gs, g = _distinct_rows(g)
        n_g, n_dest = max(len(gs), 1), int(dest.max(initial=0)) + 1
        keys, inv = np.unique((src * n_g + g) * n_dest + dest,
                              return_inverse=True)
        total = np.zeros(len(keys), dtype=np.int64)
        np.add.at(total, inv, sign)
        keep = total != 0
        pair, dest = np.divmod(keys[keep], n_dest)
        pairs, prod = np.unique(pair, return_inverse=True)
        self.src, g = np.divmod(pairs, n_g)
        used, self.gi = np.unique(g, return_inverse=True)
        M = ctx.M
        # the products in blocks of self.block, as many as one slice of
        # apply takes on full tables; the terms of a block sorted by dest,
        # in runs of equal dest
        self.block = max(1, _budget(M) // (3 * M * M))
        block = prod // self.block
        order = np.lexsort((dest, block))
        self.dest, self.sgn, self.prod = dest[order], total[keep][order], \
            prod[order]
        block = block[order]
        new_run = np.ones(len(order), dtype=bool)
        new_run[1:] = (np.diff(block) != 0) | (np.diff(self.dest) != 0)
        self.run_start = np.append(np.flatnonzero(new_run), len(order))
        # the first run of each block, then the number of runs
        self.block_runs = np.searchsorted(
            block[self.run_start[:-1]],
            np.arange(-(-len(self.src) // self.block) + 1))
        self.A0, self.A1 = (np.empty((len(used), M, M), dtype=ctx.pctx.dtype)
                            for _ in range(2))
        for lo in range(0, len(used), CHUNK):
            part = slice(lo, lo + CHUNK)
            self.A0[part], self.A1[part] = action_matrices(ctx,
                                                           gs[used[part]])

    @property
    def B0(self):
        """conj(A0 + A1 g)^T, first coordinate: derived, not stored."""
        return self.ctx.pctx.conj(self.A0, self.A1)[0].transpose(0, 2, 1)

    @property
    def B1(self):
        """conj(A0 + A1 g)^T, second coordinate: derived, not stored."""
        return self.ctx.pctx.conj(self.A0, self.A1)[1].transpose(0, 2, 1)

    def apply(self, values, n_out=None):
        """values: ndarray (n_gen, 2, R, C) -> the image, (n_out, 2, R, C)
        with n_out the number of generators by default: row i sums the
        terms with dest i.

        The left factor A is cut to its top-left R x R block and the right
        factor conj(A)^T to its top-left C x C block. So the image is the
        top-left R x C block of A m' conj(A)^T for the table m' that is m
        padded with zeros to M x M: entry (i, j) of that product, i < R and
        j < C, sums A[i, k] m'[k, l] conj(A[j, l]) over the k < R and l < C
        where m' is m, and reads A only at such (i, k) and (j, l). For R or
        C in {1, M} the cut is U itself on the table: row 0 of A is e_0,
        so the zbar-trivial column (C = 1) and row 0 (R = 1) of a table are
        closed under the action, and R = C = M cuts nothing. For other R,
        C it is U on the zero-padded table, which iterate_lift relies on.

        The plan holds A alone: with Z = A m, the image is
        Z conj(A)^T = conj(conj(Z) A^T), as conj is a ring automorphism of
        the completion, and conj is additive, so the terms add up
        conj(Z) A^T and their sum is conjugated once. Each (src, g) product
        is computed once, in slices of whole blocks of the plan, and a
        slice holds at most _budget(M) entries of the tables it multiplies
        (R^2 + RC + C^2 per product): fewer products for full tables than
        for lines, however long the plan. The terms of a block are sorted
        by dest, so that np.add.reduceat sums each run of equal dest, times
        its merged signs, and one add puts the sums into their distinct
        rows. The products are reduced mod p^M, so a row's sum is below
        p^M times the plan's total |sign|, which int64 holds
        (int64_exact bounds p^M by 2^31)."""
        pctx = self.ctx.pctx
        mod = pctx.mod
        r, n = values.shape[-2:]
        rows = len(values) if n_out is None else n_out
        out = np.zeros((rows,) + values.shape[1:],
                       dtype=np.result_type(self.A0, values))
        step = max(1, _budget(self.ctx.M) // (r * r + r * n + n * n)
                   // self.block)
        n_blocks = len(self.block_runs) - 1
        for b_lo in range(0, n_blocks, step):
            b_hi = min(b_lo + step, n_blocks)
            lo = b_lo * self.block
            part = slice(lo, b_hi * self.block)
            src, gi = self.src[part], self.gi[part]
            X0, X1 = self.A0[gi, :r, :r], self.A1[gi, :r, :r]
            Z0, Z1 = pctx.conj(*_mat_pair_mul(pctx, X0, X1, values[src, 0],
                                              values[src, 1]))
            if n != r:
                X0, X1 = self.A0[gi, :n, :n], self.A1[gi, :n, :n]
            V = np.stack(_mat_pair_mul(pctx, Z0, Z1, X0.transpose(0, 2, 1),
                                       X1.transpose(0, 2, 1)), axis=1)
            runs = self.block_runs[b_lo:b_hi + 1]
            starts = self.run_start[runs[0]:runs[-1] + 1]
            terms = slice(starts[0], starts[-1])
            sums = np.add.reduceat(
                V[self.prod[terms] - lo] * self.sgn[terms, None, None, None],
                starts[:-1] - starts[0])
            dests = self.dest[starts[:-1]]
            for a, b in zip(runs - runs[0], runs[1:] - runs[0]):
                out[dests[a:b]] += sums[a:b]
        return np.stack(pctx.conj(out[:, 0] % mod, out[:, 1] % mod), axis=1)


def _budget(M):
    """The entries of the tables that one slice of UOperator.apply may
    multiply: those of CHUNK products on a line of an M x M table (the
    (M, M) factor A and the M entries of the line, on either side)."""
    return CHUNK * (M * M + M + 1)


def _distinct_rows(g):
    """(the distinct rows of the (n, 8) int array g, as the rows of an int
    array of its dtype, the index of each row among them). Each half of a
    row is one int64 code in mixed radix over its columns' ranges, so that
    three 1-d np.unique find the rows; a dict does when a half's code could
    pass int64."""
    if g.dtype != object and len(g):
        lo = g.min(axis=0).tolist()
        span = [hi - low + 1 for hi, low in zip(g.max(axis=0).tolist(), lo)]
        if max(span[0] * span[1] * span[2] * span[3],
               span[4] * span[5] * span[6] * span[7]) < 2 ** 62:
            halves = []
            for cols in (range(4), range(4, 8)):
                code = 0
                for c in cols:
                    code = code * span[c] + (g[:, c] - lo[c])
                halves.append(np.unique(code, return_inverse=True)[1])
            key = halves[0] * (int(halves[1].max()) + 1) + halves[1]
            _, first, inv = np.unique(key, return_index=True,
                                      return_inverse=True)
            return g[first], inv.reshape(-1)
    index = {}
    inv = [index.setdefault(r, len(index)) for r in map(tuple, g.tolist())]
    return np.array(list(index), dtype=g.dtype).reshape(-1, 8), \
        np.array(inv, dtype=np.int64)


def _lambda_inverse(ctx, lam):
    """1/lambda_p mod p^M; lambda_p must be a p-unit (slope 0)."""
    if lam.numerator % ctx.p == 0:
        raise ValueError("slope condition violated: lambda_p is not a unit")
    mod = ctx.pctx.mod
    return pow(int(lam.numerator) % mod, -1, mod) * int(lam.denominator) % mod


def lift(phi, M, prime_data, u_op=None):
    """The unique small-slope eigenlift of phi to an overconvergent symbol,
    computed by iterating U_p / lambda_p from the zero-filled seed, at most
    M + 1 times (2M + 4 at a ramified prime, where each iteration gains
    half as much filtration).

    Returns (symbol, certificate); the certificate records the per-iteration
    filtration of the increments."""
    lam = phi.eigen.get("lambda_p")
    if lam is None:
        raise ValueError("symbol carries no U_p eigenvalue")
    lam = Fraction(lam)
    ctx = DistContext(prime_data, M)
    _lambda_inverse(ctx, lam)   # refuse before building the plan
    max_iter = 2 * M + 4 if prime_data.kind == "ramified" else M + 1
    if u_op is None:
        reps = phi.p1.hecke_reps(ctx.pd.pi)
        assert len(reps) == ctx.pd.norm, "U_p needs pi | level"
        u_op = UOperator(ctx, phi.p1.hecke_terms(reps))
    return iterate_lift(phi, phi.level, u_op, M, lam, max_iter)


def iterate_lift(phi, level, u_op, cols, lam, max_iter):
    """Iterate U_p / lambda_p on the plan u_op from the seed table that
    holds the integral values of phi at moment (0, 0) and zero elsewhere.
    The seed has cols columns: M for a Bianchi symbol, 1 (the zbar-trivial
    column) for a rational one. Returns (symbol, certificate).

    At an inert prime iteration k (from 0) applies the plan only to the
    top-left s x s block of the tables (s x 1 for one column), with
    s = _moment_size(k, M) = min(k + 2, M), and pads the image back to M
    with zeros; its recorded gain is capped at s, so that the loop cannot
    stop while s < M. Why the lift is that of the full-size iteration: let
    U be U_p / lambda_p on the tables mod p^M and nu(e) the least
    v_p(e[i, j]) + i + j over the moments of a table e. Each entry
    A[i, k] of an action matrix of U_p is divisible by pi^k (its g has
    determinant pi and c = 0 mod pi, so (b + dz)/(a + cz) - b/a has its
    z^k coefficient in pi^k O), and pi = p at an inert prime, so every
    moment of U e is divisible by p^nu(e). Moment (0, 0) of U e is the
    classical U_p / lambda_p on the (0, 0) moments, which fixes phi: both
    iterations keep phi there, and their difference e_k after k steps has
    e_k[0, 0] = 0, whence nu(U e_k) >= nu(e_k) + 1. The cut drops only
    moments with max(i, j) >= s, so nu(e_{k+1}) >= min(nu(e_k) + 1, s)
    and by induction nu(e_k) >= k + 1. From k = M - 2 on s = M cuts
    nothing: e_{M-1} = U e_{M-2} is divisible by p^(M-1), so
    nu(e_{M-1}) >= M off (0, 0), and e_M = U e_{M-1} = 0. After M
    iterations the two iterates are equal mod p^M, digit for digit. That
    the cut loop stops at the same iteration with the same recorded gains
    (k + 1 at iteration k) is observed on the inert configurations of the
    tests, not proven. At a ramified prime pi^k is only p^(k/2), and the
    tables keep their full size."""
    ctx = u_op.ctx
    lam = Fraction(lam)
    lam_inv = _lambda_inverse(ctx, lam)
    M, mod = ctx.M, ctx.pctx.mod
    n_gen = len(phi.p1)
    values = np.zeros((n_gen, 2, M, cols), dtype=np.int64)
    for i, v in enumerate(phi.values):
        assert v.denominator == 1
        values[i, 0, 0, 0] = int(v) % mod
    gains = []
    for it in range(max_iter):
        s = _moment_size(it, M) if ctx.pd.kind == "inert" else M
        image = u_op.apply(values[:, :, :s, :s]) * lam_inv % mod
        new = np.zeros(values.shape, dtype=image.dtype)
        new[:, :, :s, :s] = image
        diff_fil = min(filtration(ctx, (new - values) % mod), s)
        gains.append(diff_fil)
        values = new
        if diff_fil >= M:
            break
    psi = OverconvergentSymbol(phi.p1, ctx, level, values, dict(phi.eigen))
    cert = {
        "iterations": len(gains),
        "increment_filtrations": gains,
        "converged": gains[-1] >= M if gains else True,
        "lambda_p": str(lam),
        "M": M,
    }
    return psi, cert


def _moment_size(k, M):
    """The rows and columns of the tables that iteration k of
    iterate_lift applies U_p to, at an inert prime."""
    return min(k + 2, M)


def save_lift(path, psi):
    """Write the moment tables of a lifted symbol, one values array, to
    path, a file name or a binary file. Its certificate and eigenvalues
    are the caller's to keep (the CLI keeps them in the cache meta)."""
    np.savez_compressed(path, values=psi.values)


def load_lift(path, phi, ctx):
    """The lift of phi that save_lift wrote to path (a file name or a
    binary file), with the moment layer ctx and phi's eigenvalues."""
    with np.load(path, allow_pickle=False) as data:
        values = data["values"]
    return OverconvergentSymbol(phi.p1, ctx, phi.level, values,
                                dict(phi.eigen))
