"""The stacked Manin decomposition: the array kernels under the Manin
layers of msymb, imported when a batch first runs, so that importing the
CLI, field and msymb (and a warm `build`) loads neither numpy nor this
module.

manin_pieces is field's Euclidean kernel stacked: the continued fractions
of a batch of int paths run in lockstep on int64 arrays, one
field.divmod_step (the step of pair_divmod, run on the rows) and one step
of the convergents per round, and a row leaves the batch when its
remainder is 0. xgcd_rows, the one extended Euclid, is stacked the same
way, with the Bezout pairs in place of the convergents; xgcd_unit_rows
reads off the unit gcds and the Bezout pairs over them, which give the P^1
unit inverses, the lifts of both Manin layers
(msymb.ManinLayer.lift_rows), the Atkin-Lehner matrix and the residue ring
units (field.ResidueRing.unit_pairs, inverse_pairs). pair_mul_rows is
pair_mul on rows of int arrays and adj_rows the adjugate, ManinTerms holds
plan terms as arrays, and generator_paths gives the generator paths of a
list of matrices as rows. Every kernel is exact: int64 where a bound
proves it, and Python ints (dtype object) otherwise.
"""

import numpy as np

from .field import divmod_step, pair_norm, pair_prod

# The int64 bound. Let every entry of a row's state, the pair (x, y) under
# division and the last two convergents, be at most B in magnitude, and let
# |S| <= 1, |T| <= 3 (all supported fields). Then N(y) <= 5 B^2, and an
# element z = a + b*w has |a|, |b| <= 2|z|. The floor quotient f of x/y
# has entries at most 2|x/y| + 1 <= 6B (|y| >= 1), the quotient k = f + e
# at most 7B. Each candidate remainder x - (f + e) y is y times a point of
# the parallelogram spanned by 1 and w minus one of its corners, so its
# norm is at most N(1 + w) N(y) <= 25 B^2 and its entries at most 10B. So
# the largest intermediate of a step is a candidate's norm, below 500 B^2
# (x*conj(y) stays below 5 B^2, f*y below 25 B^2, a new convergent below
# 30 B^2, and the selection b + (a - b)*c of divmod_step below twice its
# operands). A row enters the int64 run when its input entries are at most
# EUCLID_BOUND, and leaves it as soon as an entry of its new state passes
# EUCLID_BOUND; a row that leaves (or never enters) runs the same steps on
# Python ints (dtype object) instead.


def euclid_int64_exact(B):
    """Whether a lockstep step of manin_pieces is exact in int64 when every
    entry of its state is at most B in magnitude (the bound above)."""
    return 500 * B * B < 2 ** 63


EUCLID_BOUND = 2 ** 26
assert euclid_int64_exact(EUCLID_BOUND)


def int_rows(rows, width):
    """The int rows as an (n, width) array: int64, or dtype object when an
    entry does not fit."""
    try:
        return np.array(rows, dtype=np.int64).reshape(-1, width)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(-1, width)


def pair_mul_rows(S, T, X, Y):
    """pair_mul of the rows of the (n, 8) int arrays X and Y, exact: on
    Python ints (dtype object) when the entries of a product could pass
    int64 (each entry is a sum of at most 8 products of entries). Entry
    (r, c) of a product is g[r][0] h[0][c] + g[r][1] h[1][c], two pair
    products (field.pair_prod), added into one preallocated (n, 8) array
    one pair product at a time, so that the temporaries hold a few columns,
    not the eight entries and their stacked copy."""
    bound = (int(np.abs(X).max(initial=0)) * int(np.abs(Y).max(initial=0)))
    if 8 * bound >= 2 ** 63:
        X, Y = X.astype(object), Y.astype(object)
    out = np.zeros((len(X), 8), dtype=np.result_type(X, Y))
    for r in (0, 4):            # the rows (a, b) and (c, d) of g
        for c in (0, 2):        # the columns (e, g) and (f, h) of h
            for x, y in ((r, c), (r + 2, c + 4)):
                p0, p1 = pair_prod(S, T, X[:, x], X[:, x + 1], Y[:, y],
                                   Y[:, y + 1])
                out[:, r + c] += p0
                del p0
                out[:, r + c + 1] += p1
    return out


def adj_rows(X):
    """The adjugate [[d, -b], [-c, a]] (the inverse of a determinant-1
    matrix) of the rows of the (n, 8) int array X."""
    out = X[:, [6, 7, 2, 3, 4, 5, 0, 1]]
    out[:, 2:6] *= -1
    return out


def manin_pieces(S, T, paths):
    """The Manin decomposition of a batch of int paths {r -> s}, given as
    rows (r, s) of 8 ints (int cusps (num_a, num_b, den_a, den_b), not
    necessarily coprime): arrays (k, sign, G) with
    sum sign*{g 0 -> g oo} = {r -> s} over the pieces of path k, G the
    (n, 8) determinant-1 pieces.

    A path is {0 -> s} - {0 -> r}, and {0 -> c} is Manin's trick on the
    Euclidean continued fraction of num/den (pair_divmod's quotients): the
    convergent matrices [[p_k, -+p_(k-1)], [q_k, -+q_(k-1)]] after the base
    segment {0 -> oo}. The quotients depend only on the ratio num/den. The
    cusp 0 has no piece and infinity only the base segment; when neither
    cusp is 0 the two base segments cancel and neither is listed. The
    pieces come path by path, those of s (sign 1) before those of r
    (sign -1), each in continued-fraction order."""
    P = int_rows(paths, 8)
    n_cusps = 2 * len(P)
    C = P[:, [4, 5, 6, 7, 0, 1, 2, 3]].reshape(n_cusps, 4)
    has_num = (C[:, 0] != 0) | (C[:, 1] != 0)
    has_den = (C[:, 2] != 0) | (C[:, 3] != 0)
    zero = has_den & ~has_num
    base = ~zero & zero.reshape(-1, 2)[:, ::-1].reshape(-1)
    rows = np.flatnonzero(has_num & has_den)
    steps = []
    if C.dtype == object:
        _cf_steps(S, T, C, rows, steps, None)
    else:
        big = np.abs(C[rows]).max(axis=1, initial=0) > EUCLID_BOUND
        late = np.concatenate(
            [rows[big], _cf_steps(S, T, C, rows[~big], steps, EUCLID_BOUND)])
        if len(late):
            dropped = np.zeros(n_cusps, dtype=bool)
            dropped[late] = True
            steps = [(at[~dropped[at]], t, G[~dropped[at]])
                     for at, t, G in steps]
            _cf_steps(S, T, C.astype(object), np.sort(late), steps, None)
    counts = np.zeros(n_cusps, dtype=np.int64)
    for at, _, _ in steps:
        counts[at] += 1
    length = counts + base
    start = np.cumsum(length) - length + base
    dtype = object if any(G.dtype == object for _, _, G in steps) \
        else np.int64
    G = np.zeros((int(length.sum()), 8), dtype=dtype)
    G[start[base] - 1, 0] = G[start[base] - 1, 6] = 1
    for at, t, piece in steps:
        G[start[at] + t] = piece
    cusp = np.repeat(np.arange(n_cusps), length)
    return cusp >> 1, 1 - 2 * (cusp & 1), G


def _cf_steps(S, T, C, rows, steps, bound):
    """The continued fractions of the cusps C[rows] in lockstep: appends
    (rows, t, G) per step t, G the convergent matrices of the rows still
    dividing. With a bound, a row whose state passes it leaves; its pieces
    stay in steps, and the rows that left are returned."""
    xa, xb, ya, yb = C[rows].T
    one, nil = np.ones_like(xa), np.zeros_like(xa)
    # p_(k-1), q_(k-1) = 1, 0 and p_(k-2), q_(k-2) = 0, 1, as pairs
    state = np.stack([xa, xb, ya, yb, one, nil, nil, nil,
                      nil, nil, one, nil])
    late = []
    t, sign = 0, -1
    while len(rows):
        xa, xb, ya, yb, p1a, p1b, q1a, q1b, p2a, p2b, q2a, q2b = state
        ka, kb, ra, rb, _ = divmod_step(S, T, xa, xb, ya, yb,
                                        pair_norm(S, T, ya, yb))
        pa = ka * p1a + T * kb * p1b + p2a
        pb = ka * p1b + kb * p1a + S * kb * p1b + p2b
        qa = ka * q1a + T * kb * q1b + q2a
        qb = ka * q1b + kb * q1a + S * kb * q1b + q2b
        steps.append((rows, t, np.stack(
            [pa, pb, sign * p1a, sign * p1b, qa, qb, sign * q1a,
             sign * q1b], axis=1)))
        state = np.stack([ya, yb, ra, rb, pa, pb, qa, qb,
                          p1a, p1b, q1a, q1b])
        live = (ra != 0) | (rb != 0)
        if bound is not None:
            over = np.abs(state[:8]).max(axis=0) > bound
            late.append(rows[over & live])
            live &= ~over
        if not live.all():
            rows, state = rows[live], state[:, live]
        t, sign = t + 1, -sign
    return np.concatenate(late) if late else rows[:0]


def xgcd_rows(S, T, X):
    """The extended Euclid of the rows (xa, xb, ya, yb) of the (n, 4) int
    array X, pairs x = xa + xb*w and y, in lockstep: the (n, 6) rows
    (ga, gb, ua, ub, va, vb) with u*x + v*y = g, a gcd of x and y. Each
    row runs the remainders and Bezout pairs, one divmod_step per round
    (over Z its quotient is an integer nearest x/y), and leaves when its
    remainder is 0, so x, y = 0, 0 gives g, u, v = 0, 1, 0. Exact: the
    Bezout pairs update as the convergents of _cf_steps do, so the int64
    bound of manin_pieces holds, and a row past it runs again on Python
    ints (dtype object)."""
    X = np.asarray(X).reshape(-1, 4)
    rows = np.arange(len(X))
    if X.dtype == object:
        out = np.zeros((len(X), 6), dtype=object)
        _xgcd_steps(S, T, X, rows, out, None)
        return out
    out = np.zeros((len(X), 6), dtype=np.int64)
    big = np.abs(X).max(axis=1, initial=0) > EUCLID_BOUND
    late = np.concatenate(
        [rows[big], _xgcd_steps(S, T, X, rows[~big], out, EUCLID_BOUND)])
    if len(late):
        out = out.astype(object)
        _xgcd_steps(S, T, X.astype(object), late, out, None)
    return out


def _xgcd_steps(S, T, X, rows, out, bound):
    """The extended Euclid of the rows X[rows] in lockstep, into out[rows].
    With a bound, a row whose state passes it leaves unfinished; the rows
    that left are returned."""
    xa, xb, ya, yb = X[rows].T
    one, nil = np.ones_like(xa), np.zeros_like(xa)
    # the remainders r0 = x, r1 = y, and the Bezout pairs s (of x) and
    # t (of y) with s0, s1 = 1, 0 and t0, t1 = 0, 1
    state = np.stack([xa, xb, ya, yb, one, nil, nil, nil,
                      nil, nil, one, nil])
    late = []
    while True:
        done = (state[2] == 0) & (state[3] == 0)
        if done.any():
            out[rows[done]] = state[[0, 1, 4, 5, 8, 9]][:, done].T
            rows, state = rows[~done], state[:, ~done]
        if not len(rows):
            break
        r0a, r0b, r1a, r1b, s0a, s0b, s1a, s1b, t0a, t0b, t1a, t1b = state
        ka, kb, ra, rb, _ = divmod_step(S, T, r0a, r0b, r1a, r1b,
                                        pair_norm(S, T, r1a, r1b))
        qsa, qsb = pair_prod(S, T, ka, kb, s1a, s1b)
        qta, qtb = pair_prod(S, T, ka, kb, t1a, t1b)
        state = np.stack([r1a, r1b, ra, rb, s1a, s1b, s0a - qsa, s0b - qsb,
                          t1a, t1b, t0a - qta, t0b - qtb])
        if bound is not None:
            over = np.abs(state).max(axis=0) > bound
            if over.any():
                late.append(rows[over])
                rows, state = rows[~over], state[:, ~over]
    return np.concatenate(late) if late else rows[:0]


def xgcd_unit_rows(S, T, X):
    """xgcd_rows of X as (unit, W): whether the gcd g of a row is a unit,
    and the (n, 4) rows (u/g, v/g) of pairs, for which u/g x + v/g y = 1
    where g is a unit. A unit g has norm 1, so 1/g = conj(g)."""
    E = xgcd_rows(S, T, X)
    ga, gb = E[:, 0], E[:, 1]
    ca, cb = ga + S * gb, -gb
    W = np.stack(pair_prod(S, T, E[:, 2], E[:, 3], ca, cb)
                 + pair_prod(S, T, E[:, 4], E[:, 5], ca, cb), axis=1)
    return pair_norm(S, T, ga, gb) == 1, W


class ManinTerms:
    """Terms (dest, src, sign, g) as arrays: dest, src and sign of shape
    (n,), g the (n, 8) int array of the matrices (8-tuples of
    field.mat_pairs; dtype object past int64). ocsymb.UOperator reads the
    arrays; iterating gives the terms as tuples of ints."""

    __slots__ = ("dest", "src", "sign", "g")

    def __init__(self, dest, src, sign, g):
        self.dest, self.src, self.sign, self.g = dest, src, sign, g

    def __len__(self):
        return len(self.sign)

    def __iter__(self):
        return zip(self.dest.tolist(), self.src.tolist(), self.sign.tolist(),
                   map(tuple, self.g.tolist()))


def generator_paths(p1, mats):
    """The paths {h 0 -> h oo}, h = delta g_i, for each generator i and each
    delta in mats (i-major) with g_i row i of p1.lift_rows(), as arrays
    (gen, dlt, paths, deltas): path k has generator gen[k] and delta
    mats[dlt[k]], and is the row (b : d) -> (a : c) of the columns of
    h = [[a, b], [c, d]], not normalised; deltas holds the 8-tuples
    p1.pairs(delta) as rows."""
    deltas = int_rows([p1.pairs(m) for m in mats], 8)
    gen = np.repeat(np.arange(len(p1)), len(deltas))
    dlt = np.tile(np.arange(len(deltas)), len(p1))
    h = pair_mul_rows(p1.S, p1.T, deltas[dlt], p1.lift_rows()[gen])
    return gen, dlt, h[:, [2, 3, 6, 7, 0, 1, 4, 5]], deltas

