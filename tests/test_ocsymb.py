"""Tests for the distribution modules, the Sigma_0(p) action, and lifting."""

import random
from fractions import Fraction

import numpy as np
import pytest

from padicbianchi import field as fld
from padicbianchi import lfun
from padicbianchi import msymb as ms
from padicbianchi import ocsymb as oc
from padicbianchi.field import QuadInt


def qi(a, b=0):
    return QuadInt(a, b, 1)


@pytest.fixture(scope="module")
def ctx4():
    return oc.DistContext(fld.split_prime(11, 1), 4)


def rand_mu(ctx, rng):
    m = np.array(rng.sample(range(ctx.pctx.mod), 2 * ctx.M * ctx.M))
    return m.reshape(2, ctx.M, ctx.M).astype(np.int64)


def reduce_filtration(ctx, m):
    """Each moment of the table m truncated to its honest precision
    p^(M - max(i, j))."""
    return m % ctx.pctx.powers[ctx.M - ctx.lag[:, :m.shape[-1]]]


def rand_sigma0(rng):
    while True:
        a = qi(rng.randint(-20, 20), rng.randint(-20, 20))
        b = qi(rng.randint(-20, 20), rng.randint(-20, 20))
        c = qi(11 * rng.randint(-3, 3), 11 * rng.randint(-3, 3))
        d = qi(rng.randint(-20, 20), rng.randint(-20, 20))
        g = ((a, b), (c, d))
        if fld.mat_det(g) and (a.a % 11 or a.b % 11):
            return g


class TestSigma0Action:
    def test_identity(self, ctx4):
        rng = random.Random(1)
        mu = rand_mu(ctx4, rng)
        ident = ((qi(1), qi(0)), (qi(0), qi(1)))
        assert np.array_equal(oc.sigma0_act(ctx4, ident, mu), mu)

    def test_scalar_trivial(self, ctx4):
        rng = random.Random(2)
        mu = rand_mu(ctx4, rng)
        sc = ((qi(7, 3), qi(0)), (qi(0), qi(7, 3)))
        assert np.array_equal(oc.sigma0_act(ctx4, sc, mu), mu)

    def test_composition(self, ctx4):
        rng = random.Random(3)
        mu = rand_mu(ctx4, rng)
        for _ in range(25):
            g, h = rand_sigma0(rng), rand_sigma0(rng)
            lhs = oc.sigma0_act(ctx4, fld.mat_mul(g, h), mu)
            rhs = oc.sigma0_act(ctx4, h, oc.sigma0_act(ctx4, g, mu))
            assert oc.filtration(ctx4, (lhs - rhs) % ctx4.pctx.mod) >= ctx4.M

    def test_filtration_preserved(self, ctx4):
        rng = random.Random(4)
        mu = rand_mu(ctx4, rng)
        for _ in range(10):
            g = rand_sigma0(rng)
            a = reduce_filtration(ctx4, oc.sigma0_act(ctx4, g, mu))
            b = reduce_filtration(ctx4, oc.sigma0_act(
                ctx4, g, reduce_filtration(ctx4, mu)))
            assert np.array_equal(a, b)

    def test_rejects_bad_matrices(self, ctx4):
        mu = np.zeros((2, ctx4.M, ctx4.M), dtype=np.int64)
        with pytest.raises(ValueError):
            oc.sigma0_act(ctx4, ((qi(11), qi(1)), (qi(11), qi(1))), mu)
        with pytest.raises(ValueError):
            oc.sigma0_act(ctx4, ((qi(1), qi(0)), (qi(1), qi(1))), mu)
        with pytest.raises(ValueError):
            oc.sigma0_act(ctx4, ((qi(11), qi(1)), (qi(22), qi(3))), mu)

    def test_rejects_uniformizer_at_ramified_prime(self):
        # a = 1+i is pi itself: not a unit, though its coordinates on the
        # basis {1, pi} are (0, 1)
        ctx = oc.DistContext(fld.split_prime(2, 1), 6)
        with pytest.raises(ValueError, match="not in Sigma_0"):
            oc.action_matrix(ctx, ((qi(1, 1), qi(0)), (qi(0), qi(1))))

    def test_split_prime_unsupported(self):
        with pytest.raises(NotImplementedError):
            oc.DistContext(fld.split_prime(5, 1), 4)


def series_pow_matrix(ctx, a, b, c, d):
    """Reference for action_matrices: the M x M pair matrix A with
    ((b + dz)/(a + cz))^i = sum_n A[i,n] z^n, one Python-int pair product
    at a time (a, b, c, d embedded pairs of the completion ctx)."""
    M, mod = ctx.M, ctx.mod
    n = (a[0] * a[0] + ctx.S * a[0] * a[1] - ctx.T * a[1] * a[1]) % mod
    ninv = pow(n, -1, mod)
    c0, c1 = ctx.conj(*a)
    ai0, ai1 = c0 * ninv % mod, c1 * ninv % mod
    # inv[m] = a^{-1} (-c/a)^m
    t0, t1 = ctx.mul(-c[0] % mod, -c[1] % mod, ai0, ai1)
    inv0 = np.zeros(M, dtype=object)
    inv1 = np.zeros(M, dtype=object)
    inv0[0], inv1[0] = ai0, ai1
    for m in range(1, M):
        inv0[m], inv1[m] = ctx.mul(inv0[m - 1], inv1[m - 1], t0, t1)
    # f = (b + dz) * inv
    f0 = np.zeros(M, dtype=object)
    f1 = np.zeros(M, dtype=object)
    for n in range(M):
        x0, x1 = ctx.mul(b[0], b[1], inv0[n], inv1[n])
        if n:
            y0, y1 = ctx.mul(d[0], d[1], inv0[n - 1], inv1[n - 1])
            x0, x1 = (x0 + y0) % mod, (x1 + y1) % mod
        f0[n], f1[n] = x0, x1
    A0 = np.zeros((M, M), dtype=object)
    A1 = np.zeros((M, M), dtype=object)
    A0[0, 0] = 1
    row0 = np.zeros(M, dtype=object)
    row1 = np.zeros(M, dtype=object)
    row0[0] = 1
    for i in range(1, M):
        new0 = np.zeros(M, dtype=object)
        new1 = np.zeros(M, dtype=object)
        for n in range(M):
            for k in range(M - n):
                z0, z1 = ctx.mul(row0[n], row1[n], f0[k], f1[k])
                new0[n + k] = (new0[n + k] + z0) % mod
                new1[n + k] = (new1[n + k] + z1) % mod
        row0, row1 = new0, new1
        A0[i], A1[i] = row0, row1
    return A0, A1


def pair_matmul(ctx, X0, X1, Y0, Y1):
    """(X0 + X1 g)(Y0 + Y1 g) on object matrices, in Python integers."""
    x1y1 = X1.dot(Y1)
    return ((X0.dot(Y0) + ctx.T * x1y1) % ctx.mod,
            (X0.dot(Y1) + X1.dot(Y0) + ctx.S * x1y1) % ctx.mod)


def act_reference(ctx, g, m):
    """Reference for sigma0_act and UOperator.apply: A m conj(A)^T on one
    (2, M, C) table, with A from series_pow_matrix and the right factor cut
    to the C columns, in Python integers."""
    (a, b), (c, d) = g
    pctx = ctx.pctx
    A0, A1 = series_pow_matrix(pctx, *(pctx.embed_pair(x.a, x.b)
                                     for x in (a, b, c, d)))
    n = m.shape[-1]
    B0, B1 = pctx.conj(A0[:n, :n].T, A1[:n, :n].T)
    m = m.astype(object)
    Z0, Z1 = pair_matmul(pctx, A0, A1, m[0], m[1])
    return np.stack(pair_matmul(pctx, Z0, Z1, B0, B1))


def rand_sigma0_at(pd, rng, count):
    """count random matrices of Sigma_0(pi) over Q(i), pi over pd.p."""
    gs = []
    while len(gs) < count:
        a, b, d = (qi(rng.randint(-40, 40), rng.randint(-40, 40))
                   for _ in range(3))
        c = pd.pi * qi(rng.randint(-9, 9), rng.randint(-9, 9))
        g = ((a, b), (c, d))
        if fld.mat_det(g) and not fld.divides(pd.pi, a):
            gs.append(g)
    return gs


def rand_tables(ctx, rng, shape):
    pctx = ctx.pctx
    return np.array([rng.randrange(pctx.mod) for _ in range(np.prod(shape))],
                    dtype=pctx.dtype).reshape(shape)


class TestActionKernel:
    """The batched kernel against the one-matrix Python-int reference; at
    p = 11 the int64 bound holds up to M = 8, and M = 9, 10 run on Python
    integers."""

    @pytest.mark.parametrize("p, M, int64", [
        (11, 5, True), (11, 8, True), (11, 9, False), (11, 10, False),
        (2, 6, True)])
    def test_matches_reference(self, p, M, int64):
        pd = fld.split_prime(p, 1)
        ctx = oc.DistContext(pd, M)
        assert ctx.pctx.int64_safe == int64
        rng = random.Random(100 * p + M)
        gs = []
        while len(gs) < 12:
            a, b, d = (qi(rng.randint(-40, 40), rng.randint(-40, 40))
                       for _ in range(3))
            c = pd.pi * qi(rng.randint(-9, 9), rng.randint(-9, 9))
            g = ((a, b), (c, d))
            if fld.mat_det(g) and not fld.divides(pd.pi, a):
                gs.append(g)
        A0, A1 = oc.action_matrices(
            ctx, np.array([fld.mat_pairs(g) for g in gs], dtype=np.int64))
        assert A0.shape == A1.shape == (len(gs), M, M)
        for k, ((a, b), (c, d)) in enumerate(gs):
            pctx = ctx.pctx
            R0, R1 = series_pow_matrix(
                pctx, *(pctx.embed_pair(x.a, x.b) for x in (a, b, c, d)))
            assert np.array_equal(A0[k], R0) and np.array_equal(A1[k], R1)
            S0, S1 = oc.action_matrix(ctx, gs[k])
            assert np.array_equal(S0, R0) and np.array_equal(S1, R1)


class TestTwoSidedTransform:
    """sigma0_act and UOperator.apply against the Python-int reference, in
    int64 (p = 11, M = 8; p = 2, M = 6) and in Python integers (M = 9)."""

    @pytest.mark.parametrize("p, M", [(11, 8), (11, 9), (2, 6)])
    @pytest.mark.parametrize("full", [False, True])
    def test_single_action(self, p, M, full):
        pd = fld.split_prime(p, 1)
        ctx = oc.DistContext(pd, M)
        rng = random.Random(10 * p + M + full)
        C = M if full else 1
        for g in rand_sigma0_at(pd, rng, 10):
            mu = rand_tables(ctx, rng, (2, M, C))
            got = oc.sigma0_act(ctx, g, mu)
            assert got.shape == (2, M, C)
            assert np.array_equal(got, act_reference(ctx, g, mu))

    @pytest.mark.parametrize("p, M", [(11, 8), (11, 9)])
    @pytest.mark.parametrize("full", [False, True])
    def test_plan_longer_than_chunk(self, p, M, full):
        pd = fld.split_prime(p, 1)
        ctx = oc.DistContext(pd, M)
        rng = random.Random(20 * p + M + full)
        C = M if full else 1
        n_gen, n_out = 7, 5
        terms = [(rng.randrange(n_out), rng.randrange(n_gen),
                  rng.choice((1, -1)), g)
                 for g in rand_sigma0_at(pd, rng, oc.CHUNK + 37)]
        # repeated (dest, src, g): equal signs that add up, a +1/-1 pair
        # that cancels, and one g under a second src
        (d0, s0, e0, g0), (d1, s1, e1, g1), (d2, s2, e2, g2) = terms[:3]
        terms += [(d0, s0, e0, g0), (d0, s0, e0, g0),
                  (d1, s1, -e1, g1),
                  (d2, (s2 + 1) % n_gen, e2, g2)]
        rng.shuffle(terms)
        values = rand_tables(ctx, rng, (n_gen, 2, M, C))
        u_op = oc.UOperator(ctx, [(dest, src, sign, fld.mat_pairs(g))
                                  for dest, src, sign, g in terms])
        # n random terms; the cancelled one is dropped with its g, the
        # repeats merge into one term of sign 3, and g2 makes two products
        n = oc.CHUNK + 37
        assert len(u_op.dest) == n and len(u_op.src) == n
        assert sorted(abs(u_op.sgn)) == [1] * (n - 1) + [3]
        assert len(u_op.A0) == n - 1
        got = u_op.apply(values, n_out=n_out)
        want = np.zeros((n_out, 2, M, C), dtype=object)
        for dest, src, sign, g in terms:
            want[dest] += sign * act_reference(ctx, g, values[src])
        assert np.array_equal(got, want % ctx.pctx.mod)


class TestAOnlyPlan:
    """The plan stores the action matrices A only; the right factor
    conj(A)^T is derived, and the slices of apply are sized by the tables
    they multiply."""

    def test_no_right_factor_stored(self):
        pd = fld.split_prime(11, 1)
        ctx = oc.DistContext(pd, 8)
        rng = random.Random(31)
        u_op = oc.UOperator(ctx, [(k % 3, k % 4, 1, fld.mat_pairs(g))
                                  for k, g in enumerate(
                                      rand_sigma0_at(pd, rng, 20))])
        assert "B0" not in vars(u_op) and "B1" not in vars(u_op)
        pctx = ctx.pctx
        mod = pctx.mod
        want0 = (u_op.A0 + pctx.S * u_op.A1) % mod
        want1 = -u_op.A1 % mod
        assert np.array_equal(u_op.B0, want0.transpose(0, 2, 1))
        assert np.array_equal(u_op.B1, want1.transpose(0, 2, 1))

    @pytest.mark.parametrize("p, M", [(11, 8), (2, 6), (11, 9)])
    def test_apply_independent_of_slices(self, monkeypatch, p, M):
        # plans made with a budget of CHUNK = 128 and of CHUNK = 3 (one
        # product per block) apply alike to full tables, lines and cuts
        pd = fld.split_prime(p, 1)
        ctx = oc.DistContext(pd, M)
        rng = random.Random(7 * p + M)
        terms = [(rng.randrange(5), rng.randrange(7), rng.choice((1, -1, 2)),
                  fld.mat_pairs(g)) for g in rand_sigma0_at(pd, rng, 300)]
        values = rand_tables(ctx, rng, (7, 2, M, M))
        plans = []
        for chunk in (oc.CHUNK, 3):
            monkeypatch.setattr(oc, "CHUNK", chunk)
            plans.append(oc.UOperator(ctx, terms))
        big, small = plans
        assert big.block > small.block == 1
        for cut in (values, values[..., :1], values[:, :, :1],
                    values[:, :, :3, :3]):
            assert np.array_equal(big.apply(cut, n_out=5),
                                  small.apply(cut, n_out=5))


def filtration_loop(ctx, m):
    """Reference for oc.filtration on one table: min over the moments of
    v_p(m[i][j]) + max(i, j), capped at M, one moment at a time."""
    best = ctx.M
    _, rows, cols = m.shape
    for i in range(rows):
        for j in range(cols):
            x0, x1 = (int(x) % ctx.pctx.mod for x in m[:, i, j])
            if x0 == 0 and x1 == 0:
                continue
            v = 0
            while x0 % ctx.p == 0 and x1 % ctx.p == 0:
                x0, x1, v = x0 // ctx.p, x1 // ctx.p, v + 1
            best = min(best, v + max(i, j))
    return best


class TestFiltration:
    @pytest.mark.parametrize("p, M, int64", [
        (11, 8, True), (11, 9, False), (2, 6, True), (3, 6, True),
        (7, 6, True), (7, 11, False)])
    @pytest.mark.parametrize("full", [False, True])
    def test_matches_double_loop(self, p, M, int64, full):
        ctx = oc.DistContext(fld.split_prime(p, 1), M)
        assert ctx.pctx.int64_safe == int64
        rng = random.Random(30 * p + M + full)
        C = M if full else 1
        tables = []
        for _ in range(60):
            # moment (i, j) divisible by p^(f - max(i, j) +- 1): the
            # filtration lands near f, and f > M gives the zero table
            f = rng.randint(0, M + 1)
            m = np.array([ctx.p ** max(f + rng.randint(-1, 1) - max(i, j), 0)
                          * rng.randrange(ctx.pctx.mod) % ctx.pctx.mod
                          for _ in range(2) for i in range(M)
                          for j in range(C)], dtype=ctx.pctx.dtype)
            tables.append(m.reshape(2, M, C))
        want = [filtration_loop(ctx, m) for m in tables]
        assert len(set(want)) > M // 2
        for m, w in zip(tables, want):
            assert oc.filtration(ctx, m) == w
        assert oc.filtration(ctx, np.stack(tables)) == min(want)
        for m in tables:
            cut = reduce_filtration(ctx, m)
            for i in range(M):
                for j in range(C):
                    q = ctx.p ** (M - max(i, j))
                    assert (cut[:, i, j] == m[:, i, j] % q).all()


class TestZbarTrivialColumn:
    """Row 0 of the action matrix is e_0, so the column mu(z^i zbar^0) is
    closed under Sigma_0(pi): a one-variable (2, M, 1) table moves like
    column 0 of any two-variable table that contains it."""

    @pytest.mark.parametrize("p", [11, 2])
    def test_column_closed_under_action(self, p):
        pd = fld.split_prime(p, 1)
        ctx = oc.DistContext(pd, 6)
        rng = random.Random(p)
        n = 0
        while n < 20:
            a, b, d = (qi(rng.randint(-20, 20), rng.randint(-20, 20))
                       for _ in range(3))
            c = pd.pi * qi(rng.randint(-3, 3), rng.randint(-3, 3))
            g = ((a, b), (c, d))
            if not fld.mat_det(g) or fld.divides(pd.pi, a):
                continue
            n += 1
            full = np.array([rng.randrange(ctx.pctx.mod)
                             for _ in range(2 * ctx.M * ctx.M)])
            full = full.reshape(2, ctx.M, ctx.M)
            got = oc.sigma0_act(ctx, g, full[:, :, :1].copy())
            assert got.shape == (2, ctx.M, 1)
            assert np.array_equal(got, act_reference(ctx, g, full)[:, :, :1])

    @pytest.mark.parametrize("p, M", [(11, 8), (2, 6), (11, 20)])
    def test_row_zero_is_e0(self, p, M):
        # the fact ev_totals rests on: row 0 of A and column 0 of the right
        # factor conj(A)^T are e_0, so (A m conj(A)^T)[0, 0] = m[0, 0]; at
        # M = 20 the pairs are Python integers
        pd = fld.split_prime(p, 1)
        ctx = oc.DistContext(pd, M)
        assert ctx.pctx.int64_safe == (M < 20)
        gs = rand_sigma0_at(pd, random.Random(p + M), 30)
        A0, A1 = oc.action_matrices(
            ctx, np.array([fld.mat_pairs(g) for g in gs], dtype=np.int64))
        B0, B1 = ctx.pctx.conj(A0, A1)
        e0 = np.eye(M, dtype=int)[0]
        # row 0 of conj(A) is column 0 of conj(A)^T
        for X0, X1 in ((A0, A1), (B0, B1)):
            assert (X0[:, 0] == e0).all() and (X1[:, 0] == 0).all()

    @pytest.mark.parametrize("p, M", [(11, 8), (2, 6), (11, 20)])
    def test_apply_on_lines(self, p, M):
        # apply on the (M, 1) column and on the (1, M) row of the tables is
        # column 0 and row 0 of apply on the full tables: A is cut to the
        # rows and conj(A)^T to the columns, both exactly because row 0 of
        # A is e_0; at M = 20 the pairs are Python integers
        pd = fld.split_prime(p, 1)
        ctx = oc.DistContext(pd, M)
        rng = random.Random(p * M)
        gs = rand_sigma0_at(pd, rng, 12)
        plan = oc.UOperator(ctx, [(k % 3, k % 4, rng.choice((1, -1, 2)),
                                   fld.mat_pairs(g))
                                  for k, g in enumerate(gs)])
        values = rand_tables(ctx, rng, (4, 2, M, M))
        full = plan.apply(values)
        assert full.dtype == (object if M == 20 else np.int64)
        col = plan.apply(values[..., :1])
        row = plan.apply(values[:, :, :1])
        assert col.shape == (4, 2, M, 1) and row.shape == (4, 2, 1, M)
        assert np.array_equal(col, full[..., :1])
        assert np.array_equal(row, full[:, :, :1])


class TestLift:
    def test_certificate(self, ref_lift):
        psi, cert = ref_lift
        assert cert["converged"]
        assert cert["iterations"] <= 9
        fils = cert["increment_filtrations"]
        # per-iteration filtration gain at least one
        assert all(b - a >= 1 for a, b in zip(fils, fils[1:]))

    def test_specialization_roundtrip(self, ref_lift, ref_symbols):
        psi, _ = ref_lift
        phi, _ = ref_symbols
        assert oc.specialize_matches(psi, phi)

    def test_u_eigen_residual(self, ref_lift, ref_uop):
        # Psi | U_p - lambda_p Psi, lambda_p = 1, reaches the floor M
        psi, _ = ref_lift
        resid = (ref_uop.apply(psi.values) - psi.values) % psi.ctx.pctx.mod
        assert oc.filtration(psi.ctx, resid) >= 8

    def test_total_measure(self, ref_lift, ref_symbols):
        psi, _ = ref_lift
        phi, _ = ref_symbols
        mod = psi.ctx.pctx.mod
        for (c0, c1), classical in zip(psi.values[:, :, 0, 0].tolist(),
                                       phi.values):
            assert c1 == 0 and (c0 - classical) % mod == 0

    def test_seed_independence(self, ref_lift, ref_symbols, ref_uop):
        # a lift from a garbage-filled seed with the same moments <= k
        # converges to the same symbol mod filtration
        psi, _ = ref_lift
        phi, _ = ref_symbols
        ctx = psi.ctx
        rng = random.Random(11)
        n_gen = len(phi.p1)
        values = np.zeros((n_gen, 2, ctx.M, ctx.M), dtype=np.int64)
        for i, v in enumerate(phi.values):
            values[i, 0, 0, 0] = int(v) % ctx.pctx.mod
        values[:, :, 1:, :] = rng.randrange(ctx.pctx.mod)
        values[:, :, :, 1:] = rng.randrange(ctx.pctx.mod)
        values[:, :, 0, 0] = values[:, 0, 0, 0][:, None]  # keep (0,0)
        for i, v in enumerate(phi.values):
            values[i, 0, 0, 0] = int(v) % ctx.pctx.mod
            values[i, 1, 0, 0] = 0
        for _ in range(9):
            values = ref_uop.apply(values) % ctx.pctx.mod
        diff = (values - psi.values) % ctx.pctx.mod
        assert oc.filtration(ctx, diff) >= ctx.M

    def test_specialize_commutes_with_hecke(self, ref_lift):
        psi, _ = ref_lift
        p1, ctx = psi.p1, psi.ctx
        # psi | T_(1+i) on the table-level operator of its Hecke terms
        moved = oc.UOperator(ctx, p1.hecke_terms(p1.hecke_reps(qi(1, 1)))) \
            .apply(psi.values)
        # specialization of psi is an eigenvector with eigenvalue -2, so
        # the specialization of psi|T must be -2 times it mod p^M
        assert not ((moved[:, :, 0, 0] + 2 * oc.specialize(psi))
                    % ctx.pctx.mod).any()

    def test_lift_rejects_non_unit_eigenvalue(self, ref_symbols, ref_prime):
        phi, _ = ref_symbols
        bad = phi.copy()
        bad.eigen = dict(bad.eigen)
        bad.eigen["lambda_p"] = 11
        with pytest.raises(ValueError):
            oc.lift(bad, 4, ref_prime)

    def test_lift_requires_lambda_p(self, ref_symbols, ref_prime):
        phi, _ = ref_symbols
        bare = phi.copy()
        bare.eigen = {k: v for k, v in phi.eigen.items() if k != "lambda_p"}
        with pytest.raises(ValueError, match="no U_p eigenvalue"):
            oc.lift(bare, 4, ref_prime)

    def test_filtration_is_row_minimum(self, ref_lift, ram_lift):
        # the filtration of the values array is the least filtration of
        # its generator tables
        for psi in (ref_lift[0], ram_lift):
            assert psi.values.shape[0] == len(psi.p1)
            assert psi.filtration() == min(oc.filtration(psi.ctx, v)
                                           for v in psi.values)

    def test_ramified_plan_counts(self, ram_lift):
        # the U_2 plan at (1+i)(7): 1,512 Manin terms with 466 distinct g
        # and 470 distinct (src, g) merge into 1,092 terms; dropping the
        # cancelled ones leaves 414 g and 418 products to compute
        psi = ram_lift
        terms = list(psi.p1.hecke_terms(psi.p1.hecke_reps(psi.ctx.pd.pi)))
        assert len(terms) == 1512
        assert len({g for _, _, _, g in terms}) == 466
        assert len({(src, g) for _, src, _, g in terms}) == 470
        u_op = oc.UOperator(psi.ctx, terms)
        assert len(u_op.dest) == 1092
        assert len(u_op.A0) == 414 and len(u_op.src) == 418
        # the same plan from the term arrays (manin.ManinTerms)
        arrays = oc.UOperator(psi.ctx, psi.p1.hecke_terms(
            psi.p1.hecke_reps(psi.ctx.pd.pi)))
        for name in ("dest", "src", "sgn", "A0", "A1", "B0", "B1"):
            assert np.array_equal(getattr(arrays, name), getattr(u_op, name))
        # Psi | U_p - lambda_p Psi, lambda_p = -1, reaches the floor M
        resid = (u_op.apply(psi.values) + psi.values) % psi.ctx.pctx.mod
        assert oc.filtration(psi.ctx, resid) >= psi.ctx.M

    @pytest.mark.parametrize("level, p, M", [
        (qi(11), 11, 5), (qi(11), 11, 6), (qi(7, 7), 7, 5), (qi(15), 3, 5)])
    def test_growing_size_is_full_size(self, monkeypatch, level, p, M):
        # at an inert prime iteration k runs on s x s tables,
        # s = min(k + 2, M); the lift and its certificate are those of the
        # full-size iteration
        pd = fld.split_prime(p, 1)
        phi, _ = ms.find_new_eigensymbol(level, pd)
        # the U_p decomposition of the eigenvalue waits for the plan
        assert len(phi.p1._kept) == 1
        u_op = oc.UOperator(oc.DistContext(pd, M), phi.p1.hecke_terms(
            phi.p1.hecke_reps(pd.pi)))
        assert not phi.p1._kept
        psi, cert = oc.lift(phi, M, pd, u_op=u_op)
        assert cert["converged"]
        monkeypatch.setattr(oc, "_moment_size", lambda k, M: M)
        full, full_cert = oc.lift(phi, M, pd, u_op=u_op)
        assert np.array_equal(psi.values, full.values)
        assert cert == full_cert

    def test_growing_size_rational(self, monkeypatch, rational_pair,
                                   rational_lifts):
        # the one-variable lift at p = 11 grows its rows alike
        from padicbianchi import basechange as bc
        monkeypatch.setattr(oc, "_moment_size", lambda k, M: M)
        for phi, (psi, cert) in zip(rational_pair, rational_lifts):
            full, full_cert = bc.lift_rational(phi, 8, 11)
            assert np.array_equal(psi.values, full.values)
            assert cert == full_cert

    def test_growing_size_trap(self, monkeypatch, ref_prime):
        # with s = min(k + 1, M) iteration 0 runs on the (0, 0) moments,
        # which U_p / lambda_p fixes: the increment is zero, and only the
        # cap at s keeps the lift from stopping after one step
        phi, _ = ms.find_new_eigensymbol(qi(11), ref_prime)
        M = 5
        u_op = oc.UOperator(oc.DistContext(ref_prime, M), phi.p1.hecke_terms(
            phi.p1.hecke_reps(ref_prime.pi)))
        psi, cert = oc.lift(phi, M, ref_prime, u_op=u_op)
        mod = u_op.ctx.pctx.mod
        seed = psi.values[:, :, :1, :1]
        lam_inv = oc._lambda_inverse(u_op.ctx, phi.eigen["lambda_p"])
        assert np.array_equal(u_op.apply(seed) * lam_inv % mod, seed)
        monkeypatch.setattr(oc, "_moment_size",
                            lambda k, M: min(k + 1, M))
        slow, slow_cert = oc.lift(phi, M, ref_prime, u_op=u_op)
        assert slow_cert["increment_filtrations"][0] == 1
        assert slow_cert["iterations"] > 1 and slow_cert["converged"]
        assert np.array_equal(slow.values, psi.values)

    def test_distinct_rows(self):
        # rows told apart by one column, with int64 codes and, when the
        # columns span more than int64, by the dict
        rows = [[1, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 7, 9],
                [1, 2, 3, 4, 5, 6, 7, 8], [0] * 8]
        wide = [[2 ** 62, 0] + [0] * 6, [-2 ** 62, 0] + [0] * 6,
                [2 ** 62, 1] + [0] * 6]
        for g in (rows, wide):
            gs, inv = oc._distinct_rows(np.array(g, dtype=np.int64))
            assert gs.dtype == np.int64 and gs.shape[1] == 8
            gs = list(map(tuple, gs.tolist()))
            assert sorted(gs) == sorted(set(map(tuple, g)))
            assert [gs[k] for k in inv] == list(map(tuple, g))

    def test_save_load_roundtrip(self, ref_lift, ref_symbols, tmp_path):
        psi, _ = ref_lift
        phi, _ = ref_symbols
        path = str(tmp_path / "lift.npz")
        oc.save_lift(path, psi)
        psi2 = oc.load_lift(path, phi, psi.ctx)
        assert psi2.eigen == phi.eigen and psi2.level == phi.level
        assert psi2.values.dtype == psi.values.dtype
        assert np.array_equal(psi2.values, psi.values)


class TestEvaluation:
    def test_gamma_invariance(self, ref_lift):
        psi, _ = ref_lift
        g, g_inv = ((qi(1), qi(0)), (qi(11), qi(1))), \
            ((qi(1), qi(0)), (qi(-11), qi(1)))
        r = fld.Cusp(qi(2, 3), qi(7, 1))
        s = fld.Cusp(qi(1), qi(4, 5))
        gr, gs = fld.apply_moebius(g, r), fld.apply_moebius(g, s)
        lhs = psi.ev(gr, gs)
        rhs = act_reference(psi.ctx, g_inv, psi.ev(r, s))
        assert oc.filtration(psi.ctx, (lhs - rhs) % psi.ctx.pctx.mod) \
            >= psi.ctx.M

    def test_ev_paths_match_per_piece_sum(self, ref_lift):
        # the 120 discs of mu(1), the same 120 again and 20 discs of mu(3):
        # more paths than one block of CHUNK, with repeated paths and pieces
        # across the block boundary
        psi, _ = ref_lift
        ctx = psi.ctx

        def disc_paths(c, count):
            mu = lfun.build_mu_p(psi, qi(c))
            g0, g1 = mu.G.a, mu.G.b
            return [((B[0], B[1], g0, g1), (1, 0, 0, 0))
                    for B in mu.unit_discs()[1][:count].tolist()]
        first = disc_paths(1, 120)
        assert len(first) == 120
        paths = first + first + disc_paths(3, 20)
        assert len(paths) > oc.CHUNK
        got = psi.ev_paths(paths)
        assert got.shape == (260, 2, ctx.M, ctx.M)
        want = {}
        for k, (r, s) in enumerate(paths):
            key = (r, s)
            if key not in want:
                total = 0
                for sign, idx, gamma_inv in ms.manin_terms(psi.p1, r, s):
                    g = fld.pair_mat(gamma_inv, 1)
                    total = total + sign * act_reference(ctx, g,
                                                         psi.values[idx])
                want[key] = total % ctx.pctx.mod
            assert np.array_equal(got[k], want[key])
        assert len(want) == 140

    @pytest.mark.parametrize("M", [8, 9])
    def test_totals_are_moment_00(self, ref_lift, M):
        # random tables on the reference generators, in int64 (M = 8) and
        # in Python integers (M = 9): ev_totals is moment (0, 0) of
        # ev_paths on disc paths of mu(3) and on paths between cusps
        psi = ref_lift[0]
        ctx = oc.DistContext(psi.ctx.pd, M)
        rng = random.Random(M)
        sym = oc.OverconvergentSymbol(
            psi.p1, ctx, psi.level,
            rand_tables(ctx, rng, (len(psi.p1), 2, M, M)))
        mu = lfun.build_mu_p(psi, qi(3))
        paths = [((B[0], B[1], mu.G.a, mu.G.b), (1, 0, 0, 0))
                 for B in mu.unit_discs()[1][:20].tolist()]
        paths += [((2, 3, 7, 1), (1, 0, 4, 5)), ((0, 1, 3, 0), (1, 0, 0, 0))]
        got = sym.ev_totals(paths)
        assert got.dtype == ctx.pctx.dtype
        assert np.array_equal(got, sym.ev_paths(paths)[:, :, 0, 0])

    @pytest.mark.parametrize("M", [8, 9])
    def test_lines_are_column_and_row_0(self, ref_lift, M):
        # ev_lines is column 0 and row 0 of ev_paths, over more than one
        # block of CHUNK paths
        psi = ref_lift[0]
        ctx = oc.DistContext(psi.ctx.pd, M)
        rng = random.Random(M)
        sym = oc.OverconvergentSymbol(
            psi.p1, ctx, psi.level,
            rand_tables(ctx, rng, (len(psi.p1), 2, M, M)))
        mu = lfun.build_mu_p(psi, qi(3))
        paths = [((B[0], B[1], mu.G.a, mu.G.b), (1, 0, 0, 0))
                 for B in mu.unit_discs()[1][:oc.CHUNK + 20].tolist()]
        col, row = sym.ev_lines(paths)
        full = sym.ev_paths(paths)
        assert col.dtype == row.dtype == ctx.pctx.dtype
        assert np.array_equal(col, full[..., :1])
        assert np.array_equal(row, full[:, :, :1])

    def test_int_paths_match_normalised_cusps(self, ref_lift,
                                              rational_lifts):
        # ev_paths on int paths, coprime or with a common factor k, equals
        # ev on the normalised cusps of the layer: 10 discs of mu(3) over
        # O_F and 10 discs of the classical mu(4) over Z, each on
        # {B/G -> oo} and {r2 -> B/G}
        def scaled(k, v):
            ka, kb = k      # k * (num : den) in Z[i], w^2 = -1
            return tuple(x for xa, xb in (v[:2], v[2:])
                         for x in (ka * xa - kb * xb, ka * xb + kb * xa))

        def check(psi, k, r, s, want):
            got = psi.ev_paths([(scaled(k, r), scaled(k, s))])[0]
            assert np.array_equal(got, want)

        psi = ref_lift[0]
        mu = lfun.build_mu_p(psi, qi(3))
        inf, r2 = fld.cusp_infinity(1), fld.Cusp(qi(2, 3), qi(7))
        for B in mu.unit_discs()[1][:10].tolist():
            c = fld.Cusp(qi(*B), mu.G)
            v = (B[0], B[1], mu.G.a, mu.G.b)
            for k in ((1, 0), (2, 1), (0, -3)):
                check(psi, k, v, inf.v, psi.ev(c, inf))
                check(psi, k, r2.v, v, psi.ev(r2, c))
        psi = rational_lifts[0][0]
        mu = lfun.RayDistribution(psi, 4)
        r2 = Fraction(2, 7)
        for B in mu.unit_discs()[1][:10].tolist():
            c = Fraction(B[0], mu.G)
            v = (B[0], 0, mu.G, 0)
            for k in ((1, 0), (-3, 0), (5, 0)):
                check(psi, k, v, (1, 0, 0, 0), psi.ev(c, None))
                check(psi, k, (2, 0, 7, 0), v, psi.ev(r2, c))

    def test_additivity(self, ref_lift):
        psi, _ = ref_lift
        r = fld.Cusp(qi(2, 3), qi(7, 1))
        s = fld.Cusp(qi(1), qi(4, 5))
        t = fld.Cusp(qi(0, 1), qi(3))
        diff = (psi.ev(r, t) - psi.ev(r, s) - psi.ev(s, t)) % psi.ctx.pctx.mod
        assert oc.filtration(psi.ctx, diff) >= psi.ctx.M
