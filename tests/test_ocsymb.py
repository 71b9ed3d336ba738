"""Tests for the distribution modules, the Sigma_0(p) action, and lifting."""

import random

import numpy as np
import pytest

from padicbianchi import field as fld
from padicbianchi import msymb as ms
from padicbianchi import ocsymb as oc
from padicbianchi.field import QuadInt


def qi(a, b=0):
    return QuadInt(a, b, 1)


@pytest.fixture(scope="module")
def ctx4():
    return oc.DistContext(fld.split_prime(11, 1), 4)


def rand_mu(ctx, rng):
    m = np.array(rng.sample(range(ctx.mod), 2 * ctx.M * ctx.M))
    return oc.FiniteDistribution(ctx, m.reshape(2, ctx.M, ctx.M).astype(np.int64))


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
        assert np.array_equal(oc.sigma0_act(ctx4, ident, mu).m, mu.m)

    def test_scalar_trivial(self, ctx4):
        rng = random.Random(2)
        mu = rand_mu(ctx4, rng)
        sc = ((qi(7, 3), qi(0)), (qi(0), qi(7, 3)))
        assert np.array_equal(oc.sigma0_act(ctx4, sc, mu).m, mu.m)

    def test_composition(self, ctx4):
        rng = random.Random(3)
        mu = rand_mu(ctx4, rng)
        for _ in range(25):
            g, h = rand_sigma0(rng), rand_sigma0(rng)
            lhs = oc.sigma0_act(ctx4, fld.mat_mul(g, h), mu)
            rhs = oc.sigma0_act(ctx4, h, oc.sigma0_act(ctx4, g, mu))
            assert lhs.add(rhs, -1).filtration() >= ctx4.M

    def test_filtration_preserved(self, ctx4):
        rng = random.Random(4)
        mu = rand_mu(ctx4, rng)
        for _ in range(10):
            g = rand_sigma0(rng)
            a = oc.sigma0_act(ctx4, g, mu).reduce_filtration()
            b = oc.sigma0_act(ctx4, g, mu.reduce_filtration()).reduce_filtration()
            assert np.array_equal(a.m, b.m)

    def test_rejects_bad_matrices(self, ctx4):
        mu = oc.FiniteDistribution(ctx4)
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
            full = np.array([rng.randrange(ctx.mod)
                             for _ in range(2 * ctx.M * ctx.M)])
            full = oc.FiniteDistribution(ctx, full.reshape(2, ctx.M, ctx.M))
            col = oc.FiniteDistribution(ctx, full.m[:, :, :1].copy())
            got = oc.sigma0_act(ctx, g, col).m
            assert got.shape == (2, ctx.M, 1)
            assert np.array_equal(got, oc.sigma0_act(ctx, g, full).m[:, :, :1])


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
        psi, _ = ref_lift
        assert oc.u_eigen_residual(psi, ref_uop, 1) >= 8

    def test_total_measure(self, ref_lift, ref_symbols):
        psi, _ = ref_lift
        phi, _ = ref_symbols
        mod = psi.ctx.mod
        for v, classical in zip(psi.values, phi.values):
            c0, c1 = v.moment(0, 0)
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
            values[i, 0, 0, 0] = int(v) % ctx.mod
        values[:, :, 1:, :] = rng.randrange(ctx.mod)
        values[:, :, :, 1:] = rng.randrange(ctx.mod)
        values[:, :, 0, 0] = values[:, 0, 0, 0][:, None]  # keep (0,0)
        for i, v in enumerate(phi.values):
            values[i, 0, 0, 0] = int(v) % ctx.mod
            values[i, 1, 0, 0] = 0
        for _ in range(9):
            values = ref_uop.apply(values) % ctx.mod
        ref_vals = np.stack([v.m for v in psi.values])
        diff = (values - ref_vals) % ctx.mod
        assert oc._table_filtration(ctx, diff) >= ctx.M

    def test_specialize_commutes_with_hecke(self, ref_lift):
        psi, _ = ref_lift
        moved = oc.apply_hecke_oc(psi, qi(1, 1))
        ctx = psi.ctx
        # specialization of psi is an eigenvector with eigenvalue -2, so
        # the specialization of psi|T must be -2 times it mod p^M
        for (a0, a1), (b0, b1) in zip(oc.specialize(moved), oc.specialize(psi)):
            assert (a0 + 2 * b0) % ctx.mod == 0
            assert (a1 + 2 * b1) % ctx.mod == 0

    def test_lift_rejects_non_unit_eigenvalue(self, ref_symbols, ref_prime):
        phi, _ = ref_symbols
        bad = phi.copy()
        bad.eigen = dict(bad.eigen)
        bad.eigen["lambda_p"] = 11
        with pytest.raises(ValueError):
            oc.lift(bad, 4, ref_prime)

    def test_save_load_roundtrip(self, ref_lift, tmp_path):
        psi, cert = ref_lift
        path = str(tmp_path / "lift.npz")
        oc.save_lift(path, psi, cert)
        psi2, cert2 = oc.load_lift(path, psi.p1, psi.ctx, psi.level)
        assert cert2["iterations"] == cert["iterations"]
        for a, b in zip(psi.values, psi2.values):
            assert np.array_equal(a.m, b.m)


class TestEvaluation:
    def test_gamma_invariance(self, ref_lift):
        psi, _ = ref_lift
        g = ((qi(1), qi(0)), (qi(11), qi(1)))
        r = fld.Cusp(qi(2, 3), qi(7, 1))
        s = fld.Cusp(qi(1), qi(4, 5))
        gr, gs = fld.apply_moebius(g, r), fld.apply_moebius(g, s)
        lhs = psi.ev(gr, gs)
        rhs = oc.sigma0_act(psi.ctx, fld.mat_inv_unimodular(g), psi.ev(r, s))
        assert lhs.add(rhs, -1).filtration() >= psi.ctx.M

    def test_additivity(self, ref_lift):
        psi, _ = ref_lift
        r = fld.Cusp(qi(2, 3), qi(7, 1))
        s = fld.Cusp(qi(1), qi(4, 5))
        t = fld.Cusp(qi(0, 1), qi(3))
        lhs = psi.ev(r, t)
        rhs = psi.ev(r, s).add(psi.ev(s, t))
        assert lhs.add(rhs, -1).filtration() >= psi.ctx.M
