"""Tests for the p-adic L-function: blocks, quadrature, twists, derivative."""

import gc
import weakref

import numpy as np
import pytest

import padic_reference as pref
import residue_reference as rref
from ray_reference import ref_unit_discs
from padicbianchi import cocycle as cc
from padicbianchi import field as fld
from padicbianchi import lfun
from padicbianchi import ocsymb as oc
from padicbianchi import padic
from padicbianchi.field import QuadInt


def qi(a, b=0):
    return QuadInt(a, b, 1)


@pytest.fixture(scope="module")
def mu1(ref_lift):
    psi, _ = ref_lift
    return lfun.build_mu_p(psi, qi(1))


@pytest.fixture(scope="module")
def mu3(ref_lift):
    psi, _ = ref_lift
    return lfun.build_mu_p(psi, qi(3))


def block(psi, g_mod, a, lift_offset=0):
    """The moment table of the block mu'_a = Psi{b/g - infty} | [[1, b],
    [0, g]] of the unit a, an int pair (a row of RayDistribution.units),
    b the lift a + lift_offset * g."""
    b = qi(*a) + g_mod * lift_offset
    raw = psi.ev(fld.Cusp(b, g_mod), fld.cusp_infinity(1))
    return oc.sigma0_act(psi.ctx, ((qi(1), b), (qi(0), g_mod)), raw)


def character(c, level_value):
    return next(ch for ch in fld.quadratic_ray_characters(c)
                if not ch.is_trivial() and ch(qi(11)) == level_value)


def restriction_consistency(mu):
    """Largest precision (capped at M) to which summing z^i, i < 3, over
    all the residue discs of O_p reproduces the global moments, at a unit
    modulus g (one block; the disc j + pi O is j + G O with G = g * pi).

    This checks the U_p eigen-relation route used for unit restriction: the
    disc decomposition must recover mu(z^i) for polynomial test functions."""
    if mu.ring.size != 1:
        raise ValueError("consistency check runs at a unit modulus")
    pctx = mu.pctx
    lam_inv = pctx.from_rational(1 / mu.lam)
    # Psi on the int path {0 -> infty}
    base = mu.psi.ev_paths([((0, 0, 1, 0), (1, 0, 0, 0))])[0]
    R = mu.p1.residue_ring(mu.pi)
    discs = mu.discs([R.pair(k) for k in range(R.size)])
    worst = pctx.cap
    for i in range(3):
        total = lfun._pair(discs, discs.binomial(i)).sum()
        discs.log.check()
        diff = lam_inv * total - oc.honest_moment(mu.psi.ctx, base, i, 0)
        if not diff.is_zero():
            worst = min(worst, diff.val())
    return worst


class TestBlocks:
    def test_modulus_must_avoid_p(self, ref_lift):
        psi, _ = ref_lift
        with pytest.raises(ValueError):
            lfun.build_mu_p(psi, qi(11))
        with pytest.raises(ValueError):
            lfun.build_mu_p(psi, qi(0))

    def test_trivial_modulus_single_block(self, ref_lift, mu1):
        psi, _ = ref_lift
        (a,) = mu1.units()
        base = psi.ev(fld.Cusp(qi(0), qi(1)), fld.cusp_infinity(1))
        diff = (block(psi, qi(1), a) - base) % psi.ctx.pctx.mod
        assert oc.filtration(psi.ctx, diff) >= psi.ctx.M

    def test_block_total_measure(self, ref_lift, ref_symbols, mu1):
        psi, _ = ref_lift
        phi, _ = ref_symbols
        (a,) = mu1.units()
        c0, c1 = block(psi, qi(1), a)[:, 0, 0].tolist()
        classical = phi.ev(fld.Cusp(qi(0), qi(1)), fld.cusp_infinity(1))
        assert c1 == 0 and (c0 - classical) % psi.ctx.pctx.mod == 0

    def test_lift_independence(self, ref_lift, mu3):
        psi, _ = ref_lift
        for a in mu3.units():
            diff = (block(psi, qi(3), a) - block(psi, qi(3), a, 2)) \
                % psi.ctx.pctx.mod
            assert oc.filtration(psi.ctx, diff) >= psi.ctx.M

    def test_restriction_consistency(self, mu1):
        # disc-by-disc quadrature of z^i recovers the global moments
        assert restriction_consistency(mu1) >= mu1.psi.ctx.M

    def test_restriction_consistency_unit_modulus(self, ref_lift):
        # a unit modulus other than 1: the discs have scale G = i * pi
        mu = lfun.build_mu_p(ref_lift[0], qi(0, 1))
        assert restriction_consistency(mu) >= mu.psi.ctx.M


class TestUnitDiscs:
    @pytest.mark.parametrize("g, offset", [
        ((1, 0), 0), ((3, 0), 0), ((7, 0), 0), ((4, 1), 2)])
    def test_match_quadint_route(self, ref_lift, g, offset):
        # the unit groups and the centres of the int-pair pass are those of
        # the QuadInt route, disc by disc, and each centre B lies in its
        # disc: B = a mod g and B = j mod pi
        mu = lfun.build_mu_p(ref_lift[0], qi(*g), lift_offset=offset)
        units, centres = ref_unit_discs(mu)
        assert mu.units().tolist() == [list(a) for a in units]
        unit, got = mu.unit_discs()
        assert got.tolist() == [list(B) for B in centres]
        assert unit.tolist() == [u for u in range(len(units))
                                 for _ in range(len(centres) // len(units))]
        rpi = fld.ResidueRing(mu.pi)
        js = [(j.a, j.b) for j in rref.unit_elements(rpi)]
        for k, (u, B) in enumerate(zip(unit.tolist(), got.tolist())):
            assert mu.ring.code(*B) == mu.ring.code(*units[u])
            assert rpi.code(*B) == rpi.code(*js[k % len(js)])


class TestValues:
    def test_trivial_character_exceptional_zero(self, mu1):
        assert lfun.Lp_value(mu1).is_zero()

    def test_chi3_exceptional_zero(self, mu3):
        chi = character(qi(3), 1)
        assert lfun.Lp_value(mu3, chi).is_zero()

    def test_chi3_value_lift_independent(self, ref_lift, mu3):
        psi, _ = ref_lift
        chi = character(qi(3), 1)
        other = lfun.build_mu_p(psi, qi(3), lift_offset=1)
        assert other.lift_offset == 1
        assert not np.array_equal(other.unit_discs()[1], mu3.unit_discs()[1])
        diff = lfun.Lp_value(mu3, chi) - lfun.Lp_value(other, chi)
        assert diff.is_zero()
        # the exceptional zero alone would hide a lift dependence: compare
        # values that are not zero too
        for f in (lambda mu: lfun.Lp_derivative_at(mu, chi),
                  lambda mu: lfun.Lp_value(mu, chi, s=1)):
            a, b = f(mu3), f(other)
            assert not a.is_zero()
            assert (a - b).is_zero()

    def test_teichmuller_twist_weights(self, mu3):
        # one weight call gives the weight of every disc: chi(B) w_Tm(B)^r,
        # with chi from the character's own call and the lift of the class
        # of B from the independent scalar iteration; ints for r = 0
        chi = character(qi(3), 1)
        unit, centres = mu3.unit_discs()
        plain = lfun._chi_weight(mu3, chi)(unit, centres)
        twisted = lfun._chi_weight(mu3, chi, 2)(unit, centres)
        assert len(plain) == len(twisted) == len(centres) == 960
        for k, B in enumerate(centres.tolist()):
            cv = chi(mu3.element(*B))
            assert plain[k] == cv
            got = twisted.element(k)
            if not cv:
                assert got.is_zero()
                continue
            want = cv * pref.teichmuller(mu3.pctx.embed(mu3.element(*B))) ** 2
            assert (got.c0, got.c1, got.prec) == (want.c0, want.c1, want.prec)

    def test_sign_forced_vanishing(self, ref_lift):
        # chi mod (4+i) has chi((11)) = -1: no exceptional factor (Z = 2),
        # yet the value vanishes because the completed L-value does
        psi, _ = ref_lift
        mu = lfun.build_mu_p(psi, qi(4, 1))
        chi = character(qi(4, 1), -1)
        z = lfun.Z_factor(chi, 0, mu.psi.ctx.pd, 1, mu.pctx)
        assert z == 2
        assert lfun.Lp_value(mu, chi).is_zero()

    def test_p_ramified_character(self, mu1):
        chi = next(ch for ch in fld.quadratic_ray_characters(qi(11))
                   if not ch.is_trivial())
        assert lfun.Z_factor(chi, 0, mu1.psi.ctx.pd, 1, mu1.pctx) == 1
        assert lfun.Lp_value(mu1, chi).is_zero()

    def test_rejects_deep_p_conductor(self, mu1):
        chi = character(qi(3), 1)
        with pytest.raises(ValueError):
            lfun.Lp_value(mu1, chi)

    def test_padic_s_matches_int_s(self, mu1):
        s = mu1.pctx.elt(121)
        diff = lfun.Lp_value(mu1, s=s) - lfun.Lp_value(mu1, s=121)
        assert diff.is_zero()


class TestNormPowerAtZero:
    """<z zbar>^0 = 1: at the integer s = 0 the disc integrand is disc_one,
    with the value and the precision of the expanded series on every
    disc."""

    @staticmethod
    def check(mu):
        assert lfun.disc_norm_power(0) is lfun.disc_one
        expanded = lfun.disc_norm_power(0, terms=mu.psi.ctx.M)
        discs = mu.discs(mu.unit_discs()[1])
        one, series = lfun.disc_one(mu, discs), expanded(mu, discs)
        assert len(one) == len(mu.unit_discs()[0])
        for name in ("c0", "c1", "prec"):
            assert np.array_equal(getattr(one, name), getattr(series, name))

    def test_inert(self, mu3):
        self.check(mu3)

    @pytest.mark.parametrize("m", [qi(1), qi(3), qi(4, 1)])
    def test_ramified(self, ram_lift, m):
        self.check(lfun.build_mu_p(ram_lift, m))


def new_lift(level, p, M):
    """The M lift of the new eigensymbol at level over Q(i) and p."""
    from padicbianchi import msymb as ms
    pd = fld.split_prime(p, 1)
    phi, _ = ms.find_new_eigensymbol(level, pd)
    psi, cert = oc.lift(phi, M, pd)
    assert cert["converged"]
    return psi


@pytest.fixture(scope="module")
def p7_lift():
    """The M = 5 lift at level 7+7i, p = 7 inert (the refactor gate's)."""
    return new_lift(qi(7, 7), 7, 5)


@pytest.fixture(scope="module")
def p3_lift():
    """The M = 5 lift at level 15, p = 3 inert (the refactor gate's)."""
    return new_lift(qi(15), 3, 5)


class TestBlockSum:
    """block_sum reads two total measures a unit block, lambda_p *
    Psi{b/g - infty}(1) - Psi{B0/G - infty}(1), in place of the block's
    unit-disc totals: the U_p relation. It gives the per-disc sum
    disc_sum(mu, weight, disc_one) digit for digit, with its valuation and
    precision, block by block and for every quadratic character of modulus
    g, at inert and ramified primes and for a nonzero lift_offset."""

    @staticmethod
    def check(psi, g, offset):
        mu = lfun.build_mu_p(psi, g, lift_offset=offset)
        p = mu.pctx.p
        k = len(mu.units())
        # one block alone, and unit weights that differ from block to block
        weights = [lambda unit, c, a=a: (unit == a).astype(np.int64)
                   for a in range(k)]
        weights.append(lambda unit, c: np.array(
            [1, -1, 0, p + 1, 1 - p])[unit % 5])
        weights += [lfun._chi_weight(mu, chi)
                    for chi in fld.quadratic_ray_characters(g)]
        nonzero = 0
        for weight in weights:
            got = lfun.block_sum(mu, weight)
            want = lfun.disc_sum(mu, weight, lfun.disc_one)
            assert (got.c0, got.c1, got.val(), got.prec) == \
                (want.c0, want.c1, want.val(), want.prec)
            nonzero += not got.is_zero()
        return nonzero

    # (g, lift_offset, whether some sum is nonzero): the sums at g = 1 and
    # at some other moduli are all exceptional zeros, so each configuration
    # has a modulus where they are not
    @pytest.mark.parametrize("g, offset, nonzero", [
        ((1, 0), 0, False), ((3, 0), 0, False), ((3, 0), 2, False),
        ((7, 0), 0, True), ((7, 0), 1, True)])
    def test_reference(self, ref_lift, g, offset, nonzero):
        assert bool(self.check(ref_lift[0], qi(*g), offset)) == nonzero

    @pytest.mark.parametrize("g, offset", [((1, 0), 0), ((3, 0), 1)])
    def test_ramified(self, ram_lift, g, offset):
        assert self.check(ram_lift, qi(*g), offset)

    @pytest.mark.parametrize("g, offset, nonzero", [
        ((1, 0), 0, False), ((3, 0), 0, False), ((4, 1), 1, True)])
    def test_p7(self, p7_lift, g, offset, nonzero):
        assert bool(self.check(p7_lift, qi(*g), offset)) == nonzero

    @pytest.mark.parametrize("g, offset, nonzero", [
        ((1, 0), 0, False), ((5, 0), 1, True)])
    def test_p3(self, p3_lift, g, offset, nonzero):
        assert bool(self.check(p3_lift, qi(*g), offset)) == nonzero

    def test_route(self, ref_lift, monkeypatch):
        # Lp_value takes block_sum at s = 0 for a character of modulus
        # dividing g, and the per-disc route otherwise
        psi = ref_lift[0]
        blocks = counter(monkeypatch, lfun, "block_sum",
                         lambda mu, weight: 1)
        mu1, mu3 = lfun.build_mu_p(psi, qi(1)), lfun.build_mu_p(psi, qi(3))
        chi3 = character(qi(3), 1)
        lfun.Lp_value(mu1)
        lfun.Lp_value(mu3, chi3)
        assert len(blocks) == 2
        lfun.Lp_value(mu1, s=0, terms=3)
        lfun.Lp_value(mu3, chi3, r=2)
        lfun.Lp_value(mu1, next(ch for ch in fld.quadratic_ray_characters(
            qi(11)) if not ch.is_trivial()))
        assert len(blocks) == 2


class TestZFactor:
    def test_trivial_exceptional(self, ref_prime, mu1):
        assert lfun.Z_factor(None, 0, ref_prime, 1, mu1.pctx).is_zero()

    def test_negative_al_sign(self, ref_prime, mu1):
        assert lfun.Z_factor(None, 0, ref_prime, -1, mu1.pctx) == 2

    def test_norm_power(self, ref_prime, mu1):
        z = lfun.Z_factor(None, 1, ref_prime, 1, mu1.pctx)
        assert z == 1 - 121

    def test_zero_eigenvalue_rejected(self, ref_prime, mu1):
        with pytest.raises(ValueError):
            lfun.Z_factor(None, 0, ref_prime, 0, mu1.pctx)


class TestDerivative:
    def test_nonzero_at_trivial_character(self, mu1):
        d = lfun.Lp_derivative_at(mu1)
        assert not d.is_zero()
        assert d.val() == 1

    def test_zero_symbol(self, ref_lift):
        psi, _ = ref_lift
        zero = oc.OverconvergentSymbol(psi.p1, psi.ctx, psi.level,
                                       np.zeros_like(psi.values), psi.eigen)
        mu = lfun.build_mu_p(zero, qi(1))
        assert lfun.Lp_derivative_at(mu).is_zero()

    def test_finite_difference(self, mu1):
        d = lfun.Lp_derivative_at(mu1)
        base = lfun.Lp_value(mu1)
        for m in (3, 4, 5):
            h = 11 ** m
            fd = (lfun.Lp_value(mu1, s=h) - base) / h
            assert (fd - d).is_zero()
            assert fd.prec >= 8 - m

    def test_taylor_truncation_remainder(self, mu1):
        full = lfun.Lp_value(mu1, s=121)
        for t in (5, 6, 7):
            vt = lfun.Lp_value(mu1, s=121, terms=t)
            diff = vt - full
            # degree-t tail coefficients have valuation >= t
            assert diff.is_zero() or diff.val() >= t


def counter(monkeypatch, owner, name, size=len):
    """Wrap owner.name: the returned list gets size(*args) for each
    call."""
    calls, orig = [], getattr(owner, name)

    def counted(*args):
        calls.append(size(*args))
        return orig(*args)
    monkeypatch.setattr(owner, name, counted)
    return calls


class TestIntegrateOnce:
    """Each disc is integrated once per distribution: an s = 0 value reads
    total measures, two a unit block (block_sum) or the table of them a
    disc, which forms no action matrix, and the log series of a disc is
    built once, in one stacked pass per new set of centres."""

    def test_value_at_zero_forms_no_action_matrix(self, ref_lift,
                                                  monkeypatch):
        mu = lfun.build_mu_p(ref_lift[0], qi(3))
        chi = character(qi(3), 1)
        calls = counter(monkeypatch, oc, "action_matrices",
                        lambda ctx, gs: len(gs))
        totals = counter(monkeypatch, oc.OverconvergentSymbol, "ev_totals",
                         lambda psi, paths: len(paths))
        # the 8 unit blocks mod 3 read two total measures each
        assert lfun.Lp_value(mu, chi).is_zero()
        assert calls == [] and totals == [16]
        assert mu._totals.rows == {} and mu._tables.rows == {}
        # the per-disc route reads the table of the 960 disc totals
        assert lfun.disc_sum(mu, lfun._chi_weight(mu, chi),
                             lfun.disc_one).is_zero()
        assert calls == []
        assert len(mu._totals.rows) == 960 and mu._tables.rows == {}
        lfun.Lp_value(mu, s=1)
        assert calls and len(mu._tables.rows) == 960

    def test_log_series_once_per_disc(self, ref_lift, monkeypatch):
        mu = lfun.build_mu_p(ref_lift[0], qi(1))
        rows = counter(monkeypatch, padic, "log_iw_units")
        lfun.Lp_derivative_halves(mu)
        for m in (3, 4, 5):
            lfun.Lp_value(mu, s=11 ** m)
        assert rows == [120]

    @pytest.mark.parametrize("kern", [lfun.disc_log_z, lfun.disc_log_zbar])
    def test_failing_log_series_raises_first(self, ref_lift, kern):
        # the centre 0 records "inverting zero" in its series, the non-unit
        # 11 "inverse of a non-unit"; the table keeps each disc's error,
        # and a sum raises the error of its first failing row whatever
        # was filled first, as a fresh distribution does
        mu = lfun.build_mu_p(ref_lift[0], qi(1))

        def integrate(centres, mu=mu):
            discs = mu.discs(centres)
            kern(mu, discs)
            discs.log.check()
        zero = pytest.raises(ZeroDivisionError, match="inverting")
        non_unit = pytest.raises(padic.PrecisionError, match="non-unit")
        with zero:
            integrate([(1, 0), (0, 0)])
        with non_unit:
            integrate([(11, 0), (0, 0)])
        with non_unit:
            integrate([(11, 0), (0, 0)],
                      lfun.build_mu_p(ref_lift[0], qi(1)))
        with zero:
            integrate([(0, 0), (11, 0)])
        integrate([(1, 0), (2, 0)])
        # disc_one reads no log series
        discs = mu.discs([(0, 0)])
        lfun.disc_one(mu, discs)
        discs.log.check()

    def test_freed_by_reference_counting(self, ref_lift):
        # no table keeps a fill function that closes over its
        # distribution, so a filled distribution is freed without the
        # cyclic collector
        psi = ref_lift[0]
        was = gc.isenabled()
        gc.disable()
        try:
            mu = lfun.build_mu_p(psi, qi(3))
            lfun.disc_sum(mu, lfun._chi_weight(mu, character(qi(3), 1)),
                          lfun.disc_one)
            lfun.disc_log_z(mu, mu.discs([(1, 0), (2, 0)]))
            assert mu._totals.rows and mu._lines.rows and mu._logs.rows
            ref = weakref.ref(mu)
            del mu
            assert ref() is None
        finally:
            if was:
                gc.enable()

    def test_reference_counts(self, ref_symbols, ref_prime, ref_lift,
                              monkeypatch):
        # accept --criteria 3,5,6,9 fills 120 discs as full tables (mu(1),
        # for the three s = 11^m values; 720 before the log kernels read
        # the lines) and 600 as lines (720 while criterion 9 took its
        # derivative before the values at s = 11^m, which now serve the
        # derivative and the value at 0 of mu(1) from the full tables),
        # decomposes at most CHUNK = 128 paths at once (960 before
        # ev_totals ran in blocks), and builds 3 log series (11 with one
        # per kernel call); linv builds 2 (6). The default data (3, 1) and
        # (3, 2) have the same blocks J_v = {1, 2} (pi = 2 mod 3), so the
        # second builds none
        from padicbianchi import acceptance as acc
        from padicbianchi import msymb as ms
        phi, _ = ref_symbols
        psi, cert = ref_lift
        logs = counter(monkeypatch, padic, "log_iw_units")
        batches = counter(monkeypatch, ms.ManinLayer, "path_terms",
                          lambda layer, paths: len(paths))
        ctx = acc.AcceptanceContext(phi, psi, cert, ref_prime)
        results = acc.run_criteria(ctx, {3, 5, 6, 9})
        assert all(r["passed"] for r in results)
        mus = ctx.fam._mus.values()
        assert sum(len(mu._tables.rows) for mu in mus) == 120
        assert sum(len(mu._lines.rows) for mu in mus) == 600
        mu1 = ctx.fam.mu(qi(1))
        assert len(mu1._tables.rows) == 120
        assert mu1._lines.rows == {} and mu1._totals.rows == {}
        assert max(batches) == oc.CHUNK == 128
        assert logs == [240, 360, 120]
        del logs[:]
        cc.l_invariant(cc.TreeFamily(phi, ref_prime, psi=psi))
        assert logs == [240, 360]


def pin(x):
    return (x.c0, x.c1, x.prec)


class TestGoldenPins:
    """(c0, c1, prec) of disc integrals on the reference and the ramified
    lifts. The precision of a disc integral depends on the association
    order of its products, so a change in the kernel's arithmetic shows
    here even where the value is zero to its precision."""

    @pytest.mark.parametrize("m, want", [
        (3, (88519486, 0, 8)),
        (4, (116278822, 0, 8)),
        (5, (207272637, 0, 8)),
    ])
    def test_value_near_zero(self, mu1, m, want):
        assert pin(lfun.Lp_value(mu1, s=11 ** m)) == want

    def test_derivative_halves(self, mu1):
        assert [pin(x) for x in lfun.Lp_derivative_halves(mu1)] == \
            [(62359990, 0, 8), (62359990, 0, 8)]

    def test_criterion_5_value(self, ref_symbols, ref_prime, ref_lift):
        phi, _ = ref_symbols
        psi, _ = ref_lift
        fam = cc.TreeFamily(phi, ref_prime, psi=psi)
        chi = character(qi(3), fam.omega)
        assert pin(lfun.Lp_value(fam.mu(qi(3)), chi)) == (0, 0, 8)

    def test_lc_halves_default_data(self, ref_symbols, ref_prime, ref_lift):
        phi, _ = ref_symbols
        psi, _ = ref_lift
        fam = cc.TreeFamily(phi, ref_prime, psi=psi)
        want = {(3, 1): 66261074, (3, 2): 66261074, (7, 1): 42883247}
        for c, v in fld.default_embedding_data(ref_prime.p, 1):
            datum = cc.EmbeddingDatum(ref_prime, c, v, fam.omega)
            got = [pin(x) for x in cc.lc_halves(fam, datum)]
            assert got == [(want[c.a, v.a], 0, 8)] * 2

    @pytest.mark.parametrize("m, values, halves", [
        (qi(3), [(48, 0, 12), (0, 0, 9), (16, 32, 10)],
         [(28, 40, 4), (44, 24, 4)]),
        (qi(4, 1), [(16, 0, 12), (48, 0, 8), (16, 32, 10)],
         [(4, 48, 4), (36, 16, 4)]),
    ])
    def test_ramified(self, ram_lift, m, values, halves):
        mu = lfun.build_mu_p(ram_lift, m)
        assert [pin(lfun.Lp_value(mu, s=s)) for s in (0, 1, 2)] == values
        assert [pin(x) for x in lfun.Lp_derivative_halves(mu)] == halves
