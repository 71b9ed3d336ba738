"""Tests for the tree cocycles, embedding data, and the L-invariant."""

import random
from fractions import Fraction

import numpy as np
import pytest

import edge_reference as eref
import residue_reference as rref
from padicbianchi import acceptance as acc
from padicbianchi import btree as bt
from padicbianchi import cocycle as cc
from padicbianchi import field as fld
from padicbianchi import lfun
from padicbianchi import msymb as ms
from padicbianchi import ocsymb as oc
from padicbianchi.field import QuadInt


def qi(a, b=0):
    return QuadInt(a, b, 1)


def lc_eval(fam, datum):
    """lc at the datum: the sum of its log_iw(z) and log_iw(zbar) halves."""
    lz, lzbar = cc.lc_halves(fam, datum)
    return lz + lzbar


@pytest.fixture(scope="module")
def fam(ref_symbols, ref_prime, ref_lift):
    phi, _ = ref_symbols
    psi, _ = ref_lift
    return cc.TreeFamily(phi, ref_prime, psi=psi)


@pytest.fixture(scope="module")
def dat3(ref_prime, fam):
    return cc.EmbeddingDatum(ref_prime, qi(3), qi(1), fam.omega)


@pytest.fixture(scope="module")
def tau(fam):
    # an endpoint with unit second coordinate, well inside the upper half
    return fam.ext2.elt(fam.pctx.zero(), fam.pctx.one())


PATH = (fld.Cusp(qi(2, 3), qi(7)), fld.Cusp(qi(1), qi(4, 5)))


def sample_edges(tree, rng, count):
    out = [tree.standard_edge(), tree.standard_edge().reverse()]
    while len(out) < count:
        a = rng.randint(-2, 2)
        u = tree.uclass((rng.randint(0, 12), rng.randint(0, 12)), (1, 0), a)
        e = bt.Edge(rng.randint(0, 1), a, u)
        if e not in out:
            out.append(e)
    return out


def gamma_tilde_elements(rng, count):
    z, o = qi(0), qi(1)
    gens = [
        ((o, o), (z, o)),
        ((o, z), (qi(11), o)),
        ((z, -o), (qi(11), z)),
        ((o, qi(3)), (z, qi(11))),
        ((qi(0, 1), z), (z, qi(0, 1))),
    ]
    out = []
    for _ in range(count):
        g = fld.identity_mat(1)
        for _ in range(rng.randint(1, 4)):
            g = fld.mat_mul(g, gens[rng.randrange(len(gens))])
        out.append(g)
    return out


class TestHarmonicity:
    def test_new_symbol_harmonic(self, fam):
        rep = cc.harmonicity_check(fam)
        assert rep["harmonic"]
        assert rep["max_residual"] == 0

    def test_eisenstein_harmonic(self, ref_symbols, ref_prime):
        # Steinberg type at this level: U_p eigenvalue 1, trace to (1) zero
        _, eis = ref_symbols
        fam_e = cc.TreeFamily(eis, ref_prime, omega=-1)
        assert cc.harmonicity_check(fam_e)["harmonic"]

    def test_induced_old_symbol_fails(self, ref_prime):
        p1_3, basis = ms.build_symbol_space(qi(3))
        phi3 = ms.ModularSymbol(p1_3, basis[0], qi(3), 1)
        for scaled in (False, True):
            old = cc.induced_old_symbol(phi3, qi(11), qi(33), scaled=scaled)
            rep = cc.harmonicity_check(cc.TreeFamily(old, ref_prime, omega=1))
            assert not rep["harmonic"]
            assert rep["max_residual"] >= 1

    def test_antisymmetry(self, fam):
        rng = random.Random(3)
        r, s = PATH
        for e in sample_edges(fam.tree, rng, 20):
            assert fam.ev([e], r, s) == [-x for x in fam.ev([e.reverse()],
                                                            r, s)]

    def test_equivariance(self, fam):
        rng = random.Random(5)
        r, s = PATH
        edges = sample_edges(fam.tree, rng, 4)
        for g in gamma_tilde_elements(rng, 10):
            gr, gs = fld.apply_moebius(g, r), fld.apply_moebius(g, s)
            g8 = fld.mat_pairs(g)
            assert fam.ev([fam.tree.act(g8, e) for e in edges], gr, gs) \
                == fam.ev(edges, r, s)


class TestEdgeDistribution:
    def test_matches_classical_total(self, fam):
        r, s = PATH
        e = fam.tree.standard_edge()
        v = cc.edge_integrals(fam, [e], r, s, {(0, 0): 1}).element(0)
        diff = v - fam.pctx.from_rational(Fraction(fam.ev([e], r, s)[0]))
        assert diff.is_zero()

    def test_gluing(self, fam):
        rng = random.Random(9)
        r, s = PATH
        zeta = {(0, 0): 3, (1, 0): 2, (1, 1): 1, (0, 2): -1}
        tree = fam.tree
        edges = [tree.standard_edge()]
        while len(edges) < 10:
            # bounded balls inside the integers keep the series integral
            a = rng.randint(1, 2)
            u = tree.uclass((rng.randint(0, 12), rng.randint(0, 12)),
                            (1, 0), a)
            e = bt.Edge(0, a, u)
            if e not in edges:
                edges.append(e)
        whole = cc.edge_integrals(fam, edges, r, s, zeta)
        for k, e in enumerate(edges):
            parts = cc.edge_integrals(fam, cc.ball_children(tree, e), r, s,
                                      zeta)
            assert (whole.element(k) - parts.sum()).is_zero()

    def test_global_constant_integrates_to_zero(self, fam):
        rng = random.Random(11)
        r, s = PATH
        cover = cc.full_cover(fam)
        for _ in range(5):
            zeta = {(0, 0): rng.randint(-50, 50)}
            assert cc.edge_integrals(fam, cover, r, s, zeta).sum().is_zero()

    def test_unbounded_ball_rejects_nonconstant(self, fam):
        r, s = PATH
        e = fam.tree.standard_edge().reverse()
        with pytest.raises(cc.SupportError):
            cc.edge_integrals(fam, [e], r, s, {(1, 0): 1})

    def test_no_lift_no_distribution(self, ref_symbols, ref_prime):
        phi, _ = ref_symbols
        bare = cc.TreeFamily(phi, ref_prime)
        r, s = PATH
        with pytest.raises(ValueError):
            cc.edge_integrals(bare, [bare.tree.standard_edge()], r, s,
                              {(0, 0): 1})


def rows(stack):
    return [(int(a), int(b), int(c))
            for a, b, c in zip(stack.c0, stack.c1, stack.prec)]


def reference_rows(fam, edges, r, s, zeta):
    return [(x.c0, x.c1, x.prec) for x in
            (eref.edge_distribution(fam, e, r, s, zeta) for e in edges)]


def counting(mp, owner, name, counts):
    """Patch owner.name on mp to append its first argument to counts."""
    fn = getattr(owner, name)

    def counted(*args):
        counts.append(args[0])
        return fn(*args)
    mp.setattr(owner, name, counted)


def run_criterion_8(phi, psi, pd):
    """Criterion 8 on the family of phi and psi: its edge_integrals calls
    as (fam, edges, r, s, zeta, result), the number of ev_paths passes it
    makes and the number of Tree.rep_row calls."""
    calls, passes, reps = [], [], []
    integrals = cc.edge_integrals

    def recorded(fam, edges, r, s, zeta):
        out = integrals(fam, edges, r, s, zeta)
        calls.append((fam, list(edges), r, s, dict(zeta), out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cc, "edge_integrals", recorded)
        counting(mp, oc.OverconvergentSymbol, "ev_paths", passes)
        counting(mp, bt.Tree, "rep_row", reps)
        acc._criterion_8(acc.AcceptanceContext(phi, psi, {}, pd), {})
    return calls, len(passes), len(reps)


class TestEdgeIntegrals:
    """edge_integrals against the scalar reference of edge_reference, row
    by row in value and precision, on the edge sets of criterion 8: at
    p = 11 the 5 totals over the 122 balls of full_cover (a flipped ball
    with a constant among them), 10 edges and their 1,210 children; at
    p = 2 the totals over 3 balls, 7 edges and their 14 children."""

    @pytest.fixture(scope="class")
    def ref_run(self, ref_symbols, ref_lift, ref_prime):
        return run_criterion_8(ref_symbols[0], ref_lift[0], ref_prime)

    @staticmethod
    def check(calls, sizes):
        assert [len(c[1]) for c in calls] == sizes
        for fam, edges, r, s, zeta, out in calls:
            assert rows(out) == reference_rows(fam, edges, r, s, zeta)

    def test_reference_p11(self, ref_run):
        self.check(ref_run[0], [122] * 5 + [10, 1210])

    def test_reference_p2(self, ram_symbol, ram_lift):
        phi, pd = ram_symbol
        calls, _, _ = run_criterion_8(phi, ram_lift, pd)
        self.check(calls, [3] * 5 + [7, 14])

    def test_one_pass_per_integral(self, ref_run):
        # 5 totals, the whole edges and their children: a fall-back to one
        # ev_paths pass per edge would make 1,215
        assert ref_run[1] <= 7

    def test_one_rep_per_edge(self, ref_run):
        # each edge builds its edge_rep once, for its ball and its path:
        # 1,830 edges, where building it twice made 3,655 calls
        calls, _, reps = ref_run
        assert reps == sum(len(c[1]) for c in calls) == 1830

    def test_paths_match_cusp_route(self, ref_run):
        # TreeFamily.paths against the normalised Cusp route of
        # edge_reference, on the edge sets of criterion 8 and on the edges
        # into v_* and 5 sampled vertices with the paths of the harmonicity
        # check: the same ratio per cusp, the same classical values and
        # bit-equal ev_paths tables
        calls = ref_run[0]
        fam = calls[0][0]
        tree = fam.tree
        cases = [(edges, r, s) for _, edges, r, s, _, _ in calls[4:]]
        into = [e for v in [tree.standard_vertex()]
                + cc._sample_vertices(tree, 5, 5)
                for e in tree.neighbors_with_target(v)]
        for r, s in ((fld.Cusp(qi(2, 3), qi(7)), fld.cusp_infinity(1)),
                     (fld.Cusp(qi(1), qi(4, 5)), fld.Cusp(qi(0, 1), qi(3)))):
            cases.append((into, r, s))
        assert sum(len(c[0]) for c in cases) == 122 + 10 + 1210 + 2 * 6 * 122
        for edges, r, s in cases:
            reps = [fam.edge_rep(e) for e in edges]
            paths = fam.paths(reps, r, s)
            cusps = [eref.cusp_path(g, r, s) for g in reps]
            for path, cusp_pair in zip(paths.tolist(), cusps):
                for (na, nb, da, db), c in zip((path[:4], path[4:]),
                                               cusp_pair):
                    assert qi(na, nb) * c.den == qi(da, db) * c.num
            assert fam.phi.ev_paths(paths) == [fam.phi.ev(*c) for c in cusps]
            assert np.array_equal(fam.psi.ev_paths(paths), fam.psi.ev_paths(
                [(cr.v, cs.v) for cr, cs in cusps]))

    def test_flipped_ball(self, fam):
        r, s = PATH
        e = fam.tree.standard_edge()
        edges = [e.reverse(), e]
        zeta = {(0, 0): 5, (1, 0): 0}
        got = cc.edge_integrals(fam, edges, r, s, zeta)
        assert rows(got) == reference_rows(fam, edges, r, s, zeta)
        zeta = {(0, 0): 5, (0, 1): 2}
        with pytest.raises(cc.SupportError):
            eref.edge_distribution(fam, e.reverse(), r, s, zeta)
        with pytest.raises(cc.SupportError):
            cc.edge_integrals(fam, edges, r, s, zeta)


class TestEmbeddingData:
    def test_derived_quantities(self, ref_prime, fam):
        table = [
            (qi(3), qi(1), 2, 2, 1),
            (qi(3), qi(2), 2, 2, 1),
            (qi(7), qi(1), 3, 6, 2),
            (qi(4, 1), qi(1), 16, 16, 1),
        ]
        for c, v, sp, s, beta in table:
            dat = cc.EmbeddingDatum(ref_prime, c, v, fam.omega)
            assert (dat.s_prime, dat.s, dat.beta) == (sp, s, beta)

    @pytest.mark.parametrize("p", [2, 3, 7, 11])
    def test_orders_and_coset_match_quadint_reference(self, p):
        # s', s and J_v (by residue code, in the order of first visit)
        # are those of the QuadInt reference, on the default data of p
        # and on 3:1+i and 7:5i where c is coprime to p
        pd = fld.split_prime(p, 1)
        data = fld.default_embedding_data(p, 1) + [
            (qi(c), v) for c, v in ((3, qi(1, 1)), (7, qi(0, 5))) if c % p]
        for c, v in data:
            dat = cc.EmbeddingDatum(pd, c, v, 1)
            sp, s, J = rref.ref_embedding(dat.ring, pd.pi, v)
            assert (dat.s_prime, dat.s) == (sp, s)
            assert list(dat.J.items()) == [
                (dat.ring.code(a.a, a.b), j) for a, j in J.items()]
            assert [dat.ring.pair(k) for k in dat.J] == [
                (a.a, a.b) for a in J]

    def test_beta_zero_branch(self, ref_prime):
        dat = cc.EmbeddingDatum(ref_prime, qi(7), qi(1), -1)
        assert dat.beta == 0

    def test_rejects_bad_data(self, ref_prime):
        # one named error for the data the prime rules out, among them 7:1
        # at p = 7, which the defaults at p = 7 leave out
        for pd, c, v in ((ref_prime, 11, 1), (ref_prime, 9, 3),
                         (ref_prime, 3, 0), (ref_prime, 0, 1),
                         (fld.split_prime(7, 1), 7, 1)):
            with pytest.raises(cc.EmbeddingDatumError):
                cc.EmbeddingDatum(pd, qi(c), qi(v), 1)

    def test_gamma_fixes_both_cusps(self, dat3):
        g = dat3.gamma()
        assert fld.apply_moebius(g, dat3.cusp()) == dat3.cusp()
        assert fld.apply_moebius(g, fld.cusp_infinity(1)).is_infinity()

    def test_gamma_translates_geodesic(self, fam, dat3):
        g = dat3.gamma()
        edges = bt.cusp_pair_path(fam.tree, (dat3.c.a, dat3.c.b),
                                  (dat3.v.a, dat3.v.b), 1, 2 * dat3.s)
        for i in range(len(edges) - dat3.s):
            assert fam.tree.act(fld.mat_pairs(g), edges[i]) \
                == edges[i + dat3.s]

    def test_coboundary_vanishes(self, ref_symbols, ref_prime, fam):
        phi, eis = ref_symbols
        for c, v in fld.default_embedding_data(ref_prime.p, 1):
            dat = cc.EmbeddingDatum(ref_prime, c, v, fam.omega)
            assert cc.coboundary_eval(phi, dat) == 0
            assert cc.coboundary_eval(eis, dat) == 0


class TestCountingCocycle:
    def test_reference_values(self, fam, ref_prime):
        expected = {(3, 1): -18, (3, 2): -18, (7, 1): -44}
        for (cv, vv), want in expected.items():
            dat = cc.EmbeddingDatum(ref_prime, qi(cv), qi(vv), fam.omega)
            assert cc.oc_closed_route(fam, dat) == want
            assert cc.oc_tree_route(fam, dat) == want

    def test_window_shift_invariance(self, fam, dat3):
        vals = {cc.oc_tree_route(fam, dat3, window=w) for w in (1, 2, 3)}
        assert len(vals) == 1

    def test_chi_weighted_matches_algebraic_sum(self, fam, dat3):
        chi = next(ch for ch in fld.quadratic_ray_characters(qi(3))
                   if not ch.is_trivial() and ch(qi(11)) == fam.omega)
        lhs = cc.chi_weighted_oc(fam, chi)
        assert lhs == dat3.s * ms.algebraic_L_sum(fam.phi, chi)

    def test_hecke_eigenproperty(self, fam, ref_prime, dat3):
        moved = cc.TreeFamily(ms.apply_hecke(fam.phi, qi(1, 1)), ref_prime,
                              omega=fam.omega)
        assert cc.oc_closed_route(moved, dat3) == \
            -2 * cc.oc_closed_route(fam, dat3)


class TestLogCocycle:
    def test_datum_independence_of_ratio(self, fam, ref_prime):
        ratios = []
        for c, v in fld.default_embedding_data(ref_prime.p, 1):
            dat = cc.EmbeddingDatum(ref_prime, c, v, fam.omega)
            lc = lc_eval(fam, dat)
            ocv = cc.oc_closed_route(fam, dat)
            ratios.append(lc / fam.pctx.from_rational(Fraction(ocv)))
        for r in ratios[1:]:
            d = r - ratios[0]
            assert d.is_zero() or d.val() >= 5

    def test_constant_kernel_vanishes(self, fam, dat3):
        # the integral of the constant over the cycle's fundamental domain
        assert lfun.disc_sum(*cc._lc_setup(fam, dat3, None),
                             lfun.disc_one).is_zero()

    def test_chi_weighted_matches_derivative(self, fam, ref_lift, dat3):
        psi, _ = ref_lift
        chi = next(ch for ch in fld.quadratic_ray_characters(qi(3))
                   if not ch.is_trivial() and ch(qi(11)) == fam.omega)
        mu = lfun.build_mu_p(psi, qi(3))
        lhs = cc.chi_weighted_lc(fam, chi, mu=mu)
        rhs = dat3.s * lfun.Lp_derivative_at(mu, chi)
        assert (lhs - rhs).is_zero()

    def test_hecke_eigenproperty(self, fam, ref_prime, ref_lift, dat3):
        psi, _ = ref_lift
        p1 = psi.p1
        u_op = oc.UOperator(psi.ctx, p1.hecke_terms(p1.hecke_reps(qi(1, 1))))
        psi_t = oc.OverconvergentSymbol(p1, psi.ctx, psi.level,
                                        u_op.apply(psi.values), psi.eigen)
        moved = cc.TreeFamily(ms.apply_hecke(fam.phi, qi(1, 1)), ref_prime,
                              psi=psi_t, omega=fam.omega)
        d = lc_eval(moved, dat3) + 2 * lc_eval(fam, dat3)
        assert d.is_zero()


class TestDoubleIntegral:
    def test_equal_endpoints(self, fam, tau):
        r, s = PATH
        assert cc.double_integral(fam, tau, tau, r, s).is_zero()

    def test_additivity_in_endpoints(self, fam, tau):
        r, s = PATH
        e2 = fam.ext2
        x = e2.elt(fam.pctx.elt(3), fam.pctx.elt(1))
        y = e2.elt(fam.pctx.elt(1, 1), fam.pctx.elt(2))
        lhs = cc.double_integral(fam, tau, y, r, s)
        rhs = cc.double_integral(fam, tau, x, r, s) \
            + cc.double_integral(fam, x, y, r, s)
        d = lhs - rhs
        assert d.is_zero() or d.val() >= 5

    def test_matches_closed_form(self, fam, dat3, tau):
        lc = lc_eval(fam, dat3)
        di = cc.lc_via_double_integral(fam, dat3, tau)
        da = di.a - lc
        assert da.is_zero() or da.val() >= 5
        assert di.b.is_zero() or di.b.val() >= 5

    def test_tau_independence(self, fam, dat3, tau):
        other = fam.ext2.elt(fam.pctx.elt(5), fam.pctx.elt(3, 2))
        d = cc.lc_via_double_integral(fam, dat3, tau) \
            - cc.lc_via_double_integral(fam, dat3, other)
        assert (d.a.is_zero() or d.a.val() >= 5) \
            and (d.b.is_zero() or d.b.val() >= 5)

    def test_one_rep_per_edge(self, fam, tau):
        # each edge _log_leaves visits builds its edge_rep once, and the
        # leaves' paths reuse it
        r, s = PATH
        x = fam.ext2.elt(fam.pctx.elt(3), fam.pctx.elt(1))
        visits, reps = [], []
        with pytest.MonkeyPatch.context() as mp:
            counting(mp, cc, "_log_leaves", visits)
            counting(mp, bt.Tree, "rep_row", reps)
            cc.double_integral(fam, tau, x, r, s)
        assert len(reps) == len(visits) >= len(cc.full_cover(fam))

    def test_extension_log(self, fam):
        e2 = fam.ext2
        x = e2.elt(fam.pctx.elt(2), fam.pctx.elt(7))
        y = e2.elt(fam.pctx.elt(4, 3), fam.pctx.elt(1, 1))
        d = cc.ext2_log(x * y) - (cc.ext2_log(x) + cc.ext2_log(y))
        assert d.is_zero() or d.val() >= 5

    def test_conj_extends_completion_conjugation(self, fam):
        # a ring automorphism over conj of the completion, whose square is
        # the automorphism sqrt(sigma) -> -sqrt(sigma) over the completion
        e2 = fam.ext2
        x = e2.elt(fam.pctx.elt(2, 5), fam.pctx.elt(7, 3))
        y = e2.elt(fam.pctx.elt(4, 3), fam.pctx.elt(1, 1))
        assert ((x * y).conj() - x.conj() * y.conj()).is_zero()
        assert (e2.elt(x.a).conj() - e2.elt(x.a.conj())).is_zero()
        assert (x.conj().conj() - e2.elt(x.a, -x.b)).is_zero()

    def test_log_kills_uniformizer(self, fam):
        e2 = fam.ext2
        p_elt = e2.elt(fam.pctx.elt(11), fam.pctx.zero())
        assert cc.ext2_log(p_elt).is_zero()


class TestLInvariant:
    def test_certificate(self, fam):
        cert = cc.l_invariant(fam)
        assert len(cert.entries) == 3
        assert not cert.skipped
        assert cert.agreement >= 5
        li = cert.l_invariant
        assert not li.is_zero() and li.val() == 1

    def test_ratio_entries_agree(self, fam):
        cert = cc.l_invariant(fam)
        base = cert.l_invariant
        for entry in cert.entries:
            assert int(entry["ratio"]["coeffs"][0]) % 11 ** 5 \
                == (base.c0 % 11 ** 5)

    def test_unit_scaling_invariance(self, fam, ref_prime, ref_lift):
        psi, _ = ref_lift
        psi3 = oc.OverconvergentSymbol(psi.p1, psi.ctx, psi.level,
                                       psi.values * 3 % psi.ctx.pctx.mod,
                                       psi.eigen)
        scaled = cc.TreeFamily(fam.phi.scale(3), ref_prime, psi=psi3,
                               omega=fam.omega)
        d = cc.l_invariant(scaled).l_invariant - cc.l_invariant(fam).l_invariant
        assert d.is_zero() or d.val() >= 5

    def test_beta_zero_data_skipped(self, fam, ref_prime, ref_lift):
        psi, _ = ref_lift
        neg = cc.TreeFamily(fam.phi, ref_prime, psi=psi, omega=-1)
        with pytest.raises(cc.NonVanishingError):
            cc.l_invariant(neg, data=[(qi(7), qi(1))])

    def test_json_roundtrip(self, fam):
        import json
        cert = cc.l_invariant(fam)
        blob = json.dumps(cert.to_json(), sort_keys=True)
        assert json.loads(blob)["precision_floor"] >= 5
