"""Tests for the classical side: Tate periods, rational symbols, lifting,
one-variable L-values, and the cyclotomic factorization."""

from fractions import Fraction
from math import gcd

import pytest
from euclid_reference import pair_path
from ray_reference import ref_unit_discs

from padicbianchi import basechange as bc
from padicbianchi import field as fld
from padicbianchi import manin
from padicbianchi import lfun
from padicbianchi import msymb as ms
from padicbianchi import ocsymb as oc
from padicbianchi.field import QuadInt


def qi(a, b=0):
    return QuadInt(a, b, 1)


def rational_key(N, c, d):
    """The canonical representative of (c : d) in P^1(Z/N): the least of
    (c*u mod N, d*u mod N) over the units u."""
    return min((c * u % N, d * u % N) for u in range(1, N) if gcd(u, N) == 1)


def rational_index(p1):
    """{rational_key: generator index} over the generators of p1."""
    return {rational_key(p1.N, c, d): i for i, (c, d) in enumerate(p1.reps)}


@pytest.fixture(scope="module")
def mu_bianchi(ref_lift):
    psi, _ = ref_lift
    return lfun.build_mu_p(psi, qi(1))


class TestTatePeriod:
    def test_curve_invariants(self):
        inv = bc.curve_invariants(bc.CURVES["11a"])
        assert inv["c4"] == 496
        assert inv["disc"] == -(11 ** 5)
        assert inv["j"] == Fraction(496 ** 3, -(11 ** 5))

    def test_valuation_matches_discriminant(self):
        q, v = bc.tate_period(bc.CURVES["11a"], 11, 8)
        assert v == 5
        assert q % 11 ** 5 == 0 and (q // 11 ** 5) % 11 != 0

    def test_ramified_curve(self):
        q, v = bc.tate_period(bc.CURVES["14a"], 2, 6)
        assert v == 6

    def test_good_reduction_rejected(self):
        with pytest.raises(ValueError, match="good reduction"):
            bc.tate_period(bc.CURVES["11a"], 7, 8)

    def test_additive_reduction_rejected(self):
        # y^2 = x^3 + 1 has additive reduction at 2
        with pytest.raises(ValueError, match="additive"):
            bc.tate_period((0, 0, 0, 0, 1), 2, 6)

    def test_sigma3_gives_e4(self):
        # E4 = 1 + 240 sum sigma_3(n) q^n
        assert [240 * bc._sigma3(n) for n in range(1, 6)] == \
            [240, 2160, 6720, 17520, 30240]

    def test_l_invariant_value(self):
        li = bc.classical_l_invariant(bc.CURVES["11a"], 11, 8)
        assert li.val() == 1
        assert li.c0 % 11 ** 8 == 91589443

    def test_l_invariant_ramified(self):
        li = bc.classical_l_invariant(bc.CURVES["14a"], 2, 6)
        assert li.val() == 3
        assert li.c0 % 2 ** li.prec == 8


class TestRationalSymbols:
    def test_space_dimension(self):
        _, basis = bc.build_rational_symbol_space(11)
        assert len(basis) == 3

    def test_p1_size(self):
        assert len(bc.RationalP1(11)) == 12

    @pytest.mark.parametrize("N", [11, 14, 15])
    def test_table_matches_min_over_units(self, N):
        # the generators are the canonical keys in order of first
        # appearance in the (c, d) scan, and the table maps each point to
        # its key's generator (-1 off P^1)
        p1 = bc.RationalP1(N)
        keys, table = [], []
        for c in range(N):
            row = []
            for d in range(N):
                if gcd(gcd(c, d), N) != 1:
                    row.append(-1)
                    continue
                key = rational_key(N, c, d)
                if key not in keys:
                    keys.append(key)
                row.append(keys.index(key))
            table.append(row)
        assert p1.reps == keys
        assert p1._table.tolist() == table
        assert [p1.reduce(c + N, d - 2 * N) for c, d in keys] == \
            list(range(len(keys)))

    @pytest.mark.parametrize("N", [11, 14, 15])
    def test_parity_matches_reference(self, N):
        p1 = bc.RationalP1(N)
        index = rational_index(p1)
        phi = ms.ModularSymbol(p1, [Fraction(i) for i in range(len(p1))],
                               N, None)
        assert bc.apply_parity_involution(phi).values == \
            [phi.values[index[rational_key(N, -c, d)]] for c, d in p1.reps]

    def test_pinned_symbols(self, rational_pair):
        plus, minus = rational_pair
        assert [int(v) for v in plus.values] == \
            [-2, 2, 0, 10, 5, -5, -10, -10, -5, 5, 10, 0]
        assert [int(v) for v in minus.values] == \
            [0, 0, 0, 0, -1, -1, 0, 0, 1, 1, 0, 0]
        assert all(v.denominator == 1 for v in plus.values + minus.values)

    def test_path_composition(self, rational_pair):
        plus, _ = rational_pair
        r, s, t = Fraction(0), Fraction(1, 3), Fraction(2, 7)
        assert plus.ev(r, s) + plus.ev(s, t) == plus.ev(r, t)

    def test_unimodular_path_determinants(self):
        # the field kernel on real cusps gives pieces in SL_2(Z)
        p1 = bc.RationalP1(11)
        _, _, G = manin.manin_pieces(p1.S, p1.T, [
            p1.cusp_pairs(Fraction(17, 43)) + p1.cusp_pairs(Fraction(-5, 9))])
        assert len(G)
        for a, aw, b, bw, c, cw, d, dw in G.tolist():
            assert aw == bw == cw == dw == 0
            assert a * d - b * c == 1

    @pytest.mark.parametrize("N", [11, 14, 15])
    def test_rows_match_scalar_reference(self, N):
        # the stacked rows of T_2 (T_3 at even N), U_p and the unit matrix
        # against the scalar decomposition, piece by piece with the
        # min-over-units key
        p1 = bc.RationalP1(N)
        index = rational_index(p1)
        ell = 3 if N % 2 == 0 else 2
        p = {11: 11, 14: 7, 15: 5}[N]
        for mats in (p1.hecke_reps(ell), p1.hecke_reps(p)[:p],
                     [((1, 0), (0, 1))]):
            want = [{} for _ in range(len(p1))]
            for i in range(len(p1)):
                (a, b), (c, d) = p1.lift_matrix(i)
                for (e, f), (g, h) in mats:
                    r = (e * b + f * d, 0, g * b + h * d, 0)
                    s = (e * a + f * c, 0, g * a + h * c, 0)
                    for sign, x in pair_path(p1.S, p1.T, r, s):
                        j = index[rational_key(N, x[4], x[6])]
                        want[i][j] = want[i].get(j, 0) + sign
            want = [{j: k for j, k in row.items() if k} for row in want]
            assert p1.path_rows(mats) == want

    def test_unit_ap(self, rational_pair):
        plus, minus = rational_pair
        assert plus.eigen["lambda_p"] == 1
        assert minus.eigen["lambda_p"] == 1

    def test_helper_eigenvalue(self, rational_pair):
        plus, _ = rational_pair
        img = ms.apply_hecke(plus, 2)
        assert img.values == [-2 * v for v in plus.values]

    def test_parity(self, rational_pair):
        plus, minus = rational_pair
        assert bc.apply_parity_involution(plus).values == plus.values
        assert bc.apply_parity_involution(minus).values == \
            [-v for v in minus.values]

    def test_minus_not_zero(self, rational_pair):
        _, minus = rational_pair
        assert not minus.is_zero()


class TestRationalLift:
    def test_converged(self, rational_lifts):
        (_, cert_p), (_, cert_m) = rational_lifts
        assert cert_p["converged"] and cert_m["converged"]
        assert cert_p["iterations"] <= 9

    def test_filtration_gains(self, rational_lifts):
        (_, cert), _ = rational_lifts
        fils = cert["increment_filtrations"]
        assert all(b - a >= 1 for a, b in zip(fils, fils[1:]))

    def test_control_round_trip(self, rational_lifts, rational_pair):
        (psi_p, _), (psi_m, _) = rational_lifts
        plus, minus = rational_pair
        assert oc.specialize_matches(psi_p, plus)
        assert oc.specialize_matches(psi_m, minus)

    def test_ev_specializes(self, rational_lifts, rational_pair):
        (psi_p, _), _ = rational_lifts
        plus, _ = rational_pair
        got = int(psi_p.ev(Fraction(1, 3), None)[0, 0, 0])
        want = int(plus.ev(Fraction(1, 3), None))
        assert (got - want) % 11 ** 8 == 0


class TestRationalLp:
    def test_exceptional_zero(self, rational_lifts):
        (psi_p, _), _ = rational_lifts
        mu = bc.build_mu_rational(psi_p, 1)
        assert bc.Lp_rational(mu).is_zero()

    def test_derivative_value(self, rational_lifts):
        (psi_p, _), _ = rational_lifts
        mu = bc.build_mu_rational(psi_p, 1)
        d = bc.Lp_rational(mu, insert_log=True)
        assert d.val() == 1
        assert d.c0 % 11 ** 8 == 31179995

    def test_chi4_value_is_unit(self, rational_lifts):
        _, (psi_m, _) = rational_lifts
        mu = bc.build_mu_rational(psi_m, 4)
        val = bc.Lp_rational(mu, bc.chi_minus4(), 0)
        assert val.is_unit()
        assert val.c0 % 11 ** 8 == 4

    def test_pinned_values(self, rational_lifts):
        # (coeffs[0], valuation, precision) of L_p(ft, s), its derivative
        # at s = 0 and L_p(ft, chi_{-4}, s) for 11a at p = 11, M = 8
        (psi_p, _), (psi_m, _) = rational_lifts
        mu_p = bc.build_mu_rational(psi_p, 1)
        mu_m = bc.build_mu_rational(psi_m, 4)
        chi = bc.chi_minus4()
        got = [bc.Lp_rational(mu_p, None, s) for s in (0, 1, 2)]
        got.append(bc.Lp_rational(mu_p, insert_log=True))
        got.extend(bc.Lp_rational(mu_m, chi, s) for s in (0, 1, 2))
        want = [("0", None, 8), ("134904825", 1, 8), ("129421094", 1, 8),
                ("31179995", 1, 8),
                ("4", 0, 8), ("98694864", 0, 8), ("189483342", 0, 8)]
        for val, (c0, v, prec) in zip(got, want):
            rep = val.to_json()
            assert (rep["coeffs"][0], rep["valuation"],
                    rep["precision"]) == (c0, v, prec)

    def test_unit_discs_match_int_route(self, rational_lifts):
        # the layer over Z: the units of Z/m and the centres of its ray
        # distribution, as pairs (a, 0), are those of the scalar int route
        (psi_p, _), (psi_m, _) = rational_lifts
        for psi, m in ((psi_p, 1), (psi_m, 4)):
            mu = bc.build_mu_rational(psi, m)
            units, centres = ref_unit_discs(mu)
            assert mu.units().tolist() == [list(a) for a in units]
            assert mu.unit_discs()[1].tolist() == [list(B) for B in centres]

    def test_modulus_coprime_to_p(self, rational_lifts):
        (psi_p, _), _ = rational_lifts
        with pytest.raises(ValueError):
            bc.build_mu_rational(psi_p, 11)

    def test_greenberg_stevens(self, rational_lifts):
        # L_p'(0) = L-invariant * algebraic L-value (here the unit 1/5
        # times the normalization, pinned by the frozen constants)
        (psi_p, _), _ = rational_lifts
        mu = bc.build_mu_rational(psi_p, 1)
        d = bc.Lp_rational(mu, insert_log=True)
        li = bc.classical_l_invariant(bc.CURVES["11a"], 11, 8)
        li = psi_p.ctx.pctx.elt(li.c0, 0, li.prec)
        ratio = d / li
        assert ratio.is_unit()


class TestCyclotomicRestriction:
    def test_exceptional_zero(self, mu_bianchi):
        assert lfun.Lp_value(mu_bianchi, s=0).is_zero()

    def test_derivative_is_twice_single_log(self, mu_bianchi):
        # log(z zbar) = log z + log zbar, and the two integrals agree
        # for an inert prime, so the cyclotomic derivative is exactly
        # twice the single-variable one
        d2 = lfun.Lp_derivative_at(mu_bianchi)
        d1, _ = lfun.Lp_derivative_halves(mu_bianchi)
        assert (d2 - 2 * d1).is_zero()
        assert d2.c0 % 11 ** 8 == 124719980

    def test_value_at_sample_point(self, mu_bianchi):
        v = lfun.Lp_value(mu_bianchi, s=1)
        assert not v.is_zero()


class TestFactorization:
    def test_report(self, mu_bianchi, rational_lifts):
        (psi_p, _), (psi_m, _) = rational_lifts
        rep = bc.factorization_check(mu_bianchi, psi_p, psi_m)
        assert rep["status"] == "ok"
        assert rep["exceptional_transfer"] == {
            "left_zero": True, "right_zero": True}
        assert rep["ratio_of_ratios_ok"]
        assert rep["unit_factor"] == 2
        cross = rep["cross_difference"]
        assert all(c == "0" for c in cross["coeffs"])

    def test_vanishing_point_inconclusive(self, mu_bianchi, rational_lifts):
        (psi_p, _), (psi_m, _) = rational_lifts
        rep = bc.factorization_check(mu_bianchi, psi_p, psi_m, points=(0, 1))
        assert rep["status"] == "inconclusive"


class TestRamifiedRun:
    def test_report_skips_with_cause(self):
        rep = bc.ramified_case_report(M=6)
        assert rep["p"] == 2 and rep["curve"] == "14a"
        assert rep["classical_l_invariant"]["valuation"] == 3
        assert rep["status"] == "skipped"
        assert rep["stage"] == "L-invariant (log kernel disc expansion)"
        assert "PrecisionError" in rep["cause"]
