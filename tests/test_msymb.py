"""Tests for modular symbol spaces, Hecke action, and eigensymbols at level (11)."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import residue_reference as rref
from euclid_reference import (ref_hecke_terms, ref_lift, ref_path_rows,
                              ref_rational_lift, ref_reps)
from padicbianchi import basechange as bc
from padicbianchi import field as fld
from padicbianchi import msymb as ms
from padicbianchi.field import QuadInt, Cusp, cusp_zero, cusp_infinity


def qi(a, b=0):
    return QuadInt(a, b, 1)


class TestP1:
    def test_size(self):
        p1 = ms.P1(qi(11))
        assert len(p1.reps) == 122  # N + 1 for prime level

    def test_lift_matrices(self):
        p1 = ms.P1(qi(11))
        for i in range(len(p1.reps)):
            g = p1.lift_matrix(i)
            assert fld.mat_det(g) == qi(1)
            assert p1.reduce(g[1][0], g[1][1]) == i

    def test_index_well_defined(self):
        p1 = ms.P1(qi(11))
        # scaling a row by a unit or shifting by the level keeps the class
        i = p1.reduce(qi(3, 4), qi(5, 1))
        assert p1.reduce(qi(0, 1) * qi(3, 4), qi(0, 1) * qi(5, 1)) == i
        assert p1.reduce(qi(3, 4) + qi(11), qi(5, 1)) == i

    @pytest.mark.parametrize("level", [
        QuadInt(1, 0, 1), QuadInt(11, 0, 1), QuadInt(7, 7, 1),
        QuadInt(14, 0, 3), QuadInt(3, 0, 1) * QuadInt(2, 1, 1)])
    def test_size_is_product_over_primes(self, level):
        want = 1
        for pi, _, _ in fld.factor_ideal(level):
            want *= abs(pi.norm()) + 1
        assert len(ms.P1(level)) == want

    def test_unit_level(self):
        # no prime factor: one generator, and the relations kill it
        p1, basis = ms.build_symbol_space(qi(1))
        assert len(p1) == 1 and basis == []


def reference_key(p1, c, dd):
    """The object-level reduction key of (c : dd), computed with QuadInt
    residues, a gcd unit test and ResidueRing.inverse at each prime."""
    parts = []
    for R in p1._rings:
        cc, dl = rref.reduce(R, c), rref.reduce(R, dd)
        if rref.is_unit(R, cc):
            z = rref.mul(R, dl, R.inverse(cc))
            parts.append((0, z.a, z.b))
        else:
            parts.append((1, 0, 0))
    return tuple(parts)


def rep_quads(p1):
    """The generators of p1, int rows (c_a, c_b, d_a, d_b), as QuadInt
    pairs (c, d)."""
    return [(QuadInt(ca, cb, p1.d), QuadInt(da, db, p1.d))
            for ca, cb, da, db in p1.reps]


def reference_index(p1):
    """{reference_key: generator index} over the generators of p1."""
    return {reference_key(p1, c, dd): i
            for i, (c, dd) in enumerate(rep_quads(p1))}


def naive_operator(p1, mats, symbols):
    """Each symbol's image under sum_delta {delta g_i 0 -> delta g_i oo},
    evaluated path piece by path piece with the reference reduction."""
    d = p1.d
    index = reference_index(p1)
    pieces = []
    for i in range(len(p1)):
        g = p1.lift_matrix(i)
        r = fld.apply_moebius(g, cusp_zero(d))
        s = fld.apply_moebius(g, cusp_infinity(d))
        row = []
        for delta in mats:
            for sign, h in fld.path_between(fld.apply_moebius(delta, r),
                                            fld.apply_moebius(delta, s)):
                row.append((sign, index[reference_key(p1, *h[1])]))
        pieces.append(row)
    out = []
    for phi in symbols:
        vals = []
        for row in pieces:
            total = Fraction(0)
            for sign, j in row:
                total += sign * phi.values[j]
            vals.append(total)
        out.append(vals)
    return out


LEVELS = [
    QuadInt(11, 0, 1),               # inert
    QuadInt(7, 7, 1),                # ramified (1+i) times inert (7)
    QuadInt(14, 0, 3),               # d = 3: inert (2), split 7
]


class TestTableReduction:
    @pytest.mark.parametrize("level", LEVELS)
    def test_reduce_matches_object_level_key(self, level):
        p1 = ms.P1(level)
        index = reference_index(p1)
        assert len(index) == len(p1)
        d = level.d
        coords = [QuadInt(a, b, d) for a in range(-3, 4) for b in range(-3, 4)]
        rows, want = [], []
        for c in coords:
            for dd in coords:
                j = index[reference_key(p1, c, dd)]
                assert p1.reduce(c, dd) == j
                rows.append((0, 0, 0, 0, c.a, c.b, dd.a, dd.b))
                want.append(j)
        # the batch key of the bottom rows of pieces
        assert p1.piece_indices(np.array(rows)).tolist() == want

    @pytest.mark.parametrize("level", LEVELS)
    def test_act_matches_object_level_key(self, level):
        # the image of every generator under each relation matrix: S, each
        # rotation and its square, each unit twist
        p1 = ms.P1(level)
        index = reference_index(p1)
        S, rotations, unit_rels = ms._relation_mats(level.d)
        mats = [S] + [m for rot in rotations
                      for m in (rot, fld.mat_mul(rot, rot))] + unit_rels
        for g in mats:
            want = [index[reference_key(p1, c * g[0][0] + dd * g[1][0],
                                        c * g[0][1] + dd * g[1][1])]
                    for c, dd in rep_quads(p1)]
            assert p1.act(g).tolist() == want

    def test_lifts_are_memoised(self):
        p1 = ms.P1(qi(7, 7))
        g = p1.lift_matrix(5)
        assert fld.mat_det(g) == fld.one(1)
        assert p1.lift_rows() is p1.lift_rows()
        assert p1.lift_rows()[5].tolist() == list(fld.mat_pairs(g))

    @pytest.mark.parametrize("level", [
        QuadInt(11, 0, 1), QuadInt(33, 0, 1), QuadInt(7, 7, 1),
        QuadInt(15, 0, 1), QuadInt(14, 0, 3)])
    def test_lifts_match_scalar_reference(self, level):
        # the generators are those of the xgcd-idempotent CRT, and the
        # lockstep lifts are the scalar lifts, massage included, so they
        # pick the same generator paths and write the same caches
        p1 = ms.P1(level)
        assert p1.reps == ref_reps(level)
        rows = p1.lift_rows().tolist()
        for i in range(len(p1)):
            want = ref_lift(p1, i)
            assert rows[i] == list(fld.mat_pairs(want))
            assert p1.lift_matrix(i) == want

    @pytest.mark.parametrize("N", [11, 15, 33, 77])
    def test_rational_lifts(self, N):
        # the Z layer lifts on the same lockstep Euclid, whose quotients
        # round to the nearest integer: at N = 11 that gives the lifts of
        # the floor-division Euclid, and elsewhere another Bezout pair
        # may complete the same bottom row
        p1 = bc.RationalP1(N)
        rows = p1.lift_rows().tolist()
        for i in range(len(p1)):
            want = ref_rational_lift(p1, i)
            g = p1.lift_matrix(i)
            assert rows[i] == list(p1.pairs(g))
            (a, b), (c, d) = g
            assert a * d - b * c == 1 and g[1] == want[1]
            assert N != 11 or g == want

    @pytest.mark.parametrize("level", LEVELS)
    def test_inverse_tables_match_residue_ring(self, level):
        p1 = ms.P1(level)
        tables, _ = p1._batch_tables()
        for R, inv_a, inv_b in tables:
            for x in rref.elements(R):
                if x:
                    y = R.inverse(x)
                    code = x.a + R.h00 * x.b
                    assert (inv_a[code], inv_b[code]) == (y.a, y.b)

    def test_operators_match_naive_path_sums(self):
        level = qi(7, 7)
        p1, basis = ms.build_symbol_space(level)
        syms = [ms.ModularSymbol(p1, vec, level, 1) for vec in basis]
        pi = fld.split_prime(2, 1).pi
        primes = [q for q, _ in ms._small_coprime_primes(level, 1, 3)] + [pi]
        for q in primes:
            want = naive_operator(p1, ms.hecke_reps(q, level, 1), syms)
            for phi, vals in zip(syms, want):
                assert ms.apply_hecke(phi, q).values == vals
        W = ms.atkin_lehner_matrix(pi, level)
        want = naive_operator(p1, [W], syms)
        for phi, vals in zip(syms, want):
            assert ms.apply_atkin_lehner(phi, pi).values == vals
        # one memoised decomposition per operator
        assert len(p1._path_rows) == len(primes) + 1


class TestPathRows:
    def test_ram_p2_operators_match_reference(self):
        # the five operators of the ram-p2 build at level (1+i)(7): the
        # three helper Hecke operators, U_2 and the Atkin-Lehner involution,
        # against the QuadInt path code the int-pair kernel replaced
        level = qi(7, 7)
        p1 = ms.P1(level)
        pi = fld.split_prime(2, 1).pi
        ops = [ms.hecke_reps(q, level, 1)
               for q, _ in ms._small_coprime_primes(level, 1, 3)]
        ops += [ms.hecke_reps(pi, level, 1),
                [ms.atkin_lehner_matrix(pi, level)]]

        keys = reference_index(p1)

        def index(c, dd):
            return keys[reference_key(p1, c, dd)]
        for mats in ops:
            assert p1.path_rows(mats) == ref_path_rows(p1, mats, index)


    def test_hecke_terms_match_reference(self):
        # U_2 at (1+i)(7) and the first helper operator at (11): the plan
        # terms of the unnormalised generator paths, tuple for tuple
        pi = fld.split_prime(2, 1).pi
        cases = [(qi(7, 7), pi)]
        cases.append((qi(11), ms._small_coprime_primes(qi(11), 1, 1)[0][0]))
        for level, q in cases:
            p1 = ms.P1(level)
            mats = ms.hecke_reps(q, level, 1)

            keys = reference_index(p1)

            def index(c, dd):
                return keys[reference_key(p1, c, dd)]
            want = ref_hecke_terms(p1, mats, index)
            assert list(p1.hecke_terms(mats)) == want
        assert len(want) > 1000


class TestRowSums:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(max_denominator=30), min_size=1,
                    max_size=6).flatmap(lambda vals: st.tuples(
                        st.just(vals),
                        st.lists(st.dictionaries(
                            st.integers(0, len(vals) - 1),
                            st.integers(-5, 5)), max_size=4))))
    def test_matches_fraction_sums(self, case):
        values, rows = case
        want = [sum((k * values[j] for j, k in row.items()), Fraction(0))
                for row in rows]
        assert ms._row_sums(rows, values) == want


def digest(values):
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


class TestPins:
    """The exact eigensymbols and relation basis, pinned on the earlier
    symbolic-algebra solver: the elimination conventions (the reduced row
    echelon basis, eigenvalues ascending) fix them value for value."""

    def test_level_11(self, ref_symbols):
        phi, eis = ref_symbols
        assert digest(phi.values) == ("2e42f954dc42486d67e3b3993494cc81"
                                      "953c4d37214bbbaf942bede0ab01a268")
        assert digest(eis.values) == ("d203196190ec66bd60b6fbeab8d47047"
                                      "ff9c9c4684549a0309ae1ea473978f78")

    def test_level_7_7i(self):
        phi, eis = ms.find_new_eigensymbol(qi(7, 7), fld.split_prime(2, 1))
        assert digest(phi.values) == ("4bb0dbfd7bd54743ca4a2493746e528b"
                                      "cdeed2dc552a87e5fe3c9e00b694f509")
        assert digest(eis.values) == ("abe85bc60568962016eb09bbff74c515"
                                      "81f5caee0fb372064d33ee62b2352cbf")
        assert phi.eigen["helpers"] == [("9", "-2"), ("5", "0"), ("5", "0")]

    def test_ramified_lift_values(self, ram_lift):
        # the M = 6 lift at p = 2, level (1+i)(7), pinned before the U_p
        # plan was merged by (dest, src, g)
        values = ram_lift.values
        assert values.shape == (150, 2, 6, 6)
        assert hashlib.sha256(values.astype("<i8").tobytes()).hexdigest() \
            == ("71cde0b8fbe3f031ce8751cfb71fdcf8"
                "7a55742b5466afca6ac9e341f0422c89")

    def test_level_3_relation_basis(self):
        # the old symbol of criterion 2
        _, basis = ms.build_symbol_space(qi(3))
        assert basis == [[-1, 1] + [0] * 8]


class TestSymbolSpace:
    def test_dimension_level_11(self):
        p1, basis = ms.build_symbol_space(qi(11))
        assert len(basis) == 2

    def test_dimension_level_1(self):
        _, basis = ms.build_symbol_space(qi(1))
        assert len(basis) == 0

    def test_next_prime(self):
        primes = [2]
        while primes[-1] < 200:
            primes.append(ms._next_prime(primes[-1]))
        assert primes[:-1] == [q for q in range(2, 200)
                               if all(q % t for t in range(2, q))]
        assert ms._next_prime(0) == 2 and ms._next_prime(1) == 2

    def test_nonsquarefree_rejected(self):
        with pytest.raises(ms.LevelError):
            ms.build_symbol_space(qi(121))


class TestEigensymbol:
    def test_eigenvalues_match_curve_11a(self, ref_symbols):
        phi, _ = ref_symbols
        # base change of 11a: lambda = a_q at ramified/split primes, a_q^2 - 2q
        # at inert ones; keyed by the norm of the helper prime
        helpers = dict(phi.eigen["helpers"])
        assert helpers["2"] == "-2"  # a_2(11a) = -2 at the ramified (1+i)
        assert helpers["9"] == "-5"  # a_3 = -1 at the inert (3): 1 - 6
        assert helpers["5"] == "1"  # a_5 = 1 at a split prime over 5
        t = ms.apply_hecke(phi, qi(2, -1))
        assert ms._ratio(t, phi) == 1  # and at the conjugate prime

    def test_u_eigenvalue_and_sign(self, ref_symbols):
        phi, _ = ref_symbols
        assert phi.eigen["lambda_p"] == 1
        assert phi.eigen["omega"] == 1

    def test_atkin_lehner(self, ref_symbols, ref_level, ref_prime):
        phi, _ = ref_symbols
        w = ms.apply_atkin_lehner(phi, ref_prime.pi)
        # eigenvalue -omega = -1
        ratio = ms._ratio(w, phi)
        assert ratio == -1
        w2 = ms.apply_atkin_lehner(w, ref_prime.pi)
        assert ms._ratio(w2, phi) == 1

    def test_eisenstein_eigenvalues(self, ref_symbols):
        _, eis = ref_symbols
        t = ms.apply_hecke(eis, qi(3))
        assert ms._ratio(t, eis) == 10  # N(3) + 1

    def test_integral_normalization(self, ref_symbols):
        phi, _ = ref_symbols
        assert all(v.denominator == 1 for v in phi.values)
        assert any(v % 11 != 0 for v in phi.values)

    def test_degeneracy_kernel(self, ref_symbols, ref_prime):
        phi, eis = ref_symbols
        for direction in ("source", "target"):
            probes = ms.degeneracy(phi, ref_prime.pi, direction)
            assert all(v == 0 for v in probes)


class TestEvaluation:
    def test_path_additivity(self, ref_symbols):
        phi, _ = ref_symbols
        r = Cusp(qi(2, 3), qi(7, 1))
        s = Cusp(qi(1), qi(4, 5))
        t = Cusp(qi(0, 1), qi(3))
        assert phi.ev(r, t) == phi.ev(r, s) + phi.ev(s, t)

    def test_gamma_invariance(self, ref_symbols):
        phi, _ = ref_symbols
        g = ((qi(1), qi(0)), (qi(11), qi(1)))  # in Gamma_0((11))
        r = Cusp(qi(2, 3), qi(7, 1))
        s = Cusp(qi(1), qi(4, 5))
        gr = fld.apply_moebius(g, r)
        gs = fld.apply_moebius(g, s)
        assert phi.ev(gr, gs) == phi.ev(r, s)

    def test_unit_scaling_invariance(self, ref_symbols):
        phi, _ = ref_symbols
        # J = diag(i, -i) lies in Gamma_0 and sends a/c to (-a)/c... value equal
        r = Cusp(qi(2, 3), qi(7, 1))
        rneg = Cusp(qi(-2, -3), qi(7, 1))
        assert phi.ev(cusp_zero(1), r) == phi.ev(cusp_zero(1), rneg)

    def test_ev_paths_matches_ev(self, ref_symbols):
        # one list of int paths, coprime and times a common factor k,
        # against ev on the normalised cusps, path by path
        phi, _ = ref_symbols
        rng = random.Random(17)
        cusps = [cusp_zero(1), cusp_infinity(1)] + [
            Cusp(qi(rng.randint(-30, 30), rng.randint(-30, 30)),
                 qi(rng.randint(1, 30), rng.randint(-30, 30)))
            for _ in range(20)]
        pairs = [(r, s) for r in cusps[:8] for s in cusps[5:]]
        for ka, kb in ((1, 0), (2, 1), (0, -3)):
            paths = [tuple(tuple(x for xa, xb in (c.v[:2], c.v[2:])
                                 for x in (ka * xa - kb * xb, ka * xb + kb * xa))
                           for c in rs) for rs in pairs]
            assert phi.ev_paths(paths) == [phi.ev(r, s) for r, s in pairs]


class TestAlgebraicLSums:
    def test_trivial(self, ref_symbols):
        phi, _ = ref_symbols
        chars = fld.quadratic_ray_characters(qi(1))
        assert ms.algebraic_L_sum(phi, chars[0]) == -4

    def test_mod_3(self, ref_symbols):
        phi, _ = ref_symbols
        chi = next(
            c for c in fld.quadratic_ray_characters(qi(3)) if not c.is_trivial()
        )
        assert ms.algebraic_L_sum(phi, chi) == -100

    def test_sign_forced_vanishing(self, ref_symbols):
        # chi((11)) = -1 flips the functional equation sign, so the twisted
        # L-value vanishes identically
        phi, _ = ref_symbols
        chi = next(
            c for c in fld.quadratic_ray_characters(qi(4, 1)) if not c.is_trivial()
        )
        assert chi(qi(11)) == -1
        assert ms.algebraic_L_sum(phi, chi) == 0
