"""Tests for exact arithmetic in class-number-1 imaginary quadratic fields."""

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ray_reference
import residue_reference as rref
from euclid_reference import (pair_path, ref_cf, ref_cusp, ref_divmod,
                              ref_gcd, ref_unit_inverse, ref_xgcd)
from padicbianchi import field as fld
from padicbianchi import manin
from padicbianchi.field import (
    QuadInt,
    Cusp,
    cusp_zero,
    cusp_infinity,
    split_prime,
    path_between,
    apply_moebius,
    mat_det,
    quadratic_ray_characters,
    ResidueRing,
    parse_quadint,
)


def qi(a, b, d=1):
    return QuadInt(a, b, d)


def cf_mats(cusp):
    """The continued-fraction matrices of the kernel on cusp.v, the pieces
    of the path {0 -> cusp} (manin_pieces), as QuadInt matrices."""
    S, T = fld.field_params(cusp.d)[1:3]
    _, signs, G = manin.manin_pieces(S, T, [(0, 0, 1, 0) + cusp.v])
    assert all(sign == 1 for sign in signs.tolist())
    return [fld.pair_mat(g, cusp.d) for g in G.tolist()]


small = st.integers(min_value=-30, max_value=30)
disc = st.sampled_from([1, 2, 3, 7, 11])


class TestQuadInt:
    @given(small, small, small, small, disc)
    def test_norm_multiplicative(self, a, b, c, e, d):
        x, y = qi(a, b, d), qi(c, e, d)
        assert (x * y).norm() == x.norm() * y.norm()

    @given(small, small, disc)
    def test_conj_norm_trace(self, a, b, d):
        x = qi(a, b, d)
        assert x * x.conj() == qi(x.norm(), 0, d)
        assert x + x.conj() == qi(x.trace(), 0, d)

    @given(small, small, small, small, disc)
    def test_division_with_remainder(self, a, b, c, e, d):
        x, y = qi(a, b, d), qi(c, e, d)
        if y.norm() == 0:
            return
        S, T = fld.field_params(d)[1:3]
        qa, qb, ra, rb = fld.pair_divmod(S, T, a, b, c, e)
        q, r = qi(qa, qb, d), qi(ra, rb, d)
        assert q * y + r == x
        # norm-Euclidean: remainder strictly smaller
        assert r.norm() < y.norm()

    @given(small, small, small, small, disc)
    def test_xgcd(self, a, b, c, e, d):
        # the one extended Euclid, manin.xgcd_rows, on a single row
        x, y = qi(a, b, d), qi(c, e, d)
        if x.norm() == 0 and y.norm() == 0:
            return
        S, T = fld.field_params(d)[1:3]
        ga, gb, ua, ub, va, vb = manin.xgcd_rows(
            S, T, manin.int_rows([(a, b, c, e)], 4))[0].tolist()
        g, u, v = qi(ga, gb, d), qi(ua, ub, d), qi(va, vb, d)
        assert u * x + v * y == g
        assert fld.divides(g, x) and fld.divides(g, y)

    def test_units(self):
        assert len(fld.units(1)) == 4
        assert len(fld.units(3)) == 6
        assert len(fld.units(2)) == 2

    def test_parse(self):
        assert parse_quadint("3+2i", 1) == qi(3, 2, 1)
        assert parse_quadint("-5", 1) == qi(-5, 0, 1)


class TestSplitPrime:
    def test_inert_11(self):
        pd = split_prime(11, 1)
        assert pd.kind == "inert"
        assert pd.norm == 121
        assert pd.pi == qi(11, 0, 1)

    def test_ramified_2(self):
        pd = split_prime(2, 1)
        assert pd.kind == "ramified"
        assert pd.pi.norm() == 2
        assert fld.divides(pd.pi * pd.pi, qi(2, 0, 1)) or fld.divides(
            qi(2, 0, 1), pd.pi * pd.pi
        )

    def test_split_5(self):
        pd = split_prime(5, 1)
        assert pd.kind == "split"
        assert pd.pi.norm() == 5
        assert pd.pi * pd.pibar == qi(5, 0, 1) or pd.pi * pd.pibar == qi(-5, 0, 1)

    def test_inert_d3(self):
        pd = split_prime(2, 3)
        assert pd.kind == "inert"
        assert pd.norm == 4

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
    def test_split_matches_scan(self, d):
        # the root of x^2 - S x - T by a modular square root against the
        # smallest root found by scanning [0, p)
        _, S, T, _ = fld.field_params(d)
        n_split = 0
        for p in range(2, 2000):
            if any(p % k == 0 for k in range(2, int(p ** 0.5) + 1)):
                continue
            pd = split_prime(p, d)
            if pd.kind != "split":
                continue
            root = next(r for r in range(p) if (r * r - S * r - T) % p == 0)
            pi = ref_gcd(qi(p, 0, d), qi(-root, 1, d))
            assert (pd.pi, pd.pibar, pd.e, pd.f, pd.norm) == (
                pi, pi.conj(), 1, 1, p)
            n_split += 1
        assert n_split > 100

    def test_large_split_prime_is_fast(self):
        # N(10000 + 7i) = 100000049 is prime; scanning [0, p) for the root
        # took seconds
        start = time.perf_counter()
        pd = split_prime(100000049, 1)
        assert time.perf_counter() - start < 1
        assert pd.kind == "split" and pd.pi.norm() == 100000049


class TestCuspPaths:
    def test_decompose_endpoints(self):
        # the expansion of 0 is empty, that of oo the identity segment
        assert cf_mats(cusp_zero(1)) == []
        mats = cf_mats(cusp_infinity(1))
        assert len(mats) == 1

    @settings(max_examples=40, deadline=None)
    @given(small, small, small, small, disc)
    def test_telescoping(self, a, b, c, e, d):
        if qi(a, b, d).norm() == 0 and qi(c, e, d).norm() == 0:
            return
        r = Cusp(qi(a, b, d), qi(c, e, d))
        mats = cf_mats(r)
        for g in mats:
            assert mat_det(g) == fld.one(d)
        # the path segments {g0 -> goo} chain from 0 to r
        cur = cusp_zero(d)
        for g in mats:
            assert apply_moebius(g, cusp_zero(d)) == cur
            cur = apply_moebius(g, cusp_infinity(d))
        assert cur == r

    def test_path_between(self):
        r = Cusp(qi(2, 3, 1), qi(7, 1, 1))
        s = Cusp(qi(1, 0, 1), qi(4, 5, 1))
        segs = path_between(r, s)
        total = {}
        for sign, g in segs:
            a = apply_moebius(g, cusp_zero(1)).key()
            b = apply_moebius(g, cusp_infinity(1)).key()
            total[a] = total.get(a, 0) - sign
            total[b] = total.get(b, 0) + sign
        total = {k: v for k, v in total.items() if v}
        assert total == {s.key(): 1, r.key(): -1}


big = st.integers(min_value=-10 ** 6, max_value=10 ** 6)


@st.composite
def big_pairs(draw):
    """(x, y) over a supported field with entries up to 10^6; y != 0."""
    d = draw(disc)
    x = qi(draw(big), draw(big), d)
    y = qi(draw(big), draw(big), d)
    return x, (y if y else qi(1, 0, d))


@st.composite
def tied_pairs(draw):
    """(x, y) with x/y on the half lattice, off the lattice: two of the
    four lattice points around x/y then leave remainders of the same least
    norm, so the scan's order decides the quotient."""
    d = draw(disc)
    ha, hb = draw(st.sampled_from([(1, 0), (0, 1), (1, 1)]))
    q = qi(2 * draw(big) + ha, 2 * draw(big) + hb, d)
    y = qi(draw(small), draw(small), d)
    y = y if y else qi(1, 0, d)
    return q * y, y + y


class TestKernel:
    """The int-pair kernel against the QuadInt code it replaced
    (euclid_reference): same quotients, remainders, gcds, cusps and
    continued-fraction matrices."""

    def check(self, x, y):
        S, T = fld.field_params(x.d)[1:3]
        q, r = ref_divmod(x, y)
        assert fld.pair_divmod(S, T, x.a, x.b, y.a, y.b) == (q.a, q.b,
                                                              r.a, r.b)
        g = ref_gcd(x, y)
        assert fld.pair_gcd(S, T, x.a, x.b, y.a, y.b) == (g.a, g.b)
        assert fld.divides(y, x) == (not r)
        num, den = ref_cusp(x, y)
        cusp = Cusp(x, y)
        assert (cusp.num, cusp.den) == (num, den)
        assert cf_mats(cusp) == ref_cf(num, den)
        assert fld.exact_div(x * y, y) == x

    @settings(max_examples=300, deadline=None)
    @given(big_pairs())
    def test_matches_reference(self, xy):
        self.check(*xy)

    @settings(max_examples=300, deadline=None)
    @given(tied_pairs())
    def test_matches_reference_at_ties(self, xy):
        self.check(*xy)

    def test_ties_occur(self):
        # 1/2 in Z[i]: the quotients 0 and 1 both leave a unit remainder;
        # the scan keeps the first, 0
        S, T = fld.field_params(1)[1:3]
        assert fld.pair_divmod(S, T, 1, 0, 2, 0) == (0, 0, 1, 0)
        assert fld.pair_divmod(S, T, 1, 1, 2, 0) == (0, 0, 1, 1)


class TestSharedStep:
    """divmod_step is pair_divmod's step and manin_pieces' step alike: on
    rows (int64, and Python ints past EUCLID_BOUND) it gives, row by row,
    pair_divmod's result, which is the QuadInt reference's."""

    def check_rows(self, d, xs, ys, dtype):
        S, T = fld.field_params(d)[1:3]
        X = np.array([(x.a, x.b, y.a, y.b) for x, y in zip(xs, ys)],
                     dtype=dtype)
        xa, xb, ya, yb = X.T
        got = fld.divmod_step(S, T, xa, xb, ya, yb,
                              fld.pair_norm(S, T, ya, yb))
        assert all(c.dtype == dtype for c in got)
        qa, qb, ra, rb, nr = (c.tolist() for c in got)
        for i, (x, y) in enumerate(zip(xs, ys)):
            q, r = ref_divmod(x, y)
            assert fld.pair_divmod(S, T, x.a, x.b, y.a, y.b) == \
                (q.a, q.b, r.a, r.b) == (qa[i], qb[i], ra[i], rb[i])
            assert nr[i] == r.norm()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(big_pairs(), tied_pairs()),
                    min_size=1, max_size=16))
    def test_int64_rows(self, pairs):
        # the rows of each field as one batch
        for d in {x.d for x, _ in pairs}:
            xy = [(x, y) for x, y in pairs if x.d == d]
            self.check_rows(d, [x for x, _ in xy], [y for _, y in xy],
                            np.int64)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
    def test_object_rows_past_the_bound(self, d):
        rng = random.Random(d)
        top = 10 ** 25
        assert top > manin.EUCLID_BOUND
        xs = [qi(rng.randint(-top, top), rng.randint(-top, top), d)
              for _ in range(30)]
        ys = [qi(rng.randint(-top, top), rng.randint(-top, top), d)
              for _ in range(29)] + [qi(0, 1, d)]
        self.check_rows(d, xs, ys, object)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
    def test_scalar_zero_divisor(self, d):
        S, T = fld.field_params(d)[1:3]
        with pytest.raises(ZeroDivisionError):
            fld.pair_divmod(S, T, 1, 1, 0, 0)


class TestLockstepXgcd:
    """manin.xgcd_rows runs the extended Euclid on rows in lockstep: row
    by row it gives the (g, u, v) of the QuadInt reference ref_xgcd, in
    int64 while the rows stay within EUCLID_BOUND and on Python ints past
    it."""

    def check(self, d, pairs, dtype):
        S, T = fld.field_params(d)[1:3]
        X = manin.int_rows([(x.a, x.b, y.a, y.b) for x, y in pairs], 4)
        got = manin.xgcd_rows(S, T, X)
        assert got.dtype == dtype and got.shape == (len(pairs), 6)
        unit, W = manin.xgcd_unit_rows(S, T, X)
        for (x, y), row, is_unit, w in zip(pairs, got.tolist(),
                                           unit.tolist(), W.tolist()):
            g, u, v = ref_xgcd(x, y)
            assert row == [g.a, g.b, u.a, u.b, v.a, v.b]
            assert u * x + v * y == g
            assert is_unit == g.is_unit()
            if is_unit:
                ui = ref_unit_inverse(g)
                assert w == [(u * ui).a, (u * ui).b, (v * ui).a, (v * ui).b]

    @staticmethod
    def random_pairs(d, rng, count, top):
        return [(qi(rng.randint(-top, top), rng.randint(-top, top), d),
                 qi(rng.randint(-top, top), rng.randint(-top, top), d))
                for _ in range(count)]

    @pytest.mark.parametrize("d", [1, 3])
    def test_random_rows(self, d):
        # small and large entries, and the zero rows: (0, 0) gives
        # (0, 1, 0), (x, 0) gives (x, 1, 0) and (0, y) gives (y, 0, 1)
        rng = random.Random(d)
        pairs = self.random_pairs(d, rng, 1000, 12) \
            + self.random_pairs(d, rng, 1000, 10 ** 6)
        pairs += [(qi(0, 0, d), qi(0, 0, d)), (qi(5, 2, d), qi(0, 0, d)),
                  (qi(0, 0, d), qi(3, 1, d)), (qi(1, 0, d), qi(1, 0, d))]
        self.check(d, pairs, np.int64)

    @pytest.mark.parametrize("d", [1, 3])
    def test_rows_past_the_bound(self, d):
        # a batch with rows at and past EUCLID_BOUND runs those rows again
        # on Python ints; an object batch runs on them from the start
        rng = random.Random(10 + d)
        B = manin.EUCLID_BOUND
        pairs = self.random_pairs(d, rng, 200, 50) \
            + [(qi(B, B - 1, d), qi(3, 1, d)), (qi(B + 1, 0, d), qi(2, 0, d)),
               (qi(0, 0, d), qi(-B - 5, B, d))]
        self.check(d, pairs, object)
        self.check(d, self.random_pairs(d, rng, 100, 10 ** 25), object)


class TestIntVal:
    @pytest.mark.parametrize("p", [2, 3, 11])
    def test_edge_values(self, p):
        assert fld.int_val(1, p) == fld.int_val(-1, p) == 0
        assert fld.int_val(p - 1, p) == fld.int_val(p + 1, p) == 0
        assert fld.int_val(p, p) == fld.int_val(-p, p) == 1
        assert fld.int_val(p ** 80, p) == 80
        assert fld.int_val(-(p ** 80) * (p + 1), p) == 80
        with pytest.raises(ValueError):
            fld.int_val(0, p)

    @given(st.integers(min_value=1, max_value=10 ** 30),
           st.sampled_from([2, 3, 5, 7, 11]))
    def test_factor_out(self, n, p):
        v = fld.int_val(n, p)
        assert n % p ** v == 0 and (n // p ** v) % p


def stacked_paths(S, T, paths):
    """manin_pieces of the int paths, regrouped per path as the
    (sign, g) lists of the scalar pair_path."""
    k, signs, G = manin.manin_pieces(S, T, paths)
    out = [[] for _ in paths]
    for kk, sign, g in zip(k.tolist(), signs.tolist(), G.tolist()):
        out[kk].append((sign, tuple(g)))
    return out


def scalar_paths(S, T, paths):
    return [pair_path(S, T, tuple(p[:4]), tuple(p[4:])) for p in paths]


@st.composite
def cusp_rows(draw):
    """An int cusp over a supported field: the two of a big_pairs or a
    tied_pairs draw, 0, infinity, or one of them times a common factor
    (not coprime)."""
    d = draw(disc)
    kind = draw(st.sampled_from(["big", "tied", "zero", "inf"]))
    if kind == "zero":
        x, y = qi(0, 0, d), qi(draw(st.integers(1, 5)), 0, d)
    elif kind == "inf":
        x, y = qi(draw(st.integers(1, 5)), 0, d), qi(0, 0, d)
    else:
        x, y = draw(big_pairs() if kind == "big" else tied_pairs())
        x, y = qi(x.a, x.b, d), qi(y.a, y.b, d)
    k = qi(draw(small), draw(small), d) if draw(st.booleans()) else qi(1, 0, d)
    k = k if k else qi(1, 0, d)
    x, y = x * k, y * k
    return x.a, x.b, y.a, y.b


class TestStackedKernel:
    """field.manin_pieces against the scalar pair_path it stacks
    (euclid_reference): the same pieces, signs and order, path by path."""

    @settings(max_examples=200, deadline=None)
    @given(disc, st.lists(st.tuples(cusp_rows(), cusp_rows()), max_size=6))
    def test_matches_scalar_paths(self, d, pairs):
        S, T = fld.field_params(d)[1:3]
        paths = [r + s for r, s in pairs]
        assert stacked_paths(S, T, paths) == scalar_paths(S, T, paths)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
    def test_endpoints_and_empty_batch(self, d):
        S, T = fld.field_params(d)[1:3]
        zero, inf, c = (0, 0, 1, 0), (1, 0, 0, 0), (3, 1, 7, 2)
        paths = [zero + zero, zero + inf, inf + zero, inf + inf, zero + c,
                 c + zero, inf + c, c + inf, c + c]
        assert stacked_paths(S, T, paths) == scalar_paths(S, T, paths)
        k, signs, G = manin.manin_pieces(S, T, [])
        assert len(k) == len(signs) == len(G) == 0 and G.shape == (0, 8)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
    def test_entries_near_2_40(self, d):
        # past the int64 bound the rows run on Python ints; the matrices
        # are those of the QuadInt reference
        S, T = fld.field_params(d)[1:3]
        rng = random.Random(d)
        assert not manin.euclid_int64_exact(2 ** 40)
        for _ in range(5):
            x = qi(2 ** 40 + rng.randint(-999, 999), rng.randint(-999, 999), d)
            y = qi(rng.randint(-999, 999), 2 ** 40 - rng.randint(0, 999), d)
            num, den = ref_cusp(x, y)
            _, signs, G = manin.manin_pieces(
                S, T, [(0, 0, 1, 0, x.a, x.b, y.a, y.b)])
            assert G.dtype == object
            assert [fld.pair_mat(g, d) for g in G.tolist()] == \
                ref_cf(num, den)

    def test_bound(self):
        assert manin.euclid_int64_exact(manin.EUCLID_BOUND)

    @pytest.mark.parametrize("d", [1, 3, 11])
    def test_rows_past_a_smaller_bound(self, d, monkeypatch):
        # with a bound of 60 on entries up to 60, some rows leave the int64
        # run part way and are rerun on Python ints; the result is the same
        S, T = fld.field_params(d)[1:3]
        rng = random.Random(d)
        paths = [tuple(rng.randint(-60, 60) for _ in range(8))
                 for _ in range(40)]
        want = scalar_paths(S, T, paths)
        C = np.array(paths).reshape(-1, 4)
        left = manin._cf_steps(S, T, C, np.arange(len(C)), [], 60)
        assert 0 < len(left) < len(C)
        monkeypatch.setattr(manin, "EUCLID_BOUND", 60)
        assert stacked_paths(S, T, paths) == want


# moduli over every field: 3, 4 + w, 7 and 15 over d = 2, 3, 7, 11, and
# over d = 1 also (1), 5, 3 + 3i and 21; U/S has a basis of two elements
# at (15) and (21)
MODULI = [qi(*ab, 1) for ab in ((1, 0), (3, 0), (4, 1), (5, 0), (7, 0),
                                (3, 3), (15, 0), (21, 0))] + [
    qi(*ab, d) for d in (2, 3, 7, 11)
    for ab in ((3, 0), (4, 1), (7, 0), (15, 0))]


class TestResidueRing:
    def test_unit_count_11(self):
        R = ResidueRing(qi(11, 0, 1))
        assert R.size == 121
        assert len(R.unit_pairs()) == 120

    def test_inverse(self):
        R = ResidueRing(qi(4, 1, 1))
        for a, b in R.unit_pairs().tolist():
            v = R.inverse(qi(a, b))
            assert R.code(*fld.pair_prod(0, -1, a, b, v.a, v.b)) == \
                R.code(1, 0)

    @pytest.mark.parametrize("m", MODULI)
    def test_codes_match_quadint_reference(self, m):
        # a code is the index of its residue in the QuadInt elements, and
        # the unit test, the units, the product and the order of each unit
        # are those of the QuadInt reference
        R = ResidueRing(m)
        elements = list(rref.elements(R))
        assert len(elements) == R.size
        for k, x in enumerate(elements):
            assert R.pair(k) == (x.a, x.b) and R.code(x.a, x.b) == k
            assert R.is_unit(x.a, x.b) == rref.is_unit(R, x)
        units = rref.unit_elements(R)
        assert R.unit_pairs().tolist() == [[u.a, u.b] for u in units]
        rng = random.Random(R.size)
        for x in units:
            y = rng.choice(elements)
            z = rref.mul(R, x, y)
            assert R.mul(R.code(x.a, x.b), R.code(y.a, y.b)) == \
                R.code(z.a, z.b)
            assert R.mult_order(x.a, x.b) == rref.mult_order(R, x)
        if R.size > 1:
            with pytest.raises(ValueError):
                R.mult_order(0, 0)

    def test_is_unit_of_a_large_element(self):
        # the unit test reduces first, so an element past int64 is fine
        R = ResidueRing(qi(7, 0, 1))
        assert R.is_unit(7 ** 40 + 1, 7 ** 30)
        assert not R.is_unit(7 ** 40, 7 ** 30)


class TestRayCharacters:
    def test_mod_3(self):
        chars = quadratic_ray_characters(qi(3, 0, 1))
        assert len(chars) == 2
        chi = next(c for c in chars if not c.is_trivial())
        assert chi(qi(11, 0, 1)) == 1
        assert chi(qi(1, 1, 1)) in (1, -1)
        # trivial on units
        assert chi(qi(0, 1, 1)) == 1

    def test_mod_4_plus_i(self):
        chars = quadratic_ray_characters(qi(4, 1, 1))
        chi = next(c for c in chars if not c.is_trivial())
        assert chi(qi(11, 0, 1)) == -1
        assert chi(qi(-1, 0, 1)) == 1 and chi.conductor.norm() == 17

    def test_mod_5_plus_4i(self):
        chars = quadratic_ray_characters(qi(5, 4, 1))
        chi = next(c for c in chars if not c.is_trivial())
        assert chi(qi(11, 0, 1)) == -1
        assert chi(qi(-1, 0, 1)) == 1 and chi.conductor.norm() == 41

    @pytest.mark.parametrize("m", MODULI)
    def test_match_subset_search_reference(self, m):
        # the same characters in the same order (criteria 4 and 5 take the
        # first match), with the same tables and conductors: each code
        # table is the reference's QuadInt dict by residue code, 0 off the
        # units, and so are is_trivial and chi on a 7 x 7 grid
        got = quadratic_ray_characters(m)
        want = ray_reference.quadratic_ray_characters(m)
        R = ResidueRing(m)
        converted = []
        for table, cond in want:
            by_code = [0] * R.size
            for u, v in table.items():
                by_code[R.code(u.a, u.b)] = v
            converted.append((by_code, cond))
        assert [(c.table, c.conductor) for c in got] == converted
        for chi, (table, _) in zip(got, want):
            assert chi.is_trivial() == all(v == 1 for v in table.values())
            for a in range(-3, 4):
                for b in range(-3, 4):
                    x = qi(a, b, m.d)
                    assert chi(x) == table.get(rref.reduce(R, x), 0)
            assert chi(5) == table.get(rref.reduce(R, 5), 0)

    @pytest.mark.parametrize("m", [qi(3, 0, 1), qi(4, 1, 1), qi(11, 0, 1)])
    def test_multiplicative(self, m):
        chars = quadratic_ray_characters(m)
        units = [qi(a, b) for a, b in ResidueRing(m).unit_pairs().tolist()]
        rng = random.Random(7)
        for chi in chars:
            for _ in range(20):
                x, y = rng.choice(units), rng.choice(units)
                assert chi(x * y) == chi(x) * chi(y)
