"""Tests for the Bruhat-Tits tree: edges, action, geodesics, open sets."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from padicbianchi import btree as bt
from padicbianchi import field as fld
from padicbianchi import msymb as ms
from padicbianchi.field import QuadInt, one
from tree_reference import RefTree


def qi(a, b=0):
    return QuadInt(a, b, 1)


def mul(g, h):
    """The product of two 8-tuples over Z[i] (w^2 = -1)."""
    return fld.pair_mul(0, -1, g, h)


def det(g):
    """The determinant of an 8-tuple over Z[i], as a pair."""
    (pa, pb), (qa, qb) = (fld.pair_prod(0, -1, *g[0:2], *g[6:8]),
                          fld.pair_prod(0, -1, *g[2:4], *g[4:6]))
    return pa - qa, pb - qb


def pair(x):
    return x.a, x.b


IDENT = (1, 0, 0, 0, 0, 0, 1, 0)


@pytest.fixture(scope="module")
def tree11():
    return bt.Tree(fld.split_prime(11, 1))


@pytest.fixture(scope="module")
def tree3():
    return bt.Tree(fld.split_prime(3, 1))


def random_glmat(rng):
    while True:
        g = tuple(rng.randint(-9, 9) for _ in range(8))
        if any(det(g)):
            return g


class TestAction:
    def test_identity(self, tree11):
        e = tree11.standard_edge()
        assert tree11.act(IDENT, e) == e

    def test_alpha_reverses_standard_edge(self, tree11):
        e = tree11.standard_edge()
        assert tree11.act(tree11.alpha(), e) == e.reverse()

    def test_singular_rejected(self, tree11):
        with pytest.raises(ValueError):
            tree11.act((0,) * 8, tree11.standard_edge())

    def test_composition_and_parity(self, tree11):
        rng = random.Random(1)
        e = tree11.standard_edge()
        for i in range(100):
            g, h = random_glmat(rng), random_glmat(rng)
            assert tree11.act(mul(g, h), e) == tree11.act(g, tree11.act(h, e))
            vdet = tree11.val(det(g))
            assert tree11.act(g, e).parity() == (e.parity() + vdet) % 2
            if i % 7 == 0:
                e = tree11.act(g, e)

    def test_equality_via_canonical_forms(self, tree11):
        # scalars and Iwahori elements stabilize e_*
        e = tree11.standard_edge()
        scalar = (3, 1, 0, 0, 0, 0, 3, 1)
        iwahori = (2, 0, 5, 3, 11, 0, 1, 2)
        assert any(det(iwahori))
        assert tree11.act(scalar, e) == e
        assert tree11.act(iwahori, e) == e

    def test_tuple_form(self, tree11):
        # vertices and edges are their canonical tuples
        e = tree11.standard_edge()
        assert e == bt.Edge(0, 0, None) and tuple(e) == (0, 0, None)
        assert e.reverse() == bt.Edge(1, 0, None) != e
        assert tree11.source(e) == bt.Vertex(0, None)
        assert len({e, bt.Edge(0, 0, None), e.reverse()}) == 2


class TestNeighbors:
    def test_count_inert_3(self, tree3):
        v0 = tree3.standard_vertex()
        nb = tree3.neighbors_with_target(v0)
        assert len(nb) == 10
        assert len(set(nb)) == 10
        assert all(tree3.target(x) == v0 for x in nb)

    def test_split_refused(self):
        # at a split prime N(x) counts the factors of pibar too, so the
        # norm rules of val and uclass would give wrong classes
        with pytest.raises(NotImplementedError):
            bt.Tree(fld.split_prime(5, 1))

    def test_partition(self, tree3):
        # the open sets U(e), t(e) = v_*, partition P^1
        nb = tree3.neighbors_with_target(tree3.standard_vertex())
        rng = random.Random(2)
        pts = [((1, 0), (0, 0))]
        while len(pts) < 60:
            n = (rng.randint(-200, 200), rng.randint(-200, 200))
            d = (rng.randint(-200, 200), rng.randint(-200, 200))
            if any(n + d):
                pts.append((n, d))
        for n, d in pts:
            assert sum(1 for e in nb if tree3.contains(e, n, d)) == 1

    def test_partition_depth2(self, tree3):
        # same at every vertex at distance <= 2 from v_*
        rng = random.Random(3)
        level1 = [tree3.source(e) for e in
                  tree3.neighbors_with_target(tree3.standard_vertex())]
        for v in level1[:4]:
            nb = tree3.neighbors_with_target(v)
            for _ in range(30):
                n = (rng.randint(-100, 100), rng.randint(-100, 100))
                d = (rng.randint(-100, 100), rng.randint(-100, 100))
                if any(n + d):
                    assert sum(1 for e in nb
                               if tree3.contains(e, n, d)) == 1

    def test_up_coset_edges(self, tree11):
        # the inverses of the U_p coset representatives move e_* onto
        # exactly the child edges of v_*
        es = tree11.standard_edge()
        reps = ms.hecke_reps(tree11.pd.pi, qi(11), 1)
        moved = set()
        for dlt in reps:
            (a, b), (c, d) = dlt
            moved.add(tree11.act(fld.mat_pairs(((d, -b), (-c, a))), es))
        vs = tree11.standard_vertex()
        children = set(x for x in tree11.neighbors_with_target(vs)
                       if x != es.reverse())
        assert moved == children


class TestCuspPairPath:
    # for c = (3), v = 1 the order of 11 mod 3 is 1, so s = 2 and the
    # embedding matrix is [[1, 40], [0, 121]] modulo scalars
    GAMMA = (1, 0, 40, 0, 0, 0, 121, 0)

    def test_shift_by_s(self, tree11):
        ej = bt.cusp_pair_path(tree11, (3, 0), (1, 0), -3, 5)
        ejd = dict(zip(range(-3, 6), ej))
        for j in range(-3, 4):
            assert tree11.act(self.GAMMA, ejd[j]) == ejd[j + 2]

    def test_membership_levels(self, tree11):
        ej = bt.cusp_pair_path(tree11, (3, 0), (1, 0), -3, 5)
        ejd = dict(zip(range(-3, 6), ej))
        for j in range(-2, 4):
            # t with val(3t + 1) exactly -j
            if j <= 0:
                tn, td = (11 ** (-j) - 1, 0), (3, 0)
            else:
                tn, td = (1 - 11 ** j, 0), (3 * 11 ** j, 0)
            assert tree11.contains(ejd[j], tn, td)
            assert not tree11.contains(ejd[j - 1], tn, td)

    def test_geodesic_length(self, tree11):
        # the e_j chain into a geodesic without backtracking, and GAMMA
        # moves v_* = source(e_0) two steps along it, to source(e_2)
        ej = bt.cusp_pair_path(tree11, (3, 0), (1, 0), 0, 2)
        assert tree11.source(ej[0]) == tree11.standard_vertex()
        for a, b in zip(ej, ej[1:]):
            assert tree11.target(a) == tree11.source(b) and b != a.reverse()
        assert tree11.source(tree11.act(self.GAMMA, ej[0])) == \
            tree11.source(ej[2])


def test_dot_output(tree3):
    out = bt.dot_neighborhood(tree3, 2)
    assert out.startswith("graph btree {")
    assert out.count("--") == 10 + 10 * 9
    with pytest.raises(ValueError):
        bt.dot_neighborhood(tree3, 4)


def _norm_rule_primes():
    """(d, p) for the ramified prime and the least inert prime of every
    supported field."""
    out = []
    for d in fld.SUPPORTED_FIELDS:
        disc = fld.field_params(d)[0]
        out.append((d, next(p for p in (2, 3, 7, 11) if disc % p == 0)))
        out.append((d, next(p for p in (2, 3, 5, 7)
                            if fld.split_prime(p, d).kind == "inert")))
    return out


NORM_RULE_TREES = {
    dp: (bt.Tree(fld.split_prime(dp[1], dp[0])),
         RefTree(fld.split_prime(dp[1], dp[0])))
    for dp in _norm_rule_primes()}


class TestNormRules:
    """The int-pair tree against the QuadInt tree of tree_reference (the
    fraction round trip, valuations by exact division, unit inverses by
    the extended Euclid), on every _norm_rule_primes() prime: val, uclass,
    the children in order, the parent, the representative of both flips,
    the action, membership and the cusp-pair path."""

    def test_primes_covered(self):
        kinds = {(d, fld.split_prime(p, d).kind) for d, p in NORM_RULE_TREES}
        assert kinds == {(d, k) for d in fld.SUPPORTED_FIELDS
                         for k in ("inert", "ramified")}

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(NORM_RULE_TREES)),
           st.tuples(*[st.integers(-60, 60)] * 6),
           st.integers(0, 3), st.integers(0, 3), st.integers(0, 4),
           st.integers(-3, 3))
    def test_matches_reference(self, dp, ints, kn, kd, kt, a):
        tree, ref = NORM_RULE_TREES[dp]
        d, pi = dp[0], tree.pd.pi
        num = QuadInt(ints[0], ints[1], d) * pi ** kn
        den = QuadInt(ints[2], ints[3], d) or QuadInt(1, 0, d)
        den = den * pi ** kd
        step = QuadInt(ints[4], ints[5], d) * pi ** kt
        assert tree.val(pair(num)) == ref.val(num)
        assert tree.val(pair(den)) == ref.val(den)
        u = tree.uclass(pair(num), pair(den), a)
        assert u == ref.uclass(num, den, a)
        v = bt.Vertex(a, u)
        assert tree.children(v) == [bt.Vertex(*c) for c in ref.children(a, u)]
        assert tree.parent(v) == bt.Vertex(*ref.parent(a, u))
        # the points num/den (in U(e) for flip 0), a step away from it,
        # the step itself, and infinity
        points = [(num, den), (num + step * den, den), (step, den),
                  (one(d), QuadInt(0, 0, d))]
        g = ((num, den), (step, one(d)))
        for flip in (0, 1):
            e = bt.Edge(flip, a, u)
            assert tree.rep_row(e) == fld.mat_pairs(ref.rep_matrix(flip, a, u))
            for n, m in points:
                assert tree.contains(e, pair(n), pair(m)) == \
                    ref.contains(flip, a, u, n, m)
            if fld.mat_det(g):
                assert tree.act(fld.mat_pairs(g), e) == \
                    bt.Edge(*ref.act(g, flip, a, u))
        assert bt.cusp_pair_path(tree, pair(den), pair(num), -2, 3) == \
            [bt.Edge(*e) for e in ref.cusp_pair_path(den, num, -2, 3)]
