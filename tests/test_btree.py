"""Tests for the Bruhat-Tits tree: edges, action, geodesics, open sets."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from padicbianchi import btree as bt
from padicbianchi import field as fld
from padicbianchi import msymb as ms
from padicbianchi.field import QuadInt
from tree_reference import RefTree


def qi(a, b=0):
    return QuadInt(a, b, 1)


@pytest.fixture(scope="module")
def tree11():
    return bt.Tree(fld.split_prime(11, 1))


@pytest.fixture(scope="module")
def tree3():
    return bt.Tree(fld.split_prime(3, 1))


def random_glmat(rng):
    while True:
        g = (
            (qi(rng.randint(-9, 9), rng.randint(-9, 9)),
             qi(rng.randint(-9, 9), rng.randint(-9, 9))),
            (qi(rng.randint(-9, 9), rng.randint(-9, 9)),
             qi(rng.randint(-9, 9), rng.randint(-9, 9))),
        )
        if fld.mat_det(g):
            return g


class TestAction:
    def test_identity(self, tree11):
        e = tree11.standard_edge()
        ident = ((qi(1), qi(0)), (qi(0), qi(1)))
        assert bt.act(ident, e) == e

    def test_alpha_reverses_standard_edge(self, tree11):
        e = tree11.standard_edge()
        assert bt.act(tree11.alpha(), e) == e.reverse()

    def test_singular_rejected(self, tree11):
        zero = ((qi(0), qi(0)), (qi(0), qi(0)))
        with pytest.raises(ValueError):
            bt.act(zero, tree11.standard_edge())

    def test_composition_and_parity(self, tree11):
        rng = random.Random(1)
        e = tree11.standard_edge()
        for i in range(100):
            g, h = random_glmat(rng), random_glmat(rng)
            assert bt.act(fld.mat_mul(g, h), e) == bt.act(g, bt.act(h, e))
            vdet = tree11.val(fld.mat_det(g))
            assert bt.act(g, e).parity() == (e.parity() + vdet) % 2
            if i % 7 == 0:
                e = bt.act(g, e)

    def test_equality_via_canonical_forms(self, tree11):
        # scalars and Iwahori elements stabilize e_*
        e = tree11.standard_edge()
        scalar = ((qi(3, 1), qi(0)), (qi(0), qi(3, 1)))
        iwahori = ((qi(2), qi(5, 3)), (qi(11), qi(1, 2)))
        assert fld.mat_det(iwahori)
        assert bt.act(scalar, e) == e
        assert bt.act(iwahori, e) == e


class TestNeighbors:
    def test_count_inert_3(self, tree3):
        nb = bt.neighbors_with_target(tree3.standard_vertex())
        assert len(nb) == 10
        assert len(set(x.key() for x in nb)) == 10
        assert all(x.target() == tree3.standard_vertex() for x in nb)

    def test_split_refused(self):
        # at a split prime N(x) counts the factors of pibar too, so the
        # norm rules of val and uclass would give wrong classes
        with pytest.raises(NotImplementedError):
            bt.Tree(fld.split_prime(5, 1))

    def test_partition(self, tree3):
        # the open sets U(e), t(e) = v_*, partition P^1
        nb = bt.neighbors_with_target(tree3.standard_vertex())
        rng = random.Random(2)
        pts = [(qi(1), qi(0))]
        while len(pts) < 60:
            n = qi(rng.randint(-200, 200), rng.randint(-200, 200))
            d = qi(rng.randint(-200, 200), rng.randint(-200, 200))
            if n or d:
                pts.append((n, d))
        for n, d in pts:
            assert sum(1 for e in nb if e.contains(n, d)) == 1

    def test_partition_depth2(self, tree3):
        # same at every vertex at distance <= 2 from v_*
        rng = random.Random(3)
        level1 = [e.source() for e in bt.neighbors_with_target(tree3.standard_vertex())]
        for v in level1[:4]:
            nb = bt.neighbors_with_target(v)
            for _ in range(30):
                n = qi(rng.randint(-100, 100), rng.randint(-100, 100))
                d = qi(rng.randint(-100, 100), rng.randint(-100, 100))
                if n or d:
                    assert sum(1 for e in nb if e.contains(n, d)) == 1

    def test_up_coset_edges(self, tree11):
        # the inverses of the U_p coset representatives move e_* onto
        # exactly the child edges of v_*
        es = tree11.standard_edge()
        reps = ms.hecke_reps(tree11.pi, qi(11), 1)
        moved = set()
        for dlt in reps:
            (a, b), (c, d) = dlt
            inv = ((d, -b), (-c, a))
            moved.add(bt.act(inv, es).key())
        vs = tree11.standard_vertex()
        children = set(
            x.key() for x in bt.neighbors_with_target(vs) if x != es.reverse()
        )
        assert moved == children


class TestCuspPairPath:
    # for c = (3), v = 1 the order of 11 mod 3 is 1, so s = 2 and the
    # embedding matrix is [[1, 40], [0, 121]] modulo scalars
    GAMMA = ((qi(1), qi(40)), (qi(0), qi(121)))

    def test_shift_by_s(self, tree11):
        ej = bt.cusp_pair_path(tree11, qi(3), qi(1), -3, 5)
        ejd = dict(zip(range(-3, 6), ej))
        for j in range(-3, 4):
            assert bt.act(self.GAMMA, ejd[j]) == ejd[j + 2]

    def test_membership_levels(self, tree11):
        ej = bt.cusp_pair_path(tree11, qi(3), qi(1), -3, 5)
        ejd = dict(zip(range(-3, 6), ej))
        for j in range(-2, 4):
            # t with val(3t + 1) exactly -j
            if j <= 0:
                tn, td = qi(11 ** (-j) - 1), qi(3)
            else:
                tn, td = qi(1 - 11 ** j), qi(3 * 11 ** j)
            assert ejd[j].contains(tn, td)
            assert not ejd[j - 1].contains(tn, td)

    def test_geodesic_length(self, tree11):
        # the e_j chain into a geodesic without backtracking, and GAMMA
        # moves v_* = source(e_0) two steps along it, to source(e_2)
        ej = bt.cusp_pair_path(tree11, qi(3), qi(1), 0, 2)
        assert ej[0].source() == tree11.standard_vertex()
        for a, b in zip(ej, ej[1:]):
            assert a.target() == b.source() and b != a.reverse()
        assert bt.act(self.GAMMA, ej[0]).source() == ej[2].source()


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
    """val and uclass on the norm (v_p(N(x)) / f, conj(x) N(x)^-1) against
    the exact-division and extended-Euclid reference (tree_reference), and
    the vertices and edges built on them."""

    def test_primes_covered(self):
        kinds = {(d, fld.split_prime(p, d).kind) for d, p in NORM_RULE_TREES}
        assert kinds == {(d, k) for d in fld.SUPPORTED_FIELDS
                         for k in ("inert", "ramified")}

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(NORM_RULE_TREES)),
           st.tuples(*[st.integers(-60, 60)] * 4),
           st.integers(0, 3), st.integers(0, 3),
           st.integers(-3, 3), st.integers(0, 1))
    def test_matches_reference(self, dp, ints, kn, kd, a, flip):
        tree, ref = NORM_RULE_TREES[dp]
        d = dp[0]
        num = QuadInt(ints[0], ints[1], d) * tree.pi ** kn
        den = QuadInt(ints[2], ints[3], d) or QuadInt(1, 0, d)
        den = den * tree.pi ** kd
        assert tree.val(num) == ref.val(num)
        assert tree.val(den) == ref.val(den)
        u = tree.uclass(num, den, a)
        assert u == ref.uclass(num, den, a)
        assert [v.key() for v in bt.Vertex(tree, a, u).children()] == \
            [v.key() for v in bt.Vertex(ref, a, u).children()]
        assert bt.Edge(tree, flip, a, u).rep_matrix() == \
            bt.Edge(ref, flip, a, u).rep_matrix()
