"""The sparse exact kernel of linalg against the dense reference."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from linalg_reference import ref_det, ref_nullspace, ref_rref
from padicbianchi import linalg as la

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def sparse_rows(draw, max_rows=8, max_cols=8):
    """(rows as {col: int} dicts, ncols): mostly two or three small
    entries a row, like the M-symbol relations, sometimes denser."""
    ncols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        entries = draw(st.lists(st.tuples(st.integers(0, ncols - 1),
                                          st.integers(-3, 3)),
                                max_size=draw(st.sampled_from([3, 3, ncols]))))
        rows.append(dict(entries))
    return rows, ncols


def dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def matvec(A, v):
    return [sum(Fraction(a) * x for a, x in zip(row, v)) for row in A]


small_square = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n))


class TestElimination:
    @SETTINGS
    @given(sparse_rows())
    def test_rref_matches_reference(self, case):
        rows, n = case
        R, pivots = ref_rref(dense(rows, n), n)
        got = la.rref(rows, n)
        assert [c for c, _ in got] == pivots
        assert dense([row for _, row in got], n) == R

    @SETTINGS
    @given(sparse_rows())
    def test_nullspace_matches_reference(self, case):
        rows, n = case
        assert la.nullspace(rows, n) == ref_nullspace(dense(rows, n), n)

    @SETTINGS
    @given(sparse_rows())
    def test_kernel_and_rank_nullity(self, case):
        rows, n = case
        A = dense(rows, n)
        kernel = la.nullspace(rows, n)
        assert all(x == 0 for v in kernel for x in matvec(A, v))
        assert len(la.rref(rows, n)) + len(kernel) == n

    def test_no_rows(self):
        assert la.nullspace([], 2) == [[1, 0], [0, 1]]


class TestSolve:
    @SETTINGS
    @given(st.data())
    def test_solves(self, data):
        m = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, m))
        vec = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
        cols = data.draw(st.lists(vec, min_size=k, max_size=k))
        B = [list(r) for r in zip(*cols)]
        assume(len(ref_rref(B, k)[1]) == k)
        xs = data.draw(st.lists(
            st.lists(st.builds(Fraction, st.integers(-9, 9),
                               st.integers(1, 5)), min_size=k, max_size=k),
            min_size=1, max_size=3))
        rhs = [matvec(B, x) for x in xs]
        got = la.solve(cols, rhs)
        assert got == xs
        assert [matvec(B, x) for x in got] == rhs
        # a right-hand side outside the span is refused
        b = data.draw(vec)
        if len(ref_rref([r + [x] for r, x in zip(B, b)], k + 1)[1]) > k:
            with pytest.raises(ValueError):
                la.solve(cols, [b])

    def test_dependent_columns_refused(self):
        with pytest.raises(ValueError):
            la.solve([[1, 2], [2, 4]], [[1, 2]])


class TestEigen:
    @SETTINGS
    @given(small_square)
    def test_charpoly_is_det(self, A):
        n = len(A)
        poly = la.charpoly(A)
        for x in range(-3, 4):
            shifted = [[(x if i == j else 0) - a for j, a in enumerate(row)]
                       for i, row in enumerate(A)]
            assert sum(c * x ** (n - k) for k, c in enumerate(poly)) == \
                ref_det(shifted)

    @SETTINGS
    @given(small_square)
    def test_eigenspaces(self, A):
        n = len(A)
        spaces = la.eigenspaces(A)
        lams = [lam for lam, _ in spaces]
        assert lams == sorted(set(lams))
        # |lam| <= the largest absolute row sum <= 3n
        want = [r for r in range(-3 * n, 3 * n + 1)
                if ref_det([[(r if i == j else 0) - a
                             for j, a in enumerate(row)]
                            for i, row in enumerate(A)]) == 0]
        assert lams == want
        for lam, basis in spaces:
            shifted = [[a - lam if i == j else a for j, a in enumerate(row)]
                       for i, row in enumerate(A)]
            assert basis == ref_nullspace(shifted, n)
            assert basis
            for v in basis:
                assert all(x == 0 for x in matvec(shifted, v))

    def test_irrational_roots_skipped(self):
        assert la.integer_roots(la.charpoly([[0, 2], [1, 0]])) == \
            ([], [1, 0, -2])
        assert la.eigenspaces([[0, 2], [1, 0]]) == []
        A = [[0, 2, 0], [1, 0, 0], [0, 0, 3]]
        assert la.integer_roots(la.charpoly(A)) == ([3], [1, 0, -2])
        assert la.eigenspaces(A) == [(3, [[0, 0, 1]])]

    def test_multiple_roots(self):
        # (x - 2)^2 (x + 1) x^2 (x^2 + 1)
        assert la.integer_roots([1, -3, 1, 1, 0, 4, 0, 0]) == \
            ([-1, 0, 2], [1, 0, 1])

    def test_non_integral_charpoly_refused(self):
        with pytest.raises(ValueError):
            la.charpoly([[Fraction(1, 2)]])
