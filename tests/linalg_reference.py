"""Dense reference for the sparse exact kernel of linalg: textbook
Gauss-Jordan elimination on lists of Fractions, column by column with the
first nonzero row as pivot, the nullspace read off its reduced form, and a
determinant by elimination. The tests compare the kernel against it."""

from fractions import Fraction


def ref_rref(matrix, ncols):
    """(reduced rows, pivot columns) of a dense matrix over ncols columns."""
    A = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    r = 0
    for c in range(ncols):
        k = next((k for k in range(r, len(A)) if A[k][c]), None)
        if k is None:
            continue
        A[r], A[k] = A[k], A[r]
        A[r] = [x / A[r][c] for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return A[:r], pivots


def ref_nullspace(matrix, ncols):
    """One vector per free column f: 1 at f, 0 at the other free columns."""
    R, pivots = ref_rref(matrix, ncols)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(R, pivots):
            v[c] = -row[f]
        out.append(v)
    return out


def ref_det(matrix):
    A = [[Fraction(x) for x in row] for row in matrix]
    n = len(A)
    det = Fraction(1)
    for c in range(n):
        k = next((k for k in range(c, n) if A[k][c]), None)
        if k is None:
            return Fraction(0)
        if k != c:
            A[c], A[k] = A[k], A[c]
            det = -det
        det *= A[c][c]
        for i in range(c + 1, n):
            f = A[i][c] / A[c][c]
            A[i] = [x - f * y for x, y in zip(A[i], A[c])]
    return det
