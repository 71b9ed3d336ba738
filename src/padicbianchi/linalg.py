"""Exact linear algebra over Q, on Fractions and ints.

Elimination is sparse: a row is a dict {col: Fraction} of its nonzero
entries, and the columns are pivoted in order, each on the shortest row
that is nonzero there, which limits fill-in on the M-symbol relation
matrices (two or three entries of +-1 a row). The reduced row echelon form
is unique, so the choice of pivot row does not change any result here.

On it rest the nullspace basis read off the reduced form (one vector per
free column f: 1 at f, 0 at the other free columns), unique solves against
linearly independent columns, and, for the small Hecke matrices of the
eigen-split, the characteristic polynomial, its integer roots and their
eigenspaces.
"""

from fractions import Fraction


def rref(rows, ncols):
    """The reduced row echelon form of the sparse rows {col: value} over
    the columns 0..ncols-1, as [(c, row)] in pivot-column order, row a dict
    {col: Fraction} with 1 at its pivot c and 0 at the other pivots."""
    active = [r for r in ({j: Fraction(v) for j, v in row.items() if v}
                          for row in rows) if r]
    done = []
    for c in range(ncols):
        best = None
        for k, r in enumerate(active):
            if c in r and (best is None or len(r) < len(active[best])):
                best = k
        if best is None:
            continue
        prow = active.pop(best)
        inv = 1 / prow[c]
        if inv != 1:
            prow = {j: v * inv for j, v in prow.items()}
        for r in active:
            if c in r:
                _eliminate(r, prow, c)
        for _, r in done:
            if c in r:
                _eliminate(r, prow, c)
        active = [r for r in active if r]
        done.append((c, prow))
    return done


def _eliminate(r, prow, c):
    """r -= r[c] * prow in place, prow[c] = 1."""
    f = r.pop(c)
    for j, v in prow.items():
        if j != c:
            x = r.get(j, 0) - f * v
            if x:
                r[j] = x
            else:
                del r[j]


def nullspace(rows, ncols):
    """Basis of {v : A v = 0}, A the sparse rows over ncols columns: one
    vector (a list of Fractions) per free column of the reduced row echelon
    form, with 1 there and 0 at the other free columns."""
    pivots = rref(rows, ncols)
    pivot_cols = {c for c, _ in pivots}
    out = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for c, row in pivots:
            x = row.get(f)
            if x:
                v[c] = -x
        out.append(v)
    return out


def solve(cols, rhs):
    """[x_b for b in rhs] with sum_j x_b[j] * cols[j] = b, the vectors cols
    linearly independent. Raises ValueError when they are not, or when some
    b is outside their span."""
    k = len(cols)
    rows = []
    for i in range(len(cols[0]) if cols else 0):
        row = {j: col[i] for j, col in enumerate(cols) if col[i]}
        row.update((k + t, b[i]) for t, b in enumerate(rhs) if b[i])
        rows.append(row)
    # a pivot in a right-hand column means that b is not in the span
    pivots = rref(rows, k + len(rhs))
    if [c for c, _ in pivots] != list(range(k)):
        raise ValueError("columns dependent or right-hand side outside "
                         "their span")
    return [[row.get(k + t, Fraction(0)) for _, row in pivots]
            for t in range(len(rhs))]


def charpoly(matrix):
    """Integer coefficients of det(x - A), highest degree first, by the
    Faddeev-LeVerrier recurrence. Raises ValueError unless the polynomial
    lies in Z[x]."""
    n = len(matrix)
    A = [[Fraction(x) for x in row] for row in matrix]
    coeffs = [Fraction(1)]
    AM = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I, c_{n-k} = -tr(A M_k) / k
        M = [[AM[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)]
             for i in range(n)]
        AM = [[sum(A[i][t] * M[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        coeffs.append(-sum(AM[i][i] for i in range(n)) / k)
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("characteristic polynomial not in Z[x]: %s"
                         % [str(c) for c in coeffs])
    return [int(c) for c in coeffs]


def _divide_root(poly, r):
    """(quotient, remainder) of poly by x - r, highest degree first."""
    out = [poly[0]]
    for c in poly[1:]:
        out.append(c + r * out[-1])
    return out[:-1], out[-1]


def integer_roots(poly):
    """(roots, rest) for a monic integer polynomial, highest degree first:
    its distinct integer roots in ascending order, and the monic factor
    left when each is divided out with its multiplicity."""
    rest = list(poly)
    roots = [0] if len(rest) > 1 and rest[-1] == 0 else []
    while len(rest) > 1 and rest[-1] == 0:
        rest.pop()
    if len(rest) > 1:
        # a root r divides the constant term a_0 != 0 and, by Fujiwara's
        # bound, |r| <= 2 max_i |a_{n-i}|^(1/i) (rounded up to powers of 2)
        a0 = rest[-1]
        bound = min(abs(a0), 2 * max(1 << -(-abs(a).bit_length() // i)
                                     for i, a in enumerate(rest[1:], 1)))
        cands = [s * r for r in range(1, bound + 1) if a0 % r == 0
                 for s in (1, -1)]
        for r in cands:
            q, rem = _divide_root(rest, r)
            if rem:
                continue
            roots.append(r)
            while not rem:
                rest = q
                q, rem = _divide_root(rest, r)
    return sorted(roots), rest


def eigenspace(matrix, lam):
    """The nullspace basis of A - lam, A a square matrix (rows)."""
    return nullspace([{j: x - lam if i == j else x for j, x in enumerate(row)}
                      for i, row in enumerate(matrix)], len(matrix))


def eigenspaces(matrix):
    """[(lam, eigenspace(A, lam))] over the integer eigenvalues lam of a
    square rational matrix A with characteristic polynomial in Z[x], in
    ascending order. Irrational eigenvalues are skipped."""
    return [(lam, eigenspace(matrix, lam))
            for lam in integer_roots(charpoly(matrix))[0]]
