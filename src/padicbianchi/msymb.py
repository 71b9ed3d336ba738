"""Classical Bianchi modular symbols via M-symbols over P^1(O_F/n).

Weight (0,0) (i.e. classical weight 2) symbols are functions on P^1(O_F/n)
satisfying the 2-term, 3-term and unit relations of the field's tessellation;
the solution space is cut out exactly over Q.  Hecke operators, Atkin-Lehner,
degeneracy maps and the algebraic L-value sum all evaluate paths through the
Euclidean continued-fraction decomposition.

The exact linear algebra is that of linalg, on Fractions and ints: the
relation rows are eliminated sparsely and the solution basis is read off
their reduced row echelon form (then scaled to integers of content 1); a
helper Hecke operator's matrix on a span comes from unique solves, and the
span splits along the integer roots of its characteristic polynomial, one
line per vector of each eigenspace's echelon basis. The eigenvalues are
taken in ascending order, which fixes the order of the lines.

The symbols, Hecke operators, relation solver and eigen-split run on a
Manin layer (ManinLayer): P1 here over O_F, and basechange.RationalP1 over
Z for the classical side of the base-change comparison. A layer keeps only
what differs between the rings (its P^1 key, reps, Hecke coset reps,
relation matrices, embedding into SL_2(O_F), the int cusp of a caller's
cusp, and the residue rings and uniformizer of lfun's ray distribution);
the layer lifts its generators in one pass and memoises, per operator, the
decomposition of a Hecke (or Atkin-Lehner) operator into sparse integer
rows i -> {j: signed count}; applying the operator to a symbol is then an
exact row sum over its values.

Paths run on ints: below the symbol API a path is a pair of int cusps
(num_a, num_b, den_a, den_b), not normalised, and a path piece, a Manin
gamma^-1 and a U_p plan term are 8-tuples of ints (the entries of a
matrix over O_F as pairs (a, b), field.mat_pairs). They run in batches:
a batch of paths is rows of an int array, decomposed in one lockstep pass
of the stacked Euclidean kernel (manin.manin_pieces), and its pieces are
multiplied as rows (manin.pair_mul_rows). A generator path
{delta g_i 0 -> delta g_i oo} is read off the columns of delta g_i, and
the pieces of a batch map to their generators and gamma^-1 in one place
(ManinLayer.path_terms). Each layer has one P^1 key, piece_indices, on
the bottom rows of an int array: the pieces of paths, the relation solve
(ManinLayer.act, every generator under one matrix per call) and the
parity involution all reduce through it, and reduce(c, d) is its one-row
case. Over O_F the key reads, per prime factor of the level, the HNF
constants and two arrays of unit inverses, so it builds no QuadInt and
takes no gcd. The inverses, the lifts and the Atkin-Lehner matrix come
from one pass each of the one extended Euclid (manin.xgcd_unit_rows) on
int rows. QuadInts appear only at the edges: the generators, the
operators' matrices, the cusps a caller passes in (ModularSymbol.ev) and
a lift asked for as a matrix (lift_matrix).

Relation tables are implemented for the fields in RELATION_TABLE_FIELDS
(d in {1, 3}), where the 2-term/3-term/unit relations present the symbol
space; the other Euclidean fields raise until their tables are added.
"""

from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm

from . import field as fld
from .field import (QuadInt, Cusp, ResidueRing, one, omega, exact_div,
                    divides, mat_mul, mat_pairs, apply_moebius, cusp_zero,
                    cusp_infinity, split_prime)


# the fields Q(sqrt(-d)) whose M-symbol relation tables are implemented
RELATION_TABLE_FIELDS = (1, 3)


class LevelError(ValueError):
    pass


def _factor_level(n):
    """Prime factorization [(pi, pd)] of the (squarefree) level; raises
    otherwise."""
    out = []
    for pi, k, pd in fld.factor_ideal(n):
        if k > 1:
            raise LevelError("level %r is not squarefree" % n)
        out.append((pi, pd))
    return out


class ManinLayer:
    """What the P^1 layers under the M-symbols share.

    A layer lists the generators (reps) of P^1(R/n), R = O_F (P1) or Z
    (basechange.RationalP1), and supplies what differs between the two
    rings: piece_indices(G), the layer's one P^1 key, from the bottom rows
    of an (n, 8) int array to their generator indices (reduce(c, d) is the
    key of one row), rep_rows() (the reps as (n_gen, 4) int rows) and
    modulus (n as an int pair) for the lifts, pairs(m) of one of its
    matrices to the 8-tuple of int pairs of field.pair_mul (its entries in
    O_F) and matrix(g) back, hecke_reps(q), relation_mats(), the field
    w^2 = S*w + T of the 8-tuples, and cusp_pairs(x), the int cusp of a
    caller's cusp. For the ray distribution of lfun a layer also supplies
    residue_ring(n) (R/n on int pairs: reduce_pair, code, size, unit_pairs
    and inverse_pairs) and uniformizer(pd) of the prime data.

    Below the symbol API a path is a pair of int cusps (num_a, num_b,
    den_a, den_b), not necessarily coprime: the continued fraction of
    num/den, and so the Manin decomposition (manin.manin_pieces), depends
    only on the ratio. Over Z the cusps are real, so no piece leaves
    SL_2(Z). On top of the hooks this class lifts the generators
    (lift_rows), memoises per operator the decomposition rows, maps the
    pieces of a batch of paths to their generators and gamma^-1
    (path_terms), acts by a matrix on all generators at once (act), and
    enumerates the U_p plan terms, which the rows of U_p can keep for the
    plan (path_rows, hecke_terms); the symbols, Hecke operators, relation
    solver and eigen-split of this module run on either layer.
    """

    def __init__(self):
        self._lift_rows = None
        self._path_rows = {}
        self._kept = {}

    def __len__(self):
        return len(self.reps)

    def act(self, g):
        """The index of the generator (c : d) * g for every generator
        (c : d), as an int array: the key of the bottom rows of
        lift_matrix(i) * g."""
        from .manin import int_rows, pair_mul_rows
        return self.piece_indices(pair_mul_rows(
            self.S, self.T, self.lift_rows(), int_rows([self.pairs(g)], 8)))

    def lift_matrix(self, i):
        """A fixed determinant-1 matrix with bottom row in class i: row i
        of lift_rows."""
        return self.matrix(tuple(self.lift_rows()[i].tolist()))

    def lift_rows(self):
        """A determinant-1 lift of every generator as an 8-tuple, the rows
        of an (n_gen, 8) int array, by one lockstep extended Euclid
        (manin.xgcd_unit_rows) on rep_rows(); memoised. The rows whose gcd
        is not a unit add n to c, which keeps the class, and try again, at
        most 6 times in all. Then u*c + v*d = g gives the top row
        (v/g, -u/g)."""
        if self._lift_rows is None:
            import numpy as np
            from .manin import xgcd_unit_rows
            X = self.rep_rows()
            out = np.zeros((len(X), 8), dtype=np.int64)
            todo = np.arange(len(X))
            for _ in range(6):
                unit, W = xgcd_unit_rows(self.S, self.T, X[todo])
                done = todo[unit]
                out[done] = np.concatenate(
                    [W[unit, 2:], -W[unit, :2], X[done]], axis=1)
                todo = todo[~unit]
                if not len(todo):
                    break
                X[todo, :2] += self.modulus
            else:
                raise AssertionError("could not lift %r" % X[todo[0]].tolist())
            self._lift_rows = out
        return self._lift_rows

    def path_terms(self, paths):
        """The Manin decomposition of the int paths (rows (r, s) of 8 ints)
        as ManinTerms: a piece {h 0 -> h oo} = gamma {g_j 0 -> g_j oo} of
        path k is the term (k, j, sign, gamma^-1), j = piece_indices(h),
        gamma in Gamma_0(n) and gamma^-1 = g_j adj(h) (h has determinant
        1). The terms come in the order of manin.manin_pieces."""
        from .manin import ManinTerms, adj_rows, manin_pieces, pair_mul_rows
        k, sign, G = manin_pieces(self.S, self.T, paths)
        j = self.piece_indices(G)
        G = adj_rows(G)     # the pieces go before the product is made
        return ManinTerms(k, j, sign, pair_mul_rows(
            self.S, self.T, self.lift_rows()[j], G))

    def hecke_terms(self, mats):
        """The terms of the U_p plan, as ManinTerms: (i, j, sign, g) for
        each piece of the Manin decomposition of the paths
        {delta g_i 0 -> delta g_i oo} over delta in mats, with
        g = gamma^-1 delta in SL_2(O_F): the piece adds sign * (Psi(g_j) | g)
        to the image of generator i. Path by path (i, then delta), each in
        the order of path_terms. Terms that path_rows(mats, keep=True) kept
        are taken from the layer, not made again."""
        terms = self._kept.pop(tuple(mats), None)
        if terms is not None:
            return terms
        from .manin import ManinTerms, generator_paths, pair_mul_rows
        gen, dlt, paths, deltas = generator_paths(self, mats)
        terms = self.path_terms(paths)
        return ManinTerms(gen[terms.dest], terms.src, terms.sign,
                          pair_mul_rows(self.S, self.T, terms.g,
                                        deltas[dlt[terms.dest]]))

    def path_rows(self, mats, keep=False):
        """Row i is the signed count {j: n} of the generators in the Manin
        decomposition of the paths {delta g_i 0 -> delta g_i oo} over delta
        in mats, g_i = lift_matrix(i): one bincount over (i, j). Memoised
        per list of matrices, so a Hecke operator is decomposed once per
        prime. With keep the rows come from hecke_terms(mats), and its
        terms stay with the layer until hecke_terms(mats) takes them: the
        U_p eigenvalue of a cold build and its lift's plan share one
        decomposition."""
        key = tuple(mats)
        rows = self._path_rows.get(key)
        if rows is None:
            import numpy as np
            if keep:
                terms = self._kept[key] = self.hecke_terms(mats)
                dest, src, sign = terms.dest, terms.src, terms.sign
            else:
                from .manin import generator_paths, manin_pieces
                gen, _, paths, _ = generator_paths(self, mats)
                k, sign, G = manin_pieces(self.S, self.T, paths)
                dest, src = gen[k], self.piece_indices(G)
            n = len(self)
            counts = np.bincount(dest * n + src, weights=sign,
                                 minlength=n * n)
            nz = np.flatnonzero(counts)
            rows = [{} for _ in range(n)]
            for ij, c in zip(nz.tolist(), counts[nz].astype(int).tolist()):
                rows[ij // n][ij % n] = c
            self._path_rows[key] = rows
        return rows


class P1(ManinLayer):
    """P^1(O_F/n) for squarefree n, via CRT over the prime factors: the
    Manin layer over O_F.

    The generators (reps) are the CRT combinations of the points (0 : 1)
    and (1 : x) of each P^1(O/pi), made on int pairs, each (c : d) the row
    (c_a, c_b, d_a, d_b); for a squarefree n no two combinations are the
    same point. The one key (piece_indices) runs on int arrays: a
    residue a + b*w mod pi is the code a + h00*b, the unit inverses are two
    arrays over the codes (O/pi is a field, so a residue is a unit exactly
    when it is nonzero), and the point of P^1(O/pi) is the code of d/c, or
    N(pi) for (0 : 1). The points of the primes combine in mixed radix into
    one code of P^1(O/n), and one array maps it to the generator. The
    arrays are made on the first batch, and the generator lifts on the
    first call of lift_rows, each in one lockstep pass of the extended
    Euclid, so that the constructor (and a warm `build`) needs no numpy. A
    caller's cusp enters as its int pairs Cusp.v.
    """

    def __init__(self, n):
        self.n = n
        self.d = d = n.d
        self._rings = [ResidueRing(pi) for pi, _ in _factor_level(n)]
        _, self.S, self.T, _ = fld.field_params(d)
        ring = ResidueRing(n)
        self.modulus = (n.a, n.b)
        # CRT idempotents m * m^-1, 1 mod pi and 0 mod m = n/pi, where
        # m^-1 = m^(N(pi) - 2) mod pi as O/pi is a field, on residue codes
        idempotents = []
        for R in self._rings:
            m = exact_div(n, R.n)
            x, y = R.code(1, 0), R.code(m.a, m.b)
            for _ in range(R.size - 2):
                x = R.mul(x, y)
            idempotents.append(
                fld.pair_prod(self.S, self.T, m.a, m.b, *R.pair(x)))

        def crt(residues):
            terms = [fld.pair_prod(self.S, self.T, *r, *e)
                     for r, e in zip(residues, idempotents)]
            return ring.reduce_pair(sum(t[0] for t in terms),
                                    sum(t[1] for t in terms))
        # the points (1 : x) in residue code order
        local = [[((0, 0), (1, 0))]
                 + [((1, 0), R.pair(x)) for x in range(R.size)]
                 for R in self._rings]
        self.reps = [crt([t[0] for t in combo]) + crt([t[1] for t in combo])
                     for combo in product(*local)]
        self._batch = None
        super().__init__()

    def reduce(self, c, dd):
        """The index of the generator of the row (c : dd): piece_indices
        of the one row."""
        from .manin import int_rows
        return int(self.piece_indices(
            int_rows([(0, 0, 0, 0, c.a, c.b, dd.a, dd.b)], 8))[0])

    def piece_indices(self, G):
        if self._batch is None:
            self._batch = self._batch_tables()
        tables, gen_of_code = self._batch
        return gen_of_code[self._codes(tables, G[:, 4], G[:, 5], G[:, 6],
                                       G[:, 7])]

    def _batch_tables(self):
        """The per-prime arrays of the key (the ring and its unit
        inverses, every nonzero residue inverted in one lockstep pass of
        ResidueRing.inverse_pairs), and the array from the key code of
        P^1(O/n) to the generator."""
        import numpy as np
        tables = []
        for R in self._rings:
            code = np.arange(1, R.size)
            inv = np.zeros((R.size, 2), dtype=np.int64)
            inv[1:] = R.inverse_pairs(
                np.stack([code % R.h00, code // R.h00], axis=1))
            tables.append((R, inv[:, 0], inv[:, 1]))
        codes = self._codes(tables, *self.rep_rows().T)
        gen_of_code = np.zeros(len(self), dtype=np.int64)
        gen_of_code[codes] = np.arange(len(self))
        assert np.array_equal(np.sort(codes), np.arange(len(self)))
        return tables, gen_of_code

    def _codes(self, tables, ca, cb, da, db):
        """The key codes of the rows (c : d), c = ca + cb*w, d = da + db*w
        (int arrays): per prime, N(pi) for (0 : 1) and else the residue
        code of d/c (ResidueRing.reduce_pair), in mixed radix over the
        primes."""
        import numpy as np
        S, T = self.S, self.T
        code, radix = np.zeros(len(ca), dtype=np.int64), 1
        for R, inv_a, inv_b in tables:
            ra, rb = (x.astype(np.int64) for x in R.reduce_pair(ca, cb))
            unit = ra + R.h00 * rb
            ia, ib = inv_a[unit], inv_b[unit]
            xa, xb = (x.astype(np.int64) for x in R.reduce_pair(da, db))
            # d * c^{-1}, with w^2 = S w + T, then reduced mod pi
            xa, xb = R.reduce_pair(xa * ia + T * xb * ib,
                                   xa * ib + xb * ia + S * xb * ib)
            code = code + radix * np.where(unit == 0, R.size,
                                           xa + R.h00 * xb)
            radix *= R.size + 1
        return code

    def rep_rows(self):
        import numpy as np
        return np.array(self.reps, dtype=np.int64)

    def matrix(self, g):
        return fld.pair_mat(g, self.d)

    pairs = staticmethod(mat_pairs)
    residue_ring = ResidueRing

    @staticmethod
    def uniformizer(pd):
        return pd.pi

    @staticmethod
    def cusp_pairs(x):
        return x.v

    def hecke_reps(self, pi):
        return hecke_reps(pi, self.n, self.d)

    def relation_mats(self):
        return _relation_mats(self.d)


# ---------------------------------------------------------------------------
# relation tables


def _relation_mats(d):
    """Right-action matrices presenting the M-symbol relations.

    Returns (S, list of order-3 rotations, list of unit twists).  The order-3
    elements rotate the triangular 2-cells of the field's tessellation; for
    d = 1 there are two triangle orbits (through the cusps 1 and i), for d = 3
    likewise (through 1 and w).
    """
    if d not in RELATION_TABLE_FIELDS:
        raise LevelError(
            "M-symbol relation table not available for d=%d (supported: %s)"
            % (d, ", ".join(map(str, RELATION_TABLE_FIELDS))))
    o = one(d)
    z = QuadInt(0, 0, d)
    w = omega(d)
    S = ((z, -o), (o, z))
    TS = ((o, -o), (o, z))          # rotation of (0, 1, oo), order 3 in PSL_2
    if d == 1:
        R_i = ((z, w), (w, o))       # rotation of (0, i, oo): 0->i->oo->0
        J = ((w, z), (z, -w))        # diag(i, -i), det 1
        return S, [TS, R_i], [J]
    wc = w.conj()                    # d = 3: w^{-1} since N(w) = 1
    R_w = ((z, -w), (wc, o))         # rotation of (0, w, oo)
    J = ((w, z), (z, wc))            # diag(w, w^{-1}), det 1
    return S, [TS, R_w], [J]


def build_symbol_space(n):
    """Exact basis of the weight-(0,0) M-symbol solution space at level n.

    Returns (p1, basis) where basis is a list of Fraction-vectors indexed by
    P^1(O/n).
    """
    p1 = P1(n)
    return p1, relation_basis(p1)


def relation_basis(p1):
    """Basis of the solutions on the generators of p1 of the 2-term,
    3-term and unit relations of the layer's relation_mats()."""
    S, rotations, unit_rels = p1.relation_mats()
    rows = []
    seen = set()

    def relation(key, signed):
        if key not in seen:
            seen.add(key)
            row = {}
            for j, k in signed:
                row[j] = row.get(j, 0) + k
            rows.append(row)

    s_img = p1.act(S).tolist()
    rot_imgs = [(p1.act(rot).tolist(), p1.act(mat_mul(rot, rot)).tolist())
                for rot in rotations]
    unit_imgs = [p1.act(J).tolist() for J in unit_rels]
    for i in range(len(p1)):
        j = s_img[i]
        relation(("S",) + tuple(sorted((i, j))), [(i, 1), (j, 1)])
        for t, (img1, img2) in enumerate(rot_imgs):
            j1, j2 = img1[i], img2[i]
            relation((("T", t),) + tuple(sorted((i, j1, j2))),
                     [(i, 1), (j1, 1), (j2, 1)])
        for img in unit_imgs:
            j = img[i]
            if j != i:
                relation(("J",) + tuple(sorted((i, j))), [(i, 1), (j, -1)])
    return _nullspace(rows, len(p1))


def _nullspace(rows, m):
    """Rational nullspace of the sparse relation rows {col: coefficient}
    over m columns: the basis of linalg.nullspace, each vector scaled to
    integers with content 1."""
    # linalg is imported where it is used: commands that load a cached
    # symbol (a warm build, linv, most of accept) never solve
    from . import linalg as la
    out = []
    for v in la.nullspace(rows, m):
        L = lcm(*(x.denominator for x in v))
        vec = [x * L for x in v]
        g = gcd(*(x.numerator for x in vec))
        out.append([x / g for x in vec])
    return out


# ---------------------------------------------------------------------------
# modular symbols


class ModularSymbol:
    """Weight-(0,0) modular symbol stored on the M-symbol generators of a
    Manin layer: P1 over O_F (d the field), or basechange.RationalP1 over Z
    (d None)."""

    def __init__(self, p1, values, level, d, eigen=None):
        self.p1 = p1
        self.values = list(values)
        self.level = level
        self.d = d
        self.eigen = eigen or {}     # annotations: {"lambda_(g)": ..., "omega": ...}

    def copy(self, values=None):
        return ModularSymbol(self.p1, values if values is not None
                             else list(self.values), self.level, self.d,
                             dict(self.eigen))

    def ev(self, r, s):
        """Value on the path {r -> s} (divisor (s) - (r)) of the layer's
        cusps."""
        cusp_pairs = self.p1.cusp_pairs
        return self.ev_paths([(cusp_pairs(r), cusp_pairs(s))])[0]

    def ev_paths(self, paths):
        """The values on each int path (r, s) of paths (rows of 8 ints,
        ManinLayer), as a list: the symbol's values summed over the pieces
        of the path, as ints scaled by the lcm L of the denominators (int64
        when no sum can pass it)."""
        import numpy as np
        from .manin import manin_pieces
        p1 = self.p1
        k, sign, G = manin_pieces(p1.S, p1.T, paths)
        L = lcm(*(v.denominator for v in self.values))
        ints = [v.numerator * (L // v.denominator) for v in self.values]
        exact = max(map(abs, ints), default=0) * len(sign) < 2 ** 63
        vals = np.array(ints, dtype=np.int64 if exact else object)
        sums = np.zeros(len(paths), dtype=vals.dtype)
        np.add.at(sums, k, sign * vals[p1.piece_indices(G)])
        return [Fraction(x, L) for x in sums.tolist()]

    def is_zero(self):
        return all(v == 0 for v in self.values)

    def scale(self, c):
        return self.copy([v * c for v in self.values])

    def add(self, other, c=1):
        return self.copy([a + c * b for a, b in zip(self.values, other.values)])

    def normalize_integral(self, p):
        """Scale to integral values with content 1 (hence some p-unit value)."""
        L = 1
        for v in self.values:
            L = lcm(L, v.denominator)
        vals = [v * L for v in self.values]
        g = 0
        for v in vals:
            g = gcd(g, int(v))
        if g > 1:
            vals = [v / g for v in vals]
        assert any(int(v) % p for v in vals if v), "no p-unit value"
        return self.copy([Fraction(v) for v in vals])


def manin_terms(p1, r, s):
    """Decompose the int path {r -> s}: list of (sign, gen_index,
    gamma^-1), one per piece {h 0 -> h oo} = gamma {g_idx 0 -> g_idx oo},
    gamma in Gamma_0(n) over the ring of the layer p1, gamma^-1 a
    determinant-1 8-tuple (ManinLayer.path_terms on the one path)."""
    return [(sign, j, g) for _, j, sign, g in p1.path_terms([r + s])]


def hecke_reps(pi, level, d):
    """Coset representatives for T_q (q = (pi) prime): [[1,a],[0,pi]] for a in
    O/q in residue code order, plus [[pi,0],[0,1]] when q does not divide
    the level."""
    R = ResidueRing(pi)
    z = QuadInt(0, 0, d)
    reps = [((one(d), QuadInt(*R.pair(k), d)), (z, pi))
            for k in range(R.size)]
    if not divides(pi, level):
        reps.append(((pi, z), (z, one(d))))
    return reps


def _row_sums(rows, values):
    """[sum_j k * values[j] for row {j: k}] over Fraction values, summed
    as ints scaled by the lcm L of the denominators."""
    L = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (L // v.denominator) for v in values]
    return [Fraction(sum(k * ints[j] for j, k in row.items()), L)
            for row in rows]


def apply_hecke(phi, pi, keep=False):
    """phi | T_(pi) (or U_(pi) when (pi) divides the level), weight (0,0),
    as exact sums over the memoised decomposition rows of the operator;
    keep leaves its plan terms with the layer (ManinLayer.path_rows)."""
    rows = phi.p1.path_rows(phi.p1.hecke_reps(pi), keep)
    return phi.copy(_row_sums(rows, phi.values))


def atkin_lehner_matrix(pi, level):
    """A matrix of determinant pi normalizing Gamma_0(level), pi || level."""
    d = pi.d
    m = exact_div(level, pi)
    if divides(pi, m):
        raise ValueError("pi^2 divides the level")
    from .manin import int_rows, xgcd_unit_rows
    _, S, T, _ = fld.field_params(d)
    unit, W = xgcd_unit_rows(S, T, int_rows([(pi.a, pi.b, m.a, m.b)], 4))
    assert unit[0], "pi is prime to m"
    ua, ub, va, vb = W[0].tolist()
    u, v = QuadInt(ua, ub, d), QuadInt(va, vb, d)    # u pi + v m = 1
    # W = [[pi*u, -v], [level, pi]]: det = pi^2 u + level v = pi(u pi + v m) = pi
    return ((pi * u, -v), (level, pi))


def apply_atkin_lehner(phi, pi):
    W = atkin_lehner_matrix(pi, phi.level)
    return phi.copy(_row_sums(phi.p1.path_rows([W]), phi.values))


def degeneracy(phi, pi, direction):
    """Trace to level m = level/pi.  direction 'source' or 'target' (the
    latter first applies alpha = [[0,-1],[pi,0]])."""
    d = phi.d
    m = exact_div(phi.level, pi)
    target_p1 = P1(m) if not m.is_unit() else None
    z = QuadInt(0, 0, d)
    alpha = ((z, -one(d)), (pi, z))
    # coset reps of Gamma_0(m) / Gamma_0(level) from P^1(O/pi)
    sub = P1(pi)
    mats = [sub.lift_matrix(i) for i in range(len(sub))]
    if direction == "target":
        mats = [mat_mul(gam, alpha) for gam in mats]
    if target_p1 is None:
        # level (1): the symbol space is trivial; report the traced values on
        # a couple of probe paths so vanishing is computed, not assumed
        probes = [(cusp_zero(d), cusp_infinity(d)),
                  (Cusp(one(d), QuadInt(2, 1, d)), cusp_infinity(d))]
        cusp_pairs = phi.p1.cusp_pairs
        values = phi.ev_paths([cusp_pairs(apply_moebius(g, r))
                               + cusp_pairs(apply_moebius(g, s))
                               for r, s in probes for g in mats])
        return [sum(values[k:k + len(mats)], Fraction(0))
                for k in range(0, len(values), len(mats))]
    return ModularSymbol(target_p1, translated_sums(target_p1, mats, phi),
                         m, d)


def translated_sums(p1, mats, phi):
    """Entry i is the sum over delta in mats of the symbol phi on the path
    {delta g_i 0 -> delta g_i oo}, for the generators i of p1 (phi may
    live on another layer of the same ring)."""
    from .manin import generator_paths
    gen, _, paths, _ = generator_paths(p1, mats)
    vals = [Fraction(0)] * len(p1)
    for i, v in zip(gen.tolist(), phi.ev_paths(paths)):
        vals[i] += v
    return vals


# ---------------------------------------------------------------------------
# eigensymbols and L-values


def _combine(coefs, syms):
    """sum coef * sym over the Fraction coefficients."""
    comb = None
    for coef, s in zip(coefs, syms):
        term = s.scale(coef)
        comb = term if comb is None else comb.add(term)
    return comb


def hecke_matrix_on(basis_syms, pi):
    """Matrix of T_(pi) on the span of the given linearly independent
    symbols (exact): column j holds the coordinates of the image of
    symbol j."""
    from . import linalg as la
    coords = la.solve([s.values for s in basis_syms],
                      [apply_hecke(s, pi).values for s in basis_syms])
    dim = len(basis_syms)
    return [[coords[j][i] for j in range(dim)] for i in range(dim)]


def find_new_eigensymbol(n, pd):
    """The p-new cuspidal Hecke eigensymbol at level n (pd = prime over p).

    Splits the M-symbol solution space under a few Hecke operators away from
    the level, discards Eisenstein lines (eigenvalue N(q)+1), and keeps the
    unique line whose U_p eigenvalue is a unit.
    """
    d = n.d
    p1, basis = build_symbol_space(n)
    syms = [ModularSymbol(p1, vec, n, d) for vec in basis]
    if not syms:
        raise LevelError("symbol space at level %r is zero" % n)
    lines = _split_lines(syms, _small_coprime_primes(n, d, 3))
    new_line = None
    eis_line = None
    for line, lam_table in lines:
        eis = all(lam == q_norm + 1 for (q_norm, lam) in lam_table)
        if eis:
            eis_line = line
            continue
        if new_line is not None:
            raise LevelError("multiple cuspidal eigenlines; refine helpers")
        new_line = (line, lam_table)
    if new_line is None:
        raise LevelError("no cuspidal eigenline found at level %r" % n)
    phi, lam_table = new_line
    phi = phi.normalize_integral(pd.p)
    # annotations; the U_p terms stay for the plan of the lift
    upi = apply_hecke(phi, pd.pi, keep=True)
    lam_p = _ratio(upi, phi)
    alw = apply_atkin_lehner(phi, pd.pi)
    al_eig = _ratio(alw, phi)
    phi.eigen = {
        "lambda_p": lam_p,
        "omega": -al_eig,
        "helpers": [(str(q), str(l)) for q, l in lam_table],
    }
    eis_sym = eis_line
    return phi, eis_sym


def _small_coprime_primes(n, d, count):
    out = []
    p = 2
    while len(out) < count:
        pd = split_prime(p, d)
        for pi in ([pd.pi, pd.pibar] if pd.kind == "split" else [pd.pi]):
            if not divides(pi, n) and len(out) < count:
                out.append((pi, pd.norm))
        p = _next_prime(p)
    return out


def _next_prime(p):
    """The least prime > p, by trial division."""
    q = p + 1
    while q < 2 or any(q % t == 0 for t in range(2, isqrt(q) + 1)):
        q += 1
    return q


def _split_lines(syms, helper_primes):
    """Common eigenlines of the helper Hecke operators on the span."""
    from . import linalg as la
    spaces = [syms]
    tables = [[]]
    for pi, q_norm in helper_primes:
        new_spaces, new_tables = [], []
        for space, table in zip(spaces, tables):
            if len(space) == 1:
                up = apply_hecke(space[0], pi)
                lam = _ratio(up, space[0])
                new_spaces.append(space)
                new_tables.append(table + [(q_norm, lam)])
                continue
            for lam, vecs in la.eigenspaces(hecke_matrix_on(space, pi)):
                for v in vecs:
                    new_spaces.append([_combine(v, space)])
                    new_tables.append(table + [(q_norm, Fraction(lam))])
        spaces, tables = new_spaces, new_tables
    return list(zip([s[0] for s in spaces], tables))


def _ratio(num_sym, den_sym):
    for a, b in zip(num_sym.values, den_sym.values):
        if b:
            r = a / b
            break
    else:
        raise ValueError("zero symbol")
    assert all(a == r * b for a, b in zip(num_sym.values, den_sym.values)), \
        "not an eigensymbol"
    return r


def algebraic_L_sum(phi, chi):
    """Sum_a chi(a) phi{a/c -> oo}(1), the constant-stripped L-value of the
    weight-(0,0) integral formula (r = 0)."""
    d = phi.d
    c = chi.modulus
    if c.is_unit():
        return phi.ev(cusp_zero(d), cusp_infinity(d))
    units = chi.ring.unit_pairs().tolist()
    values = phi.ev_paths([(a, b, c.a, c.b, 1, 0, 0, 0) for a, b in units])
    return sum((chi.table[chi.ring.code(a, b)] * v
                for (a, b), v in zip(units, values)), Fraction(0))
