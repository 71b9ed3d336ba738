"""Exact arithmetic in the Euclidean imaginary quadratic fields of class number 1.

Supported fields are Q(sqrt(-d)) for d in {1, 2, 3, 7, 11}, presented on the
integral basis {1, w} where w = sqrt(-d) for d = 1, 2 and w = (1+sqrt(-d))/2
otherwise.  Everything here is exact integer/rational arithmetic: elements,
ideals (all principal), prime splitting, the Euclidean continued-fraction
decomposition of cusps, and quadratic ray-class characters.

The Euclidean algorithm has one kernel, on int pairs (pair_divmod and the
functions after it): division, gcd, exact division, cusp normalisation and
the Moebius action. exact_div, divides, Cusp and apply_moebius are QuadInt
wrappers over it, and a Cusp holds its int pairs. Its division step
(divmod_step), the norm (pair_norm) and the product (pair_prod) are
written once and run on ints and int arrays alike: the Manin
decomposition of paths into continued-fraction pieces is that kernel
stacked, in the module manin, where manin_pieces runs divmod_step on a
whole batch of int paths in lockstep on int64 arrays, with an int64 bound
proved from the entries and Python ints past it. path_between is its
one-path QuadInt wrapper. The one extended Euclid is stacked there too
(manin.xgcd_rows). A residue mod n is an int code (ResidueRing.code): a
ResidueRing lists its units and inverts residues in one lockstep pass of
that Euclid (unit_pairs, inverse_pairs; inverse is its one-row case), one
residue is tested by pair_gcd (is_unit), and a ray character is a table
indexed by code. The p-adic valuation of an integer (int_val) is also
written once, for the completions, the Tate period and the tree.

The module also holds what the CLI reads before any numpy layer loads:
the two precision facts (PrecisionError, and the int64 bound of the
completions' moment products, int64_exact on PrimeData.minpoly) and the
default embedding data of a prime (default_embedding_data).
"""

# d -> (|disc|, S, T, unit list as (a, b) pairs) where w^2 = S*w + T.
_FIELD_TABLE = {
    1: (4, 0, -1, [(1, 0), (-1, 0), (0, 1), (0, -1)]),
    2: (8, 0, -2, [(1, 0), (-1, 0)]),
    3: (3, 1, -1, [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]),
    7: (7, 1, -2, [(1, 0), (-1, 0)]),
    11: (11, 1, -3, [(1, 0), (-1, 0)]),
}

SUPPORTED_FIELDS = tuple(sorted(_FIELD_TABLE))


class UnsupportedFieldError(ValueError):
    pass


def field_params(d):
    if d not in _FIELD_TABLE:
        raise UnsupportedFieldError(
            "field Q(sqrt(-%s)) not supported; d must be one of %s"
            % (d, list(SUPPORTED_FIELDS)))
    return _FIELD_TABLE[d]


class QuadInt:
    """Element a + b*w of the ring of integers of Q(sqrt(-d))."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=1):
        self.a = int(a)
        self.b = int(b)
        self.d = d
        field_params(d)

    def _check(self, other):
        if not isinstance(other, QuadInt):
            other = QuadInt(other, 0, self.d)
        if other.d != self.d:
            raise ValueError("mixed fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return QuadInt(self.a + other.a, self.b + other.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return QuadInt(self.a - other.a, self.b - other.b, self.d)

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return QuadInt(-self.a, -self.b, self.d)

    def __mul__(self, other):
        other = self._check(other)
        _, S, T, _ = _FIELD_TABLE[self.d]
        return QuadInt(*pair_prod(S, T, self.a, self.b, other.a, other.b),
                       self.d)

    __rmul__ = __mul__

    def __pow__(self, n):
        r = QuadInt(1, 0, self.d)
        x = self
        n = int(n)
        if n < 0:
            raise ValueError("negative power of a QuadInt")
        while n:
            if n & 1:
                r = r * x
            x = x * x
            n >>= 1
        return r

    def __eq__(self, other):
        if isinstance(other, int):
            return self.a == other and self.b == 0
        return (isinstance(other, QuadInt) and self.a == other.a
                and self.b == other.b and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def conj(self):
        _, S, _, _ = _FIELD_TABLE[self.d]
        return QuadInt(self.a + S * self.b, -self.b, self.d)

    def norm(self):
        _, S, T, _ = _FIELD_TABLE[self.d]
        return pair_norm(S, T, self.a, self.b)

    def trace(self):
        _, S, _, _ = _FIELD_TABLE[self.d]
        return 2 * self.a + S * self.b

    def is_unit(self):
        return self.norm() == 1

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return "%d*w" % self.b
        return "%d%+d*w" % (self.a, self.b)


def units(d):
    return [QuadInt(a, b, d) for a, b in field_params(d)[3]]


def one(d):
    return QuadInt(1, 0, d)


def omega(d):
    return QuadInt(0, 1, d)


# ---------------------------------------------------------------------------
# the Euclidean kernel on int pairs
#
# Division, gcd, exact division, cusp normalisation and the Moebius action
# all run here on plain ints: an element a + b*w is the pair (a, b), a cusp
# (num : den) the 4-tuple (num_a, num_b, den_a, den_b) and a matrix
# [[a, b], [c, d]] the 8-tuple (a_a, a_b, b_a, b_b, c_a, c_b, d_a, d_b).
# Each function takes the field's relation w^2 = S*w + T. The QuadInt
# functions below are wrappers over these and make QuadInts only for their
# results. The matrix product of rows of int arrays (manin.pair_mul_rows)
# is made of pair_prod.


def pair_norm(S, T, a, b):
    """The norm a^2 + S*a*b - T*b^2 of a + b*w; a and b may be int arrays."""
    return a * a + S * a * b - T * b * b


def pair_prod(S, T, xa, xb, ya, yb):
    """The product (a1 + b1 w)(a2 + b2 w) with w^2 = S*w + T as a pair;
    the entries may be int arrays."""
    return xa * ya + T * xb * yb, xa * yb + xb * ya + S * xb * yb


def divmod_step(S, T, xa, xb, ya, yb, n):
    """The Euclidean division step x = q*y + r, n = N(y) nonzero, on ints or
    on int arrays alike: (qa, qb, ra, rb, N(r)). Nearest rounding alone is
    not enough for d = 7, 11, so the four lattice points around the exact
    quotient are scanned in the order (fa, fb), (fa, fb + 1), (fa + 1, fb),
    (fa + 1, fb + 1), and one replaces the current choice only when its
    remainder has strictly smaller norm. Each choice is made by arithmetic,
    b + (a - b)*c for the comparison c, so arrays take it elementwise."""
    # x * conj(y) = (za, zb); the exact quotient is (za/n, zb/n)
    ca = ya + S * yb
    fa = (xa * ca - T * xb * yb) // n
    fb = (xb * ca - xa * yb - S * xb * yb) // n
    ra = xa - fa * ya - T * fb * yb
    rb = xb - fa * yb - fb * ya - S * fb * yb
    best = pair_norm(S, T, ra, rb)
    # the offset e of the quotient f + e; the candidates are r - e*y for
    # e = w, 1, 1 + w, with w*y = (T*yb, ya + S*yb)
    wa, wb = T * yb, ca
    ea = eb = 0
    for da, db in ((0, 1), (1, 0), (1, 1)):
        nt = pair_norm(S, T, ra - da * ya - db * wa, rb - da * yb - db * wb)
        c = nt < best
        best = best + (nt - best) * c
        ea, eb = ea + (da - ea) * c, eb + (db - eb) * c
    return (fa + ea, fb + eb, ra - ea * ya - eb * wa, rb - ea * yb - eb * wb,
            best)


def pair_divmod(S, T, xa, xb, ya, yb):
    """Euclidean division x = q*y + r with N(r) < N(y): (qa, qb, ra, rb),
    by divmod_step."""
    n = pair_norm(S, T, ya, yb)
    if not n:
        raise ZeroDivisionError("QuadInt division by zero")
    qa, qb, ra, rb, best = divmod_step(S, T, xa, xb, ya, yb, n)
    assert best < n
    return qa, qb, ra, rb


def pair_gcd(S, T, xa, xb, ya, yb):
    """A gcd of x and y by Euclidean division: the last nonzero remainder."""
    while ya or yb:
        xa, xb, (_, _, ya, yb) = ya, yb, pair_divmod(S, T, xa, xb, ya, yb)
    return xa, xb


def pair_exact_div(S, T, xa, xb, ya, yb):
    """x / y, where y divides x; raises ValueError otherwise."""
    n = pair_norm(S, T, ya, yb)
    if not n:
        raise ZeroDivisionError("QuadInt division by zero")
    ca = ya + S * yb
    za = xa * ca - T * xb * yb
    zb = xb * ca - xa * yb - S * xb * yb
    if za % n or zb % n:
        raise ValueError("(%d, %d) does not divide (%d, %d)"
                         % (ya, yb, xa, xb))
    return za // n, zb // n


def pair_cusp(S, T, na, nb, da, db):
    """The cusp (num : den) as a coprime pair: both divided by their gcd."""
    ga, gb = pair_gcd(S, T, na, nb, da, db)
    if not (ga or gb):
        raise ValueError("(0:0) is not a cusp")
    return (pair_exact_div(S, T, na, nb, ga, gb)
            + pair_exact_div(S, T, da, db, ga, gb))


def pair_mul(S, T, g, h):
    """The matrix product g*h."""
    a0, a1, b0, b1, c0, c1, d0, d1 = g
    e0, e1, f0, f1, g0, g1, h0, h1 = h
    return (a0 * e0 + T * a1 * e1 + b0 * g0 + T * b1 * g1,
            a0 * e1 + a1 * e0 + S * a1 * e1 + b0 * g1 + b1 * g0 + S * b1 * g1,
            a0 * f0 + T * a1 * f1 + b0 * h0 + T * b1 * h1,
            a0 * f1 + a1 * f0 + S * a1 * f1 + b0 * h1 + b1 * h0 + S * b1 * h1,
            c0 * e0 + T * c1 * e1 + d0 * g0 + T * d1 * g1,
            c0 * e1 + c1 * e0 + S * c1 * e1 + d0 * g1 + d1 * g0 + S * d1 * g1,
            c0 * f0 + T * c1 * f1 + d0 * h0 + T * d1 * h1,
            c0 * f1 + c1 * f0 + S * c1 * f1 + d0 * h1 + d1 * h0 + S * d1 * h1)


def pair_moebius(S, T, g, c):
    """The cusp (a*num + b*den : c*num + d*den) of g = [[a, b], [c, d]]."""
    a0, a1, b0, b1, c0, c1, d0, d1 = g
    na, nb, da, db = c
    return pair_cusp(
        S, T,
        a0 * na + T * a1 * nb + b0 * da + T * b1 * db,
        a0 * nb + a1 * na + S * a1 * nb + b0 * db + b1 * da + S * b1 * db,
        c0 * na + T * c1 * nb + d0 * da + T * d1 * db,
        c0 * nb + c1 * na + S * c1 * nb + d0 * db + d1 * da + S * d1 * db)


def mat_pairs(mat):
    """The 8-tuple of a matrix of QuadInts."""
    (a, b), (c, d) = mat
    return (a.a, a.b, b.a, b.b, c.a, c.b, d.a, d.b)


def pair_mat(g, d):
    """The matrix of QuadInts of an 8-tuple over Q(sqrt(-d))."""
    return ((QuadInt(g[0], g[1], d), QuadInt(g[2], g[3], d)),
            (QuadInt(g[4], g[5], d), QuadInt(g[6], g[7], d)))


def _common_params(x, y):
    """(S, T) of the field of the QuadInts (or cusps) x and y."""
    if x.d != y.d:
        raise ValueError("mixed fields")
    return field_params(x.d)[1:3]


def exact_div(x, y):
    S, T = _common_params(x, y)
    try:
        return QuadInt(*pair_exact_div(S, T, x.a, x.b, y.a, y.b), x.d)
    except ValueError:
        raise ValueError("%r does not divide %r" % (y, x)) from None


def divides(y, x):
    """Whether y divides x: the remainder of pair_divmod is zero."""
    S, T = _common_params(x, y)
    return not any(pair_divmod(S, T, x.a, x.b, y.a, y.b)[2:])


def int_val(n, p):
    """v_p(n): the exponent of the prime p in the nonzero integer n."""
    if not n:
        raise ValueError("the valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PrimeData:
    """Splitting data of a rational prime p in O_F."""

    __slots__ = ("p", "kind", "pi", "pibar", "e", "f", "norm")

    def __init__(self, p, kind, pi, pibar, e, f):
        self.p = p
        self.kind = kind          # "split" | "inert" | "ramified"
        self.pi = pi
        self.pibar = pibar
        self.e = e
        self.f = f
        self.norm = p ** f

    def __repr__(self):
        return "PrimeData(p=%d, %s, pi=%r, N=%d)" % (
            self.p, self.kind, self.pi, self.norm)

    def minpoly(self):
        """(S, T) with g^2 = S*g + T, for the basis {1, g} of the completion
        of F at this prime: g = w at an inert prime and g = pi at a
        ramified one. A split prime has two completions, which the p-adic
        layer does not model."""
        if self.kind == "inert":
            return field_params(self.pi.d)[1:3]
        if self.kind == "ramified":
            return self.pi.trace(), -self.pi.norm()
        raise NotImplementedError("split primes need the product model")


# ---------------------------------------------------------------------------
# precision bounds of the completions, read before any numpy layer loads


class PrecisionError(ArithmeticError):
    """A p-adic result cannot hold the precision it must (padic and the
    layers on it raise it; the CLI maps it to exit code 2)."""


def int64_exact(p, M, S, T):
    """Whether the moment products of the completion with basis {1, g},
    g^2 = S*g + T, at precision p^M are exact in int64: the largest
    intermediate of a product of M x M pair matrices reduced mod p^M is
    2M products of residues plus an S or T multiple of a residue."""
    mod = p ** M
    return 2 * M * (mod - 1) ** 2 + (abs(S) + abs(T)) * mod < 2 ** 63


def _legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _sqrt_mod(a, p):
    """A square root of the quadratic residue a modulo the odd prime p
    (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    z = 2
    while _legendre(z, p) != -1:
        z += 1
    c, x, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        # the least i with t^(2^i) = 1; then i < e
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (e - i - 1), p)
        x, c, t, e = x * b % p, b * b % p, t * b * b % p, i
    return x


def split_prime(p, d):
    """Factor the rational prime p in the ring of integers of Q(sqrt(-d))."""
    D, S, T, _ = field_params(d)
    if D % p == 0:
        # ramified: pi = sqrt(-d) up to a unit; p | D
        if d in (1, 2):
            pi = QuadInt(1, 1, d) if d == 1 else omega(d)
        else:
            pi = QuadInt(-1, 2, d)  # 2w - 1 = sqrt(-d)
        assert abs(pi.norm()) == p
        return PrimeData(p, "ramified", pi, pi.conj(), 2, 1)
    # x^2 - S x - T mod p: discriminant S^2 + 4T = -D (or -4d adjusted)
    disc = S * S + 4 * T
    if p == 2:
        roots = [r for r in (0, 1) if (r * r - S * r - T) % 2 == 0]
    elif _legendre(disc, p) == 1:
        # the roots (S +- sqrt(disc))/2 sum to S
        r = (S + _sqrt_mod(disc, p)) * ((p + 1) // 2) % p
        roots = [r, (S - r) % p]
    else:
        roots = []
    if not roots:
        return PrimeData(p, "inert", QuadInt(p, 0, d), QuadInt(p, 0, d), 1, 2)
    root = min(roots)
    assert (root * root - S * root - T) % p == 0
    pi = QuadInt(*pair_gcd(S, T, p, 0, -root, 1), d)
    assert pi.norm() == p
    return PrimeData(p, "split", pi, pi.conj(), 1, 1)


# ---------------------------------------------------------------------------
# cusps


class Cusp:
    """Point of P^1(F) as a coprime pair (num : den); den = 0 is infinity.
    It holds the int pairs v = (num_a, num_b, den_a, den_b) of pair_cusp;
    num and den are made as QuadInts on demand."""

    __slots__ = ("d", "v")

    def __init__(self, num, den):
        S, T = _common_params(num, den)
        self.d = num.d
        self.v = pair_cusp(S, T, num.a, num.b, den.a, den.b)

    @classmethod
    def from_pairs(cls, d, v):
        """The cusp of a coprime pair v (a result of pair_cusp)."""
        c = cls.__new__(cls)
        c.d, c.v = d, v
        return c

    @property
    def num(self):
        return QuadInt(self.v[0], self.v[1], self.d)

    @property
    def den(self):
        return QuadInt(self.v[2], self.v[3], self.d)

    def is_infinity(self):
        return not (self.v[2] or self.v[3])

    def key(self):
        # canonical form up to units: the least unit multiple
        _, S, T, us = field_params(self.d)
        na, nb, da, db = self.v
        return min((na * ua + T * nb * ub, na * ub + nb * ua + S * nb * ub,
                    da * ua + T * db * ub, da * ub + db * ua + S * db * ub)
                   for ua, ub in us)

    def __eq__(self, other):
        return isinstance(other, Cusp) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.is_infinity():
            return "oo"
        return "(%r)/(%r)" % (self.num, self.den)


def cusp_infinity(d):
    return Cusp.from_pairs(d, (1, 0, 0, 0))


def cusp_zero(d):
    return Cusp.from_pairs(d, (0, 0, 1, 0))


def apply_moebius(mat, c):
    """Standard Moebius action (az+b)/(cz+d) of mat = [[a,b],[c,d]] on a cusp."""
    _, S, T, _ = field_params(c.d)
    return Cusp.from_pairs(c.d, pair_moebius(S, T, mat_pairs(mat), c.v))


def mat_det(mat):
    (a, b), (c, d) = mat
    return a * d - b * c


def mat_mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def identity_mat(d):
    return ((one(d), QuadInt(0, 0, d)), (QuadInt(0, 0, d), one(d)))


def path_between(r, s):
    """List of (sign, unimodular g) with sum sign*{g 0 -> g oo} = {r -> s}
    (manin.manin_pieces on the one path)."""
    from .manin import manin_pieces
    S, T = _common_params(r, s)
    _, signs, G = manin_pieces(S, T, [r.v + s.v])
    return [(sign, pair_mat(g, r.d))
            for sign, g in zip(signs.tolist(), G.tolist())]


# ---------------------------------------------------------------------------
# residue rings and characters


def _hnf_2x2(v1, v2):
    """Lower-triangular HNF basis [(h00,0),(h10,h11)] of the lattice Z v1 + Z v2."""
    rows = [list(v1), list(v2)]
    # make second coordinate zero in one generator
    while rows[0][1] and rows[1][1]:
        if abs(rows[0][1]) < abs(rows[1][1]):
            rows.reverse()
        q = rows[0][1] // rows[1][1]
        rows[0] = [rows[0][k] - q * rows[1][k] for k in range(2)]
    if rows[0][1]:
        rows.reverse()
    # rows[0] = (g, 0); rows[1] = (h10, h11)
    h00 = abs(rows[0][0])
    h10, h11 = rows[1]
    if h11 < 0:
        h10, h11 = -h10, -h11
    h10 %= h00
    return h00, h10, h11


class ResidueRing:
    """The quotient O_F / (n). A residue is its code r0 + h00*r1 in
    range(size), for its canonical pair (r0, r1) on the HNF basis of (n)."""

    def __init__(self, n):
        if not n:
            raise ValueError("modulus must be nonzero")
        self.n = n
        self.d = n.d
        nw = n * omega(n.d)
        self.h00, self.h10, self.h11 = _hnf_2x2((n.a, n.b), (nw.a, nw.b))
        self.size = self.h00 * self.h11
        assert self.size == abs(n.norm())

    def reduce_pair(self, a, b):
        """The canonical pair of the residue of a + b*w; a and b may be int
        arrays."""
        r = b % self.h11
        return (a - (b - r) // self.h11 * self.h10) % self.h00, r

    def code(self, a, b):
        """The code of the residue of a + b*w, r0 + h00*r1 for its
        canonical pair (r0, r1); a and b may be int arrays."""
        r0, r1 = self.reduce_pair(a, b)
        return r0 + self.h00 * r1

    def pair(self, code):
        """The canonical pair of a residue code; code may be an int array."""
        return code % self.h00, code // self.h00

    def _xgcd_n(self, x):
        """manin.xgcd_unit_rows of the rows (x, n) for the int pairs x,
        an (k, 2) int array."""
        import numpy as np
        from .manin import xgcd_unit_rows
        _, S, T, _ = field_params(self.d)
        x = np.asarray(x, dtype=np.int64).reshape(-1, 2)
        n = np.broadcast_to(np.array([self.n.a, self.n.b]), x.shape)
        return xgcd_unit_rows(S, T, np.concatenate([x, n], axis=1))

    def unit_pairs(self):
        """The canonical pairs of the units, in code order, as the rows of
        a (k, 2) int array: the residues whose gcd with n is a unit, in one
        lockstep pass."""
        import numpy as np
        x = np.stack(self.pair(np.arange(self.size)), axis=1)
        return x[self._xgcd_n(x)[0]]

    def inverse_pairs(self, x):
        """The inverse of each row of the int pairs x, an (k, 2) int array,
        as canonical pairs, in one lockstep pass."""
        import numpy as np
        unit, W = self._xgcd_n(x)
        if not unit.all():
            raise ValueError("%r is not invertible mod %r"
                             % (np.asarray(x)[~unit][0].tolist(), self.n))
        return np.stack(self.reduce_pair(W[:, 0], W[:, 1]), axis=1)

    def is_unit(self, a, b):
        """Whether a + b*w is a unit mod n: the gcd (pair_gcd) of its
        canonical pair and n has norm 1."""
        _, S, T, _ = field_params(self.d)
        g = pair_gcd(S, T, *self.reduce_pair(a, b), self.n.a, self.n.b)
        return pair_norm(S, T, *g) == 1

    def inverse(self, x):
        """The inverse of the residue x: inverse_pairs of the one row."""
        a, b = self.inverse_pairs([(x.a, x.b)])[0].tolist()
        return QuadInt(a, b, self.d)

    def mul(self, x, y):
        """The code of the product of the residues of the codes x and y."""
        _, S, T, _ = field_params(self.d)
        return self.code(*pair_prod(S, T, *self.pair(x), *self.pair(y)))

    def mult_order(self, a, b):
        """The multiplicative order of the unit a + b*w mod n."""
        if not self.is_unit(a, b):
            raise ValueError("order of a non-unit")
        x, e = self.code(a, b), self.code(1, 0)
        k, z = 1, x
        while z != e:
            z = self.mul(z, x)
            k += 1
        return k


class RayCharacter:
    """Quadratic character of (O_F/c)^x trivial on the global units: a list
    table indexed by residue code, +-1 on the units and 0 off them."""

    def __init__(self, modulus, table, conductor):
        self.modulus = modulus
        self.ring = ResidueRing(modulus)
        self.table = table
        self.conductor = conductor

    def __call__(self, x):
        """chi of the ring element x, a QuadInt or an int."""
        a, b = (x, 0) if isinstance(x, int) else (x.a, x.b)
        return self.table[self.ring.code(a, b)]

    def is_trivial(self):
        return -1 not in self.table

    def __repr__(self):
        return "RayCharacter(mod %r, cond %r)" % (self.modulus, self.conductor)


def factor_ideal(c):
    """The prime factorization of (c), c nonzero: [(pi, k, pd)] with
    pi^k || c and pd = split_prime of the rational prime under pi, in
    increasing order of that prime (pi before pibar when it splits). Trial
    division of N(c) stops at p^2 > N; the leftover norm is then prime."""
    if not c:
        raise ValueError("the zero ideal has no factorization")
    d = c.d
    n = abs(c.norm())
    rest = c
    out = []
    p = 2
    while n > 1:
        if p * p > n:
            p = n
        if n % p == 0:
            pd = split_prime(p, d)
            for pi in ([pd.pi, pd.pibar] if pd.kind == "split" else [pd.pi]):
                k = 0
                while divides(pi, rest):
                    rest = exact_div(rest, pi)
                    k += 1
                if k:
                    out.append((pi, k, pd))
            n //= p ** int_val(n, p)
        p += 1
    assert rest.is_unit(), "leftover factor"
    return out


def _ideal_divisors(c):
    """All divisors of (c) up to units, as generators."""
    divs = [one(c.d)]
    for pi, k, _ in factor_ideal(c):
        divs = [g * pi ** j for g in divs for j in range(k + 1)]
    return divs


def _exact_conductor(modulus, table, ring):
    """The least divisor g of the modulus (by norm, the first of equals) mod
    which the code table of a character over ring factors."""
    units = [(ring.pair(k), v) for k, v in enumerate(table) if v]
    best = modulus
    for g in _ideal_divisors(modulus):
        if abs(g.norm()) >= abs(best.norm()):
            continue
        sub, vals = ResidueRing(g), {}
        if all(vals.setdefault(sub.code(*x), v) == v for x, v in units):
            best = g
    return best


def quadratic_ray_characters(c):
    """All characters of (O_F/c)^x of order <= 2 trivial on the unit group,
    on residue codes. Each is annotated with its exact conductor."""
    ring = ResidueRing(c)
    us = ring.code(*ring.unit_pairs().T).tolist()
    e = ring.code(1, 0)
    # subgroup S generated by squares and global units; characters = homs of U/S
    gens = ({ring.mul(u, u) for u in us}
            | {ring.code(a, b) for a, b in field_params(c.d)[3]})
    S, frontier = {e}, [e]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ring.mul(x, g)
            if y not in S:
                S.add(y)
                frontier.append(y)
    # coset decomposition of U by S, each coset named by its first unit
    coset_of, reps = {}, []
    for u in us:
        if u not in coset_of:
            reps.append(u)
            coset_of.update((ring.mul(u, s), u) for s in S)
    # U/S is an elementary abelian 2-group; find a basis greedily, keeping
    # the F_2 coordinates (a bit mask over the basis) of each coset
    basis = []
    coords = {coset_of[e]: 0}
    for rep in reps:
        if rep in coords:
            continue
        bit = 1 << len(basis)
        basis.append(rep)
        for x, mask in list(coords.items()):
            coords[coset_of[ring.mul(rep, x)]] = mask | bit
    chars = []
    for mask in range(1 << len(basis)):
        # basis element i has sign -1 exactly when bit i of mask is set
        table = [0] * ring.size
        for u in us:
            table[u] = (-1) ** (mask & coords[coset_of[u]]).bit_count()
        cond = _exact_conductor(c, table, ring)
        chars.append(RayCharacter(c, table, cond))
    return chars


def default_embedding_data(p, d):
    """The default embedding data (c, v) at the prime over p: two v mod the
    first and one v mod the second of the moduli 3, 7, 11 coprime to p (a
    rational c is coprime to pi exactly when p does not divide it)."""
    c1, c2 = [QuadInt(c, 0, d) for c in (3, 7, 11) if c % p][:2]
    return [(c1, one(d)), (c1, QuadInt(2, 0, d)), (c2, one(d))]


def parse_quadint(text, d):
    """Parse 'a', 'b*w', or 'a+b*w' (also 'a-b*w', bare 'w'; 'i' for d=1)."""
    text = text.strip().replace(" ", "")
    if d == 1:
        text = text.replace("i", "w")
    if not text:
        raise ValueError("empty element")
    # normalize leading sign handling by splitting on +/- outside the first char
    a, b = 0, 0
    term = ""
    terms = []
    for i, ch in enumerate(text):
        if ch in "+-" and i > 0:
            terms.append(term)
            term = ch
        else:
            term += ch
    terms.append(term)
    for t in terms:
        if "w" in t:
            coeff = t.replace("*w", "").replace("w", "")
            if coeff in ("", "+"):
                b += 1
            elif coeff == "-":
                b -= 1
            else:
                b += int(coeff)
        else:
            a += int(t)
    return QuadInt(a, b, d)

