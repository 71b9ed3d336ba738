"""Reference values for the benchmark's output checks, computed here from the
elliptic curves themselves and not through the program under test.

- Hecke eigenvalues of the base change to Q(i) of 11a and 14a at the helper
  primes, from point counts of the rational curve over F_l: a split prime q
  over l has a_q = a_l, an inert one (N(q) = l^2) a_l^2 - 2l, a ramified one
  a_l.
- The U_p eigenvalue lambda_p at the bad prime, from the same counts.
- The classical L-invariant 2 log_p(q) / ord_p(q) of 11a at p = 11, with the
  Tate period q found by reverting the q-expansion of 1/j.

`self_check()` tests these helpers against known values before they are
trusted.
"""

from fractions import Fraction

# Weierstrass coefficients [a1, a2, a3, a4, a6] of minimal models.
CURVES = {
    "11a": (0, -1, 1, -10, -20),
    "14a": (1, 0, 1, 4, -6),
}


def point_count(ainvs, ell):
    """Projective points of the reduction mod ell (singular point included)."""
    a1, a2, a3, a4, a6 = (a % ell for a in ainvs)
    count = 1  # the point at infinity
    for x in range(ell):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % ell
        for y in range(ell):
            if (y * y + a1 * x * y + a3 * y - rhs) % ell == 0:
                count += 1
    return count


def a_ell(ainvs, ell):
    """Trace of Frobenius; at a bad prime this is 1, -1 or 0 by the reduction
    type, since the singular point is counted."""
    return ell + 1 - point_count(ainvs, ell)


def _is_prime(n):
    return n > 1 and all(n % k for k in range(2, int(n ** 0.5) + 1))


def gaussian_helper_eigenvalue(ainvs, q_norm):
    """Hecke eigenvalue of the base change to Q(i) at the prime(s) of norm
    q_norm."""
    if q_norm == 2:                                   # ramified (1 + i)
        return a_ell(ainvs, 2)
    if _is_prime(q_norm) and q_norm % 4 == 1:         # split
        return a_ell(ainvs, q_norm)
    ell = int(round(q_norm ** 0.5))
    if ell * ell == q_norm and _is_prime(ell) and ell % 4 == 3:   # inert
        return a_ell(ainvs, ell) ** 2 - 2 * ell
    raise ValueError("%d is not the norm of a Gaussian prime" % q_norm)


def lambda_p(ainvs, p, kind):
    """U_p eigenvalue of the base change at the prime above the bad prime p."""
    a = a_ell(ainvs, p)
    return a * a if kind == "inert" else a


# ---------------------------------------------------------------------------
# Tate period and the classical L-invariant


def _sigma3(n):
    return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


def _mul(f, g, n):
    out = [0] * n
    for i, fi in enumerate(f[:n]):
        if fi:
            for k, gk in enumerate(g[:n - i]):
                out[i + k] += fi * gk
    return out


def _inverse(f, n):
    """1/f for a power series with f[0] = 1."""
    out = [1] + [0] * (n - 1)
    for k in range(1, n):
        out[k] = -sum(f[i] * out[k - i] for i in range(1, k + 1))
    return out


def inverse_j_series(n):
    """Integer coefficients of 1/j(q) = q prod(1 - q^m)^24 / E4(q)^3."""
    e4 = [1] + [240 * _sigma3(m) for m in range(1, n)]
    eta24 = [1] + [0] * (n - 1)
    for m in range(1, n):
        for _ in range(24):
            eta24 = [eta24[k] - (eta24[k - m] if k >= m else 0)
                     for k in range(n)]
    body = _mul(eta24, _inverse(_mul(_mul(e4, e4, n), e4, n), n), n)
    return [0] + body[:n - 1]                          # the factor q


def revert(f, n):
    """The compositional inverse g of f = q + ..., so f(g(t)) = t."""
    g = [0, 1] + [0] * (n - 2)
    for k in range(2, n):
        # coefficient of t^k in f(g(t)) with the current g, then correct g[k]
        comp = [0] * n
        power = [1] + [0] * (n - 1)
        for c in f[1:]:
            power = _mul(power, g, n)
            if c:
                comp = [a + c * b for a, b in zip(comp, power)]
        g[k] -= comp[k]
    return g


def curve_j(ainvs):
    a1, a2, a3, a4, a6 = ainvs
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return Fraction(c4 ** 3, disc)


def _val(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def tate_period(ainvs, p, digits):
    """(u, v): the Tate period is q = p^v * u with u a unit, u mod p^digits."""
    j = curve_j(ainvs)
    v = _val(j.denominator, p)
    if v == 0 or j.numerator % p == 0:
        raise ValueError("no multiplicative reduction at %d" % p)
    n = digits // v + 3
    mod = p ** (digits + v * n)
    t = j.denominator * pow(j.numerator, -1, mod) % mod     # 1/j = p^v * unit
    g = revert(inverse_j_series(n + 1), n + 1)
    q = sum(c * pow(t, k, mod) for k, c in enumerate(g)) % mod
    if _val(q, p) != v:
        raise ArithmeticError("Tate period of the wrong valuation")
    return (q // p ** v) % p ** digits, v


def log_p_unit(u, p, digits):
    """Iwasawa logarithm of a unit of Z_p, as a residue mod p^digits:
    log(u) = log(u^(p-1)) / (p-1), with log(1 + x) = sum (-1)^(n+1) x^n / n."""
    mod = p ** (digits + 4)
    x = (pow(u, p - 1, mod) - 1) % mod
    total = Fraction(0)
    for k in range(1, 3 * digits + 10):
        total += Fraction((-1) ** (k + 1) * pow(x, k, mod), k)
    total /= p - 1
    out = total.numerator * pow(total.denominator, -1, p ** digits)
    return out % p ** digits


def classical_l_invariant(ainvs, p, digits, factor=2):
    """factor * log_p(q) / ord_p(q) for the Tate period q (log_p(p) = 0), as
    a residue mod p^digits."""
    u, v = tate_period(ainvs, p, digits + 2)
    log_u = log_p_unit(u, p, digits + 2)
    value = Fraction(factor * log_u, v)
    residue = value.numerator * pow(value.denominator, -1, p ** digits)
    return residue % p ** digits


def self_check():
    """Check the helpers against known values; raises on a mismatch."""
    known = {("11a", 2): -2, ("11a", 3): -1, ("11a", 5): 1, ("11a", 7): -2,
             ("11a", 13): 4, ("11a", 11): 1, ("14a", 3): -2, ("14a", 5): 0,
             ("14a", 2): -1}
    for (name, ell), want in known.items():
        got = a_ell(CURVES[name], ell)
        if got != want:
            raise AssertionError("a_%d(%s) = %d, expected %d"
                                 % (ell, name, got, want))
    if curve_j(CURVES["11a"]) != Fraction(-122023936, 161051):
        raise AssertionError("j(11a) is wrong")
    # 1/j = q - 744 q^2 + 356652 q^3 - ...
    if inverse_j_series(4) != [0, 1, -744, 356652]:
        raise AssertionError("q-expansion of 1/j is wrong")
    # the reverted series fed back into 1/j gives the identity
    n = 8
    f, g = inverse_j_series(n), revert(inverse_j_series(n), n)
    comp, power = [0] * n, [1] + [0] * (n - 1)
    for c in f[1:]:
        power = _mul(power, g, n)
        comp = [a + c * b for a, b in zip(comp, power)]
    if comp != [0, 1] + [0] * (n - 2):
        raise AssertionError("series reversion is wrong")
    # log is additive on units: log(ab) = log(a) + log(b)
    p, dg = 11, 10
    a, b = 2, 7
    if (log_p_unit(a * b, p, dg) - log_p_unit(a, p, dg)
            - log_p_unit(b, p, dg)) % p ** dg:
        raise AssertionError("p-adic log is not additive")
    # the Tate period of 11a has ord_11(q) = ord_11(disc) = 5
    if tate_period(CURVES["11a"], 11, 10)[1] != 5:
        raise AssertionError("ord_11 of the Tate period of 11a is not 5")
