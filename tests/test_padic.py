"""Tests for fixed-precision p-adic arithmetic and the Iwasawa logarithm."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padicbianchi import padic as pa
from padicbianchi import field as fld
from padicbianchi import ocsymb as oc
from padicbianchi.field import QuadInt
from padicbianchi.padic import PrecisionError


MOD = 11**8


def teichmuller(x):
    """The Teichmuller lift of one unit at full precision: the one-element
    case of padic.teichmuller_units."""
    return pa._scalar(pa.teichmuller_units, x)


def padic_exp(y):
    """exp on pi^{r_pe} O: the one-element case of padic.padic_exp_stack."""
    return pa._scalar(pa.padic_exp_stack, y)


def log_1plus_rational(x_num, x_den, p, M):
    """Independent oracle: truncated log(1+x) over exact rationals, reduced mod p^M."""
    acc = Fraction(0)
    x = Fraction(x_num, x_den)
    term = Fraction(1)
    for k in range(1, 4 * M):
        term *= x
        acc += Fraction((-1) ** (k + 1), k) * term
    num, den = acc.numerator, acc.denominator
    mod = p ** M
    while num % p == 0 and den % p == 0:
        num //= p
        den //= p
    assert den % p != 0
    return num * pow(den, -1, mod) % mod


class TestBase:
    def test_log_oracle(self):
        ctx = pa.Qp(11, 8)
        v = pa.log_iw(ctx.from_rational(Fraction(12)))
        assert v.c0 % MOD == log_1plus_rational(11, 1, 11, 8)
        assert v.c0 % MOD == 166348996

    def test_log_iw_kills_p(self):
        ctx = pa.Qp(11, 8)
        assert pa.log_iw(ctx.from_rational(Fraction(11))).is_zero()
        assert pa.log_iw(ctx.from_rational(Fraction(121))).is_zero()

    def test_teichmuller(self):
        ctx = pa.Qp(11, 8)
        t = teichmuller(ctx.from_rational(Fraction(2)))
        assert pow(t.c0, 10, MOD) == 1
        assert t.c0 % 11 == 2
        assert t.c0 % MOD == 181048540
        ctx3 = pa.Qp(3, 6)
        assert teichmuller(ctx3.from_rational(Fraction(2))).c0 % 3**6 == 3**6 - 1

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_log_multiplicative(self, a, b):
        if a % 11 == 0 or b % 11 == 0:
            return
        ctx = pa.Qp(11, 8)
        x, y = ctx.from_rational(Fraction(a)), ctx.from_rational(Fraction(b))
        lhs = pa.log_iw(x * y)
        rhs = pa.log_iw(x) + pa.log_iw(y)
        assert (lhs - rhs).is_zero()

    @pytest.mark.parametrize("p, M", [(2, 6), (11, 8)])
    def test_pval_contract(self, p, M):
        # min(v_p(n), M) on residues 0 <= n < p^M: 0 gives M, and the
        # nonzero residues match the stack's _pval_array
        assert pa._pval(0, p, M) == M
        assert pa._pval(1, p, M) == 0
        assert pa._pval(p ** (M - 1), p, M) == M - 1
        assert pa._pval(p ** M - p, p, M) == 1
        ns = [0, 1, p, p ** (M - 1), (p - 1) * p ** (M - 1), p ** M - 1]
        powers = [p ** k for k in range(M + 1)]
        assert pa._pval_array(ns, powers, M).tolist() == \
            [pa._pval(n, p, M) for n in ns]

    def test_nonunit_inverse_raises(self):
        ctx = pa.Qp(11, 8)
        with pytest.raises(PrecisionError):
            ctx.from_rational(Fraction(11)).inverse()


class TestInert:
    def setup_method(self):
        self.pd = fld.split_prime(11, 1)
        self.ctx = pa.completion(self.pd, 8)

    def test_embedding_ring_hom(self):
        x = QuadInt(3, 5, 1)
        y = QuadInt(-2, 7, 1)
        ex, ey = self.ctx.embed(x), self.ctx.embed(y)
        assert (self.ctx.embed(x * y) - ex * ey).is_zero()
        assert (self.ctx.embed(x + y) - (ex + ey)).is_zero()

    def test_generator_square(self):
        g = self.ctx.gen()
        # w^2 = -1 for Q(i)
        assert (g * g + self.ctx.one()).is_zero()

    def test_log_frozen(self):
        lg = pa.log_iw(self.ctx.embed(QuadInt(3, 5, 1)))
        assert (lg.c0 % MOD, lg.c1 % MOD) == (131456292, 70295973)

    def test_log_norm_compatible(self):
        z = self.ctx.embed(QuadInt(3, 5, 1))
        lg = pa.log_iw(z) + pa.log_iw(z.conj())
        nm = pa.log_iw(self.ctx.from_rational(Fraction(34)))
        assert (lg - nm).is_zero()

    def test_gauge_power(self):
        # <z>^7 = exp(7 log_iw(z)) is z^7 with its torsion part divided out
        z = self.ctx.embed(QuadInt(3, 5, 1))
        g = padic_exp(7 * pa.log_iw(z))
        w = self.ctx.one()
        for _ in range(7):
            w = w * z
        assert (g - w * teichmuller(z) ** -7).is_zero()
        assert (g.c0 % MOD, g.c1 % MOD, g.prec) == (118871424, 150888474, 8)

    def test_teichmuller_order(self):
        z = self.ctx.embed(QuadInt(3, 5, 1))
        t = teichmuller(z)
        w = self.ctx.one()
        for _ in range(120):
            w = w * t
        assert (w - self.ctx.one()).is_zero()

    def test_division_without_digits_raises(self):
        # at precision 5, 11^5 is zero to its precision: dividing by it
        # leaves no digit of the quotient, whatever the dividend
        ctx5 = pa.completion(self.pd, 5)
        p5 = ctx5.from_rational(Fraction(11 ** 5))
        for num in (ctx5.zero(), ctx5.from_rational(Fraction(7 * 11 ** 5))):
            with pytest.raises(PrecisionError, match="inexact division"):
                num / p5
        q = ctx5.from_rational(Fraction(7 * 11 ** 2)) / 11 ** 2
        assert (q - 7).is_zero() and q.prec == 3


class TestRamified:
    def setup_method(self):
        self.pd = fld.split_prime(2, 1)
        self.ctx = pa.completion(self.pd, 8)

    def test_uniformizer(self):
        piv = self.ctx.embed(self.pd.pi)
        assert piv.val() == 1
        assert self.ctx.from_rational(Fraction(2)).val() == 2
        # (1+i)^2 = 2i is 2 times a unit
        sq = piv * piv
        assert sq.val() == 2

    def test_log_of_uniformizer_vanishes(self):
        # log_iw(pi) = (1/2) log_iw(pi^2 / 2 * 2) = (1/2) log_iw(unit i), and
        # log of a torsion unit is 0
        piv = self.ctx.embed(self.pd.pi)
        assert pa.log_iw(piv).is_zero()

    def test_log_multiplicative(self):
        a = self.ctx.embed(QuadInt(3, 2, 1))
        b = self.ctx.embed(QuadInt(1, 4, 1))
        assert (pa.log_iw(a * b) - pa.log_iw(a) - pa.log_iw(b)).is_zero()


    def test_division_keeps_digits_or_raises(self):
        two = self.ctx.from_rational(Fraction(2))
        q = self.ctx.from_rational(Fraction(24)) / two ** 3
        assert (q - 3).is_zero() and q.prec > 0
        # a dividend known only to pi^4 has no digit left after division by
        # pi^6, and neither has anything divided by pi^6 at the cap pi^12
        with pytest.raises(PrecisionError, match="inexact division"):
            self.ctx.elt(8, 0, 4) / two ** 3
        # 64 is zero to the cap pi^12 at M = 6, and 8 = pi^6 * unit: each
        # of the six shifts costs one digit, so the quotient is O(pi^6)
        ctx6 = pa.completion(self.pd, 6)
        q = ctx6.from_rational(Fraction(64)) / ctx6.from_rational(Fraction(8))
        assert q.is_zero() and q.prec == 6
        # a dividend not divisible by the divisor's pi-power raises
        with pytest.raises(PrecisionError, match="inexact division"):
            self.ctx.embed(self.pd.pi) / two


@pytest.mark.parametrize("p, d, M", [(2, 1, 6), (2, 1, 8), (3, 3, 6),
                                     (11, 1, 6)])
def test_division_round_trip(p, d, M):
    # (x * y) / y == x on random pairs, y = unit * pi^k, over Q_2(i),
    # Q_3(sqrt(-3)) (both ramified) and Q_11(i) (inert)
    rng = random.Random(p * 100 + M)
    ctx = pa.completion(fld.split_prime(p, d), M)
    pi = pa.ctx_uniformizer(ctx)
    for _ in range(300):
        x = ctx.elt(rng.randrange(ctx.mod), rng.randrange(ctx.mod))
        y = ctx.elt(rng.randrange(ctx.mod), rng.randrange(ctx.mod)) \
            * pi ** rng.randrange(ctx.cap)
        if y.is_zero():
            continue
        q = (x * y) / y
        assert q.prec == ctx.cap - y.val()
        assert q == x


class TestSplit:
    def test_branch_pinned(self):
        # a split prime has two completions; the completion, and so the
        # moment layer on it, refuses it
        pd = fld.split_prime(5, 1)
        with pytest.raises(NotImplementedError):
            pa.completion(pd, 8)
        with pytest.raises(NotImplementedError):
            oc.DistContext(pd, 8)
