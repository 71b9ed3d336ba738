"""Tests for fixed-precision p-adic arithmetic and the Iwasawa logarithm."""

import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import padic_reference as pref
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


# ---------------------------------------------------------------------------
# one number class: an element is the 0-d PadicStack

MIXED = {
    "Q11(i)": lambda: pa.completion(fld.split_prime(11, 1), 8),
    "Q2(i)": lambda: pa.completion(fld.split_prime(2, 1), 6),
    "Q5": lambda: pa.Qp(5, 6),
    # 11^20 > 2^63: the stack coefficients are Python ints (dtype object)
    "Q11(i) M20": lambda: pa.completion(fld.split_prime(11, 1), 20),
}
mixed = pytest.mark.parametrize("name", sorted(MIXED))


def random_element(ctx, rng, unit=False, full=False):
    """c0 + c1*g with random coefficients of random valuation; a unit if
    unit, at the cap if full, else at a random precision."""
    def coeff():
        k = 0 if unit else rng.randrange(ctx.M + 1)
        return rng.randrange(ctx.mod) * ctx.p ** k % ctx.mod

    c0 = coeff()
    if unit and c0 % ctx.p == 0:
        c0 += 1
    c1 = 0 if ctx.ext_kind == "base" else coeff()
    return ctx.elt(c0, c1, ctx.cap if full else rng.randrange(ctx.cap + 1))


def rowwise(ctx, xs, scalar, stacked):
    """stacked(stack of xs) against scalar(x) of the reference PadicElement
    on each x: the rows as (c0, c1, prec), or the booleans, or the error
    the first failing row raises."""
    want, first = [], None
    for x in xs:
        try:
            want.append(scalar(pref.ref(x)))
        except ArithmeticError as exc:
            first = exc
            break
    log = pa.StackLog(len(xs))
    got = stacked(pa.PadicStack.of(ctx, xs, log))
    if first is not None:
        with pytest.raises(type(first), match=re.escape(str(first))):
            log.check()
        return
    log.check()
    if isinstance(got, pa.PadicStack):
        got = list(zip(got.c0.tolist(), got.c1.tolist(), got.prec.tolist()))
        want = [(w.c0, w.c1, w.prec) for w in want]
    assert list(got) == want


class TestOneClass:
    def test_one_class(self):
        # the tracer of perfbench wraps these three through the class dict
        assert pa.PadicElement is pa.PadicStack
        for attr in ("__mul__", "__rmul__", "__truediv__"):
            assert attr in vars(pa.PadicStack)

    @mixed
    def test_mixed_operands(self, name):
        # element and stack, int and Fraction operands in either order
        ctx = MIXED[name]()
        rng = random.Random(len(name) * 1009 + ctx.M)
        pi = pa.ctx_uniformizer(ctx)
        third = Fraction(1, 3)
        for trial in range(30):
            xs = [random_element(ctx, rng) for _ in range(6)]
            # a nonzero divisor of valuation k (a zero one raises at once)
            k = rng.randrange(3)
            e = random_element(ctx, rng, unit=True, full=True) * pi ** k
            e = ctx.elt(e.c0, e.c1, rng.randrange(k + 1, ctx.cap + 1))
            re_ = pref.ref(e)
            rowwise(ctx, xs, lambda x: re_ - x, lambda s: e - s)
            rowwise(ctx, xs, lambda x: 1 - x, lambda s: 1 - s)
            rowwise(ctx, xs, lambda x: x / re_, lambda s: s / e)
            rowwise(ctx, xs, lambda x: x * third, lambda s: s * third)
            rowwise(ctx, xs, lambda x: x + third, lambda s: s + third)
            rowwise(ctx, xs, lambda x: re_ == x, lambda s: e == s)

    @mixed
    def test_power_products(self, name, monkeypatch):
        # square and multiply stops squaring after the top bit of n: n = 121
        # (7 bits, 5 set) makes 11 products; every power has the value and
        # precision of the reference, on an element and on a stack
        ctx = MIXED[name]()
        rng = random.Random(ctx.p * 7 + ctx.M)
        xs = [random_element(ctx, rng) for _ in range(4)]
        mul = pa.PadicStack.__mul__
        calls = []

        def counted(self, other):
            calls.append(1)
            return mul(self, other)
        monkeypatch.setattr(pa.PadicStack, "__mul__", counted)
        for n, products in ((0, 0), (1, 1), (2, 2), (120, 10), (121, 11)):
            for x in xs:
                del calls[:]
                got, want = x ** n, pref.ref(x) ** n
                assert len(calls) == products
                assert (got.c0, got.c1, got.prec) == \
                    (want.c0, want.c1, want.prec)
            del calls[:]
            rowwise(ctx, xs, lambda x: x ** n, lambda s: s ** n)
            assert len(calls) == products

    @pytest.mark.parametrize("make", [
        lambda: pa.Qp(11, 4),
        lambda: pa.completion(fld.split_prime(11, 1), 4),
        lambda: pa.completion(fld.split_prime(2, 1), 6)],
        ids=["Q11", "Q11(i)", "Q2(i)"])
    def test_product_valuation_kept(self, make):
        # a product keeps min(v(x) + v(y), prec) as its valuation, and that
        # is the valuation computed afresh from its coefficients: on stacks
        # and elements, with factors that are zero to their precision and
        # precisions below 0, where the product's precision clamps at 0
        ctx = make()
        rng = random.Random(ctx.p * 13 + ctx.M)

        def element():
            x = random_element(ctx, rng)
            if rng.random() < 0.15:
                x = ctx.elt(0, 0, rng.randrange(ctx.cap + 1))
            x.prec = rng.randrange(-3, ctx.cap + 1)
            return x

        def fresh(z):
            return pa.PadicStack(ctx, z.c0, z.c1, z.prec).val()

        xs = [element() for _ in range(300)]
        ys = [element() for _ in range(300)]
        z = pa.PadicStack.of(ctx, xs) * pa.PadicStack.of(ctx, ys)
        assert z._v.tolist() == fresh(z).tolist()
        assert (z.prec == 0).any() and (z.is_zero() & (z.prec > 0)).any()
        for x, y in zip(xs, ys):
            for w in (x * y, x * 3, ctx.p * y,
                      pa.PadicStack.of(ctx, [x]) * y):
                assert w._v is not None
                assert np.array_equal(w._v, fresh(w)), (x, y)
        # zero to its precision, and a precision that clamps at 0
        zero = ctx.elt(0, 0, 2)
        assert (zero * xs[0])._v == fresh(zero * xs[0])
        low = ctx.elt(1, 0, -2)
        w = low * ctx.one()
        assert (w.prec, w._v) == (0, 0) == (0, fresh(w))

    @mixed
    def test_divisor_valuation_per_row_refused(self, name):
        ctx = MIXED[name]()
        pi = pa.ctx_uniformizer(ctx)
        s = pa.PadicStack.of(ctx, [ctx.one(), pi, pi * pi])
        with pytest.raises(TypeError, match="valuation per row"):
            ctx.one() / s
        with pytest.raises(TypeError, match="valuation per row"):
            1 / s

    @mixed
    def test_element_results_are_ints(self, name):
        # every op on elements stays in Python ints, so reports can print it
        ctx = MIXED[name]()
        rng = random.Random(ctx.p * 31 + ctx.M)
        pi = pa.ctx_uniformizer(ctx)
        u = random_element(ctx, rng, unit=True, full=True)
        x = random_element(ctx, rng, full=True) * pi * pi
        y = random_element(ctx, rng)
        s = pa.PadicStack.of(ctx, [x, y, u])
        results = [x + y, x - y, -x, x * y, 3 * y, x / u, x / (u * pi),
                   x / 5, x ** 0, x ** 3, u ** -2, x.conj(), u.inverse(),
                   s.sum(), s.element(1), ctx.from_rational(Fraction(7, 3)),
                   ctx.from_rational(Fraction(4 * ctx.p, 3)), pa.log_iw(u),
                   pa.log_iw(u * pi)]
        for r in results:
            for v in (r.c0, r.c1, r.prec, r.val()):
                assert type(v) is int, (r, v)
            json.dumps(r.to_json())
