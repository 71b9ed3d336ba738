"""The stacked disc kernel against the per-disc scalar code.

On every disc of the reference measures at (1) and (3), of the ramified
p = 2 measures at (1), (3) and (4+i) and of the rational measures, each
kernel of lfun gives, row by row, the value and the precision that the
scalar series code of disc_reference gives for that disc alone; the
table of total measures that disc_one reads is moment (0, 0) of the full
tables, and the column and row tables that the log kernels read are
their column 0 and row 0. The stacked element ops of padic are checked
op by op against the PadicElement of padic_reference, and the stacked Teichmuller lift, log and
exp against the scalar series of padic_reference: value, precision and
the error raised first, over Q_11(i) at M = 8, Q_2(i), Q_2(sqrt(-2)) and
Q_3(sqrt(-3)) at M = 6, Q_5, and Q_11(i) at M = 20, where the pair
arithmetic leaves int64."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import disc_reference as ref
import padic_reference as pref
from padicbianchi import basechange as bc
from padicbianchi import field as fld
from padicbianchi import lfun
from padicbianchi import padic
from padicbianchi.field import QuadInt


def teichmuller(x):
    """The Teichmuller lift of one unit at full precision: the one-element
    case of padic.teichmuller_units."""
    return padic._scalar(padic.teichmuller_units, x)


def qi(a, b=0):
    return QuadInt(a, b, 1)


def rows(stack):
    return [(int(a), int(b), int(c))
            for a, b, c in zip(stack.c0, stack.c1, stack.prec)]


def pins(elts):
    return [(x.c0, x.c1, x.prec) for x in elts]


def all_discs(mu):
    return mu.discs(mu.unit_discs()[1])


def full_tables(mu, discs):
    """The (n, 2, M, C) moment tables of the discs."""
    return discs.moments(*mu.psi.values.shape[-2:])


def reference(mu, discs, fn, *args):
    """fn(ctx, m, B, G, *args) of disc_reference on each disc of
    all_discs."""
    tables = full_tables(mu, discs)
    out = []
    for k, centre in enumerate(mu.unit_discs()[1].tolist()):
        out.append(fn(mu.psi.ctx, tables[k], mu.element(*centre),
                      mu.G, *args))
    return out


def check_totals(mu, discs):
    """The table of total measures, which the (1, 1) block reads, is
    moment (0, 0) of the full tables."""
    assert np.array_equal(discs.moments(1, 1),
                          full_tables(mu, discs)[:, :, :1, :1])


def check_lines(mu, discs):
    """The tables of columns and rows, which the (w, 1) and (1, w) blocks
    read, are column 0 and row 0 of the full tables (the widest blocks,
    w = M and w = C, are the whole line tables)."""
    full = full_tables(mu, discs)
    M, C = full.shape[2:]
    for w in range(2, M + 1):
        assert np.array_equal(discs.moments(w, 1), full[:, :, :w, :1])
    for w in range(2, C + 1):
        assert np.array_equal(discs.moments(1, w), full[:, :, :1, :w])


def check_measure(mu, powers):
    discs = all_discs(mu)
    check_totals(mu, discs)
    check_lines(mu, discs)
    pctx, M = mu.pctx, mu.psi.ctx.M
    L = discs.log_series()
    for k, centre in enumerate(mu.unit_discs()[1].tolist()):
        want = ref.log_series_on_disc(pctx, mu.element(*centre), mu.G, M)
        assert rows(L[k]) == pins(want)
    for kern, fn in ((lfun.disc_one, ref.disc_one),
                     (lfun.disc_log_z, ref.disc_log_z),
                     (lfun.disc_log_zbar, ref.disc_log_zbar)):
        assert rows(kern(mu, discs)) == pins(reference(mu, discs, fn))
    for s, terms in powers:
        got = lfun.disc_norm_power(s, terms)(mu, discs)
        discs.log.check()
        want = reference(mu, discs, ref.disc_norm_power, s, terms)
        assert rows(got) == pins(want)


class TestBianchiDiscs:
    @pytest.fixture(scope="class")
    def psi(self, ref_lift):
        return ref_lift[0]

    def test_modulus_one(self, psi):
        mu = lfun.build_mu_p(psi, qi(1))
        check_measure(mu, [(1, None), (121, None), (11 ** 3, None),
                           (psi.ctx.pctx.elt(3, 1), None), (2, 5)])

    def test_modulus_three(self, psi):
        mu = lfun.build_mu_p(psi, qi(3))
        check_measure(mu, [(1, None), (psi.ctx.pctx.elt(5, 7), None)])

    @pytest.mark.parametrize("m", [qi(1), qi(3), qi(4, 1)])
    def test_ramified(self, ram_lift, m):
        # p = 2: the series divide by the non-units 2 and 4
        mu = lfun.build_mu_p(ram_lift, m)
        pctx = mu.pctx
        check_measure(mu, [(1, None), (2, None), (3, 4),
                           (pctx.elt(1, 1), None), (pctx.elt(2, 3), None)])


class TestRationalDiscs:
    @pytest.mark.parametrize("which, m", [(0, 1), (1, 4)])
    def test_kernel(self, rational_lifts, which, m):
        mu = bc.build_mu_rational(rational_lifts[which][0], m)
        discs = all_discs(mu)
        check_totals(mu, discs)
        check_lines(mu, discs)
        for s in (0, 1, 2):
            for insert_log in (False, True):
                got = bc.rational_kernel(s, insert_log)(mu, discs)
                want = reference(mu, discs, ref.rational_on_disc, s,
                                 insert_log)
                assert rows(got) == pins(want)


class TestErrorOrder:
    def test_first_row_raises(self):
        # row 1 fails first in time, row 0 later: the scalar loop over the
        # rows meets row 0's error first, so that is the one raised
        ctx = padic.completion(fld.split_prime(11, 1), 4)
        log = padic.StackLog(3)
        x = padic.PadicStack.of(ctx, [ctx.elt(11), ctx.elt(1), ctx.elt(2)],
                                log)
        x.div_int(11)
        x.inverse()
        with pytest.raises(padic.PrecisionError,
                           match="inverse of a non-unit"):
            log.check()


# ---------------------------------------------------------------------------
# element ops against the PadicElement class and the scalar series of
# padic_reference

CONTEXTS = {
    "Q11(i)": lambda: padic.completion(fld.split_prime(11, 1), 8),
    "Q2(i)": lambda: padic.completion(fld.split_prime(2, 1), 6),
    # about half the units of Q_2(sqrt(-2)) have no torsion splitting and
    # take the power fallback of log_iw_units, with its halvings
    "Q2(sqrt-2)": lambda: padic.completion(fld.split_prime(2, 2), 6),
    "Q3(sqrt-3)": lambda: padic.completion(fld.split_prime(3, 3), 6),
    "Q5": lambda: padic.Qp(5, 6),
    # 11^20 > 2^63: the pair arithmetic runs on Python ints (dtype object)
    "Q11(i) M20": lambda: padic.completion(fld.split_prime(11, 1), 20),
}
_CTX = {}


def completion(name):
    if name not in _CTX:
        _CTX[name] = CONTEXTS[name]()
    return _CTX[name]


@st.composite
def elements(draw, ctx, unit=False, full=False):
    def coeff():
        k = 0 if unit else draw(st.integers(0, ctx.M))
        return draw(st.integers(0, ctx.mod - 1)) * ctx.p ** k % ctx.mod

    c0 = coeff()
    c1 = 0 if ctx.ext_kind == "base" else coeff()
    if unit and c0 % ctx.p == 0:
        c0 += 1
    prec = ctx.cap if full else draw(st.integers(0, ctx.cap))
    return pref.elt(ctx, c0, c1, prec)


def element_lists(ctx, **kw):
    return st.lists(elements(ctx, **kw), min_size=1, max_size=6)


def compare(ctx, xs, scalar, stacked):
    """scalar(x) on each x in order against stacked(stack of xs): the rows,
    or the first error the scalar loop meets."""
    want, first = [], None
    for x in xs:
        try:
            want.append(scalar(x))
        except ArithmeticError as exc:
            first = exc
            break
    log = padic.StackLog(len(xs))
    got = stacked(padic.PadicStack.of(ctx, xs, log))
    if first is not None:
        with pytest.raises(type(first), match=re.escape(str(first))):
            log.check()
        return
    log.check()
    if isinstance(got, padic.PadicStack):
        assert rows(got) == pins(want)
    else:
        assert list(got) == want


names = pytest.mark.parametrize("name", sorted(CONTEXTS))
SETTINGS = settings(max_examples=40, deadline=None)


class TestStackOps:
    @names
    @SETTINGS
    @given(data=st.data())
    def test_ring_ops(self, name, data):
        ctx = completion(name)
        xs = data.draw(element_lists(ctx))
        ys = data.draw(st.lists(elements(ctx), min_size=len(xs),
                                max_size=len(xs)))
        other = padic.PadicStack.of(ctx, ys)
        for op in (lambda a, b: a * b, lambda a, b: a + b,
                   lambda a, b: a - b):
            it = iter(ys)
            compare(ctx, xs, lambda x: op(x, next(it)),
                    lambda s: op(s, other))
        compare(ctx, xs, lambda x: -x, lambda s: -s)
        compare(ctx, xs, lambda x: x.conj(), lambda s: s.conj())
        compare(ctx, xs, lambda x: x.val(), lambda s: s.val())
        compare(ctx, xs, lambda x: x.is_zero(), lambda s: s.is_zero())
        n = data.draw(st.integers(0, 5))
        compare(ctx, xs, lambda x: x ** n, lambda s: s ** n)
        # negative powers go through the inverse
        units = data.draw(element_lists(ctx, unit=True))
        n = data.draw(st.integers(-5, -1))
        compare(ctx, units, lambda x: x ** n, lambda s: s ** n)
        total = pref.elt(ctx, 0)
        for x in xs:
            total = total + x
        assert pins([padic.PadicStack.of(ctx, xs).sum()]) == pins([total])

    @names
    @SETTINGS
    @given(data=st.data())
    def test_division(self, name, data):
        ctx = completion(name)
        xs = data.draw(element_lists(ctx))
        k = data.draw(st.integers(1, 3 * ctx.p + 1))
        compare(ctx, xs, lambda x: x / k, lambda s: s.div_int(k))
        compare(ctx, xs, lambda x: x.inverse(), lambda s: s.inverse())

    @names
    @SETTINGS
    @given(data=st.data())
    def test_teichmuller_and_log(self, name, data):
        ctx = completion(name)
        xs = data.draw(element_lists(ctx, unit=True, full=True))
        compare(ctx, xs, pref.teichmuller, padic.teichmuller_units)
        compare(ctx, xs, pref.log_iw, padic.log_iw_units)
        # the scalar log_iw on pi^k times a unit: the pi-power part and
        # the unit's log agree with the reference to their precision
        k = data.draw(st.integers(0, 3))
        x = xs[0] * padic.ctx_uniformizer(ctx) ** k
        want = pref.log_iw(x)
        got = padic.log_iw(ctx.elt(x.c0, x.c1, x.prec))
        assert got.prec == want.prec and (got - want).is_zero()

    @names
    @SETTINGS
    @given(data=st.data())
    def test_exp(self, name, data):
        ctx = completion(name)
        pi = padic.ctx_uniformizer(ctx)
        xs = data.draw(element_lists(ctx))
        shift = data.draw(st.integers(0, ctx.r_pe + 1))
        xs = [x * pi ** shift for x in xs]
        compare(ctx, xs, pref.padic_exp, padic.padic_exp_stack)


class TestTeichmullerTable:
    def test_refuses_below_full_precision(self):
        # at precision 2 the iteration y -> y^q settles after two digits:
        # the lift it would store is wrong from the third digit on
        ctx = padic.completion(fld.split_prime(11, 1), 8)
        x = ctx.elt(2, 3, 2)
        log = padic.StackLog(1)
        padic.teichmuller_units(padic.PadicStack.of(ctx, [x], log))
        with pytest.raises(padic.PrecisionError, match="below full"):
            log.check()
        assert ctx._teich == {}
        with pytest.raises(padic.PrecisionError, match="below full"):
            teichmuller(x)
        with pytest.raises(ValueError, match="non-unit"):
            teichmuller(ctx.elt(11, 22))
        assert ctx._teich == {}
        t = teichmuller(ctx.elt(2, 3))
        assert (t.c0, t.c1, t.prec) == (1793409, 88272077, 8)
        assert (t ** 120 - 1).is_zero()
        # a unit below full precision still has its log, from the lift of
        # its class
        lg = padic.log_iw(x)
        assert lg.prec == 2 and (lg - pref.log_iw(x)).is_zero()
