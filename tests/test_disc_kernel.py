"""The stacked disc kernel against the per-disc scalar code.

On every disc of the reference measures at (1) and (3), of the ramified
p = 2 measures at (1), (3) and (4+i) and of the rational measures, each
kernel of lfun gives, row by row, the value and the precision that the
scalar series code of disc_reference gives for that disc alone. The
stacked element ops of padic are checked op by op against PadicElement:
value, precision and the error raised first, over Q_11(i) at M = 8,
Q_2(i) and Q_3(sqrt(-3)) at M = 6, Q_5, and Q_11(i) at M = 20, where
the pair arithmetic leaves int64."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import disc_reference as ref
from padicbianchi import basechange as bc
from padicbianchi import field as fld
from padicbianchi import lfun
from padicbianchi import ocsymb as oc
from padicbianchi import padic
from padicbianchi.field import QuadInt


def qi(a, b=0):
    return QuadInt(a, b, 1)


def rows(stack):
    return [(int(a), int(b), int(c))
            for a, b, c in zip(stack.c0, stack.c1, stack.prec)]


def pins(elts):
    return [(x.c0, x.c1, x.prec) for x in elts]


def all_discs(mu):
    return mu.discs(mu.unit_discs()[1])


def reference(mu, discs, fn, *args):
    """fn(fd, B, G, *args) of disc_reference on each disc."""
    out = []
    for k, centre in enumerate(discs.centres.tolist()):
        fd = oc.FiniteDistribution(mu.psi.ctx, discs.moments[k])
        out.append(fn(fd, mu.element(*centre), mu.G, *args))
    return out


def check_measure(mu, powers):
    discs = all_discs(mu)
    pctx, M = mu.pctx, mu.psi.ctx.M
    L = discs.log_series()
    for k, centre in enumerate(discs.centres.tolist()):
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
        ar = oc.DistContext(fld.split_prime(11, 1), 4)
        pctx = ar.pctx
        log = padic.StackLog(3)
        x = padic.PadicStack.of(ar, [pctx.elt(11), pctx.elt(1), pctx.elt(2)],
                                log)
        x.div_int(11)
        x.inverse()
        with pytest.raises(padic.PrecisionError,
                           match="inverse of a non-unit"):
            log.check()


# ---------------------------------------------------------------------------
# element ops against PadicElement

class QpArith(oc.DistContext):
    """DistContext's pair arithmetic over Q_p alone: every c1 is 0 and
    g^2 = 0, so mul, conj and inv act on c0 as the integers mod p^M."""

    def __init__(self, p, M):
        self.pctx = padic.Qp(p, M)
        self.p, self.M, self.mod = p, M, p ** M
        self.S, self.T = 0, 0
        assert 2 * M * self.mod ** 2 < 2 ** 63
        self.dtype = np.int64
        self.powers = np.array([p ** k for k in range(M + 1)],
                               dtype=np.int64)


CONTEXTS = {
    "Q11(i)": lambda: oc.DistContext(fld.split_prime(11, 1), 8),
    "Q2(i)": lambda: oc.DistContext(fld.split_prime(2, 1), 6),
    "Q3(sqrt-3)": lambda: oc.DistContext(fld.split_prime(3, 3), 6),
    "Q5": lambda: QpArith(5, 6),
    # 11^20 > 2^63: the pair arithmetic runs on Python ints (dtype object)
    "Q11(i) M20": lambda: oc.DistContext(fld.split_prime(11, 1), 20),
}
_ARITH = {}


def arith(name):
    if name not in _ARITH:
        _ARITH[name] = CONTEXTS[name]()
    return _ARITH[name]


@st.composite
def elements(draw, ar, unit=False, full=False):
    pctx = ar.pctx

    def coeff():
        k = 0 if unit else draw(st.integers(0, ar.M))
        return draw(st.integers(0, ar.mod - 1)) * ar.p ** k % ar.mod

    c0 = coeff()
    c1 = 0 if pctx.ext_kind == "base" else coeff()
    if unit and c0 % ar.p == 0:
        c0 += 1
    prec = pctx.cap if full else draw(st.integers(0, pctx.cap))
    return pctx.elt(c0, c1, prec)


def element_lists(ar, **kw):
    return st.lists(elements(ar, **kw), min_size=1, max_size=6)


def compare(ar, xs, scalar, stacked):
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
    got = stacked(padic.PadicStack.of(ar, xs, log))
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
        ar = arith(name)
        xs = data.draw(element_lists(ar))
        ys = data.draw(st.lists(elements(ar), min_size=len(xs),
                                max_size=len(xs)))
        other = padic.PadicStack.of(ar, ys)
        for op in (lambda a, b: a * b, lambda a, b: a + b,
                   lambda a, b: a - b):
            it = iter(ys)
            compare(ar, xs, lambda x: op(x, next(it)),
                    lambda s: op(s, other))
        compare(ar, xs, lambda x: -x, lambda s: -s)
        compare(ar, xs, lambda x: x.conj(), lambda s: s.conj())
        compare(ar, xs, lambda x: x.val(), lambda s: s.val())
        compare(ar, xs, lambda x: x.is_zero(), lambda s: s.is_zero())
        n = data.draw(st.integers(0, 5))
        compare(ar, xs, lambda x: x ** n, lambda s: s ** n)
        total = ar.pctx.zero()
        for x in xs:
            total = total + x
        assert pins([padic.PadicStack.of(ar, xs).sum()]) == pins([total])

    @names
    @SETTINGS
    @given(data=st.data())
    def test_division(self, name, data):
        ar = arith(name)
        xs = data.draw(element_lists(ar))
        k = data.draw(st.integers(1, 3 * ar.p + 1))
        compare(ar, xs, lambda x: x / k, lambda s: s.div_int(k))
        compare(ar, xs, lambda x: x.inverse(), lambda s: s.inverse())

    @names
    @SETTINGS
    @given(data=st.data())
    def test_teichmuller_and_log(self, name, data):
        ar = arith(name)
        xs = data.draw(element_lists(ar, unit=True, full=True))
        compare(ar, xs, padic.teichmuller, padic.teichmuller_units)
        compare(ar, xs, padic.log_iw, padic.log_iw_units)

    @names
    @SETTINGS
    @given(data=st.data())
    def test_exp(self, name, data):
        ar = arith(name)
        pi = padic.ctx_uniformizer(ar.pctx)
        xs = data.draw(element_lists(ar))
        shift = data.draw(st.integers(0, ar.pctx.r_pe + 1))
        xs = [x * pi ** shift for x in xs]
        compare(ar, xs, padic.padic_exp, padic.padic_exp_stack)
