"""The acceptance suite.

Each criterion runs at its stated tolerance through the shared
implementations in padicbianchi.acceptance and reports one pass/fail line.
Criterion 7 asserts the stated base-change comparison: the pipeline
L-invariant, taken with the p-direction logarithm log_p o N, is twice the
classical L-invariant at the inert prime 11. The companion regression after
it pins the one-variable log_iw normalisation that the certificate reports
next to it against the single classical factor.
"""

import json

import pytest

from padicbianchi import acceptance as acc
from padicbianchi import basechange as bc
from padicbianchi import cocycle as cc


@pytest.fixture(scope="module")
def ctx(ref_symbols, ref_lift, ref_prime):
    phi, _ = ref_symbols
    psi, cert = ref_lift
    return acc.AcceptanceContext(phi, psi, cert, ref_prime)


def run_criterion(ctx, n):
    (entry,) = acc.run_criteria(ctx, selected={n})
    assert entry["passed"], json.dumps(entry, indent=1, default=str)
    return entry


def test_criterion_1_eigenvalue_law(ctx):
    run_criterion(ctx, 1)


def test_criterion_2_newform_harmonicity(ctx):
    run_criterion(ctx, 2)


def test_criterion_3_control_round_trip(ctx):
    run_criterion(ctx, 3)


def test_criterion_4_interpolation(ctx):
    run_criterion(ctx, 4)


def test_criterion_5_exceptional_zero(ctx):
    run_criterion(ctx, 5)


def test_criterion_6_l_invariant_agreement(ctx):
    # the detail lists the oc routes the certificate checked, one per
    # beta != 0 datum, each with equal tree and closed values
    routes = run_criterion(ctx, 6)["detail"]["oc_routes"]
    assert len(routes) == len(ctx.linv_cert.routes) >= 3
    assert all(r["tree"] == r["closed"] for r in routes)


def test_criterion_6_route_mismatch(ctx, monkeypatch):
    # a tree route that differs from the closed one fails the criterion
    # with l_invariant's ConsistencyError, and the detail lists no routes
    monkeypatch.setattr(cc, "oc_tree_route", lambda fam, datum: None)
    (entry,) = acc.run_criteria(ctx, selected={6})
    assert not entry["passed"] and "oc_routes" not in entry["detail"]
    assert entry["error"].startswith("ConsistencyError: oc route mismatch")


def test_criterion_7_base_change_l_invariant(ctx):
    run_criterion(ctx, 7)


def test_criterion_8_distribution_properties(ctx):
    run_criterion(ctx, 8)


def test_criterion_9_finite_difference_derivative(ctx):
    run_criterion(ctx, 9)


def test_companion_single_classical_factor(ctx):
    # regression for the log_iw(z) half: lc taken with log_iw(z) alone, over
    # oc, equals log_11(q)/ord_11(q) itself (one classical factor, not two)
    cert = ctx.linv_cert or cc.l_invariant(ctx.fam)
    classical = bc.classical_l_invariant(bc.CURVES["11a"], 11, 8)
    li = cert.l_invariant_log_iw
    diff = li - ctx.pctx.elt(classical.c0, 0, classical.prec)
    assert diff.is_zero(), diff.to_json()
    assert li.c0 % 11 ** 8 == 91589443
