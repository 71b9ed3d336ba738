"""The benchmark's tracer wraps names of the package by name: installing
and uninstalling it must work on the package as it stands."""

import importlib.util
import os

from padicbianchi import cli
from padicbianchi import lfun
from padicbianchi import msymb as ms
from padicbianchi import ocsymb as oc
from padicbianchi.field import QuadInt

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_install_and_uninstall():
    tracer = load_tracer()
    before = (ms.manin_terms, ms.P1.__dict__["reduce"],
              oc.UOperator.__dict__["apply"],
              oc.OverconvergentSymbol.__dict__["ev"])
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert ms.manin_terms is not before[0]
        assert ms.P1.__dict__["reduce"] is not before[1]
    finally:
        t.uninstall()
    after = (ms.manin_terms, ms.P1.__dict__["reduce"],
             oc.UOperator.__dict__["apply"],
             oc.OverconvergentSymbol.__dict__["ev"])
    assert all(a is b for a, b in zip(after, before))


def test_traced_disc_sum(ref_lift):
    """The tracer counts the kernel calls of lfun.disc_sum(mu, weight,
    on_disc) by wrapping on_disc; the traced values are the untraced
    ones."""
    tracer = load_tracer()
    mu = lfun.build_mu_p(ref_lift[0], QuadInt(1, 0, 1))

    def values():
        return [(x.c0, x.c1, x.prec)
                for x in (lfun.Lp_value(mu), lfun.Lp_value(mu, s=121))]
    want = values()
    t = tracer.Tracer()
    try:
        tracer.install(t)
        got = values()
    finally:
        t.uninstall()
    assert got == want
    assert t.counts["lfun.discs_integrated"] > 0


def test_traced_cold_build(tmp_path):
    """The benchmark's prepare step runs a cold build under the tracer
    before every run; its probes read the plan (UOperator.A0, A1, B0, B1,
    dest, src, sgn) and the lift certificate by name. One cold build of
    the ram-p2 configuration (session.WORKLOADS), in this process."""
    tracer = load_tracer()
    t = tracer.Tracer()
    try:
        tracer.install(t)
        code = cli.main(["build", "--field-disc", "1", "--level", "7+7i",
                         "--prime", "2", "--precision", "6",
                         "--cache-dir", str(tmp_path / "cache"),
                         "--output", str(tmp_path / "build.json")])
    finally:
        t.uninstall()
    assert code == 0
    assert t.peak["ocsymb.UOperator_plan_mb"] > 0
    assert t.counts["ocsymb.lift_iterations"] > 0
