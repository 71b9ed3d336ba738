"""The acceptance suite: the nine criteria of the paper's checks, each a
function of the shared AcceptanceContext, their runner, and the report
schema with its validator. `padicbianchi accept` (cli.cmd_accept) imports
this module; no other command does.
"""

import functools
import json
import os
import random
import time
from fractions import Fraction

from . import btree as bt
from . import cocycle as cc
from . import field as fld
from . import lfun
from . import msymb as ms
from . import ocsymb as oc
from .field import Cusp, QuadInt, cusp_infinity, cusp_zero


class CharacterNotFound(LookupError):
    """No quadratic ray character of the modulus takes the wanted value at
    the prime above p."""


class AcceptanceContext:
    """Everything the criteria share: the symbol, its lift and the tree
    family, which memoizes the measures."""

    def __init__(self, phi, psi, cert, pd):
        self.phi = phi
        self.psi = psi
        self.cert = cert
        self.pd = pd
        self.fam = cc.TreeFamily(phi, pd, psi=psi)
        self.pctx = self.fam.pctx
        self.M = psi.ctx.M
        self.d = phi.d
        self.linv_cert = None

    def qi(self, a, b=0):
        return QuadInt(a, b, self.d)

    def character(self, c, sign):
        for ch in fld.quadratic_ray_characters(c):
            if not ch.is_trivial() and ch(self.pd.pi) == sign:
                return ch
        raise CharacterNotFound("no nontrivial quadratic ray character mod "
                                "(%s) has chi(pi) = %d for pi = %s"
                                % (c, sign, self.pd.pi))

    def inject_fault(self):
        """Corrupt one classical value (and hence the family) in place."""
        self.phi.values[0] += 1


def _pe(x):
    return x.to_json() if hasattr(x, "to_json") else str(x)


def _criterion_1(ctx, detail):
    lam = Fraction(ctx.phi.eigen["lambda_p"])
    target = Fraction(ctx.fam.omega)
    upi = ms.apply_hecke(ctx.phi, ctx.pd.pi)
    exact = all(a == lam * b for a, b in zip(upi.values, ctx.phi.values))
    detail.update(lambda_p=str(lam), target=str(target),
                  eigen_relation_exact=exact)
    return lam == target and exact


def _criterion_2(ctx, detail):
    res = cc.harmonicity_check(ctx.fam)
    detail["new_max_residual"] = str(res["max_residual"])
    m3 = ctx.qi(3)
    level_old = ctx.pd.pi * m3
    p1m, basis = ms.build_symbol_space(m3)
    phi3 = ms.ModularSymbol(p1m, basis[0], m3, ctx.d)
    old_residuals = []
    for scaled in (False, True):
        old = cc.induced_old_symbol(phi3, ctx.pd.pi, level_old, scaled=scaled)
        fam_old = cc.TreeFamily(old, ctx.pd, omega=ctx.fam.omega)
        old_residuals.append(cc.harmonicity_check(fam_old)["max_residual"])
    detail["old_max_residuals"] = [str(x) for x in old_residuals]
    return res["harmonic"] and all(x != 0 for x in old_residuals)


def _criterion_3(ctx, detail):
    round_trip = oc.specialize_matches(ctx.psi, ctx.phi)
    fils = ctx.cert["increment_filtrations"]
    steps = [fils[0]] + [b - a for a, b in zip(fils, fils[1:])]
    detail.update(round_trip_exact=round_trip,
                  iterations=ctx.cert["iterations"],
                  increment_filtrations=fils)
    return (round_trip and ctx.cert["converged"]
            and ctx.cert["iterations"] <= 9
            and all(s >= 1 for s in steps))


def _criterion_4(ctx, detail):
    # every quadratic character here has a forced zero (either the
    # exceptional factor or the sign of the functional equation), so the
    # interpolation congruence and the cross-multiplied period-free ratio
    # are checked through those vanishing statements; the algebraic sides
    # are recomputed and must be nonzero where the zero is exceptional
    floor = 5
    pd, pctx = ctx.pd, ctx.pctx
    lam = ctx.phi.eigen["lambda_p"]
    chi3 = ctx.character(ctx.qi(3), ctx.fam.omega)
    chi4 = ctx.character(ctx.qi(4, 1), -ctx.fam.omega)
    cases = []
    for name, m, chi in (("trivial", ctx.qi(1), None),
                         ("chi mod (3)", ctx.qi(3), chi3),
                         ("chi mod (4+i)", ctx.qi(4, 1), chi4)):
        val = lfun.Lp_value(ctx.fam.mu(m), chi)
        z = lfun.Z_factor(chi, 0, pd, lam, pctx)
        alg = ms.algebraic_L_sum(ctx.phi, chi) if chi is not None \
            else ctx.phi.ev(cusp_zero(ctx.d), cusp_infinity(ctx.d))
        cases.append((name, val, z, alg))
        detail[name] = {"L_p": _pe(val), "Z": _pe(z), "algebraic": str(alg)}
    congruent = all(v.is_zero() or v.val() >= floor for _, v, _, _ in cases)
    # cross-multiplied comparison of the first two cases cancels the period
    (_, v1, z1, a1), (_, v2, z2, a2) = cases[:2]
    cross = v1 * (z2 * pctx.from_rational(Fraction(a2))) \
        - v2 * (z1 * pctx.from_rational(Fraction(a1)))
    detail["cross_difference"] = _pe(cross)
    detail["exceptional_sides_nonzero"] = bool(a1 != 0 and a2 != 0)
    return (congruent and (cross.is_zero() or cross.val() >= floor)
            and a1 != 0 and a2 != 0)


def _criterion_5(ctx, detail):
    chi = ctx.character(ctx.qi(3), ctx.fam.omega)
    val = lfun.Lp_value(ctx.fam.mu(ctx.qi(3)), chi)
    detail["L_p"] = _pe(val)
    return val.is_zero() or val.val() >= 5


def _criterion_6(ctx, detail):
    # l_invariant raises ConsistencyError where a datum's oc routes differ
    cert = cc.l_invariant(ctx.fam)
    ctx.linv_cert = cert
    detail["oc_routes"] = [
        {"c": str(datum.c), "v": str(datum.v), "tree": str(tree),
         "closed": str(closed)} for datum, tree, closed in cert.routes]
    detail["certificate"] = cert.to_json()
    return len(cert.entries) >= 3 and cert.agreement >= 5


def _criterion_7(ctx, detail):
    from . import basechange as bc
    cert = ctx.linv_cert or cc.l_invariant(ctx.fam)
    L = cert.l_invariant
    classical = bc.classical_l_invariant(bc.CURVES["11a"], ctx.pd.p, ctx.M)
    cl = ctx.pctx.elt(classical.c0, 0, classical.prec)
    diff = L - (cl + cl)
    inert_ok = diff.is_zero() or diff.val() >= 5
    companion = L - cl
    detail.update(l_invariant=_pe(L), twice_classical=_pe(cl + cl),
                  difference=_pe(diff),
                  companion_single_factor_difference=_pe(companion))
    ram = bc.ramified_case_report()
    detail["ramified_run"] = ram
    ram_ok = (ram.get("status") == "ok" and ram.get("factor_one_holds")) \
        or (ram.get("status") == "skipped" and bool(ram.get("cause")))
    return inert_ok and ram_ok


def _criterion_8(ctx, detail):
    rng = random.Random(8)
    r = Cusp(ctx.qi(2, 3), ctx.qi(7))
    s = Cusp(ctx.qi(1), ctx.qi(4, 5))
    totals_ok = True
    cover = cc.full_cover(ctx.fam)
    for _ in range(5):
        zeta = {(0, 0): rng.randint(-10 ** 6, 10 ** 6)}
        totals_ok = totals_ok and cc.edge_integrals(
            ctx.fam, cover, r, s, zeta).sum().is_zero()
    detail["total_integrals_zero"] = totals_ok
    cob_ok = True
    for c, v in fld.default_embedding_data(ctx.pd.p, ctx.pd.pi.d):
        datum = cc.EmbeddingDatum(ctx.pd, c, v, ctx.fam.omega)
        cob_ok = cob_ok and cc.coboundary_eval(ctx.phi, datum) == 0
    detail["coboundaries_zero"] = cob_ok
    tree = ctx.fam.tree
    edges = [tree.standard_edge()]
    p = ctx.pd.p
    # e_* and the edges (0, a, u) with u mod pi^a, a = 1, 2: 1 + q + q^2 in
    # all, only 7 at a ramified p = 2
    target = min(10, 1 + tree.q + tree.q ** 2)
    while len(edges) < target:
        a = rng.randint(1, 2)
        u = tree.uclass((rng.randrange(p + 2), rng.randrange(p + 2)),
                        (1, 0), a)
        e = bt.Edge(0, a, u)
        if e not in edges:
            edges.append(e)
    zeta = {(0, 0): 3, (1, 0): 2, (1, 1): 1, (0, 2): -1}
    # the whole balls in one pass, and their children (q each) in another
    whole = cc.edge_integrals(ctx.fam, edges, r, s, zeta)
    parts = cc.edge_integrals(ctx.fam, [ch for e in edges
                                        for ch in cc.ball_children(tree, e)],
                              r, s, zeta)
    glue_ok = True
    for k in range(len(edges)):
        diff = whole.element(k) - parts[k * tree.q:(k + 1) * tree.q].sum()
        glue_ok = glue_ok and (diff.is_zero() or diff.val() >= 5)
    detail["gluing_ok"] = glue_ok
    return totals_ok and cob_ok and glue_ok


def _criterion_9(ctx, detail):
    mu = ctx.fam.mu(ctx.qi(1))
    p = ctx.pd.p
    # the values at s = p^m first: they fill the full moment tables of the
    # discs, from which the derivative and the value at 0 then read their
    # lines and total measures (RayDistribution.moments)
    values = {m: lfun.Lp_value(mu, s=p ** m) for m in (3, 4, 5)}
    deriv = lfun.Lp_derivative_at(mu)
    base = lfun.Lp_value(mu)
    detail["derivative"] = _pe(deriv)
    ok = True
    for m in (3, 4, 5):
        fd = (values[m] - base) / p ** m
        diff = fd - deriv
        good = diff.is_zero() or diff.val() >= m - 1
        detail["m=%d" % m] = {"finite_difference": _pe(fd), "match": good}
        ok = ok and good
    return ok


CRITERIA = [
    (1, "U_p eigenvalue of the p-new eigensymbol equals omega * N(p)^(k/2) "
        "exactly", _criterion_1, 60),
    (2, "harmonicity residual is zero for the new symbol at v_* and 5 "
        "random vertices, and nonzero for an induced p-old symbol",
     _criterion_2, 60),
    (3, "control round-trip is exact at low moments with per-iteration "
        "filtration gain >= 1 in at most 9 iterations", _criterion_3, 300),
    (4, "interpolation at the trivial and quadratic characters mod p^5, "
        "compared period-insensitively across characters", _criterion_4, 300),
    (5, "exceptional zero: chi(pi) = omega forces L_p(f, chi, 0) = 0 "
        "mod p^5", _criterion_5, 60),
    (6, "L-invariant ratios from 3 embedding data agree pairwise mod p^5 "
        "with both oc routes consistent", _criterion_6, None),
    (7, "|L-invariant - 2 log_p(q)/ord_p(q)| <= p^-5 for the Tate period q; "
        "ramified secondary run checks factor 1 or is skipped with cause",
     _criterion_7, 900),
    (8, "total integrals of 5 random global polynomials vanish, coboundary "
        "evaluations are exactly zero, gluing holds on 10 random edges "
        "mod p^5", _criterion_8, None),
    (9, "finite differences at steps p^m match the derivative to m-1 "
        "digits for m = 3, 4, 5", _criterion_9, None),
]


@functools.lru_cache(maxsize=None)
def accept_report_schema():
    """The JSON schema of the accept report, shipped as package data."""
    path = os.path.join(os.path.dirname(__file__), "accept_report.schema.json")
    with open(path) as fh:
        return json.load(fh)


class SchemaError(ValueError):
    """A report does not match its schema, or the schema uses a keyword
    that validate_report does not know."""


_JSON_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    # as in JSON Schema, a bool is not a number, and 1.0 is an integer
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
    "number": lambda x: (isinstance(x, (int, float))
                         and not isinstance(x, bool)),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
}


def _json_equal(x, y):
    """Equality of JSON values: true and 1 differ, 1 and 1.0 do not."""
    if isinstance(x, bool) or isinstance(y, bool):
        return type(x) is type(y) and x == y
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(_json_equal(x[k], y[k])
                                             for k in x)
    if isinstance(x, list) and isinstance(y, list):
        return len(x) == len(y) and all(map(_json_equal, x, y))
    return x == y


def validate_report(value, schema, path="$"):
    """Check value against schema, a JSON Schema that uses only the
    keywords type, const, properties, required, items, minimum and
    maximum (plus the annotations $schema and title). Raises SchemaError
    at the first mismatch, and on any other keyword, so that a schema edit
    cannot go unchecked."""
    unknown = set(schema) - {"type", "const", "properties", "required",
                             "items", "minimum", "maximum", "$schema",
                             "title"}
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if unknown or not set(types) <= set(_JSON_TYPES) \
            or not isinstance(schema.get("items", {}), dict):
        raise SchemaError("unsupported schema at %s" % path)
    if types:
        if not any(_JSON_TYPES[t](value) for t in types):
            raise SchemaError("%s: expected type %s" % (path, "/".join(types)))
    if "const" in schema and not _json_equal(value, schema["const"]):
        raise SchemaError("%s: expected %r" % (path, schema["const"]))
    if _JSON_TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            raise SchemaError("%s: below %r" % (path, schema["minimum"]))
        if "maximum" in schema and value > schema["maximum"]:
            raise SchemaError("%s: above %r" % (path, schema["maximum"]))
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise SchemaError("%s: missing %r" % (path, key))
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                validate_report(value[key], sub, "%s.%s" % (path, key))
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate_report(item, schema["items"], "%s[%d]" % (path, i))


def run_criteria(ctx, selected=None):
    results = []
    for num, text, fn, limit in CRITERIA:
        if selected and num not in selected:
            continue
        detail = {}
        start = time.monotonic()
        try:
            passed = bool(fn(ctx, detail))
            error = None
        except Exception as exc:
            passed = False
            error = "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.monotonic() - start
        entry = {"id": num, "description": text, "passed": passed,
                 "elapsed_sec": round(elapsed, 3),
                 "runtime_limit_sec": limit, "detail": detail}
        if limit is not None:
            entry["within_limit"] = elapsed < limit
            entry["passed"] = entry["passed"] and entry["within_limit"]
        if error:
            entry["error"] = error
        results.append(entry)
    return results
