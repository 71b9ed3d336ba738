"""The benchmark's workloads: the CLI commands of one user session, the
seeded inputs, and the checks on every output.

Each workload is one configuration of the `padicbianchi` CLI:

- ``ref-m8``: Q(i), level (11), p = 11 inert, M = 8 (the base change of 11a).
  The lift is built once per checkout (run.py's prepare step); a session is
  then five warm `build`s, `linv` on seeded embedding data and
  `accept --criteria 3,5,6,9`.
- ``ram-p2``: Q(i), level (1+i)(7), p = 2 ramified, M = 6 (the base change of
  14a). A session is a cold `build`, five warm `build`s and three
  `accept --criteria 1,2,5`.

The commands that take a second or two run several times, so that their
medians are steady.
"""

import glob
import json
import os
import random

import refs

WARM_BUILDS = 5

WORKLOADS = {
    "ref-m8": {
        "flags": ["--field-disc", "1", "--level", "11", "--prime", "11",
                  "--precision", "8"],
        "curve": "11a", "p": 11, "kind": "inert", "M": 8,
        "cold": False, "linv": True, "accept": [3, 5, 6, 9], "accepts": 1,
    },
    "ram-p2": {
        "flags": ["--field-disc", "1", "--level", "7+7i", "--prime", "2",
                  "--precision", "6"],
        "curve": "14a", "p": 2, "kind": "ramified", "M": 6,
        "cold": True, "linv": False, "accept": [1, 2, 5], "accepts": 3,
    },
}

# Embedding data (c, v) for `linv` on ref-m8. c = 3 and c = 7 are inert in
# Z[i] and prime to 11, so every nonzero residue v is a unit mod c; on the
# reference symbol every such pair has beta != 0 and oc != 0. A draw takes
# two distinct v mod 3 and one v mod 7, in that order, like the CLI's
# default data 3:1,3:2,7:1, so that every draw costs the same work.
POOL = {c: ["%d" % a if b == 0 else ("%d+%di" % (a, b) if a else "%di" % b)
            for a in range(c) for b in range(c) if a or b]
        for c in (3, 7)}


def embedding_data(seed):
    rng = random.Random(seed)
    v1, v2 = rng.sample(POOL[3], 2)
    return "3:%s,3:%s,7:%s" % (v1, v2, rng.choice(POOL[7]))


class CheckError(AssertionError):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def commands(workload, seed, cache_dir, out_dir):
    """The session as (label, argv) pairs; argv follows `padicbianchi`. A
    cold workload starts from an empty cache_dir, a warm one from the
    prepared lift."""
    w = WORKLOADS[workload]
    base = w["flags"] + ["--cache-dir", cache_dir]

    def out(label):
        return ["--output", os.path.join(out_dir, label + ".json")]

    cmds = []
    if w["cold"]:
        cmds.append(("build_cold", ["build"] + base + out("build_cold")))
    for i in range(1, WARM_BUILDS + 1):
        label = "build_warm%d" % i
        cmds.append((label, ["build"] + base + out(label)))
    if w["linv"]:
        cmds.append(("linv", ["linv"] + base + ["--embedding-data",
                                                embedding_data(seed)]
                     + out("linv")))
    crit = ",".join(str(c) for c in w["accept"])
    for i in range(1, w["accepts"] + 1):
        label = "accept%d" % i
        cmds.append((label, ["accept"] + base + ["--criteria", crit]
                     + out(label)))
    return cmds


def _report(out_dir, label):
    with open(os.path.join(out_dir, label + ".json")) as fh:
        return json.load(fh)


def cache_entry(cache_dir):
    """(npz path, json path, total bytes) of the one lift cache entry."""
    npz = glob.glob(os.path.join(cache_dir, "*.npz"))
    meta = glob.glob(os.path.join(cache_dir, "*.json"))
    _require(len(npz) == 1 and len(meta) == 1,
             "expected one cache entry in %s" % cache_dir)
    return npz[0], meta[0], os.path.getsize(npz[0]) + os.path.getsize(meta[0])


def check_control(workload, cache_dir):
    """The (0,0) moments of the cached lift equal the classical symbol
    values mod p^M (the control property)."""
    import numpy as np
    w = WORKLOADS[workload]
    npz, meta_path, _ = cache_entry(cache_dir)
    with open(meta_path) as fh:
        phi = [int(v) for v in json.load(fh)["phi_values"]]
    mod = w["p"] ** w["M"]
    with np.load(npz, allow_pickle=False) as data:
        values = data["values"]
    _require(values.shape == (len(phi), 2, w["M"], w["M"]),
             "cached lift has shape %r" % (values.shape,))
    for i, v in enumerate(phi):
        _require((int(values[i, 0, 0, 0]) - v) % mod == 0
                 and int(values[i, 1, 0, 0]) % mod == 0,
                 "control property fails at generator %d" % i)


def check_build(workload, rep, status):
    w = WORKLOADS[workload]
    curve = refs.CURVES[w["curve"]]
    _require(rep.get("cache") == status, "build reports cache %r, expected %r"
             % (rep.get("cache"), status))
    eigen = rep["eigen"]
    lam = refs.lambda_p(curve, w["p"], w["kind"])
    _require(eigen["lambda_p"] == str(lam),
             "lambda_p %s, expected %d" % (eigen["lambda_p"], lam))
    helpers = eigen["helpers"]
    _require(len(helpers) == 3, "expected three helper primes")
    for norm, value in helpers:
        want = refs.gaussian_helper_eigenvalue(curve, int(norm))
        _require(value == str(want), "helper N(q) = %s: eigenvalue %s, "
                 "expected %d" % (norm, value, want))
    cert = rep["lift_certificate"]
    fils = cert["increment_filtrations"]
    _require(cert["converged"] and fils and fils[-1] >= w["M"],
             "lift did not converge")
    if w["kind"] == "inert":
        gains = [b - a for a, b in zip([0] + fils, fils)]
        _require(all(g >= 1 for g in gains),
                 "filtration gain below 1: %r" % (fils,))
    return cert


def p_adic_digits(value_json, reference, p, cap):
    """Digits to which the p-adic value (coeffs c0 + c1 g) equals the
    rational p-adic reference residue, capped at the value's precision."""
    c0, c1 = (int(c) for c in value_json["coeffs"])
    prec = min(value_json["precision"], cap)
    digits = 0
    while digits < prec and (c0 - reference) % p ** (digits + 1) == 0 \
            and c1 % p ** (digits + 1) == 0:
        digits += 1
    return digits


def check_linv(workload, rep):
    w = WORKLOADS[workload]
    cert = rep["certificate"]
    _require(len(cert["entries"]) == 3 and not cert["skipped"],
             "linv skipped embedding data: %r" % (cert["skipped"],))
    agreement = cert["pairwise_agreement"]
    _require(agreement >= 5, "pairwise agreement %d < 5" % agreement)
    ref = refs.classical_l_invariant(refs.CURVES[w["curve"]], w["p"], w["M"])
    digits = p_adic_digits(cert["l_invariant"], ref, w["p"], w["M"])
    _require(digits >= 5, "L-invariant matches 2 log(q)/ord(q) to %d digits"
             % digits)
    return agreement


def check_accept(workload, rep):
    w = WORKLOADS[workload]
    ids = [c["id"] for c in rep["criteria"]]
    _require(ids == w["accept"], "accept ran criteria %r" % ids)
    failed = [c["id"] for c in rep["criteria"] if not c["passed"]]
    _require(rep["all_pass"] and not failed,
             "accept criteria failed: %r" % failed)
    _require(rep.get("schema_valid") is True, "accept report not validated")


def check_session(workload, out_dir, cache_dir, cold_cert):
    """Check every output of a session whose commands all exited 0.
    cold_cert is the certificate of the build that filled the cache (None
    for a cold workload, whose own cold build is checked). Returns the linv
    agreement digits (or None) and raises CheckError on a wrong output."""
    w = WORKLOADS[workload]
    if w["cold"]:
        cold_cert = check_build(workload, _report(out_dir, "build_cold"),
                                "miss")
        check_control(workload, cache_dir)
    for i in range(1, WARM_BUILDS + 1):
        warm = check_build(workload, _report(out_dir, "build_warm%d" % i),
                           "hit")
        _require(warm == cold_cert, "warm build certificate differs from "
                 "the cold one")
    digits = check_linv(workload, _report(out_dir, "linv")) \
        if w["linv"] else None
    for i in range(1, w["accepts"] + 1):
        check_accept(workload, _report(out_dir, "accept%d" % i))
    return digits
