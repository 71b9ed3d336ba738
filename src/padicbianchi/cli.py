"""Command-line front end: build and cache the eigensymbol lift, extract
the L-invariant, and drive the acceptance suite.

Reports are JSON with ordered keys, so identical configuration and cache
produce byte-identical output.  All p-adic values are serialized as residue
strings with valuation and precision; there is no floating point anywhere.

Exit codes: 0 pass, 1 check failed, 2 precision underflow, 3 not found,
4 bad input (command-line errors included). Errors are JSON reports too.

The lift cache: an entry is <key>.npz (the lift's moment tables) and
<key>.json (the meta: the classical symbol, its eigenvalues, the lift
certificate and the sha256 of the .npz). The key hashes the configuration
(field, level, p, M), the meta format, the package version and the
package's .py sources, so a lift that other code wrote is a miss. A hit is
a meta that parses, of this format, whose sha256 matches the .npz; any
other entry is rebuilt with a warning. `build` on a hit reports from the
meta and does not decode the lift, so it imports neither numpy nor the
moment layers nor OpenSSL: this module loads only field and msymb, and each
command imports the layers it runs (`linv` cocycle, `accept` the acceptance
suite, a miss ocsymb). No command loads OpenSSL: both digests use the
interpreter's builtin SHA-256 (`_sha2`, or `_sha256` before Python 3.12),
and hashlib only where neither exists.

OpenBLAS starts a pool of worker threads when numpy is imported, and the
package never calls BLAS: all moment arithmetic is int64 or Python ints.
main() therefore sets OPENBLAS_NUM_THREADS=1 in the environment before any
command imports numpy, unless it is already set: export another value to
override it.
"""

import argparse
import functools
import io
import json
import os
import sys
from fractions import Fraction

try:
    # the builtin SHA-256 gives hashlib's bytes without loading OpenSSL,
    # 3.6 MB of every command's peak RSS
    from _sha2 import sha256             # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256       # CPython 3.11 and earlier
    except ImportError:
        from hashlib import sha256

from . import __version__
from . import field as fld
from . import msymb as ms

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PRECISION = 2
EXIT_NOT_FOUND = 3
EXIT_INPUT = 4

CACHE_FORMAT = 2


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration


class RunConfig:
    """Run parameters; file values are overridden by command-line flags."""

    DEFAULTS = {
        "field_disc": 1,
        "level": "11",
        "p": 11,
        "precision": 8,
        "embedding_data": None,      # field.default_embedding_data of p
        "cache_dir": ".padicbianchi-cache",
        "output": "",
    }

    def __init__(self, **kw):
        for key, default in self.DEFAULTS.items():
            setattr(self, key, kw.pop(key, default))
        if kw:
            raise ConfigError("unknown config keys: %s" % ", ".join(sorted(kw)))
        self.validate()
        if self.embedding_data is None:
            # the default data depend on p, which validate() has checked
            self.embedding_data = ",".join(
                "%r:%r" % cv
                for cv in fld.default_embedding_data(self.p, self.field_disc))

    @classmethod
    def from_sources(cls, args):
        values = {}
        if getattr(args, "config", None):
            values.update(cls._read_file(args.config))
        for key in cls.DEFAULTS:
            flag = getattr(args, key, None)
            if flag is not None:
                values[key] = flag
        return cls(**values)

    @staticmethod
    def _read_file(path):
        if not os.path.exists(path):
            raise ConfigError("config file not found: %s" % path)
        out = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError("%s:%d: expected key = value"
                                      % (path, lineno))
                key, val = (t.strip() for t in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in RunConfig.DEFAULTS:
                    raise ConfigError("%s:%d: unknown key %r"
                                      % (path, lineno, key))
                if isinstance(RunConfig.DEFAULTS[key], int):
                    try:
                        val = int(val)
                    except ValueError:
                        raise ConfigError("%s:%d: %s must be an integer, "
                                          "not %r" % (path, lineno, key, val))
                out[key] = val
        return out

    def validate(self):
        if self.field_disc not in ms.RELATION_TABLE_FIELDS:
            raise ConfigError("field_disc must be one of %r (the fields with "
                              "M-symbol relation tables)"
                              % (ms.RELATION_TABLE_FIELDS,))
        if self.precision < 5:
            raise ConfigError("precision must be at least 5")
        try:
            factors = ms._factor_level(self.level_elt())  # or LevelError
            if self.embedding_data is not None and \
                    not self.embedding_pairs():
                raise ConfigError("embedding data name no datum")
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(str(exc))
        # the p-new theory needs pi | level for the prime pi over p; this
        # also refuses a p that is not prime, before anything factors p
        if self.p not in {pd.p for _, pd in factors}:
            raise ConfigError("p must be the rational prime under a prime "
                              "factor of the level (the p-new theory)")
        if self.output:
            _check_file_path("output", self.output)

    def level_elt(self):
        return fld.parse_quadint(self.level, self.field_disc)

    def embedding_pairs(self):
        out = []
        for item in str(self.embedding_data).split(","):
            item = item.strip()
            if not item:
                continue
            if ":" not in item:
                raise ConfigError("embedding datum must look like c:v")
            ct, vt = item.split(":", 1)
            out.append((fld.parse_quadint(ct, self.field_disc),
                        fld.parse_quadint(vt, self.field_disc)))
        return out

    def echo(self):
        # the report destination is not part of the mathematical run
        return {key: getattr(self, key) for key in self.DEFAULTS
                if key != "output"}

    def cache_key(self):
        tag = "fmt=%d|d=%d|level=%s|p=%d|M=%d|code=%s" % (
            CACHE_FORMAT, self.field_disc, self.level, self.p, self.precision,
            _code_digest())
        return sha256(tag.encode()).hexdigest()[:16]


def _check_file_path(name, path):
    """Refuse a file path whose directory does not exist, or that names a
    directory: the file is written after all the work, so this runs before
    any starts."""
    if os.path.isdir(path) or not os.path.isdir(
            os.path.dirname(os.path.abspath(path))):
        raise ConfigError("%s %s: not a file in an existing directory"
                          % (name, path))


def _code_digest():
    """sha256 of the package version and of its .py sources, by name: a
    lift that other code wrote has another cache key."""
    h = sha256(__version__.encode())
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src = fh.read()
            h.update(b"%s %d\n" % (name.encode(), len(src)))
            h.update(src)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# cache


def prime_for(cfg):
    pd = fld.split_prime(cfg.p, cfg.field_disc)
    if pd.kind == "split":
        raise ConfigError("split primes are not supported by the moment "
                          "model; pick an inert or ramified p")
    S, T = pd.minpoly()
    if not fld.int64_exact(cfg.p, cfg.precision, S, T):
        top = cfg.precision - 1
        while not fld.int64_exact(cfg.p, top, S, T):
            top -= 1
        raise ConfigError("precision %d at p = %d exceeds the exact int64 "
                          "moment arithmetic; the largest supported is %d"
                          % (cfg.precision, cfg.p, top))
    return pd


def _eigen_to_json(eigen):
    return {k: (v if isinstance(v, list) else str(v))
            for k, v in eigen.items()}


def _eigen_from_json(eigen):
    out = dict(eigen)
    if "lambda_p" in out:
        out["lambda_p"] = Fraction(out["lambda_p"])
    if "omega" in out:
        out["omega"] = int(out["omega"])
    return out


def _spectrum_diagnostic(level, d):
    """Dimension and helper-Hecke spectra of the symbol space at the level,
    reported when no suitable eigenpacket exists."""
    p1, basis = ms.build_symbol_space(level)
    diag = {"dimension": len(basis)}
    if basis:
        syms = [ms.ModularSymbol(p1, vec, level, d) for vec in basis]
        spectra = {}
        for pi, q_norm in ms._small_coprime_primes(level, d, 2):
            spectra["q=%s, N(q)=%d" % (pi, q_norm)] = _hecke_spectrum(
                ms.hecke_matrix_on(syms, pi))
        diag["hecke_spectra"] = spectra
    return diag


def _hecke_spectrum(matrix):
    """The distinct integer eigenvalues of a Hecke matrix as sorted
    strings, followed, when some eigenvalues are irrational, by the monic
    factor of the characteristic polynomial that holds them, in x."""
    from . import linalg as la
    roots, rest = la.integer_roots(la.charpoly(matrix))
    out = sorted(str(r) for r in roots)
    if len(rest) > 1:
        out.append(_poly_str(rest))
    return out


def _poly_str(coeffs):
    """A monic integer polynomial, highest degree first, as a string such
    as 'x**2 - x - 3'."""
    out = ""
    for e, c in zip(range(len(coeffs) - 1, -1, -1), coeffs):
        if c:
            mono = "x**%d" % e if e > 1 else "x" if e else ""
            mag = str(abs(c)) if abs(c) != 1 or not e else ""
            term = mag + ("*" if mag and mono else "") + mono
            out += (" - " if c < 0 else " + ") + term if out else term
    return out


def build_symbol(cfg, warnings=None):
    """Load the cached eigensymbol lift or build it; returns
    (phi, lift, cert, pd, cache_status), where lift() is the
    overconvergent symbol.

    A hit reads the meta (the symbol, its eigenvalues and the lift
    certificate) and the .npz bytes, whose sha256 the meta records. It
    decodes the lift (numpy, ocsymb) only when lift() is first called, so
    a build that only reports never does."""
    warnings = warnings if warnings is not None else []
    pd = prime_for(cfg)
    d, M = cfg.field_disc, cfg.precision
    level = cfg.level_elt()
    try:
        os.makedirs(cfg.cache_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cache_dir %s: %s" % (cfg.cache_dir, exc.strerror))
    key = cfg.cache_key()
    npz_path = os.path.join(cfg.cache_dir, key + ".npz")
    meta_path = os.path.join(cfg.cache_dir, key + ".json")
    status = "miss"
    if os.path.exists(npz_path) and os.path.exists(meta_path):
        try:
            with open(meta_path) as fh:
                meta = json.load(fh)
            if meta["format"] != CACHE_FORMAT:
                raise ValueError("cache format %r" % meta["format"])
            with open(npz_path, "rb") as fh:
                payload = fh.read()
            if sha256(payload).hexdigest() != meta["sha256"]:
                raise ValueError("the lift does not match its sha256")
            phi = ms.ModularSymbol(
                ms.P1(level), [Fraction(v) for v in meta["phi_values"]],
                level, d, eigen=_eigen_from_json(meta["eigen"]))
            return phi, _cached_lift(payload, phi, pd, M), meta["cert"], \
                pd, "hit"
        except Exception as exc:
            warnings.append("corrupt cache (%s: %s); rebuilding"
                            % (type(exc).__name__, exc))
            status = "rebuilt"
    from . import ocsymb as oc
    phi, _ = ms.find_new_eigensymbol(level, pd)
    psi, cert = oc.lift(phi, M, pd)
    if not cert["converged"]:
        raise fld.PrecisionError("overconvergent lift did not converge "
                                 "within the iteration budget")
    buf = io.BytesIO()
    oc.save_lift(buf, psi)
    payload = buf.getvalue()
    meta = {
        "format": CACHE_FORMAT,
        "config": cfg.echo(),
        "phi_values": [str(v) for v in phi.values],
        "eigen": _eigen_to_json(phi.eigen),
        "cert": cert,
        "sha256": sha256(payload).hexdigest(),
    }
    # the .json goes last: a cache entry is read only when both exist
    _write_atomic(npz_path, "wb", lambda fh: fh.write(payload))
    _write_atomic(meta_path, "w",
                  lambda fh: json.dump(meta, fh, indent=1, sort_keys=True))
    return phi, lambda: psi, cert, pd, status


def _cached_lift(payload, phi, pd, M):
    """lift() of a cache hit: the symbol decoded from the checked .npz
    bytes on the first call, the same symbol after."""
    @functools.cache
    def lift():
        from . import ocsymb as oc
        return oc.load_lift(io.BytesIO(payload), phi, oc.DistContext(pd, M))
    return lift


def _write_atomic(path, mode, write):
    """write(fh) into <path>.tmp, then os.replace it onto path, so that a
    reader never sees a partly written file."""
    tmp = path + ".tmp"
    with open(tmp, mode) as fh:
        write(fh)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# report plumbing


def emit(report, cfg):
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if cfg and cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_report(command, code, message, extra=None):
    rep = {"command": command, "error": code, "message": message}
    if extra:
        rep.update(extra)
    return rep


# ---------------------------------------------------------------------------
# commands


def cmd_build(cfg, args):
    if getattr(args, "dot_out", None):
        _check_file_path("dot_out", args.dot_out)
    warnings = []
    try:
        phi, _, cert, pd, status = build_symbol(cfg, warnings)
    except ms.LevelError as exc:
        diag = _spectrum_diagnostic(cfg.level_elt(), cfg.field_disc)
        emit(_error_report("build", "no-new-eigenpacket", str(exc),
                           {"spectrum": diag}), cfg)
        return EXIT_NOT_FOUND
    report = {
        "command": "build",
        "config": cfg.echo(),
        "cache": status,
        "warnings": warnings,
        "eigen": _eigen_to_json(phi.eigen),
        "lift_certificate": cert,
        "generators": len(phi.p1),
    }
    if getattr(args, "dot_out", None):
        from . import btree as bt
        tree = bt.Tree(pd)
        with open(args.dot_out, "w") as fh:
            fh.write(bt.dot_neighborhood(tree, depth=args.dot_depth))
        report["dot_out"] = args.dot_out
    emit(report, cfg)
    return EXIT_PASS


def cmd_linv(cfg, args):
    from . import cocycle as cc
    warnings = []
    try:
        phi, lift, cert, pd, status = build_symbol(cfg, warnings)
    except ms.LevelError as exc:
        emit(_error_report("linv", "no-new-eigenpacket", str(exc)), cfg)
        return EXIT_NOT_FOUND
    fam = cc.TreeFamily(phi, pd, psi=lift())
    try:
        result = cc.l_invariant(fam, data=cfg.embedding_pairs())
    except cc.EmbeddingDatumError as exc:
        emit(_error_report("linv", "bad-input", str(exc)), cfg)
        return EXIT_INPUT
    except cc.NonVanishingError as exc:
        emit(_error_report("linv", "non-vanishing-not-found", str(exc),
                           {"tried": [str(t) for t in exc.tried]}), cfg)
        return EXIT_NOT_FOUND
    except cc.ConsistencyError as exc:
        emit(_error_report("linv", "route-inconsistency", str(exc)), cfg)
        return EXIT_FAIL
    if result.precision_floor < 1 or result.agreement < 1:
        emit(_error_report("linv", "precision-underflow",
                           "certificate floor below one digit",
                           {"certificate": result.to_json()}), cfg)
        return EXIT_PRECISION
    report = {
        "command": "linv",
        "config": cfg.echo(),
        "cache": status,
        "warnings": warnings,
        "certificate": result.to_json(),
    }
    emit(report, cfg)
    return EXIT_PASS


def cmd_accept(cfg, args):
    from . import acceptance as acc
    # the criteria are checked before the build, which a bad list would
    # otherwise pay for in full
    selected = None
    if args.criteria:
        try:
            selected = {int(t) for t in args.criteria.split(",")}
        except ValueError:
            emit(_error_report("accept", "bad-input",
                               "criteria must be a comma list of integers"),
                 cfg)
            return EXIT_INPUT
        if not selected <= {num for num, _, _, _ in acc.CRITERIA}:
            emit(_error_report("accept", "bad-input",
                               "criteria ids must be between 1 and 9"), cfg)
            return EXIT_INPUT
    warnings = []
    try:
        phi, lift, cert, pd, status = build_symbol(cfg, warnings)
    except ms.LevelError as exc:
        emit(_error_report("accept", "no-new-eigenpacket", str(exc)), cfg)
        return EXIT_NOT_FOUND
    ctx = acc.AcceptanceContext(phi, lift(), cert, pd)
    if args.inject_fault:
        ctx.inject_fault()
    results = acc.run_criteria(ctx, selected)
    report = {
        "command": "accept",
        "config": cfg.echo(),
        "cache": status,
        "warnings": warnings,
        "fault_injected": bool(args.inject_fault),
        "criteria": results,
        "all_pass": all(r["passed"] for r in results),
    }
    acc.validate_report(report, acc.accept_report_schema())
    report["schema_valid"] = True
    emit(report, cfg)
    return EXIT_PASS if report["all_pass"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point


def _add_config_flags(sub):
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--field-disc", dest="field_disc", type=int)
    sub.add_argument("--level", help="level generator, e.g. '11' or '7+7i'")
    sub.add_argument("--prime", dest="p", type=int)
    sub.add_argument("--precision", dest="precision", type=int,
                     help="number of moments M")
    sub.add_argument("--embedding-data", dest="embedding_data",
                     help="comma list of c:v embedding data")
    sub.add_argument("--cache-dir", dest="cache_dir")
    sub.add_argument("--output", help="report path (default stdout)")


class ArgumentsError(ConfigError):
    """A command line the parser rejects; cmd is the subcommand, if known."""

    def __init__(self, cmd, message):
        super().__init__(message)
        self.cmd = cmd


class _Parser(argparse.ArgumentParser):
    """Raises ArgumentsError where argparse would print usage and exit 2,
    the precision-underflow code; main reports it as bad input (exit 4).
    Subparsers inherit the class."""

    def error(self, message):
        # prog is "padicbianchi" or "padicbianchi <cmd>"
        raise ArgumentsError(self.prog.partition(" ")[2] or None, message)


def build_parser():
    parser = _Parser(
        prog="padicbianchi",
        description="p-adic L-functions and L-invariants of p-new Bianchi "
                    "eigensymbols over class-number-one imaginary quadratic "
                    "fields")
    subs = parser.add_subparsers(dest="cmd", required=True)
    b = subs.add_parser("build", help="compute and cache the eigensymbol "
                                      "and its overconvergent lift")
    _add_config_flags(b)
    b.add_argument("--dot-out", help="write a DOT dump of the tree "
                                     "neighborhood of v_*")
    b.add_argument("--dot-depth", type=int, default=2, choices=range(4),
                   help="radius of the DOT neighborhood (0-3)")
    li = subs.add_parser("linv", help="evaluate the L-invariant certificate")
    _add_config_flags(li)
    a = subs.add_parser("accept", help="run the acceptance criteria")
    _add_config_flags(a)
    a.add_argument("--criteria", help="comma list of criterion ids to run")
    a.add_argument("--inject-fault", action="store_true",
                   help="corrupt one symbol value first (self-test of the "
                        "failure detection)")
    return parser


def main(argv=None):
    # the package never calls BLAS (its moment arithmetic is int64 or Python
    # ints), so numpy, which each command imports later if at all, starts
    # no OpenBLAS worker threads; a value set in the environment wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            raise ArgumentsError(args.cmd, "unrecognized arguments: %s"
                                 % " ".join(extra))
    except ArgumentsError as exc:
        emit(_error_report(exc.cmd, "bad-input", str(exc)), None)
        return EXIT_INPUT
    try:
        cfg = RunConfig.from_sources(args)
    except ConfigError as exc:
        emit(_error_report(args.cmd, "bad-input", str(exc)), None)
        return EXIT_INPUT
    try:
        if args.cmd == "build":
            return cmd_build(cfg, args)
        if args.cmd == "linv":
            return cmd_linv(cfg, args)
        return cmd_accept(cfg, args)
    except ConfigError as exc:
        emit(_error_report(args.cmd, "bad-input", str(exc)), cfg)
        return EXIT_INPUT
    except fld.PrecisionError as exc:
        emit(_error_report(args.cmd, "precision-underflow", str(exc)), cfg)
        return EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
