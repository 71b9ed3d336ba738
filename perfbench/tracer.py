"""The traced run: the CLI commands of one session, in one process, with the
program's public functions wrapped from here.

Stage functions get spans (name, start, end, parent); a span's self time is
its duration minus that of its child spans. Inner functions that run many
times get probes: a call count, their inclusive time and extra counts, but
no span. Each module (layer) also gets a self time: the time in its wrapped
functions minus the wrapped calls nested in them, spans and probes alike.
Spans and counts are kept in memory and written out at the end.

Run as a child of run.py:

    python3 perfbench/tracer.py --root ROOT --workload W --seed N \
        --work DIR [--cache DIR | --prepare]

It runs the session once untraced and once traced, in that order, and prints
one JSON summary line. --cache names the filled lift cache of a warm session
(ref-m8); without it each pass starts from an empty cache. --prepare instead
runs only the traced cold `build` that fills the cache in --work.
"""

import argparse
import functools
import json
import os
import shutil
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []              # [name, start, end, parent index]
        self._stack = []             # open spans
        self._frames = []            # nested time of each open timed call
        self.module_self = defaultdict(float)
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.peak = {}
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _leave(self, name, start):
        """Close a timed call: add its self time (duration minus the timed
        calls nested in it) to its module, and its duration to the caller."""
        dur = time.perf_counter() - start
        child = self._frames.pop()
        self.module_self[name.split(".", 1)[0]] += dur - child
        if self._frames:
            self._frames[-1] += dur

    def span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            start = time.perf_counter()
            tracer.spans.append([name, start, None, parent])
            tracer._stack.append(idx)
            tracer._frames.append(0.0)
            try:
                out = fn(*args, **kw)
                if after is not None:
                    after(tracer, args, out)
                return out
            finally:
                tracer._stack.pop()
                tracer.spans[idx][2] = time.perf_counter()
                tracer._leave(name, start)
        return wrapper

    def probe(self, name, fn, after=None):
        tracer = self
        calls, incl = self.calls, self.incl

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            calls[name] += 1
            start = time.perf_counter()
            tracer._frames.append(0.0)
            try:
                out = fn(*args, **kw)
            finally:
                incl[name] += time.perf_counter() - start
                tracer._leave(name, start)
            if after is not None:
                after(tracer, args, out)
            return out
        return wrapper

    # -- installing ----------------------------------------------------------

    def patch_function(self, modules, owner, attr, wrapped_fn):
        """Replace owner.attr and every other binding of the same function
        object in the program's modules (names bound at import)."""
        orig = getattr(owner, attr)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, key, val))
                    setattr(mod, key, wrapped_fn)

    def patch_method(self, cls, attr, wrapped_fn):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped_fn)

    def uninstall(self):
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo = []

    # -- reporting -----------------------------------------------------------

    def _self_times(self):
        """Each span's duration minus those of its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c
                for (_, start, end, _), c in zip(self.spans, child)]

    def span_table(self):
        """name -> (calls, total, self) over the recorded spans."""
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), own in zip(self.spans, self._self_times()):
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return {k: tuple(v) for k, v in table.items()}

    def largest_self_under(self, root_name):
        """The span name with the largest self time among the descendants
        of the spans called root_name (root excluded)."""
        selfs = defaultdict(float)
        for (name, _, _, parent), own in zip(self.spans, self._self_times()):
            j = parent
            while j is not None and self.spans[j][0] != root_name:
                j = self.spans[j][3]
            if j is not None:
                selfs[name] += own
        if not selfs:
            return None, 0.0
        best = max(selfs, key=selfs.get)
        return best, selfs[best]

    def spans_json(self):
        return [{"id": i, "name": n, "start": s - self.t0, "end": e - self.t0,
                 "parent": p} for i, (n, s, e, p) in enumerate(self.spans)]


def _g_key(g):
    return tuple((x.a, x.b) for row in g for x in row)


def install(tracer):
    """Wrap the layer boundaries of the padicbianchi modules."""
    import padicbianchi
    from padicbianchi import cocycle, field, lfun, msymb, ocsymb, padic
    modules = [m for name, m in sys.modules.items()
               if name.startswith("padicbianchi.") and m is not None]
    modules.append(padicbianchi)

    def fn(owner, attr, name, kind="span", **kw):
        orig = getattr(owner, attr)
        wrapped = (tracer.span(name, orig, **kw) if kind == "span"
                   else tracer.probe(name, orig, **kw))
        tracer.patch_function(modules, owner, attr, wrapped)

    def meth(cls, attr, name, kind="span", **kw):
        orig = cls.__dict__[attr]
        wrapped = (tracer.span(name, orig, **kw) if kind == "span"
                   else tracer.probe(name, orig, **kw))
        tracer.patch_method(cls, attr, wrapped)

    def pieces(t, args, out):
        t.counts["msymb.manin_terms_pieces"] += len(out)

    def distinct_g(t, args, out):
        t.distinct["ocsymb.action_matrix"].add(_g_key(args[1]))

    def plan(t, args, out):
        u = args[0]
        t.counts["ocsymb.UOperator_terms"] += len(u.dest)
        size = sum(a.nbytes for a in (u.A0, u.A1, u.B0, u.B1, u.dest, u.src,
                                      u.sgn))
        t.peak["ocsymb.UOperator_plan_mb"] = max(
            t.peak.get("ocsymb.UOperator_plan_mb", 0.0), size / 2 ** 20)

    def iterations(t, args, out):
        t.counts["ocsymb.lift_iterations"] += out[1]["iterations"]

    # msymb and field: the Manin / P^1 layer
    fn(msymb, "find_new_eigensymbol", "msymb.find_new_eigensymbol")
    fn(msymb, "build_symbol_space", "msymb.build_symbol_space")
    fn(msymb, "apply_hecke", "msymb.apply_hecke", "probe")
    meth(msymb.P1, "reduce", "msymb.P1_reduce", "probe")
    fn(msymb, "manin_terms", "msymb.manin_terms", "probe", after=pieces)
    fn(field, "path_between", "field.path_between", "probe")
    meth(field.ResidueRing, "inverse", "field.ResidueRing_inverse", "probe")
    # ocsymb: U_p plan, lift, moments, cache
    meth(ocsymb.UOperator, "__init__", "ocsymb.UOperator", after=plan)
    meth(ocsymb.UOperator, "apply", "ocsymb.UOperator_apply")
    fn(ocsymb, "lift", "ocsymb.lift", after=iterations)
    fn(ocsymb, "action_matrix", "ocsymb.action_matrix", "probe",
       after=distinct_g)
    meth(ocsymb.OverconvergentSymbol, "ev", "ocsymb.psi_ev", "probe")
    fn(ocsymb, "sigma0_act", "ocsymb.sigma0_act", "probe")
    fn(ocsymb, "save_lift", "ocsymb.save_lift")
    fn(ocsymb, "load_lift", "ocsymb.load_lift")
    # lfun and padic
    fn(lfun, "build_mu_p", "lfun.build_mu_p")
    fn(lfun, "Lp_value", "lfun.Lp_value")
    fn(lfun, "Lp_derivative_at", "lfun.Lp_derivative_at")
    disc_sum = lfun.disc_sum

    @functools.wraps(disc_sum)
    def counted_disc_sum(mu, weight, on_disc):
        def counted(*args):
            tracer.counts["lfun.discs_integrated"] += 1
            return on_disc(*args)
        return disc_sum(mu, weight, counted)
    tracer.patch_function(modules, lfun, "disc_sum",
                          tracer.probe("lfun.disc_sum", counted_disc_sum))
    meth(padic.PadicElement, "__mul__", "padic.mul", "probe")
    meth(padic.PadicElement, "__rmul__", "padic.mul", "probe")
    meth(padic.PadicElement, "__truediv__", "padic.div", "probe")
    fn(padic, "log_iw", "padic.log_iw", "probe")
    # cocycle
    fn(cocycle, "l_invariant", "cocycle.l_invariant")
    fn(cocycle, "lc_halves", "cocycle.lc_halves")
    fn(cocycle, "harmonicity_check", "cocycle.harmonicity_check")


# ---------------------------------------------------------------------------
# the traced child process


def _run_pass(cli, tracer, cmds):
    """Run the commands in this process; returns {label: [rc, seconds]}."""
    out = {}
    for label, argv in cmds:
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.span("cli." + label, cli.main)(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:    # a traceback is a failed command
            print("%s raised %s: %s" % (label, type(exc).__name__, exc),
                  file=sys.stderr)
            rc = -1
        out[label] = [rc, time.perf_counter() - start]
    return out


def format_table(tracer):
    """The per-layer table: module self times, then spans by self time,
    then probes by inclusive time."""
    lines = ["%-36s %9s %10s %10s" % ("layer", "calls", "total_s", "self_s")]
    for name, slf in sorted(tracer.module_self.items(), key=lambda kv: -kv[1]):
        lines.append("%-36s %9s %10s %10.3f" % (name, "-", "-", slf))
    spans = sorted(tracer.span_table().items(), key=lambda kv: -kv[1][2])
    for name, (calls, tot, slf) in spans:
        lines.append("%-36s %9d %10.3f %10.3f" % (name, calls, tot, slf))
    for name, calls in sorted(tracer.calls.items(),
                              key=lambda kv: -tracer.incl[kv[0]]):
        lines.append("%-36s %9d %10.3f %10s" % (name, calls,
                                                 tracer.incl[name], "-"))
    return "\n".join(lines)


def summary(tracer):
    spans = tracer.span_table()
    return {
        "spans": {k: list(v) for k, v in spans.items()},
        "probe_calls": dict(tracer.calls),
        "probe_incl_s": dict(tracer.incl),
        "counts": dict(tracer.counts),
        "distinct": {k: len(v) for k, v in tracer.distinct.items()},
        "peak": dict(tracer.peak),
        "module_self_s": dict(tracer.module_self),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--cache")
    ap.add_argument("--prepare", action="store_true")
    args = ap.parse_args()
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    from padicbianchi import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        raise SystemExit("padicbianchi imported from outside %s" % src)
    import session
    os.makedirs(args.work, exist_ok=True)

    def fresh(name):
        path = os.path.join(args.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    result = {}
    if args.prepare:
        tracer = Tracer()
        install(tracer)
        cache = os.path.join(args.work, "cache")
        cmds = [("build_cold", ["build"] + session.WORKLOADS[args.workload][
            "flags"] + ["--cache-dir", cache, "--output",
                        os.path.join(args.work, "build_cold.json")])]
        result["traced"] = _run_pass(cli, tracer, cmds)
    else:
        for name in ("untraced", "traced"):
            out_dir = fresh(name)
            cache = args.cache or fresh(name + "-cache")
            cmds = session.commands(args.workload, args.seed, cache, out_dir)
            tracer = Tracer() if name == "traced" else None
            if tracer is not None:
                install(tracer)
            result[name] = _run_pass(cli, tracer, cmds)
    tracer.uninstall()
    table = format_table(tracer)
    with open(os.path.join(args.work, "spans.json"), "w") as fh:
        json.dump(tracer.spans_json(), fh)
    with open(os.path.join(args.work, "layers.txt"), "w") as fh:
        fh.write(table + "\n")
    result["summary"] = summary(tracer)
    result["largest_self"] = {
        label: tracer.largest_self_under("cli." + label)
        for label in result["traced"]}
    print(table)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
