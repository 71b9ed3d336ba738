"""Benchmark of the padicbianchi CLI, run as a user runs it.

    python3 perfbench/run.py --workload {ref-m8,ram-p2} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. Every command runs in its own process, one
at a time; the program is imported from the checkout's src/. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of the traced run (perfbench/tracer.py) with --trace 1.

The reference lift (ref-m8) is built once per checkout and per version of
src/ ("prepare", a traced cold build of about two and a half minutes); its
record, spans and layer table stay in perfbench/work/prepared/. See
perfbench/README.md for the workloads, the metrics and reference figures.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from statistics import median

import refs
import session

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# relative to ROOT, the working directory of run.py and of every command, so
# that the paths the CLI echoes into its cache do not depend on where the
# checkout lives
WORK = os.path.join(os.path.relpath(HERE, ROOT), "work")

SETUP_PER_ROUND = 3
REPEATED = ("build_warm", "accept")     # label prefixes of repeated commands
COMMAND_TIMEOUT = 175
PREPARE_TIMEOUT = 900

# Start-up that every command pays: the interpreter, `import
# padicbianchi.cli`, argument parsing and config validation.
SETUP_SNIPPET = (
    "import sys\n"
    "from padicbianchi import cli\n"
    "args = cli.build_parser().parse_args(sys.argv[1:])\n"
    "cli.RunConfig.from_sources(args)\n"
    "print(cli.__file__)\n")


class Process:
    """One child process: wall time, exit code and peak RSS (from wait4)."""

    def __init__(self, argv, log_path, timeout):
        with open(log_path, "w") as log:
            env = dict(os.environ, PYTHONPATH=SRC)
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.seconds = time.perf_counter() - start
        # reaped by wait4, so Popen must not wait for it again
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(log_path) as fh:
            self.output = fh.read()


def cli_argv(argv):
    return [sys.executable, "-m", "padicbianchi.cli"] + argv


def fresh_dir(*parts):
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def source_key():
    """Hash of the program's sources and the reference configuration."""
    h = hashlib.sha256(" ".join(session.WORKLOADS["ref-m8"]["flags"]).encode())
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def ensure_prepared():
    """Build the ref-m8 lift once per version of src/ (traced), check it,
    and return its record."""
    pdir = os.path.join(WORK, "prepared", source_key())
    record_path = os.path.join(pdir, "record.json")
    if os.path.exists(record_path):
        with open(record_path) as fh:
            record = json.load(fh)
        record["cache_dir"] = os.path.join(pdir, "cache")
        npz, meta, _ = session.cache_entry(record["cache_dir"])
        if [file_digest(npz), file_digest(meta)] != record["digests"]:
            raise RuntimeError("prepared reference lift was modified")
        return record
    shutil.rmtree(os.path.join(WORK, "prepared"), ignore_errors=True)
    os.makedirs(pdir)
    print("preparing the ref-m8 lift (traced cold build) in %s" % pdir,
          flush=True)
    proc = Process([sys.executable, os.path.join(HERE, "tracer.py"),
                    "--root", ROOT, "--workload", "ref-m8", "--work", pdir,
                    "--prepare"], os.path.join(pdir, "prepare.log"),
                   PREPARE_TIMEOUT)
    if proc.rc != 0:
        raise RuntimeError("prepare failed (exit %d):\n%s"
                           % (proc.rc, proc.output[-2000:]))
    child = json.loads(proc.output.strip().splitlines()[-1])
    rc, seconds = child["traced"]["build_cold"]
    if rc != 0:
        raise RuntimeError("cold build of ref-m8 exited %d" % rc)
    cache_dir = os.path.join(pdir, "cache")
    with open(os.path.join(pdir, "build_cold.json")) as fh:
        cert = session.check_build("ref-m8", json.load(fh), "miss")
    session.check_control("ref-m8", cache_dir)
    npz, meta, size = session.cache_entry(cache_dir)
    record = {
        "cert": cert,
        "digests": [file_digest(npz), file_digest(meta)],
        "traced_cold_build_s": seconds,
        "peak_rss_mb": proc.rss_mb,
        "cache_bytes": size,
        "largest_self": child["largest_self"]["build_cold"],
    }
    with open(record_path + ".tmp", "w") as fh:
        json.dump(record, fh, indent=1)
    os.replace(record_path + ".tmp", record_path)
    record["cache_dir"] = cache_dir
    return record


def check(fn, *args):
    """Run an output check; returns (ok, value)."""
    try:
        return True, fn(*args)
    except Exception as exc:    # any malformed output is a wrong output
        print("CHECK FAILED: %s: %s" % (type(exc).__name__, exc), flush=True)
        return False, None


def timed_run(workload, seed, seconds, prepared):
    """Whole rounds of the session until `seconds` have passed; each round
    starts with SETUP_PER_ROUND start-up probes."""
    flags = session.WORKLOADS[workload]["flags"]
    cold = session.WORKLOADS[workload]["cold"]
    attempted = failed = 0
    correct = True
    setup, rounds = [], []
    shutil.rmtree(os.path.join(WORK, "runs", workload), ignore_errors=True)
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        out_dir = fresh_dir("runs", workload, "round%d" % len(rounds))
        for i in range(SETUP_PER_ROUND):
            proc = Process([sys.executable, "-c", SETUP_SNIPPET, "build"]
                           + flags, os.path.join(out_dir, "setup%d.log" % i),
                           COMMAND_TIMEOUT)
            attempted += 1
            failed += proc.rc != 0
            if proc.rc == 0:
                setup.append(proc.seconds)
                if not os.path.abspath(proc.output.strip()).startswith(SRC):
                    print("padicbianchi imported from %s" % proc.output)
                    correct = False
        cache = os.path.join(out_dir, "cache") if cold \
            else prepared["cache_dir"]
        row, all_ok = {}, True
        for label, argv in session.commands(workload, seed, cache, out_dir):
            proc = Process(cli_argv(argv),
                           os.path.join(out_dir, label + ".log"),
                           COMMAND_TIMEOUT)
            attempted += 1
            failed += proc.rc != 0
            all_ok = all_ok and proc.rc == 0
            row[label] = (proc.seconds, proc.rss_mb)
        if all_ok:
            ok, digits = check(session.check_session, workload, out_dir,
                               cache, None if cold else prepared["cert"])
            correct = correct and ok
            print("round %d: %s; linv digits %s" % (len(rounds), json.dumps(
                {k: round(v[0], 3) for k, v in row.items()}), digits),
                flush=True)
            rounds.append(row)
        else:
            rounds.append(None)
    good = [r for r in rounds if r is not None]
    if not good:
        return correct, attempted, failed, {}

    def over_rounds(fn):
        return median([fn(r) for r in good])

    def samples(kind, rows):
        return [v[0] for r in rows for k, v in r.items() if k.startswith(kind)]

    def session_seconds(r):
        # a repeated command counts once, with its median
        return sum(median(samples(kind, [r])) for kind in REPEATED) + sum(
            v[0] for k, v in r.items() if not k.startswith(REPEATED))

    metrics = {
        "setup_s": (median(setup), "s"),
        "session_s": (over_rounds(session_seconds), "s"),
        "build_warm_s": (median(samples("build_warm", good)), "s"),
        "accept_s": (median(samples("accept", good)), "s"),
        "peak_rss_mb": (over_rounds(
            lambda r: max(v[1] for v in r.values())), "MB"),
        "warm_peak_rss_mb": (over_rounds(
            lambda r: max(v[1] for k, v in r.items() if k != "build_cold")),
            "MB"),
        "cache_bytes": (session.cache_entry(cache)[2], "bytes"),
    }
    return correct, attempted, failed, metrics


# per-layer metrics of the traced run: name -> (unit, source, key)
LAYER_METRICS = [
    # self time of each module: its wrapped functions minus the wrapped
    # calls nested in them ("cli" holds what no wrapped function covers)
    ("cli.self_s", "s", "module", "cli"),
    ("msymb.self_s", "s", "module", "msymb"),
    ("field.self_s", "s", "module", "field"),
    ("ocsymb.self_s", "s", "module", "ocsymb"),
    ("lfun.self_s", "s", "module", "lfun"),
    ("padic.self_s", "s", "module", "padic"),
    ("cocycle.self_s", "s", "module", "cocycle"),
    # functions that both sessions call
    ("msymb.P1_reduce_s", "s", "incl", "msymb.P1_reduce"),
    ("ocsymb.psi_ev_s", "s", "incl", "ocsymb.psi_ev"),
    ("ocsymb.load_lift_s", "s", "self", "ocsymb.load_lift"),
    ("lfun.build_mu_p_s", "s", "self", "lfun.build_mu_p"),
    ("lfun.Lp_value_s", "s", "self", "lfun.Lp_value"),
    ("trace.overhead_s", "s", "overhead", None),
    # counts
    ("msymb.find_new_eigensymbol_calls", "count", "span_calls",
     "msymb.find_new_eigensymbol"),
    ("msymb.apply_hecke_calls", "count", "calls", "msymb.apply_hecke"),
    ("msymb.P1_reduce_calls", "count", "calls", "msymb.P1_reduce"),
    ("msymb.manin_terms_calls", "count", "calls", "msymb.manin_terms"),
    ("msymb.manin_terms_pieces", "count", "counts",
     "msymb.manin_terms_pieces"),
    ("field.path_between_calls", "count", "calls", "field.path_between"),
    ("field.ResidueRing_inverse_calls", "count", "calls",
     "field.ResidueRing_inverse"),
    ("ocsymb.UOperator_terms", "count", "counts", "ocsymb.UOperator_terms"),
    ("ocsymb.UOperator_plan_mb", "MB", "peak", "ocsymb.UOperator_plan_mb"),
    ("ocsymb.action_matrix_calls", "count", "calls", "ocsymb.action_matrix"),
    ("ocsymb.action_matrix_distinct", "count", "distinct",
     "ocsymb.action_matrix"),
    ("ocsymb.lift_iterations", "count", "counts", "ocsymb.lift_iterations"),
    ("ocsymb.psi_ev_calls", "count", "calls", "ocsymb.psi_ev"),
    ("ocsymb.sigma0_act_calls", "count", "calls", "ocsymb.sigma0_act"),
    ("ocsymb.save_lift_calls", "count", "span_calls", "ocsymb.save_lift"),
    ("lfun.Lp_value_calls", "count", "span_calls", "lfun.Lp_value"),
    ("lfun.discs_integrated", "count", "counts", "lfun.discs_integrated"),
    ("padic.mul_calls", "count", "calls", "padic.mul"),
    ("padic.div_calls", "count", "calls", "padic.div"),
    ("padic.log_iw_calls", "count", "calls", "padic.log_iw"),
    ("cocycle.l_invariant_calls", "count", "span_calls",
     "cocycle.l_invariant"),
]


def layer_value(child, source, key):
    s = child["summary"]
    if source in ("self", "span_calls"):
        calls, total, self_s = s["spans"].get(key, (0, 0.0, 0.0))
        return self_s if source == "self" else calls
    if source == "incl":
        return s["probe_incl_s"].get(key, 0.0)
    if source == "calls":
        return s["probe_calls"].get(key, 0)
    if source in ("counts", "distinct", "peak"):
        return s[source].get(key, 0)
    if source == "module":
        return s["module_self_s"].get(key, 0.0)
    if source == "overhead":
        return sum(v[1] for v in child["traced"].values()) \
            - sum(v[1] for v in child["untraced"].values())
    raise ValueError(source)


def traced_run(workload, seed, prepared):
    work = fresh_dir("trace", workload)
    argv = [sys.executable, os.path.join(HERE, "tracer.py"), "--root", ROOT,
            "--workload", workload, "--seed", str(seed), "--work", work]
    cold = session.WORKLOADS[workload]["cold"]
    if not cold:
        argv += ["--cache", prepared["cache_dir"]]
    proc = Process(argv, os.path.join(work, "tracer.log"), COMMAND_TIMEOUT)
    print(proc.output, flush=True)
    if proc.rc != 0:
        raise RuntimeError("traced run exited %d" % proc.rc)
    child = json.loads(proc.output.strip().splitlines()[-1])
    attempted = failed = 0
    correct = True
    for name in ("untraced", "traced"):
        codes = [rc for rc, _ in child[name].values()]
        attempted += len(codes)
        failed += sum(rc != 0 for rc in codes)
        if not any(codes):
            cache = os.path.join(work, name + "-cache") if cold \
                else prepared["cache_dir"]
            ok, _ = check(session.check_session, workload,
                          os.path.join(work, name), cache,
                          None if cold else prepared["cert"])
            correct = correct and ok
    print("largest self time per command: %s" % json.dumps(
        child["largest_self"]), flush=True)
    unit_of = {name: unit for name, unit, _, _ in LAYER_METRICS}
    metrics = {name: (layer_value(child, source, key), unit_of[name])
               for name, _, source, key in LAYER_METRICS}
    return correct, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(session.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(SRC, "padicbianchi", "cli.py")):
        print("no program to benchmark: %s/padicbianchi is missing" % SRC,
              file=sys.stderr)
        return 2
    refs.self_check()
    prepared = ensure_prepared()
    print("ref-m8 lift prepared by a traced cold build: %.1f s, peak RSS "
          "%.0f MB, cache %d bytes, largest self time %s"
          % (prepared["traced_cold_build_s"], prepared["peak_rss_mb"],
             prepared["cache_bytes"], prepared["largest_self"]), flush=True)
    if args.trace:
        correct, attempted, failed, metrics = traced_run(
            args.workload, args.seed, prepared)
    else:
        correct, attempted, failed, metrics = timed_run(
            args.workload, args.seed, args.seconds, prepared)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
