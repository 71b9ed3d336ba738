"""The refactor gate: run the same CLI commands on two source trees, each
from empty caches, and report whether their outputs are the same.

    python3 tools/refactor_gate.py PARENT_SRC CHANGE_SRC [--work DIR]

PARENT_SRC and CHANGE_SRC are directories that hold the `padicbianchi`
package (the `src/` of two checkouts). Every command runs in its own
process, one at a time, with that directory on PYTHONPATH and its own cache
directory under DIR (a fresh temporary directory by default). Before two
reports are compared, the cache directory in them is replaced by a
placeholder and every `elapsed_sec` key is dropped. The gate prints one
line per command (identical or different, and whether the raw reports were
byte-identical too) and the result of comparing each cached lift (.npz)
and each DOT dump of the tree (`build --dot-out`, written into the cache
directory) byte by byte. It exits 0 when every command, every lift and
every dump is identical, and 1 otherwise. Only the standard library is
used.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

REF = ["--field-disc", "1", "--level", "11", "--prime", "11",
       "--precision", "8"]
RAM = ["--field-disc", "1", "--level", "7+7i", "--prime", "2",
       "--precision", "6"]
# the tree at two more primes: p = 7 inert (f = 2) at 7+7i, and p = 3
# inert at level 15, where criterion 2 runs its harmonicity check at p = 3
# and then exits 1 (its auxiliary level 9 is not squarefree)
P7 = ["--field-disc", "1", "--level", "7+7i", "--prime", "7",
      "--precision", "5"]
P3 = ["--field-disc", "1", "--level", "15", "--prime", "3",
      "--precision", "5"]


def dot(depth):
    """The build options that dump the tree to depth into the cache."""
    return ["--dot-out", "{cache}/tree-%d.dot" % depth,
            "--dot-depth", str(depth)]


# (label, cache, argv): the cold builds come first, so that every later
# command reads the lift the same side built; "{cache}" in argv stands for
# the cache directory
COMMANDS = [
    ("build ref-m8 miss", "ref", ["build"] + REF),
    ("build ref-m8 hit", "ref", ["build"] + REF),
    ("build ram-p2 miss", "ram", ["build"] + RAM),
    ("build ram-p2 hit", "ram", ["build"] + RAM),
    # the DOT dump is the one tree output that no report carries; ref-m8
    # stops at depth 2, as its depth-3 dump is some 80 MB
    ("build ref-m8 dot depth 2", "ref", ["build"] + REF + dot(2)),
    ("build ram-p2 dot depth 3", "ram", ["build"] + RAM + dot(3)),
    ("linv ref-m8 default data", "ref", ["linv"] + REF),
    ("linv ref-m8 3:1,3:1+2i,7:5i", "ref",
     ["linv"] + REF + ["--embedding-data", "3:1,3:1+2i,7:5i"]),
    ("linv ref-m8 3:2,3:i,7:3", "ref",
     ["linv"] + REF + ["--embedding-data", "3:2,3:i,7:3"]),
    ("linv ref-m8 3:1+i,3:2+2i,7:1+3i", "ref",
     ["linv"] + REF + ["--embedding-data", "3:1+i,3:2+2i,7:1+3i"]),
    # exits 2 (precision-underflow): the scalar lc/oc division of
    # cocycle.l_invariant is inexact by pi^6
    ("linv ram-p2", "ram", ["linv"] + RAM),
    ("accept ref-m8 all criteria", "ref", ["accept"] + REF),
    ("accept ram-p2 criteria 1,2,5,8", "ram",
     ["accept"] + RAM + ["--criteria", "1,2,5,8"]),
    # the benchmark's criterion subsets: a distribution's tables hold what
    # the criteria run before have filled, so the subsets differ from the
    # full run in what each criterion fills itself
    ("accept ref-m8 criteria 3,5,6,9", "ref",
     ["accept"] + REF + ["--criteria", "3,5,6,9"]),
    ("accept ref-m8 criterion 6", "ref",
     ["accept"] + REF + ["--criteria", "6"]),
    ("accept ram-p2 criteria 1,2,5", "ram",
     ["accept"] + RAM + ["--criteria", "1,2,5"]),
    # the one CLI run of the log kernels at a ramified prime
    ("accept ram-p2 criterion 9", "ram",
     ["accept"] + RAM + ["--criteria", "9"]),
    ("accept ref-m8 criterion 2 fault", "ref",
     ["accept"] + REF + ["--criteria", "2", "--inject-fault"]),
    ("build 7+7i p=7 miss", "p7", ["build"] + P7),
    ("linv 7+7i p=7", "p7", ["linv"] + P7),
    ("accept 7+7i p=7 criteria 2,8", "p7",
     ["accept"] + P7 + ["--criteria", "2,8"]),
    # the character search and the embedding data away from p = 11 and
    # p = 2; both exit 1: criterion 4 fails at p = 7, and at p = 3
    # criteria 4 and 5 find no character and criterion 6 fails
    ("accept 7+7i p=7 criteria 4,5,6", "p7",
     ["accept"] + P7 + ["--criteria", "4,5,6"]),
    ("build 15 p=3 miss", "p3", ["build"] + P3),
    ("build 15 p=3 dot depth 3", "p3", ["build"] + P3 + dot(3)),
    ("linv 15 p=3", "p3", ["linv"] + P3),
    ("accept 15 p=3 criteria 2,8", "p3",
     ["accept"] + P3 + ["--criteria", "2,8"]),
    ("accept 15 p=3 criteria 4,5,6", "p3",
     ["accept"] + P3 + ["--criteria", "4,5,6"]),
]
CACHES = sorted({cache for _, cache, _ in COMMANDS})

PLACEHOLDER = "<cache>"


def run(src, cache, argv):
    """(exit code, stdout with the cache directory replaced)."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "padicbianchi.cli"]
        + [a.replace("{cache}", cache) for a in argv]
        + ["--cache-dir", cache],
        capture_output=True, text=True, env=env, timeout=1800)
    return proc.returncode, proc.stdout.replace(cache, PLACEHOLDER)


def drop_elapsed(x):
    if isinstance(x, dict):
        return {k: drop_elapsed(v) for k, v in x.items()
                if k != "elapsed_sec"}
    if isinstance(x, list):
        return [drop_elapsed(v) for v in x]
    return x


def normalised(out):
    try:
        return drop_elapsed(json.loads(out))
    except ValueError:
        return out


def read_one(pattern):
    """The bytes of the one file that matches pattern."""
    (path,) = glob.glob(pattern)
    with open(path, "rb") as fh:
        return fh.read()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--work", help="directory for the caches (default: a "
                                   "new temporary directory)")
    args = ap.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="refactor-gate-")
    sides = {"parent": args.parent_src, "change": args.change_src}
    for name in sides:
        for cache in CACHES:
            path = os.path.join(work, name, cache)
            os.makedirs(path, exist_ok=True)
            if os.listdir(path):
                sys.exit("%s is not empty" % path)
    ok = True
    for label, cache, cmd in COMMANDS:
        got = {name: run(src, os.path.join(work, name, cache), cmd)
               for name, src in sides.items()}
        (pc, pout), (cc, cout) = got["parent"], got["change"]
        if (pc, pout) == (cc, cout):
            verdict = "identical (byte-identical)"
        elif pc == cc and normalised(pout) == normalised(cout):
            verdict = "identical except elapsed_sec"
        else:
            verdict = "DIFFERENT"
            ok = False
        print("%-36s exit %s/%s  %s" % (label, pc, cc, verdict), flush=True)
    for cache in CACHES:
        # the lifts' file names are cache keys, so each side has its own;
        # the dumps are named by depth
        dumps = sorted(os.path.basename(f) for f in glob.glob(
            os.path.join(work, "parent", cache, "*.dot")))
        for pattern in ["*.npz"] + dumps:
            blobs = [read_one(os.path.join(work, name, cache, pattern))
                     for name in sides]
            same = blobs[0] == blobs[1]
            ok = ok and same
            print("%-36s %s (%d bytes)" % (
                "cmp %s %s" % (cache, pattern.lstrip("*")),
                "identical" if same else "DIFFERENT", len(blobs[1])),
                flush=True)
    print("gate: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
