"""CLI tests: config handling, caching, exit codes, reports."""

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

from padicbianchi import acceptance as acc
from padicbianchi import cli
from padicbianchi import cocycle as cc
from padicbianchi import padic
from padicbianchi.field import QuadInt


@pytest.fixture(scope="module")
def seed_build(tmp_path_factory):
    """The M = 5 reference build into an empty cache (run once): the cache
    it filled and its report."""
    cache = tmp_path_factory.mktemp("cache")
    out = tmp_path_factory.mktemp("out") / "seed.json"
    code = cli.main(["build", "--precision", "5", "--cache-dir", str(cache),
                     "--output", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["cache"] == "miss"
    return cache, rep


@pytest.fixture(scope="module")
def cache_dir(seed_build):
    """A warm cache for the M = 5 reference run."""
    return seed_build[0]


def run(tmp_path, name, argv):
    out = tmp_path / name
    code = cli.main(argv + ["--output", str(out)])
    return code, json.loads(out.read_text())


BASE = ["--precision", "5"]
# the benchmark's ram-p2 configuration, whose cold build takes well under a
# second
RAM = ["--field-disc", "1", "--level", "7+7i", "--prime", "2",
       "--precision", "6"]


class TestBuild:
    def test_cache_hit(self, seed_build, tmp_path):
        # a hit reports what the miss that filled the cache reported (the
        # eigenvalues, the lift certificate and the generator count), read
        # from the meta without decoding the lift
        cache, miss = seed_build
        code, rep = run(tmp_path, "b.json",
                        ["build"] + BASE + ["--cache-dir", str(cache)])
        assert code == 0
        assert rep["cache"] == "hit"
        assert rep["eigen"]["lambda_p"] == "1"
        assert rep["lift_certificate"]["converged"]
        assert dict(rep, cache="miss") == miss

    def test_flipped_lift_byte_rebuilds(self, seed_build, tmp_path):
        # a valid entry whose .npz changed by one byte fails its sha256
        cache = tmp_path / "cache"
        shutil.copytree(seed_build[0], cache)
        (npz,) = cache.glob("*.npz")
        data = bytearray(npz.read_bytes())
        data[len(data) // 2] ^= 0x01
        npz.write_bytes(bytes(data))
        code, rep = run(tmp_path, "b.json",
                        ["build"] + BASE + ["--cache-dir", str(cache)])
        assert code == 0
        assert rep["cache"] == "rebuilt"
        assert any("corrupt cache" in w and "sha256" in w
                   for w in rep["warnings"])
        assert rep["lift_certificate"] == seed_build[1]["lift_certificate"]

    def test_cache_key_covers_code(self, tmp_path, monkeypatch):
        # the key hashes the version and the package's .py sources, so a
        # lift that other code wrote is a miss
        cfg = cli.RunConfig(precision=5)
        key = cfg.cache_key()
        pkg = tmp_path / "padicbianchi"
        shutil.copytree(os.path.dirname(cli.__file__), pkg)
        monkeypatch.setattr(cli, "__file__", str(pkg / "cli.py"))
        assert cfg.cache_key() == key
        with open(pkg / "msymb.py", "a") as fh:
            fh.write("# edited\n")
        edited = cfg.cache_key()
        assert edited != key
        monkeypatch.setattr(cli, "__version__", cli.__version__ + ".1")
        assert cfg.cache_key() not in (key, edited)

    def test_builtin_sha256_matches_hashlib(self, cache_dir, monkeypatch):
        # the interpreter's builtin SHA-256 and hashlib's give the same code
        # digest, reference cache key and .npz digest
        import hashlib
        assert cli.sha256 is not hashlib.sha256
        cfg = cli.RunConfig()
        (npz,) = cache_dir.glob("*.npz")
        payload = npz.read_bytes()

        def digests():
            return (cli._code_digest(), cfg.cache_key(),
                    cli.sha256(payload).hexdigest())
        lean = digests()
        monkeypatch.setattr(cli, "sha256", hashlib.sha256)
        assert digests() == lean
        assert lean[2] == json.loads(npz.with_suffix(".json").read_text()
                                     )["sha256"]

    def test_corrupt_cache_rebuilds_with_warning(self, tmp_path):
        cache = tmp_path / "cache"
        # fake a cache entry with valid metadata but a broken payload
        cfg = cli.RunConfig(precision=5, cache_dir=str(cache))
        os.makedirs(cache)
        key = cfg.cache_key()
        (cache / (key + ".npz")).write_bytes(b"not a payload")
        (cache / (key + ".json")).write_text(json.dumps(
            {"format": cli.CACHE_FORMAT, "config": cfg.echo(),
             "phi_values": ["1"], "eigen": {"lambda_p": "1"}, "cert": {}}))
        code, rep = run(tmp_path, "b.json",
                        ["build"] + BASE + ["--cache-dir", str(cache)])
        assert code == 0
        assert rep["cache"] == "rebuilt"
        assert any("corrupt cache" in w for w in rep["warnings"])

    def test_dot_dump(self, cache_dir, tmp_path):
        dot = tmp_path / "tree.dot"
        code, rep = run(tmp_path, "b.json",
                        ["build"] + BASE + ["--cache-dir", str(cache_dir),
                                            "--dot-out", str(dot)])
        assert code == 0
        assert dot.read_text().startswith("graph btree")

    def test_hecke_spectrum_irrational_part(self):
        # eigenvalues +-sqrt(2): reported as the factor that holds them
        assert cli._hecke_spectrum([[0, 2], [1, 0]]) == ["x**2 - 2"]
        assert cli._hecke_spectrum([[-2, 0, 0], [0, 0, 3], [0, 1, 1]]) == \
            ["-2", "x**2 - x - 3"]
        assert cli._hecke_spectrum([[10, 0], [0, -2]]) == ["-2", "10"]

    def test_spectrum_diagnostic_keys_each_prime(self):
        # the two split primes over 5 have the same norm: both are kept
        spectra = cli._spectrum_diagnostic(QuadInt(3, 3, 1), 1)[
            "hecke_spectra"]
        assert len(spectra) == 2
        assert all(key.endswith("N(q)=5") for key in spectra)

    def test_no_eigenpacket_diagnostic(self, tmp_path):
        code, rep = run(tmp_path, "b.json",
                        ["build", "--level", "3", "--prime", "3",
                         "--precision", "5",
                         "--cache-dir", str(tmp_path / "c")])
        assert code == 3
        assert rep["error"] == "no-new-eigenpacket"
        assert rep["spectrum"]["dimension"] == 1
        assert rep["spectrum"]["hecke_spectra"]


class TestConfig:
    def test_file_with_flag_override(self, cache_dir, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("precision = 5\n"
                        "cache-dir = %s\n"
                        "# a comment\n"
                        "embedding_data = 3:1,3:2\n" % cache_dir)
        code, rep = run(tmp_path, "b.json",
                        ["build", "--config", str(conf),
                         "--embedding-data", "3:1,7:1"])
        assert code == 0
        assert rep["config"]["embedding_data"] == "3:1,7:1"
        assert rep["config"]["precision"] == 5

    def test_unknown_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("frobnicate = 1\n")
        assert cli.main(["build", "--config", str(conf)]) == 4
        assert "unknown key" in capsys.readouterr().out

    @pytest.mark.parametrize("line", ["precision = abc", "p = 11.0"])
    def test_non_integer_value_rejected(self, tmp_path, capsys, line):
        conf = tmp_path / "run.conf"
        conf.write_text("# run\n" + line + "\n")
        assert cli.main(["build", "--config", str(conf)]) == 4
        rep = json.loads(capsys.readouterr().out)
        assert rep["error"] == "bad-input"
        assert "run.conf:2: " in rep["message"]
        assert "integer" in rep["message"]

    @pytest.mark.parametrize("argv", [
        ["build", "--weight", "3", "--precision", "9"],
        ["build", "--precision", "4"],
        ["build", "--precision", "9"],
        ["build", "--prime", "5", "--level", "5", "--precision", "5"],
        ["build", "--prime", "7", "--precision", "5"],
        ["build", "--field-disc", "6", "--precision", "5"],
        ["build", "--level", "121", "--precision", "5"],
        ["build", "--jobs", "4"],
        ["build", "--prime", "x"],
        ["build", "--bogus", "1"],
        ["build", "--dot-depth", "4"],
    ])
    def test_bad_input_exit_code(self, argv, tmp_path, capsys):
        assert cli.main(argv + ["--cache-dir", str(tmp_path / "c")]) == 4
        assert json.loads(capsys.readouterr().out)["error"] == "bad-input"

    @pytest.mark.parametrize("argv", [
        # p is under no prime factor of the level (11): refused before
        # anything scans up to p
        ["build", "--prime", "1000000000000000009"],
        # N(level) = 73 * 137 * 99990001: trial division stops at the
        # square root of the leftover norm; 73 splits, so exit 4
        ["build", "--level", "1000000+1i", "--prime", "73"],
        # N(level) = 100000049 is a split prime: its factor is found by a
        # modular square root, not by scanning for a root mod p
        ["build", "--level", "10000+7i", "--prime", "100000049",
         "--precision", "5"],
        ["build", "--level", "10000+7i", "--prime", "2", "--precision", "5"],
    ])
    def test_refused_within_seconds(self, argv, tmp_path, capsys):
        class Stuck(BaseException):
            pass

        def stuck(signum, frame):
            raise Stuck("not refused within 10 s")
        old = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(10)
        try:
            code = cli.main(argv + ["--cache-dir", str(tmp_path / "c")])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert code == 4
        assert json.loads(capsys.readouterr().out)["error"] == "bad-input"

    @pytest.mark.parametrize("cmd", ["build", "linv", "accept"])
    def test_output_in_missing_directory(self, cmd, cache_dir, tmp_path,
                                         capsys, monkeypatch):
        # refused before any work: the lift is never read
        def boom(*args):
            raise AssertionError("work started")
        monkeypatch.setattr(cli, "build_symbol", boom)
        for out in (tmp_path / "missing" / "x.json", tmp_path):
            assert cli.main([cmd] + BASE + ["--cache-dir", str(cache_dir),
                                            "--output", str(out)]) == 4
            rep = json.loads(capsys.readouterr().out)
            assert rep["error"] == "bad-input"
            assert "output" in rep["message"]
        assert not (tmp_path / "missing").exists()

    def test_dot_out_in_missing_directory(self, cache_dir, tmp_path,
                                          capsys):
        out = tmp_path / "missing" / "x.dot"
        assert cli.main(["build"] + BASE + ["--cache-dir", str(cache_dir),
                                            "--dot-out", str(out)]) == 4
        rep = json.loads(capsys.readouterr().out)
        assert rep["error"] == "bad-input"
        assert "dot_out" in rep["message"]

    @pytest.mark.parametrize("cmd", ["build", "linv", "accept"])
    def test_cache_dir_not_a_directory(self, cmd, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.write_text("")
        for cache in (plain, plain / "sub"):
            assert cli.main([cmd] + BASE + ["--cache-dir", str(cache)]) == 4
            rep = json.loads(capsys.readouterr().out)
            assert rep["error"] == "bad-input"
            assert "cache_dir" in rep["message"]

    def test_field_without_relation_tables(self, tmp_path, capsys):
        # Q(sqrt(-2)) has field arithmetic but no M-symbol relation table:
        # the run is refused before any work, with no traceback
        cache = tmp_path / "c"
        argv = ["build", "--field-disc", "2", "--level", "5", "--prime", "5",
                "--cache-dir", str(cache)]
        assert cli.main(argv) == cli.EXIT_INPUT
        rep = json.loads(capsys.readouterr().out)
        assert rep["error"] == "bad-input"
        assert "relation tables" in rep["message"]
        assert not cache.exists()


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def child_env():
    """The environment of a child interpreter that imports this src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


NO_SYMPY = """\
import importlib.abc, json, sys

class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "sympy":
            raise ImportError("sympy refused")

sys.meta_path.insert(0, Refuse())
from padicbianchi import basechange as bc
from padicbianchi import cli
out, flags = sys.argv[1], sys.argv[2:]
rc = [cli.main(argv + flags + ["--output", "%s/%d.json" % (out, i)])
      for i, argv in enumerate([["build"], ["build"],
                                ["accept", "--criteria", "1,2,5"]])]
plus, minus = bc.find_rational_eigensymbols(11, 11)
print(json.dumps(rc), "sympy" in sys.modules)
"""


NO_SHA_BUILTIN = """\
import importlib.abc, json, sys

class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name in ("_sha2", "_sha256"):
            raise ImportError(name + " refused")

sys.meta_path.insert(0, Refuse())
import hashlib
from padicbianchi import cli
rc = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([rc, cli.sha256 is hashlib.sha256]))
"""

RUN_ALL = """\
import json, sys
from padicbianchi import cli
rc = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([rc, [m for m in ("hashlib", "_hashlib")
                       if m in sys.modules]]))
"""


class TestStartup:
    def test_runs_without_sympy(self, tmp_path):
        # the cold build, the warm build, the accept of the eigen-split
        # criteria and the rational eigensymbols at the ram-p2 level all
        # run with sympy refused at import
        flags = RAM + ["--cache-dir", str(tmp_path / "c")]
        proc = subprocess.run([sys.executable, "-c", NO_SYMPY, str(tmp_path)]
                              + flags, capture_output=True, text=True,
                              env=child_env(), timeout=300)
        assert proc.stdout.split() == ["[0,", "0,", "0]", "False"], \
            proc.stderr
        caches = [json.loads((tmp_path / ("%d.json" % i)).read_text())
                  ["cache"] for i in range(2)]
        assert caches == ["miss", "hit"]

    def test_warm_build_imports_no_numpy_layer(self, cache_dir, tmp_path):
        # a hit reads field and msymb only: numpy, the layers on it, and
        # the exact linear algebra of the symbol space and the eigen-split
        # are left out of the start-up every warm command pays, both at
        # `import padicbianchi.cli` and through the warm build
        layers = ["numpy"] + ["padicbianchi." + m for m in (
            "manin", "ocsymb", "padic", "lfun", "cocycle", "btree",
            "basechange", "linalg", "acceptance")]
        code = ("import json, sys\n"
                "layers = sys.argv[1].split(',')\n"
                "from padicbianchi import cli\n"
                "loaded = [m for m in layers if m in sys.modules]\n"
                "rc = cli.main(sys.argv[2:])\n"
                "print(json.dumps([loaded, rc,\n"
                "                  [m for m in layers if m in sys.modules]]))\n")
        argv = ["build"] + BASE + ["--cache-dir", str(cache_dir),
                                   "--output", str(tmp_path / "b.json")]
        proc = subprocess.run([sys.executable, "-c", code, ",".join(layers)]
                              + argv, capture_output=True, text=True,
                              env=child_env(), timeout=120)
        assert json.loads(proc.stdout) == [[], 0, []], proc.stderr
        assert json.loads((tmp_path / "b.json").read_text())["cache"] == "hit"

    def test_commands_load_no_openssl(self, cache_dir, tmp_path):
        # the cache digests use the builtin SHA-256: no command, cold or
        # warm, imports hashlib or OpenSSL's _hashlib
        ram = RAM + ["--cache-dir", str(tmp_path / "c")]
        runs = [["build"] + ram, ["build"] + ram,
                ["accept"] + ram + ["--criteria", "1,2,5"],
                ["linv"] + BASE + ["--cache-dir", str(cache_dir)]]
        runs = [argv + ["--output", str(tmp_path / ("%d.json" % i))]
                for i, argv in enumerate(runs)]
        proc = subprocess.run([sys.executable, "-c", RUN_ALL,
                               json.dumps(runs)], capture_output=True,
                              text=True, env=child_env(), timeout=300)
        assert json.loads(proc.stdout) == [[0, 0, 0, 0], []], proc.stderr
        caches = [json.loads((tmp_path / ("%d.json" % i)).read_text())
                  ["cache"] for i in range(4)]
        assert caches == ["miss", "hit", "hit", "hit"]

    def test_hashlib_fallback_same_entry(self, tmp_path, monkeypatch):
        # with the builtin SHA-256 refused, cli falls back to hashlib: it
        # reads the entry the builtin wrote as a hit, and writes the same
        # meta byte for byte (the relative cache_dir keeps the echoed
        # config equal)
        lean, fallback = tmp_path / "lean", tmp_path / "fallback"
        lean.mkdir()
        fallback.mkdir()
        monkeypatch.chdir(lean)
        out = [str(tmp_path / ("%d.json" % i)) for i in range(3)]
        assert cli.main(["build"] + RAM + ["--cache-dir", "c",
                                           "--output", out[0]]) == 0
        runs = [["build"] + RAM + ["--cache-dir", str(lean / "c"),
                                   "--output", out[1]],
                ["build"] + RAM + ["--cache-dir", "c", "--output", out[2]]]
        proc = subprocess.run([sys.executable, "-c", NO_SHA_BUILTIN,
                               json.dumps(runs)], cwd=fallback,
                              capture_output=True, text=True,
                              env=child_env(), timeout=300)
        assert json.loads(proc.stdout) == [[0, 0], True], proc.stderr
        caches = [json.loads(open(path).read())["cache"] for path in out]
        assert caches == ["miss", "hit", "miss"]
        (meta,) = (lean / "c").glob("*.json")
        assert (fallback / "c" / meta.name).read_bytes() == meta.read_bytes()

    def test_source_does_not_name_sympy(self):
        for root, dirs, files in os.walk(SRC):
            # skip what building and running leave behind
            dirs[:] = [d for d in dirs if d != "__pycache__"
                       and not d.endswith(".egg-info")]
            for name in files:
                with open(os.path.join(root, name), "rb") as fh:
                    assert b"sympy" not in fh.read(), name


class TestBlasThreads:
    def test_default_and_override(self, tmp_path, capsys, monkeypatch):
        # main sets OPENBLAS_NUM_THREADS=1 where it is unset, before any
        # command imports numpy, and keeps a value the user set
        name = "OPENBLAS_NUM_THREADS"
        monkeypatch.setenv(name, "")      # restored after the test
        monkeypatch.delenv(name)
        argv = ["build", "--bogus", "1", "--cache-dir", str(tmp_path / "c")]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert os.environ[name] == "1"
        monkeypatch.setenv(name, "3")
        assert cli.main(argv) == cli.EXIT_INPUT
        assert os.environ[name] == "3"
        capsys.readouterr()


class TestLinv:
    def test_certificate(self, cache_dir, tmp_path):
        code, rep = run(tmp_path, "l.json",
                        ["linv"] + BASE + ["--cache-dir", str(cache_dir)])
        assert code == 0
        cert = rep["certificate"]
        assert len(cert["entries"]) == 3
        li = cert["l_invariant_log_iw"]
        assert li["valuation"] == 1
        assert int(li["coeffs"][0]) % 11 ** 4 == 91589443 % 11 ** 4
        twice = cert["l_invariant"]
        assert int(twice["coeffs"][0]) % 11 ** 4 == 183178886 % 11 ** 4

    def test_deterministic_output(self, cache_dir, tmp_path):
        argv = ["linv"] + BASE + ["--cache-dir", str(cache_dir)]
        out1, out2 = tmp_path / "l1.json", tmp_path / "l2.json"
        assert cli.main(argv + ["--output", str(out1)]) == 0
        assert cli.main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_scalar_euclid_in_tables_lifts_and_discs(self, cache_dir,
                                                        tmp_path,
                                                        monkeypatch):
        # a warm linv builds the P^1 tables and the generator lifts of its
        # own layer, the unit groups and discs of its distributions and the
        # unit tests of its embedding data on the lockstep Euclid, and no
        # module of the package has the scalar QuadInt Euclid wrappers
        from padicbianchi import manin
        lockstep = []
        rows = manin.xgcd_rows
        monkeypatch.setattr(manin, "xgcd_rows",
                            lambda *a: lockstep.append(1) or rows(*a))
        code, _ = run(tmp_path, "l.json",
                      ["linv"] + BASE + ["--cache-dir", str(cache_dir)])
        assert code == 0 and lockstep
        mods = [m for name, m in sys.modules.items()
                if name.startswith("padicbianchi") and m is not None]
        assert len(mods) > 10
        assert not any(hasattr(mod, name) for mod in mods
                       for name in ("gcd_quad", "divmod_quad", "xgcd_quad"))

    @pytest.mark.parametrize("datum, why", [
        ("11:1", "c must be coprime to p"),
        ("3:3", "v must be a unit mod c"),
        ("3:0", "v must be a unit mod c"),
        ("0:1", "c must be nonzero"),
    ])
    def test_datum_ruled_out_by_prime(self, datum, why, cache_dir, capsys):
        # a datum the prime rules out is bad input: a JSON report on
        # stdout that names the datum, and exit 4
        code = cli.main(["linv"] + BASE + ["--cache-dir", str(cache_dir),
                                           "--embedding-data", datum])
        assert code == 4
        rep = json.loads(capsys.readouterr().out)
        assert rep["error"] == "bad-input"
        assert "(c, v) = (%s, %s): %s" % (*datum.split(":"), why) \
            in rep["message"]

    @pytest.mark.parametrize("data, repeated", [
        ("3:1,3:4", "(3, 4): repeats (3, 1)"),
        ("3:1,3:1+3i", "(3, 1+3*w): repeats (3, 1)"),
        ("3:1,3:2,3:1", "(3, 1): repeats (3, 1)"),
        # an associate of c with v times the same unit: the cusp v/c
        ("3:1,-3:-1", "(-3, -1): repeats (3, 1)"),
        ("3:1,3i:i", "(3*w, 1*w): repeats (3, 1)"),
    ])
    def test_repeated_datum(self, data, repeated, cache_dir, capsys):
        # a datum compared with itself would inflate pairwise_agreement
        code = cli.main(["linv"] + BASE + ["--cache-dir", str(cache_dir),
                                           "--embedding-data", data])
        assert code == 4
        rep = json.loads(capsys.readouterr().out)
        assert rep["error"] == "bad-input"
        assert repeated in rep["message"]

    def test_distinct_data_pass(self, cache_dir, tmp_path):
        code, rep = run(tmp_path, "l.json",
                        ["linv"] + BASE + ["--cache-dir", str(cache_dir),
                                           "--embedding-data", "3:1,3:2,7:1"])
        assert code == 0
        assert len(rep["certificate"]["entries"]) == 3

    @pytest.mark.parametrize("how", ["comma", "empty", "config"])
    def test_empty_data_refused(self, how, cache_dir, tmp_path, capsys):
        # data that name no datum are bad input, not the default data
        argv = ["linv"] + BASE + ["--cache-dir", str(cache_dir)]
        if how == "config":
            conf = tmp_path / "run.conf"
            conf.write_text("embedding_data =\n")
            argv += ["--config", str(conf)]
        else:
            argv += ["--embedding-data", "," if how == "comma" else ""]
        assert cli.main(argv) == 4
        rep = json.loads(capsys.readouterr().out)
        assert rep["error"] == "bad-input"
        assert "embedding data name no datum" in rep["message"]

    @pytest.mark.parametrize("level, p, data, criteria", [
        ("15", "3", "7:1,7:2,11:1", "8"),
        ("7+7i", "7", "3:1,3:2,11:1", "6,8"),
    ])
    def test_default_data_avoid_p(self, level, p, data, criteria, tmp_path):
        # the default data take the first two of the moduli 3, 7, 11 that
        # are coprime to p; linv evaluates all three, and the criteria that
        # read them run on them (at p = 3, M = 5 criterion 6 falls short of
        # its 5 digits: the ratios agree to 3)
        argv = ["--level", level, "--prime", p] + BASE \
            + ["--cache-dir", str(tmp_path / "cache")]
        code, rep = run(tmp_path, "l.json", ["linv"] + argv)
        assert code == 0
        assert rep["config"]["embedding_data"] == data
        cert = rep["certificate"]
        assert cert["skipped"] == []
        assert ["%s:%s" % (e["c"], e["v"]) for e in cert["entries"]] \
            == data.split(",")
        code, rep = run(tmp_path, "a.json",
                        ["accept"] + argv + ["--criteria", criteria])
        assert code == 0 and rep["all_pass"]

    def test_non_vanishing_exit(self, cache_dir, tmp_path, monkeypatch):
        def boom(fam, data=None):
            raise cc.NonVanishingError(["(3)"])
        monkeypatch.setattr(cc, "l_invariant", boom)
        code, rep = run(tmp_path, "l.json",
                        ["linv"] + BASE + ["--cache-dir", str(cache_dir)])
        assert code == 3
        assert rep["error"] == "non-vanishing-not-found"

    def test_precision_underflow_exit(self, cache_dir, tmp_path,
                                      monkeypatch):
        def boom(fam, data=None):
            raise padic.PrecisionError("inexact division")
        monkeypatch.setattr(cc, "l_invariant", boom)
        code, rep = run(tmp_path, "l.json",
                        ["linv"] + BASE + ["--cache-dir", str(cache_dir)])
        assert code == 2
        assert rep["error"] == "precision-underflow"


class TestAccept:
    def test_single_criterion_passes(self, cache_dir, tmp_path):
        code, rep = run(tmp_path, "a.json",
                        ["accept"] + BASE + ["--cache-dir", str(cache_dir),
                                             "--criteria", "1"])
        assert code == 0
        assert rep["all_pass"]
        assert rep["schema_valid"]
        (entry,) = rep["criteria"]
        assert entry["id"] == 1 and entry["passed"]
        assert entry["elapsed_sec"] < entry["runtime_limit_sec"]

    def test_report_validated_without_jsonschema(self, cache_dir, tmp_path,
                                                 monkeypatch):
        # the report is validated in the package: jsonschema is not needed
        monkeypatch.setitem(sys.modules, "jsonschema", None)
        code, rep = run(tmp_path, "a.json",
                        ["accept"] + BASE + ["--cache-dir", str(cache_dir),
                                             "--criteria", "1"])
        assert code == 0
        assert rep["schema_valid"]
        assert rep["warnings"] == []

    def test_fault_injection_flagged(self, cache_dir, tmp_path):
        code, rep = run(tmp_path, "a.json",
                        ["accept"] + BASE + ["--cache-dir", str(cache_dir),
                                             "--criteria", "2",
                                             "--inject-fault"])
        assert code == 1
        assert rep["fault_injected"]
        (entry,) = rep["criteria"]
        assert not entry["passed"]
        assert entry["detail"]["new_max_residual"] != "0"

    def test_ramified_gluing_criterion_ends(self, tmp_path):
        # the p = 2 tree has only 7 edges of depth <= 2 from e_*, fewer
        # than the 10 that criterion 8 draws at p = 11
        ram = ["--level", "7+7i", "--prime", "2", "--precision", "6",
               "--cache-dir", str(tmp_path / "cache")]

        def stuck(signum, frame):
            raise TimeoutError("criterion 8 did not end")
        old = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(120)
        try:
            code, rep = run(tmp_path, "a.json",
                            ["accept"] + ram + ["--criteria", "8"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert code == 0
        (entry,) = rep["criteria"]
        assert entry["id"] == 8 and entry["passed"]
        assert entry["detail"]["gluing_ok"]

    def test_bad_criteria_list(self, cache_dir, tmp_path):
        code, rep = run(tmp_path, "a.json",
                        ["accept"] + BASE + ["--cache-dir", str(cache_dir),
                                             "--criteria", "12"])
        assert code == 4

    @pytest.mark.parametrize("criteria", ["10", "x", "1,,2"])
    def test_bad_criteria_refused_before_build(self, criteria, tmp_path,
                                               capsys):
        # refused before the cold build: no cache entry is written
        cache = tmp_path / "c"
        assert cli.main(["accept"] + RAM + ["--cache-dir", str(cache),
                                            "--criteria", criteria]) == 4
        assert json.loads(capsys.readouterr().out)["error"] == "bad-input"
        assert not list(tmp_path.glob("**/*.npz"))

    def test_validator_agrees_with_jsonschema(self, cache_dir, tmp_path):
        import jsonschema
        schema = acc.accept_report_schema()
        _, rep = run(tmp_path, "a.json",
                     ["accept"] + BASE + ["--cache-dir", str(cache_dir),
                                          "--criteria", "5"])
        jsonschema.validate(rep, schema)
        acc.validate_report(rep, schema)

        def edited(edit):
            bad = json.loads(json.dumps(rep))
            edit(bad, bad["criteria"][0])
            return bad
        bad_reports = [
            edited(lambda r, c: r.update(command="linv")),
            edited(lambda r, c: c.pop("passed")),
            edited(lambda r, c: c.update(id=0)),
            edited(lambda r, c: c.update(id=10)),
            edited(lambda r, c: c.update(passed=1)),
            edited(lambda r, c: c.update(id=True)),
            edited(lambda r, c: c.update(elapsed_sec=False)),
            edited(lambda r, c: c.update(runtime_limit_sec="1")),
            edited(lambda r, c: r.update(warnings=[3])),
            edited(lambda r, c: r.pop("config")),
        ]
        for bad in bad_reports:
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, schema)
            with pytest.raises(acc.SchemaError):
                acc.validate_report(bad, schema)
        # JSON Schema semantics: 5.0 is an integer, true is not the const 1
        good = edited(lambda r, c: c.update(id=5.0))
        jsonschema.validate(good, schema)
        acc.validate_report(good, schema)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(True, {"const": 1})
        with pytest.raises(acc.SchemaError):
            acc.validate_report(True, {"const": 1})

    def test_validator_refuses_unknown_keywords(self):
        for schema in [{"pattern": "a"}, {"type": "string", "enum": ["a"]},
                       {"type": "decimal"}, {"items": [{"type": "string"}]},
                       {"properties": {"x": {"additionalProperties": False}}}]:
            with pytest.raises(acc.SchemaError):
                acc.validate_report({"x": 1}, schema)

    def test_report_schema_in_repo(self, cache_dir, tmp_path):
        import jsonschema
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(here, "src", "padicbianchi",
                               "accept_report.schema.json")) as fh:
            shipped = json.load(fh)
        code, rep = run(tmp_path, "a.json",
                        ["accept"] + BASE + ["--cache-dir", str(cache_dir),
                                             "--criteria", "5"])
        jsonschema.validate(rep, shipped)
        assert code == 0
