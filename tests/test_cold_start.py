"""scipy stays out of the import graph until a leakage design needs it,
and then only its compiled LAPACK module, ``scipy.linalg._flapack``, loads.

Each check runs in a fresh interpreter, because this test process has
imported scipy already.
"""

import subprocess
import sys
import textwrap

SWEEP = ["sweep", "--axis", "power_dbm", "--values", "7,27", "--methods", "max-sv,leakage",
         "--ris", "gpg,random", "--pa", "fixed,hicf", "--trials", "2", "--seed", "3"]


def run_fresh(code):
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(calls):
    """Whether scipy is in sys.modules after importing risdm and running ``calls``."""
    out = run_fresh(f"""
        import sys
        import risdm, risdm.cli
        risdm.default_config()
        for argv in {calls!r}:
            assert risdm.cli.main(argv) == 0, argv
        print("scipy" in sys.modules)
    """)
    return out.splitlines()[-1] == "True"


def test_import_leaves_scipy_unloaded():
    assert not loaded_after([])


def test_max_sv_commands_leave_scipy_unloaded(tmp_path):
    calls = [
        ["pa-surface", "--step", "0.1", "--out", str(tmp_path / "s.csv")],
        ["sweep", "--axis", "power_dbm", "--values", "7,27", "--ris", "gpg,random,none",
         "--pa", "fixed,epa,es1d,es2d,hicf", "--out", str(tmp_path / "w.csv")],
        ["scenario", "dump"],
    ]
    assert not loaded_after(calls)


FLAPACK = "scipy.linalg._flapack"

# The first lookup of the LAPACK module, the loader's own, misses; the
# import system's later lookups find it as before.
MISS = f"""
import importlib.machinery
find_spec, missed = importlib.machinery.FileFinder.find_spec, []
def miss_once(self, fullname, target=None):
    if fullname == {FLAPACK!r} and not missed:
        missed.append(fullname)
        return None
    return find_spec(self, fullname, target)
importlib.machinery.FileFinder.find_spec = miss_once
"""

# Any lookup of the LAPACK module fails, so a passing run reused a loaded copy.
NO_LOAD = f"""
import importlib.machinery
find_spec = importlib.machinery.FileFinder.find_spec
def refuse(self, fullname, target=None):
    assert fullname != {FLAPACK!r}, "the LAPACK module was looked up a second time"
    return find_spec(self, fullname, target)
importlib.machinery.FileFinder.find_spec = refuse
"""


def sweep_bytes(out, setup="", check=""):
    """The CSV of ``SWEEP`` run in a fresh interpreter after ``setup``;
    ``check`` runs after the sweep."""
    run_fresh("\n".join([
        "import sys", setup, "import risdm.cli",
        f"assert risdm.cli.main({SWEEP + ['--out', str(out)]!r}) == 0", check,
    ]))
    return out.read_bytes()


def test_leakage_sweep_loads_only_lapack_with_unchanged_bytes(tmp_path):
    lazy = sweep_bytes(tmp_path / "lazy.csv", check=f"""
assert "scipy.linalg" not in sys.modules
assert {FLAPACK!r} in sys.modules
""")
    preloaded = sweep_bytes(tmp_path / "preloaded.csv", setup="import scipy.linalg",
                            check='assert "scipy.linalg" in sys.modules')
    assert lazy == preloaded
    assert lazy.count(b",leakage,") == 2 * 2 * 2 * 2


def test_loader_falls_back_to_scipy_linalg_lapack(tmp_path):
    lazy = sweep_bytes(tmp_path / "lazy.csv")
    fallback = sweep_bytes(tmp_path / "fallback.csv", setup=MISS, check="""
assert missed and "scipy.linalg.lapack" in sys.modules
""")
    assert fallback == lazy


def test_loader_reuses_a_loaded_scipy_linalg():
    run_fresh("\n".join(["import sys", "import scipy.linalg", NO_LOAD, f"""
import risdm.beamforming
assert risdm.beamforming._lapack() is sys.modules[{FLAPACK!r}]
"""]))


def test_scipy_linalg_reuses_the_loaded_lapack():
    run_fresh("\n".join(["import sys", "import risdm.beamforming",
                          "lapack = risdm.beamforming._lapack()", NO_LOAD, f"""
assert "scipy.linalg" not in sys.modules
import scipy.linalg
assert sys.modules[{FLAPACK!r}] is lapack
assert scipy.linalg.lapack.zhegvd is lapack.zhegvd
"""]))
