"""scipy stays out of the import graph until a leakage design needs it.

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


def test_leakage_sweep_loads_scipy_with_unchanged_bytes(tmp_path):
    def sweep_bytes(preload, out):
        run_fresh(f"""
            import sys
            {"import scipy.linalg" if preload else ""}
            import risdm.cli
            assert risdm.cli.main({SWEEP + ["--out", str(out)]!r}) == 0
            assert "scipy.linalg" in sys.modules
        """)
        return out.read_bytes()

    lazy = sweep_bytes(False, tmp_path / "lazy.csv")
    assert lazy == sweep_bytes(True, tmp_path / "preloaded.csv")
    assert lazy.count(b",leakage,") == 2 * 2 * 2 * 2
