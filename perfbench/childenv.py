"""Imported first by every benchmark child process, before numpy loads.

Pins BLAS and OpenMP to one thread, and imports a copy of the library:
the checkout's ``src/risdm`` (the program under test) or the frozen
seed-commit copy in ``perfbench/seedref/risdm``.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIBRARIES = {"src": ROOT / "src", "seedref": HERE / "seedref"}
SEEDLIB_ALIAS = "seedlib_risdm"


def use_library(name, alias="risdm"):
    """Import library ``name`` with its CLI as package ``alias``; refuse a copy found elsewhere.

    Under an alias other than ``risdm`` the frozen copy can share a process
    with the program; its modules import one another only relatively.
    """
    package = LIBRARIES[name] / "risdm"
    if alias == "risdm":
        sys.path.insert(0, str(LIBRARIES[name]))
        module = importlib.import_module(alias)
    else:
        spec = importlib.util.spec_from_file_location(
            alias, package / "__init__.py", submodule_search_locations=[str(package)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[alias] = module
        spec.loader.exec_module(module)
    if Path(module.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported {module.__file__}, not {package}")
    importlib.import_module(f"{alias}.cli")
    return module
