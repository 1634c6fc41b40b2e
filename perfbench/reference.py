"""Reference outputs for one workload, from the frozen seed-commit library.

``seedref/risdm`` is a verbatim copy of ``src/risdm`` at the commit that
defined this benchmark; it, not the library under test, is imported::

    python3 perfbench/reference.py INPUTS OUT

Writes ``{"calls": [{key: ssr}, ...]}``, one dict per CLI call, or for
``pa-fuzz`` ``{"ssr": {key: ssr}, "grid_ssr": {draw: ssr}}``, where
``grid_ssr`` is the 1e-5 diagonal grid optimum that hicf results are
measured against for ``hicf_miss_frac``.
"""

from __future__ import annotations

import json
import os
import sys

import childenv

risdm = childenv.use_library("seedref")

from risdm.power_allocation import allocate, es_1d  # noqa: E402
from risdm.rates import ScalarGains  # noqa: E402
from risdm.sim import SweepSpec, emit_csv, pa_surface, run_sweep  # noqa: E402

from check import csv_records  # noqa: E402

FINE_GRID_STEP = 1e-5


def reference(doc):
    if doc["kind"] == "pa":
        ssr, grid = {}, {}
        for i, draw in enumerate(doc["draws"]):
            g = ScalarGains(*draw["s"], 1.0, 1.0, 1.0)
            for mode in doc["modes"]:
                ssr[f"{i}|{mode}"] = allocate(g, mode, seed=draw["seed"]).ssr
            grid[str(i)] = es_1d(g, step=FINE_GRID_STEP).ssr
        return {"ssr": ssr, "grid_ssr": grid}
    config = risdm.ScenarioConfig.from_dict(doc["config"])
    calls = []
    for call in doc["calls"]:
        if call["command"] == "sweep":
            spec = SweepSpec(
                axis=call["axis"], values=tuple(float(v) for v in call["values"]),
                methods=tuple(call["methods"]), ris_modes=tuple(call["ris"]),
                pa_modes=tuple(call["pa"]), trials=call["trials"], seed=call["seed"],
            )
            records = run_sweep(config, spec)
        else:
            records = pa_surface(config, step=call["step"], method=call["method"],
                                 ris_mode=call["ris"])
        calls.append({k: v for k, (_, v) in csv_records(emit_csv(records)).items()})
    return {"calls": calls}


def main(argv):
    if len(argv) != 2:
        print("usage: reference.py INPUTS OUT", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        doc = json.load(fh)
    tmp = argv[1] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(reference(doc), fh)
    os.replace(tmp, argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
