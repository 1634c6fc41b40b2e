"""Run one workload in a fresh single-threaded interpreter and report it.

Started by ``run.py`` once per workload run::

    python3 perfbench/worker.py INPUTS WORKDIR REFERENCE OUT --seconds S [--trace]

Untraced, it warms the program up alone, then runs the workload's
operations in blocks for S seconds, each block once on the program and
once on the frozen seed library, loaded in the same process under
another name.  Both see the machine at the same speed; ``run.py`` scales
the program's time figures by the seed library's.  Traced, it runs
whole passes over the inputs for about S/2 seconds untraced, the same
number of passes with a span around every public layer call, then one
tracemalloc pass over a reduced replay.  Either way every output of the
program is compared with the reference afterwards; nothing is checked
inside the timed loop.
"""

from __future__ import annotations

import childenv  # first: pins BLAS/OpenMP threads before numpy loads

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

risdm = None  # the program under test, set by main()
MATRIX_FORM_TOL = 1e-10
# Operations per block of the timed loop.  A block is the unit the
# program and the seed library take turns on; an allocate call is too
# short for a turn of its own.
BLOCK_OPS = {"pa": 30, "cli": 1}
# The warm-up runs one pass, or this many operations if a pass is longer.
WARM_UP_OPS = 600


def provenance():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in childenv.THREAD_VARS},
    }


class Workload:
    """The operations of one workload and how to check what they returned."""

    def __init__(self, doc, lib, reference, workdir, tag="main"):
        self.doc, self.reference = doc, reference
        self.block = BLOCK_OPS[doc["kind"]]
        if doc["kind"] == "pa":
            self.ops = [self._pa_op(lib, i, draw, mode)
                        for i, draw in enumerate(doc["draws"]) for mode in doc["modes"]]
            self.after = None
        else:
            config_path = workdir / f"config-{tag}.json"
            config_path.write_text(json.dumps(doc["config"]), encoding="utf-8")
            self.out_path = workdir / f"out-{tag}.csv"
            self.ops = [self._cli_op(lib, workloads.cli_argv(call, str(config_path),
                                                             str(self.out_path)))
                        for call in doc["calls"]]
            self.after = self._read_csv
            self._texts = {}

    @staticmethod
    def _cli_op(lib, argv):
        return lambda: lib.cli.main(argv)

    @staticmethod
    def _pa_op(lib, i, draw, mode):
        gains = lib.rates.ScalarGains(*draw["s"], 1.0, 1.0, 1.0)
        key = f"{i}|{mode}"

        def op():
            try:
                return key, mode, lib.power_allocation.allocate(gains, mode, seed=draw["seed"]).ssr
            except Exception:  # a raising call is a failed operation, not a crash
                return key, mode, None
        return op

    def _read_csv(self, rc):
        if rc != 0:
            return None
        text = self.out_path.read_text(encoding="utf-8")
        self.out_path.unlink()
        # Keep one copy of repeated outputs, so peak RSS does not grow with
        # the number of calls that fit in the run.
        return self._texts.setdefault(text, text)

    def run_block(self, first, stop, latencies, results):
        """Run operations first..stop-1, counted cyclically over the inputs.

        The block starts from a collected heap, so the program and the
        seed library meet the cyclic garbage collector at the same points.
        """
        gc.collect()
        for k in range(first, stop):
            op = self.ops[k % len(self.ops)]
            t0 = time.perf_counter()
            result = op()
            latencies.append(time.perf_counter() - t0)
            results.append(self.after(result) if self.after else result)

    def drive(self, seconds=None, passes=None):
        """Whole passes over the inputs, until ``passes`` or ``seconds`` are reached.

        Returns (results, passes, wall).
        """
        results = []
        start = time.perf_counter()
        done = 0
        while True:
            self.run_block(done * len(self.ops), (done + 1) * len(self.ops), [], results)
            done += 1
            if passes is not None and done >= passes:
                break
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
        return results, done, time.perf_counter() - start

    def records_per_op(self, k):
        """How many records the reference holds for operation k."""
        if self.doc["kind"] == "pa":
            return 1
        return len(self.reference["calls"][k % len(self.ops)])

    def judge(self, results):
        """(records per operation, attempted, failed, first output per key).

        ``results[k]`` is the output of operation k, counted cyclically.
        """
        if self.doc["kind"] == "pa":
            ref = self.reference["ssr"]
            failed, first = 0, {}
            for key, mode, ssr in results:
                failed += ssr is None or key not in ref or not check.ssr_ok(mode, ssr, ref[key])
                first.setdefault(key, ssr)
            return [1] * len(results), len(results), failed, first
        produced, attempted, failed = [], 0, 0
        verdicts = {}
        for k, text in enumerate(results):
            op = k % len(self.ops)
            ref = self.reference["calls"][op]
            if text is None:
                produced.append(0)
                attempted, failed = attempted + len(ref), failed + len(ref)
                continue
            if (op, text) not in verdicts:
                try:
                    records = check.csv_records(text)
                except (ValueError, KeyError):  # unparseable output fails every record
                    records = {}
                verdicts[op, text] = (len(records), *check.compare(records, ref))
            n, a, f = verdicts[op, text]
            produced.append(n)
            attempted, failed = attempted + a, failed + f
        return produced, attempted, failed, {}

    def hicf_miss_frac(self, first):
        """Share of draws where hicf is below the 1e-5 diagonal grid."""
        grid = self.reference.get("grid_ssr")
        if not grid:
            return 0.0
        hicf = [(k.split("|")[0], v) for k, v in first.items() if k.endswith("|hicf")]
        misses = sum(1 for i, v in hicf if v is None or v < grid[i] - check.HICF_MISS_TOL)
        return misses / len(hicf) if hicf else 0.0


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def time_figures(latencies, records):
    return {"records_per_s": records / sum(latencies),
            "op_ms_p90": quantile(latencies, 0.90) * 1e3}


def measure(load, seed_workload, seconds):
    """The program warmed up alone, then blocks of it and of the seed library in turn.

    The warm-up lets lazy set-up finish before timing, and the program's
    peak RSS is read after it, before the seed library is imported.  In
    the timed loop, which of the two goes first alternates from block to
    block, so a change of machine speed within the run reaches both alike.
    A CLI workload stops at the end of a pass, so that every run times the
    same mix of calls, large and small.
    """
    results = []
    load.run_block(0, min(len(load.ops), WARM_UP_OPS), [], results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    seed = seed_workload()
    seed.run_block(0, load.block, [], [])

    program, seedlib = [], []
    whole = load.doc["kind"] == "cli"
    start = time.perf_counter()
    first = 0
    while time.perf_counter() - start < seconds or (whole and first % len(load.ops)):
        stop = first + load.block
        if (first // load.block) % 2:
            seed.run_block(first, stop, seedlib, [])
            load.run_block(first, stop, program, results)
        else:
            load.run_block(first, stop, program, results)
            seed.run_block(first, stop, seedlib, [])
        first = stop
    produced, attempted, failed, first_out = load.judge(results)
    timed = produced[len(produced) - len(program):]
    # The seed library ran the same operations; each produced what the
    # reference holds for it.
    seed_records = sum(load.records_per_op(k) for k in range(len(seedlib)))
    metrics = {**time_figures(program, sum(timed)), "peak_rss_mb": peak_rss_mb}
    extra = {"ops": len(program), "records": sum(timed),
             "seedlib": time_figures(seedlib, seed_records),
             "hicf_miss_frac": load.hicf_miss_frac(first_out)}
    return metrics, extra, attempted, failed


def matrix_form_check(points):
    """Largest |R_matrix - R_scalar| over traced points, and the failures."""
    worst, failed = 0.0, 0
    for eff, bf, config, gains in points:
        r_a, r_b, r_e = risdm.rates.rates_matrix_form(eff, bf, config)
        err = abs((r_a + r_b - r_e) - risdm.rates.rate_objective(config.beta1, config.beta2, gains))
        worst = max(worst, err)
        failed += not err <= MATRIX_FORM_TOL
    return worst, failed


def traced(load, small, seconds):
    plain_results, passes, plain_wall = load.drive(seconds=seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced_results, _, traced_wall = load.drive(passes=passes)
    finally:
        tracer.uninstall()
    worst, mf_failed = matrix_form_check(tracer.gain_points)

    mem = Tracer(memory=True)
    mem.install()
    try:
        small.drive(passes=1)
    finally:
        mem.uninstall()

    _, attempted, failed, first = load.judge(plain_results + traced_results)
    spans = tracer.span_metrics(passes, traced_wall)
    self_total = sum(v for k, v in spans.items() if k.endswith(".self_s")) * passes
    metrics = {
        **spans,
        **mem.peak_metrics(),
        **tracer.count_metrics(passes),
        "rates.matrix_form_max_abs_err": worst,
        "hicf_miss_frac": load.hicf_miss_frac(first),
        "trace_overhead_frac": traced_wall / plain_wall - 1.0,
        "trace.unaccounted_frac": 1.0 - self_total / traced_wall,
    }
    extra = {"passes": passes, "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
             "hicf_miss_frac": metrics["hicf_miss_frac"]}
    return metrics, extra, attempted + len(tracer.gain_points), failed + mf_failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs")
    parser.add_argument("workdir")
    parser.add_argument("reference")
    parser.add_argument("out")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    global risdm
    risdm = childenv.use_library("src")
    doc = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    reference = json.loads(Path(args.reference).read_text(encoding="utf-8"))
    workdir = Path(args.workdir)
    load = Workload(doc, risdm, reference, workdir)
    if args.trace:
        small = Workload(workloads.reduced(doc), risdm, reference, workdir, tag="reduced")
        metrics, extra, attempted, failed = traced(load, small, args.seconds)
    else:
        def seed_workload():
            lib = childenv.use_library("seedref", alias=childenv.SEEDLIB_ALIAS)
            return Workload(doc, lib, None, workdir, tag="seedlib")
        metrics, extra, attempted, failed = measure(load, seed_workload, args.seconds)
    result = {"metrics": metrics, "extra": extra, "attempted": attempted, "failed": failed,
              "provenance": provenance()}
    Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
