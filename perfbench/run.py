"""The risdm benchmark: one command runs the workloads and prints every metric.

    python3 perfbench/run.py                          # every workload, seed 1
    python3 perfbench/run.py --workload pa-fuzz --seed 7 --seconds 10 --trace 0

Run from the root of a checkout; the library under test is the checkout's
``src/risdm``.  Metric names and units come from ``BENCHMARK.json``.  Per
workload run, each in fresh processes pinned to one BLAS/OpenMP thread:

1. the reference outputs for the seed, from the frozen seed-commit copy in
   ``perfbench/seedref`` (cached under ``.perfbench-out/cache``);
2. with ``--trace 0``, set-up probes and the timed loop.  Each alternates
   the program with the seed library on the same work, and every time
   figure is reported at nominal machine speed (see ``NOMINAL``);
3. with ``--trace 1``, the traced run, which reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results, with provenance, go to ``.perfbench-out/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PAIRS = 5
RUN_DEADLINE_S = 170.0

# The seed library's time figures on the machine where the benchmark was
# defined (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4 with OpenBLAS 0.3,
# one thread), rounded from medians over five seeds.  A time figure of the
# program is reported as measured x NOMINAL / the seed library's figure
# measured alongside it on the same work, so a change of machine speed
# cancels out and a change of program speed does not.
NOMINAL = {
    "setup_s": 0.5,
    "sweep-power": {"records_per_s": 330.0, "op_ms_p90": 1000.0},
    "sweep-elements": {"records_per_s": 6.1, "op_ms_p90": 920.0},
    "pa-fuzz": {"records_per_s": 700.0, "op_ms_p90": 1.7},
    "pa-surface": {"records_per_s": 20000.0, "op_ms_p90": 560.0},
}
CODE_FILES = (HERE / "reference.py", HERE / "check.py", HERE / "childenv.py",
              *sorted((HERE / "seedref" / "risdm").glob("*.py")))


class BenchError(RuntimeError):
    pass


def specs():
    """(workload whys, end-to-end (name, unit) pairs, per-layer pairs) from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read {path}: {err}") from err
    pairs = lambda key: [(m["name"], m["unit"]) for m in doc[key]]  # noqa: E731
    return {w["name"]: w["why"] for w in doc["workloads"]}, pairs("end_to_end"), pairs("per_layer")


def run_child(cmd, deadline, what):
    """Run one child process to completion; a failure or overrun is a BenchError."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError(f"{what}: no time left within the run deadline")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as err:  # subprocess.run has killed and reaped it
        raise BenchError(f"{what}: timed out") from err
    if proc.returncode != 0:
        raise BenchError(f"{what}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")


def reference_for(doc, deadline):
    """The cached reference outputs of these inputs, made on first use.

    The cache key covers the inputs and the code that makes the reference.
    """
    text = json.dumps(doc, sort_keys=True)
    digest = hashlib.sha256(text.encode())
    for path in CODE_FILES:
        digest.update(path.read_bytes())
    path = OUT / "cache" / f"ref-{doc['workload']}-{digest.hexdigest()[:16]}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        inputs = path.with_suffix(".inputs.json")
        inputs.write_text(text, encoding="utf-8")
        run_child([sys.executable, str(HERE / "reference.py"), str(inputs), str(path)],
                  deadline, "reference")
        inputs.unlink()
    return path


def setup_seconds(config_path, deadline):
    """Set-up times of the program (``src``) and of the seed library, probed in turn.

    The first pair warms the byte-code cache and is not counted.
    """
    samples = {"src": [], "seedref": []}
    for pair in range(SETUP_PAIRS + 1):
        for lib in (("src", "seedref") if pair % 2 == 0 else ("seedref", "src")):
            cmd = [sys.executable, str(HERE / "setup_probe.py"), lib]
            cmd += [str(config_path)] if config_path else []
            start = time.perf_counter()
            run_child(cmd, deadline, "setup probe")
            if pair:
                samples[lib].append(time.perf_counter() - start)
    return samples


def nominal(value, seedlib_value, nominal_value):
    """A time figure at nominal machine speed (see ``NOMINAL``)."""
    return value * nominal_value / seedlib_value


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_workload(name, why, metric_units, seed, seconds, trace, tiny):
    """Run one workload; returns its result document."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    doc = workloads.generate(name, seed, tiny=tiny)
    workdir = OUT / f"{name}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}"
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workdir / "inputs.json"
    inputs.write_text(json.dumps(doc), encoding="utf-8")
    ref = reference_for(doc, deadline)

    if not trace:
        config_path = None
        if "config" in doc:
            config_path = workdir / "setup-config.json"
            config_path.write_text(json.dumps(doc["config"]), encoding="utf-8")
        setup = setup_seconds(config_path, deadline)

    result_path = workdir / "worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(inputs), str(workdir), str(ref),
           str(result_path), "--seconds", str(seconds)]
    run_child(cmd + (["--trace"] if trace else []), deadline, f"workload {name}")
    worker = json.loads(result_path.read_text(encoding="utf-8"))

    values, extra = dict(worker["metrics"]), dict(worker["extra"])
    if not trace:
        seedlib = dict(extra["seedlib"], setup_s=statistics.median(setup["seedref"]))
        values["setup_s"] = statistics.median(setup["src"])
        extra.update(seedlib=seedlib, setup_samples_s=setup,
                     as_measured={m: values[m] for m in seedlib})
        for m, seed_value in seedlib.items():
            values[m] = nominal(values[m], seed_value,
                                NOMINAL[m] if m == "setup_s" else NOMINAL[name][m])
    missing = [m for m, _ in metric_units if m not in values]
    if missing:
        raise BenchError(f"workload {name}: worker reported no {missing}")
    attempted, failed = worker["attempted"], worker["failed"]
    return {
        "workload": name, "why": why, "seed": seed, "seconds": seconds,
        "trace": trace, "tiny": tiny, "commit": commit(),
        "provenance": worker["provenance"],
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "error_frac": failed / attempted if attempted else 1.0,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in metric_units},
        "extra": extra,
    }


def report(result):
    """Print one workload's metrics, one per line, and save its result document."""
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']}: {result['why']}")
    print(f"#   commit {result['commit']}; {json.dumps(result['provenance'], sort_keys=True)}")
    extra = result["extra"]
    for name, metric in result["metrics"].items():
        line = f"  {name:52s} {metric['value']:.6g} {metric['unit']}"
        if name in extra.get("seedlib", {}):
            line += (f"  (measured {extra['as_measured'][name]:.6g};"
                     f" seed library alongside {extra['seedlib'][name]:.6g})")
        print(line)
    print(f"  {'error_frac':52s} {result['error_frac']:.6g} frac "
          f"({result['failed']} of {result['attempted']} failed the reference check)")
    if "hicf_miss_frac" not in result["metrics"]:
        print(f"  {'hicf_miss_frac':52s} {extra['hicf_miss_frac']:.6g} frac")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description="risdm benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "risdm" / "__init__.py").is_file():
        print(f"error: no library to benchmark at {ROOT / 'src' / 'risdm'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        why, end_to_end, per_layer = specs()
        for name in names:
            result = run_workload(name, why[name], per_layer if args.trace else end_to_end,
                                  args.seed, args.seconds, args.trace, args.tiny)
            report(result)
            results.append(result)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
