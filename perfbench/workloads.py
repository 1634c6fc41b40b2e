"""Workload inputs, generated from the workload seed alone.

Every workload is a closed loop with one client.  The generator uses only
the standard library, so the inputs for a seed are the same whatever
numpy version or program commit is under test; the program receives
nothing but these inputs (a scenario JSON, CLI arguments, or gain draws).

``tiny`` shrinks each workload to a second-scale smoke size with the same
structure.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sweep-power", "sweep-elements", "pa-fuzz", "pa-surface")

PA_FUZZ_MODES = ("es1d", "es2d", "hicf")
# About 6% of draws send hicf through every Newton restart (~30 ms instead
# of ~1.5 ms).  How many of those a run meets no longer spreads the time
# figures, because the seed library runs the same draws alongside; 1000
# draws keep the reference (about 8 ms a draw, fine grid included) short.
PA_FUZZ_DRAWS = 1000
GAIN_LOG10_RANGE = (-3.0, 3.0)  # s_i in [1e-3, 1e3], unit noise powers

# A CLI call is the unit the program and the seed library take turns on,
# so calls are kept to about a second: the power sweep's 20 values go in
# four calls of five, and the large-M sweep makes one call per M.  No
# stage result could be shared between two values of M; a call of five
# powers still lets a staged sweep share inputs across PA modes and powers.
POWER_VALUES_PER_CALL = 5
SURFACE_STEP = 0.01

# Surface sizes of the large-M sweep: geometric from 250 to 4000.  Fixed
# across seeds because cost grows with M^2; the seed varies the sub-seeds.
ELEMENTS_M = tuple(int(round(250 * 16 ** (k / 11))) for k in range(12))


def scenario(rng):
    """The library's default scenario (M = 100), with only its seed drawn.

    Written out here rather than taken from the library, so that every
    commit under test receives the same scenario: Alice at the origin,
    surfaces at 30 m (pi/8, 7pi/8), Bob and Eve at 80 m (5pi/9, 4pi/9)
    with their arrays broadside to the Alice ray.
    """
    def polar(d, theta):
        return [d * math.cos(theta), d * math.sin(theta)]

    th_ab, th_ae = 5 * math.pi / 9, 4 * math.pi / 9
    return {
        "Na": 8, "Nb": 8, "Ne": 8, "M": 100,
        "d_over_lambda": 0.5,
        "Pa_dbm": 27.0, "Pb_dbm": 27.0,
        "beta1": 0.9, "beta2": 0.9,
        "sigma2_e_dbm": -70.0 - 10.0 * math.log10(2.0),
        "noise_ratio": 2.0,
        "pathloss_alpha": 1.0,
        "pathloss_exp": {"direct": 4.5, "ris": 2.0},
        "placement": {
            "positions": {
                "a": [0.0, 0.0],
                "i1": polar(30.0, math.pi / 8),
                "i2": polar(30.0, 7 * math.pi / 8),
                "b": polar(80.0, th_ab),
                "e": polar(80.0, th_ae),
            },
            "orientations": {
                "a": 0.0, "i1": 0.0, "i2": 0.0,
                "b": th_ab - 1.5 * math.pi,
                "e": th_ae - 1.5 * math.pi,
            },
            "pinned": {},
        },
        "seed": rng.randrange(1, 2**31),
    }


def _distinct_sorted(rng, count, lo, hi, digits):
    values = set()
    while len(values) < count:
        values.add(round(rng.uniform(lo, hi), digits))
    return sorted(values)


def generate(workload, seed, tiny=False):
    """The inputs of one workload for one seed, as a JSON-ready dict.

    ``calls`` lists the CLI calls of one pass over a CLI workload.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}' (choose from {WORKLOADS})")
    rng = random.Random(f"{workload}:{seed}")
    doc = {"workload": workload, "seed": seed, "tiny": tiny}
    if workload == "sweep-power":
        values = _distinct_sorted(rng, 3 if tiny else 20, 0.0, 40.0, 2)
        sweep = {
            "command": "sweep", "axis": "power_dbm",
            "methods": ["max-sv", "leakage"],
            "ris": ["gpg", "random", "none"],
            "pa": ["fixed", "epa", "es1d", "es2d", "hicf"],
            "trials": 1 if tiny else 2,
            "seed": rng.randrange(2**31),
        }
        doc.update(kind="cli", config=scenario(rng), calls=[
            dict(sweep, values=values[i:i + POWER_VALUES_PER_CALL])
            for i in range(0, len(values), POWER_VALUES_PER_CALL)
        ])
    elif workload == "sweep-elements":
        sweep = {
            "command": "sweep", "axis": "elements_m",
            "methods": ["max-sv", "leakage"],
            "ris": ["gpg"],
            "pa": ["fixed"],
            "trials": 1,
            "seed": rng.randrange(2**31),
        }
        doc.update(kind="cli", config=scenario(rng), calls=[
            dict(sweep, values=[m]) for m in ([16, 32, 64] if tiny else ELEMENTS_M)
        ])
    elif workload == "pa-surface":
        doc.update(kind="cli", config=scenario(rng), calls=[{
            "command": "pa-surface", "step": 0.1 if tiny else SURFACE_STEP,
            "method": "max-sv", "ris": "gpg",
        }])
    else:
        lo, hi = GAIN_LOG10_RANGE
        doc.update(kind="pa", modes=list(PA_FUZZ_MODES), draws=[
            {"s": [10.0 ** rng.uniform(lo, hi) for _ in range(8)],
             "seed": rng.randrange(2**31)}
            for _ in range(15 if tiny else PA_FUZZ_DRAWS)
        ])
    return doc


def reduced(doc):
    """A small replay of the same workload, for the tracemalloc pass.

    Peak allocation is a per-call property, so a slice of the inputs
    suffices; the large-M sweep keeps every M because its peaks grow
    with M.
    """
    small = dict(doc)
    if doc["workload"] == "sweep-power":
        small["calls"] = [dict(doc["calls"][0], values=doc["calls"][0]["values"][:2])]
    elif doc["workload"] == "pa-surface":
        small["calls"] = [dict(c, step=max(c["step"], 0.02)) for c in doc["calls"]]
    elif doc["kind"] == "pa":
        small["draws"] = doc["draws"][:100]
    return small


def cli_argv(call, config_path, out_path):
    """The ``risdm`` command line of one call of a CLI workload."""
    if call["command"] == "sweep":
        return [
            "sweep", "--config", config_path, "--axis", call["axis"],
            "--values", ",".join(repr(v) for v in call["values"]),
            "--methods", ",".join(call["methods"]), "--ris", ",".join(call["ris"]),
            "--pa", ",".join(call["pa"]), "--trials", str(call["trials"]),
            "--seed", str(call["seed"]), "--out", out_path,
        ]
    return [
        "pa-surface", "--config", config_path, "--step", repr(call["step"]),
        "--method", call["method"], "--ris", call["ris"], "--out", out_path,
    ]
