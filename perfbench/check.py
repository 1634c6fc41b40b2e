"""Correctness gate: compare program outputs with the frozen-seed reference.

Records are keyed by every CSV column that is an input of the point
(axis value, method, reflection mode, PA mode, trial, sub-seed, and the
grid coordinates of a surface point).  A record passes when

* its key exists in the reference, and
* for every mode but hicf, its SSR matches the reference to
  ``SSR_ABS_TOL + SSR_REL_TOL * |ref|`` bits/s/Hz;
* for hicf, its SSR is never more than ``HICF_FLOOR_TOL`` bits below the
  reference, so a better optimizer still passes.

A reference key with no output record counts as one failed record.
"""

from __future__ import annotations

SSR_ABS_TOL = 1e-9
SSR_REL_TOL = 1e-9
HICF_FLOOR_TOL = 1e-9
HICF_MISS_TOL = 1e-9  # hicf below the 1e-5 diagonal grid by more than this is a miss


def csv_records(text):
    """Parse sweep/surface CSV text into {key: (pa_mode, ssr)}."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("axis,"):
        raise ValueError("output is not a risdm CSV document")
    columns = lines[0].split(",")
    records = {}
    for line in lines[1:]:
        row = dict(zip(columns, line.split(",")))
        key = (row["axis"], row["method"], row["ris_mode"], row["pa_mode"],
               row["trial"], row["seed"])
        if row["pa_mode"] == "surface":
            key += (row["beta1"], row["beta2"])
        records["|".join(key)] = (row["pa_mode"], float(row["ssr_bits"]))
    return records


def ssr_ok(mode, got, ref):
    if mode == "hicf":
        return got >= ref - HICF_FLOOR_TOL
    return abs(got - ref) <= SSR_ABS_TOL + SSR_REL_TOL * abs(ref)


def compare(records, reference):
    """(attempted, failed) of output records {key: (mode, ssr)} against {key: ssr}."""
    extra = sum(1 for key in records if key not in reference)
    failed = extra
    for key, ref in reference.items():
        if key not in records:
            failed += 1
            continue
        mode, got = records[key]
        failed += not ssr_ok(mode, got, ref)
    return len(reference) + extra, failed
