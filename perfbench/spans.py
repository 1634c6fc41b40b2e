"""Spans around the library's public layer functions, recorded from outside.

``Tracer.install`` replaces each traced function in every loaded ``risdm``
module namespace that holds it (so calls through ``from .x import f``
names are caught too) with a wrapper that opens a span; ``uninstall``
puts the originals back.  A span's self time is its duration minus the
durations of the spans it encloses.  With ``memory=True`` the tracer
instead records each span's peak tracemalloc allocation above the
traced memory at its start; spans are then not timed.

Functions a future library no longer has are skipped and report zero
calls.  The library runs single-threaded here, so one span stack suffices.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

# (module, function, index and keyword of the argument that names the variant)
TRACED = (
    ("geometry", "build_geometry", None),
    ("channels", "build_channels", None),
    ("channels", "effective_channels", None),
    ("ris", "reflections_for", None),
    ("beamforming", "design_beamformers", (3, "method")),
    ("rates", "scalar_gains", None),
    ("rates", "rate_objective", None),
    ("power_allocation", "allocate", (1, "method")),
    ("sim", "run_sweep", None),
    ("sim", "pa_surface", None),
    ("sim", "emit_csv", None),
    ("cli", "main", None),
)
VARIANTS = {
    "beamforming.design_beamformers": ("max-sv", "leakage"),
    "power_allocation.allocate": ("epa", "es1d", "es2d", "hicf"),
}


def _span_names():
    names = []
    for module, func, _ in TRACED:
        base = f"{module}.{func}"
        names += [f"{base}.{v}" for v in VARIANTS[base]] if base in VARIANTS else [base]
    return tuple(names)


SPAN_NAMES = _span_names()


def _quantile_ms(durations, q):
    """Nearest-rank quantile of span durations, in ms (0 for a span never entered)."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e3


class _Frame:
    __slots__ = ("name", "start", "child", "mem_base", "mem_peak")

    def __init__(self, name):
        self.name, self.start, self.child = name, 0.0, 0.0
        self.mem_base = self.mem_peak = 0


class Tracer:
    """In-memory span recorder plus the diagnostic counts the library returns."""

    def __init__(self, memory=False):
        self.memory = memory
        self.durations = {name: [] for name in SPAN_NAMES}
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.peak_bytes = dict.fromkeys(SPAN_NAMES, 0)
        self.hicf_attempts = 0
        self.hicf_accepted = 0
        self.hicf_fallbacks = 0
        self.flagged_elements = 0
        self.gain_points = []  # (eff, bf, config, gains) for the matrix-form check
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------
    def _enter(self, name):
        frame = _Frame(name)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.mem_peak = max(parent.mem_peak, peak)
            tracemalloc.reset_peak()
            frame.mem_base = frame.mem_peak = current
        self._stack.append(frame)
        frame.start = time.perf_counter()

    def _exit(self):
        end = time.perf_counter()
        frame = self._stack.pop()
        duration = end - frame.start
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            frame.mem_peak = max(frame.mem_peak, peak)
            self.peak_bytes[frame.name] = max(
                self.peak_bytes[frame.name], frame.mem_peak - frame.mem_base
            )
            if self._stack:
                self._stack[-1].mem_peak = max(self._stack[-1].mem_peak, frame.mem_peak)
            tracemalloc.reset_peak()
        else:
            self.durations[frame.name].append(duration)
            self.self_s[frame.name] += duration - frame.child
        if self._stack:
            self._stack[-1].child += duration

    # -- counts the library already returns ----------------------------------
    def _observe(self, base, name, args, result):
        if self.memory:
            return
        if name == "power_allocation.allocate.hicf":
            diag = getattr(result, "diagnostics", None) or {}
            stages = diag.get("newton_attempts", {})
            fallbacks = diag.get("fallbacks", [])
            self.hicf_attempts += sum(stages.values())
            self.hicf_fallbacks += len(fallbacks)
            self.hicf_accepted += len(stages) - sum(
                1 for f in fallbacks if str(f).startswith("oracle-fallback:newton")
            )
        elif base == "ris.reflections_for":
            for refl in result:
                flagged = getattr(refl, "flagged", None)
                if flagged is not None:
                    self.flagged_elements += int(flagged.sum())
        elif base == "rates.scalar_gains":
            self.gain_points.append((args[0], args[1], args[2], result))

    def _wrap(self, base, func, variant):
        tracer = self

        def traced(*args, **kwargs):
            name = base
            if variant is not None:
                index, keyword = variant
                value = str(args[index] if len(args) > index else kwargs.get(keyword))
                if base == "power_allocation.allocate":
                    value = value.replace("-", "")  # es-1d and es1d are one mode
                name = f"{base}.{value}"
                if name not in tracer.self_s:  # a variant with no span: run untraced
                    return func(*args, **kwargs)
            tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit()
            tracer._observe(base, name, args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "risdm" or n.startswith("risdm."))]
        for module, func_name, variant in TRACED:
            owner = sys.modules.get(f"risdm.{module}")
            func = getattr(owner, func_name, None) if owner else None
            if func is None:
                continue
            wrapper = self._wrap(f"{module}.{func_name}", func, variant)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        self._patches.append((mod, attr, func))
                        setattr(mod, attr, wrapper)
        if self.memory:
            tracemalloc.start()

    def uninstall(self):
        if self.memory:
            tracemalloc.stop()
        for mod, attr, func in reversed(self._patches):
            setattr(mod, attr, func)
        self._patches.clear()

    # -- report ------------------------------------------------------------
    def span_metrics(self, passes, wall):
        """Per-span calls and self time (per pass over the inputs), p50, p99 and share."""
        out = {}
        for name in SPAN_NAMES:
            durations = self.durations[name]
            out[f"{name}.calls"] = len(durations) / passes
            out[f"{name}.self_s"] = self.self_s[name] / passes
            out[f"{name}.p50_ms"] = _quantile_ms(durations, 0.50)
            out[f"{name}.p99_ms"] = _quantile_ms(durations, 0.99)
            out[f"{name}.share"] = self.self_s[name] / wall if wall > 0 else 0.0
        return out

    def count_metrics(self, passes):
        return {
            "power_allocation.hicf.newton_attempts": self.hicf_attempts / passes,
            "power_allocation.hicf.fallbacks": self.hicf_fallbacks / passes,
            "power_allocation.hicf.newton_yield":
                self.hicf_accepted / self.hicf_attempts if self.hicf_attempts else 0.0,
            "ris.flagged_elements": self.flagged_elements / passes,
        }

    def peak_metrics(self):
        return {f"{name}.peak_alloc_mb": self.peak_bytes[name] / 2**20 for name in SPAN_NAMES}
