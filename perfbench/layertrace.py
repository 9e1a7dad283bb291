"""Outside-in per-layer tracing of ionspec2d.

The tracer wraps every public function of each layer module, installs the
wrapper under every module attribute that names the original (so a function
imported by name into another module, such as ``protocol.displacement``, is
traced where it is looked up), and wraps ``dynamics.Propagator.apply_batch``
per propagator kind.  Each call records a span ``[name, start, end, parent]``;
self time is a span's duration minus the durations of its direct children.
Everything is restored when the ``installed()`` block exits, even on error.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "crystal",
    "anharmonic",
    "fock",
    "dynamics",
    "protocol",
    "scenarios",
    "spectrum",
    "matio",
    "cli",
)
PACKAGE = "ionspec2d"


def layer_modules() -> dict:
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}


def public_functions(modules: dict) -> dict:
    """{original function: 'layer.name'} for functions each layer defines."""
    out = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
            ):
                out[obj] = f"{layer}.{name}"
    return out


def _after_build_propagator(tracer, args, result, span):
    span[0] = f"dynamics.build_propagator.{result.kind}"
    if result.kind == "super":
        tracer.counters["dynamics.superop_bytes"] = max(
            tracer.counters["dynamics.superop_bytes"], result.matrix.nbytes
        )


def _after_apply_batch(tracer, args, result, span):
    prop, states = args[0], args[1]
    span[0] = f"dynamics.apply_batch.{prop.kind}"
    tracer.counters[f"dynamics.apply_batch.{prop.kind}.states"] += states.shape[0]


def _after_find_peaks(tracer, args, result, span):
    tracer.counters["spectrum.peaks"] += len(result)


def _after_write(tracer, args, result, span):
    tracer.counters["matio.bytes_written"] += os.path.getsize(args[0])


def _after_kerr_scan_fast(tracer, args, result, span):
    dims = args[0].dims
    tracer.counters["scenarios.sectors"] += dims[1] * dims[2]


AFTER = {
    "dynamics.build_propagator": _after_build_propagator,
    "dynamics.apply_batch": _after_apply_batch,
    "spectrum.find_peaks": _after_find_peaks,
    "matio.write_csv": _after_write,
    "matio.write_matrix": _after_write,
    "scenarios.kerr_scan_fast": _after_kerr_scan_fast,
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, after = self.spans, self._stack, AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result, span)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup site of every layer function; restore on exit."""
        originals = public_functions(layer_modules())
        wrappers = {fn: self.wrap(name, fn) for fn, name in originals.items()}
        prop = importlib.import_module(f"{PACKAGE}.dynamics").Propagator
        patches = [
            (prop, "apply_batch", prop.apply_batch,
             self.wrap("dynamics.apply_batch", prop.apply_batch)),
        ]
        for mod in package_modules():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((mod, attr, obj, wrappers[obj]))
        try:
            for owner, attr, _, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old, _ in patches:
                setattr(owner, attr, old)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """{span name: {'calls', 's', 'self_s'}} over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - inner
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent])


def package_modules() -> list:
    """Every imported module of the package: the places a name is looked up."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, except the run-level
    ``trace.run_s`` and ``trace.overhead_s`` that run.py adds."""
    agg = tracer.aggregate()

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    for name in ("fock.displacement", "protocol.pulse_operator", "protocol.phase_cycle"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
    m["protocol.scan.calls"] = get("protocol.scan", "calls")
    m["protocol.scan.self_s"] = get("protocol.scan", "self_s")
    m["scenarios.kerr_scan_fast.s"] = get("scenarios.kerr_scan_fast", "s")
    m["scenarios.kerr_scan_fast.self_s"] = get("scenarios.kerr_scan_fast", "self_s")
    for kind in ("diagonal", "unitary", "super"):
        name = f"dynamics.build_propagator.{kind}"
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
    m["dynamics.liouvillian.s"] = get("dynamics.liouvillian", "s")
    for kind in ("diagonal", "unitary", "super"):
        name = f"dynamics.apply_batch.{kind}"
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
        m[f"{name}.states"] = tracer.counters[f"{name}.states"]
    for name in (
        "anharmonic.c3_tensor",
        "anharmonic.c4_tensor",
        "anharmonic.mode_tensors",
        "anharmonic.perturbative_third_order",
        "anharmonic.effective_kerr",
        "crystal.modes_for_trap",
        "spectrum.fft2",
        "spectrum.project_1d",
        "spectrum.find_peaks",
        "matio.write_csv",
        "matio.write_matrix",
    ):
        m[f"{name}.s"] = get(name, "s")
    m["cli.run_scenario.self_s"] = get("cli.run_scenario", "self_s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            v["self_s"] for name, v in agg.items() if name.split(".", 1)[0] == layer
        )
    for name in (
        "dynamics.superop_bytes",
        "spectrum.peaks",
        "matio.bytes_written",
        "scenarios.sectors",
    ):
        m[name] = tracer.counters[name]
    m["trace.spans"] = len(tracer.spans)
    return m
