"""Strict span tracer for the benchmark's traced runs.

Layer functions are wrapped at the names their callers bind (for
example ``nclab.pipeline.assemble_toroidal`` is the name
``build_spectrum`` calls), so the traced program is the unmodified
package.  Each span records its name, start, end, parent span and run
id; spans stay in memory and the child writes them out when it ends.

The tracer is strict: a wrapped name that no longer exists, or that is
expected on a workload and never called there, is reported as missing
instead of reading as 0 s, so a refactor that moves a layer cannot
silently zero its metric.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import asdict, dataclass, field

CONNES = frozenset({"diagonal", "banded"})
ALL_KINDS = frozenset({"diagonal", "banded", "identity"})

ROOT_LAYER = "cli.other"

# (module, attribute, layer, workload kinds on which the call is expected)
WRAPS = (
    ("nclab.cli", "load_config", "config.load", ALL_KINDS),
    ("nclab.cli", "build_symbol", "config.load", ALL_KINDS),
    ("nclab.pipeline", "depends_on_second", "pipeline.detect", CONNES),
    ("nclab.pipeline", "build_spectrum", "pipeline.solve", CONNES),
    ("nclab.pipeline", "assemble_toroidal", "quantize.assemble", frozenset({"banded"})),
    ("nclab.quantize", "assemble_toroidal", "quantize.assemble", frozenset({"identity"})),
    ("nclab.quantize", "assemble_discrete", "quantize.assemble_discrete", frozenset({"identity"})),
    ("nclab.cli", "assemble_discrete", "quantize.assemble_discrete", frozenset({"identity"})),
    ("nclab.pipeline", "trace_estimate", "spectral.fit", CONNES),
    ("nclab.cli", "write_spectrum_csv", "spectral.csv", CONNES),
    ("nclab.pipeline", "dixmier_trace_formula", "residue.formula", CONNES),
    ("nclab.cli", "verify_identity", "quantize.identity", frozenset({"identity"})),
    ("nclab.cli", "write_matrix_csv", "quantize.export_csv", frozenset({"identity"})),
    ("nclab.cli", "write_matrix_binary", "quantize.export_bin", frozenset({"identity"})),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _solve_counts(args, kwargs, run):
    return {"pipeline.solve_rows": len(run.sequence), "pipeline.assembled": int(not run.diagonal_path)}


def _assemble_counts(args, kwargs, matrix):
    grid = _arg(args, kwargs, 2, "grid")
    S, n = matrix.box.size, matrix.box.n
    return {
        "quantize.grid_q": grid.q,
        "quantize.fft_points": S * grid.q**n,
        "quantize.matrix_bytes": 16 * S * S,
    }


def _fit_counts(args, kwargs, summary):
    n0, n1 = summary.fit_window
    return {"spectral.fit_points": n1 - n0 + 1}


def _csv_counts(args, kwargs, _):
    path = _arg(args, kwargs, 0, "path")
    return {"spectral.csv_rows": len(_arg(args, kwargs, 1, "s")), "spectral.csv_bytes": os.path.getsize(path)}


def _residue_counts(args, kwargs, _):
    n = _arg(args, kwargs, 1, "n")
    return {"residue.calls": 1, "residue.evals": kwargs["rule"].order * kwargs["torus_q"] ** n}


def _export_counts(args, kwargs, _):
    return {"quantize.export_bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


COUNTERS = {
    "pipeline.detect": lambda args, kwargs, _: {"pipeline.detect_calls": 1},
    "pipeline.solve": _solve_counts,
    "quantize.assemble": _assemble_counts,
    "spectral.fit": _fit_counts,
    "spectral.csv": _csv_counts,
    "residue.formula": _residue_counts,
    "quantize.export_csv": _export_counts,
    "quantize.export_bin": _export_counts,
}

# counters derived from array sizes and arguments, not observed work
COMPUTED = ("quantize.grid_q", "quantize.fft_points", "quantize.matrix_bytes", "residue.evals")

# every per-layer metric: name -> (unit, layer it belongs to)
METRICS = {
    "config.load_s": ("s", "config.load"),
    "pipeline.detect_s": ("s", "pipeline.detect"),
    "pipeline.detect_calls": ("count", "pipeline.detect"),
    "pipeline.solve_s": ("s", "pipeline.solve"),
    "pipeline.solve_rows": ("count", "pipeline.solve"),
    "pipeline.assembled": ("count", "pipeline.solve"),
    "quantize.assemble_s": ("s", "quantize.assemble"),
    "quantize.grid_q": ("count", "quantize.assemble"),
    "quantize.fft_points": ("count", "quantize.assemble"),
    "quantize.matrix_bytes": ("B", "quantize.assemble"),
    "spectral.fit_s": ("s", "spectral.fit"),
    "spectral.fit_points": ("count", "spectral.fit"),
    "spectral.csv_s": ("s", "spectral.csv"),
    "spectral.csv_rows": ("count", "spectral.csv"),
    "spectral.csv_bytes": ("B", "spectral.csv"),
    "residue.formula_s": ("s", "residue.formula"),
    "residue.calls": ("count", "residue.formula"),
    "residue.evals": ("count", "residue.formula"),
    "quantize.identity_s": ("s", "quantize.identity"),
    "quantize.assemble_discrete_s": ("s", "quantize.assemble_discrete"),
    "quantize.export_csv_s": ("s", "quantize.export_csv"),
    "quantize.export_bin_s": ("s", "quantize.export_bin"),
    "quantize.export_bytes": ("B", "quantize.export_csv"),
    "cli.other_s": ("s", ROOT_LAYER),
    "trace.wall_s": ("s", ROOT_LAYER),
    "trace.overhead_s": ("s", ROOT_LAYER),
}


def applicable(kind: str) -> set[str]:
    """Layers that the workload kind is expected to call."""
    return {layer for _, _, layer, kinds in WRAPS if kind in kinds} | {ROOT_LAYER}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for a root span
    run_id: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; `wrap` installs it on the WRAPS names."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = os.getpid()  # one child process runs one sample
        self._stack: list[int] = []
        self.missing: list[str] = []
        self.calls: dict[str, int] = {}

    def span(self, name, func, /, *args, counter=None, **kwargs):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            result = func(*args, **kwargs)
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            record.counts = counter(args, kwargs, result)
        return result

    def wrap(self):
        """Replace every WRAPS name by a tracing wrapper; names that no
        longer exist are recorded as missing."""
        for module_name, attr, layer, _ in WRAPS:
            target = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
                func = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{target} (name not found)")
                continue
            self.calls[target] = 0
            setattr(module, attr, self._wrapper(target, layer, func))

    def _wrapper(self, target, layer, func):
        counter = COUNTERS.get(layer)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            self.calls[target] += 1
            return self.span(layer, func, *args, counter=counter, **kwargs)

        return traced

    def check_expected(self, kind: str) -> None:
        """Record each name expected on `kind` that was never called."""
        for module_name, attr, _, kinds in WRAPS:
            target = f"{module_name}.{attr}"
            if kind in kinds and self.calls.get(target) == 0:
                self.missing.append(f"{target} (never called)")

    def layer_totals(self) -> dict[str, float]:
        """Self time per layer and summed counters of the run; self time
        is a span's duration minus its children's durations."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        totals: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            key = f"{s.name}_s"
            totals[key] = totals.get(key, 0.0) + (s.end - s.start) - child_time.get(i, 0.0)
            for name, value in s.counts.items():
                if name == "quantize.grid_q":
                    totals[name] = value
                else:
                    totals[name] = totals.get(name, 0) + value
        totals["trace.wall_s"] = sum(s.end - s.start for s in self.spans if s.parent is None)
        return totals

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
