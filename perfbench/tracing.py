"""In-memory span tracing of flockkit's module entry points, installed from outside.

The tracer replaces each entry-point function of a flockkit module by a
wrapper that records one span per call: name, start, end, the enclosing
span and a work count (pairs, points).  The replacement is made in every
flockkit namespace that holds the function, so names a module imported
from another (``dynamics.alignment_sums``, ``kinetic.displacement_table``)
are traced too.  Nothing under ``src/`` is edited; :meth:`Tracer.uninstall`
restores the original functions.

A span's self time is its duration minus the time its direct child spans
cover.  Calls are strictly nested (one thread), so the children of a span
never overlap and their summed durations are exactly the covered time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from pathlib import Path

import numpy as np

# layer name -> module; the layers are the package's modules
LAYERS = {
    "kernels": "flockkit._kernels",
    "geometry": "flockkit.geometry",
    "dynamics": "flockkit.dynamics",
    "graph": "flockkit.graph",
    "spectral": "flockkit.spectral",
    "kinetic": "flockkit.kinetic",
    "density": "flockkit.density",
    "cli": "flockkit.cli",
}

# public helpers called only from inside their own module: their time stays
# in the self time of the entry point that calls them
INTERNAL = {"spectral.jacobi_eigenvalues", "spectral.operator_norm"}

# entry points that other modules call although they are not in ``__all__``
EXTRA = {
    "geometry": ("potential_inf_lower",),
    "dynamics": ("interaction_range",),
    "cli": ("_write_trajectory_jsonl",),
}

# the interaction families' ``values`` methods, traced as one span name
VALUES_CLASSES = ("CompactBump", "LogGradBounded", "GaussianPeriodized")
VALUES_SPAN = "geometry.values"

# pairs per call at or above which an alignment-sum call is in the large band
LARGE_PAIRS = 1_000_000

ALIGNMENT = "kernels.alignment_sums"


def _rows(a) -> int:
    return int(np.shape(a)[0])


def _pairs(args, kwargs) -> int:
    x = args[2] if len(args) > 2 else kwargs["x"]
    y = args[4] if len(args) > 4 else kwargs["y"]
    return _rows(x) * _rows(y)


def _knn_points(args, kwargs) -> int:
    return _rows(args[0] if args else kwargs["points"])


def _transport_points(default_cap: int):
    def work(args, kwargs) -> int:
        a = args[0] if args else kwargs["a"]
        b = args[1] if len(args) > 1 else kwargs["b"]
        cap = args[2] if len(args) > 2 else kwargs.get("max_points", default_cap)
        return min(a.n, b.n, cap)
    return work


def entry_points() -> list[tuple[str, object, str]]:
    """``(span name, owner, attribute)`` for every traced function.

    The owner is a module, or a class for the ``values`` methods.  An entry
    point is a function defined in its module and listed in ``__all__``
    (every public function for ``cli``, which has no ``__all__``), minus
    :data:`INTERNAL`, plus :data:`EXTRA`.
    """
    out = []
    for layer, modname in LAYERS.items():
        mod = importlib.import_module(modname)
        names = getattr(mod, "__all__", None)
        if names is None:
            names = [n for n in vars(mod) if not n.startswith("_")]
        for name in list(names) + list(EXTRA.get(layer, ())):
            obj = getattr(mod, name)
            span = f"{layer}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == modname
                    and span not in INTERNAL):
                out.append((span, mod, name))
    geometry = importlib.import_module(LAYERS["geometry"])
    for cls in VALUES_CLASSES:
        out.append((VALUES_SPAN, getattr(geometry, cls), "values"))
    return out


class Tracer:
    """Records spans of traced calls while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.work: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.names.clear()
        self.parents.clear()
        self.starts.clear()
        self.ends.clear()
        self.work.clear()
        self._stack.clear()

    def _wrap(self, span: str, fn, work=None):
        names, parents, starts, ends, counts = (self.names, self.parents, self.starts,
                                                self.ends, self.work)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            counts.append(work(args, kwargs) if work is not None else 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for span, owner, attr in entry_points():
            fn = vars(owner)[attr]
            work = None
            if span == ALIGNMENT:
                work = _pairs
            elif span == "density.knn_entropy":
                work = _knn_points
            elif span == "kinetic.transport_distance":
                cap = inspect.signature(fn).parameters["max_points"].default
                work = _transport_points(cap)
            wrapper = self._wrap(span, fn, work)
            wrappers[id(fn)] = (fn, wrapper)
            if inspect.isclass(owner):
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        # every flockkit namespace that holds an entry point gets the wrapper
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "flockkit" or modname.startswith("flockkit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self, wall_s: float) -> dict:
        """Aggregate the recorded spans of one iteration."""
        return summarize(self.names, self.parents, self.starts, self.ends, self.work,
                         wall_s)

    def write(self, path: Path, t0: float) -> None:
        """Write the recorded spans as gzipped CSV, times relative to ``t0``."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_s,end_s,work\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parents[i]},{name},{self.starts[i] - t0!r},"
                         f"{self.ends[i] - t0!r},{self.work[i]}\n")


def summarize(names, parents, starts, ends, work, wall_s: float) -> dict:
    """Per-span-name calls, work, inclusive and self time, plus derived counts.

    Returns ``{"spans": {name: {...}}, "layers": {layer: self_s}, ...}``;
    ``align_parents`` counts alignment-sum calls by the span that made them
    and ``small_us`` holds the inclusive duration in microseconds of every
    small-band alignment-sum call.
    """
    n = len(names)
    parent = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends) - np.asarray(starts)
    pairs = np.asarray(work, dtype=np.int64)
    child = np.zeros(n)
    has_parent = parent >= 0
    if n:
        np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    spans: dict[str, dict] = {}
    layers: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    align_parents: dict[str, int] = {}
    small_us: list[float] = []
    band = {"small": [0, 0, 0.0, 0.0], "large": [0, 0, 0.0, 0.0]}  # calls, pairs, self, incl
    for i, name in enumerate(names):
        rec = spans.setdefault(name, {"calls": 0, "work": 0, "self_s": 0.0, "incl_s": 0.0})
        rec["calls"] += 1
        rec["work"] += int(pairs[i])
        rec["self_s"] += float(self_time[i])
        rec["incl_s"] += float(dur[i])
        layers[name.split(".", 1)[0]] += float(self_time[i])
        if name == ALIGNMENT:
            key = "large" if pairs[i] >= LARGE_PAIRS else "small"
            b = band[key]
            b[0] += 1
            b[1] += int(pairs[i])
            b[2] += float(self_time[i])
            b[3] += float(dur[i])
            if key == "small":
                small_us.append(float(dur[i]) * 1e6)
            caller = names[parent[i]] if parent[i] >= 0 else ""
            align_parents[caller] = align_parents.get(caller, 0) + 1
    top = float(dur[~has_parent].sum()) if n else 0.0
    return {"spans": spans, "layers": layers, "band": band, "align_parents": align_parents,
            "small_us": small_us, "top_coverage": top / wall_s if wall_s > 0 else 0.0}
