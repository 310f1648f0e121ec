"""Span tracer for the benchmark's traced run.

While installed, the tracer rebinds module attributes of wxtopo (and scipy's
``splu``) to timing wrappers. Each span records its name, start, end, the span
that caused it and the run phase ("setup" or "timed"). Every thread keeps its
own parent stack; pool items push the map span that spawned them, so work done
in worker threads attaches to its map. Spans stay in memory and are reduced to
per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    phase: str
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        s = Span(sid, stack[-1] if stack else None, name, self.phase, time.perf_counter())
        stack.append(sid)
        try:
            yield s
        except Exception as exc:
            s.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(s)

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` timed as span ``name``; ``attrs(args, kwargs, result)`` annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    s.attrs = attrs(args, kwargs, out)
                return out

        return traced

    def wrap_map(self, parallel_map):
        """A ``parallel_map`` whose items run as children of one ``pool.map`` span."""

        @functools.wraps(parallel_map)
        def traced_map(fn, items, workers: int = 1):
            items = list(items)
            with self.span("pool.map") as map_span:
                map_span.attrs = {"workers": workers, "items": len(items)}

                def item(x):
                    stack = self._stack()
                    saved = stack[:]
                    stack[:] = [map_span.id]
                    try:
                        with self.span("pool.item"):
                            return fn(x)
                    finally:
                        stack[:] = saved

                return parallel_map(item, items, workers)

        return traced_map

    def install(self):
        """Rebind every traced attribute; ``uninstall`` puts the originals back."""
        for target, attr, make in _patches(self):
            owner = _resolve(target)
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _barycenter_attrs(args, kwargs, out):
    report = out[1]
    grid = args[0][0].grid
    return {
        "iterations": report.iterations,
        "residual": float(report.final_residual),
        "converged": bool(report.converged),
        "nx": grid.nx,
        "ny": grid.ny,
        "inputs": len(args[0]),
    }


def _splu_attrs(args, kwargs, out):
    # SuperLU's own count of the stored L and U entries; its supernodal storage
    # holds a few more than nnz(L) + nnz(U). Building .L and .U to count
    # exactly would copy the whole factor.
    return {"nnz": int(out.nnz), "ndof": int(out.shape[0])}


def _eval_attrs(args, kwargs, out):
    return {"feasible": bool(out.feasible)}


def _lf_attrs(args, kwargs, out):
    return {"non_improving": bool(out.non_improving)}


def _patches(tracer: Tracer):
    def named(name, attrs=None):
        return lambda fn: tracer.wrap(name, fn, attrs)

    return [
        ("wxtopo.crossover", "sinkhorn_barycenter", named("ot.barycenter", _barycenter_attrs)),
        ("wxtopo.crossover", "wasserstein_crossover", named("xo.child")),
        ("wxtopo.crossover", "linear_crossover", named("xo.linear")),
        ("wxtopo.crossover", "pairwise_distances", named("xo.pairwise")),
        ("wxtopo.evolve", "generate_offspring", named("xo.generate")),
        ("wxtopo.evolve", "non_dominated_sort", named("sel.sort")),
        ("wxtopo.evolve", "hypervolume_2d", named("sel.hv")),
        ("wxtopo.evolve", "crowding_truncate", named("sel.truncate")),
        ("wxtopo.evolve:_RunWriter", "record_evals", named("io.write")),
        ("wxtopo.evolve:_RunWriter", "checkpoint", named("io.write")),
        ("wxtopo.evolve:_RunWriter", "finalize", named("io.write")),
        ("wxtopo.evolve", "parallel_map", tracer.wrap_map),
        ("wxtopo.topopt_lf", "parallel_map", tracer.wrap_map),
        ("wxtopo.topopt_lf", "lf_optimize", named("lf.run", _lf_attrs)),
        ("wxtopo.topopt_lf", "pnorm_objective_grad", named("lf.grad")),
        ("wxtopo.topopt_lf", "mma_update", named("lf.mma")),
        ("wxtopo.topopt_lf", "density_filter", named("lf.filter")),
        ("wxtopo.hf_eval", "hf_evaluate", named("hf.eval", _eval_attrs)),
        ("wxtopo.hf_eval", "pde_smooth", named("hf.smooth")),
        ("wxtopo.hf_eval", "binarize", named("hf.binarize")),
        ("wxtopo.hf_eval", "solve_displacement", named("hf.solve")),
        ("wxtopo.hf_eval", "von_mises", named("hf.stress")),
        ("wxtopo.hf_eval", "max_stress", named("hf.stress")),
        ("scipy.sparse.linalg", "splu", named("fem.factor", _splu_attrs)),
    ]


# -- reduction to per-layer metrics ------------------------------------------

TAIL_PER_MILLE = (999, 990, 900)


def tail_level(n: int) -> float:
    """Highest percentile with at least ten samples beyond it; 100 (the maximum) if none."""
    for per_mille in TAIL_PER_MILLE:
        if n * (1000 - per_mille) >= 10 * 1000:
            return per_mille / 10.0
    return 100.0


def _percentile(values: list[float], level: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * level / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def distribution(values: list[float]) -> tuple[float, float, int]:
    """(p50, tail, n) with the tail taken at ``tail_level(n)``."""
    n = len(values)
    return _percentile(values, 50.0), _percentile(values, tail_level(n)), n


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = s.seconds - covered
    return out
