"""The wxtopo benchmark: named workloads, output checks, end-to-end and per-layer metrics.

    python3 bench/run.py --workload seed-desk --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --self-check

Run from the root of a source checkout; the package is imported from
``src/``. The workload's inputs come from ``--seed``. Set-up runs several times
and reports its median; the timed unit then repeats until ``--seconds`` have
passed (at least once) and reports its median. With ``--trace 0`` the last
stdout line carries the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
a separate, traced run reports the per-layer ones. The exit code is 0 only when
every output check passed. ``--self-check`` runs every workload on a tiny grid,
traced and untraced, and validates the results against BENCHMARK.json.

BLAS is pinned to one thread and the pool uses at most two workers, so the
numbers measure the program and not the scheduler. Scratch files (run
directories, recorded digests and traces) go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
SETUP_MIN_S = 0.5
SETUP_LONG_S = 5.0
MAX_WORKERS = 2


def _import_package():
    """Workload modules, or None when the checkout holds no wxtopo sources."""
    package = ROOT / "src" / "wxtopo"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(package.parent))
    try:
        import layers
        import tracing
        import workloads
        import wxtopo
    except ImportError as exc:
        print(f"cannot import wxtopo from {package.parent}: {exc}", file=sys.stderr)
        return None
    if Path(wxtopo.__file__).resolve().parent != package:
        print(f"wxtopo was imported from {wxtopo.__file__}, not {package}", file=sys.stderr)
        return None
    return layers, tracing, workloads


def source_digest() -> str:
    """Digest of the package and benchmark sources, which together fix a run's outputs."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wxtopo").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class _FallbackCounter:
    """Counts linear-crossover fallbacks; the Wasserstein operator calls it only then."""

    def __init__(self):
        import wxtopo.crossover as xo

        self.count = 0
        self._module = xo
        self._original = xo.linear_crossover

        def counted(*args, **kwargs):
            self.count += 1
            return self._original(*args, **kwargs)

        xo.linear_crossover = counted

    def close(self):
        self._module.linear_crossover = self._original


def run(w, seed: int, seconds: float, trace: bool, mods) -> dict:
    layers, tracing, workloads = mods
    workers = min(MAX_WORKERS, os.cpu_count() or 1)
    key = f"{w.name}{'-tiny' if w.tiny else ''}-{source_digest()}"
    work = OUT / f"work-{os.getpid()}"
    tracer = tracing.Tracer() if trace else None
    fallbacks = _FallbackCounter()
    errors: list[str] = []
    try:
        if tracer:
            tracer.install()
        setup_times = []
        while True:
            t0 = time.perf_counter()
            inputs = workloads.setup(w, seed, workers)
            setup_times.append(time.perf_counter() - t0)
            # cheap set-ups repeat until their median is steady; long ones run twice
            reps, total = len(setup_times), sum(setup_times)
            if (trace or (reps >= SETUP_REPS and total >= SETUP_MIN_S)
                    or (reps >= 2 and total >= SETUP_LONG_S)):
                break
        errors += workloads.check_setup(w, inputs)

        untraced_wall = None
        if tracer:
            tracer.uninstall()
            untraced_wall = _recorded_wall(key, seed)
            if untraced_wall is None:
                t0 = time.perf_counter()
                workloads.run_unit(w, inputs, workers, work / "untraced")
                untraced_wall = time.perf_counter() - t0
            tracer.phase = "timed"
            tracer.install()

        walls, units, digests = [], [], set()
        fallbacks.count = 0
        started = time.perf_counter()
        while not walls or time.perf_counter() - started < seconds:
            unit_dir = work / f"unit{len(walls)}"
            t0 = time.perf_counter()
            out = workloads.run_unit(w, inputs, workers, unit_dir)
            walls.append(time.perf_counter() - t0)
            errors += workloads.check_unit(w, inputs, out)
            digests.add(workloads.history_digest(out))
            units.append(out)
    finally:
        if tracer:
            tracer.uninstall()
        fallbacks.close()
        shutil.rmtree(work, ignore_errors=True)

    digest = digests.pop()
    if digests:
        errors.append("the same inputs gave different results across units")
    recorded = _read_json(OUT / "digests.json").get(key, {}).get(str(seed))
    if recorded not in (None, digest):
        errors.append("the same seed gave a different history than an earlier run")

    attempted = failed = 0
    for out in units:
        a, f = workloads.operations(w, out)
        attempted += a
        failed += f
    if w.evolves:
        attempted += w.n_xo * w.t_max * len(units)
    failed += fallbacks.count

    wall_s = statistics.median(walls)
    lf_results = inputs.lf_results if w.evolves else units[-1].lf_results
    result = {
        "workload": w.name,
        "seed": seed,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "walls": walls,
        "end_to_end": {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "hv_norm_final": (workloads.hv_norm_final(w, inputs, units[-1]), "ratio"),
            "lf_j_median": (workloads.lf_j_median(lf_results), "stress"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
        "fail_frac": (failed / attempted, "ratio"),
        "facts": machine_facts(w, inputs, workers, layers),
    }
    if tracer:
        result["per_layer"] = layers.reduce(tracer.spans, units, w, wall_s - untraced_wall)
        result["self_time"] = _self_time_table(tracer, tracing)
        _write_json(OUT / f"trace-{key}-seed{seed}.json",
                    [vars(s) for s in tracer.spans])
    elif not errors:
        _record(OUT / "walls.json", key, seed, wall_s)
    if not errors:
        _record(OUT / "digests.json", key, seed, digest)
    return result


def _self_time_table(tracer, tracing) -> dict[str, tuple[int, float, float]]:
    """Per span name: (count, total seconds, self seconds) in the timed section."""
    timed = [s for s in tracer.spans if s.phase == "timed"]
    own = tracing.self_seconds(timed)
    table: dict[str, list] = {}
    for s in timed:
        row = table.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.seconds
        row[2] += own[s.id]
    return {k: tuple(v) for k, v in sorted(table.items())}


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def _write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(data))
    tmp.replace(path)


def _record(path: Path, key: str, seed: int, value) -> None:
    data = _read_json(path)
    data.setdefault(key, {})[str(seed)] = value
    _write_json(path, data)


def _recorded_wall(key: str, seed: int) -> float | None:
    """wall_s of an earlier untraced run of this workload and source.

    The same seed's figure when there is one, else the median over the seeds
    recorded, so a traced run need not time an untraced unit of its own.
    """
    walls = _read_json(OUT / "walls.json").get(key, {})
    if str(seed) in walls:
        return walls[str(seed)]
    return statistics.median(walls.values()) if walls else None


# -- machine facts ----------------------------------------------------------------

def _blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports (numpy and scipy may carry their own)."""
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return found
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()
                   and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = int(fn())
                break
    return found


def _last_level_cache() -> str | None:
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return f"L{best[0]} {best[1]}" if best else None


def machine_facts(w, inputs, workers: int, layers) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    eval_cfg = inputs.cfg if w.evolves else None
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "pool_workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "last_level_cache": _last_level_cache(),
        "working_set_bytes (computed)": layers.working_sets(inputs.lf_cfg, eval_cfg),
        "computed_metrics": list(layers.COMPUTED),
    }


# -- output -----------------------------------------------------------------------

def report(result: dict, trace: bool) -> dict:
    """Print the human-readable summary; return the final JSON line's object."""
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{result['attempted']} operations, {result['failed']} failed; timed units "
          + " ".join(f"{t:.3f}" for t in result["walls"]) + " s")
    for name, (value, unit) in result["end_to_end"].items():
        print(f"  {name:<14} {value:.6g} {unit}")
    print(f"  {'fail_frac':<14} {result['fail_frac'][0]:.6g} ratio")
    for err in result["errors"]:
        print(f"  CHECK FAILED: {err}")
    if trace:
        print("  span self time (timed section): count, total s, self s")
        for name, (count, total, own) in result["self_time"].items():
            print(f"    {name:<14} {count:6d} {total:10.4f} {own:10.4f}")
        print("  per-layer metrics:")
        for name, (value, unit) in result["per_layer"].items():
            print(f"    {name:<24} {value:.6g} {unit}")
    print("facts: " + json.dumps(result["facts"]))
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def self_check(mods) -> int:
    """Every workload on a tiny grid, untraced twice and traced once; checks the results."""
    _layers, _tracing, workloads = mods
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {False: {m["name"] for m in spec["end_to_end"]},
              True: {m["name"] for m in spec["per_layer"]}}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json names other workloads than the benchmark runs")
    for name, full in workloads.WORKLOADS.items():
        w = workloads.tiny(full)
        for trace in (False, False, True):
            line = report(run(w, 0, 0.0, trace, mods), trace)
            metrics = line["metrics"]
            if not line["correct"]:
                problems.append(f"{name}: output check failed")
            if set(metrics) != wanted[trace]:
                problems.append(f"{name}: metric names differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ wanted[trace])}")
            if not all(math.isfinite(m["value"]) for m in metrics.values()):
                problems.append(f"{name}: non-finite metric")
        calls = metrics["ot.barycenter_ms.n"]["value"] + metrics["xo.child_ms.n"]["value"]
        if w.evolves != (calls > 0):
            problems.append(f"{name}: {calls} crossover spans in the traced run")
    # a run whose output check fails must say so
    limit = workloads.VOLUME_RESIDUAL_MAX
    workloads.VOLUME_RESIDUAL_MAX = -1.0
    try:
        result = run(workloads.tiny(workloads.WORKLOADS["seed-desk"]), 0, 0.0, False, mods)
    finally:
        workloads.VOLUME_RESIDUAL_MAX = limit
    if not result["errors"]:
        problems.append("an impossible volume-residual limit went unnoticed")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    print("self-check " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the workload seed must be >= 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    mods = _import_package()
    if mods is None:
        return 2
    if args.self_check:
        return self_check(mods)
    workloads = mods[2]
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    line = report(run(w, args.seed, args.seconds, bool(args.trace), mods), bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
