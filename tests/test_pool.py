"""The forked worker pool: ordering, errors across the process boundary, reaping, warm caches."""

from __future__ import annotations

import inspect
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from wxtopo import _pool, errors, evolve, fem2d
from wxtopo import benchmark as problem
from wxtopo.config import parse_config_text
from wxtopo.errors import SingularSystem
from wxtopo.grid_field import DensityField, GridSpec
from wxtopo.hf_eval import hf_evaluate

if not hasattr(os, "fork"):
    pytest.skip("the process pool forks", allow_module_level=True)


@pytest.fixture(autouse=True)
def four_cpus(monkeypatch):
    # the pool forks at most one child fewer than the CPUs; these tests need
    # children on any host, and none forks more than four processes
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_child(caller: int) -> bool:
    return os.getpid() != caller


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not across processes")


class TestResults:
    def test_input_order_and_closures_over_unpicklable_state(self):
        lock = threading.Lock()  # cannot be pickled, so fn and items never are
        caller = os.getpid()

        def fn(x):
            time.sleep(0.01 * ((7 * x) % 5))  # items finish out of order
            return x * x, lock.locked(), in_child(caller)

        out = _pool.parallel_map(fn, range(12), workers=3)
        assert [r[:2] for r in out] == [(x * x, False) for x in range(12)]
        assert any(r[2] for r in out) and not all(r[2] for r in out)  # both sides worked
        assert_no_children_left()

    def test_one_worker_or_one_item_runs_in_the_caller(self):
        caller = os.getpid()
        assert _pool.parallel_map(lambda x: os.getpid(), [1, 2, 3], workers=1) == [caller] * 3
        assert _pool.parallel_map(lambda x: os.getpid(), [1], workers=4) == [caller]
        assert _pool.parallel_map(lambda x: x, [], workers=4) == []

    def test_cpu_count_caps_the_processes(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert set(_pool.parallel_map(lambda x: os.getpid(), range(6), workers=8)) == {
            os.getpid()}

    def test_fields_come_back_read_only(self):
        grid = GridSpec(4, 4, 1.0, 1.0)
        out = _pool.parallel_map(lambda k: DensityField(grid, np.full(16, k / 10)),
                                 range(6), workers=3)
        assert [f.values[0] for f in out] == [k / 10 for k in range(6)]
        assert not any(f.values.flags.writeable for f in out)

    def test_claims_cover_more_items_than_the_claim_pipe_holds(self, monkeypatch):
        monkeypatch.setattr(_pool, "_MAX_CLAIMS", 4)
        assert _pool.parallel_map(lambda x: -x, range(23), workers=3) == [-x for x in range(23)]
        assert_no_children_left()


class TestErrors:
    def test_lowest_failing_index_is_raised_with_type_and_cause(self):
        def fn(x):
            time.sleep(0.02 * (x % 3))
            if x in (3, 5, 8):
                raise SingularSystem(f"item {x}", "backward_error" if x == 3 else "factor")
            return x

        with pytest.raises(SingularSystem, match="item 3") as info:
            _pool.parallel_map(fn, range(10), workers=3)
        assert info.value.cause == "backward_error"
        assert_no_children_left()

    def test_failure_in_a_child_carries_its_traceback(self):
        caller = os.getpid()

        def fn(x):
            if in_child(caller):
                raise ValueError(f"bad {x}")
            time.sleep(0.2)
            return x

        with pytest.raises(ValueError, match="bad") as info:
            _pool.parallel_map(fn, range(3), workers=2)
        assert any("raised in pool worker" in note for note in info.value.__notes__)
        assert_no_children_left()

    @pytest.mark.parametrize("what", ["result", "exception"])
    def test_unpicklable_outcome_arrives_as_runtime_error(self, what):
        caller = os.getpid()

        def fn(x):
            if not in_child(caller):
                time.sleep(0.2)
                return x
            if what == "exception":
                raise Unpicklable(f"item {x}")
            return threading.Lock()

        with pytest.raises(RuntimeError, match=f"{what} cannot be pickled") as info:
            _pool.parallel_map(fn, range(3), workers=2)
        assert ("Unpicklable('item" if what == "exception" else "lock") in str(info.value)
        assert_no_children_left()

    @pytest.mark.parametrize("death", ["exit", "sigkill"])
    def test_dead_child_raises_and_returns_nothing(self, death):
        caller = os.getpid()

        def fn(x):
            if in_child(caller):
                if death == "exit":
                    os._exit(3)
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.1)
            return x

        expected = "exited with status 3" if death == "exit" else "killed by signal 9"
        with pytest.raises(RuntimeError, match=expected):
            _pool.parallel_map(fn, range(6), workers=3)
        assert_no_children_left()

    def test_interrupted_caller_kills_and_reaps_its_children(self):
        caller = os.getpid()

        def fn(x):
            if in_child(caller):
                time.sleep(60)
            raise KeyboardInterrupt

        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            _pool.parallel_map(fn, range(4), workers=3)
        assert time.perf_counter() - t0 < 30
        assert_no_children_left()


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"  # a zombie has finished


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_children_die_with_a_killed_caller(tmp_path):
    # the caller's child sleeps for a minute; killing the caller must end it too
    pids = tmp_path / "pids"
    script = inspect.cleandoc(f"""
        import os, time
        from wxtopo import _pool
        os.cpu_count = lambda: 2
        caller = os.getpid()
        def fn(x):
            if os.getpid() != caller:
                with open({str(pids)!r}, "a") as fh:
                    fh.write(f"{{os.getpid()}}\\n")
            time.sleep(60)
        _pool.parallel_map(fn, range(2), workers=2)
    """)
    src = str(Path(_pool.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src))
    try:
        deadline = time.monotonic() + 60
        while not (pids.exists() and pids.read_text().endswith("\n")):
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.05)
        child = int(pids.read_text().split()[0])
        assert _alive(child)
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 10
    while _alive(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(child)


def test_every_error_survives_pickling():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.WxTopoError)]
    assert len(classes) > 10
    for cls in classes:
        args = ("message", "factor") if cls is SingularSystem else ("message",)
        back = pickle.loads(pickle.dumps(cls(*args)))
        assert type(back) is cls and str(back) == "message"
        assert vars(back) == vars(cls(*args))


def test_caller_share_leaves_later_forks_warm(tmp_path):
    # every process notes the system builds each evaluation triggered; after
    # the first map, which forks before any process has built the 20x40 HF
    # system, children inherit the caller's cached system and build none
    cfg = parse_config_text("", preset="desk")
    grid = GridSpec(10, 20, cfg.grid_lx, cfg.grid_ly)
    model, hf_cfg = fem2d.ElasticModel(grid=grid), cfg.hf()
    bc = problem.cracked_plate_bc(hf_cfg.refined(grid))
    log = tmp_path / "builds"
    caller = os.getpid()

    def evaluator(fld):
        before = fem2d._reduced_system_cached.cache_info().misses
        out = hf_evaluate(fld, model, bc, hf_cfg)
        built = fem2d._reduced_system_cached.cache_info().misses - before
        with log.open("a") as fh:
            fh.write(f"{int(os.getpid() != caller)} {built}\n")
        return out

    rng = np.random.default_rng(0)
    seeds = [DensityField(grid, np.clip(rng.normal(0.6, 0.2, grid.n), 0, 1)) for _ in range(4)]
    loop = evolve.EvolveConfig(n_pop=4, n_xo=6, t_max=2, hv_window=5)
    fem2d._reduced_system_cached.cache_clear()
    runs = []
    for _ in range(2):
        evolve.evolve_loop(loop, seeds, evaluator, "linear", workers=2)
        runs.append([tuple(map(int, line.split())) for line in log.read_text().splitlines()])
        log.unlink()
    assert fem2d._reduced_system_cached.cache_info().misses == 1  # the caller built once
    first, second = runs
    assert sum(built for _, built in first[4:]) == 0  # every map after the first is warm
    assert sum(built for _, built in second) == 0
    assert any(child for child, _ in second)  # children evaluated too
    assert_no_children_left()
