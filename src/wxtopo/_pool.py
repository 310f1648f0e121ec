"""Deterministic worker pools: ordered maps on forked processes or on threads.

``parallel_map`` forks. The caller and its children each claim the next item
index from a pipe that holds them all, so faster workers take more items, and
the caller computes its own share. ``fn`` and the items are inherited through
the fork, so closures work and no function is pickled; each child pickles
``(index, ok, result or exception)`` back through a pipe of its own and leaves
by ``os._exit``. Whatever the caller caches while it computes its share (FEM
systems, smoothers, discretizations) is inherited by every later fork.

``thread_map`` runs the items on threads; it suits work whose long calls
release the GIL.
"""

from __future__ import annotations

import ctypes
import io
import os
import pickle
import select
import signal
import struct
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor

_INDEX = struct.Struct("<I")
# every claim is written before any is read; a pipe holds at least PIPE_BUF
# bytes, since POSIX makes a write of that size to an empty pipe atomic
_MAX_CLAIMS = select.PIPE_BUF // _INDEX.size
_PR_SET_PDEATHSIG = 1


def thread_map(fn, items, workers: int = 1) -> list:
    """Map preserving input order on ``workers`` threads; a plain loop for one."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def parallel_map(fn, items, workers: int = 1) -> list:
    """Map preserving input order over the caller and up to ``workers - 1`` forked children.

    No more processes run than there are items or CPUs; with one, this is a
    plain loop. Every item runs once. When items fail, the exception of the
    lowest failing index is raised, as a plain loop would; an exception or
    result that cannot be pickled arrives as a RuntimeError carrying its
    repr. A child that dies raises RuntimeError. Every child is reaped before
    this returns or raises, and a child dies with its caller.
    """
    items = list(items)
    n_children = min(workers, len(items), os.cpu_count() or 1) - 1
    if n_children < 1:
        return [fn(item) for item in items]
    step = -(-len(items) // _MAX_CLAIMS)  # items per claim
    claims_r, claims_w = os.pipe()
    try:
        data = memoryview(b"".join(_INDEX.pack(i) for i in range(0, len(items), step)))
        while data:
            data = data[os.write(claims_w, data):]
    finally:
        os.close(claims_w)  # reads past the last claim see end-of-file

    def claims():
        while chunk := os.read(claims_r, _INDEX.size):
            (start,) = _INDEX.unpack(chunk)
            yield from range(start, min(start + step, len(items)))

    outcomes: dict[int, tuple[bool, object]] = {}
    children: dict[int, tuple[int, list[bytes]]] = {}  # pid -> (its pipe, what it sent)
    readers = []
    done = False
    try:
        for stream in (sys.stdout, sys.stderr):
            stream.flush()  # or a child would write the caller's buffered output again
        parent = os.getpid()
        for _ in range(n_children):
            results_r, results_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(results_r)
                os.close(results_w)
                raise
            if pid == 0:
                _child(fn, items, claims(), parent, results_r, results_w)
            os.close(results_w)
            children[pid] = (results_r, [])
        # a child blocks once its pipe is full, so the pipes are read while
        # the caller works; the threads start after the last fork
        for fd, sent in children.values():
            readers.append(threading.Thread(target=_drain, args=(fd, sent)))
            readers[-1].start()
        _work(fn, items, claims(), lambda i, ok, value: outcomes.__setitem__(i, (ok, value)))
        done = True
    finally:
        os.close(claims_r)
        if not done:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
        for reader in readers:
            reader.join()
        for fd, _ in list(children.values())[len(readers):]:
            os.close(fd)  # never read: the caller failed before it started reading
        deaths = [_death(pid, os.waitpid(pid, 0)[1]) for pid in children]
    deaths = [d for d in deaths if d]
    if deaths:
        raise RuntimeError("pool worker " + "; ".join(deaths))
    for pid, (_, sent) in children.items():
        outcomes.update(_frames(pid, b"".join(sent)))
    failed = sorted(i for i, (ok, _) in outcomes.items() if not ok)
    if failed:
        raise outcomes[failed[0]][1]
    return [outcomes[i][1] for i in range(len(items))]


def _work(fn, items, claims, deliver) -> None:
    """Run each claimed item; stop after the first failure, since only the lowest is raised.

    Claims come in index order, so every index below a failure is claimed
    and run by some worker, and the lowest failing index is always found.
    """
    for i in claims:
        try:
            value, ok = fn(items[i]), True
        except Exception as exc:  # noqa: BLE001 - delivered to the caller, who raises it
            value, ok = exc, False
        deliver(i, ok, value)
        if not ok:
            return


def _child(fn, items, claims, parent: int, results_r: int, results_w: int):
    """Body of a forked worker: run claimed items, send each outcome, exit without cleanup."""
    status = 1
    try:
        os.close(results_r)
        _die_with(parent)
        with os.fdopen(results_w, "wb") as out:
            _work(fn, items, claims, lambda i, ok, value: out.write(_frame(i, ok, value)))
        for stream in (sys.stdout, sys.stderr):
            stream.flush()
        status = 0
    finally:
        os._exit(status)  # skips atexit handlers and the caller's own cleanup


def _die_with(parent: int) -> None:
    """Ask Linux to kill this process when its caller dies; exit if it already has."""
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _frame(index: int, ok: bool, value) -> bytes:
    """One pickled outcome; a failure carries the child's traceback as a note."""
    if not ok and hasattr(value, "add_note"):
        value.add_note(f"raised in pool worker {os.getpid()}:\n"
                       + "".join(traceback.format_tb(value.__traceback__)))
    try:
        return pickle.dumps((index, ok, value), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 - any pickling failure is reported the same way
        what = "result" if ok else "exception"
        error = RuntimeError(f"item {index}: {what} cannot be pickled ({exc}): {value!r}")
        return pickle.dumps((index, False, error), pickle.HIGHEST_PROTOCOL)


def _drain(fd: int, sink: list[bytes]) -> None:
    with open(fd, "rb") as pipe:
        sink.append(pipe.read())


def _frames(pid: int, data: bytes):
    stream = io.BytesIO(data)
    while stream.tell() < len(data):
        try:
            index, ok, value = pickle.load(stream)
        except Exception as exc:
            raise RuntimeError(f"pool worker {pid} sent an outcome that cannot be "
                               f"unpickled: {exc!r}") from exc
        yield index, (ok, value)


def _death(pid: int, status: int) -> str | None:
    """How child ``pid`` died, or None when it exited cleanly."""
    if os.WIFSIGNALED(status):
        return f"{pid} was killed by signal {os.WTERMSIG(status)}"
    code = os.WEXITSTATUS(status)
    return None if code == 0 else f"{pid} exited with status {code}"
