"""Independent tasks in forked worker processes, which inherit the caller's
memory and pickle back only their results."""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def fork_map(task: Callable[[int], object], count: int) -> Iterator[object]:
    """``task(i)`` for i in range(count), yielded in order as each is done.
    With more than one usable CPU and task, min(usable CPUs, count) forked
    workers run them; otherwise, or without the ``fork`` start method, this
    process does. A worker that dies makes this raise ``BrokenProcessPool``."""
    workers = min(usable_cpus(), count)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        yield from map(task, range(count))
        return
    # fork, not spawn: the workers share the caller's memory instead of
    # re-importing the package, and inherit the initializer's arguments
    # unpickled. The pool forks all its workers before it starts its thread.
    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(task, os.getpid()),
    )
    try:
        yield from pool.map(_run_task, range(count))
    finally:
        pool.shutdown(cancel_futures=True)


# The task a worker was forked with; set only in worker processes.
_worker_task: Callable[[int], object] | None = None


def _start_worker(task: Callable[[int], object], parent: int) -> None:
    """Worker initializer: keep the inherited task, and exit once the parent
    is gone (an idle worker would otherwise wait for tasks forever)."""
    global _worker_task
    _worker_task = task

    def exit_with_parent() -> None:
        while os.getppid() == parent:  # re-parented once the parent is gone
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()


def _run_task(index: int) -> object:
    return _worker_task(index)
