"""The process pool that pooled transport maps and spectral sweeps share.

One ``ProcessPoolExecutor`` is started by the first pooled call and kept
for the life of the process, so a map or sweep pays for worker start-up
once, not on every call.  Its workers are forked, so they carry the
package's module state as of their fork: a name rebound in the parent
afterwards is not seen by them.  ``pool_map`` therefore rebuilds the pool,
shutting the old one down first, whenever reusing it would be wrong or
stale:

- the call asks for a different number of workers;
- the caller is another process (a forked child), which gets a pool of
  its own and leaves its parent's alone: only the owner shuts a pool down;
- a task function (``transport._map_column``, ``spectral._solve_points``)
  is no longer the object the workers were forked with, as when it is
  wrapped for tracing or testing;
- the pool is broken (a worker died), in which case the call that found
  it broken has raised ``BrokenProcessPool``.

At interpreter exit ``concurrent.futures`` joins the pool's workers.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator

_executor: ProcessPoolExecutor | None = None
_key: tuple = ()
_lock = threading.RLock()  # callers in several threads check and rebuild in turn


def _task_functions() -> tuple:
    from . import spectral, transport

    return transport._map_column, spectral._solve_points


def pool_map(fn: Callable, jobs: Iterable, workers: int) -> Iterator:
    """``map(fn, jobs)`` on the shared pool of ``workers`` processes,
    results in the order of ``jobs``."""
    global _executor, _key
    key = (os.getpid(), workers, *_task_functions())
    with _lock:
        if _executor is not None and (_key != key or _executor._broken):
            shutdown()
        if _executor is None:
            _executor, _key = ProcessPoolExecutor(max_workers=workers), key
        return _executor.map(fn, jobs)


def shutdown() -> None:
    """Shut the shared pool down and wait for its workers; the next pooled
    call starts a new one.  A forked child only drops its parent's pool."""
    global _executor
    with _lock:
        if _executor is not None and _key[0] == os.getpid():
            _executor.shutdown()
        _executor = None
