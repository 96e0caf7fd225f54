"""One pool thread that shares the independent halves of a pass with the calling thread.

The ops in :mod:`brainspeech.numerics.ops` (conv1d's forward and backward,
batchnorm1d's elementwise passes with its fused activation, forward and
train-mode backward, gelu's forward and backward, glu's forward and
backward), :func:`brainspeech.preprocessing.resample` (GEMMs) and
:meth:`brainspeech.preprocessing.ScalerParams.fit` (channel rows) all split
through the one instance :data:`split`. Callers look it up here at call
time, so replacing it (or ``_usable_cpus`` and ``_SPLIT_MIN_SIZE``) in this
module changes every site. Only untraced inner functions run on the pool
thread: every function a profiler wraps by name runs on the calling thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, List, Optional, Sequence

# Elements a pass's halves touch below which it runs inline. Handing half a
# pass to the pool costs about 30 us, while gelu's float32 erf costs about 30 ns
# per element, some 40 times an exp, so a pass of 2^16 elements already saves
# about 1 ms. On a 2-core VM with one BLAS thread, a desk-width (d1=d2=32) eval
# forward at B=40 took a median of 140-149 ms at every floor from 2^14 to 2^18
# and 211 ms at 2^19, where only its 64-channel GLU passes split; a train step
# at B=32 took 329-343 ms against 445 ms. 2^16 sits mid-way in that flat range.
# perfbench runs per floor (seeds 1 and 2) read desk-quickstart eval at 244-279
# trials/s from 2^14 to 2^18 against 181-209 at 2^19, and paper-width, whose
# split passes touch 921,600 elements or more, at 16.2-17.1 on every floor.
# With OpenBLAS's two default threads no floor was measurably faster.
_SPLIT_MIN_SIZE = 1 << 16


class _TwoWaySplit:
    """Runs the independent halves of a pass on the calling thread and one pool thread.

    ``self(n, size, fn)`` calls ``fn(rows)`` with slices ``rows`` covering
    ``range(n)`` along axis 0: ``slice(0, mid)`` here and ``slice(mid, n)`` on
    the pool thread. It calls ``fn(slice(None))`` once, inline, when the
    ``size`` elements the pass touches are fewer than ``_SPLIT_MIN_SIZE`` or
    the process may use only one CPU. Each half writes its own rows of
    preallocated outputs with unchanged per-element arithmetic, so results
    are bitwise those of the inline call. The pool thread starts on first use.

    A pass that needs scratch buffers per half asks for :meth:`halves` first,
    allocates one set per slice on the calling thread and hands one task per
    slice to :meth:`run`.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._lock = threading.Lock()
        self._checked = False
        self._pool: Optional[ThreadPoolExecutor] = None

    def _executor(self) -> Optional[ThreadPoolExecutor]:
        with self._lock:
            if not self._checked:
                if _usable_cpus() > 1:
                    self._pool = ThreadPoolExecutor(1, "brainspeech-op")
                self._checked = True
            return self._pool

    def halves(self, n: int, size: int) -> List[slice]:
        """The slices ``self(n, size, fn)`` hands to ``fn``: the calling
        thread's first, then the pool thread's, if the pass is split."""
        pool = self._executor() if n > 1 and size >= _SPLIT_MIN_SIZE else None
        if pool is None:
            return [slice(None)]
        mid = (n + 1) // 2
        return [slice(0, mid), slice(mid, n)]

    def run(self, tasks: Sequence[Callable[[], None]]) -> None:
        """Calls ``tasks[0]`` here and ``tasks[1]``, if given, on the pool thread."""
        if len(tasks) == 1:
            tasks[0]()
            return
        future = self._pool.submit(tasks[1])
        try:
            tasks[0]()
        finally:
            future.result()

    def pair(self, size: int, here: Callable[[], None], there: Callable[[], None]) -> None:
        """Runs two independent tasks of a pass touching ``size`` elements:
        ``there`` on the pool thread if the pass is split, else after ``here``."""
        if len(self.halves(2, size)) == 1:
            here()
            there()
        else:
            self.run([here, there])

    def __call__(self, n: int, size: int, fn: Callable) -> None:
        self.run([partial(fn, rows) for rows in self.halves(n, size)])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


split = _TwoWaySplit()
# A forked child inherits no pool thread, so it starts its own when it needs one.
os.register_at_fork(after_in_child=lambda: split.reset())
