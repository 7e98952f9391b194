"""Host-side scratch for the main loop."""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

__all__ = ["WorkspacePool"]


class WorkspacePool:
    """Reusable host-side kernel scratch, keyed by ``(dtype, slot)``.

    Every block-sized buffer of the main loop — the QT workspace or the
    tensor-core panels, the product buffers, the distance/scan buffer
    and the stage temporaries — is leased from here, so a worker allocates nothing per
    super-step or per tile once it has run its largest shape.  Block
    buffers are 0.5-1 MB, above glibc's mmap threshold: allocated fresh,
    each one is mapped and page-faulted anew every super-step.

    A lease's *slot* is its nesting depth among the live leases of its
    dtype: the first live float32 lease takes slot 0, a float32 lease
    taken inside it slot 1, and so on.  Nested leases therefore get
    distinct buffers, while stages that run one after the other (the
    dist_calc temporaries, then the sort/scan ones) reuse the same
    slots' memory.  Each slot holds one flat buffer grown to the largest
    request seen; a lease is a contiguous prefix reshaped to the
    requested shape.  :meth:`lease` is a context manager: the buffer
    returns to its slot on every exit path, so an injected fault or
    device OOM mid-tile can neither leak it nor leave it checked out.
    Leases must end in the reverse order they began (``with`` blocks
    do).  Pools are per worker (see ``NumericBackend``), so no locking
    is needed.
    """

    def __init__(self):
        self._free: dict[tuple[np.dtype, int], np.ndarray] = {}
        self._live: dict[np.dtype, int] = {}

    @contextmanager
    def lease(self, shape: tuple[int, ...], dtype):
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        slot = self._live.get(dtype, 0)
        self._live[dtype] = slot + 1
        key = (dtype, slot)
        buf = self._free.pop(key, None)
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype=dtype)
        try:
            yield buf[:size].reshape(shape)
        finally:
            self._free[key] = buf
            self._live[dtype] = slot
