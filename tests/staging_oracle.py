"""Per-allocation tile staging — the test oracle of the one-pass staging.

:meth:`repro.engine.backends.NumericBackend._stage` takes a tile's whole
device footprint with one
:meth:`~repro.gpu.memory.DeviceMemory.reserve_transient` call.  This
module keeps the staging it replaced: upload the row slice, upload the
column slice (a self-join diagonal tile reuses the row upload), reserve
the workspace, each under the allocator lock, then free all three.  The
suites compare the two on out-of-memory decisions, ``high_water``,
``in_use`` and the raised error.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

import numpy as np

from repro.engine.backends import NumericBackend, workspace_bytes


def upload_stage(backend: NumericBackend, plan, tile, gpu, main_loop: str):
    """Stage ``tile`` the per-allocation way; returns ``shared`` like
    :meth:`NumericBackend._stage`."""
    spec = plan.spec
    m = spec.m
    r0, r1 = tile.sample_range_rows(m)
    c0, c1 = tile.sample_range_cols(m)
    shared = plan.tq_layout is plan.tr_layout and (r0, r1) == (c0, c1)

    def release(alloc) -> None:
        with backend._lock:
            alloc.free()

    with ExitStack() as stack:
        with backend._lock:
            tr_alloc = gpu.memory.upload(
                np.ascontiguousarray(plan.tr_layout[:, r0:r1]),
                label=f"Tr{tile.tile_id}",
            )
            stack.callback(release, tr_alloc)
            if not shared:
                tq_alloc = gpu.memory.upload(
                    np.ascontiguousarray(plan.tq_layout[:, c0:c1]),
                    label=f"Tq{tile.tile_id}",
                )
                stack.callback(release, tq_alloc)
        with backend._lock:
            workspace = gpu.memory.reserve(
                workspace_bytes(
                    tile.n_rows,
                    tile.n_cols,
                    spec.d,
                    spec.policy.itemsize,
                    main_loop=main_loop,
                    mirror=getattr(tile, "mirror", False),
                ),
                label=f"ws{tile.tile_id}",
            )
            stack.callback(release, workspace)
    return shared


@contextmanager
def upload_staging():
    """Route every :class:`NumericBackend` through :func:`upload_stage`."""
    saved = NumericBackend._stage
    NumericBackend._stage = upload_stage
    try:
        yield
    finally:
        NumericBackend._stage = saved
