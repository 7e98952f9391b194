"""The main loop allocates no block-sized buffer once warm.

Every block-sized buffer of a super-step — the QT workspace, the product
buffers, the distance/scan buffer, the stage temporaries, the exclusion
mask and the row-axis argmin keys — is leased from the worker's
:class:`~repro.engine.backends.WorkspacePool`.  After one warm-up tile,
a second :func:`~repro.engine.backends.run_tile` of the same shape on
the same pool must therefore make no numpy allocation of a super-step
block's size — for one tile and for a stack of 50, whose short blocks
(:func:`~repro.engine.backends.super_step_rows`) lease the same
buffers every step.  ``tracemalloc`` sees numpy's data buffers, so the peak
traced memory above the level at the start of the call bounds the
largest allocation the call made.  The tests raise the super-step
budget to 2^19 elements so that a block clearly outweighs what a tile
does allocate — its O(d * n) vectors and outputs, and numpy's
fixed-size casting buffers.  Every call gets its precalc prepared, as
the plane cache hands it to the backend.

The tensor-core loop leases its panel buffers, the fused scan's output
and the operand quantiser's temporaries from the same pool, so a warm
one-tile and stacked tensor-core run allocate no block either: no
float32 ``(d * T, TC_PANEL_ROWS, width)`` panel.  Its panel height is
fixed whatever the budget, so its shapes are wide instead, for the same
margin over the per-tile vectors and numpy's buffers.

Within a block, the update kernel's merge gathers each winning value by
one flat ``np.take`` on an index built in place and offsets the winning
rows in place, so a warm ``run_block`` allocates per reduced column only
the argmin, one flat index, the winning value and its flag — not
``np.take_along_axis``'s broadcast index grids and two index copies.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.engine import backends
from repro.engine.backends import WorkspacePool, run_tile, super_step_rows
from repro.kernels.layout import to_device_layout
from repro.kernels.tc_gemm import TC_PANEL_ROWS
from repro.kernels.update import UpdateKernel

from .precalc_oracle import kernel_precalc

D, M = 2, 16
BUDGET = 1 << 19

#: name -> (reference rows, query columns, tiles in the stack, mirror).
#: Every shape takes several super-steps; all but the AB tiles straddle
#: the diagonal, so their exclusion masks are live.
SHAPES = {
    "row-major": (500, 600, 1, False),
    "transposed": (600, 500, 1, False),
    "stack": (400, 600, 3, False),
    "mirror": (600, 600, 1, True),
}
#: Tensor-core shapes, one tile and a stack, each over several panels.
TC_SHAPES = {
    "tile": (300, 2400, 1, False),
    "stack": (200, 1200, 3, False),
}
#: A stack of 50 tiles, like a many-tile job's: its block is the
#: ``WIDE_STACK_BUDGET // 8`` floor, below the stack's whole plane.  The
#: tiles are wide enough that the stack's remaining O(T * d * n) vectors
#: (~40 bytes per plane column) weigh well under a block.
WIDE_STACK = (150, 160, 50, False)
WIDE_STACK_BUDGET = 1 << 24
#: The warm wide stack's peak at FP64, in bytes: 1.97 MB when dist_calc
#: copied its six per-row vectors into wide mirrors on every call,
#: 1.23 MB now that the mirrors alias them (wide == compute at FP64).
FP64_WIDE_STACK_PEAK = 1_500_000


def _series(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    waves = [np.sin(2 * np.pi * t / (13 + 5 * k)) for k in range(D)]
    return np.stack(waves, axis=1) + 0.1 * rng.normal(size=(n, D))


def _tile_args(shape, policy):
    n_r, n_q, tiles, mirror = shape
    n = max(2 * (n_r + n_q), 50 * tiles + n_r + n_q) + M
    layout = to_device_layout(_series(n), policy.storage)
    rows = [layout[:, 37 * t : 37 * t + n_r + M - 1] for t in range(tiles)]
    cols = [layout[:, 50 * t : 50 * t + n_q + M - 1] for t in range(tiles)]
    kwargs = dict(exclusion_zone=M // 4, mirror=mirror)
    if tiles == 1:
        return rows[0], cols[0], kwargs
    kwargs.update(row_offset=[37 * t for t in range(tiles)],
                  col_offset=[50 * t for t in range(tiles)])
    return np.stack(rows), np.stack(cols), kwargs


def _block_bytes(shape, policy, main_loop="vector"):
    """Bytes of one super-step's ``(d * T, B, width)`` block: in the
    compute dtype, or the tensor-core loop's float32 panel."""
    n_r, n_q, tiles, mirror = shape
    if main_loop == "tensor_core":
        steps, width, block, itemsize = n_r, n_q, TC_PANEL_ROWS, 4
    else:
        steps, width = (n_q, n_r) if (n_q < n_r and not mirror) else (n_r, n_q)
        block = super_step_rows(steps, width, D, tiles)
        itemsize = policy.compute.itemsize
    assert block < steps, "the shape should take several super-steps"
    return D * tiles * block * width * itemsize


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("mode", ["FP64", "FP32", "FP16"])
def test_warm_run_tile_allocates_no_block(mode, shape, monkeypatch):
    monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", BUDGET)
    _assert_warm_tile_allocates_no_block(mode, SHAPES[shape])


@pytest.mark.parametrize("mode", ["FP64", "FP32", "FP16"])
def test_warm_wide_stack_allocates_no_block(mode, monkeypatch):
    monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", WIDE_STACK_BUDGET)
    n_r, n_q, tiles, _ = WIDE_STACK
    block = super_step_rows(n_r, n_q, D, tiles)
    assert D * tiles * block * n_q <= WIDE_STACK_BUDGET // 8 < D * tiles * n_r * n_q
    _assert_warm_tile_allocates_no_block(mode, WIDE_STACK)


def test_warm_fp64_stack_copies_no_per_row_vector(monkeypatch):
    monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", WIDE_STACK_BUDGET)
    peak = _assert_warm_tile_allocates_no_block("FP64", WIDE_STACK)
    assert peak < FP64_WIDE_STACK_PEAK, f"{peak} B allocated at peak"


@pytest.mark.parametrize("shape", sorted(TC_SHAPES))
@pytest.mark.parametrize("mode", ["Mixed", "FP16C"])
def test_warm_tensor_core_tile_allocates_no_block(mode, shape):
    _assert_warm_tile_allocates_no_block(mode, TC_SHAPES[shape], "tensor_core")


def _assert_warm_tile_allocates_no_block(mode, shape, main_loop="vector"):
    cfg = RunConfig(mode=mode)
    policy = cfg.policy
    tr, tq, kwargs = _tile_args(shape, policy)
    kwargs["precalc"] = kernel_precalc(tr, tq, M, policy, cfg.launch)
    kwargs["main_loop"] = main_loop
    pool = WorkspacePool()
    want = run_tile(tr, tq, M, policy, cfg.launch, workspace=pool, **kwargs)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = run_tile(tr, tq, M, policy, cfg.launch, workspace=pool, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    block = _block_bytes(shape, policy, main_loop)
    assert peak < block, f"{peak} B allocated at peak, a block is {block} B"
    # Reused scratch changes nothing: the warm tile equals the cold one.
    if not isinstance(want, list):
        want, got = [want], [got]
    for a, b in zip(want, got):
        assert np.array_equal(a.profile.view(np.uint8), b.profile.view(np.uint8))
        assert np.array_equal(a.indices, b.indices)
        if a.mirror_profile is not None:
            assert np.array_equal(a.mirror_profile.view(np.uint8),
                                  b.mirror_profile.view(np.uint8))
            assert np.array_equal(a.mirror_indices, b.mirror_indices)
    return peak


#: (d, tiles, rows, width) of a stacked update block, reduced over rows
#: (row-major) or over width (transposed panels), so that both reduce
#: 7,200 columns.
UPDATE_BLOCKS = {False: (2, 3, 64, 1200), True: (2, 3, 1200, 64)}


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("mode", ["FP64", "FP32", "FP16"])
def test_warm_update_block_allocates_no_index_grid(mode, transposed):
    policy = RunConfig(mode=mode).policy
    shape = UPDATE_BLOCKS[transposed]
    d, tiles, rows, width = shape
    block = np.random.default_rng(0).random(shape).astype(policy.storage)
    kwargs = dict(row_offset=[0, 5, 9], transposed=transposed, in_place=True)
    kernels = []
    for _ in range(2):
        kernel = UpdateKernel(RunConfig().launch, policy=policy)
        kernel.allocate(d, rows if transposed else width, tiles=tiles)
        kernel.run_block(block.copy(), 0, **kwargs)  # warm the offsets
        kernels.append(kernel)
    scratch = block.copy()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kernels[1].run_block(scratch, 0, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # Per reduced column: the argmin, its flat gather index, the winning
    # value and the improved flag; plus one ufunc buffer of indices (a
    # broadcast add) and a fixed 16 KB.
    columns = d * tiles * (rows if transposed else width)
    intp = np.dtype(np.intp).itemsize
    allowed = columns * (2 * intp + policy.storage.itemsize + 1)
    allowed += np.getbufsize() * intp + (1 << 14)
    assert peak < allowed, f"{peak} B allocated at peak"
    # Twice merged, the same block leaves the same profile.
    assert kernels[1].profile.tobytes() == kernels[0].profile.tobytes()
    assert np.array_equal(kernels[1].indices, kernels[0].indices)
