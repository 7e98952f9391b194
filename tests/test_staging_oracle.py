"""One-pass tile staging == the per-allocation oracle.

:meth:`repro.engine.backends.NumericBackend._stage` checks a tile's row
slice, column slice and workspace against the device capacity in one
:meth:`~repro.gpu.memory.DeviceMemory.reserve_transient` call;
``tests/staging_oracle.py`` keeps the upload / upload / reserve staging
it replaced.  At capacities just below, at and just above each tile's
Tr, Tr+Tq and Tr+Tq+workspace boundaries both must take the same
out-of-memory decisions, raise the same error, leave the same
``high_water`` and release everything they took.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.engine import (
    ExecutionPolicy,
    JobSpec,
    NumericBackend,
    ProfileAccumulator,
    execute_plan,
)
from repro.engine.backends import workspace_bytes
from repro.gpu.memory import DeviceOutOfMemoryError
from repro.gpu.simulator import GPUSimulator

from .staging_oracle import upload_staging

M = 8
#: Bytes held by another job while the tiles stage.
HELD = 96


def _series(seed: int, n: int = 64 + M - 1, d: int = 2):
    return np.random.default_rng(seed).normal(size=(n, d)).cumsum(axis=0)


def _plan(kind: str, n_tiles: int = 4):
    ab = kind == "ab"
    config = RunConfig(mode="FP32", symmetric_tiles=kind == "symmetric")
    spec = JobSpec.from_arrays(_series(1), _series(2) if ab else None, M, config)
    return spec.plan(n_tiles=n_tiles)


def _parts(plan, tile) -> list[int]:
    """Tr, Tq (absent when the tile shares its row upload), workspace."""
    spec = plan.spec
    r0, r1 = tile.sample_range_rows(M)
    c0, c1 = tile.sample_range_cols(M)
    itemsize = plan.tr_layout.dtype.itemsize
    parts = [spec.d * (r1 - r0) * itemsize]
    if not (plan.tq_layout is plan.tr_layout and (r0, r1) == (c0, c1)):
        parts.append(spec.d * (c1 - c0) * itemsize)
    parts.append(workspace_bytes(tile.n_rows, tile.n_cols, spec.d, spec.policy.itemsize,
                                 mirror=tile.mirror))
    return parts


def _capacities(plan) -> list[int]:
    """Just below, at and just above every cumulative staging boundary."""
    caps = set()
    for tile in plan.tiles:
        total = 0
        for part in _parts(plan, tile):
            total += part
            caps.update(HELD + total + delta for delta in (-1, 0, 1))
    return sorted(caps)


def _stage_all(plan, capacity: int, oracle: bool):
    """Run ``plan``'s tiles as stacks of equal shape on one GPU."""
    gpu = GPUSimulator("A100").gpus[0]
    gpu.memory.capacity = capacity
    held = gpu.memory.reserve(HELD)
    groups: dict = {}
    for tile in plan.tiles:
        groups.setdefault((tile.n_rows, tile.n_cols, tile.mirror), []).append(tile)
    outcomes = {}
    with upload_staging() if oracle else nullcontext():
        for tiles in groups.values():
            results = NumericBackend().run(plan, tiles, [gpu] * len(tiles))
            outcomes.update(zip((t.tile_id for t in tiles), results))
    summary = {}
    for tile_id, outcome in sorted(outcomes.items()):
        if isinstance(outcome, DeviceOutOfMemoryError):
            summary[tile_id] = ("oom", outcome.requested, outcome.available)
        else:
            out = outcome.output
            summary[tile_id] = ("ok", out.profile.tobytes(), out.indices.tobytes(),
                                outcome.timing)
    in_use = gpu.memory.in_use
    held.free()
    return summary, gpu.memory.high_water, in_use, gpu.memory.in_use


@pytest.mark.parametrize("kind", ["self", "ab", "symmetric"])
def test_boundaries_match_upload_staging(kind):
    plan = _plan(kind)
    tiles = plan.tiles
    if kind == "self":
        assert any(len(_parts(plan, t)) == 2 for t in tiles)  # a diagonal tile
        assert any(len(_parts(plan, t)) == 3 for t in tiles)
    if kind == "symmetric":
        assert any(t.mirror for t in tiles) and any(not t.mirror for t in tiles)
    seen = set()
    for capacity in _capacities(plan):
        got = _stage_all(plan, capacity, oracle=False)
        want = _stage_all(plan, capacity, oracle=True)
        assert got == want, capacity
        summary, _, in_use, after = got
        assert (in_use, after) == (HELD, 0)
        seen.add(tuple(entry[0] for entry in summary.values()))
    assert ("oom",) * len(tiles) in seen and ("ok",) * len(tiles) in seen
    if kind != "ab":  # tiles of unequal footprint: some stacks split
        assert len(seen) > 2


def test_requested_names_the_part_that_did_not_fit():
    plan = _plan("ab", n_tiles=1)
    (tile,) = plan.tiles
    tr, tq, ws = _parts(plan, tile)
    for capacity, requested in [
        (HELD + tr - 1, tr),
        (HELD + tr + tq - 1, tq),
        (HELD + tr + tq + ws - 1, ws),
    ]:
        summary, high_water, _, _ = _stage_all(plan, capacity, oracle=False)
        assert summary[tile.tile_id] == ("oom", requested, requested - 1)
        # The parts before the failing one reached the high-water mark.
        assert high_water == capacity - (requested - 1)


@pytest.mark.parametrize("kind", ["self", "symmetric"])
def test_oom_split_children_restage_like_the_oracle(kind):
    plan = _plan(kind, n_tiles=1)
    (tile,) = plan.tiles
    parent = sum(_parts(plan, tile))
    results = []
    for capacity in (parent // 2, parent // 3, parent - 1):

        def run(oracle):
            sim = GPUSimulator("A100")
            for gpu in sim.gpus:
                gpu.memory.capacity = capacity
            acc = ProfileAccumulator(plan.spec.d, plan.spec.n_q_seg, plan.spec.policy)
            with upload_staging() if oracle else nullcontext():
                try:
                    report = execute_plan(_plan(kind, n_tiles=1), NumericBackend(),
                                          sim, accumulator=acc,
                                          policy=ExecutionPolicy(oom_split=True))
                except DeviceOutOfMemoryError as exc:
                    return ("oom", exc.requested, exc.available)
            memory = sim.gpus[0].memory
            return (report.splits, acc.profile.tobytes(), acc.index.tobytes(),
                    sim.timeline.ops, memory.high_water, memory.in_use)

        got = run(oracle=False)
        assert got == run(oracle=True), capacity
        results.append(got)
    assert any(r[0] != "oom" and r[0] for r in results)  # children re-staged
