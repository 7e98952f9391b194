"""Stacked plane-cache prepare == the per-tile oracle, field for field.

``PrecalcPlaneCache.prepare`` and ``StreamPlaneCache.prepare`` assemble
a stack of same-shape tiles' precalculation in one call.  The oracle
(``tests/precalc_oracle.py``) prepares tile by tile and stacks.  Every
comparison runs the two on twin plans of the same spec, so each side
takes its own claims: result planes (dtype and bytes), per-tile costs,
``saved_flops`` and the claim state they leave, across self-joins and
AB joins, diagonal, off-diagonal and mirror tiles, OOM-split children
starting mid-band, escalated modes, service store hits and streams, and
with a device OOM at every position of a stack — there against the same
tiles run one at a time, so the dropped rows are checked too.
"""

from __future__ import annotations

from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.core.tiling import Tile
from repro.engine import ExecutionPolicy, JobSpec, NumericBackend
from repro.gpu.memory import DeviceOutOfMemoryError
from repro.gpu.simulator import GPUSimulator
from repro.gpu.perfmodel import plane_cost
from repro.kernels.precalc import PrecalcResult
from repro.precision.modes import PrecisionMode
from repro.service.cache import PrecalcStatsCache
from repro.streams import IncrementalMatrixProfile, StreamIngestService, TenantPolicy

from .precalc_oracle import per_tile_prepares, stacked_prepare

MODES = ("FP64", "FP32", "FP16", "Mixed", "FP16C")
M = 12
RESULT_FIELDS = [f.name for f in fields(PrecalcResult) if f.name != "m"]


def _series(n, d=2, seed=3):
    rng = np.random.default_rng(seed)
    t = np.arange(n)[:, None]
    base = np.sin(2 * np.pi * t / (17 + 6 * np.arange(d)))
    return base + 0.2 * rng.normal(size=(n, d))


def _twin_plans(mode, join="self", n_tiles=16, store=None):
    """Two plans of one spec, each with its own plane cache."""
    config = RunConfig(mode=mode, symmetric_tiles=join == "symmetric")
    spec = JobSpec.from_arrays(
        _series(200), _series(170, seed=4) if join == "ab" else None, M, config
    )
    return (spec.plan(n_tiles=n_tiles, precalc_store=store),
            spec.plan(n_tiles=n_tiles, precalc_store=store))


def _stacks(tiles):
    """``tiles`` grouped by batch shape, in order of first appearance."""
    groups: dict = {}
    for tile in tiles:
        groups.setdefault((tile.n_rows, tile.n_cols, tile.mirror), []).append(tile)
    return list(groups.values())


def _assert_prepared_equal(got, want, label=""):
    for name in RESULT_FIELDS:
        a, b = getattr(got.result, name), getattr(want.result, name)
        assert a.dtype == b.dtype and a.shape == b.shape, f"{name} {label}"
        assert a.tobytes() == b.tobytes(), f"{name} bits {label}"
    assert [vars(c) for c in got.costs] == [vars(c) for c in want.costs], label
    assert got.saved_flops == want.saved_flops, label


def _prepare_both(got_plan, want_plan, stack_ids):
    """Prepare each stack (tile positions in the plans) on both sides."""
    out = []
    for ids in stack_ids:
        got = got_plan.precalc_cache.prepare(got_plan, [got_plan.tiles[i] for i in ids])
        want = stacked_prepare(
            want_plan.precalc_cache, want_plan, [want_plan.tiles[i] for i in ids]
        )
        _assert_prepared_equal(got, want, f"stack {ids}")
        out.append(got)
    return out


def _claim_state(plan):
    cache = plan.precalc_cache
    return {
        mode: (planes.pending is None, planes.charge is None)
        for mode, planes in cache._modes.items()
    }


def _stack_ids(plan):
    position = {tile.tile_id: i for i, tile in enumerate(plan.tiles)}
    return [[position[t.tile_id] for t in stack] for stack in _stacks(plan.tiles)]


class TestPlanStacks:
    @pytest.mark.parametrize("join", ["self", "ab", "symmetric"])
    @pytest.mark.parametrize("mode", MODES)
    def test_every_stack_of_the_plan(self, mode, join):
        got_plan, want_plan = _twin_plans(mode, join)
        stack_ids = _stack_ids(got_plan)
        assert max(len(ids) for ids in stack_ids) > 1
        prepared = _prepare_both(got_plan, want_plan, stack_ids)
        # The base-mode carrier (the plan's first tile) took the charge,
        # and only it.
        spec = got_plan.spec
        charged = [
            ids[t] for ids, p in zip(stack_ids, prepared) for t in range(len(ids))
            if p.saved_flops[t] != plane_cost(
                got_plan.tiles[ids[t]].n_rows, got_plan.tiles[ids[t]].n_cols, spec.d,
                spec.policy.precalc.itemsize, spec.policy.compensated).flops
        ]
        assert charged == [0]
        assert _claim_state(got_plan) == _claim_state(want_plan)

    def test_stacks_mix_diagonal_and_off_diagonal_tiles(self):
        plan, _ = _twin_plans("FP32")
        mixed = [
            stack for stack in _stacks(plan.tiles)
            if len({t.row_start == t.col_start for t in stack}) == 2
        ]
        assert mixed

    def test_symmetric_stacks_hold_mirror_tiles(self):
        plan, _ = _twin_plans("FP32", "symmetric")
        assert any(len(s) > 1 and s[0].mirror for s in _stacks(plan.tiles))

    @pytest.mark.parametrize("mode", MODES)
    def test_reordered_stacks(self, mode):
        """Any order and grouping of the plan's tiles: claims follow the
        call order, not the plan order."""
        got_plan, want_plan = _twin_plans(mode, "ab")
        stack_ids = [ids[::-1] for ids in reversed(_stack_ids(got_plan))]
        _prepare_both(got_plan, want_plan, stack_ids)


def _split_children(plan, n_parents=3):
    """The lower halves of the first ``n_parents`` tiles of one shape:
    same-shape tiles starting mid-band, as OOM splits create them."""
    shape = max(_stacks(plan.tiles), key=len)
    next_id = max(t.tile_id for t in plan.tiles) + 1
    children = []
    for k, parent in enumerate(shape[:n_parents]):
        mid = (parent.row_start + parent.row_stop) // 2
        children.append(Tile(next_id + k, mid, parent.row_stop, parent.col_start,
                             parent.col_stop, parent.mirror))
    return children


class TestSplitChildren:
    @pytest.mark.parametrize("first", [True, False], ids=["cold", "warm"])
    @pytest.mark.parametrize("join", ["self", "ab", "symmetric"])
    @pytest.mark.parametrize("mode", MODES)
    def test_children_start_mid_band(self, mode, join, first):
        got_plan, want_plan = _twin_plans(mode, join)
        if not first:
            _prepare_both(got_plan, want_plan, [[0]])
        children = _split_children(got_plan)
        assert all(c.row_start not in {t.row_start for t in got_plan.tiles}
                   for c in children)
        got = got_plan.precalc_cache.prepare(got_plan, children)
        want = stacked_prepare(want_plan.precalc_cache, want_plan, children)
        _assert_prepared_equal(got, want, "split children")


class TestEscalatedModes:
    @pytest.mark.parametrize("target", ["FP32", "FP64", "FP16C"])
    @pytest.mark.parametrize("base", ["FP16", "Mixed"])
    def test_first_stack_claims(self, base, target):
        got_plan, want_plan = _twin_plans(base)
        _prepare_both(got_plan, want_plan, _stack_ids(got_plan)[:1])
        got_esc, want_esc = got_plan.escalated(target), want_plan.escalated(target)
        stack_ids = _stack_ids(got_esc)[1:3]
        prepared = _prepare_both(got_esc, want_esc, stack_ids)
        # The escalated planes' charge went to the first tile prepared.
        first = prepared[0]
        assert first.costs[0].flops > first.costs[-1].flops
        assert all(c == prepared[1].costs[0] for c in prepared[1].costs)
        assert _claim_state(got_plan) == _claim_state(want_plan)
        assert _claim_state(got_plan)[PrecisionMode.parse(target)] == (True, False)


class TestStoreHits:
    @pytest.mark.parametrize("join", ["self", "ab"])
    @pytest.mark.parametrize("mode", MODES)
    def test_store_hit_stacks_claim_nothing(self, mode, join):
        store = PrecalcStatsCache()
        warm, _ = _twin_plans(mode, join, n_tiles=4, store=store)
        warm.precalc_cache.prepare(warm, warm.tiles[:1])
        misses = store.misses
        got_plan, want_plan = _twin_plans(mode, join, store=store)
        prepared = _prepare_both(got_plan, want_plan, _stack_ids(got_plan))
        assert store.misses == misses and store.hits > 0
        for p in prepared:
            assert all(c == p.costs[0] for c in p.costs)
            assert all(s == p.saved_flops[0] > 0 for s in p.saved_flops)


def _tiny_gpu(plan, tiles):
    """A GPU too small for any tile of ``tiles``' footprint."""
    gpu = GPUSimulator("A100").gpus[0]
    spec = plan.spec
    gpu.memory.capacity = spec.d * (tiles[0].n_rows + spec.m - 1) * spec.policy.itemsize
    return gpu


def _run_stack(plan, tiles, oom_at, oracle):
    """One stacked run, or (``oracle``) the tiles run one at a time with
    per-tile prepares."""
    gpus = [GPUSimulator("A100").gpus[0] for _ in tiles]
    gpus[oom_at] = _tiny_gpu(plan, tiles)
    backend = NumericBackend()
    if oracle:
        with per_tile_prepares():
            outcomes = [backend.run(plan, [t], [g])[0] for t, g in zip(tiles, gpus)]
    else:
        outcomes = backend.run(plan, tiles, gpus)
    return outcomes, [g.memory.high_water for g in gpus]


def _outcome_key(outcome):
    if isinstance(outcome, DeviceOutOfMemoryError):
        return ("oom", outcome.requested, outcome.available)
    out = outcome.output
    return (
        out.profile.tobytes(), out.indices.tobytes(),
        {name: vars(c) for name, c in out.costs.items()},
        outcome.precalc_saved_flops, outcome.h2d_saved_bytes,
        {name: vars(k) for name, k in outcome.timing.kernels.items()},
    )


class TestOOMInsideAStack:
    @pytest.mark.parametrize("escalated", [False, True], ids=["base", "escalated"])
    @pytest.mark.parametrize("join", ["self", "ab", "symmetric"])
    def test_oom_at_every_position(self, join, escalated):
        for oom_at in range(4):
            got_plan, want_plan = _twin_plans("FP16", join)
            if escalated:
                got_plan, want_plan = got_plan.escalated("FP32"), want_plan.escalated("FP32")
            # The plan's first stack, carrier included, then a later one.
            for ids in _stack_ids(got_plan)[:2]:
                ids = (ids * 4)[:4] if len(ids) < 4 else ids[:4]
                got, got_hw = _run_stack(
                    got_plan, [got_plan.tiles[i] for i in ids], oom_at, False)
                want, want_hw = _run_stack(
                    want_plan, [want_plan.tiles[i] for i in ids], oom_at, True)
                assert isinstance(got[oom_at], DeviceOutOfMemoryError)
                assert [_outcome_key(o) for o in got] == [_outcome_key(o) for o in want]
                assert got_hw == want_hw
            assert _claim_state(got_plan) == _claim_state(want_plan)


class TestEndToEnd:
    """Whole dispatches with the oracle routed in: identical outputs,
    costs, modelled clock and saved flops."""

    @staticmethod
    def _assert_same(got, want):
        assert got.profile.tobytes() == want.profile.tobytes()
        assert np.array_equal(got.index, want.index)
        assert got.costs == want.costs
        assert got.modeled_time == want.modeled_time
        assert got.precalc_saved_flops == want.precalc_saved_flops

    @pytest.mark.parametrize("join", ["self", "ab", "symmetric"])
    @pytest.mark.parametrize("mode", MODES)
    def test_multi_tile(self, mode, join):
        config = RunConfig(mode=mode, n_tiles=36, n_gpus=2,
                           symmetric_tiles=join == "symmetric")
        y = _series(170, seed=4) if join == "ab" else None

        def run():
            return compute_multi_tile(_series(200), y, M, config)

        got = run()
        with per_tile_prepares():
            want = run()
        self._assert_same(got, want)


def _stream_state(inc):
    profile, index = inc.profile()
    acc = inc.accumulator
    return (
        profile.tobytes(), index.tobytes(),
        {name: vars(c) for name, c in acc.costs.items()},
        acc.precalc_saved_flops,
        [vars(op) for op in inc.timeline.ops],
    )


class TestStreams:
    @pytest.mark.parametrize("oom_split", [False, True])
    @pytest.mark.parametrize("join", ["self", "ab"])
    @pytest.mark.parametrize("mode", MODES)
    def test_landmark_appends(self, mode, join, oom_split):
        series = _series(160, seed=5)
        reference = _series(120, seed=6) if join == "ab" else None

        def run():
            failed = set()

            def oom_once(label, tile, gpu_id, attempt):
                key = (tile.row_start, tile.row_stop, tile.col_start, tile.col_stop)
                if oom_split and tile.n_rows * tile.n_cols >= 300 and key not in failed:
                    failed.add(key)
                    raise DeviceOutOfMemoryError(0, 0, "gpu (injected)")

            inc = IncrementalMatrixProfile(
                M, RunConfig(mode=mode), reference=reference,
                policy=ExecutionPolicy(
                    oom_split=oom_split, fault_plan=SimpleNamespace(injector=oom_once)
                ),
            )
            for lo, hi in ((0, 40), (40, 72), (72, 73), (73, 160)):
                inc.append(series[lo:hi])
            if oom_split:
                assert inc.tiles_split > 0
            return _stream_state(inc)

        got = run()
        with per_tile_prepares():
            want = run()
        assert got == want

    @pytest.mark.parametrize("mode", MODES)
    def test_sliding_tenant_rebases(self, mode):
        series = _series(400, seed=7)

        def run():
            svc = StreamIngestService(n_gpus=1, n_workers=1)
            policy = TenantPolicy(m=M, mode=mode, window="sliding", retention=96)
            svc.register("t", policy)
            for i in range(0, len(series), 32):
                svc.ingest("t", series[i : i + 32])
            session = svc._tenants["t"].session
            assert session.counters.rebases > 0
            return _stream_state(session.stream), session.base_offset

        got = run()
        with per_tile_prepares():
            want = run()
        assert got == want
