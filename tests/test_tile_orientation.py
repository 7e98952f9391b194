"""Tall tiles run along their short side: the transposed blocked loop.

``run_tile`` steps a row-blocked tile over query columns instead of
reference rows whenever the tile has fewer columns than rows
(``n_q < n_r``).  The contract pinned here: such a tile is bit-identical
to the per-row oracle (``tests/per_row_oracle.py``) — profile, index and
every field of the per-kernel ``costs`` — in all five modes, for self-
and AB-joins, both sort strategies, with and without the plan-level
precalc cache, at every panel width around the block ``B``, under the
exclusion zone and its tie-breaks, and through the engine's fault stack
and the streaming tier.  Mirrored and tensor-core tiles keep the
row-major loop.  The tests force small blocks by patching the super-step
budget ``backends.SUPER_STEP_ELEMENTS``, so tall tiles take several
panels.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.core.tiling import assign_tiles
from repro.engine import HealthPolicy, JobSpec, ProfileAccumulator, RunJournal, resume_plan
from repro.engine import backends
from repro.engine.backends import NumericBackend, run_tile
from repro.engine.dispatch import execute_plan
from repro.engine.faults import FaultPlan
from repro.gpu.perfmodel import dist_calc_cost
from repro.gpu.simulator import GPUSimulator
from repro.kernels.dist_calc import DistCalcKernel
from repro.kernels.layout import to_device_layout
from repro.kernels.precalc import PrecalcResult
from repro.kernels.update import UpdateKernel
from repro.streams import IncrementalMatrixProfile

from .per_row_oracle import per_row_engine, per_row_tile, per_tile_precalc
from .precalc_oracle import PrecalcKernel, kernel_precalc

MODES = ("FP64", "FP32", "FP16", "Mixed", "FP16C")
B = 8  # block of the panel-width runs; small, so tall tiles take several panels
#: A budget of seven rows of a d = 3, 56-wide tile: every tall tile of
#: these tests steps through several super-steps.
SMALL = 7 * 3 * 56


@pytest.fixture
def small_steps(monkeypatch):
    monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", SMALL)


def _series(n, d, seed=5):
    """Bounded-amplitude multi-sine series (safe for FP16)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    base = np.stack([np.sin(2 * np.pi * t / (11 + 4 * k)) for k in range(d)], axis=1)
    return base + 0.1 * rng.normal(size=(n, d))


@pytest.fixture
def transposed_steps(monkeypatch):
    """Counts super-steps of the transposed loop, per bound tile stack."""
    steps = []
    bind, run_block = DistCalcKernel.bind, DistCalcKernel.run_block

    def spy_bind(self, pre, transposed=False):
        if transposed:
            steps.append(0)
        return bind(self, pre, transposed=transposed)

    def spy_run_block(self, start, rows, out):
        if self.transposed:
            steps[-1] += 1
        return run_block(self, start, rows, out)

    monkeypatch.setattr(DistCalcKernel, "bind", spy_bind)
    monkeypatch.setattr(DistCalcKernel, "run_block", spy_run_block)
    return steps


@pytest.fixture
def transposed_calls(monkeypatch):
    """Counts tiles that took the transposed loop."""
    calls = []
    original = PrecalcResult.transposed

    def spy(self):
        calls.append((self.n_r_seg, self.n_q_seg))
        return original(self)

    monkeypatch.setattr(PrecalcResult, "transposed", spy)
    return calls


def _costs(costs):
    return {name: vars(cost).copy() for name, cost in costs.items()}


def _result(res):
    return res.profile, res.index, _costs(res.costs), res.timeline.makespan


def _assert_same(got, want, label):
    assert np.array_equal(got[0].view(np.uint8), want[0].view(np.uint8)), f"profile {label}"
    assert np.array_equal(got[1], want[1]), f"index {label}"
    assert got[2] == want[2], f"costs {label}"
    assert got[3] == want[3], f"makespan {label}"


def _tile(tr, tq, m, cfg, blocked=True, **kwargs):
    """``run_tile`` under the current budget; ``blocked=False`` runs the
    per-row oracle."""
    tile = run_tile if blocked else per_row_tile
    precalc = kernel_precalc(tr, tq, m, cfg.policy, cfg.launch)
    return tile(tr, tq, m, cfg.policy, cfg.launch, precalc=precalc, **kwargs)


def _tile_result(out):
    return out.profile, out.indices, _costs(out.costs), 0.0


class TestEngineBitIdentity:
    """Tall tiles through the engine == the per-row oracle."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_tall_tiles_match_per_row(self, mode, d, transposed_steps, small_steps):
        m = 10
        ref = _series(120, d)
        qry = _series(30, d, seed=7)
        # Self-join: a 2x4 grid of 56x28 tiles (the diagonal crosses some
        # of them); AB join: one 111x21 tile.
        joins = ((None, 8), (qry, 1))
        for query, n_tiles in joins:
            for amortize in (True, False):
                cfg = RunConfig(mode=mode, n_tiles=n_tiles)
                precalc = nullcontext if amortize else per_tile_precalc
                with precalc(), per_row_engine():
                    want = _result(compute_multi_tile(ref, query, m, cfg))
                before = len(transposed_steps)
                with precalc():
                    got = _result(compute_multi_tile(ref, query, m, cfg))
                # Tall tiles ran transposed, over several super-steps.
                assert len(transposed_steps) > before
                assert min(transposed_steps[before:]) > 1
                _assert_same(
                    got, want,
                    f"{mode} d={d} {'self' if query is None else 'AB'} "
                    f"amortize={amortize}",
                )

class TestDistancePanels:
    @pytest.mark.parametrize("mode", MODES)
    def test_transposed_panels_are_the_row_major_panels(self, mode):
        """Every distance of the tile, not just the winners: the
        transposed walk's panels are the row-major planes, transposed.
        The seed corner QT[0, 0] is perturbed in ``qt_col0`` (FFT seeds
        round it differently there) — the row-major walk reads it from
        ``qt_row0`` only, and so must the transposed one."""
        m, d = 8, 3
        cfg = RunConfig(mode=mode)
        layout = to_device_layout(_series(70, d), cfg.policy.storage)
        tr, tq = layout[:, :50], np.ascontiguousarray(layout[:, 30:45])
        pre = PrecalcKernel(config=cfg.launch, policy=cfg.policy).run(tr, tq, m)
        pre.qt_col0 = pre.qt_col0.copy()
        pre.qt_col0[:, 0] = np.nextafter(pre.qt_col0[:, 0], np.inf)
        n_r, n_q = pre.n_r_seg, pre.n_q_seg
        kernel = DistCalcKernel(config=cfg.launch, policy=cfg.policy)
        kernel.bind(pre)
        with kernel.lease(n_r) as ws:
            want = kernel.run_block(0, n_r, ws).copy()
        kernel = DistCalcKernel(config=cfg.launch, policy=cfg.policy)
        kernel.bind(pre.transposed(), transposed=True)
        with kernel.lease(B) as ws:
            got = np.concatenate(
                [kernel.run_block(j0, min(B, n_q - j0), ws).copy()
                 for j0 in range(0, n_q, B)],
                axis=1,
            )
        got = np.ascontiguousarray(got.swapaxes(1, 2))
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
        # run_tile charges the logical row-major tile, not the panels.
        tile = run_tile(tr, tq, m, cfg.policy, cfg.launch,
                        precalc=kernel_precalc(tr, tq, m, cfg.policy, cfg.launch))
        assert tile.costs["dist_calc"] == dist_calc_cost(
            n_r, n_q, d, cfg.policy.itemsize, cfg.launch)


class TestPanelWidths:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_q", [1, B - 1, B, B + 1])
    def test_widths_around_block(self, mode, n_q, transposed_calls, monkeypatch):
        """n_q in {1, B-1, B, B+1} against ~90 rows in blocks of ``B``
        columns, with a self-join exclusion zone that straddles the
        tile."""
        m, d = 8, 3
        n_r = 97 - m + 1
        monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", B * d * n_r)
        cfg = RunConfig(mode=mode)
        layout = to_device_layout(_series(97, d), cfg.policy.storage)
        c0 = 40
        tq = np.ascontiguousarray(layout[:, c0 : c0 + n_q + m - 1])
        kwargs = dict(col_offset=c0, exclusion_zone=m // 2)
        want = _tile_result(_tile(layout, tq, m, cfg, False, **kwargs))
        got = _tile_result(_tile(layout, tq, m, cfg, **kwargs))
        assert transposed_calls == [(n_r, n_q)]
        _assert_same(got, want, f"{mode} n_q={n_q}")

    @pytest.mark.parametrize("n_q, transposed", [(15, True), (9, True), (16, False),
                                                 (17, False)])
    def test_only_fewer_columns_transpose(self, n_q, transposed, transposed_calls):
        """Square and wide tiles stay row-major; ``n_q < n_r`` transposes."""
        m = 8
        cfg = RunConfig(mode="FP32")
        layout = to_device_layout(_series(60, 2), cfg.policy.storage)
        tr = np.ascontiguousarray(layout[:, : 16 + m - 1])  # n_r = 16
        tq = np.ascontiguousarray(layout[:, 30 : 30 + n_q + m - 1])
        _tile(tr, tq, m, cfg)
        assert transposed_calls == ([(16, n_q)] if transposed else [])


class TestExclusionAndTies:
    @pytest.mark.parametrize("mode", ["FP64", "FP16"])
    def test_fully_excluded_column_keeps_minus_one(self, mode):
        m = 8
        cfg = RunConfig(mode=mode)
        layout = to_device_layout(_series(60, 2), cfg.policy.storage)
        tr = np.ascontiguousarray(layout[:, : 30 + m - 1])  # rows 0..29
        tq = np.ascontiguousarray(layout[:, 12 : 12 + 3 + m - 1])  # cols 12..14
        kwargs = dict(col_offset=12, exclusion_zone=15)
        want = _tile(tr, tq, m, cfg, False, **kwargs)
        got = _tile(tr, tq, m, cfg, **kwargs)
        # Column 14 is within 15 of rows 0..29, all of them.
        assert got.indices[:, 2].tolist() == [-1, -1]
        _assert_same(_tile_result(got), _tile_result(want), mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_periodic_twins(self, mode):
        """An exactly periodic series has a twin of every window every
        period; the transposed reduce must pick the row the sequential
        merge picks."""
        m, period = 8, 12
        t = np.arange(150)
        series = np.stack([np.sin(2 * np.pi * t / period), np.cos(2 * np.pi * t / period)], 1)
        cfg = RunConfig(mode=mode)
        layout = to_device_layout(series, cfg.policy.storage)
        tq = np.ascontiguousarray(layout[:, 60 : 60 + 5 + m - 1])
        kwargs = dict(col_offset=60, exclusion_zone=m // 2)
        want = _tile(layout, tq, m, cfg, False, **kwargs)
        got = _tile(layout, tq, m, cfg, **kwargs)
        _assert_same(_tile_result(got), _tile_result(want), mode)

    def test_transposed_merge_takes_earliest_row_on_ties(self):
        """Exact ties inside one panel: the earliest reference row wins,
        as in the strict-< per-row merge."""
        cfg = RunConfig(mode="FP16")
        d, n_r, cols = 2, 12, 3
        rng = np.random.default_rng(0)
        planes = rng.uniform(1.0, 4.0, size=(d, cols, n_r)).astype(np.float16)
        planes[:, :, [3, 7, 10]] = np.float16(0.5)  # three tied minima per column
        planes[1, 2, :] = np.float16(2.0)  # a column that is all ties
        oracle = UpdateKernel(config=cfg.launch, policy=cfg.policy)
        oracle.allocate(d, cols)
        for i in range(n_r):
            oracle.run(np.ascontiguousarray(planes[:, :, i]), i, row_offset=100)
        update = UpdateKernel(config=cfg.launch, policy=cfg.policy)
        update.allocate(d, cols)
        update.run_block(planes, 0, row_offset=100, transposed=True)
        assert np.array_equal(update.indices, oracle.indices)
        assert np.array_equal(update.profile.view(np.uint16), oracle.profile.view(np.uint16))
        assert update.indices[0].tolist() == [103, 103, 103]
        assert update.indices[1, 2] == 100


def _cfg():
    return RunConfig(mode="FP16", n_tiles=8, n_gpus=2)


class TestFaultComposition:
    """The transposed loop under the engine's recovery machinery, at the
    per-row oracle (``None``), blocks of one row (budget 0) and small
    blocks."""

    def test_health_escalation(self, monkeypatch):
        series = _series(200, 3)
        runs = []
        for budget in (None, 0, SMALL):
            monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", budget or 0)
            plan = FaultPlan(seed=3, corrupt_rate=0.4)
            with per_row_engine() if budget is None else nullcontext():
                res = compute_multi_tile(
                    series, None, 16, _cfg(),
                    health=HealthPolicy(), fault_plan=plan, max_retries=3,
                )
            runs.append(res)
        assert runs[0].escalations
        for res in runs[1:]:
            assert res.escalations == runs[0].escalations
            _assert_same(_result(res), _result(runs[0]), "escalation")

    def test_oom_split(self, monkeypatch):
        series = _series(200, 3)
        runs = []
        for budget in (None, 0, SMALL):
            monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", budget or 0)
            plan = FaultPlan(seed=9, oom_rate=0.4)
            with per_row_engine() if budget is None else nullcontext():
                runs.append(compute_multi_tile(
                    series, None, 16, _cfg(), fault_plan=plan, oom_split=True,
                ))
        assert runs[0].split_tiles
        for res in runs[1:]:
            assert res.split_tiles == runs[0].split_tiles
            _assert_same(_result(res), _result(runs[0]), "oom split")

    def test_parallel_workers(self, small_steps):
        series = _series(200, 3)
        with per_row_engine():
            want = _result(compute_multi_tile(series, None, 16, _cfg()))
        got = _result(compute_multi_tile(
            series, None, 16, _cfg(), parallel_workers=2,
        ))
        _assert_same(got, want, "parallel")

    def test_journal_resume(self, tmp_path, small_steps):
        class KillPlan:
            corruptor = None

            def __init__(self):
                self.seen = 0

            def injector(self, label, tile, gpu_id, attempt):
                self.seen += 1
                if self.seen > 3:
                    raise KeyboardInterrupt("killed mid-run")

        series = _series(200, 3)
        with per_row_engine():
            want = compute_multi_tile(series, None, 16, _cfg())
        path = tmp_path / "journal"
        with pytest.raises(KeyboardInterrupt):
            compute_multi_tile(
                series, None, 16, _cfg(), journal=path, fault_plan=KillPlan(),
            )
        done = len(RunJournal.open(path).completed_records())
        resumed = resume_plan(path)
        assert resumed.resumed_tiles == done > 0
        np.testing.assert_array_equal(resumed.profile, want.profile)
        np.testing.assert_array_equal(resumed.index, want.index)


class TestStreams:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("self_join", [True, False], ids=["self", "AB"])
    def test_equivalent_tiles_match_per_row_batch(self, mode, self_join, transposed_calls,
                                                  small_steps):
        """A stream's tall history bands and probes run transposed; a
        per-row oracle dispatch of its equivalent tiles must agree."""
        m = 12
        series = _series(160, 2)
        reference = None if self_join else _series(140, 2, seed=11)
        inc = IncrementalMatrixProfile(
            m, RunConfig(mode=mode), reference=reference,
        )
        off = 0
        for step in (60, 9, 1, 30, 40, 20):
            inc.append(series[off : off + step])
            off += step
        inc.probe(5, 8)
        assert transposed_calls

        cfg = RunConfig(mode=mode)
        tiles = list(inc.equivalent_tiles())
        tr = inc._stream if self_join else inc._ref_layout
        spec = JobSpec.from_layouts(tr, inc._stream, m, cfg, exclusion_zone=inc.exclusion_zone)
        sim = GPUSimulator(cfg.device, cfg.n_gpus, cfg.n_streams)
        plan = spec.plan(tiles=tiles, assignment=assign_tiles(tiles, sim.n_gpus))
        acc = ProfileAccumulator(spec.d, inc.n_q_seg, cfg.policy)
        with per_row_engine():
            execute_plan(plan, NumericBackend(), sim, accumulator=acc)
        got_p, got_i = inc.profile()
        assert np.array_equal(got_p.view(np.uint8), acc.host_profile().view(np.uint8))
        assert np.array_equal(got_i, acc.host_index())


class TestRowMajorOnly:
    def test_mirror_tiles_never_transpose(self, transposed_calls):
        m = 8
        cfg = RunConfig(mode="FP32")
        layout = to_device_layout(_series(90, 2), cfg.policy.storage)
        tq = np.ascontiguousarray(layout[:, 50 : 50 + 4 + m - 1])
        kwargs = dict(col_offset=50, exclusion_zone=m // 2, mirror=True)
        want = _tile(layout, tq, m, cfg, False, **kwargs)
        got = _tile(layout, tq, m, cfg, **kwargs)
        assert transposed_calls == []
        _assert_same(_tile_result(got), _tile_result(want), "mirror")
        assert np.array_equal(got.mirror_profile, want.mirror_profile)
        assert np.array_equal(got.mirror_indices, want.mirror_indices)

    def test_tensor_core_tiles_never_transpose(self, transposed_calls):
        m = 8
        cfg = RunConfig(mode="Mixed", backend="tensor_core")
        layout = to_device_layout(_series(90, 2), cfg.policy.storage)
        tq = np.ascontiguousarray(layout[:, 50 : 50 + 4 + m - 1])
        _tile(layout, tq, m, cfg, col_offset=50, exclusion_zone=m // 2,
              main_loop="tensor_core")
        assert transposed_calls == []
