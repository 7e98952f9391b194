"""The stream tier's batched host paths against their per-item oracles.

``SketchMonitor.score`` sketches an ingest step's whole window stack and
searches the history with a GEMM filter and direct sums over its
candidates; ``StreamPlaneCache.prepare`` computes a
dispatch's seeds in one batch and slices them per tile; the planes grow
in capacity-doubling buffers.  Each must reproduce the per-window /
per-tile / from-scratch value bit for bit (``tests/stream_oracle.py``).
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.config import RunConfig
from repro.core.tiling import assign_tiles
from repro.engine import (
    ExecutionPolicy,
    JobSpec,
    NumericBackend,
    ProfileAccumulator,
    execute_plan,
)
from repro.gpu.memory import DeviceOutOfMemoryError
from repro.gpu.simulator import GPUSimulator
from repro.kernels.precalc import _delta_coefficients, _window_stats
from repro.precision.modes import PrecisionMode
from repro.streams import (
    IncrementalMatrixProfile,
    SketchMonitor,
    StreamIngestService,
    StreamPlaneCache,
    TenantPolicy,
)
from repro.streams import ingest as ingest_module
from repro.streams import sketch as sketch_module

from .stream_oracle import PerWindowSketchMonitor, per_tile_seeds

MODES = ("FP64", "FP32", "Mixed", "FP16", "FP16C")


def _fingerprint(scores):
    return [
        (s.position, s.estimate.hex(), s.threshold.hex(), s.alarm) for s in scores
    ]


def _wave(rng, n, d, m, at):
    """The e2e ``stream_ingest`` gated feed: a sine per dimension with a
    planted noise-burst discord at ``at``."""
    t = np.arange(n)[:, None]
    freq = 0.005 * 10.0 ** (np.arange(d) / max(d - 1, 1))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=d)
    wave = np.sin(2.0 * np.pi * freq * t + phase) + 0.05 * rng.standard_normal((n, d))
    wave[at : at + m] = rng.standard_normal((m, d))
    return wave


def _score_in_steps(monitor, windows, prime, steps):
    monitor.prime(windows[:prime])
    scores = []
    lo = prime
    for step in itertools.cycle(steps):
        if lo >= len(windows):
            return scores
        scores.extend(monitor.score(windows[lo : lo + step]))
        lo += step


class TestSketchOracle:
    """Batched ``score``/``prime`` == the per-window ``np.vstack`` monitor."""

    CASES = {
        "auto-d2": (2, {}),
        "fixed": (2, {"threshold": 0.4}),
        "rolling": (2, {"rolling": 24}),
        "d1": (1, {}),
        "d3": (3, {"k": 8, "exclusion": 40}),
        "flat": (2, {}),
    }

    @pytest.mark.parametrize("chunk", [sketch_module.CHUNK_ELEMENTS, 300, 1])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_score_sequence_bit_identical(self, rng, monkeypatch, case, chunk):
        monkeypatch.setattr(sketch_module, "CHUNK_ELEMENTS", chunk)
        d, kw = self.CASES[case]
        m = 24
        series = _wave(rng, 420, d, m, at=330)
        if case == "flat":
            # Constant stretches: zero centred norms hit the ``tiny`` clamp.
            series[60:140] = 1.5
            series[200:230, 0] = 0.0
        # Samples contiguous along m, as the stream's layout hands them out
        # (the old monitor's reductions depended on the window's strides).
        windows = np.ascontiguousarray(sliding_window_view(series, m, axis=0))
        for prime, steps in ((0, [1]), (5, [7, 32, 3]), (40, [400])):
            got = _score_in_steps(
                SketchMonitor(m, d, warmup=12, seed=5, **kw), windows, prime, steps
            )
            want = _score_in_steps(
                PerWindowSketchMonitor(m, d, warmup=12, seed=5, **kw),
                windows, prime, steps,
            )
            assert _fingerprint(got) == _fingerprint(want), (prime, steps)
        alarms = {s.alarm for s in want}
        assert alarms == {True, False}  # the gate both fires and suppresses

    def test_empty_stack_scores_nothing(self):
        monitor = SketchMonitor(8, 2)
        assert monitor.score(np.empty((0, 2, 8))) == ()
        assert monitor.n_windows == 0
        with pytest.raises(ValueError, match=r"windows must be \(B, 2, 8\)"):
            monitor.score(np.zeros((3, 1, 8)))


def _assert_matches_oracle(windows, d, m, prime=0, steps=(32,), **kw):
    """Batched scores == the per-window oracle's; returns the oracle's."""
    got = _score_in_steps(SketchMonitor(m, d, **kw), windows, prime, steps)
    want = _score_in_steps(PerWindowSketchMonitor(m, d, **kw), windows, prime, steps)
    assert _fingerprint(got) == _fingerprint(want)
    return want


def _windows(series, m):
    return np.ascontiguousarray(sliding_window_view(series, m, axis=0))


class TestSketchFilterAdversarial:
    """The GEMM filter never changes a score: ties, zero sketches,
    extreme scales, same-step eligibility, every pairwise-sum branch of
    the direct sums, non-finite windows and tight budgets."""

    M = 24

    @pytest.fixture(params=[sketch_module.FILTER_ELEMENTS, 50, 1])
    def budget(self, request, monkeypatch):
        monkeypatch.setattr(sketch_module, "FILTER_ELEMENTS", request.param)
        return request.param

    def test_repeated_and_periodic_windows(self, rng, budget):
        period = np.sin(2 * np.pi * np.arange(12) / 12)[:, None] * [1.0, -0.5]
        period[3] += 0.3  # not symmetric: distinct phases, equal repeats
        series = np.tile(period, (30, 1))
        series[200:] += 0.01 * rng.standard_normal((160, 2))
        want = _assert_matches_oracle(_windows(series, self.M), 2, self.M, warmup=4)
        # Exact repeats score exactly zero.
        assert any(s.estimate == 0.0 for s in want)

    def test_flat_windows_give_zero_sketches(self, rng, budget):
        series = _wave(rng, 300, 2, self.M, at=250)
        series[:120] = 2.0
        series[160:200, 1] = -1.0
        windows = _windows(series, self.M)
        assert not SketchMonitor(self.M, 2)._project(windows[:90]).any()
        _assert_matches_oracle(windows, 2, self.M, steps=(5, 40))

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_extreme_scales(self, rng, budget, scale):
        series = scale * _wave(rng, 300, 2, self.M, at=250)
        _assert_matches_oracle(_windows(series, self.M), 2, self.M, prime=20)

    @pytest.mark.parametrize("steps", [(1,), (40,), (200, 7)])
    def test_same_step_eligibility(self, rng, budget, steps):
        # Steps longer than the exclusion zone (6) score windows against
        # windows of their own step.
        series = _wave(rng, 320, 2, self.M, at=260)
        _assert_matches_oracle(_windows(series, self.M), 2, self.M, steps=steps)

    @pytest.mark.parametrize("k", [1, 7, 8, 16, 33])
    def test_sketch_widths(self, rng, budget, k):
        series = _wave(rng, 260, 3, self.M, at=200)
        _assert_matches_oracle(
            _windows(series, self.M), 3, self.M, prime=10, steps=(9, 32), k=k
        )

    def test_nan_window_takes_the_direct_scan(self, rng, budget):
        series = _wave(rng, 300, 2, self.M, at=250)
        series[100, 0] = np.nan
        want = _assert_matches_oracle(_windows(series, self.M), 2, self.M, steps=(16,))
        # Once a NaN sketch is eligible every score is NaN, as the full
        # scan's ``min`` makes it; a filter that dropped the row would not.
        exclusion = math.ceil(self.M / 4)
        assert all(math.isnan(s.estimate) for s in want if s.position > 100 + exclusion)
        assert all(
            math.isfinite(s.estimate) for s in want if exclusion < s.position < 100 - self.M
        )

    @pytest.mark.parametrize("spread", [1.0, 1e-6, 1e-9, 1e-13])
    @pytest.mark.parametrize("k", [1, 8, 33])
    def test_candidates_hold_the_direct_argmin(self, rng, k, spread):
        """On random histories — near-duplicates down to the last ulps
        included — every row attaining a window's direct minimum is a
        candidate, and well-separated rows are filtered out."""
        monitor = SketchMonitor(self.M, 2, k=k)
        centre = rng.standard_normal(k)
        history = centre + spread * rng.standard_normal((400, k))
        history[50] = history[60]  # an exact tie
        monitor._append(history)
        s = np.vstack([
            centre + spread * rng.standard_normal((12, k)),
            history[60],
            rng.standard_normal((3, k)),
        ])
        counts = np.arange(len(history) - len(s) + 1, len(history) + 1)
        candidates, exact = monitor._candidates(s, counts)
        assert exact.all()
        for b, c in enumerate(counts):
            direct = ((history[:c] - s[b]) ** 2).sum(axis=1)
            assert candidates[b, : c][direct == direct.min()].all(), b
            assert not candidates[b, c:].any()
        if spread == 1.0:
            assert candidates.sum() < 2 * len(s) + 4


def _run_gated(monkeypatch, monitor_cls, feed, policy, batch):
    monkeypatch.setattr(ingest_module, "SketchMonitor", monitor_cls)
    svc = StreamIngestService(n_gpus=1)
    svc.register("gated", policy)
    reports = [
        svc.ingest("gated", feed[i : i + batch]) for i in range(0, len(feed), batch)
    ]
    return svc, reports


class TestGatedTenantOracle:
    """The service's gated tenant is byte-identical with the oracle
    monitor standing in for the batched one."""

    def test_benchmark_wave_with_sliding_reprime(self, monkeypatch):
        m, n, batch = 32, 1024, 32
        wave = _wave(np.random.default_rng(0), n, 2, m, at=int(0.8 * n))
        policy = TenantPolicy(
            m=m, mode="FP32", window="sliding", retention=256,
            sketch_gate=True, sketch_warmup=24, sketch_seed=1,
        )
        runs = []
        for cls in (SketchMonitor, PerWindowSketchMonitor):
            svc, reports = _run_gated(monkeypatch, cls, wave, policy, batch)
            assert isinstance(svc.tenant("gated").monitor, cls)
            runs.append((svc, reports))
        (new, new_reports), (old, old_reports) = runs
        assert new.tenant("gated").counters.rebases > 0  # re-primed
        assert _fingerprint(new.scores("gated")) == _fingerprint(old.scores("gated"))
        assert [_fingerprint(r.alarms) for r in new_reports] == [
            _fingerprint(r.alarms) for r in old_reports
        ]
        for got, want in zip(new.profile("gated"), old.profile("gated")):
            assert got.tobytes() == want.tobytes()

    def test_restore_reprimes_identically(self, monkeypatch, tmp_path):
        m = 16
        wave = _wave(np.random.default_rng(3), 400, 2, m, at=300)
        policy = TenantPolicy(m=m, sketch_gate=True, sketch_warmup=10, sketch_seed=2)
        _run_gated(monkeypatch, SketchMonitor, wave[:200], policy, 25)[0].checkpoint(
            "gated", tmp_path / "ckpt"
        )
        tails = []
        for cls in (SketchMonitor, PerWindowSketchMonitor):
            monkeypatch.setattr(ingest_module, "SketchMonitor", cls)
            svc = StreamIngestService(n_gpus=1)
            session = svc.restore("gated", tmp_path / "ckpt", policy)
            assert session.monitor.n_windows == session.stream.n_q_seg
            for i in range(200, 400, 25):
                svc.ingest("gated", wave[i : i + 25])
            tails.append(_fingerprint(svc.scores("gated")))
        assert tails[0] == tails[1]
        assert len(tails[0]) == 200


class TestScoreRing:
    """``scores()`` keeps the last ``SCORE_HISTORY`` scores of a run."""

    def test_scores_are_the_tail_of_an_unbounded_run(self, monkeypatch):
        assert ingest_module.SCORE_HISTORY >= 4096  # a long check sees all
        m = 16
        wave = _wave(np.random.default_rng(4), 400, 2, m, at=330)
        policy = TenantPolicy(m=m, sketch_gate=True, sketch_warmup=10, sketch_seed=2)
        runs = []
        for ring in (64, None):
            monkeypatch.setattr(ingest_module, "SCORE_HISTORY", ring)
            svc, reports = _run_gated(monkeypatch, SketchMonitor, wave, policy, 25)
            runs.append((svc, reports))
        (bounded, bounded_reports), (unbounded, unbounded_reports) = runs
        tail = _fingerprint(unbounded.scores("gated"))
        assert len(tail) == 400 - m + 1 > 64
        assert _fingerprint(bounded.scores("gated")) == tail[-64:]
        assert [_fingerprint(r.alarms) for r in bounded_reports] == [
            _fingerprint(r.alarms) for r in unbounded_reports
        ]
        assert bounded.tenant("gated").counters == unbounded.tenant("gated").counters


def _bounded(rng, n, d):
    t = np.arange(n)[:, None]
    return np.sin(2 * np.pi * t / (9 + 4 * np.arange(d))) + 0.2 * rng.normal(size=(n, d))


def _other_mode(mode):
    return "FP32" if mode in ("FP64", "FP16", "FP16C") else "FP16C"


def _plan_tiles(calls):
    """The tile lists of the plans ``calls`` prepared, in order."""
    plans = []
    for plan, _, _ in calls:
        if not plans or plans[-1] is not plan:
            plans.append(plan)
    return [plan.tiles for plan in plans]


class TestSeedOracle:
    """Plan-batched stream seeds == per-tile one-start ``seed_qt_rows``."""

    @pytest.fixture
    def prepared(self, monkeypatch):
        calls = []
        original = StreamPlaneCache.prepare

        def spy(cache, plan, tiles):
            out = original(cache, plan, tiles)
            for k, tile in enumerate(tiles):
                calls.append((plan, tile, out.result.select(len(tiles), [k])))
            return out

        monkeypatch.setattr(StreamPlaneCache, "prepare", spy)
        return calls

    @staticmethod
    def _assert_seeds(calls):
        assert calls
        for plan, tile, result in calls:
            row, col = per_tile_seeds(plan, tile)
            for got, want in ((result.qt_row0, row), (result.qt_col0, col)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), tile

    @pytest.mark.parametrize("mode", MODES)
    def test_self_join_cover(self, rng, prepared, mode):
        series = _bounded(rng, 120, 2)
        inc = IncrementalMatrixProfile(12, RunConfig(mode=mode))
        for lo, hi in ((0, 40), (40, 47), (47, 120)):
            inc.append(series[lo:hi])
        # Every step after the first covers with both tiles B and A.
        assert [len(t) for t in _plan_tiles(prepared)] == [1, 2, 2]
        self._assert_seeds(prepared)

    @pytest.mark.parametrize("mode", MODES)
    def test_ab_join(self, rng, prepared, mode):
        inc = IncrementalMatrixProfile(
            10, RunConfig(mode=mode), reference=_bounded(rng, 90, 3)
        )
        series = _bounded(rng, 70, 3)
        for lo, hi in ((0, 30), (30, 39), (39, 70)):
            inc.append(series[lo:hi])
        self._assert_seeds(prepared)

    @pytest.mark.parametrize("mode", MODES)
    def test_gated_probe(self, rng, prepared, mode):
        series = _bounded(rng, 90, 2)
        inc = IncrementalMatrixProfile(12, RunConfig(mode=mode))
        inc.ingest(series[:60])
        inc.probe(10, 20)
        inc.ingest(series[60:])
        inc.probe(0, 3)
        inc.probe(70, 79)
        self._assert_seeds(prepared)

    @pytest.mark.parametrize("mode", MODES)
    def test_shed_plan(self, rng, prepared, mode):
        series = _bounded(rng, 100, 2)
        inc = IncrementalMatrixProfile(12, RunConfig(mode=mode))
        inc.append(series[:50])
        inc.append(series[50:80], mode=_other_mode(mode))
        inc.append(series[80:])
        modes = {PrecisionMode.parse(plan.spec.config.mode) for plan, _, _ in prepared}
        assert modes == {PrecisionMode.parse(mode), PrecisionMode.parse(_other_mode(mode))}
        self._assert_seeds(prepared)

    @pytest.mark.parametrize("mode", MODES)
    def test_oom_split_child_mid_band(self, rng, prepared, mode):
        failed = set()

        def oom_once(label, tile, gpu_id, attempt):
            key = (tile.row_start, tile.row_stop, tile.col_start, tile.col_stop)
            if tile.n_rows * tile.n_cols >= 300 and key not in failed:
                failed.add(key)
                raise DeviceOutOfMemoryError(0, 0, "gpu (injected)")

        series = _bounded(rng, 90, 2)
        inc = IncrementalMatrixProfile(
            12, RunConfig(mode=mode),
            policy=ExecutionPolicy(
                oom_split=True, fault_plan=SimpleNamespace(injector=oom_once)
            ),
        )
        inc.append(series[:50])
        inc.append(series[50:])
        assert inc.tiles_split > 0
        mid_band = [
            tile for plan, tile, _ in prepared
            if tile.row_start not in {t.row_start for t in plan.tiles}
            or tile.col_start not in {t.col_start for t in plan.tiles}
        ]
        assert mid_band  # the one-start fallback ran
        self._assert_seeds(prepared)


class TestLandmarkPlaneGrowth:
    """Planes grown by many appends == a from-scratch build, with
    O(log n) buffer reallocations."""

    @pytest.mark.parametrize("mode", MODES)
    def test_many_appends_match_scratch_build(self, rng, mode):
        m = 8
        series = _bounded(rng, 400, 2)
        inc = IncrementalMatrixProfile(m, RunConfig(mode=mode))
        inc.append(series[:m])
        capacities = []
        for i in range(m, len(series)):
            inc.append(series[i : i + 1])
            role = inc._planes._modes[PrecisionMode.parse(mode)].r
            capacities.append(role["mu"].capacity)
        policy = inc.policy
        layout = inc._stream.astype(policy.precalc)
        mu, inv = _window_stats(layout, m, policy)
        df, dg = _delta_coefficients(layout, mu, m, policy.precalc)
        want = {
            "series_pd": layout, "mu_pd": mu, "mu": mu.astype(policy.storage),
            "inv": inv.astype(policy.storage), "df": df.astype(policy.storage),
            "dg": dg.astype(policy.storage),
        }
        for name, expected in want.items():
            got = role[name].view
            assert got.dtype == expected.dtype, name
            assert got.tobytes() == np.ascontiguousarray(expected).tobytes(), name
        n_seg = len(series) - m + 1
        reallocations = sum(a != b for a, b in zip(capacities, capacities[1:]))
        assert reallocations <= math.ceil(math.log2(n_seg))


class TestLandmarkStreamLayout:
    """The stream layout grows in a capacity-doubling buffer: the same
    bytes as concatenating every cast chunk, O(log n) reallocations, one
    view per dispatch (so a self-join stays a self-join) and a
    checkpoint that round-trips it."""

    STEPS = (40, 1, 1, 7, 32, 3, 64, 1, 19, 32, 5, 90, 2, 33)

    @staticmethod
    def _batch(inc, layout):
        """Full recompute over the stream's tiles on a contiguous layout."""
        cfg = inc.config
        tiles = list(inc.equivalent_tiles())
        tr = layout if inc.self_join else inc._ref_layout
        spec = JobSpec.from_layouts(tr, layout, inc.m, cfg, exclusion_zone=inc.exclusion_zone)
        sim = GPUSimulator(cfg.device, cfg.n_gpus, cfg.n_streams)
        plan = spec.plan(tiles=tiles, assignment=assign_tiles(tiles, sim.n_gpus))
        acc = ProfileAccumulator(spec.d, inc.n_q_seg, cfg.policy)
        execute_plan(plan, NumericBackend(), sim, accumulator=acc)
        return acc.host_profile(), acc.host_index()

    @pytest.mark.parametrize("mode", ("FP32", "FP16"))
    @pytest.mark.parametrize("join", ("self", "ab"))
    def test_many_appends_match_concatenation(self, rng, mode, join):
        m = 8
        ref = None if join == "self" else _bounded(rng, 90, 2)
        series = _bounded(rng, sum(self.STEPS), 2)
        inc = IncrementalMatrixProfile(m, RunConfig(mode=mode), reference=ref)
        storage = inc.policy.storage
        chunks, capacities, off = [], [], 0
        for step in self.STEPS:
            inc.append(series[off : off + step])
            chunks.append(np.ascontiguousarray(series[off : off + step].T, dtype=storage))
            capacities.append(inc._samples.capacity)
            off += step
        layout = np.concatenate(chunks, axis=1)
        assert inc._stream.dtype == layout.dtype
        assert inc._stream.tobytes() == layout.tobytes()
        got, want = inc.profile(), self._batch(inc, layout)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])
        planes = inc._planes._modes[PrecisionMode.parse(mode)]
        assert (planes.q is planes.r) == (join == "self")  # one view per dispatch
        reallocations = sum(a != b for a, b in zip(capacities, capacities[1:]))
        assert reallocations <= math.ceil(math.log2(off))

    def test_single_sample_appends_reallocate_logarithmically(self, rng):
        m = 8
        series = _bounded(rng, 2000, 1)
        inc = IncrementalMatrixProfile(m, RunConfig(mode="FP32"))
        inc.ingest(series[:m])
        capacities = []
        for i in range(m, len(series)):
            inc.ingest(series[i : i + 1])
            capacities.append(inc._samples.capacity)
        reallocations = sum(a != b for a, b in zip(capacities, capacities[1:]))
        assert reallocations <= math.ceil(math.log2(len(series)))
        assert inc._stream.tobytes() == series.T.astype(np.float32).tobytes()

    @pytest.mark.parametrize("join", ("self", "ab"))
    def test_checkpoint_round_trips_the_layout(self, rng, tmp_path, join):
        m = 8
        ref = None if join == "self" else _bounded(rng, 70, 2)
        series = _bounded(rng, 150, 2)
        cfg = RunConfig(mode="FP16")
        full = IncrementalMatrixProfile(m, cfg, reference=ref)
        half = IncrementalMatrixProfile(m, cfg, reference=ref)
        for start in range(0, 90, 13):
            full.append(series[start : min(start + 13, 90)])
            half.append(series[start : min(start + 13, 90)])
        assert half._samples.capacity > half.n_samples  # a strided view
        path = tmp_path / "stream.npz"
        half.save(path)
        resumed = IncrementalMatrixProfile.load(path)
        assert resumed._stream.tobytes() == half._stream.tobytes()
        for start in range(90, 150, 17):
            full.append(series[start : start + 17])
            resumed.append(series[start : start + 17])
        assert resumed._stream.tobytes() == full._stream.tobytes()
        assert resumed.profile()[0].tobytes() == full.profile()[0].tobytes()
        assert np.array_equal(resumed.profile()[1], full.profile()[1])
        planes = resumed._planes._modes[PrecisionMode.FP16]
        assert (planes.q is planes.r) == (join == "self")
