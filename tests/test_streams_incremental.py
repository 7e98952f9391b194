"""Tests for the streaming ingestion tier (repro.streams).

The central contract: a stream grown by any append schedule produces the
profile a batch dispatch of its ``equivalent_tiles()`` produces — bit
for bit, in all five precision modes, for self-joins and AB joins.
Plus: the sketch gate's recall/suppression, the tenant service's
admission shedding, backpressure and sliding retention, and
checkpoint/resume.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro import matrix_profile
from repro.baselines.brute_force import brute_force_mdmp
from repro.core.config import RunConfig
from repro.core.tiling import assign_tiles
from repro.engine.accumulate import ProfileAccumulator
from repro.engine.backends import NumericBackend, TensorCoreBackend
from repro.engine.dispatch import execute_plan
from repro.engine.plan import JobSpec
from repro.gpu.simulator import GPUSimulator
from repro.kernels.layout import validate_stream_samples
from repro.precision.errors import (
    dot_product_error_bound,
    implied_correlation,
    streaming_qt_error_bound,
)
from repro.streams import (
    IncrementalMatrixProfile,
    SketchMonitor,
    StreamIngestService,
    StreamPlaneCache,
    TenantPolicy,
)

from .precalc_oracle import PerTileCache

MODES = ("FP64", "FP32", "Mixed", "FP16", "FP16C")

# Append schedules: single rows, bursts, and mixed bursts that straddle
# the tile boundaries earlier steps created.
SCHEDULES = (
    [40] + [1] * 6,
    [23, 23, 23],
    [40, 1, 1, 25, 3],
)


def _series(rng, n, d):
    return rng.normal(size=(n, d)).cumsum(axis=0)


def _batch_profile(inc, cfg):
    """Full recompute over the stream's equivalent tile list."""
    tiles = list(inc.equivalent_tiles())
    tr = inc._stream if inc.self_join else inc._ref_layout
    spec = JobSpec.from_layouts(
        tr, inc._stream, inc.m, cfg, exclusion_zone=inc.exclusion_zone
    )
    sim = GPUSimulator(cfg.device, cfg.n_gpus, cfg.n_streams)
    plan = spec.plan(tiles=tiles, assignment=assign_tiles(tiles, sim.n_gpus))
    acc = ProfileAccumulator(spec.d, inc.n_q_seg, cfg.policy)
    execute_plan(plan, NumericBackend(), sim, accumulator=acc)
    return acc.host_profile(), acc.host_index()


def _assert_bit_identical(got, want):
    gp, gi = got
    wp, wi = want
    np.testing.assert_array_equal(gp.view(np.uint8), wp.view(np.uint8))
    np.testing.assert_array_equal(gi, wi)


class TestIncrementalBitIdentity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=("singles", "bursts", "mixed"))
    def test_self_join_matches_batch(self, rng, mode, schedule):
        series = _series(rng, sum(schedule), 2)
        cfg = RunConfig(mode=mode)
        inc = IncrementalMatrixProfile(12, cfg)
        off = 0
        for step in schedule:
            inc.append(series[off : off + step])
            off += step
        _assert_bit_identical(inc.profile(), _batch_profile(inc, cfg))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=("singles", "bursts", "mixed"))
    def test_ab_join_matches_batch(self, rng, mode, schedule):
        ref = _series(rng, 80, 3)
        qry = _series(rng, sum(schedule), 3)
        cfg = RunConfig(mode=mode)
        inc = IncrementalMatrixProfile(10, cfg, reference=ref)
        off = 0
        for step in schedule:
            inc.append(qry[off : off + step])
            off += step
        _assert_bit_identical(inc.profile(), _batch_profile(inc, cfg))

    @pytest.mark.parametrize("mode", ("FP64", "FP16C"))
    def test_plane_cache_matches_uncached(self, rng, mode):
        """A stream whose plane cache recomputes planes per tile (the
        oracle's fake); the stream cache must not perturb a single bit."""
        series = _series(rng, 90, 2)
        a = IncrementalMatrixProfile(12, RunConfig(mode=mode))
        b = IncrementalMatrixProfile(12, RunConfig(mode=mode))
        b._planes = PerTileCache()  # every band tile runs the kernel itself
        off = 0
        for step in (40, 1, 49):
            a.append(series[off : off + step])
            b.append(series[off : off + step])
            off += step
        _assert_bit_identical(a.profile(), b.profile())
        assert a.accumulator.precalc_saved_flops > 0
        assert b.accumulator.precalc_saved_flops == 0

    def test_single_append_matches_one_shot(self, rng):
        """One big append equals constructing with initial=..."""
        series = _series(rng, 100, 1)
        a = IncrementalMatrixProfile(16, RunConfig(mode="FP32"))
        a.append(series)
        b = IncrementalMatrixProfile(16, RunConfig(mode="FP32"), initial=series)
        _assert_bit_identical(a.profile(), b.profile())

    def test_checkpoint_resume_bit_identical(self, rng, tmp_path):
        series = _series(rng, 120, 2)
        cfg = RunConfig(mode="FP16C")
        full = IncrementalMatrixProfile(12, cfg)
        full.append(series[:70])
        full.append(series[70:])

        half = IncrementalMatrixProfile(12, cfg)
        half.append(series[:70])
        path = tmp_path / "stream.npz"
        half.save(path)
        resumed = IncrementalMatrixProfile.load(path)
        resumed.append(series[70:])
        _assert_bit_identical(resumed.profile(), full.profile())
        assert resumed.equivalent_tiles() == full.equivalent_tiles()

    @pytest.mark.parametrize("join", ("self", "ab"))
    def test_checkpoint_suffixless_path(self, rng, tmp_path, join):
        """Regression: save() let numpy append ".npz" to a path without a
        suffix, so load() of the same path raised FileNotFoundError."""
        ref = None if join == "self" else _series(rng, 60, 2)
        series = _series(rng, 90, 2)
        cfg = RunConfig(mode="FP16")
        full = IncrementalMatrixProfile(8, cfg, reference=ref)
        full.append(series[:50])
        full.append(series[50:])

        # The stream API.
        half = IncrementalMatrixProfile(8, cfg, reference=ref)
        half.append(series[:50])
        path = tmp_path / "s"
        half.save(path)
        assert path.exists()
        resumed = IncrementalMatrixProfile.load(path)
        resumed.append(series[50:])
        _assert_bit_identical(resumed.profile(), full.profile())

        # The tenant service API.
        policy = TenantPolicy(m=8, mode="FP16")
        svc = StreamIngestService(n_gpus=1)
        svc.register("t", policy, reference=ref)
        svc.ingest("t", series[:50])
        svc_path = tmp_path / "tenant"
        svc.checkpoint("t", svc_path)
        svc2 = StreamIngestService(n_gpus=1)
        svc2.restore("t", svc_path, policy)
        svc2.ingest("t", series[50:])
        svc.ingest("t", series[50:])
        _assert_bit_identical(svc2.profile("t"), svc.profile("t"))

    def test_checkpoint_rejects_mode_mismatch(self, rng, tmp_path):
        inc = IncrementalMatrixProfile(8, RunConfig(mode="FP16"))
        inc.append(_series(rng, 30, 1))
        path = tmp_path / "stream.npz"
        inc.save(path)
        with pytest.raises(ValueError, match="storage dtype"):
            IncrementalMatrixProfile.load(path, RunConfig(mode="FP64"))


def _stream(rng, join, config, m=12, steps=(40, 7, 1, 52)):
    """A stream of bounded data appended in ``steps``, and its series."""
    def bounded(n):
        t = np.arange(n)[:, None]
        return np.sin(2 * np.pi * t / (13 + 5 * np.arange(2))) + 0.3 * rng.normal(size=(n, 2))

    series, ref = bounded(sum(steps)), bounded(70) if join == "ab" else None
    inc = IncrementalMatrixProfile(m, config, reference=ref)
    for end, step in zip(np.cumsum(steps), steps):
        inc.append(series[end - step : end])
    return inc, series, ref


class TestStreamBackend:
    """A stream builds the backend its config names."""

    def _profile(self, config, series, backend=None):
        inc = IncrementalMatrixProfile(12, config, backend=backend)
        for start in range(0, len(series), 30):
            inc.append(series[start : start + 30])
        return inc.profile()

    def test_config_backend_selects_tensor_core(self, rng):
        series = _series(rng, 150, 3)
        tc = RunConfig(mode="Mixed", backend="tensor_core")
        from_config = self._profile(tc, series)
        handed = self._profile(RunConfig(mode="Mixed"), series, TensorCoreBackend())
        vector = self._profile(RunConfig(mode="Mixed"), series)
        _assert_bit_identical(from_config, handed)
        assert not np.array_equal(from_config[0].view(np.uint8),
                                  vector[0].view(np.uint8))


class TestPrecalcStrategy:
    """Streams honour ``precalc_strategy``: exact seeds by default, FFT
    seeds (against the whole current series) inside the dot-product bound
    of ``precision/errors.py`` against FP64 brute force."""

    @pytest.mark.parametrize("join", ["self", "ab"])
    def test_exact_is_the_default(self, join):
        runs = [
            _stream(np.random.default_rng(5), join, config)[0]
            for config in (RunConfig(), RunConfig(precalc_strategy="exact"))
        ]
        _assert_bit_identical(runs[0].profile(), runs[1].profile())
        _assert_bit_identical(runs[0].profile(), _batch_profile(runs[0], runs[0].config))

    @pytest.mark.parametrize("join", ["self", "ab"])
    @pytest.mark.parametrize("mode", ["FP64", "FP32"])
    def test_fft_seeds_within_dot_product_bound(self, monkeypatch, mode, join):
        prepared = []
        original = StreamPlaneCache.prepare

        def spy(cache, plan, tiles):
            out = original(cache, plan, tiles)
            prepared.extend((plan, t, out.result.select(len(tiles), [k]))
                            for k, t in enumerate(tiles))
            return out

        monkeypatch.setattr(StreamPlaneCache, "prepare", spy)
        config = RunConfig(mode=mode, precalc_strategy="fft")
        m = 12
        fft, series, _ = _stream(np.random.default_rng(5), join, config, m)
        monkeypatch.undo()
        exact = _stream(np.random.default_rng(5), join, RunConfig(mode=mode), m)[0]
        assert fft.profile()[0].tobytes() != exact.profile()[0].tobytes()
        # The longest series a seed pass transformed bounds the FFT length.
        nfft = 1 << (len(series) + m - 2).bit_length()
        gamma = dot_product_error_bound(nfft, config.policy.eps)
        for plan, tile, result in prepared:
            # FP64 brute force on the stream's own storage-dtype samples.
            r, q = (sliding_window_view(x.astype(np.float64), m, axis=1)
                    for x in (plan.tr_layout, plan.tq_layout))
            r, q = r - r.mean(axis=2, keepdims=True), q - q.mean(axis=2, keepdims=True)
            for got, fixed, others in (
                (result.qt_row0, r[:, tile.row_start], q[:, tile.col_start : tile.col_stop]),
                (result.qt_col0, q[:, tile.col_start], r[:, tile.row_start : tile.row_stop]),
            ):
                want = np.einsum("kt,kjt->kj", fixed, others)
                scale = np.linalg.norm(fixed, axis=1)[:, None] * np.linalg.norm(others, axis=2)
                assert np.all(np.abs(got.astype(np.float64) - want) <= gamma * scale)

    @pytest.mark.parametrize("join", ["self", "ab"])
    def test_fft_profile_matches_brute_force(self, rng, join):
        config = RunConfig(precalc_strategy="fft")
        inc, series, ref = _stream(rng, join, config)
        if ref is None:
            want, _ = brute_force_mdmp(series, None, 12, exclusion_zone=inc.exclusion_zone)
        else:
            want, _ = brute_force_mdmp(ref, series, 12)
        np.testing.assert_allclose(inc.profile()[0], want, rtol=1e-8, atol=1e-10)


class TestABJoinStream:
    """A fixed reference matched against a live query, one sample at a
    time — the monitoring-probe pattern."""

    def test_fp64_matches_batch_matrix_profile(self, rng):
        ref = _series(rng, 200, 3)
        qry = _series(rng, 150, 3)
        batch = matrix_profile(ref, qry, m=16, mode="FP64")
        inc = IncrementalMatrixProfile(16, RunConfig(mode="FP64"), reference=ref)
        for sample in qry:
            inc.append(sample[None])
        profile, index = inc.profile()
        assert profile.shape == batch.profile.shape
        np.testing.assert_allclose(profile, batch.profile, atol=1e-8)
        assert np.mean(index == batch.index) > 0.999

    @pytest.mark.parametrize("mode", ("FP32", "Mixed", "FP16", "FP16C"))
    def test_reduced_modes_within_error_bound(self, mode):
        rng = np.random.default_rng(3)
        t = np.arange(230)
        series = np.stack(
            [np.sin(2 * np.pi * t / (14 + 5 * k)) for k in range(3)], axis=1
        ) + 0.1 * rng.standard_normal((230, 3))
        ref, qry = series[:120], series[120:]
        m = 16
        truth = matrix_profile(ref, qry, m=m, mode="FP64").profile
        inc = IncrementalMatrixProfile(m, RunConfig(mode=mode), reference=ref)
        for sample in qry:
            inc.append(sample[None])
        err = np.max(np.abs(
            implied_correlation(inc.profile()[0], m)
            - implied_correlation(truth, m)
        ))
        # An AB stream tile spans every reference row.
        assert err <= streaming_qt_error_bound(inc.n_r_seg, m, mode)

    def test_empty_profile_before_first_segment(self, rng):
        inc = IncrementalMatrixProfile(8, RunConfig(), reference=rng.normal(size=(50, 2)))
        profile, index = inc.profile()
        assert profile.shape == index.shape == (0, 2)

    def test_no_segments_until_m_samples(self, rng):
        inc = IncrementalMatrixProfile(8, RunConfig(), reference=rng.normal(size=(100, 2)))
        steps = [inc.append(row[None]).new_segments for row in rng.normal(size=(20, 2))]
        # First m-1 appends complete no segment; the rest complete one each.
        assert steps == [0] * 7 + [1] * 13
        assert inc.n_q_seg == 13

    def test_profile_rows_shape(self, rng):
        inc = IncrementalMatrixProfile(8, RunConfig(), reference=rng.normal(size=(80, 4)))
        for row in rng.normal(size=(8, 4)):
            inc.append(row[None])
        profile, index = inc.profile()
        assert profile.shape == index.shape == (1, 4)
        assert np.all((index >= 0) & (index < inc.n_r_seg))

    def test_planted_motif_found_live(self, rng):
        m = 16
        ref = rng.normal(size=(200, 1))
        wave = 5 * np.sin(np.linspace(0, 6.28, m))
        ref[60 : 60 + m, 0] += wave
        inc = IncrementalMatrixProfile(m, RunConfig(), reference=ref)
        for row in rng.normal(size=(40, 1)):
            inc.append(row[None])
        baseline = inc.profile()[0][-1, 0]
        for v in wave:
            inc.append(np.array([[v + 0.01 * rng.normal()]]))
        profile, index = inc.profile()
        assert abs(int(index[-1, 0]) - 60) <= 1
        assert profile[-1, 0] < baseline


class TestStreamValidation:
    def test_non_finite_rejected_with_offset(self):
        inc = IncrementalMatrixProfile(8, RunConfig())
        inc.append(np.zeros((20, 2)) + np.arange(20)[:, None])
        bad = np.ones((5, 2))
        bad[3, 1] = np.nan
        # The reported offset is global to the stream, not batch-local.
        with pytest.raises(ValueError, match="dimension 1, stream offsets 23..23"):
            inc.append(bad)
        # The rejected batch must not have been ingested.
        assert inc.n_samples == 20

    def test_ab_non_finite_rejected_across_appends(self, rng):
        inc = IncrementalMatrixProfile(8, RunConfig(), reference=rng.normal(size=(60, 2)))
        inc.append(rng.normal(size=(10, 2)))
        with pytest.raises(ValueError, match="dimension 0, stream offsets 10..10"):
            inc.append(np.array([[np.nan, 1.0]]))
        bad = rng.normal(size=(6, 2))
        bad[4, 1] = np.inf
        with pytest.raises(ValueError, match="dimension 1, stream offsets 14..14"):
            inc.append(bad)
        # Rejected batches are not ingested; the stream continues cleanly.
        assert inc.samples_ingested == 10
        assert inc.n_q_seg == 3

    def test_reference_named_in_errors(self, rng):
        ref = rng.normal(size=(50, 2))
        ref[7, 1] = np.nan
        with pytest.raises(ValueError, match="^reference contains 1 non-finite"):
            IncrementalMatrixProfile(8, RunConfig(), reference=ref)
        with pytest.raises(ValueError, match="^reference must have at least 2"):
            IncrementalMatrixProfile(8, RunConfig(), reference=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="too long for reference"):
            IncrementalMatrixProfile(8, RunConfig(), reference=np.zeros((5, 2)))
        with pytest.raises(ValueError, match="m must be >= 2"):
            IncrementalMatrixProfile(1, RunConfig(), reference=ref[:5])
        inc = IncrementalMatrixProfile(8, RunConfig(), reference=rng.normal(size=(50, 2)))
        with pytest.raises(ValueError, match="stream has d=2"):
            inc.append(np.zeros((1, 3)))

    def test_validate_stream_samples_contract(self):
        arr = validate_stream_samples([1.0, 2.0, 3.0])
        assert arr.shape == (3, 1)
        with pytest.raises(ValueError, match="at least 1 sample"):
            validate_stream_samples(np.empty((0, 2)))
        bad = np.zeros((4, 3))
        bad[1, 2] = np.inf
        with pytest.raises(ValueError, match="dimension 2, stream offsets 101..101"):
            validate_stream_samples(bad, offset=100)

    def test_dimension_change_rejected(self):
        inc = IncrementalMatrixProfile(8, RunConfig())
        inc.ingest(np.zeros((10, 2)))
        with pytest.raises(ValueError, match="d=2"):
            inc.ingest(np.zeros((5, 3)))


class TestAccumulatorExtension:
    def test_extend_columns_preserves_and_initialises(self):
        from repro.precision.modes import policy_for

        policy = policy_for("FP16")
        acc = ProfileAccumulator(2, 4, policy)
        acc.profile[:, :] = 1.5
        acc.index[:, :] = 7
        acc.extend_columns(6)
        assert acc.profile.shape == (2, 6)
        assert np.all(acc.profile[:, :4] == np.float16(1.5))
        assert np.all(acc.index[:, :4] == 7)
        assert np.all(acc.index[:, 4:] == -1)
        fresh = ProfileAccumulator(2, 6, policy)
        assert np.array_equal(acc.profile[:, 4:], fresh.profile[:, 4:])
        with pytest.raises(ValueError, match="shrink"):
            acc.extend_columns(3)


class TestSketchGate:
    def _discord_stream(self, rng, n, m, at):
        series = np.sin(np.linspace(0, n / 12, n)) + 0.05 * rng.normal(size=n)
        series[at : at + m] += 4.0
        return series[:, None]

    def test_recall_and_suppression(self, rng):
        m = 16
        n = 480
        at = 360
        series = self._discord_stream(rng, n, m, at)
        monitor = SketchMonitor(m, d=1, warmup=24, seed=1)
        scores = monitor.score(sliding_window_view(series, m, axis=0))
        alarms = [seg for seg, score in enumerate(scores) if score.alarm]
        n_seg = n - m + 1
        # The planted discord must alarm (recall on the top-1 discord)...
        assert any(at - m < a < at + m for a in alarms)
        # ...while most of the periodic stream is suppressed.
        assert len(alarms) <= 0.5 * n_seg

    def test_gated_tenant_counts_suppressed_work(self, rng):
        m = 16
        n = 480
        at = 360
        series = self._discord_stream(rng, n, m, at)
        svc = StreamIngestService(n_gpus=1)
        svc.register(
            "t",
            TenantPolicy(m=m, sketch_gate=True, sketch_warmup=24, sketch_seed=1),
        )
        for i in range(0, n, 20):
            svc.ingest("t", series[i : i + 20])
        c = svc.tenant("t").counters
        assert c.segments == n - m + 1
        assert c.suppressed_columns + c.exact_columns == c.segments
        assert c.suppression_ratio >= 0.5  # the acceptance floor
        # Zero missed top-1 discords: an alarm fires within m of the
        # planted discord, and the probed profile there is exact (finite,
        # not the accumulator's untouched upper bound).
        alarmed = [s.position for s in svc.scores("t") if s.alarm]
        hits = [p for p in alarmed if at - m < p < at + m]
        assert hits
        profile, _ = svc.profile("t")
        limit = np.finfo(profile.dtype).max
        assert all(profile[p, 0] < limit for p in hits)
        # Post-warmup, the probed region around the discord dominates:
        # every post-warmup alarm is near the planted position.
        post = [p for p in alarmed if p >= 2 * c.alarms]
        assert post and all(at - m < p < at + m for p in post)

    def test_fixed_threshold_and_validation(self):
        with pytest.raises(ValueError, match="shrink"):
            SketchMonitor(8, 1, shrink=0.0)
        with pytest.raises(ValueError, match="threshold"):
            SketchMonitor(8, 1, threshold="bogus")
        monitor = SketchMonitor(8, 1, threshold=1e9)
        monitor.prime(np.zeros((6, 1, 8)) + np.arange(8))
        (score,) = monitor.score(np.arange(8, dtype=float)[None, None, :])
        assert not score.alarm and score.suppressed
        with pytest.raises(ValueError, match="rolling"):
            SketchMonitor(8, 1, rolling=1)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"threshold": True}, "threshold"),
            ({"threshold": float("nan")}, "threshold"),
            ({"warmup": -1}, "warmup"),
            ({"exclusion": -2}, "exclusion"),
        ],
    )
    def test_rejects_meaningless_gate_settings(self, kwargs, match):
        """``True`` would be a fixed 1.0 and ``nan`` a gate that never
        alarms (``estimate > nan`` is always False)."""
        with pytest.raises(ValueError, match=match):
            SketchMonitor(8, 1, **kwargs)
        SketchMonitor(8, 1, threshold=float("inf"), warmup=0, exclusion=0)

    def test_register_rejects_meaningless_gate_settings(self):
        svc = StreamIngestService(n_gpus=1)
        for bad, match in (
            ({"sketch_threshold": float("nan")}, "threshold"),
            ({"sketch_threshold": False}, "threshold"),
            ({"sketch_warmup": -3}, "warmup"),
        ):
            with pytest.raises(ValueError, match=match):
                svc.register("t", TenantPolicy(m=8, sketch_gate=True, **bad))
        assert svc.tenants() == ()

    def test_rolling_threshold_recentres_after_drift(self, rng):
        """Regression: a drifting tenant must not poison the auto
        threshold forever.  A noisy drift phase inflates the cumulative
        mean/std for the rest of the stream, masking later discords; the
        rolling baseline re-centres within its window and still catches
        them."""
        m = 16
        calm = np.sin(np.linspace(0, 25, 300))
        drift = 3.0 * rng.normal(size=240)  # shape-shifting regime
        tail = np.sin(np.linspace(25, 40, 180))
        at = 300 + 240 + 90  # moderate discord planted after the drift
        tail[90 : 90 + m] += 1.5
        series = np.concatenate([calm, drift, tail])[:, None]

        def run(**kw):
            mon = SketchMonitor(m, d=1, warmup=24, seed=3, **kw)
            return mon, mon.score(sliding_window_view(series, m, axis=0))

        cumulative, cum_scores = run()
        rolling, roll_scores = run(rolling=64)
        # Same inputs, same projection: the estimates agree everywhere —
        # only the thresholds differ.
        assert [s.estimate for s in cum_scores] == [
            s.estimate for s in roll_scores
        ]
        # After the calm tail the rolling baseline has re-centred while
        # the cumulative one still remembers the drift phase.
        assert rolling._current_threshold() < cumulative._current_threshold()
        def hits(scores):
            return [
                s.position
                for s in scores
                if s.alarm and at - m < s.position < at + m
            ]
        assert hits(roll_scores), "rolling monitor missed the discord"
        assert not hits(cum_scores), (
            "cumulative monitor caught the discord — the regression this "
            "test pins no longer reproduces; strengthen the drift phase"
        )

    def test_tenant_rolling_param_reaches_monitor(self):
        svc = StreamIngestService(n_gpus=1)
        svc.register(
            "t", TenantPolicy(m=8, sketch_gate=True, sketch_rolling=48)
        )
        assert svc.tenant("t").monitor.rolling == 48


class TestIngestService:
    def test_exact_tenant_matches_standalone_stream(self, rng):
        """The service path (shared pool, admission) must not perturb the
        exact tier's numerics."""
        series = _series(rng, 150, 2)
        svc = StreamIngestService(n_gpus=2)
        svc.register("t", TenantPolicy(m=12, mode="FP16"))
        solo = IncrementalMatrixProfile(12, RunConfig(mode="FP16"))
        for i in range(0, 150, 30):
            svc.ingest("t", series[i : i + 30])
            solo.append(series[i : i + 30])
        _assert_bit_identical(svc.profile("t"), solo.profile())
        _assert_bit_identical(svc.profile("t"), _batch_profile(solo, solo.config))

    def test_deadline_sheds_precision(self, rng):
        svc = StreamIngestService(n_gpus=1)
        svc.register("t", TenantPolicy(m=16, mode="FP64", deadline=1e-12))
        report = svc.ingest("t", _series(rng, 80, 2))
        assert report.shed_steps > 0
        assert report.mode.value != "FP64"
        assert svc.tenant("t").counters.shed_steps == report.shed_steps
        snap = svc.metrics.snapshot()
        assert snap.stream_shed_steps == report.shed_steps
        assert snap.precision_downgrades == report.shed_steps

    def test_backpressure_drops_and_counts(self, rng):
        svc = StreamIngestService(n_gpus=1)
        svc.register("t", TenantPolicy(m=8, max_batch=32))
        report = svc.ingest("t", _series(rng, 100, 1))
        assert report.accepted == 32 and report.dropped == 68
        assert svc.tenant("t").stream.n_samples == 32
        assert svc.metrics.snapshot().stream_dropped == 68

    def test_sliding_window_rebases(self, rng):
        svc = StreamIngestService(n_gpus=1)
        svc.register("t", TenantPolicy(m=8, window="sliding", retention=64))
        for i in range(0, 300, 20):
            svc.ingest("t", _series(rng, 20, 1))
        session = svc.tenant("t")
        assert session.counters.rebases > 0
        assert session.stream.n_samples <= int(64 * 1.5)
        assert session.n_samples_global == 300
        # The retained window's profile matches a fresh stream over the
        # same suffix appended in one step (the re-base is one batch).
        assert session.stream.profile()[0].shape[0] == session.stream.n_q_seg

    @pytest.mark.parametrize("mode", ["FP32", "FP16"])
    def test_rebase_keeps_the_tenant_backend(self, rng, mode, monkeypatch):
        """A sliding re-base hands the outgoing stream's backend — and
        with it the workers' main-loop scratch — to the fresh stream; the
        profile stays byte-for-byte that of re-bases that build a new
        backend each time."""
        series = _series(rng, 300, 2)
        policy = TenantPolicy(m=8, mode=mode, window="sliding", retention=64)
        svc, own = StreamIngestService(n_gpus=1), StreamIngestService(n_gpus=1)
        svc.register("t", policy)
        own.register("t", policy)
        build = StreamIngestService._build_stream
        monkeypatch.setattr(own, "_build_stream",
                            lambda p, ref, backend=None: build(own, p, ref))
        backend = svc.tenant("t").stream._backend
        for i in range(0, 300, 20):
            svc.ingest("t", series[i : i + 20])
            own.ingest("t", series[i : i + 20])
            assert svc.tenant("t").stream._backend is backend
            _assert_bit_identical(svc.profile("t"), own.profile("t"))
        assert svc.tenant("t").counters.rebases > 0
        assert own.tenant("t").stream._backend is not backend

    def test_metrics_snapshot_stream_section(self, rng):
        svc = StreamIngestService(n_gpus=1)
        svc.register("t", TenantPolicy(m=8))
        svc.ingest("t", _series(rng, 40, 1))
        snap = svc.metrics.snapshot()
        assert snap.stream_appends == 1
        assert snap.stream_tenants == 1
        assert snap.stream_samples == 40
        rows = dict((r[0], r[1]) for r in snap.to_rows())
        assert rows["stream appends"] == 1
        # No stream rows when nothing streamed.
        from repro.service.metrics import ServiceMetrics

        empty = ServiceMetrics().snapshot()
        assert all(not str(r[0]).startswith("stream") for r in empty.to_rows())

    def test_checkpoint_restore_roundtrip(self, rng, tmp_path):
        series = _series(rng, 120, 2)
        svc = StreamIngestService(n_gpus=1)
        policy = TenantPolicy(m=12, mode="FP32")
        svc.register("t", policy)
        svc.ingest("t", series[:70])
        path = tmp_path / "tenant.npz"
        svc.checkpoint("t", path)

        svc2 = StreamIngestService(n_gpus=1)
        svc2.restore("t", path, policy)
        svc2.ingest("t", series[70:])

        solo = IncrementalMatrixProfile(12, RunConfig(mode="FP32"))
        solo.append(series[:70])
        solo.append(series[70:])
        _assert_bit_identical(svc2.profile("t"), solo.profile())

    def test_restore_keeps_rebased_ab_tenant(self, rng, tmp_path):
        """Regression: restore() lost a re-based sliding AB tenant's
        base_offset and reference, so global positions shifted and the
        next re-base rebuilt the tenant as a self-join."""
        ref = _series(rng, 60, 2)
        series = _series(rng, 300, 2)
        policy = TenantPolicy(m=8, mode="FP32", window="sliding", retention=48)
        svc = StreamIngestService(n_gpus=1)
        svc.register("t", policy, reference=ref)
        for i in range(0, 120, 20):
            svc.ingest("t", series[i : i + 20])
        before = svc.tenant("t")
        assert before.base_offset > 0
        path = tmp_path / "tenant.npz"
        svc.checkpoint("t", path)

        svc2 = StreamIngestService(n_gpus=1)
        after = svc2.restore("t", path, policy)
        assert after.base_offset == before.base_offset
        assert after.n_samples_global == before.n_samples_global == 120
        for i in range(120, 300, 20):
            r1 = svc.ingest("t", series[i : i + 20])
            r2 = svc2.ingest("t", series[i : i + 20])
            assert r1.rebased == r2.rebased
        assert svc2.tenant("t").counters.rebases > 0
        assert not svc2.tenant("t").stream.self_join
        assert svc2.tenant("t").base_offset == svc.tenant("t").base_offset
        _assert_bit_identical(svc2.profile("t"), svc.profile("t"))

    def test_restore_keeps_gated_tenant_gated(self, rng, tmp_path):
        """Regression: a gated tenant came back without its sketch monitor
        and covered every new column exactly."""
        policy = TenantPolicy(m=8, sketch_gate=True, sketch_warmup=4)
        svc = StreamIngestService(n_gpus=1)
        svc.register("t", policy)
        svc.ingest("t", _series(rng, 60, 1))
        path = tmp_path / "tenant.npz"
        svc.checkpoint("t", path)

        svc2 = StreamIngestService(n_gpus=1)
        session = svc2.restore("t", path, policy)
        assert session.gated
        assert session.monitor.n_windows == session.stream.n_q_seg
        report = svc2.ingest("t", _series(rng, 40, 1))
        assert report.exact_columns + report.suppressed_columns == 40
        assert session.stream.covered_segments == 0  # gated: probes only

    def test_duplicate_and_unknown_tenants(self, rng):
        svc = StreamIngestService(n_gpus=1)
        svc.register("t", TenantPolicy(m=8))
        with pytest.raises(ValueError, match="already registered"):
            svc.register("t", TenantPolicy(m=8))
        with pytest.raises(KeyError, match="unknown tenant"):
            svc.ingest("ghost", np.zeros((4, 1)))

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="retention"):
            TenantPolicy(m=8, window="sliding")
        with pytest.raises(ValueError, match="window"):
            TenantPolicy(m=8, window="hopping")
        with pytest.raises(ValueError, match="max_batch"):
            TenantPolicy(m=8, max_batch=0)
