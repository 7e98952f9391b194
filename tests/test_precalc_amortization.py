"""Amortised precalculation: plan-level plane cache, batched seeds, stats reuse.

The amortisation layer is a pure performance feature on its default
path: every tile's precalculation assembled from the plan-level plane
cache must be *bit-identical* to what ``PrecalcKernel.run`` produces on
that tile's device slices, for every precision mode (including the Kahan
FP16C path), join type and tile geometry.  End to end, the reference is
plans whose plane cache is the oracle's per-tile fake (every tile runs
the kernel itself).  There is no knob to turn the cache off.  The opt-in FFT seed strategy
is the one deliberate numerical deviation and is pinned against the
``precision/errors.py`` dot-product bound instead.  Cost accounting is
pinned too: seed work per tile, the one-off plane pass on exactly one
deterministic carrier, and honest ``precalc_saved_flops`` reporting.
"""

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.core.tiling import Tile
from repro.engine import JobSpec
from repro.gpu.kernel import KernelCost
from repro.kernels.layout import to_device_layout
from repro.gpu.perfmodel import plane_cost, seed_cost
from repro.kernels.precalc import fft_seed_qt_rows, seed_qt_rows
from repro.precision.errors import dot_product_error_bound
from repro.precision.modes import PrecisionMode, policy_for
from repro.reporting import render_precalc_savings
from repro.service import PrecalcStatsCache

from .per_row_oracle import per_tile_precalc
from .precalc_oracle import PrecalcKernel, naive_qt_row

MODES = ("FP64", "FP32", "FP16", "Mixed", "FP16C")

RESULT_FIELDS = (
    "mu_r", "inv_r", "df_r", "dg_r",
    "mu_q", "inv_q", "df_q", "dg_q",
    "qt_row0", "qt_col0",
)


def _spec_plan(rng, mode, ab, n_tiles, n=150, m=12, d=2, store=None, seed_shift=0):
    ref = rng.normal(size=(n, d)).cumsum(axis=0)
    qry = rng.normal(size=(n - 20, d)).cumsum(axis=0) if ab else None
    cfg = RunConfig(mode=mode, n_tiles=n_tiles)
    spec = JobSpec.from_arrays(ref, qry, m, cfg)
    return spec, spec.plan(precalc_store=store)


def _reference_precalc(plan, tile):
    """What the pre-amortisation per-tile kernel computes for ``tile``."""
    spec = plan.spec
    m = spec.m
    r0, r1 = tile.sample_range_rows(m)
    c0, c1 = tile.sample_range_cols(m)
    tr = np.ascontiguousarray(plan.tr_layout[:, r0:r1])
    shared = plan.tq_layout is plan.tr_layout and (r0, r1) == (c0, c1)
    tq = tr if shared else np.ascontiguousarray(plan.tq_layout[:, c0:c1])
    kernel = PrecalcKernel(config=spec.config.launch, policy=spec.policy)
    return kernel.run(tr, tq, m), kernel.cost


def _assert_results_identical(got, expected, label):
    for name in RESULT_FIELDS:
        a = getattr(got, name)
        b = getattr(expected, name)
        assert a.dtype == b.dtype, f"{name} dtype {label}"
        assert a.tobytes() == b.tobytes(), f"{name} bits {label}"


class TestPlaneBitIdentity:
    """Cache-assembled tiles == per-tile kernel, bit for bit."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("ab", [False, True])
    @pytest.mark.parametrize("n_tiles", [4, 6])
    def test_every_tile_matches_per_tile_kernel(self, rng, mode, ab, n_tiles):
        spec, plan = _spec_plan(rng, mode, ab, n_tiles)
        cache = plan.precalc_cache
        assert cache is not None
        assert cache.modes_built == ()  # lazy until the first prepare
        for tile in plan.tiles:
            prepared = cache.prepare(plan, [tile])
            expected, _ = _reference_precalc(plan, tile)
            _assert_results_identical(
                prepared.result, expected,
                f"{mode} ab={ab} tile={tile.tile_id}/{n_tiles}",
            )
        assert cache.modes_built == (PrecisionMode.parse(mode),)

    def test_split_child_tile_gets_mid_band_seeds(self, rng):
        """OOM splits create tiles at starts the plan never listed; the
        cache must serve them on demand, still bit-identically."""
        spec, plan = _spec_plan(rng, "FP16", False, 4)
        parent = plan.tiles[3]
        mid = (parent.row_start + parent.row_stop) // 2
        next_id = max(t.tile_id for t in plan.tiles) + 1
        child = Tile(next_id, mid, parent.row_stop,
                     parent.col_start, parent.col_stop)
        prepared = plan.precalc_cache.prepare(plan, [child])
        expected, _ = _reference_precalc(plan, child)
        _assert_results_identical(prepared.result, expected, "split child")
        # A split child can never be the plan's min tile_id, so it never
        # carries the plane charge.
        seed_only = seed_cost(
            child.n_rows, child.n_cols, spec.d, spec.m,
            spec.policy.precalc.itemsize, spec.config.launch, spec.policy.compensated,
        )
        assert prepared.costs[0].flops == seed_only.flops


class TestFullProfileEquality:
    """Engine output with the plane cache == plans without one, for
    every mode."""

    @pytest.mark.parametrize("mode", MODES)
    def test_self_join_bitwise(self, rng, mode):
        ref = rng.normal(size=(260, 3)).cumsum(axis=0)
        cfg = RunConfig(mode=mode, n_tiles=4)
        assert JobSpec.from_arrays(ref, None, 16, cfg).plan().precalc_cache is not None
        on = compute_multi_tile(ref, None, 16, cfg)
        with per_tile_precalc():
            off = compute_multi_tile(ref, None, 16, cfg)
        assert np.array_equal(on.profile.view(np.uint8), off.profile.view(np.uint8))
        assert np.array_equal(on.index, off.index)
        assert off.precalc_saved_flops == 0.0
        assert on.precalc_saved_flops > 0.0

    def test_ab_join_bitwise(self, rng):
        ref = rng.normal(size=(240, 2)).cumsum(axis=0)
        qry = rng.normal(size=(200, 2)).cumsum(axis=0)
        cfg = RunConfig(mode="FP16C", n_tiles=6)
        on = compute_multi_tile(ref, qry, 12, cfg)
        with per_tile_precalc():
            off = compute_multi_tile(ref, qry, 12, cfg)
        assert np.array_equal(on.profile.view(np.uint8), off.profile.view(np.uint8))
        assert np.array_equal(on.index, off.index)


class TestCostAccounting:
    def test_single_tile_cost_is_exactly_historical(self, rng):
        """A single-tile plan charges precisely the old per-tile formula
        and saves nothing."""
        spec, plan = _spec_plan(rng, "FP32", True, 1)
        (tile,) = plan.tiles
        prepared = plan.precalc_cache.prepare(plan, [tile])
        _, expected_cost = _reference_precalc(plan, tile)
        assert vars(prepared.costs[0]) == vars(expected_cost)
        assert prepared.saved_flops[0] == 0.0

    def test_single_tile_result_saved_flops_zero(self, rng):
        from repro.core.single_tile import compute_single_tile

        ref = rng.normal(size=(120, 2)).cumsum(axis=0)
        result = compute_single_tile(ref, None, 10, RunConfig(mode="FP64"))
        assert result.precalc_saved_flops == 0.0

    @pytest.mark.parametrize("mode", ["FP64", "FP16C"])
    def test_carrier_and_saved_flops_decomposition(self, rng, mode):
        spec, plan = _spec_plan(rng, mode, False, 4)
        size, comp = spec.policy.precalc.itemsize, spec.policy.compensated
        full_plane = plane_cost(spec.n_r_seg, spec.n_q_seg, spec.d, size, comp)
        min_id = min(t.tile_id for t in plan.tiles)
        total_saved = 0.0
        for tile in plan.tiles:
            prepared = plan.precalc_cache.prepare(plan, [tile])
            seed = seed_cost(tile.n_rows, tile.n_cols, spec.d, spec.m, size,
                             spec.config.launch, comp)
            tile_plane = plane_cost(tile.n_rows, tile.n_cols, spec.d, size, comp)
            if tile.tile_id == min_id:
                # The deterministic carrier: charged the full plane pass,
                # idempotently on every (re-)execution.
                assert prepared.costs[0].flops == seed.flops + full_plane.flops
                assert prepared.saved_flops[0] == (
                    tile_plane.flops - full_plane.flops
                )
                again = plan.precalc_cache.prepare(plan, [tile])
                assert vars(again.costs[0]) == vars(prepared.costs[0])
            else:
                assert prepared.costs[0].flops == seed.flops
                assert prepared.saved_flops[0] == tile_plane.flops
            total_saved += prepared.saved_flops[0]
        assert total_saved > 0.0

    def test_multi_tile_result_reports_total_savings(self, rng):
        ref = rng.normal(size=(260, 3)).cumsum(axis=0)
        cfg = RunConfig(mode="FP32", n_tiles=4)
        result = compute_multi_tile(ref, None, 16, cfg)
        spec = JobSpec.from_arrays(ref, None, 16, cfg)
        plan = spec.plan()
        size, comp = spec.policy.precalc.itemsize, spec.policy.compensated
        expected = sum(
            plane_cost(t.n_rows, t.n_cols, spec.d, size, comp).flops for t in plan.tiles
        ) - plane_cost(spec.n_r_seg, spec.n_q_seg, spec.d, size, comp).flops
        assert result.precalc_saved_flops == pytest.approx(expected)
        assert expected > 0.0


class TestEscalation:
    def test_escalated_plan_shares_cache_and_builds_on_demand(self, rng):
        spec, plan = _spec_plan(rng, "FP16", False, 4)
        cache = plan.precalc_cache
        cache.prepare(plan, [plan.tiles[0]])
        assert cache.modes_built == (PrecisionMode.FP16,)

        esc = plan.escalated("FP32")
        assert esc.precalc_cache is cache
        prepared = cache.prepare(esc, [esc.tiles[1]])
        assert set(cache.modes_built) == {PrecisionMode.FP16, PrecisionMode.FP32}
        expected, _ = _reference_precalc(esc, esc.tiles[1])
        _assert_results_identical(prepared.result, expected, "escalated tile")

    def test_escalated_charge_claimed_once(self, rng):
        spec, plan = _spec_plan(rng, "FP16", False, 4)
        esc = plan.escalated("FP32")
        espec = esc.spec

        def seed_flops(tile):
            return seed_cost(
                tile.n_rows, tile.n_cols, espec.d, espec.m,
                espec.policy.precalc.itemsize, espec.config.launch, espec.policy.compensated,
            ).flops

        # Escalated modes have no planned carrier: the first tile to
        # build the planes claims the charge, later tiles never do —
        # including tile 0, which would have been the base-mode carrier.
        first = plan.precalc_cache.prepare(esc, [esc.tiles[2]])
        assert first.costs[0].flops > seed_flops(esc.tiles[2])
        for tile in (esc.tiles[0], esc.tiles[2]):
            later = plan.precalc_cache.prepare(esc, [tile])
            assert later.costs[0].flops == seed_flops(tile)


class TestFFTStrategy:
    @pytest.mark.parametrize("mode", ["FP64", "FP32"])
    def test_fft_seeds_within_error_bound(self, rng, mode):
        """The FFT seeds deviate from the sequential accumulation by at
        most the length-``nfft`` dot-product bound times the Cauchy-
        Schwarz magnitude of each output element."""
        policy = policy_for(mode)
        n, m, d = 220, 16, 2
        series = rng.normal(size=(n, d)).cumsum(axis=0)
        layout = to_device_layout(series, np.float64)
        n_seg = n - m + 1
        windows = np.lib.stride_tricks.sliding_window_view(layout, m, axis=1)
        mu = windows.mean(axis=2)
        centered = windows - mu[:, :, None]
        norms = np.linalg.norm(centered, axis=2)  # (d, n_seg)

        starts = [0, 37, 110]
        args = (layout.astype(policy.precalc), starts,
                layout.astype(policy.precalc),
                mu.astype(policy.precalc), mu.astype(policy.precalc),
                m, policy)
        exact = seed_qt_rows(*args).astype(np.float64)
        fft = fft_seed_qt_rows(*args).astype(np.float64)

        nfft = 1
        while nfft < n + m - 1:
            nfft *= 2
        gamma = dot_product_error_bound(nfft, policy.eps)
        scale = np.stack([norms[:, s] for s in starts])[:, :, None] * norms[None]
        assert np.all(np.abs(fft - exact) <= gamma * scale + 1e-12)

    def test_fft_profile_close_to_exact(self, rng):
        ref = rng.normal(size=(240, 2)).cumsum(axis=0)
        exact = compute_multi_tile(ref, None, 16, RunConfig(mode="FP64", n_tiles=4))
        fft = compute_multi_tile(
            ref, None, 16,
            RunConfig(mode="FP64", n_tiles=4, precalc_strategy="fft"),
        )
        np.testing.assert_allclose(
            fft.profile, exact.profile, rtol=1e-8, atol=1e-10
        )

    @pytest.mark.parametrize("ab", [False, True])
    def test_fft_seeds_span_the_whole_series(self, rng, ab):
        """FFT seeds do not depend on the tiles a plan lists: a one-tile
        subplan (as a cluster node plans it) gets the full plan's bytes."""
        ref = rng.normal(size=(150, 2)).cumsum(axis=0)
        qry = rng.normal(size=(130, 2)).cumsum(axis=0) if ab else None
        cfg = RunConfig(mode="FP64", n_tiles=6, precalc_strategy="fft")
        spec = JobSpec.from_arrays(ref, qry, 12, cfg)
        full = spec.plan()
        tile = full.tiles[-1]
        sub = spec.plan(tiles=[tile], assignment=[0])
        got = sub.precalc_cache.prepare(sub, [tile]).result
        want = full.precalc_cache.prepare(full, [tile]).result
        _assert_results_identical(got, want, "subplan")

    def test_strategy_validation(self):
        with pytest.raises(ValueError, match="precalc_strategy"):
            RunConfig(precalc_strategy="nope")
        with pytest.raises(ValueError, match="FP64 and FP32"):
            RunConfig(mode="FP16", precalc_strategy="fft")

    def test_cache_key_semantics(self):
        # The fft strategy changes numerics -> included in the result key.
        assert (RunConfig(precalc_strategy="fft").cache_key()
                != RunConfig().cache_key())
        d = RunConfig().to_dict()
        assert "amortize_precalc" not in d  # retired: the cache is always on
        assert d["precalc_strategy"] == "exact"


class TestStatsStore:
    def test_second_plan_hits_and_drops_the_charge(self, rng):
        store = PrecalcStatsCache()
        ref = np.random.default_rng(7).normal(size=(150, 2)).cumsum(axis=0)
        cfg = RunConfig(mode="FP32", n_tiles=4)

        spec1 = JobSpec.from_arrays(ref, None, 12, cfg)
        plan1 = spec1.plan(precalc_store=store)
        first = [plan1.precalc_cache.prepare(plan1, [t]) for t in plan1.tiles]
        assert store.misses == 1 and store.hits == 0  # one role (self-join)
        assert len(store) == 1

        spec2 = JobSpec.from_arrays(ref, None, 12, cfg)
        plan2 = spec2.plan(precalc_store=store)
        second = [plan2.precalc_cache.prepare(plan2, [t]) for t in plan2.tiles]
        assert store.hits == 1

        size, comp = spec2.policy.precalc.itemsize, spec2.policy.compensated
        for tile, prep1, prep2 in zip(plan2.tiles, first, second):
            _assert_results_identical(prep2.result, prep1.result, "store reuse")
            # Store hit: nobody carries the plane charge, every tile
            # saves its full local plane work.
            seed = seed_cost(tile.n_rows, tile.n_cols, spec2.d, spec2.m, size,
                             spec2.config.launch, comp)
            assert prep2.costs[0].flops == seed.flops
            assert prep2.saved_flops[0] == plane_cost(
                tile.n_rows, tile.n_cols, spec2.d, size, comp
            ).flops

    def test_ab_partial_hit_charges_missing_role_only(self, rng):
        store = PrecalcStatsCache()
        gen = np.random.default_rng(11)
        ref = gen.normal(size=(150, 2)).cumsum(axis=0)
        qry = gen.normal(size=(130, 2)).cumsum(axis=0)
        cfg = RunConfig(mode="FP32", n_tiles=2)

        spec1 = JobSpec.from_arrays(ref, None, 12, cfg)
        plan1 = spec1.plan(precalc_store=store)
        plan1.precalc_cache.prepare(plan1, [plan1.tiles[0]])

        spec2 = JobSpec.from_arrays(ref, qry, 12, cfg)
        plan2 = spec2.plan(precalc_store=store)
        carrier = plan2.precalc_cache.prepare(plan2, [plan2.tiles[0]])
        assert store.hits == 1  # the reference role
        size, comp = spec2.policy.precalc.itemsize, spec2.policy.compensated
        tile = plan2.tiles[0]
        seed = seed_cost(tile.n_rows, tile.n_cols, spec2.d, spec2.m, size,
                         spec2.config.launch, comp)
        missing = plane_cost(0, spec2.n_q_seg, spec2.d, size, comp)
        assert carrier.costs[0].flops == seed.flops + missing.flops

    def test_keying_separates_m_mode_and_series(self, rng):
        store = PrecalcStatsCache()
        gen = np.random.default_rng(3)
        ref = gen.normal(size=(120, 2)).cumsum(axis=0)
        for mode, m in (("FP32", 12), ("FP32", 10), ("FP64", 12)):
            spec = JobSpec.from_arrays(ref, None, m, RunConfig(mode=mode))
            plan = spec.plan(precalc_store=store)
            plan.precalc_cache.prepare(plan, [plan.tiles[0]])
        assert len(store) == 3 and store.hits == 0

    def test_lru_eviction_and_counters(self):
        store = PrecalcStatsCache(max_entries=1)
        a = {"mu": np.zeros((2, 8))}
        b = {"mu": np.ones((2, 8))}
        store.put("a", a)
        store.put("b", b)
        assert store.evictions == 1
        assert "a" not in store and "b" in store
        assert store.payload_bytes == a["mu"].nbytes
        assert store.get("a") is None and store.get("b") is b
        assert store.stats()["hit_rate"] == 0.5

    def test_on_lookup_callback(self):
        seen = []
        store = PrecalcStatsCache(on_lookup=seen.append)
        store.get("missing")
        store.put("k", {"mu": np.zeros(4)})
        store.get("k")
        assert seen == [False, True]


class TestServiceIntegration:
    def test_repeat_series_jobs_reuse_stats(self, rng):
        from repro.service import JobRequest, MatrixProfileService

        series = rng.normal(size=(200, 2)).cumsum(axis=0)
        service = MatrixProfileService(device="A100", n_gpus=1, n_workers=1)
        # Different tilings: the result cache misses (tiling changes the
        # reduced-precision numerics) but the stats cache hits.
        out1 = service.submit_and_wait(
            JobRequest(reference=series, m=16, mode="FP32", n_tiles=1)
        )
        out2 = service.submit_and_wait(
            JobRequest(reference=series, m=16, mode="FP32", n_tiles=4)
        )
        assert out1.status == "completed" and out2.status == "completed"
        assert not out2.cache_hit
        snap = service.metrics.snapshot()
        assert snap.stats_cache_misses >= 1
        assert snap.stats_cache_hits >= 1
        assert out2.result.precalc_saved_flops > 0.0

    def test_metrics_counters_and_rows(self):
        from repro.service import ServiceMetrics

        metrics = ServiceMetrics()
        metrics.record_stats_cache(True)
        metrics.record_stats_cache(False)
        metrics.record_stats_cache(False)
        snap = metrics.snapshot()
        assert snap.stats_cache_hits == 1
        assert snap.stats_cache_misses == 2
        rows = dict((r[0], r[1]) for r in snap.to_rows())
        assert rows["stats cache hits / misses"] == "1 / 2"


class TestJournalResume:
    def test_resume_restores_saved_flops(self, rng, tmp_path):
        ref = rng.normal(size=(220, 2)).cumsum(axis=0)
        path = tmp_path / "journal"
        cfg = RunConfig(mode="FP32", n_tiles=4)
        result = compute_multi_tile(ref, None, 16, cfg, journal=path)
        assert result.precalc_saved_flops > 0.0

        from repro.engine import RunJournal, resume_plan

        resumed = resume_plan(path)
        assert np.array_equal(resumed.profile, result.profile)
        assert resumed.precalc_saved_flops == result.precalc_saved_flops

        # Journals written before the amortisation layer lack the key;
        # restore must default it to zero, not crash.
        state_path = RunJournal.open(path).state_path
        with np.load(state_path) as data:
            kept = {k: data[k] for k in data.files if k != "precalc_saved_flops"}
        np.savez(state_path, **kept)
        legacy = resume_plan(path)
        assert np.array_equal(legacy.profile, result.profile)
        assert legacy.precalc_saved_flops == 0.0


class TestReportingAndCli:
    def test_render_precalc_savings(self):
        class Stub:
            precalc_saved_flops = 100.0
            costs = {"precalculation": KernelCost(name="PrecalcKernel", flops=300.0)}

        line = render_precalc_savings(Stub())
        assert "100" in line and "25.0%" in line

        class Bare:
            pass

        assert "saved 0 flops" in render_precalc_savings(Bare())

    def test_render_on_real_result(self, rng):
        ref = rng.normal(size=(200, 2)).cumsum(axis=0)
        result = compute_multi_tile(ref, None, 12, RunConfig(n_tiles=4))
        line = render_precalc_savings(result)
        assert "precalc amortisation saved" in line
        assert "%" in line

    def test_cli_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["profile", "x.csv", "-m", "16", "--precalc-strategy", "fft"]
        )
        assert args.precalc_strategy == "fft"
        with pytest.raises(SystemExit):  # the retired flag is gone
            parser.parse_args(["profile", "x.csv", "-m", "16", "--no-amortize-precalc"])

    def test_api_fft_strategy(self, rng):
        from repro import matrix_profile

        ref = rng.normal(size=(160, 2)).cumsum(axis=0)
        exact = matrix_profile(ref, m=12, mode="FP64", n_tiles=2)
        fft = matrix_profile(ref, m=12, mode="FP64", n_tiles=2,
                             precalc_strategy="fft")
        np.testing.assert_allclose(
            fft.profile, exact.profile, rtol=1e-8, atol=1e-10
        )


class TestNaiveQtRowRegression:
    @pytest.mark.parametrize("mode", ["FP64", "FP16C"])
    def test_self_join_shares_stats_consistently(self, rng, mode):
        """`naive_qt_row(tr, tr, ...)` (aliased self-join) must agree
        bitwise with handing in an equal-valued copy of the series —
        the shared-stats shortcut changes no numerics."""
        policy = policy_for(mode)
        series = rng.normal(size=(100, 2)).cumsum(axis=0)
        tr = to_device_layout(series, policy.storage)
        aliased = naive_qt_row(tr, tr, 10, 7, policy)
        copied = naive_qt_row(tr, tr.copy(), 10, 7, policy)
        assert aliased.tobytes() == copied.tobytes()
