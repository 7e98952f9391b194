"""Symmetric self-join tiling: mirrored upper-triangular tiles.

With ``RunConfig.symmetric_tiles`` on, the planner builds only diagonal
plus upper-triangular tiles and each off-diagonal tile's distance panel
is consumed twice — the usual column-wise min/argmin plus a row-wise
reduce whose transposed-index contribution covers the band the dropped
lower-triangle twin would have computed.  These tests pin the numerical
contract: FP64 agrees with brute force (engine convention: 1e-8 on the
profile, matching indices), reduced modes stay inside the Section V-B
bounds in both backends, ties still resolve to the earliest reference
index, the flag-off path is byte-identical to before, and the whole
fault stack (OOM split, escalation, journals, cluster re-shard)
composes with triangular grids.
"""

import numpy as np
import pytest

from repro.baselines.brute_force import brute_force_mdmp
from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.core.tiling import Tile, compute_symmetric_tile_list, tile_grid_shape
from repro.engine import HealthPolicy, JobSpec, RunJournal, resume_plan
from repro.engine.dispatch import _split_tile
from repro.engine.faults import FaultPlan
from repro.precision.errors import (
    implied_correlation,
    streaming_qt_error_bound,
    tc_gemm_error_bound,
)
from repro.precision.modes import TENSOR_CORE_MODES

MODES = ("FP64", "FP32", "FP16", "Mixed", "FP16C")


def _series(n=260, d=3, seed=5):
    """Bounded-amplitude multi-sine series (safe for FP16)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    base = np.stack(
        [np.sin(2 * np.pi * t / (14 + 5 * k)) for k in range(d)], axis=1
    )
    return base + 0.1 * rng.normal(size=(n, d))


# ---------------------------------------------------------------------------
# The triangular grid itself


class TestSymmetricTileList:
    def test_counts_and_mirror_flags(self):
        tiles = compute_symmetric_tile_list(100, 16)
        g = max(tile_grid_shape(16))
        assert len(tiles) == g * (g + 1) // 2
        for t in tiles:
            assert t.col_start >= t.row_start  # upper triangle only
            assert t.mirror == (t.col_start > t.row_start)
        diag = [t for t in tiles if not t.mirror]
        assert len(diag) == g
        # ids are the lexicographic (band_row, band_col) order the merge
        # relies on for the tie-break proof.
        assert [t.tile_id for t in tiles] == list(range(len(tiles)))

    def test_bands_cover_every_pair_once(self):
        n = 37
        tiles = compute_symmetric_tile_list(n, 9)
        covered = np.zeros((n, n), dtype=int)
        for t in tiles:
            covered[t.row_start : t.row_stop, t.col_start : t.col_stop] += 1
            if t.mirror:  # the twin it stands in for
                covered[t.col_start : t.col_stop, t.row_start : t.row_stop] += 1
        assert (covered == 1).all()

    def test_grid_clamps_to_segments(self):
        tiles = compute_symmetric_tile_list(3, 64)
        assert max(t.row_stop for t in tiles) == 3
        g = 3
        assert len(tiles) == g * (g + 1) // 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            compute_symmetric_tile_list(0, 4)


class TestPlanGating:
    def test_ab_join_rejected(self):
        ref, qry = _series(120), _series(110, seed=7)
        config = RunConfig(mode="FP32", n_tiles=4, symmetric_tiles=True)
        spec = JobSpec.from_arrays(ref, qry, 16, config)
        with pytest.raises(ValueError, match="self-join"):
            spec.plan()

    def test_self_join_plan_is_triangular(self):
        config = RunConfig(mode="FP32", n_tiles=16, symmetric_tiles=True)
        spec = JobSpec.from_arrays(_series(200), None, 16, config)
        plan = spec.plan()
        g = max(tile_grid_shape(16))
        assert len(plan.tiles) == g * (g + 1) // 2
        assert any(t.mirror for t in plan.tiles)

    def test_cache_key_differs(self):
        base = RunConfig(mode="FP32", n_tiles=9)
        assert base.cache_key() != base.with_(symmetric_tiles=True).cache_key()
        # and round-trips through the dict form
        cfg = RunConfig.from_dict(base.with_(symmetric_tiles=True).to_dict())
        assert cfg.symmetric_tiles is True


# ---------------------------------------------------------------------------
# Numerical contract


class TestFP64Equality:
    @pytest.mark.parametrize("n_tiles", [4, 9, 16, 64])  # even and odd grids
    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_matches_brute_force(self, n_tiles, d):
        series = _series(230, d=d)
        m = 16
        p_bf, i_bf = brute_force_mdmp(series, None, m)
        cfg = RunConfig(mode="FP64", n_tiles=n_tiles, symmetric_tiles=True)
        res = compute_multi_tile(series, None, m, cfg)
        np.testing.assert_allclose(res.profile, p_bf, atol=1e-8)
        assert np.mean(res.index == i_bf) > 0.999
        # Stronger: indices identical to the full-grid engine run (same
        # strict-< merge contract, just a different tile order).
        full = compute_multi_tile(
            series, None, m, RunConfig(mode="FP64", n_tiles=n_tiles)
        )
        np.testing.assert_array_equal(res.index, full.index)
        np.testing.assert_allclose(res.profile, full.profile, atol=1e-12)

    def test_zone_straddling_tiles(self):
        # A grid fine enough that the exclusion zone crosses several
        # diagonal-tile boundaries; fully-masked rows must keep index -1
        # semantics (here: every row has off-zone columns, so all finite).
        series = _series(150, d=2)
        m = 24  # zone = ceil(m/4) = 6, tiles ~ 16 rows each
        p_bf, i_bf = brute_force_mdmp(series, None, m)
        cfg = RunConfig(mode="FP64", n_tiles=64, symmetric_tiles=True)
        res = compute_multi_tile(series, None, m, cfg)
        np.testing.assert_allclose(res.profile, p_bf, atol=1e-8)
        assert np.mean(res.index == i_bf) > 0.999

    def test_wide_zone_override(self):
        series = _series(140, d=2)
        m = 16
        p_bf, i_bf = brute_force_mdmp(series, None, m, exclusion_zone=20)
        cfg = RunConfig(
            mode="FP64", n_tiles=9, exclusion_zone=20, symmetric_tiles=True
        )
        res = compute_multi_tile(series, None, m, cfg)
        np.testing.assert_allclose(res.profile, p_bf, atol=1e-8)
        assert np.mean(res.index == i_bf) > 0.999


class TestErrorBounds:
    """Section V-B bounds are *relative QT* (correlation) bounds, so the
    end-to-end check compares in correlation space via Eq. 1 inverted —
    the distance itself amplifies near ``corr -> 1`` (see
    ``correlation_condition_number``), on full grids just as much as on
    triangular ones."""

    @pytest.mark.parametrize("mode", MODES)
    def test_vector_backend_within_bound(self, mode):
        series = _series()
        m = 16
        n_tiles = 9
        ref = compute_multi_tile(
            series, None, m, RunConfig(mode="FP64", n_tiles=n_tiles)
        ).profile
        cfg = RunConfig(mode=mode, n_tiles=n_tiles, symmetric_tiles=True)
        res = compute_multi_tile(series, None, m, cfg)
        err = np.max(np.abs(
            implied_correlation(res.profile.astype(np.float64), m)
            - implied_correlation(ref, m)
        ))
        bound = streaming_qt_error_bound(ref.shape[0], m, mode)
        assert err <= max(bound, 1e-12)

    @pytest.mark.parametrize("mode", sorted(m.value for m in TENSOR_CORE_MODES))
    def test_tensor_core_backend_within_bound(self, mode):
        series = _series()
        m = 16
        n_tiles = 9
        ref = compute_multi_tile(
            series, None, m, RunConfig(mode="FP64", n_tiles=n_tiles)
        ).profile
        cfg = RunConfig(
            mode=mode, n_tiles=n_tiles, backend="tensor_core",
            symmetric_tiles=True,
        )
        res = compute_multi_tile(series, None, m, cfg)
        assert res.backend_fallback_reason is None
        err = np.max(np.abs(
            implied_correlation(res.profile.astype(np.float64), m)
            - implied_correlation(ref, m)
        ))
        bound = tc_gemm_error_bound(ref.shape[0], m, mode)
        assert err <= bound

    @pytest.mark.parametrize("backend", ["numeric", "tensor_core"])
    @pytest.mark.parametrize("mode", sorted(m.value for m in TENSOR_CORE_MODES))
    def test_mirroring_adds_no_error_over_full_grid(self, mode, backend):
        """The mirrored reduce consumes the very panel values the full
        grid computes, so the symmetric profile error never exceeds the
        full-grid error (tile-edge restarts aside, which only shrink the
        recurrence spans)."""
        series = _series()
        m = 16
        ref = implied_correlation(
            compute_multi_tile(
                series, None, m, RunConfig(mode="FP64", n_tiles=9)
            ).profile,
            m,
        )
        runs = {}
        for sym in (False, True):
            cfg = RunConfig(
                mode=mode, n_tiles=9, backend=backend, symmetric_tiles=sym
            )
            prof = compute_multi_tile(series, None, m, cfg).profile
            runs[sym] = np.max(np.abs(
                implied_correlation(prof.astype(np.float64), m) - ref
            ))
        assert runs[True] <= runs[False] * 1.5 + 1e-9


class TestTieBreak:
    def test_merge_mirrored_keeps_incumbent_on_exact_tie(self):
        from repro.engine.accumulate import merge_mirrored

        # Incumbent columns 2..4 hold value 1.0 from earlier (lower
        # reference-band) tiles; the mirrored contribution ties exactly,
        # so strict `<` must keep the earlier indices.
        profile = np.full((2, 6), 5.0)
        index = np.full((2, 6), -1, dtype=np.int64)
        profile[:, 2:4] = 1.0
        index[:, 2:4] = 7
        tile = Tile(0, 2, 4, 4, 6, mirror=True)
        mirror_p = np.array([[1.0, 0.5], [1.0, 1.0]])
        mirror_i = np.array([[40, 41], [40, 41]], dtype=np.int64)
        merge_mirrored(profile, index, tile, mirror_p, mirror_i)
        # exact ties keep index 7; the strict improvement replaces it
        np.testing.assert_array_equal(index[:, 2:4], [[7, 41], [7, 7]])
        np.testing.assert_array_equal(profile[:, 2:4], [[1.0, 0.5], [1.0, 1.0]])

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_radix_argmin_is_first_occurrence(self, dtype):
        from repro.kernels.update import UpdateKernel

        block = np.array(
            [[3.0, 1.0, 2.0, 1.0], [0.0, 4.0, 0.0, 0.0]], dtype=dtype
        )
        np.testing.assert_array_equal(
            UpdateKernel._radix_argmin(block, axis=1), [1, 0]
        )

    def test_planted_duplicates_pick_a_true_minimizer(self):
        # An exactly periodic series: every segment has bit-identical
        # twins one period apart, so the minimum distance (0) is massively
        # tied.  The two recurrence paths of a mirrored pair differ by
        # O(eps), so the *winner among near-ties* may lawfully differ from
        # the full grid's — but every reported index must still achieve
        # the true minimum, and the run must be deterministic.
        t = np.arange(320)
        series = np.stack(
            [np.sin(2 * np.pi * t / 32), np.cos(2 * np.pi * t / 32)], axis=1
        )
        m = 16
        cfg = RunConfig(mode="FP64", n_tiles=16, symmetric_tiles=True)
        sym = compute_multi_tile(series, None, m, cfg)
        again = compute_multi_tile(series, None, m, cfg)
        np.testing.assert_array_equal(
            sym.profile.view(np.uint64), again.profile.view(np.uint64)
        )
        np.testing.assert_array_equal(sym.index, again.index)
        p_bf, i_bf = brute_force_mdmp(series, None, m)
        # atol sqrt-of-eps: D = sqrt(2m(1-corr)) has infinite slope at
        # the planted exact-zero minima, so eps-level QT noise surfaces
        # as ~3e-8 distances.
        np.testing.assert_allclose(sym.profile, p_bf, atol=1e-7)
        # each chosen index attains the brute-force minimum: it is a
        # bit-identical twin exactly one or more periods away
        assert (np.abs(sym.index - np.arange(len(sym.index))[:, None])
                % 32 == 0).all()

    def test_flag_off_byte_identical(self):
        series = _series()
        for mode in MODES:
            a = compute_multi_tile(
                series, None, 16, RunConfig(mode=mode, n_tiles=9)
            )
            b = compute_multi_tile(
                series, None, 16,
                RunConfig(mode=mode, n_tiles=9, symmetric_tiles=False),
            )
            np.testing.assert_array_equal(
                a.profile.view(np.uint64), b.profile.view(np.uint64)
            )
            np.testing.assert_array_equal(a.index, b.index)


# ---------------------------------------------------------------------------
# Fault-stack composition


class TestOOMSplitRules:
    def _tile(self, r0, r1, c0, c1, mirror=False):
        return Tile(0, r0, r1, c0, c1, mirror=mirror)

    def test_mirrored_parent_children_stay_mirrored(self):
        children = _split_tile(
            self._tile(0, 40, 40, 80, mirror=True), 10, symmetric=True
        )
        assert len(children) == 4
        assert all(c.mirror for c in children)
        covered = {(c.row_start, c.row_stop, c.col_start, c.col_stop)
                   for c in children}
        assert covered == {
            (0, 20, 40, 60), (0, 20, 60, 80), (20, 40, 40, 60), (20, 40, 60, 80)
        }

    def test_diagonal_parent_drops_lower_left(self):
        children = _split_tile(self._tile(0, 40, 0, 40), 10, symmetric=True)
        assert len(children) == 3
        keyed = {
            (c.row_start, c.row_stop, c.col_start, c.col_stop): c.mirror
            for c in children
        }
        assert keyed == {
            (0, 20, 0, 20): False,     # top diagonal
            (0, 20, 20, 40): True,     # upper-right, mirrored
            (20, 40, 20, 40): False,   # bottom diagonal
        }

    def test_single_row_diagonal_cannot_split(self):
        assert _split_tile(self._tile(0, 1, 0, 1), 10, symmetric=True) == []

    def test_injected_oom_split_completes_and_stays_close(self):
        series = _series()
        cfg = RunConfig(mode="FP32", n_tiles=16, n_gpus=2, symmetric_tiles=True)
        clean = compute_multi_tile(series, None, 16, cfg)
        fault_plan = FaultPlan(seed=9, oom_rate=0.4)
        res = compute_multi_tile(
            series, None, 16, cfg, fault_plan=fault_plan, oom_split=True
        )
        assert fault_plan.event_counts().get("oom", 0) > 0
        assert res.split_tiles
        assert np.allclose(res.profile, clean.profile, atol=1e-3)


class TestFaultComposition:
    def test_corruption_escalates_and_recovers(self):
        series = _series()
        cfg = RunConfig(mode="FP16", n_tiles=9, n_gpus=3, symmetric_tiles=True)
        clean = compute_multi_tile(series, None, 16, cfg)
        fault_plan = FaultPlan(seed=3, corrupt_rate=0.4)
        res = compute_multi_tile(
            series, None, 16, cfg,
            health=HealthPolicy(), fault_plan=fault_plan, max_retries=3,
        )
        assert fault_plan.event_counts().get("corrupt", 0) > 0
        assert res.escalations
        assert np.isfinite(res.profile).all()
        # escalated tiles run at a *more* accurate mode
        assert np.max(np.abs(
            res.profile.astype(np.float64) - clean.profile.astype(np.float64)
        )) <= streaming_qt_error_bound(clean.profile.shape[0], 16, "FP16")

    def test_transient_retries_are_bit_identical(self):
        series = _series()
        cfg = RunConfig(mode="FP32", n_tiles=9, n_gpus=3, symmetric_tiles=True)
        clean = compute_multi_tile(series, None, 16, cfg)
        res = compute_multi_tile(
            series, None, 16, cfg,
            fault_plan=FaultPlan(seed=11, transient_rate=0.4), max_retries=3,
        )
        np.testing.assert_array_equal(res.profile, clean.profile)
        np.testing.assert_array_equal(res.index, clean.index)


class KillPlan:
    """fault_plan stand-in killing the run after ``allow`` tile starts."""

    corruptor = None

    def __init__(self, allow):
        self.allow = allow
        self.seen = 0

    def injector(self, label, tile, gpu_id, attempt):
        self.seen += 1
        if self.seen > self.allow:
            raise KeyboardInterrupt("killed mid-run")


class TestJournalResume:
    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        series = _series()
        cfg = RunConfig(mode="FP32", n_tiles=16, symmetric_tiles=True)
        uninterrupted = compute_multi_tile(series, None, 16, cfg)
        path = tmp_path / "journal"
        with pytest.raises(KeyboardInterrupt):
            compute_multi_tile(
                series, None, 16, cfg,
                journal=path, fault_plan=KillPlan(allow=3),
            )
        journal = RunJournal.open(path)
        done = len(journal.completed_records())
        assert 0 < done < uninterrupted.n_tiles
        # the journal's tile table round-trips the mirror flag
        spec, plan = journal.rebuild()
        assert [t.mirror for t in plan.tiles] == [
            t.mirror for t in spec.plan().tiles
        ]
        resumed = resume_plan(path)
        assert resumed.resumed_tiles == done
        assert resumed.n_tiles == uninterrupted.n_tiles
        np.testing.assert_array_equal(resumed.profile, uninterrupted.profile)
        np.testing.assert_array_equal(resumed.index, uninterrupted.index)


class TestClusterComposition:
    def test_triangular_grid_reshards_after_node_loss(self):
        from repro.cluster import ClusterDispatcher, ClusterSpec, NodeFaultPlan

        series = _series()
        cfg = RunConfig(mode="FP32", n_tiles=16, symmetric_tiles=True)
        single = compute_multi_tile(series, None, 16, cfg)
        spec = JobSpec.from_arrays(series, None, 16, cfg)
        dispatcher = ClusterDispatcher(
            ClusterSpec(n_nodes=3, gpus_per_node=2),
            node_faults=NodeFaultPlan(seed=2, crash_nodes=(1,)),
        )
        result = dispatcher.run(spec, 16)
        assert result.tiles_total == single.n_tiles  # triangular count
        assert result.tiles_resharded > 0
        assert result.dropped_tiles == 0
        np.testing.assert_array_equal(result.profile, single.profile)
        np.testing.assert_array_equal(result.index, single.index)

    def test_resume_cluster_keeps_triangular_plan(self, tmp_path):
        from repro.cluster import ClusterDispatcher, ClusterSpec, resume_cluster

        series = _series()
        cfg = RunConfig(mode="FP32", n_tiles=16, symmetric_tiles=True)
        spec = JobSpec.from_arrays(series, None, 16, cfg)
        dispatcher = ClusterDispatcher(ClusterSpec(n_nodes=2, gpus_per_node=2))
        path = tmp_path / "cluster-journal"
        first = dispatcher.run_journaled(spec, path)
        resumed = resume_cluster(path)
        # the resumed run must shard the journal-rebuilt triangular plan,
        # not re-plan a rectangular grid from the triangular tile count
        assert resumed.tiles_total == first.tiles_total
        assert resumed.tiles_restored == first.tiles_total
        np.testing.assert_array_equal(resumed.profile, first.profile)
        np.testing.assert_array_equal(resumed.index, first.index)


# ---------------------------------------------------------------------------
# Autotuner integration


class TestAutoSelection:
    def test_auto_picks_symmetric_for_self_join_under_target(self):
        from repro.autotune import AutoTuner

        tuner = AutoTuner()
        dec = tuner.tune(
            2048, 2048, 4, 64, mode="FP32", self_join=True,
            target_error=1e-2, n_tiles=64,
        )
        assert dec.chosen.symmetric_tiles
        assert dec.config.symmetric_tiles

    def test_never_symmetric_without_target_or_for_ab_joins(self):
        from repro.autotune import AutoTuner

        tuner = AutoTuner()
        no_target = tuner.tune(
            2048, 2048, 4, 64, mode="FP32", self_join=True, n_tiles=64
        )
        assert not any(c.symmetric_tiles for c in no_target.candidates)
        ab = tuner.tune(
            2048, 1024, 4, 64, mode="FP32", self_join=False,
            target_error=1e-2, n_tiles=64,
        )
        assert not any(c.symmetric_tiles for c in ab.candidates)


class TestWorkspacePlanes:
    """The capacity model prices the backend's real workspace plane
    count — 3 for the tensor-core layout against the vector path's 4 —
    so TC jobs stop being over-split near the cache budget."""

    def test_plane_counts(self):
        from repro.gpu.perfmodel import WORKSPACE_HALF_PLANES

        assert WORKSPACE_HALF_PLANES == {"vector": 4, "tensor_core": 3}
