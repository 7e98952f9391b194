"""Row-blocked kernel execution: bit-identity, workspaces, parallel dispatch.

The row-blocked main loop (super-steps sized by
``backends.SUPER_STEP_ELEMENTS``) and the parallel tile dispatcher
(``execute_plan(parallel_workers=...)``) are pure performance features:
every test here pins the contract that they change *nothing* observable
— profiles, indices, per-kernel costs and the modelled timeline are
bit-for-bit those of the per-row oracle (``tests/per_row_oracle.py``)
and of serial execution, for every precision mode, dimensionality, block
size (a block of one row and the whole tile included; the tests force
them by patching the budget), join type and sort strategy, including the
degenerate inputs that force the half-precision fast paths onto their
scalar fallbacks.
"""

import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.core.multi_tile import compute_multi_tile
from repro.engine import (
    JobSpec,
    NumericBackend,
    ProfileAccumulator,
    execute_plan,
)
from repro.engine import backends
from repro.engine.backends import WorkspacePool, run_tile, super_step_rows
from repro.engine.dispatch import ExecutionPolicy, TransientDeviceError
from repro.engine.health import HealthPolicy
from repro.gpu.memory import DeviceOutOfMemoryError
from repro.gpu.simulator import GPUSimulator
from repro.kernels._f16fast import (
    round_f16,
    split_f16,
)
from repro.kernels.layout import to_device_layout

from .per_row_oracle import per_row_engine, per_row_tile
from .precalc_oracle import kernel_precalc

MODES = ("FP64", "FP32", "FP16", "Mixed", "FP16C")
WHOLE = 1 << 40  # a super-step budget no test tile fills: one block per tile


def _budget(monkeypatch, rows, planes, width):
    """Patch the super-step budget to ``rows`` rows of a ``(planes,
    width)`` tile."""
    monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", rows * planes * width)


def _run(tr, tq, m, cfg, blocked=True, ez=None):
    """``run_tile`` under the patched budget; ``blocked=False`` runs the
    per-row oracle."""
    tile = run_tile if blocked else per_row_tile
    out = tile(
        tr, tq, m, cfg.policy, cfg.launch,
        exclusion_zone=ez,
        precalc=kernel_precalc(tr, tq, m, cfg.policy, cfg.launch),
    )
    costs = {k: vars(v).copy() for k, v in out.costs.items()}
    return out.profile, out.indices, costs


def _assert_same(ref, got, label):
    p0, i0, c0 = ref
    p, i, c = got
    assert np.array_equal(p.view(np.uint8), p0.view(np.uint8)), f"profile {label}"
    assert np.array_equal(i, i0), f"indices {label}"
    assert c == c0, f"costs {label}"


class TestKernelBitIdentity:
    """Blocked execution == the per-row oracle at the run_tile level."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_blocked_matches_per_row(self, rng, mode, d, monkeypatch):
        n, m = 64, 8
        ref = rng.normal(size=(n, d)).cumsum(axis=0)
        qry = rng.normal(size=(48, d)).cumsum(axis=0)
        cfg = RunConfig(mode=mode)
        tr = to_device_layout(ref, cfg.policy.storage)
        tq = to_device_layout(qry, cfg.policy.storage)
        width = n - m + 1  # the self-join runs row-major, the tall AB tile transposed
        for tq_used, ez in ((tr, m // 2), (tq, None)):  # self- and AB-join
            base = _run(tr, tq_used, m, cfg, False, ez)
            for blk in (1, 7, 64, WHOLE):  # incl. blocks > the steps
                _budget(monkeypatch, blk, d, width)
                got = _run(tr, tq_used, m, cfg, True, ez)
                _assert_same(base, got, f"{mode} d={d} blk={blk}")

    @pytest.mark.parametrize("mode", ["FP16", "FP32"])
    def test_degenerate_inputs_hit_fallbacks_identically(self, rng, mode, monkeypatch):
        """Constant windows (inf/0 normalisers -> NaN products), huge
        amplitudes (QT overflow -> inf) and tiny amplitudes (half
        subnormals) push the blocked half fast paths onto their scalar
        fallbacks — results must still be bit-identical."""
        n, m, d = 72, 8, 3
        series = []
        a = rng.normal(size=(n, d)).cumsum(axis=0)
        a[20:40] = 1.5  # constant windows
        series.append(a)
        series.append((rng.normal(size=(n, d)) * 500).cumsum(axis=0))  # overflow
        series.append(rng.normal(size=(n, d)).cumsum(axis=0) * 1e-4)  # subnormal
        cfg = RunConfig(mode=mode)
        for ref in series:
            tr = to_device_layout(ref, cfg.policy.storage)
            base = _run(tr, tr, m, cfg, False, ez=m // 2)
            for blk in (1, 16, WHOLE):
                _budget(monkeypatch, blk, d, n - m + 1)
                got = _run(tr, tr, m, cfg, ez=m // 2)
                _assert_same(base, got, f"degenerate {mode} blk={blk}")

    def test_dist_calc_loop_rounds_are_arithmetic(self, rng, monkeypatch):
        """The grid-stride round count is ceil(plane/threads) per logical
        row — identical for any block size (regression for the cost
        model's per-row accounting)."""
        import math

        n, d, m = 96, 4, 8
        ref = rng.normal(size=(n, d)).cumsum(axis=0)
        cfg = RunConfig(mode="FP16")
        tr = to_device_layout(ref, cfg.policy.storage)
        n_seg = n - m + 1
        expected = n_seg * math.ceil(d * n_seg / cfg.launch.total_threads)
        precalc = kernel_precalc(tr, tr, m, cfg.policy, cfg.launch)
        for blk in (1, 13, 64):
            _budget(monkeypatch, blk, d, n_seg)
            out = run_tile(tr, tr, m, cfg.policy, cfg.launch, exclusion_zone=m // 2,
                           precalc=precalc)
            assert out.costs["dist_calc"].loop_rounds == expected


class TestEngineDefaultBlocking:
    """Blocking is on by default; the engine output must equal per-row."""

    def test_default_equals_per_row_including_timeline(self, rng, monkeypatch):
        ref = rng.normal(size=(300, 3)).cumsum(axis=0)
        m = 16
        with per_row_engine():
            r_perrow = compute_multi_tile(ref, None, m, RunConfig(mode="FP16", n_tiles=4))
        for budget in (backends.SUPER_STEP_ELEMENTS, 0):  # default, blocks of one
            monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", budget)
            r_blocked = compute_multi_tile(
                ref, None, m, RunConfig(mode="FP16", n_tiles=4)
            )
            assert np.array_equal(
                r_blocked.profile.view(np.uint8), r_perrow.profile.view(np.uint8)
            )
            assert np.array_equal(r_blocked.index, r_perrow.index)
            assert r_blocked.timeline.makespan == r_perrow.timeline.makespan
            assert vars(r_blocked.costs["dist_calc"]) == vars(r_perrow.costs["dist_calc"])


class TestSuperStepRows:
    """One element budget sizes every vector-path super-step."""

    @pytest.mark.parametrize(
        "steps, width, planes, rows",
        [
            # batch_kernels: 512-514-wide tiles, d = 8.
            (512, 512, 8, 32),
            (513, 513, 8, 31),
            (514, 514, 8, 31),
            # batch_kernels symmetric: 256-wide tiles, d = 8.
            (256, 256, 8, 64),
            # service_mixed: 337-356-wide single tiles, d = 3, and the
            # 169-178-wide tiles of its 4-tile jobs.
            (337, 337, 3, 129),
            (356, 356, 3, 122),
            (169, 169, 3, 169),
            (178, 178, 3, 178),
            # batch_tiles: 38/39-square tiles stacked six deep, d = 2.
            (38, 38, 2 * 6, 38),
            (39, 39, 2 * 6, 39),
        ],
    )
    def test_benchmark_shapes(self, steps, width, planes, rows):
        assert super_step_rows(steps, width, planes) == rows

    def test_clamped_to_one_and_steps(self):
        assert super_step_rows(5, 100, 1) == 5
        assert super_step_rows(4096, 1 << 21, 1) == 1
        assert super_step_rows(0, 10, 1) == 1

    def test_budget_sets_the_block(self, rng, monkeypatch):
        """run_tile steps in blocks of exactly super_step_rows rows."""
        blocks = []
        original = backends.DistCalcKernel.run_block

        def spy(self, start, rows, out):
            blocks.append(rows)
            return original(self, start, rows, out)

        monkeypatch.setattr(backends.DistCalcKernel, "run_block", spy)
        d, m, n_seg = 3, 8, 40
        cfg = RunConfig(mode="FP32")
        tr = to_device_layout(rng.normal(size=(n_seg + m - 1, d)), cfg.policy.storage)
        precalc = kernel_precalc(tr, tr, m, cfg.policy, cfg.launch)
        for budget, want in ((0, [1] * n_seg), (7 * d * n_seg, [7] * 5 + [5]),
                             (WHOLE, [n_seg])):
            monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", budget)
            blocks.clear()
            run_tile(tr, tr, m, cfg.policy, cfg.launch, exclusion_zone=m // 2,
                     precalc=precalc)
            assert blocks == want
        # A stack of two tiles spends the same budget on d * 2 planes.
        monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", 14 * d * n_seg)
        blocks.clear()
        stack = np.stack([tr, tr])
        run_tile(stack, stack, m, cfg.policy, cfg.launch,
                 row_offset=[0, 0], col_offset=[0, 0],
                 exclusion_zone=m // 2,
                 precalc=kernel_precalc(stack, stack, m, cfg.policy, cfg.launch))
        assert blocks == [7] * 5 + [5]


class _DelayingBackend(NumericBackend):
    """Numeric backend that delays early tiles so completion order is the
    reverse of submission order — the merge must not care.  ``tile`` is
    one tile or a stacked batch of them."""

    def run(self, plan, tile, gpu):
        first = min(t.tile_id for t in ([tile] if hasattr(tile, "tile_id") else tile))
        time.sleep(0.03 if first < 2 else 0.0)
        return super().run(plan, tile, gpu)


class TestParallelDispatch:
    def _dispatch(self, spec, plan, backend, **kwargs):
        sim = GPUSimulator(spec.config.device, spec.config.n_gpus,
                          spec.config.n_streams)
        acc = ProfileAccumulator(spec.d, spec.n_q_seg, spec.policy)
        report = execute_plan(plan, backend, sim, accumulator=acc, **kwargs)
        return acc.host_profile(), acc.host_index(), sim.timeline.makespan, report

    @pytest.fixture
    def spec_plan(self, rng):
        ref = rng.normal(size=(230, 3)).cumsum(axis=0)
        config = RunConfig(mode="FP16", n_tiles=9, n_gpus=3)
        spec = JobSpec.from_arrays(ref, None, 16, config)
        return spec, spec.plan()

    def test_workers_deterministic_vs_serial(self, spec_plan):
        spec, plan = spec_plan
        base = self._dispatch(spec, plan, NumericBackend())
        for workers in (1, 2, 4):
            got = self._dispatch(
                spec, plan, NumericBackend(), parallel_workers=workers
            )
            assert np.array_equal(got[0], base[0]), f"profile workers={workers}"
            assert np.array_equal(got[1], base[1]), f"index workers={workers}"
            assert got[2] == base[2], f"timeline workers={workers}"
            assert got[3].tiles_completed == base[3].tiles_completed

    def test_shuffled_completion_order_is_invisible(self, spec_plan):
        """Tiles finishing out of order must merge in tile-id order."""
        spec, plan = spec_plan
        base = self._dispatch(spec, plan, NumericBackend())
        got = self._dispatch(
            spec, plan, _DelayingBackend(), parallel_workers=4
        )
        assert np.array_equal(got[0], base[0])
        assert np.array_equal(got[1], base[1])
        assert got[2] == base[2]

    def test_parallel_composes_with_retry_and_escalation(self, spec_plan):
        """A deterministic transient failure plus a health escalation must
        recover under parallel dispatch exactly as under serial dispatch:
        profile, indices (fp16 argmin tie-breaks included), makespan and
        the recovery counters, reproducibly run to run."""
        spec, plan = spec_plan

        def injector(label, tile, gpu_id, attempt):
            if tile.tile_id == 3 and attempt == 0:
                raise TransientDeviceError("injected")

        def corruptor(label, tile, gpu_id, attempt, output):
            if tile.tile_id == 5 and attempt == 0:
                output.profile[...] = np.float16(np.nan)

        kwargs = dict(policy=ExecutionPolicy(
            health=HealthPolicy(),
            max_retries=2,
            fault_plan=SimpleNamespace(injector=injector, corruptor=corruptor),
        ))
        base = self._dispatch(spec, plan, NumericBackend(), **kwargs)
        assert base[3].tile_retries == 1
        assert base[3].escalations.keys() == {5}
        for _ in range(2):
            got = self._dispatch(
                spec, plan, NumericBackend(), parallel_workers=3, **kwargs
            )
            assert np.array_equal(got[0], base[0])
            assert np.array_equal(got[1], base[1])
            assert got[2] == base[2]
            assert got[3].tile_retries == 1
            assert got[3].escalations.keys() == {5}

    @pytest.mark.parametrize("mode", ["FP16", "FP32", "FP64"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_transient_retry_is_invisible(self, mode, workers):
        """One retried tile commits at its plan position: profile, indices
        and makespan equal the failure-free run's.  A periodic series has
        exact distance ties, so a merge out of plan order would move
        argmin indices."""
        t = np.arange(400)
        ref = np.stack([np.sin(2 * np.pi * t / 25), np.sin(2 * np.pi * t / 40)], axis=1)
        config = RunConfig(mode=mode, n_tiles=9, n_gpus=3)
        spec = JobSpec.from_arrays(ref, None, 16, config)
        plan = spec.plan()

        def injector(label, tile, gpu_id, attempt):
            if tile.tile_id == 0 and attempt == 0:
                raise TransientDeviceError("injected")

        clean = self._dispatch(spec, plan, NumericBackend())
        got = self._dispatch(
            spec, plan, NumericBackend(), parallel_workers=workers,
            policy=ExecutionPolicy(
                max_retries=1, fault_plan=SimpleNamespace(injector=injector)
            ),
        )
        assert got[3].tile_retries == 1
        assert np.array_equal(got[0].view(np.uint8), clean[0].view(np.uint8))
        assert np.array_equal(got[1], clean[1])
        assert got[2] == clean[2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_split_children_commit_at_parent_position(self, spec_plan, workers):
        spec, plan = spec_plan
        first = plan.tiles[0]

        def injector(label, tile, gpu_id, attempt):
            if tile is first:
                raise DeviceOutOfMemoryError(0, 0, f"gpu{gpu_id} (injected)")

        report = self._dispatch(
            spec, plan, NumericBackend(), parallel_workers=workers,
            keep_executions=True,
            policy=ExecutionPolicy(
                oom_split=True, fault_plan=SimpleNamespace(injector=injector)
            ),
        )[3]
        children = report.splits[first.tile_id]
        assert len(children) == 4
        committed = [e.tile.tile_id for e in report.executions]
        planned = [t.tile_id for t in plan.tiles[1:]]
        assert committed == list(children) + planned
        assert report.tiles_completed == report.tiles_total == plan.n_tiles + 3

    def test_commits_under_thread_churn(self, spec_plan):
        """More workers than cores, a tiny switch interval, a retry and an
        OOM split: tiles commit while workers run, and the result still
        equals the serial run's."""
        spec, plan = spec_plan
        first = plan.tiles[0]

        def injector(label, tile, gpu_id, attempt):
            if tile is first:
                raise DeviceOutOfMemoryError(0, 0, "injected")
            if tile.tile_id == 4 and attempt == 0:
                raise TransientDeviceError("injected")

        kwargs = dict(policy=ExecutionPolicy(
            max_retries=1, oom_split=True,
            fault_plan=SimpleNamespace(injector=injector),
        ))
        base = self._dispatch(spec, plan, NumericBackend(), **kwargs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self._dispatch(
                spec, plan, _DelayingBackend(), parallel_workers=8, **kwargs
            )
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got[0], base[0])
        assert np.array_equal(got[1], base[1])
        assert got[2] == base[2]
        assert got[3].tiles_completed == base[3].tiles_completed == plan.n_tiles + 3

    def test_parallel_workers_validation(self, spec_plan):
        spec, plan = spec_plan
        sim = GPUSimulator(spec.config.device, 1, None)
        with pytest.raises(ValueError):
            execute_plan(plan, NumericBackend(), sim, parallel_workers=0)

    def test_api_parallel_workers(self, rng):
        from repro import matrix_profile

        ref = rng.normal(size=(180, 2)).cumsum(axis=0)
        r1 = matrix_profile(ref, m=12, mode="FP16", n_tiles=4)
        r2 = matrix_profile(ref, m=12, mode="FP16", n_tiles=4, parallel_workers=3)
        assert np.array_equal(r1.profile.view(np.uint8), r2.profile.view(np.uint8))
        assert np.array_equal(r1.index, r2.index)


class TestWorkspacePool:
    def test_lease_reuses_buffer(self):
        pool = WorkspacePool()
        with pool.lease((2, 3), np.float16) as a:
            first = a
        with pool.lease((2, 3), np.float16) as b:
            assert np.shares_memory(b, first)  # same buffer back
        with pool.lease((2, 3), np.float32) as c:
            assert not np.shares_memory(c, first)  # dtype keys differ

    def test_lease_returns_buffer_on_exception(self):
        pool = WorkspacePool()
        try:
            with pool.lease((4, 4), np.float32) as a:
                leaked = a
                raise RuntimeError("mid-tile fault")
        except RuntimeError:
            pass
        with pool.lease((4, 4), np.float32) as b:
            assert np.shares_memory(b, leaked)  # returned despite the raise

    def test_one_growing_buffer_per_dtype(self):
        """Varying shapes share one flat buffer per dtype, grown to the
        largest request; each lease is a contiguous prefix."""
        pool = WorkspacePool()
        for shape in ((2, 8, 30), (2, 32, 100), (3, 4, 5), (2, 32, 99)):
            for dtype in (np.float16, np.float64):
                with pool.lease(shape, dtype) as ws:
                    assert ws.shape == shape and ws.dtype == dtype
                    assert ws.flags.c_contiguous
        # Leases one after the other all take slot 0 of their dtype.
        assert {k: v.size for k, v in pool._free.items()} == {
            (np.dtype(np.float16), 0): 6400, (np.dtype(np.float64), 0): 6400,
        }

    def test_nested_same_dtype_leases_are_distinct(self):
        """A lease taken inside another of the same dtype gets its own
        slot: distinct, non-overlapping buffers, and the same memory
        again for the next tile's identical leases."""
        pool = WorkspacePool()

        def one_tile():
            with pool.lease((4, 8), np.float32) as qt, \
                    pool.lease((2, 8), np.float32) as dist:
                with pool.lease((3, 5), np.float32) as tmp:
                    views = (qt, dist, tmp)
            return views

        first = one_tile()
        for a in range(3):
            for b in range(a + 1, 3):
                assert not np.shares_memory(first[a], first[b])
        again = one_tile()
        for was, now in zip(first, again):
            assert now.__array_interface__["data"] == was.__array_interface__["data"]
        assert sorted(slot for _, slot in pool._free) == [0, 1, 2]
        # A sibling lease after a nested one reuses the freed slot.
        with pool.lease((4, 8), np.float32) as qt:
            with pool.lease((3, 5), np.float32) as sibling:
                assert np.shares_memory(sibling, first[1])

    def test_stream_holds_one_buffer_per_dtype(self, rng):
        """A stream with varying batch sizes (tall bands, wide new-row
        tiles, probes) leaves one workspace buffer per dtype and slot
        behind: the same fixed set of main-loop buffers after every
        append, grown in place rather than multiplied per shape."""
        from repro.streams import IncrementalMatrixProfile

        series = rng.normal(size=(400, 2)).cumsum(axis=0)
        inc = IncrementalMatrixProfile(16, RunConfig(mode="FP32"))
        pool = inc._backend._workspace_pool()
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        # QT and distance buffers, the scan temporary, the two product
        # buffers, the two exclusion-mask buffers and the argmin keys.
        want = {(f32, 0), (f32, 1), (f32, 2), (f64, 0), (f64, 1),
                (np.dtype(bool), 0), (np.dtype(bool), 1), (np.dtype(np.uint32), 0)}
        off = 0
        for step in (120, 7, 33, 1, 64, 19, 90, 66):
            inc.append(series[off : off + step])
            off += step
            assert set(pool._free) == want
        inc.probe(3, 9)
        assert set(pool._free) == want

    def test_backend_pools_are_per_thread(self):
        backend = NumericBackend()
        pools = {}

        def grab(name):
            pools[name] = backend._workspace_pool()

        t = threading.Thread(target=grab, args=("worker",))
        t.start()
        t.join()
        grab("main")
        assert pools["main"] is not pools["worker"]
        assert pools["main"] is backend._workspace_pool()  # stable per thread


class TestHalfRoundingPrimitives:
    """The float32-carrier half rounding that powers the blocked fast
    paths must agree with ``astype(float16)`` everywhere it is used
    (the sweep over every float32 exponent is in ``test_f16_carrier.py``)."""

    def _reference(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            return x.astype(np.float16).astype(np.float32)

    def test_boundaries_and_special_values(self):
        cases = np.array([
            0.0, -0.0, 1.0, -1.0,
            65504.0, 65519.9, 65520.0, 65536.0, 1e30,      # overflow edge
            -65520.0, -1e30,
            2.0 ** -14, 2.0 ** -14 * (1 + 1e-4),           # smallest normal
            2.0 ** -24, 2.0 ** -25, 2.0 ** -26, 1e-7,      # subnormals
            6.0e-5, 6.104e-5, 6.1e-8,
            np.inf, -np.inf, np.nan,
        ], dtype=np.float32)
        got = cases.copy()
        round_f16(got, WorkspacePool())
        ref = self._reference(cases)
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))

    def test_random_full_range_bits(self, rng):
        bits = rng.integers(0, 1 << 32, size=200_000, dtype=np.uint64)
        x = bits.astype(np.uint32).view(np.float32)
        got = np.empty_like(x)
        round_f16(x, WorkspacePool(), out=got)
        ref = self._reference(x)
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))

    def test_nonneg_variant_on_half_pair_sums(self, rng):
        """The scan-stage domain: float32 sums of two non-negative half
        values (numpy's half add is exactly this sum plus one rounding).
        The unchecked split matches, except that a sum rounding to
        ``+inf`` stays a finite value of at least 2^16."""
        a = rng.integers(0, 0x7C00, size=100_000, dtype=np.uint16).view(np.float16)
        b = rng.integers(0, 0x7C00, size=100_000, dtype=np.uint16).view(np.float16)
        with np.errstate(over="ignore"):
            ref = (a + b).astype(np.float32)  # half add, widened
        got = a.astype(np.float32) + b.astype(np.float32)
        split_f16(got, np.empty_like(got), got)
        inf = np.isinf(ref)
        assert inf.any() and (got[inf] >= 2.0**16).all()
        assert np.array_equal(got[~inf].view(np.uint32), ref[~inf].view(np.uint32))
