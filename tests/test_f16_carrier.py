"""Half precision on float32 carriers.

The vector main loop holds half values in float32 arrays and rounds by
Veltkamp splitting (``repro.kernels._f16fast``).  These tests pin:

* the split against ``astype(float16)`` on every float32 exponent, with
  sampled mantissas, every tie pattern and its neighbours, and the
  boundaries: either the split is exact or the range check flags it,
  and ``round_f16`` is exact everywhere;
* the QT recurrence's per-super-step check and diagonal repair: inputs
  whose step values fall into half subnormals or whose QT overflows past
  65520 are compared against the per-row oracle in row-major, transposed
  and stacked tiles at block sizes from one row to the whole tile, with a
  counter that shows the repair ran;
* the compact QT -> distance table against the 65536-entry one;
* the FP16 seed pass on carriers (and on small planes in float16)
  against native float16 arithmetic.
"""

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.engine import backends
from repro.engine.backends import run_tile
from repro.kernels import dist_calc
from repro.kernels._f16fast import (
    f16_flagged,
    round_f16,
    split_f16,
)
from repro.kernels.dist_calc import (
    DIST_SCALE_EXP,
    _DIST_KEY_LO,
    DistCalcKernel,
    _qt_to_dist_lut_f16,
    _qt_to_dist_table_f16,
)
from repro.kernels.layout import to_device_layout
from repro.kernels.precalc import (
    PrecalcResult,
    _delta_coefficients,
    _window_stats,
    seed_qt_rows,
)
from repro.kernels.workspace import WorkspacePool
from repro.precision.modes import policy_for

from .per_row_oracle import per_row_tile
from .precalc_oracle import kernel_precalc

HALF_MODES = ("FP16", "Mixed", "FP16C")


def _exact(x):
    with np.errstate(over="ignore", invalid="ignore"):
        return x.astype(np.float16).astype(np.float32)


def _split(x):
    hi = x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        split_f16(hi, np.empty_like(hi), hi)
    return hi


def _bits_by_exponent(rng):
    """Float32 patterns of both signs on every exponent: sampled
    mantissas, every tie pattern (low 13 bits ``0x1000``) with its
    neighbours, and the values next to each rounding boundary."""
    exps = np.arange(256, dtype=np.uint32)[:, None] << np.uint32(23)
    sampled = rng.integers(0, 1 << 23, size=(256, 64), dtype=np.uint32)
    upper = rng.integers(0, 1 << 10, size=(256, 16), dtype=np.uint32) << np.uint32(13)
    tie = upper | np.uint32(0x1000)
    ties = np.concatenate([tie - np.uint32(1), tie, tie + np.uint32(1)], axis=1)
    edges = np.array([0, 1, 0x0FFF, 0x1FFF, 0x2000, 0x7FFFFF, 0x7FE000, 0x7FF000],
                     dtype=np.uint32)[None, :]
    mags = (exps | np.concatenate([sampled, ties, np.broadcast_to(edges, (256, 8))],
                                  axis=1)).ravel()
    special = np.array([0.0, 2.0**-14, 65504.0, 65519.0, 65519.99, 65520.0,
                        65535.99, 65536.0, np.inf], dtype=np.float32).view(np.uint32)
    nans = np.array([0x7FC00000, 0x7F800001, 0x7FFFFFFF, 0x7FC01000], dtype=np.uint32)
    mags = np.concatenate([mags, special, nans])
    return np.concatenate([mags, mags | np.uint32(0x80000000)]).view(np.float32)


class TestSplit:
    def test_exact_or_flagged_on_every_exponent(self, rng):
        x = _bits_by_exponent(rng)
        hi = _split(x)
        ref = _exact(x)
        flagged = np.zeros(x.size, dtype=bool)
        flagged[f16_flagged(hi, WorkspacePool())] = True
        wrong = hi.view(np.uint32) != ref.view(np.uint32)
        assert wrong.any() and not (wrong & ~flagged).any()
        # The exact domain is where the split is used without a check.
        mag = np.abs(x)
        inside = (mag > 2.0**-14) & (mag < 65520)
        assert not (inside & wrong).any()
        # Every value below 2^16 that rounds to infinity comes out at
        # 2^16 or above (larger ones may overflow the split to NaN).
        overflow = np.isinf(ref) & (mag < 2.0**16)
        assert overflow.any()
        assert (np.abs(hi[overflow]) >= 2.0**16).all()

    def test_range_check_flags_each_kind(self, rng):
        pool = WorkspacePool()
        x = (rng.choice([-1, 1], 4096) * rng.uniform(1e-3, 6e4, 4096)).astype(np.float32)
        x[::7] = 0.0  # exact zeros pass
        assert f16_flagged(_split(x), pool).size == 0
        for bad in (1e-6, -3e-7, 7e4, -65520.0, np.inf, np.nan):
            y = x.copy()
            y[100] = bad
            assert f16_flagged(_split(y), pool).tolist() == [100]

    def test_round_f16_is_astype_everywhere(self, rng):
        x = _bits_by_exponent(rng)
        pool = WorkspacePool()
        out = np.empty_like(x)
        round_f16(x, pool, out=out)
        assert np.array_equal(out.view(np.uint32), _exact(x).view(np.uint32))
        inplace = x.copy()
        round_f16(inplace, pool)
        assert np.array_equal(inplace.view(np.uint32), out.view(np.uint32))


def _series(kind, n, d, seed, at=40):
    """A random walk with, from sample ``at`` on, a quiet stretch
    (``"subnormal"``: centred products of ~1e-3 samples land in half
    subnormals) or a loud one (``"overflow"``: windowed QT beyond
    65520)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)).cumsum(axis=0)
    if kind == "subnormal":
        x[at : at + 40] = 1e-3 * rng.standard_normal((40, d))
    elif kind == "overflow":
        x[at : at + 30] *= 40
    return x


@pytest.fixture
def repairs(monkeypatch):
    """Counts of the two repair paths run."""
    counts = {"diagonals": 0, "rows": 0}
    walk = DistCalcKernel._repair_diagonals
    redo = DistCalcKernel._redo_rows_exact

    def spy_walk(self, *args):
        counts["diagonals"] += 1
        return walk(self, *args)

    def spy_redo(self, *args):
        counts["rows"] += 1
        return redo(self, *args)

    monkeypatch.setattr(DistCalcKernel, "_repair_diagonals", spy_walk)
    monkeypatch.setattr(DistCalcKernel, "_redo_rows_exact", spy_redo)
    return counts


def _assert_same(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g.profile.view(np.uint8), w.profile.view(np.uint8))
        assert np.array_equal(g.indices, w.indices)


class TestRepairMatchesPerRow:
    M, D = 16, 2

    def _tiles(self, kind, n_r, n_q, tiles, policy):
        # The stretch ends just past the tiles' last rows and columns, so
        # flags also fall in a short last super-step.
        at = min(n_r, n_q) - 20
        layout = to_device_layout(_series(kind, 3 * (n_r + n_q), self.D, 3, at),
                                  policy.storage)
        width = self.M - 1
        tr = np.stack([layout[:, 11 * t : 11 * t + n_r + width] for t in range(tiles)])
        tq = np.stack([layout[:, 17 * t + n_r // 2 : 17 * t + n_r // 2 + n_q + width]
                       for t in range(tiles)])
        return tr, tq

    @pytest.mark.parametrize("mode", HALF_MODES)
    @pytest.mark.parametrize("kind", ["subnormal", "overflow"])
    @pytest.mark.parametrize(
        "shape", [(90, 120, 1), (120, 90, 1), (70, 80, 3)],
        ids=["row-major", "transposed", "stacked"],
    )
    def test_every_block_size(self, mode, kind, shape, repairs, monkeypatch):
        n_r, n_q, tiles = shape
        cfg = RunConfig(mode=mode)
        policy, launch = cfg.policy, cfg.launch
        tr, tq = self._tiles(kind, n_r, n_q, tiles, policy)
        offsets = dict(row_offset=[11 * t for t in range(tiles)],
                       col_offset=[17 * t + n_r // 2 for t in range(tiles)])
        precalc = kernel_precalc(tr, tq, self.M, policy, launch)
        want = per_row_tile(tr, tq, self.M, policy, launch, precalc=precalc,
                            exclusion_zone=4, **offsets)
        steps, width = (n_q, n_r) if n_q < n_r else (n_r, n_q)
        for rows in (1, 2, 7, 11, steps):
            monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS",
                                rows * width * self.D * tiles)
            got = run_tile(tr, tq, self.M, policy, launch, precalc=precalc,
                           exclusion_zone=4, **offsets)
            _assert_same(got, want)
        assert repairs["diagonals"] + repairs["rows"] > 0

    @pytest.mark.parametrize("kind", ["subnormal", "overflow"])
    @pytest.mark.parametrize("dense", [0, 10**9], ids=["redo-rows", "walk-diagonals"])
    def test_each_repair_alone_matches_per_row(self, kind, dense, repairs, monkeypatch):
        """Either repair on its own reproduces the per-row oracle, so the
        flags-per-row threshold between them only picks the faster."""
        cfg = RunConfig(mode="FP16")
        tr, tq = self._tiles(kind, 90, 120, 1, cfg.policy)
        precalc = kernel_precalc(tr[0], tq[0], self.M, cfg.policy, cfg.launch)
        want = per_row_tile(tr[0], tq[0], self.M, cfg.policy, cfg.launch, precalc=precalc)
        monkeypatch.setattr(dist_calc, "_DENSE_REPAIR", dense)
        monkeypatch.setattr(backends, "SUPER_STEP_ELEMENTS", 7 * 120 * self.D)
        got = run_tile(tr[0], tq[0], self.M, cfg.policy, cfg.launch, precalc=precalc)
        _assert_same([got], [want])
        ran, idle = ("rows", "diagonals") if dense == 0 else ("diagonals", "rows")
        assert repairs[ran] > 0 and repairs[idle] == 0


def test_repair_stops_at_a_short_last_super_step():
    """A wrong split in the tile's last row, inside a super-step shorter
    than the leased workspace: the diagonal walk repairs it and stops at
    the step's last row.  Only the last row's first products are
    non-zero: ``(2^-14 * 1025/1024) * 0.2998`` lies off the half
    subnormal grid, where the split keeps bits the exact rounding
    drops."""
    d, n_r, n_q = 1, 5, 4
    zeros_r = np.zeros((d, n_r), dtype=np.float16)
    zeros_q = np.zeros((d, n_q), dtype=np.float16)
    df_r = zeros_r.copy()
    df_r[0, -1] = np.uint16(0x0401).view(np.float16)
    dg_q = np.full((d, n_q), 0.2998, dtype=np.float16)
    pre = PrecalcResult(m=4, mu_r=zeros_r, inv_r=zeros_r + 1, df_r=df_r, dg_r=zeros_r,
                        mu_q=zeros_q, inv_q=zeros_q + 1, df_q=zeros_q, dg_q=dg_q,
                        qt_row0=zeros_q, qt_col0=zeros_r)
    cfg = RunConfig(mode="FP16")
    oracle = DistCalcKernel(config=cfg.launch, policy=cfg.policy)
    oracle.bind(pre)
    want = np.stack([oracle.run(i) for i in range(n_r)], axis=1).astype(np.float32)
    kernel = DistCalcKernel(config=cfg.launch, policy=cfg.policy)
    kernel.bind(pre)
    with kernel.lease(3) as ws:
        got = np.concatenate([kernel.run_block(0, 3, ws).copy(),
                              kernel.run_block(3, 2, ws).copy()], axis=1)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


class TestDistanceTable:
    @pytest.mark.parametrize("m", [2, 16, 32, 1024])
    def test_table_agrees_with_lut_on_every_finite_half(self, m):
        halves = np.arange(65536, dtype=np.uint16).view(np.float16)
        with np.errstate(invalid="ignore"):
            scaled = halves.astype(np.float32) * np.float32(2.0**DIST_SCALE_EXP)
        keys = np.abs(np.right_shift(scaled.view(np.int32), 13).astype(np.intp))
        got = np.take(_qt_to_dist_table_f16(m), keys - _DIST_KEY_LO, mode="clip")
        want = _qt_to_dist_lut_f16(m).astype(np.float32)
        finite = np.isfinite(halves)
        assert np.array_equal(got[finite].view(np.uint32), want[finite].view(np.uint32))

    def test_size_and_cache(self):
        assert _qt_to_dist_table_f16(32).nbytes <= 340 * 1024
        assert _qt_to_dist_table_f16(32) is _qt_to_dist_table_f16(32)
        assert not hasattr(_qt_to_dist_lut_f16, "cache_info")

    def test_specials_take_the_exact_chain(self):
        """+inf and NaN correlations need different distances (0 and the
        saturation value), which no clipped end entry could give both."""
        lut = _qt_to_dist_lut_f16(32)
        inf, nan = np.float16(np.inf).view(np.uint16), np.float16(np.nan).view(np.uint16)
        assert lut[inf] == 0 and lut[nan] == np.float16(65504)

    @pytest.mark.parametrize("below_one", [False, True], ids=["every-half", "below-one"])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0, 3.75, 4.0, 6.5, 8.0])
    def test_block_distances_cover_every_half(self, scale, below_one):
        """``QT`` equal to every half value, both normalisers ``scale``
        (each side of the thresholds the block conversion's checks
        depend on), through the block conversion, against the per-row
        chain.  ``below_one`` keeps the halves of magnitude below 1, so
        no NaN or overflow switches the full check on: at 6.5 one small
        first product that the split rounds wrongly then reaches a
        distance, and only the second normaliser above 4 catches it."""
        halves = np.arange(65536, dtype=np.uint16).view(np.float16)
        if below_one:
            halves = np.concatenate([halves[np.abs(halves) < 1],
                                     np.zeros(2048, dtype=np.float16)])[:32 * 1024]
        halves = halves.reshape(-1, 1, 1024)
        rows = halves.shape[0]
        m = 32
        ones = np.ones((1, rows), dtype=np.float16)
        inv = np.full((1, 1024), scale, dtype=np.float16)
        zeros_q = np.zeros((1, 1024), dtype=np.float16)
        zeros_r = np.zeros((1, rows), dtype=np.float16)
        pre = PrecalcResult(m=m, mu_r=zeros_r, inv_r=ones * np.float16(scale),
                            df_r=zeros_r, dg_r=zeros_r, mu_q=zeros_q, inv_q=inv,
                            df_q=zeros_q, dg_q=zeros_q,
                            qt_row0=halves[0], qt_col0=zeros_r)
        policy = policy_for("FP16")
        kernel = DistCalcKernel(config=RunConfig().launch, policy=policy)
        kernel.bind(pre)
        out = np.empty((1, rows, 1024), dtype=np.float32)
        kernel._distances_block_f16(halves.astype(np.float32), 0, rows, out)
        want = np.stack([kernel._distances(halves[r], pre.inv_r[:, r : r + 1])
                         for r in range(rows)], axis=1)
        assert np.array_equal(out.view(np.uint32),
                              want.astype(np.float32).view(np.uint32))


def _f16_window_stats(series, m):
    """The FP16 precalc's window statistics in native float16 ufuncs."""
    d, n = series.shape
    n_seg = n - m + 1
    acc = np.zeros((d, n_seg), dtype=np.float16)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(m):
            acc = acc + series[:, t : t + n_seg]
        mu = (acc / np.float16(m)).astype(np.float16)
        acc = np.zeros((d, n_seg), dtype=np.float16)
        for t in range(m):
            diff = series[:, t : t + n_seg] - mu
            acc = acc + diff * diff
        cent = np.maximum(acc, np.float16(np.finfo(np.float16).tiny))
        inv = (np.float16(1) / np.sqrt(cent)).astype(np.float16)
    return mu, inv


def _f16_seeds(series, starts, mu, m):
    d, n_seg = mu.shape
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for s in starts:
            fixed = series[:, s : s + m] - mu[:, s : s + 1]
            acc = np.zeros((d, n_seg), dtype=np.float16)
            for t in range(m):
                acc = acc + fixed[:, t : t + 1] * (series[:, t : t + n_seg] - mu)
            out.append(acc)
    return np.stack(out)


class TestSeedPassOnCarriers:
    @pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (1e-3, 0.0), (1e2, 1e3),
                                               (3e3, 4e4), (300.0, 0.0)])
    # Planes of ``_CARRIER_MIN_SIZE`` elements and more run on carriers,
    # smaller ones in float16: (3, 150) and (8, 1100) take one path each.
    @pytest.mark.parametrize("d, n", [(3, 150), (8, 1100)])
    def test_matches_native_float16(self, rng, scale, offset, d, n):
        m = 16
        policy = policy_for("FP16")
        series = (offset + scale * rng.standard_normal((d, n))).astype(np.float16)
        series[1, 40:80] = series[1, 40]  # a flat stretch
        mu, inv = _window_stats(series, m, policy)
        want_mu, want_inv = _f16_window_stats(series, m)
        assert mu.dtype == inv.dtype == np.float16
        assert mu.tobytes() == want_mu.tobytes()
        assert inv.tobytes() == want_inv.tobytes()
        df, dg = _delta_coefficients(series, mu, m, policy.precalc)
        head, tail = series[:, m:], series[:, : series.shape[1] - m]
        with np.errstate(over="ignore", invalid="ignore"):
            want_df = (head - tail) * np.float16(0.5)
            want_dg = (head - mu[:, 1:]) + (tail - mu[:, :-1])
        assert df[:, 1:].tobytes() == want_df.tobytes()
        assert dg[:, 1:].tobytes() == want_dg.tobytes()
        starts = [0, 9, 120]
        seeds = seed_qt_rows(series, starts, series, mu, mu, m, policy)
        assert seeds.tobytes() == _f16_seeds(series, starts, mu, m).tobytes()


def test_block_path_holds_no_half_buffer():
    """The half block path's workspace, distances and recurrence state
    are float32 carriers."""
    cfg = RunConfig(mode="Mixed")
    layout = to_device_layout(_series("walk", 120, 2, 0), cfg.policy.storage)
    tr = layout[:, :80]
    pre = kernel_precalc(tr, tr, 16, cfg.policy, cfg.launch).result
    kernel = DistCalcKernel(config=cfg.launch, policy=cfg.policy)
    kernel.bind(pre)
    with kernel.lease(8) as ws:
        dist = kernel.run_block(0, 8, ws)
        assert ws.dtype == dist.dtype == kernel.qt.dtype == np.float32
    assert kernel.workspace_shape(8) == ws.shape


def test_block_path_rejects_a_half_workspace():
    """A float16 workspace (the layout before carriers) fails at the
    call, not deep in the range check."""
    cfg = RunConfig(mode="FP16")
    layout = to_device_layout(_series("walk", 120, 2, 0), cfg.policy.storage)
    tr = layout[:, :80]
    pre = kernel_precalc(tr, tr, 16, cfg.policy, cfg.launch).result
    kernel = DistCalcKernel(config=cfg.launch, policy=cfg.policy)
    kernel.bind(pre)
    ws = np.empty(kernel.workspace_shape(8), dtype=np.float16)
    with pytest.raises(TypeError, match="float32 workspace"):
        kernel.run_block(0, 8, ws)
