"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.tiling import assign_tiles, compute_tile_list, tile_grid_shape
from repro.gpu.kernel import LaunchConfig, grid_stride_chunks
from repro.kernels.sort_scan import fanin_inclusive_scan
from repro.precision.arithmetic import quantize, saturate_cast
from repro.precision.kahan import kahan_sum, naive_sum

from .per_row_oracle import bitonic_sort

finite_floats = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)


class TestBitonicSortProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.integers(1, 8)),
            elements=finite_floats,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_sorted_and_permutation(self, plane):
        out = bitonic_sort(plane)
        # Sorted ascending along axis 0...
        assert np.all(np.diff(out, axis=0) >= 0)
        # ...and a permutation of the input per column.
        np.testing.assert_array_equal(np.sort(out, axis=0), np.sort(plane, axis=0))

    @given(
        arrays(np.float16, st.tuples(st.integers(1, 20), st.integers(1, 4)),
               elements=st.floats(-100, 100, allow_nan=False, width=16))
    )
    @settings(max_examples=40, deadline=None)
    def test_fp16_matches_npsort(self, plane):
        np.testing.assert_array_equal(bitonic_sort(plane), np.sort(plane, axis=0))


class TestScanProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 33), st.integers(1, 6)),
            elements=finite_floats,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_fanin_equals_cumsum_in_fp64(self, plane):
        out = fanin_inclusive_scan(plane, np.dtype(np.float64))
        np.testing.assert_allclose(out, np.cumsum(plane, axis=0), rtol=1e-9, atol=1e-9)


class TestQuantizationProperties:
    @given(arrays(np.float64, st.integers(1, 50), elements=finite_floats))
    @settings(max_examples=60, deadline=None)
    def test_quantize_idempotent(self, x):
        once = quantize(x, np.float16)
        np.testing.assert_array_equal(once, quantize(once, np.float16))

    @given(arrays(np.float64, st.integers(1, 50), elements=st.floats(
        min_value=-1e9, max_value=1e9, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_saturate_cast_always_finite(self, x):
        out = saturate_cast(x, np.float16)
        assert np.all(np.isfinite(out))

    @given(arrays(np.float64, st.integers(1, 50), elements=finite_floats))
    @settings(max_examples=60, deadline=None)
    def test_quantize_error_within_half_ulp(self, x):
        q = quantize(x, np.float32).astype(np.float64)
        spacing = np.spacing(np.abs(x).astype(np.float32)).astype(np.float64)
        assert np.all(np.abs(q - x) <= spacing)


class TestKahanProperties:
    @given(
        arrays(np.float64, st.integers(2, 400), elements=st.floats(0.001, 1.0))
    )
    @settings(max_examples=40, deadline=None)
    def test_kahan_never_worse_than_naive_fp16(self, x):
        exact = float(np.sum(x))
        err_naive = abs(float(naive_sum(x, np.dtype(np.float16))) - exact)
        err_kahan = abs(float(kahan_sum(x, np.dtype(np.float16))) - exact)
        # Allow half-ulp slack at the result's magnitude.
        slack = float(np.spacing(np.float16(exact)))
        assert err_kahan <= err_naive + slack


class TestTilingProperties:
    @given(
        st.integers(1, 300),
        st.integers(1, 300),
        st.integers(1, 64),
    )
    @settings(max_examples=80, deadline=None)
    def test_tiles_partition_matrix(self, n_r, n_q, n_tiles):
        tiles = compute_tile_list(n_r, n_q, n_tiles)
        cells = np.zeros((n_r, n_q), dtype=np.int8)
        for t in tiles:
            assert t.n_rows >= 1 and t.n_cols >= 1
            cells[t.row_start : t.row_stop, t.col_start : t.col_stop] += 1
        assert np.all(cells == 1)

    @given(st.integers(1, 2048))
    @settings(max_examples=80, deadline=None)
    def test_grid_shape_factorises(self, n):
        g_r, g_q = tile_grid_shape(n)
        assert g_r * g_q == n
        assert 1 <= g_r <= g_q

    @given(st.integers(1, 64), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_round_robin_balance(self, n_tiles, n_gpus):
        tiles = compute_tile_list(512, 512, n_tiles)
        counts = np.bincount(assign_tiles(tiles, n_gpus), minlength=n_gpus)
        assert counts.max() - counts.min() <= 1


class TestGridStrideProperties:
    @given(st.integers(0, 5000), st.integers(1, 16), st.integers(1, 512))
    @settings(max_examples=60, deadline=None)
    def test_chunks_tile_the_index_space(self, n_items, grid, block):
        cfg = LaunchConfig(grid=grid, block=block)
        chunks = list(grid_stride_chunks(n_items, cfg))
        total = sum(c.stop - c.start for c in chunks)
        assert total == n_items
        for a, b in zip(chunks, chunks[1:]):
            assert a.stop == b.start
