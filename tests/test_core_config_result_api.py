"""Unit tests for RunConfig, MatrixProfileResult and the public API."""

from dataclasses import fields

import numpy as np
import pytest

from repro import matrix_profile
from repro.core.config import RetryPolicy, RunConfig, default_exclusion_zone
from repro.core.result import MatrixProfileResult
from repro.gpu.device import A100, V100
from repro.gpu.kernel import LaunchConfig
from repro.precision.modes import PrecisionMode


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.mode is PrecisionMode.FP64
        assert cfg.device is A100
        assert cfg.launch.total_threads == A100.max_threads
        assert cfg.n_tiles == 1

    def test_device_by_name(self):
        cfg = RunConfig(device="V100")
        assert cfg.device is V100
        assert cfg.launch.block == 2560

    def test_mode_by_string(self):
        assert RunConfig(mode="fp16c").mode is PrecisionMode.FP16C

    def test_with_copies(self):
        cfg = RunConfig()
        cfg2 = cfg.with_(n_tiles=8)
        assert cfg.n_tiles == 1
        assert cfg2.n_tiles == 8
        assert cfg2.device is cfg.device

    def test_invalid_tiles(self):
        with pytest.raises(ValueError):
            RunConfig(n_tiles=0)

    def test_exclusion_zone_default(self):
        assert default_exclusion_zone(16) == 4
        assert default_exclusion_zone(10) == 3


class TestRunConfigSerialisation:
    def test_to_dict_round_trip(self):
        cfg = RunConfig(
            mode="FP16", device="V100", n_tiles=8, n_gpus=2, n_streams=4,
            exclusion_zone=7,
        )
        restored = RunConfig.from_dict(cfg.to_dict())
        assert restored == cfg

    def test_to_dict_is_json_serialisable(self):
        import json

        payload = json.dumps(RunConfig().to_dict(), sort_keys=True)
        assert json.loads(payload)["mode"] == "FP64"

    def test_round_trip_preserves_tuned_launch(self):
        # A config carrying V100-tuned launch parameters must reconstruct
        # them explicitly, not re-derive them for the default device.
        cfg = RunConfig(device="V100")
        restored = RunConfig.from_dict(cfg.to_dict())
        assert restored.launch == cfg.launch
        assert restored.launch.block == 2560

    def test_cache_key_stable_across_equal_configs(self):
        a = RunConfig(mode="Mixed", n_tiles=4)
        b = RunConfig(mode="Mixed", n_tiles=4)
        assert a is not b
        assert a.cache_key() == b.cache_key()

    @pytest.mark.parametrize(
        "changes",
        [
            {"mode": "FP32"},
            {"n_tiles": 2},
            {"exclusion_zone": 3},
            {"device": "V100"},
        ],
    )
    def test_cache_key_sensitive_to_numerics_knobs(self, changes):
        # Every knob that can change the computed numbers must change the
        # key — in reduced precision even the tile count alters results.
        base = RunConfig()
        assert base.with_(**changes).cache_key() != base.cache_key()

    def test_cache_key_round_trips_through_dict(self):
        cfg = RunConfig(mode="FP16", n_tiles=16)
        assert RunConfig.from_dict(cfg.to_dict()).cache_key() == cfg.cache_key()


#: ``cache_key()`` digests computed by the release whose ``RunConfig``
#: still had the host-only ``row_block`` field (default 32).  Removing a
#: field that ``cache_key()`` excluded must not move any of them:
#: content-addressed caches written before stay valid.
PINNED_KEYS = [
    ({}, "7963fc1c183412ea"),
    ({"mode": "FP32"}, "3f580052308babc1"),
    ({"mode": "FP16", "n_tiles": 16, "n_gpus": 2}, "06ddc0e590f3b4a4"),
    ({"mode": "Mixed", "backend": "tensor_core"}, "e1c4c4195dd1c781"),
    ({"mode": "FP16C", "backend": "tensor_core", "device": "V100"}, "7825dfb0315aa7f8"),
    ({"mode": "FP64", "n_tiles": 9, "symmetric_tiles": True}, "1b0ef0b591bfb0b6"),
    ({"mode": "FP32", "precalc_strategy": "fft", "n_tiles": 4}, "e726d483fb508f27"),
    # Digested there with sort_strategy="bitonic" and fast_path_1d=True,
    # the values cache_key() now hashes as constants.
    ({"mode": "FP16"}, "bf9e1d90658ec97b"),
    ({"exclusion_zone": 5, "n_streams": 4}, "93b5f79ccdc8b700"),
    # Digested there with row_block=7 as well: host knobs never entered it.
    ({"mode": "Mixed", "n_tiles": 4, "parallel_workers": 3,
      "retry_policy": RetryPolicy()}, "5c09e5ed716eeddf"),
]

#: A value differing from the default for every ``RunConfig`` field.
#: A new field needs an entry here — and a deliberate decision whether
#: it enters ``cache_key()``.
FIELD_CHANGES = {
    "mode": "FP32",
    "device": "V100",
    "launch": LaunchConfig(grid=32, block=256),
    "n_tiles": 4,
    "n_gpus": 2,
    "n_streams": 4,
    "exclusion_zone": 3,
    "precalc_strategy": "fft",
    "backend": "tensor_core",
    "symmetric_tiles": True,
    "parallel_workers": 3,
    "retry_policy": RetryPolicy(base_delay=0.1),
}


class TestCacheKeyContract:
    @pytest.mark.parametrize("changes, key", PINNED_KEYS)
    def test_digest_pinned(self, changes, key):
        assert RunConfig(**changes).cache_key() == key

    def test_excludes_exactly_the_host_knobs(self):
        assert set(FIELD_CHANGES) == {f.name for f in fields(RunConfig)}
        base = RunConfig()
        excluded = {
            name for name, value in FIELD_CHANGES.items()
            if base.with_(**{name: value}).cache_key() == base.cache_key()
        }
        assert excluded == {"parallel_workers", "retry_policy"}

    def test_from_dict_drops_retired_keys(self):
        cfg = RunConfig(mode="FP16", n_tiles=4)
        data = {**cfg.to_dict(), "row_block": 8, "amortize_precalc": False}
        restored = RunConfig.from_dict(data)
        assert restored == cfg
        assert restored.cache_key() == cfg.cache_key()
        with pytest.raises(TypeError):
            RunConfig.from_dict({**data, "unknown_knob": 1})

    def test_from_dict_accepts_retired_numerics_at_their_values(self):
        cfg = RunConfig(mode="FP16", n_tiles=4)
        data = {**cfg.to_dict(), "sort_strategy": "bitonic", "fast_path_1d": True}
        restored = RunConfig.from_dict(data)
        assert restored == cfg
        assert restored.cache_key() == cfg.cache_key()

    @pytest.mark.parametrize(
        "knob, value", [("sort_strategy", "batch"), ("fast_path_1d", False)]
    )
    def test_from_dict_rejects_retired_numerics_elsewhere(self, knob, value):
        # Such a config was computed by a removed path: its results
        # cannot be reproduced, so it is not silently dropped.
        data = {**RunConfig().to_dict(), knob: value}
        with pytest.raises(ValueError, match=knob):
            RunConfig.from_dict(data)


class TestMatrixProfileResult:
    def _result(self, rng):
        p = np.abs(rng.normal(size=(20, 3)))
        i = rng.integers(0, 20, size=(20, 3))
        return MatrixProfileResult(
            profile=p, index=i, mode=PrecisionMode.FP64, m=8
        )

    def test_profile_for_1_based(self, rng):
        r = self._result(rng)
        np.testing.assert_array_equal(r.profile_for(1), r.profile[:, 0])
        np.testing.assert_array_equal(r.profile_for(3), r.profile[:, 2])

    def test_profile_for_out_of_range(self, rng):
        r = self._result(rng)
        with pytest.raises(ValueError):
            r.profile_for(0)
        with pytest.raises(ValueError):
            r.index_for(4)

    def test_motif_location(self, rng):
        r = self._result(rng)
        j, i = r.motif_location(2)
        assert j == int(np.argmin(r.profile[:, 1]))
        assert i == int(r.index[j, 1])

    def test_dims(self, rng):
        r = self._result(rng)
        assert r.n_q_seg == 20
        assert r.d == 3


class TestPublicAPI:
    def test_dispatches_single_tile(self, rng):
        r = matrix_profile(rng.normal(size=(100, 2)), m=8)
        assert r.n_tiles == 1

    def test_dispatches_multi_tile(self, rng):
        r = matrix_profile(rng.normal(size=(100, 2)), m=8, n_tiles=4)
        assert r.n_tiles == 4

    def test_shapes(self, rng):
        r = matrix_profile(
            rng.normal(size=(128, 4)), rng.normal(size=(96, 4)), m=16
        )
        assert r.profile.shape == (81, 4)
        assert r.index.shape == (81, 4)

    def test_mode_string(self, rng):
        r = matrix_profile(rng.normal(size=(100, 2)), m=8, mode="mixed")
        assert r.mode is PrecisionMode.MIXED

    def test_docstring_example(self):
        rng = np.random.default_rng(0)
        ts = rng.normal(size=(512, 4))
        result = matrix_profile(ts, m=32, mode="FP32", n_tiles=4)
        assert result.profile.shape == (481, 4)
