"""Run configuration: launch parameters, devices, tiling and precision.

Bundles the configuration surface of Pseudocode 1 (``s_block``, ``s_grid``)
and Pseudocode 2 (``n_tiles``, ``n_gpu``) with the precision mode and the
join semantics.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

from ..gpu.device import DeviceSpec, get_device
from ..gpu.kernel import LaunchConfig
from ..precision.modes import PrecisionMode, PrecisionPolicy, policy_for

__all__ = ["RunConfig", "RetryPolicy", "default_exclusion_zone"]

#: Retired numerics knobs at the one value the main loop computes (the
#: bitonic sort/scan, skipped at d = 1).  They entered ``cache_key()``,
#: which hashes them as constants; ``from_dict`` accepts only these.
_RETIRED_NUMERICS = {"sort_strategy": "bitonic", "fast_path_1d": True}


def default_exclusion_zone(m: int) -> int:
    """STUMPY's convention for self-join trivial-match exclusion: ceil(m/4)."""
    return int(math.ceil(m / 4))


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded, jittered exponential backoff for failed-work re-dispatch.

    ``delay(key, attempt)`` returns the wall seconds to wait before retry
    ``attempt`` (0-based: the delay *after* the first failure) of the work
    item identified by ``key``:

        base_delay * multiplier**attempt * (1 - jitter * u)   capped at max_delay

    where ``u`` in [0, 1) is a counter-based uniform hashed from
    ``(seed, key, attempt)`` — the same seed reproduces the same backoff
    schedule regardless of dispatch order, exactly like
    :class:`~repro.engine.faults.FaultPlan` storms.  The default
    ``base_delay=0.0`` preserves the engine's historical immediate-retry
    behaviour (every delay is exactly zero), which is why the policy is
    excluded from :meth:`RunConfig.cache_key`.
    """

    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, key: object, attempt: int) -> float:
        """Backoff before retry ``attempt`` of the work item ``key``."""
        if self.base_delay == 0.0:
            return 0.0
        token = f"{self.seed}:backoff:{key}:{attempt}"
        digest = hashlib.sha256(token.encode()).digest()
        u = int.from_bytes(digest[:8], "big") / 2.0**64
        raw = self.base_delay * self.multiplier**attempt
        return min(raw, self.max_delay) * (1.0 - self.jitter * u)

    def to_dict(self) -> dict:
        return {
            "base_delay": self.base_delay,
            "multiplier": self.multiplier,
            "max_delay": self.max_delay,
            "jitter": self.jitter,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        return cls(**data)


@dataclass(frozen=True)
class RunConfig:
    """Complete configuration of a matrix profile run.

    Parameters mirror the tuning knobs of the paper: launch configuration
    (tuned per device architecture), number of tiles and GPUs, stream count,
    and precision mode.
    """

    mode: PrecisionMode = PrecisionMode.FP64
    device: DeviceSpec = None  # type: ignore[assignment]
    launch: LaunchConfig = None  # type: ignore[assignment]
    n_tiles: int = 1
    n_gpus: int = 1
    n_streams: int | None = None
    exclusion_zone: int | None = None  # None => default for self-joins
    #: How the plan-level precalc cache evaluates the seed QT dot products:
    #: ``"exact"`` (the paper's sequential naive dot, bit-identical to
    #: per-tile precalculation) or ``"fft"`` (MASS-style sliding dot
    #: product — O(n log n) but *not* bit-identical, so it is opt-in,
    #: restricted to the FP64/FP32 modes where the error stays within
    #: the analytic dot-product bound, and it *does* enter
    #: ``cache_key()``).
    precalc_strategy: str = "exact"
    #: Main-loop execution backend: ``"numeric"`` (the paper's vector
    #: recurrence) or ``"tensor_core"`` (packed-panel chained-GEMM
    #: super-steps with FP32 accumulation — see
    #: :mod:`repro.kernels.tc_gemm`).  The tensor-core path only exists
    #: for the FP16-storage wide-precalc modes (Mixed, FP16C) on devices
    #: with tensor cores; other configurations fall back to the numeric
    #: backend with the reason recorded on the result.  Every tier honours
    #: it (service requests run numeric: ``JobRequest`` has no backend
    #: field).  The two paths are *not* bit-identical (FP32 accumulation
    #: is the point), so this knob enters ``cache_key()``.
    backend: str = "numeric"
    #: Exploit self-join symmetry (D(i, j) = D(j, i)): plan only diagonal
    #: + upper-triangular tiles and consume each off-diagonal distance
    #: panel twice — the usual column-wise reduce plus a row-wise
    #: mirrored reduce with transposed indices.  Halves the distance work
    #: but is *not* bit-identical to the full grid (reduced-precision
    #: recurrences restart at tile edges, so the mirrored contribution is
    #: computed from the transposed tile's panel), which is why it is
    #: opt-in, rejected for AB-joins, and enters ``cache_key()``.
    symmetric_tiles: bool = False
    #: Host threads executing independent tiles concurrently.  Results
    #: merge in plan order, so the output is deterministic and
    #: bit-identical to serial dispatch — a pure host-execution knob,
    #: excluded from ``cache_key()``.
    parallel_workers: int = 1
    #: Backoff schedule applied between per-tile retry attempts.  ``None``
    #: (and the ``RetryPolicy()`` default) mean immediate retry — the
    #: engine's historical behaviour.  Retry pacing never changes which
    #: tiles run or how they merge, so like ``parallel_workers`` it is
    #: excluded from ``cache_key()``.
    retry_policy: RetryPolicy | None = None

    def __post_init__(self) -> None:
        # Resolve defaults for device/launch at construction so the frozen
        # dataclass always carries concrete values.
        if self.device is None:
            object.__setattr__(self, "device", get_device("A100"))
        else:
            object.__setattr__(self, "device", get_device(self.device))
        if self.launch is None:
            object.__setattr__(self, "launch", LaunchConfig.tuned_for(self.device))
        object.__setattr__(self, "mode", PrecisionMode.parse(self.mode))
        if self.n_tiles < 1:
            raise ValueError(f"n_tiles must be >= 1, got {self.n_tiles}")
        if self.n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1, got {self.n_gpus}")
        if self.backend not in ("numeric", "tensor_core"):
            raise ValueError(
                f"backend must be 'numeric' or 'tensor_core', got "
                f"{self.backend!r}"
            )
        if self.parallel_workers < 1:
            raise ValueError(
                f"parallel_workers must be >= 1, got {self.parallel_workers}"
            )
        if self.precalc_strategy not in ("exact", "fft"):
            raise ValueError(
                f"precalc_strategy must be 'exact' or 'fft', got "
                f"{self.precalc_strategy!r}"
            )
        if self.precalc_strategy == "fft":
            if self.mode not in (PrecisionMode.FP64, PrecisionMode.FP32):
                raise ValueError(
                    "precalc_strategy='fft' is validated only for the FP64 "
                    f"and FP32 modes, got {self.mode.value}"
                )

    @property
    def policy(self) -> PrecisionPolicy:
        return policy_for(self.mode)

    def with_(self, **changes) -> "RunConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-serialisable view of every numerics-relevant knob.

        The device is stored *by name* (custom :class:`DeviceSpec`
        instances round-trip only if registered with ``get_device``); the
        launch configuration is stored explicitly so a config tuned for
        one device reconstructs identically.
        """
        return {
            "mode": self.mode.value,
            "device": self.device.name,
            "launch": {"grid": self.launch.grid, "block": self.launch.block},
            "n_tiles": self.n_tiles,
            "n_gpus": self.n_gpus,
            "n_streams": self.n_streams,
            "exclusion_zone": self.exclusion_zone,
            "backend": self.backend,
            "symmetric_tiles": self.symmetric_tiles,
            "precalc_strategy": self.precalc_strategy,
            "parallel_workers": self.parallel_workers,
            "retry_policy": (
                self.retry_policy.to_dict() if self.retry_policy else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Reconstruct a config from :meth:`to_dict` output."""
        data = dict(data)
        # Retired host-only knobs: journals written while per-tile
        # precalculation or the main-loop row block was selectable still
        # carry them.  Any other unknown key still fails loudly.
        for retired in ("amortize_precalc", "row_block"):
            data.pop(retired, None)
        # A retired numerics knob at another value means a removed path
        # computed the journal: it cannot resume.
        for knob, value in _RETIRED_NUMERICS.items():
            if knob in data and data.pop(knob) != value:
                raise ValueError(
                    f"{knob} was retired; only {knob}={value!r} is computed"
                    f" (the other value ran a removed main-loop path)"
                )
        launch = data.get("launch")
        if isinstance(launch, dict):
            data["launch"] = LaunchConfig(**launch)
        policy = data.get("retry_policy")
        if isinstance(policy, dict):
            data["retry_policy"] = RetryPolicy.from_dict(policy)
        return cls(**data)

    def cache_key(self) -> str:
        """Stable digest of the configuration, for content-addressed caches.

        Two configs share a key iff :meth:`to_dict` agrees on every field
        that can change the result — the numerics knobs (mode, tile
        count, exclusion zone) and the performance-model knobs.
        ``parallel_workers`` and ``retry_policy`` are excluded: parallel
        tile dispatch and retry pacing are bit-exact and cost-identical,
        so cached results are shared across those knobs.
        ``precalc_strategy``, ``backend`` and ``symmetric_tiles`` *are*
        included — the FFT seeds, the tensor-core main loop and the
        mirrored triangular grid are not bit-identical.  The retired
        knobs enter as the constants ``_RETIRED_NUMERICS``, so digests
        (and caches) of every config that can still be built hold.
        """
        fields = {
            **_RETIRED_NUMERICS,
            **{
                k: v
                for k, v in self.to_dict().items()
                if k not in ("parallel_workers", "retry_policy")
            },
        }
        payload = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]
