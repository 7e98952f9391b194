"""Deterministic fault injection: every recovery path exercisable in CI.

A :class:`FaultPlan` decides per (tile, attempt) whether to inject a
failure, using counter-based draws — each decision hashes
``(seed, kind, tile geometry, attempt)`` — so the same seed reproduces
the same storm regardless of dispatch order, placement policy, or how a
split renumbers tile ids (geometry, not id, keys the draw).  Four fault
kinds, matching the hazards the engine must survive:

* **transient** — :class:`~repro.engine.dispatch.TransientDeviceError`
  raised before the tile allocates anything (the retry path);
* **oom** — :class:`~repro.gpu.memory.DeviceOutOfMemoryError` (the
  tile-split path when ``oom_split`` is on, re-plan otherwise);
* **corrupt** — NaN / +inf / negative values written into the tile's
  distance plane after execution (the health-check + escalation path;
  the mix matters: NaN and +inf would be *silently dropped* by the
  strict-``<`` merge, negatives would *poison* it — health checks must
  catch both classes);
* **sick GPU** — a device in ``sick_gpus`` fails every tile, every
  attempt (the route-around-a-device path; needs a placement with
  exclusion, i.e. round-robin).

A plan reaches a dispatch as the ``fault_plan`` of an
:class:`~repro.engine.dispatch.ExecutionPolicy` (or pass ``fault_plan=``
to :func:`repro.core.multi_tile.compute_multi_tile` /
:class:`repro.service.MatrixProfileService`, which build that policy);
:func:`~repro.engine.dispatch.execute_plan` calls its two hooks below.
Any object with either hook can stand in for a plan.  Injected events
are recorded on :attr:`FaultPlan.events` for assertions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..gpu.memory import DeviceOutOfMemoryError
from .dispatch import TransientDeviceError

__all__ = ["FaultEvent", "FaultPlan", "seeded_uniform"]


def seeded_uniform(seed: int, kind: str, key: object, attempt: int = 0) -> float:
    """Counter-based uniform draw in [0, 1) from ``(seed, kind, key, attempt)``.

    The shared primitive behind every deterministic schedule in the repo:
    :class:`FaultPlan` tile storms, :class:`~repro.core.config.RetryPolicy`
    jitter, and :class:`~repro.cluster.NodeFaultPlan` node storms.  Same
    inputs => same draw, independent of call order or process.
    """
    token = f"{seed}:{kind}:{key}:{attempt}"
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64

#: Values a corrupt fault writes, cycled: silent-loss (NaN, +inf — strict-<
#: merge would drop them) and merge-poisoning (negative wins every min).
_CORRUPT_VALUES = (np.nan, np.inf, -1.0)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for post-run assertions."""

    kind: str  # "transient" | "oom" | "corrupt" | "sick"
    tile_id: int
    tile_key: tuple[int, int, int, int]  # row/col geometry (split-stable)
    gpu_id: int
    attempt: int


class FaultPlan:
    """Seedable per-tile fault schedule.

    Parameters
    ----------
    seed:
        Base of every hashed draw; same seed => same storm.
    transient_rate, oom_rate, corrupt_rate:
        Per-tile probabilities in [0, 1] for each fault kind.
    sick_gpus:
        Device ids that fail *every* tile on *every* attempt.
    first_attempt_only:
        Inject transient/OOM/corruption only on ``attempt == 0`` (the
        default), so retries converge; sick GPUs stay sick regardless.
    """

    def __init__(
        self,
        seed: int = 0,
        transient_rate: float = 0.0,
        oom_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        sick_gpus: "tuple[int, ...] | frozenset[int]" = (),
        first_attempt_only: bool = True,
        corrupt_count: int = 3,
    ):
        for name, rate in (
            ("transient_rate", transient_rate),
            ("oom_rate", oom_rate),
            ("corrupt_rate", corrupt_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if corrupt_count < 1:
            raise ValueError(f"corrupt_count must be >= 1, got {corrupt_count}")
        self.seed = seed
        self.transient_rate = transient_rate
        self.oom_rate = oom_rate
        self.corrupt_rate = corrupt_rate
        self.sick_gpus = frozenset(sick_gpus)
        self.first_attempt_only = first_attempt_only
        self.corrupt_count = corrupt_count
        self.events: list[FaultEvent] = []

    # ------------------------------------------------------------------

    @staticmethod
    def _key(tile) -> tuple[int, int, int, int]:
        return (tile.row_start, tile.row_stop, tile.col_start, tile.col_stop)

    def _draw(self, kind: str, tile, attempt: int) -> float:
        """Deterministic uniform in [0, 1) for one (kind, tile, attempt)."""
        return seeded_uniform(self.seed, kind, self._key(tile), attempt)

    def _record(self, kind: str, tile, gpu_id: int, attempt: int) -> None:
        self.events.append(
            FaultEvent(kind, tile.tile_id, self._key(tile), gpu_id, attempt)
        )

    def event_counts(self) -> dict[str, int]:
        """Injected events by kind (empty kinds omitted)."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def corrupted_tile_keys(self) -> set[tuple[int, int, int, int]]:
        """Geometry keys of every tile whose output was corrupted."""
        return {e.tile_key for e in self.events if e.kind == "corrupt"}

    def _inside_oomed(self, tile) -> bool:
        """True for a tile strictly contained in an already-OOMed one.

        Injected OOM models *capacity*, not bad luck: a split child
        covers less area than its OOMed parent, so it allocates less and
        must succeed — otherwise the split recovery could never
        terminate (every split would draw four fresh OOM chances).
        """
        r0, r1, c0, c1 = self._key(tile)
        for event in self.events:
            if event.kind != "oom":
                continue
            er0, er1, ec0, ec1 = event.tile_key
            contained = er0 <= r0 and r1 <= er1 and ec0 <= c0 and c1 <= ec1
            if contained and (r0, r1, c0, c1) != event.tile_key:
                return True
        return False

    # ------------------------------------------------------------------
    # The two dispatch hooks

    def injector(self, label, tile, gpu_id: int, attempt: int) -> None:
        """Injection hook: fires before any device allocation."""
        if gpu_id in self.sick_gpus:
            self._record("sick", tile, gpu_id, attempt)
            raise TransientDeviceError(f"injected sick GPU {gpu_id}")
        if self.first_attempt_only and attempt > 0:
            return
        if self._draw("transient", tile, attempt) < self.transient_rate:
            self._record("transient", tile, gpu_id, attempt)
            raise TransientDeviceError(
                f"injected transient fault on tile {tile.tile_id}"
            )
        if (
            self._draw("oom", tile, attempt) < self.oom_rate
            and not self._inside_oomed(tile)
        ):
            self._record("oom", tile, gpu_id, attempt)
            raise DeviceOutOfMemoryError(0, 0, f"gpu{gpu_id} (injected)")

    def corruptor(self, label, tile, gpu_id: int, attempt: int, output) -> None:
        """``corruptor`` hook: may scribble over the tile's distance plane.

        The dispatcher only calls this for executions at the plan's base
        mode — the escalated re-execution is the *recovery* and stays
        clean, so every corrupted tile converges up the ladder.
        """
        if self.first_attempt_only and attempt > 0:
            return
        if self._draw("corrupt", tile, attempt) >= self.corrupt_rate:
            return
        # Only entries holding a real match (index >= 0) are corrupted:
        # saturated limit-valued columns are invisible to health checks.
        d_idx, c_idx = np.nonzero(output.indices >= 0)
        if d_idx.size == 0:
            return
        self._record("corrupt", tile, gpu_id, attempt)
        n = min(self.corrupt_count, d_idx.size)
        # Deterministic positions: spread evenly over the valid entries.
        picks = np.linspace(0, d_idx.size - 1, n).astype(np.int64)
        for j, p in enumerate(picks):
            output.profile[d_idx[p], c_idx[p]] = _CORRUPT_VALUES[
                j % len(_CORRUPT_VALUES)
            ]
