"""Checkpoint/resume: a tile journal + accumulator snapshots.

Long mining runs (the paper's n=2^18 genome study) used to restart from
zero when killed.  A :class:`RunJournal` makes a multi-tile dispatch
resumable: :func:`~repro.engine.dispatch.execute_plan` records every
completed tile into it, and :func:`resume_plan` rebuilds the spec/plan
from the journal and hands both to the one whole-job runner, which
restores the accumulator and re-dispatches *only* the tiles the journal
does not hold — producing a profile bit-identical to an uninterrupted
run.  The runner resumes any journal it is handed the same way, so an
open journal passed to :func:`~repro.core.api.matrix_profile` continues
the run too.

Journal directory layout::

    meta.json   -- format version, m, RunConfig.to_dict(), resolved
                   exclusion zone, tile list + static assignment
    series.npz  -- the validated host series (reference [+ query])
    state.npz   -- accumulator snapshot after the last journaled tile
                   (profile, index, counters, aggregated kernel costs)
    tiles.log   -- one JSON line per completed tile: geometry + the
                   precision mode it finally executed at

Group commit: the dispatcher commits finished tiles in waves (every
tile no outstanding tile precedes), and :meth:`RunJournal.record` writes
one wave at a time — ``state.npz`` first (tmp + atomic rename), *then*
one ``tiles.log`` append holding a line per tile of the wave.  A crash
between the two leaves a state snapshot that already contains the wave
but no log lines for it — so resume re-executes and re-merges those
tiles.  The strict-``<`` min/argmin merge is idempotent under an
identical repeated merge, so the resumed profile is still bit-identical.

Tiles are keyed by *geometry* (row/col segment ranges), not tile id:
OOM splits renumber tiles, and geometry is what makes a journaled output
reusable.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from ..core.config import RunConfig
from ..core.result import MatrixProfileResult
from ..core.tiling import Tile
from ..precision.modes import PrecisionMode
from .accumulate import ProfileAccumulator
from .dispatch import ExecutionPolicy
from .plan import ExecutionPlan, JobSpec

__all__ = ["RunJournal", "resume_plan", "tile_key"]

JOURNAL_VERSION = 1


def tile_key(tile: Tile) -> tuple[int, int, int, int]:
    """A tile's geometry key (split-stable; ids are not)."""
    return (tile.row_start, tile.row_stop, tile.col_start, tile.col_stop)


class RunJournal:
    """On-disk journal of one multi-tile run (see the module docstring)."""

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self.meta_path = self.path / "meta.json"
        self.series_path = self.path / "series.npz"
        self.state_path = self.path / "state.npz"
        self.log_path = self.path / "tiles.log"

    # ------------------------------------------------------------------
    # Creation / opening

    @classmethod
    def create(
        cls,
        path: "str | Path",
        spec: JobSpec,
        plan: ExecutionPlan,
        extra: dict | None = None,
    ) -> "RunJournal":
        """Start a fresh journal for ``plan`` (refuses an existing one).

        ``extra`` is an optional JSON-serialisable dict stored verbatim
        under ``meta["extra"]`` — higher tiers (the cluster dispatcher)
        stash their own context (e.g. the :class:`ClusterSpec`) there so
        a coordinator crash can resume with the same sharding.
        """
        if spec.reference is None:
            raise ValueError(
                "journaling needs host series (JobSpec.from_arrays); "
                "layout-only and modeled specs cannot be journaled"
            )
        journal = cls(path)
        if journal.meta_path.exists():
            raise FileExistsError(
                f"journal already exists at {journal.path}; use "
                f"resume_plan() to continue it or choose a fresh path"
            )
        journal.path.mkdir(parents=True, exist_ok=True)
        meta = {
            "version": JOURNAL_VERSION,
            "m": spec.m,
            "config": spec.config.to_dict(),
            "exclusion_zone": spec.exclusion_zone,
            "self_join": spec.self_join,
            "tiles": [
                # mirror rides as a 6th element; rebuild() tolerates the
                # 5-element rows of journals written before it existed.
                [t.tile_id, t.row_start, t.row_stop, t.col_start, t.col_stop,
                 bool(getattr(t, "mirror", False))]
                for t in plan.tiles
            ],
            "assignment": list(plan.assignment),
        }
        if extra is not None:
            meta["extra"] = extra
        arrays = {"reference": spec.reference}
        if spec.query is not None:
            arrays["query"] = spec.query
        np.savez_compressed(journal.series_path, **arrays)
        journal.meta_path.write_text(json.dumps(meta))
        return journal

    @classmethod
    def open(cls, path: "str | Path") -> "RunJournal":
        """Open an existing journal, validating its format version."""
        journal = cls(path)
        if not journal.meta_path.exists():
            raise FileNotFoundError(f"no journal at {journal.path}")
        meta = journal.meta()
        if meta.get("version") != JOURNAL_VERSION:
            raise ValueError(
                f"unsupported journal version {meta.get('version')!r}"
            )
        return journal

    def meta(self) -> dict:
        return json.loads(self.meta_path.read_text())

    def extra(self) -> dict:
        """The creator-supplied ``extra`` metadata ({} when absent)."""
        return self.meta().get("extra", {})

    # ------------------------------------------------------------------
    # The dispatch-facing protocol

    key = staticmethod(tile_key)

    def completed_records(self) -> list[dict]:
        """The journaled tile lines, in completion order."""
        if not self.log_path.exists():
            return []
        return [
            json.loads(line)
            for line in self.log_path.read_text().splitlines()
            if line.strip()
        ]

    def escalations(self) -> dict[int, PrecisionMode]:
        """Tile id -> mode of every journaled tile that finally executed
        off the journaled config's mode (an interrupted run's escalations)."""
        base = self.meta()["config"]["mode"]
        return {
            r["tile_id"]: PrecisionMode.parse(r["mode"])
            for r in self.completed_records()
            if r["mode"] not in (None, base)
        }

    def completed_keys(self) -> set[tuple[int, int, int, int]]:
        """Geometry keys of every journaled tile."""
        return {
            (r["row_start"], r["row_stop"], r["col_start"], r["col_stop"])
            for r in self.completed_records()
        }

    def record(self, executions, accumulator: ProfileAccumulator) -> None:
        """Group-commit a wave of merged tiles: one state snapshot, then
        one log append with a line per tile, in commit order."""
        from ..io import _costs_to_records

        state = accumulator.state_arrays()
        costs_json = json.dumps(_costs_to_records(accumulator.costs))
        tmp = self.state_path.with_suffix(".tmp.npz")
        np.savez(
            tmp,
            costs=np.frombuffer(costs_json.encode(), dtype=np.uint8),
            **state,
        )
        os.replace(tmp, self.state_path)
        lines = []
        for execution in executions:
            tile = execution.tile
            lines.append(json.dumps({
                "tile_id": tile.tile_id,
                "row_start": tile.row_start,
                "row_stop": tile.row_stop,
                "col_start": tile.col_start,
                "col_stop": tile.col_stop,
                "mode": execution.mode.value if execution.mode is not None else None,
            }) + "\n")
        with self.log_path.open("a") as fh:
            fh.write("".join(lines))

    # ------------------------------------------------------------------
    # Resume

    def restore(self, accumulator: ProfileAccumulator) -> None:
        """Load the journaled snapshot into ``accumulator`` (no-op when
        the run died before its first tile completed)."""
        from ..io import _costs_from_records

        if not self.state_path.exists():
            return
        with np.load(self.state_path) as data:
            costs = _costs_from_records(
                json.loads(bytes(data["costs"].tobytes()).decode())
            )
            accumulator.restore_state(
                profile=data["profile"],
                index=data["index"],
                merge_elements=int(data["merge_elements"]),
                h2d_saved_bytes=float(data["h2d_saved_bytes"]),
                costs=costs,
                # Absent in journals written before the amortisation layer.
                precalc_saved_flops=(
                    float(data["precalc_saved_flops"])
                    if "precalc_saved_flops" in data.files
                    else 0.0
                ),
            )

    def rebuild(self) -> tuple[JobSpec, ExecutionPlan]:
        """Reconstruct the spec and plan the journal was created for."""
        meta = self.meta()
        config = RunConfig.from_dict(meta["config"])
        with np.load(self.series_path) as data:
            reference = data["reference"]
            query = data["query"] if "query" in data.files else None
        spec = JobSpec.from_arrays(reference, query, int(meta["m"]), config)
        spec.exclusion_zone = meta["exclusion_zone"]
        tiles = [
            Tile(*row[:5], mirror=bool(row[5]) if len(row) > 5 else False)
            for row in meta["tiles"]
        ]
        plan = spec.plan(tiles=tiles, assignment=list(meta["assignment"]))
        return spec, plan


def resume_plan(
    path: "str | Path",
    observers=(),
    max_retries: int = 0,
    health=None,
    fault_plan=None,
    oom_split: bool = False,
) -> MatrixProfileResult:
    """Continue a journaled run, recomputing zero journaled tiles.

    Rebuilds the spec/plan from the journal and runs them through the
    runner behind :func:`~repro.core.multi_tile.compute_multi_tile`,
    which resumes any journal it is handed: it restores the accumulator
    snapshot and the journaled escalations, then dispatches only the
    missing tiles on the backend the journaled config names (journaling
    them as they complete, so resume itself is resumable).  The returned
    profile, index, costs and merge time are bit-identical to an
    uninterrupted run; the timeline covers only the resumed portion.
    """
    from ..core.multi_tile import _run_plan

    journal = RunJournal.open(path)
    spec, plan = journal.rebuild()
    return _run_plan(
        spec,
        plan,
        journal=journal,
        policy=ExecutionPolicy(
            health=health,
            max_retries=max_retries,
            fault_plan=fault_plan,
            oom_split=oom_split,
        ),
        observers=observers,
    )
