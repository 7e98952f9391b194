"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper: it computes
the same series the figure plots (real numerics at reduced scale, modelled
times at paper scale), prints the rows, and archives them under
``benchmarks/results/`` so the output survives pytest's capture.

Run the full harness with::

    pytest benchmarks/ --benchmark-only

Add ``-s`` to watch the tables stream by.  A full run writes them to the
results directory; a CI smoke run (``REPRO_BENCH_SMOKE=1``) only prints
them, and :func:`emit` and :func:`write_record` are the one place that
decides, so a smoke run never overwrites the committed tables or the
``BENCH_*.json`` records with smoke numbers.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def smoke_run() -> bool:
    """Whether ``REPRO_BENCH_SMOKE`` asks for a shrunken CI smoke run."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


#: Read once at import, for the scripts that size their problem by it.
SMOKE = smoke_run()

#: The five precision modes, in the paper's plotting order.
MODES = ("FP64", "FP32", "FP16", "Mixed", "FP16C")

#: Reduced-scale defaults for *executed* (not modelled) experiments.  The
#: paper's n=2^16 costs O(n^2 d) scalar ops — infeasible in pure Python —
#: and the accuracy trends are functions of stream length and machine eps,
#: so they reproduce at these sizes.
EXEC_N = 1536
EXEC_D = 8
EXEC_M = 32


def emit(name: str, text: str) -> None:
    """Print a result block and, unless this is a smoke run, archive it
    to benchmarks/results/<name>.txt."""
    if not smoke_run():
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(text, file=sys.stderr)
    print(text)


def write_record(path: Path, record: dict) -> None:
    """Write a benchmark's machine-readable record (a ``BENCH_*.json``)
    as indented JSON, unless this is a smoke run."""
    if not smoke_run():
        Path(path).write_text(json.dumps(record, indent=2) + "\n")


def series_label(exp: str, paper: str, ours: str) -> str:
    """Standard paper-vs-measured annotation line."""
    return f"[{exp}] paper: {paper}\n[{exp}] ours:  {ours}"
