"""Plane-cache prepares are attributed to the tier that made them.

Batch plans and streams share one plane cache
(:class:`~repro.engine.precalc_cache.PlaneCache`), held as
``PrecalcPlaneCache`` and ``StreamPlaneCache``.  The benchmark tracer
(``benchmarks/e2e/trace.py``) wraps the two ``prepare`` attributes by
class name and reads them with ``inspect.getattr_static``, so each class
must own its ``prepare``: with an inherited one, the second wrapper would
wrap the first and every stream prepare would also count as a batch one.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from e2e.trace import Tracer  # noqa: E402

from repro import matrix_profile  # noqa: E402
from repro.core.config import RunConfig  # noqa: E402
from repro.streams import IncrementalMatrixProfile  # noqa: E402

BATCH, STREAM = "engine.precalc_prepare", "streams.plane_prepare"


def _series(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)[:, None]
    return np.sin(2 * np.pi * t / (11 + 4 * np.arange(2))) + 0.1 * rng.normal(size=(n, 2))


def _prepare_spans(run):
    tracer = Tracer()
    with tracer.installed():
        run()
    names = [span.name for span in tracer.spans]
    return names.count(BATCH), names.count(STREAM)


@pytest.mark.parametrize("join", ["self", "ab"])
def test_batch_prepares_land_in_the_engine_span(join):
    query = _series(90, seed=1) if join == "ab" else None
    batch, stream = _prepare_spans(
        lambda: matrix_profile(_series(120), query, m=12, n_tiles=4)
    )
    assert batch > 0
    assert stream == 0


@pytest.mark.parametrize("join", ["self", "ab"])
def test_stream_prepares_land_in_the_stream_span(join):
    reference = _series(90, seed=1) if join == "ab" else None
    inc = IncrementalMatrixProfile(12, RunConfig(), reference=reference)
    inc.append(_series(40))

    batch, stream = _prepare_spans(lambda: inc.append(_series(24, seed=2)))
    assert stream > 0
    assert batch == 0
