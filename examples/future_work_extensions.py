#!/usr/bin/env python
"""The paper's future-work directions, implemented (Section VII).

1. **TF32 / BFLOAT16** — software-rounded transprecision formats slotted
   between FP32 and FP16.
2. **Multi-node deployment** — MPI-style strong scaling across simulated
   4xA100 nodes.
3. **Motif subspace recovery** — which dimensions actually form the motif
   (mSTAMP's companion analysis).

Run:  python examples/future_work_extensions.py
"""

import numpy as np

from repro import matrix_profile
from repro.baselines import mstamp
from repro.cluster import ClusterDispatcher, ClusterSpec
from repro.core.config import RunConfig
from repro.engine.plan import JobSpec
from repro.extensions import (
    BF16,
    TF32,
    motif_with_subspace,
    transprecision_matrix_profile,
)
from repro.metrics import recall_rate, relative_accuracy
from repro.reporting import banner, format_seconds, print_table


def main() -> None:
    rng = np.random.default_rng(21)

    banner("1. TF32 / BFLOAT16 transprecision")
    ref = rng.normal(size=(500, 4))
    qry = rng.normal(size=(500, 4))
    m = 32
    p64, i64 = mstamp(ref, qry, m)
    rows = []
    for fmt in (TF32, BF16):
        p, i = transprecision_matrix_profile(ref, qry, m, fmt)
        rows.append(
            [
                fmt.name,
                f"{fmt.precision} bits",
                f"{relative_accuracy(p, p64):.2f}%",
                f"{recall_rate(i, i64):.1f}%",
            ]
        )
    print_table(["format", "significand", "rel. accuracy", "recall"], rows)

    banner("2. Multi-node (MPI-style) strong scaling, n=2^17, d=2^6")
    spec = JobSpec.modeled(2**17, 2**17, 64, 64, RunConfig())
    base = ClusterDispatcher(ClusterSpec(1)).run(spec)
    rows = []
    for n_nodes in (1, 2, 4, 8):
        r = ClusterDispatcher(ClusterSpec(n_nodes)).run(spec)
        rows.append(
            [
                n_nodes,
                n_nodes * 4,
                format_seconds(r.total_time),
                format_seconds(r.broadcast_time + r.gather_time),
                f"{r.efficiency_vs(base):.1%}",
            ]
        )
    print_table(["nodes", "GPUs", "total", "communication", "efficiency"], rows)

    banner("3. Motif subspace recovery")
    n, d = 800, 6
    ref = rng.normal(size=(n, d))
    qry = rng.normal(size=(n, d))
    wave = 5.0 * np.sin(np.linspace(0, 4 * np.pi, m))
    motif_dims = (0, 2, 5)
    for dim in motif_dims:
        ref[120 : 120 + m, dim] += wave
        qry[600 : 600 + m, dim] += wave
    result = matrix_profile(ref, qry, m=m, mode="FP64")
    ss = motif_with_subspace(result, ref, qry, k=3)
    print(f"planted motif dims: {motif_dims}")
    print(f"recovered subspace: {tuple(sorted(ss.dimensions))} "
          f"at query {ss.query_pos} <-> reference {ss.ref_pos}")


if __name__ == "__main__":
    main()
