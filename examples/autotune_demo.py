#!/usr/bin/env python
"""The error-budget planner: mode, backend, layout and tiles from a target.

Walks `repro.autotune` through its three contracts:

1. **Bit-identity** — `matrix_profile(..., auto=True)` only raises the
   tile count to the memory floor, so the profile is bit-identical to
   the constructor-default run (no numerics-visible knob moves absent
   an error target).
2. **Explainability** — `AutoTuner.tune()` returns the full decision:
   tile plan, roofline position, occupancy, and the ranked candidate
   list with rejection reasons.
3. **The error-target tier** — an explicit error budget unlocks the
   numerics-visible knobs: the planner walks the precision ladder and
   picks the cheapest mode whose Section V-B bound stays inside it.

Run:  python examples/autotune_demo.py
"""

import time

import numpy as np

from repro import matrix_profile
from repro.autotune import AutoTuner
from repro.reporting import banner


def main() -> None:
    rng = np.random.default_rng(11)
    m = 32
    series = rng.normal(size=(256 + m - 1, 4)).cumsum(axis=0)
    tuner = AutoTuner(device="A100")

    banner("1. auto=True is bit-identical to the default config")
    start = time.perf_counter()
    default = matrix_profile(series, m=m, mode="FP16")
    t_default = time.perf_counter() - start
    start = time.perf_counter()
    tuned = matrix_profile(series, m=m, mode="FP16", auto=True)
    t_auto = time.perf_counter() - start
    identical = np.array_equal(
        tuned.profile, default.profile, equal_nan=True
    ) and np.array_equal(tuned.index, default.index)
    print(f"default: {t_default * 1e3:.1f} ms   "
          f"auto: {t_auto * 1e3:.1f} ms (planner pass included)")
    print(f"profiles bit-identical: {identical}")

    banner("2. The decision, explained")
    decision = tuner.tune(256, 256, 4, m, mode="FP16")
    print(decision.explain())

    banner("3. An error target unlocks the precision ladder")
    for target in (1e-1, 1e-3, 1e-12):
        decision = tuner.tune(256, 256, 4, m, mode="FP64",
                              target_error=target)
        c = decision.chosen
        print(f"target {target:8.0e} -> {c.mode.value:5s} "
              f"(bound {c.error_bound:.3g}, {c.n_tiles} tile(s), "
              f"{c.backend}, precalc={c.precalc_strategy})")


if __name__ == "__main__":
    main()
