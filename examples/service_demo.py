#!/usr/bin/env python
"""The matrix-profile job service: caching, load shedding, fault recovery.

Drives the `repro.service` subsystem through its three headline
behaviours:

1. **Result caching** — repeated queries over the same series are served
   from the content-addressed cache.
2. **Precision-aware load shedding** — a burst of deadline-carrying jobs
   overwhelms the estimated capacity, and the admission controller walks
   jobs down the FP64 -> FP32 -> Mixed -> FP16 ladder instead of
   dropping any of them.
3. **Fault recovery** — injected transient device failures on a sick
   GPU are retried on a different pool GPU without corrupting the result.

Run:  python examples/service_demo.py
"""

import numpy as np

from repro.engine import FaultPlan
from repro.reporting import banner, print_table, render_service_metrics
from repro.service import (
    DOWNGRADE_LADDER,
    JobRequest,
    LoadEstimator,
    MatrixProfileService,
)


def main() -> None:
    rng = np.random.default_rng(7)
    series = rng.normal(size=(512, 3)).cumsum(axis=0)
    m = 32

    banner("1. Result caching on repeated queries")
    service = MatrixProfileService(device="A100", n_gpus=2, n_workers=2)
    for round_no in (1, 2, 3):
        outcome = service.submit_and_wait(JobRequest(reference=series, m=m))
        source = "cache" if outcome.cache_hit else "computed"
        print(f"round {round_no}: {outcome.status} ({source}, "
              f"{outcome.latency * 1e3:.1f} ms)")
    print(f"cache stats: {service.cache.stats()}")

    banner("2. Overload burst: precision downgrades, zero drops")
    # A deliberately pessimistic, non-learning estimator makes the
    # backlog arithmetic deterministic: estimates blow the deadline
    # budget long before the real (fast) compute would.
    estimator = LoadEstimator("A100", seconds_per_cell=1e-4, learn=False)
    burst = MatrixProfileService(
        device="A100", n_gpus=2, n_workers=1, estimator=estimator,
        use_cache=False,
    )
    ladder = " -> ".join(mode.value for mode in DOWNGRADE_LADDER)
    print(f"downgrade ladder: {ladder}")
    jobs = [
        burst.submit(JobRequest(reference=series, m=m, deadline=10.0))
        for _ in range(8)
    ]
    burst.process_all()
    rows = [
        [job.job_id, str(job.outcome.status), job.outcome.requested_mode.value,
         job.outcome.effective_mode.value, job.outcome.downgrade_steps]
        for job in jobs
    ]
    print_table(["job", "status", "requested", "ran", "steps shed"], rows)
    print(render_service_metrics(burst.metrics.snapshot()))

    banner("3. Transient device failure: retry on another GPU")

    # GPU 0 is sick: every tile placed there fails and moves to GPU 1.
    resilient = MatrixProfileService(
        device="A100", n_gpus=2, n_workers=1,
        fault_plan=FaultPlan(seed=0, sick_gpus=(0,)),
    )
    outcome = resilient.submit_and_wait(
        JobRequest(reference=series, m=m, n_tiles=4)
    )
    print(f"status: {outcome.status}; tile retries absorbed: "
          f"{outcome.tile_retries}")
    baseline = service.submit_and_wait(JobRequest(reference=series, m=m))
    match = np.allclose(
        outcome.result.profile, baseline.result.profile, atol=1e-10
    )
    print(f"profile identical to failure-free run: {match}")


if __name__ == "__main__":
    main()
