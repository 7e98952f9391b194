#!/usr/bin/env python
"""Live monitoring with the streaming matrix profile.

The case studies of the paper (HPC monitoring, turbine surveillance) are
inherently *online*: samples arrive continuously and anomalies should be
flagged as soon as a window completes.  This example feeds a simulated
live sensor stream — normal periodic operation with one injected fault —
into an AB-join :class:`repro.streams.IncrementalMatrixProfile` (fixed
healthy reference, growing query) and raises an alert when the
nearest-neighbour distance to the healthy reference jumps.

Run:  python examples/streaming_monitoring.py
"""

import numpy as np

from repro.core.config import RunConfig
from repro.reporting import banner, print_table
from repro.streams import IncrementalMatrixProfile


def healthy_signal(n: int, rng: np.random.Generator, d: int = 3) -> np.ndarray:
    t = np.arange(n)
    out = np.stack(
        [np.sin(2 * np.pi * t / (20 + 7 * k)) for k in range(d)], axis=1
    )
    return out + 0.08 * rng.normal(size=(n, d))


def main() -> None:
    rng = np.random.default_rng(11)
    m = 32
    d = 3

    banner("Building the healthy reference model")
    reference = healthy_signal(1024, rng, d)
    stream = IncrementalMatrixProfile(
        m, RunConfig(mode="Mixed"), reference=reference
    )
    print(f"reference: {reference.shape[0]} samples, {d} sensors, window m={m}")

    banner("Streaming live data (fault injected at t=300)")
    live = healthy_signal(480, rng, d)
    live[300:340, 1] += np.linspace(0, 3.0, 40)  # drifting sensor fault

    alerts = []
    threshold = None
    distances = []
    for t, sample in enumerate(live):
        if stream.append(sample[None]).new_segments == 0:
            continue  # the first window is not complete yet
        profile, _ = stream.profile()
        score = profile[-1, d - 1]  # full-dimensional consensus distance
        distances.append(score)
        if threshold is None and len(distances) == 100:
            threshold = float(np.mean(distances) + 6 * np.std(distances))
            print(f"calibrated alert threshold after 100 windows: {threshold:.3f}")
        if threshold is not None and score > threshold:
            alerts.append((t, score))

    banner("Alerts")
    if alerts:
        first, last = alerts[0], alerts[-1]
        rows = [
            ["first alert", first[0], f"{first[1]:.3f}"],
            ["last alert", last[0], f"{last[1]:.3f}"],
            ["total alerts", len(alerts), "-"],
        ]
        print_table(["event", "sample #", "distance"], rows)
        print(f"fault was injected at samples 300..340 -> detected at "
              f"{first[0]} (latency {first[0] - 300} samples)")
    else:
        print("no alerts raised (unexpected — the fault should trigger)")


if __name__ == "__main__":
    main()
