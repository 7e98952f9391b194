"""The repository benchmark.

    python3 benchmarks/e2e/run.py [--workload W]... [--runs N] [--seed S]
                                  [--seconds T] [--trace [0|1]] [--smoke]

Each run of a workload is a fresh worker process (``worker.py``) that sets
up, runs the workload for ``--seconds`` and checks its outputs.  Set-up
time is the median over the run's worker and a few set-up-only probes.
The command prints one line per metric (median, quartiles, run count),
writes a JSON result under ``benchmarks/e2e/results/`` (``results/smoke/``
with ``--smoke``) and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Untraced runs report
the end-to-end metrics of ``BENCHMARK.json``, traced runs its per-layer
metrics.  The exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE.parent))

from e2e import stats  # noqa: E402

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference_run.json"
#: Seed 0 is the baseline; a gain claimed later must also hold on this one.
HELD_OUT_SEED = 1
#: Set-up-only worker processes per run, on top of the measuring worker.
SETUP_PROBES = 3
#: Time a run (its probes and its worker) gets beyond ``--seconds`` for
#: set-up and checks before its workers are killed.
RUN_SLACK_S = 120
#: Workers run with single-threaded BLAS: the load already uses both cores
#: of the reference machine, and spinning BLAS threads on top of it made
#: run-to-run times swing by tens of percent.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(ROOT),
        "worker_env": WORKER_ENV,
        "seed": seed,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_worker(workload, phase, seed, seconds, trace, smoke, results_dir, tag,
               deadline) -> dict:
    scratch = RESULTS / "tmp" / f"{workload}-{os.getpid()}-{tag}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--phase", phase, "--trace", str(int(trace)),
        "--scratch", str(scratch), "--results", str(results_dir),
    ]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
            env={**os.environ, **WORKER_ENV},
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} {phase} worker timed out") from exc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} {phase} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def one_run(workload, args, results_dir, tag) -> dict:
    """One measured run: the worker, plus set-up probes when untraced."""
    deadline = time.monotonic() + args.seconds + RUN_SLACK_S
    probes = []
    if not args.trace:
        for i in range(1 if args.smoke else SETUP_PROBES):
            probe = run_worker(workload, "setup", args.seed, args.seconds, False,
                               args.smoke, results_dir, f"{tag}s{i}", deadline)
            probes.append(probe["setup_s"])
    record = run_worker(workload, "run", args.seed, args.seconds, args.trace,
                        args.smoke, results_dir, tag, deadline)
    record["setup_probes_s"] = probes
    record["metrics"]["setup_s"] = stats.quartiles(probes + [record["setup_s"]])[1]
    return record


def summarise(records, names) -> dict:
    key = "per_layer" if "per_layer" in records[0] else "metrics"
    out = {}
    for name in names:
        values = [r[key][name] for r in records if name in r[key]]
        if len(values) != len(records):
            raise WorkerError(f"metric {name!r} missing from a run")
        out[name] = stats.summary(values)
    return out


def write_reference(result: dict) -> None:
    REFERENCE.write_text(json.dumps({
        "description": (
            "Reference run: full seed-0 set, medians and quartiles per workload"
        ),
        "baseline_seed": 0,
        "held_out_seed": HELD_OUT_SEED,
        "env": result["env"],
        "seconds": result["seconds"],
        "runs_per_workload": result["runs_per_workload"],
        "summary": result["summary"],
    }, indent=2) + "\n")


def main(argv=None) -> int:
    bench = load_benchmark()
    all_workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=all_workloads,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=1,
                        help="fresh-process runs per workload")
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run: report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads, results under results/smoke/")
    parser.add_argument("--reference", action="store_true",
                        help=f"also write {REFERENCE.name} (full seed-0 set only)")
    args = parser.parse_args(argv)
    workloads = args.workload or all_workloads
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
    if args.reference and (
        args.smoke or args.trace or args.seed != 0 or args.runs < 5
        or set(workloads) != set(all_workloads)
    ):
        parser.error("--reference needs all workloads, seed 0, --runs >= 5, "
                     "no --smoke and no --trace")

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in bench[section]}
    results_dir = RESULTS / "smoke" if args.smoke else RESULTS
    results_dir.mkdir(parents=True, exist_ok=True)
    result = {
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "env": environment(args.seed),
        "seconds": args.seconds,
        "runs_per_workload": args.runs,
        "runs": {},
        "summary": {},
    }
    try:
        for workload in workloads:
            records = [one_run(workload, args, results_dir, f"r{r}") for r in range(args.runs)]
            result["runs"][workload] = records
            result["summary"][workload] = summarise(records, declared)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(RESULTS / "tmp", ignore_errors=True)

    records = [r for rs in result["runs"].values() for r in rs]
    result["attempted"] = sum(r["attempted"] for r in records)
    result["failed"] = sum(r["failed"] for r in records)
    result["correct"] = all(r["correct"] for r in records)
    for workload, summary in result["summary"].items():
        for name, s in summary.items():
            print(f"{workload} {name} {s['median']:.6g} {declared[name]['unit']} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    for r in records:
        for check in r["checks"]:
            if not check["ok"]:
                print(f"{r['workload']} check FAILED: {check['name']} {check['detail']}")

    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{stamp}-{os.getpid()}_{'-'.join(workloads)}_seed{args.seed}"
    out_path = results_dir / f"{name}{'_trace' if args.trace else ''}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    if args.reference:
        write_reference(result)

    single = len(workloads) == 1
    metrics = {
        (name if single else f"{workload}/{name}"): {
            "value": s["median"], "unit": declared[name]["unit"]
        }
        for workload, summary in result["summary"].items()
        for name, s in summary.items()
    }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
