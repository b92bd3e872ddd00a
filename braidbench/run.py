"""braidnf benchmark: one workload, end to end or per layer.

    python3 braidbench/run.py --workload wide --seed 20260808 --seconds 30 --trace 0

Run from the root of a checkout; the library is taken from its `src`
directory. The workload runs in a fresh worker process (worker.py). With
`--trace 0` the last line of output is a JSON object with the end-to-end
metrics, with `--trace 1` one with the per-layer metrics of a traced run.
The line before it sums the run up for a reader, with the failure ratio,
the tail percentile and sample count, and the sha256 of the normal forms.
`--workload all` runs every workload in turn. See README.md in this
directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".braidbench")

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import spans  # noqa: E402

# Set-up is short and noisy, so each run sets up this many extra workers
# and reports the median over them and the measuring worker.
SETUP_PROBES = 12

END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int):
    """Start a worker; returns it and the seconds until it was ready."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    command = [sys.executable, os.path.join(HERE, "worker.py"), workload,
               str(seed), str(seconds), str(trace), OUT_DIR]
    start = time.perf_counter()
    worker = subprocess.Popen(command, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    line = worker.stdout.readline()
    ready = time.perf_counter() - start
    if line != "ready\n":
        stop(worker)
        raise WorkerError(f"worker did not get ready (exit code {worker.returncode})")
    return worker, ready


def stop(worker: subprocess.Popen) -> None:
    if worker.poll() is None:
        worker.kill()
    worker.wait()


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up, run and collect one workload; returns the worker's result."""
    setups = []
    for _ in range(0 if trace else SETUP_PROBES):
        probe, ready = spawn(workload, seed, 0, trace)
        try:
            probe.communicate(timeout=60)
        finally:
            stop(probe)
        setups.append(ready)
    worker, ready = spawn(workload, seed, seconds, trace)
    setups.append(ready)
    try:
        out, _ = worker.communicate(timeout=2 * seconds + 60)
    finally:
        stop(worker)
    if worker.returncode != 0 or not out.strip():
        raise WorkerError(f"worker failed with exit code {worker.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def units(trace: int) -> dict[str, str]:
    if trace:
        return {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
    return END_TO_END_UNITS


def summary(workload: str, seed: int, trace: int, result: dict) -> str:
    """One line for a reader: every metric with its unit, and what the JSON leaves out."""
    attempted, failed = result["attempted"], len(result["failures"])
    unit = units(trace)
    parts = [f"{workload} seed={seed}"]
    parts += [f"{name}={value:.6g} {unit[name]}" for name, value in result["metrics"].items()]
    if trace:
        parts.append(f"absent={','.join(result['absent']) or 'none'}")
        parts.append(f"spans={os.path.relpath(result['spans_file'], ROOT)}")
    else:
        parts.append(f"tail=p{result['tail_percentile']:g} of {attempted} requests")
    parts.append(f"failed_ratio={failed / attempted:g} ({failed}/{attempted})")
    parts.append(f"normal_forms={result['normal_forms']}")
    parts.append(f"normal_form_sha256={result['normal_form_sha256']}")
    lines = [" ".join(parts)]
    lines += [f"  failure: {message}" for message in result["failures"][:5]]
    return "\n".join(lines)


def report(result: dict, trace: int) -> dict:
    """The last line of output: correct, attempted, failed and metrics."""
    unit = units(trace)
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in result["metrics"].items()
                    if name not in spans.SUMMARY_ONLY},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "braidnf", "__init__.py")):
        print(f"braidbench: no library at {SRC}/braidnf; run from a checkout",
              file=sys.stderr)
        return 2

    names = sorted(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            print(summary(name, args.seed, args.trace, result), flush=True)
            reports[name] = report(result, args.trace)
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"braidbench: {error}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(reports[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{name}.{metric}": value for name, r in reports.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
