"""Requests, output checks and figures for one workload, inside the worker.

`measure` (trace 0) runs requests until the time is up and reports the
end-to-end figures. `trace` (trace 1) runs a fixed number of requests, each
first untraced and then traced, and reports the per-layer figures; the fixed
count makes the library's work counters repeat exactly for a given seed.
Every output is checked after the timed region, and a failure is counted,
never allowed to stop the run.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import time
import zlib

from braidnf import braidword, cli, gbase, oracle, solver

import inputs
import spans

# Requests per second each workload roughly sustains; sets the traced run's
# request count so that it takes about SECONDS.
NOMINAL_RATE = {"tangle": 2.0, "wide": 12.0, "verdict": 20.0}

# Percentiles the tail latency is chosen from, highest first: the usual
# "nines". A finer ladder would switch percentile on small changes in the
# request count, and the chosen one would rest on fewer requests.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def normal_form(strands: int, request: inputs.Request) -> str:
    found, _ = solver.process_word(braidword.parse_word(request.word, strands))
    return gbase.format_gbase(found)


def cli_normal_form(strands: int, request: inputs.Request) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["normal-form", "--strands", str(strands), request.word])
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue().rstrip("\n")


def verdicts(strands: int, request: inputs.Request) -> tuple[bool, bool]:
    first = braidword.parse_word(request.word, strands)
    second = braidword.parse_word(request.other, strands)
    return solver.words_equal(first, second), oracle.oracle_equal(first, second)


HANDLERS = {"tangle": normal_form, "wide": cli_normal_form, "verdict": verdicts}


def check(strands: int, request: inputs.Request, output) -> str | None:
    """None if the output is right, else what is wrong with it."""
    if request.expected is not None:
        if output != (request.expected, request.expected):
            return f"{request.kind} pair: verdicts {output}, expected {request.expected}"
        return None
    found = gbase.parse_gbase(output, strands)
    violation = gbase.validate(found, reduced_expected=True)
    if violation is not None:
        return f"normal form not reduced: {violation}"
    word = braidword.parse_word(request.word, strands)
    if gbase.endpoints_permutation(found) != braidword.permutation_of_word(word):
        return "endpoint permutation differs from the word's permutation"
    return None


class Outcomes:
    """Outputs kept for checking after the timed region, plus failures."""

    def __init__(self, strands: int):
        self.strands = strands
        self.kept: list[tuple[inputs.Request, object]] = []
        self.failures: list[str] = []

    def add(self, request: inputs.Request, output, error: str | None) -> None:
        if error is not None:
            self.failures.append(error)
        elif isinstance(output, str):
            # Normal forms reach megabytes but compress ~30x; kept whole they
            # would dominate the worker's peak memory.
            self.kept.append((request, zlib.compress(output.encode(), 1)))
        else:
            self.kept.append((request, output))

    def check_all(self) -> tuple[int, str | None]:
        """Check every kept output; returns (normal forms, their sha256)."""
        digest = hashlib.sha256()
        normal_forms = 0
        for request, output in self.kept:
            if isinstance(output, bytes):
                text = zlib.decompress(output)
                digest.update(text + b"\n")
                output = text.decode()
                normal_forms += 1
            try:
                problem = check(self.strands, request, output)
            except Exception as error:  # a crash in the check is a failure too
                problem = f"check raised {type(error).__name__}: {error}"
            if problem is not None:
                self.failures.append(problem)
        return normal_forms, digest.hexdigest() if normal_forms else None


def timed(handler, strands: int, request: inputs.Request):
    """(output, error, elapsed ns) of one request; exceptions become errors."""
    start = time.perf_counter_ns()
    try:
        output, error = handler(strands, request), None
    except Exception as exc:
        output, error = None, f"{type(exc).__name__}: {exc}"
    return output, error, time.perf_counter_ns() - start


def tail(latencies_ns: list[int]) -> tuple[float, int]:
    """(percentile, value) for the highest percentile with >= 10 requests beyond it."""
    ordered = sorted(latencies_ns)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        if count * (100.0 - percentile) / 100.0 >= 10:
            break
    rank = max(1, math.ceil(count * percentile / 100))  # nearest rank, 1-based
    return percentile, ordered[rank - 1]


def measure(workload: inputs.Workload, seed: int, seconds: float) -> dict:
    handler = HANDLERS[workload.name]
    stream = inputs.requests(workload, seed)
    outcomes = Outcomes(workload.strands)
    latencies: list[int] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        request = next(stream)
        output, error, elapsed = timed(handler, workload.strands, request)
        latencies.append(elapsed)
        outcomes.add(request, output, error)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    normal_forms, sha = outcomes.check_all()
    percentile, tail_ns = tail(latencies)
    return {
        "attempted": len(latencies),
        "failures": outcomes.failures,
        "metrics": {
            "requests_per_s": len(latencies) / (sum(latencies) / 1e9),
            "latency_p50_ms": sorted(latencies)[(len(latencies) - 1) // 2] / 1e6,
            "latency_tail_ms": tail_ns / 1e6,
            "peak_rss_mb": peak_rss_kb / 1024.0,
        },
        "tail_percentile": percentile,
        "normal_forms": normal_forms,
        "normal_form_sha256": sha,
    }


def trace(workload: inputs.Workload, seed: int, seconds: float, spans_path: str) -> dict:
    handler = HANDLERS[workload.name]
    stream = inputs.requests(workload, seed)
    outcomes = Outcomes(workload.strands)
    count = max(1, round(seconds * NOMINAL_RATE[workload.name] / 2))
    tracer = spans.Tracer()
    untraced_ns = traced_ns = 0
    for number in range(count):
        request = next(stream)
        _, _, elapsed = timed(handler, workload.strands, request)
        untraced_ns += elapsed
        tracer.request = number
        tracer.install()
        output, error, elapsed = timed(
            tracer.wrap("request", handler), workload.strands, request
        )
        tracer.uninstall()
        traced_ns += elapsed
        outcomes.add(request, output, error)
    normal_forms, sha = outcomes.check_all()
    tracer.write(spans_path)
    values, absent = spans.layer_metrics(tracer, count, untraced_ns, traced_ns)
    return {
        "attempted": count,
        "failures": outcomes.failures,
        "metrics": values,
        "absent": absent,
        "normal_forms": normal_forms,
        "normal_form_sha256": sha,
        "spans_file": spans_path,
    }


def main(argv: list[str]) -> None:
    """argv: WORKLOAD SEED SECONDS TRACE OUT_DIR; prints the result as one JSON line."""
    name, seed, seconds, traced, out_dir = argv
    workload = inputs.WORKLOADS[name]
    if traced == "1":
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{name}-{seed}.jsonl")
        result = trace(workload, int(seed), float(seconds), path)
    else:
        result = measure(workload, int(seed), float(seconds))
    print(json.dumps(result))
