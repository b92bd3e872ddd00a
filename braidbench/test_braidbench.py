"""Tests of the benchmark itself: inputs, span arithmetic, smoke runs.

    python -m pytest braidbench

The smoke runs start the benchmark the way a user does, as a subprocess, and
take a few seconds each.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from braidnf import braidword, prng  # noqa: E402

import harness  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("seed", [0, 7, inputs.DEFAULT_SEED, 2**64 - 1])
def test_word_stream_matches_library_prng(seed):
    master = prng.SplitMix64(seed)
    stream = inputs.requests(inputs.WORKLOADS["tangle"], seed)
    for _ in range(3):
        expected = prng.random_word(4, 64, prng.SplitMix64(master.next_uint64()))
        assert next(stream).word == braidword.format_word(expected)


def test_verdict_pair_invariants():
    workload = inputs.WORKLOADS["verdict"]
    stream = inputs.requests(workload, inputs.DEFAULT_SEED)
    rewritten = 0
    for number in range(300):
        request = next(stream)
        first = braidword.parse_word(request.word, workload.strands)
        second = braidword.parse_word(request.other, workload.strands)
        same_permutation = (
            braidword.permutation_of_word(first) == braidword.permutation_of_word(second)
        )
        assert request.kind == inputs.PAIR_KINDS[number % 3]
        assert len(first) == len(second) == workload.length
        if request.kind == "rewrite":
            assert request.expected is True and same_permutation
            rewritten += request.word != request.other
        elif request.kind == "flip":
            assert request.expected is False and same_permutation
            changed = [a != b for a, b in zip(first.letters, second.letters)]
            assert sum(changed) == 1
        else:
            assert request.expected is False and not same_permutation
    assert rewritten == 100


def test_rewrite_moves():
    def one_move(word):
        return {tuple(inputs.rewrite(word, inputs.SplitMix64(s), 1)) for s in range(20)}

    assert one_move([1, 2, 1]) == {(1, 2, 1), (2, 1, 2)}
    assert one_move([-2, -3, -2]) == {(-2, -3, -2), (-3, -2, -3)}
    assert one_move([1, -2, 1]) == {(1, -2, 1)}  # mixed signs: no relation applies
    assert one_move([1, 3, -5]) == {(3, 1, -5), (1, -5, 3)}


def test_self_time_on_synthetic_span_tree():
    tree = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 40, 0, 0),
        ("b", 30, 60, 0, 0),  # overlaps a: the union 10..60 is covered once
        ("leaf", 15, 20, 1, 0),
        ("leaf", 90, 120, 0, 0),  # clipped to the parent's end
        ("root", 200, 210, -1, 1),
    ]
    busy, self_ns, calls = spans.busy_and_self_ns(tree)
    assert busy == {"root": 110, "a": 30, "b": 30, "leaf": 35}
    assert self_ns == {"root": 40 + 10, "a": 25, "b": 30, "leaf": 35}
    assert calls == {"root": 2, "a": 1, "b": 1, "leaf": 2}


def test_tail_percentile_has_ten_requests_beyond_it():
    assert harness.tail(list(range(1, 1001))) == (99.0, 990)
    assert harness.tail(list(range(1, 101))) == (90.0, 90)
    assert harness.tail(list(range(1, 100))) == (50.0, 50)
    assert harness.tail([5, 3]) == (50.0, 3)


def test_missing_function_is_reported_absent(monkeypatch):
    from braidnf import oracle

    monkeypatch.delattr(oracle, "word_image")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    _, absent = spans.layer_metrics(tracer, 1, 1, 1)
    assert absent == ["oracle.syllables", "oracle.word_image.calls", "oracle.word_image.ms"]


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "braidbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


def result_of(done) -> tuple[str, dict]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[-2], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_smoke_run_prints_every_metric_and_no_failure(workload):
    summary, result = result_of(bench("--workload", workload, "--seconds", "0.5"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in list(run.END_TO_END_UNITS) + ["failed_ratio"]:
        assert f"{name}=" in summary
    assert "failed_ratio=0 " in summary


def test_traced_counts_repeat_exactly():
    args = ("--workload", "verdict", "--seconds", "0.3", "--trace", "1", "--seed", "5")
    _, first = result_of(bench(*args))
    _, second = result_of(bench(*args))
    assert set(first["metrics"]) == set(spans.LAYER_METRICS) - set(spans.SUMMARY_ONLY)
    assert first["failed"] == 0
    counts = [name for name, (unit, _) in spans.LAYER_METRICS.items()
              if name.startswith("solver.") and unit != "ms"]
    assert len(counts) == 6
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name]
        assert first["metrics"][name]["value"] > 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "braidbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = bench("--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""
