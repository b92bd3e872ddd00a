"""Benchmark rows for the solver: seeded workloads, work counters, timings."""

from __future__ import annotations

import dataclasses
import time

from .prng import SplitMix64, random_word
from .solver import TwistStats, process_word


@dataclasses.dataclass(frozen=True)
class BenchRow:
    """One CSV row; the fields, in order, are the columns."""
    n: int
    word_length: int
    seed: int
    final_list_length: int
    max_list_length: int
    links_visited: int
    time_ns: int

    def csv(self) -> str:
        return ",".join(map(str, dataclasses.astuple(self)))


CSV_HEADER = ",".join(field.name for field in dataclasses.fields(BenchRow))


def total_links_visited(per_letter: list[TwistStats]) -> int:
    """Scan work across all letters, twist and reduce passes combined."""
    return sum(s.links_visited + s.reduce_links_visited for s in per_letter)


def peak_list_length(strand_count: int, per_letter: list[TwistStats]) -> int:
    """Longest list ever held, including the starting standard g-base (2n + 1 links)."""
    return max([2 * strand_count + 1] + [s.pre_reduce_length for s in per_letter])


def bench_rows(strand_count: int, length: int, count: int, seed: int) -> list[BenchRow]:
    """Process `count` seeded random words and report one row per word.

    Every word gets its own letter stream, seeded from a master stream over
    `seed`; the per-word seed lands in the row, so rows are reproducible
    individually as well as in bulk. Everything except time_ns is
    deterministic for fixed flags.
    """
    master = SplitMix64(seed)
    rows = []
    for _ in range(count):
        word_seed = master.next_uint64()
        word = random_word(strand_count, length, SplitMix64(word_seed))
        started = time.perf_counter_ns()
        gbase, per_letter = process_word(word)
        elapsed = time.perf_counter_ns() - started
        rows.append(
            BenchRow(
                n=strand_count,
                word_length=length,
                seed=word_seed,
                final_list_length=len(gbase),
                max_list_length=peak_list_length(strand_count, per_letter),
                links_visited=total_links_visited(per_letter),
                time_ns=elapsed,
            )
        )
    return rows
