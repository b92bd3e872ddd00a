"""Benchmark rows for the solver: seeded workloads, work counters, timings."""

from __future__ import annotations

import dataclasses
import time

from . import gbase
from .errors import ResourceLimitError
from .prng import SplitMix64, random_word
from .solver import process_word


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


def bench_rows(strand_count: int, length: int, count: int, seed: int) -> list[BenchRow]:
    """Process `count` seeded random words and report one row per word.

    Every word gets its own letter stream, seeded from a master stream over
    `seed`; the per-word seed lands in the row, so rows are reproducible
    individually as well as in bulk. Everything except time_ns is
    deterministic for fixed flags. The arguments are checked before any word
    is drawn: the strand count as gbase.check_strand_count does, then
    ValueError for a negative length or count or for letters over 1 strand,
    then ResourceLimitError for words process_word would refuse anyway:
    every letter visits at least its input list, and a reduced list never
    holds fewer than its n + 1 separators and n endpoints.
    """
    gbase.check_strand_count(strand_count)
    if length < 0 or count < 0:
        raise ValueError(f"bench needs length >= 0 and count >= 0, got {length} and {count}")
    if strand_count == 1 and length > 0:
        raise ValueError("no generators exist over 1 strand; use length 0")
    floor = length * (2 * strand_count + 1)
    if floor > gbase.MAX_VISITS:
        raise ResourceLimitError(
            f"{length} letters over {strand_count} strands visit at least {floor} links, "
            f"which exceed MAX_VISITS ({gbase.MAX_VISITS})"
        )
    master = SplitMix64(seed)
    rows = []
    for _ in range(count):
        word_seed = master.next_uint64()
        word = random_word(strand_count, length, SplitMix64(word_seed))
        started = time.perf_counter_ns()
        final, per_letter = process_word(word)
        elapsed = time.perf_counter_ns() - started
        rows.append(
            BenchRow(
                n=strand_count,
                word_length=length,
                seed=word_seed,
                final_list_length=len(final),
                # from the standard g-base's 2n + 1 links on; TwistStats
                # says what its counters count
                max_list_length=max(
                    [2 * strand_count + 1] + [s.pre_reduce_length for s in per_letter]
                ),
                links_visited=sum(s.links_visited + s.reduce_links_visited for s in per_letter),
                time_ns=elapsed,
            )
        )
    return rows
