"""Growth study for the solver's work counters on random words.

Measures how total scan work (links visited across twist and reduce passes)
and the normal-form length respond to doubling the word length at fixed
strand count, and to varying the strand count at fixed length. Prints a
table per experiment plus a log-log fit exponent for the doubling run.

With --predicted, each table also gives the mean floor that Dynnikov
coordinates predict without running the engine (predicted_passes in
tests/conftest.py): twice the sum, over the word's prefixes, of the length
of the list the next letter reads, 2n + 1 plus the passes of every path.
Each letter visits its input list in the twist and, at least, again in the
reduction of the output, so this is close to the measured visits; its own
fit exponent and spread show how much of the growth the braids' size alone
explains.

Usage:
    python scripts/doubling_experiment.py [--seed S] [--count K] [--predicted]
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from braidnf.bench import bench_rows
from braidnf.braidword import BraidWord
from braidnf.prng import SplitMix64, random_word

COLUMNS = "mean_visits  median_visits   max_visits  mean_final  mean_ms"
FLOOR_COLUMNS = "  mean_floor  floor/visits"


def load_predicted_passes():
    """predicted_passes from tests/conftest.py, which imports hypothesis."""
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import predicted_passes
    return predicted_passes


def predicted_floor(row, passes) -> int:
    """Twice the summed predicted lengths of the lists the letters of the
    row's word read, from each prefix's Dynnikov coordinates alone."""
    word = random_word(row.n, row.word_length, SplitMix64(row.seed))
    prefixes = (BraidWord(row.n, word.letters[:k]) for k in range(row.word_length))
    return 2 * sum(2 * row.n + 1 + sum(passes(prefix)) for prefix in prefixes)


def summarize(rows):
    visits = [r.links_visited for r in rows]
    finals = [r.final_list_length for r in rows]
    times = [r.time_ns for r in rows]
    return (
        statistics.mean(visits),
        statistics.median(visits),
        max(visits),
        statistics.mean(finals),
        statistics.mean(times) / 1e6,
    )


def table_line(key: int, rows, passes, floors: dict) -> tuple[float, str]:
    """The mean visits of the rows and their table line; with `passes`,
    records the mean predicted floor in floors[key] and adds it to the line."""
    mean_v, med_v, max_v, mean_f, mean_ms = summarize(rows)
    line = f"{key:6d}  {mean_v:11.0f}  {med_v:13.0f}  {max_v:11d}  {mean_f:10.1f}  {mean_ms:7.1f}"
    if passes is not None:
        floors[key] = statistics.mean(predicted_floor(r, passes) for r in rows)
        line += f"  {floors[key]:10.0f}  {floors[key] / mean_v:12.2f}"
    return mean_v, line


def fit_exponent(means: dict) -> float:
    """Least-squares slope of log(value) against log(key)."""
    xs = [math.log(key) for key in means]
    ys = [math.log(value) for value in means.values()]
    xbar, ybar = statistics.mean(xs), statistics.mean(ys)
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )


def doubling(args, passes) -> None:
    print(f"doubling word length at n={args.strands} ({args.count} words per length)")
    print("length  " + COLUMNS + (FLOOR_COLUMNS if passes else ""))
    means, floors = {}, {}
    for length in args.lengths:
        rows = bench_rows(args.strands, length, args.count, args.seed)
        means[length], line = table_line(length, rows, passes, floors)
        print(line)
    print(f"log-log fit exponent: {fit_exponent(means):.2f}")
    if passes:
        print(f"predicted floor fit exponent: {fit_exponent(floors):.2f}")


def strand_spread(args, passes) -> None:
    print(f"\nvarying strand count at length {args.length} ({args.count} words per n)")
    print("     n  " + COLUMNS + (FLOOR_COLUMNS if passes else ""))
    means, floors = {}, {}
    for n in args.strand_counts:
        rows = bench_rows(n, args.length, args.count, args.seed)
        means[n], line = table_line(n, rows, passes, floors)
        print(line)
    print(f"spread (max/min of mean visits): {max(means.values()) / min(means.values()):.2f}x")
    if passes:
        spread = max(floors.values()) / min(floors.values())
        print(f"spread (max/min of mean predicted floor): {spread:.2f}x")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--count", type=int, default=8, help="words per configuration")
    parser.add_argument("--strands", type=int, default=20, help="n for the doubling run")
    parser.add_argument("--lengths", type=int, nargs="+", default=[16, 32, 64, 128])
    parser.add_argument("--length", type=int, default=32, help="length for the n sweep")
    parser.add_argument("--strand-counts", type=int, nargs="+", default=[5, 20, 80])
    parser.add_argument("--predicted", action="store_true",
                        help="add the floor Dynnikov coordinates predict, from tests/conftest.py")
    args = parser.parse_args(argv)
    passes = load_predicted_passes() if args.predicted else None
    doubling(args, passes)
    strand_spread(args, passes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
