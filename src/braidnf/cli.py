"""Command-line front end.

Verdict commands print "true" or "false" and exit 0 for an affirmative
verdict, 1 for a negative one; any malformed input, work ceiling, or usage
problem exits 2 with a diagnostic on stderr, and an internal error (a bug)
exits 3, so it never reads as a verdict.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Iterator

from .bench import CSV_HEADER, bench_rows
from .braidword import parse_word
from .errors import InternalStateError, MalformedWordError, ResourceLimitError
from .gbase import format_gbase
from .oracle import oracle_equal
from .solver import is_identity, normal_form, words_equal


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidnf",
        description="Decide braid-word equality via g-base normal forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_word_command(name: str, help_text: str, words: int) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--strands", type=int, required=True, metavar="N")
        if words == 1:
            cmd.add_argument("word", nargs="?", default=None)
            cmd.add_argument("--file", default=None, metavar="PATH",
                             help="batch mode: read one word per line")
        else:
            for arg in ("word1", "word2")[:words]:
                cmd.add_argument(arg)
        return cmd

    add_word_command("normal-form", "print the normal-form g-base of a word", 1)
    add_word_command("equal", "decide whether two words are the same braid", 2)
    add_word_command("identity", "decide whether a word is the trivial braid", 1)
    add_word_command("oracle-equal",
                     "decide equality with the free-group action instead", 2)

    bench = sub.add_parser("bench", help="time seeded random words, CSV on stdout")
    bench.add_argument("--strands", type=int, required=True, metavar="N")
    bench.add_argument("--length", type=int, required=True, metavar="L")
    bench.add_argument("--count", type=int, required=True, metavar="K")
    bench.add_argument("--seed", type=int, required=True, metavar="S")
    return parser


def _batch_words(args: argparse.Namespace) -> Iterator[str]:
    """The word argument, or the lines of --file one at a time as they are read."""
    if (args.word is None) == (args.file is None):
        raise MalformedWordError("pass exactly one of a word argument or --file")
    if args.word is not None:
        yield args.word
        return
    with open(args.file, encoding="utf-8") as handle:
        for line in handle:
            yield line.rstrip("\n")


def _run(args: argparse.Namespace) -> int:
    if args.command == "bench":
        rows = bench_rows(args.strands, args.length, args.count, args.seed)
        print(CSV_HEADER)
        for row in rows:
            print(row.csv())
        return 0

    if args.command == "normal-form":
        for text in _batch_words(args):
            print(format_gbase(normal_form(parse_word(text, args.strands))), flush=True)
        return 0

    if args.command in ("equal", "oracle-equal"):
        decide = words_equal if args.command == "equal" else oracle_equal
        verdicts = [decide(parse_word(args.word1, args.strands),
                           parse_word(args.word2, args.strands))]
    else:  # identity; one verdict line per word, printed once it is decided
        verdicts = (
            is_identity(parse_word(text, args.strands)) for text in _batch_words(args)
        )
    all_true = True
    for verdict in verdicts:
        print("true" if verdict else "false", flush=True)
        all_true = all_true and verdict
    return 0 if all_true else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ResourceLimitError, ValueError, OSError) as error:
        print(f"braidnf: error: {error}", file=sys.stderr)
        return 2
    except InternalStateError as error:
        print(f"braidnf: internal error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
