"""Mutation gate: every one-line rule bug listed here must fail a test.

Each mutant replaces one line fragment of src/braidnf. It is applied to a
temporary copy of the checkout, and the fast suite (the tests without
test_acceptance.py and test_scripts.py) runs there, stopping at the first
failure. Prints each mutant with the first test that fails, or SURVIVED;
exits 1 if any survived, and 2 if the fast suite fails on an unmutated
copy. A change that touches a rule adds its mutants here.

Usage:
    python scripts/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# test_scripts.py copies the checkout again and times the doubling
# experiment; it tests no rule
FAST_SUITE = (
    "tests", "--ignore=tests/test_acceptance.py", "--ignore=tests/test_scripts.py"
)

# (name, file under src/braidnf, fragment, replacement); the fragment must
# occur exactly once in the file
MUTANTS = [
    ("R2 without its retry", "engine.py",
     "while position != 1 and code == top - position + 1:",
     "if position != 1 and code == top - position + 1:"),
    ("R2 retries not counted", "engine.py",
     "len(text) + near_passes, deleted",
     "len(text), deleted"),
    ("R3 after a separator", "engine.py",
     "elif position == 1 and top != SEPARATOR_CODE and code != SEPARATOR_CODE:",
     "elif position == 1 and code != SEPARATOR_CODE:"),
    ("R4 on above-passes", "engine.py",
     "elif top == SEPARATOR_CODE and code % 3 == 0:",
     "elif top == SEPARATOR_CODE and code % 3 != 1:"),
    ("rotation off by 2", "engine.py",
     "6 * index + 11 - code", "6 * index + 9 - code"),
    ("connector order", "engine.py",
     "pre_left = text((index, -sign), (index + 1, -sign))",
     "pre_left = text((index + 1, -sign), (index, -sign))"),
    ("post connector not reversed", "engine.py",
     "dict.fromkeys(left, pre_left[::-1]), pre_right[::-1],",
     "dict.fromkeys(left, pre_left[::-1]), pre_right,"),
    ("detach link (q,-1) dropped", "engine.py",
     "= below + text((q, -1))", "= below"),
    ("block key without the link after the run", "engine.py",
     "key = parts[p - 1][-1], parts[p], parts[p + 1][0]",
     "key = parts[p - 1][-1], parts[p]"),
    ("block key without the link before the run", "engine.py",
     "key = parts[p - 1][-1], parts[p], parts[p + 1][0]",
     "key = parts[p], parts[p + 1][0]"),
    ("frame key without the sign", "engine.py",
     'frame = (sign, "".join(key).translate(to_frame)) if window else None',
     'frame = "".join(key).translate(to_frame) if window else None'),
    ("frame window check skipped", "engine.py",
     "window = ord(key[0]) in to_frame and ord(key[2]) in to_frame",
     "window = True"),
    ("frame shift maps a window code onto the separator", "engine.py",
     "shift = 3 * index - 3", "shift = 3 * index"),
    ("block stored before the vanishing check", "engine.py",
     "                if not block[0]:\n"
     "                    return reduce_codes(twist(text, index, sign))\n"
     "                if frame and len(_FRAME_BLOCKS) < MAX_BLOCKS:\n"
     "                    _FRAME_BLOCKS[frame] = block[0].translate(to_frame), block[1], block[2]\n",
     "                if frame and len(_FRAME_BLOCKS) < MAX_BLOCKS:\n"
     "                    _FRAME_BLOCKS[frame] = block[0].translate(to_frame), block[1], block[2]\n"
     "                if not block[0]:\n"
     "                    return reduce_codes(twist(text, index, sign))\n"),
    ("inserts not conserved", "solver.py",
     "len(text) + deleted - length", "len(text) - length"),
    ("_reduced across a neighbour", "solver.py",
     "if left and right and left[-1] == right[-1] and letters[left[-1]]",
     "if left and right and letters[left[-1]]"),
    ("permutation test skipped", "solver.py",
     "if permutation_of_word(first) != permutation_of_word(second):",
     "if False:"),
    ("suffix strip overlaps prefix", "solver.py",
     "while stop < shorter - start and", "while stop < shorter and"),
    ("link ceiling never checked", "solver.py",
     "if len(text) > gbase.MAX_LINKS:", "if False:"),
    ("visit ceiling never checked", "solver.py",
     "if visits > gbase.MAX_VISITS:", "if False:"),
    ("bench visit floor never checked", "bench.py",
     "if floor > gbase.MAX_VISITS:", "if False:"),
    ("word strand ceiling never checked", "braidword.py",
     "check_strand_count(self.strand_count)", "None"),
    ("letter index n allowed", "braidword.py",
     "<= self.strand_count - 1:", "<= self.strand_count:"),
    ("strand counts must differ", "braidword.py",
     "if first.strand_count != second.strand_count:",
     "if first.strand_count == second.strand_count:"),
    ("oracle sigma^-1 conjugates by c_{i+1}", "oracle.py",
     "else flip[ord(generators[p])]", "else generators[p]"),
    ("oracle keeps a trailing c_q in the conjugator", "oracle.py",
     "grown = grown.rstrip(c + flip[ord(c)])", "pass"),
    ("oracle junction cancellation skipped", "oracle.py",
     "elif there[t:t + 1] != flip[ord(y)]:", "elif True:"),
    ("oracle syllable ceiling never checked", "oracle.py",
     "if total > MAX_SYLLABLES:", "if False:"),
]


def run_mutant(
    mutant: tuple[str, str, str, str] | None, tests: tuple[str, ...] = FAST_SUITE
) -> str:
    """Run `tests` (pytest arguments, relative to the checkout) on a copy of
    the checkout with the mutant applied (none if None); returns the first
    failing test's id, or SURVIVED."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        ignore = shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".braidbench"
        )
        shutil.copytree(ROOT, copy, ignore=ignore)
        if mutant is not None:
            _, name, fragment, replacement = mutant
            path = copy / "src" / "braidnf" / name
            source = path.read_text()
            if source.count(fragment) != 1:
                raise ValueError(f"{name}: {fragment!r} does not occur exactly once")
            path.write_text(source.replace(fragment, replacement))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy,
            env={**os.environ, "PYTHONPATH": str(copy / "src")},
            capture_output=True,
            text=True,
        )
    if result.returncode == 0:
        return "SURVIVED"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", result.stdout, re.MULTILINE)
    if failed:
        return failed.group(1)
    # a crash before any test ran may print only to stderr
    last = (result.stdout.strip() or result.stderr.strip()).splitlines()
    return last[-1] if last else f"pytest exit code {result.returncode}"


def main() -> int:
    # a copy that fails unmutated would make every mutant read as killed
    outcome = run_mutant(None)
    if outcome != "SURVIVED":
        print(f"the unmutated copy fails {outcome}")
        return 2
    survivors = 0
    for mutant in MUTANTS:
        outcome = run_mutant(mutant)
        survivors += outcome == "SURVIVED"
        print(f"{mutant[0]:<45} {outcome}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
